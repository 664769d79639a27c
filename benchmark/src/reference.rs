//! The reference computation every serving run is held to. A replica's vote
//! is a pure function of `(seed, task, replica)` — `FaultyWorker` draws it
//! from `task_rng` — so feeding those draws through
//! `TaskExecution::{step_wave, record}` reproduces, without a runtime, the
//! exact job and verdict counts any run of that seed must report, crash or
//! no crash. Timing the same loop is the `core.execution` layer probe.

use rand::Rng;
use smartred_core::execution::{TaskExecution, WaveStep};
use smartred_core::parallel::task_rng;

use smartred_core::analysis::iterative;
use smartred_core::params::{Reliability, VoteMargin};

use crate::serve::{strategy, MARGIN, WRONG_RATE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub tasks: usize,
    pub jobs: u64,
    /// Sum of squared per-task job counts, for the cost's standard error.
    pub jobs_sq: u64,
    pub waves: u64,
    pub correct: usize,
}

/// Replays tasks `0..tasks` of `seed` with the draws `FaultyWorker` makes.
pub fn replay(seed: u64, tasks: usize) -> Reference {
    drive(tasks, |task, replica| {
        let u: f64 = task_rng(seed, task, replica).gen();
        u >= WRONG_RATE
    })
}

/// Runs `tasks` task executions to their verdicts, asking `vote` for the
/// vote of each `(task, replica)`.
pub fn drive(tasks: usize, mut vote: impl FnMut(u64, u64) -> bool) -> Reference {
    let strategy = strategy();
    let mut out = Reference {
        tasks,
        jobs: 0,
        jobs_sq: 0,
        waves: 0,
        correct: 0,
    };
    for task in 0..tasks as u64 {
        let mut exec = TaskExecution::new(&strategy);
        let mut replica = 0u64;
        loop {
            match exec.step_wave() {
                WaveStep::Wave { jobs, .. } => {
                    for _ in 0..jobs {
                        exec.record(vote(task, replica));
                        replica += 1;
                    }
                }
                WaveStep::Verdict(v) => {
                    out.correct += usize::from(v);
                    break;
                }
                WaveStep::Pending | WaveStep::Capped { .. } => {
                    unreachable!("every vote of a wave is recorded and no job cap is set")
                }
            }
        }
        let jobs = exec.jobs_deployed() as u64;
        out.jobs += jobs;
        out.jobs_sq += jobs * jobs;
        out.waves += exec.waves() as u64;
    }
    out
}

impl Reference {
    pub fn jobs_per_task(&self) -> f64 {
        self.jobs as f64 / self.tasks as f64
    }

    pub fn reliability(&self) -> f64 {
        self.correct as f64 / self.tasks as f64
    }

    /// Eq. (5) cost `d(2R−1)/(2r−1)` = 9.348 and Eq. (6) reliability 0.9674
    /// at d = 4, r = 0.7. The band is six standard errors of the sample, so
    /// a seed falls outside it about once in 10⁸ runs.
    pub fn check_paper_band(&self) -> Result<(), String> {
        let d = VoteMargin::new(MARGIN).expect("static margin is valid");
        let r = Reliability::new(1.0 - WRONG_RATE).expect("static reliability is valid");
        let (cost, rel) = (iterative::cost(d, r), iterative::reliability(d, r));
        let n = self.tasks as f64;
        let mean = self.jobs_per_task();
        let variance = (self.jobs_sq as f64 / n - mean * mean).max(0.0);
        let cost_band = 6.0 * (variance / n).sqrt();
        let rel_band = 6.0 * (rel * (1.0 - rel) / n).sqrt();
        if (mean - cost).abs() > cost_band {
            return Err(format!(
                "jobs_per_task {mean:.4} outside {cost:.4} ± {cost_band:.4} (Eq. 5)"
            ));
        }
        if (self.reliability() - rel).abs() > rel_band {
            return Err(format!(
                "reliability {:.5} outside {rel:.5} ± {rel_band:.5} (Eq. 6)",
                self.reliability()
            ));
        }
        Ok(())
    }
}
