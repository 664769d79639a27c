//! `sim_sweep`: the figure-regeneration path. One sweep is
//! `dca::sim::run_journaled` on `DcaConfig::paper_baseline` under TR k = 19,
//! PR k = 19 and IR d = 4, each followed by the `report_from_journal`
//! equality the figure generators rely on. No threads and no clock, so it
//! times `core::execution` + `desim::engine` + `dca::sim` alone.

use std::rc::Rc;

use smartred_core::analysis::iterative;
use smartred_core::params::{KVotes, Reliability, VoteMargin};
use smartred_core::strategy::{Iterative, Progressive, Traditional};
use smartred_dca::{report_from_journal, run_journaled, DcaConfig, DcaReport, SharedStrategy};

use crate::serve::{MARGIN, WRONG_RATE};
use crate::sys::{now_ns, secs};

pub const NODES: usize = 1_000;
const K: usize = 19;

pub fn strategies() -> [(&'static str, SharedStrategy); 3] {
    let k = KVotes::new(K).expect("static k is valid");
    let d = VoteMargin::new(MARGIN).expect("static margin is valid");
    [
        ("tr", Rc::new(Traditional::new(k))),
        ("pr", Rc::new(Progressive::new(k))),
        ("ir", Rc::new(Iterative::new(d))),
    ]
}

pub fn config(tasks: usize, seed: u64) -> DcaConfig {
    DcaConfig::paper_baseline(tasks, NODES, WRONG_RATE, seed)
}

/// One figure point: a strategy simulated, journaled and replay-checked.
#[derive(Debug)]
pub struct Point {
    pub strategy: &'static str,
    /// Host seconds from the `run_journaled` call to the verified report.
    pub secs: f64,
    pub report: DcaReport,
    pub digest: u64,
}

pub fn sweep(tasks: usize, seed: u64) -> Result<Vec<Point>, String> {
    let cfg = config(tasks, seed);
    strategies()
        .into_iter()
        .map(|(name, strategy)| {
            let start = now_ns();
            let run = run_journaled(strategy, &cfg).map_err(|e| e.to_string())?;
            let replayed = report_from_journal(&run.journal, &cfg);
            let secs = secs(start, now_ns());
            if replayed != run.report {
                return Err(format!("{name}: report_from_journal(&journal) != report"));
            }
            let r = &run.report;
            if r.tasks_completed != tasks || r.tasks_capped != 0 || r.tasks_stranded != 0 {
                return Err(format!(
                    "{name}: {} completed, {} capped, {} stranded of {tasks}",
                    r.tasks_completed, r.tasks_capped, r.tasks_stranded
                ));
            }
            Ok(Point {
                strategy: name,
                secs,
                digest: run.journal.digest(),
                report: run.report,
            })
        })
        .collect()
}

/// IR must land inside six standard errors of Eqs. (5) and (6); TR spends
/// exactly k jobs on every task.
pub fn check_paper_band(points: &[Point]) -> Result<(), String> {
    let d = VoteMargin::new(MARGIN).expect("static margin is valid");
    let r = Reliability::new(1.0 - WRONG_RATE).expect("static reliability is valid");
    for p in points {
        match p.strategy {
            "tr" if p.report.cost_factor() != K as f64 => {
                return Err(format!(
                    "tr: {} jobs per task, not {K}",
                    p.report.cost_factor()
                ));
            }
            "ir" => {
                let (cost, rel) = (iterative::cost(d, r), iterative::reliability(d, r));
                let n = p.report.tasks_completed as f64;
                let cost_band = 6.0 * p.report.jobs_per_task.std_error();
                let rel_band = 6.0 * (rel * (1.0 - rel) / n).sqrt();
                if (p.report.cost_factor() - cost).abs() > cost_band
                    || (p.report.reliability() - rel).abs() > rel_band
                {
                    return Err(format!(
                        "ir: cost {:.4} vs {cost:.4} ± {cost_band:.4}, reliability {:.5} vs \
                         {rel:.5} ± {rel_band:.5} (Eqs. 5, 6)",
                        p.report.cost_factor(),
                        p.report.reliability()
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}
