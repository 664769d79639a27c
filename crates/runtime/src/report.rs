//! Run metrics and the journal replay cross-check.
//!
//! The live [`RuntimeReport`] is built in one place: the coordinator's
//! ledger folds every record into it as the record is applied
//! (`Ledger::apply`), and recovery rebuilds it by feeding the WAL through
//! the same `apply`. [`report_from_journal`] derives the same report from
//! the recorded event stream alone and deliberately shares no code with
//! the ledger: it is the independent reference that tests, the sharded
//! merge and the benchmark gate hold the live report to. Every metric is
//! a fold over events in stream order — including the order-sensitive
//! Welford summaries — so for a journaled run the two must agree
//! **exactly** (`==`), the same contract `dca::replay` enforces for the
//! simulator. Any drift is a test failure, not a silent skew.

use smartred_desim::journal::{Journal, RunEvent};
use smartred_desim::time::SimTime;
use smartred_stats::Summary;

use crate::id_hash::IdMap;

/// Aggregate metrics of one runtime run.
///
/// Time-valued fields are in journal units (1 unit = 1 second of wall
/// time); they are derived from the stamped event times, so live and
/// replayed reports agree bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeReport {
    /// Tasks that reached a firm verdict.
    pub tasks_completed: usize,
    /// Completed tasks whose verdict was the honest answer.
    pub tasks_correct: usize,
    /// Tasks abandoned at the job cap without a verdict.
    pub tasks_capped: usize,
    /// Jobs dispatched to workers.
    pub total_jobs: u64,
    /// Jobs that missed their wall-clock deadline.
    pub timeouts: u64,
    /// Timeout-triggered reissues.
    pub retries: u64,
    /// Worker panics caught and recovered by the supervisor.
    pub worker_crashes: u64,
    /// Worker restarts: one per caught panic plus one per hung-worker
    /// respawn.
    pub worker_restarts: u64,
    /// Late or pre-epoch replies rejected by the staleness filter.
    pub stale_replies: u64,
    /// Tasks quarantined for repeatedly crashing workers.
    pub tasks_poisoned: usize,
    /// Local recomputations performed by the audit layer (each costs one
    /// job-equivalent of coordinator compute).
    pub audits: u64,
    /// Results an audit caught contradicting the local recomputation.
    pub audit_failures: u64,
    /// Tainted verdicts voided before acceptance (task re-ran from
    /// scratch).
    pub verdicts_voided: u64,
    /// Open tasks re-tallied because a caught liar had touched them.
    pub tasks_retallied: u64,
    /// Hedge twins launched for straggling jobs (quantile-triggered
    /// duplicates; not counted in `total_jobs` or the wave accounting).
    pub hedges_launched: u64,
    /// Hedge twins that beat their straggling origin and supplied the vote.
    pub hedges_won: u64,
    /// Hedge twins whose work was discarded (origin answered first, or the
    /// twin itself lapsed).
    pub hedges_wasted: u64,
    /// Jobs per completed task (the paper's cost factor, measured live).
    pub jobs_per_task: Summary,
    /// Deployment waves per completed task.
    pub waves_per_task: Summary,
    /// First-dispatch → verdict latency per completed task, in units.
    pub response_time: Summary,
    /// Wall-clock run length in units (stamp of the run-ended event).
    pub makespan_units: f64,
}

impl RuntimeReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of completed tasks that accepted the honest answer
    /// (0 when nothing completed).
    pub fn reliability(&self) -> f64 {
        if self.tasks_completed == 0 {
            0.0
        } else {
            self.tasks_correct as f64 / self.tasks_completed as f64
        }
    }

    /// Mean jobs per completed task.
    pub fn cost_factor(&self) -> f64 {
        self.jobs_per_task.mean()
    }

    /// Total work performed, in job-equivalents: dispatched jobs plus the
    /// audit layer's local recomputations. The matched-cost comparisons of
    /// audit-enabled vs audit-free strategies use this, not `total_jobs`,
    /// so neither auditing nor hedging is ever "free".
    pub fn total_cost(&self) -> u64 {
        self.total_jobs + self.audits + self.hedges_launched
    }
}

/// Per-task accumulation while folding over the event stream.
#[derive(Clone, Copy, Default)]
struct TaskAcc {
    first_dispatch: Option<SimTime>,
    jobs: u64,
    waves: u32,
}

/// Recomputes the full [`RuntimeReport`] of a journaled run from its
/// journal. For any run with journaling enabled, the output equals the
/// live report exactly.
pub fn report_from_journal(journal: &Journal) -> RuntimeReport {
    let mut report = RuntimeReport::new();
    // Open tasks only: a task's entry goes at its decision, since a decided
    // task never runs again and no later record of it reads one.
    let mut tasks: IdMap<TaskAcc> = IdMap::default();
    for e in journal.events() {
        match e.event {
            RunEvent::JobDispatched { task, .. } => {
                report.total_jobs += 1;
                let acc = tasks.entry(task).or_default();
                if acc.first_dispatch.is_none() {
                    acc.first_dispatch = Some(e.at);
                }
            }
            RunEvent::WaveOpened { task, jobs, .. } => {
                let acc = tasks.entry(task).or_default();
                acc.jobs += u64::from(jobs);
                acc.waves += 1;
            }
            RunEvent::JobTimedOut { .. } => report.timeouts += 1,
            RunEvent::JobRetried { .. } => report.retries += 1,
            RunEvent::VerdictReached { task, value, .. } => {
                report.tasks_completed += 1;
                if value {
                    report.tasks_correct += 1;
                }
                let acc = tasks.remove(&task).unwrap_or_default();
                report.jobs_per_task.record(acc.jobs as f64);
                report.waves_per_task.record(acc.waves as f64);
                let response = match acc.first_dispatch {
                    Some(started) => e.at.since(started).as_units(),
                    None => 0.0,
                };
                report.response_time.record(response);
            }
            RunEvent::TaskCapped { task } => {
                report.tasks_capped += 1;
                tasks.remove(&task);
            }
            RunEvent::AuditScheduled { .. } => report.audits += 1,
            RunEvent::AuditFailed { .. } => report.audit_failures += 1,
            // A void or re-tally restarts the task from wave 1 with a
            // fresh job budget; only the final attempt's waves count in
            // the per-task summaries, mirroring the live bookkeeping.
            RunEvent::VerdictVoided { task } => {
                report.verdicts_voided += 1;
                let acc = tasks.entry(task).or_default();
                acc.jobs = 0;
                acc.waves = 0;
            }
            RunEvent::TaskRetallied { task } => {
                report.tasks_retallied += 1;
                let acc = tasks.entry(task).or_default();
                acc.jobs = 0;
                acc.waves = 0;
            }
            RunEvent::WorkerCrashed { .. } => report.worker_crashes += 1,
            RunEvent::WorkerRestarted { .. } => report.worker_restarts += 1,
            RunEvent::StaleReplyDropped { .. } => report.stale_replies += 1,
            RunEvent::TaskPoisoned { task, .. } => {
                report.tasks_poisoned += 1;
                tasks.remove(&task);
            }
            RunEvent::HedgeLaunched { .. } => report.hedges_launched += 1,
            RunEvent::HedgeWon { .. } => report.hedges_won += 1,
            RunEvent::HedgeWasted { .. } => report.hedges_wasted += 1,
            RunEvent::RunEnded => report.makespan_units = e.at.as_units(),
            // Returned jobs, wave closes, tallies, node discipline records
            // and checkpoint seals carry no report-level metric of their
            // own; the runtime does not emit churn or fault-plan events.
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_journal_folds_to_empty_report() {
        assert_eq!(report_from_journal(&Journal::new()), RuntimeReport::new());
    }

    #[test]
    fn reliability_and_cost_read_the_counters() {
        let mut r = RuntimeReport::new();
        assert_eq!(r.reliability(), 0.0);
        r.tasks_completed = 4;
        r.tasks_correct = 3;
        r.jobs_per_task.record(10.0);
        r.jobs_per_task.record(14.0);
        assert!((r.reliability() - 0.75).abs() < 1e-12);
        assert!((r.cost_factor() - 12.0).abs() < 1e-12);
    }
}
