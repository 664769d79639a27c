//! Cross-check mode: recompute a [`DcaReport`] from a run's journal.
//!
//! The simulator builds its report incrementally as events fire; this
//! module derives the same report purely from the recorded
//! [`Journal`]. Because every metric is a
//! fold over journal events in stream order — including the order-sensitive
//! Welford summaries — the two must agree **exactly**, so any drift between
//! the aggregate bookkeeping and the actual trajectory is a test failure,
//! not a silent skew.
//!
//! Replay needs the [`DcaConfig`] only for quantities the journal does not
//! carry: the task count (to derive stranded tasks) and the pool size (for
//! node-time capacity).

use smartred_desim::journal::{DepartureReason, EventKind, Journal, RunEvent};
use smartred_desim::time::SimTime;

use crate::config::DcaConfig;
use crate::metrics::DcaReport;

/// Per-task accumulation while folding over the event stream.
#[derive(Clone, Copy, Default)]
struct TaskAcc {
    first_dispatch: Option<SimTime>,
    jobs: u64,
    waves: u32,
}

/// Recomputes the full [`DcaReport`] of a journaled run from its journal.
///
/// For any [`run_journaled`](crate::sim::run_journaled) result, the output
/// equals [`JournaledRun::report`](crate::sim::JournaledRun) exactly
/// (`==`, including every Welford summary bit).
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use smartred_core::params::KVotes;
/// use smartred_core::strategy::Traditional;
/// use smartred_dca::config::DcaConfig;
/// use smartred_dca::replay::report_from_journal;
/// use smartred_dca::sim::run_journaled;
///
/// let cfg = DcaConfig::paper_baseline(50, 10, 0.3, 9);
/// let run = run_journaled(Rc::new(Traditional::new(KVotes::new(3)?)), &cfg)?;
/// assert_eq!(report_from_journal(&run.journal, &cfg), run.report);
/// # Ok::<(), smartred_core::error::ParamError>(())
/// ```
pub fn report_from_journal(journal: &Journal, cfg: &DcaConfig) -> DcaReport {
    let mut report = DcaReport::new();
    let mut tasks = vec![TaskAcc::default(); cfg.tasks];
    for e in journal.events() {
        match e.event {
            RunEvent::JobDispatched { task, eta, .. } => {
                report.total_jobs += 1;
                // Same f64 and same addition order as the live run, which
                // accumulates each job's planned busy time at dispatch.
                report.busy_node_units += eta.since(e.at).as_units();
                let acc = &mut tasks[task as usize];
                if acc.first_dispatch.is_none() {
                    acc.first_dispatch = Some(e.at);
                }
            }
            RunEvent::WaveOpened { task, jobs, .. } => {
                let acc = &mut tasks[task as usize];
                acc.jobs += jobs as u64;
                acc.waves += 1;
            }
            RunEvent::JobTimedOut { .. } => report.timeouts += 1,
            RunEvent::JobRetried { .. } => report.retries += 1,
            RunEvent::NodeQuarantined { .. } => report.quarantines += 1,
            RunEvent::NodeDeparted { reason, .. } => match reason {
                DepartureReason::Blacklist => report.blacklisted += 1,
                DepartureReason::Crash => report.crashes += 1,
                DepartureReason::Churn => report.departures += 1,
            },
            RunEvent::NodeJoined { .. } => report.arrivals += 1,
            RunEvent::OutageStarted { .. } => report.outages += 1,
            RunEvent::FaultInjected { .. } => report.faults_injected += 1,
            RunEvent::VerdictReached {
                task,
                value,
                degraded,
                confidence,
            } => {
                report.tasks_completed += 1;
                if value {
                    report.tasks_correct += 1;
                }
                if degraded {
                    report.tasks_degraded += 1;
                    report.degraded_confidence.record(confidence);
                }
                let acc = tasks[task as usize];
                report.jobs_per_task.record(acc.jobs as f64);
                report.waves_per_task.record(acc.waves as f64);
                let response = match acc.first_dispatch {
                    Some(started) => e.at.since(started).as_units(),
                    // A task settled without ever dispatching (degraded
                    // acceptance under starvation) has zero response time.
                    None => 0.0,
                };
                report.response_time.record(response);
            }
            RunEvent::TaskCapped { .. } => report.tasks_capped += 1,
            RunEvent::HedgeLaunched { .. } => report.hedges_launched += 1,
            RunEvent::HedgeWon { .. } => report.hedges_won += 1,
            RunEvent::HedgeWasted { .. } => report.hedges_wasted += 1,
            RunEvent::AuditScheduled { .. } => report.audits += 1,
            RunEvent::AuditFailed { .. } => report.audit_failures += 1,
            // A void or re-tally restarts the task from wave 1 with a
            // fresh budget; only the final attempt's jobs and waves count
            // in the per-task summaries, mirroring the live bookkeeping.
            RunEvent::VerdictVoided { task } => {
                report.verdicts_voided += 1;
                let acc = &mut tasks[task as usize];
                acc.jobs = 0;
                acc.waves = 0;
            }
            RunEvent::TaskRetallied { task } => {
                report.tasks_retallied += 1;
                let acc = &mut tasks[task as usize];
                acc.jobs = 0;
                acc.waves = 0;
            }
            RunEvent::TransferStarted { bytes, .. } => {
                report.transfers += 1;
                report.bytes_moved += bytes;
            }
            RunEvent::RunEnded => report.makespan_units = e.at.as_units(),
            RunEvent::JobReturned { .. }
            | RunEvent::WaveClosed { .. }
            | RunEvent::VoteTallied { .. }
            | RunEvent::NodeReleased { .. }
            | RunEvent::WorkerCrashed { .. }
            | RunEvent::WorkerRestarted { .. }
            | RunEvent::TaskPoisoned { .. }
            | RunEvent::StaleReplyDropped { .. }
            | RunEvent::EpochAdvanced { .. }
            | RunEvent::TransferCompleted { .. }
            | RunEvent::StageDecided { .. }
            | RunEvent::PoisonPropagated { .. }
            | RunEvent::AuditPassed { .. }
            // Checkpoint seals are a WAL-compaction artifact of the live
            // runtime; simulator journals never carry one, and a seal
            // contributes nothing to the simulated metrics.
            | RunEvent::CheckpointTaken { .. } => {}
        }
    }
    debug_assert_eq!(
        journal.count(EventKind::RunEnded),
        1,
        "a complete journal carries exactly one run-ended event"
    );
    report.tasks_stranded = cfg.tasks - report.tasks_completed - report.tasks_capped;
    report.capacity_node_units = cfg.pool.size as f64 * report.makespan_units;
    report
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use smartred_core::params::{KVotes, VoteMargin};
    use smartred_core::resilience::{QuarantinePolicy, RetryPolicy};
    use smartred_core::strategy::{Iterative, Progressive, Traditional};

    use super::*;
    use crate::config::{ChurnConfig, TimeoutPolicy};
    use crate::faults::FaultPlan;
    use crate::sim::{run, run_journaled};

    #[test]
    fn replay_matches_live_report_on_baseline() {
        let cfg = DcaConfig::paper_baseline(400, 60, 0.3, 31);
        for strategy in [
            Rc::new(Traditional::new(KVotes::new(3).unwrap())) as crate::sim::SharedStrategy,
            Rc::new(Progressive::new(KVotes::new(9).unwrap())),
            Rc::new(Iterative::new(VoteMargin::new(4).unwrap())),
        ] {
            let journaled = run_journaled(strategy, &cfg).unwrap();
            assert_eq!(
                report_from_journal(&journaled.journal, &cfg),
                journaled.report
            );
        }
    }

    #[test]
    fn replay_matches_live_report_under_full_chaos() {
        let mut cfg = DcaConfig::paper_baseline(600, 50, 0.3, 32);
        cfg.pool.unresponsive_rate = 0.1;
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.degraded_accept = true;
        cfg.job_cap = Some(12);
        cfg.churn = Some(ChurnConfig {
            leave_rate: 0.3,
            join_rate: 0.3,
        });
        cfg.faults = Some(
            FaultPlan::new()
                .crash_at(1.0, 3)
                .hang_window(2.0, 4.0, 5)
                .straggler(1.5, 6.0, 7, 8.0)
                .collusion_burst(3.0, 2.0, 0.4)
                .blackout(6.0, 1.0),
        );
        let journaled =
            run_journaled(Rc::new(Iterative::new(VoteMargin::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(
            report_from_journal(&journaled.journal, &cfg),
            journaled.report
        );
    }

    #[test]
    fn replay_matches_under_reissue_policy() {
        let mut cfg = DcaConfig::paper_baseline(300, 40, 0.0, 33);
        cfg.pool.unresponsive_rate = 0.3;
        cfg.timeout_policy = TimeoutPolicy::Reissue;
        let journaled =
            run_journaled(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(
            report_from_journal(&journaled.journal, &cfg),
            journaled.report
        );
        assert!(journaled.report.timeouts > 0);
    }

    #[test]
    fn replay_matches_live_report_with_audits_and_cartel() {
        use smartred_core::audit::AuditPolicy;

        use crate::config::CartelConfig;

        let mut cfg = DcaConfig::paper_baseline(800, 50, 0.2, 35);
        cfg.pool.unresponsive_rate = 0.05;
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.audit = AuditPolicy::spot(0.2);
        cfg.cartel = Some(CartelConfig {
            members: 15,
            lie_rate: 0.3,
            dormancy_units: 5.0,
        });
        let journaled =
            run_journaled(Rc::new(Iterative::new(VoteMargin::new(3).unwrap())), &cfg).unwrap();
        assert!(journaled.report.audits > 0);
        assert!(journaled.report.verdicts_voided > 0);
        assert!(journaled.report.tasks_retallied > 0);
        assert_eq!(
            report_from_journal(&journaled.journal, &cfg),
            journaled.report
        );
    }

    #[test]
    fn replay_matches_live_report_with_network_charges() {
        use smartred_core::hedge::HedgePolicy;
        use smartred_desim::network::LinkSpec;
        use smartred_desim::time::SimDuration;

        use crate::config::NetworkConfig;

        let mut cfg = DcaConfig::paper_baseline(300, 40, 0.25, 36);
        cfg.network = Some(NetworkConfig {
            link: LinkSpec::new(48 * 1024, SimDuration::from_units(0.05)),
            payload_bytes: 16 * 1024,
        });
        cfg.hedge = Some(HedgePolicy::default());
        let journaled =
            run_journaled(Rc::new(Iterative::new(VoteMargin::new(3).unwrap())), &cfg).unwrap();
        // Every vote job and every hedge twin paid a transfer.
        assert_eq!(
            journaled.report.transfers,
            journaled.report.total_jobs + journaled.report.hedges_launched
        );
        assert_eq!(
            journaled.report.bytes_moved,
            journaled.report.transfers * 16 * 1024
        );
        assert_eq!(
            report_from_journal(&journaled.journal, &cfg),
            journaled.report
        );
        // Transfers lengthen the run relative to free communication.
        let free = run(
            Rc::new(Iterative::new(VoteMargin::new(3).unwrap())),
            &DcaConfig {
                network: None,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert!(journaled.report.makespan_units > free.makespan_units);
    }

    #[test]
    fn journaling_never_perturbs_the_run() {
        let mut cfg = DcaConfig::paper_baseline(500, 50, 0.3, 34);
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let plain = run(s(), &cfg).unwrap();
        let journaled = run_journaled(s(), &cfg).unwrap();
        assert_eq!(plain, journaled.report);
        assert!(!journaled.journal.is_empty());
    }
}
