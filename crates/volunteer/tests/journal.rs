//! Journal integration tests for the volunteer deployment: every
//! reconstructible `DeploymentReport` field must be derivable from the run
//! journal alone (bit-exactly, including Welford summary state), and the
//! `DeadlinePolicy::Reissue` path is exercised under hang-heavy profiles.

use std::rc::Rc;

use smartred_core::audit::{AuditPolicy, Cartel};
use smartred_core::params::{KVotes, VoteMargin};
use smartred_core::resilience::{QuarantinePolicy, RetryPolicy};
use smartred_core::strategy::{Iterative, Traditional};
use smartred_desim::journal::{assert as jassert, DepartureReason, EventKind, Journal, RunEvent};
use smartred_desim::time::SimTime;
use smartred_stats::Summary;
use smartred_volunteer::host::PlanetLabProfile;
use smartred_volunteer::server::{
    run, run_journaled, DeadlinePolicy, DeploymentReport, SharedStrategy, VolunteerConfig,
};

fn small_config(seed: u64) -> VolunteerConfig {
    let mut cfg = VolunteerConfig::paper_deployment(10, seed);
    cfg.hosts = 60;
    cfg.tasks = 80;
    cfg
}

/// The reconstructible slice of a [`DeploymentReport`], rebuilt from the
/// journal alone. Ground-truth-dependent fields (`correct`,
/// `instance_satisfiable`) are intentionally absent: the journal records
/// what the server *observed*, not the oracle.
#[derive(Debug, PartialEq)]
struct ReplayedDeployment {
    completion_units: f64,
    total_jobs: u64,
    jobs_per_task: Summary,
    response_time: Summary,
    timeouts: u64,
    retries: u64,
    quarantines: u64,
    blacklisted: u64,
    accepted: Vec<Option<bool>>,
    jobs: Vec<usize>,
    waves: Vec<usize>,
    response_units: Vec<f64>,
    reported_satisfiable: Option<bool>,
}

impl ReplayedDeployment {
    /// Projects the same slice out of a live report, for comparison.
    fn from_report(report: &DeploymentReport) -> Self {
        Self {
            completion_units: report.completion_units,
            total_jobs: report.total_jobs,
            jobs_per_task: report.jobs_per_task,
            response_time: report.response_time,
            timeouts: report.timeouts,
            retries: report.retries,
            quarantines: report.quarantines,
            blacklisted: report.blacklisted,
            accepted: report.verdicts.iter().map(|v| v.accepted).collect(),
            jobs: report.verdicts.iter().map(|v| v.jobs).collect(),
            waves: report.verdicts.iter().map(|v| v.waves).collect(),
            response_units: report.verdicts.iter().map(|v| v.response_units).collect(),
            reported_satisfiable: report.reported_satisfiable,
        }
    }

    /// Folds the event stream back into report state. Mirrors the live
    /// accumulation exactly: per-workunit summaries are assembled in
    /// workunit index order (the order the live report uses), so the
    /// Welford state matches bit for bit.
    fn from_journal(journal: &Journal, tasks: usize) -> Self {
        let mut accepted: Vec<Option<bool>> = vec![None; tasks];
        let mut finalized: Vec<bool> = vec![false; tasks];
        let mut jobs = vec![0usize; tasks];
        let mut waves = vec![0usize; tasks];
        let mut first_dispatch: Vec<Option<SimTime>> = vec![None; tasks];
        let mut response_units = vec![0.0f64; tasks];
        let mut total_jobs = 0u64;
        let mut timeouts = 0u64;
        let mut retries = 0u64;
        let mut quarantines = 0u64;
        let mut blacklisted = 0u64;
        let mut completion_units = 0.0f64;
        for e in journal.events() {
            match e.event {
                RunEvent::JobDispatched { task, .. } => {
                    total_jobs += 1;
                    let wu = task as usize;
                    if first_dispatch[wu].is_none() {
                        first_dispatch[wu] = Some(e.at);
                    }
                }
                RunEvent::JobTimedOut { .. } => timeouts += 1,
                RunEvent::JobRetried { .. } => retries += 1,
                RunEvent::WaveOpened { task, jobs: n, .. } => {
                    jobs[task as usize] += n as usize;
                    waves[task as usize] += 1;
                }
                RunEvent::NodeQuarantined { .. } => quarantines += 1,
                RunEvent::NodeDeparted {
                    reason: DepartureReason::Blacklist,
                    ..
                } => blacklisted += 1,
                RunEvent::VerdictReached { task, value, .. } => {
                    let wu = task as usize;
                    accepted[wu] = Some(value);
                    finalized[wu] = true;
                    response_units[wu] = first_dispatch[wu]
                        .map(|s| e.at.since(s).as_units())
                        .unwrap_or(0.0);
                }
                RunEvent::TaskCapped { task } => {
                    let wu = task as usize;
                    finalized[wu] = true;
                    response_units[wu] = first_dispatch[wu]
                        .map(|s| e.at.since(s).as_units())
                        .unwrap_or(0.0);
                }
                RunEvent::RunEnded => completion_units = e.at.as_units(),
                _ => {}
            }
        }
        let mut jobs_per_task = Summary::new();
        let mut response_time = Summary::new();
        for wu in 0..tasks {
            if accepted[wu].is_some() {
                jobs_per_task.record(jobs[wu] as f64);
            }
        }
        for wu in 0..tasks {
            if accepted[wu].is_some() {
                response_time.record(response_units[wu]);
            }
        }
        let all_completed = accepted.iter().all(|a| a.is_some());
        let any_true = accepted.contains(&Some(true));
        Self {
            completion_units,
            total_jobs,
            jobs_per_task,
            response_time,
            timeouts,
            retries,
            quarantines,
            blacklisted,
            accepted,
            jobs,
            waves,
            response_units,
            reported_satisfiable: all_completed.then_some(any_true),
        }
    }
}

fn strategies() -> Vec<(&'static str, SharedStrategy)> {
    vec![
        (
            "tr-k3",
            Rc::new(Traditional::new(KVotes::new(3).unwrap())) as SharedStrategy,
        ),
        (
            "ir-d4",
            Rc::new(Iterative::new(VoteMargin::new(4).unwrap())),
        ),
    ]
}

#[test]
fn replayed_report_matches_live_report_exactly() {
    // Chaos config: hangs, retries, quarantines, both deadline policies.
    for policy in [DeadlinePolicy::CountAsWrong, DeadlinePolicy::Reissue] {
        let mut cfg = small_config(11);
        cfg.profile.unresponsive_rate = 0.10;
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.deadline_policy = policy;
        for (name, strategy) in strategies() {
            let (report, journal) = run_journaled(strategy, &cfg).unwrap();
            assert_eq!(
                ReplayedDeployment::from_journal(&journal, cfg.tasks),
                ReplayedDeployment::from_report(&report),
                "journal replay drifted from live report ({name}, {policy:?})"
            );
        }
    }
}

#[test]
fn journaling_does_not_perturb_the_deployment() {
    let cfg = small_config(3);
    let strategy: SharedStrategy = Rc::new(Traditional::new(KVotes::new(3).unwrap()));
    let plain = run(Rc::clone(&strategy), &cfg).unwrap();
    let (journaled, journal) = run_journaled(strategy, &cfg).unwrap();
    assert_eq!(plain, journaled);
    assert!(!journal.is_empty());
}

#[test]
fn reissue_masks_hangs_completely_on_honest_pools() {
    // With every non-hung job honest, CountAsWrong converts each hang into
    // a wrong vote (hurting reliability), while Reissue re-deploys it: the
    // final verdicts must all be correct, at extra job cost.
    let mut cfg = small_config(17);
    cfg.profile = PlanetLabProfile {
        seeded_fault_rate: 0.0,
        platform_fault_rate: 0.0,
        unresponsive_rate: 0.3,
        speed_window: (1.0, 1.0),
    };
    cfg.deadline_policy = DeadlinePolicy::Reissue;
    let strategy: SharedStrategy = Rc::new(Traditional::new(KVotes::new(3).unwrap()));
    let report = run(strategy, &cfg).unwrap();
    assert!(report.timeouts > 0, "profile should produce hangs");
    assert_eq!(report.reliability(), 1.0);
    assert!(
        report.cost_factor() > 3.0,
        "reissued jobs must cost extra: {}",
        report.cost_factor()
    );
    assert!(report.computation_correct());
}

#[test]
fn reissue_is_deterministic_under_retry_and_quarantine() {
    let mut cfg = small_config(23);
    cfg.profile.unresponsive_rate = 0.15;
    cfg.deadline_policy = DeadlinePolicy::Reissue;
    cfg.retry = Some(RetryPolicy::default());
    cfg.quarantine = Some(QuarantinePolicy::default());
    let mk = || Rc::new(Traditional::new(KVotes::new(3).unwrap())) as SharedStrategy;
    let a = run(mk(), &cfg).unwrap();
    let b = run(mk(), &cfg).unwrap();
    assert_eq!(a, b);
}

#[test]
fn reissue_timeouts_are_followed_by_redeployment() {
    // Under Reissue (and no backoff-retry policy), every deadline miss
    // abandons the silent job and re-polls the workunit, which must open a
    // fresh deployment wave for the same task.
    let mut cfg = small_config(29);
    cfg.profile.unresponsive_rate = 0.2;
    cfg.deadline_policy = DeadlinePolicy::Reissue;
    let strategy: SharedStrategy = Rc::new(Traditional::new(KVotes::new(3).unwrap()));
    let (report, journal) = run_journaled(strategy, &cfg).unwrap();
    assert!(report.timeouts > 0);
    jassert::that(&journal)
        .time_ordered()
        .waves_well_formed()
        .no_dispatch_to_quarantined()
        .each_followed_by(
            "reissued deadline miss reopens a wave for the task",
            |e| matches!(e.event, RunEvent::JobTimedOut { .. }),
            |miss, later| match (miss.event, later.event) {
                (RunEvent::JobTimedOut { task, .. }, RunEvent::WaveOpened { task: t, .. }) => {
                    task == t
                }
                _ => false,
            },
        )
        .count(EventKind::JobRetried)
        .exactly(0);
}

#[test]
fn a_blacklisted_host_stays_out() {
    // Audit strikes land on hosts that are already quarantined, so a host
    // can be blacklisted while a release timer is pending and while liars'
    // old votes are still being audited: neither may bring it back.
    for seed in 40..44 {
        let mut cfg = small_config(seed);
        cfg.tasks = 300;
        cfg.cartel = Some(Cartel::new(24, 0.25));
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.audit = AuditPolicy::spot(0.15);
        let strategy: SharedStrategy = Rc::new(Traditional::new(KVotes::new(3).unwrap()));
        let (report, journal) = run_journaled(strategy, &cfg).unwrap();
        assert!(report.blacklisted > 0, "seed {seed}: nobody blacklisted");
        assert!(report.blacklisted <= cfg.hosts as u64, "seed {seed}");
        // Per host the seq of its blacklisting; per job the seq of its launch.
        let mut gone = std::collections::HashMap::new();
        let mut launched = std::collections::HashMap::new();
        for e in journal.events() {
            let out = |node: u32| gone.get(&node).copied();
            match e.event {
                RunEvent::NodeDeparted { node, .. } => {
                    assert!(out(node).is_none(), "seed {seed}: {node} departed twice");
                    gone.insert(node, e.seq);
                }
                RunEvent::NodeReleased { node } | RunEvent::NodeQuarantined { node } => {
                    assert!(
                        out(node).is_none(),
                        "seed {seed}: {:?} after blacklist",
                        e.event
                    );
                }
                RunEvent::JobDispatched { job, node, .. } => {
                    assert!(out(node).is_none(), "seed {seed}: job {job} sent to {node}");
                    launched.insert(job, e.seq);
                }
                RunEvent::HedgeLaunched { job, .. } => {
                    launched.insert(job, e.seq);
                }
                // A job in flight at the blacklisting may still report.
                RunEvent::JobReturned { job, node, .. }
                | RunEvent::JobTimedOut { job, node, .. } => {
                    assert!(
                        out(node).is_none_or(|at| launched[&job] < at),
                        "seed {seed}: job {job} launched on blacklisted host {node}"
                    );
                }
                _ => {}
            }
        }
    }
}
