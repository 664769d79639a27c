//! Golden pins for the volunteer deployment: the journal digest *and* a
//! fingerprint of the full [`DeploymentReport`] of one seeded run per
//! lifecycle feature (strategies, reissue, retry + quarantine, audit +
//! cartel, hedging per assignment policy, the fastest-idle scheduler).
//!
//! The digest covers every event, timestamp and field; the report
//! fingerprint is FNV-1a over the report's `Debug` text (shortest
//! round-trip floats, so bit-exact). On mismatch the journal is dumped as
//! JSONL under `target/journal-artifacts/` (CI uploads the directory).

use std::rc::Rc;

use smartred_core::audit::{AuditPolicy, Cartel};
use smartred_core::execution::Assignment;
use smartred_core::hedge::HedgePolicy;
use smartred_core::params::{KVotes, VoteMargin};
use smartred_core::resilience::{QuarantinePolicy, RetryPolicy};
use smartred_core::strategy::{Iterative, Progressive, Traditional};
use smartred_desim::journal::{assert as jassert, fnv1a_64, EventKind, Journal, RunEvent};
use smartred_volunteer::server::{
    run, run_journaled, DeadlinePolicy, DeploymentReport, SchedulerPolicy, SharedStrategy,
    VolunteerConfig,
};

const SEED: u64 = 20110620; // ICDCS 2011 opening day

struct Case {
    name: &'static str,
    cfg: VolunteerConfig,
    strategy: SharedStrategy,
    /// Votes a firm verdict must have behind it (⌈k/2⌉ or `d`).
    quorum: usize,
}

/// `(case, journal digest, report fingerprint)`. If an intentional behavior
/// change shifts a run, regenerate with:
///   cargo test -p smartred-volunteer --test journal_golden print_golden_pins -- --ignored --nocapture
const PINS: [(&str, &str, &str); 10] = [
    ("tr-k3", "1a28a3e388ad1e4c", "c4d28455dc54550b"),
    ("pr-k9", "d6ab6133bc27d0c2", "3c591a05c98b2ebb"),
    ("ir-d4", "4ea77f8a16ff95ab", "b04fe90ebe8e8bdd"),
    ("reissue", "fc5d042e02107a0a", "029f83c75383738f"),
    ("retry-quarantine", "f30cb8dd617d470b", "42e8cee90889d8d2"),
    ("audit-quarantine", "dd7095e561f4a26e", "c22387355b52e18b"),
    ("hedged-random", "fc2d5672b78bf089", "39a2966f2a185f31"),
    ("hedged-round-robin", "5718c0e7f8c1f9e1", "ae52470fd2949fdf"),
    ("hedged-leastload", "40f2416b6f25580d", "337c53785147f91f"),
    ("fastest-idle", "426abbb335322e4f", "efa20c80ba53417c"),
];

fn tr3() -> SharedStrategy {
    Rc::new(Traditional::new(KVotes::new(3).unwrap()))
}

fn ir(d: usize) -> SharedStrategy {
    Rc::new(Iterative::new(VoteMargin::new(d).unwrap()))
}

/// The paper's deployment shape on a 12-variable instance.
fn paper() -> VolunteerConfig {
    VolunteerConfig::paper_deployment(12, SEED)
}

/// A 60-host pool: small enough to saturate, so discipline and hedging
/// interact with scheduling.
fn small() -> VolunteerConfig {
    VolunteerConfig {
        hosts: 60,
        ..paper()
    }
}

fn hedged(assignment: Assignment) -> VolunteerConfig {
    let mut cfg = small();
    // A wide speed spread makes genuine stragglers past the p70 latency.
    cfg.profile.speed_window = (1.0, 4.0);
    cfg.deadline_units = 8.0;
    cfg.hedge = Some(HedgePolicy {
        quantile: 0.7,
        min_samples: 10,
        multiplier: 1.0,
        max_per_task: 2,
    });
    cfg.assignment = assignment;
    cfg
}

fn cases() -> Vec<Case> {
    let mut reissue = small();
    reissue.profile.unresponsive_rate = 0.3;
    reissue.deadline_policy = DeadlinePolicy::Reissue;

    let mut disciplined = small();
    disciplined.profile.unresponsive_rate = 0.15;
    disciplined.retry = Some(RetryPolicy::default());
    // Harsh enough that repeat offenders reach the blacklist.
    disciplined.quarantine = Some(QuarantinePolicy {
        strike_limit: 2,
        quarantine_units: 3.0,
        blacklist_after: 3,
    });

    // Honest hosts are perfect; only the 40% cartel lies, so discipline
    // thins the coalition without starving the pool.
    let mut audited = small();
    audited.tasks = 800;
    audited.profile.seeded_fault_rate = 0.0;
    audited.profile.platform_fault_rate = 0.0;
    audited.cartel = Some(Cartel::new(24, 0.25));
    audited.quarantine = Some(QuarantinePolicy::default());
    audited.audit = AuditPolicy::spot(0.15);

    let mut fastest = small();
    fastest.scheduler = SchedulerPolicy::FastestIdle;

    let pr9: SharedStrategy = Rc::new(Progressive::new(KVotes::new(9).unwrap()));
    let configs = [
        (paper(), tr3(), 2),
        (paper(), pr9, 5),
        (paper(), ir(4), 4),
        (reissue, tr3(), 2),
        (disciplined, ir(4), 4),
        (audited, tr3(), 2),
        (hedged(Assignment::Random), ir(3), 3),
        (hedged(Assignment::RoundRobin), ir(3), 3),
        (hedged(Assignment::LeastLoaded), ir(3), 3),
        (fastest, tr3(), 2),
    ];
    PINS.iter()
        .zip(configs)
        .map(|(&(name, ..), (cfg, strategy, quorum))| Case {
            name,
            cfg,
            strategy,
            quorum,
        })
        .collect()
}

fn fingerprint(report: &DeploymentReport) -> String {
    format!("{:016x}", fnv1a_64(format!("{report:?}").as_bytes()))
}

fn pins_of(case: &Case) -> (String, String, DeploymentReport, Journal) {
    let (report, journal) = run_journaled(case.strategy.clone(), &case.cfg).unwrap();
    (journal.digest_hex(), fingerprint(&report), report, journal)
}

/// Dumps a journal under `target/journal-artifacts/` so a mismatch leaves
/// an inspectable artifact (CI uploads the directory on failure).
fn dump_artifact(name: &str, journal: &Journal) -> String {
    let dir = std::path::Path::new("../../target/journal-artifacts");
    let path = dir.join(format!("volunteer-{name}.jsonl"));
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(&path, journal.to_jsonl());
    }
    path.display().to_string()
}

#[test]
fn journals_and_reports_match_pinned_golden_values() {
    for (case, &(_, want_digest, want_report)) in cases().iter().zip(&PINS) {
        let (digest, report_fp, report, journal) = pins_of(case);
        if (digest.as_str(), report_fp.as_str()) != (want_digest, want_report) {
            let path = dump_artifact(case.name, &journal);
            panic!(
                "golden drift for {}: expected ({want_digest:?}, {want_report:?}), got \
                 ({digest:?}, {report_fp:?}) ({} events; journal dumped to {path})\n{report:#?}",
                case.name,
                journal.len()
            );
        }
        // Journaling is a pure observer: the plain run is bit-equal.
        let plain = run(case.strategy.clone(), &case.cfg).unwrap();
        assert_eq!(plain, report, "{}: run != run_journaled", case.name);
    }
}

#[test]
fn golden_pins_are_invariant_across_thread_settings() {
    // SMARTRED_THREADS parallelizes only the Monte-Carlo estimators; the
    // discrete-event deployment must not notice it.
    let mut seen: Vec<Vec<(String, String)>> = Vec::new();
    for threads in ["1", "8"] {
        std::env::set_var("SMARTRED_THREADS", threads);
        seen.push(
            cases()
                .iter()
                .map(|case| {
                    let (digest, report_fp, ..) = pins_of(case);
                    (digest, report_fp)
                })
                .collect(),
        );
    }
    std::env::remove_var("SMARTRED_THREADS");
    assert_eq!(
        seen[0], seen[1],
        "pins drifted between SMARTRED_THREADS=1 and =8"
    );
}

#[test]
fn golden_journals_satisfy_behavioral_invariants() {
    for case in cases() {
        let (_, _, report, journal) = pins_of(&case);
        let completed = report
            .verdicts
            .iter()
            .filter(|v| v.accepted.is_some())
            .count();
        let checks = jassert::that(&journal);
        if !case.cfg.audit.is_enabled() {
            // An audit void restarts a workunit's waves from 1.
            checks.waves_well_formed();
        }
        checks
            .time_ordered()
            .retry_follows_timeout()
            .verdicts_have_quorum(case.quorum)
            .count(EventKind::VerdictReached)
            .exactly(completed)
            .count(EventKind::JobDispatched)
            .exactly(report.total_jobs as usize)
            .count(EventKind::HedgeLaunched)
            .exactly(report.hedges_launched as usize)
            .count(EventKind::RunEnded)
            .exactly(1)
            .each_followed_by(
                "every launched twin settles",
                |e| matches!(e.event, RunEvent::HedgeLaunched { .. }),
                |launch, later| match (launch.event, later.event) {
                    (RunEvent::HedgeLaunched { job, .. }, RunEvent::HedgeWon { job: j, .. })
                    | (RunEvent::HedgeLaunched { job, .. }, RunEvent::HedgeWasted { job: j, .. }) => {
                        job == j
                    }
                    _ => false,
                },
            );
        assert_eq!(
            report.hedges_launched,
            report.hedges_won + report.hedges_wasted,
            "{}: every launched twin settles exactly once",
            case.name
        );
        if case.cfg.hedge.is_some() {
            assert!(report.hedges_launched > 0, "{}: no hedges", case.name);
        }
        let restored = Journal::from_jsonl(&journal.to_jsonl()).unwrap();
        assert_eq!(restored.digest(), journal.digest(), "{}", case.name);
    }
}

/// Regenerates the pins. Run with `--ignored --nocapture` and paste the
/// output over [`PINS`].
#[test]
#[ignore]
fn print_golden_pins() {
    for case in cases() {
        let (digest, report_fp, report, journal) = pins_of(&case);
        println!(
            "(\"{}\", {digest:?}, {report_fp:?}), // {} events, {} jobs, {} hedges, {} audits, \
             {} quarantines, {} blacklisted",
            case.name,
            journal.len(),
            report.total_jobs,
            report.hedges_launched,
            report.audits,
            report.quarantines,
            report.blacklisted
        );
    }
}
