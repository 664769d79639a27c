//! Golden journal-digest tests: pin the exact event stream of one seeded
//! run per redundancy strategy (TR / PR / IR).
//!
//! The digest covers every event, timestamp, and field of the run's
//! journal, so these tests enforce determinism at event granularity — a
//! regression that reorders events while preserving aggregate sums fails
//! here even though every CSV stays identical. On mismatch the offending
//! journal is dumped as JSONL under `target/journal-artifacts/` (CI uploads
//! that directory for failed runs).

use std::rc::Rc;

use smartred_core::execution::Assignment;
use smartred_core::hedge::HedgePolicy;
use smartred_core::params::{KVotes, VoteMargin};
use smartred_core::resilience::{QuarantinePolicy, RetryPolicy};
use smartred_core::strategy::{Iterative, Progressive, Traditional};
use smartred_dca::config::DcaConfig;
use smartred_dca::replay::report_from_journal;
use smartred_dca::sim::{run_journaled, JournaledRun, SharedStrategy};
use smartred_desim::journal::{assert as jassert, EventKind, Journal, RunEvent};
use smartred_desim::time::SimTime;

const SEED: u64 = 20110620; // ICDCS 2011 opening day

/// The pinned runs: moderately chaotic (hangs, retries, quarantines) so
/// the digest covers the full event vocabulary, but small enough to run in
/// milliseconds.
fn golden_config() -> DcaConfig {
    let mut cfg = DcaConfig::paper_baseline(120, 20, 0.3, SEED);
    cfg.pool.unresponsive_rate = 0.05;
    cfg.retry = Some(RetryPolicy::default());
    cfg.quarantine = Some(QuarantinePolicy::default());
    cfg
}

fn golden_cases() -> Vec<(&'static str, SharedStrategy, &'static str)> {
    vec![
        (
            "tr-k3",
            Rc::new(Traditional::new(KVotes::new(3).unwrap())) as SharedStrategy,
            GOLDEN_TR_K3,
        ),
        (
            "pr-k9",
            Rc::new(Progressive::new(KVotes::new(9).unwrap())),
            GOLDEN_PR_K9,
        ),
        (
            "ir-d4",
            Rc::new(Iterative::new(VoteMargin::new(4).unwrap())),
            GOLDEN_IR_D4,
        ),
    ]
}

// The pinned digests. If an intentional behavior change shifts an event
// stream, regenerate with:
//   cargo test -p smartred-dca --test journal_golden print_golden_digests -- --ignored --nocapture
const GOLDEN_TR_K3: &str = "8d18bdabc015bf33";
const GOLDEN_PR_K9: &str = "6a79ae91648bc670";
const GOLDEN_IR_D4: &str = "d4aa2935481055e1";

/// The hedged-run golden config: the base chaotic knobs on a roomier pool
/// (hedging is best-effort and only duplicates onto *idle* nodes, so the
/// saturated 20-node pool of `golden_config` never fires a twin), plus a
/// hedge policy whose threshold (q70 of the duration window, ×1.0) lands
/// well inside the deadline. Every pinned journal contains launched
/// twins, and the won/wasted split is covered by the settlement identity.
fn hedged_golden_config(assignment: Assignment) -> DcaConfig {
    let mut cfg = DcaConfig::paper_baseline(120, 60, 0.3, SEED);
    cfg.pool.unresponsive_rate = 0.05;
    cfg.retry = Some(RetryPolicy::default());
    cfg.quarantine = Some(QuarantinePolicy::default());
    cfg.hedge = Some(HedgePolicy {
        quantile: 0.7,
        min_samples: 20,
        multiplier: 1.0,
        max_per_task: 1,
    });
    cfg.assignment = assignment;
    cfg
}

/// One pinned hedged run per assignment policy, all on the same seeded
/// strategy: the digests separate the three placement algorithms at event
/// granularity, so a silent change to any one of them fails exactly its
/// own pin.
fn hedged_golden_cases() -> Vec<(Assignment, &'static str)> {
    vec![
        (Assignment::Random, GOLDEN_HEDGED_RANDOM),
        (Assignment::RoundRobin, GOLDEN_HEDGED_ROUND_ROBIN),
        (Assignment::LeastLoaded, GOLDEN_HEDGED_LEAST_LOADED),
    ]
}

const GOLDEN_HEDGED_RANDOM: &str = "5df6a6f6d48785aa";
const GOLDEN_HEDGED_ROUND_ROBIN: &str = "b4b5635f11e0f001";
const GOLDEN_HEDGED_LEAST_LOADED: &str = "5868d11323eb2a8c";

/// Dumps a journal under `target/journal-artifacts/` so digest mismatches
/// leave an inspectable artifact (CI uploads the directory on failure).
fn dump_artifact(name: &str, journal: &Journal) -> String {
    let dir = std::path::Path::new("../../target/journal-artifacts");
    let path = dir.join(format!("{name}.jsonl"));
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(&path, journal.to_jsonl());
    }
    path.display().to_string()
}

fn golden_run(strategy: SharedStrategy) -> JournaledRun {
    run_journaled(strategy, &golden_config()).unwrap()
}

#[test]
fn journal_digests_match_pinned_golden_values() {
    for (name, strategy, expected) in golden_cases() {
        let run = golden_run(strategy);
        let digest = run.journal.digest_hex();
        if digest != expected {
            let path = dump_artifact(name, &run.journal);
            panic!(
                "journal digest drift for {name}: expected {expected}, got {digest} \
                 ({} events; journal dumped to {path})",
                run.journal.len()
            );
        }
    }
}

#[test]
fn hedged_journal_digests_match_pinned_values_per_assignment_policy() {
    let strategy = || Rc::new(Iterative::new(VoteMargin::new(4).unwrap())) as SharedStrategy;
    for (assignment, expected) in hedged_golden_cases() {
        let cfg = hedged_golden_config(assignment);
        let run = run_journaled(strategy(), &cfg).unwrap();
        // Every pinned journal must actually exercise the hedging
        // vocabulary, or the digest pins nothing interesting.
        assert!(
            run.journal.count(EventKind::HedgeLaunched) > 0,
            "{}: pinned run launched no hedges",
            assignment.name()
        );
        assert_eq!(
            run.report.hedges_launched,
            run.report.hedges_won + run.report.hedges_wasted,
            "{}: every launched twin settles exactly once",
            assignment.name()
        );
        let digest = run.journal.digest_hex();
        if digest != expected {
            let path = dump_artifact(&format!("hedged-{}", assignment.name()), &run.journal);
            panic!(
                "hedged journal digest drift for {}: expected {expected}, got {digest} \
                 ({} events; journal dumped to {path})",
                assignment.name(),
                run.journal.len()
            );
        }
        // Hedged journals replay to the live report like everything else.
        assert_eq!(
            report_from_journal(&run.journal, &cfg),
            run.report,
            "replayed hedged report drifted from live report for {}",
            assignment.name()
        );
    }
}

#[test]
fn explicit_random_assignment_preserves_the_unhedged_goldens() {
    // `Assignment::Random` routes through the historical dispatch path, so
    // setting it explicitly (without a hedge policy) must reproduce the
    // original pinned digests bit-for-bit: the assignment feature cannot
    // perturb pre-existing runs.
    for (name, strategy, expected) in golden_cases() {
        let mut cfg = golden_config();
        cfg.assignment = Assignment::Random;
        let run = run_journaled(strategy, &cfg).unwrap();
        assert_eq!(
            run.journal.digest_hex(),
            expected,
            "explicit Random assignment perturbed the golden journal for {name}"
        );
    }
}

#[test]
fn hedged_golden_digests_are_invariant_across_thread_settings() {
    let strategy = || Rc::new(Iterative::new(VoteMargin::new(4).unwrap())) as SharedStrategy;
    let mut digests: Vec<Vec<String>> = Vec::new();
    for threads in ["1", "8"] {
        std::env::set_var("SMARTRED_THREADS", threads);
        digests.push(
            hedged_golden_cases()
                .into_iter()
                .map(|(assignment, _)| {
                    run_journaled(strategy(), &hedged_golden_config(assignment))
                        .unwrap()
                        .journal
                        .digest_hex()
                })
                .collect(),
        );
    }
    std::env::remove_var("SMARTRED_THREADS");
    assert_eq!(
        digests[0], digests[1],
        "hedged journal digests drifted between SMARTRED_THREADS=1 and =8"
    );
}

#[test]
fn golden_digests_are_invariant_across_thread_settings() {
    // SMARTRED_THREADS parallelizes only the Monte-Carlo estimators; the
    // discrete-event runs behind the journal must not notice it. This is
    // enforced in-process here and across processes by the CI matrix.
    let mut digests: Vec<Vec<String>> = Vec::new();
    for threads in ["1", "8"] {
        std::env::set_var("SMARTRED_THREADS", threads);
        digests.push(
            golden_cases()
                .into_iter()
                .map(|(_, strategy, _)| golden_run(strategy).journal.digest_hex())
                .collect(),
        );
    }
    std::env::remove_var("SMARTRED_THREADS");
    assert_eq!(
        digests[0], digests[1],
        "journal digests drifted between SMARTRED_THREADS=1 and =8"
    );
}

#[test]
fn golden_journals_replay_to_the_exact_report() {
    let cfg = golden_config();
    for (name, strategy, _) in golden_cases() {
        let run = golden_run(strategy);
        assert_eq!(
            report_from_journal(&run.journal, &cfg),
            run.report,
            "replayed report drifted from live report for {name}"
        );
    }
}

#[test]
fn golden_journals_satisfy_behavioral_invariants() {
    for (name, strategy, _) in golden_cases() {
        let run = golden_run(strategy);
        let journal = &run.journal;
        jassert::that(journal)
            .time_ordered()
            .retry_follows_timeout()
            .no_dispatch_to_quarantined()
            .waves_well_formed()
            .count(EventKind::VerdictReached)
            .exactly(run.report.tasks_completed)
            .count(EventKind::JobDispatched)
            .exactly(run.report.total_jobs as usize)
            .count(EventKind::RunEnded)
            .exactly(1)
            .each_followed_by(
                "every dispatched job resolves or the run ends with it in flight",
                |e| matches!(e.event, RunEvent::JobDispatched { .. }),
                |d, later| match (d.event, later.event) {
                    (RunEvent::JobDispatched { job, .. }, RunEvent::JobReturned { job: j, .. })
                    | (RunEvent::JobDispatched { job, .. }, RunEvent::JobTimedOut { job: j, .. }) => {
                        job == j
                    }
                    (RunEvent::JobDispatched { .. }, RunEvent::RunEnded) => true,
                    _ => false,
                },
            );
        assert!(
            journal.count(EventKind::WaveOpened) >= run.report.tasks_completed,
            "{name}: every completed task opened at least one wave"
        );
    }
}

#[test]
fn golden_journals_round_trip_through_jsonl() {
    for (name, strategy, _) in golden_cases() {
        let run = golden_run(strategy);
        let restored = Journal::from_jsonl(&run.journal.to_jsonl()).unwrap();
        assert_eq!(
            restored.digest_hex(),
            run.journal.digest_hex(),
            "JSONL round-trip changed the digest for {name}"
        );
    }
}

#[test]
fn journal_shows_the_scheduler_saturated_then_drained() {
    let run = golden_run(Rc::new(Traditional::new(KVotes::new(3).unwrap())));
    // With 120 tasks on 20 nodes the first busy window keeps every node
    // but one occupied, and the run ends in a drain-out with no job left.
    let window = SimTime::from_units(2.0)..=SimTime::from_units(4.0);
    let mut in_flight = 0i64;
    let mut mid = Vec::new();
    for e in run.journal.events() {
        in_flight += match e.event {
            RunEvent::JobDispatched { .. } => 1,
            RunEvent::JobReturned { .. } | RunEvent::JobTimedOut { .. } => -1,
            _ => 0,
        };
        if window.contains(&e.at) {
            mid.push(in_flight);
        }
    }
    assert!(!mid.is_empty());
    assert!(
        mid.iter().all(|&jobs| jobs >= 19),
        "saturated window should keep nodes busy: {mid:?}"
    );
    assert_eq!(in_flight, 0);
}

/// Regenerates the pinned constants. Run with `--ignored --nocapture` and
/// paste the output over the `GOLDEN_*` constants above.
#[test]
#[ignore]
fn print_golden_digests() {
    for (name, strategy, _) in golden_cases() {
        let run = golden_run(strategy);
        println!(
            "{name}: {} ({} events)",
            run.journal.digest_hex(),
            run.journal.len()
        );
    }
    for (assignment, _) in hedged_golden_cases() {
        let run = run_journaled(
            Rc::new(Iterative::new(VoteMargin::new(4).unwrap())),
            &hedged_golden_config(assignment),
        )
        .unwrap();
        println!(
            "hedged-{}: {} ({} events, {} hedges)",
            assignment.name(),
            run.journal.digest_hex(),
            run.journal.len(),
            run.report.hedges_launched
        );
    }
}
