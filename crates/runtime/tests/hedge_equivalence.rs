//! Hedged-execution equivalence battery for the live runtime: hedging is
//! verdict-invariant (same votes, verdicts, and job counts as the
//! unhedged run at the same seed), every launched twin settles exactly
//! once, the journal replays to the bit-identical report, and assignment
//! policies preserve the verdict stream — at worker counts 1 and 8 (the
//! CI `SMARTRED_THREADS` axes).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use smartred_core::execution::Assignment;
use smartred_core::hedge::HedgePolicy;
use smartred_core::params::VoteMargin;
use smartred_core::strategy::{Iterative, RedundancyStrategy};
use smartred_desim::journal::{EventKind, Journal};
use smartred_runtime::{
    report_from_journal, FaultProfile, Payload, Runtime, RuntimeConfig, RuntimeRun,
    StragglerWorker, SubmitOutcome, TaskVerdict,
};
use smartred_sat::{decompose, random_3sat, ThreeSatConfig};

const THIRTY_PCT_FAULTY: FaultProfile = FaultProfile {
    wrong_rate: 0.3,
    hang_rate: 0.0,
    crash_rate: 0.0,
    think: Duration::ZERO,
};

/// A hedge policy that warms quickly and fires well before the deadline
/// under the straggler mix above (q90 of the latency mix is the fast
/// mode, so threshold ≈ a few fast service times).
fn test_policy() -> HedgePolicy {
    HedgePolicy {
        quantile: 0.9,
        min_samples: 10,
        multiplier: 3.0,
        max_per_task: 2,
    }
}

/// Runs `num_tasks` 3-SAT block tasks through a fresh runtime on a
/// straggler-prone pool, under an optional hedge policy and an
/// assignment policy.
fn run_hedged(
    workers: usize,
    seed: u64,
    num_tasks: usize,
    hedge: Option<HedgePolicy>,
    assignment: Assignment,
) -> (RuntimeRun, Vec<TaskVerdict>) {
    let strategy = Iterative::new(VoteMargin::new(4).unwrap());
    run_with(workers, seed, num_tasks, hedge, assignment, strategy)
}

fn run_with<S>(
    workers: usize,
    seed: u64,
    num_tasks: usize,
    hedge: Option<HedgePolicy>,
    assignment: Assignment,
    strategy: S,
) -> (RuntimeRun, Vec<TaskVerdict>)
where
    S: RedundancyStrategy<bool> + Send + Sync + 'static,
{
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let formula = Arc::new(random_3sat(
        ThreeSatConfig {
            num_vars: 16,
            clause_ratio: 4.26,
        },
        &mut rng,
    ));
    let blocks = decompose(formula.num_vars(), num_tasks);
    let cfg = RuntimeConfig {
        workers: Some(workers),
        queue_cap: num_tasks + 8,
        max_active: 32,
        deadline: Duration::from_secs(2),
        hedge,
        assignment,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::start(cfg, strategy, move |index| {
        // 8% of placements straggle for 40 ms: a hedge twin redraws the
        // delay on its new worker (usually fast) while its vote is
        // bit-identical to the origin's — the property the layer rests on.
        let slow = Duration::from_millis(40);
        Box::new(StragglerWorker::new(
            index,
            seed,
            THIRTY_PCT_FAULTY,
            0.08,
            slow,
        ))
    });
    let client = runtime.client();
    for block in blocks {
        loop {
            let outcome = client.submit(Payload::Sat {
                formula: formula.clone(),
                block,
            });
            if outcome != SubmitOutcome::Shed {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let mut verdicts = Vec::with_capacity(num_tasks);
    for _ in 0..num_tasks {
        verdicts.push(client.recv().expect("runtime dropped a verdict"));
    }
    drop(client);
    (runtime.finish(), verdicts)
}

/// Vote-derived structure of a run: everything hedging must not change.
fn verdict_keys(verdicts: &[TaskVerdict]) -> Vec<(u32, Option<bool>, Option<bool>, u32)> {
    let mut keys: Vec<_> = verdicts
        .iter()
        .map(|v| (v.task, v.vote, v.answer, v.jobs))
        .collect();
    keys.sort_unstable();
    keys
}

fn count(journal: &Journal, kind: EventKind) -> u64 {
    journal
        .events()
        .iter()
        .filter(|e| e.event.kind() == kind)
        .count() as u64
}

/// Hedging on a straggler-prone pool fires, wins races, and changes no
/// vote-derived quantity relative to the unhedged run at the same seed.
#[test]
fn hedging_is_verdict_invariant_on_the_live_runtime() {
    let (plain, vp) = run_hedged(8, 42, 150, None, Assignment::Random);
    let (hedged, vh) = run_hedged(8, 42, 150, Some(test_policy()), Assignment::Random);
    assert_eq!(plain.report.tasks_completed, 150);
    assert_eq!(hedged.report.tasks_completed, 150);
    assert!(
        hedged.report.hedges_launched > 0,
        "an 8% straggler rate must trigger hedges"
    );
    assert!(
        hedged.report.hedges_won > 0,
        "some twin must beat its straggling origin"
    );
    assert_eq!(
        hedged.report.hedges_launched,
        hedged.report.hedges_won + hedged.report.hedges_wasted,
        "every launched twin settles exactly once"
    );
    assert_eq!(plain.report.hedges_launched, 0);
    // Votes are pure in (seed, task, replica): hedging must not move a
    // single verdict, vote, answer, or per-task job count.
    assert_eq!(verdict_keys(&vp), verdict_keys(&vh));
    assert_eq!(plain.report.tasks_correct, hedged.report.tasks_correct);
    assert_eq!(plain.report.total_jobs, hedged.report.total_jobs);
}

/// The hedged journal replays to the bit-identical live report, its hedge
/// events round-trip through JSONL, and the event counts equal the live
/// counters (the journal is a pure observer of the hedging layer).
#[test]
fn hedged_journal_replays_and_round_trips() {
    let (run, _) = run_hedged(8, 7, 120, Some(test_policy()), Assignment::Random);
    assert!(run.report.hedges_launched > 0);
    assert_eq!(report_from_journal(&run.journal), run.report);
    assert_eq!(
        count(&run.journal, EventKind::HedgeLaunched),
        run.report.hedges_launched
    );
    assert_eq!(
        count(&run.journal, EventKind::HedgeWon),
        run.report.hedges_won
    );
    assert_eq!(
        count(&run.journal, EventKind::HedgeWasted),
        run.report.hedges_wasted
    );
    let text = run.journal.to_jsonl();
    let restored = Journal::from_jsonl(&text).unwrap();
    assert_eq!(restored.events(), run.journal.events());
    assert_eq!(restored.digest(), run.journal.digest());
    assert_eq!(report_from_journal(&restored), run.report);
}

/// Every assignment policy serves the identical verdict stream: placement
/// chooses *where* a replica runs, never *what* it votes.
#[test]
fn assignment_policies_preserve_the_verdict_stream() {
    let mut streams = Vec::new();
    for policy in Assignment::ALL {
        let (run, verdicts) = run_hedged(8, 21, 100, Some(test_policy()), policy);
        assert_eq!(
            run.report.tasks_completed,
            100,
            "{}: every task must decide",
            policy.name()
        );
        assert_eq!(
            run.report.hedges_launched,
            run.report.hedges_won + run.report.hedges_wasted,
            "{}: every twin settles",
            policy.name()
        );
        assert_eq!(report_from_journal(&run.journal), run.report);
        streams.push((policy.name(), verdict_keys(&verdicts)));
    }
    for pair in streams.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "assignment {} and {} must agree on every verdict",
            pair[0].0, pair[1].0
        );
    }
}

/// Worker-count invariance (the live analogue of the CI
/// `SMARTRED_THREADS` ∈ {1, 8} axis): hedge *counts* are wall-clock
/// noise, but every vote-derived quantity is schedule-independent, and
/// the twin-settlement invariant holds at both extremes.
#[test]
fn hedging_is_worker_count_invariant_on_votes() {
    let (one, v1) = run_hedged(1, 99, 80, Some(test_policy()), Assignment::LeastLoaded);
    let (eight, v8) = run_hedged(8, 99, 80, Some(test_policy()), Assignment::LeastLoaded);
    for run in [&one, &eight] {
        assert_eq!(run.report.tasks_completed, 80);
        assert_eq!(
            run.report.hedges_launched,
            run.report.hedges_won + run.report.hedges_wasted
        );
        assert_eq!(report_from_journal(&run.journal), run.report);
    }
    assert_eq!(verdict_keys(&v1), verdict_keys(&v8));
    assert_eq!(one.report.tasks_correct, eight.report.tasks_correct);
    assert_eq!(one.report.total_jobs, eight.report.total_jobs);
}

/// The per-epoch hedge budget holds in the journal: no task epoch ever
/// launches more than `max_per_task` twins, and no twin is launched for
/// an origin that already resolved — the double-fire guards observed
/// end-to-end.
#[test]
fn hedge_budget_and_origin_liveness_hold_in_the_journal() {
    let policy = test_policy();
    let (run, _) = run_hedged(8, 5, 120, Some(policy), Assignment::Random);
    assert!(run.report.hedges_launched > 0);
    let mut per_epoch: HashMap<(u32, u32), u32> = HashMap::new();
    let mut resolved: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for e in run.journal.events() {
        use smartred_desim::journal::RunEvent;
        match e.event {
            RunEvent::HedgeLaunched {
                task,
                origin,
                epoch,
                ..
            } => {
                assert!(
                    !resolved.contains(&origin),
                    "twin launched for already-resolved origin {origin}"
                );
                let slot = per_epoch.entry((task, epoch)).or_insert(0);
                *slot += 1;
                assert!(
                    *slot <= policy.max_per_task,
                    "task {task} epoch {epoch} exceeded the hedge budget"
                );
            }
            RunEvent::JobReturned { job, .. }
            | RunEvent::JobTimedOut { job, .. }
            | RunEvent::WorkerCrashed { job, .. } => {
                resolved.insert(job);
            }
            _ => {}
        }
    }
}
