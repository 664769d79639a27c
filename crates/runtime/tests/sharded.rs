//! Cross-shard test battery for the sharded multi-coordinator runtime:
//! N=1 identity against the unsharded runtime, shard-count equivalence of
//! verdicts (property), gate-level shed accounting independence
//! (differential), and the audit re-tally shard-routing regression.
//!
//! The equivalence tests lean on the determinism contract: fault draws
//! are a pure function of `(seed, task, replica)`, so which shard — and
//! which worker — serves a replica cannot change its vote, and the merged
//! journal of an N-shard run must carry the same verdicts and per-task
//! job counts as the single-shard run at the same seed.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smartred_core::audit::{AuditPolicy, Cartel};
use smartred_core::execution::{shard_of, Assignment};
use smartred_core::hedge::HedgePolicy;
use smartred_core::params::VoteMargin;
use smartred_core::strategy::Iterative;
use smartred_desim::journal::{Journal, RunEvent};
use smartred_runtime::{
    report_from_journal, CartelWorker, FaultProfile, FaultyWorker, JobAssignment, Payload, Runtime,
    RuntimeConfig, ShardedConfig, ShardedRuntime, SubmitOutcome, Worker,
};

mod common;
use common::*;

const SEED: u64 = 0x5eed_beef;

fn base_cfg() -> RuntimeConfig {
    RuntimeConfig {
        workers: Some(8),
        ..chaos_cfg(None)
    }
}

fn sharded_cfg(shards: usize) -> ShardedConfig {
    ShardedConfig {
        base: base_cfg(),
        shards,
        wal_dir: None,
        admission_cap: 512,
        crash_after: None,
    }
}

fn run_sharded(shards: usize, tasks: &[(u32, Payload)]) -> smartred_runtime::ShardedRun {
    let runtime = ShardedRuntime::start(sharded_cfg(shards), strategy(), chaos_worker);
    let client = runtime.client();
    submit_all(&client, tasks);
    let verdicts = drain_verdicts(&client);
    assert_eq!(verdicts.len(), tasks.len());
    drop(client);
    runtime.finish()
}

/// With one shard the runtime *is* the unsharded runtime: the merge is
/// the identity (same digest as the shard's own journal), and the run
/// reaches the same verdicts and per-task job counts as `Runtime` under
/// the same seed and config.
#[test]
fn one_shard_is_identical_to_the_unsharded_runtime() {
    quiet_injected_panics();
    let tasks = roster(12);

    let unsharded = Runtime::start(base_cfg(), strategy(), chaos_worker);
    let client = unsharded.client();
    for (_, payload) in &tasks {
        let _ = client.submit(payload.clone());
    }
    let mut got = 0;
    while got < tasks.len() {
        client.recv().expect("unsharded verdict");
        got += 1;
    }
    drop(client);
    let golden = unsharded.finish();

    let run = run_sharded(1, &tasks);
    assert_eq!(run.shards.len(), 1);
    // Bit-identical merge: with one shard, the merged journal is the
    // shard's journal, digest and all.
    assert_eq!(run.journal.digest(), run.shards[0].journal.digest());
    assert_eq!(run.journal.events(), run.shards[0].journal.events());
    // Same verdicts and job counts as the unsharded runtime.
    assert_eq!(shape(&run.journal), shape(&golden.journal));
    // The merged journal replays to the merged report exactly.
    assert_eq!(report_from_journal(&run.journal), run.report);
    assert_eq!(run.report, run.shards[0].report);
}

/// The merged journal of any shard count replays through
/// `report_from_journal` to a report equal to the sum of its parts, and
/// decision events stay exactly-once per task.
#[test]
fn merged_journal_replays_to_the_merged_report() {
    quiet_injected_panics();
    for shards in [2usize, 4] {
        let tasks = roster(20);
        let run = run_sharded(shards, &tasks);
        assert_eq!(report_from_journal(&run.journal), run.report);
        assert_eq!(
            run.report.tasks_completed + run.report.tasks_capped + run.report.tasks_poisoned,
            tasks.len()
        );
        // Per-shard journals carry only their own tasks.
        for (k, shard_run) in run.shards.iter().enumerate() {
            for e in shard_run.journal.events() {
                if let Some(task) = e.event.task() {
                    assert_eq!(
                        shard_of(task, shards),
                        k,
                        "task {task} leaked into shard {k}'s journal"
                    );
                }
            }
        }
        // Merge order: time-sorted, re-sequenced.
        assert!(run.journal.events().windows(2).all(|w| w[0].at <= w[1].at));
        let mut decided: HashMap<u32, u32> = HashMap::new();
        for e in run.journal.events() {
            if let RunEvent::VerdictReached { task, .. }
            | RunEvent::TaskCapped { task }
            | RunEvent::TaskPoisoned { task, .. } = e.event
            {
                *decided.entry(task).or_insert(0) += 1;
            }
        }
        for (task, count) in decided {
            assert_eq!(count, 1, "task {task} must be decided exactly once");
        }
    }
}

/// A worker that spins until the test opens the gate, then answers
/// honestly — the overload fixture for the shed-differential test.
struct Gated {
    open: Arc<AtomicBool>,
}

impl Worker for Gated {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        while !self.open.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Some((true, job.payload.execute()))
    }
}

/// Differential satellite: under overload, the global admission gate
/// sheds exactly `submitted - admission_cap` submissions — the same count
/// for every shard count at matched capacity, because shedding is decided
/// by the global outstanding counter before any task id is routed.
#[test]
fn shed_count_at_matched_capacity_is_independent_of_shard_count() {
    const CAP: usize = 24;
    const SUBMITTED: usize = 80;
    let mut shed_counts = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let open = Arc::new(AtomicBool::new(false));
        let gate = open.clone();
        let mut cfg = sharded_cfg(shards);
        cfg.admission_cap = CAP;
        let runtime = ShardedRuntime::start(cfg, strategy(), move |_| {
            Box::new(Gated { open: gate.clone() })
        });
        let client = runtime.client();
        let mut shed = 0u64;
        for i in 0..SUBMITTED {
            match client.submit(Payload::Synthetic {
                answer: true,
                work: Duration::ZERO,
            }) {
                SubmitOutcome::Shed => shed += 1,
                SubmitOutcome::Accepted { task } | SubmitOutcome::Queued { task } => {
                    assert!(
                        (task as usize) < CAP,
                        "admitted task ids stay dense (submission {i})"
                    );
                }
            }
        }
        assert_eq!(
            shed,
            (SUBMITTED - CAP) as u64,
            "{shards} shard(s): gate must shed exactly the overflow"
        );
        // Release the gate; every admitted task must resolve.
        open.store(true, Ordering::Release);
        for _ in 0..CAP {
            client.recv().expect("admitted task must deliver a verdict");
        }
        drop(client);
        let run = runtime.finish();
        assert_eq!(run.admission.shed, shed);
        assert_eq!(run.admission.accepted + run.admission.queued, CAP as u64);
        assert_eq!(run.report.tasks_completed, CAP);
        shed_counts.push(shed);
    }
    assert!(
        shed_counts.windows(2).all(|w| w[0] == w[1]),
        "shed counts diverged across shard counts: {shed_counts:?}"
    );
}

/// Regression satellite: audit-triggered re-tallies and voided verdicts
/// route through the owning shard's WAL — a cartel conviction on shard k
/// voids only shard-k verdicts, and no decision event ever lands in
/// another shard's segment.
#[test]
fn cartel_conviction_on_one_shard_only_voids_that_shards_verdicts() {
    quiet_injected_panics();
    const SHARDS: usize = 4;
    const WORKERS: usize = 16; // span of 4 per shard
                               // Members 0..2 sit inside shard 0's node span (0..4): every
                               // coordinated lie — and every conviction — belongs to shard 0.
    let cartel = Cartel::new(2, 0.4);
    let wal_dir =
        std::env::temp_dir().join(format!("smartred-shard-retally-{}", std::process::id()));
    std::fs::create_dir_all(&wal_dir).unwrap();

    let mut cfg = sharded_cfg(SHARDS);
    cfg.base.workers = Some(WORKERS);
    cfg.base.poison = None;
    cfg.base.audit = AuditPolicy {
        spot_rate: 1.0,
        escalated_rate: 1.0,
        probation_audits: 0,
        strike_weight: 3,
    };
    cfg.base.audit_seed = SEED;
    cfg.wal_dir = Some(wal_dir.clone());
    let honest = FaultProfile::default();
    let runtime = ShardedRuntime::start(
        cfg,
        Iterative::new(VoteMargin::new(2).unwrap()),
        move |node| Box::new(CartelWorker::new(node, SEED, cartel, honest)),
    );
    let client = runtime.client();
    let tasks = roster(60);
    submit_all(&client, &tasks);
    let mut got = 0;
    while got < tasks.len() {
        client.recv().expect("every task must survive the cartel");
        got += 1;
    }
    drop(client);
    let run = runtime.finish();

    assert!(
        run.report.audit_failures > 0,
        "spot-rate 1.0 must catch the cartel lying"
    );
    let mut convicted_nodes = HashSet::new();
    for e in run.journal.events() {
        match e.event {
            RunEvent::AuditFailed { task, node } => {
                convicted_nodes.insert(node);
                assert_eq!(
                    shard_of(task, SHARDS),
                    0,
                    "conviction for task {task} outside the cartel's shard"
                );
            }
            RunEvent::VerdictVoided { task } | RunEvent::TaskRetallied { task } => {
                assert_eq!(
                    shard_of(task, SHARDS),
                    0,
                    "shard-0 conviction voided/re-tallied task {task} of another shard"
                );
            }
            _ => {}
        }
    }
    assert!(
        convicted_nodes.iter().all(|&n| cartel.is_member(n)),
        "only cartel members can be convicted, got {convicted_nodes:?}"
    );
    assert!(
        run.report.verdicts_voided > 0,
        "a half-span cartel must swing (and void) some tallies"
    );

    // The routing pin itself: each decision/audit event lives in its
    // owning shard's WAL segment, never a global stream.
    for k in 0..SHARDS {
        let path = ShardedConfig::wal_segment(&wal_dir, k);
        let wal = Journal::read_wal(&path, 1).unwrap().unwrap();
        assert!(!wal.torn, "a finished run leaves whole records");
        let wal = wal.journal;
        assert_eq!(wal.events(), run.shards[k].journal.events());
        for e in wal.events() {
            if let Some(task) = e.event.task() {
                assert_eq!(
                    shard_of(task, SHARDS),
                    k,
                    "task {task} event in wal-shard-{k}.jsonl"
                );
            }
            if k != 0 {
                assert!(
                    !matches!(
                        e.event,
                        RunEvent::VerdictVoided { .. }
                            | RunEvent::TaskRetallied { .. }
                            | RunEvent::AuditFailed { .. }
                    ),
                    "shard {k} carries a shard-0 audit consequence"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Shard-count equivalence of hedging decisions: with hedging enabled on
/// a straggler-prone pool, every shard count in {1, 2, 4, 8} reaches the
/// same verdicts, votes, and per-task job counts — placement and twin
/// races are wall-clock noise, votes are pure in `(seed, task, replica)`
/// — and each run keeps the twin-settlement and replay invariants.
#[test]
fn hedging_decisions_are_equivalent_across_shard_counts() {
    let tasks = roster(60);
    let mut shapes = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut cfg = sharded_cfg(shards);
        cfg.base.poison = None;
        cfg.base.hedge = Some(HedgePolicy {
            quantile: 0.9,
            min_samples: 10,
            multiplier: 3.0,
            max_per_task: 2,
        });
        cfg.base.assignment = Assignment::LeastLoaded;
        let runtime = ShardedRuntime::start(cfg, strategy(), straggling_liar);
        let client = runtime.client();
        submit_all(&client, &tasks);
        let verdicts = drain_verdicts(&client);
        assert_eq!(verdicts.len(), tasks.len(), "{shards} shard(s)");
        drop(client);
        let run = runtime.finish();
        assert_eq!(
            run.report.hedges_launched,
            run.report.hedges_won + run.report.hedges_wasted,
            "{shards} shard(s): every launched twin settles exactly once"
        );
        // The merged hedged journal replays to the merged report exactly.
        assert_eq!(report_from_journal(&run.journal), run.report);
        if shards == 1 {
            assert!(
                run.report.hedges_launched > 0,
                "an 8% straggler rate on 8 workers must trigger hedges"
            );
        }
        shapes.push((shards, shape(&run.journal)));
    }
    for pair in shapes.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "hedging decisions diverged between {} and {} shard(s)",
            pair[0].0, pair[1].0
        );
    }
}

mod equivalence_property {
    //! Property satellite: for random workload sizes, seeds, and any
    //! shard count in {1, 2, 4, 8}, the merged sharded journal carries
    //! verdicts identical to the single-shard run at the same seed.

    use super::*;
    use proptest::prelude::*;

    fn run_with(
        shards: usize,
        seed: u64,
        tasks: &[(u32, Payload)],
    ) -> Vec<(u32, u8, Option<bool>, u64)> {
        let runtime = ShardedRuntime::start(sharded_cfg(shards), strategy(), move |_| {
            Box::new(FaultyWorker::new(seed, chaos_profile()))
        });
        let client = runtime.client();
        submit_all(&client, tasks);
        let verdicts = drain_verdicts(&client);
        assert_eq!(verdicts.len(), tasks.len());
        drop(client);
        let run = runtime.finish();
        assert!(!run.crashed);
        assert_eq!(report_from_journal(&run.journal), run.report);
        shape(&run.journal)
    }

    proptest! {
        // Each case runs two full runtimes; keep the count modest.
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn any_shard_count_matches_the_single_shard_run(
            seed in 1u64..1_000_000,
            n_tasks in 4usize..24,
            shard_pick in 0usize..3,
        ) {
            quiet_injected_panics();
            let shards = [2usize, 4, 8][shard_pick];
            let tasks = roster(n_tasks);
            let single = run_with(1, seed, &tasks);
            let sharded = run_with(shards, seed, &tasks);
            prop_assert_eq!(single, sharded);
        }
    }
}
