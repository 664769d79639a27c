//! Crash recovery and supervision over real threads and real files:
//! recovery's refusals, worker-crash supervision, task poisoning, the
//! write-ahead barrier as seen in the WAL file, and the sharded crash
//! matrix. The coordinator's crash contracts themselves — deaths at every
//! record and at every disk fault, torn tails, what a cut prefix owes,
//! audit outcomes across a death — and hung-worker respawn are explored
//! without threads in `coordinator::tests`.
//!
//! The sharded tests rely on the determinism contract: fault draws (lies
//! *and* injected panics) are a pure function of `(seed, task, replica)`,
//! so an uninterrupted run and a crash+recover run face identical
//! adversity and must produce identical verdicts and per-task job counts
//! — only wall-clock stamps and cross-task interleaving may differ.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use smartred_core::params::KVotes;
use smartred_core::resilience::PoisonPolicy;
use smartred_core::strategy::Traditional;
use smartred_desim::journal::{Journal, RunEvent};
use smartred_runtime::{
    report_from_journal, FaultProfile, FaultyWorker, JobAssignment, Payload, RecoveryError,
    Runtime, RuntimeConfig, Worker,
};

mod common;
use common::*;

const SEED: u64 = 0x5eed_cafe;

/// How many decision events (verdict, cap, poison) each task has.
fn decisions_per_task(journal: &Journal) -> HashMap<u32, u32> {
    let mut counts = HashMap::new();
    for e in journal.events() {
        if let RunEvent::VerdictReached { task, .. }
        | RunEvent::TaskCapped { task }
        | RunEvent::TaskPoisoned { task, .. } = e.event
        {
            *counts.entry(task).or_insert(0) += 1;
        }
    }
    counts
}

/// Recovery error paths: no WAL configured, a roster missing an open
/// task's payload, a segment that starts mid-stream with no snapshot to
/// vouch for it, and interior (non-tail) corruption are all reported,
/// never silently patched.
#[test]
fn recovery_rejects_missing_wal_roster_gaps_and_interior_corruption() {
    quiet_injected_panics();
    let tasks = roster(6);
    fn recover_err(cfg: RuntimeConfig, tasks: &[(u32, Payload)]) -> RecoveryError {
        match Runtime::recover(cfg, strategy(), chaos_worker, tasks) {
            Ok(_) => panic!("recovery was expected to fail"),
            Err(err) => err,
        }
    }

    let err = recover_err(chaos_cfg(None), &tasks);
    assert!(matches!(err, RecoveryError::NoWal));

    let wal = wal_path("errors");
    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.crash_after_events = Some(40);
    let (crashed, _) = run_roster(cfg, &tasks);
    assert!(crashed.crashed);

    // Every open task's payload is missing from an empty roster.
    let err = recover_err(chaos_cfg(Some(wal.clone())), &[]);
    assert!(matches!(err, RecoveryError::Corrupt(_)), "got {err:?}");

    // Without its first record the segment starts at seq 1, and no
    // snapshot lies beside it.
    let text = std::fs::read_to_string(&wal).unwrap();
    std::fs::write(&wal, &text[text.find('\n').unwrap() + 1..]).unwrap();
    let err = recover_err(chaos_cfg(Some(wal.clone())), &tasks);
    assert!(
        matches!(&err, RecoveryError::Corrupt(msg) if msg.contains("mid-stream")),
        "got {err:?}"
    );

    // Interior corruption (not the final record) is a hard parse error.
    let second_line_start = text.find('\n').unwrap() + 1;
    let mut corrupted = text.clone();
    corrupted.replace_range(second_line_start..second_line_start + 1, "garbage ");
    std::fs::write(&wal, corrupted).unwrap();
    let err = recover_err(chaos_cfg(Some(wal.clone())), &tasks);
    assert!(matches!(err, RecoveryError::Parse(_)), "got {err:?}");
    let _ = std::fs::remove_file(&wal);
}

/// Worker panics are caught and healed in place: with a never-poisoning
/// policy, a heavily crash-prone pool still completes every task, one
/// restart per caught panic, and the journal folds to the live report.
#[test]
fn worker_crashes_are_supervised_and_every_task_completes() {
    quiet_injected_panics();
    let tasks = roster(30);
    let mut cfg = chaos_cfg(None);
    cfg.workers = Some(4);
    cfg.poison = Some(PoisonPolicy {
        crash_limit: u32::MAX,
    });
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(3).unwrap()), |_| {
        Box::new(FaultyWorker::new(
            SEED,
            FaultProfile {
                wrong_rate: 0.0,
                hang_rate: 0.0,
                crash_rate: 0.4,
                think: Duration::ZERO,
            },
        ))
    });
    let client = runtime.client();
    submit_all(&client, &tasks);
    let verdicts = drain_verdicts(&client);
    drop(client);
    let run = runtime.finish();
    assert_eq!(run.report.tasks_completed, tasks.len());
    assert_eq!(run.report.tasks_poisoned, 0);
    assert_eq!(verdicts.len(), tasks.len());
    assert!(verdicts.iter().all(|v| v.vote == Some(true) && !v.poisoned));
    assert!(
        run.report.worker_crashes > 0,
        "a 40% crash rate must panic some workers"
    );
    assert_eq!(run.report.worker_crashes, run.report.worker_restarts);
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// A payload that kills every worker that touches it is *poisoned* after
/// the crash limit — a failed, vote-less, `poisoned` verdict — instead of
/// being reissued forever; healthy tasks on the same runtime are
/// untouched.
#[test]
fn poison_tasks_fail_fast_with_a_poisoned_verdict() {
    quiet_injected_panics();
    struct PanicsOnTaskZero;
    impl Worker for PanicsOnTaskZero {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            assert!(job.payload.execute(), "payload must still be executable");
            if job.task == 0 {
                panic!("poisoned payload");
            }
            Some((true, true))
        }
    }
    let mut cfg = chaos_cfg(None);
    cfg.workers = Some(2);
    cfg.poison = Some(PoisonPolicy { crash_limit: 3 });
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(3).unwrap()), |_| {
        Box::new(PanicsOnTaskZero)
    });
    let client = runtime.client();
    let tasks = roster(5);
    submit_all(&client, &tasks);
    let verdicts = drain_verdicts(&client);
    drop(client);
    let run = runtime.finish();

    assert_eq!(verdicts.len(), tasks.len(), "poisoned tasks still deliver");
    let poisoned: Vec<_> = verdicts.iter().filter(|v| v.poisoned).collect();
    assert_eq!(poisoned.len(), 1);
    assert_eq!(poisoned[0].task, 0);
    assert_eq!(poisoned[0].vote, None);
    assert_eq!(run.report.tasks_poisoned, 1);
    assert_eq!(run.report.tasks_completed, tasks.len() - 1);
    assert_eq!(
        run.report.worker_crashes, 3,
        "exactly crash_limit crashes before poisoning"
    );
    let has_poison_event = run.journal.events().iter().any(|e| {
        matches!(
            e.event,
            RunEvent::TaskPoisoned {
                task: 0,
                crashes: 3
            }
        )
    });
    assert!(has_poison_event);
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// The durability settings the barrier tests run under, as
/// `(label, wal_sync, wal_batch)`.
const DURABILITY: [(&str, bool, u64); 3] = [
    ("flush", false, 1),
    ("sync1", true, 1),
    ("sync64", true, 64),
];

/// The whole-record prefix of the WAL file as it stands. The coordinator
/// may be mid-write, so a torn tail is expected and dropped.
fn wal_prefix_now(wal: &std::path::Path) -> Journal {
    Journal::read_wal(wal, 1).unwrap().unwrap().journal
}

/// The write-ahead barrier, seen from outside: whenever a client holds a
/// verdict, that task's decision record is already in the WAL file — under
/// every durability setting, although records now reach the file a
/// coordinator turn at a time rather than one by one.
#[test]
fn a_verdict_is_in_the_wal_file_before_the_client_holds_it() {
    quiet_injected_panics();
    let tasks = roster(48);
    for (name, sync, batch) in DURABILITY {
        let wal = wal_path(&format!("barrier-{name}"));
        let mut cfg = chaos_cfg(Some(wal.clone()));
        cfg.wal_sync = sync;
        cfg.wal_batch = batch;
        cfg.wal_checksum = true;
        let runtime = start_chaos(cfg);
        let client = runtime.client();
        // Closed loop, eight tasks in flight: each verdict is checked
        // against the file while the coordinator keeps logging the rest.
        let window = 8;
        submit_all(&client, &tasks[..window]);
        for next in window..tasks.len() + window {
            let verdict = client.recv().expect("every task is decided");
            let on_disk = wal_prefix_now(&wal);
            let decided = on_disk.events().iter().any(|e| match e.event {
                RunEvent::VerdictReached { task, .. }
                | RunEvent::TaskCapped { task }
                | RunEvent::TaskPoisoned { task, .. } => task == verdict.task,
                _ => false,
            });
            assert!(
                decided,
                "{name}: task {} delivered ahead of its WAL record ({} records on disk)",
                verdict.task,
                on_disk.len()
            );
            if let Some(more) = tasks.get(next..next + 1) {
                submit_all(&client, more);
            }
        }
        drop(client);
        let run = runtime.finish();
        assert!(!run.crashed);
        assert_eq!(wal_prefix_now(&wal).events(), run.journal.events());
        let _ = std::fs::remove_file(&wal);
    }
}

/// Nothing stays in the commit buffer while the coordinator sleeps: with
/// every worker held inside `execute`, no decision — hence no decision
/// barrier — can happen, yet the wave and dispatch records reach the file,
/// because the coordinator commits before it blocks on the result channel.
/// And once the verdict is out and the coordinator idles, the file is the
/// whole journal: `finish` adds nothing but `RunEnded`.
#[test]
fn the_wal_file_is_complete_whenever_the_coordinator_sleeps() {
    use std::sync::{Condvar, Mutex};
    #[derive(Default)]
    struct Gate {
        state: Mutex<(usize, bool)>, // (executions started, released)
        changed: Condvar,
    }
    struct Gated(Arc<Gate>);
    impl Worker for Gated {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            let mut state = self.0.state.lock().unwrap();
            state.0 += 1;
            self.0.changed.notify_all();
            while !state.1 {
                state = self.0.changed.wait(state).unwrap();
            }
            Some((true, job.payload.execute()))
        }
    }

    for (name, sync, batch) in [("flush", false, 1), ("sync64", true, 64)] {
        let wal = wal_path(&format!("idle-{name}"));
        let gate = Arc::new(Gate::default());
        let mut cfg = chaos_cfg(Some(wal.clone()));
        cfg.workers = Some(MARGIN);
        cfg.wal_sync = sync;
        cfg.wal_batch = batch;
        let worker_gate = gate.clone();
        let runtime = Runtime::start(cfg, strategy(), move |_| {
            Box::new(Gated(worker_gate.clone()))
        });
        let client = runtime.client();
        submit_all(&client, &roster(1));

        // All of the first wave is inside `execute`; the coordinator has
        // nothing left to do but wait for a reply.
        let mut state = gate.state.lock().unwrap();
        while state.0 < MARGIN {
            state = gate.changed.wait(state).unwrap();
        }
        drop(state);
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let dispatched = |j: &Journal| {
            j.events()
                .iter()
                .filter(|e| matches!(e.event, RunEvent::JobDispatched { .. }))
                .count()
        };
        while dispatched(&wal_prefix_now(&wal)) < MARGIN {
            assert!(
                std::time::Instant::now() < deadline,
                "{name}: dispatch records never reached the file while the coordinator slept"
            );
            std::thread::yield_now();
        }

        let mut state = gate.state.lock().unwrap();
        state.1 = true;
        gate.changed.notify_all();
        drop(state);
        let verdict = client.recv().expect("the task is decided");
        assert_eq!(verdict.vote, Some(true));
        // Unanimous honest votes decide at the wave's last reply, so the
        // verdict is the journal's last record before shutdown.
        let idle = std::fs::read_to_string(&wal).unwrap();
        drop(client);
        let run = runtime.finish();
        let ended = run.journal.events().last().unwrap();
        assert_eq!(ended.event, RunEvent::RunEnded);
        assert_eq!(
            format!("{idle}{}\n", ended.to_jsonl_line()),
            run.journal.to_jsonl(),
            "{name}: the idle file was missing records"
        );
        let _ = std::fs::remove_file(&wal);
    }
}

mod sharded_crash_matrix {
    //! Crash-point matrix for the sharded runtime: kill all N=4 shard
    //! coordinators at 20/50/80% of each shard's golden event count —
    //! with torn tails injected on *two different* shard WAL segments
    //! simultaneously — and require parallel recovery to converge to the
    //! golden verdicts with exactly-once decisions per shard.

    use super::*;
    use smartred_core::execution::shard_of;
    use smartred_runtime::{ShardedConfig, ShardedRun, ShardedRuntime, TaskVerdict};

    /// Shard count under test: the CI `shard-chaos` matrix axis
    /// (`SMARTRED_SHARDS` ∈ {1, 4}), defaulting to 4.
    fn shard_count() -> usize {
        std::env::var("SMARTRED_SHARDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(4)
    }

    fn sharded_chaos_cfg(wal_dir: Option<PathBuf>) -> ShardedConfig {
        ShardedConfig {
            base: chaos_cfg(None),
            shards: shard_count(),
            wal_dir,
            admission_cap: 512,
            crash_after: None,
        }
    }

    fn run_sharded(cfg: ShardedConfig, tasks: &[(u32, Payload)]) -> (ShardedRun, Vec<TaskVerdict>) {
        let runtime = ShardedRuntime::start(cfg, strategy(), chaos_worker);
        let client = runtime.client();
        submit_all(&client, tasks);
        let verdicts = drain_verdicts(&client);
        drop(client);
        (runtime.finish(), verdicts)
    }

    /// WAL directories live under `target/tmp` so a failing CI run can
    /// upload the per-shard segments as artifacts (they are removed on
    /// success).
    fn wal_dir(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smartred-sharded-crash-{name}"))
    }

    /// The matrix itself. Each round kills every shard coordinator at
    /// `pct`% of that shard's golden event count, injects torn tails on
    /// the WAL segments of shards 0 and 2 simultaneously, and recovers
    /// all shards in parallel.
    #[test]
    fn shards_killed_at_matrix_points_recover_to_the_golden_run() {
        quiet_injected_panics();
        let shards = shard_count();
        // With N=1 both torn tails land on the only segment; the torn
        // set still describes which *segments* end mid-record.
        let torn_shards: HashSet<usize> = [0, 2 % shards].into_iter().collect();
        let tasks = roster(24);
        let (golden, golden_verdicts) = run_sharded(sharded_chaos_cfg(None), &tasks);
        assert!(!golden.crashed);
        assert_eq!(golden_verdicts.len(), tasks.len());
        let golden_shape = shape(&golden.journal);
        let per_shard_events: Vec<u64> = golden
            .shards
            .iter()
            .map(|s| s.journal.events().len() as u64)
            .collect();
        assert!(per_shard_events.iter().all(|&n| n > 1), "every shard works");

        for pct in [20u64, 50, 80] {
            let dir = wal_dir(&format!("pct-{pct}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut cfg = sharded_chaos_cfg(Some(dir.clone()));
            cfg.crash_after = Some(
                per_shard_events
                    .iter()
                    .map(|&n| Some((n * pct / 100).max(1)))
                    .collect(),
            );
            let (crashed, pre_verdicts) = run_sharded(cfg, &tasks);
            assert!(crashed.crashed, "pct {pct}: at least one shard must trip");

            // A real kill tears whatever appends were in flight — on two
            // *different* shard segments at once.
            use std::io::Write;
            for &torn in &torn_shards {
                let path = ShardedConfig::wal_segment(&dir, torn);
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                write!(file, "{{\"at\":999999,\"seq\":77,\"kind\":\"job_ret").unwrap();
            }

            let (runtime, client, reports) = ShardedRuntime::recover(
                sharded_chaos_cfg(Some(dir.clone())),
                strategy(),
                chaos_worker,
                &tasks,
            )
            .expect("parallel shard recovery");
            let post_verdicts = drain_verdicts(&client);
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);

            assert_eq!(reports.len(), shards);
            for (k, rec) in reports.iter().enumerate() {
                assert_eq!(
                    rec.torn_tail,
                    torn_shards.contains(&k),
                    "pct {pct}: only segments {torn_shards:?} were torn, shard {k} disagrees"
                );
            }

            // Convergence: the merged recovered journal carries the
            // golden verdicts and per-task job counts.
            assert_eq!(
                shape(&run.journal),
                golden_shape,
                "pct {pct}: recovered run diverged from golden"
            );
            assert_eq!(report_from_journal(&run.journal), run.report);

            // Exactly-once decisions, globally and per shard — and every
            // decision lives in its owning shard's journal.
            for (task, count) in decisions_per_task(&run.journal) {
                assert_eq!(count, 1, "pct {pct}: task {task} decided more than once");
            }
            for (k, shard_run) in run.shards.iter().enumerate() {
                for (task, count) in decisions_per_task(&shard_run.journal) {
                    assert_eq!(shard_of(task, shards), k, "decision routed to wrong shard");
                    assert_eq!(count, 1, "pct {pct}: shard {k} re-decided task {task}");
                }
            }

            // At-most-once delivery across the crash: no verdict reaches
            // a client twice (a verdict logged right at a crash boundary
            // may reach no client at all).
            let before: HashSet<u32> = pre_verdicts.iter().map(|v| v.task).collect();
            let after: HashSet<u32> = post_verdicts.iter().map(|v| v.task).collect();
            assert!(
                before.is_disjoint(&after),
                "pct {pct}: a verdict was delivered both before and after the crash"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
