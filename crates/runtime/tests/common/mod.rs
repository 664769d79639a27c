//! Shared support for the chaos suites (`crash_recovery`, `disk_chaos`,
//! `sharded`): the roster, the lying-and-panicking pool, the roster
//! driver, and the schedule-independent run shape. Each suite pins its
//! own fault draws through its `SEED`, which is the one thing this module
//! takes from the file that includes it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use smartred_core::params::VoteMargin;
use smartred_core::resilience::PoisonPolicy;
use smartred_core::strategy::Iterative;
use smartred_desim::journal::{Journal, RunEvent};
use smartred_runtime::{
    FaultProfile, FaultyWorker, Payload, RecoveryReport, Runtime, RuntimeConfig, RuntimeRun,
    StragglerWorker, SubmitOutcome, TaskClient, TaskVerdict, Worker,
};

use super::SEED;

pub const MARGIN: usize = 3;

/// Keep injected-panic backtraces out of the test output while letting
/// real panics (including test assertion failures) through.
pub fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected worker crash") || s.starts_with("poison"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

pub fn roster(n: usize) -> Vec<(u32, Payload)> {
    (0..n as u32)
        .map(|task| {
            (
                task,
                Payload::Synthetic {
                    answer: true,
                    work: Duration::ZERO,
                },
            )
        })
        .collect()
}

/// Lies and panics, no hangs: hang recovery is schedule-dependent, so the
/// golden-comparison tests keep deadlines generous and hang_rate zero.
pub fn chaos_profile() -> FaultProfile {
    FaultProfile {
        wrong_rate: 0.25,
        hang_rate: 0.0,
        crash_rate: 0.15,
        think: Duration::ZERO,
    }
}

pub fn chaos_cfg(wal: Option<PathBuf>) -> RuntimeConfig {
    RuntimeConfig {
        workers: None, // honor SMARTRED_THREADS (the CI chaos matrix axis)
        queue_cap: 512,
        max_active: 16,
        deadline: Duration::from_secs(30),
        poison: Some(PoisonPolicy { crash_limit: 2 }),
        wal,
        ..RuntimeConfig::default()
    }
}

pub fn strategy() -> Iterative {
    Iterative::new(VoteMargin::new(MARGIN).unwrap())
}

pub fn chaos_worker(_node: u32) -> Box<dyn Worker> {
    Box::new(FaultyWorker::new(SEED, chaos_profile()))
}

/// The hedging suites' pool: liars whose placements straggle — a seeded
/// 8% take 40 ms, the rest 1 ms. No panics: whether a crash is absorbed
/// depends on whether a twin happens to be pending when it lands, a
/// wall-clock race, so only votes are schedule-independent under hedging.
pub fn straggling_liar(index: u32) -> Box<dyn Worker> {
    let liars = FaultProfile {
        wrong_rate: 0.25,
        ..FaultProfile::default()
    };
    let slow = Duration::from_millis(40);
    Box::new(StragglerWorker::new(index, SEED, liars, 0.08, slow))
}

pub fn start_chaos(cfg: RuntimeConfig) -> Runtime {
    Runtime::start(cfg, strategy(), chaos_worker)
}

/// Submits the roster in order; ids are assigned in submission order, so
/// they land on the roster's own.
pub fn submit_all(client: &impl TaskClient, tasks: &[(u32, Payload)]) {
    for (task, payload) in tasks {
        match client.submit(payload.clone()) {
            SubmitOutcome::Shed => panic!("the queue admits the whole roster"),
            SubmitOutcome::Accepted { task: id } | SubmitOutcome::Queued { task: id } => {
                assert_eq!(id, *task, "submission order must assign roster ids");
            }
        }
    }
}

pub fn drain_verdicts(client: &impl TaskClient) -> Vec<TaskVerdict> {
    let mut verdicts = Vec::new();
    while let Some(v) = client.recv_timeout(Duration::from_millis(400)) {
        verdicts.push(v);
    }
    verdicts
}

/// Runs the roster to completion (or to the configured chaos crash),
/// returning the run and every verdict the client actually received.
pub fn run_roster(cfg: RuntimeConfig, tasks: &[(u32, Payload)]) -> (RuntimeRun, Vec<TaskVerdict>) {
    let runtime = start_chaos(cfg);
    let client = runtime.client();
    submit_all(&client, tasks);
    let verdicts = drain_verdicts(&client);
    drop(client);
    (runtime.finish(), verdicts)
}

pub fn recover_chaos(
    cfg: RuntimeConfig,
    tasks: &[(u32, Payload)],
) -> (RuntimeRun, Vec<TaskVerdict>, RecoveryReport) {
    let (runtime, client, report) =
        Runtime::recover(cfg, strategy(), chaos_worker, tasks).expect("WAL recovery");
    let verdicts = drain_verdicts(&client);
    drop(client);
    (runtime.finish(), verdicts, report)
}

/// Schedule-independent run structure: `(task, kind, vote, jobs)` sorted
/// by task, where kind is 0 = verdict, 1 = capped, 2 = poisoned.
pub fn shape(journal: &Journal) -> Vec<(u32, u8, Option<bool>, u64)> {
    let mut jobs: HashMap<u32, u64> = HashMap::new();
    let mut out = Vec::new();
    for e in journal.events() {
        match e.event {
            RunEvent::JobDispatched { task, .. } => *jobs.entry(task).or_default() += 1,
            RunEvent::VerdictReached { task, value, .. } => out.push((task, 0, Some(value))),
            RunEvent::TaskCapped { task } => out.push((task, 1, None)),
            RunEvent::TaskPoisoned { task, .. } => out.push((task, 2, None)),
            _ => {}
        }
    }
    out.sort_unstable();
    out.into_iter()
        .map(|(task, kind, vote)| (task, kind, vote, jobs.get(&task).copied().unwrap_or(0)))
        .collect()
}

/// A WAL path under `target/tmp`, named after the suite
/// (`smartred-crash-recovery-…`, `smartred-disk-chaos-…`): tests remove
/// it when they pass, so what a failed assertion leaves behind is what CI
/// uploads.
pub fn wal_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smartred-{}-{}-{name}.wal.jsonl",
        env!("CARGO_CRATE_NAME").replace('_', "-"),
        std::process::id()
    ))
}
