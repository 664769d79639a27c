//! Tests that need what no public constructor exposes: a coordinator over
//! a [`WalWriter`] on a recording [`Disk`], or one driven turn by turn.

use std::sync::Mutex;

use smartred_core::params::VoteMargin;
use smartred_core::strategy::Iterative;
use smartred_desim::disk::Disk;

use super::*;
use crate::worker::{FaultProfile, FaultyWorker};

const SEED: u64 = 0x0b5e_77ed;

/// What the "file" holds: every byte a `write_all` handed over, how many
/// of them a `sync_data` has covered since, and the call counts.
#[derive(Debug, Default)]
struct DiskLog {
    bytes: Vec<u8>,
    synced: usize,
    writes: usize,
    syncs: usize,
}

/// A [`Disk`] in memory that other threads can read while the coordinator
/// writes it.
#[derive(Debug, Clone, Default)]
struct RecordingDisk(Arc<Mutex<DiskLog>>);

impl Disk for RecordingDisk {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let mut log = self.0.lock().unwrap();
        log.bytes.extend_from_slice(buf);
        log.writes += 1;
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        let mut log = self.0.lock().unwrap();
        log.synced = log.bytes.len();
        log.syncs += 1;
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        let mut log = self.0.lock().unwrap();
        log.bytes.truncate(len as usize);
        log.synced = log.synced.min(len as usize);
        Ok(())
    }

    fn seek_end(&mut self) -> std::io::Result<u64> {
        Ok(self.0.lock().unwrap().bytes.len() as u64)
    }
}

fn strategy() -> Iterative {
    Iterative::new(VoteMargin::new(3).unwrap())
}

fn payload() -> Payload {
    Payload::Synthetic {
        answer: true,
        work: Duration::ZERO,
    }
}

/// The task a decision record (verdict, cap or poisoning) decides.
fn decided_task(event: RunEvent) -> Option<u32> {
    match event {
        RunEvent::VerdictReached { task, .. }
        | RunEvent::TaskCapped { task }
        | RunEvent::TaskPoisoned { task, .. } => Some(task),
        _ => None,
    }
}

/// [`Runtime::start`] with the WAL on `disk` instead of a file.
fn start_on<F>(cfg: RuntimeConfig, disk: RecordingDisk, make_worker: F) -> Runtime
where
    F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
{
    let wal = WalWriter::with_disk(Box::new(disk), cfg.wal_sync)
        .with_batch(cfg.wal_batch)
        .with_checksums(cfg.wal_checksum);
    let ledger = Ledger::new(&cfg, Arc::new(strategy()));
    let (coordinator, submit_tx) = Coordinator::new(
        cfg,
        ledger,
        Journal::new(),
        Some(wal),
        Arc::new(make_worker),
    );
    spawn_runtime(coordinator, submit_tx, 0)
}

/// Keep injected-panic backtraces out of the test output while letting
/// real panics (including test assertion failures) through.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected worker crash"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// The durability settings, as `(label, wal_sync, wal_batch)`.
const DURABILITY: [(&str, bool, u64); 3] = [
    ("flush", false, 1),
    ("sync1", true, 1),
    ("sync64", true, 64),
];

/// A [`FaultyWorker`] that is slow on one placement in 25, so the jobs
/// queued behind it outlive the median and get a hedge twin (another
/// worker, same vote).
struct Straggler(u32, FaultyWorker);

impl Worker for Straggler {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        if (self.0 + job.task * 7 + job.replica * 3).is_multiple_of(25) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.1.execute(job)
    }
}

/// File before observation: whenever a client holds a verdict, the task's
/// decision record is inside the bytes the disk had been handed — and,
/// when syncing, inside the bytes a `sync_data` had covered — by the time
/// of the `recv`. Lies, panics and poisonings reach `finalize` through
/// `resolve`; the audited, hedged leg reaches it through `run_audit`'s
/// voids and re-tallies too.
#[test]
fn a_verdict_is_released_only_behind_the_commit_that_holds_its_decision() {
    quiet_injected_panics();
    const TASKS: usize = 160;
    const WINDOW: usize = 16;
    let chaos = FaultProfile {
        wrong_rate: 0.25,
        hang_rate: 0.0,
        crash_rate: 0.15,
        think: Duration::ZERO,
    };
    for (durability, sync, batch) in DURABILITY {
        for guarded in [false, true] {
            let name = format!("{durability}{}", if guarded { "-audit-hedge" } else { "" });
            let cfg = RuntimeConfig {
                // Honor SMARTRED_THREADS (the CI matrix axis), except that
                // a twin needs a second worker to overtake on.
                workers: guarded.then_some(4),
                queue_cap: 512,
                max_active: WINDOW,
                deadline: Duration::from_secs(30),
                poison: Some(PoisonPolicy { crash_limit: 2 }),
                wal_sync: sync,
                wal_batch: batch,
                wal_checksum: true,
                audit: match guarded {
                    true => AuditPolicy::spot(1.0),
                    false => AuditPolicy::disabled(),
                },
                hedge: guarded.then_some(HedgePolicy {
                    quantile: 0.5,
                    min_samples: 10,
                    multiplier: 2.0,
                    max_per_task: 2,
                }),
                ..RuntimeConfig::default()
            };
            let disk = RecordingDisk::default();
            let runtime = start_on(cfg, disk.clone(), move |index| match guarded {
                true => Box::new(Straggler(index, FaultyWorker::new(SEED, chaos))),
                false => Box::new(FaultyWorker::new(SEED, chaos)),
            });
            let client = runtime.client();
            // What of the file has been read so far, and the decisions in it.
            let mut read = 0;
            let mut decided = HashSet::new();
            let mut submitted = 0;
            for received in 0..TASKS {
                while submitted < TASKS && submitted < received + WINDOW {
                    assert_ne!(client.submit(payload()), SubmitOutcome::Shed);
                    submitted += 1;
                }
                let verdict = client.recv().expect("every task is decided");
                let log = disk.0.lock().unwrap();
                let observable = if sync { log.synced } else { log.bytes.len() };
                let fresh = std::str::from_utf8(&log.bytes[read..observable]).unwrap();
                assert!(
                    fresh.is_empty() || fresh.ends_with('\n'),
                    "{name}: whole records"
                );
                let records = fresh.lines().map(|l| Stamped::from_jsonl_line(l).unwrap());
                decided.extend(records.filter_map(|entry| decided_task(entry.event)));
                read = observable;
                assert!(
                    decided.contains(&verdict.task),
                    "{name}: task {} delivered ahead of its decision record ({observable} of {} \
                     bytes observable)",
                    verdict.task,
                    log.bytes.len()
                );
            }
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);
            // Every way into `finalize` was taken.
            assert!(run.report.tasks_poisoned > 0, "{name}: no poisoning");
            if guarded {
                assert!(run.report.verdicts_voided > 0, "{name}: no voided verdict");
                assert!(run.report.hedges_launched > 0, "{name}: no hedge");
            }
            let log = disk.0.lock().unwrap();
            let on_disk = Journal::from_jsonl(std::str::from_utf8(&log.bytes).unwrap());
            assert_eq!(on_disk.unwrap().events(), run.journal.events());
        }
    }
}

/// Group commit as counts, not timings: a turn's records — its decisions
/// included — share one `write_all` (and one `sync_data`), so a roster of
/// N zero-work tasks at `max_active: 64` costs far fewer of either than
/// it has decisions. With a commit per decision both counts were ≥ N.
#[test]
fn a_turn_is_one_write_and_one_sync_however_many_tasks_it_decides() {
    const TASKS: usize = 2_000;
    for (durability, sync, batch) in [("flush", false, 1), ("sync64", true, 64)] {
        let cfg = RuntimeConfig {
            workers: None,
            queue_cap: TASKS,
            max_active: 64,
            deadline: Duration::from_secs(30),
            wal_sync: sync,
            wal_batch: batch,
            ..RuntimeConfig::default()
        };
        let disk = RecordingDisk::default();
        let runtime = start_on(cfg, disk.clone(), |_| {
            Box::new(FaultyWorker::new(SEED, FaultProfile::default()))
        });
        let client = runtime.client();
        for _ in 0..TASKS {
            assert_ne!(client.submit(payload()), SubmitOutcome::Shed);
        }
        for _ in 0..TASKS {
            client.recv().expect("every task is decided");
        }
        drop(client);
        let run = runtime.finish();
        assert_eq!(run.report.tasks_completed, TASKS);
        let log = disk.0.lock().unwrap();
        if sync {
            assert!(
                log.syncs < TASKS,
                "{durability}: {} syncs for {TASKS} decisions",
                log.syncs
            );
            assert_eq!(log.synced, log.bytes.len());
        } else {
            assert!(
                log.writes < TASKS / 2,
                "{durability}: {} writes for {TASKS} decisions",
                log.writes
            );
            assert_eq!(log.syncs, 0);
        }
    }
}

/// The benchmark's `crash_recover` gate, inside tier-1: a turn's verdicts
/// wait for the turn's commit, but the crash hook commits before it dies
/// and releases what that commit made durable — so of the decisions on the
/// dead coordinator's disk at most one, the record whose append tripped
/// the hook, was never delivered, and the delivered ones are the log's
/// first.
#[test]
fn a_hook_crash_leaves_at_most_one_durable_decision_undelivered() {
    const TASKS: usize = 400;
    // Unanimous honest votes: three jobs of three records each, a wave
    // opened and closed, a verdict — the same stream on every schedule.
    let events = (TASKS * 12) as u64;
    for pct in [15, 35, 55, 75, 95] {
        let cfg = RuntimeConfig {
            workers: None,
            queue_cap: TASKS,
            max_active: 64,
            wal_sync: false,
            crash_after_events: Some(events * pct / 100),
            ..RuntimeConfig::default()
        };
        let disk = RecordingDisk::default();
        let runtime = start_on(cfg, disk.clone(), |_| {
            Box::new(FaultyWorker::new(SEED, FaultProfile::default()))
        });
        let client = runtime.client();
        for _ in 0..TASKS {
            assert_ne!(client.submit(payload()), SubmitOutcome::Shed);
        }
        // The flag is published after the dead coordinator's last send.
        while !runtime.is_crashed() {
            std::thread::sleep(TICK);
        }
        let mut delivered = Vec::new();
        while let Some(verdict) = client.recv_timeout(Duration::ZERO) {
            delivered.push(verdict.task);
        }
        drop(client);
        let crashed = runtime.finish();
        assert!(crashed.crashed);

        let log = disk.0.lock().unwrap();
        let on_disk = Journal::from_jsonl(std::str::from_utf8(&log.bytes).unwrap()).unwrap();
        assert_eq!(on_disk.events(), crashed.journal.events());
        let decisions = on_disk
            .events()
            .iter()
            .filter_map(|e| decided_task(e.event));
        let logged: Vec<u32> = decisions.collect();
        assert!(
            logged.starts_with(&delivered),
            "{pct} %: delivered verdicts are not a prefix of the log's decisions"
        );
        assert!(
            logged.len() - delivered.len() <= 1,
            "{pct} %: {} decisions durable, {} delivered",
            logged.len(),
            delivered.len()
        );
        assert!(!delivered.is_empty(), "{pct} %: the crash landed too early");
    }
}

/// A resolved job's deadline stays armed for the whole `deadline`; the
/// heap must not keep it that long. Drives the coordinator's own turn by
/// hand so the heap can be watched: across 10⁵ resolved jobs it never
/// holds more than a small multiple of the jobs in flight.
#[test]
fn the_timer_heap_stays_proportional_to_the_jobs_in_flight() {
    const TASKS: usize = 34_000; // × 3 unanimous votes each
    const WINDOW: usize = 16;
    let cfg = RuntimeConfig {
        workers: Some(2),
        queue_cap: 4 * WINDOW,
        max_active: WINDOW,
        deadline: Duration::from_secs(3_600), // nothing falls due
        journal: false,
        ..RuntimeConfig::default()
    };
    let ledger = Ledger::new(&cfg, Arc::new(strategy()));
    let (mut coordinator, submit_tx) = Coordinator::new(
        cfg,
        ledger,
        Journal::disabled(),
        None,
        Arc::new(|_| Box::new(FaultyWorker::new(SEED, FaultProfile::default())) as Box<dyn Worker>),
    );
    let client = Client::new(
        submit_tx,
        mpsc::channel(),
        Arc::new(AtomicU32::new(0)),
        coordinator.active.clone(),
        WINDOW,
        Arc::default(),
    );
    let (mut submitted, mut decided) = (0, 0);
    let (mut peak_jobs, mut peak_timers) = (0, 0);
    while decided < TASKS {
        while submitted < TASKS && submitted < decided + WINDOW {
            assert_ne!(client.submit(payload()), SubmitOutcome::Shed);
            submitted += 1;
        }
        coordinator.admit();
        coordinator.drain_pending();
        peak_jobs = peak_jobs.max(coordinator.jobs.len());
        peak_timers = peak_timers.max(coordinator.timers.len());
        coordinator.fire_timers();
        coordinator.commit_wal();
        if let Ok(event) = coordinator.result_rx.recv_timeout(TICK) {
            coordinator.on_pool_event(event);
            while let Ok(more) = coordinator.result_rx.try_recv() {
                coordinator.on_pool_event(more);
            }
        }
        while client.recv_timeout(Duration::ZERO).is_some() {
            decided += 1;
        }
    }
    assert_eq!(coordinator.ledger.report().total_jobs, 3 * TASKS as u64);
    assert!(peak_jobs <= 3 * WINDOW, "{peak_jobs} jobs in flight");
    assert!(
        peak_timers <= 4 * peak_jobs + 64,
        "{peak_timers} timers armed over at most {peak_jobs} jobs in flight"
    );
    coordinator.pool.shutdown();
}
