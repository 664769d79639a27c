//! Tests that need what no public constructor exposes. Most drive the
//! coordinator itself — `step`, `turn`, `fire_due` — over a scripted pool
//! and scripted time: no thread, no clock, and a failure is a seed. The
//! threaded ones that remain are smoke tests of the driver, over a
//! [`WalWriter`] on a recording [`Disk`].

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use rand::Rng;
use smartred_core::audit::Cartel;
use smartred_core::parallel::task_rng;
use smartred_core::strategy::Iterative;
use smartred_desim::disk::Disk;
use smartred_desim::journal::EventKind;

use super::*;
use crate::checkpoint::{finish, pair};
use crate::ledger::tests::ir;
use crate::ledger::Owed;
use crate::report::report_from_journal;
use crate::shard::{ShardedConfig, ShardedRuntime};
use crate::worker::{CartelWorker, FaultProfile, FaultyWorker, StragglerWorker};
use crate::TaskClient;

const SEED: u64 = 0x0b5e_77ed;

/// What the "file" holds: every byte a `write_all` handed over, how many
/// of them a `sync_data` has covered since, the call counts, and the
/// failure it has yet to inject.
#[derive(Debug, Default)]
struct DiskLog {
    bytes: Vec<u8>,
    synced: usize,
    writes: usize,
    syncs: usize,
    truncations: usize,
    fault: Option<Fault>,
}

/// A failure a [`RecordingDisk`] injects once, counting `set_len` calls
/// (a checkpoint's truncations) from 1: the `n`-th one fails and leaves
/// the segment whole, or the first `write_all` after it (the seal) fails
/// and writes nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    Truncation(usize),
    Seal(usize),
}

impl DiskLog {
    /// Whether the fault of `kind` is due at this truncation count; it
    /// fires once.
    fn fails(&mut self, kind: fn(usize) -> Fault) -> bool {
        let due = self.fault == Some(kind(self.truncations));
        if due {
            self.fault = None;
        }
        due
    }
}

/// A [`Disk`] in memory that other threads can read while the coordinator
/// writes it.
#[derive(Debug, Clone, Default)]
struct RecordingDisk(Arc<Mutex<DiskLog>>);

impl Disk for RecordingDisk {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let mut log = self.0.lock().unwrap();
        if log.fails(Fault::Seal) {
            return Err(std::io::Error::other("injected seal write failure"));
        }
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
        log.truncations += 1;
        if log.fails(Fault::Truncation) {
            return Err(std::io::Error::other("injected truncation failure"));
        }
        log.bytes.truncate(len as usize);
        log.synced = log.synced.min(len as usize);
        Ok(())
    }

    fn seek_end(&mut self) -> std::io::Result<u64> {
        Ok(self.0.lock().unwrap().bytes.len() as u64)
    }
}

fn strategy() -> Iterative {
    ir(3)
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
    let ledger = Ledger::new(&cfg, Arc::new(strategy()));
    let (wal, make) = (wal_on(&cfg, disk), Arc::new(make_worker));
    spawn_runtime(
        cfg,
        ledger,
        Journal::new(),
        Some(wal),
        make,
        VecDeque::new(),
        0,
    )
}

fn wal_on(cfg: &RuntimeConfig, disk: RecordingDisk) -> WalWriter {
    WalWriter::with_disk(Box::new(disk), cfg.wal_sync)
        .with_batch(cfg.wal_batch)
        .with_checksums(cfg.wal_checksum)
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
            // Guarded, one placement in 25 is slow: the jobs queued behind
            // it outlive the median and get a twin (another worker, same
            // vote).
            let slow = Duration::from_millis(20);
            let runtime = start_on(cfg, disk.clone(), move |index| match guarded {
                true => Box::new(StragglerWorker::new(index, SEED, chaos, 0.04, slow)),
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

/// A pool with no threads: it keeps what it is handed until the test
/// answers for it.
#[derive(Default)]
struct ScriptedPool {
    /// Unanswered jobs a node's inbox holds before it refuses (0: any).
    cap: usize,
    /// Accepted, unanswered jobs as `(node, job)`, oldest first.
    sent: Vec<(u32, JobAssignment)>,
    /// Nodes wedged inside `execute`, and for how long they say so.
    wedged: HashMap<u32, Duration>,
    /// Jobs that were on a node when it was respawned: their detached
    /// thread may yet reply, under the epoch it was given.
    ghosts: Vec<(u32, JobAssignment)>,
}

impl Pool for ScriptedPool {
    fn send_first(
        &mut self,
        job: JobAssignment,
        mut order: impl Iterator<Item = u32>,
    ) -> Result<u32, JobAssignment> {
        let held = |node: &u32| self.sent.iter().filter(|(on, _)| on == node).count();
        match order.find(|node| self.cap == 0 || held(node) < self.cap) {
            Some(node) => {
                self.sent.push((node, job));
                Ok(node)
            }
            None => Err(job),
        }
    }

    /// A worker with anything in its hands is inside `execute`.
    fn busy_for(&self, node: u32) -> Option<Duration> {
        let holds = self.sent.iter().any(|&(on, _)| on == node);
        let wedged = self.wedged.get(&node).copied();
        wedged.or(holds.then_some(Duration::ZERO))
    }

    fn respawn(&mut self, node: u32) {
        self.wedged.remove(&node);
        let (lost, kept) = self.sent.drain(..).partition(|&(on, _)| on == node);
        self.sent = kept;
        self.ghosts.extend::<Vec<_>>(lost);
    }

    fn shutdown(self) {}
}

/// The coordinator under test with the test as its driver: it owns the
/// clock (`at` arguments, in micros) and the only client, and ends each
/// turn with the runtime's own [`Driver`].
struct Rig {
    c: Coordinator<Iterative, ScriptedPool>,
    d: Driver,
    verdict_tx: Sender<TaskVerdict>,
    verdicts: Receiver<TaskVerdict>,
    submitted: u32,
}

fn at(micros: u64) -> SimTime {
    SimTime::from_micros(micros)
}

impl Rig {
    /// A rig whose strategy is IR with vote margin `margin`.
    fn new(cfg: RuntimeConfig, margin: usize, wal: Option<WalWriter>, pool: ScriptedPool) -> Self {
        let ledger = Ledger::new(&cfg, Arc::new(ir(margin)));
        let journal = match cfg.journal {
            true => Journal::new(),
            false => Journal::disabled(),
        };
        let (verdict_tx, verdicts) = mpsc::channel();
        let d = Driver::new(&cfg, &journal, wal);
        let c = Coordinator::new(cfg, ledger, journal, pool, Arc::default(), VecDeque::new());
        Self {
            c,
            d,
            verdict_tx,
            verdicts,
            submitted: 0,
        }
    }

    /// Steps a turn at `now` and ends it; `false` once there is no next.
    fn turn(&mut self, now: u64) -> bool {
        self.d.turn(&mut self.c, at(now))
    }

    fn submit(&mut self, now: u64) {
        let submission = Submission {
            task: self.submitted,
            payload: Arc::new(payload()),
            verdict_tx: self.verdict_tx.clone(),
        };
        self.submitted += 1;
        self.c.step(Input::Submit(submission), at(now));
    }

    /// `worker`'s reply to `job` arrives at `now`.
    fn reply(&mut self, worker: u32, job: &JobAssignment, vote: bool, now: u64) {
        let reply = JobResult {
            job: job.job,
            task: job.task,
            worker,
            epoch: job.epoch,
            vote,
            answer: vote,
        };
        self.c.step(Input::Reply(reply), at(now));
    }

    /// Every unanswered job comes back with an honest vote at `now`.
    fn answer_all(&mut self, now: u64) {
        for (worker, job) in std::mem::take(&mut self.c.pool.sent) {
            self.reply(worker, &job, true, now);
        }
    }

    /// The tasks whose verdicts have been released since the last call.
    fn delivered(&self) -> Vec<u32> {
        self.verdicts.try_iter().map(|v| v.task).collect()
    }
}

/// Serves `tasks` zero-work tasks to completion under IR with vote margin
/// `margin`, with the test as the driver: one turn per millisecond of
/// scripted time, after which every job dispatched is answered as the
/// worker `make_worker` builds for its node answers it. Then it drains a
/// millisecond after the last verdict, so whatever falls due by then — a
/// short quarantine sentence's release among it — fires before `RunEnded`.
/// The journal is a function of the arguments alone.
pub(crate) fn serve_scripted(
    cfg: RuntimeConfig,
    margin: usize,
    tasks: u32,
    make_worker: impl Fn(u32) -> Box<dyn Worker>,
) -> Journal {
    let mut rig = Rig::new(cfg, margin, None, ScriptedPool::default());
    let mut workers: HashMap<u32, Box<dyn Worker>> = HashMap::new();
    rig.c.resume(at(0));
    for _ in 0..tasks {
        rig.submit(0);
    }
    let (mut now, mut decided) = (0, 0);
    while decided < tasks as usize {
        now += 1_000;
        assert!(now < 60_000_000, "the run does not end");
        assert!(rig.turn(now));
        for (node, job) in std::mem::take(&mut rig.c.pool.sent) {
            let worker = workers.entry(node).or_insert_with(|| make_worker(node));
            let (vote, _) = worker.execute(&job).expect("these workers always answer");
            rig.reply(node, &job, vote, now);
        }
        decided += rig.delivered().len();
    }
    rig.c.step(Input::Drain, at(now + 1_000));
    assert!(!rig.turn(now + 1_000), "drained and idle");
    rig.c.journal
}

/// The benchmark's `crash_recover` gate, inside tier-1, and tighter: the
/// crash hook dies at the end of a turn, behind a commit of exactly its N
/// records that releases every verdict whose decision it made durable. So
/// every decision on the dead coordinator's disk was delivered, in log
/// order, and the dead run's journal and report are the disk's.
#[test]
fn a_hook_crash_leaves_no_durable_decision_undelivered() {
    const TASKS: usize = 400;
    // Unanimous honest votes: three jobs of three records each, a wave
    // opened and closed, a verdict — the same stream on every schedule.
    let events = (TASKS * 12) as u64;
    for pct in [15, 35, 55, 75, 95] {
        let limit = events * pct / 100;
        let cfg = RuntimeConfig {
            workers: Some(2),
            max_active: 64,
            wal_sync: false,
            crash_after_events: Some(limit),
            ..RuntimeConfig::default()
        };
        let disk = RecordingDisk::default();
        let wal = wal_on(&cfg, disk.clone());
        let mut rig = Rig::new(cfg, 3, Some(wal), ScriptedPool::default());
        for _ in 0..TASKS {
            rig.submit(0);
        }
        let mut delivered = Vec::new();
        for now in 1.. {
            if !rig.turn(now) {
                break;
            }
            rig.answer_all(now);
            delivered.extend(rig.delivered());
        }
        delivered.extend(rig.delivered());
        assert!(rig.d.dead);

        let log = disk.0.lock().unwrap();
        let on_disk = Journal::from_jsonl(std::str::from_utf8(&log.bytes).unwrap()).unwrap();
        assert_eq!(on_disk.len() as u64, limit);
        assert_eq!(on_disk.events(), rig.c.journal.events());
        assert_eq!(rig.d.report(&rig.c), report_from_journal(&on_disk));
        let decisions = on_disk
            .events()
            .iter()
            .filter_map(|e| decided_task(e.event));
        let logged: Vec<u32> = decisions.collect();
        assert_eq!(
            logged, delivered,
            "{pct} %: the delivered verdicts are not the log's decisions"
        );
        assert!(!delivered.is_empty(), "{pct} %: the crash landed too early");
    }
}

/// A resolved job's deadline stays armed for the whole `deadline`; the
/// heap must not keep it that long: across 10⁵ resolved jobs it never
/// holds more than a small multiple of the jobs in flight.
#[test]
fn the_timer_heap_stays_proportional_to_the_jobs_in_flight() {
    const TASKS: usize = 34_000; // × 3 unanimous votes each
    const WINDOW: usize = 16;
    let cfg = RuntimeConfig {
        workers: Some(2),
        max_active: WINDOW,
        deadline: Duration::from_secs(3_600), // nothing falls due
        journal: false,
        ..RuntimeConfig::default()
    };
    let mut rig = Rig::new(cfg, 3, None, ScriptedPool::default());
    let (mut decided, mut peak_jobs, mut peak_timers) = (0, 0, 0);
    for now in 0.. {
        if decided == TASKS {
            break;
        }
        while (rig.submitted as usize) < TASKS.min(decided + WINDOW) {
            rig.submit(now);
        }
        assert!(rig.turn(now));
        peak_jobs = peak_jobs.max(rig.c.jobs.len());
        peak_timers = peak_timers.max(rig.c.timers.len());
        rig.answer_all(now);
        decided += rig.delivered().len();
    }
    assert_eq!(rig.c.ledger.report().total_jobs, 3 * TASKS as u64);
    assert!(peak_jobs <= 3 * WINDOW, "{peak_jobs} jobs in flight");
    assert!(
        peak_timers <= 4 * peak_jobs + 64,
        "{peak_timers} timers armed over at most {peak_jobs} jobs in flight"
    );
}

/// Every wake-up is an input or a named timer. An idle coordinator has
/// none armed; a flying job arms its `eta`; a sentence being served, its
/// release. And an input is acted on when it is taken, not at the next
/// reply: a submission that finds room opens its first wave at that very
/// instant, whatever else is outstanding.
#[test]
fn nothing_is_due_but_what_was_armed_and_a_submission_is_admitted_as_it_arrives() {
    let cfg = RuntimeConfig {
        workers: Some(4),
        max_active: 4,
        deadline: Duration::from_secs(30),
        discipline: Some(QuarantinePolicy::default()),
        ..RuntimeConfig::default()
    };
    let mut rig = Rig::new(cfg.clone(), 3, None, ScriptedPool::default());
    rig.c.resume(at(0));
    assert!(rig.turn(0));
    assert_eq!(rig.c.next_due(), None, "no periodic wake-up exists");

    rig.submit(1_000);
    assert!(rig.turn(1_500));
    let eta = at(1_500) + micros(cfg.deadline);
    assert_eq!(rig.c.pool.sent.len(), 3);
    assert_eq!(rig.c.next_due(), Some(eta), "the flying jobs' deadline");
    let dispatched = rig.c.journal.events().iter().filter_map(|e| match e.event {
        RunEvent::JobDispatched { eta, .. } => Some(eta),
        _ => None,
    });
    assert_eq!(dispatched.collect::<Vec<_>>(), [eta; 3]);

    // Those jobs have 30 s to go; the newcomer does not wait for them.
    rig.submit(7_000);
    let last = rig.c.journal.events().last().expect("a wave was logged");
    let opened = RunEvent::WaveOpened {
        task: 1,
        wave: 1,
        jobs: 3,
    };
    assert_eq!((last.at, last.event), (at(7_000), opened));

    // A recovered ledger with node 2 serving a sentence: `resume` arms
    // the release, and firing it at that stamp lets the node back in.
    let mut ledger = Ledger::new(&cfg, Arc::new(strategy()));
    let sentenced = Stamped {
        at: at(5_000_000),
        seq: 0,
        event: RunEvent::NodeQuarantined { node: 2 },
    };
    ledger.replay(&sentenced).unwrap();
    let release = ledger.node(2).quarantined_until.expect("sentenced");
    let mut c = Coordinator::new(
        cfg,
        ledger,
        Journal::resume_at(1),
        ScriptedPool::default(),
        Arc::default(),
        VecDeque::new(),
    );
    c.resume(at(5_000_001));
    assert_eq!(c.next_due(), Some(release), "the release stamp");
    assert!(!c.ledger.dispatchable(2));
    c.fire_due(release);
    assert!(c.ledger.dispatchable(2));
    assert_eq!(c.next_due(), None);
}

/// Says when it starts a job, then holds it until told to go.
struct Held(Sender<()>, Arc<Mutex<Receiver<()>>>);

impl Worker for Held {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        let _ = self.0.send(());
        let _ = self.1.lock().unwrap().recv();
        Some((true, job.payload.execute()))
    }
}

/// Fills a runtime that holds one task open and two waiting, is shed five
/// times, lets the workers go, and returns the next task id it is given.
fn next_id_after_sheds(client: &impl TaskClient, started: &Receiver<()>, go: Sender<()>) -> u32 {
    let id = |outcome| match outcome {
        SubmitOutcome::Accepted { task } | SubmitOutcome::Queued { task } => Some(task),
        SubmitOutcome::Shed => None,
    };
    assert_eq!(id(client.submit(payload())), Some(0));
    // Its first job is running, so it is admitted and holds the one open
    // slot until `go`.
    started.recv().unwrap();
    assert_eq!(id(client.submit(payload())), Some(1));
    assert_eq!(id(client.submit(payload())), Some(2));
    for _ in 0..5 {
        assert_eq!(id(client.submit(payload())), None, "the queue is full");
    }
    drop(go);
    client.recv().expect("task 0 is decided");
    // A place frees up once task 1 is admitted; until then this is shed
    // some more, which must not matter either.
    let next = loop {
        match id(client.submit(payload())) {
            Some(task) => break task,
            None => std::thread::yield_now(),
        }
    };
    for _ in 0..3 {
        client.recv().expect("every admitted task is decided");
    }
    next
}

/// A shed submission burns no task id, on either runtime: after the same
/// sheds at a full queue, both number the next task the same — so the
/// `(seed, task, replica)` fault streams of a roster do not depend on how
/// often its submitter was turned away.
#[test]
fn a_shed_burns_no_task_id_on_either_runtime() {
    // One task open and two waiting fill the queue, sharded or not.
    let cfg = RuntimeConfig {
        workers: Some(1),
        queue_cap: 2,
        max_active: 1,
        ..RuntimeConfig::default()
    };
    let held = || {
        let ((started_tx, started), (go, held)) = (mpsc::channel(), mpsc::channel());
        let held = Arc::new(Mutex::new(held));
        let make = move |_| Box::new(Held(started_tx.clone(), held.clone())) as Box<dyn Worker>;
        (make, started, go)
    };

    let (make, started, go) = held();
    let runtime = Runtime::start(cfg.clone(), strategy(), make);
    let client = runtime.client();
    let unsharded = next_id_after_sheds(&client, &started, go);
    drop(client);
    runtime.finish();

    let (make, started, go) = held();
    let cfg = ShardedConfig {
        admission_cap: 3,
        base: cfg,
        ..ShardedConfig::new(1)
    };
    let runtime = ShardedRuntime::start(cfg, strategy(), make);
    let client = runtime.client();
    let sharded = next_id_after_sheds(&client, &started, go);
    drop(client);
    runtime.finish();

    assert_eq!((unsharded, sharded), (3, 3));
}

/// One seeded schedule against the real coordinator, which of its
/// defences are on included: the test is the pool and the clock, and at
/// seeded virtual instants it submits, or picks an outstanding job and
/// answers it, crashes it or lets it lapse, wedges a worker, or lets a
/// respawned worker's detached thread reply late — until every task is
/// decided. Then the run is held to its contracts. Returns the journal.
fn explore(seed: u64) -> Journal {
    explore_with(seed, None)
}

/// [`explore`], and with `crash` the coordinator dies once it has logged
/// that many records into a WAL on a recording disk: its run is rebuilt
/// from the bytes and resumed on a fresh pool ([`revive`]), and the same
/// schedule carries on. The contracts then hold across both lives, and
/// the second life logs what the cut prefix owed before it dispatches.
fn explore_with(seed: u64, crash: Option<u64>) -> Journal {
    let deaths = Deaths {
        crash,
        ..Deaths::default()
    };
    explore_in(seed, deaths).0
}

/// How the lives of an explored schedule end, and whether they
/// checkpoint (the snapshot beside a WAL path in the temp directory; the
/// segment stays on the recording disk). The first life dies once it has
/// logged `crash` records, or at the disk's `fault`; a second life dies
/// once it has logged `again` records of its own. The last one drains.
#[derive(Debug, Clone, Copy, Default)]
struct Deaths {
    checkpoint_every: Option<u64>,
    crash: Option<u64>,
    fault: Option<Fault>,
    again: Option<u64>,
}

/// What a [`revive`] resumed from: the whole history, a sealed segment
/// past its snapshot, or a checkpoint it finished, `earlier` being how
/// many checkpoints the history held before that one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Resumed {
    Whole,
    Sealed,
    Finished { earlier: usize },
}

/// [`explore`] under `deaths`. Returns the whole history across lives
/// (the last one's journal begins at its segment) and what each revival
/// resumed from.
fn explore_in(seed: u64, deaths: Deaths) -> (Journal, Vec<Resumed>) {
    const TASKS: u32 = 10;
    let mut rng = task_rng(SEED, 0x5c4e_d01e, seed);
    let [quarantine, hang, hedge, cartel] = [0, 1, 2, 3].map(|bit| seed >> bit & 1 == 1);
    let snapshots = std::env::temp_dir().join(format!(
        "smartred-explore-{}-{seed}.jsonl",
        std::process::id()
    ));
    let cfg = RuntimeConfig {
        workers: Some(4),
        max_active: 3,
        deadline: Duration::from_secs(2),
        job_cap: Some(30),
        poison: Some(PoisonPolicy { crash_limit: 2 }),
        hang_after: hang.then_some(Duration::from_millis(300)),
        discipline: (quarantine || cartel).then_some(QuarantinePolicy {
            strike_limit: 2,
            quarantine_units: 1.5,
            blacklist_after: 2,
        }),
        audit: match cartel {
            true => AuditPolicy::spot(1.0),
            false => AuditPolicy::disabled(),
        },
        audit_seed: seed,
        hedge: hedge.then_some(HedgePolicy {
            quantile: 0.5,
            min_samples: 4,
            multiplier: 1.5,
            max_per_task: 2,
        }),
        wal: deaths.checkpoint_every.map(|_| snapshots),
        checkpoint_every: deaths.checkpoint_every,
        ..RuntimeConfig::default()
    };
    let liars = FaultProfile {
        wrong_rate: 0.3,
        ..FaultProfile::default()
    };
    let vote = |node: u32, job: &JobAssignment| {
        let said = match cartel {
            true => CartelWorker::new(node, SEED, Cartel::new(2, 0.4), liars).execute(job),
            false => FaultyWorker::new(SEED, liars).execute(job),
        };
        said.expect("these workers always answer").0
    };
    let fresh_pool = || ScriptedPool {
        cap: 2,
        ..ScriptedPool::default()
    };
    if let Some(path) = &cfg.wal {
        crate::checkpoint::discard(path).unwrap();
    }
    let disk = RecordingDisk::default();
    disk.0.lock().unwrap().fault = deaths.fault;
    let logged = deaths.crash.is_some() || cfg.wal.is_some();
    let wal = logged.then(|| wal_on(&cfg, disk.clone()));
    let hooked = RuntimeConfig {
        crash_after_events: deaths.crash,
        ..cfg.clone()
    };
    let mut rig = Rig::new(hooked, 3, wal, fresh_pool());
    rig.c.resume(at(0));
    let (mut now, mut decided, mut history) = (0, Vec::new(), Journal::new());
    let mut revived = Vec::new();
    for step in 0.. {
        assert!(step < 20_000, "the run does not end");
        now += rng.gen_range(0..120_000);
        // A wedged worker answers nothing until it is respawned.
        let pool = &mut rig.c.pool;
        let able = |&(node, _): &(u32, JobAssignment)| !pool.wedged.contains_key(&node);
        let able: Vec<usize> = (0..pool.sent.len())
            .filter(|&i| able(&pool.sent[i]))
            .collect();
        let pick = able.get(rng.gen_range(0..able.len().max(1))).copied();
        match (rng.gen_range(0..10), pick) {
            (0..=1, _) if rig.submitted < TASKS => rig.submit(now),
            (0..=5, Some(i)) => {
                let (node, job) = pool.sent.remove(i);
                rig.reply(node, &job, vote(node, &job), now);
            }
            (6, Some(i)) => {
                let (worker, lost) = pool.sent.remove(i);
                let (job, task, epoch) = (lost.job, lost.task, lost.epoch);
                let crash = Input::Crash {
                    worker,
                    job,
                    task,
                    epoch,
                };
                rig.c.step(crash, at(now));
            }
            // Lost: the worker says nothing, ever; the deadline will.
            (7, Some(i)) => drop(pool.sent.remove(i)),
            (8, Some(i)) if hang => {
                pool.wedged.insert(pool.sent[i].0, Duration::from_secs(10));
            }
            (9, _) if !pool.ghosts.is_empty() => {
                let (node, job) = pool.ghosts.remove(rng.gen_range(0..pool.ghosts.len()));
                rig.reply(node, &job, vote(node, &job), now);
                // Whatever it was sent under is superseded: never tallied.
                let dropped = RunEvent::StaleReplyDropped {
                    job: job.job,
                    task: job.task,
                    epoch: job.epoch,
                };
                assert_eq!(rig.c.journal.events().last().unwrap().event, dropped);
            }
            // Nothing to do but wait: for the next timer, if nobody could
            // act before it.
            _ if able.is_empty() => {
                now = rig.c.next_due().map_or(now, |due| due.as_micros().max(now))
            }
            _ => {}
        }
        if !rig.turn(now) {
            decided.extend(rig.delivered());
            let hook = deaths.again.filter(|_| revived.is_empty());
            let life = (&cfg, &disk, hook, now);
            revived.push(revive(&mut rig, life, fresh_pool(), &mut history, &decided));
        }
        decided.extend(rig.delivered());
        if decided.len() == TASKS as usize {
            break;
        }
    }
    loop {
        rig.c.step(Input::Drain, at(now));
        assert!(!rig.turn(now), "drained and idle: there is no next turn");
        if !rig.d.dead {
            break;
        }
        // The drain reached a life's hook: the next life drains.
        decided.extend(rig.delivered());
        let hook = deaths.again.filter(|_| revived.is_empty());
        let life = (&cfg, &disk, hook, now);
        revived.push(revive(&mut rig, life, fresh_pool(), &mut history, &decided));
    }
    assert_eq!(
        disk.0.lock().unwrap().fault,
        None,
        "the injected fault fired"
    );

    fold_life(&mut history, &rig.c.journal);
    let report = rig.c.ledger.report();
    for (seq, pair) in history.events().windows(2).enumerate() {
        assert_eq!((pair[0].seq, pair[1].seq), (seq as u64, seq as u64 + 1));
        assert!(pair[0].at <= pair[1].at, "time runs backwards at seq {seq}");
    }
    let mut decisions = decisions(&history);
    decisions.sort_unstable();
    decided.sort_unstable();
    let roster: Vec<u32> = (0..TASKS).collect();
    assert_eq!(decisions, roster, "one decision a task");
    assert_eq!(decided, roster, "one verdict a task");
    assert_eq!(
        report.hedges_launched,
        report.hedges_won + report.hedges_wasted
    );
    assert_eq!(&report_from_journal(&history), report);
    if logged {
        let log = disk.0.lock().unwrap();
        let wal = Journal::from_jsonl(std::str::from_utf8(&log.bytes).unwrap()).unwrap();
        let first = wal.events().first().map_or(0, |e| e.seq as usize);
        let tail = &history.events()[first..];
        assert_eq!(
            wal.events(),
            tail,
            "the WAL holds the history's last segment"
        );
    }
    for (start, owed) in revived.iter().map(|(start, owed, _)| (*start, owed)) {
        let resumed = &history.events()[start..];
        let dispatched = |e: &Stamped| e.event.kind() == EventKind::JobDispatched;
        let first = resumed.iter().position(dispatched).unwrap_or(resumed.len());
        for event in owed {
            let logged = resumed[..first].iter().any(|e| e.event == *event);
            assert!(logged, "{event:?} owed, not logged before a dispatch");
        }
    }
    crate::ledger::tests::every_prefix_replays(&cfg, 3, &history);
    if let Some(path) = &cfg.wal {
        crate::checkpoint::discard(path).unwrap();
    }
    (history, revived.into_iter().map(|(.., r)| r).collect())
}

/// The tasks `journal` decides, in log order.
fn decisions(journal: &Journal) -> Vec<u32> {
    let decided = journal
        .events()
        .iter()
        .filter_map(|e| decided_task(e.event));
    decided.collect()
}

/// Appends what of `life`'s journal `history` lacks; what they share
/// must agree.
fn fold_life(history: &mut Journal, life: &Journal) {
    for e in life.events() {
        match history.events().get(e.seq as usize) {
            Some(kept) => assert_eq!(kept, e, "two lives disagree at seq {}", e.seq),
            None => {
                assert_eq!(e.seq, history.next_seq(), "a life skips records");
                history.record(e.at, e.event);
            }
        }
    }
}

/// What a death in [`explore_in`] leaves: the dead life's journal folded
/// into `history`, and the run rebuilt from the WAL bytes and the
/// snapshot beside them by the pure half of [`Runtime::recover`] — the
/// [`pair`] rule and [`rebuild`] — and the writes `pair` asks for, then
/// resumed at `now` on `pool` (the dead pool's jobs are lost) with its
/// WAL on the same `disk`, dying after `hook` records if set. Checks that
/// the segment is the history's tail, that the lives so far `delivered`
/// exactly the history's decisions, and that the rebuilt report is the
/// history's fold. Returns where the next life's records begin, the
/// records the cut prefix owes (a settlement for every twin left racing,
/// a poisoning, and a quarantine or blacklisting the last-worker guard
/// lets through) and what the rebuild resumed from.
fn revive(
    rig: &mut Rig,
    (cfg, disk, hook, now): (&RuntimeConfig, &RecordingDisk, Option<u64>, u64),
    pool: ScriptedPool,
    history: &mut Journal,
    delivered: &[u32],
) -> (usize, Vec<RunEvent>, Resumed) {
    fold_life(history, &rig.c.journal);
    let bytes = disk.0.lock().unwrap().bytes.clone();
    let prefix = Journal::from_jsonl_prefix(std::str::from_utf8(&bytes).unwrap()).unwrap();
    assert!(!prefix.torn, "the hook dies at a record boundary");
    let segment = prefix.journal;
    let first = segment.events().first().map_or(0, |e| e.seq as usize);
    let kept = &history.events()[first..first + segment.len()];
    assert_eq!(segment.events(), kept, "the segment is the history's");
    assert_eq!(delivered, decisions(history), "the verdicts so far");

    let ckpt = cfg.wal.as_deref().map(checkpoint_path);
    let snapshot = ckpt
        .filter(|p| p.exists())
        .map(|p| CheckpointState::load(&p));
    let paired = pair(snapshot, segment).unwrap_or_else(|refused| panic!("{refused}"));
    let (base, journal, interrupted) = paired;
    let resumed = match (&base, interrupted) {
        (None, _) => Resumed::Whole,
        (Some(_), false) => Resumed::Sealed,
        (Some(snap), true) => {
            let seals = history.of_kind(EventKind::CheckpointTaken);
            let earlier = seals.filter(|e| e.seq < snap.events).count();
            Resumed::Finished { earlier }
        }
    };
    let roster: Vec<(u32, Payload)> = (0..rig.submitted).map(|task| (task, payload())).collect();
    let ledger = Ledger::new(cfg, Arc::new(ir(3)));
    let rebuilt = rebuild(ledger, base.as_ref(), &journal, &roster, &rig.verdict_tx);
    let (ledger, backlog, recovery, next_task) = rebuilt.expect("the prefix replays");
    assert_eq!(next_task, rig.submitted);
    assert_eq!(
        recovery.report,
        report_from_journal(history),
        "snapshot + suffix"
    );

    let twins = ledger.twins(None).into_iter();
    let mut owed: Vec<RunEvent> = twins
        .map(|(_, job, task)| RunEvent::HedgeWasted { job, task })
        .collect();
    let Owed { discipline, poison } = ledger.owed();
    if let Some(task) = poison {
        let crashes = ledger.open()[&task].poison.crashes();
        owed.push(RunEvent::TaskPoisoned { task, crashes });
    }
    let standing = |node: &u32| ledger.dispatchable(*node);
    let guarded = |&(node, _): &(u32, DisciplineAction)| {
        standing(&node) && (0..cfg.worker_count() as u32).filter(standing).count() > 1
    };
    owed.extend(
        discipline
            .filter(guarded)
            .and_then(|(node, action)| match action {
                DisciplineAction::None => None,
                DisciplineAction::Quarantine => Some(RunEvent::NodeQuarantined { node }),
                DisciplineAction::Blacklist => Some(RunEvent::NodeDeparted {
                    node,
                    reason: DepartureReason::Blacklist,
                }),
            }),
    );

    let mut wal = wal_on(cfg, disk.clone());
    if interrupted {
        finish(&mut wal, &journal).expect("the disk takes the seal");
    }
    let start = history.len();
    let hooked = RuntimeConfig {
        crash_after_events: hook,
        ..cfg.clone()
    };
    rig.d = Driver::new(&hooked, &journal, Some(wal));
    rig.c = Coordinator::new(cfg.clone(), ledger, journal, pool, Arc::default(), backlog);
    rig.c.resume(at(now));
    (start, owed, resumed)
}

/// The contracts, explored rather than sampled by hand: exactly one
/// decision and one verdict per task, `launched = won + wasted`, dense
/// monotone `seq`, the report equal to the reference fold, and every
/// prefix of the journal replayable — on every seed; and between them the
/// seeds reach every defence. A failure names the seed that replays it.
///
/// Every journal is also pinned, through one fold of the seeds' digests:
/// a schedule is a function of its seed alone, so a journal that differs
/// between processes (a record logged in hash-map order, say) or changes
/// under a refactor fails here on the first run.
#[test]
fn seeded_schedules_keep_every_contract() {
    const JOURNALS: u64 = 0x603f_c18c_fb67_70dd;
    const REACHED: [EventKind; 12] = [
        EventKind::JobTimedOut,
        EventKind::WorkerCrashed,
        EventKind::TaskPoisoned,
        EventKind::StaleReplyDropped,
        EventKind::NodeQuarantined,
        EventKind::NodeReleased,
        EventKind::NodeDeparted,
        EventKind::EpochAdvanced,
        EventKind::HedgeWon,
        EventKind::HedgeWasted,
        EventKind::AuditFailed,
        EventKind::VerdictVoided,
    ];
    let mut reached = [0; REACHED.len()];
    let mut journals = 0u64;
    for seed in 0..256 {
        let journal = std::panic::catch_unwind(|| explore(seed)).unwrap_or_else(|cause| {
            eprintln!("seed {seed} breaks a contract: `explore({seed})` replays it");
            std::panic::resume_unwind(cause)
        });
        for (kind, count) in REACHED.iter().zip(&mut reached) {
            *count += journal.count(*kind);
        }
        journals = journals.wrapping_mul(0x100_0000_01b3) ^ journal.digest();
    }
    for (kind, count) in REACHED.iter().zip(reached) {
        assert!(count > 0, "no schedule reached {}", kind.name());
    }
    assert_eq!(
        journals, JOURNALS,
        "the seeds' journals changed: {journals:#018x}"
    );
}

/// The contracts across a death, explored: every seeded schedule is
/// killed at a seeded record count up to its last decision, rebuilt from
/// its WAL and carried on ([`explore_with`]) — one decision and one
/// verdict per task across both lives, the first life's verdicts exactly
/// its durable decisions, what the cut prefix owed logged before the
/// second life dispatches, `launched = won + wasted` and the report equal
/// to the fold over the whole WAL. A failure names the seed and the crash
/// point that replay it.
#[test]
fn seeded_crashes_keep_every_contract() {
    for seed in 0..256 {
        let whole = explore(seed);
        let mut decisions = whole.events().iter().map(|e| decided_task(e.event));
        let last = decisions.rposition(|task| task.is_some()).expect("decided") as u64;
        let crash = task_rng(SEED, 0xdead, seed).gen_range(1..=last + 1);
        std::panic::catch_unwind(|| explore_with(seed, Some(crash))).unwrap_or_else(|cause| {
            eprintln!("seed {seed} breaks a contract: `explore_with({seed}, Some({crash}))`");
            std::panic::resume_unwind(cause)
        });
    }
}

/// The contracts across deaths in and around checkpoints, explored: every
/// seeded schedule checkpoints every 8 records; its first life dies at a
/// seeded record, at a failed truncation after a seeded checkpoint's
/// snapshot is stored, or at that checkpoint's failed seal write, and its
/// second life dies again at a seeded record. Each revival pairs segment
/// and snapshot by [`pair`], the rule [`Runtime::recover`] runs, so a
/// refused window fails here. Across all three lives: one decision and
/// one verdict per task, every rebuilt report the fold of the history so
/// far, and the last segment on the disk the history's tail
/// ([`explore_in`]). Between them the seeds resume from a sealed segment
/// and finish a checkpoint that was not the first. A failure names the
/// seed and the deaths that replay it.
#[test]
fn seeded_checkpoints_keep_every_contract() {
    const EVERY: Option<u64> = Some(8);
    let (mut resumed, mut thrice) = (Vec::new(), 0);
    for seed in 0..256 {
        let checkpointing = Deaths {
            checkpoint_every: EVERY,
            ..Deaths::default()
        };
        let (whole, _) = explore_in(seed, checkpointing);
        let checkpoints = whole.count(EventKind::CheckpointTaken);
        let mut decisions = whole.events().iter().map(|e| decided_task(e.event));
        let last = decisions.rposition(|task| task.is_some()).expect("decided") as u64;
        let mut rng = task_rng(SEED, 0xc4ec_4b07, seed);
        let nth = rng.gen_range(1..=checkpoints.max(1));
        let (crash, fault) = match rng.gen_range(0..3) {
            kind if kind == 0 || checkpoints == 0 => (Some(rng.gen_range(1..=last + 1)), None),
            1 => (None, Some(Fault::Truncation(nth))),
            _ => (None, Some(Fault::Seal(nth))),
        };
        let deaths = Deaths {
            crash,
            fault,
            again: Some(rng.gen_range(1..=last / 2 + 1)),
            ..checkpointing
        };
        let revivals = std::panic::catch_unwind(|| explore_in(seed, deaths).1);
        let revivals = revivals.unwrap_or_else(|cause| {
            eprintln!("seed {seed} breaks a contract: `explore_in({seed}, {deaths:?})`");
            std::panic::resume_unwind(cause)
        });
        thrice += usize::from(revivals.len() > 1);
        resumed.extend(revivals);
    }
    assert!(thrice > 0, "no second life died");
    let finished_late = |r: &Resumed| matches!(r, Resumed::Finished { earlier } if *earlier > 0);
    assert!(
        resumed.contains(&Resumed::Sealed),
        "no sealed-segment recovery"
    );
    assert!(
        resumed.iter().any(finished_late),
        "no later checkpoint finished"
    );
}
