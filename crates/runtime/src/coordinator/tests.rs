//! Tests that need what no public constructor exposes. Most drive the
//! coordinator itself — `step`, `turn`, `fire_due` — over a scripted pool
//! and scripted time: no thread, no clock, and a failure is a seed. The
//! threaded ones that remain are smoke tests of the driver, over a
//! [`WalWriter`] on a [`FaultyDisk`] in memory.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Mutex;

use rand::Rng;
use smartred_core::audit::Cartel;
use smartred_core::parallel::task_rng;
use smartred_core::strategy::Iterative;
use smartred_desim::disk::{Disk, DiskCounts, DiskFaultPlan, FaultyDisk};
use smartred_desim::journal::{EventKind, JournalParseError};

use super::*;
use crate::checkpoint::{finish, pair};
use crate::ledger::tests::ir;
use crate::ledger::Owed;
use crate::report::report_from_journal;
use crate::shard::{ShardedConfig, ShardedRuntime};
use crate::worker::{CartelWorker, FaultProfile, FaultyWorker, StragglerWorker};
use crate::TaskClient;

const SEED: u64 = 0x0b5e_77ed;

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
fn start_on<F>(cfg: RuntimeConfig, disk: &FaultyDisk, make_worker: F) -> Runtime
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

fn wal_on(cfg: &RuntimeConfig, disk: &FaultyDisk) -> WalWriter {
    WalWriter::with_disk(Box::new(disk.clone()), cfg.wal_sync)
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
            let disk = FaultyDisk::new(DiskFaultPlan::none(SEED));
            // Guarded, one placement in 25 is slow: the jobs queued behind
            // it outlive the median and get a twin (another worker, same
            // vote).
            let slow = Duration::from_millis(20);
            let runtime = start_on(cfg, &disk, move |index| match guarded {
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
                // The file only grows: what a sync had covered is still
                // there when the bytes are read after it.
                let synced = disk.synced();
                let bytes = disk.bytes();
                let observable = if sync { synced } else { bytes.len() };
                let fresh = std::str::from_utf8(&bytes[read..observable]).unwrap();
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
                    bytes.len()
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
            let on_disk = Journal::from_jsonl(std::str::from_utf8(&disk.bytes()).unwrap());
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
        let disk = FaultyDisk::new(DiskFaultPlan::none(SEED));
        let runtime = start_on(cfg, &disk, |_| {
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
        let DiskCounts { writes, syncs, .. } = disk.counts();
        if sync {
            assert!(
                syncs < TASKS as u64,
                "{durability}: {syncs} syncs for {TASKS} decisions"
            );
            assert_eq!(disk.synced(), disk.bytes().len());
        } else {
            assert!(
                writes < TASKS as u64 / 2,
                "{durability}: {writes} writes for {TASKS} decisions"
            );
            assert_eq!(syncs, 0);
        }
    }
}

/// A pool with no threads: it keeps what it is handed until the test
/// answers for it.
#[derive(Default)]
struct ScriptedPool {
    /// Unacknowledged jobs as `(node, job)`, oldest first.
    sent: Vec<(u32, JobAssignment)>,
    /// Nodes wedged inside `execute`: they send nothing until respawned.
    wedged: HashSet<u32>,
    /// Jobs that were on a node when it was respawned. Its retired thread
    /// may yet reply to the one it was running, under the epoch and
    /// generation it was given; the script lets any of them reply.
    ghosts: Vec<(u32, JobAssignment)>,
}

impl ScriptedPool {
    /// How many jobs `node`'s current thread holds unacknowledged.
    fn holds(&self, node: u32) -> usize {
        self.sent.iter().filter(|&&(on, _)| on == node).count()
    }
}

impl Pool for ScriptedPool {
    fn send(&mut self, node: u32, job: JobAssignment) {
        self.sent.push((node, job));
    }

    fn respawn(&mut self, node: u32) {
        self.wedged.remove(&node);
        let (lost, kept) = self.sent.drain(..).partition(|&(on, _)| on == node);
        self.sent = kept;
        self.ghosts.extend::<Vec<_>>(lost);
    }

    fn shutdown(self, _: &[usize]) {}
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
            generation: job.generation,
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
        let disk = FaultyDisk::new(DiskFaultPlan::none(SEED));
        let wal = wal_on(&cfg, &disk);
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

        let on_disk = Journal::from_jsonl(std::str::from_utf8(&disk.bytes()).unwrap()).unwrap();
        assert_eq!(on_disk.len() as u64, limit);
        assert_eq!(on_disk.events(), rig.c.journal.events());
        assert_eq!(rig.d.report(&rig.c), report_from_journal(&on_disk));
        let logged = decisions(on_disk.events());
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

/// Placement is the coordinator's: it offers workers in the policy's
/// order and skips one holding its credit of unacknowledged jobs (here 1);
/// a replica parks when every worker is at its credit. A worker's message
/// — a reply, a freed job — returns the credit, which the next turn spends
/// on what is parked; a lapse returns none, but the respawn of a worker
/// silent since the lapsed job's dispatch returns it all.
#[test]
fn credits_return_with_every_message_and_at_a_respawn_but_never_at_a_lapse() {
    /// Takes the unacknowledged job on `node` and answers it at `now`.
    fn answer(rig: &mut Rig, node: u32, now: u64) {
        let i = rig.c.pool.sent.iter().position(|(on, _)| *on == node);
        let (_, job) = rig.c.pool.sent.remove(i.expect("the node holds a job"));
        rig.reply(node, &job, true, now);
    }
    /// Where the jobs the turn at `now` dispatched went, as `(task, node)`.
    fn turn(rig: &mut Rig, now: u64) -> Vec<(u32, u32)> {
        let logged = rig.c.journal.len();
        assert!(rig.turn(now));
        let dispatched = rig.c.journal.events()[logged..].iter();
        let placed = dispatched.filter_map(|e| match e.event {
            RunEvent::JobDispatched { task, node, .. } => Some((task, node)),
            _ => None,
        });
        placed.collect()
    }
    let cfg = RuntimeConfig {
        workers: Some(3),
        inbox_cap: 0,
        deadline: Duration::from_secs(1),
        ..RuntimeConfig::default()
    };
    let mut rig = Rig::new(cfg, 3, None, ScriptedPool::default());
    rig.submit(0);
    assert_eq!(turn(&mut rig, 0), [(0, 0), (0, 1), (0, 2)], "offer order");
    rig.submit(1_000);
    assert_eq!(turn(&mut rig, 1_000), [], "every worker is at its credit");
    assert_eq!(rig.c.pending, [1, 1, 1]);
    answer(&mut rig, 1, 2_000);
    assert_eq!(turn(&mut rig, 2_000), [(1, 1)], "a reply un-parks one");
    // Node 2 is free of job 2 but has no vote: the job stays live, and
    // nothing is logged.
    let logged = rig.c.journal.len();
    let (worker @ 2, JobAssignment { generation, .. }) = rig.c.pool.sent.remove(1) else {
        panic!("job 2 is on node 2")
    };
    rig.c.step(Input::Freed { worker, generation }, at(3_000));
    assert!(rig.c.journal.len() == logged && rig.c.jobs.contains_key(&2));
    assert_eq!(turn(&mut rig, 3_000), [(1, 2)], "a freed job un-parks one");
    // Jobs 0 and 2 lapse. Node 0 has said nothing since job 0 left, so it
    // is respawned, and its credit takes task 1's last replica. Node 2
    // freed its job, so that lapse only lapses: both replacements park.
    assert_eq!(turn(&mut rig, 1_000_000), [(1, 0)], "respawned");
    assert_eq!(rig.c.journal.count(EventKind::WorkerRestarted), 1);
    assert_eq!(rig.c.pending.len(), 2);
    assert_eq!(rig.c.holding[..3], [1, 1, 1]);
    answer(&mut rig, 1, 1_001_000);
    assert_eq!(turn(&mut rig, 1_001_000), [(0, 1)]);
    answer(&mut rig, 2, 1_001_500);
    assert_eq!(turn(&mut rig, 1_001_500), [(0, 2)]);
    for node in [0, 1, 2] {
        answer(&mut rig, node, 1_002_000);
    }
    assert_eq!(turn(&mut rig, 1_002_000), []);
    assert_eq!(rig.delivered(), [1, 0]);
    assert_eq!(rig.c.holding[..3], [0, 0, 0]);
}

/// A worker that says nothing is bounded by its credit and healed by its
/// jobs' deadlines, with no clock of its own: two workers at credit 1, a
/// 1 s deadline, node 0 silent in every incarnation and node 1 answering,
/// 20 s of 10 ms turns. At every turn's end node 0 holds at most one
/// unacknowledged job; every lapse respawns it, the first at its first
/// deadline; its first thread's late reply is dropped and returns no
/// credit; and it is sent at most one job a deadline.
#[test]
fn a_silent_worker_is_respawned_at_its_lapse_and_sent_one_job_a_deadline() {
    const DEADLINE: u64 = 1_000_000;
    let cfg = RuntimeConfig {
        workers: Some(2),
        inbox_cap: 0,
        deadline: Duration::from_micros(DEADLINE),
        ..RuntimeConfig::default()
    };
    let mut rig = Rig::new(cfg, 3, None, ScriptedPool::default());
    for now in (0..=20 * DEADLINE).step_by(10_000) {
        while rig.c.ledger.open().len() < 2 {
            rig.submit(now);
        }
        assert!(rig.turn(now));
        for (node, job) in std::mem::take(&mut rig.c.pool.sent) {
            match node {
                1 => rig.reply(node, &job, true, now),
                _ => rig.c.pool.sent.push((node, job)),
            }
        }
        if now == 3 * DEADLINE / 2 {
            let (node, ghost) = rig.c.pool.ghosts.remove(0);
            rig.reply(node, &ghost, true, now);
            let last = rig.c.journal.events().last().unwrap().event;
            assert_eq!(last.kind(), EventKind::StaleReplyDropped);
        }
        let held = rig.c.pool.holds(0);
        assert!(held <= 1, "node 0 holds {held} jobs at {now}");
        assert_eq!(rig.c.holding[0], held, "node 0's count at {now}");
    }
    let journal = &rig.c.journal;
    let stamps = |kind| journal.of_kind(kind).map(|e| e.at).collect::<Vec<_>>();
    let lapses = stamps(EventKind::JobTimedOut);
    assert_eq!(stamps(EventKind::WorkerRestarted), lapses);
    assert_eq!((lapses[0], lapses.len() >= 19), (at(DEADLINE), true));
    // Every job node 0 is sent lapses, so it is sent one a deadline.
    let apart = |w: &[SimTime]| w[1].since(w[0]) >= SimDuration::from_micros(DEADLINE);
    assert!(lapses.windows(2).all(apart), "{lapses:?}");
}

/// A worker wedged on its first job is respawned when that job lapses:
/// the lapse's records, then the restart and the epoch bump, and its other
/// jobs are re-dispatched under that epoch without records. The old
/// thread's late reply is dropped by epoch and returns no credit, the task
/// tallies exactly its three votes, and the fresh thread serves the next.
#[test]
fn a_wedged_worker_is_respawned_at_its_lapse_and_its_late_reply_is_rejected_by_epoch() {
    use EventKind::{EpochAdvanced, JobRetried, JobTimedOut, WorkerRestarted};
    let cfg = RuntimeConfig {
        workers: Some(1),
        inbox_cap: 1,
        deadline: Duration::from_secs(1),
        ..RuntimeConfig::default()
    };
    let mut rig = Rig::new(cfg, 3, None, ScriptedPool::default());
    rig.submit(0);
    assert!(rig.turn(0));
    let logged = rig.c.journal.len();
    assert!(rig.turn(1_000_000));
    let lapse = &rig.c.journal.events()[logged..];
    let kinds: Vec<_> = lapse.iter().map(|e| e.event.kind()).collect();
    assert_eq!(
        kinds,
        [JobTimedOut, JobRetried, WorkerRestarted, EpochAdvanced]
    );
    let sent = rig.c.pool.sent.iter().map(|(_, job)| (job.job, job.epoch));
    assert_eq!(sent.collect::<Vec<_>>(), [(1, 1), (2, 1)], "re-armed");
    let (_, ghost) = rig.c.pool.ghosts.remove(1);
    rig.reply(0, &ghost, true, 1_100_000);
    let (job, task, epoch) = (1, 0, 0);
    let stale = RunEvent::StaleReplyDropped { job, task, epoch };
    assert_eq!(rig.c.journal.events().last().unwrap().event, stale);
    assert_eq!(rig.c.holding[0], 2, "a ghost returned credit");
    for now in [1_200_000, 1_300_000] {
        rig.answer_all(now);
        assert!(rig.turn(now));
    }
    rig.submit(1_400_000);
    for now in [1_400_000, 1_500_000] {
        assert!(rig.turn(now));
        rig.answer_all(now);
    }
    assert_eq!(rig.delivered(), [0, 1]);
    let (journal, r) = (&rig.c.journal, rig.c.ledger.report());
    let counts = [r.worker_restarts, r.worker_crashes, r.stale_replies];
    assert_eq!((counts, r.timeouts, r.retries), ([1, 0, 1], 1, 1));
    let tallied = |e: &&Stamped| matches!(e.event, RunEvent::VoteTallied { task: 0, .. });
    assert_eq!(journal.events().iter().filter(tallied).count(), 3);
    assert_eq!(&report_from_journal(journal), r);
    smartred_desim::journal::assert::events(journal.events())
        .time_ordered()
        .retry_follows_timeout()
        .waves_well_formed();
}

/// Says when it starts a job, then holds it until told to go.
pub(crate) struct Held(pub(crate) Sender<()>, pub(crate) Arc<Mutex<Receiver<()>>>);

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
    explore_in(seed, Deaths::default()).history
}

/// What a varied run ([`Deaths::varied`]) draws from its seed: the WAL's
/// framing and durability, the placement policy, and whether the
/// schedule is calm — no job crashes, lapses or wedges its worker — so
/// that no death may change a task's decision or job count ([`shape`]).
#[derive(Debug, Clone, Copy)]
struct Variant {
    checksum: bool,
    sync: bool,
    batch: u64,
    assignment: Assignment,
    calm: bool,
}

impl Variant {
    /// What the pinned schedules run on: plain framing, a sync per
    /// record, random placement and no calm.
    const PINNED: Variant = Variant {
        checksum: false,
        sync: true,
        batch: 1,
        assignment: Assignment::Random,
        calm: false,
    };

    fn of(seed: u64) -> Variant {
        let mut rng = task_rng(SEED, 0x7a41_a7ed, seed);
        let (_, sync, batch) = DURABILITY[rng.gen_range(0..DURABILITY.len())];
        Variant {
            checksum: rng.gen_bool(0.5),
            sync,
            batch,
            assignment: Assignment::ALL[rng.gen_range(0..Assignment::ALL.len())],
            // Never under a cartel: its convictions can leave a liar the
            // last worker standing, and with no lapse to strike it, its
            // every verdict is voided for ever.
            calm: rng.gen_range(0..3) == 0 && seed >> 3 & 1 == 0,
        }
    }
}

/// The audit policy of [`Deaths::audited`]: spot and escalated rates equal,
/// so whether a task is audited depends on its id alone, however many
/// lies were caught before a death.
const AUDITED: AuditPolicy = AuditPolicy {
    spot_rate: 0.5,
    escalated_rate: 0.5,
    probation_audits: 0,
    strike_weight: 3,
};

/// How the lives of an explored schedule end, and what they run on. A
/// run that can die, checkpoints or is `varied` logs into a WAL on a
/// [`FaultyDisk`]; a checkpoint's snapshot goes beside a WAL path in the
/// temp directory. The first life's disk runs the `disk` plan; the life
/// dies once it has logged `crash` records, at the first fault of the
/// plan that fails a call, or after the turn in which a bit flip rotted
/// the file. A second life dies once it has logged `again` records of its
/// own. The last one drains.
#[derive(Debug, Clone, Copy, Default)]
struct Deaths {
    /// Draws a [`Variant`] from the seed, not [`Variant::PINNED`].
    varied: bool,
    /// Audits on, at [`AUDITED`]'s policy, with no cartel and one task
    /// open at a time, on a calm schedule: what a task's [`Shape`] says of
    /// its audits is then a function of the seed alone.
    audited: bool,
    checkpoint_every: Option<u64>,
    crash: Option<u64>,
    disk: DiskFaultPlan,
    again: Option<u64>,
}

/// What a [`revive`](Explorer::revive) resumed from: the whole history,
/// a sealed segment past its snapshot, or a checkpoint it finished,
/// `earlier` being how many checkpoints the history held before that one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Resumed {
    Whole,
    Sealed,
    Finished { earlier: usize },
}

/// One revival: where the next life's records begin, the records the
/// cut prefix owed (a settlement for every twin left racing, a
/// poisoning, and a quarantine or blacklisting the last-worker guard
/// lets through), what the rebuild resumed from, and whether the WAL
/// ended in a torn record the revival cut.
#[derive(Debug)]
struct Revival {
    start: usize,
    owed: Vec<RunEvent>,
    resumed: Resumed,
    torn: bool,
}

/// What [`explore_in`] leaves: the whole history across lives (the last
/// one's journal begins at its segment), each revival, whether a bit
/// flip ended the run in a refused WAL (`Some`: whether it rotted the
/// newline that ends the file), what the last life asked of its disk,
/// and how many turns dispatched a replica an earlier turn had parked.
#[derive(Debug)]
struct Explored {
    history: Journal,
    revivals: Vec<Revival>,
    refused: Option<bool>,
    counts: DiskCounts,
    unparked: usize,
}

/// Where a failing run leaves its WAL, beside the snapshot it may have
/// taken: in the temp directory, named in the failure message.
fn failed_wal(seed: u64) -> PathBuf {
    let name = format!("smartred-explore-{}-{seed}.jsonl", std::process::id());
    std::env::temp_dir().join(name)
}

/// Writes the bytes on the disk to [`failed_wal`] if the run panics.
struct Forensics(u64, FaultyDisk);

impl Drop for Forensics {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = std::fs::write(failed_wal(self.0), self.1.bytes());
        }
    }
}

/// A run in progress: the live coordinator, the disk under its WAL, the
/// history so far and what became of each decision in it.
struct Explorer {
    rig: Rig,
    cfg: RuntimeConfig,
    /// Whether the schedule is calm ([`Variant::calm`]).
    calm: bool,
    disk: FaultyDisk,
    history: Journal,
    /// The tasks whose verdicts were released, in release order.
    delivered: Vec<u32>,
    /// The tasks whose decisions a failed commit made durable: never
    /// released, and never again, since recovery finds them decided.
    lost: Vec<u32>,
    /// How many of the history's decisions the deaths so far checked.
    accounted: usize,
    /// `next_seq` behind the last commit that returned.
    committed: u64,
    /// Whether a fault of a life's disk plan has fired.
    faulted: bool,
    again: Option<u64>,
    revivals: Vec<Revival>,
    refused: Option<bool>,
    /// The tasks with a replica parked at the last turn's end, and where
    /// that turn's records ended.
    parked: (Vec<u32>, usize),
    unparked: usize,
}

/// [`explore`] under `deaths`, held to its contracts across every life.
fn explore_in(seed: u64, deaths: Deaths) -> Explored {
    const TASKS: u32 = 10;
    let mut rng = task_rng(SEED, 0x5c4e_d01e, seed);
    let [quarantine, hedge, cartel] = [0, 2, 3].map(|bit| seed >> bit & 1 == 1);
    let v = match deaths.varied {
        true => Variant::of(seed),
        false => Variant::PINNED,
    };
    let (cartel, calm) = (cartel && !deaths.audited, v.calm || deaths.audited);
    let cfg = RuntimeConfig {
        workers: Some(4),
        inbox_cap: 1,
        max_active: if deaths.audited { 1 } else { 3 },
        deadline: Duration::from_secs(if calm { 600 } else { 2 }),
        job_cap: Some(30),
        poison: Some(PoisonPolicy { crash_limit: 2 }),
        discipline: (quarantine || cartel).then_some(QuarantinePolicy {
            strike_limit: 2,
            quarantine_units: 1.5,
            blacklist_after: 2,
        }),
        audit: match (cartel, deaths.audited) {
            (true, _) => AuditPolicy::spot(1.0),
            (_, true) => AUDITED,
            _ => AuditPolicy::disabled(),
        },
        audit_seed: seed,
        hedge: hedge.then_some(HedgePolicy {
            quantile: 0.5,
            min_samples: 4,
            multiplier: 1.5,
            max_per_task: 2,
        }),
        wal: deaths.checkpoint_every.map(|_| failed_wal(seed)),
        wal_sync: v.sync,
        wal_batch: v.batch,
        wal_checksum: v.checksum,
        assignment: v.assignment,
        checkpoint_every: deaths.checkpoint_every,
        ..RuntimeConfig::default()
    };
    let liars = FaultProfile {
        wrong_rate: 0.3,
        ..FaultProfile::default()
    };
    // Every schedule draws its lies from its seed, or every one would
    // tally the same ten tasks' votes.
    let draws = SEED ^ seed;
    let vote = |node: u32, job: &JobAssignment| {
        let said = match cartel {
            true => CartelWorker::new(node, draws, Cartel::new(2, 0.4), liars).execute(job),
            false => FaultyWorker::new(draws, liars).execute(job),
        };
        said.expect("these workers always answer").0
    };
    if let Some(path) = &cfg.wal {
        crate::checkpoint::discard(path).unwrap();
    }
    let disk = FaultyDisk::new(deaths.disk);
    let _forensics = Forensics(seed, disk.clone());
    let logged = deaths.varied || deaths.crash.is_some() || cfg.wal.is_some();
    let wal = logged.then(|| wal_on(&cfg, &disk));
    let hooked = RuntimeConfig {
        crash_after_events: deaths.crash,
        ..cfg.clone()
    };
    let mut x = Explorer {
        rig: Rig::new(hooked, 3, wal, ScriptedPool::default()),
        cfg,
        calm,
        disk,
        history: Journal::new(),
        delivered: Vec::new(),
        lost: Vec::new(),
        accounted: 0,
        committed: 0,
        faulted: false,
        again: deaths.again,
        revivals: Vec::new(),
        refused: None,
        parked: (Vec::new(), 0),
        unparked: 0,
    };
    x.rig.c.resume(at(0));
    let mut now = 0;
    for step in 0.. {
        assert!(step < 20_000, "the run does not end");
        now += rng.gen_range(0..120_000);
        let rig = &mut x.rig;
        // A wedged worker answers nothing until it is respawned.
        let pool = &mut rig.c.pool;
        let able = |&(node, _): &(u32, JobAssignment)| !pool.wedged.contains(&node);
        let able: Vec<usize> = (0..pool.sent.len())
            .filter(|&i| able(&pool.sent[i]))
            .collect();
        let pick = able.get(rng.gen_range(0..able.len().max(1))).copied();
        // A calm schedule answers what a stormy one crashes, loses or
        // wedges.
        let roll = match rng.gen_range(0..10) {
            6..=8 if calm => 5,
            roll => roll,
        };
        match (roll, pick) {
            (0..=1, _) if rig.submitted < TASKS => rig.submit(now),
            (0..=5, Some(i)) => {
                let (node, job) = pool.sent.remove(i);
                rig.reply(node, &job, vote(node, &job), now);
            }
            (6, Some(i)) => {
                let (worker, lost) = pool.sent.remove(i);
                let (job, task, epoch) = (lost.job, lost.task, lost.epoch);
                let generation = lost.generation;
                let crash = Input::Crash {
                    worker,
                    job,
                    task,
                    epoch,
                    generation,
                };
                rig.c.step(crash, at(now));
            }
            // Lost: the worker is free of it but has no vote; the deadline
            // decides it.
            (7, Some(i)) => {
                let (worker, JobAssignment { generation, .. }) = pool.sent.remove(i);
                rig.c.step(Input::Freed { worker, generation }, at(now));
            }
            (8, Some(i)) => {
                pool.wedged.insert(pool.sent[i].0);
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
        let alive = x.rig.turn(now);
        if !x.end_turn(alive, now) {
            break;
        }
        if x.delivered.len() + x.lost.len() == TASKS as usize {
            break;
        }
    }
    while x.refused.is_none() {
        x.rig.c.step(Input::Drain, at(now));
        assert!(!x.rig.turn(now), "drained and idle: there is no next turn");
        // The drain may reach a life's hook or fault: the next life drains.
        if !x.end_turn(false, now) || !x.rig.d.dead && x.disk.rot().is_none() {
            break;
        }
    }
    x.faulted |= x.disk.fired();
    let named = deaths.disk != DiskFaultPlan::none(deaths.disk.seed);
    assert_eq!(x.faulted, named, "the injected fault fired");
    x.finish(TASKS)
}

impl Explorer {
    /// Takes a turn that returned `alive` at `now`: the verdicts it
    /// released, and a death — the driver's, or the rot a bit flip left
    /// in the file — which [`revive`](Self::revive)s the run. Returns
    /// `false` once a refused WAL ended it.
    fn end_turn(&mut self, alive: bool, now: u64) -> bool {
        self.holds_its_credits();
        if alive {
            self.committed = self.rig.c.journal.next_seq();
        }
        self.delivered.extend(self.rig.delivered());
        let died = self.rig.d.dead || self.disk.rot().is_some();
        !died || self.revive(now)
    }

    /// Checks placement at a turn's end: each worker's count is the jobs
    /// its current thread was sent and has not acknowledged, and within its
    /// credit; a replica is parked only when every worker in good standing
    /// is at its credit. Counts the turns that dispatched a task parked at
    /// the last one's end.
    fn holds_its_credits(&mut self) {
        let c = &self.rig.c;
        let credit = c.credit();
        for node in c.nodes.clone() {
            let held = c.pool.holds(node);
            assert_eq!(c.holding[node as usize], held, "node {node}'s count");
            assert!(held <= credit, "node {node} holds {held} jobs");
        }
        if !c.pending.is_empty() {
            let mut standing = c.nodes.clone().filter(|&n| c.ledger.dispatchable(n));
            assert!(
                standing.all(|n| c.holding[n as usize] == credit),
                "a replica parked beside a worker with credit left"
            );
        }
        let (parked, since) = &self.parked;
        let records = c.journal.events().get(*since..).unwrap_or_default();
        let unparked = records.iter().any(|e| match e.event {
            RunEvent::JobDispatched { task, .. } => parked.contains(&task),
            _ => false,
        });
        self.unparked += usize::from(unparked);
        self.parked = (c.pending.iter().copied().collect(), c.journal.len());
    }

    /// What a death leaves: the dead life's journal folded into the
    /// history, and the WAL read back. A WAL refused for rot ends the
    /// run; any other is cut back to its durable records — the history
    /// with it — and rebuilt, with the snapshot beside it, by the pure
    /// half of [`Runtime::recover`] — the [`pair`] rule and [`rebuild`]
    /// — and the writes `pair` asks for, then resumed at `now` on a fresh
    /// pool (the dead pool's jobs are lost) with its WAL on the same disk,
    /// restarted without faults and its torn tail cut as
    /// [`WalWriter::resume`] cuts it; the first revival's life dies after
    /// [`Deaths::again`] records, if set. Checks that the segment is the
    /// history's tail, that the dead life's report is its journal's fold,
    /// that only an unterminated WAL reads as torn, and a hook's never,
    /// that the lives so far released exactly the history's decisions
    /// ([`account`](Self::account)), and that the rebuilt report is the
    /// history's fold. Returns whether the run goes on.
    fn revive(&mut self, now: u64) -> bool {
        let dead = &self.rig.c.journal;
        assert_eq!(self.rig.d.report(&self.rig.c), report_from_journal(dead));
        fold_life(&mut self.history, dead);
        let faulted = self.disk.fired();
        self.faulted |= faulted;
        let bytes = self.disk.bytes();
        let read = Journal::from_jsonl_prefix(&String::from_utf8_lossy(&bytes));
        let prefix = match (read, self.disk.rot()) {
            (Ok(prefix), None) => prefix,
            (Err(refusal), Some(rot)) => {
                self.refused = Some(self.refusal_names_the_rot(&refusal, rot));
                self.account(faulted);
                return false;
            }
            (Err(refusal), None) => panic!("an intact WAL is refused: {refusal}"),
            (Ok(_), Some((at, _))) => panic!("the rot at byte {at} was read back as records"),
        };
        let unterminated = bytes.last().is_some_and(|&b| b != b'\n');
        assert_eq!(prefix.torn, unterminated, "torn iff unterminated");
        assert!(
            faulted || !prefix.torn,
            "the hook dies at a record boundary"
        );
        let segment = prefix.journal;
        let first = segment.events().first().map_or(0, |e| e.seq as usize);
        let kept = &self.history.events()[first..first + segment.len()];
        assert_eq!(segment.events(), kept, "the segment is the history's");
        let ckpt = self.cfg.wal.as_deref().map(checkpoint_path);
        let snapshot = ckpt
            .filter(|p| p.exists())
            .map(|p| CheckpointState::load(&p));
        let paired = pair(snapshot, segment).unwrap_or_else(|refused| panic!("{refused}"));
        let (base, journal, interrupted) = paired;
        // What the failed commit did not make durable never happened.
        self.history.truncate(journal.next_seq() as usize);
        self.account(faulted);
        let resumed = match (&base, interrupted) {
            (None, _) => Resumed::Whole,
            (Some(_), false) => Resumed::Sealed,
            (Some(snap), true) => {
                // The checkpoint heals from the snapshot alone.
                assert_eq!(journal.events()[0].seq, snap.events);
                let seals = self.history.of_kind(EventKind::CheckpointTaken);
                let earlier = seals.filter(|e| e.seq < snap.events).count();
                Resumed::Finished { earlier }
            }
        };
        let cfg = &self.cfg;
        let roster: Vec<(u32, Payload)> = (0..self.rig.submitted)
            .map(|task| (task, payload()))
            .collect();
        let ledger = Ledger::new(cfg, Arc::new(ir(3)));
        let rebuilt = rebuild(
            ledger,
            base.as_ref(),
            &journal,
            &roster,
            &self.rig.verdict_tx,
        );
        let (ledger, backlog, recovery, next_task) = rebuilt.expect("the prefix replays");
        assert_eq!(next_task, self.rig.submitted);
        assert_eq!(
            recovery.report,
            report_from_journal(&self.history),
            "snapshot + suffix"
        );
        // Past the snapshot's seal, if any: nothing, when a checkpoint heals.
        let past_seal = journal.len() - usize::from(base.is_some());
        assert_eq!(recovery.events_replayed, past_seal);
        assert_eq!(
            recovery.checkpoint_events,
            base.as_ref().map_or(0, |s| s.events)
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

        self.disk.restart(DiskFaultPlan::default());
        self.disk
            .set_len(prefix.valid_bytes as u64)
            .expect("a restarted disk cuts its torn tail");
        let mut wal = wal_on(cfg, &self.disk);
        if interrupted {
            finish(&mut wal, &journal).expect("the disk takes the seal");
        }
        let start = self.history.len();
        let hooked = RuntimeConfig {
            crash_after_events: self.again.take(),
            ..cfg.clone()
        };
        self.committed = journal.next_seq();
        self.rig.d = Driver::new(&hooked, &journal, Some(wal));
        let pool = ScriptedPool::default();
        self.rig.c = Coordinator::new(cfg.clone(), ledger, journal, pool, Arc::default(), backlog);
        self.rig.c.resume(at(now));
        self.revivals.push(Revival {
            start,
            owed,
            resumed,
            torn: prefix.torn,
        });
        self.parked = (Vec::new(), self.rig.c.journal.len());
        true
    }

    /// Checks that the lives so far released exactly the history's
    /// decisions not yet accounted for, in log order — but for those the
    /// commit a disk fault failed (`faulted`) made durable, which are lost.
    fn account(&mut self, faulted: bool) {
        let events = self.history.events();
        let logged = decisions(events);
        let fresh = &logged[self.accounted..];
        let released = &self.delivered[self.accounted - self.lost.len()..];
        assert!(
            fresh.starts_with(released),
            "released {released:?}, not the log's decisions {fresh:?}"
        );
        let unreleased = &fresh[released.len()..];
        let failed = match faulted {
            true => decisions(&events[self.committed as usize..]),
            false => Vec::new(),
        };
        assert!(
            failed.ends_with(unreleased),
            "durable decisions {unreleased:?} were never released"
        );
        self.lost.extend_from_slice(unreleased);
        self.accounted = logged.len();
    }

    /// Checks that `refusal` names the record the flip of `mask` at byte
    /// `at` damaged: its line and offset, and its seq unless the flip hit
    /// the seq itself. Returns whether the flip rotted the newline that
    /// ends the file.
    fn refusal_names_the_rot(&self, refusal: &JournalParseError, (at, mask): (usize, u8)) -> bool {
        let mut clean = self.disk.bytes();
        clean[at] ^= mask;
        let start = clean[..at]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        let line = clean[..start].iter().filter(|&&b| b == b'\n').count() + 1;
        let text = std::str::from_utf8(&clean).unwrap();
        let segment = Journal::from_jsonl(text).expect("the rot is all that is wrong");
        let record = segment.events()[line - 1];
        assert_eq!((refusal.line, refusal.offset), (line, start), "{refusal}");
        let key = start + text[start..].find("\"seq\":").unwrap();
        let seq = key..key + "\"seq\":".len() + record.seq.to_string().len();
        if !seq.contains(&at) {
            assert_eq!(refusal.seq, Some(record.seq), "{refusal}");
        }
        at + 1 == clean.len()
    }

    /// The contracts over the whole history: dense monotone `seq`, the
    /// report equal to the reference fold, and what each revival owed
    /// logged before its life dispatched. Of a run that ended: one
    /// decision a task, one verdict a task but for the decisions a failed
    /// commit lost, `launched = won + wasted` and every prefix replayable.
    /// Of a calm one, no job crashed, lapsed or was respawned. And the WAL
    /// on the disk, rot undone, is the encoding of the history's last
    /// segment in the run's framing.
    fn finish(mut self, tasks: u32) -> Explored {
        if self.refused.is_none() {
            fold_life(&mut self.history, &self.rig.c.journal);
        }
        let (history, cfg) = (&self.history, &self.cfg);
        let report = self.rig.c.ledger.report();
        for (seq, pair) in history.events().windows(2).enumerate() {
            assert_eq!((pair[0].seq, pair[1].seq), (seq as u64, seq as u64 + 1));
            assert!(pair[0].at <= pair[1].at, "time runs backwards at seq {seq}");
        }
        assert_eq!(&report_from_journal(history), report);
        let mut decided = decisions(history.events());
        decided.sort_unstable();
        let mut verdicts = [&self.delivered[..], &self.lost[..]].concat();
        verdicts.sort_unstable();
        assert_eq!(decided, verdicts, "a verdict for every decision not lost");
        if self.refused.is_none() {
            let roster: Vec<u32> = (0..tasks).collect();
            assert_eq!(decided, roster, "one decision a task");
            assert_eq!(
                report.hedges_launched,
                report.hedges_won + report.hedges_wasted
            );
            crate::ledger::tests::every_prefix_replays(cfg, 3, history);
        } else {
            decided.dedup();
            assert_eq!(decided.len(), verdicts.len(), "one decision a task");
        }
        if self.calm {
            for kind in [
                EventKind::WorkerCrashed,
                EventKind::JobTimedOut,
                EventKind::EpochAdvanced,
            ] {
                assert_eq!(history.count(kind), 0, "a calm schedule logged {kind:?}");
            }
        }
        for revival in &self.revivals {
            let resumed = &history.events()[revival.start..];
            let dispatched = |e: &Stamped| e.event.kind() == EventKind::JobDispatched;
            let first = resumed.iter().position(dispatched).unwrap_or(resumed.len());
            for event in &revival.owed {
                let logged = resumed[..first].iter().any(|e| e.event == *event);
                assert!(logged, "{event:?} owed, not logged before a dispatch");
            }
        }
        let mut wal = self.disk.bytes();
        if let (Some(_), Some((at, mask))) = (self.refused, self.disk.rot()) {
            wal[at] ^= mask;
        }
        let segment = Journal::from_jsonl(std::str::from_utf8(&wal).unwrap()).unwrap();
        let first = segment
            .events()
            .first()
            .map_or(history.len(), |e| e.seq as usize);
        let seals = history.of_kind(EventKind::CheckpointTaken);
        let sealed = seals.last().map_or(0, |seal| seal.seq as usize);
        let encode = match cfg.wal_checksum {
            true => Stamped::to_jsonl_line_checksummed,
            false => Stamped::to_jsonl_line,
        };
        let tail: String = history.events()[first..]
            .iter()
            .map(|e| encode(e) + "\n")
            .collect();
        if self.rig.d.wal.is_some() {
            assert_eq!(first, sealed, "the segment begins at the last seal");
            assert_eq!(
                String::from_utf8_lossy(&wal),
                tail,
                "the WAL holds the history's last segment"
            );
        }
        if let Some(path) = &cfg.wal {
            crate::checkpoint::discard(path).unwrap();
        }
        Explored {
            counts: self.disk.counts(),
            unparked: self.unparked,
            history: self.history,
            revivals: self.revivals,
            refused: self.refused,
        }
    }
}

/// The tasks `events` decide, in log order.
fn decisions(events: &[Stamped]) -> Vec<u32> {
    events
        .iter()
        .filter_map(|e| decided_task(e.event))
        .collect()
}

/// The seq of the last decision in `journal`.
fn last_decision(journal: &Journal) -> u64 {
    let mut decisions = journal.events().iter().map(|e| decided_task(e.event));
    decisions.rposition(|task| task.is_some()).expect("decided") as u64
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

/// What a death must not change of a task on a calm schedule, whose
/// votes are functions of `(seed, task, replica)` alone: its decision
/// record but its stamp and seq, its job count, whether an audit touched
/// or convicted it, and how often its verdict was voided. (Not how many
/// audit records it has: a death inside an audit group re-runs the group.)
#[derive(Debug, Default, PartialEq)]
struct Shape {
    decision: Option<RunEvent>,
    jobs: usize,
    audited: bool,
    convicted: bool,
    voids: u32,
}

/// Each task's [`Shape`] in `journal`.
fn shape(journal: &Journal) -> BTreeMap<u32, Shape> {
    let mut shape: BTreeMap<u32, Shape> = BTreeMap::new();
    for e in journal.events() {
        match (e.event, decided_task(e.event)) {
            (RunEvent::JobDispatched { task, .. }, _) => shape.entry(task).or_default().jobs += 1,
            (RunEvent::AuditScheduled { task }, _) => shape.entry(task).or_default().audited = true,
            (RunEvent::AuditFailed { task, .. }, _) => {
                shape.entry(task).or_default().convicted = true
            }
            (RunEvent::VerdictVoided { task }, _) => shape.entry(task).or_default().voids += 1,
            (decision, Some(task)) => shape.entry(task).or_default().decision = Some(decision),
            _ => {}
        }
    }
    shape
}

/// [`explore_in`], a failure naming the seed and the deaths that replay
/// it and where its WAL was left.
fn replaying(seed: u64, deaths: Deaths) -> Explored {
    std::panic::catch_unwind(|| explore_in(seed, deaths)).unwrap_or_else(|cause| {
        let wal = failed_wal(seed);
        eprintln!(
            "seed {seed} breaks a contract: `explore_in({seed}, {deaths:?})` replays it; \
             its WAL is {}",
            wal.display()
        );
        std::panic::resume_unwind(cause)
    })
}

/// Holds a death of `seed`'s varied schedule to that schedule's `golden`
/// [`shape`], when it is calm and ran to its end; says whether it was
/// held.
fn holds_the_golden_shape(seed: u64, golden: &Journal, run: &Explored) -> bool {
    if !Variant::of(seed).calm || run.refused.is_some() {
        return false;
    }
    assert_eq!(
        shape(&run.history),
        shape(golden),
        "seed {seed}: a death changed what a calm schedule decides"
    );
    true
}

/// The contracts, explored rather than sampled by hand: exactly one
/// decision and one verdict per task, `launched = won + wasted`, dense
/// monotone `seq`, the report equal to the reference fold, every prefix
/// of the journal replayable, and at every turn's end placement within
/// its credits ([`Explorer::holds_its_credits`]) — on every seed; and
/// between them the seeds reach every defence and dispatch a replica they
/// had parked. A failure names the seed that replays it.
///
/// Every journal is also pinned, through one fold of the seeds' digests:
/// a schedule is a function of its seed alone, so a journal that differs
/// between processes (a record logged in hash-map order, say) or changes
/// under a refactor fails here on the first run.
#[test]
fn seeded_schedules_keep_every_contract() {
    const JOURNALS: u64 = 0x4428_6a34_ac61_b739;
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
    let (mut reached, mut unparked) = ([0; REACHED.len()], 0);
    let mut journals = 0u64;
    for seed in 0..256 {
        let run = std::panic::catch_unwind(|| explore_in(seed, Deaths::default()));
        let run = run.unwrap_or_else(|cause| {
            eprintln!("seed {seed} breaks a contract: `explore({seed})` replays it");
            std::panic::resume_unwind(cause)
        });
        let journal = run.history;
        unparked += run.unparked;
        for (kind, count) in REACHED.iter().zip(&mut reached) {
            *count += journal.count(*kind);
        }
        journals = journals.wrapping_mul(0x100_0000_01b3) ^ journal.digest();
    }
    for (kind, count) in REACHED.iter().zip(reached) {
        assert!(count > 0, "no schedule reached {}", kind.name());
    }
    assert!(unparked > 0, "no parked replica was dispatched");
    assert_eq!(
        journals, JOURNALS,
        "the seeds' journals changed: {journals:#018x}"
    );
}

/// The contracts across a death, explored: every seeded schedule, on
/// the WAL framing, durability and placement its seed draws, is killed
/// at a seeded record count up to its last decision, rebuilt from its
/// WAL and carried on ([`explore_in`]) — one decision and one verdict per
/// task across both lives, the first life's verdicts exactly its durable
/// decisions, what the cut prefix owed logged before the second life
/// dispatches, `launched = won + wasted`, the report equal to the fold
/// over the whole WAL, and the WAL the encoding of the history. A calm
/// schedule decides what it decides uncrashed, with as many jobs a task.
/// Between them the seeds run both framings and every placement. A
/// failure names the seed and the crash point that replay it.
#[test]
fn seeded_crashes_keep_every_contract() {
    let (mut placements, mut framings, mut golden) = (HashSet::new(), HashSet::new(), 0);
    for seed in 0..256 {
        let varied = Deaths {
            varied: true,
            ..Deaths::default()
        };
        let whole = replaying(seed, varied).history;
        let last = last_decision(&whole);
        let crash = task_rng(SEED, 0xdead, seed).gen_range(1..=last + 1);
        let deaths = Deaths {
            crash: Some(crash),
            ..varied
        };
        let run = replaying(seed, deaths);
        golden += usize::from(holds_the_golden_shape(seed, &whole, &run));
        let v = Variant::of(seed);
        placements.insert(v.assignment.name());
        framings.insert(v.checksum);
    }
    assert_eq!(placements.len(), Assignment::ALL.len(), "{placements:?}");
    assert_eq!(framings.len(), 2, "one WAL framing only");
    assert!(golden > 0, "no calm schedule was held to its shape");
}

/// Audit outcomes across deaths, explored: every seeded schedule with
/// audits on ([`Deaths::audited`]) is killed at a seeded record and again
/// in its second life, and each task's [`Shape`] — its decision and vote,
/// its job count, whether it was audited or convicted and how often its
/// verdict was voided — is the uncrashed run's; with one task open, no
/// conviction re-tallies another. Between them the seeds audit, convict
/// and void. A failure names the seed and the deaths that replay it.
#[test]
fn seeded_audits_keep_their_shape_across_deaths() {
    let mut reached = [0; 3];
    for seed in 0..256 {
        let audited = Deaths {
            audited: true,
            ..Deaths::default()
        };
        let whole = replaying(seed, audited).history;
        let last = last_decision(&whole);
        let mut rng = task_rng(SEED, 0x0a0d_17ed, seed);
        let deaths = Deaths {
            crash: Some(rng.gen_range(1..=last + 1)),
            again: Some(rng.gen_range(1..=last / 2 + 1)),
            ..audited
        };
        let run = replaying(seed, deaths);
        assert!(
            !run.revivals.is_empty(),
            "seed {seed}: the hook never fired"
        );
        assert_eq!(
            shape(&run.history),
            shape(&whole),
            "seed {seed}: a death changed an audit's outcome"
        );
        assert_eq!(whole.count(EventKind::TaskRetallied), 0);
        let kinds = [
            EventKind::AuditScheduled,
            EventKind::AuditFailed,
            EventKind::VerdictVoided,
        ];
        for (kind, count) in kinds.iter().zip(&mut reached) {
            *count += whole.count(*kind);
        }
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "audited, convicted, voided: {reached:?}"
    );
}

/// The ways a first life dies in [`seeded_checkpoints_keep_every_contract`].
const DEATHS: [&str; 7] = [
    "hook",
    "failed sync",
    "short write",
    "power loss",
    "bit flip",
    "failed truncation",
    "failed seal write",
];

/// The contracts across deaths at the disk and in and around
/// checkpoints, explored: every seeded schedule, varied as in
/// [`seeded_crashes_keep_every_contract`], checkpoints every 8 records;
/// its first life dies at a seeded record, a failed sync, a short write,
/// a power loss mid-write, a bit flip, a failed truncation after a
/// checkpoint's snapshot is stored, or that checkpoint's failed seal
/// write — each at a seeded call of a count the same schedule makes
/// unharmed — and its second life dies again at a seeded record. Each
/// revival pairs segment and snapshot by [`pair`], the rule
/// [`Runtime::recover`] runs, so a refused window fails here, and cuts a
/// torn tail as [`WalWriter::resume`] does. Across all three lives: one
/// decision a task, one verdict a task but for the durable decisions of a
/// commit the disk failed, every rebuilt report the fold of the history
/// so far, and the last segment on the disk the history's tail
/// ([`explore_in`]); a calm schedule decides what it decides unharmed.
/// A flipped bit in a checksummed WAL ends the run:
/// the WAL is refused naming the damaged record's line, offset and seq,
/// and every verdict released was a durable decision. Between them the
/// seeds die every way, cut a torn tail a power loss left, refuse a
/// rotted final newline, hold calm schedules to their shape across two
/// deaths and across a torn tail, resume from a sealed segment, and
/// finish the first checkpoint and a later one. A failure names the seed
/// and the deaths that replay it.
#[test]
fn seeded_checkpoints_keep_every_contract() {
    const EVERY: Option<u64> = Some(8);
    let (mut resumed, mut thrice) = (Vec::new(), 0);
    let (mut died, mut torn_by_power_loss, mut rotted_last_newline) = ([0; DEATHS.len()], 0, 0);
    // Calm schedules held to their shape: at all, across two deaths, and
    // across a torn tail.
    let mut golden = [0; 3];
    for seed in 0..256 {
        let checkpointing = Deaths {
            varied: true,
            checkpoint_every: EVERY,
            ..Deaths::default()
        };
        let whole = replaying(seed, checkpointing);
        let last = last_decision(&whole.history);
        let DiskCounts {
            writes,
            syncs,
            truncations,
        } = whole.counts;
        let mut rng = task_rng(SEED, 0xc4ec_4b07, seed);
        let mut disk = DiskFaultPlan::none(rng.gen());
        let kind = match rng.gen_range(0..DEATHS.len()) {
            1 if syncs > 0 => {
                disk.fail_fsync_at = Some(rng.gen_range(1..=syncs));
                1
            }
            2 => {
                disk.short_write_at = Some(rng.gen_range(1..=writes));
                2
            }
            3 => {
                disk.crash_after_writes = Some(rng.gen_range(0..writes));
                3
            }
            // A flip is refused only where a checksum can tell.
            4 if Variant::of(seed).checksum => {
                disk.flip_bit_after = Some(rng.gen_range(1..=writes));
                4
            }
            5 if truncations > 0 => {
                disk.fail_truncation_at = Some(rng.gen_range(1..=truncations));
                5
            }
            6 if truncations > 0 => {
                disk.fail_write_after_truncation = Some(rng.gen_range(1..=truncations));
                6
            }
            _ => 0,
        };
        let deaths = Deaths {
            crash: (kind == 0).then(|| rng.gen_range(1..=last + 1)),
            disk,
            again: Some(rng.gen_range(1..=last / 2 + 1)),
            ..checkpointing
        };
        let run = replaying(seed, deaths);
        let first = run.revivals.first();
        died[kind] += usize::from(first.is_some() || run.refused.is_some());
        torn_by_power_loss += usize::from(kind == 3 && first.is_some_and(|r| r.torn));
        rotted_last_newline += usize::from(run.refused == Some(true));
        thrice += usize::from(run.revivals.len() > 1);
        if holds_the_golden_shape(seed, &whole.history, &run) {
            golden[0] += 1;
            golden[1] += usize::from(run.revivals.len() > 1);
            golden[2] += usize::from(run.revivals.iter().any(|r| r.torn));
        }
        resumed.extend(run.revivals.iter().map(|r| r.resumed));
    }
    for (death, count) in DEATHS.iter().zip(died) {
        assert!(count > 0, "no first life died of a {death}");
    }
    assert!(torn_by_power_loss > 0, "no power loss left a torn tail");
    assert!(rotted_last_newline > 0, "no flip rotted the last newline");
    assert!(thrice > 0, "no second life died");
    assert!(golden[0] > 0, "no calm schedule was held to its shape");
    assert!(golden[1] > 0, "no calm schedule was held across two deaths");
    assert!(
        golden[2] > 0,
        "no calm schedule was held across a torn tail"
    );
    let finished_late = |r: &Resumed| matches!(r, Resumed::Finished { earlier } if *earlier > 0);
    assert!(
        resumed.contains(&Resumed::Sealed),
        "no sealed-segment recovery"
    );
    assert!(
        resumed.iter().any(finished_late),
        "no later checkpoint finished"
    );
    assert!(
        resumed.contains(&Resumed::Finished { earlier: 0 }),
        "no first checkpoint finished"
    );
}

/// Exhaustive where the seeded tests sample: eight fixed schedules, each
/// killed at every record count it logs and resumed from its WAL, under
/// [`explore_in`]'s contracts. Between them the cut prefixes owe a
/// poisoning, a quarantine and a twin's settlement, and each revival
/// logs what it owes before its life dispatches. A failure names the
/// schedule and the crash point that replay it.
#[test]
fn fixed_schedules_die_at_every_record_they_log() {
    const SCHEDULES: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    let owes = [
        EventKind::TaskPoisoned,
        EventKind::NodeQuarantined,
        EventKind::HedgeWasted,
    ];
    let mut owed = [0; 3];
    for seed in SCHEDULES {
        let records = explore(seed).len() as u64;
        for crash in 1..=records {
            let deaths = Deaths {
                crash: Some(crash),
                ..Deaths::default()
            };
            let run = replaying(seed, deaths);
            let kinds = run.revivals.iter().flat_map(|r| &r.owed).map(|e| e.kind());
            for kind in kinds {
                if let Some(i) = owes.iter().position(|&k| k == kind) {
                    owed[i] += 1;
                }
            }
        }
    }
    for (kind, count) in owes.iter().zip(owed) {
        assert!(count > 0, "no cut prefix owed a {}", kind.name());
    }
}
