//! The worker pool: OS threads with per-worker inboxes and a pluggable,
//! deliberately unreliable [`Worker`] implementation.
//!
//! Workers are the live analogue of the DCA node pool: each one actually
//! executes the payload, then may lie about the result, hang, or crash,
//! with the same failure semantics as `dca`'s node model (`wrong_rate`,
//! `unresponsive_rate`). Misbehavior is drawn from the counter-based RNG
//! streams of [`smartred_core::parallel::task_rng`] keyed by
//! `(seed, task, replica)` — a pure function of the replica's coordinates,
//! never of which worker ran it or when — so the *votes* of a run are
//! deterministic given a seed even though its timings are not.
//!
//! A worker serves the oldest task it holds first. Once a job has taken
//! real time, the next start takes what waits in the inbox into a private
//! heap keyed `(task, job)`, so an old task's next wave is not queued behind
//! the first waves of tasks admitted after it. Only the order changes: votes
//! are drawn per replica, wherever and whenever it runs.
//!
//! The pool is *supervised*: a panic inside [`Worker::execute`] is caught
//! on the worker thread, reported to the coordinator as `Input::Crash`,
//! and the worker value is rebuilt in place from the factory, so one
//! poisoned payload never takes a pool slot down. Every job a worker takes
//! off its inbox ends in exactly one message — a reply, a crash report, or
//! `Input::Freed` when `execute` reports nothing — so a worker that sends
//! none is inside `execute`. The coordinator needs no heartbeat to see it:
//! when a job's deadline finds its worker silent since the job was sent,
//! it replaces the thread wholesale with `Pool::respawn`; the old thread
//! is detached and retired — it ends once its current `execute` returns,
//! running nothing it still holds — and its late reply is rejected by
//! epoch.
//!
//! What the coordinator asks of its workers is the `Pool` trait — three
//! methods, the one outward seam a test has to fake, and none of them
//! answers a dispatch. Which worker is handed a job is not the pool's to
//! know: the coordinator places it, from its ledger's quarantine and
//! blacklist state and its own count of the jobs it sent each worker that
//! the worker has not acknowledged, which is also what bounds an inbox.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::Rng;
use smartred_core::audit::Cartel;
use smartred_core::parallel::task_rng;

use crate::coordinator::Input;
use crate::workload::Payload;

/// One replica job handed to a worker.
#[derive(Debug, Clone)]
pub struct JobAssignment {
    /// Dispatch-order job index (the journal's `job` identifier).
    pub job: u32,
    /// Task the replica belongs to.
    pub task: u32,
    /// Replica index within the task: 0-based, counting reissues.
    pub replica: u32,
    /// The task's replica epoch at dispatch time. Replies whose epoch no
    /// longer matches the coordinator's record for the job are stale —
    /// the job was re-dispatched after a timeout, crash, or hung-worker
    /// respawn — and must not be counted.
    pub epoch: u32,
    /// How often the coordinator had respawned the worker it sent the job
    /// to. The worker's message about the job carries it back, so a
    /// detached thread's late message returns no credit to its successor.
    pub generation: u32,
    /// The work to execute.
    pub payload: Arc<Payload>,
}

/// What a worker sends back for one job.
#[derive(Debug, Clone, Copy)]
pub struct JobResult {
    /// Dispatch-order job index.
    pub job: u32,
    /// Task the replica belongs to.
    pub task: u32,
    /// Index of the worker that executed the job.
    pub worker: u32,
    /// Epoch copied from the [`JobAssignment`]; the coordinator's
    /// staleness filter.
    pub epoch: u32,
    /// Generation copied from the [`JobAssignment`].
    pub generation: u32,
    /// The vote: `true` = the honest answer, `false` = the colluding wrong
    /// value (the Byzantine worst case of §2.2, where all liars agree).
    pub vote: bool,
    /// The answer actually reported: the honest answer, flipped when lying.
    pub answer: bool,
}

/// A job executor running on one pool thread.
pub trait Worker: Send + 'static {
    /// Executes one assignment. `Some((vote, answer))` reports a result;
    /// `None` hangs — the job yields no vote, the pool only tells the
    /// coordinator the worker is free of it, and the job's wall-clock
    /// deadline eventually fires. A panic is a *crash*: the supervisor
    /// catches it, reports it, and rebuilds the worker.
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)>;
}

/// Fault profile for [`FaultyWorker`]: the live analogue of the DCA node
/// model's per-job failure rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Per-job probability of reporting the colluding wrong value.
    pub wrong_rate: f64,
    /// Per-job probability of hanging (reporting nothing).
    pub hang_rate: f64,
    /// Per-job probability of panicking mid-execution (killing the worker
    /// value, exercising the supervisor).
    pub crash_rate: f64,
    /// Extra wall-clock latency added to every executed job.
    pub think: Duration,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self {
            wrong_rate: 0.0,
            hang_rate: 0.0,
            crash_rate: 0.0,
            think: Duration::ZERO,
        }
    }
}

/// A worker whose misbehavior is a pure function of `(seed, task, replica)`.
///
/// Every worker of a pool shares the same seed, so a replica's fault draw
/// is identical no matter which worker picks it up — the property that
/// makes the runtime's votes and verdicts reproducible across thread
/// counts and schedules. A reissued replica gets a fresh index and hence a
/// fresh draw, mirroring the simulators' counter-based streams.
#[derive(Debug, Clone)]
pub struct FaultyWorker {
    seed: u64,
    profile: FaultProfile,
}

impl FaultyWorker {
    /// Creates a worker drawing faults from `seed` under `profile`.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        Self { seed, profile }
    }
}

impl Worker for FaultyWorker {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        if !self.profile.think.is_zero() {
            std::thread::sleep(self.profile.think);
        }
        let honest = job.payload.execute();
        let mut rng = task_rng(self.seed, u64::from(job.task), u64::from(job.replica));
        let u: f64 = rng.gen();
        if u < self.profile.hang_rate {
            return None;
        }
        if u < self.profile.hang_rate + self.profile.wrong_rate {
            return Some((false, !honest));
        }
        if u < self.profile.hang_rate + self.profile.wrong_rate + self.profile.crash_rate {
            panic!(
                "injected worker crash (task {}, replica {})",
                job.task, job.replica
            );
        }
        Some((true, honest))
    }
}

/// A worker belonging (or not) to an adaptive colluding coalition.
///
/// Members of the [`Cartel`] lie *in coordination*: whether the coalition
/// lies on a task is the pure function [`Cartel::lies_on`] of
/// `(seed, task)`, so every member reports the same wrong value on the
/// same tasks with no runtime communication — the adversary strategy
/// replication alone cannot defeat, because a wave whose replicas mostly
/// land on members loses the vote honestly counted. The lie rate is
/// throttled (kept small) so per-event strike discipline never
/// accumulates enough evidence; only an audit's recomputation catches the
/// coalition. Non-members behave as a plain [`FaultyWorker`] under
/// `profile`.
///
/// Unlike `FaultyWorker`, a cartel vote depends on *which worker* served
/// the replica, so cartel runs are schedule-dependent by construction —
/// they exercise reliability comparisons, not the byte-determinism
/// fixtures. (The DCA simulator's cartel additionally models dormancy
/// after a member is caught; the live pool has no feedback channel to its
/// workers, so the live cartel never stands down.)
#[derive(Debug, Clone)]
pub struct CartelWorker {
    index: u32,
    seed: u64,
    cartel: Cartel,
    inner: FaultyWorker,
}

impl CartelWorker {
    /// Creates pool worker `index` colluding under `cartel`, drawing its
    /// coordinated lies from `seed`, and otherwise behaving as a
    /// [`FaultyWorker`] with `profile`.
    pub fn new(index: u32, seed: u64, cartel: Cartel, profile: FaultProfile) -> Self {
        Self {
            index,
            seed,
            cartel,
            inner: FaultyWorker::new(seed, profile),
        }
    }
}

impl Worker for CartelWorker {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        if self.cartel.is_member(self.index) && self.cartel.lies_on(self.seed, u64::from(job.task))
        {
            let honest = job.payload.execute();
            return Some((false, !honest));
        }
        self.inner.execute(job)
    }
}

/// A worker whose *vote* is the pure `(seed, task, replica)` draw of the
/// wrapped [`FaultyWorker`] but whose *service time* additionally depends
/// on the worker index: a seeded `slow_rate` of `(worker, task, replica)`
/// triples take `slow`, the rest a millisecond. Slowness is a property of
/// the placement, so a hedge twin redraws the delay on its new worker
/// while voting bit-identically to its origin — hedging changes latency,
/// never votes.
#[derive(Debug, Clone)]
pub struct StragglerWorker {
    index: u32,
    seed: u64,
    inner: FaultyWorker,
    slow_rate: f64,
    slow: Duration,
}

impl StragglerWorker {
    /// Creates pool worker `index`, voting as a [`FaultyWorker`] with
    /// `seed` and `profile` and straggling for `slow` on a `slow_rate`
    /// share of its jobs.
    pub fn new(
        index: u32,
        seed: u64,
        profile: FaultProfile,
        slow_rate: f64,
        slow: Duration,
    ) -> Self {
        Self {
            index,
            seed,
            inner: FaultyWorker::new(seed, profile),
            slow_rate,
            slow,
        }
    }

    /// SplitMix64 over `(seed, worker, task, replica)`.
    fn delay(&self, task: u32, replica: u32) -> Duration {
        let mut x = self
            .seed
            .wrapping_add(u64::from(self.index) << 32)
            .wrapping_add(u64::from(task) << 16)
            .wrapping_add(u64::from(replica));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        if ((x >> 11) as f64 / (1u64 << 53) as f64) < self.slow_rate {
            self.slow
        } else {
            Duration::from_millis(1)
        }
    }
}

impl Worker for StragglerWorker {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        std::thread::sleep(self.delay(job.task, job.replica));
        self.inner.execute(job)
    }
}

/// The factory the pool rebuilds workers from after crashes and respawns.
pub(crate) type WorkerFactory = Arc<dyn Fn(u32) -> Box<dyn Worker> + Send + Sync>;

/// What the coordinator asks of its workers. [`WorkerPool`] answers with
/// threads; a test answers with a script.
pub(crate) trait Pool {
    /// Hands `job` to `node` (a global id), whom the coordinator chose.
    /// Never blocks and never refuses: the coordinator's per-worker credit
    /// bounds what an inbox holds. A send to a closed inbox — which only a
    /// thread that died outside `catch_unwind` leaves — drops the job and
    /// no message ever returns its credit: the worker's credit stays spent
    /// until the job's deadline finds the worker silent and respawns it.
    fn send(&mut self, node: u32, job: JobAssignment);

    /// Replaces a hung worker: a fresh thread, worker value, and inbox
    /// take over `node`'s slot. The old thread is detached and retired: it
    /// ends when it escapes the `execute` it is in, and runs none of the
    /// jobs left in its old inbox or taken off it to sort. Its one late
    /// message carries a pre-respawn epoch and generation the coordinator
    /// rejects. The caller must re-dispatch everything in flight on this
    /// worker, the wedged job included.
    fn respawn(&mut self, node: u32);

    /// Closes every inbox and retires every thread, joins the threads of
    /// the workers that acknowledged every job they were sent —
    /// `holding[node]` is 0, by global node id, so the thread waits in
    /// `recv` — and detaches the rest, so a worker hung forever cannot
    /// wedge shutdown. A detached thread ends once the `execute` it is in
    /// returns, if it is in one, and runs no job it still holds.
    fn shutdown(self, holding: &[usize]);
}

/// How long after the previous job's start a worker must be before it
/// sorts its inbox: a gap this long means the previous job took real time,
/// so a backlog can have built up behind it. It is over ten times the gap
/// between zero-work job starts (on `serve_mem`, 96 % come under 2 µs
/// apart) and a twentieth of `serve_open`'s 1 ms job. Sorting at every
/// start instead ends each sort with a failing `try_recv`, a probe across
/// cores into the channel the coordinator's sends write —
/// `serve_mem` lost 15–31 % of its throughput to it.
const REORDER_GAP_US: u64 = 50;

/// An assignment a worker has taken off its inbox but not started, ordered
/// by `(task, job)`: task ids are drawn in submission order (a recovered
/// task keeps its older id), job ids in dispatch order, so the least is the
/// oldest task's first outstanding replica.
struct Held(JobAssignment);

impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.task, self.0.job).cmp(&(other.0.task, other.0.job))
    }
}

impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Held {}

/// One pool slot: the live thread, its inbox, and the flag that retires
/// it. The thread checks the flag at each job it takes, so a retired
/// thread never starts another.
struct WorkerSlot {
    inbox: Sender<JobAssignment>,
    handle: JoinHandle<()>,
    retired: Arc<AtomicBool>,
}

impl WorkerSlot {
    /// Retires the thread and closes its inbox; returns the handle.
    fn retire(self) -> JoinHandle<()> {
        self.retired.store(true, Ordering::Relaxed);
        self.handle
    }
}

/// The pool: per-worker inboxes plus joinable threads. Internal to the
/// coordinator, which owns dispatch and bounds what each inbox holds.
///
/// Every worker carries a *global* node id `base + slot`: a sharded
/// runtime gives each shard's sub-pool a disjoint id span (see
/// [`smartred_core::execution::shard_worker_span`]), so journal events,
/// discipline records, and cartel membership all speak one id space no
/// matter how the pool is partitioned. Every method takes and returns
/// global node ids.
pub(crate) struct WorkerPool {
    slots: Vec<WorkerSlot>,
    /// The coordinator's inbox: replies and crash reports join the
    /// submissions there.
    events: Sender<Input>,
    make: WorkerFactory,
    started: Instant,
    base: u32,
}

impl WorkerPool {
    /// Spawns `count` worker threads with global node ids
    /// `node_base..node_base + count`, reporting results and crashes on
    /// `events`.
    pub fn spawn(count: usize, node_base: u32, events: Sender<Input>, make: WorkerFactory) -> Self {
        let mut pool = Self {
            slots: Vec::with_capacity(count),
            events,
            make,
            started: Instant::now(),
            base: node_base,
        };
        for slot in 0..count as u32 {
            let slot = pool.build_slot(node_base + slot);
            pool.slots.push(slot);
        }
        pool
    }

    fn slot_of(&self, node: u32) -> usize {
        debug_assert!(
            node >= self.base && ((node - self.base) as usize) < self.slots.len(),
            "node {node} outside pool span {}..{}",
            self.base,
            self.base as usize + self.slots.len(),
        );
        (node - self.base) as usize
    }

    fn build_slot(&self, index: u32) -> WorkerSlot {
        let (tx, rx) = std::sync::mpsc::channel::<JobAssignment>();
        let events = self.events.clone();
        let make = self.make.clone();
        let started = self.started;
        let retired = Arc::new(AtomicBool::new(false));
        let retiring = retired.clone();
        let handle = std::thread::Builder::new()
            .name(format!("smartred-worker-{index}"))
            .spawn(move || {
                let mut worker = make(index);
                let mut held = BinaryHeap::new();
                let mut last_start = 0;
                while let Some(mut job) = held
                    .pop()
                    .map(|Reverse(Held(job))| job)
                    .or_else(|| rx.recv().ok())
                {
                    // Retired: what this thread still holds is its
                    // successor's to run, or nobody's.
                    if retiring.load(Ordering::Relaxed) {
                        break;
                    }
                    let now = started.elapsed().as_micros() as u64;
                    // The last job took real time, so a backlog may wait:
                    // take all of it and start the oldest task.
                    if now - last_start >= REORDER_GAP_US {
                        held.push(Reverse(Held(job)));
                        held.extend(rx.try_iter().map(|next| Reverse(Held(next))));
                        let Reverse(Held(oldest)) = held.pop().expect("the job just pushed back");
                        job = oldest;
                    }
                    last_start = now;
                    let outcome = catch_unwind(AssertUnwindSafe(|| worker.execute(&job)));
                    // One message per job. The coordinator's inbox is
                    // unbounded: workers never block reporting, so a
                    // stalled coordinator cannot deadlock the pool.
                    match outcome {
                        Ok(Some((vote, answer))) => {
                            let _ = events.send(Input::Reply(JobResult {
                                job: job.job,
                                task: job.task,
                                worker: index,
                                epoch: job.epoch,
                                generation: job.generation,
                                vote,
                                answer,
                            }));
                        }
                        Ok(None) => {
                            let _ = events.send(Input::Freed {
                                worker: index,
                                generation: job.generation,
                            });
                        }
                        Err(_) => {
                            let _ = events.send(Input::Crash {
                                worker: index,
                                job: job.job,
                                task: job.task,
                                epoch: job.epoch,
                                generation: job.generation,
                            });
                            // The old worker value died with the panic;
                            // rebuild and keep serving the same inbox.
                            worker = make(index);
                        }
                    }
                }
            })
            .expect("spawn worker thread");
        WorkerSlot {
            inbox: tx,
            handle,
            retired,
        }
    }
}

impl Pool for WorkerPool {
    fn send(&mut self, node: u32, job: JobAssignment) {
        let _ = self.slots[self.slot_of(node)].inbox.send(job);
    }

    fn respawn(&mut self, node: u32) {
        let slot = self.slot_of(node);
        let fresh = self.build_slot(node);
        let old = std::mem::replace(&mut self.slots[slot], fresh);
        drop(old.retire()); // detach: never join a thread presumed stuck
    }

    fn shutdown(self, holding: &[usize]) {
        // Every slot is retired, closing its inbox; only an idle worker's
        // handle is kept to join, and the rest detach.
        let slots = (self.base..).zip(self.slots);
        let retired = slots.map(|(node, slot)| (node, slot.retire()));
        let idle = retired.filter(|&(node, _)| holding[node as usize] == 0);
        let handles: Vec<_> = idle.map(|(_, handle)| handle).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::tests::Held;
    use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
    use std::sync::Mutex;

    fn assignment(task: u32, replica: u32) -> JobAssignment {
        JobAssignment {
            job: 0,
            task,
            replica,
            epoch: 0,
            generation: 0,
            payload: Arc::new(Payload::Synthetic {
                answer: true,
                work: Duration::ZERO,
            }),
        }
    }

    fn factory(seed: u64, profile: FaultProfile) -> WorkerFactory {
        Arc::new(move |_| Box::new(FaultyWorker::new(seed, profile)))
    }

    #[test]
    fn fault_draw_depends_only_on_task_and_replica() {
        let profile = FaultProfile {
            wrong_rate: 0.5,
            hang_rate: 0.2,
            ..FaultProfile::default()
        };
        let mut a = FaultyWorker::new(9, profile);
        let mut b = FaultyWorker::new(9, profile);
        for task in 0..50 {
            for replica in 0..4 {
                assert_eq!(
                    a.execute(&assignment(task, replica)),
                    b.execute(&assignment(task, replica)),
                    "draw must be identical across workers for ({task}, {replica})"
                );
            }
        }
    }

    #[test]
    fn honest_worker_votes_true_with_honest_answer() {
        let mut w = FaultyWorker::new(3, FaultProfile::default());
        assert_eq!(w.execute(&assignment(0, 0)), Some((true, true)));
    }

    #[test]
    fn lying_draw_flips_the_answer_and_votes_false() {
        let profile = FaultProfile {
            wrong_rate: 1.0,
            ..FaultProfile::default()
        };
        let mut w = FaultyWorker::new(3, profile);
        assert_eq!(w.execute(&assignment(0, 0)), Some((false, false)));
    }

    /// The next report on `rx`, as `Ok(reply)` or `Err((worker, job, task,
    /// epoch))` of a crash.
    fn report(rx: &Receiver<Input>) -> Result<JobResult, (u32, u32, u32, u32)> {
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Input::Reply(reply)) => Ok(reply),
            Ok(Input::Crash {
                worker,
                job,
                task,
                epoch,
                ..
            }) => Err((worker, job, task, epoch)),
            _ => panic!("expected a reply or a crash within 5 s"),
        }
    }

    /// A job that yields no vote is still acknowledged, with the
    /// generation it was sent under.
    #[test]
    fn a_hang_draw_frees_the_worker_of_its_job() {
        let (tx, rx) = std::sync::mpsc::channel();
        let hangs = FaultProfile {
            hang_rate: 1.0,
            ..FaultProfile::default()
        };
        let mut pool = WorkerPool::spawn(1, 3, tx, factory(0, hangs));
        let mut job = assignment(0, 0);
        job.generation = 7;
        pool.send(3, job);
        let Ok(Input::Freed { worker, generation }) = rx.recv_timeout(Duration::from_secs(5))
        else {
            panic!("expected a Freed within 5 s");
        };
        assert_eq!((worker, generation), (3, 7));
        pool.shutdown(&[0; 4]);
    }

    #[test]
    fn crash_is_reported_and_the_worker_survives_it() {
        let (tx, rx) = std::sync::mpsc::channel();
        // Every job panics under this profile.
        let mut pool = WorkerPool::spawn(
            1,
            0,
            tx,
            factory(
                0,
                FaultProfile {
                    crash_rate: 1.0,
                    ..FaultProfile::default()
                },
            ),
        );
        let mut job = assignment(0, 0);
        job.epoch = 5;
        pool.send(0, job);
        assert_eq!(report(&rx).unwrap_err(), (0, 0, 0, 5));
        // The same slot keeps serving after the rebuild.
        pool.send(0, assignment(1, 0));
        assert_eq!(report(&rx).unwrap_err(), (0, 0, 1, 0));
        pool.shutdown(&[0]);
    }

    /// What a [`Gated`] worker says: `(worker, Some(task))` when it starts
    /// a job, `(worker, None)` when its thread ends.
    type Log = (u32, Option<u32>);

    /// Logs, and holds task 0's job until told to go.
    struct Gated(u32, Sender<Log>, Arc<Mutex<Receiver<()>>>);

    impl Worker for Gated {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            let _ = self.1.send((self.0, Some(job.task)));
            if job.task == 0 {
                let _ = self.2.lock().unwrap().recv_timeout(Duration::from_secs(5));
            }
            Some((true, true))
        }
    }

    impl Drop for Gated {
        fn drop(&mut self) {
            let _ = self.1.send((self.0, None));
        }
    }

    /// `count` [`Gated`] workers, their reports, their log, and the gate.
    fn gated(count: usize) -> (WorkerPool, Receiver<Input>, Receiver<Log>, Sender<()>) {
        let ((tx, rx), (logs, log), (go, gate)) = (channel(), channel(), channel());
        let gate = Arc::new(Mutex::new(gate));
        let make = move |i| Box::new(Gated(i, logs.clone(), gate.clone())) as Box<dyn Worker>;
        (WorkerPool::spawn(count, 0, tx, Arc::new(make)), rx, log, go)
    }

    /// What `rx` receives until its last sender is gone.
    fn rest<T>(rx: &Receiver<T>) -> Vec<T> {
        let next = || match rx.recv_timeout(Duration::from_secs(5)) {
            Err(RecvTimeoutError::Timeout) => panic!("a thread did not end within 5 s"),
            received => received.ok(),
        };
        std::iter::from_fn(next).collect()
    }

    /// A respawned slot's fresh thread serves while the old one is wedged;
    /// let go, the old thread answers its one job and ends, starting none
    /// of those it still held.
    #[test]
    fn respawn_replaces_a_stuck_worker_and_retires_the_old_thread() {
        let (mut pool, rx, log, go) = gated(1);
        pool.send(0, assignment(0, 0));
        assert_eq!(log.recv_timeout(Duration::from_secs(5)), Ok((0, Some(0))));
        pool.send(0, assignment(1, 0));
        pool.respawn(0);
        pool.send(0, assignment(2, 0));
        assert_eq!(report(&rx).unwrap().task, 2, "the fresh thread serves");
        drop(go);
        assert_eq!(report(&rx).unwrap().task, 0, "the old thread's late reply");
        pool.shutdown(&[0]);
        let mut log = rest(&log);
        log.sort_unstable();
        assert_eq!(
            log,
            [(0, None), (0, None), (0, Some(2))],
            "task 1 never starts"
        );
    }

    /// Shutdown joins a worker that holds nothing and detaches one that
    /// holds work, however long its job runs; the detached thread ends
    /// once that job returns, starting none queued behind it.
    #[test]
    fn shutdown_joins_idle_workers_and_retires_the_rest() {
        let (mut pool, rx, log, go) = gated(2);
        pool.send(0, assignment(0, 0));
        pool.send(1, assignment(1, 0));
        assert_eq!(report(&rx).unwrap().task, 1);
        let started: Vec<_> = log.iter().take(2).collect();
        assert!(started.contains(&(0, Some(0))), "held");
        pool.send(0, assignment(2, 0));
        pool.shutdown(&[2, 0]);
        assert_eq!(log.try_iter().collect::<Vec<_>>(), [(1, None)], "joined");
        drop(go);
        assert_eq!(report(&rx).unwrap().task, 0);
        assert_eq!(rest(&log), [(0, None)], "task 2 never starts");
    }

    #[test]
    fn a_backlog_is_served_oldest_task_first() {
        let ((tx, rx), (started, starts)) =
            (std::sync::mpsc::channel(), std::sync::mpsc::channel());
        let (go, gate) = std::sync::mpsc::channel();
        let gate = Arc::new(std::sync::Mutex::new(gate));
        let make = move |_| Box::new(Held(started.clone(), gate.clone())) as Box<dyn Worker>;
        let mut pool = WorkerPool::spawn(1, 0, tx, Arc::new(make));
        pool.send(0, assignment(0, 0));
        starts
            .recv_timeout(Duration::from_secs(5))
            .expect("started");
        // Four jobs wait in the inbox behind the held one, which runs past
        // the gap, so the next start sorts what waits.
        for (job, task) in [(1, 9), (2, 3), (3, 5), (4, 3)] {
            pool.send(
                0,
                JobAssignment {
                    job,
                    ..assignment(task, 0)
                },
            );
        }
        std::thread::sleep(Duration::from_micros(2 * REORDER_GAP_US));
        drop(go);
        let served: Vec<(u32, u32)> = (0..5)
            .map(|_| report(&rx).map(|r| (r.task, r.job)).unwrap())
            .collect();
        assert_eq!(served, [(0, 0), (3, 2), (3, 4), (5, 3), (9, 1)]);
        pool.shutdown(&[0]);
    }

    #[test]
    fn pools_with_a_node_base_speak_global_ids() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pool = WorkerPool::spawn(2, 10, tx, factory(0, FaultProfile::default()));
        // Dispatch takes global ids, and results carry them.
        pool.send(10, assignment(0, 0));
        assert_eq!(report(&rx).unwrap().worker, 10);
        pool.send(11, assignment(1, 0));
        assert_eq!(report(&rx).unwrap().worker, 11);
        // Supervision addresses slots by global id too.
        pool.respawn(11);
        pool.send(11, assignment(2, 0));
        assert_eq!(report(&rx).unwrap().worker, 11);
        pool.shutdown(&[0; 12]);
    }
}
