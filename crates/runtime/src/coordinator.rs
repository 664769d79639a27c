//! The coordinator: task admission, replica dispatch, vote tallying,
//! wall-clock deadlines, worker supervision, and verdict delivery —
//! crash-recoverable via a durable write-ahead log.
//!
//! One coordinator thread owns all redundancy state and the journal; it is
//! the only writer of either, which keeps the journal's monotone-time
//! invariant trivially true under real concurrency.
//!
//! ## One inbox, one clock
//!
//! The coordinator only ever *reacts* (the paper's Fig. 4 server does
//! nothing between a job's result and the next): its behaviour is
//! `Coordinator::step(input, now)` for each `Input` — a submission, an
//! annotation, a worker's reply, crash report or freed job, the drain
//! signal — plus `fire_due(now)` for the named timers it armed itself (a
//! job's deadline and hedge check, a quarantined node's release),
//! the earliest of which is `next_due()`. No handler reads a clock or a
//! channel. Clients and worker threads send on one unbounded channel, the
//! inbox; the thread that owns its receiver and the wall clock is a driver
//! (`Driver::run`): it blocks until an input arrives or a timer
//! falls due — nothing polls — and stamps each input as it takes it off
//! the channel, so no record is stamped earlier than its cause.
//!
//! A *turn* is: every input that has arrived, each one stepped at its own
//! stamp; one admission from the backlog; the due timers; the dispatch of
//! every replica the turn opened, re-armed or found parked. Jobs leave for
//! workers last, so a task decided in a turn was open when the turn began:
//! a turn decides at most [`RuntimeConfig::max_active`] tasks.
//!
//! A turn cannot fail: its handlers change state, log records and hand
//! jobs to the pool, which answers nothing. What can fail or end the run
//! is the driver's (its `Driver`, which the unit tests' rig uses too):
//! after each turn it commits the turn's records, releases the verdicts
//! they decided, takes a checkpoint when one is due, and — on a WAL
//! failure or at the crash hook — stops stepping the coordinator, which
//! is all death is.
//!
//! Nothing in the design blocks on a send: every channel is unbounded,
//! and what bounds each is who may send on it. Every job a worker takes
//! off its inbox ends in exactly one message back, and the coordinator
//! places a job only on a worker holding fewer than its credit of jobs it
//! was sent and has not acknowledged (`2·inbox_cap + 1`; a job with
//! nowhere to go is parked, and every turn retries), so that credit bounds
//! what a worker's inbox holds; submissions wait behind a gate
//! (`submitted − admitted ≤ queue_cap`, shed at the client), a worker's
//! messages number at most the jobs it was sent, and an annotation
//! answers a verdict its sender already holds. So no cycle of blocking
//! sends exists and the runtime cannot deadlock on its own queues.
//!
//! ## Write-ahead logging
//!
//! When [`RuntimeConfig::wal`] is set, every journal record goes to a
//! write-ahead log, which the driver *commits* once per turn, just before
//! it blocks on its inbox (and around a checkpoint): it hands the writer
//! the turn's records in log order — written to the file in one `write`,
//! and fsync'd under [`RuntimeConfig::wal_sync`] — and then sends, in log
//! order, the verdicts whose decisions the commit holds. That commit is
//! the only release point: a decision's verdict is parked when the
//! decision is logged, so the coordinator pays one `write` per turn
//! instead of one per decision, and a verdict waits at most for the
//! replies that were already in flight when it was decided. A decision is
//! in the file before anyone can observe it; a process kill loses at most
//! the current turn's tail, none of it observed, which recovery already
//! treats as "crashed one turn earlier". A failed append or commit sends
//! nothing of that commit and ends the run, as a power loss would.
//! [`Runtime::recover`] replays the surviving WAL prefix (tolerating a
//! torn final record) into a fresh coordinator that resumes exactly where
//! the dead one stopped: decided tasks are never re-run or re-delivered,
//! in-flight jobs are re-armed without new journal records, and replica
//! indices — and hence the deterministic fault draws keyed by
//! `(seed, task, replica)` — are preserved.
//!
//! ## Supervision and epochs
//!
//! Each dispatched job carries its task's *replica epoch*. Replies whose
//! epoch no longer matches the coordinator's record are rejected
//! ([`RunEvent::StaleReplyDropped`]) instead of being tallied, which
//! closes the double-count window when a job is re-dispatched after a
//! hung-worker respawn, and makes the reissue-after-timeout rejection
//! explicit. A job's deadline is also the hang threshold: at a job's
//! deadline, a worker that holds work and has sent nothing since the job
//! was dispatched is wedged inside `execute` — every job a worker takes
//! ends in one message — and is respawned. Worker panics are caught in
//! the pool, reported, and healed by rebuilding the worker; tasks that
//! repeatedly kill workers are poisoned (failed) under
//! [`smartred_core::resilience::PoisonPolicy`] rather than re-issued
//! forever. Repeated timeouts and crashes also charge node-level strikes
//! under the shared [`smartred_core::resilience::QuarantinePolicy`].
//!
//! Timeout semantics mirror the simulators' `DeadlinePolicy::Reissue`:
//! a job that misses its wall-clock deadline is abandoned (its late result,
//! if any, is dropped as stale) and the strategy reopens a wave for a
//! replacement replica on a fresh RNG stream.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use smartred_core::audit::AuditPolicy;
use smartred_core::execution::{Assignment, WaveStep};
use smartred_core::hedge::{HedgePolicy, HedgeTrigger};
use smartred_core::parallel::Threads;
use smartred_core::resilience::{DisciplineAction, PoisonPolicy, QuarantinePolicy};
use smartred_core::strategy::RedundancyStrategy;
use smartred_desim::journal::{DepartureReason, Journal, RunEvent, Stamped, WalWriter};
use smartred_desim::time::{SimDuration, SimTime};

use crate::checkpoint::{checkpoint_path, discard, finish, pair, CheckpointState};
use crate::id_hash::{IdMap, IdSet};
use crate::ledger::{Delivery, Ledger};
use crate::recovery::{RecoveryError, RecoveryReport};
use crate::report::{report_from_journal, RuntimeReport};
use crate::worker::{JobAssignment, JobResult, Pool, Worker, WorkerFactory, WorkerPool};
use crate::workload::Payload;

/// Runtime configuration. A runtime's WAL is a real file: the storage
/// faults its recovery must survive are injected under a coordinator
/// driven without threads, on a
/// [`FaultyDisk`](smartred_desim::disk::FaultyDisk), not configured here.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker-thread count; `None` resolves like the sweep engine's
    /// [`Threads::Auto`] (the `SMARTRED_THREADS` environment variable,
    /// falling back to available parallelism).
    pub workers: Option<usize>,
    /// Sets each worker's credit: the coordinator hands a worker a job only
    /// while fewer than `2·inbox_cap + 1` of the jobs it handed that worker
    /// are unacknowledged — no reply, crash report or freed job has come
    /// back for them — and parks the job when every worker in good standing
    /// is at its credit. The credit bounds every job a worker holds — the
    /// one it runs and those waiting in its inbox or taken off it to serve
    /// oldest task first, lapsed or cancelled ones included — since its
    /// inbox itself is unbounded. A respawn drops the old inbox and returns
    /// the whole credit.
    pub inbox_cap: usize,
    /// Capacity of the submission queue — submissions sent and not yet
    /// admitted, recovered roster entries included; submissions beyond it
    /// are shed at the client.
    pub queue_cap: usize,
    /// Maximum tasks in flight; submissions past it wait in the queue.
    pub max_active: usize,
    /// Wall-clock deadline per job; a miss abandons the job and reissues.
    pub deadline: Duration,
    /// Optional cap on total jobs per task; hitting it fails the task.
    pub job_cap: Option<usize>,
    /// Whether to record the run journal (forced on when `wal` is set).
    pub journal: bool,
    /// Durable write-ahead log path. When set, every event is logged to
    /// this file — committed once per coordinator turn, before the turn's
    /// verdicts leave and before the coordinator sleeps (see the module
    /// docs) — and [`Runtime::recover`] can restart the run from it.
    pub wal: Option<PathBuf>,
    /// Whether a WAL commit `fdatasync`s after its write (durable against
    /// power loss, not just process death). Write-only (`false`) is
    /// faster and still survives a process kill at any barrier.
    pub wal_sync: bool,
    /// Poison-task policy: tasks whose payload repeatedly crashes workers
    /// are failed rather than re-issued forever. `None` disables.
    pub poison: Option<PoisonPolicy>,
    /// Node discipline: timeouts and crashes charge strikes; repeated
    /// strikes quarantine the worker, repeated quarantines blacklist it.
    /// `None` disables.
    pub discipline: Option<QuarantinePolicy>,
    /// Audit policy: spot-check verdicts against a local recomputation,
    /// charge weighted strikes for caught lies, void tainted verdicts, and
    /// re-tally open tasks the liar touched. Disabled by default.
    pub audit: AuditPolicy,
    /// Seed for the audit-selection counter stream (independent of worker
    /// fault seeds — see [`smartred_core::audit::AUDIT_STREAM`]).
    pub audit_seed: u64,
    /// Chaos hook: the coordinator dies once it has logged this many
    /// journal records in this process's life. At the end of that turn its
    /// driver commits exactly those records, sends the verdicts whose
    /// decisions are among them, cuts the returned journal to them and
    /// stops stepping the coordinator: the WAL holds what a kill right
    /// after that commit would leave, and no durable decision goes
    /// undelivered. Counts journal records, so it needs the journal on.
    /// Test-only.
    pub crash_after_events: Option<u64>,
    /// First global node id of this coordinator's worker pool. A sharded
    /// runtime gives each shard's sub-pool a disjoint id span (see
    /// [`smartred_core::execution::shard_worker_span`]) so journal events
    /// and discipline records from different shards never collide; a
    /// standalone runtime leaves it 0.
    pub node_base: u32,
    /// Group-commit batch under [`wal_sync`](Self::wal_sync): how many
    /// records a commit may hand the writer before an append writes and
    /// `fdatasync`s on its own, ahead of the commit's barrier. `1` — the
    /// default — is the classic WAL, one write and one sync per record, all
    /// at the turn's commit; a larger batch leaves the syncing to the
    /// barriers (one write and one sync per turn, whatever the turn logged
    /// and however many tasks it decided). A verdict leaves only behind
    /// the commit that holds its decision, and shutdown commits before it
    /// returns, so exactly-once delivery is unaffected; only uncommitted
    /// tail events nobody observed can be lost, which recovery handles
    /// identically to crashing earlier.
    pub wal_batch: u64,
    /// Straggler hedging: a job that outlives the online latency-quantile
    /// estimate gets a duplicate twin on another worker; the first copy to
    /// report supplies the replica's vote and the loser is discarded.
    /// Verdict-invariant (votes are pure functions of
    /// `(seed, task, replica)`), so hedging changes *when* verdicts arrive,
    /// never what they say. `None` disables.
    pub hedge: Option<HedgePolicy>,
    /// Worker-assignment policy for dispatch: where the scan for a worker
    /// with credit left starts. `Random` starts one past the previous pick
    /// (a live pool's completions do the spreading), the deterministic
    /// alternatives at [`Assignment::pick`]'s choice among the workers in
    /// good standing — for `RoundRobin` the same node.
    pub assignment: Assignment,
    /// Per-record WAL checksums: each appended line carries an FNV-1a
    /// checksum of its canonical form, so recovery distinguishes a torn
    /// tail (dropped, resumed) from mid-file corruption (refused, with
    /// the damaged record's byte offset and seq). Off by default — a
    /// checksum-free WAL is byte-identical to the in-memory journal's
    /// JSONL and remains readable by older tooling.
    pub wal_checksum: bool,
    /// Checkpoint + compaction: once this many events have accumulated
    /// since the last checkpoint, the coordinator — at its next quiescent
    /// point (no open tasks, jobs, or parked work) — snapshots its state
    /// next to the WAL, truncates the log, and seals the fresh segment
    /// with a [`RunEvent::CheckpointTaken`] record. Recovery replays
    /// snapshot + suffix, bounded by the interval, not uptime, and
    /// finishes a checkpoint a crash cut short. [`Runtime::start`] removes
    /// a snapshot an earlier run left beside the WAL. `None` disables.
    pub checkpoint_every: Option<u64>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: None,
            inbox_cap: 64,
            queue_cap: 256,
            max_active: 256,
            deadline: Duration::from_secs(2),
            job_cap: None,
            journal: true,
            wal: None,
            wal_sync: true,
            poison: Some(PoisonPolicy::default()),
            discipline: None,
            audit: AuditPolicy::disabled(),
            audit_seed: 0,
            crash_after_events: None,
            node_base: 0,
            wal_batch: 1,
            hedge: None,
            assignment: Assignment::Random,
            wal_checksum: false,
            checkpoint_every: None,
        }
    }
}

impl RuntimeConfig {
    /// The resolved worker-thread count.
    pub(crate) fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(|| Threads::Auto.get()).max(1)
    }
}

/// Admission-control verdict for one submission.
///
/// Marked `#[must_use]`: silently dropping the outcome loses shed
/// notifications — a [`SubmitOutcome::Shed`] task was **not** admitted and
/// will never produce a verdict, so the caller must observe it.
#[must_use = "a Shed outcome means the task was never admitted and will produce no verdict"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted with spare in-flight capacity: dispatch begins immediately.
    Accepted {
        /// The task id assigned to the submission.
        task: u32,
    },
    /// Admitted into the bounded submission queue; dispatch starts once
    /// the in-flight task count drops below the cap. (The capacity read is
    /// advisory — a concurrent admission may reclassify, but the task is
    /// admitted either way.)
    Queued {
        /// The task id assigned to the submission.
        task: u32,
    },
    /// Load-shed: the submission queue is full (or the runtime has shut
    /// down). The task was **not** admitted; the caller owns retry policy.
    Shed,
}

/// The delivered outcome of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskVerdict {
    /// The task id from [`SubmitOutcome`].
    pub task: u32,
    /// The winning vote (`true` = honest answer); `None` when the task
    /// failed without a verdict (job cap or poisoning).
    pub vote: Option<bool>,
    /// The answer reported by the winning side, when a verdict was reached
    /// (`None` for verdicts resumed across a coordinator restart — votes
    /// are journaled, raw answers are not).
    pub answer: Option<bool>,
    /// Whether the task was poisoned (failed for repeatedly crashing its
    /// workers) rather than capped.
    pub poisoned: bool,
    /// First-dispatch → verdict latency, in journal units (seconds).
    pub latency_units: f64,
    /// Jobs dispatched for this task.
    pub jobs: u32,
}

/// Counts of how submissions fared at admission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Submissions admitted with spare in-flight capacity.
    pub accepted: u64,
    /// Submissions admitted into the queue under backpressure.
    pub queued: u64,
    /// Submissions shed at a full queue.
    pub shed: u64,
}

impl AdmissionStats {
    /// Total submission attempts.
    pub fn submitted(&self) -> u64 {
        self.accepted + self.queued + self.shed
    }

    /// Fraction of submission attempts shed (0 when nothing submitted).
    pub fn shed_rate(&self) -> f64 {
        let total = self.submitted();
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct AdmissionCounters {
    pub(crate) accepted: AtomicU64,
    pub(crate) queued: AtomicU64,
    pub(crate) shed: AtomicU64,
}

impl AdmissionCounters {
    pub(crate) fn snapshot(&self) -> AdmissionStats {
        AdmissionStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// Admission accounting, shared by the coordinator and its submission
/// handles. Counts that publish no other data, hence `Relaxed` — except
/// `crashed`, which a reader acquires to see the dead coordinator's sends.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    /// Submissions sent, recovered roster entries included ...
    submitted: AtomicU64,
    /// ... and those admitted: the difference waits in the inbox or the
    /// backlog, and [`RuntimeConfig::queue_cap`] bounds it. (A sharded
    /// runtime's clients gate globally and send past this gate; nothing
    /// reads these two there.)
    admitted: AtomicU64,
    /// Open tasks, which decide between `Accepted` and `Queued`.
    active: AtomicUsize,
    counters: AdmissionCounters,
    /// Whether the coordinator died (see [`RuntimeRun::crashed`]); stored
    /// as its thread ends.
    crashed: AtomicBool,
}

/// One admitted submission, in flight to the coordinator.
pub(crate) struct Submission {
    pub(crate) task: u32,
    pub(crate) payload: Arc<Payload>,
    pub(crate) verdict_tx: Sender<TaskVerdict>,
}

/// Everything the coordinator reacts to, on the one channel it receives
/// from: clients send the first two, worker threads the next three — one
/// for each job they take — and the drop of the last submission handle the
/// last.
pub(crate) enum Input {
    /// A task to admit.
    Submit(Submission),
    /// An event to journal durably into the WAL (workload bookkeeping such
    /// as DAG stage verdicts — no tally state, but crash-recoverable).
    Annotate(RunEvent),
    /// A job completed (honestly or not) and reported a result.
    Reply(JobResult),
    /// [`Worker::execute`] panicked. The thread survived, rebuilt its
    /// worker from the factory, and is already serving its inbox again;
    /// the crashed job died with the old worker value and must be
    /// re-dispatched under a fresh epoch.
    Crash {
        /// Pool slot whose worker panicked.
        worker: u32,
        /// The job that killed it.
        job: u32,
        /// Task the job belonged to.
        task: u32,
        /// Epoch the job carried.
        epoch: u32,
        /// Generation the job carried.
        generation: u32,
    },
    /// [`Worker::execute`] reported nothing: the worker is free of the
    /// job and its credit returns, but the job stays live — its deadline
    /// decides it, as if the worker had hung.
    Freed {
        /// Pool slot that held the job.
        worker: u32,
        /// Generation the job carried.
        generation: u32,
    },
    /// Nobody can submit any more: finish what is open, then stop.
    Drain,
}

/// The sending half of a coordinator's inbox, as its submission handles
/// share it: the [`Runtime`], every [`Client`], and a sharded client for
/// each shard. Worker threads send on the same channel, so it never
/// disconnects on its own: dropping the last handle sends
/// [`Input::Drain`].
#[derive(Debug)]
pub(crate) struct Inbox {
    tx: Sender<Input>,
    gate: Arc<Gate>,
    pub(crate) next_task: AtomicU32,
    queue_cap: u64,
    max_active: usize,
}

impl Inbox {
    /// Sends `input`; `false` once the coordinator is gone.
    pub(crate) fn send(&self, input: Input) -> bool {
        self.tx.send(input).is_ok()
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        let _ = self.tx.send(Input::Drain);
    }
}

/// A submission handle. Clones share the runtime's admission queue but
/// each clone receives verdicts only for its own submissions.
#[derive(Debug)]
pub struct Client {
    inbox: Arc<Inbox>,
    verdict_tx: Sender<TaskVerdict>,
    verdict_rx: Receiver<TaskVerdict>,
}

impl Client {
    /// A handle on `inbox` that receives its verdicts on `verdicts`.
    fn new(
        inbox: Arc<Inbox>,
        (verdict_tx, verdict_rx): (Sender<TaskVerdict>, Receiver<TaskVerdict>),
    ) -> Self {
        Self {
            inbox,
            verdict_tx,
            verdict_rx,
        }
    }

    /// Submits one task. Never blocks: a full queue —
    /// [`RuntimeConfig::queue_cap`] submissions sent and not yet admitted
    /// — sheds the submission and returns [`SubmitOutcome::Shed`]. The
    /// gate is consulted before a task id is drawn, so a shed burns none:
    /// ids are dense in admission order, as a sharded client's are.
    pub fn submit(&self, payload: Payload) -> SubmitOutcome {
        let (inbox, gate) = (&*self.inbox, &*self.inbox.gate);
        let reserve = |sent: u64| {
            let waiting = sent.saturating_sub(gate.admitted.load(Ordering::Relaxed));
            (waiting < inbox.queue_cap).then_some(sent + 1)
        };
        let shed = || {
            gate.counters.shed.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Shed
        };
        let reserved = gate
            .submitted
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, reserve);
        if reserved.is_err() {
            return shed();
        }
        let task = inbox.next_task.fetch_add(1, Ordering::Relaxed);
        let submission = Submission {
            task,
            payload: Arc::new(payload),
            verdict_tx: self.verdict_tx.clone(),
        };
        if !inbox.send(Input::Submit(submission)) {
            return shed(); // the coordinator is gone, and its queue with it
        }
        if gate.active.load(Ordering::Relaxed) < inbox.max_active {
            gate.counters.accepted.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Accepted { task }
        } else {
            gate.counters.queued.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Queued { task }
        }
    }

    /// Journals `event` durably into the coordinator's WAL. Annotations
    /// carry no tally state — recovery preserves and ignores them — but
    /// they share the WAL's ordering and fsync guarantees, so workload
    /// layers (e.g. DAG stage verdicts) can reconstruct their own
    /// bookkeeping from the same crash-consistent stream. Never blocks and
    /// is never shed: an annotation is logged in the turn that takes it
    /// off the inbox, ahead of any submission sent after it, and what
    /// bounds the annotations in the inbox is their sender — one answers a
    /// verdict the sender holds or a task it is about to submit, so there
    /// are no more of them than of those. Returns `false` once the runtime
    /// has shut down or crashed.
    pub fn annotate(&self, event: RunEvent) -> bool {
        self.inbox.send(Input::Annotate(event))
    }

    /// Blocks for this client's next verdict; `None` once the runtime has
    /// shut down and no verdicts remain.
    pub fn recv(&self) -> Option<TaskVerdict> {
        self.verdict_rx.recv().ok()
    }

    /// Like [`recv`](Self::recv) with a timeout; `None` on timeout or
    /// shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict> {
        self.verdict_rx.recv_timeout(timeout).ok()
    }
}

impl Clone for Client {
    fn clone(&self) -> Self {
        Self::new(self.inbox.clone(), mpsc::channel())
    }
}

/// The finished run: live report, admission tally, and the journal.
#[derive(Debug)]
pub struct RuntimeRun {
    /// Metrics accumulated live by the coordinator.
    pub report: RuntimeReport,
    /// How submissions fared at admission (client-side; shed submissions
    /// never reach the coordinator and are not journaled).
    pub admission: AdmissionStats,
    /// The recorded event stream (empty when journaling was disabled).
    pub journal: Journal,
    /// Whether the coordinator died — at the chaos crash point
    /// ([`RuntimeConfig::crash_after_events`]) or on a WAL I/O error —
    /// instead of finishing. A dead run's journal is cut to the records its
    /// driver handed the WAL, ending mid-stream as the crash left the file,
    /// and its report is that journal's
    /// [`report_from_journal`] fold.
    pub crashed: bool,
}

/// A live job-serving runtime: worker pool plus coordinator thread.
///
/// Create with [`Runtime::start`] (or [`Runtime::recover`] to resume a
/// crashed run from its WAL), submit through [`Runtime::client`] handles,
/// then drop every client and call [`Runtime::finish`] — the coordinator
/// drains in-flight tasks once all submission handles are gone and
/// `finish` returns the final [`RuntimeRun`].
#[derive(Debug)]
pub struct Runtime {
    pub(crate) inbox: Arc<Inbox>,
    handle: JoinHandle<(RuntimeReport, Journal, bool)>,
}

impl Runtime {
    /// Starts the worker pool and coordinator. `make_worker` builds the
    /// executor for each pool index — use [`crate::worker::FaultyWorker`]
    /// for seed-reproducible unreliability, or any custom [`Worker`]. The
    /// factory is retained: the supervisor calls it again to rebuild
    /// workers after panics and hung-thread respawns.
    pub fn start<S, F>(cfg: RuntimeConfig, strategy: S, make_worker: F) -> Self
    where
        S: RedundancyStrategy<bool> + Send + Sync + 'static,
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let journal = if cfg.journal || cfg.wal.is_some() {
            Journal::new()
        } else {
            Journal::disabled()
        };
        let wal = cfg
            .wal
            .as_ref()
            .map(|p| build_wal(p, &cfg).expect("create WAL file"));
        let ledger = Ledger::new(&cfg, Arc::new(strategy));
        let make = Arc::new(make_worker);
        spawn_runtime(cfg, ledger, journal, wal, make, VecDeque::new(), 0)
    }

    /// Restarts a crashed run from its write-ahead log.
    ///
    /// The WAL prefix (up to a tolerated torn final record) is replayed
    /// into full coordinator state — open tasks with their exact vote
    /// tallies and wave positions, outstanding replicas, admission
    /// backlog, node strikes, epochs, and poison charges. `roster` maps
    /// task ids to payloads (payloads are not journaled): ids already
    /// decided in the WAL are skipped (their verdicts were durable before
    /// delivery — they are never re-run or re-delivered), open ids resume,
    /// and unseen ids are admitted fresh under their original numbers so
    /// the deterministic fault draws keyed by `(seed, task, replica)`
    /// line up with an uninterrupted run.
    ///
    /// The file is read by [`Journal::read_wal`] on [`Threads::Auto`]
    /// threads (`SMARTRED_THREADS`, else every core — nothing else runs
    /// until this returns): each reads and decodes a 1 MiB block at a
    /// time, verifying a checksummed record in the same pass that parses
    /// it, so the file is never in memory whole, and the threads are gone
    /// before the replay starts. The read is most of what this call costs
    /// on a long WAL; the ledger rebuild is the rest. What is read, and
    /// what is refused at which line, offset and seq, does not depend on
    /// their number.
    ///
    /// Returns the runtime, a [`Client`] that will receive the verdicts of
    /// resumed and re-admitted tasks, and a [`RecoveryReport`].
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] when the config has no WAL path, the file cannot
    /// be read, a non-final record is malformed, the segment and the
    /// snapshot beside it do not pair (the message names the seqs; a
    /// checkpoint a crash cut short is finished, not refused), or the
    /// event stream contradicts the deterministic strategy replay.
    pub fn recover<S, F>(
        cfg: RuntimeConfig,
        strategy: S,
        make_worker: F,
        roster: &[(u32, Payload)],
    ) -> Result<(Self, Client, RecoveryReport), RecoveryError>
    where
        S: RedundancyStrategy<bool> + Send + Sync + 'static,
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let verdicts = mpsc::channel();
        let (runtime, report) =
            Self::recover_with(cfg, strategy, make_worker, roster, &verdicts.0)?;
        let client = Client::new(runtime.inbox.clone(), verdicts);
        Ok((runtime, client, report))
    }

    /// [`Runtime::recover`] with the verdict channel supplied by the
    /// caller: the sharded runtime recovers every shard into one shared
    /// verdict stream. Verdicts of resumed and re-admitted tasks arrive on
    /// `verdict_tx`'s receiver.
    pub(crate) fn recover_with<S, F>(
        cfg: RuntimeConfig,
        strategy: S,
        make_worker: F,
        roster: &[(u32, Payload)],
        verdict_tx: &Sender<TaskVerdict>,
    ) -> Result<(Self, RecoveryReport), RecoveryError>
    where
        S: RedundancyStrategy<bool> + Send + Sync + 'static,
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let path = cfg.wal.clone().ok_or(RecoveryError::NoWal)?;
        // No worker exists until this returns, so every core reads: a
        // block each, never the whole file. A flipped bit can break UTF-8
        // itself, and that too surfaces as corruption, not as an
        // unreadable file.
        let prefix = match Journal::read_wal(&path, Threads::Auto.get())? {
            Ok(prefix) => prefix,
            Err(err) => {
                // In-place corruption of an acknowledged record: recovery
                // must never resume past it. Quarantine the damaged
                // segment for forensics so a retry cannot silently
                // re-trip — the error names the byte offset and seq.
                let mut quarantined = path.clone().into_os_string();
                quarantined.push(".quarantined");
                let _ = std::fs::rename(&path, PathBuf::from(quarantined));
                return Err(RecoveryError::Parse(err));
            }
        };

        let ckpt = checkpoint_path(&path);
        let snapshot = ckpt.exists().then(|| CheckpointState::load(&ckpt));
        let (base, journal, interrupted) =
            pair(snapshot, prefix.journal).map_err(RecoveryError::Corrupt)?;
        let ledger = Ledger::new(&cfg, Arc::new(strategy));
        let (ledger, backlog, mut recovery, next_task) =
            rebuild(ledger, base.as_ref(), &journal, roster, verdict_tx)?;
        recovery.torn_tail = prefix.torn;
        let mut wal = WalWriter::resume(&path, prefix.valid_bytes as u64, cfg.wal_sync)?
            .with_batch(cfg.wal_batch)
            .with_checksums(cfg.wal_checksum);
        if interrupted {
            finish(&mut wal, &journal)?;
        }

        let make = Arc::new(make_worker);
        let runtime = spawn_runtime(cfg, ledger, journal, Some(wal), make, backlog, next_task);
        Ok((runtime, recovery))
    }

    /// Creates a submission handle.
    pub fn client(&self) -> Client {
        Client::new(self.inbox.clone(), mpsc::channel())
    }

    /// Whether the coordinator has died (see [`RuntimeRun::crashed`]).
    /// Once true, every verdict it released is in its channel, submissions
    /// go nowhere and [`Runtime::finish`] returns promptly.
    pub fn is_crashed(&self) -> bool {
        self.inbox.gate.crashed.load(Ordering::Acquire)
    }

    /// Shuts down: stops accepting submissions, waits for in-flight tasks
    /// to drain and the pool to join, and returns the run.
    ///
    /// The pool joins every worker that acknowledged each job it was sent.
    /// A worker still owing a message — wedged in `execute`, or its last
    /// reply unread — is detached instead, so a payload that never
    /// returns cannot hold `finish`: it may return while such a thread is
    /// inside `execute`, which then ends without starting a job it holds.
    ///
    /// Every [`Client`] must be dropped first — the runtime and its
    /// clients share one inbox handle whose last drop tells the
    /// coordinator to drain, so `finish` blocks while any client could
    /// still submit.
    pub fn finish(self) -> RuntimeRun {
        let gate = self.inbox.gate.clone();
        drop(self.inbox);
        let (report, journal, crashed) = self.handle.join().expect("coordinator panicked");
        RuntimeRun {
            report,
            admission: gate.counters.snapshot(),
            journal,
            crashed,
        }
    }
}

/// The pure half of recovery, behind [`pair`]: `segment`'s records —
/// past the seal of `base`, the snapshot they follow, if any — folded
/// into `ledger` through the coordinator's own state transitions, with
/// `roster` supplying the payloads the WAL does not carry — open tasks
/// get theirs back (first entry wins), and entries the WAL never saw are
/// admitted fresh, under their original ids, ahead of any new
/// submissions. Returns the ledger, that backlog, the [`RecoveryReport`]
/// (`torn_tail` is the reader's to set) and the next fresh task id.
pub(crate) fn rebuild<S: RedundancyStrategy<bool>>(
    mut ledger: Ledger<S>,
    base: Option<&CheckpointState>,
    segment: &Journal,
    roster: &[(u32, Payload)],
    verdict_tx: &Sender<TaskVerdict>,
) -> Result<(Ledger<S>, VecDeque<Submission>, RecoveryReport, u32), RecoveryError> {
    // Checkpoints are only taken at quiescence, so the snapshot never
    // contributes open tasks or in-flight jobs.
    let records = &segment.events()[usize::from(base.is_some())..];
    if let Some(snap) = base {
        ledger.restore(snap);
    }
    for e in records {
        ledger.replay(e)?;
    }
    let mut backlog = VecDeque::new();
    for &(task, ref payload) in roster {
        if let Some(state) = ledger.open().get(&task) {
            if state.delivery.is_none() {
                let payload = Arc::new(payload.clone());
                ledger.attach(task, Delivery::new(payload, verdict_tx.clone()));
            }
        } else if !ledger.decided().contains(&task) {
            let (payload, verdict_tx) = (Arc::new(payload.clone()), verdict_tx.clone());
            backlog.push_back(Submission {
                task,
                payload,
                verdict_tx,
            });
        }
    }
    let unattached = ledger.open().iter().filter(|(_, s)| s.delivery.is_none());
    if let Some(task) = unattached.map(|(&task, _)| task).min() {
        return Err(RecoveryError::Corrupt(format!(
            "open task {task} missing from roster"
        )));
    }
    let recovery = RecoveryReport {
        torn_tail: false,
        events_replayed: records.len(),
        checkpoint_events: base.map_or(0, |s| s.events),
        tasks_resumed: ledger.open().len(),
        tasks_decided: ledger.decided().len(),
        tasks_seeded: backlog.len(),
        jobs_rearmed: ledger.open().values().map(|s| s.in_flight.len()).sum(),
        // No open task straddles a checkpoint, so the ledger's snapshot +
        // suffix fold is bit-identical to folding the full history.
        report: ledger.report().clone(),
    };
    let max_roster = roster.iter().map(|&(id, _)| id).max();
    let next_task = ledger.max_task().max(max_roster).map_or(0, |m| m + 1);
    Ok((ledger, backlog, recovery, next_task))
}

/// Builds the WAL writer of a fresh run, with the configured group-commit
/// batch and checksum framing, after removing any snapshot left beside it.
fn build_wal(path: &std::path::Path, cfg: &RuntimeConfig) -> std::io::Result<WalWriter> {
    discard(path)?;
    Ok(WalWriter::create(path, cfg.wal_sync)?
        .with_batch(cfg.wal_batch)
        .with_checksums(cfg.wal_checksum))
}

/// Starts the worker pool and, over `ledger`, the coordinator's thread.
/// `backlog` is admitted ahead of anything submitted later; new task ids
/// start at `next_task`.
fn spawn_runtime<S: RedundancyStrategy<bool> + Send + Sync + 'static>(
    cfg: RuntimeConfig,
    ledger: Ledger<S>,
    journal: Journal,
    wal: Option<WalWriter>,
    make_worker: WorkerFactory,
    backlog: VecDeque<Submission>,
    next_task: u32,
) -> Runtime {
    let (tx, rx) = mpsc::channel();
    let pool = WorkerPool::spawn(cfg.worker_count(), cfg.node_base, tx.clone(), make_worker);
    let gate = Arc::new(Gate::default());
    let inbox = Inbox {
        tx,
        gate: gate.clone(),
        next_task: AtomicU32::new(next_task),
        queue_cap: cfg.queue_cap.max(1) as u64,
        max_active: cfg.max_active.max(1),
    };
    let driver = Driver::new(&cfg, &journal, wal);
    let coordinator = Coordinator::new(cfg, ledger, journal, pool, gate, backlog);
    Runtime {
        inbox: Arc::new(inbox),
        handle: driver.run(coordinator, rx),
    }
}

/// A dispatched, unresolved job.
struct JobInfo {
    task: u32,
    worker: u32,
    replica: u32,
    epoch: u32,
    /// Stamp of this dispatch, feeding the hedge trigger's latency
    /// estimator when the job genuinely resolves.
    dispatched_at: SimTime,
}

/// How a task ends.
#[derive(Clone, Copy)]
enum Outcome {
    Verdict(bool),
    Capped,
    Poisoned,
}

/// How a job ends ([`Coordinator::resolve`]): a worker replied, panicked
/// inside the job (and was rebuilt in place), or let the deadline pass.
#[derive(Clone, Copy)]
enum End {
    Returned(JobResult),
    Crashed { worker: u32, task: u32 },
    Lapsed,
}

/// What falls due, in firing order at equal instants. The first is keyed
/// by node; the others by `(job, dispatch epoch)`, and one whose job has
/// resolved or was re-dispatched under a newer epoch is stale — though a
/// stale deadline still looks at its worker.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    /// A quarantine sentence ends: armed where `NodeQuarantined` is logged
    /// and, on recovery, from the ledger's release stamps.
    Release,
    /// A job has outlived the hedge threshold.
    Hedge,
    /// A job's deadline, its `eta`, and the worker the job was sent to
    /// ([`Coordinator::lapse`]). It falls due exactly `cfg.deadline` after
    /// the dispatch: [`Coordinator::unheard_since`] reads the dispatch
    /// instant back from it, and `lapse` asserts as much of a live job.
    Deadline(u32),
}

/// What [`Coordinator::launch`] launches and journals: a re-armed job
/// (hung respawn, recovery) under the ids it had and with no record — the
/// log already counted it; a fresh replica at the ledger's cursors, with
/// its `JobDispatched`; or a twin of `origin`, with its `HedgeLaunched`.
#[derive(Clone, Copy)]
enum Record {
    Rearm(Ids),
    Dispatch,
    Hedge(Ids, u32),
}

/// A job's `(job, replica, epoch)`.
type Ids = (u32, u32, u32);

/// The coordinator proper: state, and handlers that are told the time.
/// `P` is the pool it dispatches to — threads in a runtime, a script in
/// the unit tests.
struct Coordinator<S, P> {
    cfg: RuntimeConfig,
    /// Everything the WAL determines — open tasks, the decided set, node
    /// supervision state (which also says who may be dispatched to), the
    /// job-id cursor, live hedge twins, the report — which only `log`
    /// changes.
    ledger: Ledger<S>,
    pool: P,
    /// The pool's global node ids.
    nodes: Range<u32>,
    journal: Journal,
    /// Verdicts decided since the last commit, in log order, each with the
    /// journal length its decision record made, parked until the commit
    /// that holds that record has returned ([`Driver::commit`], the only
    /// place one is sent).
    outbox: Vec<(usize, Sender<TaskVerdict>, TaskVerdict)>,
    jobs: IdMap<JobInfo>,
    /// Per-worker count of the jobs sent to it that its current thread has
    /// not acknowledged, indexed by global node id: what a worker holds
    /// against its credit ([`Self::place`]). It falls only at a message
    /// ([`Self::acknowledge`]) or a respawn, never when a job leaves `jobs`.
    holding: Vec<usize>,
    /// Per-worker respawn count, indexed by global node id: the generation
    /// a job is sent under, and the one a message must carry to return
    /// credit.
    generation: Vec<u32>,
    /// When each worker, indexed by global node id, last sent a message
    /// that returned credit, or was respawned: a deadline of a job sent to
    /// a worker silent since finds the worker wedged ([`Self::lapse`]).
    last_heard: Vec<SimTime>,
    /// Armed timers as `(due, what, job or node, dispatch epoch)`, due in
    /// journal time. A stale entry is skipped when it falls due — but for a
    /// deadline that finds its worker wedged — and dropped earlier once
    /// stale entries outnumber live ones ([`Self::launch`]).
    timers: BinaryHeap<Reverse<(SimTime, Timer, u32, u32)>>,
    /// Twice what the last pruning of `timers` kept, when that was more
    /// than its bound allows, else 0: no pass runs below it.
    prune_at: usize,
    /// One entry per replica opened but not yet handed to a worker (every
    /// worker in good standing at its credit): its task. The replica index
    /// is the task's dispatch cursor in the ledger, as it is on replay.
    pending: VecDeque<u32>,
    /// In-flight jobs to re-dispatch without new journal records, as
    /// `(job, task, replica, epoch)` — from hung-worker respawns and WAL
    /// recovery.
    rearm: VecDeque<(u32, u32, u32, u32)>,
    /// Submissions awaiting admission, oldest first: a recovered roster's
    /// fresh entries, then whatever arrived while `max_active` tasks were
    /// open.
    backlog: VecDeque<Submission>,
    gate: Arc<Gate>,
    draining: bool,
    /// The straggler-hedging trigger (shared decision surface with the
    /// simulators). Estimator state is not journaled: a recovered
    /// coordinator re-warms from scratch, which only delays hedging and
    /// never changes a vote.
    hedge: Option<HedgeTrigger>,
    /// Per-worker dispatch counts, indexed by global node id — the load
    /// signal of [`Assignment::LeastLoaded`].
    worker_loads: Vec<u64>,
    /// The one dispatch rotation: one past the node picked last.
    cursor: u32,
}

fn micros(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

impl<S: RedundancyStrategy<bool>, P: Pool> Coordinator<S, P> {
    /// A coordinator over `ledger` and `pool`, with `backlog` to admit
    /// first. What a recovered ledger holds resumes: unresolved jobs
    /// re-arm in job order without new journal records, and replicas
    /// parked before the crash dispatch in task order — the order a drain
    /// would have processed them. ([`Self::resume`] does the part that
    /// needs the time.)
    fn new(
        cfg: RuntimeConfig,
        ledger: Ledger<S>,
        journal: Journal,
        pool: P,
        gate: Arc<Gate>,
        backlog: VecDeque<Submission>,
    ) -> Self {
        let mut resume: Vec<u32> = ledger.open().keys().copied().collect();
        resume.sort_unstable();
        let mut rearm = Vec::new();
        let mut pending = VecDeque::new();
        for &task in &resume {
            let state = &ledger.open()[&task];
            let flying = state.in_flight.iter();
            rearm.extend(flying.map(|&(job, replica)| (job, task, replica, state.epoch)));
            let parked = (state.replicas - state.dispatched) as usize;
            pending.extend(std::iter::repeat_n(task, parked));
        }
        rearm.sort_unstable();
        gate.active.store(resume.len(), Ordering::Relaxed);
        gate.submitted
            .store(backlog.len() as u64, Ordering::Relaxed);
        let nodes = cfg.node_base..cfg.node_base + cfg.worker_count() as u32;
        Coordinator {
            ledger,
            pool,
            journal,
            outbox: Vec::new(),
            jobs: IdMap::default(),
            holding: vec![0; nodes.end as usize],
            generation: vec![0; nodes.end as usize],
            last_heard: vec![SimTime::ZERO; nodes.end as usize],
            timers: BinaryHeap::new(),
            prune_at: 0,
            pending,
            rearm: rearm.into(),
            backlog,
            gate,
            draining: false,
            hedge: cfg
                .hedge
                .map(|p| HedgeTrigger::new(p).expect("invalid hedge policy")),
            // Indexed by *global* node id, like the ledger's node table.
            worker_loads: vec![0; nodes.end as usize],
            cursor: nodes.start,
            nodes,
            cfg,
        }
    }

    /// What a recovered ledger still owes, before anything else: a
    /// quarantine or poisoning whose record the crash cut off, a
    /// `HedgeWasted` for every twin it left racing, a release timer for
    /// every sentence still running. Then every resumed task is nudged
    /// once: a crash can land between a recorded vote (or abandon) and the
    /// strategy step it should have triggered, leaving a task with nothing
    /// outstanding or queued. `advance` is a no-op while votes are
    /// outstanding. On a fresh ledger all of it is nothing.
    fn resume(&mut self, now: SimTime) {
        let owed = self.ledger.owed();
        self.enact(owed.discipline, now);
        if let Some(task) = owed.poison {
            self.finalize(task, Outcome::Poisoned, now);
        }
        self.cancel_jobs(None, &[], now);
        for node in self.nodes.clone() {
            if let Some(until) = self.ledger.node(node).quarantined_until {
                self.timers.push(Reverse((until, Timer::Release, node, 0)));
            }
        }
        let mut resumed: Vec<u32> = self.ledger.open().keys().copied().collect();
        resumed.sort_unstable();
        for task in resumed {
            self.advance(task, now);
        }
    }

    /// Reacts to one input at `now`, the instant the driver took it.
    fn step(&mut self, input: Input, now: SimTime) {
        match input {
            // Straight in while there is room (and nobody ahead of it);
            // its replicas leave with the turn's other dispatches.
            Input::Submit(sub) if self.backlog.is_empty() && self.has_room() => {
                self.admit(sub, now)
            }
            Input::Submit(sub) => self.backlog.push_back(sub),
            // No ack, so no barrier of its own: whatever the caller
            // observes next is a verdict, released behind a commit that
            // contains this record.
            Input::Annotate(event) => {
                self.log(now, event);
            }
            Input::Reply(reply) => {
                self.acknowledge(reply.worker, reply.generation, now);
                self.resolve(reply.job, reply.epoch, End::Returned(reply), now)
            }
            Input::Crash {
                worker,
                job,
                task,
                epoch,
                generation,
            } => {
                self.acknowledge(worker, generation, now);
                self.resolve(job, epoch, End::Crashed { worker, task }, now)
            }
            // No record: the job is still the deadline's to decide.
            Input::Freed { worker, generation } => self.acknowledge(worker, generation, now),
            Input::Drain => self.draining = true,
        }
    }

    /// The rest of a turn, once its inputs are stepped: one admission from
    /// the backlog, the due timers, then the dispatches — of everything
    /// the turn opened or re-armed, so nothing waits on a wake-up that
    /// may never come. The driver's commit ends the turn. Returns `false`
    /// when there is no next turn: the coordinator drained (and said
    /// `RunEnded`).
    fn turn(&mut self, now: SimTime) -> bool {
        while self.has_room() {
            let Some(sub) = self.backlog.pop_front() else {
                break;
            };
            self.admit(sub, now);
        }
        self.fire_due(now);
        self.drain_pending(now);
        let done = self.draining && self.ledger.open().is_empty() && self.backlog.is_empty();
        if done {
            self.log(now, RunEvent::RunEnded);
        }
        !done
    }

    /// When the earliest armed timer falls due (it may prove stale).
    fn next_due(&self) -> Option<SimTime> {
        self.timers.peek().map(|&Reverse((due, ..))| due)
    }

    /// Fires every timer due at `now`, in time order.
    fn fire_due(&mut self, now: SimTime) {
        while let Some(&Reverse((due, timer, id, epoch))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            match timer {
                Timer::Release => self.release(id, now),
                Timer::Hedge => self.fire_hedge(id, epoch, now),
                Timer::Deadline(worker) => self.lapse(id, epoch, worker, due, now),
            }
        }
    }

    /// Records one event: in the journal, from which the driver's commit
    /// hands it to the WAL, then in the ledger. Effects that die with the
    /// process (a dispatch to an in-process worker) need no barrier before
    /// them: losing their records with them is the same as having crashed
    /// a turn earlier.
    fn log(&mut self, at: SimTime, event: RunEvent) {
        let entry = Stamped {
            at,
            seq: self.journal.next_seq(),
            event,
        };
        self.journal.record(at, event);
        self.ledger
            .apply(&entry)
            .expect("the coordinator logs only events its own state produced");
    }

    /// Whether nothing is open, in flight or parked, so a checkpoint needs
    /// no open-task state and the suffix fold starts from a clean slate.
    fn quiescent(&self) -> bool {
        self.ledger.open().is_empty()
            && self.backlog.is_empty()
            && self.pending.is_empty()
            && self.rearm.is_empty()
            && self.jobs.is_empty()
    }

    /// Whether another task may be open.
    fn has_room(&self) -> bool {
        self.ledger.open().len() < self.cfg.max_active.max(1)
    }

    /// Opens `sub`'s task and takes its first strategy step.
    fn admit(&mut self, sub: Submission, at: SimTime) {
        self.ledger
            .attach(sub.task, Delivery::new(sub.payload, sub.verdict_tx));
        self.gate.admitted.fetch_add(1, Ordering::Relaxed);
        self.gate
            .active
            .store(self.ledger.open().len(), Ordering::Relaxed);
        self.advance(sub.task, at);
    }

    /// Steps the task's strategy until it parks (pending/verdict/cap),
    /// queueing any opened wave's replicas for dispatch.
    fn advance(&mut self, task: u32, at: SimTime) {
        while let Some(step) = self.ledger.step(task) {
            match step {
                WaveStep::Wave { wave, jobs } => {
                    self.log(
                        at,
                        RunEvent::WaveOpened {
                            task,
                            wave: wave as u32,
                            jobs: jobs as u32,
                        },
                    );
                    self.pending.extend(std::iter::repeat_n(task, jobs));
                }
                WaveStep::Pending => return,
                WaveStep::Verdict(v) => return self.finalize(task, Outcome::Verdict(v), at),
                WaveStep::Capped { .. } => return self.finalize(task, Outcome::Capped, at),
            }
        }
    }

    /// How many jobs a worker may hold that it was sent and has not
    /// acknowledged: `2·`[`inbox_cap`](RuntimeConfig::inbox_cap)` + 1`.
    fn credit(&self) -> usize {
        self.cfg.inbox_cap.saturating_mul(2).saturating_add(1)
    }

    /// Chooses a job's worker: the first, cyclically from where the
    /// assignment policy starts, that is in good standing — neither
    /// quarantined nor blacklisted in the ledger — and holds fewer than its
    /// [`credit`](Self::credit) of unacknowledged jobs. `avoid` — a hedge twin's
    /// origin worker — is not offered unless no other worker is in good
    /// standing. `None` when every worker offered is at its credit.
    fn place(&mut self, avoid: Option<u32>) -> Option<u32> {
        let (nodes, ledger) = (self.nodes.clone(), &self.ledger);
        let avoid = avoid.filter(|&a| nodes.clone().any(|n| n != a && ledger.dispatchable(n)));
        let offered = |n: &u32| Some(*n) != avoid && ledger.dispatchable(*n);
        let start = match self.cfg.assignment {
            Assignment::Random => self.cursor,
            policy => {
                let eligible: Vec<u32> = nodes.clone().filter(offered).collect();
                if eligible.is_empty() {
                    return None;
                }
                let load = |&n: &u32| self.worker_loads[n as usize];
                let loads: Vec<u64> = eligible.iter().map(load).collect();
                eligible[policy.pick(&eligible, &loads, self.cursor, 0)]
            }
        };
        let (count, credit) = (nodes.len() as u32, self.credit());
        let first = start.wrapping_sub(nodes.start) % count;
        let mut order = (0..count).map(|i| nodes.start + (first + i) % count);
        let worker = order.find(|n| offered(n) && self.holding[*n as usize] < credit)?;
        self.cursor = worker + 1;
        self.worker_loads[worker as usize] += 1;
        Some(worker)
    }

    /// Puts one job in flight at `at`: hands it to a worker, under the
    /// worker's generation, journals what `record` says, counts it against
    /// the worker's credit, maps it and arms its deadline — and, unless it
    /// is a twin, its hedge check, if the trigger is warm and the
    /// threshold beats the deadline (past it the timeout path abandons the
    /// job anyway). Returns `false` when no worker has credit left and the
    /// caller should park the job; `true` also for a task decided while
    /// parked.
    fn launch(&mut self, task: u32, avoid: Option<u32>, record: Record, at: SimTime) -> bool {
        let Some(state) = self.ledger.open().get(&task) else {
            return true;
        };
        let (job, replica, epoch) = match record {
            Record::Rearm(ids) | Record::Hedge(ids, _) => ids,
            Record::Dispatch => (self.ledger.next_job(), state.dispatched, state.epoch),
        };
        let payload = state.delivery().payload.clone();
        let Some(worker) = self.place(avoid) else {
            return false;
        };
        let assignment = JobAssignment {
            job,
            task,
            replica,
            epoch,
            generation: self.generation[worker as usize],
            payload,
        };
        self.pool.send(worker, assignment);
        let deadline = at + micros(self.cfg.deadline);
        let event = match record {
            Record::Rearm(_) => None,
            Record::Dispatch => Some(RunEvent::JobDispatched {
                job,
                task,
                node: worker,
                eta: deadline,
            }),
            Record::Hedge(_, origin) => Some(RunEvent::HedgeLaunched {
                job,
                task,
                origin,
                epoch,
            }),
        };
        if let Some(event) = event {
            self.log(at, event);
        }
        self.jobs.insert(
            job,
            JobInfo {
                task,
                worker,
                replica,
                epoch,
                dispatched_at: at,
            },
        );
        self.holding[worker as usize] += 1;
        self.timers
            .push(Reverse((deadline, Timer::Deadline(worker), job, epoch)));
        if !matches!(record, Record::Hedge(..)) {
            let threshold = self.hedge.as_ref().and_then(|t| t.threshold());
            if let Some(threshold) = threshold.filter(|&t| t < self.cfg.deadline.as_secs_f64()) {
                let due = at + SimDuration::from_units(threshold);
                self.timers.push(Reverse((due, Timer::Hedge, job, epoch)));
            }
        }
        // A resolved job's timers stay in the heap until they fall due — a
        // whole `deadline` later. A job arms at most two, so past four a
        // job the stale outnumber the live: drop them, and the heap stays
        // O(in flight). The key is total, so firing order is untouched.
        let bound = 4 * self.jobs.len() + 64;
        if self.timers.len() > bound.max(self.prune_at) {
            let mut timers = std::mem::take(&mut self.timers);
            // A release is never stale, and there are few nodes. A
            // resolved job's deadline stays while its worker has said
            // nothing since the dispatch: it may yet find the worker wedged.
            timers.retain(|&Reverse((due, timer, id, epoch))| match timer {
                Timer::Deadline(worker) if self.unheard_since(worker, due) => true,
                _ => timer == Timer::Release || self.fresh(id, epoch).is_some(),
            });
            self.timers = timers;
            // Silent workers' deadlines can keep more than the bound: then
            // the next pass waits for the heap to double, not for a launch.
            let kept = self.timers.len();
            self.prune_at = if kept > bound { 2 * kept } else { 0 };
        }
        true
    }

    /// Hands parked replicas to workers, stopping at the first that finds
    /// every worker at its credit: every turn retries, and a worker's
    /// message — a reply, a crash report, a freed job — or its respawn
    /// returns credit. Re-armed jobs (hung respawns, recovery) go first.
    fn drain_pending(&mut self, at: SimTime) {
        while let Some(&(job, task, replica, epoch)) = self.rearm.front() {
            let rearm = Record::Rearm((job, replica, epoch));
            if !self.launch(task, None, rearm, at) {
                return;
            }
            self.rearm.pop_front();
        }
        while let Some(&task) = self.pending.front() {
            if !self.launch(task, None, Record::Dispatch, at) {
                return;
            }
            self.pending.pop_front();
        }
    }

    /// A message from `worker` about a job sent under `generation`: the
    /// job's credit returns and the worker is heard from — unless a respawn
    /// has since dropped that thread's inbox, and its credit with it.
    fn acknowledge(&mut self, worker: u32, generation: u32, at: SimTime) {
        let w = worker as usize;
        if generation == self.generation[w] {
            self.holding[w] -= 1;
            self.last_heard[w] = at;
        }
    }

    /// The staleness rule for replies and timers alike: a resolved job is
    /// gone from the map, a re-dispatched one carries a newer epoch.
    fn fresh(&self, job: u32, epoch: u32) -> Option<&JobInfo> {
        self.jobs.get(&job).filter(|info| info.epoch == epoch)
    }

    /// A due hedge check: launches a twin if `origin` is still
    /// outstanding. The twin re-runs the *same* `(task, replica)` under
    /// the same epoch — its fault draw, and hence its vote, is identical
    /// to the origin's — on a different worker when one is available.
    /// Twins bypass the wave/job accounting entirely: their launch event
    /// replaces `JobDispatched`.
    fn fire_hedge(&mut self, origin: u32, epoch: u32, at: SimTime) {
        let Some(policy) = self.cfg.hedge else {
            return;
        };
        // Double-fire guards: the origin must still be outstanding under
        // the armed epoch (a timeout reissue or audit void removed it or
        // bumped the epoch), unhedged, and within the task's per-epoch
        // budget.
        let Some(info) = self.fresh(origin, epoch) else {
            return;
        };
        let (task, origin_worker, replica) = (info.task, info.worker, info.replica);
        if self.ledger.pair_of(origin).is_some() {
            return;
        }
        let Some(state) = self.ledger.open().get(&task) else {
            return;
        };
        if state.epoch != epoch || state.exec.hedges_launched() >= policy.max_per_task as usize {
            return;
        }
        let twin = self.ledger.next_job();
        // Best-effort: when no other worker has credit left, the hedge is
        // skipped.
        let record = Record::Hedge((twin, replica, epoch), origin);
        self.launch(task, Some(origin_worker), record, at);
    }

    /// Dissolves a hedge pair, the only place one ends: the twin's single
    /// terminal record — `won` when its reply supplied the replica's vote,
    /// wasted otherwise — and the pair's loser leaves the job map, so its
    /// worker's eventual reply drops as stale.
    fn dissolve(&mut self, origin: u32, twin: u32, task: u32, won: bool, at: SimTime) {
        self.jobs.remove(if won { &origin } else { &twin });
        let event = if won {
            RunEvent::HedgeWon { job: twin, task }
        } else {
            RunEvent::HedgeWasted { job: twin, task }
        };
        self.log(at, event);
    }

    /// Ends one job, one lifecycle for all three ends: stale-drop, pair
    /// settlement, the terminal record the ledger tallies or abandons on,
    /// what that record earned (strikes, poison), the strategy's next step.
    fn resolve(&mut self, job: u32, epoch: u32, end: End, at: SimTime) {
        // A reply counts only if the job is still live *and* carries the
        // epoch it was dispatched under. Late replies after a timeout or
        // verdict, replies from a superseded dispatch and crashes of a
        // detached pre-respawn thread are journaled as dropped — never
        // tallied, so no vote counts twice. A stale deadline just lapses.
        if self.fresh(job, epoch).is_none() {
            if let End::Returned(JobResult { task, .. }) | End::Crashed { task, .. } = end {
                self.log(at, RunEvent::StaleReplyDropped { job, task, epoch });
            }
            return;
        }
        let info = self.jobs.remove(&job).expect("fresh job is mapped");
        let task = info.task;
        let returned = matches!(end, End::Returned(_));
        // A hedge pair is one logical replica: its terminal record carries
        // the ORIGIN's job id, so WAL recovery replays the pair as one.
        let pair = self.ledger.pair_of(job);
        let origin = pair.map_or(job, |(origin, _)| origin);
        let is_twin = pair.is_some_and(|(_, twin)| twin == job);
        let partner_flying =
            pair.is_some_and(|(o, t)| self.jobs.contains_key(if is_twin { &o } else { &t }));
        if partner_flying && !returned {
            // Absorbed: the partner still flying will supply the pair's
            // terminal record, so none is journaled here — the ledger
            // strikes, charges poison and abandons only on that record.
            // A crash's in-place restart is real, though.
            if let End::Crashed { worker, .. } = end {
                self.log_restart(worker, at);
            }
            if is_twin {
                self.dissolve(origin, job, task, false, at);
            }
            return;
        }
        // A reply or a solo deadline miss is a genuine service time for
        // the straggler estimator; a panic is not.
        if !matches!(end, End::Crashed { .. }) {
            if let Some(trigger) = self.hedge.as_mut() {
                trigger.observe(at.since(info.dispatched_at).as_units());
            }
        }
        // A replying twin won, and says so after the vote it supplied.
        // Any other live twin is wasted first: canceled by its origin's
        // reply, or ending solo without a vote.
        let won = is_twin && returned;
        if let Some((_, twin)) = pair.filter(|_| !won) {
            self.dissolve(origin, twin, task, false, at);
        }
        // The terminal record — the ledger tallies the vote on it, or
        // abandons the replica and charges timeout, strike and poison.
        let terminal = match end {
            End::Returned(reply) => RunEvent::JobReturned {
                job: origin,
                task,
                node: reply.worker,
                value: reply.vote,
            },
            End::Crashed { worker, .. } => RunEvent::WorkerCrashed {
                node: worker,
                job: origin,
                task,
            },
            End::Lapsed => RunEvent::JobTimedOut {
                job: origin,
                task,
                node: info.worker,
            },
        };
        self.log(at, terminal);
        if won {
            self.dissolve(origin, job, task, true, at);
        }
        // One read of the task as that record left it; the records that
        // follow restate it and change nothing the strategy sees.
        let state = match end {
            End::Returned(reply) => Some(self.ledger.note_answer(task, reply.vote, reply.answer)),
            _ => self.ledger.open().get(&task),
        };
        let tail = state.map(|s| (s.timeouts, s.exec.waves() as u32, s.exec.wave_boundary()));
        let (leader_count, runner_up) = state.map_or((0, 0), |s| s.exec.leader_counts());
        match end {
            End::Returned(reply) => self.log(
                at,
                RunEvent::VoteTallied {
                    task,
                    value: reply.vote,
                    leader_count: leader_count as u32,
                    runner_up: runner_up as u32,
                },
            ),
            End::Crashed { worker, .. } => self.log_restart(worker, at),
            End::Lapsed => {}
        }
        // A crash's restart record carries what the crash earned across.
        let owed = self.ledger.owed();
        self.enact(owed.discipline, at);
        if owed.poison.is_some() {
            return self.finalize(task, Outcome::Poisoned, at);
        }
        let Some((attempt, wave, boundary)) = tail else {
            return;
        };
        // Reissue: a replica that died or lapsed is replaced by a fresh
        // one (a fresh fault draw — the same replica would fail the same
        // way forever) when the strategy reopens the wave below.
        if matches!(end, End::Lapsed) {
            self.log(at, RunEvent::JobRetried { task, attempt });
        }
        if boundary {
            self.log(at, RunEvent::WaveClosed { task, wave });
        }
        self.advance(task, at);
    }

    /// Journals `node`'s next incarnation (a crash rebuild or a hang
    /// respawn).
    fn log_restart(&mut self, node: u32, at: SimTime) {
        let incarnation = self.ledger.node(node).incarnation + 1;
        self.log(at, RunEvent::WorkerRestarted { node, incarnation });
    }

    /// A due deadline of `job`, sent to `worker`: the job lapses if it is
    /// still live under `epoch`. Live or not, a worker that holds work and
    /// has sent nothing since that dispatch has been inside one `execute`
    /// call for a whole deadline, and is respawned after the lapse's records.
    fn lapse(&mut self, job: u32, epoch: u32, worker: u32, due: SimTime, at: SimTime) {
        if let Some(info) = self.fresh(job, epoch) {
            let armed = info.dispatched_at + micros(self.cfg.deadline);
            debug_assert_eq!(armed, due, "a deadline is armed at its dispatch");
            self.resolve(job, epoch, End::Lapsed, at);
        }
        if self.holding[worker as usize] > 0 && self.unheard_since(worker, due) {
            self.respawn_worker(worker, at);
        }
    }

    /// Whether `worker` has said nothing — and was not respawned — since
    /// the dispatch whose deadline is `due`, which is `cfg.deadline` after
    /// it ([`Timer::Deadline`]).
    fn unheard_since(&self, worker: u32, due: SimTime) -> bool {
        self.last_heard[worker as usize] + micros(self.cfg.deadline) <= due
    }

    /// Replaces `worker`'s thread, bumping the epoch of every task with
    /// jobs lost on it and re-arming them. Its whole credit returns with the
    /// old inbox, and a new generation makes the old thread's messages void.
    fn respawn_worker(&mut self, worker: u32, at: SimTime) {
        self.log_restart(worker, at);
        self.pool.respawn(worker);
        self.holding[worker as usize] = 0;
        self.generation[worker as usize] += 1;
        self.last_heard[worker as usize] = at;
        // Everything in flight on that worker — the wedged job plus its
        // queued inbox — died with it. Bump each affected task's epoch
        // (so the detached thread's eventual reply is rejected) and
        // re-dispatch the same jobs under the new epoch, without new
        // journal records. Both walks go in job order, so the epochs are
        // logged in that order too.
        let mut lost: Vec<(u32, u32, u32)> = self
            .jobs
            .iter()
            .filter(|(_, info)| info.worker == worker)
            .map(|(&job, info)| (job, info.task, info.replica))
            .collect();
        lost.sort_unstable();
        let mut bumped = IdSet::default();
        for &(_, task, _) in &lost {
            if bumped.insert(task) {
                let Some(state) = self.ledger.open().get(&task) else {
                    continue;
                };
                let epoch = state.epoch + 1;
                self.log(at, RunEvent::EpochAdvanced { task, epoch });
            }
        }
        for (job, task, replica) in lost {
            if self.jobs.remove(&job).is_none() {
                continue; // canceled while handling an earlier pair member
            }
            if let Some((origin, twin)) = self.ledger.pair_of(job) {
                let partner = if twin == job { origin } else { twin };
                if self.jobs.contains_key(&partner) {
                    // A twin lost with its worker is settled and its
                    // origin keeps flying (recovery never re-arms twins,
                    // so the live run must not either); a hedged origin is
                    // re-armed below, its twin canceled, and stays the
                    // pair's sole voter.
                    self.dissolve(origin, twin, task, false, at);
                    if twin == job {
                        continue;
                    }
                }
            }
            let Some(state) = self.ledger.open().get(&task) else {
                continue;
            };
            self.rearm.push_back((job, task, replica, state.epoch));
        }
    }

    /// Carries out a discipline action the ledger says a strike earned —
    /// but never sidelines the last worker in good standing, which would
    /// livelock the pool. A quarantine arms its own release.
    fn enact(&mut self, owed: Option<(u32, DisciplineAction)>, at: SimTime) {
        let Some((worker, action)) = owed else {
            return;
        };
        let standing = |&n: &u32| self.ledger.dispatchable(n);
        if !standing(&worker) || self.nodes.clone().filter(standing).count() <= 1 {
            return; // already sidelined / livelock guard
        }
        let event = match action {
            DisciplineAction::None => return,
            DisciplineAction::Quarantine => RunEvent::NodeQuarantined { node: worker },
            DisciplineAction::Blacklist => RunEvent::NodeDeparted {
                node: worker,
                reason: DepartureReason::Blacklist,
            },
        };
        self.log(at, event);
        if let Some(until) = self.ledger.node(worker).quarantined_until {
            self.timers
                .push(Reverse((until, Timer::Release, worker, 0)));
        }
    }

    /// A due release: re-admits `node` if its sentence has run (and it
    /// was not blacklisted meanwhile). Probationary — the ledger starts
    /// it: the node's next results force audits until it has proven
    /// itself again.
    fn release(&mut self, node: u32, at: SimTime) {
        let due = self.ledger.node(node).quarantined_until;
        if due.is_some_and(|until| at >= until) {
            self.log(at, RunEvent::NodeReleased { node });
        }
    }

    /// Runs one audit group on `task` at verdict time: log the schedule,
    /// recompute the payload locally, and compare every recorded return
    /// against the honest value. Returns `true` when the verdict stands;
    /// `false` when it was voided and the task restarted.
    fn run_audit(&mut self, task: u32, value: bool, at: SimTime) -> bool {
        self.log(at, RunEvent::AuditScheduled { task });
        // The local recomputation costs one job-equivalent of coordinator
        // compute (counted in `report.audits`, and in `total_cost()` for
        // matched-cost comparisons). A recorded vote is the server-checked
        // claim "my answer equals the honest value", so each return's
        // comparison against the recomputation is exactly its vote bit —
        // which keeps audit outcomes a pure function of the journaled
        // stream, replayable after a crash.
        let state = &self.ledger.open()[&task];
        let _honest = state.delivery().payload.execute();
        let liars: Vec<(u32, u32)> = state
            .returns
            .iter()
            .filter(|&&(_, _, vote)| !vote)
            .map(|&(job, node, _)| (job, node))
            .collect();
        if liars.is_empty() {
            self.log(at, RunEvent::AuditPassed { task });
            return true;
        }
        for &(_, node) in &liars {
            self.log(at, RunEvent::AuditFailed { task, node });
            self.enact(self.ledger.owed().discipline, at);
        }
        // Retaliation: the caught liars' other open work can no longer be
        // trusted — re-tally every open task they touched from scratch.
        let caught: IdSet = liars.iter().map(|&(_, node)| node).collect();
        let mut touched: Vec<u32> = self
            .ledger
            .open()
            .iter()
            .filter(|(&t, s)| t != task && s.returns.iter().any(|&(_, n, _)| caught.contains(&n)))
            .map(|(&t, _)| t)
            .collect();
        touched.sort_unstable();
        for t in touched {
            self.void_attempt(t, RunEvent::TaskRetallied { task: t }, at);
            self.advance(t, at);
        }
        if value {
            // Liars voted, but the tally's winner matches the
            // recomputation: the verdict stands. (The task leaves the
            // ledger at finalize, so its `must_audit` flag dies with it.)
            return true;
        }
        // The coalition won the tally: the would-be verdict contradicts
        // the recomputation. Void it before acceptance and re-run the
        // task — no `VerdictReached` is ever logged for this attempt.
        self.void_attempt(task, RunEvent::VerdictVoided { task }, at);
        self.advance(task, at);
        false
    }

    /// Voids a task's current attempt under `event` (`VerdictVoided` or
    /// `TaskRetallied`): the ledger burns the attempt's evidence and
    /// resets the strategy to wave 1 with a fresh job budget; here its
    /// jobs are dropped and its parked dispatches forgotten. Replica
    /// ordinals and epochs stay monotone so fault draws never repeat
    /// across attempts.
    fn void_attempt(&mut self, task: u32, event: RunEvent, at: SimTime) {
        let origins = self.ledger.open()[&task].in_flight.clone();
        self.log(at, event);
        self.pending.retain(|&t| t != task);
        self.rearm.retain(|&(_, t, _, _)| t != task);
        self.cancel_jobs(Some(task), &origins, at)
    }

    /// Drops every job of `task` still flying — `origins`, its unresolved
    /// replicas, and any hedge twin — so their late replies fail the
    /// job-map freshness check, and settles the twins as wasted, in job
    /// order. With no task: every twin a recovered WAL prefix left
    /// unsettled.
    fn cancel_jobs(&mut self, task: Option<u32>, origins: &[(u32, u32)], at: SimTime) {
        for &(job, _) in origins {
            self.jobs.remove(&job);
        }
        for (origin, twin, task) in self.ledger.twins(task) {
            self.dissolve(origin, twin, task, false, at);
        }
    }

    fn finalize(&mut self, task: u32, outcome: Outcome, at: SimTime) {
        // Verdicts pass through the audit layer before they are accepted:
        // a spot-checked (or probation-flagged) task is recomputed
        // locally, and a tainted verdict is voided instead of delivered.
        // Once any audit has caught a liar, spot-checking runs at
        // [`AuditPolicy::escalated_rate`].
        if let Outcome::Verdict(value) = outcome {
            if self.cfg.audit.is_enabled() {
                let escalated = self.ledger.report().audit_failures > 0;
                let selected = self.ledger.open()[&task].must_audit
                    || self
                        .cfg
                        .audit
                        .selects(self.cfg.audit_seed, u64::from(task), escalated);
                if selected && !self.run_audit(task, value, at) {
                    return;
                }
            }
        }
        // The exactly-once anchor: a recovered coordinator treats a logged
        // decision as delivered and never re-runs or re-sends it.
        let event = match outcome {
            Outcome::Verdict(value) => RunEvent::VerdictReached {
                task,
                value,
                degraded: false,
                confidence: 1.0,
            },
            Outcome::Capped => RunEvent::TaskCapped { task },
            Outcome::Poisoned => RunEvent::TaskPoisoned {
                task,
                crashes: self.ledger.open()[&task].poison.crashes(),
            },
        };
        self.log(at, event);
        // The verdict is parked, not sent: it leaves when the commit that
        // holds its decision has returned (and fsynced, when syncing).
        let decided = self.journal.len();
        let mut state = self.ledger.take_closed().expect("finalizing a live task");
        self.gate
            .active
            .store(self.ledger.open().len(), Ordering::Relaxed);
        let delivery = state.delivery.take().expect("attached at admission");
        let vote = match outcome {
            Outcome::Verdict(value) => Some(value),
            _ => None,
        };
        let verdict = TaskVerdict {
            task,
            vote,
            answer: vote.and_then(|value| delivery.answers[usize::from(value)]),
            poisoned: matches!(outcome, Outcome::Poisoned),
            latency_units: state
                .first_dispatch
                .map_or(0.0, |started| at.since(started).as_units()),
            jobs: state.exec.jobs_deployed() as u32,
        };
        self.outbox.push((decided, delivery.verdict_tx, verdict));
        self.cancel_jobs(Some(task), &state.in_flight, at);
    }
}

/// Everything of a coordinator's run that can fail or end it: the WAL
/// writer, the per-turn commit that releases verdicts, the checkpoint I/O,
/// and death. Its thread ([`Driver::run`]) steps the coordinator, and so
/// does the unit tests' rig; a coordinator is dead once its driver stops
/// stepping it.
struct Driver {
    wal: Option<WalWriter>,
    /// Journal entries handed to the WAL so far: a prefix of the journal.
    appended: usize,
    /// The journal length at which the crash hook fires: the entries this
    /// life began with plus [`RuntimeConfig::crash_after_events`].
    dies_at: Option<usize>,
    /// `Journal::next_seq` at the last checkpoint (or this life's start),
    /// for the [`RuntimeConfig::checkpoint_every`] threshold.
    last_ckpt: u64,
    dead: bool,
}

impl Driver {
    /// A driver for a coordinator whose `journal` is already durable (empty
    /// on a fresh run, the replayed segment on a recovered one).
    fn new(cfg: &RuntimeConfig, journal: &Journal, wal: Option<WalWriter>) -> Self {
        let appended = journal.len();
        Driver {
            wal,
            appended,
            dies_at: cfg.crash_after_events.map(|n| appended + n as usize),
            last_ckpt: journal.next_seq(),
            dead: false,
        }
    }

    /// The driver's thread, which owns the inbox's receiver, the wall clock
    /// and `c`. Journal time is micros since this call — made on the
    /// caller's thread, so the epoch lies inside `Runtime::start` — plus the
    /// last recovered stamp: 1 unit = 1 second, monotone across restarts.
    /// It is read once for each input *as it leaves the channel*, so a
    /// record is never stamped earlier than what caused it, and once for
    /// the rest of the turn ([`Coordinator::turn`]). The thread sleeps
    /// until an input arrives or the earliest armed timer falls due,
    /// whichever is first; nothing wakes it otherwise.
    fn run<S, P>(
        mut self,
        mut c: Coordinator<S, P>,
        inbox: Receiver<Input>,
    ) -> JoinHandle<(RuntimeReport, Journal, bool)>
    where
        S: RedundancyStrategy<bool> + Send + Sync + 'static,
        P: Pool + Send + 'static,
    {
        let start = std::time::Instant::now();
        let base = c.ledger.last_at().as_micros();
        let clock = move || SimTime::from_micros(base + start.elapsed().as_micros() as u64);
        let drive = move || {
            c.resume(clock());
            while self.turn(&mut c, clock()) {
                let mut input = match c.next_due() {
                    // The pool holds a sender: no wait ends disconnected.
                    None => inbox.recv().ok(),
                    Some(due) => {
                        let left = due.as_micros().saturating_sub(clock().as_micros());
                        inbox.recv_timeout(Duration::from_micros(left)).ok()
                    }
                };
                while let Some(next) = input {
                    c.step(next, clock());
                    input = inbox.try_recv().ok();
                }
            }
            c.gate.crashed.store(self.dead, Ordering::Release);
            let report = self.report(&c);
            c.pool.shutdown(&c.holding);
            (report, c.journal, self.dead)
        };
        std::thread::Builder::new()
            .name("smartred-coordinator".into())
            .spawn(drive)
            .expect("spawn coordinator thread")
    }

    /// Steps `c`'s turn at `now` and ends it: the commit, then — at a
    /// quiescent turn's end — a checkpoint if one is due. Returns whether
    /// there is a next turn: `false` once `c` drained or died.
    fn turn<S: RedundancyStrategy<bool>, P: Pool>(
        &mut self,
        c: &mut Coordinator<S, P>,
        now: SimTime,
    ) -> bool {
        let more = c.turn(now);
        if self.commit(c) && more && c.quiescent() {
            self.checkpoint(c, now);
        }
        more && !self.dead
    }

    /// The write-ahead barrier and the only release point: hands the WAL
    /// the journal's new entries in log order — up to the crash hook's,
    /// when it falls due — commits them in one `write` (and `fdatasync`
    /// under [`RuntimeConfig::wal_sync`]), then sends the parked verdicts
    /// whose decisions are in the file. Without a WAL it only releases.
    /// Returns `false`, and the coordinator is dead, when the hook's entry
    /// is committed or the writer failed — which sends nothing of this
    /// commit, since the batch may not be durable.
    fn commit<S, P>(&mut self, c: &mut Coordinator<S, P>) -> bool {
        let (start, logged) = (self.appended, c.journal.len());
        let end = self.dies_at.map_or(logged, |n| n.min(logged));
        // `Err` holds how many entries the writer was handed, the one it
        // failed on included.
        let written = self.wal.as_mut().map_or(Ok(()), |wal| {
            let mut fresh = c.journal.events()[start..end].iter().zip(start + 1..);
            fresh
                .try_for_each(|(entry, handed)| wal.append(entry).map_err(|_| handed))
                .and_then(|()| wal.commit().map_err(|_| end))
        });
        self.appended = written.err().unwrap_or(end);
        self.dead = written.is_err();
        for (decided, verdict_tx, verdict) in c.outbox.drain(..) {
            if !self.dead && decided <= end {
                let _ = verdict_tx.send(verdict);
            }
        }
        self.dead |= self.dies_at == Some(end);
        if self.dead {
            // The dead run's journal is what its WAL was handed.
            c.journal.truncate(self.appended);
        }
        !self.dead
    }

    /// Takes a checkpoint once [`RuntimeConfig::checkpoint_every`] records
    /// have accumulated since the last: behind the turn's commit, atomically
    /// stores the snapshot beside the WAL, truncates the segment, and seals
    /// the fresh one with a [`RunEvent::CheckpointTaken`] record whose `seq`
    /// is the compacted event count. Every crash window inside this sequence is
    /// recoverable — see the `checkpoint` module docs. A failed store
    /// leaves the old segment intact and skips this checkpoint; a failed
    /// truncation kills the coordinator.
    fn checkpoint<S: RedundancyStrategy<bool>, P: Pool>(
        &mut self,
        c: &mut Coordinator<S, P>,
        at: SimTime,
    ) {
        let (Some(every), Some(path)) = (c.cfg.checkpoint_every, &c.cfg.wal) else {
            return;
        };
        let events = c.journal.next_seq();
        if events.saturating_sub(self.last_ckpt) < every.max(1) {
            return;
        }
        // Tried again only after another interval's worth of events.
        self.last_ckpt = events;
        let state = c.ledger.checkpoint(events, at);
        if state.store(&checkpoint_path(path)).is_err() {
            return;
        }
        if self.wal.as_mut().is_some_and(|wal| wal.truncate().is_err()) {
            self.dead = true;
            return c.journal.truncate(self.appended);
        }
        c.log(at, state.seal());
        self.commit(c);
        self.last_ckpt = c.journal.next_seq();
    }

    /// The run's report: the ledger's — or, for a dead coordinator, whose
    /// ledger ran on past the records its WAL was handed, the fold of the
    /// journal it was cut to.
    fn report<S: RedundancyStrategy<bool>, P>(&self, c: &Coordinator<S, P>) -> RuntimeReport {
        match self.dead {
            true => report_from_journal(&c.journal),
            false => c.ledger.report().clone(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests;
