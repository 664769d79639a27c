//! The sharded multi-coordinator runtime: N independent coordinators
//! behind one admission gate.
//!
//! A single coordinator thread owns every tally, deadline, audit, and WAL
//! append — the throughput ceiling and recovery bottleneck of the live
//! runtime. Sharding splits that ownership: tasks hash by id
//! ([`smartred_core::execution::shard_of`]) to one of N coordinators, each
//! with its own WAL segment (`wal-shard-<k>.jsonl`), its own worker
//! sub-pool over a disjoint global node-id span
//! ([`smartred_core::execution::shard_worker_span`]), and its own
//! journal. In front sits admission control and load shedding, and no
//! thread: a client that gets past the gate sends its submission straight
//! to the owning shard's inbox, which is unbounded, so the send never
//! blocks.
//!
//! ## The journal contract
//!
//! Each shard's journal is an ordinary single-coordinator event stream.
//! [`Journal::merge_sharded`] merges them deterministically — by sim-time,
//! then shard id, then per-shard seq — into one stream that replays
//! through [`report_from_journal`] to the same report shape as a
//! single-coordinator run. With one shard the merge is the identity
//! (digest-preserving), so N=1 behaves bit-identically to the unsharded
//! runtime.
//!
//! ## Sharded recovery
//!
//! Shard WALs share nothing, so [`ShardedRuntime::recover`] replays them
//! independently and in parallel (scoped threads via
//! [`smartred_core::parallel::map_indexed`]): recovery time is
//! proportional to the *largest* shard's log, not the whole run. Each
//! shard recovers exactly-once semantics on its own — decided tasks are
//! never re-run or re-delivered — and all recovered verdicts fan into one
//! shared client.
//!
//! ## Admission
//!
//! The admission gate is a global outstanding-task counter checked
//! against [`ShardedConfig::admission_cap`]: a submission is shed iff the
//! counter is full, *before* any task id is drawn or routed. Shed
//! accounting is therefore a pure function of the submission/verdict
//! interleaving — the same number of submissions shed at matched capacity
//! no matter how many shards sit behind the gate. It is the only gate: a
//! shard's own `queue_cap` is not consulted, since outstanding submissions
//! never exceed the cap, whichever shards they hash to.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use smartred_core::execution::{shard_of, shard_worker_span};
use smartred_core::parallel::{map_indexed, Threads};
use smartred_core::strategy::RedundancyStrategy;
use smartred_desim::journal::{Journal, RunEvent};

use crate::coordinator::{
    AdmissionCounters, AdmissionStats, Inbox, Input, Runtime, RuntimeConfig, RuntimeRun,
    Submission, SubmitOutcome, TaskVerdict,
};
use crate::recovery::{RecoveryError, RecoveryReport};
use crate::report::{report_from_journal, RuntimeReport};
use crate::worker::Worker;
use crate::workload::Payload;

/// Configuration of a sharded runtime.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Per-shard coordinator template. `base.workers` is the *total*
    /// worker budget across all shards (split into disjoint sub-pools by
    /// [`shard_worker_span`]); `base.wal` is ignored in favor of
    /// [`ShardedConfig::wal_dir`]; everything else applies to each shard
    /// as-is.
    pub base: RuntimeConfig,
    /// Number of coordinator shards (clamped up to 1).
    pub shards: usize,
    /// Directory for the per-shard WAL segments `wal-shard-<k>.jsonl`.
    /// `None` disables write-ahead logging.
    pub wal_dir: Option<PathBuf>,
    /// The admission cap: the maximum number of outstanding
    /// (admitted, verdict not yet received) tasks. Submissions past it
    /// are shed. Shed counts at matched capacity are independent of the
    /// shard count.
    pub admission_cap: usize,
    /// Chaos hook: per-shard [`RuntimeConfig::crash_after_events`]
    /// overrides, indexed by shard id. Lets a test crash different shards
    /// at different points of their own event streams. Test-only.
    pub crash_after: Option<Vec<Option<u64>>>,
}

impl ShardedConfig {
    /// A sharded config over `shards` coordinators with default per-shard
    /// settings and an admission cap equal to the default queue depth.
    pub fn new(shards: usize) -> Self {
        let base = RuntimeConfig::default();
        let admission_cap = base.queue_cap;
        Self {
            base,
            shards,
            wal_dir: None,
            admission_cap,
            crash_after: None,
        }
    }

    /// The WAL segment path of shard `k` under `dir`.
    pub fn wal_segment(dir: &Path, k: usize) -> PathBuf {
        dir.join(format!("wal-shard-{k}.jsonl"))
    }

    /// Total worker budget across all shards.
    fn total_workers(&self) -> usize {
        self.base
            .workers
            .unwrap_or_else(|| Threads::Auto.get())
            .max(1)
    }

    /// The resolved [`RuntimeConfig`] of shard `k`.
    fn shard_cfg(&self, k: usize) -> RuntimeConfig {
        let shards = self.shards.max(1);
        let (node_base, count) = shard_worker_span(self.total_workers(), shards, k);
        let mut cfg = self.base.clone();
        cfg.workers = Some(count);
        cfg.node_base = node_base;
        cfg.wal = self.wal_dir.as_ref().map(|d| Self::wal_segment(d, k));
        if let Some(crash) = &self.crash_after {
            cfg.crash_after_events = crash.get(k).copied().flatten();
        }
        cfg
    }
}

/// The finished sharded run: per-shard runs plus the merged view.
#[derive(Debug)]
pub struct ShardedRun {
    /// Each shard's own [`RuntimeRun`], indexed by shard id.
    pub shards: Vec<RuntimeRun>,
    /// The deterministic merge of the per-shard journals (by sim-time,
    /// then shard id, then seq) — the stream [`report_from_journal`]
    /// replays to the same report shape as a single-coordinator run.
    ///
    /// For a run recovered from *checkpointed* shard WALs this merge
    /// covers only the post-seal suffixes (each shard's in-memory
    /// journal resumes at its snapshot seq), so it is a partial history
    /// by design — the pre-checkpoint events live in the snapshots, not
    /// the segments.
    pub journal: Journal,
    /// The merged report, replayed from [`ShardedRun::journal`].
    ///
    /// Same caveat: after a checkpointed recovery this fold sees only
    /// the suffix, so the authoritative full-history totals are the
    /// per-shard [`RecoveryReport::report`]s carried forward by each
    /// coordinator, not this merge.
    pub report: RuntimeReport,
    /// The admission gate's tally (sheds never reach any shard and are
    /// not journaled).
    pub admission: AdmissionStats,
    /// Whether any shard hit its chaos crash point.
    pub crashed: bool,
}

impl From<ShardedRun> for RuntimeRun {
    /// The merged view as one run; the per-shard runs are dropped.
    fn from(run: ShardedRun) -> Self {
        RuntimeRun {
            report: run.report,
            admission: run.admission,
            journal: run.journal,
            crashed: run.crashed,
        }
    }
}

/// The admission gate, shared by the runtime and its clients.
#[derive(Debug)]
struct Front {
    next_task: AtomicU32,
    /// Tasks admitted whose verdict no client has received yet.
    outstanding: AtomicUsize,
    counters: AdmissionCounters,
    admission_cap: usize,
    accept_below: usize,
}

/// A sharded live runtime: N coordinators, their worker sub-pools, and
/// nothing else.
///
/// Create with [`ShardedRuntime::start`] (or
/// [`ShardedRuntime::recover`]), submit through [`ShardedRuntime::client`]
/// handles, then drop every client and call [`ShardedRuntime::finish`].
#[derive(Debug)]
pub struct ShardedRuntime {
    shards: Vec<Runtime>,
    front: Arc<Front>,
}

impl ShardedRuntime {
    /// Starts `cfg.shards` coordinators. `make_worker`
    /// builds the executor for each *global* node id — cartel membership
    /// and fault seeding see one id space regardless of the shard count.
    pub fn start<S, F>(cfg: ShardedConfig, strategy: S, make_worker: F) -> Self
    where
        S: RedundancyStrategy<bool> + Clone + Send + Sync + 'static,
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let shards = cfg.shards.max(1);
        let make: Arc<dyn Fn(u32) -> Box<dyn Worker> + Send + Sync> = Arc::new(make_worker);
        let runtimes: Vec<Runtime> = (0..shards)
            .map(|k| {
                let make = make.clone();
                Runtime::start(cfg.shard_cfg(k), strategy.clone(), move |w| make(w))
            })
            .collect();
        Self::assemble(&cfg, runtimes, 0, 0)
    }

    /// Restarts a crashed sharded run from its per-shard WAL segments,
    /// replaying the segments **in parallel** — one scoped thread per
    /// shard, so recovery time tracks the largest shard's log. Each of
    /// those threads reads its segment as [`Runtime::recover`] does, on up
    /// to [`Threads::Auto`] reader threads of its own while the segment is
    /// longer than one block: shards × readers threads at most, each
    /// holding one block, all gone before this returns.
    ///
    /// `roster` maps task ids to payloads exactly as in
    /// [`Runtime::recover`]; it is partitioned by [`shard_of`] and each
    /// shard recovers only its own tasks. Verdicts of resumed and
    /// re-admitted tasks arrive on the returned client.
    ///
    /// # Errors
    ///
    /// The first shard's [`RecoveryError`], if any shard fails to
    /// recover.
    pub fn recover<S, F>(
        cfg: ShardedConfig,
        strategy: S,
        make_worker: F,
        roster: &[(u32, Payload)],
    ) -> Result<(Self, ShardedClient, Vec<RecoveryReport>), RecoveryError>
    where
        S: RedundancyStrategy<bool> + Clone + Send + Sync + 'static,
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let shards = cfg.shards.max(1);
        let make: Arc<dyn Fn(u32) -> Box<dyn Worker> + Send + Sync> = Arc::new(make_worker);
        let (verdict_tx, verdict_rx) = mpsc::channel();
        let mut rosters: Vec<Vec<(u32, Payload)>> = vec![Vec::new(); shards];
        for (task, payload) in roster {
            rosters[shard_of(*task, shards)].push((*task, payload.clone()));
        }
        let results = map_indexed(shards, Threads::fixed(shards), |k| {
            let make = make.clone();
            Runtime::recover_with(
                cfg.shard_cfg(k),
                strategy.clone(),
                move |w| make(w),
                &rosters[k],
                &verdict_tx,
            )
        });
        let mut runtimes = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        for result in results {
            let (runtime, report) = result?;
            runtimes.push(runtime);
            reports.push(report);
        }
        let next_task = runtimes
            .iter()
            .map(|r| r.inbox.next_task.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        let outstanding: usize = reports
            .iter()
            .map(|r| r.tasks_resumed + r.tasks_seeded)
            .sum();
        let runtime = Self::assemble(&cfg, runtimes, next_task, outstanding);
        let client = runtime.client_on((verdict_tx, verdict_rx));
        Ok((runtime, client, reports))
    }

    fn assemble(
        cfg: &ShardedConfig,
        shards: Vec<Runtime>,
        next_task: u32,
        outstanding: usize,
    ) -> Self {
        let front = Front {
            next_task: AtomicU32::new(next_task),
            outstanding: AtomicUsize::new(outstanding),
            counters: AdmissionCounters::default(),
            admission_cap: cfg.admission_cap.max(1),
            accept_below: cfg.base.max_active.max(1).saturating_mul(cfg.shards.max(1)),
        };
        Self {
            shards,
            front: Arc::new(front),
        }
    }

    /// Creates a submission handle. Clones of the handle (and further
    /// calls) share the admission gate but receive verdicts only for
    /// their own submissions.
    pub fn client(&self) -> ShardedClient {
        self.client_on(mpsc::channel())
    }

    fn client_on(
        &self,
        (verdict_tx, verdict_rx): (Sender<TaskVerdict>, Receiver<TaskVerdict>),
    ) -> ShardedClient {
        ShardedClient {
            inboxes: self.shards.iter().map(|r| r.inbox.clone()).collect(),
            front: self.front.clone(),
            verdict_tx,
            verdict_rx,
        }
    }

    /// Whether any shard's coordinator has hit its chaos crash point.
    pub fn is_crashed(&self) -> bool {
        self.shards.iter().any(Runtime::is_crashed)
    }

    /// Shuts down: finishes every shard, and returns the per-shard runs
    /// plus the deterministic merged journal/report.
    ///
    /// Every [`ShardedClient`] must be dropped first, exactly as with
    /// [`Runtime::finish`]: each holds every shard's inbox handle.
    pub fn finish(self) -> ShardedRun {
        // Per-shard admission stays zero: clients gate here, not there.
        let shards: Vec<RuntimeRun> = self.shards.into_iter().map(Runtime::finish).collect();
        let parts: Vec<Journal> = shards.iter().map(|run| run.journal.clone()).collect();
        let journal = Journal::merge_sharded(&parts);
        let report = report_from_journal(&journal);
        let crashed = shards.iter().any(|run| run.crashed);
        ShardedRun {
            shards,
            journal,
            report,
            admission: self.front.counters.snapshot(),
            crashed,
        }
    }
}

/// A submission handle to a [`ShardedRuntime`]. Task ids are assigned
/// globally and routed to shards by [`shard_of`]; admission is decided at
/// the global gate before routing.
#[derive(Debug)]
pub struct ShardedClient {
    /// Every shard's inbox, by shard id.
    inboxes: Vec<Arc<Inbox>>,
    front: Arc<Front>,
    verdict_tx: Sender<TaskVerdict>,
    verdict_rx: Receiver<TaskVerdict>,
}

impl ShardedClient {
    /// The inbox of the shard that owns `task`.
    fn shard(&self, task: u32) -> &Inbox {
        &self.inboxes[shard_of(task, self.inboxes.len())]
    }

    /// Submits one task to the shard that owns it. Never blocks: when the
    /// admission gate is full — `admission_cap` tasks admitted and not
    /// yet resolved — the submission is shed *before* a task id is
    /// burned, and the count of sheds at matched capacity is independent
    /// of the shard count.
    pub fn submit(&self, payload: Payload) -> SubmitOutcome {
        let front = &*self.front;
        let admitted = front
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < front.admission_cap).then_some(n + 1)
            });
        let Ok(prev) = admitted else {
            front.counters.shed.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Shed;
        };
        let task = front.next_task.fetch_add(1, Ordering::Relaxed);
        let submission = Submission {
            task,
            payload: Arc::new(payload),
            verdict_tx: self.verdict_tx.clone(),
        };
        if !self.shard(task).send(Input::Submit(submission)) {
            // The shard is gone (crashed): nothing will answer.
            self.release();
            front.counters.shed.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Shed;
        }
        if prev < front.accept_below {
            front.counters.accepted.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Accepted { task }
        } else {
            front.counters.queued.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Queued { task }
        }
    }

    /// Journals `event` durably into the owning shard's WAL (routed like
    /// a submission: by the task the event references — so
    /// `merge_sharded` keeps it next to that task's events — and to shard
    /// 0 for task-less events such as stage verdicts). Annotations bypass
    /// the admission gate — they resolve no verdict — and neither block
    /// nor shed (see [`crate::Client::annotate`]); returns `false` once
    /// the shard has shut down or crashed.
    pub fn annotate(&self, event: RunEvent) -> bool {
        let shard = event
            .task()
            .map_or(&*self.inboxes[0], |task| self.shard(task));
        shard.send(Input::Annotate(event))
    }

    /// Blocks for this client's next verdict; `None` once the runtime
    /// has shut down and no verdicts remain.
    pub fn recv(&self) -> Option<TaskVerdict> {
        let verdict = self.verdict_rx.recv().ok()?;
        self.release();
        Some(verdict)
    }

    /// Like [`recv`](Self::recv) with a timeout; `None` on timeout or
    /// shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict> {
        let verdict = self.verdict_rx.recv_timeout(timeout).ok()?;
        self.release();
        Some(verdict)
    }

    /// Returns one admission slot to the gate.
    fn release(&self) {
        let _ = self
            .front
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }
}

impl Clone for ShardedClient {
    fn clone(&self) -> Self {
        let (verdict_tx, verdict_rx) = mpsc::channel();
        Self {
            inboxes: self.inboxes.clone(),
            front: self.front.clone(),
            verdict_tx,
            verdict_rx,
        }
    }
}
