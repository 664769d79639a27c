//! The sharded multi-coordinator runtime: N independent coordinators
//! behind one thin router.
//!
//! A single coordinator thread owns every tally, deadline, audit, and WAL
//! append — the throughput ceiling and recovery bottleneck of the live
//! runtime. Sharding splits that ownership: tasks hash by id
//! ([`smartred_core::execution::shard_of`]) to one of N coordinators, each
//! with its own WAL segment (`wal-shard-<k>.jsonl`), its own worker
//! sub-pool over a disjoint global node-id span
//! ([`smartred_core::execution::shard_worker_span`]), and its own
//! journal. A router thread in front does admission control and load
//! shedding, then forwards each admitted submission to its owning shard.
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
//! ## Router-level admission
//!
//! The router's admission gate is a global outstanding-task counter
//! checked against [`ShardedConfig::admission_cap`]: a submission is shed
//! iff the counter is full, *before* any task id is routed. Shed
//! accounting is therefore a pure function of the submission/verdict
//! interleaving — the same number of submissions shed at matched capacity
//! no matter how many shards sit behind the router. Because outstanding
//! submissions never exceed the cap and every internal queue holds at
//! least `admission_cap`, internal forwards never drop or block
//! indefinitely.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use smartred_core::execution::{shard_of, shard_worker_span};
use smartred_core::parallel::{map_indexed, Threads};
use smartred_core::strategy::RedundancyStrategy;
use smartred_desim::journal::{Journal, RunEvent};

use crate::coordinator::{
    AdmissionCounters, AdmissionStats, ClientOp, Runtime, RuntimeConfig, RuntimeRun, Submission,
    SubmitOutcome, TaskVerdict,
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
    /// Router-level admission cap: the maximum number of outstanding
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
        // Any one shard may transiently hold every outstanding
        // submission, so its queue must fit the full admission cap — the
        // invariant that keeps the router's forwards non-blocking.
        cfg.queue_cap = self.admission_cap.max(1);
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
    /// Router-level admission tally (sheds never reach any shard and are
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

/// A sharded live runtime: N coordinators plus the router thread.
///
/// Create with [`ShardedRuntime::start`] (or
/// [`ShardedRuntime::recover`]), submit through [`ShardedRuntime::client`]
/// handles, then drop every client and call [`ShardedRuntime::finish`].
#[derive(Debug)]
pub struct ShardedRuntime {
    shards: Vec<Runtime>,
    router_tx: Option<SyncSender<ClientOp>>,
    router: Option<JoinHandle<()>>,
    next_task: Arc<AtomicU32>,
    outstanding: Arc<AtomicUsize>,
    counters: Arc<AdmissionCounters>,
    admission_cap: usize,
    accept_below: usize,
}

impl ShardedRuntime {
    /// Starts `cfg.shards` coordinators and the router. `make_worker`
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
            .map(|r| r.next_task.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        let outstanding: usize = reports
            .iter()
            .map(|r| r.tasks_resumed + r.tasks_seeded)
            .sum();
        let runtime = Self::assemble(&cfg, runtimes, next_task, outstanding);
        let client = ShardedClient {
            router_tx: runtime.router_tx.clone().expect("runtime just started"),
            verdict_tx,
            verdict_rx,
            next_task: runtime.next_task.clone(),
            outstanding: runtime.outstanding.clone(),
            counters: runtime.counters.clone(),
            admission_cap: runtime.admission_cap,
            accept_below: runtime.accept_below,
        };
        Ok((runtime, client, reports))
    }

    fn assemble(
        cfg: &ShardedConfig,
        runtimes: Vec<Runtime>,
        next_task: u32,
        outstanding: usize,
    ) -> Self {
        let admission_cap = cfg.admission_cap.max(1);
        let (router_tx, router_rx) = mpsc::sync_channel(admission_cap);
        let shard_txs: Vec<SyncSender<ClientOp>> = runtimes
            .iter()
            .map(|r| r.submit_tx.clone().expect("shard just started"))
            .collect();
        let router = spawn_router(router_rx, shard_txs);
        Self {
            shards: runtimes,
            router_tx: Some(router_tx),
            router: Some(router),
            next_task: Arc::new(AtomicU32::new(next_task)),
            outstanding: Arc::new(AtomicUsize::new(outstanding)),
            counters: Arc::new(AdmissionCounters::default()),
            admission_cap,
            accept_below: cfg.base.max_active.max(1).saturating_mul(cfg.shards.max(1)),
        }
    }

    /// Creates a submission handle. Clones of the handle (and further
    /// calls) share the admission gate but receive verdicts only for
    /// their own submissions.
    pub fn client(&self) -> ShardedClient {
        let (verdict_tx, verdict_rx) = mpsc::channel();
        ShardedClient {
            router_tx: self
                .router_tx
                .clone()
                .expect("sharded runtime already finished"),
            verdict_tx,
            verdict_rx,
            next_task: self.next_task.clone(),
            outstanding: self.outstanding.clone(),
            counters: self.counters.clone(),
            admission_cap: self.admission_cap,
            accept_below: self.accept_below,
        }
    }

    /// Whether any shard's coordinator has hit its chaos crash point.
    pub fn is_crashed(&self) -> bool {
        self.shards.iter().any(Runtime::is_crashed)
    }

    /// Shuts down: stops the router, finishes every shard, and returns
    /// the per-shard runs plus the deterministic merged journal/report.
    ///
    /// Every [`ShardedClient`] must be dropped first, exactly as with
    /// [`Runtime::finish`].
    pub fn finish(mut self) -> ShardedRun {
        drop(self.router_tx.take());
        if let Some(router) = self.router.take() {
            let _ = router.join();
        }
        let mut shards: Vec<RuntimeRun> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(Runtime::finish)
            .collect();
        let parts: Vec<Journal> = shards.iter().map(|run| run.journal.clone()).collect();
        let journal = Journal::merge_sharded(&parts);
        let report = report_from_journal(&journal);
        let crashed = shards.iter().any(|run| run.crashed);
        // The router's gate is the only admission accounting — per-shard
        // counters never see a submission (clients talk to the router).
        for run in &mut shards {
            run.admission = AdmissionStats::default();
        }
        ShardedRun {
            shards,
            journal,
            report,
            admission: self.counters.snapshot(),
            crashed,
        }
    }
}

/// Forwards admitted submissions to their owning shard. The admission
/// gate bounds outstanding submissions at the shard queues' capacity, so
/// the blocking `send` below can always make progress; it errors (and the
/// router exits) only when a shard is gone — shutdown or crash.
fn spawn_router(rx: Receiver<ClientOp>, shard_txs: Vec<SyncSender<ClientOp>>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("smartred-router".into())
        .spawn(move || {
            let shards = shard_txs.len();
            while let Ok(op) = rx.recv() {
                // Submissions route by task id; annotations follow the
                // task they reference (so merge_sharded keeps them next to
                // that task's events) and fall back to shard 0 for
                // task-less events such as stage verdicts.
                let k = match &op {
                    ClientOp::Submit(sub) => shard_of(sub.task, shards),
                    ClientOp::Annotate(event) => event.task().map_or(0, |t| shard_of(t, shards)),
                };
                if shard_txs[k].send(op).is_err() {
                    return;
                }
            }
        })
        .expect("spawn router thread")
}

/// A submission handle to a [`ShardedRuntime`]. Task ids are assigned
/// globally and routed to shards by [`shard_of`]; admission is decided at
/// the router's global gate before routing.
#[derive(Debug)]
pub struct ShardedClient {
    router_tx: SyncSender<ClientOp>,
    verdict_tx: Sender<TaskVerdict>,
    verdict_rx: Receiver<TaskVerdict>,
    next_task: Arc<AtomicU32>,
    outstanding: Arc<AtomicUsize>,
    counters: Arc<AdmissionCounters>,
    admission_cap: usize,
    accept_below: usize,
}

impl ShardedClient {
    /// Submits one task through the router. Never blocks: when the
    /// admission gate is full — `admission_cap` tasks admitted and not
    /// yet resolved — the submission is shed *before* a task id is
    /// burned, and the count of sheds at matched capacity is independent
    /// of the shard count.
    pub fn submit(&self, payload: Payload) -> SubmitOutcome {
        let admitted = self
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.admission_cap).then_some(n + 1)
            });
        let Ok(prev) = admitted else {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Shed;
        };
        let task = self.next_task.fetch_add(1, Ordering::Relaxed);
        let submission = Submission {
            task,
            payload: Arc::new(payload),
            verdict_tx: self.verdict_tx.clone(),
        };
        match self.router_tx.try_send(ClientOp::Submit(submission)) {
            Ok(()) => {
                if prev < self.accept_below {
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    SubmitOutcome::Accepted { task }
                } else {
                    self.counters.queued.fetch_add(1, Ordering::Relaxed);
                    SubmitOutcome::Queued { task }
                }
            }
            // Unreachable while the gate invariant holds (the router
            // queue fits the full cap); defensive for a dead router.
            Err(_) => {
                self.release();
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                SubmitOutcome::Shed
            }
        }
    }

    /// Journals `event` durably into the owning shard's WAL (routed like
    /// a submission: by the task the event references, shard 0 for
    /// task-less events). Annotations bypass the admission gate — they
    /// resolve no verdict — and block rather than shed; returns `false`
    /// once the runtime has shut down or crashed.
    pub fn annotate(&self, event: RunEvent) -> bool {
        self.router_tx.send(ClientOp::Annotate(event)).is_ok()
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
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }
}

impl Clone for ShardedClient {
    fn clone(&self) -> Self {
        let (verdict_tx, verdict_rx) = mpsc::channel();
        Self {
            router_tx: self.router_tx.clone(),
            verdict_tx,
            verdict_rx,
            next_task: self.next_task.clone(),
            outstanding: self.outstanding.clone(),
            counters: self.counters.clone(),
            admission_cap: self.admission_cap,
            accept_below: self.accept_below,
        }
    }
}
