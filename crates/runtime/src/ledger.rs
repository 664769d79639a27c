//! The coordinator's ledger: exactly the state its write-ahead log
//! determines, and the one [`Ledger::apply`] that mutates it.
//!
//! The coordinator journals every event *before* acting on it, and nothing
//! it does is observed before the WAL commit that holds the record, so the
//! WAL prefix that survives a crash is a complete record of every decision
//! the dead coordinator durably made. The live coordinator calls `apply`
//! from `Coordinator::log` right after it journals the record;
//! [`crate::Runtime::recover`] feeds the surviving prefix through
//! [`Ledger::replay`] — the same `apply`, plus a cross-check that each
//! logged wave is the one the deterministic strategy reopens (a step the
//! live path takes before it logs). There is no second reconstruction to
//! keep in step. DESIGN.md §9 tabulates, per event, the mutation and the
//! consequence it leaves owed.
//!
//! The live [`RuntimeReport`] is part of that state: `apply` folds each
//! record into it, so the coordinator counts nothing by hand and a
//! recovered ledger holds the whole history's report (seeded from the
//! snapshot when there is one). `report::report_from_journal` shares no
//! code with this fold on purpose — it is the reference tests hold it to.
//!
//! A consequence is *owed* from the record that earns it until the record
//! that carries it out; any other record in between means the live
//! coordinator waived it (the last-enabled-worker guard). Whatever is
//! still owed when a WAL prefix ends — the crash cut the poisoning or
//! quarantine off — the resumed coordinator carries out before it
//! dispatches anything.
//!
//! Replica indices are not journaled; they are recovered as each job's
//! per-task dispatch ordinal, which is exact because the coordinator
//! dispatches a task's replicas in index order and never journals a
//! re-dispatch. (A void/re-tally jumps the cursor past its purged pending
//! indices so ordinals — and hence fault draws — never repeat.) Since
//! fault draws are keyed by `(seed, task, replica)`, a re-armed replica
//! re-executed by the recovered coordinator produces the same vote the
//! uninterrupted run would have — the invariant the chaos tests pin.
//!
//! Hedge twins live outside the replica accounting: every terminal event
//! of a pair carries the origin's job id, so the pair replays as one
//! logical replica. The table of live twins — launched, not yet won or
//! wasted — is the one pair structure, live and on replay. A twin still in
//! it when a WAL prefix ends is owed its `HedgeWasted` (recovery never
//! re-arms twins): with [`Ledger::owed`], [`Ledger::twins`] is what the
//! resumed coordinator settles first.

use std::sync::mpsc::Sender;
use std::sync::Arc;

use smartred_core::execution::{TaskExecution, WaveStep};
use smartred_core::resilience::{DisciplineAction, NodeDiscipline, PoisonPolicy, TaskDiscipline};
use smartred_core::strategy::RedundancyStrategy;
use smartred_desim::journal::{RunEvent, Stamped};
use smartred_desim::time::{SimDuration, SimTime};

use crate::checkpoint::CheckpointState;
use crate::coordinator::{RuntimeConfig, TaskVerdict};
use crate::id_hash::{IdMap, IdSet};
use crate::recovery::RecoveryError;
use crate::report::RuntimeReport;
use crate::workload::Payload;

/// What the coordinator needs to run and answer a task. Not in the WAL:
/// attached at admission, or from the roster on recovery.
pub(crate) struct Delivery {
    pub payload: Arc<Payload>,
    pub verdict_tx: Sender<TaskVerdict>,
    /// Last answer reported by a `false`-vote (index 0) / `true`-vote
    /// (index 1) replica, for verdict delivery.
    pub answers: [Option<bool>; 2],
}

impl Delivery {
    pub fn new(payload: Arc<Payload>, verdict_tx: Sender<TaskVerdict>) -> Self {
        Self {
            payload,
            verdict_tx,
            answers: [None, None],
        }
    }
}

/// One open task. Everything but `delivery` is WAL-determined and
/// mutated by [`Ledger::apply`] only.
pub(crate) struct TaskState<S> {
    /// The strategy execution, at the exact logged point.
    pub exec: TaskExecution<bool, Arc<S>>,
    /// Replica indices issued (Σ opened-wave sizes).
    pub replicas: u32,
    /// The dispatch cursor: the replica ordinal of the next dispatch;
    /// indices `dispatched..replicas` are still pending dispatch.
    pub dispatched: u32,
    /// Timeouts charged so far (1-based retry attempts).
    pub timeouts: u32,
    /// Worker-crash charges toward the poison limit.
    pub poison: TaskDiscipline,
    /// Replica epoch: bumped when in-flight jobs are re-dispatched, so
    /// replies from the superseded dispatch are rejected as stale.
    pub epoch: u32,
    /// Stamp of the task's first dispatch, for verdict latency.
    pub first_dispatch: Option<SimTime>,
    /// Dispatched, unresolved jobs as `(job, replica)`, in dispatch order.
    pub in_flight: Vec<(u32, u32)>,
    /// Tallied returns of the current attempt as `(job, node, vote)` —
    /// the audit layer's evidence: which node claimed what.
    pub returns: Vec<(u32, u32, bool)>,
    /// Set when a probationary node (fresh out of quarantine) contributed
    /// a result: the verdict must be audited regardless of the spot draw.
    pub must_audit: bool,
    pub delivery: Option<Delivery>,
}

impl<S> TaskState<S> {
    pub fn delivery(&self) -> &Delivery {
        self.delivery
            .as_ref()
            .expect("attached at admission or recovery")
    }
}

/// One worker's supervision state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct NodeState {
    /// Strike state under `cfg.discipline`.
    pub discipline: NodeDiscipline,
    /// Restart counter (crash rebuilds + hang respawns).
    pub incarnation: u32,
    /// Release stamp while quarantined.
    pub quarantined_until: Option<SimTime>,
    /// Permanently blacklisted.
    pub blacklisted: bool,
}

/// Consequences a record earned that no later record has carried out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Owed {
    /// A node to quarantine or blacklist (subject to the coordinator's
    /// last-enabled-worker guard).
    pub discipline: Option<(u32, DisciplineAction)>,
    /// A task whose crash charges reached the poison limit.
    pub poison: Option<u32>,
}

/// The WAL-determined state of one coordinator; see the module docs.
pub(crate) struct Ledger<S> {
    cfg: RuntimeConfig,
    strategy: Arc<S>,
    open: IdMap<TaskState<S>>,
    /// The entry the last decision record closed, for the live
    /// coordinator to deliver from.
    closed: Option<TaskState<S>>,
    /// Every task ever decided (verdict, cap, or poison durable) — the
    /// exactly-once set a checkpoint snapshot carries forward.
    decided: IdSet,
    /// Indexed by *global* node id, `0..node_base + workers`; slots below
    /// the base belong to other shards and stay untouched defaults.
    nodes: Vec<NodeState>,
    next_job: u32,
    last_at: SimTime,
    owed: Owed,
    /// Live hedge pairs as `(origin, twin, task)`: in from `HedgeLaunched`
    /// until the twin's `HedgeWon`/`HedgeWasted`. Job ids only grow, so
    /// launch order is twin-id order; few are ever live at once.
    twins: Vec<(u32, u32, u32)>,
    /// The fold of every applied record (on top of the snapshot's report,
    /// after [`Self::restore`]).
    report: RuntimeReport,
}

fn corrupt<T>(msg: String) -> Result<T, RecoveryError> {
    Err(RecoveryError::Corrupt(msg))
}

impl<S: RedundancyStrategy<bool>> Ledger<S> {
    pub fn new(cfg: &RuntimeConfig, strategy: Arc<S>) -> Self {
        Self {
            strategy,
            open: IdMap::default(),
            closed: None,
            decided: IdSet::default(),
            nodes: vec![NodeState::default(); cfg.node_base as usize + cfg.worker_count()],
            next_job: 0,
            last_at: SimTime::ZERO,
            owed: Owed::default(),
            twins: Vec::new(),
            report: RuntimeReport::new(),
            cfg: cfg.clone(),
        }
    }

    pub fn open(&self) -> &IdMap<TaskState<S>> {
        &self.open
    }

    pub fn decided(&self) -> &IdSet {
        &self.decided
    }

    /// `node`'s state; the default for ids outside this coordinator's span.
    pub fn node(&self, node: u32) -> NodeState {
        self.nodes.get(node as usize).copied().unwrap_or_default()
    }

    /// Whether `node` may be handed jobs: neither serving a quarantine
    /// nor blacklisted. The one source of truth for it.
    pub fn dispatchable(&self, node: u32) -> bool {
        let sidelined = |n: &NodeState| n.blacklisted || n.quarantined_until.is_some();
        !self.nodes.get(node as usize).is_some_and(sidelined)
    }

    /// The next fresh job id (max dispatched or hedged + 1).
    pub fn next_job(&self) -> u32 {
        self.next_job
    }

    /// Highest task id seen, if any.
    pub fn max_task(&self) -> Option<u32> {
        self.open.keys().chain(&self.decided).max().copied()
    }

    /// Stamp of the last applied event (the recovered clock base).
    pub fn last_at(&self) -> SimTime {
        self.last_at
    }

    /// What the last record earned and none has carried out yet. (A WAL
    /// prefix ending here also owes every one of [`Self::twins`].)
    pub fn owed(&self) -> Owed {
        self.owed
    }

    /// The run's report so far.
    pub fn report(&self) -> &RuntimeReport {
        &self.report
    }

    /// The live hedge pair `job` belongs to, as `(origin, twin)`.
    pub fn pair_of(&self, job: u32) -> Option<(u32, u32)> {
        let pair = self.twins.iter().find(|&&(o, t, _)| o == job || t == job);
        pair.map(|&(origin, twin, _)| (origin, twin))
    }

    /// Live pairs as `(origin, twin, task)` in twin order: `task`'s, or
    /// with `None` every one — what a recovered prefix left unsettled.
    pub fn twins(&self, task: Option<u32>) -> Vec<(u32, u32, u32)> {
        let of_task = |&(_, _, t): &(u32, u32, u32)| task.is_none_or(|task| t == task);
        self.twins.iter().copied().filter(of_task).collect()
    }

    /// The entry a decision record just closed.
    pub fn take_closed(&mut self) -> Option<TaskState<S>> {
        self.closed.take()
    }

    fn entry(&mut self, task: u32) -> &mut TaskState<S> {
        self.open.entry(task).or_insert_with(|| {
            let exec = TaskExecution::new(self.strategy.clone());
            TaskState {
                exec: match self.cfg.job_cap {
                    Some(cap) => exec.with_job_cap(cap),
                    None => exec,
                },
                replicas: 0,
                dispatched: 0,
                timeouts: 0,
                poison: TaskDiscipline::default(),
                epoch: 0,
                first_dispatch: None,
                in_flight: Vec::new(),
                returns: Vec::new(),
                must_audit: false,
                delivery: None,
            }
        })
    }

    /// Opens `task` (live admission) or finds it (recovery, where replay
    /// opened it) and attaches what the WAL does not carry.
    pub fn attach(&mut self, task: u32, delivery: Delivery) {
        self.entry(task).delivery = Some(delivery);
    }

    /// Keeps the raw answer behind a just-tallied `vote` (answers are not
    /// journaled) and hands the task back for reading.
    pub fn note_answer(&mut self, task: u32, vote: bool, answer: bool) -> &TaskState<S> {
        let state = self.open.get_mut(&task).expect("a tallied task is open");
        if let Some(delivery) = state.delivery.as_mut() {
            delivery.answers[usize::from(vote)] = Some(answer);
        }
        state
    }

    /// Asks `task`'s strategy for its next decision. The live path logs
    /// an opened wave right after; [`Self::replay`] checks the logged
    /// wave against this.
    pub fn step(&mut self, task: u32) -> Option<WaveStep<bool>> {
        Some(self.open.get_mut(&task)?.exec.step_wave())
    }

    /// Moves `task` from open to decided; the closed entry stays for the
    /// live coordinator to deliver from ([`Self::take_closed`]).
    fn close(&mut self, task: u32) -> Option<&TaskState<S>> {
        self.closed = self.open.remove(&task);
        self.decided.insert(task);
        self.closed.as_ref()
    }

    /// Charges `weight` strikes to `node` under `cfg.discipline`.
    fn strike(&mut self, node: u32, weight: u32, at: SimTime) -> Option<(u32, DisciplineAction)> {
        /// The sliding window a strike counts in (see
        /// [`NodeDiscipline::strike_at`]), in micros: ten seconds of
        /// journal time.
        const WINDOW: u64 = 10_000_000;
        let policy = self.cfg.discipline?;
        let state = self.nodes.get_mut(node as usize)?;
        if state.blacklisted {
            return None;
        }
        let action = state
            .discipline
            .strike_weighted_at(weight, at.as_micros(), WINDOW, &policy);
        (action != DisciplineAction::None).then_some((node, action))
    }

    /// Applies one logged event (DESIGN.md §9 has the table). The only code
    /// that mutates WAL-determined state, the report included. Returns
    /// what is owed once the event is applied; an event the state cannot
    /// have produced is [`RecoveryError::Corrupt`].
    pub fn apply(&mut self, e: &Stamped) -> Result<Owed, RecoveryError> {
        let carried = std::mem::take(&mut self.owed);
        self.last_at = e.at;
        match e.event {
            RunEvent::WaveOpened { task, jobs, .. } => {
                self.entry(task).replicas += jobs;
            }
            RunEvent::JobDispatched { job, task, .. } => {
                let Some(t) = self.open.get_mut(&task) else {
                    return corrupt(format!("job {job} dispatched for unknown task {task}"));
                };
                if t.dispatched >= t.replicas {
                    return corrupt(format!(
                        "task {task}: job {job} dispatched beyond the {} opened replicas",
                        t.replicas
                    ));
                }
                t.in_flight.push((job, t.dispatched));
                t.dispatched += 1;
                t.first_dispatch.get_or_insert(e.at);
                self.next_job = self.next_job.max(job + 1);
                self.report.total_jobs += 1;
            }
            RunEvent::JobReturned {
                job,
                task,
                node,
                value,
            } => {
                let Some(t) = self.open.get_mut(&task) else {
                    return corrupt(format!("job {job} returned for unknown task {task}"));
                };
                t.in_flight.retain(|&(j, _)| j != job);
                t.exec.record(value);
                t.returns.push((job, node, value));
                // A result from a node fresh out of quarantine burns one
                // probation slot and flags the task for audit.
                if self.cfg.audit.is_enabled()
                    && self
                        .nodes
                        .get_mut(node as usize)
                        .is_some_and(|n| n.discipline.consume_probation())
                {
                    t.must_audit = true;
                }
            }
            RunEvent::JobTimedOut { job, task, node } => {
                let Some(t) = self.open.get_mut(&task) else {
                    return corrupt(format!("job {job} timed out for unknown task {task}"));
                };
                t.in_flight.retain(|&(j, _)| j != job);
                t.timeouts += 1;
                t.exec.abandon(1);
                self.owed.discipline = self.strike(node, 1, e.at);
                self.report.timeouts += 1;
            }
            RunEvent::WorkerCrashed { node, job, task } => {
                // A logged crash always resolved a live job (stale crash
                // reports are logged as StaleReplyDropped instead).
                if let Some(t) = self.open.get_mut(&task) {
                    t.in_flight.retain(|&(j, _)| j != job);
                    let crash_limit = self.cfg.poison.map_or(u32::MAX, |p| p.crash_limit);
                    if t.poison.record_crash(&PoisonPolicy { crash_limit }) {
                        self.owed.poison = Some(task);
                    }
                    t.exec.abandon(1);
                }
                self.owed.discipline = self.strike(node, 1, e.at);
                self.report.worker_crashes += 1;
            }
            RunEvent::WorkerRestarted { node, incarnation } => {
                if let Some(n) = self.nodes.get_mut(node as usize) {
                    n.incarnation = n.incarnation.max(incarnation);
                }
                // The second half of a crash's record pair: what the
                // crash owes is carried out only after it.
                self.owed = carried;
                self.report.worker_restarts += 1;
            }
            RunEvent::EpochAdvanced { task, epoch } => {
                if let Some(t) = self.open.get_mut(&task) {
                    t.epoch = epoch;
                }
            }
            RunEvent::VerdictReached { task, value, .. } => {
                // Only the final attempt's waves are in `exec`: a void or
                // re-tally reset it.
                let (jobs, waves, started) = self
                    .close(task)
                    .map(|t| (t.exec.jobs_deployed(), t.exec.waves(), t.first_dispatch))
                    .unwrap_or_default();
                let r = &mut self.report;
                r.tasks_completed += 1;
                r.tasks_correct += usize::from(value);
                r.jobs_per_task.record(jobs as f64);
                r.waves_per_task.record(waves as f64);
                r.response_time
                    .record(started.map_or(0.0, |s| e.at.since(s).as_units()));
            }
            RunEvent::TaskCapped { task } => {
                self.close(task);
                self.report.tasks_capped += 1;
            }
            RunEvent::TaskPoisoned { task, .. } => {
                self.close(task);
                self.report.tasks_poisoned += 1;
            }
            RunEvent::NodeQuarantined { node } => {
                if let (Some(policy), Some(n)) =
                    (self.cfg.discipline, self.nodes.get_mut(node as usize))
                {
                    n.quarantined_until =
                        Some(e.at + SimDuration::from_units(policy.quarantine_units));
                }
                self.owed.poison = carried.poison;
            }
            RunEvent::NodeReleased { node } => {
                if let Some(n) = self.nodes.get_mut(node as usize) {
                    n.quarantined_until = None;
                    if self.cfg.audit.is_enabled() {
                        n.discipline
                            .begin_probation(self.cfg.audit.probation_audits);
                    }
                }
            }
            RunEvent::NodeDeparted { node, .. } => {
                if let Some(n) = self.nodes.get_mut(node as usize) {
                    n.blacklisted = true;
                    n.quarantined_until = None;
                }
                self.owed.poison = carried.poison;
            }
            RunEvent::AuditPassed { task } => {
                // A clean conclusion releases the probation flag. (A
                // failed group keeps it set, so a crash mid-group
                // re-audits on resume rather than skipping the check.)
                if let Some(t) = self.open.get_mut(&task) {
                    t.must_audit = false;
                }
            }
            RunEvent::AuditFailed { node, .. } => {
                // An audit catching a lie is direct evidence, not a noisy
                // signal like a timeout, so it can quarantine in one blow.
                let weight = self.cfg.audit.strike_weight.max(1);
                self.owed.discipline = self.strike(node, weight, e.at);
                self.report.audit_failures += 1;
            }
            RunEvent::VerdictVoided { task } | RunEvent::TaskRetallied { task } => {
                let Some(t) = self.open.get_mut(&task) else {
                    return corrupt(format!("void/re-tally for unknown task {task}"));
                };
                // The attempt's evidence is burned: its dispatched jobs
                // are dead (late replies drop as stale), its purged
                // pending ordinals never dispatch, and the strategy
                // restarts from wave 1 with a fresh budget.
                t.in_flight.clear();
                t.exec.reset();
                t.returns.clear();
                t.must_audit = false;
                t.dispatched = t.replicas;
                if matches!(e.event, RunEvent::VerdictVoided { .. }) {
                    self.report.verdicts_voided += 1;
                } else {
                    self.report.tasks_retallied += 1;
                }
            }
            RunEvent::HedgeLaunched {
                job, task, origin, ..
            } => {
                self.next_job = self.next_job.max(job + 1);
                if let Some(t) = self.open.get_mut(&task) {
                    t.exec.note_hedge();
                }
                self.twins.push((origin, job, task));
                self.report.hedges_launched += 1;
            }
            RunEvent::HedgeWon { job, .. } => {
                self.twins.retain(|&(_, twin, _)| twin != job);
                self.report.hedges_won += 1;
            }
            RunEvent::HedgeWasted { job, .. } => {
                self.twins.retain(|&(_, twin, _)| twin != job);
                self.report.hedges_wasted += 1;
            }
            // Counted, no other state: an audit schedule is re-derived at
            // finalize time (selection is a pure function of the seed and
            // task id, plus `must_audit`); retries and stale drops restate
            // what the strategy replay reproduces.
            RunEvent::AuditScheduled { .. } => self.report.audits += 1,
            RunEvent::JobRetried { .. } => self.report.retries += 1,
            RunEvent::StaleReplyDropped { .. } => self.report.stale_replies += 1,
            RunEvent::RunEnded => self.report.makespan_units = e.at.as_units(),
            // No ledger state. Tallies and wave closes restate what the
            // strategy replay reproduces; a checkpoint seal summarizes
            // what was seeded from its snapshot; the runtime never emits
            // churn, outage or fault-plan events; DAG annotations are the
            // caller's bookkeeping, preserved in the WAL but driving no
            // tally.
            RunEvent::VoteTallied { .. }
            | RunEvent::WaveClosed { .. }
            | RunEvent::CheckpointTaken { .. }
            | RunEvent::NodeJoined { .. }
            | RunEvent::OutageStarted { .. }
            | RunEvent::FaultInjected { .. }
            | RunEvent::TransferStarted { .. }
            | RunEvent::TransferCompleted { .. }
            | RunEvent::StageDecided { .. }
            | RunEvent::PoisonPropagated { .. } => {}
        }
        Ok(self.owed)
    }

    /// [`Self::apply`] for a record read back from the WAL: first takes
    /// the strategy step the live path took before logging a wave, and
    /// refuses a wave the strategy would not reopen identically.
    pub fn replay(&mut self, e: &Stamped) -> Result<Owed, RecoveryError> {
        if let RunEvent::WaveOpened { task, wave, jobs } = e.event {
            if self.decided.contains(&task) {
                return corrupt(format!("wave opened for decided task {task}"));
            }
            let step = self.entry(task).exec.step_wave();
            if !matches!(step, WaveStep::Wave { wave: w, jobs: j } if w as u32 == wave && j as u32 == jobs)
            {
                return corrupt(format!(
                    "task {task}: logged wave {wave} of {jobs} jobs, but the \
                     strategy replayed a different step"
                ));
            }
        }
        self.apply(e)
    }

    /// Snapshots the closed state for a checkpoint. Checkpoints are taken
    /// only at quiescence, so there are no open tasks to capture.
    pub fn checkpoint(&self, events: u64, at: SimTime) -> CheckpointState {
        let mut decided: Vec<u32> = self.decided.iter().copied().collect();
        decided.sort_unstable();
        CheckpointState {
            events,
            last_at: at,
            next_job: self.next_job,
            decided,
            nodes: (0..)
                .zip(&self.nodes)
                .filter(|&(_, n)| *n != NodeState::default())
                .map(|(id, n)| (id, *n))
                .collect(),
            report: self.report.clone(),
        }
    }

    /// Seeds a fresh ledger from a checkpoint; the WAL suffix replays on
    /// top of it.
    pub fn restore(&mut self, snap: &CheckpointState) {
        self.decided = snap.decided.iter().copied().collect();
        self.next_job = snap.next_job;
        self.last_at = snap.last_at;
        self.report = snap.report.clone();
        for &(id, state) in &snap.nodes {
            if let Some(n) = self.nodes.get_mut(id as usize) {
                *n = state;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The ledger runs with no threads and no clock: journals are captured
    //! once from a live `Runtime`, then folded back event by event.

    use std::time::Duration;

    use smartred_core::audit::{AuditPolicy, Cartel};
    use smartred_core::hedge::HedgePolicy;
    use smartred_core::params::VoteMargin;
    use smartred_core::resilience::QuarantinePolicy;
    use smartred_core::strategy::Iterative;
    use smartred_desim::journal::{EventKind, Journal};

    use super::*;
    use crate::coordinator::tests::serve_scripted;
    use crate::report::report_from_journal;
    use crate::worker::{CartelWorker, FaultProfile, FaultyWorker, JobAssignment, Worker};
    use crate::Runtime;

    const SEED: u64 = 0x5eed_cafe;

    pub(crate) fn ir(margin: usize) -> Iterative {
        Iterative::new(VoteMargin::new(margin).unwrap())
    }

    /// Serves `tasks` zero-work tasks to completion and returns the journal.
    fn capture<F>(cfg: &RuntimeConfig, margin: usize, tasks: usize, make_worker: F) -> Journal
    where
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let runtime = Runtime::start(cfg.clone(), ir(margin), make_worker);
        let client = runtime.client();
        for _ in 0..tasks {
            let _ = client.submit(Payload::Synthetic {
                answer: true,
                work: Duration::ZERO,
            });
        }
        for _ in 0..tasks {
            client.recv().expect("every task is decided");
        }
        drop(client);
        let run = runtime.finish();
        assert!(!run.crashed);
        run.journal
    }

    /// Replays `journal` one event at a time — the state after `k` events
    /// is the fold of the `k`-event prefix, so every prefix length is
    /// checked: it must replay without divergence, owe nothing once it
    /// ends on a decision record — where its report must also equal the
    /// reference fold of that prefix — and at full length leave no task
    /// open, no twin live, exactly the journal's decisions decided and the
    /// reference fold's report.
    pub(crate) fn every_prefix_replays(cfg: &RuntimeConfig, margin: usize, journal: &Journal) {
        let mut ledger = Ledger::new(cfg, Arc::new(ir(margin)));
        let mut decisions = IdSet::default();
        let mut prefix = Journal::new();
        for e in journal.events() {
            let owed = ledger
                .replay(e)
                .unwrap_or_else(|err| panic!("prefix ending at seq {}: {err}", e.seq));
            prefix.record(e.at, e.event);
            if matches!(
                e.event.kind(),
                EventKind::VerdictReached | EventKind::TaskCapped | EventKind::TaskPoisoned
            ) {
                decisions.insert(e.event.task().expect("decisions name their task"));
                assert_eq!(owed, Owed::default(), "owed after decision seq {}", e.seq);
                assert_eq!(
                    ledger.report(),
                    &report_from_journal(&prefix),
                    "report after decision seq {}",
                    e.seq
                );
            }
        }
        assert!(ledger.open().is_empty());
        assert_eq!(ledger.twins(None), []);
        assert_eq!(ledger.decided(), &decisions);
        assert_eq!(ledger.report(), &report_from_journal(journal));
    }

    #[test]
    fn chaos_journal_replays_at_every_prefix() {
        let cfg = RuntimeConfig {
            workers: Some(4),
            max_active: 16,
            deadline: Duration::from_secs(30),
            poison: Some(PoisonPolicy { crash_limit: 2 }),
            ..RuntimeConfig::default()
        };
        let profile = FaultProfile {
            wrong_rate: 0.25,
            crash_rate: 0.15,
            ..FaultProfile::default()
        };
        let journal = capture(&cfg, 3, 24, move |_| {
            Box::new(FaultyWorker::new(SEED, profile))
        });
        assert!(journal.count(EventKind::TaskPoisoned) > 0);
        every_prefix_replays(&cfg, 3, &journal);
    }

    #[test]
    fn audited_cartel_journal_replays_at_every_prefix() {
        let cfg = RuntimeConfig {
            workers: Some(4),
            poison: None,
            audit: AuditPolicy {
                spot_rate: 1.0,
                escalated_rate: 1.0,
                probation_audits: 1,
                strike_weight: 3,
            },
            audit_seed: SEED,
            // One caught lie quarantines; the short sentence brings the
            // node back on probation within the run.
            discipline: Some(QuarantinePolicy {
                strike_limit: 3,
                quarantine_units: 0.0001,
                blacklist_after: u32::MAX,
            }),
            ..RuntimeConfig::default()
        };
        // Under scripted time: on threads, whether any sentence ended
        // before the last verdict depended on how the scheduler ran them.
        let cartel = Cartel::new(2, 0.4);
        let journal = serve_scripted(cfg.clone(), 2, 60, |node| {
            Box::new(CartelWorker::new(
                node,
                SEED,
                cartel,
                FaultProfile::default(),
            ))
        });
        for kind in [
            EventKind::AuditFailed,
            EventKind::VerdictVoided,
            EventKind::NodeQuarantined,
            EventKind::NodeReleased,
        ] {
            assert!(journal.count(kind) > 0, "no {} to replay", kind.name());
        }
        every_prefix_replays(&cfg, 2, &journal);
    }

    #[test]
    fn hedged_journal_replays_at_every_prefix() {
        /// Votes like [`FaultyWorker`]; a placement-dependent seventh of
        /// the executions straggle, so a twin elsewhere usually wins.
        struct Straggler(u32, FaultyWorker);
        impl Worker for Straggler {
            fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
                let slow = (self.0 + job.task + job.replica).is_multiple_of(7);
                std::thread::sleep(Duration::from_millis(if slow { 30 } else { 1 }));
                self.1.execute(job)
            }
        }
        let cfg = RuntimeConfig {
            workers: Some(4),
            max_active: 32,
            hedge: Some(HedgePolicy {
                quantile: 0.9,
                min_samples: 10,
                multiplier: 3.0,
                max_per_task: 2,
            }),
            ..RuntimeConfig::default()
        };
        let profile = FaultProfile {
            wrong_rate: 0.3,
            ..FaultProfile::default()
        };
        let journal = capture(&cfg, 4, 40, move |node| {
            Box::new(Straggler(node, FaultyWorker::new(SEED, profile)))
        });
        assert!(journal.count(EventKind::HedgeLaunched) > 0);
        every_prefix_replays(&cfg, 4, &journal);
    }

    /// A log the coordinator's own state could not have produced is
    /// refused, naming the divergence.
    #[test]
    fn impossible_logs_are_corrupt() {
        let cfg = RuntimeConfig {
            workers: Some(2),
            ..RuntimeConfig::default()
        };
        let replay = |events: &[RunEvent]| {
            let mut ledger = Ledger::new(&cfg, Arc::new(ir(3)));
            let mut seq = 0..;
            let result = events.iter().try_for_each(|&event| {
                let seq = seq.next().expect("unbounded");
                let at = SimTime::from_micros(seq);
                ledger.replay(&Stamped { at, seq, event }).map(drop)
            });
            match result {
                Err(RecoveryError::Corrupt(msg)) => msg,
                other => panic!("expected a Corrupt error, got {other:?}"),
            }
        };
        let wave = |task, wave, jobs| RunEvent::WaveOpened { task, wave, jobs };
        let dispatched = |job| RunEvent::JobDispatched {
            job,
            task: 0,
            node: 0,
            eta: SimTime::ZERO,
        };
        let returned = |job, task| RunEvent::JobReturned {
            job,
            task,
            node: 0,
            value: true,
        };

        // IR with margin 3 opens with a wave of three.
        assert_eq!(
            replay(&[wave(0, 2, 5)]),
            "task 0: logged wave 2 of 5 jobs, but the strategy replayed a different step"
        );
        let four: Vec<RunEvent> = std::iter::once(wave(0, 1, 3))
            .chain((0..4).map(dispatched))
            .collect();
        assert_eq!(
            replay(&four),
            "task 0: job 3 dispatched beyond the 3 opened replicas"
        );
        assert_eq!(
            replay(&[returned(7, 9)]),
            "job 7 returned for unknown task 9"
        );
        let mut decided = vec![wave(0, 1, 3)];
        decided.extend((0..3).flat_map(|job| [dispatched(job), returned(job, 0)]));
        decided.push(RunEvent::VerdictReached {
            task: 0,
            value: true,
            degraded: false,
            confidence: 1.0,
        });
        decided.push(wave(0, 2, 1));
        assert_eq!(replay(&decided), "wave opened for decided task 0");
        assert_eq!(
            replay(&[RunEvent::VerdictVoided { task: 4 }]),
            "void/re-tally for unknown task 4"
        );
    }
}
