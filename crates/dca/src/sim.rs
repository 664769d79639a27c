//! The event-driven DCA model of Figure 1, and the one task lifecycle it
//! shares with the volunteer server.
//!
//! A task server subdivides the computation into tasks, creates jobs, and
//! assigns each job to an idle node; nodes return results after a
//! stochastic duration (or hang until the server's timeout); the strategy
//! decides wave by wave whether to deploy more jobs or accept a verdict.
//! That lifecycle — queue and pump, wave polling, dispatch and timeout,
//! retry backoff, epoch fencing of stale replies, hedge pairs, strike →
//! quarantine → release → blacklist, audit spot-check / void / re-tally,
//! finalize — exists once, generic over a [`NodeModel`]: what a platform's
//! nodes are and what a job on one does. This module's own model is the
//! XDEVS-style pool of §4.1 (per-node rates, churn, injected faults);
//! `smartred-volunteer` supplies PlanetLab hosts over 3-SAT workunits.
//!
//! Two modeling choices worth calling out:
//!
//! * **Retry priority.** Top-up waves (wave ≥ 2) jump the job queue. In a
//!   saturated system (tasks ≫ nodes, as in the paper's runs) this keeps a
//!   task's response time equal to its own execution waves rather than
//!   coupling it to global queue depth — matching both BOINC's retry
//!   prioritization and the 1–3 time-unit response times of Figure 6.
//! * **Slow jobs time out.** A job whose execution would outlast the server
//!   timeout is indistinguishable from a hang, so it resolves via the
//!   timeout path.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use rand::Rng;
use smartred_core::analysis::confidence::confidence;
use smartred_core::audit::Cartel;
use smartred_core::error::ParamError;
use smartred_core::execution::{Assignment, TaskExecution, WaveStep};
use smartred_core::hedge::HedgeTrigger;
use smartred_core::params::Reliability;
use smartred_core::resilience::DisciplineAction;
use smartred_core::strategy::RedundancyStrategy;
use smartred_desim::engine::Simulator;
use smartred_desim::journal::{DepartureReason, FaultKind, Journal, RunEvent};
use smartred_desim::network::NetworkModel;
use smartred_desim::rng::{backoff_duration, seeded_rng, SimRng};
use smartred_desim::time::{SimDuration, SimTime};

use crate::config::{DcaConfig, FailureConfig, TimeoutPolicy};
use crate::faults::FaultEvent;
use crate::job::{JobId, JobOutcome, JobRegistry};
use crate::metrics::DcaReport;
use crate::pool::{NodeIndex, NodePool};

/// A shared, immutable redundancy strategy driving every task of a run.
pub type SharedStrategy = Rc<dyn RedundancyStrategy<bool>>;

/// A task suffers at most this many audit voids: a verdict that
/// keeps coming back tainted (e.g. a majority cartel with no discipline to
/// thin it) is eventually accepted as-is rather than looping forever.
const MAX_TASK_VOIDS: u32 = 4;

/// What differs between the platforms the lifecycle runs on: which idle
/// node takes a job, what a job on it does, and what leaving means. The
/// node table itself is a [`NodePool`] on both, owned by the [`World`].
/// Monomorphised: the event loop pays no dispatch for the split.
pub trait NodeModel: 'static {
    /// Whether every task exists before the first dispatch (a volunteer
    /// project decomposes its instance up front) or tasks are created
    /// lazily as nodes free up (DCA).
    const EAGER_ADMISSION: bool;
    /// Whether nodes whose vote lost an accepted election earn a strike
    /// (DCA's stand-in for a result-validation blacklist). The volunteer
    /// server strikes only deadline misses and audited lies.
    const STRIKE_VOTE_LOSERS: bool;

    /// A task was created; DCA draws its common-shock flag here.
    fn task_created(&mut self, _rng: &mut SimRng) {}

    /// Claims an idle node for a job of a task that already ran on `used`.
    /// The volunteer scheduler may prefer the fastest idle host.
    fn claim(
        &mut self,
        pool: &mut NodePool,
        assignment: Assignment,
        used: &[NodeIndex],
        rng: &mut SimRng,
    ) -> Option<NodeIndex> {
        pool.claim_idle(assignment, used, rng)
    }

    /// Draws what a job of `task` dispatched to `node` at `now` will do:
    /// per-node rates, shocks, outages and a dormancy-aware cartel in DCA;
    /// one deployment-wide profile plus a standing cartel for volunteers.
    fn draw_outcome(
        &mut self,
        pool: &NodePool,
        rng: &mut SimRng,
        now: SimTime,
        task: usize,
        node: NodeIndex,
    ) -> JobOutcome;

    /// Duration multiplier on top of the node's own speed (DCA's injected
    /// straggler windows).
    fn slowdown(&self, _node: NodeIndex, _now: SimTime) -> f64 {
        1.0
    }

    /// The value a correct job of `task` reports (a wrong one reports its
    /// negation): always `true` in DCA, the workunit's ground truth for
    /// volunteers.
    fn truth(&self, task: usize) -> bool;

    /// Takes a blacklisted node out for good and returns the job this
    /// orphans: DCA departs the node (its job times out on the spot); a
    /// volunteer host is quarantined permanently and finishes its job.
    fn blacklist(&mut self, pool: &mut NodePool, node: NodeIndex) -> Option<JobId>;

    /// An audit convicted `liars`; DCA's cartel goes dormant if one of
    /// them is a member.
    fn caught_lying(&mut self, _liars: &[NodeIndex], _now: SimTime) {}
}

/// The server-side state of one task.
pub struct TaskState {
    exec: TaskExecution<bool, SharedStrategy>,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    used_nodes: Vec<NodeIndex>,
    /// Timed-out jobs retried with backoff so far (`retry` policy).
    retries: u32,
    /// Recorded `(node, voted_correct)` pairs, kept under a quarantine
    /// policy (to strike vote-losers at finalization) or an audit policy
    /// (to identify liars at spot-check time).
    votes: Vec<(NodeIndex, bool)>,
    /// Replica attempt, bumped when an audit voids or re-tallies the task;
    /// in-flight jobs from older attempts resolve as stale replies.
    attempt: u32,
    /// Set when a probation-node result landed: the verdict must be
    /// audited before acceptance regardless of the spot-check draw.
    must_audit: bool,
    /// Audit voids suffered so far (see [`MAX_TASK_VOIDS`]).
    voids: u32,
}

impl std::fmt::Debug for TaskState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The execution holds a `dyn` strategy; show the lifecycle stamps.
        f.debug_struct("TaskState")
            .field("attempt", &self.attempt)
            .field("started_at", &self.started_at)
            .field("finished_at", &self.finished_at)
            .finish_non_exhaustive()
    }
}

impl TaskState {
    /// The task's vote tally, waves and verdict.
    pub fn exec(&self) -> &TaskExecution<bool, SharedStrategy> {
        &self.exec
    }

    /// First dispatch to final state (across every audit attempt), in time
    /// units; zero for a task that has not finished.
    pub fn response_units(&self) -> f64 {
        match (self.started_at, self.finished_at) {
            (Some(started), Some(finished)) => finished.since(started).as_units(),
            _ => 0.0,
        }
    }
}

/// The mutable world threaded through every event.
pub struct World<M> {
    cfg: DcaConfig,
    strategy: SharedStrategy,
    pool: NodePool,
    nodes: M,
    tasks: Vec<TaskState>,
    /// Pending job requests (task indices); top-up waves are pushed to the
    /// front (retry priority), first waves to the back.
    queue: VecDeque<usize>,
    jobs: JobRegistry,
    rng: SimRng,
    report: DcaReport,
    next_unstarted: usize,
    unfinished: usize,
    /// Online latency-quantile trigger for straggler hedging (`cfg.hedge`).
    hedge: Option<HedgeTrigger>,
    /// Dispatch time of every job ever registered, indexed by job id —
    /// feeds the hedge trigger's latency estimator at resolution.
    dispatched_at: Vec<SimTime>,
    /// Active hedge pairs, both directions: each member maps to its racing
    /// partner until the pair dissolves (first resolution).
    hedge_pair: HashMap<JobId, JobId>,
    /// Which jobs are hedge twins (mapped to their origin), kept until the
    /// twin settles as won or wasted.
    twin_origin: HashMap<JobId, JobId>,
    /// Transfer-charging network model (`cfg.network`); `None` keeps
    /// communication free and the event stream bit-identical to runs
    /// predating the model.
    network: Option<NetworkModel>,
}

impl<M> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

type Sim<M> = Simulator<World<M>>;

impl<M: NodeModel> World<M> {
    /// A world about to run `cfg`'s lifecycle knobs (tasks, durations,
    /// timeout, retry, quarantine, audit, hedge, assignment, network,
    /// degraded acceptance) over `pool` under the node model `nodes`. `rng`
    /// continues the stream the caller seeded and drew its setup from.
    pub fn new(
        cfg: DcaConfig,
        strategy: SharedStrategy,
        pool: NodePool,
        rng: SimRng,
        nodes: M,
    ) -> Self {
        Self {
            strategy,
            pool,
            nodes,
            tasks: Vec::with_capacity(cfg.tasks.min(1 << 20)),
            queue: VecDeque::new(),
            jobs: JobRegistry::new(),
            rng,
            report: DcaReport::new(),
            next_unstarted: 0,
            unfinished: cfg.tasks,
            hedge: cfg
                .hedge
                .map(|p| HedgeTrigger::new(p).expect("hedge policy validated by the caller")),
            dispatched_at: Vec::new(),
            hedge_pair: HashMap::new(),
            twin_origin: HashMap::new(),
            network: cfg.network.map(|n| NetworkModel::uniform(n.link)),
            cfg,
        }
    }

    /// Every task created so far, in task order.
    pub fn tasks(&self) -> &[TaskState] {
        &self.tasks
    }

    /// The run's aggregate counters.
    pub fn report(&self) -> &DcaReport {
        &self.report
    }

    /// Runs the lifecycle until no event is left, journals `RunEnded` and
    /// closes the report. Platform events (faults, churn) must already be
    /// scheduled on `sim`.
    ///
    /// # Panics
    ///
    /// Panics if the run lost track of a task or corrupted the pool's idle
    /// set — internal invariants, not user errors.
    pub fn run(&mut self, sim: &mut Simulator<Self>) {
        if M::EAGER_ADMISSION {
            while start_next_task(self, sim) {}
        }
        pump(self, sim);
        sim.run(self);
        // Graceful degradation for a starved pool: tasks that never reached
        // a verdict (every node departed/blacklisted with work still
        // queued) are settled on their best-available vote leader.
        if self.cfg.degraded_accept {
            for t in 0..self.tasks.len() {
                if self.tasks[t].finished_at.is_none() {
                    accept_degraded(self, sim, t);
                }
            }
        }
        sim.emit(RunEvent::RunEnded);
        self.report.tasks_stranded =
            self.cfg.tasks - self.report.tasks_completed - self.report.tasks_capped;
        self.report.makespan_units = sim.now().as_units();
        self.report.capacity_node_units = self.cfg.pool.size as f64 * self.report.makespan_units;
        if let Err(violation) = self.pool.check_invariants() {
            panic!("node pool invariant violated: {violation}");
        }
        let open = self
            .tasks
            .iter()
            .filter(|t| t.finished_at.is_none())
            .count();
        assert_eq!(
            self.unfinished,
            open + self.cfg.tasks - self.next_unstarted,
            "task accounting lost track of tasks"
        );
    }
}

/// Active fault-plan effects, updated by injected events and consulted at
/// every dispatch/outcome draw. Per-node vectors are indexed by
/// [`NodeIndex`] and grown on demand (churn can add nodes after a window
/// opened; latecomers are unaffected by node-targeted windows).
#[derive(Default)]
struct ChaosState {
    hang_until: Vec<SimTime>,
    slow_until: Vec<(SimTime, f64)>,
    colluding: Vec<bool>,
    collusion_until: SimTime,
    blackout_until: SimTime,
}

impl ChaosState {
    fn hang_active(&self, node: NodeIndex, now: SimTime) -> bool {
        self.hang_until.get(node).is_some_and(|&until| until > now)
    }

    fn slow_factor(&self, node: NodeIndex, now: SimTime) -> f64 {
        match self.slow_until.get(node) {
            Some(&(until, factor)) if until > now => factor,
            _ => 1.0,
        }
    }

    fn is_colluding(&self, node: NodeIndex, now: SimTime) -> bool {
        self.collusion_until > now && self.colluding.get(node).copied().unwrap_or(false)
    }

    fn set_hang(&mut self, node: NodeIndex, until: SimTime) {
        if self.hang_until.len() <= node {
            self.hang_until.resize(node + 1, SimTime::ZERO);
        }
        if until > self.hang_until[node] {
            self.hang_until[node] = until;
        }
    }

    fn set_slow(&mut self, node: NodeIndex, until: SimTime, factor: f64) {
        if self.slow_until.len() <= node {
            self.slow_until.resize(node + 1, (SimTime::ZERO, 1.0));
        }
        self.slow_until[node] = (until, factor);
    }
}

/// The DCA node model: per-node fault rates from the pool, plus everything
/// that can bend them — common shocks, regional outages, the fault plan's
/// windows, and an adaptive cartel.
struct DcaNodes {
    seed: u64,
    failure: FailureConfig,
    /// Per-task common-shock flag, drawn at task creation.
    shocked: Vec<bool>,
    /// Per-region outage end times (empty unless `RegionalOutages` is
    /// configured). Node `i` belongs to region `i % regions.len()`.
    region_down_until: Vec<SimTime>,
    /// Active fault-plan effects.
    chaos: ChaosState,
    /// The adaptive cartel (lie schedule is a pure function of
    /// `(seed, task)`) and how long it lies low after a conviction.
    cartel: Option<Cartel>,
    cartel_dormancy_units: f64,
    /// Cartel dormancy: members answer honestly until this time after an
    /// audit catches one of them.
    cartel_dormant_until: SimTime,
}

impl NodeModel for DcaNodes {
    const EAGER_ADMISSION: bool = false;
    const STRIKE_VOTE_LOSERS: bool = true;

    fn task_created(&mut self, rng: &mut SimRng) {
        self.shocked.push(match self.failure {
            FailureConfig::Independent | FailureConfig::RegionalOutages { .. } => false,
            FailureConfig::CommonShock { shock_probability } => rng.gen_bool(shock_probability),
        });
    }

    /// Draws a job's outcome from the node's fault parameters, the task's
    /// shock state, and any active regional outage.
    fn draw_outcome(
        &mut self,
        pool: &NodePool,
        rng: &mut SimRng,
        now: SimTime,
        task: usize,
        node: NodeIndex,
    ) -> JobOutcome {
        if self.chaos.blackout_until > now || self.chaos.hang_active(node, now) {
            return JobOutcome::NoResponse;
        }
        if !self.region_down_until.is_empty() {
            let region = node % self.region_down_until.len();
            if self.region_down_until[region] > now {
                return JobOutcome::NoResponse;
            }
        }
        if self.chaos.is_colluding(node, now) {
            return JobOutcome::Wrong;
        }
        if let Some(cartel) = self.cartel {
            if cartel.is_member(node as u32)
                && now >= self.cartel_dormant_until
                && cartel.lies_on(self.seed, task as u64)
            {
                return JobOutcome::Wrong;
            }
        }
        let n = pool.node(node);
        if self.shocked[task] && n.wrong_rate > 0.0 {
            return JobOutcome::Wrong;
        }
        let u: f64 = rng.gen();
        if u < n.unresponsive_rate {
            JobOutcome::NoResponse
        } else if u < n.unresponsive_rate + n.wrong_rate {
            JobOutcome::Wrong
        } else {
            JobOutcome::Correct
        }
    }

    fn slowdown(&self, node: NodeIndex, now: SimTime) -> f64 {
        self.chaos.slow_factor(node, now)
    }

    fn truth(&self, _task: usize) -> bool {
        true
    }

    fn blacklist(&mut self, pool: &mut NodePool, node: NodeIndex) -> Option<JobId> {
        pool.depart(node)
    }

    /// The cartel notices a member was caught and lies low for a while.
    fn caught_lying(&mut self, liars: &[NodeIndex], now: SimTime) {
        let Some(cartel) = self.cartel else {
            return;
        };
        if self.cartel_dormancy_units > 0.0 && liars.iter().any(|&n| cartel.is_member(n as u32)) {
            let until = now + SimDuration::from_units(self.cartel_dormancy_units);
            if until > self.cartel_dormant_until {
                self.cartel_dormant_until = until;
            }
        }
    }
}

/// Runs one DCA simulation and returns its metrics.
///
/// All randomness derives from `config.seed`; identical inputs produce
/// identical reports.
///
/// # Errors
///
/// Returns [`ParamError`] if the configuration fails
/// [`DcaConfig::validate`].
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use smartred_core::params::KVotes;
/// use smartred_core::strategy::Traditional;
/// use smartred_dca::config::DcaConfig;
/// use smartred_dca::sim::run;
///
/// let cfg = DcaConfig::paper_baseline(200, 50, 0.3, 42);
/// let report = run(Rc::new(Traditional::new(KVotes::new(3)?)), &cfg)?;
/// assert_eq!(report.tasks_completed, 200);
/// assert_eq!(report.cost_factor(), 3.0);
/// # Ok::<(), smartred_core::error::ParamError>(())
/// ```
pub fn run(strategy: SharedStrategy, config: &DcaConfig) -> Result<DcaReport, ParamError> {
    run_inner(strategy, config, false).map(|r| r.report)
}

/// A journaled run: the aggregate report plus the structured event journal.
#[derive(Debug)]
pub struct JournaledRun {
    /// Aggregate metrics — identical to what [`run`] returns for the same
    /// configuration (journaling never perturbs the simulation).
    pub report: DcaReport,
    /// Every state transition of the run as typed, timestamped events.
    pub journal: Journal,
}

/// Runs one DCA simulation with event journaling enabled.
///
/// The returned [`JournaledRun::report`] is bit-identical to [`run`] on the
/// same inputs; the journal is a pure observer.
///
/// # Errors
///
/// Returns [`ParamError`] if the configuration fails
/// [`DcaConfig::validate`].
pub fn run_journaled(
    strategy: SharedStrategy,
    config: &DcaConfig,
) -> Result<JournaledRun, ParamError> {
    run_inner(strategy, config, true)
}

fn run_inner(
    strategy: SharedStrategy,
    config: &DcaConfig,
    journaled: bool,
) -> Result<JournaledRun, ParamError> {
    config.validate()?;
    let mut rng = seeded_rng(config.seed);
    let pool = NodePool::from_config(&config.pool, &mut rng);
    let nodes = DcaNodes {
        seed: config.seed,
        failure: config.failure,
        shocked: Vec::new(),
        region_down_until: match config.failure {
            FailureConfig::RegionalOutages { regions, .. } => vec![SimTime::ZERO; regions],
            _ => Vec::new(),
        },
        chaos: ChaosState::default(),
        cartel: config
            .cartel
            .map(|c| Cartel::new(c.members as u32, c.lie_rate)),
        cartel_dormancy_units: config.cartel.map_or(0.0, |c| c.dormancy_units),
        cartel_dormant_until: SimTime::ZERO,
    };
    let mut world = World::new(config.clone(), strategy, pool, rng, nodes);
    let mut sim = Sim::new();
    if journaled {
        sim.enable_journal();
    }
    if config.cartel.is_some() {
        // Make the standing adversary visible in the journal (and in
        // `faults_injected`), like any scheduled fault.
        world.report.faults_injected += 1;
        sim.emit(RunEvent::FaultInjected {
            kind: FaultKind::Cartel,
        });
    }
    if let FailureConfig::RegionalOutages { outage_rate, .. } = config.failure {
        if outage_rate > 0.0 {
            schedule_outage(&mut world, &mut sim);
        }
    }
    if let Some(churn) = config.churn {
        if churn.leave_rate > 0.0 {
            schedule_departure(&mut world, &mut sim);
        }
        if churn.join_rate > 0.0 {
            schedule_arrival(&mut world, &mut sim);
        }
    }
    // Inject the fault plan as first-class events: each entry becomes one
    // scheduled event that flips the corresponding chaos state (or departs
    // the crashed node) at its planned time.
    if let Some(plan) = &config.faults {
        for event in plan.events().iter().copied() {
            sim.schedule_at(SimTime::from_units(event.at()), move |world, sim| {
                inject_fault(world, sim, event);
            });
        }
    }
    world.run(&mut sim);
    Ok(JournaledRun {
        report: world.report,
        journal: sim.take_journal(),
    })
}

/// Applies one fault-plan event to the running world.
fn inject_fault(world: &mut World<DcaNodes>, sim: &mut Sim<DcaNodes>, event: FaultEvent) {
    world.report.faults_injected += 1;
    sim.emit(RunEvent::FaultInjected {
        kind: match event {
            FaultEvent::NodeCrash { .. } => FaultKind::Crash,
            FaultEvent::HangWindow { .. } => FaultKind::Hang,
            FaultEvent::Straggler { .. } => FaultKind::Straggler,
            FaultEvent::CollusionBurst { .. } => FaultKind::Collusion,
            FaultEvent::Blackout { .. } => FaultKind::Blackout,
        },
    });
    let now = sim.now();
    let chaos = &mut world.nodes.chaos;
    match event {
        FaultEvent::NodeCrash { node, .. } => {
            if world.pool.node(node).alive {
                world.report.crashes += 1;
                sim.emit(RunEvent::NodeDeparted {
                    node: node as u32,
                    reason: DepartureReason::Crash,
                });
                let orphaned = world.pool.depart(node);
                if let Some(job) = orphaned {
                    // The node vanished mid-job: the server sees a timeout.
                    resolve_job(world, sim, job, true);
                }
            }
        }
        FaultEvent::HangWindow { duration, node, .. } => {
            chaos.set_hang(node, now + SimDuration::from_units(duration));
        }
        FaultEvent::Straggler {
            duration,
            node,
            factor,
            ..
        } => {
            chaos.set_slow(node, now + SimDuration::from_units(duration), factor);
        }
        FaultEvent::CollusionBurst {
            duration, fraction, ..
        } => {
            let until = now + SimDuration::from_units(duration);
            if until > chaos.collusion_until {
                chaos.collusion_until = until;
            }
            // Draw the colluders from the seeded stream at burst start so
            // the cartel is reproducible but varies with the seed.
            chaos.colluding = (0..world.pool.capacity())
                .map(|_| world.rng.gen_bool(fraction))
                .collect();
        }
        FaultEvent::Blackout { duration, .. } => {
            let until = now + SimDuration::from_units(duration);
            if until > chaos.blackout_until {
                chaos.blackout_until = until;
            }
        }
    }
}

/// Greedily assigns queued jobs to idle nodes and lazily starts new tasks.
fn pump<M: NodeModel>(world: &mut World<M>, sim: &mut Sim<M>) {
    loop {
        if world.pool.idle_count() == 0 {
            return;
        }
        if world.queue.is_empty() && !start_next_task(world, sim) {
            return;
        }
        let mut placed_any = false;
        for _ in 0..world.queue.len() {
            if world.pool.idle_count() == 0 {
                return;
            }
            let Some(task) = world.queue.pop_front() else {
                break;
            };
            debug_assert!(
                world.tasks[task].finished_at.is_none(),
                "finished task left jobs queued"
            );
            match claim_node(world, task) {
                Some(node) => {
                    dispatch_job(world, sim, task, node);
                    placed_any = true;
                }
                None => world.queue.push_back(task),
            }
        }
        if !placed_any && !start_next_task(world, sim) {
            return;
        }
    }
}

/// Claims an idle node for one more job of `task`, if the model finds one.
fn claim_node<M: NodeModel>(world: &mut World<M>, task: usize) -> Option<NodeIndex> {
    world.nodes.claim(
        &mut world.pool,
        world.cfg.assignment,
        &world.tasks[task].used_nodes,
        &mut world.rng,
    )
}

/// Creates the next task, if any remain, and queues its first wave.
fn start_next_task<M: NodeModel>(world: &mut World<M>, sim: &mut Sim<M>) -> bool {
    if world.next_unstarted >= world.cfg.tasks {
        return false;
    }
    world.next_unstarted += 1;
    let mut exec = TaskExecution::new(world.strategy.clone());
    if let Some(cap) = world.cfg.job_cap {
        exec = exec.with_job_cap(cap);
    }
    world.nodes.task_created(&mut world.rng);
    world.tasks.push(TaskState {
        exec,
        started_at: None,
        finished_at: None,
        used_nodes: Vec::new(),
        retries: 0,
        votes: Vec::new(),
        attempt: 0,
        must_audit: false,
        voids: 0,
    });
    let t = world.tasks.len() - 1;
    poll_task(world, sim, t, /* priority = */ false);
    true
}

/// Asks a task's strategy what to do next and queues any new wave.
fn poll_task<M: NodeModel>(world: &mut World<M>, sim: &mut Sim<M>, t: usize, priority: bool) {
    if world.tasks[t].finished_at.is_some() {
        return;
    }
    match world.tasks[t].exec.step_wave() {
        WaveStep::Wave { wave, jobs } => {
            sim.emit(RunEvent::WaveOpened {
                task: t as u32,
                wave: wave as u32,
                jobs: jobs as u32,
            });
            for _ in 0..jobs {
                if priority {
                    world.queue.push_front(t);
                } else {
                    world.queue.push_back(t);
                }
            }
        }
        WaveStep::Verdict(v) => finalize(world, sim, t, Some(v), None),
        WaveStep::Pending => {}
        WaveStep::Capped { .. } => {
            if !(world.cfg.degraded_accept && accept_degraded(world, sim, t)) {
                finalize(world, sim, t, None, None);
            }
        }
    }
}

/// Graceful degradation: settles a task on its current vote leader with
/// the Bayesian confidence `q(r, a, b)` of that verdict attached to the
/// report. Invoked at the job cap and at pool starvation under
/// [`DcaConfig::degraded_accept`]. Returns `false` (task untouched) when
/// there is no leader to accept.
fn accept_degraded<M: NodeModel>(world: &mut World<M>, sim: &mut Sim<M>, t: usize) -> bool {
    let tally = world.tasks[t].exec.tally();
    let Some((&v, a)) = tally.leader() else {
        return false;
    };
    let b = tally.runner_up_count();
    // The server never knows true per-node reliability; the pool's mean is
    // its best estimate of r. A fully starved pool gives no information, so
    // fall back to the uninformative prior r = 1/2 (confidence 1/2).
    let r_est = if world.pool.alive_count() == 0 {
        0.5
    } else {
        world.pool.mean_reliability().clamp(0.0, 1.0)
    };
    let r = Reliability::new(r_est).expect("mean reliability lies in [0, 1]");
    let q = confidence(r, a, b);
    world.report.tasks_degraded += 1;
    world.report.degraded_confidence.record(q);
    finalize(world, sim, t, Some(v), Some(q));
    true
}

/// Records a task's terminal state in the run metrics. `degraded` carries
/// the Bayesian confidence of a degraded acceptance; `None` means the
/// verdict (if any) is firm.
fn finalize<M: NodeModel>(
    world: &mut World<M>,
    sim: &mut Sim<M>,
    t: usize,
    verdict: Option<bool>,
    degraded: Option<f64>,
) {
    // Audit gate: a *firm* verdict is spot-checked before acceptance.
    // Degraded acceptances are never audited — they are already flagged as
    // low-confidence. A voided verdict restarts the task instead of
    // finishing it.
    let mut audited = false;
    if world.cfg.audit.is_enabled() && degraded.is_none() {
        if let Some(v) = verdict {
            match spot_check(world, sim, t, v) {
                SpotCheck::NotSelected => {}
                SpotCheck::Accepted => audited = true,
                SpotCheck::Voided => return,
            }
        }
    }
    match verdict {
        Some(v) => sim.emit(RunEvent::VerdictReached {
            task: t as u32,
            value: v,
            degraded: degraded.is_some(),
            confidence: degraded.unwrap_or(1.0),
        }),
        None => sim.emit(RunEvent::TaskCapped { task: t as u32 }),
    }
    let state = &mut world.tasks[t];
    debug_assert!(state.finished_at.is_none());
    state.finished_at = Some(sim.now());
    world.unfinished -= 1;
    let Some(v) = verdict else {
        world.report.tasks_capped += 1;
        return;
    };
    let correct = v == world.nodes.truth(t);
    world.report.tasks_completed += 1;
    if correct {
        world.report.tasks_correct += 1;
    }
    world
        .report
        .jobs_per_task
        .record(state.exec.jobs_deployed() as f64);
    world
        .report
        .waves_per_task
        .record(state.exec.waves() as f64);
    world.report.response_time.record(state.response_units());
    // Under a quarantine policy, nodes whose vote lost the election earn a
    // strike: repeated vote-losers are the simulation's stand-in for the
    // server's result-validation blacklist. An audited task already
    // charged its liars weighted strikes, so it is exempt.
    if M::STRIKE_VOTE_LOSERS && world.cfg.quarantine.is_some() && !audited {
        let votes = std::mem::take(&mut world.tasks[t].votes);
        for (node, voted_correct) in votes {
            if voted_correct != correct {
                strike_node(world, sim, node);
            }
        }
    }
}

/// What the audit layer decided about a would-be firm verdict.
enum SpotCheck {
    /// The task was not selected for audit; accept normally.
    NotSelected,
    /// The task was audited and the verdict may be accepted (clean, or
    /// liars caught but outvoted).
    Accepted,
    /// The audit voided the verdict; the task has been restarted.
    Voided,
}

/// Locally recomputes an audited task and acts on what it finds: liars
/// earn [`AuditPolicy::strike_weight`](smartred_core::audit::AuditPolicy)
/// strikes, a caught cartel goes dormant, open tasks the liars touched are
/// re-tallied, and a verdict the liars actually swung is voided and re-run.
fn spot_check<M: NodeModel>(
    world: &mut World<M>,
    sim: &mut Sim<M>,
    t: usize,
    v: bool,
) -> SpotCheck {
    let policy = world.cfg.audit;
    let state = &world.tasks[t];
    // Escalation is a pure function of the report, so replay agrees.
    let escalated = world.report.audit_failures > 0;
    let selected = state.must_audit || policy.selects(world.cfg.seed, t as u64, escalated);
    if !selected || state.voids >= MAX_TASK_VOIDS {
        return SpotCheck::NotSelected;
    }
    sim.emit(RunEvent::AuditScheduled { task: t as u32 });
    world.report.audits += 1;
    // The recomputation itself: in this model a recorded vote *is* the
    // comparison against the honest value, so the liars are exactly the
    // wrong-voting returns. Timeouts never recorded a value and cannot be
    // contradicted.
    let liars: Vec<NodeIndex> = world.tasks[t]
        .votes
        .iter()
        .filter(|&&(_, voted_correct)| !voted_correct)
        .map(|&(node, _)| node)
        .collect();
    let correct = v == world.nodes.truth(t);
    if liars.is_empty() && correct {
        sim.emit(RunEvent::AuditPassed { task: t as u32 });
        world.tasks[t].must_audit = false;
        return SpotCheck::Accepted;
    }
    // Note: `liars` can be empty with a wrong verdict when every wrong vote
    // came from a timeout (CountAsWrong). Nobody can be struck, but the
    // recomputation still contradicts the verdict, so it is voided below.
    for &node in &liars {
        sim.emit(RunEvent::AuditFailed {
            task: t as u32,
            node: node as u32,
        });
        world.report.audit_failures += 1;
        for _ in 0..policy.strike_weight.max(1) {
            strike_node(world, sim, node);
        }
    }
    world.nodes.caught_lying(&liars, sim.now());
    // Retaliation: every open task a caught liar touched loses its tally
    // (the liar's other answers are no more trustworthy than this one).
    let caught: Vec<NodeIndex> = {
        let mut c = liars;
        c.sort_unstable();
        c.dedup();
        c
    };
    for u in 0..world.tasks.len() {
        if u == t || world.tasks[u].finished_at.is_some() {
            continue;
        }
        if !world.tasks[u]
            .votes
            .iter()
            .any(|&(n, _)| caught.contains(&n))
        {
            continue;
        }
        sim.emit(RunEvent::TaskRetallied { task: u as u32 });
        world.report.tasks_retallied += 1;
        restart_task(world, sim, u);
    }
    if correct {
        // Liars caught but outvoted: the verdict stands.
        return SpotCheck::Accepted;
    }
    sim.emit(RunEvent::VerdictVoided { task: t as u32 });
    world.report.verdicts_voided += 1;
    world.tasks[t].voids += 1;
    restart_task(world, sim, t);
    SpotCheck::Voided
}

/// Discards a task's tally and restarts it from wave 1 under a new
/// attempt: queued jobs are purged, in-flight jobs become stale, and the
/// strategy re-deploys with a fresh budget. The task's `started_at` is
/// kept — response time spans every attempt.
fn restart_task<M: NodeModel>(world: &mut World<M>, sim: &mut Sim<M>, t: usize) {
    let state = &mut world.tasks[t];
    debug_assert!(state.finished_at.is_none());
    state.attempt += 1;
    state.exec.reset();
    state.votes.clear();
    state.must_audit = false;
    sim.emit(RunEvent::EpochAdvanced {
        task: t as u32,
        epoch: state.attempt,
    });
    world.queue.retain(|&x| x != t);
    poll_task(world, sim, t, /* priority = */ true);
}

/// Registers a strike against a node and applies the discipline the
/// quarantine policy demands. No-op without a policy or for nodes that are
/// gone (departed, or banned by a volunteer blacklist).
///
/// A strike may land on a node that is *already quarantined* (an audit
/// convicts an old vote, or a weighted strike crosses the limit twice):
/// that journals a second `NodeQuarantined` and arms a second release
/// timer, but the term is not extended — the earlier timer releases the
/// node and the later one finds nothing to do.
fn strike_node<M: NodeModel>(world: &mut World<M>, sim: &mut Sim<M>, node: NodeIndex) {
    let Some(policy) = world.cfg.quarantine else {
        return;
    };
    let n = world.pool.node(node);
    if !n.alive || n.banned {
        return;
    }
    match world.pool.node_mut(node).discipline.strike(&policy) {
        DisciplineAction::None => {}
        DisciplineAction::Quarantine => {
            world.report.quarantines += 1;
            sim.emit(RunEvent::NodeQuarantined { node: node as u32 });
            world.pool.quarantine(node);
            sim.schedule_in(
                SimDuration::from_units(policy.quarantine_units),
                move |world, sim| {
                    // Banned while the term ran: the node stays out. (A
                    // *departed* node's pending release is still journaled.)
                    if world.pool.node(node).banned {
                        return;
                    }
                    sim.emit(RunEvent::NodeReleased { node: node as u32 });
                    world.pool.unquarantine(node);
                    // Re-admission is probationary: the node's next results
                    // each flag their task for a mandatory audit.
                    if world.cfg.audit.is_enabled() {
                        world
                            .pool
                            .node_mut(node)
                            .discipline
                            .begin_probation(world.cfg.audit.probation_audits);
                    }
                    pump(world, sim);
                },
            );
        }
        DisciplineAction::Blacklist => {
            world.report.blacklisted += 1;
            sim.emit(RunEvent::NodeDeparted {
                node: node as u32,
                reason: DepartureReason::Blacklist,
            });
            if let Some(job) = world.nodes.blacklist(&mut world.pool, node) {
                // The blacklisted node's in-flight job (for some other
                // task) is discarded; the server sees a timeout.
                resolve_job(world, sim, job, true);
            }
        }
    }
}

/// A job's drawn fate, turned into the event that will resolve it.
struct Flight {
    outcome: JobOutcome,
    times_out: bool,
    delay: SimDuration,
}

/// Draws the outcome and duration of a job of `task` on `node`.
fn draw_flight<M: NodeModel>(
    world: &mut World<M>,
    now: SimTime,
    task: usize,
    node: NodeIndex,
) -> Flight {
    let outcome = world
        .nodes
        .draw_outcome(&world.pool, &mut world.rng, now, task, node);
    let (lo, hi) = world.cfg.duration_window;
    let base = if lo == hi {
        lo
    } else {
        world.rng.gen_range(lo..=hi)
    };
    let duration_units = base * world.pool.node(node).speed * world.nodes.slowdown(node, now);
    let times_out = outcome == JobOutcome::NoResponse || duration_units > world.cfg.timeout_units;
    let delay = SimDuration::from_units(if times_out {
        world.cfg.timeout_units
    } else {
        duration_units
    });
    Flight {
        outcome,
        times_out,
        delay,
    }
}

/// Registers a job (or hedge twin) of `task` on its claimed `node`.
fn register_job<M: NodeModel>(
    world: &mut World<M>,
    now: SimTime,
    task: usize,
    node: NodeIndex,
    outcome: JobOutcome,
) -> JobId {
    let job = world
        .jobs
        .dispatch(task, node, outcome, world.tasks[task].attempt);
    debug_assert_eq!(world.dispatched_at.len(), job.get());
    world.dispatched_at.push(now);
    world.pool.node_mut(node).current_job = Some(job);
    world.tasks[task].used_nodes.push(node);
    job
}

/// Dispatches one job of `task` on `node` (already claimed from the idle
/// set): draws its outcome and duration, registers it, and schedules its
/// resolution event.
fn dispatch_job<M: NodeModel>(
    world: &mut World<M>,
    sim: &mut Sim<M>,
    task: usize,
    node: NodeIndex,
) {
    let Flight {
        outcome,
        times_out,
        delay,
    } = draw_flight(world, sim.now(), task, node);
    let job = register_job(world, sim.now(), task, node, outcome);
    world.report.total_jobs += 1;
    let state = &mut world.tasks[task];
    if state.started_at.is_none() {
        state.started_at = Some(sim.now());
    }
    // Input transfer precedes service: the job's timeout and hedge clocks
    // start only once the payload has landed, and the node is busy (and
    // charged) for the transfer as well as the service window.
    let lead = charge_transfer(world, sim, job, task, node);
    world.report.busy_node_units += (lead + delay).as_units();
    sim.emit(RunEvent::JobDispatched {
        job: job.get() as u32,
        task: task as u32,
        node: node as u32,
        eta: sim.now() + lead + delay,
    });
    sim.schedule_in(lead + delay, move |world, sim| {
        resolve_job(world, sim, job, times_out);
    });
    // Straggler hedging: once the latency estimator is warm, arm a check at
    // the quantile threshold. An armed check carries the dispatch epoch so
    // a void/re-tally between arming and firing disarms it — the same
    // guard that keeps audit re-execution and deadline reissue from
    // double-firing hedges for one task epoch.
    if let Some(trigger) = &world.hedge {
        if let Some(threshold) = trigger.threshold() {
            if threshold < world.cfg.timeout_units {
                let epoch = world.tasks[task].attempt;
                sim.schedule_in(
                    lead + SimDuration::from_units(threshold),
                    move |world, sim| {
                        hedge_check(world, sim, job, task, epoch);
                    },
                );
            }
        }
    }
}

/// Charges `job`'s input transfer to `node` when a network model is
/// configured, journaling the `TransferStarted`/`TransferCompleted` pair,
/// and returns the transfer duration (zero without a network — the legacy
/// free-communication event stream, bit for bit).
fn charge_transfer<M: NodeModel>(
    world: &mut World<M>,
    sim: &mut Sim<M>,
    job: JobId,
    task: usize,
    node: NodeIndex,
) -> SimDuration {
    let Some(net) = world.network.as_mut() else {
        return SimDuration::ZERO;
    };
    let bytes = world
        .cfg
        .network
        .expect("network model exists only when configured")
        .payload_bytes;
    let start = sim.now();
    let eta = net.begin(
        sim,
        job.get() as u32,
        task as u32,
        node as u32,
        bytes,
        |_, _| {},
    );
    world.report.transfers += 1;
    world.report.bytes_moved += bytes;
    eta.since(start)
}

/// Fires when a dispatched job reaches the hedge threshold still
/// unresolved: launches a twin of the same logical replica on another
/// node. The twin bypasses the wave/job accounting entirely — the first
/// pair member to genuinely resolve supplies the replica's vote and the
/// loser is discarded.
fn hedge_check<M: NodeModel>(
    world: &mut World<M>,
    sim: &mut Sim<M>,
    origin: JobId,
    t: usize,
    epoch: u32,
) {
    let state = &world.tasks[t];
    if world.jobs.get(origin).resolved || state.finished_at.is_some() || state.attempt != epoch {
        return;
    }
    let Some(trigger) = &world.hedge else {
        return;
    };
    if state.exec.hedges_launched() >= trigger.policy().max_per_task as usize {
        return;
    }
    let Some(node) = claim_node(world, t) else {
        // No idle node to duplicate onto: hedging is best-effort.
        return;
    };
    let Flight {
        outcome,
        times_out,
        delay,
    } = draw_flight(world, sim.now(), t, node);
    let twin = register_job(world, sim.now(), t, node, outcome);
    world.tasks[t].exec.note_hedge();
    world.report.hedges_launched += 1;
    world.hedge_pair.insert(origin, twin);
    world.hedge_pair.insert(twin, origin);
    world.twin_origin.insert(twin, origin);
    // The twin's launch event replaces JobDispatched (its busy time is
    // likewise excluded from `busy_node_units` — hedge cost is tracked by
    // the hedge counters and `total_cost`, not the utilization metric).
    sim.emit(RunEvent::HedgeLaunched {
        job: twin.get() as u32,
        task: t as u32,
        origin: origin.get() as u32,
        epoch,
    });
    // The twin runs on a different node, so it pays its own input
    // transfer — hedging under a network model races transfer + service
    // against the straggler's remaining service.
    let lead = charge_transfer(world, sim, twin, t, node);
    sim.schedule_in(lead + delay, move |world, sim| {
        resolve_job(world, sim, twin, times_out);
    });
}

/// Settles a hedge twin exactly once: `won` means its result supplied the
/// replica's vote; otherwise its work was discarded.
fn settle_twin<M: NodeModel>(
    world: &mut World<M>,
    sim: &mut Sim<M>,
    twin: JobId,
    t: usize,
    won: bool,
) {
    let removed = world.twin_origin.remove(&twin);
    debug_assert!(removed.is_some(), "twin settled twice");
    if won {
        world.report.hedges_won += 1;
        sim.emit(RunEvent::HedgeWon {
            job: twin.get() as u32,
            task: t as u32,
        });
    } else {
        world.report.hedges_wasted += 1;
        sim.emit(RunEvent::HedgeWasted {
            job: twin.get() as u32,
            task: t as u32,
        });
    }
}

/// Feeds a genuinely resolved job's latency to the hedge estimator.
fn observe_latency<M: NodeModel>(world: &mut World<M>, now: SimTime, job: JobId) {
    if let Some(trigger) = world.hedge.as_mut() {
        trigger.observe(now.since(world.dispatched_at[job.get()]).as_units());
    }
}

/// Resolves a job: feeds its result (or its timeout) to the task and pumps
/// the scheduler. Idempotent — late events for already-resolved jobs (e.g.
/// after a node departure) are ignored.
fn resolve_job<M: NodeModel>(world: &mut World<M>, sim: &mut Sim<M>, job: JobId, timed_out: bool) {
    let Some(slot) = world.jobs.resolve(job) else {
        return;
    };
    world.pool.release(slot.node);
    let t = slot.task;
    // Hedge-pair bookkeeping: dissolve this job's pairing (if any) up
    // front so exactly one pair member ever records a vote, a strike, or a
    // timeout for the shared logical replica.
    let is_twin = world.twin_origin.contains_key(&job);
    let partner = world.hedge_pair.remove(&job);
    if let Some(p) = partner {
        world.hedge_pair.remove(&p);
    }
    let partner_pending = partner.is_some_and(|p| !world.jobs.get(p).resolved);
    // The value a wrong (or, under CountAsWrong, silent) job stands for.
    let truth = world.nodes.truth(t);
    if world.tasks[t].finished_at.is_some() {
        // Other replicas settled the task while this pair raced; any twin
        // still owes its terminal hedge event.
        if is_twin {
            settle_twin(world, sim, job, t, false);
        }
    } else if slot.attempt != world.tasks[t].attempt {
        // The job predates an audit void/re-tally of its task: its
        // reply (or timeout) belongs to a discarded tally and is
        // dropped without a vote, a strike, or a retry.
        if is_twin {
            settle_twin(world, sim, job, t, false);
        } else {
            sim.emit(RunEvent::StaleReplyDropped {
                job: job.get() as u32,
                task: t as u32,
                epoch: world.tasks[t].attempt,
            });
        }
    } else if timed_out {
        if partner_pending {
            // Suppressed: the partner is still racing for this replica's
            // vote, so the lapse charges no timeout, strike, or vote —
            // the surviving member carries the replica alone.
            if is_twin {
                settle_twin(world, sim, job, t, false);
            }
        } else {
            observe_latency(world, sim.now(), job);
            if is_twin {
                settle_twin(world, sim, job, t, false);
            }
            world.report.timeouts += 1;
            sim.emit(RunEvent::JobTimedOut {
                job: job.get() as u32,
                task: t as u32,
                node: slot.node as u32,
            });
            strike_node(world, sim, slot.node);
            if !retry_job(world, sim, t) {
                match world.cfg.timeout_policy {
                    TimeoutPolicy::CountAsWrong => {
                        world.tasks[t].exec.record(!truth);
                        emit_tally(world, sim, t, !truth);
                    }
                    TimeoutPolicy::Reissue => world.tasks[t].exec.abandon(1),
                }
                emit_wave_closed(world, sim, t);
                poll_task(world, sim, t, /* priority = */ true);
            }
        }
    } else {
        observe_latency(world, sim.now(), job);
        if partner_pending {
            // This copy won the race: cancel the loser and free its node
            // (its scheduled resolution will find it already resolved).
            let p = partner.expect("partner_pending implies a partner");
            let pslot = world.jobs.resolve(p).expect("partner was pending");
            world.pool.release(pslot.node);
            if !is_twin {
                settle_twin(world, sim, p, t, false);
            }
        }
        let correct = slot.outcome == JobOutcome::Correct;
        let value = truth == correct;
        sim.emit(RunEvent::JobReturned {
            job: job.get() as u32,
            task: t as u32,
            node: slot.node as u32,
            value,
        });
        if is_twin {
            settle_twin(world, sim, job, t, true);
        }
        world.tasks[t].exec.record(value);
        emit_tally(world, sim, t, value);
        if world.cfg.quarantine.is_some() || world.cfg.audit.is_enabled() {
            world.tasks[t].votes.push((slot.node, correct));
        }
        if world.cfg.audit.is_enabled()
            && world
                .pool
                .node_mut(slot.node)
                .discipline
                .consume_probation()
        {
            world.tasks[t].must_audit = true;
        }
        emit_wave_closed(world, sim, t);
        poll_task(world, sim, t, /* priority = */ true);
    }
    pump(world, sim);
}

/// Emits the vote-tally snapshot after a vote landed in task `t`'s tally.
fn emit_tally<M: NodeModel>(world: &World<M>, sim: &mut Sim<M>, t: usize, value: bool) {
    if !sim.journal().is_enabled() {
        return;
    }
    let (leader_count, runner_up) = world.tasks[t].exec.leader_counts();
    sim.emit(RunEvent::VoteTallied {
        task: t as u32,
        value,
        leader_count: leader_count as u32,
        runner_up: runner_up as u32,
    });
}

/// Emits a wave-closed event when task `t`'s current wave has just drained.
fn emit_wave_closed<M: NodeModel>(world: &World<M>, sim: &mut Sim<M>, t: usize) {
    if sim.journal().is_enabled() && world.tasks[t].exec.wave_boundary() {
        sim.emit(RunEvent::WaveClosed {
            task: t as u32,
            wave: world.tasks[t].exec.waves() as u32,
        });
    }
}

/// Schedules a backoff-delayed retry of a timed-out job under the retry
/// policy, if the task has attempts left. Returns whether a retry was
/// scheduled (in which case the timeout is hidden from the vote).
fn retry_job<M: NodeModel>(world: &mut World<M>, sim: &mut Sim<M>, t: usize) -> bool {
    let Some(policy) = world.cfg.retry else {
        return false;
    };
    let attempt = world.tasks[t].retries;
    if attempt >= policy.max_retries {
        return false;
    }
    world.tasks[t].retries = attempt + 1;
    world.report.retries += 1;
    sim.emit(RunEvent::JobRetried {
        task: t as u32,
        attempt: attempt + 1,
    });
    // Strike the timed-out job from the vote and re-deploy after a
    // jittered exponential backoff: the delayed poll re-queues one job
    // with retry priority.
    world.tasks[t].exec.abandon(1);
    emit_wave_closed(world, sim, t);
    let delay = backoff_duration(
        &mut world.rng,
        policy.base_units,
        policy.multiplier,
        attempt,
        policy.jitter,
    );
    sim.schedule_in(delay, move |world, sim| {
        poll_task(world, sim, t, /* priority = */ true);
        pump(world, sim);
    });
    true
}

/// Schedules the next regional outage (Poisson process): a random region
/// goes silent for the configured duration.
fn schedule_outage(world: &mut World<DcaNodes>, sim: &mut Sim<DcaNodes>) {
    let FailureConfig::RegionalOutages {
        outage_rate,
        outage_duration,
        ..
    } = world.cfg.failure
    else {
        unreachable!("outages scheduled only under RegionalOutages");
    };
    let delay = exponential_delay(&mut world.rng, outage_rate);
    sim.schedule_in(delay, move |world, sim| {
        if world.unfinished == 0 {
            return;
        }
        let down_until = &mut world.nodes.region_down_until;
        let region = world.rng.gen_range(0..down_until.len());
        let until = sim.now() + SimDuration::from_units(outage_duration);
        world.report.outages += 1;
        sim.emit(RunEvent::OutageStarted {
            region: region as u32,
        });
        if until > down_until[region] {
            down_until[region] = until;
        }
        schedule_outage(world, sim);
    });
}

fn exponential_delay(rng: &mut SimRng, rate: f64) -> SimDuration {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    SimDuration::from_units(-u.ln() / rate)
}

/// Schedules the next volunteer departure (Poisson process).
fn schedule_departure(world: &mut World<DcaNodes>, sim: &mut Sim<DcaNodes>) {
    let rate = world.cfg.churn.expect("churn configured").leave_rate;
    let delay = exponential_delay(&mut world.rng, rate);
    sim.schedule_in(delay, |world, sim| {
        if world.unfinished == 0 {
            return; // computation over; stop the churn process
        }
        if let Some(idx) = world.pool.random_alive(&mut world.rng) {
            let orphaned = world.pool.depart(idx);
            world.report.departures += 1;
            sim.emit(RunEvent::NodeDeparted {
                node: idx as u32,
                reason: DepartureReason::Churn,
            });
            if let Some(job) = orphaned {
                // The node vanished mid-job: the server sees a timeout.
                resolve_job(world, sim, job, true);
            }
        }
        schedule_departure(world, sim);
    });
}

/// Schedules the next volunteer arrival (Poisson process).
fn schedule_arrival(world: &mut World<DcaNodes>, sim: &mut Sim<DcaNodes>) {
    let rate = world.cfg.churn.expect("churn configured").join_rate;
    let delay = exponential_delay(&mut world.rng, rate);
    sim.schedule_in(delay, |world, sim| {
        if world.unfinished == 0 {
            return;
        }
        let pool_cfg = world.cfg.pool;
        let idx = world.pool.spawn_node(&pool_cfg, &mut world.rng);
        world.report.arrivals += 1;
        sim.emit(RunEvent::NodeJoined { node: idx as u32 });
        pump(world, sim);
        schedule_arrival(world, sim);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartred_core::analysis;
    use smartred_core::params::{KVotes, Reliability, VoteMargin};
    use smartred_core::resilience::{QuarantinePolicy, RetryPolicy};
    use smartred_core::strategy::{Iterative, Progressive, Traditional};

    use crate::config::ChurnConfig;
    use crate::faults::FaultPlan;

    fn r07() -> Reliability {
        Reliability::new(0.7).unwrap()
    }

    #[test]
    fn traditional_cost_is_exactly_k() {
        let cfg = DcaConfig::paper_baseline(500, 100, 0.3, 1);
        let report = run(Rc::new(Traditional::new(KVotes::new(5).unwrap())), &cfg).unwrap();
        assert_eq!(report.tasks_completed, 500);
        assert_eq!(report.cost_factor(), 5.0);
        assert_eq!(report.total_jobs, 2500);
        assert_eq!(report.tasks_stranded, 0);
    }

    #[test]
    fn simulated_reliability_tracks_eq2() {
        let cfg = DcaConfig::paper_baseline(20_000, 500, 0.3, 2);
        let k = KVotes::new(9).unwrap();
        let report = run(Rc::new(Traditional::new(k)), &cfg).unwrap();
        let expected = analysis::traditional::reliability(k, r07());
        assert!(
            (report.reliability() - expected).abs() < 0.015,
            "{} vs {expected}",
            report.reliability()
        );
    }

    #[test]
    fn progressive_cost_tracks_eq3() {
        let cfg = DcaConfig::paper_baseline(20_000, 500, 0.3, 3);
        let k = KVotes::new(9).unwrap();
        let report = run(Rc::new(Progressive::new(k)), &cfg).unwrap();
        let expected = analysis::progressive::cost_series(k, r07());
        assert!(
            (report.cost_factor() - expected).abs() < 0.1,
            "{} vs {expected}",
            report.cost_factor()
        );
    }

    #[test]
    fn iterative_cost_and_reliability_track_eq5_eq6() {
        let cfg = DcaConfig::paper_baseline(20_000, 500, 0.3, 4);
        let d = VoteMargin::new(4).unwrap();
        let report = run(Rc::new(Iterative::new(d)), &cfg).unwrap();
        let cost = analysis::iterative::cost(d, r07());
        let rel = analysis::iterative::reliability(d, r07());
        assert!(
            (report.cost_factor() - cost).abs() < 0.15,
            "{} vs {cost}",
            report.cost_factor()
        );
        assert!((report.reliability() - rel).abs() < 0.015);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = DcaConfig::paper_baseline(300, 50, 0.3, 77);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
    }

    /// A config with enough node-speed spread to make stragglers, and a
    /// hedge trigger warm enough to fire on them.
    fn hedged_config(seed: u64) -> DcaConfig {
        use smartred_core::hedge::HedgePolicy;
        let mut cfg = DcaConfig::paper_baseline(300, 60, 0.3, seed);
        cfg.pool.speed_window = (1.0, 4.0);
        cfg.timeout_units = 10.0;
        cfg.hedge = Some(HedgePolicy {
            quantile: 0.7,
            min_samples: 10,
            multiplier: 1.0,
            max_per_task: 2,
        });
        cfg
    }

    #[test]
    fn hedging_fires_and_every_twin_settles() {
        let cfg = hedged_config(21);
        let report = run(Rc::new(Iterative::new(VoteMargin::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(report.tasks_completed, 300);
        assert!(report.hedges_launched > 0, "no hedges fired");
        assert_eq!(
            report.hedges_launched,
            report.hedges_won + report.hedges_wasted,
            "every launched twin must settle exactly once"
        );
        assert!(report.total_cost() >= report.total_jobs + report.hedges_launched);
    }

    #[test]
    fn hedged_journal_replays_to_identical_report() {
        let cfg = hedged_config(22);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let run_a = run_journaled(s(), &cfg).unwrap();
        assert!(run_a.report.hedges_launched > 0);
        assert_eq!(
            crate::replay::report_from_journal(&run_a.journal, &cfg),
            run_a.report
        );
        // Journaling is a pure observer even with hedging enabled.
        assert_eq!(run(s(), &cfg).unwrap(), run_a.report);
        // The hedged journal round-trips through JSONL bit for bit.
        let restored =
            smartred_desim::journal::Journal::from_jsonl(&run_a.journal.to_jsonl()).unwrap();
        assert_eq!(restored.digest(), run_a.journal.digest());
    }

    #[test]
    fn hedging_never_fires_before_the_estimator_warms() {
        use smartred_core::hedge::HedgePolicy;
        let mut cfg = hedged_config(23);
        // More samples demanded than the run can ever produce.
        cfg.hedge = Some(HedgePolicy {
            min_samples: u64::MAX,
            ..HedgePolicy::default()
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(report.hedges_launched, 0);
        assert_eq!(report.cost_factor(), 3.0);
    }

    #[test]
    fn assignment_policies_preserve_verdict_metrics() {
        use smartred_core::execution::Assignment;
        let k = KVotes::new(5).unwrap();
        for policy in Assignment::ALL {
            let mut cfg = DcaConfig::paper_baseline(200, 40, 0.3, 31);
            cfg.assignment = policy;
            let s = || Rc::new(Traditional::new(k));
            let a = run(s(), &cfg).unwrap();
            // Deterministic per policy, cost structure untouched.
            assert_eq!(a, run(s(), &cfg).unwrap(), "{}", policy.name());
            assert_eq!(a.tasks_completed, 200, "{}", policy.name());
            assert_eq!(a.cost_factor(), 5.0, "{}", policy.name());
            // Replay agrees under every policy.
            let journaled = run_journaled(s(), &cfg).unwrap();
            assert_eq!(
                crate::replay::report_from_journal(&journaled.journal, &cfg),
                journaled.report,
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn response_time_orders_tr_pr_ir() {
        // §5.2: TR responds fastest; PR and IR pay for their waves.
        let cfg = DcaConfig::paper_baseline(5_000, 2_000, 0.3, 5);
        let k = KVotes::new(9).unwrap();
        let tr = run(Rc::new(Traditional::new(k)), &cfg).unwrap();
        let pr = run(Rc::new(Progressive::new(k)), &cfg).unwrap();
        let d = analysis::improvement::matched_margin(
            k,
            r07(),
            analysis::improvement::MarginMatch::Nearest,
        )
        .unwrap();
        let ir = run(Rc::new(Iterative::new(d)), &cfg).unwrap();
        assert!(
            tr.mean_response() < pr.mean_response(),
            "TR {} !< PR {}",
            tr.mean_response(),
            pr.mean_response()
        );
        assert!(pr.mean_response() <= ir.mean_response() * 1.05);
        // Fig. 6 magnitudes: single-wave TR sits in [1, 1.5].
        assert!(tr.mean_response() > 0.9 && tr.mean_response() < 1.6);
    }

    #[test]
    fn unresponsive_nodes_cause_timeouts() {
        let mut cfg = DcaConfig::paper_baseline(1_000, 200, 0.2, 6);
        cfg.pool.unresponsive_rate = 0.1;
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.timeouts > 0);
        // Timeouts count as wrong votes: effective r ≈ 0.7.
        let expected = analysis::traditional::reliability(KVotes::new(3).unwrap(), r07());
        assert!((report.reliability() - expected).abs() < 0.05);
    }

    #[test]
    fn reissue_policy_keeps_reliability_at_cost() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 200, 0.0, 7);
        cfg.pool.unresponsive_rate = 0.3;
        cfg.timeout_policy = TimeoutPolicy::Reissue;
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        // Only hangs exist; re-issue hides them from the vote, so every
        // verdict is correct, at > k jobs per task.
        assert_eq!(report.reliability(), 1.0);
        assert!(report.cost_factor() > 3.0);
    }

    #[test]
    fn job_cap_caps_tasks() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 200, 0.5, 8);
        cfg.job_cap = Some(6);
        let report = run(Rc::new(Iterative::new(VoteMargin::new(5).unwrap())), &cfg).unwrap();
        assert!(report.tasks_capped > 0);
        assert_eq!(report.tasks_capped + report.tasks_completed, 2_000);
    }

    #[test]
    fn common_shock_defeats_redundancy() {
        let mut cfg = DcaConfig::paper_baseline(4_000, 300, 0.3, 9);
        cfg.failure = FailureConfig::CommonShock {
            shock_probability: 0.2,
        };
        let k = KVotes::new(9).unwrap();
        let shocked = run(Rc::new(Traditional::new(k)), &cfg).unwrap();
        let baseline = run(
            Rc::new(Traditional::new(k)),
            &DcaConfig::paper_baseline(4_000, 300, 0.3, 9),
        )
        .unwrap();
        // Perfectly correlated failures are unfixable by redundancy (§2.2):
        // reliability drops by roughly the shock probability.
        assert!(shocked.reliability() < baseline.reliability() - 0.1);
    }

    #[test]
    fn churn_departures_and_arrivals_happen() {
        let mut cfg = DcaConfig::paper_baseline(3_000, 100, 0.3, 10);
        cfg.churn = Some(ChurnConfig {
            leave_rate: 0.5,
            join_rate: 0.5,
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.departures > 0);
        assert!(report.arrivals > 0);
        assert_eq!(report.tasks_completed + report.tasks_capped, 3_000);
    }

    #[test]
    fn pool_smaller_than_wave_still_completes() {
        // k = 9 but only 4 nodes: node reuse is waived after exhaustion.
        let cfg = DcaConfig::paper_baseline(50, 4, 0.3, 11);
        let report = run(Rc::new(Traditional::new(KVotes::new(9).unwrap())), &cfg).unwrap();
        assert_eq!(report.tasks_completed, 50);
        assert_eq!(report.cost_factor(), 9.0);
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = DcaConfig::paper_baseline(0, 10, 0.3, 1);
        assert!(run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).is_err());
    }

    #[test]
    fn makespan_scales_with_load() {
        let small = DcaConfig::paper_baseline(100, 100, 0.3, 12);
        let large = DcaConfig::paper_baseline(2_000, 100, 0.3, 12);
        let s = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &small).unwrap();
        let l = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &large).unwrap();
        assert!(l.makespan_units > s.makespan_units * 5.0);
    }

    #[test]
    fn utilization_is_near_one_under_task_heavy_load() {
        // §5.2: tasks ≫ nodes means no node is ever idle. Only the final
        // drain-out (when fewer jobs remain than nodes) leaves slack.
        let cfg = DcaConfig::paper_baseline(20_000, 100, 0.3, 14);
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(
            report.utilization() > 0.97,
            "utilization {}",
            report.utilization()
        );
    }

    #[test]
    fn utilization_is_low_when_nodes_outnumber_work() {
        let cfg = DcaConfig::paper_baseline(50, 5_000, 0.3, 15);
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(
            report.utilization() < 0.2,
            "utilization {}",
            report.utilization()
        );
    }

    #[test]
    fn regional_outages_cause_correlated_timeouts() {
        let mut cfg = DcaConfig::paper_baseline(10_000, 300, 0.3, 16);
        cfg.failure = FailureConfig::RegionalOutages {
            regions: 5,
            outage_rate: 0.5,
            outage_duration: 5.0,
        };
        let report = run(Rc::new(Iterative::new(VoteMargin::new(4).unwrap())), &cfg).unwrap();
        assert!(report.outages > 0, "outages should occur");
        assert!(report.timeouts > 0, "outaged jobs hang to timeout");
        // Every task still terminates.
        assert_eq!(
            report.tasks_completed + report.tasks_capped + report.tasks_stranded,
            10_000
        );
        // Outages act as extra unreliability: cost exceeds the calm run.
        let calm = run(
            Rc::new(Iterative::new(VoteMargin::new(4).unwrap())),
            &DcaConfig::paper_baseline(10_000, 300, 0.3, 16),
        )
        .unwrap();
        assert!(report.cost_factor() > calm.cost_factor());
    }

    #[test]
    fn retry_hides_transient_timeouts_from_the_vote() {
        let mut cfg = DcaConfig::paper_baseline(1_000, 100, 0.0, 20);
        cfg.pool.unresponsive_rate = 0.2;
        // Count-as-wrong charges every hang straight to the vote…
        let base = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        // …retry-with-backoff re-deploys hangs instead of charging them.
        cfg.retry = Some(RetryPolicy::default());
        let retried = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(retried.retries > 0);
        assert!(
            retried.reliability() > base.reliability(),
            "retry {} !> base {}",
            retried.reliability(),
            base.reliability()
        );
        assert!(retried.reliability() > 0.99);
    }

    #[test]
    fn exhausted_retry_budget_falls_back_to_timeout_policy() {
        let mut cfg = DcaConfig::paper_baseline(300, 20, 0.0, 21);
        cfg.pool.unresponsive_rate = 0.5;
        cfg.retry = Some(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        // Half the jobs hang; one retry per task cannot absorb them all, so
        // post-budget timeouts land as wrong votes and cost reliability.
        assert!(report.retries > 0);
        assert!(report.reliability() < 1.0);
        assert_eq!(report.tasks_completed, 300);
    }

    #[test]
    fn quarantine_pulls_repeat_offenders_from_the_pool() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 50, 0.0, 22);
        cfg.pool.unresponsive_rate = 0.3;
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 2,
            quarantine_units: 5.0,
            blacklist_after: 1_000,
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.quarantines > 0);
        assert_eq!(report.blacklisted, 0);
        assert_eq!(report.tasks_completed, 2_000);
    }

    #[test]
    fn blacklisting_removes_persistent_hangers() {
        let mut cfg = DcaConfig::paper_baseline(500, 40, 0.0, 23);
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 1,
            quarantine_units: 0.5,
            blacklist_after: 2,
        });
        // Node 0 hangs for the whole run: every job it gets times out.
        cfg.faults = Some(FaultPlan::new().hang_window(0.0, 1e9, 0));
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(
            report.blacklisted >= 1,
            "blacklisted {}",
            report.blacklisted
        );
        assert_eq!(report.tasks_completed, 500);
        assert_eq!(report.reliability(), 1.0);
    }

    #[test]
    fn vote_losers_earn_strikes() {
        // Perfectly reliable except for colluders, so every strike comes
        // from losing a vote, not from timeouts.
        let mut cfg = DcaConfig::paper_baseline(2_000, 50, 0.3, 24);
        cfg.pool.unresponsive_rate = 0.0;
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 3,
            quarantine_units: 2.0,
            blacklist_after: 1_000,
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(5).unwrap())), &cfg).unwrap();
        assert_eq!(report.timeouts, 0);
        assert!(report.quarantines > 0);
        // Quarantining liars raises reliability over the undisciplined run.
        let base = run(
            Rc::new(Traditional::new(KVotes::new(5).unwrap())),
            &DcaConfig::paper_baseline(2_000, 50, 0.3, 24),
        )
        .unwrap();
        assert!(
            report.reliability() >= base.reliability(),
            "disciplined {} < undisciplined {}",
            report.reliability(),
            base.reliability()
        );
    }

    #[test]
    fn degraded_accept_converts_capped_tasks_into_confident_verdicts() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 200, 0.5, 8);
        cfg.job_cap = Some(6);
        let capped = run(Rc::new(Iterative::new(VoteMargin::new(5).unwrap())), &cfg).unwrap();
        assert!(capped.tasks_capped > 0);
        cfg.degraded_accept = true;
        let report = run(Rc::new(Iterative::new(VoteMargin::new(5).unwrap())), &cfg).unwrap();
        assert!(report.tasks_degraded > 0);
        assert!(report.tasks_capped < capped.tasks_capped);
        assert_eq!(report.tasks_completed + report.tasks_capped, 2_000);
        let q = report.mean_degraded_confidence();
        assert!(q > 0.0 && q <= 1.0, "confidence {q}");
    }

    #[test]
    fn fault_plan_crashes_depart_nodes_once() {
        let mut cfg = DcaConfig::paper_baseline(1_000, 50, 0.3, 25);
        cfg.faults = Some(
            FaultPlan::new()
                .crash_at(1.0, 0)
                .crash_at(1.0, 1)
                .crash_at(2.0, 0),
        );
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(report.faults_injected, 3);
        // The second crash of node 0 finds it already gone.
        assert_eq!(report.crashes, 2);
        assert_eq!(report.tasks_completed, 1_000);
    }

    #[test]
    fn blackout_stalls_every_job_in_the_window() {
        let mut cfg = DcaConfig::paper_baseline(1_000, 100, 0.0, 26);
        cfg.timeout_policy = TimeoutPolicy::Reissue;
        cfg.faults = Some(FaultPlan::new().blackout(1.0, 3.0));
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.timeouts > 0);
        assert_eq!(report.reliability(), 1.0);
        let calm = run(
            Rc::new(Traditional::new(KVotes::new(3).unwrap())),
            &DcaConfig::paper_baseline(1_000, 100, 0.0, 26),
        )
        .unwrap();
        assert_eq!(calm.timeouts, 0);
    }

    #[test]
    fn collusion_burst_injects_correlated_wrong_votes() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 100, 0.0, 27);
        cfg.faults = Some(FaultPlan::new().collusion_burst(0.5, 5.0, 0.8));
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        // Perfect nodes never lose a vote — only the cartel can.
        assert!(report.reliability() < 1.0);
        assert_eq!(report.tasks_completed, 2_000);
    }

    #[test]
    fn stragglers_run_into_the_timeout() {
        let mut cfg = DcaConfig::paper_baseline(500, 10, 0.0, 28);
        // 50× slowdown pushes durations (0.5–1.5) far past the 3-unit
        // timeout: every job node 0 receives in the window times out.
        cfg.faults = Some(FaultPlan::new().straggler(0.0, 1e9, 0, 50.0));
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.timeouts > 0);
        assert_eq!(report.tasks_completed, 500);
    }

    #[test]
    fn chaotic_runs_are_deterministic() {
        let mut cfg = DcaConfig::paper_baseline(800, 60, 0.3, 29);
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.degraded_accept = true;
        cfg.job_cap = Some(12);
        cfg.churn = Some(ChurnConfig {
            leave_rate: 0.3,
            join_rate: 0.3,
        });
        cfg.faults = Some(
            FaultPlan::new()
                .crash_at(1.0, 3)
                .hang_window(2.0, 4.0, 5)
                .straggler(1.5, 6.0, 7, 8.0)
                .collusion_burst(3.0, 2.0, 0.4)
                .blackout(6.0, 1.0),
        );
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.faults_injected, 5);
    }

    #[test]
    fn audit_catches_cartel_that_replication_misses() {
        use smartred_core::audit::AuditPolicy;

        use crate::config::CartelConfig;

        // Honest nodes are perfect; the only wrong votes come from a 40%
        // coalition lying in concert on a quarter of the tasks — rarely
        // enough that vote-loser discipline cannot pin down who lied
        // (when the cartel wins the vote, the honest voters are the ones
        // struck).
        let base_cfg = |audit: AuditPolicy| {
            let mut cfg = DcaConfig::paper_baseline(2_000, 50, 0.0, 40);
            cfg.cartel = Some(CartelConfig {
                members: 20,
                lie_rate: 0.25,
                dormancy_units: 10.0,
            });
            cfg.quarantine = Some(QuarantinePolicy::default());
            cfg.audit = audit;
            cfg
        };
        let s = || Rc::new(Traditional::new(KVotes::new(3).unwrap()));
        let unaudited = run(s(), &base_cfg(AuditPolicy::disabled())).unwrap();
        assert_eq!(unaudited.audits, 0);
        assert_eq!(unaudited.verdicts_voided, 0);
        assert!(
            unaudited.reliability() < 0.97,
            "the cartel should swing verdicts, got {}",
            unaudited.reliability()
        );

        let audited = run(s(), &base_cfg(AuditPolicy::spot(0.15))).unwrap();
        assert!(audited.audits > 0);
        assert!(audited.audit_failures > 0);
        assert!(audited.verdicts_voided > 0);
        assert!(
            audited.reliability() > unaudited.reliability() + 0.02,
            "audited {} !> unaudited {} + margin",
            audited.reliability(),
            unaudited.reliability()
        );

        // Matched cost: raising replication instead (TR-5, audit-free)
        // costs more than TR-3 plus a 15% audit budget, yet the coalition
        // still beats it — the audit layer wins the frontier.
        let tr5 = run(
            Rc::new(Traditional::new(KVotes::new(5).unwrap())),
            &base_cfg(AuditPolicy::disabled()),
        )
        .unwrap();
        assert!(
            audited.total_cost() <= tr5.total_cost(),
            "audited cost {} !<= TR-5 cost {}",
            audited.total_cost(),
            tr5.total_cost()
        );
        assert!(
            audited.reliability() > tr5.reliability(),
            "audited {} !> TR-5 {}",
            audited.reliability(),
            tr5.reliability()
        );
    }

    #[test]
    fn probation_forces_audits_after_quarantine_release() {
        use smartred_core::audit::AuditPolicy;

        // spot_rate 0: every audit on the report must come from a
        // probation flag. Timeout strikes quarantine hangers; releases put
        // them on probation; their next results force audits.
        let mut cfg = DcaConfig::paper_baseline(2_000, 40, 0.0, 41);
        cfg.pool.unresponsive_rate = 0.2;
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 2,
            quarantine_units: 1.0,
            blacklist_after: 1_000,
        });
        cfg.audit = AuditPolicy {
            spot_rate: 0.0,
            escalated_rate: 0.0,
            probation_audits: 2,
            strike_weight: 3,
        };
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.quarantines > 0);
        assert!(
            report.audits > 0,
            "probationary results must flag their tasks for audit"
        );
        // Hangs never record a value, so no one can be convicted of lying
        // — but audits still void verdicts that timeouts swung to wrong
        // (CountAsWrong), rescuing those tasks.
        assert_eq!(report.audit_failures, 0);
        assert!(report.verdicts_voided > 0);
    }

    #[test]
    fn caught_cartel_dormancy_evades_further_detection() {
        use smartred_core::audit::AuditPolicy;

        use crate::config::CartelConfig;

        let run_with_dormancy = |dormancy_units: f64| {
            let mut cfg = DcaConfig::paper_baseline(2_000, 50, 0.0, 42);
            cfg.cartel = Some(CartelConfig {
                members: 20,
                lie_rate: 0.3,
                dormancy_units,
            });
            cfg.quarantine = Some(QuarantinePolicy::default());
            cfg.audit = AuditPolicy::spot(0.2);
            run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap()
        };
        let brazen = run_with_dormancy(0.0);
        let adaptive = run_with_dormancy(30.0);
        // An adaptive cartel that lies low after a member is caught gives
        // the auditor far less evidence than one that keeps lying.
        assert!(brazen.audit_failures > 0);
        assert!(
            adaptive.audit_failures < brazen.audit_failures,
            "adaptive {} !< brazen {}",
            adaptive.audit_failures,
            brazen.audit_failures
        );
    }

    #[test]
    fn audited_runs_are_deterministic() {
        use smartred_core::audit::AuditPolicy;

        use crate::config::CartelConfig;

        let mut cfg = DcaConfig::paper_baseline(800, 60, 0.2, 43);
        cfg.pool.unresponsive_rate = 0.05;
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.audit = AuditPolicy::spot(0.2);
        cfg.cartel = Some(CartelConfig {
            members: 15,
            lie_rate: 0.3,
            dormancy_units: 5.0,
        });
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
        assert!(a.audits > 0);
    }

    #[test]
    fn zero_outage_rate_matches_independent() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 100, 0.3, 17);
        cfg.failure = FailureConfig::RegionalOutages {
            regions: 4,
            outage_rate: 0.0,
            outage_duration: 1.0,
        };
        let with = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        let without = run(
            Rc::new(Traditional::new(KVotes::new(3).unwrap())),
            &DcaConfig::paper_baseline(2_000, 100, 0.3, 17),
        )
        .unwrap();
        assert_eq!(with.outages, 0);
        assert_eq!(with.reliability(), without.reliability());
        assert_eq!(with.total_jobs, without.total_jobs);
    }
}
