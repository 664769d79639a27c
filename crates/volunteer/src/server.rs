//! The BOINC-like project server and deployment runner.
//!
//! Mirrors the paper's §4.1 setup: a custom task server decomposes a
//! 3-SAT instance into workunits, a scheduler hands jobs to volunteer
//! hosts, and a validator — parameterized by one of the redundancy
//! strategies — decides when each workunit's result is trustworthy. The
//! whole deployment runs on the deterministic discrete-event engine, with
//! host speeds, seeded faults, platform faults, and hangs drawn from a
//! [`crate::host::PlanetLabProfile`].

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use rand::Rng;
use smartred_core::audit::{AuditPolicy, Cartel};
use smartred_core::error::ParamError;
use smartred_core::execution::{Assignment, TaskExecution, WaveStep};
use smartred_core::hedge::{HedgePolicy, HedgeTrigger};
use smartred_core::resilience::{DisciplineAction, NodeDiscipline, QuarantinePolicy, RetryPolicy};
use smartred_core::strategy::RedundancyStrategy;
use smartred_desim::engine::Simulator;
use smartred_desim::journal::{DepartureReason, Journal, RunEvent};
use smartred_desim::rng::{backoff_duration, seeded_rng, SimRng};
use smartred_desim::time::{SimDuration, SimTime};
use smartred_sat::assignment::decompose;
use smartred_sat::gen::{random_3sat, ThreeSatConfig};
use smartred_sat::solve::dpll;
use smartred_stats::Summary;

use crate::host::{draw_behavior, Host, HostBehavior, PlanetLabProfile};
use crate::workunit::{Workunit, WorkunitId, WorkunitVerdict};

/// What the server does when a job misses its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlinePolicy {
    /// Count the silence as the colluding wrong value — the paper's threat
    /// model ("a node that does not report a result in a timely fashion
    /// \[has\] failed", §2.2).
    #[default]
    CountAsWrong,
    /// Abandon and re-deploy, BOINC's production behavior.
    Reissue,
}

/// How the scheduler picks among idle hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Uniformly random idle host — the paper's model (assumption 1 relies
    /// on this).
    #[default]
    RandomIdle,
    /// The fastest idle host. Reduces deadline misses on heterogeneous
    /// pools, at the price of biasing which hosts produce results (and
    /// thus weakening the random-assignment argument for uniform job
    /// reliability).
    FastestIdle,
}

/// Configuration of one deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct VolunteerConfig {
    /// Number of volunteer hosts (the paper used a 200-node PlanetLab
    /// slice).
    pub hosts: usize,
    /// 3-SAT variables (the paper: 22).
    pub num_vars: u32,
    /// Workunits the instance is decomposed into (the paper: 140).
    pub tasks: usize,
    /// Clause-to-variable ratio of the generated instance.
    pub clause_ratio: f64,
    /// Host behavior profile.
    pub profile: PlanetLabProfile,
    /// Base job compute time window in time units (scaled by host speed).
    pub duration_window: (f64, f64),
    /// Server-side deadline for a job, in time units.
    pub deadline_units: f64,
    /// Deadline handling.
    pub deadline_policy: DeadlinePolicy,
    /// Idle-host selection policy.
    pub scheduler: SchedulerPolicy,
    /// Optional per-workunit job cap.
    pub job_cap: Option<usize>,
    /// Optional retry-with-backoff policy for deadline misses: the miss is
    /// hidden from the vote and the job re-deployed after a jittered
    /// exponential backoff, up to the policy's budget.
    pub retry: Option<RetryPolicy>,
    /// Optional host discipline: hosts that repeatedly miss deadlines are
    /// quarantined (pulled from the scheduler), and repeat offenders are
    /// blacklisted permanently.
    pub quarantine: Option<QuarantinePolicy>,
    /// Server-side audit layer: accepted verdicts are spot-checked against
    /// the cached ground truth, liars earn weighted strikes, tainted
    /// verdicts are voided and re-run, and quarantine-released hosts serve
    /// probation. Disabled by default.
    pub audit: AuditPolicy,
    /// Optional colluding cartel: hosts `0..size` return the negated truth
    /// on the coalition's seeded per-workunit lie schedule, overriding
    /// their drawn behavior.
    pub cartel: Option<Cartel>,
    /// Optional straggler hedging: a job that outlives the online
    /// latency-quantile estimate gets a duplicate twin on another host, and
    /// the first copy to answer supplies the replica's vote.
    pub hedge: Option<HedgePolicy>,
    /// Host-assignment policy for job dispatch. `Random` reproduces the
    /// historical scheduler (and composes with [`SchedulerPolicy`]); the
    /// deterministic alternatives bypass the random pick entirely.
    pub assignment: Assignment,
    /// Root seed.
    pub seed: u64,
}

impl VolunteerConfig {
    /// The paper's deployment shape, scaled by `num_vars` (use 22 for the
    /// full-size instance; tests use smaller instances for speed).
    pub fn paper_deployment(num_vars: u32, seed: u64) -> Self {
        Self {
            hosts: 200,
            num_vars,
            tasks: 140,
            clause_ratio: 4.26,
            profile: PlanetLabProfile::default(),
            duration_window: (0.5, 1.5),
            deadline_units: 4.0,
            deadline_policy: DeadlinePolicy::CountAsWrong,
            scheduler: SchedulerPolicy::default(),
            job_cap: None,
            retry: None,
            quarantine: None,
            audit: AuditPolicy::disabled(),
            cartel: None,
            hedge: None,
            assignment: Assignment::Random,
            seed,
        }
    }

    fn validate(&self) -> Result<(), ParamError> {
        let fail = |name: &'static str, value: f64, expected: &'static str| {
            Err(ParamError::OutOfRange {
                name,
                value,
                expected,
            })
        };
        if self.hosts == 0 {
            return fail("hosts", 0.0, "at least 1");
        }
        if self.tasks == 0 {
            return fail("tasks", 0.0, "at least 1");
        }
        if !(3..=63).contains(&self.num_vars) {
            return fail("num_vars", self.num_vars as f64, "3..=63");
        }
        if (self.tasks as u64) > (1u64 << self.num_vars) {
            return fail("tasks", self.tasks as f64, "at most 2^num_vars");
        }
        if self.profile.validate().is_err() {
            return fail("profile", f64::NAN, "valid PlanetLabProfile");
        }
        let (lo, hi) = self.duration_window;
        if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi) {
            return fail("duration_window", lo, "0 <= lo <= hi");
        }
        if !(self.deadline_units.is_finite() && self.deadline_units > 0.0) {
            return fail("deadline_units", self.deadline_units, "positive");
        }
        if let Some(retry) = &self.retry {
            retry.validate()?;
        }
        if let Some(quarantine) = &self.quarantine {
            quarantine.validate()?;
        }
        if self.audit.validate().is_err() {
            return fail(
                "audit",
                self.audit.spot_rate,
                "rates in [0, 1], escalated_rate >= spot_rate, strike_weight >= 1",
            );
        }
        if let Some(cartel) = &self.cartel {
            if cartel.size as usize > self.hosts {
                return fail("cartel.size", cartel.size as f64, "at most the host count");
            }
            if !(0.0..=1.0).contains(&cartel.lie_rate) || !cartel.lie_rate.is_finite() {
                return fail("cartel.lie_rate", cartel.lie_rate, "[0, 1]");
            }
        }
        if let Some(hedge) = &self.hedge {
            hedge.validate()?;
        }
        Ok(())
    }
}

/// Outcome of one deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Per-workunit verdicts in workunit order.
    pub verdicts: Vec<WorkunitVerdict>,
    /// Simulated time to complete the whole computation.
    pub completion_units: f64,
    /// Total jobs ("results" in BOINC terms) dispatched.
    pub total_jobs: u64,
    /// Jobs per completed workunit.
    pub jobs_per_task: Summary,
    /// Response time per completed workunit.
    pub response_time: Summary,
    /// Jobs that missed the deadline.
    pub timeouts: u64,
    /// Deadline misses retried with backoff instead of being charged to
    /// the vote.
    pub retries: u64,
    /// Quarantines imposed on hosts that repeatedly missed deadlines.
    pub quarantines: u64,
    /// Hosts permanently removed from the scheduler after repeated
    /// quarantines.
    pub blacklisted: u64,
    /// Local recomputations performed by the audit layer (each costs one
    /// job-equivalent of server compute).
    pub audits: u64,
    /// Results an audit caught contradicting the recomputation.
    pub audit_failures: u64,
    /// Tainted verdicts voided before acceptance (the workunit re-ran).
    pub verdicts_voided: u64,
    /// Open workunits re-tallied because a caught liar had touched them.
    pub wus_retallied: u64,
    /// Hedge twins launched for straggling jobs (quantile-triggered
    /// duplicates; not counted in `total_jobs` or the wave accounting).
    pub hedges_launched: u64,
    /// Hedge twins that beat their straggling origin and supplied the vote.
    pub hedges_won: u64,
    /// Hedge twins whose work was discarded (origin answered first, or the
    /// twin itself lapsed).
    pub hedges_wasted: u64,
    /// Whether the generated instance is satisfiable (ground truth via
    /// DPLL).
    pub instance_satisfiable: bool,
    /// The computation's reported answer: OR over accepted block verdicts
    /// (`None` if any workunit failed to complete).
    pub reported_satisfiable: Option<bool>,
}

impl DeploymentReport {
    /// Fraction of completed workunits whose accepted value was correct.
    pub fn reliability(&self) -> f64 {
        let completed = self
            .verdicts
            .iter()
            .filter(|v| v.accepted.is_some())
            .count();
        if completed == 0 {
            return 0.0;
        }
        let correct = self.verdicts.iter().filter(|v| v.correct).count();
        correct as f64 / completed as f64
    }

    /// Mean jobs per workunit.
    pub fn cost_factor(&self) -> f64 {
        self.jobs_per_task.mean()
    }

    /// Whether the end-to-end computation reported the right SAT answer.
    pub fn computation_correct(&self) -> bool {
        self.reported_satisfiable == Some(self.instance_satisfiable)
    }

    /// Total work performed, in job-equivalents: dispatched jobs plus the
    /// audit layer's local recomputations plus hedge twins — the basis of
    /// matched-cost comparisons between strategies.
    pub fn total_cost(&self) -> u64 {
        self.total_jobs + self.audits + self.hedges_launched
    }
}

/// A shared, immutable strategy validating every workunit.
pub type SharedStrategy = Rc<dyn RedundancyStrategy<bool>>;

/// A workunit suffers at most this many audit voids before its verdict is
/// accepted as-is (guards against a standing majority cartel looping a
/// task forever when no discipline thins it).
const MAX_WU_VOIDS: u32 = 4;

struct WuState {
    wu: Workunit,
    exec: TaskExecution<bool, SharedStrategy>,
    used_hosts: Vec<usize>,
    started_at: Option<SimTime>,
    finished: bool,
    /// Deadline misses retried with backoff so far (`retry` policy).
    retries: u32,
    /// Recorded `(host, value_was_truth)` pairs, kept under an audit
    /// policy to identify liars at spot-check time.
    votes: Vec<(usize, bool)>,
    /// Replica attempt, bumped when an audit voids or re-tallies the
    /// workunit; in-flight jobs from older attempts resolve as stale.
    attempt: u32,
    /// Set when a probation-host result landed: the verdict must be
    /// audited before acceptance regardless of the spot-check draw.
    must_audit: bool,
    /// Audit voids suffered so far (see [`MAX_WU_VOIDS`]).
    voids: u32,
}

struct JobSlot {
    wu: usize,
    host: usize,
    behavior: HostBehavior,
    /// The workunit's replica attempt at dispatch (stale detection).
    attempt: u32,
    resolved: bool,
}

struct World {
    cfg: VolunteerConfig,
    hosts: Vec<Host>,
    idle: Vec<usize>,
    wus: Vec<WuState>,
    queue: VecDeque<usize>,
    jobs: Vec<JobSlot>,
    rng: SimRng,
    total_jobs: u64,
    timeouts: u64,
    retries: u64,
    quarantines: u64,
    blacklisted: u64,
    audits: u64,
    audit_failures: u64,
    verdicts_voided: u64,
    wus_retallied: u64,
    unfinished: usize,
    /// Per-workunit response time in units, filled at finalization.
    response_units: Vec<f64>,
    /// Per-host strike/quarantine counters (`quarantine` policy).
    discipline: Vec<NodeDiscipline>,
    /// Hosts currently out of the scheduler (quarantined or blacklisted).
    quarantined: Vec<bool>,
    /// Blacklisted hosts: quarantined for good, never struck or released.
    banned: Vec<bool>,
    /// Online latency-quantile trigger for straggler hedging (`cfg.hedge`).
    hedge: Option<HedgeTrigger>,
    /// Dispatch time of every job, indexed by job id — feeds the hedge
    /// trigger's latency estimator at resolution.
    dispatched_at: Vec<SimTime>,
    /// Active hedge pairs, both directions, until the first resolution.
    hedge_pair: HashMap<usize, usize>,
    /// Which jobs are hedge twins (mapped to their origin), kept until the
    /// twin settles as won or wasted.
    twin_origin: HashMap<usize, usize>,
    hedges_launched: u64,
    hedges_won: u64,
    hedges_wasted: u64,
    /// Round-robin dispatch cursor (host index of the next preferred pick).
    rr_cursor: u32,
    /// Jobs ever assigned per host — the least-loaded policy's signal.
    host_loads: Vec<u64>,
}

type Sim = Simulator<World>;

/// Runs one volunteer-computing deployment and returns its report.
///
/// Generates a fresh 3-SAT instance from `config.seed`, decomposes it into
/// workunits, computes each block's ground truth once server-side, then
/// simulates the full deployment: scheduling, host faults, deadlines, and
/// strategy-driven validation.
///
/// # Errors
///
/// Returns [`ParamError`] for invalid configurations.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use smartred_core::params::VoteMargin;
/// use smartred_core::strategy::Iterative;
/// use smartred_volunteer::server::{run, VolunteerConfig};
///
/// // A scaled-down deployment (12-variable instance) for quick runs.
/// let cfg = VolunteerConfig::paper_deployment(12, 3);
/// let report = run(Rc::new(Iterative::new(VoteMargin::new(4)?)), &cfg)?;
/// assert_eq!(report.verdicts.len(), 140);
/// # Ok::<(), smartred_core::error::ParamError>(())
/// ```
pub fn run(
    strategy: SharedStrategy,
    config: &VolunteerConfig,
) -> Result<DeploymentReport, ParamError> {
    run_inner(strategy, config, false).map(|(report, _)| report)
}

/// Runs one deployment with event journaling enabled, returning the report
/// and the structured event journal. The report is bit-identical to
/// [`run`] on the same inputs; the journal is a pure observer.
///
/// # Errors
///
/// Returns [`ParamError`] for invalid configurations.
pub fn run_journaled(
    strategy: SharedStrategy,
    config: &VolunteerConfig,
) -> Result<(DeploymentReport, Journal), ParamError> {
    run_inner(strategy, config, true)
}

fn run_inner(
    strategy: SharedStrategy,
    config: &VolunteerConfig,
    journaled: bool,
) -> Result<(DeploymentReport, Journal), ParamError> {
    config.validate()?;
    let mut rng = seeded_rng(config.seed);

    // Server-side setup: generate the instance, decompose it, and compute
    // each block's true answer once (this is the actual 3-SAT computation;
    // during the run, a host's honest answer is the cached truth and a
    // faulty one its negation — the Byzantine worst case).
    let formula = random_3sat(
        ThreeSatConfig {
            num_vars: config.num_vars,
            clause_ratio: config.clause_ratio,
        },
        &mut rng,
    );
    let instance_satisfiable = dpll(&formula).is_some();
    let blocks = decompose(config.num_vars, config.tasks);
    let strategy_ref = &strategy;
    let wus: Vec<WuState> = blocks
        .iter()
        .enumerate()
        .map(|(i, &block)| {
            let mut exec = TaskExecution::new(strategy_ref.clone());
            if let Some(cap) = config.job_cap {
                exec = exec.with_job_cap(cap);
            }
            WuState {
                wu: Workunit {
                    id: WorkunitId(i),
                    block,
                    truth: block.contains_satisfying(&formula),
                },
                exec,
                used_hosts: Vec::new(),
                started_at: None,
                finished: false,
                retries: 0,
                votes: Vec::new(),
                attempt: 0,
                must_audit: false,
                voids: 0,
            }
        })
        .collect();
    debug_assert_eq!(
        wus.iter().any(|w| w.wu.truth),
        instance_satisfiable,
        "block truths must agree with the solver"
    );

    let hosts: Vec<Host> = (0..config.hosts)
        .map(|i| Host::sample(i as u64, &config.profile, &mut rng))
        .collect();
    let idle = (0..config.hosts).collect();

    let mut world = World {
        cfg: config.clone(),
        hosts,
        idle,
        wus,
        queue: VecDeque::new(),
        jobs: Vec::new(),
        rng,
        total_jobs: 0,
        timeouts: 0,
        retries: 0,
        quarantines: 0,
        blacklisted: 0,
        audits: 0,
        audit_failures: 0,
        verdicts_voided: 0,
        wus_retallied: 0,
        unfinished: config.tasks,
        response_units: vec![0.0; config.tasks],
        discipline: vec![NodeDiscipline::default(); config.hosts],
        quarantined: vec![false; config.hosts],
        banned: vec![false; config.hosts],
        hedge: config
            .hedge
            .map(|p| HedgeTrigger::new(p).expect("hedge policy validated above")),
        dispatched_at: Vec::new(),
        hedge_pair: HashMap::new(),
        twin_origin: HashMap::new(),
        hedges_launched: 0,
        hedges_won: 0,
        hedges_wasted: 0,
        rr_cursor: 0,
        host_loads: vec![0; config.hosts],
    };
    let mut sim = Sim::new();
    if journaled {
        sim.enable_journal();
    }

    // Queue every workunit's first wave, then let the scheduler run.
    for i in 0..world.wus.len() {
        poll_workunit(&mut world, &mut sim, i, false);
    }
    pump(&mut world, &mut sim);
    sim.run(&mut world);
    sim.emit(RunEvent::RunEnded);

    // Assemble the report.
    let mut jobs_per_task = Summary::new();
    let mut response_time = Summary::new();
    let mut verdicts = Vec::with_capacity(world.wus.len());
    let mut all_completed = true;
    let mut any_true = false;
    for state in &world.wus {
        let accepted = state.exec.report().verdict;
        match accepted {
            Some(v) => {
                jobs_per_task.record(state.exec.jobs_deployed() as f64);
                if v {
                    any_true = true;
                }
            }
            None => all_completed = false,
        }
        verdicts.push(WorkunitVerdict {
            id: state.wu.id,
            accepted,
            correct: accepted == Some(state.wu.truth),
            jobs: state.exec.jobs_deployed(),
            waves: state.exec.waves(),
            response_units: 0.0,
        });
    }
    // Response times were accumulated during finalization.
    for (v, units) in verdicts.iter_mut().zip(world.response_units.iter()) {
        v.response_units = *units;
        if v.accepted.is_some() {
            response_time.record(*units);
        }
    }

    Ok((
        DeploymentReport {
            verdicts,
            completion_units: sim.now().as_units(),
            total_jobs: world.total_jobs,
            jobs_per_task,
            response_time,
            timeouts: world.timeouts,
            retries: world.retries,
            quarantines: world.quarantines,
            blacklisted: world.blacklisted,
            audits: world.audits,
            audit_failures: world.audit_failures,
            verdicts_voided: world.verdicts_voided,
            wus_retallied: world.wus_retallied,
            hedges_launched: world.hedges_launched,
            hedges_won: world.hedges_won,
            hedges_wasted: world.hedges_wasted,
            instance_satisfiable,
            reported_satisfiable: if all_completed { Some(any_true) } else { None },
        },
        sim.take_journal(),
    ))
}

fn pump(world: &mut World, sim: &mut Sim) {
    loop {
        if world.idle.is_empty() || world.queue.is_empty() {
            return;
        }
        let mut placed_any = false;
        for _ in 0..world.queue.len() {
            if world.idle.is_empty() {
                return;
            }
            let Some(wu) = world.queue.pop_front() else {
                break;
            };
            match claim_host(world, wu) {
                Some(host) => {
                    dispatch(world, sim, wu, host);
                    placed_any = true;
                }
                None => world.queue.push_back(wu),
            }
        }
        if !placed_any {
            return;
        }
    }
}

/// Claims a random idle host not yet used by `wu` (waived once the
/// workunit has touched every host — BOINC's `one_result_per_user_per_wu`
/// analog).
fn claim_host(world: &mut World, wu: usize) -> Option<usize> {
    if world.idle.is_empty() {
        return None;
    }
    let used = &world.wus[wu].used_hosts;
    let waive = used.len() >= world.hosts.len();
    // The deterministic assignment policies bypass the random pick
    // entirely (no RNG draws), so layers that share the stream — behavior
    // draws, durations — are undisturbed relative to a Random run of the
    // same shape. `Random` falls through to the historical scheduler.
    if world.cfg.assignment != Assignment::Random {
        let mut eligible: Vec<u32> = world
            .idle
            .iter()
            .copied()
            .filter(|h| waive || !used.contains(h))
            .map(|h| h as u32)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        eligible.sort_unstable();
        let loads: Vec<u64> = eligible
            .iter()
            .map(|&h| world.host_loads[h as usize])
            .collect();
        let at = world
            .cfg
            .assignment
            .pick(&eligible, &loads, world.rr_cursor, 0);
        let host = eligible[at] as usize;
        world.rr_cursor = eligible[at].wrapping_add(1);
        let pos = world
            .idle
            .iter()
            .position(|&h| h == host)
            .expect("picked host is idle");
        world.idle.swap_remove(pos);
        world.hosts[host].busy = true;
        world.host_loads[host] += 1;
        return Some(host);
    }
    let mut pick = None;
    for _ in 0..8 {
        let pos = world.rng.gen_range(0..world.idle.len());
        if waive || !used.contains(&world.idle[pos]) {
            pick = Some(pos);
            break;
        }
    }
    if pick.is_none() {
        let start = world.rng.gen_range(0..world.idle.len());
        for i in 0..world.idle.len() {
            let pos = (start + i) % world.idle.len();
            if waive || !used.contains(&world.idle[pos]) {
                pick = Some(pos);
                break;
            }
        }
    }
    let mut pos = pick?;
    if world.cfg.scheduler == SchedulerPolicy::FastestIdle {
        // Among eligible idle hosts, take the fastest (smallest speed
        // multiplier); the random pick above only serves as a fallback.
        let mut best_speed = world.hosts[world.idle[pos]].speed;
        for (i, &candidate) in world.idle.iter().enumerate() {
            if (waive || !used.contains(&candidate)) && world.hosts[candidate].speed < best_speed {
                best_speed = world.hosts[candidate].speed;
                pos = i;
            }
        }
    }
    let host = world.idle.swap_remove(pos);
    world.hosts[host].busy = true;
    world.host_loads[host] += 1;
    Some(host)
}

fn dispatch(world: &mut World, sim: &mut Sim, wu: usize, host: usize) {
    let behavior = draw_behavior(&world.cfg.profile, &mut world.rng);
    let (lo, hi) = world.cfg.duration_window;
    let base = if lo == hi {
        lo
    } else {
        world.rng.gen_range(lo..=hi)
    };
    let duration_units = base * world.hosts[host].speed;
    let job = world.jobs.len();
    world.jobs.push(JobSlot {
        wu,
        host,
        behavior,
        attempt: world.wus[wu].attempt,
        resolved: false,
    });
    debug_assert_eq!(world.dispatched_at.len(), job);
    world.dispatched_at.push(sim.now());
    world.total_jobs += 1;
    let state = &mut world.wus[wu];
    state.used_hosts.push(host);
    if state.started_at.is_none() {
        state.started_at = Some(sim.now());
    }
    let times_out = behavior == HostBehavior::Hung || duration_units > world.cfg.deadline_units;
    let delay = if times_out {
        SimDuration::from_units(world.cfg.deadline_units)
    } else {
        SimDuration::from_units(duration_units)
    };
    sim.emit(RunEvent::JobDispatched {
        job: job as u32,
        task: wu as u32,
        node: host as u32,
        eta: sim.now() + delay,
    });
    sim.schedule_in(delay, move |world, sim| resolve(world, sim, job, times_out));
    // Straggler hedging: once the latency estimator is warm, arm a check
    // at the quantile threshold. The armed check carries the dispatch
    // epoch so an audit void/re-tally between arming and firing disarms it
    // — hedges never double-fire for a superseded task epoch.
    if let Some(trigger) = &world.hedge {
        if let Some(threshold) = trigger.threshold() {
            if threshold < world.cfg.deadline_units {
                let epoch = world.wus[wu].attempt;
                sim.schedule_in(SimDuration::from_units(threshold), move |world, sim| {
                    hedge_check(world, sim, job, wu, epoch);
                });
            }
        }
    }
}

/// Fires when a dispatched job reaches the hedge threshold still
/// unresolved: launches a twin of the same logical replica on another
/// host. The twin bypasses the wave/job accounting — the first pair member
/// to genuinely resolve supplies the replica's vote; the loser is
/// discarded.
fn hedge_check(world: &mut World, sim: &mut Sim, origin: usize, wu: usize, epoch: u32) {
    if world.jobs[origin].resolved || world.wus[wu].finished || world.wus[wu].attempt != epoch {
        return;
    }
    let Some(trigger) = &world.hedge else {
        return;
    };
    let policy = trigger.policy();
    if world.wus[wu].exec.hedges_launched() >= policy.max_per_task as usize {
        return;
    }
    let Some(host) = claim_host(world, wu) else {
        // No idle host to duplicate onto: hedging is best-effort.
        return;
    };
    let behavior = draw_behavior(&world.cfg.profile, &mut world.rng);
    let (lo, hi) = world.cfg.duration_window;
    let base = if lo == hi {
        lo
    } else {
        world.rng.gen_range(lo..=hi)
    };
    let duration_units = base * world.hosts[host].speed;
    let twin = world.jobs.len();
    world.jobs.push(JobSlot {
        wu,
        host,
        behavior,
        attempt: epoch,
        resolved: false,
    });
    debug_assert_eq!(world.dispatched_at.len(), twin);
    world.dispatched_at.push(sim.now());
    world.wus[wu].used_hosts.push(host);
    world.wus[wu].exec.note_hedge();
    world.hedges_launched += 1;
    world.hedge_pair.insert(origin, twin);
    world.hedge_pair.insert(twin, origin);
    world.twin_origin.insert(twin, origin);
    // The twin's launch event replaces JobDispatched: it never enters the
    // wave accounting, so the journal's dispatch count still equals the
    // strategy's deploys on replay.
    sim.emit(RunEvent::HedgeLaunched {
        job: twin as u32,
        task: wu as u32,
        origin: origin as u32,
        epoch,
    });
    let times_out = behavior == HostBehavior::Hung || duration_units > world.cfg.deadline_units;
    let delay = if times_out {
        SimDuration::from_units(world.cfg.deadline_units)
    } else {
        SimDuration::from_units(duration_units)
    };
    sim.schedule_in(delay, move |world, sim| {
        resolve(world, sim, twin, times_out)
    });
}

/// Settles a hedge twin exactly once: `won` means its result supplied the
/// replica's vote; otherwise its work was discarded.
fn settle_twin(world: &mut World, sim: &mut Sim, twin: usize, wu: usize, won: bool) {
    let removed = world.twin_origin.remove(&twin);
    debug_assert!(removed.is_some(), "twin settled twice");
    if won {
        world.hedges_won += 1;
        sim.emit(RunEvent::HedgeWon {
            job: twin as u32,
            task: wu as u32,
        });
    } else {
        world.hedges_wasted += 1;
        sim.emit(RunEvent::HedgeWasted {
            job: twin as u32,
            task: wu as u32,
        });
    }
}

/// Feeds a genuinely resolved job's latency to the hedge estimator.
fn observe_latency(world: &mut World, now: SimTime, job: usize) {
    if let Some(trigger) = world.hedge.as_mut() {
        trigger.observe(now.since(world.dispatched_at[job]).as_units());
    }
}

/// Emits the vote-tally snapshot after a vote landed in workunit `wu`.
fn emit_tally(world: &World, sim: &mut Sim, wu: usize, value: bool) {
    if !sim.journal().is_enabled() {
        return;
    }
    let (leader_count, runner_up) = world.wus[wu].exec.leader_counts();
    sim.emit(RunEvent::VoteTallied {
        task: wu as u32,
        value,
        leader_count: leader_count as u32,
        runner_up: runner_up as u32,
    });
}

/// Emits a wave-closed event when workunit `wu`'s wave has just drained.
fn emit_wave_closed(world: &World, sim: &mut Sim, wu: usize) {
    if sim.journal().is_enabled() && world.wus[wu].exec.wave_boundary() {
        sim.emit(RunEvent::WaveClosed {
            task: wu as u32,
            wave: world.wus[wu].exec.waves() as u32,
        });
    }
}

fn resolve(world: &mut World, sim: &mut Sim, job: usize, timed_out: bool) {
    if world.jobs[job].resolved {
        return;
    }
    world.jobs[job].resolved = true;
    let (wu, host, behavior) = {
        let slot = &world.jobs[job];
        (slot.wu, slot.host, slot.behavior)
    };
    world.hosts[host].busy = false;
    if !world.quarantined[host] {
        world.idle.push(host);
    }
    // Hedge-pair bookkeeping: dissolve this job's pairing (if any) up
    // front so exactly one pair member ever records a vote, a strike, or a
    // deadline miss for the shared logical replica.
    let is_twin = world.twin_origin.contains_key(&job);
    let partner = world.hedge_pair.remove(&job);
    if let Some(p) = partner {
        world.hedge_pair.remove(&p);
    }
    let partner_pending = partner.is_some_and(|p| !world.jobs[p].resolved);
    if world.wus[wu].finished {
        // Other replicas settled the workunit while this pair raced; any
        // twin still owes its terminal hedge event.
        if is_twin {
            settle_twin(world, sim, job, wu, false);
        }
    } else {
        let truth = world.wus[wu].wu.truth;
        if world.jobs[job].attempt != world.wus[wu].attempt {
            // The job predates an audit void/re-tally of its workunit: its
            // reply (or miss) belongs to a discarded tally and is dropped.
            if is_twin {
                settle_twin(world, sim, job, wu, false);
            } else {
                sim.emit(RunEvent::StaleReplyDropped {
                    job: job as u32,
                    task: wu as u32,
                    epoch: world.wus[wu].attempt,
                });
            }
        } else if timed_out {
            if partner_pending {
                // Suppressed: the partner is still racing for this
                // replica's vote, so the lapse charges no miss, strike,
                // or vote — the surviving member carries the replica.
                if is_twin {
                    settle_twin(world, sim, job, wu, false);
                }
            } else {
                observe_latency(world, sim.now(), job);
                if is_twin {
                    settle_twin(world, sim, job, wu, false);
                }
                world.timeouts += 1;
                sim.emit(RunEvent::JobTimedOut {
                    job: job as u32,
                    task: wu as u32,
                    node: host as u32,
                });
                strike_host(world, sim, host);
                if !retry_workunit(world, sim, wu) {
                    match world.cfg.deadline_policy {
                        // The colluding wrong value is the negated truth.
                        DeadlinePolicy::CountAsWrong => {
                            world.wus[wu].exec.record(!truth);
                            emit_tally(world, sim, wu, !truth);
                        }
                        DeadlinePolicy::Reissue => world.wus[wu].exec.abandon(1),
                    }
                    emit_wave_closed(world, sim, wu);
                    poll_workunit(world, sim, wu, true);
                }
            }
        } else {
            observe_latency(world, sim.now(), job);
            if partner_pending {
                // This copy won the race: cancel the loser and free its
                // host (its scheduled resolution will find it resolved).
                let p = partner.expect("partner_pending implies a partner");
                world.jobs[p].resolved = true;
                let ph = world.jobs[p].host;
                world.hosts[ph].busy = false;
                if !world.quarantined[ph] {
                    world.idle.push(ph);
                }
                if !is_twin {
                    settle_twin(world, sim, p, wu, false);
                }
            }
            let mut value = match behavior {
                HostBehavior::Honest => truth,
                HostBehavior::Faulty => !truth,
                HostBehavior::Hung => unreachable!("hangs resolve via timeout"),
            };
            // A colluding host overrides its drawn behavior on the
            // coalition's per-workunit lie schedule.
            if let Some(cartel) = world.cfg.cartel {
                if cartel.is_member(host as u32) && cartel.lies_on(world.cfg.seed, wu as u64) {
                    value = !truth;
                }
            }
            sim.emit(RunEvent::JobReturned {
                job: job as u32,
                task: wu as u32,
                node: host as u32,
                value,
            });
            if is_twin {
                settle_twin(world, sim, job, wu, true);
            }
            world.wus[wu].exec.record(value);
            emit_tally(world, sim, wu, value);
            if world.cfg.audit.is_enabled() {
                world.wus[wu].votes.push((host, value == truth));
                if world.discipline[host].consume_probation() {
                    world.wus[wu].must_audit = true;
                }
            }
            emit_wave_closed(world, sim, wu);
            poll_workunit(world, sim, wu, true);
        }
    }
    pump(world, sim);
}

/// Schedules a backoff-delayed retry of a missed deadline under the retry
/// policy, if the workunit has attempts left. Returns whether a retry was
/// scheduled (in which case the miss is hidden from the vote).
fn retry_workunit(world: &mut World, sim: &mut Sim, wu: usize) -> bool {
    let Some(policy) = world.cfg.retry else {
        return false;
    };
    let attempt = world.wus[wu].retries;
    if attempt >= policy.max_retries {
        return false;
    }
    world.wus[wu].retries = attempt + 1;
    world.retries += 1;
    sim.emit(RunEvent::JobRetried {
        task: wu as u32,
        attempt: attempt + 1,
    });
    world.wus[wu].exec.abandon(1);
    emit_wave_closed(world, sim, wu);
    let delay = backoff_duration(
        &mut world.rng,
        policy.base_units,
        policy.multiplier,
        attempt,
        policy.jitter,
    );
    sim.schedule_in(delay, move |world, sim| {
        poll_workunit(world, sim, wu, /* priority = */ true);
        pump(world, sim);
    });
    true
}

/// Registers a deadline-miss strike against a host and applies the
/// quarantine policy's discipline. Blacklisting is a quarantine that is
/// never lifted.
fn strike_host(world: &mut World, sim: &mut Sim, host: usize) {
    let Some(policy) = world.cfg.quarantine else {
        return;
    };
    if world.banned[host] {
        return;
    }
    match world.discipline[host].strike(&policy) {
        DisciplineAction::None => {}
        DisciplineAction::Quarantine => {
            world.quarantines += 1;
            sim.emit(RunEvent::NodeQuarantined { node: host as u32 });
            quarantine_host(world, host);
            sim.schedule_in(
                SimDuration::from_units(policy.quarantine_units),
                move |world, sim| {
                    // A host blacklisted while this term ran stays out.
                    if world.banned[host] {
                        return;
                    }
                    sim.emit(RunEvent::NodeReleased { node: host as u32 });
                    // Idempotent: an earlier timer may already have
                    // released the host (a strike landing on a quarantined
                    // host journals a second quarantine and arms a second
                    // timer, but does not extend the term).
                    let was_out = std::mem::take(&mut world.quarantined[host]);
                    // Re-admission is probationary: the host's next results
                    // each flag their workunit for a mandatory audit.
                    if world.cfg.audit.is_enabled() {
                        world.discipline[host].begin_probation(world.cfg.audit.probation_audits);
                    }
                    if was_out && !world.hosts[host].busy {
                        world.idle.push(host);
                    }
                    pump(world, sim);
                },
            );
        }
        DisciplineAction::Blacklist => {
            world.blacklisted += 1;
            // The host stays in the host table but leaves the scheduler for
            // good — from the journal's point of view it has departed.
            sim.emit(RunEvent::NodeDeparted {
                node: host as u32,
                reason: DepartureReason::Blacklist,
            });
            world.banned[host] = true;
            quarantine_host(world, host);
        }
    }
}

fn quarantine_host(world: &mut World, host: usize) {
    if world.quarantined[host] {
        return;
    }
    world.quarantined[host] = true;
    if let Some(pos) = world.idle.iter().position(|&h| h == host) {
        world.idle.swap_remove(pos);
    }
}

fn poll_workunit(world: &mut World, sim: &mut Sim, wu: usize, priority: bool) {
    if world.wus[wu].finished {
        return;
    }
    match world.wus[wu].exec.step_wave() {
        WaveStep::Wave { wave, jobs } => {
            sim.emit(RunEvent::WaveOpened {
                task: wu as u32,
                wave: wave as u32,
                jobs: jobs as u32,
            });
            for _ in 0..jobs {
                if priority {
                    world.queue.push_front(wu);
                } else {
                    world.queue.push_back(wu);
                }
            }
        }
        WaveStep::Verdict(v) => finalize(world, sim, wu, Some(v)),
        WaveStep::Capped { .. } => finalize(world, sim, wu, None),
        WaveStep::Pending => {}
    }
}

fn finalize(world: &mut World, sim: &mut Sim, wu: usize, verdict: Option<bool>) {
    // Audit gate: an accepted verdict is spot-checked against the cached
    // ground truth before acceptance; a voided verdict restarts the
    // workunit instead of finishing it.
    if world.cfg.audit.is_enabled() {
        if let Some(v) = verdict {
            if !spot_check(world, sim, wu, v) {
                return;
            }
        }
    }
    match verdict {
        Some(v) => sim.emit(RunEvent::VerdictReached {
            task: wu as u32,
            value: v,
            degraded: false,
            confidence: 1.0,
        }),
        None => sim.emit(RunEvent::TaskCapped { task: wu as u32 }),
    }
    let state = &mut world.wus[wu];
    debug_assert!(!state.finished);
    state.finished = true;
    world.unfinished -= 1;
    let units = state
        .started_at
        .map(|s| sim.now().since(s).as_units())
        .unwrap_or(0.0);
    world.response_units[wu] = units;
}

/// Locally recomputes an audited workunit (the truth is cached, so the
/// check is a comparison per recorded result) and acts on what it finds:
/// liars earn weighted strikes, open workunits they touched are
/// re-tallied, and a verdict they actually swung is voided and re-run.
/// Returns whether the verdict may be accepted.
fn spot_check(world: &mut World, sim: &mut Sim, wu: usize, v: bool) -> bool {
    let policy = world.cfg.audit;
    let state = &world.wus[wu];
    // Escalation is a pure function of the counters, deterministic by seed.
    let escalated = world.audit_failures > 0;
    let selected = state.must_audit || policy.selects(world.cfg.seed, wu as u64, escalated);
    if !selected || state.voids >= MAX_WU_VOIDS {
        return true;
    }
    sim.emit(RunEvent::AuditScheduled { task: wu as u32 });
    world.audits += 1;
    let truth = world.wus[wu].wu.truth;
    let liars: Vec<usize> = world.wus[wu]
        .votes
        .iter()
        .filter(|&&(_, was_truth)| !was_truth)
        .map(|&(host, _)| host)
        .collect();
    if liars.is_empty() && v == truth {
        sim.emit(RunEvent::AuditPassed { task: wu as u32 });
        world.wus[wu].must_audit = false;
        return true;
    }
    for &host in &liars {
        sim.emit(RunEvent::AuditFailed {
            task: wu as u32,
            node: host as u32,
        });
        world.audit_failures += 1;
        for _ in 0..policy.strike_weight.max(1) {
            strike_host(world, sim, host);
        }
    }
    // Retaliation: every open workunit a caught liar touched loses its
    // tally.
    let caught: Vec<usize> = {
        let mut c = liars;
        c.sort_unstable();
        c.dedup();
        c
    };
    for u in 0..world.wus.len() {
        if u == wu || world.wus[u].finished {
            continue;
        }
        if !world.wus[u].votes.iter().any(|&(h, _)| caught.contains(&h)) {
            continue;
        }
        sim.emit(RunEvent::TaskRetallied { task: u as u32 });
        world.wus_retallied += 1;
        restart_workunit(world, sim, u);
    }
    if v == truth {
        // Liars caught but outvoted: the verdict stands.
        return true;
    }
    sim.emit(RunEvent::VerdictVoided { task: wu as u32 });
    world.verdicts_voided += 1;
    world.wus[wu].voids += 1;
    restart_workunit(world, sim, wu);
    false
}

/// Discards a workunit's tally and restarts it from wave 1 under a new
/// attempt: queued jobs are purged, in-flight jobs become stale, and the
/// strategy re-deploys with a fresh budget.
fn restart_workunit(world: &mut World, sim: &mut Sim, wu: usize) {
    let state = &mut world.wus[wu];
    debug_assert!(!state.finished);
    state.attempt += 1;
    state.exec.reset();
    state.votes.clear();
    state.must_audit = false;
    sim.emit(RunEvent::EpochAdvanced {
        task: wu as u32,
        epoch: state.attempt,
    });
    world.queue.retain(|&x| x != wu);
    poll_workunit(world, sim, wu, /* priority = */ true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartred_core::params::{KVotes, VoteMargin};
    use smartred_core::strategy::{Iterative, Progressive, Traditional};

    fn small_config(seed: u64) -> VolunteerConfig {
        let mut cfg = VolunteerConfig::paper_deployment(12, seed);
        cfg.hosts = 60;
        cfg
    }

    #[test]
    fn deployment_completes_all_workunits() {
        let cfg = small_config(1);
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(report.verdicts.len(), 140);
        assert!(report.verdicts.iter().all(|v| v.accepted.is_some()));
        assert_eq!(report.cost_factor(), 3.0);
        assert!(report.reported_satisfiable.is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_config(2);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn iterative_beats_traditional_on_cost_at_similar_reliability() {
        // The Figure 5(b) headline at deployment scale.
        let cfg = small_config(3);
        let tr = run(Rc::new(Traditional::new(KVotes::new(19).unwrap())), &cfg).unwrap();
        let ir = run(Rc::new(Iterative::new(VoteMargin::new(4).unwrap())), &cfg).unwrap();
        assert!(ir.cost_factor() < tr.cost_factor() / 1.5);
    }

    #[test]
    fn progressive_sits_between() {
        let cfg = small_config(4);
        let k = KVotes::new(19).unwrap();
        let tr = run(Rc::new(Traditional::new(k)), &cfg).unwrap();
        let pr = run(Rc::new(Progressive::new(k)), &cfg).unwrap();
        let ir = run(Rc::new(Iterative::new(VoteMargin::new(4).unwrap())), &cfg).unwrap();
        assert!(pr.cost_factor() < tr.cost_factor());
        assert!(ir.cost_factor() < pr.cost_factor());
    }

    #[test]
    fn timeouts_occur_with_hangs() {
        let cfg = small_config(5);
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.timeouts > 0, "default profile has 2% hangs");
    }

    #[test]
    fn reissue_policy_completes_too() {
        let mut cfg = small_config(6);
        cfg.deadline_policy = DeadlinePolicy::Reissue;
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.verdicts.iter().all(|v| v.accepted.is_some()));
        // Re-issued jobs add cost beyond k.
        assert!(report.cost_factor() >= 3.0);
    }

    #[test]
    fn ground_truth_matches_solver() {
        let cfg = small_config(7);
        let report = run(Rc::new(Iterative::new(VoteMargin::new(6).unwrap())), &cfg).unwrap();
        // With d = 6 at r ≈ 0.65, per-task reliability ≈ 0.98; on 140 tasks
        // the computation-level answer is usually right — and when it is,
        // it must equal DPLL's.
        if report.computation_correct() {
            assert_eq!(
                report.reported_satisfiable,
                Some(report.instance_satisfiable)
            );
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut cfg = small_config(8);
        cfg.hosts = 0;
        assert!(run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).is_err());
        let mut cfg = small_config(9);
        cfg.tasks = 1 << 13; // more tasks than assignments of a 12-var instance
        assert!(run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).is_err());
    }

    #[test]
    fn job_cap_leaves_workunits_unfinished() {
        let mut cfg = small_config(10);
        cfg.job_cap = Some(4);
        let report = run(Rc::new(Iterative::new(VoteMargin::new(6).unwrap())), &cfg).unwrap();
        let incomplete = report
            .verdicts
            .iter()
            .filter(|v| v.accepted.is_none())
            .count();
        assert!(incomplete > 0);
        assert_eq!(report.reported_satisfiable, None);
    }

    #[test]
    fn retry_hides_deadline_misses_from_the_vote() {
        let mut cfg = small_config(30);
        cfg.retry = Some(RetryPolicy::default());
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.retries > 0, "default profile has 2% hangs");
        assert!(report.verdicts.iter().all(|v| v.accepted.is_some()));
        // Hidden misses mean re-deployed jobs: cost exceeds plain k.
        assert!(report.cost_factor() > 3.0);
    }

    #[test]
    fn quarantine_disciplines_hosts_that_miss_deadlines() {
        let mut cfg = small_config(31);
        cfg.profile.unresponsive_rate = 0.3;
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 2,
            quarantine_units: 3.0,
            blacklist_after: 1_000,
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.quarantines > 0);
        assert_eq!(report.blacklisted, 0);
        assert!(report.verdicts.iter().all(|v| v.accepted.is_some()));
    }

    #[test]
    fn repeat_offenders_get_blacklisted() {
        let mut cfg = small_config(32);
        cfg.profile.unresponsive_rate = 0.1;
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 1,
            quarantine_units: 1.0,
            blacklist_after: 1,
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.blacklisted > 0);
    }

    #[test]
    fn resilient_deployments_are_deterministic() {
        let mut cfg = small_config(33);
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn audit_layer_beats_replication_against_a_cartel() {
        use smartred_core::audit::{AuditPolicy, Cartel};

        // Honest hosts are perfect; the only wrong votes come from a 40%
        // coalition lying on a quarter of the workunits. Plain replication
        // accepts whatever the coalition swings; the audit layer
        // recomputes a sample, convicts the liars, and voids the verdicts
        // they carried. (With faulty honest hosts every wrong vote is a
        // convictable lie and discipline blacklists the whole pool.)
        let base = |audit: AuditPolicy| {
            let mut cfg = small_config(40);
            cfg.tasks = 800;
            cfg.profile.seeded_fault_rate = 0.0;
            cfg.profile.platform_fault_rate = 0.0;
            cfg.cartel = Some(Cartel::new(24, 0.25));
            cfg.quarantine = Some(QuarantinePolicy::default());
            cfg.audit = audit;
            cfg
        };
        let s = || Rc::new(Traditional::new(KVotes::new(3).unwrap()));
        let plain = run(s(), &base(AuditPolicy::disabled())).unwrap();
        assert_eq!(plain.audits, 0);
        assert_eq!(plain.verdicts_voided, 0);

        let audited = run(s(), &base(AuditPolicy::spot(0.15))).unwrap();
        assert!(audited.verdicts.iter().all(|v| v.accepted.is_some()));
        assert!(audited.audits > 0);
        assert!(audited.audit_failures > 0);
        assert!(audited.verdicts_voided > 0);
        assert!(
            audited.reliability() > plain.reliability(),
            "audited {} !> plain {}",
            audited.reliability(),
            plain.reliability()
        );

        // Matched cost: buying more replication instead (TR-5, no audits)
        // costs at least as much yet stays below the audited reliability.
        let tr5 = run(
            Rc::new(Traditional::new(KVotes::new(5).unwrap())),
            &base(AuditPolicy::disabled()),
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
    fn audited_deployments_are_deterministic() {
        use smartred_core::audit::{AuditPolicy, Cartel};

        let mut cfg = small_config(41);
        cfg.profile.seeded_fault_rate = 0.0;
        cfg.profile.platform_fault_rate = 0.0;
        cfg.cartel = Some(Cartel::new(20, 0.3));
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.audit = AuditPolicy::spot(0.2);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
        assert!(a.audits > 0);
        assert!(a.verdicts.iter().all(|v| v.accepted.is_some()));
    }

    #[test]
    fn fastest_idle_scheduler_speeds_up_completion() {
        let mut random = small_config(20);
        random.scheduler = SchedulerPolicy::RandomIdle;
        let mut fastest = small_config(20);
        fastest.scheduler = SchedulerPolicy::FastestIdle;
        let s = || Rc::new(Traditional::new(KVotes::new(3).unwrap()));
        let slow = run(s(), &random).unwrap();
        let fast = run(s(), &fastest).unwrap();
        // Preferring fast hosts shortens the computation and reduces
        // deadline misses from slow hosts overrunning.
        assert!(
            fast.completion_units < slow.completion_units,
            "fastest {} !< random {}",
            fast.completion_units,
            slow.completion_units
        );
        assert!(fast.timeouts <= slow.timeouts);
    }

    fn hedged_config(seed: u64) -> VolunteerConfig {
        let mut cfg = small_config(seed);
        // A wide speed spread makes genuine stragglers: the slowest hosts
        // run jobs 4x longer than the fastest, well past the p70 latency.
        cfg.profile.speed_window = (1.0, 4.0);
        cfg.deadline_units = 8.0;
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
        let cfg = hedged_config(50);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let report = run(s(), &cfg).unwrap();
        assert!(report.verdicts.iter().all(|v| v.accepted.is_some()));
        assert!(report.hedges_launched > 0, "no hedges fired");
        assert_eq!(
            report.hedges_launched,
            report.hedges_won + report.hedges_wasted,
            "every launched twin must settle exactly once"
        );
        assert!(report.hedges_won > 0, "no twin ever beat its straggler");
        // Hedging is paid work: the cost metric must include it.
        assert_eq!(
            report.total_cost(),
            report.total_jobs + report.audits + report.hedges_launched
        );
        assert_eq!(
            run(s(), &cfg).unwrap(),
            report,
            "hedged run must be deterministic"
        );
    }

    #[test]
    fn hedged_journal_matches_report_counters() {
        use smartred_desim::journal::EventKind;
        let cfg = hedged_config(51);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let (report, journal) = run_journaled(s(), &cfg).unwrap();
        assert!(report.hedges_launched > 0);
        let count = |kind: EventKind| {
            journal
                .events()
                .iter()
                .filter(|e| e.event.kind() == kind)
                .count() as u64
        };
        assert_eq!(count(EventKind::HedgeLaunched), report.hedges_launched);
        assert_eq!(count(EventKind::HedgeWon), report.hedges_won);
        assert_eq!(count(EventKind::HedgeWasted), report.hedges_wasted);
        // Journaling is a pure observer even with hedging enabled.
        assert_eq!(run(s(), &cfg).unwrap(), report);
        // The hedged journal round-trips through JSONL bit for bit.
        let restored = smartred_desim::journal::Journal::from_jsonl(&journal.to_jsonl()).unwrap();
        assert_eq!(restored.digest(), journal.digest());
    }

    #[test]
    fn hedging_never_fires_before_the_estimator_warms() {
        let mut cfg = hedged_config(52);
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
        for policy in Assignment::ALL {
            let mut cfg = small_config(53);
            cfg.assignment = policy;
            let s = || Rc::new(Traditional::new(KVotes::new(3).unwrap()));
            let a = run(s(), &cfg).unwrap();
            let b = run(s(), &cfg).unwrap();
            assert_eq!(a, b, "{} must be deterministic", policy.name());
            assert!(
                a.verdicts.iter().all(|v| v.accepted.is_some()),
                "{} left workunits unfinished",
                policy.name()
            );
            assert_eq!(a.cost_factor(), 3.0, "{} altered the cost", policy.name());
        }
    }

    #[test]
    fn hedging_composes_with_audits_without_double_counting() {
        use smartred_core::audit::{AuditPolicy, Cartel};
        let mut cfg = hedged_config(54);
        cfg.cartel = Some(Cartel::new(15, 0.3));
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.audit = AuditPolicy::spot(0.2);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        assert_eq!(a, run(s(), &cfg).unwrap());
        assert!(a.audits > 0);
        assert_eq!(a.hedges_launched, a.hedges_won + a.hedges_wasted);
    }
}
