//! The BOINC-like project server and deployment runner.
//!
//! Mirrors the paper's §4.1 setup: a custom task server decomposes a
//! 3-SAT instance into workunits, a scheduler hands jobs to volunteer
//! hosts, and a validator — parameterized by one of the redundancy
//! strategies — decides when each workunit's result is trustworthy.
//!
//! The task lifecycle itself (queue, waves, deadlines, retry, hedging,
//! discipline, audit) is [`smartred_dca::sim`]'s, the same code the DCA
//! model runs on; this module supplies what a PlanetLab deployment is —
//! the generated instance and its ground truth, the host table with speeds
//! drawn from a [`crate::host::PlanetLabProfile`], the per-job behavior
//! draw, the idle-host scheduler — and assembles the deployment report.

use std::rc::Rc;

use smartred_core::audit::{AuditPolicy, Cartel};
use smartred_core::error::ParamError;
use smartred_core::execution::Assignment;
use smartred_core::hedge::HedgePolicy;
use smartred_core::resilience::{QuarantinePolicy, RetryPolicy};
use smartred_core::strategy::RedundancyStrategy;
use smartred_dca::config::DcaConfig;
use smartred_dca::job::{JobId, JobOutcome};
use smartred_dca::pool::{NodeIndex, NodePool};
use smartred_dca::sim::{NodeModel, World};
use smartred_desim::engine::Simulator;
use smartred_desim::journal::Journal;
use smartred_desim::rng::{seeded_rng, SimRng};
use smartred_desim::time::SimTime;
use smartred_sat::assignment::decompose;
use smartred_sat::gen::{random_3sat, ThreeSatConfig};
use smartred_sat::solve::dpll;
use smartred_stats::Summary;

use crate::host::{draw_behavior, Host, HostBehavior, PlanetLabProfile};
use crate::workunit::{Workunit, WorkunitId, WorkunitVerdict};

/// What the server does when a job misses its deadline: count the silence
/// as the colluding wrong value (`CountAsWrong`, the default and the
/// paper's threat model — "a node that does not report a result in a
/// timely fashion \[has\] failed", §2.2) or abandon and re-deploy
/// (`Reissue`, BOINC's production behavior).
pub use smartred_dca::config::TimeoutPolicy as DeadlinePolicy;

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

    /// The lifecycle knobs in the shared engine's terms. The pool it
    /// describes draws nothing (host speeds are drawn from the profile).
    fn lifecycle(&self) -> DcaConfig {
        DcaConfig {
            duration_window: self.duration_window,
            timeout_units: self.deadline_units,
            timeout_policy: self.deadline_policy,
            job_cap: self.job_cap,
            retry: self.retry,
            quarantine: self.quarantine,
            audit: self.audit,
            hedge: self.hedge,
            assignment: self.assignment,
            ..DcaConfig::paper_baseline(self.tasks, self.hosts, 0.0, self.seed)
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

/// The PlanetLab node model: every job draws its behavior from one
/// deployment-wide profile, a standing cartel overrides its members'
/// answers, and the scheduler may prefer fast hosts.
struct PlanetLabHosts {
    profile: PlanetLabProfile,
    scheduler: SchedulerPolicy,
    cartel: Option<Cartel>,
    seed: u64,
    /// Each workunit's ground truth — what an honest host reports.
    truths: Vec<bool>,
}

impl NodeModel for PlanetLabHosts {
    const EAGER_ADMISSION: bool = true;
    const STRIKE_VOTE_LOSERS: bool = false;

    fn claim(
        &mut self,
        pool: &mut NodePool,
        assignment: Assignment,
        used: &[NodeIndex],
        rng: &mut SimRng,
    ) -> Option<NodeIndex> {
        if assignment != Assignment::Random || self.scheduler == SchedulerPolicy::RandomIdle {
            return pool.claim_idle(assignment, used, rng);
        }
        // Among eligible idle hosts, take the fastest (smallest speed
        // multiplier); the random pick only serves as a fallback.
        let mut best = pool.pick_random_idle(used, rng)?;
        let waive = pool.waives_exclusion(used);
        for &host in pool.idle_nodes() {
            if (waive || !used.contains(&host)) && pool.node(host).speed < pool.node(best).speed {
                best = host;
            }
        }
        pool.claim(best);
        Some(best)
    }

    fn draw_outcome(
        &mut self,
        _pool: &NodePool,
        rng: &mut SimRng,
        _now: SimTime,
        task: usize,
        node: NodeIndex,
    ) -> JobOutcome {
        let behavior = draw_behavior(&self.profile, rng);
        // A colluding host overrides its drawn behavior on the coalition's
        // per-workunit lie schedule. The schedule is a pure function of
        // (seed, workunit), so deciding at dispatch what the host will
        // return is the same as deciding at return.
        let lies = self.cartel.is_some_and(|cartel| {
            cartel.is_member(node as u32) && cartel.lies_on(self.seed, task as u64)
        });
        match behavior {
            HostBehavior::Hung => JobOutcome::NoResponse,
            HostBehavior::Faulty => JobOutcome::Wrong,
            HostBehavior::Honest if lies => JobOutcome::Wrong,
            HostBehavior::Honest => JobOutcome::Correct,
        }
    }

    fn truth(&self, task: usize) -> bool {
        self.truths[task]
    }

    /// Blacklisting is a quarantine that is never lifted: the host stays in
    /// the table and finishes (and is credited for) the job it holds.
    fn blacklist(&mut self, pool: &mut NodePool, node: NodeIndex) -> Option<JobId> {
        pool.ban(node);
        None
    }
}

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
    let wus: Vec<Workunit> = decompose(config.num_vars, config.tasks)
        .into_iter()
        .enumerate()
        .map(|(i, block)| Workunit {
            id: WorkunitId(i),
            block,
            truth: block.contains_satisfying(&formula),
        })
        .collect();
    debug_assert_eq!(
        wus.iter().any(|wu| wu.truth),
        instance_satisfiable,
        "block truths must agree with the solver"
    );

    let lifecycle = config.lifecycle();
    let mut pool = NodePool::from_config(&lifecycle.pool, &mut rng);
    for host in 0..config.hosts {
        pool.node_mut(host).speed = Host::sample(host as u64, &config.profile, &mut rng).speed;
    }
    let hosts = PlanetLabHosts {
        profile: config.profile,
        scheduler: config.scheduler,
        cartel: config.cartel,
        seed: config.seed,
        truths: wus.iter().map(|wu| wu.truth).collect(),
    };
    let mut world = World::new(lifecycle, strategy, pool, rng, hosts);
    let mut sim = Simulator::new();
    if journaled {
        sim.enable_journal();
    }
    world.run(&mut sim);

    // Assemble the report, per-workunit summaries in workunit order.
    let mut jobs_per_task = Summary::new();
    let mut response_time = Summary::new();
    let mut verdicts = Vec::with_capacity(wus.len());
    for (wu, state) in wus.iter().zip(world.tasks()) {
        let accepted = state.exec().report().verdict;
        if accepted.is_some() {
            jobs_per_task.record(state.exec().jobs_deployed() as f64);
            response_time.record(state.response_units());
        }
        verdicts.push(WorkunitVerdict {
            id: wu.id,
            accepted,
            correct: accepted == Some(wu.truth),
            jobs: state.exec().jobs_deployed(),
            waves: state.exec().waves(),
            response_units: state.response_units(),
        });
    }
    let all_completed = verdicts.iter().all(|v| v.accepted.is_some());
    let any_true = verdicts.iter().any(|v| v.accepted == Some(true));
    let counters = world.report();

    Ok((
        DeploymentReport {
            completion_units: sim.now().as_units(),
            total_jobs: counters.total_jobs,
            jobs_per_task,
            response_time,
            timeouts: counters.timeouts,
            retries: counters.retries,
            quarantines: counters.quarantines,
            blacklisted: counters.blacklisted,
            audits: counters.audits,
            audit_failures: counters.audit_failures,
            verdicts_voided: counters.verdicts_voided,
            wus_retallied: counters.tasks_retallied,
            hedges_launched: counters.hedges_launched,
            hedges_won: counters.hedges_won,
            hedges_wasted: counters.hedges_wasted,
            instance_satisfiable,
            reported_satisfiable: all_completed.then_some(any_true),
            verdicts,
        },
        sim.take_journal(),
    ))
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
