//! Platform-agnostic driver for a single task's redundancy loop.
//!
//! [`TaskExecution`] owns the vote tally for one task, consults its
//! [`RedundancyStrategy`] at wave boundaries, and tracks the metrics the
//! paper reports (jobs deployed, waves, verdict). It is deliberately
//! push/pull: the surrounding platform (Monte-Carlo loop, discrete-event
//! simulator, volunteer-computing server) decides *when* jobs run and feeds
//! results back, so the same type drives all of them.

use crate::error::JobCapExceeded;
use crate::strategy::{Decision, RedundancyStrategy};
use crate::tally::VoteTally;

/// Routes a task id to one of `shards` coordinator shards.
///
/// The assignment is a pure function of `(task, shards)` — a multiplicative
/// (Fibonacci) hash of the id, reduced modulo the shard count — so every
/// component of a sharded deployment (clients, recovery, tests) derives the
/// same owner without coordination, and sequentially-issued ids spread
/// evenly instead of striping. One shard is the identity routing: a sharded
/// runtime with `shards == 1` takes exactly the single-coordinator path.
///
/// # Examples
///
/// ```
/// use smartred_core::execution::shard_of;
///
/// assert_eq!(shard_of(42, 1), 0);
/// let k = shard_of(42, 4);
/// assert!(k < 4);
/// assert_eq!(k, shard_of(42, 4)); // stable
/// ```
pub fn shard_of(task: u32, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // Knuth's multiplicative hash: odd constant ≈ 2^64 / φ. The high half
    // of the product mixes every input bit, unlike a bare `id % shards`
    // which would map the round-robin ids of a submission loop onto a
    // fixed stripe pattern.
    let mixed = u64::from(task).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((mixed >> 32) as usize) % shards
}

/// Splits a worker pool of `total` slots across `shards` sub-pools,
/// returning shard `k`'s `(node_base, count)`.
///
/// Sub-pools are contiguous id ranges — shard k owns global node ids
/// `node_base .. node_base + count` — sized within one of each other
/// (the first `total % shards` shards take the extra worker). Every shard
/// gets at least one worker even when `total < shards`, so a sharded
/// runtime never spawns a shard that cannot serve jobs; global node ids
/// stay disjoint regardless.
///
/// # Examples
///
/// ```
/// use smartred_core::execution::shard_worker_span;
///
/// assert_eq!(shard_worker_span(8, 4, 0), (0, 2));
/// assert_eq!(shard_worker_span(8, 4, 3), (6, 2));
/// assert_eq!(shard_worker_span(5, 2, 0), (0, 3));
/// assert_eq!(shard_worker_span(5, 2, 1), (3, 2));
/// ```
pub fn shard_worker_span(total: usize, shards: usize, k: usize) -> (u32, usize) {
    assert!(shards > 0, "at least one shard");
    assert!(k < shards, "shard index {k} out of {shards}");
    let per = (total / shards).max(1);
    let extra = if total > shards { total % shards } else { 0 };
    let count = per + usize::from(k < extra);
    let base = k * per + k.min(extra);
    (base as u32, count)
}

/// How a platform picks the worker for the next job (arXiv:1808.02838).
///
/// Behrouzi-Far & Soljanin's task-to-worker assignment study shows that at
/// fixed redundancy, the *placement* rule materially shifts the
/// completion-time distribution: random placement maximizes diversity,
/// round-robin equalizes queue lengths on homogeneous pools, and
/// load-based placement wins once service times are skewed. Every
/// execution platform threads one of these through its dispatch path, and
/// [`Assignment::pick`] is the shared, pure selection rule — so, given the
/// same candidate set and state, the DCA simulator, the volunteer server,
/// and the live runtime choose identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Assignment {
    /// Uniformly random eligible worker — the paper's model (its
    /// independence assumptions rely on it) and the default.
    #[default]
    Random,
    /// Cyclic next eligible worker after the previous pick.
    RoundRobin,
    /// Eligible worker with the least load (ties to the lowest id).
    LeastLoaded,
}

impl Assignment {
    /// Every policy, in the order benches sweep them.
    pub const ALL: [Assignment; 3] = [
        Assignment::Random,
        Assignment::RoundRobin,
        Assignment::LeastLoaded,
    ];

    /// The policy's canonical flag/report name.
    pub fn name(self) -> &'static str {
        match self {
            Assignment::Random => "random",
            Assignment::RoundRobin => "round-robin",
            Assignment::LeastLoaded => "least-loaded",
        }
    }

    /// Parses a canonical name (as accepted by bench `--assignment`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "random" => Some(Assignment::Random),
            "round-robin" | "roundrobin" | "rr" => Some(Assignment::RoundRobin),
            "least-loaded" | "leastloaded" | "ll" => Some(Assignment::LeastLoaded),
            _ => None,
        }
    }

    /// Picks a position within `eligible` (parallel to `loads`).
    ///
    /// Pure in all inputs: platforms supply the eligible worker ids, their
    /// current loads, the round-robin `cursor` (one past the previously
    /// picked id), and a pre-drawn `random_pos` (only consumed by
    /// [`Assignment::Random`], so the other policies never disturb a
    /// platform's RNG stream).
    ///
    /// # Panics
    ///
    /// Panics if `eligible` is empty or `loads` has a different length.
    pub fn pick(self, eligible: &[u32], loads: &[u64], cursor: u32, random_pos: usize) -> usize {
        assert!(!eligible.is_empty(), "no eligible workers");
        assert_eq!(eligible.len(), loads.len(), "loads must parallel eligible");
        match self {
            Assignment::Random => random_pos % eligible.len(),
            Assignment::RoundRobin => {
                // Smallest cyclic distance from the cursor; ids are unique
                // so the minimum is too.
                (0..eligible.len())
                    .min_by_key(|&i| eligible[i].wrapping_sub(cursor))
                    .expect("non-empty")
            }
            Assignment::LeastLoaded => (0..eligible.len())
                .min_by_key(|&i| (loads[i], eligible[i]))
                .expect("non-empty"),
        }
    }
}

/// What the driver should do next for this task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Poll<V> {
    /// Deploy this many new jobs on independent, randomly chosen nodes.
    Deploy(usize),
    /// Jobs are still outstanding; feed their results via
    /// [`TaskExecution::record`] before polling again.
    Pending,
    /// The task completed with this verdict.
    Complete(V),
}

/// One strategy-decision step, annotated with everything an event-driven
/// platform needs to act on it (wave number, verdict, cap details).
///
/// [`TaskExecution::step_wave`] returns this instead of bare [`Poll`] so
/// the three execution platforms (DCA simulator, volunteer server, live
/// runtime) share one wave-sizing / quorum-check / verdict-construction
/// surface rather than each re-deriving it from `poll()` + accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveStep<V> {
    /// The strategy opened deployment wave `wave` (1-based) of `jobs` jobs.
    Wave {
        /// Wave number just opened, starting at 1.
        wave: usize,
        /// Jobs to deploy in this wave.
        jobs: usize,
    },
    /// The quorum check passed: the task completed with this verdict.
    Verdict(V),
    /// Deployed jobs are still outstanding; feed results before stepping
    /// again.
    Pending,
    /// The next wave would exceed the configured job cap. The execution
    /// stays usable (tally inspectable, degraded acceptance possible).
    Capped {
        /// The configured cap.
        cap: usize,
        /// Jobs already deployed when the cap was hit.
        deployed: usize,
    },
}

/// Summary of a finished (or capped) execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionReport<V> {
    /// Total jobs deployed for this task.
    pub jobs: usize,
    /// Number of waves (deployment rounds).
    pub waves: usize,
    /// The accepted result, if the task completed.
    pub verdict: Option<V>,
}

/// Drives one task through its strategy's deploy/accept loop.
///
/// # Examples
///
/// ```
/// use smartred_core::execution::{Poll, TaskExecution};
/// use smartred_core::params::VoteMargin;
/// use smartred_core::strategy::Iterative;
///
/// let mut task = TaskExecution::new(Iterative::new(VoteMargin::new(2)?));
/// assert_eq!(task.poll()?, Poll::Deploy(2));
/// task.record(true);
/// assert_eq!(task.poll()?, Poll::Pending);
/// task.record(true);
/// assert_eq!(task.poll()?, Poll::Complete(true));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaskExecution<V: Ord + Clone, S> {
    strategy: S,
    tally: VoteTally<V>,
    outstanding: usize,
    jobs: usize,
    waves: usize,
    hedges: usize,
    verdict: Option<V>,
    job_cap: Option<usize>,
}

impl<V: Ord + Clone, S: RedundancyStrategy<V>> TaskExecution<V, S> {
    /// Creates an execution with no job cap.
    pub fn new(strategy: S) -> Self {
        Self {
            strategy,
            tally: VoteTally::new(),
            outstanding: 0,
            jobs: 0,
            waves: 0,
            hedges: 0,
            verdict: None,
            job_cap: None,
        }
    }

    /// Limits the total jobs this task may deploy.
    ///
    /// Iterative redundancy has no inherent bound (paper §5.2); systems with
    /// budget constraints use a cap and treat [`JobCapExceeded`] as a task
    /// failure.
    pub fn with_job_cap(mut self, cap: usize) -> Self {
        self.job_cap = Some(cap);
        self
    }

    /// Asks the strategy what to do next.
    ///
    /// Returns [`Poll::Pending`] while deployed jobs have not all reported;
    /// strategies only decide at wave boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`JobCapExceeded`] if the next wave would exceed the cap set
    /// by [`with_job_cap`](Self::with_job_cap). The execution stays usable:
    /// the caller may still inspect the tally or accept the current leader.
    pub fn poll(&mut self) -> Result<Poll<V>, JobCapExceeded> {
        if let Some(v) = &self.verdict {
            return Ok(Poll::Complete(v.clone()));
        }
        if self.outstanding > 0 {
            return Ok(Poll::Pending);
        }
        match self.strategy.decide(&self.tally) {
            Decision::Accept(v) => {
                self.verdict = Some(v.clone());
                Ok(Poll::Complete(v))
            }
            Decision::Deploy(n) => {
                let n = n.get();
                if let Some(cap) = self.job_cap {
                    if self.jobs + n > cap {
                        return Err(JobCapExceeded {
                            cap,
                            deployed: self.jobs,
                        });
                    }
                }
                self.outstanding = n;
                self.jobs += n;
                self.waves += 1;
                Ok(Poll::Deploy(n))
            }
        }
    }

    /// Records one job's result.
    ///
    /// # Panics
    ///
    /// Panics if no jobs are outstanding — that indicates a driver bug
    /// (results arriving that were never deployed).
    pub fn record(&mut self, value: V) {
        assert!(
            self.outstanding > 0,
            "result recorded with no outstanding jobs"
        );
        self.outstanding -= 1;
        self.tally.record(value);
    }

    /// Discards every vote and counter and restarts the execution from
    /// wave 1, keeping the strategy and job cap. The audit layer calls
    /// this when a verdict is voided or an open task is re-tallied after
    /// a caught liar touched it: the tainted tally cannot be trusted, and
    /// the job budget is refreshed for the fresh attempt. Outstanding
    /// jobs are forgotten — the platform must drop their late results
    /// (they would be recorded against the wrong attempt).
    pub fn reset(&mut self) {
        self.tally = VoteTally::new();
        self.outstanding = 0;
        self.jobs = 0;
        self.waves = 0;
        self.hedges = 0;
        self.verdict = None;
    }

    /// Marks `n` outstanding jobs as lost without a result (e.g. their nodes
    /// left the pool). The strategy will re-deploy as needed on the next
    /// poll.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the outstanding job count.
    pub fn abandon(&mut self, n: usize) {
        assert!(
            n <= self.outstanding,
            "cannot abandon {n} jobs with only {} outstanding",
            self.outstanding
        );
        self.outstanding -= n;
    }

    /// Drives the task one strategy decision forward, annotating the
    /// outcome with the wave number (on deploy) or cap details (on
    /// overrun). This is the shared decision surface of every execution
    /// platform: simulators and the live runtime all map [`WaveStep`]
    /// variants 1:1 onto their wave-opened / verdict / capped events.
    pub fn step_wave(&mut self) -> WaveStep<V> {
        match self.poll() {
            Ok(Poll::Deploy(jobs)) => WaveStep::Wave {
                wave: self.waves,
                jobs,
            },
            Ok(Poll::Complete(v)) => WaveStep::Verdict(v),
            Ok(Poll::Pending) => WaveStep::Pending,
            Err(JobCapExceeded { cap, deployed }) => WaveStep::Capped { cap, deployed },
        }
    }

    /// Returns `(leader_count, runner_up_count)` — the vote-tally snapshot
    /// every platform journals after a vote lands.
    pub fn leader_counts(&self) -> (usize, usize) {
        let leader = self.tally.leader().map(|(_, n)| n).unwrap_or(0);
        (leader, self.tally.runner_up_count())
    }

    /// Returns the current tally (for inspection or logging).
    pub fn tally(&self) -> &VoteTally<V> {
        &self.tally
    }

    /// Jobs deployed so far.
    pub fn jobs_deployed(&self) -> usize {
        self.jobs
    }

    /// Waves started so far.
    pub fn waves(&self) -> usize {
        self.waves
    }

    /// Jobs deployed but not yet reported or abandoned.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Notes one hedge launched against an outstanding replica of this
    /// task in the current epoch. Hedge twins are duplicates of logical
    /// replicas — they never touch the tally, the wave counters, or the
    /// job cap — but each one costs a real job, so platforms charge them
    /// here and enforce
    /// [`HedgePolicy::max_per_task`](crate::hedge::HedgePolicy) against
    /// [`hedges_launched`](Self::hedges_launched). [`reset`](Self::reset)
    /// clears the count: a voided epoch restores the hedge budget.
    pub fn note_hedge(&mut self) {
        self.hedges += 1;
    }

    /// Hedge twins launched in the current epoch.
    pub fn hedges_launched(&self) -> usize {
        self.hedges
    }

    /// Returns `true` exactly when the current wave has just drained: at
    /// least one wave was opened, every job of it has reported or been
    /// abandoned, and no verdict has been accepted yet. Event-driven
    /// platforms use this to emit one wave-closed journal event per wave
    /// after each [`record`](Self::record)/[`abandon`](Self::abandon).
    ///
    /// # Examples
    ///
    /// ```
    /// use smartred_core::execution::{Poll, TaskExecution};
    /// use smartred_core::params::KVotes;
    /// use smartred_core::strategy::Traditional;
    ///
    /// let mut task = TaskExecution::new(Traditional::new(KVotes::new(3)?));
    /// assert!(!task.wave_boundary()); // nothing deployed yet
    /// assert_eq!(task.poll()?, Poll::Deploy(3));
    /// task.record(true);
    /// task.record(true);
    /// assert!(!task.wave_boundary()); // one job still outstanding
    /// task.record(true);
    /// assert!(task.wave_boundary()); // wave drained, verdict not yet polled
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn wave_boundary(&self) -> bool {
        self.outstanding == 0 && self.waves > 0 && self.verdict.is_none()
    }

    /// Returns `true` once a verdict has been accepted.
    pub fn is_complete(&self) -> bool {
        self.verdict.is_some()
    }

    /// Returns the execution summary.
    pub fn report(&self) -> ExecutionReport<V> {
        ExecutionReport {
            jobs: self.jobs,
            waves: self.waves,
            verdict: self.verdict.clone(),
        }
    }

    /// Runs the whole task synchronously against a job oracle.
    ///
    /// The oracle receives a wave size and must return exactly that many
    /// results. Useful for Monte-Carlo estimation and tests; the
    /// event-driven platforms use [`poll`](Self::poll)/[`record`](Self::record)
    /// directly.
    ///
    /// # Errors
    ///
    /// Returns [`JobCapExceeded`] if a cap is configured and hit.
    ///
    /// # Panics
    ///
    /// Panics if the oracle returns the wrong number of results.
    pub fn run_with<F>(mut self, mut oracle: F) -> Result<ExecutionReport<V>, JobCapExceeded>
    where
        F: FnMut(usize) -> Vec<V>,
    {
        loop {
            match self.poll()? {
                Poll::Complete(_) => return Ok(self.report()),
                Poll::Pending => unreachable!("run_with always fills whole waves"),
                Poll::Deploy(n) => {
                    let results = oracle(n);
                    assert_eq!(results.len(), n, "oracle must return exactly {n} results");
                    for v in results {
                        self.record(v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{KVotes, VoteMargin};
    use crate::strategy::{Iterative, Progressive, Traditional};

    #[test]
    fn shard_of_is_identity_for_one_shard_and_bounded_otherwise() {
        for task in 0..1000 {
            assert_eq!(shard_of(task, 1), 0);
            for shards in [2usize, 3, 4, 8, 16] {
                assert!(shard_of(task, shards) < shards);
            }
        }
    }

    #[test]
    fn shard_of_spreads_sequential_ids_roughly_evenly() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for task in 0..8000u32 {
            counts[shard_of(task, shards)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "shard {k} got {c} of 8000 sequential ids — hash is striping"
            );
        }
    }

    #[test]
    fn worker_spans_are_disjoint_and_cover_the_pool() {
        for total in [1usize, 2, 5, 8, 9, 16] {
            for shards in [1usize, 2, 4, 8] {
                let mut next = 0u32;
                for k in 0..shards {
                    let (base, count) = shard_worker_span(total, shards, k);
                    assert!(count >= 1, "shard {k} of {shards} over {total} is empty");
                    assert_eq!(base, next, "spans must be contiguous");
                    next = base + count as u32;
                }
                if total >= shards {
                    assert_eq!(next as usize, total, "spans must cover the pool exactly");
                }
            }
        }
    }

    #[test]
    fn reset_restarts_from_wave_one_with_a_fresh_budget() {
        let mut task =
            TaskExecution::new(Traditional::new(KVotes::new(3).unwrap())).with_job_cap(4);
        assert!(matches!(
            task.step_wave(),
            WaveStep::Wave { wave: 1, jobs: 3 }
        ));
        task.record(true);
        task.record(false);
        task.record(false);
        assert_eq!(task.step_wave(), WaveStep::Verdict(false));
        // A void discards the tainted tally and re-runs from scratch.
        task.reset();
        assert_eq!(task.jobs_deployed(), 0);
        assert_eq!(task.outstanding(), 0);
        assert!(!task.is_complete());
        assert!(matches!(
            task.step_wave(),
            WaveStep::Wave { wave: 1, jobs: 3 }
        ));
        task.record(true);
        task.record(true);
        task.record(true);
        assert_eq!(task.step_wave(), WaveStep::Verdict(true));
    }

    #[test]
    fn traditional_runs_one_wave() {
        let task = TaskExecution::new(Traditional::new(KVotes::new(3).unwrap()));
        let report = task.run_with(|n| vec![true; n]).unwrap();
        assert_eq!(report.jobs, 3);
        assert_eq!(report.waves, 1);
        assert_eq!(report.verdict, Some(true));
    }

    #[test]
    fn progressive_stops_early_on_unanimity() {
        let task = TaskExecution::new(Progressive::new(KVotes::new(19).unwrap()));
        let report = task.run_with(|n| vec![false; n]).unwrap();
        assert_eq!(report.jobs, 10);
        assert_eq!(report.waves, 1);
        assert_eq!(report.verdict, Some(false));
    }

    #[test]
    fn iterative_multi_wave_path() {
        // d = 6, first wave 4-2 → second wave of 4, all agree → 8-2 margin 6.
        let mut feed = vec![
            vec![true, true, true, true, false, false],
            vec![true, true, true, true],
        ]
        .into_iter();
        let task = TaskExecution::new(Iterative::new(VoteMargin::new(6).unwrap()));
        let report = task
            .run_with(|n| {
                let wave = feed.next().expect("only two waves expected");
                assert_eq!(wave.len(), n);
                wave
            })
            .unwrap();
        assert_eq!(report.jobs, 10);
        assert_eq!(report.waves, 2);
        assert_eq!(report.verdict, Some(true));
    }

    #[test]
    fn pending_between_partial_results() {
        let mut task = TaskExecution::new(Iterative::new(VoteMargin::new(2).unwrap()));
        assert_eq!(task.poll().unwrap(), Poll::Deploy(2));
        task.record(true);
        assert_eq!(task.poll().unwrap(), Poll::Pending);
        assert_eq!(task.outstanding(), 1);
        task.record(true);
        assert_eq!(task.poll().unwrap(), Poll::Complete(true));
        assert!(task.is_complete());
    }

    #[test]
    fn job_cap_errors_but_execution_survives() {
        let mut task =
            TaskExecution::new(Iterative::new(VoteMargin::new(4).unwrap())).with_job_cap(6);
        assert_eq!(task.poll().unwrap(), Poll::Deploy(4));
        for v in [true, true, false, false] {
            task.record(v);
        }
        // Margin 0, needs 4 more but only 2 left under the cap.
        let err = task.poll().unwrap_err();
        assert_eq!(err.cap, 6);
        assert_eq!(err.deployed, 4);
        // Tally still inspectable.
        assert_eq!(task.tally().total(), 4);
        assert_eq!(task.jobs_deployed(), 4);
    }

    #[test]
    fn abandon_triggers_redeploy() {
        let mut task = TaskExecution::new(Traditional::new(KVotes::new(3).unwrap()));
        assert_eq!(task.poll().unwrap(), Poll::Deploy(3));
        task.record(true);
        task.abandon(2); // two nodes vanished
                         // Strategy re-requests exactly the two missing votes.
        assert_eq!(task.poll().unwrap(), Poll::Deploy(2));
        task.record(true);
        task.record(false);
        assert_eq!(task.poll().unwrap(), Poll::Complete(true));
        assert_eq!(task.jobs_deployed(), 5);
        assert_eq!(task.waves(), 2);
    }

    #[test]
    #[should_panic(expected = "no outstanding jobs")]
    fn recording_without_deploy_panics() {
        let mut task: TaskExecution<bool, _> =
            TaskExecution::new(Iterative::new(VoteMargin::new(2).unwrap()));
        task.record(true);
    }

    #[test]
    #[should_panic(expected = "cannot abandon")]
    fn over_abandon_panics() {
        let mut task: TaskExecution<bool, _> =
            TaskExecution::new(Iterative::new(VoteMargin::new(2).unwrap()));
        let _ = task.poll();
        task.abandon(3);
    }

    #[test]
    fn step_wave_mirrors_poll_with_wave_numbers() {
        let mut task = TaskExecution::new(Iterative::new(VoteMargin::new(2).unwrap()));
        assert_eq!(task.step_wave(), WaveStep::Wave { wave: 1, jobs: 2 });
        task.record(true);
        assert_eq!(task.step_wave(), WaveStep::Pending);
        task.record(false);
        assert_eq!(task.step_wave(), WaveStep::Wave { wave: 2, jobs: 2 });
        task.record(true);
        task.record(true);
        assert_eq!(task.leader_counts(), (3, 1));
        assert_eq!(task.step_wave(), WaveStep::Verdict(true));
    }

    #[test]
    fn step_wave_reports_cap_details() {
        let mut task =
            TaskExecution::new(Iterative::new(VoteMargin::new(4).unwrap())).with_job_cap(6);
        assert_eq!(task.step_wave(), WaveStep::Wave { wave: 1, jobs: 4 });
        for v in [true, true, false, false] {
            task.record(v);
        }
        assert_eq!(
            task.step_wave(),
            WaveStep::Capped {
                cap: 6,
                deployed: 4
            }
        );
        // Still usable after the cap, exactly like poll().
        assert_eq!(task.leader_counts(), (2, 2));
    }

    #[test]
    fn leader_counts_on_empty_tally() {
        let task: TaskExecution<bool, _> =
            TaskExecution::new(Iterative::new(VoteMargin::new(2).unwrap()));
        assert_eq!(task.leader_counts(), (0, 0));
    }

    #[test]
    fn complete_poll_is_idempotent() {
        let mut task = TaskExecution::new(Traditional::new(KVotes::new(1).unwrap()));
        assert_eq!(task.poll().unwrap(), Poll::Deploy(1));
        task.record(false);
        assert_eq!(task.poll().unwrap(), Poll::Complete(false));
        assert_eq!(task.poll().unwrap(), Poll::Complete(false));
        assert_eq!(task.report().jobs, 1);
    }
}
