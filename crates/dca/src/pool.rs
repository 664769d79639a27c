//! The volunteer node pool of Figure 1: random selection, busy tracking,
//! and churn.

use rand::Rng;
use smartred_core::execution::Assignment;
use smartred_core::node::NodeId;
use smartred_core::resilience::NodeDiscipline;

use crate::config::{PoolConfig, ReliabilityProfile};
use crate::job::JobId;

/// One worker node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Stable identity (survives busy/idle transitions, not departure).
    pub id: NodeId,
    /// Per-job probability of reporting the colluding wrong value.
    pub wrong_rate: f64,
    /// Per-job probability of hanging (no report until the server times
    /// out).
    pub unresponsive_rate: f64,
    /// Duration multiplier (1.0 = nominal speed; larger is slower).
    pub speed: f64,
    /// Whether the node is still in the pool.
    pub alive: bool,
    /// Whether the node is serving a quarantine (alive but excluded from
    /// assignment).
    pub quarantined: bool,
    /// Whether that quarantine is for good (see [`NodePool::ban`]).
    pub banned: bool,
    /// Strike/quarantine counters for the discipline policy.
    pub discipline: NodeDiscipline,
    /// The job currently executing on this node, if any.
    pub current_job: Option<JobId>,
    /// Jobs ever assigned to this node — the load signal the
    /// least-loaded assignment policy balances on.
    pub assigned: u64,
}

impl Node {
    /// Probability that a job on this node reports the correct value.
    pub fn reliability(&self) -> f64 {
        (1.0 - self.wrong_rate - self.unresponsive_rate).max(0.0)
    }
}

/// Index of a node within the pool's dense storage.
pub type NodeIndex = usize;

/// The node pool: dense node storage plus an O(1)-sampling idle set.
#[derive(Debug, Clone)]
pub struct NodePool {
    nodes: Vec<Node>,
    /// Indices of idle, alive nodes; `idle_pos[i]` is the position of node
    /// `i` within `idle`, if idle.
    idle: Vec<NodeIndex>,
    idle_pos: Vec<Option<usize>>,
    alive_count: usize,
    next_id: u64,
    /// Round-robin dispatch cursor (node index of the next preferred pick).
    rr_cursor: u32,
}

impl NodePool {
    /// Builds a pool from configuration, drawing per-node parameters with
    /// `rng`.
    pub fn from_config<R: Rng + ?Sized>(config: &PoolConfig, rng: &mut R) -> Self {
        let mut pool = Self {
            nodes: Vec::with_capacity(config.size),
            idle: Vec::with_capacity(config.size),
            idle_pos: Vec::with_capacity(config.size),
            alive_count: 0,
            next_id: 0,
            rr_cursor: 0,
        };
        for _ in 0..config.size {
            pool.spawn_node(config, rng);
        }
        pool
    }

    /// Adds a freshly drawn node (a volunteer joining) and returns its
    /// index.
    pub fn spawn_node<R: Rng + ?Sized>(&mut self, config: &PoolConfig, rng: &mut R) -> NodeIndex {
        let wrong_rate = match config.profile {
            ReliabilityProfile::Uniform { wrong_rate } => wrong_rate,
            ReliabilityProfile::Spread {
                mean_wrong,
                half_width,
            } => {
                if half_width == 0.0 {
                    mean_wrong
                } else {
                    rng.gen_range(mean_wrong - half_width..=mean_wrong + half_width)
                        .clamp(0.0, 1.0)
                }
            }
            ReliabilityProfile::TwoClass {
                honest_wrong,
                byzantine_wrong,
                byzantine_fraction,
            } => {
                if rng.gen_bool(byzantine_fraction) {
                    byzantine_wrong
                } else {
                    honest_wrong
                }
            }
        };
        let (lo, hi) = config.speed_window;
        let speed = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
        let index = self.nodes.len();
        self.nodes.push(Node {
            id: NodeId::new(self.next_id),
            wrong_rate,
            unresponsive_rate: config.unresponsive_rate,
            speed,
            alive: true,
            quarantined: false,
            banned: false,
            discipline: NodeDiscipline::default(),
            current_job: None,
            assigned: 0,
        });
        self.next_id += 1;
        self.idle_pos.push(None);
        self.alive_count += 1;
        self.push_idle(index);
        index
    }

    /// Number of nodes still in the pool.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of idle, alive nodes.
    pub fn idle_count(&self) -> usize {
        self.idle.len()
    }

    /// Total nodes ever created (including departed ones).
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Shared access to a node.
    pub fn node(&self, index: NodeIndex) -> &Node {
        &self.nodes[index]
    }

    /// Exclusive access to a node.
    pub fn node_mut(&mut self, index: NodeIndex) -> &mut Node {
        &mut self.nodes[index]
    }

    /// Empirical mean reliability over alive nodes.
    pub fn mean_reliability(&self) -> f64 {
        if self.alive_count == 0 {
            return 0.0;
        }
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.reliability())
            .sum::<f64>()
            / self.alive_count as f64
    }

    fn push_idle(&mut self, index: NodeIndex) {
        debug_assert!(self.idle_pos[index].is_none());
        self.idle_pos[index] = Some(self.idle.len());
        self.idle.push(index);
    }

    fn remove_idle(&mut self, index: NodeIndex) {
        let pos = self.idle_pos[index].expect("node not idle");
        let last = self.idle.len() - 1;
        self.idle.swap(pos, last);
        let moved = self.idle[pos];
        self.idle_pos[moved] = Some(pos);
        self.idle.pop();
        self.idle_pos[index] = None;
    }

    /// The idle nodes, in the pool's internal (swap-remove) order.
    pub fn idle_nodes(&self) -> &[NodeIndex] {
        &self.idle
    }

    /// Marks an idle node busy: it leaves the idle set and its assignment
    /// count advances.
    pub fn claim(&mut self, index: NodeIndex) {
        self.remove_idle(index);
        self.nodes[index].current_job = None;
        self.nodes[index].assigned += 1;
    }

    /// Whether the "no two jobs of a task on one node" exclusion is waived:
    /// the task has already touched as many nodes as are alive (a task
    /// larger than the pool), and insisting would deadlock.
    pub fn waives_exclusion(&self, exclude: &[NodeIndex]) -> bool {
        exclude.len() >= self.alive_count
    }

    /// Picks a random idle node not in `exclude` without claiming it.
    ///
    /// The exclusion implements "independent, randomly chosen nodes": a node
    /// never runs two jobs of the same task, unless
    /// [`waives_exclusion`](Self::waives_exclusion) applies.
    pub fn pick_random_idle<R: Rng + ?Sized>(
        &self,
        exclude: &[NodeIndex],
        rng: &mut R,
    ) -> Option<NodeIndex> {
        if self.idle.is_empty() {
            return None;
        }
        let waive = self.waives_exclusion(exclude);
        let eligible = |candidate: &NodeIndex| waive || !exclude.contains(candidate);
        // A few random probes first (fast path for large pools)…
        for _ in 0..8 {
            let candidate = self.idle[rng.gen_range(0..self.idle.len())];
            if eligible(&candidate) {
                return Some(candidate);
            }
        }
        // …then an exhaustive scan starting at a random offset so small
        // pools stay unbiased.
        let start = rng.gen_range(0..self.idle.len());
        (0..self.idle.len())
            .map(|i| self.idle[(start + i) % self.idle.len()])
            .find(eligible)
    }

    /// Selects a random idle node not in `exclude`, marks it busy, and
    /// returns it.
    pub fn claim_random_idle<R: Rng + ?Sized>(
        &mut self,
        exclude: &[NodeIndex],
        rng: &mut R,
    ) -> Option<NodeIndex> {
        let candidate = self.pick_random_idle(exclude, rng)?;
        self.claim(candidate);
        Some(candidate)
    }

    /// Selects an idle node under the given assignment `policy`, marks it
    /// busy, and returns it.
    ///
    /// [`Assignment::Random`] takes the exact
    /// [`claim_random_idle`](Self::claim_random_idle) code path — same RNG
    /// draws, same probe sequence — so runs configured with the default
    /// policy reproduce the historical (golden) journals bit for bit. The
    /// deterministic policies never touch `rng` at all, so layers that
    /// share the stream (fault plans, vote draws) are likewise undisturbed.
    pub fn claim_idle<R: Rng + ?Sized>(
        &mut self,
        policy: Assignment,
        exclude: &[NodeIndex],
        rng: &mut R,
    ) -> Option<NodeIndex> {
        if policy == Assignment::Random {
            return self.claim_random_idle(exclude, rng);
        }
        if self.idle.is_empty() {
            return None;
        }
        let waive_exclusion = self.waives_exclusion(exclude);
        let mut eligible: Vec<u32> = self
            .idle
            .iter()
            .copied()
            .filter(|i| waive_exclusion || !exclude.contains(i))
            .map(|i| i as u32)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        // Sort so the pick is a function of the eligible *set*, not of the
        // incidental order of the swap-remove idle list.
        eligible.sort_unstable();
        let loads: Vec<u64> = eligible
            .iter()
            .map(|&i| self.nodes[i as usize].assigned)
            .collect();
        let pos = policy.pick(&eligible, &loads, self.rr_cursor, 0);
        let candidate = eligible[pos] as usize;
        self.rr_cursor = eligible[pos].wrapping_add(1);
        self.claim(candidate);
        Some(candidate)
    }

    /// Returns a node to the idle set after it finishes (or abandons) a
    /// job. Departed and quarantined nodes are not re-queued.
    pub fn release(&mut self, index: NodeIndex) {
        self.nodes[index].current_job = None;
        if self.nodes[index].alive
            && !self.nodes[index].quarantined
            && self.idle_pos[index].is_none()
        {
            self.push_idle(index);
        }
    }

    /// Pulls a node from the assignment pool without removing it: it stays
    /// alive (and finishes any running job) but receives no new work until
    /// [`unquarantine`](Self::unquarantine). Idempotent.
    pub fn quarantine(&mut self, index: NodeIndex) {
        if self.nodes[index].quarantined || !self.nodes[index].alive {
            return;
        }
        self.nodes[index].quarantined = true;
        if self.idle_pos[index].is_some() {
            self.remove_idle(index);
        }
    }

    /// Quarantines a node for good — the volunteer server's blacklist: the
    /// host stays in the table (and finishes any running job) but
    /// [`unquarantine`](Self::unquarantine) never readmits it.
    pub fn ban(&mut self, index: NodeIndex) {
        self.quarantine(index);
        self.nodes[index].banned = true;
    }

    /// Ends a node's quarantine, returning it to the idle set if it is
    /// alive and not mid-job. Idempotent; a no-op for banned nodes.
    pub fn unquarantine(&mut self, index: NodeIndex) {
        if !self.nodes[index].quarantined || self.nodes[index].banned {
            return;
        }
        self.nodes[index].quarantined = false;
        if self.nodes[index].alive
            && self.nodes[index].current_job.is_none()
            && self.idle_pos[index].is_none()
        {
            self.push_idle(index);
        }
    }

    /// Number of alive nodes currently serving a quarantine.
    pub fn quarantined_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive && n.quarantined)
            .count()
    }

    /// Checks the pool's structural invariants, returning a description of
    /// the first violation found.
    ///
    /// Invariants:
    ///
    /// 1. `alive_count` equals the number of alive nodes.
    /// 2. `idle` and `idle_pos` agree: `idle_pos[i] = Some(p)` iff
    ///    `idle[p] = i`, with no duplicates.
    /// 3. Every idle node is alive, unquarantined, and has no running job
    ///    (no node is double-assigned).
    /// 4. Departed nodes hold no job.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let alive = self.nodes.iter().filter(|n| n.alive).count();
        if alive != self.alive_count {
            return Err(format!(
                "alive_count {} but {} alive nodes",
                self.alive_count, alive
            ));
        }
        if self.idle_pos.len() != self.nodes.len() {
            return Err(format!(
                "idle_pos len {} != nodes len {}",
                self.idle_pos.len(),
                self.nodes.len()
            ));
        }
        for (pos, &index) in self.idle.iter().enumerate() {
            if index >= self.nodes.len() {
                return Err(format!("idle entry {index} out of bounds"));
            }
            if self.idle_pos[index] != Some(pos) {
                return Err(format!(
                    "idle[{pos}] = {index} but idle_pos[{index}] = {:?}",
                    self.idle_pos[index]
                ));
            }
            let node = &self.nodes[index];
            if !node.alive {
                return Err(format!("departed node {index} in idle set"));
            }
            if node.quarantined {
                return Err(format!("quarantined node {index} in idle set"));
            }
            if let Some(job) = node.current_job {
                return Err(format!("idle node {index} still holds {job}"));
            }
        }
        for (index, pos) in self.idle_pos.iter().enumerate() {
            if let Some(p) = *pos {
                if self.idle.get(p).copied() != Some(index) {
                    return Err(format!(
                        "idle_pos[{index}] = Some({p}) but idle[{p}] != {index}"
                    ));
                }
            }
        }
        for (index, node) in self.nodes.iter().enumerate() {
            if !node.alive && node.current_job.is_some() {
                return Err(format!("departed node {index} holds a job"));
            }
        }
        Ok(())
    }

    /// Removes a node from the pool (volunteer leaving). Returns the job it
    /// was running, if any, so the caller can resolve it.
    pub fn depart(&mut self, index: NodeIndex) -> Option<JobId> {
        if !self.nodes[index].alive {
            return None;
        }
        self.nodes[index].alive = false;
        self.alive_count -= 1;
        if self.idle_pos[index].is_some() {
            self.remove_idle(index);
        }
        self.nodes[index].current_job.take()
    }

    /// Picks a uniformly random alive node, if any.
    pub fn random_alive<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeIndex> {
        if self.alive_count == 0 {
            return None;
        }
        loop {
            let candidate = rng.gen_range(0..self.nodes.len());
            if self.nodes[candidate].alive {
                return Some(candidate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartred_desim::rng::seeded_rng;

    fn pool(size: usize) -> (NodePool, smartred_desim::rng::SimRng) {
        let mut rng = seeded_rng(1);
        let cfg = PoolConfig::uniform(size, 0.3);
        (NodePool::from_config(&cfg, &mut rng), rng)
    }

    #[test]
    fn builds_requested_size_all_idle() {
        let (p, _) = pool(100);
        assert_eq!(p.alive_count(), 100);
        assert_eq!(p.idle_count(), 100);
        assert!((p.mean_reliability() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn claim_marks_busy_release_marks_idle() {
        let (mut p, mut rng) = pool(10);
        let n = p.claim_random_idle(&[], &mut rng).unwrap();
        assert_eq!(p.idle_count(), 9);
        p.release(n);
        assert_eq!(p.idle_count(), 10);
    }

    #[test]
    fn exclusion_is_respected() {
        let (mut p, mut rng) = pool(3);
        let exclude = vec![0, 1];
        for _ in 0..20 {
            let n = p.claim_random_idle(&exclude, &mut rng).unwrap();
            assert_eq!(n, 2);
            p.release(n);
        }
    }

    #[test]
    fn full_exclusion_waives_constraint() {
        let (mut p, mut rng) = pool(2);
        let exclude = vec![0, 1];
        // Task has already used every node: reuse is allowed over deadlock.
        assert!(p.claim_random_idle(&exclude, &mut rng).is_some());
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let (mut p, mut rng) = pool(2);
        assert!(p.claim_random_idle(&[], &mut rng).is_some());
        assert!(p.claim_random_idle(&[], &mut rng).is_some());
        assert!(p.claim_random_idle(&[], &mut rng).is_none());
    }

    #[test]
    fn depart_removes_from_idle_and_alive() {
        let (mut p, _) = pool(5);
        assert!(p.depart(3).is_none());
        assert_eq!(p.alive_count(), 4);
        assert_eq!(p.idle_count(), 4);
        assert!(!p.node(3).alive);
        // Departing twice is a no-op.
        assert!(p.depart(3).is_none());
        assert_eq!(p.alive_count(), 4);
    }

    #[test]
    fn departed_node_is_not_re_queued_on_release() {
        let (mut p, mut rng) = pool(2);
        let n = p.claim_random_idle(&[], &mut rng).unwrap();
        p.depart(n);
        p.release(n);
        assert_eq!(p.idle_count(), 1);
    }

    #[test]
    fn spawn_grows_pool_with_fresh_ids() {
        let (mut p, mut rng) = pool(2);
        let cfg = PoolConfig::uniform(2, 0.3);
        let n = p.spawn_node(&cfg, &mut rng);
        assert_eq!(p.alive_count(), 3);
        assert_eq!(p.node(n).id.get(), 2);
    }

    #[test]
    fn two_class_profile_mixes_rates() {
        let mut rng = seeded_rng(9);
        let cfg = PoolConfig {
            size: 2000,
            profile: ReliabilityProfile::TwoClass {
                honest_wrong: 0.0,
                byzantine_wrong: 1.0,
                byzantine_fraction: 0.25,
            },
            unresponsive_rate: 0.0,
            speed_window: (1.0, 1.0),
        };
        let p = NodePool::from_config(&cfg, &mut rng);
        let byz = (0..p.capacity())
            .filter(|&i| p.node(i).wrong_rate == 1.0)
            .count();
        let frac = byz as f64 / 2000.0;
        assert!((frac - 0.25).abs() < 0.03, "byzantine fraction {frac}");
        assert!((p.mean_reliability() - 0.75).abs() < 0.03);
    }

    #[test]
    fn spread_profile_clips_to_unit_interval() {
        let mut rng = seeded_rng(10);
        let cfg = PoolConfig {
            size: 500,
            profile: ReliabilityProfile::Spread {
                mean_wrong: 0.1,
                half_width: 0.3,
            },
            unresponsive_rate: 0.0,
            speed_window: (1.0, 1.0),
        };
        let p = NodePool::from_config(&cfg, &mut rng);
        for i in 0..p.capacity() {
            let w = p.node(i).wrong_rate;
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn random_alive_skips_departed() {
        let (mut p, mut rng) = pool(3);
        p.depart(0);
        p.depart(1);
        for _ in 0..10 {
            assert_eq!(p.random_alive(&mut rng), Some(2));
        }
        p.depart(2);
        assert_eq!(p.random_alive(&mut rng), None);
    }

    #[test]
    fn reliability_accounts_for_hangs() {
        let node = Node {
            id: NodeId::new(0),
            wrong_rate: 0.2,
            unresponsive_rate: 0.1,
            speed: 1.0,
            alive: true,
            quarantined: false,
            banned: false,
            discipline: NodeDiscipline::default(),
            current_job: None,
            assigned: 0,
        };
        assert!((node.reliability() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn quarantine_excludes_from_assignment() {
        let (mut p, mut rng) = pool(2);
        p.quarantine(0);
        assert_eq!(p.idle_count(), 1);
        assert_eq!(p.quarantined_count(), 1);
        for _ in 0..10 {
            let n = p.claim_random_idle(&[], &mut rng).unwrap();
            assert_eq!(n, 1);
            p.release(n);
        }
        // Quarantine is idempotent and alive_count is untouched.
        p.quarantine(0);
        assert_eq!(p.alive_count(), 2);
        p.unquarantine(0);
        assert_eq!(p.idle_count(), 2);
        assert_eq!(p.quarantined_count(), 0);
        p.check_invariants().unwrap();
    }

    #[test]
    fn busy_node_quarantined_mid_job_returns_only_after_unquarantine() {
        let (mut p, mut rng) = pool(1);
        let n = p.claim_random_idle(&[], &mut rng).unwrap();
        p.quarantine(n);
        // Finishing the job must not put a quarantined node back in idle.
        p.release(n);
        assert_eq!(p.idle_count(), 0);
        p.unquarantine(n);
        assert_eq!(p.idle_count(), 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn a_banned_node_is_never_readmitted() {
        let (mut p, mut rng) = pool(2);
        let n = p.claim_random_idle(&[], &mut rng).unwrap();
        p.ban(n);
        // Neither finishing its job nor a pending release brings it back.
        p.release(n);
        p.unquarantine(n);
        assert_eq!(p.idle_count(), 1);
        assert_eq!(p.alive_count(), 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn depart_during_quarantine_is_sound() {
        let (mut p, _) = pool(3);
        p.quarantine(1);
        assert!(p.depart(1).is_none());
        p.unquarantine(1); // must not resurrect a departed node
        assert_eq!(p.idle_count(), 2);
        assert_eq!(p.alive_count(), 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn random_policy_matches_claim_random_idle_exactly() {
        // Same seed, same call sequence → identical picks: the Random
        // branch of claim_idle must be the claim_random_idle code path.
        let (mut a, mut rng_a) = pool(10);
        let (mut b, mut rng_b) = pool(10);
        for _ in 0..5 {
            let x = a.claim_random_idle(&[2], &mut rng_a).unwrap();
            let y = b.claim_idle(Assignment::Random, &[2], &mut rng_b).unwrap();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn round_robin_cycles_through_the_pool() {
        let (mut p, mut rng) = pool(4);
        let picks: Vec<_> = (0..4)
            .map(|_| p.claim_idle(Assignment::RoundRobin, &[], &mut rng).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3]);
        for i in picks {
            p.release(i);
        }
        // The cursor wraps: the next pick starts the cycle over.
        assert_eq!(p.claim_idle(Assignment::RoundRobin, &[], &mut rng), Some(0));
    }

    #[test]
    fn round_robin_respects_exclusion() {
        let (mut p, mut rng) = pool(3);
        let n = p
            .claim_idle(Assignment::RoundRobin, &[0], &mut rng)
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn least_loaded_balances_assignments() {
        let (mut p, mut rng) = pool(3);
        // Pre-load node 0 heavily; least-loaded must prefer the others.
        p.node_mut(0).assigned = 5;
        let a = p
            .claim_idle(Assignment::LeastLoaded, &[], &mut rng)
            .unwrap();
        p.release(a);
        let b = p
            .claim_idle(Assignment::LeastLoaded, &[], &mut rng)
            .unwrap();
        p.release(b);
        assert_eq!((a, b), (1, 2));
        // Ties break by lowest index.
        let c = p
            .claim_idle(Assignment::LeastLoaded, &[], &mut rng)
            .unwrap();
        assert_eq!(c, 1);
    }

    #[test]
    fn deterministic_policies_do_not_touch_the_rng() {
        use rand::RngCore;
        let (mut p, mut rng) = pool(4);
        let mut probe = rng.clone();
        let expected = probe.next_u64();
        p.claim_idle(Assignment::RoundRobin, &[], &mut rng).unwrap();
        p.claim_idle(Assignment::LeastLoaded, &[], &mut rng)
            .unwrap();
        assert_eq!(rng.next_u64(), expected);
    }

    #[test]
    fn check_invariants_catches_corruption() {
        let (mut p, _) = pool(3);
        p.check_invariants().unwrap();
        p.alive_count = 7;
        assert!(p.check_invariants().is_err());
    }
}
