//! Differential testing of the two node models: the abstract DCA pool and
//! the BOINC-style volunteer hosts run the *same* task lifecycle
//! (`dca::sim`'s event loop), so these tests do not compare two
//! implementations of the redundancy semantics — they check the parameter
//! mapping between the models. Matched parameters (same job reliability,
//! same duration window, same deadline, no hangs or churn) must produce
//! statistically indistinguishable behavior — the two runs draw different
//! random streams over different value domains (`true` vs each workunit's
//! truth) — and their run journals must tell structurally equivalent
//! stories.
//!
//! The references that remain independent of the DES lifecycle are
//! Eqs. 1–6 in `core::analysis`, `core::monte_carlo`
//! (`tests/cross_platform_agreement.rs` holds both platforms to them), and
//! the live threaded runtime (`crates/runtime/tests/hedge_equivalence.rs`).

use std::rc::Rc;

use smartred::core::execution::Assignment;
use smartred::core::hedge::HedgePolicy;
use smartred::core::params::{KVotes, VoteMargin};
use smartred::core::strategy::{Iterative, Traditional};
use smartred::dca::config::DcaConfig;
use smartred::dca::sim::run_journaled as run_dca_journaled;
use smartred::desim::journal::{assert as jassert, EventKind, Journal};
use smartred::volunteer::host::PlanetLabProfile;
use smartred::volunteer::server::{run_journaled as run_volunteer_journaled, VolunteerConfig};
use smartred::RedundancyStrategy;

const TASKS: usize = 2_000;
const NODES: usize = 200;
const WRONG_RATE: f64 = 0.3; // job reliability r = 0.7 on both platforms
const SEED: u64 = 314159;

fn dca_config() -> DcaConfig {
    // U[0.5, 1.5] durations, 3-unit deadline, wrong-rate 0.3, no hangs.
    DcaConfig::paper_baseline(TASKS, NODES, WRONG_RATE, SEED)
}

fn volunteer_config() -> VolunteerConfig {
    let mut cfg = VolunteerConfig::paper_deployment(12, SEED);
    cfg.hosts = NODES;
    cfg.tasks = TASKS;
    // Match the DCA baseline: seeded faults only (r = 0.7), homogeneous
    // unit-speed hosts, same duration window, same 3-unit deadline.
    cfg.profile = PlanetLabProfile {
        seeded_fault_rate: WRONG_RATE,
        platform_fault_rate: 0.0,
        unresponsive_rate: 0.0,
        speed_window: (1.0, 1.0),
    };
    cfg.duration_window = (0.5, 1.5);
    cfg.deadline_units = 3.0;
    cfg
}

struct Matched {
    dca_cost: f64,
    dca_rel: f64,
    vol_cost: f64,
    vol_rel: f64,
    dca_journal: Journal,
    vol_journal: Journal,
    dca_timeouts: u64,
    vol_timeouts: u64,
}

fn matched_runs<S>(strategy: S) -> Matched
where
    S: RedundancyStrategy<bool> + Clone + 'static,
{
    let dca = run_dca_journaled(Rc::new(strategy.clone()), &dca_config()).unwrap();
    let (vol, vol_journal) =
        run_volunteer_journaled(Rc::new(strategy), &volunteer_config()).unwrap();
    Matched {
        dca_cost: dca.report.jobs_per_task.mean(),
        dca_rel: dca.report.reliability(),
        vol_cost: vol.cost_factor(),
        vol_rel: vol.reliability(),
        dca_journal: dca.journal,
        vol_journal,
        dca_timeouts: dca.report.timeouts,
        vol_timeouts: vol.timeouts,
    }
}

#[test]
fn traditional_k3_agrees_across_platforms() {
    let m = matched_runs(Traditional::new(KVotes::new(3).unwrap()));
    // TR's cost is exactly k on both platforms, by construction.
    assert_eq!(m.dca_cost, 3.0, "DCA TR cost must be exactly k");
    assert_eq!(m.vol_cost, 3.0, "volunteer TR cost must be exactly k");
    // With max duration 1.5 < deadline 3.0 and no hangs, neither platform
    // may time out — a timeout here means the parameter match is broken.
    assert_eq!(m.dca_timeouts, 0);
    assert_eq!(m.vol_timeouts, 0);
    // Expected majority-of-3 reliability at r = 0.7 is 0.784; two
    // independent 2000-task samples stay within a few σ of each other.
    assert!(
        (m.dca_rel - m.vol_rel).abs() < 0.035,
        "TR reliability diverged: dca {} vs volunteer {}",
        m.dca_rel,
        m.vol_rel
    );
    assert!((m.dca_rel - 0.784).abs() < 0.03);
    assert!((m.vol_rel - 0.784).abs() < 0.03);
}

#[test]
fn iterative_d4_agrees_across_platforms() {
    let m = matched_runs(Iterative::new(VoteMargin::new(4).unwrap()));
    assert_eq!(m.dca_timeouts, 0);
    assert_eq!(m.vol_timeouts, 0);
    // IR's cost is stochastic; the two platforms sample it independently
    // over 2000 tasks each, so means agree to within a few percent.
    let rel_diff = (m.dca_cost - m.vol_cost).abs() / m.dca_cost;
    assert!(
        rel_diff < 0.05,
        "IR cost diverged: dca {} vs volunteer {} ({}%)",
        m.dca_cost,
        m.vol_cost,
        rel_diff * 100.0
    );
    assert!(m.dca_rel > 0.95 && m.vol_rel > 0.95);
    assert!(
        (m.dca_rel - m.vol_rel).abs() < 0.02,
        "IR reliability diverged: dca {} vs volunteer {}",
        m.dca_rel,
        m.vol_rel
    );
}

/// A hedge policy whose threshold (q70 of U[0.5, 1.5] ≈ 1.2, ×1.0) falls
/// well inside the 3-unit deadline on both platforms, so slow jobs are
/// hedged while fast ones are not.
fn matched_hedge() -> HedgePolicy {
    HedgePolicy {
        quantile: 0.7,
        min_samples: 20,
        multiplier: 1.0,
        max_per_task: 1,
    }
}

fn hedged_matched_runs<S>(strategy: S, assignment: Assignment) -> Matched
where
    S: RedundancyStrategy<bool> + Clone + 'static,
{
    let mut dca_cfg = dca_config();
    dca_cfg.hedge = Some(matched_hedge());
    dca_cfg.assignment = assignment;
    let mut vol_cfg = volunteer_config();
    vol_cfg.hedge = Some(matched_hedge());
    vol_cfg.assignment = assignment;
    let dca = run_dca_journaled(Rc::new(strategy.clone()), &dca_cfg).unwrap();
    let (vol, vol_journal) = run_volunteer_journaled(Rc::new(strategy), &vol_cfg).unwrap();
    // The twin-settlement invariant and the journal-as-pure-observer
    // contract hold on both substrates, whatever the assignment policy.
    assert_eq!(
        dca.report.hedges_launched,
        dca.report.hedges_won + dca.report.hedges_wasted,
        "dca: every launched twin settles exactly once"
    );
    assert_eq!(
        vol.hedges_launched,
        vol.hedges_won + vol.hedges_wasted,
        "volunteer: every launched twin settles exactly once"
    );
    for (name, journal, launched, won, wasted) in [
        (
            "dca",
            &dca.journal,
            dca.report.hedges_launched,
            dca.report.hedges_won,
            dca.report.hedges_wasted,
        ),
        (
            "volunteer",
            &vol_journal,
            vol.hedges_launched,
            vol.hedges_won,
            vol.hedges_wasted,
        ),
    ] {
        assert_eq!(
            journal.count(EventKind::HedgeLaunched) as u64,
            launched,
            "{name}"
        );
        assert_eq!(journal.count(EventKind::HedgeWon) as u64, won, "{name}");
        assert_eq!(
            journal.count(EventKind::HedgeWasted) as u64,
            wasted,
            "{name}"
        );
    }
    Matched {
        dca_cost: dca.report.jobs_per_task.mean(),
        dca_rel: dca.report.reliability(),
        vol_cost: vol.cost_factor(),
        vol_rel: vol.reliability(),
        dca_journal: dca.journal,
        vol_journal,
        dca_timeouts: dca.report.timeouts,
        vol_timeouts: vol.timeouts,
    }
}

/// Hedged traditional redundancy at matched parameters: hedging fires on
/// both platforms, changes no verdict (TR cost stays exactly k, the
/// reliability match is as tight as the unhedged run's), and both
/// journals keep the structural contract.
#[test]
fn hedged_traditional_k3_agrees_across_platforms() {
    let m = hedged_matched_runs(
        Traditional::new(KVotes::new(3).unwrap()),
        Assignment::Random,
    );
    // Hedging is verdict-invariant: replica votes, and hence TR's exact
    // cost-of-k and expected reliability, are untouched.
    assert_eq!(m.dca_cost, 3.0, "DCA hedged TR cost must stay exactly k");
    assert_eq!(
        m.vol_cost, 3.0,
        "volunteer hedged TR cost must stay exactly k"
    );
    assert_eq!(m.dca_timeouts, 0);
    assert_eq!(m.vol_timeouts, 0);
    let dca_hedges = m.dca_journal.count(EventKind::HedgeLaunched);
    let vol_hedges = m.vol_journal.count(EventKind::HedgeLaunched);
    assert!(dca_hedges > 0, "a q70 trigger must fire on U[0.5,1.5] jobs");
    assert!(vol_hedges > 0, "a q70 trigger must fire on U[0.5,1.5] jobs");
    assert!(
        (m.dca_rel - m.vol_rel).abs() < 0.035,
        "hedged TR reliability diverged: dca {} vs volunteer {}",
        m.dca_rel,
        m.vol_rel
    );
    assert!((m.dca_rel - 0.784).abs() < 0.03);
    assert!((m.vol_rel - 0.784).abs() < 0.03);
    for (name, journal) in [("dca", &m.dca_journal), ("volunteer", &m.vol_journal)] {
        jassert::that(journal)
            .time_ordered()
            .waves_well_formed()
            .retry_follows_timeout()
            .count(EventKind::VerdictReached)
            .exactly(TASKS);
        assert_eq!(
            journal.count(EventKind::JobDispatched),
            3 * TASKS,
            "{name}: twins ride replica slots, never wave slots"
        );
        assert_eq!(journal.count(EventKind::VoteTallied), 3 * TASKS, "{name}");
    }
}

/// Every assignment policy produces the same statistical agreement under
/// hedged iterative redundancy: placement never moves votes, on either
/// platform.
#[test]
fn hedged_assignment_policies_agree_across_platforms() {
    for assignment in Assignment::ALL {
        let m = hedged_matched_runs(Iterative::new(VoteMargin::new(4).unwrap()), assignment);
        assert_eq!(m.dca_timeouts, 0, "{}", assignment.name());
        assert_eq!(m.vol_timeouts, 0, "{}", assignment.name());
        let rel_diff = (m.dca_cost - m.vol_cost).abs() / m.dca_cost;
        assert!(
            rel_diff < 0.05,
            "{}: hedged IR cost diverged: dca {} vs volunteer {} ({}%)",
            assignment.name(),
            m.dca_cost,
            m.vol_cost,
            rel_diff * 100.0
        );
        assert!(
            m.dca_rel > 0.95 && m.vol_rel > 0.95,
            "{}: hedged IR must keep IR reliability",
            assignment.name()
        );
        assert!(
            (m.dca_rel - m.vol_rel).abs() < 0.02,
            "{}: hedged IR reliability diverged: dca {} vs volunteer {}",
            assignment.name(),
            m.dca_rel,
            m.vol_rel
        );
    }
}

#[test]
fn matched_journals_tell_structurally_equivalent_stories() {
    let m = matched_runs(Traditional::new(KVotes::new(3).unwrap()));
    for (name, journal) in [("dca", &m.dca_journal), ("volunteer", &m.vol_journal)] {
        // Both platforms must satisfy the same behavioral contract...
        jassert::that(journal)
            .time_ordered()
            .waves_well_formed()
            .retry_follows_timeout()
            .no_dispatch_to_quarantined()
            .count(EventKind::VerdictReached)
            .exactly(TASKS)
            .count(EventKind::JobTimedOut)
            .exactly(0)
            .count(EventKind::RunEnded)
            .exactly(1);
        // ...and the same aggregate event shape: one TR wave per task of
        // exactly k jobs, one vote per dispatched job.
        assert_eq!(journal.count(EventKind::WaveOpened), TASKS, "{name}");
        assert_eq!(journal.count(EventKind::JobDispatched), 3 * TASKS, "{name}");
        assert_eq!(journal.count(EventKind::VoteTallied), 3 * TASKS, "{name}");
        assert_eq!(
            journal.count(EventKind::WaveClosed),
            journal.count(EventKind::WaveOpened),
            "{name}: every opened wave closes (no hangs, no caps)"
        );
    }
}
