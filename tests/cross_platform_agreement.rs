//! The reproduction's strongest internal check: closed-form analysis
//! (Eqs. 1–6 in `core::analysis`), Monte-Carlo sampling
//! (`core::monte_carlo`) and the discrete-event lifecycle under both of its
//! node models — the DCA pool and the volunteer-computing hosts — must
//! agree on every technique's cost and reliability. The first two are
//! independent implementations of the model; the two platforms share
//! `dca::sim`'s event loop and differ in their node model, so their
//! agreement checks the models' parameter mapping, and their agreement
//! with the analysis checks the lifecycle itself.

use std::rc::Rc;

use rand::SeedableRng;
use smartred::core::analysis;
use smartred::core::monte_carlo::{estimate, MonteCarloConfig};
use smartred::core::params::{KVotes, Reliability, VoteMargin};
use smartred::core::strategy::{Iterative, Progressive, Traditional};
use smartred::dca::config::DcaConfig;
use smartred::dca::sim::run as run_dca;
use smartred::volunteer::host::PlanetLabProfile;
use smartred::volunteer::server::{run as run_volunteer, VolunteerConfig};

const R: f64 = 0.7;

fn r() -> Reliability {
    Reliability::new(R).unwrap()
}

/// Cost and reliability from every platform for one strategy.
struct FourWay {
    analytic: (f64, f64),
    monte_carlo: (f64, f64),
    dca: (f64, f64),
    volunteer: (f64, f64),
}

fn four_way<S>(strategy: S, analytic: (f64, f64)) -> FourWay
where
    S: smartred::RedundancyStrategy<bool> + Clone + 'static,
{
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4242);
    let mc = estimate(&strategy, MonteCarloConfig::new(60_000, r()), &mut rng);

    let dca_cfg = DcaConfig::paper_baseline(30_000, 500, 1.0 - R, 4242);
    let dca = run_dca(Rc::new(strategy.clone()), &dca_cfg).unwrap();

    // Volunteer deployment with *only* the seeded 30% faults → r = 0.7;
    // average several executions since one deployment has just 140 tasks.
    let mut cost = 0.0;
    let mut rel = 0.0;
    let runs = 25;
    for i in 0..runs {
        let mut cfg = VolunteerConfig::paper_deployment(12, 1000 + i);
        cfg.profile = PlanetLabProfile {
            seeded_fault_rate: 0.30,
            platform_fault_rate: 0.0,
            unresponsive_rate: 0.0,
            speed_window: (1.0, 1.0),
        };
        let report = run_volunteer(Rc::new(strategy.clone()), &cfg).unwrap();
        cost += report.cost_factor();
        rel += report.reliability();
    }

    FourWay {
        analytic,
        monte_carlo: (mc.cost_factor(), mc.reliability()),
        dca: (dca.cost_factor(), dca.reliability()),
        volunteer: (cost / runs as f64, rel / runs as f64),
    }
}

fn assert_agreement(name: &str, fw: &FourWay, cost_tol: f64, rel_tol: f64) {
    for (platform, (cost, rel)) in [
        ("monte-carlo", fw.monte_carlo),
        ("dca", fw.dca),
        ("volunteer", fw.volunteer),
    ] {
        assert!(
            (cost - fw.analytic.0).abs() < cost_tol,
            "{name}/{platform}: cost {cost} vs analytic {}",
            fw.analytic.0
        );
        assert!(
            (rel - fw.analytic.1).abs() < rel_tol,
            "{name}/{platform}: reliability {rel} vs analytic {}",
            fw.analytic.1
        );
    }
}

#[test]
fn traditional_agrees_everywhere() {
    let k = KVotes::new(9).unwrap();
    let fw = four_way(
        Traditional::new(k),
        (
            analysis::traditional::cost(k),
            analysis::traditional::reliability(k, r()),
        ),
    );
    assert_agreement("traditional k=9", &fw, 0.05, 0.02);
}

#[test]
fn progressive_agrees_everywhere() {
    let k = KVotes::new(9).unwrap();
    let fw = four_way(
        Progressive::new(k),
        (
            analysis::progressive::cost_series(k, r()),
            analysis::progressive::reliability(k, r()),
        ),
    );
    assert_agreement("progressive k=9", &fw, 0.2, 0.02);
}

#[test]
fn iterative_agrees_everywhere() {
    let d = VoteMargin::new(4).unwrap();
    let fw = four_way(
        Iterative::new(d),
        (
            analysis::iterative::cost(d, r()),
            analysis::iterative::reliability(d, r()),
        ),
    );
    assert_agreement("iterative d=4", &fw, 0.3, 0.02);
}
