//! # smartred-volunteer — a BOINC-like volunteer-computing system
//!
//! The paper's second evaluation platform is a BOINC deployment on ~200
//! PlanetLab nodes solving 22-variable 3-SAT instances decomposed into 140
//! tasks, with seeded 30% faults plus naturally occurring platform failures
//! (§4.1). Neither BOINC-on-PlanetLab nor the authors' custom task server
//! is available, so this crate rebuilds the whole stack:
//!
//! * [`host`] — volunteer hosts with PlanetLab-style profiles (seeded
//!   faults, platform faults, hangs, heterogeneous speeds) calibrated to
//!   the paper's back-derived effective reliability band 0.64 < r < 0.67;
//! * [`workunit`] — BOINC-style workunits over 3-SAT assignment blocks;
//! * [`server`] — the project server: instance generation, the host model
//!   and idle-host scheduler, and the deployment report, run as a node
//!   model on `smartred-dca`'s task lifecycle (deadlines, retry, hedging,
//!   discipline, audit, strategy-driven validation; [`server::run`]
//!   produces the Figure 5(b) data);
//! * [`campaign`] — adversarial campaigns (trust-earning, identity churn)
//!   against reliability-estimating validators, the §5.1 comparison.
//!
//! ## Example
//!
//! ```
//! use std::rc::Rc;
//! use smartred_core::params::VoteMargin;
//! use smartred_core::strategy::Iterative;
//! use smartred_volunteer::server::{run, VolunteerConfig};
//!
//! // A small instance for demonstration; the paper-size run uses
//! // `VolunteerConfig::paper_deployment(22, seed)`.
//! let cfg = VolunteerConfig::paper_deployment(12, 7);
//! let report = run(Rc::new(Iterative::new(VoteMargin::new(4)?)), &cfg)?;
//! println!("cost factor {:.2}, reliability {:.3}",
//!     report.cost_factor(), report.reliability());
//! # Ok::<(), smartred_core::error::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod equivalence;
pub mod host;
pub mod server;
pub mod workunit;

pub use campaign::{run_campaign, AttackModel, CampaignConfig, CampaignReport, Validator};
pub use host::PlanetLabProfile;
pub use server::{
    run, run_journaled, DeadlinePolicy, DeploymentReport, SchedulerPolicy, VolunteerConfig,
};
pub use workunit::{Workunit, WorkunitId, WorkunitVerdict};
