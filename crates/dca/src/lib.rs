//! # smartred-dca — the distributed-computation-architecture model
//!
//! An executable version of the DCA of Figure 1 in the paper: a task server
//! subdividing a computation into tasks, a job queue, and a pool of
//! volunteer nodes that are selected at random, may fail Byzantine-style
//! (colluding on a single wrong value, §2.2), may hang until a server
//! timeout, and may join or leave mid-computation.
//!
//! [`sim`] also holds the one simulated task lifecycle, generic over a
//! [`sim::NodeModel`]; `smartred-volunteer` runs its PlanetLab hosts on it.
//!
//! Built on the deterministic discrete-event engine of `smartred-desim`,
//! this crate is the stand-in for the paper's XDEVS simulations (§4.1): the
//! runs behind Figures 5(a) and 6 are [`sim::run`] invocations with the
//! paper's parameters (10,000 nodes, ≥10⁶ tasks, durations `U[0.5, 1.5]`,
//! mean reliability 0.7).
//!
//! ## Example
//!
//! ```
//! use std::rc::Rc;
//! use smartred_core::params::VoteMargin;
//! use smartred_core::strategy::Iterative;
//! use smartred_dca::config::DcaConfig;
//! use smartred_dca::sim::run;
//!
//! // A scaled-down Figure 5(a) point: iterative redundancy with d = 4.
//! let cfg = DcaConfig::paper_baseline(2_000, 200, 0.3, 7);
//! let report = run(Rc::new(Iterative::new(VoteMargin::new(4)?)), &cfg)?;
//! assert!(report.reliability() > 0.9);
//! assert!(report.cost_factor() < 19.0); // far below TR at k = 19
//! # Ok::<(), smartred_core::error::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod config;
pub mod faults;
pub mod job;
pub mod metrics;
pub mod pool;
pub mod replay;
pub mod sim;

pub use config::{ChurnConfig, DcaConfig, FailureConfig, PoolConfig, TimeoutPolicy};
pub use faults::{FaultEvent, FaultPlan};
pub use metrics::DcaReport;
pub use replay::report_from_journal;
pub use sim::{run, run_journaled, JournaledRun, SharedStrategy};
