//! # smartred-desim — deterministic discrete-event simulation
//!
//! The paper evaluates its redundancy techniques on XDEVS, a discrete-event
//! simulation framework specialized for software systems (§4.1). XDEVS is
//! not publicly available, so this crate rebuilds the capabilities the
//! experiments rely on:
//!
//! * an event queue ordered by exact integer simulated time
//!   ([`engine::Simulator`]), with insertion-order tie-breaking so runs are
//!   bit-for-bit reproducible;
//! * fixed-point time types ([`time::SimTime`], [`time::SimDuration`]) in
//!   the paper's abstract "time units";
//! * seedable, stream-splittable randomness ([`rng`]) for stochastic job
//!   durations and failures.
//!
//! The DCA model itself (task server, node pool, failure models) lives in
//! `smartred-dca`; this crate is model-agnostic.
//!
//! ## Example
//!
//! ```
//! use smartred_desim::engine::Simulator;
//! use smartred_desim::rng::{seeded_rng, uniform_duration};
//!
//! // Simulate 3 jobs with the paper's U[0.5, 1.5] durations and count
//! // completions.
//! let mut sim: Simulator<u32> = Simulator::new();
//! let mut rng = seeded_rng(11);
//! for _ in 0..3 {
//!     let d = uniform_duration(&mut rng, 0.5, 1.5);
//!     sim.schedule_in(d, |done, _| *done += 1);
//! }
//! let mut done = 0u32;
//! let stats = sim.run(&mut done);
//! assert_eq!(done, 3);
//! assert!(stats.end_time.as_units() <= 1.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod disk;
pub mod engine;
pub mod journal;
pub mod network;
pub mod rng;
pub mod time;

pub use disk::{Disk, DiskCounts, DiskFaultPlan, FaultyDisk, RealDisk};
pub use engine::{RunStats, Simulator};
pub use journal::{EventKind, Journal, RunEvent};
pub use network::{LinkSpec, NetworkModel};
pub use time::{SimDuration, SimTime};
