//! # smartred-runtime — live job serving under smart redundancy
//!
//! Everything else in this workspace runs in *simulated* time; this crate
//! is the real thing: a std-only, wall-clock job-serving runtime that
//! executes actual workloads (3-SAT assignment blocks, synthetic
//! busywork) on a pool of OS threads under the traditional, progressive,
//! and iterative redundancy strategies of `smartred-core`.
//!
//! ## Architecture
//!
//! * [`worker`] — the pool: per-worker inboxes, a pluggable
//!   [`Worker`] trait, and [`FaultyWorker`], whose lies and hangs are a
//!   pure function of `(seed, task, replica)` via the counter-based RNG
//!   streams of `core::parallel`;
//! * [`coordinator`] — a single coordinator owning all redundancy
//!   state: it admits submissions (bounded queue, load shedding,
//!   [`SubmitOutcome`]), sizes waves with the shared
//!   `core::execution::step_wave` surface, places each replica on a
//!   worker with credit left (which bounds its inbox), tallies votes,
//!   enforces wall-clock deadlines with timeout→reissue semantics, and
//!   delivers [`TaskVerdict`]s. It is `step(input, now)` over one inbox that
//!   clients and workers both send on, plus the timers it arms; its
//!   thread is a driver that owns the channel and the clock and sleeps
//!   until an input arrives or a timer falls due;
//! * [`client`] — [`TaskClient`], the one submission surface both the
//!   single-coordinator and the sharded client implement;
//! * [`workload`] — the job payloads replicas execute;
//! * [`report`] — the metrics type plus [`report_from_journal`], the
//!   independent reference fold the live report is compared against;
//! * `ledger` — the state the WAL determines (open tasks, the decided
//!   set, node supervision, the job-id cursor, live hedge twins, the live
//!   report) and the one `apply` that mutates it: the live coordinator
//!   applies each event as it logs it, and [`Runtime::recover`] replays
//!   the WAL prefix through the same code;
//! * [`recovery`] — what recovery reports: [`RecoveryError`] and
//!   [`RecoveryReport`];
//! * [`checkpoint`] — checksummed coordinator snapshots taken at
//!   quiescence so recovery replays snapshot + WAL suffix instead of the
//!   whole history, and old WAL segments can be truncated;
//! * [`shard`] — the sharded multi-coordinator runtime: tasks hash by id
//!   to one of N coordinators (disjoint WAL segments and worker
//!   sub-pools) behind one admission gate, and a client that passes it
//!   sends straight to the owning shard's inbox; per-shard journals merge
//!   deterministically and shard WALs recover in parallel.
//!
//! ## Crash recovery
//!
//! With [`RuntimeConfig::wal`] set, every journal event is logged and the
//! log committed to the file once per coordinator turn — before the
//! verdicts that turn decided are released and before the coordinator
//! sleeps. If the coordinator process
//! dies, [`Runtime::recover`] replays the surviving WAL prefix (tolerating
//! a torn final record) and resumes: decided tasks are never re-run or
//! re-delivered, open tasks keep their exact vote tallies and replica
//! indices, and in-flight jobs are re-armed under a fresh epoch. Worker
//! threads are supervised at runtime — panics are caught and the worker
//! rebuilt, hung workers are respawned, late replies from superseded
//! dispatches are rejected by epoch, and payloads that repeatedly kill
//! workers are poisoned rather than re-issued forever. See DESIGN.md §9.
//!
//! ## Observability
//!
//! The coordinator emits the same typed
//! [`RunEvent`](smartred_desim::journal::RunEvent) stream as the
//! simulators, stamped with monotonic wall time (1 unit = 1 second), so
//! the `journal::assert` DSL, JSONL export, digests, and replay folding
//! all work unchanged against the live system.
//!
//! ## Determinism contract
//!
//! Given a seed: votes, verdicts, per-task costs, and per-task journal
//! *structure* are deterministic (fault draws are keyed by task and
//! replica, not by worker or schedule) **provided no job misses its
//! deadline spuriously**. Wall-clock timestamps, cross-task interleaving,
//! and therefore journal digests are *not* deterministic — see DESIGN.md
//! §"Live runtime vs simulators".
//!
//! ## Example
//!
//! ```
//! use std::time::Duration;
//! use smartred_core::params::KVotes;
//! use smartred_core::strategy::Traditional;
//! use smartred_runtime::{
//!     FaultProfile, FaultyWorker, Payload, Runtime, RuntimeConfig, SubmitOutcome,
//! };
//!
//! let cfg = RuntimeConfig {
//!     workers: Some(2),
//!     ..RuntimeConfig::default()
//! };
//! let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(3)?), |_| {
//!     Box::new(FaultyWorker::new(7, FaultProfile::default()))
//! });
//! let client = runtime.client();
//! let outcome = client.submit(Payload::Synthetic {
//!     answer: true,
//!     work: Duration::ZERO,
//! });
//! assert!(matches!(outcome, SubmitOutcome::Accepted { .. }));
//! let verdict = client.recv().expect("a verdict");
//! assert_eq!(verdict.vote, Some(true));
//! drop(client);
//! let run = runtime.finish();
//! assert_eq!(run.report.tasks_completed, 1);
//! # Ok::<(), smartred_core::error::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod client;
pub mod coordinator;
mod id_hash;
mod ledger;
pub mod recovery;
pub mod report;
pub mod shard;
pub mod worker;
pub mod workload;

pub use checkpoint::checkpoint_path;
pub use client::TaskClient;
pub use coordinator::{
    AdmissionStats, Client, Runtime, RuntimeConfig, RuntimeRun, SubmitOutcome, TaskVerdict,
};
pub use recovery::{RecoveryError, RecoveryReport};
pub use report::{report_from_journal, RuntimeReport};
pub use shard::{ShardedClient, ShardedConfig, ShardedRun, ShardedRuntime};
pub use worker::{
    CartelWorker, FaultProfile, FaultyWorker, JobAssignment, JobResult, StragglerWorker, Worker,
};
pub use workload::Payload;
