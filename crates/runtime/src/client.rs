//! The one submission surface over both serving runtimes.

use std::time::Duration;

use smartred_desim::journal::RunEvent;

use crate::coordinator::{Client, SubmitOutcome, TaskVerdict};
use crate::shard::ShardedClient;
use crate::workload::Payload;

/// What a load generator or a workload layer (the DAG driver) needs from
/// a serving runtime, whichever kind: the single-coordinator [`Client`]
/// and the sharded [`ShardedClient`] both implement it, so such code is
/// written once. Each method is the implementor's inherent method of the
/// same name.
pub trait TaskClient {
    /// Submits one task; never blocks (see [`Client::submit`]).
    fn submit(&self, payload: Payload) -> SubmitOutcome;
    /// Blocks for this client's next verdict; `None` once the runtime has
    /// shut down and no verdicts remain.
    fn recv(&self) -> Option<TaskVerdict>;
    /// Like [`recv`](Self::recv) with a timeout; `None` on timeout or
    /// shutdown.
    fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict>;
    /// Journals an annotation event durably into the runtime's WAL (see
    /// [`Client::annotate`]).
    fn annotate(&self, event: RunEvent) -> bool;
}

impl TaskClient for Client {
    fn submit(&self, payload: Payload) -> SubmitOutcome {
        Client::submit(self, payload)
    }
    fn recv(&self) -> Option<TaskVerdict> {
        Client::recv(self)
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict> {
        Client::recv_timeout(self, timeout)
    }
    fn annotate(&self, event: RunEvent) -> bool {
        Client::annotate(self, event)
    }
}

impl TaskClient for ShardedClient {
    fn submit(&self, payload: Payload) -> SubmitOutcome {
        ShardedClient::submit(self, payload)
    }
    fn recv(&self) -> Option<TaskVerdict> {
        ShardedClient::recv(self)
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict> {
        ShardedClient::recv_timeout(self, timeout)
    }
    fn annotate(&self, event: RunEvent) -> bool {
        ShardedClient::annotate(self, event)
    }
}
