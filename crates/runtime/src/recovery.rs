//! What [`crate::Runtime::recover`] reports: the error it can fail with
//! and the summary of what it resumed. The replay itself is the
//! `ledger` module's: the WAL prefix goes back through the same `apply`
//! the live coordinator runs.

use std::fmt;

use smartred_desim::journal::JournalParseError;

use crate::report::RuntimeReport;

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The configuration carries no WAL path to recover from.
    NoWal,
    /// Reading or reopening the WAL file failed.
    Io(std::io::Error),
    /// A newline-terminated record is malformed — in-place file
    /// corruption, not a torn crash write (only an *unterminated* final
    /// chunk can be a torn append). The damaged segment is renamed to
    /// `<wal>.quarantined` before this is returned; the error carries the
    /// record's line, byte offset, and — when still sniffable — seq.
    Parse(JournalParseError),
    /// The event stream is internally inconsistent (e.g. a logged wave
    /// the strategy would not reopen, or an event for a decided task).
    Corrupt(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoWal => write!(f, "runtime config has no WAL path"),
            RecoveryError::Io(e) => write!(f, "WAL I/O error: {e}"),
            RecoveryError::Parse(e) => write!(f, "WAL corrupt: {e}"),
            RecoveryError::Corrupt(msg) => write!(f, "WAL replay diverged: {msg}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<JournalParseError> for RecoveryError {
    fn from(e: JournalParseError) -> Self {
        RecoveryError::Parse(e)
    }
}

/// What [`crate::Runtime::recover`] did, for observability and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Whether a torn final record was dropped (and truncated on resume).
    pub torn_tail: bool,
    /// Whole events replayed from the WAL prefix (the suffix only, when
    /// a checkpoint bounded the replay).
    pub events_replayed: usize,
    /// Events restored from the checkpoint snapshot instead of replayed
    /// (0 for a full-WAL replay). Checkpointed recovery keeps
    /// `events_replayed` bounded by the checkpoint interval no matter how
    /// long the run was up.
    pub checkpoint_events: u64,
    /// Open tasks whose redundancy state was rebuilt and resumed.
    pub tasks_resumed: usize,
    /// Tasks already decided in the snapshot + prefix (never re-run or
    /// re-delivered).
    pub tasks_decided: usize,
    /// Roster tasks absent from the WAL, admitted fresh under their
    /// original ids.
    pub tasks_seeded: usize,
    /// In-flight jobs re-armed for dispatch without new journal records.
    pub jobs_rearmed: usize,
    /// The recovered coordinator's starting [`RuntimeReport`] —
    /// snapshot + suffix fold, bit-identical to folding the full
    /// pre-crash history.
    pub report: RuntimeReport,
}
