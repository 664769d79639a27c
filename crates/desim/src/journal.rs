//! Structured run journal: a typed, allocation-light event log of one
//! simulation run.
//!
//! The paper's claims (§4–§5) are about *trajectories* — how many jobs each
//! technique deploys, when waves start, when a verdict fires — not just
//! end-of-run aggregates. A [`Journal`] records every significant state
//! transition of a run as a [`RunEvent`], stamped with the simulated time
//! and a strictly monotone sequence number, so tests can assert behavior
//! (ordering, causality, invariants) rather than only totals.
//!
//! The journal is deliberately simulator-agnostic: the DCA model and the
//! volunteer-computing server share one event vocabulary, which is what
//! makes differential trajectory comparisons between the two codepaths
//! possible.
//!
//! Three serialization-adjacent guarantees back the test harness:
//!
//! * recording is **deterministic**: the same seeded run produces the same
//!   event stream, bit for bit;
//! * [`Journal::digest`] collapses the stream into one 64-bit FNV-1a hash,
//!   so golden tests can pin a whole trajectory in a single constant;
//! * [`Journal::to_jsonl`] / [`Journal::from_jsonl`] round-trip the stream
//!   losslessly for capture, replay, and offline analysis.
//!
//! See the [`mod@assert`] submodule for the trace-assertion DSL built on top.
//!
//! # Examples
//!
//! ```
//! use smartred_desim::journal::{EventKind, Journal, RunEvent};
//! use smartred_desim::time::SimTime;
//!
//! let mut journal = Journal::new();
//! journal.record(SimTime::from_units(0.5), RunEvent::WaveOpened { task: 0, wave: 1, jobs: 3 });
//! journal.record(
//!     SimTime::from_units(0.5),
//!     RunEvent::JobDispatched { job: 0, task: 0, node: 7, eta: SimTime::from_units(1.5) },
//! );
//! assert_eq!(journal.len(), 2);
//! assert_eq!(journal.count(EventKind::JobDispatched), 1);
//! let restored = Journal::from_jsonl(&journal.to_jsonl()).unwrap();
//! assert_eq!(restored.digest(), journal.digest());
//! ```

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
use std::path::Path;

use crate::time::SimTime;

/// 64-bit FNV-1a state. [`Journal::digest`] folds decoded fields through
/// it, [`crc_lanes`] folds the WAL's serialized line bytes, and
/// [`fnv1a_64`] is the byte-serial reference.
#[derive(Clone, Copy)]
struct Fnv(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    const fn step(&mut self, byte: u8) {
        self.0 = (self.0 ^ byte as u64).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.step(b);
        }
    }

    /// Eats the string `run` was built from, in one step.
    #[inline]
    fn take(&mut self, run: &Run) {
        let low = self.0 as u8 as usize;
        self.0 = self.0.wrapping_mul(run.mul).wrapping_add(run.add[low]);
    }

    /// Eats a little-endian integer whose last `zeros` bytes are zero: the
    /// bytes below them one at a time, the zeros in one step.
    #[inline]
    fn eat_le(&mut self, bytes: &[u8], zeros: u32) {
        let zeros = zeros as usize;
        self.eat(&bytes[..bytes.len() - zeros]);
        self.take(&ZERO_RUNS[zeros]);
    }
}

/// FNV-1a over one fixed string, as one multiply and one add. For a state
/// `h` with low byte `l`, `h ^ b = h + ((l ^ b) - l)`, so a step is `h·P`
/// plus a term of `l` alone; and the low byte of a product depends only on
/// the low bytes of its factors, so the low byte after every step is a
/// function of `l` too. Stepping any `h` over a string of `k` bytes
/// therefore gives `h·Pᵏ + add[l]` (wrapping), where `add[l]` is stepping
/// `l` itself, less `l·Pᵏ`.
struct Run {
    /// `Pᵏ`.
    mul: u64,
    add: [u64; 256],
}

impl Run {
    const fn of(bytes: &[u8]) -> Run {
        let mut mul = 1u64;
        let mut i = 0;
        while i < bytes.len() {
            mul = mul.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        let mut add = [0; 256];
        let mut l = 0;
        while l < 256 {
            let mut h = Fnv(l as u64);
            let mut i = 0;
            while i < bytes.len() {
                h.step(bytes[i]);
                i += 1;
            }
            add[l] = h.0.wrapping_sub((l as u64).wrapping_mul(mul));
            l += 1;
        }
        Run { mul, add }
    }
}

/// `ZERO_RUNS[z]` eats `z` zero bytes: the high bytes of a small integer.
static ZERO_RUNS: [Run; 9] = {
    let mut runs = [const { Run::of(&[]) }; 9];
    let mut z = 1;
    while z < runs.len() {
        runs[z] = Run::of([0; 8].split_at(z).0);
        z += 1;
    }
    runs
};

/// 64-bit FNV-1a over raw bytes, one byte at a time: the reference every
/// faster path is tested against, and the snapshot body hash of the
/// runtime's checkpoints.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::new();
    hash.eat(bytes);
    hash.0
}

/// How one field type crosses the journal's three formats — JSON text
/// out, JSON text in, digest bytes. Every [`RunEvent`] field goes through
/// exactly one of these impls, so this is the only code that knows how an
/// integer, a float or a reason name is spelled.
trait Wire: Copy {
    /// Appends the value's JSON spelling, which is ASCII.
    fn encode(self, out: &mut Vec<u8>);
    /// Feeds the value's digest bytes.
    fn digest(self, hash: &mut Fnv);
    /// Consumes exactly what [`encode`](Wire::encode) writes for some
    /// value and returns it; the error completes "field 'key' …".
    fn read(cur: &mut Cursor<'_>) -> Result<Self, &'static str>;
}

/// `"00"`, `"01"`, …, `"99"`: an integer is written two digits at a time.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

impl Wire for u64 {
    fn encode(self, out: &mut Vec<u8>) {
        let mut digits = [0; 20];
        let mut at = digits.len();
        let mut n = self;
        while n >= 10 {
            at -= 2;
            let pair = (n % 100) as usize * 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            n /= 100;
        }
        // The first digit of an odd number of them, or the 0 that is zero.
        if n > 0 || at == digits.len() {
            at -= 1;
            digits[at] = b'0' + n as u8;
        }
        out.extend_from_slice(&digits[at..]);
    }
    fn digest(self, hash: &mut Fnv) {
        hash.eat_le(&self.to_le_bytes(), self.leading_zeros() / 8);
    }
    fn read(cur: &mut Cursor<'_>) -> Result<Self, &'static str> {
        let rest = cur.rest();
        let len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        match rest[..len] {
            [] => return Err("is not an integer"),
            [b'0', _, ..] => return Err("has a leading zero"),
            _ => cur.pos += len,
        }
        rest[..len]
            .iter()
            .try_fold(0u64, |n, b| {
                n.checked_mul(10)?.checked_add(u64::from(b - b'0'))
            })
            .ok_or("exceeds u64")
    }
}

impl Wire for u32 {
    fn encode(self, out: &mut Vec<u8>) {
        u64::from(self).encode(out);
    }
    fn digest(self, hash: &mut Fnv) {
        hash.eat_le(&self.to_le_bytes(), self.leading_zeros() / 8);
    }
    fn read(cur: &mut Cursor<'_>) -> Result<Self, &'static str> {
        u32::try_from(u64::read(cur)?).map_err(|_| "exceeds u32")
    }
}

impl Wire for bool {
    fn encode(self, out: &mut Vec<u8>) {
        out.extend_from_slice(if self { b"true" } else { b"false" });
    }
    fn digest(self, hash: &mut Fnv) {
        hash.step(self as u8);
    }
    fn read(cur: &mut Cursor<'_>) -> Result<Self, &'static str> {
        cur.one_of(&[("true", true), ("false", false)])
            .ok_or("is not a bool")
    }
}

/// Floats are written in Rust's shortest round-trip form and digested by
/// their exact bit pattern.
impl Wire for f64 {
    fn encode(self, out: &mut Vec<u8>) {
        let _ = write!(out, "{self:?}");
    }
    fn digest(self, hash: &mut Fnv) {
        self.to_bits().digest(hash);
    }
    /// `str::parse` admits many spellings of one value (`1`, `1.00`,
    /// `1e0`). Only the encoder's is accepted: the parsed value is written
    /// back through the cursor, which consumes what it is told to write.
    fn read(cur: &mut Cursor<'_>) -> Result<Self, &'static str> {
        let text = &cur.text[cur.pos..];
        let token = text.split([',', '}']).next().unwrap_or(text);
        let x: f64 = token.parse().map_err(|_| "is not a number")?;
        let end = cur.pos + token.len();
        if write!(cur, "{x:?}").is_err() || cur.pos != end {
            return Err("is not in shortest round-trip form");
        }
        Ok(x)
    }
}

/// Times cross the wire as integer microseconds.
impl Wire for SimTime {
    fn encode(self, out: &mut Vec<u8>) {
        self.as_micros().encode(out);
    }
    fn digest(self, hash: &mut Fnv) {
        self.as_micros().digest(hash);
    }
    fn read(cur: &mut Cursor<'_>) -> Result<Self, &'static str> {
        u64::read(cur).map(SimTime::from_micros)
    }
}

/// A read position in one record: the strict positional reader. Each step
/// consumes exactly the bytes the encoder writes at that position or
/// refuses the record — nothing is skipped, reordered or normalised — so a
/// record that reads is, byte for byte, the record its value encodes to.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Consumes `token` if the record continues with it.
    fn eat(&mut self, token: &str) -> bool {
        let hit = self.rest().starts_with(token.as_bytes());
        self.pos += if hit { token.len() } else { 0 };
        hit
    }

    /// Consumes the first of `names` the record continues with.
    fn one_of<T: Copy>(&mut self, names: &[(&str, T)]) -> Option<T> {
        let &(_, value) = names.iter().find(|(name, _)| self.eat(name))?;
        Some(value)
    }

    fn not_canonical(&self, expected: &str) -> String {
        let at = self.pos;
        format!("not in canonical form: expected {expected} at byte {at}")
    }

    /// One field at its wire position: `token` (`,"key":`), then the value.
    fn field<T: Wire>(&mut self, token: &'static str) -> Result<T, String> {
        if !self.eat(token) {
            return Err(self.not_canonical(token));
        }
        T::read(self).map_err(|why| {
            let key = token.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            format!("field '{key}' {why} (at byte {})", self.pos)
        })
    }
}

/// Writing to a cursor consumes the bytes written, or fails.
impl fmt::Write for Cursor<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.eat(s).then_some(()).ok_or(fmt::Error)
    }
}

/// Declares a fieldless enum whose variants cross the wire as fixed
/// snake_case names: a JSON string in the text, the name's bytes in the
/// digest. Each name is written once, next to its variant.
macro_rules! wire_names {
    (
        $(#[$meta:meta])*
        $Enum:ident {
            $($(#[$vmeta:meta])* $Variant:ident = $name:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $Enum {
            $($(#[$vmeta])* $Variant,)*
        }

        impl $Enum {
            #[cfg(test)]
            const ALL: &[$Enum] = &[$($Enum::$Variant,)*];

            fn name(self) -> &'static str {
                match self {
                    $($Enum::$Variant => $name,)*
                }
            }

            /// The step that digests the name.
            fn run(self) -> &'static Run {
                static RUNS: &[Run] = &[$(Run::of($name.as_bytes()),)*];
                &RUNS[self as usize]
            }
        }

        impl Wire for $Enum {
            fn encode(self, out: &mut Vec<u8>) {
                out.push(b'"');
                out.extend_from_slice(self.name().as_bytes());
                out.push(b'"');
            }
            fn digest(self, hash: &mut Fnv) {
                hash.take(self.run());
            }
            fn read(cur: &mut Cursor<'_>) -> Result<Self, &'static str> {
                cur.one_of(&[$((concat!("\"", $name, "\""), $Enum::$Variant),)*])
                    .ok_or(concat!("is not a ", stringify!($Enum)))
            }
        }
    };
}

wire_names! {
    /// Why a node left the scheduler's reach.
    DepartureReason {
        /// The volunteer left of its own accord (churn).
        Churn = "churn",
        /// A fault-plan crash removed the node.
        Crash = "crash",
        /// The server's discipline permanently blacklisted the node.
        Blacklist = "blacklist",
    }
}

wire_names! {
    /// Which class of scheduled fault-plan event was injected.
    FaultKind {
        /// A node crash.
        Crash = "crash",
        /// A hang window on one node.
        Hang = "hang",
        /// A straggler (slowdown) window on one node.
        Straggler = "straggler",
        /// A collusion burst across a pool fraction.
        Collusion = "collusion",
        /// A network blackout silencing every node.
        Blackout = "blackout",
        /// An adaptive cartel formed: colluding nodes coordinate per-task lies
        /// at a throttled rate and go dormant when a member is caught.
        Cartel = "cartel",
    }
}

/// A field's JSON key: its Rust name unless the table row overrides it
/// (`field = "key": type`).
macro_rules! json_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// `Some(field)` for the first of a variant's fields named `task` (resp.
/// `node`), else `None`. The field list is passed twice and walked in
/// lockstep: the first copy is matched against the literal name, the
/// second yields the caller's own binding of it.
macro_rules! named_field {
    ($name:tt; [] []) => {
        None
    };
    (task; [task $($n:tt)*] [$hit:ident $($b:tt)*]) => {
        Some($hit)
    };
    (node; [node $($n:tt)*] [$hit:ident $($b:tt)*]) => {
        Some($hit)
    };
    ($name:tt; [$skip_n:tt $($n:tt)*] [$skip_b:tt $($b:tt)*]) => {
        named_field!($name; [$($n)*] [$($b)*])
    };
}

/// The journal schema. Each row declares one [`RunEvent`] variant — Rust
/// name, wire name, and its fields in wire order as `name: type` (or
/// `name = "json_key": type` where the key differs) — and everything that
/// depends on the field list is generated from it: the enum, [`EventKind`]
/// with its names and [`EventKind::ALL`], `kind()`/`task()`/`node()`, and
/// the per-variant halves of the JSONL encoder, the positional reader and
/// the digest.
/// Field types must implement [`Wire`]. Doc comments pass through to the
/// generated items.
macro_rules! run_events {
    ($(
        $(#[$vmeta:meta])*
        $Variant:ident = $wire:literal $({
            $($(#[$fmeta:meta])* $field:ident $(= $key:literal)? : $ty:ty,)*
        })?
    )*) => {
        /// One structured event in a run's trajectory.
        ///
        /// Identifiers are the simulators' stable dense indices: `task` is the task
        /// (or workunit) index, `node` the node (or host) index, `job` the
        /// dispatch-order job index.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum RunEvent {
            $($(#[$vmeta])* $Variant $({ $($(#[$fmeta])* $field: $ty,)* })?,)*
        }

        /// Fieldless discriminant of [`RunEvent`], for filtering and counting.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum EventKind {
            $(#[doc = concat!("See [`RunEvent::", stringify!($Variant), "`].")] $Variant,)*
        }

        impl EventKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [EventKind] = &[$(EventKind::$Variant,)*];

            /// The kind's stable snake_case name, used in JSONL and digests.
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$Variant => $wire,)*
                }
            }

            /// The step that digests the kind's name.
            fn run(self) -> &'static Run {
                static RUNS: &[Run] = &[$(Run::of($wire.as_bytes()),)*];
                &RUNS[self as usize]
            }
        }

        impl RunEvent {
            /// The event's discriminant.
            pub fn kind(&self) -> EventKind {
                match self {
                    $(RunEvent::$Variant { .. } => EventKind::$Variant,)*
                }
            }

            /// The task the event concerns, if any.
            #[allow(unused_variables)]
            pub fn task(&self) -> Option<u32> {
                match *self {
                    $(RunEvent::$Variant $({ $($field,)* })? => {
                        named_field!(task; [$($($field)*)?] [$($($field)*)?])
                    })*
                }
            }

            /// The node the event concerns, if any.
            #[allow(unused_variables)]
            pub fn node(&self) -> Option<u32> {
                match *self {
                    $(RunEvent::$Variant $({ $($field,)* })? => {
                        named_field!(node; [$($($field)*)?] [$($($field)*)?])
                    })*
                }
            }

            /// Appends `,"kind":"name"`, then `,"key":value` for each
            /// field in wire order.
            fn encode(&self, out: &mut Vec<u8>) {
                match *self {
                    $(RunEvent::$Variant $({ $($field,)* })? => {
                        out.extend_from_slice(concat!(",\"kind\":\"", $wire, "\"").as_bytes());
                        $($(
                            out.extend_from_slice(concat!(",\"", json_key!($field $($key)?), "\":").as_bytes());
                            $field.encode(out);
                        )*)?
                    })*
                }
            }

            /// Feeds the kind's name, then each field's digest bytes in
            /// wire order.
            fn digest(&self, hash: &mut Fnv) {
                match *self {
                    $(RunEvent::$Variant $({ $($field,)* })? => {
                        hash.take(EventKind::$Variant.run());
                        $($($field.digest(hash);)*)?
                    })*
                }
            }

            /// Reads `,"kind":"name"`, then each of that variant's fields
            /// at its wire position.
            fn read(cur: &mut Cursor<'_>) -> Result<Self, String> {
                $(if cur.eat(concat!(",\"kind\":\"", $wire, "\"")) {
                    return Ok(RunEvent::$Variant $({
                        $($field: cur.field(concat!(",\"", json_key!($field $($key)?), "\":"))?,)*
                    })?);
                })*
                Err(cur.not_canonical("the kind of a known event"))
            }
        }
    };
}

run_events! {
    /// A job was handed to a node. `eta` is the time at which the server
    /// will hear back: the job's completion time, or the timeout/deadline
    /// if the node hangs — so `eta - now` is the node-busy reservation.
    JobDispatched = "job_dispatched" {
        /// Dispatch-order job index.
        job: u32,
        /// Task the job belongs to.
        task: u32,
        /// Node executing the job.
        node: u32,
        /// Scheduled resolution time.
        eta: SimTime,
    }
    /// A job returned a result before the timeout.
    JobReturned = "job_returned" {
        /// Dispatch-order job index.
        job: u32,
        /// Task the job belongs to.
        task: u32,
        /// Node that executed the job.
        node: u32,
        /// The returned vote (in the DCA model `true` = correct value).
        value: bool,
    }
    /// A job missed the server timeout/deadline (hang, blackout, outage,
    /// straggler overrun, or mid-job node departure).
    JobTimedOut = "job_timed_out" {
        /// Dispatch-order job index.
        job: u32,
        /// Task the job belongs to.
        task: u32,
        /// Node that held the job.
        node: u32,
    }
    /// A timed-out job was hidden from the vote and scheduled for a
    /// backoff-delayed re-deployment (`attempt` is 1-based).
    JobRetried = "job_retried" {
        /// Task being retried.
        task: u32,
        /// Retry attempt number, starting at 1.
        attempt: u32,
    }
    /// A task's strategy opened deployment wave `wave` of `jobs` jobs.
    WaveOpened = "wave_opened" {
        /// Task index.
        task: u32,
        /// Wave number, starting at 1.
        wave: u32,
        /// Jobs deployed in this wave.
        jobs: u32,
    }
    /// Every job of the task's current wave has resolved (result, timeout,
    /// or abandonment); the strategy decides next.
    WaveClosed = "wave_closed" {
        /// Task index.
        task: u32,
        /// Wave number that just drained.
        wave: u32,
    }
    /// A vote landed in the task's tally.
    VoteTallied = "vote_tallied" {
        /// Task index.
        task: u32,
        /// The vote just recorded.
        value: bool,
        /// Votes for the current leader after this vote.
        leader_count = "leader": u32,
        /// Votes for the runner-up after this vote.
        runner_up: u32,
    }
    /// The discipline layer pulled a node from the scheduler for a while.
    NodeQuarantined = "node_quarantined" {
        /// Node index.
        node: u32,
    }
    /// A quarantined node rejoined the scheduler.
    NodeReleased = "node_released" {
        /// Node index.
        node: u32,
    }
    /// A node joined the pool mid-run (churn arrival).
    NodeJoined = "node_joined" {
        /// Node index.
        node: u32,
    }
    /// A node left the pool (or the scheduler, permanently).
    NodeDeparted = "node_departed" {
        /// Node index.
        node: u32,
        /// Why it left.
        reason: DepartureReason,
    }
    /// A regional outage started.
    OutageStarted = "outage_started" {
        /// Region index.
        region: u32,
    }
    /// A scheduled fault-plan event was injected.
    FaultInjected = "fault_injected" {
        /// Which fault class fired.
        kind = "fault": FaultKind,
    }
    /// A task reached a verdict. Firm verdicts carry confidence `1.0`;
    /// degraded verdicts (vote leader accepted at the job cap or at pool
    /// starvation) carry their Bayesian confidence `q(r, a, b)`.
    VerdictReached = "verdict_reached" {
        /// Task index.
        task: u32,
        /// The accepted value.
        value: bool,
        /// Whether the verdict was accepted degraded.
        degraded: bool,
        /// Confidence in the verdict.
        confidence: f64,
    }
    /// A task hit its job cap with no verdict (and no degraded acceptance).
    TaskCapped = "task_capped" {
        /// Task index.
        task: u32,
    }
    /// A worker thread died (panicked) while executing a job — live-runtime
    /// supervision vocabulary.
    WorkerCrashed = "worker_crashed" {
        /// Worker (node) index whose thread crashed.
        node: u32,
        /// The job it was executing.
        job: u32,
        /// Task the job belongs to.
        task: u32,
    }
    /// Supervision brought a crashed or hung worker back into service with
    /// a fresh executor.
    WorkerRestarted = "worker_restarted" {
        /// Worker (node) index restarted.
        node: u32,
        /// Restart count for this worker slot, starting at 1.
        incarnation: u32,
    }
    /// A task was quarantined as *poison* after repeatedly killing the
    /// workers executing it (distinct from node-level strikes).
    TaskPoisoned = "task_poisoned" {
        /// Task index.
        task: u32,
        /// Worker crashes the task caused before quarantine.
        crashes: u32,
    }
    /// A reply from a superseded replica epoch arrived and was discarded
    /// instead of being tallied (late answer after reissue or worker
    /// replacement).
    StaleReplyDropped = "stale_reply_dropped" {
        /// The job whose stale reply was dropped.
        job: u32,
        /// Task the job belongs to.
        task: u32,
        /// The task's current epoch that outranked the reply.
        epoch: u32,
    }
    /// A task's replica epoch advanced: outstanding replicas issued before
    /// this point are invalidated and any late replies from them will be
    /// rejected.
    EpochAdvanced = "epoch_advanced" {
        /// Task index.
        task: u32,
        /// The new epoch.
        epoch: u32,
    }
    /// A straggling job outlived the online latency-quantile threshold and
    /// a hedge twin was launched: a duplicate of the same logical replica
    /// on another worker. The first copy to report supplies the replica's
    /// vote; hedge twins never touch the wave accounting or the job cap.
    HedgeLaunched = "hedge_launched" {
        /// The hedge twin's own job index.
        job: u32,
        /// Task the hedged replica belongs to.
        task: u32,
        /// The straggling job the twin duplicates.
        origin: u32,
        /// The task's replica epoch at launch; a check armed before an
        /// epoch bump must not fire after it.
        epoch: u32,
    }
    /// A hedge twin beat its straggling origin: the twin's result supplied
    /// the replica's vote (journalled as the origin job's return) and the
    /// origin was discarded.
    HedgeWon = "hedge_won" {
        /// The winning hedge twin's job index.
        job: u32,
        /// Task the hedged replica belongs to.
        task: u32,
    }
    /// A hedge twin's work was discarded: its origin reported first (or
    /// the twin timed out), so the duplicate bought nothing this time.
    HedgeWasted = "hedge_wasted" {
        /// The wasted hedge twin's job index.
        job: u32,
        /// Task the hedged replica belongs to.
        task: u32,
    }
    /// The coordinator scheduled a local recomputation (audit) of a task's
    /// payload, to cross-check every result recorded for it so far.
    AuditScheduled = "audit_scheduled" {
        /// Task index being audited.
        task: u32,
    }
    /// An audit recomputed the task and every checked result matched.
    AuditPassed = "audit_passed" {
        /// Task index that was audited.
        task: u32,
    }
    /// An audit caught one node's result contradicting the local
    /// recomputation; the node is charged high-weight strikes.
    AuditFailed = "audit_failed" {
        /// Task index that was audited.
        task: u32,
        /// Node whose result the recomputation contradicted.
        node: u32,
    }
    /// An audit voided a tainted verdict before acceptance: the task's
    /// tally is discarded and the task re-executes from wave 1.
    VerdictVoided = "verdict_voided" {
        /// Task index whose would-be verdict was voided.
        task: u32,
    }
    /// An open task touched by a caught liar had its tally discarded and
    /// restarted from wave 1 (in-flight replies become stale).
    TaskRetallied = "task_retallied" {
        /// Task index whose tally was reset.
        task: u32,
    }
    /// A job's input payload started moving across the network to its
    /// node. The replica may not begin service until the transfer
    /// completes; `eta` is the deterministic completion time charged by
    /// the network model (latency + bytes / bandwidth).
    TransferStarted = "transfer_started" {
        /// Transfer index, dense in start order.
        xfer: u32,
        /// The job whose input is being moved.
        job: u32,
        /// Task the job belongs to.
        task: u32,
        /// Destination node.
        node: u32,
        /// Payload size being moved.
        bytes: u64,
        /// Scheduled transfer-completion time.
        eta: SimTime,
    }
    /// A payload transfer finished; the job's service may begin.
    TransferCompleted = "transfer_completed" {
        /// Transfer index (matches its [`RunEvent::TransferStarted`]).
        xfer: u32,
        /// The job whose input arrived.
        job: u32,
        /// Task the job belongs to.
        task: u32,
        /// Destination node.
        node: u32,
    }
    /// Every task of DAG stage `stage` reached its decision; the verdict
    /// gates dispatch of dependent stages. `correct`/`wrong` count the
    /// stage's *effective* outputs: a task's output is wrong when its own
    /// accepted value is wrong or any upstream input was poisoned.
    StageDecided = "stage_decided" {
        /// Stage index in the DAG spec.
        stage: u32,
        /// Tasks whose effective output is correct.
        correct: u32,
        /// Tasks whose effective output is wrong.
        wrong: u32,
    }
    /// A wrong accepted intermediate poisoned a downstream task: the
    /// descendant computes on bad data, so its output is wrong no matter
    /// how its own replicas vote.
    PoisonPropagated = "poison_propagated" {
        /// The downstream (poisoned) task.
        task: u32,
        /// Stage of the downstream task.
        stage: u32,
        /// The upstream task whose wrong accepted output caused it.
        from: u32,
    }
    /// A durable coordinator snapshot was taken at a quiescent point: the
    /// first `events` records of the run are now summarized by an
    /// on-disk checkpoint and the WAL was truncated, so this record seals
    /// the start of a fresh segment. Its own `seq` equals `events` —
    /// recovery uses that to pair segment and snapshot.
    CheckpointTaken = "checkpoint_taken" {
        /// Events covered by the snapshot (= this record's seq).
        events: u64,
        /// FNV-1a digest of the serialized snapshot, cross-checked
        /// against the snapshot file at recovery.
        digest: u64,
    }
    /// The run is over; the event's timestamp is the run's makespan.
    RunEnded = "run_ended"
}

/// One journal entry: an event stamped with its simulated time and a
/// strictly monotone sequence number (total order even within one instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamped {
    /// Simulated time at which the event occurred.
    pub at: SimTime,
    /// Recording sequence number, strictly increasing across the journal.
    pub seq: u64,
    /// The event.
    pub event: RunEvent,
}

impl Stamped {
    /// Serializes this entry as one JSONL object (no trailing newline) —
    /// the exact line format [`Journal::to_jsonl`] emits and
    /// [`Journal::from_jsonl`] parses, and the line [`WalWriter`] encodes
    /// into its commit buffer.
    pub fn to_jsonl_line(&self) -> String {
        // Room for the longest line plus a checksum trailer and newline.
        let mut line = Vec::with_capacity(192);
        self.encode(&mut line);
        ascii(line)
    }

    /// Appends this entry's canonical line (no newline) to `out`.
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_open(out);
        out.push(b'}');
    }

    /// Appends this entry's canonical line without its closing brace.
    fn encode_open(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"at\":");
        self.at.encode(out);
        out.extend_from_slice(b",\"seq\":");
        self.seq.encode(out);
        self.event.encode(out);
    }

    /// Serializes this entry with a trailing per-record checksum field:
    /// the canonical [`to_jsonl_line`](Self::to_jsonl_line) form with
    /// `,"crc":"<16 hex>"` spliced in before the closing brace, where the
    /// checksum is the FNV-1a hash of the canonical line's bytes. The
    /// result is still one flat JSON object, so checksummed and legacy
    /// records interleave freely in one WAL;
    /// [`from_jsonl_line`](Self::from_jsonl_line) verifies and strips the field.
    pub fn to_jsonl_line_checksummed(&self) -> String {
        let mut line = Vec::with_capacity(192);
        let span = self.encode_unsealed(&mut line);
        seal(&mut line, &[span]);
        ascii(line)
    }

    /// Appends this entry's checksummed line (no newline) with the
    /// checksum's digits blank, and returns the span [`seal`] fills them
    /// from.
    fn encode_unsealed(&self, out: &mut Vec<u8>) -> Span {
        let start = out.len();
        self.encode_open(out);
        let trailer = out.len();
        out.extend_from_slice(CRC_TRAILER);
        Span { start, trailer }
    }

    /// Reads one entry back from its [`to_jsonl_line`](Self::to_jsonl_line)
    /// or [`to_jsonl_line_checksummed`](Self::to_jsonl_line_checksummed)
    /// form. The error is a bare message; callers attach line numbers.
    ///
    /// The reader is *strict*: it accepts exactly the bytes one of those
    /// two functions writes for some entry — fields in wire order, bare
    /// digits, no whitespace, nothing after the closing brace — so a record
    /// that reads re-encodes to the line it came from, and a mutation that
    /// leaves valid JSON behind (a damaged key, a re-ordered field) is
    /// never accepted as a different valid event. A checksummed record's
    /// trailer is verified first, so damage to its content is reported as
    /// a checksum mismatch. Nothing allocates unless the line is refused.
    pub fn from_jsonl_line(line: &str) -> Result<Self, String> {
        let mut bodies: [&[u8]; LANES] = [&[]; LANES];
        bodies[0] = crc_body(line.as_bytes()).unwrap_or_default();
        Self::read_hashed(line, crc_lanes(bodies)[0])
    }

    /// [`from_jsonl_line`](Self::from_jsonl_line) with the checksum of
    /// the line's [`crc_body`] already taken; a plain line ignores `crc`.
    fn read_hashed(line: &str, crc: u64) -> Result<Self, String> {
        let (text, close) = match crc_body(line.as_bytes()) {
            Some(body) => {
                let trailer = &line.as_bytes()[body.len()..];
                if *trailer != crc_trailer(crc) {
                    return Err(refuse_trailer(trailer, crc));
                }
                (&line[..body.len()], "")
            }
            None => (line, "}"),
        };
        let mut cur = Cursor { text, pos: 0 };
        let at = cur.field("{\"at\":")?;
        let seq = cur.field(",\"seq\":")?;
        let event = RunEvent::read(&mut cur)?;
        match cur.rest() {
            rest if rest == close.as_bytes() => Ok(Stamped { at, seq, event }),
            // A trailer whose length put it out of place.
            rest if rest.starts_with(CRC_TAG) => Err(MALFORMED_TRAILER.into()),
            _ => Err(cur.not_canonical("the record to close")),
        }
    }
}

/// Whether `line` begins with a whole record — a plain one through its
/// closing brace, or a checksummed one through its trailer — and goes on
/// past it. A torn append is a strict prefix of one line, so it holds a
/// whole record only as the whole line: an unterminated final line of
/// this shape is an acknowledged record whose newline rotted.
fn record_and_more(line: &str) -> bool {
    let mut cur = Cursor { text: line, pos: 0 };
    let read = cur.field::<SimTime>("{\"at\":").is_ok()
        && cur.field::<u64>(",\"seq\":").is_ok()
        && RunEvent::read(&mut cur).is_ok();
    let rest = cur.rest();
    let close = match rest {
        [b'}', ..] => 1,
        _ if rest.starts_with(CRC_TAG) => CRC_TRAILER.len(),
        _ => usize::MAX,
    };
    read && close < rest.len()
}

/// What closes a checksummed record, with its hash's sixteen digits blank.
const CRC_TRAILER: &[u8; 26] = b",\"crc\":\"0000000000000000\"}";
const CRC_HEX: std::ops::Range<usize> = 8..24;
const CRC_TAG: &[u8] = CRC_TRAILER.split_at(CRC_HEX.start).0;
const MALFORMED_TRAILER: &str = "malformed checksum trailer";

/// The trailer that states `crc`, in lowercase hex.
fn crc_trailer(crc: u64) -> [u8; 26] {
    let mut trailer = *CRC_TRAILER;
    for (i, digit) in trailer[CRC_HEX].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(crc >> (60 - 4 * i)) as usize & 0xf];
    }
    trailer
}

/// Where one checksummed record lies in a buffer: its canonical line
/// without the closing brace at `start..trailer`, then [`CRC_TRAILER`]
/// with the digits still blank. Each span keeps its own trailer offset,
/// because the plain records that may sit between two spans end in `}`
/// alone.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    trailer: usize,
}

/// Records [`crc_lanes`] hashes in lockstep.
const LANES: usize = 4;

/// The checksum of each checksummed record in `bodies`: the FNV-1a hash
/// of its canonical line, the bytes before the trailer plus `}`. One
/// FNV-1a chain is a multiply after every byte, each waiting on the last,
/// so a core that runs one chain idles most of its multiplier. Records
/// are therefore taken [`LANES`] at a time, and their chains step
/// together over the length of the shortest; each then finishes its own
/// tail. A group of fewer than `LANES` has an empty lane, so it is hashed
/// one record after another, which is how a lone record is hashed. The
/// writer ([`seal`]), the reader ([`walk`]) and the one-record functions
/// all hash through here.
fn crc_lanes(bodies: [&[u8]; LANES]) -> [u64; LANES] {
    let common = bodies.iter().map(|body| body.len()).min().unwrap_or(0);
    let heads = bodies.map(|body| &body[..common]);
    let mut hashes = [Fnv::new(); LANES];
    for i in 0..common {
        for (hash, head) in hashes.iter_mut().zip(&heads) {
            hash.step(head[i]);
        }
    }
    for (hash, body) in hashes.iter_mut().zip(&bodies) {
        hash.eat(&body[common..]);
        hash.eat(b"}");
    }
    hashes.map(|hash| hash.0)
}

/// The body a line's checksum covers, the bytes before its trailer, if
/// the line ends in one. The trailer has one length: a line without the
/// tag at that distance from its end is a plain record.
fn crc_body(line: &[u8]) -> Option<&[u8]> {
    let at = line.len().checked_sub(CRC_TRAILER.len())?;
    line[at..].starts_with(CRC_TAG).then(|| &line[..at])
}

/// Writes each span's checksum into its trailer, [`LANES`] spans at a
/// time.
fn seal(buf: &mut [u8], spans: &[Span]) {
    for group in spans.chunks(LANES) {
        let mut bodies: [&[u8]; LANES] = [&[]; LANES];
        for (body, span) in bodies.iter_mut().zip(group) {
            *body = &buf[span.start..span.trailer];
        }
        let hashes = crc_lanes(bodies);
        for (hash, span) in hashes.iter().zip(group) {
            buf[span.trailer..span.trailer + CRC_TRAILER.len()]
                .copy_from_slice(&crc_trailer(*hash));
        }
    }
}

/// The encoder's bytes as text: every byte it writes is ASCII.
fn ascii(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the encoder writes ASCII")
}

/// Why `found` is not `crc_trailer(actual)`: its shape (an upper-case
/// digit is a flipped bit like any other), else the value it states.
fn refuse_trailer(found: &[u8], actual: u64) -> String {
    let stated = &found[CRC_HEX];
    let lowercase_hex = |b: &u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    if found[CRC_HEX.end..] != CRC_TRAILER[CRC_HEX.end..] || !stated.iter().all(lowercase_hex) {
        return MALFORMED_TRAILER.into();
    }
    let stated = String::from_utf8_lossy(stated);
    format!("checksum mismatch: record states {stated} but content hashes to {actual:016x}")
}

/// Best-effort extraction of the `"seq"` field from a raw (possibly
/// corrupt) WAL line, so parse errors can name the damaged record even
/// when it no longer parses as a whole.
fn sniff_seq(line: &str) -> Option<u64> {
    let text = &line[line.find("\"seq\":")? + 6..];
    u64::read(&mut Cursor { text, pos: 0 }).ok()
}

/// Error returned by [`Journal::from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Byte offset of the start of the offending line within the input.
    pub offset: usize,
    /// The damaged record's sequence number, when it could still be
    /// sniffed out of the corrupt line.
    pub seq: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal line {} at byte {}", self.line, self.offset)?;
        if let Some(seq) = self.seq {
            write!(f, " (record seq {seq})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for JournalParseError {}

/// An append-only, deterministic event journal of one run.
///
/// A disabled journal ([`Journal::disabled`]) drops every record without
/// allocating, so always-on emission sites cost one predictable branch when
/// journaling is off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    enabled: bool,
    events: Vec<Stamped>,
    next_seq: u64,
}

impl Journal {
    /// Creates an enabled, empty journal.
    pub fn new() -> Self {
        Self {
            enabled: true,
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates a journal that silently discards every record.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an enabled, empty journal whose next recorded event gets
    /// sequence number `next_seq` — the resume point after a checkpoint
    /// truncated the history the sequence numbers continue from.
    pub fn resume_at(next_seq: u64) -> Self {
        Self {
            enabled: true,
            events: Vec::new(),
            next_seq,
        }
    }

    /// The sequence number the next recorded event will get. Since
    /// sequence numbers are dense, this is also the total number of events
    /// ever recorded into this stream — including any prefix compacted
    /// away by a checkpoint (see [`Journal::resume_at`]).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one event at simulated time `at`. No-op when disabled.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if events are recorded out of time order —
    /// simulation clocks are monotone, so that is a bug at the emission
    /// site.
    pub fn record(&mut self, at: SimTime, event: RunEvent) {
        if !self.enabled {
            return;
        }
        debug_assert!(
            self.events.last().map(|e| e.at <= at).unwrap_or(true),
            "journal recorded out of time order at {at}"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Stamped { at, seq, event });
    }

    /// Keeps the first `len` entries and drops the rest, as a crash at that
    /// record boundary leaves the stream. [`next_seq`](Self::next_seq)
    /// follows, so sequence numbers stay dense: a record made next gets
    /// the seq right after the last one kept. A no-op when the journal
    /// holds no more than `len` entries.
    pub fn truncate(&mut self, len: usize) {
        let cut = self.events.len().saturating_sub(len);
        self.events.truncate(len);
        self.next_seq -= cut as u64;
    }

    /// All entries, in recording (= time) order.
    pub fn events(&self) -> &[Stamped] {
        &self.events
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Entries concerning one task, in order.
    pub fn for_task(&self, task: u32) -> impl Iterator<Item = &Stamped> + '_ {
        self.events
            .iter()
            .filter(move |e| e.event.task() == Some(task))
    }

    /// Entries concerning one node, in order.
    pub fn for_node(&self, node: u32) -> impl Iterator<Item = &Stamped> + '_ {
        self.events
            .iter()
            .filter(move |e| e.event.node() == Some(node))
    }

    /// Entries of one kind, in order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &Stamped> + '_ {
        self.events.iter().filter(move |e| e.event.kind() == kind)
    }

    /// Number of entries of one kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.of_kind(kind).count()
    }

    /// The contiguous window of entries with `t0 <= at <= t1` (binary
    /// search; the journal is time-ordered by construction).
    pub fn between(&self, t0: SimTime, t1: SimTime) -> &[Stamped] {
        let lo = self.events.partition_point(|e| e.at < t0);
        let hi = self.events.partition_point(|e| e.at <= t1);
        &self.events[lo..hi.max(lo)]
    }

    /// One task's full timeline: every entry concerning it, in order.
    pub fn task_timeline(&self, task: u32) -> Vec<&Stamped> {
        self.for_task(task).collect()
    }

    /// 64-bit FNV-1a digest of the entire event stream.
    ///
    /// The digest covers timestamps, sequence numbers, event kinds, and
    /// every field (floats by their exact bit pattern), so *any* change to
    /// the trajectory — reordering, a shifted timestamp, a different vote —
    /// changes the digest. Golden tests pin a run to one `u64`.
    ///
    /// The value is byte-serial FNV-1a over, per entry, `at` (in
    /// microseconds) and `seq` as little-endian `u64`s, the kind's name,
    /// then each field in wire order: integers little-endian, floats by
    /// their bits, bools as one byte, reason and fault names as their
    /// bytes. Only the stepping is faster: a name, or the zero bytes above
    /// an integer's highest nonzero byte, is taken in one multiply and one
    /// table lookup rather than one step a byte.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv::new();
        for e in &self.events {
            e.at.digest(&mut hash);
            e.seq.digest(&mut hash);
            e.event.digest(&mut hash);
        }
        hash.0
    }

    /// The digest as a fixed-width hex string, convenient for golden tests.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Serializes the journal as JSON Lines: one event object per line,
    /// fixed key order, byte-deterministic. Floats use Rust's shortest
    /// round-trip formatting, so [`Journal::from_jsonl`] restores them
    /// bit-exactly.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::with_capacity(self.events.len() * 64);
        for e in &self.events {
            e.encode(&mut out);
            out.push(b'\n');
        }
        ascii(out)
    }

    /// Parses a journal back from its [`Journal::to_jsonl`] form.
    ///
    /// # Errors
    ///
    /// Returns [`JournalParseError`] naming the first malformed line, or
    /// the first record that breaks time order or the dense-`seq` contract
    /// (see [`Journal::from_jsonl_prefix`]).
    pub fn from_jsonl(text: &str) -> Result<Self, JournalParseError> {
        read_text(text, false).map(|prefix| prefix.journal)
    }

    /// Reads a journal from possibly crash-truncated WAL bytes.
    ///
    /// A writer that dies mid-append leaves a *torn tail*: a final chunk
    /// with no trailing newline that is a prefix of one record's line
    /// (whether or not the truncated bytes still parse). Such a tail is
    /// dropped and reported via [`WalPrefix::torn`]; `valid_bytes` is the
    /// length of the longest whole-record prefix, so a recovering writer
    /// can truncate the file there and resume appending.
    ///
    /// Text longer than one block (1 MiB) is read a block per core at a
    /// time; the result is the same for every block length and thread
    /// count, shorter text never leaves the calling thread, and
    /// [`Journal::read_wal`] is this function over a file.
    ///
    /// # Errors
    ///
    /// A malformed record on any *newline-terminated* line — including the
    /// final one — is in-place corruption of a fully-written record, not a
    /// torn write (each append writes `record + '\n'` in one call, so a
    /// partial append can never include the newline). So is a final line
    /// that holds a whole record and more bytes after it: a partial append
    /// is a strict prefix of one line, so those bytes are the record's
    /// newline, rotted. Either fails with [`JournalParseError`], carrying
    /// the line's number and byte offset and, when it can still be sniffed
    /// from the damaged bytes, the record's seq.
    ///
    /// So does a record that parses but does not continue the stream: one
    /// stamped earlier than its predecessor, or whose `seq` is not the
    /// predecessor's plus one. Sequence numbers are dense within a segment
    /// (the first record is free — [`Journal::resume_at`] starts a segment
    /// anywhere), so a whole line duplicated or lost in the file is refused
    /// rather than double-counted or skipped by recovery.
    pub fn from_jsonl_prefix(text: &str) -> Result<WalPrefix, JournalParseError> {
        read_text(text, true)
    }

    /// Reads a WAL file as [`Journal::from_jsonl_prefix`] reads its text,
    /// without ever holding the file: `min(threads, blocks)` threads each
    /// read every `threads`-th 1 MiB block into a buffer of their own,
    /// verify and decode the lines that start in it, and hand the events
    /// over in block order. A file of one block, or `threads <= 1`, is
    /// read on the calling thread. Within a block, four lines' checksums
    /// are computed at a time, as the writer computes them, and the lines
    /// are then read one after another, so the first bad line is the one
    /// refused.
    ///
    /// A block is checked with `str::from_utf8`. Bytes that are not UTF-8
    /// are read as `String::from_utf8_lossy` shows them, so a bit flip
    /// that breaks an encoding is refused like any other — a parse error
    /// with line, offset and seq — rather than failing the read.
    ///
    /// # Errors
    ///
    /// The outer error is the file system's; the inner one is
    /// [`Journal::from_jsonl_prefix`]'s, with `offset` a file offset.
    pub fn read_wal(
        path: &Path,
        threads: usize,
    ) -> io::Result<Result<WalPrefix, JournalParseError>> {
        let len = usize::try_from(std::fs::metadata(path)?.len())
            .map_err(|_| io::Error::other("WAL is larger than the address space"))?;
        read_blocks(len, BLOCK_LEN, threads, true, || FileBlocks::open(path))
    }

    /// Deterministically merges per-shard event streams into one journal.
    ///
    /// A sharded runtime records one journal (and WAL segment) per
    /// coordinator shard. This merge reconstructs the global stream:
    /// events are ordered by `(at, shard index, seq)` — time first, then
    /// the owning shard as the tiebreak, then the shard's own sequence —
    /// and re-sequenced `0..n`. The order is a pure function of the input
    /// streams, so two merges of the same segments are byte-identical, and
    /// replaying the merged stream (e.g. through a report fold) is
    /// reproducible. Merging a single journal re-sequences but otherwise
    /// returns it unchanged.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any input stream is internally out of
    /// time order (each shard's journal is monotone by construction).
    pub fn merge_sharded(parts: &[Journal]) -> Journal {
        let mut keyed: Vec<(SimTime, usize, u64, &Stamped)> = Vec::new();
        for (shard, part) in parts.iter().enumerate() {
            debug_assert!(
                part.events.windows(2).all(|w| w[0].at <= w[1].at),
                "shard {shard} journal is out of time order"
            );
            for e in &part.events {
                keyed.push((e.at, shard, e.seq, e));
            }
        }
        keyed.sort_by_key(|&(at, shard, seq, _)| (at, shard, seq));
        let mut merged = Journal::new();
        for (i, (_, _, _, e)) in keyed.into_iter().enumerate() {
            merged.events.push(Stamped {
                at: e.at,
                seq: i as u64,
                event: e.event,
            });
        }
        merged.next_seq = merged.events.len() as u64;
        merged
    }
}

/// Result of [`Journal::from_jsonl_prefix`]: the longest whole-record
/// prefix of a write-ahead log, plus what was left behind.
#[derive(Debug)]
pub struct WalPrefix {
    /// Events recovered from the intact prefix.
    pub journal: Journal,
    /// True when a torn final record — an unterminated prefix of one
    /// record's line — was dropped.
    pub torn: bool,
    /// Byte length of the intact prefix; truncate the file here before
    /// resuming appends.
    pub valid_bytes: usize,
}

/// Bytes per block of the reader. The input is cut every `BLOCK_LEN`
/// bytes and a block owns the lines that *start* in it, so blocks are read,
/// verified and decoded independently and their events joined in order.
const BLOCK_LEN: usize = 1 << 20;

/// How far at a time a reader looks past its block for the newline that
/// ends the block's last line. Few records are longer.
const READ_ON: usize = 512;

/// Why `next` cannot directly follow `prev` in one stream, if it cannot:
/// the check between two lines of a block and across the seam of two.
fn breaks_stream(prev: &Stamped, next: &Stamped) -> Option<String> {
    if next.at < prev.at {
        return Some(format!(
            "events out of time order: {} after {}",
            next.at, prev.at
        ));
    }
    if prev.seq.checked_add(1) != Some(next.seq) {
        return Some(format!(
            "sequence break: seq {} follows seq {} (a record was duplicated or lost)",
            next.seq, prev.seq
        ));
    }
    None
}

/// What the line walk made of one block's text. Lines and offsets count
/// from the block's first byte; [`Stitcher::append`] rebases them.
struct Block {
    /// The records read before the walk ended.
    events: Vec<Stamped>,
    /// Lines walked, blank ones included.
    lines: usize,
    /// Bytes of text the block owns.
    len: usize,
    /// Bytes up to the end of the last newline-terminated line walked.
    valid: usize,
    /// An unterminated final line was dropped as a torn append.
    torn: bool,
    /// Line and offset of the first record, for a refusal at the seam.
    first: (usize, usize),
    /// The refusal that ended the walk early. Its line parsed no record,
    /// or one that does not follow the block's previous record.
    refused: Option<JournalParseError>,
}

/// The line walk behind every reader: one pass over `text`, which begins
/// at the start of a line. The readers differ only in what an
/// unterminated final line means: a torn append to drop
/// (`drop_torn_tail`), or an ordinary last line.
///
/// Lines are taken [`LANES`] at a time and their checksums computed
/// together by [`crc_lanes`]; then each line of the group is read in
/// order as if alone. So the first refusal in line order is the one
/// reported, and a line hashed after it changes nothing.
fn walk(text: &str, drop_torn_tail: bool) -> Block {
    let mut block = Block {
        // Few records are shorter than 64 bytes: sized once from the
        // input, the event vector rarely has to grow and copy mid-read.
        events: Vec::with_capacity(text.len() / 64),
        lines: 0,
        len: text.len(),
        valid: 0,
        torn: false,
        first: (0, 0),
        refused: None,
    };
    // Where the first line not yet in a group starts.
    let mut ahead = 0usize;
    while ahead < text.len() {
        // The next `n` lines, `LANES` but at the end, as (offset, line).
        let mut group = [(0, ""); LANES];
        let mut n = 0;
        while n < LANES && ahead < text.len() {
            let rest = &text[ahead..];
            let line = rest.find('\n').map_or(rest, |nl| &rest[..nl]);
            group[n] = (ahead, line);
            ahead += line.len() + 1;
            n += 1;
        }
        let crcs = crc_lanes(group.map(|(_, line)| crc_body(line.as_bytes()).unwrap_or_default()));
        for (&(offset, line), crc) in group[..n].iter().zip(crcs) {
            block.lines += 1;
            let end = offset + line.len();
            let terminated = end < text.len();
            if !line.trim().is_empty() {
                if drop_torn_tail && !terminated && !record_and_more(line) {
                    // The newline never hit the disk, so the record was
                    // never acknowledged — and may be incomplete even if
                    // it parses (a truncated integer still does). Only
                    // whole lines count.
                    block.torn = true;
                    return block;
                }
                // A terminated line was fully written in one append, and
                // so was an unterminated one that holds a whole record and
                // more: a parse or checksum failure is in-place corruption
                // of an acknowledged record — refuse, never resume past it.
                let refusal = match Stamped::read_hashed(line, crc) {
                    Err(message) => Some((sniff_seq(line), message)),
                    Ok(next) => {
                        let prev = block.events.last();
                        let broken = prev.and_then(|prev| breaks_stream(prev, &next));
                        if broken.is_none() {
                            if prev.is_none() {
                                block.first = (block.lines, offset);
                            }
                            block.events.push(next);
                        }
                        broken.map(|message| (Some(next.seq), message))
                    }
                };
                if let Some((seq, message)) = refusal {
                    block.refused = Some(JournalParseError {
                        line: block.lines,
                        offset,
                        seq,
                        message,
                    });
                    return block;
                }
            }
            if terminated {
                block.valid = end + 1;
            }
        }
    }
    block
}

/// Joins walked blocks, in input order, into the one result a walk of
/// the whole input returns.
struct Stitcher {
    prefix: WalPrefix,
    /// Lines and bytes of the blocks appended so far.
    lines: usize,
    offset: usize,
}

impl Stitcher {
    /// A stitcher whose event vector has room for `events` records.
    fn with_capacity(events: usize) -> Self {
        let mut journal = Journal::new();
        journal.events.reserve_exact(events);
        Stitcher {
            prefix: WalPrefix {
                journal,
                torn: false,
                valid_bytes: 0,
            },
            lines: 0,
            offset: 0,
        }
    }

    /// Appends the next block: its first record must continue the stream
    /// across the seam, and a refusal inside it is the input's first, now
    /// that every block before it has been appended whole.
    fn append(&mut self, block: Block) -> Result<(), JournalParseError> {
        let journal = &mut self.prefix.journal;
        let at_seam = match (journal.events.last(), block.events.first()) {
            (Some(prev), Some(next)) => breaks_stream(prev, next).map(|message| {
                let (line, offset) = block.first;
                JournalParseError {
                    line,
                    offset,
                    seq: Some(next.seq),
                    message,
                }
            }),
            _ => None,
        };
        if let Some(mut refusal) = at_seam.or(block.refused) {
            refusal.line += self.lines;
            refusal.offset += self.offset;
            return Err(refusal);
        }
        if journal.events.capacity() == 0 {
            // The only block of a small input: its vector is the journal's.
            journal.events = block.events;
        } else {
            journal.events.extend_from_slice(&block.events);
        }
        if let Some(last) = journal.events.last() {
            journal.next_seq = last.seq.saturating_add(1);
        }
        if block.valid > 0 {
            self.prefix.valid_bytes = self.offset + block.valid;
        }
        self.prefix.torn |= block.torn;
        self.lines += block.lines;
        self.offset += block.len;
        Ok(())
    }

    /// Appends blocks `0..blocks` as `block` produces them, up to the
    /// first that is refused or cannot be read.
    fn join(
        mut self,
        blocks: usize,
        block: &mut dyn FnMut(usize) -> io::Result<Block>,
    ) -> io::Result<Result<WalPrefix, JournalParseError>> {
        for k in 0..blocks {
            if let Err(refusal) = self.append(block(k)?) {
                return Ok(Err(refusal));
            }
        }
        Ok(Ok(self.prefix))
    }
}

/// The input a block reader cuts up, addressed by byte offset: a `&str`
/// already in memory or a file read a block at a time.
trait Blocks {
    /// The bytes in `range`, which lies within the input.
    fn bytes(&mut self, range: Range<usize>) -> io::Result<&[u8]>;
    /// `range` as text: whole lines, within the bytes fetched since the
    /// last call to `bytes` that did not start where the one before ended.
    fn text(&self, range: Range<usize>) -> Cow<'_, str>;
}

impl Blocks for &str {
    fn bytes(&mut self, range: Range<usize>) -> io::Result<&[u8]> {
        Ok(&self.as_bytes()[range])
    }
    fn text(&self, range: Range<usize>) -> Cow<'_, str> {
        Cow::Borrowed(&self[range])
    }
}

/// One reader's handle on a WAL file and the buffer it reads blocks into.
struct FileBlocks {
    file: std::fs::File,
    /// The bytes at file offsets `at..at + buf.len()`.
    buf: Vec<u8>,
    at: usize,
}

impl FileBlocks {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(FileBlocks {
            file: std::fs::File::open(path)?,
            buf: Vec::new(),
            at: 0,
        })
    }
}

impl Blocks for FileBlocks {
    fn bytes(&mut self, range: Range<usize>) -> io::Result<&[u8]> {
        if range.start != self.at + self.buf.len() {
            self.buf.clear();
            self.at = range.start;
            self.file.seek(SeekFrom::Start(range.start as u64))?;
        }
        let held = self.buf.len();
        self.buf.resize(held + range.len(), 0);
        self.file.read_exact(&mut self.buf[held..])?;
        Ok(&self.buf[held..])
    }
    /// A block that is not UTF-8 is shown as `String::from_utf8_lossy`
    /// shows the whole file: newlines are ASCII, so cutting at them never
    /// splits a sequence. Its first changed line is refused or is the torn
    /// tail, so that the text's offsets then differ from the file's is
    /// never seen. A block that is UTF-8, which lossy decoding would
    /// borrow unchanged, is checked by `str::from_utf8`, which is faster.
    fn text(&self, range: Range<usize>) -> Cow<'_, str> {
        let bytes = &self.buf[range.start - self.at..range.end - self.at];
        match std::str::from_utf8(bytes) {
            Ok(text) => Cow::Borrowed(text),
            Err(_) => String::from_utf8_lossy(bytes),
        }
    }
}

/// The lines of `source` that start in `block`, as a byte range: from the
/// first byte that follows a newline (or opens the input) to the end of
/// the line the block's last byte is in, which may lie blocks further on.
/// Empty when no line starts here.
fn lines_starting_in(
    source: &mut impl Blocks,
    len: usize,
    block: Range<usize>,
) -> io::Result<Range<usize>> {
    if block.is_empty() {
        return Ok(block);
    }
    // The byte before the block says whether the block opens a line.
    let look = block.start.saturating_sub(1);
    let head = source.bytes(look..block.end)?;
    let start = match block.start {
        0 => 0,
        _ => match head.iter().position(|&b| b == b'\n') {
            Some(nl) => look + nl + 1,
            None => block.end,
        },
    };
    let mut end = block.end;
    let mut terminated = start == end || head.last() == Some(&b'\n');
    while !terminated && end < len {
        let more = source.bytes(end..len.min(end + READ_ON))?;
        let nl = more.iter().position(|&b| b == b'\n');
        terminated = nl.is_some();
        end += nl.map_or(more.len(), |nl| nl + 1);
    }
    Ok(start..end)
}

/// [`Journal::from_jsonl`] and [`Journal::from_jsonl_prefix`]: text of one
/// block is walked where it stands, longer text on every core.
fn read_text(text: &str, drop_torn_tail: bool) -> Result<WalPrefix, JournalParseError> {
    let threads = match text.len() > BLOCK_LEN {
        true => std::thread::available_parallelism().map_or(1, |n| n.get()),
        false => 1,
    };
    read_blocks(text.len(), BLOCK_LEN, threads, drop_torn_tail, || Ok(text))
        .expect("text in memory has no I/O to fail")
}

/// The one reader. The `len` bytes that `open` gives a handle on are cut
/// every `block_len`; `min(threads, blocks)` readers each take every
/// `threads`-th block, find the lines that start in it, walk them and hand
/// the result over through a channel of their own, which holds one block:
/// the stitcher takes blocks in input order as they arrive, so a reader
/// is never more than two blocks ahead of it and the input is never held
/// whole. One reader reads on the calling thread.
///
/// The result does not depend on `block_len` or `threads`: it is what
/// [`walk`] returns for the whole input as one block.
fn read_blocks<B: Blocks>(
    len: usize,
    block_len: usize,
    threads: usize,
    drop_torn_tail: bool,
    open: impl Fn() -> io::Result<B> + Sync,
) -> io::Result<Result<WalPrefix, JournalParseError>> {
    let blocks = len.div_ceil(block_len).max(1);
    let read = |source: &mut B, k: usize| -> io::Result<Block> {
        let block = k * block_len..len.min((k + 1) * block_len);
        let lines = lines_starting_in(source, len, block)?;
        // An empty range is not at a line boundary, so it is not text.
        let text = match lines.is_empty() {
            true => Cow::Borrowed(""),
            false => source.text(lines),
        };
        Ok(walk(&text, drop_torn_tail))
    };
    // One block's vector becomes the journal's; more are copied into one
    // sized, like a block's, from the input's length.
    let stitcher = Stitcher::with_capacity(if blocks > 1 { len / 64 } else { 0 });
    let readers = threads.min(blocks);
    if readers <= 1 {
        let mut source = open()?;
        return stitcher.join(blocks, &mut |k| read(&mut source, k));
    }
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..readers)
            .map(|lane| {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                let (open, read) = (&open, &read);
                scope.spawn(move || {
                    let run = || -> io::Result<()> {
                        let mut source = open()?;
                        for k in (lane..blocks).step_by(readers) {
                            // The stitcher hangs up at the first refusal.
                            if tx.send(Ok(read(&mut source, k)?)).is_err() {
                                break;
                            }
                        }
                        Ok(())
                    };
                    if let Err(e) = run() {
                        let _ = tx.send(Err(e));
                    }
                });
                rx
            })
            .collect();
        let sent = "a reader sends every block it owns";
        stitcher.join(blocks, &mut |k| lanes[k % readers].recv().expect(sent))
    })
}

/// Durable appender for the JSONL write-ahead log: a commit buffer over a
/// [`Disk`](crate::disk::Disk).
///
/// [`append`](WalWriter::append) encodes one complete `record + '\n'`
/// into a buffer the writer owns and reuses; bytes reach the disk in a
/// single `write_all` only when
///
/// 1. a sync falls due — syncing is on and [`with_batch`](WalWriter::with_batch)
///    records have accumulated since the last `fdatasync` (write, then
///    sync);
/// 2. the caller calls [`commit`](WalWriter::commit) (write, then sync if
///    syncing is on and anything is unsynced); or
/// 3. the buffer reaches 64 KiB (write only), which bounds the writer's
///    memory however far apart the barriers are.
///
/// The buffer only ever holds whole records, so every write starts and
/// ends on a record boundary and the file stays byte-identical to
/// [`Journal::to_jsonl`] of the records written so far (or its
/// checksummed equivalent under [`with_checksums`](WalWriter::with_checksums)).
/// Dropping the writer discards whatever is still buffered, exactly as a
/// process kill would.
///
/// ## When checksums are computed
///
/// Not at `append`: a checksummed record is buffered with its trailer's
/// sixteen digits blank. Each of the three write-outs above first fills
/// them in, hashing the buffered records four at a time as independent
/// FNV-1a chains that step together, and then writes. The hashing is the
/// same work, but a write-out that holds many records keeps four chains
/// going at once instead of one. The bytes contract does not change: no
/// digit reaches the disk blank, and every record is written exactly as
/// [`Stamped::to_jsonl_line_checksummed`] encodes it, which seals its one
/// record through the same routine.
///
/// ## Durability
///
/// The write-ahead contract belongs to the caller's barriers, not to
/// `append`: a record is in the file once a `commit` after it has
/// returned, and on stable storage if syncing is on. With `sync = true`
/// and the default batch of 1 every append is its own barrier (one write
/// plus one `fdatasync` per record); with a batch of `n` the write and
/// the sync are paid once per `n` records, and callers with an ordering
/// constraint ("this event must be durable before its side effect") call
/// `commit` first. What a crash can take is bounded by the
/// last barrier: a process kill loses the buffered records, power loss
/// additionally loses written-but-unsynced ones and may tear the last
/// write anywhere inside its batch — which [`Journal::from_jsonl_prefix`]
/// reads back as a whole-record prefix plus one torn record.
///
/// ## Poisoning
///
/// Any I/O error — a failed write, flush, or `fdatasync` — permanently
/// poisons the writer: every later [`append`](WalWriter::append),
/// [`commit`](WalWriter::commit), or [`truncate`](WalWriter::truncate)
/// fails fast with the original error's message, and nothing still in the
/// buffer is ever written. A failed fsync in particular leaves the kernel
/// free to have *dropped* the dirty pages (the fsyncgate failure class),
/// so retrying the sync and continuing would silently lose acknowledged
/// records; the only safe recovery is to reread the file through
/// [`Journal::from_jsonl_prefix`].
#[derive(Debug)]
pub struct WalWriter {
    disk: Box<dyn crate::disk::Disk>,
    sync: bool,
    /// Records per fdatasync under group commit; 1 = sync every append.
    batch: u64,
    /// Records appended since the last sync.
    pending: u64,
    /// Write per-record checksums (see [`Stamped::to_jsonl_line_checksummed`]).
    checksum: bool,
    /// Whole encoded records not yet handed to the disk.
    buf: Vec<u8>,
    /// The checksummed records in `buf`, in order, their digits blank
    /// until the write-out seals them.
    unsealed: Vec<Span>,
    /// The first I/O error message, once anything failed.
    poisoned: Option<String>,
}

/// Buffered bytes at which [`WalWriter::append`] writes the buffer out
/// without waiting for a barrier.
const WAL_BUFFER_CAP: usize = 64 * 1024;

impl WalWriter {
    fn over(disk: Box<dyn crate::disk::Disk>, sync: bool) -> Self {
        WalWriter {
            disk,
            sync,
            batch: 1,
            pending: 0,
            checksum: false,
            buf: Vec::new(),
            unsealed: Vec::new(),
            poisoned: None,
        }
    }

    /// Creates (or truncates) the WAL at `path`.
    pub fn create(path: &std::path::Path, sync: bool) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(Self::over(Box::new(crate::disk::RealDisk::new(file)), sync))
    }

    /// Creates a writer over an arbitrary [`Disk`](crate::disk::Disk) —
    /// the seam through which tests put the log on a
    /// [`FaultyDisk`](crate::disk::FaultyDisk) in memory.
    pub fn with_disk(disk: Box<dyn crate::disk::Disk>, sync: bool) -> Self {
        Self::over(disk, sync)
    }

    /// Reopens an existing WAL for appending after recovery, truncating a
    /// torn tail: `valid_bytes` is the intact prefix length reported by
    /// [`Journal::from_jsonl_prefix`].
    pub fn resume(path: &std::path::Path, valid_bytes: u64, sync: bool) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        let mut writer = Self::over(Box::new(crate::disk::RealDisk::new(file)), sync);
        writer.disk.set_len(valid_bytes)?;
        writer.disk.seek_end()?;
        Ok(writer)
    }

    /// Sets the group-commit batch: with syncing on, write and `fdatasync`
    /// once every `every` appends (clamped to at least 1) instead of on
    /// every one. See the type docs for the durability trade-off.
    pub fn with_batch(mut self, every: u64) -> Self {
        self.batch = every.max(1);
        self
    }

    /// Enables (or disables) per-record checksums on appended lines.
    /// Checksummed and legacy records may interleave in one file; readers
    /// verify whatever framing each line carries.
    pub fn with_checksums(mut self, on: bool) -> Self {
        self.checksum = on;
        self
    }

    fn guard(&self) -> std::io::Result<()> {
        match &self.poisoned {
            Some(original) => Err(std::io::Error::other(format!(
                "WAL writer poisoned by earlier I/O error: {original}"
            ))),
            None => Ok(()),
        }
    }

    fn poisoning<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(err) = &result {
            self.poisoned = Some(err.to_string());
        }
        result
    }

    /// Appends one record to the commit buffer, and writes the buffer out
    /// when a sync falls due or the buffer is full (see the type docs).
    /// Returning `Ok` does not mean the record is in the file — that is
    /// what [`commit`](WalWriter::commit) is for.
    ///
    /// # Errors
    ///
    /// Fails on the underlying I/O error, after which the writer is
    /// permanently poisoned — see the type docs.
    pub fn append(&mut self, entry: &Stamped) -> std::io::Result<()> {
        self.guard()?;
        if self.checksum {
            let span = entry.encode_unsealed(&mut self.buf);
            self.unsealed.push(span);
        } else {
            entry.encode(&mut self.buf);
        }
        self.buf.push(b'\n');
        self.pending += 1;
        if self.sync && self.pending >= self.batch {
            self.commit()
        } else if self.buf.len() >= WAL_BUFFER_CAP {
            self.write_out()
        } else {
            Ok(())
        }
    }

    /// Seals the buffered records and hands them to the disk in one write.
    fn write_out(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        seal(&mut self.buf, &self.unsealed);
        self.unsealed.clear();
        let result = self
            .disk
            .write_all(&self.buf)
            .and_then(|()| self.disk.flush());
        self.buf.clear();
        self.poisoning(result)
    }

    /// The barrier: writes the buffer out and, with syncing on, forces
    /// every record appended since the last sync to stable storage. A
    /// no-op when nothing was appended since the last commit.
    ///
    /// # Errors
    ///
    /// Fails on the underlying I/O error, after which the writer is
    /// permanently poisoned — see the type docs.
    pub fn commit(&mut self) -> std::io::Result<()> {
        self.guard()?;
        self.write_out()?;
        if self.sync && self.pending > 0 {
            let result = self.disk.sync_data();
            self.poisoning(result)?;
        }
        self.pending = 0;
        Ok(())
    }

    /// Truncates the log to zero length — the compaction step after a
    /// checkpoint snapshot has been durably written elsewhere. Commits
    /// first, so records appended before the call land in the old segment
    /// rather than at the head of the fresh one. The next append starts a
    /// fresh segment.
    ///
    /// # Errors
    ///
    /// Fails on the underlying I/O error, after which the writer is
    /// permanently poisoned — see the type docs.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.commit()?;
        let result = match self.disk.set_len(0) {
            Ok(()) => self.disk.seek_end().map(|_| ()),
            Err(err) => Err(err),
        };
        self.poisoning(result)
    }
}

pub mod assert {
    //! Trace-assertion DSL: behavioral checks over any [`Stamped`] event
    //! stream — a [`Journal`] from the simulators or a slice captured from
    //! the live runtime (`smartred-runtime`). The assertions only look at
    //! event *structure* and ordering, never at absolute timestamps, so
    //! they hold identically for sim-time and wall-clock sources.
    //!
    //! Every method panics with a descriptive message on violation, so the
    //! DSL composes directly with `#[test]` functions — a failed trajectory
    //! assertion names the offending event.
    //!
    //! # Examples
    //!
    //! ```
    //! use smartred_desim::journal::{EventKind, Journal, RunEvent};
    //! use smartred_desim::journal::assert::that;
    //! use smartred_desim::time::SimTime;
    //!
    //! let mut j = Journal::new();
    //! let t = SimTime::from_units(1.0);
    //! j.record(t, RunEvent::JobTimedOut { job: 0, task: 3, node: 1 });
    //! j.record(t, RunEvent::JobRetried { task: 3, attempt: 1 });
    //! that(&j)
    //!     .time_ordered()
    //!     .retry_follows_timeout()
    //!     .count(EventKind::JobRetried)
    //!     .exactly(1);
    //! ```

    use super::{EventKind, Journal, RunEvent, Stamped};

    /// Entry point: wraps a journal for chained assertions.
    pub fn that(journal: &Journal) -> TraceAssert<'_> {
        events(journal.events())
    }

    /// Entry point for a raw stamped-event slice — the same assertions
    /// against any event source (e.g. the live runtime's journal export).
    pub fn events(events: &[Stamped]) -> TraceAssert<'_> {
        TraceAssert { events }
    }

    /// Chainable assertion context over one stamped event stream.
    #[derive(Debug, Clone, Copy)]
    pub struct TraceAssert<'a> {
        events: &'a [Stamped],
    }

    impl<'a> TraceAssert<'a> {
        /// The underlying event stream.
        pub fn events(&self) -> &'a [Stamped] {
            self.events
        }

        /// Asserts timestamps are non-decreasing and sequence numbers
        /// strictly increasing.
        pub fn time_ordered(&self) -> &Self {
            for pair in self.events.windows(2) {
                assert!(
                    pair[0].at <= pair[1].at,
                    "journal out of time order: seq {} at {} precedes seq {} at {}",
                    pair[0].seq,
                    pair[0].at,
                    pair[1].seq,
                    pair[1].at
                );
                assert!(
                    pair[0].seq < pair[1].seq,
                    "journal sequence not strictly increasing at seq {}",
                    pair[1].seq
                );
            }
            self
        }

        /// Starts a count assertion for one event kind.
        pub fn count(&self, kind: EventKind) -> CountAssert<'a> {
            CountAssert {
                parent: *self,
                kind,
                n: self
                    .events
                    .iter()
                    .filter(|e| e.event.kind() == kind)
                    .count(),
            }
        }

        /// Asserts no event matches `pred`. `desc` names the forbidden
        /// behavior in the panic message.
        pub fn never<F>(&self, desc: &str, pred: F) -> &Self
        where
            F: Fn(&Stamped) -> bool,
        {
            if let Some(e) = self.events.iter().find(|e| pred(e)) {
                panic!(
                    "forbidden event ({desc}): seq {} at {} — {:?}",
                    e.seq, e.at, e.event
                );
            }
            self
        }

        /// Asserts every event matching `trigger` has a *later or
        /// simultaneous* event `e2` (greater sequence number) for which
        /// `response(trigger_event, e2)` holds — the generic
        /// "B eventually follows A" causality check.
        pub fn each_followed_by<T, R>(&self, desc: &str, trigger: T, response: R) -> &Self
        where
            T: Fn(&Stamped) -> bool,
            R: Fn(&Stamped, &Stamped) -> bool,
        {
            let events = self.events;
            for (i, e) in events.iter().enumerate() {
                if trigger(e) && !events[i + 1..].iter().any(|later| response(e, later)) {
                    panic!(
                        "unanswered event ({desc}): seq {} at {} — {:?} has no follow-up",
                        e.seq, e.at, e.event
                    );
                }
            }
            self
        }

        /// Asserts every event matching `effect` has an *earlier or
        /// simultaneous* event `e0` (smaller sequence number) for which
        /// `cause(e0, effect_event)` holds — "A precedes B" causality.
        pub fn each_preceded_by<E, C>(&self, desc: &str, effect: E, cause: C) -> &Self
        where
            E: Fn(&Stamped) -> bool,
            C: Fn(&Stamped, &Stamped) -> bool,
        {
            let events = self.events;
            for (i, e) in events.iter().enumerate() {
                if effect(e) && !events[..i].iter().any(|earlier| cause(earlier, e)) {
                    panic!(
                        "uncaused event ({desc}): seq {} at {} — {:?} has no preceding cause",
                        e.seq, e.at, e.event
                    );
                }
            }
            self
        }

        /// Built-in invariant: every [`RunEvent::JobRetried`] is preceded by
        /// a [`RunEvent::JobTimedOut`] of the same task.
        pub fn retry_follows_timeout(&self) -> &Self {
            self.each_preceded_by(
                "retry follows timeout",
                |e| matches!(e.event, RunEvent::JobRetried { .. }),
                |earlier, retry| match (earlier.event, retry.event) {
                    (RunEvent::JobTimedOut { task, .. }, RunEvent::JobRetried { task: rt, .. }) => {
                        task == rt
                    }
                    _ => false,
                },
            )
        }

        /// Built-in invariant: no job is dispatched to a node that is
        /// currently quarantined. Walks the stream maintaining the
        /// quarantine set (quarantine opens it; release or permanent
        /// departure closes it).
        pub fn no_dispatch_to_quarantined(&self) -> &Self {
            let mut quarantined = std::collections::HashSet::new();
            for e in self.events {
                match e.event {
                    RunEvent::NodeQuarantined { node } => {
                        quarantined.insert(node);
                    }
                    RunEvent::NodeReleased { node } | RunEvent::NodeDeparted { node, .. } => {
                        quarantined.remove(&node);
                    }
                    RunEvent::JobDispatched { node, task, .. } => {
                        assert!(
                            !quarantined.contains(&node),
                            "job for task {task} dispatched to quarantined node {node} \
                             at {} (seq {})",
                            e.at,
                            e.seq
                        );
                    }
                    _ => {}
                }
            }
            self
        }

        /// Built-in invariant: per task, wave numbers open in order 1, 2, …
        /// and a wave closes only after it opened.
        pub fn waves_well_formed(&self) -> &Self {
            use std::collections::HashMap;
            let mut opened: HashMap<u32, u32> = HashMap::new();
            for e in self.events {
                match e.event {
                    RunEvent::WaveOpened { task, wave, .. } => {
                        let prev = opened.insert(task, wave).unwrap_or(0);
                        assert!(
                            wave == prev + 1,
                            "task {task} opened wave {wave} after wave {prev} at {}",
                            e.at
                        );
                    }
                    RunEvent::WaveClosed { task, wave } => {
                        let cur = opened.get(&task).copied().unwrap_or(0);
                        assert!(
                            wave <= cur,
                            "task {task} closed wave {wave} which never opened (last {cur})"
                        );
                    }
                    _ => {}
                }
            }
            self
        }

        /// Built-in invariant: every firm (non-degraded)
        /// [`RunEvent::VerdictReached`] is preceded by at least `quorum`
        /// [`RunEvent::VoteTallied`] events for the same task carrying the
        /// accepted value. For traditional redundancy `quorum` is the vote
        /// threshold ⌈k/2⌉; for iterative redundancy it is the margin `d`
        /// (the winner leads by `d`, so it holds at least `d` votes).
        pub fn verdicts_have_quorum(&self, quorum: usize) -> &Self {
            for (i, e) in self.events.iter().enumerate() {
                if let RunEvent::VerdictReached {
                    task,
                    value,
                    degraded: false,
                    ..
                } = e.event
                {
                    let votes = self.events[..i]
                        .iter()
                        .filter(|v| {
                            matches!(
                                v.event,
                                RunEvent::VoteTallied { task: vt, value: vv, .. }
                                    if vt == task && vv == value
                            )
                        })
                        .count();
                    assert!(
                        votes >= quorum,
                        "task {task} reached firm verdict {value} at {} (seq {}) \
                         with only {votes} matching votes tallied, quorum {quorum}",
                        e.at,
                        e.seq
                    );
                }
            }
            self
        }
    }

    /// Pending count assertion for one event kind.
    #[derive(Debug, Clone, Copy)]
    pub struct CountAssert<'a> {
        parent: TraceAssert<'a>,
        kind: EventKind,
        n: usize,
    }

    impl<'a> CountAssert<'a> {
        /// Asserts the count equals `expected`.
        pub fn exactly(&self, expected: usize) -> TraceAssert<'a> {
            assert!(
                self.n == expected,
                "expected exactly {expected} {} events, found {}",
                self.kind.name(),
                self.n
            );
            self.parent
        }

        /// Asserts the count is at least `min`.
        pub fn at_least(&self, min: usize) -> TraceAssert<'a> {
            assert!(
                self.n >= min,
                "expected at least {min} {} events, found {}",
                self.kind.name(),
                self.n
            );
            self.parent
        }

        /// Asserts the count is at most `max`.
        pub fn at_most(&self, max: usize) -> TraceAssert<'a> {
            assert!(
                self.n <= max,
                "expected at most {max} {} events, found {}",
                self.kind.name(),
                self.n
            );
            self.parent
        }

        /// The raw count, for ad-hoc arithmetic.
        pub fn get(&self) -> usize {
            self.n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(units: f64) -> SimTime {
        SimTime::from_units(units)
    }

    fn sample_journal() -> Journal {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            RunEvent::WaveOpened {
                task: 0,
                wave: 1,
                jobs: 3,
            },
        );
        j.record(
            t(0.0),
            RunEvent::JobDispatched {
                job: 0,
                task: 0,
                node: 2,
                eta: t(1.0),
            },
        );
        j.record(
            t(1.0),
            RunEvent::JobReturned {
                job: 0,
                task: 0,
                node: 2,
                value: true,
            },
        );
        j.record(
            t(1.0),
            RunEvent::VoteTallied {
                task: 0,
                value: true,
                leader_count: 1,
                runner_up: 0,
            },
        );
        j.record(
            t(2.0),
            RunEvent::JobTimedOut {
                job: 1,
                task: 0,
                node: 3,
            },
        );
        j.record(
            t(2.0),
            RunEvent::JobRetried {
                task: 0,
                attempt: 1,
            },
        );
        j.record(t(3.0), RunEvent::NodeQuarantined { node: 3 });
        j.record(t(4.0), RunEvent::NodeReleased { node: 3 });
        j.record(
            t(5.0),
            RunEvent::VerdictReached {
                task: 0,
                value: true,
                degraded: false,
                confidence: 1.0,
            },
        );
        j.record(t(5.0), RunEvent::RunEnded);
        j
    }

    #[test]
    fn queries_filter_and_window() {
        let j = sample_journal();
        assert_eq!(j.len(), 10);
        assert_eq!(j.for_task(0).count(), 7);
        assert_eq!(j.for_node(3).count(), 3);
        assert_eq!(j.count(EventKind::JobRetried), 1);
        assert_eq!(j.between(t(1.0), t(2.0)).len(), 4);
        assert_eq!(j.between(t(9.0), t(10.0)).len(), 0);
        assert_eq!(j.task_timeline(0).len(), 7);
        assert_eq!(j.task_timeline(5).len(), 0);
    }

    #[test]
    fn jsonl_round_trips_losslessly() {
        let j = sample_journal();
        let text = j.to_jsonl();
        let restored = Journal::from_jsonl(&text).unwrap();
        assert_eq!(restored.events(), j.events());
        assert_eq!(restored.digest(), j.digest());
        assert_eq!(restored.to_jsonl(), text);
    }

    #[test]
    fn a_truncated_journal_is_a_prefix_with_dense_seqs() {
        let mut resumed = Journal::resume_at(7);
        for e in sample_journal().events() {
            resumed.record(e.at, e.event);
        }
        for whole in [sample_journal(), resumed] {
            let first = whole.events()[0].seq;
            for len in [0, 1, 4, whole.len(), whole.len() + 3] {
                let mut cut = whole.clone();
                cut.truncate(len);
                let kept = len.min(whole.len());
                assert_eq!(cut.events(), &whole.events()[..kept]);
                assert!(whole.to_jsonl().starts_with(&cut.to_jsonl()));
                assert_eq!(cut.next_seq(), first + kept as u64);
                cut.record(t(9.0), RunEvent::RunEnded);
                assert_eq!(cut.events()[kept].seq, first + kept as u64);
            }
        }
    }

    #[test]
    fn merge_of_one_shard_is_the_identity() {
        let j = sample_journal();
        let merged = Journal::merge_sharded(std::slice::from_ref(&j));
        assert_eq!(merged.events(), j.events());
        assert_eq!(merged.digest(), j.digest());
    }

    #[test]
    fn merge_orders_by_time_then_shard_then_seq_and_resequences() {
        let mut a = Journal::new();
        a.record(
            t(0.0),
            RunEvent::WaveOpened {
                task: 0,
                wave: 1,
                jobs: 1,
            },
        );
        a.record(t(2.0), RunEvent::TaskCapped { task: 0 });
        let mut b = Journal::new();
        b.record(
            t(0.0),
            RunEvent::WaveOpened {
                task: 1,
                wave: 1,
                jobs: 1,
            },
        );
        b.record(t(1.0), RunEvent::TaskCapped { task: 1 });
        let merged = Journal::merge_sharded(&[a.clone(), b.clone()]);
        let tasks: Vec<Option<u32>> = merged.events().iter().map(|e| e.event.task()).collect();
        // t=0: shard 0 before shard 1; then b's t=1 before a's t=2.
        assert_eq!(tasks, vec![Some(0), Some(1), Some(1), Some(0)]);
        let seqs: Vec<u64> = merged.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // Determinism: merging again gives byte-identical output.
        assert_eq!(
            merged.to_jsonl(),
            Journal::merge_sharded(&[a, b]).to_jsonl()
        );
    }

    #[test]
    fn merge_is_time_ordered_for_interleaved_shards() {
        let mut shards = Vec::new();
        for s in 0..4u64 {
            let mut j = Journal::new();
            for i in 0..10u64 {
                j.record(
                    t((i * 3 + s) as f64),
                    RunEvent::WaveOpened {
                        task: (s * 100 + i) as u32,
                        wave: 1,
                        jobs: 1,
                    },
                );
            }
            shards.push(j);
        }
        let merged = Journal::merge_sharded(&shards);
        assert_eq!(merged.len(), 40);
        assert!(merged.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(merged
            .events()
            .iter()
            .enumerate()
            .all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn batched_wal_writes_whole_batches_and_commit_flushes_the_tail() {
        let path = std::env::temp_dir().join(format!(
            "smartred-journal-batch-{}.wal.jsonl",
            std::process::id()
        ));
        let j = sample_journal();
        let mut wal = WalWriter::create(&path, true).unwrap().with_batch(4);
        for e in j.events() {
            wal.append(e).unwrap();
        }
        // Ten appends at batch 4: two whole batches are in the file, the
        // two-record tail is still in the buffer.
        let text = j.to_jsonl();
        let two_batches: usize = text.lines().take(8).map(|l| l.len() + 1).sum();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text[..two_batches]);
        wal.commit().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        wal.commit().unwrap(); // idempotent with nothing pending
        let restored = Journal::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(restored.events(), j.events());
        let _ = std::fs::remove_file(&path);
    }

    /// What a [`DiskLog`] saw, in call order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum DiskOp {
        Write(usize),
        Sync,
        SetLen(u64),
    }

    /// A [`Disk`](crate::disk::Disk) that is a `Vec` and remembers every
    /// call; clones share the state, so the test keeps one while the
    /// writer owns the other.
    #[derive(Debug, Default, Clone)]
    struct DiskLog(std::sync::Arc<std::sync::Mutex<(Vec<u8>, Vec<DiskOp>)>>);

    impl DiskLog {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().0.clone()
        }
        fn ops(&self) -> Vec<DiskOp> {
            self.0.lock().unwrap().1.clone()
        }
        fn writer(&self, sync: bool) -> WalWriter {
            WalWriter::with_disk(Box::new(self.clone()), sync)
        }
    }

    impl crate::disk::Disk for DiskLog {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            let mut state = self.0.lock().unwrap();
            state.0.extend_from_slice(buf);
            state.1.push(DiskOp::Write(buf.len()));
            Ok(())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.0.lock().unwrap().1.push(DiskOp::Sync);
            Ok(())
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            let mut state = self.0.lock().unwrap();
            state.0.truncate(len as usize);
            state.1.push(DiskOp::SetLen(len));
            Ok(())
        }
        fn seek_end(&mut self) -> std::io::Result<u64> {
            Ok(self.0.lock().unwrap().0.len() as u64)
        }
    }

    #[test]
    fn wal_commit_is_one_write_however_many_appends() {
        let j = sample_journal();
        let text = j.to_jsonl();

        // Flush-only: nothing reaches the disk until the barrier, then
        // everything does in one call.
        let disk = DiskLog::default();
        let mut w = disk.writer(false);
        for e in j.events() {
            w.append(e).unwrap();
        }
        assert_eq!(disk.ops(), []);
        w.commit().unwrap();
        w.commit().unwrap();
        assert_eq!(disk.ops(), [DiskOp::Write(text.len())]);
        assert_eq!(disk.bytes(), text.as_bytes());

        // Syncing at batch 5: ten appends are two writes and two syncs.
        let disk = DiskLog::default();
        let mut w = disk.writer(true).with_batch(5);
        for e in j.events() {
            w.append(e).unwrap();
        }
        let half: usize = text.lines().take(5).map(|l| l.len() + 1).sum();
        assert_eq!(
            disk.ops(),
            [
                DiskOp::Write(half),
                DiskOp::Sync,
                DiskOp::Write(text.len() - half),
                DiskOp::Sync
            ]
        );
        w.commit().unwrap();
        assert_eq!(disk.ops().len(), 4, "nothing pending, nothing synced");
        assert_eq!(disk.bytes(), text.as_bytes());
    }

    #[test]
    fn wal_sync_at_batch_one_writes_and_syncs_every_record() {
        let j = sample_journal();
        let disk = DiskLog::default();
        let mut w = disk.writer(true);
        let mut expected = Vec::new();
        for e in j.events() {
            w.append(e).unwrap();
            expected.push(DiskOp::Write(e.to_jsonl_line().len() + 1));
            expected.push(DiskOp::Sync);
            assert_eq!(disk.ops(), expected);
        }
        w.commit().unwrap();
        assert_eq!(disk.ops(), expected);
        assert_eq!(disk.bytes(), j.to_jsonl().as_bytes());
    }

    #[test]
    fn wal_buffer_cap_writes_whole_records_only() {
        let mut j = Journal::new();
        for i in 0..2_000u64 {
            j.record(
                SimTime::from_micros(i),
                RunEvent::JobDispatched {
                    job: i as u32,
                    task: (i / 9) as u32,
                    node: (i % 7) as u32,
                    eta: SimTime::from_micros(i + 10),
                },
            );
        }
        let text: String = j
            .events()
            .iter()
            .map(|e| e.to_jsonl_line_checksummed() + "\n")
            .collect();
        assert!(text.len() > 2 * WAL_BUFFER_CAP, "the cap must fire twice");
        let longest = text.lines().map(|l| l.len() + 1).max().unwrap();

        // No barrier in sight: syncing is on but the batch never fills.
        let disk = DiskLog::default();
        let mut w = disk.writer(true).with_batch(u64::MAX).with_checksums(true);
        for e in j.events() {
            w.append(e).unwrap();
        }
        let ops = disk.ops();
        assert_eq!(ops.len(), text.len() / WAL_BUFFER_CAP);
        for op in &ops {
            let DiskOp::Write(len) = *op else {
                panic!("the cap writes, it never syncs: {op:?}");
            };
            assert!((WAL_BUFFER_CAP..WAL_BUFFER_CAP + longest).contains(&len));
        }
        let written = disk.bytes();
        assert_eq!(written, text.as_bytes()[..written.len()]);
        assert!(written.ends_with(b"\n"), "a cap write ends on a record");

        // The barrier writes the rest and syncs all of it, once.
        w.commit().unwrap();
        assert_eq!(disk.bytes(), text.as_bytes());
        assert_eq!(
            disk.ops()[ops.len()..],
            [DiskOp::Write(text.len() - written.len()), DiskOp::Sync]
        );
    }

    #[test]
    fn wal_truncate_commits_buffered_records_into_the_old_segment() {
        let j = sample_journal();
        let disk = DiskLog::default();
        let mut w = disk.writer(false);
        for e in &j.events()[..4] {
            w.append(e).unwrap();
        }
        // Four records are still buffered: they belong to the segment
        // being dropped, not ahead of whatever seals the fresh one.
        w.truncate().unwrap();
        assert_eq!(disk.bytes(), b"");
        w.append(&j.events()[4]).unwrap();
        w.commit().unwrap();
        let old: usize = j.events()[..4]
            .iter()
            .map(|e| e.to_jsonl_line().len() + 1)
            .sum();
        let fresh = j.events()[4].to_jsonl_line() + "\n";
        assert_eq!(
            disk.ops(),
            [
                DiskOp::Write(old),
                DiskOp::SetLen(0),
                DiskOp::Write(fresh.len())
            ]
        );
        assert_eq!(disk.bytes(), fresh.as_bytes());
    }

    /// Twelve records through a [`FaultyDisk`](crate::disk::FaultyDisk)
    /// under `plan`: four committed cleanly, then an eight-record batch
    /// whose single write the plan fails. Returns what the file holds.
    fn tear_second_commit(plan: crate::disk::DiskFaultPlan) -> (Journal, String) {
        let mut j = Journal::new();
        for i in 0..12u64 {
            j.record(
                SimTime::from_micros(i),
                RunEvent::WaveOpened {
                    task: i as u32,
                    wave: 1,
                    jobs: 3,
                },
            );
        }
        let disk = crate::disk::FaultyDisk::new(plan);
        let mut w = WalWriter::with_disk(Box::new(disk.clone()), false).with_checksums(true);
        for e in &j.events()[..4] {
            w.append(e).unwrap();
        }
        w.commit().unwrap();
        for e in &j.events()[4..] {
            w.append(e).unwrap();
        }
        let err = w.commit().unwrap_err();
        assert!(err.to_string().contains("injected disk fault"), "{err}");

        // Poisoned: no later call touches the file again.
        let on_disk = disk.bytes();
        for result in [w.append(&j.events()[0]), w.commit(), w.truncate()] {
            assert!(result.unwrap_err().to_string().contains("poisoned"));
        }
        assert_eq!(disk.bytes(), on_disk);
        (j, String::from_utf8(on_disk).unwrap())
    }

    #[test]
    fn wal_tear_inside_a_batch_is_a_whole_record_prefix_and_a_torn_tail() {
        use crate::disk::DiskFaultPlan;
        let mut deepest = 0;
        for seed in 0..32u64 {
            let short = DiskFaultPlan {
                seed,
                short_write_at: Some(2),
                ..DiskFaultPlan::default()
            };
            let power = DiskFaultPlan {
                seed,
                crash_after_writes: Some(1),
                ..DiskFaultPlan::default()
            };
            for (name, plan) in [("short", short), ("power", power)] {
                let (j, on_disk) = tear_second_commit(plan);
                let prefix = Journal::from_jsonl_prefix(&on_disk).unwrap();
                // The first commit is intact; the torn one kept some whole
                // records and at most one partial.
                let whole = prefix.journal.len();
                assert!((4..12).contains(&whole), "{name}/{seed}: {whole}");
                assert_eq!(prefix.journal.events(), &j.events()[..whole]);
                let boundary: usize = j.events()[..whole]
                    .iter()
                    .map(|e| e.to_jsonl_line_checksummed().len() + 1)
                    .sum();
                assert_eq!(prefix.valid_bytes, boundary, "{name}/{seed}");
                assert_eq!(prefix.torn, on_disk.len() > boundary, "{name}/{seed}");
                if prefix.torn {
                    deepest = deepest.max(whole);
                }
            }
        }
        assert!(deepest > 5, "no seed tore the batch past its first record");
    }

    fn supervision_journal() -> Journal {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            RunEvent::WorkerCrashed {
                node: 1,
                job: 7,
                task: 3,
            },
        );
        j.record(
            t(0.5),
            RunEvent::WorkerRestarted {
                node: 1,
                incarnation: 2,
            },
        );
        j.record(t(1.0), RunEvent::EpochAdvanced { task: 3, epoch: 1 });
        j.record(
            t(1.5),
            RunEvent::StaleReplyDropped {
                job: 7,
                task: 3,
                epoch: 0,
            },
        );
        j.record(
            t(2.0),
            RunEvent::TaskPoisoned {
                task: 3,
                crashes: 3,
            },
        );
        j.record(t(2.0), RunEvent::RunEnded);
        j
    }

    #[test]
    fn supervision_events_round_trip_and_digest() {
        let j = supervision_journal();
        let text = j.to_jsonl();
        let restored = Journal::from_jsonl(&text).unwrap();
        assert_eq!(restored.events(), j.events());
        assert_eq!(restored.digest(), j.digest());
        assert_eq!(j.count(EventKind::WorkerCrashed), 1);
        assert_eq!(j.count(EventKind::WorkerRestarted), 1);
        assert_eq!(j.count(EventKind::TaskPoisoned), 1);
        assert_eq!(j.count(EventKind::StaleReplyDropped), 1);
        assert_eq!(j.count(EventKind::EpochAdvanced), 1);
        // Accessors see through the new variants.
        assert_eq!(j.for_task(3).count(), 4);
        assert_eq!(j.for_node(1).count(), 2);
    }

    #[test]
    fn prefix_parse_drops_only_a_torn_tail() {
        let j = sample_journal();
        let text = j.to_jsonl();

        // Intact log: nothing torn, everything recovered.
        let whole = Journal::from_jsonl_prefix(&text).unwrap();
        assert!(!whole.torn);
        assert_eq!(whole.valid_bytes, text.len());
        assert_eq!(whole.journal.events(), j.events());

        // Chop anywhere inside the final record: that record is dropped,
        // the rest survives, and valid_bytes points at the intact prefix.
        let last_line_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        for cut in last_line_start + 1..text.len() {
            let prefix = Journal::from_jsonl_prefix(&text[..cut]).unwrap();
            assert!(prefix.torn, "cut at {cut} should be torn");
            assert_eq!(prefix.valid_bytes, last_line_start);
            assert_eq!(prefix.journal.len(), j.len() - 1);
        }

        // A complete final record missing only its newline is still torn:
        // the writer died before the terminator hit the disk.
        let unterminated = &text[..text.len() - 1];
        let prefix = Journal::from_jsonl_prefix(unterminated).unwrap();
        assert!(prefix.torn);
        assert_eq!(prefix.journal.len(), j.len() - 1);

        // Corruption before the tail is a hard error, not a torn write.
        let mut corrupt = String::from("garbage\n");
        corrupt.push_str(&text);
        assert!(Journal::from_jsonl_prefix(&corrupt).is_err());
    }

    #[test]
    fn wal_writer_appends_resume_after_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "smartred-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let j = sample_journal();

        // Append all but the last event, commit, then fake a torn tail.
        let mut w = WalWriter::create(&path, false).unwrap();
        for e in &j.events()[..j.len() - 1] {
            w.append(e).unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"", "flush-only buffers");
        w.commit().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"at\":9999,\"seq");
        std::fs::write(&path, &bytes).unwrap();

        // Recover: the torn fragment is dropped, and resume() truncates it.
        let text = String::from_utf8(bytes).unwrap();
        let prefix = Journal::from_jsonl_prefix(&text).unwrap();
        assert!(prefix.torn);
        assert_eq!(prefix.journal.len(), j.len() - 1);
        let mut w = WalWriter::resume(&path, prefix.valid_bytes as u64, false).unwrap();
        w.append(&j.events()[j.len() - 1]).unwrap();
        w.commit().unwrap();
        drop(w);

        // The healed file is byte-identical to a clean serialization.
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(healed, j.to_jsonl());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_lines_round_trip_and_interleave_with_legacy() {
        let j = sample_journal();
        let mut text = String::new();
        for (i, e) in j.events().iter().enumerate() {
            // Alternate framings in one stream: readers verify whatever
            // each line carries.
            if i % 2 == 0 {
                text.push_str(&e.to_jsonl_line_checksummed());
            } else {
                text.push_str(&e.to_jsonl_line());
            }
            text.push('\n');
        }
        let restored = Journal::from_jsonl(&text).unwrap();
        assert_eq!(restored.events(), j.events());
        let prefix = Journal::from_jsonl_prefix(&text).unwrap();
        assert!(!prefix.torn);
        assert_eq!(prefix.journal.events(), j.events());
    }

    #[test]
    fn checksum_mismatch_names_the_stated_and_actual_hashes() {
        let e = sample_journal().events()[0];
        let line = e.to_jsonl_line_checksummed();
        // Corrupt one content byte while keeping the line structurally
        // valid JSON: flip a digit of the "at" value.
        let tampered = line.replacen("\"at\":0", "\"at\":1", 1);
        assert_ne!(tampered, line);
        let err = Stamped::from_jsonl_line(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // A damaged trailer is also refused, not skipped as unknown.
        let clipped = line.replace("\"crc\":\"", "\"crx\":\"");
        let err = Stamped::from_jsonl_line(&clipped).unwrap_err();
        assert!(err.contains("canonical"), "{err}");
        // So is one whose value survived but whose bytes did not: the case
        // bit of a hex letter is a bit like any other.
        let at = line.rfind(|c: char| c.is_ascii_lowercase()).unwrap();
        let mut upper = line.clone().into_bytes();
        upper[at] ^= 0x20;
        let err = Stamped::from_jsonl_line(std::str::from_utf8(&upper).unwrap()).unwrap_err();
        assert!(err.contains("malformed checksum trailer"), "{err}");
    }

    #[test]
    fn interior_corruption_reports_byte_offset_and_seq() {
        let j = sample_journal();
        let mut text = String::new();
        for e in j.events() {
            text.push_str(&e.to_jsonl_line_checksummed());
            text.push('\n');
        }
        // Damage the third record (seq 2) in place.
        let lines: Vec<&str> = text.lines().collect();
        let expected_offset = lines[0].len() + lines[1].len() + 2;
        let damaged = text.replacen("\"value\":true", "\"value\":false", 1);
        assert_ne!(damaged, text, "sample journal has a value field");
        let err = Journal::from_jsonl_prefix(&damaged).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.offset, expected_offset);
        assert_eq!(err.seq, Some(2));
        let shown = err.to_string();
        assert!(shown.contains("line 3"), "{shown}");
        assert!(
            shown.contains(&format!("byte {expected_offset}")),
            "{shown}"
        );
        assert!(shown.contains("seq 2"), "{shown}");
    }

    /// Damage to the final record is refused whenever the record was
    /// acknowledged — its newline written, or written and rotted — and
    /// only a strict prefix of its line is a torn tail.
    #[test]
    fn corrupt_final_terminated_record_is_refused_not_torn() {
        let j = sample_journal();
        let mut text = String::new();
        for e in j.events() {
            text.push_str(&e.to_jsonl_line_checksummed());
            text.push('\n');
        }
        // Flip content inside the FINAL record but keep its newline: the
        // record was fully written and then damaged in place, which must
        // be corruption — only a missing newline may be treated as torn.
        let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        let mut damaged = text.clone();
        // RunEnded's checksummed line ends ...,"crc":"<hex>"}; flip one
        // hex digit's case-insensitive value by replacing the at field.
        damaged.replace_range(last_start + 7..last_start + 8, "9");
        assert_ne!(damaged, text);
        let err = Journal::from_jsonl_prefix(&damaged).unwrap_err();
        assert_eq!(err.line, j.len());
        // Without the trailing newline the same damage is a torn tail.
        let torn_text = &damaged[..damaged.len() - 1];
        let prefix = Journal::from_jsonl_prefix(torn_text).unwrap();
        assert!(prefix.torn);
        assert_eq!(prefix.journal.len(), j.len() - 1);

        // A torn append is a strict prefix of one line, so an unterminated
        // final line that holds a whole record and more is the final
        // newline rotted: refused, in either framing and whatever bit of
        // the newline flipped, with the record's line, offset and seq —
        // never dropped as torn, which would re-deliver the verdict of a
        // decision record. The record without its newline, or any shorter
        // prefix of it, is still torn.
        let encoders: [fn(&Stamped) -> String; 2] =
            [Stamped::to_jsonl_line, Stamped::to_jsonl_line_checksummed];
        let seq = j.events().last().unwrap().seq;
        for encode in encoders {
            let lines = j.events().iter().map(|e| encode(e) + "\n");
            let text = lines.collect::<String>().into_bytes();
            let last_start = text[..text.len() - 1]
                .iter()
                .rposition(|&b| b == b'\n')
                .unwrap()
                + 1;
            for bit in 0..8 {
                let mut rotted = text.clone();
                *rotted.last_mut().unwrap() ^= 1 << bit;
                let rotted = String::from_utf8_lossy(&rotted);
                let err = Journal::from_jsonl_prefix(&rotted).unwrap_err();
                assert_eq!(
                    (err.line, err.offset, err.seq),
                    (j.len(), last_start, Some(seq)),
                    "bit {bit}: {err}"
                );
            }
            for cut in last_start + 1..text.len() {
                let torn = std::str::from_utf8(&text[..cut]).unwrap();
                let prefix = Journal::from_jsonl_prefix(torn).unwrap();
                assert!(prefix.torn, "cut at {cut}");
                assert_eq!(prefix.valid_bytes, last_start, "cut at {cut}");
            }
        }
    }

    /// The sample journal as checksummed WAL lines, and the byte offset of
    /// the fourth.
    fn sample_wal_lines() -> (Vec<String>, usize) {
        let lines: Vec<String> = sample_journal()
            .events()
            .iter()
            .map(|e| e.to_jsonl_line_checksummed() + "\n")
            .collect();
        let offset = lines[..3].iter().map(String::len).sum();
        (lines, offset)
    }

    #[test]
    fn duplicated_wal_line_is_refused_with_its_position() {
        // Line 3 (seq 2) written twice: each copy is intact and checksums,
        // so only the dense-seq contract can tell.
        let (mut lines, offset_of_line_4) = sample_wal_lines();
        lines.insert(3, lines[2].clone());
        let text = lines.concat();
        for err in [
            Journal::from_jsonl(&text).unwrap_err(),
            Journal::from_jsonl_prefix(&text).unwrap_err(),
        ] {
            assert_eq!(
                (err.line, err.offset, err.seq),
                (4, offset_of_line_4, Some(2))
            );
            assert!(err.message.contains("sequence break"), "{err}");
        }
    }

    #[test]
    fn dropped_wal_line_is_refused_but_a_segment_may_start_anywhere() {
        // Line 4 (seq 3) lost whole: the next record skips a number.
        let (mut lines, offset_of_line_4) = sample_wal_lines();
        lines.remove(3);
        let err = Journal::from_jsonl_prefix(&lines.concat()).unwrap_err();
        assert_eq!(
            (err.line, err.offset, err.seq),
            (4, offset_of_line_4, Some(4))
        );
        assert!(err.message.contains("seq 4 follows seq 2"), "{err}");

        // Losing a whole head is not a gap: checkpoint compaction starts
        // segments at any seq.
        let tail = Journal::from_jsonl_prefix(&lines[3..].concat()).unwrap();
        assert_eq!(tail.journal.events(), &sample_journal().events()[4..]);
        assert_eq!(tail.journal.next_seq(), sample_journal().next_seq());
    }

    #[test]
    fn fsync_failure_poisons_the_writer_for_good() {
        use crate::disk::{DiskFaultPlan, FaultyDisk};
        let plan = DiskFaultPlan {
            seed: 5,
            fail_fsync_at: Some(2),
            ..DiskFaultPlan::default()
        };
        let disk = Box::new(FaultyDisk::new(plan));
        let mut w = WalWriter::with_disk(disk, true);
        let j = sample_journal();
        w.append(&j.events()[0]).unwrap();
        let err = w.append(&j.events()[1]).unwrap_err();
        assert!(err.to_string().contains("injected disk fault"), "{err}");
        // Every later operation fails fast with the original cause —
        // the disk itself recovered, but the writer must never trust it
        // again (the failed fsync may have dropped acknowledged pages).
        for e in &j.events()[2..] {
            let err = w.append(e).unwrap_err();
            assert!(err.to_string().contains("poisoned"), "{err}");
            assert!(err.to_string().contains("injected disk fault"), "{err}");
        }
        assert!(w.commit().unwrap_err().to_string().contains("poisoned"));
        assert!(w.truncate().unwrap_err().to_string().contains("poisoned"));
    }

    #[test]
    fn batch_boundary_crash_never_surfaces_a_mid_batch_wal_prefix_as_clean() {
        // Group commit with batch 16: records 1..=16 were written and
        // fsynced as one batch, 17..24 are still in the buffer. A process
        // kill there leaves the file at the batch boundary. Once the tail
        // batch is written, power loss may keep any byte prefix of that
        // one unsynced write. The torn-tail contract must hold at every
        // such cut: recovery returns exactly the whole records before the
        // cut, reports torn for any mid-record cut, and never resumes
        // past a partial record — a mid-batch prefix is only "clean" at a
        // record boundary.
        let mut j = Journal::new();
        for i in 0..24u64 {
            j.record(
                SimTime::from_micros(i),
                RunEvent::WaveOpened {
                    task: i as u32,
                    wave: 1,
                    jobs: 3,
                },
            );
        }
        let text = j.to_jsonl();
        let synced_boundary: usize = text.lines().take(16).map(|l| l.len() + 1).sum();

        let disk = DiskLog::default();
        let mut w = disk.writer(true).with_batch(16);
        for e in j.events() {
            w.append(e).unwrap();
        }
        assert_eq!(
            disk.bytes(),
            text.as_bytes()[..synced_boundary],
            "a kill mid-batch leaves whole batches only"
        );
        w.commit().unwrap();
        assert_eq!(disk.bytes(), text.as_bytes());
        assert_eq!(
            disk.ops()[2..],
            [DiskOp::Write(text.len() - synced_boundary), DiskOp::Sync],
            "the tail batch is one write"
        );

        let mut boundaries = vec![0usize];
        let mut acc = 0usize;
        for l in text.lines() {
            acc += l.len() + 1;
            boundaries.push(acc);
        }
        for cut in synced_boundary..=text.len() {
            let prefix = Journal::from_jsonl_prefix(&text[..cut]).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(prefix.journal.len(), whole, "cut at {cut}");
            assert_eq!(prefix.torn, !at_boundary, "cut at {cut}");
            assert_eq!(
                prefix.valid_bytes,
                *boundaries.iter().rfind(|&&b| b <= cut).unwrap(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncate_starts_a_fresh_segment() {
        let path = std::env::temp_dir().join(format!(
            "smartred-wal-truncate-{}.jsonl",
            std::process::id()
        ));
        let j = sample_journal();
        let mut w = WalWriter::create(&path, true).unwrap().with_checksums(true);
        for e in &j.events()[..4] {
            w.append(e).unwrap();
        }
        w.truncate().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        // Appends after truncation land at offset zero, not at the old
        // end-of-file position.
        w.append(&j.events()[4]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let restored = Journal::from_jsonl(&text).unwrap();
        assert_eq!(restored.events(), &j.events()[4..5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_changes_with_any_field() {
        let j = sample_journal();
        let mut k = sample_journal();
        k.record(t(6.0), RunEvent::RunEnded);
        assert_ne!(j.digest(), k.digest());

        let mut shifted = Journal::new();
        for e in j.events() {
            shifted.record(e.at + crate::time::SimDuration::from_micros(1), e.event);
        }
        assert_ne!(shifted.digest(), j.digest());
        assert_eq!(j.digest_hex().len(), 16);

        // A zero byte above a number's highest nonzero byte, made nonzero:
        // the zeros taken in one step are still each digested.
        let edits: [fn(&mut Stamped); 4] = [
            |e| e.at = SimTime::from_micros(e.at.as_micros() | 1 << 40),
            |e| e.seq |= 1 << 56,
            |e| {
                if let RunEvent::JobDispatched { node, .. } = &mut e.event {
                    *node |= 1 << 24;
                }
            },
            |e| {
                if let RunEvent::JobDispatched { eta, .. } = &mut e.event {
                    *eta = SimTime::from_micros(eta.as_micros() | 1 << 48);
                }
            },
        ];
        for edit in edits {
            let mut k = j.clone();
            edit(&mut k.events[1]);
            assert_ne!(k.events[1], j.events[1], "the edit did not apply");
            assert_ne!(k.digest(), j.digest(), "{:?}", k.events[1]);
        }
    }

    /// Each name's and each zero run's [`Run`] against stepping its string
    /// a byte at a time, from every low byte under several high bits.
    #[test]
    fn every_run_is_its_string_stepped_a_byte_at_a_time() {
        let zeros = [0u8; 8];
        let names = EventKind::ALL
            .iter()
            .map(|k| (k.name(), k.run()))
            .chain(DepartureReason::ALL.iter().map(|r| (r.name(), r.run())))
            .chain(FaultKind::ALL.iter().map(|f| (f.name(), f.run())));
        let runs = names
            .map(|(name, run)| (name.as_bytes(), run))
            .chain((0..=8).map(|z| (&zeros[..z], &ZERO_RUNS[z])));
        for (string, run) in runs {
            for high in [
                0,
                1 << 8,
                0xcbf2_9ce4_8422_2300,
                0x8000_0000_0000_0000,
                u64::MAX << 8,
            ] {
                for low in 0..=255 {
                    let (mut stepped, mut taken) = (Fnv(high | low), Fnv(high | low));
                    stepped.eat(string);
                    taken.take(run);
                    assert_eq!(taken.0, stepped.0, "{string:?} from {:#x}", high | low);
                }
            }
        }
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::disabled();
        j.record(t(1.0), RunEvent::RunEnded);
        assert!(j.is_empty());
        assert!(!j.is_enabled());
        assert!(Journal::new().is_enabled());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Journal::from_jsonl("not json").is_err());
        assert!(Journal::from_jsonl("{\"at\":0,\"seq\":0,\"kind\":\"no_such\"}").is_err());
        assert!(Journal::from_jsonl("{\"at\":0,\"kind\":\"run_ended\"}").is_err());
        // Out-of-order times are rejected on load.
        let bad = "{\"at\":5,\"seq\":0,\"kind\":\"run_ended\"}\n{\"at\":1,\"seq\":1,\"kind\":\"run_ended\"}\n";
        let err = Journal::from_jsonl(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn assert_dsl_passes_on_well_formed_journal() {
        let j = sample_journal();
        assert::that(&j)
            .time_ordered()
            .retry_follows_timeout()
            .no_dispatch_to_quarantined()
            .waves_well_formed()
            .count(EventKind::VerdictReached)
            .exactly(1)
            .count(EventKind::JobDispatched)
            .at_least(1)
            .count(EventKind::TaskCapped)
            .at_most(0)
            .never("no joins in this run", |e| {
                matches!(e.event, RunEvent::NodeJoined { .. })
            })
            .each_followed_by(
                "every dispatch resolves",
                |e| matches!(e.event, RunEvent::JobDispatched { .. }),
                |d, later| match (d.event, later.event) {
                    (
                        RunEvent::JobDispatched { job, .. },
                        RunEvent::JobReturned { job: j2, .. },
                    )
                    | (
                        RunEvent::JobDispatched { job, .. },
                        RunEvent::JobTimedOut { job: j2, .. },
                    ) => job == j2,
                    _ => false,
                },
            );
    }

    #[test]
    #[should_panic(expected = "dispatched to quarantined node")]
    fn dispatch_to_quarantined_node_is_caught() {
        let mut j = Journal::new();
        j.record(t(0.0), RunEvent::NodeQuarantined { node: 4 });
        j.record(
            t(1.0),
            RunEvent::JobDispatched {
                job: 0,
                task: 0,
                node: 4,
                eta: t(2.0),
            },
        );
        assert::that(&j).no_dispatch_to_quarantined();
    }

    #[test]
    #[should_panic(expected = "uncaused event")]
    fn orphan_retry_is_caught() {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            RunEvent::JobRetried {
                task: 1,
                attempt: 1,
            },
        );
        assert::that(&j).retry_follows_timeout();
    }

    #[test]
    #[should_panic(expected = "expected exactly")]
    fn wrong_count_is_caught() {
        let j = sample_journal();
        assert::that(&j).count(EventKind::RunEnded).exactly(2);
    }

    #[test]
    fn assert_dsl_accepts_raw_event_slices() {
        // The same checks against a bare slice — no Journal required, as a
        // wall-clock event source (the live runtime) would use it.
        let j = sample_journal();
        let slice: Vec<Stamped> = j.events().to_vec();
        assert::events(&slice)
            .time_ordered()
            .retry_follows_timeout()
            .waves_well_formed()
            .count(EventKind::JobRetried)
            .exactly(1);
        assert_eq!(assert::events(&slice).events().len(), j.len());
    }

    #[test]
    fn quorum_invariant_accepts_enough_votes() {
        let mut j = Journal::new();
        for i in 0..3u32 {
            j.record(
                t(f64::from(i)),
                RunEvent::VoteTallied {
                    task: 7,
                    value: true,
                    leader_count: i + 1,
                    runner_up: 0,
                },
            );
        }
        j.record(
            t(3.0),
            RunEvent::VerdictReached {
                task: 7,
                value: true,
                degraded: false,
                confidence: 1.0,
            },
        );
        assert::that(&j).verdicts_have_quorum(3);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn quorum_invariant_rejects_short_vote_trail() {
        let mut j = Journal::new();
        // Two votes for the winning value, one for the loser: quorum 3 fails.
        j.record(
            t(0.0),
            RunEvent::VoteTallied {
                task: 1,
                value: true,
                leader_count: 1,
                runner_up: 0,
            },
        );
        j.record(
            t(1.0),
            RunEvent::VoteTallied {
                task: 1,
                value: false,
                leader_count: 1,
                runner_up: 1,
            },
        );
        j.record(
            t(2.0),
            RunEvent::VoteTallied {
                task: 1,
                value: true,
                leader_count: 2,
                runner_up: 1,
            },
        );
        j.record(
            t(3.0),
            RunEvent::VerdictReached {
                task: 1,
                value: true,
                degraded: false,
                confidence: 1.0,
            },
        );
        assert::that(&j).verdicts_have_quorum(3);
    }

    #[test]
    fn quorum_invariant_skips_degraded_verdicts() {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            RunEvent::VerdictReached {
                task: 2,
                value: false,
                degraded: true,
                confidence: 0.8,
            },
        );
        assert::that(&j).verdicts_have_quorum(5);
    }

    /// The sealing routine against the reference hash.
    mod lanes {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Bodies of unequal lengths, empty ones among them, in groups
            /// of every size and with other bytes between them: each
            /// trailer states `fnv1a_64` of its body and `}`, and no other
            /// byte changes.
            #[test]
            fn a_sealed_trailer_states_the_reference_hash(
                records in proptest::collection::vec((0usize..240, any::<u64>(), 0usize..4), 0..14),
            ) {
                let (mut buf, mut spans, mut bodies) = (Vec::new(), Vec::new(), Vec::new());
                for (i, &(len, seed, gap)) in records.iter().enumerate() {
                    // Plain records, or nothing, between two spans.
                    buf.extend(std::iter::repeat_n(b'}', gap));
                    let body: Vec<u8> = (0..len.saturating_sub(40))
                        .map(|j| (seed.rotate_left(j as u32 % 64) ^ (i * 31 + j) as u64) as u8)
                        .collect();
                    let start = buf.len();
                    buf.extend_from_slice(&body);
                    spans.push(Span { start, trailer: buf.len() });
                    buf.extend_from_slice(CRC_TRAILER);
                    bodies.push(body);
                }
                let mut sealed = buf.clone();
                seal(&mut sealed, &spans);
                for (span, body) in spans.iter().zip(&bodies) {
                    let trailer = span.trailer..span.trailer + CRC_TRAILER.len();
                    let line = [body.as_slice(), b"}"].concat();
                    prop_assert_eq!(&sealed[trailer.clone()], &crc_trailer(fnv1a_64(&line))[..]);
                    sealed[trailer.clone()].copy_from_slice(&buf[trailer]);
                }
                prop_assert_eq!(sealed, buf);
            }
        }
    }

    /// The block reader's contract: for every input, block length and
    /// thread count, from memory and from a file, what the one-block walk
    /// of the whole input returns.
    mod blocks {
        use super::*;
        use proptest::prelude::*;

        const BLOCK_LENS: [usize; 5] = [1, 7, 64, 257, 4096];
        const THREADS: [usize; 4] = [1, 2, 3, 8];

        /// Everything a read returns, comparable.
        type Outcome = Result<(Vec<Stamped>, u64, bool, usize), JournalParseError>;

        fn outcome(read: Result<WalPrefix, JournalParseError>) -> Outcome {
            read.map(|p| {
                let next_seq = p.journal.next_seq();
                (p.journal.events, next_seq, p.torn, p.valid_bytes)
            })
        }

        fn in_memory(text: &str, block_len: usize, threads: usize, drop_tail: bool) -> Outcome {
            outcome(read_blocks(text.len(), block_len, threads, drop_tail, || Ok(text)).unwrap())
        }

        /// The one-block walk of the whole input, as recovery used to see
        /// it: lossily decoded first.
        fn whole(bytes: &[u8], drop_tail: bool) -> Outcome {
            let text = String::from_utf8_lossy(bytes);
            in_memory(&text, text.len().max(1), 1, drop_tail)
        }

        /// The reader's rules one line at a time, with no lanes and no
        /// blocks: skip a blank line, drop or read an unterminated last
        /// one (never drop one a strict prefix of which reads as a
        /// record), read a line with `Stamped::from_jsonl_line`, check it
        /// continues the stream.
        fn serial(bytes: &[u8], drop_tail: bool) -> Outcome {
            let text = String::from_utf8_lossy(bytes);
            let (mut events, mut torn, mut valid, mut offset) =
                (Vec::<Stamped>::new(), false, 0, 0);
            for (i, raw) in text.split_inclusive('\n').enumerate() {
                let line = raw.strip_suffix('\n').unwrap_or(raw);
                let refuse = |seq, message| JournalParseError {
                    line: i + 1,
                    offset,
                    seq,
                    message,
                };
                if !line.trim().is_empty() {
                    let record_and_more = (1..line.len()).any(|k| {
                        line.is_char_boundary(k) && Stamped::from_jsonl_line(&line[..k]).is_ok()
                    });
                    if drop_tail && line == raw && !record_and_more {
                        torn = true;
                        break;
                    }
                    let next =
                        Stamped::from_jsonl_line(line).map_err(|m| refuse(sniff_seq(line), m))?;
                    if let Some(m) = events.last().and_then(|prev| breaks_stream(prev, &next)) {
                        return Err(refuse(Some(next.seq), m));
                    }
                    events.push(next);
                }
                offset += raw.len();
                if line != raw {
                    valid = offset;
                }
            }
            let next_seq = events.last().map_or(0, |e| e.seq.saturating_add(1));
            Ok((events, next_seq, torn, valid))
        }

        /// A scratch file holding `bytes`, removed when dropped.
        struct Scratch(std::path::PathBuf);

        impl Scratch {
            fn holding(name: &str, bytes: &[u8]) -> Self {
                let path = std::env::temp_dir().join(format!(
                    "smartred-wal-blocks-{}-{name}.jsonl",
                    std::process::id()
                ));
                std::fs::write(&path, bytes).unwrap();
                Scratch(path)
            }

            fn read(&self, block_len: usize, threads: usize) -> Outcome {
                let len = std::fs::metadata(&self.0).unwrap().len() as usize;
                let open = || FileBlocks::open(&self.0);
                outcome(read_blocks(len, block_len, threads, true, open).unwrap())
            }
        }

        impl Drop for Scratch {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        /// The lines of a WAL of the generated records: plain, checksummed,
        /// or the two interleaved. Kinds include the float and the widest.
        fn wal_lines(entries: &[(u64, u8, u32, bool)], framing: u8) -> Vec<String> {
            let mut journal = Journal::resume_at(u64::from(entries[0].2));
            let mut at = 0u64;
            for &(delta, sel, a, v) in entries {
                at += delta;
                let (task, node, job) = (a % 64, a % 97, a);
                let eta = SimTime::from_micros(at + 500);
                let event = match sel % 6 {
                    0 => RunEvent::JobDispatched {
                        job,
                        task,
                        node,
                        eta,
                    },
                    1 => RunEvent::JobReturned {
                        job,
                        task,
                        node,
                        value: v,
                    },
                    2 => RunEvent::VerdictReached {
                        task,
                        value: v,
                        degraded: a % 5 == 0,
                        confidence: f64::from(a % 1001) / 1000.0,
                    },
                    3 => RunEvent::TransferStarted {
                        xfer: a,
                        job,
                        task,
                        node,
                        bytes: u64::MAX - u64::from(a),
                        eta,
                    },
                    4 => RunEvent::WaveOpened {
                        task,
                        wave: a % 8 + 1,
                        jobs: a % 32 + 1,
                    },
                    _ => RunEvent::RunEnded,
                };
                journal.record(SimTime::from_micros(at), event);
            }
            let framed = |(i, e): (usize, &Stamped)| match framing {
                0 => e.to_jsonl_line() + "\n",
                1 => e.to_jsonl_line_checksummed() + "\n",
                _ if i % 3 == 0 => e.to_jsonl_line() + "\n",
                _ => e.to_jsonl_line_checksummed() + "\n",
            };
            journal.events().iter().enumerate().map(framed).collect()
        }

        /// The WAL's bytes after one damage at byte `pos` of the intact
        /// text (line damages hit the line that holds it); `pick` chooses
        /// among a damage's variants.
        fn damaged(lines: &[String], kind: u8, pos: usize, pick: usize) -> Vec<u8> {
            let mut lines = lines.to_vec();
            let mut line = 0;
            let mut start = 0;
            while line + 1 < lines.len() && start + lines[line].len() <= pos {
                start += lines[line].len();
                line += 1;
            }
            match kind {
                // A whole line lost, written twice, or out of place.
                2 => drop(lines.remove(line)),
                3 => lines.insert(line, lines[line].clone()),
                4 if lines.len() > 1 => {
                    let first = line.min(lines.len() - 2);
                    lines.swap(first, first + 1);
                }
                // Lines a reader skips: empty, spaces, Unicode whitespace.
                6 => lines.insert(line, ["\n", "  \n", "\t \u{a0}\u{2003}\n"][pick % 3].into()),
                _ => {}
            }
            let mut bytes = lines.concat().into_bytes();
            let pos = pos.min(bytes.len().saturating_sub(1));
            match kind {
                1 => bytes[pos] ^= 1 << (pick % 8),
                // A torn tail.
                5 => bytes.truncate(pos),
                // Not UTF-8: a stray byte, a lead with no continuation, a
                // continuation with no lead.
                7 => bytes[pos] = [0xff, 0xc3, 0x80][pick % 3],
                _ => {}
            }
            bytes
        }

        /// Where a damage goes for one block length: the generated position,
        /// then the seam next to it and the bytes either side of that seam.
        fn placements(pos: usize, block_len: usize) -> [usize; 4] {
            let seam = (pos / block_len).max(1) * block_len;
            [pos, seam - 1, seam, seam + 1]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn reading_is_block_and_thread_count_invariant(
                entries in proptest::collection::vec(
                    (0u64..500, 0u8..6, 0u32..100_000, proptest::bool::ANY),
                    2..40,
                ),
                framing in 0u8..3,
                kind in 0u8..8,
                at in 0usize..1 << 16,
                pick in 0usize..24,
                drop_tail in proptest::bool::ANY,
            ) {
                let lines = wal_lines(&entries, framing);
                let len: usize = lines.iter().map(String::len).sum();
                // Half the torn tails inside the last two records.
                let last_two = len - lines[lines.len() - 2..].concat().len();
                let pos = match kind {
                    5 if pick % 2 == 0 => last_two + at % (len - last_two),
                    _ => at % len,
                };
                for block_len in BLOCK_LENS {
                    for pos in placements(pos, block_len) {
                        let bytes = damaged(&lines, kind, pos, pick);
                        // A `&str` reader is never handed anything else.
                        let text = String::from_utf8_lossy(&bytes);
                        let expected = whole(&bytes, drop_tail);
                        prop_assert_eq!(&expected, &serial(&bytes, drop_tail), "kind {} at {}", kind, pos);
                        for threads in THREADS {
                            prop_assert_eq!(
                                in_memory(&text, block_len, threads, drop_tail),
                                expected.clone(),
                                "kind {} at {}, block {}, {} threads", kind, pos, block_len, threads
                            );
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn reading_a_file_is_block_and_thread_count_invariant(
                entries in proptest::collection::vec(
                    (0u64..500, 0u8..6, 0u32..100_000, proptest::bool::ANY),
                    2..16,
                ),
                framing in 0u8..3,
                kind in 0u8..8,
                at in 0usize..1 << 16,
                pick in 0usize..24,
            ) {
                let lines = wal_lines(&entries, framing);
                let len: usize = lines.iter().map(String::len).sum();
                for block_len in BLOCK_LENS {
                    for pos in placements(at % len, block_len) {
                        let bytes = damaged(&lines, kind, pos, pick);
                        let file = Scratch::holding("table", &bytes);
                        let expected = whole(&bytes, true);
                        prop_assert_eq!(&expected, &serial(&bytes, true), "kind {} at {}", kind, pos);
                        for threads in THREADS {
                            prop_assert_eq!(
                                file.read(block_len, threads),
                                expected.clone(),
                                "kind {} at {}, block {}, {} threads", kind, pos, block_len, threads
                            );
                        }
                    }
                }
            }
        }

        /// The tail torn at every byte of the last two records, from
        /// memory and from a file.
        #[test]
        fn every_truncation_of_the_last_two_records_reads_alike() {
            let entries: Vec<_> = (0..12u32)
                .map(|i| (7, i as u8, i * 977, i % 2 == 0))
                .collect();
            let text = wal_lines(&entries, 2).concat();
            let last_two = text[..text.len() - 1]
                .rmatch_indices('\n')
                .nth(1)
                .unwrap()
                .0
                + 1;
            for cut in last_two..=text.len() {
                let bytes = &text.as_bytes()[..cut];
                let file = Scratch::holding("truncated", bytes);
                let expected = whole(bytes, true);
                assert_eq!(expected.as_ref().unwrap().2, !text[..cut].ends_with('\n'));
                for block_len in BLOCK_LENS {
                    for threads in THREADS {
                        let ctx = format!("cut {cut}, block {block_len}, {threads} threads");
                        assert_eq!(
                            in_memory(&text[..cut], block_len, threads, true),
                            expected,
                            "{ctx}"
                        );
                        assert_eq!(file.read(block_len, threads), expected, "file, {ctx}");
                    }
                }
            }
        }

        /// A record that breaks the stream across a seam and garbage later
        /// in the same block: the seam, first in the file, is what is named.
        /// Garbage in the block before it wins over both.
        #[test]
        fn a_seam_refusal_and_a_later_one_report_in_file_order() {
            let entries: Vec<_> = (0..9u32).map(|i| (3, 1, i, true)).collect();
            let mut lines = wal_lines(&entries, 1);
            // Line 5 repeats line 4; line 7 no longer hashes.
            lines[4] = lines[3].clone();
            lines[6] = lines[6].replace("true", "frue");
            let seam: usize = lines[..4].iter().map(String::len).sum();
            let text = lines.concat();
            let expected = whole(text.as_bytes(), true);
            let refusal = expected.clone().unwrap_err();
            assert_eq!(
                (refusal.line, refusal.offset, refusal.seq),
                (5, seam, Some(3))
            );
            assert!(refusal
                .message
                .starts_with("sequence break: seq 3 follows seq 3"));
            for threads in THREADS {
                // One seam, exactly where line 5 starts.
                assert_eq!(in_memory(&text, seam, threads, true), expected);
            }

            lines[1] = lines[1].replace("true", "frue");
            let text = lines.concat();
            let expected = whole(text.as_bytes(), true);
            assert_eq!(expected.clone().unwrap_err().line, 2);
            for threads in THREADS {
                assert_eq!(in_memory(&text, seam, threads, true), expected);
            }
        }

        /// A group of four lines holding 0–4 checksummed records among
        /// plain and blank lines, damaged in each lane: a bit flip, a byte
        /// that is not UTF-8, two flipped lines, a tail torn mid-group.
        /// The walk in lanes reports what the serial reading reports, and
        /// a damaged line is named even when a later one is damaged too.
        #[test]
        fn damage_in_any_lane_reads_as_the_serial_walk_reads_it() {
            let entries: Vec<_> = (0..12u32)
                .map(|i| (5, i as u8, i * 7919, i % 2 == 0))
                .collect();
            let framings = [wal_lines(&entries, 0), wal_lines(&entries, 1)];
            for mask in 0..16usize {
                // Lane `l` of the middle group is checksummed if bit `l` of
                // `mask` is set; of the others, lane `mask % 4` is blank.
                let middle = (0..4).map(|lane| match mask >> lane & 1 {
                    1 => 'c',
                    _ if lane == mask % 4 => 'b',
                    _ => 'p',
                });
                let mut records = 0..entries.len();
                let lines: Vec<String> = "cccc"
                    .chars()
                    .chain(middle)
                    .chain("cccc".chars())
                    .map(|framing| match framing {
                        'b' => " \t\n".to_string(),
                        _ => framings[usize::from(framing == 'c')][records.next().unwrap()].clone(),
                    })
                    .collect();
                let text = lines.concat().into_bytes();
                let start = |line: usize| lines[..line].iter().map(String::len).sum::<usize>() + 1;
                let check = |bytes: &[u8], drop_tail: bool, named: Option<usize>, what: &str| {
                    let expected = serial(bytes, drop_tail);
                    assert_eq!(whole(bytes, drop_tail), expected, "mask {mask:04b}: {what}");
                    if let Some(line) = named {
                        assert_eq!(expected.unwrap_err().line, line, "mask {mask:04b}: {what}");
                    }
                };
                for line in 4..8 {
                    let mut flipped = text.clone();
                    flipped[start(line)] ^= 1;
                    check(
                        &flipped,
                        true,
                        Some(line + 1),
                        &format!("line {line} flipped"),
                    );
                    let mut not_utf8 = text.clone();
                    not_utf8[start(line)] = 0xff;
                    check(
                        &not_utf8,
                        true,
                        Some(line + 1),
                        &format!("line {line} not UTF-8"),
                    );
                    for later in line + 1..8 {
                        let mut twice = flipped.clone();
                        twice[start(later)] ^= 1;
                        check(
                            &twice,
                            true,
                            Some(line + 1),
                            &format!("lines {line} and {later} flipped"),
                        );
                    }
                    let torn = &text[..start(line) + lines[line].len() / 2];
                    for drop_tail in [true, false] {
                        check(torn, drop_tail, None, &format!("torn in line {line}"));
                    }
                }
            }
        }
    }
}
