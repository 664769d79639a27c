//! Property-based tests of the journal's core contracts: recording keeps
//! time order, JSONL serialization round-trips losslessly, digests are a
//! pure function of the event stream (and in particular independent of the
//! `SMARTRED_THREADS` parallelism knob), and windowing agrees with a naive
//! filter.

use proptest::prelude::*;
use smartred_desim::journal::{
    assert as jassert, DepartureReason, EventKind, FaultKind, Journal, RunEvent, WalWriter,
};
use smartred_desim::time::SimTime;

/// Selector range of `event_from`: one arm per `RunEvent` variant.
const ARMS: u8 = EventKind::ALL.len() as u8;

/// Builds a deterministic event from generated scalars. `sel` picks the
/// variant, `a`/`b` fill the integer fields, `v` the booleans; the
/// confidence float is derived from `a` so it is always finite and in
/// `[0, 1]`.
fn event_from(sel: u8, a: u32, b: u32, v: bool) -> RunEvent {
    match sel % ARMS {
        0 => RunEvent::JobDispatched {
            job: a,
            task: b,
            node: a % 97,
            eta: SimTime::from_micros(a as u64 * 7 + 1),
        },
        1 => RunEvent::JobReturned {
            job: a,
            task: b,
            node: a % 97,
            value: v,
        },
        2 => RunEvent::JobTimedOut {
            job: a,
            task: b,
            node: a % 97,
        },
        3 => RunEvent::JobRetried {
            task: b,
            attempt: a % 16 + 1,
        },
        4 => RunEvent::WaveOpened {
            task: b,
            wave: a % 8 + 1,
            jobs: a % 32 + 1,
        },
        5 => RunEvent::WaveClosed {
            task: b,
            wave: a % 8 + 1,
        },
        6 => RunEvent::VoteTallied {
            task: b,
            value: v,
            leader_count: a % 64,
            runner_up: a % 17,
        },
        7 => RunEvent::NodeQuarantined { node: a % 97 },
        8 => RunEvent::NodeReleased { node: a % 97 },
        9 => RunEvent::VerdictReached {
            task: b,
            value: v,
            degraded: a.is_multiple_of(2),
            confidence: (a % 1001) as f64 / 1000.0,
        },
        10 => RunEvent::TaskCapped { task: b },
        11 => RunEvent::OutageStarted { region: a % 5 },
        12 => RunEvent::WorkerCrashed {
            node: a % 97,
            job: a,
            task: b,
        },
        13 => RunEvent::WorkerRestarted {
            node: a % 97,
            incarnation: a % 16 + 1,
        },
        14 => RunEvent::TaskPoisoned {
            task: b,
            crashes: a % 8 + 1,
        },
        15 => RunEvent::StaleReplyDropped {
            job: a,
            task: b,
            epoch: a % 9,
        },
        16 => RunEvent::EpochAdvanced {
            task: b,
            epoch: a % 9 + 1,
        },
        17 => RunEvent::AuditScheduled { task: b },
        18 => RunEvent::AuditPassed { task: b },
        19 => RunEvent::AuditFailed {
            task: b,
            node: a % 97,
        },
        20 => RunEvent::VerdictVoided { task: b },
        21 => RunEvent::TaskRetallied { task: b },
        22 => RunEvent::HedgeLaunched {
            job: a,
            task: b,
            origin: a / 2,
            epoch: a % 9,
        },
        23 => RunEvent::HedgeWon { job: a, task: b },
        24 => RunEvent::HedgeWasted { job: a, task: b },
        25 => RunEvent::TransferStarted {
            xfer: a,
            job: a / 2,
            task: b,
            node: a % 97,
            bytes: u64::from(a) * 512,
            eta: SimTime::from_micros(a as u64 * 13 + 1),
        },
        26 => RunEvent::TransferCompleted {
            xfer: a,
            job: a / 2,
            task: b,
            node: a % 97,
        },
        27 => RunEvent::StageDecided {
            stage: a % 9,
            correct: a % 33,
            wrong: a % 7,
        },
        28 => RunEvent::PoisonPropagated {
            task: b,
            stage: a % 9 + 1,
            from: a % 10_000,
        },
        29 => RunEvent::CheckpointTaken {
            events: u64::from(a),
            digest: u64::from(a).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(b),
        },
        30 => RunEvent::NodeJoined { node: a % 97 },
        31 => RunEvent::NodeDeparted {
            node: a % 97,
            reason: match a % 3 {
                0 => DepartureReason::Churn,
                1 => DepartureReason::Crash,
                _ => DepartureReason::Blacklist,
            },
        },
        32 => RunEvent::RunEnded,
        _ => RunEvent::FaultInjected {
            kind: match a % 6 {
                0 => FaultKind::Crash,
                1 => FaultKind::Hang,
                2 => FaultKind::Straggler,
                3 => FaultKind::Collusion,
                4 => FaultKind::Blackout,
                _ => FaultKind::Cartel,
            },
        },
    }
}

/// The "every variant" properties below are only as wide as `event_from`:
/// each selector must produce a different kind, so a new table row fails
/// here until it gets a generator arm.
#[test]
fn generator_covers_every_kind() {
    let mut generated: Vec<EventKind> = (0..ARMS)
        .map(|sel| event_from(sel, 1, 1, true).kind())
        .collect();
    generated.sort_by_key(|&kind| EventKind::ALL.iter().position(|&k| k == kind));
    assert_eq!(generated, EventKind::ALL);
}

/// The commit buffer encodes in place rather than through
/// `to_jsonl_line`/`to_jsonl_line_checksummed`; for every event variant,
/// under both framings and whether records are committed one at a time or
/// all at once, the bytes it writes are the bytes those functions give.
#[test]
fn wal_bytes_after_commit_equal_the_line_encoders_for_every_kind() {
    let mut journal = Journal::new();
    for sel in 0..ARMS {
        for (a, b, v) in [(0, 0, false), (7_919, 63, true), (u32::MAX, u32::MAX, true)] {
            let at = SimTime::from_micros(journal.next_seq() * 3);
            journal.record(at, event_from(sel, a, b, v));
        }
    }
    let mut checksummed = String::new();
    for e in journal.events() {
        checksummed.push_str(&e.to_jsonl_line_checksummed());
        checksummed.push('\n');
    }
    for (checksums, expected) in [(false, journal.to_jsonl()), (true, checksummed)] {
        for commit_each in [false, true] {
            let path = std::env::temp_dir().join(format!(
                "smartred-wal-kinds-{}-{checksums}-{commit_each}.jsonl",
                std::process::id()
            ));
            let mut wal = WalWriter::create(&path, false)
                .unwrap()
                .with_checksums(checksums);
            for e in journal.events() {
                wal.append(e).unwrap();
                if commit_each {
                    wal.commit().unwrap();
                }
            }
            wal.commit().unwrap();
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                expected,
                "checksums {checksums}, commit per record {commit_each}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Records the generated events with non-decreasing timestamps.
fn build_journal(entries: &[(u64, u8, u32, u32, bool)]) -> Journal {
    let mut journal = Journal::new();
    let mut at = 0u64;
    for &(delta, sel, a, b, v) in entries {
        at += delta;
        journal.record(SimTime::from_micros(at), event_from(sel, a, b, v));
    }
    journal
}

proptest! {
    /// Recording with a monotone clock yields a time-ordered journal with
    /// strictly increasing sequence numbers.
    #[test]
    fn journals_are_time_ordered(
        entries in proptest::collection::vec(
            (0u64..500, 0..ARMS, 0u32..10_000, 0u32..64, proptest::bool::ANY),
            1..80,
        ),
    ) {
        let journal = build_journal(&entries);
        prop_assert_eq!(journal.len(), entries.len());
        jassert::that(&journal).time_ordered();
    }

    /// JSONL round-trips losslessly: same events, same digest, and the
    /// re-serialized text is byte-identical.
    #[test]
    fn jsonl_round_trips_losslessly(
        entries in proptest::collection::vec(
            (0u64..500, 0..ARMS, 0u32..10_000, 0u32..64, proptest::bool::ANY),
            0..80,
        ),
    ) {
        let journal = build_journal(&entries);
        let text = journal.to_jsonl();
        let restored = Journal::from_jsonl(&text).unwrap();
        prop_assert_eq!(restored.events(), journal.events());
        prop_assert_eq!(restored.digest(), journal.digest());
        prop_assert_eq!(restored.to_jsonl(), text);
    }

    /// The digest is a pure function of the event stream: recomputing it,
    /// and recomputing it under different `SMARTRED_THREADS` settings,
    /// always yields the same value — journal recording never consults the
    /// parallelism knob.
    #[test]
    fn digest_is_thread_setting_invariant(
        entries in proptest::collection::vec(
            (0u64..500, 0..ARMS, 0u32..10_000, 0u32..64, proptest::bool::ANY),
            0..60,
        ),
    ) {
        let mut digests = Vec::new();
        for threads in ["1", "8"] {
            std::env::set_var("SMARTRED_THREADS", threads);
            let journal = build_journal(&entries);
            digests.push(journal.digest());
        }
        std::env::remove_var("SMARTRED_THREADS");
        prop_assert_eq!(digests[0], digests[1]);
        prop_assert_eq!(digests[0], build_journal(&entries).digest());
    }

    /// `between` returns exactly the events a naive scan selects.
    #[test]
    fn windowing_agrees_with_naive_filter(
        entries in proptest::collection::vec(
            (0u64..300, 0..ARMS, 0u32..10_000, 0u32..64, proptest::bool::ANY),
            1..60,
        ),
        bounds in (0u64..20_000, 0u64..20_000),
    ) {
        let journal = build_journal(&entries);
        let (a, b) = bounds;
        let (t0, t1) = (SimTime::from_micros(a.min(b)), SimTime::from_micros(a.max(b)));
        let window: Vec<_> = journal.between(t0, t1).to_vec();
        let naive: Vec<_> = journal
            .events()
            .iter()
            .filter(|e| e.at >= t0 && e.at <= t1)
            .copied()
            .collect();
        prop_assert_eq!(window, naive);
    }

    /// Kind/task/node filters partition consistently with raw counts.
    #[test]
    fn filters_are_consistent_with_counts(
        entries in proptest::collection::vec(
            (0u64..300, 0..ARMS, 0u32..10_000, 0u32..8, proptest::bool::ANY),
            1..60,
        ),
    ) {
        let journal = build_journal(&entries);
        let by_kind: usize = EventKind::ALL.iter().map(|&k| journal.count(k)).sum();
        prop_assert_eq!(by_kind, journal.len());
        for task in 0..8u32 {
            let timeline = journal.task_timeline(task);
            prop_assert_eq!(timeline.len(), journal.for_task(task).count());
            for e in timeline {
                prop_assert_eq!(e.event.task(), Some(task));
            }
        }
    }

    /// The WAL torn-tail contract: cutting a serialized journal anywhere
    /// inside (or just before the newline of) its final record yields a
    /// prefix parse that recovers every earlier record exactly, flags the
    /// tail as torn, and reports `valid_bytes` at the last whole-record
    /// boundary — the truncate-and-resume point. A cut exactly on the
    /// record boundary is a clean (untorn) shorter journal, and the
    /// untruncated text parses whole.
    #[test]
    fn wal_prefix_survives_any_truncation_of_the_final_record(
        entries in proptest::collection::vec(
            (0u64..500, 0..ARMS, 0u32..10_000, 0u32..64, proptest::bool::ANY),
            1..40,
        ),
        cut_seed in 0usize..10_000,
    ) {
        let journal = build_journal(&entries);
        let text = journal.to_jsonl();
        let last_line_start = text[..text.len() - 1].rfind('\n').map_or(0, |i| i + 1);
        // A cut anywhere from "final record entirely missing" through
        // "only its trailing newline missing" (JSONL is pure ASCII, so
        // every byte offset is a char boundary).
        let cut = last_line_start + cut_seed % (text.len() - last_line_start);
        let prefix = Journal::from_jsonl_prefix(&text[..cut]).unwrap();
        prop_assert_eq!(prefix.torn, cut > last_line_start);
        prop_assert_eq!(prefix.valid_bytes, last_line_start);
        prop_assert_eq!(
            prefix.journal.events(),
            &journal.events()[..journal.len() - 1]
        );
        prop_assert_eq!(&prefix.journal.to_jsonl(), &text[..last_line_start]);

        let whole = Journal::from_jsonl_prefix(&text).unwrap();
        prop_assert!(!whole.torn);
        prop_assert_eq!(whole.valid_bytes, text.len());
        prop_assert_eq!(whole.journal.events(), journal.events());
    }

    /// Checksummed framing round-trips every event variant losslessly:
    /// each stamped record re-parses identically whether serialized with
    /// or without its `crc` trailer, and a whole checksummed WAL restores
    /// the original journal through both the strict and the prefix parser.
    #[test]
    fn checksummed_records_round_trip_for_every_variant(
        entries in proptest::collection::vec(
            (0u64..500, 0..ARMS, 0u32..10_000, 0u32..64, proptest::bool::ANY),
            1..60,
        ),
    ) {
        let journal = build_journal(&entries);
        let mut text = String::new();
        for e in journal.events() {
            let line = e.to_jsonl_line_checksummed();
            // Per-record: the checksummed line parses back to the same
            // stamped event the plain line does.
            let via_crc = smartred_desim::journal::Stamped::from_jsonl_line(&line).unwrap();
            prop_assert_eq!(&via_crc, e);
            text.push_str(&line);
            text.push('\n');
        }
        let restored = Journal::from_jsonl(&text).unwrap();
        prop_assert_eq!(restored.events(), journal.events());
        prop_assert_eq!(restored.digest(), journal.digest());
        let prefix = Journal::from_jsonl_prefix(&text).unwrap();
        prop_assert!(!prefix.torn);
        prop_assert_eq!(prefix.valid_bytes, text.len());
        prop_assert_eq!(prefix.journal.events(), journal.events());
    }

    /// Any single bit flip inside a non-final record of a checksummed WAL
    /// is detected: recovery refuses the segment with a parse error — it
    /// never silently accepts the damage or decodes it as a different
    /// valid event. (A flip that lands on a newline merges or splits
    /// lines; the damaged line is still newline-terminated, so it is
    /// corruption, not a torn tail.)
    #[test]
    fn any_bit_flip_in_a_nonfinal_record_is_detected(
        entries in proptest::collection::vec(
            (0u64..500, 0..ARMS, 0u32..10_000, 0u32..64, proptest::bool::ANY),
            2..30,
        ),
        flip_seed in 0u64..u64::MAX,
    ) {
        let journal = build_journal(&entries);
        let mut text = String::new();
        for e in journal.events() {
            text.push_str(&e.to_jsonl_line_checksummed());
            text.push('\n');
        }
        // Flip one bit strictly before the final record, so the damage
        // can never be excused as a torn tail.
        let last_line_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        let mut bytes = text.clone().into_bytes();
        let bit = (flip_seed % (last_line_start as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(&bytes, text.as_bytes());
        // A flip can break UTF-8 entirely; refusing at that layer counts
        // as detection too.
        let Ok(damaged) = std::str::from_utf8(&bytes) else { return Ok(()); };
        let result = Journal::from_jsonl_prefix(damaged);
        match result {
            Err(_) => {} // detected and refused — the contract
            Ok(prefix) => {
                // The only acceptable Ok: the flip created blank-line
                // noise the parser skips without inventing records. Any
                // parsed event stream must be exactly the original —
                // never a different valid decoding.
                prop_assert!(
                    !prefix.torn && prefix.journal.events() == journal.events(),
                    "single-bit flip at bit {} silently accepted: {} events vs {}",
                    bit,
                    prefix.journal.len(),
                    journal.len(),
                );
            }
        }
    }
}
