//! Property-based tests of the journal's core contracts: recording keeps
//! time order, JSONL serialization round-trips losslessly, digests are a
//! pure function of the event stream (and in particular independent of the
//! `SMARTRED_THREADS` parallelism knob) equal to a byte-at-a-time FNV-1a
//! fold, and windowing agrees with a naive filter.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use smartred_desim::disk::Disk;
use smartred_desim::journal::{
    assert as jassert, DepartureReason, EventKind, FaultKind, Journal, RunEvent, Stamped, WalWriter,
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

/// Every kind, at small, ordinary and extreme field values, reads back
/// to the entry that was written, in both framings.
#[test]
fn every_kind_reads_back_in_both_framings() {
    for sel in 0..ARMS {
        for (a, b, v) in [(0, 0, false), (7_919, 63, true), (u32::MAX, u32::MAX, true)] {
            let entry = Stamped {
                at: SimTime::from_micros(u64::from(a) * 3),
                seq: u64::from(b) << 20,
                event: event_from(sel, a, b, v),
            };
            for line in [entry.to_jsonl_line(), entry.to_jsonl_line_checksummed()] {
                assert_eq!(Stamped::from_jsonl_line(&line), Ok(entry), "{line}");
            }
        }
    }
}

/// The reader is strict: each of these is valid JSON for (or a near miss
/// of) a record the lenient reader it replaced would have had to catch by
/// re-encoding, and each is refused with a message that names the field
/// or the token expected in its place.
#[test]
fn non_canonical_spellings_are_refused_by_name() {
    let wave = Stamped {
        at: SimTime::from_micros(5),
        seq: 1,
        event: RunEvent::WaveOpened {
            task: 7,
            wave: 1,
            jobs: 3,
        },
    };
    let plain = wave.to_jsonl_line();
    assert_eq!(
        plain,
        r#"{"at":5,"seq":1,"kind":"wave_opened","task":7,"wave":1,"jobs":3}"#
    );
    let crc = wave.to_jsonl_line_checksummed();
    let hex = crc.len() - 18..crc.len() - 2;
    let with_hex = |digits: &str| format!("{}{digits}{}", &crc[..hex.start], &crc[hex.end..]);
    let first_letter = crc[hex.clone()]
        .find(|c: char| c.is_ascii_lowercase())
        .expect("sixteen hex digits with no letter: pick another record");
    let mut upper = crc.clone().into_bytes();
    upper[hex.start + first_letter] ^= 0x20;
    let flipped = if crc.ends_with("0\"}") { "1" } else { "0" };

    let table: Vec<(&str, String, &str)> = vec![
        (
            "leading zero",
            plain.replace(r#""task":7"#, r#""task":07"#),
            "field 'task' has a leading zero",
        ),
        (
            "explicit sign",
            plain.replace(r#""wave":1"#, r#""wave":+1"#),
            "field 'wave' is not an integer",
        ),
        (
            "float for an integer",
            plain.replace(r#""wave":1"#, r#""wave":1.0"#),
            r#"expected ,"jobs":"#,
        ),
        (
            "exponent for an integer",
            plain.replace(r#""task":7"#, r#""task":7e0"#),
            r#"expected ,"wave":"#,
        ),
        (
            "u32 overflow",
            plain.replace(r#""task":7"#, r#""task":4294967296"#),
            "field 'task' exceeds u32",
        ),
        (
            "u64 overflow",
            plain.replace(r#""at":5"#, r#""at":18446744073709551616"#),
            "field 'at' exceeds u64",
        ),
        (
            "reordered keys",
            plain.replace(r#""task":7,"wave":1"#, r#""wave":1,"task":7"#),
            r#"expected ,"task":"#,
        ),
        (
            "reordered head",
            plain.replace(r#""at":5,"seq":1"#, r#""seq":1,"at":5"#),
            r#"expected {"at":"#,
        ),
        (
            "duplicate key",
            plain.replace(r#""task":7"#, r#""task":7,"task":7"#),
            r#"expected ,"wave":"#,
        ),
        (
            "unknown key",
            plain.replace(r#""jobs":3"#, r#""jobs":3,"extra":1"#),
            "expected the record to close",
        ),
        (
            "missing field",
            plain.replace(r#","jobs":3"#, ""),
            r#"expected ,"jobs":"#,
        ),
        (
            "missing seq",
            plain.replace(r#","seq":1"#, ""),
            r#"expected ,"seq":"#,
        ),
        (
            "field of another variant",
            plain.replace(r#""jobs":3"#, r#""attempt":3"#),
            r#"expected ,"jobs":"#,
        ),
        (
            "unknown kind",
            plain.replace("wave_opened", "wave_opens"),
            "expected the kind of a known event",
        ),
        (
            "unquoted kind",
            plain.replace(r#""wave_opened""#, "wave_opened"),
            "expected the kind of a known event",
        ),
        (
            "space after a colon",
            plain.replace(r#""at":5"#, r#""at": 5"#),
            "field 'at' is not an integer",
        ),
        (
            "space after a comma",
            plain.replace(r#","seq""#, r#", "seq""#),
            r#"expected ,"seq":"#,
        ),
        ("leading space", format!(" {plain}"), r#"expected {"at":"#),
        (
            "trailing space",
            format!("{plain} "),
            "expected the record to close",
        ),
        (
            "trailing brace",
            format!("{plain}}}"),
            "expected the record to close",
        ),
        (
            "two records on a line",
            format!("{plain}{plain}"),
            "expected the record to close",
        ),
        ("empty", String::new(), r#"expected {"at":"#),
        (
            "wrong crc",
            with_hex(&format!("{}{flipped}", &crc[hex.start..hex.end - 1])),
            "checksum mismatch: record states",
        ),
        (
            "upper-case crc digit",
            String::from_utf8(upper).unwrap(),
            "malformed checksum trailer",
        ),
        (
            "non-hex crc digit",
            with_hex("000000000000000g"),
            "malformed checksum trailer",
        ),
        (
            "15-digit crc",
            with_hex(&crc[hex.start + 1..hex.end]),
            "malformed checksum trailer",
        ),
        (
            "17-digit crc",
            with_hex(&format!("0{}", &crc[hex.clone()])),
            "malformed checksum trailer",
        ),
        (
            "space after the crc",
            format!("{crc} "),
            "malformed checksum trailer",
        ),
    ];
    for (what, line, expected) in &table {
        assert_ne!(line, &plain, "{what}: the edit did not apply");
        assert_ne!(line, &crc, "{what}: the edit did not apply");
        match Stamped::from_jsonl_line(line) {
            Ok(entry) => panic!("{what}: {line} was read as {entry:?}"),
            Err(msg) => assert!(msg.contains(expected), "{what}: {line}: {msg}"),
        }
    }

    // Per-type spellings on the variants that carry them.
    let verdict = Stamped {
        at: SimTime::from_micros(9),
        seq: 2,
        event: RunEvent::VerdictReached {
            task: 7,
            value: true,
            degraded: false,
            confidence: 1.0,
        },
    }
    .to_jsonl_line();
    let departed = Stamped {
        at: SimTime::from_micros(9),
        seq: 3,
        event: RunEvent::NodeDeparted {
            node: 4,
            reason: DepartureReason::Churn,
        },
    }
    .to_jsonl_line();
    for (what, line, expected) in [
        (
            "integer for the float",
            verdict.replace("1.0}", "1}"),
            "field 'confidence' is not in shortest round-trip form",
        ),
        (
            "padded float",
            verdict.replace("1.0}", "1.00}"),
            "field 'confidence' is not in shortest round-trip form",
        ),
        (
            "exponent float",
            verdict.replace("1.0}", "1e0}"),
            "field 'confidence' is not in shortest round-trip form",
        ),
        (
            "signed float",
            verdict.replace("1.0}", "+1.0}"),
            "field 'confidence' is not in shortest round-trip form",
        ),
        (
            "not a float",
            verdict.replace("1.0}", "one}"),
            "field 'confidence' is not a number",
        ),
        (
            "integer for a bool",
            verdict.replace(r#""value":true"#, r#""value":1"#),
            "field 'value' is not a bool",
        ),
        (
            "capitalised bool",
            verdict.replace(r#""degraded":false"#, r#""degraded":False"#),
            "field 'degraded' is not a bool",
        ),
        (
            "unknown reason",
            departed.replace("churn", "bored"),
            "field 'reason' is not a DepartureReason",
        ),
        (
            "unquoted reason",
            departed.replace(r#""churn""#, "churn"),
            "field 'reason' is not a DepartureReason",
        ),
    ] {
        match Stamped::from_jsonl_line(&line) {
            Ok(entry) => panic!("{what}: {line} was read as {entry:?}"),
            Err(msg) => assert!(msg.contains(expected), "{what}: {line}: {msg}"),
        }
    }
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

/// A [`Disk`] that keeps what it is handed; clones share it, so the test
/// reads what the writer wrote.
#[derive(Debug, Default, Clone)]
struct Recorded(Arc<Mutex<Vec<u8>>>);

impl Disk for Recorded {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn sync_data(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.0.lock().unwrap().truncate(len as usize);
        Ok(())
    }
    fn seek_end(&mut self) -> std::io::Result<u64> {
        Ok(self.0.lock().unwrap().len() as u64)
    }
}

/// `10^k + d`, saturating, for `k < 20`; `u64::MAX` past that: the values
/// at which a decimal encoder gains a digit.
fn near_pow10(k: u32, d: i64) -> u64 {
    match 10u64.checked_pow(k) {
        Some(p) => p.saturating_add_signed(d),
        None => u64::MAX,
    }
}

/// `event` with its `u64` fields and times, if it has any, at `wide`, and
/// its confidence, if it has one, at `confidence`.
fn widen(event: RunEvent, wide: u64, confidence: f64) -> RunEvent {
    let time = SimTime::from_micros(wide);
    match event {
        RunEvent::JobDispatched {
            job, task, node, ..
        } => RunEvent::JobDispatched {
            job,
            task,
            node,
            eta: time,
        },
        RunEvent::TransferStarted {
            xfer,
            job,
            task,
            node,
            ..
        } => RunEvent::TransferStarted {
            xfer,
            job,
            task,
            node,
            bytes: wide,
            eta: time,
        },
        RunEvent::CheckpointTaken { .. } => RunEvent::CheckpointTaken {
            events: wide,
            digest: wide,
        },
        RunEvent::VerdictReached {
            task,
            value,
            degraded,
            ..
        } => RunEvent::VerdictReached {
            task,
            value,
            degraded,
            confidence,
        },
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The writer seals checksums in groups at write-out; the per-record
    /// encoders seal one record. Whatever the kinds and the widths of
    /// their numbers, however many records a commit holds (so every
    /// remainder of a group occurs), with the 64 KiB cap writing in
    /// between, and with checksums switched on and off inside one batch,
    /// the file is the per-record lines in order.
    #[test]
    fn the_writer_writes_what_the_line_encoders_write(
        entries in proptest::collection::vec(
            ((0..ARMS, any::<u32>(), any::<u32>(), proptest::bool::ANY),
             (0u32..21, 0u32..21, -2i64..3, 0.0f64..1.0)),
            1..80,
        ),
        commits in proptest::collection::vec(1usize..10, 1..40),
        (flips, over_cap, start_checksummed, toggles) in
            (0u8..3, 0u8..4, proptest::bool::ANY, any::<u64>()),
    ) {
        let (flips, over_cap) = (flips == 0, over_cap == 0);
        let disk = Recorded::default();
        let mut checksums = start_checksummed;
        let mut wal = WalWriter::with_disk(Box::new(disk.clone()), false).with_checksums(checksums);
        let mut expected = String::new();
        let mut sizes = commits.iter().copied().cycle();
        // Past the cap: the entries again under fresh stamps, and a first
        // commit of more than 64 KiB.
        let (total, mut left) = match over_cap {
            true => (2_000, 1_900),
            false => (entries.len(), sizes.next().unwrap()),
        };
        for (i, &((sel, a, b, v), (k_at, k_seq, d, confidence))) in
            entries.iter().cycle().take(total).enumerate()
        {
            let e = Stamped {
                at: SimTime::from_micros(near_pow10(k_at, d)),
                seq: near_pow10(k_seq, d).wrapping_add(i as u64),
                event: widen(event_from(sel, a, b, v), near_pow10(k_at.max(k_seq), d), confidence),
            };
            if flips && toggles >> (i % 64) & 1 == 1 {
                checksums = !checksums;
                wal = wal.with_checksums(checksums);
            }
            wal.append(&e).unwrap();
            expected.push_str(&match checksums {
                true => e.to_jsonl_line_checksummed(),
                false => e.to_jsonl_line(),
            });
            expected.push('\n');
            left -= 1;
            if left == 0 {
                let written = !disk.0.lock().unwrap().is_empty();
                prop_assert!(written || !over_cap, "1 900 records, and the cap never wrote");
                wal.commit().unwrap();
                left = sizes.next().unwrap();
            }
        }
        wal.commit().unwrap();
        prop_assert_eq!(String::from_utf8(disk.0.lock().unwrap().clone()).unwrap(), expected);
    }
}

/// `Journal::digest` one FNV-1a step a byte, computed from the JSONL text
/// so it shares no code with the digest. Per entry:
/// `at` and `seq` as little-endian `u64`s, the kind's name, then each
/// field in wire order: integers little-endian at their width, floats by
/// their bits, bools as one byte, reason and fault names as their bytes.
fn serial_digest(journal: &Journal) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for line in journal.to_jsonl().lines() {
        for field in line[1..line.len() - 1].split(',') {
            let (key, value) = field.split_once(':').unwrap();
            match key.trim_matches('"') {
                "kind" | "reason" | "fault" => eat(value.trim_matches('"').as_bytes()),
                "value" | "degraded" => eat(&[u8::from(value == "true")]),
                "confidence" => eat(&value.parse::<f64>().unwrap().to_bits().to_le_bytes()),
                "at" | "seq" | "eta" | "bytes" | "events" | "digest" => {
                    eat(&value.parse::<u64>().unwrap().to_le_bytes())
                }
                _ => eat(&value.parse::<u32>().unwrap().to_le_bytes()),
            }
        }
    }
    hash
}

/// Integers at which the count of zero bytes above the highest nonzero
/// byte changes: every run of 0–8 zero bytes ends one of them, and every
/// run of 0–4 ends one that fits a `u32`.
const BOUNDARY: [u64; 12] = [
    0,
    1,
    255,
    256,
    1 << 16,
    1 << 24,
    u32::MAX as u64,
    1 << 32,
    1 << 40,
    1 << 48,
    1 << 56,
    u64::MAX,
];

/// Every kind, with `at`, `seq`, the integers, the times and the
/// confidence at boundary values (floats at 0.0, −0.0 and NaN), digests to
/// the serial fold.
#[test]
fn digest_is_the_serial_fold_at_boundary_values() {
    let confidences = [0.0, -0.0, f64::NAN, 1.0];
    let per_journal = u64::from(ARMS) * BOUNDARY.len() as u64;
    for (i, &first_seq) in BOUNDARY.iter().enumerate() {
        let mut journal = Journal::resume_at(first_seq.min(u64::MAX - per_journal));
        for &wide in &BOUNDARY {
            let narrow = u32::try_from(wide).unwrap_or(u32::MAX);
            for sel in 0..ARMS {
                let event = event_from(sel, narrow, narrow, sel % 2 == 0);
                let confidence = confidences[(i + usize::from(sel)) % confidences.len()];
                journal.record(SimTime::from_micros(wide), widen(event, wide, confidence));
            }
        }
        assert_eq!(
            journal.digest(),
            serial_digest(&journal),
            "seq from {first_seq}"
        );
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

    /// The digest is the serial fold, over every kind at any field values.
    #[test]
    fn digest_is_the_serial_fold(
        entries in proptest::collection::vec(
            (0u64..500, 0..ARMS, any::<u32>(), any::<u32>(), proptest::bool::ANY),
            0..80,
        ),
    ) {
        let journal = build_journal(&entries);
        prop_assert_eq!(journal.digest(), serial_digest(&journal));
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

    /// Accepted means canonical. A plain-framed line (no checksum to
    /// catch the damage) with one byte substituted, inserted or deleted is
    /// either refused or — when the edit happens to spell another record
    /// exactly as the writer would — read as that record, which then
    /// re-encodes to the edited line byte for byte. The reader never
    /// repairs, skips or reinterprets.
    #[test]
    fn an_accepted_line_reencodes_to_itself(
        entry in (0u64..1_000_000, 0u64..100_000, 0..ARMS, 0u32..10_000, 0u32..64, proptest::bool::ANY),
        edits in proptest::collection::vec((0u8..3, 0usize..10_000, 0x20u8..0x7f), 1..64),
    ) {
        let (at, seq, sel, a, b, v) = entry;
        let original = Stamped { at: SimTime::from_micros(at), seq, event: event_from(sel, a, b, v) };
        let line = original.to_jsonl_line();
        prop_assert_eq!(Stamped::from_jsonl_line(&line), Ok(original));
        for (op, at, byte) in edits {
            let mut edited = line.clone().into_bytes();
            let at = at % edited.len();
            match op {
                0 => edited[at] = byte,
                1 => edited.insert(at, byte),
                _ => { edited.remove(at); }
            }
            let edited = String::from_utf8(edited).expect("ASCII in, ASCII out");
            if let Ok(accepted) = Stamped::from_jsonl_line(&edited) {
                prop_assert_eq!(accepted.to_jsonl_line(), edited);
            }
        }
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
            let via_crc = Stamped::from_jsonl_line(&line).unwrap();
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
