//! Pins the journal's on-disk format to literal bytes.
//!
//! `fixtures/wire_v1.jsonl` holds every [`RunEvent`] variant (and every
//! `DepartureReason` / `FaultKind` name) twice: the first half in plain
//! framing, the second half — the same events at later stamps — in `crc`
//! framing. A WAL written by one build must stay readable by the next, so
//! this file is never regenerated: a change that makes this test fail has
//! changed the wire format or the digest. The WAL writer, at any commit
//! size, must write the checksummed half as it stands.

use smartred_desim::journal::{EventKind, Journal, RunEvent, Stamped, WalWriter};
use smartred_desim::time::SimTime;

const FIXTURE: &str = include_str!("fixtures/wire_v1.jsonl");
const DIGEST_HEX: &str = "5ceedaf23721a318";

#[test]
fn wire_v1_fixture_parses_and_reencodes_byte_for_byte() {
    let journal = Journal::from_jsonl(FIXTURE).unwrap();
    let half = journal.len() / 2;
    assert_eq!(half * 2, FIXTURE.lines().count());
    assert_eq!(journal.digest_hex(), DIGEST_HEX);

    let (plain, checksummed) = journal.events().split_at(half);
    let mut reencoded = String::new();
    for e in plain {
        reencoded.push_str(&e.to_jsonl_line());
        reencoded.push('\n');
    }
    let plain_bytes = reencoded.len();
    for e in checksummed {
        reencoded.push_str(&e.to_jsonl_line_checksummed());
        reencoded.push('\n');
    }
    assert_eq!(reencoded, FIXTURE);

    // The whole-journal encoder is the per-line plain encoder.
    let first = Journal::from_jsonl(&FIXTURE[..plain_bytes]).unwrap();
    assert_eq!(first.to_jsonl(), &FIXTURE[..plain_bytes]);

    // Both framings carry the same events, and each covers every kind.
    for (p, c) in plain.iter().zip(checksummed) {
        assert_eq!(p.event, c.event);
    }
    for &kind in EventKind::ALL {
        assert!(
            plain.iter().any(|e| e.event.kind() == kind),
            "fixture has no {} line",
            kind.name()
        );
    }

    // The WAL reader and the per-line parser agree with the strict reader.
    let prefix = Journal::from_jsonl_prefix(FIXTURE).unwrap();
    assert!(!prefix.torn);
    assert_eq!(prefix.valid_bytes, FIXTURE.len());
    assert_eq!(prefix.journal, journal);
    for (line, e) in FIXTURE.lines().zip(journal.events()) {
        assert_eq!(&Stamped::from_jsonl_line(line).unwrap(), e);
    }
}

/// The writer seals its checksums a group at a time when it writes out;
/// whatever a commit holds — one record, a group and change, a whole
/// group, or everything — the checksummed half of the fixture is what
/// reaches the disk.
#[test]
fn the_wal_writer_writes_the_checksummed_half_byte_for_byte() {
    let journal = Journal::from_jsonl(FIXTURE).unwrap();
    let (plain, checksummed) = journal.events().split_at(journal.len() / 2);
    let plain_bytes: usize = FIXTURE.lines().take(plain.len()).map(|l| l.len() + 1).sum();
    let expected = &FIXTURE[plain_bytes..];
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smartred-wire-v1-{}.wal.jsonl", std::process::id()));
    for batch in [1, 3, 4, 5, checksummed.len()] {
        let mut wal = WalWriter::create(&path, false)
            .unwrap()
            .with_checksums(true);
        for records in checksummed.chunks(batch) {
            for e in records {
                wal.append(e).unwrap();
            }
            wal.commit().unwrap();
        }
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, expected, "commit every {batch}");
    }
    std::fs::remove_file(&path).ok();
}

/// Integers are written two digits at a time: at every width they are
/// spelled as `to_string` spells them, and read back.
#[test]
fn integers_are_spelled_as_to_string_spells_them_at_every_width() {
    let mut values = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
    for k in 1..20 {
        values.extend([10u64.pow(k) - 1, 10u64.pow(k)]);
    }
    for v in values {
        let entry = Stamped {
            at: SimTime::from_micros(v),
            seq: v,
            event: RunEvent::CheckpointTaken {
                events: v,
                digest: v,
            },
        };
        let line = entry.to_jsonl_line();
        let n = v.to_string();
        assert_eq!(
            line,
            format!(
                r#"{{"at":{n},"seq":{n},"kind":"checkpoint_taken","events":{n},"digest":{n}}}"#
            )
        );
        for line in [line, entry.to_jsonl_line_checksummed()] {
            assert_eq!(Stamped::from_jsonl_line(&line), Ok(entry), "{line}");
        }
        if let Ok(small) = u32::try_from(v) {
            let entry = Stamped {
                at: SimTime::ZERO,
                seq: 0,
                event: RunEvent::NodeJoined { node: small },
            };
            let line = entry.to_jsonl_line();
            assert!(line.ends_with(&format!(r#""node":{n}}}"#)), "{line}");
            assert_eq!(Stamped::from_jsonl_line(&line), Ok(entry), "{line}");
        }
    }
}
