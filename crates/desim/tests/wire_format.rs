//! Pins the journal's on-disk format to literal bytes.
//!
//! `fixtures/wire_v1.jsonl` holds every [`RunEvent`] variant (and every
//! `DepartureReason` / `FaultKind` name) twice: the first half in plain
//! framing, the second half — the same events at later stamps — in `crc`
//! framing. A WAL written by one build must stay readable by the next, so
//! this file is never regenerated: a change that makes this test fail has
//! changed the wire format or the digest.

use smartred_desim::journal::{EventKind, Journal, Stamped};

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
