//! Coordinator checkpoints: bounded-recovery snapshots paired with WAL
//! compaction.
//!
//! Without checkpoints, recovery time grows linearly with uptime — the
//! whole WAL replays on every restart. A checkpoint bounds that: at a
//! quiescent point (no open tasks, no in-flight jobs, nothing parked),
//! the coordinator serializes everything the replay would have rebuilt —
//! the decided-task set, node discipline, incarnations, quarantines,
//! blacklists, the job-id cursor, and the full live [`RuntimeReport`]
//! including its bit-exact Welford summaries — into a snapshot file next
//! to the WAL, truncates the log, and seals the fresh segment with a
//! [`RunEvent::CheckpointTaken`] record carrying the snapshot's digest.
//! Recovery then loads the snapshot and replays only the suffix.
//!
//! ## Crash windows
//!
//! A checkpoint at `E`, the count of events it compacts, stores the
//! snapshot atomically (temp file, fsync, rename, directory fsync), then
//! cuts the segment and seals the fresh one at seq `E`. Recovery pairs
//! segment and snapshot by one rule, `pair`, so a crash anywhere
//! recovers: before the rename, the old pair holds (the temp file is
//! ignored); from the rename until the seal is in the file, the segment —
//! the whole history, the last checkpoint's segment, or nothing — holds no
//! record at or past `E`, and recovery finishes the checkpoint: it empties
//! the segment, writes the seal, replays nothing; after the seal, the
//! replay starts past it. Anything else — a seal that is not the
//! snapshot's, a segment starting mid-stream with no snapshot, a damaged
//! snapshot the segment needs — is refused, naming the seqs.
//!
//! The snapshot format is deterministic line-based text with a trailing
//! FNV-1a checksum, so a damaged snapshot is detected at load, never
//! deserialized into wrong state.
//!
//! [`RunEvent::CheckpointTaken`]: smartred_desim::journal::RunEvent::CheckpointTaken

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use smartred_core::resilience::NodeDiscipline;
use smartred_desim::journal::{fnv1a_64, Journal, RunEvent, WalWriter};
use smartred_desim::time::SimTime;
use smartred_stats::Summary;

use crate::ledger::NodeState;
use crate::report::RuntimeReport;

/// The snapshot path paired with a WAL segment: same stem, `.ckpt`
/// extension (`wal.jsonl` → `wal.ckpt`).
pub fn checkpoint_path(wal: &Path) -> PathBuf {
    wal.with_extension("ckpt")
}

/// Durably removes the snapshot paired with `wal`, if there is one: a
/// fresh run's segment must not pair with an earlier run's snapshot.
pub(crate) fn discard(wal: &Path) -> io::Result<()> {
    match fs::remove_file(checkpoint_path(wal)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        removed => removed.and_then(|()| sync_dir(wal)),
    }
}

/// Makes a rename or a removal beside `path` durable.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// The one rule of the module docs' crash windows, pairing a recovered
/// `segment` with the snapshot beside it (`None`: no file; `Err`: it
/// would not load). Returns the snapshot the replay starts from, the
/// segment the recovered coordinator continues (beginning with that
/// snapshot's seal), and whether to [`finish`] a checkpoint a crash
/// interrupted, in which case the segment is its seal alone.
pub(crate) fn pair(
    snapshot: Option<Result<CheckpointState, String>>,
    segment: Journal,
) -> Result<(Option<CheckpointState>, Journal, bool), String> {
    let end = segment.next_seq();
    let first = segment.events().first().map_or(end, |e| e.seq);
    let whole = first == 0 && (!segment.is_empty() || snapshot.is_none());
    let refuse = |why: String| Err(format!("segment [{first}, {end}) {why}"));
    Ok(match snapshot {
        Some(Ok(snap)) if end <= snap.events => {
            let mut journal = Journal::resume_at(snap.events);
            journal.record(snap.last_at, snap.seal());
            (Some(snap), journal, true)
        }
        _ if whole => (None, segment, false),
        None => return refuse("starts mid-stream with no snapshot".into()),
        Some(Err(msg)) => return refuse(format!("needs its snapshot, which is unusable: {msg}")),
        Some(Ok(snap)) => match (&segment.events()[0], snap.seal()) {
            (e, seal) if e.seq == snap.events && e.event == seal => (Some(snap), segment, false),
            (e, seal) => return refuse(format!("does not begin with {seal:?}: {e:?}")),
        },
    })
}

/// Finishes a checkpoint [`pair`] found interrupted, through `wal`, the
/// segment's writer: empties the segment and writes `seal`, its new one.
pub(crate) fn finish(wal: &mut WalWriter, seal: &Journal) -> io::Result<()> {
    wal.truncate()?;
    wal.append(&seal.events()[0])?;
    wal.commit()
}

/// Everything a suffix replay needs from the compacted WAL prefix.
///
/// Checkpoints are taken only at quiescence, so there is no open-task
/// state to capture: every task ever admitted is decided, every job
/// resolved. What remains is the cross-task bookkeeping recovery would
/// otherwise fold out of the full log.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointState {
    /// Events compacted out of the WAL; the seal record's `seq` equals
    /// this, which is how recovery pairs segment and snapshot.
    pub events: u64,
    /// Stamp of the checkpoint (the recovered clock base when the
    /// suffix is empty).
    pub last_at: SimTime,
    /// The next fresh job id.
    pub next_job: u32,
    /// Decided task ids, sorted (never re-run or re-delivered).
    pub decided: Vec<u32>,
    /// Supervision state of every node that has any, as `(node, state)`,
    /// sorted: blacklist bit, restart incarnation, quarantine release
    /// stamp, strike counters.
    pub nodes: Vec<(u32, NodeState)>,
    /// The live report at the checkpoint, bit-exact: counters plus the
    /// Welford summaries, so `snapshot + suffix fold == full fold`.
    pub report: RuntimeReport,
}

fn push_summary(out: &mut String, name: &str, s: &Summary) {
    let (count, mean, m2, min, max, total) = s.to_parts();
    out.push_str(&format!(
        "summary {name} {count} {} {} {} {} {}\n",
        mean.to_bits(),
        m2.to_bits(),
        min.to_bits(),
        max.to_bits(),
        total.to_bits()
    ));
}

fn parse_summary(rest: &str, name: &str) -> Result<Summary, String> {
    let mut it = rest.split(' ');
    if it.next() != Some(name) {
        return Err(format!("expected summary {name}"));
    }
    let mut next = |what: &str| -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("summary {name}: missing {what}"))?
            .parse::<u64>()
            .map_err(|_| format!("summary {name}: bad {what}"))
    };
    let count = next("count")?;
    let mean = f64::from_bits(next("mean")?);
    let m2 = f64::from_bits(next("m2")?);
    let min = f64::from_bits(next("min")?);
    let max = f64::from_bits(next("max")?);
    let total = f64::from_bits(next("total")?);
    Ok(Summary::from_parts(count, mean, m2, min, max, total))
}

fn parse_ints<T: std::str::FromStr>(rest: &str) -> Result<Vec<T>, String> {
    rest.split(' ')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<T>().map_err(|_| format!("bad integer {t:?}")))
        .collect()
}

impl CheckpointState {
    /// The checksummed body: every field on its own line, fixed order,
    /// integers in decimal, floats as IEEE-754 bit patterns (so ±∞
    /// sentinels of empty summaries survive exactly).
    fn body(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("smartred-checkpoint v1\n");
        out.push_str(&format!("events {}\n", self.events));
        out.push_str(&format!("last_at {}\n", self.last_at.as_micros()));
        out.push_str(&format!("next_job {}\n", self.next_job));
        let join = |ids: &[u32]| ids.iter().map(u32::to_string).collect::<Vec<_>>().join(" ");
        out.push_str(&format!("decided {}\n", join(&self.decided)));
        let blacklisted: Vec<u32> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.blacklisted)
            .map(|&(node, _)| node)
            .collect();
        out.push_str(&format!("blacklisted {}\n", join(&blacklisted)));
        for (node, n) in self.nodes.iter().filter(|(_, n)| n.incarnation > 0) {
            out.push_str(&format!("incarnation {node} {}\n", n.incarnation));
        }
        for (node, n) in &self.nodes {
            if let Some(until) = n.quarantined_until {
                out.push_str(&format!("quarantine {node} {}\n", until.as_micros()));
            }
        }
        for (node, n) in &self.nodes {
            if n.discipline != NodeDiscipline::default() {
                let (s, q, last, p) = n.discipline.to_parts();
                out.push_str(&format!("discipline {node} {s} {q} {last} {p}\n"));
            }
        }
        let r = &self.report;
        out.push_str(&format!(
            "report {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
            r.tasks_completed,
            r.tasks_correct,
            r.tasks_capped,
            r.total_jobs,
            r.timeouts,
            r.retries,
            r.worker_crashes,
            r.worker_restarts,
            r.stale_replies,
            r.tasks_poisoned,
            r.audits,
            r.audit_failures,
            r.verdicts_voided,
            r.tasks_retallied,
            r.hedges_launched,
            r.hedges_won,
            r.hedges_wasted
        ));
        push_summary(&mut out, "jobs_per_task", &r.jobs_per_task);
        push_summary(&mut out, "waves_per_task", &r.waves_per_task);
        push_summary(&mut out, "response_time", &r.response_time);
        out.push_str(&format!("makespan {}\n", r.makespan_units.to_bits()));
        out
    }

    /// The snapshot digest recorded in the WAL's
    /// [`RunEvent::CheckpointTaken`] seal — FNV-1a over the body, the
    /// same value as the file's own trailing checksum line.
    ///
    /// [`RunEvent::CheckpointTaken`]: smartred_desim::journal::RunEvent::CheckpointTaken
    pub fn digest(&self) -> u64 {
        fnv1a_64(self.body().as_bytes())
    }

    /// The record that seals the segment this snapshot compacted.
    pub fn seal(&self) -> RunEvent {
        let (events, digest) = (self.events, self.digest());
        RunEvent::CheckpointTaken { events, digest }
    }

    /// Atomically writes the snapshot: temp file in the same directory,
    /// contents + checksum line, fsync, rename over the target, directory
    /// fsync. A crash at any point leaves either the old snapshot or the
    /// new one, never a torn mix; once this returns, the new one is durable.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        let body = self.body();
        let digest = fnv1a_64(body.as_bytes());
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.write_all(format!("crc {digest:016x}\n").as_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        sync_dir(path)
    }

    /// Loads and verifies a snapshot. Any damage — a missing or wrong
    /// checksum line, an unknown header, a malformed field — is an error
    /// naming the problem; a snapshot never deserializes partially.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read snapshot: {e}"))?;
        let Some(crc_start) = text.trim_end().rfind('\n') else {
            return Err("snapshot too short".into());
        };
        let body = &text[..crc_start + 1];
        let crc_line = text[crc_start + 1..].trim_end();
        let stated = crc_line
            .strip_prefix("crc ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| "missing checksum line".to_string())?;
        let actual = fnv1a_64(body.as_bytes());
        if stated != actual {
            return Err(format!(
                "snapshot checksum mismatch: file states {stated:016x} but \
                 content hashes to {actual:016x}"
            ));
        }

        let mut lines = body.lines();
        if lines.next() != Some("smartred-checkpoint v1") {
            return Err("unknown snapshot header".into());
        }
        let mut events = None;
        let mut last_at = None;
        let mut next_job = None;
        let mut decided = Vec::new();
        let mut nodes: BTreeMap<u32, NodeState> = BTreeMap::new();
        let mut report = RuntimeReport::new();
        let mut saw_report = false;
        for line in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "events" => events = rest.parse::<u64>().ok(),
                "last_at" => last_at = rest.parse::<u64>().ok().map(SimTime::from_micros),
                "next_job" => next_job = rest.parse::<u32>().ok(),
                "decided" => decided = parse_ints(rest)?,
                "blacklisted" => {
                    for node in parse_ints::<u32>(rest)? {
                        nodes.entry(node).or_default().blacklisted = true;
                    }
                }
                "incarnation" => {
                    let v: Vec<u32> = parse_ints(rest)?;
                    let [node, inc] = v[..] else {
                        return Err(format!("bad incarnation line {line:?}"));
                    };
                    nodes.entry(node).or_default().incarnation = inc;
                }
                "quarantine" => {
                    let v: Vec<u64> = parse_ints(rest)?;
                    let [node, until] = v[..] else {
                        return Err(format!("bad quarantine line {line:?}"));
                    };
                    nodes.entry(node as u32).or_default().quarantined_until =
                        Some(SimTime::from_micros(until));
                }
                "discipline" => {
                    let v: Vec<u64> = parse_ints(rest)?;
                    let [node, s, q, last, p] = v[..] else {
                        return Err(format!("bad discipline line {line:?}"));
                    };
                    nodes.entry(node as u32).or_default().discipline =
                        NodeDiscipline::from_parts(s as u32, q as u32, last, p as u32);
                }
                "report" => {
                    let v: Vec<u64> = parse_ints(rest)?;
                    if v.len() != 17 {
                        return Err(format!("bad report line {line:?}"));
                    }
                    report.tasks_completed = v[0] as usize;
                    report.tasks_correct = v[1] as usize;
                    report.tasks_capped = v[2] as usize;
                    report.total_jobs = v[3];
                    report.timeouts = v[4];
                    report.retries = v[5];
                    report.worker_crashes = v[6];
                    report.worker_restarts = v[7];
                    report.stale_replies = v[8];
                    report.tasks_poisoned = v[9] as usize;
                    report.audits = v[10];
                    report.audit_failures = v[11];
                    report.verdicts_voided = v[12];
                    report.tasks_retallied = v[13];
                    report.hedges_launched = v[14];
                    report.hedges_won = v[15];
                    report.hedges_wasted = v[16];
                    saw_report = true;
                }
                "summary" => {
                    if let Ok(s) = parse_summary(rest, "jobs_per_task") {
                        report.jobs_per_task = s;
                    } else if let Ok(s) = parse_summary(rest, "waves_per_task") {
                        report.waves_per_task = s;
                    } else if let Ok(s) = parse_summary(rest, "response_time") {
                        report.response_time = s;
                    } else {
                        return Err(format!("unknown summary line {line:?}"));
                    }
                }
                "makespan" => {
                    report.makespan_units = f64::from_bits(
                        rest.parse::<u64>()
                            .map_err(|_| format!("bad makespan line {line:?}"))?,
                    );
                }
                _ => return Err(format!("unknown snapshot line {line:?}")),
            }
        }
        let (Some(events), Some(last_at), Some(next_job)) = (events, last_at, next_job) else {
            return Err("snapshot missing a required field".into());
        };
        if !saw_report {
            return Err("snapshot missing the report line".into());
        }
        Ok(Self {
            events,
            last_at,
            next_job,
            decided,
            nodes: nodes.into_iter().collect(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointState {
        let mut report = RuntimeReport::new();
        report.tasks_completed = 7;
        report.tasks_correct = 6;
        report.total_jobs = 41;
        report.jobs_per_task.record(5.0);
        report.jobs_per_task.record(7.5);
        report.response_time.record(0.125);
        report.makespan_units = 3.75;
        CheckpointState {
            events: 120,
            last_at: SimTime::from_micros(98_765),
            next_job: 44,
            decided: vec![0, 1, 2, 5, 9],
            nodes: vec![
                (
                    2,
                    NodeState {
                        incarnation: 1,
                        ..NodeState::default()
                    },
                ),
                (
                    3,
                    NodeState {
                        discipline: NodeDiscipline::from_parts(2, 1, 55, 0),
                        incarnation: 4,
                        quarantined_until: None,
                        blacklisted: true,
                    },
                ),
                (
                    6,
                    NodeState {
                        discipline: NodeDiscipline::from_parts(1, 0, 77, 2),
                        quarantined_until: Some(SimTime::from_micros(1_234_567)),
                        ..NodeState::default()
                    },
                ),
            ],
            report,
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("smartred-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.ckpt");
        let state = sample();
        state.store(&path).unwrap();
        let loaded = CheckpointState::load(&path).unwrap();
        assert_eq!(loaded, state);
        // The digest this sample had when nodes were four parallel lists:
        // the file format is unchanged.
        assert_eq!(loaded.digest(), 0xf9b6_a030_a4ac_a4c9);
        // An empty report's ±∞ min/max sentinels survive too.
        let empty = CheckpointState {
            report: RuntimeReport::new(),
            ..state
        };
        empty.store(&path).unwrap();
        assert_eq!(CheckpointState::load(&path).unwrap(), empty);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshots_are_refused() {
        let dir = std::env::temp_dir().join(format!("smartred-ckpt-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.ckpt");
        let state = sample();
        state.store(&path).unwrap();
        let good = fs::read_to_string(&path).unwrap();
        // Flip one digit inside the body: checksum mismatch.
        let bad = good.replacen("events 120", "events 121", 1);
        fs::write(&path, &bad).unwrap();
        let err = CheckpointState::load(&path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // Drop the checksum line entirely.
        let clipped = good.rsplit_once("crc ").unwrap().0;
        fs::write(&path, clipped).unwrap();
        assert!(CheckpointState::load(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    /// `end - first` records from seq `first`, the first of them `seal`
    /// when given.
    fn segment(first: u64, end: u64, seal: Option<RunEvent>) -> Journal {
        let mut journal = Journal::resume_at(first);
        for seq in first..end {
            let event = seal.filter(|_| seq == first).unwrap_or(RunEvent::RunEnded);
            journal.record(SimTime::from_micros(seq), event);
        }
        journal
    }

    /// Every on-disk state a crash can leave recovers by the one rule, and
    /// every other is refused with the seqs named: seen as which snapshot
    /// the replay starts from, which seqs it replays, and whether the
    /// checkpoint is finished.
    #[test]
    fn one_rule_pairs_every_segment_with_its_snapshot() {
        let snap = sample();
        let (e, seal) = (snap.events, snap.seal());
        let loaded = || Some(Ok(sample()));
        let damaged = || Some(Err("snapshot checksum mismatch".to_string()));
        let earlier = Some(RunEvent::CheckpointTaken {
            events: 60,
            digest: 7,
        });
        let seqs = |r: std::ops::Range<u64>| r.collect::<Vec<_>>();
        let recovers = [
            (
                "seq 0, no snapshot",
                None,
                segment(0, 5, None),
                (None, seqs(0..5), false),
            ),
            (
                "seq 0 past the snapshot",
                loaded(),
                segment(0, 125, None),
                (None, seqs(0..125), false),
            ),
            (
                "seq 0, damaged snapshot",
                damaged(),
                segment(0, 5, None),
                (None, seqs(0..5), false),
            ),
            (
                "sealed",
                loaded(),
                segment(e, 125, Some(seal)),
                (Some(e), seqs(121..125), false),
            ),
            (
                "first checkpoint cut short",
                loaded(),
                segment(0, e, None),
                (Some(e), vec![], true),
            ),
            (
                "later checkpoint cut short",
                loaded(),
                segment(60, e, earlier),
                (Some(e), vec![], true),
            ),
            (
                "empty segment",
                loaded(),
                segment(0, 0, None),
                (Some(e), vec![], true),
            ),
            (
                "empty, no snapshot",
                None,
                segment(0, 0, None),
                (None, vec![], false),
            ),
        ];
        for (name, snapshot, seg, want) in recovers {
            let paired = pair(snapshot, seg).unwrap_or_else(|err| panic!("{name}: {err}"));
            let (base, journal, finish) = paired;
            let past_seal = usize::from(base.is_some());
            let replayed = journal.events()[past_seal..]
                .iter()
                .map(|r| r.seq)
                .collect();
            assert_eq!((base.map(|b| b.events), replayed, finish), want, "{name}");
            if finish {
                let sealed = (snap.last_at, e, seal);
                let only = journal.events().iter().map(|r| (r.at, r.seq, r.event));
                assert_eq!(only.collect::<Vec<_>>(), [sealed], "{name}: the seal alone");
            }
        }
        let newer = Some(RunEvent::CheckpointTaken {
            events: 130,
            digest: snap.digest(),
        });
        let forged = Some(RunEvent::CheckpointTaken {
            events: e,
            digest: snap.digest() ^ 1,
        });
        let refused = [
            (
                "seal newer than the snapshot",
                loaded(),
                segment(130, 135, newer),
                "[130, 135) does not begin with CheckpointTaken { events: 120",
            ),
            (
                "seal with another digest",
                loaded(),
                segment(e, 125, forged),
                "[120, 125) does not begin with CheckpointTaken { events: 120",
            ),
            (
                "mid-stream, no snapshot",
                None,
                segment(7, 9, None),
                "[7, 9) starts mid-stream",
            ),
            (
                "damaged snapshot, sealed",
                damaged(),
                segment(e, 125, Some(seal)),
                "[120, 125) needs",
            ),
            (
                "damaged snapshot, empty",
                damaged(),
                segment(0, 0, None),
                "[0, 0) needs",
            ),
        ];
        for (name, snapshot, seg, named) in refused {
            let err = pair(snapshot, seg).unwrap_err();
            assert!(err.contains(named), "{name}: {err}");
        }
    }

    #[test]
    fn checkpoint_path_sits_next_to_the_wal() {
        assert_eq!(
            checkpoint_path(Path::new("/tmp/x/wal-shard-3.jsonl")),
            Path::new("/tmp/x/wal-shard-3.ckpt")
        );
    }
}
