//! Storage-fault chaos for the durable runtime: injected disk failures
//! (failed fsync, short writes, power loss mid-commit, silent bit rot)
//! under the seeded [`DiskFaultPlan`], plus the checkpoint/compaction
//! matrix — snapshot + WAL-suffix recovery must produce reports
//! bit-identical to a full-history replay at 1 and 4 shards.
//!
//! WAL segments and snapshots live under `target/tmp` so a failing CI
//! `disk-chaos` job can upload them as artifacts; they are removed on
//! success.

use std::collections::HashMap;
use std::path::PathBuf;

use smartred_desim::disk::DiskFaultPlan;
use smartred_desim::journal::{EventKind, Journal, RunEvent};
use smartred_runtime::{
    checkpoint_path, report_from_journal, Payload, RecoveryError, Runtime, RuntimeConfig,
    TaskVerdict,
};

mod common;
use common::*;

const SEED: u64 = 0xd15c_cafe;

/// `task → vote` of every delivered verdict, asserting no duplicates.
fn votes(verdicts: &[TaskVerdict]) -> HashMap<u32, Option<bool>> {
    let mut map = HashMap::new();
    for v in verdicts {
        assert!(
            map.insert(v.task, v.vote).is_none(),
            "task {} delivered twice",
            v.task
        );
    }
    map
}

/// The tasks a journal decides (verdict, cap or poisoning), in log order.
fn decisions(journal: &Journal) -> Vec<u32> {
    let decided = journal.events().iter().filter_map(|e| match e.event {
        RunEvent::VerdictReached { task, .. }
        | RunEvent::TaskCapped { task }
        | RunEvent::TaskPoisoned { task, .. } => Some(task),
        _ => None,
    });
    decided.collect()
}

/// Exactly-once delivery and golden agreement across a crash, and what the
/// crash may cost. `crashed` holds the dead run's journals (one per
/// coordinator), `decided` is how many decisions recovery found durable.
///
/// The two delivery sets are disjoint and every delivered vote matches the
/// golden run. A verdict leaves only behind the commit that holds its
/// decision, in log order, so per coordinator the verdicts delivered
/// before the crash are a *prefix* of its decisions, and every one of them
/// is durable. What is durable but was never delivered is never re-sent
/// (decisions are exactly-once, delivery at-most-once): that suffix is at
/// most `bound` long — zero when the crash hook kills, whose commit
/// releases every decision it made durable, the decisions of the one
/// failed commit, at most `max_active`, when the disk does — and it is
/// exactly what the two sides together miss of the golden run.
fn assert_delivery<'a>(
    ctx: &str,
    crashed: impl IntoIterator<Item = &'a Journal>,
    decided: usize,
    pre: &[TaskVerdict],
    post: &[TaskVerdict],
    golden: &HashMap<u32, Option<bool>>,
    bound: usize,
) {
    let (pre_votes, post_votes) = (votes(pre), votes(post));
    for journal in crashed {
        let logged = decisions(journal);
        let delivered: Vec<u32> = pre
            .iter()
            .map(|v| v.task)
            .filter(|task| logged.contains(task))
            .collect();
        assert_eq!(
            delivered[..],
            logged[..delivered.len()],
            "{ctx}: delivered verdicts are not a prefix of the log's decisions"
        );
    }
    let lost = decided.checked_sub(pre.len()).unwrap_or_else(|| {
        panic!(
            "{ctx}: {} verdicts delivered, only {decided} decisions durable",
            pre.len()
        )
    });
    assert!(
        lost <= bound,
        "{ctx}: {lost} durable decisions undelivered, at most {bound} allowed"
    );
    for task in pre_votes.keys() {
        assert!(
            !post_votes.contains_key(task),
            "{ctx}: task {task} delivered on both sides of the crash"
        );
    }
    let mut all = pre_votes;
    all.extend(post_votes);
    for (task, vote) in &all {
        assert_eq!(
            golden.get(task),
            Some(vote),
            "{ctx}: task {task} diverged from the golden run"
        );
    }
    assert_eq!(
        all.len() + lost,
        golden.len(),
        "{ctx}: delivered plus durable-but-undelivered must cover the roster"
    );
}

/// Where recovery moves a segment it refuses.
fn quarantined(wal: &std::path::Path) -> PathBuf {
    let mut path = wal.as_os_str().to_owned();
    path.push(".quarantined");
    PathBuf::from(path)
}

fn cleanup(wal: &PathBuf) {
    let _ = std::fs::remove_file(wal);
    let _ = std::fs::remove_file(checkpoint_path(wal));
    let _ = std::fs::remove_file(quarantined(wal));
}

/// The durability settings the fault legs run under, as
/// `(label, wal_sync, wal_batch)`: a write (and sync) per record, one per
/// coordinator turn, and flush-only.
const DURABILITY: [(&str, bool, u64); 3] = [
    ("sync1", true, 1),
    ("sync64", true, 64),
    ("flush", false, 1),
];

/// The disk-fault half of the matrix: each injected storage failure must
/// crash the coordinator (never limp on over a disk it cannot trust),
/// and recovery on a healthy disk must converge to the golden verdicts
/// with every delivery exactly-once across the crash.
///
/// Fault indices count `write_all`/`sync_data` calls, and a call carries
/// however many records the coordinator logged in a turn, decisions
/// included. A turn admits nothing while it drains replies, so it decides
/// at most the `max_active` tasks that were open: the only count every
/// durability setting guarantees is one write (and, when syncing, one
/// sync) per `max_active` decisions. Every index is at most that floor,
/// and each leg asserts the crash: an index the run never reaches fails
/// the test instead of passing it.
#[test]
fn injected_disk_faults_crash_the_coordinator_and_recovery_converges() {
    quiet_injected_panics();
    const MAX_ACTIVE: usize = 4;
    let tasks = roster(24);
    let (golden, golden_verdicts) = run_roster(chaos_cfg(None), &tasks);
    assert!(!golden.crashed);
    let golden_votes = votes(&golden_verdicts);
    assert_eq!(golden_votes.len(), tasks.len());
    let golden_shape = shape(&golden.journal);

    let floor = (tasks.len() / MAX_ACTIVE) as u64;
    let plans: Vec<(&str, DiskFaultPlan)> = vec![
        (
            "fsync-early",
            DiskFaultPlan {
                seed: SEED,
                fail_fsync_at: Some(floor / 3),
                ..DiskFaultPlan::default()
            },
        ),
        (
            "fsync-late",
            DiskFaultPlan {
                seed: SEED ^ 1,
                fail_fsync_at: Some(floor),
                ..DiskFaultPlan::default()
            },
        ),
        (
            "short-write",
            DiskFaultPlan {
                seed: SEED ^ 2,
                short_write_at: Some(floor / 2),
                ..DiskFaultPlan::default()
            },
        ),
        (
            "power-loss",
            DiskFaultPlan {
                seed: SEED ^ 3,
                crash_after_writes: Some(floor - 2),
                ..DiskFaultPlan::default()
            },
        ),
    ];
    for (durability, sync, batch) in DURABILITY {
        for &(fault, plan) in &plans {
            if plan.fail_fsync_at.is_some() && !sync {
                continue; // a flush-only WAL never calls fsync
            }
            let name = format!("{fault}-{durability}");
            let durable_cfg = |wal: &PathBuf| RuntimeConfig {
                wal_sync: sync,
                wal_batch: batch,
                max_active: MAX_ACTIVE,
                ..chaos_cfg(Some(wal.clone()))
            };
            let wal = wal_path(&name);
            let mut cfg = durable_cfg(&wal);
            cfg.disk_faults = Some(plan);
            let (crashed, pre_verdicts) = run_roster(cfg, &tasks);
            assert!(crashed.crashed, "{name}: the injected fault must crash");
            assert_eq!(crashed.report, report_from_journal(&crashed.journal));

            // Recovery reopens the real (now healthy) file; torn iff the
            // fault persisted a partial final record without its newline.
            let bytes = std::fs::read(&wal).unwrap();
            let expect_torn = !bytes.is_empty() && !bytes.ends_with(b"\n");
            let (run, post_verdicts, rec) = recover_chaos(durable_cfg(&wal), &tasks);
            assert!(!run.crashed, "{name}: recovery must complete");
            assert_eq!(rec.torn_tail, expect_torn, "{name}: torn-tail detection");
            assert_eq!(report_from_journal(&run.journal), run.report);

            // The recovered journal carries the full history, so the strong
            // convergence check applies: every task decided, golden outcome.
            assert_eq!(
                shape(&run.journal),
                golden_shape,
                "{name}: recovered run diverged from golden"
            );
            // The disk failed one commit: its decisions, at most a turn's
            // worth, may be durable and undelivered.
            assert_delivery(
                &name,
                [&crashed.journal],
                rec.tasks_decided,
                &pre_verdicts,
                &post_verdicts,
                &golden_votes,
                MAX_ACTIVE,
            );
            cleanup(&wal);
        }
    }
}

/// Silent single-bit rot in a checksummed WAL is *detected* at recovery —
/// named with its byte offset (and seq when sniffable), never parsed as a
/// different valid event — and the damaged segment is quarantined so a
/// blind retry cannot silently re-trip.
#[test]
fn bit_rot_in_a_checksummed_wal_is_refused_and_quarantined() {
    quiet_injected_panics();
    let tasks = roster(8);
    for (durability, sync, batch) in DURABILITY {
        let wal = wal_path(&format!("bit-rot-{durability}"));
        let mut cfg = chaos_cfg(Some(wal.clone()));
        cfg.wal_sync = sync;
        cfg.wal_batch = batch;
        cfg.wal_checksum = true;
        // Flip one seeded bit after a write every setting is guaranteed
        // to reach (one per `max_active` decisions) and to follow with
        // more: the rot lands strictly before later commits, so the
        // damaged record is newline-terminated — in-place corruption, not
        // a torn tail. Had the flip not fired, recovery below would
        // succeed and fail the test.
        cfg.max_active = 2;
        let floor = (tasks.len() / cfg.max_active) as u64;
        cfg.disk_faults = Some(DiskFaultPlan {
            seed: SEED ^ 4,
            flip_bit_after: Some(floor / 2),
            ..DiskFaultPlan::default()
        });
        let (run, verdicts) = run_roster(cfg, &tasks);
        assert!(!run.crashed, "bit rot is silent — the run completes");
        assert_eq!(verdicts.len(), tasks.len());

        let err = match Runtime::recover(
            chaos_cfg(Some(wal.clone())),
            strategy(),
            chaos_worker,
            &tasks,
        ) {
            Ok(_) => panic!("{durability}: corrupt WAL must not recover"),
            Err(err) => err,
        };
        let RecoveryError::Parse(parse) = &err else {
            panic!("{durability}: expected a parse refusal, got {err:?}");
        };
        let shown = parse.to_string();
        assert!(shown.contains("byte"), "no byte offset in: {shown}");

        // The segment was quarantined for forensics; the original path is
        // gone, so a retry fails on the missing file instead of re-tripping.
        assert!(
            quarantined(&wal).exists(),
            "damaged segment must be quarantined"
        );
        assert!(!wal.exists());
        cleanup(&wal);
    }
}

/// Without checksums the WAL format is unchanged — no `crc` field — and
/// a crashed unchecksummed run recovers with the on-disk segment equal
/// to the final journal byte for byte, pinning the legacy format.
#[test]
fn legacy_unchecksummed_wal_recovers_byte_identically() {
    quiet_injected_panics();
    let tasks = roster(6);
    let wal = wal_path("legacy");
    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.crash_after_events = Some(30);
    let (crashed, _) = run_roster(cfg, &tasks);
    assert!(crashed.crashed);
    let text = std::fs::read_to_string(&wal).unwrap();
    assert!(
        !text.contains("\"crc\":"),
        "checksums are opt-in; the default format must not change"
    );

    let (run, _, _) = recover_chaos(chaos_cfg(Some(wal.clone())), &tasks);
    assert!(!run.crashed);
    let on_disk = std::fs::read_to_string(&wal).unwrap();
    assert_eq!(on_disk, run.journal.to_jsonl());
    cleanup(&wal);
}

/// A checksummed run survives the same crash sweep: every on-disk line
/// carries its `crc` trailer, and recovery converges.
#[test]
fn checksummed_wal_round_trips_through_crash_and_recovery() {
    quiet_injected_panics();
    let tasks = roster(6);
    let wal = wal_path("checksummed");
    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.wal_checksum = true;
    cfg.crash_after_events = Some(30);
    let (crashed, pre) = run_roster(cfg, &tasks);
    assert!(crashed.crashed);
    let text = std::fs::read_to_string(&wal).unwrap();
    assert!(text.lines().all(|l| l.contains("\"crc\":\"")));

    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.wal_checksum = true;
    let (run, post, rec) = recover_chaos(cfg, &tasks);
    assert!(!run.crashed);
    assert!(!rec.torn_tail);
    assert_eq!(report_from_journal(&run.journal), run.report);
    let decided = shape(&run.journal);
    assert_eq!(decided.len(), tasks.len(), "every task must be decided");
    // Capped and poisoned tasks deliver vote-less verdicts.
    let golden: HashMap<u32, Option<bool>> = decided
        .iter()
        .map(|&(task, _, vote, _)| (task, vote))
        .collect();
    assert_delivery(
        "checksummed",
        [&crashed.journal],
        rec.tasks_decided,
        &pre,
        &post,
        &golden,
        0,
    );
    let on_disk = std::fs::read_to_string(&wal).unwrap();
    assert!(on_disk.lines().all(|l| l.contains("\"crc\":\"")));
    cleanup(&wal);
}

/// Recovery reads a WAL longer than one block of the reader (1 MiB) a
/// block per thread; what it makes of the file must not depend on that.
/// One crashed run's segment, of at least three blocks, is recovered as
/// it stands, with a byte flipped in a record of the second block, and
/// with its last record torn: the golden shape, a refusal naming that
/// record, and a truncation to exactly the last whole record.
#[test]
fn a_wal_of_several_blocks_recovers_is_refused_and_is_truncated_alike() {
    quiet_injected_panics();
    const BLOCK: usize = 1 << 20;
    let tasks = roster(1_600);
    let big_cfg = |wal: Option<PathBuf>| RuntimeConfig {
        queue_cap: tasks.len(),
        wal_checksum: true,
        ..chaos_cfg(wal)
    };
    let (golden, _) = run_roster(big_cfg(None), &tasks);
    assert!(!golden.crashed);
    let golden_shape = shape(&golden.journal);

    let wal = wal_path("blocks");
    let events = golden.journal.events().len() as u64;
    let mut cfg = big_cfg(Some(wal.clone()));
    cfg.crash_after_events = Some(events * (85 + SEED % 10) / 100);
    let (crashed, _) = run_roster(cfg, &tasks);
    assert!(crashed.crashed);
    let segment = std::fs::read(&wal).unwrap();
    assert!(
        segment.len() > 3 * BLOCK,
        "{} bytes do not span three blocks: recovery would not be read in parallel",
        segment.len()
    );
    let line_start = |at: usize| segment[..at].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    let flipped = line_start(BLOCK + BLOCK / 2);
    let flipped_line = segment[..flipped].iter().filter(|&&b| b == b'\n').count() + 1;
    let last = line_start(segment.len() - 1);

    // (leg, byte to flip, bytes of the segment kept)
    let legs = [
        ("clean", None, segment.len()),
        ("flipped", Some(flipped + 2), segment.len()),
        ("torn", None, (last + segment.len()) / 2),
    ];
    for (leg, flip, kept) in legs {
        let mut bytes = segment[..kept].to_vec();
        if let Some(at) = flip {
            bytes[at] ^= 1;
            std::fs::write(&wal, &bytes).unwrap();
            let refused =
                Runtime::recover(big_cfg(Some(wal.clone())), strategy(), chaos_worker, &tasks);
            let Err(RecoveryError::Parse(parse)) = refused else {
                panic!("a flipped byte must be refused as corruption");
            };
            // The crashed run logged from seq 0 with no blank line.
            assert_eq!(
                (parse.line, parse.offset, parse.seq),
                (flipped_line, flipped, Some(flipped_line as u64 - 1)),
                "{parse}"
            );
            assert!(parse.message.starts_with("checksum mismatch"), "{parse}");
            assert_eq!(std::fs::read(quarantined(&wal)).unwrap(), bytes);
            assert!(!wal.exists());
            continue;
        }
        std::fs::write(&wal, &bytes).unwrap();
        let (run, _, rec) = recover_chaos(big_cfg(Some(wal.clone())), &tasks);
        assert!(!run.crashed, "{leg}");
        let torn = kept < segment.len();
        assert_eq!(rec.torn_tail, torn, "{leg}");
        let whole = if torn { last } else { segment.len() };
        let replayed = segment[..whole].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(rec.events_replayed, replayed, "{leg}");
        assert_eq!(shape(&run.journal), golden_shape, "{leg}");
        assert_eq!(report_from_journal(&run.journal), run.report, "{leg}");
        // The resumed writer cut the file at the last whole record and
        // appended behind it: every whole record is still there, and the
        // file reads back as the run.
        let on_disk = std::fs::read(&wal).unwrap();
        assert_eq!(on_disk[..whole], segment[..whole], "{leg}");
        let reread = Journal::read_wal(&wal, 2).unwrap().unwrap();
        assert!(!reread.torn, "{leg}");
        assert_eq!(reread.valid_bytes, on_disk.len(), "{leg}");
        assert_eq!(reread.journal.events(), run.journal.events(), "{leg}");
    }
    cleanup(&wal);
}

mod checkpoint_matrix {
    //! The checkpoint/compaction half of the tentpole: snapshot + suffix
    //! recovery must produce a starting report bit-identical to a full
    //! replay of the crashed run's complete in-memory history, at 1 and
    //! 4 shards, across a sweep of crash points.

    use super::*;
    use smartred_runtime::{ShardedConfig, ShardedRuntime};

    const EVERY: u64 = 20;

    fn ckpt_cfg(wal: Option<PathBuf>) -> RuntimeConfig {
        let mut cfg = chaos_cfg(wal);
        cfg.checkpoint_every = Some(EVERY);
        cfg
    }

    /// Three submission bursts with a drained quiescent window between
    /// them — the idle gaps where the coordinator takes checkpoints.
    fn run_bursts(runtime: &Runtime, tasks: &[(u32, Payload)]) -> Vec<TaskVerdict> {
        let client = runtime.client();
        let mut verdicts = Vec::new();
        for burst in tasks.chunks(tasks.len().div_ceil(3)) {
            submit_all(&client, burst);
            verdicts.extend(drain_verdicts(&client));
            if runtime.is_crashed() {
                break;
            }
        }
        verdicts
    }

    /// Kill a checkpointing coordinator across a sweep of points; each
    /// recovery's starting report must equal a full-history fold of the
    /// crashed run's in-memory journal (which is never compacted), and
    /// the continued run must converge to the golden verdicts.
    #[test]
    fn snapshot_plus_suffix_equals_full_replay_across_the_crash_sweep() {
        quiet_injected_panics();
        let tasks = roster(12);
        let (golden, golden_verdicts) = run_roster(chaos_cfg(None), &tasks);
        let golden_votes = votes(&golden_verdicts);
        let events = golden.journal.events().len() as u64;

        let mut saw_checkpointed_recovery = false;
        for pct in [30u64, 60, 90] {
            let crash_at = (events * pct / 100).max(1);
            let wal = wal_path(&format!("ckpt-sweep-{pct}"));
            let mut cfg = ckpt_cfg(Some(wal.clone()));
            cfg.crash_after_events = Some(crash_at);
            let runtime = start_chaos(cfg);
            let pre_verdicts = run_bursts(&runtime, &tasks);
            assert!(runtime.is_crashed(), "pct {pct}: crash point must trip");
            let crashed = runtime.finish();
            assert!(crashed.crashed);

            let (run, post_verdicts, rec) = recover_chaos(ckpt_cfg(Some(wal.clone())), &tasks);
            assert!(!run.crashed);
            // The acceptance bar: snapshot + suffix == full replay, bit
            // for bit — the crashed run's in-memory journal holds the
            // complete history even though its WAL was compacted.
            assert_eq!(
                rec.report,
                report_from_journal(&crashed.journal),
                "pct {pct}: snapshot+suffix fold diverged from full replay"
            );
            if rec.checkpoint_events > 0 {
                saw_checkpointed_recovery = true;
                assert!(
                    (rec.events_replayed as u64) < crash_at,
                    "pct {pct}: a checkpoint must bound the replayed suffix"
                );
            }

            assert_delivery(
                &format!("pct {pct}"),
                [&crashed.journal],
                rec.tasks_decided,
                &pre_verdicts,
                &post_verdicts,
                &golden_votes,
                0,
            );
            cleanup(&wal);
        }
        assert!(
            saw_checkpointed_recovery,
            "the sweep never exercised a snapshot+suffix recovery — \
             lower EVERY or move the crash points"
        );
    }

    /// An uninterrupted checkpointing run compacts its WAL: the final
    /// on-disk segment is a checkpoint seal plus a bounded suffix, far
    /// shorter than the full history, and recovery from it self-heals.
    #[test]
    fn compaction_bounds_the_on_disk_segment() {
        quiet_injected_panics();
        let tasks = roster(12);
        let wal = wal_path("compaction");
        let runtime = start_chaos(ckpt_cfg(Some(wal.clone())));
        let verdicts = run_bursts(&runtime, &tasks);
        assert_eq!(votes(&verdicts).len(), tasks.len());
        let run = runtime.finish();
        assert!(!run.crashed);

        let text = std::fs::read_to_string(&wal).unwrap();
        let on_disk_lines = text.lines().count();
        assert!(
            on_disk_lines < run.journal.events().len(),
            "no compaction: {on_disk_lines} on-disk lines vs {} events",
            run.journal.events().len()
        );
        assert!(
            text.starts_with("{\"at\":")
                && text.lines().next().unwrap().contains("checkpoint_taken"),
            "a compacted segment must begin with its checkpoint seal"
        );
        assert!(checkpoint_path(&wal).exists());
        cleanup(&wal);
    }

    /// The crash windows inside a checkpoint leave a segment with nothing
    /// at or past the snapshot's event count, and each heals from the
    /// snapshot alone: recovery replays nothing, re-seals the segment with
    /// the snapshot's seal, and re-delivers nothing. Three legs beside the
    /// last snapshot of one run: the empty segment (died after the
    /// truncation, before the seal); the journal's records from the
    /// second-to-last seal up to the last one (died between the
    /// snapshot's rename and the truncation, at a later checkpoint); and
    /// its records from seq 0 up to the first seal (the same window at the
    /// first checkpoint).
    #[test]
    fn empty_suffix_window_heals_from_the_snapshot_alone() {
        quiet_injected_panics();
        let tasks = roster(12);
        let wal = wal_path("heal");
        let runtime = start_chaos(ckpt_cfg(Some(wal.clone())));
        let verdicts = run_bursts(&runtime, &tasks);
        assert_eq!(votes(&verdicts).len(), tasks.len());
        let run = runtime.finish();
        assert!(!run.crashed);
        let seals = run.journal.of_kind(EventKind::CheckpointTaken);
        let seals: Vec<usize> = seals.map(|e| e.seq as usize).collect();
        let [.., before, last] = seals[..] else {
            panic!("the bursts must checkpoint at least twice, got {seals:?}")
        };
        let seal = run.journal.events()[last];
        // The state the last snapshot holds: every task decided, since
        // the final drain left a quiescent window.
        let mut sealed = run.journal.clone();
        sealed.truncate(last);

        let lines = |range: std::ops::Range<usize>| -> String {
            let records = run.journal.events()[range].iter();
            records.map(|e| e.to_jsonl_line() + "\n").collect()
        };
        for (leg, segment) in [
            ("empty", String::new()),
            ("later checkpoint", lines(before..last)),
            ("first checkpoint", lines(0..seals[0])),
        ] {
            std::fs::write(&wal, segment).unwrap();
            let (run, post_verdicts, rec) = recover_chaos(ckpt_cfg(Some(wal.clone())), &tasks);
            assert!(!run.crashed, "{leg}");
            assert_eq!(
                rec.events_replayed, 0,
                "{leg}: nothing to replay after a heal"
            );
            assert_eq!(rec.checkpoint_events, seal.seq, "{leg}");
            assert_eq!(rec.tasks_decided, tasks.len(), "{leg}");
            assert_eq!(rec.tasks_resumed, 0, "{leg}");
            assert_eq!(rec.tasks_seeded, 0, "{leg}: decided tasks must not re-run");
            assert_eq!(rec.report, report_from_journal(&sealed), "{leg}");
            assert!(
                post_verdicts.is_empty(),
                "{leg}: healing must not re-deliver verdicts"
            );
            // The heal re-sealed the segment with the snapshot's seal.
            let text = std::fs::read_to_string(&wal).unwrap();
            let healed = Journal::from_jsonl(&text).unwrap();
            assert_eq!(healed.events().first(), Some(&seal), "{leg}");
        }
        cleanup(&wal);
    }

    /// A fresh run never inherits a snapshot: run B starts on the WAL
    /// path run A checkpointed and dies before it logs anything, and
    /// recovering B answers B's own tasks — A's snapshot, had it stayed
    /// beside B's empty segment, would have claimed them decided.
    #[test]
    fn a_fresh_run_never_inherits_a_snapshot() {
        quiet_injected_panics();
        let tasks = roster(12);
        let wal = wal_path("fresh-run");
        let runtime = start_chaos(ckpt_cfg(Some(wal.clone())));
        assert_eq!(votes(&run_bursts(&runtime, &tasks)).len(), tasks.len());
        assert!(!runtime.finish().crashed);
        assert!(checkpoint_path(&wal).exists(), "run A checkpointed");

        let b = &tasks[..4];
        let mut cfg = ckpt_cfg(Some(wal.clone()));
        cfg.crash_after_events = Some(0);
        let runtime = start_chaos(cfg);
        let client = runtime.client();
        for (_, payload) in b {
            // Shed once the coordinator is gone; the roster re-admits.
            let _ = client.submit(payload.clone());
        }
        drop(client);
        assert!(runtime.finish().crashed);
        assert!(
            !checkpoint_path(&wal).exists(),
            "run B removed A's snapshot"
        );

        let (run, post_verdicts, rec) = recover_chaos(ckpt_cfg(Some(wal.clone())), b);
        assert!(!run.crashed);
        assert_eq!((rec.checkpoint_events, rec.tasks_decided), (0, 0));
        assert_eq!(rec.tasks_seeded, b.len());
        let answered = votes(&post_verdicts);
        assert!(b.iter().all(|(task, _)| answered.contains_key(task)));
        cleanup(&wal);
    }

    /// A WAL segment that starts mid-stream with no checkpoint seal (a
    /// stale snapshot cannot vouch for it) is corrupt, not recoverable.
    #[test]
    fn mid_stream_segment_without_a_seal_is_refused() {
        quiet_injected_panics();
        let tasks = roster(6);
        let wal = wal_path("mid-stream");
        let mut cfg = chaos_cfg(Some(wal.clone()));
        cfg.crash_after_events = Some(30);
        let (crashed, _) = run_roster(cfg, &tasks);
        assert!(crashed.crashed);

        // Drop the first record: the segment now starts at seq 1.
        let text = std::fs::read_to_string(&wal).unwrap();
        let rest = &text[text.find('\n').unwrap() + 1..];
        std::fs::write(&wal, rest).unwrap();
        let err = match Runtime::recover(
            chaos_cfg(Some(wal.clone())),
            strategy(),
            chaos_worker,
            &tasks,
        ) {
            Ok(_) => panic!("mid-stream segment must not recover"),
            Err(err) => err,
        };
        assert!(
            matches!(&err, RecoveryError::Corrupt(msg) if msg.contains("mid-stream")),
            "got {err:?}"
        );
        cleanup(&wal);
    }

    /// The sharded checkpoint matrix: at 1 and 4 shards, every shard
    /// checkpoints its own segment, crashed shards recover snapshot +
    /// suffix, and each per-shard starting report is bit-identical to a
    /// full replay of that shard's complete history.
    #[test]
    fn sharded_checkpoint_recovery_is_bit_identical_at_one_and_four_shards() {
        quiet_injected_panics();
        let tasks = roster(16);
        for shards in [1usize, 4] {
            let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
                "smartred-disk-chaos-{}-sharded-{shards}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let cfg =
                |wal_dir: Option<PathBuf>, crash_after: Option<Vec<Option<u64>>>| ShardedConfig {
                    base: ckpt_cfg(None),
                    shards,
                    wal_dir,
                    admission_cap: 512,
                    crash_after,
                };

            // Golden sharded run under the same burst structure: its
            // per-shard event counts place the crash points past the
            // first quiescent window, so checkpoints are exercised.
            let (golden, golden_verdicts) = run_sharded_bursts(cfg(None, None), &tasks);
            assert!(!golden.crashed);
            let golden_votes = votes(&golden_verdicts);
            let crash_points: Vec<Option<u64>> = golden
                .shards
                .iter()
                .map(|s| Some((s.journal.events().len() as u64 * 3 / 5).max(1)))
                .collect();

            let (crashed, pre_verdicts) =
                run_sharded_bursts(cfg(Some(dir.clone()), Some(crash_points)), &tasks);
            assert!(crashed.crashed, "{shards} shards: crash points must trip");

            let (runtime, client, reports) = ShardedRuntime::recover(
                cfg(Some(dir.clone()), None),
                strategy(),
                chaos_worker,
                &tasks,
            )
            .expect("parallel shard recovery");
            let post_verdicts = drain_verdicts(&client);
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);

            assert_eq!(reports.len(), shards);
            for (k, rec) in reports.iter().enumerate() {
                assert_eq!(
                    rec.report,
                    report_from_journal(&crashed.shards[k].journal),
                    "{shards} shards: shard {k} snapshot+suffix diverged \
                     from full replay"
                );
            }
            assert!(
                reports.iter().any(|r| r.checkpoint_events > 0),
                "{shards} shards: no shard exercised a checkpointed recovery"
            );
            assert_delivery(
                &format!("{shards} shards"),
                crashed.shards.iter().map(|s| &s.journal),
                reports.iter().map(|r| r.tasks_decided).sum(),
                &pre_verdicts,
                &post_verdicts,
                &golden_votes,
                0,
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    fn run_sharded_bursts(
        cfg: ShardedConfig,
        tasks: &[(u32, Payload)],
    ) -> (smartred_runtime::ShardedRun, Vec<TaskVerdict>) {
        let runtime = ShardedRuntime::start(cfg, strategy(), chaos_worker);
        let client = runtime.client();
        let mut verdicts = Vec::new();
        for burst in tasks.chunks(tasks.len().div_ceil(3)) {
            submit_all(&client, burst);
            verdicts.extend(drain_verdicts(&client));
            if runtime.is_crashed() {
                break;
            }
        }
        drop(client);
        (runtime.finish(), verdicts)
    }
}

/// A disk fault *during* checkpointed operation is survivable: the fsync
/// failure crashes the coordinator mid-run, and recovery on a healthy
/// disk — snapshot or not — still converges with exactly-once delivery.
#[test]
fn disk_fault_during_a_checkpointed_run_recovers() {
    quiet_injected_panics();
    let tasks = roster(8);
    let (_, golden_verdicts) = run_roster(chaos_cfg(None), &tasks);
    let golden_votes = votes(&golden_verdicts);

    let wal = wal_path("ckpt-fault");
    let mut cfg = chaos_cfg(Some(wal.clone()));
    let max_active = cfg.max_active;
    cfg.checkpoint_every = Some(10);
    cfg.disk_faults = Some(DiskFaultPlan {
        seed: SEED ^ 7,
        fail_fsync_at: Some(100),
        ..DiskFaultPlan::default()
    });
    let runtime = start_chaos(cfg);
    let client = runtime.client();
    let mut pre_verdicts = Vec::new();
    for burst in tasks.chunks(3) {
        submit_all(&client, burst);
        pre_verdicts.extend(drain_verdicts(&client));
        if runtime.is_crashed() {
            break;
        }
    }
    drop(client);
    let crashed = runtime.finish();
    assert!(crashed.crashed, "the 100th fsync must kill the coordinator");

    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.checkpoint_every = Some(10);
    let (run, post_verdicts, rec) = recover_chaos(cfg, &tasks);
    assert!(!run.crashed);
    assert_eq!(rec.report, report_from_journal(&crashed.journal));
    assert_delivery(
        "ckpt-fault",
        [&crashed.journal],
        rec.tasks_decided,
        &pre_verdicts,
        &post_verdicts,
        &golden_votes,
        max_active,
    );
    cleanup(&wal);
}
