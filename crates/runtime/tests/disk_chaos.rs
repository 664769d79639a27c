//! Recovery over real files: silent rot in a checksummed WAL, a WAL of
//! several reader blocks read a block per thread, a fresh run on a
//! checkpointed path, and snapshot + suffix recovery at 1 and 4 shards.
//! The disk faults that kill a coordinator — failed syncs, short writes,
//! power loss, bit flips, failed truncations and seal writes — are
//! explored without threads in `coordinator::tests`, on a
//! `FaultyDisk` in memory.
//!
//! WAL segments and snapshots live under `target/tmp` so a failing CI
//! job can upload them as artifacts; they are removed on success.

use std::collections::HashMap;
use std::path::PathBuf;

use smartred_desim::journal::{Journal, RunEvent};
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

/// Exactly-once delivery and golden agreement across a crash hook's kill.
/// `crashed` holds the dead run's journals (one per coordinator),
/// `decided` is how many decisions recovery found durable.
///
/// The two delivery sets are disjoint and every delivered vote matches the
/// golden run. A verdict leaves only behind the commit that holds its
/// decision, in log order, and the hook's commit releases every decision
/// it made durable: per coordinator, the verdicts delivered before the
/// crash are a *prefix* of its decisions, all of them together are every
/// durable one, and the two sides together cover the golden run.
fn assert_delivery<'a>(
    ctx: &str,
    crashed: impl IntoIterator<Item = &'a Journal>,
    decided: usize,
    pre: &[TaskVerdict],
    post: &[TaskVerdict],
    golden: &HashMap<u32, Option<bool>>,
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
    assert_eq!(
        pre.len(),
        decided,
        "{ctx}: durable decisions and verdicts delivered differ"
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
        all.len(),
        golden.len(),
        "{ctx}: the two sides must cover the roster"
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

/// Silent rot in a checksummed WAL is *detected* at recovery — named with
/// its line, byte offset and seq, never parsed as a different valid event
/// nor dropped as a torn tail — and the damaged segment is quarantined so
/// a blind retry cannot silently re-trip. Two legs over one completed
/// run's segment: a bit flipped inside a record halfway through, and one
/// flipped in the newline that ends the file, which leaves the last
/// record whole with a byte after it.
#[test]
fn bit_rot_in_a_checksummed_wal_is_refused_and_quarantined() {
    quiet_injected_panics();
    let tasks = roster(8);
    let wal = wal_path("bit-rot");
    let cfg = RuntimeConfig {
        wal_checksum: true,
        ..chaos_cfg(Some(wal.clone()))
    };
    let (run, verdicts) = run_roster(cfg.clone(), &tasks);
    assert!(!run.crashed);
    assert_eq!(verdicts.len(), tasks.len());
    let segment = std::fs::read(&wal).unwrap();
    let line_start = |at: usize| {
        let newline = segment[..at].iter().rposition(|&b| b == b'\n');
        newline.map_or(0, |nl| nl + 1)
    };
    for (leg, at) in [
        ("inside a record", line_start(segment.len() / 2) + 2),
        ("final newline", segment.len() - 1),
    ] {
        let mut bytes = segment.clone();
        bytes[at] ^= 1;
        std::fs::write(&wal, &bytes).unwrap();
        let refused = Runtime::recover(cfg.clone(), strategy(), chaos_worker, &tasks);
        let Err(RecoveryError::Parse(parse)) = refused else {
            panic!("{leg}: a rotted WAL must be refused as corruption");
        };
        // The run logged from seq 0 with no blank line.
        let start = line_start(at);
        let line = segment[..start].iter().filter(|&&b| b == b'\n').count() + 1;
        assert_eq!(
            (parse.line, parse.offset, parse.seq),
            (line, start, Some(line as u64 - 1)),
            "{leg}: {parse}"
        );
        // The segment was quarantined for forensics; the original path is
        // gone, so a retry fails on the missing file instead of re-tripping.
        assert_eq!(std::fs::read(quarantined(&wal)).unwrap(), bytes, "{leg}");
        assert!(!wal.exists(), "{leg}");
        cleanup(&wal);
    }
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
    //! Checkpoints on real files: a fresh run must not pair with an
    //! earlier run's snapshot, and snapshot + suffix recovery must produce
    //! per-shard starting reports bit-identical to a full replay of each
    //! shard's complete in-memory history, at 1 and 4 shards.

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
