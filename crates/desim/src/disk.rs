//! Disk abstraction and deterministic fault injection for the WAL.
//!
//! The write-ahead log trusts its storage twice over: every byte written
//! is assumed durable once `sync_data` returns, and every byte read back
//! at recovery is assumed to be the byte that was written. Real disks
//! break both assumptions — short writes on a full volume, `fsync`
//! failures that drop dirty pages (the "fsyncgate" class of bugs), torn
//! sectors from power loss, and silent single-bit rot. This module puts a
//! seam under the WAL file handle so those failures can be injected
//! deterministically: [`RealDisk`] is a transparent passthrough, and
//! [`FaultyDisk`] is a file in memory that executes a seeded
//! [`DiskFaultPlan`], making the k-th write, sync or truncation fail the
//! same way on every run.
//!
//! Determinism matters more than realism here: every injected failure is
//! a pure function of the plan's seed and the operation count — no wall
//! clock, no global RNG — so a test that dies at a fault replays from its
//! seed alone.

use std::fmt::Debug;
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::sync::{Arc, Mutex, MutexGuard};

/// The file operations the WAL writer needs, virtualized so a fault
/// injector can sit between the writer and the OS.
pub trait Disk: Debug + Send {
    /// Writes the whole buffer: one committed batch of the WAL writer —
    /// one or more whole `record + '\n'` lines, never a partial record.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes userspace buffers to the OS.
    fn flush(&mut self) -> io::Result<()>;
    /// Forces written data to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Seeks to the end of the file, returning the offset.
    fn seek_end(&mut self) -> io::Result<u64>;
}

/// A transparent [`Disk`] over a real [`File`] — the production path.
#[derive(Debug)]
pub struct RealDisk(File);

impl RealDisk {
    /// Wraps an open file handle.
    pub fn new(file: File) -> Self {
        Self(file)
    }
}

impl Disk for RealDisk {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        self.0.seek(SeekFrom::End(0))
    }
}

/// A deterministic schedule of storage failures, applied by
/// [`FaultyDisk`]. Operation indices are 1-based counts of calls on the
/// disk; `None` disables that fault. A *write* is one `write_all` call,
/// i.e. one batch the WAL writer committed — as many records as were
/// appended since its previous write, not one record. How many writes a
/// run makes therefore depends on its barriers; the only floor is one per
/// commit that had something to write. A *truncation* is one `set_len`
/// call, which a checkpoint makes to compact the log. All randomness
/// (short-write lengths, flipped-bit positions) derives from `seed` via
/// splitmix64, so a plan replays identically across runs and platforms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// Seeds the short-write length and bit-flip position draws.
    pub seed: u64,
    /// The k-th `sync_data` call fails with an I/O error. The data may or
    /// may not be on stable storage — exactly the ambiguity that makes a
    /// failed fsync unrecoverable without rereading the file (fsyncgate).
    pub fail_fsync_at: Option<u64>,
    /// The k-th write persists only a seeded strict prefix of its batch —
    /// some whole records and at most one partial one — and returns
    /// `WriteZero`. The disk itself stays alive; it is the writer's job
    /// to refuse further appends.
    pub short_write_at: Option<u64>,
    /// After `k` completed writes, the next write persists a seeded
    /// strict prefix of its batch and the disk goes dead — every later
    /// operation errors until [`FaultyDisk::restart`]. Models power loss
    /// mid-commit.
    pub crash_after_writes: Option<u64>,
    /// After the k-th write completes, one seeded bit of the file so far
    /// is flipped in place: silent corruption discovered only at
    /// read-back. On an even draw the bit is in the file's last byte —
    /// the newline that ends the last record, where rot looks most like a
    /// torn append — and otherwise anywhere, in that batch or an earlier
    /// one.
    pub flip_bit_after: Option<u64>,
    /// The k-th truncation fails and leaves the file whole: a checkpoint
    /// that stored its snapshot and could not compact the log.
    pub fail_truncation_at: Option<u64>,
    /// The first write after the k-th truncation fails and writes
    /// nothing: a checkpoint that compacted the log and could not seal the
    /// fresh segment.
    pub fail_write_after_truncation: Option<u64>,
}

impl DiskFaultPlan {
    /// A plan that injects nothing.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected disk fault: {kind}"))
}

/// A [`Disk`] in memory that executes a [`DiskFaultPlan`]. Clones share
/// one file, so a test keeps a clone to read what the writer that owns
/// the other has written, and how often it wrote, synced and truncated.
#[derive(Debug, Clone)]
pub struct FaultyDisk(Arc<Mutex<Platter>>);

/// The file and the plan's progress through it.
#[derive(Debug)]
struct Platter {
    bytes: Vec<u8>,
    /// Bytes the last successful `sync_data` covered.
    synced: usize,
    plan: DiskFaultPlan,
    draws: u64,
    counts: DiskCounts,
    /// Whether any fault of the plan has fired.
    fired: bool,
    /// The rotted byte and the bit flipped in it, while it is in the file.
    rot: Option<(usize, u8)>,
    dead: bool,
}

/// How many of each operation a [`FaultyDisk`] was asked for since it
/// was made or restarted, failed ones included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    /// `write_all` calls.
    pub writes: u64,
    /// `sync_data` calls.
    pub syncs: u64,
    /// `set_len` calls.
    pub truncations: u64,
}

impl FaultyDisk {
    /// An empty file under `plan`.
    pub fn new(plan: DiskFaultPlan) -> Self {
        FaultyDisk(Arc::new(Mutex::new(Platter::holding(Vec::new(), plan))))
    }

    fn platter(&self) -> MutexGuard<'_, Platter> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// What the file holds.
    pub fn bytes(&self) -> Vec<u8> {
        self.platter().bytes.clone()
    }

    /// How many bytes of the file the last successful `sync_data` covered.
    pub fn synced(&self) -> usize {
        self.platter().synced
    }

    /// The operations asked of this disk so far.
    pub fn counts(&self) -> DiskCounts {
        self.platter().counts
    }

    /// Whether a fault of the plan has fired.
    pub fn fired(&self) -> bool {
        self.platter().fired
    }

    /// The offset of the byte a bit flip rotted and the bit's mask, while
    /// the rot is in the file: a truncation below it takes it away.
    pub fn rot(&self) -> Option<(usize, u8)> {
        self.platter().rot
    }

    /// The machine comes back: the file as it was left, alive, its counts
    /// at zero, under `plan` — what a recovering process opens. Every
    /// clone sees the restarted disk.
    pub fn restart(&self, plan: DiskFaultPlan) {
        let mut p = self.platter();
        let bytes = std::mem::take(&mut p.bytes);
        *p = Platter::holding(bytes, plan);
    }
}

impl Platter {
    fn holding(bytes: Vec<u8>, plan: DiskFaultPlan) -> Self {
        Platter {
            synced: bytes.len(),
            bytes,
            plan,
            draws: plan.seed,
            counts: DiskCounts::default(),
            fired: false,
            rot: None,
            dead: false,
        }
    }

    fn check_dead(&self) -> io::Result<()> {
        if self.dead {
            return Err(injected("disk is dead after write crash"));
        }
        Ok(())
    }

    /// Persists a seeded strict prefix of `buf` (possibly empty, never the
    /// whole buffer).
    fn persist_prefix(&mut self, buf: &[u8]) {
        let keep = (splitmix64(&mut self.draws) as usize) % buf.len().max(1);
        self.bytes.extend_from_slice(&buf[..keep]);
    }

    fn flip_one_bit(&mut self) {
        let len = self.bytes.len() as u64;
        if len == 0 {
            return;
        }
        let draw = splitmix64(&mut self.draws);
        let bit = match draw & 1 {
            0 => (len - 1) * 8 + (draw >> 1) % 8,
            _ => (draw >> 1) % (len * 8),
        };
        let (at, mask) = ((bit / 8) as usize, 1u8 << (bit % 8));
        self.bytes[at] ^= mask;
        self.rot = Some((at, mask));
    }
}

impl Disk for FaultyDisk {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut p = self.platter();
        p.check_dead()?;
        p.counts.writes += 1;
        let (plan, writes) = (p.plan, p.counts.writes);
        if plan.crash_after_writes.is_some_and(|k| writes > k) {
            // Power loss mid-commit: a torn partial batch lands on disk
            // and the device never comes back for this process.
            p.persist_prefix(buf);
            (p.dead, p.fired) = (true, true);
            return Err(injected("write crash (power loss mid-commit)"));
        }
        if plan.short_write_at == Some(writes) {
            p.persist_prefix(buf);
            p.fired = true;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected disk fault: short write",
            ));
        }
        let sealing = plan.fail_write_after_truncation;
        if sealing.is_some_and(|k| k == p.counts.truncations && !p.fired) {
            p.fired = true;
            return Err(injected("write after truncation"));
        }
        p.bytes.extend_from_slice(buf);
        if plan.flip_bit_after == Some(writes) {
            p.flip_one_bit();
            p.fired = true;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.platter().check_dead()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut p = self.platter();
        p.check_dead()?;
        p.counts.syncs += 1;
        if p.plan.fail_fsync_at == Some(p.counts.syncs) {
            // The kernel may or may not have persisted the dirty pages —
            // the caller must treat this writer as unusable (fsyncgate).
            p.fired = true;
            return Err(injected("sync_data failure"));
        }
        p.synced = p.bytes.len();
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut p = self.platter();
        p.check_dead()?;
        p.counts.truncations += 1;
        if p.plan.fail_truncation_at == Some(p.counts.truncations) {
            p.fired = true;
            return Err(injected("truncation failure"));
        }
        let len = len as usize;
        p.bytes.resize(len, 0);
        p.synced = p.synced.min(len);
        p.rot = p.rot.filter(|&(at, _)| at < len);
        Ok(())
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        let p = self.platter();
        p.check_dead()?;
        Ok(p.bytes.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_disk_round_trips() {
        let path = std::env::temp_dir().join(format!("smartred-disk-{}-real", std::process::id()));
        let mut disk = RealDisk::new(File::create(&path).unwrap());
        disk.write_all(b"hello\n").unwrap();
        disk.flush().unwrap();
        disk.sync_data().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello\n");
        assert_eq!(disk.seek_end().unwrap(), 6);
        disk.set_len(0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        std::fs::remove_file(&path).ok();
    }

    fn shared(plan: DiskFaultPlan) -> (FaultyDisk, FaultyDisk) {
        let disk = FaultyDisk::new(plan);
        (disk.clone(), disk)
    }

    #[test]
    fn fsync_fault_fires_exactly_once_at_the_scheduled_sync() {
        let (mut disk, seen) = shared(DiskFaultPlan {
            seed: 7,
            fail_fsync_at: Some(2),
            ..DiskFaultPlan::default()
        });
        disk.write_all(b"a\n").unwrap();
        disk.sync_data().unwrap();
        disk.write_all(b"b\n").unwrap();
        assert!(!seen.fired());
        assert!(disk.sync_data().is_err(), "second sync must fail");
        assert_eq!((seen.fired(), seen.synced()), (true, 2));
        // The disk itself recovers; refusing further work is the
        // writer's responsibility.
        disk.sync_data().unwrap();
        assert_eq!(seen.synced(), 4);
        let counts = DiskCounts {
            writes: 2,
            syncs: 3,
            truncations: 0,
        };
        assert_eq!(seen.counts(), counts);
    }

    #[test]
    fn write_crash_persists_a_partial_record_then_kills_the_disk() {
        let (mut disk, seen) = shared(DiskFaultPlan {
            seed: 11,
            crash_after_writes: Some(1),
            ..DiskFaultPlan::default()
        });
        disk.write_all(b"first-record\n").unwrap();
        let err = disk.write_all(b"second-record\n").unwrap_err();
        assert!(err.to_string().contains("write crash"), "{err}");
        let on_disk = seen.bytes();
        assert!(on_disk.starts_with(b"first-record\n"));
        assert!(
            on_disk.len() < b"first-record\nsecond-record\n".len(),
            "second record must be torn"
        );
        // Dead means dead: every later operation errors.
        assert!(disk.write_all(b"x").is_err());
        assert!(disk.sync_data().is_err());
        assert!(disk.flush().is_err());
        assert!(disk.seek_end().is_err());
        assert!(disk.set_len(0).is_err());
        // Until it restarts: the same bytes, alive, counting afresh.
        seen.restart(DiskFaultPlan::none(11));
        assert_eq!(seen.bytes(), on_disk);
        assert_eq!(
            (seen.counts(), seen.fired()),
            (DiskCounts::default(), false)
        );
        disk.write_all(b"x").unwrap();
        assert_eq!(disk.seek_end().unwrap(), on_disk.len() as u64 + 1);
    }

    #[test]
    fn short_write_persists_a_strict_prefix() {
        let (mut disk, seen) = shared(DiskFaultPlan {
            seed: 3,
            short_write_at: Some(2),
            ..DiskFaultPlan::default()
        });
        disk.write_all(b"intact\n").unwrap();
        let err = disk.write_all(b"truncated-record\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let on_disk = seen.bytes();
        assert!(on_disk.starts_with(b"intact\n"));
        assert!(on_disk.len() < b"intact\ntruncated-record\n".len());
        disk.write_all(b"alive\n").unwrap();
    }

    #[test]
    fn a_checkpoint_can_fail_to_truncate_or_to_seal() {
        let (mut disk, seen) = shared(DiskFaultPlan {
            fail_truncation_at: Some(2),
            ..DiskFaultPlan::default()
        });
        disk.write_all(b"one\n").unwrap();
        disk.set_len(0).unwrap();
        disk.write_all(b"two\n").unwrap();
        assert!(disk.set_len(0).is_err(), "the second truncation fails");
        assert_eq!(seen.bytes(), b"two\n", "and leaves the file whole");

        let (mut disk, seen) = shared(DiskFaultPlan {
            fail_write_after_truncation: Some(1),
            ..DiskFaultPlan::default()
        });
        disk.write_all(b"one\n").unwrap();
        disk.set_len(0).unwrap();
        assert!(disk.write_all(b"seal\n").is_err(), "the seal fails");
        assert_eq!(seen.bytes(), b"", "and writes nothing");
        disk.write_all(b"two\n").unwrap();
        assert_eq!(seen.bytes(), b"two\n", "once");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit_deterministically() {
        let clean = b"record-one\nrecord-two\nrecord-three\n";
        let flip = |seed| {
            let (mut disk, seen) = shared(DiskFaultPlan {
                seed,
                flip_bit_after: Some(2),
                ..DiskFaultPlan::default()
            });
            disk.write_all(b"record-one\n").unwrap();
            disk.write_all(b"record-two\n").unwrap();
            disk.write_all(b"record-three\n").unwrap();
            (seen.bytes(), seen.rot().expect("the flip fired"))
        };
        assert_eq!(flip(42), flip(42), "same seed, same flipped bit");
        let mut at_the_end = false;
        for seed in 0..16 {
            let (bytes, (at, mask)) = flip(seed);
            assert_eq!(bytes.len(), clean.len());
            let flipped_bits: u32 = bytes
                .iter()
                .zip(clean.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped_bits, 1, "exactly one bit differs");
            assert_eq!(bytes[at] ^ clean[at], mask, "the rot names its bit");
            // The flip lands in already-written bytes, and appends after
            // the flip are untouched.
            assert!(at < b"record-one\nrecord-two\n".len());
            assert!(bytes.ends_with(b"record-three\n"));
            at_the_end |= at == b"record-one\nrecord-two".len();
        }
        assert!(at_the_end, "no seed rotted the last newline");

        // A truncation below the rot takes it away.
        let (mut disk, seen) = shared(DiskFaultPlan {
            seed: 0,
            flip_bit_after: Some(1),
            ..DiskFaultPlan::default()
        });
        disk.write_all(b"record\n").unwrap();
        assert!(seen.rot().is_some());
        disk.set_len(0).unwrap();
        assert_eq!(seen.rot(), None);
    }
}
