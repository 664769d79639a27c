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
//! [`FaultyDisk`] executes a seeded [`DiskFaultPlan`] that makes the k-th
//! write or sync fail the same way on every run.
//!
//! Determinism matters more than realism here: the crash×disk-fault test
//! matrix replays the exact same fault schedule under 1 and 8 worker
//! threads and 1 and 4 shards, so every injected failure is a pure
//! function of the plan's seed and the operation count — no wall clock,
//! no global RNG.

use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

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
/// wrapped handle; `None` disables that fault. A *write* is one
/// `write_all` call, i.e. one batch the WAL writer committed — as many
/// records as were appended since its previous write, not one record. How
/// many writes a run makes therefore depends on its barriers; the only
/// floor is one per commit that had something to write. All randomness
/// (short-write lengths, flipped-bit positions) derives from `seed` via
/// splitmix64, so a plan replays identically across runs, thread counts,
/// and platforms.
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
    /// strict prefix of its batch and the disk goes permanently dead —
    /// every later operation errors. Models power loss mid-commit.
    pub crash_after_writes: Option<u64>,
    /// After the k-th write completes, one seeded bit somewhere in the
    /// file so far — in that batch or any earlier one — is flipped in
    /// place: silent corruption discovered only at read-back.
    pub flip_bit_after: Option<u64>,
}

impl DiskFaultPlan {
    /// A plan that injects nothing — useful as a matrix baseline.
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

/// A [`Disk`] that executes a [`DiskFaultPlan`] over a real file. The
/// file is opened read+write so the bit-flip fault can corrupt written
/// bytes in place.
#[derive(Debug)]
pub struct FaultyDisk {
    file: File,
    plan: DiskFaultPlan,
    draws: u64,
    writes: u64,
    syncs: u64,
    dead: bool,
}

impl FaultyDisk {
    /// Creates (truncating) the file at `path` and arms the plan.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open error.
    pub fn create(path: &Path, plan: DiskFaultPlan) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            plan,
            draws: plan.seed,
            writes: 0,
            syncs: 0,
            dead: false,
        })
    }

    fn check_dead(&self) -> io::Result<()> {
        if self.dead {
            return Err(injected("disk is dead after write crash"));
        }
        Ok(())
    }

    /// Persists a seeded strict prefix of `buf` (possibly empty, never the
    /// whole buffer).
    fn persist_prefix(&mut self, buf: &[u8]) -> io::Result<()> {
        let keep = (splitmix64(&mut self.draws) as usize) % buf.len().max(1);
        self.file.write_all(&buf[..keep])?;
        self.file.flush()
    }

    fn flip_one_bit(&mut self) -> io::Result<()> {
        let len = self.file.seek(SeekFrom::End(0))?;
        if len == 0 {
            return Ok(());
        }
        let bit = splitmix64(&mut self.draws) % (len * 8);
        let (byte_at, mask) = (bit / 8, 1u8 << (bit % 8));
        let mut byte = [0u8];
        self.file.seek(SeekFrom::Start(byte_at))?;
        self.file.read_exact(&mut byte)?;
        self.file.seek(SeekFrom::Start(byte_at))?;
        self.file.write_all(&[byte[0] ^ mask])?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

impl Disk for FaultyDisk {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.check_dead()?;
        self.writes += 1;
        if self
            .plan
            .crash_after_writes
            .is_some_and(|k| self.writes > k)
        {
            // Power loss mid-commit: a torn partial batch lands on disk
            // and the device never comes back for this process.
            self.persist_prefix(buf)?;
            self.dead = true;
            return Err(injected("write crash (power loss mid-commit)"));
        }
        if self.plan.short_write_at == Some(self.writes) {
            self.persist_prefix(buf)?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected disk fault: short write",
            ));
        }
        self.file.write_all(buf)?;
        if self.plan.flip_bit_after == Some(self.writes) {
            self.flip_one_bit()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.check_dead()?;
        self.file.flush()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.check_dead()?;
        self.syncs += 1;
        if self.plan.fail_fsync_at == Some(self.syncs) {
            // The kernel may or may not have persisted the dirty pages —
            // the caller must treat this writer as unusable (fsyncgate).
            return Err(injected("sync_data failure"));
        }
        self.file.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.check_dead()?;
        self.file.set_len(len)
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        self.check_dead()?;
        self.file.seek(SeekFrom::End(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smartred-disk-{}-{name}", std::process::id()))
    }

    #[test]
    fn real_disk_round_trips() {
        let path = tmp("real");
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

    #[test]
    fn fsync_fault_fires_exactly_once_at_the_scheduled_sync() {
        let path = tmp("fsync");
        let plan = DiskFaultPlan {
            seed: 7,
            fail_fsync_at: Some(2),
            ..DiskFaultPlan::default()
        };
        let mut disk = FaultyDisk::create(&path, plan).unwrap();
        disk.write_all(b"a\n").unwrap();
        disk.sync_data().unwrap();
        disk.write_all(b"b\n").unwrap();
        assert!(disk.sync_data().is_err(), "second sync must fail");
        // The disk itself recovers; refusing further work is the
        // writer's responsibility.
        disk.sync_data().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_crash_persists_a_partial_record_then_kills_the_disk() {
        let path = tmp("crash");
        let plan = DiskFaultPlan {
            seed: 11,
            crash_after_writes: Some(1),
            ..DiskFaultPlan::default()
        };
        let mut disk = FaultyDisk::create(&path, plan).unwrap();
        disk.write_all(b"first-record\n").unwrap();
        let err = disk.write_all(b"second-record\n").unwrap_err();
        assert!(err.to_string().contains("write crash"), "{err}");
        let on_disk = std::fs::read(&path).unwrap();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_persists_a_strict_prefix() {
        let path = tmp("short");
        let plan = DiskFaultPlan {
            seed: 3,
            short_write_at: Some(2),
            ..DiskFaultPlan::default()
        };
        let mut disk = FaultyDisk::create(&path, plan).unwrap();
        disk.write_all(b"intact\n").unwrap();
        let err = disk.write_all(b"truncated-record\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.starts_with(b"intact\n"));
        assert!(on_disk.len() < b"intact\ntruncated-record\n".len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit_deterministically() {
        let reads: Vec<Vec<u8>> = (0..2)
            .map(|i| {
                let path = tmp(&format!("flip{i}"));
                let plan = DiskFaultPlan {
                    seed: 42,
                    flip_bit_after: Some(2),
                    ..DiskFaultPlan::default()
                };
                let mut disk = FaultyDisk::create(&path, plan).unwrap();
                disk.write_all(b"record-one\n").unwrap();
                disk.write_all(b"record-two\n").unwrap();
                disk.write_all(b"record-three\n").unwrap();
                let bytes = std::fs::read(&path).unwrap();
                std::fs::remove_file(&path).ok();
                bytes
            })
            .collect();
        assert_eq!(reads[0], reads[1], "same seed, same flipped bit");
        let clean = b"record-one\nrecord-two\nrecord-three\n";
        assert_eq!(reads[0].len(), clean.len());
        let flipped_bits: u32 = reads[0]
            .iter()
            .zip(clean.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped_bits, 1, "exactly one bit differs");
        // The flip lands in already-written bytes, and appends after the
        // flip are untouched.
        assert!(reads[0].ends_with(b"record-three\n"));
    }
}
