//! The WAL's allocation contracts, held by a counting allocator. The
//! reader: reading a record allocates nothing, reading a whole log of one
//! block allocates once — the event vector, sized from the input's length
//! — and a longer log allocates once more per block. The writer: once its
//! buffer and its list of unsealed records have grown, appending and
//! committing allocate nothing.
//!
//! This file is its own test binary because it installs a global
//! allocator; the count is per thread, so the harness's own threads do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use smartred_desim::disk::Disk;
use smartred_desim::journal::{fnv1a_64, Journal, RunEvent, Stamped, WalWriter};
use smartred_desim::time::SimTime;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with
// no destructor, so touching it cannot allocate or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls made by this thread while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// A run's worth of kinds, including the float and the widest record.
fn sample() -> Journal {
    let mut journal = Journal::new();
    for task in 0..200u32 {
        let at = SimTime::from_micros(u64::from(task) * 1_000);
        let eta = SimTime::from_micros(u64::from(task) * 1_000 + 500);
        let events = [
            RunEvent::WaveOpened {
                task,
                wave: 1,
                jobs: 4,
            },
            RunEvent::TransferStarted {
                xfer: task,
                job: task * 4,
                task,
                node: task % 7,
                bytes: u64::MAX,
                eta,
            },
            RunEvent::JobDispatched {
                job: task * 4,
                task,
                node: task % 7,
                eta,
            },
            RunEvent::JobReturned {
                job: task * 4,
                task,
                node: task % 7,
                value: task % 3 != 0,
            },
            RunEvent::VerdictReached {
                task,
                value: true,
                degraded: task % 5 == 0,
                confidence: 1.0 - f64::from(task % 5) / 7.0,
            },
        ];
        for event in events {
            journal.record(at, event);
        }
    }
    journal.record(SimTime::from_micros(200_000), RunEvent::RunEnded);
    journal
}

#[test]
fn reading_a_record_allocates_nothing_and_a_log_allocates_once() {
    let journal = sample();
    let mut wal = String::new();
    for e in journal.events() {
        for line in [e.to_jsonl_line(), e.to_jsonl_line_checksummed()] {
            let (read, allocations) = allocations_in(|| Stamped::from_jsonl_line(&line));
            assert_eq!(read, Ok(*e));
            assert_eq!(allocations, 0, "{line}");
        }
        wal.push_str(&e.to_jsonl_line_checksummed());
        wal.push('\n');
    }
    for text in [journal.to_jsonl(), wal] {
        let (prefix, allocations) = allocations_in(|| Journal::from_jsonl_prefix(&text));
        assert_eq!(prefix.unwrap().journal.events(), journal.events());
        assert_eq!(allocations, 1, "one event vector, never regrown");
    }
}

/// A log of many blocks costs a bounded number of allocations per block —
/// the block's event vector, while the read buffer is reused — and none
/// per line: twice the lines in the same bytes allocate no more. Read on
/// this thread, so the count sees every one of them.
#[test]
fn reading_many_blocks_allocates_per_block_not_per_line() {
    const BYTES: usize = (3 << 20) + 4096;
    let blocks = BYTES.div_ceil(1 << 20);
    let long = |i: u32| RunEvent::TransferStarted {
        xfer: i,
        job: i,
        task: i,
        node: i % 7,
        bytes: u64::MAX,
        eta: SimTime::from_micros(u64::from(i) + 500),
    };
    let short = |i: u32| RunEvent::TaskCapped { task: i % 10 };
    let log_of = |event: &dyn Fn(u32) -> RunEvent| {
        let (mut wal, mut journal) = (String::new(), Journal::new());
        while wal.len() < BYTES {
            let i = journal.len() as u32;
            journal.record(SimTime::from_micros(u64::from(i)), event(i));
            wal.push_str(&journal.events()[i as usize].to_jsonl_line_checksummed());
            wal.push('\n');
        }
        (wal, journal)
    };
    let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smartred-journal-alloc-{}.wal.jsonl",
        std::process::id()
    ));
    let mut lines = Vec::new();
    for event in [&long as &dyn Fn(u32) -> RunEvent, &short] {
        let (wal, journal) = log_of(event);
        assert_eq!(wal.len().div_ceil(1 << 20), blocks);
        std::fs::write(&path, &wal).unwrap();
        let (prefix, allocations) = allocations_in(|| Journal::read_wal(&path, 1));
        let prefix = prefix.unwrap().unwrap();
        assert_eq!(prefix.journal.events(), journal.events());
        assert_eq!(prefix.valid_bytes, wal.len());
        assert!(
            allocations <= blocks + 8,
            "{allocations} allocations for {blocks} blocks of {} lines",
            journal.len()
        );
        lines.push(journal.len());
    }
    assert!(
        lines[1] > 2 * lines[0],
        "the second log has the lines: {lines:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A [`Disk`] that keeps no bytes, only how many and the hash of each
/// write, so writing to it allocates nothing.
#[derive(Debug, Default, Clone)]
struct Tally(Arc<Mutex<Vec<(usize, u64)>>>);

impl Disk for Tally {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.0.lock().unwrap().push((buf.len(), fnv1a_64(buf)));
        Ok(())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn sync_data(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn set_len(&mut self, _: u64) -> std::io::Result<()> {
        Ok(())
    }
    fn seek_end(&mut self) -> std::io::Result<u64> {
        Ok(0)
    }
}

/// After one pass has grown the commit buffer (past the 64 KiB cap, so it
/// writes out mid-pass too) and the list of records awaiting their
/// checksums, the same appends and a commit, plain and checksummed
/// records interleaved, allocate nothing, and write what the first pass
/// wrote.
#[test]
fn appending_and_committing_allocate_nothing_once_the_buffers_have_grown() {
    let journal = sample();
    let disk = Tally::default();
    // Room for both passes' tallies, outside the count.
    disk.0.lock().unwrap().reserve(64);
    let mut wal = WalWriter::with_disk(Box::new(disk.clone()), false);
    let mut allocations = Vec::new();
    for _pass in 0..2 {
        let before = ALLOCATIONS.with(Cell::get);
        for (i, e) in journal.events().iter().enumerate() {
            wal = wal.with_checksums(i % 5 != 0);
            wal.append(e).unwrap();
        }
        wal.commit().unwrap();
        allocations.push(ALLOCATIONS.with(Cell::get) - before);
    }
    assert_eq!(allocations[1], 0, "{allocations:?}");
    let writes = disk.0.lock().unwrap().clone();
    let (first, second) = writes.split_at(writes.len() / 2);
    assert!(first.len() > 1, "the cap never wrote: {writes:?}");
    assert_eq!(first, second);
}
