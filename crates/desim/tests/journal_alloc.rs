//! The WAL reader's allocation contract, held by a counting allocator:
//! reading a record allocates nothing, and reading a whole log allocates
//! once — the event vector, sized from the input's length.
//!
//! This file is its own test binary because it installs a global
//! allocator; the count is per thread, so the harness's own threads do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smartred_desim::journal::{Journal, RunEvent, Stamped};
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
