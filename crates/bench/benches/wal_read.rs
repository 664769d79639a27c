//! Criterion benchmark of the WAL reader, the layer `Runtime::recover`
//! spends most of its time in: ns per record for `Journal::read_wal` on one
//! and on two threads, and for `Stamped::from_jsonl_line` on each event kind
//! the log holds.
//!
//! The log is deterministic: `dca::sim` runs 12 000 IR d = 4 tasks
//! (`DcaConfig::paper_baseline`, 1 000 nodes, wrong rate 0.3), about 35
//! records a task, and a checksummed `WalWriter` writes its journal to a
//! file in the temp directory, which is read from the page cache.
//!
//! ```text
//! cargo bench -p smartred-bench --bench wal_read
//! ```

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use smartred_core::params::VoteMargin;
use smartred_core::strategy::Iterative;
use smartred_dca::config::DcaConfig;
use smartred_dca::sim::run_journaled;
use smartred_desim::journal::{EventKind, Journal, Stamped, WalWriter};

const TASKS: usize = 12_000;
const NODES: usize = 1_000;
const SEED: u64 = 20_110_620;
/// Lines of one kind timed per iteration of its `from_jsonl_line` bench.
const LINES_PER_KIND: usize = 4_096;

/// The simulated journal, written to `path` as a checksummed WAL.
fn write_wal(path: &Path) -> Journal {
    let strategy = Rc::new(Iterative::new(VoteMargin::new(4).unwrap()));
    let cfg = DcaConfig::paper_baseline(TASKS, NODES, 0.3, SEED);
    let journal = run_journaled(strategy, &cfg).unwrap().journal;
    let mut wal = WalWriter::create(path, false).unwrap().with_checksums(true);
    for e in journal.events() {
        wal.append(e).unwrap();
    }
    wal.commit().unwrap();
    journal
}

fn bench_reader(c: &mut Criterion) {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "smartred-wal-read-bench-{}.jsonl",
        std::process::id()
    ));
    let journal = write_wal(&path);
    let records = journal.len() as u64;
    let bytes = std::fs::metadata(&path).unwrap().len();
    println!(
        "WAL: {records} records, {:.1} per task, {:.1} MB",
        records as f64 / TASKS as f64,
        bytes as f64 / 1e6
    );

    let mut group = c.benchmark_group("wal_read");
    // A read takes about a tenth of a second: time tens of them.
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(records));
    for threads in [1, 2] {
        group.bench_function(&format!("read_wal, {threads} thread(s)"), |b| {
            b.iter(|| {
                let prefix = Journal::read_wal(&path, threads).unwrap().unwrap();
                assert_eq!(prefix.journal.len(), journal.len());
                prefix
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);

    let mut group = c.benchmark_group("from_jsonl_line");
    for &kind in EventKind::ALL {
        let lines: Vec<String> = journal
            .of_kind(kind)
            .take(LINES_PER_KIND)
            .map(Stamped::to_jsonl_line_checksummed)
            .collect();
        if lines.is_empty() {
            continue;
        }
        group.throughput(Throughput::Elements(lines.len() as u64));
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                for line in &lines {
                    black_box(Stamped::from_jsonl_line(black_box(line)).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(wal_read, bench_reader);
criterion_main!(wal_read);
