//! Process-level helpers: the benchmark clock, `/proc` readings, the
//! per-process scratch directory, and order statistics.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds on the benchmark clock (zero at first use in this process).
/// Every span and latency in `benchmark/` is stamped with this one clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds between two `now_ns` stamps.
pub fn secs(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn vm_hwm_mib() -> Option<f64> {
    proc_field("/proc/self/status", "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Write system calls issued by this process so far (`syscw`).
pub fn write_syscalls() -> Option<u64> {
    proc_field("/proc/self/io", "syscw:")
}

/// A per-process scratch directory under `benchmark/out/`, removed on drop.
/// WAL segments live here: inside the checkout, so the benchmark never
/// touches a path it does not own.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let dir = out_dir().join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`, next to this package's manifest. `cargo run` and
/// `cargo test` export the manifest directory at run time; the compile-time
/// value covers a binary started by hand.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    smartred_stats::percentile_nearest_rank(&v, p)
}
