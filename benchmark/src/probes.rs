//! Layer probes: each layer timed alone through its public functions, with
//! seeded inputs. They run in every `--trace` run, after the traced
//! traffic, and feed the per-layer metrics the span join cannot see.

use std::hint::black_box;
use std::rc::Rc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smartred_core::monte_carlo::{estimate_par, MonteCarloConfig};
use smartred_core::parallel::Threads;
use smartred_core::params::Reliability;
use smartred_dag::{DagSimConfig, DagSpec, PoisonAdversary, StageStrategy};
use smartred_desim::disk::Disk;
use smartred_desim::engine::Simulator;
use smartred_desim::journal::{Journal, Stamped, WalWriter};
use smartred_desim::time::SimDuration;
use smartred_runtime::{ShardedConfig, ShardedRuntime};
use smartred_volunteer::server::VolunteerConfig;

use crate::reference::{self, Reference};
use crate::serve::{self, Ledger, Traffic, WORKERS, WRONG_RATE};
use crate::sim;
use crate::sys::{median, now_ns, secs, Scratch};

type Metrics = Vec<(&'static str, f64)>;

/// Probe sizes at scale 1; `scaled` shrinks them for the smoke test.
const EXECUTION_TASKS: usize = 200_000;
const MONTE_CARLO_TASKS: usize = 200_000;
const JOURNAL_EVENTS: usize = 300_000;
const WAL_APPENDS: usize = 100_000;
const RECOVERY_TASKS: usize = 8_000;
const SHARD_TASKS: usize = 30_000;
const SIM_TASKS: usize = 20_000;
const ENGINE_EVENTS: u64 = 1_000_000;
const VOLUNTEER_RUNS: usize = 5;
const DAG_RUNS: usize = 400;

pub fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(1)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now_ns();
    let out = f();
    (out, secs(start, now_ns()).max(1e-9))
}

/// Every probe. `journal` is the event stream of the traced serving run:
/// the journal-layer probes replay real traffic, not a synthetic mix.
pub fn all(seed: u64, scale: f64, scratch: &Scratch, journal: &Journal) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    m.extend(core_execution(seed, scaled(EXECUTION_TASKS, scale)));
    m.push(core_monte_carlo(seed, scaled(MONTE_CARLO_TASKS, scale)));
    let events = &journal.events()[..journal.len().min(scaled(JOURNAL_EVENTS, scale))];
    m.extend(desim_journal(events)?);
    m.extend(desim_wal(events, scale, scratch)?);
    m.extend(runtime_recovery(
        seed,
        scaled(RECOVERY_TASKS, scale),
        scratch,
    )?);
    m.extend(runtime_shard(seed, scaled(SHARD_TASKS, scale))?);
    let (report, fold_s) = timed(|| smartred_runtime::report_from_journal(journal));
    black_box(report);
    m.push((
        "runtime.report.fold_events_per_s",
        journal.len() as f64 / fold_s,
    ));
    m.extend(dca_sim(seed, scaled(SIM_TASKS, scale))?);
    m.push(desim_engine(
        seed,
        scaled(ENGINE_EVENTS as usize, scale) as u64,
    ));
    m.push(volunteer_server(seed, scale)?);
    m.push(dag_sim(seed, scaled(DAG_RUNS, scale))?);
    Ok(m)
}

/// `TaskExecution::{step_wave, record}` alone: the votes are drawn before
/// the clock starts.
fn core_execution(seed: u64, tasks: usize) -> Metrics {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // IR d = 4 at r = 0.7 spends 9.35 votes per task on average; the
    // stream wraps around should a seed need more than twice that.
    let votes: Vec<bool> = (0..tasks * 20)
        .map(|_| rng.gen::<f64>() >= WRONG_RATE)
        .collect();
    let mut cursor = 0usize;
    let (r, s): (Reference, f64) = timed(|| {
        reference::drive(tasks, |_, _| {
            cursor = (cursor + 1) % votes.len();
            votes[cursor]
        })
    });
    vec![
        ("core.execution.step_ns_per_vote", s * 1e9 / r.jobs as f64),
        ("core.execution.decisions_per_s", tasks as f64 / s),
        (
            "core.execution.waves_per_task",
            r.waves as f64 / tasks as f64,
        ),
    ]
}

fn core_monte_carlo(seed: u64, tasks: usize) -> (&'static str, f64) {
    let r = Reliability::new(1.0 - WRONG_RATE).expect("static reliability is valid");
    let (report, s) = timed(|| {
        estimate_par(
            &serve::strategy(),
            MonteCarloConfig::new(tasks, r),
            seed,
            Threads::fixed(WORKERS),
        )
    });
    black_box(report);
    ("core.monte_carlo.tasks_per_s", tasks as f64 / s)
}

fn desim_journal(events: &[Stamped]) -> Result<Metrics, String> {
    let n = events.len() as f64;
    let (journal, record_s) = timed(|| {
        let mut j = Journal::new();
        for e in events {
            j.record(e.at, e.event);
        }
        j
    });
    let (bytes, encode_s) = timed(|| {
        events
            .iter()
            .map(|e| black_box(e.to_jsonl_line_checksummed()).len() + 1)
            .sum::<usize>()
    });
    let mut text = String::with_capacity(bytes);
    for e in events {
        text.push_str(&e.to_jsonl_line_checksummed());
        text.push('\n');
    }
    let (prefix, parse_s) = timed(|| Journal::from_jsonl_prefix(&text));
    let prefix = prefix.map_err(|e| e.to_string())?;
    if prefix.torn || prefix.journal.events() != journal.events() {
        return Err("desim.journal: the encoded stream did not parse back to itself".into());
    }
    let (digest, digest_s) = timed(|| journal.digest());
    black_box(digest);
    // Two shards' worth of the same stream: split by task parity.
    let mut parts = [Journal::new(), Journal::new()];
    for e in events {
        let shard = e.event.task().unwrap_or(0) as usize % 2;
        parts[shard].record(e.at, e.event);
    }
    let (merged, merge_s) = timed(|| Journal::merge_sharded(&parts));
    if merged.len() != events.len() {
        return Err("desim.journal: merge_sharded lost events".into());
    }
    Ok(vec![
        ("desim.journal.record_ns_per_event", record_s * 1e9 / n),
        ("desim.journal.encode_ns_per_event", encode_s * 1e9 / n),
        ("desim.journal.bytes_per_event", bytes as f64 / n),
        ("desim.journal.parse_events_per_s", n / parse_s),
        ("desim.journal.digest_events_per_s", n / digest_s),
        ("desim.journal.merge_events_per_s", n / merge_s),
    ])
}

/// A `Disk` that is a `Vec`: `WalWriter::append` with no file system under
/// it (encode + checksum + copy).
#[derive(Debug, Default)]
struct MemDisk(Vec<u8>);

impl Disk for MemDisk {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.0.extend_from_slice(buf);
        Ok(())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn sync_data(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.0.truncate(len as usize);
        Ok(())
    }
    fn seek_end(&mut self) -> std::io::Result<u64> {
        Ok(self.0.len() as u64)
    }
}

/// Microseconds per `WalWriter::append` over the first `n` of `events`.
fn append_us(mut wal: WalWriter, events: &[Stamped], n: usize) -> f64 {
    let n = n.min(events.len()).max(1);
    let ((), s) = timed(|| {
        for e in &events[..n] {
            wal.append(e).expect("WAL append");
        }
        wal.commit().expect("WAL commit");
    });
    s * 1e6 / n as f64
}

/// The `_disk_` figures are this sandbox's disk under the checkout, kept
/// as layer metrics only: `fdatasync` cost there drifts with the
/// neighbours' I/O, so no end-to-end workload syncs.
fn desim_wal(events: &[Stamped], scale: f64, scratch: &Scratch) -> Result<Metrics, String> {
    let file = |name: &str, sync: bool, batch: u64| {
        WalWriter::create(&scratch.file(name), sync)
            .map(|w| w.with_batch(batch).with_checksums(true))
            .map_err(|e| format!("desim.wal: {e}"))
    };
    let mem = WalWriter::with_disk(Box::<MemDisk>::default(), true).with_checksums(true);
    let appends = scaled(WAL_APPENDS, scale);
    Ok(vec![
        ("desim.wal.append_us_mem", append_us(mem, events, appends)),
        (
            "desim.wal.append_us_disk_nosync",
            append_us(file("probe-nosync.wal", false, 1)?, events, appends),
        ),
        (
            "desim.wal.append_us_disk_sync1",
            append_us(file("probe-sync1.wal", true, 1)?, events, appends / 500),
        ),
        (
            "desim.wal.append_us_disk_sync64",
            append_us(file("probe-sync64.wal", true, 64)?, events, appends / 50),
        ),
    ])
}

fn runtime_recovery(seed: u64, tasks: usize, scratch: &Scratch) -> Result<Metrics, String> {
    let reference = reference::replay(seed, tasks);
    let full = serve::crash_recover(
        tasks,
        seed,
        scratch.file("probe-recover.wal"),
        None,
        true,
        &reference,
    )?;
    let ckpt = serve::crash_recover(
        tasks,
        seed,
        scratch.file("probe-ckpt.wal"),
        Some(4096),
        false,
        &reference,
    )?;
    let read_parse_s = full.read_parse_s.expect("asked for above");
    Ok(vec![
        ("runtime.recovery.read_parse_s", read_parse_s),
        (
            "runtime.recovery.rebuild_s",
            (full.recover_call_s - read_parse_s).max(0.0),
        ),
        ("runtime.recovery.first_verdict_s", full.first_verdict_s),
        (
            "runtime.recovery.replay_events_per_s",
            full.events_replayed as f64 / full.recover_call_s,
        ),
        (
            "runtime.recovery.events_replayed",
            full.events_replayed as f64,
        ),
        ("runtime.recovery.ckpt_recover_s", ckpt.first_verdict_s),
    ])
}

/// `serve_mem` traffic through the router of `ShardedRuntime`.
fn runtime_shard(seed: u64, tasks: usize) -> Result<Metrics, String> {
    let reference = reference::replay(seed, tasks);
    let mut out = Metrics::new();
    for (name, shards) in [
        ("runtime.shard.tasks_per_s_s1", 1),
        ("runtime.shard.tasks_per_s_s2", 2),
    ] {
        let traffic = Traffic::Closed { wal: false };
        let runtime = ShardedRuntime::start(
            ShardedConfig {
                base: serve::config(traffic, tasks, None),
                shards,
                wal_dir: None,
                admission_cap: serve::WINDOW,
                crash_after: None,
            },
            serve::strategy(),
            serve::worker_factory(seed, traffic, None),
        );
        let client = runtime.client();
        let mut ledger = Ledger::new(serve::answers(seed, tasks));
        let (pass, s) = timed(|| serve::closed_pass(&client, &mut ledger, tasks));
        pass?;
        drop(client);
        let run = runtime.finish();
        if run.report.tasks_completed != tasks || run.report.total_jobs != reference.jobs {
            return Err(format!(
                "{name}: {} tasks, {} jobs; the reference computation gives {tasks}, {}",
                run.report.tasks_completed, run.report.total_jobs, reference.jobs
            ));
        }
        out.push((name, tasks as f64 / s));
    }
    Ok(out)
}

fn dca_sim(seed: u64, tasks: usize) -> Result<Metrics, String> {
    let cfg = sim::config(tasks, seed);
    let names = [
        "dca.sim.tasks_per_s_tr",
        "dca.sim.tasks_per_s_pr",
        "dca.sim.tasks_per_s_ir",
    ];
    let mut out = Metrics::new();
    // IR comes last, so after the loop this holds its plain run time.
    let mut ir_plain_s = 0.0;
    for (name, (_, strategy)) in names.into_iter().zip(sim::strategies()) {
        let (report, s) = timed(|| smartred_dca::run(strategy, &cfg));
        black_box(report.map_err(|e| e.to_string())?);
        out.push((name, tasks as f64 / s));
        ir_plain_s = s;
    }
    let [_, _, (_, ir)] = sim::strategies();
    let (run, journaled_s) = timed(|| smartred_dca::run_journaled(ir, &cfg));
    let run = run.map_err(|e| e.to_string())?;
    let (replayed, fold_s) = timed(|| smartred_dca::report_from_journal(&run.journal, &cfg));
    if replayed != run.report {
        return Err("dca.replay: report_from_journal(&journal) != report".into());
    }
    out.push((
        "dca.sim.journal_overhead_frac",
        (journaled_s - ir_plain_s) / journaled_s,
    ));
    out.push((
        "dca.replay.fold_events_per_s",
        run.journal.len() as f64 / fold_s,
    ));
    Ok(out)
}

/// The bare event queue: a thousand self-rescheduling timers, the shape of
/// a thousand-node pool, with a model that only counts.
fn desim_engine(seed: u64, events: u64) -> (&'static str, f64) {
    struct Timers {
        fired: u64,
        limit: u64,
        rng: ChaCha8Rng,
    }
    fn tick(model: &mut Timers, sim: &mut Simulator<Timers>) {
        model.fired += 1;
        if model.fired + sim.pending() as u64 <= model.limit {
            let delay = SimDuration::from_units(model.rng.gen_range(0.5..1.5));
            sim.schedule_in(delay, tick);
        }
    }
    let mut model = Timers {
        fired: 0,
        limit: events,
        rng: ChaCha8Rng::seed_from_u64(seed),
    };
    let mut sim: Simulator<Timers> = Simulator::new();
    for _ in 0..sim::NODES.min(events as usize) {
        sim.schedule_in(SimDuration::from_units(1.0), tick);
    }
    let (stats, s) = timed(|| sim.run(&mut model));
    ("desim.engine.events_per_s", stats.events as f64 / s)
}

fn volunteer_server(seed: u64, scale: f64) -> Result<(&'static str, f64), String> {
    let cfg = VolunteerConfig::paper_deployment(if scale < 1.0 { 10 } else { 16 }, seed);
    let mut runs = Vec::new();
    for _ in 0..scaled(VOLUNTEER_RUNS, scale) {
        let (report, s) =
            timed(|| smartred_volunteer::server::run(Rc::new(serve::strategy()), &cfg));
        black_box(report.map_err(|e| e.to_string())?);
        runs.push(s);
    }
    Ok(("volunteer.server.run_s", median(&runs)))
}

/// The BENCH_9 pipeline and mix: map 16 → combine 16 → reduce 2 under
/// `ir8/ir2/ir2`, adversary 0.3 on the map stage over 0.02 background.
fn dag_sim(seed: u64, runs: usize) -> Result<(&'static str, f64), String> {
    let ir = |d| StageStrategy::ir(d).map_err(|e| e.to_string());
    let spec =
        DagSpec::map_shuffle_reduce(16, 2, ir(8)?, ir(2)?, ir(2)?).map_err(|e| e.to_string())?;
    let cfg = DagSimConfig {
        seed,
        adversary: PoisonAdversary::targeting(0, 0.3, 0.02),
        hedge_after_units: 1.0,
        ..DagSimConfig::default()
    };
    let (stats, s) =
        timed(|| smartred_dag::sim::monte_carlo(&spec, &cfg, runs, Threads::fixed(WORKERS)));
    black_box(stats);
    Ok(("dag.sim.runs_per_s", runs as f64 / s))
}
