//! Closed-loop load generator for the live runtime: the questions only a
//! live, wall-clock run can answer, each behind one flag combination.
//!
//! * *(default)* — the live analogue of the paper's Figure 5: a
//!   30%-faulty pool serves 3-SAT blocks under traditional, progressive
//!   and iterative redundancy at *matched predicted reliability*, a fixed
//!   window of tasks in flight. Prints throughput, p50/p99
//!   first-dispatch→verdict latency, jobs per task, achieved reliability
//!   and shed rate, and exits non-zero unless IR < PR < TR jobs/task.
//!   `--shards N` serves on the sharded runtime, `--hedge` arms
//!   straggler hedging, `--assignment` picks the placement policy,
//!   `--journal <path>` writes the iterative run's journal as JSONL, and
//!   `--smoke` shrinks every mode to a CI smoke budget.
//! * `--audit-demo` — against an adaptive cartel (`--cartel N` members,
//!   half the pool by default), an audit-enabled strategy must beat the
//!   best audit-free one on delivered reliability at no greater total
//!   cost (replicas + audits).
//! * `--bench-json <path>` — `BENCH_6.json`: audit fractions {0, 0.05,
//!   0.2} under the standard pool. With `--shards N`, `BENCH_7.json`:
//!   shard counts {1, 2, 4, …, N} of zero-work tasks under a durable
//!   per-event-fsync WAL, which isolates the coordination plane sharding
//!   scales. With `--hedge`, `BENCH_8.json`: TR/PR/IR hedged and unhedged
//!   on a straggler-prone pool; exits non-zero unless hedging cuts TR's
//!   p99 at bit-identical verdicts.
//! * `--dag` — `BENCH_9.json` (simulated units only, byte-identical
//!   across `SMARTRED_THREADS`): on a poisoned map→shuffle→reduce
//!   pipeline a per-stage strategy mix must beat every budget-matched
//!   uniform strategy on poison-escape rate.
//! * `--dag --chaos` — the live pipeline with a colluder poisoning one
//!   map task, its coordinator (shard 0 under `--shards N`) killed at
//!   seeded points: each WAL's DAG annotation stream must be a prefix of
//!   the uninterrupted run's. `--journal <path>` names where the WAL
//!   segments of a failing round are kept.
//!
//! Every serving run is replay-checked: its journal must fold back into
//! the live report exactly. Coordinator crash recovery, disk faults and
//! the WAL's costs belong to the runtime crate's tests and `benchmark/`,
//! not here.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use smartred_core::analysis;
use smartred_core::audit::{AuditPolicy, Cartel};
use smartred_core::execution::Assignment;
use smartred_core::hedge::HedgePolicy;
use smartred_core::params::{KVotes, Reliability, VoteMargin};
use smartred_core::resilience::QuarantinePolicy;
use smartred_core::strategy::{Iterative, Progressive, RedundancyStrategy, Traditional};
use smartred_desim::journal::Journal;
use smartred_runtime::{
    report_from_journal, CartelWorker, FaultProfile, FaultyWorker, JobAssignment, Payload, Runtime,
    RuntimeConfig, RuntimeRun, ShardedConfig, ShardedRuntime, StragglerWorker, SubmitOutcome,
    TaskClient, Worker,
};
use smartred_sat::{decompose, random_3sat, ThreeSatConfig};

/// Worker honesty for the whole benchmark: r = 0.7 (30% colluding-wrong),
/// the paper's canonical hostile regime.
const WRONG_RATE: f64 = 0.3;
/// Iterative margin: d = 4 predicts R ≈ 0.967 at r = 0.7 (Eq. 6).
const MARGIN: usize = 4;
/// Tasks the closed loop keeps in flight unless a mode says otherwise.
const WINDOW: usize = 64;
/// The straggler pool of `--hedge --bench-json`: a seeded 1% of
/// placements take 100 ms, the rest 1 ms. The slow rate is deliberately
/// low twice over: the online p90 must sit in the fast mode or the
/// trigger's threshold would chase the stragglers instead of catching
/// them, and a task whose twin is *itself* slow (the one tail hedging
/// cannot remove, since a paired origin is never re-hedged) must stay
/// rarer than 1% of tasks or it pins the p99.
const SLOW_RATE: f64 = 0.01;
const SLOW: Duration = Duration::from_millis(100);

#[derive(Clone, Debug)]
struct Args {
    tasks: usize,
    workers: usize,
    seed: u64,
    shards: usize,
    journal: Option<String>,
    smoke: bool,
    chaos: bool,
    cartel: u32,
    audit_demo: bool,
    bench_json: Option<String>,
    hedge: bool,
    assignment: Assignment,
    dag: bool,
}

fn number<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value.parse().map_err(|_| "not a number".to_string())
}

/// How a flag lands in [`Args`]: a switch, or a value (with the
/// placeholder the usage line shows for it).
enum Flag {
    Switch(fn(&mut Args)),
    Value(&'static str, fn(&mut Args, &str) -> Result<(), String>),
}
use Flag::{Switch, Value};

/// Every flag, once. The parser and the usage line both read this table.
const FLAGS: [(&str, Flag); 13] = [
    ("--smoke", Switch(|a| (a.smoke, a.tasks) = (true, 200))),
    ("--chaos", Switch(|a| a.chaos = true)),
    ("--audit-demo", Switch(|a| a.audit_demo = true)),
    ("--dag", Switch(|a| a.dag = true)),
    ("--hedge", Switch(|a| a.hedge = true)),
    ("--tasks", Value("N", |a, v| number(v).map(|n| a.tasks = n))),
    (
        "--workers",
        Value("N", |a, v| number(v).map(|n| a.workers = n)),
    ),
    ("--seed", Value("N", |a, v| number(v).map(|n| a.seed = n))),
    (
        "--shards",
        Value("N", |a, v| number(v).map(|n: usize| a.shards = n.max(1))),
    ),
    (
        "--cartel",
        Value("N", |a, v| number(v).map(|n| a.cartel = n)),
    ),
    (
        "--assignment",
        Value("<random|round-robin|least-loaded>", |a, v| {
            let policy = Assignment::parse(v).ok_or("unknown policy")?;
            a.assignment = policy;
            Ok(())
        }),
    ),
    (
        "--journal",
        Value("<path>", |a, v| {
            a.journal = Some(v.to_string());
            Ok(())
        }),
    ),
    (
        "--bench-json",
        Value("<path>", |a, v| {
            a.bench_json = Some(v.to_string());
            Ok(())
        }),
    ),
];

fn usage() -> String {
    let flags = FLAGS.iter().map(|(name, flag)| match flag {
        Value(placeholder, _) => format!(" [{name} {placeholder}]"),
        Switch(_) => format!(" [{name}]"),
    });
    format!("usage: serve_bench{}", flags.collect::<String>())
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        tasks: 1000,
        workers: 8,
        seed: 20110620,
        shards: 1,
        journal: None,
        smoke: false,
        chaos: false,
        cartel: 0,
        audit_demo: false,
        bench_json: None,
        hedge: false,
        assignment: Assignment::Random,
        dag: false,
    };
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let (name, flag) = FLAGS
            .iter()
            .find(|(name, _)| name == flag)
            .ok_or_else(|| format!("unknown flag '{flag}'"))?;
        match flag {
            Switch(set) => set(&mut args),
            Value(_, set) => {
                let value = argv
                    .next()
                    .ok_or_else(|| format!("{name} requires an argument"))?;
                set(&mut args, value).map_err(|e| format!("{name} {value}: {e}"))?;
            }
        }
    }
    if args.chaos && !args.dag {
        return Err("--chaos runs only with --dag".to_string());
    }
    Ok(args)
}

/// The `--hedge` trigger: once 10 latency samples are in, a job that
/// outlives 3× the online p90 estimate gets a twin on another worker, up
/// to four per task epoch (TR's wide waves can straggle several replicas
/// of one task at once). On the straggler pool the p90 sits in the fast
/// mode, so the threshold is a few fast service times — well under the
/// deadline.
fn hedge_policy() -> HedgePolicy {
    HedgePolicy {
        quantile: 0.9,
        min_samples: 10,
        multiplier: 3.0,
        max_per_task: 4,
    }
}

/// Matched reliability: IR's margin, the smallest odd k whose predicted
/// TR reliability (Eq. 2) meets what that margin predicts (Eq. 6), and
/// the prediction. Progressive with the same k is never less reliable,
/// so one k matches both.
fn matched() -> (VoteMargin, KVotes, f64) {
    let r = Reliability::new(1.0 - WRONG_RATE).unwrap();
    let d = VoteMargin::new(MARGIN).unwrap();
    let target = analysis::iterative::reliability(d, r);
    let k = (1..=61)
        .step_by(2)
        .map(|k| KVotes::new(k).unwrap())
        .find(|&k| analysis::traditional::reliability(k, r) >= target)
        .expect("a matching k exists below 61");
    (d, k, target)
}

/// The benchmark's workload: `tasks` assignment blocks of one random
/// 3-SAT formula drawn from `seed`.
fn sat_workload(seed: u64, tasks: usize) -> Vec<Payload> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let cfg = ThreeSatConfig {
        num_vars: 16,
        clause_ratio: 4.26,
    };
    let formula = Arc::new(random_3sat(cfg, &mut rng));
    let blocks = decompose(formula.num_vars(), tasks).into_iter();
    let payload = |block| Payload::Sat {
        formula: formula.clone(),
        block,
    };
    blocks.map(payload).collect()
}

/// One serving run: the pool, the runtime it serves on, and the
/// adversary.
#[derive(Clone, Copy)]
struct Leg {
    workers: usize,
    seed: u64,
    /// Tasks the closed loop keeps in flight; also the admission capacity.
    window: usize,
    /// `None` serves on one coordinator, `Some(n)` on the sharded runtime.
    shards: Option<usize>,
    /// Log to a WAL, one fsync per event, in a scratch directory.
    durable: bool,
    hedge: bool,
    assignment: Assignment,
    /// When enabled, spot-checked verdicts are recomputed locally and
    /// liars disciplined.
    audit: AuditPolicy,
    /// The first members of the pool lie in concert and are otherwise
    /// honest — the coalition is the adversary.
    cartel: Option<Cartel>,
    /// Bounds each task's tally race: a coalition of exactly half the
    /// pool turns a vote-margin race into a fair coin walk with unbounded
    /// expected length, so capped tasks fail (deliver no answer) instead
    /// of livelocking the run.
    job_cap: Option<usize>,
    /// Serve on the [`SLOW_RATE`] straggler pool instead of uniformly
    /// fast workers.
    straggle: bool,
}

impl Leg {
    /// The standard regime under the command line's pool, runtime and
    /// placement: independent 30%-wrong workers, no auditing, no cap.
    fn standard(args: &Args) -> Leg {
        Leg {
            workers: args.workers,
            seed: args.seed,
            window: WINDOW,
            shards: (args.shards > 1).then_some(args.shards),
            durable: false,
            hedge: args.hedge,
            assignment: args.assignment,
            audit: AuditPolicy::disabled(),
            cartel: None,
            job_cap: None,
            straggle: false,
        }
    }

    /// The worker factory of this leg's pool.
    fn pool(&self) -> impl Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static {
        let (seed, cartel, straggle) = (self.seed, self.cartel, self.straggle);
        let profile = FaultProfile {
            wrong_rate: if cartel.is_some() { 0.0 } else { WRONG_RATE },
            ..FaultProfile::default()
        };
        move |index| match cartel {
            Some(c) => Box::new(CartelWorker::new(index, seed, c, profile)) as Box<dyn Worker>,
            None if straggle => {
                Box::new(StragglerWorker::new(index, seed, profile, SLOW_RATE, SLOW))
            }
            None => Box::new(FaultyWorker::new(seed, profile)),
        }
    }
}

/// A fresh scratch directory of this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smartred-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// The WAL segments a run on `shards` writes under `dir`.
fn wal_segments(dir: &Path, shards: Option<usize>) -> Vec<PathBuf> {
    match shards {
        Some(n) => (0..n).map(|k| ShardedConfig::wal_segment(dir, k)).collect(),
        None => vec![dir.join("wal.jsonl")],
    }
}

/// The one place that picks a runtime. Starts one coordinator, or
/// `shards` of them behind one admission gate (admitting `cfg.queue_cap` tasks
/// either way), logging under `wal_dir` and dying after `crash_at` events
/// — shard 0's, when sharded; runs `body` against its client; finishes.
fn serve<S, T>(
    cfg: RuntimeConfig,
    shards: Option<usize>,
    wal_dir: Option<&Path>,
    crash_at: Option<u64>,
    strategy: S,
    make_worker: impl Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    body: impl FnOnce(&dyn TaskClient) -> T,
) -> (T, RuntimeRun)
where
    S: RedundancyStrategy<bool> + Clone + Send + Sync + 'static,
{
    match shards {
        Some(shards) => {
            let mut crash_after = vec![None; shards];
            crash_after[0] = crash_at;
            let cfg = ShardedConfig {
                admission_cap: cfg.queue_cap,
                base: cfg,
                shards,
                wal_dir: wal_dir.map(Path::to_path_buf),
                crash_after: Some(crash_after),
            };
            let runtime = ShardedRuntime::start(cfg, strategy, make_worker);
            let client = runtime.client();
            let out = body(&client);
            drop(client);
            (out, runtime.finish().into())
        }
        None => {
            let cfg = RuntimeConfig {
                wal: wal_dir.map(|dir| wal_segments(dir, None).remove(0)),
                crash_after_events: crash_at,
                ..cfg
            };
            let runtime = Runtime::start(cfg, strategy, make_worker);
            let client = runtime.client();
            let out = body(&client);
            drop(client);
            (out, runtime.finish())
        }
    }
}

/// The closed loop: keeps at most `window` of `payloads` in flight — a
/// full window waits for a verdict before the next submission, so offered
/// load tracks service capacity — and returns the wall time with the
/// sorted first-dispatch→verdict latencies, in journal units (seconds).
fn closed_loop(
    client: &dyn TaskClient,
    payloads: &[Payload],
    window: usize,
) -> (Duration, Vec<f64>) {
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(payloads.len());
    let await_verdict = |latencies: &mut Vec<f64>| {
        let verdict = client.recv().expect("runtime dropped a verdict");
        latencies.push(verdict.latency_units);
    };
    for (submitted, payload) in payloads.iter().enumerate() {
        while submitted - latencies.len() >= window {
            await_verdict(&mut latencies);
        }
        // Shed under a race with the drain: back off and retry.
        while client.submit(payload.clone()) == SubmitOutcome::Shed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    while latencies.len() < payloads.len() {
        await_verdict(&mut latencies);
    }
    let elapsed = started.elapsed();
    latencies.sort_by(f64::total_cmp);
    (elapsed, latencies)
}

struct Outcome {
    name: &'static str,
    run: RuntimeRun,
    elapsed: Duration,
    /// Sorted first-dispatch→verdict latencies, in seconds.
    latencies: Vec<f64>,
}

/// One rendered JSON member: key and value text.
type Field = (&'static str, String);

impl Outcome {
    fn throughput(&self) -> f64 {
        self.run.report.tasks_completed as f64 / self.elapsed.as_secs_f64()
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        smartred_stats::percentile_nearest_rank(&self.latencies, p) * 1e3
    }

    fn jobs_per_sec(&self) -> f64 {
        self.run.report.total_jobs as f64 / self.elapsed.as_secs_f64()
    }

    /// One table / bench-JSON row: `lead`, then those measured columns
    /// whose keys `columns` names (space-separated), in the one order
    /// every `BENCH_*.json` lists them.
    fn row(&self, mut lead: Vec<Field>, columns: &str) -> Vec<Field> {
        let r = &self.run.report;
        let measured = [
            ("tasks_per_sec", format!("{:.2}", self.throughput())),
            ("jobs_per_sec", format!("{:.2}", self.jobs_per_sec())),
            ("p50_ms", format!("{:.3}", self.percentile_ms(0.50))),
            ("p99_ms", format!("{:.3}", self.percentile_ms(0.99))),
            ("jobs_per_task", format!("{:.4}", r.cost_factor())),
            ("audits", r.audits.to_string()),
            ("hedges_launched", r.hedges_launched.to_string()),
            ("hedges_won", r.hedges_won.to_string()),
            ("hedges_wasted", r.hedges_wasted.to_string()),
            ("total_cost", r.total_cost().to_string()),
            ("reliability", format!("{:.4}", r.reliability())),
        ];
        let wanted = |(key, _): &Field| columns.split_whitespace().any(|c| c == *key);
        lead.extend(measured.into_iter().filter(wanted));
        lead
    }
}

/// Runs `payloads` through a fresh runtime under `strategy` on the
/// closed loop, as `leg` describes.
fn drive<S>(name: &'static str, strategy: S, payloads: &[Payload], leg: &Leg) -> Outcome
where
    S: RedundancyStrategy<bool> + Clone + Send + Sync + 'static,
{
    let cfg = RuntimeConfig {
        workers: Some(leg.workers),
        queue_cap: leg.window,
        max_active: leg.window,
        deadline: Duration::from_secs(5),
        job_cap: leg.job_cap,
        discipline: leg.audit.is_enabled().then(QuarantinePolicy::default),
        audit: leg.audit,
        audit_seed: leg.seed,
        hedge: leg.hedge.then(hedge_policy),
        assignment: leg.assignment,
        ..RuntimeConfig::default()
    };
    let wal_dir = leg.durable.then(|| scratch_dir("bench-wal"));
    let ((elapsed, latencies), run) = serve(
        cfg,
        leg.shards,
        wal_dir.as_deref(),
        None,
        strategy,
        leg.pool(),
        |client| closed_loop(client, payloads, leg.window),
    );
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert_eq!(
        run.report.tasks_completed + run.report.tasks_capped,
        payloads.len(),
        "{name}: every submitted task must reach a verdict or cap out"
    );
    // Replay cross-check: the journal folds to the identical live report.
    assert_eq!(
        report_from_journal(&run.journal),
        run.report,
        "{name}: journal replay must reproduce the live report exactly"
    );
    Outcome {
        name,
        run,
        elapsed,
        latencies,
    }
}

/// Creates the directory `path` points into.
fn create_parent(path: &str) {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
}

/// Keeps the WAL of a failing round where CI uploads from: a lone segment
/// as `path`, segment `k` of several as `path.<k>` — the divergence may
/// sit in any shard's.
fn preserve_wal(path: &str, segments: &[PathBuf]) {
    create_parent(path);
    for (k, segment) in segments.iter().enumerate() {
        let to = match segments.len() {
            1 => path.to_string(),
            _ => format!("{path}.{k}"),
        };
        match std::fs::copy(segment, &to) {
            Ok(_) => eprintln!("failing WAL preserved at {to}"),
            Err(e) => eprintln!("could not preserve {}: {e}", segment.display()),
        }
    }
}

fn quoted(text: &str) -> String {
    format!("\"{text}\"")
}

/// The head every serving `BENCH_*.json` opens with.
fn serving_header(bench: u32, name: &str, tasks: usize, workers: usize, seed: u64) -> Vec<Field> {
    vec![
        ("bench", bench.to_string()),
        ("name", quoted(name)),
        ("tasks", tasks.to_string()),
        ("workers", workers.to_string()),
        ("seed", seed.to_string()),
        ("wrong_rate", WRONG_RATE.to_string()),
        ("margin", MARGIN.to_string()),
    ]
}

/// Writes one bench-JSON document — `header` members, then `rows` one per
/// line under `rows_key` — creating parent directories as needed: the
/// single emitter of every `--bench-json` mode.
fn write_bench_json(path: &str, header: &[Field], rows_key: &str, rows: &[Vec<Field>]) {
    let members = |fields: &[Field], sep: &str| {
        let rendered = fields
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"));
        rendered.collect::<Vec<_>>().join(sep)
    };
    let rows: Vec<String> = rows
        .iter()
        .map(|row| format!("    {{{}}}", members(row, ", ")))
        .collect();
    let json = format!(
        "{{\n  {},\n  \"{rows_key}\": [\n{}\n  ]\n}}\n",
        members(header, ",\n  "),
        rows.join(",\n")
    );
    create_parent(path);
    std::fs::write(path, json).expect("write bench json");
    println!("bench-json: wrote {path}");
}

/// Prints `rows` as an aligned table under their keys: the rows
/// [`write_bench_json`] writes, for the eye.
fn print_table(rows: &[Vec<Field>]) {
    let cell = |value: &str, column: usize| {
        let lengths = rows.iter().map(|row| row[column].1.len());
        let width = lengths.chain([rows[0][column].0.len()]).max().unwrap_or(0);
        format!("{:>width$}", value.trim_matches('"'))
    };
    let line = |cells: Vec<&str>| {
        let cells = cells.iter().enumerate().map(|(i, value)| cell(value, i));
        println!("{}", cells.collect::<Vec<_>>().join("  "));
    };
    line(rows[0].iter().map(|(key, _)| *key).collect());
    for row in rows {
        line(row.iter().map(|(_, value)| value.as_str()).collect());
    }
}

/// A mode's requirements: each one violated prints its `FAIL:` line, and
/// any of them turns the exit code to 1.
#[derive(Default)]
struct Checks {
    failed: bool,
}

impl Checks {
    fn require(&mut self, holds: bool, violation: String) {
        if !holds {
            eprintln!("FAIL: {violation}");
            self.failed = true;
        }
    }
}

/// The default mode: TR/PR/IR at matched predicted reliability on the
/// standard pool. Returns process exit code.
fn compare(args: &Args) -> i32 {
    let (d, k, target) = matched();
    let (tasks, workers, shards, seed) = (args.tasks, args.workers, args.shards, args.seed);
    println!(
        "serve_bench: {tasks} tasks, {workers} workers, {shards} shard(s), seed {seed}, r = {:.2}; \
         IR d = {MARGIN} vs PR/TR k = {} (predicted R >= {target:.4})",
        1.0 - WRONG_RATE,
        k.get(),
    );
    let payloads = sat_workload(args.seed, args.tasks);
    let leg = Leg::standard(args);
    let outcomes = [
        drive("TR", Traditional::new(k), &payloads, &leg),
        drive("PR", Progressive::new(k), &payloads, &leg),
        drive("IR", Iterative::new(d), &payloads, &leg),
    ];

    let rows = outcomes.each_ref().map(|o| {
        let mut row = o.row(
            vec![("strategy", quoted(o.name))],
            "tasks_per_sec p50_ms p99_ms jobs_per_task reliability",
        );
        row.push(("shed_rate", format!("{:.4}", o.run.admission.shed_rate())));
        row
    });
    print_table(&rows);
    let [tr, pr, ir] = &outcomes;
    if let Some(path) = &args.journal {
        create_parent(path);
        std::fs::write(path, ir.run.journal.to_jsonl()).expect("write journal");
        eprintln!(
            "journal: {} events -> {path} (digest {})",
            ir.run.journal.events().len(),
            ir.run.journal.digest_hex()
        );
    }

    // Figure 5 qualitatively: at matched reliability, iterative redundancy
    // is the cheapest and traditional the most expensive.
    let mut checks = Checks::default();
    let cost = |o: &Outcome| o.run.report.cost_factor();
    for (cheap, dear) in [(ir, pr), (pr, tr)] {
        let (a, b) = (cheap.name, dear.name);
        let violation = format!(
            "{a} jobs/task {:.2} must beat {b} {:.2}",
            cost(cheap),
            cost(dear)
        );
        checks.require(cost(cheap) < cost(dear), violation);
    }
    for o in &outcomes {
        let (name, achieved) = (o.name, o.run.report.reliability());
        let violation = format!(
            "{name} achieved reliability {achieved:.4} fell far below the {target:.4} target"
        );
        checks.require(achieved >= target - 0.05, violation);
    }
    if checks.failed {
        return 1;
    }
    println!(
        "cost ordering holds: IR {:.2} < PR {:.2} < TR {:.2} jobs/task",
        cost(ir),
        cost(pr),
        cost(tr)
    );
    0
}

/// The matched-cost acceptance demo: against an adaptive cartel, an
/// audit-enabled strategy must achieve strictly higher measured
/// reliability than the best audit-free strategy at no greater total cost
/// (replicas + audits). Returns process exit code.
fn audit_demo(args: &Args) -> i32 {
    let tasks = if args.smoke { 200 } else { 400 };
    // A coalition of half the pool lying in concert on a quarter of the
    // tasks (and behaving honestly otherwise). On a lied-on task the vote
    // splits evenly, so *no* replication level fixes it: the margin race
    // is a fair coin walk that loses half the decided races and has
    // unbounded expected length besides — which is why every leg runs
    // under a job cap (a capped task fails, delivering no answer). An
    // auditor that recomputes one sample convicts the whole coalition.
    let members = match args.cartel {
        0 => (args.workers / 2) as u32,
        n => n,
    };
    let cartel = Cartel::new(members, 0.25);
    let free = Leg {
        shards: None,
        cartel: Some(cartel),
        job_cap: Some(64),
        ..Leg::standard(args)
    };
    let audited = Leg {
        audit: AuditPolicy::spot(0.2),
        ..free
    };
    println!(
        "audit-demo: {tasks} tasks, {} workers, cartel of {} lying on {:.0}% of tasks",
        args.workers,
        cartel.size,
        cartel.lie_rate * 100.0
    );
    let payloads = sat_workload(args.seed, tasks);
    let d4 = Iterative::new(VoteMargin::new(4).unwrap());
    let d6 = Iterative::new(VoteMargin::new(6).unwrap());
    let outcomes = [
        drive("IR-4", d4, &payloads, &free),
        drive("IR-6", d6, &payloads, &free),
        drive("IR-4+audit", d4, &payloads, &audited),
    ];
    // Delivered reliability: the fraction of *submitted* tasks whose
    // accepted answer was correct. A capped task delivered nothing, so it
    // counts against the strategy — unlike `report.reliability()`, which
    // would quietly drop failed races from the denominator.
    let delivered = |o: &Outcome| o.run.report.tasks_correct as f64 / tasks as f64;
    let rows = outcomes.each_ref().map(|o| {
        let lead = vec![("strategy", quoted(o.name))];
        let mut row = o.row(lead, "tasks_per_sec jobs_per_task audits total_cost");
        row.push(("voided", o.run.report.verdicts_voided.to_string()));
        row.push(("capped", o.run.report.tasks_capped.to_string()));
        row.push(("delivered", format!("{:.4}", delivered(o))));
        row
    });
    print_table(&rows);
    let [ir4, ir6, audited] = &outcomes;
    let best_free = if delivered(ir6) >= delivered(ir4) {
        ir6
    } else {
        ir4
    };
    let cost = |o: &Outcome| o.run.report.total_cost();
    let mut checks = Checks::default();
    let violation = "the audit-enabled run never audited anything";
    checks.require(audited.run.report.audits > 0, violation.to_string());
    let violation = format!(
        "audited delivered reliability {:.4} must strictly beat the best audit-free ({}) {:.4}",
        delivered(audited),
        best_free.name,
        delivered(best_free)
    );
    checks.require(delivered(audited) > delivered(best_free), violation);
    // Matched cost against the *expensive* audit-free competitor: buying
    // more replication (IR-6) costs at least as much as IR-4 plus the
    // audit budget, yet loses on measured reliability.
    let violation = format!(
        "audited total cost {} must not exceed IR-6's {}",
        cost(audited),
        cost(ir6)
    );
    checks.require(cost(audited) <= cost(ir6), violation);
    if checks.failed {
        return 1;
    }
    println!(
        "matched-cost frontier holds: IR-4+audit delivers {:.4} at cost {}, beating {} {:.4} at \
         cost {}",
        delivered(audited),
        cost(audited),
        best_free.name,
        delivered(best_free),
        cost(ir6),
    );
    0
}

/// `BENCH_6.json`: sweeps audit fractions {0, 0.05, 0.2} under the
/// standard 30%-faulty pool, so audit overhead and future perf PRs have a
/// reference point.
fn bench6_json(args: &Args, path: &str) -> i32 {
    let (d, ..) = matched();
    let payloads = sat_workload(args.seed, args.tasks);
    let mut rows = Vec::new();
    for frac in [0.0, 0.05, 0.2] {
        let leg = Leg {
            audit: match frac > 0.0 {
                true => AuditPolicy::spot(frac),
                false => AuditPolicy::disabled(),
            },
            ..Leg::standard(args)
        };
        let o = drive("IR", Iterative::new(d), &payloads, &leg);
        rows.push(o.row(
            vec![("audit_fraction", frac.to_string())],
            "tasks_per_sec p50_ms p99_ms jobs_per_task audits total_cost reliability",
        ));
    }
    print_table(&rows);
    let name = "serve_bench audit-fraction sweep";
    let header = serving_header(6, name, args.tasks, args.workers, args.seed);
    write_bench_json(path, &header, "runs", &rows);
    0
}

/// `BENCH_7.json`: sweeps shard counts {1, 2, 4, …, `--shards N`} at fixed
/// total worker count and admission capacity. Each leg is a closed loop
/// of zero-work synthetic tasks on the sharded runtime with a durable
/// per-event-fsync WAL, so the measurement isolates the coordination
/// plane — the thing sharding scales — rather than worker arithmetic:
/// each shard's fsync stream is serialized by its coordinator, N shards
/// overlap N streams. Verdict reliability is matched across rows by
/// construction — fault draws are keyed by `(seed, task, replica)`, so
/// shard count cannot change a single vote.
fn bench7_json(args: &Args, path: &str) -> i32 {
    let (d, ..) = matched();
    let mut counts: Vec<usize> = [1, 2, 4, 8]
        .into_iter()
        .filter(|&c| c <= args.shards)
        .collect();
    if !counts.contains(&args.shards) {
        counts.push(args.shards);
    }
    let payload = Payload::Synthetic {
        answer: true,
        work: Duration::ZERO,
    };
    let payloads = vec![payload; args.tasks];
    let mut rows = Vec::new();
    let mut jobs_per_sec = Vec::new();
    for &shards in &counts {
        let leg = Leg {
            shards: Some(shards),
            durable: true,
            ..Leg::standard(args)
        };
        let o = drive("IR", Iterative::new(d), &payloads, &leg);
        rows.push(o.row(
            vec![("shards", shards.to_string())],
            "tasks_per_sec jobs_per_sec p50_ms p99_ms jobs_per_task reliability",
        ));
        jobs_per_sec.push(o.jobs_per_sec());
    }
    print_table(&rows);
    let speedup = jobs_per_sec.last().unwrap() / jobs_per_sec[0];
    println!(
        "bench-json: {}-shard speedup over 1 shard: {speedup:.2}x jobs/s",
        counts.last().unwrap()
    );
    let name = "serve_bench throughput-vs-shards sweep";
    let mut header = serving_header(7, name, args.tasks, args.workers, args.seed);
    header.push(("wal_batch", "1".to_string()));
    header.push(("speedup_max_over_one", format!("{speedup:.2}")));
    write_bench_json(path, &header, "runs", &rows);
    0
}

/// `BENCH_8.json`: sweeps TR/PR/IR at matched predicted reliability,
/// hedging off vs on, on the straggler pool: p50/p99
/// first-dispatch→verdict latency against jobs per task and hedge cost.
/// Returns non-zero unless hedging cuts TR's p99 while changing not a
/// single verdict (matched reliability is exact, not statistical: votes
/// are pure in `(seed, task, replica)`, so the hedged leg of each pair
/// delivers bit-identical correctness).
fn bench8_json(args: &Args, path: &str) -> i32 {
    let (d, k, _) = matched();
    let payloads = sat_workload(args.seed, args.tasks);
    // One task in flight, and a pool at least as wide as TR's burst of k
    // replicas, keeps queueing delay out of the measurement entirely: a
    // job's elapsed time is its service time, so the quantile trigger
    // fires on true execution-time stragglers rather than on jobs stuck
    // behind one. (With a pool narrower than the wave, queue wait counts
    // as "elapsed", spurious twins fire on queued-but-fast jobs, and the
    // added load *raises* the tail — the classic hedging failure mode.)
    // Throughput is sacrificed knowingly: this sweep measures the latency
    // frontier, BENCH_6/7 own the throughput story.
    let plain = Leg {
        workers: args.workers.max(k.get() + 5),
        window: 1,
        hedge: false,
        straggle: true,
        ..Leg::standard(args)
    };
    let hedged = Leg {
        hedge: true,
        ..plain
    };
    println!(
        "bench-json: straggler frontier: {} tasks, {} workers, assignment {}, IR d = {MARGIN} vs \
         PR/TR k = {}",
        args.tasks,
        plain.workers,
        args.assignment.name(),
        k.get(),
    );
    let pairs = [
        (
            "TR",
            drive("TR", Traditional::new(k), &payloads, &plain),
            drive("TR+h", Traditional::new(k), &payloads, &hedged),
        ),
        (
            "PR",
            drive("PR", Progressive::new(k), &payloads, &plain),
            drive("PR+h", Progressive::new(k), &payloads, &hedged),
        ),
        (
            "IR",
            drive("IR", Iterative::new(d), &payloads, &plain),
            drive("IR+h", Iterative::new(d), &payloads, &hedged),
        ),
    ];
    let mut rows = Vec::new();
    let mut checks = Checks::default();
    for (name, off, on) in &pairs {
        let (plain, hedged) = (&off.run.report, &on.run.report);
        // Verdict invariance at the shared seed: the hedged leg must buy
        // its latency with twins alone, never with a changed answer.
        let invariant =
            (plain.tasks_correct, plain.total_jobs) == (hedged.tasks_correct, hedged.total_jobs);
        let violation = format!(
            "{name}: hedging moved a verdict or wave job ({} vs {} correct, {} vs {} jobs)",
            plain.tasks_correct, hedged.tasks_correct, plain.total_jobs, hedged.total_jobs,
        );
        checks.require(invariant, violation);
        let settled = hedged.hedges_launched == hedged.hedges_won + hedged.hedges_wasted;
        checks.require(
            settled,
            format!("{name}: a launched twin escaped settlement"),
        );
        for (is_hedged, o) in [(false, off), (true, on)] {
            let lead = vec![
                ("strategy", quoted(name)),
                ("hedged", is_hedged.to_string()),
            ];
            let columns = "tasks_per_sec p50_ms p99_ms jobs_per_task hedges_launched hedges_won \
                           hedges_wasted total_cost reliability";
            rows.push(o.row(lead, columns));
        }
    }
    print_table(&rows);
    let (_, tr_off, tr_on) = &pairs[0];
    let violation = "a 1% straggler rate must trigger hedges under TR";
    checks.require(tr_on.run.report.hedges_launched > 0, violation.to_string());
    let (p99_off, p99_on) = (tr_off.percentile_ms(0.99), tr_on.percentile_ms(0.99));
    let violation = format!(
        "hedging must cut TR's p99 at matched reliability: {p99_on:.2} ms vs {p99_off:.2} ms"
    );
    checks.require(p99_on < p99_off, violation);
    let policy = hedge_policy();
    let name = "serve_bench straggler hedging frontier";
    let mut header = serving_header(8, name, args.tasks, plain.workers, args.seed);
    header.extend([
        ("k", k.get().to_string()),
        ("assignment", quoted(args.assignment.name())),
        ("window", plain.window.to_string()),
        ("hedge_quantile", policy.quantile.to_string()),
        ("hedge_multiplier", policy.multiplier.to_string()),
        ("hedge_max_per_task", policy.max_per_task.to_string()),
        ("slow_ms", SLOW.as_millis().to_string()),
        ("fast_ms", "1".to_string()),
        ("slow_rate", SLOW_RATE.to_string()),
        ("tr_p99_ms_unhedged", format!("{p99_off:.3}")),
        ("tr_p99_ms_hedged", format!("{p99_on:.3}")),
    ]);
    write_bench_json(path, &header, "runs", &rows);
    if checks.failed {
        return 1;
    }
    println!(
        "hedging frontier holds: TR p99 {p99_off:.2} ms -> {p99_on:.2} ms at bit-identical \
         verdicts"
    );
    0
}

/// Workers for the DAG chaos harness: collude unanimously on one runtime
/// task id (so exactly that task accepts a wrong verdict and poisons its
/// descendants deterministically) and answer honestly everywhere else.
struct DagColluder {
    target: u32,
}

impl Worker for DagColluder {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        let honest = job.payload.execute();
        if job.task == self.target {
            Some((false, !honest))
        } else {
            Some((true, honest))
        }
    }
}

/// The DAG crash-point harness (`--dag --chaos`): the live pipeline run
/// once uninterrupted (golden), then re-run with a durable WAL and the
/// coordinator killed at seeded points. Each crashed run's WAL must
/// tolerant-parse (torn tails included) into a journal whose DAG
/// annotation stream — `StageDecided` per decided stage, `PoisonPropagated`
/// per poisoned task — is an exact prefix of the golden run's; sharded,
/// that is the deterministic merge of all shard WAL segments. Returns
/// process exit code.
fn dag_chaos(args: &Args) -> i32 {
    use smartred_dag::{annotations_from_journal, run_dag_with, DagSpec, StageStrategy};

    let ir2 = StageStrategy::ir(2).unwrap();
    let spec = DagSpec::map_shuffle_reduce(8, 2, ir2, ir2, ir2).expect("valid pipeline spec");
    let total = spec.total_tasks() as usize;
    let payloads = sat_workload(args.seed, total);
    let shards = (args.shards > 1).then_some(args.shards);
    // The driver submits sequentially into a fresh runtime each leg, so
    // runtime ids equal DAG ids: target map task 3, which poisons its
    // pairwise combine child (11) and, through the shuffle, both sinks.
    let target = 3;
    // Live stages decide in milliseconds; the patience only pays out on
    // the crashed legs, where it is pure added wall time.
    let patience = Duration::from_secs(2);
    let leg = |wal_dir: Option<&Path>, crash_at: Option<u64>| {
        let cfg = RuntimeConfig {
            workers: Some(args.workers),
            queue_cap: total,
            max_active: total,
            ..RuntimeConfig::default()
        };
        let colluder = move |_| Box::new(DagColluder { target }) as Box<dyn Worker>;
        serve(cfg, shards, wal_dir, crash_at, ir2, colluder, |client| {
            run_dag_with(client, &spec, &payloads, patience)
        })
    };

    let (golden_report, golden_run) = leg(None, None);
    assert!(!golden_report.crashed && !golden_run.crashed);
    let golden_ann = annotations_from_journal(&golden_run.journal);
    let mut golden_stages = golden_ann.stages.clone();
    golden_stages.sort_unstable();
    assert_eq!(
        golden_stages,
        vec![(0, 7, 1), (1, 7, 1), (2, 0, 2)],
        "golden DAG run: one poisoned map task must corrupt both sinks"
    );
    assert_eq!(golden_ann.poisoned_tasks, 3);
    let golden_events = golden_run.journal.events().len();
    println!(
        "dag-chaos: golden pipeline: {total} tasks, {} jobs, {} poisoned, stages {:?}, \
         {golden_events} events, {} shard(s)",
        golden_report.jobs, golden_report.poisoned_tasks, golden_ann.stages, args.shards,
    );

    let mut checks = Checks::default();
    for (round, frac) in [0.25, 0.6, 0.9].into_iter().enumerate() {
        // Per-coordinator crash point: the sharded legs kill shard 0 after
        // its share of the golden stream.
        let stream = golden_events / args.shards;
        let crash_at = ((stream as f64 * frac) as u64).max(1);
        let dir = scratch_dir(&format!("dagchaos-round-{round}"));
        let (report, run) = leg(Some(&dir), Some(crash_at));
        assert!(
            report.crashed && run.crashed,
            "round {round}: the coordinator must die at its chaos point"
        );
        // Reassemble whatever reached disk: tolerant-parse each WAL
        // segment (the killed shard's tail may be torn mid-record) and
        // merge them deterministically.
        let segments = wal_segments(&dir, shards);
        let mut parts = Vec::new();
        let mut torn = false;
        for segment in &segments {
            let prefix = Journal::read_wal(segment, 1)
                .expect("read WAL segment")
                .expect("WAL prefix parses");
            torn |= prefix.torn;
            parts.push(prefix.journal);
        }
        let merged = Journal::merge_sharded(&parts);
        let ann = annotations_from_journal(&merged);
        // Durability contract: the WAL's annotation stream is an exact
        // prefix of the golden one — never a reordering, never a stage the
        // run hadn't decided, and no poison marks beyond the golden count.
        let ok = golden_ann.stages.starts_with(&ann.stages)
            && ann.poisoned_tasks <= golden_ann.poisoned_tasks;
        println!(
            "dag-chaos: round {round}: killed after {crash_at}/{stream} events (torn: {torn}), \
             WAL holds {} events, {} of {} stage verdicts, {} poison marks -> {}",
            merged.len(),
            ann.stages.len(),
            golden_ann.stages.len(),
            ann.poisoned_tasks,
            if ok { "prefix of golden" } else { "MISMATCH" },
        );
        let violation = format!(
            "round {round}: WAL annotations diverged from golden\n  golden: {:?} / {} poisoned\n  \
             walled: {:?} / {} poisoned",
            golden_ann.stages, golden_ann.poisoned_tasks, ann.stages, ann.poisoned_tasks
        );
        checks.require(ok, violation);
        if let (false, Some(path)) = (ok, &args.journal) {
            preserve_wal(path, &segments);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if checks.failed {
        return 1;
    }
    println!("dag-chaos holds: every crash point leaves a WAL prefix of the golden annotations");
    0
}

/// One policy of the DAG comparison: a label plus the per-stage strategy
/// assignment baked into its spec.
struct DagPolicy {
    label: String,
    spec: smartred_dag::DagSpec,
    /// `true` for the per-stage mixes, `false` for the uniform baselines.
    mix: bool,
}

/// Everything BENCH_9 records about one policy.
struct DagRow {
    policy: DagPolicy,
    stats: smartred_dag::DagStats,
    /// Nearest-rank percentiles of per-instance makespans, in sim units.
    p50_makespan: f64,
    p99_makespan: f64,
    /// Journal digest of the instance-0 run (replay-checked).
    digest: String,
    /// Hedge twins launched in the instance-0 run.
    hedge_jobs: u64,
}

/// Measures `policy` over `runs` Monte-Carlo instances: aggregate stats
/// through [`smartred_dag::monte_carlo`] (honoring `SMARTRED_THREADS` —
/// the index-ordered fold is bit-identical at every thread count), plus a
/// journaled instance-0 run that must replay to its live report exactly.
fn measure_dag(policy: DagPolicy, cfg: &smartred_dag::DagSimConfig, runs: usize) -> DagRow {
    use smartred_core::parallel::Threads;
    use smartred_dag::{instance_seed, monte_carlo, run, run_journaled};

    let stats = monte_carlo(&policy.spec, cfg, runs, Threads::Auto);
    let mut makespans: Vec<f64> = (0..runs)
        .map(|i| {
            let mut c = cfg.clone();
            c.seed = instance_seed(cfg.seed, i as u64);
            run(&policy.spec, &c).makespan_units
        })
        .collect();
    makespans.sort_by(|a, b| a.partial_cmp(b).expect("makespans are finite"));
    let mut c0 = cfg.clone();
    c0.seed = instance_seed(cfg.seed, 0);
    let (live, journal) = run_journaled(&policy.spec, &c0);
    assert_eq!(
        smartred_dag::report_from_journal(&journal, &policy.spec),
        live,
        "{}: DAG journal replay must reproduce the live report exactly",
        policy.label
    );
    DagRow {
        stats,
        p50_makespan: smartred_stats::percentile_nearest_rank(&makespans, 0.50),
        p99_makespan: smartred_stats::percentile_nearest_rank(&makespans, 0.99),
        digest: journal.digest_hex(),
        hedge_jobs: live.hedge_jobs,
        policy,
    }
}

/// The `--dag` comparison: per-stage strategy mixes vs budget-matched
/// uniform strategies on a poisoned map→shuffle→reduce pipeline, written
/// as `BENCH_9.json`. Returns process exit code.
///
/// The adversary corrupts the wide map cut hard and everything else only
/// lightly, so redundancy bought *uniformly* is mostly wasted on stages
/// nobody attacks while the attacked stage stays under-defended. Each
/// uniform family (TR, PR, IR) is calibrated empirically to the cheapest
/// parameter whose measured mean job cost meets the mix's budget — the
/// uniform spends at least as much and must still let more poison escape.
fn bench9_json(args: &Args, path: &str) -> i32 {
    use smartred_dag::{DagSimConfig, DagSpec, PoisonAdversary, StageStrategy};

    /// Map width; the attacked cut. Combine matches it pairwise.
    const WIDTH: u32 = 16;
    /// Reduce fan-in width — the pipeline's sink stage.
    const REDUCE: u32 = 2;
    /// Wrong-vote rate on the targeted map stage.
    const TARGETED: f64 = 0.3;
    /// Background wrong-vote rate everywhere else.
    const BACKGROUND: f64 = 0.02;

    let runs = if args.smoke { 160 } else { 400 };
    let cfg = DagSimConfig {
        seed: args.seed,
        adversary: PoisonAdversary::targeting(0, TARGETED, BACKGROUND),
        // Service draws are U[0.5, 1.5] × node speed; the default 1.3×
        // trigger leaves a twin almost no room to win the race, so the
        // hedged row would only ever show the cost side. 1.0× lets twins
        // beat genuine slow draws and actually trim the stage tail.
        hedge_after_units: 1.0,
        ..DagSimConfig::default()
    };

    let pipeline = |map: StageStrategy, combine: StageStrategy, reduce: StageStrategy, mix| {
        let spec = DagSpec::map_shuffle_reduce(WIDTH, REDUCE, map, combine, reduce)
            .expect("static pipeline spec is valid");
        DagPolicy {
            label: format!("{}/{}/{}", map.label(), combine.label(), reduce.label()),
            spec,
            mix,
        }
    };
    let uniform = |s: StageStrategy| pipeline(s, s, s, false);

    println!(
        "bench-json: DAG pipeline: map {WIDTH} -> combine {WIDTH} -> reduce {REDUCE}, \
         adversary {TARGETED} on map / {BACKGROUND} background, {runs} runs, seed {}",
        args.seed
    );
    // The mix: heavy IR on the attacked cut, light IR elsewhere (enough to
    // absorb background noise), and a hedged variant of the same votes.
    let ir = |d: usize| StageStrategy::ir(d).unwrap();
    let mix = measure_dag(pipeline(ir(8), ir(2), ir(2), true), &cfg, runs);
    let hedged_mix = measure_dag(
        pipeline(StageStrategy::hir(8).unwrap(), ir(2), ir(2), true),
        &cfg,
        runs,
    );
    let budget = mix.stats.mean_cost;

    // Calibration: walk each uniform family upward and keep the first
    // parameter whose measured budget reaches the mix's. Cost is monotone
    // in the parameter, so the walk stops at the matched point; a short
    // Monte-Carlo (cost concentrates fast) keeps calibration cheap.
    let calibrate = |candidates: Vec<StageStrategy>| -> DagPolicy {
        use smartred_core::parallel::Threads;
        let calibration_runs = 60;
        let mut last = None;
        for s in candidates {
            let p = uniform(s);
            let cost =
                smartred_dag::monte_carlo(&p.spec, &cfg, calibration_runs, Threads::Auto).mean_cost;
            let done = cost >= budget;
            last = Some(p);
            if done {
                break;
            }
        }
        last.expect("candidate list is nonempty")
    };
    let tr_uniform = calibrate(
        (1..=31)
            .step_by(2)
            .map(|k| StageStrategy::tr(k).unwrap())
            .collect(),
    );
    let pr_uniform = calibrate(
        (1..=31)
            .step_by(2)
            .map(|k| StageStrategy::pr(k).unwrap())
            .collect(),
    );
    let ir_uniform = calibrate((1..=12).map(|d| StageStrategy::ir(d).unwrap()).collect());

    let rows = [
        mix,
        hedged_mix,
        measure_dag(tr_uniform, &cfg, runs),
        measure_dag(pr_uniform, &cfg, runs),
        measure_dag(ir_uniform, &cfg, runs),
    ];

    let json_rows = rows.each_ref().map(|r| {
        vec![
            ("policy", quoted(&r.policy.label)),
            ("mix", r.policy.mix.to_string()),
            ("escape_rate", format!("{:.6}", r.stats.escape_rate)),
            ("mean_cost", format!("{:.4}", r.stats.mean_cost)),
            ("mean_makespan", format!("{:.4}", r.stats.mean_makespan)),
            ("p50_makespan", format!("{:.4}", r.p50_makespan)),
            ("p99_makespan", format!("{:.4}", r.p99_makespan)),
            ("mean_poisoned", format!("{:.4}", r.stats.mean_poisoned)),
            ("journal_digest", quoted(&r.digest)),
        ]
    });
    print_table(&json_rows);

    let mut checks = Checks::default();
    let (mix, hedged_mix, uniforms) = (&rows[0], &rows[1], &rows[2..]);
    for u in uniforms {
        let (label, cost, escape) = (&u.policy.label, u.stats.mean_cost, u.stats.escape_rate);
        let violation = format!(
            "uniform {label} calibrated below the mix budget ({cost:.1} vs {budget:.1} jobs)"
        );
        checks.require(cost >= budget * 0.98, violation);
        let violation = format!(
            "mix {} escape {:.4} must beat uniform {label} escape {escape:.4} at matched cost \
             ({budget:.1} vs {cost:.1} jobs)",
            mix.policy.label, mix.stats.escape_rate,
        );
        checks.require(mix.stats.escape_rate < escape, violation);
    }
    let violation = "the hedged mix never launched a twin";
    checks.require(hedged_mix.hedge_jobs > 0, violation.to_string());

    let detail = "all quantities in simulated units; bit-identical across SMARTRED_THREADS";
    let header = [
        ("bench", "9".to_string()),
        ("name", quoted("serve_bench DAG per-stage strategy mix")),
        ("width", WIDTH.to_string()),
        ("reduce_width", REDUCE.to_string()),
        ("nodes", cfg.nodes.to_string()),
        ("seed", args.seed.to_string()),
        ("runs", runs.to_string()),
        ("targeted_wrong", TARGETED.to_string()),
        ("background_wrong", BACKGROUND.to_string()),
        ("link_bandwidth", cfg.link.bandwidth.to_string()),
        ("runs_detail", quoted(detail)),
    ];
    write_bench_json(path, &header, "rows", &json_rows);
    if checks.failed {
        return 1;
    }
    println!(
        "per-stage frontier holds: mix {} escapes {:.4} at {:.1} jobs; every budget-matched \
         uniform escapes more",
        mix.policy.label, mix.stats.escape_rate, budget
    );
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}; {}", usage());
        std::process::exit(2);
    });
    let code = if args.dag && args.chaos {
        dag_chaos(&args)
    } else if args.dag {
        bench9_json(&args, args.bench_json.as_deref().unwrap_or("BENCH_9.json"))
    } else if args.audit_demo {
        audit_demo(&args)
    } else if let Some(path) = &args.bench_json {
        if args.hedge {
            bench8_json(&args, path)
        } else if args.shards > 1 {
            bench7_json(&args, path)
        } else {
            bench6_json(&args, path)
        }
    } else {
        compare(&args)
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_usage_is_an_error_and_the_usage_line_is_the_table() {
        for argv in [
            &["--no-such-mode"][..],
            &["--chaos"],
            &["--tasks"],
            &["--tasks", "many"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?}");
        }
        let args = parse(&[
            "--dag", "--chaos", "--shards", "0", "--smoke", "--tasks", "7",
        ])
        .unwrap();
        assert!(args.dag && args.chaos && args.smoke);
        assert_eq!((args.shards, args.tasks), (1, 7));
        for (name, _) in &FLAGS {
            assert!(usage().contains(&format!("[{name}")), "{name}");
        }
    }

    #[test]
    fn a_failing_round_keeps_every_segment() {
        let dir = scratch_dir("preserve-test");
        let segments = wal_segments(&dir, Some(3));
        for (k, segment) in segments.iter().enumerate() {
            std::fs::write(segment, format!("shard {k}")).unwrap();
        }
        let kept = dir.join("kept/failing.wal.jsonl").display().to_string();
        preserve_wal(&kept, &segments);
        for k in 0..3 {
            let copy = std::fs::read_to_string(format!("{kept}.{k}")).unwrap();
            assert_eq!(copy, format!("shard {k}"));
        }
        preserve_wal(&kept, &segments[2..]);
        assert_eq!(std::fs::read_to_string(&kept).unwrap(), "shard 2");
        let _ = std::fs::remove_dir_all(dir);
    }
}
