//! Closed-loop load generator and chaos harness for the live runtime.
//!
//! ```text
//! serve_bench [--smoke] [--chaos] [--tasks N] [--workers N] [--seed N] [--journal <path>]
//! ```
//!
//! Drives the `smartred-runtime` job-serving runtime with a 30%-faulty
//! worker pool under traditional, progressive, and iterative redundancy at
//! *matched predicted reliability*, keeping a fixed window of tasks in
//! flight (closed loop). For each strategy it reports throughput, p50/p99
//! first-dispatch→verdict latency, jobs per task, achieved reliability,
//! and the shed rate — the live analogue of the paper's Figure 5 cost
//! comparison — then asserts the qualitative cost ordering
//! IR < PR < TR jobs/task and exits non-zero if it fails to hold.
//!
//! `--chaos` runs the crash-recovery harness instead: a golden
//! uninterrupted run (with crash-injecting workers) fixes the expected
//! outcome, then the same workload is re-run with a durable WAL and the
//! coordinator killed at seeded points; each crashed run is restarted with
//! `Runtime::recover` and must converge to a final journal whose verdicts,
//! per-task job counts, and totals equal the golden run's — and whose
//! folded report equals the live one — exiting non-zero otherwise.
//!
//! `--smoke` shrinks the run to a few hundred tasks so the whole binary
//! finishes within a CI smoke budget (~10 s). `--journal <path>` writes
//! the iterative run's event journal as JSONL (for artifact upload); every
//! run is additionally replay-checked by folding its journal back into a
//! report and requiring exact equality with the live one. Under `--chaos`,
//! `--journal <path>` names where the WAL of a *failed* recovery round is
//! preserved for artifact upload.
//!
//! `--cartel N` arms an adaptive coalition of the first N workers
//! (coordinated per-task lies, honest otherwise). Under `--chaos` the
//! coalition runs against an audit-enabled coordinator, checking that the
//! new audit events survive crash + WAL recovery. `--audit-demo` runs the
//! matched-cost acceptance comparison: against the cartel, an
//! audit-enabled strategy must beat the best audit-free strategy on
//! measured reliability at no greater total cost (replicas + audits).
//! `--bench-json <path>` sweeps audit fractions {0, 0.05, 0.2} and writes
//! the machine-readable throughput baseline (`BENCH_6.json`).
//!
//! `--shards N` runs the whole serving comparison on the sharded
//! multi-coordinator runtime (`ShardedRuntime`): tasks hash to one of N
//! coordinators with disjoint WAL segments and worker sub-pools behind a
//! router that owns admission. Combined with `--bench-json <path>` it
//! instead sweeps shard counts {1, 2, 4, …, N} under a durable
//! per-event-fsync WAL and writes the throughput-vs-shards baseline
//! (`BENCH_7.json`);
//! the sweep is coordination-bound (zero-work payloads) so it measures
//! exactly what sharding scales — the coordinator/WAL plane, at matched
//! verdict reliability across shard counts.
//!
//! `--hedge` arms straggler-aware hedging (quantile-triggered duplicate
//! replicas; the first pair member to answer supplies the vote) and
//! `--assignment <random|round-robin|least-loaded>` picks the replica
//! placement policy. Combined with `--bench-json <path>` it runs TR/PR/IR
//! hedged and unhedged on a straggler-prone pool and writes the
//! latency-vs-cost frontier (`BENCH_8.json`), exiting non-zero unless
//! hedging cuts TR's p99 latency at bit-identical verdicts. Combined with
//! `--chaos` it runs the crash-recovery harness with hedge pairs live at
//! every crash point.
//!
//! `--dag` runs the network-aware DAG pipeline comparison instead
//! (`smartred-dag`): a map→shuffle→reduce pipeline over a transfer-charged
//! simulated pool, attacked by a seeded adversary that targets the wide
//! map cut. A per-stage strategy *mix* (strong iterative redundancy on the
//! attacked stage, cheap strategies elsewhere) runs against uniform TR,
//! PR, and IR calibrated to spend at least the mix's measured job budget,
//! and `BENCH_9.json` records poison-escape rate, total cost, and
//! makespan (simulated units only — the file is bit-identical across
//! `SMARTRED_THREADS` settings). Exits non-zero unless the mix beats
//! every budget-matched uniform on escape rate and each policy's journal
//! replays to its live report exactly.
//!
//! `--disk-chaos` runs the durable-storage chaos harness: the same
//! workload re-runs with fault-injecting disks mounted under the
//! coordinator's WAL (failed fsync, short write, power-loss torn write).
//! Each detectable fault must crash the coordinator — fail-stop, never
//! limping on over a disk it cannot trust — and `Runtime::recover` on a
//! healthy disk must converge to the golden journal shape. The final leg
//! arms checksummed framing against silent in-place bit rot and requires
//! recovery to refuse and quarantine the rotten segment rather than
//! replay a corrupt record. Combined with `--bench-json <path>` it
//! instead measures the three durable-storage costs and writes
//! `BENCH_10.json`: WAL append throughput across sync x batch settings,
//! replay rate with and without checksums, and recovery time vs uptime —
//! full-WAL replay grows linearly while checkpointed recovery replays
//! only the suffix past the last seal, and the binary exits non-zero
//! unless the checkpointed leg replays well under half the events of the
//! full-replay leg at the longest uptime.

use std::collections::HashMap;
use std::path::PathBuf;
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
use smartred_desim::disk::DiskFaultPlan;
use smartred_desim::journal::{Journal, RunEvent, WalWriter};
use smartred_desim::time::SimTime;
use smartred_runtime::{
    report_from_journal, CartelWorker, Client, FaultProfile, FaultyWorker, JobAssignment, Payload,
    RecoveryError, Runtime, RuntimeConfig, RuntimeRun, ShardedClient, ShardedConfig,
    ShardedRuntime, SubmitOutcome, TaskVerdict, Worker,
};
use smartred_sat::{decompose, random_3sat, CnfFormula, ThreeSatConfig};

/// Worker honesty for the whole benchmark: r = 0.7 (30% colluding-wrong),
/// the paper's canonical hostile regime.
const WRONG_RATE: f64 = 0.3;
/// Iterative margin: d = 4 predicts R ≈ 0.967 at r = 0.7 (Eq. 6).
const MARGIN: usize = 4;

#[derive(Clone)]
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
    disk_chaos: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
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
        disk_chaos: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> String {
            argv.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{} requires an argument", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--smoke" => {
                args.tasks = 200;
                args.smoke = true;
            }
            "--chaos" => args.chaos = true,
            "--audit-demo" => args.audit_demo = true,
            "--tasks" => {
                args.tasks = value(i).parse().expect("--tasks N");
                i += 1;
            }
            "--workers" => {
                args.workers = value(i).parse().expect("--workers N");
                i += 1;
            }
            "--seed" => {
                args.seed = value(i).parse().expect("--seed N");
                i += 1;
            }
            "--shards" => {
                args.shards = value(i).parse().expect("--shards N");
                args.shards = args.shards.max(1);
                i += 1;
            }
            "--cartel" => {
                args.cartel = value(i).parse().expect("--cartel N");
                i += 1;
            }
            "--journal" => {
                args.journal = Some(value(i));
                i += 1;
            }
            "--bench-json" => {
                args.bench_json = Some(value(i));
                i += 1;
            }
            "--hedge" => args.hedge = true,
            "--dag" => args.dag = true,
            "--disk-chaos" => args.disk_chaos = true,
            "--assignment" => {
                let name = value(i);
                args.assignment = Assignment::parse(&name).unwrap_or_else(|| {
                    eprintln!(
                        "--assignment {name}: unknown policy (random | round-robin | least-loaded)"
                    );
                    std::process::exit(2);
                });
                i += 1;
            }
            other => {
                eprintln!(
                    "unknown flag '{other}'; usage: serve_bench [--smoke] [--chaos] \
                     [--audit-demo] [--dag] [--disk-chaos] [--tasks N] [--workers N] [--seed N] \
                     [--shards N] [--cartel N] [--hedge] [--assignment <policy>] \
                     [--journal <path>] [--bench-json <path>]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

struct Outcome {
    name: &'static str,
    run: RuntimeRun,
    elapsed: Duration,
    /// Sorted first-dispatch→verdict latencies, in journal units (seconds).
    latencies: Vec<f64>,
}

impl Outcome {
    fn throughput(&self) -> f64 {
        self.run.report.tasks_completed as f64 / self.elapsed.as_secs_f64()
    }

    fn percentile(&self, p: f64) -> f64 {
        smartred_stats::percentile_nearest_rank(&self.latencies, p)
    }
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

/// A worker whose *vote* is the pure `(seed, task, replica)` draw of the
/// wrapped [`FaultyWorker`] but whose *service time* additionally depends
/// on the worker index: a seeded 1% of `(worker, task, replica)` triples
/// take 100 ms, the rest 1 ms. Slowness is a property of the placement,
/// so a hedge twin redraws the delay on its new worker while voting
/// bit-identically to its origin — hedging changes latency, never votes.
/// The slow rate is deliberately low twice over: the online p90 must sit
/// in the fast mode or the trigger's threshold would chase the stragglers
/// instead of catching them, and a task whose twin is *itself* slow (the
/// one tail hedging cannot remove, since a paired origin is never
/// re-hedged) must stay rarer than 1% of tasks or it pins the p99.
struct StragglerWorker {
    index: u32,
    seed: u64,
    inner: FaultyWorker,
}

impl StragglerWorker {
    fn new(index: u32, seed: u64, profile: FaultProfile) -> Self {
        Self {
            index,
            seed,
            inner: FaultyWorker::new(seed, profile),
        }
    }

    fn delay(&self, task: u32, replica: u32) -> Duration {
        let mut x = self
            .seed
            .wrapping_add(u64::from(self.index) << 32)
            .wrapping_add(u64::from(task) << 16)
            .wrapping_add(u64::from(replica));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        if (x >> 11) as f64 / ((1u64 << 53) as f64) < 0.01 {
            Duration::from_millis(100)
        } else {
            Duration::from_millis(1)
        }
    }
}

impl Worker for StragglerWorker {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        std::thread::sleep(self.delay(job.task, job.replica));
        self.inner.execute(job)
    }
}

/// Adversary-side configuration of one `drive` run. With `audit` enabled,
/// spot-checked verdicts are recomputed locally and liars disciplined; with
/// a `cartel`, the first members of the pool lie in concert (and are
/// otherwise honest — the coalition is the adversary). A `job_cap` bounds
/// each task's tally race: a coalition of exactly half the pool turns a
/// vote-margin race into a fair coin walk with unbounded expected length,
/// so capped tasks fail (deliver no answer) instead of livelocking the run.
#[derive(Clone, Copy)]
struct Regime {
    audit: AuditPolicy,
    cartel: Option<Cartel>,
    job_cap: Option<usize>,
    /// Run the pool as [`StragglerWorker`]s (the `--hedge` latency mix)
    /// instead of uniformly fast workers.
    straggle: bool,
}

impl Regime {
    /// Independent 30%-wrong workers, no auditing, no cap — the standard
    /// benchmark regime.
    fn honest() -> Self {
        Regime {
            audit: AuditPolicy::disabled(),
            cartel: None,
            job_cap: None,
            straggle: false,
        }
    }
}

/// Either serving runtime behind one submit/recv surface, so the whole
/// benchmark (and its closed loop) runs unchanged under `--shards N`.
enum AnyRuntime {
    One(Runtime),
    Sharded(ShardedRuntime),
}

enum AnyClient {
    One(Client),
    Sharded(ShardedClient),
}

impl AnyRuntime {
    fn client(&self) -> AnyClient {
        match self {
            AnyRuntime::One(r) => AnyClient::One(r.client()),
            AnyRuntime::Sharded(r) => AnyClient::Sharded(r.client()),
        }
    }

    fn finish(self) -> RuntimeRun {
        match self {
            AnyRuntime::One(r) => r.finish(),
            AnyRuntime::Sharded(r) => {
                let run = r.finish();
                RuntimeRun {
                    report: run.report,
                    admission: run.admission,
                    journal: run.journal,
                    crashed: run.crashed,
                }
            }
        }
    }
}

impl AnyClient {
    fn submit(&self, payload: Payload) -> SubmitOutcome {
        match self {
            AnyClient::One(c) => c.submit(payload),
            AnyClient::Sharded(c) => c.submit(payload),
        }
    }

    fn recv(&self) -> Option<TaskVerdict> {
        match self {
            AnyClient::One(c) => c.recv(),
            AnyClient::Sharded(c) => c.recv(),
        }
    }
}

/// Runs `tasks` 3-SAT block tasks through a fresh runtime under `strategy`,
/// keeping at most `window` in flight (closed loop, shed-retry on overload),
/// against the adversary described by `regime`. With `args.shards > 1` the
/// tasks serve on the sharded multi-coordinator runtime instead.
fn drive<S>(
    name: &'static str,
    strategy: S,
    formula: &Arc<CnfFormula>,
    args: &Args,
    window: usize,
    regime: Regime,
) -> Outcome
where
    S: RedundancyStrategy<bool> + Clone + Send + Sync + 'static,
{
    let Regime {
        audit,
        cartel,
        job_cap,
        straggle,
    } = regime;
    let blocks = decompose(formula.num_vars(), args.tasks);
    let cfg = RuntimeConfig {
        workers: Some(args.workers),
        queue_cap: window,
        max_active: window,
        deadline: Duration::from_secs(5),
        job_cap,
        discipline: audit.is_enabled().then(QuarantinePolicy::default),
        audit,
        audit_seed: args.seed,
        hedge: args.hedge.then(hedge_policy),
        assignment: args.assignment,
        ..RuntimeConfig::default()
    };
    let seed = args.seed;
    let profile = FaultProfile {
        wrong_rate: if cartel.is_some() { 0.0 } else { WRONG_RATE },
        hang_rate: 0.0,
        crash_rate: 0.0,
        think: Duration::ZERO,
    };
    let make_worker = move |index: u32| match cartel {
        Some(c) => Box::new(CartelWorker::new(index, seed, c, profile)) as Box<dyn Worker>,
        None if straggle => Box::new(StragglerWorker::new(index, seed, profile)),
        None => Box::new(FaultyWorker::new(seed, profile)),
    };
    let runtime = if args.shards > 1 {
        AnyRuntime::Sharded(ShardedRuntime::start(
            ShardedConfig {
                base: cfg,
                shards: args.shards,
                wal_dir: None,
                admission_cap: window,
                crash_after: None,
            },
            strategy,
            make_worker,
        ))
    } else {
        AnyRuntime::One(Runtime::start(cfg, strategy, make_worker))
    };
    let client = runtime.client();
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(args.tasks);
    let mut in_flight = 0usize;
    for block in blocks {
        // Closed loop: a full window waits for a verdict before the next
        // submission, so offered load tracks service capacity.
        while in_flight >= window {
            let verdict = client.recv().expect("runtime dropped a verdict");
            latencies.push(verdict.latency_units);
            in_flight -= 1;
        }
        loop {
            let outcome = client.submit(Payload::Sat {
                formula: formula.clone(),
                block,
            });
            if outcome != SubmitOutcome::Shed {
                break;
            }
            // Shed under a race with the drain: back off and retry.
            std::thread::sleep(Duration::from_micros(200));
        }
        in_flight += 1;
    }
    while in_flight > 0 {
        let verdict = client.recv().expect("runtime dropped a verdict");
        latencies.push(verdict.latency_units);
        in_flight -= 1;
    }
    let elapsed = started.elapsed();
    drop(client);
    let run = runtime.finish();
    assert_eq!(
        run.report.tasks_completed + run.report.tasks_capped,
        args.tasks,
        "{name}: every submitted task must reach a verdict or cap out"
    );
    // Replay cross-check: the journal folds to the identical live report.
    assert_eq!(
        report_from_journal(&run.journal),
        run.report,
        "{name}: journal replay must reproduce the live report exactly"
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Outcome {
        name,
        run,
        elapsed,
        latencies,
    }
}

/// Schedule-independent structure of a finished run: everything that must
/// be bit-identical between an uninterrupted run and one reassembled from
/// crash + WAL recovery. (Wall-clock stamps and cross-task interleaving
/// legitimately differ; fault draws, votes, verdicts, and per-task job
/// counts may not.)
#[derive(Debug, PartialEq, Eq)]
struct RunShape {
    total_jobs: u64,
    completed: usize,
    correct: usize,
    capped: usize,
    poisoned: usize,
    /// `(task, verdict vote or None, jobs dispatched)`, sorted by task.
    /// Failed tasks are tagged by `kind` (0 verdict, 1 capped, 2 poisoned).
    verdicts: Vec<(u32, u8, Option<bool>, u64)>,
}

fn shape(journal: &Journal) -> RunShape {
    let mut jobs: HashMap<u32, u64> = HashMap::new();
    let mut verdicts: Vec<(u32, u8, Option<bool>)> = Vec::new();
    let mut s = RunShape {
        total_jobs: 0,
        completed: 0,
        correct: 0,
        capped: 0,
        poisoned: 0,
        verdicts: Vec::new(),
    };
    for e in journal.events() {
        match e.event {
            RunEvent::JobDispatched { task, .. } => {
                s.total_jobs += 1;
                *jobs.entry(task).or_default() += 1;
            }
            RunEvent::VerdictReached { task, value, .. } => {
                s.completed += 1;
                if value {
                    s.correct += 1;
                }
                verdicts.push((task, 0, Some(value)));
            }
            RunEvent::TaskCapped { task } => {
                s.capped += 1;
                verdicts.push((task, 1, None));
            }
            RunEvent::TaskPoisoned { task, .. } => {
                s.poisoned += 1;
                verdicts.push((task, 2, None));
            }
            _ => {}
        }
    }
    verdicts.sort_unstable();
    s.verdicts = verdicts
        .into_iter()
        .map(|(task, kind, vote)| (task, kind, vote, jobs.get(&task).copied().unwrap_or(0)))
        .collect();
    s
}

/// Worker profile for chaos runs: lies *and* panics, both drawn purely
/// from `(seed, task, replica)` so the golden and recovered runs face
/// byte-identical adversity.
fn chaos_profile() -> FaultProfile {
    FaultProfile {
        wrong_rate: WRONG_RATE,
        hang_rate: 0.0,
        crash_rate: 0.05,
        think: Duration::ZERO,
    }
}

fn chaos_cfg(args: &Args, tasks: usize, wal: Option<PathBuf>) -> RuntimeConfig {
    // With a cartel armed, the coordinator fights back: spot-checks with
    // probationary re-admission, weighted strikes, and verdict voiding —
    // so the crash points land amid live audit state.
    let audit = if args.cartel > 0 {
        AuditPolicy::spot(0.2)
    } else {
        AuditPolicy::disabled()
    };
    RuntimeConfig {
        workers: Some(args.workers),
        queue_cap: tasks.max(1),
        max_active: 64,
        deadline: Duration::from_secs(30),
        discipline: audit.is_enabled().then(QuarantinePolicy::default),
        audit,
        audit_seed: args.seed,
        // With `--hedge`, every chaos leg (golden, crashed, recovered)
        // arms the same quantile trigger, so crash points land amid live
        // hedge pairs and HedgeLaunched events must survive the WAL.
        hedge: args.hedge.then(hedge_policy),
        assignment: args.assignment,
        wal,
        ..RuntimeConfig::default()
    }
}

/// Submits the whole roster (ids are assigned in submission order, so they
/// land on the roster's own ids), lets the run finish — or crash at its
/// chaos point — and returns it.
fn run_roster(
    cfg: RuntimeConfig,
    margin: VoteMargin,
    seed: u64,
    cartel: Option<Cartel>,
    straggle: bool,
    roster: &[(u32, Payload)],
) -> RuntimeRun {
    let runtime = Runtime::start(cfg, Iterative::new(margin), move |index| match cartel {
        Some(c) => Box::new(CartelWorker::new(index, seed, c, chaos_profile())) as Box<dyn Worker>,
        None if straggle => Box::new(StragglerWorker::new(index, seed, chaos_profile())),
        None => Box::new(FaultyWorker::new(seed, chaos_profile())),
    });
    let client = runtime.client();
    for (task, payload) in roster {
        match client.submit(payload.clone()) {
            SubmitOutcome::Shed => panic!("chaos queue_cap admits the whole roster"),
            SubmitOutcome::Accepted { task: id } | SubmitOutcome::Queued { task: id } => {
                assert_eq!(id, *task, "submission order must assign roster ids");
            }
        }
    }
    drop(client);
    runtime.finish()
}

/// [`run_roster`] for a run a disk fault is due to kill: keeps its client
/// until the coordinator has died, and returns with the run the tasks
/// whose verdicts were delivered, in delivery order.
fn run_roster_until_crash(
    cfg: RuntimeConfig,
    margin: VoteMargin,
    make_worker: impl Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    roster: &[(u32, Payload)],
) -> (RuntimeRun, Vec<u32>) {
    let runtime = Runtime::start(cfg, Iterative::new(margin), make_worker);
    let client = runtime.client();
    for (_, payload) in roster {
        assert_ne!(client.submit(payload.clone()), SubmitOutcome::Shed);
    }
    let mut delivered = Vec::new();
    // The crash flag is published after the coordinator's last send, so
    // the pass that starts after seeing it set drains what is left.
    let mut dead = false;
    while delivered.len() < roster.len() {
        match client.recv_timeout(Duration::from_millis(5)) {
            Some(verdict) => delivered.push(verdict.task),
            None if dead => break,
            None => dead = runtime.is_crashed(),
        }
    }
    drop(client);
    (runtime.finish(), delivered)
}

/// The chaos harness: golden run, then crash-at-point + recover rounds.
/// Returns process exit code.
fn chaos(args: &Args) -> i32 {
    // Injected worker crashes are supervised and expected by the hundreds;
    // keep their panic backtraces off stderr, but let real panics through.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected worker crash"));
        if !injected {
            default_hook(info);
        }
    }));
    let tasks = if args.smoke { 150 } else { args.tasks };
    let margin = VoteMargin::new(MARGIN).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed ^ 0x5eed);
    let formula = Arc::new(random_3sat(
        ThreeSatConfig {
            num_vars: 16,
            clause_ratio: 4.26,
        },
        &mut rng,
    ));
    let roster: Vec<(u32, Payload)> = decompose(formula.num_vars(), tasks)
        .into_iter()
        .enumerate()
        .map(|(i, block)| {
            (
                i as u32,
                Payload::Sat {
                    formula: formula.clone(),
                    block,
                },
            )
        })
        .collect();

    let cartel = (args.cartel > 0).then(|| Cartel::new(args.cartel, 0.25));
    let golden = run_roster(
        chaos_cfg(args, tasks, None),
        margin,
        args.seed,
        cartel,
        args.hedge,
        &roster,
    );
    assert!(!golden.crashed);
    let golden_shape = shape(&golden.journal);
    let golden_events = golden.journal.events().len();
    println!(
        "chaos: golden run: {} tasks, {} jobs, {} worker crashes, {} poisoned, {} audits \
         ({} failed, {} voided), {} hedges, {} events",
        golden.report.tasks_completed,
        golden.report.total_jobs,
        golden.report.worker_crashes,
        golden.report.tasks_poisoned,
        golden.report.audits,
        golden.report.audit_failures,
        golden.report.verdicts_voided,
        golden.report.hedges_launched,
        golden_events,
    );
    if args.hedge {
        assert!(
            golden.report.hedges_launched > 0,
            "the hedged chaos pool must actually fire hedges"
        );
    }
    if cartel.is_some() {
        assert!(
            golden.report.audits > 0,
            "an armed cartel must trigger audits"
        );
    }

    let wal_dir = std::env::temp_dir().join(format!("smartred-chaos-{}", std::process::id()));
    let mut failed = false;
    for (round, frac) in [0.2, 0.5, 0.8].into_iter().enumerate() {
        let crash_at = ((golden_events as f64 * frac) as u64).max(1);
        let wal = wal_dir.join(format!("round-{round}.wal.jsonl"));
        let mut cfg = chaos_cfg(args, tasks, Some(wal.clone()));
        cfg.crash_after_events = Some(crash_at);
        let crashed = run_roster(cfg, margin, args.seed, cartel, args.hedge, &roster);
        assert!(
            crashed.crashed,
            "the coordinator must die at its chaos point"
        );

        let (runtime, client, rec) = Runtime::recover(
            chaos_cfg(args, tasks, Some(wal.clone())),
            Iterative::new(margin),
            {
                let seed = args.seed;
                let straggle = args.hedge;
                move |index| match cartel {
                    Some(c) => Box::new(CartelWorker::new(index, seed, c, chaos_profile()))
                        as Box<dyn Worker>,
                    None if straggle => {
                        Box::new(StragglerWorker::new(index, seed, chaos_profile()))
                    }
                    None => Box::new(FaultyWorker::new(seed, chaos_profile())),
                }
            },
            &roster,
        )
        .expect("WAL recovery");
        drop(client);
        let run = runtime.finish();
        assert!(!run.crashed);
        assert_eq!(
            report_from_journal(&run.journal),
            run.report,
            "recovered run: journal replay must reproduce the live report exactly"
        );
        // With audits armed, retaliation re-tallies whatever happens to be
        // open at conviction time, so per-task job counts legitimately
        // differ across schedules; the invariants are exactly-once
        // decisions and exact replay. Without audits, the full golden
        // shape must match bit for bit.
        let recovered_shape = shape(&run.journal);
        let ok = if cartel.is_some() {
            let mut decisions: HashMap<u32, u32> = HashMap::new();
            for &(task, _, _, _) in &recovered_shape.verdicts {
                *decisions.entry(task).or_default() += 1;
            }
            roster.len() == decisions.len() && decisions.values().all(|&c| c == 1)
        } else {
            recovered_shape == golden_shape
        };
        println!(
            "chaos: round {round}: killed coordinator after {crash_at}/{golden_events} events \
             (torn tail: {}), resumed {} open + {} decided + {} unseen tasks, re-armed {} jobs \
             -> {}",
            rec.torn_tail,
            rec.tasks_resumed,
            rec.tasks_decided,
            rec.tasks_seeded,
            rec.jobs_rearmed,
            if ok { "matches golden" } else { "MISMATCH" },
        );
        if !ok {
            eprintln!(
                "FAIL: round {round}: recovered shape diverged from golden\n  golden:    \
                 {golden_shape:?}\n  recovered: {recovered_shape:?}"
            );
            if let Some(path) = &args.journal {
                if let Some(dir) = std::path::Path::new(path).parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir).expect("create journal directory");
                    }
                }
                std::fs::copy(&wal, path).expect("preserve failing WAL");
                eprintln!("failing WAL preserved at {path}");
            }
            failed = true;
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    if failed {
        return 1;
    }
    println!("chaos recovery holds: all crash points converge to the golden run");
    0
}

/// The matched-cost acceptance demo: against an adaptive cartel, an
/// audit-enabled strategy must achieve strictly higher measured
/// reliability than the best audit-free strategy at no greater total cost
/// (replicas + audits). Returns process exit code.
fn audit_demo(args: &Args) -> i32 {
    let tasks = if args.smoke { 200 } else { 400 };
    let demo = Args {
        tasks,
        shards: 1,
        journal: None,
        chaos: false,
        audit_demo: true,
        bench_json: None,
        ..args.clone()
    };
    // A coalition of half the pool lying in concert on a quarter of the
    // tasks (and behaving honestly otherwise). On a lied-on task the vote
    // splits evenly, so *no* replication level fixes it: the margin race
    // is a fair coin walk that loses half the decided races and has
    // unbounded expected length besides — which is why every leg runs
    // under a job cap (a capped task fails, delivering no answer). An
    // auditor that recomputes one sample convicts the whole coalition.
    let cartel = Cartel::new(
        if args.cartel > 0 {
            args.cartel
        } else {
            (args.workers / 2) as u32
        },
        0.25,
    );
    // Bounds each fair-coin tally race; see `drive`.
    let cap = Some(64);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(demo.seed ^ 0x5eed);
    let formula = Arc::new(random_3sat(
        ThreeSatConfig {
            num_vars: 16,
            clause_ratio: 4.26,
        },
        &mut rng,
    ));
    let window = 64;
    println!(
        "audit-demo: {} tasks, {} workers, cartel of {} lying on {:.0}% of tasks",
        demo.tasks,
        demo.workers,
        cartel.size,
        cartel.lie_rate * 100.0
    );
    let d4 = VoteMargin::new(4).unwrap();
    let d6 = VoteMargin::new(6).unwrap();
    let outcomes = [
        drive(
            "IR-4",
            Iterative::new(d4),
            &formula,
            &demo,
            window,
            Regime {
                audit: AuditPolicy::disabled(),
                cartel: Some(cartel),
                job_cap: cap,
                ..Regime::honest()
            },
        ),
        drive(
            "IR-6",
            Iterative::new(d6),
            &formula,
            &demo,
            window,
            Regime {
                audit: AuditPolicy::disabled(),
                cartel: Some(cartel),
                job_cap: cap,
                ..Regime::honest()
            },
        ),
        drive(
            "IR-4+audit",
            Iterative::new(d4),
            &formula,
            &demo,
            window,
            Regime {
                audit: AuditPolicy::spot(0.2),
                cartel: Some(cartel),
                job_cap: cap,
                ..Regime::honest()
            },
        ),
    ];
    // Delivered reliability: the fraction of *submitted* tasks whose
    // accepted answer was correct. A capped task delivered nothing, so it
    // counts against the strategy — unlike `report.reliability()`, which
    // would quietly drop failed races from the denominator.
    let delivered = |o: &Outcome| o.run.report.tasks_correct as f64 / demo.tasks as f64;
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>12} {:>8} {:>8} {:>12}",
        "strat", "tasks/s", "jobs/task", "audits", "total cost", "voided", "capped", "delivered"
    );
    for o in &outcomes {
        println!(
            "{:<12} {:>10.1} {:>12.2} {:>10} {:>12} {:>8} {:>8} {:>12.4}",
            o.name,
            o.throughput(),
            o.run.report.cost_factor(),
            o.run.report.audits,
            o.run.report.total_cost(),
            o.run.report.verdicts_voided,
            o.run.report.tasks_capped,
            delivered(o),
        );
    }
    let audited = &outcomes[2];
    let best_free = outcomes[..2]
        .iter()
        .max_by(|a, b| delivered(a).total_cmp(&delivered(b)))
        .unwrap();
    let mut failed = false;
    if audited.run.report.audits == 0 {
        eprintln!("FAIL: the audit-enabled run never audited anything");
        failed = true;
    }
    if delivered(audited) <= delivered(best_free) {
        eprintln!(
            "FAIL: audited delivered reliability {:.4} must strictly beat the best audit-free \
             ({}) {:.4}",
            delivered(audited),
            best_free.name,
            delivered(best_free)
        );
        failed = true;
    }
    // Matched cost against the *expensive* audit-free competitor: buying
    // more replication (IR-6) costs at least as much as IR-4 plus the
    // audit budget, yet loses on measured reliability.
    if audited.run.report.total_cost() > outcomes[1].run.report.total_cost() {
        eprintln!(
            "FAIL: audited total cost {} must not exceed IR-6's {}",
            audited.run.report.total_cost(),
            outcomes[1].run.report.total_cost()
        );
        failed = true;
    }
    if failed {
        return 1;
    }
    println!(
        "matched-cost frontier holds: IR-4+audit delivers {:.4} at cost {}, beating {} {:.4} at \
         cost {}",
        delivered(audited),
        audited.run.report.total_cost(),
        best_free.name,
        delivered(best_free),
        outcomes[1].run.report.total_cost(),
    );
    0
}

/// Writes one bench-JSON document, creating parent directories as
/// needed — the single emitter shared by every `--bench-json` mode.
fn write_bench_json(path: &str, json: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create bench-json directory");
        }
    }
    std::fs::write(path, json).expect("write bench json");
    println!("bench-json: wrote {path}");
}

/// Sweeps audit fractions {0, 0.05, 0.2} under the standard 30%-faulty
/// pool and writes the machine-readable throughput baseline
/// (`BENCH_6.json`) so audit overhead and future perf PRs have a
/// reference point.
fn bench_json(args: &Args, path: &str) {
    let d = VoteMargin::new(MARGIN).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed ^ 0x5eed);
    let formula = Arc::new(random_3sat(
        ThreeSatConfig {
            num_vars: 16,
            clause_ratio: 4.26,
        },
        &mut rng,
    ));
    let window = 64;
    let mut rows = Vec::new();
    for frac in [0.0, 0.05, 0.2] {
        let audit = if frac > 0.0 {
            AuditPolicy::spot(frac)
        } else {
            AuditPolicy::disabled()
        };
        let regime = Regime {
            audit,
            ..Regime::honest()
        };
        let o = drive("IR", Iterative::new(d), &formula, args, window, regime);
        println!(
            "bench-json: audit fraction {frac}: {:.1} tasks/s, {:.2} jobs/task, {} audits, \
             reliability {:.4}",
            o.throughput(),
            o.run.report.cost_factor(),
            o.run.report.audits,
            o.run.report.reliability(),
        );
        rows.push(format!(
            "    {{\"audit_fraction\": {frac}, \"tasks_per_sec\": {:.2}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"jobs_per_task\": {:.4}, \"audits\": {}, \"total_cost\": {}, \
             \"reliability\": {:.4}}}",
            o.throughput(),
            o.percentile(0.50) * 1e3,
            o.percentile(0.99) * 1e3,
            o.run.report.cost_factor(),
            o.run.report.audits,
            o.run.report.total_cost(),
            o.run.report.reliability(),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": 6,\n  \"name\": \"serve_bench audit-fraction sweep\",\n  \"tasks\": \
         {},\n  \"workers\": {},\n  \"seed\": {},\n  \"wrong_rate\": {WRONG_RATE},\n  \
         \"margin\": {MARGIN},\n  \"runs\": [\n{}\n  ]\n}}\n",
        args.tasks,
        args.workers,
        args.seed,
        rows.join(",\n")
    );
    write_bench_json(path, &json);
}

/// One leg of the shard sweep: a closed-loop run of zero-work synthetic
/// tasks on the sharded runtime with a durable per-event-fsync WAL, so
/// the measurement isolates the coordination plane — the thing sharding
/// scales — rather than worker arithmetic. Each shard's fsync stream is
/// serialized by its coordinator; N shards overlap N streams.
fn measure_shards(args: &Args, shards: usize, window: usize) -> Outcome {
    let wal_dir =
        std::env::temp_dir().join(format!("smartred-bench7-{}-{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create bench WAL directory");
    let cfg = ShardedConfig {
        base: RuntimeConfig {
            workers: Some(args.workers),
            queue_cap: window,
            max_active: window,
            deadline: Duration::from_secs(5),
            wal_batch: 1,
            ..RuntimeConfig::default()
        },
        shards,
        wal_dir: Some(wal_dir.clone()),
        admission_cap: window,
        crash_after: None,
    };
    let seed = args.seed;
    let profile = FaultProfile {
        wrong_rate: WRONG_RATE,
        hang_rate: 0.0,
        crash_rate: 0.0,
        think: Duration::ZERO,
    };
    let runtime = ShardedRuntime::start(
        cfg,
        Iterative::new(VoteMargin::new(MARGIN).unwrap()),
        move |_| Box::new(FaultyWorker::new(seed, profile)),
    );
    let client = runtime.client();
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(args.tasks);
    let mut in_flight = 0usize;
    for _ in 0..args.tasks {
        while in_flight >= window {
            let verdict = client.recv().expect("runtime dropped a verdict");
            latencies.push(verdict.latency_units);
            in_flight -= 1;
        }
        loop {
            let outcome = client.submit(Payload::Synthetic {
                answer: true,
                work: Duration::ZERO,
            });
            if outcome != SubmitOutcome::Shed {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        in_flight += 1;
    }
    while in_flight > 0 {
        let verdict = client.recv().expect("runtime dropped a verdict");
        latencies.push(verdict.latency_units);
        in_flight -= 1;
    }
    let elapsed = started.elapsed();
    drop(client);
    let sharded = runtime.finish();
    let _ = std::fs::remove_dir_all(&wal_dir);
    assert_eq!(
        sharded.report.tasks_completed, args.tasks,
        "shards {shards}: every task must reach a verdict"
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Outcome {
        name: "IR",
        run: RuntimeRun {
            report: sharded.report,
            admission: sharded.admission,
            journal: sharded.journal,
            crashed: sharded.crashed,
        },
        elapsed,
        latencies,
    }
}

/// Sweeps shard counts {1, 2, 4, …, `--shards N`} at fixed total worker
/// count and admission capacity, and writes the machine-readable
/// throughput-vs-shards baseline (`BENCH_7.json`). Verdict reliability is
/// matched across rows by construction — fault draws are keyed by
/// `(seed, task, replica)`, so shard count cannot change a single vote.
fn bench7_json(args: &Args, path: &str) {
    let mut counts: Vec<usize> = [1, 2, 4, 8]
        .into_iter()
        .filter(|&c| c <= args.shards)
        .collect();
    if !counts.contains(&args.shards) {
        counts.push(args.shards);
    }
    let window = 64;
    let mut rows = Vec::new();
    let mut jobs_per_sec = Vec::new();
    for &shards in &counts {
        let o = measure_shards(args, shards, window);
        let jps = o.run.report.total_jobs as f64 / o.elapsed.as_secs_f64();
        println!(
            "bench-json: {shards} shard(s): {:.1} tasks/s, {:.1} jobs/s, {:.2} jobs/task, \
             reliability {:.4}",
            o.throughput(),
            jps,
            o.run.report.cost_factor(),
            o.run.report.reliability(),
        );
        rows.push(format!(
            "    {{\"shards\": {shards}, \"tasks_per_sec\": {:.2}, \"jobs_per_sec\": {:.2}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"jobs_per_task\": {:.4}, \
             \"reliability\": {:.4}}}",
            o.throughput(),
            jps,
            o.percentile(0.50) * 1e3,
            o.percentile(0.99) * 1e3,
            o.run.report.cost_factor(),
            o.run.report.reliability(),
        ));
        jobs_per_sec.push(jps);
    }
    let speedup = jobs_per_sec.last().unwrap() / jobs_per_sec[0];
    println!(
        "bench-json: {}-shard speedup over 1 shard: {speedup:.2}x jobs/s",
        counts.last().unwrap()
    );
    let json = format!(
        "{{\n  \"bench\": 7,\n  \"name\": \"serve_bench throughput-vs-shards sweep\",\n  \
         \"tasks\": {},\n  \"workers\": {},\n  \"seed\": {},\n  \"wrong_rate\": {WRONG_RATE},\n  \
         \"margin\": {MARGIN},\n  \"wal_batch\": 1,\n  \"speedup_max_over_one\": {speedup:.2},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        args.tasks,
        args.workers,
        args.seed,
        rows.join(",\n")
    );
    write_bench_json(path, &json);
}

/// Sweeps TR/PR/IR at matched predicted reliability, hedging off vs on,
/// on a straggler-prone pool (1% of placements take 100× the fast service
/// time) and writes the latency-vs-cost frontier (`BENCH_8.json`): p50/p99
/// first-dispatch→verdict latency against jobs per task and hedge cost.
/// Returns non-zero unless hedging cuts TR's p99 while changing not a
/// single verdict (matched reliability is exact, not statistical: votes
/// are pure in `(seed, task, replica)`, so the hedged leg of each pair
/// delivers bit-identical correctness).
fn bench8_json(args: &Args, path: &str) -> i32 {
    let r = Reliability::new(1.0 - WRONG_RATE).unwrap();
    let d = VoteMargin::new(MARGIN).unwrap();
    let target = analysis::iterative::reliability(d, r);
    let k = (1..=61)
        .step_by(2)
        .map(|k| KVotes::new(k).unwrap())
        .find(|&k| analysis::traditional::reliability(k, r) >= target)
        .expect("a matching k exists below 61");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed ^ 0x5eed);
    let formula = Arc::new(random_3sat(
        ThreeSatConfig {
            num_vars: 16,
            clause_ratio: 4.26,
        },
        &mut rng,
    ));
    // One task in flight, and a pool at least as wide as TR's burst of k
    // replicas, keeps queueing delay out of the measurement entirely: a
    // job's elapsed time is its service time, so the quantile trigger
    // fires on true execution-time stragglers rather than on jobs stuck
    // behind one. (With a pool narrower than the wave, queue wait counts
    // as "elapsed", spurious twins fire on queued-but-fast jobs, and the
    // added load *raises* the tail — the classic hedging failure mode.)
    // Throughput is sacrificed knowingly: this sweep measures the latency
    // frontier, BENCH_6/7 own the throughput story.
    let window = 1;
    let workers = args.workers.max(k.get() + 5);
    let regime = Regime {
        straggle: true,
        ..Regime::honest()
    };
    let mut plain = args.clone();
    plain.hedge = false;
    plain.workers = workers;
    let mut hedged = args.clone();
    hedged.hedge = true;
    hedged.workers = workers;
    println!(
        "bench-json: straggler frontier: {} tasks, {} workers, assignment {}, IR d = {} vs \
         PR/TR k = {}",
        args.tasks,
        workers,
        args.assignment.name(),
        MARGIN,
        k.get(),
    );
    let pairs = [
        (
            "TR",
            drive("TR", Traditional::new(k), &formula, &plain, window, regime),
            drive(
                "TR+h",
                Traditional::new(k),
                &formula,
                &hedged,
                window,
                regime,
            ),
        ),
        (
            "PR",
            drive("PR", Progressive::new(k), &formula, &plain, window, regime),
            drive(
                "PR+h",
                Progressive::new(k),
                &formula,
                &hedged,
                window,
                regime,
            ),
        ),
        (
            "IR",
            drive("IR", Iterative::new(d), &formula, &plain, window, regime),
            drive("IR+h", Iterative::new(d), &formula, &hedged, window, regime),
        ),
    ];
    let mut rows = Vec::new();
    let mut failed = false;
    println!(
        "{:<6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8} {:>6} {:>8} {:>12}",
        "strat",
        "hedge",
        "tasks/s",
        "p50 ms",
        "p99 ms",
        "jobs/task",
        "hedges",
        "won",
        "cost",
        "reliability"
    );
    for (name, off, on) in &pairs {
        // Verdict invariance at the shared seed: the hedged leg must buy
        // its latency with twins alone, never with a changed answer.
        if off.run.report.tasks_correct != on.run.report.tasks_correct
            || off.run.report.total_jobs != on.run.report.total_jobs
        {
            eprintln!(
                "FAIL: {name}: hedging moved a verdict or wave job ({} vs {} correct, {} vs {} \
                 jobs)",
                off.run.report.tasks_correct,
                on.run.report.tasks_correct,
                off.run.report.total_jobs,
                on.run.report.total_jobs,
            );
            failed = true;
        }
        if on.run.report.hedges_launched != on.run.report.hedges_won + on.run.report.hedges_wasted {
            eprintln!("FAIL: {name}: a launched twin escaped settlement");
            failed = true;
        }
        for o in [off, on] {
            let is_hedged = !std::ptr::eq(o, off);
            println!(
                "{:<6} {:>6} {:>10.1} {:>10.2} {:>10.2} {:>10.2} {:>8} {:>6} {:>8} {:>12.4}",
                name,
                if is_hedged { "on" } else { "off" },
                o.throughput(),
                o.percentile(0.50) * 1e3,
                o.percentile(0.99) * 1e3,
                o.run.report.cost_factor(),
                o.run.report.hedges_launched,
                o.run.report.hedges_won,
                o.run.report.total_cost(),
                o.run.report.reliability(),
            );
            rows.push(format!(
                "    {{\"strategy\": \"{name}\", \"hedged\": {is_hedged}, \"tasks_per_sec\": \
                 {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"jobs_per_task\": {:.4}, \
                 \"hedges_launched\": {}, \"hedges_won\": {}, \"hedges_wasted\": {}, \
                 \"total_cost\": {}, \"reliability\": {:.4}}}",
                o.throughput(),
                o.percentile(0.50) * 1e3,
                o.percentile(0.99) * 1e3,
                o.run.report.cost_factor(),
                o.run.report.hedges_launched,
                o.run.report.hedges_won,
                o.run.report.hedges_wasted,
                o.run.report.total_cost(),
                o.run.report.reliability(),
            ));
        }
    }
    let (_, tr_off, tr_on) = &pairs[0];
    if tr_on.run.report.hedges_launched == 0 {
        eprintln!("FAIL: a 1% straggler rate must trigger hedges under TR");
        failed = true;
    }
    let (p99_off, p99_on) = (tr_off.percentile(0.99), tr_on.percentile(0.99));
    if p99_on >= p99_off {
        eprintln!(
            "FAIL: hedging must cut TR's p99 at matched reliability: {:.2} ms vs {:.2} ms",
            p99_on * 1e3,
            p99_off * 1e3,
        );
        failed = true;
    }
    let policy = hedge_policy();
    let json = format!(
        "{{\n  \"bench\": 8,\n  \"name\": \"serve_bench straggler hedging frontier\",\n  \
         \"tasks\": {},\n  \"workers\": {},\n  \"seed\": {},\n  \"wrong_rate\": {WRONG_RATE},\n  \
         \"margin\": {MARGIN},\n  \"k\": {},\n  \"assignment\": \"{}\",\n  \"window\": \
         {window},\n  \"hedge_quantile\": {},\n  \"hedge_multiplier\": {},\n  \
         \"hedge_max_per_task\": {},\n  \"slow_ms\": 100,\n  \"fast_ms\": 1,\n  \"slow_rate\": \
         0.01,\n  \"tr_p99_ms_unhedged\": {:.3},\n  \"tr_p99_ms_hedged\": {:.3},\n  \"runs\": \
         [\n{}\n  ]\n}}\n",
        args.tasks,
        workers,
        args.seed,
        k.get(),
        args.assignment.name(),
        policy.quantile,
        policy.multiplier,
        policy.max_per_task,
        p99_off * 1e3,
        p99_on * 1e3,
        rows.join(",\n")
    );
    write_bench_json(path, &json);
    if failed {
        return 1;
    }
    println!(
        "hedging frontier holds: TR p99 {:.2} ms -> {:.2} ms at bit-identical verdicts",
        p99_off * 1e3,
        p99_on * 1e3,
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

/// The DAG crash-point harness (`--dag --chaos`): a live map→shuffle→
/// reduce pipeline with a colluder poisoning one map task, run once
/// uninterrupted (golden) and then re-run with a durable WAL and the
/// coordinator killed at seeded points. Each crashed run's WAL must
/// tolerant-parse (torn tails included) into a journal whose DAG
/// annotation stream — `StageDecided` per decided stage, `PoisonPropagated`
/// per poisoned task — is an exact prefix of the golden run's. With
/// `--shards N` the legs run on the sharded runtime (shard 0 crashes) and
/// the check applies to the deterministic merge of all shard WAL segments.
/// Returns process exit code.
fn dag_chaos(args: &Args) -> i32 {
    use smartred_dag::{annotations_from_journal, run_dag_with, DagSpec, StageStrategy};

    let spec = DagSpec::map_shuffle_reduce(
        8,
        2,
        StageStrategy::ir(2).unwrap(),
        StageStrategy::ir(2).unwrap(),
        StageStrategy::ir(2).unwrap(),
    )
    .expect("static pipeline spec is valid");
    let total = spec.total_tasks() as usize;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed ^ 0x5eed);
    let formula = Arc::new(random_3sat(
        ThreeSatConfig {
            num_vars: 16,
            clause_ratio: 4.26,
        },
        &mut rng,
    ));
    let payloads: Vec<Payload> = decompose(formula.num_vars(), total)
        .into_iter()
        .map(|block| Payload::Sat {
            formula: formula.clone(),
            block,
        })
        .collect();
    // The driver submits sequentially into a fresh runtime each leg, so
    // runtime ids equal DAG ids: target map task 3, which poisons its
    // pairwise combine child (11) and, through the shuffle, both sinks.
    let target = 3;
    // Live stages decide in milliseconds; the patience only pays out on
    // the crashed legs, where it is pure added wall time.
    let patience = Duration::from_secs(2);

    let leg = |wal: Option<PathBuf>,
               crash_at: Option<u64>|
     -> (smartred_dag::LiveDagReport, RuntimeRun) {
        if args.shards > 1 {
            let mut crash = vec![None; args.shards];
            crash[0] = crash_at;
            let cfg = ShardedConfig {
                base: RuntimeConfig {
                    workers: Some(args.workers),
                    journal: true,
                    queue_cap: total,
                    max_active: total,
                    ..RuntimeConfig::default()
                },
                shards: args.shards,
                wal_dir: wal,
                admission_cap: total,
                crash_after: crash_at.map(|_| crash),
            };
            let rt = ShardedRuntime::start(cfg, StageStrategy::ir(2).unwrap(), move |_| {
                Box::new(DagColluder { target }) as Box<dyn Worker>
            });
            let client = rt.client();
            let report = run_dag_with(&client, &spec, &payloads, patience);
            drop(client);
            let run = rt.finish();
            (
                report,
                RuntimeRun {
                    report: run.report,
                    admission: run.admission,
                    journal: run.journal,
                    crashed: run.crashed,
                },
            )
        } else {
            let cfg = RuntimeConfig {
                workers: Some(args.workers),
                journal: true,
                queue_cap: total,
                max_active: total,
                wal: wal.map(|d| d.join("dag.wal.jsonl")),
                crash_after_events: crash_at,
                ..RuntimeConfig::default()
            };
            let rt = Runtime::start(cfg, StageStrategy::ir(2).unwrap(), move |_| {
                Box::new(DagColluder { target }) as Box<dyn Worker>
            });
            let client = rt.client();
            let report = run_dag_with(&client, &spec, &payloads, patience);
            drop(client);
            (report, rt.finish())
        }
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
        "dag-chaos: golden pipeline: {} tasks, {} jobs, {} poisoned, stages {:?}, {} events, \
         {} shard(s)",
        total,
        golden_report.jobs,
        golden_report.poisoned_tasks,
        golden_ann.stages,
        golden_events,
        args.shards,
    );

    let wal_dir = std::env::temp_dir().join(format!("smartred-dagchaos-{}", std::process::id()));
    let mut failed = false;
    for (round, frac) in [0.25, 0.6, 0.9].into_iter().enumerate() {
        // Per-coordinator crash point: the sharded legs kill shard 0 after
        // its share of the golden stream.
        let stream = golden_events / args.shards.max(1);
        let crash_at = ((stream as f64 * frac) as u64).max(1);
        let dir = wal_dir.join(format!("round-{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dag-chaos WAL directory");
        let (report, run) = leg(Some(dir.clone()), Some(crash_at));
        assert!(
            report.crashed && run.crashed,
            "round {round}: the coordinator must die at its chaos point"
        );
        // Reassemble whatever reached disk: tolerant-parse each WAL
        // segment (the killed shard's tail may be torn mid-record) and
        // merge them deterministically.
        let mut parts = Vec::new();
        let mut torn = false;
        let segments: Vec<PathBuf> = if args.shards > 1 {
            (0..args.shards)
                .map(|k| ShardedConfig::wal_segment(&dir, k))
                .collect()
        } else {
            vec![dir.join("dag.wal.jsonl")]
        };
        for seg in &segments {
            let text = std::fs::read_to_string(seg).expect("read WAL segment");
            let prefix = Journal::from_jsonl_prefix(&text).expect("WAL prefix parses");
            torn |= prefix.torn;
            parts.push(prefix.journal);
        }
        let merged = Journal::merge_sharded(&parts);
        let ann = annotations_from_journal(&merged);
        // Durability contract: the WAL's annotation stream is an exact
        // prefix of the golden one — never a reordering, never a stage the
        // run hadn't decided, and no poison marks beyond the golden count.
        let ok = ann.stages.len() <= golden_ann.stages.len()
            && ann.stages[..] == golden_ann.stages[..ann.stages.len()]
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
        if !ok {
            eprintln!(
                "FAIL: round {round}: WAL annotations diverged from golden\n  golden: {:?} / {} \
                 poisoned\n  walled: {:?} / {} poisoned",
                golden_ann.stages, golden_ann.poisoned_tasks, ann.stages, ann.poisoned_tasks
            );
            if let Some(path) = &args.journal {
                if let Some(parent) = std::path::Path::new(path).parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent).expect("create journal directory");
                    }
                }
                std::fs::copy(&segments[0], path).expect("preserve failing WAL");
                eprintln!("failing WAL preserved at {path}");
            }
            failed = true;
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    if failed {
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

    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "policy", "mix", "escape", "cost", "makespan", "p50 mk", "p99 mk", "poisoned"
    );
    let mut json_rows = Vec::new();
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>10.4} {:>10.1} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
            r.policy.label,
            if r.policy.mix { "yes" } else { "no" },
            r.stats.escape_rate,
            r.stats.mean_cost,
            r.stats.mean_makespan,
            r.p50_makespan,
            r.p99_makespan,
            r.stats.mean_poisoned,
        );
        json_rows.push(format!(
            "    {{\"policy\": \"{}\", \"mix\": {}, \"escape_rate\": {:.6}, \"mean_cost\": \
             {:.4}, \"mean_makespan\": {:.4}, \"p50_makespan\": {:.4}, \"p99_makespan\": \
             {:.4}, \"mean_poisoned\": {:.4}, \"journal_digest\": \"{}\"}}",
            r.policy.label,
            r.policy.mix,
            r.stats.escape_rate,
            r.stats.mean_cost,
            r.stats.mean_makespan,
            r.p50_makespan,
            r.p99_makespan,
            r.stats.mean_poisoned,
            r.digest,
        ));
    }

    let mut failed = false;
    let (mix, hedged_mix, uniforms) = (&rows[0], &rows[1], &rows[2..]);
    for u in uniforms {
        if u.stats.mean_cost < budget * 0.98 {
            eprintln!(
                "FAIL: uniform {} calibrated below the mix budget ({:.1} vs {:.1} jobs)",
                u.policy.label, u.stats.mean_cost, budget
            );
            failed = true;
        }
        if mix.stats.escape_rate >= u.stats.escape_rate {
            eprintln!(
                "FAIL: mix {} escape {:.4} must beat uniform {} escape {:.4} at matched cost \
                 ({:.1} vs {:.1} jobs)",
                mix.policy.label,
                mix.stats.escape_rate,
                u.policy.label,
                u.stats.escape_rate,
                budget,
                u.stats.mean_cost,
            );
            failed = true;
        }
    }
    if hedged_mix.hedge_jobs == 0 {
        eprintln!("FAIL: the hedged mix never launched a twin");
        failed = true;
    }

    let json = format!(
        "{{\n  \"bench\": 9,\n  \"name\": \"serve_bench DAG per-stage strategy mix\",\n  \
         \"width\": {WIDTH},\n  \"reduce_width\": {REDUCE},\n  \"nodes\": {},\n  \"seed\": \
         {},\n  \"runs\": {runs},\n  \"targeted_wrong\": {TARGETED},\n  \"background_wrong\": \
         {BACKGROUND},\n  \"link_bandwidth\": {},\n  \"runs_detail\": \"all quantities in \
         simulated units; bit-identical across SMARTRED_THREADS\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        cfg.nodes,
        args.seed,
        cfg.link.bandwidth,
        json_rows.join(",\n")
    );
    write_bench_json(path, &json);
    if failed {
        return 1;
    }
    println!(
        "per-stage frontier holds: mix {} escapes {:.4} at {:.1} jobs; every budget-matched \
         uniform escapes more",
        mix.policy.label, mix.stats.escape_rate, budget
    );
    0
}

/// The durable-storage chaos harness (`--disk-chaos`): reruns a golden
/// workload with fault-injecting disks mounted under the coordinator's
/// WAL. Every *detectable* fault (failed fsync, short write, power-loss
/// torn write) must crash the coordinator mid-run, and `Runtime::recover`
/// on a healthy disk must converge to the golden journal shape with an
/// exact report replay. Silent bit rot is the one fault a crash cannot
/// flag, so the final leg arms checksummed framing and requires recovery
/// to *refuse* the rotten segment (quarantining it) rather than replay a
/// corrupt record. Returns process exit code.
fn disk_chaos_mode(args: &Args) -> i32 {
    // Injected worker crashes are supervised and expected; keep their
    // panic backtraces off stderr, but let real panics through.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected worker crash"));
        if !injected {
            default_hook(info);
        }
    }));
    let tasks = if args.smoke { 24 } else { 48 };
    let margin = VoteMargin::new(MARGIN).unwrap();
    let roster: Vec<(u32, Payload)> = (0..tasks)
        .map(|i| {
            (
                i as u32,
                Payload::Synthetic {
                    answer: i % 2 == 0,
                    work: Duration::ZERO,
                },
            )
        })
        .collect();
    let seed = args.seed;
    let factory = move |_| Box::new(FaultyWorker::new(seed, chaos_profile())) as Box<dyn Worker>;

    // A narrow window, so the roster spans several turns' worth of
    // decisions (see the fault indices below), and a write and a sync per
    // turn rather than per record, so the faults land among decisions
    // instead of on the first few dispatch records.
    const MAX_ACTIVE: usize = 4;
    let disk_cfg = |wal: Option<PathBuf>| RuntimeConfig {
        max_active: MAX_ACTIVE,
        wal_batch: 64,
        ..chaos_cfg(args, tasks, wal)
    };

    let golden = run_roster(disk_cfg(None), margin, seed, None, false, &roster);
    assert!(!golden.crashed);
    let golden_shape = shape(&golden.journal);
    println!(
        "disk-chaos: golden run: {} tasks, {} jobs, {} events",
        golden.report.tasks_completed,
        golden.report.total_jobs,
        golden.journal.events().len(),
    );

    let dir = std::env::temp_dir().join(format!("smartred-disk-chaos-{}", std::process::id()));
    let mut failed = false;

    // Detectable faults: each must crash the coordinator (fail-stop, never
    // limp on over a disk it cannot trust), then recover cleanly. A fault
    // index counts commits, not records, and a commit carries a whole
    // turn — up to `max_active` decisions, every task that was open. So
    // the one count every run is sure to reach is a write and a sync per
    // `max_active` decisions, and each index is a fraction of that; a leg
    // whose fault never fires fails as "did not crash".
    let floor = (tasks / MAX_ACTIVE) as u64;
    type ArmFault = fn(&mut DiskFaultPlan, u64);
    let legs: [(&str, ArmFault); 3] = [
        ("failed-fsync", |p, n| p.fail_fsync_at = Some(n / 3)),
        ("short-write", |p, n| p.short_write_at = Some(n / 2)),
        ("power-loss", |p, n| p.crash_after_writes = Some(n * 3 / 4)),
    ];
    for (name, arm) in legs {
        let wal = dir.join(format!("{name}.wal.jsonl"));
        let mut cfg = disk_cfg(Some(wal.clone()));
        let mut plan = DiskFaultPlan::none(seed ^ 0xd15c);
        arm(&mut plan, floor);
        cfg.disk_faults = Some(plan);
        let (crashed, delivered) = run_roster_until_crash(cfg, margin, factory, &roster);
        if !crashed.crashed {
            eprintln!("FAIL: {name}: injected disk fault did not crash the coordinator");
            failed = true;
            continue;
        }
        let (runtime, client, rec) = Runtime::recover(
            disk_cfg(Some(wal.clone())),
            Iterative::new(margin),
            factory,
            &roster,
        )
        .expect("recovery from a healthy disk");
        drop(client);
        let run = runtime.finish();
        assert!(!run.crashed);
        let replay_ok = report_from_journal(&run.journal) == run.report;
        let shape_ok = shape(&run.journal) == golden_shape;
        // What the failed commit cost: verdicts leave in log order behind
        // the commit that holds their decisions, so the delivered ones are
        // a prefix of the log's decisions, all of them durable, and the
        // durable-but-undelivered rest is at most one turn's decisions.
        let decisions = crashed
            .journal
            .events()
            .iter()
            .filter_map(|e| match e.event {
                RunEvent::VerdictReached { task, .. }
                | RunEvent::TaskCapped { task }
                | RunEvent::TaskPoisoned { task, .. } => Some(task),
                _ => None,
            });
        let logged: Vec<u32> = decisions.collect();
        let undelivered = rec.tasks_decided.checked_sub(delivered.len());
        let delivery_ok =
            logged.starts_with(&delivered) && undelivered.is_some_and(|lost| lost <= MAX_ACTIVE);
        println!(
            "disk-chaos: {name}: coordinator died mid-run (torn tail: {}), resumed {} open + \
             {} decided ({} delivered) + {} unseen tasks -> {}",
            rec.torn_tail,
            rec.tasks_resumed,
            rec.tasks_decided,
            delivered.len(),
            rec.tasks_seeded,
            if replay_ok && shape_ok && delivery_ok {
                "matches golden"
            } else {
                "MISMATCH"
            },
        );
        if !replay_ok || !shape_ok || !delivery_ok {
            eprintln!(
                "FAIL: {name}: recovered run diverged from golden (replay {replay_ok}, shape \
                 {shape_ok}, delivery {delivery_ok})"
            );
            failed = true;
        }
    }

    // Silent bit rot: the disk flips one bit in place after a write the
    // run is sure to make and to follow with more, the run completes none
    // the wiser, and checksummed recovery must refuse the segment instead
    // of replaying a corrupt record.
    let wal = dir.join("bit-rot.wal.jsonl");
    let mut cfg = disk_cfg(Some(wal.clone()));
    cfg.wal_checksum = true;
    let mut plan = DiskFaultPlan::none(seed ^ 0xb17);
    plan.flip_bit_after = Some(floor / 2);
    cfg.disk_faults = Some(plan);
    let run = run_roster(cfg, margin, seed, None, false, &roster);
    assert!(!run.crashed, "bit rot is silent: the run must complete");
    let mut clean = disk_cfg(Some(wal.clone()));
    clean.wal_checksum = true;
    match Runtime::recover(clean, Iterative::new(margin), factory, &roster) {
        Err(RecoveryError::Parse(e)) => {
            let quarantined = wal.with_extension("jsonl.quarantined").exists()
                || std::path::Path::new(&format!("{}.quarantined", wal.display())).exists();
            println!("disk-chaos: bit-rot: refused and quarantined ({e})");
            if !quarantined {
                eprintln!("FAIL: bit-rot: no quarantined segment left behind");
                failed = true;
            }
        }
        Ok((runtime, client, _)) => {
            eprintln!("FAIL: bit-rot: checksummed recovery accepted a corrupt segment");
            drop(client);
            let _ = runtime.finish();
            failed = true;
        }
        Err(other) => {
            eprintln!("FAIL: bit-rot: expected a parse refusal, got: {other}");
            failed = true;
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        return 1;
    }
    println!("disk-chaos holds: detectable faults crash and recover; silent rot is refused");
    0
}

/// `--disk-chaos --bench-json <path>`: measures the three durable-storage
/// costs and writes `BENCH_10.json` — WAL append+fsync throughput across
/// sync x batch settings, recovery replay rate (events/sec parsed back
/// from disk, with and without checksums), and recovery time vs uptime
/// with and without checkpoints. The exit-code check is structural, not
/// timing-based (CI machines vary): at the longest uptime, checkpointed
/// recovery must replay well under half the events of full-WAL replay.
fn bench10_json(args: &Args, path: &str) -> i32 {
    let n: usize = if args.smoke { 4_000 } else { 20_000 };
    let mut journal = Journal::new();
    for i in 0..n as u64 {
        let event = if i % 4 == 3 {
            RunEvent::JobReturned {
                job: i as u32,
                task: (i / 4) as u32,
                node: (i % 8) as u32,
                value: true,
            }
        } else {
            RunEvent::JobDispatched {
                job: i as u32,
                task: (i / 4) as u32,
                node: (i % 8) as u32,
                eta: SimTime::from_micros(i + 10),
            }
        };
        journal.record(SimTime::from_micros(i), event);
    }
    let dir = std::env::temp_dir().join(format!("smartred-bench10-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench10 dir");

    // 1) Append + fsync cost across the sync x batch grid (checksummed
    //    framing, the hardened default for new WALs).
    let mut append_rows = Vec::new();
    for sync in [false, true] {
        for batch in [1u64, 16, 64] {
            let wal = dir.join(format!("append-{sync}-{batch}.wal.jsonl"));
            let mut w = WalWriter::create(&wal, sync)
                .expect("wal create")
                .with_batch(batch)
                .with_checksums(true);
            let start = Instant::now();
            for e in journal.events() {
                w.append(e).expect("wal append");
            }
            w.commit().expect("wal commit");
            let secs = start.elapsed().as_secs_f64();
            let per_event_us = secs * 1e6 / n as f64;
            println!(
                "bench10: append sync={sync} batch={batch}: {:.2} us/event, {:.0} events/s",
                per_event_us,
                n as f64 / secs,
            );
            append_rows.push(format!(
                "    {{\"sync\": {sync}, \"batch\": {batch}, \"micros_per_event\": {:.3}, \
                 \"events_per_sec\": {:.0}}}",
                per_event_us,
                n as f64 / secs,
            ));
        }
    }

    // 2) Replay rate: parse the full segment back, plain vs checksummed.
    let mut replay_rows = Vec::new();
    for checksums in [false, true] {
        let wal = dir.join(format!("replay-{checksums}.wal.jsonl"));
        let mut w = WalWriter::create(&wal, false)
            .expect("wal create")
            .with_batch(64)
            .with_checksums(checksums);
        for e in journal.events() {
            w.append(e).expect("wal append");
        }
        w.commit().expect("wal commit");
        let text = std::fs::read_to_string(&wal).expect("read wal");
        let start = Instant::now();
        let prefix = Journal::from_jsonl_prefix(&text).expect("replay parse");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(prefix.journal.events().len(), n);
        assert!(!prefix.torn);
        println!(
            "bench10: replay checksums={checksums}: {:.0} events/s ({:.1} ms total)",
            n as f64 / secs,
            secs * 1e3,
        );
        replay_rows.push(format!(
            "    {{\"checksums\": {checksums}, \"events_per_sec\": {:.0}, \"ms_total\": {:.2}}}",
            n as f64 / secs,
            secs * 1e3,
        ));
    }

    // 3) Recovery time vs uptime: live runs of 1, 2, and 4 quiescent
    //    bursts, recovered with and without checkpoints armed. Full-WAL
    //    replay grows linearly with uptime; checkpointed recovery replays
    //    only the suffix past the last seal and stays flat-ish.
    let burst = if args.smoke { 30 } else { 80 };
    let margin = VoteMargin::new(MARGIN).unwrap();
    let seed = args.seed;
    let mut recovery_rows = Vec::new();
    let mut replayed_at_max: HashMap<bool, usize> = HashMap::new();
    for checkpoints in [false, true] {
        for bursts in [1usize, 2, 4] {
            let wal = dir.join(format!("recover-{checkpoints}-{bursts}.wal.jsonl"));
            let tasks = burst * bursts;
            let cfg = RuntimeConfig {
                workers: Some(args.workers),
                queue_cap: tasks,
                max_active: 64,
                deadline: Duration::from_secs(30),
                wal: Some(wal.clone()),
                wal_sync: false,
                checkpoint_every: checkpoints.then_some(64),
                ..RuntimeConfig::default()
            };
            let honest = move |_| {
                Box::new(FaultyWorker::new(seed, FaultProfile::default())) as Box<dyn Worker>
            };
            let runtime = Runtime::start(cfg.clone(), Iterative::new(margin), honest);
            let client = runtime.client();
            for _ in 0..bursts {
                for i in 0..burst {
                    match client.submit(Payload::Synthetic {
                        answer: i % 2 == 0,
                        work: Duration::ZERO,
                    }) {
                        SubmitOutcome::Shed => panic!("bench10 queue admits every burst"),
                        SubmitOutcome::Accepted { .. } | SubmitOutcome::Queued { .. } => {}
                    }
                }
                for _ in 0..burst {
                    client.recv().expect("bench10 verdict");
                }
                // A quiescent window between bursts, so the checkpointed
                // legs actually seal and truncate.
                std::thread::sleep(Duration::from_millis(40));
            }
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);
            let wal_events = std::fs::read_to_string(&wal)
                .expect("read wal")
                .lines()
                .count();
            let roster: Vec<(u32, Payload)> = (0..tasks)
                .map(|i| {
                    (
                        i as u32,
                        Payload::Synthetic {
                            answer: i % 2 == 0,
                            work: Duration::ZERO,
                        },
                    )
                })
                .collect();
            let start = Instant::now();
            let (recovered, client, rec) =
                Runtime::recover(cfg, Iterative::new(margin), honest, &roster)
                    .expect("bench10 recovery");
            let recover_ms = start.elapsed().as_secs_f64() * 1e3;
            drop(client);
            let rerun = recovered.finish();
            assert!(!rerun.crashed);
            assert_eq!(rec.tasks_decided, tasks);
            if bursts == 4 {
                replayed_at_max.insert(checkpoints, rec.events_replayed);
            }
            println!(
                "bench10: recovery checkpoints={checkpoints} bursts={bursts}: {wal_events} \
                 on-disk events, {} replayed ({} in checkpoint), {recover_ms:.2} ms",
                rec.events_replayed, rec.checkpoint_events,
            );
            recovery_rows.push(format!(
                "    {{\"checkpoints\": {checkpoints}, \"bursts\": {bursts}, \"tasks\": {tasks}, \
                 \"wal_events\": {wal_events}, \"events_replayed\": {}, \"checkpoint_events\": \
                 {}, \"recover_ms\": {recover_ms:.2}}}",
                rec.events_replayed, rec.checkpoint_events,
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"bench\": 10,\n  \"name\": \"serve_bench durable-storage costs\",\n  \
         \"events\": {n},\n  \"workers\": {},\n  \"seed\": {},\n  \"append\": [\n{}\n  ],\n  \
         \"replay\": [\n{}\n  ],\n  \"recovery\": [\n{}\n  ]\n}}\n",
        args.workers,
        args.seed,
        append_rows.join(",\n"),
        replay_rows.join(",\n"),
        recovery_rows.join(",\n"),
    );
    write_bench_json(path, &json);

    let full = replayed_at_max[&false];
    let ckpt = replayed_at_max[&true];
    println!("bench10: at max uptime, full replay walks {full} events vs {ckpt} past the seal");
    if ckpt * 2 >= full {
        eprintln!(
            "FAIL: checkpointed recovery replayed {ckpt} events, not well under half of the \
             full-WAL {full}"
        );
        return 1;
    }
    0
}

fn main() {
    let args = parse_args();
    if args.dag {
        if args.chaos {
            std::process::exit(dag_chaos(&args));
        }
        let path = args
            .bench_json
            .clone()
            .unwrap_or_else(|| "BENCH_9.json".into());
        std::process::exit(bench9_json(&args, &path));
    }
    if args.disk_chaos {
        if let Some(path) = args.bench_json.clone() {
            std::process::exit(bench10_json(&args, &path));
        }
        std::process::exit(disk_chaos_mode(&args));
    }
    if args.chaos {
        std::process::exit(chaos(&args));
    }
    if args.audit_demo {
        std::process::exit(audit_demo(&args));
    }
    if let Some(path) = args.bench_json.clone() {
        if args.hedge {
            std::process::exit(bench8_json(&args, &path));
        } else if args.shards > 1 {
            bench7_json(&args, &path);
        } else {
            bench_json(&args, &path);
        }
        return;
    }
    let r = Reliability::new(1.0 - WRONG_RATE).unwrap();
    let d = VoteMargin::new(MARGIN).unwrap();
    let target = analysis::iterative::reliability(d, r);
    // Matched reliability: the smallest odd k whose predicted TR
    // reliability (Eq. 2) meets what IR's margin predicts. Progressive
    // with the same k is never less reliable, so one k matches both.
    let k = (1..=61)
        .step_by(2)
        .map(|k| KVotes::new(k).unwrap())
        .find(|&k| analysis::traditional::reliability(k, r) >= target)
        .expect("a matching k exists below 61");
    println!(
        "serve_bench: {} tasks, {} workers, {} shard(s), seed {}, r = {:.2}; IR d = {} vs \
         PR/TR k = {} (predicted R >= {:.4})",
        args.tasks,
        args.workers,
        args.shards,
        args.seed,
        r.get(),
        MARGIN,
        k.get(),
        target
    );

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed ^ 0x5eed);
    let formula = Arc::new(random_3sat(
        ThreeSatConfig {
            num_vars: 16,
            clause_ratio: 4.26,
        },
        &mut rng,
    ));
    let window = 64;

    let outcomes = [
        drive(
            "TR",
            Traditional::new(k),
            &formula,
            &args,
            window,
            Regime::honest(),
        ),
        drive(
            "PR",
            Progressive::new(k),
            &formula,
            &args,
            window,
            Regime::honest(),
        ),
        drive(
            "IR",
            Iterative::new(d),
            &formula,
            &args,
            window,
            Regime::honest(),
        ),
    ];

    println!(
        "{:<4} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "strat", "tasks/s", "p50 ms", "p99 ms", "jobs/task", "reliability", "shed rate"
    );
    for o in &outcomes {
        println!(
            "{:<4} {:>10.1} {:>12.2} {:>12.2} {:>12.2} {:>12.4} {:>10.4}",
            o.name,
            o.throughput(),
            o.percentile(0.50) * 1e3,
            o.percentile(0.99) * 1e3,
            o.run.report.cost_factor(),
            o.run.report.reliability(),
            o.run.admission.shed_rate(),
        );
    }

    if let Some(path) = &args.journal {
        let ir = &outcomes[2];
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create journal directory");
            }
        }
        std::fs::write(path, ir.run.journal.to_jsonl()).expect("write journal");
        eprintln!(
            "journal: {} events -> {path} (digest {})",
            ir.run.journal.events().len(),
            ir.run.journal.digest_hex()
        );
    }

    // Figure 5 qualitatively: at matched reliability, iterative redundancy
    // is the cheapest and traditional the most expensive.
    let (tr, pr, ir) = (&outcomes[0], &outcomes[1], &outcomes[2]);
    let mut failed = false;
    if ir.run.report.cost_factor() >= pr.run.report.cost_factor() {
        eprintln!(
            "FAIL: IR jobs/task {:.2} must beat PR {:.2}",
            ir.run.report.cost_factor(),
            pr.run.report.cost_factor()
        );
        failed = true;
    }
    if pr.run.report.cost_factor() >= tr.run.report.cost_factor() {
        eprintln!(
            "FAIL: PR jobs/task {:.2} must beat TR {:.2}",
            pr.run.report.cost_factor(),
            tr.run.report.cost_factor()
        );
        failed = true;
    }
    for o in &outcomes {
        if o.run.report.reliability() < target - 0.05 {
            eprintln!(
                "FAIL: {} achieved reliability {:.4} fell far below the {:.4} target",
                o.name,
                o.run.report.reliability(),
                target
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "cost ordering holds: IR {:.2} < PR {:.2} < TR {:.2} jobs/task",
        ir.run.report.cost_factor(),
        pr.run.report.cost_factor(),
        tr.run.report.cost_factor()
    );
}
