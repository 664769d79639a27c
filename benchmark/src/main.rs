//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run    [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--scale F]
//! benchmark repeat [--seed S] [--seconds N]
//! benchmark spec
//! ```
//!
//! `run --workload W` measures one workload in this process and prints its
//! metrics by name, then one JSON object on the last line. Without
//! `--workload` it runs every workload, each in a child process of its own.
//! `repeat` runs the full set twice and holds the two to the bounds.
//! `spec` prints `BENCHMARK.json`.

mod probes;
mod reference;
mod serve;
mod sim;
mod spec;
mod sys;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, ExitCode, Stdio};

use serve::Traffic;
use spec::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use sys::{now_ns, percentile, secs, Scratch};

/// Measured tasks per repetition at scale 1: a repetition lasts about a
/// second (`serve_open` three), so `spec::RUN_SECONDS` holds eight or more of
/// them on a two-core sandbox. Each size keeps every journal's event count
/// 10 % or more away from a power of two, where the `Vec` behind it doubles
/// and `peak_rss_mb` would flip between two values with the seed.
const SERVE_MEM_TASKS: usize = 120_000;
const SERVE_WAL_TASKS: usize = 15_000;
const SERVE_OPEN_TASKS: usize = 400;
const CRASH_RECOVER_TASKS: usize = 12_000;
const SIM_SWEEP_TASKS: usize = 24_000;
/// Tasks of the traced serving run (and of its untraced twin).
const TRACE_TASKS: usize = 20_000;
const MAX_REPS: usize = 32;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 20_110_620,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        scale: 1.0,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                opts.workload = Some(name);
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--scale" => {
                opts.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
            }
            // Bare `--trace` or `--trace 0|1`.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(opts)
}

/// What one measured workload reports.
struct Outcome {
    attempted: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

/// Repetitions of one workload. Each repetition yields its own set-up
/// time, rate and latency percentiles, and the run reports the best
/// repetition of each: interference on a shared two-core sandbox comes in
/// phases of seconds and only ever slows a repetition down, so the fastest
/// one is the steadiest estimate of what the code costs (medians over the
/// same repetitions drift three to five times as much between runs).
#[derive(Default)]
struct Reps {
    setup_s: Vec<f64>,
    tasks_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    samples: usize,
    attempted: u64,
    /// `VmHWM` after the first repetition. Later repetitions only add
    /// allocator residue (glibc keeps an arena per coordinator thread) that
    /// grows with the repetition count, not with what a task costs.
    peak_rss_mb: f64,
}

impl Reps {
    /// Runs `rep` until the next repetition would overrun `seconds`.
    fn run(
        seconds: f64,
        mut rep: impl FnMut(&mut Reps) -> Result<(), String>,
    ) -> Result<Reps, String> {
        let mut reps = Reps::default();
        let start = now_ns();
        loop {
            rep(&mut reps)?;
            let done = reps.setup_s.len();
            if done == 1 {
                reps.peak_rss_mb =
                    sys::vm_hwm_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
            }
            let elapsed = secs(start, now_ns());
            if done >= MAX_REPS || elapsed + elapsed / done as f64 > seconds {
                return Ok(reps);
            }
        }
    }

    /// Books one repetition: its set-up time, measured window and the
    /// latencies of its measured tasks.
    fn book(&mut self, setup_s: f64, tasks: usize, window_s: f64, latencies_ms: &[f64]) {
        self.setup_s.push(setup_s);
        self.tasks_per_s.push(tasks as f64 / window_s);
        self.p50_ms.push(percentile(latencies_ms, 0.50));
        self.p99_ms.push(percentile(latencies_ms, 0.99));
        self.samples = latencies_ms.len();
        self.attempted += tasks as u64;
    }

    fn outcome(self, jobs_per_task: f64, reliability: f64) -> Outcome {
        let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let most = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let by_rep = |v: &[f64]| {
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            shown.join(" ")
        };
        Outcome {
            attempted: self.attempted,
            metrics: BTreeMap::from([
                ("setup_s", least(&self.setup_s)),
                ("tasks_per_s", most(&self.tasks_per_s)),
                ("verdict_latency_p50_ms", least(&self.p50_ms)),
                ("verdict_latency_p99_ms", least(&self.p99_ms)),
                ("jobs_per_task", jobs_per_task),
                ("reliability", reliability),
                ("peak_rss_mb", self.peak_rss_mb),
            ]),
            notes: vec![
                format!(
                    "{} repetitions, {} latency samples in each; best repetition reported",
                    self.setup_s.len(),
                    self.samples
                ),
                format!("tasks_per_s by repetition: {}", by_rep(&self.tasks_per_s)),
                format!(
                    "verdict_latency_p99_ms by repetition: {}",
                    by_rep(&self.p99_ms)
                ),
            ],
        }
    }
}

fn traffic_of(workload: &str) -> Traffic {
    match workload {
        "serve_wal" => Traffic::Closed { wal: true },
        "serve_open" => Traffic::Open,
        "crash_recover" => Traffic::Roster,
        // `sim_sweep` crosses no runtime layer; its runtime rows are traced
        // on the `serve_mem` traffic so every workload reports every layer.
        _ => Traffic::Closed { wal: false },
    }
}

fn end_to_end(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let scratch = Scratch::create().map_err(|e| e.to_string())?;
    match workload {
        "crash_recover" => {
            let tasks = probes::scaled(CRASH_RECOVER_TASKS, opts.scale);
            let reference = reference::replay(opts.seed, tasks);
            reference.check_paper_band()?;
            let reps = Reps::run(opts.seconds, |reps| {
                let r = serve::crash_recover(
                    tasks,
                    opts.seed,
                    scratch.file("crash.wal"),
                    None,
                    false,
                    &reference,
                )?;
                reps.book(r.setup_s, tasks, r.window_s, &r.latencies_ms);
                Ok(())
            })?;
            Ok(reps.outcome(reference.jobs_per_task(), reference.reliability()))
        }
        "sim_sweep" => sim_sweep(opts),
        _ => {
            let traffic = traffic_of(workload);
            let size = match traffic {
                Traffic::Closed { wal: false } => SERVE_MEM_TASKS,
                Traffic::Closed { wal: true } => SERVE_WAL_TASKS,
                _ => SERVE_OPEN_TASKS,
            };
            let tasks = probes::scaled(size, opts.scale);
            let total = serve::warm_up(tasks) + tasks;
            let reference = reference::replay(serve::fault_seed(traffic, opts.seed), total);
            reference.check_paper_band()?;
            let mut late_ms = Vec::new();
            let reps = Reps::run(opts.seconds, |reps| {
                let wal = matches!(traffic, Traffic::Closed { wal: true })
                    .then(|| scratch.file("serve.wal"));
                let served = serve::serve(traffic, tasks, opts.seed, wal, false, &reference)?;
                let latencies = served.ledger.latencies_ms(served.measured());
                reps.book(served.setup_s(), tasks, served.window_s(), &latencies);
                late_ms.extend(served.ledger.late_ms(served.measured()));
                Ok(())
            })?;
            let mut outcome = reps.outcome(reference.jobs_per_task(), reference.reliability());
            if traffic == Traffic::Open {
                let offered = 1.0 / serve::OPEN_INTERVAL.as_secs_f64();
                let achieved = outcome.metrics["tasks_per_s"];
                let note = format!(
                    "offered {offered:.2} tasks/s, achieved {achieved:.2}; generator lateness \
                     p50 {:.4} ms, p99 {:.4} ms",
                    percentile(&late_ms, 0.50),
                    percentile(&late_ms, 0.99)
                );
                // Below a few hundred tasks the drain of the last verdict is
                // more than 1 % of the window; the check is for full scale.
                if opts.scale >= 1.0 && (achieved / offered - 1.0).abs() > 0.01 {
                    return Err(format!("serve_open did not keep its schedule: {note}"));
                }
                outcome.notes.push(note);
            }
            Ok(outcome)
        }
    }
}

fn sim_sweep(opts: &Opts) -> Result<Outcome, String> {
    let tasks = probes::scaled(SIM_SWEEP_TASKS, opts.scale);
    let mut digests: Option<Vec<u64>> = None;
    let (mut jobs, mut correct, mut completed) = (0u64, 0usize, 0usize);
    let reps = Reps::run(opts.seconds, |reps| {
        let t_setup = now_ns();
        sim::sweep(serve::warm_up(tasks), opts.seed)?;
        let t_open = now_ns();
        let points = sim::sweep(tasks, opts.seed)?;
        let window_s = secs(t_open, now_ns());
        sim::check_paper_band(&points)?;
        let now: Vec<u64> = points.iter().map(|p| p.digest).collect();
        if digests.get_or_insert_with(|| now.clone()) != &now {
            return Err("journal digests differ between repetitions".into());
        }
        (jobs, correct, completed) = points.iter().fold((0, 0, 0), |(j, c, n), p| {
            (
                j + p.report.total_jobs,
                c + p.report.tasks_correct,
                n + p.report.tasks_completed,
            )
        });
        let point_ms: Vec<f64> = points.iter().map(|p| p.secs * 1e3).collect();
        reps.book(secs(t_setup, t_open), completed, window_s, &point_ms);
        Ok(())
    })?;
    Ok(reps.outcome(
        jobs as f64 / completed as f64,
        correct as f64 / completed as f64,
    ))
}

/// The traced run: the workload's serving traffic once with spans and once
/// without (the difference is the tracing overhead), then every layer probe.
fn traced(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let scratch = Scratch::create().map_err(|e| e.to_string())?;
    let traffic = traffic_of(workload);
    let size = if traffic == Traffic::Open {
        SERVE_OPEN_TASKS
    } else {
        TRACE_TASKS
    };
    let tasks = probes::scaled(size, opts.scale);
    let total = serve::warm_up(tasks) + tasks;
    let reference = reference::replay(serve::fault_seed(traffic, opts.seed), total);
    let wal = |name: &str| {
        matches!(traffic, Traffic::Closed { wal: true } | Traffic::Roster)
            .then(|| scratch.file(name))
    };
    let writes_before = sys::write_syscalls();
    let with = serve::serve(
        traffic,
        tasks,
        opts.seed,
        wal("traced.wal"),
        true,
        &reference,
    )?;
    let writes = sys::write_syscalls()
        .zip(writes_before)
        .map(|(after, before)| after - before);
    let without = serve::serve(
        traffic,
        tasks,
        opts.seed,
        wal("plain.wal"),
        false,
        &reference,
    )?;

    let joined = trace::join(&with)?;
    let accounted = trace::accounted(&joined);
    if (accounted - 1.0).abs() > 0.05 {
        return Err(format!(
            "layer shares account for {:.1} % of the client-measured latency",
            accounted * 100.0
        ));
    }
    let mut notes = vec![format!(
        "{} spans over {tasks} traced tasks; layer shares account for {:.2} % of the \
         client-measured latency",
        joined.spans.len(),
        accounted * 100.0
    )];
    if workload != "sim_sweep" {
        let path = sys::out_dir().join(format!("trace-{workload}.jsonl"));
        trace::write(&joined, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }
    if writes.is_none() {
        notes.push("warning: /proc/self/io unreadable; write_syscalls_per_task reads 0".into());
    }

    let mut metrics: BTreeMap<&'static str, f64> = joined.metrics.iter().copied().collect();
    metrics.insert(
        "bench.trace_overhead_frac",
        1.0 - with.tasks_per_s() / without.tasks_per_s(),
    );
    metrics.insert(
        "desim.wal.bytes_per_task",
        with.wal_bytes as f64 / total as f64,
    );
    metrics.insert(
        "desim.wal.write_syscalls_per_task",
        writes.unwrap_or(0) as f64 / total as f64,
    );
    metrics.extend(probes::all(
        opts.seed,
        opts.scale,
        &scratch,
        &with.run.journal,
    )?);
    Ok(Outcome {
        attempted: tasks as u64,
        metrics,
        notes,
    })
}

/// Measures one workload in this process and prints its result. The JSON
/// object on the last line is the whole contract with the harness.
fn run_one(workload: &str, opts: &Opts) -> Result<(), String> {
    let (outcome, expected): (Outcome, Vec<&Metric>) = if opts.trace {
        (traced(workload, opts)?, PER_LAYER.iter().collect())
    } else {
        (
            end_to_end(workload, opts)?,
            END_TO_END.iter().map(|(m, _)| m).collect(),
        )
    };
    let declared: BTreeSet<&str> = expected.iter().map(|m| m.name).collect();
    let measured: BTreeSet<&str> = outcome.metrics.keys().copied().collect();
    if measured != declared {
        return Err(format!(
            "measured but not declared: {:?}; declared but not measured: {:?}",
            measured.difference(&declared).collect::<Vec<_>>(),
            declared.difference(&measured).collect::<Vec<_>>()
        ));
    }
    println!(
        "workload {workload}, seed {}, {} cores available",
        opts.seed,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let mut fields = Vec::new();
    for m in expected {
        let value = outcome.metrics[m.name];
        if !value.is_finite() {
            return Err(format!("{} measured {value}", m.name));
        }
        println!("  {:<44} {value:>18.6} {}", m.name, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        fields.join(", ")
    );
    Ok(())
}

/// Runs `workload` in a child process of its own and returns its standard
/// output, or an error when it exited non-zero.
fn child(workload: &str, opts: &Opts) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--scale", &opts.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    Ok(stdout)
}

fn run_all(opts: &Opts) -> Result<Vec<(&'static str, String)>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let stdout = child(w.name, opts)?;
            print!("{stdout}");
            Ok((w.name, stdout))
        })
        .collect()
}

/// Reads `"name": {"value": x` out of a result line this program printed.
fn value_of(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Two full sets back to back: per workload × end-to-end metric, both
/// medians, how much worse the second is, and the bound it must stay in.
fn repeat(opts: &Opts) -> Result<(), String> {
    let sets = [run_all(opts)?, run_all(opts)?];
    let mut breaches = 0;
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        for (m, bound) in &END_TO_END {
            let get = |set: &[(&str, String)]| {
                set[i]
                    .1
                    .lines()
                    .last()
                    .and_then(|line| value_of(line, m.name))
                    .ok_or(format!("{}: no {} in the result line", w.name, m.name))
            };
            let (first, second) = (get(&sets[0])?, get(&sets[1])?);
            let worse = match m.better {
                Better::Lower => (second - first) / first,
                Better::Higher => (first - second) / first,
            };
            // Cost and reliability are fixed by the seed: any difference
            // between two runs of one build is a correctness failure.
            let exact = matches!(m.name, "jobs_per_task" | "reliability");
            let breach = if exact {
                first != second
            } else {
                worse > *bound
            };
            breaches += usize::from(breach);
            println!(
                "{:<14} {:<24} {first:>16.6} {second:>16.6} {:>8.2}% {:>6.0}%{}",
                w.name,
                m.name,
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    match breaches {
        0 => Ok(()),
        n => Err(format!("{n} metrics breached their bounds")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse(rest).and_then(|opts| match &opts.workload {
            Some(w) => run_one(w, &opts),
            None => run_all(&opts).map(|_| ()),
        }),
        Some((cmd, rest)) if cmd == "repeat" => parse(rest).and_then(|opts| repeat(&opts)),
        Some((cmd, [])) if cmd == "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        _ => Err(
            "usage: benchmark run|repeat|spec [--workload W] [--seed S] [--seconds N] \
                  [--trace [0|1]] [--scale F]"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
