//! The four serving workloads, driven from outside through
//! `Runtime::{start, recover, finish}` and `Client::{submit, recv_timeout}`:
//! one client thread, two workers, iterative redundancy d = 4 against
//! `FaultyWorker { wrong_rate: 0.3 }`, `Payload::Synthetic` answers drawn
//! from the seed.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smartred_core::params::VoteMargin;
use smartred_core::strategy::Iterative;
use smartred_desim::journal::Journal;
use smartred_runtime::{
    report_from_journal, Client, FaultProfile, FaultyWorker, Payload, Runtime, RuntimeConfig,
    RuntimeRun, ShardedClient, SubmitOutcome, TaskVerdict, Worker,
};

use crate::reference::Reference;
use crate::sys::{now_ns, secs};
use crate::trace::{ExecSpan, SpanWorker};

pub const WRONG_RATE: f64 = 0.3;
pub const MARGIN: usize = 4;
pub const WORKERS: usize = 2;
/// Closed-loop window: tasks in flight per client.
pub const WINDOW: usize = 64;
/// Open-loop schedule: one submission every 7 ms, about two-thirds of the
/// two-worker capacity at 1 ms jobs.
pub const OPEN_INTERVAL: Duration = Duration::from_millis(7);
const OPEN_THINK: Duration = Duration::from_millis(1);
/// A verdict that has not arrived after this long is counted as lost.
const LOST_AFTER: Duration = Duration::from_secs(20);

/// How the client offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `WINDOW` tasks in flight; the next is sent when a verdict returns.
    Closed { wal: bool },
    /// One task every `OPEN_INTERVAL`, whatever the system does.
    Open,
    /// The whole roster submitted up front into a flush-only WAL.
    Roster,
}

pub fn strategy() -> Iterative {
    Iterative::new(VoteMargin::new(MARGIN).expect("static margin is valid"))
}

/// Seeded inputs: one honest answer per task.
pub fn answers(seed: u64, n: usize) -> Vec<bool> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

fn payload(answer: bool) -> Payload {
    Payload::Synthetic {
        answer,
        work: Duration::ZERO,
    }
}

pub fn config(traffic: Traffic, tasks: usize, wal: Option<PathBuf>) -> RuntimeConfig {
    let (queue_cap, max_active) = match traffic {
        Traffic::Closed { .. } => (WINDOW, WINDOW),
        Traffic::Open => (1024, 1024),
        Traffic::Roster => (tasks.max(1), WINDOW),
    };
    RuntimeConfig {
        workers: Some(WORKERS),
        queue_cap,
        max_active,
        // Far beyond any service time here, so no job is ever reissued and
        // votes stay a pure function of the seed.
        deadline: Duration::from_secs(30),
        wal,
        // Flush-only: every event is still one `write`, but no `fdatasync`,
        // whose cost on the checkout's disk is the neighbours', not ours.
        wal_sync: false,
        wal_batch: 1,
        wal_checksum: true,
        ..RuntimeConfig::default()
    }
}

/// Seed of the workers' fault draws. The closed loops and the roster decide
/// 10⁴–10⁵ tasks per repetition, so redrawing the faults with the seed moves
/// cost by a few tenths of a per cent. The open loop sees a few hundred
/// tasks: redrawn faults move its p99 by ±20 %, more than any bound, so it
/// compares runs on common random numbers and the seed draws only the
/// answers.
pub fn fault_seed(traffic: Traffic, seed: u64) -> u64 {
    match traffic {
        Traffic::Open => 20_110_620,
        _ => seed,
    }
}

type Sink = Arc<Mutex<Vec<ExecSpan>>>;

/// The `make_worker` closure: a seeded `FaultyWorker`, wrapped in a
/// `SpanWorker` when `sink` is set (traced runs only).
pub fn worker_factory(
    seed: u64,
    traffic: Traffic,
    sink: Option<Sink>,
) -> impl Fn(u32) -> Box<dyn Worker> + Send + Sync + Clone + 'static {
    let profile = FaultProfile {
        wrong_rate: WRONG_RATE,
        think: if traffic == Traffic::Open {
            OPEN_THINK
        } else {
            Duration::ZERO
        },
        ..FaultProfile::default()
    };
    move |_index| {
        let inner = FaultyWorker::new(seed, profile);
        match &sink {
            Some(sink) => Box::new(SpanWorker::new(inner, sink.clone())),
            None => Box::new(inner),
        }
    }
}

/// What `closed_pass` and friends need from a client handle; the sharded
/// client of the `runtime.shard` probe offers the same two calls.
pub trait Port {
    fn submit(&self, payload: Payload) -> SubmitOutcome;
    fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict>;
}

impl Port for Client {
    fn submit(&self, payload: Payload) -> SubmitOutcome {
        Client::submit(self, payload)
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict> {
        Client::recv_timeout(self, timeout)
    }
}

impl Port for ShardedClient {
    fn submit(&self, payload: Payload) -> SubmitOutcome {
        ShardedClient::submit(self, payload)
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict> {
        ShardedClient::recv_timeout(self, timeout)
    }
}

/// Client-side record of every task: when it was due, sent and answered on
/// the benchmark clock, indexed by task id (ids are handed out in
/// submission order from 0).
#[derive(Debug)]
pub struct Ledger {
    answers: Vec<bool>,
    pub due: Vec<u64>,
    pub sent: Vec<u64>,
    pub recv: Vec<u64>,
}

impl Ledger {
    pub fn new(answers: Vec<bool>) -> Self {
        let n = answers.len();
        Self {
            answers,
            due: Vec::with_capacity(n),
            sent: Vec::with_capacity(n),
            recv: vec![0; n],
        }
    }

    /// Submits the next task, due at `due_ns` (now, when `None`). A shed
    /// submission, like every failed operation below, fails the whole run.
    fn submit(&mut self, port: &impl Port, due_ns: Option<u64>) -> Result<(), String> {
        let index = self.sent.len();
        let now = now_ns();
        match port.submit(payload(self.answers[index])) {
            SubmitOutcome::Accepted { task } | SubmitOutcome::Queued { task } => {
                if task as usize != index {
                    return Err(format!("submission {index} was assigned task id {task}"));
                }
                self.due.push(due_ns.unwrap_or(now));
                self.sent.push(now);
                Ok(())
            }
            SubmitOutcome::Shed => Err(format!("submission {index} was shed")),
        }
    }

    /// Books one verdict, received at `at_ns`.
    fn book(&mut self, v: TaskVerdict, at_ns: u64) -> Result<(), String> {
        let index = v.task as usize;
        if index >= self.recv.len() {
            return Err(format!("verdict for unknown task {index}"));
        }
        if self.recv[index] != 0 {
            return Err(format!("task {index} delivered a second verdict"));
        }
        self.recv[index] = at_ns.max(1);
        let Some(vote) = v.vote else {
            return Err(format!("task {index} was capped or poisoned"));
        };
        if let Some(answer) = v.answer {
            if answer != (self.answers[index] == vote) {
                return Err(format!("task {index}: answer contradicts its vote"));
            }
        }
        Ok(())
    }

    /// Blocks for the next verdict and books it.
    fn take(&mut self, port: &impl Port) -> Result<(), String> {
        let v = port
            .recv_timeout(LOST_AFTER)
            .ok_or("a verdict was lost (none arrived for 20 s)")?;
        self.book(v, now_ns())
    }

    /// Due → verdict latency of tasks `range`, in milliseconds.
    pub fn latencies_ms(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        range
            .filter(|&i| self.recv[i] != 0)
            .map(|i| self.recv[i].saturating_sub(self.due[i]) as f64 / 1e6)
            .collect()
    }

    /// How late after its due instant each task of `range` was sent, in
    /// milliseconds (0 outside the open loop).
    pub fn late_ms(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        range
            .map(|i| (self.sent[i] - self.due[i]) as f64 / 1e6)
            .collect()
    }

    /// Tasks in `range` still without a verdict.
    pub fn missing(&self, range: std::ops::Range<usize>) -> usize {
        range.filter(|&i| self.recv[i] == 0).count()
    }
}

/// Closed loop over the next `n` tasks.
pub fn closed_pass(port: &impl Port, ledger: &mut Ledger, n: usize) -> Result<(), String> {
    let mut in_flight = 0usize;
    for _ in 0..n {
        while in_flight >= WINDOW {
            ledger.take(port)?;
            in_flight -= 1;
        }
        ledger.submit(port, None)?;
        in_flight += 1;
    }
    while in_flight > 0 {
        ledger.take(port)?;
        in_flight -= 1;
    }
    Ok(())
}

/// Open loop over the next `n` tasks: task `k` is due `k` intervals after
/// the pass starts and is sent then, whatever has or has not come back.
fn open_pass(port: &impl Port, ledger: &mut Ledger, n: usize) -> Result<(), String> {
    let start = now_ns() + 1_000_000;
    let interval = OPEN_INTERVAL.as_nanos() as u64;
    let (mut sent, mut received) = (0usize, 0usize);
    while received < n {
        let wait = if sent < n {
            let due = start + sent as u64 * interval;
            let now = now_ns();
            if now >= due {
                ledger.submit(port, Some(due))?;
                sent += 1;
                continue;
            }
            Duration::from_nanos(due - now)
        } else {
            LOST_AFTER
        };
        match port.recv_timeout(wait) {
            Some(v) => {
                ledger.book(v, now_ns())?;
                received += 1;
            }
            None if sent == n => return Err("a verdict was lost (none arrived for 20 s)".into()),
            None => {}
        }
    }
    Ok(())
}

/// Roster submission: everything up front, then collect.
fn roster_pass(port: &impl Port, ledger: &mut Ledger, n: usize) -> Result<(), String> {
    for _ in 0..n {
        ledger.submit(port, None)?;
    }
    for _ in 0..n {
        ledger.take(port)?;
    }
    Ok(())
}

fn pass(traffic: Traffic, port: &impl Port, ledger: &mut Ledger, n: usize) -> Result<(), String> {
    match traffic {
        Traffic::Closed { .. } => closed_pass(port, ledger, n),
        Traffic::Open => open_pass(port, ledger, n),
        Traffic::Roster => roster_pass(port, ledger, n),
    }
}

/// One finished serving repetition with everything the gate, the metrics
/// and the span join need.
#[derive(Debug)]
pub struct Served {
    pub ledger: Ledger,
    pub run: RuntimeRun,
    /// Tasks in the warm-up pass (ids `0..warm`).
    pub warm: usize,
    /// Tasks in the measured pass (ids `warm..warm + tasks`).
    pub tasks: usize,
    /// Set-up start, measured-window start and end on the benchmark clock.
    pub t_setup: u64,
    pub t_open: u64,
    pub t_close: u64,
    /// `Runtime::start` call and return, bracketing the journal's epoch.
    pub start_call: (u64, u64),
    pub exec: Vec<ExecSpan>,
    pub wal_bytes: u64,
}

impl Served {
    pub fn setup_s(&self) -> f64 {
        secs(self.t_setup, self.t_open)
    }
    pub fn window_s(&self) -> f64 {
        secs(self.t_open, self.t_close)
    }
    pub fn tasks_per_s(&self) -> f64 {
        self.tasks as f64 / self.window_s()
    }
    pub fn measured(&self) -> std::ops::Range<usize> {
        self.warm..self.warm + self.tasks
    }
}

/// Warm-up share of the measured task count.
pub fn warm_up(tasks: usize) -> usize {
    (tasks / 10).max(1)
}

/// Set-up (inputs, `Runtime::start`, warm-up pass of 10 %), then the
/// measured pass of `tasks`, then `finish` and the correctness gate.
pub fn serve(
    traffic: Traffic,
    tasks: usize,
    seed: u64,
    wal: Option<PathBuf>,
    traced: bool,
    reference: &Reference,
) -> Result<Served, String> {
    let t_setup = now_ns();
    let warm = warm_up(tasks);
    let total = warm + tasks;
    assert_eq!(
        reference.tasks, total,
        "reference covers warm-up and measured tasks"
    );
    let mut ledger = Ledger::new(answers(seed, total));
    let sink: Option<Sink> = traced.then(Sink::default);
    let cfg = config(traffic, total, wal.clone());
    let start_call_0 = now_ns();
    let runtime = Runtime::start(
        cfg,
        strategy(),
        worker_factory(fault_seed(traffic, seed), traffic, sink.clone()),
    );
    let start_call = (start_call_0, now_ns());
    let client = runtime.client();
    pass(traffic, &client, &mut ledger, warm)?;
    let t_open = now_ns();
    pass(traffic, &client, &mut ledger, tasks)?;
    // The measured window closes with the last verdict in the client's hand.
    let t_close = ledger.recv[warm..].iter().copied().max().unwrap_or(t_open);
    drop(client);
    let run = runtime.finish();
    let wal_bytes = match &wal {
        Some(path) => std::fs::metadata(path).map_err(|e| e.to_string())?.len(),
        None => 0,
    };
    let exec = sink.map_or_else(Vec::new, |s| {
        std::mem::take(&mut *s.lock().expect("span sink poisoned"))
    });
    let served = Served {
        ledger,
        run,
        warm,
        tasks,
        t_setup,
        t_open,
        t_close,
        start_call,
        exec,
        wal_bytes,
    };
    gate(&served.run, &served.ledger, reference)?;
    Ok(served)
}

/// The correctness gate of one serving run: one verdict per task; none
/// capped, poisoned, shed or reissued; journal replay equal to the live
/// report; and job, wave and correct-verdict counts equal to the reference
/// computation for the seed, which is what makes cost and reliability
/// identical across repetitions and across a crash.
fn gate(run: &RuntimeRun, ledger: &Ledger, reference: &Reference) -> Result<(), String> {
    let missing = ledger.missing(0..reference.tasks);
    if missing != 0 {
        return Err(format!("{missing} tasks without a verdict"));
    }
    check_report(run, reference, true)
}

/// The part of the gate that reads the finished run rather than the client.
/// `whole_journal` is false only after a checkpointed recovery, whose
/// journal starts at the snapshot while its report covers the whole run.
fn check_report(
    run: &RuntimeRun,
    reference: &Reference,
    whole_journal: bool,
) -> Result<(), String> {
    let total = reference.tasks;
    if run.crashed {
        return Err("the coordinator crashed".into());
    }
    let r = &run.report;
    if r.tasks_completed != total || r.tasks_capped != 0 || r.tasks_poisoned != 0 {
        return Err(format!(
            "report counts {} completed, {} capped, {} poisoned of {total}",
            r.tasks_completed, r.tasks_capped, r.tasks_poisoned
        ));
    }
    if run.admission.shed != 0 || r.timeouts != 0 {
        return Err(format!(
            "{} submissions shed, {} jobs timed out",
            run.admission.shed, r.timeouts
        ));
    }
    if whole_journal && report_from_journal(&run.journal) != *r {
        return Err("report_from_journal(&journal) != report".into());
    }
    let waves = r.waves_per_task.total().round() as u64;
    if (r.total_jobs, waves, r.tasks_correct)
        != (reference.jobs, reference.waves, reference.correct)
    {
        return Err(format!(
            "run reports {} jobs, {waves} waves, {} correct; the reference computation gives \
             {} jobs, {} waves, {} correct",
            r.total_jobs, r.tasks_correct, reference.jobs, reference.waves, reference.correct
        ));
    }
    Ok(())
}

/// One `crash_recover` repetition.
#[derive(Debug)]
pub struct Recovered {
    /// Inputs, phase 1 up to the injected crash, and reaping the dead run.
    pub setup_s: f64,
    /// `Runtime::recover` called → returned.
    pub recover_call_s: f64,
    /// `Runtime::recover` called → first post-restart verdict received.
    pub first_verdict_s: f64,
    /// `Runtime::recover` called → last roster verdict received.
    pub window_s: f64,
    /// `Runtime::recover` called → verdict, per post-restart verdict.
    pub latencies_ms: Vec<f64>,
    pub events_replayed: usize,
    /// `read_to_string` + `Journal::from_jsonl_prefix` on the crashed WAL,
    /// when asked for (the `runtime.recovery` probe only).
    pub read_parse_s: Option<f64>,
}

/// Phase 1: the roster goes into a flush-only checksummed WAL and the
/// coordinator is killed after 90 % of the expected events. Phase 2:
/// `Runtime::recover` on that WAL, then drain. With `checkpoint_every` set
/// the roster is offered in bursts with a quiescent gap between them, so
/// checkpoints are actually taken (the `ckpt_recover_s` probe).
pub fn crash_recover(
    tasks: usize,
    seed: u64,
    wal: PathBuf,
    checkpoint_every: Option<u64>,
    time_read_parse: bool,
    reference: &Reference,
) -> Result<Recovered, String> {
    let t_setup = now_ns();
    let mut ledger = Ledger::new(answers(seed, tasks));
    let roster: Vec<(u32, Payload)> = ledger
        .answers
        .iter()
        .enumerate()
        .map(|(i, &a)| (i as u32, payload(a)))
        .collect();
    let mut cfg = config(Traffic::Roster, tasks, Some(wal.clone()));
    cfg.checkpoint_every = checkpoint_every;
    // A fault-free task journals three events per job (dispatched, returned,
    // tallied), two per wave (opened, closed) and its verdict, so the
    // reference fixes the stream's length; the crash lands at 90 % of it.
    let stream = 3 * reference.jobs + 2 * reference.waves + tasks as u64;
    let crash_at = stream * 9 / 10;
    let make_worker = worker_factory(seed, Traffic::Roster, None);

    let runtime = Runtime::start(
        RuntimeConfig {
            crash_after_events: Some(crash_at.max(1)),
            ..cfg.clone()
        },
        strategy(),
        make_worker.clone(),
    );
    let client = runtime.client();
    let mut delivered_before = 0usize;
    if checkpoint_every.is_some() {
        // Checkpoints are taken only at quiescence: offer the roster in
        // bursts and leave the coordinator a moment between them.
        let burst = 16 * WINDOW;
        let mut sent = 0;
        while sent < tasks && !runtime.is_crashed() {
            let n = burst.min(tasks - sent);
            for _ in 0..n {
                ledger.submit(&client, None)?;
            }
            sent += n;
            delivered_before += collect_until_crash(&runtime, &client, &mut ledger, n)?;
            std::thread::sleep(Duration::from_millis(2));
        }
    } else {
        for _ in 0..tasks {
            ledger.submit(&client, None)?;
        }
        delivered_before = collect_until_crash(&runtime, &client, &mut ledger, tasks)?;
    }
    drop(client);
    let dead = runtime.finish();
    if !dead.crashed {
        return Err(format!(
            "the coordinator outlived its crash point ({crash_at} events)"
        ));
    }
    drop(dead);
    let read_parse_s = match time_read_parse {
        true => {
            let start = now_ns();
            let text = std::fs::read_to_string(&wal).map_err(|e| e.to_string())?;
            let prefix = Journal::from_jsonl_prefix(&text).map_err(|e| e.to_string())?;
            std::hint::black_box(&prefix);
            Some(secs(start, now_ns()))
        }
        false => None,
    };
    let t_recover = now_ns();

    let (runtime, client, rec) = Runtime::recover(cfg, strategy(), make_worker, &roster)
        .map_err(|e| format!("Runtime::recover: {e}"))?;
    let t_recovered = now_ns();
    // A decision logged by the very append that killed the coordinator is
    // durable but was never sent; recovery rightly does not resend it.
    let undelivered = rec
        .tasks_decided
        .checked_sub(delivered_before)
        .filter(|&u| u <= 1)
        .ok_or_else(|| {
            format!(
                "WAL holds {} decisions but {delivered_before} verdicts were delivered before \
                 the crash",
                rec.tasks_decided
            )
        })?;
    let expected = tasks - rec.tasks_decided;
    for _ in 0..expected {
        // `book` rejects a second verdict for a task already answered, so a
        // re-delivered pre-crash verdict fails the run here.
        ledger.take(&client)?;
    }
    if client.recv_timeout(Duration::from_millis(20)).is_some() {
        return Err("a verdict arrived beyond the roster".into());
    }
    drop(client);
    let run = runtime.finish();
    if ledger.missing(0..tasks) != undelivered {
        return Err(format!(
            "{} roster tasks without a verdict, {undelivered} expected",
            ledger.missing(0..tasks)
        ));
    }
    // The recovered report folds the whole WAL, so it is held to the same
    // reference as a run that never crashed.
    check_report(&run, reference, checkpoint_every.is_none())?;

    let after: Vec<u64> = ledger
        .recv
        .iter()
        .copied()
        .filter(|&at| at > t_recover)
        .collect();
    let first = after.iter().copied().min().unwrap_or(t_recovered);
    let last = after.iter().copied().max().unwrap_or(t_recovered);
    Ok(Recovered {
        setup_s: secs(t_setup, t_recover),
        recover_call_s: secs(t_recover, t_recovered),
        first_verdict_s: secs(t_recover, first),
        window_s: secs(t_recover, last),
        latencies_ms: after
            .iter()
            .map(|&at| (at - t_recover) as f64 / 1e6)
            .collect(),
        events_replayed: rec.events_replayed,
        read_parse_s,
    })
}

/// Books verdicts until `want` have arrived or the coordinator is dead and
/// its verdict channel is empty. Returns how many were booked.
fn collect_until_crash(
    runtime: &Runtime,
    client: &Client,
    ledger: &mut Ledger,
    want: usize,
) -> Result<usize, String> {
    let mut got = 0;
    while got < want {
        // Read the flag first: a verdict sent before the crash is already
        // in the channel once the flag reads true.
        let crashed = runtime.is_crashed();
        match client.recv_timeout(Duration::from_millis(2)) {
            Some(v) => {
                ledger.book(v, now_ns())?;
                got += 1;
            }
            None if crashed => break,
            None => {}
        }
    }
    Ok(got)
}
