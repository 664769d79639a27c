//! The outside-in trace. Nothing here is recorded inside the runtime: spans
//! come from the client's own submit/recv stamps, from a `SpanWorker`
//! wrapper handed in through `make_worker`, and from the wall-clock stamps
//! of the journal `Runtime::finish` returns, joined by task and job id.
//!
//! Span tree of one task (all on the benchmark clock):
//!
//! ```text
//! task [due, recv]
//! ├ generator [due, sent]                 open loop only
//! ├ admission [sent, WaveOpened(1)]
//! ├ wave[n]   [WaveOpened(n), WaveClosed(n)]
//! │ └ job[k]  [JobDispatched, JobReturned]
//! │   ├ hop_out  [JobDispatched, execute start]
//! │   ├ service  [execute start, execute end]
//! │   └ hop_back [execute end, JobReturned]
//! ├ decide  [last JobReturned, VerdictReached]
//! └ deliver [VerdictReached, recv]
//! ```
//!
//! The journal clock is aligned to the benchmark clock by the orderings the
//! runtime guarantees (see `join`); the half-width of the interval they
//! leave is `bench.clock_skew_bound_us`.
//!
//! The coordinator stamps once per handler, so `WaveClosed(n)`,
//! `WaveOpened(n+1)` and `VerdictReached` share the stamp of the
//! `JobReturned` that caused them: waves tile the task without gaps and
//! `decide` reads 0 until stamps inside the runtime exist.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use smartred_desim::journal::RunEvent;
use smartred_runtime::{JobAssignment, Worker};

use crate::serve::{Served, WORKERS};
use crate::sys::{now_ns, percentile};

/// One `Worker::execute` call as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct ExecSpan {
    pub job: u32,
    pub start: u64,
    pub end: u64,
}

/// Times `execute` from outside. Spans collect per worker and reach the
/// shared sink when the pool drops the worker at shutdown, so the hot path
/// takes no lock.
#[derive(Debug)]
pub struct SpanWorker<W> {
    inner: W,
    local: Vec<ExecSpan>,
    sink: Arc<Mutex<Vec<ExecSpan>>>,
}

impl<W> SpanWorker<W> {
    pub fn new(inner: W, sink: Arc<Mutex<Vec<ExecSpan>>>) -> Self {
        Self {
            inner,
            local: Vec::new(),
            sink,
        }
    }
}

impl<W: Worker> Worker for SpanWorker<W> {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        let start = now_ns();
        let out = self.inner.execute(job);
        self.local.push(ExecSpan {
            job: job.job,
            start,
            end: now_ns(),
        });
        out
    }
}

impl<W> Drop for SpanWorker<W> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.local);
        }
    }
}

/// The layers a task's latency is shared between. At every instant of the
/// task span exactly one is charged: the deepest span open at that instant,
/// a running `service` winning over a job that is only in a channel.
pub const LAYERS: [&str; 7] = [
    "bench.generator",
    "runtime.coordinator.admission",
    "runtime.coordinator.wave",
    "runtime.worker.hop",
    "runtime.worker.service",
    "runtime.coordinator.decide",
    "runtime.coordinator.deliver",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub task: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Wave number or job id, where the name alone is ambiguous.
    pub index: u32,
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
    /// Duration minus the part of it child spans cover.
    pub self_ns: u64,
}

/// Per-task shares of the client-measured latency, one per `LAYERS` entry.
#[derive(Debug, Clone)]
pub struct Shares {
    pub task: u32,
    pub task_ns: u64,
    pub by_layer: [u64; 7],
}

#[derive(Debug, Default)]
pub struct Joined {
    pub spans: Vec<Span>,
    pub shares: Vec<Shares>,
    pub metrics: Vec<(&'static str, f64)>,
}

#[derive(Default, Clone)]
struct JobStamps {
    job: u32,
    wave: u32,
    dispatched: u64,
    returned: u64,
}

#[derive(Default, Clone)]
struct TaskStamps {
    wave_open: Vec<u64>,
    wave_close: Vec<u64>,
    jobs: Vec<JobStamps>,
    verdict: u64,
}

/// Total length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0, 0);
    for &(start, end) in intervals.iter() {
        let start = start.max(edge);
        if end > start {
            total += end - start;
            edge = end;
        }
    }
    total
}

/// Joins client stamps, `SpanWorker` spans and journal stamps of the
/// measured tasks of `served` into span trees, layer shares and the
/// `runtime.coordinator` / `runtime.worker` / `bench` metrics.
pub fn join(served: &Served) -> Result<Joined, String> {
    let events = served.run.journal.events();
    let total = served.warm + served.tasks;
    let jobs_total = served.run.report.total_jobs as usize;
    let mut exec: Vec<Option<ExecSpan>> = vec![None; jobs_total];
    for span in &served.exec {
        match exec.get_mut(span.job as usize) {
            Some(slot @ None) => *slot = Some(*span),
            _ => return Err(format!("job {} executed twice or is unknown", span.job)),
        }
    }

    // Journal micros → nanoseconds since the journal's own epoch.
    let ns = |e: &smartred_desim::journal::Stamped| e.at.as_micros() * 1_000;
    let mut tasks: Vec<TaskStamps> = vec![TaskStamps::default(); total];
    let mut job_slot: Vec<(u32, u32)> = vec![(0, 0); jobs_total];
    for e in events {
        match e.event {
            RunEvent::WaveOpened { task, .. } => tasks[task as usize].wave_open.push(ns(e)),
            RunEvent::WaveClosed { task, .. } => tasks[task as usize].wave_close.push(ns(e)),
            RunEvent::JobDispatched { job, task, .. } => {
                let t = &mut tasks[task as usize];
                job_slot[job as usize] = (task, t.jobs.len() as u32);
                t.jobs.push(JobStamps {
                    job,
                    wave: t.wave_open.len() as u32,
                    dispatched: ns(e),
                    returned: 0,
                });
            }
            RunEvent::JobReturned { job, .. } => {
                let (task, slot) = job_slot[job as usize];
                tasks[task as usize].jobs[slot as usize].returned = ns(e);
            }
            RunEvent::VerdictReached { task, .. } => tasks[task as usize].verdict = ns(e),
            _ => {}
        }
    }

    // Align the journal clock to the benchmark clock with the orderings the
    // runtime guarantees: its epoch lies inside the `Runtime::start` call; a
    // task is submitted before its first wave opens; a job finishes before
    // its return is stamped; a verdict is stamped before the client holds
    // it. (`JobDispatched` is stamped just after the inbox send, so it
    // orders nothing.) Journal stamps are truncated to whole microseconds.
    let (mut lo, mut hi) = (served.start_call.0 as i128, served.start_call.1 as i128);
    for (index, t) in tasks.iter().enumerate() {
        if let Some(&open) = t.wave_open.first() {
            lo = lo.max(served.ledger.sent[index] as i128 - open as i128 - 999);
        }
        if t.verdict != 0 && served.ledger.recv[index] != 0 {
            hi = hi.min(served.ledger.recv[index] as i128 - t.verdict as i128);
        }
        for j in &t.jobs {
            let x = exec[j.job as usize].ok_or(format!("job {} has no execute span", j.job))?;
            lo = lo.max(x.end as i128 - j.returned as i128 - 999);
        }
    }
    let offset = (lo + hi) / 2;
    let skew_bound_us = (hi - lo).abs() as f64 / 2e3;
    let bench = |journal_ns: u64| (journal_ns as i128 + offset).max(0) as u64;

    let mut out = Joined::default();
    let (mut admission_wait, mut decide, mut deliver) = (vec![], vec![], vec![]);
    let (mut service, mut hop_out, mut hop_back) = (vec![], vec![], vec![]);
    let mut coordinator_self = 0u64;
    let mut busy = 0u64;
    for index in served.measured() {
        let t = &tasks[index];
        let (due, sent, recv) = (
            served.ledger.due[index],
            served.ledger.sent[index],
            served.ledger.recv[index],
        );
        if t.wave_open.is_empty() || t.wave_open.len() != t.wave_close.len() || t.verdict == 0 {
            return Err(format!(
                "task {index}: journal holds no complete wave sequence"
            ));
        }
        // Children are clamped into their parent, which absorbs the
        // residual clock skew reported as `bench.clock_skew_bound_us`.
        let clamp = |at: u64, (lo, hi): (u64, u64)| at.clamp(lo, hi);
        let root = (due, recv.max(due));
        let first = out.spans.len();
        // Appends a span of this task and returns its id. `self_ns` starts
        // as the whole duration, which is right for a leaf; the containers
        // (task, wave, job) are corrected below.
        let add = |spans: &mut Vec<Span>,
                   parent: Option<u32>,
                   name: &'static str,
                   n: u32,
                   layer: &'static str,
                   (start, end): (u64, u64)| {
            let id = (spans.len() - first) as u32;
            spans.push(Span {
                task: index as u32,
                id,
                parent,
                name,
                index: n,
                layer,
                start,
                end,
                self_ns: end - start,
            });
            id
        };
        let mut share = [0u64; 7];
        let root_id = add(&mut out.spans, None, "task", 0, "bench", root);
        // The children below tile the task span, so it has no time of its own.
        out.spans[first].self_ns = 0;

        let sent_c = clamp(sent, root);
        if sent_c > due {
            let span = (due, sent_c);
            add(
                &mut out.spans,
                Some(root_id),
                "generator",
                0,
                LAYERS[0],
                span,
            );
            share[0] = sent_c - due;
        }
        let verdict = clamp(bench(t.verdict), (sent_c, root.1));
        let first_open = clamp(bench(t.wave_open[0]), (sent_c, verdict));
        let span = (sent_c, first_open);
        add(
            &mut out.spans,
            Some(root_id),
            "admission",
            0,
            LAYERS[1],
            span,
        );
        share[1] = first_open - sent_c;

        let first_dispatch = t.jobs.iter().map(|j| j.dispatched).min().unwrap_or(0);
        admission_wait.push(bench(first_dispatch).saturating_sub(sent) as f64 / 1e3);

        let mut wave_start = first_open;
        let (mut all_jobs, mut all_service) = (vec![], vec![]);
        for (w, &close) in t.wave_close.iter().enumerate() {
            let wave = (wave_start, clamp(bench(close), (wave_start, verdict)));
            let n = w as u32 + 1;
            let wave_id = add(&mut out.spans, Some(root_id), "wave", n, LAYERS[2], wave);
            let mut in_wave = vec![];
            for j in t.jobs.iter().filter(|j| j.wave == n) {
                let x = exec[j.job as usize].expect("checked during alignment");
                let job = (
                    clamp(bench(j.dispatched), wave),
                    clamp(bench(j.returned), wave),
                );
                let run = (clamp(x.start, job), clamp(x.end, job));
                let job_id = add(
                    &mut out.spans,
                    Some(wave_id),
                    "job",
                    j.job,
                    "runtime.worker",
                    job,
                );
                // Its three children tile the job.
                out.spans[first + job_id as usize].self_ns = 0;
                for (name, layer, span) in [
                    ("hop_out", LAYERS[3], (job.0, run.0)),
                    ("service", LAYERS[4], run),
                    ("hop_back", LAYERS[3], (run.1, job.1)),
                ] {
                    add(&mut out.spans, Some(job_id), name, j.job, layer, span);
                }
                in_wave.push(job);
                all_jobs.push(job);
                all_service.push(run);
                // Unclamped figures feed the layer metrics.
                hop_out.push(x.start.saturating_sub(bench(j.dispatched)) as f64 / 1e3);
                service.push((x.end - x.start) as f64 / 1e3);
                hop_back.push(bench(j.returned).saturating_sub(x.end) as f64 / 1e3);
                busy += x.end - x.start;
            }
            let wave_self = (wave.1 - wave.0) - covered(&mut in_wave);
            out.spans[first + wave_id as usize].self_ns = wave_self;
            share[2] += wave_self;
            wave_start = wave.1;
        }
        let in_service = covered(&mut all_service);
        share[4] = in_service;
        share[3] = covered(&mut all_jobs) - in_service;
        // The last wave closes on the stamp of the last counted return.
        let decide_span = (wave_start, verdict);
        for (name, layer, span) in [
            ("decide", 5, decide_span),
            ("deliver", 6, (verdict, root.1)),
        ] {
            add(&mut out.spans, Some(root_id), name, 0, LAYERS[layer], span);
            share[layer] = span.1 - span.0;
        }
        decide.push((decide_span.1 - decide_span.0) as f64 / 1e3);
        deliver.push(recv.saturating_sub(bench(t.verdict)) as f64 / 1e3);
        coordinator_self += share[1] + share[2] + share[5] + share[6];
        out.shares.push(Shares {
            task: index as u32,
            task_ns: root.1 - root.0,
            by_layer: share,
        });
    }

    let n = served.tasks as f64;
    let window_ns = (served.t_close - served.t_open) as f64;
    out.metrics = vec![
        (
            "runtime.coordinator.admission_wait_us_p50",
            percentile(&admission_wait, 0.50),
        ),
        (
            "runtime.coordinator.admission_wait_us_p99",
            percentile(&admission_wait, 0.99),
        ),
        (
            "runtime.coordinator.decide_us_p50",
            percentile(&decide, 0.50),
        ),
        (
            "runtime.coordinator.deliver_us_p50",
            percentile(&deliver, 0.50),
        ),
        (
            "runtime.coordinator.self_us_per_task",
            coordinator_self as f64 / 1e3 / n,
        ),
        (
            "runtime.coordinator.events_per_task",
            events.len() as f64 / total as f64,
        ),
        ("runtime.worker.service_us_p50", percentile(&service, 0.50)),
        ("runtime.worker.hop_out_us_p50", percentile(&hop_out, 0.50)),
        (
            "runtime.worker.hop_back_us_p50",
            percentile(&hop_back, 0.50),
        ),
        (
            "runtime.worker.hop_back_us_p99",
            percentile(&hop_back, 0.99),
        ),
        (
            "runtime.worker.busy_frac",
            busy as f64 / (WORKERS as f64 * window_ns),
        ),
        ("runtime.worker.jobs", service.len() as f64),
        (
            "bench.gen_late_p99_ms",
            percentile(&served.ledger.late_ms(served.measured()), 0.99),
        ),
        ("bench.clock_skew_bound_us", skew_bound_us),
    ];
    Ok(out)
}

/// Share of the summed client-measured latency the layer shares account
/// for; the trace is rejected when it strays more than 5 % from 1.
pub fn accounted(joined: &Joined) -> f64 {
    let shared: u64 = joined.shares.iter().flat_map(|s| s.by_layer).sum();
    let total: u64 = joined.shares.iter().map(|s| s.task_ns).sum();
    shared as f64 / total.max(1) as f64
}

/// Writes the spans and per-task layer shares as JSON lines.
pub fn write(joined: &Joined, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &joined.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"task\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"index\":{},\
             \"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.task, s.id, s.name, s.index, s.layer, s.start, s.end, s.self_ns
        )?;
    }
    for s in &joined.shares {
        let shares: Vec<String> = LAYERS
            .iter()
            .zip(s.by_layer)
            .map(|(layer, ns)| format!("\"{layer}\":{ns}"))
            .collect();
        writeln!(
            w,
            "{{\"task\":{},\"task_ns\":{},\"shares\":{{{}}}}}",
            s.task,
            s.task_ns,
            shares.join(",")
        )?;
    }
    w.flush()
}
