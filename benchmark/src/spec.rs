//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is `benchmark spec` verbatim; the smoke test holds the two equal.

/// Measured seconds per run the driver passes as `--seconds`.
pub const RUN_SECONDS: u32 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_mem",
        why: "closed loop, window 64, zero-work jobs, journal on, no WAL: coordinator-bound (admission, step_wave, dispatch, channel hops, Journal::record)",
    },
    Workload {
        name: "serve_wal",
        why: "serve_mem traffic with a checksummed write-per-event WAL: encode, checksum and write dominate, so the journal/WAL layer does most of the work",
    },
    Workload {
        name: "serve_open",
        why: "open loop, one task per 7 ms (two-thirds of capacity), 1 ms jobs: worker-service-bound latency (waves, hops, deadline heap, 1 ms poll tick)",
    },
    Workload {
        name: "crash_recover",
        why: "roster into a flush-only WAL, coordinator killed at 90 % of events, Runtime::recover and drain: the read side (parse, verify, rebuild) and exactly-once",
    },
    Workload {
        name: "sim_sweep",
        why: "figure path: dca::sim::run_journaled under TR k=19, PR k=19, IR d=4 plus replay equality; no threads, no clock: core::execution, desim::engine, dca::sim",
    },
];

#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with their regression bounds (share of the parent's
/// median). Every workload reports every one of them; what each means on
/// each workload is tabulated in `benchmark/README.md`.
pub const END_TO_END: [(Metric, f64); 7] = [
    (lower("setup_s", "s"), 0.25),
    (higher("tasks_per_s", "tasks/s"), 0.2),
    (lower("verdict_latency_p50_ms", "ms"), 0.2),
    (lower("verdict_latency_p99_ms", "ms"), 0.25),
    (lower("jobs_per_task", "jobs"), 0.02),
    (higher("reliability", "fraction"), 0.01),
    (lower("peak_rss_mb", "MiB"), 0.2),
];

/// Per-layer metrics, named after the modules they time. None is gated.
pub const PER_LAYER: [Metric; 48] = [
    lower("core.execution.step_ns_per_vote", "ns"),
    higher("core.execution.decisions_per_s", "1/s"),
    lower("core.execution.waves_per_task", "count"),
    higher("core.monte_carlo.tasks_per_s", "tasks/s"),
    lower("desim.journal.record_ns_per_event", "ns"),
    lower("desim.journal.encode_ns_per_event", "ns"),
    lower("desim.journal.bytes_per_event", "bytes"),
    higher("desim.journal.parse_events_per_s", "events/s"),
    higher("desim.journal.digest_events_per_s", "events/s"),
    higher("desim.journal.merge_events_per_s", "events/s"),
    lower("desim.wal.append_us_mem", "us"),
    lower("desim.wal.append_us_disk_nosync", "us"),
    lower("desim.wal.append_us_disk_sync1", "us"),
    lower("desim.wal.append_us_disk_sync64", "us"),
    lower("desim.wal.bytes_per_task", "bytes"),
    lower("desim.wal.write_syscalls_per_task", "count"),
    lower("runtime.coordinator.admission_wait_us_p50", "us"),
    lower("runtime.coordinator.admission_wait_us_p99", "us"),
    lower("runtime.coordinator.decide_us_p50", "us"),
    lower("runtime.coordinator.deliver_us_p50", "us"),
    lower("runtime.coordinator.self_us_per_task", "us"),
    lower("runtime.coordinator.events_per_task", "count"),
    lower("runtime.worker.service_us_p50", "us"),
    lower("runtime.worker.hop_out_us_p50", "us"),
    lower("runtime.worker.hop_back_us_p50", "us"),
    lower("runtime.worker.hop_back_us_p99", "us"),
    higher("runtime.worker.busy_frac", "fraction"),
    lower("runtime.worker.jobs", "count"),
    lower("runtime.recovery.read_parse_s", "s"),
    lower("runtime.recovery.rebuild_s", "s"),
    lower("runtime.recovery.first_verdict_s", "s"),
    higher("runtime.recovery.replay_events_per_s", "events/s"),
    lower("runtime.recovery.events_replayed", "count"),
    lower("runtime.recovery.ckpt_recover_s", "s"),
    higher("runtime.shard.tasks_per_s_s1", "tasks/s"),
    higher("runtime.shard.tasks_per_s_s2", "tasks/s"),
    higher("runtime.report.fold_events_per_s", "events/s"),
    higher("dca.replay.fold_events_per_s", "events/s"),
    higher("dca.sim.tasks_per_s_tr", "tasks/s"),
    higher("dca.sim.tasks_per_s_pr", "tasks/s"),
    higher("dca.sim.tasks_per_s_ir", "tasks/s"),
    lower("dca.sim.journal_overhead_frac", "fraction"),
    higher("desim.engine.events_per_s", "events/s"),
    lower("volunteer.server.run_s", "s"),
    higher("dag.sim.runs_per_s", "runs/s"),
    lower("bench.gen_late_p99_ms", "ms"),
    lower("bench.trace_overhead_frac", "fraction"),
    lower("bench.clock_skew_bound_us", "us"),
];

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The exact text of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                better_str(m.better)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
