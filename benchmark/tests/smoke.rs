//! Smoke test: every workload at 1 % scale, end to end and traced. Holds
//! the names the program emits equal to those `BENCHMARK.json` declares,
//! in both directions, and checks each trace file's span trees.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

const SERVING: [&str; 4] = ["serve_mem", "serve_wal", "serve_open", "crash_recover"];

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `"key": "value"` inside the array that follows `"section": [`.
fn strings_in(json: &str, section: &str, key: &str) -> Vec<String> {
    let open = format!("\"{section}\": [");
    let body = &json[json.find(&open).expect("section present") + open.len()..];
    let body = &body[..body.find(']').expect("section closes")];
    let key = format!("\"{key}\": \"");
    body.match_indices(&key)
        .map(|(at, _)| {
            let rest = &body[at + key.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs the benchmark and returns the metric names and values of its
/// result line.
fn run(workload: &str, trace: &str) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--scale", "0.01"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    for key in [
        "\"correct\": true",
        "\"attempted\": ",
        "\"failed\": 0",
        "\"metrics\": {",
    ] {
        assert!(line.contains(key), "result line lacks {key}: {line}");
    }
    let marker = "\": {\"value\": ";
    line.match_indices(marker)
        .map(|(at, _)| {
            let name = &line[line[..at].rfind('"').expect("name opens") + 1..at];
            let rest = &line[at + marker.len()..];
            let value = rest[..rest.find(',').expect("value ends")]
                .parse()
                .expect("a number");
            (name.to_string(), value)
        })
        .collect()
}

fn names(json: &str, section: &str) -> BTreeSet<String> {
    strings_in(json, section, "name").into_iter().collect()
}

#[test]
fn benchmark_json_is_the_spec_the_program_prints() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("spec")
        .output()
        .expect("benchmark runs");
    assert_eq!(String::from_utf8_lossy(&out.stdout), benchmark_json());
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let json = benchmark_json();
    let mut seen = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for name in strings_in(&json, section, "name") {
            assert!(well_formed(&name), "{name} does not match [A-Za-z0-9_.-]+");
            assert!(seen.insert(name.clone()), "{name} is declared twice");
        }
    }
    for why in strings_in(&json, "workloads", "why") {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    for unit in strings_in(&json, "end_to_end", "unit")
        .into_iter()
        .chain(strings_in(&json, "per_layer", "unit"))
    {
        let ok = unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(ok, "unit {unit} is malformed");
    }
    assert!(names(&json, "end_to_end").contains("setup_s"));
}

/// One workload end to end and traced: emitted names equal declared names,
/// end-to-end values are never 0, and the trace file holds sound span trees.
fn check_workload(workload: &str) {
    let json = benchmark_json();
    assert!(names(&json, "workloads").contains(workload));
    let measured = run(workload, "0");
    assert_eq!(
        measured.keys().cloned().collect::<BTreeSet<_>>(),
        names(&json, "end_to_end"),
        "{workload}: end-to-end names"
    );
    for (name, value) in &measured {
        assert!(*value > 0.0, "{workload}: {name} = {value}");
    }
    let layers = run(workload, "1");
    assert_eq!(
        layers.keys().cloned().collect::<BTreeSet<_>>(),
        names(&json, "per_layer"),
        "{workload}: per-layer names"
    );
    if SERVING.contains(&workload) {
        check_trace(workload);
    }
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let key = format!("\"{key}\":");
    let rest = &line[line.find(&key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len()..];
    rest[..rest.find([',', '}']).expect("field ends")].trim_matches('"')
}

/// Children inside parents, self time within the span, and the layer shares
/// of every task summing to its client-measured span within 5 %.
fn check_trace(workload: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut spans: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
    let mut roots: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut span_lines, mut share_lines) = (0, 0);
    for line in text.lines() {
        let num = |key: &str| -> u64 { field(line, key).parse().expect("a whole number") };
        let task = num("task");
        if line.contains("\"shares\":") {
            share_lines += 1;
            let shares = &line[line.find("\"shares\":{").expect("shares") + 10..];
            let sum: u64 = shares
                .trim_end_matches('}')
                .split(',')
                .map(|kv| {
                    kv.rsplit(':')
                        .next()
                        .expect("a share")
                        .parse::<u64>()
                        .expect("ns")
                })
                .sum();
            let task_ns = num("task_ns");
            assert_eq!(
                roots.get(&task),
                Some(&task_ns),
                "task {task}: root span length"
            );
            let off = (sum as f64 - task_ns as f64).abs() / task_ns.max(1) as f64;
            assert!(
                off <= 0.05,
                "task {task}: shares sum to {sum} of {task_ns} ns"
            );
            continue;
        }
        span_lines += 1;
        let (start, end, self_ns) = (num("start_ns"), num("end_ns"), num("self_ns"));
        assert!(start <= end, "span runs backwards: {line}");
        assert!(self_ns <= end - start, "self time exceeds the span: {line}");
        assert!(well_formed(field(line, "layer")), "layer name: {line}");
        match field(line, "parent") {
            "null" => {
                assert_eq!(field(line, "name"), "task");
                roots.insert(task, end - start);
            }
            parent => {
                let parent = parent.parse().expect("a span id");
                let &(p_start, p_end) = spans.get(&(task, parent)).expect("parent precedes child");
                assert!(
                    p_start <= start && end <= p_end,
                    "child outside parent: {line}"
                );
            }
        }
        spans.insert((task, num("id")), (start, end));
    }
    assert!(
        span_lines > 0 && share_lines == roots.len(),
        "{workload}: empty trace"
    );
}

#[test]
fn serve_mem() {
    check_workload("serve_mem");
}

#[test]
fn serve_wal() {
    check_workload("serve_wal");
}

#[test]
fn serve_open() {
    check_workload("serve_open");
}

#[test]
fn crash_recover() {
    check_workload("crash_recover");
}

#[test]
fn sim_sweep() {
    check_workload("sim_sweep");
}
