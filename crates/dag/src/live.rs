//! Stage-gated DAG execution against the live (wall-clock) runtime.
//!
//! The simulator in [`crate::sim`] owns its whole world; here the DAG
//! layer sits *on top of* a running [`smartred_runtime`] coordinator (or
//! sharded fleet): it submits one stage at a time, waits for every verdict
//! in the stage, works out which downstream tasks a wrong accepted output
//! poisons, and journals the DAG bookkeeping — `StageDecided` and
//! `PoisonPropagated` — durably into the runtime's WAL through the
//! client's annotation channel. A crash mid-pipeline therefore leaves a
//! WAL from which both the tally state (runtime recovery) and the stage
//! progress (the annotation stream) can be reconstructed.
//!
//! Task identity differs from the simulator: the runtime assigns its own
//! dense task ids at submission, so annotations reference *runtime* ids —
//! which is exactly what makes them shard-safe (the sharded client routes
//! an annotation by the task it references, landing it in the same WAL
//! segment as that task's votes).

use std::time::Duration;

use smartred_desim::journal::{Journal, RunEvent};
use smartred_runtime::{Payload, SubmitOutcome};

use crate::spec::{DagSpec, DepKind};

/// The submission surface the DAG driver runs against: the runtime's one
/// client trait, which both `Client` and `ShardedClient` implement.
pub use smartred_runtime::TaskClient as DagClient;

/// How long the driver waits for a verdict before concluding the runtime
/// crashed or shut down underneath it.
const VERDICT_PATIENCE: Duration = Duration::from_secs(30);

/// Back-off between submission retries while the admission gate is full.
const SHED_BACKOFF: Duration = Duration::from_millis(1);

/// What a live DAG run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveDagReport {
    /// Runtime task id assigned to each DAG task, in global DAG-id order.
    pub runtime_ids: Vec<u32>,
    /// Per stage: tasks whose effective output is correct.
    pub stage_correct: Vec<u32>,
    /// Per stage: tasks whose effective output is wrong (own wrong or
    /// missing verdict, or upstream poison).
    pub stage_wrong: Vec<u32>,
    /// Downstream tasks poisoned by a wrong effective upstream output.
    pub poisoned_tasks: u32,
    /// Vote jobs the runtime dispatched for the DAG's tasks.
    pub jobs: u64,
    /// Whether the runtime died (crash or shutdown) before the pipeline
    /// finished; counts and annotations end at the last completed stage.
    pub crashed: bool,
}

impl LiveDagReport {
    /// Wrong effective outputs across `spec`'s sink stages.
    pub fn sink_wrong(&self, spec: &DagSpec) -> u32 {
        spec.sinks()
            .iter()
            .map(|&s| self.stage_wrong[s as usize])
            .sum()
    }

    /// Fraction of sink outputs whose effective value is wrong.
    pub fn escape_rate(&self, spec: &DagSpec) -> f64 {
        f64::from(self.sink_wrong(spec)) / f64::from(spec.sink_tasks())
    }
}

/// Runs `spec` against a live runtime, one stage at a time.
///
/// For each stage in topological order: every task is submitted (retrying
/// while the admission gate sheds), all verdicts are collected, poison is
/// propagated along the spec's dependency edges, and the stage verdict is
/// annotated into the WAL — `PoisonPropagated` per poisoned task (by
/// runtime id, so it routes to the owning shard) and one `StageDecided`
/// per stage. Stage `k + 1` is not submitted until stage `k` has decided:
/// the runtime's strategy gates every data edge.
///
/// A task's effective output is correct iff its accepted vote is the
/// honest one (`TaskVerdict::vote == Some(true)` — colluding workers
/// carry the `false` label) *and* no upstream dependency was effectively
/// wrong. Tasks that fail without a verdict (job cap, worker poisoning)
/// count as wrong.
///
/// Returns early with [`LiveDagReport::crashed`] set when the runtime
/// stops answering (chaos crash point or shutdown).
///
/// # Panics
///
/// Panics if `payloads.len()` differs from `spec.total_tasks()`.
pub fn run_dag<C: DagClient + ?Sized>(
    client: &C,
    spec: &DagSpec,
    payloads: &[Payload],
) -> LiveDagReport {
    run_dag_with(client, spec, payloads, VERDICT_PATIENCE)
}

/// [`run_dag`] with an explicit verdict patience — how long the driver
/// waits on a silent runtime before declaring it crashed. Chaos tests use
/// a short patience; production callers should keep the default.
pub fn run_dag_with<C: DagClient + ?Sized>(
    client: &C,
    spec: &DagSpec,
    payloads: &[Payload],
    patience: Duration,
) -> LiveDagReport {
    assert_eq!(
        payloads.len(),
        spec.total_tasks() as usize,
        "one payload per DAG task"
    );
    let stages = spec.len();
    let mut report = LiveDagReport {
        runtime_ids: vec![0; payloads.len()],
        stage_correct: vec![0; stages],
        stage_wrong: vec![0; stages],
        poisoned_tasks: 0,
        jobs: 0,
        crashed: false,
    };
    // Per DAG task: Some(correct?) once its stage has decided.
    let mut effective: Vec<Option<bool>> = vec![None; payloads.len()];

    'stages: for stage in 0..stages as u32 {
        let range = spec.tasks(stage);
        let width = range.len();
        // Mark poison from already-decided upstream stages, then submit
        // the whole stage (poisoned tasks still run — they compute on bad
        // data; the cost is real even though the output is lost).
        let mut poisoned: Vec<Option<u32>> = vec![None; width];
        for t in range.clone() {
            let offset = (t - spec.base(stage)) as usize;
            for dep in &spec.stages()[stage as usize].deps {
                let bad = match dep.kind {
                    DepKind::All => spec
                        .tasks(dep.on)
                        .find(|&u| effective[u as usize] == Some(false)),
                    DepKind::Pairwise => {
                        let u = spec.base(dep.on) + offset as u32;
                        (effective[u as usize] == Some(false)).then_some(u)
                    }
                };
                if let Some(u) = bad {
                    let slot = &mut poisoned[offset];
                    *slot = Some(slot.map_or(u, |f| f.min(u)));
                }
            }
        }
        for t in range.clone() {
            let offset = (t - spec.base(stage)) as usize;
            let id = loop {
                match client.submit(payloads[t as usize].clone()) {
                    SubmitOutcome::Accepted { task } | SubmitOutcome::Queued { task } => {
                        break task
                    }
                    SubmitOutcome::Shed => std::thread::sleep(SHED_BACKOFF),
                }
            };
            report.runtime_ids[t as usize] = id;
            if let Some(u) = poisoned[offset] {
                report.poisoned_tasks += 1;
                if !client.annotate(RunEvent::PoisonPropagated {
                    task: id,
                    stage,
                    from: report.runtime_ids[u as usize],
                }) {
                    report.crashed = true;
                    break 'stages;
                }
            }
        }
        // Collect the stage's verdicts (they arrive in completion order;
        // match them back to DAG slots by runtime id).
        let mut decided = 0usize;
        while decided < width {
            let Some(verdict) = client.recv_timeout(patience) else {
                report.crashed = true;
                break 'stages;
            };
            let offset = range
                .clone()
                .position(|t| report.runtime_ids[t as usize] == verdict.task)
                .expect("verdict for a task this driver never submitted");
            let t = spec.base(stage) + offset as u32;
            report.jobs += u64::from(verdict.jobs);
            let own_correct = verdict.vote == Some(true);
            effective[t as usize] = Some(own_correct && poisoned[offset].is_none());
            decided += 1;
        }
        let correct = range
            .clone()
            .filter(|&t| effective[t as usize] == Some(true))
            .count() as u32;
        let wrong = width as u32 - correct;
        report.stage_correct[stage as usize] = correct;
        report.stage_wrong[stage as usize] = wrong;
        if !client.annotate(RunEvent::StageDecided {
            stage,
            correct,
            wrong,
        }) {
            report.crashed = true;
            break;
        }
    }
    report
}

/// The DAG annotation stream as recovered from a journal (or a WAL
/// prefix): per-stage verdicts and the poison count. Lets tests and
/// recovery tooling cross-check a [`LiveDagReport`] against what actually
/// reached disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DagAnnotations {
    /// `(stage, correct, wrong)` in journal order.
    pub stages: Vec<(u32, u32, u32)>,
    /// `PoisonPropagated` events seen.
    pub poisoned_tasks: u32,
}

/// Extracts the DAG annotations a live run journaled into `journal`.
pub fn annotations_from_journal(journal: &Journal) -> DagAnnotations {
    let mut out = DagAnnotations::default();
    for e in journal.events() {
        match e.event {
            RunEvent::StageDecided {
                stage,
                correct,
                wrong,
            } => out.stages.push((stage, correct, wrong)),
            RunEvent::PoisonPropagated { .. } => out.poisoned_tasks += 1,
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DagSpec, StageSpec, StageStrategy};
    use smartred_runtime::{
        Client, FaultProfile, FaultyWorker, JobAssignment, Runtime, RuntimeConfig, TaskVerdict,
        Worker,
    };

    fn spec() -> DagSpec {
        DagSpec::map_shuffle_reduce(
            4,
            1,
            StageStrategy::ir(2).unwrap(),
            StageStrategy::ir(2).unwrap(),
            StageStrategy::ir(2).unwrap(),
        )
        .unwrap()
    }

    fn payloads(spec: &DagSpec) -> Vec<Payload> {
        (0..spec.total_tasks())
            .map(|t| Payload::Synthetic {
                answer: t % 2 == 0,
                work: Duration::ZERO,
            })
            .collect()
    }

    /// Colludes (unanimously) on one chosen runtime task id, so exactly
    /// that task accepts a wrong verdict — deterministic poisoning.
    struct TargetedColluder {
        target: u32,
    }

    impl Worker for TargetedColluder {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            let honest = job.payload.execute();
            if job.task == self.target {
                Some((false, !honest))
            } else {
                Some((true, honest))
            }
        }
    }

    fn runtime_with_target(target: Option<u32>) -> Runtime {
        let cfg = RuntimeConfig {
            workers: Some(4),
            journal: true,
            ..RuntimeConfig::default()
        };
        Runtime::start(
            cfg,
            StageStrategy::ir(2).unwrap(),
            move |_node| match target {
                Some(t) => Box::new(TargetedColluder { target: t }) as Box<dyn Worker>,
                None => Box::new(FaultyWorker::new(7, FaultProfile::default())) as Box<dyn Worker>,
            },
        )
    }

    #[test]
    fn honest_pipeline_decides_every_stage_in_order() {
        let spec = spec();
        let rt = runtime_with_target(None);
        let client = rt.client();
        let report = run_dag(&client, &spec, &payloads(&spec));
        drop(client);
        let run = rt.finish();
        assert!(!report.crashed);
        assert_eq!(report.stage_correct, vec![4, 4, 1]);
        assert_eq!(report.stage_wrong, vec![0, 0, 0]);
        assert_eq!(report.poisoned_tasks, 0);
        assert_eq!(report.escape_rate(&spec), 0.0);
        // The WAL-bound annotation stream matches the live report, in
        // stage order.
        let ann = annotations_from_journal(&run.journal);
        assert_eq!(ann.stages, vec![(0, 4, 0), (1, 4, 0), (2, 1, 0)]);
        assert_eq!(ann.poisoned_tasks, 0);
    }

    #[test]
    fn wrong_accepted_intermediate_poisons_descendants() {
        // Chain a → b (pairwise) → c (shuffle). Workers collude on task 1
        // only: the runtime accepts its wrong output, and the driver must
        // poison its pairwise descendant and the shuffle sink. Runtime
        // ids equal DAG ids here — the driver submits sequentially into a
        // fresh runtime.
        let spec = DagSpec::new(vec![
            StageSpec::new("a", 3, 0, 1.0, StageStrategy::ir(2).unwrap()),
            StageSpec::new("b", 3, 0, 1.0, StageStrategy::ir(2).unwrap()).after_pairwise(0),
            StageSpec::new("c", 1, 0, 1.0, StageStrategy::ir(2).unwrap()).after(1),
        ])
        .unwrap();
        let rt = runtime_with_target(Some(1));
        let client = rt.client();
        let report = run_dag(&client, &spec, &payloads(&spec));
        drop(client);
        let run = rt.finish();
        assert!(!report.crashed);
        assert_eq!(report.stage_wrong, vec![1, 1, 1]);
        // Task 4 (pairwise under task 1) and the sink are poisoned.
        assert_eq!(report.poisoned_tasks, 2);
        assert_eq!(report.escape_rate(&spec), 1.0);
        let ann = annotations_from_journal(&run.journal);
        assert_eq!(ann.stages, vec![(0, 2, 1), (1, 2, 1), (2, 0, 1)]);
        assert_eq!(ann.poisoned_tasks, 2);
    }

    #[test]
    fn sharded_runs_route_annotations_with_their_tasks() {
        use smartred_runtime::{ShardedConfig, ShardedRuntime};
        let spec = spec();
        let mut cfg = ShardedConfig::new(2);
        cfg.base.workers = Some(4);
        cfg.base.journal = true;
        let rt = ShardedRuntime::start(cfg, StageStrategy::ir(2).unwrap(), |_node| {
            Box::new(TargetedColluder { target: 2 }) as Box<dyn Worker>
        });
        let client = rt.client();
        let report = run_dag(&client, &spec, &payloads(&spec));
        drop(client);
        let run = rt.finish();
        assert!(!report.crashed);
        // Map task 2 wrong → its pairwise combine child is poisoned, and
        // the shuffle-fed reduce sink after it.
        assert_eq!(report.stage_wrong, vec![1, 1, 1]);
        assert_eq!(report.poisoned_tasks, 2);
        // Annotations survive the deterministic sharded merge.
        let ann = annotations_from_journal(&run.journal);
        assert_eq!(ann.poisoned_tasks, 2);
        assert_eq!(ann.stages.len(), 3);
        let mut by_stage = ann.stages.clone();
        by_stage.sort_unstable();
        assert_eq!(by_stage, vec![(0, 3, 1), (1, 3, 1), (2, 0, 1)]);
    }

    /// A [`Client`] that checks the write-ahead barrier from the DAG
    /// driver's seat: submissions queue behind earlier annotations, so by
    /// the time a verdict is held, every annotation sent before that
    /// task was submitted must be in the WAL file.
    struct WalWatcher {
        inner: Client,
        wal: std::path::PathBuf,
        annotated: std::cell::RefCell<Vec<RunEvent>>,
        /// Runtime task id → annotations sent before its submission.
        owed: std::cell::RefCell<std::collections::HashMap<u32, usize>>,
    }

    impl WalWatcher {
        fn annotations_on_disk(&self) -> Vec<RunEvent> {
            let prefix = Journal::read_wal(&self.wal, 1).unwrap().unwrap();
            let annotation = |e: &RunEvent| {
                matches!(
                    e,
                    RunEvent::StageDecided { .. } | RunEvent::PoisonPropagated { .. }
                )
            };
            let events = prefix.journal.events().iter().map(|e| e.event);
            events.filter(annotation).collect()
        }
    }

    impl DagClient for WalWatcher {
        fn submit(&self, payload: Payload) -> SubmitOutcome {
            let outcome = self.inner.submit(payload);
            if let SubmitOutcome::Accepted { task } | SubmitOutcome::Queued { task } = outcome {
                self.owed
                    .borrow_mut()
                    .insert(task, self.annotated.borrow().len());
            }
            outcome
        }
        fn recv(&self) -> Option<TaskVerdict> {
            unreachable!("the DAG driver always waits with a patience")
        }
        fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict> {
            let verdict = self.inner.recv_timeout(timeout)?;
            let owed = self.owed.borrow()[&verdict.task];
            let on_disk = self.annotations_on_disk();
            assert!(on_disk.len() >= owed, "task {}: {on_disk:?}", verdict.task);
            assert_eq!(on_disk[..owed], self.annotated.borrow()[..owed]);
            Some(verdict)
        }
        fn annotate(&self, event: RunEvent) -> bool {
            self.annotated.borrow_mut().push(event);
            self.inner.annotate(event)
        }
    }

    #[test]
    fn annotations_are_in_the_wal_file_before_the_next_stage_is_answered() {
        // Colluding on task 1 poisons the chain under it, so the stream
        // holds both annotation kinds.
        let spec = DagSpec::new(vec![
            StageSpec::new("a", 3, 0, 1.0, StageStrategy::ir(2).unwrap()),
            StageSpec::new("b", 3, 0, 1.0, StageStrategy::ir(2).unwrap()).after_pairwise(0),
            StageSpec::new("c", 1, 0, 1.0, StageStrategy::ir(2).unwrap()).after(1),
        ])
        .unwrap();
        for (name, wal_sync, wal_batch) in [("flush", false, 1), ("sync64", true, 64)] {
            let wal = std::env::temp_dir().join(format!(
                "smartred-dag-live-{}-{name}.wal.jsonl",
                std::process::id()
            ));
            let cfg = RuntimeConfig {
                workers: Some(4),
                wal: Some(wal.clone()),
                wal_sync,
                wal_batch,
                ..RuntimeConfig::default()
            };
            let rt = Runtime::start(cfg, StageStrategy::ir(2).unwrap(), |_node| {
                Box::new(TargetedColluder { target: 1 }) as Box<dyn Worker>
            });
            let watcher = WalWatcher {
                inner: rt.client(),
                wal: wal.clone(),
                annotated: Default::default(),
                owed: Default::default(),
            };
            let report = run_dag(&watcher, &spec, &payloads(&spec));
            assert!(!report.crashed);
            assert_eq!(report.poisoned_tasks, 2);
            // The last annotation has no later verdict to ride behind;
            // the coordinator commits it on admission all the same.
            let sent = watcher.annotated.borrow().clone();
            assert_eq!(sent.len(), 2 + spec.len());
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while watcher.annotations_on_disk() != sent {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{name}: the final stage verdict never reached the file"
                );
                std::thread::yield_now();
            }
            drop(watcher);
            assert!(!rt.finish().crashed);
            let _ = std::fs::remove_file(&wal);
        }
    }

    #[test]
    fn crashed_runtime_reports_instead_of_hanging() {
        let spec = spec();
        let cfg = RuntimeConfig {
            workers: Some(2),
            journal: true,
            crash_after_events: Some(6),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::start(cfg, StageStrategy::ir(2).unwrap(), |_node| {
            Box::new(FaultyWorker::new(7, FaultProfile::default())) as Box<dyn Worker>
        });
        let client = rt.client();
        let report = run_dag_with(&client, &spec, &payloads(&spec), Duration::from_millis(500));
        drop(client);
        let run = rt.finish();
        assert!(report.crashed);
        assert!(run.crashed);
    }
}
