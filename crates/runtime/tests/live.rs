//! Integration tests for the live runtime: the IR-vs-TR acceptance run,
//! replay cross-checks, overload shedding, timeout→reissue, determinism,
//! and journal invariants — at worker counts 1 and 8.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use smartred_core::analysis;
use smartred_core::params::{KVotes, Reliability, VoteMargin};
use smartred_core::strategy::{Iterative, RedundancyStrategy, Traditional};
use smartred_desim::journal::assert as jassert;
use smartred_runtime::{
    report_from_journal, FaultProfile, FaultyWorker, Payload, Runtime, RuntimeConfig, RuntimeRun,
    SubmitOutcome, TaskVerdict,
};
use smartred_sat::{decompose, random_3sat, ThreeSatConfig};

/// Runs `num_tasks` 3-SAT block tasks through a fresh runtime, retrying
/// shed submissions, and returns the finished run plus every verdict.
fn run_sat<S>(
    strategy: S,
    workers: usize,
    seed: u64,
    profile: FaultProfile,
    num_tasks: usize,
    deadline: Duration,
) -> (RuntimeRun, Vec<TaskVerdict>)
where
    S: RedundancyStrategy<bool> + Send + Sync + 'static,
{
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let formula = Arc::new(random_3sat(
        ThreeSatConfig {
            num_vars: 16,
            clause_ratio: 4.26,
        },
        &mut rng,
    ));
    let blocks = decompose(formula.num_vars(), num_tasks);
    assert_eq!(blocks.len(), num_tasks);
    let cfg = RuntimeConfig {
        workers: Some(workers),
        queue_cap: num_tasks + 8,
        max_active: 64,
        deadline,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::start(cfg, strategy, move |_| {
        Box::new(FaultyWorker::new(seed, profile))
    });
    let client = runtime.client();
    for block in blocks {
        loop {
            let outcome = client.submit(Payload::Sat {
                formula: formula.clone(),
                block,
            });
            if outcome != SubmitOutcome::Shed {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let mut verdicts = Vec::with_capacity(num_tasks);
    for _ in 0..num_tasks {
        verdicts.push(client.recv().expect("runtime dropped a verdict"));
    }
    drop(client);
    (runtime.finish(), verdicts)
}

const THIRTY_PCT_FAULTY: FaultProfile = FaultProfile {
    wrong_rate: 0.3,
    hang_rate: 0.0,
    crash_rate: 0.0,
    think: Duration::ZERO,
};

/// The headline acceptance run: a seeded 30%-faulty pool, 1,000 tasks.
/// Iterative redundancy must reach the target confidence on ≥ 99% of
/// them while spending fewer job executions than traditional redundancy
/// at matched achieved reliability — verified from the live report AND
/// independently by folding the runtime's journal.
#[test]
fn ir_beats_tr_at_matched_reliability_live() {
    let r = Reliability::new(0.7).unwrap();
    // Smallest margin whose predicted reliability (Eq. 6) meets the 0.99
    // target: d = 6 at r = 0.7.
    let d = (1..=12)
        .find(|&d| analysis::iterative::reliability(VoteMargin::new(d).unwrap(), r) >= 0.99)
        .expect("a margin meeting the target exists");
    let (ir_run, ir_verdicts) = run_sat(
        Iterative::new(VoteMargin::new(d).unwrap()),
        8,
        42,
        THIRTY_PCT_FAULTY,
        1000,
        Duration::from_secs(2),
    );
    assert_eq!(ir_run.report.tasks_completed, 1000);
    assert_eq!(ir_verdicts.len(), 1000);
    let ir_reliability = ir_run.report.reliability();
    assert!(
        ir_reliability >= 0.99,
        "IR must reach target confidence on ≥ 99% of tasks, got {ir_reliability}"
    );
    // Replay cross-check: the journal folds to the identical report.
    assert_eq!(report_from_journal(&ir_run.journal), ir_run.report);

    // Traditional redundancy at matched reliability: the smallest odd k
    // whose predicted reliability (Eq. 2) meets what IR achieved.
    let k = (1..=61)
        .step_by(2)
        .find(|&k| analysis::traditional::reliability(KVotes::new(k).unwrap(), r) >= ir_reliability)
        .unwrap_or(61);
    let (tr_run, _) = run_sat(
        Traditional::new(KVotes::new(k).unwrap()),
        8,
        42,
        THIRTY_PCT_FAULTY,
        1000,
        Duration::from_secs(2),
    );
    assert_eq!(tr_run.report.tasks_completed, 1000);
    assert_eq!(report_from_journal(&tr_run.journal), tr_run.report);
    let tr_reliability = tr_run.report.reliability();
    assert!(
        tr_reliability >= ir_reliability - 0.005,
        "TR(k={k}) must match IR reliability: {tr_reliability} vs {ir_reliability}"
    );
    assert!(
        ir_run.report.total_jobs < tr_run.report.total_jobs,
        "IR must cost fewer jobs: IR {} vs TR(k={k}) {}",
        ir_run.report.total_jobs,
        tr_run.report.total_jobs
    );
}

/// Same run with a single worker: no deadlocks, same votes as any other
/// schedule would produce.
#[test]
fn single_worker_completes_without_deadlock() {
    let (run, verdicts) = run_sat(
        Iterative::new(VoteMargin::new(3).unwrap()),
        1,
        7,
        THIRTY_PCT_FAULTY,
        100,
        Duration::from_secs(2),
    );
    assert_eq!(run.report.tasks_completed, 100);
    assert_eq!(verdicts.len(), 100);
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// Votes, verdicts, and job counts are a pure function of the seed: two
/// runs at different worker counts agree on every vote-derived quantity
/// (timings differ, so only structure is compared).
#[test]
fn same_seed_reproduces_votes_across_worker_counts() {
    let strategy = || Iterative::new(VoteMargin::new(4).unwrap());
    let (a, va) = run_sat(
        strategy(),
        2,
        99,
        THIRTY_PCT_FAULTY,
        150,
        Duration::from_secs(2),
    );
    let (b, vb) = run_sat(
        strategy(),
        8,
        99,
        THIRTY_PCT_FAULTY,
        150,
        Duration::from_secs(2),
    );
    assert_eq!(a.report.tasks_correct, b.report.tasks_correct);
    assert_eq!(a.report.total_jobs, b.report.total_jobs);
    // (Welford means are fold-order sensitive in the last float bits, so
    // per-task equality is asserted on the sorted verdicts instead.)
    let key = |v: &TaskVerdict| (v.task, v.vote, v.answer, v.jobs);
    let mut ka: Vec<_> = va.iter().map(key).collect();
    let mut kb: Vec<_> = vb.iter().map(key).collect();
    ka.sort_unstable();
    kb.sort_unstable();
    assert_eq!(ka, kb, "verdicts must not depend on the schedule");
}

/// Saturating the bounded submission queue sheds instead of blocking or
/// collapsing, and shed submissions succeed on retry.
#[test]
fn saturation_sheds_and_recovers() {
    let cfg = RuntimeConfig {
        workers: Some(1),
        inbox_cap: 1,
        queue_cap: 2,
        max_active: 2,
        deadline: Duration::from_secs(5),
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(3).unwrap()), move |_| {
        Box::new(FaultyWorker::new(1, FaultProfile::default()))
    });
    let client = runtime.client();
    let total = 60;
    for _ in 0..total {
        loop {
            let outcome = client.submit(Payload::Synthetic {
                answer: true,
                work: Duration::from_millis(2),
            });
            if outcome != SubmitOutcome::Shed {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut correct = 0;
    for _ in 0..total {
        let verdict = client.recv().expect("verdict for every admitted task");
        if verdict.vote == Some(true) {
            correct += 1;
        }
    }
    drop(client);
    let run = runtime.finish();
    assert_eq!(run.report.tasks_completed, total);
    assert_eq!(correct, total, "honest pool must answer every task");
    assert!(
        run.admission.shed > 0,
        "a 2-deep queue under a 60-task burst must shed (shed {})",
        run.admission.shed
    );
    assert!(run.admission.shed_rate() > 0.0);
    assert_eq!(
        run.admission.accepted + run.admission.queued,
        total as u64,
        "every task was eventually admitted"
    );
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// Hung jobs miss their wall-clock deadline, are reissued on fresh RNG
/// streams, and every task still converges to the honest answer. The
/// journal witnesses the timeout→retry causality.
#[test]
fn hangs_time_out_and_reissue_preserves_correctness() {
    let profile = FaultProfile {
        wrong_rate: 0.0,
        hang_rate: 0.25,
        crash_rate: 0.0,
        think: Duration::ZERO,
    };
    let (run, verdicts) = run_sat(
        Traditional::new(KVotes::new(3).unwrap()),
        4,
        13,
        profile,
        40,
        Duration::from_millis(100),
    );
    assert_eq!(run.report.tasks_completed, 40);
    assert!(
        run.report.timeouts > 0,
        "a 25% hang rate must produce timeouts"
    );
    assert_eq!(run.report.timeouts, run.report.retries);
    assert_eq!(
        run.report.tasks_correct, 40,
        "reissue must preserve correctness with an honest pool"
    );
    assert!(verdicts.iter().all(|v| v.answer.is_some()));
    jassert::events(run.journal.events())
        .time_ordered()
        .retry_follows_timeout()
        .waves_well_formed();
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// The runtime-journal quorum property: every firm verdict is preceded by
/// at least `quorum` matching votes for that task (quorum = the margin d
/// for iterative redundancy), alongside the structural DSL invariants —
/// the same assertions that run against simulator journals.
#[test]
fn runtime_journal_satisfies_quorum_and_causality() {
    let profile = FaultProfile {
        wrong_rate: 0.3,
        hang_rate: 0.1,
        crash_rate: 0.0,
        think: Duration::ZERO,
    };
    let d = 4;
    let (run, _) = run_sat(
        Iterative::new(VoteMargin::new(d).unwrap()),
        8,
        21,
        profile,
        200,
        Duration::from_millis(100),
    );
    assert_eq!(run.report.tasks_completed, 200);
    jassert::events(run.journal.events())
        .time_ordered()
        .retry_follows_timeout()
        .waves_well_formed()
        .verdicts_have_quorum(d);
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// A job cap below the first wave fails every task as capped, delivering
/// vote-less verdicts instead of wedging the runtime.
#[test]
fn job_cap_fails_tasks_gracefully() {
    let cfg = RuntimeConfig {
        workers: Some(2),
        job_cap: Some(2),
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(3).unwrap()), move |_| {
        Box::new(FaultyWorker::new(5, FaultProfile::default()))
    });
    let client = runtime.client();
    for _ in 0..5 {
        assert_ne!(
            client.submit(Payload::Synthetic {
                answer: true,
                work: Duration::ZERO,
            }),
            SubmitOutcome::Shed
        );
    }
    for _ in 0..5 {
        let verdict = client.recv().expect("capped tasks still deliver");
        assert_eq!(verdict.vote, None);
        assert_eq!(verdict.jobs, 0);
    }
    drop(client);
    let run = runtime.finish();
    assert_eq!(run.report.tasks_capped, 5);
    assert_eq!(run.report.tasks_completed, 0);
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// Regression for the reissue double-count, over real threads: a reply
/// that lands *after* its job timed out and was reissued must be
/// journaled as [`StaleReplyDropped`] and never tallied. The first job is
/// held past its deadline, which finds the one worker silent since that
/// dispatch: the thread is respawned and its jobs re-issued under a fresh
/// epoch; let go, it sends its late reply and ends. Every task must tally
/// exactly k votes.
#[test]
fn late_reply_after_reissue_is_dropped_not_double_counted() {
    use smartred_desim::journal::RunEvent;
    use smartred_runtime::{JobAssignment, Worker};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;

    /// Holds the first job any worker starts until the gate drops, and
    /// says when the worker that held it ends with its thread.
    struct HeldFirst(Arc<Mutex<Option<Receiver<()>>>>, Sender<()>, bool);
    impl Worker for HeldFirst {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            let gate = self.0.lock().unwrap().take();
            if let Some(gate) = gate {
                self.2 = true;
                let _ = gate.recv();
            }
            Some((true, job.payload.execute()))
        }
    }
    impl Drop for HeldFirst {
        fn drop(&mut self) {
            if self.2 {
                let _ = self.1.send(());
            }
        }
    }

    let ((go, gate), (ended_tx, ended)) = (channel(), channel());
    let gate = Arc::new(Mutex::new(Some(gate)));
    let (k, total) = (3, 2);
    let cfg = RuntimeConfig {
        workers: Some(1),
        deadline: Duration::from_millis(50),
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(k).unwrap()), move |_| {
        Box::new(HeldFirst(gate.clone(), ended_tx.clone(), false))
    });
    let client = runtime.client();
    for _ in 0..total {
        let work = Duration::ZERO;
        let outcome = client.submit(Payload::Synthetic { answer: true, work });
        assert_ne!(outcome, SubmitOutcome::Shed);
    }
    for _ in 0..total {
        let verdict = client.recv_timeout(Duration::from_secs(5));
        let verdict = verdict.expect("the held worker is respawned, and every task decided");
        assert_eq!(verdict.vote, Some(true));
    }
    // The held thread's late reply is in the coordinator's inbox before
    // the thread ends, and so before the drain.
    drop(go);
    let end = ended.recv_timeout(Duration::from_secs(5));
    end.expect("the held thread ends once let go");
    drop(client);
    let run = runtime.finish();
    let r = &run.report;
    assert_eq!((r.tasks_completed, r.worker_crashes), (total, 0));
    assert!(r.worker_restarts >= 1 && r.stale_replies >= 1, "{r:?}");
    assert_eq!(r.timeouts, r.retries);
    let count = |wanted: &dyn Fn(RunEvent) -> bool| {
        let events = run.journal.events().iter();
        events.filter(|e| wanted(e.event)).count()
    };
    let advanced = |e| e == RunEvent::EpochAdvanced { task: 0, epoch: 1 };
    assert_eq!(count(&advanced), 1, "re-issued under a fresh epoch");
    for task in 0..total as u32 {
        let tallied = |e| matches!(e, RunEvent::VoteTallied { task: t, .. } if t == task);
        assert_eq!(count(&tallied), k, "task {task}: a late duplicate counted");
    }
    jassert::events(run.journal.events())
        .time_ordered()
        .retry_follows_timeout()
        .waves_well_formed();
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// Regression for hedge double-firing on the reissue paths: a replica
/// that straggles past its deadline is reissued under a bumped epoch, and
/// the hedge check armed at its dispatch fires *after* the timeout — the
/// stale arm must be skipped (origin gone / epoch advanced), never
/// launching a twin for a resolved job or exceeding the per-epoch budget.
/// Runs alongside the `StaleReplyDropped` late-reply regression above:
/// both guard the same staleness discipline, one for votes, one for
/// hedges.
#[test]
fn deadline_reissue_never_double_fires_hedges() {
    use smartred_core::hedge::HedgePolicy;
    use smartred_desim::journal::RunEvent;
    use smartred_runtime::{JobAssignment, Worker};

    /// Replica 0 of every task straggles far past the deadline (on every
    /// worker — the twin straggles too, so the pair lapses and the
    /// timeout path reissues); later replicas answer promptly, warming
    /// the estimator fast.
    struct SlowFirstReplica;
    impl Worker for SlowFirstReplica {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            if job.replica == 0 {
                std::thread::sleep(Duration::from_millis(160));
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
            Some((true, job.payload.execute()))
        }
    }

    let policy = HedgePolicy {
        quantile: 0.5,
        min_samples: 5,
        multiplier: 2.0,
        max_per_task: 1,
    };
    let cfg = RuntimeConfig {
        workers: Some(4),
        deadline: Duration::from_millis(60),
        hedge: Some(policy),
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(3).unwrap()), |_| {
        Box::new(SlowFirstReplica)
    });
    let client = runtime.client();
    let total = 12;
    for _ in 0..total {
        loop {
            let outcome = client.submit(Payload::Synthetic {
                answer: true,
                work: Duration::ZERO,
            });
            if outcome != SubmitOutcome::Shed {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for _ in 0..total {
        let verdict = client.recv().expect("every task still reaches a verdict");
        assert_eq!(verdict.vote, Some(true));
    }
    drop(client);
    let run = runtime.finish();
    assert_eq!(run.report.tasks_completed, total);
    assert!(
        run.report.timeouts > 0,
        "the straggling first replicas must lapse and reissue"
    );
    assert_eq!(
        run.report.hedges_launched,
        run.report.hedges_won + run.report.hedges_wasted,
        "every launched twin settles exactly once"
    );
    // The double-fire guards, observed end-to-end in the journal: no twin
    // for a resolved origin, and at most `max_per_task` launches per task
    // epoch, across both the deadline-reissue and stale-arm paths.
    let mut resolved = std::collections::HashSet::new();
    let mut per_epoch: std::collections::HashMap<(u32, u32), u32> =
        std::collections::HashMap::new();
    for e in run.journal.events() {
        match e.event {
            RunEvent::HedgeLaunched {
                task,
                origin,
                epoch,
                ..
            } => {
                assert!(
                    !resolved.contains(&origin),
                    "twin launched for already-resolved origin {origin}"
                );
                let slot = per_epoch.entry((task, epoch)).or_insert(0);
                *slot += 1;
                assert!(
                    *slot <= policy.max_per_task,
                    "task {task} epoch {epoch} exceeded the hedge budget"
                );
            }
            RunEvent::JobReturned { job, .. }
            | RunEvent::JobTimedOut { job, .. }
            | RunEvent::WorkerCrashed { job, .. } => {
                resolved.insert(job);
            }
            _ => {}
        }
    }
    jassert::events(run.journal.events())
        .time_ordered()
        .retry_follows_timeout()
        .waves_well_formed();
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// The journal round-trips through JSONL so CI can archive live runs and
/// the digest tooling applies unchanged.
#[test]
fn runtime_journal_round_trips_jsonl() {
    let (run, _) = run_sat(
        Iterative::new(VoteMargin::new(2).unwrap()),
        2,
        3,
        THIRTY_PCT_FAULTY,
        20,
        Duration::from_secs(2),
    );
    let text = run.journal.to_jsonl();
    let restored = smartred_desim::journal::Journal::from_jsonl(&text).unwrap();
    assert_eq!(restored.events(), run.journal.events());
    assert_eq!(restored.digest(), run.journal.digest());
    assert_eq!(report_from_journal(&restored), run.report);
}
