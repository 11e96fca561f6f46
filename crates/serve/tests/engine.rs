//! Engine-level robustness tests: the degradation ladder, panic
//! containment, worker supervision, and journal resume.

use std::path::PathBuf;

use equitls_obs::sink::Obs;
use equitls_serve::engine::{Admission, ServeConfig, ServeEngine};
use equitls_serve::proto::{JobKind, JobRequest};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("equitls_engine_{}_{name}.snap", std::process::id()))
}

fn check(id: &str) -> JobRequest {
    JobRequest::new(id, JobKind::Check)
}

fn lint(id: &str) -> JobRequest {
    let mut req = JobRequest::new(id, JobKind::Lint);
    req.target = "standard".to_string();
    req
}

fn accepted(admission: Admission) -> u64 {
    match admission {
        Admission::Accepted { seq } => seq,
        other => panic!("expected acceptance, got {other:?}"),
    }
}

/// Manual mode (`workers: 0`) leaves admitted jobs queued, which lets
/// the test walk the load ladder level by level.
#[test]
fn backpressure_ladder_is_observable_and_bounded() {
    let config = ServeConfig {
        workers: 0,
        queue_cap: 8,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(config, Obs::noop()).expect("engine starts");

    // Below 50% load everything is admitted as requested.
    for i in 0..3 {
        accepted(engine.submit(check(&format!("c{i}"))));
    }
    accepted(engine.submit(lint("l-low")));

    // At ≥ 50% load (4/8 queued) lint is shed with a typed response.
    let Admission::Shed { line } = engine.submit(lint("l-shed")) else {
        panic!("lint at half load must be shed");
    };
    assert!(line.contains("\"shed\""), "typed shed response: {line}");
    assert!(line.contains("shed-lint"), "degradation disclosed: {line}");

    // Fill to ≥ 75%: check scopes are shrunk, disclosed, and the
    // *effective* (journaled) request carries the shrunk limits — a
    // crash-replay re-runs the degraded job, not the original.
    for i in 3..6 {
        accepted(engine.submit(check(&format!("c{i}"))));
    }
    let seq = accepted(engine.submit(check("c-shrunk")));
    let entry = engine.journal_entry(seq).expect("journaled");
    assert_eq!(entry.degradation, vec!["scope-shrunk"]);
    assert_eq!(entry.request.max_states, Some(20_000));
    assert_eq!(entry.request.max_depth, Some(2));

    // c-shrunk was the 8th admission: the queue is now at the cap, so
    // the next submit gets a typed busy with a retry hint — the queue
    // never grows past the cap.
    let Admission::Busy { line } = engine.submit(check("c-over")) else {
        panic!("a full queue must answer busy");
    };
    assert!(line.contains("\"busy\""), "typed busy response: {line}");
    assert!(line.contains("\"retry_after_ms\":200"), "hint: {line}");
    assert!(
        line.contains("\"queue_depth\":8"),
        "depth disclosed: {line}"
    );

    // Invalid requests are rejected without being journaled.
    let mut bad = JobRequest::new("p-bad", JobKind::Prove);
    bad.property = "no-such-invariant".to_string();
    let Admission::Rejected { line } = engine.submit(bad) else {
        panic!("unknown property must be rejected");
    };
    assert!(line.contains("unknown-property"), "typed error: {line}");
    assert!(
        engine.journal_entry(8).is_none(),
        "rejects are not journaled"
    );
}

/// A poisoned job becomes a typed `worker-fault` response; the engine
/// keeps serving.
#[test]
fn panic_job_is_contained_as_a_typed_error() {
    let config = ServeConfig {
        workers: 0,
        allow_test_jobs: true,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(config, Obs::noop()).expect("engine starts");
    let bomb = accepted(engine.submit(JobRequest::new("boom", JobKind::Panic)));
    let after = accepted(engine.submit(lint("after")));
    assert!(engine.run_next_job());
    assert!(engine.run_next_job());
    assert!(!engine.run_next_job(), "queue drained");

    let fault = engine.stable_response(bomb).expect("fault job completed");
    assert!(fault.contains("worker-fault"), "typed fault: {fault}");
    assert!(
        fault.contains("injected test panic (job boom)"),
        "panic message surfaced: {fault}"
    );
    let ok = engine.stable_response(after).expect("next job completed");
    assert!(
        ok.contains("\"status\":\"ok\""),
        "engine kept serving: {ok}"
    );
}

/// A `kill_worker` job takes its worker thread down *after* completing;
/// the supervisor respawns the worker and the queue keeps moving.
#[test]
fn supervisor_restarts_a_dead_worker() {
    let config = ServeConfig {
        workers: 1,
        allow_test_jobs: true,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(config, Obs::noop()).expect("engine starts");
    let mut kill = JobRequest::new("kill", JobKind::Panic);
    kill.kill_worker = true;
    let kill_seq = accepted(engine.submit(kill));
    let after_seq = accepted(engine.submit(lint("survivor")));

    // `wait_response` returning at all proves the respawned worker ran
    // the follow-up job: the only original worker died on `kill`.
    let fault = engine.wait_response(kill_seq);
    assert!(fault.contains("worker-fault"), "typed fault: {fault}");
    let ok = engine.wait_response(after_seq);
    assert!(
        ok.contains("\"status\":\"ok\""),
        "served after restart: {ok}"
    );
    assert!(
        engine.worker_restarts() >= 1,
        "supervisor counted the restart"
    );
    engine.shutdown();
}

/// Kill-and-restart: completing part of a journaled queue, dropping the
/// engine (the `kill -9` stand-in), and resuming re-enqueues exactly the
/// unfinished suffix and produces the same results file byte-for-byte.
#[test]
fn resumed_journal_replays_the_unfinished_suffix() {
    let journal = tmp("resume");
    let straight = tmp("resume_straight");
    let resumed = tmp("resume_resumed");
    std::fs::remove_file(&journal).ok();

    let submit_all = |engine: &ServeEngine| {
        accepted(engine.submit(lint("j0")));
        accepted(engine.submit(check("j1")));
        accepted(engine.submit(lint("j2")));
    };

    // Interrupted run: complete 1 of 3, then "crash" (drop mid-queue).
    {
        let config = ServeConfig {
            workers: 0,
            journal_path: Some(journal.clone()),
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(config, Obs::noop()).expect("engine starts");
        submit_all(&engine);
        assert!(engine.run_next_job());
    }

    // Restart with --resume: the journal re-enqueues j1 and j2 only.
    {
        let config = ServeConfig {
            workers: 0,
            journal_path: Some(journal.clone()),
            resume: true,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(config, Obs::noop()).expect("journal resumes");
        assert!(
            engine.journal_entry(0).unwrap().response.is_some(),
            "completed work survives the crash"
        );
        while engine.run_next_job() {}
        engine.write_results(&resumed).expect("results written");
    }

    // Straight-through run of the same jobs, no crash, no journal.
    {
        let config = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(config, Obs::noop()).expect("engine starts");
        submit_all(&engine);
        while engine.run_next_job() {}
        engine.write_results(&straight).expect("results written");
    }

    let a = std::fs::read(&resumed).expect("resumed results");
    let b = std::fs::read(&straight).expect("straight results");
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "resumed results are byte-identical to straight-through"
    );
    for p in [&journal, &straight, &resumed] {
        std::fs::remove_file(p).ok();
    }
}

/// A `check` job spills under `<spill-dir>/job<seq>`; it has no
/// checkpoint, so nothing reads those shard files again and the job
/// removes the directory once its search returns.
#[test]
fn a_spilling_check_job_removes_its_spill_directory() {
    let spill_dir =
        std::env::temp_dir().join(format!("equitls_engine_{}_spill", std::process::id()));
    std::fs::remove_dir_all(&spill_dir).ok();
    let config = ServeConfig {
        workers: 0,
        spill_dir: Some(spill_dir.clone()),
        max_resident_shards: 1,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(config, Obs::noop()).expect("engine starts");
    let mut request = check("spilling");
    request.max_depth = Some(2);
    let seq = accepted(engine.submit(request));
    assert!(engine.run_next_job());
    let response = engine.stable_response(seq).expect("check job completed");
    assert!(
        response.contains("\"degradation\":[\"visited-spilled\"]"),
        "the search spilled: {response}"
    );
    assert!(
        !spill_dir.join(format!("job{seq}")).exists(),
        "the job's spill directory is gone"
    );
    std::fs::remove_dir_all(&spill_dir).ok();
}
