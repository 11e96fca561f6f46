//! Service-tier determinism: the PR 5/8 contracts lifted through
//! `equitls-serve`.
//!
//! Two guarantees are pinned on the real TLS jobs (prove / check /
//! lint):
//!
//! 1. **Concurrency-invariance** — the stable responses for a fixed
//!    admitted sequence are byte-identical whether the jobs run serially
//!    or interleaved on a worker pool, and whatever per-request `jobs`
//!    value (1/2/4) each job fans out to. Parallelism changes wall-clock
//!    time only, never a payload byte.
//! 2. **Kill-and-restart replay** — completing part of a journaled
//!    queue, killing the engine, and resuming produces a results file
//!    byte-identical to a straight-through run, at every `jobs` value.
//!
//! Both lean on the stable/volatile response split: stable payloads
//! carry only replay-invariant facts (verdicts, counts, traces,
//! findings), while durations and warm-cache rewrite tallies travel in
//! the wire-only volatile section.

use std::path::PathBuf;

use equitls::obs::sink::Obs;
use equitls::serve::engine::{Admission, ServeConfig, ServeEngine};
use equitls::serve::proto::{JobKind, JobRequest};

const JOBS: [usize; 3] = [1, 2, 4];

fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("join")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("equitls_serve_{}_{name}.snap", std::process::id()))
}

/// The canonical job mix: one of each kind, covering the prover, the
/// model checker, and the lint analyses.
fn job_mix(jobs: usize) -> Vec<JobRequest> {
    let mut prove = JobRequest::new("m-prove", JobKind::Prove);
    prove.property = "lem-src-honest".to_string();
    prove.jobs = jobs;
    let mut check = JobRequest::new("m-check", JobKind::Check);
    check.max_messages = Some(2);
    check.max_depth = Some(3);
    check.jobs = jobs;
    let mut lint = JobRequest::new("m-lint", JobKind::Lint);
    lint.target = "standard".to_string();
    lint.jobs = jobs;
    vec![prove, check, lint]
}

fn submit_all(engine: &ServeEngine, requests: Vec<JobRequest>) -> Vec<u64> {
    requests
        .into_iter()
        .map(|request| match engine.submit(request) {
            Admission::Accepted { seq } => seq,
            other => panic!("mix job must be admitted, got {other:?}"),
        })
        .collect()
}

/// Run the mix serially (manual mode) and return the stable lines in
/// admission order.
fn serial_run(jobs: usize) -> Vec<String> {
    let engine = ServeEngine::start(
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
        Obs::noop(),
    )
    .expect("engine starts");
    let seqs = submit_all(&engine, job_mix(jobs));
    while engine.run_next_job() {}
    seqs.iter()
        .map(|&seq| engine.stable_response(seq).expect("job completed"))
        .collect()
}

/// Run the mix on a live worker pool and return the stable lines.
fn concurrent_run(jobs: usize, workers: usize) -> Vec<String> {
    let engine = ServeEngine::start(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        Obs::noop(),
    )
    .expect("engine starts");
    let seqs = submit_all(&engine, job_mix(jobs));
    let lines = seqs
        .iter()
        .map(|&seq| {
            engine.wait_response(seq);
            engine.stable_response(seq).expect("job completed")
        })
        .collect();
    engine.shutdown();
    lines
}

#[test]
fn interleaved_jobs_match_serial_at_every_jobs_value() {
    on_big_stack(|| {
        let reference = serial_run(1);
        assert_eq!(reference.len(), 3);
        assert!(
            reference[0].contains("\"proved\":true"),
            "the prove job goes through: {}",
            reference[0]
        );
        // Per-request fan-out is invisible in the stable payload.
        for jobs in JOBS {
            assert_eq!(
                serial_run(jobs),
                reference,
                "serial stable lines at jobs {jobs} match the jobs-1 reference"
            );
        }
        // Worker-pool interleaving is invisible too: 2 and 4 workers
        // execute the 3-job queue concurrently in whatever order the
        // scheduler picks, and the admission-ordered lines still match.
        for workers in [2, 4] {
            assert_eq!(
                concurrent_run(2, workers),
                serial_run(2),
                "stable lines with {workers} concurrent workers match serial"
            );
        }
    });
}

#[test]
fn killed_and_resumed_queue_replays_bit_identically() {
    on_big_stack(|| {
        for jobs in JOBS {
            let journal = tmp(&format!("kill_j{jobs}"));
            let resumed_out = tmp(&format!("kill_j{jobs}_resumed"));
            let straight_out = tmp(&format!("kill_j{jobs}_straight"));
            std::fs::remove_file(&journal).ok();

            // Interrupted run: journal everything, complete 1 of 3, then
            // "kill -9" (drop the engine mid-queue; the journal snapshot
            // on disk is all that survives).
            {
                let engine = ServeEngine::start(
                    ServeConfig {
                        workers: 0,
                        journal_path: Some(journal.clone()),
                        ..ServeConfig::default()
                    },
                    Obs::noop(),
                )
                .expect("engine starts");
                submit_all(&engine, job_mix(jobs));
                assert!(engine.run_next_job());
            }

            // Restarted run: resume the journal, replay the unfinished
            // suffix, write the results file.
            {
                let engine = ServeEngine::start(
                    ServeConfig {
                        workers: 0,
                        journal_path: Some(journal.clone()),
                        resume: true,
                        ..ServeConfig::default()
                    },
                    Obs::noop(),
                )
                .expect("journal resumes");
                assert!(
                    engine.journal_entry(0).unwrap().response.is_some(),
                    "work finished before the kill survives it"
                );
                while engine.run_next_job() {}
                engine.write_results(&resumed_out).expect("results written");
            }

            // Straight-through run of the same admitted sequence.
            {
                let engine = ServeEngine::start(
                    ServeConfig {
                        workers: 0,
                        ..ServeConfig::default()
                    },
                    Obs::noop(),
                )
                .expect("engine starts");
                submit_all(&engine, job_mix(jobs));
                while engine.run_next_job() {}
                engine
                    .write_results(&straight_out)
                    .expect("results written");
            }

            let resumed = std::fs::read(&resumed_out).expect("resumed results");
            let straight = std::fs::read(&straight_out).expect("straight results");
            assert!(!resumed.is_empty());
            assert_eq!(
                resumed, straight,
                "jobs {jobs}: killed-and-resumed results are byte-identical"
            );
            for p in [&journal, &resumed_out, &straight_out] {
                std::fs::remove_file(p).ok();
            }
        }
    });
}

/// The number after `"key":` in a stable JSON line.
fn json_count(line: &str, key: &str) -> usize {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle).expect("key present") + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a count")
}

/// A daemon lint job lints a TLS model exactly as `tls-lint` does (the
/// triaged codes and the dependency roots of `TlsModel::lint_setup`), so
/// its deny and warn counts equal the ones `tls-lint` prints, as pinned
/// in `scripts/counts/tls-lint.txt`.
#[test]
fn serve_lint_jobs_match_tls_lint() {
    on_big_stack(|| {
        let pinned = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/counts/tls-lint.txt"),
        )
        .expect("pinned tls-lint output");
        let engine = ServeEngine::start(
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            Obs::noop(),
        )
        .expect("engine starts");
        for target in ["standard", "variant"] {
            let mut lint = JobRequest::new(format!("lint-{target}"), JobKind::Lint);
            lint.target = target.to_string();
            let seq = submit_all(&engine, vec![lint])[0];
            while engine.run_next_job() {}
            let line = engine.stable_response(seq).expect("job completed");
            let header = format!("lint TLS ({target}): ");
            let counts = pinned
                .lines()
                .find_map(|l| l.strip_prefix(header.as_str()))
                .expect("tls-lint reports the target");
            let expected = format!(
                "{} deny, {} warn,",
                json_count(&line, "deny"),
                json_count(&line, "warn")
            );
            assert!(
                counts.starts_with(&expected),
                "{target}: serve reports `{expected}`, tls-lint `{counts}`"
            );
        }
    });
}
