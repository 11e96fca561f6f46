//! Checkpoint/resume end-to-end: the headline guarantee of the
//! crash-safe persistence layer on the real TLS models.
//!
//! A run interrupted mid-flight (by a deterministic injected fault) and
//! resumed from its snapshot produces the *same result* as a
//! straight-through run —
//!
//! 1. for the explorer: identical state counts, per-level tallies, dedup
//!    hits, verdicts, and witness traces of the §5 scope check;
//! 2. for the prover: an identical `inv1` proof report (outcomes,
//!    metrics, rewrite statistics per obligation), with the obligations
//!    the interrupted run already proved spliced in from the ledger
//!    rather than re-run, at every `jobs` value.
//!
//! The model checker runs on one thread and ignores its `jobs` argument,
//! so the explorer leg runs once; its test name keeps the `jobs` suffix.

use equitls::core::prelude::ProverConfig;
use equitls::mc::prelude::*;
use equitls::obs::sink::{Obs, RecordingSink};
use equitls::obs::summary::MetricsSummary;
use equitls::tls::concrete::{Scope, State};
use equitls::tls::verify;
use equitls::tls::TlsModel;
use std::path::PathBuf;
use std::sync::Arc;

const JOBS: [usize; 3] = [1, 2, 4];

fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("join")
}

/// A fresh snapshot path under the system temp dir (removed by the test).
fn tmp_snapshot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("equitls_ckpt_{}_{name}.snap", std::process::id()))
}

/// The §5 counterexample scope bounded to two messages (as in the
/// robustness suite): wide frontiers, sub-second runtime.
fn small_scope() -> (Scope, Limits) {
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let limits = Limits {
        max_states: 100_000,
        max_depth: 3,
    };
    (scope, limits)
}

fn assert_same_exploration(resumed: &Exploration<State>, straight: &Exploration<State>, ctx: &str) {
    assert_eq!(resumed.states, straight.states, "states {ctx}");
    assert_eq!(resumed.depth_reached, straight.depth_reached, "depth {ctx}");
    assert_eq!(resumed.complete, straight.complete, "complete {ctx}");
    assert_eq!(
        resumed.stop_reason, straight.stop_reason,
        "stop reason {ctx}"
    );
    assert_eq!(
        resumed.states_per_depth, straight.states_per_depth,
        "per-level tally {ctx}"
    );
    assert_eq!(resumed.dedup_hits, straight.dedup_hits, "dedup {ctx}");
    assert_eq!(
        resumed.violations.len(),
        straight.violations.len(),
        "violation count {ctx}"
    );
    for (r, s) in resumed.violations.iter().zip(&straight.violations) {
        assert_eq!(r.property, s.property, "violated property {ctx}");
        assert_eq!(r.depth, s.depth, "violation depth {ctx}");
        assert_eq!(r.trace, s.trace, "witness trace {ctx}");
    }
}

#[test]
fn interrupted_then_resumed_scope_check_is_identical_at_jobs_1_2_4() {
    let (scope, limits) = small_scope();
    let straight =
        check_scope_config_obs(&scope, &limits, 1, &ExploreConfig::default(), &Obs::noop());
    assert!(straight.complete, "scope finishes uninterrupted");

    // Interrupt: the injected "deadline" fires when frontier entry 40 is
    // merged — deep enough that level 2 is mid-expansion, so the snapshot
    // on disk is the level-1 barrier, not the final state. That barrier
    // already holds the 2' and 3' violations, whose traces the resume
    // rebuilds.
    let path = tmp_snapshot("scope");
    let _ = std::fs::remove_file(&path);
    let interrupt = ExploreConfig {
        budget: Budget::unlimited(),
        fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
            FaultSite::Successor,
            FaultKind::DeadlineExpiry,
            40,
        ))),
        checkpoint_path: Some(path.clone()),
        checkpoint_every_secs: 0,
        ..ExploreConfig::default()
    };
    let interrupted = check_scope_config_obs(&scope, &limits, 1, &interrupt, &Obs::noop());
    assert!(!interrupted.complete, "fault interrupts the search");
    assert_eq!(interrupted.stop_reason, Some(StopReason::DeadlineExceeded));
    assert!(
        !interrupted.violations.is_empty(),
        "violations before the cut"
    );
    assert!(path.exists(), "barrier snapshot was written");

    // Resume without the fault: picks up at the checkpointed barrier and
    // must land exactly where the straight-through run did — with
    // profiling enabled, which must not perturb anything.
    let resume = ExploreConfig {
        checkpoint_path: Some(path.clone()),
        ..ExploreConfig::default()
    };
    let recorder = Arc::new(RecordingSink::new());
    let obs = Obs::new(recorder.clone());
    let resumed = check_scope_resume_obs(&scope, &limits, &resume, &obs).expect("snapshot resumes");
    assert_same_exploration(&resumed, &straight, "resumed");
    assert!(
        recorder
            .events()
            .iter()
            .any(|e| e.name().starts_with("mc.succ_us:")),
        "profiled resume records per-level timing"
    );
    let _ = std::fs::remove_file(&path);
}

/// Checkpoints committed under `tests/golden/`, written by the explorer
/// as it stood before labels were rendered at write time and shard
/// digests folded at file writes: the bound-2 scope check at its depth-1
/// barrier (55 states, the 54 depth-1 states on the frontier, 2′ and 3′
/// already violated), once inline and once as a manifest with its shard
/// files. Both must resume to the straight run's result, so neither
/// snapshot format can drift.
#[test]
fn committed_bound2_checkpoints_resume_to_the_straight_run() {
    let (scope, limits) = small_scope();
    let straight =
        check_scope_config_obs(&scope, &limits, 1, &ExploreConfig::default(), &Obs::noop());
    assert_eq!(straight.states, 2443);
    assert_eq!(straight.states_per_depth, [1, 54, 2388, 0]);
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for name in ["resident", "spilled"] {
        // A resume writes checkpoints and shard files: it runs on copies.
        let work =
            std::env::temp_dir().join(format!("equitls_golden_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).unwrap();
        let snapshot = work.join("bound2.snap");
        std::fs::copy(
            golden.join(format!("mc_bound2_depth1_{name}.snap")),
            &snapshot,
        )
        .unwrap();
        let spill_dir = (name == "spilled").then(|| work.join("shards"));
        if let Some(dir) = &spill_dir {
            std::fs::create_dir_all(dir).unwrap();
            for file in std::fs::read_dir(golden.join("mc_bound2_depth1_shards")).unwrap() {
                let file = file.unwrap();
                std::fs::copy(file.path(), dir.join(file.file_name())).unwrap();
            }
        }
        let config = ExploreConfig {
            checkpoint_path: Some(snapshot),
            spill_dir,
            ..ExploreConfig::default()
        };
        let resumed = check_scope_resume_obs(&scope, &limits, &config, &Obs::noop())
            .unwrap_or_else(|e| panic!("the {name} golden checkpoint resumes: {e}"));
        assert_same_exploration(&resumed, &straight, name);
        let trace: Vec<&str> = resumed
            .violation("prop2p-cf-authentic")
            .expect("2′ is violated")
            .trace
            .iter()
            .map(|(label, _)| label.as_str())
            .collect();
        assert_eq!(trace, ["fakeCfin2(p2,p3)"], "{name}");
        let _ = std::fs::remove_dir_all(&work);
    }
}

fn assert_same_report(
    resumed: &equitls::core::prelude::ProofReport,
    straight: &equitls::core::prelude::ProofReport,
    ctx: &str,
) {
    assert_eq!(resumed.invariant, straight.invariant, "invariant {ctx}");
    assert_eq!(resumed.is_proved(), straight.is_proved(), "verdict {ctx}");
    let pairs = [(&resumed.base, &straight.base)];
    let steps = resumed.steps.iter().zip(&straight.steps);
    for (r, s) in pairs.into_iter().chain(steps) {
        assert_eq!(r.action, s.action, "obligation order {ctx}");
        assert_eq!(r.outcome, s.outcome, "outcome of {} {ctx}", r.action);
        assert_eq!(r.metrics, s.metrics, "metrics of {} {ctx}", r.action);
        assert_eq!(
            r.rewrite_stats, s.rewrite_stats,
            "rewrite stats of {} {ctx}",
            r.action
        );
    }
    assert_eq!(
        resumed.steps.len(),
        straight.steps.len(),
        "step count {ctx}"
    );
}

#[test]
fn interrupted_then_resumed_inv1_proof_is_identical_at_jobs_1_2_4() {
    on_big_stack(|| {
        let straight = {
            let mut model = TlsModel::standard().expect("model builds");
            verify::verify_property_opts(&mut model, "inv1", &ProverConfig::default(), &Obs::noop())
                .expect("straight-through proof runs")
        };
        assert!(straight.is_proved(), "inv1 proves uninterrupted");

        for jobs in JOBS {
            let path = tmp_snapshot(&format!("inv1_j{jobs}"));
            let _ = std::fs::remove_file(&path);

            // Interrupt: the campaign is cancelled the moment the `kexch`
            // obligation starts. Everything that finished before the
            // cancellation is in the ledger as Proved; everything after is
            // recorded open with a `(budget: …)` residual.
            let interrupt = ProverConfig {
                jobs,
                fault_plan: Some(FaultPlan::new().with_fault(
                    Fault::new(FaultSite::Obligation, FaultKind::Cancel, 0).in_scope("kexch"),
                )),
                checkpoint_path: Some(path.clone()),
                ..ProverConfig::default()
            };
            let mut model = TlsModel::standard().expect("model builds");
            let interrupted =
                verify::verify_property_opts(&mut model, "inv1", &interrupt, &Obs::noop())
                    .expect("interrupted run still returns a report");
            assert!(
                !interrupted.is_proved(),
                "cancellation leaves obligations open at jobs={jobs}"
            );
            assert!(path.exists(), "obligation ledger was written");

            // Resume: proved obligations come from the ledger, the rest
            // re-run; the report must match the straight-through one even
            // with rule profiling enabled (profiling is pure observation).
            let recorder = Arc::new(RecordingSink::new());
            let obs = Obs::new(recorder.clone());
            let resume = ProverConfig {
                jobs,
                checkpoint_path: Some(path.clone()),
                resume: true,
                profile_rules: true,
                ..ProverConfig::default()
            };
            let mut model = TlsModel::standard().expect("model builds");
            let resumed = verify::verify_property_opts(&mut model, "inv1", &resume, &obs)
                .expect("resume runs");
            assert_same_report(&resumed, &straight, &format!("at jobs={jobs}"));

            let summary = MetricsSummary::from_events(&recorder.events());
            assert!(
                summary.counter_total("persist.resume_skipped_obligations") >= 1,
                "at least one proved obligation was spliced from the ledger at jobs={jobs}"
            );
            let _ = std::fs::remove_file(&path);
        }
    });
}
