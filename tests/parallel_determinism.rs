//! Integration test: parallel execution is observationally deterministic.
//!
//! The parallel explorer (level-synchronous BFS with merge-at-barrier)
//! and the parallel prover (independent obligations on cloned specs) are
//! designed so that the *results* are a pure function of the input — the
//! thread count only changes wall-clock time. This test pins that
//! contract end-to-end on the TLS models: identical verdicts, state
//! counts, violation traces, and proved/vacuous/open tallies at
//! jobs = 1, 2, 4.
//!
//! The rewrite engine's index is held to the same contract:
//! discrimination-tree indexing must be bit-identical to a linear rule
//! scan (it is a lookup structure, not a strategy).

use equitls::core::prelude::{ProofReport, ProverConfig};
use equitls::lint::{analyze_spec, AnalysisOptions, LintConfig};
use equitls::mc::prelude::*;
use equitls::obs::sink::{Obs, RecordingSink};
use equitls::tls::concrete::{Scope, State};
use equitls::tls::{verify, TlsModel};
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

/// The §5 scope check on `jobs` workers under the default config.
fn check_at(scope: &Scope, limits: &Limits, jobs: usize) -> Exploration<State> {
    check_scope_config_obs(scope, limits, jobs, &ExploreConfig::default(), &Obs::noop())
}

/// `inv1` on a fresh standard model with `jobs` workers per property.
fn prove_inv1(jobs: usize) -> ProofReport {
    let opts = ProverConfig {
        jobs,
        ..ProverConfig::default()
    };
    let mut model = TlsModel::standard().unwrap();
    verify::verify_property_opts(&mut model, "inv1", &opts, &Obs::noop()).unwrap()
}

#[test]
fn tls_scope_exploration_is_identical_at_every_thread_count() {
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let limits = Limits {
        max_states: 100_000,
        max_depth: 3,
    };

    let runs: Vec<Exploration<_>> = JOBS
        .iter()
        .map(|&jobs| check_at(&scope, &limits, jobs))
        .collect();
    let baseline = &runs[0];

    // The counterexample scope must actually exercise both outcomes:
    // held properties and a found violation with a trace.
    assert!(baseline.complete, "scope should be exhausted");
    assert!(
        baseline.violation("prop2p-cf-authentic").is_some(),
        "the 2' violation should be found in this scope"
    );
    assert!(baseline.violation("prop1-pms-secrecy").is_none());

    for (jobs, run) in JOBS.iter().zip(&runs).skip(1) {
        assert_eq!(run.states, baseline.states, "state count at jobs={jobs}");
        assert_eq!(run.depth_reached, baseline.depth_reached);
        assert_eq!(run.states_per_depth, baseline.states_per_depth);
        assert_eq!(run.dedup_hits, baseline.dedup_hits);
        assert_eq!(run.complete, baseline.complete);
        assert_eq!(
            run.violations.len(),
            baseline.violations.len(),
            "violation set at jobs={jobs}"
        );
        for (v, bv) in run.violations.iter().zip(&baseline.violations) {
            assert_eq!(v.property, bv.property, "verdict order at jobs={jobs}");
            assert_eq!(v.depth, bv.depth);
            assert_eq!(v.trace, bv.trace, "minimal trace at jobs={jobs}");
        }
    }
}

/// Profiling is pure observation: with a recording sink attached (span
/// timings, per-rule profiles, per-level explorer counters all flowing),
/// every verdict, count, and trace still matches the unprofiled baseline
/// at every thread count.
#[test]
fn profiling_does_not_change_results_at_any_thread_count() {
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let limits = Limits {
        max_states: 100_000,
        max_depth: 3,
    };
    let baseline = check_at(&scope, &limits, 1);

    for jobs in JOBS {
        let recorder = Arc::new(RecordingSink::new());
        let obs = Obs::new(recorder.clone());
        let run = check_scope_config_obs(&scope, &limits, jobs, &ExploreConfig::default(), &obs);
        assert_eq!(run.states, baseline.states, "state count at jobs={jobs}");
        assert_eq!(run.states_per_depth, baseline.states_per_depth);
        assert_eq!(run.dedup_hits, baseline.dedup_hits);
        assert_eq!(run.complete, baseline.complete);
        assert_eq!(run.violations.len(), baseline.violations.len());
        for (v, bv) in run.violations.iter().zip(&baseline.violations) {
            assert_eq!(v.property, bv.property, "verdict order at jobs={jobs}");
            assert_eq!(v.trace, bv.trace, "trace at jobs={jobs}");
        }
        // The profile actually recorded something: per-level timing
        // counters for every explored level.
        let events = recorder.events();
        assert!(
            events.iter().any(|e| e.name().starts_with("mc.succ_us:")),
            "per-level successor timing recorded at jobs={jobs}"
        );
    }

    on_big_stack(|| {
        let baseline = prove_inv1(1);
        for jobs in JOBS {
            let recorder = Arc::new(RecordingSink::new());
            let obs = Obs::new(recorder.clone());
            let opts = ProverConfig {
                jobs,
                profile_rules: true,
                ..ProverConfig::default()
            };
            let mut model = TlsModel::standard().unwrap();
            let report = verify::verify_property_opts(&mut model, "inv1", &opts, &obs).unwrap();
            assert_eq!(report.is_proved(), baseline.is_proved());
            assert_eq!(report.steps.len(), baseline.steps.len());
            for (step, bstep) in report.steps.iter().zip(&baseline.steps) {
                assert_eq!(step.action, bstep.action, "step order at jobs={jobs}");
                assert_eq!(step.outcome, bstep.outcome, "verdict at jobs={jobs}");
                assert_eq!(step.metrics, bstep.metrics, "tallies at jobs={jobs}");
            }
            let events = recorder.events();
            assert!(
                events.iter().any(|e| e.name().starts_with("rule.time_us:")),
                "rule profile recorded at jobs={jobs}"
            );
            assert!(
                events
                    .iter()
                    .any(|e| e.name().starts_with("prover.obligation:")),
                "obligation spans recorded at jobs={jobs}"
            );
        }
    });
}

/// The static analyzer under `--jobs`: critical-pair joinability fans out
/// across workers, but each pair is judged with fresh normalizers, so the
/// rendered report — every diagnostic, order, note, and count — must be
/// identical at every thread count.
#[test]
fn lint_report_is_identical_at_every_thread_count() {
    on_big_stack(|| {
        let model = TlsModel::standard().unwrap();
        let config = LintConfig::new();
        let reports: Vec<String> = JOBS
            .iter()
            .map(|&jobs| {
                let options = AnalysisOptions {
                    jobs,
                    roots: Vec::new(),
                };
                let report = analyze_spec(&model.spec, "TLS (standard)", &config, &options);
                format!("{report}")
            })
            .collect();
        for (jobs, report) in JOBS.iter().zip(&reports).skip(1) {
            assert_eq!(report, &reports[0], "lint report differs at jobs={jobs}");
        }
    });
}

/// The discrimination-tree index is a pure lookup accelerator: its
/// candidate enumeration reproduces the linear scan's rule-firing order
/// exactly, so an indexed proof run is **bit-identical** to a
/// linear-scan run — every verdict, tally, score, and rewrite count —
/// at every thread count. The recording sink pins that the index was
/// actually consulted, not silently bypassed.
#[test]
fn indexed_matching_is_bit_identical_to_linear_scan() {
    on_big_stack(|| {
        let baseline = {
            let opts = ProverConfig {
                linear_scan: true,
                ..ProverConfig::default()
            };
            let mut model = TlsModel::standard().unwrap();
            verify::verify_property_opts(&mut model, "inv1", &opts, &Obs::noop()).unwrap()
        };
        assert!(baseline.is_proved());

        for jobs in JOBS {
            let recorder = Arc::new(RecordingSink::new());
            let obs = Obs::new(recorder.clone());
            let opts = ProverConfig {
                jobs,
                profile_rules: true,
                ..ProverConfig::default() // indexing is the default
            };
            let mut model = TlsModel::standard().unwrap();
            let report = verify::verify_property_opts(&mut model, "inv1", &opts, &obs).unwrap();
            assert_eq!(report.is_proved(), baseline.is_proved());
            assert_eq!(report.steps.len(), baseline.steps.len());
            assert_eq!(report.base.outcome, baseline.base.outcome);
            assert_eq!(report.base.metrics, baseline.base.metrics);
            for (step, bstep) in report.steps.iter().zip(&baseline.steps) {
                assert_eq!(step.action, bstep.action, "step order at jobs={jobs}");
                assert_eq!(step.outcome, bstep.outcome, "verdict at jobs={jobs}");
                assert_eq!(
                    step.metrics, bstep.metrics,
                    "tallies (rewrites included) for {} at jobs={jobs}",
                    step.action
                );
                assert_eq!(step.scores, bstep.scores);
            }
            assert_eq!(
                report.total_rewrite_stats(),
                baseline.total_rewrite_stats(),
                "rewrite statistics must be bit-identical at jobs={jobs}"
            );
            let events = recorder.events();
            assert!(
                events.iter().any(|e| e.name() == "rewrite.index_lookups"),
                "index consulted at jobs={jobs}"
            );
        }
    });
}

/// A proof campaign run through `verify_property_opts` may differ from
/// the cold `prove_inv1(1)` baseline in the `rewrites` fuel tally only
/// — never a verdict, a passage/split/proved/vacuous/open tally, or a
/// score — at any thread count. The scoped model check runs after the
/// campaigns in the same process and must match its own pre-campaign
/// baseline exactly: the concrete explorer never rewrites, and engine
/// state must not bleed into it.
#[test]
fn shared_cache_changes_rewrite_counts_only() {
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let limits = Limits {
        max_states: 100_000,
        max_depth: 3,
    };
    let mc_baseline = check_at(&scope, &limits, 1);

    on_big_stack(|| {
        let baseline = prove_inv1(1);
        assert!(baseline.is_proved());
        for jobs in JOBS {
            let opts = ProverConfig {
                jobs,
                ..ProverConfig::default()
            };
            let mut model = TlsModel::standard().unwrap();
            let report =
                verify::verify_property_opts(&mut model, "inv1", &opts, &Obs::noop()).unwrap();
            assert_eq!(report.is_proved(), baseline.is_proved());
            assert_eq!(report.steps.len(), baseline.steps.len());
            assert_eq!(report.base.outcome, baseline.base.outcome);
            for (step, bstep) in report.steps.iter().zip(&baseline.steps) {
                assert_eq!(step.action, bstep.action, "step order at jobs={jobs}");
                assert_eq!(step.outcome, bstep.outcome, "verdict at jobs={jobs}");
                assert_eq!(step.scores, bstep.scores, "scores at jobs={jobs}");
                // Every tally except the fuel spent must match the cold run.
                let (m, bm) = (&step.metrics, &bstep.metrics);
                assert_eq!(m.passages, bm.passages, "passages at jobs={jobs}");
                assert_eq!(m.splits, bm.splits, "splits at jobs={jobs}");
                assert_eq!(m.max_depth, bm.max_depth, "depth at jobs={jobs}");
                assert_eq!(m.proved, bm.proved, "proved at jobs={jobs}");
                assert_eq!(m.vacuous, bm.vacuous, "vacuous at jobs={jobs}");
                assert_eq!(m.open, bm.open, "open at jobs={jobs}");
            }
        }
    });

    for jobs in JOBS {
        let run = check_at(&scope, &limits, jobs);
        assert_eq!(run.states, mc_baseline.states, "mc states at jobs={jobs}");
        assert_eq!(run.states_per_depth, mc_baseline.states_per_depth);
        assert_eq!(run.dedup_hits, mc_baseline.dedup_hits);
        assert_eq!(run.complete, mc_baseline.complete);
        assert_eq!(run.violations.len(), mc_baseline.violations.len());
        for (v, bv) in run.violations.iter().zip(&mc_baseline.violations) {
            assert_eq!(v.property, bv.property, "mc verdict order at jobs={jobs}");
            assert_eq!(v.trace, bv.trace, "mc trace at jobs={jobs}");
        }
    }
}

#[test]
fn full_proof_score_is_identical_at_every_thread_count() {
    on_big_stack(|| {
        let reports: Vec<_> = JOBS.iter().map(|&jobs| prove_inv1(jobs)).collect();
        let baseline = &reports[0];
        assert!(baseline.is_proved());
        assert_eq!(baseline.steps.len(), 27);
        let base_totals = baseline.total_metrics();
        assert!(base_totals.proved > 0);
        assert_eq!(base_totals.open, 0);

        for (jobs, report) in JOBS.iter().zip(&reports).skip(1) {
            assert_eq!(report.is_proved(), baseline.is_proved());
            assert_eq!(report.steps.len(), baseline.steps.len());
            assert_eq!(
                report.base.outcome, baseline.base.outcome,
                "base case at jobs={jobs}"
            );
            for (step, bstep) in report.steps.iter().zip(&baseline.steps) {
                assert_eq!(step.action, bstep.action, "step order at jobs={jobs}");
                assert_eq!(
                    step.outcome, bstep.outcome,
                    "verdict for {} at jobs={jobs}",
                    step.action
                );
                assert_eq!(
                    step.metrics, bstep.metrics,
                    "proved/vacuous/open tallies for {} at jobs={jobs}",
                    step.action
                );
                assert_eq!(step.scores, bstep.scores);
            }
            let totals = report.total_metrics();
            assert_eq!(totals, base_totals, "campaign tallies at jobs={jobs}");
            assert_eq!(
                report.total_rewrite_stats().rewrites,
                baseline.total_rewrite_stats().rewrites
            );
        }
    });
}
