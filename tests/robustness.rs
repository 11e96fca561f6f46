//! Robustness end-to-end: unified budgets, cooperative cancellation, and
//! panic containment across the prover and the explorer.
//!
//! Pins the PR's two acceptance criteria on the real TLS models:
//!
//! 1. a seeded `FaultPlan` panic in one prover obligation at `jobs = 4`
//!    yields the *same report* as `jobs = 1` — the obligation is marked
//!    as a worker fault, every sibling still proves;
//! 2. a deadline-expired exploration returns `complete = false` with
//!    `StopReason::DeadlineExceeded` and an internally consistent
//!    `states_per_depth` tally.
//!
//! Plus the check-suite smoke: a 2-second deadline on the §5 scope check
//! (which finishes far sooner) leaves results identical at jobs 1/2/4.

use equitls::core::prelude::{ProofReport, ProverConfig};
use equitls::mc::prelude::*;
use equitls::obs::sink::Obs;
use equitls::tls::concrete::Scope;
use equitls::tls::verify;
use equitls::tls::TlsModel;
use std::time::Duration;

const JOBS: [usize; 3] = [1, 2, 4];

fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("join")
}

/// The §5 counterexample scope bounded to two messages: big enough to
/// exercise wide frontiers, small enough to finish in well under a second.
fn small_scope() -> (Scope, Limits) {
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let limits = Limits {
        max_states: 100_000,
        max_depth: 3,
    };
    (scope, limits)
}

#[test]
fn injected_prover_panic_yields_identical_reports_at_jobs_1_and_4() {
    on_big_stack(|| {
        // The `kexch` obligation panics the moment it starts; the other
        // 26 transitions and the base case must be untouched.
        let plan = FaultPlan::new()
            .with_fault(Fault::new(FaultSite::Obligation, FaultKind::Panic, 0).in_scope("kexch"));
        let reports: Vec<_> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                let mut model = TlsModel::standard().expect("model builds");
                let opts = ProverConfig {
                    jobs,
                    fault_plan: Some(plan.clone()),
                    ..ProverConfig::default()
                };
                verify::verify_property_opts(&mut model, "lem-src-honest", &opts, &Obs::noop())
                    .expect("engine ok")
            })
            .collect();

        for report in &reports {
            assert!(!report.is_proved(), "a faulted obligation is not a proof");
            let faults = report.faults();
            assert_eq!(faults.len(), 1, "exactly one obligation faulted");
            let (action, fault) = &faults[0];
            assert_eq!(action, "kexch");
            assert_eq!(fault.site, "obligation:kexch");
            assert!(
                fault.message.contains("injected fault"),
                "panic payload surfaces in the report: {}",
                fault.message
            );
            // Every sibling obligation proved despite the panic next door.
            for step in &report.steps {
                if step.action != "kexch" {
                    assert!(
                        step.outcome.is_proved(),
                        "sibling {} must be unaffected",
                        step.action
                    );
                }
            }
            assert!(report.base.outcome.is_proved(), "base case unaffected");
        }

        // The two reports are identical, step for step.
        let (one, four) = (&reports[0], &reports[1]);
        assert_eq!(one.base.outcome, four.base.outcome);
        assert_eq!(one.steps.len(), four.steps.len());
        for (a, b) in one.steps.iter().zip(&four.steps) {
            assert_eq!(a.action, b.action, "step order");
            assert_eq!(a.outcome, b.outcome, "verdict for {}", a.action);
            assert_eq!(a.metrics, b.metrics, "tallies for {}", a.action);
        }
    });
}

/// `lem-src-honest` on the standard model with proof scores recorded, at
/// `jobs`, under `plan`.
fn src_honest_with_scores(jobs: usize, plan: Option<FaultPlan>) -> ProofReport {
    let mut model = TlsModel::standard().expect("model builds");
    let config = ProverConfig {
        jobs,
        record_scores: true,
        fault_plan: plan,
        ..ProverConfig::default()
    };
    verify::verify_property_opts(&mut model, "lem-src-honest", &config, &Obs::noop())
        .expect("engine ok")
}

#[test]
fn rewrite_panic_midway_through_an_obligation_leaves_every_sibling_as_a_clean_run() {
    on_big_stack(|| {
        // Each worker runs its obligations on one spec, rolled back after
        // each; a panic deep inside `kexch` — after it has built terms and
        // fresh constants — must leave nothing behind for the next one.
        let clean = src_honest_with_scores(1, None);
        assert!(clean.is_proved());
        let victim = clean
            .steps
            .iter()
            .find(|s| s.action == "kexch")
            .expect("kexch obligation");
        let midway = victim.rewrite_stats.rewrites / 2;
        assert!(midway > 100, "kexch is long enough to fail midway");
        let plan = FaultPlan::new()
            .with_fault(Fault::new(FaultSite::Rewrite, FaultKind::Panic, midway).in_scope("kexch"));
        for jobs in [1usize, 2] {
            let faulted = src_honest_with_scores(jobs, Some(plan.clone()));
            let faults = faulted.faults();
            assert_eq!(faults.len(), 1, "jobs {jobs}: exactly the injected fault");
            assert_eq!(faults[0].0, "kexch");
            assert!(faults[0].1.message.contains("injected fault"));
            let pairs = std::iter::once((&clean.base, &faulted.base))
                .chain(clean.steps.iter().zip(&faulted.steps));
            for (want, got) in pairs {
                assert_eq!(want.action, got.action, "jobs {jobs}: step order");
                if got.action == "kexch" {
                    continue;
                }
                let name = &got.action;
                assert_eq!(want.outcome, got.outcome, "jobs {jobs}: {name} outcome");
                assert_eq!(want.metrics, got.metrics, "jobs {jobs}: {name} metrics");
                assert_eq!(
                    want.rewrite_stats, got.rewrite_stats,
                    "jobs {jobs}: {name} rewrite stats"
                );
                assert_eq!(want.scores, got.scores, "jobs {jobs}: {name} scores");
                assert!(
                    !got.scores.is_empty(),
                    "jobs {jobs}: {name} recorded scores"
                );
            }
        }
    });
}

#[test]
fn cancelled_campaign_reports_open_obligations_not_a_dead_process() {
    on_big_stack(|| {
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let mut model = TlsModel::standard().expect("model builds");
        let opts = ProverConfig {
            budget,
            ..ProverConfig::default()
        };
        let report =
            verify::verify_property_opts(&mut model, "lem-src-honest", &opts, &Obs::noop())
                .expect("engine ok");
        assert!(!report.is_proved());
        let open = report.open_cases();
        assert!(!open.is_empty());
        for (_, case) in &open {
            assert!(
                case.residual.contains("cancelled"),
                "residual names the stop reason: {}",
                case.residual
            );
        }
    });
}

#[test]
fn deadline_expired_exploration_is_partial_with_a_typed_reason() {
    let (scope, limits) = small_scope();
    let config = ExploreConfig {
        budget: Budget::unlimited().with_deadline(Duration::ZERO),
        fault_plan: None,
        ..ExploreConfig::default()
    };
    let result = check_scope_config_obs(&scope, &limits, 1, &config, &Obs::noop());
    assert!(!result.complete);
    assert_eq!(result.stop_reason, Some(StopReason::DeadlineExceeded));
    assert_eq!(
        result.states_per_depth.iter().sum::<usize>(),
        result.states,
        "partial per-level tally stays consistent with the state count"
    );
    assert_eq!(result.states_per_depth.len(), result.depth_reached + 1);
}

#[test]
fn injected_deadline_truncates_the_tls_scope_identically_at_every_jobs() {
    let (scope, limits) = small_scope();
    // The "deadline" fires exactly when frontier entry 40 is merged —
    // deep enough that level 2's wide frontier is mid-expansion.
    let config = ExploreConfig {
        budget: Budget::unlimited(),
        fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
            FaultSite::Successor,
            FaultKind::DeadlineExpiry,
            40,
        ))),
        ..ExploreConfig::default()
    };
    let runs: Vec<_> = JOBS
        .iter()
        .map(|&jobs| check_scope_config_obs(&scope, &limits, jobs, &config, &Obs::noop()))
        .collect();
    let baseline = &runs[0];
    assert!(!baseline.complete);
    assert_eq!(baseline.stop_reason, Some(StopReason::DeadlineExceeded));
    assert!(
        baseline.states > 1,
        "some states were explored before the stop"
    );
    assert_eq!(
        baseline.states_per_depth.iter().sum::<usize>(),
        baseline.states
    );
    for (jobs, run) in JOBS.iter().zip(&runs).skip(1) {
        assert_eq!(run.states, baseline.states, "states at jobs={jobs}");
        assert_eq!(
            run.stop_reason, baseline.stop_reason,
            "reason at jobs={jobs}"
        );
        assert_eq!(
            run.states_per_depth, baseline.states_per_depth,
            "tally at jobs={jobs}"
        );
        assert_eq!(run.dedup_hits, baseline.dedup_hits, "dedup at jobs={jobs}");
        assert_eq!(run.violations.len(), baseline.violations.len());
    }
}

#[test]
fn two_second_deadline_smoke_is_identical_at_jobs_1_2_4() {
    // The scope finishes far inside two seconds, so the deadline never
    // trips — but the budget machinery is live on every path, and the
    // results must be bit-identical across thread counts.
    let (scope, limits) = small_scope();
    let config = ExploreConfig {
        budget: Budget::unlimited().with_deadline(Duration::from_secs(2)),
        fault_plan: None,
        ..ExploreConfig::default()
    };
    let runs: Vec<_> = JOBS
        .iter()
        .map(|&jobs| check_scope_config_obs(&scope, &limits, jobs, &config, &Obs::noop()))
        .collect();
    let baseline = &runs[0];
    assert!(baseline.complete, "scope should finish inside the deadline");
    assert_eq!(baseline.stop_reason, None);
    assert!(baseline.violation("prop2p-cf-authentic").is_some());
    for (jobs, run) in JOBS.iter().zip(&runs).skip(1) {
        assert_eq!(run.states, baseline.states, "states at jobs={jobs}");
        assert_eq!(run.complete, baseline.complete, "complete at jobs={jobs}");
        assert_eq!(
            run.states_per_depth, baseline.states_per_depth,
            "tally at jobs={jobs}"
        );
        assert_eq!(run.dedup_hits, baseline.dedup_hits, "dedup at jobs={jobs}");
        for (v, bv) in run.violations.iter().zip(&baseline.violations) {
            assert_eq!(v.property, bv.property, "verdicts at jobs={jobs}");
            assert_eq!(v.trace, bv.trace, "traces at jobs={jobs}");
        }
    }
}
