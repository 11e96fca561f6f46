//! The benchmark's timing wrappers and tracing only observe: a wrapped,
//! traced run computes exactly what a plain run computes.

use equitls_campaign_bench::timed::{as_monitors, monitors, Clock, TimedModel};
use equitls_core::prelude::{ProofReport, StepReport};
use equitls_mc::check::check_scope_config_obs;
use equitls_mc::explorer::{explore_with_config_jobs, Exploration, ExploreConfig, Limits};
use equitls_mc::model::TlsMachine;
use equitls_obs::sink::{Obs, RecordingSink};
use equitls_tls::concrete::{Scope, State};
use equitls_tls::symbolic::TlsModel;
use equitls_tls::verify::{verify_property_opts, VerifyOptions};
use std::sync::Arc;

fn recording() -> Obs {
    Obs::new(Arc::new(RecordingSink::new()))
}

fn bound_two() -> (Scope, Limits) {
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let limits = Limits {
        max_states: 150_000,
        max_depth: 3,
    };
    (scope, limits)
}

fn assert_same_search(plain: &Exploration<State>, wrapped: &Exploration<State>) {
    assert!(plain.complete && wrapped.complete);
    assert_eq!(plain.states, wrapped.states);
    assert_eq!(plain.states_per_depth, wrapped.states_per_depth);
    assert_eq!(plain.dedup_hits, wrapped.dedup_hits);
    assert_eq!(plain.violations.len(), wrapped.violations.len());
    for (p, w) in plain.violations.iter().zip(&wrapped.violations) {
        assert_eq!(p.property, w.property);
        assert_eq!(p.depth, w.depth);
        assert_eq!(p.trace, w.trace);
    }
}

#[test]
fn a_timed_model_explores_exactly_like_the_programs_check_at_jobs_1_and_2() {
    let (scope, limits) = bound_two();
    let config = ExploreConfig::default();
    let plain = check_scope_config_obs(&scope, &limits, 1, &config, &Obs::noop());
    assert!(!plain.violations.is_empty(), "bound 2 refutes 2' and 3'");
    for jobs in [1, 2] {
        let clock = Clock::default();
        let timed_monitors = monitors(&scope, &clock);
        let machine = TimedModel::new(TlsMachine::new(scope.clone()));
        let wrapped = explore_with_config_jobs(
            &machine,
            &as_monitors(&timed_monitors),
            &limits,
            &config,
            jobs,
            &recording(),
        );
        assert_same_search(&plain, &wrapped);
        // The wrappers did observe the search.
        assert_eq!(machine.successors.calls(), plain.states as u64);
        assert!(machine.codec.calls() > 0 && clock.calls() > 0);
    }
}

fn assert_same_step(plain: &StepReport, traced: &StepReport) {
    assert_eq!(plain.action, traced.action);
    assert_eq!(plain.outcome, traced.outcome);
    assert_eq!(plain.metrics, traced.metrics);
    assert_eq!(plain.rewrite_stats, traced.rewrite_stats);
}

#[test]
fn a_traced_proof_of_inv4_matches_the_untraced_one() {
    let prove = |opts: &VerifyOptions, obs: &Obs| -> ProofReport {
        let mut model = TlsModel::standard().expect("the TLS model builds");
        verify_property_opts(&mut model, "inv4", opts, obs).expect("inv4 runs")
    };
    let plain = prove(&VerifyOptions::default(), &Obs::noop());
    let traced_opts = VerifyOptions {
        profile_rules: true,
        ..VerifyOptions::default()
    };
    let traced = prove(&traced_opts, &recording());
    assert!(plain.is_proved() && traced.is_proved());
    assert_same_step(&plain.base, &traced.base);
    assert_eq!(plain.steps.len(), traced.steps.len());
    for (p, t) in plain.steps.iter().zip(&traced.steps) {
        assert_same_step(p, t);
    }
}
