//! Failure injection: flawed protocol variants must make specific
//! properties fail (see `equitls::tls::mutants`).
//!
//! For every mutant: the expected properties stop proving, the failure
//! localizes to the injected transition, and a control property still
//! proves. A verifier that proves everything is worthless; this is the
//! soundness smoke test.

use equitls::core::prelude::{ProofMethod, Prover, ProverConfig};
use equitls::tls::mutants::Mutant;
use equitls::tls::{verify, TlsModel};

fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("join")
}

/// The lemmas `name`'s campaign plan strengthens it with.
fn lemmas_of(name: &str) -> &'static [&'static str] {
    verify::plan(name).map_or(&[], |plan| plan.lemmas)
}

#[test]
fn every_mutant_breaks_its_expected_properties_and_nothing_more() {
    on_big_stack(|| {
        for mutant in Mutant::all() {
            let mut model = TlsModel::standard().unwrap();
            let ots = mutant.inject(&mut model).unwrap();
            let config = ProverConfig {
                witnesses: verify::witness_map(&model),
                ..ProverConfig::default()
            };
            let mut prover =
                Prover::new(&mut model.spec, &ots, &model.invariants).with_config(config);

            for name in mutant.expected_failures() {
                let report = prover
                    .prove(name, ProofMethod::Induction, lemmas_of(name))
                    .unwrap();
                assert!(!report.is_proved(), "{mutant:?}: {name} must fail");
                let open = report.open_cases();
                assert!(
                    open.iter()
                        .any(|(action, _)| action == mutant.transition_name()),
                    "{mutant:?}: {name}'s failure must localize to {}: {open:?}",
                    mutant.transition_name()
                );
            }

            let control = mutant.control_property();
            let report = prover
                .prove(control, ProofMethod::Induction, lemmas_of(control))
                .unwrap();
            assert!(
                report.is_proved(),
                "{mutant:?}: control property {control} must still prove; open: {:#?}",
                report.open_cases()
            );
        }
    });
}
