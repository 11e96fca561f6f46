//! Integration test: the full verification campaign (experiments E1–E5,
//! E8, E9).
//!
//! Proves all eighteen properties on the Figure 2 protocol and re-proves
//! them on the §5.3 variant. This is the headline reproduction result:
//! the paper's five properties (and our reconstruction of its thirteen
//! auxiliary lemmas) are machine-checked by the mechanized proof-score
//! prover.

use equitls::core::prelude::{ProofReport, Prover, ProverConfig};
use equitls::obs::sink::Obs;
use equitls::tls::{verify, TlsModel, Variant};

/// Prove `name` on `model` with the default options.
fn prove(model: &mut TlsModel, name: &str) -> ProofReport {
    verify::verify_property_opts(model, name, &ProverConfig::default(), &Obs::noop()).unwrap()
}

/// Exact passage, rewrite and equality-decision totals of a proof. Any
/// change to splitting, rewriting or the Boolean ring shows up here.
fn assert_search_counts(report: &ProofReport, passages: usize, rewrites: u64, eqs: u64) {
    let stats = report.total_rewrite_stats();
    assert_eq!(
        (report.total_passages(), stats.rewrites, stats.eq_decisions),
        (passages, rewrites, eqs),
        "{}: (passages, rewrites, eq decisions)",
        report.invariant
    );
}

fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("join")
}

#[test]
fn the_five_main_properties_prove_on_the_standard_protocol() {
    on_big_stack(|| {
        let mut model = TlsModel::standard().unwrap();
        for name in ["inv1", "inv2", "inv3", "inv4", "inv5"] {
            let report = prove(&mut model, name);
            assert!(
                report.is_proved(),
                "{name} should prove; open cases: {:#?}",
                report.open_cases()
            );
        }
    });
}

#[test]
fn all_thirteen_auxiliary_lemmas_prove() {
    on_big_stack(|| {
        let mut model = TlsModel::standard().unwrap();
        for plan in verify::PLANS.iter().filter(|p| p.name.starts_with("lem-")) {
            let report = prove(&mut model, plan.name);
            assert!(
                report.is_proved(),
                "{} should prove; open cases: {:#?}",
                plan.name,
                report.open_cases()
            );
            if plan.name == "lem-rand-ur" {
                // The heaviest lemma: pins the search the Boolean ring
                // must not move.
                assert_search_counts(&report, 190, 5_536, 2_779);
            }
        }
    });
}

#[test]
fn the_variant_protocol_satisfies_the_same_properties() {
    // §5.3: "We have also verified that the five properties … hold in the
    // protocol where a ClientFinished2 message precedes a ServerFinished2
    // message."
    on_big_stack(|| {
        let mut model = TlsModel::variant().unwrap();
        assert_eq!(model.variant, Variant::ClientFinished2First);
        for name in ["inv1", "inv2", "inv3", "inv4", "inv5"] {
            let report = prove(&mut model, name);
            assert!(
                report.is_proved(),
                "{name} should prove on the variant; open: {:#?}",
                report.open_cases()
            );
        }
    });
}

#[test]
fn proof_reports_count_passages_and_splits() {
    on_big_stack(|| {
        let mut model = TlsModel::standard().unwrap();
        let report = prove(&mut model, "inv1");
        // The inductive proof covers init + all 27 transitions.
        assert_eq!(report.steps.len(), 27);
        assert!(report.total_passages() > 27, "at least one passage each");
        assert!(report.total_splits() > 0);
        assert!(report.base.outcome.is_proved());
        assert_search_counts(&report, 139, 4_199, 2_453);
    });
}

/// Every plan in `verify::PLANS` is minimal: with any one of its fifteen
/// lemma edges dropped, the property stays OPEN on both models. A proof
/// that closes anyway would mean a case closed on something other than
/// its assumptions and lemmas, such as a cache entry left over from
/// another branch.
#[test]
fn dropping_any_one_lemma_leaves_its_property_open_on_both_models() {
    on_big_stack(|| {
        let mut runs = 0;
        for variant in [false, true] {
            let mut model = if variant {
                TlsModel::variant().unwrap()
            } else {
                TlsModel::standard().unwrap()
            };
            let config = ProverConfig {
                witnesses: verify::witness_map(&model),
                ..ProverConfig::default()
            };
            for plan in &verify::PLANS {
                for dropped in plan.lemmas {
                    let lemmas: Vec<&str> = plan
                        .lemmas
                        .iter()
                        .copied()
                        .filter(|l| l != dropped)
                        .collect();
                    let report = Prover::new(&mut model.spec, &model.ots, &model.invariants)
                        .with_config(config.clone())
                        .prove(plan.name, plan.method, &lemmas)
                        .unwrap();
                    assert!(
                        !report.is_proved() && !report.open_cases().is_empty(),
                        "{} (variant: {variant}) proved without {dropped}",
                        plan.name
                    );
                    runs += 1;
                }
            }
        }
        assert_eq!(runs, 30, "15 lemma edges on each model");
    });
}
