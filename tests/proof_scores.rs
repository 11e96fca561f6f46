//! Integration test: proof-score recording and rendering (§5.2 / E2).
//!
//! Runs inv2 with score recording enabled and checks that the `fakeSfin2`
//! obligation — the one the paper walks through — yields discharged
//! passages whose decision trails contain the paper's landmark
//! assumptions, and that they render as `open … close` blocks.

use equitls::core::prelude::*;
use equitls::obs::sink::Obs;
use equitls::tls::verify::VerifyOptions;
use equitls::tls::{verify, TlsModel};

#[test]
fn inv2_records_the_papers_fakesfin2_case_structure() {
    let child = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(|| {
            let mut model = TlsModel::standard().unwrap();
            let config = ProverConfig {
                record_scores: true,
                ..verify::prover_config(&model)
            };
            let mut prover =
                Prover::new(&mut model.spec, &model.ots, &model.invariants).with_config(config);
            let hints = Hints::new()
                .lemma("inv2", "lem-esfin-origin")
                .lemma("inv2", "inv1");
            let report = prover.prove_inductive("inv2", &hints).unwrap();
            assert!(report.is_proved());

            let fake = report
                .steps
                .iter()
                .find(|s| s.action == "fakeSfin2")
                .expect("fakeSfin2 obligation exists");
            assert!(
                fake.scores.len() >= 3,
                "the paper's case analysis has five sub-cases; ours discharged {}",
                fake.scores.len()
            );
            // The landmark decisions of §5.2: the effective condition
            // (PMS gleanable), and the a/b = intruder splits.
            let all_decisions: Vec<String> =
                fake.scores.iter().flatten().map(|d| d.render()).collect();
            assert!(
                all_decisions.iter().any(|d| d.contains("cpms(nw(")),
                "the effective condition is split on: {all_decisions:?}"
            );
            assert!(
                all_decisions.iter().any(|d| d.contains("intruder")),
                "the intruder equalities are split on"
            );

            // And they render in the paper's open/close shape.
            let rendered = render_recorded_scores(&report);
            assert!(rendered.contains("open ISTEP"));
            assert!(rendered.contains("close"));
            assert!(rendered.contains("eq p' = fakeSfin2(p, …) ."));
        })
        .expect("spawn");
    child.join().expect("join");
}

#[test]
fn score_recording_is_off_by_default() {
    let child = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(|| {
            let mut model = TlsModel::standard().unwrap();
            let report = verify::verify_property_opts(
                &mut model,
                "inv1",
                &VerifyOptions::default(),
                &Obs::noop(),
            )
            .unwrap();
            assert!(report.base.scores.is_empty());
            assert!(report.steps.iter().all(|s| s.scores.is_empty()));
        })
        .expect("spawn");
    child.join().expect("join");
}
