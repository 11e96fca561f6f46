//! Integration test: proof-score recording and rendering (§5.2 / E2).
//!
//! Runs inv2 with score recording enabled and checks that the `fakeSfin2`
//! obligation — the one the paper walks through — yields discharged
//! passages whose decision trails contain the paper's landmark
//! assumptions, and that they render as `open … close` blocks. The
//! rendered scores of `lem-src-honest` are pinned byte for byte against
//! `tests/golden/`, and those of every property on both models by an
//! FNV-1a digest each.

use equitls::core::prelude::*;
use equitls::obs::sink::Obs;
use equitls::tls::{verify, TlsModel};

/// Score recording on, everything else at its default.
fn recording() -> ProverConfig {
    ProverConfig {
        record_scores: true,
        ..ProverConfig::default()
    }
}

#[test]
fn inv2_records_the_papers_fakesfin2_case_structure() {
    let child = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(|| {
            let mut model = TlsModel::standard().unwrap();
            let report =
                verify::verify_property_opts(&mut model, "inv2", &recording(), &Obs::noop())
                    .unwrap();
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

/// The recorded scores of `lem-src-honest`, rendered. Decision trails are
/// kept as terms during the search and rendered only when recorded, so
/// this pins the text that rendering produces, byte for byte.
const LEM_SRC_HONEST_SCORES: &str = include_str!("golden/lem_src_honest_scores.txt");

#[test]
fn lem_src_honest_scores_render_byte_identically() {
    let child = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(|| {
            let mut model = TlsModel::standard().unwrap();
            let report = verify::verify_property_opts(
                &mut model,
                "lem-src-honest",
                &recording(),
                &Obs::noop(),
            )
            .unwrap();
            assert!(report.is_proved());
            let rendered = render_recorded_scores(&report);
            if rendered != LEM_SRC_HONEST_SCORES {
                let line = rendered
                    .lines()
                    .zip(LEM_SRC_HONEST_SCORES.lines())
                    .position(|(got, want)| got != want)
                    .map_or_else(
                        || "the line count".to_string(),
                        |i| format!("line {}", i + 1),
                    );
                panic!(
                    "rendered scores differ from tests/golden/lem_src_honest_scores.txt at {line}"
                );
            }
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
                &ProverConfig::default(),
                &Obs::noop(),
            )
            .unwrap();
            assert!(report.base.scores.is_empty());
            assert!(report.steps.iter().all(|s| s.scores.is_empty()));
        })
        .expect("spawn");
    child.join().expect("join");
}

/// One line per (model, property): the FNV-1a digest of the property's
/// rendered recorded scores.
const SCORE_DIGESTS: &str = include_str!("golden/score_digests.txt");

/// FNV-1a, 64 bits.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |acc, &b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_recorded_score_matches_its_golden_digest_at_jobs_1_and_2() {
    let child = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(|| {
            let want: Vec<&str> = SCORE_DIGESTS.lines().collect();
            for jobs in [1, 2] {
                let config = ProverConfig {
                    jobs,
                    ..recording()
                };
                let mut lines = Vec::new();
                for (label, variant) in [("standard", false), ("variant", true)] {
                    let mut model = if variant {
                        TlsModel::variant().unwrap()
                    } else {
                        TlsModel::standard().unwrap()
                    };
                    for plan in &verify::PLANS {
                        let report = verify::verify_property_opts(
                            &mut model,
                            plan.name,
                            &config,
                            &Obs::noop(),
                        )
                        .unwrap();
                        assert!(report.is_proved(), "{label} {}", plan.name);
                        let digest = fnv1a(render_recorded_scores(&report).as_bytes());
                        lines.push(format!("{label} {} {digest:016x}", plan.name));
                    }
                }
                assert_eq!(lines.len(), want.len(), "one digest per (model, property)");
                let differing: Vec<String> = lines
                    .iter()
                    .zip(&want)
                    .filter(|(got, want)| got != want)
                    .map(|(got, want)| format!("got {got}, want {want}"))
                    .collect();
                assert!(
                    differing.is_empty(),
                    "jobs {jobs}: rendered scores differ from tests/golden/score_digests.txt:\n{}",
                    differing.join("\n")
                );
            }
        })
        .expect("spawn");
    child.join().expect("join");
}
