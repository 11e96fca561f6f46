//! Experiment E1: prove pre-master-secret secrecy (the paper's property 1)
//! and show the proof in the paper's own format.
//!
//! Prints the per-transition proof statistics and a §5.2-style rendered
//! proof passage for the `fakeSfin2` inductive case of `inv2`, whose five
//! sub-cases the paper walks through.
//!
//! ```text
//! cargo run --release --example verify_secrecy
//! ```

use equitls::core::prelude::{render_passage, render_step_table, Decision, ProverConfig};
use equitls::obs::sink::Obs;
use equitls::tls::verify::verify_property_opts;
use equitls::tls::{cli, out, outln, TlsModel};

fn main() {
    cli::run_on_big_stack(run);
}

fn run() {
    let mut model = TlsModel::standard().expect("model builds");
    let (config, obs) = (ProverConfig::default(), Obs::noop());

    outln!("== property 1: pre-master secrets cannot be leaked ==\n");
    let report = verify_property_opts(&mut model, "inv1", &config, &obs).expect("prover runs");
    out!("{}", render_step_table(&report));
    outln!(
        "\nverdict: {}\n",
        if report.is_proved() { "PROVED" } else { "OPEN" }
    );

    outln!("== supporting lemma: gleanable ciphertexts have gleanable payloads ==\n");
    let lemma =
        verify_property_opts(&mut model, "lem-cepms-cpms", &config, &obs).expect("prover runs");
    outln!(
        "lem-cepms-cpms: {} ({} passages, {:?})\n",
        if lemma.is_proved() { "PROVED" } else { "OPEN" },
        lemma.total_passages(),
        lemma.duration
    );

    outln!("== a proof passage in the paper's §5.2 format ==\n");
    // The fifth fakeSfin2 sub-case of inv2: all hash fields coincide, both
    // principals trustable — discharged by strengthening with inv1.
    let passage = render_passage(
        "inv2",
        "fakeSfin2",
        &[
            ("b10".into(), "Prin".into()),
            ("a10".into(), "Prin".into()),
            ("i10".into(), "Sid".into()),
            ("l10".into(), "ListOfChoices".into()),
            ("c10".into(), "Choice".into()),
            ("r10".into(), "Rand".into()),
            ("r20".into(), "Rand".into()),
            ("pms10".into(), "Pms".into()),
        ],
        &[
            Decision::CondTrue {
                cond: "pms10 \\in cpms(nw(p))".into(),
            },
            Decision::Atom {
                atom: "b1 = intruder".into(),
                value: true,
            },
            Decision::Atom {
                atom: "pms10 = pms(a,b,s)".into(),
                value: true,
            },
            Decision::Atom {
                atom: "b = intruder".into(),
                value: false,
            },
            Decision::Atom {
                atom: "a = intruder".into(),
                value: false,
            },
        ],
        "inv1(p,pms(a,b,s))",
    );
    outln!("{passage}");
}
