//! Integration test: the §5.3 negative results (experiments E6/E7).
//!
//! Properties 2′ and 3′ — client-side Finished authenticity — are *false*
//! in the protocol. Three independent checks agree:
//!
//! 1. the model checker finds violations by breadth-first search;
//! 2. the paper's exact counterexample traces replay through the concrete
//!    machine;
//! 3. the symbolic prover fails to prove the properties (open cases
//!    remain), while proving the server-side twins.

use equitls::core::prelude::{Invariant, InvariantSet, ProofMethod, Prover, ProverConfig};
use equitls::mc::prelude::*;
use equitls::obs::sink::Obs;
use equitls::spec::parser::{elaborate_term, parse_term_ast, ElabScope};
use equitls::tls::concrete::Scope;
use equitls::tls::{verify, TlsModel};

#[test]
fn bfs_finds_the_2prime_and_3prime_violations() {
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let limits = Limits {
        max_states: 100_000,
        max_depth: 3,
    };
    let result =
        check_scope_config_obs(&scope, &limits, 1, &ExploreConfig::default(), &Obs::noop());
    assert!(result.complete, "the bounded space should be exhausted");
    assert!(result.violation("prop2p-cf-authentic").is_some());
    assert!(result.violation("prop3p-cf2-authentic").is_some());
    // The five positive properties hold everywhere in the bound.
    for name in [
        "prop1-pms-secrecy",
        "prop2-sf-authentic",
        "prop3-sf2-authentic",
        "prop4-sh-ct-authentic",
        "prop5-sh2-authentic",
    ] {
        assert!(result.violation(name).is_none(), "{name} must hold");
    }
}

#[test]
fn the_papers_traces_replay_exactly() {
    let r2 = counterexample_2prime().expect("2' replays");
    assert_eq!(r2.trace.len(), 6, "six messages as in the paper");
    let r3 = counterexample_3prime().expect("3' replays");
    assert_eq!(r3.trace.len(), 4, "four messages as in the paper");
}

#[test]
fn anonymity_corollary_the_server_cannot_identify_the_client() {
    // §5.3: "if clients use TLS where they are not authenticated, they
    // cannot be identified". Concretely: the final state of the 2' run is
    // one where the server accepted a session "with p2" although every
    // client-side message was created by the intruder.
    let replay = counterexample_2prime().unwrap();
    let (_, final_state) = replay.trace.last().unwrap();
    let client_msgs: Vec<_> = final_state
        .messages()
        .filter(|m| m.src == equitls::tls::concrete::Prin(2))
        .collect();
    assert!(!client_msgs.is_empty());
    assert!(
        client_msgs
            .iter()
            .all(|m| m.crt == equitls::tls::concrete::Prin::INTRUDER),
        "every message 'from p2' was actually created by the intruder"
    );
}

/// The symbolic prover cannot prove 2′ — and reports honest open cases.
#[test]
fn the_symbolic_prover_leaves_2prime_open() {
    let child = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(|| {
            let mut model = TlsModel::standard().unwrap();
            // State 2' as an invariant: a conformant cf seemingly from a
            // trustable client really originates from the client.
            let body_src = r"not (A = intruder)
                and cf(B1, A, B, ecfin(key(A, PM, R1, R2),
                                       cfin(A, B, I, L, C, R1, R2, PM))) \in nw(P)
                implies
                cf(A, A, B, ecfin(key(A, PM, R1, R2),
                                  cfin(A, B, I, L, C, R1, R2, PM))) \in nw(P)";
            let ast = parse_term_ast(body_src).unwrap();
            let mut scope = ElabScope::new();
            let store = model.spec.store();
            let mut vars = std::collections::HashMap::new();
            for name in ["P", "A", "B", "B1", "R1", "R2", "L", "C", "I", "PM"] {
                let var = store.var_by_name(name).expect("property var exists");
                vars.insert(name, var);
            }
            for (name, &var) in &vars {
                let occurrence = model.spec.store_mut().var(var);
                scope.bind(name, occurrence);
            }
            let body = elaborate_term(&mut model.spec, &scope, &ast).unwrap();
            let inv = Invariant::new(
                &model.spec,
                "prop2prime",
                vars["P"],
                vec![
                    vars["A"], vars["B"], vars["B1"], vars["R1"], vars["R2"], vars["L"], vars["C"],
                    vars["I"], vars["PM"],
                ],
                body,
            )
            .unwrap();
            let mut invariants = InvariantSet::new();
            for (name, _, _) in equitls::tls::symbolic::properties::PROPERTIES {
                invariants.push(model.invariants.get(name).unwrap().clone());
            }
            invariants.push(inv);
            let config = ProverConfig {
                witnesses: verify::witness_map(&model),
                ..ProverConfig::default()
            };
            let mut prover =
                Prover::new(&mut model.spec, &model.ots, &invariants).with_config(config);
            let report = prover
                .prove("prop2prime", ProofMethod::Induction, &[])
                .unwrap();
            assert!(
                !report.is_proved(),
                "property 2' must NOT prove — the paper refutes it"
            );
            // The failing obligation is an intruder transition that
            // constructs the client Finished.
            let open = report.open_cases();
            assert!(
                open.iter().any(|(action, _)| action.starts_with("fake")),
                "the open case should come from an intruder fake: {open:?}"
            );
        })
        .expect("spawn");
    child.join().expect("join");
}
