//! Extension properties beyond the paper's eighteen.
//!
//! The paper's invariants all speak about the network; these extensions
//! speak about the *session store* (`ss`), closing the loop between
//! "messages were exchanged" and "a session was recorded":
//!
//! * client-side session soundness: when a trustable client records a
//!   full-handshake session, its pre-master secret names the client and
//!   the session peer — the client never books a session under a
//!   different identity pair. (The server-side analogue is *false* for
//!   the same reason as property 2′: the server cannot authenticate the
//!   client.)

use equitls::core::prelude::*;
use equitls::spec::parser::{elaborate_term, parse_term_ast, ElabScope};
use equitls::tls::{verify, TlsModel};

fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("join")
}

fn build_invariant(model: &mut TlsModel, name: &str, params: &[&str], body_src: &str) -> Invariant {
    let ast = parse_term_ast(body_src).unwrap();
    let mut scope = ElabScope::new();
    let mut vars = std::collections::HashMap::new();
    for var_name in ["P", "A", "B", "I", "S", "PM"] {
        if let Some(var) = model.spec.store().var_by_name(var_name) {
            vars.insert(var_name, var);
            let occurrence = model.spec.store_mut().var(var);
            scope.bind(var_name, occurrence);
        }
    }
    let body = elaborate_term(&mut model.spec, &scope, &ast).unwrap();
    Invariant::new(
        &model.spec,
        name,
        vars["P"],
        params.iter().map(|p| vars[*p]).collect(),
        body,
    )
    .unwrap()
}

#[test]
fn client_session_records_are_well_named() {
    on_big_stack(|| {
        let mut model = TlsModel::standard().unwrap();
        // If a trustable client A records any session with B under I,
        // the recorded pre-master secret names exactly (A, B).
        let ext = build_invariant(
            &mut model,
            "ext-session-client",
            &["A", "B", "I"],
            r"not (A = intruder) and not (ss(P, A, B, I) = noSession)
              implies
              (client(spms(ss(P, A, B, I))) = A
               and server(spms(ss(P, A, B, I))) = B)",
        );
        let mut invariants = InvariantSet::new();
        for (name, _, _) in equitls::tls::symbolic::properties::PROPERTIES {
            invariants.push(model.invariants.get(name).unwrap().clone());
        }
        invariants.push(ext);
        let config = ProverConfig {
            witnesses: verify::witness_map(&model),
            ..ProverConfig::default()
        };
        let mut prover = Prover::new(&mut model.spec, &model.ots, &invariants).with_config(config);
        let report = prover
            .prove("ext-session-client", ProofMethod::Induction, &[])
            .unwrap();
        assert!(
            report.is_proved(),
            "client session soundness should prove; open: {:#?}",
            report.open_cases()
        );
    });
}

#[test]
fn server_session_records_are_not_well_named() {
    // The server-side analogue is FALSE: after the 2'-style run, the
    // server records a session "with a" whose pre-master secret names the
    // intruder. The prover must leave it open, with the failure at a
    // session-recording transition.
    on_big_stack(|| {
        let mut model = TlsModel::standard().unwrap();
        let ext = build_invariant(
            &mut model,
            "ext-session-server",
            &["A", "B", "I"],
            r"not (B = intruder) and not (ss(P, B, A, I) = noSession)
              implies
              client(spms(ss(P, B, A, I))) = A",
        );
        let mut invariants = InvariantSet::new();
        for (name, _, _) in equitls::tls::symbolic::properties::PROPERTIES {
            invariants.push(model.invariants.get(name).unwrap().clone());
        }
        invariants.push(ext);
        let config = ProverConfig {
            witnesses: verify::witness_map(&model),
            ..ProverConfig::default()
        };
        let mut prover = Prover::new(&mut model.spec, &model.ots, &invariants).with_config(config);
        let report = prover
            .prove("ext-session-server", ProofMethod::Induction, &[])
            .unwrap();
        assert!(
            !report.is_proved(),
            "server-side session naming must NOT prove (cf. property 2')"
        );
        let open = report.open_cases();
        assert!(
            open.iter()
                .any(|(action, _)| action == "compl2" || action == "compl" || action == "cfin2"),
            "failure localizes to a session-recording transition: {open:?}"
        );
    });
}
