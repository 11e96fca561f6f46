//! Quickstart: drive the Figure 2 handshake end-to-end (experiment E11).
//!
//! Runs the full negotiation (six messages) followed by the abbreviated
//! resumption (four messages) through the concrete machine, printing each
//! message in the paper's notation, then proves the headline property
//! (pre-master-secret secrecy) on the symbolic model.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use equitls::mc::prelude::{Model, TlsMachine};
use equitls::obs::sink::Obs;
use equitls::tls::concrete::{Scope, State};
use equitls::tls::verify::{verify_property_opts, VerifyOptions};
use equitls::tls::{outln, TlsModel};

fn drive(machine: &TlsMachine, state: &State, prefixes: &[&str]) -> Option<State> {
    let mut current = state.clone();
    for prefix in prefixes {
        let (label, next) = machine
            .successors(&current)
            .into_iter()
            .find(|(l, _)| l.starts_with(prefix))?;
        let new_msg = next
            .messages()
            .find(|m| !current.network.contains(m))
            .map(|m| m.to_string())
            .unwrap_or_else(|| "(session update)".to_string());
        outln!("  {label:<22} {new_msg}");
        current = next;
    }
    Some(current)
}

fn main() {
    outln!("== EquiTLS quickstart ==\n");
    outln!("Full handshake (Figure 2, messages 1-6):");
    let mut scope = Scope::counterexample();
    scope.rands = 4; // enough fresh randoms for the resumption too
    let machine = TlsMachine::new(scope);
    let state = drive(
        &machine,
        &State::new(),
        &[
            "chello(p2,p3",
            "shello(p3,p2",
            "cert(p3,p2",
            "kexch(p2,p3",
            "cfin(p2,p3",
            "sfin(p3,p2",
            "compl(p2,p3",
        ],
    )
    .expect("the honest run is enabled");
    outln!("\n  client p2 established a session with server p3\n");

    outln!("Abbreviated handshake (resumption, messages 7-10):");
    // The server records the session too (compl2 bookkeeping) so it can
    // resume; in the full protocol this happens on ClientFinished2 of the
    // previous session, so mirror the client's record.
    let mut state = state;
    let client_session = state
        .session(
            equitls::tls::concrete::Prin(2),
            equitls::tls::concrete::Prin(3),
            equitls::tls::concrete::Sid(0),
        )
        .expect("client session exists");
    state.sessions.insert(
        (
            equitls::tls::concrete::Prin(3),
            equitls::tls::concrete::Prin(2),
            equitls::tls::concrete::Sid(0),
        ),
        client_session,
    );
    drive(
        &machine,
        &state,
        &[
            "chello2(p2,p3",
            "shello2(p3,p2",
            "sfin2(p3,p2",
            "cfin2(p2,p3",
        ],
    )
    .expect("the resumption is enabled");

    outln!("\nProving the headline property on the symbolic model:");
    let mut model = TlsModel::standard().expect("model builds");
    let report = verify_property_opts(&mut model, "inv1", &VerifyOptions::default(), &Obs::noop())
        .expect("prover runs");
    outln!(
        "  inv1 (pre-master secrets cannot be leaked): {}",
        if report.is_proved() { "PROVED" } else { "OPEN" }
    );
    outln!(
        "  ({} proof passages, {} case splits, {:?})",
        report.total_passages(),
        report.total_splits(),
        report.duration
    );
}
