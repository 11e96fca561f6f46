//! Experiments E6/E7: the §5.3 counterexamples to properties 2′ and 3′.
//!
//! First the model checker *finds* a violation of ClientFinished
//! authenticity by breadth-first search; then the paper's exact
//! six-message trace is replayed step-by-step through the machine. The
//! anonymity corollary (clients without certificates cannot be
//! identified) is the content of these runs: the server accepts a session
//! it believes is with `a` although `a` never participated.
//!
//! ```text
//! cargo run --release --example find_attack
//! ```
//!
//! It takes no arguments; any argument is a usage error (exit 2).

use equitls::mc::prelude::*;
use equitls::obs::sink::Obs;
use equitls::tls::cli::{self, RunFlags};
use equitls::tls::concrete::{props, Scope};
use equitls::tls::outln;

fn main() {
    cli::parse_env("", |flags| RunFlags::parse_only("", flags));
    outln!("== searching for a violation of property 2' (ClientFinished authenticity) ==\n");
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let machine = TlsMachine::new(scope.clone());
    let scope_for_monitor = scope.clone();
    let monitor =
        move |s: &equitls::tls::concrete::State| props::prop2p_cf_authentic(s, &scope_for_monitor);
    let limits = Limits {
        max_states: 100_000,
        max_depth: 3,
    };
    let result = explore_with_config_jobs(
        &machine,
        &[("prop2p", &monitor)],
        &limits,
        &ExploreConfig::default(),
        1,
        &Obs::noop(),
    );
    outln!(
        "explored {} states to depth {} in {:?} (complete: {})",
        result.states,
        result.depth_reached,
        result.duration,
        result.complete
    );
    match result.violation("prop2p") {
        Some(v) => {
            outln!("VIOLATION found at depth {}:\n{}", v.depth, render_trace(v));
        }
        None => outln!("no violation found (unexpected!)"),
    }

    outln!("== replaying the paper's six-message counterexample to 2' ==\n");
    match counterexample_2prime() {
        Ok(replay) => {
            let mut prev: Option<&equitls::tls::concrete::State> = None;
            for (i, (label, state)) in replay.trace.iter().enumerate() {
                let msg = state
                    .messages()
                    .find(|m| prev.is_none_or(|p| !p.network.contains(m)))
                    .map(|m| m.to_string())
                    .unwrap_or_default();
                outln!("({}) {label:<22} {msg}", i + 1);
                prev = Some(state);
            }
            outln!("\n=> violates {}", replay.violated);
            outln!(
                "=> server p3 completed the handshake believing the client was p2,\n   \
                 but p2 never sent a message: clients are not authenticated (and\n   \
                 therefore anonymous) in TLS without client certificates."
            );
        }
        Err(e) => outln!("replay failed: {e}"),
    }

    outln!("\n== replaying the paper's counterexample to 3' (abbreviated handshake) ==\n");
    match counterexample_3prime() {
        Ok(replay) => {
            let mut prev: Option<&equitls::tls::concrete::State> = None;
            for (i, (label, state)) in replay.trace.iter().enumerate() {
                let msg = state
                    .messages()
                    .find(|m| prev.is_none_or(|p| !p.network.contains(m)))
                    .map(|m| m.to_string())
                    .unwrap_or_default();
                outln!("({}) {label:<22} {msg}", i + 1);
                prev = Some(state);
            }
            outln!("\n=> violates {}", replay.violated);
        }
        Err(e) => outln!("replay failed: {e}"),
    }
}
