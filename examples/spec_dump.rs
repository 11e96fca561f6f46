//! Export the TLS specification as CafeOBJ-style text.
//!
//! Prints every module of the symbolic model (declarations plus equation
//! counts) in the surface DSL — the closest thing to the paper's CafeOBJ
//! source listing. Pipe to a file to get a `.cafe`-style artifact:
//!
//! ```text
//! cargo run --release --example spec_dump > tls.cafe
//! ```

use equitls::spec::prelude::render_spec_module;
use equitls::tls::{outln, TlsModel};

fn main() {
    let model = TlsModel::standard().expect("model builds");
    outln!("-- EquiTLS: the abstract TLS handshake protocol (Figure 2)");
    outln!(
        "-- {} modules, {} operators, {} transitions\n",
        model.spec.modules().len(),
        model.spec.store().signature().op_count(),
        model.ots.actions.len(),
    );
    for module in model.spec.modules() {
        if module.name == "BOOL" {
            continue; // built-in
        }
        if let Some(text) = render_spec_module(&model.spec, &module.name) {
            outln!("{text}\n");
        }
    }
    outln!("-- properties ({}):", model.invariants.len());
    for (name, params, body) in equitls::tls::symbolic::properties::PROPERTIES {
        outln!("--   {name}({}) :", params.join(", "));
        for line in body.lines() {
            outln!("--     {}", line.trim());
        }
    }
}
