//! A tiny CafeOBJ-flavoured REPL over the TLS specification.
//!
//! Loads the full symbolic model and accepts:
//!
//! * `red <term> .` — reduce a term to normal form (the CafeOBJ command
//!   the paper's proof scores revolve around);
//! * `mod! NAME { … }` — load an additional module;
//! * `modules` — list loaded modules;
//! * `quit`.
//!
//! ```text
//! $ cargo run --release --example repl
//! EquiTLS> red client(pms(intruder, ca, s)) .
//! intruder
//! ```
//!
//! Non-interactive use: pipe commands on stdin.

use equitls::tls::{out, outln, TlsModel};
use std::io::{BufRead, Write};

fn main() {
    let mut model = TlsModel::standard().expect("model builds");
    // Declare a few arbitrary constants so terms are easy to write.
    for (name, sort) in [
        ("a", "Prin"),
        ("b", "Prin"),
        ("s", "Secret"),
        ("r1", "Rand"),
        ("r2", "Rand"),
        ("i", "Sid"),
        ("c", "Choice"),
        ("l", "ListOfChoices"),
        ("p", "Protocol"),
    ] {
        let sort_id = model.spec.sort_id(sort).expect("sort exists");
        model
            .spec
            .store_mut()
            .arbitrary_constant(name, sort_id)
            .expect("fresh constant");
    }
    outln!("EquiTLS REPL — the abstract TLS handshake model is loaded.");
    outln!("Commands: red <term> . | mod! NAME {{ … }} | modules | quit");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    out!("EquiTLS> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        buffer.push_str(&line);
        buffer.push('\n');
        let trimmed = buffer.trim().to_string();
        let complete = trimmed == "quit"
            || trimmed == "modules"
            || (trimmed.starts_with("red ") && trimmed.ends_with('.'))
            || (trimmed.starts_with("mod!") && trimmed.ends_with('}'));
        if !complete {
            if !trimmed.is_empty() {
                out!("     ...> ");
                std::io::stdout().flush().ok();
            }
            continue;
        }
        buffer.clear();
        if trimmed == "quit" {
            break;
        } else if trimmed == "modules" {
            for m in model.spec.modules() {
                outln!(
                    "  {} ({} sorts, {} ops, {} equations)",
                    m.name,
                    m.sorts.len(),
                    m.ops.len(),
                    m.equations.len()
                );
            }
        } else if let Some(rest) = trimmed.strip_prefix("red ") {
            let src = rest.trim_end_matches('.').trim();
            match model.spec.parse_term(src) {
                Ok(term) => match model.spec.red(term) {
                    Ok(normal) => {
                        outln!("{}", model.spec.store().display(normal));
                    }
                    Err(e) => outln!("reduction error: {e}"),
                },
                Err(e) => outln!("parse error: {e}"),
            }
        } else if trimmed.starts_with("mod!") {
            match model.spec.load_module(&trimmed) {
                Ok(()) => outln!("module loaded."),
                Err(e) => outln!("error: {e}"),
            }
        }
        out!("EquiTLS> ");
        std::io::stdout().flush().ok();
    }
    outln!();
}
