//! Experiments E9 and E8: the full verification campaign on the standard
//! protocol and on the §5.3 variant (ClientFinished2 first).
//!
//! The paper reports that verifying its 18 invariants took "about one
//! week" of proof-score writing; this binary regenerates the
//! machine-checked analogue: per-invariant passages, splits, rewrite
//! steps, and wall-clock time.
//!
//! ```text
//! cargo run --release --example proof_report            # standard
//! cargo run --release --example proof_report -- --variant
//! ```

use equitls::core::prelude::render_report_table;
use equitls::obs::sink::Obs;
use equitls::tls::cli::{self, RunFlags};
use equitls::tls::verify::{verify_all_opts, VerifyOptions};
use equitls::tls::{outln, TlsModel};

fn main() {
    cli::run_on_big_stack(run);
}

fn run() {
    let run = cli::parse_env("", |flags| RunFlags::parse_only("--variant", flags));
    let mut model = if run.variant {
        outln!("== §5.3 variant: ClientFinished2 precedes ServerFinished2 ==\n");
        TlsModel::variant().expect("variant model builds")
    } else {
        outln!("== Figure 2 protocol: ServerFinished2 precedes ClientFinished2 ==\n");
        TlsModel::standard().expect("standard model builds")
    };
    let reports = verify_all_opts(&mut model, &VerifyOptions::default(), &Obs::noop())
        .expect("campaign runs");
    outln!("{}", render_report_table(&reports));
    let proved = reports.iter().filter(|r| r.is_proved()).count();
    outln!("{proved}/{} properties proved", reports.len());
    let passages: usize = reports.iter().map(|r| r.total_passages()).sum();
    let splits: usize = reports.iter().map(|r| r.total_splits()).sum();
    outln!("{passages} proof passages, {splits} case splits in total");
    outln!(
        "(the paper: \"it took about one week to verify 18 invariants\"; \
         the mechanized campaign replays in seconds)"
    );
}
