//! Experiment E9: observing a proof — tracing and effort metrics.
//!
//! The paper reports its verification effort in human terms (about a
//! week, §1/§7); the machine-checked analogue is the event stream the
//! prover emits. This example proves the PMS-secrecy property (inv1)
//! twice:
//!
//! 1. with a recording sink, to fold the events into summary tables
//!    (hot rewrite rules, wall-clock per proof obligation);
//! 2. with a JSONL sink, to stream the same events to
//!    `target/observe-trace.jsonl` for offline analysis.
//!
//! ```text
//! cargo run --release --example observe [-- --profile <out.json>]
//! ```
//!
//! `--profile <out.json>` additionally converts the recorded events to a
//! Chrome trace (open in Perfetto or `about://tracing`).

use equitls::core::prelude::ProverConfig;
use equitls::obs::sink::{JsonlSink, Obs, RecordingSink};
use equitls::obs::summary::{Align, MetricsSummary, Table};
use equitls::tls::cli::{self, RunFlags};
use equitls::tls::verify::verify_property_opts;
use equitls::tls::{outln, TlsModel};
use std::sync::Arc;

fn main() {
    // Deep proof searches recurse heavily; run on a large stack.
    cli::run_on_big_stack(run);
}

fn run() {
    let run = cli::parse_env("", |flags| RunFlags::parse_only("--profile", flags));

    outln!("== proving inv1 (PMS secrecy) with a recording sink ==\n");
    let recorder = Arc::new(RecordingSink::new());
    let obs = Obs::new(recorder.clone());
    let mut model = TlsModel::standard().expect("model builds");
    let config = ProverConfig {
        profile_rules: true,
        ..ProverConfig::default()
    };
    let report = verify_property_opts(&mut model, "inv1", &config, &obs).expect("prover runs");
    assert!(report.is_proved());

    let summary = MetricsSummary::from_events(&recorder.events());

    outln!("proof effort (the report's own totals):");
    let totals = report.total_metrics();
    outln!(
        "  passages {}  splits {}  rewrites {}  max-depth {}  wall-clock {:.2?}",
        totals.passages,
        totals.splits,
        totals.rewrites,
        totals.max_depth,
        report.duration
    );
    outln!(
        "  cache hit rate {:.1}%\n",
        report.total_rewrite_stats().cache_hit_rate() * 100.0
    );

    outln!("hottest rewrite rules (by cumulative match+fire time):");
    outln!(
        "{}",
        summary.render_hot_rules(8, &["attempts", "fires"], false)
    );

    outln!("slowest proof obligations:");
    let mut spans = Table::new(&["obligation", "time"], &[Align::Left, Align::Right]);
    for (name, agg) in summary.spans_by_total().into_iter().take(8) {
        spans.row(vec![name, format!("{:.2?}", agg.total)]);
    }
    outln!("{}", spans.render());

    run.write_profile(Some(&recorder));

    // Second run: stream the same events as JSONL for offline analysis.
    let path = std::path::Path::new("target/observe-trace.jsonl");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let jsonl = JsonlSink::create(path).expect("trace file opens");
    let obs = Obs::new(Arc::new(jsonl));
    let mut model = TlsModel::standard().expect("model builds");
    let config = ProverConfig {
        profile_rules: true,
        ..ProverConfig::default()
    };
    let report = verify_property_opts(&mut model, "inv1", &config, &obs).expect("prover runs");
    obs.flush();
    assert!(report.is_proved());
    let lines = std::fs::read_to_string(path)
        .map(|s| s.lines().count())
        .unwrap_or(0);
    outln!(
        "== JSONL trace: {lines} events written to {} ==",
        path.display()
    );
}
