//! Development driver: prove one property (or all) and print the report.
//!
//! ```text
//! cargo run -p equitls-tls --bin tls-prove -- inv1
//! cargo run -p equitls-tls --bin tls-prove -- --all
//! cargo run -p equitls-tls --bin tls-prove -- --variant inv2
//! cargo run -p equitls-tls --bin tls-prove -- inv1 --trace out.jsonl --metrics
//! ```
//!
//! The README's "Command line" section lists the flags and exit codes.
//! Reports are identical for every `--jobs`. A tripped budget leaves
//! obligations open with a residual naming the offending term (exit 1).
//! `--linear-scan` disables the discrimination-tree rule index
//! (diagnostic; results are bit-identical either way).

use equitls_core::prelude::{render_report_table, CoreError, ProofReport};
use equitls_obs::summary::{Align, MetricsSummary, Table};
use equitls_persist::peek_meta;
use equitls_tls::cli::{self, Flags, RunFlags, UsageError};
use equitls_tls::verify::VerifyOptions;
use equitls_tls::{out, outln, verify, TlsModel};

fn main() {
    cli::run_on_big_stack(run);
}

/// The shared run flags `tls-prove` takes.
const RUN_FLAGS: &str = "--jobs --deadline-ms --max-mem-mb --fuel --checkpoint \
    --checkpoint-every-secs --resume --trace --profile --metrics --variant";

struct Options {
    run: RunFlags,
    /// Disable the rule index; scan per-operator rule lists instead.
    linear_scan: bool,
    names: Vec<String>,
}

fn parse_args(flags: &mut Flags) -> Result<Options, UsageError> {
    let mut opts = Options {
        run: RunFlags::accepting(RUN_FLAGS),
        linear_scan: false,
        names: Vec::new(),
    };
    while let Some(arg) = flags.next() {
        if opts.run.parse(&arg, flags)? {
            continue;
        }
        match arg.as_str() {
            "--linear-scan" => opts.linear_scan = true,
            "--all" => {}
            other if other.starts_with("--") => return Err(cli::unknown_flag(other)),
            name => opts.names.push(name.to_string()),
        }
    }
    opts.run.validate()?;
    Ok(opts)
}

fn run() {
    let opts = cli::parse_env("", parse_args);
    let run = &opts.run;
    let (obs, recorder) = run.obs();

    // Peek at the snapshot header *before* the run replaces the file, so
    // the "resumed from checkpoint" line can report the snapshot's age. A
    // resume against an unreadable snapshot dies here, early and typed.
    let checkpoint = run.checkpoint.as_ref();
    let resumed_meta = checkpoint.filter(|_| run.resume).map(|path| {
        peek_meta(path)
            .unwrap_or_else(|e| cli::fail(format!("cannot resume from {}: {e}", path.display())))
    });

    let mut model = if run.variant {
        TlsModel::variant().expect("variant model builds")
    } else {
        TlsModel::standard().expect("standard model builds")
    };
    let verify_opts = VerifyOptions {
        budget: run.interruptible_budget(),
        fuel: run.fuel,
        profile_rules: recorder.is_some(),
        jobs: run.jobs,
        checkpoint_path: run.checkpoint.clone(),
        checkpoint_every_secs: run.checkpoint_every_secs,
        resume: run.resume,
        linear_scan: opts.linear_scan,
        ..VerifyOptions::default()
    };
    let mut reports = Vec::new();
    let mut failed = false;
    if opts.names.is_empty() {
        match verify::verify_all_opts(&mut model, &verify_opts, &obs) {
            Ok(rs) => reports = rs,
            Err(CoreError::Persist(e)) => cli::fail(format!("checkpoint error: {e}")),
            Err(e) => {
                eprintln!("engine error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        for name in &opts.names {
            match verify::verify_property_opts(&mut model, name, &verify_opts, &obs) {
                Ok(r) => reports.push(r),
                Err(CoreError::Persist(e)) => {
                    cli::fail(format!("checkpoint error proving {name}: {e}"))
                }
                Err(e) => {
                    eprintln!("error proving {name}: {e}");
                    failed = true;
                }
            }
        }
    }
    obs.flush();
    // Any obligation left open (budget trip, fuel exhaustion, genuinely
    // stuck case) or faulted means the campaign did not go through.
    failed |= reports.iter().any(|r| !r.is_proved());

    for r in &reports {
        outln!("{r}");
        for (action, case) in r.open_cases().into_iter().take(4) {
            outln!("  OPEN [{action}]");
            for d in &case.decisions {
                outln!("    {d}");
            }
            outln!("    residual: {}", case.residual);
        }
    }
    outln!("{}", render_report_table(&reports));

    if let Some(rec) = &recorder {
        run.write_profile(Some(rec));
        let mut summary = MetricsSummary::from_events(&rec.events());
        summary.set_dropped_events(obs.dropped_events());
        if let (Some(meta), Some(path)) = (&resumed_meta, checkpoint) {
            outln!(
                "resumed from checkpoint {} (snapshot age {}s, {} proved obligation(s) skipped)",
                path.display(),
                meta.age_secs(),
                summary.counter_total("persist.resume_skipped_obligations"),
            );
            outln!();
        }
        print_metrics(&summary, &reports);
    }
    if let Some(path) = &run.trace {
        eprintln!("trace written to {}", path.display());
    }
    let dropped = obs.dropped_events();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} observability event(s) dropped (sink I/O failed); \
             the trace and any summary derived from it are incomplete"
        );
    }
    run.exit_if_drained("tls-prove", "campaign");
    if failed {
        std::process::exit(1);
    }
}

/// Render the `--metrics` summary: hottest rules, per-invariant totals,
/// and wall-clock per phase.
fn print_metrics(summary: &MetricsSummary, reports: &[ProofReport]) {
    const TOP_N: usize = 15;

    if !summary.counters_with_prefix("rule.time_us:").is_empty() {
        outln!("hot rules (top {TOP_N} by cumulative match+fire time)");
        out!(
            "{}",
            summary.render_hot_rules(TOP_N, &["attempts", "fires"], true)
        );
        outln!();
    }

    outln!("per-invariant totals");
    let mut table = Table::new(
        &[
            "invariant",
            "passages",
            "splits",
            "rewrites",
            "cache-hit",
            "time",
            "verdict",
        ],
        &[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Left,
        ],
    );
    for r in reports {
        let m = r.total_metrics();
        let stats = r.total_rewrite_stats();
        table.row(vec![
            r.invariant.clone(),
            m.passages.to_string(),
            m.splits.to_string(),
            m.rewrites.to_string(),
            format!("{:.1}%", stats.cache_hit_rate() * 100.0),
            format!("{:.2?}", r.duration),
            if r.is_proved() { "PROVED" } else { "OPEN" }.to_string(),
        ]);
    }
    out!("{}", table.render());
    outln!();

    outln!("wall-clock per phase (latency histograms; rates omitted below 1ms)");
    out!("{}", summary.render_histogram_table());
}
