//! Development driver: prove one property (or all) and print the report.
//!
//! ```text
//! cargo run -p equitls-tls --bin tls-prove -- inv1
//! cargo run -p equitls-tls --bin tls-prove -- --all
//! cargo run -p equitls-tls --bin tls-prove -- --variant inv2
//! cargo run -p equitls-tls --bin tls-prove -- inv1 --trace out.jsonl --metrics
//! ```
//!
//! `--trace <path.jsonl>` streams every observability event (spans,
//! counters, gauges) as newline-delimited JSON; `--metrics` turns on
//! per-rule profiling and prints summary tables (hot rules, obligation
//! latency histograms, per-invariant totals, wall-clock per phase) at the
//! end of the run; `--profile <path.json>` additionally writes the run as
//! Chrome trace-event JSON (open in Perfetto or `about://tracing`;
//! convert or diff with `tls-trace`); `--jobs N` fans proof obligations
//! out over N worker threads (default: available parallelism; reports
//! are identical for every N — profiling never changes a verdict).
//!
//! Robustness flags: `--deadline-ms N` bounds the whole run by wall
//! clock, `--max-mem-mb N` caps the term-arena heap estimate, and
//! `--fuel N` overrides the per-reduction rewrite fuel. A tripped budget
//! leaves the affected obligations *open* (with a `(budget: …)` or fuel
//! residual naming the offending term) and the process exits 1 — it
//! never dies mid-proof.
//!
//! Checkpoint flags: `--checkpoint <path>` records every finished proof
//! obligation in a crash-safe ledger snapshot (atomically rewritten at
//! obligation boundaries; throttle with `--checkpoint-every-secs N`);
//! `--resume` reloads the ledger and skips obligations it already proved.
//!
//! Engine flag: `--linear-scan` disables the discrimination-tree rule
//! index and matches rules by scanning per-operator lists (diagnostic;
//! results are bit-identical either way).
//!
//! Exit codes: **0** every requested property proved; **1** at least one
//! obligation open or faulted (budget trip, fuel exhaustion, stuck case);
//! **2** usage error or unusable checkpoint snapshot (missing, truncated,
//! corrupt, or wrong version — corruption is always a typed error, never
//! a garbage resume).

use equitls_core::prelude::{render_report_table, CoreError, ProofReport};
use equitls_obs::sink::{EventSink, JsonlSink, Obs, RecordingSink, TeeSink};
use equitls_obs::summary::{Align, MetricsSummary, Table};
use equitls_obs::trace::Trace;
use equitls_persist::{peek_meta, signal, SnapshotMeta};
use equitls_rewrite::budget::Budget;
use equitls_tls::verify::VerifyOptions;
use equitls_tls::{verify, TlsModel};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Deep proof searches recurse heavily; run on a large stack.
    let child = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(run)
        .expect("spawn prover thread");
    child.join().expect("prover thread panicked");
}

struct Options {
    variant: bool,
    metrics: bool,
    trace: Option<std::path::PathBuf>,
    /// Chrome trace-event JSON output path (implies profiling).
    profile: Option<std::path::PathBuf>,
    /// Worker threads for proof obligations; `0` = available parallelism.
    jobs: usize,
    /// Wall-clock budget for the whole run, in milliseconds.
    deadline_ms: Option<u64>,
    /// Heap-estimate ceiling, in mebibytes.
    max_mem_mb: Option<u64>,
    /// Rewriting fuel per reduction (default: prover default).
    fuel: Option<u64>,
    /// Obligation-ledger snapshot path.
    checkpoint: Option<std::path::PathBuf>,
    /// Minimum seconds between ledger writes (0 = every obligation).
    checkpoint_every_secs: u64,
    /// Resume from the ledger at `checkpoint`.
    resume: bool,
    /// Disable the rule index; scan per-operator rule lists instead.
    linear_scan: bool,
    names: Vec<String>,
}

/// Parse the flag argument that must follow `flag`, exiting with the
/// usage hint on a missing or malformed value.
fn numeric_flag(args: &mut impl Iterator<Item = String>, flag: &str, hint: &str) -> u64 {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs {hint}");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut opts = Options {
        variant: false,
        metrics: false,
        trace: None,
        profile: None,
        jobs: 0,
        deadline_ms: None,
        max_mem_mb: None,
        fuel: None,
        checkpoint: None,
        checkpoint_every_secs: 0,
        resume: false,
        linear_scan: false,
        names: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--variant" => opts.variant = true,
            "--metrics" => opts.metrics = true,
            "--trace" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--trace needs a file path (e.g. --trace out.jsonl)");
                    std::process::exit(2);
                });
                opts.trace = Some(path.into());
            }
            "--profile" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--profile needs a file path (e.g. --profile run.json)");
                    std::process::exit(2);
                });
                opts.profile = Some(path.into());
            }
            "--jobs" => {
                opts.jobs = numeric_flag(
                    &mut args,
                    "--jobs",
                    "a thread count (e.g. --jobs 4; 0 = all cores)",
                ) as usize;
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(numeric_flag(
                    &mut args,
                    "--deadline-ms",
                    "a duration in milliseconds (e.g. --deadline-ms 2000)",
                ));
            }
            "--max-mem-mb" => {
                opts.max_mem_mb = Some(numeric_flag(
                    &mut args,
                    "--max-mem-mb",
                    "a size in mebibytes (e.g. --max-mem-mb 512)",
                ));
            }
            "--fuel" => {
                opts.fuel = Some(numeric_flag(
                    &mut args,
                    "--fuel",
                    "a rewrite-step budget (e.g. --fuel 5000000)",
                ));
            }
            "--checkpoint" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--checkpoint needs a file path (e.g. --checkpoint campaign.snap)");
                    std::process::exit(2);
                });
                opts.checkpoint = Some(path.into());
            }
            "--checkpoint-every-secs" => {
                opts.checkpoint_every_secs = numeric_flag(
                    &mut args,
                    "--checkpoint-every-secs",
                    "a duration in seconds (e.g. --checkpoint-every-secs 30; 0 = every obligation)",
                );
            }
            "--resume" => opts.resume = true,
            "--linear-scan" => opts.linear_scan = true,
            "--all" => {}
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            name => opts.names.push(name.to_string()),
        }
    }
    if opts.resume && opts.checkpoint.is_none() {
        eprintln!("--resume needs --checkpoint <path> (the snapshot to resume from)");
        std::process::exit(2);
    }
    opts
}

fn run() {
    let opts = parse_args();
    // Assemble the sink stack: a JSONL stream when tracing, an in-memory
    // recorder when summarizing or profiling, a tee when both.
    let want_recorder = opts.metrics || opts.profile.is_some();
    let recorder = want_recorder.then(|| Arc::new(RecordingSink::new()));
    let mut sinks: Vec<Arc<dyn EventSink>> = Vec::new();
    if let Some(path) = &opts.trace {
        match JsonlSink::create(path) {
            Ok(sink) => sinks.push(Arc::new(sink)),
            Err(e) => {
                eprintln!("cannot open trace file {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(rec) = &recorder {
        sinks.push(rec.clone());
    }
    let obs = match sinks.len() {
        0 => Obs::noop(),
        1 => Obs::new(sinks.pop().expect("one sink")),
        _ => Obs::new(Arc::new(TeeSink::new(sinks))),
    };

    // Peek at the snapshot header *before* the run replaces the file, so
    // the "resumed from checkpoint" line can report the snapshot's age. A
    // resume against an unreadable snapshot dies here, early and typed.
    let resumed_meta: Option<SnapshotMeta> = if opts.resume {
        let path = opts.checkpoint.as_ref().expect("checked at parse time");
        match peek_meta(path) {
            Ok(meta) => Some(meta),
            Err(e) => {
                eprintln!("cannot resume from {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    } else {
        None
    };

    let mut model = if opts.variant {
        TlsModel::variant().expect("variant model builds")
    } else {
        TlsModel::standard().expect("standard model builds")
    };
    let mut budget = Budget::unlimited();
    if let Some(ms) = opts.deadline_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(mb) = opts.max_mem_mb {
        budget = budget.with_max_mem_mb(mb);
    }
    // Signal-drain: SIGINT/SIGTERM cancel the campaign's shared budget
    // token. The prover stops cooperatively at the next passage
    // boundary, the obligation ledger gets its final checkpoint, and the
    // process exits 130 — so an interrupted campaign resumes with
    // `--resume` instead of losing finished obligations.
    signal::install_term_flag();
    let term_token = budget.cancel_token();
    std::thread::Builder::new()
        .name("term-watcher".into())
        .spawn(move || {
            while !signal::term_requested() {
                std::thread::sleep(Duration::from_millis(25));
            }
            term_token.cancel();
        })
        .expect("spawn term watcher");
    let verify_opts = VerifyOptions {
        budget,
        fuel: opts.fuel,
        profile_rules: want_recorder,
        jobs: opts.jobs,
        checkpoint_path: opts.checkpoint.clone(),
        checkpoint_every_secs: opts.checkpoint_every_secs,
        resume: opts.resume,
        linear_scan: opts.linear_scan,
        ..VerifyOptions::default()
    };
    let mut reports = Vec::new();
    let mut failed = false;
    if opts.names.is_empty() {
        match verify::verify_all_opts(&mut model, &verify_opts, &obs) {
            Ok(rs) => reports = rs,
            Err(e) => exit_engine_error(&e),
        }
    } else {
        for name in &opts.names {
            match verify::verify_property_opts(&mut model, name, &verify_opts, &obs) {
                Ok(r) => reports.push(r),
                Err(CoreError::Persist(e)) => {
                    eprintln!("checkpoint error proving {name}: {e}");
                    std::process::exit(2);
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
        println!("{r}");
        for (action, case) in r.open_cases().into_iter().take(4) {
            println!("  OPEN [{action}]");
            for d in &case.decisions {
                println!("    {d}");
            }
            println!("    residual: {}", case.residual);
        }
    }
    println!("{}", render_report_table(&reports));

    if let Some(rec) = &recorder {
        if let Some(path) = &opts.profile {
            let chrome = Trace::from_events(rec.timed_events()).chrome_trace();
            match std::fs::write(path, chrome.to_string()) {
                Ok(()) => eprintln!(
                    "Chrome trace written to {} (open in Perfetto)",
                    path.display()
                ),
                Err(e) => {
                    eprintln!("cannot write profile {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        let mut summary = MetricsSummary::from_events(&rec.events());
        summary.set_dropped_events(obs.dropped_events());
        if let Some(meta) = &resumed_meta {
            let path = opts.checkpoint.as_ref().expect("checked at parse time");
            println!(
                "resumed from checkpoint {} (snapshot age {}s, {} proved obligation(s) skipped)",
                path.display(),
                meta.age_secs(),
                summary.counter_total("persist.resume_skipped_obligations"),
            );
            println!();
        }
        print_metrics(&summary, &reports);
    }
    if let Some(path) = &opts.trace {
        eprintln!("trace written to {}", path.display());
    }
    let dropped = obs.dropped_events();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} observability event(s) dropped (sink I/O failed); \
             the trace and any summary derived from it are incomplete"
        );
    }
    // A signal-initiated drain outranks the pass/fail verdict: the
    // cancelled obligations are *open by interruption*, not refuted, and
    // exit 130 tells callers (and scripts) to resume rather than report.
    if signal::term_requested() {
        let checkpointed = opts
            .checkpoint
            .as_ref()
            .map(|p| format!("; checkpoint {} written, resume with --resume", p.display()))
            .unwrap_or_default();
        eprintln!(
            "tls-prove: {} received, campaign drained{checkpointed}",
            signal::term_signal_name().unwrap_or("termination signal"),
        );
        std::process::exit(signal::TERM_EXIT_CODE);
    }
    if failed {
        std::process::exit(1);
    }
}

/// Exit on an engine error from the full campaign: snapshot problems are
/// usage-class failures (exit 2), anything else is a failed run (exit 1).
fn exit_engine_error(e: &CoreError) -> ! {
    match e {
        CoreError::Persist(e) => {
            eprintln!("checkpoint error: {e}");
            std::process::exit(2);
        }
        other => {
            eprintln!("engine error: {other}");
            std::process::exit(1);
        }
    }
}

/// Render the `--metrics` summary: hottest rules, per-invariant totals,
/// and wall-clock per phase.
fn print_metrics(summary: &MetricsSummary, reports: &[ProofReport]) {
    const TOP_N: usize = 15;

    let hot = summary.counters_with_prefix("rule.time_us:");
    if !hot.is_empty() {
        println!("hot rules (top {TOP_N} by cumulative match+fire time)");
        let mut table = Table::new(
            &["rule", "attempts", "fires", "time"],
            &[Align::Left, Align::Right, Align::Right, Align::Right],
        );
        for (label, time_us) in hot.into_iter().take(TOP_N) {
            table.row(vec![
                label.clone(),
                summary
                    .counter_total(&format!("rule.attempts:{label}"))
                    .to_string(),
                summary
                    .counter_total(&format!("rule.fires:{label}"))
                    .to_string(),
                format!("{:.2?}", std::time::Duration::from_micros(time_us)),
            ]);
        }
        print!("{}", table.render());
        println!();
    }

    println!("per-invariant totals");
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
    print!("{}", table.render());
    println!();

    println!("wall-clock per phase (latency histograms; rates omitted below 1ms)");
    print!("{}", summary.render_histogram_table());
}
