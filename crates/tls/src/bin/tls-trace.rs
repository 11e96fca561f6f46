//! Offline trace analysis for `.jsonl` event traces (written by
//! `tls-prove --trace`, the examples, or any [`equitls_obs::JsonlSink`]).
//!
//! ```text
//! tls-trace summarize <run.jsonl>
//! tls-trace export <run.jsonl> --chrome <out.json>
//! tls-trace export <run.jsonl> --folded <out.folded>
//! tls-trace diff <before.jsonl> <after.jsonl> [--threshold-pct N]
//! ```
//!
//! `summarize` renders the latency histograms (p50/p90/p99/max per span),
//! the hot-rule ranking over the rewrite rules, and the explorer's
//! per-level phase split. `export --chrome` converts the trace to Chrome
//! trace-event JSON (open in Perfetto or `about://tracing`); `--folded`
//! emits folded stacks for `flamegraph.pl`/`inferno`/speedscope. `diff`
//! compares the cumulative span and per-rule times of two runs and exits
//! **1** when anything slowed down by more than the threshold (default
//! 20%) — the regression gate `scripts/bench.sh` and perf PRs use.
//!
//! Exit codes: **0** success (and, for `diff`, no regression); **1**
//! regression past the threshold; **2** usage error or unreadable trace;
//! **141** stdout closed early (see the README's "Command line" section).

use equitls_obs::summary::{Align, Table};
use equitls_obs::trace::{diff_summaries, Trace, TraceDiff};
use equitls_tls::{out, outln};
use std::time::Duration;

/// Default `diff` regression threshold, in percent.
const DEFAULT_THRESHOLD_PCT: f64 = 20.0;

/// Rows shown in the ranking tables.
const TOP_N: usize = 15;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("summarize") => summarize(&args[1..]),
        Some("export") => export(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some(other) => usage(&format!("unknown command {other}")),
        None => usage("missing command"),
    };
    std::process::exit(code);
}

fn usage(complaint: &str) -> i32 {
    eprintln!(
        "{complaint}\n\
         usage: tls-trace summarize <run.jsonl>\n\
         \x20      tls-trace export <run.jsonl> --chrome <out.json> | --folded <out.folded>\n\
         \x20      tls-trace diff <before.jsonl> <after.jsonl> [--threshold-pct N]"
    );
    2
}

/// Load a trace or exit 2: an unreadable file or a file with no usable
/// event lines is a usage-class error, a few torn lines are only noted.
fn load_trace(path: &str) -> Result<Trace, i32> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Err(2);
        }
    };
    let trace = Trace::parse(&text);
    if trace.is_empty() {
        eprintln!(
            "{path} contains no trace events ({} unusable line(s)) — not a .jsonl event trace?",
            trace.skipped_lines
        );
        return Err(2);
    }
    if trace.skipped_lines > 0 {
        eprintln!(
            "note: {} unusable line(s) in {path} skipped (torn write from an interrupted run?)",
            trace.skipped_lines
        );
    }
    Ok(trace)
}

fn summarize(args: &[String]) -> i32 {
    let [path] = args else {
        return usage("summarize takes exactly one trace file");
    };
    let trace = match load_trace(path) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    let summary = trace.summary();
    outln!(
        "{}: {} events over {:.2?}\n",
        path,
        trace.events.len(),
        Duration::from_micros(trace.duration_us()),
    );

    outln!("span latency (log2-bucketed histograms; rates omitted below 1ms)");
    out!("{}", summary.render_histogram_table());
    outln!();

    let hot = summary.counters_with_prefix("rule.time_us:");
    if !hot.is_empty() {
        outln!(
            "hot rules (top {TOP_N} of {} by cumulative time)",
            hot.len()
        );
        out!(
            "{}",
            summary.render_hot_rules(TOP_N, &["attempts", "fires", "failures", "blocked"], true)
        );
        outln!();
    }

    let levels = summary.counters_with_prefix("mc.succ_us:");
    if !levels.is_empty() {
        outln!("explorer levels (successor generation vs. merge/dedup)");
        let mut table = Table::new(
            &["level", "successors", "dedup"],
            &[Align::Right, Align::Right, Align::Right],
        );
        let mut sorted = levels;
        sorted.sort_by_key(|(level, _)| level.parse::<u64>().unwrap_or(u64::MAX));
        for (level, succ_us) in sorted {
            let dedup_us = summary.counter_total(&format!("mc.dedup_us:{level}"));
            table.row(vec![
                level,
                format!("{:.2?}", Duration::from_micros(succ_us)),
                format!("{:.2?}", Duration::from_micros(dedup_us)),
            ]);
        }
        out!("{}", table.render());
        outln!();
    }
    0
}

fn export(args: &[String]) -> i32 {
    let (path, format, out) = match args {
        [path, format, out] => (path, format.as_str(), out),
        _ => return usage("export takes <run.jsonl> --chrome|--folded <out>"),
    };
    let trace = match load_trace(path) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    let rendered = match format {
        "--chrome" => trace.chrome_trace().to_string(),
        "--folded" => trace.folded(),
        other => return usage(&format!("unknown export format {other}")),
    };
    if let Err(e) = std::fs::write(out, rendered) {
        eprintln!("cannot write {out}: {e}");
        return 2;
    }
    match format {
        "--chrome" => eprintln!("Chrome trace written to {out} (open in Perfetto)"),
        _ => eprintln!("folded stacks written to {out} (feed to flamegraph.pl or speedscope)"),
    }
    0
}

fn diff(args: &[String]) -> i32 {
    let (before_path, after_path, threshold) = match args {
        [before, after] => (before, after, DEFAULT_THRESHOLD_PCT),
        [before, after, flag, value] if flag == "--threshold-pct" => match value.parse::<f64>() {
            Ok(t) if t >= 0.0 => (before, after, t),
            _ => return usage("--threshold-pct needs a non-negative percentage"),
        },
        _ => return usage("diff takes <before.jsonl> <after.jsonl> [--threshold-pct N]"),
    };
    let (before, after) = match (load_trace(before_path), load_trace(after_path)) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let result = diff_summaries(&before.summary(), &after.summary(), threshold);
    print_diff(&result, before_path, after_path);
    if result.is_clean() {
        outln!("no regression past {threshold}% — OK");
        0
    } else {
        outln!(
            "{} regression(s) past {threshold}% — FAIL",
            result.regressions().len()
        );
        1
    }
}

fn print_diff(result: &TraceDiff, before_path: &str, after_path: &str) {
    outln!("diff: {before_path} (before) vs. {after_path} (after)\n");
    let mut table = Table::new(
        &["quantity", "before", "after", "delta", ""],
        &[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Left,
        ],
    );
    let flagged: Vec<&str> = result
        .regressions()
        .iter()
        .map(|r| r.name.as_str())
        .collect();
    for row in result.rows.iter().take(TOP_N) {
        let delta = if row.delta_pct.is_infinite() {
            "new".to_string()
        } else {
            format!("{:+.1}%", row.delta_pct)
        };
        table.row(vec![
            row.name.clone(),
            format!("{:.2?}", Duration::from_micros(row.before_us)),
            format!("{:.2?}", Duration::from_micros(row.after_us)),
            delta,
            if flagged.contains(&row.name.as_str()) {
                "REGRESSION".into()
            } else {
                String::new()
            },
        ]);
    }
    out!("{}", table.render());
    if result.rows.len() > TOP_N {
        outln!("({} more row(s) not shown)", result.rows.len() - TOP_N);
    }
    outln!();
}
