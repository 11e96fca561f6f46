//! `--compare A B`: how far set B's medians moved from set A's, against
//! the bounds `BENCHMARK.json` fixes.
//!
//! A set is a file of run records, one JSON object per line, as
//! `--record` appends them (`run_set.sh` makes one). Only untraced runs
//! carry end-to-end metrics; traced runs are ignored here.

use crate::stats::{median, quartile_spread};
use crate::Workload;
use equitls_obs::json::{self, JsonValue};
use std::path::Path;

/// The benchmark's declaration, next to this package.
const BENCHMARK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Absolute slack of a time metric, in seconds: a change smaller than
/// this is never a regression, whatever its share. Set-up times of a few
/// milliseconds move by more than a quarter with process-spawn jitter
/// alone. `BENCHMARK.json` has no field for it, so it lives here.
const TIME_FLOOR_S: f64 = 0.005;

/// One end-to-end metric's regression bound.
struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Share of A's median by which B's may be worse.
    bound: f64,
}

impl Bound {
    /// How much worse than `base` a median may be: the bound's share of
    /// it, and for a time at least [`TIME_FLOOR_S`].
    fn allowance(&self, base: f64) -> f64 {
        let floor = match self.unit.as_str() {
            "s" => TIME_FLOOR_S,
            "ms" => TIME_FLOOR_S * 1e3,
            _ => 0.0,
        };
        (self.bound * base).max(floor)
    }
}

fn read_bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(BENCHMARK).map_err(|e| format!("{BENCHMARK}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{BENCHMARK}: {e}"))?;
    let Some(JsonValue::Array(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{BENCHMARK}: no end_to_end list"));
    };
    metrics
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{BENCHMARK}: malformed end_to_end entry"))
}

fn read_records(path: &Path) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| json::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// The set's untraced runs of `workload`.
fn runs(records: &[JsonValue], workload: Workload) -> Vec<&JsonValue> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(workload.name()))
        .filter(|r| r.get("trace").and_then(JsonValue::as_f64) == Some(0.0))
        .collect()
}

/// Where a record keeps its metrics: the result's (scaled) ones, or the
/// measured ones before scaling.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    Result,
    Measured,
}

/// The values of `metric` in `runs`.
fn values(runs: &[&JsonValue], source: Source, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            let metrics = match source {
                Source::Result => r.get("result")?.get("metrics")?,
                Source::Measured => r.get("measured")?,
            };
            metrics.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

/// Runs of the set that failed or disagreed with the reference table.
fn failures(records: &[JsonValue]) -> usize {
    records
        .iter()
        .filter(|r| {
            let result = r.get("result");
            result.and_then(|x| x.get("correct")) != Some(&JsonValue::Bool(true))
                || result
                    .and_then(|x| x.get("failed"))
                    .and_then(JsonValue::as_f64)
                    != Some(0.0)
        })
        .count()
}

/// Print one row per workload of each metric's median change from `a` to
/// `b`; returns whether any is worse than its bound allows.
fn changes(bounds: &[Bound], a: &[JsonValue], b: &[JsonValue], source: Source) -> bool {
    let mut regressed = false;
    print!("{:<12}", "workload");
    for m in bounds {
        print!(" {:>22}", format!("{} (≤{:.0}%)", m.name, 100.0 * m.bound));
    }
    println!();
    for workload in Workload::ALL {
        let (runs_a, runs_b) = (runs(a, workload), runs(b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        print!("{:<12}", workload.name());
        for m in bounds {
            let ma = median(&values(&runs_a, source, &m.name));
            let mb = median(&values(&runs_b, source, &m.name));
            let sign = if m.lower_is_better { 1.0 } else { -1.0 };
            let worse = sign * (mb - ma);
            let change = if ma > 0.0 { worse / ma } else { 0.0 };
            let out = worse > m.allowance(ma);
            regressed |= out;
            let mark = if out { "!" } else { "" };
            print!(" {:>22}", format!("{:+.2}%{mark}", 100.0 * change));
        }
        println!();
    }
    regressed
}

/// Compare set `b` against set `a`; returns the exit code: 1 when any
/// end-to-end median is worse than its bound allows or any run failed.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let loaded = read_bounds().and_then(|bounds| Ok((bounds, read_records(a)?, read_records(b)?)));
    let (bounds, set_a, set_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "median change of B against A; positive is worse, ! marks a change beyond the bound \
         (a time may always move by {} ms)",
        TIME_FLOOR_S * 1e3
    );
    let regressed = changes(&bounds, &set_a, &set_b, Source::Result);
    println!("the same, measured before scaling (reported, not gated)");
    changes(&bounds, &set_a, &set_b, Source::Measured);
    println!("quartile spread / median of each set (A, B); ! marks a spread beyond the bound");
    for workload in Workload::ALL {
        let (runs_a, runs_b) = (runs(&set_a, workload), runs(&set_b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        for m in &bounds {
            let spread = |runs: &[&JsonValue]| {
                let s = quartile_spread(&values(runs, Source::Result, &m.name));
                format!(
                    "{:>7.2}%{:<1}",
                    100.0 * s,
                    if s > m.bound { "!" } else { "" }
                )
            };
            println!(
                "  {:<12} {:<16} {} {}",
                workload.name(),
                m.name,
                spread(&runs_a),
                spread(&runs_b)
            );
        }
    }
    let failed = failures(&set_a) + failures(&set_b);
    if failed > 0 {
        println!("{failed} runs failed or disagreed with the reference verdicts");
    }
    i32::from(regressed || failed > 0)
}
