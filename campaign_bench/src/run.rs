//! One benchmark run: iterations of one workload, each in a child
//! process, for a fixed time; then the metrics `BENCHMARK.json` declares.

use crate::calibration::{sample_during, REFERENCE_S};
use crate::child::Report;
use crate::metrics::{attribution, per_layer, Metric, Traced};
use crate::stats::{median, quantile, shuffle, Provenance};
use crate::Workload;
use equitls_obs::json::{self, JsonValue};
use equitls_obs::rng::SplitMix64;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

/// What one run measures.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Fixes the order of the work; every seed does the same work.
    pub seed: u64,
    /// How long the run measures. No iteration starts that the previous
    /// ones predict would end later than this.
    pub seconds: f64,
    /// Report per-layer metrics from traced iterations instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// One small iteration of each kind, for the schema test.
    pub smoke: bool,
    /// Append the result, with provenance, to this file.
    pub record: Option<PathBuf>,
}

/// One finished iteration.
struct Done {
    kind: &'static str,
    traced: bool,
    /// From spawning the child to its `ready` line.
    setup_s: f64,
    report: Report,
}

/// Run the benchmark; returns the exit code (0 when every verdict agreed
/// with the reference table).
pub fn run(args: &RunArgs) -> i32 {
    let provenance = Provenance::measure();
    println!(
        "equitls-campaign-bench: workload {}, seed {}, {} s, trace {}, git {}, host {}, nproc {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance.git_rev,
        provenance.hostname,
        provenance.nproc
    );
    // Interleave the iteration types, in an order the seed fixes. A
    // traced run also times untraced iterations, for `trace_overhead`.
    let mut types: Vec<(&'static str, bool)> = args
        .workload
        .kinds()
        .iter()
        .flat_map(|&kind| {
            let traced: &[bool] = if args.trace { &[false, true] } else { &[false] };
            traced.iter().map(move |&t| (kind, t))
        })
        .collect();
    shuffle(&mut types, &mut SplitMix64::new(args.seed));
    // The sampler needs a processor the iteration leaves free; beside a
    // workload that computes on all of them it would time the workload.
    let calibrate = args.workload.threads() < provenance.nproc;

    let start = Instant::now();
    let mut done: Vec<Done> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut crashed = 0;
    let mut kernel_s = Vec::new();
    for index in 0.. {
        let (kind, traced) = types[index % types.len()];
        if index >= types.len() {
            let predicted = done
                .iter()
                .filter(|d| d.kind == kind && d.traced == traced)
                .map(|d| d.setup_s + d.report.wall_s)
                .fold(0.0, f64::max);
            if args.smoke || start.elapsed().as_secs_f64() + predicted > args.seconds {
                break;
            }
        }
        let kernel = calibrate.then_some(&mut kernel_s);
        match iterate(args, kind, traced, index, kernel) {
            Ok(d) => {
                print_iteration(index, &d);
                failures.extend(d.report.failures.iter().cloned());
                done.push(d);
            }
            Err(e) => {
                failures.push(e);
                crashed += 1;
                break;
            }
        }
    }

    let calibration_s = calibrate.then(|| median(&kernel_s));
    let scale = match calibration_s {
        Some(kernel) => {
            let scale = REFERENCE_S / kernel;
            println!(
                "calibration kernel: median {kernel:.6} s over {} slices; end-to-end times scaled by {scale:.4}",
                kernel_s.len()
            );
            scale
        }
        None => {
            println!(
                "calibration off: the workload computes on all {} processors; end-to-end times unscaled",
                provenance.nproc
            );
            1.0
        }
    };
    let (metrics, measured) = if args.trace {
        let traced = traced_side(args.workload, &done);
        print_attribution(args.workload, &traced);
        (per_layer(args.workload, &traced), Vec::new())
    } else {
        let measured = end_to_end(args.workload, &done);
        println!("measured, before scaling:");
        print_metrics(&measured);
        (scaled(&measured, scale), measured)
    };
    print_metrics(&metrics);
    for f in &failures {
        println!("FAILED: {f}");
    }
    let attempted = done.iter().map(|d| d.report.attempted).sum::<u64>() + crashed;
    let result = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(failures.is_empty())),
        (
            "attempted".into(),
            JsonValue::Number(attempted.max(1) as f64),
        ),
        ("failed".into(), JsonValue::Number(failures.len() as f64)),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    if let Some(path) = &args.record {
        let run = Record {
            args,
            provenance: &provenance,
            done: &done,
            calibration_s,
            measured: &measured,
        };
        if let Err(e) = record(path, &run, &result) {
            eprintln!("cannot record to {}: {e}", path.display());
            return 2;
        }
    }
    println!("{result}");
    i32::from(!failures.is_empty())
}

/// Run one iteration in a child process (a re-execution of this binary),
/// timing calibration slices beside it into `kernel_s` when one is given.
fn iterate(
    args: &RunArgs,
    kind: &'static str,
    traced: bool,
    index: usize,
    kernel_s: Option<&mut Vec<f64>>,
) -> Result<Done, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot find the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", args.workload.name(), "--kind", kind])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--index",
            &index.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::piped());
    let outcome = match kernel_s {
        Some(kernel_s) => {
            let (outcome, samples) = sample_during(|| run_child(cmd));
            kernel_s.extend(samples);
            outcome
        }
        None => run_child(cmd),
    };
    match outcome? {
        (status, Some(setup_s), Some(report)) if status.success() => Ok(Done {
            kind,
            traced,
            setup_s,
            report,
        }),
        (status, ..) => Err(format!("iteration {index} ({kind}) failed: {status}")),
    }
}

/// Start an iteration, pass its other output lines through, and wait for
/// it: its exit status, its set-up time (to the `ready` line) and its
/// report.
fn run_child(mut cmd: Command) -> Result<(ExitStatus, Option<f64>, Option<Report>), String> {
    let started = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start an iteration: {e}"))?;
    let mut setup_s = None;
    let mut report = None;
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if line == "ready" {
                setup_s = Some(started.elapsed().as_secs_f64());
            } else if let Some(payload) = line.strip_prefix("result ") {
                report = json::parse(payload)
                    .ok()
                    .and_then(|v| Report::from_json(&v));
            } else {
                println!("{line}");
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for an iteration: {e}"))?;
    Ok((status, setup_s, report))
}

/// Finished iterations of each kind, in [`Workload::kinds`] order.
fn by_kind(workload: Workload, done: &[Done], traced: bool) -> Vec<Vec<&Done>> {
    workload
        .kinds()
        .iter()
        .map(|kind| {
            done.iter()
                .filter(|d| d.kind == *kind && d.traced == traced)
                .collect()
        })
        .collect()
}

/// One full iteration of the workload: the median of each kind, summed
/// over the kinds (a `prove` campaign is one standard plus one variant
/// iteration).
fn sum_of_medians(groups: &[Vec<&Done>], f: impl Fn(&Done) -> f64) -> f64 {
    groups
        .iter()
        .map(|g| median(&g.iter().map(|d| f(d)).collect::<Vec<_>>()))
        .sum()
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                let entry = JsonValue::Object(vec![
                    ("value".into(), JsonValue::Number(m.value)),
                    ("unit".into(), JsonValue::String(m.unit.into())),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The metrics with every time multiplied by `scale`.
fn scaled(metrics: &[Metric], scale: f64) -> Vec<Metric> {
    metrics
        .iter()
        .map(|m| match m.unit {
            "s" | "ms" => Metric::new(m.name.clone(), m.unit, m.value * scale),
            _ => m.clone(),
        })
        .collect()
}

fn end_to_end(workload: Workload, done: &[Done]) -> Vec<Metric> {
    let groups = by_kind(workload, done, false);
    let verdicts: Vec<f64> = groups
        .iter()
        .flatten()
        .flat_map(|d| d.report.verdict_ms.iter().copied())
        .collect();
    let peak_kib = groups
        .iter()
        .map(|g| {
            median(
                &g.iter()
                    .map(|d| d.report.rss_kib as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .fold(0.0, f64::max);
    println!("verdict latency samples: {}", verdicts.len());
    for (kind, g) in workload.kinds().iter().zip(&groups) {
        let walls: Vec<f64> = g.iter().map(|d| d.report.wall_s).collect();
        println!(
            "wall_s {kind}: min {:.4} median {:.4} max {:.4} over {} iterations",
            quantile(&walls, 0.0),
            median(&walls),
            quantile(&walls, 1.0),
            walls.len()
        );
    }
    vec![
        Metric::new("setup_s", "s", sum_of_medians(&groups, |d| d.setup_s)),
        Metric::new("wall_s", "s", sum_of_medians(&groups, |d| d.report.wall_s)),
        Metric::new("cpu_s", "s", sum_of_medians(&groups, |d| d.report.cpu_s)),
        Metric::new("verdict_p50_ms", "ms", quantile(&verdicts, 0.5)),
        Metric::new("verdict_p90_ms", "ms", quantile(&verdicts, 0.9)),
        Metric::new("peak_rss_mb", "MB", peak_kib * 1024.0 / 1e6),
    ]
}

fn traced_side(workload: Workload, done: &[Done]) -> Traced {
    let traced = by_kind(workload, done, true);
    let mut raw: BTreeMap<String, f64> = BTreeMap::new();
    for group in &traced {
        let keys: std::collections::BTreeSet<&String> =
            group.iter().flat_map(|d| d.report.layers.keys()).collect();
        for key in keys {
            let values: Vec<f64> = group
                .iter()
                .map(|d| d.report.layers.get(key).copied().unwrap_or(0.0))
                .collect();
            *raw.entry(key.clone()).or_insert(0.0) += median(&values);
        }
    }
    Traced {
        raw,
        wall_s: sum_of_medians(&traced, |d| d.report.wall_s),
        setup_s: sum_of_medians(&traced, |d| d.setup_s),
        untraced_wall_s: sum_of_medians(&by_kind(workload, done, false), |d| d.report.wall_s),
    }
}

fn print_iteration(index: usize, d: &Done) {
    println!(
        "iteration {index:>3} {:<9} traced {} setup {:.4} s wall {:.4} s cpu {:.2} s rss {:.1} MB verdicts {} failed {}",
        d.kind,
        u8::from(d.traced),
        d.setup_s,
        d.report.wall_s,
        d.report.cpu_s,
        d.report.rss_kib as f64 * 1024.0 / 1e6,
        d.report.attempted,
        d.report.failures.len()
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn print_attribution(workload: Workload, traced: &Traced) {
    println!(
        "attribution of {:.4} s traced wall time ({})",
        traced.wall_s,
        workload.name()
    );
    for (layer, secs) in attribution(workload, traced) {
        let share = if traced.wall_s > 0.0 {
            100.0 * secs / traced.wall_s
        } else {
            0.0
        };
        println!("  {layer:<26} {secs:>10.4} s {share:>7.2} %");
    }
}

/// What a record says about the run besides its result.
struct Record<'a> {
    args: &'a RunArgs,
    provenance: &'a Provenance,
    done: &'a [Done],
    /// Median calibration slice; `None` when the run was not calibrated.
    calibration_s: Option<f64>,
    /// End-to-end metrics before scaling (empty for a traced run).
    measured: &'a [Metric],
}

/// Append one line: the result with the run's provenance.
fn record(path: &Path, run: &Record<'_>, result: &JsonValue) -> std::io::Result<()> {
    let Record {
        args,
        provenance,
        done,
        ..
    } = run;
    let iterations = args
        .workload
        .kinds()
        .iter()
        .map(|kind| {
            let n = done.iter().filter(|d| d.kind == *kind).count();
            (kind.to_string(), JsonValue::Number(n as f64))
        })
        .collect();
    let line = JsonValue::Object(vec![
        (
            "workload".into(),
            JsonValue::String(args.workload.name().into()),
        ),
        ("seed".into(), JsonValue::Number(args.seed as f64)),
        ("seconds".into(), JsonValue::Number(args.seconds)),
        (
            "trace".into(),
            JsonValue::Number(f64::from(u8::from(args.trace))),
        ),
        ("smoke".into(), JsonValue::Bool(args.smoke)),
        (
            "git_rev".into(),
            JsonValue::String(provenance.git_rev.clone()),
        ),
        (
            "hostname".into(),
            JsonValue::String(provenance.hostname.clone()),
        ),
        ("nproc".into(), JsonValue::Number(provenance.nproc as f64)),
        ("iterations".into(), JsonValue::Object(iterations)),
        (
            "calibration_s".into(),
            run.calibration_s.map_or(JsonValue::Null, JsonValue::Number),
        ),
        ("measured".into(), metrics_json(run.measured)),
        ("result".into(), result.clone()),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")?;
    file.sync_all()
}
