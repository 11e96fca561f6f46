//! Experiment E14: parallel-execution speedups, written as a machine-
//! readable `BENCH_parallel.json`.
//!
//! Two workloads, each at jobs ∈ {1, 2, all cores}:
//!
//! * **explorer** — the bounded exhaustive TLS check (E10 scope) on the
//!   level-synchronous parallel BFS;
//! * **prover** — the inv1 proof score (init + 27 transition obligations)
//!   fanned out over worker threads on cloned specs.
//!
//! Both are deterministic: the JSON records per-jobs wall time,
//! throughput, and speedup vs. jobs=1, plus the verdict-relevant outputs
//! (state count / proved flag) so a reader can see they do not move.
//!
//! Environment knobs:
//!
//! * `BENCH_SAMPLES`  — timed repetitions per point (default 3; best-of-N);
//! * `BENCH_OUT`      — output path (default `<repo>/BENCH_parallel.json`);
//! * `BENCH_SMOKE=1`  — tiny limits and a temp-dir output, for CI smoke;
//! * `BENCH_GIT_REV`, `BENCH_HOSTNAME` — provenance stamps recorded in the
//!   JSON (`scripts/bench.sh` sets them; `"unknown"` when absent).

use equitls_bench::harness::bench;
use equitls_core::prelude::ProverConfig;
use equitls_mc::prelude::*;
use equitls_obs::json::JsonValue;
use equitls_obs::sink::Obs;
use equitls_tls::concrete::Scope;
use equitls_tls::{verify, TlsModel};
use std::time::Duration;

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> JsonValue {
    JsonValue::Number(v)
}

/// The jobs ladder: 1, 2, and all cores (deduplicated, ascending).
fn jobs_ladder() -> Vec<usize> {
    let mut ladder = vec![1, 2, resolve_jobs(0)];
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn speedup(baseline: Duration, d: Duration) -> f64 {
    baseline.as_secs_f64() / d.as_secs_f64().max(1e-9)
}

fn bench_explorer(samples: usize, smoke: bool) -> Vec<JsonValue> {
    println!("== explorer (bounded exhaustive TLS check)");
    let mut scope = Scope::counterexample();
    scope.max_messages = if smoke { 1 } else { 2 };
    let limits = Limits {
        max_states: 200_000,
        max_depth: scope.max_messages + 1,
    };
    let mut rows = Vec::new();
    let mut baseline = None;
    for jobs in jobs_ladder() {
        let mut states = 0usize;
        let best = bench(&format!("explorer/jobs={jobs}"), samples, || {
            let config = ExploreConfig::default();
            let result = check_scope_config_obs(&scope, &limits, jobs, &config, &Obs::noop());
            assert!(result.complete, "scope should be exhausted");
            states = result.states;
            states
        });
        let base = *baseline.get_or_insert(best);
        rows.push(obj(vec![
            ("jobs", num(jobs as f64)),
            ("states", num(states as f64)),
            ("wall_ms", num(ms(best))),
            (
                "states_per_sec",
                num(states as f64 / best.as_secs_f64().max(1e-9)),
            ),
            ("speedup_vs_jobs1", num(speedup(base, best))),
        ]));
    }
    rows
}

fn bench_prover(samples: usize, smoke: bool) -> Vec<JsonValue> {
    println!("== prover (inv1 proof score, init + 27 obligations)");
    // Smoke mode proves a cheap lemma instead of the full inv1 score.
    let property = if smoke { "lem-src-honest" } else { "inv1" };
    let mut rows = Vec::new();
    let mut baseline = None;
    for jobs in jobs_ladder() {
        let mut obligations = 0usize;
        let best = bench(&format!("prover/{property}/jobs={jobs}"), samples, || {
            let mut model = TlsModel::standard().expect("model builds");
            let config = ProverConfig {
                jobs,
                ..ProverConfig::default()
            };
            let report = verify::verify_property_opts(&mut model, property, &config, &Obs::noop())
                .expect("engine");
            assert!(report.is_proved(), "{property} should prove");
            obligations = report.steps.len() + 1;
            obligations
        });
        let base = *baseline.get_or_insert(best);
        rows.push(obj(vec![
            ("jobs", num(jobs as f64)),
            ("property", JsonValue::String(property.to_string())),
            ("obligations", num(obligations as f64)),
            ("wall_ms", num(ms(best))),
            (
                "obligations_per_sec",
                num(obligations as f64 / best.as_secs_f64().max(1e-9)),
            ),
            ("speedup_vs_jobs1", num(speedup(base, best))),
        ]));
    }
    rows
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let samples: usize = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 3 });
    let out_path = std::env::var("BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            if smoke {
                std::env::temp_dir().join("BENCH_parallel_smoke.json")
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json")
            }
        });

    // The prover recurses deeply; run everything on a big stack.
    let worker = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(move || {
            let explorer = bench_explorer(samples, smoke);
            let prover = bench_prover(samples, smoke);
            let stamp = |var: &str| {
                JsonValue::String(std::env::var(var).unwrap_or_else(|_| "unknown".to_string()))
            };
            let doc = obj(vec![
                ("experiment", JsonValue::String("E14-parallel".to_string())),
                ("git_rev", stamp("BENCH_GIT_REV")),
                ("hostname", stamp("BENCH_HOSTNAME")),
                ("cores", num(resolve_jobs(0) as f64)),
                ("samples", num(samples as f64)),
                ("smoke", JsonValue::Bool(smoke)),
                ("explorer", JsonValue::Array(explorer)),
                ("prover", JsonValue::Array(prover)),
            ]);
            std::fs::write(&out_path, format!("{doc}\n")).expect("write BENCH_parallel.json");
            println!("wrote {}", out_path.display());
        })
        .expect("spawn bench thread");
    worker.join().expect("bench thread panicked");
}
