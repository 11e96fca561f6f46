//! One iteration of a workload, run in a child process of its own.
//!
//! The child builds its inputs (that is the set-up), prints `ready`, does
//! the timed work, checks every verdict against [`crate::reference`], and
//! prints one `result <json>` line with its [`Report`]. A traced
//! iteration also records the program's spans and counters, writes them
//! as a Chrome trace, and reports the raw per-layer totals.

use crate::reference::{self, BOUNDS, PROPERTIES};
use crate::stats::{median, peak_rss_kib, process_cpu_seconds, shuffle};
use crate::timed::{as_monitors, monitors, Clock, TimedModel};
use crate::{Workload, OUT_DIR};
use equitls_core::prelude::{ProofReport, ProverMetrics};
use equitls_mc::check::check_scope_config_obs;
use equitls_mc::explorer::{explore_with_config_jobs, ExploreConfig, Limits};
use equitls_mc::model::TlsMachine;
use equitls_obs::json::{self, JsonValue};
use equitls_obs::rng::SplitMix64;
use equitls_obs::sink::{Obs, RecordingSink};
use equitls_obs::summary::MetricsSummary;
use equitls_obs::trace::Trace;
use equitls_rewrite::engine::RewriteStats;
use equitls_serve::engine::{Admission, ServeConfig, ServeEngine};
use equitls_serve::proto::{JobKind, JobRequest};
use equitls_tls::concrete::{props, Scope};
use equitls_tls::symbolic::TlsModel;
use equitls_tls::verify::{verify_property_opts, VerifyOptions};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Properties proved by a `--smoke` prove iteration.
const SMOKE_PROPERTIES: [&str; 2] = ["lem-src-honest", "inv4"];

/// Resident visited-set shards in `check_spill`; the rest spill.
const RESIDENT_SHARDS: usize = 8;

/// Trace buffer bound: a traced prove iteration with per-rule profiles
/// records a few hundred thousand events.
const TRACE_CAPACITY: usize = 4 << 20;

/// `Spec::clone` samples behind the per-obligation clone estimate.
const CLONE_SAMPLES: usize = 30;

/// What the parent asks one child to run.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// The workload.
    pub workload: Workload,
    /// One of [`Workload::kinds`].
    pub kind: String,
    /// The run's seed; with `index` it fixes the order of the work.
    pub seed: u64,
    /// The iteration's position in the run.
    pub index: u64,
    /// Record spans and counters and report per-layer totals.
    pub traced: bool,
    /// Run the small smoke-test version of the workload.
    pub smoke: bool,
}

impl Iteration {
    fn rng(&self) -> SplitMix64 {
        SplitMix64::new(self.seed ^ self.index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// What one iteration reports to the parent.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Wall time of the timed work, set-up excluded.
    pub wall_s: f64,
    /// Process CPU time (user + system, all threads) of the timed work.
    pub cpu_s: f64,
    /// Peak resident set size of the child process.
    pub rss_kib: u64,
    /// Latency of each verdict, in milliseconds.
    pub verdict_ms: Vec<f64>,
    /// Verdicts checked against the reference table.
    pub attempted: u64,
    /// One line per verdict that disagreed with the table or failed.
    pub failures: Vec<String>,
    /// Raw per-layer totals of a traced iteration (seconds, counts).
    pub layers: BTreeMap<String, f64>,
}

impl Report {
    /// Count one checked verdict and its latency.
    fn verdict(&mut self, secs: f64, verdict: Result<(), String>) {
        self.verdict_ms.push(secs * 1e3);
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failures.push(why);
        }
    }

    fn get(&self, key: &str) -> f64 {
        self.layers.get(key).copied().unwrap_or(0.0)
    }

    fn add(&mut self, key: &str, value: f64) {
        *self.layers.entry(key.to_string()).or_insert(0.0) += value;
    }

    /// The `result` line payload.
    pub fn to_json(&self) -> JsonValue {
        let num = JsonValue::Number;
        JsonValue::Object(vec![
            ("wall_s".into(), num(self.wall_s)),
            ("cpu_s".into(), num(self.cpu_s)),
            ("rss_kib".into(), num(self.rss_kib as f64)),
            (
                "verdict_ms".into(),
                JsonValue::Array(self.verdict_ms.iter().copied().map(num).collect()),
            ),
            ("attempted".into(), num(self.attempted as f64)),
            (
                "failures".into(),
                JsonValue::Array(
                    self.failures
                        .iter()
                        .map(|f| JsonValue::String(f.clone()))
                        .collect(),
                ),
            ),
            (
                "layers".into(),
                JsonValue::Object(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a `result` line payload.
    pub fn from_json(value: &JsonValue) -> Option<Report> {
        let f = |key: &str| value.get(key).and_then(JsonValue::as_f64);
        let items = |key: &str| match value.get(key) {
            Some(JsonValue::Array(items)) => Some(items.clone()),
            _ => None,
        };
        let layers = match value.get("layers") {
            Some(JsonValue::Object(fields)) => fields
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<BTreeMap<_, _>>>()?,
            _ => return None,
        };
        Some(Report {
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            rss_kib: f("rss_kib")? as u64,
            verdict_ms: items("verdict_ms")?
                .iter()
                .map(JsonValue::as_f64)
                .collect::<Option<_>>()?,
            attempted: f("attempted")? as u64,
            failures: items("failures")?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            layers,
        })
    }
}

/// Wall and CPU clocks started together.
struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_seconds().unwrap_or(0.0),
        }
    }

    fn stop(&self, report: &mut Report) {
        report.wall_s = self.wall.elapsed().as_secs_f64();
        report.cpu_s = process_cpu_seconds().unwrap_or(0.0) - self.cpu;
    }
}

/// Tell the parent that set-up is done and timed work starts now.
fn ready() {
    let mut out = std::io::stdout().lock();
    // The parent times set-up to this line; if the pipe is gone the
    // parent is gone too and the result line will fail the same way.
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}

/// Run one iteration and print its `result` line. Returns the exit code.
pub fn main(it: &Iteration) -> i32 {
    let it = it.clone();
    // Deep proof searches recurse heavily; run on a large stack, as the
    // program's own binaries do.
    let worker = std::thread::Builder::new()
        .name("bench-iteration".into())
        .stack_size(512 * 1024 * 1024)
        .spawn(move || run(&it));
    match worker.map(|w| w.join()) {
        Ok(Ok(Ok(report))) => {
            println!("result {}", report.to_json());
            0
        }
        Ok(Ok(Err(e))) => {
            eprintln!("iteration failed: {e}");
            1
        }
        Ok(Err(_)) => {
            eprintln!("iteration panicked");
            1
        }
        Err(e) => {
            eprintln!("cannot spawn the iteration thread: {e}");
            1
        }
    }
}

fn run(it: &Iteration) -> Result<Report, String> {
    let recorder = it
        .traced
        .then(|| Arc::new(RecordingSink::with_capacity(TRACE_CAPACITY)));
    let obs = recorder
        .as_ref()
        .map_or_else(Obs::noop, |r| Obs::new(r.clone()));
    let mut report = match it.workload {
        Workload::Prove => prove(it, &obs)?,
        Workload::Serve => serve(it, &obs)?,
        Workload::Check => check(it, &obs, false)?,
        Workload::CheckSpill => check(it, &obs, true)?,
    };
    report.rss_kib = peak_rss_kib().unwrap_or(0);
    if let Some(recorder) = recorder {
        if obs.dropped_events() > 0 {
            return Err(format!(
                "trace buffer overflowed: {} events dropped",
                obs.dropped_events()
            ));
        }
        add_program_layers(
            &mut report,
            &MetricsSummary::from_events(&recorder.events()),
        );
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.json", it.workload.name(), it.kind));
        let chrome = Trace::from_events(recorder.timed_events()).chrome_trace();
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, chrome.to_string()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("chrome trace: {}", path.display());
    }
    Ok(report)
}

/// Per-layer totals from the spans and counters the program emits.
fn add_program_layers(report: &mut Report, summary: &MetricsSummary) {
    let span_s = |name: &str| summary.span(name).map_or(0.0, |s| s.total.as_secs_f64());
    let spans_s = |prefix: &str| -> f64 {
        summary
            .spans_by_total()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, agg)| agg.total.as_secs_f64())
            .sum()
    };
    let counters = |prefix: &str| -> f64 {
        summary
            .counters_with_prefix(prefix)
            .iter()
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let normalize = summary.span("prover.normalize").unwrap_or_default();
    report.add("rewrite.normalize_s", normalize.total.as_secs_f64());
    report.add("rewrite.normalize_calls", normalize.count as f64);
    report.add("rewrite.match_fire_s", counters("rule.time_us:") / 1e6);
    report.add("core.obligation_s", spans_s("prover.obligation:"));
    for name in [
        "rewrite.rewrites",
        "rewrite.index_lookups",
        "rewrite.index_candidates",
        "rewrite.index_pruned",
        "rewrite.shared_hits",
        "rewrite.shared_misses",
        "rewrite.shared_published",
        "mc.spill_shards",
        "mc.spill_bytes",
        "mc.spill_reloads",
        "persist.bytes",
    ] {
        report.add(name, summary.counter_total(name) as f64);
    }
    report.add("mc.explore_s", spans_s("mc.level:"));
    report.add("mc.succ_phase_s", counters("mc.succ_us:") / 1e6);
    report.add("mc.merge_phase_s", counters("mc.dedup_us:") / 1e6);
    report.add("persist.write_s", span_s("persist.write"));
    report.add("persist.load_s", span_s("persist.load"));
}

/// Median time of [`CLONE_SAMPLES`] clones of a built spec: the copy
/// every proof obligation starts from.
fn clone_seconds(model: &TlsModel) -> f64 {
    let samples: Vec<f64> = (0..CLONE_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(model.spec.clone());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn add_prover_metrics(report: &mut Report, m: &ProverMetrics) {
    report.add("core.obligations", 1.0);
    report.add("core.passages", m.passages as f64);
    report.add("core.splits", m.splits as f64);
    report.add("core.vacuous", m.vacuous as f64);
    report.add("core.open", m.open as f64);
}

fn add_rewrite_stats(report: &mut Report, s: &RewriteStats) {
    report.add("rewrite.memo_hits", s.cache_hits as f64);
    report.add("rewrite.memo_misses", s.cache_misses as f64);
    report.add("rewrite.memo_evictions", s.cache_evictions as f64);
    report.add("rewrite.bool_normalizations", s.bool_normalizations as f64);
    report.add("rewrite.eq_decisions", s.eq_decisions as f64);
    report.add("rewrite.blocked_conditions", s.blocked_conditions as f64);
}

/// `prove`: the campaign on one model, one property after another, on
/// one thread — what `tls-prove --all [--variant]` does.
fn prove(it: &Iteration, obs: &Obs) -> Result<Report, String> {
    let variant = it.kind == "variant";
    let started = Instant::now();
    let mut model = if variant {
        TlsModel::variant()
    } else {
        TlsModel::standard()
    }
    .map_err(|e| format!("model build: {e}"))?;
    let build_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    model.spec.rules().path_index(model.spec.store());
    let index_s = started.elapsed().as_secs_f64();
    let terms = model.spec.store().term_count();
    ready();

    let mut plans: Vec<&str> = if it.smoke {
        SMOKE_PROPERTIES.to_vec()
    } else {
        PROPERTIES.to_vec()
    };
    shuffle(&mut plans, &mut it.rng());
    let opts = VerifyOptions {
        profile_rules: it.traced,
        ..VerifyOptions::default()
    };
    let mut report = Report::default();
    let mut proofs: Vec<ProofReport> = Vec::new();
    let clock = Stopwatch::start();
    {
        let _iteration = obs.span("bench.iteration");
        for plan in &plans {
            let started = Instant::now();
            let outcome = {
                let _property = obs.span(&format!("bench.property:{plan}"));
                verify_property_opts(&mut model, plan, &opts, obs)
            };
            let secs = started.elapsed().as_secs_f64();
            report.verdict(secs, reference::check_proof(plan, variant, &outcome));
            if it.traced {
                report.add(&format!("core.property_s.{plan}"), secs);
            }
            proofs.extend(outcome.ok());
        }
    }
    clock.stop(&mut report);

    if it.traced {
        report.add("spec.build_s", build_s);
        report.add("rewrite.index_build_s", index_s);
        report.add("kernel.terms", terms as f64);
        for proof in &proofs {
            for step in std::iter::once(&proof.base).chain(&proof.steps) {
                add_prover_metrics(&mut report, &step.metrics);
                add_rewrite_stats(&mut report, &step.rewrite_stats);
            }
        }
        // Each property clones the pristine spec once, and each of its
        // obligations clones it again.
        let clones = report.get("core.obligations") + plans.len() as f64;
        report.add("spec.clone_est_s", clone_seconds(&model) * clones);
    }
    Ok(report)
}

fn request(id: String, kind: JobKind, edit: impl FnOnce(&mut JobRequest)) -> JobRequest {
    let mut job = JobRequest::new(id, kind);
    job.jobs = Workload::Serve.threads();
    edit(&mut job);
    job
}

fn prove_request(id: String, property: &str, variant: bool) -> JobRequest {
    request(id, JobKind::Prove, |j| {
        j.property = property.to_string();
        j.variant = variant;
    })
}

/// The serve requests: every property on both models, four checks and
/// two lints (six requests in smoke mode).
fn serve_requests(smoke: bool) -> Vec<JobRequest> {
    let id = |i: usize| format!("r{i}");
    let mut requests = Vec::new();
    if smoke {
        requests.push(prove_request(id(0), "lem-src-honest", false));
        requests.push(prove_request(id(1), "inv4", true));
    } else {
        for variant in [false, true] {
            for property in PROPERTIES {
                requests.push(prove_request(id(requests.len()), property, variant));
            }
        }
    }
    let bounds: &[usize] = if smoke { &[1, 2] } else { &[2, 2, 2, 2] };
    for &bound in bounds {
        requests.push(request(id(requests.len()), JobKind::Check, |j| {
            j.max_messages = Some(bound);
        }));
    }
    for target in ["standard", "variant"] {
        requests.push(request(id(requests.len()), JobKind::Lint, |j| {
            j.target = target.to_string();
        }));
    }
    requests
}

/// Submit one request, wait for its response, and check it. Returns the
/// verdict, the server-side execution time and the stable `result`.
fn exchange(engine: &ServeEngine, req: &JobRequest) -> (Result<(), String>, f64, JsonValue) {
    let id = &req.id;
    let seq = match engine.submit(req.clone()) {
        Admission::Accepted { seq } => seq,
        Admission::Busy { line } | Admission::Shed { line } | Admission::Rejected { line } => {
            return (
                Err(format!("{id}: not admitted: {line}")),
                0.0,
                JsonValue::Null,
            );
        }
    };
    let line = engine.wait_response(seq);
    let response = match json::parse(&line) {
        Ok(v) => v,
        Err(e) => {
            return (
                Err(format!("{id}: bad response: {e}")),
                0.0,
                JsonValue::Null,
            )
        }
    };
    let exec_s = response
        .get("volatile")
        .and_then(|v| v.get("duration_ms"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
        / 1e3;
    let result = response.get("result").cloned().unwrap_or(JsonValue::Null);
    let verdict = if response.get("status").and_then(JsonValue::as_str) != Some("ok") {
        Err(format!("{id}: failed: {line}"))
    } else {
        match req.kind {
            JobKind::Prove => {
                let proved = result.get("proved") == Some(&JsonValue::Bool(true));
                let named = result.get("property").and_then(JsonValue::as_str)
                    == Some(req.property.as_str());
                if proved && named {
                    Ok(())
                } else {
                    Err(format!("{id}: {} not proved", req.property))
                }
            }
            JobKind::Check => {
                let complete = result.get("complete") == Some(&JsonValue::Bool(true));
                let violated: Vec<&str> = match result.get("violations") {
                    Some(JsonValue::Array(vs)) => vs
                        .iter()
                        .filter_map(|v| v.get("property").and_then(JsonValue::as_str))
                        .collect(),
                    _ => Vec::new(),
                };
                reference::check_search(req.max_messages.unwrap_or(0), complete, &violated)
                    .map_err(|e| format!("{id}: {e}"))
            }
            JobKind::Lint | JobKind::Panic => Ok(()),
        }
    };
    (verdict, exec_s, result)
}

/// Add the per-obligation facts of a stable prove result.
fn add_prove_result(report: &mut Report, result: &JsonValue) {
    let Some(JsonValue::Array(obligations)) = result.get("obligations") else {
        return;
    };
    for ob in obligations {
        let n = |key: &str| ob.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as usize;
        let metrics = ProverMetrics {
            passages: n("passages"),
            splits: n("splits"),
            vacuous: n("vacuous"),
            open: n("open"),
            ..ProverMetrics::default()
        };
        add_prover_metrics(report, &metrics);
    }
}

/// Add the search facts of a stable check result.
fn add_search(report: &mut Report, states: f64, dedup_hits: f64) {
    report.add("mc.states", states);
    report.add("mc.dedup_hits", dedup_hits);
    // Every state but the initial one was generated once; the duplicates
    // were generated again.
    report.add("mc.generated", dedup_hits + states - 1.0);
}

/// `serve`: a daemon with one worker, warm once both models are built,
/// answering one closed-loop client.
fn serve(it: &Iteration, obs: &Obs) -> Result<Report, String> {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let engine =
        ServeEngine::start(config, obs.clone()).map_err(|e| format!("serve start: {e}"))?;
    let started = Instant::now();
    let models = [engine.warm().model(false), engine.warm().model(true)];
    let build_s = started.elapsed().as_secs_f64();
    ready();

    let mut requests = serve_requests(it.smoke);
    shuffle(&mut requests, &mut it.rng());
    let mut report = Report::default();
    let clock = Stopwatch::start();
    {
        let _iteration = obs.span("bench.iteration");
        for req in &requests {
            let started = Instant::now();
            let (verdict, exec_s, result) = {
                let _request = obs.span(&format!("bench.request:{}", req.id));
                exchange(&engine, req)
            };
            let latency_s = started.elapsed().as_secs_f64();
            report.verdict(latency_s, verdict);
            if !it.traced {
                continue;
            }
            report.add("serve.latency_s", latency_s);
            report.add(&format!("serve.exec_s.{}", req.kind.name()), exec_s);
            match req.kind {
                JobKind::Prove => {
                    report.add(&format!("core.property_s.{}", req.property), exec_s);
                    report.add("serve.prove_requests", 1.0);
                    add_prove_result(&mut report, &result);
                }
                JobKind::Check => {
                    let n = |key: &str| result.get(key).and_then(JsonValue::as_f64);
                    add_search(
                        &mut report,
                        n("states").unwrap_or(0.0),
                        n("dedup_hits").unwrap_or(0.0),
                    );
                }
                JobKind::Lint | JobKind::Panic => {}
            }
        }
    }
    clock.stop(&mut report);

    if it.traced {
        let warm = engine.warm().stats();
        report.add("serve.model_builds", warm.model_builds as f64);
        report.add("serve.model_reuses", warm.model_reuses as f64);
        // The daemon builds each model together with its rule index.
        report.add("spec.build_s", build_s);
        for model in &models {
            report.add("kernel.terms", model.spec.store().term_count() as f64);
        }
        let clones = report.get("core.obligations") + report.get("serve.prove_requests");
        report.add("spec.clone_est_s", clone_seconds(&models[0]) * clones);
    }
    engine.shutdown();
    Ok(report)
}

/// `check` and `check_spill`: Murφ-style bounded search of the concrete
/// machine with every §5 monitor.
fn check(it: &Iteration, obs: &Obs, spill: bool) -> Result<Report, String> {
    let mut bounds: Vec<usize> = match (it.smoke, spill) {
        (true, _) => vec![2],
        (false, true) => vec![3],
        (false, false) => BOUNDS.to_vec(),
    };
    shuffle(&mut bounds, &mut it.rng());
    let jobs = it.workload.threads();
    let spill_root = PathBuf::from(OUT_DIR).join(format!("spill-{}", std::process::id()));
    let monitor_clock = Clock::default();
    let searches: Vec<_> = bounds
        .iter()
        .map(|&bound| {
            let mut scope = Scope::counterexample();
            scope.max_messages = bound;
            let limits = Limits {
                max_states: 150_000,
                max_depth: bound + 1,
            };
            let config = ExploreConfig {
                spill_dir: spill.then(|| spill_root.join(format!("m{bound}"))),
                max_resident_shards: if spill { RESIDENT_SHARDS } else { 0 },
                ..ExploreConfig::default()
            };
            // A traced search times the program's machine and monitors
            // through the wrappers; an untraced one runs the program's
            // own check entry.
            let wrapped = it.traced.then(|| {
                let machine = TimedModel::new(TlsMachine::new(scope.clone()));
                (machine, monitors(&scope, &monitor_clock))
            });
            (bound, scope, limits, config, wrapped)
        })
        .collect();
    let names: Vec<&str> = props::monitors()
        .into_iter()
        .map(|(name, ..)| name)
        .collect();
    reference::check_monitor_names(&names)?;
    ready();

    let mut report = Report::default();
    let clock = Stopwatch::start();
    {
        let _iteration = obs.span("bench.iteration");
        for (bound, scope, limits, config, wrapped) in &searches {
            let started = Instant::now();
            let _bound = obs.span(&format!("bench.bound:{bound}"));
            let result = match wrapped {
                Some((machine, predicates)) => {
                    let monitors = as_monitors(predicates);
                    explore_with_config_jobs(machine, &monitors, limits, config, jobs, obs)
                }
                None => check_scope_config_obs(scope, limits, jobs, config, obs),
            };
            let violated: Vec<&str> = result
                .violations
                .iter()
                .map(|v| v.property.as_str())
                .collect();
            report.verdict(
                started.elapsed().as_secs_f64(),
                reference::check_search(*bound, result.complete, &violated),
            );
            if it.traced {
                add_search(&mut report, result.states as f64, result.dedup_hits as f64);
            }
        }
    }
    clock.stop(&mut report);
    if spill {
        std::fs::remove_dir_all(&spill_root)
            .map_err(|e| format!("cannot remove {}: {e}", spill_root.display()))?;
    }

    if it.traced {
        for (machine, _) in searches.iter().filter_map(|s| s.4.as_ref()) {
            report.add("tls.successor_s", machine.successors.seconds());
            report.add("tls.successor_calls", machine.successors.calls() as f64);
            report.add(
                "tls.successors_out",
                machine
                    .successors_out
                    .load(std::sync::atomic::Ordering::Relaxed) as f64,
            );
            report.add("tls.codec_s", machine.codec.seconds());
            report.add("tls.codec_calls", machine.codec.calls() as f64);
        }
        report.add("tls.monitor_s", monitor_clock.seconds());
        report.add("tls.monitor_calls", monitor_clock.calls() as f64);
    }
    Ok(report)
}
