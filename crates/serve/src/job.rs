//! Job execution: one effective request in, one **stable** response out.
//!
//! Every field of the stable payload is a jobs-invariant, replay-
//! invariant fact: verdicts, obligation outcomes, state counts, traces,
//! lint findings. Two classes of fact are deliberately excluded and
//! travel only in the wire-level volatile section (see
//! [`crate::engine`]):
//!
//! * **wall-clock durations** — different on every run by definition;
//! * **rewrite tallies** — they measure what the engine spent, not what
//!   it proved: a change to the memo bound, the fuel, or the engine
//!   itself moves them while every verdict, count and score stays put.
//!   Keeping them out of the stable payload lets the engine change
//!   without invalidating journals pinned byte-for-byte.
//!
//! A request that sets its own `deadline_ms` opts out of replay
//! stability for its *outcome* (a budget can trip at a different point
//! on a faster or slower run); the kill-safety contract is pinned over
//! undeadlined jobs.

use std::time::Duration;

use equitls_core::prelude::*;
use equitls_lint::{analyze_spec, Severity};
use equitls_mc::check::check_scope_config_obs;
use equitls_mc::explorer::{ExploreConfig, Limits};
use equitls_obs::json::JsonValue;
use equitls_obs::sink::Obs;
use equitls_rewrite::budget::Budget;
use equitls_tls::concrete::Scope;
use equitls_tls::verify;

use crate::proto::{error_response, JobKind, JobRequest};
use crate::warm::WarmState;

/// Validate a request before admission: errors found here are answered
/// immediately (and never journaled — there is no work to replay).
pub fn validate(request: &JobRequest, allow_test_jobs: bool) -> Result<(), (String, String)> {
    match request.kind {
        JobKind::Prove => {
            if verify::plan(&request.property).is_none() {
                return Err((
                    "unknown-property".to_string(),
                    format!(
                        "unknown property `{}` (want one of the {} campaign plans)",
                        request.property,
                        verify::PLANS.len()
                    ),
                ));
            }
        }
        JobKind::Check => {}
        JobKind::Lint => {
            if !matches!(request.target.as_str(), "" | "standard" | "variant") {
                return Err((
                    "bad-request".to_string(),
                    format!(
                        "unknown lint target `{}` (want standard|variant)",
                        request.target
                    ),
                ));
            }
        }
        JobKind::Panic => {
            if !allow_test_jobs {
                return Err((
                    "bad-request".to_string(),
                    "`panic` jobs need a daemon started with --allow-test-jobs".to_string(),
                ));
            }
        }
    }
    Ok(())
}

/// Visited-set spill settings for `check` jobs, from the daemon config.
pub struct SpillOptions {
    /// Spill root; each job spills under its own `job<seq>` subdirectory
    /// so concurrent workers never share shard files, and the directory
    /// is removed when the job's search returns. `None` disables spilling
    /// (the search truncates at a memory ceiling instead).
    pub dir: Option<std::path::PathBuf>,
    /// See [`ExploreConfig::max_resident_shards`].
    pub max_resident_shards: usize,
}

/// Execute one admitted job and build its stable response. The caller
/// (the worker loop) wraps this in `catch_unwind`; a panic escaping here
/// becomes a typed `worker-fault` error response.
pub fn execute(
    seq: u64,
    request: &JobRequest,
    degradation: &[String],
    warm: &WarmState,
    spill: &SpillOptions,
    obs: &Obs,
) -> JsonValue {
    let result = match request.kind {
        JobKind::Prove => run_prove(request, warm, obs),
        JobKind::Check => Ok(run_check(seq, request, spill, obs)),
        JobKind::Lint => Ok(run_lint(request, warm)),
        JobKind::Panic => panic!("injected test panic (job {})", request.id),
    };
    match result {
        Ok(result) => ok_response(seq, request, degradation, result),
        Err((code, message)) => error_response(&request.id, &code, &message),
    }
}

/// Assemble the stable `ok` envelope.
fn ok_response(
    seq: u64,
    request: &JobRequest,
    degradation: &[String],
    result: JsonValue,
) -> JsonValue {
    let mut fields = vec![
        ("id".to_string(), JsonValue::String(request.id.clone())),
        ("seq".to_string(), JsonValue::Number(seq as f64)),
        ("status".to_string(), JsonValue::String("ok".to_string())),
        (
            "kind".to_string(),
            JsonValue::String(request.kind.name().to_string()),
        ),
    ];
    if !degradation.is_empty() {
        fields.push((
            "degradation".to_string(),
            JsonValue::Array(
                degradation
                    .iter()
                    .map(|d| JsonValue::String(d.clone()))
                    .collect(),
            ),
        ));
    }
    fields.push(("result".to_string(), result));
    JsonValue::Object(fields)
}

/// The per-request budget: unlimited unless the request asked for a
/// deadline.
fn budget_for(request: &JobRequest) -> Budget {
    match request.deadline_ms {
        Some(ms) => Budget::unlimited().with_deadline(Duration::from_millis(ms)),
        None => Budget::unlimited(),
    }
}

fn run_prove(
    request: &JobRequest,
    warm: &WarmState,
    obs: &Obs,
) -> Result<JsonValue, (String, String)> {
    let pristine = warm.model(request.variant);
    // Clone the warm pristine model: the clone shares the pre-built
    // rule index.
    let mut model = (*pristine).clone();
    let defaults = ProverConfig::default();
    let config = ProverConfig {
        budget: budget_for(request),
        fuel: request.fuel.unwrap_or(defaults.fuel),
        jobs: request.jobs.max(1),
        ..defaults
    };
    let report = verify::verify_property_opts(&mut model, &request.property, &config, obs)
        .map_err(|e| ("prove-failed".to_string(), e.to_string()))?;
    Ok(prove_result_json(&report, request.variant))
}

/// The stable rendering of a [`ProofReport`]: verdict and per-obligation
/// outcome facts, no durations, no rewrite tallies.
pub fn prove_result_json(report: &ProofReport, variant: bool) -> JsonValue {
    let mut obligations = Vec::with_capacity(report.steps.len() + 1);
    obligations.push(step_json(&report.base));
    obligations.extend(report.steps.iter().map(step_json));
    JsonValue::Object(vec![
        (
            "property".to_string(),
            JsonValue::String(report.invariant.clone()),
        ),
        ("variant".to_string(), JsonValue::Bool(variant)),
        ("proved".to_string(), JsonValue::Bool(report.is_proved())),
        ("obligations".to_string(), JsonValue::Array(obligations)),
    ])
}

fn step_json(step: &StepReport) -> JsonValue {
    let m = &step.metrics;
    let mut fields = vec![
        ("action".to_string(), JsonValue::String(step.action.clone())),
        (
            "outcome".to_string(),
            JsonValue::String(
                match &step.outcome {
                    CaseOutcome::Proved => "proved",
                    CaseOutcome::Open(_) => "open",
                    CaseOutcome::Fault(_) => "fault",
                }
                .to_string(),
            ),
        ),
        ("passages".to_string(), JsonValue::Number(m.passages as f64)),
        ("splits".to_string(), JsonValue::Number(m.splits as f64)),
        ("proved".to_string(), JsonValue::Number(m.proved as f64)),
        ("vacuous".to_string(), JsonValue::Number(m.vacuous as f64)),
        ("open".to_string(), JsonValue::Number(m.open as f64)),
        (
            "max_depth".to_string(),
            JsonValue::Number(m.max_depth as f64),
        ),
    ];
    match &step.outcome {
        CaseOutcome::Open(cases) => {
            let rendered = cases
                .iter()
                .map(|c| {
                    JsonValue::Object(vec![
                        (
                            "decisions".to_string(),
                            JsonValue::Array(
                                c.decisions
                                    .iter()
                                    .map(|d| JsonValue::String(d.clone()))
                                    .collect(),
                            ),
                        ),
                        (
                            "residual".to_string(),
                            JsonValue::String(c.residual.clone()),
                        ),
                    ])
                })
                .collect();
            fields.push(("open_cases".to_string(), JsonValue::Array(rendered)));
        }
        CaseOutcome::Fault(fault) => {
            fields.push((
                "fault".to_string(),
                JsonValue::Object(vec![
                    ("site".to_string(), JsonValue::String(fault.site.clone())),
                    (
                        "message".to_string(),
                        JsonValue::String(fault.message.clone()),
                    ),
                ]),
            ));
        }
        CaseOutcome::Proved => {}
    }
    JsonValue::Object(fields)
}

fn run_check(seq: u64, request: &JobRequest, spill: &SpillOptions, obs: &Obs) -> JsonValue {
    let mut scope = Scope::counterexample();
    if let Some(n) = request.max_messages {
        scope.max_messages = n;
    }
    let limits = Limits {
        max_states: request.max_states.unwrap_or(100_000),
        max_depth: request.max_depth.unwrap_or(3),
    };
    let config = ExploreConfig {
        budget: budget_for(request),
        spill_dir: spill.dir.as_ref().map(|d| d.join(format!("job{seq}"))),
        max_resident_shards: spill.max_resident_shards,
        ..ExploreConfig::default()
    };
    let exploration = check_scope_config_obs(&scope, &limits, request.jobs, &config, obs);
    // A check job has no checkpoint, so nothing reads its shard files
    // again: remove them whatever the stop reason.
    if let Some(dir) = &config.spill_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let violations = exploration
        .violations
        .iter()
        .map(|v| {
            JsonValue::Object(vec![
                (
                    "property".to_string(),
                    JsonValue::String(v.property.clone()),
                ),
                ("depth".to_string(), JsonValue::Number(v.depth as f64)),
                (
                    "trace".to_string(),
                    JsonValue::Array(
                        v.trace
                            .iter()
                            .map(|(label, _)| JsonValue::String(label.clone()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        (
            "scope".to_string(),
            JsonValue::Object(vec![
                (
                    "max_messages".to_string(),
                    JsonValue::Number(scope.max_messages as f64),
                ),
                (
                    "max_depth".to_string(),
                    JsonValue::Number(limits.max_depth as f64),
                ),
                (
                    "max_states".to_string(),
                    JsonValue::Number(limits.max_states as f64),
                ),
            ]),
        ),
        (
            "states".to_string(),
            JsonValue::Number(exploration.states as f64),
        ),
        (
            "depth_reached".to_string(),
            JsonValue::Number(exploration.depth_reached as f64),
        ),
        (
            "complete".to_string(),
            JsonValue::Bool(exploration.complete),
        ),
        (
            "stop_reason".to_string(),
            match &exploration.stop_reason {
                Some(reason) => JsonValue::String(reason.to_string()),
                None => JsonValue::Null,
            },
        ),
        (
            "states_per_depth".to_string(),
            JsonValue::Array(
                exploration
                    .states_per_depth
                    .iter()
                    .map(|&n| JsonValue::Number(n as f64))
                    .collect(),
            ),
        ),
        (
            "dedup_hits".to_string(),
            JsonValue::Number(exploration.dedup_hits as f64),
        ),
        // Truncation disclosure: states enqueued but never expanded when
        // the search stopped (0 on a complete run), and any degradation
        // ladder steps the search took (e.g. "visited-spilled").
        (
            "unexpanded".to_string(),
            JsonValue::Number(exploration.unexpanded as f64),
        ),
        (
            "degradation".to_string(),
            JsonValue::Array(
                exploration
                    .degradation
                    .iter()
                    .map(|d| JsonValue::String(d.clone()))
                    .collect(),
            ),
        ),
        ("violations".to_string(), JsonValue::Array(violations)),
    ])
}

fn run_lint(request: &JobRequest, warm: &WarmState) -> JsonValue {
    let variant = request.target == "variant" || request.variant;
    let pristine = warm.model(variant);
    let target = if variant {
        "TLS handshake (variant)"
    } else {
        "TLS handshake"
    };
    let (config, options) = pristine.lint_setup();
    let report = analyze_spec(&pristine.spec, target, &config, &options);
    let findings = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut fields = vec![
                (
                    "code".to_string(),
                    JsonValue::String(d.code.name().to_string()),
                ),
                (
                    "severity".to_string(),
                    JsonValue::String(d.severity.name().to_string()),
                ),
                ("message".to_string(), JsonValue::String(d.message.clone())),
            ];
            if let Some(rule) = &d.rule {
                fields.push(("rule".to_string(), JsonValue::String(rule.clone())));
            }
            JsonValue::Object(fields)
        })
        .collect();
    JsonValue::Object(vec![
        ("target".to_string(), JsonValue::String(target.to_string())),
        (
            "deny".to_string(),
            JsonValue::Number(report.count(Severity::Deny) as f64),
        ),
        (
            "warn".to_string(),
            JsonValue::Number(report.count(Severity::Warn) as f64),
        ),
        ("findings".to_string(), JsonValue::Array(findings)),
    ])
}
