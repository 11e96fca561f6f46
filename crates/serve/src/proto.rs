//! The wire protocol: JSONL requests and responses.
//!
//! One request is one JSON object on one line; one response is one JSON
//! object on one line. The codec is the workspace's hand-rolled
//! [`JsonValue`] — insertion-ordered objects with deterministic
//! rendering — which gives the protocol a crucial property for free:
//! a [`JobRequest`]'s canonical rendering is byte-stable, so the journal
//! can store requests as their wire form and replay them bit-identically.
//!
//! ## Requests
//!
//! ```text
//! {"id":"c1-1","kind":"prove","property":"lem-src-honest","jobs":2}
//! {"id":"c1-2","kind":"check","max_messages":2,"max_depth":3,"max_states":100000}
//! {"id":"c1-3","kind":"lint","target":"standard"}
//! {"id":"c1-4","kind":"ping"}
//! {"id":"c1-5","kind":"stats"}
//! {"id":"c1-6","kind":"drain"}
//! {"id":"c1-7","kind":"shutdown"}
//! ```
//!
//! `prove`/`check`/`lint` are **jobs**: they pass admission control, are
//! journaled, and run on the worker pool. `ping`/`stats`/`drain`/
//! `shutdown` are **control** requests answered inline by the connection
//! thread. A job request may set `"ack": true` to get an immediate
//! `accepted` response instead of blocking until completion (the result
//! then lands in the journal / results file only) — this is what lets a
//! client fill the queue, and what the kill -9 smoke uses.
//!
//! ## Responses
//!
//! Completed jobs answer with the **stable payload**: status, kind,
//! degradation disclosures, and a `result` object containing only
//! jobs-invariant, replay-invariant facts (verdicts, counts, traces —
//! never wall-clock durations or warm-cache-dependent rewrite tallies).
//! The volatile extras (`stats`, `warm`, `events`) ride in a separate
//! top-level `volatile` object appended on the wire but excluded from
//! the journal and the results file, so byte-comparing a resumed run
//! against a straight-through run compares exactly the stable facts.

use equitls_obs::json::{self, JsonValue};
use equitls_rewrite::budget::MAX_JOBS;

/// The job kinds that pass admission control and run on workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A proof campaign for one property (`verify_property_opts`).
    Prove,
    /// A bounded model check of the concrete machine.
    Check,
    /// A whole-spec lint analysis.
    Lint,
    /// Test-only: a job that panics inside the worker (contained) or
    /// kills the worker thread (exercising the supervisor). Admitted
    /// only when the engine was configured with `allow_test_jobs`.
    Panic,
}

impl JobKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Prove => "prove",
            JobKind::Check => "check",
            JobKind::Lint => "lint",
            JobKind::Panic => "panic",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "prove" => Some(JobKind::Prove),
            "check" => Some(JobKind::Check),
            "lint" => Some(JobKind::Lint),
            "panic" => Some(JobKind::Panic),
            _ => None,
        }
    }
}

/// A validated job request. Fields not meaningful for a kind stay at
/// their defaults and are omitted from the canonical rendering, so the
/// canonical form is minimal and byte-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Client-chosen identifier, echoed in every response.
    pub id: String,
    /// What to run.
    pub kind: JobKind,
    /// Property name for `prove` (a `verify::PLANS` entry).
    pub property: String,
    /// Run against the §5.3 swapped-Finished variant model.
    pub variant: bool,
    /// Worker threads *within* a `prove` job (prover obligations); a
    /// `check` or `lint` job runs on one thread whatever it says. `0` = the job runner's default (1); more than
    /// [`MAX_JOBS`] is a bad request.
    pub jobs: usize,
    /// Wall-clock deadline for the job's `Budget`.
    pub deadline_ms: Option<u64>,
    /// Rewriting fuel override for `prove`.
    pub fuel: Option<u64>,
    /// `check`: network-size bound (scope cutoff).
    pub max_messages: Option<usize>,
    /// `check`: BFS depth bound.
    pub max_depth: Option<usize>,
    /// `check`: state-count bound.
    pub max_states: Option<usize>,
    /// `lint`: analysis target (`"standard"` or `"variant"`).
    pub target: String,
    /// Answer with `accepted` immediately instead of blocking until the
    /// job completes (result goes to the journal / results file).
    pub ack: bool,
    /// Stream the job's obs events back in the volatile section.
    pub trace: bool,
    /// Test-only (`kind: panic`): kill the worker thread instead of
    /// panicking inside the contained job.
    pub kill_worker: bool,
}

impl JobRequest {
    /// A request of `kind` with every optional field at its default.
    pub fn new(id: impl Into<String>, kind: JobKind) -> Self {
        JobRequest {
            id: id.into(),
            kind,
            property: String::new(),
            variant: false,
            jobs: 0,
            deadline_ms: None,
            fuel: None,
            max_messages: None,
            max_depth: None,
            max_states: None,
            target: String::new(),
            ack: false,
            trace: false,
            kill_worker: false,
        }
    }

    /// The canonical JSON object: only non-default fields, in a fixed
    /// order. `to_json(parse(x)) == to_json(parse(to_json(parse(x))))`,
    /// which is what the journal's byte-stability rests on.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("id".to_string(), JsonValue::String(self.id.clone())),
            (
                "kind".to_string(),
                JsonValue::String(self.kind.name().to_string()),
            ),
        ];
        if !self.property.is_empty() {
            fields.push((
                "property".to_string(),
                JsonValue::String(self.property.clone()),
            ));
        }
        if self.variant {
            fields.push(("variant".to_string(), JsonValue::Bool(true)));
        }
        if self.jobs != 0 {
            fields.push(("jobs".to_string(), JsonValue::Number(self.jobs as f64)));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), JsonValue::Number(ms as f64)));
        }
        if let Some(fuel) = self.fuel {
            fields.push(("fuel".to_string(), JsonValue::Number(fuel as f64)));
        }
        if let Some(n) = self.max_messages {
            fields.push(("max_messages".to_string(), JsonValue::Number(n as f64)));
        }
        if let Some(n) = self.max_depth {
            fields.push(("max_depth".to_string(), JsonValue::Number(n as f64)));
        }
        if let Some(n) = self.max_states {
            fields.push(("max_states".to_string(), JsonValue::Number(n as f64)));
        }
        if !self.target.is_empty() {
            fields.push(("target".to_string(), JsonValue::String(self.target.clone())));
        }
        if self.ack {
            fields.push(("ack".to_string(), JsonValue::Bool(true)));
        }
        if self.trace {
            fields.push(("trace".to_string(), JsonValue::Bool(true)));
        }
        if self.kill_worker {
            fields.push(("kill_worker".to_string(), JsonValue::Bool(true)));
        }
        JsonValue::Object(fields)
    }

    /// Parse a request object. Unknown fields are rejected (a typo'd
    /// field silently ignored would mean a job silently ran with defaults
    /// — worse than an error).
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let JsonValue::Object(fields) = value else {
            return Err("request must be a JSON object".to_string());
        };
        let kind_str = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `kind`")?;
        let kind = JobKind::parse(kind_str)
            .ok_or_else(|| format!("unknown job kind `{kind_str}` (want prove|check|lint)"))?;
        let id = value
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `id`")?
            .to_string();
        let mut req = JobRequest::new(id, kind);
        for (name, field) in fields {
            match name.as_str() {
                "id" | "kind" => {}
                "property" => req.property = expect_str(name, field)?.to_string(),
                "variant" => req.variant = expect_bool(name, field)?,
                "jobs" => {
                    req.jobs = expect_usize(name, field)?;
                    if req.jobs > MAX_JOBS {
                        return Err(format!("field `jobs` must be at most {MAX_JOBS}"));
                    }
                }
                "deadline_ms" => req.deadline_ms = Some(expect_u64(name, field)?),
                "fuel" => req.fuel = Some(expect_u64(name, field)?),
                "max_messages" => req.max_messages = Some(expect_usize(name, field)?),
                "max_depth" => req.max_depth = Some(expect_usize(name, field)?),
                "max_states" => req.max_states = Some(expect_usize(name, field)?),
                "target" => req.target = expect_str(name, field)?.to_string(),
                "ack" => req.ack = expect_bool(name, field)?,
                "trace" => req.trace = expect_bool(name, field)?,
                "kill_worker" => req.kill_worker = expect_bool(name, field)?,
                other => return Err(format!("unknown request field `{other}`")),
            }
        }
        Ok(req)
    }

    /// Parse one wire line.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let value = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        Self::from_json(&value)
    }
}

fn expect_str<'v>(name: &str, v: &'v JsonValue) -> Result<&'v str, String> {
    v.as_str()
        .ok_or_else(|| format!("field `{name}` must be a string"))
}

fn expect_bool(name: &str, v: &JsonValue) -> Result<bool, String> {
    match v {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("field `{name}` must be a boolean")),
    }
}

fn expect_u64(name: &str, v: &JsonValue) -> Result<u64, String> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("field `{name}` must be a non-negative integer")),
    }
}

fn expect_usize(name: &str, v: &JsonValue) -> Result<usize, String> {
    expect_u64(name, v).map(|n| n as usize)
}

/// Build the stable `busy` response (admission queue full).
pub fn busy_response(id: &str, retry_after_ms: u64, depth: usize, cap: usize) -> JsonValue {
    JsonValue::Object(vec![
        ("id".to_string(), JsonValue::String(id.to_string())),
        ("status".to_string(), JsonValue::String("busy".to_string())),
        (
            "retry_after_ms".to_string(),
            JsonValue::Number(retry_after_ms as f64),
        ),
        ("queue_depth".to_string(), JsonValue::Number(depth as f64)),
        ("queue_cap".to_string(), JsonValue::Number(cap as f64)),
    ])
}

/// Build the stable `shed` response (graceful degradation dropped the
/// job rather than queueing it).
pub fn shed_response(id: &str, reason: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("id".to_string(), JsonValue::String(id.to_string())),
        ("status".to_string(), JsonValue::String("shed".to_string())),
        ("reason".to_string(), JsonValue::String(reason.to_string())),
        (
            "degradation".to_string(),
            JsonValue::Array(vec![JsonValue::String("shed-lint".to_string())]),
        ),
    ])
}

/// Build a typed error response (bad request, unknown property, worker
/// fault, …).
pub fn error_response(id: &str, code: &str, message: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("id".to_string(), JsonValue::String(id.to_string())),
        ("status".to_string(), JsonValue::String("error".to_string())),
        (
            "error".to_string(),
            JsonValue::Object(vec![
                ("code".to_string(), JsonValue::String(code.to_string())),
                (
                    "message".to_string(),
                    JsonValue::String(message.to_string()),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_is_byte_stable() {
        let line = r#"{"id":"a-1","kind":"prove","property":"inv1","jobs":2,"deadline_ms":500}"#;
        let req = JobRequest::from_line(line).unwrap();
        let canon = req.to_json().to_string();
        let again = JobRequest::from_line(&canon).unwrap();
        assert_eq!(req, again);
        assert_eq!(canon, again.to_json().to_string());
    }

    #[test]
    fn unknown_fields_and_kinds_are_rejected() {
        assert!(JobRequest::from_line(r#"{"id":"x","kind":"frobnicate"}"#).is_err());
        assert!(JobRequest::from_line(r#"{"id":"x","kind":"prove","porperty":"inv1"}"#).is_err());
        assert!(JobRequest::from_line("not json").is_err());
        assert!(JobRequest::from_line(r#"{"kind":"prove"}"#).is_err());
    }

    #[test]
    fn jobs_over_the_bound_are_a_bad_request() {
        let line = |jobs: &str| format!(r#"{{"id":"x","kind":"check","jobs":{jobs}}}"#);
        assert_eq!(JobRequest::from_line(&line("256")).unwrap().jobs, MAX_JOBS);
        for jobs in ["257", "100000", "1e300"] {
            assert_eq!(
                JobRequest::from_line(&line(jobs)),
                Err("field `jobs` must be at most 256".to_string()),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn retired_shared_cache_field_is_an_unknown_field() {
        let line = r#"{"id":"x","kind":"prove","property":"inv1","shared_cache":true}"#;
        assert_eq!(
            JobRequest::from_line(line),
            Err("unknown request field `shared_cache`".to_string())
        );
    }

    #[test]
    fn typed_responses_render_deterministically() {
        assert_eq!(
            busy_response("j", 200, 32, 32).to_string(),
            r#"{"id":"j","status":"busy","retry_after_ms":200,"queue_depth":32,"queue_cap":32}"#
        );
        assert!(shed_response("j", "overload")
            .to_string()
            .contains("shed-lint"));
        assert!(error_response("j", "bad-request", "nope")
            .to_string()
            .contains("bad-request"));
    }
}
