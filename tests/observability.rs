//! End-to-end observability tests: the event stream a proof emits, the
//! metrics invariants reports must satisfy, and the JSONL trace format.

use equitls::core::prelude::*;
use equitls::obs::event::Event;
use equitls::obs::json;
use equitls::obs::sink::{JsonlSink, Obs, RecordingSink};
use equitls::obs::summary::MetricsSummary;
use equitls::spec::prelude::*;
use std::sync::{Arc, Mutex};

/// A one-bit machine whose flag can only be set (the crate-docs example):
/// one observer, one action, and a tautological invariant provable with
/// no case splits.
fn flag_world() -> (Spec, Ots, InvariantSet) {
    let mut spec = Spec::new().unwrap();
    spec.begin_module("FLAG");
    spec.hidden_sort("Sys").unwrap();
    spec.op("init", &[], "Sys", equitls::kernel::op::OpAttrs::defined())
        .unwrap();
    spec.observer("flag", &["Sys"], "Bool").unwrap();
    spec.action("set", &["Sys"], "Sys").unwrap();
    let alg = spec.alg().clone();
    let init = spec.parse_term("init").unwrap();
    let flag_init = spec.app("flag", &[init]).unwrap();
    let ff = alg.ff(spec.store_mut());
    let tt = alg.tt(spec.store_mut());
    spec.eq("flag-init", flag_init, ff).unwrap();
    let s = spec.var("S", "Sys").unwrap();
    let set_s = spec.app("set", &[s]).unwrap();
    let flag_set = spec.app("flag", &[set_s]).unwrap();
    spec.eq("flag-set", flag_set, tt).unwrap();

    let ots = Ots::from_spec(&mut spec, "Sys", "init").unwrap();
    let sys = spec.sort_id("Sys").unwrap();
    let p = spec.store_mut().declare_var("P", sys).unwrap();
    let pv = spec.store_mut().var(p);
    let flag_p = spec.app("flag", &[pv]).unwrap();
    let not_flag = alg.not(spec.store_mut(), flag_p).unwrap();
    let body = alg.or(spec.store_mut(), flag_p, not_flag).unwrap();
    let inv = Invariant::new(&spec, "taut", p, vec![], body).unwrap();
    let mut set = InvariantSet::new();
    set.push(inv);
    (spec, ots, set)
}

fn prove_flag_with(obs: &Obs) -> ProofReport {
    let (mut spec, ots, set) = flag_world();
    let mut prover = Prover::new(&mut spec, &ots, &set)
        .with_config(ProverConfig {
            profile_rules: true,
            ..ProverConfig::default()
        })
        .with_obs(obs.clone());
    prover.prove("taut", ProofMethod::Induction, &[]).unwrap()
}

#[test]
fn spans_and_counters_fire_in_proof_order() {
    let recorder = Arc::new(RecordingSink::new());
    let obs = Obs::new(recorder.clone());
    let report = prove_flag_with(&obs);
    assert!(report.is_proved());

    let events = recorder.events();
    assert!(!events.is_empty());

    // The stream is a sequence of well-nested obligation spans: init
    // first, then the single action, each with its leaf verdicts and
    // engine counters strictly inside the span.
    let mut open: Vec<String> = Vec::new();
    let mut obligations: Vec<String> = Vec::new();
    for event in &events {
        match event {
            Event::SpanEnter { name } => {
                if let Some(ob) = name.strip_prefix("prover.obligation:") {
                    obligations.push(ob.to_string());
                }
                open.push(name.clone());
            }
            Event::SpanExit { name, .. } => {
                assert_eq!(open.pop().as_deref(), Some(name.as_str()), "well nested");
            }
            Event::Counter { name, .. } | Event::Gauge { name, .. } => {
                if name.starts_with("prover.leaf.")
                    || name.starts_with("rule.")
                    || name.starts_with("rewrite.")
                    || name == "kernel.term_count"
                {
                    assert!(
                        open.iter().any(|s| s.starts_with("prover.obligation:")),
                        "{name} fired outside any obligation span"
                    );
                }
            }
        }
    }
    assert!(open.is_empty(), "all spans closed");
    assert_eq!(
        obligations,
        ["init", "set"],
        "base case first, then the action"
    );

    // The counters agree with the report.
    let summary = MetricsSummary::from_events(&events);
    let totals = report.total_metrics();
    assert_eq!(
        summary.counter_total("prover.leaf.proved") as usize,
        totals.proved
    );
    assert_eq!(
        summary.counter_total("prover.leaf.open") as usize,
        totals.open
    );
    assert_eq!(summary.counter_total("rewrite.rewrites"), totals.rewrites);
    assert!(summary.gauge("kernel.term_count").unwrap_or(0.0) > 0.0);
}

#[test]
fn report_totals_equal_the_sum_of_per_obligation_metrics() {
    let report = prove_flag_with(&Obs::noop());
    let totals = report.total_metrics();

    // Totals are exactly the base case plus every transition obligation.
    let mut summed = report.base.metrics;
    for step in &report.steps {
        summed = summed.merged(&step.metrics);
    }
    assert_eq!(totals, summed);

    // Every passage lands in exactly one verdict bucket, per obligation
    // and in total.
    for step in std::iter::once(&report.base).chain(&report.steps) {
        let m = &step.metrics;
        assert_eq!(
            m.passages,
            m.proved + m.vacuous + m.open,
            "obligation {}",
            step.action
        );
    }
    assert_eq!(
        totals.passages,
        totals.proved + totals.vacuous + totals.open
    );

    // The rewrite totals match too.
    let stats = report.total_rewrite_stats();
    assert_eq!(stats.rewrites, totals.rewrites);
}

#[test]
fn jsonl_trace_round_trips_line_by_line() {
    // A Write adapter sharing its buffer with the test.
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buffer: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = JsonlSink::new(Box::new(Shared(buffer.clone())));
    let obs = Obs::new(Arc::new(sink));
    let report = prove_flag_with(&obs);
    obs.flush();
    assert!(report.is_proved());

    let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "a proof emits several events");
    let mut last_t = 0.0;
    for line in &lines {
        let value =
            json::parse(line).unwrap_or_else(|e| panic!("line is not valid JSON: {e}\n{line}"));
        // Every event carries a type, a name, and a monotone timestamp.
        let ty = value
            .get("type")
            .and_then(|v| v.as_str())
            .expect("type field");
        assert!(
            ["span_enter", "span_exit", "counter", "gauge"].contains(&ty),
            "unknown event type {ty}"
        );
        assert!(value.get("name").and_then(|v| v.as_str()).is_some());
        let t = value
            .get("t_us")
            .and_then(|v| v.as_f64())
            .expect("t_us field");
        assert!(t >= last_t, "timestamps are monotone");
        last_t = t;
        match ty {
            "span_exit" => assert!(value.get("dur_us").is_some()),
            "counter" => assert!(value.get("delta").is_some()),
            "gauge" => assert!(value.get("value").is_some()),
            _ => {}
        }
    }
}
