//! Acceptance regressions for the static analyzer, pinned to the
//! properties `tls-lint` gates on:
//!
//! * the HD `BOOL` system is proved terminating (LPO-orientable) and
//!   locally confluent (every critical pair joins) — positive control;
//! * a two-rule non-confluent system is denied with the unjoinable pair
//!   as a counterexample equation — negative control;
//! * a looping rule is denied outright — negative control.
//!
//! * a duplicated equation in a parsed module is reported once, with its
//!   source span, and the finding clears when the copy is deleted;
//! * SARIF output of a spec report survives a parse round-trip with its
//!   spans and stable rule ids.
//!
//! The unit tests inside the crate cover each pass in isolation; these
//! integration tests run the passes the way the binary composes them.

use equitls_kernel::signature::Signature;
use equitls_kernel::term::TermStore;
use equitls_lint::confluence::{check_confluence, critical_pairs};
use equitls_lint::termination::orient_rules;
use equitls_lint::{
    analyze_spec, analyze_system, sarif, AnalysisOptions, LintCode, LintConfig, LintReport,
    Severity,
};
use equitls_obs::json::{parse, JsonValue};
use equitls_rewrite::bool_alg::BoolAlg;
use equitls_rewrite::bool_rules::hd_bool_rules;
use equitls_rewrite::rule::RuleSet;
use equitls_spec::spec::Spec;

fn bool_world() -> (TermStore, BoolAlg) {
    let mut sig = Signature::new();
    let alg = BoolAlg::install(&mut sig).expect("fresh signature");
    (TermStore::new(sig), alg)
}

#[test]
fn hd_bool_is_terminating_and_locally_confluent() {
    let (mut store, alg) = bool_world();
    let rules = hd_bool_rules(&mut store, &alg).expect("HD BOOL builds");

    // Termination: an orienting LPO precedence exists and is reported.
    let orientation = orient_rules(&store, &rules);
    assert!(
        orientation.all_oriented(),
        "every HD BOOL rule must be LPO-orientable"
    );
    let edges = orientation.edge_names(&store);
    assert!(!edges.is_empty(), "the precedence must be non-trivial");
    // The discovered order puts the defined connectives above the ring
    // operators they expand into.
    assert!(
        edges.iter().any(|(f, g)| f == "not_" && g == "_xor_"),
        "expected not > xor among {edges:?}"
    );

    // Local confluence: critical pairs exist and every one joins.
    let pairs = critical_pairs(&mut store, &rules);
    assert!(
        !pairs.is_empty(),
        "HD BOOL has overlaps (e.g. and-zero vs and-idempotent)"
    );
    let config = LintConfig::new();
    let options = AnalysisOptions::default();
    let mut report = LintReport::new("BOOL");
    let outcome = check_confluence(&mut store, &alg, &rules, &config, &mut report);
    assert_eq!(outcome.unjoinable, 0, "{report}");
    assert_eq!(outcome.undecided, 0, "{report}");
    assert_eq!(outcome.joinable + outcome.pruned, outcome.pairs);
    assert!(
        report
            .with_code(LintCode::UnjoinableCriticalPair)
            .is_empty(),
        "{report}"
    );

    // And the composed lint agrees: nothing at warn level or above.
    let report = analyze_system(&store, &alg, &rules, "BOOL", &config, &options);
    assert!(!report.has_deny(), "{report}");
    assert_eq!(report.count(Severity::Warn), 0, "{report}");
}

#[test]
fn a_non_confluent_pair_is_denied_with_its_counterexample() {
    let (mut store, alg) = bool_world();
    let p = store.declare_var("ACCP", alg.sort()).expect("fresh var");
    let pv = store.var(p);
    let not_p = store.app(alg.not_op(), &[pv]).expect("well-sorted");
    let tt = alg.tt(&mut store);
    let ff = alg.ff(&mut store);
    let mut rules = RuleSet::new();
    rules.add(&store, "to-true", not_p, tt, None, None).unwrap();
    rules
        .add(&store, "to-false", not_p, ff, None, None)
        .unwrap();

    let config = LintConfig::new();
    let options = AnalysisOptions::default();
    let report = analyze_system(&store, &alg, &rules, "ambiguous", &config, &options);
    assert!(report.has_deny(), "{report}");
    let denies = report.with_code(LintCode::UnjoinableCriticalPair);
    assert!(
        denies.iter().any(|d| d.severity == Severity::Deny),
        "{report}"
    );
    // The counterexample equation names both normal forms.
    assert!(
        denies
            .iter()
            .any(|d| d.message.contains("true") && d.message.contains("false")),
        "counterexample should mention the two normal forms: {report}"
    );
}

#[test]
fn a_looping_rule_is_denied() {
    let (mut store, alg) = bool_world();
    let tt = alg.tt(&mut store);
    let not_t = store.app(alg.not_op(), &[tt]).expect("well-sorted");
    let mut rules = RuleSet::new();
    // true → not(true) re-fires inside its own result.
    rules.add(&store, "diverge", tt, not_t, None, None).unwrap();

    let config = LintConfig::new();
    let options = AnalysisOptions::default();
    let report = analyze_system(&store, &alg, &rules, "looping", &config, &options);
    assert!(report.has_deny(), "{report}");
    let denies = report.with_code(LintCode::TerminationLoop);
    assert_eq!(denies.len(), 1, "{report}");
    assert_eq!(denies[0].severity, Severity::Deny);
    assert_eq!(denies[0].rule.as_deref(), Some("diverge"));
}

#[test]
fn severity_overrides_are_recorded_not_silenced() {
    // Downgrading a deny to allow keeps the finding visible, carries the
    // justification, and flips the gate.
    let (mut store, alg) = bool_world();
    let tt = alg.tt(&mut store);
    let not_t = store.app(alg.not_op(), &[tt]).expect("well-sorted");
    let mut rules = RuleSet::new();
    rules.add(&store, "diverge", tt, not_t, None, None).unwrap();

    let mut config = LintConfig::new();
    let options = AnalysisOptions::default();
    config.allow(LintCode::TerminationLoop, "exercised as a fixture");
    let report = analyze_system(&store, &alg, &rules, "looping", &config, &options);
    assert!(!report.has_deny(), "{report}");
    let hits = report.with_code(LintCode::TerminationLoop);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].severity, Severity::Allow);
    assert_eq!(
        hits[0].justification.as_deref(),
        Some("exercised as a fixture")
    );
}

const NAT_MODULE: &str = r#"
mod! NATDUP {
  [ N ]
  op z : -> N {constr} .
  op s : N -> N {constr} .
  op dup : N -> N .
  var X : N .
  eq [dup-z] : dup(z) = z .
  eq [dup-s] : dup(s(X)) = s(s(dup(X))) .
  eq [dup-s-copy] : dup(s(X)) = s(s(dup(X))) .
}
"#;

#[test]
fn a_duplicate_rule_carries_its_span_and_clears_when_deleted() {
    let mut spec = Spec::new().unwrap();
    spec.load_module(NAT_MODULE).unwrap();
    let config = LintConfig::new();
    let options = AnalysisOptions::default();
    let report = analyze_spec(&spec, "NATDUP", &config, &options);
    let dups = report.with_code(LintCode::DuplicateRule);
    assert_eq!(dups.len(), 1, "{report}");
    assert!(dups[0].span.is_some(), "parsed equations carry spans");
    let mut changed = Spec::new().unwrap();
    changed
        .load_module(&NAT_MODULE.replace("  eq [dup-s-copy] : dup(s(X)) = s(s(dup(X))) .\n", ""))
        .unwrap();
    let edited = analyze_spec(&changed, "NATDUP", &config, &options);
    assert!(edited.with_code(LintCode::DuplicateRule).is_empty());
}

#[test]
fn sarif_round_trip_keeps_spans_and_stable_rule_ids() {
    let mut spec = Spec::new().unwrap();
    spec.load_module(NAT_MODULE).unwrap();
    let config = LintConfig::new();
    let report = analyze_spec(&spec, "NATDUP", &config, &AnalysisOptions::default());
    let dup_span = report.with_code(LintCode::DuplicateRule)[0]
        .span
        .expect("parsed equation has a span");

    let log = sarif::to_sarif(&[&report]).to_string();
    let back = parse(&log).expect("SARIF is valid JSON");
    let runs = match back.get("runs") {
        Some(JsonValue::Array(runs)) => runs,
        other => panic!("runs must be an array: {other:?}"),
    };
    let results = match runs[0].get("results") {
        Some(JsonValue::Array(results)) => results,
        other => panic!("results must be an array: {other:?}"),
    };
    let dup = results
        .iter()
        .find(|r| r.get("ruleId").and_then(|v| v.as_str()) == Some("duplicate-rule"))
        .expect("the duplicate-rule finding is in the log");
    let region = dup
        .get("locations")
        .and_then(|l| match l {
            JsonValue::Array(items) => items.first(),
            _ => None,
        })
        .and_then(|l| l.get("physicalLocation"))
        .and_then(|p| p.get("region"))
        .expect("parsed-equation findings carry regions");
    assert_eq!(
        region.get("startLine").and_then(|v| v.as_f64()),
        Some(dup_span.line as f64)
    );
    assert_eq!(
        region.get("startColumn").and_then(|v| v.as_f64()),
        Some(dup_span.column as f64)
    );
    // Every stable code is declared as a reporting descriptor.
    let rules = match runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
    {
        Some(JsonValue::Array(rules)) => rules,
        other => panic!("rules must be an array: {other:?}"),
    };
    for code in LintCode::ALL {
        assert!(
            rules
                .iter()
                .any(|r| r.get("id").and_then(|v| v.as_str()) == Some(code.name())),
            "missing descriptor for {code}"
        );
    }
}
