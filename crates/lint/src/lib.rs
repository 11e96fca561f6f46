//! `equitls-lint` — whole-spec static analysis of rewrite systems.
//!
//! The OTS/CafeOBJ method reads equations as left-to-right rewrite rules
//! and trusts `red` to decide equality. That trust rests on properties of
//! the rule set that the prover itself never checks: **termination** (every
//! reduction halts), **local confluence** (the normal form does not depend
//! on rule order), and **sufficient completeness** (defined operators
//! reduce on every constructor input). This crate checks them statically —
//! along with whole-spec semantic properties — and reports findings as
//! structured diagnostics:
//!
//! * [`termination`] — direct-loop detection plus a searched
//!   lexicographic-path-order precedence that orients every rule;
//! * [`confluence`] — Knuth–Bendix critical pairs, joined through the
//!   workspace's own rewrite engine, with mutually-exclusive conditional
//!   pairs pruned through the GF(2) ring;
//! * [`coverage`] — Maranget-style pattern-matrix completeness of each
//!   rule-defined operator over its constructor generators;
//! * [`style`] — duplicate and shadowed rules, non-linear left-hand
//!   sides, unused declarations, trivially true/false conditions;
//! * [`deps`] — the operator/rule dependency graph: SCC condensation,
//!   stratification layers, and dead rules unreachable from the analysis
//!   roots (observers, actions, `{root}`-marked operators), exportable as
//!   Graphviz DOT;
//! * [`vars`] — variable and sort discipline: quarantined non-executable
//!   equations, collapsing rules, unused declared variables.
//!
//! Findings carry stable [`LintCode`]s and [`Severity`] levels
//! (`deny`/`warn`/`allow`), overridable per code — with a recorded
//! justification — through [`LintConfig`], and render to SARIF 2.1.0
//! through [`sarif`]. Analyses never mutate the caller's store: the
//! drivers clone it into a scratch arena first.
//!
//! [`analyze_system`] runs every pass over a raw signature-plus-rules
//! pair; [`analyze_spec`] runs them over a loaded specification and
//! attaches source spans to findings about parsed equations. Both run
//! every pass on every call. The `tls-lint` binary (in `equitls-tls`)
//! drives everything over every shipped equation set.

pub mod confluence;
pub mod coverage;
pub mod deps;
pub mod diagnostics;
pub mod sarif;
pub mod style;
pub mod termination;
pub mod vars;

pub use crate::diagnostics::{Diagnostic, LintCode, LintConfig, LintReport, Severity};

use crate::vars::VarsInput;
use equitls_kernel::prelude::OpId;
use equitls_kernel::term::TermStore;
use equitls_rewrite::bool_alg::BoolAlg;
use equitls_rewrite::rule::RuleSet;
use equitls_spec::spec::Spec;

/// Knobs for the pass drivers.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Additional dependency-analysis roots, merged with the spec's
    /// `{root}`-marked operators.
    pub roots: Vec<OpId>,
}

/// Every pass, in a fixed order, over a private clone of `store`.
fn run_analysis(
    store: &TermStore,
    alg: &BoolAlg,
    rules: &RuleSet,
    target: &str,
    config: &LintConfig,
    roots: &[OpId],
    vars_input: &VarsInput<'_>,
) -> LintReport {
    let scratch = &mut store.clone();
    let mut report = LintReport::new(target);
    termination::check_termination(scratch, rules, config, &mut report);
    confluence::check_confluence(scratch, alg, rules, config, &mut report);
    coverage::check_coverage(scratch, rules, config, &mut report);
    style::check_style(scratch, alg, rules, config, &mut report);
    deps::check_deps(scratch, rules, roots, config, &mut report);
    vars::check_vars(scratch, rules, vars_input, config, &mut report);
    report
}

/// Run every analysis pass over `rules` in `store`, labeling the report
/// with `target`. The caller's store is cloned, never mutated.
pub fn analyze_system(
    store: &TermStore,
    alg: &BoolAlg,
    rules: &RuleSet,
    target: &str,
    config: &LintConfig,
    options: &AnalysisOptions,
) -> LintReport {
    run_analysis(
        store,
        alg,
        rules,
        target,
        config,
        &options.roots,
        &VarsInput::default(),
    )
}

/// Analyze a loaded specification: every installed equation plus the
/// loader's quarantine, with source spans attached to findings about
/// parsed equations. The spec's `{root}`-marked operators join
/// `options.roots` as dependency-analysis roots.
pub fn analyze_spec(
    spec: &Spec,
    target: &str,
    config: &LintConfig,
    options: &AnalysisOptions,
) -> LintReport {
    let mut roots = options.roots.clone();
    for &r in spec.root_ops() {
        if !roots.contains(&r) {
            roots.push(r);
        }
    }
    let module_vars: Vec<(&str, &[String])> = spec
        .modules()
        .iter()
        .map(|m| (m.name.as_str(), m.vars.as_slice()))
        .collect();
    let vars_input = VarsInput {
        quarantined: spec.quarantined(),
        module_vars,
    };
    let mut report = run_analysis(
        spec.store(),
        spec.alg(),
        spec.rules(),
        target,
        config,
        &roots,
        &vars_input,
    );
    for d in &mut report.diagnostics {
        if let (None, Some(label)) = (d.span, &d.rule) {
            d.span = spec.equation_span(label);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use equitls_kernel::signature::Signature;
    use equitls_rewrite::bool_rules::hd_bool_rules;

    #[test]
    fn full_lint_of_hd_bool_has_no_warnings_or_errors() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let rules = hd_bool_rules(&mut store, &alg).unwrap();
        let config = LintConfig::new();
        let options = AnalysisOptions::default();
        let report = analyze_system(&store, &alg, &rules, "BOOL", &config, &options);
        assert_eq!(report.count(Severity::Deny), 0, "{report}");
        assert_eq!(report.count(Severity::Warn), 0, "{report}");
        // Termination, confluence, coverage, deps, and vars each leave a
        // proof/census note.
        assert_eq!(report.notes.len(), 5, "{report}");
        assert!(!report.has_deny());
        let json = report.to_json();
        assert_eq!(json.get("deny").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn analysis_never_mutates_the_callers_store() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let rules = hd_bool_rules(&mut store, &alg).unwrap();
        let before = store.term_count();
        let config = LintConfig::new();
        let options = AnalysisOptions::default();
        let _ = analyze_system(&store, &alg, &rules, "BOOL", &config, &options);
        assert_eq!(
            store.term_count(),
            before,
            "lint must work on a scratch clone, not the caller's arena"
        );

        let mut spec = Spec::new().unwrap();
        spec.load_module(
            r#"
            mod! FROZEN {
              [ F ]
              op z : -> F {constr} .
              op s : F -> F {constr} .
              op dbl : F -> F .
              var X : F .
              eq [dbl-z] : dbl(z) = z .
              eq [dbl-s] : dbl(s(X)) = s(s(dbl(X))) .
            }
            "#,
        )
        .unwrap();
        let before = spec.store().term_count();
        let _ = analyze_spec(&spec, "FROZEN", &config, &options);
        assert_eq!(spec.store().term_count(), before);
    }

    #[test]
    fn config_overrides_downgrade_and_record_justification() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let tt = alg.tt(&mut store);
        let looped = store.app(alg.not_op(), &[tt]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&store, "loop", tt, looped, None, None).unwrap();
        let mut config = LintConfig::new();
        let options = AnalysisOptions::default();
        config.allow(LintCode::TerminationLoop, "fixture exercises the loop lint");
        let report = analyze_system(&store, &alg, &rules, "fixture", &config, &options);
        let loops = report.with_code(LintCode::TerminationLoop);
        assert!(!loops.is_empty());
        assert!(loops.iter().all(|d| d.severity == Severity::Allow));
        assert!(loops[0]
            .justification
            .as_deref()
            .is_some_and(|j| j.contains("fixture")));
        assert!(!report.has_deny());
    }

    #[test]
    fn analyze_spec_attaches_source_spans() {
        let mut spec = Spec::new().unwrap();
        spec.load_module(
            r#"
            mod! SPANT {
              [ S ]
              op a : -> S {constr} .
              op b : -> S {constr} .
              op f : S -> S .
              var X : S .
              eq [first] : f(X) = a .
              eq [copy] : f(X) = a .
            }
            "#,
        )
        .unwrap();
        let config = LintConfig::new();
        let report = analyze_spec(&spec, "SPANT", &config, &AnalysisOptions::default());
        let dups = report.with_code(LintCode::DuplicateRule);
        assert_eq!(dups.len(), 1, "{report}");
        assert_eq!(dups[0].rule.as_deref(), Some("copy"));
        let span = dups[0].span.expect("parsed equations carry spans");
        assert!(span.line > 0 && span.column > 0);
        // The span must survive into the JSON rendering.
        let json = report.to_json();
        assert!(json.to_string().contains("\"span\""));
    }
}
