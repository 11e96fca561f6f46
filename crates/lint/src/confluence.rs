//! Local confluence via critical pairs.
//!
//! A terminating system is confluent iff it is locally confluent, and
//! local confluence reduces to joinability of the finitely many *critical
//! pairs* (Knuth–Bendix): for rules `l1 → r1` and `l2 → r2` (renamed
//! apart), every unifier `σ` of `l2` with a non-variable subterm of `l1`
//! at position `p` yields the peak `σ(l1)`, which rewrites both to
//! `σ(l1[p ← r2])` and to `σ(r1)`. The pair joins when both sides
//! normalize to the same term under the full rule set.
//!
//! Joinability is decided by the workspace's own engine, so it is checked
//! *modulo* the engine's built-in Boolean-ring canonicalization — which is
//! exactly the equality the `red` command decides, and therefore the
//! property the paper's proof scores rely on.
//!
//! Conditional rules contribute *conditional* critical pairs. Two
//! refinements keep those from drowning the report: a pair whose
//! instantiated conditions are mutually exclusive (their GF(2) product is
//! the zero polynomial) is unreachable and pruned, and a conditional pair
//! that fails to join is a warning rather than an error (the conditions
//! may be jointly unsatisfiable in ways the polynomial ring cannot see).

use crate::diagnostics::{Diagnostic, LintCode, LintConfig, LintReport, Severity};
use equitls_kernel::subst::Subst;
use equitls_kernel::term::{TermId, TermStore};
use equitls_kernel::unify::{apply_to_fixpoint, function_positions, replace_at, unify};
use equitls_rewrite::bool_alg::BoolAlg;
use equitls_rewrite::engine::Normalizer;
use equitls_rewrite::rule::{Rule, RuleSet};

/// Fuel per critical-pair normalization: generous for honest systems,
/// small enough that a diverging mutant fails fast into "undecided".
const CP_FUEL: u64 = 50_000;

/// One critical pair, before joinability is decided.
#[derive(Debug, Clone)]
pub struct CriticalPair {
    /// Label of the outer rule (rewrites the peak at the root).
    pub outer: String,
    /// Label of the inner rule (rewrites the peak at `position`).
    pub inner: String,
    /// Where the inner rule's left-hand side overlaps the outer's.
    pub position: Vec<usize>,
    /// The peak `σ(l1)` both sides rewrite from.
    pub peak: TermId,
    /// `σ(l1[p ← r2])` — the inner rewrite.
    pub left: TermId,
    /// `σ(r1)` — the outer rewrite.
    pub right: TermId,
    /// Instantiated conditions of the two rules, when conditional.
    pub conditions: (Option<TermId>, Option<TermId>),
}

impl CriticalPair {
    /// `true` when either contributing rule was conditional.
    pub fn is_conditional(&self) -> bool {
        self.conditions.0.is_some() || self.conditions.1.is_some()
    }
}

/// How one critical pair fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Joinability {
    /// Both sides reached the same normal form.
    Joinable,
    /// Distinct normal forms: a genuine counterexample to local confluence.
    Unjoinable,
    /// Normalization failed (out of fuel / depth) — typically because the
    /// system also fails termination.
    Undecided,
    /// The instantiated conditions are mutually exclusive; the peak is
    /// unreachable.
    Pruned,
}

/// Rename `rule`'s variables apart (suffix `#cp`), returning the renamed
/// `(lhs, rhs, cond)`.
///
/// Variable names are globally unique per store, so the deterministic
/// suffix cannot collide across sorts.
fn rename_apart(store: &mut TermStore, rule: &Rule) -> (TermId, TermId, Option<TermId>) {
    let mut subst = Subst::new();
    for v in store.vars_of(rule.lhs) {
        let (name, sort) = {
            let decl = store.var_decl(v);
            (format!("{}#cp", decl.name), decl.sort)
        };
        let fresh = store
            .declare_var(&name, sort)
            .expect("renamed variable names are unique per sort");
        let fresh_term = store.var(fresh);
        subst.bind(v, fresh_term);
    }
    let lhs = subst.apply(store, rule.lhs);
    let rhs = subst.apply(store, rule.rhs);
    let cond = rule.cond.map(|c| subst.apply(store, c));
    (lhs, rhs, cond)
}

/// Compute every critical pair of `rules`, ordered by outer rule, inner
/// rule, then position.
///
/// Each rule is renamed apart once, up front. Unification is attempted
/// only where the outer left-hand side's subterm has the inner rule's
/// head operator: every left-hand side is an application, so any other
/// position fails to unify at its root. Overlaps whose two sides are
/// syntactically equal are dropped; the self-overlap of a rule with
/// itself at the root is always such a pair, and is skipped before
/// unifying.
pub fn critical_pairs(store: &mut TermStore, rules: &RuleSet) -> Vec<CriticalPair> {
    let renamed: Vec<_> = rules.iter().map(|r| rename_apart(store, r)).collect();
    let mut out = Vec::new();
    for (i, outer) in rules.iter().enumerate() {
        let positions: Vec<_> = function_positions(store, outer.lhs)
            .into_iter()
            .map(|(position, subterm)| (position, subterm, store.op_of(subterm)))
            .collect();
        for (j, (inner, &(inner_lhs, inner_rhs, inner_cond))) in
            rules.iter().zip(&renamed).enumerate()
        {
            for (position, subterm, _) in positions.iter().filter(|p| p.2 == Some(inner.head)) {
                if position.is_empty() && i == j {
                    continue;
                }
                let Some(sigma) = unify(store, *subterm, inner_lhs).into_subst() else {
                    continue;
                };
                let patched = replace_at(store, outer.lhs, position, inner_rhs);
                let left = apply_to_fixpoint(store, &sigma, patched);
                let right = apply_to_fixpoint(store, &sigma, outer.rhs);
                if left == right {
                    continue;
                }
                let peak = apply_to_fixpoint(store, &sigma, outer.lhs);
                let c1 = outer.cond.map(|c| apply_to_fixpoint(store, &sigma, c));
                let c2 = inner_cond.map(|c| apply_to_fixpoint(store, &sigma, c));
                out.push(CriticalPair {
                    outer: outer.label.clone(),
                    inner: inner.label.clone(),
                    position: position.clone(),
                    peak,
                    left,
                    right,
                    conditions: (c1, c2),
                });
            }
        }
    }
    out
}

/// Aggregate outcome of the confluence pass.
#[derive(Debug, Default)]
pub struct ConfluenceOutcome {
    /// Critical pairs examined (after the trivial ones were dropped).
    pub pairs: usize,
    /// Pairs that joined.
    pub joinable: usize,
    /// Pairs with distinct normal forms.
    pub unjoinable: usize,
    /// Pairs whose normalization ran out of fuel.
    pub undecided: usize,
    /// Conditional pairs pruned as mutually exclusive.
    pub pruned: usize,
}

/// Decide joinability of one pair.
///
/// Each pair is judged with **fresh** normalizers. A shared normalizer's
/// memo cache would make fuel-exhaustion verdicts depend on which pairs
/// were judged before this one — warm caches stretch the fuel. Fresh
/// normalizers make every verdict a pure function of the pair and the
/// rule set.
fn judge(store: &mut TermStore, alg: &BoolAlg, rules: &RuleSet, cp: &CriticalPair) -> Joinability {
    let mut norm = Normalizer::new(alg.clone(), rules.clone());
    norm.set_fuel_limit(CP_FUEL);
    // Conditions are judged against the built-in ring semantics alone so a
    // broken rule set cannot veto its own critical pairs.
    let mut poly_norm = Normalizer::new(alg.clone(), RuleSet::new());
    poly_norm.set_fuel_limit(CP_FUEL);
    // Mutually exclusive conditions: σ(c1) ∧ σ(c2) ≡ false in GF(2).
    if let (Some(c1), Some(c2)) = cp.conditions {
        let polys = (
            poly_norm.normalize_to_poly(store, c1),
            poly_norm.normalize_to_poly(store, c2),
        );
        if let (Ok(p1), Ok(p2)) = polys {
            if p1.mul(&p2).is_false() {
                return Joinability::Pruned;
            }
        }
    }
    match (
        norm.normalize(store, cp.left),
        norm.normalize(store, cp.right),
    ) {
        (Ok(a), Ok(b)) if a == b => Joinability::Joinable,
        (Ok(_), Ok(_)) => Joinability::Unjoinable,
        _ => Joinability::Undecided,
    }
}

/// Run the local-confluence pass, reporting into `report`.
pub fn check_confluence(
    store: &mut TermStore,
    alg: &BoolAlg,
    rules: &RuleSet,
    config: &LintConfig,
    report: &mut LintReport,
) -> ConfluenceOutcome {
    let cps = critical_pairs(store, rules);
    let mut outcome = ConfluenceOutcome {
        pairs: cps.len(),
        ..ConfluenceOutcome::default()
    };
    for cp in &cps {
        match judge(store, alg, rules, cp) {
            Joinability::Joinable => outcome.joinable += 1,
            Joinability::Pruned => outcome.pruned += 1,
            Joinability::Undecided => {
                outcome.undecided += 1;
                report.push(
                    config,
                    Diagnostic {
                        code: LintCode::UnjoinableCriticalPair,
                        severity: Severity::Warn,
                        message: format!(
                            "joinability of the critical pair of `{}` and `{}` at position {:?} \
                             is undecided: normalization ran out of fuel (is the system \
                             terminating?)",
                            cp.outer, cp.inner, cp.position,
                        ),
                        rule: Some(cp.outer.clone()),
                        span: None,
                        justification: None,
                    },
                );
            }
            Joinability::Unjoinable => {
                outcome.unjoinable += 1;
                let severity = if cp.is_conditional() {
                    Severity::Warn
                } else {
                    LintCode::UnjoinableCriticalPair.default_severity()
                };
                let qualifier = if cp.is_conditional() {
                    " (conditional: the instantiated conditions may be jointly unsatisfiable)"
                } else {
                    ""
                };
                report.push(
                    config,
                    Diagnostic {
                        code: LintCode::UnjoinableCriticalPair,
                        severity,
                        message: format!(
                            "rules `{}` and `{}` overlap at position {:?} of {}: the \
                             counterexample equation {} = {} does not join{qualifier}",
                            cp.outer,
                            cp.inner,
                            cp.position,
                            store.display(cp.peak),
                            store.display(cp.left),
                            store.display(cp.right),
                        ),
                        rule: Some(cp.outer.clone()),
                        span: None,
                        justification: None,
                    },
                );
            }
        }
    }
    if outcome.unjoinable == 0 && outcome.undecided == 0 {
        report.note(format!(
            "local confluence proved: {} critical pairs, {} joinable, {} pruned \
             (mutually exclusive conditions)",
            outcome.pairs, outcome.joinable, outcome.pruned,
        ));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use equitls_kernel::signature::Signature;
    use equitls_rewrite::bool_rules::hd_bool_rules;

    fn bool_world() -> (TermStore, BoolAlg) {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        (TermStore::new(sig), alg)
    }

    #[test]
    fn hd_bool_critical_pairs_all_join() {
        let (mut store, alg) = bool_world();
        let rules = hd_bool_rules(&mut store, &alg).unwrap();
        let config = LintConfig::new();
        let mut report = LintReport::new("BOOL");
        let outcome = check_confluence(&mut store, &alg, &rules, &config, &mut report);
        assert!(outcome.pairs > 0, "the HD system has overlaps");
        assert_eq!(outcome.unjoinable, 0, "{report}");
        assert_eq!(outcome.undecided, 0, "{report}");
        assert_eq!(outcome.joinable + outcome.pruned, outcome.pairs);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn root_overlap_of_contradictory_rules_is_denied() {
        let (mut store, alg) = bool_world();
        let p = store.declare_var("CFP", alg.sort()).unwrap();
        let pv = store.var(p);
        let not_p = store.app(alg.not_op(), &[pv]).unwrap();
        let tt = alg.tt(&mut store);
        let ff = alg.ff(&mut store);
        let mut rules = RuleSet::new();
        rules.add(&store, "to-true", not_p, tt, None, None).unwrap();
        rules
            .add(&store, "to-false", not_p, ff, None, None)
            .unwrap();
        let config = LintConfig::new();
        let mut report = LintReport::new("bad");
        let outcome = check_confluence(&mut store, &alg, &rules, &config, &mut report);
        // Both orderings of the root overlap yield (true, false).
        assert_eq!(outcome.unjoinable, 2, "{report}");
        assert!(report.has_deny());
        let diags = report.with_code(LintCode::UnjoinableCriticalPair);
        assert!(diags[0].message.contains("does not join"));
    }

    #[test]
    fn mutually_exclusive_conditions_are_pruned() {
        let (mut store, alg) = bool_world();
        let p = store.declare_var("CFQ", alg.sort()).unwrap();
        let pv = store.var(p);
        let not_p = store.app(alg.not_op(), &[pv]).unwrap();
        let tt = alg.tt(&mut store);
        let ff = alg.ff(&mut store);
        let bs = Some(alg.sort());
        let mut rules = RuleSet::new();
        // ceq not P = true if P .  /  ceq not P = false if not P .
        // The guards cannot hold together: P · (P ⊕ 1) = 0 in GF(2).
        rules.add(&store, "if-p", not_p, tt, Some(pv), bs).unwrap();
        rules
            .add(&store, "if-not-p", not_p, ff, Some(not_p), bs)
            .unwrap();
        let config = LintConfig::new();
        let mut report = LintReport::new("guarded");
        let outcome = check_confluence(&mut store, &alg, &rules, &config, &mut report);
        assert_eq!(outcome.unjoinable, 0, "{report}");
        assert_eq!(outcome.pruned, 2, "{report}");
        assert!(!report.has_deny());
    }
}
