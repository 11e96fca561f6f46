//! The Hsiang–Dershowitz `BOOL` system as an explicit rule set.
//!
//! The engine normalizes Bool-sorted terms through the built-in
//! Boolean-ring polynomial form ([`crate::boolring`]), so proofs never run
//! these rules one by one. Static analysis does need them spelled out: the
//! paper's claim that `red` decides propositional logic rests on the
//! Hsiang–Dershowitz rewrite system \[5\] being **terminating and
//! confluent**, and `equitls-lint` re-checks exactly that on this rule set
//! (an RPO-orientable precedence, an empty set of unjoinable critical
//! pairs).
//!
//! The rules translate every connective into the xor/and (GF(2) ring)
//! fragment and then normalize ring expressions:
//!
//! ```text
//! not p            → p xor true
//! p or q           → (p and q) xor (p xor q)
//! p implies q      → (p and q) xor (p xor true)
//! p iff q          → (p xor q) xor true
//! if c then p else q fi → ((c and p) xor (c and q)) xor q
//! p xor false      → p
//! p xor p          → false
//! p and true       → p
//! p and false      → false
//! p and p          → p
//! p and (q xor r)  → (p and q) xor (p and r)
//! ```
//!
//! (The original system is AC-complete; ours is its syntactic core, which
//! is what the workspace's innermost engine could run and what the lint
//! analyzes.)

use crate::bool_alg::BoolAlg;
use crate::error::RewriteError;
use crate::rule::RuleSet;
use equitls_kernel::prelude::*;

/// Build the Hsiang–Dershowitz `BOOL` rule set over `store`.
///
/// Declares three Bool-sorted variables (`BOOLP`, `BOOLQ`, `BOOLR`); the
/// names are chosen not to collide with the protocol specifications'
/// variable namespaces.
///
/// # Errors
///
/// Propagates kernel errors (only possible if the store's `BOOL`
/// vocabulary disagrees with `alg`) and rule-validation errors.
pub fn hd_bool_rules(store: &mut TermStore, alg: &BoolAlg) -> Result<RuleSet, RewriteError> {
    let bool_sort = alg.sort();
    let p = store.declare_var("BOOLP", bool_sort)?;
    let q = store.declare_var("BOOLQ", bool_sort)?;
    let r = store.declare_var("BOOLR", bool_sort)?;
    let (p, q, r) = (store.var(p), store.var(q), store.var(r));
    let tt = alg.tt(store);
    let ff = alg.ff(store);

    let mut rules = RuleSet::new();
    let bs = Some(bool_sort);

    // Connective translations into the ring fragment.
    let not_p = alg.not(store, p)?;
    let p_xor_true = alg.xor(store, p, tt)?;
    rules.add(store, "bool-not", not_p, p_xor_true, None, bs)?;

    let p_or_q = alg.or(store, p, q)?;
    let p_and_q = alg.and(store, p, q)?;
    let p_xor_q = alg.xor(store, p, q)?;
    let or_rhs = alg.xor(store, p_and_q, p_xor_q)?;
    rules.add(store, "bool-or", p_or_q, or_rhs, None, bs)?;

    let p_imp_q = alg.implies(store, p, q)?;
    let imp_rhs = alg.xor(store, p_and_q, p_xor_true)?;
    rules.add(store, "bool-implies", p_imp_q, imp_rhs, None, bs)?;

    let p_iff_q = alg.iff(store, p, q)?;
    let iff_rhs = alg.xor(store, p_xor_q, tt)?;
    rules.add(store, "bool-iff", p_iff_q, iff_rhs, None, bs)?;

    let ite = store.app(alg.ite_op(), &[p, q, r])?;
    let p_and_r = alg.and(store, p, r)?;
    let branches = alg.xor(store, p_and_q, p_and_r)?;
    let ite_rhs = alg.xor(store, branches, r)?;
    rules.add(store, "bool-ite", ite, ite_rhs, None, bs)?;

    // Ring normalization.
    let p_xor_false = alg.xor(store, p, ff)?;
    rules.add(store, "xor-unit", p_xor_false, p, None, bs)?;
    let p_xor_p = alg.xor(store, p, p)?;
    rules.add(store, "xor-nilpotent", p_xor_p, ff, None, bs)?;
    let p_and_true = alg.and(store, p, tt)?;
    rules.add(store, "and-unit", p_and_true, p, None, bs)?;
    let p_and_false = alg.and(store, p, ff)?;
    rules.add(store, "and-zero", p_and_false, ff, None, bs)?;
    let p_and_p = alg.and(store, p, p)?;
    rules.add(store, "and-idempotent", p_and_p, p, None, bs)?;
    let q_xor_r = alg.xor(store, q, r)?;
    let distrib_lhs = alg.and(store, p, q_xor_r)?;
    let distrib_rhs = alg.xor(store, p_and_q, p_and_r)?;
    rules.add(store, "and-distrib", distrib_lhs, distrib_rhs, None, bs)?;

    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_twelve_rule_system_headed_by_the_connectives() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let rules = hd_bool_rules(&mut store, &alg).unwrap();
        assert_eq!(rules.len(), 11);
        let heads = rules.defined_heads();
        for op in [
            alg.not_op(),
            alg.or_op(),
            alg.implies_op(),
            alg.iff_op(),
            alg.ite_op(),
            alg.xor_op(),
            alg.and_op(),
        ] {
            assert!(heads.contains(&op), "missing head {:?}", op);
        }
    }

    #[test]
    fn rules_agree_with_the_builtin_polynomial_semantics() {
        use crate::engine::Normalizer;
        // Every rule's two sides must denote the same GF(2) polynomial —
        // otherwise the explicit system and the built-in normalizer would
        // disagree about BOOL.
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let rules = hd_bool_rules(&mut store, &alg).unwrap();
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        for rule in rules.iter() {
            let l = norm.normalize_to_poly(&mut store, rule.lhs).unwrap();
            let r = norm.normalize_to_poly(&mut store, rule.rhs).unwrap();
            assert_eq!(l, r, "rule {} changes the denotation", rule.label);
        }
    }
}
