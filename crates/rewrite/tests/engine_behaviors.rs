//! Behavioral tests of the normalizer: rule priority, conditional
//! cascades, cache coherence across assumptions, and statistics.

use equitls_kernel::prelude::*;
use equitls_rewrite::prelude::*;

struct World {
    store: TermStore,
    alg: BoolAlg,
    s: SortId,
}

fn world() -> World {
    let mut sig = Signature::new();
    let alg = BoolAlg::install(&mut sig).unwrap();
    let s = sig.add_visible_sort("S").unwrap();
    World {
        store: TermStore::new(sig),
        alg,
        s,
    }
}

#[test]
fn assumptions_take_priority_over_specification_rules() {
    let mut w = world();
    let c = w
        .store
        .signature_mut()
        .add_constant("c", w.s, OpAttrs::constructor())
        .unwrap();
    let d = w
        .store
        .signature_mut()
        .add_constant("d", w.s, OpAttrs::constructor())
        .unwrap();
    let e = w
        .store
        .signature_mut()
        .add_constant("e", w.s, OpAttrs::constructor())
        .unwrap();
    let f = w
        .store
        .signature_mut()
        .add_op("f", &[w.s], w.s, OpAttrs::defined())
        .unwrap();
    let cv = w.store.constant(c);
    let dv = w.store.constant(d);
    let ev = w.store.constant(e);
    let fc = w.store.app(f, &[cv]).unwrap();
    let mut rules = RuleSet::new();
    // Spec says f(c) = d…
    rules.add(&w.store, "spec", fc, dv, None, None).unwrap();
    let mut norm = Normalizer::new(w.alg.clone(), rules);
    assert_eq!(norm.normalize(&mut w.store, fc).unwrap(), dv);
    // …but a proof-passage assumption f(c) = e wins.
    norm.assume(&w.store, "assume", fc, ev).unwrap();
    assert_eq!(norm.normalize(&mut w.store, fc).unwrap(), ev);
}

#[test]
fn conditional_rules_cascade_through_decided_conditions() {
    // g(X) = h(X) if p(X);  h(X) = c if q(X);  with p,q assumed true,
    // g(a) reduces all the way to c.
    let mut w = world();
    let c = w
        .store
        .signature_mut()
        .add_constant("c", w.s, OpAttrs::constructor())
        .unwrap();
    let sig = w.store.signature_mut();
    let g = sig.add_op("g", &[w.s], w.s, OpAttrs::defined()).unwrap();
    let h = sig.add_op("h", &[w.s], w.s, OpAttrs::defined()).unwrap();
    let p = sig
        .add_op("p", &[w.s], w.alg.sort(), OpAttrs::defined())
        .unwrap();
    let q = sig
        .add_op("q", &[w.s], w.alg.sort(), OpAttrs::defined())
        .unwrap();
    let x = w.store.declare_var("X", w.s).unwrap();
    let xt = w.store.var(x);
    let gx = w.store.app(g, &[xt]).unwrap();
    let hx = w.store.app(h, &[xt]).unwrap();
    let px = w.store.app(p, &[xt]).unwrap();
    let qx = w.store.app(q, &[xt]).unwrap();
    let cv = w.store.constant(c);
    let mut rules = RuleSet::new();
    rules
        .add(&w.store, "g", gx, hx, Some(px), Some(w.alg.sort()))
        .unwrap();
    rules
        .add(&w.store, "h", hx, cv, Some(qx), Some(w.alg.sort()))
        .unwrap();
    let mut norm = Normalizer::new(w.alg.clone(), rules);
    let a = w.store.fresh_constant("a", w.s);
    let ga = w.store.app(g, &[a]).unwrap();
    // Undecided: both rules block; two blocked conditions are reported.
    assert_eq!(norm.normalize(&mut w.store, ga).unwrap(), ga);
    let blocked = norm.take_blocked();
    assert_eq!(blocked.len(), 1, "only g's condition blocks at the root");
    // Assume both conditions.
    let pa = w.store.app(p, &[a]).unwrap();
    let qa = w.store.app(q, &[a]).unwrap();
    let tt = w.alg.tt(&mut w.store);
    norm.assume(&w.store, "p", pa, tt).unwrap();
    norm.assume(&w.store, "q", qa, tt).unwrap();
    assert_eq!(norm.normalize(&mut w.store, ga).unwrap(), cv);
}

#[test]
fn first_matching_rule_wins_in_declaration_order() {
    let mut w = world();
    let c = w
        .store
        .signature_mut()
        .add_constant("c", w.s, OpAttrs::constructor())
        .unwrap();
    let d = w
        .store
        .signature_mut()
        .add_constant("d", w.s, OpAttrs::constructor())
        .unwrap();
    let f = w
        .store
        .signature_mut()
        .add_op("f", &[w.s], w.s, OpAttrs::defined())
        .unwrap();
    let x = w.store.declare_var("X", w.s).unwrap();
    let xt = w.store.var(x);
    let fx = w.store.app(f, &[xt]).unwrap();
    let cv = w.store.constant(c);
    let dv = w.store.constant(d);
    let mut rules = RuleSet::new();
    rules.add(&w.store, "first", fx, cv, None, None).unwrap();
    rules.add(&w.store, "second", fx, dv, None, None).unwrap();
    let mut norm = Normalizer::new(w.alg.clone(), rules);
    let a = w.store.fresh_constant("a", w.s);
    let fa = w.store.app(f, &[a]).unwrap();
    assert_eq!(norm.normalize(&mut w.store, fa).unwrap(), cv);
}

#[test]
fn cache_is_coherent_across_assumption_changes() {
    let mut w = world();
    let p = w
        .store
        .signature_mut()
        .add_op("p", &[w.s], w.alg.sort(), OpAttrs::defined())
        .unwrap();
    let a = w.store.fresh_constant("a", w.s);
    let pa = w.store.app(p, &[a]).unwrap();
    let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
    // Normalize once: cached as itself.
    assert_eq!(norm.normalize(&mut w.store, pa).unwrap(), pa);
    // Now assume it true: the cache must not serve the stale value.
    let tt = w.alg.tt(&mut w.store);
    norm.assume(&w.store, "pa", pa, tt).unwrap();
    assert!(norm.proves(&mut w.store, pa).unwrap());
}

#[test]
fn normalizer_scope_isolates_assumptions() {
    let mut w = world();
    let p = w
        .store
        .signature_mut()
        .add_op("p", &[w.s], w.alg.sort(), OpAttrs::defined())
        .unwrap();
    let a = w.store.fresh_constant("a", w.s);
    let pa = w.store.app(p, &[a]).unwrap();
    let tt = w.alg.tt(&mut w.store);
    let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
    // The `true` branch assumes p(a) inside its scope…
    norm.push_scope();
    norm.assume(&w.store, "pa", pa, tt).unwrap();
    assert!(norm.proves(&mut w.store, pa).unwrap());
    norm.pop_scope();
    // …and its sibling, opened on the same normalizer, does not see it.
    norm.push_scope();
    assert!(!norm.proves(&mut w.store, pa).unwrap());
    norm.pop_scope();
    assert!(norm.assumptions().is_empty());
}

#[test]
fn statistics_track_real_work() {
    let mut w = world();
    let c = w
        .store
        .signature_mut()
        .add_constant("c", w.s, OpAttrs::constructor())
        .unwrap();
    let f = w
        .store
        .signature_mut()
        .add_op("f", &[w.s], w.s, OpAttrs::defined())
        .unwrap();
    let x = w.store.declare_var("X", w.s).unwrap();
    let xt = w.store.var(x);
    let fx = w.store.app(f, &[xt]).unwrap();
    let mut rules = RuleSet::new();
    rules.add(&w.store, "f-id", fx, xt, None, None).unwrap();
    let mut norm = Normalizer::new(w.alg.clone(), rules);
    // f(f(f(c))) takes three rewrites.
    let cv = w.store.constant(c);
    let mut t = cv;
    for _ in 0..3 {
        t = w.store.app(f, &[t]).unwrap();
    }
    assert_eq!(norm.normalize(&mut w.store, t).unwrap(), cv);
    assert_eq!(norm.stats().rewrites, 3);
    // Cache hit on re-normalization.
    let before = norm.stats().cache_hits;
    norm.normalize(&mut w.store, t).unwrap();
    assert!(norm.stats().cache_hits > before);
}

#[test]
fn deep_terms_error_gracefully_instead_of_overflowing() {
    let mut w = world();
    let c = w
        .store
        .signature_mut()
        .add_constant("c", w.s, OpAttrs::constructor())
        .unwrap();
    let f = w
        .store
        .signature_mut()
        .add_op("f", &[w.s], w.s, OpAttrs::constructor())
        .unwrap();
    // Within the default depth bound: normalizes fine.
    let mut t = w.store.constant(c);
    for _ in 0..250 {
        t = w.store.app(f, &[t]).unwrap();
    }
    let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
    assert_eq!(norm.normalize(&mut w.store, t).unwrap(), t);
    // Past the bound: a clean error, never a stack overflow.
    for _ in 0..200 {
        t = w.store.app(f, &[t]).unwrap();
    }
    let mut norm2 = Normalizer::new(w.alg.clone(), RuleSet::new());
    assert!(matches!(
        norm2.normalize(&mut w.store, t),
        Err(RewriteError::FuelExhausted { .. })
    ));
    // A raised bound admits the deeper term.
    let mut norm3 = Normalizer::new(w.alg.clone(), RuleSet::new());
    norm3.set_max_depth(2000);
    assert_eq!(norm3.normalize(&mut w.store, t).unwrap(), t);
}
