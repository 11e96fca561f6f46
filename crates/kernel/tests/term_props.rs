//! Property-style tests for the term kernel: hash-consing, matching, and
//! substitution laws over randomly generated terms.
//!
//! The offline build cannot depend on proptest, so generation is driven
//! by a seeded SplitMix64 stream — deterministic, so failures reproduce.

use equitls_kernel::prelude::*;
use equitls_obs::rng::SplitMix64;
use std::collections::HashMap;

/// A tiny term AST for generation.
#[derive(Debug, Clone)]
enum T {
    C0,
    C1,
    F(Box<T>),
    G(Box<T>, Box<T>),
}

fn gen_term(rng: &mut SplitMix64, depth: usize) -> T {
    if depth == 0 || rng.next_below(4) == 0 {
        if rng.next_bool() {
            T::C0
        } else {
            T::C1
        }
    } else if rng.next_bool() {
        T::F(Box::new(gen_term(rng, depth - 1)))
    } else {
        T::G(
            Box::new(gen_term(rng, depth - 1)),
            Box::new(gen_term(rng, depth - 1)),
        )
    }
}

struct World {
    store: TermStore,
    c0: OpId,
    c1: OpId,
    f: OpId,
    g: OpId,
    sort: SortId,
}

fn world() -> World {
    let mut sig = Signature::new();
    let sort = sig.add_visible_sort("S").unwrap();
    let c0 = sig
        .add_constant("c0", sort, OpAttrs::constructor())
        .unwrap();
    let c1 = sig
        .add_constant("c1", sort, OpAttrs::constructor())
        .unwrap();
    let f = sig
        .add_op("f", &[sort], sort, OpAttrs::constructor())
        .unwrap();
    let g = sig
        .add_op("g", &[sort, sort], sort, OpAttrs::constructor())
        .unwrap();
    World {
        store: TermStore::new(sig),
        c0,
        c1,
        f,
        g,
        sort,
    }
}

fn build(w: &mut World, t: &T) -> TermId {
    match t {
        T::C0 => w.store.constant(w.c0),
        T::C1 => w.store.constant(w.c1),
        T::F(a) => {
            let at = build(w, a);
            w.store.app(w.f, &[at]).unwrap()
        }
        T::G(a, b) => {
            let at = build(w, a);
            let bt = build(w, b);
            w.store.app(w.g, &[at, bt]).unwrap()
        }
    }
}

/// Building the same tree twice interns to the same id; structurally
/// different trees get different ids.
#[test]
fn hash_consing_is_injective() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for case in 0..200 {
        let a = gen_term(&mut rng, 6);
        let b = gen_term(&mut rng, 6);
        let mut w = world();
        let ta1 = build(&mut w, &a);
        let ta2 = build(&mut w, &a);
        assert_eq!(ta1, ta2, "case {case}: same tree interns once");
        let tb = build(&mut w, &b);
        let structurally_equal = format!("{a:?}") == format!("{b:?}");
        assert_eq!(ta1 == tb, structurally_equal, "case {case}");
    }
}

/// size/depth behave like the tree metrics.
#[test]
fn size_and_depth_are_tree_metrics() {
    fn size(t: &T) -> usize {
        match t {
            T::C0 | T::C1 => 1,
            T::F(x) => 1 + size(x),
            T::G(x, y) => 1 + size(x) + size(y),
        }
    }
    fn depth(t: &T) -> usize {
        match t {
            T::C0 | T::C1 => 1,
            T::F(x) => 1 + depth(x),
            T::G(x, y) => 1 + depth(x).max(depth(y)),
        }
    }
    let mut rng = SplitMix64::new(0xBEEF);
    for case in 0..200 {
        let a = gen_term(&mut rng, 6);
        let mut w = world();
        let ta = build(&mut w, &a);
        assert_eq!(w.store.size(ta), size(&a), "case {case}");
        assert_eq!(w.store.depth(ta), depth(&a), "case {case}");
        // subterm count never exceeds size (sharing only shrinks it)
        assert!(w.store.subterms(ta).len() <= size(&a), "case {case}");
    }
}

/// A pattern with a fresh variable always matches, and applying the
/// returned substitution to the pattern reproduces the subject.
#[test]
fn match_then_substitute_roundtrips() {
    let mut rng = SplitMix64::new(0xDADA);
    for case in 0..200 {
        let subject = gen_term(&mut rng, 5);
        let shape = gen_term(&mut rng, 5);
        let mut w = world();
        let subject_t = build(&mut w, &subject);
        // Pattern: g(X, <shape>) matched against g(subject, <shape>).
        let x = w.store.declare_var("X", w.sort).unwrap();
        let xt = w.store.var(x);
        let shape_t = build(&mut w, &shape);
        let pattern = w.store.app(w.g, &[xt, shape_t]).unwrap();
        let full = w.store.app(w.g, &[subject_t, shape_t]).unwrap();
        match match_term(&w.store, pattern, full) {
            MatchOutcome::Matched(sub) => {
                assert_eq!(sub.get(x), Some(subject_t), "case {case}");
                let rebuilt = sub.apply(&mut w.store, pattern);
                assert_eq!(rebuilt, full, "case {case}");
            }
            MatchOutcome::Failed => panic!("case {case}: pattern must match"),
        }
    }
}

/// Ground terms never match a strictly larger pattern.
#[test]
fn no_spurious_ground_matches() {
    let mut rng = SplitMix64::new(0xFEED);
    for case in 0..200 {
        let a = gen_term(&mut rng, 6);
        let mut w = world();
        let ta = build(&mut w, &a);
        let wrapped = w.store.app(w.f, &[ta]).unwrap();
        // f(a) as a pattern cannot match a itself unless a = f(a) (impossible).
        assert_eq!(
            match_term(&w.store, wrapped, ta),
            MatchOutcome::Failed,
            "case {case}"
        );
        assert!(w.store.is_ground(ta), "case {case}");
    }
}

/// A pattern or subject for the matching differential: two sorts, `S`
/// (constants `c0`, `c1`; `f: S → S`, `g: S S → S`, `h: U → S`) and `U`
/// (constant `u0`), with variables `X0`–`X2` of sort `S` and `Y` of sort
/// `U`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum P {
    C0,
    C1,
    U0,
    X(usize),
    Y,
    F(Box<P>),
    G(Box<P>, Box<P>),
    H(Box<P>),
}

impl P {
    fn is_sort_u(&self) -> bool {
        matches!(self, P::U0 | P::Y)
    }
}

/// A random `P` of sort `U` (`sort_u`) or `S`. With `vars` off it is
/// ground; with it on, variables repeat often, so patterns are frequently
/// nonlinear.
fn gen_p(rng: &mut SplitMix64, depth: usize, sort_u: bool, vars: bool) -> P {
    if sort_u {
        return if vars && rng.next_below(3) == 0 {
            P::Y
        } else {
            P::U0
        };
    }
    if depth == 0 || rng.next_below(4) == 0 {
        return match rng.next_below(if vars { 5 } else { 2 }) {
            0 => P::C0,
            1 => P::C1,
            _ => P::X(rng.next_index(3)),
        };
    }
    match rng.next_below(3) {
        0 => P::F(Box::new(gen_p(rng, depth - 1, false, vars))),
        1 => P::G(
            Box::new(gen_p(rng, depth - 1, false, vars)),
            Box::new(gen_p(rng, depth - 1, false, vars)),
        ),
        _ => P::H(Box::new(gen_p(rng, depth - 1, true, vars))),
    }
}

/// The reference matcher: structural recursion over the trees, bindings
/// in a `HashMap`, repeated variables compared as trees.
fn ref_match(pattern: &P, subject: &P, sigma: &mut HashMap<P, P>) -> bool {
    match (pattern, subject) {
        (P::X(_) | P::Y, _) => {
            if pattern.is_sort_u() != subject.is_sort_u() {
                return false;
            }
            match sigma.get(pattern) {
                Some(bound) => bound == subject,
                None => {
                    sigma.insert(pattern.clone(), subject.clone());
                    true
                }
            }
        }
        (P::F(p), P::F(s)) | (P::H(p), P::H(s)) => ref_match(p, s, sigma),
        (P::G(p1, p2), P::G(s1, s2)) => ref_match(p1, s1, sigma) && ref_match(p2, s2, sigma),
        _ => pattern == subject,
    }
}

/// The reference substitution: clone the tree, replacing bound variables.
fn ref_apply(t: &P, sigma: &HashMap<P, P>) -> P {
    match t {
        P::X(_) | P::Y => sigma.get(t).cloned().unwrap_or_else(|| t.clone()),
        P::F(a) => P::F(Box::new(ref_apply(a, sigma))),
        P::G(a, b) => P::G(Box::new(ref_apply(a, sigma)), Box::new(ref_apply(b, sigma))),
        P::H(a) => P::H(Box::new(ref_apply(a, sigma))),
        P::C0 | P::C1 | P::U0 => t.clone(),
    }
}

/// A two-sorted store with the vocabulary of [`P`].
struct PWorld {
    store: TermStore,
    c0: OpId,
    c1: OpId,
    u0: OpId,
    f: OpId,
    g: OpId,
    h: OpId,
    xs: [VarId; 3],
    y: VarId,
}

fn p_world() -> PWorld {
    let mut sig = Signature::new();
    let s = sig.add_visible_sort("S").unwrap();
    let u = sig.add_visible_sort("U").unwrap();
    let c0 = sig.add_constant("c0", s, OpAttrs::constructor()).unwrap();
    let c1 = sig.add_constant("c1", s, OpAttrs::constructor()).unwrap();
    let u0 = sig.add_constant("u0", u, OpAttrs::constructor()).unwrap();
    let f = sig.add_op("f", &[s], s, OpAttrs::constructor()).unwrap();
    let g = sig.add_op("g", &[s, s], s, OpAttrs::constructor()).unwrap();
    let h = sig.add_op("h", &[u], s, OpAttrs::constructor()).unwrap();
    let mut store = TermStore::new(sig);
    let xs = [
        store.declare_var("X0", s).unwrap(),
        store.declare_var("X1", s).unwrap(),
        store.declare_var("X2", s).unwrap(),
    ];
    let y = store.declare_var("Y", u).unwrap();
    PWorld {
        store,
        c0,
        c1,
        u0,
        f,
        g,
        h,
        xs,
        y,
    }
}

fn build_p(w: &mut PWorld, t: &P) -> TermId {
    match t {
        P::C0 => w.store.constant(w.c0),
        P::C1 => w.store.constant(w.c1),
        P::U0 => w.store.constant(w.u0),
        P::X(i) => w.store.var(w.xs[*i]),
        P::Y => w.store.var(w.y),
        P::F(a) => {
            let a = build_p(w, a);
            w.store.app(w.f, &[a]).unwrap()
        }
        P::G(a, b) => {
            let a = build_p(w, a);
            let b = build_p(w, b);
            w.store.app(w.g, &[a, b]).unwrap()
        }
        P::H(a) => {
            let a = build_p(w, a);
            w.store.app(w.h, &[a]).unwrap()
        }
    }
}

fn var_of(w: &PWorld, v: &P) -> VarId {
    match v {
        P::X(i) => w.xs[*i],
        P::Y => w.y,
        other => panic!("{other:?} is not a variable"),
    }
}

/// `match_term` + `Subst::apply` agree with the naive reference on random
/// patterns (nonlinear variables, constants, nested applications, both
/// sorts) against subjects that are instances of the pattern half of the
/// time and unrelated ground terms otherwise. A random substitution, with
/// some variables left unbound, is applied both ways too. `Subst` equality
/// must not depend on the order variables were bound in, and `bind` must
/// return the binding it replaces.
#[test]
fn matching_and_substitution_agree_with_a_naive_reference() {
    let mut rng = SplitMix64::new(0x5EED_3A7C);
    let mut matched = 0;
    for case in 0..2000 {
        let sort_u = rng.next_below(8) == 0;
        let pattern = gen_p(&mut rng, 4, sort_u, true);
        let subject = if rng.next_bool() {
            // An instance: every variable of the pattern replaced by a
            // ground term of its sort.
            let mut sigma = HashMap::new();
            for (i, var) in [P::X(0), P::X(1), P::X(2), P::Y].into_iter().enumerate() {
                sigma.insert(var, gen_p(&mut rng, 3, i == 3, false));
            }
            ref_apply(&pattern, &sigma)
        } else {
            let sort_u = rng.next_below(8) == 0;
            gen_p(&mut rng, 4, sort_u, false)
        };
        let mut w = p_world();
        let pattern_t = build_p(&mut w, &pattern);
        let subject_t = build_p(&mut w, &subject);

        let mut expected = HashMap::new();
        let expect_match = ref_match(&pattern, &subject, &mut expected);
        match match_term(&w.store, pattern_t, subject_t) {
            MatchOutcome::Matched(sub) => {
                assert!(expect_match, "case {case}: {pattern:?} vs {subject:?}");
                matched += 1;
                assert_eq!(sub.len(), expected.len(), "case {case}");
                for (var, value) in &expected {
                    let value_t = build_p(&mut w, value);
                    assert_eq!(sub.get(var_of(&w, var)), Some(value_t), "case {case}");
                }
                let vars: Vec<VarId> = sub.iter().map(|(v, _)| v).collect();
                assert!(
                    vars.windows(2).all(|p| p[0] < p[1]),
                    "case {case}: iteration in variable order"
                );
                assert_eq!(sub.apply(&mut w.store, pattern_t), subject_t, "case {case}");
            }
            MatchOutcome::Failed => {
                assert!(!expect_match, "case {case}: {pattern:?} vs {subject:?}");
            }
        }

        // A random partial substitution, applied both ways.
        let mut sigma = HashMap::new();
        let mut bindings = Vec::new();
        for (i, var) in [P::X(0), P::X(1), P::X(2), P::Y].into_iter().enumerate() {
            if rng.next_bool() {
                let value = gen_p(&mut rng, 3, i == 3, true);
                let value_t = build_p(&mut w, &value);
                bindings.push((var_of(&w, &var), value_t));
                sigma.insert(var, value);
            }
        }
        let sub: Subst = bindings.iter().copied().collect();
        let want = ref_apply(&pattern, &sigma);
        let want_t = build_p(&mut w, &want);
        assert_eq!(sub.apply(&mut w.store, pattern_t), want_t, "case {case}");

        // Bind order does not matter; rebinding returns the old value.
        let mut reversed = Subst::new();
        for &(v, t) in bindings.iter().rev() {
            assert_eq!(reversed.bind(v, t), None, "case {case}");
        }
        assert_eq!(reversed, sub, "case {case}");
        if let Some(&(v, t)) = bindings.first() {
            assert_eq!(reversed.bind(v, subject_t), Some(t), "case {case}");
            assert_eq!(reversed.get(v), Some(subject_t), "case {case}");
            assert_eq!(reversed.len(), bindings.len(), "case {case}");
            assert_eq!(reversed == sub, t == subject_t, "case {case}");
        }
    }
    assert!(matched >= 500, "only {matched} of 2000 cases matched");
}
