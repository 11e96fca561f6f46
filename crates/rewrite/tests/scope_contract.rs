//! The scope contract of [`Normalizer::push_scope`] and
//! [`Normalizer::pop_scope`]: a branch leaves no trace.
//!
//! Two normalizers over one term store run the same prefix of
//! operations. Normalizer A then takes a random excursion and pops back:
//! pushes, assumptions, refreshes, normalizations, nested scopes and
//! clears forced by a small cache capacity. Normalizer B skips it. Both
//! then normalize the same probe terms, and every normal form, every
//! [`RewriteStats`] delta (memo hits and misses included) and every
//! blocked condition must agree: after the pop, A's memo and polynomial
//! cache show exactly the entries B's do.
//!
//! The polynomial store is not scoped (see the engine's module
//! documentation), and emptying it empties the polynomial cache of every
//! scope. The excursion therefore never lets the store outgrow the cache
//! capacity, which is what empties it. Generation is SplitMix64-seeded,
//! so every run is reproducible.

use equitls_kernel::prelude::*;
use equitls_obs::rng::SplitMix64;
use equitls_rewrite::engine::DEFAULT_CACHE_CAPACITY;
use equitls_rewrite::prelude::*;

/// Seeds the test runs, one excursion each.
const CASES: u64 = 48;
/// Operations per excursion.
const EXCURSION_STEPS: usize = 40;
/// Probe terms normalized after the excursion.
const PROBES: usize = 12;
/// The cache capacity of the excursion's small-capacity stretches.
const SMALL_CAPACITY: usize = 16;

/// A sort `S` with constructors `c`, `d` and `pair`, the defined
/// operators `fst`, `swap` and `pick`, the Bool observer `ok`, arbitrary
/// constants of `S` and Bool atoms.
struct World {
    store: TermStore,
    alg: BoolAlg,
    rules: RuleSet,
    ctors: [TermId; 2],
    pair: OpId,
    unary: [OpId; 3],
    ok: OpId,
    arbitrary: Vec<TermId>,
    bools: Vec<TermId>,
}

fn world() -> World {
    let mut sig = Signature::new();
    let mut alg = BoolAlg::install(&mut sig).unwrap();
    let s = sig.add_visible_sort("S").unwrap();
    let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
    let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
    let pair = sig
        .add_op("pair", &[s, s], s, OpAttrs::constructor())
        .unwrap();
    let fst = sig.add_op("fst", &[s], s, OpAttrs::defined()).unwrap();
    let swap = sig.add_op("swap", &[s], s, OpAttrs::defined()).unwrap();
    let pick = sig.add_op("pick", &[s], s, OpAttrs::defined()).unwrap();
    let ok = sig
        .add_op("ok", &[s], alg.sort(), OpAttrs::defined())
        .unwrap();
    let mut store = TermStore::new(sig);
    let ctors = [store.constant(c), store.constant(d)];
    // Declare `_=_` on S before any normalizer copies the vocabulary.
    alg.eq(&mut store, ctors[0], ctors[1]).unwrap();
    let x = store.declare_var("X", s).unwrap();
    let y = store.declare_var("Y", s).unwrap();
    let (x, y) = (store.var(x), store.var(y));
    let xy = store.app(pair, &[x, y]).unwrap();
    let yx = store.app(pair, &[y, x]).unwrap();
    let mut rules = RuleSet::new();
    let fst_xy = store.app(fst, &[xy]).unwrap();
    rules.add(&store, "fst", fst_xy, x, None, None).unwrap();
    let swap_xy = store.app(swap, &[xy]).unwrap();
    rules.add(&store, "swap", swap_xy, yx, None, None).unwrap();
    // `pick(X) = c if ok(X)`: undecided for most X, so it blocks.
    let pick_x = store.app(pick, &[x]).unwrap();
    let ok_x = store.app(ok, &[x]).unwrap();
    rules
        .add(
            &store,
            "pick",
            pick_x,
            ctors[0],
            Some(ok_x),
            Some(alg.sort()),
        )
        .unwrap();
    let ok_xy = store.app(ok, &[xy]).unwrap();
    let ok_y = store.app(ok, &[y]).unwrap();
    let both = alg.and(&mut store, ok_x, ok_y).unwrap();
    rules
        .add(&store, "ok-pair", ok_xy, both, None, None)
        .unwrap();
    let ok_c = store.app(ok, &[ctors[0]]).unwrap();
    let tt = alg.tt(&mut store);
    rules.add(&store, "ok-c", ok_c, tt, None, None).unwrap();
    let arbitrary = (0..4).map(|_| store.fresh_constant("a", s)).collect();
    let bools = (0..3)
        .map(|_| store.fresh_constant("b", alg.sort()))
        .collect();
    World {
        store,
        alg,
        rules,
        ctors,
        pair,
        unary: [fst, swap, pick],
        ok,
        arbitrary,
        bools,
    }
}

/// A random term of sort `S`.
fn gen_data(rng: &mut SplitMix64, w: &mut World, depth: usize) -> TermId {
    match rng.next_below(if depth == 0 { 2 } else { 4 }) {
        0 => *rng.choose(&w.arbitrary),
        1 => *rng.choose(&w.ctors),
        2 => {
            let op = *rng.choose(&w.unary);
            let x = gen_data(rng, w, depth - 1);
            w.store.app(op, &[x]).unwrap()
        }
        _ => {
            let l = gen_data(rng, w, depth - 1);
            let r = gen_data(rng, w, depth - 1);
            w.store.app(w.pair, &[l, r]).unwrap()
        }
    }
}

/// A random Bool atom: a Bool constant, an observation or an equality.
fn gen_atom(rng: &mut SplitMix64, w: &mut World) -> TermId {
    match rng.next_below(3) {
        0 => *rng.choose(&w.bools),
        1 => {
            let x = gen_data(rng, w, 2);
            w.store.app(w.ok, &[x]).unwrap()
        }
        _ => {
            let (x, y) = (gen_data(rng, w, 2), gen_data(rng, w, 2));
            w.alg.eq(&mut w.store, x, y).unwrap()
        }
    }
}

/// A random Bool formula over [`gen_atom`]'s atoms.
fn gen_formula(rng: &mut SplitMix64, w: &mut World, depth: usize) -> TermId {
    if depth == 0 || rng.next_below(3) == 0 {
        return gen_atom(rng, w);
    }
    let a = gen_formula(rng, w, depth - 1);
    let b = gen_formula(rng, w, depth - 1);
    let (alg, store) = (&w.alg, &mut w.store);
    match rng.next_below(4) {
        0 => alg.and(store, a, b),
        1 => alg.or(store, a, b),
        2 => alg.implies(store, a, b),
        _ => alg.xor(store, a, b),
    }
    .unwrap()
}

/// A probe: a data term or a formula.
fn gen_probe(rng: &mut SplitMix64, w: &mut World) -> TermId {
    if rng.next_bool() {
        gen_data(rng, w, 3)
    } else {
        gen_formula(rng, w, 3)
    }
}

/// An assumption a case split could make: an arbitrary constant equals a
/// constructor value, or a Bool atom has a truth value.
fn gen_assumption(rng: &mut SplitMix64, w: &mut World) -> (TermId, TermId) {
    if rng.next_bool() {
        let lhs = *rng.choose(&w.arbitrary);
        let rhs = if rng.next_bool() {
            *rng.choose(&w.ctors)
        } else {
            let (x, y) = (*rng.choose(&w.ctors), *rng.choose(&w.ctors));
            w.store.app(w.pair, &[x, y]).unwrap()
        };
        return (lhs, rhs);
    }
    loop {
        let atom = gen_atom(rng, w);
        if w.alg.as_constant(&w.store, atom).is_none() {
            let rhs = w.alg.constant(&mut w.store, rng.next_bool());
            return (atom, rhs);
        }
    }
}

/// One operation of the shared prefix, applied to both normalizers.
enum Op {
    Normalize(TermId),
    Assume(TermId, TermId),
    Refresh,
    Push,
}

fn apply(norm: &mut Normalizer, w: &mut World, op: &Op) {
    match *op {
        Op::Normalize(t) => {
            norm.normalize(&mut w.store, t).unwrap();
        }
        Op::Assume(l, r) => norm.assume(&w.store, "prefix", l, r).unwrap(),
        Op::Refresh => norm.refresh_assumptions(&mut w.store).unwrap(),
        Op::Push => norm.push_scope(),
    }
}

/// A random prefix: normalizations, a root assumption and, half the time,
/// an open scope with an assumption of its own, so the excursion starts
/// at depth 0 or 1 over caches that hold entries.
fn gen_prefix(rng: &mut SplitMix64, w: &mut World) -> Vec<Op> {
    let mut ops = Vec::new();
    let levels = 1 + rng.next_index(2);
    for level in 0..levels {
        if level > 0 {
            ops.push(Op::Push);
        }
        let (l, r) = gen_assumption(rng, w);
        ops.push(Op::Assume(l, r));
        ops.push(Op::Refresh);
        for _ in 0..6 {
            ops.push(Op::Normalize(gen_probe(rng, w)));
        }
    }
    ops
}

/// Normalize `t` in the excursion. In a small-capacity stretch the
/// capacity is set first, never below the polynomial store's size, so
/// the entry never empties the store (and with it every scope's
/// polynomial cache); the memo still clears whenever it fills.
fn excursion_normalize(norm: &mut Normalizer, w: &mut World, small: bool, t: TermId) {
    if small {
        let ring = norm.poly_store().poly_count();
        norm.set_cache_capacity(SMALL_CAPACITY.max(ring));
    }
    norm.normalize(&mut w.store, t).unwrap();
}

/// A random excursion on `norm`: one push, then random operations, then
/// pops back to the depth it started at and the default capacity.
fn excursion(rng: &mut SplitMix64, w: &mut World, norm: &mut Normalizer) {
    norm.push_scope();
    let mut depth = 1;
    let mut small = false;
    for _ in 0..EXCURSION_STEPS {
        match rng.next_below(8) {
            0 if depth < 4 => {
                norm.push_scope();
                depth += 1;
            }
            1 if depth > 1 => {
                norm.pop_scope();
                depth -= 1;
            }
            2 | 3 => {
                let (l, r) = gen_assumption(rng, w);
                norm.assume(&w.store, "excursion", l, r).unwrap();
                if rng.next_bool() {
                    norm.refresh_assumptions(&mut w.store).unwrap();
                }
            }
            4 => {
                small = !small;
                if !small {
                    norm.set_cache_capacity(DEFAULT_CACHE_CAPACITY);
                }
            }
            _ => {
                for _ in 0..4 {
                    let t = gen_probe(rng, w);
                    excursion_normalize(norm, w, small, t);
                }
            }
        }
    }
    for _ in 0..depth {
        norm.pop_scope();
    }
    norm.set_cache_capacity(DEFAULT_CACHE_CAPACITY);
}

/// What a probe phase observes: each normal form, the stats delta and
/// the conditions that blocked.
fn probe(norm: &mut Normalizer, w: &mut World, probes: &[TermId]) -> ProbeRun {
    norm.take_blocked();
    let before = norm.stats();
    let forms = probes
        .iter()
        .map(|&t| norm.normalize(&mut w.store, t).unwrap())
        .collect();
    let after = norm.stats();
    let delta = RewriteStats {
        rewrites: after.rewrites - before.rewrites,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        bool_normalizations: after.bool_normalizations - before.bool_normalizations,
        eq_decisions: after.eq_decisions - before.eq_decisions,
        blocked_conditions: after.blocked_conditions - before.blocked_conditions,
        cache_evictions: after.cache_evictions - before.cache_evictions,
    };
    ProbeRun {
        forms,
        delta,
        blocked: norm.take_blocked(),
    }
}

#[derive(Debug, PartialEq)]
struct ProbeRun {
    forms: Vec<TermId>,
    delta: RewriteStats,
    blocked: Vec<TermId>,
}

/// The rules in force, as comparable triples.
fn assumptions(norm: &Normalizer) -> Vec<(String, TermId, TermId)> {
    norm.assumptions()
        .iter()
        .map(|r| (r.label.clone(), r.lhs, r.rhs))
        .collect()
}

#[test]
fn an_excursion_that_pops_back_leaves_no_trace_in_the_caches() {
    let mut evictions = 0;
    let mut hits = 0;
    for seed in 0..CASES {
        let mut w = world();
        let mut rng = SplitMix64::new(0x5C0B_E000 + seed);
        let mut a = Normalizer::new(w.alg.clone(), w.rules.clone());
        let mut b = Normalizer::new(w.alg.clone(), w.rules.clone());
        for op in gen_prefix(&mut rng, &mut w) {
            apply(&mut a, &mut w, &op);
            apply(&mut b, &mut w, &op);
        }
        let rings = a.poly_store().poly_count();
        let before = a.stats();
        excursion(&mut rng, &mut w, &mut a);
        evictions += a.stats().cache_evictions - before.cache_evictions;
        assert!(
            a.poly_store().poly_count() >= rings,
            "seed {seed}: the excursion emptied the polynomial store"
        );
        assert_eq!(assumptions(&a), assumptions(&b), "seed {seed}");
        assert_eq!(a.is_infeasible(), b.is_infeasible(), "seed {seed}");
        let probes: Vec<TermId> = (0..PROBES).map(|_| gen_probe(&mut rng, &mut w)).collect();
        // Probe twice: the second pass reads what the first memoized.
        for pass in 0..2 {
            let (got, want) = (
                probe(&mut a, &mut w, &probes),
                probe(&mut b, &mut w, &probes),
            );
            assert_eq!(got, want, "seed {seed}, pass {pass}");
            hits += want.delta.cache_hits;
        }
    }
    assert!(
        evictions > CASES,
        "small capacities forced {evictions} clears"
    );
    assert!(hits > 0, "the probes hit the caches");
}
