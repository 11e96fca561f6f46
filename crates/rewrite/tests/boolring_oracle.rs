//! Randomized completeness check for the Boolean-ring normalizer, and a
//! differential check of the flat polynomial kernel.
//!
//! The paper (§2.1) leans on the completeness of `BOOL`'s equations for
//! propositional logic: a formula rewrites to `true` iff it is a tautology.
//! Here we generate random propositional formulas over a handful of atoms,
//! evaluate them by brute-force truth table, and check the engine agrees —
//! experiment E12 in DESIGN.md. Separately, random polynomials run through
//! both [`Poly`] and a nested-set reference polynomial, which must agree
//! operation by operation and monomial by monomial; their products run
//! through both of `Poly::mul`'s kernels (truth tables for few atoms,
//! pairwise expansion otherwise). Then the cached
//! normalizer (memo plus polynomial cache, case splits in scopes) is run
//! against a from-scratch one on formulas with equality atoms over
//! arbitrary constants and constructors. Last, the normalizer's
//! polynomial store is run against raw [`Poly`] arithmetic through
//! scopes, a capacity-forced clear and a rollback. Generation is
//! SplitMix64-seeded (the offline build cannot depend on proptest), so
//! every run is reproducible.

use equitls_kernel::prelude::*;
use equitls_obs::rng::SplitMix64;
use equitls_rewrite::boolring::{TABLE_MUL_MAX_ATOMS, TABLE_MUL_MIN_PAIRS};
use equitls_rewrite::engine::DEFAULT_CACHE_CAPACITY;
use equitls_rewrite::prelude::*;
use std::collections::BTreeSet;

/// A formula AST for generation.
#[derive(Debug, Clone)]
enum Formula {
    Atom(usize),
    True,
    False,
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
    Xor(Box<Formula>, Box<Formula>),
    Implies(Box<Formula>, Box<Formula>),
    Iff(Box<Formula>, Box<Formula>),
}

const ATOM_COUNT: usize = 4;
const CASES: usize = 256;

fn gen_formula(rng: &mut SplitMix64, depth: usize) -> Formula {
    if depth == 0 || rng.next_below(4) == 0 {
        return match rng.next_below(3) {
            0 => Formula::True,
            1 => Formula::False,
            _ => Formula::Atom(rng.next_index(ATOM_COUNT)),
        };
    }
    let op = rng.next_below(6);
    let a = Box::new(gen_formula(rng, depth - 1));
    if op == 0 {
        return Formula::Not(a);
    }
    let b = Box::new(gen_formula(rng, depth - 1));
    match op {
        1 => Formula::And(a, b),
        2 => Formula::Or(a, b),
        3 => Formula::Xor(a, b),
        4 => Formula::Implies(a, b),
        _ => Formula::Iff(a, b),
    }
}

fn eval(f: &Formula, env: &[bool]) -> bool {
    match f {
        Formula::Atom(i) => env[*i],
        Formula::True => true,
        Formula::False => false,
        Formula::Not(a) => !eval(a, env),
        Formula::And(a, b) => eval(a, env) && eval(b, env),
        Formula::Or(a, b) => eval(a, env) || eval(b, env),
        Formula::Xor(a, b) => eval(a, env) ^ eval(b, env),
        Formula::Implies(a, b) => !eval(a, env) || eval(b, env),
        Formula::Iff(a, b) => eval(a, env) == eval(b, env),
    }
}

fn build(f: &Formula, store: &mut TermStore, alg: &BoolAlg, atoms: &[TermId]) -> TermId {
    match f {
        Formula::Atom(i) => atoms[*i],
        Formula::True => alg.tt(store),
        Formula::False => alg.ff(store),
        Formula::Not(a) => {
            let at = build(a, store, alg, atoms);
            alg.not(store, at).unwrap()
        }
        Formula::And(a, b) => {
            let (x, y) = (build(a, store, alg, atoms), build(b, store, alg, atoms));
            alg.and(store, x, y).unwrap()
        }
        Formula::Or(a, b) => {
            let (x, y) = (build(a, store, alg, atoms), build(b, store, alg, atoms));
            alg.or(store, x, y).unwrap()
        }
        Formula::Xor(a, b) => {
            let (x, y) = (build(a, store, alg, atoms), build(b, store, alg, atoms));
            alg.xor(store, x, y).unwrap()
        }
        Formula::Implies(a, b) => {
            let (x, y) = (build(a, store, alg, atoms), build(b, store, alg, atoms));
            alg.implies(store, x, y).unwrap()
        }
        Formula::Iff(a, b) => {
            let (x, y) = (build(a, store, alg, atoms), build(b, store, alg, atoms));
            alg.iff(store, x, y).unwrap()
        }
    }
}

fn world() -> (TermStore, BoolAlg, Vec<TermId>) {
    let mut sig = Signature::new();
    let alg = BoolAlg::install(&mut sig).unwrap();
    let mut store = TermStore::new(sig);
    let atoms: Vec<TermId> = (0..ATOM_COUNT)
        .map(|_| store.fresh_constant("p", alg.sort()))
        .collect();
    (store, alg, atoms)
}

fn truth_table(f: &Formula) -> (bool, bool) {
    // (is_tautology, is_contradiction)
    let mut taut = true;
    let mut contra = true;
    for bits in 0..(1u32 << ATOM_COUNT) {
        let env: Vec<bool> = (0..ATOM_COUNT).map(|i| bits & (1 << i) != 0).collect();
        if eval(f, &env) {
            contra = false;
        } else {
            taut = false;
        }
    }
    (taut, contra)
}

/// Normalization decides tautology/contradiction exactly as the truth
/// table does.
#[test]
fn normalizer_is_a_tautology_oracle() {
    let mut rng = SplitMix64::new(0x0A11);
    for case in 0..CASES {
        let f = gen_formula(&mut rng, 5);
        let (mut store, alg, atoms) = world();
        let term = build(&f, &mut store, &alg, &atoms);
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        let n = norm.normalize(&mut store, term).unwrap();
        let (taut, contra) = truth_table(&f);
        match alg.as_constant(&store, n) {
            Some(true) => assert!(taut, "case {case}: reduced to true but not a tautology"),
            Some(false) => assert!(contra, "case {case}: reduced to false but satisfiable"),
            None => {
                assert!(!taut, "case {case}: tautology failed to reduce to true");
                assert!(
                    !contra,
                    "case {case}: contradiction failed to reduce to false"
                );
            }
        }
    }
}

/// The polynomial normal form is semantically faithful: it evaluates
/// exactly like the original formula under every assignment.
#[test]
fn polynomial_evaluates_like_the_formula() {
    let mut rng = SplitMix64::new(0x0B22);
    for case in 0..CASES {
        let f = gen_formula(&mut rng, 5);
        let (mut store, alg, atoms) = world();
        let term = build(&f, &mut store, &alg, &atoms);
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        let poly = norm.normalize_to_poly(&mut store, term).unwrap();
        for bits in 0..(1u32 << ATOM_COUNT) {
            let env: Vec<bool> = (0..ATOM_COUNT).map(|i| bits & (1 << i) != 0).collect();
            let want = eval(&f, &env);
            let got = poly.eval(&|t| {
                atoms
                    .iter()
                    .position(|&a| a == t)
                    .map(|i| env[i])
                    .unwrap_or(false)
            });
            assert_eq!(got, want, "case {case}: assignment {env:?}");
        }
    }
}

/// Normalization is idempotent: normal forms are fixed points.
#[test]
fn normalization_is_idempotent() {
    let mut rng = SplitMix64::new(0x0C33);
    for case in 0..CASES {
        let f = gen_formula(&mut rng, 5);
        let (mut store, alg, atoms) = world();
        let term = build(&f, &mut store, &alg, &atoms);
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        let n1 = norm.normalize(&mut store, term).unwrap();
        let mut norm2 = Normalizer::new(alg.clone(), RuleSet::new());
        let n2 = norm2.normalize(&mut store, n1).unwrap();
        assert_eq!(n1, n2, "case {case}");
    }
}

/// Double negation and de-Morgan rewrites agree with the engine.
#[test]
fn equivalent_formulas_share_a_normal_form() {
    let mut rng = SplitMix64::new(0x0D44);
    for case in 0..CASES {
        let f = gen_formula(&mut rng, 5);
        let (mut store, alg, atoms) = world();
        let term = build(&f, &mut store, &alg, &atoms);
        // not (not f) must normalize identically to f.
        let n0 = {
            let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
            norm.normalize(&mut store, term).unwrap()
        };
        let nn = {
            let n1 = alg.not(&mut store, term).unwrap();
            let n2 = alg.not(&mut store, n1).unwrap();
            let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
            norm.normalize(&mut store, n2).unwrap()
        };
        assert_eq!(n0, nn, "case {case}");
    }
}

/// Reference polynomial over GF(2): a set of monomials, each a set of
/// atoms. Set iteration order is the canonical order the flat kernel must
/// reproduce exactly.
#[derive(Default)]
struct RefPoly(BTreeSet<BTreeSet<TermId>>);

impl RefPoly {
    /// Xor in a single monomial.
    fn toggle(&mut self, mono: BTreeSet<TermId>) {
        if !self.0.remove(&mono) {
            self.0.insert(mono);
        }
    }

    fn add(&self, other: &RefPoly) -> RefPoly {
        RefPoly(self.0.symmetric_difference(&other.0).cloned().collect())
    }

    fn mul(&self, other: &RefPoly) -> RefPoly {
        let mut acc = RefPoly::default();
        for a in &self.0 {
            for b in &other.0 {
                acc.toggle(a.union(b).copied().collect());
            }
        }
        acc
    }

    fn atoms(&self) -> Vec<TermId> {
        let set: BTreeSet<TermId> = self.0.iter().flatten().copied().collect();
        set.into_iter().collect()
    }

    fn eval(&self, assignment: &dyn Fn(TermId) -> bool) -> bool {
        let live = self.0.iter().filter(|m| m.iter().all(|&a| assignment(a)));
        live.count() % 2 == 1
    }

    /// The same polynomial in the flat kernel, built monomial by monomial.
    fn to_flat(&self) -> Poly {
        self.0.iter().fold(Poly::zero(), |acc, mono| {
            let product = mono.iter().fold(Poly::one(), |p, &a| p.mul(&Poly::atom(a)));
            acc.add(&product)
        })
    }
}

/// The monomials of `p` in iteration order.
fn monomial_list(p: &Poly) -> Vec<Vec<TermId>> {
    p.monomials().map(<[TermId]>::to_vec).collect()
}

fn ref_monomial_list(p: &RefPoly) -> Vec<Vec<TermId>> {
    p.0.iter().map(|m| m.iter().copied().collect()).collect()
}

const ORACLE_CASES: usize = 2_000;
/// Past [`TABLE_MUL_MAX_ATOMS`], so products run through both kernels.
const MAX_ATOMS: usize = 16;
const MAX_MONOMIALS: usize = 128;
/// Explicit cases at each of the two atom counts around the cutoff.
const EDGE_CASES: usize = 50;

/// A random polynomial over `atoms`, with up to [`MAX_MONOMIALS`]
/// monomials. Smaller sizes are likelier (the bound itself is drawn
/// first), which keeps the reference products affordable.
fn gen_poly(rng: &mut SplitMix64, atoms: &[TermId]) -> RefPoly {
    let mut p = RefPoly::default();
    let bound = rng.next_index(MAX_MONOMIALS + 1);
    for _ in 0..rng.next_index(bound + 1) {
        let width = rng.next_index(atoms.len() + 1);
        p.toggle((0..width).map(|_| *rng.choose(atoms)).collect());
    }
    p
}

/// Which kernel `Poly::mul` runs for `p * q`, by the size rule beside
/// [`TABLE_MUL_MAX_ATOMS`]. Constant operands short-circuit before either.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kernel {
    Constant,
    FewPairs,
    Table,
    ManyAtoms,
}

fn kernel_for(p: &RefPoly, q: &RefPoly) -> Kernel {
    let constant = |r: &RefPoly| r.0.len() <= 1 && r.0.iter().all(BTreeSet::is_empty);
    let union: BTreeSet<TermId> = p.atoms().into_iter().chain(q.atoms()).collect();
    if constant(p) || constant(q) {
        Kernel::Constant
    } else if p.0.len() * q.0.len() < TABLE_MUL_MIN_PAIRS {
        Kernel::FewPairs
    } else if union.len() <= TABLE_MUL_MAX_ATOMS {
        Kernel::Table
    } else {
        Kernel::ManyAtoms
    }
}

/// A pair of polynomials over exactly `atoms`, with enough monomial pairs
/// for the table kernel.
fn gen_edge_pair(rng: &mut SplitMix64, atoms: &[TermId]) -> (RefPoly, RefPoly) {
    loop {
        let (p, q) = (gen_poly(rng, atoms), gen_poly(rng, atoms));
        let union: BTreeSet<TermId> = p.atoms().into_iter().chain(q.atoms()).collect();
        if union.len() == atoms.len() && p.0.len() * q.0.len() >= TABLE_MUL_MIN_PAIRS {
            return (p, q);
        }
    }
}

/// The flat kernel agrees with the nested-set reference on every
/// operation, on the exact monomial order, and on the term round trip.
/// Products run on both sides of the truth-table cutoff: random atom
/// counts up to [`MAX_ATOMS`], plus explicit pairs over exactly
/// [`TABLE_MUL_MAX_ATOMS`] and one more atom.
#[test]
fn flat_kernel_matches_the_nested_set_reference() {
    let mut sig = Signature::new();
    let alg = BoolAlg::install(&mut sig).unwrap();
    let mut store = TermStore::new(sig);
    let pool: Vec<TermId> = (0..MAX_ATOMS)
        .map(|_| store.fresh_constant("a", alg.sort()))
        .collect();
    let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
    let mut rng = SplitMix64::new(0x0E55);
    let edges = [TABLE_MUL_MAX_ATOMS, TABLE_MUL_MAX_ATOMS + 1];
    let mut kernels = std::collections::BTreeMap::<Kernel, usize>::new();
    for case in 0..ORACLE_CASES + edges.len() * EDGE_CASES {
        let (rp, rq) = match case.checked_sub(ORACLE_CASES) {
            None => {
                let atoms = &pool[..1 + rng.next_index(MAX_ATOMS)];
                (gen_poly(&mut rng, atoms), gen_poly(&mut rng, atoms))
            }
            Some(edge) => gen_edge_pair(&mut rng, &pool[..edges[edge / EDGE_CASES]]),
        };
        *kernels.entry(kernel_for(&rp, &rq)).or_default() += 1;
        let (p, q) = (rp.to_flat(), rq.to_flat());
        assert_eq!(monomial_list(&p), ref_monomial_list(&rp), "case {case}");
        assert_eq!(p.monomial_count(), rp.0.len(), "case {case}");
        let pairs = [
            (p.add(&q), rp.add(&rq), "add"),
            (p.mul(&q), rp.mul(&rq), "mul"),
        ];
        for (got, want, op) in &pairs {
            assert_eq!(
                monomial_list(got),
                ref_monomial_list(want),
                "case {case}: {op}"
            );
        }
        assert_eq!(p.atoms(), rp.atoms(), "case {case}: atoms");
        for _ in 0..4 {
            let bits = rng.next_u64();
            let assignment = |t: TermId| {
                let i = pool.iter().position(|&a| a == t).unwrap();
                bits & (1 << i) != 0
            };
            assert_eq!(
                p.eval(&assignment),
                rp.eval(&assignment),
                "case {case}: eval"
            );
        }
        let term = p.to_term(&mut store, &alg).unwrap();
        let back = norm.normalize_to_poly(&mut store, term).unwrap();
        assert_eq!(back, p, "case {case}: round trip");
    }
    // Each side of the cutoff gets at least a tenth of the cases.
    for kernel in [Kernel::Table, Kernel::ManyAtoms] {
        let share = kernels.get(&kernel).copied().unwrap_or(0);
        assert!(
            share * 10 >= ORACLE_CASES,
            "{kernel:?} ran {share} products: {kernels:?}"
        );
    }
}

/// The vocabulary of the cache differential: a visible sort with two
/// constant constructors and a pairing constructor, a Bool-valued
/// observer, arbitrary constants of the sort, and Bool atoms.
struct EqWorld {
    store: TermStore,
    alg: BoolAlg,
    ctors: [TermId; 2],
    pair: OpId,
    observe: OpId,
    arbitrary: Vec<TermId>,
    bools: Vec<TermId>,
}

fn eq_world() -> EqWorld {
    let mut sig = Signature::new();
    let mut alg = BoolAlg::install(&mut sig).unwrap();
    let s = sig.add_visible_sort("S").unwrap();
    let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
    let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
    let pair = sig
        .add_op("pair", &[s, s], s, OpAttrs::constructor())
        .unwrap();
    let observe = sig
        .add_op("ok", &[s], alg.sort(), OpAttrs::defined())
        .unwrap();
    let mut store = TermStore::new(sig);
    let ctors = [store.constant(c), store.constant(d)];
    // Declare `_=_` on S before any normalizer copies the vocabulary.
    alg.eq(&mut store, ctors[0], ctors[1]).unwrap();
    let arbitrary = (0..4).map(|_| store.fresh_constant("a", s)).collect();
    let bools = (0..3)
        .map(|_| store.fresh_constant("b", alg.sort()))
        .collect();
    EqWorld {
        store,
        alg,
        ctors,
        pair,
        observe,
        arbitrary,
        bools,
    }
}

/// A random data term: an arbitrary constant, a constant constructor, or
/// a pair of smaller terms.
fn gen_data(rng: &mut SplitMix64, w: &mut EqWorld, depth: usize) -> TermId {
    match rng.next_below(if depth == 0 { 2 } else { 3 }) {
        0 => *rng.choose(&w.arbitrary),
        1 => *rng.choose(&w.ctors),
        _ => {
            let l = gen_data(rng, w, depth - 1);
            let r = gen_data(rng, w, depth - 1);
            w.store.app(w.pair, &[l, r]).unwrap()
        }
    }
}

/// A random Bool term whose leaves are equality atoms, observer atoms,
/// Bool atoms and truth constants.
fn gen_eq_formula(rng: &mut SplitMix64, w: &mut EqWorld, depth: usize) -> TermId {
    if depth == 0 || rng.next_below(4) == 0 {
        return match rng.next_below(6) {
            0 => w.alg.constant(&mut w.store, rng.next_bool()),
            1 => *rng.choose(&w.bools),
            2 => {
                let x = gen_data(rng, w, 1);
                w.store.app(w.observe, &[x]).unwrap()
            }
            _ => {
                let (x, y) = (gen_data(rng, w, 2), gen_data(rng, w, 2));
                w.alg.eq(&mut w.store, x, y).unwrap()
            }
        };
    }
    let a = gen_eq_formula(rng, w, depth - 1);
    let op = rng.next_below(6);
    if op == 0 {
        return w.alg.not(&mut w.store, a).unwrap();
    }
    let b = gen_eq_formula(rng, w, depth - 1);
    let alg = &w.alg;
    let store = &mut w.store;
    match op {
        1 => alg.and(store, a, b),
        2 => alg.or(store, a, b),
        3 => alg.xor(store, a, b),
        4 => alg.implies(store, a, b),
        _ => alg.iff(store, a, b),
    }
    .unwrap()
}

/// An assumption a case split could make: an arbitrary constant equals a
/// constructor term, or a Bool atom (normalized first, as the prover
/// does) has a truth value.
fn gen_assumption(
    rng: &mut SplitMix64,
    w: &mut EqWorld,
    norm: &mut Normalizer,
) -> Option<(TermId, TermId)> {
    if rng.next_bool() {
        let lhs = *rng.choose(&w.arbitrary);
        let rhs = match rng.next_below(3) {
            0 | 1 => *rng.choose(&w.ctors),
            _ => {
                let (x, y) = (*rng.choose(&w.ctors), *rng.choose(&w.ctors));
                w.store.app(w.pair, &[x, y]).unwrap()
            }
        };
        return Some((lhs, rhs));
    }
    let atom = match rng.next_below(3) {
        0 => *rng.choose(&w.bools),
        1 => {
            let x = gen_data(rng, w, 1);
            w.store.app(w.observe, &[x]).unwrap()
        }
        _ => {
            let (x, y) = (*rng.choose(&w.arbitrary), gen_data(rng, w, 1));
            w.alg.eq(&mut w.store, x, y).unwrap()
        }
    };
    let lhs = norm.normalize(&mut w.store, atom).unwrap();
    if w.alg.as_constant(&w.store, lhs).is_some() || w.store.op_of(lhs).is_none() {
        return None; // decided already, or a bare Bool variable
    }
    let rhs = w.alg.constant(&mut w.store, rng.next_bool());
    Some((lhs, rhs))
}

/// `t`'s polynomial from both normalizers, which must agree.
fn agree(cached: &mut Normalizer, scratch: &mut Normalizer, w: &mut EqWorld, t: TermId) -> Poly {
    let got = cached.normalize_to_poly(&mut w.store, t).unwrap();
    let want = scratch.normalize_to_poly(&mut w.store, t).unwrap();
    assert_eq!(got, want, "{}", w.store.display(t));
    got
}

/// The polynomial cache and scoped case splits never change an answer:
/// one long-lived caching normalizer and a capacity-0 one (no memo, no
/// polynomial cache) agree on `normalize_to_poly` for every formula,
/// before an assumption, inside a scope that makes it, and after the pop
/// — including a formula first normalized inside the scope, whose cached
/// forms must not leak out of it.
#[test]
fn cached_polynomials_match_a_from_scratch_normalizer() {
    let mut w = eq_world();
    let mut cached = Normalizer::new(w.alg.clone(), RuleSet::new());
    let mut scratch = Normalizer::new(w.alg.clone(), RuleSet::new());
    scratch.set_cache_capacity(0);
    let mut rng = SplitMix64::new(0x0F66);
    let mut assumed = 0;
    for case in 0..ORACLE_CASES {
        let term = gen_eq_formula(&mut rng, &mut w, 4);
        let before = agree(&mut cached, &mut scratch, &mut w, term);
        let inner = gen_eq_formula(&mut rng, &mut w, 4);
        cached.push_scope();
        scratch.push_scope();
        // Up to two assumptions: the scope's first clear sets the parent's
        // caches aside, the second clears the scope's own.
        for _ in 0..2 {
            let Some((lhs, rhs)) = gen_assumption(&mut rng, &mut w, &mut scratch) else {
                continue;
            };
            assumed += 1;
            cached.assume(&w.store, "case", lhs, rhs).unwrap();
            scratch.assume(&w.store, "case", lhs, rhs).unwrap();
            agree(&mut cached, &mut scratch, &mut w, term);
            agree(&mut cached, &mut scratch, &mut w, inner);
        }
        cached.pop_scope();
        scratch.pop_scope();
        let after = cached.normalize_to_poly(&mut w.store, term).unwrap();
        assert_eq!(after, before, "case {case}: after the pop");
        agree(&mut cached, &mut scratch, &mut w, inner);
    }
    assert!(
        cached.stats().cache_hits > 0 && assumed > ORACLE_CASES,
        "the differential must exercise the caches and the scopes"
    );
}

/// Polynomials the store differential keeps: its atoms, which stay, and
/// non-constant results of earlier operations, replaced at random once
/// full. Without the atoms and the filter the pool decays to zero.
const STORE_POOL: usize = 24;
/// Operations per round of the store differential.
const STORE_OPS: usize = 64;

/// One round of the store differential: random sums, products and terms
/// of the pooled polynomials through `norm`'s store, each sum and product
/// in both operand orders, must equal raw [`Poly`] arithmetic and a
/// from-scratch [`Poly::to_term`]. `ids` are the pool's ids in the store;
/// results join both, after the first `fixed` entries.
fn store_round(
    rng: &mut SplitMix64,
    norm: &mut Normalizer,
    w: &mut EqWorld,
    fixed: usize,
    pool: &mut Vec<Poly>,
    ids: &mut Vec<PolyId>,
) {
    for _ in 0..STORE_OPS {
        let (i, j) = (rng.next_index(pool.len()), rng.next_index(pool.len()));
        let (p, q) = (pool[i].clone(), pool[j].clone());
        let (a, b) = (ids[i], ids[j]);
        let ring = norm.poly_store();
        // Both operations on the same pair, in a random order, so a memo
        // table shared between them would answer one with the other.
        let sum_first = rng.next_bool();
        let mut results = Vec::new();
        for op in 0..2 {
            let (got, swapped, want) = if (op == 0) == sum_first {
                (ring.add(a, b), ring.add(b, a), p.add(&q))
            } else {
                (ring.mul(a, b), ring.mul(b, a), p.mul(&q))
            };
            assert_eq!(got, swapped, "commuted operands");
            assert_eq!(ring.get(got), &want);
            results.push((want, got));
        }
        for (poly, id) in results {
            if poly.as_constant().is_some() {
                continue;
            }
            if pool.len() < STORE_POOL {
                pool.push(poly);
                ids.push(id);
            } else {
                let k = fixed + rng.next_index(STORE_POOL - fixed);
                (pool[k], ids[k]) = (poly, id);
            }
        }
        let k = rng.next_index(pool.len());
        let got = norm
            .poly_store()
            .term(ids[k], &mut w.store, &w.alg)
            .unwrap();
        let want = pool[k].to_term(&mut w.store, &w.alg).unwrap();
        assert_eq!(got, want, "term of {:?}", pool[k]);
    }
}

/// The pool's ids in `norm`'s store, interned afresh, each checked
/// against a from-scratch [`Poly::to_term`].
fn intern_all(norm: &mut Normalizer, w: &mut EqWorld, pool: &[Poly]) -> Vec<PolyId> {
    let mut ids = Vec::with_capacity(pool.len());
    for p in pool {
        let ring = norm.poly_store();
        let id = ring.intern(p.clone());
        let got = ring.term(id, &mut w.store, &w.alg).unwrap();
        assert_eq!(
            got,
            p.to_term(&mut w.store, &w.alg).unwrap(),
            "term of {p:?}"
        );
        ids.push(id);
    }
    ids
}

/// The polynomial store's memos never change an answer. Its sums,
/// products and terms match raw [`Poly`] arithmetic and a from-scratch
/// [`Poly::to_term`] while the normalizer it belongs to opens a scope,
/// assumes, normalizes and pops (the store is not scoped, so ids from
/// before the push stay good after the pop); after a capacity-forced
/// clear renumbers every polynomial; and in a fresh normalizer after the
/// term store rolls back to a mark, as the prover's spec does between
/// obligations.
#[test]
fn poly_store_matches_raw_arithmetic_through_scopes_clears_and_rollbacks() {
    let mut w = eq_world();
    let mut rng = SplitMix64::new(0x1077);
    // Atoms exist before the mark, so the pool survives the rollback.
    let mut atoms = w.bools.clone();
    for k in 0..3 {
        let x = w.arbitrary[k];
        atoms.push(w.store.app(w.observe, &[x]).unwrap());
        atoms.push(w.alg.eq(&mut w.store, x, w.ctors[k % 2]).unwrap());
    }
    let mut pool: Vec<Poly> = atoms.iter().map(|&a| Poly::atom(a)).collect();
    let fixed = pool.len();
    let mark = w.store.mark();
    let mut clears = 0;
    for obligation in 0..4 {
        let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
        let mut ids = intern_all(&mut norm, &mut w, &pool);
        for case in 0..8 {
            store_round(&mut rng, &mut norm, &mut w, fixed, &mut pool, &mut ids);
            norm.push_scope();
            if let Some((lhs, rhs)) = gen_assumption(&mut rng, &mut w, &mut norm) {
                norm.assume(&w.store, "case", lhs, rhs).unwrap();
            }
            let term = gen_eq_formula(&mut rng, &mut w, 4);
            norm.normalize(&mut w.store, term).unwrap();
            store_round(&mut rng, &mut norm, &mut w, fixed, &mut pool, &mut ids);
            norm.pop_scope();
            store_round(&mut rng, &mut norm, &mut w, fixed, &mut pool, &mut ids);
            if case % 4 == 3 {
                // Force the store over capacity: the next entry empties
                // it. A data term adds no polynomial, so the pool takes
                // the lowest ids again: the atoms get their old ids, and
                // the results the ids of polynomials whose terms
                // `intern_all` or a round memoized.
                norm.set_cache_capacity(1);
                let data = gen_data(&mut rng, &mut w, 2);
                norm.normalize(&mut w.store, data).unwrap();
                norm.set_cache_capacity(DEFAULT_CACHE_CAPACITY);
                assert_eq!(norm.poly_store().poly_count(), 2, "obligation {obligation}");
                clears += 1;
                ids = intern_all(&mut norm, &mut w, &pool);
            }
        }
        drop(norm);
        w.store.rollback(mark);
    }
    assert_eq!(clears, 8);
}
