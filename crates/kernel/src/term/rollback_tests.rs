//! Seeded tests of the intern table and of mark/rollback.
//!
//! A rolled-back store must be indistinguishable from a clone taken at the
//! mark: same nodes, same lookup tables, and the same ids and fresh names
//! for whatever is built next. Generation is driven by a seeded SplitMix64
//! stream, so a failure reproduces from its seed.

use super::*;
use crate::op::OpAttrs;
use equitls_obs::rng::SplitMix64;

/// Every field of two stores, the signature included, is equal.
fn assert_same(a: &TermStore, b: &TermStore) {
    assert_eq!(a.nodes, b.nodes, "nodes");
    assert_eq!(a.sorts, b.sorts, "term sorts");
    assert_eq!(a.intern, b.intern, "intern table");
    assert_eq!(a.chain, b.chain, "intern chains");
    assert_eq!(a.vars, b.vars, "variables");
    assert_eq!(a.var_names, b.var_names, "variable names");
    assert_eq!(a.fresh_counter, b.fresh_counter, "fresh counter");
    assert_eq!(a.sig, b.sig, "signature");
}

/// Two sorts, two constants, and `f : S -> S`, `g : S S -> S`,
/// `h : S -> T`; the pool starts with the two constants.
fn base() -> (TermStore, Vec<TermId>) {
    let mut sig = Signature::new();
    let s = sig.add_visible_sort("S").unwrap();
    let t = sig.add_visible_sort("T").unwrap();
    let c0 = sig.add_constant("c0", s, OpAttrs::constructor()).unwrap();
    let c1 = sig.add_constant("c1", s, OpAttrs::constructor()).unwrap();
    sig.add_op("f", &[s], s, OpAttrs::constructor()).unwrap();
    sig.add_op("g", &[s, s], s, OpAttrs::defined()).unwrap();
    sig.add_op("h", &[s], t, OpAttrs::constructor()).unwrap();
    let mut store = TermStore::new(sig);
    let pool = vec![store.constant(c0), store.constant(c1)];
    (store, pool)
}

fn random_sort(rng: &mut SplitMix64, store: &TermStore) -> SortId {
    SortId::from_index(rng.next_index(store.signature().sort_count()))
}

/// A random pool term of `sort`, if the pool has one.
fn pick(rng: &mut SplitMix64, store: &TermStore, pool: &[TermId], sort: SortId) -> Option<TermId> {
    let fits: Vec<TermId> = pool
        .iter()
        .copied()
        .filter(|&t| store.sort_of(t) == sort)
        .collect();
    (!fits.is_empty()).then(|| *rng.choose(&fits))
}

/// One random store operation. New terms join `pool`; the return value
/// records what the store answered, ids and fresh names included.
fn step(rng: &mut SplitMix64, store: &mut TermStore, pool: &mut Vec<TermId>) -> String {
    match rng.next_below(10) {
        0..=3 => {
            let op = OpId::from_index(rng.next_index(store.signature().op_count()));
            let want = store.signature().op(op).args.clone();
            let args: Option<Vec<TermId>> =
                want.iter().map(|&s| pick(rng, store, pool, s)).collect();
            let Some(args) = args else {
                return "skip".into();
            };
            let t = store.app(op, &args).unwrap();
            pool.push(t);
            format!("app {t:?}")
        }
        4 => {
            let sort = random_sort(rng, store);
            let name = format!("V{}", rng.next_below(4));
            match store.declare_var(&name, sort) {
                Ok(v) => {
                    let t = store.var(v);
                    pool.push(t);
                    format!("var {v:?} {t:?}")
                }
                Err(e) => format!("var {e}"),
            }
        }
        5 => {
            let sort = random_sort(rng, store);
            let prefix = if rng.next_bool() { "s" } else { "x" };
            let t = store.fresh_constant(prefix, sort);
            pool.push(t);
            format!("fresh {t:?} {}", store.display(t))
        }
        6 => {
            let sort = random_sort(rng, store);
            let name = format!("b{}", rng.next_below(6));
            match store.arbitrary_constant(&name, sort) {
                Ok(t) => {
                    pool.push(t);
                    format!("arbitrary {t:?}")
                }
                Err(e) => format!("arbitrary {e}"),
            }
        }
        7 => {
            let args: Vec<SortId> = (0..rng.next_below(3))
                .map(|_| random_sort(rng, store))
                .collect();
            let result = random_sort(rng, store);
            let name = format!("op{}", rng.next_below(6));
            let attrs = if rng.next_bool() {
                OpAttrs::constructor()
            } else {
                OpAttrs::defined()
            };
            match store.signature_mut().add_op(&name, &args, result, attrs) {
                Ok(op) => format!("op {op:?}"),
                Err(e) => format!("op {e}"),
            }
        }
        8 => {
            let name = format!("U{}", rng.next_below(3));
            match store.signature_mut().add_visible_sort(&name) {
                Ok(sort) => format!("sort {sort:?}"),
                Err(e) => format!("sort {e}"),
            }
        }
        _ => {
            // Re-intern an existing term from its shape: a hit.
            let t = *rng.choose(pool);
            let again = match store.node(t).clone() {
                Term::App { op, args } => store.app(op, &args).unwrap(),
                Term::Var(v) => store.var(v),
            };
            assert_eq!(again, t, "hash-consing returned a second id");
            format!("hit {t:?}")
        }
    }
}

fn run(rng: &mut SplitMix64, store: &mut TermStore, pool: &mut Vec<TermId>, n: u64) -> Vec<String> {
    (0..n).map(|_| step(rng, store, pool)).collect()
}

#[test]
fn rollback_matches_a_clone_taken_at_the_mark() {
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(seed);
        let (mut store, mut pool) = base();
        let warmup = rng.next_below(40);
        run(&mut rng, &mut store, &mut pool, warmup);

        let mark = store.mark();
        let mut at_mark = store.clone();
        let pool_at_mark = pool.clone();
        // Seed 0 closes an empty passage: rollback to the current size.
        let passage = if seed == 0 { 0 } else { rng.next_below(120) };
        run(&mut rng, &mut store, &mut pool, passage);
        if rng.next_bool() {
            // A nested passage, closed before the outer one.
            let inner = store.mark();
            let before_inner = store.clone();
            let mut inner_pool = pool.clone();
            let n = rng.next_below(60);
            run(&mut rng, &mut store, &mut inner_pool, n);
            store.rollback(inner);
            assert_same(&store, &before_inner);
        }
        store.rollback(mark);
        assert_same(&store, &at_mark);

        // Whatever comes next gets the same answers on both.
        let n = 20 + rng.next_below(100);
        let mut replay = rng.clone();
        let mut pool_a = pool_at_mark.clone();
        let mut pool_b = pool_at_mark;
        let a = run(&mut rng, &mut store, &mut pool_a, n);
        let b = run(&mut replay, &mut at_mark, &mut pool_b, n);
        assert_eq!(a, b, "seed {seed}: replay diverged after rollback");
        assert_same(&store, &at_mark);
    }
}

#[test]
#[should_panic(expected = "rollback past")]
fn rollback_past_the_current_size_panics() {
    let (mut store, mut pool) = base();
    let empty = base().0;
    run(&mut SplitMix64::new(3), &mut store, &mut pool, 30);
    let mark = store.mark();
    let mut other = empty;
    other.rollback(mark);
}

/// The table agrees with a `HashMap<Term, TermId>` reference on every
/// lookup, through marks and rollbacks, over 20,000 random terms.
#[test]
fn intern_table_matches_a_hashmap_reference() {
    let mut rng = SplitMix64::new(0x1d);
    let (mut store, mut pool) = base();
    for _ in 0..4 {
        let s = store.signature().sort_by_name("S").unwrap();
        let name = format!("k{}", store.signature().op_count());
        store
            .signature_mut()
            .add_op(&name, &[s, s, s], s, OpAttrs::constructor())
            .unwrap();
    }
    let mut reference: std::collections::HashMap<Term, TermId> = (0..store.term_count())
        .map(|i| (store.nodes[i].clone(), TermId(i as u32)))
        .collect();
    let mut marks = Vec::new();
    let mut checked = 0;
    while checked < 20_000 {
        match rng.next_below(200) {
            0 => marks.push((store.mark(), pool.len())),
            1 => {
                if let Some((mark, len)) = marks.pop() {
                    store.rollback(mark);
                    pool.truncate(len);
                    reference.retain(|_, id| id.index() < store.term_count());
                }
            }
            _ => {
                let op = OpId::from_index(rng.next_index(store.signature().op_count()));
                let want = store.signature().op(op).args.clone();
                let args: Option<Vec<TermId>> = want
                    .iter()
                    .map(|&s| pick(&mut rng, &store, &pool, s))
                    .collect();
                let Some(args) = args else { continue };
                let before = store.term_count();
                let t = store.app(op, &args).unwrap();
                let key = Term::App { op, args };
                match reference.get(&key) {
                    Some(&id) => assert_eq!(t, id, "lookup missed an interned term"),
                    None => {
                        assert_eq!(t.index(), before, "a new term got an old id");
                        reference.insert(key, t);
                    }
                }
                assert_eq!(reference.len(), store.term_count());
                pool.push(t);
                checked += 1;
            }
        }
    }
    assert!(store.term_count() > 1_000, "too few distinct terms");
}

/// Forces every node onto one hash chain for the life of the guard.
struct Collide;

impl Collide {
    fn on() -> Self {
        COLLIDE.with(|c| c.set(true));
        Collide
    }
}

impl Drop for Collide {
    fn drop(&mut self) {
        COLLIDE.with(|c| c.set(false));
    }
}

#[test]
fn colliding_hashes_chain_and_roll_back_exactly() {
    let _collide = Collide::on();
    let (mut store, mut pool) = base();
    let f = store.signature().op_by_name("f").unwrap();
    let mut chain = vec![pool[0]];
    for _ in 0..10 {
        let t = store.app(f, &[*chain.last().unwrap()]).unwrap();
        chain.push(t);
    }
    assert_eq!(store.intern.len(), 1, "every node shares hash 0");
    assert_eq!(store.intern[&0], chain.last().unwrap().0);
    // Every term, old or new, is still found down the chain.
    for w in chain.windows(2) {
        assert_eq!(store.app(f, &[w[0]]).unwrap(), w[1]);
    }

    let mark = store.mark();
    let at_mark = store.clone();
    let c1 = pool[1];
    let g = store.signature().op_by_name("g").unwrap();
    let late = store.app(g, &[c1, chain[3]]).unwrap();
    run(&mut SplitMix64::new(11), &mut store, &mut pool, 80);
    store.rollback(mark);
    assert_same(&store, &at_mark);
    assert_eq!(store.intern[&0], chain.last().unwrap().0, "head restored");
    for w in chain.windows(2) {
        assert_eq!(store.app(f, &[w[0]]).unwrap(), w[1]);
    }
    assert_eq!(
        store.app(g, &[c1, chain[3]]).unwrap(),
        late,
        "same id again"
    );
}
