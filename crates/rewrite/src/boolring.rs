//! Boolean rings: complete propositional normalization.
//!
//! The paper relies (§2.1) on the fact that the equations of CafeOBJ's
//! `BOOL` module, read as left-to-right rewrite rules, are *complete* for
//! propositional logic: every tautology rewrites to `true` and every
//! contradiction to `false`. That completeness result is Hsiang and
//! Dershowitz's — propositional formulas have a canonical form as
//! polynomials over the two-element field GF(2), with `xor` as addition and
//! `and` as multiplication.
//!
//! [`Poly`] implements that canonical form directly. A monomial is a
//! conjunction of distinct atoms (`and` is idempotent), kept as a slice
//! sorted by [`TermId`]. A polynomial is an exclusive-or of distinct
//! monomials (`xor` is self-cancelling), kept in lexicographic slice order,
//! so the empty monomial, if present, comes first. All monomials of one
//! polynomial sit back to back in one flat buffer. The empty polynomial is
//! `false`; the polynomial containing only the empty monomial is `true`.
//!
//! The order invariant makes the representation unique, so structural
//! equality is logical equivalence. It also fixes the order in which
//! [`Poly::to_term`] rebuilds, and therefore interns, a formula.
//!
//! Connective translations (all classical):
//!
//! ```text
//! not a        = 1 + a
//! a or b       = a + b + ab
//! a implies b  = 1 + a + ab
//! a iff b      = 1 + a + b
//! if c then x else y fi = cx + cy + y
//! ```
//!
//! Atoms are arbitrary Bool-sorted [`TermId`]s (undecided equalities,
//! membership tests like `PMS \in cpms(nw(p))`, effective conditions …).
//! Hash-consing makes atom identity a single integer comparison.
//!
//! [`PolyStore`] hash-conses polynomials the way the kernel's `TermStore`
//! hash-conses terms: each distinct [`Poly`] is stored once under a
//! [`PolyId`], and sums, products and rebuilt terms are memoized by id.
//! The normalizer keeps one store for its whole life and computes every
//! Boolean normal form through it.

use crate::bool_alg::BoolAlg;
use equitls_kernel::fxhash::{FxHashMap, FxHasher};
use equitls_kernel::prelude::*;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A monomial: a conjunction of distinct atoms, sorted by [`TermId`]. The
/// empty monomial is the constant `1` (true).
pub type Monomial = [TermId];

/// A polynomial over GF(2): an exclusive-or of distinct monomials.
///
/// `Poly` is the canonical form of a propositional formula; two formulas
/// are equivalent iff their polynomials are equal.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    /// Every monomial's atoms, back to back.
    atoms: Vec<TermId>,
    /// `ends[k]` is one past the last atom of monomial `k`, which starts at
    /// `ends[k - 1]` (or 0).
    ends: Vec<u32>,
}

impl Poly {
    /// The zero polynomial, i.e. `false`.
    pub fn zero() -> Self {
        Poly::default()
    }

    /// The unit polynomial, i.e. `true`.
    pub fn one() -> Self {
        Poly {
            atoms: Vec::new(),
            ends: vec![0],
        }
    }

    /// The polynomial consisting of the single atom `t`.
    pub fn atom(t: TermId) -> Self {
        Poly {
            atoms: vec![t],
            ends: vec![1],
        }
    }

    /// A truth constant as a polynomial.
    pub fn constant(value: bool) -> Self {
        if value {
            Poly::one()
        } else {
            Poly::zero()
        }
    }

    /// `true` when this is the unit polynomial (the formula is a tautology
    /// relative to its atoms).
    pub fn is_true(&self) -> bool {
        self.ends == [0]
    }

    /// `true` when this is the zero polynomial (the formula is
    /// unsatisfiable relative to its atoms).
    pub fn is_false(&self) -> bool {
        self.ends.is_empty()
    }

    /// `Some(b)` when the polynomial is the constant `b`.
    pub fn as_constant(&self) -> Option<bool> {
        if self.is_true() {
            Some(true)
        } else if self.is_false() {
            Some(false)
        } else {
            None
        }
    }

    /// Addition in GF(2): exclusive or. Equal monomials cancel.
    ///
    /// Both operands are sorted, so this is one linear merge.
    pub fn add(&self, other: &Poly) -> Poly {
        let mut out = Poly {
            atoms: Vec::with_capacity(self.atoms.len() + other.atoms.len()),
            ends: Vec::with_capacity(self.ends.len() + other.ends.len()),
        };
        let mut left = self.monomials().peekable();
        let mut right = other.monomials().peekable();
        loop {
            let next = match (left.peek(), right.peek()) {
                (Some(a), Some(b)) => match a.cmp(b) {
                    Ordering::Less => left.next(),
                    Ordering::Greater => right.next(),
                    Ordering::Equal => {
                        left.next();
                        right.next();
                        continue;
                    }
                },
                (Some(_), None) => left.next(),
                (None, Some(_)) => right.next(),
                (None, None) => return out,
            };
            out.push(next.expect("peeked"));
        }
    }

    /// Multiplication in GF(2): conjunction, distributed over xor.
    ///
    /// Two kernels compute the same product, monomial for monomial. When
    /// the operands form at least [`TABLE_MUL_MIN_PAIRS`] monomial pairs
    /// over at most [`TABLE_MUL_MAX_ATOMS`] distinct atoms between them,
    /// the product goes through truth tables (see `mul_table`). Every
    /// other product expands every monomial pair: each pairwise product
    /// (a sorted union: `and` is idempotent) goes into one scratch buffer;
    /// sorting the products brings duplicates together, and a product
    /// survives iff it occurs an odd number of times.
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_true() || other.is_false() {
            return other.clone();
        }
        if other.is_true() || self.is_false() {
            return self.clone();
        }
        let pairs = self.ends.len() * other.ends.len();
        if pairs >= TABLE_MUL_MIN_PAIRS {
            if let Some(vars) = few_atoms(self, other) {
                return mul_table(self, other, &vars);
            }
        }
        let mut buf: Vec<TermId> = Vec::with_capacity(
            self.atoms.len() * other.ends.len() + other.atoms.len() * self.ends.len(),
        );
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(pairs);
        for a in self.monomials() {
            for b in other.monomials() {
                let start = offset(buf.len());
                union_into(&mut buf, a, b);
                spans.push((start, offset(buf.len())));
            }
        }
        let span = |&(s, e): &(u32, u32)| &buf[s as usize..e as usize];
        spans.sort_unstable_by(|x, y| span(x).cmp(span(y)));
        let mut out = Poly::default();
        for run in spans.chunk_by(|x, y| span(x) == span(y)) {
            if run.len() % 2 == 1 {
                out.push(span(&run[0]));
            }
        }
        out
    }

    /// All distinct atoms occurring in the polynomial, in `TermId` order.
    pub fn atoms(&self) -> Vec<TermId> {
        let mut atoms = self.atoms.clone();
        atoms.sort_unstable();
        atoms.dedup();
        atoms
    }

    /// Number of monomials.
    pub fn monomial_count(&self) -> usize {
        self.ends.len()
    }

    /// Iterate over monomials in canonical order.
    pub fn monomials(&self) -> impl Iterator<Item = &Monomial> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let mono = &self.atoms[start..end as usize];
            start = end as usize;
            mono
        })
    }

    /// Evaluate under a total assignment of atoms.
    ///
    /// Used by the property-based tests to check the normal form against a
    /// brute-force truth table.
    pub fn eval(&self, assignment: &dyn Fn(TermId) -> bool) -> bool {
        self.monomials()
            .filter(|m| m.iter().all(|&a| assignment(a)))
            .count()
            % 2
            == 1
    }

    /// Rebuild a term from the polynomial: an xor-chain of and-chains in
    /// canonical (`TermId`) order.
    ///
    /// The canonical rebuild is *stable*: converting the produced term back
    /// to a polynomial yields `self`, and a single-atom polynomial returns
    /// the atom unchanged.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (cannot occur for well-sorted atoms).
    pub fn to_term(&self, store: &mut TermStore, alg: &BoolAlg) -> Result<TermId, KernelError> {
        if let Some(b) = self.as_constant() {
            return Ok(alg.constant(store, b));
        }
        let mut mono_terms = Vec::with_capacity(self.ends.len());
        for mono in self.monomials() {
            if mono.is_empty() {
                mono_terms.push(alg.tt(store));
            } else {
                mono_terms.push(alg.conj(store, mono)?);
            }
        }
        // Balanced xor tree: keeps later traversals at logarithmic depth
        // even for polynomials with thousands of monomials.
        balanced(store, alg, &mono_terms, &|store, alg, a, b| {
            alg.xor(store, a, b)
        })
    }

    /// Append `mono`, which must sort after every monomial already present.
    fn push(&mut self, mono: &Monomial) {
        self.atoms.extend_from_slice(mono);
        self.ends.push(offset(self.atoms.len()));
    }
}

/// An atom-buffer length as a stored offset. A truncated offset would
/// silently change the polynomial, so overflow is a hard error.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("polynomial exceeds u32::MAX atoms")
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.monomials()).finish()
    }
}

/// The identity of a polynomial interned in a [`PolyStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PolyId(u32);

/// End of an intern chain.
const NO_POLY: u32 = u32::MAX;

/// Bytes [`PolyStore::resident_estimate`] charges per polynomial beyond
/// its atoms and ends: the two vector headers and their allocations, the
/// chain link, the memoized term and the intern-table entry.
const POLY_FIXED_BYTES: u64 = 96;

/// Bytes [`PolyStore::resident_estimate`] charges per memoized sum or
/// product: the key pair, the result and the hash table's overhead.
const OP_ENTRY_BYTES: u64 = 24;

/// Hash-consed polynomials with memoized ring operations.
///
/// The intern table maps a 64-bit hash of a [`Poly`] to the newest
/// [`PolyId`] with that hash; `chain[id]` links each id to the next older
/// one sharing its hash. [`PolyStore::add`] and [`PolyStore::mul`] each
/// memoize their result in a table of their own, keyed by the ordered id
/// pair (both operations commute), and [`PolyStore::term`] memoizes the
/// term a polynomial rebuilds to. All three are pure functions of their
/// operands, so no entry is ever invalidated. The one condition: a store
/// must not outlive the terms its term memo names. The normalizer keeps
/// its store for one proof obligation, after the spec's mark and before
/// its rollback.
///
/// [`PolyStore::ZERO`] and [`PolyStore::ONE`] are always interned.
#[derive(Debug)]
pub struct PolyStore {
    polys: Vec<Poly>,
    /// The term each polynomial rebuilt to, once [`PolyStore::term`] asked.
    terms: Vec<Option<TermId>>,
    intern: FxHashMap<u64, u32>,
    chain: Vec<u32>,
    sums: FxHashMap<(PolyId, PolyId), PolyId>,
    products: FxHashMap<(PolyId, PolyId), PolyId>,
    /// Atom and end bytes of every stored polynomial.
    payload_bytes: u64,
}

impl Default for PolyStore {
    fn default() -> Self {
        PolyStore::new()
    }
}

impl PolyStore {
    /// The zero polynomial, `false`.
    pub const ZERO: PolyId = PolyId(0);
    /// The unit polynomial, `true`.
    pub const ONE: PolyId = PolyId(1);

    /// A store holding only the two constants.
    pub fn new() -> Self {
        let mut store = PolyStore {
            polys: Vec::new(),
            terms: Vec::new(),
            intern: FxHashMap::default(),
            chain: Vec::new(),
            sums: FxHashMap::default(),
            products: FxHashMap::default(),
            payload_bytes: 0,
        };
        store.intern(Poly::zero());
        store.intern(Poly::one());
        store
    }

    /// A truth constant's id.
    pub fn constant(value: bool) -> PolyId {
        if value {
            PolyStore::ONE
        } else {
            PolyStore::ZERO
        }
    }

    /// Distinct polynomials stored, the two constants included.
    pub fn poly_count(&self) -> usize {
        self.polys.len()
    }

    /// The polynomial interned as `id`.
    ///
    /// # Panics
    ///
    /// When `id` did not come from this store.
    pub fn get(&self, id: PolyId) -> &Poly {
        &self.polys[id.0 as usize]
    }

    /// The id of `poly`, storing it if it is new.
    pub fn intern(&mut self, poly: Poly) -> PolyId {
        let mut h = FxHasher::default();
        poly.hash(&mut h);
        let hash = h.finish();
        let mut cur = self.intern.get(&hash).copied().unwrap_or(NO_POLY);
        while cur != NO_POLY {
            if self.polys[cur as usize] == poly {
                return PolyId(cur);
            }
            cur = self.chain[cur as usize];
        }
        let id = offset(self.polys.len());
        let older = self.intern.insert(hash, id).unwrap_or(NO_POLY);
        self.chain.push(older);
        self.payload_bytes += 4 * (poly.atoms.len() + poly.ends.len()) as u64;
        self.polys.push(poly);
        self.terms.push(None);
        PolyId(id)
    }

    /// The id of the single-atom polynomial `t`.
    pub fn atom(&mut self, t: TermId) -> PolyId {
        self.intern(Poly::atom(t))
    }

    /// `a + b` ([`Poly::add`]), memoized.
    pub fn add(&mut self, a: PolyId, b: PolyId) -> PolyId {
        if a == PolyStore::ZERO {
            return b;
        }
        if b == PolyStore::ZERO {
            return a;
        }
        if a == b {
            return PolyStore::ZERO;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&sum) = self.sums.get(&key) {
            return sum;
        }
        let sum = self.get(a).add(self.get(b));
        let sum = self.intern(sum);
        self.sums.insert(key, sum);
        sum
    }

    /// `a · b` ([`Poly::mul`]), memoized.
    pub fn mul(&mut self, a: PolyId, b: PolyId) -> PolyId {
        if a == PolyStore::ONE || b == PolyStore::ZERO || a == b {
            return b;
        }
        if b == PolyStore::ONE || a == PolyStore::ZERO {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&product) = self.products.get(&key) {
            return product;
        }
        let product = self.get(a).mul(self.get(b));
        let product = self.intern(product);
        self.products.insert(key, product);
        product
    }

    /// The term `id` rebuilds to ([`Poly::to_term`]), memoized: only the
    /// first call interns terms, so terms are created in the same order as
    /// by calling [`Poly::to_term`] every time.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (cannot occur for well-sorted atoms).
    pub fn term(
        &mut self,
        id: PolyId,
        store: &mut TermStore,
        alg: &BoolAlg,
    ) -> Result<TermId, KernelError> {
        if let Some(t) = self.terms[id.0 as usize] {
            return Ok(t);
        }
        let t = self.polys[id.0 as usize].to_term(store, alg)?;
        self.terms[id.0 as usize] = Some(t);
        Ok(t)
    }

    /// Estimate of the store's heap footprint (bytes): the polynomials'
    /// atoms and ends (4 bytes each), 96 bytes per polynomial and 24 per
    /// memoized sum or product.
    pub fn resident_estimate(&self) -> u64 {
        let ops = (self.sums.len() + self.products.len()) as u64;
        self.payload_bytes + self.polys.len() as u64 * POLY_FIXED_BYTES + ops * OP_ENTRY_BYTES
    }
}

/// The most distinct atoms, across both operands, for which [`Poly::mul`]
/// multiplies through truth tables. A table over `n` atoms has `2^n` bits,
/// so at this cutoff each operand's table is 64 words (512 bytes). At 12
/// atoms and 16 pairs the two kernels still run about even; the TLS
/// campaign's few larger products (13–25 atoms) are mostly tiny.
pub const TABLE_MUL_MAX_ATOMS: usize = 12;

/// The fewest monomial pairs (the product of the operands' monomial
/// counts) for which [`Poly::mul`] multiplies through truth tables. From
/// 16 pairs up the table kernel is at least as fast at every atom count
/// up to [`TABLE_MUL_MAX_ATOMS`]; at 9 pairs it already loses from 9
/// atoms up.
pub const TABLE_MUL_MIN_PAIRS: usize = 16;

/// `u64` words in a truth table over [`TABLE_MUL_MAX_ATOMS`] atoms.
const TABLE_WORDS: usize = (1 << TABLE_MUL_MAX_ATOMS) / 64;

/// `MOBIUS_HIGH[i]` has bit `b` set iff bit `i` of `b` is set: the table
/// positions that absorb their partner `b - 2^i` in transform step `i < 6`.
const MOBIUS_HIGH: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The sorted union of `p`'s and `q`'s atoms, or `None` as soon as it
/// exceeds [`TABLE_MUL_MAX_ATOMS`].
fn few_atoms(p: &Poly, q: &Poly) -> Option<Vec<TermId>> {
    let mut vars = Vec::with_capacity(TABLE_MUL_MAX_ATOMS);
    for &a in p.atoms.iter().chain(&q.atoms) {
        if let Err(i) = vars.binary_search(&a) {
            if vars.len() == TABLE_MUL_MAX_ATOMS {
                return None;
            }
            vars.insert(i, a);
        }
    }
    Some(vars)
}

/// The product of `p` and `q`, whose atoms are all in the sorted list
/// `vars`, through truth tables.
///
/// A monomial is a subset of `vars`: bit `i` of its mask stands for
/// `vars[i]`. An operand's table has bit `m` set iff monomial `m` occurs
/// in it (its algebraic normal form). The GF(2) Möbius transform turns
/// that into the operand's truth table, where bit `m` is the value under
/// the assignment making exactly the atoms of `m` true. A product of
/// functions is the AND of their truth tables, and the transform is its
/// own inverse, so transforming the AND back gives the product's
/// monomials. They are read out in preorder of the subset tree (each
/// subset's children add one atom above its largest), which is exactly
/// the lexicographic order of sorted slices: the result is identical to
/// the pairwise kernel's.
fn mul_table(p: &Poly, q: &Poly, vars: &[TermId]) -> Poly {
    let n = vars.len();
    let words = (1usize << n).div_ceil(64);
    let (mut left, mut right) = ([0u64; TABLE_WORDS], [0u64; TABLE_WORDS]);
    let (left, right) = (&mut left[..words], &mut right[..words]);
    for (poly, table) in [(p, &mut *left), (q, &mut *right)] {
        for mono in poly.monomials() {
            let mask = mono.iter().fold(0usize, |m, a| {
                m | 1 << vars.binary_search(a).expect("atom is in the union")
            });
            table[mask / 64] |= 1 << (mask % 64);
        }
        mobius(table, n);
    }
    for (l, r) in left.iter_mut().zip(right.iter()) {
        *l &= r;
    }
    mobius(left, n);
    let mut masks: Vec<u32> = Vec::new();
    for (w, &word) in left.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            masks.push(offset(w * 64) + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    masks.sort_unstable_by(|&a, &b| preorder_cmp(a, b));
    let width = masks.iter().map(|m| m.count_ones() as usize).sum();
    let mut out = Poly {
        atoms: Vec::with_capacity(width),
        ends: Vec::with_capacity(masks.len()),
    };
    for mask in masks {
        let mut bits = mask;
        while bits != 0 {
            out.atoms.push(vars[bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
        out.ends.push(offset(out.atoms.len()));
    }
    out
}

/// The GF(2) Möbius transform of a table over `n` atoms, in place: bit `m`
/// becomes the xor of the bits of every subset of `m`. Step `i` xors each
/// position with bit `i` set with its partner without it: a shift inside
/// a word for `i < 6`, a whole-word xor above.
fn mobius(table: &mut [u64], n: usize) {
    for (i, &high) in MOBIUS_HIGH.iter().enumerate().take(n) {
        for w in table.iter_mut() {
            *w ^= (*w << (1 << i)) & high;
        }
    }
    for i in 6..n {
        let step = 1 << (i - 6);
        for j in (0..table.len()).filter(|j| j & step != 0) {
            table[j] ^= table[j ^ step];
        }
    }
}

/// The order of two monomial masks as sorted atom slices. Below their
/// lowest differing atom `d` they agree; the one holding `d` sorts first
/// unless the other has no atom above `d`, i.e. is its prefix.
fn preorder_cmp(a: u32, b: u32) -> Ordering {
    let diff = a ^ b;
    if diff == 0 {
        return Ordering::Equal;
    }
    let low = diff & diff.wrapping_neg();
    let above = !(low | (low - 1));
    let (holder_first, other) = if a & low != 0 {
        (Ordering::Less, b)
    } else {
        (Ordering::Greater, a)
    };
    if other & above != 0 {
        holder_first
    } else {
        holder_first.reverse()
    }
}

/// Append the sorted union of the sorted atom lists `a` and `b` to `buf`.
fn union_into(buf: &mut Vec<TermId>, a: &[TermId], b: &[TermId]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                buf.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                buf.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                buf.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    buf.extend_from_slice(&a[i..]);
    buf.extend_from_slice(&b[j..]);
}

/// A binary term constructor used to fold monomials into a tree.
type Combine = dyn Fn(&mut TermStore, &BoolAlg, TermId, TermId) -> Result<TermId, KernelError>;

fn balanced(
    store: &mut TermStore,
    alg: &BoolAlg,
    terms: &[TermId],
    combine: &Combine,
) -> Result<TermId, KernelError> {
    match terms.len() {
        0 => unreachable!("constant polynomials are handled by the caller"),
        1 => Ok(terms[0]),
        n => {
            let (left, right) = terms.split_at(n / 2);
            let l = balanced(store, alg, left, combine)?;
            let r = balanced(store, alg, right, combine)?;
            combine(store, alg, l, r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms3() -> (TermStore, BoolAlg, TermId, TermId, TermId) {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let p = store.fresh_constant("p", alg.sort());
        let q = store.fresh_constant("q", alg.sort());
        let r = store.fresh_constant("r", alg.sort());
        (store, alg, p, q, r)
    }

    #[test]
    fn constants_behave_as_ring_identities() {
        let (_, _, p, ..) = atoms3();
        let a = Poly::atom(p);
        assert_eq!(a.add(&Poly::zero()), a);
        assert_eq!(a.mul(&Poly::one()), a);
        assert!(a.mul(&Poly::zero()).is_false());
        assert!(a.add(&a).is_false()); // x xor x = 0
        assert_eq!(a.mul(&a), a); // x and x = x
    }

    #[test]
    fn excluded_middle_is_one() {
        let (_, _, p, ..) = atoms3();
        let a = Poly::atom(p);
        // p or not p  =  p + (1+p) + p(1+p)  =  1
        let not_a = Poly::one().add(&a);
        let or = a.add(&not_a).add(&a.mul(&not_a));
        assert!(or.is_true());
    }

    #[test]
    fn contradiction_is_zero() {
        let (_, _, p, ..) = atoms3();
        let a = Poly::atom(p);
        assert!(a.mul(&Poly::one().add(&a)).is_false());
    }

    #[test]
    fn distributivity_holds() {
        let (_, _, p, q, r) = atoms3();
        let (a, b, c) = (Poly::atom(p), Poly::atom(q), Poly::atom(r));
        let left = a.mul(&b.add(&c));
        let right = a.mul(&b).add(&a.mul(&c));
        assert_eq!(left, right);
    }

    #[test]
    fn to_term_round_trips_single_atom() {
        let (mut store, alg, p, ..) = atoms3();
        let a = Poly::atom(p);
        assert_eq!(a.to_term(&mut store, &alg).unwrap(), p);
        assert_eq!(
            Poly::one().to_term(&mut store, &alg).unwrap(),
            alg.tt(&mut store)
        );
        assert_eq!(
            Poly::zero().to_term(&mut store, &alg).unwrap(),
            alg.ff(&mut store)
        );
    }

    #[test]
    fn eval_matches_construction() {
        let (_, _, p, q, _) = atoms3();
        // p implies q  =  1 + p + pq
        let (a, b) = (Poly::atom(p), Poly::atom(q));
        let imp = Poly::one().add(&a).add(&a.mul(&b));
        // truth table of implication
        for (pv, qv, want) in [
            (false, false, true),
            (false, true, true),
            (true, false, false),
            (true, true, true),
        ] {
            let got = imp.eval(&|t| if t == p { pv } else { qv });
            assert_eq!(got, want, "p={pv} q={qv}");
        }
    }

    #[test]
    fn atoms_are_reported_sorted_and_deduped() {
        let (_, _, p, q, r) = atoms3();
        let poly = Poly::atom(r)
            .mul(&Poly::atom(p))
            .add(&Poly::atom(q).mul(&Poly::atom(p)));
        let atoms = poly.atoms();
        assert_eq!(atoms.len(), 3);
        let mut sorted = atoms.clone();
        sorted.sort();
        assert_eq!(atoms, sorted);
    }
}
