//! The `BOOL` built-in: truth values, connectives, and per-sort equality.
//!
//! CafeOBJ specifications import the built-in module `BOOL`, giving the
//! visible sort `Bool`, the constants `true`/`false`, and the connectives
//! `not_`, `_and_`, `_or_`, `_xor_`, `_implies_`, `_iff_` plus
//! `if_then_else_fi`. [`BoolAlg::install`] declares all of these in a
//! signature and remembers their [`OpId`]s so the engine can recognize them
//! structurally.
//!
//! Equality `_=_` is declared *per sort, on demand* ([`BoolAlg::eq_op`]):
//! CafeOBJ overloads `_=_` at every visible sort, and the TLS specification
//! compares principals, messages, pre-master secrets and more.

use equitls_kernel::fxhash::FxHashMap;
use equitls_kernel::prelude::*;

/// Handle to the `BOOL` vocabulary inside a signature.
///
/// Cheap to clone; the engine and the prover both carry one.
#[derive(Debug, Clone)]
pub struct BoolAlg {
    sort: SortId,
    tt: OpId,
    ff: OpId,
    not: OpId,
    and: OpId,
    or: OpId,
    xor: OpId,
    imp: OpId,
    iff: OpId,
    ite: OpId,
    eq_ops: FxHashMap<SortId, OpId>,
    /// The values of `eq_ops` as a bitset over `OpId::index()`, so
    /// [`BoolAlg::is_eq_op`] is one load, not a scan.
    eq_op_bits: Vec<u64>,
}

impl BoolAlg {
    /// Declare the `BOOL` vocabulary in `sig` and return the handle.
    ///
    /// # Errors
    ///
    /// Propagates [`KernelError::DuplicateSort`]/[`KernelError::DuplicateOp`]
    /// if `BOOL` was already installed.
    pub fn install(sig: &mut Signature) -> Result<Self, KernelError> {
        let sort = sig.add_visible_sort("Bool")?;
        let tt = sig.add_constant("true", sort, OpAttrs::constructor())?;
        let ff = sig.add_constant("false", sort, OpAttrs::constructor())?;
        let not = sig.add_op("not_", &[sort], sort, OpAttrs::defined())?;
        let and = sig.add_op("_and_", &[sort, sort], sort, OpAttrs::defined())?;
        let or = sig.add_op("_or_", &[sort, sort], sort, OpAttrs::defined())?;
        let xor = sig.add_op("_xor_", &[sort, sort], sort, OpAttrs::defined())?;
        let imp = sig.add_op("_implies_", &[sort, sort], sort, OpAttrs::defined())?;
        let iff = sig.add_op("_iff_", &[sort, sort], sort, OpAttrs::defined())?;
        let ite = sig.add_op(
            "if_then_else_fi",
            &[sort, sort, sort],
            sort,
            OpAttrs::defined(),
        )?;
        let mut alg = BoolAlg {
            sort,
            tt,
            ff,
            not,
            and,
            or,
            xor,
            imp,
            iff,
            ite,
            eq_ops: FxHashMap::default(),
            eq_op_bits: Vec::new(),
        };
        // `_=_` at Bool itself behaves as iff.
        alg.ensure_eq(sig, sort)?;
        Ok(alg)
    }

    /// Remember `op` as the equality operator of `sort`.
    fn record_eq(&mut self, sort: SortId, op: OpId) {
        self.eq_ops.insert(sort, op);
        let (word, bit) = (op.index() / 64, op.index() % 64);
        if word >= self.eq_op_bits.len() {
            self.eq_op_bits.resize(word + 1, 0);
        }
        self.eq_op_bits[word] |= 1 << bit;
    }

    /// The `Bool` sort.
    pub fn sort(&self) -> SortId {
        self.sort
    }

    /// The `true` constant operator.
    pub fn true_op(&self) -> OpId {
        self.tt
    }

    /// The `false` constant operator.
    pub fn false_op(&self) -> OpId {
        self.ff
    }

    /// The `not_` operator.
    pub fn not_op(&self) -> OpId {
        self.not
    }

    /// The `_and_` operator.
    pub fn and_op(&self) -> OpId {
        self.and
    }

    /// The `_or_` operator.
    pub fn or_op(&self) -> OpId {
        self.or
    }

    /// The `_xor_` operator.
    pub fn xor_op(&self) -> OpId {
        self.xor
    }

    /// The `_implies_` operator.
    pub fn implies_op(&self) -> OpId {
        self.imp
    }

    /// The `_iff_` operator.
    pub fn iff_op(&self) -> OpId {
        self.iff
    }

    /// The `if_then_else_fi` operator (Bool-valued branches).
    pub fn ite_op(&self) -> OpId {
        self.ite
    }

    /// Declare (or fetch) the equality operator `_=_ : S S -> Bool`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the declaration.
    pub fn ensure_eq(&mut self, sig: &mut Signature, sort: SortId) -> Result<OpId, KernelError> {
        if let Some(&op) = self.eq_ops.get(&sort) {
            return Ok(op);
        }
        let op = match sig.resolve_op("_=_", &[sort, sort]) {
            Some(op) => op,
            None => sig.add_op("_=_", &[sort, sort], self.sort, OpAttrs::defined())?,
        };
        self.record_eq(sort, op);
        Ok(op)
    }

    /// The equality operator for `sort`, if declared.
    pub fn eq_op(&self, sort: SortId) -> Option<OpId> {
        self.eq_ops.get(&sort).copied()
    }

    /// `true` when `op` is an equality operator of some sort.
    pub fn is_eq_op(&self, op: OpId) -> bool {
        let (word, bit) = (op.index() / 64, op.index() % 64);
        self.eq_op_bits
            .get(word)
            .is_some_and(|&bits| bits & (1 << bit) != 0)
    }

    /// Intern `true`.
    pub fn tt(&self, store: &mut TermStore) -> TermId {
        store.constant(self.tt)
    }

    /// Intern `false`.
    pub fn ff(&self, store: &mut TermStore) -> TermId {
        store.constant(self.ff)
    }

    /// Intern a truth constant.
    pub fn constant(&self, store: &mut TermStore, value: bool) -> TermId {
        if value {
            self.tt(store)
        } else {
            self.ff(store)
        }
    }

    /// `Some(b)` when `t` is the constant `true`/`false`.
    pub fn as_constant(&self, store: &TermStore, t: TermId) -> Option<bool> {
        match store.op_of(t) {
            Some(op) if op == self.tt => Some(true),
            Some(op) if op == self.ff => Some(false),
            _ => None,
        }
    }

    /// Intern `not a`.
    ///
    /// # Errors
    ///
    /// Propagates kernel sort errors.
    pub fn not(&self, store: &mut TermStore, a: TermId) -> Result<TermId, KernelError> {
        store.app(self.not, &[a])
    }

    /// Intern `a and b`.
    ///
    /// # Errors
    ///
    /// Propagates kernel sort errors.
    pub fn and(&self, store: &mut TermStore, a: TermId, b: TermId) -> Result<TermId, KernelError> {
        store.app(self.and, &[a, b])
    }

    /// Intern the conjunction of `terms` (`true` when empty).
    ///
    /// # Errors
    ///
    /// Propagates kernel sort errors.
    pub fn conj(&self, store: &mut TermStore, terms: &[TermId]) -> Result<TermId, KernelError> {
        // Balanced to keep term depth logarithmic in the conjunct count.
        match terms.len() {
            0 => Ok(self.tt(store)),
            1 => Ok(terms[0]),
            n => {
                let (left, right) = terms.split_at(n / 2);
                let l = self.conj(store, left)?;
                let r = self.conj(store, right)?;
                self.and(store, l, r)
            }
        }
    }

    /// Intern `a or b`.
    ///
    /// # Errors
    ///
    /// Propagates kernel sort errors.
    pub fn or(&self, store: &mut TermStore, a: TermId, b: TermId) -> Result<TermId, KernelError> {
        store.app(self.or, &[a, b])
    }

    /// Intern `a xor b`.
    ///
    /// # Errors
    ///
    /// Propagates kernel sort errors.
    pub fn xor(&self, store: &mut TermStore, a: TermId, b: TermId) -> Result<TermId, KernelError> {
        store.app(self.xor, &[a, b])
    }

    /// Intern `a implies b`.
    ///
    /// # Errors
    ///
    /// Propagates kernel sort errors.
    pub fn implies(
        &self,
        store: &mut TermStore,
        a: TermId,
        b: TermId,
    ) -> Result<TermId, KernelError> {
        store.app(self.imp, &[a, b])
    }

    /// Intern `a iff b`.
    ///
    /// # Errors
    ///
    /// Propagates kernel sort errors.
    pub fn iff(&self, store: &mut TermStore, a: TermId, b: TermId) -> Result<TermId, KernelError> {
        store.app(self.iff, &[a, b])
    }

    /// Intern the equality `a = b`, declaring `_=_` for the sort on demand.
    ///
    /// # Errors
    ///
    /// [`KernelError::SortMismatch`]-style errors when the sides disagree in
    /// sort.
    pub fn eq(
        &mut self,
        store: &mut TermStore,
        a: TermId,
        b: TermId,
    ) -> Result<TermId, KernelError> {
        let sort = store.sort_of(a);
        let op = {
            let sig = store.signature_mut();
            self.ensure_eq(sig, sort)?
        };
        store.app(op, &[a, b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_declares_the_full_vocabulary() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        assert_eq!(sig.sort(alg.sort()).name, "Bool");
        assert_eq!(sig.op(alg.and_op()).name, "_and_");
        assert_eq!(sig.op(alg.ite_op()).arity(), 3);
        assert!(alg.eq_op(alg.sort()).is_some());
    }

    #[test]
    fn double_install_is_rejected() {
        let mut sig = Signature::new();
        BoolAlg::install(&mut sig).unwrap();
        assert!(BoolAlg::install(&mut sig).is_err());
    }

    #[test]
    fn eq_is_declared_per_sort_on_demand() {
        let mut sig = Signature::new();
        let mut alg = BoolAlg::install(&mut sig).unwrap();
        let prin = sig.add_visible_sort("Principal").unwrap();
        assert_eq!(alg.eq_op(prin), None);
        let mut store = TermStore::new(sig);
        let a = store.fresh_constant("a", prin);
        let b = store.fresh_constant("b", prin);
        let eq = alg.eq(&mut store, a, b).unwrap();
        assert_eq!(store.sort_of(eq), alg.sort());
        assert!(alg.eq_op(prin).is_some());
        assert!(alg.is_eq_op(store.op_of(eq).unwrap()));
        assert_eq!(store.display(eq).to_string(), "a#1 = b#2");
    }

    #[test]
    fn truth_constants_are_recognized() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let t = alg.tt(&mut store);
        let f = alg.ff(&mut store);
        assert_eq!(alg.as_constant(&store, t), Some(true));
        assert_eq!(alg.as_constant(&store, f), Some(false));
        let n = alg.not(&mut store, t).unwrap();
        assert_eq!(alg.as_constant(&store, n), None);
        assert_eq!(alg.constant(&mut store, true), t);
    }

    #[test]
    fn conj_builds_left_nested_conjunction() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let p = store.fresh_constant("p", alg.sort());
        let q = store.fresh_constant("q", alg.sort());
        let r = store.fresh_constant("r", alg.sort());
        let empty = alg.conj(&mut store, &[]).unwrap();
        assert_eq!(alg.as_constant(&store, empty), Some(true));
        let single = alg.conj(&mut store, &[p]).unwrap();
        assert_eq!(single, p);
        let triple = alg.conj(&mut store, &[p, q, r]).unwrap();
        // Balanced: (p) and (q and r).
        let qr = alg.and(&mut store, q, r).unwrap();
        let expected = alg.and(&mut store, p, qr).unwrap();
        assert_eq!(triple, expected);
    }
}
