//! Hash-consed terms.
//!
//! All terms live in a [`TermStore`], an arena that interns structurally
//! identical terms to the same [`TermId`]. Hash-consing gives the rest of
//! the system three things:
//!
//! 1. **O(1) structural equality** — `TermId` equality *is* term equality,
//!    which the Boolean-ring normalizer and the free-constructor equality
//!    procedure rely on heavily;
//! 2. **compact proofs** — inductive proof goals share large sub-terms
//!    (whole networks, whole messages) instead of copying them;
//! 3. **cheap memoization keys** — the rewriting engine caches normal forms
//!    per `TermId`.
//!
//! Terms are either operator applications (constants are applications with
//! zero arguments) or variables. Variables only occur in rule patterns and
//! invariant templates; the subjects reduced during proofs are
//! "ground-plus-fresh-constants": the arbitrary objects of a proof passage
//! (`op b10 : -> Prin .` in the paper's §5.2) are fresh *constants*, not
//! variables.

use crate::error::KernelError;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::op::{OpId, OpKind};
use crate::signature::{SigMark, Signature};
use crate::sort::SortId;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;

/// Identifier of an interned term inside a [`TermStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// The dense index of this term.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a declared variable inside a [`TermStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A declared variable: name and sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable name, unique within a store.
    pub name: String,
    /// The variable's sort.
    pub sort: SortId,
}

/// The shape of a term: an application or a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// `op(args…)`; constants have empty `args`.
    App {
        /// Head operator.
        op: OpId,
        /// Argument terms, already interned.
        args: Vec<TermId>,
    },
    /// A variable occurrence (rule patterns only).
    Var(VarId),
}

/// Arena of interned terms plus the signature they are built over.
///
/// The intern table maps a 64-bit hash of `(op, args)` (or of a variable)
/// to the newest [`TermId`] with that hash; `chain[id]` links each id to
/// the next older one sharing its hash. A lookup hashes the argument slice
/// and compares it against `nodes`, so only a miss allocates.
///
/// A store can be opened and closed like a proof passage:
/// [`TermStore::mark`] records its size and [`TermStore::rollback`] pops
/// everything added since, so a store reused across obligations hands out
/// exactly the ids and fresh names a new clone would.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct TermStore {
    sig: Signature,
    nodes: Vec<Term>,
    sorts: Vec<SortId>,
    intern: FxHashMap<u64, u32>,
    chain: Vec<u32>,
    vars: Vec<VarDecl>,
    var_names: HashMap<String, VarId>,
    fresh_counter: u64,
}

/// A position in a [`TermStore`]'s history, taken by [`TermStore::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMark {
    nodes: usize,
    vars: usize,
    fresh_counter: u64,
    sig: SigMark,
}

/// End of an intern chain.
const NO_TERM: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Test hook: hash every node to 0, so distinct terms share one chain.
    static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The intern-table hash of `op(args…)`.
fn app_hash(op: OpId, args: &[TermId]) -> u64 {
    #[cfg(test)]
    if COLLIDE.with(|c| c.get()) {
        return 0;
    }
    let mut h = FxHasher::default();
    h.write_u32(op.0);
    for a in args {
        h.write_u32(a.0);
    }
    h.finish()
}

/// The intern-table hash of a variable occurrence.
fn var_hash(v: VarId) -> u64 {
    #[cfg(test)]
    if COLLIDE.with(|c| c.get()) {
        return 0;
    }
    let mut h = FxHasher::default();
    h.write_u32(NO_TERM);
    h.write_u32(v.0);
    h.finish()
}

fn node_hash(node: &Term) -> u64 {
    match node {
        Term::App { op, args } => app_hash(*op, args),
        Term::Var(v) => var_hash(*v),
    }
}

impl TermStore {
    /// Create a store over `sig`.
    pub fn new(sig: Signature) -> Self {
        TermStore {
            sig,
            nodes: Vec::new(),
            sorts: Vec::new(),
            intern: FxHashMap::default(),
            chain: Vec::new(),
            vars: Vec::new(),
            var_names: HashMap::new(),
            fresh_counter: 0,
        }
    }

    /// The underlying signature.
    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    /// Mutable access to the signature.
    ///
    /// Proof passages extend the signature with fresh constants ("arbitrary
    /// objects" in the paper's proof scores), which is why the store owns a
    /// mutable signature.
    pub fn signature_mut(&mut self) -> &mut Signature {
        &mut self.sig
    }

    /// The existing id of the node hashing to `hash` that `is_node`
    /// accepts.
    fn lookup(&self, hash: u64, is_node: impl Fn(&Term) -> bool) -> Option<TermId> {
        let mut cur = *self.intern.get(&hash)?;
        while cur != NO_TERM {
            if is_node(&self.nodes[cur as usize]) {
                return Some(TermId(cur));
            }
            cur = self.chain[cur as usize];
        }
        None
    }

    /// Append a node known to be absent and link it at the head of its
    /// hash chain.
    fn push_node(&mut self, hash: u64, node: Term, sort: SortId) -> TermId {
        let id = self.nodes.len() as u32;
        let older = self.intern.insert(hash, id).unwrap_or(NO_TERM);
        self.chain.push(older);
        self.nodes.push(node);
        self.sorts.push(sort);
        TermId(id)
    }

    /// Intern the application `op(args…)`.
    ///
    /// # Errors
    ///
    /// [`KernelError::ArityMismatch`] or [`KernelError::SortMismatch`] when
    /// the application is ill-sorted.
    pub fn app(&mut self, op: OpId, args: &[TermId]) -> Result<TermId, KernelError> {
        let decl = self.sig.op(op);
        if decl.arity() != args.len() {
            return Err(KernelError::ArityMismatch {
                op: decl.name.clone(),
                expected: decl.arity(),
                got: args.len(),
            });
        }
        let result = decl.result;
        for (i, (&arg, &want)) in args.iter().zip(decl.args.iter()).enumerate() {
            let got = self.sort_of(arg);
            if got != want {
                return Err(KernelError::SortMismatch {
                    op: decl.name.clone(),
                    position: i,
                    expected: self.sig.sort(want).name.clone(),
                    got: self.sig.sort(got).name.clone(),
                });
            }
        }
        let hash = app_hash(op, args);
        let found = self.lookup(
            hash,
            |node| matches!(node, Term::App { op: o, args: a } if *o == op && a[..] == *args),
        );
        Ok(match found {
            Some(id) => id,
            None => self.push_node(
                hash,
                Term::App {
                    op,
                    args: args.to_vec(),
                },
                result,
            ),
        })
    }

    /// Rebuild the application `t` with every argument `a` replaced by
    /// `f(self, a)`, left to right. Returns `t` itself when no argument
    /// changes (variables and constants included); the new argument vector
    /// is allocated only once an argument does change.
    ///
    /// # Errors
    ///
    /// The first error of `f`, or of interning the rebuilt application.
    pub fn map_args<E: From<KernelError>>(
        &mut self,
        t: TermId,
        mut f: impl FnMut(&mut TermStore, TermId) -> Result<TermId, E>,
    ) -> Result<TermId, E> {
        let (op, arity) = match self.node(t) {
            Term::App { op, args } => (*op, args.len()),
            Term::Var(_) => return Ok(t),
        };
        let mut changed: Option<Vec<TermId>> = None;
        for i in 0..arity {
            let arg = self.args(t)[i];
            let new = f(self, arg)?;
            match &mut changed {
                Some(args) => args.push(new),
                None if new != arg => {
                    let mut args = Vec::with_capacity(arity);
                    args.extend_from_slice(&self.args(t)[..i]);
                    args.push(new);
                    changed = Some(args);
                }
                None => {}
            }
        }
        match changed {
            Some(args) => Ok(self.app(op, &args)?),
            None => Ok(t),
        }
    }

    /// Intern the constant `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not nullary; use [`TermStore::app`] for the
    /// fallible general case.
    pub fn constant(&mut self, op: OpId) -> TermId {
        assert!(
            self.sig.op(op).is_constant(),
            "TermStore::constant called with non-nullary operator `{}`",
            self.sig.op(op).name
        );
        self.app(op, &[]).expect("nullary application cannot fail")
    }

    /// Declare a variable, or return the existing one with the same name.
    ///
    /// # Errors
    ///
    /// [`KernelError::VariableSortClash`] if the name exists with a
    /// different sort.
    pub fn declare_var(&mut self, name: &str, sort: SortId) -> Result<VarId, KernelError> {
        if let Some(&v) = self.var_names.get(name) {
            let declared = self.vars[v.index()].sort;
            if declared != sort {
                return Err(KernelError::VariableSortClash {
                    var: name.to_string(),
                    declared: self.sig.sort(declared).name.clone(),
                    requested: self.sig.sort(sort).name.clone(),
                });
            }
            return Ok(v);
        }
        let v = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: name.to_string(),
            sort,
        });
        self.var_names.insert(name.to_string(), v);
        Ok(v)
    }

    /// Intern a variable occurrence.
    pub fn var(&mut self, var: VarId) -> TermId {
        let sort = self.vars[var.index()].sort;
        let hash = var_hash(var);
        match self.lookup(hash, |node| *node == Term::Var(var)) {
            Some(id) => id,
            None => self.push_node(hash, Term::Var(var), sort),
        }
    }

    /// Declare a brand-new constant with a unique generated name and intern
    /// it — the "arbitrary object" of a proof passage.
    ///
    /// The constant gets [`crate::op::OpKind::Arbitrary`], so the equality
    /// decision procedure will not assume it distinct from anything.
    pub fn fresh_constant(&mut self, prefix: &str, sort: SortId) -> TermId {
        loop {
            self.fresh_counter += 1;
            let name = format!("{}#{}", prefix, self.fresh_counter);
            match self
                .sig
                .add_constant(&name, sort, crate::op::OpAttrs::arbitrary())
            {
                Ok(op) => return self.constant(op),
                Err(KernelError::DuplicateOp(_)) => continue,
                Err(e) => unreachable!("fresh constant declaration failed: {e}"),
            }
        }
    }

    /// Declare a *named* arbitrary constant (`op b10 : -> Prin .`).
    ///
    /// # Errors
    ///
    /// [`KernelError::DuplicateOp`] if the name is already declared with no
    /// arguments.
    pub fn arbitrary_constant(&mut self, name: &str, sort: SortId) -> Result<TermId, KernelError> {
        let op = self
            .sig
            .add_constant(name, sort, crate::op::OpAttrs::arbitrary())?;
        Ok(self.constant(op))
    }

    /// The shape of `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` was issued by a different store.
    pub fn node(&self, t: TermId) -> &Term {
        &self.nodes[t.index()]
    }

    /// The sort of `t`.
    pub fn sort_of(&self, t: TermId) -> SortId {
        self.sorts[t.index()]
    }

    /// The head operator of `t`, or `None` for variables.
    pub fn op_of(&self, t: TermId) -> Option<OpId> {
        match self.node(t) {
            Term::App { op, .. } => Some(*op),
            Term::Var(_) => None,
        }
    }

    /// The arguments of `t` (empty for constants and variables).
    pub fn args(&self, t: TermId) -> &[TermId] {
        match self.node(t) {
            Term::App { args, .. } => args,
            Term::Var(_) => &[],
        }
    }

    /// The declaration of variable `v`.
    pub fn var_decl(&self, v: VarId) -> &VarDecl {
        &self.vars[v.index()]
    }

    /// Look up a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.var_names.get(name).copied()
    }

    /// Number of interned terms.
    pub fn term_count(&self) -> usize {
        self.nodes.len()
    }

    /// Record the store's current size, to [`TermStore::rollback`] to.
    pub fn mark(&self) -> StoreMark {
        StoreMark {
            nodes: self.nodes.len(),
            vars: self.vars.len(),
            fresh_counter: self.fresh_counter,
            sig: self.sig.mark(),
        }
    }

    /// Pop every term, variable, sort and operator added since `mark`,
    /// unlink them from the lookup tables and restore the fresh-name
    /// counter — the `close` of a proof passage. Afterwards the store
    /// issues the same ids and fresh names it would have at the mark.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the store's current size (it was taken
    /// on another store, or a rollback already went past it).
    pub fn rollback(&mut self, mark: StoreMark) {
        assert!(
            mark.nodes <= self.nodes.len() && mark.vars <= self.vars.len(),
            "TermStore::rollback past the store's current size"
        );
        // Newest first: each popped id is the head of its hash chain.
        while self.nodes.len() > mark.nodes {
            let node = self.nodes.pop().expect("len > mark");
            let older = self.chain.pop().expect("one chain link per node");
            let hash = node_hash(&node);
            if older == NO_TERM {
                self.intern.remove(&hash);
            } else {
                self.intern.insert(hash, older);
            }
        }
        self.sorts.truncate(mark.nodes);
        for decl in self.vars.drain(mark.vars..) {
            self.var_names.remove(&decl.name);
        }
        self.fresh_counter = mark.fresh_counter;
        self.sig.rollback(mark.sig);
    }

    /// `true` when `needle` occurs in `hay` (or is `hay`).
    pub fn occurs_in(&self, needle: TermId, hay: TermId) -> bool {
        hay == needle || self.args(hay).iter().any(|&a| self.occurs_in(needle, a))
    }

    /// `true` when `t` contains no variables.
    pub fn is_ground(&self, t: TermId) -> bool {
        match self.node(t) {
            Term::Var(_) => false,
            Term::App { args, .. } => args.iter().all(|&a| self.is_ground(a)),
        }
    }

    /// `true` when the head of `t` is a *strict* free constructor.
    ///
    /// Arbitrary proof-passage constants are excluded: they denote unknown
    /// values, so nothing may be concluded from their head symbol.
    pub fn is_constructor_headed(&self, t: TermId) -> bool {
        match self.op_of(t) {
            Some(op) => self.sig.op(op).attrs.kind == OpKind::Constructor,
            None => false,
        }
    }

    /// `true` when `t` is an arbitrary (proof-passage) constant.
    pub fn is_arbitrary_constant(&self, t: TermId) -> bool {
        match self.op_of(t) {
            Some(op) => {
                let decl = self.sig.op(op);
                decl.is_constant() && decl.attrs.is_arbitrary()
            }
            None => false,
        }
    }

    /// Number of nodes in `t` (counting shared subterms once per occurrence).
    pub fn size(&self, t: TermId) -> usize {
        match self.node(t) {
            Term::Var(_) => 1,
            Term::App { args, .. } => 1 + args.iter().map(|&a| self.size(a)).sum::<usize>(),
        }
    }

    /// Depth of `t` (a constant or variable has depth 1).
    pub fn depth(&self, t: TermId) -> usize {
        match self.node(t) {
            Term::Var(_) => 1,
            Term::App { args, .. } => 1 + args.iter().map(|&a| self.depth(a)).max().unwrap_or(0),
        }
    }

    /// All distinct subterms of `t`, including `t` itself, in first-visit
    /// (pre-order) order.
    pub fn subterms(&self, t: TermId) -> Vec<TermId> {
        let mut seen = Vec::new();
        let mut stack = vec![t];
        while let Some(cur) = stack.pop() {
            if seen.contains(&cur) {
                continue;
            }
            seen.push(cur);
            for &a in self.args(cur) {
                stack.push(a);
            }
        }
        seen
    }

    /// All distinct variables occurring in `t`.
    pub fn vars_of(&self, t: TermId) -> Vec<VarId> {
        let mut out = Vec::new();
        for s in self.subterms(t) {
            if let Term::Var(v) = self.node(s) {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// A displayable wrapper for `t`; see [`crate::display`].
    pub fn display(&self, t: TermId) -> crate::display::DisplayTerm<'_> {
        crate::display::DisplayTerm {
            store: self,
            term: t,
        }
    }
}

impl fmt::Display for TermStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TermStore({} terms, {} vars, {} ops)",
            self.nodes.len(),
            self.vars.len(),
            self.sig.op_count()
        )
    }
}

#[cfg(test)]
mod rollback_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpAttrs;

    fn pms_world() -> (TermStore, OpId, OpId, OpId, OpId) {
        let mut sig = Signature::new();
        let prin = sig.add_visible_sort("Principal").unwrap();
        let secret = sig.add_visible_sort("Secret").unwrap();
        let pms_sort = sig.add_visible_sort("Pms").unwrap();
        let intruder = sig
            .add_constant("intruder", prin, OpAttrs::constructor())
            .unwrap();
        let ca = sig
            .add_constant("ca", prin, OpAttrs::constructor())
            .unwrap();
        let s0 = sig
            .add_constant("s0", secret, OpAttrs::constructor())
            .unwrap();
        let pms = sig
            .add_op(
                "pms",
                &[prin, prin, secret],
                pms_sort,
                OpAttrs::constructor(),
            )
            .unwrap();
        (TermStore::new(sig), intruder, ca, s0, pms)
    }

    #[test]
    fn hash_consing_interns_equal_terms_once() {
        let (mut store, intruder, ca, s0, pms) = pms_world();
        let a = store.constant(intruder);
        let b = store.constant(ca);
        let s = store.constant(s0);
        let t1 = store.app(pms, &[a, b, s]).unwrap();
        let t2 = store.app(pms, &[a, b, s]).unwrap();
        assert_eq!(t1, t2);
        let t3 = store.app(pms, &[b, a, s]).unwrap();
        assert_ne!(t1, t3);
    }

    #[test]
    fn arity_and_sort_errors_are_reported() {
        let (mut store, intruder, _ca, s0, pms) = pms_world();
        let a = store.constant(intruder);
        let s = store.constant(s0);
        assert!(matches!(
            store.app(pms, &[a, s]),
            Err(KernelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            store.app(pms, &[a, s, s]),
            Err(KernelError::SortMismatch { position: 1, .. })
        ));
    }

    #[test]
    fn size_depth_and_subterms() {
        let (mut store, intruder, ca, s0, pms) = pms_world();
        let a = store.constant(intruder);
        let b = store.constant(ca);
        let s = store.constant(s0);
        let t = store.app(pms, &[a, b, s]).unwrap();
        assert_eq!(store.size(t), 4);
        assert_eq!(store.depth(t), 2);
        let subs = store.subterms(t);
        assert_eq!(subs.len(), 4);
        assert!(subs.contains(&a) && subs.contains(&b) && subs.contains(&s) && subs.contains(&t));
    }

    #[test]
    fn variables_are_per_name_and_sort_checked() {
        let (mut store, ..) = pms_world();
        let prin = store.signature().sort_by_name("Principal").unwrap();
        let secret = store.signature().sort_by_name("Secret").unwrap();
        let v1 = store.declare_var("A", prin).unwrap();
        let v2 = store.declare_var("A", prin).unwrap();
        assert_eq!(v1, v2);
        assert!(matches!(
            store.declare_var("A", secret),
            Err(KernelError::VariableSortClash { .. })
        ));
        let occurrence = store.var(v1);
        assert!(!store.is_ground(occurrence));
        assert_eq!(store.vars_of(occurrence), vec![v1]);
    }

    #[test]
    fn fresh_constants_are_distinct_and_well_sorted() {
        let (mut store, ..) = pms_world();
        let prin = store.signature().sort_by_name("Principal").unwrap();
        let c1 = store.fresh_constant("a", prin);
        let c2 = store.fresh_constant("a", prin);
        assert_ne!(c1, c2);
        assert_eq!(store.sort_of(c1), prin);
        assert!(store.is_ground(c1));
        // Arbitrary constants are deliberately NOT constructor-headed: the
        // equality procedure must leave `a#1 = intruder` symbolic.
        assert!(!store.is_constructor_headed(c1));
        assert!(store.is_arbitrary_constant(c1));
    }

    #[test]
    fn named_arbitrary_constants_reject_duplicates() {
        let (mut store, ..) = pms_world();
        let prin = store.signature().sort_by_name("Principal").unwrap();
        let b10 = store.arbitrary_constant("b10", prin).unwrap();
        assert!(store.is_arbitrary_constant(b10));
        assert!(store.arbitrary_constant("b10", prin).is_err());
    }

    #[test]
    fn overloading_by_arg_sorts_is_allowed() {
        let (mut store, ..) = pms_world();
        let prin = store.signature().sort_by_name("Principal").unwrap();
        let secret = store.signature().sort_by_name("Secret").unwrap();
        let sig = store.signature_mut();
        let f1 = sig
            .add_op("pick", &[prin], prin, OpAttrs::defined())
            .unwrap();
        let f2 = sig
            .add_op("pick", &[secret], prin, OpAttrs::defined())
            .unwrap();
        assert_ne!(f1, f2);
        assert!(sig
            .add_op("pick", &[prin], secret, OpAttrs::defined())
            .is_err());
        assert_eq!(sig.resolve_op("pick", &[secret]), Some(f2));
        assert_eq!(sig.ops_by_name("pick").len(), 2);
    }

    #[test]
    fn constructor_headedness_follows_attrs() {
        let (mut store, intruder, ..) = pms_world();
        let prin = store.signature().sort_by_name("Principal").unwrap();
        let f = store
            .signature_mut()
            .add_op("f", &[prin], prin, OpAttrs::defined())
            .unwrap();
        let a = store.constant(intruder);
        let fa = store.app(f, &[a]).unwrap();
        assert!(store.is_constructor_headed(a));
        assert!(!store.is_constructor_headed(fa));
    }
}
