//! Substitutions: finite maps from variables to terms.
//!
//! A substitution is produced by [`crate::matching::match_term`] and applied
//! to the right-hand side (and condition) of a rewrite rule. Application
//! preserves hash-consing: identical instantiated subterms intern to the
//! same [`TermId`].

use crate::error::KernelError;
use crate::term::{Term, TermId, TermStore, VarId};

/// A finite map from variables to terms.
///
/// Bindings are kept in one vector sorted by [`VarId`], at most one per
/// variable: a match allocates once, lookups are binary searches,
/// [`Subst::iter`] yields bindings in variable order (deterministic), and
/// equality does not depend on the order variables were bound in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    bindings: Vec<(VarId, TermId)>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// Bind `var` to `term`, returning the previous binding if any.
    pub fn bind(&mut self, var: VarId, term: TermId) -> Option<TermId> {
        match self.bindings.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(i) => Some(std::mem::replace(&mut self.bindings[i].1, term)),
            Err(i) => {
                self.bindings.insert(i, (var, term));
                None
            }
        }
    }

    /// Look up the binding for `var`.
    pub fn get(&self, var: VarId) -> Option<TermId> {
        self.bindings
            .binary_search_by_key(&var, |&(v, _)| v)
            .ok()
            .map(|i| self.bindings[i].1)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterate over bindings in increasing variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, TermId)> + '_ {
        self.bindings.iter().copied()
    }

    /// Apply the substitution to `t`, interning the result in `store`.
    ///
    /// Unbound variables are left in place, so applying a matching
    /// substitution to the rule's right-hand side is total whenever the rule
    /// satisfies the usual `vars(rhs) ⊆ vars(lhs)` condition (enforced at
    /// rule-construction time by `equitls-rewrite`). A subterm the
    /// substitution leaves unchanged is returned as is, without allocating
    /// (see [`TermStore::map_args`]).
    pub fn apply(&self, store: &mut TermStore, t: TermId) -> TermId {
        if self.bindings.is_empty() {
            return t;
        }
        match store.node(t) {
            Term::Var(v) => self.get(*v).unwrap_or(t),
            Term::App { .. } => store
                .map_args(t, |store, a| Ok::<_, KernelError>(self.apply(store, a)))
                .expect("substitution preserves sorts"),
        }
    }
}

impl FromIterator<(VarId, TermId)> for Subst {
    /// Later bindings of the same variable replace earlier ones.
    fn from_iter<I: IntoIterator<Item = (VarId, TermId)>>(iter: I) -> Self {
        let mut subst = Subst::new();
        for (v, t) in iter {
            subst.bind(v, t);
        }
        subst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpAttrs;
    use crate::signature::Signature;

    #[test]
    fn apply_replaces_variables_and_shares_structure() {
        let mut sig = Signature::new();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let f = sig.add_op("f", &[s, s], s, OpAttrs::constructor()).unwrap();
        let mut store = TermStore::new(sig);
        let x = store.declare_var("X", s).unwrap();
        let y = store.declare_var("Y", s).unwrap();
        let xt = store.var(x);
        let yt = store.var(y);
        let pattern = store.app(f, &[xt, yt]).unwrap();
        let cv = store.constant(c);

        let mut sub = Subst::new();
        sub.bind(x, cv);
        sub.bind(y, cv);
        let result = sub.apply(&mut store, pattern);
        let expected = store.app(f, &[cv, cv]).unwrap();
        assert_eq!(result, expected);
    }

    #[test]
    fn unbound_variables_stay_in_place() {
        let mut sig = Signature::new();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let f = sig.add_op("f", &[s, s], s, OpAttrs::constructor()).unwrap();
        let mut store = TermStore::new(sig);
        let x = store.declare_var("X", s).unwrap();
        let y = store.declare_var("Y", s).unwrap();
        let xt = store.var(x);
        let yt = store.var(y);
        let pattern = store.app(f, &[xt, yt]).unwrap();
        let cv = store.constant(c);

        let sub: Subst = [(x, cv)].into_iter().collect();
        let result = sub.apply(&mut store, pattern);
        let expected = store.app(f, &[cv, yt]).unwrap();
        assert_eq!(result, expected);
        assert_eq!(sub.len(), 1);
        assert!(!sub.is_empty());
    }

    #[test]
    fn empty_substitution_is_identity() {
        let mut sig = Signature::new();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let mut store = TermStore::new(sig);
        let cv = store.constant(c);
        let sub = Subst::new();
        assert_eq!(sub.apply(&mut store, cv), cv);
    }
}
