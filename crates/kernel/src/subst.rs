//! Substitutions: finite maps from variables to terms.
//!
//! A substitution is produced by [`crate::matching::match_term`] and applied
//! to the right-hand side (and condition) of a rewrite rule. Application
//! preserves hash-consing: identical instantiated subterms intern to the
//! same [`TermId`].

use crate::fxhash::FxHashMap;
use crate::term::{Term, TermId, TermStore, VarId};

/// A finite map from variables to terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: FxHashMap<VarId, TermId>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// Bind `var` to `term`, returning the previous binding if any.
    pub fn bind(&mut self, var: VarId, term: TermId) -> Option<TermId> {
        self.map.insert(var, term)
    }

    /// Look up the binding for `var`.
    pub fn get(&self, var: VarId) -> Option<TermId> {
        self.map.get(&var).copied()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over bindings in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, TermId)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }

    /// Apply the substitution to `t`, interning the result in `store`.
    ///
    /// Unbound variables are left in place, so applying a matching
    /// substitution to the rule's right-hand side is total whenever the rule
    /// satisfies the usual `vars(rhs) ⊆ vars(lhs)` condition (enforced at
    /// rule-construction time by `equitls-rewrite`).
    pub fn apply(&self, store: &mut TermStore, t: TermId) -> TermId {
        if self.map.is_empty() {
            return t;
        }
        match store.node(t).clone() {
            Term::Var(v) => self.get(v).unwrap_or(t),
            Term::App { op, args } => {
                if args.is_empty() {
                    return t;
                }
                let new_args: Vec<TermId> = args.iter().map(|&a| self.apply(store, a)).collect();
                if new_args == args {
                    t
                } else {
                    store
                        .app(op, &new_args)
                        .expect("substitution preserves sorts")
                }
            }
        }
    }
}

impl FromIterator<(VarId, TermId)> for Subst {
    fn from_iter<I: IntoIterator<Item = (VarId, TermId)>>(iter: I) -> Self {
        Subst {
            map: iter.into_iter().collect(),
        }
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
