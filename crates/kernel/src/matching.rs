//! First-order matching.
//!
//! Rewriting applies equations left-to-right: to rewrite a subject `t` with
//! a rule `l → r`, we look for a substitution `σ` with `σ(l) = t`. Because
//! the subjects reduced in proofs are ground (plus fresh constants), plain
//! matching — not unification — suffices, exactly as in the CafeOBJ `red`
//! command.

use crate::subst::Subst;
use crate::term::{Term, TermId, TermStore};

/// The result of a matching attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchOutcome {
    /// The pattern matches with the contained substitution.
    Matched(Subst),
    /// The pattern does not match.
    Failed,
}

impl MatchOutcome {
    /// Extract the substitution, if any.
    pub fn into_subst(self) -> Option<Subst> {
        match self {
            MatchOutcome::Matched(s) => Some(s),
            MatchOutcome::Failed => None,
        }
    }
}

/// Match `pattern` against `subject`, returning bindings for the pattern's
/// variables.
///
/// Non-linear patterns (a variable occurring twice) are supported: repeated
/// occurrences must bind to the *identical* term, which hash-consing makes a
/// single `TermId` comparison.
pub fn match_term(store: &TermStore, pattern: TermId, subject: TermId) -> MatchOutcome {
    let mut subst = Subst::new();
    if match_into(store, pattern, subject, &mut subst) {
        MatchOutcome::Matched(subst)
    } else {
        MatchOutcome::Failed
    }
}

fn match_into(store: &TermStore, pattern: TermId, subject: TermId, subst: &mut Subst) -> bool {
    match store.node(pattern) {
        Term::Var(v) => {
            // Sort discipline: a variable only matches subjects of its sort.
            if store.var_decl(*v).sort != store.sort_of(subject) {
                return false;
            }
            match subst.get(*v) {
                Some(bound) => bound == subject,
                None => {
                    subst.bind(*v, subject);
                    true
                }
            }
        }
        Term::App { op, args } => match store.node(subject) {
            Term::App {
                op: sop,
                args: sargs,
            } => {
                op == sop
                    && args.len() == sargs.len()
                    && args
                        .iter()
                        .zip(sargs.iter())
                        .all(|(&p, &s)| match_into(store, p, s, subst))
            }
            Term::Var(_) => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpAttrs, OpId};
    use crate::signature::Signature;
    use crate::sort::SortId;

    struct World {
        store: TermStore,
        s: SortId,
        c: OpId,
        d: OpId,
        f: OpId,
        g: OpId,
    }

    fn world() -> World {
        let mut sig = Signature::new();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let f = sig.add_op("f", &[s, s], s, OpAttrs::constructor()).unwrap();
        let g = sig.add_op("g", &[s], s, OpAttrs::constructor()).unwrap();
        World {
            store: TermStore::new(sig),
            s,
            c,
            d,
            f,
            g,
        }
    }

    #[test]
    fn variable_matches_anything_of_its_sort() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let cv = w.store.constant(w.c);
        let gc = w.store.app(w.g, &[cv]).unwrap();
        match match_term(&w.store, xt, gc) {
            MatchOutcome::Matched(sub) => assert_eq!(sub.get(x), Some(gc)),
            MatchOutcome::Failed => panic!("variable should match"),
        }
    }

    #[test]
    fn nonlinear_pattern_requires_identical_subterms() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let pattern = w.store.app(w.f, &[xt, xt]).unwrap();
        let cv = w.store.constant(w.c);
        let dv = w.store.constant(w.d);
        let same = w.store.app(w.f, &[cv, cv]).unwrap();
        let diff = w.store.app(w.f, &[cv, dv]).unwrap();
        assert!(matches!(
            match_term(&w.store, pattern, same),
            MatchOutcome::Matched(_)
        ));
        assert_eq!(match_term(&w.store, pattern, diff), MatchOutcome::Failed);
    }

    #[test]
    fn head_symbol_mismatch_fails() {
        let mut w = world();
        let cv = w.store.constant(w.c);
        let gc = w.store.app(w.g, &[cv]).unwrap();
        let fc = w.store.app(w.f, &[cv, cv]).unwrap();
        assert_eq!(match_term(&w.store, gc, fc), MatchOutcome::Failed);
        assert_eq!(match_term(&w.store, cv, gc), MatchOutcome::Failed);
    }

    #[test]
    fn matching_then_substituting_reproduces_subject() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let y = w.store.declare_var("Y", w.s).unwrap();
        let xt = w.store.var(x);
        let yt = w.store.var(y);
        let pattern = w.store.app(w.f, &[xt, yt]).unwrap();
        let cv = w.store.constant(w.c);
        let dv = w.store.constant(w.d);
        let gd = w.store.app(w.g, &[dv]).unwrap();
        let subject = w.store.app(w.f, &[cv, gd]).unwrap();
        let sub = match_term(&w.store, pattern, subject)
            .into_subst()
            .expect("must match");
        assert_eq!(sub.apply(&mut w.store, pattern), subject);
    }

    #[test]
    fn identical_terms_match_with_empty_subst() {
        let mut w = world();
        let cv = w.store.constant(w.c);
        let gc = w.store.app(w.g, &[cv]).unwrap();
        match match_term(&w.store, gc, gc) {
            MatchOutcome::Matched(sub) => assert!(sub.is_empty()),
            MatchOutcome::Failed => panic!("identical terms must match"),
        }
    }
}
