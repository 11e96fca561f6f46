//! Orienting case-analysis assumptions into rewrite rules.
//!
//! §5.2 of the paper makes a subtle point: to assume `sfin1 = sfin2` in a
//! proof passage one does **not** write that single equation — one writes
//! the *nine* component equations (`eq r10 = r1 .`, `eq b1 = intruder .`,
//! …) because "the equation sfin1 = sfin2 can be deduced from the 9
//! equations by rewriting, but the nine equations cannot be deduced from
//! the one equation by rewriting".
//!
//! [`orient_equation`] mechanizes exactly that step. Given an equality the
//! prover wants to assume true, it decomposes constructor applications
//! (injectivity), orients arbitrary-constant sides into substitutions
//! (`b1 → intruder`), and falls back to an `atom → true` rule when no
//! orientation is possible.

use crate::bool_alg::BoolAlg;
use equitls_kernel::prelude::*;

/// An oriented assumption: use `lhs → rhs` as a rewrite rule.
pub type OrientedEq = (TermId, TermId);

/// Decompose and orient the assumption `lhs = rhs` (assumed **true**).
///
/// Returns the list of oriented equations to install, in the spirit of the
/// paper's nine component equations. The cases, in order:
///
/// 1. identical sides — nothing to assume;
/// 2. both sides headed by the same free constructor — recurse into the
///    arguments (injectivity);
/// 3. one side an arbitrary constant not occurring in the other — orient
///    the constant into the other side (a substitution);
/// 4. otherwise — rewrite the canonical equality atom to `true`.
///
/// # Errors
///
/// Propagates kernel errors from equality-atom construction.
pub fn orient_equation(
    store: &mut TermStore,
    alg: &mut BoolAlg,
    lhs: TermId,
    rhs: TermId,
) -> Result<Vec<OrientedEq>, KernelError> {
    let mut out = Vec::new();
    orient_into(store, alg, lhs, rhs, &mut out)?;
    Ok(out)
}

/// A value: built exclusively from free constructors and arbitrary
/// constants (hence irreducible by any terminating rule set).
pub fn is_value(store: &TermStore, t: TermId) -> bool {
    if store.is_arbitrary_constant(t) {
        return true;
    }
    if !store.is_constructor_headed(t) {
        return false;
    }
    store.args(t).iter().all(|&a| is_value(store, a))
}

fn orient_into(
    store: &mut TermStore,
    alg: &mut BoolAlg,
    lhs: TermId,
    rhs: TermId,
    out: &mut Vec<OrientedEq>,
) -> Result<(), KernelError> {
    if lhs == rhs {
        return Ok(());
    }
    // Injectivity decomposition.
    if store.is_constructor_headed(lhs)
        && store.is_constructor_headed(rhs)
        && store.op_of(lhs) == store.op_of(rhs)
    {
        let largs: Vec<TermId> = store.args(lhs).to_vec();
        let rargs: Vec<TermId> = store.args(rhs).to_vec();
        for (&l, &r) in largs.iter().zip(rargs.iter()) {
            orient_into(store, alg, l, r, out)?;
        }
        return Ok(());
    }
    // Substitution orientation. Between two arbitrary constants the
    // direction is canonical (larger TermId rewrites to smaller), so
    // assumption sets can never contain an orientation cycle.
    if store.is_arbitrary_constant(lhs) && store.is_arbitrary_constant(rhs) {
        let (from, to) = if lhs > rhs { (lhs, rhs) } else { (rhs, lhs) };
        push_unique(out, (from, to));
        return Ok(());
    }
    if store.is_arbitrary_constant(lhs) && !store.occurs_in(lhs, rhs) {
        push_unique(out, (lhs, rhs));
        return Ok(());
    }
    if store.is_arbitrary_constant(rhs) && !store.occurs_in(rhs, lhs) {
        push_unique(out, (rhs, lhs));
        return Ok(());
    }
    // A stuck application equal to a *value* (a term built only from
    // constructors and arbitrary constants) rewrites to the value:
    // `holder(s) = n1` installs `holder(s) → n1`, and the TLS proofs use
    // `pl(epms(m)) = pms(a,b,s)` the same way. Terminating: values are
    // irreducible.
    let lhs_value = is_value(store, lhs);
    let rhs_value = is_value(store, rhs);
    if rhs_value && !lhs_value && !store.occurs_in(lhs, rhs) {
        push_unique(out, (lhs, rhs));
        return Ok(());
    }
    if lhs_value && !rhs_value && !store.occurs_in(rhs, lhs) {
        push_unique(out, (rhs, lhs));
        return Ok(());
    }
    // Fallback: assert the canonical atom.
    let (a, b) = if lhs <= rhs { (lhs, rhs) } else { (rhs, lhs) };
    let atom = alg.eq(store, a, b)?;
    let tt = alg.tt(store);
    push_unique(out, (atom, tt));
    Ok(())
}

fn push_unique(out: &mut Vec<OrientedEq>, eq: OrientedEq) {
    if !out.contains(&eq) {
        out.push(eq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct World {
        store: TermStore,
        alg: BoolAlg,
        intruder: TermId,
        pms: OpId,
    }

    fn world() -> World {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let prin = sig.add_visible_sort("Principal").unwrap();
        let secret = sig.add_visible_sort("Secret").unwrap();
        let pms_sort = sig.add_visible_sort("Pms").unwrap();
        let intruder_op = sig
            .add_constant("intruder", prin, OpAttrs::constructor())
            .unwrap();
        let pms = sig
            .add_op(
                "pms",
                &[prin, prin, secret],
                pms_sort,
                OpAttrs::constructor(),
            )
            .unwrap();
        let mut store = TermStore::new(sig);
        let intruder = store.constant(intruder_op);
        World {
            store,
            alg,
            intruder,
            pms,
        }
    }

    #[test]
    fn identical_sides_produce_nothing() {
        let mut w = world();
        let eqs = orient_equation(&mut w.store, &mut w.alg, w.intruder, w.intruder).unwrap();
        assert!(eqs.is_empty());
    }

    #[test]
    fn constructor_sides_decompose_like_the_papers_nine_equations() {
        let mut w = world();
        let prin = w.store.signature().sort_by_name("Principal").unwrap();
        let secret = w.store.signature().sort_by_name("Secret").unwrap();
        let a = w.store.fresh_constant("a", prin);
        let b1 = w.store.fresh_constant("b1", prin);
        let s = w.store.fresh_constant("s", secret);
        let s0 = w.store.fresh_constant("s0", secret);
        let t1 = w.store.app(w.pms, &[a, b1, s]).unwrap();
        let t2 = w.store.app(w.pms, &[a, w.intruder, s0]).unwrap();
        let eqs = orient_equation(&mut w.store, &mut w.alg, t1, t2).unwrap();
        // a = a drops; b1 -> intruder and s/s0 orient.
        assert_eq!(eqs.len(), 2);
        assert!(eqs.contains(&(b1, w.intruder)));
        assert!(eqs.contains(&(s, s0)) || eqs.contains(&(s0, s)));
    }

    #[test]
    fn arbitrary_constant_orients_toward_the_other_side() {
        let mut w = world();
        let prin = w.store.signature().sort_by_name("Principal").unwrap();
        let b1 = w.store.fresh_constant("b1", prin);
        let eqs = orient_equation(&mut w.store, &mut w.alg, w.intruder, b1).unwrap();
        assert_eq!(eqs, vec![(b1, w.intruder)]);
    }

    #[test]
    fn unorientable_pairs_assert_the_atom() {
        let mut w = world();
        let prin = w.store.signature().sort_by_name("Principal").unwrap();
        // A defined projection makes both sides non-arbitrary, non-ctor.
        let f = w
            .store
            .signature_mut()
            .add_op("f", &[prin], prin, OpAttrs::defined())
            .unwrap();
        let a = w.store.fresh_constant("a", prin);
        let fa = w.store.app(f, &[a]).unwrap();
        let fb = {
            let b = w.store.fresh_constant("b", prin);
            w.store.app(f, &[b]).unwrap()
        };
        let eqs = orient_equation(&mut w.store, &mut w.alg, fa, fb).unwrap();
        assert_eq!(eqs.len(), 1);
        let (atom, tt) = eqs[0];
        assert_eq!(tt, w.alg.tt(&mut w.store));
        assert!(w.alg.is_eq_op(w.store.op_of(atom).unwrap()));
    }

    #[test]
    fn occurs_check_falls_back_to_atom() {
        let mut w = world();
        let pms_sort = w.store.signature().sort_by_name("Pms").unwrap();
        let wrap = w
            .store
            .signature_mut()
            .add_op("wrap", &[pms_sort], pms_sort, OpAttrs::constructor())
            .unwrap();
        let x = w.store.fresh_constant("x", pms_sort);
        let wx = w.store.app(wrap, &[x]).unwrap();
        // x = wrap(x): cannot substitute x -> wrap(x) (divergence);
        // orient_equation must fall back to the atom form.
        let eqs = orient_equation(&mut w.store, &mut w.alg, x, wx).unwrap();
        assert_eq!(eqs.len(), 1);
        let (atom, _) = eqs[0];
        assert!(w.alg.is_eq_op(w.store.op_of(atom).unwrap()));
    }
}
