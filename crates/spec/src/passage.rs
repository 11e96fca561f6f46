//! Proof passages: the paper's `open … close` blocks.
//!
//! A proof passage (§2.4, §5.2) temporarily extends a specification with
//! *arbitrary objects* (fresh constants) and *assumption equations*, then
//! reduces a goal with `red`. Dropping the [`ProofPassage`] discards the
//! assumptions, like CafeOBJ's `close`.
//!
//! ```
//! use equitls_spec::prelude::*;
//!
//! let mut spec = Spec::new()?;
//! spec.begin_module("M");
//! spec.visible_sort("Prin")?;
//! spec.constructor("intruder", &[], "Prin")?;
//!
//! let mut passage = ProofPassage::open(&mut spec);
//! let b1 = passage.declare("b1", "Prin")?;          // op b1 : -> Prin .
//! let intruder = passage.spec().const_term("intruder")?;
//! passage.assume_equal(b1, intruder)?;              // eq b1 = intruder .
//! let goal = passage.spec().eq_term(b1, intruder)?;
//! assert!(passage.proves(goal)?);                   // red b1 = intruder .
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::SpecError;
use crate::spec::Spec;
use equitls_kernel::prelude::*;
use equitls_rewrite::assumption::orient_equation;
use equitls_rewrite::prelude::*;

/// An open proof passage over a specification.
pub struct ProofPassage<'a> {
    spec: &'a mut Spec,
    norm: Normalizer,
    assumption_count: usize,
}

impl<'a> ProofPassage<'a> {
    /// Open a passage: a fresh normalizer sharing the specification's
    /// rule base.
    pub fn open(spec: &'a mut Spec) -> Self {
        let norm = spec.normalizer();
        ProofPassage {
            spec,
            norm,
            assumption_count: 0,
        }
    }

    /// Access the underlying specification (to build terms).
    pub fn spec(&mut self) -> &mut Spec {
        self.spec
    }

    /// Declare an arbitrary constant (`op b10 : -> Prin .`).
    ///
    /// If a constant of that name and sort already exists (a previous
    /// passage declared it), it is reused.
    ///
    /// # Errors
    ///
    /// Unknown sort, or the name exists with a different sort.
    pub fn declare(&mut self, name: &str, sort: &str) -> Result<TermId, SpecError> {
        let sort_id = self.spec.sort_id(sort)?;
        // Reuse an existing arbitrary constant of the right sort.
        let existing = self
            .spec
            .store()
            .signature()
            .ops_by_name(name)
            .iter()
            .copied()
            .find(|&id| {
                let decl = self.spec.store().signature().op(id);
                decl.is_constant() && decl.result == sort_id
            });
        if let Some(op) = existing {
            return Ok(self.spec.store_mut().constant(op));
        }
        Ok(self.spec.store_mut().arbitrary_constant(name, sort_id)?)
    }

    /// Assume `lhs = rhs` (true), decomposing it into oriented equations —
    /// the paper's "nine equations" treatment of `sfin1 = sfin2`.
    ///
    /// # Errors
    ///
    /// Kernel/rewrite errors from orientation or rule installation.
    pub fn assume_equal(&mut self, lhs: TermId, rhs: TermId) -> Result<(), SpecError> {
        let mut alg = self.spec.alg().clone();
        let oriented = orient_equation(self.spec.store_mut(), &mut alg, lhs, rhs)?;
        *self.spec.alg_mut() = alg;
        for (l, r) in oriented {
            self.assumption_count += 1;
            let label = format!("assume#{}", self.assumption_count);
            self.norm.assume(self.spec.store(), label, l, r)?;
        }
        Ok(())
    }

    /// Assume a Bool-sorted term is **false**
    /// (`eq (b = intruder) = false .`).
    ///
    /// The term is normalized first so that the installed rule targets the
    /// canonical atom.
    ///
    /// # Errors
    ///
    /// Kernel/rewrite errors; also an error when the term normalizes to
    /// `true` (contradictory assumption).
    pub fn assume_false(&mut self, t: TermId) -> Result<(), SpecError> {
        let n = self.norm.normalize(self.spec.store_mut(), t)?;
        let alg = self.spec.alg().clone();
        match alg.as_constant(self.spec.store(), n) {
            Some(false) => Ok(()),
            Some(true) => Err(SpecError::Rewrite(RewriteError::InvalidRule {
                label: "assume_false".into(),
                reason: "assumption contradicts the specification (term is true)".into(),
            })),
            None => {
                let ff = alg.ff(self.spec.store_mut());
                self.assumption_count += 1;
                let label = format!("assume#{}", self.assumption_count);
                self.norm.assume(self.spec.store(), label, n, ff)?;
                Ok(())
            }
        }
    }

    /// Assume a Bool-sorted term is **true**.
    ///
    /// Equality terms route through [`ProofPassage::assume_equal`] so they
    /// orient into substitutions where possible.
    ///
    /// # Errors
    ///
    /// Kernel/rewrite errors; also an error when the term normalizes to
    /// `false`.
    pub fn assume_true(&mut self, t: TermId) -> Result<(), SpecError> {
        let n = self.norm.normalize(self.spec.store_mut(), t)?;
        let alg = self.spec.alg().clone();
        match alg.as_constant(self.spec.store(), n) {
            Some(true) => Ok(()),
            Some(false) => Err(SpecError::Rewrite(RewriteError::InvalidRule {
                label: "assume_true".into(),
                reason: "assumption contradicts the specification (term is false)".into(),
            })),
            None => {
                if let Some(op) = self.spec.store().op_of(n) {
                    if alg.is_eq_op(op) {
                        let args: Vec<TermId> = self.spec.store().args(n).to_vec();
                        return self.assume_equal(args[0], args[1]);
                    }
                }
                let tt = alg.tt(self.spec.store_mut());
                self.assumption_count += 1;
                let label = format!("assume#{}", self.assumption_count);
                self.norm.assume(self.spec.store(), label, n, tt)?;
                Ok(())
            }
        }
    }

    /// Reduce a term under the passage's assumptions — `red t .`.
    ///
    /// # Errors
    ///
    /// Rewriting errors (fuel).
    pub fn red(&mut self, t: TermId) -> Result<TermId, SpecError> {
        Ok(self.norm.normalize(self.spec.store_mut(), t)?)
    }

    /// Reduce and test for `true`.
    ///
    /// # Errors
    ///
    /// Rewriting errors (fuel).
    pub fn proves(&mut self, t: TermId) -> Result<bool, SpecError> {
        Ok(self.norm.proves(self.spec.store_mut(), t)?)
    }

    /// Rewriting statistics accumulated in this passage.
    pub fn stats(&self) -> RewriteStats {
        self.norm.stats()
    }

    /// Conditions that blocked conditional rules during reductions.
    pub fn take_blocked(&mut self) -> Vec<TermId> {
        self.norm.take_blocked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tls_fragment() -> Spec {
        let mut spec = Spec::new().unwrap();
        spec.begin_module("FRAG");
        spec.visible_sort("Prin").unwrap();
        spec.visible_sort("Secret").unwrap();
        spec.visible_sort("Pms").unwrap();
        spec.constructor("intruder", &[], "Prin").unwrap();
        spec.constructor("ca", &[], "Prin").unwrap();
        spec.constructor("pms", &["Prin", "Prin", "Secret"], "Pms")
            .unwrap();
        spec.defined_op("client", &["Pms"], "Prin").unwrap();
        let a = spec.var("A", "Prin").unwrap();
        let b = spec.var("B", "Prin").unwrap();
        let s = spec.var("S", "Secret").unwrap();
        let pmsv = spec.app("pms", &[a, b, s]).unwrap();
        let client = spec.app("client", &[pmsv]).unwrap();
        spec.eq("client-proj", client, a).unwrap();
        spec
    }

    #[test]
    fn passage_declares_and_reuses_constants() {
        let mut spec = tls_fragment();
        let mut p = ProofPassage::open(&mut spec);
        let b10 = p.declare("b10", "Prin").unwrap();
        let again = p.declare("b10", "Prin").unwrap();
        assert_eq!(b10, again);
        assert!(p.declare("b10", "Secret").is_err());
    }

    #[test]
    fn assumptions_drive_projection_rewrites() {
        let mut spec = tls_fragment();
        let mut p = ProofPassage::open(&mut spec);
        let a10 = p.declare("a10", "Prin").unwrap();
        let s10 = p.declare("s10", "Secret").unwrap();
        let intruder = p.spec().const_term("intruder").unwrap();
        let pmsv = p.spec().app("pms", &[a10, intruder, s10]).unwrap();
        let client = p.spec().app("client", &[pmsv]).unwrap();
        // client(pms(a10, intruder, s10)) reduces to a10 by the projection.
        assert_eq!(p.red(client).unwrap(), a10);
        // Assuming a10 = intruder rewrites it further.
        p.assume_equal(a10, intruder).unwrap();
        assert_eq!(p.red(client).unwrap(), intruder);
    }

    #[test]
    fn assume_false_kills_an_equality_atom() {
        let mut spec = tls_fragment();
        let mut p = ProofPassage::open(&mut spec);
        let a10 = p.declare("a10", "Prin").unwrap();
        let intruder = p.spec().const_term("intruder").unwrap();
        let atom = p.spec().eq_term(a10, intruder).unwrap();
        p.assume_false(atom).unwrap();
        let alg = p.spec().alg().clone();
        let n = p.red(atom).unwrap();
        assert_eq!(alg.as_constant(p.spec().store(), n), Some(false));
    }

    #[test]
    fn contradictory_assumptions_are_rejected() {
        let mut spec = tls_fragment();
        let mut p = ProofPassage::open(&mut spec);
        let intruder = p.spec().const_term("intruder").unwrap();
        let ca = p.spec().const_term("ca").unwrap();
        let atom = p.spec().eq_term(intruder, ca).unwrap();
        // intruder = ca is decidably false; assuming it true must fail.
        assert!(p.assume_true(atom).is_err());
        let refl = p.spec().eq_term(ca, ca).unwrap();
        assert!(p.assume_false(refl).is_err());
    }

    #[test]
    fn closing_a_passage_discards_assumptions() {
        let mut spec = tls_fragment();
        let intruder = spec.const_term("intruder").unwrap();
        let a10 = {
            let mut p = ProofPassage::open(&mut spec);
            let a10 = p.declare("a10", "Prin").unwrap();
            p.assume_equal(a10, intruder).unwrap();
            let n = p.red(a10).unwrap();
            assert_eq!(n, intruder);
            a10
        };
        // After close, a fresh passage no longer rewrites a10.
        let mut p2 = ProofPassage::open(&mut spec);
        assert_eq!(p2.red(a10).unwrap(), a10);
    }

    #[test]
    fn assume_true_on_non_equality_installs_atom_rule() {
        let mut spec = tls_fragment();
        spec.defined_op("good?", &["Prin"], "Bool").unwrap();
        let mut p = ProofPassage::open(&mut spec);
        let a10 = p.declare("a10", "Prin").unwrap();
        let atom = p.spec().app("good?", &[a10]).unwrap();
        p.assume_true(atom).unwrap();
        assert!(p.proves(atom).unwrap());
    }
}
