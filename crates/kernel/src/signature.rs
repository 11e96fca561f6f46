//! Signatures: the vocabulary of a specification.
//!
//! A [`Signature`] owns the declared sorts and operators and offers lookup
//! by name. Terms ([`crate::term::TermStore`]) are built against a
//! signature and validated on construction, so every term in the system is
//! well-sorted by construction — the Rust analogue of CafeOBJ's order-sorted
//! type checking.

use crate::error::KernelError;
use crate::op::{OpAttrs, OpDecl, OpId};
use crate::sort::{SortDecl, SortId, SortKind};
use std::collections::HashMap;

/// A registry of sorts and operators.
///
/// # Example
///
/// ```
/// use equitls_kernel::prelude::*;
///
/// let mut sig = Signature::new();
/// let bool_sort = sig.add_visible_sort("Bool")?;
/// let tt = sig.add_constant("true", bool_sort, OpAttrs::constructor())?;
/// assert_eq!(sig.op(tt).name, "true");
/// assert_eq!(sig.sort_by_name("Bool"), Some(bool_sort));
/// # Ok::<(), KernelError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Signature {
    sorts: Vec<SortDecl>,
    ops: Vec<OpDecl>,
    sort_names: HashMap<String, SortId>,
    op_names: HashMap<String, Vec<OpId>>,
}

/// A position in a [`Signature`]'s history, taken by [`Signature::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigMark {
    sorts: usize,
    ops: usize,
}

impl Signature {
    /// An empty signature.
    pub fn new() -> Self {
        Signature::default()
    }

    /// Declare a sort.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::DuplicateSort`] if the name is taken.
    pub fn add_sort(&mut self, name: &str, kind: SortKind) -> Result<SortId, KernelError> {
        if self.sort_names.contains_key(name) {
            return Err(KernelError::DuplicateSort(name.to_string()));
        }
        let id = SortId(self.sorts.len() as u32);
        self.sorts.push(SortDecl {
            name: name.to_string(),
            kind,
        });
        self.sort_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Declare a visible sort (data type).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::DuplicateSort`] if the name is taken.
    pub fn add_visible_sort(&mut self, name: &str) -> Result<SortId, KernelError> {
        self.add_sort(name, SortKind::Visible)
    }

    /// Declare a hidden sort (machine state space).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::DuplicateSort`] if the name is taken.
    pub fn add_hidden_sort(&mut self, name: &str) -> Result<SortId, KernelError> {
        self.add_sort(name, SortKind::Hidden)
    }

    /// Declare an operator.
    ///
    /// Overloading is supported the CafeOBJ way: the same name may be
    /// declared several times with *different argument sort lists* (the
    /// paper overloads `_=_`, `_\in_` and `k` across sorts). Redeclaring a
    /// name with the identical argument sorts is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::DuplicateOp`] if the name is already declared
    /// with the same argument sorts.
    pub fn add_op(
        &mut self,
        name: &str,
        args: &[SortId],
        result: SortId,
        attrs: OpAttrs,
    ) -> Result<OpId, KernelError> {
        if let Some(existing) = self.op_names.get(name) {
            for &id in existing {
                if self.ops[id.index()].args == args {
                    return Err(KernelError::DuplicateOp(name.to_string()));
                }
            }
        }
        let id = OpId(self.ops.len() as u32);
        self.ops.push(OpDecl {
            name: name.to_string(),
            args: args.to_vec(),
            result,
            attrs,
        });
        self.op_names.entry(name.to_string()).or_default().push(id);
        Ok(id)
    }

    /// Declare a constant (nullary operator).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::DuplicateOp`] if the name is taken.
    pub fn add_constant(
        &mut self,
        name: &str,
        sort: SortId,
        attrs: OpAttrs,
    ) -> Result<OpId, KernelError> {
        self.add_op(name, &[], sort, attrs)
    }

    /// Look up a sort by name.
    pub fn sort_by_name(&self, name: &str) -> Option<SortId> {
        self.sort_names.get(name).copied()
    }

    /// Look up an operator by name.
    ///
    /// When the name is overloaded this returns the first declaration; use
    /// [`Signature::resolve_op`] to disambiguate by argument sorts.
    pub fn op_by_name(&self, name: &str) -> Option<OpId> {
        self.op_names.get(name).and_then(|v| v.first().copied())
    }

    /// All declarations sharing `name` (overload set).
    pub fn ops_by_name(&self, name: &str) -> &[OpId] {
        self.op_names.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Resolve an overloaded operator by its exact argument sort list.
    pub fn resolve_op(&self, name: &str, args: &[SortId]) -> Option<OpId> {
        self.ops_by_name(name)
            .iter()
            .copied()
            .find(|&id| self.ops[id.index()].args == args)
    }

    /// The declaration of `sort`.
    ///
    /// # Panics
    ///
    /// Panics if `sort` was issued by a different signature.
    pub fn sort(&self, sort: SortId) -> &SortDecl {
        &self.sorts[sort.index()]
    }

    /// The declaration of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` was issued by a different signature.
    pub fn op(&self, op: OpId) -> &OpDecl {
        &self.ops[op.index()]
    }

    /// Iterate over all declared sorts.
    pub fn sorts(&self) -> impl Iterator<Item = (SortId, &SortDecl)> {
        self.sorts
            .iter()
            .enumerate()
            .map(|(i, d)| (SortId(i as u32), d))
    }

    /// Iterate over all declared operators.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &OpDecl)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, d)| (OpId(i as u32), d))
    }

    /// Number of declared sorts.
    pub fn sort_count(&self) -> usize {
        self.sorts.len()
    }

    /// Number of declared operators.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Record the signature's current size, to [`Signature::rollback`] to.
    pub fn mark(&self) -> SigMark {
        SigMark {
            sorts: self.sorts.len(),
            ops: self.ops.len(),
        }
    }

    /// Remove every sort and operator declared since `mark`, newest first,
    /// together with their name-table entries.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the signature's current size.
    pub fn rollback(&mut self, mark: SigMark) {
        assert!(
            mark.sorts <= self.sorts.len() && mark.ops <= self.ops.len(),
            "Signature::rollback past the signature's current size"
        );
        while self.ops.len() > mark.ops {
            let decl = self.ops.pop().expect("len > mark");
            // The newest op is the last id of its overload set.
            let overloads = self
                .op_names
                .get_mut(&decl.name)
                .expect("declared ops are named");
            overloads.pop();
            if overloads.is_empty() {
                self.op_names.remove(&decl.name);
            }
        }
        for decl in self.sorts.drain(mark.sorts..) {
            self.sort_names.remove(&decl.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Signature, SortId) {
        let mut sig = Signature::new();
        let s = sig.add_visible_sort("Principal").unwrap();
        (sig, s)
    }

    #[test]
    fn duplicate_sort_is_rejected() {
        let (mut sig, _) = tiny();
        assert_eq!(
            sig.add_visible_sort("Principal"),
            Err(KernelError::DuplicateSort("Principal".into()))
        );
    }

    #[test]
    fn duplicate_op_is_rejected() {
        let (mut sig, s) = tiny();
        sig.add_constant("intruder", s, OpAttrs::constructor())
            .unwrap();
        assert_eq!(
            sig.add_constant("intruder", s, OpAttrs::constructor()),
            Err(KernelError::DuplicateOp("intruder".into()))
        );
    }

    #[test]
    fn lookup_by_name_finds_declarations() {
        let (mut sig, s) = tiny();
        let op = sig.add_constant("ca", s, OpAttrs::constructor()).unwrap();
        assert_eq!(sig.sort_by_name("Principal"), Some(s));
        assert_eq!(sig.op_by_name("ca"), Some(op));
        assert_eq!(sig.op_by_name("nope"), None);
        assert_eq!(sig.sort_by_name("nope"), None);
    }

    #[test]
    fn hidden_sorts_are_tracked() {
        let mut sig = Signature::new();
        let h = sig.add_hidden_sort("Protocol").unwrap();
        assert!(sig.sort(h).kind.is_hidden());
        assert_eq!(sig.sort_count(), 1);
    }
}
