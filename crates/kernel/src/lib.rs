//! # equitls-kernel
//!
//! The order-sorted term kernel underlying the EquiTLS reproduction of
//! *Equational Approach to Formal Analysis of TLS* (Ogata & Futatsugi,
//! ICDCS 2005).
//!
//! The paper specifies distributed systems in CafeOBJ, an algebraic
//! specification language whose basic objects are **sorts** (visible sorts
//! for data, hidden sorts for state spaces), **operators** (`op` for data
//! constructors and functions, `bop` for observation and action operators),
//! and **terms** built from them. This crate provides those objects for the
//! rest of the workspace:
//!
//! * [`sort`] — sort identifiers and kinds (visible / hidden),
//! * [`op`] — operator declarations with attributes (constructor, observer,
//!   action, projection),
//! * [`signature`] — a registry of sorts and operators with well-formedness
//!   checks,
//! * [`term`] — hash-consed terms stored in a [`term::TermStore`] arena,
//!   with mark/rollback for proof passages,
//! * [`subst`] — substitutions mapping variables to terms,
//! * [`matching`] — first-order matching of rule patterns against subjects,
//! * [`unify`] — syntactic unification and position utilities for
//!   critical-pair analysis,
//! * [`display`] — human-readable CafeOBJ-flavoured printing,
//! * [`fxhash`] — the fast hasher for tables keyed by dense ids.
//!
//! # Example
//!
//! Build the signature fragment for pre-master secrets (`pms(a, b, s)` from
//! §4.2 of the paper) and construct a term:
//!
//! ```
//! use equitls_kernel::prelude::*;
//!
//! let mut sig = Signature::new();
//! let principal = sig.add_visible_sort("Principal")?;
//! let secret = sig.add_visible_sort("Secret")?;
//! let pms_sort = sig.add_visible_sort("Pms")?;
//! let intruder = sig.add_constant("intruder", principal, OpAttrs::constructor())?;
//! let ca = sig.add_constant("ca", principal, OpAttrs::constructor())?;
//! let s0 = sig.add_constant("s0", secret, OpAttrs::constructor())?;
//! let pms = sig.add_op("pms", &[principal, principal, secret], pms_sort,
//!                      OpAttrs::constructor())?;
//!
//! let mut store = TermStore::new(sig);
//! let a = store.constant(intruder);
//! let b = store.constant(ca);
//! let s = store.constant(s0);
//! let t = store.app(pms, &[a, b, s])?;
//! assert_eq!(store.display(t).to_string(), "pms(intruder,ca,s0)");
//! # Ok::<(), equitls_kernel::KernelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod display;
pub mod error;
pub mod fxhash;
pub mod matching;
pub mod op;
pub mod signature;
pub mod sort;
pub mod subst;
pub mod term;
pub mod unify;

pub use error::KernelError;

/// Convenient re-exports of the kernel's most used items.
pub mod prelude {
    pub use crate::error::KernelError;
    pub use crate::matching::{match_term, MatchOutcome};
    pub use crate::op::{OpAttrs, OpDecl, OpId, OpKind};
    pub use crate::signature::{SigMark, Signature};
    pub use crate::sort::{SortId, SortKind};
    pub use crate::subst::Subst;
    pub use crate::term::{StoreMark, Term, TermId, TermStore, VarDecl, VarId};
    pub use crate::unify::{
        apply_to_fixpoint, function_positions, replace_at, unify, UnifyOutcome,
    };
}
