//! # equitls-rewrite
//!
//! The rewriting engine of the EquiTLS reproduction of *Equational Approach
//! to Formal Analysis of TLS* (Ogata & Futatsugi, ICDCS 2005).
//!
//! The paper's proofs are all of the form: *write equations, then ask the
//! CafeOBJ `red` command to rewrite a Boolean term to `true`*. Three pieces
//! cooperate to make that decision procedure work, and this crate provides
//! all three:
//!
//! * [`rule`] / [`engine`] — equations used as left-to-right (conditional)
//!   rewrite rules, applied innermost-first with discrimination-tree
//!   candidate indexing, bounded memoization, and fuel-bounded
//!   termination;
//! * [`boolring`] — the Boolean-ring (GF(2) polynomial) normal form that
//!   makes propositional reasoning *complete*: any propositional tautology
//!   rewrites to `true` and any contradiction to `false`. This is the
//!   Hsiang–Dershowitz result the paper cites as \[5\] for the `BOOL` module;
//! * [`equality`] — the free-constructor equality procedure that decides
//!   `t1 = t2` for constructor terms (reflexivity, constructor clash,
//!   injectivity) and leaves everything else as a symbolic atom, which is
//!   how the paper's "perfect cryptosystem" assumption becomes executable.
//!
//! The [`engine::Normalizer`] additionally supports **assumptions** — the
//! equations declared inside a proof passage (`eq b1 = intruder .`) — and
//! reports **blocked conditions**: conditional rules whose condition could
//! not be decided, which is precisely the information an inductive prover
//! needs to choose its next case split.
//!
//! # Example: a propositional tautology reduces to `true`
//!
//! ```
//! use equitls_kernel::prelude::*;
//! use equitls_rewrite::prelude::*;
//!
//! let mut sig = Signature::new();
//! let alg = BoolAlg::install(&mut sig)?;
//! let mut store = TermStore::new(sig);
//! // Peirce's law: ((p -> q) -> p) -> p
//! let p = store.fresh_constant("p", alg.sort());
//! let q = store.fresh_constant("q", alg.sort());
//! let pq = alg.implies(&mut store, p, q)?;
//! let pqp = alg.implies(&mut store, pq, p)?;
//! let peirce = alg.implies(&mut store, pqp, p)?;
//!
//! let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
//! assert!(norm.proves(&mut store, peirce)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assumption;
pub mod bool_alg;
pub mod bool_rules;
pub mod boolring;
pub mod budget;
pub mod engine;
pub mod equality;
pub mod error;
pub mod rule;

pub use error::RewriteError;

/// Convenient re-exports of the engine's most used items.
pub mod prelude {
    pub use crate::assumption::{orient_equation, OrientedEq};
    pub use crate::bool_alg::BoolAlg;
    pub use crate::bool_rules::hd_bool_rules;
    pub use crate::boolring::Poly;
    pub use crate::budget::{
        Budget, CancelToken, Fault, FaultKind, FaultPlan, FaultSite, StopReason, WorkerFault,
    };
    pub use crate::engine::{EngineCounters, Normalizer, RewriteStats, RuleProfile};
    pub use crate::equality::EqVerdict;
    pub use crate::error::RewriteError;
    pub use crate::rule::{validate_rule, PathIndex, Rule, RuleDefect, RuleSet};
}
