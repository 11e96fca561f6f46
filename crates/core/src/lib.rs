//! # equitls-core
//!
//! The OTS/CafeOBJ method — the primary contribution of *Equational
//! Approach to Formal Analysis of TLS* (Ogata & Futatsugi, ICDCS 2005) —
//! reconstructed in Rust.
//!
//! The method models a distributed system as an **observational transition
//! system** (OTS) written in equations, and verifies invariants by writing
//! **proof scores**: case analyses whose leaves are reductions of Boolean
//! terms to `true`. This crate supplies:
//!
//! * [`ots`] — OTS structure (observers, actions, initial state) collected
//!   from an `equitls-spec` specification;
//! * [`invariant`] — invariant templates (`inv_i`) and their registry;
//! * [`prover`] — the mechanized proof-score search: simultaneous
//!   induction over all transitions, automatic case splitting on blocked
//!   effective conditions, equality orientation (the paper's "nine
//!   equations"), and lemma strengthening of induction hypotheses;
//! * [`ledger`] — the crash-safe obligation ledger: per-obligation
//!   outcomes snapshotted at obligation boundaries so an interrupted
//!   campaign resumes without re-proving discharged obligations;
//! * [`report`] — per-invariant proof statistics (passages, splits,
//!   rewrites, time), the machine-checked analogue of the paper's effort
//!   figures;
//! * [`score`] — rendering discharged cases as CafeOBJ-style
//!   `open … close` proof passages for direct comparison with §5.2.
//!
//! # Example
//!
//! A one-bit machine whose flag can only be set, with the invariant that
//! the flag never goes from set to unset (trivially preserved):
//!
//! ```
//! use equitls_core::prelude::*;
//! use equitls_spec::prelude::*;
//!
//! let mut spec = Spec::new()?;
//! spec.begin_module("FLAG");
//! spec.hidden_sort("Sys")?;
//! spec.op("init", &[], "Sys", equitls_kernel::op::OpAttrs::defined())?;
//! spec.observer("flag", &["Sys"], "Bool")?;
//! spec.action("set", &["Sys"], "Sys")?;
//! let alg = spec.alg().clone();
//! let init = spec.parse_term("init")?;
//! let flag_init = spec.app("flag", &[init])?;
//! let ff = alg.ff(spec.store_mut());
//! let tt = alg.tt(spec.store_mut());
//! spec.eq("flag-init", flag_init, ff)?;
//! let s = spec.var("S", "Sys")?;
//! let set_s = spec.app("set", &[s])?;
//! let flag_set = spec.app("flag", &[set_s])?;
//! spec.eq("flag-set", flag_set, tt)?;
//!
//! let ots = Ots::from_spec(&mut spec, "Sys", "init")?;
//! // Invariant: flag(p) or not flag(p) — a tautology, provable with no
//! // case splits.
//! let sys = spec.sort_id("Sys")?;
//! let p = spec.store_mut().declare_var("P", sys)?;
//! let pv = spec.store_mut().var(p);
//! let flag_p = spec.app("flag", &[pv])?;
//! let not_flag = alg.not(spec.store_mut(), flag_p)?;
//! let body = alg.or(spec.store_mut(), flag_p, not_flag)?;
//! let inv = Invariant::new(&spec, "taut", p, vec![], body)?;
//! let mut set = InvariantSet::new();
//! set.push(inv);
//! let mut prover = Prover::new(&mut spec, &ots, &set);
//! let report = prover.prove("taut", ProofMethod::Induction, &[])?;
//! assert!(report.is_proved());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod invariant;
pub mod ledger;
pub mod ots;
pub mod prover;
pub mod report;
pub mod score;

pub use error::CoreError;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::error::CoreError;
    pub use crate::invariant::{Invariant, InvariantSet};
    pub use crate::ledger::{Ledger, LedgerEntry};
    pub use crate::ots::{Action, Observer, Ots};
    pub use crate::prover::{resolve_jobs, ProofMethod, Prover, ProverConfig};
    pub use crate::report::{
        CaseOutcome, Decision, OpenCase, ProofReport, ProverMetrics, StepReport,
    };
    pub use crate::score::{
        render_passage, render_recorded_scores, render_report_table, render_step_table,
    };
}
