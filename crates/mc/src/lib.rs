//! # equitls-mc
//!
//! An explicit-state bounded model checker for the concrete TLS handshake
//! model — the Murφ-style baseline of the paper's related work (§6,
//! Mitchell, Shmatikov & Stern's finite-state analysis of SSL 3.0),
//! rebuilt as a generic breadth-first explorer.
//!
//! Three roles in the reproduction:
//!
//! * **counterexamples** — [`scenario`] replays the paper's §5.3 traces
//!   refuting properties 2′ and 3′ step-by-step through the machine, and
//!   [`explorer`] finds violations by search;
//! * **cross-validation** — [`check`] runs the §5 monitors over bounded
//!   scopes: properties 1–5 hold, 2′/3′ fail, matching the equational
//!   verdicts of `equitls-core`;
//! * **baseline** — the states/depth tables of the benches compare the
//!   search-based approach against proof scores, mirroring the paper's
//!   discussion of the two methods.
//!
//! # Example
//!
//! ```
//! use equitls_mc::prelude::*;
//! use equitls_obs::sink::Obs;
//! use equitls_tls::concrete::Scope;
//!
//! let mut scope = Scope::counterexample();
//! scope.max_messages = 2;
//! let limits = Limits { max_states: 20_000, max_depth: 2 };
//! let result = check_scope_config_obs(&scope, &limits, 1, &ExploreConfig::default(), &Obs::noop());
//! assert!(result.violation("prop1-pms-secrecy").is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod explorer;
pub mod model;
pub mod scenario;
pub mod visited;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::check::{check_scope_config_obs, check_scope_resume_obs, expected_outcomes};
    pub use crate::explorer::{
        explore_resume_with_config_jobs, explore_with_config_jobs, resolve_jobs, Exploration,
        ExploreConfig, Limits, Violation,
    };
    pub use crate::model::{Model, TlsMachine};
    pub use crate::scenario::{counterexample_2prime, counterexample_3prime, render_trace, Replay};
    pub use crate::visited::{SpillStats, VisitedStore};
    pub use equitls_persist::PersistError;
    pub use equitls_rewrite::budget::{
        Budget, CancelToken, Fault, FaultKind, FaultPlan, FaultSite, StopReason, WorkerFault,
    };
}
