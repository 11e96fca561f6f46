//! The concrete executable protocol semantics.
//!
//! Finite-domain Rust data mirroring the symbolic model, used for
//! simulation (the quickstart example) and for model checking (the
//! `equitls-mc` crate): states, messages, the Dolev–Yao knowledge closure,
//! transition enumeration, and the property monitors of §5.
//!
//! The split between symbolic and concrete models is deliberate: the
//! symbolic model supports *unbounded* proofs by induction; the concrete
//! model supports *bounded* exhaustive search that finds the §5.3
//! counterexamples and cross-validates the proofs in finite scopes.

pub mod codec;
pub mod data;
pub mod knowledge;
pub mod msg;
pub mod props;
pub mod state;
pub mod step;

pub use data::{
    Cert, Choice, ChoiceList, FinHash, FinKind, Pms, Prin, Rand, Secret, Session, Sid, Sig, SymKey,
};
pub use knowledge::Knowledge;
pub use msg::{Body, Msg};
pub use state::State;
pub use step::{apply, moves, successors, Scope, Step};
