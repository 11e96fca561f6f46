//! # equitls-tls
//!
//! The abstract TLS handshake protocol of *Equational Approach to Formal
//! Analysis of TLS* (Ogata & Futatsugi, ICDCS 2005), in two guises:
//!
//! * [`symbolic`] — the algebraic model of §3.2/§4: an OTS written in
//!   equations over a CafeOBJ-style specification, with the Dolev–Yao
//!   intruder and the eighteen verified properties. This is what the
//!   inductive prover of `equitls-core` reasons about.
//! * [`concrete`] — an executable Rust semantics of the same protocol:
//!   finite domains, explicit network multisets, and an intruder knowledge
//!   closure. This is what the `equitls-mc` model checker explores to
//!   reproduce the paper's §5.3 counterexamples and to cross-validate the
//!   symbolic proofs in finite scopes.
//!
//! Both models implement the same abstract protocol (Figure 2) under the
//! same assumptions (§3.2): RSA key exchange only, server always sends its
//! certificate (doubling as ServerHelloDone), no client certificates, one
//! trusted CA, ChangeCipherSpec implicit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod concrete;
pub mod mutants;
pub mod symbolic;
pub mod verify;

pub use symbolic::{TlsModel, Variant};
