//! # EquiTLS
//!
//! A from-scratch Rust reproduction of **“Equational Approach to Formal
//! Analysis of TLS”** (Kazuhiro Ogata & Kokichi Futatsugi, ICDCS 2005).
//!
//! The paper analyzes an abstract model of the TLS handshake protocol with
//! the **OTS/CafeOBJ method**: the protocol (together with a Dolev–Yao
//! intruder) is modeled as an *observational transition system* written in
//! equations, and invariants are verified by *proof scores* — case
//! analyses whose leaves are reductions of Boolean terms to `true`.
//!
//! EquiTLS rebuilds the entire stack:
//!
//! | crate | role |
//! |-------|------|
//! | [`kernel`] | order-sorted terms, signatures, hash-consing, matching |
//! | [`rewrite`] | the rewriting engine + Boolean rings (complete propositional reasoning) + free-constructor equality |
//! | [`spec`] | CafeOBJ-style modules, proof passages, and a surface DSL |
//! | [`core`] | the OTS framework and the mechanized proof-score prover |
//! | [`tls`] | the abstract TLS handshake model (symbolic and concrete) and the 18 verified properties |
//! | [`mc`] | a Murφ-style bounded model checker reproducing the §5.3 counterexamples |
//! | [`lint`] | static analysis of rewrite systems: termination (LPO), local confluence (critical pairs), sufficient completeness |
//! | [`obs`] | zero-dependency tracing/metrics: event sinks, JSONL traces, summary tables |
//! | [`persist`] | crash-safe checkpoint snapshots: versioned, CRC-checked, atomically written |
//! | [`serve`] | a supervised, always-warm verification daemon: bounded admission, graceful degradation, crash-resumable job queues |
//!
//! # Quick start
//!
//! Prove the paper's first property — pre-master secrets cannot be leaked:
//!
//! ```
//! use equitls::core::prelude::ProverConfig;
//! use equitls::obs::sink::Obs;
//! use equitls::tls::verify::verify_property_opts;
//! use equitls::tls::TlsModel;
//!
//! let mut model = TlsModel::standard()?;
//! let report = verify_property_opts(&mut model, "inv1", &ProverConfig::default(), &Obs::noop())?;
//! assert!(report.is_proved());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Reproduce the paper's counterexample to ClientFinished authenticity
//! (property 2′, §5.3):
//!
//! ```
//! use equitls::mc::prelude::counterexample_2prime;
//!
//! let replay = counterexample_2prime().expect("the paper's trace replays");
//! assert_eq!(replay.trace.len(), 6);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! per-experiment reproduction notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use equitls_core as core;
pub use equitls_kernel as kernel;
pub use equitls_lint as lint;
pub use equitls_mc as mc;
pub use equitls_obs as obs;
pub use equitls_persist as persist;
pub use equitls_rewrite as rewrite;
pub use equitls_serve as serve;
pub use equitls_spec as spec;
pub use equitls_tls as tls;
