//! # equitls-spec
//!
//! CafeOBJ-style specification layer for the EquiTLS reproduction of
//! *Equational Approach to Formal Analysis of TLS* (Ogata & Futatsugi,
//! ICDCS 2005).
//!
//! The paper writes its protocol model and proofs in CafeOBJ modules. This
//! crate provides the corresponding machinery:
//!
//! * [`spec::Spec`] — a loaded specification: term store, `BOOL` built-in,
//!   accumulated equations, module metadata, plus a typed builder API;
//! * [`passage::ProofPassage`] — the paper's `open … close` proof passages
//!   with arbitrary objects, assumption equations, and `red`;
//! * [`lexer`] / [`parser`] / [`ast`] — a CafeOBJ-flavoured surface DSL so
//!   specifications can also be written as text (used by tests, examples,
//!   and the quickstart).
//!
//! The TLS model itself lives in `equitls-tls` and is built through the
//! typed builder for robustness; a DSL rendering is kept in tests to
//! exercise the parser against the same semantics.
//!
//! # Example
//!
//! ```
//! use equitls_spec::prelude::*;
//!
//! let src = r#"
//!     mod! NAT2 {
//!       [ N ]
//!       op z : -> N {constr} .
//!       op s : N -> N {constr} .
//!       op add : N N -> N .
//!       vars X Y : N .
//!       eq add(z, Y) = Y .
//!       eq add(s(X), Y) = s(add(X, Y)) .
//!     }
//! "#;
//! let mut spec = Spec::new()?;
//! let ast = parse_module(src)?;
//! elaborate_module(&mut spec, &ast)?;
//! let two_plus_one = spec.parse_term("add(s(s(z)), s(z))")?;
//! let three = spec.parse_term("s(s(s(z)))")?;
//! assert_eq!(spec.red(two_plus_one)?, three);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod passage;
pub mod render;
pub mod spec;

pub use error::SpecError;

impl spec::Spec {
    /// Parse and elaborate a term written in the surface DSL (constants
    /// are resolved against this specification).
    ///
    /// # Errors
    ///
    /// Parse errors or resolution failures.
    pub fn parse_term(&mut self, input: &str) -> Result<equitls_kernel::term::TermId, SpecError> {
        let ast = parser::parse_term_ast(input)?;
        let scope = parser::ElabScope::new();
        parser::elaborate_term(self, &scope, &ast)
    }

    /// Parse and install a `mod! … { … }` module written in the DSL.
    ///
    /// # Errors
    ///
    /// Parse errors or resolution failures.
    pub fn load_module(&mut self, input: &str) -> Result<(), SpecError> {
        let ast = parser::parse_module(input)?;
        parser::elaborate_module(self, &ast)
    }
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::ast::{BinOp, EqAst, ModuleAst, OpAst, SourceSpan, TermAst};
    pub use crate::error::SpecError;
    pub use crate::parser::{
        elaborate_module, elaborate_term, parse_module, parse_term_ast, ElabScope,
    };
    pub use crate::passage::ProofPassage;
    pub use crate::render::{render_module, render_spec_module, render_term};
    pub use crate::spec::{ModuleInfo, QuarantinedEquation, Spec, SpecMark};
}
