//! `equitls-serve`: a supervised, always-warm verification service.
//!
//! A one-shot `tls-prove` run pays the full cold-start cost on every
//! invocation: compile the TLS spec, build the LPO precedence and the
//! discrimination-tree rule index. This crate amortises both across
//! requests by keeping a daemon resident:
//!
//! * [`warm`] holds the compiled pristine models; request clones share
//!   the pre-built index by `Arc`.
//! * [`proto`] defines the JSONL request/response protocol spoken over a
//!   Unix socket (byte-stable canonical rendering, so responses are
//!   replay-comparable).
//! * [`engine`] multiplexes concurrent prove / model-check / lint jobs
//!   onto a supervised worker pool behind a bounded admission queue with
//!   a disclosed degradation ladder (shed lint → shrink scopes → busy).
//! * [`journal`] records every admitted job in an atomic
//!   `equitls-persist` snapshot before it runs, so a `kill -9`'d daemon
//!   replays its queue bit-identically on restart.
//! * [`endpoint`] is the one `--socket PATH` | `--tcp ADDR` address type
//!   the daemon binds and the client connects to.
//! * [`backoff`] gives clients a capped exponential retry schedule with
//!   seeded (deterministic-under-test) jitter.
//!
//! The robustness contract, in one line: **overload is answered, faults
//! are contained, crashes are replayed** — and every degradation is
//! disclosed in the response that experienced it.

pub mod backoff;
pub mod endpoint;
pub mod engine;
pub mod job;
pub mod journal;
pub mod proto;
pub mod warm;

pub use engine::{Admission, ServeConfig, ServeEngine};
pub use proto::{JobKind, JobRequest};
