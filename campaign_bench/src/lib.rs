//! End-to-end and per-layer benchmark of EquiTLS: the proof campaign,
//! the verification daemon and the bounded model checker.
//!
//! One run measures one [`Workload`] for a fixed number of seconds. Each
//! iteration runs in a child process of its own (a re-execution of the
//! benchmark binary), so peak memory is per iteration and the `prove`
//! workload keeps the one-shot semantics of `tls-prove`. Every layer is
//! timed from outside, through the program's public functions, the
//! [`timed`] wrappers, the public report structs, and the spans and
//! counters the program already emits. See `README.md` for the
//! workloads, metrics and how to compare two sets of runs.

#![forbid(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads its process counters from Linux's /proc");

pub mod calibration;
pub mod child;
pub mod compare;
pub mod metrics;
pub mod reference;
pub mod run;
pub mod stats;
pub mod timed;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 18-property campaign on both models, one-shot, one thread.
    Prove,
    /// Prove, check and lint requests to an in-process warm daemon.
    Serve,
    /// Bounded model checking at bounds 1–3, all states in memory.
    Check,
    /// Bounded model checking at bound 3 with the visited set spilling
    /// to disk, on two threads.
    CheckSpill,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Prove,
        Workload::Serve,
        Workload::Check,
        Workload::CheckSpill,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Prove => "prove",
            Workload::Serve => "serve",
            Workload::Check => "check",
            Workload::CheckSpill => "check_spill",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload computes on at once.
    pub fn threads(self) -> usize {
        match self {
            Workload::Prove | Workload::Serve | Workload::Check => 1,
            Workload::CheckSpill => 2,
        }
    }

    /// The kinds of iteration the workload alternates between; one child
    /// process runs one iteration of one kind. A `prove` iteration proves
    /// the campaign on one model, so a full campaign is one `standard`
    /// plus one `variant` iteration.
    pub fn kinds(self) -> &'static [&'static str] {
        match self {
            Workload::Prove => &["standard", "variant"],
            Workload::Serve => &["daemon"],
            Workload::Check => &["resident"],
            Workload::CheckSpill => &["spilled"],
        }
    }
}

/// Where runs write traces and spill files, relative to the directory
/// the benchmark runs in.
pub const OUT_DIR: &str = "target/equitls-bench";
