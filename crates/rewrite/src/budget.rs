//! Unified resource budgets, cooperative cancellation, and fault injection.
//!
//! Long-running analyses — inductive proof campaigns and finite-scope state
//! exploration — must degrade *gracefully* under time, memory, and fault
//! pressure: a runaway rewrite or a panicking worker must produce a partial,
//! well-formed report, never kill the whole run. This module is the shared
//! vocabulary for that contract:
//!
//! * [`Budget`] — a wall-clock deadline and a heap-byte ceiling (tracked via
//!   arena/state accounting, no allocator hooks) shared by every engine;
//! * [`CancelToken`] — one cooperative stop signal (an `AtomicBool`) observed
//!   by all workers, so a single `cancel()` stops the prover, the rewriting
//!   engine, and the explorer together;
//! * [`StopReason`] — the typed verdict recorded on partial results
//!   (`Exploration::complete == false`, obligations left open);
//! * [`FaultPlan`] / [`Fault`] — a deterministic fault-injection harness:
//!   inject a panic, fuel starvation, deadline expiry, or a cancellation at
//!   the *N*-th rewrite / successor call (optionally scoped to one
//!   obligation), so every degradation path is testable end-to-end and
//!   byte-identical at every `jobs` value;
//! * [`WorkerFault`] — the typed record of a contained worker panic,
//!   re-merged deterministically into reports instead of poisoning siblings.

use equitls_obs::rng::SplitMix64;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an analysis stopped before running to completion.
///
/// A `StopReason` always accompanies a *partial but well-formed* result:
/// tallies are internally consistent for the portion of the work that was
/// done, and nothing after the stop point is half-merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The wall-clock deadline of the [`Budget`] passed.
    DeadlineExceeded,
    /// The tracked heap estimate crossed the [`Budget`] ceiling.
    MemoryExceeded,
    /// The shared [`CancelToken`] was cancelled.
    Cancelled,
    /// The rewriting fuel budget ran out.
    FuelExhausted,
    /// The explorer's state cap truncated the search.
    StateCapReached,
    /// The explorer's depth cap ended the search with a non-empty frontier.
    DepthCapReached,
    /// A spilled visited-set shard could not be read back (I/O error or
    /// checksum mismatch): the search cannot continue soundly without
    /// its dedup set, so it stops with a typed reason instead of
    /// risking re-expanded (wrongly counted) states.
    SpillFailed,
}

impl StopReason {
    /// Stable lower-case label, used in reports and obs counters.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::DeadlineExceeded => "deadline exceeded",
            StopReason::MemoryExceeded => "memory ceiling exceeded",
            StopReason::Cancelled => "cancelled",
            StopReason::FuelExhausted => "fuel exhausted",
            StopReason::StateCapReached => "state cap reached",
            StopReason::DepthCapReached => "depth cap reached",
            StopReason::SpillFailed => "visited-set spill failed",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A cooperative cancellation signal shared by every worker of a run.
///
/// Cancellation is *sticky*: once [`cancel`](CancelToken::cancel) is called
/// the token stays cancelled forever. Clones share the underlying flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a cooperative stop; all holders of clones observe it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether a stop has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The most worker threads a `jobs` value from outside the program may
/// ask for: the `--jobs`/`--workers` flags and a daemon request's `jobs`
/// field are refused above it. The daemon spawns `--workers` threads and
/// the prover and linter up to `jobs` each, so an unbounded value would
/// let one command line or request ask for any number of threads.
pub const MAX_JOBS: usize = 256;

/// Resolve a `jobs` request: `0` means "use the machine's available
/// parallelism", anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// A shared resource budget: wall-clock deadline, heap-byte ceiling, and a
/// [`CancelToken`].
///
/// Cloning a `Budget` shares the cancellation token (and copies the deadline
/// and ceiling), so one budget value can be handed to the prover, to every
/// obligation's `Normalizer`, and to the explorer, and a single trip is
/// observed everywhere. Heap usage is *estimated* by the engines from their arena and
/// state counts — there are no allocator hooks — so the ceiling is a
/// good-faith tripwire, not a hard rlimit.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_heap_bytes: Option<u64>,
    cancel: CancelToken,
}

impl Budget {
    /// A budget with no deadline and no memory ceiling (cancellation only).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Set a wall-clock deadline `d` from now.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Set an absolute wall-clock deadline.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Set a heap-byte ceiling on the engines' tracked usage estimate.
    pub fn with_max_heap_bytes(mut self, bytes: u64) -> Self {
        self.max_heap_bytes = Some(bytes);
        self
    }

    /// Convenience: heap ceiling in mebibytes.
    pub fn with_max_mem_mb(self, mb: u64) -> Self {
        self.with_max_heap_bytes(mb.saturating_mul(1024 * 1024))
    }

    /// A clone of the cancellation token (for handing to other threads).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Request a cooperative stop of everything sharing this budget.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The heap-byte ceiling, if one is set.
    pub fn max_heap_bytes(&self) -> Option<u64> {
        self.max_heap_bytes
    }

    /// Memory-pressure probe: the fraction of the heap ceiling a usage
    /// estimate consumes (`1.0` = exactly at the ceiling), or `None`
    /// when no ceiling is set. Engines with a graceful degradation path
    /// (the explorer's disk spill tier) act on pressure *before*
    /// [`Budget::check`] would hard-trip, and the fraction is a pure
    /// function of the estimate, so pressure-driven decisions stay
    /// deterministic at every `jobs` value.
    pub fn memory_pressure(&self, heap_bytes: u64) -> Option<f64> {
        self.max_heap_bytes
            .map(|max| heap_bytes as f64 / max.max(1) as f64)
    }

    /// Check the budget against a current heap-usage estimate.
    ///
    /// Order of checks: cancellation, deadline, memory. Returns the first
    /// tripped [`StopReason`], or `Ok(())` when within budget.
    pub fn check(&self, heap_bytes: u64) -> Result<(), StopReason> {
        if self.cancel.is_cancelled() {
            return Err(StopReason::Cancelled);
        }
        if let Some(at) = self.deadline {
            if Instant::now() >= at {
                return Err(StopReason::DeadlineExceeded);
            }
        }
        if let Some(max) = self.max_heap_bytes {
            if heap_bytes > max {
                return Err(StopReason::MemoryExceeded);
            }
        }
        Ok(())
    }
}

/// Where in the pipeline an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The *N*-th fuel-consuming rewrite step of a `Normalizer` session.
    Rewrite,
    /// The successor computation for the *N*-th explored state.
    Successor,
    /// The start of a named prover obligation (`at` is ignored / 0).
    Obligation,
    /// The *N*-th persist-layer snapshot write attempted by the scoped
    /// writer (prover ledger, explorer checkpoint, serve job journal). Injection sits *above* `equitls-persist`: the writer
    /// consults its plan before touching the filesystem, so a fired fault
    /// models the whole write/rename/fsync sequence failing atomically —
    /// the previous snapshot (if any) stays intact, exactly the guarantee
    /// the real temp-file protocol gives on a mid-write crash.
    PersistWrite,
    /// The *N*-th visited-set shard *write* attempted by the explorer's
    /// spill tier (disk-full modeling). Attempts are counted in barrier
    /// order, so the index is the same on every run. A
    /// fired fault fails the write atomically — the shard stays
    /// resident and the search degrades to backpressure, never stops.
    SpillWrite,
    /// A visited-set shard *reload* from the spill tier. Unlike the
    /// other sites, `at` is the **shard id**, not a call index: reloads
    /// are demand-driven, so "shard 3 is unreadable" is the stable way to
    /// name one.
    SpillRead,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultSite::Rewrite => "rewrite",
            FaultSite::Successor => "successor",
            FaultSite::Obligation => "obligation",
            FaultSite::PersistWrite => "persist write",
            FaultSite::SpillWrite => "spill write",
            FaultSite::SpillRead => "spill read",
        })
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic at the fault site (must be contained by `catch_unwind`).
    Panic,
    /// Drop the remaining rewriting fuel to zero.
    FuelStarvation,
    /// Behave as if the wall-clock deadline had just passed.
    DeadlineExpiry,
    /// Trip the shared [`CancelToken`].
    Cancel,
    /// Fail the operation with a simulated I/O error. Only meaningful at
    /// [`FaultSite::PersistWrite`]: the writer must degrade to
    /// warn-and-continue (counting `persist.snapshot_failed`), never
    /// abort the campaign.
    IoError,
    /// Bit-flip corruption: the data lands (or is read) with a flipped
    /// byte. Meaningful at [`FaultSite::SpillRead`], where it simulates
    /// a shard file whose checksum no longer matches — the reader must
    /// surface a typed checksum error, never decode garbage states.
    Corruption,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Panic => "panic",
            FaultKind::FuelStarvation => "fuel starvation",
            FaultKind::DeadlineExpiry => "deadline expiry",
            FaultKind::Cancel => "cancel",
            FaultKind::IoError => "io error",
            FaultKind::Corruption => "corruption",
        })
    }
}

/// One planned fault: fire `kind` at the `at`-th call of `site`, optionally
/// only within the named `scope` (a prover obligation name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Where the fault fires.
    pub site: FaultSite,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// Restrict to one scope (obligation name); `None` matches any scope.
    pub scope: Option<String>,
    /// Zero-based call index at which the fault fires.
    pub at: u64,
}

impl Fault {
    /// A fault at `site` with `kind`, firing at call index `at`, any scope.
    pub fn new(site: FaultSite, kind: FaultKind, at: u64) -> Self {
        Fault {
            site,
            kind,
            scope: None,
            at,
        }
    }

    /// Restrict the fault to the named scope (e.g. one obligation).
    pub fn in_scope(mut self, scope: impl Into<String>) -> Self {
        self.scope = Some(scope.into());
        self
    }
}

/// A deterministic fault-injection plan.
///
/// A plan is a pure value: [`fault_for`](FaultPlan::fault_for) is a function
/// of `(site, scope, call index)` only, so the same plan run at any `jobs`
/// value injects exactly the same faults at exactly the same logical points
/// — which is what lets the determinism contract hold under injection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: add one fault.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Add one fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// A SplitMix64-seeded random plan of `n` faults with call indices below
    /// `max_at`. Equal seeds yield equal plans; scopes are left open so the
    /// faults apply wherever the indices land.
    ///
    /// The random mix deliberately excludes the I/O sites —
    /// [`FaultSite::PersistWrite`], [`FaultSite::SpillWrite`],
    /// [`FaultSite::SpillRead`] (and with them [`FaultKind::IoError`] /
    /// [`FaultKind::Corruption`]): I/O faults are targeted at specific
    /// writers and shards by explicit plans, and adding a site here
    /// would silently reshuffle every seeded fixture pinned by the
    /// robustness suite.
    pub fn seeded(seed: u64, n: usize, max_at: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let sites = [
            FaultSite::Rewrite,
            FaultSite::Successor,
            FaultSite::Obligation,
        ];
        let kinds = [
            FaultKind::Panic,
            FaultKind::FuelStarvation,
            FaultKind::DeadlineExpiry,
            FaultKind::Cancel,
        ];
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let site = *rng.choose(&sites);
            let kind = *rng.choose(&kinds);
            let at = if site == FaultSite::Obligation || max_at == 0 {
                0
            } else {
                rng.next_below(max_at)
            };
            plan.push(Fault::new(site, kind, at));
        }
        plan
    }

    /// The fault (if any) that fires at the `n`-th call of `site` within
    /// `scope`. A fault with `scope: None` matches every scope; the first
    /// match in insertion order wins.
    pub fn fault_for(&self, site: FaultSite, scope: &str, n: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.site == site && f.at == n && f.scope.as_ref().is_none_or(|s| s == scope))
            .map(|f| f.kind)
    }

    /// Whether the `n`-th snapshot write of the persist writer named
    /// `scope` should fail. Sugar over [`fault_for`](Self::fault_for) at
    /// [`FaultSite::PersistWrite`]; any planned kind fails the write (an
    /// injected persist fault has exactly one observable effect — the
    /// snapshot does not land — so the kind carries no extra signal
    /// here).
    pub fn persist_write_fails(&self, scope: &str, n: u64) -> bool {
        self.fault_for(FaultSite::PersistWrite, scope, n).is_some()
    }
}

/// Panic with a deterministic, recognizable message for an injected fault.
///
/// Kept as a function so the panic message (and thus the recorded
/// [`WorkerFault`]) is identical at every `jobs` value.
pub fn trigger_injected_panic(site: FaultSite, scope: &str, n: u64) -> ! {
    if scope.is_empty() {
        panic!("injected fault: panic at {site} call {n}")
    } else {
        panic!("injected fault: panic at {site} call {n} (scope `{scope}`)")
    }
}

/// Extract a human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A worker panic that was contained by `catch_unwind` and recorded instead
/// of poisoning sibling work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Where the fault occurred (e.g. `obligation:lem-src-honest`,
    /// `successor:17`).
    pub site: String,
    /// The panic message.
    pub message: String,
}

impl fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker fault at {}: {}", self.site, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_jobs_zero_means_available_parallelism() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.check(u64::MAX).is_ok());
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert!(b.check(0).is_ok());
        let expired = Budget::unlimited().with_deadline_at(Instant::now());
        assert_eq!(expired.check(0), Err(StopReason::DeadlineExceeded));
    }

    #[test]
    fn memory_ceiling_trips_on_estimate() {
        let b = Budget::unlimited().with_max_mem_mb(1);
        assert!(b.check(1024 * 1024).is_ok());
        assert_eq!(b.check(1024 * 1024 + 1), Err(StopReason::MemoryExceeded));
    }

    #[test]
    fn cancellation_is_shared_and_sticky() {
        let b = Budget::unlimited();
        let clone = b.clone();
        let token = b.cancel_token();
        assert!(clone.check(0).is_ok());
        token.cancel();
        assert_eq!(b.check(0), Err(StopReason::Cancelled));
        assert_eq!(clone.check(0), Err(StopReason::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_precedes_deadline_in_check_order() {
        let b = Budget::unlimited().with_deadline_at(Instant::now());
        b.cancel();
        assert_eq!(b.check(0), Err(StopReason::Cancelled));
    }

    #[test]
    fn fault_plan_matches_site_scope_and_index() {
        let plan = FaultPlan::new()
            .with_fault(Fault::new(FaultSite::Rewrite, FaultKind::Panic, 5))
            .with_fault(
                Fault::new(FaultSite::Obligation, FaultKind::FuelStarvation, 0).in_scope("lem-one"),
            );
        assert_eq!(
            plan.fault_for(FaultSite::Rewrite, "anything", 5),
            Some(FaultKind::Panic)
        );
        assert_eq!(plan.fault_for(FaultSite::Rewrite, "anything", 4), None);
        assert_eq!(plan.fault_for(FaultSite::Successor, "", 5), None);
        assert_eq!(
            plan.fault_for(FaultSite::Obligation, "lem-one", 0),
            Some(FaultKind::FuelStarvation)
        );
        assert_eq!(plan.fault_for(FaultSite::Obligation, "lem-two", 0), None);
    }

    #[test]
    fn persist_write_faults_are_scoped_and_indexed() {
        let plan = FaultPlan::new()
            .with_fault(
                Fault::new(FaultSite::PersistWrite, FaultKind::IoError, 1).in_scope("ledger"),
            )
            .with_fault(Fault::new(FaultSite::PersistWrite, FaultKind::IoError, 0));
        // Index 0 matches the unscoped fault for every writer.
        assert!(plan.persist_write_fails("ledger", 0));
        assert!(plan.persist_write_fails("explorer", 0));
        // Index 1 only fails for the ledger writer.
        assert!(plan.persist_write_fails("ledger", 1));
        assert!(!plan.persist_write_fails("explorer", 1));
        assert!(!plan.persist_write_fails("ledger", 2));
        // Persist faults never leak into the other sites.
        assert_eq!(plan.fault_for(FaultSite::Rewrite, "ledger", 0), None);
        assert_eq!(plan.fault_for(FaultSite::Obligation, "ledger", 0), None);
    }

    #[test]
    fn seeded_plans_never_contain_persist_or_spill_sites() {
        for seed in 0..32 {
            let plan = FaultPlan::seeded(seed, 16, 100);
            assert!(
                plan.faults().iter().all(|f| {
                    !matches!(
                        f.site,
                        FaultSite::PersistWrite | FaultSite::SpillWrite | FaultSite::SpillRead
                    ) && !matches!(f.kind, FaultKind::IoError | FaultKind::Corruption)
                }),
                "seeded plan {seed} must keep the pinned site/kind mix"
            );
        }
    }

    #[test]
    fn memory_pressure_probe_is_a_fraction_of_the_ceiling() {
        let unlimited = Budget::unlimited();
        assert_eq!(unlimited.max_heap_bytes(), None);
        assert_eq!(unlimited.memory_pressure(u64::MAX), None);
        let b = Budget::unlimited().with_max_mem_mb(1);
        assert_eq!(b.max_heap_bytes(), Some(1024 * 1024));
        let half = b.memory_pressure(512 * 1024).unwrap();
        assert!((half - 0.5).abs() < 1e-9, "got {half}");
        let over = b.memory_pressure(2 * 1024 * 1024).unwrap();
        assert!((over - 2.0).abs() < 1e-9, "got {over}");
        // The probe never hard-trips on its own: check() still decides.
        assert_eq!(b.check(2 * 1024 * 1024), Err(StopReason::MemoryExceeded));
    }

    #[test]
    fn spill_faults_match_by_site_kind_and_index() {
        let plan = FaultPlan::new()
            .with_fault(
                Fault::new(FaultSite::SpillWrite, FaultKind::IoError, 2).in_scope("visited"),
            )
            .with_fault(
                Fault::new(FaultSite::SpillRead, FaultKind::Corruption, 3).in_scope("visited"),
            );
        assert_eq!(
            plan.fault_for(FaultSite::SpillWrite, "visited", 2),
            Some(FaultKind::IoError)
        );
        assert_eq!(plan.fault_for(FaultSite::SpillWrite, "visited", 1), None);
        assert_eq!(
            plan.fault_for(FaultSite::SpillRead, "visited", 3),
            Some(FaultKind::Corruption)
        );
        // Spill faults never leak into the persist writer's site.
        assert_eq!(plan.fault_for(FaultSite::PersistWrite, "visited", 2), None);
        assert!(!plan.persist_write_fails("visited", 2));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 8, 1000);
        let b = FaultPlan::seeded(42, 8, 1000);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 8);
        let c = FaultPlan::seeded(43, 8, 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn injected_panic_message_is_deterministic() {
        let caught =
            std::panic::catch_unwind(|| trigger_injected_panic(FaultSite::Obligation, "lem-x", 0));
        let payload = caught.expect_err("must panic");
        assert_eq!(
            panic_message(&*payload),
            "injected fault: panic at obligation call 0 (scope `lem-x`)"
        );
    }

    #[test]
    fn worker_fault_displays_site_and_message() {
        let f = WorkerFault {
            site: "obligation:inv1".to_string(),
            message: "boom".to_string(),
        };
        assert_eq!(f.to_string(), "worker fault at obligation:inv1: boom");
    }
}
