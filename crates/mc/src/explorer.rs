//! Breadth-first explicit-state exploration with counterexample traces.
//!
//! A deliberately Murφ-shaped checker (the paper's §6 relates to Mitchell,
//! Shmatikov and Stern's finite-state analysis of SSL 3.0): enumerate
//! states breadth-first under a finite scope, check safety monitors in
//! every state, and reconstruct a labeled trace on violation.
//!
//! ## Level expansion
//!
//! [`explore_with_config_jobs`] runs the search level-synchronously on
//! the calling thread. Each level is one loop over its frontier, in
//! order: fetch an entry's encoded state, expand it into its successors'
//! canonical bytes (`Model::successor_batch`), and merge those into the
//! visited set. Only a successor the visited set inserts is copied,
//! labeled and decoded for the monitors; a duplicate costs one lookup.
//! Successor generation is pure, so a run's state count and numbering,
//! verdicts, violation traces and `states_per_depth`/`dedup_hits`
//! accounting depend only on the model, the limits and the config. The
//! level barriers between loops are where shards spill and checkpoints
//! land.

use crate::model::{Model, SuccessorBatch};
use crate::visited::{
    digest_entries, read_shard_file, shard_file_name, Lookup, SpillError, SpillSettings,
    VisitedStore,
};
use equitls_obs::sink::Obs;
use equitls_persist::codec::{Reader, Writer};
use equitls_persist::{read_snapshot, write_snapshot, PersistError, SnapshotKind};
use equitls_rewrite::budget::{
    panic_message, trigger_injected_panic, Budget, FaultKind, FaultPlan, FaultSite, StopReason,
    WorkerFault,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Per-state estimate of the parts that can never spill: the parent edge
/// and label. The visited store accounts its own resident and
/// unspillable bytes on top.
const STATE_FIXED_BYTES: u64 = 64;

/// Barrier spill trigger: spill when the heap estimate crosses this
/// fraction of the budget's memory ceiling, *before* the ceiling itself
/// trips mid-level.
const SPILL_PRESSURE: f64 = 0.7;

/// A named safety monitor: `(name, predicate)`. A violation is recorded
/// the first time the predicate returns `false`.
pub type Monitor<'a, S> = (&'a str, &'a dyn Fn(&S) -> bool);

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum states to keep (cutoff reported, not an error).
    pub max_states: usize,
    /// Maximum BFS depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 200_000,
            max_depth: 8,
        }
    }
}

/// Robustness knobs for an exploration, on top of the structural [`Limits`]:
/// a shared [`Budget`] (deadline, heap-estimate ceiling, cancellation) and
/// an optional deterministic [`FaultPlan`] for the fault-injection tests.
///
/// Budget trips and injected stop-kind faults are observed before each
/// frontier entry is merged, in frontier order, so an injected fault
/// truncates at the same position on every run. Real wall-clock trips
/// are consistent (a well-formed partial result) but naturally not
/// bit-reproducible across runs.
#[derive(Debug, Clone, Default)]
pub struct ExploreConfig {
    /// Deadline / memory / cancellation budget.
    pub budget: Budget,
    /// Deterministic fault injection, keyed by global state index at
    /// [`FaultSite::Successor`]. `None` in production.
    pub fault_plan: Option<FaultPlan>,
    /// When set, the search writes a crash-safe snapshot of its progress
    /// to this path at level barriers (the only points where the search
    /// state is a complete, deterministic prefix of the full run), and
    /// [`explore_resume_with_config_jobs`] can continue from it.
    pub checkpoint_path: Option<PathBuf>,
    /// Minimum seconds between checkpoint writes; `0` writes at every
    /// level barrier.
    pub checkpoint_every_secs: u64,
    /// When nonzero, print a one-line progress heartbeat to stderr at
    /// most every this-many seconds (checked at level barriers, where
    /// the tallies are consistent). Purely cosmetic: heartbeats never
    /// affect the search or its result. `0` (the default) is silent.
    pub heartbeat_every_secs: u64,
    /// When set, cold visited-set shards spill to files in this
    /// directory under memory pressure — Murφ-style — instead of the
    /// search truncating at the budget's heap ceiling. Spill decisions are
    /// taken only at level barriers, in shard order, so a spilled run's
    /// results are bit-identical to a resident one's; the degradation is
    /// disclosed in [`Exploration::degradation`].
    pub spill_dir: Option<PathBuf>,
    /// When nonzero, at most this many visited-set shards keep resident
    /// entries after each barrier (the rest spill). `0` leaves residency
    /// purely to the memory-pressure trigger.
    pub max_resident_shards: usize,
    /// Visited-set shard count; `0` uses the default
    /// ([`crate::visited::DEFAULT_SHARDS`]).
    pub spill_shards: usize,
}

/// A safety-property violation with its witness trace.
#[derive(Debug, Clone)]
pub struct Violation<S> {
    /// The violated monitor's name.
    pub property: String,
    /// Labeled steps from the initial state to the violating state.
    pub trace: Vec<(String, S)>,
    /// BFS depth of the violating state.
    pub depth: usize,
}

/// The outcome of one exploration.
#[derive(Debug, Clone)]
pub struct Exploration<S> {
    /// Distinct states visited.
    pub states: usize,
    /// Deepest level fully or partially expanded.
    pub depth_reached: usize,
    /// Whether the search exhausted the state space within limits.
    pub complete: bool,
    /// Violations found (first per property).
    pub violations: Vec<Violation<S>>,
    /// States visited per BFS level.
    pub states_per_depth: Vec<usize>,
    /// Successor states that were already known (hash-table dedup hits).
    pub dedup_hits: usize,
    /// Why the search stopped before exhausting the space, if it did.
    /// `None` iff [`Exploration::complete`] is `true`.
    pub stop_reason: Option<StopReason>,
    /// Worker faults (panicking successor computations) that were
    /// contained during the search, in frontier order.
    pub faults: Vec<WorkerFault>,
    /// Enqueued-but-unexpanded states at the truncation point: frontier
    /// entries the stop reason prevented from being expanded. `0` on a
    /// complete run. Disclosed so a truncated tally can never silently
    /// pose as exhaustive.
    pub unexpanded: usize,
    /// Disclosed degradations, mirroring `equitls-serve`'s ladder:
    /// `"visited-spilled"` when shards went to disk,
    /// `"spill-write-failed"` when a shard write failed and the shard
    /// stayed resident (backpressure). Empty on a fully-resident run.
    pub degradation: Vec<String>,
    /// Visited-set shards spilled to disk during the search.
    pub spill_shards: u64,
    /// Payload bytes written to spilled shard files.
    pub spill_bytes: u64,
    /// Spilled shards read back on demand.
    pub spill_reloads: u64,
    /// Wall-clock time.
    pub duration: Duration,
}

impl<S> Exploration<S> {
    /// `true` when no monitor was violated.
    pub fn all_hold(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violation for `property`, if found.
    pub fn violation(&self, property: &str) -> Option<&Violation<S>> {
        self.violations.iter().find(|v| v.property == property)
    }

    /// Distinct states per wall-clock second.
    ///
    /// Sub-millisecond runs are too short for the wall clock to carry
    /// signal: dividing a handful of states by a few microseconds
    /// extrapolates absurd throughput. The divisor is clamped to 1 ms,
    /// making the result a *lower bound* on very short runs; a zero
    /// duration (the clock did not advance) reports 0.
    pub fn states_per_sec(&self) -> f64 {
        const MIN_MEASURABLE_SECS: f64 = 1e-3;
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 || self.states == 0 {
            0.0
        } else {
            self.states as f64 / secs.max(MIN_MEASURABLE_SECS)
        }
    }

    /// Fraction of generated successors that were duplicates, in `[0, 1]`.
    pub fn dedup_hit_rate(&self) -> f64 {
        // Every non-initial state was generated once; dedup hits are the rest.
        let generated = self.dedup_hits + self.states.saturating_sub(1);
        if generated == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / generated as f64
        }
    }
}

/// Explore `model` breadth-first on the calling thread, checking
/// `monitors` in every state.
///
/// Each monitor is `(name, predicate)`; a violation is recorded the first
/// time a predicate returns `false`, and the search continues (to find
/// violations of the other monitors). The search stops cooperatively
/// when `config`'s budget trips and returns a partial but internally
/// consistent [`Exploration`] with a typed [`Exploration::stop_reason`].
/// `obs` receives a span per BFS level, frontier-size and dedup-rate
/// gauges, and a final states/sec gauge.
///
/// Deterministic: the result (state count, verdicts, traces, per-level
/// accounting) depends only on the model, the limits and the config —
/// see the module docs. Injected faults and the structural limits
/// truncate at the same `(parent, successor)` position on every run;
/// real wall-clock budget trips yield a consistent partial result whose
/// exact cut point depends on timing.
///
/// `_jobs` is ignored: the search runs on one thread. The campaign bench
/// pins this signature; its next change drops the parameter.
pub fn explore_with_config_jobs<M: Model>(
    model: &M,
    monitors: &[Monitor<'_, M::State>],
    limits: &Limits,
    config: &ExploreConfig,
    _jobs: usize,
    obs: &Obs,
) -> Exploration<M::State> {
    let seed = initial_seed(model, monitors, config, obs);
    explore_driver(model, monitors, limits, config, obs, seed)
}

/// Mutable search state of one exploration.
struct Search<'m, S> {
    monitors: &'m [Monitor<'m, S>],
    config: &'m ExploreConfig,
    /// The dedup set: every state's canonical encoded bytes, sharded and
    /// spillable to disk under pressure.
    visited: VisitedStore,
    parents: Vec<(usize, String)>,
    violations: Vec<Violation<S>>,
    /// The violating state's global index, parallel to `violations`
    /// (checkpoints store the index; the trace is rebuilt on load).
    violation_indices: Vec<usize>,
    next_frontier: Vec<usize>,
    dedup_hits: usize,
    faults: Vec<WorkerFault>,
    /// Frontier entries a stop reason prevented from being expanded.
    unexpanded: usize,
    /// Set when a mid-level memory-ceiling trip was deferred to the
    /// next barrier's spill pass instead of truncating the search.
    mem_pressure: bool,
    degradation: Vec<String>,
    /// Profiling accumulators, split by phase: wall time spent generating
    /// successors vs. merging them into the dedup index. Only advanced
    /// when `timed` (i.e. the obs handle is enabled) — the clock reads
    /// are cheap but not free, and a silent run should pay nothing.
    timed: bool,
    succ_time: Duration,
    dedup_time: Duration,
}

impl<S> Search<'_, S> {
    /// Distinct states stored so far (every state has a parent edge).
    fn len(&self) -> usize {
        self.parents.len()
    }

    /// Coarse heap estimate for the budget's memory tripwire. The visited
    /// store accounts for its own resident bytes, so the estimate *drops*
    /// when shards spill — that is the degradation: the same ceiling that
    /// would truncate a resident run instead steers the store onto disk.
    fn heap_estimate(&self) -> u64 {
        self.parents.len() as u64 * STATE_FIXED_BYTES + self.visited.resident_estimate()
    }

    /// Whether a mid-level `MemoryExceeded` may be deferred to the next
    /// barrier's spill pass: there must be somewhere to spill *to*, and
    /// the unspillable part (parent edges, locator, hash index) must
    /// itself fit the ceiling — otherwise spilling cannot help and the
    /// honest answer is to stop.
    fn can_defer_memory_stop(&self) -> bool {
        let config = self.config;
        if config.spill_dir.is_none() {
            return false;
        }
        let fixed = self.parents.len() as u64 * STATE_FIXED_BYTES;
        match config.budget.max_heap_bytes() {
            Some(max) => fixed + self.visited.unspillable_estimate() <= max,
            None => true,
        }
    }

    /// The budget / fault-injection gate run **before** merging frontier
    /// entry `idx`, in frontier order. Injected stop-kind faults fire
    /// first (deterministic on every run), then the real budget. A
    /// memory-ceiling trip that the spill tier can absorb is deferred
    /// (flagged for the next barrier) instead of truncating.
    /// Returns the reason to truncate, if any.
    fn pre_merge_stop(&mut self, idx: usize) -> Option<StopReason> {
        if let Some(plan) = &self.config.fault_plan {
            match plan.fault_for(FaultSite::Successor, "", idx as u64) {
                Some(FaultKind::DeadlineExpiry) => return Some(StopReason::DeadlineExceeded),
                Some(FaultKind::FuelStarvation) => return Some(StopReason::FuelExhausted),
                Some(FaultKind::Cancel) => {
                    self.config.budget.cancel();
                    return Some(StopReason::Cancelled);
                }
                // Panic faults fire in the successor computation itself;
                // IoError/Corruption only mean something to spill and
                // persist I/O.
                Some(FaultKind::Panic)
                | Some(FaultKind::IoError)
                | Some(FaultKind::Corruption)
                | None => {}
            }
        }
        let config = self.config;
        let estimate = self.heap_estimate();
        match config.budget.check(estimate) {
            Ok(()) => None,
            Err(StopReason::MemoryExceeded) if self.can_defer_memory_stop() => {
                self.mem_pressure = true;
                None
            }
            Err(reason) => Some(reason),
        }
    }

    /// Record a spill-tier read failure as a typed worker fault and the
    /// stop reason that ends the search: without its dedup set the
    /// search cannot soundly continue, but it stops *typed*, with every
    /// count consistent — never a panic, never garbage states.
    fn spill_failure(&mut self, e: SpillError) -> StopReason {
        self.faults.push(WorkerFault {
            site: format!("spill:shard{}", e.shard),
            message: e.error.to_string(),
        });
        StopReason::SpillFailed
    }

    /// The state at global index `idx`, decoded from the visited store
    /// (reloading its shard if spilled).
    fn state_at<M: Model<State = S>>(
        &mut self,
        model: &M,
        idx: usize,
        obs: &Obs,
    ) -> Result<S, SpillError> {
        let bytes = self.visited.fetch(idx, obs)?;
        match model.decode_state(bytes) {
            Some(state) => Ok(state),
            None => Err(SpillError {
                shard: self.visited.shard_of(idx),
                error: PersistError::Malformed(format!(
                    "state {idx} does not decode for this model"
                )),
            }),
        }
    }

    /// Check every monitor against the just-inserted state `idx`,
    /// recording the first violation per property.
    fn check_new_state<M: Model<State = S>>(
        &mut self,
        model: &M,
        idx: usize,
        state: &S,
        depth: usize,
        obs: &Obs,
    ) -> Option<StopReason> {
        let monitors = self.monitors;
        for (name, monitor) in monitors {
            if self.violations.iter().any(|v| v.property == *name) || monitor(state) {
                continue;
            }
            let stop = self.record_violation(model, name.to_string(), depth, idx, obs);
            if stop.is_some() {
                return stop;
            }
        }
        None
    }

    /// Record a violation of `property` by state `idx` at BFS `depth`,
    /// with its witness trace: the labeled steps from the root, walked
    /// back along the parent edges and decoded from the visited store
    /// (reloading spilled shards as needed). A fresh violation and a
    /// resumed checkpoint's both come through here.
    fn record_violation<M: Model<State = S>>(
        &mut self,
        model: &M,
        property: String,
        depth: usize,
        idx: usize,
        obs: &Obs,
    ) -> Option<StopReason> {
        let mut trace = Vec::new();
        let mut cur = idx;
        while cur != 0 {
            match self.state_at(model, cur, obs) {
                Ok(state) => trace.push((self.parents[cur].1.clone(), state)),
                Err(e) => return Some(self.spill_failure(e)),
            }
            cur = self.parents[cur].0;
        }
        trace.reverse();
        self.violations.push(Violation {
            property,
            trace,
            depth,
        });
        self.violation_indices.push(idx);
        None
    }

    /// Merge the entry's successor batch into the dedup set, in
    /// generation order. Only an inserted successor has its label
    /// rendered and its bytes decoded for the monitors. Returns
    /// `Some(StateCapReached)` when the `max_states` cap refused a *new*
    /// state — the signal to truncate the search. Duplicate successors
    /// never trigger truncation (they cost no storage), so a cap equal to
    /// the true state count still reports a complete exploration. A
    /// spill-tier read failure stops typed ([`StopReason::SpillFailed`]).
    fn merge_entry<M: Model<State = S>>(
        &mut self,
        model: &M,
        parent: usize,
        batch: &mut SuccessorBatch,
        depth: usize,
        limits: &Limits,
        obs: &Obs,
    ) -> Option<StopReason> {
        for i in 0..batch.len() {
            let bytes = batch.bytes(i);
            let inserted = self.visited.lookup_or_insert(bytes, limits.max_states, obs);
            let new_idx = match inserted {
                Ok(Lookup::Known) => {
                    self.dedup_hits += 1;
                    continue;
                }
                Ok(Lookup::CapRefused) => return Some(StopReason::StateCapReached),
                Ok(Lookup::Inserted(idx)) => idx,
                Err(e) => return Some(self.spill_failure(e)),
            };
            let state = model.decode_state(bytes);
            self.parents.push((parent, batch.take_label(i).render()));
            let Some(state) = state else {
                // A successor whose bytes do not decode breaks the codec
                // contract: it stays counted but is neither checked nor
                // expanded, and the fault is disclosed on its parent.
                self.faults.push(WorkerFault {
                    site: format!("successor:{parent}"),
                    message: format!("successor {new_idx} does not decode for this model"),
                });
                continue;
            };
            if let Some(stop) = self.check_new_state(model, new_idx, &state, depth, obs) {
                return Some(stop);
            }
            self.next_frontier.push(new_idx);
        }
        None
    }

    /// The barrier spill pass — the only place shards go to disk, so
    /// spill decisions are a function of the search alone. Spills
    /// (in shard order) when a mid-level ceiling trip was deferred, when
    /// the heap estimate crosses [`SPILL_PRESSURE`] of the ceiling, or
    /// when `max_resident_shards` is exceeded; the goal is half the
    /// ceiling, leaving headroom for the next level. If the estimate
    /// still exceeds the ceiling after the pass (e.g. every write
    /// failed on a full disk), the honest answer is the typed
    /// `MemoryExceeded` stop — degradation is disclosed, never silent.
    fn barrier_spill(&mut self, obs: &Obs) -> Option<StopReason> {
        let config = self.config;
        config.spill_dir.as_ref()?;
        let fixed = self.parents.len() as u64 * STATE_FIXED_BYTES;
        let pressure_flag = std::mem::take(&mut self.mem_pressure);
        let over_pressure = config
            .budget
            .memory_pressure(fixed + self.visited.resident_estimate())
            .is_some_and(|p| p >= SPILL_PRESSURE);
        let cap = config.max_resident_shards;
        let over_cap = cap > 0 && self.visited.resident_shard_count() > cap;
        if !(pressure_flag || over_pressure || over_cap) {
            return None;
        }
        let goal = match config.budget.max_heap_bytes() {
            Some(max) => (max / 2).saturating_sub(fixed),
            None => u64::MAX,
        };
        let outcome = self.visited.spill_until(goal, cap, obs);
        if outcome.spilled > 0 && !self.degradation.iter().any(|d| d == "visited-spilled") {
            self.degradation.push("visited-spilled".into());
        }
        if outcome.write_failures > 0 && !self.degradation.iter().any(|d| d == "spill-write-failed")
        {
            self.degradation.push("spill-write-failed".into());
        }
        config
            .budget
            .check(fixed + self.visited.resident_estimate())
            .err()
    }
}

/// Fill `batch` with the successors of the frontier state at global
/// index `idx`, given its canonical `bytes` ([`Model::successor_batch`]),
/// containing any panic (organic, or injected by the fault plan) as a
/// typed [`WorkerFault`] instead of ending the search. A faulted state
/// contributes no successors; the search continues. Bytes the model
/// cannot decode, or a successor it cannot encode, break the [`Model`]
/// codec contract and fault the entry the same way.
fn compute_succs<M: Model>(
    model: &M,
    bytes: &[u8],
    idx: usize,
    plan: Option<&FaultPlan>,
    batch: &mut SuccessorBatch,
) -> Result<(), WorkerFault> {
    batch.clear();
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = plan {
            if plan.fault_for(FaultSite::Successor, "", idx as u64) == Some(FaultKind::Panic) {
                trigger_injected_panic(FaultSite::Successor, "", idx as u64);
            }
        }
        model.successor_batch(bytes, batch);
    }))
    .map_err(|payload| {
        batch.clear();
        WorkerFault {
            site: format!("successor:{idx}"),
            message: panic_message(&*payload),
        }
    })
}

/// Expand one BFS level, one frontier entry at a time in frontier order:
/// fetch the entry's encoded state (the only place a spilled shard
/// reloads), compute its successors ([`compute_succs`]), then run the
/// budget gate ([`Search::pre_merge_stop`]) and merge the successors
/// ([`Search::merge_entry`]).
///
/// Returns `Some(reason)` on truncation, with the entry the stop landed
/// on and everything after it disclosed as unexpanded. A contained
/// successor panic is recorded as a fault on its entry when the entry is
/// merged. A failed fetch stops the level at its entry, unless the gate
/// stops it there first.
fn expand_level<M: Model>(
    model: &M,
    search: &mut Search<'_, M::State>,
    batch: &mut SuccessorBatch,
    frontier: &[usize],
    depth: usize,
    limits: &Limits,
    obs: &Obs,
) -> Option<StopReason> {
    for (pos, &idx) in frontier.iter().enumerate() {
        let stop = match search.visited.fetch(idx, obs) {
            Ok(bytes) => {
                let gen_start = search.timed.then(Instant::now);
                let plan = search.config.fault_plan.as_ref();
                let succs = compute_succs(model, bytes, idx, plan, batch);
                // Phase accounting is wall-clock per phase: successor
                // generation above, dedup/monitor work below.
                let merge_start = search.timed.then(Instant::now);
                if let (Some(g), Some(m)) = (gen_start, merge_start) {
                    search.succ_time += m.duration_since(g);
                }
                let stop = search.pre_merge_stop(idx).or_else(|| {
                    if let Err(fault) = succs {
                        search.faults.push(fault);
                    }
                    search.merge_entry(model, idx, batch, depth, limits, obs)
                });
                if let Some(m) = merge_start {
                    search.dedup_time += m.elapsed();
                }
                stop
            }
            Err(e) => Some(
                search
                    .pre_merge_stop(idx)
                    .unwrap_or_else(|| search.spill_failure(e)),
            ),
        };
        if stop.is_some() {
            search.unexpanded += frontier.len() - pos;
            return stop;
        }
    }
    None
}

/// Everything the BFS driver needs to start (or restart) at a level
/// barrier: the visited store seeded with the prefix's bytes, the
/// frontier to expand next, and the accounting so far. A fresh search
/// and a decoded checkpoint both reduce to this.
struct SearchSeed {
    visited: VisitedStore,
    parents: Vec<(usize, String)>,
    /// `(property, depth, violating state)` per violation so far;
    /// `explore_driver` rebuilds each witness trace from the store.
    violations: Vec<(String, usize, usize)>,
    dedup_hits: usize,
    faults: Vec<WorkerFault>,
    frontier: Vec<usize>,
    states_per_depth: Vec<usize>,
    depth: usize,
    /// Whether the seed was read from the snapshot at the config's
    /// checkpoint path, which then already holds its barrier.
    resumed: bool,
}

/// An empty visited store shaped by `config`: its shard count, and its
/// spill tier when a spill directory is set.
fn empty_store(config: &ExploreConfig) -> VisitedStore {
    let spill = config.spill_dir.clone().map(|dir| SpillSettings {
        dir,
        fault_plan: config.fault_plan.clone(),
    });
    VisitedStore::new(config.spill_shards, spill)
}

/// The seed of a fresh search: the initial state alone, its bytes in the
/// store and the monitors already checked against it (a root violation
/// has an empty trace).
fn initial_seed<M: Model>(
    model: &M,
    monitors: &[Monitor<'_, M::State>],
    config: &ExploreConfig,
    obs: &Obs,
) -> SearchSeed {
    let root = model.initial();
    let bytes = model
        .encode_state(&root)
        .expect("Model::encode_state must encode every state the model produces");
    let mut visited = empty_store(config);
    visited
        .lookup_or_insert(&bytes, usize::MAX, obs)
        .expect("a fresh store has nothing to reload");
    SearchSeed {
        visited,
        parents: vec![(usize::MAX, String::new())],
        violations: monitors
            .iter()
            .filter(|(_, monitor)| !monitor(&root))
            .map(|(name, _)| (name.to_string(), 0, 0))
            .collect(),
        dedup_hits: 0,
        faults: Vec::new(),
        frontier: vec![0],
        states_per_depth: vec![1],
        depth: 0,
        resumed: false,
    }
}

/// The per-level search state at a barrier — the pieces that live
/// outside [`Search`] during the BFS loop, bundled for checkpointing.
struct Barrier<'a> {
    frontier: &'a [usize],
    states_per_depth: &'a [usize],
    depth: usize,
}

/// Serialize the barrier state into a snapshot payload. Returns `None`
/// when a state cannot be fetched from the visited store — the
/// checkpoint is skipped, the search continues.
///
/// Two formats, distinguished by a leading byte:
///
/// * **0 (inline)** — every state's encoded bytes live in the snapshot
///   itself; used whenever no spill directory is configured.
/// * **1 (manifest)** — the snapshot stores only parent edges, the
///   global `(shard, slot)` locator, and a per-shard `(len, digest)`
///   manifest; the state bytes live in the shard files, which the
///   caller must flush first ([`VisitedStore::flush_all`]). Resume
///   revalidates every shard file's checksum and digest against the
///   manifest before trusting a byte of it.
fn encode_checkpoint<S>(
    search: &mut Search<'_, S>,
    barrier: &Barrier<'_>,
    obs: &Obs,
) -> Option<Vec<u8>> {
    let manifest_mode = search.config.spill_dir.is_some();
    let mut w = Writer::new();
    w.u8(if manifest_mode { 1 } else { 0 });
    w.usize(barrier.depth);
    w.usize(search.dedup_hits);
    w.usize(barrier.states_per_depth.len());
    for &n in barrier.states_per_depth {
        w.usize(n);
    }
    w.usize(search.len());
    for (idx, (parent, label)) in search.parents.iter().enumerate() {
        if !manifest_mode {
            w.bytes(search.visited.fetch(idx, obs).ok()?);
        }
        w.u64(if *parent == usize::MAX {
            u64::MAX
        } else {
            *parent as u64
        });
        w.str(label);
    }
    if manifest_mode {
        for &(shard, slot) in search.visited.locator() {
            w.u32(shard);
            w.u32(slot);
        }
        let manifest = search.visited.manifest();
        w.usize(manifest.len());
        for (len, fnv) in manifest {
            w.u64(len);
            w.u64(fnv);
        }
    }
    w.usize(barrier.frontier.len());
    for &idx in barrier.frontier {
        w.usize(idx);
    }
    // Violations are stored as (property, depth, violating-state index);
    // the witness trace is rebuilt from the parent edges on load.
    w.usize(search.violations.len());
    for (v, &idx) in search.violations.iter().zip(&search.violation_indices) {
        w.str(&v.property);
        w.usize(v.depth);
        w.usize(idx);
    }
    w.usize(search.faults.len());
    for f in &search.faults {
        w.str(&f.site);
        w.str(&f.message);
    }
    Some(w.into_bytes())
}

/// Decode and validate a snapshot payload back into a [`SearchSeed`].
/// Every index is bounds-checked and every parent edge must point
/// backwards (the BFS insertion order), so a payload that passed the CRC
/// but is internally inconsistent still yields a typed error.
///
/// Each stored state's bytes go straight into the seed's visited store,
/// in global order. A state is decoded only to check it, and must
/// re-encode to the same bytes, so distinct bytes are distinct states: a
/// repeat is a duplicate the store itself reports.
fn decode_checkpoint<M: Model>(
    model: &M,
    payload: &[u8],
    config: &ExploreConfig,
    obs: &Obs,
) -> Result<SearchSeed, PersistError> {
    let mut r = Reader::new(payload);
    let format = r.u8()?;
    if format > 1 {
        return Err(PersistError::Malformed(format!(
            "unknown snapshot format {format}"
        )));
    }
    let depth = r.usize()?;
    let dedup_hits = r.usize()?;
    let mut states_per_depth = Vec::new();
    for _ in 0..r.seq_len(8)? {
        states_per_depth.push(r.usize()?);
    }
    if states_per_depth.len() != depth + 1 {
        return Err(PersistError::Malformed(format!(
            "{} per-level tallies for depth {depth}",
            states_per_depth.len()
        )));
    }
    let n_states = r.seq_len(if format == 1 { 16 } else { 17 })?;
    let mut visited = empty_store(config);
    let store_shards = visited.shard_count();
    let mut seed_state = |i: usize, bytes: &[u8]| -> Result<(), PersistError> {
        let malformed = |what: &str| PersistError::Malformed(format!("state {i} {what}"));
        let state = model
            .decode_state(bytes)
            .ok_or_else(|| malformed("does not decode for this model"))?;
        if model.encode_state(&state).as_deref() != Some(bytes) {
            return Err(malformed("does not re-encode to its stored bytes"));
        }
        match visited.lookup_or_insert(bytes, usize::MAX, obs) {
            Ok(Lookup::Inserted(_)) => Ok(()),
            Ok(Lookup::Known) => Err(malformed("duplicates an earlier state")),
            Ok(Lookup::CapRefused) => unreachable!("an uncapped insert is never refused"),
            Err(e) => Err(e.error),
        }
    };
    let mut parents = Vec::with_capacity(n_states);
    for i in 0..n_states {
        if format == 0 {
            seed_state(i, r.bytes()?)?;
        }
        let parent = match r.u64()? {
            u64::MAX if i == 0 => usize::MAX,
            _ if i == 0 => {
                return Err(PersistError::Malformed("root state has a parent".into()));
            }
            parent if parent < i as u64 => parent as usize,
            parent => {
                return Err(PersistError::Malformed(format!(
                    "state {i} has forward parent {parent}"
                )))
            }
        };
        parents.push((parent, r.str()?));
    }
    if format == 1 {
        // The global locator: each shard's slots must appear as the
        // consecutive counters 0.. — which makes (shard, slot) → global
        // index a bijection, so every shard-file entry the manifest
        // covers is placed exactly once, in its shard's file order.
        let mut shard_of = Vec::with_capacity(n_states);
        let mut next_slot: HashMap<u32, u32> = HashMap::new();
        for _ in 0..n_states {
            let shard = r.u32()?;
            let slot = r.u32()?;
            let expected = next_slot.entry(shard).or_insert(0);
            if slot != *expected {
                return Err(PersistError::Malformed(format!(
                    "shard {shard} slots are not contiguous (slot {slot}, expected {expected})"
                )));
            }
            *expected += 1;
            shard_of.push(shard);
        }
        // The store places each entry by hash over its shard count, so a
        // different count would rewrite shard files under this manifest.
        let n_shards = r.seq_len(16)?;
        if n_shards != store_shards {
            return Err(PersistError::Malformed(format!(
                "checkpoint manifest has {n_shards} shards, the store has {store_shards}"
            )));
        }
        if shard_of.iter().any(|&shard| shard as usize >= n_shards) {
            return Err(PersistError::Malformed(
                "locator references a shard past the manifest".into(),
            ));
        }
        let mut manifest = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            manifest.push((r.u64()?, r.u64()?));
        }
        for (shard, &(len, _)) in manifest.iter().enumerate() {
            let counted = next_slot.get(&(shard as u32)).copied().unwrap_or(0) as u64;
            if counted != len {
                return Err(PersistError::Malformed(format!(
                    "shard {shard} manifest length {len} does not match {counted} locator slots"
                )));
            }
        }
        let dir = config.spill_dir.as_deref().ok_or_else(|| {
            PersistError::Malformed(
                "checkpoint references spilled shards but no spill dir is configured".into(),
            )
        })?;
        // Read every referenced shard file and revalidate it against the
        // manifest before trusting a byte: the file CRC (read_snapshot),
        // then the manifest digest over exactly the slot prefix this
        // checkpoint covers (the file may legitimately be *longer* — a
        // later flush appended slots — but never different).
        let mut shard_entries = Vec::with_capacity(n_shards);
        for (shard, &(len, fnv)) in manifest.iter().enumerate() {
            if len == 0 {
                shard_entries.push(Vec::new().into_iter());
                continue;
            }
            let path = dir.join(shard_file_name(shard as u32));
            let mut entries = read_shard_file(&path, shard as u32, obs)?;
            if (entries.len() as u64) < len {
                return Err(PersistError::Malformed(format!(
                    "shard {shard} file holds {} entries, manifest needs {len}",
                    entries.len()
                )));
            }
            entries.truncate(len as usize);
            if digest_entries(&entries) != fnv {
                return Err(PersistError::Malformed(format!(
                    "shard {shard} file does not match the checkpoint manifest digest"
                )));
            }
            shard_entries.push(entries.into_iter());
        }
        // Each entry moves into the store and is dropped, so the shard
        // files' bytes are held once, shrinking as the store fills.
        for (i, &shard) in shard_of.iter().enumerate() {
            let bytes = shard_entries[shard as usize]
                .next()
                .expect("the manifest length equals the shard's locator slots");
            seed_state(i, &bytes)?;
        }
    }
    if states_per_depth.iter().sum::<usize>() != n_states {
        return Err(PersistError::Malformed(
            "per-level tallies do not sum to the state count".into(),
        ));
    }
    let read_idx = |r: &mut Reader, what: &str| -> Result<usize, PersistError> {
        let idx = r.usize()?;
        if idx >= n_states {
            return Err(PersistError::Malformed(format!(
                "{what} index {idx} out of range ({n_states} states)"
            )));
        }
        Ok(idx)
    };
    let mut frontier = Vec::new();
    for _ in 0..r.seq_len(8)? {
        frontier.push(read_idx(&mut r, "frontier")?);
    }
    let mut violations = Vec::new();
    for _ in 0..r.seq_len(24)? {
        let property = r.str()?;
        let vdepth = r.usize()?;
        violations.push((property, vdepth, read_idx(&mut r, "violation")?));
    }
    let mut faults = Vec::new();
    for _ in 0..r.seq_len(16)? {
        faults.push(WorkerFault {
            site: r.str()?,
            message: r.str()?,
        });
    }
    if !r.is_empty() {
        return Err(PersistError::Malformed(format!(
            "{} trailing bytes after snapshot",
            r.remaining()
        )));
    }
    Ok(SearchSeed {
        visited,
        parents,
        violations,
        dedup_hits,
        faults,
        frontier,
        states_per_depth,
        depth,
        resumed: true,
    })
}

/// Write a checkpoint at a level barrier, honoring the throttle. Write
/// failures are contained (the search result is still correct without a
/// snapshot) and surface as a `persist.snapshot_failed` counter. Returns
/// whether the snapshot on disk now holds this barrier.
fn checkpoint_at_barrier<S>(
    search: &mut Search<'_, S>,
    barrier: &Barrier<'_>,
    obs: &Obs,
    last_write: &mut Instant,
    writes: &mut u64,
    force: bool,
) -> bool {
    let Some(path) = search.config.checkpoint_path.clone() else {
        return false;
    };
    let every = search.config.checkpoint_every_secs;
    if !force && every > 0 && last_write.elapsed().as_secs() < every {
        return false;
    }
    // A manifest checkpoint references the shard files, so they must be
    // brought up to date first. A failed flush skips this checkpoint —
    // the previous snapshot stays valid, the search is unaffected.
    if search.config.spill_dir.is_some() && !search.visited.flush_all(obs) {
        obs.counter("persist.snapshot_failed", 1);
        return false;
    }
    let Some(payload) = encode_checkpoint(search, barrier, obs) else {
        return false;
    };
    // Deterministic persist-fault injection: the write index counts
    // *attempts* (in barrier order), so a planned `FaultSite::PersistWrite`
    // at scope "explorer" fails the same barrier's snapshot on every run.
    // Like a real write error, an injected one degrades crash-safety only
    // — counted, not raised.
    let n = *writes;
    *writes += 1;
    let injected = search
        .config
        .fault_plan
        .as_ref()
        .is_some_and(|plan| plan.persist_write_fails("explorer", n));
    if injected {
        obs.counter("persist.fault_injected", 1);
        obs.counter("persist.snapshot_failed", 1);
        return false;
    }
    let written = write_snapshot(&path, SnapshotKind::Explorer, &payload, obs).is_ok();
    if written {
        *last_write = Instant::now();
    } else {
        obs.counter("persist.snapshot_failed", 1);
    }
    written
}

/// The level-synchronous BFS driver, from either starting point (a fresh
/// search, or a decoded checkpoint). Each level is expanded by
/// [`expand_level`].
fn explore_driver<M: Model>(
    model: &M,
    monitors: &[Monitor<'_, M::State>],
    limits: &Limits,
    config: &ExploreConfig,
    obs: &Obs,
    seed: SearchSeed,
) -> Exploration<M::State> {
    let start = Instant::now();
    debug_assert_eq!(seed.visited.len(), seed.parents.len());
    let mut search = Search {
        monitors,
        config,
        visited: seed.visited,
        parents: seed.parents,
        violations: Vec::new(),
        violation_indices: Vec::new(),
        next_frontier: Vec::new(),
        dedup_hits: seed.dedup_hits,
        faults: seed.faults,
        unexpanded: 0,
        mem_pressure: false,
        degradation: Vec::new(),
        timed: obs.enabled(),
        succ_time: Duration::ZERO,
        dedup_time: Duration::ZERO,
    };
    // The successors of the entry being expanded, reused across entries.
    let mut batch = SuccessorBatch::default();
    let mut frontier = seed.frontier;
    let mut states_per_depth = seed.states_per_depth;
    let mut depth = seed.depth;
    let mut last_checkpoint = Instant::now();
    let mut checkpoint_writes = 0u64;
    // The barrier the snapshot on disk holds: a resumed seed's own.
    let mut on_disk = seed.resumed.then_some(depth);
    let mut last_heartbeat = Instant::now();
    // The seed's violations get their traces while every state is still
    // resident. A resumed seed may already sit over the memory ceiling:
    // give the spill tier one pass before the budget gets to stop
    // anything. Then a budget already spent (cancelled before start,
    // expired deadline, unspillable overweight) stops the search before
    // the first expansion: the seed states alone, zero work.
    let mut stop = seed
        .violations
        .into_iter()
        .find_map(|(property, depth, idx)| {
            search.record_violation(model, property, depth, idx, obs)
        });
    if stop.is_none() {
        stop = search.barrier_spill(obs);
    }
    if stop.is_none() {
        stop = config.budget.check(search.heap_estimate()).err();
    }

    while stop.is_none() && !frontier.is_empty() && depth < limits.max_depth {
        depth += 1;
        let _level = obs.span(&format!("mc.level:{depth}"));
        let level_start = search.len();
        let level_faults = search.faults.len();
        let (succ_before, dedup_before) = (search.succ_time, search.dedup_time);
        let dedup_hits_before = search.dedup_hits;
        stop = expand_level(
            model,
            &mut search,
            &mut batch,
            &frontier,
            depth,
            limits,
            obs,
        );
        states_per_depth.push(search.len() - level_start);
        obs.gauge("mc.frontier", search.next_frontier.len() as f64);
        obs.counter("mc.states", search.next_frontier.len() as u64);
        // Per-level dedup hits: the explorer's analogue of a cache hit —
        // how many generated successors were already-seen states. The
        // concrete explorer never rewrites (successors are computed by
        // direct term construction), so this, not a normal-form cache,
        // is where its redundant work is saved.
        let level_dedup_hits = (search.dedup_hits - dedup_hits_before) as u64;
        if level_dedup_hits > 0 {
            obs.counter(&format!("mc.dedup_hits:{depth}"), level_dedup_hits);
        }
        if search.timed {
            // Per-level phase split: successor generation vs. merge/dedup
            // (suffixed like the rewrite engine's per-rule counters, so
            // prefix queries rank levels by cost).
            let succ_us = (search.succ_time - succ_before).as_micros() as u64;
            let dedup_us = (search.dedup_time - dedup_before).as_micros() as u64;
            if succ_us > 0 {
                obs.counter(&format!("mc.succ_us:{depth}"), succ_us);
            }
            if dedup_us > 0 {
                obs.counter(&format!("mc.dedup_us:{depth}"), dedup_us);
            }
        }
        let new_faults = search.faults.len() - level_faults;
        if new_faults > 0 {
            obs.counter("mc.worker_fault", new_faults as u64);
        }
        frontier = std::mem::take(&mut search.next_frontier);
        let every = config.heartbeat_every_secs;
        if every > 0 && last_heartbeat.elapsed().as_secs() >= every {
            last_heartbeat = Instant::now();
            // Rates go through the shared guard: a heartbeat early in a
            // fast run omits the rate instead of fabricating one.
            let rate = equitls_obs::summary::rate_per_sec(search.len() as u64, start.elapsed())
                .map(|r| format!(", {r:.0} states/s"))
                .unwrap_or_default();
            eprintln!(
                "mc: depth {depth}: {} states, frontier {}, dedup {} ({:.1?} elapsed{rate})",
                search.len(),
                frontier.len(),
                search.dedup_hits,
                start.elapsed(),
            );
        }
        // The level barrier is where shards spill (deterministically, in
        // shard order — never mid-level) and where checkpoints land: the
        // only points where the search state is a complete, deterministic
        // prefix of the full run. A mid-level stop leaves the previous
        // barrier's snapshot in place; the resumed run recomputes the
        // interrupted level and lands on the identical result.
        if stop.is_none() {
            stop = search.barrier_spill(obs);
        }
        if stop.is_none() {
            let barrier = Barrier {
                frontier: &frontier,
                states_per_depth: &states_per_depth,
                depth,
            };
            if checkpoint_at_barrier(
                &mut search,
                &barrier,
                obs,
                &mut last_checkpoint,
                &mut checkpoint_writes,
                false,
            ) {
                on_disk = Some(depth);
            }
        }
    }
    // A frontier left unexpanded by the depth cap is also an early stop.
    if stop.is_none() && !frontier.is_empty() {
        stop = Some(StopReason::DepthCapReached);
    }
    // On a clean end (space exhausted or depth-capped) force a final
    // write unless the snapshot on disk already holds the last barrier
    // (the throttle may have suppressed it), so the snapshot replays to
    // the finished result.
    let clean_end = stop.is_none() || stop == Some(StopReason::DepthCapReached);
    if clean_end && on_disk != Some(depth) {
        let barrier = Barrier {
            frontier: &frontier,
            states_per_depth: &states_per_depth,
            depth,
        };
        checkpoint_at_barrier(
            &mut search,
            &barrier,
            obs,
            &mut last_checkpoint,
            &mut checkpoint_writes,
            true,
        );
    }
    // Truncation disclosure: everything still enqueued when the search
    // stopped — the dropped remainder of an interrupted level plus the
    // frontier that never got its level (also the depth-capped case).
    let unexpanded = search.unexpanded + if stop.is_some() { frontier.len() } else { 0 };
    let spill = search.visited.stats();
    let result = Exploration {
        states: search.len(),
        depth_reached: depth,
        complete: stop.is_none(),
        violations: search.violations,
        states_per_depth,
        dedup_hits: search.dedup_hits,
        stop_reason: stop,
        faults: search.faults,
        unexpanded,
        degradation: search.degradation,
        spill_shards: spill.spills,
        spill_bytes: spill.spill_bytes,
        spill_reloads: spill.reloads,
        duration: start.elapsed(),
    };
    if obs.enabled() {
        obs.gauge("mc.states_per_sec", result.states_per_sec());
        obs.gauge("mc.dedup_hit_rate", result.dedup_hit_rate());
    }
    result
}

/// Resume an exploration from the snapshot at `config.checkpoint_path`,
/// continuing to checkpoint as it goes.
///
/// The search restarts at the checkpointed level barrier and finishes the
/// run; because checkpoints only land at barriers (deterministic prefixes
/// of the full run), the final [`Exploration`] is bit-identical to an
/// uninterrupted run. Errors are typed: a missing path, an unreadable
/// file, a truncated or corrupted snapshot, and an internally
/// inconsistent payload are each reported as their own [`PersistError`]
/// — never deserialized into garbage.
pub fn explore_resume_with_config_jobs<M: Model>(
    model: &M,
    monitors: &[Monitor<'_, M::State>],
    limits: &Limits,
    config: &ExploreConfig,
    obs: &Obs,
) -> Result<Exploration<M::State>, PersistError> {
    let path = config
        .checkpoint_path
        .as_ref()
        .ok_or(PersistError::MissingPath)?;
    let (_meta, payload) = read_snapshot(path, SnapshotKind::Explorer, obs)?;
    let seed = decode_checkpoint(model, &payload, config, obs)?;
    drop(payload);
    Ok(explore_driver(model, monitors, limits, config, obs, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use std::path::Path;

    /// One sequential exploration under the default config.
    fn bfs<M: Model>(
        model: &M,
        monitors: &[Monitor<'_, M::State>],
        limits: &Limits,
    ) -> Exploration<M::State> {
        bfs_with(model, monitors, limits, &ExploreConfig::default())
    }

    /// One exploration under `config`, unobserved.
    fn bfs_with<M: Model>(
        model: &M,
        monitors: &[Monitor<'_, M::State>],
        limits: &Limits,
        config: &ExploreConfig,
    ) -> Exploration<M::State> {
        explore_with_config_jobs(model, monitors, limits, config, 1, &Obs::noop())
    }

    /// A toy counter model: increments up to 5, with a "reset" self-loop.
    struct Counter;

    impl Model for Counter {
        type State = u8;

        fn initial(&self) -> u8 {
            0
        }

        fn successors(&self, s: &u8) -> Vec<(String, u8)> {
            if *s >= 5 {
                vec![]
            } else {
                vec![(format!("inc->{}", s + 1), s + 1), ("reset".into(), 0)]
            }
        }

        fn encode_state(&self, s: &u8) -> Option<Vec<u8>> {
            Some(vec![*s])
        }

        fn decode_state(&self, bytes: &[u8]) -> Option<u8> {
            match bytes {
                [s] => Some(*s),
                _ => None,
            }
        }
    }

    /// A 5×5 grid walked right/down: wide frontiers and diamond-shaped
    /// dedup.
    struct Grid;

    impl Model for Grid {
        type State = (u8, u8);

        fn initial(&self) -> (u8, u8) {
            (0, 0)
        }

        fn successors(&self, &(x, y): &(u8, u8)) -> Vec<(String, (u8, u8))> {
            let mut out = Vec::new();
            if x < 4 {
                out.push((format!("right@{x},{y}"), (x + 1, y)));
            }
            if y < 4 {
                out.push((format!("down@{x},{y}"), (x, y + 1)));
            }
            out
        }

        fn encode_state(&self, &(x, y): &(u8, u8)) -> Option<Vec<u8>> {
            Some(vec![x, y])
        }

        fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
            match bytes {
                [x, y] => Some((*x, *y)),
                _ => None,
            }
        }
    }

    #[test]
    fn exhausts_a_small_space() {
        let result = bfs(&Counter, &[], &Limits::default());
        assert_eq!(result.states, 6);
        assert!(result.complete);
        assert!(result.all_hold());
    }

    #[test]
    fn finds_a_violation_with_a_minimal_trace() {
        let below_three = |s: &u8| *s < 3;
        let result = bfs(
            &Counter,
            &[("below-three", &below_three)],
            &Limits::default(),
        );
        let v = result.violation("below-three").expect("violated");
        assert_eq!(v.depth, 3);
        assert_eq!(v.trace.len(), 3);
        assert_eq!(*v.trace.last().map(|(_, s)| s).unwrap(), 3);
        assert!(!result.all_hold());
    }

    #[test]
    fn respects_state_limits() {
        let limits = Limits {
            max_states: 3,
            max_depth: 10,
        };
        let result = bfs(&Counter, &[], &limits);
        assert!(result.states <= 4);
        assert!(!result.complete);
    }

    #[test]
    fn respects_depth_limits() {
        let limits = Limits {
            max_states: 1000,
            max_depth: 2,
        };
        let result = bfs(&Counter, &[], &limits);
        assert_eq!(result.depth_reached, 2);
        assert!(!result.complete);
        assert_eq!(result.states_per_depth.len(), 3);
    }

    #[test]
    fn counts_dedup_hits_and_rates() {
        // Every "reset" successor re-reaches state 0, and every "inc"
        // successor beyond the first visit of its target is a duplicate.
        let result = bfs(&Counter, &[], &Limits::default());
        assert!(result.dedup_hits > 0);
        let rate = result.dedup_hit_rate();
        assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
        // 6 distinct states, so generated = dedup_hits + 5.
        assert_eq!(
            (result.dedup_hits as f64 / (result.dedup_hits + 5) as f64).to_bits(),
            rate.to_bits()
        );
    }

    #[test]
    fn obs_variant_emits_levels_and_gauges() {
        use equitls_obs::sink::{Obs, RecordingSink};
        use equitls_obs::summary::MetricsSummary;
        use std::sync::Arc;

        let recorder = Arc::new(RecordingSink::new());
        let obs = Obs::new(recorder.clone());
        let result = explore_with_config_jobs(
            &Counter,
            &[],
            &Limits::default(),
            &ExploreConfig::default(),
            1,
            &obs,
        );
        let summary = MetricsSummary::from_events(&recorder.events());
        // One span per expanded BFS level.
        let levels: usize = (1..=result.depth_reached)
            .filter(|d| summary.span(&format!("mc.level:{d}")).is_some())
            .count();
        assert_eq!(levels, result.depth_reached);
        assert_eq!(
            summary.counter_total("mc.states") as usize,
            result.states - 1,
            "counter covers every non-initial state"
        );
        assert!(summary.gauge("mc.states_per_sec").is_some());
        assert!(summary.gauge("mc.dedup_hit_rate").is_some());
    }

    #[test]
    fn reports_one_violation_per_property() {
        let never = |_: &u8| false;
        let result = bfs(&Counter, &[("never", &never)], &Limits::default());
        assert_eq!(result.violations.len(), 1);
        assert_eq!(result.violations[0].depth, 0);
        assert!(result.violations[0].trace.is_empty());
    }

    #[test]
    fn truncation_accounting_is_consistent_at_every_cap() {
        // The Counter space has exactly 6 states. Wherever the cap lands
        // — first frontier entry, mid-level, exactly the true count —
        // the books must balance.
        for max_states in 1..=8 {
            let limits = Limits {
                max_states,
                max_depth: 10,
            };
            let result = bfs(&Counter, &[], &limits);
            assert_eq!(
                result.states,
                max_states.min(6),
                "cap {max_states}: never exceeds the cap, never undershoots it"
            );
            assert_eq!(
                result.states_per_depth.iter().sum::<usize>(),
                result.states,
                "cap {max_states}: per-level counts sum to the state count"
            );
            assert_eq!(
                result.states_per_depth.len(),
                result.depth_reached + 1,
                "cap {max_states}: one level entry per reached depth"
            );
            assert_eq!(
                result.complete,
                result.states == 6,
                "cap {max_states}: complete iff the space was exhausted"
            );
        }
    }

    #[test]
    fn truncation_accounting_is_consistent_on_wide_frontiers() {
        // On the grid the cap can land on any frontier entry of a wide
        // level; wherever it lands, the books must balance.
        for max_states in [1, 5, 7, 12, 24, 25, 40] {
            let limits = Limits {
                max_states,
                max_depth: 16,
            };
            let result = bfs(&Grid, &[], &limits);
            assert_eq!(result.states, max_states.min(25), "cap {max_states}");
            assert_eq!(
                result.states_per_depth.iter().sum::<usize>(),
                result.states,
                "cap {max_states}"
            );
            assert_eq!(result.complete, result.states == 25, "cap {max_states}");
        }
    }

    #[test]
    fn a_grid_violation_has_a_minimal_trace() {
        let on_diagonal = |s: &(u8, u8)| s.0 != s.1 || s.0 < 3;
        let monitors: [Monitor<'_, (u8, u8)>; 1] = [("off-diagonal", &on_diagonal)];
        let result = bfs(&Grid, &monitors, &Limits::default());
        let v = result.violation("off-diagonal").expect("violated");
        // (3,3) is six unit steps from the origin, each one right or down.
        assert_eq!(v.depth, 6);
        assert_eq!(v.trace.len(), 6);
        assert_eq!(v.trace.last().map(|(_, s)| *s), Some((3, 3)));
        for (i, (_, (x, y))) in v.trace.iter().enumerate() {
            assert_eq!(usize::from(x + y), i + 1, "step {i}");
        }
    }

    #[test]
    fn states_per_sec_is_guarded_on_short_runs() {
        let mk = |states: usize, duration: Duration| Exploration::<u8> {
            states,
            depth_reached: 1,
            complete: true,
            violations: Vec::new(),
            states_per_depth: vec![1],
            dedup_hits: 0,
            stop_reason: None,
            faults: Vec::new(),
            unexpanded: 0,
            degradation: Vec::new(),
            spill_shards: 0,
            spill_bytes: 0,
            spill_reloads: 0,
            duration,
        };
        // A zero-length run cannot report a rate.
        assert_eq!(mk(100, Duration::ZERO).states_per_sec(), 0.0);
        // A 10 µs run must not extrapolate to 10M states/sec: the divisor
        // clamps at 1 ms, bounding the result.
        let fast = mk(100, Duration::from_micros(10)).states_per_sec();
        assert!((fast - 100_000.0).abs() < 1e-6, "got {fast}");
        // Runs long enough to measure divide normally.
        let slow = mk(100, Duration::from_secs(2)).states_per_sec();
        assert!((slow - 50.0).abs() < 1e-9, "got {slow}");
        // No states, no rate.
        assert_eq!(mk(0, Duration::from_secs(1)).states_per_sec(), 0.0);
    }

    #[test]
    fn structural_stops_carry_typed_reasons() {
        let capped = bfs(
            &Counter,
            &[],
            &Limits {
                max_states: 3,
                max_depth: 10,
            },
        );
        assert_eq!(capped.stop_reason, Some(StopReason::StateCapReached));
        assert!(!capped.complete);

        let shallow = bfs(
            &Counter,
            &[],
            &Limits {
                max_states: 1000,
                max_depth: 2,
            },
        );
        assert_eq!(shallow.stop_reason, Some(StopReason::DepthCapReached));
        assert!(!shallow.complete);

        let full = bfs(&Counter, &[], &Limits::default());
        assert_eq!(full.stop_reason, None);
        assert!(full.complete);
    }

    #[test]
    fn expired_deadline_yields_a_partial_consistent_exploration() {
        let config = ExploreConfig {
            budget: Budget::unlimited().with_deadline(Duration::ZERO),
            fault_plan: None,
            ..Default::default()
        };
        let result = bfs_with(&Grid, &[], &Limits::default(), &config);
        assert_eq!(result.stop_reason, Some(StopReason::DeadlineExceeded));
        assert!(!result.complete);
        assert_eq!(
            result.states_per_depth.iter().sum::<usize>(),
            result.states,
            "partial tally stays internally consistent"
        );
    }

    #[test]
    fn memory_ceiling_stops_before_the_first_expansion() {
        let config = ExploreConfig {
            budget: Budget::unlimited().with_max_heap_bytes(1),
            fault_plan: None,
            ..Default::default()
        };
        let result = bfs_with(&Grid, &[], &Limits::default(), &config);
        assert_eq!(result.stop_reason, Some(StopReason::MemoryExceeded));
        assert_eq!(result.states, 1, "only the initial state is stored");
        assert_eq!(result.states_per_depth, vec![1]);
    }

    #[test]
    fn cancel_token_stops_exploration_cooperatively() {
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let config = ExploreConfig {
            budget,
            fault_plan: None,
            ..Default::default()
        };
        let result = bfs_with(&Grid, &[], &Limits::default(), &config);
        assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
        assert!(!result.complete);
    }

    #[test]
    fn injected_deadline_truncates_a_consistent_partial_search() {
        use equitls_rewrite::budget::Fault;
        // The deadline "expires" exactly when frontier entry 7 is merged.
        let config = ExploreConfig {
            budget: Budget::unlimited(),
            fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
                FaultSite::Successor,
                FaultKind::DeadlineExpiry,
                7,
            ))),
            ..Default::default()
        };
        let seq = bfs_with(&Grid, &[], &Limits::default(), &config);
        assert_eq!(seq.stop_reason, Some(StopReason::DeadlineExceeded));
        assert!(!seq.complete);
        assert!(
            seq.states < 25,
            "the grid was truncated (got {})",
            seq.states
        );
        assert_eq!(seq.states_per_depth.iter().sum::<usize>(), seq.states);
    }

    #[test]
    fn injected_successor_panic_is_contained() {
        use equitls_rewrite::budget::Fault;
        // State 3's successor computation panics; the search must record
        // one typed fault, skip that subtree, and finish the rest.
        let config = ExploreConfig {
            budget: Budget::unlimited(),
            fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
                FaultSite::Successor,
                FaultKind::Panic,
                3,
            ))),
            ..Default::default()
        };
        let limits = Limits {
            max_states: 1000,
            max_depth: 16,
        };
        let seq = bfs_with(&Grid, &[], &limits, &config);
        assert_eq!(seq.faults.len(), 1);
        assert_eq!(seq.faults[0].site, "successor:3");
        assert!(
            seq.faults[0].message.contains("injected fault"),
            "payload surfaced: {}",
            seq.faults[0].message
        );
        assert!(seq.complete, "a contained fault is not an early stop");
        assert_eq!(seq.stop_reason, None);
    }

    fn tmp_snapshot(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("equitls_mc_{}_{name}.snap", std::process::id()))
    }

    #[test]
    fn interrupted_then_resumed_grid_matches_straight_through() {
        use equitls_rewrite::budget::Fault;
        let on_diagonal = |s: &(u8, u8)| s.0 != s.1 || s.0 < 3;
        let monitors: [Monitor<'_, (u8, u8)>; 1] = [("off-diagonal", &on_diagonal)];
        let straight = bfs(&Grid, &monitors, &Limits::default());
        // An injected deadline fires at frontier entry 7 (depth 3), or at
        // entry 22 (depth 7), after the barrier that recorded the (3,3)
        // violation: the checkpoint then carries a violation whose trace
        // the resume rebuilds.
        for entry in [7, 22] {
            let path = tmp_snapshot(&format!("grid_resume_{entry}"));
            let _ = std::fs::remove_file(&path);
            let interrupted_config = ExploreConfig {
                fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
                    FaultSite::Successor,
                    FaultKind::DeadlineExpiry,
                    entry,
                ))),
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            };
            let partial = bfs_with(&Grid, &monitors, &Limits::default(), &interrupted_config);
            assert_eq!(partial.stop_reason, Some(StopReason::DeadlineExceeded));
            assert_eq!(partial.violations.len(), usize::from(entry == 22));
            assert!(path.exists(), "a barrier checkpoint was written");
            // Resume without the fault and finish the search.
            let resume_config = ExploreConfig {
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            };
            let resumed = explore_resume_with_config_jobs(
                &Grid,
                &monitors,
                &Limits::default(),
                &resume_config,
                &Obs::noop(),
            )
            .expect("snapshot loads");
            assert_same_result(&resumed, &straight, &format!("interrupted at {entry}"));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn resuming_a_finished_exploration_replays_the_same_result() {
        let path = tmp_snapshot("grid_finished");
        let _ = std::fs::remove_file(&path);
        let config = ExploreConfig {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let straight = bfs_with(&Counter, &[], &Limits::default(), &config);
        assert!(straight.complete);
        let resumed = explore_resume_with_config_jobs(
            &Counter,
            &[],
            &Limits::default(),
            &config,
            &Obs::noop(),
        )
        .expect("snapshot loads");
        assert_eq!(resumed.states, straight.states);
        assert_eq!(resumed.complete, straight.complete);
        assert_eq!(resumed.states_per_depth, straight.states_per_depth);
        assert_eq!(resumed.dedup_hits, straight.dedup_hits);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_last_barrier_is_written_once_and_a_finished_resume_writes_nothing() {
        use equitls_obs::sink::RecordingSink;
        use equitls_obs::summary::MetricsSummary;
        use std::sync::Arc;

        let path = tmp_snapshot("written_once");
        let _ = std::fs::remove_file(&path);
        let config = ExploreConfig {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        // A run of the grid, and the explorer snapshots it wrote.
        let run = |resume: bool| {
            let recorder = Arc::new(RecordingSink::new());
            let obs = Obs::new(recorder.clone());
            let result = if resume {
                explore_resume_with_config_jobs(&Grid, &[], &full_limits(), &config, &obs)
                    .expect("snapshot loads")
            } else {
                explore_with_config_jobs(&Grid, &[], &full_limits(), &config, 1, &obs)
            };
            let summary = MetricsSummary::from_events(&recorder.events());
            (result, summary.counter_total("persist.snapshot_written"))
        };
        let (straight, writes) = run(false);
        assert!(straight.complete);
        // One write per barrier: the clean end does not repeat the last.
        assert_eq!(writes, straight.depth_reached as u64);
        let before = std::fs::read(&path).unwrap();
        let (resumed, writes) = run(true);
        assert_eq!(writes, 0, "a finished resume rewrites nothing");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_same_result(&resumed, &straight, "resumed");
        let (again, _) = run(true);
        assert_same_result(&again, &straight, "resumed twice");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_spilled_resume_with_another_shard_count_is_refused() {
        let dir = tmp_spill_dir("shard_count");
        let path = tmp_snapshot("shard_count");
        let _ = std::fs::remove_file(&path);
        let config = |spill_shards| ExploreConfig {
            checkpoint_path: Some(path.clone()),
            spill_dir: Some(dir.clone()),
            max_resident_shards: 1,
            spill_shards,
            ..Default::default()
        };
        let resume = |spill_shards| {
            explore_resume_with_config_jobs(
                &Grid,
                &[],
                &full_limits(),
                &config(spill_shards),
                &Obs::noop(),
            )
        };
        let straight = bfs_with(&Grid, &[], &full_limits(), &config(4));
        assert!(straight.spill_shards > 0, "shards went to disk");
        // Placement by hash over two shards would rewrite the shard
        // files under the four-shard manifest; the resume stops first.
        match resume(2) {
            Err(PersistError::Malformed(msg)) => assert!(msg.contains("4 shards"), "{msg}"),
            other => panic!("expected Malformed, got {:?}", other.map(|e| e.states)),
        }
        // The snapshot and its shard files are untouched: the finished
        // search resumes, and resumes again from what that resume left.
        for round in ["first", "second"] {
            let resumed = resume(4).expect("manifest snapshot loads");
            assert_same_result(&resumed, &bfs(&Grid, &[], &full_limits()), round);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_errors_are_typed_never_garbage() {
        // No checkpoint path configured.
        let result = explore_resume_with_config_jobs(
            &Grid,
            &[],
            &Limits::default(),
            &ExploreConfig::default(),
            &Obs::noop(),
        );
        assert_eq!(result.err(), Some(PersistError::MissingPath));
        // A file that is not a snapshot at all.
        let path = tmp_snapshot("garbage");
        std::fs::write(&path, b"not a snapshot").unwrap();
        let config = ExploreConfig {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let result =
            explore_resume_with_config_jobs(&Grid, &[], &Limits::default(), &config, &Obs::noop());
        assert_eq!(result.err(), Some(PersistError::BadMagic));
        let _ = std::fs::remove_file(&path);
    }

    /// A hand-built explorer checkpoint of the grid at the depth-1
    /// barrier: states `(0,0)`, `(1,0)`, `(0,1)`, both non-root states on
    /// the frontier. Each field can be bent on its own to exercise one
    /// validation of the resume path.
    struct GridCheckpoint {
        format: u8,
        depth: usize,
        tallies: Vec<usize>,
        /// `(bytes, parent, label)` per state; the bytes go inline
        /// (format 0) or into the shard files (format 1).
        states: Vec<(Vec<u8>, u64, &'static str)>,
        /// Format 1 only: the `(shard, slot)` locator and the manifest.
        locator: Vec<(u32, u32)>,
        manifest: Vec<(u64, u64)>,
        frontier: Vec<usize>,
        violations: Vec<(&'static str, usize, usize)>,
        trailing: Vec<u8>,
    }

    impl GridCheckpoint {
        fn inline() -> Self {
            GridCheckpoint {
                format: 0,
                depth: 1,
                tallies: vec![1, 2],
                states: vec![
                    (vec![0, 0], u64::MAX, ""),
                    (vec![1, 0], 0, "right@0,0"),
                    (vec![0, 1], 0, "down@0,0"),
                ],
                locator: Vec::new(),
                manifest: Vec::new(),
                frontier: vec![1, 2],
                violations: Vec::new(),
                trailing: Vec::new(),
            }
        }

        /// The same checkpoint in the manifest format: every state in
        /// shard 0 of two, whose file [`GridCheckpoint::write`] writes.
        fn spilled() -> Self {
            let mut c = Self::inline();
            c.format = 1;
            c.locator = vec![(0, 0), (0, 1), (0, 2)];
            let entries: Vec<&[u8]> = c.states.iter().map(|(b, ..)| &b[..]).collect();
            c.manifest = vec![
                (3, digest_entries(&entries)),
                (0, digest_entries::<&[u8]>(&[])),
            ];
            c
        }

        /// Write the snapshot to `path` (and, in format 1, shard 0's file
        /// under `dir`) and resume from it.
        fn resume(&self, path: &Path, dir: &Path) -> Result<Exploration<(u8, u8)>, PersistError> {
            let mut w = Writer::new();
            w.u8(self.format);
            w.usize(self.depth);
            w.usize(0);
            w.usize(self.tallies.len());
            for &n in &self.tallies {
                w.usize(n);
            }
            w.usize(self.states.len());
            for (bytes, parent, label) in &self.states {
                if self.format == 0 {
                    w.bytes(bytes);
                }
                w.u64(*parent);
                w.str(label);
            }
            if self.format == 1 {
                for &(shard, slot) in &self.locator {
                    w.u32(shard);
                    w.u32(slot);
                }
                w.usize(self.manifest.len());
                for &(len, fnv) in &self.manifest {
                    w.u64(len);
                    w.u64(fnv);
                }
                let mut shard = Writer::new();
                shard.u32(0);
                shard.usize(self.states.len());
                for (bytes, ..) in &self.states {
                    shard.bytes(bytes);
                }
                std::fs::create_dir_all(dir).unwrap();
                let file = dir.join(shard_file_name(0));
                write_snapshot(
                    &file,
                    SnapshotKind::VisitedShard,
                    &shard.into_bytes(),
                    &Obs::noop(),
                )
                .unwrap();
            }
            w.usize(self.frontier.len());
            for &idx in &self.frontier {
                w.usize(idx);
            }
            w.usize(self.violations.len());
            for &(property, depth, idx) in &self.violations {
                w.str(property);
                w.usize(depth);
                w.usize(idx);
            }
            w.usize(0);
            let mut payload = w.into_bytes();
            payload.extend_from_slice(&self.trailing);
            write_snapshot(path, SnapshotKind::Explorer, &payload, &Obs::noop()).unwrap();
            let config = ExploreConfig {
                checkpoint_path: Some(path.to_path_buf()),
                spill_dir: (self.format == 1).then(|| dir.to_path_buf()),
                spill_shards: 2,
                ..Default::default()
            };
            explore_resume_with_config_jobs(&Padded, &[], &full_limits(), &config, &Obs::noop())
        }
    }

    /// The grid, except that its decoder also takes a state's bytes with
    /// a zero byte appended: two byte strings for one state, which only
    /// the resume path's re-encode check tells apart.
    struct Padded;

    impl Model for Padded {
        type State = (u8, u8);
        fn initial(&self) -> (u8, u8) {
            Grid.initial()
        }
        fn successors(&self, s: &(u8, u8)) -> Vec<(String, (u8, u8))> {
            Grid.successors(s)
        }
        fn encode_state(&self, s: &(u8, u8)) -> Option<Vec<u8>> {
            Grid.encode_state(s)
        }
        fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
            match bytes {
                [x, y] | [x, y, 0] => Some((*x, *y)),
                _ => None,
            }
        }
    }

    #[test]
    fn every_checkpoint_validation_is_a_typed_malformed_error() {
        let path = tmp_snapshot("validation");
        let dir = tmp_spill_dir("validation");
        // The unbent checkpoints resume to the full grid.
        for base in [GridCheckpoint::inline(), GridCheckpoint::spilled()] {
            let resumed = base
                .resume(&path, &dir)
                .expect("a consistent checkpoint resumes");
            assert_same_result(&resumed, &bfs(&Grid, &[], &full_limits()), "unbent");
        }
        type Bend = fn(&mut GridCheckpoint);
        let cases: [(&str, bool, Bend, &str); 17] = [
            (
                "root parent",
                false,
                |c| c.states[0].1 = 0,
                "root state has a parent",
            ),
            (
                "forward parent",
                false,
                |c| c.states[1].1 = 2,
                "forward parent",
            ),
            (
                "tally count",
                false,
                |c| c.depth = 2,
                "per-level tallies for depth",
            ),
            ("tally sum", false, |c| c.tallies[1] = 3, "do not sum"),
            (
                "frontier index",
                false,
                |c| c.frontier[1] = 3,
                "frontier index 3",
            ),
            (
                "violation index",
                false,
                |c| c.violations.push(("p", 1, 7)),
                "violation index 7",
            ),
            (
                "undecodable",
                false,
                |c| c.states[2].0 = vec![0, 1, 9],
                "does not decode",
            ),
            (
                "duplicate",
                false,
                |c| c.states[2].0 = vec![1, 0],
                "duplicates an earlier state",
            ),
            (
                "non-canonical",
                false,
                |c| c.states[2].0 = vec![0, 1, 0],
                "does not re-encode",
            ),
            (
                "trailing",
                false,
                |c| c.trailing = vec![0],
                "trailing bytes",
            ),
            ("slots", true, |c| c.locator[2] = (0, 3), "not contiguous"),
            (
                "past manifest",
                true,
                |c| c.locator[2] = (2, 0),
                "past the manifest",
            ),
            (
                "manifest length",
                true,
                |c| c.manifest[1].0 = 1,
                "manifest length",
            ),
            (
                "shard count",
                true,
                |c| c.manifest.push((0, digest_entries::<&[u8]>(&[]))),
                "3 shards, the store has 2",
            ),
            (
                "spilled undecodable",
                true,
                |c| c.states[2].0 = vec![9],
                "does not decode",
            ),
            (
                "spilled duplicate",
                true,
                |c| c.states[2].0 = vec![0, 0],
                "duplicates an earlier",
            ),
            (
                "spilled non-canonical",
                true,
                |c| c.states[2].0 = vec![1, 0, 0],
                "does not re-encode",
            ),
        ];
        for (name, spilled, bend, needle) in cases {
            let mut checkpoint = if spilled {
                GridCheckpoint::spilled()
            } else {
                GridCheckpoint::inline()
            };
            bend(&mut checkpoint);
            if name.starts_with("spilled") {
                // The manifest covers the bent shard file: only the
                // entry itself is wrong.
                let entries: Vec<&[u8]> = checkpoint.states.iter().map(|(b, ..)| &b[..]).collect();
                checkpoint.manifest[0].1 = digest_entries(&entries);
            }
            match checkpoint.resume(&path, &dir) {
                Err(PersistError::Malformed(msg)) => {
                    assert!(msg.contains(needle), "{name}: {msg:?} lacks {needle:?}")
                }
                other => panic!(
                    "{name}: expected Malformed, got {:?}",
                    other.map(|e| e.states)
                ),
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_successor_that_does_not_encode_faults_each_parent() {
        /// The grid, except that the codec refuses the reachable state
        /// (2,2) — a model breaking the [`Model::encode_state`] contract.
        struct Holey;
        impl Model for Holey {
            type State = (u8, u8);
            fn initial(&self) -> (u8, u8) {
                Grid.initial()
            }
            fn successors(&self, s: &(u8, u8)) -> Vec<(String, (u8, u8))> {
                Grid.successors(s)
            }
            fn encode_state(&self, s: &(u8, u8)) -> Option<Vec<u8>> {
                (*s != (2, 2)).then(|| vec![s.0, s.1])
            }
            fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
                Grid.decode_state(bytes)
            }
        }
        let seq = bfs_with(&Holey, &[], &full_limits(), &ExploreConfig::default());
        // (2,2)'s parents are (2,1) and (1,2), states 7 and 8 in BFS
        // order: each faults and contributes no successors. Every other
        // state is still reached through a sibling path.
        let sites: Vec<&str> = seq.faults.iter().map(|f| f.site.as_str()).collect();
        assert_eq!(sites, ["successor:7", "successor:8"]);
        assert!(
            seq.faults
                .iter()
                .all(|f| f.message.contains("encode_state")),
            "the contract is named: {:?}",
            seq.faults
        );
        assert_eq!(seq.states, 24, "the grid minus (2,2)");
        assert!(seq.complete);
    }

    #[test]
    fn a_successor_that_does_not_decode_faults_its_parent_and_is_not_expanded() {
        /// The grid, except that the codec cannot decode the bytes of
        /// (2,2) — a model breaking the [`Model::decode_state`] contract.
        struct Undecodable;
        impl Model for Undecodable {
            type State = (u8, u8);
            fn initial(&self) -> (u8, u8) {
                Grid.initial()
            }
            fn successors(&self, s: &(u8, u8)) -> Vec<(String, (u8, u8))> {
                Grid.successors(s)
            }
            fn encode_state(&self, s: &(u8, u8)) -> Option<Vec<u8>> {
                Grid.encode_state(s)
            }
            fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
                Grid.decode_state(bytes).filter(|&s| s != (2, 2))
            }
        }
        let never = |_: &(u8, u8)| false;
        let result = bfs(&Undecodable, &[("never", &never)], &full_limits());
        // (2,2) is first reached from (2,1), state 7: it is counted, its
        // parent carries the fault, and its successors come by other
        // paths.
        let sites: Vec<&str> = result.faults.iter().map(|f| f.site.as_str()).collect();
        assert_eq!(sites, ["successor:7"]);
        assert!(result.faults[0].message.contains("does not decode"));
        assert_eq!(result.states, 25);
        assert!(result.complete);
        assert_eq!(result.violation("never").map(|v| v.depth), Some(0));
    }

    fn tmp_spill_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("equitls_mc_spill_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Limits deep enough for the grid to drain its frontier completely
    /// ([`Limits::default`] depth-caps the last corner state at 8).
    fn full_limits() -> Limits {
        Limits {
            max_states: 200_000,
            max_depth: 16,
        }
    }

    fn assert_same_result(a: &Exploration<(u8, u8)>, b: &Exploration<(u8, u8)>, tag: &str) {
        assert_eq!(a.states, b.states, "{tag}");
        assert_eq!(a.complete, b.complete, "{tag}");
        assert_eq!(a.depth_reached, b.depth_reached, "{tag}");
        assert_eq!(a.states_per_depth, b.states_per_depth, "{tag}");
        assert_eq!(a.dedup_hits, b.dedup_hits, "{tag}");
        assert_eq!(a.unexpanded, b.unexpanded, "{tag}");
        assert_eq!(a.stop_reason, b.stop_reason, "{tag}");
        assert_eq!(a.violations.len(), b.violations.len(), "{tag}");
        for (av, bv) in a.violations.iter().zip(&b.violations) {
            assert_eq!(av.property, bv.property, "{tag}");
            assert_eq!(av.depth, bv.depth, "{tag}");
            assert_eq!(av.trace, bv.trace, "{tag}");
        }
    }

    #[test]
    fn unexpanded_discloses_dropped_states() {
        use equitls_rewrite::budget::Fault;
        // A complete run drops nothing.
        let full = bfs(&Grid, &[], &full_limits());
        assert_eq!(full.unexpanded, 0);
        // A depth-capped run discloses the frontier it never expanded.
        let shallow = bfs(
            &Grid,
            &[],
            &Limits {
                max_states: 1000,
                max_depth: 2,
            },
        );
        assert_eq!(shallow.stop_reason, Some(StopReason::DepthCapReached));
        assert_eq!(
            shallow.unexpanded,
            *shallow.states_per_depth.last().unwrap(),
            "the depth-capped frontier is exactly the last level"
        );
        // A mid-level stop discloses the dropped remainder.
        let config = ExploreConfig {
            fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
                FaultSite::Successor,
                FaultKind::DeadlineExpiry,
                7,
            ))),
            ..Default::default()
        };
        let seq = bfs_with(&Grid, &[], &Limits::default(), &config);
        assert_eq!(seq.stop_reason, Some(StopReason::DeadlineExceeded));
        assert!(seq.unexpanded > 0, "a mid-level stop drops states");
        // The books balance: every state is visited, enqueued, or never
        // generated — the disclosed part is what was enqueued and dropped.
        assert_eq!(seq.states_per_depth.iter().sum::<usize>(), seq.states);
        // The structural state cap also disclosed: cap the grid at 7.
        let capped = bfs(
            &Grid,
            &[],
            &Limits {
                max_states: 7,
                max_depth: 16,
            },
        );
        assert_eq!(capped.stop_reason, Some(StopReason::StateCapReached));
        assert!(capped.unexpanded > 0);
    }

    #[test]
    fn spilled_exploration_is_bit_identical_to_resident() {
        let on_diagonal = |s: &(u8, u8)| s.0 != s.1 || s.0 < 3;
        let monitors: [Monitor<'_, (u8, u8)>; 1] = [("off-diagonal", &on_diagonal)];
        let resident = bfs(&Grid, &monitors, &Limits::default());
        assert!(!resident.all_hold());
        let dir = tmp_spill_dir("identical");
        let config = ExploreConfig {
            spill_dir: Some(dir.clone()),
            max_resident_shards: 1,
            spill_shards: 4,
            ..Default::default()
        };
        let spilled = bfs_with(&Grid, &monitors, &Limits::default(), &config);
        assert_same_result(&spilled, &resident, "spilled");
        assert!(spilled.spill_shards > 0, "shards spilled");
        assert!(
            spilled.degradation.iter().any(|d| d == "visited-spilled"),
            "degradation disclosed, got {:?}",
            spilled.degradation
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_pressure_spills_instead_of_truncating() {
        // A ceiling the resident run cannot fit (the grid needs ~3.9 KB
        // of estimate resident, ~2.6 KB unspillable): without a spill
        // dir the search truncates with the typed stop; with one it
        // completes by spilling — the same ceiling, disclosed degradation
        // instead of silence.
        let ceiling = 3000;
        let truncated = bfs_with(
            &Grid,
            &[],
            &full_limits(),
            &ExploreConfig {
                budget: Budget::unlimited().with_max_heap_bytes(ceiling),
                ..Default::default()
            },
        );
        assert_eq!(truncated.stop_reason, Some(StopReason::MemoryExceeded));
        assert!(!truncated.complete);
        assert!(truncated.unexpanded > 0, "the truncation is disclosed");

        let dir = tmp_spill_dir("pressure");
        let spilled = bfs_with(
            &Grid,
            &[],
            &full_limits(),
            &ExploreConfig {
                budget: Budget::unlimited().with_max_heap_bytes(ceiling),
                spill_dir: Some(dir.clone()),
                spill_shards: 4,
                ..Default::default()
            },
        );
        assert_eq!(spilled.stop_reason, None, "the spill tier absorbed it");
        assert!(spilled.complete);
        assert_eq!(spilled.states, 25, "the full grid");
        assert!(spilled.spill_shards > 0);
        assert!(spilled.degradation.iter().any(|d| d == "visited-spilled"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_checkpoint_resume_matches_straight_through() {
        use equitls_rewrite::budget::Fault;
        let on_diagonal = |s: &(u8, u8)| s.0 != s.1 || s.0 < 3;
        let monitors: [Monitor<'_, (u8, u8)>; 1] = [("off-diagonal", &on_diagonal)];
        let straight = bfs(&Grid, &monitors, &Limits::default());
        let dir = tmp_spill_dir("resume");
        let path = tmp_snapshot("spilled_resume");
        let spill_config = |fault_plan: Option<FaultPlan>| ExploreConfig {
            fault_plan,
            checkpoint_path: Some(path.clone()),
            spill_dir: Some(dir.clone()),
            max_resident_shards: 1,
            spill_shards: 4,
            ..Default::default()
        };
        // Interrupt mid-search, after barriers that both spilled shards
        // and wrote a manifest checkpoint: at depth 3, or at depth 7 with
        // the (3,3) violation in the checkpoint.
        for entry in [7, 22] {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_dir_all(&dir);
            let partial = bfs_with(
                &Grid,
                &monitors,
                &Limits::default(),
                &spill_config(Some(FaultPlan::new().with_fault(Fault::new(
                    FaultSite::Successor,
                    FaultKind::DeadlineExpiry,
                    entry,
                )))),
            );
            assert_eq!(partial.stop_reason, Some(StopReason::DeadlineExceeded));
            assert!(
                partial.spill_shards > 0,
                "shards went to disk before the stop"
            );
            assert!(path.exists(), "a manifest checkpoint was written");
            // Resume revalidates every shard's checksum + digest, then
            // finishes — bit-identical to the uninterrupted resident run.
            let resumed = explore_resume_with_config_jobs(
                &Grid,
                &monitors,
                &Limits::default(),
                &spill_config(None),
                &Obs::noop(),
            )
            .expect("manifest snapshot loads");
            assert_same_result(&resumed, &straight, &format!("interrupted at {entry}"));
        }
        // A byte-flipped shard file fails the resume with the typed
        // checksum error — never garbage states.
        let shard_path = dir.join(shard_file_name(0));
        assert!(shard_path.exists());
        let mut raw = std::fs::read(&shard_path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&shard_path, &raw).unwrap();
        let err = explore_resume_with_config_jobs(
            &Grid,
            &monitors,
            &Limits::default(),
            &spill_config(None),
            &Obs::noop(),
        )
        .expect_err("a corrupt shard cannot resume");
        assert_eq!(err, PersistError::ChecksumMismatch);
        // And a manifest checkpoint without its spill dir is typed too.
        let no_dir = ExploreConfig {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let err = explore_resume_with_config_jobs(
            &Grid,
            &monitors,
            &Limits::default(),
            &no_dir,
            &Obs::noop(),
        )
        .expect_err("manifest without a spill dir");
        assert!(matches!(err, PersistError::Malformed(_)), "got {err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_spill_write_fault_degrades_without_data_loss() {
        use equitls_rewrite::budget::Fault;
        let resident = bfs(&Grid, &[], &full_limits());
        let dir = tmp_spill_dir("wfault");
        // The very first shard write fails "disk full": that shard stays
        // resident (backpressure), the pass moves on, the search
        // completes with the identical result — degradation disclosed.
        let config = ExploreConfig {
            fault_plan: Some(FaultPlan::new().with_fault(
                Fault::new(FaultSite::SpillWrite, FaultKind::IoError, 0).in_scope("visited"),
            )),
            spill_dir: Some(dir.clone()),
            max_resident_shards: 1,
            spill_shards: 2,
            ..Default::default()
        };
        let faulted = bfs_with(&Grid, &[], &full_limits(), &config);
        assert!(faulted.complete, "a write fault never wedges the search");
        assert_eq!(faulted.states, resident.states);
        assert_eq!(faulted.states_per_depth, resident.states_per_depth);
        assert_eq!(faulted.dedup_hits, resident.dedup_hits);
        assert!(
            faulted
                .degradation
                .iter()
                .any(|d| d == "spill-write-failed"),
            "got {:?}",
            faulted.degradation
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_spill_read_fault_stops_typed_never_panics() {
        use equitls_rewrite::budget::Fault;
        // One shard holds everything; the memory ceiling forces it to
        // disk mid-search, and the injected corruption makes every read
        // back fail. The search must stop with the typed reason and a
        // typed fault — not panic.
        let dir = tmp_spill_dir("rfault");
        let config = ExploreConfig {
            budget: Budget::unlimited().with_max_heap_bytes(3000),
            fault_plan: Some(FaultPlan::new().with_fault(
                Fault::new(FaultSite::SpillRead, FaultKind::Corruption, 0).in_scope("visited"),
            )),
            spill_dir: Some(dir.clone()),
            spill_shards: 1,
            ..Default::default()
        };
        let seq = bfs_with(&Grid, &[], &Limits::default(), &config);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(seq.stop_reason, Some(StopReason::SpillFailed));
        assert!(!seq.complete);
        assert!(seq.unexpanded > 0, "the stop is disclosed");
        assert!(
            seq.faults.iter().any(|f| f.site == "spill:shard0"),
            "typed fault recorded: {:?}",
            seq.faults
        );
        assert_eq!(seq.states_per_depth.iter().sum::<usize>(), seq.states);
    }
}
