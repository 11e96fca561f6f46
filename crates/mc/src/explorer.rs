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
//! visited set. Only a successor the visited set inserts is copied and
//! decoded for the monitors, and it keeps its label's compact form (text
//! is rendered only for a witness trace or a checkpoint); a duplicate
//! costs one lookup.
//! Successor generation is pure, so a run's state count and numbering,
//! verdicts, violation traces and `states_per_depth`/`dedup_hits`
//! accounting depend only on the model, the limits and the config. The
//! level barriers between loops are where shards spill and checkpoints
//! land.

use crate::checkpoint::Checkpointer;
use crate::model::{Label, Model, SuccessorBatch};
use crate::visited::{Lookup, SpillError, SpillSettings, VisitedStore, SHARDS};
use equitls_obs::sink::Obs;
use equitls_persist::PersistError;
use equitls_rewrite::budget::{
    panic_message, trigger_injected_panic, Budget, FaultKind, FaultPlan, FaultSite, StopReason,
    WorkerFault,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use crate::checkpoint::explore_resume_with_config_jobs;

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
    // A fresh search seeds the initial state alone, its bytes in the
    // store and the monitors already checked against it (a root
    // violation has an empty trace).
    let root = model.initial();
    let bytes = model
        .encode_state(&root)
        .expect("Model::encode_state must encode every state the model produces");
    let mut visited = empty_store(config);
    visited
        .lookup_or_insert(&bytes, usize::MAX, obs)
        .expect("a fresh store has nothing to reload");
    let seed = SearchSeed {
        visited,
        parents: vec![(usize::MAX, Label::Text(String::new()))],
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
    };
    explore_driver(model, monitors, limits, config, obs, seed)
}

/// Mutable search state of one exploration.
pub(crate) struct Search<'m, S> {
    monitors: &'m [Monitor<'m, S>],
    pub(crate) config: &'m ExploreConfig,
    /// The dedup set: every state's canonical encoded bytes, sharded and
    /// spillable to disk under pressure.
    pub(crate) visited: VisitedStore,
    /// Every state's parent index and the label of the move from it.
    pub(crate) parents: Vec<(usize, Label)>,
    pub(crate) violations: Vec<Violation<S>>,
    /// The violating state's global index, parallel to `violations`
    /// (checkpoints store the index; the trace is rebuilt on load).
    pub(crate) violation_indices: Vec<usize>,
    /// The level barrier the search stands at: the frontier to expand
    /// next, the states found per level, and the depth reached.
    pub(crate) frontier: Vec<usize>,
    pub(crate) states_per_depth: Vec<usize>,
    pub(crate) depth: usize,
    next_frontier: Vec<usize>,
    pub(crate) dedup_hits: usize,
    pub(crate) faults: Vec<WorkerFault>,
    /// Frontier entries a stop reason prevented from being expanded.
    unexpanded: usize,
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
    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    /// The budget / fault-injection gate run **before** merging frontier
    /// entry `idx`, in frontier order. Injected stop-kind faults fire
    /// first (deterministic on every run), then the real budget. A
    /// memory-ceiling trip that the spill tier can absorb is deferred
    /// to the next barrier's spill pass instead of truncating.
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
        let budget = &self.config.budget;
        // The estimate sums every shard: only a memory ceiling reads it.
        let heap = match budget.max_heap_bytes() {
            Some(_) => self.visited.resident_estimate(),
            None => 0,
        };
        match budget.check(heap) {
            Ok(()) => None,
            Err(StopReason::MemoryExceeded) if self.visited.defer_memory_stop(budget) => None,
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
        obs: &Obs,
    ) -> Option<StopReason> {
        let (monitors, depth) = (self.monitors, self.depth);
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
                Ok(state) => trace.push((self.parents[cur].1.text().into_owned(), state)),
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
    /// generation order. Only an inserted successor has its label kept
    /// and its bytes decoded for the monitors. Returns
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
            self.parents.push((parent, batch.take_label(i)));
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
            if let Some(stop) = self.check_new_state(model, new_idx, &state, obs) {
                return Some(stop);
            }
            self.next_frontier.push(new_idx);
        }
        None
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
                    search.merge_entry(model, idx, batch, limits, obs)
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
pub(crate) struct SearchSeed {
    pub(crate) visited: VisitedStore,
    pub(crate) parents: Vec<(usize, Label)>,
    /// `(property, depth, violating state)` per violation so far;
    /// `explore_driver` rebuilds each witness trace from the store.
    pub(crate) violations: Vec<(String, usize, usize)>,
    pub(crate) dedup_hits: usize,
    pub(crate) faults: Vec<WorkerFault>,
    pub(crate) frontier: Vec<usize>,
    pub(crate) states_per_depth: Vec<usize>,
    pub(crate) depth: usize,
    /// Whether the seed was read from the snapshot at the config's
    /// checkpoint path, which then already holds its barrier.
    pub(crate) resumed: bool,
}

/// An empty visited store shaped by `config`: its spill tier when a
/// spill directory is set.
pub(crate) fn empty_store(config: &ExploreConfig) -> VisitedStore {
    let spill = config.spill_dir.clone().map(|dir| SpillSettings {
        dir,
        fault_plan: config.fault_plan.clone(),
    });
    VisitedStore::new(SHARDS, spill)
}

/// The level-synchronous BFS driver, from either starting point (a fresh
/// search, or a decoded checkpoint). Each level is expanded by
/// [`expand_level`].
pub(crate) fn explore_driver<M: Model>(
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
        frontier: seed.frontier,
        states_per_depth: seed.states_per_depth,
        depth: seed.depth,
        next_frontier: Vec::new(),
        dedup_hits: seed.dedup_hits,
        faults: seed.faults,
        unexpanded: 0,
        timed: obs.enabled(),
        succ_time: Duration::ZERO,
        dedup_time: Duration::ZERO,
    };
    // The successors of the entry being expanded, reused across entries.
    let mut batch = SuccessorBatch::default();
    let mut checkpoints = Checkpointer::new(seed.resumed.then_some(seed.depth));
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
    let (budget, cap) = (&config.budget, config.max_resident_shards);
    if stop.is_none() {
        stop = search.visited.barrier_spill(budget, cap, obs);
    }
    if stop.is_none() {
        stop = budget.check(search.visited.resident_estimate()).err();
    }

    while stop.is_none() && !search.frontier.is_empty() && search.depth < limits.max_depth {
        search.depth += 1;
        let depth = search.depth;
        let _level = obs.span(&format!("mc.level:{depth}"));
        let level_start = search.len();
        let level_faults = search.faults.len();
        let (succ_before, dedup_before) = (search.succ_time, search.dedup_time);
        let dedup_hits_before = search.dedup_hits;
        let frontier = std::mem::take(&mut search.frontier);
        stop = expand_level(model, &mut search, &mut batch, &frontier, limits, obs);
        search.states_per_depth.push(search.len() - level_start);
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
        search.frontier = std::mem::take(&mut search.next_frontier);
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
                search.frontier.len(),
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
            stop = search.visited.barrier_spill(budget, cap, obs);
        }
        if stop.is_none() {
            checkpoints.write(&mut search, false, obs);
        }
    }
    // A frontier left unexpanded by the depth cap is also an early stop.
    if stop.is_none() && !search.frontier.is_empty() {
        stop = Some(StopReason::DepthCapReached);
    }
    if stop.is_none() || stop == Some(StopReason::DepthCapReached) {
        checkpoints.write(&mut search, true, obs);
    }
    // Truncation disclosure: everything still enqueued when the search
    // stopped — the dropped remainder of an interrupted level plus the
    // frontier that never got its level (also the depth-capped case).
    let unexpanded = search.unexpanded + stop.map_or(0, |_| search.frontier.len());
    let spill = search.visited.stats();
    let result = Exploration {
        states: search.len(),
        depth_reached: search.depth,
        complete: stop.is_none(),
        violations: search.violations,
        states_per_depth: search.states_per_depth,
        dedup_hits: search.dedup_hits,
        stop_reason: stop,
        faults: search.faults,
        unexpanded,
        degradation: search.visited.degradation,
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
