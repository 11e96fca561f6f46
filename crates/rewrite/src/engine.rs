//! The normalizer: CafeOBJ's `red` command, reconstructed.
//!
//! [`Normalizer::normalize`] rewrites a term to normal form using, in
//! order of priority:
//!
//! 1. **assumption rules** — the equations declared inside the current
//!    proof passage (`eq b1 = intruder .`, `eq (b = intruder) = false .`);
//! 2. **specification rules** — the equations of the protocol modules;
//! 3. **built-in layers** — the free-constructor equality procedure
//!    ([`crate::equality`]) and the Boolean-ring normal form
//!    ([`crate::boolring`]).
//!
//! Rewriting is innermost (arguments first), with memoization keyed on
//! hash-consed [`TermId`]s and a fuel bound that turns accidental
//! divergence into a reported error instead of a hang.
//!
//! Candidate rules at each root are found through a discrimination-tree
//! index ([`crate::rule::PathIndex`], built lazily on first use) that
//! prunes structurally incompatible rules before any matcher runs; the
//! index returns candidates in declaration order, so firing order — and
//! therefore every result and every [`RewriteStats`] counter — is
//! bit-identical to the linear scan it replaces
//! ([`Normalizer::set_indexing`] restores the scan for comparison). The
//! memo is one bounded cache indexed by term id, cleared when it
//! overflows (see [`Normalizer::set_cache_capacity`]). Beside it sits a
//! polynomial cache: every canonical Boolean form the ring layer rebuilds
//! keeps its polynomial's [`PolyId`], so a connective over already-normal
//! children reads its operands' polynomials instead of re-parsing them
//! (and re-deciding their equality atoms). The two caches share one
//! lifetime: they are filled, cleared and disabled together.
//!
//! Every polynomial lives in the normalizer's [`PolyStore`], which
//! interns it once and memoizes sums, products and the term each one
//! rebuilds to. Those memos are pure functions of their operands, so they
//! are not scoped and no assumption clears them; they live as long as the
//! normalizer, which the prover keeps for one obligation, between the
//! spec's mark and its rollback, so no memoized term id goes stale. The
//! store is the only path from a polynomial to a term. It is emptied only
//! at a [`Normalizer::normalize`] entry, once it holds more polynomials
//! than the cache capacity, and the polynomial cache goes with it.
//!
//! ## Scopes
//!
//! The prover explores case splits the way CafeOBJ's `open … close`
//! passages do (PAPER §2.4): [`Normalizer::push_scope`] opens a passage
//! on the one normalizer, the branch adds its assumptions, and
//! [`Normalizer::pop_scope`] closes it, restoring the assumptions, the
//! infeasibility flag, the Boolean vocabulary and both caches exactly as
//! they were at the push. A cache clear is an epoch bump, and each cache
//! restores itself at the pop from one log of the slots the scope wrote
//! (see the `cache` module). Statistics, profiles and the fault-injection
//! call counter are *not* scoped: they accumulate over the whole session.
//!
//! ## Blocked conditions
//!
//! When a conditional rule matches but its condition normalizes to neither
//! `true` nor `false`, the rule cannot fire. The normalizer records the
//! normalized condition as **blocked**. The inductive prover in
//! `equitls-core` reads these to choose its next case split — mirroring how
//! the paper's authors chose the five sub-cases of `fakeSfin2` in §5.2 by
//! looking at which effective conditions were undecided.

use crate::assumption::orient_equation;
use crate::bool_alg::BoolAlg;
use crate::boolring::{Poly, PolyId, PolyStore};
use crate::budget::{trigger_injected_panic, Budget, FaultKind, FaultPlan, FaultSite, StopReason};
use crate::cache::TermCache;
use crate::equality::{decide_equality, EqVerdict};
use crate::error::RewriteError;
use crate::rule::{PathIndex, RuleSet};
use equitls_kernel::matching::{match_term, MatchOutcome};
use equitls_kernel::prelude::*;
use equitls_kernel::term::Term;
use equitls_obs::sink::Obs;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters describing one normalizer's work so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Rule applications (assumption + specification rules).
    pub rewrites: u64,
    /// Memoization hits.
    pub cache_hits: u64,
    /// Memoization misses (full normalizations).
    pub cache_misses: u64,
    /// Boolean-ring normal form computations.
    pub bool_normalizations: u64,
    /// Free-constructor equality decisions.
    pub eq_decisions: u64,
    /// Conditional-rule attempts whose condition stayed undecided.
    pub blocked_conditions: u64,
    /// Memo clears forced by the memo-cache capacity bound (see
    /// [`Normalizer::set_cache_capacity`]).
    pub cache_evictions: u64,
}

impl RewriteStats {
    /// Sum of two stats records.
    pub fn merged(self, other: RewriteStats) -> RewriteStats {
        RewriteStats {
            rewrites: self.rewrites + other.rewrites,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            bool_normalizations: self.bool_normalizations + other.bool_normalizations,
            eq_decisions: self.eq_decisions + other.eq_decisions,
            blocked_conditions: self.blocked_conditions + other.blocked_conditions,
            cache_evictions: self.cache_evictions + other.cache_evictions,
        }
    }

    /// Fraction of memo-cache lookups that hit, in `[0, 1]` (0 before any
    /// lookup happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

impl fmt::Display for RewriteStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rewrites, cache {}/{} ({:.1}% hit, {} evictions), \
             {} bool normalizations, {} eq decisions, {} blocked conditions",
            self.rewrites,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.cache_evictions,
            self.bool_normalizations,
            self.eq_decisions,
            self.blocked_conditions,
        )
    }
}

/// Counters for the candidate-rule index. Kept apart from
/// [`RewriteStats`] on purpose: the index prunes rules that could never
/// have matched, so a `RewriteStats` snapshot is bit-identical with the
/// index on or off, and these counters carry the (mode-dependent)
/// bookkeeping instead. Emitted by [`Normalizer::emit_profile`] as
/// `rewrite.index_*` counters so `tls-trace summarize` shows the win.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Discrimination-tree traversals (one per indexed root attempt).
    pub index_lookups: u64,
    /// Candidate rules the index returned across all lookups.
    pub index_candidates: u64,
    /// Rules sharing the root operator that the index proved structurally
    /// incompatible before any matcher ran.
    pub index_pruned: u64,
}

impl EngineCounters {
    /// Sum of two counter records.
    pub fn merged(self, other: EngineCounters) -> EngineCounters {
        EngineCounters {
            index_lookups: self.index_lookups + other.index_lookups,
            index_candidates: self.index_candidates + other.index_candidates,
            index_pruned: self.index_pruned + other.index_pruned,
        }
    }
}

/// Per-rule profile: how often a named rule was tried, failed to match,
/// fired, or blocked, and the cumulative time spent on it. Collected only
/// when [`Normalizer::set_profiling`] is on.
///
/// `time` is inclusive: it covers matching *and* normalizing the rule's
/// condition (which may recursively rewrite), so it measures what the rule
/// actually costs the engine, not just its pattern match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// The rule's label.
    pub label: String,
    /// Times the rule was a head-indexed candidate.
    pub attempts: u64,
    /// Times its left-hand side failed to match.
    pub failures: u64,
    /// Times it rewrote the subject.
    pub fires: u64,
    /// Times its condition stayed undecided.
    pub blocked: u64,
    /// Cumulative time spent matching and deciding conditions.
    pub time: Duration,
}

/// Default fuel budget per top-level [`Normalizer::normalize`] call.
pub const DEFAULT_FUEL: u64 = 5_000_000;

/// Default memo-cache capacity (live entries). The caches' slot arrays
/// grow with the largest term id they hold, 8 bytes a slot, so the term
/// store bounds their memory; the capacity bounds the live entries: long
/// prover runs clear the cache instead of growing without bound (clears
/// are counted in [`RewriteStats::cache_evictions`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// A rewriting session: rules + assumptions + caches.
///
/// The prover explores case splits on one normalizer, inside nested
/// scopes ([`Normalizer::push_scope`] / [`Normalizer::pop_scope`]): each
/// branch pushes a scope, adds its assumptions, and pops back to exactly
/// the parent's state.
#[derive(Debug)]
pub struct Normalizer {
    alg: BoolAlg,
    /// Specification rules, behind an `Arc` so a spec and every
    /// normalizer made from it share one copy.
    rules: Arc<RuleSet>,
    assumptions: RuleSet,
    /// Memoized normal forms, bounded by `cache_capacity`.
    memo: TermCache<TermId>,
    /// Polynomials of the canonical Boolean forms in `memo` (keys are the
    /// rebuilt terms that normalized to themselves). Cleared with the memo.
    polys: TermCache<PolyId>,
    /// Every polynomial of the session, with memoized ring operations and
    /// terms. Not scoped; see the [module documentation](self).
    ring: PolyStore,
    cache_capacity: usize,
    /// Open scopes, innermost last.
    scopes: Vec<Scope>,
    /// While [`Normalizer::refresh_assumptions`] re-normalizes assumption
    /// *i* under the others, `Some(i)`: rule *i* (and any trivial `l → l`
    /// rule) is skipped when collecting assumption candidates.
    refresh_mask: Option<usize>,
    /// Discrimination-tree index over `rules`, built lazily on first
    /// root-matching attempt and shared with the rule set it indexes.
    index: Option<Arc<PathIndex>>,
    use_index: bool,
    index_scratch: Vec<TermId>,
    candidate_scratch: Vec<usize>,
    /// The root-rewrite candidate buffer, reused across
    /// [`Normalizer::apply_rules_at_root`] calls.
    rule_scratch: Vec<Candidate>,
    counters: EngineCounters,
    blocked: Vec<TermId>,
    stats: RewriteStats,
    fuel: u64,
    fuel_limit: u64,
    depth: u32,
    max_depth: u32,
    infeasible: bool,
    /// `true` while every assumption is ground, so every pair
    /// [`Normalizer::refresh_assumptions`] derives from them is a valid
    /// rule without re-validation.
    ground: bool,
    obs: Obs,
    profiling: bool,
    profiles: HashMap<String, RuleProfile>,
    budget: Budget,
    fault: Option<FaultHook>,
}

/// Fault-injection bookkeeping for one rewriting session. The call
/// counter is not scoped: the prover searches every case split of an
/// obligation on one normalizer, so "the *N*-th rewrite call of this
/// obligation" counts across branches — and, because each obligation's
/// search is sequential, is deterministic at every `jobs` value.
#[derive(Debug)]
struct FaultHook {
    plan: FaultPlan,
    scope: String,
    calls: u64,
}

impl FaultHook {
    /// Advance the rewrite-call counter and return the call index paired
    /// with the fault planned for it, if any.
    fn tick(&mut self) -> Option<(u64, FaultKind)> {
        let n = self.calls;
        self.calls += 1;
        self.plan
            .fault_for(FaultSite::Rewrite, &self.scope, n)
            .map(|kind| (n, kind))
    }
}

/// A rule tried at the root: left-hand side, right-hand side, condition,
/// and the rule's label when profiling.
type Candidate = (TermId, TermId, Option<TermId>, Option<String>);

/// What [`Normalizer::pop_scope`] restores besides the caches, which
/// keep their own scopes (see [`TermCache`]).
#[derive(Debug)]
struct Scope {
    assumptions: RuleSet,
    infeasible: bool,
    alg: BoolAlg,
    ground: bool,
}

/// Default recursion depth bound (guards the stack before fuel runs out).
///
/// Chosen to stay within a 2 MiB thread stack even in debug builds; the
/// TLS proofs never exceed depth ~100 (balanced Boolean rebuilds keep
/// polynomial terms logarithmic). Raise with
/// [`Normalizer::set_max_depth`] when normalizing unusually deep data on
/// a big-stack thread.
pub const DEFAULT_MAX_DEPTH: u32 = 300;

impl Normalizer {
    /// Create a normalizer over the given Boolean vocabulary and
    /// specification rules. Passing an `Arc<RuleSet>` shares the rules
    /// instead of copying them.
    pub fn new(alg: BoolAlg, rules: impl Into<Arc<RuleSet>>) -> Self {
        Normalizer {
            alg,
            rules: rules.into(),
            assumptions: RuleSet::new(),
            memo: TermCache::new(),
            polys: TermCache::new(),
            ring: PolyStore::new(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            scopes: Vec::new(),
            refresh_mask: None,
            index: None,
            use_index: true,
            index_scratch: Vec::new(),
            candidate_scratch: Vec::new(),
            rule_scratch: Vec::new(),
            counters: EngineCounters::default(),
            blocked: Vec::new(),
            stats: RewriteStats::default(),
            fuel: DEFAULT_FUEL,
            fuel_limit: DEFAULT_FUEL,
            depth: 0,
            max_depth: DEFAULT_MAX_DEPTH,
            infeasible: false,
            ground: true,
            obs: Obs::noop(),
            profiling: false,
            profiles: HashMap::new(),
            budget: Budget::unlimited(),
            fault: None,
        }
    }

    /// Attach a shared [`Budget`]. The normalizer checks it at every
    /// [`Normalizer::normalize`] entry and on a stride of the fuel counter,
    /// and reports a trip as [`RewriteError::BudgetExceeded`] — a partial,
    /// recoverable stop, unlike fuel exhaustion which signals divergence.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The budget currently attached (unlimited by default).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Install a fault-injection plan for this session, scoped to `scope`
    /// (the prover passes the obligation name; tests may pass `""`). Resets
    /// the session's rewrite-call counter.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, scope: impl Into<String>) {
        self.fault = Some(FaultHook {
            plan,
            scope: scope.into(),
            calls: 0,
        });
    }

    /// Override the per-call fuel budget.
    pub fn set_fuel_limit(&mut self, fuel: u64) {
        self.fuel_limit = fuel;
    }

    /// Override the memo-cache capacity (entries; see
    /// [`DEFAULT_CACHE_CAPACITY`]). An insert into a full cache clears it
    /// first, and [`RewriteStats::cache_evictions`] counts the clear. A
    /// capacity of 0 disables memoization, the polynomial cache included:
    /// every normalization then runs from scratch. The same number bounds
    /// the polynomials of the [`PolyStore`], which
    /// [`Normalizer::normalize`] empties on entry once it holds more; that
    /// clear is not counted as an eviction.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache_capacity = capacity;
        if self.memo.len() > capacity {
            self.clear_caches();
            self.stats.cache_evictions += 1;
        }
    }

    /// Memoize `value` as the normal form of `key`, clearing the caches
    /// first when the memo is full.
    fn cache_insert(&mut self, key: TermId, value: TermId) {
        if self.cache_capacity == 0 {
            return;
        }
        if self.memo.len() >= self.cache_capacity {
            self.clear_caches();
            self.stats.cache_evictions += 1;
        }
        self.memo.insert(key, value);
    }

    /// Cache `poly` as the polynomial of the canonical form `key` (which
    /// the caller has just memoized as its own normal form).
    fn poly_insert(&mut self, key: TermId, poly: PolyId) {
        if self.cache_capacity == 0 {
            return;
        }
        self.polys.insert(key, poly);
    }

    /// Empty the polynomial store. Every [`PolyId`] dies with it, so the
    /// polynomial cache goes too, at every level: no open scope gets a
    /// polynomial back at its pop.
    fn clear_ring(&mut self) {
        self.ring = PolyStore::new();
        self.polys.reset();
    }

    /// Empty both caches: an epoch bump each. Open scopes get their
    /// entries back at their pops.
    fn clear_caches(&mut self) {
        self.memo.clear();
        self.polys.clear();
    }

    /// Open a scope: a case-split branch (CafeOBJ's `open`). Everything a
    /// branch may change — assumptions, [`Normalizer::is_infeasible`], the
    /// Boolean vocabulary and both caches — is restored by the matching
    /// [`Normalizer::pop_scope`]. Scopes nest.
    ///
    /// Each cache saves its epoch and live-entry count, and logs the
    /// previous content of every slot the scope writes; a clear inside the
    /// scope is an epoch bump. The pop replays the log backwards and
    /// restores the epoch and count, so the parent, and a sibling branch
    /// pushed after the pop, sees exactly the caches it had before. Which
    /// entries later normalizations hit — and therefore which conditions
    /// they report blocked — does not depend on what a sibling branch did.
    pub fn push_scope(&mut self) {
        self.scopes.push(Scope {
            assumptions: self.assumptions.clone(),
            infeasible: self.infeasible,
            alg: self.alg.clone(),
            ground: self.ground,
        });
        self.memo.push();
        self.polys.push();
    }

    /// Close the innermost scope (CafeOBJ's `close`), restoring the state
    /// saved by [`Normalizer::push_scope`].
    ///
    /// # Panics
    ///
    /// When no scope is open.
    pub fn pop_scope(&mut self) {
        let scope = self.scopes.pop().expect("pop_scope without push_scope");
        self.assumptions = scope.assumptions;
        self.infeasible = scope.infeasible;
        self.alg = scope.alg;
        self.ground = scope.ground;
        self.memo.pop();
        self.polys.pop();
    }

    /// Attach an observability handle; counters and gauges flow to its
    /// sink. The default handle is the no-op sink, which costs one boolean
    /// test per instrumented site.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Toggle per-rule profiling (see [`RuleProfile`]). Off by default:
    /// profiling clones rule labels and reads the monotonic clock on every
    /// candidate attempt, which costs a few percent on hot proofs.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Emit the collected per-rule profiles and engine gauges as
    /// observability events (`rule.attempts:<label>`,
    /// `rule.fires:<label>`, `rule.failures:<label>`,
    /// `rule.blocked:<label>`, `rule.time_us:<label>`, plus cache
    /// hit-rate and fuel gauges), then clear the profiles. Zero-valued
    /// counters are skipped: most of the 415 TLS rules never block, and
    /// the trace should not carry hundreds of zero lines per obligation.
    /// A no-op when the handle is disabled.
    pub fn emit_profile(&mut self) {
        if !self.obs.enabled() {
            return;
        }
        for p in self.profiles.values() {
            let emit = |kind: &str, value: u64| {
                if value > 0 {
                    self.obs.counter(&format!("rule.{kind}:{}", p.label), value);
                }
            };
            emit("attempts", p.attempts);
            emit("fires", p.fires);
            emit("failures", p.failures);
            emit("blocked", p.blocked);
            emit("time_us", p.time.as_micros() as u64);
        }
        self.profiles.clear();
        self.obs
            .gauge("rewrite.cache_hit_rate", self.stats.cache_hit_rate());
        self.obs.gauge("rewrite.fuel_remaining", self.fuel as f64);
        self.obs.counter("rewrite.rewrites", self.stats.rewrites);
        // Index counters, zero-skipped like the rule profiles (linear-scan
        // runs should not emit noise).
        let c = self.counters;
        for (name, value) in [
            ("rewrite.index_lookups", c.index_lookups),
            ("rewrite.index_candidates", c.index_candidates),
            ("rewrite.index_pruned", c.index_pruned),
        ] {
            if value > 0 {
                self.obs.counter(name, value);
            }
        }
    }

    /// Override the recursion-depth bound (see [`DEFAULT_MAX_DEPTH`]).
    pub fn set_max_depth(&mut self, depth: u32) {
        self.max_depth = depth;
    }

    /// The Boolean vocabulary in use.
    pub fn bool_alg(&self) -> &BoolAlg {
        &self.alg
    }

    /// The specification rules in use.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> RewriteStats {
        self.stats
    }

    /// Index counters accumulated so far (see
    /// [`EngineCounters`]).
    pub fn engine_counters(&self) -> EngineCounters {
        self.counters
    }

    /// Toggle the discrimination-tree candidate index (on by default).
    /// With the index off, candidates come from the per-head linear scan;
    /// results and [`RewriteStats`] are identical either way — the flag
    /// exists so benchmarks and determinism tests can compare the paths.
    pub fn set_indexing(&mut self, on: bool) {
        self.use_index = on;
    }

    /// Add an assumption equation `lhs = rhs`, used as a highest-priority
    /// rewrite rule. Clears the caches.
    ///
    /// # Errors
    ///
    /// [`RewriteError::InvalidRule`] for malformed assumptions.
    pub fn assume(
        &mut self,
        store: &TermStore,
        label: impl Into<String>,
        lhs: TermId,
        rhs: TermId,
    ) -> Result<(), RewriteError> {
        self.assumptions.add(store, label, lhs, rhs, None, None)?;
        self.ground &= store.is_ground(lhs) && store.is_ground(rhs);
        self.clear_caches();
        Ok(())
    }

    /// The assumptions currently in force (proof-passage equations).
    pub fn assumptions(&self) -> &RuleSet {
        &self.assumptions
    }

    /// `true` when the assumptions were detected to be jointly
    /// contradictory by [`Normalizer::refresh_assumptions`] — the current
    /// proof case is unreachable and discharges vacuously.
    pub fn is_infeasible(&self) -> bool {
        self.infeasible
    }

    /// Re-normalize every assumption under all the others — a bounded
    /// completion pass.
    ///
    /// The paper's proof passages list their assumption equations in a
    /// carefully chosen order so that each rewrites the later ones (§5.2's
    /// nine equations). The prover instead installs assumptions as case
    /// splits discover them, so an orientation learned late (`e10 →
    /// esfin(…)`) can strand an earlier assumption
    /// (`e10 \in cesfin(nw(s)) = true`) whose left-hand side no longer
    /// occurs in any normalized subject. This pass rewrites each
    /// assumption to canonical form and re-orients it; contradictory
    /// assumption sets set the [`Normalizer::is_infeasible`] flag.
    ///
    /// # Errors
    ///
    /// Rewriting errors (fuel, budget). Before an error is returned the
    /// caches are cleared, since they may hold normal forms computed with
    /// one assumption masked.
    pub fn refresh_assumptions(&mut self, store: &mut TermStore) -> Result<(), RewriteError> {
        let refreshed = self.refresh_rounds(store);
        if refreshed.is_err() {
            self.clear_caches();
        }
        refreshed
    }

    /// The rounds of [`Normalizer::refresh_assumptions`].
    ///
    /// A pair keeps its assumption's label unless orientation splits it
    /// into several equations, which are numbered `label#k`.
    fn refresh_rounds(&mut self, store: &mut TermStore) -> Result<(), RewriteError> {
        for _round in 0..4 {
            let pairs: Vec<(TermId, TermId)> =
                self.assumptions.iter().map(|r| (r.lhs, r.rhs)).collect();
            if pairs.is_empty() {
                return Ok(());
            }
            let mut changed = false;
            // The next round's pairs: the assumption each came from, its
            // number when orientation split that assumption, and sides.
            let mut next: Vec<(usize, Option<usize>, TermId, TermId)> =
                Vec::with_capacity(pairs.len());
            for (i, &(l, r)) in pairs.iter().enumerate() {
                // Normalize pair i under all other (current-round) pairs:
                // the mask hides rule i from the candidate scan.
                self.refresh_mask = Some(i);
                self.clear_caches();
                self.fuel = self.fuel_limit;
                // A failed left side ends the refresh: the right side is
                // not rewritten, so it neither spends work nor advances
                // the fault plan's call counter.
                let sides = self
                    .norm(store, l)
                    .and_then(|ln| Ok((ln, self.norm(store, r)?)));
                self.refresh_mask = None;
                let (ln, rn) = sides?;
                if ln != l || rn != r {
                    changed = true;
                }
                if ln == rn {
                    continue; // trivial
                }
                // Bool-valued assumptions keep their `term -> constant`
                // shape; everything else is re-oriented.
                let keep_direct = self.alg.as_constant(store, rn).is_some()
                    || store.sort_of(rn) == self.alg.sort();
                if keep_direct {
                    if let (Some(a), Some(b)) = (
                        self.alg.as_constant(store, ln),
                        self.alg.as_constant(store, rn),
                    ) {
                        if a != b {
                            self.infeasible = true;
                        }
                        continue;
                    }
                    // Never install a truth constant as a left-hand side.
                    if self.alg.as_constant(store, ln).is_some() {
                        next.push((i, None, rn, ln));
                    } else {
                        next.push((i, None, ln, rn));
                    }
                } else {
                    let verdict = decide_equality(store, &mut self.alg, ln, rn)?;
                    if verdict == EqVerdict::False {
                        self.infeasible = true;
                        continue;
                    }
                    let oriented = orient_equation(store, &mut self.alg, ln, rn)?;
                    let split = oriented.len() > 1;
                    for (k, (l2, r2)) in oriented.into_iter().enumerate() {
                        if l2 != r2 {
                            next.push((i, split.then_some(k), l2, r2));
                        }
                    }
                }
            }
            // Rebuild the assumption set. Pairs derived from ground
            // assumptions are ground, sort-correct and headed by an
            // operator, so they skip `RuleSet::add`'s validation.
            let mut rebuilt = RuleSet::new();
            for &(i, k, l, r) in &next {
                // Skip exact duplicates.
                if rebuilt.iter().any(|r0| r0.lhs == l && r0.rhs == r) {
                    continue;
                }
                let source = &self.assumptions.get(i).expect("a pair's own rule").label;
                let label = match k {
                    Some(k) => format!("{source}#{k}"),
                    None => source.clone(),
                };
                if self.ground {
                    rebuilt.add_ground(store, label, l, r);
                } else {
                    rebuilt.add(store, label, l, r, None, None)?;
                }
            }
            self.assumptions = rebuilt;
            self.clear_caches();
            if !changed {
                break;
            }
        }
        Ok(())
    }

    /// Drain the conditions that blocked conditional rules since the last
    /// call. Each entry is a normalized, undecided Bool term.
    pub fn take_blocked(&mut self) -> Vec<TermId> {
        std::mem::take(&mut self.blocked)
    }

    /// Normalize `t` to its canonical form.
    ///
    /// # Errors
    ///
    /// [`RewriteError::FuelExhausted`] on runaway rewriting;
    /// [`RewriteError::BudgetExceeded`] when the attached [`Budget`] trips
    /// (deadline, memory ceiling, or cancellation); kernel errors on
    /// (impossible for validated rules) ill-sorted construction.
    pub fn normalize(&mut self, store: &mut TermStore, t: TermId) -> Result<TermId, RewriteError> {
        self.check_budget(store, t)?;
        // No `PolyId` is held across an entry, so only here may the store
        // be emptied.
        if self.ring.poly_count() > self.cache_capacity {
            self.clear_ring();
        }
        self.fuel = self.fuel_limit;
        self.norm(store, t)
    }

    /// Normalize `t` and report whether it is `true` — the paper's
    /// `red <formula> .` returning `true`.
    ///
    /// # Errors
    ///
    /// Same as [`Normalizer::normalize`].
    pub fn proves(&mut self, store: &mut TermStore, t: TermId) -> Result<bool, RewriteError> {
        let n = self.normalize(store, t)?;
        Ok(self.alg.as_constant(store, n) == Some(true))
    }

    /// Normalize `t` and return its Boolean-ring polynomial.
    ///
    /// The polynomial view exposes the atoms the prover can split on.
    ///
    /// # Errors
    ///
    /// Same as [`Normalizer::normalize`].
    pub fn normalize_to_poly(
        &mut self,
        store: &mut TermStore,
        t: TermId,
    ) -> Result<Poly, RewriteError> {
        let n = self.normalize(store, t)?;
        if let Some(b) = self.alg.as_constant(store, n) {
            return Ok(Poly::constant(b));
        }
        if store.sort_of(n) != self.alg.sort() {
            return Err(RewriteError::InvalidRule {
                label: "normalize_to_poly".into(),
                reason: "term is not Bool-sorted".into(),
            });
        }
        let poly = self.poly_of(store, n)?;
        Ok(self.ring.get(poly).clone())
    }

    /// The normalizer's polynomial store. Its ids stay valid until a
    /// [`Normalizer::normalize`] call empties it (see
    /// [`Normalizer::set_cache_capacity`]).
    pub fn poly_store(&mut self) -> &mut PolyStore {
        &mut self.ring
    }

    /// Build the enriched fuel/depth-exhaustion error: the offending term,
    /// the budget, and a snapshot of the engine counters, so a divergence
    /// report is actionable without re-running under a debugger.
    fn exhausted(&self, store: &TermStore, t: TermId) -> RewriteError {
        RewriteError::FuelExhausted {
            term: store.display(t).to_string(),
            fuel_limit: self.fuel_limit,
            stats: self.stats.to_string(),
        }
    }

    /// Build the budget-stop error for the term being normalized.
    fn stopped(&self, store: &TermStore, t: TermId, reason: StopReason) -> RewriteError {
        RewriteError::BudgetExceeded {
            reason,
            term: store.display(t).to_string(),
        }
    }

    /// Estimate of this session's heap footprint (bytes): hash-consed term
    /// arena, the live memo and polynomial caches, and the polynomial
    /// store ([`PolyStore::resident_estimate`]). Coarse by design — the
    /// budget's memory ceiling is a tripwire on growth, not an allocator
    /// audit.
    fn heap_estimate(&self, store: &TermStore) -> u64 {
        let caches = (self.memo.len() + self.polys.len()) as u64;
        (store.term_count() as u64) * 96 + caches * 40 + self.ring.resident_estimate()
    }

    /// Check the shared budget, translating a trip into a typed error.
    fn check_budget(&self, store: &TermStore, t: TermId) -> Result<(), RewriteError> {
        self.budget
            .check(self.heap_estimate(store))
            .map_err(|reason| self.stopped(store, t, reason))
    }

    fn consume_fuel(&mut self, store: &TermStore, t: TermId) -> Result<(), RewriteError> {
        if let Some(hook) = &mut self.fault {
            match hook.tick() {
                Some((n, FaultKind::Panic)) => {
                    trigger_injected_panic(FaultSite::Rewrite, &hook.scope, n);
                }
                Some((_, FaultKind::FuelStarvation)) => self.fuel = 0,
                Some((_, FaultKind::DeadlineExpiry)) => {
                    return Err(self.stopped(store, t, StopReason::DeadlineExceeded));
                }
                Some((_, FaultKind::Cancel)) => {
                    self.budget.cancel();
                    return Err(self.stopped(store, t, StopReason::Cancelled));
                }
                // Persist-layer kinds are meaningless at a rewrite step:
                // the persist and spill I/O sites consult the plan
                // themselves, so an IoError or Corruption planned here
                // is simply inert.
                Some((_, FaultKind::IoError)) | Some((_, FaultKind::Corruption)) | None => {}
            }
        }
        if self.fuel == 0 {
            return Err(self.exhausted(store, t));
        }
        self.fuel -= 1;
        // Real budget checks are strided: `Instant::now` on every rewrite
        // would dominate hot proofs.
        if self.fuel & 511 == 0 {
            self.check_budget(store, t)?;
        }
        Ok(())
    }

    fn norm(&mut self, store: &mut TermStore, t: TermId) -> Result<TermId, RewriteError> {
        if let Some(r) = self.memo.get(t) {
            self.stats.cache_hits += 1;
            return Ok(r);
        }
        self.stats.cache_misses += 1;
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(self.exhausted(store, t));
        }
        let result = self.norm_uncached(store, t);
        self.depth -= 1;
        let result = result?;
        self.cache_insert(t, result);
        self.cache_insert(result, result);
        Ok(result)
    }

    fn norm_uncached(&mut self, store: &mut TermStore, t: TermId) -> Result<TermId, RewriteError> {
        if let Term::Var(_) = store.node(t) {
            return Ok(t);
        }
        // Innermost: arguments first.
        let cur = store.map_args(t, |store, a| self.norm(store, a))?;
        // Rules at the root.
        if let Some(next) = self.apply_rules_at_root(store, cur)? {
            self.consume_fuel(store, cur)?;
            self.stats.rewrites += 1;
            return self.norm(store, next);
        }
        // Built-in Boolean layer.
        let op_now = store.op_of(cur).expect("application");
        if self.is_connective(op_now) || self.alg.is_eq_op(op_now) {
            self.stats.bool_normalizations += 1;
            let poly = self.poly_of(store, cur)?;
            let rebuilt = self.ring.term(poly, store, &self.alg)?;
            // Assumptions may target the canonical form itself (the prover
            // assumes whole effective conditions false): give the rules one
            // chance at the rebuilt root.
            if rebuilt != cur {
                if let Some(next) = self.apply_rules_at_root(store, rebuilt)? {
                    self.consume_fuel(store, rebuilt)?;
                    self.stats.rewrites += 1;
                    return self.norm(store, next);
                }
            }
            // The rebuilt canonical form is normal by construction (atoms
            // are normal, connectives are canonical); record it, and its
            // polynomial, so the equivalence class converges without
            // re-walking and an enclosing connective need not re-parse it.
            self.cache_insert(rebuilt, rebuilt);
            self.poly_insert(rebuilt, poly);
            return Ok(rebuilt);
        }
        Ok(cur)
    }

    /// Try assumption rules then specification rules at the root of `t`
    /// (whose arguments are already normal). Returns the instantiated
    /// right-hand side of the first applicable rule.
    fn apply_rules_at_root(
        &mut self,
        store: &mut TermStore,
        t: TermId,
    ) -> Result<Option<TermId>, RewriteError> {
        let op = match store.op_of(t) {
            Some(op) => op,
            None => return Ok(None),
        };
        // Labels are cloned into the candidate list only when profiling:
        // the common (unprofiled) path must stay allocation-light.
        let profiling = self.profiling;
        // Assumption rules are always linear-scanned: the set is small,
        // changes at every case split, and has highest priority.
        let mask = self.refresh_mask;
        // One buffer serves every call. It is taken for the firing loop,
        // which drains it, and put back empty after it: a condition
        // normalized there re-enters this function, which then starts
        // from an empty buffer of its own.
        let mut candidates = std::mem::take(&mut self.rule_scratch);
        candidates.extend(
            self.assumptions
                .rules_for_op(op)
                .filter(|&(i, r)| mask.is_none_or(|m| i != m && r.lhs != r.rhs))
                .map(|(_, r)| (r.lhs, r.rhs, r.cond, profiling.then(|| r.label.clone()))),
        );
        if self.use_index && !self.rules.is_empty() {
            // Specification rules come from the discrimination tree. The
            // index over-approximates (non-linearity and conditions are
            // left to the matcher) and returns candidates in declaration
            // order, so firing order — and every stats counter — matches
            // the linear scan exactly; only provably incompatible rules
            // are pruned before `match_term` runs.
            // The rule set builds (or reuses) the shared index: a
            // normalizer made from an already-indexed `RuleSet` pays one
            // `Arc` bump on its first lookup, not a rebuild.
            let index = self
                .index
                .get_or_insert_with(|| self.rules.path_index(store));
            let picked = &mut self.candidate_scratch;
            index.candidates_into(store, t, &mut self.index_scratch, picked);
            self.counters.index_lookups += 1;
            self.counters.index_candidates += picked.len() as u64;
            self.counters.index_pruned += (index.head_total(op) - picked.len()) as u64;
            candidates.extend(picked.iter().map(|&i| {
                let r = self.rules.get(i).expect("index yields valid rule indices");
                (r.lhs, r.rhs, r.cond, profiling.then(|| r.label.clone()))
            }));
        } else {
            candidates.extend(
                self.rules
                    .candidates(op)
                    .map(|r| (r.lhs, r.rhs, r.cond, profiling.then(|| r.label.clone()))),
            );
        }
        let fired = self.fire_first(store, t, &mut candidates);
        self.rule_scratch = candidates;
        fired
    }

    /// Fire the first of `candidates` (drained in order) whose left-hand
    /// side matches `t` and whose condition, if any, normalizes to `true`.
    /// Blocked conditions are recorded for the prover's case splits.
    fn fire_first(
        &mut self,
        store: &mut TermStore,
        t: TermId,
        candidates: &mut Vec<Candidate>,
    ) -> Result<Option<TermId>, RewriteError> {
        for (lhs, rhs, cond, label) in candidates.drain(..) {
            let started = label.as_ref().map(|_| Instant::now());
            let subst = match match_term(store, lhs, t) {
                MatchOutcome::Matched(s) => s,
                MatchOutcome::Failed => {
                    self.profile(label, started, |p| p.failures += 1);
                    continue;
                }
            };
            match cond {
                None => {
                    self.profile(label, started, |p| p.fires += 1);
                    return Ok(Some(subst.apply(store, rhs)));
                }
                Some(c) => {
                    let inst = subst.apply(store, c);
                    let nc = self.norm(store, inst)?;
                    match self.alg.as_constant(store, nc) {
                        Some(true) => {
                            self.profile(label, started, |p| p.fires += 1);
                            return Ok(Some(subst.apply(store, rhs)));
                        }
                        Some(false) => {
                            self.profile(label, started, |p| p.failures += 1);
                            continue;
                        }
                        None => {
                            self.stats.blocked_conditions += 1;
                            if !self.blocked.contains(&nc) {
                                self.blocked.push(nc);
                            }
                            self.profile(label, started, |p| p.blocked += 1);
                            continue;
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Record one candidate attempt against rule `label` (no-op when
    /// profiling is off, signalled by `label == None`).
    fn profile(
        &mut self,
        label: Option<String>,
        started: Option<Instant>,
        update: impl FnOnce(&mut RuleProfile),
    ) {
        let (Some(label), Some(started)) = (label, started) else {
            return;
        };
        let entry = self
            .profiles
            .entry(label.clone())
            .or_insert_with(|| RuleProfile {
                label,
                ..RuleProfile::default()
            });
        entry.attempts += 1;
        entry.time += started.elapsed();
        update(entry);
    }

    fn is_connective(&self, op: OpId) -> bool {
        op == self.alg.not_op()
            || op == self.alg.and_op()
            || op == self.alg.or_op()
            || op == self.alg.xor_op()
            || op == self.alg.implies_op()
            || op == self.alg.iff_op()
            || op == self.alg.ite_op()
            || op == self.alg.true_op()
            || op == self.alg.false_op()
    }

    /// Convert an argument-normalized Bool term to its polynomial. A
    /// canonical form the ring layer already rebuilt is a cache hit.
    fn poly_of(&mut self, store: &mut TermStore, t: TermId) -> Result<PolyId, RewriteError> {
        if let Some(p) = self.polys.get(t) {
            return Ok(p);
        }
        self.consume_fuel(store, t)?;
        let op = match store.op_of(t) {
            Some(op) => op,
            None => return Ok(self.ring.atom(t)), // Bool variable
        };
        // Connectives and equality take at most three arguments; copy them
        // out so `store` can be borrowed mutably below.
        let mut args = [t; 3];
        for (slot, &a) in args.iter_mut().zip(store.args(t)) {
            *slot = a;
        }
        let one = PolyStore::ONE;
        if op == self.alg.true_op() {
            return Ok(one);
        }
        if op == self.alg.false_op() {
            return Ok(PolyStore::ZERO);
        }
        if op == self.alg.not_op() {
            let a = self.poly_of(store, args[0])?;
            return Ok(self.ring.add(one, a));
        }
        if op == self.alg.and_op() {
            let a = self.poly_of(store, args[0])?;
            let b = self.poly_of(store, args[1])?;
            return Ok(self.ring.mul(a, b));
        }
        if op == self.alg.or_op() {
            let a = self.poly_of(store, args[0])?;
            let b = self.poly_of(store, args[1])?;
            let (sum, product) = (self.ring.add(a, b), self.ring.mul(a, b));
            return Ok(self.ring.add(sum, product));
        }
        if op == self.alg.xor_op() {
            let a = self.poly_of(store, args[0])?;
            let b = self.poly_of(store, args[1])?;
            return Ok(self.ring.add(a, b));
        }
        if op == self.alg.implies_op() {
            let a = self.poly_of(store, args[0])?;
            let b = self.poly_of(store, args[1])?;
            let (not_a, product) = (self.ring.add(one, a), self.ring.mul(a, b));
            return Ok(self.ring.add(not_a, product));
        }
        if op == self.alg.iff_op() {
            let a = self.poly_of(store, args[0])?;
            let b = self.poly_of(store, args[1])?;
            let not_a = self.ring.add(one, a);
            return Ok(self.ring.add(not_a, b));
        }
        if op == self.alg.ite_op() {
            let c = self.poly_of(store, args[0])?;
            let x = self.poly_of(store, args[1])?;
            let y = self.poly_of(store, args[2])?;
            let (cx, cy) = (self.ring.mul(c, x), self.ring.mul(c, y));
            let sum = self.ring.add(cx, cy);
            return Ok(self.ring.add(sum, y));
        }
        if self.alg.is_eq_op(op) {
            let (l, r) = (args[0], args[1]);
            if store.sort_of(l) == self.alg.sort() {
                // Equality on Bool is iff.
                let a = self.poly_of(store, l)?;
                let b = self.poly_of(store, r)?;
                let not_a = self.ring.add(one, a);
                return Ok(self.ring.add(not_a, b));
            }
            self.stats.eq_decisions += 1;
            let verdict = decide_equality(store, &mut self.alg, l, r)?;
            return match verdict {
                EqVerdict::True => Ok(one),
                EqVerdict::False => Ok(PolyStore::ZERO),
                EqVerdict::Atoms(atoms) => {
                    let mut acc = one;
                    for atom in atoms {
                        let p = self.atom_poly(store, atom)?;
                        acc = self.ring.mul(acc, p);
                    }
                    Ok(acc)
                }
            };
        }
        // Any other Bool-sorted term is an opaque atom.
        Ok(self.ring.atom(t))
    }

    /// Polynomial of a (possibly freshly decomposed) equality atom: give
    /// assumption/specification rules one chance at the root, otherwise
    /// keep it atomic.
    fn atom_poly(&mut self, store: &mut TermStore, atom: TermId) -> Result<PolyId, RewriteError> {
        if let Some(next) = self.apply_rules_at_root(store, atom)? {
            self.consume_fuel(store, atom)?;
            self.stats.rewrites += 1;
            let n = self.norm(store, next)?;
            if let Some(b) = self.alg.as_constant(store, n) {
                return Ok(PolyStore::constant(b));
            }
            return self.poly_of(store, n);
        }
        Ok(self.ring.atom(atom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct World {
        store: TermStore,
        alg: BoolAlg,
    }

    fn bool_world() -> World {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        World {
            store: TermStore::new(sig),
            alg,
        }
    }

    #[test]
    fn tautologies_reduce_to_true() {
        let mut w = bool_world();
        let p = w.store.fresh_constant("p", w.alg.sort());
        let q = w.store.fresh_constant("q", w.alg.sort());
        let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());

        // p or not p
        let np = w.alg.not(&mut w.store, p).unwrap();
        let lem = w.alg.or(&mut w.store, p, np).unwrap();
        assert!(norm.proves(&mut w.store, lem).unwrap());

        // de Morgan: not(p and q) iff (not p or not q)
        let pq = w.alg.and(&mut w.store, p, q).unwrap();
        let npq = w.alg.not(&mut w.store, pq).unwrap();
        let nq = w.alg.not(&mut w.store, q).unwrap();
        let or = w.alg.or(&mut w.store, np, nq).unwrap();
        let demorgan = w.alg.iff(&mut w.store, npq, or).unwrap();
        assert!(norm.proves(&mut w.store, demorgan).unwrap());

        // contradiction: p and not p
        let contra = w.alg.and(&mut w.store, p, np).unwrap();
        let n = norm.normalize(&mut w.store, contra).unwrap();
        assert_eq!(w.alg.as_constant(&w.store, n), Some(false));
    }

    #[test]
    fn non_tautologies_stay_open() {
        let mut w = bool_world();
        let p = w.store.fresh_constant("p", w.alg.sort());
        let q = w.store.fresh_constant("q", w.alg.sort());
        let imp = w.alg.implies(&mut w.store, p, q).unwrap();
        let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
        assert!(!norm.proves(&mut w.store, imp).unwrap());
        let poly = norm.normalize_to_poly(&mut w.store, imp).unwrap();
        assert_eq!(poly.atoms(), vec![p, q]);
    }

    #[test]
    fn unconditional_rules_rewrite_innermost() {
        // f(c) -> d ; g(d) -> c ; then g(f(c)) normalizes to c.
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let f = sig.add_op("f", &[s], s, OpAttrs::defined()).unwrap();
        let g = sig.add_op("g", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let cv = store.constant(c);
        let dv = store.constant(d);
        let fc = store.app(f, &[cv]).unwrap();
        let gd = store.app(g, &[dv]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&store, "f", fc, dv, None, None).unwrap();
        rules.add(&store, "g", gd, cv, None, None).unwrap();
        let mut norm = Normalizer::new(alg, rules);
        let gfc = store.app(g, &[fc]).unwrap();
        assert_eq!(norm.normalize(&mut store, gfc).unwrap(), cv);
        assert!(norm.stats().rewrites >= 2);
    }

    #[test]
    fn conditional_rule_fires_only_when_condition_decides_true() {
        // h(X) -> c if X = c ; h(d) stays put, h(c) fires.
        let mut sig = Signature::new();
        let mut alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let h = sig.add_op("h", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let x = store.declare_var("X", s).unwrap();
        let xt = store.var(x);
        let cv = store.constant(c);
        let dv = store.constant(d);
        let hx = store.app(h, &[xt]).unwrap();
        let cond = alg.eq(&mut store, xt, cv).unwrap();
        let mut rules = RuleSet::new();
        rules
            .add(&store, "h-c", hx, cv, Some(cond), Some(alg.sort()))
            .unwrap();
        let mut norm = Normalizer::new(alg, rules);
        let hc = store.app(h, &[cv]).unwrap();
        let hd = store.app(h, &[dv]).unwrap();
        assert_eq!(norm.normalize(&mut store, hc).unwrap(), cv);
        assert_eq!(norm.normalize(&mut store, hd).unwrap(), hd);
    }

    #[test]
    fn blocked_conditions_are_reported() {
        // h(X) -> c if X = c applied to an arbitrary constant blocks.
        let mut sig = Signature::new();
        let mut alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let h = sig.add_op("h", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let x = store.declare_var("X", s).unwrap();
        let xt = store.var(x);
        let cv = store.constant(c);
        let hx = store.app(h, &[xt]).unwrap();
        let cond = alg.eq(&mut store, xt, cv).unwrap();
        let mut rules = RuleSet::new();
        rules
            .add(&store, "h-c", hx, cv, Some(cond), Some(alg.sort()))
            .unwrap();
        let mut norm = Normalizer::new(alg.clone(), rules);
        let a = store.fresh_constant("a", s);
        let ha = store.app(h, &[a]).unwrap();
        assert_eq!(norm.normalize(&mut store, ha).unwrap(), ha);
        let blocked = norm.take_blocked();
        assert_eq!(blocked.len(), 1);
        // The blocked condition is the undecided atom `a = c`
        // (in canonical argument order, so normalize the expectation).
        let raw = alg.eq(&mut store, a, cv).unwrap();
        let expected = norm.normalize(&mut store, raw).unwrap();
        assert_eq!(blocked[0], expected);
        assert!(norm.take_blocked().is_empty(), "take drains");
    }

    #[test]
    fn assumptions_unblock_conditional_rules() {
        let mut sig = Signature::new();
        let mut alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let h = sig.add_op("h", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let x = store.declare_var("X", s).unwrap();
        let xt = store.var(x);
        let cv = store.constant(c);
        let hx = store.app(h, &[xt]).unwrap();
        let cond = alg.eq(&mut store, xt, cv).unwrap();
        let mut rules = RuleSet::new();
        rules
            .add(&store, "h-c", hx, cv, Some(cond), Some(alg.sort()))
            .unwrap();
        let mut norm = Normalizer::new(alg.clone(), rules);
        let a = store.fresh_constant("a", s);
        let ha = store.app(h, &[a]).unwrap();
        assert_eq!(norm.normalize(&mut store, ha).unwrap(), ha);
        // Assume a = c by orienting a -> c (the paper's `eq b1 = intruder .`).
        norm.assume(&store, "a=c", a, cv).unwrap();
        assert_eq!(norm.normalize(&mut store, ha).unwrap(), cv);
    }

    #[test]
    fn equality_assumption_on_atom_rewrites_to_false() {
        let mut sig = Signature::new();
        let mut alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let mut store = TermStore::new(sig);
        let a = store.fresh_constant("a", s);
        let cv = store.constant(c);
        let atom = alg.eq(&mut store, a, cv).unwrap();
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        // undecided initially
        assert_eq!(norm.normalize(&mut store, atom).unwrap(), atom);
        // assume (a = c) = false — the paper's `eq (b = intruder) = false .`
        let ff = alg.ff(&mut store);
        norm.assume(&store, "a≠c", atom, ff).unwrap();
        let n = norm.normalize(&mut store, atom).unwrap();
        assert_eq!(alg.as_constant(&store, n), Some(false));
        // and `not (a = c)` now proves
        let na = alg.not(&mut store, atom).unwrap();
        assert!(norm.proves(&mut store, na).unwrap());
    }

    #[test]
    fn fuel_exhaustion_is_an_error_not_a_hang() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::defined()).unwrap();
        let f = sig.add_op("f", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let cv = store.constant(c);
        let fc = store.app(f, &[cv]).unwrap();
        let mut rules = RuleSet::new();
        // c -> f(c): diverges.
        rules.add(&store, "loop", cv, fc, None, None).unwrap();
        let mut norm = Normalizer::new(alg, rules);
        norm.set_fuel_limit(64);
        let err = norm.normalize(&mut store, cv).unwrap_err();
        assert!(matches!(err, RewriteError::FuelExhausted { .. }));
    }

    #[test]
    fn injective_equality_feeds_the_ring() {
        // pms(a, b, s) = pms(a, intruder, s)  reduces to  b = intruder.
        let mut sig = Signature::new();
        let mut alg = BoolAlg::install(&mut sig).unwrap();
        let prin = sig.add_visible_sort("Principal").unwrap();
        let secret = sig.add_visible_sort("Secret").unwrap();
        let pms_sort = sig.add_visible_sort("Pms").unwrap();
        let intruder = sig
            .add_constant("intruder", prin, OpAttrs::constructor())
            .unwrap();
        let pms = sig
            .add_op(
                "pms",
                &[prin, prin, secret],
                pms_sort,
                OpAttrs::constructor(),
            )
            .unwrap();
        let mut store = TermStore::new(sig);
        let a = store.fresh_constant("a", prin);
        let b = store.fresh_constant("b", prin);
        let s = store.fresh_constant("s", secret);
        let iv = store.constant(intruder);
        let t1 = store.app(pms, &[a, b, s]).unwrap();
        let t2 = store.app(pms, &[a, iv, s]).unwrap();
        let eq = alg.eq(&mut store, t1, t2).unwrap();
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        let n = norm.normalize(&mut store, eq).unwrap();
        let expected = alg.eq(&mut store, b, iv).unwrap();
        assert_eq!(n, expected);
        // And assuming it false kills the equality.
        let ff = alg.ff(&mut store);
        norm.assume(&store, "b≠intruder", expected, ff).unwrap();
        let n2 = norm.normalize(&mut store, eq).unwrap();
        assert_eq!(alg.as_constant(&store, n2), Some(false));
    }

    #[test]
    fn refresh_revives_stale_assumptions() {
        // Scenario from the paper's fakeSfin1 case: assume `p(e) = true`
        // for arbitrary e, then learn the orientation `e -> c`. Without a
        // refresh, `p(c)` stays undecided; with it, the assumption is
        // rewritten to `p(c) = true`.
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let p = sig
            .add_op("p", &[s], alg.sort(), OpAttrs::defined())
            .unwrap();
        let mut store = TermStore::new(sig);
        let e = store.fresh_constant("e", s);
        let cv = store.constant(c);
        let pe = store.app(p, &[e]).unwrap();
        let pc = store.app(p, &[cv]).unwrap();
        let tt = alg.tt(&mut store);
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        norm.assume(&store, "p(e)", pe, tt).unwrap();
        norm.assume(&store, "e=c", e, cv).unwrap();
        // Stale: p(c) does not match the p(e) assumption syntactically…
        assert_eq!(norm.normalize(&mut store, pc).unwrap(), pc);
        // …until the refresh rewrites the assumption itself.
        norm.refresh_assumptions(&mut store).unwrap();
        assert!(norm.proves(&mut store, pc).unwrap());
        assert!(!norm.is_infeasible());
    }

    #[test]
    fn refresh_detects_contradictions() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let mut store = TermStore::new(sig);
        let e = store.fresh_constant("e", s);
        let cv = store.constant(c);
        let dv = store.constant(d);
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        norm.assume(&store, "e=c", e, cv).unwrap();
        // A later split claims e = d: jointly contradictory with e = c.
        let f = store.fresh_constant("f", s);
        norm.assume(&store, "f=e", f, e).unwrap();
        norm.assume(&store, "f=d", f, dv).unwrap();
        norm.refresh_assumptions(&mut store).unwrap();
        assert!(norm.is_infeasible());
    }

    #[test]
    fn refreshing_leaves_the_labels_of_unsplit_assumptions_alone() {
        // `e = c` orients to itself; `pair(e2, e3) = pair(c, d)` splits by
        // injectivity into two numbered equations, which later rounds
        // keep as they are.
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let pair = sig
            .add_op("pair", &[s, s], s, OpAttrs::constructor())
            .unwrap();
        let mut store = TermStore::new(sig);
        let [e, e2, e3] = ["e", "e2", "e3"].map(|n| store.fresh_constant(n, s));
        let (cv, dv) = (store.constant(c), store.constant(d));
        let left = store.app(pair, &[e2, e3]).unwrap();
        let right = store.app(pair, &[cv, dv]).unwrap();
        let mut norm = Normalizer::new(alg, RuleSet::new());
        norm.assume(&store, "e=c", e, cv).unwrap();
        norm.assume(&store, "pairs", left, right).unwrap();
        let labels = |norm: &Normalizer| -> Vec<String> {
            norm.assumptions().iter().map(|r| r.label.clone()).collect()
        };
        norm.refresh_assumptions(&mut store).unwrap();
        let first = labels(&norm);
        assert_eq!(first, ["e=c", "pairs#0", "pairs#1"]);
        for _ in 0..3 {
            norm.refresh_assumptions(&mut store).unwrap();
            assert_eq!(labels(&norm), first);
        }
    }

    #[test]
    fn fuel_error_carries_limit_and_stats_snapshot() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::defined()).unwrap();
        let f = sig.add_op("f", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let cv = store.constant(c);
        let fc = store.app(f, &[cv]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&store, "loop", cv, fc, None, None).unwrap();
        let mut norm = Normalizer::new(alg, rules);
        norm.set_fuel_limit(64);
        match norm.normalize(&mut store, cv).unwrap_err() {
            RewriteError::FuelExhausted {
                term,
                fuel_limit,
                stats,
            } => {
                assert!(!term.is_empty());
                assert_eq!(fuel_limit, 64);
                assert!(stats.contains("rewrites"), "snapshot: {stats}");
            }
            other => panic!("expected FuelExhausted, got {other:?}"),
        }
    }

    /// A diverging world: `c -> f(c)`, so normalizing `c` consumes fuel
    /// forever — the workload every budget/fault test needs.
    fn diverging_world() -> (TermStore, Normalizer, TermId) {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::defined()).unwrap();
        let f = sig.add_op("f", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let cv = store.constant(c);
        let fc = store.app(f, &[cv]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&store, "loop", cv, fc, None, None).unwrap();
        (store, Normalizer::new(alg, rules), cv)
    }

    #[test]
    fn expired_deadline_stops_normalization_with_typed_error() {
        use crate::budget::{Budget, StopReason};
        use std::time::Instant;
        let (mut store, mut norm, cv) = diverging_world();
        norm.set_budget(Budget::unlimited().with_deadline_at(Instant::now()));
        match norm.normalize(&mut store, cv).unwrap_err() {
            RewriteError::BudgetExceeded { reason, term } => {
                assert_eq!(reason, StopReason::DeadlineExceeded);
                assert!(!term.is_empty());
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_stops_normalization() {
        use crate::budget::{Budget, StopReason};
        let (mut store, mut norm, cv) = diverging_world();
        let budget = Budget::unlimited();
        budget.cancel();
        norm.set_budget(budget);
        match norm.normalize(&mut store, cv).unwrap_err() {
            RewriteError::BudgetExceeded { reason, .. } => {
                assert_eq!(reason, StopReason::Cancelled);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn memory_ceiling_trips_on_arena_growth() {
        use crate::budget::{Budget, StopReason};
        let (mut store, mut norm, cv) = diverging_world();
        // The diverging rule grows the arena one node per rewrite; a tiny
        // ceiling must trip on the strided check before fuel runs out.
        norm.set_fuel_limit(1_000_000);
        norm.set_budget(Budget::unlimited().with_max_heap_bytes(1));
        match norm.normalize(&mut store, cv).unwrap_err() {
            RewriteError::BudgetExceeded { reason, .. } => {
                assert_eq!(reason, StopReason::MemoryExceeded);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn injected_fuel_starvation_becomes_fuel_exhausted() {
        use crate::budget::{Fault, FaultKind, FaultPlan, FaultSite};
        let (mut store, mut norm, cv) = diverging_world();
        let plan = FaultPlan::new().with_fault(Fault::new(
            FaultSite::Rewrite,
            FaultKind::FuelStarvation,
            3,
        ));
        norm.set_fault_plan(plan, "");
        let err = norm.normalize(&mut store, cv).unwrap_err();
        assert!(matches!(err, RewriteError::FuelExhausted { .. }));
        // Only three rewrites happened before the starvation hit.
        assert_eq!(norm.stats().rewrites, 3);
    }

    #[test]
    fn injected_deadline_expiry_is_a_budget_stop() {
        use crate::budget::{Fault, FaultKind, FaultPlan, FaultSite, StopReason};
        let (mut store, mut norm, cv) = diverging_world();
        let plan = FaultPlan::new().with_fault(Fault::new(
            FaultSite::Rewrite,
            FaultKind::DeadlineExpiry,
            5,
        ));
        norm.set_fault_plan(plan, "");
        match norm.normalize(&mut store, cv).unwrap_err() {
            RewriteError::BudgetExceeded { reason, .. } => {
                assert_eq!(reason, StopReason::DeadlineExceeded);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn injected_cancel_trips_the_shared_token() {
        use crate::budget::{Budget, Fault, FaultKind, FaultPlan, FaultSite, StopReason};
        let (mut store, mut norm, cv) = diverging_world();
        let budget = Budget::unlimited();
        let token = budget.cancel_token();
        norm.set_budget(budget);
        let plan =
            FaultPlan::new().with_fault(Fault::new(FaultSite::Rewrite, FaultKind::Cancel, 2));
        norm.set_fault_plan(plan, "");
        match norm.normalize(&mut store, cv).unwrap_err() {
            RewriteError::BudgetExceeded { reason, .. } => {
                assert_eq!(reason, StopReason::Cancelled);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert!(token.is_cancelled(), "cancel fault trips the shared token");
    }

    #[test]
    fn injected_panic_fires_at_the_exact_call_and_scope() {
        use crate::budget::{Fault, FaultKind, FaultPlan, FaultSite};
        let (mut store, mut norm, cv) = diverging_world();
        // A plan scoped to a different obligation never fires…
        let scoped = FaultPlan::new()
            .with_fault(Fault::new(FaultSite::Rewrite, FaultKind::Panic, 0).in_scope("other"));
        norm.set_fault_plan(scoped, "this");
        norm.set_fuel_limit(16);
        assert!(matches!(
            norm.normalize(&mut store, cv).unwrap_err(),
            RewriteError::FuelExhausted { .. }
        ));
        // …while an in-scope plan panics deterministically.
        let (mut store2, mut norm2, cv2) = diverging_world();
        let plan = FaultPlan::new().with_fault(Fault::new(FaultSite::Rewrite, FaultKind::Panic, 4));
        norm2.set_fault_plan(plan, "this");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            norm2.normalize(&mut store2, cv2)
        }));
        let payload = caught.expect_err("must panic");
        let msg = crate::budget::panic_message(&*payload);
        assert_eq!(
            msg,
            "injected fault: panic at rewrite call 4 (scope `this`)"
        );
    }

    #[test]
    fn cache_hit_rate_counts_hits_and_misses() {
        let mut w = bool_world();
        let p = w.store.fresh_constant("p", w.alg.sort());
        let q = w.store.fresh_constant("q", w.alg.sort());
        let pq = w.alg.and(&mut w.store, p, q).unwrap();
        let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
        assert_eq!(norm.stats().cache_hit_rate(), 0.0, "no lookups yet");
        norm.normalize(&mut w.store, pq).unwrap();
        let first = norm.stats();
        assert!(first.cache_misses > 0);
        // Second pass over the same term is a single cache hit.
        norm.normalize(&mut w.store, pq).unwrap();
        let second = norm.stats();
        assert_eq!(second.cache_misses, first.cache_misses);
        assert!(second.cache_hits > first.cache_hits);
        assert!(second.cache_hit_rate() > first.cache_hit_rate());
        assert!(second.cache_hit_rate() <= 1.0);
    }

    #[test]
    fn bounded_cache_resets_and_counts_evictions() {
        let mut w = bool_world();
        let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
        norm.set_cache_capacity(8);
        // Normalize many distinct conjunctions: far more nodes than the
        // capacity, so the cache must reset (repeatedly) yet every result
        // must stay correct.
        let atoms: Vec<TermId> = (0..12)
            .map(|_| w.store.fresh_constant("p", w.alg.sort()))
            .collect();
        for i in 0..atoms.len() {
            for j in 0..atoms.len() {
                let np = w.alg.not(&mut w.store, atoms[j]).unwrap();
                let f = w.alg.or(&mut w.store, atoms[i], np).unwrap();
                let lem = w.alg.or(&mut w.store, f, atoms[j]).unwrap();
                // p_i \/ not p_j \/ p_j is a tautology for every i, j.
                assert!(norm.proves(&mut w.store, lem).unwrap(), "{i},{j}");
            }
        }
        let stats = norm.stats();
        assert!(stats.cache_evictions > 0, "stats: {stats}");
        assert!(stats.to_string().contains("evictions"));
        // Evictions survive a merge.
        let merged = stats.merged(stats);
        assert_eq!(merged.cache_evictions, 2 * stats.cache_evictions);
        // The default capacity never evicts on small workloads.
        let mut roomy = Normalizer::new(w.alg.clone(), RuleSet::new());
        let np = w.alg.not(&mut w.store, atoms[0]).unwrap();
        let lem = w.alg.or(&mut w.store, atoms[0], np).unwrap();
        assert!(roomy.proves(&mut w.store, lem).unwrap());
        assert_eq!(roomy.stats().cache_evictions, 0);
    }

    #[test]
    fn zero_cache_capacity_disables_memoization() {
        let mut w = bool_world();
        let p = w.store.fresh_constant("p", w.alg.sort());
        let np = w.alg.not(&mut w.store, p).unwrap();
        let lem = w.alg.or(&mut w.store, p, np).unwrap();
        let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
        norm.set_cache_capacity(0);
        assert!(norm.proves(&mut w.store, lem).unwrap());
        assert!(norm.proves(&mut w.store, lem).unwrap());
        assert_eq!(norm.stats().cache_hits, 0, "nothing is ever cached");
    }

    #[test]
    fn profiling_attributes_fires_and_failures_per_rule() {
        // f(c) -> d fires; g(d) -> c is attempted (same head g) but the
        // subject is g(c), so it fails to match.
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let f = sig.add_op("f", &[s], s, OpAttrs::defined()).unwrap();
        let g = sig.add_op("g", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let cv = store.constant(c);
        let dv = store.constant(d);
        let fc = store.app(f, &[cv]).unwrap();
        let gd = store.app(g, &[dv]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&store, "f-rule", fc, dv, None, None).unwrap();
        rules.add(&store, "g-rule", gd, cv, None, None).unwrap();
        let mut norm = Normalizer::new(alg, rules);
        norm.set_profiling(true);
        // g(f(c)) → g(d) → c : f-rule fires once, g-rule fires once.
        let gfc = store.app(g, &[fc]).unwrap();
        assert_eq!(norm.normalize(&mut store, gfc).unwrap(), cv);
        let by_label = |l: &str| norm.profiles[l].clone();
        let f_prof = by_label("f-rule");
        let g_prof = by_label("g-rule");
        assert_eq!(f_prof.fires, 1);
        assert_eq!(g_prof.fires, 1);
        assert!(g_prof.attempts >= g_prof.fires);
        assert_eq!(
            f_prof.attempts,
            f_prof.fires + f_prof.failures + f_prof.blocked
        );
        // Profiling off: no profiles collected.
        let mut quiet = Normalizer::new(norm.bool_alg().clone(), norm.rules().clone());
        let gfc2 = store.app(g, &[fc]).unwrap();
        quiet.normalize(&mut store, gfc2).unwrap();
        assert!(quiet.profiles.is_empty());
    }

    #[test]
    fn emit_profile_sends_counters_and_gauges() {
        use equitls_obs::sink::{Obs, RecordingSink};
        use equitls_obs::summary::MetricsSummary;
        use std::sync::Arc;

        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let f = sig.add_op("f", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let cv = store.constant(c);
        let dv = store.constant(d);
        let fc = store.app(f, &[cv]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&store, "f-rule", fc, dv, None, None).unwrap();
        let recorder = Arc::new(RecordingSink::new());
        let mut norm = Normalizer::new(alg, rules);
        norm.set_obs(Obs::new(recorder.clone()));
        norm.set_profiling(true);
        norm.normalize(&mut store, fc).unwrap();
        norm.emit_profile();
        let summary = MetricsSummary::from_events(&recorder.events());
        assert_eq!(summary.counter_total("rule.fires:f-rule"), 1);
        assert!(summary.gauge("rewrite.cache_hit_rate").is_some());
        assert!(summary.gauge("rewrite.fuel_remaining").is_some());
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let mut w = bool_world();
        let p = w.store.fresh_constant("p", w.alg.sort());
        let np = w.alg.not(&mut w.store, p).unwrap();
        let lem = w.alg.or(&mut w.store, p, np).unwrap();
        let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
        norm.proves(&mut w.store, lem).unwrap();
        let s1 = norm.stats();
        assert!(s1.bool_normalizations > 0);
        let merged = s1.merged(s1);
        assert_eq!(merged.bool_normalizations, 2 * s1.bool_normalizations);
    }

    #[test]
    fn full_memo_clears_on_overflow_and_counts_the_eviction() {
        let mut w = bool_world();
        let t: Vec<TermId> = (0..4)
            .map(|_| w.store.fresh_constant("t", w.alg.sort()))
            .collect();
        let mut norm = Normalizer::new(w.alg.clone(), RuleSet::new());
        norm.set_cache_capacity(2);
        norm.cache_insert(t[0], t[0]);
        norm.cache_insert(t[1], t[1]);
        assert_eq!(norm.stats().cache_evictions, 0, "two entries fit");
        norm.cache_insert(t[2], t[2]); // full: clear, then insert
        assert_eq!(norm.stats().cache_evictions, 1);
        assert_eq!(norm.memo.get(t[0]), None, "the clear dropped t0");
        assert_eq!(norm.memo.get(t[1]), None, "the clear dropped t1");
        assert_eq!(norm.memo.get(t[2]), Some(t[2]));
        assert_eq!(caches(&norm).0, vec![(t[2].index(), t[2])]);
        norm.cache_insert(t[3], t[3]);
        assert_eq!(norm.stats().cache_evictions, 1, "room for a second entry");
        // Shrinking below the current size clears and counts too.
        norm.set_cache_capacity(1);
        assert_eq!(norm.stats().cache_evictions, 2);
        assert!(caches(&norm).0.is_empty());
    }

    /// The entries both caches show, as `(TermId::index(), value)` in
    /// index order, after checking each cache's count against them.
    type Visible = (Vec<(usize, TermId)>, Vec<(usize, PolyId)>);

    fn caches(norm: &Normalizer) -> Visible {
        let (memo, polys) = (norm.memo.visible(), norm.polys.visible());
        assert_eq!(norm.memo.len(), memo.len(), "memo count");
        assert_eq!(norm.polys.len(), polys.len(), "polynomial cache count");
        (memo, polys)
    }

    /// `p(a)`, `q(a)` and the conjunction `p(a) and (a = c)` over an
    /// arbitrary constant `a`: enough for a scope to change assumptions,
    /// normal forms, both caches and the infeasibility flag.
    fn scope_world() -> (TermStore, BoolAlg, [TermId; 5]) {
        let mut sig = Signature::new();
        let mut alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let p = sig
            .add_op("p", &[s], alg.sort(), OpAttrs::defined())
            .unwrap();
        let q = sig
            .add_op("q", &[s], alg.sort(), OpAttrs::defined())
            .unwrap();
        let mut store = TermStore::new(sig);
        let a = store.fresh_constant("a", s);
        let cv = store.constant(c);
        let pa = store.app(p, &[a]).unwrap();
        let qa = store.app(q, &[a]).unwrap();
        let eq = alg.eq(&mut store, a, cv).unwrap();
        let goal = alg.and(&mut store, pa, eq).unwrap();
        (store, alg, [a, cv, pa, qa, goal])
    }

    #[test]
    fn pop_scope_restores_assumptions_infeasibility_and_normal_forms() {
        let (mut store, alg, [_, _, pa, qa, goal]) = scope_world();
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        let tt = alg.tt(&mut store);
        let ff = alg.ff(&mut store);
        norm.assume(&store, "q(a)", qa, tt).unwrap();
        let before = norm.normalize(&mut store, goal).unwrap();
        let assumed_before = norm.assumptions().len();

        norm.push_scope();
        norm.assume(&store, "p(a)", pa, tt).unwrap();
        norm.assume(&store, "not p(a)", pa, ff).unwrap();
        norm.refresh_assumptions(&mut store).unwrap();
        assert!(norm.is_infeasible(), "p(a) = true and p(a) = false");
        norm.pop_scope();

        assert!(!norm.is_infeasible());
        assert_eq!(norm.assumptions().len(), assumed_before);
        assert_eq!(norm.normalize(&mut store, goal).unwrap(), before);
        assert!(
            norm.proves(&mut store, qa).unwrap(),
            "the parent's assumption"
        );
        assert!(
            !norm.proves(&mut store, pa).unwrap(),
            "the branch's is gone"
        );
    }

    #[test]
    fn a_scope_that_never_clears_leaves_the_parents_caches_exactly() {
        let (mut store, alg, [_, _, pa, qa, goal]) = scope_world();
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        norm.normalize(&mut store, goal).unwrap();
        let (memo, polys) = caches(&norm);
        assert!(!polys.is_empty(), "the ring layer cached a polynomial");

        norm.push_scope();
        // New entries only: no assumption, so no clear.
        let more = alg.or(&mut store, qa, pa).unwrap();
        norm.normalize(&mut store, more).unwrap();
        norm.normalize_to_poly(&mut store, goal).unwrap();
        let (inner_memo, inner_polys) = caches(&norm);
        assert!(inner_memo.len() > memo.len());
        assert!(
            memo.iter().all(|e| inner_memo.contains(e))
                && polys.iter().all(|e| inner_polys.contains(e)),
            "the scope never cleared: the parent's entries are all live"
        );
        norm.pop_scope();

        assert_eq!(caches(&norm), (memo, polys));
    }

    #[test]
    fn nested_scopes_restore_each_level() {
        let (mut store, alg, [a, cv, pa, qa, goal]) = scope_world();
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        let tt = alg.tt(&mut store);
        let root_nf = norm.normalize(&mut store, goal).unwrap();
        let root_caches = caches(&norm);

        norm.push_scope();
        norm.assume(&store, "a=c", a, cv).unwrap();
        let outer_nf = norm.normalize(&mut store, goal).unwrap();
        assert_ne!(outer_nf, root_nf, "a = c decides the equality atom");
        let outer_caches = caches(&norm);
        let outer_assumed = norm.assumptions().len();

        // An inner scope that logs, then one that clears.
        norm.push_scope();
        norm.normalize(&mut store, qa).unwrap();
        norm.push_scope();
        norm.assume(&store, "p(a)", pa, tt).unwrap();
        norm.refresh_assumptions(&mut store).unwrap();
        assert!(norm.proves(&mut store, goal).unwrap());
        norm.pop_scope();
        norm.pop_scope();

        assert_eq!(caches(&norm), outer_caches);
        assert_eq!(norm.assumptions().len(), outer_assumed);
        assert_eq!(norm.normalize(&mut store, goal).unwrap(), outer_nf);

        norm.pop_scope();
        assert_eq!(caches(&norm), root_caches);
        assert!(norm.assumptions().is_empty());
        assert_eq!(norm.normalize(&mut store, goal).unwrap(), root_nf);
    }

    #[test]
    fn zero_capacity_caches_no_polynomials() {
        let (mut store, alg, [_, _, _, _, goal]) = scope_world();
        let mut norm = Normalizer::new(alg, RuleSet::new());
        norm.set_cache_capacity(0);
        norm.normalize_to_poly(&mut store, goal).unwrap();
        assert_eq!(caches(&norm), (Vec::new(), Vec::new()));
    }

    #[test]
    fn a_failed_refresh_leaves_no_masked_normal_form_cached() {
        use crate::budget::{Fault, FaultKind, FaultPlan, FaultSite};
        let (mut store, alg, [_, _, pa, qa, _]) = scope_world();
        let tt = alg.tt(&mut store);
        let assume_both = |norm: &mut Normalizer, store: &TermStore| {
            norm.assume(store, "p(a)", pa, tt).unwrap();
            norm.assume(store, "q(a)", qa, tt).unwrap();
        };
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        assume_both(&mut norm, &store);
        // The refresh normalizes pair 0's `p(a)` with its own rule masked,
        // which takes no rewrite call, then its right side `true`, whose
        // ring step is the session's first call: the deadline stops it.
        let plan = FaultPlan::new().with_fault(Fault::new(
            FaultSite::Rewrite,
            FaultKind::DeadlineExpiry,
            0,
        ));
        norm.set_fault_plan(plan, "");
        assert!(matches!(
            norm.refresh_assumptions(&mut store),
            Err(RewriteError::BudgetExceeded { .. })
        ));
        let mut fresh = Normalizer::new(alg.clone(), RuleSet::new());
        assume_both(&mut fresh, &store);
        let want = fresh.normalize(&mut store, pa).unwrap();
        assert_eq!(alg.as_constant(&store, want), Some(true));
        assert_eq!(norm.normalize(&mut store, pa).unwrap(), want);
    }

    #[test]
    fn a_refresh_stopped_on_a_left_side_never_rewrites_its_right_side() {
        use crate::budget::{Fault, FaultKind, FaultPlan, FaultSite};
        let (mut store, alg, [_, _, pa, qa, goal]) = scope_world();
        let tt = alg.tt(&mut store);
        let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
        // Pair 0's left side rewrites `p(a)` by pair 1, and its right side
        // `q(a)` would rewrite by pair 2.
        norm.assume(&store, "goal", goal, qa).unwrap();
        norm.assume(&store, "p(a)", pa, tt).unwrap();
        norm.assume(&store, "q(a)", qa, tt).unwrap();
        // Rewrite call 0 stops the left side; call 1 would stop the next
        // call to reach the fault hook.
        let stop = |n| Fault::new(FaultSite::Rewrite, FaultKind::DeadlineExpiry, n);
        norm.set_fault_plan(FaultPlan::new().with_fault(stop(0)).with_fault(stop(1)), "");
        let before = norm.stats();
        assert!(matches!(
            norm.refresh_assumptions(&mut store),
            Err(RewriteError::BudgetExceeded { .. })
        ));
        assert_eq!(norm.stats().rewrites, before.rewrites, "no rewrite ran");
        // The right side took no call, so the next one is call 1.
        assert!(matches!(
            norm.normalize(&mut store, qa),
            Err(RewriteError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn memory_ceiling_counts_the_polynomial_store() {
        use crate::budget::{Budget, StopReason};
        let (mut store, alg, [_, _, pa, qa, goal]) = scope_world();
        let either = alg.or(&mut store, pa, qa).unwrap();
        let mut norm = Normalizer::new(alg, RuleSet::new());
        norm.normalize(&mut store, goal).unwrap();
        norm.normalize(&mut store, either).unwrap();
        let ring = norm.ring.resident_estimate();
        let estimate = norm.heap_estimate(&store);
        assert!(ring > 1, "the store holds polynomials");
        // Under this ceiling only the store's bytes push the estimate over.
        let ceiling = estimate - 1;
        assert!(estimate - ring <= ceiling);
        norm.set_budget(Budget::unlimited().with_max_heap_bytes(ceiling));
        match norm.normalize(&mut store, goal).unwrap_err() {
            RewriteError::BudgetExceeded { reason, .. } => {
                assert_eq!(reason, StopReason::MemoryExceeded);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn a_full_poly_store_is_emptied_at_entry_with_every_scopes_poly_cache() {
        let (mut store, alg, [_, _, _, qa, goal]) = scope_world();
        let mut norm = Normalizer::new(alg, RuleSet::new());
        let before = norm.normalize_to_poly(&mut store, goal).unwrap();
        let root_memo = caches(&norm).0;
        assert!(!caches(&norm).1.is_empty());
        norm.push_scope();
        // Shrinking the capacity clears the scope's caches; the next entry
        // finds the store over capacity and empties it.
        norm.set_cache_capacity(2);
        assert!(norm.ring.poly_count() > 2);
        norm.normalize(&mut store, qa).unwrap();
        assert_eq!(norm.ring.poly_count(), 2, "only the constants are left");
        norm.pop_scope();
        let (memo, polys) = caches(&norm);
        assert!(polys.is_empty(), "no stale id comes back with the pop");
        assert_eq!(memo, root_memo, "the memo comes back whole");
        norm.set_cache_capacity(DEFAULT_CACHE_CAPACITY);
        assert_eq!(norm.normalize_to_poly(&mut store, goal).unwrap(), before);
    }

    /// A world with same-head rule families and a conditional rule, so
    /// the index has something to prune and something to leave to the
    /// matcher.
    fn prunable_world() -> (TermStore, BoolAlg, RuleSet, Vec<TermId>) {
        let mut sig = Signature::new();
        let mut alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let f = sig.add_op("f", &[s], s, OpAttrs::defined()).unwrap();
        let h = sig.add_op("h", &[s], s, OpAttrs::defined()).unwrap();
        let mut store = TermStore::new(sig);
        let x = store.declare_var("X", s).unwrap();
        let xt = store.var(x);
        let cv = store.constant(c);
        let dv = store.constant(d);
        let fc = store.app(f, &[cv]).unwrap();
        let fd = store.app(f, &[dv]).unwrap();
        let hx = store.app(h, &[xt]).unwrap();
        let cond = alg.eq(&mut store, xt, cv).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&store, "f-c", fc, dv, None, None).unwrap();
        rules.add(&store, "f-d", fd, cv, None, None).unwrap();
        rules
            .add(&store, "h-c", hx, cv, Some(cond), Some(alg.sort()))
            .unwrap();
        let a = store.fresh_constant("a", s);
        let fa = store.app(f, &[a]).unwrap();
        let hc = store.app(h, &[cv]).unwrap();
        let ha = store.app(h, &[a]).unwrap();
        let fhc = store.app(f, &[hc]).unwrap();
        let subjects = vec![fc, fd, fa, hc, ha, fhc];
        (store, alg, rules, subjects)
    }

    #[test]
    fn indexed_matching_matches_linear_scan_bit_for_bit() {
        let (mut store, alg, rules, subjects) = prunable_world();
        let mut run = |use_index: bool| {
            let mut norm = Normalizer::new(alg.clone(), rules.clone());
            norm.set_indexing(use_index);
            let outs: Vec<TermId> = subjects
                .iter()
                .map(|&t| norm.normalize(&mut store, t).unwrap())
                .collect();
            (
                outs,
                norm.stats(),
                norm.take_blocked(),
                norm.engine_counters(),
            )
        };
        let (linear_out, linear_stats, linear_blocked, linear_counters) = run(false);
        let (indexed_out, indexed_stats, indexed_blocked, indexed_counters) = run(true);
        assert_eq!(indexed_out, linear_out, "normal forms");
        assert_eq!(indexed_stats, linear_stats, "full RewriteStats");
        assert_eq!(indexed_blocked, linear_blocked, "blocked conditions");
        assert_eq!(linear_counters, EngineCounters::default());
        assert!(indexed_counters.index_lookups > 0);
        assert!(
            indexed_counters.index_pruned > 0,
            "f(a) and f(d) attempts must prune the incompatible f-rules: {indexed_counters:?}"
        );
    }
}
