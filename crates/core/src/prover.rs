//! The inductive prover: mechanized proof scores.
//!
//! §2.4 and §5.2 of the paper describe the manual workflow: for each
//! invariant and each transition, write proof passages that (a) split the
//! state space into sub-cases, (b) optionally strengthen the induction
//! hypothesis with instances of other invariants, and (c) ask `red` to
//! reduce `SIH implies istep(...)` to `true`.
//!
//! [`Prover`] automates the same loop:
//!
//! * the **goal** of the inductive case for invariant `inv` and action `a`
//!   is `inv(s, xs) implies inv(a(s, ys), xs)` with `s`, `xs`, `ys` fresh
//!   arbitrary constants (the paper's "arbitrary objects");
//! * when the goal does not reduce, the normalizer reports the **blocked
//!   effective conditions**; the prover splits on them — the `true` branch
//!   assumes each conjunct (orienting equalities exactly like the paper's
//!   nine component equations), the `false` branch rewrites the whole
//!   condition to `false`, which lets the frame equation
//!   `a(s, ys) = s if not c-a(...)` fire;
//! * hinted **lemmas** are instantiated at the pre-state with candidate
//!   terms harvested from the goal, normalized under the current
//!   assumptions, and conjoined into the hypothesis — when an instance
//!   reduces to `false` the sub-case is unreachable and discharges
//!   vacuously (this is how `inv1` strengthens the fifth `fakeSfin2`
//!   sub-case in §5.2).
//!
//! Every leaf of the search is one proof passage; discharged passages can
//! be rendered as CafeOBJ-style `open … close` blocks by
//! [`crate::score`].

use crate::error::CoreError;
use crate::invariant::{Invariant, InvariantSet};
use crate::ledger::Ledger;
use crate::ots::{Action, Ots};
use crate::report::{CaseOutcome, Decision, OpenCase, ProofReport, ProverMetrics, StepReport};
use equitls_kernel::prelude::*;
use equitls_obs::sink::Obs;
use equitls_rewrite::assumption::orient_equation;
use equitls_rewrite::boolring::Poly;
use equitls_rewrite::budget::{panic_message, trigger_injected_panic};
use equitls_rewrite::prelude::*;
use equitls_spec::spec::Spec;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tunables for the proof search.
#[derive(Debug, Clone)]
pub struct ProverConfig {
    /// Maximum case-split depth per proof obligation.
    pub max_splits: usize,
    /// Maximum candidate terms per sort when instantiating lemmas.
    pub max_candidates_per_sort: usize,
    /// Maximum lemma instances conjoined into one hypothesis.
    pub max_lemma_instances: usize,
    /// Maximum monomials tolerated in a lemma instance before it is
    /// dropped from the hypothesis (keeps the ring small).
    pub max_instance_monomials: usize,
    /// Hard cap on proof passages per obligation (runaway guard).
    pub max_passages: usize,
    /// Rewriting fuel per reduction.
    pub fuel: u64,
    /// Record each discharged case's decision trail so proof scores can
    /// be rendered (`StepReport::scores`). Off by default (the trails of a
    /// large campaign are sizable). The search keeps its trail as terms
    /// and renders it to text only when it is recorded: here, or for an
    /// open case.
    pub record_scores: bool,
    /// Collect per-rule profiles in the rewrite engine
    /// (`Normalizer::set_profiling`) and emit them as observability events
    /// after each obligation. Off by default: profiling reads the clock on
    /// every rule attempt.
    pub profile_rules: bool,
    /// Constructor-completeness witnesses: maps a kind predicate operator
    /// (e.g. `sh?`) to the constructor it recognizes (e.g. `sh`). When the
    /// prover assumes `pred?(x) = true` for an arbitrary constant `x`, it
    /// may soundly orient `x` to a fresh instance of the constructor —
    /// the predicate holds only for values built by that constructor.
    pub witnesses: HashMap<OpId, OpId>,
    /// Worker threads for independent proof obligations (`0` = available
    /// parallelism). Results are identical for every value: each worker
    /// runs its obligations on its own clone of the caller's [`Spec`],
    /// rolled back to the clone's starting state after every obligation,
    /// so term arenas never cross threads and no obligation sees
    /// another's fresh constants or assumptions.
    pub jobs: usize,
    /// Shared resource budget (deadline, heap ceiling, cancel token).
    /// Every obligation's normalizer checks it; a trip leaves the
    /// obligation open with a `(budget: …)` residual instead of killing
    /// the run. Unlimited by default.
    pub budget: Budget,
    /// Deterministic fault-injection plan for tests of the degradation
    /// paths. `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Path of the crash-safe obligation ledger ([`crate::ledger`]).
    /// `None` (the default) disables checkpointing. With a path set,
    /// every finished obligation is recorded and the ledger is
    /// atomically rewritten at obligation boundaries.
    pub checkpoint_path: Option<PathBuf>,
    /// Minimum seconds between ledger writes (`0` = write after every
    /// obligation). A final write always happens when the campaign's
    /// tasks finish, regardless of the throttle.
    pub checkpoint_every_secs: u64,
    /// Resume from the ledger at `checkpoint_path`: obligations it
    /// records as [`CaseOutcome::Proved`] are spliced into the report
    /// without re-running (open/faulted/skipped ones always re-run).
    /// Requires a readable, valid ledger — a missing or corrupt snapshot
    /// is a typed [`CoreError::Persist`], never a silent fresh start.
    pub resume: bool,
    /// Disable the discrimination-tree candidate index and fall back to
    /// the per-head linear scan. The index returns candidates in
    /// declaration order, so results are identical either way; this
    /// knob exists for benchmarks and A/B determinism tests.
    pub linear_scan: bool,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            max_splits: 64,
            max_candidates_per_sort: 6,
            max_lemma_instances: 16,
            max_instance_monomials: 16,
            max_passages: 20_000,
            fuel: 2_000_000,
            record_scores: false,
            profile_rules: false,
            witnesses: HashMap::new(),
            jobs: 1,
            budget: Budget::unlimited(),
            fault_plan: None,
            checkpoint_path: None,
            checkpoint_every_secs: 0,
            resume: false,
            linear_scan: false,
        }
    }
}

pub use equitls_rewrite::budget::resolve_jobs;

/// Which lemmas strengthen which obligations.
///
/// Lemma names refer to invariants registered in the same
/// [`InvariantSet`]. Simultaneous induction makes it sound to assume any
/// of them at the *pre*-state while proving any other.
#[derive(Debug, Clone, Default)]
pub struct Hints {
    global: HashMap<String, Vec<String>>,
    per_action: HashMap<(String, String), Vec<String>>,
}

impl Hints {
    /// No hints.
    pub fn new() -> Self {
        Hints::default()
    }

    /// Use `lemma` when proving `invariant`, for every action.
    pub fn lemma(mut self, invariant: &str, lemma: &str) -> Self {
        self.global
            .entry(invariant.to_string())
            .or_default()
            .push(lemma.to_string());
        self
    }

    /// Use `lemma` when proving `invariant` against `action` only.
    pub fn lemma_for_action(mut self, invariant: &str, action: &str, lemma: &str) -> Self {
        self.per_action
            .entry((invariant.to_string(), action.to_string()))
            .or_default()
            .push(lemma.to_string());
        self
    }

    fn lemmas_for<'a>(&'a self, invariant: &str, action: Option<&str>) -> Vec<&'a str> {
        let mut out: Vec<&str> = Vec::new();
        if let Some(global) = self.global.get(invariant) {
            out.extend(global.iter().map(String::as_str));
        }
        if let Some(action) = action {
            if let Some(extra) = self
                .per_action
                .get(&(invariant.to_string(), action.to_string()))
            {
                out.extend(extra.iter().map(String::as_str));
            }
        }
        out.dedup();
        out
    }
}

/// The result of one proof-passage leaf.
enum Leaf {
    Proved,
    Vacuous,
    /// The normal form that stayed open; rendered only if the case is
    /// recorded as an [`OpenCase`].
    Open(TermId),
}

/// One split decision on the search trail: the decision's kind and the
/// term it assumed. A trail is rendered into [`Decision`]s only when it
/// is recorded (a proof score or an open case).
#[derive(Clone, Copy)]
enum Step {
    CondTrue(TermId),
    CondFalse(TermId),
    Atom(TermId, bool),
}

/// Why a passage stayed open: a goal that did not reduce (rendered and
/// truncated when recorded) or a stop message.
enum Residual {
    Goal(TermId),
    Note(String),
}

/// Mutable search state threaded through the case-split recursion. The
/// metrics are the public [`ProverMetrics`]; every leaf bumps `passages`
/// and exactly one of the verdict buckets.
struct SearchStats {
    metrics: ProverMetrics,
    scores: Vec<Vec<Decision>>,
}

/// The inductive prover over one specification + OTS.
pub struct Prover<'a> {
    spec: &'a mut Spec,
    ots: &'a Ots,
    invariants: &'a InvariantSet,
    config: ProverConfig,
    obs: Obs,
}

impl<'a> Prover<'a> {
    /// Create a prover.
    pub fn new(spec: &'a mut Spec, ots: &'a Ots, invariants: &'a InvariantSet) -> Self {
        Prover {
            spec,
            ots,
            invariants,
            config: ProverConfig::default(),
            obs: Obs::noop(),
        }
    }

    /// Replace the default configuration.
    pub fn with_config(mut self, config: ProverConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach an observability handle. Obligations become spans, case
    /// splits and leaf verdicts become counters, and (with
    /// `ProverConfig::profile_rules`) per-rule profiles are emitted after
    /// each obligation.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Prove `invariant` by simultaneous induction over all transitions.
    ///
    /// The base case and each action's inductive case are independent
    /// obligations; with `ProverConfig::jobs > 1` they are distributed
    /// across worker threads. Each worker clones the caller's [`Spec`]
    /// once and closes every obligation by rolling that clone back to the
    /// mark taken before it (at every jobs value, including 1), so the
    /// report is byte-identical for any thread count and the caller's spec
    /// is left untouched.
    ///
    /// # Errors
    ///
    /// Unknown names, or a rewriting failure (fuel exhaustion). With
    /// several failing obligations the error of the earliest one (base
    /// first, then campaign action order) is returned, regardless of
    /// which worker finished first.
    pub fn prove_inductive(
        &mut self,
        invariant: &str,
        hints: &Hints,
    ) -> Result<ProofReport, CoreError> {
        let start = Instant::now();
        let inv = self
            .invariants
            .get(invariant)
            .ok_or_else(|| CoreError::UnknownInvariant(invariant.to_string()))?
            .clone();
        // Build the discrimination-tree index once on the caller's rule
        // set: every worker's spec clone then shares it by `Arc` instead
        // of rebuilding it.
        if !self.config.linear_scan {
            self.spec.rules().path_index(self.spec.store());
        }
        let ctx = TaskCtx {
            spec: self.spec,
            ots: self.ots,
            invariants: self.invariants,
            config: &self.config,
            obs: &self.obs,
            inv: &inv,
            inv_name: invariant,
            hints,
            case_lemmas: Vec::new(),
        };
        let mut tasks: Vec<Task<'_>> = vec![Task::Base];
        tasks.extend(self.ots.actions.iter().map(Task::Step));
        let mut reports = run_tasks(&ctx, &tasks)?;
        let base = reports.remove(0);
        Ok(ProofReport::new(invariant, base, reports, start.elapsed()))
    }

    /// Prove `invariant` by case analysis only (no induction): the goal is
    /// `lemmas(s, …) implies invariant(s, xs)` for an arbitrary state `s`.
    ///
    /// This covers the paper's properties 4 and 5, which are "proved by
    /// case analyses with other properties". A case analysis is a single
    /// obligation, so `ProverConfig::jobs` has nothing to distribute here;
    /// campaigns parallelize across properties instead (each property's
    /// obligation is independent). Like [`Prover::prove_inductive`], the
    /// obligation runs on one clone of the caller's [`Spec`], which is left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Unknown names, or a rewriting failure.
    pub fn prove_by_cases(
        &mut self,
        invariant: &str,
        lemma_names: &[&str],
    ) -> Result<ProofReport, CoreError> {
        let start = Instant::now();
        let inv = self
            .invariants
            .get(invariant)
            .ok_or_else(|| CoreError::UnknownInvariant(invariant.to_string()))?
            .clone();
        // Build the discrimination-tree index once on the caller's rule
        // set: every worker's spec clone then shares it by `Arc` instead
        // of rebuilding it.
        if !self.config.linear_scan {
            self.spec.rules().path_index(self.spec.store());
        }
        let hints = Hints::new();
        let ctx = TaskCtx {
            spec: self.spec,
            ots: self.ots,
            invariants: self.invariants,
            config: &self.config,
            obs: &self.obs,
            inv: &inv,
            inv_name: invariant,
            hints: &hints,
            case_lemmas: lemma_names.iter().map(|s| (*s).to_string()).collect(),
        };
        let mut reports = run_tasks(&ctx, &[Task::CaseAnalysis])?;
        Ok(ProofReport::new(
            invariant,
            reports.remove(0),
            Vec::new(),
            start.elapsed(),
        ))
    }

    fn resolve_lemmas(&self, names: &[&str]) -> Result<Vec<Invariant>, CoreError> {
        names
            .iter()
            .map(|n| {
                self.invariants
                    .get(n)
                    .cloned()
                    .ok_or_else(|| CoreError::UnknownInvariant((*n).to_string()))
            })
            .collect()
    }

    fn fresh_params(&mut self, inv: &Invariant) -> Result<Vec<TermId>, CoreError> {
        let sorts = inv.param_sorts(self.spec);
        Ok(sorts
            .iter()
            .map(|&sort| {
                let prefix = self.spec.store().signature().sort(sort).name.to_lowercase();
                self.spec.store_mut().fresh_constant(&prefix, sort)
            })
            .collect())
    }

    /// One inductive case: action `a` preserves `inv`.
    fn prove_step(
        &mut self,
        inv: &Invariant,
        action: &Action,
        lemmas: &[Invariant],
    ) -> Result<StepReport, CoreError> {
        let state_sort = self.ots.state_sort;
        let s = self.spec.store_mut().fresh_constant("s", state_sort);
        let xs = self.fresh_params(inv)?;
        let ys: Vec<TermId> = action
            .params
            .iter()
            .map(|&sort| {
                let prefix = self.spec.store().signature().sort(sort).name.to_lowercase();
                self.spec.store_mut().fresh_constant(&prefix, sort)
            })
            .collect();
        let mut succ_args = vec![s];
        succ_args.extend(ys.iter().copied());
        let successor = self.spec.store_mut().app(action.op, &succ_args)?;
        let hyp = inv.instantiate(self.spec, s, &xs)?;
        let concl = inv.instantiate(self.spec, successor, &xs)?;
        let alg = self.spec.alg().clone();
        let goal = alg.implies(self.spec.store_mut(), hyp, concl)?;
        self.search_obligation(&action.name, goal, s, lemmas)
    }

    /// Run the case-split search for one obligation.
    fn search_obligation(
        &mut self,
        name: &str,
        goal: TermId,
        pre_state: TermId,
        lemmas: &[Invariant],
    ) -> Result<StepReport, CoreError> {
        let start = Instant::now();
        let _span = self.obs.span(&format!("prover.obligation:{name}"));
        let mut norm = self.spec.normalizer();
        norm.set_fuel_limit(self.config.fuel);
        norm.set_budget(self.config.budget.clone());
        if let Some(plan) = &self.config.fault_plan {
            match plan.fault_for(FaultSite::Obligation, name, 0) {
                Some(FaultKind::Panic) => trigger_injected_panic(FaultSite::Obligation, name, 0),
                Some(FaultKind::FuelStarvation) => norm.set_fuel_limit(0),
                // Stop-kind obligation faults are handled before the task
                // starts (see `run_task`); rewrite-site faults are the
                // hook's job.
                _ => {}
            }
            norm.set_fault_plan(plan.clone(), name);
        }
        norm.set_obs(self.obs.clone());
        if self.config.profile_rules {
            norm.set_profiling(true);
        }
        norm.set_indexing(!self.config.linear_scan);
        let mut stats = SearchStats {
            metrics: ProverMetrics::default(),
            scores: Vec::new(),
        };
        let mut open = Vec::new();
        let mut trail = Vec::new();
        self.search(
            &mut norm, goal, pre_state, lemmas, 0, &mut trail, &mut stats, &mut open,
        )?;
        // Every branch ran in a scope of `norm`, so its counters cover the
        // whole obligation.
        let rewrite_stats = norm.stats();
        stats.metrics.rewrites = rewrite_stats.rewrites;
        norm.emit_profile();
        if self.obs.enabled() {
            self.obs
                .gauge("kernel.term_count", self.spec.store().term_count() as f64);
        }
        let outcome = if open.is_empty() {
            CaseOutcome::Proved
        } else {
            CaseOutcome::Open(open)
        };
        Ok(StepReport {
            action: name.to_string(),
            outcome,
            metrics: stats.metrics,
            rewrite_stats,
            duration: start.elapsed(),
            scores: stats.scores,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        norm: &mut Normalizer,
        goal: TermId,
        pre_state: TermId,
        lemmas: &[Invariant],
        depth: usize,
        trail: &mut Vec<Step>,
        stats: &mut SearchStats,
        open: &mut Vec<OpenCase>,
    ) -> Result<(), CoreError> {
        stats.metrics.max_depth = stats.metrics.max_depth.max(depth);
        if stats.metrics.passages >= self.config.max_passages {
            self.leaf_open(
                stats,
                open,
                trail,
                Residual::Note("(passage budget exhausted)".to_string()),
            );
            return Ok(());
        }
        // The normalization span nests under `prover.obligation:<name>`,
        // so trace tools can attribute obligation time to the rewrite
        // engine vs. the split search (one sample per passage).
        let reduced = {
            let _span = self.obs.span("prover.normalize");
            self.reduce_with_sih(norm, goal, pre_state, lemmas)
        };
        let (leaf, blocked, pool) = match reduced {
            Ok(x) => x,
            Err(e) if is_budget_error(&e) => {
                self.leaf_open(stats, open, trail, Residual::Note(budget_residual(&e)));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        match leaf {
            Leaf::Proved => {
                stats.metrics.passages += 1;
                stats.metrics.proved += 1;
                self.obs.counter("prover.leaf.proved", 1);
                if self.config.record_scores {
                    stats.scores.push(self.render_trail(trail));
                }
                Ok(())
            }
            Leaf::Vacuous => {
                self.leaf_vacuous(stats);
                if self.config.record_scores {
                    stats.scores.push(self.render_trail(trail));
                }
                Ok(())
            }
            Leaf::Open(residual) if depth >= self.config.max_splits => {
                self.leaf_open(stats, open, trail, Residual::Goal(residual));
                Ok(())
            }
            Leaf::Open(residual) => {
                // Choose a split.
                let split = match self.choose_split(norm, goal, &blocked, &pool) {
                    Ok(s) => s,
                    Err(e) if is_budget_error(&e) => {
                        self.leaf_open(stats, open, trail, Residual::Note(budget_residual(&e)));
                        return Ok(());
                    }
                    Err(e) => return Err(e),
                };
                match split {
                    Some(Split::Condition { cond, atoms }) => {
                        stats.metrics.splits += 1;
                        self.obs.counter("prover.split:cond", 1);
                        // TRUE branch: assume each conjunct, equalities
                        // first so their orientations reach the rest.
                        {
                            norm.push_scope();
                            let mut feasible = true;
                            let mut stop: Option<String> = None;
                            let mut ordered = atoms.clone();
                            let alg = self.spec.alg().clone();
                            ordered.sort_by_key(|&a| {
                                let is_eq = self
                                    .spec
                                    .store()
                                    .op_of(a)
                                    .map(|op| alg.is_eq_op(op))
                                    .unwrap_or(false);
                                (!is_eq, self.spec.store().size(a))
                            });
                            for &atom in &ordered {
                                match self.assume_atom(norm, atom, true) {
                                    Ok(true) => {}
                                    Ok(false) => {
                                        feasible = false;
                                        break;
                                    }
                                    Err(e) if is_budget_error(&e) => {
                                        stop = Some(budget_residual(&e));
                                        break;
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                            trail.push(Step::CondTrue(cond));
                            if let Some(residual) = stop {
                                self.leaf_open(stats, open, trail, Residual::Note(residual));
                            } else if feasible {
                                self.search(
                                    norm,
                                    goal,
                                    pre_state,
                                    lemmas,
                                    depth + 1,
                                    trail,
                                    stats,
                                    open,
                                )?;
                            } else {
                                self.leaf_vacuous(stats);
                            }
                            norm.pop_scope();
                            trail.pop();
                        }
                        // FALSE branch: the whole condition is false.
                        {
                            norm.push_scope();
                            let feasible = match self.assume_term(norm, cond, false) {
                                Ok(f) => f,
                                Err(e) if is_budget_error(&e) => {
                                    norm.pop_scope();
                                    self.leaf_open(
                                        stats,
                                        open,
                                        trail,
                                        Residual::Note(budget_residual(&e)),
                                    );
                                    return Ok(());
                                }
                                Err(e) => return Err(e),
                            };
                            trail.push(Step::CondFalse(cond));
                            if feasible {
                                self.search(
                                    norm,
                                    goal,
                                    pre_state,
                                    lemmas,
                                    depth + 1,
                                    trail,
                                    stats,
                                    open,
                                )?;
                            } else {
                                self.leaf_vacuous(stats);
                            }
                            norm.pop_scope();
                            trail.pop();
                        }
                        Ok(())
                    }
                    Some(Split::Atom(atom)) => {
                        stats.metrics.splits += 1;
                        self.obs.counter("prover.split:atom", 1);
                        for value in [true, false] {
                            norm.push_scope();
                            let feasible = match self.assume_atom(norm, atom, value) {
                                Ok(f) => f,
                                Err(e) if is_budget_error(&e) => {
                                    norm.pop_scope();
                                    self.leaf_open(
                                        stats,
                                        open,
                                        trail,
                                        Residual::Note(budget_residual(&e)),
                                    );
                                    continue;
                                }
                                Err(e) => return Err(e),
                            };
                            trail.push(Step::Atom(atom, value));
                            if feasible {
                                self.search(
                                    norm,
                                    goal,
                                    pre_state,
                                    lemmas,
                                    depth + 1,
                                    trail,
                                    stats,
                                    open,
                                )?;
                            } else {
                                self.leaf_vacuous(stats);
                            }
                            norm.pop_scope();
                            trail.pop();
                        }
                        Ok(())
                    }
                    None => {
                        self.leaf_open(stats, open, trail, Residual::Goal(residual));
                        Ok(())
                    }
                }
            }
        }
    }

    /// Account one vacuous leaf (infeasible branch).
    fn leaf_vacuous(&self, stats: &mut SearchStats) {
        stats.metrics.passages += 1;
        stats.metrics.vacuous += 1;
        self.obs.counter("prover.leaf.vacuous", 1);
    }

    /// Account one open leaf and record it: its rendered trail and
    /// residual.
    fn leaf_open(
        &self,
        stats: &mut SearchStats,
        open: &mut Vec<OpenCase>,
        trail: &[Step],
        residual: Residual,
    ) {
        stats.metrics.passages += 1;
        stats.metrics.open += 1;
        self.obs.counter("prover.leaf.open", 1);
        let residual = match residual {
            Residual::Goal(n) => self.render_residual(n),
            Residual::Note(note) => note,
        };
        open.push(OpenCase {
            decisions: self
                .render_trail(trail)
                .iter()
                .map(Decision::render)
                .collect(),
            residual,
        });
    }

    /// Render a search trail into the public [`Decision`]s.
    fn render_trail(&self, trail: &[Step]) -> Vec<Decision> {
        let store = self.spec.store();
        trail
            .iter()
            .map(|&step| match step {
                Step::CondTrue(cond) => Decision::CondTrue {
                    cond: store.display(cond).to_string(),
                },
                Step::CondFalse(cond) => Decision::CondFalse {
                    cond: store.display(cond).to_string(),
                },
                Step::Atom(atom, value) => Decision::Atom {
                    atom: store.display(atom).to_string(),
                    value,
                },
            })
            .collect()
    }

    /// Normalize the goal, strengthen with lemma instances, and classify.
    /// Also returns the effective conditions that blocked conditional
    /// rules while reducing the goal — the split candidates.
    fn reduce_with_sih(
        &mut self,
        norm: &mut Normalizer,
        goal: TermId,
        pre_state: TermId,
        lemmas: &[Invariant],
    ) -> Result<(Leaf, Vec<TermId>, Vec<TermId>), CoreError> {
        let alg = self.spec.alg().clone();
        let _ = norm.take_blocked();
        let n = norm.normalize(self.spec.store_mut(), goal)?;
        let blocked = norm.take_blocked();
        if alg.as_constant(self.spec.store(), n) == Some(true) {
            return Ok((Leaf::Proved, blocked, Vec::new()));
        }
        if lemmas.is_empty() {
            return Ok((Leaf::Open(n), blocked, Vec::new()));
        }
        let goal_poly = norm.normalize_to_poly(self.spec.store_mut(), n)?;
        let goal_atoms = goal_poly.atoms();
        // Harvest candidate instantiation terms from the goal's atoms.
        let candidates = self.harvest_candidates(&goal_atoms);
        // Conjoin lemma-instance polynomials directly at the ring level:
        // term-level conjunction would rebuild (and re-walk) a product
        // with potentially thousands of monomials. Instantiation runs in
        // rounds: atoms introduced by one instance (e.g. inv2's genuine-sf
        // conclusion) seed the next round's pattern matching (e.g.
        // lem-sf-session's premise).
        let mut sih_poly = Poly::one();
        let mut used = 0usize;
        let mut seen: Vec<TermId> = Vec::new();
        let mut atom_pool = goal_atoms.clone();
        for _round in 0..3 {
            let mut grew = false;
            for lemma in lemmas {
                let mut tuples = self.pattern_tuples(lemma, &atom_pool, &candidates);
                if tuples.is_empty() {
                    // Cartesian fallback only when pattern matching found
                    // nothing — it generates mostly-irrelevant tuples.
                    tuples = self.instantiation_tuples(lemma, &candidates);
                }
                for tuple in tuples {
                    if used >= self.config.max_lemma_instances {
                        break;
                    }
                    let inst = lemma.instantiate(self.spec, pre_state, &tuple)?;
                    let ni = norm.normalize(self.spec.store_mut(), inst)?;
                    match alg.as_constant(self.spec.store(), ni) {
                        Some(true) => continue,
                        Some(false) => return Ok((Leaf::Vacuous, blocked, atom_pool)),
                        None => {
                            if seen.contains(&ni) {
                                continue;
                            }
                            seen.push(ni);
                            let p = norm.normalize_to_poly(self.spec.store_mut(), ni)?;
                            let product_bound = 4096;
                            // Anchor on a shared *semantic* atom (a
                            // membership or predicate, not a mere equality)
                            // so noise instances don't burn the budget.
                            let anchored = p.atoms().iter().any(|&a| {
                                atom_pool.contains(&a)
                                    && self
                                        .spec
                                        .store()
                                        .op_of(a)
                                        .map(|op| !alg.is_eq_op(op))
                                        .unwrap_or(false)
                            });
                            if p.monomial_count() <= self.config.max_instance_monomials
                                && anchored
                                && sih_poly.monomial_count() * p.monomial_count() <= product_bound
                            {
                                sih_poly = sih_poly.mul(&p);
                                used += 1;
                                for a in p.atoms() {
                                    if !atom_pool.contains(&a) {
                                        atom_pool.push(a);
                                        grew = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        if sih_poly.is_false() {
            // The conjunction of known invariants is false here: the case
            // is unreachable.
            return Ok((Leaf::Vacuous, blocked, atom_pool));
        }
        if used == 0 {
            return Ok((Leaf::Open(n), blocked, atom_pool));
        }
        // goal2 = sih implies goal = 1 + sih + sih·goal, all in the ring.
        let goal2 = Poly::one().add(&sih_poly).add(&sih_poly.mul(&goal_poly));
        if goal2.is_true() {
            return Ok((Leaf::Proved, blocked, atom_pool));
        }
        Ok((Leaf::Open(n), blocked, atom_pool))
    }

    /// The residual goal of an open case, rendered and truncated.
    fn render_residual(&self, n: TermId) -> String {
        truncate_residual(self.spec.store().display(n).to_string())
    }

    /// Candidate terms per sort, harvested from goal atoms.
    fn harvest_candidates(&self, atoms: &[TermId]) -> HashMap<SortId, Vec<TermId>> {
        let mut map: HashMap<SortId, Vec<TermId>> = HashMap::new();
        for &atom in atoms {
            for sub in self.spec.store().subterms(atom) {
                let sort = self.spec.store().sort_of(sub);
                let entry = map.entry(sort).or_default();
                if !entry.contains(&sub) && entry.len() < self.config.max_candidates_per_sort {
                    entry.push(sub);
                }
            }
        }
        map
    }

    /// Pattern-guided instantiation: match the lemma body's own atoms
    /// (which contain the lemma's parameter variables) against the goal's
    /// ground atoms, and read the parameter bindings off the match. This
    /// finds e.g. the nine parameters of `lem-sf-session` directly from
    /// the `sf(B,B,A,…) \in nw(P)` atom of the goal.
    fn pattern_tuples(
        &mut self,
        lemma: &Invariant,
        goal_atoms: &[TermId],
        candidates: &HashMap<SortId, Vec<TermId>>,
    ) -> Vec<Vec<TermId>> {
        use equitls_kernel::matching::{match_term, MatchOutcome};
        // Collect the lemma body's candidate pattern atoms: Bool-sorted
        // applications that are not connectives/equalities and that
        // mention at least one parameter variable.
        let alg = self.spec.alg().clone();
        let bool_sort = alg.sort();
        let connectives = [
            alg.not_op(),
            alg.and_op(),
            alg.or_op(),
            alg.xor_op(),
            alg.implies_op(),
            alg.iff_op(),
            alg.ite_op(),
        ];
        let body_subterms = self.spec.store().subterms(lemma.body);
        let mut patterns = Vec::new();
        for t in body_subterms {
            if self.spec.store().sort_of(t) != bool_sort {
                continue;
            }
            let op = match self.spec.store().op_of(t) {
                Some(op) => op,
                None => continue,
            };
            if connectives.contains(&op) || alg.is_eq_op(op) {
                continue;
            }
            let vars = self.spec.store().vars_of(t);
            if vars.iter().any(|v| lemma.params.contains(v)) {
                patterns.push(t);
            }
        }
        let mut tuples: Vec<Vec<TermId>> = Vec::new();
        for pattern in patterns {
            for &atom in goal_atoms {
                let subst = match match_term(self.spec.store(), pattern, atom) {
                    MatchOutcome::Matched(s) => s,
                    MatchOutcome::Failed => continue,
                };
                // Build one tuple per match, filling unbound parameters
                // from the candidate pool (first candidate only, to keep
                // the blowup bounded).
                let mut tuple = Vec::with_capacity(lemma.params.len());
                let mut complete = true;
                for &param in &lemma.params {
                    if let Some(t) = subst.get(param) {
                        tuple.push(t);
                    } else {
                        let sort = self.spec.store().var_decl(param).sort;
                        match candidates.get(&sort).and_then(|c| c.first()) {
                            Some(&c) => tuple.push(c),
                            None => {
                                complete = false;
                                break;
                            }
                        }
                    }
                }
                if complete && !tuples.contains(&tuple) {
                    tuples.push(tuple);
                }
                if tuples.len() >= self.config.max_lemma_instances {
                    return tuples;
                }
            }
        }
        tuples
    }

    fn instantiation_tuples(
        &self,
        lemma: &Invariant,
        candidates: &HashMap<SortId, Vec<TermId>>,
    ) -> Vec<Vec<TermId>> {
        let sorts = lemma.param_sorts(self.spec);
        let mut tuples: Vec<Vec<TermId>> = vec![Vec::new()];
        for sort in sorts {
            let empty = Vec::new();
            let cands = candidates.get(&sort).unwrap_or(&empty);
            if cands.is_empty() {
                return Vec::new();
            }
            let mut next = Vec::new();
            for tuple in &tuples {
                for &c in cands {
                    let mut t = tuple.clone();
                    t.push(c);
                    next.push(t);
                    if next.len() >= 4 * self.config.max_lemma_instances {
                        break;
                    }
                }
            }
            tuples = next;
        }
        tuples
    }

    /// Assume a Bool atom's truth value; returns `false` when the
    /// assumption is infeasible (the atom already has the opposite value),
    /// making the branch vacuous.
    fn assume_atom(
        &mut self,
        norm: &mut Normalizer,
        atom: TermId,
        value: bool,
    ) -> Result<bool, CoreError> {
        let alg = self.spec.alg().clone();
        let n = norm.normalize(self.spec.store_mut(), atom)?;
        if let Some(b) = alg.as_constant(self.spec.store(), n) {
            return Ok(b == value);
        }
        if value {
            // Constructor-completeness witness: pred?(x) = true for an
            // arbitrary x means x was built by the matching constructor.
            if let Some(op) = self.spec.store().op_of(n) {
                if let Some(&ctor) = self.config.witnesses.get(&op) {
                    let args: Vec<TermId> = self.spec.store().args(n).to_vec();
                    if args.len() == 1 && self.spec.store().is_arbitrary_constant(args[0]) {
                        let arg_sorts: Vec<SortId> =
                            self.spec.store().signature().op(ctor).args.clone();
                        let fresh: Vec<TermId> = arg_sorts
                            .iter()
                            .map(|&sort| {
                                let prefix =
                                    self.spec.store().signature().sort(sort).name.to_lowercase();
                                self.spec.store_mut().fresh_constant(&prefix, sort)
                            })
                            .collect();
                        let witness = self.spec.store_mut().app(ctor, &fresh)?;
                        norm.assume(self.spec.store(), "case-witness", args[0], witness)?;
                        norm.refresh_assumptions(self.spec.store_mut())?;
                        return Ok(!norm.is_infeasible());
                    }
                }
            }
            if let Some(op) = self.spec.store().op_of(n) {
                if alg.is_eq_op(op) {
                    let args: Vec<TermId> = self.spec.store().args(n).to_vec();
                    let mut alg2 = alg.clone();
                    let oriented =
                        orient_equation(self.spec.store_mut(), &mut alg2, args[0], args[1])?;
                    *self.spec.alg_mut() = alg2;
                    for (l, r) in oriented {
                        norm.assume(self.spec.store(), "case-eq", l, r)?;
                    }
                    norm.refresh_assumptions(self.spec.store_mut())?;
                    return Ok(!norm.is_infeasible());
                }
            }
        }
        let rhs = alg.constant(self.spec.store_mut(), value);
        norm.assume(self.spec.store(), "case-atom", n, rhs)?;
        norm.refresh_assumptions(self.spec.store_mut())?;
        Ok(!norm.is_infeasible())
    }

    /// Assume a whole Bool term's value (used for the `false` branch of a
    /// blocked effective condition).
    fn assume_term(
        &mut self,
        norm: &mut Normalizer,
        term: TermId,
        value: bool,
    ) -> Result<bool, CoreError> {
        let alg = self.spec.alg().clone();
        let n = norm.normalize(self.spec.store_mut(), term)?;
        if let Some(b) = alg.as_constant(self.spec.store(), n) {
            return Ok(b == value);
        }
        let rhs = alg.constant(self.spec.store_mut(), value);
        norm.assume(self.spec.store(), "case-cond", n, rhs)?;
        norm.refresh_assumptions(self.spec.store_mut())?;
        Ok(!norm.is_infeasible())
    }

    /// Choose the next split: prefer a blocked effective condition whose
    /// polynomial is a single conjunction; otherwise a goal atom
    /// (equalities and small atoms first).
    fn choose_split(
        &mut self,
        norm: &mut Normalizer,
        goal: TermId,
        blocked: &[TermId],
        lemma_pool: &[TermId],
    ) -> Result<Option<Split>, CoreError> {
        let n = norm.normalize(self.spec.store_mut(), goal)?;
        for &cond in blocked {
            let poly = norm.normalize_to_poly(self.spec.store_mut(), cond)?;
            if poly.as_constant().is_some() {
                continue;
            }
            if poly.monomial_count() == 1 {
                let atoms = poly.monomials().next().expect("single monomial").to_vec();
                let alg = self.spec.alg().clone();
                let cond_term = poly.to_term(self.spec.store_mut(), &alg)?;
                return Ok(Some(Split::Condition {
                    cond: cond_term,
                    atoms,
                }));
            }
            // Disjunctive condition: split on its smallest atom.
            if let Some(atom) = self.smallest_atom(&poly.atoms()) {
                return Ok(Some(Split::Atom(atom)));
            }
        }
        // Fall back to the goal's own atoms — but only *productive* ones.
        // The Boolean ring is complete for propositional reasoning, so a
        // split is useful only when one branch enables rewriting: an
        // orientable equality (substitution) or a kind predicate with a
        // constructor witness. Splitting an opaque membership atom can
        // never close a goal the ring left open.
        let poly = norm.normalize_to_poly(self.spec.store_mut(), n)?;
        if let Some(atom) = self.productive_atom(&poly.atoms()) {
            return Ok(Some(Split::Atom(atom)));
        }
        // Atoms introduced by lemma instances (e.g. the `b = intruder`
        // guard of a session lemma) are split candidates too.
        Ok(self.productive_atom(lemma_pool).map(Split::Atom))
    }

    fn smallest_atom(&self, atoms: &[TermId]) -> Option<TermId> {
        atoms
            .iter()
            .copied()
            .min_by_key(|&a| self.spec.store().size(a))
    }

    /// An atom whose `true` branch enables rewriting, smallest first:
    /// orientable equalities (class 0), then witnessed kind predicates
    /// (class 1).
    fn productive_atom(&self, atoms: &[TermId]) -> Option<TermId> {
        let alg = self.spec.alg();
        let mut best: Option<(usize, usize, TermId)> = None;
        for &a in atoms {
            let op = match self.spec.store().op_of(a) {
                Some(op) => op,
                None => continue,
            };
            let class = if alg.is_eq_op(op) {
                let args = self.spec.store().args(a);
                let (l, r) = (args[0], args[1]);
                let store = self.spec.store();
                let orientable = (store.is_arbitrary_constant(l) && !store.occurs_in(l, r))
                    || (store.is_arbitrary_constant(r) && !store.occurs_in(r, l))
                    || (equitls_rewrite::assumption::is_value(store, l)
                        != equitls_rewrite::assumption::is_value(store, r));
                if orientable {
                    0
                } else {
                    continue;
                }
            } else if self.config.witnesses.contains_key(&op) {
                let args = self.spec.store().args(a);
                if args.len() == 1 && self.spec.store().is_arbitrary_constant(args[0]) {
                    1
                } else {
                    continue;
                }
            } else {
                continue;
            };
            let key = (class, self.spec.store().size(a));
            match best {
                Some((k0, k1, _)) if (key.0, key.1) >= (k0, k1) => {}
                _ => best = Some((key.0, key.1, a)),
            }
        }
        best.map(|(_, _, a)| a)
    }
}

/// One independent proof obligation.
enum Task<'t> {
    /// `inv(init, xs)`.
    Base,
    /// Action `a` preserves `inv`.
    Step(&'t Action),
    /// `lemmas(s, …) implies inv(s, xs)` for arbitrary `s`.
    CaseAnalysis,
}

/// Everything a worker needs to run one obligation. `spec` is the
/// caller's specification: each worker clones it once, runs its
/// obligations on that clone and rolls the clone back after each one
/// ([`run_task`]), so term arenas stay thread-local without locking and
/// every obligation starts from the caller's state.
struct TaskCtx<'c> {
    spec: &'c Spec,
    ots: &'c Ots,
    invariants: &'c InvariantSet,
    config: &'c ProverConfig,
    obs: &'c Obs,
    inv: &'c Invariant,
    inv_name: &'c str,
    hints: &'c Hints,
    case_lemmas: Vec<String>,
}

/// Stack size for prover worker threads. The case-split recursion on top
/// of the rewrite engine's recursion overflows the platform default on
/// the TLS obligations; the repo's binaries and integration tests already
/// run the prover on 512 MiB stacks, so workers match that.
const WORKER_STACK_BYTES: usize = 512 * 1024 * 1024;

/// The obligation name a task reports under.
fn task_name(task: &Task<'_>) -> String {
    match task {
        Task::Base => "init".to_string(),
        Task::Step(action) => action.name.clone(),
        Task::CaseAnalysis => "case-analysis".to_string(),
    }
}

/// The well-formed partial report for an obligation the budget stopped
/// before it could start: one passage, left open with a typed residual, so
/// `passages == proved + vacuous + open` still holds.
fn budget_skipped_report(name: &str, reason: StopReason) -> StepReport {
    StepReport {
        action: name.to_string(),
        outcome: CaseOutcome::Open(vec![OpenCase {
            decisions: Vec::new(),
            residual: format!("(budget: {reason} before obligation start)"),
        }]),
        metrics: ProverMetrics {
            passages: 1,
            open: 1,
            ..ProverMetrics::default()
        },
        rewrite_stats: RewriteStats::default(),
        duration: Duration::ZERO,
        scores: Vec::new(),
    }
}

/// Run one obligation on the worker's `spec` with panic containment and
/// budget gating.
///
/// The obligation runs as a proof passage: `spec` is marked before it and
/// rolled back after it — on success, error and caught panic alike — so
/// the next obligation sees exactly the terms, ids and fresh names a new
/// clone of the caller's spec would have.
///
/// A panic anywhere in the obligation — injected or real — is caught here
/// and recorded as a typed [`CaseOutcome::Fault`], so one bad obligation
/// never poisons its siblings or the worker pool, at any `jobs` value.
fn run_task(ctx: &TaskCtx<'_>, spec: &mut Spec, task: &Task<'_>) -> Result<StepReport, CoreError> {
    let name = task_name(task);
    // Budget gate: once the shared budget is tripped, remaining
    // obligations are skipped with a well-formed open report instead of
    // burning time they no longer have.
    if let Err(reason) = ctx.config.budget.check(0) {
        ctx.obs.counter("prover.budget_skip", 1);
        return Ok(budget_skipped_report(&name, reason));
    }
    if let Some(plan) = &ctx.config.fault_plan {
        match plan.fault_for(FaultSite::Obligation, &name, 0) {
            Some(FaultKind::DeadlineExpiry) => {
                return Ok(budget_skipped_report(&name, StopReason::DeadlineExceeded));
            }
            Some(FaultKind::Cancel) => {
                ctx.config.budget.cancel();
                return Ok(budget_skipped_report(&name, StopReason::Cancelled));
            }
            // Panic and FuelStarvation fire inside the guarded body, in
            // `search_obligation`.
            _ => {}
        }
    }
    let started = Instant::now();
    let mark = spec.mark();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_task_inner(ctx, spec, task)
    }));
    spec.rollback(mark);
    match caught {
        Ok(result) => result,
        Err(payload) => {
            ctx.obs.counter("prover.worker_fault", 1);
            Ok(StepReport {
                action: name.clone(),
                outcome: CaseOutcome::Fault(WorkerFault {
                    site: format!("obligation:{name}"),
                    message: panic_message(&*payload),
                }),
                metrics: ProverMetrics::default(),
                rewrite_stats: RewriteStats::default(),
                duration: started.elapsed(),
                scores: Vec::new(),
            })
        }
    }
}

/// Run one obligation on `spec`, leaving its fresh constants and terms
/// behind for [`run_task`] to roll back.
fn run_task_inner(
    ctx: &TaskCtx<'_>,
    spec: &mut Spec,
    task: &Task<'_>,
) -> Result<StepReport, CoreError> {
    let mut prover = Prover::new(spec, ctx.ots, ctx.invariants)
        .with_config(ctx.config.clone())
        .with_obs(ctx.obs.clone());
    match task {
        Task::Base => {
            let lemmas = prover.resolve_lemmas(&ctx.hints.lemmas_for(ctx.inv_name, None))?;
            let xs = prover.fresh_params(ctx.inv)?;
            let init = ctx.ots.init;
            let goal = ctx.inv.instantiate(prover.spec, init, &xs)?;
            prover.search_obligation("init", goal, init, &lemmas)
        }
        Task::Step(action) => {
            let lemmas =
                prover.resolve_lemmas(&ctx.hints.lemmas_for(ctx.inv_name, Some(&action.name)))?;
            prover.prove_step(ctx.inv, action, &lemmas)
        }
        Task::CaseAnalysis => {
            let names: Vec<&str> = ctx.case_lemmas.iter().map(String::as_str).collect();
            let lemmas = prover.resolve_lemmas(&names)?;
            let state_sort = ctx.ots.state_sort;
            let s = prover.spec.store_mut().fresh_constant("p", state_sort);
            let xs = prover.fresh_params(ctx.inv)?;
            let goal = ctx.inv.instantiate(prover.spec, s, &xs)?;
            prover.search_obligation("case-analysis", goal, s, &lemmas)
        }
    }
}

/// The obligation ledger plus its write policy, shared by all workers
/// behind one mutex (writes happen at obligation boundaries, so the lock
/// is cold).
struct LedgerWriter {
    ledger: Ledger,
    path: PathBuf,
    every_secs: u64,
    last_write: Instant,
    /// Deterministic persist-fault injection (`FaultSite::PersistWrite`,
    /// scope `"ledger"`), consulted before each snapshot attempt.
    fault_plan: Option<FaultPlan>,
    /// Zero-based snapshot-write attempt counter (the fault index).
    writes: u64,
}

impl LedgerWriter {
    /// Record one finished obligation and rewrite the snapshot unless the
    /// throttle says the last write is recent enough.
    fn record(&mut self, invariant: &str, action: &str, report: StepReport, obs: &Obs) {
        self.ledger.record(invariant, action, report);
        if self.every_secs == 0 || self.last_write.elapsed().as_secs() >= self.every_secs {
            self.save(obs);
        }
    }

    /// Atomically rewrite the snapshot. Failure — real or injected via
    /// `FaultSite::PersistWrite` — is non-fatal: the proof result is
    /// unaffected, only crash-safety degrades, so it is counted, not
    /// raised.
    fn save(&mut self, obs: &Obs) {
        let n = self.writes;
        self.writes += 1;
        let injected = self
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.persist_write_fails("ledger", n));
        if injected {
            obs.counter("persist.fault_injected", 1);
            obs.counter("persist.snapshot_failed", 1);
        } else if self.ledger.save(&self.path, obs).is_err() {
            obs.counter("persist.snapshot_failed", 1);
        } else {
            self.last_write = Instant::now();
        }
    }
}

/// Open the obligation ledger for this run, or `None` when checkpointing
/// is off. Resuming demands a valid snapshot (typed error otherwise); a
/// fresh run tolerates a missing or corrupt file and keeps any *other*
/// invariants' entries it can salvage, so one campaign file serves all
/// properties.
fn open_ledger(ctx: &TaskCtx<'_>) -> Result<Option<Mutex<LedgerWriter>>, CoreError> {
    let Some(path) = &ctx.config.checkpoint_path else {
        return Ok(None);
    };
    let ledger = if ctx.config.resume {
        Ledger::load(path, ctx.obs)?
    } else {
        match Ledger::load(path, ctx.obs) {
            Ok(mut salvaged) => {
                salvaged.clear_invariant(ctx.inv_name);
                salvaged
            }
            Err(_) => Ledger::new(),
        }
    };
    Ok(Some(Mutex::new(LedgerWriter {
        ledger,
        path: path.clone(),
        every_secs: ctx.config.checkpoint_every_secs,
        last_write: Instant::now(),
        fault_plan: ctx.config.fault_plan.clone(),
        writes: 0,
    })))
}

/// [`run_task`], short-circuited by the ledger: on resume a recorded
/// `Proved` outcome is returned verbatim (the obligation is pure, so the
/// recorded report *is* the report a re-run would produce); anything else
/// re-runs and the fresh report is recorded.
fn run_or_reuse(
    ctx: &TaskCtx<'_>,
    spec: &mut Spec,
    task: &Task<'_>,
    writer: Option<&Mutex<LedgerWriter>>,
) -> Result<StepReport, CoreError> {
    let name = task_name(task);
    if ctx.config.resume {
        if let Some(writer) = writer {
            let cached = writer
                .lock()
                .expect("ledger lock")
                .ledger
                .lookup(ctx.inv_name, &name)
                .filter(|r| matches!(r.outcome, CaseOutcome::Proved))
                .cloned();
            if let Some(report) = cached {
                ctx.obs.counter("persist.resume_skipped_obligations", 1);
                return Ok(report);
            }
        }
    }
    let result = run_task(ctx, spec, task);
    if let (Ok(report), Some(writer)) = (&result, writer) {
        writer
            .lock()
            .expect("ledger lock")
            .record(ctx.inv_name, &name, report.clone(), ctx.obs);
    }
    result
}

/// Run `tasks` on `config.jobs` workers and return the reports in task
/// order. Each worker clones the caller's spec once, on its first task,
/// and runs every task it takes on that clone. Workers pull the next task
/// off a shared atomic index; results land in per-task slots, so the
/// output order (and, with several failures, which error is reported —
/// the lowest-index one) never depends on scheduling. With
/// `config.checkpoint_path` set, every finished obligation lands in the
/// ledger and a final snapshot is forced when the tasks are done.
fn run_tasks(ctx: &TaskCtx<'_>, tasks: &[Task<'_>]) -> Result<Vec<StepReport>, CoreError> {
    let writer = open_ledger(ctx)?;
    let jobs = resolve_jobs(ctx.config.jobs).min(tasks.len().max(1));
    let reports: Result<Vec<StepReport>, CoreError> = if jobs <= 1 {
        let mut spec = ctx.spec.clone();
        tasks
            .iter()
            .map(|t| run_or_reuse(ctx, &mut spec, t, writer.as_ref()))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<StepReport, CoreError>>>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for w in 0..jobs {
                std::thread::Builder::new()
                    .name(format!("prover-{w}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, || {
                        let mut spec = None;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks.len() {
                                break;
                            }
                            let spec = spec.get_or_insert_with(|| ctx.spec.clone());
                            let result = run_or_reuse(ctx, spec, &tasks[i], writer.as_ref());
                            *slots[i].lock().expect("result slot") = Some(result);
                        }
                    })
                    .expect("spawn prover worker");
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every task was completed by a worker")
            })
            .collect()
    };
    if let Some(writer) = &writer {
        writer.lock().expect("ledger lock").save(ctx.obs);
    }
    reports
}

/// Longest residual an open case keeps, in bytes.
const RESIDUAL_LIMIT: usize = 400;

/// Cut `rendered` to at most [`RESIDUAL_LIMIT`] bytes plus an ellipsis,
/// backing off to a char boundary: operator names may be any Unicode
/// identifier, so byte 400 can fall inside a character.
fn truncate_residual(rendered: String) -> String {
    if rendered.len() <= RESIDUAL_LIMIT {
        return rendered;
    }
    let mut end = RESIDUAL_LIMIT;
    while !rendered.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &rendered[..end])
}

/// A recoverable rewriting stop: fuel ran out or the shared budget
/// tripped. Both leave the current passage open; neither aborts the run.
fn is_budget_error(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Rewrite(
            RewriteError::FuelExhausted { .. } | RewriteError::BudgetExceeded { .. }
        ) | CoreError::Spec(equitls_spec::SpecError::Rewrite(
            RewriteError::FuelExhausted { .. } | RewriteError::BudgetExceeded { .. }
        ))
    )
}

/// Render a budget/fuel stop as an open-case residual. The full error text
/// carries the offending term, the limit, and an engine-counter snapshot;
/// it is truncated on a char boundary so pathological terms stay readable.
fn budget_residual(e: &CoreError) -> String {
    format!("({})", truncate_residual(e.to_string()))
}

/// A chosen case split.
enum Split {
    /// A blocked effective condition `cond` that is a single conjunction
    /// of `atoms`.
    Condition { cond: TermId, atoms: Vec<TermId> },
    /// A single Bool atom.
    Atom(TermId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ots::Ots;

    /// A mutex-ish machine: two flags, action `lock` sets flag1 if flag2
    /// is unset; invariant: never both set.
    fn build_machine() -> (Spec, Ots, InvariantSet) {
        let mut spec = Spec::new().unwrap();
        spec.begin_module("MUTEX");
        spec.hidden_sort("Sys").unwrap();
        spec.op("init", &[], "Sys", OpAttrs::defined()).unwrap();
        spec.observer("f1", &["Sys"], "Bool").unwrap();
        spec.observer("f2", &["Sys"], "Bool").unwrap();
        spec.action("lock1", &["Sys"], "Sys").unwrap();
        spec.action("lock2", &["Sys"], "Sys").unwrap();
        spec.action("unlock", &["Sys"], "Sys").unwrap();

        let alg = spec.alg().clone();
        let init = spec.parse_term("init").unwrap();
        let f1_init = spec.app("f1", &[init]).unwrap();
        let f2_init = spec.app("f2", &[init]).unwrap();
        let ff = alg.ff(spec.store_mut());
        let tt = alg.tt(spec.store_mut());
        spec.eq("f1-init", f1_init, ff).unwrap();
        spec.eq("f2-init", f2_init, ff).unwrap();

        let s = spec.var("S", "Sys").unwrap();
        // lock1: if not f2 then f1' = true else no-op.
        let lock1_s = spec.app("lock1", &[s]).unwrap();
        let f1_lock1 = spec.app("f1", &[lock1_s]).unwrap();
        let f2s = spec.app("f2", &[s]).unwrap();
        let f1s = spec.app("f1", &[s]).unwrap();
        let not_f2 = alg.not(spec.store_mut(), f2s).unwrap();
        spec.ceq("lock1-f1", f1_lock1, tt, not_f2).unwrap();
        let f2_lock1 = spec.app("f2", &[lock1_s]).unwrap();
        spec.eq("lock1-f2", f2_lock1, f2s).unwrap();
        let cond_false = alg.not(spec.store_mut(), not_f2).unwrap();
        spec.ceq("lock1-frame", lock1_s, s, cond_false).unwrap();

        // lock2 symmetric.
        let lock2_s = spec.app("lock2", &[s]).unwrap();
        let f2_lock2 = spec.app("f2", &[lock2_s]).unwrap();
        let not_f1 = alg.not(spec.store_mut(), f1s).unwrap();
        spec.ceq("lock2-f2", f2_lock2, tt, not_f1).unwrap();
        let f1_lock2 = spec.app("f1", &[lock2_s]).unwrap();
        spec.eq("lock2-f1", f1_lock2, f1s).unwrap();
        let cond2_false = alg.not(spec.store_mut(), not_f1).unwrap();
        spec.ceq("lock2-frame", lock2_s, s, cond2_false).unwrap();

        // unlock clears both unconditionally.
        let unlock_s = spec.app("unlock", &[s]).unwrap();
        let f1_unlock = spec.app("f1", &[unlock_s]).unwrap();
        let f2_unlock = spec.app("f2", &[unlock_s]).unwrap();
        spec.eq("unlock-f1", f1_unlock, ff).unwrap();
        spec.eq("unlock-f2", f2_unlock, ff).unwrap();

        let ots = Ots::from_spec(&mut spec, "Sys", "init").unwrap();

        // Invariant: not (f1 and f2).
        let sys_sort = spec.sort_id("Sys").unwrap();
        let p = spec.store_mut().declare_var("Pstate", sys_sort).unwrap();
        let pv = spec.store_mut().var(p);
        let f1p = spec.app("f1", &[pv]).unwrap();
        let f2p = spec.app("f2", &[pv]).unwrap();
        let both = alg.and(spec.store_mut(), f1p, f2p).unwrap();
        let body = alg.not(spec.store_mut(), both).unwrap();
        let inv = Invariant::new(&spec, "mutex", p, vec![], body).unwrap();
        let mut set = InvariantSet::new();
        set.push(inv);
        (spec, ots, set)
    }

    #[test]
    fn mutual_exclusion_is_proved_inductively() {
        let (mut spec, ots, invs) = build_machine();
        let mut prover = Prover::new(&mut spec, &ots, &invs);
        let report = prover.prove_inductive("mutex", &Hints::new()).unwrap();
        assert!(report.is_proved(), "open cases: {:?}", report.open_cases());
        assert_eq!(report.steps.len(), 3);
        assert!(report.total_passages() >= 4);
    }

    #[test]
    fn a_false_invariant_stays_open() {
        let (mut spec, ots, mut invs) = build_machine();
        // Claim: f1 is always false — refuted by lock1.
        let alg = spec.alg().clone();
        let sys_sort = spec.sort_id("Sys").unwrap();
        let p2 = spec.store_mut().declare_var("P2", sys_sort).unwrap();
        let pv = spec.store_mut().var(p2);
        let f1p = spec.app("f1", &[pv]).unwrap();
        let body = alg.not(spec.store_mut(), f1p).unwrap();
        let bogus = Invariant::new(&spec, "bogus", p2, vec![], body).unwrap();
        invs.push(bogus);
        let mut prover = Prover::new(&mut spec, &ots, &invs);
        let report = prover.prove_inductive("bogus", &Hints::new()).unwrap();
        assert!(!report.is_proved());
        let open = report.open_cases();
        assert!(open.iter().any(|c| c.0 == "lock1"), "open: {open:?}");
    }

    #[test]
    fn residuals_are_cut_at_a_char_boundary() {
        // "x" then 2-byte characters: byte 400 falls inside one.
        let rendered = format!("x{}", "α".repeat(300));
        assert!(!rendered.is_char_boundary(RESIDUAL_LIMIT));
        let cut = truncate_residual(rendered);
        assert_eq!(cut, format!("x{}…", "α".repeat(199)));
        assert_eq!(truncate_residual("short".into()), "short");

        // A budget stop renders its error and cuts it the same way.
        let stop = |term: &str| {
            CoreError::Rewrite(RewriteError::BudgetExceeded {
                reason: StopReason::Cancelled,
                term: term.to_string(),
            })
        };
        let mut term = "α".repeat(300);
        if stop(&term).to_string().is_char_boundary(RESIDUAL_LIMIT) {
            term.insert(0, 'x');
        }
        let rendered = stop(&term).to_string();
        assert!(!rendered.is_char_boundary(RESIDUAL_LIMIT));
        assert_eq!(
            budget_residual(&stop(&term)),
            format!("({}…)", &rendered[..RESIDUAL_LIMIT - 1])
        );
        assert_eq!(budget_residual(&stop("t")), format!("({})", stop("t")));
    }

    #[test]
    fn a_non_ascii_residual_stays_an_open_case() {
        // Observers with Unicode names make a long non-ASCII residual; over
        // three paddings, byte 400 lands inside a 3-byte character in at
        // least one. Each must report an open case, not a worker fault.
        for pad in 0..3 {
            let mut spec = Spec::new().unwrap();
            spec.begin_module("WIDE");
            spec.hidden_sort("Sys").unwrap();
            spec.op("init", &[], "Sys", OpAttrs::defined()).unwrap();
            spec.action("tick", &["Sys"], "Sys").unwrap();
            let names: Vec<String> = (0..4)
                .map(|i| format!("{}{}{i}", "x".repeat(pad), "∀".repeat(40)))
                .collect();
            for name in &names {
                spec.observer(name, &["Sys"], "Bool").unwrap();
            }
            let ots = Ots::from_spec(&mut spec, "Sys", "init").unwrap();
            let alg = spec.alg().clone();
            let sys_sort = spec.sort_id("Sys").unwrap();
            let p = spec.store_mut().declare_var("P", sys_sort).unwrap();
            let pv = spec.store_mut().var(p);
            let mut body = alg.ff(spec.store_mut());
            for name in &names {
                let atom = spec.app(name, &[pv]).unwrap();
                body = alg.or(spec.store_mut(), body, atom).unwrap();
            }
            let mut invs = InvariantSet::new();
            invs.push(Invariant::new(&spec, "wide", p, vec![], body).unwrap());
            let mut prover = Prover::new(&mut spec, &ots, &invs);
            let report = prover.prove_inductive("wide", &Hints::new()).unwrap();
            assert!(
                report.faults().is_empty(),
                "pad {pad}: {:?}",
                report.faults()
            );
            let open = report.open_cases();
            assert!(
                open.iter().any(|(_, case)| case.residual.ends_with('…')),
                "pad {pad}: {open:?}"
            );
        }
    }

    #[test]
    fn unknown_invariant_errors() {
        let (mut spec, ots, invs) = build_machine();
        let mut prover = Prover::new(&mut spec, &ots, &invs);
        assert!(matches!(
            prover.prove_inductive("nope", &Hints::new()),
            Err(CoreError::UnknownInvariant(_))
        ));
    }

    #[test]
    fn case_analysis_proves_propositional_consequences() {
        let (mut spec, ots, mut invs) = build_machine();
        let alg = spec.alg().clone();
        // Consequence: f1 implies not f2 — follows from mutex by cases.
        let sys_sort = spec.sort_id("Sys").unwrap();
        let p3 = spec.store_mut().declare_var("P3", sys_sort).unwrap();
        let pv = spec.store_mut().var(p3);
        let f1p = spec.app("f1", &[pv]).unwrap();
        let f2p = spec.app("f2", &[pv]).unwrap();
        let nf2 = alg.not(spec.store_mut(), f2p).unwrap();
        let body = alg.implies(spec.store_mut(), f1p, nf2).unwrap();
        let conseq = Invariant::new(&spec, "conseq", p3, vec![], body).unwrap();
        invs.push(conseq);
        let mut prover = Prover::new(&mut spec, &ots, &invs);
        let report = prover.prove_by_cases("conseq", &["mutex"]).unwrap();
        assert!(report.is_proved(), "open: {:?}", report.open_cases());
    }

    #[test]
    fn parallel_obligations_are_deterministic() {
        // The same proof at jobs = 1, 2, 4 must produce identical reports:
        // per-step outcomes, passage/split tallies, and rewrite counts.
        let reports: Vec<ProofReport> = [1, 2, 4]
            .iter()
            .map(|&jobs| {
                let (mut spec, ots, invs) = build_machine();
                let config = ProverConfig {
                    jobs,
                    record_scores: true,
                    ..ProverConfig::default()
                };
                let mut prover = Prover::new(&mut spec, &ots, &invs).with_config(config);
                prover.prove_inductive("mutex", &Hints::new()).unwrap()
            })
            .collect();
        let baseline = &reports[0];
        assert!(baseline.is_proved());
        for report in &reports[1..] {
            assert_eq!(report.base.action, baseline.base.action);
            assert_eq!(report.base.outcome, baseline.base.outcome);
            assert_eq!(report.base.metrics, baseline.base.metrics);
            assert_eq!(report.steps.len(), baseline.steps.len());
            for (a, b) in report.steps.iter().zip(&baseline.steps) {
                assert_eq!(a.action, b.action);
                assert_eq!(a.outcome, b.outcome, "{}", a.action);
                assert_eq!(a.metrics, b.metrics, "{}", a.action);
                assert_eq!(a.rewrite_stats, b.rewrite_stats, "{}", a.action);
                assert_eq!(a.scores, b.scores, "{}", a.action);
            }
        }
    }

    #[test]
    fn injected_obligation_panic_is_contained_and_deterministic() {
        use equitls_rewrite::budget::{Fault, FaultKind, FaultPlan, FaultSite};
        // Panic the `lock2` obligation; every sibling must still prove,
        // and the report must be identical at jobs 1 and 4.
        let reports: Vec<ProofReport> = [1, 4]
            .iter()
            .map(|&jobs| {
                let (mut spec, ots, invs) = build_machine();
                let config = ProverConfig {
                    jobs,
                    fault_plan: Some(FaultPlan::new().with_fault(
                        Fault::new(FaultSite::Obligation, FaultKind::Panic, 0).in_scope("lock2"),
                    )),
                    ..ProverConfig::default()
                };
                let mut prover = Prover::new(&mut spec, &ots, &invs).with_config(config);
                prover.prove_inductive("mutex", &Hints::new()).unwrap()
            })
            .collect();
        for report in &reports {
            assert!(!report.is_proved());
            let faults = report.faults();
            assert_eq!(faults.len(), 1, "exactly the injected fault");
            assert_eq!(faults[0].0, "lock2");
            assert_eq!(faults[0].1.site, "obligation:lock2");
            assert!(
                faults[0].1.message.contains("injected fault"),
                "message: {}",
                faults[0].1.message
            );
            // Siblings are untouched.
            assert!(report.base.outcome.is_proved());
            for step in &report.steps {
                if step.action != "lock2" {
                    assert!(step.outcome.is_proved(), "{} poisoned", step.action);
                }
            }
        }
        let (a, b) = (&reports[0], &reports[1]);
        assert_eq!(a.base.outcome, b.base.outcome);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.action, y.action);
            assert_eq!(x.outcome, y.outcome, "{}", x.action);
            assert_eq!(x.metrics, y.metrics, "{}", x.action);
        }
    }

    #[test]
    fn cancelled_budget_skips_obligations_with_open_reports() {
        let (mut spec, ots, invs) = build_machine();
        let budget = Budget::unlimited();
        budget.cancel();
        let config = ProverConfig {
            budget,
            ..ProverConfig::default()
        };
        let mut prover = Prover::new(&mut spec, &ots, &invs).with_config(config);
        let report = prover.prove_inductive("mutex", &Hints::new()).unwrap();
        assert!(!report.is_proved());
        // Every obligation is a single open passage with a typed residual,
        // and the metrics invariant holds.
        let totals = report.total_metrics();
        assert_eq!(
            totals.passages,
            totals.proved + totals.vacuous + totals.open
        );
        assert_eq!(totals.open, 1 + report.steps.len());
        for (_, case) in report.open_cases() {
            assert!(case.residual.contains("cancelled"), "{}", case.residual);
        }
    }

    #[test]
    fn injected_fuel_starvation_leaves_obligation_open_with_rich_residual() {
        use equitls_rewrite::budget::{Fault, FaultKind, FaultPlan, FaultSite};
        let (mut spec, ots, invs) = build_machine();
        let config = ProverConfig {
            fault_plan: Some(FaultPlan::new().with_fault(
                Fault::new(FaultSite::Obligation, FaultKind::FuelStarvation, 0).in_scope("lock1"),
            )),
            ..ProverConfig::default()
        };
        let mut prover = Prover::new(&mut spec, &ots, &invs).with_config(config);
        let report = prover.prove_inductive("mutex", &Hints::new()).unwrap();
        assert!(!report.is_proved());
        let open = report.open_cases();
        assert!(open.iter().all(|(name, _)| name == "lock1"));
        // The residual is the full enriched error: limit and term.
        assert!(
            open.iter()
                .any(|(_, c)| c.residual.contains("fuel exhausted (limit 0)")),
            "open: {open:?}"
        );
    }

    #[test]
    fn proving_leaves_the_callers_spec_untouched() {
        // Obligations run on clones: two identical prove calls see the
        // same world, so their reports agree exactly.
        let (mut spec, ots, invs) = build_machine();
        let terms_before = spec.store().term_count();
        let first = {
            let mut prover = Prover::new(&mut spec, &ots, &invs);
            prover.prove_inductive("mutex", &Hints::new()).unwrap()
        };
        assert_eq!(spec.store().term_count(), terms_before);
        let second = {
            let mut prover = Prover::new(&mut spec, &ots, &invs);
            prover.prove_inductive("mutex", &Hints::new()).unwrap()
        };
        assert_eq!(first.total_passages(), second.total_passages());
        assert_eq!(first.total_rewrite_stats(), second.total_rewrite_stats());
    }

    #[test]
    fn hints_builder_dedups_and_scopes() {
        let hints = Hints::new()
            .lemma("inv2", "inv1")
            .lemma("inv2", "inv1")
            .lemma_for_action("inv2", "fakeSfin2", "lemma-l1");
        assert_eq!(hints.lemmas_for("inv2", None), vec!["inv1"]);
        assert_eq!(
            hints.lemmas_for("inv2", Some("fakeSfin2")),
            vec!["inv1", "lemma-l1"]
        );
        assert!(hints.lemmas_for("inv9", None).is_empty());
    }
}
