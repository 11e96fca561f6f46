//! The verification campaign: proving the eighteen properties.
//!
//! This module packages the prover configuration that makes the paper's
//! proofs go through mechanically:
//!
//! * the **witness map** (kind predicate → message constructor) enabling
//!   constructor-completeness reasoning on arbitrary `Msg` constants;
//! * the **lemma hints** per property, mirroring the paper's
//!   "strengthen the induction hypothesis with inv1" choices (§5.2);
//! * which properties are proved **inductively** and which by **case
//!   analysis** from others (§5.1 says the fourth and fifth, among
//!   others, are case-analysis consequences).

use crate::symbolic::TlsModel;
use equitls_core::prelude::*;
use equitls_core::CoreError;
use equitls_obs::sink::Obs;
use equitls_rewrite::budget::{Budget, FaultPlan};
use std::collections::HashMap;
use std::path::PathBuf;

/// Robustness and execution options for a verification run.
///
/// The [`Budget`] is shared by every obligation the campaign spawns:
/// when the deadline passes, the heap-estimate ceiling trips, or the
/// cancel token fires, in-flight obligations stop at the next rewrite
/// stride and unstarted ones are skipped — all reported as *open* with a
/// `(budget: …)` residual, never as a dead process.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Shared deadline / memory / cancellation budget.
    pub budget: Budget,
    /// Rewriting fuel per reduction (`None` = prover default).
    pub fuel: Option<u64>,
    /// Deterministic fault injection for robustness tests.
    pub fault_plan: Option<FaultPlan>,
    /// Emit per-rule match/fire/time profiles through the obs handle.
    pub profile_rules: bool,
    /// Worker threads per property (`0` = available parallelism).
    pub jobs: usize,
    /// Obligation-ledger snapshot path (`None` = no checkpointing). One
    /// file serves the whole campaign: entries are keyed by
    /// `(invariant, obligation)`.
    pub checkpoint_path: Option<PathBuf>,
    /// Minimum seconds between ledger writes (`0` = every obligation).
    pub checkpoint_every_secs: u64,
    /// Resume from the ledger: recorded `Proved` obligations are spliced
    /// into the report without re-running. Requires a valid snapshot at
    /// `checkpoint_path` (typed `CoreError::Persist` otherwise).
    pub resume: bool,
    /// Bypass the discrimination-tree rule index and match candidate
    /// rules by scanning `rules_for_op` lists, as the engine did before
    /// indexing landed. Diagnostic knob: results are bit-identical
    /// either way.
    pub linear_scan: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            budget: Budget::unlimited(),
            fuel: None,
            fault_plan: None,
            profile_rules: false,
            jobs: 1,
            checkpoint_path: None,
            checkpoint_every_secs: 0,
            resume: false,
            linear_scan: false,
        }
    }
}

/// How a property is established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofMethod {
    /// Simultaneous induction over all 27 transitions.
    Induction,
    /// Propositional/equational consequence of other properties.
    CaseAnalysis,
}

/// The proof plan for one property.
#[derive(Debug, Clone)]
pub struct ProofPlan {
    /// Property name (from [`crate::symbolic::properties::PROPERTIES`]).
    pub name: &'static str,
    /// Induction or case analysis.
    pub method: ProofMethod,
    /// Lemmas used to strengthen hypotheses.
    pub lemmas: &'static [&'static str],
}

/// The campaign order: lemmas first, then the five main properties.
///
/// Order matters only for readability — simultaneous induction justifies
/// using any property as a lemma for any other.
pub const PLANS: [ProofPlan; 18] = [
    ProofPlan {
        name: "lem-src-honest",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "lem-cepms-cpms",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "lem-kx-shape",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "lem-cf-shape",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "lem-sf-shape",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "lem-secret-us",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "lem-rand-ur",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "inv1",
        method: ProofMethod::Induction,
        lemmas: &["lem-cepms-cpms"],
    },
    ProofPlan {
        name: "lem-esfin-origin",
        method: ProofMethod::Induction,
        lemmas: &["inv1"],
    },
    ProofPlan {
        name: "lem-esfin2-origin",
        method: ProofMethod::Induction,
        lemmas: &["inv1"],
    },
    ProofPlan {
        name: "lem-ecfin-origin",
        method: ProofMethod::Induction,
        lemmas: &["inv1"],
    },
    ProofPlan {
        name: "lem-ecfin2-origin",
        method: ProofMethod::Induction,
        lemmas: &["inv1"],
    },
    ProofPlan {
        name: "lem-sf-session",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "lem-sf2-session",
        method: ProofMethod::Induction,
        lemmas: &[],
    },
    ProofPlan {
        name: "inv2",
        method: ProofMethod::Induction,
        // §5.2: the fifth fakeSfin2 sub-case needs inv1 to strengthen the
        // induction hypothesis; replays need the origination lemma.
        lemmas: &["lem-esfin-origin", "inv1"],
    },
    ProofPlan {
        name: "inv3",
        method: ProofMethod::Induction,
        lemmas: &["lem-esfin2-origin", "inv1"],
    },
    ProofPlan {
        name: "inv4",
        method: ProofMethod::CaseAnalysis,
        lemmas: &["inv2", "lem-sf-session", "lem-src-honest"],
    },
    ProofPlan {
        name: "inv5",
        method: ProofMethod::CaseAnalysis,
        lemmas: &["inv3", "lem-sf2-session", "lem-src-honest"],
    },
];

/// Build the witness map (kind predicate → constructor) for the model.
pub fn witness_map(
    model: &TlsModel,
) -> HashMap<equitls_kernel::op::OpId, equitls_kernel::op::OpId> {
    let sig = model.spec.store().signature();
    let msg_sort = sig.sort_by_name("Msg").expect("Msg sort");
    let mut map = HashMap::new();
    for (name, _) in crate::symbolic::messages::MESSAGE_KINDS {
        let pred = sig
            .resolve_op(&format!("{name}?"), &[msg_sort])
            .expect("kind predicate");
        let ctor = sig
            .ops_by_name(name)
            .iter()
            .copied()
            .find(|&id| sig.op(id).result == msg_sort)
            .expect("message constructor");
        map.insert(pred, ctor);
    }
    map
}

/// The prover configuration used by the campaign.
pub fn prover_config(model: &TlsModel) -> ProverConfig {
    ProverConfig {
        witnesses: witness_map(model),
        ..ProverConfig::default()
    }
}

/// Find the plan for `name`.
pub fn plan(name: &str) -> Option<&'static ProofPlan> {
    PLANS.iter().find(|p| p.name == name)
}

/// Prove one property under a [`VerifyOptions`] budget — the one entry
/// point to the prover. `VerifyOptions::default()` runs one worker with
/// no budget; `opts.jobs` fans obligations out over worker threads
/// (`0` = available parallelism) with an identical report, because each
/// worker runs on its own clone of the model's spec and rolls it back
/// after every obligation. `obs` receives
/// a span per proof obligation, rewrite counters, and (when
/// `opts.profile_rules` is on) per-rule match/fire/time profiles;
/// worker obligations share it, so a trace interleaves obligation spans
/// when `jobs > 1`.
///
/// # Errors
///
/// Unknown property, or an engine failure. Budget trips are *not*
/// errors: the affected obligations come back open in the report.
pub fn verify_property_opts(
    model: &mut TlsModel,
    name: &str,
    opts: &VerifyOptions,
    obs: &Obs,
) -> Result<ProofReport, CoreError> {
    let plan = plan(name).ok_or_else(|| CoreError::UnknownInvariant(name.to_string()))?;
    let defaults = prover_config(model);
    let config = ProverConfig {
        profile_rules: opts.profile_rules,
        jobs: opts.jobs,
        fuel: opts.fuel.unwrap_or(defaults.fuel),
        budget: opts.budget.clone(),
        fault_plan: opts.fault_plan.clone(),
        checkpoint_path: opts.checkpoint_path.clone(),
        checkpoint_every_secs: opts.checkpoint_every_secs,
        resume: opts.resume,
        linear_scan: opts.linear_scan,
        ..defaults
    };
    let mut prover = Prover::new(&mut model.spec, &model.ots, &model.invariants)
        .with_config(config)
        .with_obs(obs.clone());
    match plan.method {
        ProofMethod::Induction => {
            let mut hints = Hints::new();
            for lemma in plan.lemmas {
                hints = hints.lemma(plan.name, lemma);
            }
            prover.prove_inductive(plan.name, &hints)
        }
        ProofMethod::CaseAnalysis => prover.prove_by_cases(plan.name, plan.lemmas),
    }
}

/// Prove every property in [`PLANS`] order through
/// [`verify_property_opts`]. Parallelism applies within each property
/// (its obligations fan out); properties still complete in campaign
/// order. The budget spans the *whole campaign*: once it trips, every
/// remaining obligation of every remaining property is skipped (reported
/// open with a `(budget: …)` residual), so a deadline bounds the full
/// run, not each property.
///
/// # Errors
///
/// First engine failure, if any (open cases are *not* errors — they are
/// reported in the returned reports).
pub fn verify_all_opts(
    model: &mut TlsModel,
    opts: &VerifyOptions,
    obs: &Obs,
) -> Result<Vec<ProofReport>, CoreError> {
    PLANS
        .iter()
        .map(|plan| verify_property_opts(model, plan.name, opts, obs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_cover_all_eighteen_properties() {
        let names: Vec<&str> = PLANS.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 18);
        for (name, _, _) in crate::symbolic::properties::PROPERTIES {
            assert!(names.contains(&name), "no plan for {name}");
        }
    }

    #[test]
    fn witness_map_covers_all_ten_kinds() {
        let model = TlsModel::standard().unwrap();
        let map = witness_map(&model);
        assert_eq!(map.len(), 10);
    }

    #[test]
    fn lemma_references_resolve() {
        let model = TlsModel::standard().unwrap();
        for plan in &PLANS {
            for lemma in plan.lemmas {
                assert!(
                    model.invariants.get(lemma).is_some(),
                    "plan {} references unknown lemma {lemma}",
                    plan.name
                );
            }
        }
    }
}
