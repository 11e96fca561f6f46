//! The verification campaign: proving the eighteen properties.
//!
//! This module holds what makes the paper's proofs go through
//! mechanically on top of the prover's one entry point
//! ([`Prover::prove`]) and one configuration ([`ProverConfig`]):
//!
//! * the **witness map** (kind predicate → message constructor) enabling
//!   constructor-completeness reasoning on arbitrary `Msg` constants,
//!   which [`verify_property_opts`] adds to the caller's configuration;
//! * the **proof plan** per property: its lemmas, mirroring the paper's
//!   "strengthen the induction hypothesis with inv1" choices (§5.2), and
//!   whether it is proved **inductively** or by **case analysis** from
//!   others (§5.1 says the fourth and fifth, among others, are
//!   case-analysis consequences).

use crate::symbolic::TlsModel;
use equitls_core::prelude::*;
use equitls_core::CoreError;
use equitls_obs::sink::Obs;
use std::collections::HashMap;

/// The old name of [`ProverConfig`], kept only for the campaign bench,
/// which imports it; ROADMAP item 5's benchmark PR removes it.
pub type VerifyOptions = ProverConfig;

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

/// Find the plan for `name`.
pub fn plan(name: &str) -> Option<&'static ProofPlan> {
    PLANS.iter().find(|p| p.name == name)
}

/// Prove one property under `config` plus the model's constructor
/// witnesses ([`witness_map`]) — the campaign's entry point to the
/// prover. `ProverConfig::default()` runs one worker with no budget;
/// `config.jobs` fans obligations out over worker threads (`0` =
/// available parallelism) with an identical report, because each worker
/// runs on its own clone of the model's spec and rolls it back after
/// every obligation. `obs` receives a span per proof obligation, rewrite
/// counters, and (when `config.profile_rules` is on) per-rule
/// match/fire/time profiles; worker obligations share it, so a trace
/// interleaves obligation spans when `jobs > 1`.
///
/// # Errors
///
/// Unknown property, or an engine failure. Budget trips are *not*
/// errors: the affected obligations come back open in the report.
pub fn verify_property_opts(
    model: &mut TlsModel,
    name: &str,
    config: &ProverConfig,
    obs: &Obs,
) -> Result<ProofReport, CoreError> {
    let plan = plan(name).ok_or_else(|| CoreError::UnknownInvariant(name.to_string()))?;
    let config = ProverConfig {
        witnesses: witness_map(model),
        ..config.clone()
    };
    Prover::new(&mut model.spec, &model.ots, &model.invariants)
        .with_config(config)
        .with_obs(obs.clone())
        .prove(plan.name, plan.method, plan.lemmas)
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
    config: &ProverConfig,
    obs: &Obs,
) -> Result<Vec<ProofReport>, CoreError> {
    PLANS
        .iter()
        .map(|plan| verify_property_opts(model, plan.name, config, obs))
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
