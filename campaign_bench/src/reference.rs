//! The paper's answers, written out by hand.
//!
//! Nothing here is derived from `verify::PLANS`, from the `expected` flag
//! of `props::monitors()` or from `check::expected_outcomes()`: those
//! belong to the program under test, and a benchmark that took its
//! expectations from the program would accept whatever the program says.

use equitls_core::prelude::{CoreError, ProofReport};

/// The eighteen properties of §5. Every one is PROVED on both the
/// Figure 2 model and its §5.3 variant.
pub const PROPERTIES: [&str; 18] = [
    "lem-src-honest",
    "lem-cepms-cpms",
    "lem-kx-shape",
    "lem-cf-shape",
    "lem-sf-shape",
    "lem-secret-us",
    "lem-rand-ur",
    "inv1",
    "lem-esfin-origin",
    "lem-esfin2-origin",
    "lem-ecfin-origin",
    "lem-ecfin2-origin",
    "lem-sf-session",
    "lem-sf2-session",
    "inv2",
    "inv3",
    "inv4",
    "inv5",
];

/// The §5 safety monitors and whether each holds: properties 1–5 hold,
/// 2′ and 3′ are refuted by the §5.3 counterexamples.
pub const MONITORS: [(&str, bool); 7] = [
    ("prop1-pms-secrecy", true),
    ("prop2-sf-authentic", true),
    ("prop3-sf2-authentic", true),
    ("prop4-sh-ct-authentic", true),
    ("prop5-sh2-authentic", true),
    ("prop2p-cf-authentic", false),
    ("prop3p-cf2-authentic", false),
];

/// Network bounds at which the [`MONITORS`] verdicts are checked.
pub const BOUNDS: [usize; 3] = [1, 2, 3];

/// Check one proof outcome: the property must be PROVED.
///
/// # Errors
///
/// A description of the mismatch.
pub fn check_proof(
    property: &str,
    variant: bool,
    outcome: &Result<ProofReport, CoreError>,
) -> Result<(), String> {
    let model = if variant { "variant" } else { "standard" };
    match outcome {
        Ok(report) if report.is_proved() => Ok(()),
        Ok(report) => Err(format!(
            "{property} on the {model} model: not proved ({} open cases, {} faults)",
            report.open_cases().len(),
            report.faults().len()
        )),
        Err(e) => Err(format!("{property} on the {model} model: error: {e}")),
    }
}

/// Check one bounded search: it must be complete, and exactly the
/// refuted monitors must be violated.
///
/// # Errors
///
/// A description of the mismatch.
pub fn check_search(bound: usize, complete: bool, violated: &[&str]) -> Result<(), String> {
    if !complete {
        return Err(format!("bound {bound}: search incomplete"));
    }
    for (name, holds) in MONITORS {
        if violated.contains(&name) == holds {
            let found = if holds { "violated" } else { "not violated" };
            return Err(format!("bound {bound}: {name} {found}"));
        }
    }
    match violated
        .iter()
        .find(|v| !MONITORS.iter().any(|(m, _)| m == *v))
    {
        Some(extra) => Err(format!("bound {bound}: unknown monitor {extra} violated")),
        None => Ok(()),
    }
}

/// Check that the program checks exactly the monitors of the table, so
/// that a monitor dropped from the program cannot pass as "holds".
///
/// # Errors
///
/// A description of the mismatch.
pub fn check_monitor_names(names: &[&str]) -> Result<(), String> {
    let mut got: Vec<&str> = names.to_vec();
    let mut want: Vec<&str> = MONITORS.iter().map(|(n, _)| *n).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!("monitor set {got:?} differs from {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_refuted_monitors_must_be_violated_and_no_other() {
        let refuted = ["prop2p-cf-authentic", "prop3p-cf2-authentic"];
        assert!(check_search(2, true, &refuted).is_ok());
        assert!(check_search(2, false, &refuted).is_err());
        assert!(check_search(2, true, &refuted[..1]).is_err());
        assert!(check_search(2, true, &["prop1-pms-secrecy", refuted[0], refuted[1]]).is_err());
    }
}
