//! Packaged TLS checks: bounded exhaustive verification à la Mitchell et
//! al. (experiment E10).

use crate::explorer::{
    explore_resume_with_config_jobs, explore_with_config_jobs, Exploration, ExploreConfig, Limits,
    Monitor,
};
use crate::model::TlsMachine;
use equitls_obs::sink::Obs;
use equitls_persist::PersistError;
use equitls_tls::concrete::{props, Scope, State};

/// An owned monitor predicate over concrete states.
type BoxedPredicate = Box<dyn Fn(&State) -> bool>;

/// Run every §5 monitor over the scope, breadth-first, under `config`'s
/// budget.
///
/// The expected outcome (within any scope that lets the intruder act):
/// properties 1–5 hold everywhere, 2′ and 3′ are violated. A tripped
/// deadline, memory ceiling, or cancellation yields a *partial* but
/// internally consistent exploration with a typed
/// [`Exploration::stop_reason`] — see [`explore_with_config_jobs`].
/// Per-level timing counters and heartbeats flow to `obs`'s sink; the
/// result is identical whatever the sink.
///
/// `_jobs` is ignored: the search runs on one thread. The campaign bench
/// pins this signature; its next change drops the parameter.
pub fn check_scope_config_obs(
    scope: &Scope,
    limits: &Limits,
    _jobs: usize,
    config: &ExploreConfig,
    obs: &Obs,
) -> Exploration<State> {
    with_scope_monitors(scope, |machine, refs| {
        explore_with_config_jobs(machine, refs, limits, config, 1, obs)
    })
}

/// Resume a scope check from the snapshot at `config.checkpoint_path`
/// (see [`explore_resume_with_config_jobs`]): the search picks up at the
/// checkpointed level barrier and the final result is bit-identical to
/// an uninterrupted [`check_scope_config_obs`] run.
pub fn check_scope_resume_obs(
    scope: &Scope,
    limits: &Limits,
    config: &ExploreConfig,
    obs: &Obs,
) -> Result<Exploration<State>, PersistError> {
    with_scope_monitors(scope, |machine, refs| {
        explore_resume_with_config_jobs(machine, refs, limits, config, obs)
    })
}

/// Build the TLS machine and the boxed §5 monitors for `scope`, then hand
/// them to `run` (shared by the fresh-start and resume entry points).
fn with_scope_monitors<R>(
    scope: &Scope,
    run: impl FnOnce(&TlsMachine, &[Monitor<'_, State>]) -> R,
) -> R {
    let machine = TlsMachine::new(scope.clone());
    let scope2 = scope.clone();
    let monitors = props::monitors();
    let boxed: Vec<(&str, BoxedPredicate)> = monitors
        .into_iter()
        .map(|(name, f, _expected)| {
            let scope = scope2.clone();
            (
                name,
                Box::new(move |s: &State| f(s, &scope)) as BoxedPredicate,
            )
        })
        .collect();
    let refs: Vec<Monitor<'_, State>> = boxed.iter().map(|(n, f)| (*n, f.as_ref() as _)).collect();
    run(&machine, &refs)
}

/// Properties expected to hold / fail, by monitor name.
pub fn expected_outcomes() -> Vec<(&'static str, bool)> {
    props::monitors()
        .into_iter()
        .map(|(name, _, expected)| (name, expected))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_check_agrees_with_the_paper() {
        let mut scope = Scope::counterexample();
        scope.max_messages = 2;
        let limits = Limits {
            max_states: 60_000,
            max_depth: 3,
        };
        let result =
            check_scope_config_obs(&scope, &limits, 1, &ExploreConfig::default(), &Obs::noop());
        assert!(result.states > 10);
        // Positive properties hold in the explored region.
        for (name, expected) in expected_outcomes() {
            let violated = result.violation(name).is_some();
            if expected {
                assert!(!violated, "{name} should hold but was violated");
            }
        }
        // The refuted ClientFinished property is violated within two
        // messages: the intruder constructs a conformant cf directly.
        assert!(
            result.violation("prop2p-cf-authentic").is_some(),
            "2' should be violated (states={}, complete={})",
            result.states,
            result.complete
        );
    }
}
