//! The model trait and the TLS instantiation.

use equitls_tls::concrete::{successors, Scope, State};
use std::hash::Hash;

/// An explicit-state transition system.
///
/// Every model supplies a state codec: the explorer's visited set holds
/// states as their canonical encoded bytes, so it can probe them
/// concurrently, spill them to disk, and write them into checkpoints.
/// The contract is that [`Model::encode_state`] returns `Some` for every
/// state the model produces, and [`Model::decode_state`] inverts it. A
/// successor that does not encode is contained as a
/// [`WorkerFault`](equitls_rewrite::budget::WorkerFault) on its parent,
/// like any other panicking successor computation; an initial state that
/// does not encode is a contract violation and panics.
pub trait Model {
    /// The state type (hashable for the visited set).
    type State: Clone + Eq + Hash;

    /// The (single) initial state.
    fn initial(&self) -> Self::State;

    /// Labeled successors of a state.
    fn successors(&self, state: &Self::State) -> Vec<(String, Self::State)>;

    /// Serialize a state to its canonical bytes: equal states must give
    /// equal bytes. Must return `Some` for every state the model
    /// produces (see the trait docs).
    fn encode_state(&self, state: &Self::State) -> Option<Vec<u8>>;

    /// Inverse of [`Model::encode_state`]: decode a state from its bytes.
    /// Returns `None` on malformed input.
    fn decode_state(&self, bytes: &[u8]) -> Option<Self::State>;
}

/// The concrete TLS handshake protocol under a finite scope.
#[derive(Debug, Clone)]
pub struct TlsMachine {
    /// The exploration scope.
    pub scope: Scope,
    /// When `true`, the intruder may only fake clear-text messages (no
    /// replay, no construction) — the intruder-power ablation of
    /// DESIGN.md.
    pub weak_intruder: bool,
    /// When `true`, successor states are canonicalized under scalarset
    /// symmetry (Murφ's symmetry reduction): permutations of random
    /// numbers, session ids, and secrets collapse to one representative.
    pub symmetry: bool,
}

impl TlsMachine {
    /// A machine over the given scope with the full Dolev–Yao intruder.
    ///
    /// Scalarset symmetry reduction is **on** by default: it shrinks the
    /// state space without changing any verdict (the monitors are
    /// symmetric), so every entry point gets it unless explicitly opted
    /// out with [`TlsMachine::without_symmetry`].
    pub fn new(scope: Scope) -> Self {
        TlsMachine {
            scope,
            weak_intruder: false,
            symmetry: true,
        }
    }

    /// Disable the intruder's ciphertext replay/construction moves.
    pub fn with_weak_intruder(mut self) -> Self {
        self.weak_intruder = true;
        self
    }

    /// Disable scalarset symmetry reduction: explore the raw state space
    /// (the unreduced reference, for cross-checking the reduced run
    /// against it).
    pub fn without_symmetry(mut self) -> Self {
        self.symmetry = false;
        self
    }
}

impl Model for TlsMachine {
    type State = State;

    fn initial(&self) -> State {
        State::new()
    }

    fn successors(&self, state: &State) -> Vec<(String, State)> {
        successors(state, &self.scope)
            .into_iter()
            .filter(|step| {
                !self.weak_intruder
                    || !(step.label.starts_with("fakeKx")
                        || step.label.starts_with("fakeFin")
                        || step.label.starts_with("fakeCfin")
                        || step.label.starts_with("fakeSfin"))
            })
            .map(|step| {
                let state = if self.symmetry {
                    step.state.canonicalize()
                } else {
                    step.state
                };
                (step.label, state)
            })
            .collect()
    }

    fn encode_state(&self, state: &State) -> Option<Vec<u8>> {
        Some(equitls_tls::concrete::codec::encode_state(state))
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<State> {
        equitls_tls::concrete::codec::decode_state(bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tls_machine_starts_empty_and_moves() {
        let machine = TlsMachine::new(Scope::counterexample());
        let init = machine.initial();
        assert_eq!(init.message_count(), 0);
        let succs = machine.successors(&init);
        assert!(!succs.is_empty());
    }

    #[test]
    fn symmetry_reduction_shrinks_the_state_space_and_keeps_verdicts() {
        use crate::check::check_scope_config_obs;
        use crate::explorer::{explore_with_config_jobs, ExploreConfig, Limits};
        use equitls_obs::sink::Obs;
        let mut scope = Scope::counterexample();
        scope.max_messages = 2;
        let limits = Limits {
            max_states: 100_000,
            max_depth: 3,
        };
        let (config, obs) = (ExploreConfig::default(), Obs::noop());
        let explore = |m: &TlsMachine| explore_with_config_jobs(m, &[], &limits, &config, 1, &obs);
        let plain = explore(&TlsMachine::new(scope.clone()).without_symmetry());
        let reduced = explore(&TlsMachine::new(scope.clone()));
        assert!(plain.complete && reduced.complete);
        assert!(
            reduced.states < plain.states,
            "symmetry must shrink: {} vs {}",
            reduced.states,
            plain.states
        );
        // Verdicts are unchanged (monitors are symmetric).
        let checked = check_scope_config_obs(&scope, &limits, 1, &config, &obs);
        assert!(checked.violation("prop1-pms-secrecy").is_none());
        assert!(checked.violation("prop2p-cf-authentic").is_some());
    }

    #[test]
    fn weak_intruder_removes_ciphertext_fakes() {
        let scope = Scope::counterexample();
        let full = TlsMachine::new(scope.clone());
        let weak = TlsMachine::new(scope).with_weak_intruder();
        let init = full.initial();
        let full_count = full.successors(&init).len();
        let weak_count = weak.successors(&init).len();
        assert!(weak_count < full_count);
        assert!(weak
            .successors(&init)
            .iter()
            .all(|(l, _)| !l.starts_with("fakeCfin")));
    }
}
