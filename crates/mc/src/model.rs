//! The model trait and the TLS instantiation.

use equitls_tls::concrete::codec::{self, SuccessorEncoder};
use equitls_tls::concrete::step::render_label;
use equitls_tls::concrete::{apply, moves, Scope, State};
use std::borrow::Cow;

/// An explicit-state transition system.
///
/// Every model supplies a state codec: the explorer's visited set holds
/// states as their canonical encoded bytes, so it can spill them to disk
/// and write them into checkpoints.
/// The contract is that [`Model::encode_state`] returns `Some` for every
/// state the model produces, and [`Model::decode_state`] inverts it. A
/// successor that does not encode is contained as a
/// [`WorkerFault`](equitls_rewrite::budget::WorkerFault) on its parent,
/// like any other panicking successor computation; an initial state that
/// does not encode is a contract violation and panics. A new successor
/// whose bytes do not decode is counted but neither checked nor expanded,
/// and faults its parent.
///
/// The explorer asks for successors only through
/// [`Model::successor_batch`], bytes in and bytes out, and decodes a
/// successor only when the visited set keeps it. Its default goes through
/// [`Model::successors`] and the codec; a model that can write its
/// successors' canonical bytes directly overrides it.
pub trait Model {
    /// The state type; the visited set holds its encoded bytes.
    type State;

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

    /// Append to `batch` the successors of the state encoded as `parent`:
    /// each one's label and canonical bytes, in [`Model::successors`]'
    /// order. An override must give the same labels and bytes in the same
    /// order. Panics, as the default's do on bytes that do not decode or a
    /// successor that does not encode, are contained by the explorer.
    fn successor_batch(&self, parent: &[u8], batch: &mut SuccessorBatch) {
        let state = self
            .decode_state(parent)
            .expect("Model::decode_state must decode every state encode_state produced");
        for (label, succ) in self.successors(&state) {
            let bytes = self
                .encode_state(&succ)
                .expect("Model::encode_state must encode every state the model produces");
            batch.push(Label::Text(label), |out| out.extend_from_slice(&bytes));
        }
    }
}

/// A successor's trace label: text, or a model's compact code and the
/// function that renders it. The explorer keeps each state's label as it
/// came and renders it only for a witness trace or a checkpoint.
#[derive(Debug)]
pub enum Label {
    /// The rendered label.
    Text(String),
    /// A label to render on demand as `render(code)`.
    Code {
        /// The compact form.
        code: u64,
        /// Renders `code` as the label's text.
        render: fn(u64) -> String,
    },
}

impl Label {
    /// The label's text.
    pub fn render(self) -> String {
        match self {
            Label::Text(text) => text,
            Label::Code { code, render } => render(code),
        }
    }

    /// The label's text, leaving the label as it is.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Label::Text(text) => Cow::Borrowed(text),
            Label::Code { code, render } => Cow::Owned(render(*code)),
        }
    }
}

/// The successors of one state as (label, canonical bytes) pairs, their
/// bytes back to back in one buffer. The explorer keeps one batch per
/// search and clears it for each parent, so the buffers are reused.
#[derive(Debug, Default)]
pub struct SuccessorBatch {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    labels: Vec<Label>,
}

impl SuccessorBatch {
    /// Drop every successor, keeping the buffers.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.labels.clear();
    }

    /// Number of successors.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch holds no successor.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Append a successor: `write` appends its canonical bytes to the
    /// buffer it is given.
    pub fn push(&mut self, label: Label, write: impl FnOnce(&mut Vec<u8>)) {
        write(&mut self.bytes);
        self.ends.push(self.bytes.len());
        self.labels.push(label);
    }

    /// The canonical bytes of successor `i`.
    pub fn bytes(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Take the label of successor `i`, leaving an empty text in its
    /// place.
    pub fn take_label(&mut self, i: usize) -> Label {
        std::mem::replace(&mut self.labels[i], Label::Text(String::new()))
    }
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
        moves(state, &self.scope)
            .iter()
            .filter(|mv| !(self.weak_intruder && mv.kind.is_ciphertext_fake()))
            .map(|mv| {
                let next = apply(state, mv);
                let next = if self.symmetry {
                    next.canonicalize()
                } else {
                    next
                };
                (mv.label(), next)
            })
            .collect()
    }

    fn encode_state(&self, state: &State) -> Option<Vec<u8>> {
        Some(codec::encode_state(state))
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<State> {
        codec::decode_state(bytes).ok()
    }

    /// The moves of the decoded parent, each written straight to its
    /// successor's canonical bytes ([`SuccessorEncoder`]) with its label
    /// left as a code. A parent at the message bound has no moves; its
    /// length prefix says so without a decode.
    fn successor_batch(&self, parent: &[u8], batch: &mut SuccessorBatch) {
        if codec::encoded_message_count(parent).is_some_and(|n| n >= self.scope.max_messages as u64)
        {
            return;
        }
        let state = codec::decode_state(parent)
            .expect("Model::decode_state must decode every state encode_state produced");
        let mut encoder = SuccessorEncoder::new(self.symmetry);
        for mv in moves(&state, &self.scope) {
            if self.weak_intruder && mv.kind.is_ciphertext_fake() {
                continue;
            }
            let label = Label::Code {
                code: mv.label_code(),
                render: render_label,
            };
            batch.push(label, |out| encoder.encode(&state, &mv, out));
        }
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
