//! `TlsMachine`'s fused successor path against the `Model` trait's
//! default: the same labels and canonical bytes in the same order, and the
//! same search.

use equitls_mc::check::check_scope_config_obs;
use equitls_mc::explorer::{explore_with_config_jobs, Exploration, ExploreConfig, Limits};
use equitls_mc::model::{Model, SuccessorBatch, TlsMachine};
use equitls_mc::scenario::{counterexample_2prime, counterexample_3prime};
use equitls_obs::sink::Obs;
use equitls_tls::concrete::{props, Scope, State};
use std::collections::HashSet;

/// A `TlsMachine` that exposes only the trait's default successor path:
/// decode, `successors`, encode.
struct DefaultPath(TlsMachine);

impl Model for DefaultPath {
    type State = State;

    fn initial(&self) -> State {
        self.0.initial()
    }

    fn successors(&self, state: &State) -> Vec<(String, State)> {
        self.0.successors(state)
    }

    fn encode_state(&self, state: &State) -> Option<Vec<u8>> {
        self.0.encode_state(state)
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<State> {
        self.0.decode_state(bytes)
    }
}

/// The (label, bytes) sequence `model` gives for the state encoded as
/// `parent`.
fn batch_of(model: &impl Model, parent: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut batch = SuccessorBatch::default();
    model.successor_batch(parent, &mut batch);
    (0..batch.len())
        .map(|i| (batch.take_label(i).render(), batch.bytes(i).to_vec()))
        .collect()
}

/// Every combination of the machine's switches over `scope`: symmetry,
/// the weak intruder, and the swapped Finished2 order.
fn machines(scope: &Scope) -> Vec<(String, TlsMachine)> {
    let mut out = Vec::new();
    for swapped in [false, true] {
        for symmetry in [true, false] {
            for weak in [false, true] {
                let mut scope = scope.clone();
                scope.swapped_finish2 = swapped;
                let mut machine = TlsMachine::new(scope);
                if !symmetry {
                    machine = machine.without_symmetry();
                }
                if weak {
                    machine = machine.with_weak_intruder();
                }
                let tag = format!("swapped={swapped} symmetry={symmetry} weak={weak}");
                out.push((tag, machine));
            }
        }
    }
    out
}

/// Compare the two paths on the state encoded as `parent`; returns its
/// successors' bytes.
fn assert_same_batch(machine: &TlsMachine, parent: &[u8], tag: &str) -> Vec<Vec<u8>> {
    let fused = batch_of(machine, parent);
    let reference = batch_of(&DefaultPath(machine.clone()), parent);
    assert_eq!(fused, reference, "{tag}: parent {parent:?}");
    fused.into_iter().map(|(_, bytes)| bytes).collect()
}

#[test]
fn the_fused_path_matches_the_default_on_every_state_reachable_at_bound_2() {
    for (name, base) in [
        ("counterexample", Scope::counterexample()),
        ("mitchell", Scope::mitchell()),
    ] {
        let mut scope = base;
        scope.max_messages = 2;
        for (tag, machine) in machines(&scope) {
            let tag = format!("{name} {tag}");
            let root = machine.encode_state(&machine.initial()).unwrap();
            let mut seen = HashSet::from([root.clone()]);
            let mut frontier = vec![root];
            let mut successors = 0;
            while let Some(parent) = frontier.pop() {
                for bytes in assert_same_batch(&machine, &parent, &tag) {
                    successors += 1;
                    if seen.insert(bytes.clone()) {
                        frontier.push(bytes);
                    }
                }
            }
            assert!(seen.len() > 50, "{tag}: {} states", seen.len());
            assert!(successors > seen.len(), "{tag}: duplicates are generated");
        }
    }
}

#[test]
fn the_fused_path_matches_the_default_around_the_papers_traces() {
    // Bound 2 reaches no session; the replays of the paper's traces do,
    // with the abbreviated handshake. Compare at every state on them and
    // at every successor of those.
    let replays = [counterexample_2prime(), counterexample_3prime()];
    let mut states = vec![State::new()];
    for replay in replays {
        let replay = replay.expect("the paper's traces replay");
        states.extend(replay.trace.into_iter().map(|(_, s)| s));
    }
    assert!(states.iter().any(|s| !s.sessions.is_empty()));
    for (tag, machine) in machines(&Scope::counterexample()) {
        for state in &states {
            let parent = machine.encode_state(state).unwrap();
            for child in assert_same_batch(&machine, &parent, &tag) {
                assert_same_batch(&machine, &child, &tag);
            }
        }
    }
}

/// The §5 monitors over `scope`, as the explorer takes them.
type Predicate = Box<dyn Fn(&State) -> bool>;

fn monitors(scope: &Scope) -> Vec<(&'static str, Predicate)> {
    props::monitors()
        .into_iter()
        .map(|(name, f, _)| {
            let scope = scope.clone();
            (name, Box::new(move |s: &State| f(s, &scope)) as Predicate)
        })
        .collect()
}

fn assert_same_search(a: &Exploration<State>, b: &Exploration<State>) {
    assert_eq!(a.states, b.states);
    assert_eq!(a.states_per_depth, b.states_per_depth);
    assert_eq!(a.dedup_hits, b.dedup_hits);
    assert_eq!(a.complete, b.complete);
    assert_eq!(a.violations.len(), b.violations.len());
    for (x, y) in a.violations.iter().zip(&b.violations) {
        assert_eq!(x.property, y.property);
        assert_eq!(x.depth, y.depth);
        assert_eq!(x.trace, y.trace, "{}", x.property);
    }
}

#[test]
fn a_bound_3_search_through_the_default_path_equals_the_check() {
    let mut scope = Scope::counterexample();
    scope.max_messages = 3;
    let limits = Limits {
        max_states: 150_000,
        max_depth: 4,
    };
    let (config, obs) = (ExploreConfig::default(), Obs::noop());
    let boxed = monitors(&scope);
    let refs: Vec<_> = boxed
        .iter()
        .map(|(name, f)| (*name, f.as_ref() as &dyn Fn(&State) -> bool))
        .collect();
    let default = DefaultPath(TlsMachine::new(scope.clone()));
    let via_default = explore_with_config_jobs(&default, &refs, &limits, &config, 1, &obs);
    let checked = check_scope_config_obs(&scope, &limits, 1, &config, &obs);
    assert!(checked.complete);
    assert_eq!(checked.states, 79_422);
    assert_same_search(&via_default, &checked);
}
