//! Symmetry reduction is sound for every §5 monitor: at network bounds 1
//! and 2, the reduced and the unreduced machine agree on whether each
//! monitor holds and on the length of its shortest violation.

use equitls_mc::explorer::{explore_with_config_jobs, Exploration, ExploreConfig, Limits, Monitor};
use equitls_mc::model::TlsMachine;
use equitls_obs::sink::Obs;
use equitls_tls::concrete::{props, Scope, State};

/// Explore `machine` breadth-first under every `props` monitor.
fn explore(machine: &TlsMachine, scope: &Scope) -> Exploration<State> {
    let monitors = props::monitors();
    let predicates: Vec<_> = monitors
        .iter()
        .map(|&(name, f, _)| (name, move |s: &State| f(s, scope)))
        .collect();
    let refs: Vec<Monitor<'_, State>> = predicates.iter().map(|(n, f)| (*n, f as _)).collect();
    let limits = Limits {
        max_states: 200_000,
        max_depth: scope.max_messages + 1,
    };
    explore_with_config_jobs(
        machine,
        &refs,
        &limits,
        &ExploreConfig::default(),
        1,
        &Obs::noop(),
    )
}

#[test]
fn monitor_verdicts_and_shortest_violations_agree_with_and_without_symmetry() {
    for swapped_finish2 in [false, true] {
        for bound in [1, 2] {
            let mut scope = Scope::counterexample();
            scope.max_messages = bound;
            scope.swapped_finish2 = swapped_finish2;
            let reduced = explore(&TlsMachine::new(scope.clone()), &scope);
            let plain = explore(&TlsMachine::new(scope.clone()).without_symmetry(), &scope);
            let at = format!("bound {bound}, swapped Finished2 {swapped_finish2}");
            assert!(reduced.complete && plain.complete, "{at}");
            assert!(reduced.states < plain.states, "{at}: symmetry must shrink");
            let mut violated = 0;
            for (name, _, expected) in props::monitors() {
                let shortest = |e: &Exploration<State>| e.violation(name).map(|v| v.trace.len());
                assert_eq!(shortest(&reduced), shortest(&plain), "{at}: {name}");
                assert_eq!(shortest(&reduced).is_none(), expected, "{at}: {name}");
                violated += usize::from(shortest(&reduced).is_some());
            }
            assert_eq!(violated, 2, "{at}: 2' and 3' are violated");
        }
    }
}
