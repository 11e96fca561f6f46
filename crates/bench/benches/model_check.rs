//! Experiment E10: bounded exhaustive search throughput, and the
//! intruder-power ablation (full Dolev–Yao vs. clear-text-only).

use equitls_bench::harness::bench;
use equitls_mc::prelude::*;
use equitls_obs::sink::Obs;
use equitls_tls::concrete::Scope;
use std::hint::black_box;

fn bench_bounded_search() {
    println!("== bfs-bounded");
    for &max_messages in &[1usize, 2, 3] {
        bench(&format!("bfs-bounded/{max_messages}"), 10, || {
            let mut scope = Scope::counterexample();
            scope.max_messages = max_messages;
            let limits = Limits {
                max_states: 200_000,
                max_depth: max_messages + 1,
            };
            let result =
                check_scope_config_obs(&scope, &limits, 1, &ExploreConfig::default(), &Obs::noop());
            assert!(result.complete);
            black_box(result.states)
        });
    }
}

fn bench_intruder_ablation() {
    println!("== intruder-ablation");
    for weak in [false, true] {
        let label = if weak {
            "clear-text-only"
        } else {
            "full-dolev-yao"
        };
        bench(&format!("intruder-ablation/{label}"), 10, || {
            let mut scope = Scope::counterexample();
            scope.max_messages = 2;
            let machine = if weak {
                TlsMachine::new(scope.clone()).with_weak_intruder()
            } else {
                TlsMachine::new(scope.clone())
            };
            let limits = Limits {
                max_states: 200_000,
                max_depth: 3,
            };
            let result = explore_with_config_jobs(
                &machine,
                &[],
                &limits,
                &ExploreConfig::default(),
                1,
                &Obs::noop(),
            );
            assert!(result.complete);
            black_box(result.states)
        });
    }
}

fn bench_counterexample_replay() {
    println!("== counterexample-replay");
    bench("counterexample-replay/2prime", 20, || {
        black_box(counterexample_2prime().expect("replays"))
    });
    bench("counterexample-replay/3prime", 20, || {
        black_box(counterexample_3prime().expect("replays"))
    });
}

fn main() {
    bench_bounded_search();
    bench_intruder_ablation();
    bench_counterexample_replay();
}
