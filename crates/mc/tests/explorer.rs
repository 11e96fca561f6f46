//! The explorer's search through its public entry points: state and
//! depth limits, violations and their traces, dedup accounting, typed
//! stops under budgets and injected faults, checkpoint resume, and the
//! spill tier's determinism and degradation.

use equitls_mc::explorer::{
    explore_resume_with_config_jobs, explore_with_config_jobs, Exploration, ExploreConfig, Limits,
    Monitor,
};
use equitls_mc::model::Model;
use equitls_obs::sink::Obs;
use equitls_persist::PersistError;
use equitls_rewrite::budget::{Budget, FaultKind, FaultPlan, FaultSite, StopReason};
use std::path::PathBuf;
use std::time::Duration;

/// One sequential exploration under the default config.
fn bfs<M: Model>(
    model: &M,
    monitors: &[Monitor<'_, M::State>],
    limits: &Limits,
) -> Exploration<M::State> {
    bfs_with(model, monitors, limits, &ExploreConfig::default())
}

/// One exploration under `config`, unobserved.
fn bfs_with<M: Model>(
    model: &M,
    monitors: &[Monitor<'_, M::State>],
    limits: &Limits,
    config: &ExploreConfig,
) -> Exploration<M::State> {
    explore_with_config_jobs(model, monitors, limits, config, 1, &Obs::noop())
}

/// A toy counter model: increments up to 5, with a "reset" self-loop.
struct Counter;

impl Model for Counter {
    type State = u8;

    fn initial(&self) -> u8 {
        0
    }

    fn successors(&self, s: &u8) -> Vec<(String, u8)> {
        if *s >= 5 {
            vec![]
        } else {
            vec![(format!("inc->{}", s + 1), s + 1), ("reset".into(), 0)]
        }
    }

    fn encode_state(&self, s: &u8) -> Option<Vec<u8>> {
        Some(vec![*s])
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<u8> {
        match bytes {
            [s] => Some(*s),
            _ => None,
        }
    }
}

/// A 5×5 grid walked right/down: wide frontiers and diamond-shaped
/// dedup.
struct Grid;

impl Model for Grid {
    type State = (u8, u8);

    fn initial(&self) -> (u8, u8) {
        (0, 0)
    }

    fn successors(&self, &(x, y): &(u8, u8)) -> Vec<(String, (u8, u8))> {
        let mut out = Vec::new();
        if x < 4 {
            out.push((format!("right@{x},{y}"), (x + 1, y)));
        }
        if y < 4 {
            out.push((format!("down@{x},{y}"), (x, y + 1)));
        }
        out
    }

    fn encode_state(&self, &(x, y): &(u8, u8)) -> Option<Vec<u8>> {
        Some(vec![x, y])
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
        match bytes {
            [x, y] => Some((*x, *y)),
            _ => None,
        }
    }
}

#[test]
fn exhausts_a_small_space() {
    let result = bfs(&Counter, &[], &Limits::default());
    assert_eq!(result.states, 6);
    assert!(result.complete);
    assert!(result.all_hold());
}

#[test]
fn finds_a_violation_with_a_minimal_trace() {
    let below_three = |s: &u8| *s < 3;
    let result = bfs(
        &Counter,
        &[("below-three", &below_three)],
        &Limits::default(),
    );
    let v = result.violation("below-three").expect("violated");
    assert_eq!(v.depth, 3);
    assert_eq!(v.trace.len(), 3);
    assert_eq!(*v.trace.last().map(|(_, s)| s).unwrap(), 3);
    assert!(!result.all_hold());
}

#[test]
fn respects_state_limits() {
    let limits = Limits {
        max_states: 3,
        max_depth: 10,
    };
    let result = bfs(&Counter, &[], &limits);
    assert!(result.states <= 4);
    assert!(!result.complete);
}

#[test]
fn respects_depth_limits() {
    let limits = Limits {
        max_states: 1000,
        max_depth: 2,
    };
    let result = bfs(&Counter, &[], &limits);
    assert_eq!(result.depth_reached, 2);
    assert!(!result.complete);
    assert_eq!(result.states_per_depth.len(), 3);
}

#[test]
fn counts_dedup_hits_and_rates() {
    // Every "reset" successor re-reaches state 0, and every "inc"
    // successor beyond the first visit of its target is a duplicate.
    let result = bfs(&Counter, &[], &Limits::default());
    assert!(result.dedup_hits > 0);
    let rate = result.dedup_hit_rate();
    assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
    // 6 distinct states, so generated = dedup_hits + 5.
    assert_eq!(
        (result.dedup_hits as f64 / (result.dedup_hits + 5) as f64).to_bits(),
        rate.to_bits()
    );
}

#[test]
fn obs_variant_emits_levels_and_gauges() {
    use equitls_obs::sink::{Obs, RecordingSink};
    use equitls_obs::summary::MetricsSummary;
    use std::sync::Arc;

    let recorder = Arc::new(RecordingSink::new());
    let obs = Obs::new(recorder.clone());
    let result = explore_with_config_jobs(
        &Counter,
        &[],
        &Limits::default(),
        &ExploreConfig::default(),
        1,
        &obs,
    );
    let summary = MetricsSummary::from_events(&recorder.events());
    // One span per expanded BFS level.
    let levels: usize = (1..=result.depth_reached)
        .filter(|d| summary.span(&format!("mc.level:{d}")).is_some())
        .count();
    assert_eq!(levels, result.depth_reached);
    assert_eq!(
        summary.counter_total("mc.states") as usize,
        result.states - 1,
        "counter covers every non-initial state"
    );
    assert!(summary.gauge("mc.states_per_sec").is_some());
    assert!(summary.gauge("mc.dedup_hit_rate").is_some());
}

#[test]
fn reports_one_violation_per_property() {
    let never = |_: &u8| false;
    let result = bfs(&Counter, &[("never", &never)], &Limits::default());
    assert_eq!(result.violations.len(), 1);
    assert_eq!(result.violations[0].depth, 0);
    assert!(result.violations[0].trace.is_empty());
}

#[test]
fn truncation_accounting_is_consistent_at_every_cap() {
    // The Counter space has exactly 6 states. Wherever the cap lands
    // — first frontier entry, mid-level, exactly the true count —
    // the books must balance.
    for max_states in 1..=8 {
        let limits = Limits {
            max_states,
            max_depth: 10,
        };
        let result = bfs(&Counter, &[], &limits);
        assert_eq!(
            result.states,
            max_states.min(6),
            "cap {max_states}: never exceeds the cap, never undershoots it"
        );
        assert_eq!(
            result.states_per_depth.iter().sum::<usize>(),
            result.states,
            "cap {max_states}: per-level counts sum to the state count"
        );
        assert_eq!(
            result.states_per_depth.len(),
            result.depth_reached + 1,
            "cap {max_states}: one level entry per reached depth"
        );
        assert_eq!(
            result.complete,
            result.states == 6,
            "cap {max_states}: complete iff the space was exhausted"
        );
    }
}

#[test]
fn truncation_accounting_is_consistent_on_wide_frontiers() {
    // On the grid the cap can land on any frontier entry of a wide
    // level; wherever it lands, the books must balance.
    for max_states in [1, 5, 7, 12, 24, 25, 40] {
        let limits = Limits {
            max_states,
            max_depth: 16,
        };
        let result = bfs(&Grid, &[], &limits);
        assert_eq!(result.states, max_states.min(25), "cap {max_states}");
        assert_eq!(
            result.states_per_depth.iter().sum::<usize>(),
            result.states,
            "cap {max_states}"
        );
        assert_eq!(result.complete, result.states == 25, "cap {max_states}");
    }
}

#[test]
fn a_grid_violation_has_a_minimal_trace() {
    let on_diagonal = |s: &(u8, u8)| s.0 != s.1 || s.0 < 3;
    let monitors: [Monitor<'_, (u8, u8)>; 1] = [("off-diagonal", &on_diagonal)];
    let result = bfs(&Grid, &monitors, &Limits::default());
    let v = result.violation("off-diagonal").expect("violated");
    // (3,3) is six unit steps from the origin, each one right or down.
    assert_eq!(v.depth, 6);
    assert_eq!(v.trace.len(), 6);
    assert_eq!(v.trace.last().map(|(_, s)| *s), Some((3, 3)));
    for (i, (_, (x, y))) in v.trace.iter().enumerate() {
        assert_eq!(usize::from(x + y), i + 1, "step {i}");
    }
}

#[test]
fn states_per_sec_is_guarded_on_short_runs() {
    let mk = |states: usize, duration: Duration| Exploration::<u8> {
        states,
        depth_reached: 1,
        complete: true,
        violations: Vec::new(),
        states_per_depth: vec![1],
        dedup_hits: 0,
        stop_reason: None,
        faults: Vec::new(),
        unexpanded: 0,
        degradation: Vec::new(),
        spill_shards: 0,
        spill_bytes: 0,
        spill_reloads: 0,
        duration,
    };
    // A zero-length run cannot report a rate.
    assert_eq!(mk(100, Duration::ZERO).states_per_sec(), 0.0);
    // A 10 µs run must not extrapolate to 10M states/sec: the divisor
    // clamps at 1 ms, bounding the result.
    let fast = mk(100, Duration::from_micros(10)).states_per_sec();
    assert!((fast - 100_000.0).abs() < 1e-6, "got {fast}");
    // Runs long enough to measure divide normally.
    let slow = mk(100, Duration::from_secs(2)).states_per_sec();
    assert!((slow - 50.0).abs() < 1e-9, "got {slow}");
    // No states, no rate.
    assert_eq!(mk(0, Duration::from_secs(1)).states_per_sec(), 0.0);
}

#[test]
fn structural_stops_carry_typed_reasons() {
    let capped = bfs(
        &Counter,
        &[],
        &Limits {
            max_states: 3,
            max_depth: 10,
        },
    );
    assert_eq!(capped.stop_reason, Some(StopReason::StateCapReached));
    assert!(!capped.complete);

    let shallow = bfs(
        &Counter,
        &[],
        &Limits {
            max_states: 1000,
            max_depth: 2,
        },
    );
    assert_eq!(shallow.stop_reason, Some(StopReason::DepthCapReached));
    assert!(!shallow.complete);

    let full = bfs(&Counter, &[], &Limits::default());
    assert_eq!(full.stop_reason, None);
    assert!(full.complete);
}

#[test]
fn expired_deadline_yields_a_partial_consistent_exploration() {
    let config = ExploreConfig {
        budget: Budget::unlimited().with_deadline(Duration::ZERO),
        fault_plan: None,
        ..Default::default()
    };
    let result = bfs_with(&Grid, &[], &Limits::default(), &config);
    assert_eq!(result.stop_reason, Some(StopReason::DeadlineExceeded));
    assert!(!result.complete);
    assert_eq!(
        result.states_per_depth.iter().sum::<usize>(),
        result.states,
        "partial tally stays internally consistent"
    );
}

#[test]
fn memory_ceiling_stops_before_the_first_expansion() {
    let config = ExploreConfig {
        budget: Budget::unlimited().with_max_heap_bytes(1),
        fault_plan: None,
        ..Default::default()
    };
    let result = bfs_with(&Grid, &[], &Limits::default(), &config);
    assert_eq!(result.stop_reason, Some(StopReason::MemoryExceeded));
    assert_eq!(result.states, 1, "only the initial state is stored");
    assert_eq!(result.states_per_depth, vec![1]);
}

#[test]
fn cancel_token_stops_exploration_cooperatively() {
    let budget = Budget::unlimited();
    budget.cancel_token().cancel();
    let config = ExploreConfig {
        budget,
        fault_plan: None,
        ..Default::default()
    };
    let result = bfs_with(&Grid, &[], &Limits::default(), &config);
    assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
    assert!(!result.complete);
}

#[test]
fn injected_deadline_truncates_a_consistent_partial_search() {
    use equitls_rewrite::budget::Fault;
    // The deadline "expires" exactly when frontier entry 7 is merged.
    let config = ExploreConfig {
        budget: Budget::unlimited(),
        fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
            FaultSite::Successor,
            FaultKind::DeadlineExpiry,
            7,
        ))),
        ..Default::default()
    };
    let seq = bfs_with(&Grid, &[], &Limits::default(), &config);
    assert_eq!(seq.stop_reason, Some(StopReason::DeadlineExceeded));
    assert!(!seq.complete);
    assert!(
        seq.states < 25,
        "the grid was truncated (got {})",
        seq.states
    );
    assert_eq!(seq.states_per_depth.iter().sum::<usize>(), seq.states);
}

#[test]
fn injected_successor_panic_is_contained() {
    use equitls_rewrite::budget::Fault;
    // State 3's successor computation panics; the search must record
    // one typed fault, skip that subtree, and finish the rest.
    let config = ExploreConfig {
        budget: Budget::unlimited(),
        fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
            FaultSite::Successor,
            FaultKind::Panic,
            3,
        ))),
        ..Default::default()
    };
    let limits = Limits {
        max_states: 1000,
        max_depth: 16,
    };
    let seq = bfs_with(&Grid, &[], &limits, &config);
    assert_eq!(seq.faults.len(), 1);
    assert_eq!(seq.faults[0].site, "successor:3");
    assert!(
        seq.faults[0].message.contains("injected fault"),
        "payload surfaced: {}",
        seq.faults[0].message
    );
    assert!(seq.complete, "a contained fault is not an early stop");
    assert_eq!(seq.stop_reason, None);
}

fn tmp_snapshot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("equitls_mc_{}_{name}.snap", std::process::id()))
}

#[test]
fn interrupted_then_resumed_grid_matches_straight_through() {
    use equitls_rewrite::budget::Fault;
    let on_diagonal = |s: &(u8, u8)| s.0 != s.1 || s.0 < 3;
    let monitors: [Monitor<'_, (u8, u8)>; 1] = [("off-diagonal", &on_diagonal)];
    let straight = bfs(&Grid, &monitors, &Limits::default());
    // An injected deadline fires at frontier entry 7 (depth 3), or at
    // entry 22 (depth 7), after the barrier that recorded the (3,3)
    // violation: the checkpoint then carries a violation whose trace
    // the resume rebuilds.
    for entry in [7, 22] {
        let path = tmp_snapshot(&format!("grid_resume_{entry}"));
        let _ = std::fs::remove_file(&path);
        let interrupted_config = ExploreConfig {
            fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
                FaultSite::Successor,
                FaultKind::DeadlineExpiry,
                entry,
            ))),
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let partial = bfs_with(&Grid, &monitors, &Limits::default(), &interrupted_config);
        assert_eq!(partial.stop_reason, Some(StopReason::DeadlineExceeded));
        assert_eq!(partial.violations.len(), usize::from(entry == 22));
        assert!(path.exists(), "a barrier checkpoint was written");
        // Resume without the fault and finish the search.
        let resume_config = ExploreConfig {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let resumed = explore_resume_with_config_jobs(
            &Grid,
            &monitors,
            &Limits::default(),
            &resume_config,
            &Obs::noop(),
        )
        .expect("snapshot loads");
        assert_same_result(&resumed, &straight, &format!("interrupted at {entry}"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resuming_a_finished_exploration_replays_the_same_result() {
    let path = tmp_snapshot("grid_finished");
    let _ = std::fs::remove_file(&path);
    let config = ExploreConfig {
        checkpoint_path: Some(path.clone()),
        ..Default::default()
    };
    let straight = bfs_with(&Counter, &[], &Limits::default(), &config);
    assert!(straight.complete);
    let resumed =
        explore_resume_with_config_jobs(&Counter, &[], &Limits::default(), &config, &Obs::noop())
            .expect("snapshot loads");
    assert_eq!(resumed.states, straight.states);
    assert_eq!(resumed.complete, straight.complete);
    assert_eq!(resumed.states_per_depth, straight.states_per_depth);
    assert_eq!(resumed.dedup_hits, straight.dedup_hits);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn the_last_barrier_is_written_once_and_a_finished_resume_writes_nothing() {
    use equitls_obs::sink::RecordingSink;
    use equitls_obs::summary::MetricsSummary;
    use std::sync::Arc;

    let path = tmp_snapshot("written_once");
    let _ = std::fs::remove_file(&path);
    let config = ExploreConfig {
        checkpoint_path: Some(path.clone()),
        ..Default::default()
    };
    // A run of the grid, and the explorer snapshots it wrote.
    let run = |resume: bool| {
        let recorder = Arc::new(RecordingSink::new());
        let obs = Obs::new(recorder.clone());
        let result = if resume {
            explore_resume_with_config_jobs(&Grid, &[], &full_limits(), &config, &obs)
                .expect("snapshot loads")
        } else {
            explore_with_config_jobs(&Grid, &[], &full_limits(), &config, 1, &obs)
        };
        let summary = MetricsSummary::from_events(&recorder.events());
        (result, summary.counter_total("persist.snapshot_written"))
    };
    let (straight, writes) = run(false);
    assert!(straight.complete);
    // One write per barrier: the clean end does not repeat the last.
    assert_eq!(writes, straight.depth_reached as u64);
    let before = std::fs::read(&path).unwrap();
    let (resumed, writes) = run(true);
    assert_eq!(writes, 0, "a finished resume rewrites nothing");
    assert_eq!(std::fs::read(&path).unwrap(), before);
    assert_same_result(&resumed, &straight, "resumed");
    let (again, _) = run(true);
    assert_same_result(&again, &straight, "resumed twice");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_errors_are_typed_never_garbage() {
    // No checkpoint path configured.
    let result = explore_resume_with_config_jobs(
        &Grid,
        &[],
        &Limits::default(),
        &ExploreConfig::default(),
        &Obs::noop(),
    );
    assert_eq!(result.err(), Some(PersistError::MissingPath));
    // A file that is not a snapshot at all.
    let path = tmp_snapshot("garbage");
    std::fs::write(&path, b"not a snapshot").unwrap();
    let config = ExploreConfig {
        checkpoint_path: Some(path.clone()),
        ..Default::default()
    };
    let result =
        explore_resume_with_config_jobs(&Grid, &[], &Limits::default(), &config, &Obs::noop());
    assert_eq!(result.err(), Some(PersistError::BadMagic));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_successor_that_does_not_encode_faults_each_parent() {
    /// The grid, except that the codec refuses the reachable state
    /// (2,2) — a model breaking the [`Model::encode_state`] contract.
    struct Holey;
    impl Model for Holey {
        type State = (u8, u8);
        fn initial(&self) -> (u8, u8) {
            Grid.initial()
        }
        fn successors(&self, s: &(u8, u8)) -> Vec<(String, (u8, u8))> {
            Grid.successors(s)
        }
        fn encode_state(&self, s: &(u8, u8)) -> Option<Vec<u8>> {
            (*s != (2, 2)).then(|| vec![s.0, s.1])
        }
        fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
            Grid.decode_state(bytes)
        }
    }
    let seq = bfs_with(&Holey, &[], &full_limits(), &ExploreConfig::default());
    // (2,2)'s parents are (2,1) and (1,2), states 7 and 8 in BFS
    // order: each faults and contributes no successors. Every other
    // state is still reached through a sibling path.
    let sites: Vec<&str> = seq.faults.iter().map(|f| f.site.as_str()).collect();
    assert_eq!(sites, ["successor:7", "successor:8"]);
    assert!(
        seq.faults
            .iter()
            .all(|f| f.message.contains("encode_state")),
        "the contract is named: {:?}",
        seq.faults
    );
    assert_eq!(seq.states, 24, "the grid minus (2,2)");
    assert!(seq.complete);
}

#[test]
fn a_successor_that_does_not_decode_faults_its_parent_and_is_not_expanded() {
    /// The grid, except that the codec cannot decode the bytes of
    /// (2,2) — a model breaking the [`Model::decode_state`] contract.
    struct Undecodable;
    impl Model for Undecodable {
        type State = (u8, u8);
        fn initial(&self) -> (u8, u8) {
            Grid.initial()
        }
        fn successors(&self, s: &(u8, u8)) -> Vec<(String, (u8, u8))> {
            Grid.successors(s)
        }
        fn encode_state(&self, s: &(u8, u8)) -> Option<Vec<u8>> {
            Grid.encode_state(s)
        }
        fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
            Grid.decode_state(bytes).filter(|&s| s != (2, 2))
        }
    }
    let never = |_: &(u8, u8)| false;
    let result = bfs(&Undecodable, &[("never", &never)], &full_limits());
    // (2,2) is first reached from (2,1), state 7: it is counted, its
    // parent carries the fault, and its successors come by other
    // paths.
    let sites: Vec<&str> = result.faults.iter().map(|f| f.site.as_str()).collect();
    assert_eq!(sites, ["successor:7"]);
    assert!(result.faults[0].message.contains("does not decode"));
    assert_eq!(result.states, 25);
    assert!(result.complete);
    assert_eq!(result.violation("never").map(|v| v.depth), Some(0));
}

fn tmp_spill_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("equitls_mc_spill_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Limits deep enough for the grid to drain its frontier completely
/// ([`Limits::default`] depth-caps the last corner state at 8).
fn full_limits() -> Limits {
    Limits {
        max_states: 200_000,
        max_depth: 16,
    }
}

fn assert_same_result(a: &Exploration<(u8, u8)>, b: &Exploration<(u8, u8)>, tag: &str) {
    assert_eq!(a.states, b.states, "{tag}");
    assert_eq!(a.complete, b.complete, "{tag}");
    assert_eq!(a.depth_reached, b.depth_reached, "{tag}");
    assert_eq!(a.states_per_depth, b.states_per_depth, "{tag}");
    assert_eq!(a.dedup_hits, b.dedup_hits, "{tag}");
    assert_eq!(a.unexpanded, b.unexpanded, "{tag}");
    assert_eq!(a.stop_reason, b.stop_reason, "{tag}");
    assert_eq!(a.violations.len(), b.violations.len(), "{tag}");
    for (av, bv) in a.violations.iter().zip(&b.violations) {
        assert_eq!(av.property, bv.property, "{tag}");
        assert_eq!(av.depth, bv.depth, "{tag}");
        assert_eq!(av.trace, bv.trace, "{tag}");
    }
}

#[test]
fn unexpanded_discloses_dropped_states() {
    use equitls_rewrite::budget::Fault;
    // A complete run drops nothing.
    let full = bfs(&Grid, &[], &full_limits());
    assert_eq!(full.unexpanded, 0);
    // A depth-capped run discloses the frontier it never expanded.
    let shallow = bfs(
        &Grid,
        &[],
        &Limits {
            max_states: 1000,
            max_depth: 2,
        },
    );
    assert_eq!(shallow.stop_reason, Some(StopReason::DepthCapReached));
    assert_eq!(
        shallow.unexpanded,
        *shallow.states_per_depth.last().unwrap(),
        "the depth-capped frontier is exactly the last level"
    );
    // A mid-level stop discloses the dropped remainder.
    let config = ExploreConfig {
        fault_plan: Some(FaultPlan::new().with_fault(Fault::new(
            FaultSite::Successor,
            FaultKind::DeadlineExpiry,
            7,
        ))),
        ..Default::default()
    };
    let seq = bfs_with(&Grid, &[], &Limits::default(), &config);
    assert_eq!(seq.stop_reason, Some(StopReason::DeadlineExceeded));
    assert!(seq.unexpanded > 0, "a mid-level stop drops states");
    // The books balance: every state is visited, enqueued, or never
    // generated — the disclosed part is what was enqueued and dropped.
    assert_eq!(seq.states_per_depth.iter().sum::<usize>(), seq.states);
    // The structural state cap also disclosed: cap the grid at 7.
    let capped = bfs(
        &Grid,
        &[],
        &Limits {
            max_states: 7,
            max_depth: 16,
        },
    );
    assert_eq!(capped.stop_reason, Some(StopReason::StateCapReached));
    assert!(capped.unexpanded > 0);
}

#[test]
fn spilled_exploration_is_bit_identical_to_resident() {
    let on_diagonal = |s: &(u8, u8)| s.0 != s.1 || s.0 < 3;
    let monitors: [Monitor<'_, (u8, u8)>; 1] = [("off-diagonal", &on_diagonal)];
    let resident = bfs(&Grid, &monitors, &Limits::default());
    assert!(!resident.all_hold());
    let dir = tmp_spill_dir("identical");
    let config = ExploreConfig {
        spill_dir: Some(dir.clone()),
        max_resident_shards: 1,
        ..Default::default()
    };
    let spilled = bfs_with(&Grid, &monitors, &Limits::default(), &config);
    assert_same_result(&spilled, &resident, "spilled");
    assert!(spilled.spill_shards > 0, "shards spilled");
    assert!(
        spilled.degradation.iter().any(|d| d == "visited-spilled"),
        "degradation disclosed, got {:?}",
        spilled.degradation
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_pressure_spills_instead_of_truncating() {
    // A ceiling the resident run cannot fit (the grid needs ~3.9 KB
    // of estimate resident, ~2.6 KB unspillable): without a spill
    // dir the search truncates with the typed stop; with one it
    // completes by spilling — the same ceiling, disclosed degradation
    // instead of silence.
    let ceiling = 3000;
    let truncated = bfs_with(
        &Grid,
        &[],
        &full_limits(),
        &ExploreConfig {
            budget: Budget::unlimited().with_max_heap_bytes(ceiling),
            ..Default::default()
        },
    );
    assert_eq!(truncated.stop_reason, Some(StopReason::MemoryExceeded));
    assert!(!truncated.complete);
    assert!(truncated.unexpanded > 0, "the truncation is disclosed");

    let dir = tmp_spill_dir("pressure");
    let spilled = bfs_with(
        &Grid,
        &[],
        &full_limits(),
        &ExploreConfig {
            budget: Budget::unlimited().with_max_heap_bytes(ceiling),
            spill_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    assert_eq!(spilled.stop_reason, None, "the spill tier absorbed it");
    assert!(spilled.complete);
    assert_eq!(spilled.states, 25, "the full grid");
    assert!(spilled.spill_shards > 0);
    assert!(spilled.degradation.iter().any(|d| d == "visited-spilled"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spilled_checkpoint_resume_matches_straight_through() {
    use equitls_rewrite::budget::Fault;
    let on_diagonal = |s: &(u8, u8)| s.0 != s.1 || s.0 < 3;
    let monitors: [Monitor<'_, (u8, u8)>; 1] = [("off-diagonal", &on_diagonal)];
    let straight = bfs(&Grid, &monitors, &Limits::default());
    let dir = tmp_spill_dir("resume");
    let path = tmp_snapshot("spilled_resume");
    let spill_config = |fault_plan: Option<FaultPlan>| ExploreConfig {
        fault_plan,
        checkpoint_path: Some(path.clone()),
        spill_dir: Some(dir.clone()),
        max_resident_shards: 1,
        ..Default::default()
    };
    // Interrupt mid-search, after barriers that both spilled shards
    // and wrote a manifest checkpoint: at depth 3, or at depth 7 with
    // the (3,3) violation in the checkpoint.
    for entry in [7, 22] {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
        let partial = bfs_with(
            &Grid,
            &monitors,
            &Limits::default(),
            &spill_config(Some(FaultPlan::new().with_fault(Fault::new(
                FaultSite::Successor,
                FaultKind::DeadlineExpiry,
                entry,
            )))),
        );
        assert_eq!(partial.stop_reason, Some(StopReason::DeadlineExceeded));
        assert!(
            partial.spill_shards > 0,
            "shards went to disk before the stop"
        );
        assert!(path.exists(), "a manifest checkpoint was written");
        // Resume revalidates every shard's checksum + digest, then
        // finishes — bit-identical to the uninterrupted resident run.
        let resumed = explore_resume_with_config_jobs(
            &Grid,
            &monitors,
            &Limits::default(),
            &spill_config(None),
            &Obs::noop(),
        )
        .expect("manifest snapshot loads");
        assert_same_result(&resumed, &straight, &format!("interrupted at {entry}"));
    }
    // A byte-flipped shard file fails the resume with the typed
    // checksum error — never garbage states.
    let mut shard_files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    shard_files.sort();
    let shard_path = shard_files.first().expect("shard files on disk");
    let mut raw = std::fs::read(shard_path).unwrap();
    let last = raw.len() - 1;
    raw[last] ^= 0x01;
    std::fs::write(shard_path, &raw).unwrap();
    let err = explore_resume_with_config_jobs(
        &Grid,
        &monitors,
        &Limits::default(),
        &spill_config(None),
        &Obs::noop(),
    )
    .expect_err("a corrupt shard cannot resume");
    assert_eq!(err, PersistError::ChecksumMismatch);
    // And a manifest checkpoint without its spill dir is typed too.
    let no_dir = ExploreConfig {
        checkpoint_path: Some(path.clone()),
        ..Default::default()
    };
    let err = explore_resume_with_config_jobs(
        &Grid,
        &monitors,
        &Limits::default(),
        &no_dir,
        &Obs::noop(),
    )
    .expect_err("manifest without a spill dir");
    assert!(matches!(err, PersistError::Malformed(_)), "got {err}");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_spill_write_fault_degrades_without_data_loss() {
    use equitls_rewrite::budget::Fault;
    let resident = bfs(&Grid, &[], &full_limits());
    let dir = tmp_spill_dir("wfault");
    // The very first shard write fails "disk full": that shard stays
    // resident (backpressure), the pass moves on, the search
    // completes with the identical result — degradation disclosed.
    let config = ExploreConfig {
        fault_plan: Some(FaultPlan::new().with_fault(
            Fault::new(FaultSite::SpillWrite, FaultKind::IoError, 0).in_scope("visited"),
        )),
        spill_dir: Some(dir.clone()),
        max_resident_shards: 1,
        ..Default::default()
    };
    let faulted = bfs_with(&Grid, &[], &full_limits(), &config);
    assert!(faulted.complete, "a write fault never wedges the search");
    assert_eq!(faulted.states, resident.states);
    assert_eq!(faulted.states_per_depth, resident.states_per_depth);
    assert_eq!(faulted.dedup_hits, resident.dedup_hits);
    assert!(
        faulted
            .degradation
            .iter()
            .any(|d| d == "spill-write-failed"),
        "got {:?}",
        faulted.degradation
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_spill_read_fault_stops_typed_never_panics() {
    use equitls_rewrite::budget::Fault;
    // The memory ceiling forces every shard to disk mid-search, and the
    // injected corruption makes every read back of shard 9, which holds
    // a state the search needs again, fail. The search must stop with
    // the typed reason and a typed fault — not panic.
    let dir = tmp_spill_dir("rfault");
    let config = ExploreConfig {
        budget: Budget::unlimited().with_max_heap_bytes(3000),
        fault_plan: Some(FaultPlan::new().with_fault(
            Fault::new(FaultSite::SpillRead, FaultKind::Corruption, 9).in_scope("visited"),
        )),
        spill_dir: Some(dir.clone()),
        ..Default::default()
    };
    let seq = bfs_with(&Grid, &[], &Limits::default(), &config);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(seq.stop_reason, Some(StopReason::SpillFailed));
    assert!(!seq.complete);
    assert!(seq.unexpanded > 0, "the stop is disclosed");
    assert!(
        seq.faults.iter().any(|f| f.site == "spill:shard9"),
        "typed fault recorded: {:?}",
        seq.faults
    );
    assert_eq!(seq.states_per_depth.iter().sum::<usize>(), seq.states);
}
