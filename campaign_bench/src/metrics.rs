//! Per-layer metrics and the attribution table, derived from the raw
//! layer totals that traced iterations report.
//!
//! Layer times are printed as shares of the traced iteration's wall time
//! (set-up layers as shares of set-up time), so that a layer a workload
//! never enters reads as a share of 0 % rather than as a time; the
//! absolute time of a layer is its share of `trace.wall_s`. Times of
//! layers that run on several threads at once (`check_spill`'s successor
//! generation) are summed over threads, so their shares can exceed
//! 100 %.

use crate::reference::PROPERTIES;
use crate::stats::median;
use crate::Workload;
use std::collections::BTreeMap;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The traced side of a run, for one full iteration of the workload
/// (per-kind medians summed over [`Workload::kinds`]).
#[derive(Debug, Clone)]
pub struct Traced {
    /// Raw layer totals (seconds and counts) as the children report them.
    pub raw: BTreeMap<String, f64>,
    /// Wall time of the traced timed work, set-up excluded.
    pub wall_s: f64,
    /// Set-up time of the traced iterations.
    pub setup_s: f64,
    /// Wall time of the untraced timed work, set-up excluded.
    pub untraced_wall_s: f64,
}

impl Traced {
    fn get(&self, key: &str) -> f64 {
        self.raw.get(key).copied().unwrap_or(0.0)
    }

    fn share(&self, secs: f64) -> f64 {
        ratio(100.0 * secs, self.wall_s)
    }
}

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Disjoint parts of the traced wall time, in seconds. The last row,
/// `unattributed`, is the wall time no other row explains.
pub fn attribution(workload: Workload, t: &Traced) -> Vec<(&'static str, f64)> {
    let mut rows = match workload {
        Workload::Prove => {
            let normalize = t.get("rewrite.normalize_s");
            let match_fire = t.get("rewrite.match_fire_s");
            vec![
                ("rewrite.match_fire", match_fire),
                ("rewrite.normalize_other", normalize - match_fire),
                ("core.search", t.get("core.obligation_s") - normalize),
                ("spec.clone (estimated)", t.get("spec.clone_est_s")),
            ]
        }
        Workload::Serve => {
            let exec = ["prove", "check", "lint"].map(|k| t.get(&format!("serve.exec_s.{k}")));
            vec![
                ("serve.exec.prove", exec[0]),
                ("serve.exec.check", exec[1]),
                ("serve.exec.lint", exec[2]),
                (
                    "serve.wait",
                    t.get("serve.latency_s") - exec.iter().sum::<f64>(),
                ),
            ]
        }
        Workload::Check | Workload::CheckSpill => {
            let succ = t.get("mc.succ_phase_s");
            let merge = t.get("mc.merge_phase_s");
            let write = t.get("persist.write_s");
            vec![
                ("mc.succ_phase", succ),
                ("mc.merge_phase", merge),
                ("persist.write", write),
                (
                    "mc.explore_other",
                    t.get("mc.explore_s") - succ - merge - write,
                ),
            ]
        }
    };
    let attributed: f64 = rows.iter().map(|(_, secs)| secs).sum();
    rows.push(("unattributed", t.wall_s - attributed));
    rows
}

/// Every per-layer metric, in the order `BENCHMARK.json` declares them.
pub fn per_layer(workload: Workload, t: &Traced) -> Vec<Metric> {
    let count = |key: &str| Metric::new(key, "count", t.get(key));
    let share = |name: &str, secs: f64| Metric::new(name, "%", t.share(secs));
    let setup_share =
        |name: &str, key: &str| Metric::new(name, "%", ratio(100.0 * t.get(key), t.setup_s));
    let unattributed = attribution(workload, t).last().map_or(0.0, |row| row.1);
    let normalize = t.get("rewrite.normalize_s");
    let match_fire = t.get("rewrite.match_fire_s");
    let property_s: Vec<f64> = PROPERTIES
        .iter()
        .map(|p| t.get(&format!("core.property_s.{p}")))
        .collect();
    let memo_hits = t.get("rewrite.memo_hits");
    let memo_lookups = memo_hits + t.get("rewrite.memo_misses");
    let (succ, merge) = (t.get("mc.succ_phase_s"), t.get("mc.merge_phase_s"));
    let exec = ["prove", "check", "lint"].map(|k| t.get(&format!("serve.exec_s.{k}")));

    let mut m = vec![
        Metric::new("trace.wall_s", "s", t.wall_s),
        Metric::new(
            "trace_overhead",
            "ratio",
            ratio(t.wall_s, t.untraced_wall_s),
        ),
        share("attr.unattributed_share", unattributed),
        setup_share("spec.build_share", "spec.build_s"),
        setup_share("rewrite.index_build_share", "rewrite.index_build_s"),
        count("kernel.terms"),
        share("spec.clone_share", t.get("spec.clone_est_s")),
    ];
    for key in ["obligations", "passages", "splits", "vacuous", "open"] {
        m.push(count(&format!("core.{key}")));
    }
    m.push(share(
        "core.self_share",
        t.get("core.obligation_s") - normalize,
    ));
    m.push(Metric::new(
        "core.rand_ur_ratio",
        "ratio",
        ratio(t.get("core.property_s.lem-rand-ur"), median(&property_s)),
    ));
    for (plan, secs) in PROPERTIES.iter().zip(&property_s) {
        m.push(share(&format!("core.property_share.{plan}"), *secs));
    }
    for key in ["rewrites", "memo_hits", "memo_misses"] {
        m.push(count(&format!("rewrite.{key}")));
    }
    m.push(Metric::new(
        "rewrite.memo_hit_rate",
        "ratio",
        ratio(memo_hits, memo_lookups),
    ));
    for key in [
        "memo_evictions",
        "bool_normalizations",
        "eq_decisions",
        "blocked_conditions",
        "index_lookups",
        "index_candidates",
        "index_pruned",
        "shared_hits",
        "shared_misses",
        "shared_published",
    ] {
        m.push(count(&format!("rewrite.{key}")));
    }
    m.extend([
        share("rewrite.normalize_share", normalize),
        share("rewrite.match_fire_share", match_fire),
        share("rewrite.normalize_other_share", normalize - match_fire),
        count("rewrite.normalize_calls"),
        share("tls.successor_share", t.get("tls.successor_s")),
        share("tls.codec_share", t.get("tls.codec_s")),
        share("tls.monitor_share", t.get("tls.monitor_s")),
        count("tls.successor_calls"),
        count("tls.successors_out"),
        count("tls.codec_calls"),
        count("tls.monitor_calls"),
        count("mc.states"),
        count("mc.dedup_hits"),
        Metric::new(
            "mc.dedup_rate",
            "ratio",
            ratio(t.get("mc.dedup_hits"), t.get("mc.generated")),
        ),
        share("mc.succ_phase_share", succ),
        share("mc.merge_phase_share", merge),
        share(
            "mc.explore_other_share",
            t.get("mc.explore_s") - succ - merge - t.get("persist.write_s"),
        ),
        count("mc.spill_shards"),
        Metric::new("mc.spill_bytes", "bytes", t.get("mc.spill_bytes")),
        count("mc.spill_reloads"),
        share("persist.write_share", t.get("persist.write_s")),
        share("persist.load_share", t.get("persist.load_s")),
        Metric::new("persist.bytes", "bytes", t.get("persist.bytes")),
        share("serve.exec_share.prove", exec[0]),
        share("serve.exec_share.check", exec[1]),
        share("serve.exec_share.lint", exec[2]),
        share(
            "serve.wait_share",
            t.get("serve.latency_s") - exec.iter().sum::<f64>(),
        ),
        count("serve.model_builds"),
        count("serve.model_reuses"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_rows_sum_to_the_traced_wall_time() {
        let raw: BTreeMap<String, f64> = [
            ("rewrite.normalize_s", 5.0),
            ("rewrite.match_fire_s", 1.0),
            ("core.obligation_s", 7.0),
            ("spec.clone_est_s", 0.5),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let t = Traced {
            raw,
            wall_s: 8.0,
            setup_s: 0.1,
            untraced_wall_s: 6.4,
        };
        for workload in Workload::ALL {
            let rows = attribution(workload, &t);
            let total: f64 = rows.iter().map(|(_, s)| s).sum();
            assert!((total - t.wall_s).abs() < 1e-9, "{workload:?}");
        }
        let rows = attribution(Workload::Prove, &t);
        assert_eq!(rows.last(), Some(&("unattributed", 0.5)));
        let metrics = per_layer(Workload::Prove, &t);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(get("trace_overhead"), Some(1.25));
        assert_eq!(get("core.self_share"), Some(25.0));
    }
}
