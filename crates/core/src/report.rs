//! Proof reports: what the prover did, per invariant and per transition.
//!
//! The paper reports that verifying its 18 invariants took about one week
//! of human effort (§1, §7). The machine-checked analogue is a
//! [`ProofReport`] per invariant: passages written, case splits chosen,
//! rewrite steps performed, wall-clock time — the data behind experiment
//! E9 in EXPERIMENTS.md.

use equitls_rewrite::budget::WorkerFault;
use equitls_rewrite::engine::RewriteStats;
use std::fmt;
use std::time::Duration;

/// One decision on the path to a proof passage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Assumed a blocked effective condition true (all conjuncts).
    CondTrue {
        /// Rendered condition.
        cond: String,
    },
    /// Assumed a blocked effective condition false.
    CondFalse {
        /// Rendered condition.
        cond: String,
    },
    /// Assumed a single atom's truth value.
    Atom {
        /// Rendered atom.
        atom: String,
        /// The assumed value.
        value: bool,
    },
}

impl Decision {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        match self {
            Decision::CondTrue { cond } => format!("assume ({cond}) = true"),
            Decision::CondFalse { cond } => format!("assume ({cond}) = false"),
            Decision::Atom { atom, value } => format!("assume ({atom}) = {value}"),
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// A case the prover could not discharge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenCase {
    /// The decisions leading to the case.
    pub decisions: Vec<String>,
    /// The rendered residual goal.
    pub residual: String,
}

/// Outcome of one proof obligation (base case or one transition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// All passages reduced to `true`.
    Proved,
    /// Some cases stayed open.
    Open(Vec<OpenCase>),
    /// The obligation's worker panicked; the panic was contained by
    /// `catch_unwind` and recorded here instead of poisoning siblings.
    Fault(WorkerFault),
}

impl CaseOutcome {
    /// `true` when fully discharged.
    pub fn is_proved(&self) -> bool {
        matches!(self, CaseOutcome::Proved)
    }

    /// The contained worker fault, when the obligation panicked.
    pub fn fault(&self) -> Option<&WorkerFault> {
        match self {
            CaseOutcome::Fault(f) => Some(f),
            _ => None,
        }
    }
}

/// Aggregate search statistics for one proof obligation.
///
/// This is the public, serializable successor of the prover's old private
/// `SearchStats`. Every proof passage (a leaf of the case tree) lands in
/// exactly one verdict bucket, so
/// `passages == proved + vacuous + open` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverMetrics {
    /// Number of proof passages (leaves of the case tree).
    pub passages: usize,
    /// Number of case splits (internal nodes).
    pub splits: usize,
    /// Cumulative rewrite-rule applications.
    pub rewrites: u64,
    /// Deepest split chain.
    pub max_depth: usize,
    /// Passages that reduced to `true`.
    pub proved: usize,
    /// Passages whose effective condition was infeasible.
    pub vacuous: usize,
    /// Passages left open (residual goal, budget, or fuel).
    pub open: usize,
}

impl ProverMetrics {
    /// Component-wise sum (durations and depths take the max where that is
    /// the meaningful aggregate).
    pub fn merged(&self, other: &ProverMetrics) -> ProverMetrics {
        ProverMetrics {
            passages: self.passages + other.passages,
            splits: self.splits + other.splits,
            rewrites: self.rewrites + other.rewrites,
            max_depth: self.max_depth.max(other.max_depth),
            proved: self.proved + other.proved,
            vacuous: self.vacuous + other.vacuous,
            open: self.open + other.open,
        }
    }
}

/// Statistics for one obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// Action name (or `"init"` / `"case-analysis"`).
    pub action: String,
    /// Whether the obligation was discharged.
    pub outcome: CaseOutcome,
    /// Search statistics (passages, splits, verdict buckets).
    pub metrics: ProverMetrics,
    /// The normalizer's counters at the end of the obligation (rewrites,
    /// cache hits/misses, Boolean-ring normalizations, …).
    pub rewrite_stats: RewriteStats,
    /// Wall-clock time for the obligation.
    pub duration: Duration,
    /// Decision trails of discharged passages, when
    /// `ProverConfig::record_scores` is on (empty otherwise). Each trail
    /// renders as one CafeOBJ-style proof passage via
    /// [`crate::score::render_passage`].
    pub scores: Vec<Vec<Decision>>,
}

/// A full per-invariant report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofReport {
    /// Invariant name.
    pub invariant: String,
    /// The base case (`init`) or the single case-analysis obligation.
    pub base: StepReport,
    /// One entry per transition for inductive proofs; empty for
    /// case-analysis proofs.
    pub steps: Vec<StepReport>,
    /// Total wall-clock time.
    pub duration: Duration,
}

impl ProofReport {
    /// Assemble a report.
    pub fn new(
        invariant: &str,
        base: StepReport,
        steps: Vec<StepReport>,
        duration: Duration,
    ) -> Self {
        ProofReport {
            invariant: invariant.to_string(),
            base,
            steps,
            duration,
        }
    }

    /// `true` when every obligation is discharged.
    pub fn is_proved(&self) -> bool {
        self.base.outcome.is_proved() && self.steps.iter().all(|s| s.outcome.is_proved())
    }

    /// The open cases, tagged by obligation name.
    pub fn open_cases(&self) -> Vec<(String, OpenCase)> {
        let mut out = Vec::new();
        let mut collect = |step: &StepReport| {
            if let CaseOutcome::Open(cases) = &step.outcome {
                for c in cases {
                    out.push((step.action.clone(), c.clone()));
                }
            }
        };
        collect(&self.base);
        for s in &self.steps {
            collect(s);
        }
        out
    }

    /// The contained worker faults, tagged by obligation name.
    pub fn faults(&self) -> Vec<(String, WorkerFault)> {
        let mut out = Vec::new();
        let mut collect = |step: &StepReport| {
            if let CaseOutcome::Fault(f) = &step.outcome {
                out.push((step.action.clone(), f.clone()));
            }
        };
        collect(&self.base);
        for s in &self.steps {
            collect(s);
        }
        out
    }

    /// Metrics summed over the base case and every transition.
    pub fn total_metrics(&self) -> ProverMetrics {
        self.steps
            .iter()
            .fold(self.base.metrics, |acc, s| acc.merged(&s.metrics))
    }

    /// Rewrite-engine counters summed over all obligations.
    pub fn total_rewrite_stats(&self) -> RewriteStats {
        self.steps.iter().fold(self.base.rewrite_stats, |acc, s| {
            acc.merged(s.rewrite_stats)
        })
    }

    /// Total proof passages across all obligations.
    pub fn total_passages(&self) -> usize {
        self.total_metrics().passages
    }

    /// Total case splits across all obligations.
    pub fn total_splits(&self) -> usize {
        self.total_metrics().splits
    }

    /// Total rewrite applications across all obligations.
    pub fn total_rewrites(&self) -> u64 {
        self.total_metrics().rewrites
    }

    /// A one-line summary, suitable for tables.
    pub fn summary_row(&self) -> String {
        let verdict = if self.is_proved() {
            "PROVED"
        } else if !self.faults().is_empty() {
            "FAULT"
        } else {
            "OPEN"
        };
        format!(
            "{:<16} {:>7} {:>7} {:>10} {:>9.2?}  {}",
            self.invariant,
            self.total_passages(),
            self.total_splits(),
            self.total_rewrites(),
            self.duration,
            verdict
        )
    }
}

impl fmt::Display for ProofReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant {}: {}",
            self.invariant,
            if self.is_proved() { "PROVED" } else { "OPEN" }
        )?;
        writeln!(
            f,
            "  {:<14} {:>8} {:>7} {:>10} {:>10}",
            "obligation", "passages", "splits", "rewrites", "time"
        )?;
        let write_step = |f: &mut fmt::Formatter<'_>, step: &StepReport| -> fmt::Result {
            writeln!(
                f,
                "  {:<14} {:>8} {:>7} {:>10} {:>10.2?} {}",
                step.action,
                step.metrics.passages,
                step.metrics.splits,
                step.metrics.rewrites,
                step.duration,
                match &step.outcome {
                    CaseOutcome::Proved => "",
                    CaseOutcome::Open(_) => "OPEN",
                    CaseOutcome::Fault(_) => "FAULT",
                }
            )
        };
        write_step(f, &self.base)?;
        for s in &self.steps {
            write_step(f, s)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(name: &str, proved: bool) -> StepReport {
        StepReport {
            action: name.to_string(),
            outcome: if proved {
                CaseOutcome::Proved
            } else {
                CaseOutcome::Open(vec![OpenCase {
                    decisions: vec!["assume (x = y) = true".into()],
                    residual: "x \\in s".into(),
                }])
            },
            metrics: ProverMetrics {
                passages: 3,
                splits: 1,
                rewrites: 10,
                max_depth: 1,
                proved: if proved { 3 } else { 2 },
                vacuous: 0,
                open: if proved { 0 } else { 1 },
            },
            rewrite_stats: RewriteStats::default(),
            duration: Duration::from_millis(5),
            scores: Vec::new(),
        }
    }

    #[test]
    fn proved_report_aggregates_counts() {
        let r = ProofReport::new(
            "inv1",
            step("init", true),
            vec![step("a", true), step("b", true)],
            Duration::from_millis(20),
        );
        assert!(r.is_proved());
        assert_eq!(r.total_passages(), 9);
        assert_eq!(r.total_splits(), 3);
        assert_eq!(r.total_rewrites(), 30);
        assert!(r.open_cases().is_empty());
        assert!(r.summary_row().contains("PROVED"));
    }

    #[test]
    fn open_cases_are_tagged_with_their_obligation() {
        let r = ProofReport::new(
            "inv2",
            step("init", true),
            vec![step("fakeSfin2", false)],
            Duration::from_millis(20),
        );
        assert!(!r.is_proved());
        let open = r.open_cases();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].0, "fakeSfin2");
        assert!(r.summary_row().contains("OPEN"));
    }

    #[test]
    fn decisions_render_readably() {
        let d = Decision::Atom {
            atom: "b = intruder".into(),
            value: false,
        };
        assert_eq!(d.render(), "assume (b = intruder) = false");
        let c = Decision::CondTrue {
            cond: "c-cert(s,b)".into(),
        };
        assert!(c.to_string().contains("true"));
    }

    #[test]
    fn display_renders_a_table() {
        let r = ProofReport::new(
            "inv1",
            step("init", true),
            vec![step("chello", true)],
            Duration::from_millis(20),
        );
        let text = r.to_string();
        assert!(text.contains("invariant inv1: PROVED"));
        assert!(text.contains("chello"));
    }

    #[test]
    fn metrics_buckets_partition_passages() {
        let m = step("init", false).metrics;
        assert_eq!(m.passages, m.proved + m.vacuous + m.open);
        let merged = m.merged(&step("a", true).metrics);
        assert_eq!(
            merged.passages,
            merged.proved + merged.vacuous + merged.open
        );
    }

    #[test]
    fn fault_outcomes_are_collected_and_rendered() {
        let mut faulty = step("fakeSfin2", true);
        faulty.outcome = CaseOutcome::Fault(WorkerFault {
            site: "obligation:fakeSfin2".into(),
            message: "injected fault: panic at obligation call 0".into(),
        });
        faulty.metrics = ProverMetrics::default();
        let r = ProofReport::new(
            "inv2",
            step("init", true),
            vec![faulty],
            Duration::from_millis(20),
        );
        assert!(!r.is_proved());
        let faults = r.faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].0, "fakeSfin2");
        assert!(faults[0].1.message.contains("injected fault"));
        assert!(r.summary_row().contains("FAULT"));
        assert!(r.to_string().contains("FAULT"));
    }
}
