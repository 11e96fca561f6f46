//! Diagnostics: lint codes, severities, findings, and the report.
//!
//! Every pass emits [`Diagnostic`]s into a [`LintReport`]. A diagnostic
//! carries a stable [`LintCode`] (the identifier documented in the README
//! and used for configuration overrides) and a [`Severity`]; the report
//! renders as text or as JSON through the `equitls-obs` writer and decides
//! the process exit status (`deny` findings fail the build).

use equitls_obs::json::JsonValue;
use equitls_spec::ast::SourceSpan;
use std::collections::HashMap;
use std::fmt;

/// How serious a finding is.
///
/// Ordered: `Allow < Warn < Deny`, so `max` aggregates severities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never affects the exit status.
    Allow,
    /// Suspicious but not known-broken; reported, exit status unaffected.
    Warn,
    /// The rule set is broken (or cannot be shown sound); fails the gate.
    Deny,
}

impl Severity {
    /// Stable lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable identifiers for every lint the analyzer can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// A rule's left-hand side matches a subterm of its own right-hand
    /// side: the rule re-fires inside its own result and the normalizer
    /// diverges.
    TerminationLoop,
    /// No lexicographic path order was found orienting the rule; the
    /// system may still terminate (LPO is incomplete), but nothing here
    /// proves it.
    TerminationOrder,
    /// A critical pair whose two sides normalize to different terms: the
    /// system is not locally confluent and normal forms depend on rule
    /// order.
    UnjoinableCriticalPair,
    /// A defined operator's rules do not cover every constructor
    /// instantiation of its argument sorts.
    MissingCase,
    /// Two rules with structurally identical sides and condition.
    DuplicateRule,
    /// A rule whose left-hand side is an instance of an earlier
    /// unconditional rule for the same operator: it can never fire.
    SubsumedRule,
    /// A left-hand side using the same variable twice (legal, but the
    /// rule only fires on syntactically identical subterms).
    LeftNonlinear,
    /// A sort no operator mentions.
    UnusedSort,
    /// A non-constructor operator that occurs in no rule.
    UnusedOp,
    /// A condition that normalizes to constant `true` (should be an
    /// unconditional `eq`) or `false` (the rule never fires).
    TrivialCondition,
    /// An equation whose right-hand side or condition uses a variable the
    /// left-hand side does not bind: the rule is not executable. Such
    /// equations are quarantined at load time and reported here.
    UnboundVariable,
    /// An equation whose two sides have different sorts (or whose
    /// condition is not Bool-sorted): incoherent under the subsort-free
    /// signature, quarantined at load time and reported here.
    SortIncoherent,
    /// A rule whose right-hand side is a bare variable (a *collapsing*
    /// rule): legal, but it erases structure and overlaps with every rule,
    /// so it deserves an explicit look.
    CollapsingRule,
    /// A rule on an operator unreachable from the analysis roots
    /// (observers, actions, `{root}`-marked operators): dead code.
    DeadRule,
    /// A rule-defined operator unreachable from the analysis roots.
    UnreachableOp,
    /// A declared module variable that occurs in no installed equation.
    UnusedVariable,
}

impl LintCode {
    /// All codes, for documentation and configuration validation.
    pub const ALL: [LintCode; 16] = [
        LintCode::TerminationLoop,
        LintCode::TerminationOrder,
        LintCode::UnjoinableCriticalPair,
        LintCode::MissingCase,
        LintCode::DuplicateRule,
        LintCode::SubsumedRule,
        LintCode::LeftNonlinear,
        LintCode::UnusedSort,
        LintCode::UnusedOp,
        LintCode::TrivialCondition,
        LintCode::UnboundVariable,
        LintCode::SortIncoherent,
        LintCode::CollapsingRule,
        LintCode::DeadRule,
        LintCode::UnreachableOp,
        LintCode::UnusedVariable,
    ];

    /// The stable kebab-case name (documented in the README).
    pub fn name(self) -> &'static str {
        match self {
            LintCode::TerminationLoop => "termination-loop",
            LintCode::TerminationOrder => "termination-order",
            LintCode::UnjoinableCriticalPair => "unjoinable-critical-pair",
            LintCode::MissingCase => "missing-case",
            LintCode::DuplicateRule => "duplicate-rule",
            LintCode::SubsumedRule => "subsumed-rule",
            LintCode::LeftNonlinear => "left-nonlinear",
            LintCode::UnusedSort => "unused-sort",
            LintCode::UnusedOp => "unused-op",
            LintCode::TrivialCondition => "trivial-condition",
            LintCode::UnboundVariable => "unbound-variable",
            LintCode::SortIncoherent => "sort-incoherent",
            LintCode::CollapsingRule => "collapsing-rule",
            LintCode::DeadRule => "dead-rule",
            LintCode::UnreachableOp => "unreachable-op",
            LintCode::UnusedVariable => "unused-variable",
        }
    }

    /// The built-in severity before configuration overrides.
    ///
    /// `termination-order` is only a warning because LPO is an incomplete
    /// criterion; `unjoinable-critical-pair` downgrades to a warning for
    /// conditional pairs at the emitting site (the conditions may be
    /// unsatisfiable in ways the boolring cannot see).
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::TerminationLoop => Severity::Deny,
            LintCode::TerminationOrder => Severity::Warn,
            LintCode::UnjoinableCriticalPair => Severity::Deny,
            LintCode::MissingCase => Severity::Warn,
            LintCode::DuplicateRule => Severity::Warn,
            LintCode::SubsumedRule => Severity::Warn,
            LintCode::LeftNonlinear => Severity::Allow,
            LintCode::UnusedSort => Severity::Allow,
            LintCode::UnusedOp => Severity::Allow,
            LintCode::TrivialCondition => Severity::Warn,
            // Quarantined equations are non-executable: always broken.
            LintCode::UnboundVariable => Severity::Deny,
            LintCode::SortIncoherent => Severity::Deny,
            // Collapsing rules are legal (ineffective-transition equations
            // in the TLS model are all `s' = s`); they are surfaced as
            // information, escalatable per run.
            LintCode::CollapsingRule => Severity::Allow,
            LintCode::DeadRule => Severity::Warn,
            LintCode::UnreachableOp => Severity::Allow,
            LintCode::UnusedVariable => Severity::Allow,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-run configuration: severity overrides with justification.
///
/// Overrides mirror `#[allow(...)]` in rustc: a finding is still computed
/// and reported, but its severity (and therefore the exit status) changes,
/// and the justification is attached so the report explains *why* the
/// finding is acceptable.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: HashMap<LintCode, (Severity, String)>,
}

impl LintConfig {
    /// The default configuration: built-in severities, no overrides.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Override `code` to `severity`, recording why.
    pub fn set_severity(
        &mut self,
        code: LintCode,
        severity: Severity,
        justification: impl Into<String>,
    ) -> &mut Self {
        self.overrides
            .insert(code, (severity, justification.into()));
        self
    }

    /// Downgrade `code` to [`Severity::Allow`], recording why.
    pub fn allow(&mut self, code: LintCode, justification: impl Into<String>) -> &mut Self {
        self.set_severity(code, Severity::Allow, justification)
    }

    /// The effective severity of `code` (and the override justification,
    /// when one applies).
    pub fn severity(&self, code: LintCode, default: Severity) -> (Severity, Option<&str>) {
        match self.overrides.get(&code) {
            Some((s, why)) => (*s, Some(why.as_str())),
            None => (default, None),
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity after configuration overrides.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Label of the offending rule, when the finding is about one rule.
    pub rule: Option<String>,
    /// Source position of the offending declaration, when it came from
    /// parsed DSL text.
    pub span: Option<SourceSpan>,
    /// Justification recorded by a configuration override, if any.
    pub justification: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(rule) = &self.rule {
            write!(f, " ({rule})")?;
        }
        if let Some(span) = &self.span {
            write!(f, " at {span}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(why) = &self.justification {
            write!(f, " [overridden: {why}]")?;
        }
        Ok(())
    }
}

/// The outcome of linting one rewrite system.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// What was analyzed (e.g. `"BOOL (Hsiang–Dershowitz)"`).
    pub target: String,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Pass-level facts worth surfacing even with zero findings: the
    /// orienting precedence, critical-pair statistics, coverage totals.
    pub notes: Vec<String>,
}

impl LintReport {
    /// An empty report for `target`.
    pub fn new(target: impl Into<String>) -> Self {
        LintReport {
            target: target.into(),
            ..LintReport::default()
        }
    }

    /// Record a finding, applying configuration overrides.
    pub fn push(&mut self, config: &LintConfig, mut diag: Diagnostic) {
        let (severity, justification) = config.severity(diag.code, diag.severity);
        diag.severity = severity;
        diag.justification = justification.map(str::to_string);
        self.diagnostics.push(diag);
    }

    /// Record a pass-level note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` when any finding is deny-level (the gate should fail).
    pub fn has_deny(&self) -> bool {
        self.count(Severity::Deny) > 0
    }

    /// Findings of one code, for tests and triage.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// The report as a JSON object (rendered by `equitls-obs`).
    pub fn to_json(&self) -> JsonValue {
        let findings = self
            .diagnostics
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("code".to_string(), JsonValue::String(d.code.name().into())),
                    (
                        "severity".to_string(),
                        JsonValue::String(d.severity.name().into()),
                    ),
                    ("message".to_string(), JsonValue::String(d.message.clone())),
                ];
                if let Some(rule) = &d.rule {
                    fields.push(("rule".to_string(), JsonValue::String(rule.clone())));
                }
                if let Some(span) = &d.span {
                    fields.push((
                        "span".to_string(),
                        JsonValue::Object(vec![
                            ("line".to_string(), JsonValue::Number(span.line as f64)),
                            ("column".to_string(), JsonValue::Number(span.column as f64)),
                        ]),
                    ));
                }
                if let Some(why) = &d.justification {
                    fields.push(("justification".to_string(), JsonValue::String(why.clone())));
                }
                JsonValue::Object(fields)
            })
            .collect();
        JsonValue::Object(vec![
            ("target".to_string(), JsonValue::String(self.target.clone())),
            (
                "deny".to_string(),
                JsonValue::Number(self.count(Severity::Deny) as f64),
            ),
            (
                "warn".to_string(),
                JsonValue::Number(self.count(Severity::Warn) as f64),
            ),
            (
                "allow".to_string(),
                JsonValue::Number(self.count(Severity::Allow) as f64),
            ),
            ("findings".to_string(), JsonValue::Array(findings)),
            (
                "notes".to_string(),
                JsonValue::Array(
                    self.notes
                        .iter()
                        .map(|n| JsonValue::String(n.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint {}: {} deny, {} warn, {} info",
            self.target,
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            self.count(Severity::Allow)
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}
