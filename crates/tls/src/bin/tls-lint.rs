//! Static-analysis gate: lint every shipped equation set.
//!
//! ```text
//! cargo run --release -p equitls-tls --bin tls-lint
//! cargo run --release -p equitls-tls --bin tls-lint -- --json
//! cargo run --release -p equitls-tls --bin tls-lint -- bool fixtures
//! cargo run --release -p equitls-tls --bin tls-lint -- --sarif out.sarif --graph deps.dot
//! ```
//!
//! Targets (all by default; name them to filter):
//!
//! * `bool` — the Hsiang–Dershowitz `BOOL` rewrite system;
//! * `eq` — the constructor-equality decision procedure;
//! * `standard` / `variant` — the two symbolic TLS models;
//! * `fixtures` — the deliberately broken systems from
//!   `equitls_tls::mutants::LintFixture`, which must come back *denied*
//!   (the gate fails if the linter misses a seeded flaw).
//!
//! `--json` prints one JSON object with per-target reports; `--sarif
//! PATH` writes every report as one SARIF 2.1.0 log; `--graph PATH`
//! writes the first spec target's operator dependency graph as Graphviz
//! DOT (for the TLS models the roots are the observers, the transitions,
//! and every operator an invariant mentions).
//! Exit status 0 means every shipped set is deny-free **and** every
//! fixture is denied for its seeded reason; the README's "Command line"
//! section lists the others.

use equitls_kernel::prelude::OpId;
use equitls_kernel::signature::Signature;
use equitls_kernel::term::TermStore;
use equitls_lint::{
    analyze_spec, analyze_system, deps, sarif, AnalysisOptions, LintCode, LintConfig, LintReport,
    Severity,
};
use equitls_obs::json::JsonValue;
use equitls_rewrite::bool_alg::BoolAlg;
use equitls_rewrite::bool_rules::hd_bool_rules;
use equitls_spec::spec::Spec;
use equitls_tls::cli::{self, Flags, UsageError};
use equitls_tls::mutants::LintFixture;
use equitls_tls::{out, outln, TlsModel};
use std::path::PathBuf;

fn main() {
    // Critical-pair joinability normalizes deep open terms; use the same
    // big-stack thread as the prover.
    cli::run_on_big_stack(run);
}

/// The constructor-equality decision procedure as a rewrite system: the
/// shape every `_=_` in the TLS data modules follows (reflexivity by a
/// non-linear rule, clashes between distinct constructors, injectivity
/// of compound constructors).
const EQ_PROCEDURE: &str = r#"
mod! EQPROC {
  [ Data ]
  op na : -> Data {constr} .
  op nb : -> Data {constr} .
  op pair : Data Data -> Data {constr} .
  vars X Y Z W : Data .
  eq [eq-refl] : (X = X) = true .
  eq [eq-na-nb] : (na = nb) = false .
  eq [eq-nb-na] : (nb = na) = false .
  eq [eq-pair] : (pair(X, Y) = pair(Z, W)) = (X = Z) and (Y = W) .
  eq [eq-na-pair] : (na = pair(X, Y)) = false .
  eq [eq-pair-na] : (pair(X, Y) = na) = false .
  eq [eq-nb-pair] : (nb = pair(X, Y)) = false .
  eq [eq-pair-nb] : (pair(X, Y) = nb) = false .
}
"#;

/// What a target's report must look like for the gate to pass.
enum Expectation {
    /// No deny-level findings.
    Clean,
    /// At least one deny-level finding with this code (fixture self-test).
    DeniedWith(LintCode),
}

struct TargetOutcome {
    report: LintReport,
    expectation: Expectation,
    /// DOT rendering of the dependency graph, for `--graph`.
    dot: Option<String>,
}

impl TargetOutcome {
    fn passed(&self) -> bool {
        match self.expectation {
            Expectation::Clean => !self.report.has_deny(),
            Expectation::DeniedWith(code) => self
                .report
                .with_code(code)
                .iter()
                .any(|d| d.severity == Severity::Deny),
        }
    }

    fn from_analysis(report: LintReport, expectation: Expectation) -> Self {
        TargetOutcome {
            report,
            expectation,
            dot: None,
        }
    }
}

fn spec_dot(spec: &Spec, roots: &[OpId], name: &str) -> String {
    let graph = deps::build_graph(spec.store(), spec.rules(), roots);
    deps::to_dot(spec.store(), &graph, name)
}

fn lint_bool() -> TargetOutcome {
    let mut sig = Signature::new();
    let alg = BoolAlg::install(&mut sig).expect("fresh signature");
    let mut store = TermStore::new(sig);
    let rules = hd_bool_rules(&mut store, &alg).expect("HD BOOL builds");
    let report = analyze_system(
        &store,
        &alg,
        &rules,
        "BOOL (Hsiang-Dershowitz)",
        &LintConfig::new(),
        &AnalysisOptions::default(),
    );
    TargetOutcome::from_analysis(report, Expectation::Clean)
}

fn lint_eq_procedure() -> TargetOutcome {
    let mut spec = Spec::new().expect("fresh spec");
    spec.load_module(EQ_PROCEDURE).expect("EQPROC parses");
    let report = analyze_spec(
        &spec,
        "equality procedure (EQPROC)",
        &LintConfig::new(),
        &AnalysisOptions::default(),
    );
    let mut outcome = TargetOutcome::from_analysis(report, Expectation::Clean);
    outcome.dot = Some(spec_dot(&spec, &[], "EQPROC"));
    outcome
}

fn lint_model(variant: bool) -> TargetOutcome {
    let (model, label) = if variant {
        (TlsModel::variant().expect("variant model"), "TLS (variant)")
    } else {
        (
            TlsModel::standard().expect("standard model"),
            "TLS (standard)",
        )
    };
    let (config, model_options) = model.lint_setup();
    let report = analyze_spec(&model.spec, label, &config, &model_options);
    let mut outcome = TargetOutcome::from_analysis(report, Expectation::Clean);
    outcome.dot = Some(spec_dot(&model.spec, &model_options.roots, label));
    outcome
}

fn lint_fixtures() -> Vec<TargetOutcome> {
    LintFixture::all()
        .into_iter()
        .map(|fixture| {
            let spec = fixture.load().expect("fixture loads");
            let report = analyze_spec(
                &spec,
                fixture.name(),
                &fixture.config(),
                &AnalysisOptions::default(),
            );
            TargetOutcome::from_analysis(report, Expectation::DeniedWith(fixture.expected_code()))
        })
        .collect()
}

const TARGET_NAMES: [&str; 5] = ["bool", "eq", "standard", "variant", "fixtures"];

const USAGE: &str = "usage: tls-lint [--json] [--sarif PATH] [--graph PATH] [TARGET...]";

struct Options {
    json: bool,
    sarif: Option<PathBuf>,
    graph: Option<PathBuf>,
    selected: Vec<String>,
}

fn parse_args(flags: &mut Flags) -> Result<Options, UsageError> {
    let mut opts = Options {
        json: false,
        sarif: None,
        graph: None,
        selected: Vec::new(),
    };
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = Some(flags.value(&arg, "a path")?),
            "--graph" => opts.graph = Some(flags.value(&arg, "a path")?),
            other if other.starts_with("--") => return Err(cli::unknown_flag(other)),
            name if TARGET_NAMES.contains(&name) => opts.selected.push(name.to_string()),
            other => {
                return Err(format!(
                    "unknown target `{other}` (expected one of: {})",
                    TARGET_NAMES.join(", ")
                ))
            }
        }
    }
    Ok(opts)
}

fn run() {
    let opts = cli::parse_env(USAGE, parse_args);
    let want = |name: &str| opts.selected.is_empty() || opts.selected.iter().any(|s| s == name);
    let mut outcomes = Vec::new();
    if want("bool") {
        outcomes.push(lint_bool());
    }
    if want("eq") {
        outcomes.push(lint_eq_procedure());
    }
    if want("standard") {
        outcomes.push(lint_model(false));
    }
    if want("variant") {
        outcomes.push(lint_model(true));
    }
    if want("fixtures") {
        outcomes.extend(lint_fixtures());
    }

    if let Some(path) = &opts.sarif {
        let reports: Vec<&LintReport> = outcomes.iter().map(|o| &o.report).collect();
        let log = sarif::to_sarif(&reports).to_string();
        if let Err(err) = std::fs::write(path, log) {
            cli::fail(format!(
                "tls-lint: cannot write SARIF log {}: {err}",
                path.display()
            ));
        }
    }

    if let Some(path) = &opts.graph {
        let Some(dot) = outcomes.iter().find_map(|o| o.dot.as_ref()) else {
            cli::fail("tls-lint: --graph needs a spec target (eq, standard, or variant)");
        };
        if let Err(err) = std::fs::write(path, dot) {
            cli::fail(format!(
                "tls-lint: cannot write graph {}: {err}",
                path.display()
            ));
        }
    }

    let all_passed = outcomes.iter().all(TargetOutcome::passed);
    if opts.json {
        let targets = outcomes
            .iter()
            .map(|o| {
                let mut obj = match o.report.to_json() {
                    JsonValue::Object(fields) => fields,
                    _ => unreachable!("reports render as objects"),
                };
                let expectation = match o.expectation {
                    Expectation::Clean => "clean".to_string(),
                    Expectation::DeniedWith(code) => format!("denied-with:{code}"),
                };
                obj.push(("expectation".to_string(), JsonValue::String(expectation)));
                obj.push(("passed".to_string(), JsonValue::Bool(o.passed())));
                JsonValue::Object(obj)
            })
            .collect();
        let doc = JsonValue::Object(vec![
            ("targets".to_string(), JsonValue::Array(targets)),
            ("passed".to_string(), JsonValue::Bool(all_passed)),
        ]);
        outln!("{doc}");
    } else {
        for o in &outcomes {
            out!("{}", o.report);
            let verdict = if o.passed() { "PASS" } else { "FAIL" };
            let expect = match o.expectation {
                Expectation::Clean => "expected deny-free".to_string(),
                Expectation::DeniedWith(code) => {
                    format!("expected deny-level `{code}`")
                }
            };
            outln!("  -> {verdict} ({expect})");
            outln!();
        }
        let summary = if all_passed { "clean" } else { "FAILED" };
        outln!("tls-lint: {} target(s), gate {summary}", outcomes.len());
    }
    std::process::exit(if all_passed { 0 } else { 1 });
}
