//! Differential test of the critical-pair enumerator.
//!
//! `critical_pairs` renames every rule apart once and unifies only where
//! the outer subterm's head is the inner rule's head. The reference here
//! is the plain Knuth–Bendix nested loop: rename the inner rule apart for
//! every (outer, inner) pair and try `unify` at every function position.
//! Both must produce the same pairs in the same (outer, inner, position)
//! order, with the same peak, sides and conditions, on the shipped rule
//! sets, every lint fixture and seeded random systems with overlapping
//! and conditional left-hand sides.

use equitls_kernel::signature::Signature;
use equitls_kernel::subst::Subst;
use equitls_kernel::term::{TermId, TermStore};
use equitls_kernel::unify::{apply_to_fixpoint, function_positions, replace_at, unify};
use equitls_lint::confluence::critical_pairs;
use equitls_obs::rng::SplitMix64;
use equitls_rewrite::bool_alg::BoolAlg;
use equitls_rewrite::bool_rules::hd_bool_rules;
use equitls_rewrite::rule::{Rule, RuleSet};
use equitls_spec::spec::Spec;
use equitls_tls::mutants::LintFixture;
use equitls_tls::TlsModel;

/// One rendered pair: outer, inner, position, peak, left, right, and the
/// two instantiated conditions (`-` when absent).
type Rendered = (String, String, Vec<usize>, [String; 5]);

fn show(store: &TermStore, t: Option<TermId>) -> String {
    t.map_or_else(|| "-".to_string(), |t| store.display(t).to_string())
}

fn rename_apart(store: &mut TermStore, rule: &Rule) -> (TermId, TermId, Option<TermId>) {
    let mut subst = Subst::new();
    for v in store.vars_of(rule.lhs) {
        let decl = store.var_decl(v);
        let (name, sort) = (format!("{}#cp", decl.name), decl.sort);
        let fresh = store.declare_var(&name, sort).expect("fresh variable");
        let fresh_term = store.var(fresh);
        subst.bind(v, fresh_term);
    }
    let lhs = subst.apply(store, rule.lhs);
    let rhs = subst.apply(store, rule.rhs);
    let cond = rule.cond.map(|c| subst.apply(store, c));
    (lhs, rhs, cond)
}

/// The textbook enumeration: rename inside the pair loop, unify at every
/// function position.
fn naive(store: &mut TermStore, rules: &RuleSet) -> Vec<Rendered> {
    let mut out = Vec::new();
    for (i, outer) in rules.iter().enumerate() {
        let positions = function_positions(store, outer.lhs);
        for (j, inner) in rules.iter().enumerate() {
            let (inner_lhs, inner_rhs, inner_cond) = rename_apart(store, inner);
            for (position, subterm) in &positions {
                if position.is_empty() && i == j {
                    continue;
                }
                let Some(sigma) = unify(store, *subterm, inner_lhs).into_subst() else {
                    continue;
                };
                let patched = replace_at(store, outer.lhs, position, inner_rhs);
                let left = apply_to_fixpoint(store, &sigma, patched);
                let right = apply_to_fixpoint(store, &sigma, outer.rhs);
                if left == right {
                    continue;
                }
                let peak = apply_to_fixpoint(store, &sigma, outer.lhs);
                let c1 = outer.cond.map(|c| apply_to_fixpoint(store, &sigma, c));
                let c2 = inner_cond.map(|c| apply_to_fixpoint(store, &sigma, c));
                out.push((
                    outer.label.clone(),
                    inner.label.clone(),
                    position.clone(),
                    [
                        show(store, Some(peak)),
                        show(store, Some(left)),
                        show(store, Some(right)),
                        show(store, c1),
                        show(store, c2),
                    ],
                ));
            }
        }
    }
    out
}

fn enumerated(store: &mut TermStore, rules: &RuleSet) -> Vec<Rendered> {
    critical_pairs(store, rules)
        .into_iter()
        .map(|cp| {
            let shown = [
                show(store, Some(cp.peak)),
                show(store, Some(cp.left)),
                show(store, Some(cp.right)),
                show(store, cp.conditions.0),
                show(store, cp.conditions.1),
            ];
            (cp.outer, cp.inner, cp.position, shown)
        })
        .collect()
}

/// Run both enumerators, each on its own clone of `store`, and return
/// the pairs they agree on.
fn assert_same_pairs(name: &str, store: &TermStore, rules: &RuleSet) -> Vec<Rendered> {
    let expected = naive(&mut store.clone(), rules);
    let actual = enumerated(&mut store.clone(), rules);
    for (k, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "{name}: pair {k} differs");
    }
    assert_eq!(actual.len(), expected.len(), "{name}: pair counts differ");
    actual
}

fn assert_same_pairs_in_spec(name: &str, spec: &Spec) -> Vec<Rendered> {
    assert_same_pairs(name, spec.store(), spec.rules())
}

/// The constructor-equality procedure `tls-lint` checks as its `eq` target.
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

#[test]
fn shipped_rule_sets_enumerate_the_reference_pairs() {
    let mut sig = Signature::new();
    let alg = BoolAlg::install(&mut sig).unwrap();
    let mut store = TermStore::new(sig);
    let rules = hd_bool_rules(&mut store, &alg).unwrap();
    assert_eq!(assert_same_pairs("BOOL", &store, &rules).len(), 4);

    let mut spec = Spec::new().unwrap();
    spec.load_module(EQ_PROCEDURE).unwrap();
    assert_eq!(assert_same_pairs_in_spec("EQPROC", &spec).len(), 2);

    for fixture in LintFixture::all() {
        let spec = fixture.load().expect("fixture loads");
        assert_same_pairs_in_spec(fixture.name(), &spec);
    }
}

#[test]
fn both_tls_models_enumerate_the_reference_pairs() {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(|| {
            for model in [TlsModel::standard(), TlsModel::variant()] {
                let model = model.expect("model builds");
                assert_eq!(assert_same_pairs_in_spec("TLS", &model.spec).len(), 48);
            }
        })
        .expect("spawn")
        .join()
        .expect("join");
}

const RANDOM_SYSTEMS: u64 = 256;

/// A random term of sort `S` over `vars` and the constants `a`, `b`.
fn random_term(rng: &mut SplitMix64, depth: u32, vars: &[&str]) -> String {
    if depth == 0 || rng.next_below(3) == 0 {
        let leaves: Vec<&str> = vars.iter().copied().chain(["a", "b"]).collect();
        return rng.choose(&leaves).to_string();
    }
    match rng.next_below(3) {
        0 => format!("f({})", random_term(rng, depth - 1, vars)),
        1 => format!("h({})", random_term(rng, depth - 1, vars)),
        _ => format!(
            "g({}, {})",
            random_term(rng, depth - 1, vars),
            random_term(rng, depth - 1, vars)
        ),
    }
}

/// The variables among `X`, `Y`, `Z` that occur in `term`.
fn vars_in(term: &str) -> Vec<&'static str> {
    ["X", "Y", "Z"]
        .into_iter()
        .filter(|v| term.contains(v))
        .collect()
}

/// One random equation: a left-hand side headed by `f`, `g`, `h` or the
/// predicate `p`, possibly non-linear, with a right-hand side and (one
/// time in three) a condition over its variables.
fn random_equation(rng: &mut SplitMix64, label: usize) -> String {
    let (lhs, bool_sorted) = match rng.next_below(4) {
        0 => (format!("p({})", random_term(rng, 2, &["X", "Y"])), true),
        _ => loop {
            let t = random_term(rng, 3, &["X", "Y", "Z"]);
            if t.contains('(') {
                break (t, false);
            }
        },
    };
    let vars = vars_in(&lhs);
    let rhs = if bool_sorted {
        match rng.next_below(3) {
            0 => "true".to_string(),
            1 => "false".to_string(),
            _ => format!("p({})", random_term(rng, 1, &vars)),
        }
    } else {
        random_term(rng, 2, &vars)
    };
    if rng.next_below(3) == 0 {
        let guard = format!("p({})", random_term(rng, 1, &vars));
        let cond = if rng.next_bool() {
            guard
        } else {
            format!("not {guard}")
        };
        format!("  ceq [r{label}] : {lhs} = {rhs} if {cond} .\n")
    } else {
        format!("  eq [r{label}] : {lhs} = {rhs} .\n")
    }
}

#[test]
fn seeded_random_systems_enumerate_the_reference_pairs() {
    let mut rng = SplitMix64::new(0x00C4_1CA1_9A1E_5EED);
    let mut total_pairs = 0;
    let mut conditional_pairs = 0;
    for case in 0..RANDOM_SYSTEMS {
        let mut source = String::from(
            "mod! RAND {\n  pr(BOOL)\n  [ S ]\n  op a : -> S {constr} .\n  \
             op b : -> S {constr} .\n  op f : S -> S .\n  op g : S S -> S .\n  \
             op h : S -> S .\n  op p : S -> Bool .\n  vars X Y Z : S .\n",
        );
        let rules = 3 + rng.next_below(6) as usize;
        for label in 0..rules {
            source.push_str(&random_equation(&mut rng, label));
        }
        source.push_str("}\n");
        let mut spec = Spec::new().unwrap();
        spec.load_module(&source)
            .unwrap_or_else(|e| panic!("case {case} fails to load: {e}\n{source}"));
        assert!(
            spec.quarantined().is_empty(),
            "case {case} quarantined an equation:\n{source}"
        );
        let name = format!("random system {case}:\n{source}");
        let pairs = assert_same_pairs_in_spec(&name, &spec);
        total_pairs += pairs.len();
        conditional_pairs += pairs
            .iter()
            .filter(|(_, _, _, [.., c1, c2])| c1 != "-" || c2 != "-")
            .count();
    }
    eprintln!(
        "critical pairs: {RANDOM_SYSTEMS} random systems, {total_pairs} pairs, \
         {conditional_pairs} conditional"
    );
    // The generator must actually produce overlaps, conditional ones too.
    assert!(total_pairs > 2 * RANDOM_SYSTEMS as usize, "{total_pairs}");
    assert!(conditional_pairs > 0, "{conditional_pairs}");
}
