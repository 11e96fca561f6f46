//! Seeded mutation fuzz of load + lint: shipped-style modules with
//! characters deleted, inserted, swapped, spans dropped and DSL tokens
//! inserted must fail to load with a typed `SpecError`, or load and lint
//! through `analyze_spec`, never panic. SplitMix64 fixes the case set.

use equitls_lint::{analyze_spec, AnalysisOptions, LintConfig};
use equitls_obs::rng::SplitMix64;
use equitls_spec::spec::Spec;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: usize = 2_000;

const SOURCES: [&str; 3] = [
    "mod! NATDUP {\n  [ N ]\n  op z : -> N {constr} .\n  op s : N -> N {constr} .\n  \
     op dup : N -> N {root} .\n  var X : N .\n  eq [dup-z] : dup(z) = z .\n  \
     eq [dup-s] : dup(s(X)) = s(s(dup(X))) .\n}\n",
    "mod! EQPROC {\n  [ Data ]\n  op na : -> Data {constr} .\n  op nb : -> Data {constr} .\n  \
     op pair : Data Data -> Data {constr} .\n  vars X Y Z W : Data .\n  \
     eq [eq-refl] : (X = X) = true .\n  eq [eq-na-nb] : (na = nb) = false .\n  \
     eq [eq-pair] : (pair(X, Y) = pair(Z, W)) = (X = Z) and (Y = W) .\n}\n",
    "mod! GUARD {\n  pr(BOOL)\n  [ Prin Msg ]\n  op intruder : -> Prin {constr} .\n  \
     op m : Prin Prin -> Msg {constr} .\n  op src : Msg -> Prin .\n  op ok : Msg -> Bool .\n  \
     vars A B : Prin .\n  var M : Msg .\n  eq [src-m] : src(m(A, B)) = A .\n  \
     ceq [ok-m] : ok(M) = true if not (src(M) = intruder) .\n}\n",
];

const TOKENS: [&str; 22] = [
    " ", ".", ",", "\"", "\u{0}", "é", "op ", "eq ", "ceq ", " if ", "{root}", "{constr}", " . ",
    " : ", " -> ", " = ", "(", ")", "[", "] ", "ñandú", "λ→σ",
];

fn mutate(rng: &mut SplitMix64, source: &str) -> String {
    let mut chars: Vec<char> = source.chars().collect();
    for _ in 0..1 + rng.next_below(3) {
        let len = chars.len();
        let at = rng.next_index(len + 1);
        match rng.next_below(4) {
            0 if at < len => _ = chars.remove(at),
            1 => _ = chars.drain(at..(at + 1 + rng.next_index(12)).min(len)),
            2 if len > 1 => chars.swap(at.min(len - 1), rng.next_index(len)),
            _ => _ = chars.splice(at..at, rng.choose(&TOKENS).chars()),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_modules_load_to_a_typed_error_or_lint_cleanly() {
    for source in SOURCES {
        let loaded = Spec::new().unwrap().load_module(source);
        assert!(loaded.is_ok(), "seed source fails to load: {loaded:?}");
    }
    let mut rng = SplitMix64::new(0x11A7_F022_D5E1_0017);
    let (mut linted, mut rejected) = (0usize, 0usize);
    let mut panics = Vec::new();
    for case in 0..CASES {
        let source = mutate(&mut rng, SOURCES[case % SOURCES.len()]);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut spec = Spec::new().expect("fresh spec");
            spec.load_module(&source).map(|()| {
                let options = AnalysisOptions::default();
                analyze_spec(&spec, "fuzz", &LintConfig::new(), &options)
            })
        }));
        match outcome {
            Ok(Ok(_)) => linted += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panics.push(format!("case {case}:\n{source}")),
        }
    }
    eprintln!("dsl fuzz: {CASES} cases, {linted} linted, {rejected} rejected");
    assert!(panics.is_empty(), "panicked on:\n{}", panics.join("\n"));
    assert!(
        linted > 0 && rejected > 0,
        "{linted} linted, {rejected} rejected"
    );
}
