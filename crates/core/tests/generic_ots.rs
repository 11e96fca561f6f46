//! The OTS framework on a protocol that is not TLS: a two-node token
//! system modeled equationally, with an inductive safety proof and a
//! deliberately false property — exercising the prover's generality.
//!
//! The machine: a token travels between node 1 and node 2 over a lossy
//! channel; a node may only enter its critical section while holding the
//! token. Safety: nodes are never both in the critical section.

use equitls_core::prelude::*;
use equitls_obs::event::Event;
use equitls_obs::sink::{Obs, RecordingSink};
use equitls_rewrite::budget::{Fault, FaultKind, FaultPlan, FaultSite};
use equitls_spec::prelude::*;
use std::sync::Arc;

fn token_machine() -> (Spec, Ots, InvariantSet) {
    let mut spec = Spec::new().unwrap();
    spec.load_module(
        r#"
        mod! TOKEN {
          [ Node ]
          *[ Sys ]*
          op n1 : -> Node {constr} .
          op n2 : -> Node {constr} .
          op init : -> Sys .
          bop holder : Sys -> Node .
          bop crit : Sys Node -> Bool .
          bop pass : Sys -> Sys .
          bop enter : Sys Node -> Sys .
          bop leave : Sys Node -> Sys .
          var S : Sys . vars N N2 : Node .

          eq holder(init) = n1 .
          eq crit(init, N) = false .

          -- pass: the holder hands the token over, unless it is critical
          op c-pass : Sys -> Bool .
          eq c-pass(S) = not crit(S, holder(S)) .
          ceq holder(pass(S)) = n2 if c-pass(S) and holder(S) = n1 .
          ceq holder(pass(S)) = n1 if c-pass(S) and holder(S) = n2 .
          eq crit(pass(S), N) = crit(S, N) .
          ceq pass(S) = S if not c-pass(S) .

          -- enter: only the holder may enter
          op c-enter : Sys Node -> Bool .
          eq c-enter(S, N) = holder(S) = N and not crit(S, N) .
          ceq crit(enter(S, N), N2) = true if c-enter(S, N) and N2 = N .
          ceq crit(enter(S, N), N2) = crit(S, N2)
            if not (c-enter(S, N) and N2 = N) .
          eq holder(enter(S, N)) = holder(S) .

          -- leave: unconditional exit
          ceq crit(leave(S, N), N2) = false if N2 = N .
          ceq crit(leave(S, N), N2) = crit(S, N2) if not (N2 = N) .
          eq holder(leave(S, N)) = holder(S) .
        }
        "#,
    )
    .unwrap();
    let ots = Ots::from_spec(&mut spec, "Sys", "init").unwrap();
    let alg = spec.alg().clone();
    let sys = spec.sort_id("Sys").unwrap();
    let node = spec.sort_id("Node").unwrap();
    let p = spec.store_mut().declare_var("Ptok", sys).unwrap();
    let n = spec.store_mut().declare_var("Ntok", node).unwrap();
    let pv = spec.store_mut().var(p);
    let nv = spec.store_mut().var(n);

    let mut set = InvariantSet::new();
    // Safety: critical implies holding the token.
    let crit = spec.app("crit", &[pv, nv]).unwrap();
    let holder = spec.app("holder", &[pv]).unwrap();
    let holds = spec.eq_term(holder, nv).unwrap();
    let body = alg.implies(spec.store_mut(), crit, holds).unwrap();
    set.push(Invariant::new(&spec, "crit-implies-token", p, vec![n], body).unwrap());

    // Mutual exclusion, a consequence (both critical → both hold → n1=n2).
    let n1 = spec.const_term("n1").unwrap();
    let n2 = spec.const_term("n2").unwrap();
    let c1 = spec.app("crit", &[pv, n1]).unwrap();
    let c2 = spec.app("crit", &[pv, n2]).unwrap();
    let both = alg.and(spec.store_mut(), c1, c2).unwrap();
    let mutex = alg.not(spec.store_mut(), both).unwrap();
    set.push(Invariant::new(&spec, "mutex", p, vec![], mutex).unwrap());

    // A FALSE property: node 2 never enters the critical section.
    let never = alg.not(spec.store_mut(), c2).unwrap();
    set.push(Invariant::new(&spec, "bogus-n2-never-critical", p, vec![], never).unwrap());

    (spec, ots, set)
}

#[test]
fn token_safety_proves_inductively() {
    let (mut spec, ots, invariants) = token_machine();
    let mut prover = Prover::new(&mut spec, &ots, &invariants);
    let report = prover
        .prove("crit-implies-token", ProofMethod::Induction, &[])
        .unwrap();
    assert!(report.is_proved(), "open: {:#?}", report.open_cases());
    assert_eq!(report.steps.len(), 3, "pass/enter/leave");
}

#[test]
fn mutual_exclusion_follows_by_case_analysis() {
    let (mut spec, ots, invariants) = token_machine();
    let mut prover = Prover::new(&mut spec, &ots, &invariants);
    let report = prover
        .prove("mutex", ProofMethod::CaseAnalysis, &["crit-implies-token"])
        .unwrap();
    assert!(report.is_proved(), "open: {:#?}", report.open_cases());
}

#[test]
fn the_false_property_stays_open_at_enter() {
    let (mut spec, ots, invariants) = token_machine();
    let mut prover = Prover::new(&mut spec, &ots, &invariants);
    let report = prover
        .prove("bogus-n2-never-critical", ProofMethod::Induction, &[])
        .unwrap();
    assert!(!report.is_proved());
    let open = report.open_cases();
    assert!(
        open.iter().any(|(action, _)| action == "enter"),
        "the refutation is the enter transition: {open:?}"
    );
}

/// The path to a search leaf: for each split above it, the split's
/// counter name and which of its two branches the leaf lies in.
type Path = Vec<(String, usize)>;

/// Replay `obligation`'s search from its events, in the prover's
/// preorder: a `prover.split:*` counter opens a two-branch split and a
/// `prover.leaf.*` counter closes one branch. Returns the path of every
/// open leaf whose passage reached no `prover.normalize` span, that is,
/// one stopped while its branch's assumption was being made.
fn assumption_stops(events: &[Event], obligation: &str) -> Vec<Path> {
    let span = format!("prover.obligation:{obligation}");
    let mut inside = false;
    let mut path: Path = Vec::new();
    let mut normalized = false;
    let mut stops = Vec::new();
    for event in events {
        match event {
            Event::SpanEnter { name } if *name == span => inside = true,
            Event::SpanExit { name, .. } if *name == span => inside = false,
            _ if !inside => {}
            Event::SpanExit { name, .. } if name == "prover.normalize" => normalized = true,
            Event::Counter { name, .. } if name.starts_with("prover.split:") => {
                path.push((name.clone(), 0));
                normalized = false;
            }
            Event::Counter { name, .. } if name.starts_with("prover.leaf.") => {
                if name == "prover.leaf.open" && !normalized {
                    stops.push(path.clone());
                }
                normalized = false;
                while let Some(split) = path.last_mut() {
                    split.1 += 1;
                    if split.1 < 2 {
                        break;
                    }
                    path.pop();
                }
            }
            _ => {}
        }
    }
    stops
}

#[test]
fn a_budget_stop_while_assuming_a_branch_leaves_that_branch_open() {
    // Plant a deadline expiry at each rewrite call of the `pass`
    // obligation in turn, until one lands inside the assumption of a
    // condition's true branch, of its false branch and of an atom branch.
    let mut wanted = vec![
        ("prover.split:cond", 0),
        ("prover.split:cond", 1),
        ("prover.split:atom", 0),
    ];
    for at in 0..1000 {
        let (mut spec, ots, invariants) = token_machine();
        let recorder = Arc::new(RecordingSink::new());
        let config = ProverConfig {
            fault_plan: Some(FaultPlan::new().with_fault(
                Fault::new(FaultSite::Rewrite, FaultKind::DeadlineExpiry, at).in_scope("pass"),
            )),
            ..ProverConfig::default()
        };
        let report = Prover::new(&mut spec, &ots, &invariants)
            .with_config(config)
            .with_obs(Obs::new(recorder.clone()))
            .prove("crit-implies-token", ProofMethod::Induction, &[])
            .unwrap();
        if report.is_proved() {
            // The index is past the obligation's last rewrite call.
            break;
        }
        let totals = report.total_metrics();
        assert_eq!(
            totals.passages,
            totals.proved + totals.vacuous + totals.open,
            "call {at}"
        );
        let open = report.open_cases();
        assert_eq!(open.len(), 1, "call {at}: one stopped passage: {open:?}");
        let (action, case) = &open[0];
        assert_eq!(action, "pass");
        assert!(case.residual.contains("deadline"), "{}", case.residual);
        for path in assumption_stops(&recorder.events(), "pass") {
            let (split, branch) = path.last().expect("a branch, not the root passage");
            // The open case's trail ends with the decision being assumed.
            assert_eq!(case.decisions.len(), path.len(), "call {at}: {case:?}");
            let value = if *branch == 0 { "= true" } else { "= false" };
            let last = case.decisions.last().expect("a decision");
            assert!(last.ends_with(value), "call {at}: {last} under {split}");
            wanted.retain(|w| (w.0, w.1) != (split.as_str(), *branch));
        }
    }
    assert!(
        wanted.is_empty(),
        "no planted stop landed inside these branches' assumptions: {wanted:?}"
    );
}
