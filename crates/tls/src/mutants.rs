//! Protocol mutants for failure injection.
//!
//! A verifier is only trustworthy if it *rejects* broken protocols. Each
//! mutant here is a small, meaningful flaw injected into the symbolic
//! model; `expected_failures` names the properties that must stop proving
//! (and the integration tests assert both directions: the listed
//! properties fail with the failure localized to the mutant transition,
//! and a control property still proves).
//!
//! The mutants also double as reproductions of known modeling ideas from
//! the paper's related work — `Oops` is Paulson's session-key-compromise
//! rule, cited in §6.

use crate::symbolic::TlsModel;
use equitls_core::prelude::Ots;
use equitls_core::CoreError;
use equitls_lint::{LintCode, LintConfig, Severity};
use equitls_spec::error::SpecError;
use equitls_spec::spec::Spec;

/// A named protocol mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// Paulson's `Oops`: any observed encrypted pre-master secret may be
    /// compromised (republished under the intruder's key). Breaks `inv1`.
    Oops,
    /// A trustable-but-buggy server writes a different server identity
    /// into its Finished hash. Breaks `lem-esfin-origin` (and with it the
    /// authenticity chain).
    ConfusedServer,
    /// A careless client encrypts its pre-master secret under the
    /// intruder's public key while naming an honest server. Breaks `inv1`.
    CarelessClient,
}

impl Mutant {
    /// All mutants.
    pub fn all() -> [Mutant; 3] {
        [Mutant::Oops, Mutant::ConfusedServer, Mutant::CarelessClient]
    }

    /// The name of the injected transition.
    pub fn transition_name(self) -> &'static str {
        match self {
            Mutant::Oops => "oops",
            Mutant::ConfusedServer => "confusedSfin",
            Mutant::CarelessClient => "carelessKx",
        }
    }

    /// Properties expected to *stop* proving under this mutant.
    pub fn expected_failures(self) -> &'static [&'static str] {
        match self {
            // Note: `lem-cepms-cpms` survives oops — the republished kx
            // feeds cpms and cepms together — only secrecy itself breaks.
            Mutant::Oops => &["inv1"],
            Mutant::ConfusedServer => &["lem-esfin-origin"],
            Mutant::CarelessClient => &["inv1"],
        }
    }

    /// A property expected to *keep* proving (control).
    pub fn control_property(self) -> &'static str {
        match self {
            Mutant::Oops => "lem-src-honest",
            Mutant::ConfusedServer => "inv1",
            Mutant::CarelessClient => "lem-src-honest",
        }
    }

    fn module_source(self) -> &'static str {
        match self {
            Mutant::Oops => {
                r#"
                mod! OOPS {
                  pr(PROTOCOL)
                  bop oops : Protocol EncPms -> Protocol .
                  var P : Protocol . var E : EncPms .
                  vars A2 B2 : Prin . var I2 : Sid .
                  op c-oops : Protocol EncPms -> Bool .
                  eq c-oops(P, E) = E \in cepms(nw(P)) .
                  ceq nw(oops(P, E))
                    = (kx(intruder, intruder, intruder, epms(k(intruder), pl(E))) , nw(P))
                    if c-oops(P, E) .
                  eq ur(oops(P, E)) = ur(P) .
                  eq ui(oops(P, E)) = ui(P) .
                  eq us(oops(P, E)) = us(P) .
                  eq ss(oops(P, E), A2, B2, I2) = ss(P, A2, B2, I2) .
                  ceq oops(P, E) = P if not c-oops(P, E) .
                }
                "#
            }
            Mutant::ConfusedServer => {
                r#"
                mod! CONFUSED {
                  pr(PROTOCOL)
                  bop confusedSfin : Protocol Prin Prin Prin Sid ListOfChoices
                                     Choice Rand Rand Secret -> Protocol .
                  var P : Protocol . vars B X A : Prin .
                  var I : Sid . var L : ListOfChoices . var C : Choice .
                  vars R1 R2 : Rand . var S : Secret .
                  vars A2 B2 : Prin . var I2 : Sid .
                  eq nw(confusedSfin(P, B, X, A, I, L, C, R1, R2, S))
                    = (sf(B, B, A,
                          esfin(key(X, pms(A, X, S), R1, R2),
                                sfin(A, X, I, L, C, R1, R2, pms(A, X, S)))) , nw(P)) .
                  eq ur(confusedSfin(P, B, X, A, I, L, C, R1, R2, S)) = ur(P) .
                  eq ui(confusedSfin(P, B, X, A, I, L, C, R1, R2, S)) = ui(P) .
                  eq us(confusedSfin(P, B, X, A, I, L, C, R1, R2, S)) = us(P) .
                  eq ss(confusedSfin(P, B, X, A, I, L, C, R1, R2, S), A2, B2, I2)
                    = ss(P, A2, B2, I2) .
                }
                "#
            }
            Mutant::CarelessClient => {
                r#"
                mod! CARELESS {
                  pr(PROTOCOL)
                  bop carelessKx : Protocol Prin Prin Secret -> Protocol .
                  var P : Protocol . vars A B : Prin . var S : Secret .
                  vars A2 B2 : Prin . var I2 : Sid .
                  op c-careless : Protocol Prin Prin Secret -> Bool .
                  eq c-careless(P, A, B, S) = not (S \in us(P)) .
                  ceq nw(carelessKx(P, A, B, S))
                    = (kx(A, A, B, epms(k(intruder), pms(A, B, S))) , nw(P))
                    if c-careless(P, A, B, S) .
                  ceq us(carelessKx(P, A, B, S)) = (S , us(P))
                    if c-careless(P, A, B, S) .
                  eq ur(carelessKx(P, A, B, S)) = ur(P) .
                  eq ui(carelessKx(P, A, B, S)) = ui(P) .
                  eq ss(carelessKx(P, A, B, S), A2, B2, I2) = ss(P, A2, B2, I2) .
                  ceq carelessKx(P, A, B, S) = P if not c-careless(P, A, B, S) .
                }
                "#
            }
        }
    }

    /// Inject this mutant into a model, returning the extended OTS (the
    /// model's `ots` field is left untouched; provers should use the
    /// returned one).
    ///
    /// # Errors
    ///
    /// Propagates specification errors from the injected module.
    pub fn inject(self, model: &mut TlsModel) -> Result<Ots, CoreError> {
        model.spec.load_module(self.module_source())?;
        Ots::from_spec(&mut model.spec, "Protocol", "init")
    }
}

/// Deliberately broken *rewrite systems* (as opposed to the protocol
/// mutants above): fixtures that `equitls-lint` must reject.
///
/// Where [`Mutant`] checks that the prover rejects broken protocols, these
/// check that the static analyzer rejects broken equation sets — each one
/// seeds exactly the flaw its `expected_code` lint exists to catch, and
/// `tls-lint` fails its own run if a fixture comes back clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintFixture {
    /// `spin(N) → spin(s(N))`: the left-hand side matches inside its own
    /// result, so innermost rewriting diverges. Must be denied by
    /// `termination-loop`.
    Looping,
    /// `pick(T) → a` and `pick(T) → b`: the root overlap yields the
    /// critical pair `a = b` with two distinct normal forms. Must be
    /// denied by `unjoinable-critical-pair`.
    NonConfluent,
    /// `orphan(X) → wrap(Y)`: the right-hand side uses a variable the
    /// left-hand side does not bind, so the loader quarantines the
    /// equation. Must be denied by `unbound-variable`.
    UnboundVariable,
    /// A `{root}`-marked entry point plus an operator no root reaches:
    /// its rule can never fire. Must be denied by `dead-rule` (escalated
    /// from its warn default by [`LintFixture::config`]).
    DeadRule,
}

impl LintFixture {
    /// All fixtures.
    pub fn all() -> [LintFixture; 4] {
        [
            LintFixture::Looping,
            LintFixture::NonConfluent,
            LintFixture::UnboundVariable,
            LintFixture::DeadRule,
        ]
    }

    /// Report-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            LintFixture::Looping => "fixture: looping rule",
            LintFixture::NonConfluent => "fixture: non-confluent pair",
            LintFixture::UnboundVariable => "fixture: unbound RHS variable",
            LintFixture::DeadRule => "fixture: dead rule",
        }
    }

    /// The lint that must fire at deny level on this fixture.
    pub fn expected_code(self) -> LintCode {
        match self {
            LintFixture::Looping => LintCode::TerminationLoop,
            LintFixture::NonConfluent => LintCode::UnjoinableCriticalPair,
            LintFixture::UnboundVariable => LintCode::UnboundVariable,
            LintFixture::DeadRule => LintCode::DeadRule,
        }
    }

    /// The configuration the fixture is gated under. `dead-rule` defaults
    /// to warn (TLS observers legitimately tolerate unreached helpers
    /// during refactors), so the dead-code fixture escalates it to deny.
    pub fn config(self) -> LintConfig {
        let mut config = LintConfig::new();
        if self == LintFixture::DeadRule {
            config.set_severity(
                LintCode::DeadRule,
                Severity::Deny,
                "fixture gate: seeded dead code must fail",
            );
        }
        config
    }

    fn module_source(self) -> &'static str {
        match self {
            LintFixture::Looping => {
                r#"
                mod! LOOPING {
                  [ Cnt ]
                  op z : -> Cnt {constr} .
                  op s : Cnt -> Cnt {constr} .
                  op spin : Cnt -> Cnt .
                  var N : Cnt .
                  eq [spin-diverges] : spin(N) = spin(s(N)) .
                }
                "#
            }
            LintFixture::NonConfluent => {
                r#"
                mod! AMBIGUOUS {
                  [ Tok ]
                  op a : -> Tok {constr} .
                  op b : -> Tok {constr} .
                  op pick : Tok -> Tok .
                  var T : Tok .
                  eq [pick-a] : pick(T) = a .
                  eq [pick-b] : pick(T) = b .
                }
                "#
            }
            LintFixture::UnboundVariable => {
                r#"
                mod! UNBOUNDED {
                  [ U ]
                  op u0 : -> U {constr} .
                  op wrap : U -> U {constr} .
                  op orphan : U -> U .
                  vars X Y : U .
                  eq [orphan-unbound] : orphan(X) = wrap(Y) .
                }
                "#
            }
            LintFixture::DeadRule => {
                r#"
                mod! DEADCODE {
                  [ D ]
                  op d0 : -> D {constr} .
                  op step : D -> D {root} .
                  op live : D -> D .
                  op stale : D -> D .
                  var X : D .
                  eq [step-live] : step(X) = live(X) .
                  eq [live-base] : live(d0) = d0 .
                  eq [stale-spin] : stale(d0) = d0 .
                }
                "#
            }
        }
    }

    /// Load the fixture into a fresh specification.
    ///
    /// # Errors
    ///
    /// Propagates parse/elaboration errors (none for the shipped sources).
    pub fn load(self) -> Result<Spec, SpecError> {
        let mut spec = Spec::new()?;
        spec.load_module(self.module_source())?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mutant_injects_one_extra_transition() {
        for mutant in Mutant::all() {
            let mut model = TlsModel::standard().unwrap();
            let ots = mutant.inject(&mut model).unwrap();
            assert_eq!(ots.actions.len(), 28, "{mutant:?}");
            assert!(
                ots.action(mutant.transition_name()).is_some(),
                "{mutant:?} transition present"
            );
        }
    }

    #[test]
    fn expectations_reference_known_properties() {
        for mutant in Mutant::all() {
            let model = TlsModel::standard().unwrap();
            for name in mutant.expected_failures() {
                assert!(model.invariants.get(name).is_some(), "{name}");
            }
            assert!(model.invariants.get(mutant.control_property()).is_some());
        }
    }

    #[test]
    fn lint_fixtures_are_denied_for_the_seeded_reason() {
        use equitls_lint::{analyze_spec, AnalysisOptions};
        let options = AnalysisOptions::default();
        for fixture in LintFixture::all() {
            let spec = fixture.load().unwrap();
            let report = analyze_spec(&spec, fixture.name(), &fixture.config(), &options);
            assert!(report.has_deny(), "{}: {report}", fixture.name());
            let hits = report.with_code(fixture.expected_code());
            assert!(
                hits.iter().any(|d| d.severity == Severity::Deny),
                "{}: expected deny-level {}, got {report}",
                fixture.name(),
                fixture.expected_code(),
            );
            // Parsed fixtures carry source positions into the report.
            assert!(
                hits.iter().any(|d| d.span.is_some()),
                "{}: deny finding should carry a span",
                fixture.name(),
            );
        }
    }
}
