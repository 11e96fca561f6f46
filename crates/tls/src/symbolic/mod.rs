//! The symbolic (algebraic) TLS model: §3.2's abstract handshake protocol
//! as an OTS written in equations.
//!
//! [`TlsModel::standard`] assembles the whole specification — data
//! algebra, messages, network and gleaning, trustable transitions,
//! intruder — plus the OTS structure and the eighteen properties.
//! [`TlsModel::variant`] builds the §5.3 variant in which ClientFinished2
//! precedes ServerFinished2.

pub mod data;
pub mod intruder;
pub mod messages;
pub mod network;
pub mod properties;
pub mod transitions;

pub use transitions::Variant;

use equitls_core::prelude::{InvariantSet, Ots};
use equitls_core::CoreError;
use equitls_kernel::op::OpKind;
use equitls_kernel::term::Term;
use equitls_lint::{AnalysisOptions, LintCode, LintConfig};
use equitls_spec::prelude::Spec;

/// A fully assembled symbolic TLS model.
#[derive(Debug, Clone)]
pub struct TlsModel {
    /// The specification (signature, equations, term store).
    pub spec: Spec,
    /// The OTS view: observers, 27 transitions, initial state.
    pub ots: Ots,
    /// The eighteen properties of [`properties::PROPERTIES`].
    pub invariants: InvariantSet,
    /// Which abbreviated-handshake ordering was built.
    pub variant: Variant,
}

impl TlsModel {
    /// Build the Figure 2 protocol (ServerFinished2 first).
    ///
    /// # Errors
    ///
    /// Propagates specification-building errors (none occur for the
    /// shipped model; the `Result` guards future edits).
    pub fn standard() -> Result<Self, CoreError> {
        TlsModel::build(Variant::ServerFinished2First)
    }

    /// Build the §5.3 variant (ClientFinished2 first).
    ///
    /// # Errors
    ///
    /// Same as [`TlsModel::standard`].
    pub fn variant() -> Result<Self, CoreError> {
        TlsModel::build(Variant::ClientFinished2First)
    }

    fn build(variant: Variant) -> Result<Self, CoreError> {
        let mut spec = Spec::new()?;
        data::install(&mut spec)?;
        messages::install(&mut spec)?;
        network::install(&mut spec)?;
        transitions::install(&mut spec, variant)?;
        intruder::install(&mut spec)?;
        let invariants = properties::install(&mut spec)?;
        let ots = Ots::from_spec(&mut spec, "Protocol", "init")?;
        Ok(TlsModel {
            spec,
            ots,
            invariants,
            variant,
        })
    }

    /// How this model is linted, by `tls-lint` and by the daemon's lint
    /// jobs alike: the triaged lint codes and the dependency-analysis
    /// roots.
    ///
    /// The roots are every observer and action in the signature, plus
    /// every operator an invariant body mentions — the terms `red` is
    /// actually asked to reduce during the proof scores.
    pub fn lint_setup(&self) -> (LintConfig, AnalysisOptions) {
        // Triaged: the model's data selectors are deliberately partial
        // functions. `rand`/`sid`/... project only the message constructor
        // they belong to, the session observers are undefined on
        // `noSession`, and the gleaning membership `_\in_` is defined only
        // for the payload sorts the proofs query. Stuck selector terms
        // never arise in reachable proof terms, so the missing cases are
        // design, not gaps.
        let mut config = LintConfig::new();
        config.allow(
            LintCode::MissingCase,
            "selectors in the OTS model are partial by design; \
             they are only ever applied to their own constructors",
        );
        // Triaged: the data modules ship every projection of every
        // compound constructor for symmetry (`hk`, `owner`, `fi`, ...), but
        // the proof scores only query a subset, so the rest are unreachable
        // from the invariant/observer/action roots. Keep them visible in
        // the census, not as warnings.
        config.allow(
            LintCode::DeadRule,
            "unqueried data selectors are shipped for symmetry with the paper's \
             DATA modules; the proofs never reduce them",
        );
        let store = self.spec.store();
        let mut roots = Vec::new();
        for (id, decl) in store.signature().ops() {
            if matches!(decl.attrs.kind, OpKind::Observer | OpKind::Action) {
                roots.push(id);
            }
        }
        for inv in self.invariants.iter() {
            for t in store.subterms(inv.body) {
                if let Term::App { op, .. } = store.node(t) {
                    if !roots.contains(op) {
                        roots.push(*op);
                    }
                }
            }
        }
        (config, AnalysisOptions { roots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_model_has_27_transitions() {
        let model = TlsModel::standard().unwrap();
        // 12 trustable + 15 intruder transitions.
        assert_eq!(model.ots.actions.len(), 27);
        assert_eq!(model.ots.observers.len(), 5);
        for name in [
            "chello", "shello", "cert", "kexch", "cfin", "sfin", "compl", "chello2", "shello2",
            "sfin2", "cfin2", "compl2",
        ] {
            assert!(model.ots.action(name).is_some(), "missing action {name}");
        }
        for name in intruder::FAKE_ACTIONS {
            assert!(model.ots.action(name).is_some(), "missing fake {name}");
        }
    }

    #[test]
    fn variant_model_builds_with_swapped_finish2() {
        let model = TlsModel::variant().unwrap();
        assert_eq!(model.variant, Variant::ClientFinished2First);
        assert_eq!(model.ots.actions.len(), 27);
        // The variant's cfin2 takes (Prin, Secret, Msg, Msg): 4 params.
        let cfin2 = model.ots.action("cfin2").unwrap();
        assert_eq!(cfin2.params.len(), 4);
        // The standard cfin2 takes (Prin, Secret, Msg, Msg, Msg): 5.
        let std_model = TlsModel::standard().unwrap();
        assert_eq!(std_model.ots.action("cfin2").unwrap().params.len(), 5);
    }

    #[test]
    fn initial_state_is_empty() {
        let mut model = TlsModel::standard().unwrap();
        let spec = &mut model.spec;
        let init = spec.parse_term("init").unwrap();
        let nw = spec.app("nw", &[init]).unwrap();
        let void = spec.const_term("void").unwrap();
        assert_eq!(spec.red(nw).unwrap(), void);
    }

    #[test]
    fn a_full_symbolic_handshake_runs() {
        // Drive the six Figure 2 messages through the transitions and
        // check the network contains them all.
        let mut model = TlsModel::standard().unwrap();
        let spec = &mut model.spec;
        let alg = spec.alg().clone();
        // Concrete-ish values as arbitrary constants.
        let prin = spec.sort_id("Prin").unwrap();
        let rand = spec.sort_id("Rand").unwrap();
        let sid = spec.sort_id("Sid").unwrap();
        let choice = spec.sort_id("Choice").unwrap();
        let loc = spec.sort_id("ListOfChoices").unwrap();
        let secret = spec.sort_id("Secret").unwrap();
        let a = spec.store_mut().arbitrary_constant("aP", prin).unwrap();
        let b = spec.store_mut().arbitrary_constant("bP", prin).unwrap();
        let ra = spec.store_mut().arbitrary_constant("rA", rand).unwrap();
        let rb = spec.store_mut().arbitrary_constant("rB", rand).unwrap();
        let i = spec.store_mut().arbitrary_constant("i0", sid).unwrap();
        let c = spec.store_mut().arbitrary_constant("c0", choice).unwrap();
        let l = spec.store_mut().arbitrary_constant("l0", loc).unwrap();
        let s = spec.store_mut().arbitrary_constant("s0", secret).unwrap();
        let init = spec.parse_term("init").unwrap();

        // To make effective conditions decidable we assert the freshness
        // and distinctness facts as assumptions via a proof passage.
        let mut passage = equitls_spec::passage::ProofPassage::open(spec);
        // c0 \in l0 (the server picked from the client's list)
        let cin = passage.spec().app("_\\in_", &[c, l]).unwrap();
        passage.assume_true(cin).unwrap();

        // p1 = chello(init, a, b, ra, l)
        let p1 = passage.spec().app("chello", &[init, a, b, ra, l]).unwrap();
        let nw1 = passage.spec().app("nw", &[p1]).unwrap();
        let n1 = passage.red(nw1).unwrap();
        let ch = passage.spec().app("ch", &[a, a, b, ra, l]).unwrap();
        let member = passage.spec().app("_\\in_", &[ch, n1]).unwrap();
        let ok = passage.red(member).unwrap();
        assert_eq!(
            alg.as_constant(passage.spec().store(), ok),
            Some(true),
            "ClientHello must be in the network"
        );

        // p2 = shello(p1, b, rb, i, c, ch)
        let p2 = passage
            .spec()
            .app("shello", &[p1, b, rb, i, c, ch])
            .unwrap();
        let nw2 = passage.spec().app("nw", &[p2]).unwrap();
        let n2 = passage.red(nw2).unwrap();
        let sh = passage.spec().app("sh", &[b, b, a, rb, i, c]).unwrap();
        let member2 = passage.spec().app("_\\in_", &[sh, n2]).unwrap();
        let ok2 = passage.red(member2).unwrap();
        // `rb \in ur(p1)` reduces to `rb = ra`, which is undecided for
        // arbitrary constants; assume distinctness first.
        let rb_eq_ra = passage.spec().eq_term(rb, ra).unwrap();
        passage.assume_false(rb_eq_ra).unwrap();
        let ok2 = if alg.as_constant(passage.spec().store(), ok2) == Some(true) {
            ok2
        } else {
            passage.red(member2).unwrap()
        };
        assert_eq!(
            alg.as_constant(passage.spec().store(), ok2),
            Some(true),
            "ServerHello must be in the network"
        );

        // p3 = cert(p2, b, ch, sh) adds the certificate.
        let p3 = passage.spec().app("cert", &[p2, b, ch, sh]).unwrap();
        let nw3 = passage.spec().app("nw", &[p3]).unwrap();
        let n3 = passage.red(nw3).unwrap();
        let kb = passage.spec().app("k", &[b]).unwrap();
        let ca = passage.spec().const_term("ca").unwrap();
        let sg = passage.spec().app("sig", &[ca, b, kb]).unwrap();
        let cert = passage.spec().app("cert", &[b, kb, sg]).unwrap();
        let ct = passage.spec().app("ct", &[b, b, a, cert]).unwrap();
        let member3 = passage.spec().app("_\\in_", &[ct, n3]).unwrap();
        let ok3 = passage.red(member3).unwrap();
        assert_eq!(
            alg.as_constant(passage.spec().store(), ok3),
            Some(true),
            "Certificate must be in the network"
        );

        // p4 = kexch(p3, a, s, ch, sh, ct) adds the key exchange.
        let p4 = passage
            .spec()
            .app("kexch", &[p3, a, s, ch, sh, ct])
            .unwrap();
        let nw4 = passage.spec().app("nw", &[p4]).unwrap();
        let n4 = passage.red(nw4).unwrap();
        let pm = passage.spec().app("pms", &[a, b, s]).unwrap();
        let ep = passage.spec().app("epms", &[kb, pm]).unwrap();
        let kxm = passage.spec().app("kx", &[a, a, b, ep]).unwrap();
        let member4 = passage.spec().app("_\\in_", &[kxm, n4]).unwrap();
        let ok4 = passage.red(member4).unwrap();
        assert_eq!(
            alg.as_constant(passage.spec().store(), ok4),
            Some(true),
            "ClientKeyExchange must be in the network"
        );
    }
}
