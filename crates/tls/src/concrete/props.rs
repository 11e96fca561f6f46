//! Concrete property monitors: the paper's properties 1–5 and the
//! *refuted* properties 2′/3′ as state predicates for the model checker.

use crate::concrete::data::*;
use crate::concrete::msg::{Body, Msg};
use crate::concrete::state::State;
use crate::concrete::step::Scope;

/// Property 1 (PMS secrecy): every pre-master secret the intruder knows
/// involves the intruder.
///
/// The intruder knows its own secrets, which name it, and every secret
/// sent under its key `k(intruder)` (the `cpms` collection of
/// [`Knowledge::glean`](crate::concrete::Knowledge::glean)). So the property holds exactly when every key
/// exchange under `k(intruder)` carries a secret that names the intruder,
/// and a scan of the network decides it without gleaning.
pub fn prop1_pms_secrecy(state: &State, _scope: &Scope) -> bool {
    state.messages().all(|m| match m.body {
        Body::Kx { key_of, pms } if key_of.is_intruder() => {
            pms.client.is_intruder() || pms.server.is_intruder()
        }
        _ => true,
    })
}

/// The well-formed ServerFinished a client would accept: key and hash
/// agree and the pre-master secret names exactly (a, b).
fn conformant_sf(m: &Msg) -> Option<(Prin, Prin)> {
    let (a, b) = (m.dst, m.src);
    match m.body {
        Body::Sf { key, hash }
            if key.prin == b
                && key.pms == hash.pms
                && key.r1 == hash.r1
                && key.r2 == hash.r2
                && hash.a == a
                && hash.b == b
                && hash.pms.client == a
                && hash.pms.server == b =>
        {
            Some((a, b))
        }
        _ => None,
    }
}

/// Property 2 (ServerFinished authenticity): a conformant `sf` seemingly
/// from `b` to trustable `a` implies the genuine one is in the network.
pub fn prop2_sf_authentic(state: &State, _scope: &Scope) -> bool {
    state.messages().all(|m| {
        let Some((a, b)) = conformant_sf(m) else {
            return true;
        };
        if a.is_intruder() {
            return true;
        }
        state
            .messages()
            .any(|g| g.crt == b && g.src == b && g.dst == a && g.body == m.body)
    })
}

/// Property 3: same for ServerFinished2.
pub fn prop3_sf2_authentic(state: &State, _scope: &Scope) -> bool {
    state.messages().all(|m| {
        let (a, b) = (m.dst, m.src);
        let ok = matches!(m.body, Body::Sf2 { key, hash }
            if key.prin == b && key.pms == hash.pms && key.r1 == hash.r1
                && key.r2 == hash.r2 && hash.a == a && hash.b == b
                && hash.pms.client == a && hash.pms.server == b);
        if !ok || a.is_intruder() {
            return true;
        }
        state
            .messages()
            .any(|g| g.crt == b && g.src == b && g.dst == a && g.body == m.body)
    })
}

/// Property 4: with a conformant ServerHello + Certificate + Finished, the
/// hello and certificate are genuine too.
pub fn prop4_sh_ct_authentic(state: &State, scope: &Scope) -> bool {
    let _ = scope;
    state.messages().all(|m| {
        let Some((a, b)) = conformant_sf(m) else {
            return true;
        };
        if a.is_intruder() {
            return true;
        }
        let (r2, sid, choice) = match m.body {
            Body::Sf { hash, .. } => (hash.r2, hash.sid, hash.choice),
            _ => unreachable!("conformant_sf filtered"),
        };
        let sh_seen = state.messages().any(|s| {
            s.src == b
                && s.dst == a
                && s.body
                    == Body::Sh {
                        rand: r2,
                        sid,
                        choice,
                    }
        });
        let ct_seen = state.messages().any(|c| s_matches_ct(c, b, a));
        if !(sh_seen && ct_seen) {
            return true; // premise not satisfied
        }
        let sh_genuine = state.messages().any(|s| {
            s.crt == b
                && s.src == b
                && s.dst == a
                && s.body
                    == Body::Sh {
                        rand: r2,
                        sid,
                        choice,
                    }
        });
        let ct_genuine = state
            .messages()
            .any(|c| c.crt == b && s_matches_ct(c, b, a));
        sh_genuine && ct_genuine
    })
}

fn s_matches_ct(c: &Msg, b: Prin, a: Prin) -> bool {
    c.src == b && c.dst == a && matches!(c.body, Body::Ct { cert } if cert == Cert::genuine(b))
}

/// Property 5: with a conformant ServerHello2 + Finished2, the hello is
/// genuine.
pub fn prop5_sh2_authentic(state: &State, _scope: &Scope) -> bool {
    state.messages().all(|m| {
        let (a, b) = (m.dst, m.src);
        let hash = match m.body {
            Body::Sf2 { key, hash }
                if key.prin == b
                    && key.pms == hash.pms
                    && key.r1 == hash.r1
                    && key.r2 == hash.r2
                    && hash.a == a
                    && hash.b == b
                    && hash.pms.client == a
                    && hash.pms.server == b =>
            {
                hash
            }
            _ => return true,
        };
        if a.is_intruder() {
            return true;
        }
        let sh2_body = Body::Sh2 {
            rand: hash.r2,
            sid: hash.sid,
            choice: hash.choice,
        };
        let sh2_seen = state
            .messages()
            .any(|s| s.src == b && s.dst == a && s.body == sh2_body);
        if !sh2_seen {
            return true;
        }
        state
            .messages()
            .any(|s| s.crt == b && s.src == b && s.dst == a && s.body == sh2_body)
    })
}

/// Property 2′ (refuted in §5.3): a ClientFinished a server would accept,
/// seemingly from trustable `a`, implies the genuine one exists.
///
/// The server cannot check `pms.client == a` (it only decrypts the value),
/// so conformance here omits that conjunct — and the property FAILS.
pub fn prop2p_cf_authentic(state: &State, _scope: &Scope) -> bool {
    state.messages().all(|m| {
        let (a, b) = (m.src, m.dst);
        let ok = matches!(m.body, Body::Cf { key, hash }
            if key.prin == a && key.pms == hash.pms && key.r1 == hash.r1
                && key.r2 == hash.r2 && hash.a == a && hash.b == b);
        if !ok || a.is_intruder() {
            return true;
        }
        state
            .messages()
            .any(|g| g.crt == a && g.src == a && g.dst == b && g.body == m.body)
    })
}

/// Property 3′ (refuted): same for ClientFinished2.
pub fn prop3p_cf2_authentic(state: &State, _scope: &Scope) -> bool {
    state.messages().all(|m| {
        let (a, b) = (m.src, m.dst);
        let ok = matches!(m.body, Body::Cf2 { key, hash }
            if key.prin == a && key.pms == hash.pms && key.r1 == hash.r1
                && key.r2 == hash.r2 && hash.a == a && hash.b == b);
        if !ok || a.is_intruder() {
            return true;
        }
        state
            .messages()
            .any(|g| g.crt == a && g.src == a && g.dst == b && g.body == m.body)
    })
}

/// A state predicate checked in every reachable state.
pub type MonitorFn = fn(&State, &Scope) -> bool;

/// All monitors by name (positive expected-to-hold and refuted ones).
pub fn monitors() -> Vec<(&'static str, MonitorFn, bool)> {
    vec![
        ("prop1-pms-secrecy", prop1_pms_secrecy, true),
        ("prop2-sf-authentic", prop2_sf_authentic, true),
        ("prop3-sf2-authentic", prop3_sf2_authentic, true),
        ("prop4-sh-ct-authentic", prop4_sh_ct_authentic, true),
        ("prop5-sh2-authentic", prop5_sh2_authentic, true),
        ("prop2p-cf-authentic", prop2p_cf_authentic, false),
        ("prop3p-cf2-authentic", prop3p_cf2_authentic, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::knowledge::Knowledge;

    #[test]
    fn empty_state_satisfies_everything() {
        let scope = Scope::counterexample();
        let state = State::new();
        for (name, monitor, _) in monitors() {
            assert!(monitor(&state, &scope), "{name} fails on the empty state");
        }
    }

    #[test]
    fn leaked_pms_violates_prop1() {
        let scope = Scope::counterexample();
        let leaked = Pms {
            client: Prin(2),
            server: Prin(3),
            secret: Secret(0),
        };
        // A kx encrypted to the intruder leaks a trustable pms.
        let state = State::new().send(Msg::faked(
            Prin(2),
            Prin::INTRUDER,
            Body::Kx {
                key_of: Prin::INTRUDER,
                pms: leaked,
            },
        ));
        assert!(!prop1_pms_secrecy(&state, &scope));
    }

    /// Property 1 as the knowledge closure states it: every gleaned
    /// pre-master secret names the intruder.
    fn prop1_by_gleaning(state: &State, scope: &Scope) -> bool {
        let k = Knowledge::glean(state, &scope.intruder_secrets(), &scope.trustables());
        k.pms
            .iter()
            .all(|p| p.client.is_intruder() || p.server.is_intruder())
    }

    #[test]
    fn prop1_scan_agrees_with_gleaning_on_every_bound_2_state() {
        use crate::concrete::step::successors;
        use std::collections::HashSet;
        let mut scope = Scope::counterexample();
        scope.max_messages = 2;
        for symmetry in [true, false] {
            let mut seen = HashSet::from([State::new()]);
            let mut frontier = vec![State::new()];
            while let Some(state) = frontier.pop() {
                assert_eq!(
                    prop1_pms_secrecy(&state, &scope),
                    prop1_by_gleaning(&state, &scope),
                    "symmetry {symmetry}:\n{state}"
                );
                for step in successors(&state, &scope) {
                    let next = if symmetry {
                        step.state.canonicalize()
                    } else {
                        step.state
                    };
                    if seen.insert(next.clone()) {
                        frontier.push(next);
                    }
                }
            }
            assert!(seen.len() > 1000, "{} states", seen.len());
        }
        // A hand-built leak: a trustable secret under k(intruder).
        let leak = State::new().send(Msg::honest(
            Prin(2),
            Prin::INTRUDER,
            Body::Kx {
                key_of: Prin::INTRUDER,
                pms: Pms {
                    client: Prin(2),
                    server: Prin(3),
                    secret: Secret(0),
                },
            },
        ));
        assert!(!prop1_pms_secrecy(&leak, &scope));
        assert!(!prop1_by_gleaning(&leak, &scope));
    }

    #[test]
    fn faked_conformant_cf_violates_prop2p() {
        let scope = Scope::counterexample();
        let (a, b) = (Prin(2), Prin(3));
        // The intruder's own pms, but the hash names (a, b): exactly the
        // §5.3 counterexample message (6).
        let pms = Pms {
            client: Prin::INTRUDER,
            server: b,
            secret: Secret(1),
        };
        let key = SymKey {
            prin: a,
            pms,
            r1: Rand(0),
            r2: Rand(1),
        };
        let hash = FinHash {
            kind: FinKind::Client,
            a,
            b,
            sid: Sid(0),
            list: Some(scope.full_list()),
            choice: Choice(0),
            r1: Rand(0),
            r2: Rand(1),
            pms,
        };
        let state = State::new().send(Msg::faked(a, b, Body::Cf { key, hash }));
        assert!(!prop2p_cf_authentic(&state, &scope));
        // …while prop2 (server-side authenticity) is unaffected.
        assert!(prop2_sf_authentic(&state, &scope));
    }

    #[test]
    fn genuine_sf_satisfies_prop2() {
        let scope = Scope::counterexample();
        let (a, b) = (Prin(2), Prin(3));
        let pms = Pms {
            client: a,
            server: b,
            secret: Secret(0),
        };
        let key = SymKey {
            prin: b,
            pms,
            r1: Rand(0),
            r2: Rand(1),
        };
        let hash = FinHash {
            kind: FinKind::Server,
            a,
            b,
            sid: Sid(0),
            list: Some(scope.full_list()),
            choice: Choice(0),
            r1: Rand(0),
            r2: Rand(1),
            pms,
        };
        let state = State::new().send(Msg::honest(b, a, Body::Sf { key, hash }));
        assert!(prop2_sf_authentic(&state, &scope));
        // A replay of the same payload by the intruder stays authentic:
        // the genuine original is still present.
        let replayed = state.send(Msg::faked(b, a, Body::Sf { key, hash }));
        assert!(prop2_sf_authentic(&replayed, &scope));
    }
}
