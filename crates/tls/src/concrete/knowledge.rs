//! The intruder's knowledge: concrete gleaning (§4.3) and synthesis
//! capability checks (§4.5).
//!
//! Mirrors the seven gleaning collections of the symbolic model. Under
//! perfect cryptography the closure is flat (no recursion is needed):
//! ciphertexts only yield payloads when the decryption key is known, keys
//! are hashes of public data plus a pre-master secret, and hashes are not
//! invertible.

use crate::concrete::data::*;
use crate::concrete::msg::Body;
use crate::concrete::state::State;
use std::collections::BTreeSet;

/// Everything the intruder can currently derive from the network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Knowledge {
    /// Known pre-master secrets (`cpms`): own secrets plus any sent under
    /// `k(intruder)`.
    pub pms: BTreeSet<Pms>,
    /// Gleaned CA-or-intruder signatures (`csig`).
    pub sigs: BTreeSet<Sig>,
    /// Replayable encrypted pre-master secrets (`cepms`).
    pub epms: BTreeSet<(Prin, Pms)>,
    /// Replayable encrypted client Finished payloads (`cecfin`).
    pub ecfin: BTreeSet<(SymKey, FinHash)>,
    /// Replayable encrypted server Finished payloads (`cesfin`).
    pub esfin: BTreeSet<(SymKey, FinHash)>,
    /// Replayable encrypted ClientFinished2 payloads (`cecfin2`).
    pub ecfin2: BTreeSet<(SymKey, FinHash)>,
    /// Replayable encrypted ServerFinished2 payloads (`cesfin2`).
    pub esfin2: BTreeSet<(SymKey, FinHash)>,
}

impl Knowledge {
    /// Glean from a state's network, given the scope's secret pool (the
    /// intruder owns every pre-master secret it generated itself).
    pub fn glean(state: &State, intruder_secrets: &[Secret], peers: &[Prin]) -> Knowledge {
        let mut k = Knowledge::default();
        // The intruder's own pre-master secrets (cpms base case).
        for &s in intruder_secrets {
            for &b in peers {
                k.pms.insert(Pms {
                    client: Prin::INTRUDER,
                    server: b,
                    secret: s,
                });
            }
        }
        // The intruder can always sign with its own key (csig base case).
        for &subject in peers {
            for &key_of in peers {
                k.sigs.insert(Sig {
                    signer: Prin::INTRUDER,
                    subject,
                    key_of,
                });
            }
        }
        for m in state.messages() {
            match m.body {
                Body::Kx { key_of, pms } => {
                    if key_of == Prin::INTRUDER {
                        k.pms.insert(pms);
                    }
                    k.epms.insert((key_of, pms));
                }
                Body::Ct { cert } => {
                    k.sigs.insert(cert.sig);
                }
                Body::Cf { key, hash } => {
                    k.ecfin.insert((key, hash));
                }
                Body::Sf { key, hash } => {
                    k.esfin.insert((key, hash));
                }
                Body::Cf2 { key, hash } => {
                    k.ecfin2.insert((key, hash));
                }
                Body::Sf2 { key, hash } => {
                    k.esfin2.insert((key, hash));
                }
                _ => {}
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::msg::Msg;

    fn peers() -> Vec<Prin> {
        vec![Prin(2), Prin(3)]
    }

    #[test]
    fn own_pms_is_always_known() {
        let k = Knowledge::glean(&State::new(), &[Secret(7)], &peers());
        assert!(k.pms.contains(&Pms {
            client: Prin::INTRUDER,
            server: Prin(2),
            secret: Secret(7),
        }));
        assert!(k.epms.is_empty());
    }

    #[test]
    fn kx_to_intruder_leaks_its_pms() {
        let honest = Pms {
            client: Prin(2),
            server: Prin::INTRUDER,
            secret: Secret(0),
        };
        let state = State::new().send(Msg::honest(
            Prin(2),
            Prin::INTRUDER,
            Body::Kx {
                key_of: Prin::INTRUDER,
                pms: honest,
            },
        ));
        let k = Knowledge::glean(&state, &[], &peers());
        assert!(k.pms.contains(&honest));
    }

    #[test]
    fn kx_to_honest_server_does_not_leak_but_is_replayable() {
        let honest = Pms {
            client: Prin(2),
            server: Prin(3),
            secret: Secret(0),
        };
        let state = State::new().send(Msg::honest(
            Prin(2),
            Prin(3),
            Body::Kx {
                key_of: Prin(3),
                pms: honest,
            },
        ));
        let k = Knowledge::glean(&state, &[], &peers());
        assert!(!k.pms.contains(&honest));
        assert!(k.epms.contains(&(Prin(3), honest)));
    }

    #[test]
    fn the_intruder_knows_the_pms_of_its_own_secrets_only() {
        let mine = Pms {
            client: Prin::INTRUDER,
            server: Prin(3),
            secret: Secret(1),
        };
        let k = Knowledge::glean(&State::new(), &[Secret(1)], &peers());
        assert!(k.pms.contains(&mine));
        let other = Pms {
            client: Prin(2),
            server: Prin(3),
            secret: Secret(0),
        };
        assert!(!k.pms.contains(&other));
    }

    #[test]
    fn gleaning_is_monotone_in_the_network() {
        let m = Msg::honest(
            Prin(2),
            Prin(3),
            Body::Cf {
                key: SymKey {
                    prin: Prin(2),
                    pms: Pms {
                        client: Prin(2),
                        server: Prin(3),
                        secret: Secret(0),
                    },
                    r1: Rand(0),
                    r2: Rand(1),
                },
                hash: FinHash {
                    kind: FinKind::Client,
                    a: Prin(2),
                    b: Prin(3),
                    sid: Sid(0),
                    list: Some(ChoiceList::of(&[Choice(0)])),
                    choice: Choice(0),
                    r1: Rand(0),
                    r2: Rand(1),
                    pms: Pms {
                        client: Prin(2),
                        server: Prin(3),
                        secret: Secret(0),
                    },
                },
            },
        );
        let s0 = State::new();
        let s1 = s0.send(m);
        let k0 = Knowledge::glean(&s0, &[], &peers());
        let k1 = Knowledge::glean(&s1, &[], &peers());
        assert!(k0.ecfin.is_subset(&k1.ecfin));
        assert_eq!(k1.ecfin.len(), 1);
    }
}
