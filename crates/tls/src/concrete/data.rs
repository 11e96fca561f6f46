//! Concrete data domains: finite, copyable values mirroring §4.2's
//! quantities.
//!
//! The symbolic model quantifies over arbitrary values; the concrete model
//! instantiates each sort with a small finite domain (newtyped `u8`s) so
//! the model checker can enumerate states. `Prin(0)` is the intruder and
//! `Prin(1)` the certificate authority, mirroring the two special
//! principals of the paper.

use std::fmt;

macro_rules! small_domain {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u8);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

small_domain!(
    /// A random number (`Rand_X` in Figure 2).
    Rand,
    "r"
);
small_domain!(
    /// A session identifier.
    Sid,
    "sid"
);
small_domain!(
    /// A cipher suite (`Choice`).
    Choice,
    "c"
);
small_domain!(
    /// A secret value making pre-master secrets unique.
    Secret,
    "s"
);

/// A principal. `Prin(0)` is the intruder, `Prin(1)` the CA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prin(pub u8);

impl Prin {
    /// The Dolev–Yao intruder.
    pub const INTRUDER: Prin = Prin(0);
    /// The single trusted certificate authority.
    pub const CA: Prin = Prin(1);

    /// `true` for the intruder.
    pub fn is_intruder(self) -> bool {
        self == Prin::INTRUDER
    }

    /// `true` for trustable (non-intruder) principals.
    pub fn is_trustable(self) -> bool {
        !self.is_intruder()
    }
}

impl fmt::Display for Prin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Prin::INTRUDER => write!(f, "intruder"),
            Prin::CA => write!(f, "ca"),
            Prin(n) => write!(f, "p{n}"),
        }
    }
}

/// A list of cipher suites, as a bitmask over `Choice` values 0–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChoiceList(pub u8);

impl ChoiceList {
    /// The list containing exactly the given choices.
    pub fn of(choices: &[Choice]) -> Self {
        ChoiceList(choices.iter().fold(0, |m, c| m | (1 << c.0)))
    }

    /// Membership test (`_\in_` of §4.2).
    pub fn contains(self, c: Choice) -> bool {
        self.0 & (1 << c.0) != 0
    }

    /// Iterate over the contained choices.
    pub fn iter(self) -> impl Iterator<Item = Choice> {
        (0..8).filter(move |i| self.0 & (1 << i) != 0).map(Choice)
    }
}

impl fmt::Display for ChoiceList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// A pre-master secret `pms(client, server, secret)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pms {
    /// The generating client.
    pub client: Prin,
    /// The intended server.
    pub server: Prin,
    /// The uniquifying secret.
    pub secret: Secret,
}

impl fmt::Display for Pms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pms({},{},{})", self.client, self.server, self.secret)
    }
}

/// A digital signature `sig(signer, subject, key-owner)` binding `subject`
/// to the public key `k(key_of)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sig {
    /// Who signed.
    pub signer: Prin,
    /// Whose identity is bound.
    pub subject: Prin,
    /// Whose public key is bound (`k(key_of)`).
    pub key_of: Prin,
}

/// A certificate `cert(prin, k(key_of), sig)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cert {
    /// The claimed identity.
    pub prin: Prin,
    /// The claimed public key's owner.
    pub key_of: Prin,
    /// The binding signature.
    pub sig: Sig,
}

impl Cert {
    /// The genuine certificate of `p`: `cert(p, k(p), sig(ca, p, k(p)))`.
    pub fn genuine(p: Prin) -> Self {
        Cert {
            prin: p,
            key_of: p,
            sig: Sig {
                signer: Prin::CA,
                subject: p,
                key_of: p,
            },
        }
    }

    /// The validity check clients perform (§3.2 abstraction): the CA
    /// signature binds exactly the claimed identity and key.
    pub fn is_valid_for(self, claimed: Prin) -> bool {
        self.prin == claimed
            && self.sig.signer == Prin::CA
            && self.sig.subject == claimed
            && self.sig.key_of == self.key_of
            && self.key_of == claimed
    }
}

/// The symmetric key `key(x, pms, r1, r2)` — `H(X, PMS, Rand_A, Rand_B)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymKey {
    /// ClientKey when this is the client, ServerKey when the server.
    pub prin: Prin,
    /// The pre-master secret.
    pub pms: Pms,
    /// The client random.
    pub r1: Rand,
    /// The server random.
    pub r2: Rand,
}

/// Which Finished hash a payload carries (distinct hash constructors in
/// the symbolic model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FinKind {
    /// `cfin(…)` — full-handshake ClientFinish.
    Client,
    /// `sfin(…)` — full-handshake ServerFinish.
    Server,
    /// `cfin2(…)` — abbreviated ClientFinish2.
    Client2,
    /// `sfin2(…)` — abbreviated ServerFinish2.
    Server2,
}

/// A Finished hash: the §3.2 contents (role, A, B, SID, \[list,\] choice,
/// randoms, PMS). `list` is `None` for the abbreviated-handshake hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FinHash {
    /// Which of the four hash constructors.
    pub kind: FinKind,
    /// The client name in the hash.
    pub a: Prin,
    /// The server name in the hash.
    pub b: Prin,
    /// Session ID.
    pub sid: Sid,
    /// Cipher-suite list (full handshake only).
    pub list: Option<ChoiceList>,
    /// Negotiated cipher suite.
    pub choice: Choice,
    /// Client random.
    pub r1: Rand,
    /// Server random.
    pub r2: Rand,
    /// Pre-master secret.
    pub pms: Pms,
}

/// An established session `st(choice, r1, r2, pms)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Session {
    /// Negotiated cipher suite.
    pub choice: Choice,
    /// Client random.
    pub r1: Rand,
    /// Server random.
    pub r2: Rand,
    /// Pre-master secret.
    pub pms: Pms,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_principals() {
        assert!(Prin::INTRUDER.is_intruder());
        assert!(!Prin::INTRUDER.is_trustable());
        assert!(Prin::CA.is_trustable());
        assert_eq!(Prin::INTRUDER.to_string(), "intruder");
        assert_eq!(Prin(3).to_string(), "p3");
    }

    #[test]
    fn choice_lists_are_bitmasks() {
        let l = ChoiceList::of(&[Choice(0), Choice(2)]);
        assert!(l.contains(Choice(0)));
        assert!(!l.contains(Choice(1)));
        assert!(l.contains(Choice(2)));
        assert_eq!(l.iter().count(), 2);
        assert_eq!(l.to_string(), "[c0 c2]");
    }

    #[test]
    fn genuine_certificates_validate() {
        let b = Prin(2);
        let cert = Cert::genuine(b);
        assert!(cert.is_valid_for(b));
        assert!(!cert.is_valid_for(Prin(3)));
        // A forged cert binding b's name to the intruder's key fails.
        let forged = Cert {
            prin: b,
            key_of: Prin::INTRUDER,
            sig: Sig {
                signer: Prin::INTRUDER,
                subject: b,
                key_of: Prin::INTRUDER,
            },
        };
        assert!(!forged.is_valid_for(b));
    }

    #[test]
    fn display_is_nonempty_for_all_values() {
        assert_eq!(Rand(1).to_string(), "r1");
        assert_eq!(Sid(0).to_string(), "sid0");
        assert_eq!(Choice(1).to_string(), "c1");
        assert_eq!(Secret(2).to_string(), "s2");
        let pms = Pms {
            client: Prin(2),
            server: Prin(3),
            secret: Secret(0),
        };
        assert_eq!(pms.to_string(), "pms(p2,p3,s0)");
    }
}
