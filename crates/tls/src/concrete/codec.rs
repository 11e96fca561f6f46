//! Binary encoding of concrete [`State`]s: the model checker's visited
//! set, spill shards and checkpoint snapshots all hold these bytes.
//! [`SuccessorEncoder`] writes a successor's bytes without building it.
//!
//! The concrete domains are all small `u8` newtypes, so a state flattens
//! to a short, deterministic byte string: ordered containers (`BTreeSet`
//! / `BTreeMap`) iterate in a canonical order, which means equal states
//! always encode to equal bytes. Decoding is total and typed — any byte
//! string that does not denote a state yields `None`, never a panic —
//! because checkpoint payloads, although CRC-guarded, are still external
//! input.

use super::data::{
    Cert, Choice, ChoiceList, FinHash, FinKind, Pms, Prin, Rand, Secret, Session, Sid, Sig, SymKey,
};
use super::msg::{Body, Msg};
use super::state::State;
use super::step::{Effect, Move};
use equitls_persist::codec::Reader;
use equitls_persist::PersistError;
use std::cmp::Ordering;

fn put_pms(out: &mut Vec<u8>, p: &Pms) {
    out.extend_from_slice(&[p.client.0, p.server.0, p.secret.0]);
}

/// A sequence length, as a little-endian `u64` (the persist codec's
/// `usize`).
fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u64).to_le_bytes());
}

fn get_pms(r: &mut Reader) -> Result<Pms, PersistError> {
    Ok(Pms {
        client: Prin(r.u8()?),
        server: Prin(r.u8()?),
        secret: Secret(r.u8()?),
    })
}

fn put_key(out: &mut Vec<u8>, k: &SymKey) {
    out.push(k.prin.0);
    put_pms(out, &k.pms);
    out.extend_from_slice(&[k.r1.0, k.r2.0]);
}

fn get_key(r: &mut Reader) -> Result<SymKey, PersistError> {
    Ok(SymKey {
        prin: Prin(r.u8()?),
        pms: get_pms(r)?,
        r1: Rand(r.u8()?),
        r2: Rand(r.u8()?),
    })
}

fn put_hash(out: &mut Vec<u8>, h: &FinHash) {
    let kind = match h.kind {
        FinKind::Client => 0,
        FinKind::Server => 1,
        FinKind::Client2 => 2,
        FinKind::Server2 => 3,
    };
    out.extend_from_slice(&[kind, h.a.0, h.b.0, h.sid.0]);
    match h.list {
        Some(list) => out.extend_from_slice(&[1, list.0]),
        None => out.push(0),
    }
    out.extend_from_slice(&[h.choice.0, h.r1.0, h.r2.0]);
    put_pms(out, &h.pms);
}

fn get_hash(r: &mut Reader) -> Result<FinHash, PersistError> {
    let kind = match r.u8()? {
        0 => FinKind::Client,
        1 => FinKind::Server,
        2 => FinKind::Client2,
        3 => FinKind::Server2,
        t => return Err(PersistError::Malformed(format!("finhash kind tag {t}"))),
    };
    let a = Prin(r.u8()?);
    let b = Prin(r.u8()?);
    let sid = Sid(r.u8()?);
    let list = match r.u8()? {
        0 => None,
        1 => Some(ChoiceList(r.u8()?)),
        t => return Err(PersistError::Malformed(format!("option tag {t}"))),
    };
    Ok(FinHash {
        kind,
        a,
        b,
        sid,
        list,
        choice: Choice(r.u8()?),
        r1: Rand(r.u8()?),
        r2: Rand(r.u8()?),
        pms: get_pms(r)?,
    })
}

fn put_msg(out: &mut Vec<u8>, msg: &Msg) {
    out.extend_from_slice(&[msg.crt.0, msg.src.0, msg.dst.0]);
    match &msg.body {
        Body::Ch { rand, list } => out.extend_from_slice(&[0, rand.0, list.0]),
        Body::Sh { rand, sid, choice } => out.extend_from_slice(&[1, rand.0, sid.0, choice.0]),
        Body::Ct { cert } => out.extend_from_slice(&[
            2,
            cert.prin.0,
            cert.key_of.0,
            cert.sig.signer.0,
            cert.sig.subject.0,
            cert.sig.key_of.0,
        ]),
        Body::Kx { key_of, pms } => {
            out.extend_from_slice(&[3, key_of.0]);
            put_pms(out, pms);
        }
        Body::Cf { key, hash }
        | Body::Sf { key, hash }
        | Body::Cf2 { key, hash }
        | Body::Sf2 { key, hash } => {
            out.push(match msg.body {
                Body::Cf { .. } => 4,
                Body::Sf { .. } => 5,
                Body::Cf2 { .. } => 8,
                _ => 9,
            });
            put_key(out, key);
            put_hash(out, hash);
        }
        Body::Ch2 { rand, sid } => out.extend_from_slice(&[6, rand.0, sid.0]),
        Body::Sh2 { rand, sid, choice } => out.extend_from_slice(&[7, rand.0, sid.0, choice.0]),
    }
}

fn put_session(out: &mut Vec<u8>, (owner, peer, sid): (Prin, Prin, Sid), session: &Session) {
    out.extend_from_slice(&[
        owner.0,
        peer.0,
        sid.0,
        session.choice.0,
        session.r1.0,
        session.r2.0,
    ]);
    put_pms(out, &session.pms);
}

fn get_body(r: &mut Reader) -> Result<Body, PersistError> {
    Ok(match r.u8()? {
        0 => Body::Ch {
            rand: Rand(r.u8()?),
            list: ChoiceList(r.u8()?),
        },
        1 => Body::Sh {
            rand: Rand(r.u8()?),
            sid: Sid(r.u8()?),
            choice: Choice(r.u8()?),
        },
        2 => Body::Ct {
            cert: Cert {
                prin: Prin(r.u8()?),
                key_of: Prin(r.u8()?),
                sig: Sig {
                    signer: Prin(r.u8()?),
                    subject: Prin(r.u8()?),
                    key_of: Prin(r.u8()?),
                },
            },
        },
        3 => Body::Kx {
            key_of: Prin(r.u8()?),
            pms: get_pms(r)?,
        },
        4 => Body::Cf {
            key: get_key(r)?,
            hash: get_hash(r)?,
        },
        5 => Body::Sf {
            key: get_key(r)?,
            hash: get_hash(r)?,
        },
        6 => Body::Ch2 {
            rand: Rand(r.u8()?),
            sid: Sid(r.u8()?),
        },
        7 => Body::Sh2 {
            rand: Rand(r.u8()?),
            sid: Sid(r.u8()?),
            choice: Choice(r.u8()?),
        },
        8 => Body::Cf2 {
            key: get_key(r)?,
            hash: get_hash(r)?,
        },
        9 => Body::Sf2 {
            key: get_key(r)?,
            hash: get_hash(r)?,
        },
        t => return Err(PersistError::Malformed(format!("body tag {t}"))),
    })
}

/// Encode a concrete state into a deterministic byte string.
pub fn encode_state(state: &State) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, state.network.len());
    for msg in &state.network {
        put_msg(&mut out, msg);
    }
    put_len(&mut out, state.sessions.len());
    for (&key, session) in &state.sessions {
        put_session(&mut out, key, session);
    }
    put_len(&mut out, state.used_rands.len());
    out.extend(state.used_rands.iter().map(|r| r.0));
    put_len(&mut out, state.used_sids.len());
    out.extend(state.used_sids.iter().map(|s| s.0));
    put_len(&mut out, state.used_secrets.len());
    out.extend(state.used_secrets.iter().map(|s| s.0));
    out
}

/// The network size of an encoded state, read from its length prefix
/// alone; `None` when `bytes` is too short to hold one.
pub fn encoded_message_count(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// A scalarset relabelling in first-occurrence order, as a sparse set
/// over `u8` values: `slot[v]` indexes `seen` only while it points back
/// at `v`, so [`Relabel::clear`] is O(1).
struct Relabel {
    slot: [u8; 256],
    seen: [u8; 256],
    image: [u8; 256],
    len: usize,
}

impl Relabel {
    fn new() -> Self {
        Relabel {
            slot: [0; 256],
            seen: [0; 256],
            image: [0; 256],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// The image of `v`, assigning `fresh(len)` on its first occurrence.
    fn map(&mut self, v: u8, fresh: impl FnOnce(usize) -> u8) -> u8 {
        let i = self.slot[v as usize] as usize;
        if i < self.len && self.seen[i] == v {
            return self.image[i];
        }
        let image = fresh(self.len);
        self.slot[v as usize] = self.len as u8;
        self.seen[self.len] = v;
        self.image[self.len] = image;
        self.len += 1;
        image
    }
}

/// Writes a successor's canonical bytes straight from its parent and the
/// [`Move`] taken, without building the successor or its symmetry
/// representative. The scratch tables are reused across successors.
pub struct SuccessorEncoder {
    symmetry: bool,
    rands: Relabel,
    sids: Relabel,
    secrets: Relabel,
    next_even: u8,
    next_odd: u8,
    msgs: Vec<Msg>,
    sessions: Vec<((Prin, Prin, Sid), Session)>,
    values: Vec<u8>,
}

impl SuccessorEncoder {
    /// An encoder for successors canonicalized under scalarset symmetry
    /// ([`State::canonicalize`]) when `symmetry` is set, or kept as they
    /// are.
    pub fn new(symmetry: bool) -> Self {
        SuccessorEncoder {
            symmetry,
            rands: Relabel::new(),
            sids: Relabel::new(),
            secrets: Relabel::new(),
            next_even: 0,
            next_odd: 0,
            msgs: Vec::new(),
            sessions: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Append to `out` exactly the bytes of
    /// `encode_state(&apply(parent, mv).canonicalize())`, or of
    /// `encode_state(&apply(parent, mv))` without symmetry.
    ///
    /// It walks the successor in the order [`State::canonicalize`] does:
    /// the parent's containers with the move's one change merged in.
    /// Relabelling is a bijection on each scalarset, so sorting the
    /// relabelled items gives the representative's container order.
    pub fn encode(&mut self, parent: &State, mv: &Move, out: &mut Vec<u8>) {
        self.rands.clear();
        self.sids.clear();
        self.secrets.clear();
        self.next_even = 0;
        self.next_odd = 0;
        let (sent, drawn, set) = match mv.effect {
            Effect::Send {
                msg,
                rand,
                sid,
                secret,
            } => (Some(msg), (rand, sid, secret), None),
            Effect::Session {
                owner,
                peer,
                sid,
                session,
            } => (
                None,
                (None, None, None),
                Some(((owner, peer, sid), session)),
            ),
        };

        self.msgs.clear();
        merge_in(
            parent.network.iter().copied(),
            sent,
            |m| *m,
            |m| {
                let m = self.msg(m);
                self.msgs.push(m);
            },
        );
        if self.symmetry {
            self.msgs.sort_unstable();
        }
        put_len(out, self.msgs.len());
        for m in &self.msgs {
            put_msg(out, m);
        }

        self.sessions.clear();
        let parent_sessions = parent.sessions.iter().map(|(&k, &s)| (k, s));
        merge_in(
            parent_sessions,
            set,
            |(k, _)| *k,
            |((owner, peer, sid), s)| {
                let sid = self.sid(sid);
                let session = Session {
                    choice: s.choice,
                    r1: self.rand(s.r1),
                    r2: self.rand(s.r2),
                    pms: self.pms(s.pms),
                };
                self.sessions.push(((owner, peer, sid), session));
            },
        );
        if self.symmetry {
            self.sessions.sort_unstable_by_key(|(k, _)| *k);
        }
        put_len(out, self.sessions.len());
        for (key, session) in &self.sessions {
            put_session(out, *key, session);
        }

        self.values.clear();
        merge_in(
            parent.used_rands.iter().copied(),
            drawn.0,
            |r| *r,
            |r| {
                let r = self.rand(r);
                self.values.push(r.0);
            },
        );
        self.put_values(out);
        merge_in(
            parent.used_sids.iter().copied(),
            drawn.1,
            |i| *i,
            |i| {
                let i = self.sid(i);
                self.values.push(i.0);
            },
        );
        self.put_values(out);
        merge_in(
            parent.used_secrets.iter().copied(),
            drawn.2,
            |s| *s,
            |s| {
                let s = self.secret(s);
                self.values.push(s.0);
            },
        );
        self.put_values(out);
    }

    /// Write the collected pool values as a sorted set and reset them.
    fn put_values(&mut self, out: &mut Vec<u8>) {
        if self.symmetry {
            self.values.sort_unstable();
        }
        put_len(out, self.values.len());
        out.append(&mut self.values);
    }

    fn rand(&mut self, r: Rand) -> Rand {
        if !self.symmetry {
            return r;
        }
        Rand(self.rands.map(r.0, |n| n as u8))
    }

    fn sid(&mut self, i: Sid) -> Sid {
        if !self.symmetry {
            return i;
        }
        Sid(self.sids.map(i.0, |n| n as u8))
    }

    /// Secrets relabel within their ownership parity (see
    /// [`State::canonicalize`]).
    fn secret(&mut self, s: Secret) -> Secret {
        if !self.symmetry {
            return s;
        }
        let (even, odd) = (&mut self.next_even, &mut self.next_odd);
        Secret(self.secrets.map(s.0, |_| {
            if s.0.is_multiple_of(2) {
                *even += 1;
                2 * (*even - 1)
            } else {
                *odd += 1;
                2 * (*odd - 1) + 1
            }
        }))
    }

    fn pms(&mut self, p: Pms) -> Pms {
        Pms {
            secret: self.secret(p.secret),
            ..p
        }
    }

    /// A Finished payload, relabelled in [`State::canonicalize`]'s field
    /// order: the key's secret and randoms, then the hash's session id,
    /// randoms and secret.
    fn payload(&mut self, key: SymKey, hash: FinHash) -> (SymKey, FinHash) {
        let key_pms = self.pms(key.pms);
        let key_r1 = self.rand(key.r1);
        let key_r2 = self.rand(key.r2);
        let sid = self.sid(hash.sid);
        let r1 = self.rand(hash.r1);
        let r2 = self.rand(hash.r2);
        let pms = self.pms(hash.pms);
        (
            SymKey {
                pms: key_pms,
                r1: key_r1,
                r2: key_r2,
                ..key
            },
            FinHash {
                sid,
                r1,
                r2,
                pms,
                ..hash
            },
        )
    }

    fn msg(&mut self, m: Msg) -> Msg {
        let body = match m.body {
            Body::Ch { rand, list } => Body::Ch {
                rand: self.rand(rand),
                list,
            },
            Body::Sh { rand, sid, choice } => {
                let rand = self.rand(rand);
                Body::Sh {
                    rand,
                    sid: self.sid(sid),
                    choice,
                }
            }
            Body::Ct { cert } => Body::Ct { cert },
            Body::Kx { key_of, pms } => Body::Kx {
                key_of,
                pms: self.pms(pms),
            },
            Body::Cf { key, hash } => {
                let (key, hash) = self.payload(key, hash);
                Body::Cf { key, hash }
            }
            Body::Sf { key, hash } => {
                let (key, hash) = self.payload(key, hash);
                Body::Sf { key, hash }
            }
            Body::Ch2 { rand, sid } => {
                let rand = self.rand(rand);
                Body::Ch2 {
                    rand,
                    sid: self.sid(sid),
                }
            }
            Body::Sh2 { rand, sid, choice } => {
                let rand = self.rand(rand);
                Body::Sh2 {
                    rand,
                    sid: self.sid(sid),
                    choice,
                }
            }
            Body::Cf2 { key, hash } => {
                let (key, hash) = self.payload(key, hash);
                Body::Cf2 { key, hash }
            }
            Body::Sf2 { key, hash } => {
                let (key, hash) = self.payload(key, hash);
                Body::Sf2 { key, hash }
            }
        };
        Msg { body, ..m }
    }
}

/// Visit the items of an ascending sequence with `extra` merged in at its
/// place by `key`; on a tie `extra` replaces the item (a set insert, or a
/// map entry overwritten).
fn merge_in<T: Copy, K: Ord>(
    sorted: impl IntoIterator<Item = T>,
    extra: Option<T>,
    key: impl Fn(&T) -> K,
    mut visit: impl FnMut(T),
) {
    let mut extra = extra;
    for item in sorted {
        if let Some(e) = extra {
            match key(&e).cmp(&key(&item)) {
                Ordering::Less => {
                    visit(e);
                    extra = None;
                }
                Ordering::Equal => {
                    visit(e);
                    extra = None;
                    continue;
                }
                Ordering::Greater => {}
            }
        }
        visit(item);
    }
    if let Some(e) = extra {
        visit(e);
    }
}

/// Decode a state previously produced by [`encode_state`]. Trailing bytes
/// are rejected, so the encoding is a bijection on valid states.
pub fn decode_state(bytes: &[u8]) -> Result<State, PersistError> {
    let mut r = Reader::new(bytes);
    let mut state = State::new();
    for _ in 0..r.seq_len(4)? {
        let crt = Prin(r.u8()?);
        let src = Prin(r.u8()?);
        let dst = Prin(r.u8()?);
        let body = get_body(&mut r)?;
        state.network.insert(Msg {
            crt,
            src,
            dst,
            body,
        });
    }
    for _ in 0..r.seq_len(9)? {
        let key = (Prin(r.u8()?), Prin(r.u8()?), Sid(r.u8()?));
        let session = Session {
            choice: Choice(r.u8()?),
            r1: Rand(r.u8()?),
            r2: Rand(r.u8()?),
            pms: get_pms(&mut r)?,
        };
        state.sessions.insert(key, session);
    }
    for _ in 0..r.seq_len(1)? {
        state.used_rands.insert(Rand(r.u8()?));
    }
    for _ in 0..r.seq_len(1)? {
        state.used_sids.insert(Sid(r.u8()?));
    }
    for _ in 0..r.seq_len(1)? {
        state.used_secrets.insert(Secret(r.u8()?));
    }
    if !r.is_empty() {
        return Err(PersistError::Malformed(format!(
            "{} trailing bytes after state",
            r.remaining()
        )));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::step::{successors, Scope};

    #[test]
    fn every_reachable_shallow_state_roundtrips() {
        // Walk two levels of the counterexample scope and round-trip every
        // state seen — this covers hello, certificate, key-exchange, and
        // intruder fake messages.
        let scope = Scope::counterexample();
        let mut frontier = vec![State::new()];
        let mut seen = 0usize;
        for _ in 0..2 {
            let mut next = Vec::new();
            for state in &frontier {
                let bytes = encode_state(state);
                let back = decode_state(&bytes).expect("valid state decodes");
                assert_eq!(&back, state);
                assert_eq!(encode_state(&back), bytes, "encoding is canonical");
                seen += 1;
                for step in successors(state, &scope) {
                    next.push(step.state);
                }
            }
            frontier = next;
        }
        assert!(seen > 1, "walk visited more than the initial state");
    }

    #[test]
    fn garbage_and_truncation_decode_to_typed_errors() {
        assert!(decode_state(&[0xFF; 3]).is_err());
        let full = encode_state(&State::new());
        assert!(decode_state(&full[..full.len() - 1]).is_err());
        // Trailing garbage is rejected too.
        let mut padded = full.clone();
        padded.push(0);
        assert!(decode_state(&padded).is_err());
    }
}
