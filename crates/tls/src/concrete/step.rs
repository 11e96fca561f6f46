//! Concrete transition enumeration: the 12 trustable transitions and the
//! intruder's faking moves, bounded by a finite [`Scope`].
//!
//! This is the executable twin of the symbolic transitions; the model
//! checker (`equitls-mc`) explores exactly these successors. The scope
//! mirrors Mitchell et al.'s Murφ configuration from the paper's related
//! work (§6): a couple of clients, one server, bounded fresh values.

use crate::concrete::data::*;
use crate::concrete::knowledge::Knowledge;
use crate::concrete::msg::{Body, Msg};
use crate::concrete::state::State;

/// Finite domains for exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// Trustable clients.
    pub clients: Vec<Prin>,
    /// Trustable servers.
    pub servers: Vec<Prin>,
    /// Random-number pool size.
    pub rands: u8,
    /// Session-id pool size.
    pub sids: u8,
    /// Per-principal secret pool size (secrets are globally partitioned:
    /// trustable principals use even secrets, the intruder odd ones).
    pub secrets: u8,
    /// Cipher-suite pool size.
    pub choices: u8,
    /// Network size bound (exploration cutoff).
    pub max_messages: usize,
    /// Whether the ClientFinished2-first variant is explored.
    pub swapped_finish2: bool,
}

impl Scope {
    /// The Mitchell-et-al.-style default: two clients, one server, small
    /// pools.
    pub fn mitchell() -> Self {
        Scope {
            clients: vec![Prin(2), Prin(3)],
            servers: vec![Prin(4)],
            rands: 2,
            sids: 1,
            secrets: 2,
            choices: 1,
            max_messages: 12,
            swapped_finish2: false,
        }
    }

    /// A minimal scope for the §5.3 counterexamples: one client, one
    /// server, plus the intruder acting as a second client.
    pub fn counterexample() -> Self {
        Scope {
            clients: vec![Prin(2)],
            servers: vec![Prin(3)],
            rands: 2,
            sids: 1,
            secrets: 1,
            choices: 1,
            max_messages: 10,
            swapped_finish2: false,
        }
    }

    /// All trustable principals.
    pub fn trustables(&self) -> Vec<Prin> {
        let mut all = self.clients.clone();
        for &s in &self.servers {
            if !all.contains(&s) {
                all.push(s);
            }
        }
        all
    }

    /// All principals including the intruder.
    pub fn principals(&self) -> Vec<Prin> {
        let mut all = vec![Prin::INTRUDER];
        all.extend(self.trustables());
        all
    }

    fn rand_pool(&self) -> Vec<Rand> {
        (0..self.rands).map(Rand).collect()
    }

    fn sid_pool(&self) -> Vec<Sid> {
        (0..self.sids).map(Sid).collect()
    }

    fn choice_pool(&self) -> Vec<Choice> {
        (0..self.choices).map(Choice).collect()
    }

    /// Secrets trustable clients may draw (even-numbered).
    pub fn honest_secrets(&self) -> Vec<Secret> {
        (0..self.secrets).map(|i| Secret(2 * i)).collect()
    }

    /// Secrets the intruder owns (odd-numbered).
    pub fn intruder_secrets(&self) -> Vec<Secret> {
        (0..self.secrets).map(|i| Secret(2 * i + 1)).collect()
    }

    /// The single full cipher-suite list used by clients in scope.
    pub fn full_list(&self) -> ChoiceList {
        ChoiceList::of(&self.choice_pool())
    }
}

/// A labeled transition for traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Transition name (matching the symbolic action names).
    pub label: String,
    /// The resulting state.
    pub state: State,
}

/// Which transition a [`Move`] takes: the symbolic model's action names,
/// trustable ones first, then the intruder's fakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// A client opens a handshake.
    Chello,
    /// A server answers a ClientHello.
    Shello,
    /// A server sends its certificate.
    Cert,
    /// A client sends the encrypted pre-master secret.
    Kexch,
    /// A client sends its Finished.
    Cfin,
    /// A server validates the client Finished and replies.
    Sfin,
    /// A client validates the ServerFinished and records the session.
    Compl,
    /// A client resumes a recorded session.
    Chello2,
    /// A server agrees to resume.
    Shello2,
    /// A server sends its Finished2.
    Sfin2,
    /// A server renews its session on a valid ClientFinished2.
    Compl2,
    /// A client sends its Finished2.
    Cfin2,
    /// Clear-text ClientHello fake.
    FakeCh,
    /// Clear-text ClientHello2 fake.
    FakeCh2,
    /// Clear-text ServerHello fake.
    FakeSh,
    /// Clear-text ServerHello2 fake.
    FakeSh2,
    /// Certificate fake from a gleaned signature.
    FakeCt,
    /// Replayed key exchange.
    FakeKx1,
    /// Key exchange built from a known pre-master secret.
    FakeKx2,
    /// Replayed Finished.
    FakeFin1,
    /// Replayed Finished2.
    FakeFin21,
    /// Constructed ClientFinished.
    FakeCfin2,
    /// Constructed ClientFinished2.
    FakeCfin22,
    /// Constructed ServerFinished.
    FakeSfin2,
    /// Constructed ServerFinished2.
    FakeSfin22,
}

impl MoveKind {
    /// Every kind, indexed by its discriminant.
    const ALL: [MoveKind; 25] = [
        MoveKind::Chello,
        MoveKind::Shello,
        MoveKind::Cert,
        MoveKind::Kexch,
        MoveKind::Cfin,
        MoveKind::Sfin,
        MoveKind::Compl,
        MoveKind::Chello2,
        MoveKind::Shello2,
        MoveKind::Sfin2,
        MoveKind::Compl2,
        MoveKind::Cfin2,
        MoveKind::FakeCh,
        MoveKind::FakeCh2,
        MoveKind::FakeSh,
        MoveKind::FakeSh2,
        MoveKind::FakeCt,
        MoveKind::FakeKx1,
        MoveKind::FakeKx2,
        MoveKind::FakeFin1,
        MoveKind::FakeFin21,
        MoveKind::FakeCfin2,
        MoveKind::FakeCfin22,
        MoveKind::FakeSfin2,
        MoveKind::FakeSfin22,
    ];

    /// The action name a label starts with.
    pub fn name(self) -> &'static str {
        match self {
            MoveKind::Chello => "chello",
            MoveKind::Shello => "shello",
            MoveKind::Cert => "cert",
            MoveKind::Kexch => "kexch",
            MoveKind::Cfin => "cfin",
            MoveKind::Sfin => "sfin",
            MoveKind::Compl => "compl",
            MoveKind::Chello2 => "chello2",
            MoveKind::Shello2 => "shello2",
            MoveKind::Sfin2 => "sfin2",
            MoveKind::Compl2 => "compl2",
            MoveKind::Cfin2 => "cfin2",
            MoveKind::FakeCh => "fakeCh",
            MoveKind::FakeCh2 => "fakeCh2",
            MoveKind::FakeSh => "fakeSh",
            MoveKind::FakeSh2 => "fakeSh2",
            MoveKind::FakeCt => "fakeCt",
            MoveKind::FakeKx1 => "fakeKx1",
            MoveKind::FakeKx2 => "fakeKx2",
            MoveKind::FakeFin1 => "fakeFin1",
            MoveKind::FakeFin21 => "fakeFin21",
            MoveKind::FakeCfin2 => "fakeCfin2",
            MoveKind::FakeCfin22 => "fakeCfin22",
            MoveKind::FakeSfin2 => "fakeSfin2",
            MoveKind::FakeSfin22 => "fakeSfin22",
        }
    }

    /// A ciphertext replay or construction: the moves a clear-text-only
    /// intruder lacks.
    pub fn is_ciphertext_fake(self) -> bool {
        matches!(
            self,
            MoveKind::FakeKx1
                | MoveKind::FakeKx2
                | MoveKind::FakeFin1
                | MoveKind::FakeFin21
                | MoveKind::FakeCfin2
                | MoveKind::FakeCfin22
                | MoveKind::FakeSfin2
                | MoveKind::FakeSfin22
        )
    }
}

/// What a [`Move`] changes in the state it is applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Send `msg` (the network is a set, so a message already present
    /// leaves it unchanged) and mark the given pool values used.
    Send {
        /// The message sent.
        msg: Msg,
        /// A random number the move draws.
        rand: Option<Rand>,
        /// A session id the move draws.
        sid: Option<Sid>,
        /// A secret the move draws.
        secret: Option<Secret>,
    },
    /// Record `session` as `owner`'s session with `peer` under `sid`.
    Session {
        /// The recording principal.
        owner: Prin,
        /// Its peer.
        peer: Prin,
        /// The session id.
        sid: Sid,
        /// The session recorded.
        session: Session,
    },
}

/// One enabled transition, compact: its kind and its effect. Its label is
/// rendered only on request ([`Move::label`]) and its successor built only
/// by [`apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The transition taken.
    pub kind: MoveKind,
    /// What it changes.
    pub effect: Effect,
}

impl Move {
    /// A move that sends `msg` and draws nothing.
    fn send(kind: MoveKind, msg: Msg) -> Move {
        Move::send_drawing(kind, msg, None, None, None)
    }

    fn send_drawing(
        kind: MoveKind,
        msg: Msg,
        rand: Option<Rand>,
        sid: Option<Sid>,
        secret: Option<Secret>,
    ) -> Move {
        Move {
            kind,
            effect: Effect::Send {
                msg,
                rand,
                sid,
                secret,
            },
        }
    }

    /// The transition's trace label, e.g. `chello(p2,p3,r0)`.
    pub fn label(&self) -> String {
        render_label(self.label_code())
    }

    /// The label packed into a word: the kind's index, the two principals
    /// the label names, and up to three pool values, one byte each.
    /// [`render_label`] turns it into [`Move::label`]'s text, so a caller
    /// can keep the word and render only the labels it needs.
    pub fn label_code(&self) -> u64 {
        let (a, b, extra) = match self.effect {
            Effect::Send { msg, .. } => {
                let extra = match msg.body {
                    Body::Ch { rand, .. } | Body::Ch2 { rand, .. } | Body::Sh2 { rand, .. } => {
                        [rand.0, 0, 0]
                    }
                    Body::Sh { rand, sid, choice } => [rand.0, sid.0, choice.0],
                    Body::Kx { pms, .. } => [pms.secret.0, 0, 0],
                    _ => [0; 3],
                };
                (msg.src, msg.dst, extra)
            }
            Effect::Session { owner, peer, .. } => (owner, peer, [0; 3]),
        };
        u64::from_le_bytes([
            self.kind as u8,
            a.0,
            b.0,
            extra[0],
            extra[1],
            extra[2],
            0,
            0,
        ])
    }
}

/// Render a [`Move::label_code`] as the transition's label.
///
/// # Panics
///
/// When `code` did not come from [`Move::label_code`].
pub fn render_label(code: u64) -> String {
    let [k, a, b, x, y, z, ..] = code.to_le_bytes();
    let kind = MoveKind::ALL[k as usize];
    let (name, a, b) = (kind.name(), Prin(a), Prin(b));
    match kind {
        MoveKind::Chello | MoveKind::Chello2 | MoveKind::Shello2 => {
            format!("{name}({a},{b},{})", Rand(x))
        }
        MoveKind::Shello => format!("{name}({a},{b},{},{},{})", Rand(x), Sid(y), Choice(z)),
        MoveKind::Kexch => format!("{name}({a},{b},{})", Secret(x)),
        _ => format!("{name}({a},{b})"),
    }
}

/// The state `mv` leads to from `state`.
pub fn apply(state: &State, mv: &Move) -> State {
    let mut next = state.clone();
    match mv.effect {
        Effect::Send {
            msg,
            rand,
            sid,
            secret,
        } => {
            next.network.insert(msg);
            next.used_rands.extend(rand);
            next.used_sids.extend(sid);
            next.used_secrets.extend(secret);
        }
        Effect::Session {
            owner,
            peer,
            sid,
            session,
        } => {
            next.sessions.insert((owner, peer, sid), session);
        }
    }
    next
}

/// Enumerate every enabled transition from `state`.
pub fn successors(state: &State, scope: &Scope) -> Vec<Step> {
    moves(state, scope)
        .iter()
        .map(|mv| Step {
            label: mv.label(),
            state: apply(state, mv),
        })
        .collect()
}

/// Every enabled transition from `state`, as moves, in [`successors`]'
/// order: the trustable transitions, then the intruder's.
pub fn moves(state: &State, scope: &Scope) -> Vec<Move> {
    let mut out = Vec::new();
    if state.message_count() >= scope.max_messages {
        return out;
    }
    let pools = Pools::new(scope);
    honest_moves(state, scope, &pools, &mut out);
    intruder_moves(state, &pools, &mut out);
    out
}

/// The scope's value pools, built once per [`moves`] call.
struct Pools {
    trustables: Vec<Prin>,
    principals: Vec<Prin>,
    rands: Vec<Rand>,
    sids: Vec<Sid>,
    choices: Vec<Choice>,
    honest_secrets: Vec<Secret>,
    intruder_secrets: Vec<Secret>,
    list: ChoiceList,
}

impl Pools {
    fn new(scope: &Scope) -> Self {
        Pools {
            trustables: scope.trustables(),
            principals: scope.principals(),
            rands: scope.rand_pool(),
            sids: scope.sid_pool(),
            choices: scope.choice_pool(),
            honest_secrets: scope.honest_secrets(),
            intruder_secrets: scope.intruder_secrets(),
            list: scope.full_list(),
        }
    }
}

#[allow(clippy::too_many_lines)]
fn honest_moves(state: &State, scope: &Scope, pools: &Pools, out: &mut Vec<Move>) {
    let list = pools.list;
    // chello: client A opens a handshake with any server.
    for &a in &scope.clients {
        for &b in pools.principals.iter().filter(|&&b| b != a) {
            for &r in &pools.rands {
                if state.used_rands.contains(&r) {
                    continue;
                }
                let msg = Msg::honest(a, b, Body::Ch { rand: r, list });
                out.push(Move::send_drawing(
                    MoveKind::Chello,
                    msg,
                    Some(r),
                    None,
                    None,
                ));
            }
        }
    }
    // shello: server B answers a ClientHello.
    for &b in &scope.servers {
        for m1 in state.messages() {
            let list1 = match m1.body {
                Body::Ch { list, .. } if m1.dst == b => list,
                _ => continue,
            };
            for &r in &pools.rands {
                if state.used_rands.contains(&r) {
                    continue;
                }
                for &i in &pools.sids {
                    if state.used_sids.contains(&i) {
                        continue;
                    }
                    for &c in &pools.choices {
                        if !list1.contains(c) {
                            continue;
                        }
                        let msg = Msg::honest(
                            b,
                            m1.src,
                            Body::Sh {
                                rand: r,
                                sid: i,
                                choice: c,
                            },
                        );
                        out.push(Move::send_drawing(
                            MoveKind::Shello,
                            msg,
                            Some(r),
                            Some(i),
                            None,
                        ));
                    }
                }
            }
        }
    }
    // cert: server B sends its certificate after its ServerHello.
    for &b in &scope.servers {
        for m1 in state.messages() {
            if !matches!(m1.body, Body::Ch { .. }) || m1.dst != b {
                continue;
            }
            for m2 in state.messages() {
                let ok = matches!(m2.body, Body::Sh { choice, .. }
                    if m2.crt == b && m2.src == b && m2.dst == m1.src
                        && matches!(m1.body, Body::Ch { list, .. } if list.contains(choice)));
                if !ok {
                    continue;
                }
                let ct = Msg::honest(
                    b,
                    m2.dst,
                    Body::Ct {
                        cert: Cert::genuine(b),
                    },
                );
                if state.network.contains(&ct) {
                    continue; // idempotent
                }
                out.push(Move::send(MoveKind::Cert, ct));
            }
        }
    }
    // Client-side view shared by kexch / cfin / compl.
    let client_views = client_views(state, scope);
    // kexch: client sends the encrypted pre-master secret.
    for v in &client_views {
        for &s in &pools.honest_secrets {
            if state.used_secrets.contains(&s) {
                continue;
            }
            let pms = Pms {
                client: v.a,
                server: v.b,
                secret: s,
            };
            let msg = Msg::honest(v.a, v.b, Body::Kx { key_of: v.b, pms });
            out.push(Move::send_drawing(
                MoveKind::Kexch,
                msg,
                None,
                None,
                Some(s),
            ));
        }
    }
    // cfin: client sends its Finished after its kx.
    for v in &client_views {
        for m4 in state.messages() {
            let pms = match m4.body {
                Body::Kx { key_of, pms }
                    if m4.crt == v.a
                        && m4.src == v.a
                        && m4.dst == v.b
                        && key_of == v.b
                        && pms.client == v.a
                        && pms.server == v.b =>
                {
                    pms
                }
                _ => continue,
            };
            let key = SymKey {
                prin: v.a,
                pms,
                r1: v.r1,
                r2: v.r2,
            };
            let hash = FinHash {
                kind: FinKind::Client,
                a: v.a,
                b: v.b,
                sid: v.sid,
                list: Some(v.list),
                choice: v.choice,
                r1: v.r1,
                r2: v.r2,
                pms,
            };
            let cf = Msg::honest(v.a, v.b, Body::Cf { key, hash });
            if state.network.contains(&cf) {
                continue;
            }
            out.push(Move::send(MoveKind::Cfin, cf));
        }
    }
    // sfin: server validates the client Finished and replies.
    for &b in &scope.servers {
        for sv in server_views(state, b) {
            let key = SymKey {
                prin: b,
                pms: sv.pms,
                r1: sv.r1,
                r2: sv.r2,
            };
            let hash = FinHash {
                kind: FinKind::Server,
                a: sv.a,
                b,
                sid: sv.sid,
                list: Some(sv.list),
                choice: sv.choice,
                r1: sv.r1,
                r2: sv.r2,
                pms: sv.pms,
            };
            let sf = Msg::honest(b, sv.a, Body::Sf { key, hash });
            if state.network.contains(&sf) {
                continue;
            }
            out.push(Move::send(MoveKind::Sfin, sf));
        }
    }
    // compl: client validates the ServerFinished and records the session.
    for v in &client_views {
        for m4 in state.messages() {
            let pms = match m4.body {
                Body::Kx { key_of, pms }
                    if m4.crt == v.a && m4.dst == v.b && key_of == v.b && pms.client == v.a =>
                {
                    pms
                }
                _ => continue,
            };
            for m6 in state.messages() {
                let ok = matches!(m6.body, Body::Sf { key, hash }
                if m6.dst == v.a && m6.src == v.b
                    && key == SymKey { prin: v.b, pms, r1: v.r1, r2: v.r2 }
                    && hash == FinHash {
                        kind: FinKind::Server,
                        a: v.a, b: v.b, sid: v.sid, list: Some(v.list),
                        choice: v.choice, r1: v.r1, r2: v.r2, pms,
                    });
                if !ok {
                    continue;
                }
                let session = Session {
                    choice: v.choice,
                    r1: v.r1,
                    r2: v.r2,
                    pms,
                };
                if state.session(v.a, v.b, v.sid) == Some(session) {
                    continue;
                }
                out.push(Move {
                    kind: MoveKind::Compl,
                    effect: Effect::Session {
                        owner: v.a,
                        peer: v.b,
                        sid: v.sid,
                        session,
                    },
                });
            }
        }
    }
    abbreviated_moves(state, scope, pools, out);
}

/// The abbreviated handshake (both orders, per scope flag).
fn abbreviated_moves(state: &State, scope: &Scope, pools: &Pools, out: &mut Vec<Move>) {
    // chello2: a client resumes a recorded session.
    for &(owner, peer, sid) in state.sessions.keys() {
        if !scope.clients.contains(&owner) {
            continue;
        }
        for &r in &pools.rands {
            if state.used_rands.contains(&r) {
                continue;
            }
            let msg = Msg::honest(owner, peer, Body::Ch2 { rand: r, sid });
            out.push(Move::send_drawing(
                MoveKind::Chello2,
                msg,
                Some(r),
                None,
                None,
            ));
        }
    }
    // shello2: the server agrees to resume.
    for &b in &scope.servers {
        for m1 in state.messages() {
            let sid = match m1.body {
                Body::Ch2 { sid, .. } if m1.dst == b => sid,
                _ => continue,
            };
            let Some(session) = state.session(b, m1.src, sid) else {
                continue;
            };
            for &r in &pools.rands {
                if state.used_rands.contains(&r) {
                    continue;
                }
                let msg = Msg::honest(
                    b,
                    m1.src,
                    Body::Sh2 {
                        rand: r,
                        sid,
                        choice: session.choice,
                    },
                );
                out.push(Move::send_drawing(
                    MoveKind::Shello2,
                    msg,
                    Some(r),
                    None,
                    None,
                ));
            }
        }
    }
    // The Finished2 exchange (standard: sf2 then cf2; variant: swapped).
    for &b in &scope.servers {
        for view in resume_views(state, b) {
            let key = SymKey {
                prin: b,
                pms: view.pms,
                r1: view.r1,
                r2: view.r2,
            };
            let hash = FinHash {
                kind: FinKind::Server2,
                a: view.a,
                b,
                sid: view.sid,
                list: None,
                choice: view.choice,
                r1: view.r1,
                r2: view.r2,
                pms: view.pms,
            };
            let sf2 = Msg::honest(b, view.a, Body::Sf2 { key, hash });
            let cf2_expected = Body::Cf2 {
                key: SymKey {
                    prin: view.a,
                    pms: view.pms,
                    r1: view.r1,
                    r2: view.r2,
                },
                hash: FinHash {
                    kind: FinKind::Client2,
                    ..hash
                },
            };
            let has_cf2 = state
                .messages()
                .any(|m| m.dst == b && m.src == view.a && m.body == cf2_expected);
            // Variant: the server replies only after ClientFinished2.
            if (has_cf2 || !scope.swapped_finish2) && !state.network.contains(&sf2) {
                out.push(Move::send(MoveKind::Sfin2, sf2));
            }
            // compl2: the server renews its session on a valid cf2.
            if has_cf2 {
                let renewed = Session {
                    choice: view.choice,
                    r1: view.r1,
                    r2: view.r2,
                    pms: view.pms,
                };
                if state.session(b, view.a, view.sid) != Some(renewed) {
                    out.push(Move {
                        kind: MoveKind::Compl2,
                        effect: Effect::Session {
                            owner: b,
                            peer: view.a,
                            sid: view.sid,
                            session: renewed,
                        },
                    });
                }
            }
        }
    }
    // cfin2: the client's side of the Finished2 exchange.
    for &a in &scope.clients {
        for view in client_resume_views(state, a) {
            let sf2_expected = Body::Sf2 {
                key: SymKey {
                    prin: view.b,
                    pms: view.pms,
                    r1: view.r1,
                    r2: view.r2,
                },
                hash: FinHash {
                    kind: FinKind::Server2,
                    a,
                    b: view.b,
                    sid: view.sid,
                    list: None,
                    choice: view.choice,
                    r1: view.r1,
                    r2: view.r2,
                    pms: view.pms,
                },
            };
            // Variant: the client sends cf2 right after sh2; standard: it
            // waits for sf2.
            let ready = scope.swapped_finish2
                || state
                    .messages()
                    .any(|m| m.dst == a && m.src == view.b && m.body == sf2_expected);
            if !ready {
                continue;
            }
            let cf2 = Msg::honest(
                a,
                view.b,
                Body::Cf2 {
                    key: SymKey {
                        prin: a,
                        pms: view.pms,
                        r1: view.r1,
                        r2: view.r2,
                    },
                    hash: FinHash {
                        kind: FinKind::Client2,
                        a,
                        b: view.b,
                        sid: view.sid,
                        list: None,
                        choice: view.choice,
                        r1: view.r1,
                        r2: view.r2,
                        pms: view.pms,
                    },
                },
            );
            if !state.network.contains(&cf2) {
                out.push(Move::send(MoveKind::Cfin2, cf2));
            }
        }
    }
}

/// A client's conformant full-handshake view (ch/sh/ct received).
struct ClientView {
    a: Prin,
    b: Prin,
    r1: Rand,
    r2: Rand,
    sid: Sid,
    choice: Choice,
    list: ChoiceList,
}

fn client_views(state: &State, scope: &Scope) -> Vec<ClientView> {
    let mut views = Vec::new();
    for &a in &scope.clients {
        for m1 in state.messages() {
            let (r1, list) = match m1.body {
                Body::Ch { rand, list } if m1.crt == a && m1.src == a => (rand, list),
                _ => continue,
            };
            let b = m1.dst;
            for m2 in state.messages() {
                let (r2, sid, choice) = match m2.body {
                    Body::Sh { rand, sid, choice }
                        if m2.dst == a && m2.src == b && list.contains(choice) =>
                    {
                        (rand, sid, choice)
                    }
                    _ => continue,
                };
                let has_cert = state.messages().any(|m3| {
                    matches!(m3.body, Body::Ct { cert }
                        if m3.dst == a && m3.src == b && cert.is_valid_for(b))
                });
                if !has_cert {
                    continue;
                }
                views.push(ClientView {
                    a,
                    b,
                    r1,
                    r2,
                    sid,
                    choice,
                    list,
                });
            }
        }
    }
    views
}

/// A server's conformant view before sending ServerFinished.
struct ServerView {
    a: Prin,
    r1: Rand,
    r2: Rand,
    sid: Sid,
    choice: Choice,
    list: ChoiceList,
    pms: Pms,
}

fn server_views(state: &State, b: Prin) -> Vec<ServerView> {
    let mut views = Vec::new();
    for m1 in state.messages() {
        let (r1, list) = match m1.body {
            Body::Ch { rand, list } if m1.dst == b => (rand, list),
            _ => continue,
        };
        let a = m1.src;
        for m2 in state.messages() {
            let (r2, sid, choice) = match m2.body {
                Body::Sh { rand, sid, choice }
                    if m2.crt == b && m2.src == b && m2.dst == a && list.contains(choice) =>
                {
                    (rand, sid, choice)
                }
                _ => continue,
            };
            // The server must have sent its certificate in this session
            // (the sfin effective-condition conjunct of the symbolic
            // model).
            let has_own_cert = state.messages().any(|m3| {
                matches!(m3.body, Body::Ct { cert }
                    if m3.crt == b && m3.src == b && m3.dst == a && cert == Cert::genuine(b))
            });
            if !has_own_cert {
                continue;
            }
            for m4 in state.messages() {
                let pms = match m4.body {
                    Body::Kx { key_of, pms } if m4.dst == b && m4.src == a && key_of == b => pms,
                    _ => continue,
                };
                let expected_key = SymKey {
                    prin: a,
                    pms,
                    r1,
                    r2,
                };
                let expected_hash = FinHash {
                    kind: FinKind::Client,
                    a,
                    b,
                    sid,
                    list: Some(list),
                    choice,
                    r1,
                    r2,
                    pms,
                };
                let has_cf = state.messages().any(|m5| {
                    matches!(m5.body, Body::Cf { key, hash }
                        if m5.dst == b && m5.src == a
                            && key == expected_key && hash == expected_hash)
                });
                if !has_cf {
                    continue;
                }
                views.push(ServerView {
                    a,
                    r1,
                    r2,
                    sid,
                    choice,
                    list,
                    pms,
                });
            }
        }
    }
    views
}

/// A server's view of a resumption in progress (ch2 received + own sh2).
struct ResumeView {
    a: Prin,
    sid: Sid,
    r1: Rand,
    r2: Rand,
    choice: Choice,
    pms: Pms,
}

fn resume_views(state: &State, b: Prin) -> Vec<ResumeView> {
    let mut views = Vec::new();
    for m1 in state.messages() {
        let (r1, sid) = match m1.body {
            Body::Ch2 { rand, sid } if m1.dst == b => (rand, sid),
            _ => continue,
        };
        let a = m1.src;
        let Some(session) = state.session(b, a, sid) else {
            continue;
        };
        for m2 in state.messages() {
            let r2 = match m2.body {
                Body::Sh2 {
                    rand,
                    sid: s2,
                    choice,
                } if m2.crt == b
                    && m2.src == b
                    && m2.dst == a
                    && s2 == sid
                    && choice == session.choice =>
                {
                    rand
                }
                _ => continue,
            };
            views.push(ResumeView {
                a,
                sid,
                r1,
                r2,
                choice: session.choice,
                pms: session.pms,
            });
        }
    }
    views
}

/// A client's view of a resumption (own ch2 + sh2 received).
struct ClientResumeView {
    b: Prin,
    sid: Sid,
    r1: Rand,
    r2: Rand,
    choice: Choice,
    pms: Pms,
}

fn client_resume_views(state: &State, a: Prin) -> Vec<ClientResumeView> {
    let mut views = Vec::new();
    for m1 in state.messages() {
        let (r1, sid) = match m1.body {
            Body::Ch2 { rand, sid } if m1.crt == a && m1.src == a => (rand, sid),
            _ => continue,
        };
        let b = m1.dst;
        let Some(session) = state.session(a, b, sid) else {
            continue;
        };
        for m2 in state.messages() {
            let r2 = match m2.body {
                Body::Sh2 {
                    rand,
                    sid: s2,
                    choice,
                } if m2.dst == a && m2.src == b && s2 == sid && choice == session.choice => rand,
                _ => continue,
            };
            views.push(ClientResumeView {
                b,
                sid,
                r1,
                r2,
                choice: session.choice,
                pms: session.pms,
            });
        }
    }
    views
}

/// The intruder's moves: replay gleaned ciphertexts under any addressing,
/// construct fresh payloads from known pre-master secrets, and fake
/// clear-text messages (bounded to scope values).
fn intruder_moves(state: &State, pools: &Pools, out: &mut Vec<Move>) {
    let knowledge = Knowledge::glean(state, &pools.intruder_secrets, &pools.trustables);
    let principals = &pools.trustables;
    let list = pools.list;
    // A fake is enabled unless the network already holds its message.
    let mut fake = |kind: MoveKind, msg: Msg| {
        if !state.network.contains(&msg) {
            out.push(Move::send(kind, msg));
        }
    };
    // Clear-text fakes.
    for &src in principals {
        for &dst in principals {
            if src == dst {
                continue;
            }
            for &r in &pools.rands {
                fake(
                    MoveKind::FakeCh,
                    Msg::faked(src, dst, Body::Ch { rand: r, list }),
                );
                for &i in &pools.sids {
                    fake(
                        MoveKind::FakeCh2,
                        Msg::faked(src, dst, Body::Ch2 { rand: r, sid: i }),
                    );
                    for &c in &pools.choices {
                        let (rand, sid, choice) = (r, i, c);
                        fake(
                            MoveKind::FakeSh,
                            Msg::faked(src, dst, Body::Sh { rand, sid, choice }),
                        );
                        fake(
                            MoveKind::FakeSh2,
                            Msg::faked(src, dst, Body::Sh2 { rand, sid, choice }),
                        );
                    }
                }
            }
        }
    }
    // Certificate fakes from gleaned signatures.
    for &src in principals {
        for &dst in principals {
            if src == dst {
                continue;
            }
            for &sig in &knowledge.sigs {
                let cert = Cert {
                    prin: sig.subject,
                    key_of: sig.key_of,
                    sig,
                };
                fake(MoveKind::FakeCt, Msg::faked(src, dst, Body::Ct { cert }));
            }
        }
    }
    // Key-exchange fakes: replay or construct.
    for &src in principals {
        for &dst in principals {
            if src == dst {
                continue;
            }
            for &(key_of, pms) in &knowledge.epms {
                fake(
                    MoveKind::FakeKx1,
                    Msg::faked(src, dst, Body::Kx { key_of, pms }),
                );
            }
            for &pms in &knowledge.pms {
                fake(
                    MoveKind::FakeKx2,
                    Msg::faked(src, dst, Body::Kx { key_of: dst, pms }),
                );
            }
        }
    }
    // Finished fakes: replay gleaned ciphertexts, or construct from known
    // pre-master secrets.
    for &src in principals {
        for &dst in principals {
            if src == dst {
                continue;
            }
            for &(key, hash) in knowledge.ecfin.iter().chain(&knowledge.esfin) {
                let body = if hash.kind == FinKind::Client {
                    Body::Cf { key, hash }
                } else {
                    Body::Sf { key, hash }
                };
                fake(MoveKind::FakeFin1, Msg::faked(src, dst, body));
            }
            for &(key, hash) in knowledge.ecfin2.iter().chain(&knowledge.esfin2) {
                let body = if hash.kind == FinKind::Client2 {
                    Body::Cf2 { key, hash }
                } else {
                    Body::Sf2 { key, hash }
                };
                fake(MoveKind::FakeFin21, Msg::faked(src, dst, body));
            }
            // Construct: the useful shapes name src/dst in the hash (the
            // paper's fakeCfin2/fakeSfin2 patterns).
            for &pms in &knowledge.pms {
                for &r1 in &pools.rands {
                    for &r2 in &pools.rands {
                        for &i in &pools.sids {
                            for &c in &pools.choices {
                                let key = |prin| SymKey { prin, pms, r1, r2 };
                                let hash = |kind, list| FinHash {
                                    kind,
                                    a: src,
                                    b: dst,
                                    sid: i,
                                    list,
                                    choice: c,
                                    r1,
                                    r2,
                                    pms,
                                };
                                fake(
                                    MoveKind::FakeCfin2,
                                    Msg::faked(
                                        src,
                                        dst,
                                        Body::Cf {
                                            key: key(src),
                                            hash: hash(FinKind::Client, Some(list)),
                                        },
                                    ),
                                );
                                fake(
                                    MoveKind::FakeCfin22,
                                    Msg::faked(
                                        src,
                                        dst,
                                        Body::Cf2 {
                                            key: key(src),
                                            hash: hash(FinKind::Client2, None),
                                        },
                                    ),
                                );
                                fake(
                                    MoveKind::FakeSfin2,
                                    Msg::faked(
                                        dst,
                                        src,
                                        Body::Sf {
                                            key: key(dst),
                                            hash: hash(FinKind::Server, Some(list)),
                                        },
                                    ),
                                );
                                fake(
                                    MoveKind::FakeSfin22,
                                    Msg::faked(
                                        dst,
                                        src,
                                        Body::Sf2 {
                                            key: key(dst),
                                            hash: hash(FinKind::Server2, None),
                                        },
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_offers_hellos_and_fakes() {
        let scope = Scope::counterexample();
        let steps = successors(&State::new(), &scope);
        assert!(steps.iter().any(|s| s.label.starts_with("chello(")));
        assert!(steps.iter().any(|s| s.label.starts_with("fakeCh(")));
        // No server moves yet: nothing to answer.
        assert!(!steps.iter().any(|s| s.label.starts_with("shello(")));
    }

    #[test]
    fn a_full_honest_handshake_is_replayable() {
        let scope = Scope::counterexample();
        let (a, b) = (Prin(2), Prin(3));
        let mut state = State::new();
        for expected in [
            "chello(", "shello(", "cert(", "kexch(", "cfin(", "sfin(", "compl(",
        ] {
            let steps = successors(&state, &scope);
            let step = steps
                .iter()
                .find(|s| {
                    s.label.starts_with(expected)
                        && s.label.contains(&a.to_string())
                        && s.label.contains(&b.to_string())
                })
                .unwrap_or_else(|| panic!("no {expected} step from\n{state}"));
            state = step.state.clone();
        }
        assert!(state.session(a, b, Sid(0)).is_some(), "session established");
    }

    #[test]
    fn message_bound_cuts_exploration() {
        let mut scope = Scope::counterexample();
        scope.max_messages = 0;
        assert!(successors(&State::new(), &scope).is_empty());
    }

    #[test]
    fn intruder_constructs_finished_only_with_known_pms() {
        let scope = Scope::counterexample();
        let steps = successors(&State::new(), &scope);
        // With its own secrets, the intruder can always construct some
        // Finished fakes at the initial state.
        assert!(steps.iter().any(|s| s.label.starts_with("fakeCfin2(")));
    }

    #[test]
    fn resumption_follows_an_established_session() {
        let scope = Scope::counterexample();
        let (a, b) = (Prin(2), Prin(3));
        let mut state = State::new();
        state.sessions.insert(
            (a, b, Sid(0)),
            Session {
                choice: Choice(0),
                r1: Rand(0),
                r2: Rand(1),
                pms: Pms {
                    client: a,
                    server: b,
                    secret: Secret(0),
                },
            },
        );
        state.sessions.insert(
            (b, a, Sid(0)),
            Session {
                choice: Choice(0),
                r1: Rand(0),
                r2: Rand(1),
                pms: Pms {
                    client: a,
                    server: b,
                    secret: Secret(0),
                },
            },
        );
        let steps = successors(&state, &scope);
        assert!(steps.iter().any(|s| s.label.starts_with("chello2(")));
    }
}
