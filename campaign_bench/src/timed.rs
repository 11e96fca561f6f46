//! Observation-only timing wrappers for the model checker's inputs.
//!
//! The explorer is timed from outside: [`TimedModel`] wraps any
//! [`Model`] and [`monitors`] wraps the program's §5 monitor functions.
//! Both only add clock reads around the calls they forward, so the
//! exploration they feed is identical to the unwrapped one (pinned by
//! `tests/observation.rs`).

use equitls_mc::explorer::Monitor;
use equitls_mc::model::Model;
use equitls_tls::concrete::{props, Scope, State};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Accumulated time and call count of one layer, shared by threads.
#[derive(Debug, Default)]
pub struct Clock {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: no other data is published through these.
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Total time inside the layer, summed over threads.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Calls into the layer.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A [`Model`] whose successor and state-codec calls are timed.
#[derive(Debug, Default)]
pub struct TimedModel<M> {
    /// The wrapped model.
    pub inner: M,
    /// `Model::successors` calls.
    pub successors: Clock,
    /// Successor states returned, summed over calls.
    pub successors_out: AtomicU64,
    /// `Model::encode_state` and `Model::decode_state` calls.
    pub codec: Clock,
}

impl<M> TimedModel<M> {
    /// Wrap `inner` with zeroed clocks.
    pub fn new(inner: M) -> Self {
        TimedModel {
            inner,
            successors: Clock::default(),
            successors_out: AtomicU64::new(0),
            codec: Clock::default(),
        }
    }
}

impl<M: Model> Model for TimedModel<M> {
    type State = M::State;

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn successors(&self, state: &Self::State) -> Vec<(String, Self::State)> {
        let out = self.successors.time(|| self.inner.successors(state));
        self.successors_out
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn encode_state(&self, state: &Self::State) -> Option<Vec<u8>> {
        self.codec.time(|| self.inner.encode_state(state))
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<Self::State> {
        self.codec.time(|| self.inner.decode_state(bytes))
    }
}

/// A boxed monitor predicate.
pub type Predicate<'a> = Box<dyn Fn(&State) -> bool + 'a>;

/// The program's §5 monitors over `scope`, as explorer predicates, each
/// call timed on `clock`. Mirrors how `equitls_mc::check` builds them;
/// their `expected` flags are ignored (see [`crate::reference`]).
pub fn monitors<'a>(scope: &Scope, clock: &'a Clock) -> Vec<(&'static str, Predicate<'a>)> {
    props::monitors()
        .into_iter()
        .map(|(name, f, _expected)| {
            let scope = scope.clone();
            let predicate: Predicate<'a> = Box::new(move |s: &State| clock.time(|| f(s, &scope)));
            (name, predicate)
        })
        .collect()
}

/// Borrow boxed predicates as the explorer's monitor slice.
pub fn as_monitors<'a>(boxed: &'a [(&'static str, Predicate<'_>)]) -> Vec<Monitor<'a, State>> {
    boxed
        .iter()
        .map(|(name, f)| (*name, f.as_ref() as &dyn Fn(&State) -> bool))
        .collect()
}
