//! The daemon's warm state: compiled specs.
//!
//! A one-shot CLI run pays two cold-start costs per campaign: parsing
//! and compiling the TLS spec (term interning, rule compilation, LPO
//! precedence) and building the discrimination-tree `PathIndex`. The
//! daemon pays both once per model family and then serves every
//! subsequent request from the warm copies: the **pristine models**
//! (standard and §5.3 variant) are built lazily, held in `Arc`s, and
//! *cloned* per request — a `Spec` clone shares the already-built
//! `PathIndex` through its `OnceLock<Arc<_>>`, so request clones skip
//! both the parse and the index build.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use equitls_tls::symbolic::TlsModel;

/// Warm-path hit counters, exposed through `stats` responses and the
/// serve bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStats {
    /// Models built from scratch (cold starts; at most 2 per daemon).
    pub model_builds: u64,
    /// Requests served from an already-warm model.
    pub model_reuses: u64,
}

/// The resident state. One per engine; freely shared across workers.
#[derive(Debug, Default)]
pub struct WarmState {
    standard: OnceLock<Arc<TlsModel>>,
    variant: OnceLock<Arc<TlsModel>>,
    builds: AtomicU64,
    reuses: AtomicU64,
}

impl WarmState {
    /// A fresh, entirely cold state.
    pub fn new() -> Self {
        WarmState::default()
    }

    /// The pristine model for the family, building (and pre-indexing)
    /// it on first use. Callers clone the returned model per request;
    /// the clone shares the pre-built rule index.
    pub fn model(&self, variant: bool) -> Arc<TlsModel> {
        let slot = if variant {
            &self.variant
        } else {
            &self.standard
        };
        let mut built = false;
        let model = slot.get_or_init(|| {
            built = true;
            let model = if variant {
                TlsModel::variant()
            } else {
                TlsModel::standard()
            }
            .expect("the built-in TLS spec compiles");
            // Build the discrimination-tree index once on the pristine
            // rule set; every request clone then shares it by `Arc`.
            model.spec.rules().path_index(model.spec.store());
            Arc::new(model)
        });
        if built {
            self.builds.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(model)
    }

    /// Whether the family's model is already warm (without building it).
    pub fn is_warm(&self, variant: bool) -> bool {
        if variant {
            self.variant.get().is_some()
        } else {
            self.standard.get().is_some()
        }
    }

    /// The hit counters.
    pub fn stats(&self) -> WarmStats {
        WarmStats {
            model_builds: self.builds.load(Ordering::Relaxed),
            model_reuses: self.reuses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_built_once_and_reused() {
        let warm = WarmState::new();
        assert!(!warm.is_warm(false));
        let a = warm.model(false);
        assert!(warm.is_warm(false));
        let b = warm.model(false);
        assert!(Arc::ptr_eq(&a, &b), "second request reuses the warm model");
        let stats = warm.stats();
        assert_eq!(stats.model_builds, 1);
        assert_eq!(stats.model_reuses, 1);
    }
}
