//! The normalizer's caches: dense slot arrays indexed by [`TermId`].
//!
//! A [`TermCache`] maps term ids to values the way a hash map would, but
//! stores slot *i* at `slots[i]` for the term with `TermId::index() == i`.
//! Hash-consing hands out term ids densely, so the array is as long as the
//! largest id the cache has seen, and a lookup is one bounds check and
//! one load.
//!
//! Every slot carries the epoch it was written in. A slot is live only
//! while its epoch is the cache's current one, so [`TermCache::clear`] is
//! an epoch bump, not a sweep. Epoch 0 is never current: it marks a slot
//! that holds nothing.
//!
//! ## Scopes
//!
//! [`TermCache::push`] saves the current epoch and live-entry count. While
//! a scope is open, every write first logs the slot's previous raw
//! content (epoch and value), and [`TermCache::pop`] replays that log
//! backwards and restores the saved epoch and count. Every slot then holds
//! what it held at the push, and the same slots are live, whether or not
//! the scope cleared in between. A slot whose epoch is newer than the
//! innermost scope's saved epoch was already written, and logged, inside
//! that scope, so it is not logged again.
//!
//! Epochs restart at each pop, so they grow only with the clears along the
//! current chain of open scopes. An epoch about to wrap resets the cache
//! instead ([`TermCache::reset`]): every slot, at every open level, is
//! emptied.

use equitls_kernel::prelude::TermId;

/// One slot: the epoch it was last written in and its value.
#[derive(Debug, Clone, Copy)]
struct Slot<V> {
    epoch: u32,
    value: V,
}

/// What [`TermCache::pop`] restores: the epoch and live-entry count at the
/// push, and where the push's part of the write log starts.
#[derive(Debug, Clone, Copy)]
struct Saved {
    epoch: u32,
    len: usize,
    log: usize,
}

/// A map from term ids to `V`, with O(1) clears and scopes (see the
/// [module documentation](self)).
#[derive(Debug)]
pub(crate) struct TermCache<V> {
    slots: Vec<Slot<V>>,
    /// The current epoch; never 0.
    epoch: u32,
    /// Live entries: slots whose epoch is `epoch`.
    len: usize,
    /// The previous raw content of each slot written while a scope is
    /// open, oldest first, as `(index, slot)`.
    log: Vec<(u32, Slot<V>)>,
    /// Open scopes, innermost last.
    scopes: Vec<Saved>,
}

impl<V: Copy + PartialEq> TermCache<V> {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        TermCache {
            slots: Vec::new(),
            epoch: 1,
            len: 0,
            log: Vec::new(),
            scopes: Vec::new(),
        }
    }

    /// The value cached for `key`, if any.
    pub(crate) fn get(&self, key: TermId) -> Option<V> {
        match self.slots.get(key.index()) {
            Some(slot) if slot.epoch == self.epoch => Some(slot.value),
            _ => None,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Cache `value` for `key`, replacing any live value.
    pub(crate) fn insert(&mut self, key: TermId, value: V) {
        let i = key.index();
        if i >= self.slots.len() {
            // New slots hold nothing; `value` only fills the space.
            self.slots.resize(i + 1, Slot { epoch: 0, value });
        }
        let old = self.slots[i];
        if old.epoch == self.epoch {
            if old.value == value {
                return;
            }
        } else {
            self.len += 1;
        }
        if let Some(scope) = self.scopes.last() {
            if old.epoch <= scope.epoch {
                self.log.push((i as u32, old));
            }
        }
        self.slots[i] = Slot {
            epoch: self.epoch,
            value,
        };
    }

    /// Drop every live entry. Open scopes get theirs back at their pops.
    pub(crate) fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.reset();
        } else {
            self.epoch += 1;
            self.len = 0;
        }
    }

    /// Empty the cache at every level: no open scope gets an entry back at
    /// its pop.
    pub(crate) fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.epoch = 0;
        }
        self.log.clear();
        self.epoch = 1;
        self.len = 0;
        for scope in &mut self.scopes {
            *scope = Saved {
                epoch: 1,
                len: 0,
                log: 0,
            };
        }
    }

    /// Open a scope.
    pub(crate) fn push(&mut self) {
        self.scopes.push(Saved {
            epoch: self.epoch,
            len: self.len,
            log: self.log.len(),
        });
    }

    /// Close the innermost scope, restoring every slot, the epoch and the
    /// live-entry count to what they were at its push.
    ///
    /// # Panics
    ///
    /// When no scope is open.
    pub(crate) fn pop(&mut self) {
        let saved = self.scopes.pop().expect("TermCache::pop without push");
        for (i, slot) in self.log.drain(saved.log..).rev() {
            self.slots[i as usize] = slot;
        }
        self.epoch = saved.epoch;
        self.len = saved.len;
    }

    /// The live entries as `(TermId::index(), value)`, in index order.
    #[cfg(test)]
    pub(crate) fn visible(&self) -> Vec<(usize, V)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.epoch == self.epoch)
            .map(|(i, slot)| (i, slot.value))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equitls_kernel::prelude::*;

    /// `n` distinct term ids.
    fn ids(n: usize) -> Vec<TermId> {
        let mut sig = Signature::new();
        let s = sig.add_visible_sort("S").unwrap();
        let mut store = TermStore::new(sig);
        (0..n).map(|_| store.fresh_constant("t", s)).collect()
    }

    #[test]
    fn clear_and_pop_restore_exactly_the_pushed_entries() {
        let t = ids(4);
        let mut cache = TermCache::new();
        cache.insert(t[0], 10u32);
        cache.insert(t[1], 11);
        let root = cache.visible();
        cache.push();
        cache.insert(t[2], 12); // a new entry, logged
        cache.insert(t[0], 20); // an overwrite, logged
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(t[1]), None);
        cache.insert(t[1], 21);
        cache.insert(t[3], 23);
        assert_eq!(cache.visible().len(), cache.len());
        cache.pop();
        assert_eq!(cache.visible(), root);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(t[0]), Some(10));
    }

    #[test]
    fn an_epoch_about_to_wrap_resets_every_level() {
        let t = ids(3);
        let mut cache = TermCache::new();
        cache.insert(t[0], 1u32);
        cache.push();
        cache.insert(t[1], 2);
        // Jump to the last epoch, as after 2^32 - 2 clears in the scope.
        cache.epoch = u32::MAX;
        cache.len = 0;
        cache.insert(t[2], 3);
        cache.clear();
        assert_eq!(cache.epoch, 1, "the wrap restarted the epochs");
        assert!(cache.visible().is_empty());
        cache.insert(t[1], 4);
        assert_eq!(cache.visible(), vec![(t[1].index(), 4)]);
        cache.pop();
        assert!(cache.visible().is_empty(), "the reset reached the parent");
        assert_eq!(cache.len(), 0);
        cache.insert(t[0], 5);
        assert_eq!(cache.get(t[0]), Some(5));
    }
}
