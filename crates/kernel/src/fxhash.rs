//! A fast, non-cryptographic hasher for tables keyed by dense ids.
//!
//! The standard library's SipHash resists hash flooding, which matters
//! only when an adversary chooses the keys. The kernel's and the rewrite
//! engine's hot tables are keyed by [`crate::term::TermId`]s, operator,
//! sort and variable ids that the program itself hands out, so they use
//! this Fx-style multiply-rotate hash instead (the scheme of the Rust
//! compiler's `FxHasher`): one add and one multiply per word, and a final
//! rotation that brings the well-mixed high product bits down to the low
//! bits the table's bucket index reads. Maps keyed by strings or by
//! outside input keep the std hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (from `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The Fx-style hasher; see the [module documentation](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 59));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s for `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]. Create one with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of<T: std::hash::Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_dense_ids_spread() {
        assert_eq!(hash_of(7u32), hash_of(7u32));
        // Dense ids must not collide in the low bits a small table reads.
        let mut low: Vec<u64> = (0u32..256).map(|i| hash_of(i) & 0xff).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn byte_strings_differ_by_length_and_content() {
        assert_ne!(hash_of("ab"), hash_of("ab\0"));
        assert_ne!(hash_of("abcdefgh1"), hash_of("abcdefgh2"));
        let mut map: FxHashMap<String, u32> = FxHashMap::default();
        map.insert("x".into(), 1);
        assert_eq!(map.get("x"), Some(&1));
    }
}
