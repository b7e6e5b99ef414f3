//! A fast, non-cryptographic hasher for small integer keys.
//!
//! The std `HashMap` hashes with SipHash, which resists collision attacks
//! but costs far more than the hot maps of the verifier need: their keys
//! are dense ids, letters and small tuples of them, produced by the
//! verifier itself. This is the multiply-rotate hash of the Firefox and
//! rustc compilers ("Fx"): one rotate, xor and multiply per word, and a
//! final rotate that moves the well-mixed high bits to where `HashMap`
//! takes its bucket index.
//!
//! # Example
//!
//! ```
//! use automata::fxhash::FxHashMap;
//!
//! let mut m: FxHashMap<(u32, u32), bool> = FxHashMap::default();
//! m.insert((1, 2), true);
//! assert_eq!(m.get(&(1, 2)), Some(&true));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The Fx hasher state.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
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
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(value: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_values_hash_equal_and_neighbours_differ() {
        assert_eq!(hash((3u32, 4u64)), hash((3u32, 4u64)));
        assert_ne!(hash((3u32, 4u64)), hash((4u32, 3u64)));
        assert_ne!(hash(vec![1u32, 2]), hash(vec![1u32, 2, 0]));
        assert_ne!(hash([0u8; 3].as_slice()), hash([0u8; 4].as_slice()));
    }

    #[test]
    fn dense_ids_spread_over_low_bits() {
        // `HashMap` indexes buckets by the low bits: consecutive ids must
        // not collide there.
        let mut low: Vec<u64> = (0u32..256).map(|i| hash(i) & 0xff).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }
}
