//! A fast, deterministic hasher for [`ObjectKey`](crate::ObjectKey) maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of nanoseconds
//! per lookup — measurable when the simulator hashes tens of millions of
//! keys per experiment. Cache keys here are simulator-internal (never
//! attacker-controlled), so the rustc/Firefox "Fx" multiply-xor hash is
//! the right trade: one rotate, one xor, one multiply per 8-byte word.
//!
//! Determinism note: unlike `RandomState`, [`FxHasher`] has no per-process
//! seed, so map behaviour is identical across runs *and* the policies
//! never iterate their maps — bucket order can never leak into results
//! either way.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` alias used by [`LruCache`](crate::LruCache) (the simulator's
/// default policy — the other policies keep std's hasher since they are
/// ablation-only), the engine's in-flight table, and the planner's memos.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc hash: word-at-a-time multiply-xor. Not DoS-resistant — only
/// use for internal keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectKey;
    use std::hash::BuildHasher;

    fn hash_of(key: ObjectKey) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn stable_across_calls() {
        let k = ObjectKey::new(3, 917);
        assert_eq!(hash_of(k), hash_of(k));
    }

    #[test]
    fn distinguishes_site_and_object() {
        assert_ne!(hash_of(ObjectKey::new(1, 2)), hash_of(ObjectKey::new(2, 1)));
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<ObjectKey, u32> = FxHashMap::default();
        for i in 0..10_000u32 {
            m.insert(ObjectKey::new(i % 7, i), i);
        }
        for i in 0..10_000u32 {
            assert_eq!(m.get(&ObjectKey::new(i % 7, i)), Some(&i));
        }
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential object ranks (the workload's hot pattern) must not
        // collapse into few buckets: check low-bits dispersion, which is
        // what HashMap actually indexes with.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u32 {
            low_bits.insert(hash_of(ObjectKey::new(0, i)) & 0xff);
        }
        assert!(low_bits.len() > 128, "only {} distinct", low_bits.len());
    }

    #[test]
    fn write_path_matches_wordwise_path() {
        // Hash derives via #[derive(Hash)] on two u32 fields; ensure the
        // byte-slice fallback produces *some* deterministic value too.
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let a = h.finish();
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a, h.finish());
    }
}
