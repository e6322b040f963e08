//! A deterministic, fast, non-cryptographic hasher (the FxHash algorithm
//! used by rustc), plus map/set type aliases built on it.
//!
//! The match network and conflict set are hash-table heavy; SipHash (the
//! std default) costs measurably more per lookup than Fx for the short
//! integer keys that dominate here. We also want *cross-run determinism*
//! (std's RandomState seeds differ per process), so that engine traces and
//! bench tables are reproducible. HashDoS resistance is irrelevant for a
//! rule engine evaluating trusted programs.
//!
//! [`fnv1a`] is the other hash: the one whose values leave the process
//! (rule content hashes, session shard placement), so it must never
//! change.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiplicative constant from the FxHash algorithm
/// (derived from the golden ratio, as in rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The FxHash streaming hasher. Hashes machine words by
/// rotate-xor-multiply; bytes are packed into words first.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
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
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized and deterministic.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("parulel"), hash_of("parulel"));
    }

    #[test]
    fn distinguishes_nearby_values() {
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of("ab"), hash_of("ab\0"));
        assert_ne!(hash_of(""), hash_of("\0"));
    }

    #[test]
    fn word_and_byte_paths_disagree_is_ok_but_each_is_stable() {
        // write_u64 and write(&bytes) are different streams; we only
        // require each to be internally stable.
        let mut h1 = FxHasher::default();
        h1.write_u64(0xdead_beef);
        let mut h2 = FxHasher::default();
        h2.write_u64(0xdead_beef);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn set_dedupes() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i % 10);
        }
        assert_eq!(s.len(), 10);
    }
}
