//! Deterministic hash collections.
//!
//! `std`'s default `RandomState` seeds itself differently on every process
//! start, so `HashMap` iteration order — and therefore any simulation
//! decision derived from it — varies run to run. That breaks the
//! bit-for-bit reproducibility the benchmark harness depends on (`ch-lint`
//! rule R1 rejects default-hasher maps in determinism-critical crates).
//!
//! [`DetHashMap`] / [`DetHashSet`] swap in the Fx hash function
//! (Firefox's multiply-xor hash, as popularized by `rustc-hash`): fixed
//! seed, no per-process state, and faster than SipHash on the small keys
//! (MACs, SSIDs, u64 ids) the simulation uses. Iteration order is then a
//! pure function of the insertion history, which a seeded simulation
//! replays identically.
//!
//! [`FxHasher::finish`] rotates the state before handing it out, as
//! `rustc-hash` 2.x does. A multiply only carries entropy upward: the low
//! bits of a Fx product depend only on the low bits of its input. The
//! table picks a bucket from the *low* bits of the hash, and structured
//! keys keep their shared part there — a `MacAddr` hashes its three OUI
//! bytes into the low 24 bits of the word, and every phone of one city
//! district shares that OUI. Without the rotation all of a district's
//! clients fall on one probe sequence and each lookup walks the whole
//! cluster; rotating moves the well-mixed high bits into the bucket
//! index.

// This module is the sanctioned place that re-binds std's maps with an
// explicit deterministic hasher.
use std::collections::{HashMap, HashSet}; // ch-lint: allow(default-hasher)
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the deterministic Fx hasher.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the deterministic Fx hasher.
pub type DetHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// An empty [`DetHashMap`] (the alias cannot use `HashMap::new`, which is
/// only defined for the default hasher).
pub fn det_hash_map<K, V>() -> DetHashMap<K, V> {
    DetHashMap::default()
}

/// An empty [`DetHashMap`] with room for `capacity` entries.
pub fn det_hash_map_with_capacity<K, V>(capacity: usize) -> DetHashMap<K, V> {
    DetHashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

/// An empty [`DetHashSet`].
pub fn det_hash_set<T>() -> DetHashSet<T> {
    DetHashSet::default()
}

/// An empty [`DetHashSet`] with room for `capacity` entries.
pub fn det_hash_set_with_capacity<T>(capacity: usize) -> DetHashSet<T> {
    DetHashSet::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-xor hash. Deterministic across processes and platforms
/// with 64-bit `usize`; not DoS-resistant, which is fine for simulation
/// state keyed by generated identifiers.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" ++ "" and "a" ++ "b" differ.
            self.add_to_hash(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
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

    #[inline]
    fn finish(&self) -> u64 {
        // The high bits are the well-mixed ones; the table indexes with
        // the low bits (see the module doc).
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn hashing_is_process_independent() {
        // A fixed key must hash identically on every call and every run —
        // the property RandomState deliberately breaks.
        let mut a = FxHasher::default();
        a.write(b"PCCW1x");
        let mut b = FxHasher::default();
        b.write(b"PCCW1x");
        assert_eq!(a.finish(), b.finish());
        assert_eq!(
            {
                let mut h = FxHasher::default();
                h.write_u64(0xdead_beef);
                h.finish()
            },
            {
                let mut h = FxHasher::default();
                h.write_u64(0xdead_beef);
                h.finish()
            }
        );
    }

    #[test]
    fn tail_bytes_and_length_distinguish_keys() {
        let digest = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(digest(b"ab"), digest(b"ba"));
        assert_ne!(digest(b"a"), digest(b"a\0"));
        assert_ne!(digest(b"1234567890"), digest(b"123456789"));
    }

    #[test]
    fn shared_prefix_keys_spread_over_low_bits() {
        // 4,096 six-byte keys that share a 3-byte prefix and count up in
        // the rest, hashed the way a derived `Hash` on `MacAddr` hashes
        // them: the MACs of one district's phones. A 4,096-bucket table
        // indexes with the low 12 bits of `finish()`; without the
        // finalizer every key lands in the same bucket. A uniform hash
        // fills about 1 - 1/e = 63 % of them.
        let mut buckets = det_hash_set_with_capacity(4096);
        for i in 0..4096u32 {
            let [_, a, b, c] = i.to_be_bytes();
            let mut h = FxHasher::default();
            [0x02u8, 0x1c, 0xb3, a, b, c].hash(&mut h);
            buckets.insert(h.finish() & 0xfff);
        }
        assert!(buckets.len() >= 2300, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let build = || {
            let mut map = det_hash_map_with_capacity(64);
            for i in 0..64u64 {
                map.insert(i.wrapping_mul(0x9e37_79b9), i);
            }
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn set_constructors_work() {
        let mut set = det_hash_set();
        assert!(set.insert("a"));
        assert!(!set.insert("a"));
        let set2: DetHashSet<u8> = det_hash_set_with_capacity(16);
        assert!(set2.capacity() >= 16);
    }
}
