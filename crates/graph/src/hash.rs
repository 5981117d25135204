//! Deterministic hashing: the workhorse behind communication-free graph
//! generation (both endpoints of an edge must derive identical weights and
//! cell contents without talking to each other) and the fast hash tables
//! used by the parallel-edge filter (Sec. VI-B).

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer — a strong 64-bit mixer, the one the fault
/// plans draw from too.
pub use kamsta_comm::fault::splitmix64 as mix64;

/// Combine two values into one hash (order-sensitive).
#[inline]
pub fn hash2(a: u64, b: u64) -> u64 {
    mix64(mix64(a) ^ b.rotate_left(32))
}

/// Combine three values into one hash (order-sensitive).
#[inline]
pub fn hash3(a: u64, b: u64, c: u64) -> u64 {
    mix64(hash2(a, b) ^ c.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Symmetric pair hash: `sym_hash(u, v, s) == sym_hash(v, u, s)` — both
/// directions of an undirected edge agree.
#[inline]
pub fn sym_hash(u: u64, v: u64, seed: u64) -> u64 {
    hash3(u.min(v), u.max(v), seed)
}

/// A uniform `f64` in `[0, 1)` from a hash value.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An FxHash-style multiply-rotate hasher: low quality, very fast on
/// integer keys — the profile the parallel-edge hash filter needs
/// (the table must stay cache-resident, Sec. VI-B).
#[derive(Default)]
pub struct FxHasher64 {
    state: u64,
}

const ROTATE: u32 = 5;
const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ n).wrapping_mul(SEED64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap`/`HashSet` build-hasher for integer-keyed tables.
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A fast integer-keyed hash map.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A fast integer-keyed hash set.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_sample() {
        // Distinct inputs must give distinct outputs on a sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn sym_hash_is_symmetric_and_seeded() {
        assert_eq!(sym_hash(3, 9, 42), sym_hash(9, 3, 42));
        assert_ne!(sym_hash(3, 9, 42), sym_hash(3, 9, 43));
        assert_ne!(sym_hash(3, 9, 42), sym_hash(3, 10, 42));
    }

    #[test]
    fn unit_f64_in_range_and_spread() {
        let mut lo = false;
        let mut hi = false;
        for i in 0..1000 {
            let x = unit_f64(mix64(i));
            assert!((0.0..1.0).contains(&x));
            lo |= x < 0.1;
            hi |= x > 0.9;
        }
        assert!(lo && hi, "hash output should cover the unit interval");
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&50), Some(&100));
        assert_eq!(m.len(), 100);
    }
}
