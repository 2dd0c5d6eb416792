//! A multiply-shift [`Hasher`] for small integer keys.
//!
//! The hot-path tables of the simulator and the RPC layer are keyed by
//! 4- and 8-byte integers the program mints itself (addresses, xids,
//! program numbers). SipHash — the standard library's default — defends a
//! table of unbounded size against keys an adversary chose to collide; on
//! these tables that defence buys nothing and costs more than the lookup
//! it protects. [`IntHasher`] folds each integer in with one multiply and
//! takes the high half of the product into the low bits, which is where a
//! hash table looks first.
//!
//! Use it only where collisions cannot be farmed: a table whose keys the
//! program chose, or one whose size is capped (state the cap next to the
//! table). Everything else keeps the default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, odd: the classic Fibonacci-hashing multiplier.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher state: one running 64-bit product.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn fold(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The well-mixed bits of a product are its high ones; the table
        // indexes with the low ones.
        self.0 ^ (self.0 >> 32)
    }

    /// Anything that is not a `u32` is folded eight bytes at a time, which
    /// keeps the hasher total for any `Hash` type (a `u64` is one fold).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }
}

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn sequential_and_strided_keys_spread_over_low_and_high_bits() {
        // What a table uses: the low bits pick the bucket, the top seven
        // tag the entry. Neither may be constant over dense addresses or
        // over keys that differ only in high bits.
        for stride in [1u32, 256, 1 << 16] {
            let hashes: Vec<u64> = (0..1024u32).map(|i| hash_of(i * stride)).collect();
            let low: HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
            let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(low.len() > 512, "stride {stride}: {} buckets", low.len());
            assert_eq!(top.len(), 128, "stride {stride}: tags");
        }
    }

    #[test]
    fn tuple_keys_depend_on_every_field() {
        let base = hash_of((7u32, 4000u32));
        assert_ne!(base, hash_of((8u32, 4000u32)));
        assert_ne!(base, hash_of((7u32, 4001u32)));
        assert_ne!(base, hash_of((4000u32, 7u32)));
        assert_eq!(base, hash_of((7u32, 4000u32)));
    }

    #[test]
    fn maps_and_sets_behave_like_the_default_ones() {
        let mut m: IntMap<u32, &str> = IntMap::default();
        m.insert(1, "a");
        m.insert(1 << 31, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&(1 << 31)), Some(&"b"));
        assert_eq!(m.remove(&1), Some("a"));
    }
}
