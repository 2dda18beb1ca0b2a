//! Deterministic fast hashing for the simulator's hot small-key maps.
//!
//! `std`'s default hasher (SipHash behind `RandomState`) costs tens of
//! nanoseconds per lookup and is seeded randomly per process. The maps
//! probed on the hot paths — the monitor's flows (once per RTP packet),
//! the PBX's Call-ID and per-user tables (several times per SIP message)
//! — are keyed by word-sized integers or short strings, so both
//! properties are wrong there: the cost shows in the event loop and the
//! seeding makes iteration order vary across processes. This multiply-xor
//! hasher (the rustc `FxHash` construction) is deterministic and an order
//! of magnitude cheaper on integer keys.
//!
//! Directed links and PBX media ports used to live here too; their keys
//! are small dense integers, so they are plain arrays now
//! (`netsim::Network`, `pbx_sim`'s port table — DESIGN.md §10).
//!
//! Iteration order of a [`FastMap`] is still arbitrary (bucket order).
//! Callers that fold floats out of one must sort the keys first — see the
//! monitor's report path in `vmon`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style multiply-xor hasher: deterministic and cheap on the
/// word-sized keys the simulator uses. Not DoS-resistant — only for maps
/// whose keys the simulation itself controls.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// A `HashMap` using the deterministic [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn works_as_a_map() {
        let mut m: FastMap<(u32, u32), &str> = FastMap::default();
        m.insert((1, 2), "a");
        m.insert((2, 1), "b");
        assert_eq!(m.get(&(1, 2)), Some(&"a"));
        assert_eq!(m.get(&(2, 1)), Some(&"b"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"hello world, this is long");
        let mut b = FxHasher::default();
        b.write(b"hello world, this is long");
        assert_eq!(a.finish(), b.finish());
    }
}
