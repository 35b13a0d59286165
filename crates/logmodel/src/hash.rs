//! A fast, deterministic hasher for the ingest hot path.
//!
//! The pipeline's per-record maps and sets (fold memos, distinct-domain
//! sets, contact-graph builders) are keyed by 4-byte symbols, host ids, and
//! IPv4 addresses. `std`'s default SipHash costs more than the surrounding
//! work for such keys; [`FastHasher`] is an FxHash-style multiply-rotate
//! hash that collapses a `u32` key to a single multiply.
//!
//! Two properties matter here beyond speed:
//!
//! - **Determinism.** No per-process random seed, so two runs (or two chunk
//!   splits) hash identically. Every structure whose contents reach a
//!   snapshot or report is sorted before encoding, so iteration order never
//!   leaks — but determinism still makes perf runs and debugging stable.
//! - **Not DoS-hardened.** Keys are interned symbols and addresses from
//!   already-admitted telemetry, not attacker-chosen strings aimed at a
//!   public hash table; the flooding-resistance SipHash buys is not needed
//!   on this path.
//!
//! The interner string tables (`crate::intern`) use the hash one step more
//! directly: they hash a name's bytes once with `hash_str` and key a
//! `Prehashed` (pass-through) map by that `u64`, so the map stores no
//! strings and a copy of it re-hashes nothing. Names *are* strings from the
//! wire, and the note above still holds because the hash is never trusted
//! as identity: every probe is verified against the stored bytes, so two
//! names engineered to share all 64 bits cost each other one extra probe —
//! never a wrong symbol — and flooding one chain costs the flooder a
//! distinct admitted log line per step.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash (the golden-ratio-derived odd constant used by
/// rustc's interners).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style multiply-rotate hasher. See the module docs for when
/// this is (and is not) an appropriate choice.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("slice of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`FastHasher`] hash of a string's bytes, computed once by the caller
/// and then used *as* the key of a [`PrehashedState`] map — how the interner
/// string tables index their arena.
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h = FastHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// A pass-through hasher for maps whose `u64` keys are already hashes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Prehashed {
    hash: u64,
}

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("prehashed maps are keyed by u64 only");
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = v;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` state for [`Prehashed`].
pub(crate) type PrehashedState = BuildHasherDefault<Prehashed>;

/// `BuildHasher` state for [`FastHasher`] (zero-sized, deterministic).
pub type FastState = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` keyed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FastState::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_states() {
        assert_eq!(hash_of(42u32), hash_of(42u32));
        assert_eq!(hash_of("nbc.com"), hash_of("nbc.com"));
    }

    #[test]
    fn small_keys_spread() {
        // Sequential symbol numbers must not collide in low or high bits
        // (hashbrown uses the top 7 bits for control tags).
        let mut tops = FastSet::default();
        let mut lows = FastSet::default();
        for k in 0u32..10_000 {
            let h = hash_of(k);
            tops.insert(h >> 57);
            lows.insert(h & 0x7F);
        }
        assert!(tops.len() > 100, "top bits collapse: {}", tops.len());
        assert!(lows.len() > 100, "low bits collapse: {}", lows.len());
    }

    #[test]
    fn string_prefixes_differ() {
        assert_ne!(hash_of("a"), hash_of("aa"));
        assert_ne!(hash_of(""), hash_of("\0"));
    }

    #[test]
    fn maps_behave_normally() {
        let mut m: FastMap<String, u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert(format!("d{i}.example.com"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get("d512.example.com"), Some(&512));
    }
}
