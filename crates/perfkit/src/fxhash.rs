//! A deterministic FxHash-style hasher.
//!
//! The classic Firefox/rustc word-at-a-time hash: fold each word into the
//! state with a rotate, an xor, and a multiply by a fixed odd constant.
//! Not collision-resistant against adversarial keys — every key here is
//! simulator-internal (`Key` digests, `TxnId`s, node ids), so speed and
//! determinism win. Hand-written because the build environment is offline
//! (no `rustc-hash` crate); the algorithm is the well-known public one.
//!
//! [`FxHasher::finish`] adds one step the classic hash lacks: the murmur3
//! `fmix64` avalanche over the state. hashbrown picks a bucket from the
//! *low* bits of the hash, and a multiply only carries entropy *upward*,
//! so the raw Fx state keeps whatever the last word had in its high bits
//! out of the bucket index. `Key::from(u64)` stores its id big-endian in
//! bytes 0..8 — read as a little-endian word, a small id sits in bits
//! 40..64 — and pads bytes 8..16 with zeros, so without the finalizer
//! 200k such keys share 32 buckets and a lookup walks thousands of
//! entries. The avalanche folds every state bit into the low bits for a
//! few cycles per hash.

use std::hash::Hasher;

/// Fixed odd multiplier (high-entropy, from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The hasher state. Zero-initialized: same input → same hash, every
/// process, every run.
#[derive(Default, Clone, Copy, Debug)]
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
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            let mut buf = [0u8; 2];
            buf.copy_from_slice(&bytes[..2]);
            self.add_to_hash(u64::from(u16::from_le_bytes(buf)));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The Fx state run through murmur3's `fmix64` avalanche, so every
    /// input bit reaches the low bits hashbrown indexes by.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(b"milana"), hash_of(b"milana"));
        assert_ne!(hash_of(b"milana"), hash_of(b"semel"));
        assert_ne!(hash_of(b"a"), hash_of(b"b"));
    }

    #[test]
    fn covers_every_tail_length() {
        // 0..=16 bytes exercises the 8/4/2/1 ladder; these distinct
        // non-zero inputs should hash distinctly (a smoke check, not a
        // guarantee — an all-zero word folded into zero state stays zero,
        // which is fine for a non-cryptographic hasher).
        let base: Vec<u8> = (1u8..18).collect();
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..=16 {
            assert!(seen.insert(hash_of(&base[..n])), "collision at len {n}");
        }
    }

    #[test]
    fn integer_writes_match_manual_folds() {
        let mut a = FxHasher::default();
        a.write_u64(42);
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u32(42);
        // u32 and u64 writes fold the same word, so they agree — fine for
        // a non-cryptographic hasher, but assert it so a refactor that
        // changes the folding is noticed.
        assert_eq!(c.finish(), a.finish());
    }

    /// Distinct values the low `bits` bits of `finish()` take over `ids`,
    /// each hashed the way `Key::from(u64)`'s derived `Hash` feeds it:
    /// the slice length, then 8 bytes of big-endian id and 8 zero bytes.
    fn low_bit_spread(ids: impl Iterator<Item = u64>, bits: u32) -> usize {
        let mask = (1u64 << bits) - 1;
        let mut seen = std::collections::BTreeSet::new();
        for id in ids {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&id.to_be_bytes());
            let mut h = FxHasher::default();
            h.write_usize(16);
            h.write(&key);
            seen.insert(h.finish() & mask);
        }
        seen.len()
    }

    #[test]
    fn small_ids_spread_over_the_low_bits() {
        // Without the finalizer these 200k ids land in 32 buckets.
        let distinct = low_bit_spread(0..200_000, 18);
        assert!(
            distinct >= 100_000,
            "only {distinct} distinct low-18-bit hashes"
        );
    }

    #[test]
    fn high_bit_ids_spread_over_the_low_bits() {
        // Without the finalizer these 1,024 ids land in 32 buckets.
        let distinct = low_bit_spread((0..1024).map(|i| i << 20), 10);
        assert!(
            distinct >= 512,
            "only {distinct} distinct low-10-bit hashes"
        );
    }
}
