//! SipHash-1-3 with zero keys: the simulator's pinned hash.
//!
//! The simulator's randomness and the prompt fingerprint are hashes, so
//! every measured number depends on the hash function. `std`'s
//! `DefaultHasher` leaves its algorithm unspecified (it may change with
//! the toolchain); [`SipHasher13`] fixes it. It is the algorithm
//! `DefaultHasher::new()` runs as of rustc 1.95, and the `Hash` impls feed
//! both the same bytes, so every output equals one computed with
//! `DefaultHasher`; this module's tests compare the two.
//!
//! Input is absorbed a little-endian 64-bit word at a time, with partial
//! words buffered across `write` calls, as `std` does.

use std::hash::Hasher;

/// SipHash-1-3 (one compression round per word, three finalization
/// rounds) with both keys zero.
#[derive(Debug, Clone)]
pub struct SipHasher13 {
    v: [u64; 4],
    /// Pending bytes of an incomplete word, little-endian.
    tail: u64,
    /// Number of pending bytes in `tail` (0..8).
    ntail: usize,
    /// Total bytes written.
    length: usize,
}

impl Default for SipHasher13 {
    fn default() -> SipHasher13 {
        SipHasher13::new()
    }
}

impl SipHasher13 {
    /// A hasher with both keys zero.
    pub fn new() -> SipHasher13 {
        SipHasher13 {
            v: [
                0x736f6d6570736575,
                0x646f72616e646f6d,
                0x6c7967656e657261,
                0x7465646279746573,
            ],
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    #[inline]
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, word: u64) {
        self.v[3] ^= word;
        SipHasher13::round(&mut self.v);
        self.v[0] ^= word;
    }
}

/// Up to 7 bytes as a little-endian word, in at most three loads.
#[inline]
fn le_tail(bytes: &[u8]) -> u64 {
    let (mut word, mut i) = (0u64, 0);
    if bytes.len() >= 4 {
        word = u64::from(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
        i = 4;
    }
    if bytes.len() - i >= 2 {
        word |= u64::from(u16::from_le_bytes([bytes[i], bytes[i + 1]])) << (8 * i);
        i += 2;
    }
    if i < bytes.len() {
        word |= u64::from(bytes[i]) << (8 * i);
    }
    word
}

impl Hasher for SipHasher13 {
    #[inline]
    fn write(&mut self, mut msg: &[u8]) {
        self.length += msg.len();
        if self.ntail != 0 {
            let take = msg.len().min(8 - self.ntail);
            self.tail |= le_tail(&msg[..take]) << (8 * self.ntail);
            self.ntail += take;
            msg = &msg[take..];
            if self.ntail < 8 {
                return;
            }
            self.compress(self.tail);
            self.ntail = 0;
        }
        let mut words = msg.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("an 8-byte chunk");
            self.compress(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        self.tail = le_tail(rest);
        self.ntail = rest.len();
    }

    /// One byte, as `write(&[i])` hashes it, without the slice handling
    /// (every `str` ends with one).
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.length += 1;
        self.tail |= u64::from(i) << (8 * self.ntail);
        self.ntail += 1;
        if self.ntail == 8 {
            self.compress(self.tail);
            self.tail = 0;
            self.ntail = 0;
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut v = self.v;
        let b = ((self.length as u64 & 0xff) << 56) | self.tail;
        v[3] ^= b;
        SipHasher13::round(&mut v);
        v[0] ^= b;
        v[2] ^= 0xff;
        for _ in 0..3 {
            SipHasher13::round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hash;

    fn both<T: Hash + ?Sized>(value: &T) -> (u64, u64) {
        let mut ours = SipHasher13::new();
        let mut std = DefaultHasher::new();
        value.hash(&mut ours);
        value.hash(&mut std);
        (ours.finish(), std.finish())
    }

    #[test]
    fn splitting_the_input_does_not_change_the_hash() {
        let msg: Vec<u8> = (0u8..40).collect();
        let whole = {
            let mut h = SipHasher13::new();
            h.write(&msg);
            h.finish()
        };
        for cut in 0..msg.len() {
            let mut h = SipHasher13::new();
            h.write(&msg[..cut]);
            h.write(&msg[cut..]);
            assert_eq!(h.finish(), whole, "split at {cut}");
        }
        let (ours, std) = both("");
        assert_eq!(ours, std);
    }

    proptest! {
        #[test]
        fn equals_default_hasher_on_multi_part_strings(
            parts in prop::collection::vec("\\PC{0,40}", 0..8),
        ) {
            let (ours, std) = {
                let mut ours = SipHasher13::new();
                let mut std = DefaultHasher::new();
                for p in &parts {
                    p.as_str().hash(&mut ours);
                    p.as_str().hash(&mut std);
                }
                (ours.finish(), std.finish())
            };
            prop_assert_eq!(ours, std);
        }

        #[test]
        fn equals_default_hasher_on_the_prompt_fingerprint_shape(
            lemmas in prop::collection::vec("[a-z_0-9]{1,24}", 0..12),
            hints in prop::collection::vec(("[a-z_]{1,16}", "\\PC{0,60}"), 0..6),
            tokens in 0usize..200_000,
        ) {
            let (ours, std) = both(&(lemmas, hints, tokens));
            prop_assert_eq!(ours, std);
        }
    }
}
