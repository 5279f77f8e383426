//! Message authentication codes and block encryption on top of OTPs.
//!
//! Following Figure 2b of the paper, a block's MAC is the bitwise XOR of a
//! one-time pad with a Galois-field dot product of the block's eight 64-bit
//! words against eight secret keys, truncated to 56 bits. The dot product is
//! "highly parallel" (§II-C) and therefore fast; the AES producing the pad is
//! the slow part that counter caching / memoization hides.

use crate::clmul::clmul64;
use crate::otp::BlockPads;

/// Bytes in a memory data block.
pub const BLOCK_BYTES: usize = 64;

/// A 64-byte memory block as raw bytes.
pub type DataBlock = [u8; BLOCK_BYTES];

/// Width of a stored MAC in bits (§II-B: "a 56-bit MAC").
pub const MAC_BITS: u32 = 56;

/// Mask selecting the stored 56 MAC bits.
pub const MAC_MASK: u64 = (1 << MAC_BITS) - 1;

/// Multiplies two elements of GF(2^64) with the standard reduction
/// polynomial `x^64 + x^4 + x^3 + x + 1`.
pub fn gf64_mul(a: u64, b: u64) -> u64 {
    let wide = clmul64(a, b);
    reduce_gf64(wide)
}

/// Reduces a 128-bit carry-less product modulo `x^64 + x^4 + x^3 + x + 1`.
#[allow(clippy::cast_possible_truncation)] // two folds leave the high half zero
fn reduce_gf64(mut wide: u128) -> u64 {
    // x^64 ≡ x^4 + x^3 + x + 1 (0b11011 = 0x1b). Multiplying the high half
    // by that sparse constant is four shifted copies — no general clmul.
    for _ in 0..2 {
        let hi = wide >> 64;
        if hi == 0 {
            break;
        }
        let folded = hi ^ (hi << 1) ^ (hi << 3) ^ (hi << 4);
        wide = (wide & 0xffff_ffff_ffff_ffff) ^ folded;
    }
    wide as u64
}

/// The eight GF(2^64) keys used in the MAC dot product, plus precomputed
/// 4-bit-window multiplication tables.
///
/// `tables[w][j][n]` holds `(n · x^(4j)) ⊗ keys[w]` — the GF(2^64) product
/// of nibble value `n` placed at nibble position `j` of a word with key
/// `w`. Multiplication distributes over XOR, so a word's full key product
/// is the XOR of its sixteen windowed entries: the per-block MAC path does
/// table lookups and XORs only, with no carry-less multiply at all.
#[derive(Clone)]
pub struct MacKeys {
    keys: [u64; 8],
    tables: Box<[[[u64; 16]; 16]; 8]>,
}

impl std::fmt::Debug for MacKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MacKeys").finish_non_exhaustive()
    }
}

impl MacKeys {
    /// Derives eight non-zero dot-product keys from a seed.
    pub fn from_seed(seed: u64) -> Self {
        // SplitMix64: a tiny, well-distributed PRNG sufficient for deriving
        // simulation keys.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut keys = [0u64; 8];
        for k in keys.iter_mut() {
            loop {
                let v = next();
                if v != 0 {
                    *k = v;
                    break;
                }
            }
        }
        let mut tables = Box::new([[[0u64; 16]; 16]; 8]);
        for (k, word_tables) in keys.iter().zip(tables.iter_mut()) {
            for (j, nibble_table) in word_tables.iter_mut().enumerate() {
                for (n, slot) in nibble_table.iter_mut().enumerate() {
                    // audit:allow(R5, reason = "one-time key-table build at seed time; gf64_mul is a fixed 64-round shift/xor ladder regardless of operand values")
                    *slot = gf64_mul((n as u64) << (4 * j), *k);
                }
            }
        }
        MacKeys { keys, tables }
    }

    /// The raw dot-product keys, one per 64-bit word of the block.
    pub fn words(&self) -> &[u64; 8] {
        &self.keys
    }

    /// The GF dot product of a block's eight 64-bit words with the keys,
    /// via the precomputed window tables (see the type docs).
    pub fn dot_product(&self, block: &DataBlock) -> u64 {
        let mut acc = 0u64;
        for (chunk, word_tables) in block.chunks_exact(8).zip(self.tables.iter()) {
            // Big-endian byte fold — same value as `u64::from_be_bytes`
            // without the fallible slice-to-array conversion.
            let word = chunk.iter().fold(0u64, |w, &b| (w << 8) | u64::from(b));
            for (j, nibble_table) in word_tables.iter().enumerate() {
                let n = ((word >> (4 * j)) & 0xf) as usize;
                acc ^= nibble_table.get(n).copied().unwrap_or(0);
            }
        }
        acc
    }
}

/// Computes the stored 56-bit MAC for a block: `truncate(dot ⊕ pad)`.
///
/// # Examples
///
/// ```
/// use rmcc_crypto::mac::{compute_mac, MacKeys, MAC_MASK};
///
/// let keys = MacKeys::from_seed(9);
/// let mac = compute_mac(&keys, &[0u8; 64], 0xdead_beef);
/// assert!(mac <= MAC_MASK);
/// ```
#[allow(clippy::cast_possible_truncation)] // the fold below is the truncation
pub fn compute_mac(keys: &MacKeys, block: &DataBlock, mac_pad: u128) -> u64 {
    // XOR-and-truncate (Figure 2b): fold the 128-bit pad to 64 bits, XOR
    // with the dot product, keep 56 bits.
    let pad64 = (mac_pad as u64) ^ ((mac_pad >> 64) as u64);
    (keys.dot_product(block) ^ pad64) & MAC_MASK
}

/// Verifies a stored MAC; `true` means the block is authentic.
pub fn verify_mac(keys: &MacKeys, block: &DataBlock, mac_pad: u128, stored: u64) -> bool {
    compute_mac(keys, block, mac_pad) == stored
}

/// XORs a block with its four word pads — encryption and decryption are the
/// same operation in counter mode.
pub fn xor_with_pads(block: &DataBlock, pads: &BlockPads) -> DataBlock {
    let mut out = [0u8; BLOCK_BYTES];
    for ((dst, src), word) in out
        .chunks_exact_mut(16)
        .zip(block.chunks_exact(16))
        .zip(pads.words.iter())
    {
        for ((d, s), p) in dst
            .iter_mut()
            .zip(src.iter())
            .zip(word.to_be_bytes().iter())
        {
            *d = s ^ p;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otp::{KeySet, OtpPipeline, RmccOtp, SgxOtp};

    #[test]
    fn gf64_identity_and_zero() {
        assert_eq!(gf64_mul(0, 0xdead), 0);
        assert_eq!(gf64_mul(1, 0xdead), 0xdead);
        assert_eq!(gf64_mul(0xdead, 1), 0xdead);
    }

    #[test]
    fn gf64_reduction_vector() {
        // x^63 * x = x^64 ≡ x^4 + x^3 + x + 1 = 0x1b.
        assert_eq!(gf64_mul(1 << 63, 2), 0x1b);
    }

    #[test]
    fn gf64_commutative_associative() {
        let a = 0x0123_4567_89ab_cdef;
        let b = 0xfedc_ba98_7654_3210;
        let c = 0x0f1e_2d3c_4b5a_6978;
        assert_eq!(gf64_mul(a, b), gf64_mul(b, a));
        assert_eq!(gf64_mul(gf64_mul(a, b), c), gf64_mul(a, gf64_mul(b, c)));
        // Distributivity over XOR.
        assert_eq!(gf64_mul(a, b ^ c), gf64_mul(a, b) ^ gf64_mul(a, c));
    }

    #[test]
    fn windowed_dot_product_matches_direct_gf_fold() {
        // The window tables are an optimization only: the dot product must
        // equal the direct word-by-word GF multiply against the raw keys.
        for seed in [0u64, 1, 0xfeed, u64::MAX] {
            let keys = MacKeys::from_seed(seed);
            for fill in 0..8u8 {
                let mut block = [0u8; BLOCK_BYTES];
                for (i, b) in block.iter_mut().enumerate() {
                    *b = (i as u8)
                        .wrapping_mul(37)
                        .wrapping_add(fill.wrapping_mul(53));
                }
                let direct =
                    block
                        .chunks_exact(8)
                        .zip(keys.words().iter())
                        .fold(0u64, |acc, (chunk, k)| {
                            let word = chunk.iter().fold(0u64, |w, &b| (w << 8) | u64::from(b));
                            acc ^ gf64_mul(word, *k)
                        });
                assert_eq!(keys.dot_product(&block), direct, "seed {seed} fill {fill}");
            }
        }
    }

    #[test]
    fn mac_detects_single_bit_flips() {
        let keys = MacKeys::from_seed(1);
        let mut block = [0u8; BLOCK_BYTES];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as u8;
        }
        let pad = 0x1111_2222_3333_4444_5555_6666_7777_8888u128;
        let mac = compute_mac(&keys, &block, pad);
        for byte in 0..BLOCK_BYTES {
            for bit in 0..8 {
                let mut tampered = block;
                tampered[byte] ^= 1 << bit;
                assert!(
                    !verify_mac(&keys, &tampered, pad, mac),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn mac_depends_on_pad() {
        let keys = MacKeys::from_seed(1);
        let block = [7u8; BLOCK_BYTES];
        assert_ne!(compute_mac(&keys, &block, 1), compute_mac(&keys, &block, 2));
    }

    #[test]
    fn mac_fits_in_56_bits() {
        let keys = MacKeys::from_seed(3);
        for i in 0..32u64 {
            let block = [i as u8; BLOCK_BYTES];
            assert!(compute_mac(&keys, &block, i as u128) <= MAC_MASK);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_both_pipelines() {
        let keys = KeySet::from_master(55);
        let pipelines: [&dyn OtpPipeline; 2] =
            [&SgxOtp::new(keys.clone()), &RmccOtp::new(keys.clone())];
        let mut plain = [0u8; BLOCK_BYTES];
        for (i, b) in plain.iter_mut().enumerate() {
            *b = (i * 3) as u8;
        }
        for (i, p) in pipelines.into_iter().enumerate() {
            let pads = p.block_pads(0x80, 41);
            let cipher = xor_with_pads(&plain, &pads);
            assert_ne!(cipher, plain, "pipeline {i} must not be identity");
            assert_eq!(xor_with_pads(&cipher, &pads), plain);
        }
    }

    #[test]
    fn ciphertext_changes_when_counter_changes() {
        // Counter-mode security: the same plaintext written twice (with the
        // bumped counter) must produce different ciphertext.
        let p = RmccOtp::new(KeySet::from_master(8));
        let plain = [0xabu8; BLOCK_BYTES];
        let c1 = xor_with_pads(&plain, &p.block_pads(5, 100));
        let c2 = xor_with_pads(&plain, &p.block_pads(5, 101));
        assert_ne!(c1, c2);
    }
}
