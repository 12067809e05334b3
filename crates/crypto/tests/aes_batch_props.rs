//! Property tests for the runtime-dispatched crypto paths.
//!
//! `encrypt_batch` (AES-NI where the host has it) must agree with the
//! portable T-table pass (`encrypt_batch_ttable`) and with the byte-wise
//! FIPS-197 reference rounds (`encrypt_reference`) for every pipeline
//! width 1..=8, any key and any blocks; `gf64_mul` (PCLMULQDQ where the
//! host has it) must agree with the bit-serial `gf64_mul_soft`. The
//! fallbacks are public, so these run both sides on any host — the
//! oracles that license routing all OTP/MAC work through the dispatched
//! paths.

use emcc_crypto::mac::{gf64_mul, gf64_mul_soft};
use emcc_crypto::Aes128;
use proptest::prelude::*;

fn block_of(hi: u64, lo: u64) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&hi.to_be_bytes());
    b[8..].copy_from_slice(&lo.to_be_bytes());
    b
}

/// xorshift64*: eight decorrelated blocks from one seed (the proptest
/// shim's tuple strategies cap out before 16 u64s).
fn blocks_from_seed(seed: u64) -> [[u8; 16]; 8] {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    std::array::from_fn(|_| block_of(next(), next()))
}

proptest! {
    /// Dispatched ≡ T-table ≡ reference for every width: each lane of an
    /// N-wide batch must be exactly the byte-wise single-block
    /// encryption of its input, on both batch paths.
    #[test]
    fn batch_matches_reference_at_every_width(
        key_hi in any::<u64>(),
        key_lo in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let aes = Aes128::new(block_of(key_hi, key_lo));
        let blocks = blocks_from_seed(seed);
        macro_rules! check_width {
            ($($n:literal),+) => {$({
                let input: &[[u8; 16]; $n] = blocks[..$n].try_into().unwrap();
                let out = aes.encrypt_batch(input);
                prop_assert_eq!(out, aes.encrypt_batch_ttable(input));
                for (block, ct) in input.iter().zip(&out) {
                    prop_assert_eq!(*ct, aes.encrypt_reference(*block));
                }
            })+};
        }
        check_width!(1, 2, 3, 4, 5, 6, 7, 8);
    }

    /// Lane independence: a batch must produce the same ciphertexts as
    /// eight separate single-block calls (no cross-lane contamination).
    #[test]
    fn batch_lanes_are_independent(
        key_hi in any::<u64>(),
        key_lo in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let aes = Aes128::new(block_of(key_hi, key_lo));
        let blocks = blocks_from_seed(seed);
        let batched = aes.encrypt_batch(&blocks);
        for (block, ct) in blocks.iter().zip(&batched) {
            prop_assert_eq!(*ct, aes.encrypt(*block));
        }
    }

    /// The u64-pair batch wrapper packs exactly like `encrypt_u64_pair`.
    #[test]
    fn u64_pair_batch_matches_scalar(
        key_hi in any::<u64>(),
        key_lo in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let aes = Aes128::new(block_of(key_hi, key_lo));
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let pairs: [(u64, u64); 4] = std::array::from_fn(|_| (next(), next()));
        let batched = aes.encrypt_u64_pairs(&pairs);
        for ((hi, lo), ct) in pairs.iter().zip(&batched) {
            prop_assert_eq!(*ct, aes.encrypt_u64_pair(*hi, *lo));
        }
    }

    /// The carry-less multiply agrees with the bit-serial oracle on
    /// random pairs and on the edge operands.
    #[test]
    fn gf64_mul_matches_soft(a in any::<u64>(), b in any::<u64>()) {
        for x in [a, 0, 1, 1 << 63, u64::MAX] {
            for y in [b, 0, 1, 1 << 63, u64::MAX] {
                prop_assert_eq!(gf64_mul(x, y), gf64_mul_soft(x, y));
            }
        }
    }
}
