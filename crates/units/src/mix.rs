//! SplitMix64 mixing — the one implementation of the finalizer that every
//! crate's deterministic seeding and fingerprinting derives from.
//!
//! Three copies of this function used to live in `platform::experiment`
//! (campaign seed derivation), `openadas::plausibility` (stuck-stream
//! fingerprints) and `faultinj` (per-fault random streams). They were
//! bit-identical by convention only; hoisting them here makes the
//! convention structural.

/// The SplitMix64 finalizer: adds the 64-bit golden-ratio increment and
/// applies the xor-multiply avalanche. Bijective, so distinct inputs never
/// collide; the avalanche makes output bits independent of input structure.
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic seed mixing: folds each part into the state with one
/// SplitMix64 step. Campaigns use this so run seeds are reproducible and
/// paired campaigns (e.g. alert vs. inattentive driver) share world seeds.
pub fn mix_seed(base: u64, parts: &[u64]) -> u64 {
    let mut x = base;
    for &p in parts {
        x = splitmix64(x.wrapping_add(p));
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vector() {
        // First output of the SplitMix64 stream from seed 0, as published
        // in the reference implementation (Steele et al.).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn mix_seed_is_order_and_base_sensitive() {
        assert_eq!(mix_seed(1, &[2, 3]), mix_seed(1, &[2, 3]));
        assert_ne!(mix_seed(1, &[2, 3]), mix_seed(1, &[3, 2]));
        assert_ne!(mix_seed(1, &[2, 3]), mix_seed(2, &[2, 3]));
    }

    #[test]
    fn mix_seed_matches_unrolled_finalizer() {
        // One part: mix_seed(base, &[p]) must equal splitmix64(base + p) —
        // the algebraic identity the hoist from platform relied on.
        assert_eq!(mix_seed(7, &[11]), splitmix64(7u64.wrapping_add(11)));
    }
}
