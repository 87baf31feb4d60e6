//! The hash function used for the hashed distribution of basis states.
//!
//! This is a bit-exact port of the paper's `hash64_01` (Sec. 5.1), itself
//! the finalization step of `splitmix64`. Mixing all input bits gives a
//! close-to-uniform assignment of basis states to locales, which is what
//! guarantees load balance of both memory and matrix-row work.

/// The paper's `hash64_01`: the splitmix64 finalizer.
#[inline]
pub fn hash64_01(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The paper's `localeIdxOf`: which locale owns basis state `state` in a
/// cluster of `num_locales` locales, `hash64_01(state) mod num_locales`.
/// A power-of-two count takes the remainder with a mask — the same
/// mapping without a 64-bit division per routed matrix element.
#[inline]
pub fn locale_idx_of(state: u64, num_locales: usize) -> usize {
    debug_assert!(num_locales > 0);
    let (hash, n) = (hash64_01(state), num_locales as u64);
    (if n.is_power_of_two() { hash & (n - 1) } else { hash % n }) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values() {
        // The splitmix64 finalizer maps 0 to 0 (every step preserves 0).
        assert_eq!(hash64_01(0), 0);
        // Determinism + difference:
        assert_eq!(hash64_01(42), hash64_01(42));
        assert_ne!(hash64_01(42), hash64_01(43));
    }

    // Re-implementation used as an independent cross-check in tests.
    fn test_ref(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    #[test]
    fn matches_reference_on_many_inputs() {
        for i in 0..10_000u64 {
            let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(hash64_01(x), test_ref(x));
        }
    }

    #[test]
    fn locale_assignment_is_balanced() {
        // Hash the weight-8 states of a 16-site system onto 7 locales; each
        // locale should receive close to 1/7 of the states.
        let num_locales = 7;
        let mut counts = vec![0usize; num_locales];
        let mut total = 0usize;
        for s in crate::bits::FixedWeightRange::all(16, 8) {
            counts[locale_idx_of(s, num_locales)] += 1;
            total += 1;
        }
        let expect = total as f64 / num_locales as f64;
        for &c in &counts {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.05, "imbalance {rel} too large: {counts:?}");
        }
    }

    #[test]
    fn power_of_two_mask_is_the_remainder() {
        // Every distributed pin rests on this mapping: the mask must deal
        // exactly the parts `%` deals, on mixed words and on the
        // fixed-weight words a basis holds.
        let mixed = (0..4096u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let states: Vec<u64> = mixed.chain(crate::bits::FixedWeightRange::all(14, 7)).collect();
        for n in 1..=64usize {
            for &s in &states {
                assert_eq!(
                    locale_idx_of(s, n) as u64,
                    hash64_01(s) % n as u64,
                    "n={n} s={s:#x}"
                );
            }
        }
    }

    #[test]
    fn single_locale_owns_everything() {
        for s in 0..100u64 {
            assert_eq!(locale_idx_of(s, 1), 0);
        }
    }
}
