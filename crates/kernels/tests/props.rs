//! Property-based tests for the kernel layer.

use ls_kernels::bits::{
    ceil_with_weight, low_mask, next_same_weight, reverse_low_bits, rotate_low_bits,
    FixedWeightRange,
};
use ls_kernels::combinadics::BinomialTable;
use ls_kernels::net::{apply_perm_naive, BenesNetwork};
use ls_kernels::search::{HashIndex, NOT_FOUND};
use ls_kernels::sort::{apply_perm, counting_sort_perm};
use ls_kernels::{hash64_01, locale_idx_of};
use proptest::prelude::*;

fn arb_perm(n: usize) -> impl Strategy<Value = Vec<usize>> {
    Just((0..n).collect::<Vec<usize>>()).prop_shuffle()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn benes_matches_naive(n in 1usize..=64, seed in any::<u64>(), x in any::<u64>()) {
        // Derive a permutation from the seed deterministically.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = hash64_01(state.wrapping_add(i as u64));
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let net = BenesNetwork::new(&perm);
        prop_assert_eq!(net.apply(x), apply_perm_naive(&perm, x));
    }

    #[test]
    fn benes_is_bijective(perm in arb_perm(16), xs in proptest::collection::vec(any::<u64>(), 2)) {
        let net = BenesNetwork::new(&perm);
        let a = xs[0] & low_mask(16);
        let b = xs[1] & low_mask(16);
        if a != b {
            prop_assert_ne!(net.apply(a), net.apply(b));
        }
    }

    #[test]
    fn gosper_preserves_weight_and_grows(v in 1u64..u64::MAX) {
        if let Some(w) = next_same_weight(v) {
            prop_assert!(w > v);
            prop_assert_eq!(w.count_ones(), v.count_ones());
            // There is nothing with the same weight strictly between.
            // (Spot-check a few candidates rather than the full gap.)
            for d in 1..=3u64 {
                if v + d < w {
                    prop_assert_ne!((v + d).count_ones(), v.count_ones());
                }
            }
        }
    }

    #[test]
    fn ceil_with_weight_is_minimal(x in any::<u64>(), n in 1u32..=20, w in 0u32..=20) {
        prop_assume!(w <= n);
        let x = x & low_mask(n);
        match ceil_with_weight(x, n, w) {
            Some(y) => {
                prop_assert!(y >= x);
                prop_assert_eq!(y.count_ones(), w);
                prop_assert!(y <= low_mask(n));
                // Minimality: x..y contains nothing of weight w. Scanning the
                // whole gap can be huge; sample its ends.
                let gap = y - x;
                for d in 0..gap.min(64) {
                    prop_assert_ne!((x + d).count_ones(), w);
                }
            }
            None => {
                // No weight-w value at or above x below 2^n: the largest
                // weight-w value must be below x.
                let max_w = if w == 0 { 0 } else { low_mask(w) << (n - w) };
                prop_assert!(max_w < x || w > n);
            }
        }
    }

    #[test]
    fn rank_orders_like_integers(n in 2u32..=16, seed in any::<u64>()) {
        let w = (seed % (n as u64 + 1)) as u32;
        let t = BinomialTable::new();
        let states: Vec<u64> = FixedWeightRange::all(n, w).collect();
        for pair in states.windows(2) {
            prop_assert!(t.rank(pair[0]) < t.rank(pair[1]));
        }
    }

    #[test]
    fn unrank_inverts_rank(n in 2u32..=40, r in any::<u64>()) {
        let w = n / 2;
        let t = BinomialTable::new();
        let dim = t.choose(n, w);
        let r = r % dim;
        let s = t.unrank(r, n, w);
        prop_assert_eq!(t.rank(s), r);
        prop_assert_eq!(s.count_ones(), w);
    }

    #[test]
    fn rotation_composes(n in 1u32..=64, k1 in 0u32..64, k2 in 0u32..64, x in any::<u64>()) {
        let x = x & low_mask(n);
        let a = rotate_low_bits(rotate_low_bits(x, n, k1 % n), n, k2 % n);
        let b = rotate_low_bits(x, n, (k1 % n + k2 % n) % n);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reverse_is_involution(n in 1u32..=64, x in any::<u64>()) {
        let x = x & low_mask(n);
        prop_assert_eq!(reverse_low_bits(reverse_low_bits(x, n), n), x);
    }

    #[test]
    fn locale_idx_in_range(s in any::<u64>(), l in 1usize..=4096) {
        prop_assert!(locale_idx_of(s, l) < l);
    }

    #[test]
    fn counting_sort_is_stable_permutation(
        keys in proptest::collection::vec(0u16..32, 0..500),
    ) {
        let mut perm = Vec::new();
        let mut offsets = Vec::new();
        counting_sort_perm(&keys, 32, &mut perm, &mut offsets);
        // perm is a permutation:
        let mut seen = vec![false; keys.len()];
        for &p in &perm {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        // output is grouped by key and stable:
        let vals: Vec<u64> = (0..keys.len() as u64).collect();
        let mut out = Vec::new();
        apply_perm(&perm, &vals, &mut out);
        let mut expect: Vec<(u16, u64)> = keys.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(out, expect.into_iter().map(|(_, v)| v).collect::<Vec<_>>());
    }

    #[test]
    fn hash_index_agrees_with_binary_search(
        mut states in proptest::collection::vec(any::<u64>(), 0..300),
        probes in proptest::collection::vec(any::<u64>(), 50),
        n_bits in prop_oneof![Just(64u32), 1u32..64],
    ) {
        // Words of an `n_bits`-wide space; 64 is `sites·bits == 64`.
        let mask = if n_bits == 64 { u64::MAX } else { (1 << n_bits) - 1 };
        for s in &mut states {
            *s &= mask;
        }
        states.sort_unstable();
        states.dedup();
        let idx = HashIndex::new(&states, n_bits);
        // Members, their one-bit near-misses, free words (absent unless
        // they collide), the extremes.
        let near = states.iter().zip(&probes).map(|(&s, &p)| s ^ 1 << (p % 64));
        let free = probes.iter().flat_map(|&p| [p & mask, p]);
        let all: Vec<u64> =
            states.iter().copied().chain(near).chain(free).chain([0, u64::MAX]).collect();
        let mut batch = Vec::new();
        idx.lookup_batch(&states, &all, &mut batch);
        for (&p, &b) in all.iter().zip(&batch) {
            let expect = states.binary_search(&p).ok();
            prop_assert_eq!(idx.lookup(&states, p), expect);
            prop_assert_eq!(b, expect.map_or(NOT_FOUND, |i| i as u32));
        }
        // The empty and one-element arrays of the same space.
        for small in [&states[..0], &states[..states.len().min(1)]] {
            let idx = HashIndex::new(small, n_bits);
            for &p in &all {
                prop_assert_eq!(idx.lookup(small, p), small.binary_search(&p).ok());
            }
        }
    }
}
