//! Stable counting/radix sorts used to partition matrix-row output by
//! destination locale.
//!
//! The batched matrix-vector product (paper Sec. 5.3, "Computing multiple
//! rows at once") generates `(basis state, coefficient)` pairs whose
//! destination locales are scattered; before issuing remote puts, the pairs
//! are grouped per destination with a stable, linear-time counting sort.
//! Stability matters: it preserves the generation order within each
//! destination, which downstream code relies on for reproducibility.

/// Computes the stable counting-sort permutation of `keys` into
/// `num_buckets` buckets.
///
/// After the call, `perm` holds, for each input position `i`, the output
/// position `perm[i]`, and `offsets` holds the exclusive prefix sums of the
/// bucket sizes (length `num_buckets + 1`), i.e. bucket `b` occupies output
/// range `offsets[b] .. offsets[b + 1]`.
///
/// Both output vectors are cleared and refilled — callers reuse them across
/// invocations to stay allocation-free in steady state.
pub fn counting_sort_perm(
    keys: &[u16],
    num_buckets: usize,
    perm: &mut Vec<u32>,
    offsets: &mut Vec<u32>,
) {
    assert!(keys.len() <= u32::MAX as usize);
    offsets.clear();
    offsets.resize(num_buckets + 1, 0);
    for &k in keys {
        debug_assert!((k as usize) < num_buckets, "key out of range");
        offsets[k as usize + 1] += 1;
    }
    for b in 0..num_buckets {
        offsets[b + 1] += offsets[b];
    }
    perm.clear();
    perm.resize(keys.len(), 0);
    let mut cursor: Vec<u32> = offsets[..num_buckets].to_vec();
    for (i, &k) in keys.iter().enumerate() {
        let c = &mut cursor[k as usize];
        perm[i] = *c;
        *c += 1;
    }
}

/// Scatters `src` into `dst` according to a permutation produced by
/// [`counting_sort_perm`]: `dst[perm[i]] = src[i]`.
///
/// `dst` is overwritten and resized to `src.len()`.
pub fn apply_perm<T: Copy + Default>(perm: &[u32], src: &[T], dst: &mut Vec<T>) {
    assert_eq!(perm.len(), src.len());
    dst.clear();
    dst.resize(src.len(), T::default());
    for (i, &p) in perm.iter().enumerate() {
        dst[p as usize] = src[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let mut perm = Vec::new();
        let mut offsets = Vec::new();
        counting_sort_perm(&[], 4, &mut perm, &mut offsets);
        assert!(perm.is_empty());
        assert_eq!(offsets, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn matches_std_stable_sort() {
        // Compare against Vec::sort_by_key (which is stable) on pseudo
        // random data.
        let n = 10_000usize;
        let buckets = 37usize;
        let keys: Vec<u16> = (0..n)
            .map(|i| (crate::hash::hash64_01(i as u64) % buckets as u64) as u16)
            .collect();
        let vals: Vec<u64> = (0..n as u64).collect();

        let mut perm = Vec::new();
        let mut offsets = Vec::new();
        counting_sort_perm(&keys, buckets, &mut perm, &mut offsets);
        let mut ours = Vec::new();
        apply_perm(&perm, &vals, &mut ours);

        let mut expect: Vec<(u16, u64)> =
            keys.iter().copied().zip(vals.iter().copied()).collect();
        expect.sort_by_key(|&(k, _)| k);
        let expect: Vec<u64> = expect.into_iter().map(|(_, v)| v).collect();
        assert_eq!(ours, expect);

        // Offsets must match bucket boundaries.
        for b in 0..buckets {
            let lo = offsets[b] as usize;
            let hi = offsets[b + 1] as usize;
            for i in lo..hi {
                assert_eq!(keys[ours[i] as usize] as usize, b);
            }
        }
    }
}
