//! Benes permutation networks for 64-bit words.
//!
//! Applying a lattice symmetry to a basis state means permuting its bits.
//! A naive implementation walks all `n` bits; a Benes network performs the
//! same permutation in 11 `delta_swap` operations (for 64-bit words),
//! independent of the permutation. The real `lattice-symmetries` package
//! compiles its symmetries to Benes networks as well; this module
//! re-implements that compilation from scratch.
//!
//! A permutation is represented in *destination-from-source* form:
//! `source[i] = j` means output bit `i` takes the value of input bit `j`.

use std::ops::{BitAnd, BitXor, Shl, Shr};

/// Swaps the bit pairs `(i, i + delta)` of `x` for every `i` with
/// `mask` bit `i` set. This is the classic delta-swap primitive, on any
/// unsigned word (a network whose masks fit a narrower word runs in it).
#[inline]
pub fn delta_swap<W>(x: W, mask: W, delta: u32) -> W
where
    W: Copy
        + BitAnd<Output = W>
        + BitXor<Output = W>
        + Shl<u32, Output = W>
        + Shr<u32, Output = W>,
{
    let t = ((x >> delta) ^ x) & mask;
    x ^ t ^ (t << delta)
}

/// Number of delta-swap stages of a 64-bit Benes network.
pub const STAGES: usize = 11;

/// Stage shift amounts: 32, 16, 8, 4, 2, 1, 2, 4, 8, 16, 32.
pub const DELTAS: [u32; STAGES] = [32, 16, 8, 4, 2, 1, 2, 4, 8, 16, 32];

/// A compiled bit permutation: 11 delta-swap stages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenesNetwork {
    masks: [u64; STAGES],
}

impl BenesNetwork {
    /// Compiles the permutation given in destination-from-source form.
    /// `source` must be a permutation of `0..source.len()` with
    /// `source.len() <= 64`; positions `source.len()..64` are fixed.
    ///
    /// # Panics
    /// Panics if `source` is not a permutation.
    pub fn new(source: &[usize]) -> Self {
        assert!(source.len() <= 64, "at most 64 bit positions");
        let mut perm = [0usize; 64];
        let mut seen = [false; 64];
        for (i, slot) in perm.iter_mut().enumerate() {
            let s = if i < source.len() {
                let s = source[i];
                assert!(s < source.len() && !seen[s], "`source` is not a permutation");
                seen[s] = true;
                s
            } else {
                i
            };
            *slot = s;
        }
        let mut masks = [0u64; STAGES];
        // Scratch buffers for the recursion (max block size 64).
        route(&mut masks, &mut perm, 0, 0, 64);
        Self { masks }
    }

    /// The identity permutation (all masks zero).
    pub fn identity() -> Self {
        Self { masks: [0; STAGES] }
    }

    /// Applies the permutation to `x`.
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        let mut x = x;
        // Unconditionally apply all stages: branchless and fast.
        for (&mask, &delta) in self.masks.iter().zip(&DELTAS) {
            x = delta_swap(x, mask, delta);
        }
        x
    }

    /// The raw stage masks, mostly for inspection and tests.
    pub fn masks(&self) -> &[u64; STAGES] {
        &self.masks
    }

    /// True if every stage mask is zero (identity permutation).
    pub fn is_identity(&self) -> bool {
        self.masks.iter().all(|&m| m == 0)
    }
}

/// Applies a destination-from-source permutation naively, bit by bit.
/// Used as the correctness oracle.
#[inline]
pub fn apply_perm_naive(source: &[usize], x: u64) -> u64 {
    let mut res = 0u64;
    for (i, &s) in source.iter().enumerate() {
        res |= ((x >> s) & 1) << i;
    }
    if source.len() < 64 {
        // Bits beyond the permuted range are fixed.
        res |= x & !crate::bits::low_mask(source.len() as u32);
    }
    res
}

/// Recursive Benes routing for the block `perm[off .. off + size]` of
/// block-local sources (values in `0..size` are block-local as well).
///
/// `depth` selects the stage pair: stage `depth` on the way in and stage
/// `STAGES - 1 - depth` on the way out, both with shift `size / 2`.
fn route(
    masks: &mut [u64; STAGES],
    perm: &mut [usize; 64],
    depth: usize,
    off: usize,
    size: usize,
) {
    if size == 1 {
        return;
    }
    let m = size / 2;
    if size == 2 {
        // The middle stage (shift 1) is a single swap.
        if perm[off] == 1 {
            debug_assert_eq!(perm[off + 1], 0);
            masks[STAGES / 2] |= 1u64 << off;
        }
        return;
    }
    let block = &perm[off..off + size];
    // Inverse permutation within the block: inv[source] = output position.
    let mut inv = [usize::MAX; 64];
    for (d, &s) in block.iter().enumerate() {
        inv[s] = d;
    }
    // 2-coloring of outputs: net[d] = false (lower half) / true (upper).
    // Constraints: net[d] != net[d ^ m]  (output pairs share a switch) and
    // net[inv[s]] != net[inv[s ^ m]]    (input pairs share a switch).
    let mut net = [2u8; 64]; // 2 = unassigned
    for d0 in 0..size {
        if net[d0] != 2 {
            continue;
        }
        net[d0] = 0;
        let mut d = d0;
        loop {
            let dp = d ^ m; // output-pair partner
            if net[dp] == 2 {
                net[dp] = 1 - net[d];
            } else {
                debug_assert_eq!(net[dp], 1 - net[d]);
            }
            // Input-pair constraint propagated from dp:
            let d2 = inv[block[dp] ^ m];
            if net[d2] != 2 {
                debug_assert_eq!(net[d2], 1 - net[dp]);
                break;
            }
            net[d2] = 1 - net[dp];
            d = d2;
        }
    }
    // Input stage: element with source j exits at output inv[j]; it must be
    // routed to the upper half iff net[inv[j]] == 1. The swap bit of input
    // pair (j, j + m) is owned by the lower index j.
    for j in 0..m {
        if net[inv[j]] == 1 {
            masks[depth] |= 1u64 << (off + j);
        }
    }
    // Output stage: output pair (i, i + m); lower net delivers at i, upper
    // at i + m; swap when output i wants the upper element.
    for (i, &route_up) in net.iter().enumerate().take(m) {
        if route_up == 1 {
            masks[STAGES - 1 - depth] |= 1u64 << (off + i);
        }
    }
    // Build the two sub-permutations in place.
    let mut lower = [0usize; 32];
    let mut upper = [0usize; 32];
    for b in 0..m {
        let (d_low, d_up) = if net[b] == 0 { (b, b ^ m) } else { (b ^ m, b) };
        lower[b] = block[d_low] & (m - 1);
        upper[b] = block[d_up] & (m - 1);
    }
    perm[off..off + m].copy_from_slice(&lower[..m]);
    perm[off + m..off + size].copy_from_slice(&upper[..m]);
    route(masks, perm, depth + 1, off, m);
    route(masks, perm, depth + 1, off + m, m);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_apply(source: &[usize], x: u64) -> u64 {
        let mut res = 0u64;
        for (i, &s) in source.iter().enumerate() {
            res |= ((x >> s) & 1) << i;
        }
        if source.len() < 64 {
            res |= x & !crate::bits::low_mask(source.len() as u32);
        }
        res
    }

    #[test]
    fn identity() {
        let id: Vec<usize> = (0..64).collect();
        let net = BenesNetwork::new(&id);
        assert!(net.is_identity());
        for x in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(net.apply(x), x);
        }
    }

    #[test]
    fn swap_two_bits() {
        // Swap bits 0 and 1 of a 4-bit system.
        let net = BenesNetwork::new(&[1, 0, 2, 3]);
        assert_eq!(net.apply(0b0001), 0b0010);
        assert_eq!(net.apply(0b0010), 0b0001);
        assert_eq!(net.apply(0b0100), 0b0100);
        assert_eq!(net.apply(0b1010), 0b1001);
    }

    #[test]
    fn rotation_matches_rotate_low_bits() {
        // Translation on a ring: site i -> i+1 (mod n), i.e. output bit
        // (i+1)%n reads input bit i: source[(i+1)%n] = i, so
        // source[j] = (j + n - 1) % n.
        for n in [2u32, 3, 5, 8, 13, 24, 48, 64] {
            let source: Vec<usize> =
                (0..n as usize).map(|j| (j + n as usize - 1) % n as usize).collect();
            let net = BenesNetwork::new(&source);
            for seed in 0..200u64 {
                let x = crate::hash::hash64_01(seed) & crate::bits::low_mask(n);
                assert_eq!(
                    net.apply(x),
                    crate::bits::rotate_low_bits(x, n, 1),
                    "n={n} x={x:#b}"
                );
            }
        }
    }

    #[test]
    fn reversal_matches_reverse_low_bits() {
        for n in [2u32, 4, 7, 16, 33, 64] {
            let source: Vec<usize> = (0..n as usize).map(|j| n as usize - 1 - j).collect();
            let net = BenesNetwork::new(&source);
            for seed in 0..200u64 {
                let x = crate::hash::hash64_01(seed) & crate::bits::low_mask(n);
                assert_eq!(net.apply(x), crate::bits::reverse_low_bits(x, n));
            }
        }
    }

    #[test]
    fn random_permutations_match_naive() {
        // Deterministic pseudo-random permutations via Fisher-Yates driven
        // by the hash kernel.
        let mut rng_state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng_state = crate::hash::hash64_01(rng_state.wrapping_add(0x9e3779b97f4a7c15));
            rng_state
        };
        for n in [2usize, 3, 5, 12, 17, 40, 64] {
            for _ in 0..20 {
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
                let net = BenesNetwork::new(&perm);
                for _ in 0..50 {
                    let x = next() & crate::bits::low_mask(n as u32);
                    assert_eq!(net.apply(x), reference_apply(&perm, x), "n={n}");
                }
                // High bits must stay fixed:
                let x = next();
                assert_eq!(
                    net.apply(x) & !crate::bits::low_mask(n as u32),
                    x & !crate::bits::low_mask(n as u32)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutation() {
        let _ = BenesNetwork::new(&[0, 0, 1]);
    }

    #[test]
    fn composition_of_networks() {
        // Applying two networks one after another equals the composed
        // permutation. comp[i] = a[b[i]]: first apply a, then b.
        let a = [2usize, 0, 3, 1, 4, 5, 7, 6];
        let b = [1usize, 3, 5, 7, 0, 2, 4, 6];
        let net_a = BenesNetwork::new(&a);
        let net_b = BenesNetwork::new(&b);
        let comp: Vec<usize> = (0..8).map(|i| a[b[i]]).collect();
        let net_c = BenesNetwork::new(&comp);
        for x in 0..256u64 {
            assert_eq!(net_b.apply(net_a.apply(x)), net_c.apply(x));
        }
    }
}
