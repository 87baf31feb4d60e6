//! Basis enumeration: filtering the 2^N bitstring range down to valid
//! representatives (the shared-memory analogue of the paper's Fig. 4).
//!
//! The iteration space is split into chunks; each chunk is filtered
//! independently on the persistent pool (chunks are claimed dynamically,
//! which matters here: representative density varies wildly across the
//! range, so statically pre-assigned chunks would load-imbalance), and
//! the chunk results are concatenated in range order, which keeps the
//! final list sorted — binary-search ranking depends on that. The result
//! is identical for any chunk count and any thread count. A symmetrized
//! sector tests each fixed-weight candidate with the group's `RepFilter`
//! (in `rep`), derived once per enumeration; a trivial group keeps the
//! plain Gosper loop.

use crate::rep::RepFilter;
use crate::sector::{ChargeMask, SectorSpec};
use ls_kernels::bits::{field_sum, FixedWeightRange};
use ls_kernels::CodedRange;
use rayon::prelude::*;

/// A filtered chunk: representatives and their orbit sizes.
#[derive(Default)]
pub struct Chunk {
    pub states: Vec<u64>,
    pub orbit_sizes: Vec<u32>,
}

/// Filters one sub-range `[lo, hi)` of the raw iteration space.
pub fn filter_range(sector: &SectorSpec, lo: u64, hi: u64) -> Chunk {
    filter_range_with(sector, rep_filter(sector).as_ref(), lo, hi)
}

/// The candidate filter of `sector`'s group, derived once per
/// enumeration. A trivial group has none: it keeps the plain loop, where
/// every candidate is its own representative.
fn rep_filter(sector: &SectorSpec) -> Option<RepFilter> {
    let group = sector.group();
    (group.order() > 1).then(|| RepFilter::new(group))
}

/// [`filter_range`] with the group's filter already derived.
fn filter_range_with(
    sector: &SectorSpec,
    filter: Option<&RepFilter>,
    lo: u64,
    hi: u64,
) -> Chunk {
    let n = sector.n_sites();
    let code_bits = sector.code_bits();
    let mut out = Chunk::default();
    let space_end = if code_bits == 64 { u64::MAX } else { 1u64 << code_bits };
    let hi = hi.min(space_end);
    if sector.encoding().bits() > 1 {
        let enc = sector.encoding();
        // Dense multi-bit codes (spin-3/2, `local_dim = 4`): the odometer
        // has nothing to skip, so a straight scan wins. (`hi == u64::MAX`
        // is the unbounded sentinel of a 64-bit code space; the scan
        // treats `hi` as exclusive, so that case stays on the odometer.)
        if enc.dense() && hi != u64::MAX {
            match sector.hamming_weight() {
                Some(sum) => {
                    out.states.extend((lo..hi).filter(|&s| field_sum(s, enc.bits(), n) == sum))
                }
                None => out.states.extend(lo..hi),
            }
            out.orbit_sizes.resize(out.states.len(), 1);
            return out;
        }
        // Sparse multi-bit site codes: the odometer iterator skips
        // invalid codes; lattice symmetry groups are trivial here by
        // construction, so every valid word is its own representative.
        for s in CodedRange::new(enc, n, sector.hamming_weight(), lo, hi) {
            out.states.push(s);
            out.orbit_sizes.push(1);
        }
        return out;
    }
    let charges = sector.charges();
    match sector.hamming_weight() {
        Some(w) => {
            if charges.is_empty() {
                // Hot spin-1/2 path, untouched.
                for s in FixedWeightRange::new(n, w, lo, hi) {
                    push_if_rep(filter, s, &mut out);
                }
            } else {
                for s in FixedWeightRange::new(n, w, lo, hi) {
                    if satisfies_charges(charges, s) {
                        push_if_rep(filter, s, &mut out);
                    }
                }
            }
        }
        None => {
            // Every charge constructor fixes the total weight too, so the
            // charges are empty here today; the test keeps a sector that
            // sets charges without a weight correct. `hi == u64::MAX` is
            // the unbounded sentinel, so it takes the all-ones word too.
            for s in (lo..hi).chain((hi == u64::MAX).then_some(hi)) {
                if satisfies_charges(charges, s) {
                    push_if_rep(filter, s, &mut out);
                }
            }
        }
    }
    out
}

#[inline]
fn satisfies_charges(charges: &[ChargeMask], s: u64) -> bool {
    charges.iter().all(|c| (s & c.mask).count_ones() == c.weight)
}

#[inline]
fn push_if_rep(filter: Option<&RepFilter>, s: u64, out: &mut Chunk) {
    let orbit = match filter {
        None => Some(1),
        Some(filter) => filter.orbit_size(s),
    };
    if let Some(orbit) = orbit {
        out.states.push(s);
        out.orbit_sizes.push(orbit);
    }
}

/// Splits `[0, 2^n)` into `chunks` half-open ranges of equal width.
///
/// At `n == 64` the final exclusive bound, 2^64, is not representable in
/// a `u64`; it is emitted as the `u64::MAX` sentinel that
/// [`filter_range`] and `CodedRange` interpret as "unbounded" (a plain
/// `as u64` truncation would yield an empty last chunk). Interior bounds
/// never collide with the sentinel: for any realistic chunk count the
/// next-to-last boundary is at most `2^64 - 2`.
pub fn split_ranges(n: u32, chunks: usize) -> Vec<(u64, u64)> {
    assert!(chunks >= 1);
    let total: u128 = 1u128 << n;
    let clamp = |x: u128| if x >= 1u128 << 64 { u64::MAX } else { x as u64 };
    (0..chunks as u128)
        .map(|c| {
            let lo = clamp(c * total / chunks as u128);
            let hi = clamp((c + 1) * total / chunks as u128);
            (lo, hi)
        })
        .collect()
}

/// Serial enumeration of all valid representatives, in increasing order.
pub fn enumerate(sector: &SectorSpec) -> Chunk {
    filter_range(sector, 0, u64::MAX)
}

/// Parallel enumeration with rayon. `chunks` controls the work split; the
/// result is identical to [`enumerate`].
pub fn enumerate_par(sector: &SectorSpec, chunks: usize) -> Chunk {
    let ranges = split_ranges(sector.code_bits(), chunks.max(1));
    let filter = rep_filter(sector);
    let parts: Vec<Chunk> = ranges
        .into_par_iter()
        .map(|(lo, hi)| filter_range_with(sector, filter.as_ref(), lo, hi))
        .collect();
    let total: usize = parts.iter().map(|c| c.states.len()).sum();
    let mut out =
        Chunk { states: Vec::with_capacity(total), orbit_sizes: Vec::with_capacity(total) };
    for p in parts {
        out.states.extend_from_slice(&p.states);
        out.orbit_sizes.extend_from_slice(&p.orbit_sizes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_symmetry::lattice;

    #[test]
    fn u1_only_matches_gosper() {
        let sector = SectorSpec::with_weight(12, 5).unwrap();
        let chunk = enumerate(&sector);
        let expect: Vec<u64> = FixedWeightRange::all(12, 5).collect();
        assert_eq!(chunk.states, expect);
        assert!(chunk.orbit_sizes.iter().all(|&o| o == 1));
    }

    #[test]
    fn counts_match_burnside_dimension() {
        for n in [8usize, 10, 12] {
            let g = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
            let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), g).unwrap();
            let chunk = enumerate(&sector);
            assert_eq!(chunk.states.len() as u64, sector.dimension(), "n={n}");
            // Sorted and unique:
            for w in chunk.states.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let g = lattice::chain_group(10, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(10, Some(5), g).unwrap();
        let serial = enumerate(&sector);
        for chunks in [1usize, 2, 3, 7, 64, 1000] {
            let par = enumerate_par(&sector, chunks);
            assert_eq!(par.states, serial.states, "chunks={chunks}");
            assert_eq!(par.orbit_sizes, serial.orbit_sizes);
        }
    }

    #[test]
    fn complex_sector_enumeration() {
        // k=1 momentum sector on a 10-ring: dimension from Burnside.
        let g = lattice::chain_group(10, 1, None, None).unwrap();
        let sector = SectorSpec::new(10, Some(5), g).unwrap();
        let chunk = enumerate(&sector);
        assert_eq!(chunk.states.len() as u64, sector.dimension());
    }

    #[test]
    fn spinful_fermion_enumeration() {
        // 3 physical sites, 1 up + 2 down: C(3,1)·C(3,2) = 9 states.
        let sector = SectorSpec::spinful_fermions(3, 1, 2).unwrap();
        let chunk = enumerate(&sector);
        assert_eq!(chunk.states.len() as u64, sector.dimension());
        assert_eq!(chunk.states.len(), 9);
        for &s in &chunk.states {
            assert_eq!((s & 0b000111).count_ones(), 1);
            assert_eq!((s & 0b111000).count_ones(), 2);
        }
        for w in chunk.states.windows(2) {
            assert!(w[0] < w[1]);
        }
        for chunks in [1usize, 3, 16] {
            let par = enumerate_par(&sector, chunks);
            assert_eq!(par.states, chunk.states, "chunks={chunks}");
        }
    }

    #[test]
    fn spin_one_enumeration() {
        // 5 spin-1 sites, code sum 5 (Σ Sz = 0).
        let sector = SectorSpec::spin_s(5, 3, Some(5)).unwrap();
        let chunk = enumerate(&sector);
        assert_eq!(chunk.states.len() as u64, sector.dimension());
        let enc = sector.encoding();
        for &s in &chunk.states {
            assert!(enc.is_valid(s, 5));
            assert_eq!(enc.code_sum(s, 5), 5);
        }
        for w in chunk.states.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Parallel split happens over the 10-bit packed-code space.
        for chunks in [1usize, 2, 7, 100] {
            let par = enumerate_par(&sector, chunks);
            assert_eq!(par.states, chunk.states, "chunks={chunks}");
        }
    }

    #[test]
    fn spin_three_halves_enumeration() {
        // 6 spin-3/2 sites: dense 2-bit codes over a 12-bit space, the
        // straight-scan arm. Chunk counts 3, 7 and 64 cut the space at
        // bounds that are not multiples of 4.
        for w in [Some(0), Some(1), Some(5), Some(9), Some(17), Some(18), None] {
            let sector = SectorSpec::spin_s(6, 4, w).unwrap();
            let expect: Vec<u64> = (0..1u64 << 12)
                .filter(|&s| w.is_none_or(|w| field_sum(s, 2, 6) == w))
                .collect();
            let chunk = enumerate(&sector);
            assert_eq!(chunk.states, expect, "w = {w:?}");
            assert_eq!(chunk.states.len() as u64, sector.dimension(), "w = {w:?}");
            assert!(chunk.orbit_sizes.iter().all(|&o| o == 1));
            for chunks in [1usize, 3, 7, 64] {
                let par = enumerate_par(&sector, chunks);
                assert_eq!(par.states, expect, "w = {w:?}, chunks = {chunks}");
                assert_eq!(par.orbit_sizes.len(), expect.len());
            }
        }
    }

    #[test]
    fn sixty_four_sites_with_inversion_at_both_ends_of_the_word() {
        // `sites · bits == 64`: the flip mask is `u64::MAX`, which is also
        // the unbounded sentinel of `hi`. Windows at 0 and just below the
        // sentinel, each against `state_info` on the same candidates.
        let group = lattice::chain_group(64, 0, None, Some(0)).unwrap();
        let near_top = u64::MAX - (1 << 12);
        let weight_32_near_top = 0xffff_fffe_0000_0000;
        let windows: [(Option<u32>, u64, u64, Vec<u64>); 4] = [
            (None, 0, 1 << 12, (0..1 << 12).collect()),
            (None, near_top, u64::MAX, (near_top..=u64::MAX).collect()),
            (Some(32), 0, 1 << 33, FixedWeightRange::new(64, 32, 0, 1 << 33).collect()),
            (
                Some(32),
                weight_32_near_top,
                u64::MAX,
                FixedWeightRange::new(64, 32, weight_32_near_top, u64::MAX).collect(),
            ),
        ];
        for (weight, lo, hi, candidates) in windows {
            let sector = SectorSpec::new(64, weight, group.clone()).unwrap();
            let mut expect = Chunk::default();
            for s in candidates {
                let info = crate::rep::state_info(&group, s);
                if info.representative == s && info.valid {
                    expect.states.push(s);
                    expect.orbit_sizes.push(info.orbit_size);
                }
            }
            let got = filter_range(&sector, lo, hi);
            assert_eq!(got.states, expect.states, "weight {weight:?}, [{lo:#x}, {hi:#x})");
            assert_eq!(got.orbit_sizes, expect.orbit_sizes);
            assert_eq!(expect.states.is_empty(), lo != 0, "weight {weight:?}, lo = {lo:#x}");
        }
        // The trivial group takes the all-ones word under the sentinel.
        let top = filter_range(&SectorSpec::full(64), u64::MAX - 2, u64::MAX);
        assert_eq!(top.states, [u64::MAX - 2, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn split_ranges_partition() {
        let ranges = split_ranges(10, 7);
        assert_eq!(ranges.len(), 7);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges[6].1, 1024);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].1, pair[1].0);
        }
    }
}
