//! Searching sorted basis-state arrays (`stateToIndex` in the paper).
//!
//! Each locale stores its basis states sorted; mapping a generated state to
//! its local index is a binary search (paper Sec. 5.3). We put a
//! prefix-bucket index in front of it that first narrows the
//! range by the high bits of the state — the same trick the shared-memory
//! `lattice-symmetries` uses — which removes most of the cache misses of
//! the first binary-search steps. It is the only search ranking: sectors
//! with a closed form (`crate::combinadics`) need no index — shared-memory
//! bases rank by it outright, a part of a distributed basis selects its
//! position from that rank (`ls-dist`'s `basis` module) and keeps buckets
//! only where the sector has no closed form — and a radix
//! trie (Wallerberger & Held, the paper's Ref.\ 25) buys its faster lookup
//! on the 24-site symmetrized ring (19 ns against 52) with a 3.2 MB index
//! beside 33 KB of buckets. `benches/ablation.rs` times the buckets
//! against the closed forms, and against the select on a distributed part.
//!
//! ## Bulk ranking
//!
//! One ranking per matrix element makes the matvec latency-bound: every
//! lookup is a chain of dependent loads, and the out-of-order window cannot
//! overlap enough of them when each lookup lives inside a larger per-element
//! loop body. [`PrefixIndex::lookup_batch`] therefore ranks a whole *block*
//! of states at once, keeping [`INTERLEAVE`] searches in flight
//! simultaneously: the per-lane state is a handful of registers, and the
//! memory system sees a window of independent loads instead of one
//! dependent chain. The lockstep loop is plain Rust: an AVX2 version with
//! gathered probes ranked `sym_chain24` slower, not faster (measured in
//! the `CHANGES.md` entry that removed it). Absent states are reported with the [`NOT_FOUND`] sentinel so
//! results stay in dense `u32` arrays (no `Option` in the hot path).

/// Sentinel written by the `lookup_batch` kernels for states that are not
/// in the array. Never a valid rank (arrays are capped below `u32::MAX`).
pub const NOT_FOUND: u32 = u32::MAX;

/// Number of in-flight searches the batch kernels interleave. Eight lanes
/// of (lo, hi) bounds fit comfortably in registers while giving the memory
/// system eight independent loads per round.
pub const INTERLEAVE: usize = 8;

/// A prefix-bucket acceleration structure over a sorted `u64` slice.
///
/// States are bucketed by their top `bits` bits (relative to an `n_bits`
/// wide state space); a bucket lookup plus a short binary search replaces
/// the full-range binary search.
#[derive(Clone, Debug)]
pub struct PrefixIndex {
    shift: u32,
    /// `starts[b] .. starts[b + 1]` is the slice of states with prefix `b`.
    starts: Vec<u32>,
}

impl PrefixIndex {
    /// Builds an index over `sorted` (ascending, duplicate-free) for states
    /// drawn from an `n_bits`-wide space. `bits` prefix bits are used;
    /// a good default is `ceil(log2(len / 4))`, see [`PrefixIndex::auto`].
    pub fn new(sorted: &[u64], n_bits: u32, bits: u32) -> Self {
        assert!(bits <= n_bits && bits <= 31, "prefix too wide");
        assert!(sorted.len() < u32::MAX as usize);
        let shift = n_bits - bits;
        let buckets = 1usize << bits;
        let mut starts = vec![0u32; buckets + 1];
        // Counting pass (states must be sorted; we only need boundaries).
        for &s in sorted {
            let b = Self::bucket(shift, s);
            debug_assert!(b < buckets, "state exceeds n_bits");
            starts[b + 1] += 1;
        }
        for b in 0..buckets {
            starts[b + 1] += starts[b];
        }
        Self { shift, starts }
    }

    /// Picks a bucket count of roughly `len / 4` (clamped to `[1, 2^20]`
    /// buckets) — large enough to shrink searches to a handful of elements,
    /// small enough to keep the index itself cache-resident. The width is
    /// `ceil(log2(len / 4))` as documented on [`PrefixIndex::new`]: the
    /// earlier floor rounded small charge-constrained sectors (multi-bit
    /// codes pack few states into a wide space, e.g. small half-filled
    /// Hubbard sectors) down to a 0-width prefix, degenerating every
    /// lookup to the full-range binary search the index exists to avoid.
    /// Degenerate inputs are handled: empty and length-1 slices get a
    /// single bucket, and the width is clamped so it can never exceed
    /// `n_bits` (or the structural limit of 31 bits) however `len / 4`
    /// rounds.
    pub fn auto(sorted: &[u64], n_bits: u32) -> Self {
        let buckets = sorted.len().div_ceil(4).max(1);
        let target_bits = buckets.next_power_of_two().ilog2().min(20).min(n_bits).min(31);
        Self::new(sorted, n_bits, target_bits)
    }

    /// The bucket of `s` for a given shift. `shift >= 64` (an index with
    /// zero prefix bits over a 64-bit state space) means a single bucket;
    /// a plain `>>` would overflow the shift there.
    #[inline]
    fn bucket(shift: u32, s: u64) -> usize {
        if shift >= 64 {
            0
        } else {
            (s >> shift) as usize
        }
    }

    /// Finds `needle` in `sorted` (the same slice the index was built on).
    #[inline]
    pub fn lookup(&self, sorted: &[u64], needle: u64) -> Option<usize> {
        let b = Self::bucket(self.shift, needle);
        if b + 1 >= self.starts.len() {
            return None;
        }
        let lo = self.starts[b] as usize;
        let hi = self.starts[b + 1] as usize;
        sorted[lo..hi].binary_search(&needle).ok().map(|i| lo + i)
    }

    /// Ranks a whole block of `needles` at once, writing each rank (or
    /// [`NOT_FOUND`]) into `out[i]`. [`INTERLEAVE`] binary searches advance
    /// in lockstep so their array probes overlap in the memory system —
    /// the bulk `stateToIndex` of the batched matvec engine.
    pub fn lookup_batch(&self, sorted: &[u64], needles: &[u64], out: &mut Vec<u32>) {
        self.lookup_batch_by(sorted, needles, |&n| n, out);
    }

    /// [`Self::lookup_batch`] over items the needles are read from by
    /// `key` — the states of `(state, value)` pairs, say — without copying
    /// them out first.
    #[inline]
    pub fn lookup_batch_by<T>(
        &self,
        sorted: &[u64],
        items: &[T],
        key: impl Fn(&T) -> u64,
        out: &mut Vec<u32>,
    ) {
        const W: usize = INTERLEAVE;
        out.clear();
        out.resize(items.len(), NOT_FOUND);
        let mut k = 0usize;
        while k + W <= items.len() {
            // Per-lane needles and search bounds from the prefix buckets.
            let needles: [u64; W] = std::array::from_fn(|l| key(&items[k + l]));
            let mut lo = [0usize; W];
            let mut hi = [0usize; W];
            for l in 0..W {
                let b = Self::bucket(self.shift, needles[l]);
                if b + 1 < self.starts.len() {
                    lo[l] = self.starts[b] as usize;
                    hi[l] = self.starts[b + 1] as usize;
                }
                // else: lo == hi == 0 — the lane is born finished.
            }
            // Lockstep binary search: every live lane issues one probe per
            // round, so up to W independent loads are in flight.
            loop {
                let mut live = false;
                for l in 0..W {
                    if lo[l] < hi[l] {
                        let mid = (lo[l] + hi[l]) / 2;
                        let v = sorted[mid];
                        let n = needles[l];
                        if v < n {
                            lo[l] = mid + 1;
                        } else if v > n {
                            hi[l] = mid;
                        } else {
                            out[k + l] = mid as u32;
                            hi[l] = 0; // retire the lane
                        }
                        live = live || lo[l] < hi[l];
                    }
                }
                if !live {
                    break;
                }
            }
            k += W;
        }
        for (o, item) in out[k..].iter_mut().zip(&items[k..]) {
            *o = self.lookup(sorted, key(item)).map_or(NOT_FOUND, |i| i as u32);
        }
    }

    /// Memory used by the index in bytes (for the perf model).
    pub fn memory_bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::FixedWeightRange;

    fn test_states() -> Vec<u64> {
        FixedWeightRange::all(18, 9).collect()
    }

    /// The oracle every index is checked against.
    fn binary_search(sorted: &[u64], needle: u64) -> Option<usize> {
        sorted.binary_search(&needle).ok()
    }

    #[test]
    fn prefix_index_matches_binary_search() {
        let states = test_states();
        for bits in [1u32, 4, 8, 12] {
            let idx = PrefixIndex::new(&states, 18, bits);
            for (i, &s) in states.iter().enumerate() {
                assert_eq!(idx.lookup(&states, s), Some(i), "bits={bits}");
            }
            // Absent states: probe every value in a subrange.
            for probe in 0..(1u64 << 12) {
                assert_eq!(
                    idx.lookup(&states, probe),
                    binary_search(&states, probe),
                    "bits={bits} probe={probe:#b}"
                );
            }
        }
    }

    #[test]
    fn auto_index_on_small_and_empty() {
        let empty: Vec<u64> = Vec::new();
        let idx = PrefixIndex::auto(&empty, 10);
        assert_eq!(idx.lookup(&empty, 3), None);

        let one = vec![5u64];
        let idx = PrefixIndex::auto(&one, 10);
        assert_eq!(idx.lookup(&one, 5), Some(0));
        assert_eq!(idx.lookup(&one, 6), None);
    }

    #[test]
    fn auto_index_full_width_state_space() {
        // n_bits = 64 with a tiny basis drives `bits` to 0, i.e. a shift
        // of 64: the bucket computation must not overflow the shift.
        let empty: Vec<u64> = Vec::new();
        let idx = PrefixIndex::auto(&empty, 64);
        assert_eq!(idx.lookup(&empty, u64::MAX), None);

        let one = vec![1u64 << 63];
        let idx = PrefixIndex::auto(&one, 64);
        assert_eq!(idx.lookup(&one, 1 << 63), Some(0));
        assert_eq!(idx.lookup(&one, u64::MAX), None);
        assert_eq!(idx.lookup(&one, 0), None);

        // Awkward rounding: len / 4 == 1 keeps bits at 0 for any n_bits.
        let five: Vec<u64> = vec![0, 3, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let idx = PrefixIndex::auto(&five, 64);
        for (i, &s) in five.iter().enumerate() {
            assert_eq!(idx.lookup(&five, s), Some(i));
        }
        assert_eq!(idx.lookup(&five, 17), None);
    }

    #[test]
    fn auto_bits_never_exceed_n_bits() {
        // A large array over a tiny state space: len / 4 would suggest far
        // more prefix bits than the space has.
        let states: Vec<u64> = (0..16u64).collect();
        let idx = PrefixIndex::auto(&states, 4);
        for (i, &s) in states.iter().enumerate() {
            assert_eq!(idx.lookup(&states, s), Some(i));
        }
        assert_eq!(idx.lookup(&states, 16), None);
    }

    #[test]
    fn auto_picks_a_real_prefix_for_hubbard_sectors() {
        // The 8-site half-filled Hubbard sector: 16 occupation bits (two
        // spin-orbitals per site), 4 up + 4 down electrons — C(8,4)² =
        // 4900 states in a 2^16 space. The floor-rounded width picked 10
        // bits here where the documented ceil(log2(len / 4)) is 11.
        let mut states: Vec<u64> = Vec::new();
        for up in FixedWeightRange::all(8, 4) {
            for dn in FixedWeightRange::all(8, 4) {
                states.push(dn << 8 | up);
            }
        }
        states.sort_unstable();
        assert_eq!(states.len(), 4900);
        let idx = PrefixIndex::auto(&states, 16);
        // ceil(log2(4900 / 4)) = ceil(log2(1225)) = 11 prefix bits.
        assert_eq!(idx.memory_bytes(), ((1 << 11) + 1) * std::mem::size_of::<u32>());
        for (i, &s) in states.iter().enumerate() {
            assert_eq!(idx.lookup(&states, s), Some(i));
        }
        assert_eq!(idx.lookup(&states, 0), None);

        // A *small* charge-constrained sector (2-site quarter-filled:
        // C(2,1)² = 4 states in 4 code bits) used to get a 0-width prefix
        // (len / 4 == 1 floors to 0 bits) and fall back to the full-range
        // search; ceil keeps at least one prefix bit as soon as len > 4.
        let mut small: Vec<u64> = Vec::new();
        for up in FixedWeightRange::all(3, 1) {
            for dn in FixedWeightRange::all(3, 2) {
                small.push(dn << 3 | up);
            }
        }
        small.sort_unstable();
        assert_eq!(small.len(), 9);
        let idx = PrefixIndex::auto(&small, 6);
        assert!(idx.memory_bytes() > 2 * std::mem::size_of::<u32>(), "0-width prefix");
        for (i, &s) in small.iter().enumerate() {
            assert_eq!(idx.lookup(&small, s), Some(i));
        }
    }

    #[test]
    fn prefix_lookup_batch_matches_scalar() {
        let states = test_states();
        // Mix of present states and absent probes, misaligned with the
        // interleave width on purpose.
        let mut probes: Vec<u64> = states.iter().copied().step_by(3).collect();
        probes.extend(0..(1u64 << 10));
        probes.push(u64::MAX);
        for bits in [1u32, 4, 8, 12] {
            let idx = PrefixIndex::new(&states, 18, bits);
            let mut out = Vec::new();
            idx.lookup_batch(&states, &probes, &mut out);
            assert_eq!(out.len(), probes.len());
            for (&p, &o) in probes.iter().zip(&out) {
                let expect = idx.lookup(&states, p).map_or(NOT_FOUND, |i| i as u32);
                assert_eq!(o, expect, "bits={bits} probe={p:#b}");
            }
        }
        // Tail-only batch (shorter than the interleave width).
        let idx = PrefixIndex::auto(&states, 18);
        let mut out = Vec::new();
        idx.lookup_batch(&states, &probes[..3], &mut out);
        assert_eq!(out.len(), 3);
        // And an empty batch.
        idx.lookup_batch(&states, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn prefix_index_full_width() {
        // bits == n_bits: each bucket holds at most one state.
        let states = vec![0u64, 1, 2, 5, 9, 15];
        let idx = PrefixIndex::new(&states, 4, 4);
        for (i, &s) in states.iter().enumerate() {
            assert_eq!(idx.lookup(&states, s), Some(i));
        }
        assert_eq!(idx.lookup(&states, 3), None);
    }
}
