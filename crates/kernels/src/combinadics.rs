//! Combinadic (combinatorial number system) ranking of fixed-weight
//! bitstrings.
//!
//! When the only symmetry is U(1) (fixed Hamming weight), the index of a
//! basis state can be computed in closed form instead of by binary search:
//! the weight-`w` bitstrings of `n` bits, ordered as integers, are in
//! bijection with their combinadic rank. This gives an `O(n)` `state ->
//! index` map with no memory traffic, used as a fast path and as an oracle
//! in tests of the general lookup structures.

use crate::bits::low_mask;

/// Table of binomial coefficients `C(n, k)` for `n, k <= 64`, with
/// saturation at `u64::MAX` (saturated entries are never used by callers
/// that stay within physical dimensions, but saturation keeps the table
/// total and panic-free).
#[derive(Clone, Debug)]
pub struct BinomialTable {
    table: Vec<u64>, // (n, k) -> table[n * 65 + k]
}

impl BinomialTable {
    pub fn new() -> Self {
        let mut table = vec![0u64; 65 * 65];
        for n in 0..=64usize {
            table[n * 65] = 1;
            for k in 1..=n {
                let a = table[(n - 1) * 65 + k - 1];
                let b = table[(n - 1) * 65 + k];
                table[n * 65 + k] = a.saturating_add(b);
            }
        }
        Self { table }
    }

    /// `C(n, k)`; zero when `k > n`.
    #[inline]
    pub fn choose(&self, n: u32, k: u32) -> u64 {
        if k > n || n > 64 {
            return 0;
        }
        self.table[n as usize * 65 + k as usize]
    }

    /// [`Self::choose`] without the range branches, for hot loops whose
    /// arguments are bounded by construction (`n, k <= 64`). The table
    /// stores explicit zeros for `k > n`, so the value is identical.
    #[inline]
    fn choose_raw(&self, n: u32, k: u32) -> u64 {
        debug_assert!(n <= 64 && k <= 64);
        self.table[n as usize * 65 + k as usize]
    }

    /// Rank of `state` among all values with the same popcount, ordered as
    /// integers. The lowest weight-`w` value has rank 0.
    ///
    /// Combinadic formula: rank = sum over set bits at positions `p_1 < p_2
    /// < ... < p_w` of `C(p_i, i)`.
    #[inline]
    pub fn rank(&self, state: u64) -> u64 {
        let mut rank = 0u64;
        let mut rest = state;
        let mut i = 1u32;
        while rest != 0 {
            let p = rest.trailing_zeros();
            rank += self.choose(p, i);
            rest &= rest - 1;
            i += 1;
        }
        rank
    }

    /// Differential rank: `rank(s ^ f)` for a *weight-preserving* flip
    /// mask `f`, given `rank(s)`.
    ///
    /// Only the set bits inside the flipped span `[lowest bit of f,
    /// highest bit of f]` contribute to the difference — below the span
    /// nothing changes, and above it the set-bit indices are unchanged
    /// because `f` conserves the popcount inside the span. For the
    /// short-range terms of a typical lattice Hamiltonian the span holds
    /// O(1) set bits, so this replaces the O(weight) full rank in the
    /// matvec's inner loop (the basis index of the *source* state is its
    /// rank, so the destination rank comes out of this delta alone).
    #[inline]
    pub fn rank_xor(&self, s: u64, f: u64, rank_s: u64) -> u64 {
        debug_assert!(f != 0, "flip mask of an off-diagonal channel");
        debug_assert_eq!(s.count_ones(), (s ^ f).count_ones(), "flip must conserve weight");
        let lo = f.trailing_zeros();
        let hi = 63 - f.leading_zeros();
        let span = (u64::MAX << lo) & (u64::MAX >> (63 - hi));
        // 1-based set-bit index of the first position inside the span.
        let first = (s & !(u64::MAX << lo)).count_ones() + 1;
        let mut sub = 0u64;
        let mut i = first;
        let mut rest = s & span;
        while rest != 0 {
            sub += self.choose(rest.trailing_zeros(), i);
            rest &= rest - 1;
            i += 1;
        }
        let mut add = 0u64;
        let mut i = first;
        let mut rest = (s ^ f) & span;
        while rest != 0 {
            add += self.choose(rest.trailing_zeros(), i);
            rest &= rest - 1;
            i += 1;
        }
        rank_s + add - sub
    }

    /// [`Self::rank_xor`] specialized for an *adjacent transposition*:
    /// the flip mask is `0b11 << lo` and exactly one of the two positions
    /// is set in `s`. The flipped span has no interior positions, so the
    /// delta collapses to two table loads — the inner-loop rank of every
    /// nearest-neighbour hopping/exchange term.
    ///
    /// `s` is the whole word and the pair may sit in any species of a
    /// product: `lo_local` is `lo` less the species' lowest bit, and
    /// `below_mask` the species' bits below `lo` (`!(u64::MAX << lo)` for
    /// a species at bit 0). Both are hoisted by the caller, which knows
    /// them per channel; on a [`Self::scaled`] table the delta comes out
    /// scaled by the species' stride.
    #[inline]
    pub fn rank_xor_adjacent(
        &self,
        s: u64,
        lo: u32,
        lo_local: u32,
        below_mask: u64,
        rank_s: u64,
    ) -> u64 {
        debug_assert!((s >> lo) & 0b11 == 0b01 || (s >> lo) & 0b11 == 0b10);
        let first = (s & below_mask).count_ones() + 1;
        let lower_set = ((s >> lo) & 1) as u32;
        let sub = self.choose_raw(lo_local + 1 - lower_set, first);
        let add = self.choose_raw(lo_local + lower_set, first);
        rank_s + add - sub
    }

    /// The table with every entry multiplied by `stride` (saturating,
    /// like the table itself): the one a species ranks with when the
    /// species below it span `stride` configurations, so that its rank
    /// and rank deltas read directly as those of the product.
    pub fn scaled(&self, stride: u64) -> Self {
        Self { table: self.table.iter().map(|&c| c.saturating_mul(stride)).collect() }
    }

    /// Memory used by the table in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.table[..])
    }

    /// Inverse of [`Self::rank`]: the weight-`w` value with the given rank.
    /// Requires `rank < C(n, w)` where `n` is the number of available bit
    /// positions (≤ 64).
    pub fn unrank(&self, mut rank: u64, n: u32, w: u32) -> u64 {
        debug_assert!(rank < self.choose(n, w), "rank out of range");
        let mut state = 0u64;
        let mut k = w;
        let mut p = n;
        while k > 0 {
            p -= 1;
            let c = self.choose(p, k);
            if rank >= c {
                rank -= c;
                state |= 1u64 << p;
                k -= 1;
            }
        }
        debug_assert_eq!(rank, 0);
        state
    }
}

impl Default for BinomialTable {
    fn default() -> Self {
        Self::new()
    }
}

/// One fixed-weight species of a closed-form product ranking, as the
/// fused differential matvec reads it: where its bits sit in the word,
/// and its binomial table scaled by its stride, so a rank delta read from
/// the table is already the product's.
#[derive(Clone, Copy, Debug)]
pub struct SpeciesRank<'a> {
    /// The species' bits, in place (contiguous).
    pub mask: u64,
    /// `stride · C(n, k)`, `stride` being the product of the dimensions
    /// of the species below this one.
    pub table: &'a BinomialTable,
}

/// The species of a closed-form product ranking, lowest bits first: one
/// (a U(1) sector) or two (spinful fermions), held inline like
/// [`LinTables`]' own.
#[derive(Clone, Copy, Debug)]
pub struct RankLayout<'a> {
    species: [SpeciesRank<'a>; 2],
    n_species: usize,
}

impl<'a> RankLayout<'a> {
    /// One species filling the word, ranked by the combinadic sum.
    pub fn single(table: &'a BinomialTable) -> Self {
        let species = SpeciesRank { mask: u64::MAX, table };
        Self { species: [species; 2], n_species: 1 }
    }

    /// Two species: `lower` holds the bits below `upper_mask`, and
    /// `upper` is the binomial table scaled by the lower species'
    /// dimension.
    pub fn pair(lower: &'a BinomialTable, upper_mask: u64, upper: &'a BinomialTable) -> Self {
        let lower = SpeciesRank { mask: low_mask(upper_mask.trailing_zeros()), table: lower };
        Self { species: [lower, SpeciesRank { mask: upper_mask, table: upper }], n_species: 2 }
    }

    pub fn species(&self) -> &[SpeciesRank<'a>] {
        &self.species[..self.n_species]
    }
}

/// One fixed-weight species of a [`LinTables`] ranking: where its bits
/// sit in the word and where its two half-tables sit in the flat table.
#[derive(Clone, Copy, Debug, Default)]
struct LinSpecies {
    shift: u32,
    mask: u64, // of the species' bits once shifted down
    lo_bits: u32,
    lo_mask: u64,
    lo_at: usize,
    hi_at: usize,
    /// Product of the dimensions of the species below this one.
    stride: u64,
    weight: u32,
}

/// Closed-form ranking of a Cartesian product of fixed-weight species by
/// Lin's two-table scheme: a species of at most 32 bits is split into a
/// low and a high half, `rank = lo[x_lo] + hi[x_hi]` (the low half's
/// combinadic rank, plus the rank of the smallest species word with that
/// high half), and the species combine mixed-radix with the highest bits
/// most significant — the sorted-integer order of the product. Four table
/// reads for a spinful-fermion word, and no popcount: an entry's high 32
/// bits hold the weight of its low half (`lo`: the one it has, `hi`: the
/// one a member needs), so membership is one comparison per species.
#[derive(Clone, Debug)]
pub struct LinTables {
    /// One species (a U(1) spin sector) or two (spinful fermions), held
    /// inline: behind a `Vec` a ranking loop reloads every descriptor
    /// after each store to its output (measured 2x per lookup).
    species: [LinSpecies; 2],
    n_species: usize,
    table: Vec<u64>,
    /// Bits no species covers; set in no member.
    outside: u64,
}

impl LinTables {
    /// Tables for one or two `species` = `(mask, weight)` pairs, or `None`
    /// unless the masks are contiguous, ascending, each 1 to 32 bits wide,
    /// and tile `0..n_bits` exactly.
    pub fn new(binom: &BinomialTable, n_bits: u32, species: &[(u64, u32)]) -> Option<Self> {
        if species.len() > 2 {
            return None;
        }
        let mut out = Self {
            species: Default::default(),
            n_species: species.len(),
            table: Vec::new(),
            outside: 0,
        };
        let (mut shift, mut stride) = (0u32, 1u64);
        for (slot, &(mask, weight)) in out.species.iter_mut().zip(species) {
            let width = mask.count_ones();
            if !(1..=32).contains(&width) || shift + width > n_bits || weight > width {
                return None;
            }
            if mask != low_mask(width) << shift {
                return None;
            }
            let lo_bits = width.div_ceil(2);
            let lo_at = out.table.len();
            out.table.extend(
                (0..1u64 << lo_bits).map(|lo| (lo.count_ones() as u64) << 32 | binom.rank(lo)),
            );
            let hi_at = out.table.len();
            out.table.extend((0..1u64 << (width - lo_bits)).map(|hi| {
                // The smallest species word with this high half keeps the
                // rest of the weight in its lowest bits; a high half no
                // member has asks for a weight no low half has.
                match weight.checked_sub(hi.count_ones()) {
                    Some(rest) if rest <= lo_bits => {
                        (rest as u64) << 32 | binom.rank(hi << lo_bits | low_mask(rest))
                    }
                    _ => u64::MAX << 32,
                }
            }));
            *slot = LinSpecies {
                shift,
                mask: mask >> shift,
                lo_bits,
                lo_mask: low_mask(lo_bits),
                lo_at,
                hi_at,
                stride,
                weight,
            };
            stride *= binom.choose(width, weight);
            shift += width;
        }
        out.outside = !low_mask(shift);
        (shift == n_bits).then_some(out)
    }

    /// Position of `state` among the product's words in integer order;
    /// `None` for a word with a wrong per-species count or a bit outside
    /// every species.
    #[inline]
    pub fn rank(&self, state: u64) -> Option<u64> {
        let mut member = state & self.outside == 0;
        let mut rank = 0u64;
        for s in &self.species[..self.n_species] {
            let x = (state >> s.shift) & s.mask;
            let lo = self.table[s.lo_at + (x & s.lo_mask) as usize];
            let hi = self.table[s.hi_at + (x >> s.lo_bits) as usize];
            member &= lo >> 32 == hi >> 32;
            rank += (lo as u32 as u64 + hi as u32 as u64) * s.stride;
        }
        member.then_some(rank)
    }

    /// Inverse of [`Self::rank`]: the member with product rank `rank`, or
    /// `None` past the last one. For cold paths (a diagnostic that names
    /// the state behind a rank): it builds a binomial table per call.
    #[cold]
    pub fn unrank(&self, rank: u64) -> Option<u64> {
        let binom = BinomialTable::new();
        let (mut rest, mut state) = (rank, 0u64);
        for s in self.species[..self.n_species].iter().rev() {
            let (width, r) = (s.mask.count_ones(), rest / s.stride);
            if r >= binom.choose(width, s.weight) {
                return None;
            }
            rest %= s.stride;
            state |= binom.unrank(r, width, s.weight) << s.shift;
        }
        Some(state)
    }

    /// Per species, lowest bits first: its bits in place and its stride
    /// in the mixed-radix rank.
    pub fn species(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.species[..self.n_species].iter().map(|s| (s.mask << s.shift, s.stride))
    }

    /// Memory used by the tables in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.table[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::FixedWeightRange;

    #[test]
    fn binomials() {
        let t = BinomialTable::new();
        assert_eq!(t.choose(0, 0), 1);
        assert_eq!(t.choose(4, 2), 6);
        assert_eq!(t.choose(10, 5), 252);
        assert_eq!(t.choose(40, 20), 137_846_528_820);
        assert_eq!(t.choose(48, 24), 32_247_603_683_100);
        assert_eq!(t.choose(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(t.choose(5, 7), 0);
    }

    #[test]
    fn rank_is_position_in_gosper_order() {
        let t = BinomialTable::new();
        for (n, w) in [(10u32, 4u32), (12, 6), (9, 1), (7, 7), (8, 0)] {
            for (i, s) in FixedWeightRange::all(n, w).enumerate() {
                assert_eq!(t.rank(s), i as u64, "state {s:#b}");
                assert_eq!(t.unrank(i as u64, n, w), s);
            }
        }
    }

    #[test]
    fn rank_xor_matches_full_rank() {
        let t = BinomialTable::new();
        // Every weight-preserving 2-bit flip on every weight-6 state of 12
        // bits, plus some longer-range 4-bit flips.
        for s in FixedWeightRange::all(12, 6) {
            let rank_s = t.rank(s);
            for p in 0..12u32 {
                for q in 0..12u32 {
                    if p == q {
                        continue;
                    }
                    let f = (1u64 << p) | (1u64 << q);
                    if (s ^ f).count_ones() != s.count_ones() {
                        continue;
                    }
                    assert_eq!(t.rank_xor(s, f, rank_s), t.rank(s ^ f), "s={s:#b} f={f:#b}");
                }
            }
            // 4-bit flips: swap two set with two unset positions.
            let f = 0b1111u64;
            if (s ^ f).count_ones() == s.count_ones() {
                assert_eq!(t.rank_xor(s, f, rank_s), t.rank(s ^ f));
            }
        }
        // High-bit span on a wide state.
        let s = (1u64 << 63) | 0b101;
        let f = (1u64 << 63) | (1u64 << 62);
        assert_eq!(t.rank_xor(s, f, t.rank(s)), t.rank(s ^ f));
    }

    #[test]
    fn rank_xor_adjacent_matches_generic() {
        let t = BinomialTable::new();
        for s in FixedWeightRange::all(14, 7) {
            let rank_s = t.rank(s);
            for lo in 0..13u32 {
                let pair = (s >> lo) & 0b11;
                if pair != 0b01 && pair != 0b10 {
                    continue;
                }
                let f = 0b11u64 << lo;
                let below = !(u64::MAX << lo);
                assert_eq!(
                    t.rank_xor_adjacent(s, lo, lo, below, rank_s),
                    t.rank_xor(s, f, rank_s),
                    "s={s:#b} lo={lo}"
                );
            }
        }
    }

    #[test]
    fn scaled_tables_rank_the_upper_species_of_a_product() {
        // Two species of 5 and 6 bits: an adjacent or spanning flip in the
        // upper one, ranked on the whole word against its scaled table,
        // lands on the Lin rank of the flipped word.
        let t = BinomialTable::new();
        let (lower, upper) = ((low_mask(5), 2u32), (low_mask(6) << 5, 3u32));
        let lin = LinTables::new(&t, 11, &[lower, upper]).unwrap();
        let strides: Vec<u64> = lin.species().map(|(_, stride)| stride).collect();
        assert_eq!(strides, [1, 10]);
        let scaled = t.scaled(10);
        assert_eq!(scaled.memory_bytes(), t.memory_bytes());
        let layout = RankLayout::pair(&t, upper.0, &scaled);
        assert_eq!(layout.species()[0].mask, low_mask(5));
        let words = (0..1u64 << 11).filter(|&w| lin.rank(w).is_some());
        let mut checked = 0;
        for s in words {
            let rank_s = lin.rank(s).unwrap();
            for lo in 5..10u32 {
                let f = 0b11u64 << lo;
                if (s >> lo) & 0b11 == 0b01 || (s >> lo) & 0b11 == 0b10 {
                    let below = !(u64::MAX << lo) & upper.0;
                    let dest = scaled.rank_xor_adjacent(s, lo, lo - 5, below, rank_s);
                    assert_eq!(Some(dest), lin.rank(s ^ f), "s={s:#b} lo={lo}");
                    checked += 1;
                }
            }
            // The species' closure bond, on the species' own word.
            let f = 1u64 << 5 | 1 << 10;
            if (s & f).count_ones() == 1 {
                let dest = scaled.rank_xor(s >> 5, f >> 5, rank_s);
                assert_eq!(Some(dest), lin.rank(s ^ f), "s={s:#b}");
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn lin_tables_rank_the_sorted_product() {
        let t = BinomialTable::new();
        // One species (odd width, so the halves differ) and two, one of
        // them with a single configuration.
        for layout in [vec![(9u32, 4u32)], vec![(5, 2), (5, 3)], vec![(3, 1), (4, 4)]] {
            let mut species = Vec::new();
            let mut words = vec![0u64];
            let mut shift = 0;
            for &(width, weight) in &layout {
                species.push((low_mask(width) << shift, weight));
                words = FixedWeightRange::all(width, weight)
                    .flat_map(|x| words.iter().map(move |&w| x << shift | w))
                    .collect();
                shift += width;
            }
            words.sort_unstable();
            let lin = LinTables::new(&t, shift, &species).unwrap();
            for p in (0..2u64 << shift).chain([u64::MAX]) {
                let expect = words.binary_search(&p).ok().map(|i| i as u64);
                assert_eq!(lin.rank(p), expect, "{layout:?} {p:#b}");
            }
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(lin.unrank(i as u64), Some(w), "{layout:?} rank {i}");
            }
            assert_eq!(lin.unrank(words.len() as u64), None, "{layout:?}");
        }
    }

    #[test]
    fn lin_tables_refuse_layouts_they_do_not_cover() {
        let t = BinomialTable::new();
        assert!(LinTables::new(&t, 8, &[(0x0f, 2), (0xf0, 2)]).is_some());
        assert!(LinTables::new(&t, 9, &[(0x0f, 2), (0xf0, 2)]).is_none()); // bit 8 free
        assert!(LinTables::new(&t, 8, &[(0xf0, 2), (0x0f, 2)]).is_none()); // descending
        assert!(LinTables::new(&t, 8, &[(0x33, 2), (0xcc, 2)]).is_none()); // interleaved
        assert!(LinTables::new(&t, 8, &[(0x0f, 5), (0xf0, 2)]).is_none()); // weight > width
        assert!(LinTables::new(&t, 40, &[(low_mask(40), 20)]).is_none()); // wider than 32
        assert!(LinTables::new(&t, 8, &[]).is_none());
        // Three species.
        assert!(LinTables::new(&t, 6, &[(0x03, 1), (0x0c, 1), (0x30, 1)]).is_none());
        // Both halves of a 64-bit word, each species 32 wide.
        let full =
            LinTables::new(&t, 64, &[(low_mask(32), 1), (low_mask(32) << 32, 1)]).unwrap();
        assert_eq!(full.rank(1 << 63 | 1 << 31), Some(1023));
        assert_eq!(full.rank(u64::MAX), None);
    }

    #[test]
    fn rank_unrank_roundtrip_large() {
        let t = BinomialTable::new();
        let n = 40;
        let w = 20;
        let dim = t.choose(n, w);
        // Sample ranks across the full range.
        for i in 0..1000u64 {
            let r = i * (dim / 1000);
            let s = t.unrank(r, n, w);
            assert_eq!(s.count_ones(), w);
            assert_eq!(t.rank(s), r);
        }
    }
}
