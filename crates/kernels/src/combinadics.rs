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
    /// nearest-neighbour exchange term.
    #[inline]
    pub fn rank_xor_adjacent(&self, s: u64, lo: u32, rank_s: u64) -> u64 {
        debug_assert!((s >> lo) & 0b11 == 0b01 || (s >> lo) & 0b11 == 0b10);
        let first = (s & low_mask(lo)).count_ones() + 1;
        let lower_set = ((s >> lo) & 1) as u32;
        let sub = self.choose_raw(lo + 1 - lower_set, first);
        let add = self.choose_raw(lo + lower_set, first);
        rank_s + add - sub
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

/// One fixed-weight species of a [`LinTables`] ranking: where its bits
/// sit in the word, and its two half-tables.
#[derive(Clone, Debug, Default)]
struct LinSpecies {
    shift: u32,
    mask: u64, // of the species' bits once shifted down
    lo: Vec<u64>,
    hi: Vec<u64>,
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
    /// One species (a U(1) spin sector) or two (spinful fermions).
    species: [LinSpecies; 2],
    n_species: usize,
    /// Bits no species covers; set in no member.
    outside: u64,
}

/// [`LinTables`] by value for a loop, specialized to its `N` species: the
/// descriptors stay in registers (through the tables, stores reload them).
#[derive(Clone, Copy, Debug)]
pub struct LinView<'a, const N: usize> {
    /// Per species: its shift, its half-tables (`2^w` entries for `w` bits:
    /// `len - 1` masks an index into range) and its stride.
    species: [(u32, &'a [u64], &'a [u64], u64); N],
    outside: u64,
}

/// A [`LinView`] of either species count: the dispatch a loop makes once.
#[derive(Clone, Copy, Debug)]
pub enum LinRanker<'a> {
    One(LinView<'a, 1>),
    Two(LinView<'a, 2>),
}

impl<const N: usize> LinView<'_, N> {
    /// Lin's arithmetic, its one copy: the rank of `state`, and membership.
    #[inline(always)]
    fn rank_and_member(&self, state: u64) -> (u64, bool) {
        let (mut rank, mut member) = (0u64, state & self.outside == 0);
        for (i, &(shift, lo, hi, stride)) in self.species.iter().enumerate() {
            // The lowest species sits at bit 0 and has stride 1.
            let x = if i == 0 { state } else { state >> shift };
            let lo_bits = lo.len().trailing_zeros();
            let (lo, hi) =
                (lo[x as usize & (lo.len() - 1)], hi[(x >> lo_bits) as usize & (hi.len() - 1)]);
            member &= lo >> 32 == hi >> 32;
            let r = lo as u32 as u64 + hi as u32 as u64;
            rank += if i == 0 { r } else { r * stride };
        }
        (rank, member)
    }

    /// Position of `state` among the product's words in integer order; `None`
    /// for a wrong per-species count or a bit outside every species.
    #[inline]
    pub fn rank(&self, state: u64) -> Option<u64> {
        let (rank, member) = self.rank_and_member(state);
        member.then_some(rank)
    }

    /// [`Self::rank`] of a known member: two table loads per species, no
    /// membership test. A non-member gets a wrong rank, not an error.
    #[inline]
    pub fn rank_member(&self, state: u64) -> u64 {
        self.rank_and_member(state).0
    }
}

impl LinTables {
    /// Tables for one or two `species` = `(mask, weight)` pairs, or `None`
    /// unless the masks are contiguous, ascending, each 1 to 32 bits wide,
    /// and tile `0..n_bits` exactly.
    pub fn new(binom: &BinomialTable, n_bits: u32, species: &[(u64, u32)]) -> Option<Self> {
        if !(1..=2).contains(&species.len()) {
            return None;
        }
        let mut out =
            Self { species: Default::default(), n_species: species.len(), outside: 0 };
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
            let lo =
                (0..1u64 << lo_bits).map(|lo| (lo.count_ones() as u64) << 32 | binom.rank(lo));
            let hi = (0..1u64 << (width - lo_bits)).map(|hi| {
                // The smallest species word with this high half keeps the
                // rest of the weight in its lowest bits; a high half no
                // member has asks for a weight no low half has.
                match weight.checked_sub(hi.count_ones()) {
                    Some(rest) if rest <= lo_bits => {
                        (rest as u64) << 32 | binom.rank(hi << lo_bits | low_mask(rest))
                    }
                    _ => u64::MAX << 32,
                }
            });
            let (lo, hi) = (lo.collect(), hi.collect());
            *slot = LinSpecies { shift, mask: mask >> shift, lo, hi, stride, weight };
            stride *= binom.choose(width, weight);
            shift += width;
        }
        out.outside = !low_mask(shift);
        (shift == n_bits).then_some(out)
    }

    /// The tables as a [`LinView`] of their species count.
    #[inline]
    pub fn ranker(&self) -> LinRanker<'_> {
        let view = |s: usize| {
            let s = &self.species[s];
            (s.shift, &s.lo[..], &s.hi[..], s.stride)
        };
        let outside = self.outside;
        match self.n_species {
            1 => LinRanker::One(LinView { species: [view(0)], outside }),
            _ => LinRanker::Two(LinView { species: [view(0), view(1)], outside }),
        }
    }

    /// [`LinView::rank`], dispatched per call.
    #[inline]
    pub fn rank(&self, state: u64) -> Option<u64> {
        match self.ranker() {
            LinRanker::One(lin) => lin.rank(state),
            LinRanker::Two(lin) => lin.rank(state),
        }
    }

    /// [`LinView::rank_member`], dispatched per call.
    #[inline]
    pub fn rank_member(&self, state: u64) -> u64 {
        match self.ranker() {
            LinRanker::One(lin) => lin.rank_member(state),
            LinRanker::Two(lin) => lin.rank_member(state),
        }
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

    /// Memory used by the tables in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.species.iter().map(|s| 8 * (s.lo.len() + s.hi.len())).sum()
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
                assert_eq!(
                    t.rank_xor_adjacent(s, lo, rank_s),
                    t.rank_xor(s, f, rank_s),
                    "s={s:#b} lo={lo}"
                );
            }
        }
    }

    /// The `(mask, weight)` species of `layout` = `(width, weight)` pairs,
    /// lowest bits first, their Lin tables and their product's words in
    /// integer order.
    fn sorted_product(layout: &[(u32, u32)]) -> (Vec<(u64, u32)>, LinTables, Vec<u64>) {
        let mut species = Vec::new();
        let mut words = vec![0u64];
        let mut shift = 0;
        for &(width, weight) in layout {
            species.push((low_mask(width) << shift, weight));
            words = FixedWeightRange::all(width, weight)
                .flat_map(|x| words.iter().map(move |&w| x << shift | w))
                .collect();
            shift += width;
        }
        words.sort_unstable();
        let lin = LinTables::new(&BinomialTable::new(), shift, &species).unwrap();
        (species, lin, words)
    }

    /// The view's species count, and its checked and unchecked rank of `p`.
    fn view_ranks(lin: &LinTables, p: u64) -> (usize, Option<u64>, u64) {
        match lin.ranker() {
            LinRanker::One(view) => (1, view.rank(p), view.rank_member(p)),
            LinRanker::Two(view) => (2, view.rank(p), view.rank_member(p)),
        }
    }

    /// One species (odd width, so the halves differ) and two, one of them
    /// with a single configuration.
    const LAYOUTS: [&[(u32, u32)]; 3] = [&[(9, 4)], &[(5, 2), (5, 3)], &[(3, 1), (4, 4)]];

    #[test]
    fn lin_tables_rank_the_sorted_product() {
        for layout in LAYOUTS {
            let (species, lin, words) = sorted_product(layout);
            let n_bits = species.iter().map(|&(m, _)| m.count_ones()).sum::<u32>();
            for p in (0..2u64 << n_bits).chain([u64::MAX]) {
                let expect = words.binary_search(&p).ok().map(|i| i as u64);
                assert_eq!(lin.rank(p), expect, "{layout:?} {p:#b}");
            }
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(lin.rank_member(w), i as u64, "{layout:?} {w:#b}");
                assert_eq!(lin.unrank(i as u64), Some(w), "{layout:?} rank {i}");
            }
            assert_eq!(lin.unrank(words.len() as u64), None, "{layout:?}");
        }
    }

    /// Every member of every layout, a 32-bit-wide species and two of them
    /// filling the word (`spinful_fermions(32, 1, 1)`): the view's checked
    /// and unchecked rank are the tables' and the sorted position.
    #[test]
    fn the_view_ranks_every_member_at_its_sorted_position() {
        let wide: [&[(u32, u32)]; 2] = [&[(32, 2)], &[(32, 1), (32, 1)]];
        for layout in LAYOUTS.into_iter().chain(wide) {
            let (_, lin, words) = sorted_product(layout);
            for (i, &w) in words.iter().enumerate() {
                let (n, checked, unchecked) = view_ranks(&lin, w);
                assert_eq!(n, layout.len(), "{layout:?}");
                assert_eq!(
                    (checked, unchecked),
                    (Some(i as u64), i as u64),
                    "{layout:?} {w:#b}"
                );
                assert_eq!(checked, lin.rank(w), "{layout:?} {w:#b}");
                assert_eq!(unchecked, lin.rank_member(w), "{layout:?} {w:#b}");
            }
        }
    }

    /// The checked view refuses a word with the right total weight in the
    /// wrong species, and a member with a bit above every species.
    #[test]
    fn the_view_refuses_non_members() {
        let (species, lin, words) = sorted_product(&[(5, 2), (5, 3)]);
        let (low, high) = (species[0].0, species[1].0);
        // Three in the low species, two in the high one: weight 5 either way.
        let swapped = 0b111 | 0b11 << 5;
        assert_eq!((swapped & low).count_ones() + (swapped & high).count_ones(), 5);
        assert_eq!(view_ranks(&lin, swapped).1, None);
        for &w in &words {
            assert_eq!(view_ranks(&lin, w ^ 1).1, None, "{w:#b} one bit off");
            assert_eq!(view_ranks(&lin, w | 1 << 10).1, None, "{w:#b} with bit 10");
            assert_eq!(view_ranks(&lin, w | 1 << 63).1, None, "{w:#b} with bit 63");
        }
        let (_, one, words) = sorted_product(&[(32, 2)]);
        for &w in &words {
            assert_eq!(view_ranks(&one, w | 1 << 32).1, None, "{w:#b} with bit 32");
        }
        // A word that fills the low species but not the high one.
        let (_, full, _) = sorted_product(&[(32, 1), (32, 1)]);
        assert_eq!(view_ranks(&full, 0b11).1, None);
        assert_eq!(view_ranks(&full, 1 << 32 | 1 << 33).1, None);
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
