//! The shared-memory symmetry-adapted basis.

use crate::enumerate;
use crate::sector::{BasisError, SectorSpec};
use ls_kernels::bits::low_mask;
use ls_kernels::combinadics::{BinomialTable, LinTables};
use ls_kernels::search::{PrefixIndex, TrieIndex, NOT_FOUND};
use ls_kernels::SiteEncoding;

/// A generated state that has no rank in the basis — raised when an
/// operator produces a representative outside the sector. This is always
/// a logic error (a Hermitian symmetry-commuting operator stays inside
/// the sector), so the hot ranking paths report it by panicking via
/// [`missing_state`]; the typed form exists so every layer (shared-memory
/// basis, batched matvec, distributed locales) formats the same
/// diagnostic, including the per-site configuration under the sector's
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingState {
    pub rep: u64,
    pub encoding: SiteEncoding,
    pub n_sites: u32,
}

impl std::fmt::Display for MissingState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "generated state {:#018x} is not in the basis (sites [", self.rep)?;
        for (i, c) in self.encoding.decode(self.rep, self.n_sites).iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "])")
    }
}

impl std::error::Error for MissingState {}

/// The shared cold tail of every `index_of_present`-style lookup (basis
/// ranking, batched matvec gather, distributed locale resolution):
/// keeping the panic (and its formatting machinery) out of the inlined
/// hot path lets the ranking call compile down to the lookup plus one
/// predictable branch.
#[cold]
#[inline(never)]
pub fn missing_state(rep: u64, encoding: SiteEncoding, n_sites: u32) -> ! {
    panic!("{}", MissingState { rep, encoding, n_sites });
}

/// How `state -> index` ranking is performed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RankingKind {
    /// Prefix-bucket index + short binary search (the default wherever
    /// no closed form exists).
    PrefixBuckets,
    /// Closed-form ranking (the default wherever it exists): trivial
    /// group, one-bit codes, and the sector a product of fixed-weight
    /// species — one for a U(1) spin sector, two for spinful fermions.
    Combinadic,
    /// Radix trie (Wallerberger & Held, the paper's Ref.\ 25): fixed
    /// number of dependent loads, no comparisons; built lazily on first
    /// selection.
    Trie,
}

/// A fully built symmetry sector basis: the sorted list of representatives
/// with orbit sizes and a ranking structure.
#[derive(Clone, Debug)]
pub struct SpinBasis {
    sector: SectorSpec,
    states: Vec<u64>,
    orbit_sizes: Vec<u32>,
    /// Built with the basis where it is the default ranking, otherwise
    /// (like the trie) when it is first selected.
    prefix: Option<PrefixIndex>,
    /// Single-species sectors only: the table of the fused differential
    /// matvec, and the ranking of a species too wide for `lin`.
    combinadic: Option<BinomialTable>,
    lin: Option<LinTables>,
    trie: Option<TrieIndex>,
    ranking: RankingKind,
}

impl SpinBasis {
    /// Builds the basis by parallel enumeration.
    pub fn build(sector: SectorSpec) -> Self {
        let chunks = (rayon::current_num_threads() * 8).max(1);
        Self::build_with_chunks(sector, chunks)
    }

    /// Builds with an explicit chunk count (useful for tests and benches).
    pub fn build_with_chunks(sector: SectorSpec, chunks: usize) -> Self {
        let chunk = enumerate::enumerate_par(&sector, chunks);
        Self::from_parts(sector, chunk.states, chunk.orbit_sizes)
    }

    /// Assembles a basis from already-enumerated parts (used by the
    /// distributed layer after gathering).
    pub fn from_parts(sector: SectorSpec, states: Vec<u64>, orbit_sizes: Vec<u32>) -> Self {
        assert_eq!(states.len(), orbit_sizes.len(), "one orbit size per state");
        debug_assert!(states.windows(2).all(|w| w[0] < w[1]), "states must be sorted");
        // A closed form is exact only when every state is its own orbit
        // (trivial group), codes are one bit wide, and `states` is the
        // full product of the sector's fixed-weight species.
        let species: Vec<(u64, u32)> = match (sector.charges(), sector.hamming_weight()) {
            ([], Some(w)) => vec![(low_mask(sector.n_sites()), w)],
            (charges, _) => charges.iter().map(|c| (c.mask, c.weight)).collect(),
        };
        let binom = (sector.group().order() == 1 && sector.encoding().bits() == 1)
            .then(BinomialTable::new);
        let lin = binom
            .as_ref()
            .and_then(|b| LinTables::new(b, sector.n_sites(), &species))
            .filter(|_| sector.dimension() == states.len() as u64);
        let combinadic =
            binom.filter(|_| sector.charges().is_empty() && sector.hamming_weight().is_some());
        let mut basis = Self {
            sector,
            states,
            orbit_sizes,
            prefix: None,
            combinadic,
            lin,
            trie: None,
            ranking: RankingKind::Combinadic,
        };
        // Falls back to `PrefixBuckets`, building its index, where the
        // sector has no closed form.
        basis.set_ranking(RankingKind::Combinadic);
        basis
    }

    pub fn sector(&self) -> &SectorSpec {
        &self.sector
    }

    pub fn dim(&self) -> usize {
        self.states.len()
    }

    pub fn states(&self) -> &[u64] {
        &self.states
    }

    pub fn orbit_sizes(&self) -> &[u32] {
        &self.orbit_sizes
    }

    /// The state stored at `index`.
    #[inline]
    pub fn state(&self, index: usize) -> u64 {
        self.states[index]
    }

    /// Ranking: the index of a representative, or `None` if it is not in
    /// the basis. This is the paper's `stateToIndex`.
    #[inline]
    pub fn index_of(&self, rep: u64) -> Option<usize> {
        match self.ranking {
            RankingKind::Combinadic => self.closed_form_rank(rep).map(|i| i as usize),
            RankingKind::PrefixBuckets => {
                self.prefix.as_ref().expect("built on selection").lookup(&self.states, rep)
            }
            RankingKind::Trie => self.trie.as_ref().expect("built on selection").lookup(rep),
        }
    }

    /// The closed-form rank of a member, `None` for anything else: a
    /// wrong per-species count, a bit at or above `n_sites`.
    #[inline]
    fn closed_form_rank(&self, rep: u64) -> Option<u64> {
        let rank = match &self.lin {
            Some(lin) => lin.rank(rep)?,
            None => {
                // One species wider than the Lin tables reach. Its rank is
                // only meaningful for the right weight, and a bit above
                // `n_sites` ranks past the end.
                let t = self.combinadic.as_ref().expect("closed-form sector");
                let rank = t.rank(rep);
                if Some(rep.count_ones()) != self.sector.hamming_weight()
                    || rank >= self.states.len() as u64
                {
                    return None;
                }
                rank
            }
        };
        debug_assert_eq!(self.states[rank as usize], rep);
        Some(rank)
    }

    /// Ranking for hot loops where the state is guaranteed to be a member
    /// of the basis (every valid representative a Hermitian,
    /// symmetry-commuting operator generates is). Skips the `Option`
    /// plumbing and keeps panic formatting in a cold out-of-line function;
    /// membership is still asserted in debug builds.
    #[inline]
    pub fn index_of_present(&self, rep: u64) -> usize {
        debug_assert!(self.index_of(rep).is_some(), "state {rep:#018x} missing from the basis");
        match self.index_of(rep) {
            Some(i) => i,
            None => missing_state(rep, self.sector.encoding(), self.sector.n_sites()),
        }
    }

    /// Batched ranking: resolves a whole block of representatives into
    /// `out`, one `u32` rank (or [`NOT_FOUND`]) per input. Dispatches to
    /// the interleaved bulk kernels of the active [`RankingKind`] — this
    /// is the `stateToIndex` the batched matvec strategies use.
    pub fn index_of_batch(&self, reps: &[u64], out: &mut Vec<u32>) {
        match self.ranking {
            RankingKind::Combinadic => {
                out.clear();
                out.extend(
                    reps.iter()
                        .map(|&rep| self.closed_form_rank(rep).map_or(NOT_FOUND, |i| i as u32)),
                );
            }
            RankingKind::PrefixBuckets => self
                .prefix
                .as_ref()
                .expect("built on selection")
                .lookup_batch(&self.states, reps, out),
            RankingKind::Trie => {
                self.trie.as_ref().expect("built on selection").lookup_batch(reps, out)
            }
        }
    }

    /// Forces a particular ranking implementation (ablation benches).
    ///
    /// A request the sector cannot honour (closed-form ranking where none
    /// exists) falls back to [`RankingKind::PrefixBuckets`] instead of
    /// failing; use [`Self::try_set_ranking`] to observe the rejection.
    pub fn set_ranking(&mut self, kind: RankingKind) {
        let _ = self.try_set_ranking(kind);
    }

    /// Like [`Self::set_ranking`], but reports whether the request could
    /// be honoured. On `Err` the basis is left on the always-valid
    /// [`RankingKind::PrefixBuckets`] ranking.
    pub fn try_set_ranking(&mut self, kind: RankingKind) -> Result<RankingKind, BasisError> {
        let refused =
            kind == RankingKind::Combinadic && self.lin.is_none() && self.combinadic.is_none();
        self.ranking = if refused { RankingKind::PrefixBuckets } else { kind };
        let bits = self.sector.code_bits();
        match self.ranking {
            RankingKind::PrefixBuckets if self.prefix.is_none() => {
                self.prefix = Some(PrefixIndex::auto(&self.states, bits));
            }
            RankingKind::Trie if self.trie.is_none() => {
                self.trie = Some(TrieIndex::build(&self.states, bits, 8));
            }
            _ => {}
        }
        if refused {
            return Err(BasisError::RankingUnavailable { requested: "combinadic" });
        }
        Ok(kind)
    }

    pub fn ranking(&self) -> RankingKind {
        self.ranking
    }

    /// The combinadic ranking table, present exactly when the sector is
    /// U(1)-only (trivial group, one fixed-weight species) — the
    /// precondition of the sign-free differential-ranking fast path in
    /// the batched matvec, so `None` on multi-species sectors.
    pub fn combinadic_table(&self) -> Option<&BinomialTable> {
        self.combinadic.as_ref()
    }

    /// Memory estimate in bytes (states + orbit sizes + every ranking
    /// structure built so far).
    pub fn memory_bytes(&self) -> usize {
        self.states.len() * 8
            + self.orbit_sizes.len() * 4
            + self.prefix.as_ref().map_or(0, PrefixIndex::memory_bytes)
            + self.lin.as_ref().map_or(0, LinTables::memory_bytes)
            + self.trie.as_ref().map_or(0, TrieIndex::memory_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_symmetry::lattice;

    fn chain_basis(n: usize) -> SpinBasis {
        let g = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        SpinBasis::build(SectorSpec::new(n as u32, Some(n as u32 / 2), g).unwrap())
    }

    #[test]
    fn build_and_rank() {
        let basis = chain_basis(12);
        assert_eq!(basis.dim() as u64, basis.sector().dimension());
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
        }
        // A non-representative must not be found.
        assert_eq!(basis.index_of(0b1000_0000_0001), None);
    }

    #[test]
    #[should_panic(expected = "one orbit size per state")]
    fn from_parts_rejects_mismatched_lengths() {
        // Release builds too: the distributed gather feeds this.
        let sector = SectorSpec::with_weight(4, 2).unwrap();
        SpinBasis::from_parts(sector, vec![0b0011, 0b0101], vec![1]);
    }

    /// Every ranking `basis` offers, scalar and batched, against
    /// `states.binary_search` on `probes`; leaves the default selected.
    fn check_all_rankings(basis: &mut SpinBasis, probes: &[u64]) {
        let default = basis.ranking();
        let mut out = Vec::new();
        for kind in [RankingKind::Combinadic, RankingKind::PrefixBuckets, RankingKind::Trie] {
            if basis.try_set_ranking(kind).is_err() {
                assert_ne!(default, RankingKind::Combinadic);
                continue;
            }
            basis.index_of_batch(probes, &mut out);
            assert_eq!(out.len(), probes.len());
            for (&p, &o) in probes.iter().zip(&out) {
                let expect = basis.states().binary_search(&p).ok();
                assert_eq!(basis.index_of(p), expect, "{kind:?} probe={p:#b}");
                assert_eq!(o, expect.map_or(NOT_FOUND, |i| i as u32), "{kind:?} probe={p:#b}");
            }
        }
        basis.set_ranking(default);
    }

    #[test]
    fn batch_ranking_matches_scalar_for_all_kinds() {
        let u1 = SpinBasis::build(SectorSpec::with_weight(12, 6).unwrap());
        let hubbard = SpinBasis::build(SectorSpec::spinful_fermions(5, 2, 3).unwrap());
        for (mut basis, default) in [
            (chain_basis(10), RankingKind::PrefixBuckets),
            (u1, RankingKind::Combinadic),
            (hubbard, RankingKind::Combinadic),
        ] {
            assert_eq!(basis.ranking(), default);
            let mut probes: Vec<u64> = basis.states().to_vec();
            probes.extend(0..1024u64); // mostly absent
            probes.push(u64::MAX);
            check_all_rankings(&mut basis, &probes);
        }
    }

    #[test]
    fn index_of_present_agrees() {
        let basis = chain_basis(10);
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of_present(s), i);
        }
    }

    #[test]
    #[should_panic(expected = "is not in the basis")]
    #[cfg(not(debug_assertions))]
    fn index_of_present_panics_on_missing() {
        let basis = chain_basis(10);
        basis.index_of_present(0b10); // not a representative
    }

    #[test]
    fn combinadic_fast_path() {
        let basis = SpinBasis::build(SectorSpec::with_weight(14, 7).unwrap());
        assert_eq!(basis.ranking(), RankingKind::Combinadic);
        assert_eq!(basis.dim(), 3432);
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
        }
        // Wrong-weight probes return None.
        assert_eq!(basis.index_of(0b111), None);
        assert_eq!(basis.index_of(0), None);
        // A species wider than the Lin tables keeps the combinadic sum.
        for (n, w) in [(40, 2), (64, 1)] {
            let mut wide = SpinBasis::build(SectorSpec::with_weight(n, w).unwrap());
            assert_eq!(wide.ranking(), RankingKind::Combinadic);
            assert!(wide.lin.is_none() && wide.combinadic_table().is_some());
            let mut probes = wide.states().to_vec();
            probes.extend([u64::MAX, 0, 1 << 40 | 1, 1 << 63, 0b111]);
            check_all_rankings(&mut wide, &probes);
        }
    }

    #[test]
    fn combinadic_falls_back_where_no_closed_form_exists() {
        // Symmetry-adapted sector: a closed form is impossible; the
        // request reports the typed error and the basis stays usable on
        // PrefixBuckets.
        let mut basis = chain_basis(8);
        let refused = basis.try_set_ranking(RankingKind::Combinadic).unwrap_err();
        assert_eq!(refused, BasisError::RankingUnavailable { requested: "combinadic" });
        assert!(!refused.to_string().contains("U(1)-only"), "{refused}");
        assert_eq!(basis.ranking(), RankingKind::PrefixBuckets);
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
        }
        // The infallible setter silently takes the same fallback.
        basis.set_ranking(RankingKind::Combinadic);
        assert_eq!(basis.ranking(), RankingKind::PrefixBuckets);
        // Multi-bit codes are not a product of fixed-weight species.
        let mut spin1 = SpinBasis::build(SectorSpec::spin_s(5, 3, Some(5)).unwrap());
        assert_eq!(spin1.dim() as u64, spin1.sector().dimension());
        assert_eq!(spin1.ranking(), RankingKind::PrefixBuckets);
        assert!(spin1.try_set_ranking(RankingKind::Combinadic).is_err());
        check_all_rankings(&mut spin1, &(0..1 << 10).collect::<Vec<u64>>());
    }

    #[test]
    fn spinful_fermion_basis_ranks_in_closed_form() {
        let mut basis = SpinBasis::build(SectorSpec::spinful_fermions(4, 2, 2).unwrap());
        assert_eq!(basis.dim() as u64, basis.sector().dimension());
        assert_eq!(basis.ranking(), RankingKind::Combinadic);
        // Jordan-Wigner sector: no table for the sign-free fused matvec.
        assert!(basis.combinadic_table().is_none());
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
            assert_eq!(basis.index_of_present(s), i);
        }
        // Wrong species count is absent even though total weight matches.
        assert_eq!(basis.index_of(0b0000_1111), None);
        // No search index is built until a search ranking is selected.
        let closed_form_bytes = basis.memory_bytes();
        assert!(closed_form_bytes < basis.dim() * 12 + 1024);
        basis.set_ranking(RankingKind::PrefixBuckets);
        assert!(basis.memory_bytes() > closed_form_bytes);
    }

    #[test]
    fn closed_form_survives_hostile_words_at_the_edges() {
        // sites * bits == 64, and species with exactly one configuration.
        for (n, up, dn, dim) in [(32, 1, 1, 1024), (5, 0, 2, 10), (5, 5, 2, 10)] {
            let basis = SpinBasis::build(SectorSpec::spinful_fermions(n, up, dn).unwrap());
            assert_eq!(basis.ranking(), RankingKind::Combinadic, "({n}, {up}, {dn})");
            assert_eq!(basis.dim(), dim);
            let mut probes = basis.states().to_vec();
            // Right total weight, wrong species counts.
            let (u, d) = if up < n { (up + 1, dn - 1) } else { (up - 1, dn + 1) };
            let wrong = low_mask(u) | low_mask(d) << n;
            assert_eq!(wrong.count_ones(), up + dn);
            assert_eq!(basis.index_of(wrong), None);
            probes.extend([u64::MAX, 0, wrong]);
            let mut out = Vec::new();
            basis.index_of_batch(&probes, &mut out);
            for (&p, &o) in probes.iter().zip(&out) {
                let expect = basis.states().binary_search(&p).ok();
                assert_eq!(basis.index_of(p), expect, "({n}, {up}, {dn}) probe={p:#x}");
                assert_eq!(o, expect.map_or(NOT_FOUND, |i| i as u32));
            }
            assert_eq!(basis.index_of(u64::MAX), None);
        }
    }

    #[test]
    fn missing_state_reports_site_configuration() {
        let e = MissingState { rep: 0b10_01_00, encoding: SiteEncoding::spin(3), n_sites: 3 };
        let msg = e.to_string();
        assert!(msg.contains("is not in the basis"), "{msg}");
        assert!(msg.contains("[0 1 2]"), "{msg}");
    }
}
