//! The shared-memory symmetry-adapted basis.

use crate::enumerate;
use crate::sector::SectorSpec;
use ls_kernels::combinadics::{BinomialTable, LinTables};
use ls_kernels::search::{HashIndex, NOT_FOUND};
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

/// A fully built symmetry sector basis: the sorted list of representatives
/// with orbit sizes and a ranking structure. The basis picks the ranking
/// itself: a closed form where the sector has one (trivial group, one-bit
/// codes, the list the whole product of one or two fixed-weight species —
/// a U(1) spin sector, spinful fermions), a hash index over the sorted
/// list everywhere else.
#[derive(Clone, Debug)]
pub struct SpinBasis {
    sector: SectorSpec,
    states: Vec<u64>,
    orbit_sizes: Vec<u32>,
    /// The search ranking; built exactly where no closed form exists.
    search: Option<HashIndex>,
    /// One-species closed forms: the ranking of a species too wide for
    /// `lin`, and [`Self::combinadic_table`].
    binom: Option<BinomialTable>,
    lin: Option<LinTables>,
}

impl SpinBasis {
    /// Builds the basis by parallel enumeration, eight chunks a thread.
    /// Panics, naming the features, on a host below the build's CPU
    /// baseline.
    pub fn build(sector: SectorSpec) -> Self {
        ls_kernels::simd::require_baseline().unwrap_or_else(|e| panic!("{e}"));
        let chunks = (rayon::current_num_threads() * 8).max(1);
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
        // full product of the sector's fixed-weight species: on a subset
        // (a loaded or filtered list) a member's position is no longer
        // its combinadic rank.
        let binom = (sector.group().order() == 1
            && sector.encoding().bits() == 1
            && sector.dimension() == states.len() as u64)
            .then(BinomialTable::new);
        let lin = binom.as_ref().and_then(|b| sector.lin_tables(b));
        // One species too wide for the Lin tables keeps the combinadic sum.
        let single = sector.charges().is_empty() && sector.hamming_weight().is_some();
        let binom = binom.filter(|_| single);
        let closed_form = binom.is_some() || lin.is_some();
        let search = (!closed_form).then(|| HashIndex::new(&states, sector.code_bits()));
        Self { sector, states, orbit_sizes, search, binom, lin }
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
        match &self.search {
            Some(search) => search.lookup(&self.states, rep),
            None => self.closed_form_rank(rep).map(|i| i as usize),
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
                let t = self.binom.as_ref().expect("closed-form sector");
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

    /// The rank of a known member: on a closed form, two table loads per
    /// species of the Lin tables (or the combinadic sum of a species too
    /// wide for them) and no membership test; the search elsewhere. A
    /// non-member gets a wrong rank, caught in debug builds only — the
    /// same trust as [`Self::index_of_present`]'s callers', backed by
    /// [`crate::SymmetrizedOperator::new`] refusing an operator that
    /// leaves the sector. A loop takes [`LinTables::ranker`] once instead.
    #[inline]
    pub fn rank_member(&self, rep: u64) -> usize {
        debug_assert!(self.index_of(rep).is_some(), "state {rep:#018x} missing from the basis");
        match (&self.lin, &self.binom) {
            (Some(lin), _) => lin.rank_member(rep) as usize,
            (None, Some(binom)) => binom.rank(rep) as usize,
            (None, None) => self.index_of_present(rep),
        }
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
    /// `out`, one `u32` rank (or [`NOT_FOUND`]) per input — the closed form
    /// per element, or the hash index's batch kernel. This is the
    /// `stateToIndex` the batched matvec engine uses.
    pub fn index_of_batch(&self, reps: &[u64], out: &mut Vec<u32>) {
        match &self.search {
            Some(search) => search.lookup_batch(&self.states, reps, out),
            None => {
                out.clear();
                out.extend(
                    reps.iter()
                        .map(|&rep| self.closed_form_rank(rep).map_or(NOT_FOUND, |i| i as u32)),
                );
            }
        }
    }

    /// Whether ranking is a closed form (no search index exists) rather
    /// than the hash index.
    pub fn ranks_in_closed_form(&self) -> bool {
        self.search.is_none()
    }

    /// The combinadic ranking table, present exactly when the basis is a
    /// whole U(1)-only sector (trivial group, one fixed-weight species,
    /// every member listed) — there a state's index *is* its combinadic
    /// rank. `None` on multi-species sectors and on partial state lists.
    pub fn combinadic_table(&self) -> Option<&BinomialTable> {
        self.binom.as_ref()
    }

    /// The Lin tables, where the basis ranks by them.
    pub fn lin_tables(&self) -> Option<&LinTables> {
        self.lin.as_ref()
    }

    /// Memory estimate in bytes (states + orbit sizes + the ranking
    /// structure).
    pub fn memory_bytes(&self) -> usize {
        self.states.len() * 8
            + self.orbit_sizes.len() * 4
            + self.search.as_ref().map_or(0, HashIndex::memory_bytes)
            + self.binom.as_ref().map_or(0, BinomialTable::memory_bytes)
            + self.lin.as_ref().map_or(0, LinTables::memory_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_kernels::bits::low_mask;
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

    /// The basis's own ranking, scalar, batched and of members, against
    /// `states.binary_search` and against a hash index built here over
    /// the same list — where the basis chose a closed form, that is
    /// "closed form ≡ hash index".
    fn check_ranking(basis: &SpinBasis, probes: &[u64]) {
        let states = basis.states();
        let hash = HashIndex::new(states, basis.sector().code_bits());
        let (mut own, mut searched) = (Vec::new(), Vec::new());
        basis.index_of_batch(probes, &mut own);
        hash.lookup_batch(states, probes, &mut searched);
        assert_eq!(own.len(), probes.len());
        for (k, &p) in probes.iter().enumerate() {
            let expect = states.binary_search(&p).ok();
            assert_eq!(basis.index_of(p), expect, "probe={p:#b}");
            assert_eq!(hash.lookup(states, p), expect, "probe={p:#b}");
            assert_eq!(own[k], expect.map_or(NOT_FOUND, |i| i as u32), "probe={p:#b}");
            assert_eq!(searched[k], own[k], "probe={p:#b}");
            if let Some(i) = expect {
                assert_eq!(basis.rank_member(p), i, "probe={p:#b}");
            }
        }
    }

    #[test]
    fn batch_ranking_matches_scalar_for_all_kinds() {
        let u1 = SpinBasis::build(SectorSpec::with_weight(12, 6).unwrap());
        let hubbard = SpinBasis::build(SectorSpec::spinful_fermions(5, 2, 3).unwrap());
        for (basis, closed_form) in [(chain_basis(10), false), (u1, true), (hubbard, true)] {
            assert_eq!(basis.ranks_in_closed_form(), closed_form);
            let mut probes: Vec<u64> = basis.states().to_vec();
            probes.extend(0..1024u64); // mostly absent
            probes.push(u64::MAX);
            check_ranking(&basis, &probes);
        }
    }

    #[test]
    fn from_parts_ranks_a_partial_list_by_search() {
        // Two of the six weight-2 words, and not the first two: neither
        // member's position is its combinadic rank (0b0110 has rank 2).
        let sector = SectorSpec::with_weight(4, 2).unwrap();
        let basis = SpinBasis::from_parts(sector, vec![0b0011, 0b0110], vec![1, 1]);
        assert!(!basis.ranks_in_closed_form());
        assert!(basis.combinadic_table().is_none(), "gateway of the fused replay");
        assert_eq!(basis.index_of(0b0011), Some(0));
        assert_eq!(basis.index_of(0b0110), Some(1));
        assert_eq!(basis.index_of(0b0101), None, "in the sector, not in the list");
        check_ranking(&basis, &(0..16).collect::<Vec<u64>>());
        // Same for a partial product of two species.
        let hubbard = SectorSpec::spinful_fermions(2, 1, 1).unwrap();
        let basis = SpinBasis::from_parts(hubbard, vec![0b0110, 0b1010], vec![1, 1]);
        assert!(!basis.ranks_in_closed_form());
        check_ranking(&basis, &(0..16).collect::<Vec<u64>>());
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
        assert!(basis.ranks_in_closed_form());
        assert_eq!(basis.dim(), 3432);
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
        }
        // Wrong-weight probes return None.
        assert_eq!(basis.index_of(0b111), None);
        assert_eq!(basis.index_of(0), None);
        // A species wider than the Lin tables keeps the combinadic sum.
        for (n, w) in [(40, 2), (64, 1)] {
            let wide = SpinBasis::build(SectorSpec::with_weight(n, w).unwrap());
            assert!(wide.ranks_in_closed_form());
            assert!(wide.lin.is_none() && wide.combinadic_table().is_some());
            let mut probes = wide.states().to_vec();
            probes.extend([u64::MAX, 0, 1 << 40 | 1, 1 << 63, 0b111]);
            check_ranking(&wide, &probes);
        }
    }

    #[test]
    fn combinadic_falls_back_where_no_closed_form_exists() {
        // Symmetry-adapted sector: a state's position depends on which
        // orbits survive, so the basis ranks by its hash index.
        let basis = chain_basis(8);
        assert!(!basis.ranks_in_closed_form());
        assert!(basis.combinadic_table().is_none());
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
        }
        // Multi-bit codes are not a product of fixed-weight species.
        let spin1 = SpinBasis::build(SectorSpec::spin_s(5, 3, Some(5)).unwrap());
        assert_eq!(spin1.dim() as u64, spin1.sector().dimension());
        assert!(!spin1.ranks_in_closed_form());
        check_ranking(&spin1, &(0..1 << 10).collect::<Vec<u64>>());
        // Neither is the unconstrained trivial-group sector.
        let full = SpinBasis::build(SectorSpec::full(6));
        assert!(!full.ranks_in_closed_form());
        check_ranking(&full, &(0..1 << 7).collect::<Vec<u64>>());
    }

    #[test]
    fn spinful_fermion_basis_ranks_in_closed_form() {
        let basis = SpinBasis::build(SectorSpec::spinful_fermions(4, 2, 2).unwrap());
        assert_eq!(basis.dim() as u64, basis.sector().dimension());
        assert!(basis.ranks_in_closed_form());
        // Two species: no single combinadic table, Lin tables on both.
        assert!(basis.combinadic_table().is_none());
        let lin = basis.lin_tables().map(LinTables::ranker);
        assert!(matches!(lin, Some(ls_kernels::combinadics::LinRanker::Two(_))));
        for (i, &s) in basis.states().iter().enumerate() {
            assert_eq!(basis.index_of(s), Some(i));
            assert_eq!(basis.index_of_present(s), i);
            assert_eq!(basis.rank_member(s), i);
        }
        // Wrong species count is absent even though total weight matches.
        assert_eq!(basis.index_of(0b0000_1111), None);
    }

    #[test]
    fn memory_bytes_counts_the_one_ranking_structure() {
        // A closed-form sector holds its tables and no search index: the
        // Lin tables and, on one species, the binomial table.
        let binom = BinomialTable::new().memory_bytes();
        assert_eq!(binom, 65 * 65 * 8);
        let hubbard = SpinBasis::build(SectorSpec::spinful_fermions(4, 2, 2).unwrap());
        assert!(hubbard.search.is_none());
        let lin = hubbard.lin.as_ref().unwrap().memory_bytes();
        assert!(lin < 1024);
        assert_eq!(hubbard.memory_bytes(), hubbard.dim() * 12 + lin);
        let u1 = SpinBasis::build(SectorSpec::with_weight(12, 6).unwrap());
        let lin = u1.lin.as_ref().unwrap().memory_bytes();
        assert_eq!(u1.memory_bytes(), u1.dim() * 12 + lin + binom);
        // A species too wide for Lin tables: the binomial table alone.
        let wide = SpinBasis::build(SectorSpec::with_weight(40, 1).unwrap());
        assert_eq!(wide.memory_bytes(), 40 * 12 + binom);
        // A search sector: 28 968 states and orbit sizes + 57 936 hash
        // slots on the 24-site fully symmetrized ring.
        let ring = chain_basis(24);
        assert_eq!(ring.dim(), 28_968);
        assert_eq!(ring.memory_bytes(), 579_360);
    }

    #[test]
    fn closed_form_survives_hostile_words_at_the_edges() {
        // sites * bits == 64, and species with exactly one configuration.
        for (n, up, dn, dim) in [(32, 1, 1, 1024), (5, 0, 2, 10), (5, 5, 2, 10)] {
            let basis = SpinBasis::build(SectorSpec::spinful_fermions(n, up, dn).unwrap());
            assert!(basis.ranks_in_closed_form(), "({n}, {up}, {dn})");
            assert_eq!(basis.dim(), dim);
            let mut probes = basis.states().to_vec();
            // Right total weight, wrong species counts.
            let (u, d) = if up < n { (up + 1, dn - 1) } else { (up - 1, dn + 1) };
            let wrong = low_mask(u) | low_mask(d) << n;
            assert_eq!(wrong.count_ones(), up + dn);
            assert_eq!(basis.index_of(wrong), None);
            probes.extend([u64::MAX, 0, wrong]);
            check_ranking(&basis, &probes);
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
