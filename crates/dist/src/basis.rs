//! Distributed basis enumeration (the paper's Fig. 4).
//!
//! The raw iteration space is split into cyclic chunks; every locale
//! filters its chunks down to symmetry representatives, partitions each
//! filtered chunk by destination locale (the hash distribution of
//! Sec. 5.1) and ships the pieces with one-sided puts into precomputed
//! disjoint offsets. Concatenating contributions in chunk order keeps each
//! locale's state list sorted.
//!
//! **Ranking.** A part is a hashed subset of the sector, so a member's
//! position is not its sector rank — but where the sector ranks in closed
//! form ([`SectorSpec::lin_tables`], the rule `ls_basis::SpinBasis` ranks
//! by) it is *select(part, rank)*: per 64 sector ranks a part keeps a
//! membership word and the count of its members below, 12 B per 64 states
//! of the **whole** sector (35 KB a part at 20 sites, cache-resident).
//! A part that table would outweigh — where `12·⌈dimension/64⌉` exceeds
//! the `8·len` bytes of a hash index over the part, beyond ≈ 42 locales —
//! ranks like every symmetrized or multi-bit sector: by the hash index
//! over its sorted states (`ls_kernels::search::HashIndex`).
//!
//! **Who ranks where.** The producer/consumer product names a generated
//! state on the wire by its *key* (`DistSpinBasis::key_ranks`). Where
//! every part selects, the key is the state's sector rank, computed by the
//! producer (Lin's tables, a few loads) while the row is in its
//! registers, and the owner resolves it with the select alone: no state
//! crosses, and the owner ranks nothing. Where some part searches, the key
//! is the state and the owner ranks it against its part, as `stateToIndex`
//! does in the paper. Either way `DistSpinBasis::resolve_batch` is the
//! owner's only step; a key its part lacks panics with the state behind it
//! ([`LinTables::unrank`] decodes a rank on that cold path).

use ls_basis::enumerate::{filter_range, split_ranges};
use ls_basis::SectorSpec;
use ls_kernels::combinadics::{BinomialTable, LinTables};
use ls_kernels::search::{HashIndex, NOT_FOUND};
use ls_kernels::{locale_idx_of, Scalar};
use ls_runtime::{collective, Cluster, DistVec, RmaWriteWindow};

/// Cold tail of [`DistSpinBasis::index_on_present`] and of every key a
/// product cannot resolve: formats through the shared
/// [`ls_basis::MissingState`] diagnostic (decoded per-site configuration
/// under the sector's encoding), adding the locale.
#[cold]
#[inline(never)]
pub(crate) fn missing_state(locale: usize, rep: u64, sector: &SectorSpec) -> ! {
    panic!(
        "locale {locale}: {}",
        ls_basis::MissingState { rep, encoding: sector.encoding(), n_sites: sector.n_sites() }
    );
}

/// How one part ranks its states (see the module docs).
#[derive(Clone, Debug)]
enum PartIndex {
    /// `[membership lo, membership hi, members below]` per 64 sector ranks.
    Select(Vec<[u32; 3]>),
    Search(HashIndex),
}

/// Position in the part `table` describes of the state with sector rank
/// `rank`; `None` where its membership bit is clear.
#[inline]
fn select(table: &[[u32; 3]], rank: u64) -> Option<u32> {
    let &[lo, hi, below] = table.get((rank >> 6) as usize)?;
    let (word, bit) = (lo as u64 | (hi as u64) << 32, 1u64 << (rank & 63));
    (word & bit != 0).then(|| below + (word & (bit - 1)).count_ones())
}

/// A symmetry-sector basis in the hashed distribution: locale `l` holds
/// the sorted list of representatives `s` with `locale_idx_of(s) == l`,
/// together with their orbit sizes and a local ranking index.
#[derive(Clone, Debug)]
pub struct DistSpinBasis {
    sector: SectorSpec,
    states: DistVec<u64>,
    orbit_sizes: DistVec<u32>,
    /// The sector's closed-form ranking, which the select tables index.
    lin: Option<LinTables>,
    index: Vec<PartIndex>,
    /// Every part selects: a product's keys are sector ranks.
    rank_keys: bool,
    dim: u64,
}

impl DistSpinBasis {
    /// Assembles a distributed basis from already-distributed parts. Each
    /// part must be placed on its hash-owner locale; a part that is not
    /// strictly ascending, or holds a state its closed-form sector has
    /// not, panics with the locale and the states.
    pub fn from_parts(
        sector: SectorSpec,
        states: DistVec<u64>,
        orbit_sizes: DistVec<u32>,
    ) -> Self {
        assert_eq!(states.n_locales(), orbit_sizes.n_locales());
        let lin = sector.lin_tables(&BinomialTable::new());
        // One select slot per 64 states of the whole sector.
        let slots = lin.as_ref().map_or(0, |_| sector.dimension().div_ceil(64));
        let mut dim = 0u64;
        let mut index = Vec::with_capacity(states.n_locales());
        for l in 0..states.n_locales() {
            let part = states.part(l);
            assert_eq!(part.len(), orbit_sizes.part(l).len());
            if let Some(w) = part.windows(2).find(|w| w[0] >= w[1]) {
                panic!("locale {l}: part not strictly ascending at {:#x}, {:#x}", w[0], w[1]);
            }
            dim += part.len() as u64;
            index.push(match &lin {
                Some(lin) if 12 * slots <= 8 * part.len() as u64 => {
                    let mut table = vec![[0u32; 3]; slots as usize];
                    for &s in part {
                        let Some(r) = lin.rank(s) else {
                            panic!("locale {l}: state {s:#x} is not in the sector");
                        };
                        table[(r >> 6) as usize][(r >> 5 & 1) as usize] |= 1 << (r & 31);
                    }
                    let mut below = 0;
                    for slot in &mut table {
                        slot[2] = below;
                        below += slot[0].count_ones() + slot[1].count_ones();
                    }
                    PartIndex::Select(table)
                }
                _ => PartIndex::Search(HashIndex::new(part, sector.code_bits())),
            });
        }
        let rank_keys = index.iter().all(|index| matches!(index, PartIndex::Select(_)));
        Self { sector, states, orbit_sizes, lin, index, rank_keys, dim }
    }

    pub fn sector(&self) -> &SectorSpec {
        &self.sector
    }

    pub fn n_locales(&self) -> usize {
        self.states.n_locales()
    }

    /// Total sector dimension across all locales.
    pub fn dim(&self) -> u64 {
        self.dim
    }

    /// Number of basis states held by `locale`.
    pub fn local_dim(&self, locale: usize) -> usize {
        self.states.part(locale).len()
    }

    /// Per-locale sorted representative lists.
    pub fn states(&self) -> &DistVec<u64> {
        &self.states
    }

    /// Orbit sizes aligned with [`Self::states`].
    pub fn orbit_sizes(&self) -> &DistVec<u32> {
        &self.orbit_sizes
    }

    /// Which locale owns basis state `state` (the paper's `localeIdxOf`).
    #[inline]
    pub fn owner(&self, state: u64) -> usize {
        locale_idx_of(state, self.n_locales())
    }

    /// Whether every part ranks by closed form and select (no search
    /// index exists) rather than by a hash index.
    pub fn ranks_in_closed_form(&self) -> bool {
        self.rank_keys
    }

    /// How a product names a generated state `s` on its way to the owner:
    /// `Some(lin)` where every part selects — the key is `lin.rank(s)`, the
    /// state's sector rank — and `None` where some part searches — the key
    /// is `s` itself (see the module docs).
    #[inline]
    pub(crate) fn key_ranks(&self) -> Option<&LinTables> {
        self.lin.as_ref().filter(|_| self.rank_keys)
    }

    /// The owner's only step in a product: hands `add` the position on
    /// `locale` and the value of every keyed pair ([`Self::key_ranks`]) of
    /// a batch the locale owns, in batch order — a select per pair where
    /// keys are ranks, else the state's ranking: the hash index's batch
    /// kernel (`idx` is its caller-owned scratch), or the closed form and
    /// select. One loop a batch, `add` inlined into it: the product passes
    /// a plain or a CAS add into the part's lanes, chosen once. A key the
    /// part lacks panics, naming the state.
    #[inline]
    pub(crate) fn resolve_batch<S: Copy>(
        &self,
        locale: usize,
        pairs: &[(u64, S)],
        idx: &mut Vec<u32>,
        mut add: impl FnMut(usize, S),
    ) {
        match &self.index[locale] {
            PartIndex::Select(table) if self.rank_keys => {
                // The table's address and length in registers: `add`'s
                // stores could otherwise be its `Vec`'s, reloaded per pair.
                let table = table.as_slice();
                for &(key, val) in pairs {
                    match select(table, key) {
                        Some(i) => add(i as usize, val),
                        None => self.missing_key(locale, key),
                    }
                }
            }
            PartIndex::Select(_) => pairs
                .iter()
                .for_each(|&(rep, val)| add(self.index_on_present(locale, rep), val)),
            PartIndex::Search(hash) => {
                hash.lookup_batch_by(self.states.part(locale), pairs, |&(rep, _)| rep, idx);
                for (&(rep, val), &i) in pairs.iter().zip(idx.iter()) {
                    match i {
                        NOT_FOUND => missing_state(locale, rep, &self.sector),
                        i => add(i as usize, val),
                    }
                }
            }
        }
    }

    /// Cold tail of [`Self::resolve_batch`]: the state behind `key`.
    #[cold]
    #[inline(never)]
    fn missing_key(&self, locale: usize, key: u64) -> ! {
        let rep = match self.key_ranks() {
            Some(lin) => lin.unrank(key).expect("a product ships only sector ranks"),
            None => key,
        };
        missing_state(locale, rep, &self.sector)
    }

    /// Local rank of `rep` on `locale` — the distributed `stateToIndex`.
    /// `None` when the state is not part of the basis.
    #[inline]
    pub fn index_on(&self, locale: usize, rep: u64) -> Option<usize> {
        match &self.index[locale] {
            PartIndex::Select(table) => {
                select(table, self.lin.as_ref()?.rank(rep)?).map(|i| i as usize)
            }
            PartIndex::Search(hash) => hash.lookup(self.states.part(locale), rep),
        }
    }

    /// Hot-loop variant of [`Self::index_on`] for states guaranteed to be
    /// owned by `locale`: panic formatting stays in a cold out-of-line
    /// function.
    #[inline]
    pub fn index_on_present(&self, locale: usize, rep: u64) -> usize {
        match self.index_on(locale, rep) {
            Some(i) => i,
            None => missing_state(locale, rep, &self.sector),
        }
    }

    /// Bulk `stateToIndex` on `locale`: ranks a whole batch of received
    /// states — closed form and select per element, or the hash index's
    /// batch kernel — writing `u32` ranks (or [`NOT_FOUND`]) into
    /// `out`. This is how the owner side of the batched/producer-consumer
    /// matvec formulations ranks incoming off-diagonal batches.
    #[inline]
    pub fn index_on_batch(&self, locale: usize, reps: &[u64], out: &mut Vec<u32>) {
        match &self.index[locale] {
            PartIndex::Select(table) => {
                let rank = |&rep: &u64| select(table, self.lin.as_ref()?.rank(rep)?);
                out.clear();
                out.extend(reps.iter().map(|rep| rank(rep).unwrap_or(NOT_FOUND)));
            }
            PartIndex::Search(hash) => hash.lookup_batch(self.states.part(locale), reps, out),
        }
    }

    /// Load-balance summary of the hashed distribution:
    /// `(min, max, mean)` states per locale.
    pub fn balance(&self) -> (usize, usize, f64) {
        let lens = self.states.lens();
        let min = lens.iter().copied().min().unwrap_or(0);
        let max = lens.iter().copied().max().unwrap_or(0);
        let mean = self.dim as f64 / lens.len().max(1) as f64;
        (min, max, mean)
    }

    /// Memory estimate in bytes: states, orbit sizes, the one ranking
    /// structure each part holds and the Lin tables the select tables share.
    pub fn memory_bytes(&self) -> usize {
        let index = self.index.iter().map(|index| match index {
            PartIndex::Select(table) => std::mem::size_of_val(&table[..]),
            PartIndex::Search(hash) => hash.memory_bytes(),
        });
        self.states.total_len() * 8
            + self.orbit_sizes.total_len() * 4
            + index.sum::<usize>()
            + self.lin.as_ref().map_or(0, LinTables::memory_bytes)
    }

    /// Gathers a distributed vector into canonical (globally sorted state)
    /// order — a test/diagnostic helper, not a scalable operation.
    ///
    /// Only meaningful on the in-process backend (or after an explicit
    /// replication step): under the multiprocess transport the remote
    /// parts of `v` read from this process's stale replica.
    pub fn gather_canonical<S: Scalar>(&self, v: &DistVec<S>) -> Vec<S> {
        let locales = self.n_locales();
        let mut cursors = vec![0usize; locales];
        let mut out = Vec::with_capacity(self.dim as usize);
        loop {
            let mut best: Option<(u64, usize)> = None;
            for l in 0..locales {
                let part = self.states.part(l);
                if cursors[l] < part.len() {
                    let s = part[cursors[l]];
                    if best.map(|(b, _)| s < b).unwrap_or(true) {
                        best = Some((s, l));
                    }
                }
            }
            match best {
                Some((_, l)) => {
                    out.push(v.part(l)[cursors[l]]);
                    cursors[l] += 1;
                }
                None => break,
            }
        }
        out
    }
}

/// Distributed enumeration of all representatives of `sector` over the
/// cluster's locales (paper Fig. 4). `chunks_per_locale` controls how
/// finely the raw space is chunked — results are identical for any value;
/// more chunks mean smaller messages and better pipelining at scale.
pub fn enumerate_dist(
    cluster: &Cluster,
    sector: &SectorSpec,
    chunks_per_locale: usize,
) -> DistSpinBasis {
    let locales = cluster.n_locales();
    let total_chunks = locales * chunks_per_locale.max(1);
    let ranges = split_ranges(sector.code_bits(), total_chunks);

    // Phase 1 (parallel filter + partition): locale `l` processes the
    // cyclic chunks `l, l + L, l + 2L, ...` in ascending range order and
    // buckets each chunk's representatives by destination locale.
    type ChunkBuckets = (Vec<Vec<u64>>, Vec<Vec<u32>>);
    let filtered: Vec<Vec<ChunkBuckets>> = cluster.run(|ctx| {
        let me = ctx.locale();
        let mut mine = Vec::new();
        for (lo, hi) in ranges.iter().skip(me).step_by(locales).copied() {
            let chunk = filter_range(sector, lo, hi);
            let mut states: Vec<Vec<u64>> = vec![Vec::new(); locales];
            let mut orbits: Vec<Vec<u32>> = vec![Vec::new(); locales];
            for (&s, &o) in chunk.states.iter().zip(&chunk.orbit_sizes) {
                let dest = locale_idx_of(s, locales);
                states[dest].push(s);
                orbits[dest].push(o);
            }
            mine.push((states, orbits));
        }
        ctx.barrier_wait();
        mine
    });

    // `cluster.run` returned the buckets of the locales this process
    // hosts, in their order; the offsets need every locale's per-chunk
    // per-destination counts, so exchange those.
    let hosted = collective::hosted(locales);
    let wires = filtered.iter().map(|chunks| {
        let counts = chunks.iter().flat_map(|(states, _)| states.iter().map(Vec::len));
        counts.flat_map(|n| (n as u64).to_le_bytes()).collect()
    });
    let chunk_counts: Vec<Vec<Vec<usize>>> = collective::allgather(wires.collect())
        .into_iter()
        .map(|bytes| {
            bytes
                .chunks_exact(8 * locales)
                .map(|chunk| {
                    chunk
                        .chunks_exact(8)
                        .map(|n| u64::from_le_bytes(n.try_into().unwrap()) as usize)
                        .collect()
                })
                .collect()
        })
        .collect();

    // Destination offsets via the ordered-placement rule (see `layout`):
    // walking chunks in global (range) order keeps every locale's
    // received list sorted, because chunk ranges are disjoint and
    // ascending. Chunk `c` is slot `c`; its owner holds it at local
    // position `c / locales`.
    let (offsets, totals) = crate::layout::destination_offsets(
        (0..total_chunks).map(|c| chunk_counts[c % locales][c / locales].clone()),
        locales,
    );
    let offset_of = |src: usize, local_c: usize| &offsets[local_c * locales + src];

    // Phase 2 (exchange): one-sided puts into the precomputed disjoint
    // slots — the distribution step of Fig. 4. (The write windows'
    // multiprocess epoch replicates every part on close, which is what
    // lets `from_parts` build its ranking indices everywhere.)
    let mut states = DistVec::<u64>::zeros(&totals);
    let mut orbit_sizes = DistVec::<u32>::zeros(&totals);
    {
        let win_states = RmaWriteWindow::new(&mut states);
        let win_orbits = RmaWriteWindow::new(&mut orbit_sizes);
        cluster.run(|ctx| {
            let me = ctx.locale();
            let mine = &filtered[me - hosted.start];
            for (local_c, (chunk_states, chunk_orbits)) in mine.iter().enumerate() {
                for dest in 0..locales {
                    let off = offset_of(me, local_c)[dest];
                    win_states.put(ctx, dest, off, &chunk_states[dest]);
                    win_orbits.put(ctx, dest, off, &chunk_orbits[dest]);
                }
            }
            ctx.barrier_wait();
        });
    }

    DistSpinBasis::from_parts(sector.clone(), states, orbit_sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_runtime::ClusterSpec;
    use ls_symmetry::lattice::chain_group;

    fn sector(n: usize) -> SectorSpec {
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap()
    }

    #[test]
    fn matches_shared_memory_enumeration() {
        let sector = sector(12);
        let reference = ls_basis::SpinBasis::build(sector.clone());
        for locales in [1usize, 2, 3, 5] {
            for chunks in [1usize, 3, 8] {
                let cluster = Cluster::new(ClusterSpec::new(locales, 1));
                let dist = enumerate_dist(&cluster, &sector, chunks);
                assert_eq!(dist.dim(), reference.dim() as u64);
                // Each locale holds exactly its hash bucket, sorted.
                let mut all: Vec<u64> = Vec::new();
                for l in 0..locales {
                    let part = dist.states().part(l);
                    assert!(part.windows(2).all(|w| w[0] < w[1]));
                    for &s in part {
                        assert_eq!(locale_idx_of(s, locales), l);
                    }
                    all.extend_from_slice(part);
                }
                all.sort_unstable();
                assert_eq!(all, reference.states());
            }
        }
    }

    #[test]
    fn orbit_sizes_travel_with_states() {
        let sector = sector(10);
        let reference = ls_basis::SpinBasis::build(sector.clone());
        let cluster = Cluster::new(ClusterSpec::new(3, 1));
        let dist = enumerate_dist(&cluster, &sector, 2);
        for l in 0..3 {
            for (&s, &o) in dist.states().part(l).iter().zip(dist.orbit_sizes().part(l)) {
                let idx = reference.index_of(s).unwrap();
                assert_eq!(o, reference.orbit_sizes()[idx]);
            }
        }
    }

    #[test]
    fn ranking_and_ownership() {
        let sector = sector(12);
        let cluster = Cluster::new(ClusterSpec::new(4, 1));
        let dist = enumerate_dist(&cluster, &sector, 3);
        for l in 0..4 {
            for (i, &s) in dist.states().part(l).iter().enumerate() {
                assert_eq!(dist.owner(s), l);
                assert_eq!(dist.index_on(l, s), Some(i));
            }
        }
        // A non-representative is found nowhere.
        for l in 0..4 {
            assert_eq!(dist.index_on(l, 0b1), None);
        }
        let (min, max, mean) = dist.balance();
        assert!(min <= mean.ceil() as usize && mean.floor() as usize <= max);
        assert!(dist.memory_bytes() > 0);
    }

    /// Every part's own ranking, scalar and batched, against
    /// `binary_search` in the part and against a hash index built here
    /// over the same list — on a select part, "closed form ≡ search".
    fn check_ranking(basis: &DistSpinBasis, probes: &[u64]) {
        let (mut own, mut searched) = (Vec::new(), Vec::new());
        for l in 0..basis.n_locales() {
            let part = basis.states().part(l);
            let hash = HashIndex::new(part, basis.sector().code_bits());
            basis.index_on_batch(l, probes, &mut own);
            hash.lookup_batch(part, probes, &mut searched);
            assert_eq!(own, searched, "locale {l}");
            for (&p, &i) in probes.iter().zip(&own) {
                let expect = part.binary_search(&p).ok();
                assert_eq!(basis.index_on(l, p), expect, "locale {l} probe {p:#b}");
                assert_eq!(
                    i,
                    expect.map_or(NOT_FOUND, |i| i as u32),
                    "locale {l} probe {p:#b}"
                );
                // A member ranks on its owner and nowhere else.
                assert!(expect.is_none() || basis.owner(p) == l, "locale {l} probe {p:#b}");
            }
        }
    }

    #[test]
    fn closed_form_ranking_equals_search_on_every_part() {
        let u1 = |n, w| SectorSpec::with_weight(n, w).unwrap();
        let hubbard = SectorSpec::spinful_fermions(5, 2, 3).unwrap();
        let spin1 = SectorSpec::spin_s(5, 3, Some(5)).unwrap();
        let sectors = [
            (u1(12, 6), true),
            (u1(13, 6), true),
            (hubbard, true),
            (sector(12), false),
            (spin1, false),
        ];
        for (sector, closed_form) in sectors {
            let bits = sector.code_bits();
            for locales in [1usize, 2, 3, 5] {
                let cluster = Cluster::new(ClusterSpec::new(locales, 1));
                let basis = enumerate_dist(&cluster, &sector, 2);
                assert_eq!(basis.dim(), sector.dimension());
                assert_eq!(
                    basis.ranks_in_closed_form(),
                    closed_form,
                    "{bits} bits / {locales}"
                );
                // Every member of every part (found on its owner only),
                // then words of the wrong weight, with a bit at or above
                // `n_sites`, and all ones.
                let mut probes: Vec<u64> = basis.states().parts().concat();
                let member = probes[probes.len() / 2];
                probes.extend(0..512u64);
                probes.extend([member | 1 << bits, member ^ 1 << bits ^ 1, 1 << 63 | member]);
                probes.extend([(1 << bits) - 1, 0, u64::MAX]);
                check_ranking(&basis, &probes);
                check_keys(&basis);
            }
        }
    }

    /// Position on `locale` of the state `key` names, as
    /// `resolve_batch` finds it; `None` when the part does not hold it.
    fn resolve(basis: &DistSpinBasis, locale: usize, key: u64) -> Option<usize> {
        match &basis.index[locale] {
            PartIndex::Select(table) if basis.rank_keys => {
                select(table, key).map(|i| i as usize)
            }
            _ => basis.index_on(locale, key),
        }
    }

    /// Every member's wire key resolves to the member's `index_on`
    /// position on its owner — scalar and in a batch — and to nothing on
    /// any other locale.
    fn check_keys(basis: &DistSpinBasis) {
        let key = |s: u64| basis.key_ranks().map_or(s, |lin| lin.rank(s).unwrap());
        let members = basis.states().parts().concat();
        let mut idx = Vec::new();
        for l in 0..basis.n_locales() {
            for &s in &members {
                let expect = (basis.owner(s) == l).then(|| basis.index_on(l, s).unwrap());
                assert_eq!(resolve(basis, l, key(s)), expect, "locale {l} member {s:#b}");
            }
            let part = basis.states().part(l);
            let pairs: Vec<(u64, usize)> =
                part.iter().enumerate().map(|(i, &s)| (key(s), i)).collect();
            let mut seen = Vec::new();
            basis.resolve_batch(l, &pairs, &mut idx, |i, at| seen.push((i, at)));
            assert!(
                seen.iter().enumerate().all(|(k, &(i, at))| i == at && at == k),
                "locale {l}"
            );
            assert_eq!(seen.len(), part.len(), "locale {l}");
        }
    }

    #[test]
    fn unrank_inverts_the_closed_form_on_every_member() {
        let sectors = [
            SectorSpec::with_weight(12, 6).unwrap(),
            SectorSpec::spinful_fermions(5, 2, 3).unwrap(),
        ];
        for sector in sectors {
            let lin = sector.lin_tables(&BinomialTable::new()).unwrap();
            let members = ls_basis::SpinBasis::build(sector.clone()).states().to_vec();
            for (i, &s) in members.iter().enumerate() {
                assert_eq!(lin.rank(s), Some(i as u64), "{s:#b}");
                assert_eq!(lin.unrank(i as u64), Some(s), "rank {i}");
            }
            assert_eq!(lin.unrank(members.len() as u64), None);
        }
    }

    #[test]
    #[should_panic(
        expected = "locale 1: generated state 0x000000000000000f is not in the basis"
    )]
    fn a_rank_key_the_part_lacks_names_its_state() {
        // Two parts of the 6-site weight-4 sector, the second lacking 0b1111:
        // its rank arrives, and the panic decodes it back.
        let sector = SectorSpec::with_weight(6, 4).unwrap();
        let all = ls_basis::SpinBasis::build(sector.clone()).states().to_vec();
        assert_eq!(all[0], 0b1111);
        let parts = vec![all[1..8].to_vec(), all[8..].to_vec()];
        let orbits = DistVec::from_parts(parts.iter().map(|p| vec![1u32; p.len()]).collect());
        let basis = DistSpinBasis::from_parts(sector, DistVec::from_parts(parts), orbits);
        let rank = basis.key_ranks().expect("both parts select").rank(0b1111).unwrap();
        basis.resolve_batch(1, &[(rank, 1.0f64)], &mut Vec::new(), |_, _| ());
    }

    #[test]
    fn a_part_its_select_table_would_outweigh_ranks_by_search() {
        // 924 states are 15 select slots, 180 B: more than a part of five
        // states weighs, less than the rest does. The select is exact on
        // any ascending list of members, so neither part needs to be a
        // hash bucket, and a state the list lacks is `None`, not a panic.
        let sector = SectorSpec::with_weight(12, 6).unwrap();
        let all = ls_basis::SpinBasis::build(sector.clone()).states().to_vec();
        let parts = vec![all[..5].to_vec(), all[6..].to_vec()];
        let orbits = DistVec::from_parts(parts.iter().map(|p| vec![1u32; p.len()]).collect());
        let basis = DistSpinBasis::from_parts(sector, DistVec::from_parts(parts), orbits);
        assert!(matches!(basis.index[0], PartIndex::Search(_)));
        assert!(matches!(basis.index[1], PartIndex::Select(_)));
        assert!(!basis.ranks_in_closed_form());
        for (i, &s) in all.iter().enumerate() {
            assert_eq!(basis.index_on(0, s), (i < 5).then_some(i));
            assert_eq!(basis.index_on(1, s), (i > 5).then(|| i - 6));
        }
        // 923 states and orbit sizes, 10 hash slots, 15 select slots, the
        // 2 × 64-entry Lin tables of a 12-bit species.
        assert_eq!(basis.memory_bytes(), 923 * 12 + 10 * 4 + 15 * 12 + 128 * 8);
    }

    #[test]
    fn memory_bytes_counts_the_one_structure_a_part_holds() {
        // Closed form: per part 15 select slots, and the Lin tables once.
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        let u1 = enumerate_dist(&cluster, &SectorSpec::with_weight(12, 6).unwrap(), 2);
        assert!(u1.ranks_in_closed_form());
        assert_eq!(u1.memory_bytes(), 924 * 12 + 2 * 15 * 12 + 128 * 8);
        // Search: 2 518 states over two parts, two hash slots a state.
        let ring = enumerate_dist(&cluster, &sector(20), 2);
        assert_eq!(ring.dim(), 2_518);
        assert_eq!(ring.memory_bytes(), 2_518 * 12 + 2 * 2_518 * 4);
    }

    #[test]
    #[should_panic(expected = "locale 1: part not strictly ascending at 0x35, 0x33")]
    fn from_parts_rejects_an_unsorted_part() {
        // In release builds too: either ranking would be silently wrong.
        let states = DistVec::from_parts(vec![vec![0b001111], vec![0b110101, 0b110011]]);
        let orbits = DistVec::from_parts(vec![vec![1u32], vec![1, 1]]);
        DistSpinBasis::from_parts(sector(6), states, orbits);
    }

    #[test]
    #[should_panic(expected = "locale 0: state 0x7 is not in the sector")]
    fn from_parts_rejects_a_state_outside_its_closed_form_sector() {
        let sector = SectorSpec::with_weight(6, 2).unwrap();
        let states = DistVec::from_parts(vec![vec![0b000011, 0b000111, 0b001001]]);
        DistSpinBasis::from_parts(sector, states, DistVec::from_parts(vec![vec![1u32; 3]]));
    }
}
