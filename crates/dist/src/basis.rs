//! Distributed basis enumeration (the paper's Fig. 4).
//!
//! The raw iteration space is split into cyclic chunks; every locale
//! filters its chunks down to symmetry representatives, partitions each
//! filtered chunk by destination locale (the hash distribution of
//! Sec. 5.1) and ships the pieces with one-sided puts into precomputed
//! disjoint offsets. Concatenating contributions in chunk order keeps each
//! locale's state list sorted, so local ranking is a prefix-bucket search.

use ls_basis::enumerate::{filter_range, split_ranges};
use ls_basis::SectorSpec;
use ls_kernels::search::PrefixIndex;
use ls_kernels::{locale_idx_of, Scalar};
use ls_runtime::{collective, Cluster, DistVec, RmaWriteWindow};

/// Cold tail of [`DistSpinBasis::index_on_present`]: formats through the
/// shared [`ls_basis::MissingState`] diagnostic (decoded per-site
/// configuration under the sector's encoding), adding the locale.
#[cold]
#[inline(never)]
fn missing_state(locale: usize, rep: u64, sector: &SectorSpec) -> ! {
    panic!(
        "locale {locale}: {}",
        ls_basis::MissingState { rep, encoding: sector.encoding(), n_sites: sector.n_sites() }
    );
}

/// A symmetry-sector basis in the hashed distribution: locale `l` holds
/// the sorted list of representatives `s` with `locale_idx_of(s) == l`,
/// together with their orbit sizes and a local ranking index.
#[derive(Clone, Debug)]
pub struct DistSpinBasis {
    sector: SectorSpec,
    states: DistVec<u64>,
    orbit_sizes: DistVec<u32>,
    index: Vec<PrefixIndex>,
    dim: u64,
}

impl DistSpinBasis {
    /// Assembles a distributed basis from already-distributed parts. Each
    /// part must be sorted ascending and placed on its hash-owner locale.
    pub fn from_parts(
        sector: SectorSpec,
        states: DistVec<u64>,
        orbit_sizes: DistVec<u32>,
    ) -> Self {
        assert_eq!(states.n_locales(), orbit_sizes.n_locales());
        let code_bits = sector.code_bits();
        let mut dim = 0u64;
        let mut index = Vec::with_capacity(states.n_locales());
        for l in 0..states.n_locales() {
            let part = states.part(l);
            assert_eq!(part.len(), orbit_sizes.part(l).len());
            debug_assert!(part.windows(2).all(|w| w[0] < w[1]), "locale {l} not sorted");
            dim += part.len() as u64;
            index.push(PrefixIndex::auto(part, code_bits));
        }
        Self { sector, states, orbit_sizes, index, dim }
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

    /// Local rank of `rep` on `locale` — the distributed `stateToIndex`.
    /// `None` when the state is not part of the basis.
    #[inline]
    pub fn index_on(&self, locale: usize, rep: u64) -> Option<usize> {
        self.index[locale].lookup(self.states.part(locale), rep)
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
    /// states through the interleaved prefix-bucket kernel, writing
    /// `u32` ranks (or [`ls_kernels::search::NOT_FOUND`]) into `out`.
    /// This is how the owner side of the batched/producer-consumer
    /// matvec formulations ranks incoming off-diagonal batches.
    #[inline]
    pub fn index_on_batch(&self, locale: usize, reps: &[u64], out: &mut Vec<u32>) {
        self.index[locale].lookup_batch(self.states.part(locale), reps, out);
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

    /// Memory estimate in bytes (states + orbit sizes + ranking indices).
    pub fn memory_bytes(&self) -> usize {
        self.states.total_len() * 8
            + self.orbit_sizes.total_len() * 4
            + self.index.iter().map(|i| i.memory_bytes()).sum::<usize>()
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
}
