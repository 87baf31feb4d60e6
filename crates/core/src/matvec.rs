//! Shared-memory matrix-vector products: one parallel engine and one
//! serial oracle (see [`MatvecStrategy`]; the repo benchmark's
//! `core.matvec_*` metrics and `benches/ablation.rs` time them).
//!
//! * **batched pull** (the engine, default) — gather form: rows are
//!   processed in blocks, off-diagonal generation runs through
//!   [`SymmetrizedOperator::apply_off_diag_block`] (on symmetrized
//!   sectors the differential group walk, `g(α ⊕ m) = g(α) ⊕ π_g(m)`:
//!   Benes networks once per source row, one XOR per group element per
//!   emission against a `|G| × distinct flip masks` table;
//!   `ls_basis::state_info_batch` is its oracle), ranking through the
//!   interleaved [`SpinBasis::index_of_batch`] kernels, and the gathered
//!   reads of `x` are software-prefetched from the ranked index block.
//!   On sectors that rank in closed form (U(1) spin-1/2, spinful and
//!   spinless fermions) generation and ranking are one channel-outer
//!   pass instead,
//!   [`SymmetrizedOperator::apply_off_diag_block_ranked_channels`]: a
//!   destination rank is the source's plus per-species deltas, and the
//!   gather reads one amplitude per channel segment (two for a
//!   Jordan-Wigner channel, `±coeff`).
//!   Row generation yields the column `H[·, β]`; gathering reads it as
//!   the row `H[β, ·]` by conjugation, so it needs a Hermitian operator.
//! * **serial** — single-threaded scalar scatter: the reference every
//!   other product is tested against, and the only one that runs on
//!   non-Hermitian input ([`crate::Operator`] picks it there).
//!
//! [`apply_pull_pooled`] is the engine's scalar twin — each output element
//! walks its row one element at a time. It is not a selectable strategy:
//! the engine falls back to it once ranks no longer fit 32 bits, and the
//! tests use it as the engine's bit-exact reference.
//!
//! Determinism: the engine performs the identical floating-point
//! operations in the identical order as the scalar gather (the proptests
//! in `tests/batched_strategies.rs` pin this). Results are also bit-exact
//! across *thread counts*: chunk partitions come from the
//! thread-independent [`chunk::par_chunk`] heuristic, per-element
//! accumulation order is fixed, and the fused matvec+dot epilogue
//! ([`apply_batched_pull_dot_pooled`]) combines its per-chunk partials in
//! a fixed pairwise tree (`tests/pool_determinism.rs` pins this against
//! `LS_NUM_THREADS`).
//!
//! The parallel products run on the persistent pool (`compat/rayon`:
//! parked workers, dynamic chunk claiming) and draw their temporaries from
//! a [`MatvecScratchPool`], which keys scratch on the pool's worker index —
//! per *worker*, not per call. [`crate::Operator`] keeps one pool for its
//! lifetime, so the hundreds of products of a Lanczos run reuse the same
//! staging memory.

use ls_basis::{missing_state, OffDiagBlock, SpinBasis, SymmetrizedOperator};
use ls_eigen::op::pairwise_sum;
use ls_kernels::chunk;
use ls_kernels::combinadics::RankLayout;
use ls_kernels::search::NOT_FOUND;
use ls_kernels::Scalar;
use rayon::prelude::*;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};

/// Which shared-memory implementation [`crate::Operator`] uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum MatvecStrategy {
    /// Batched gather formulation (default): block generation, bulk
    /// ranking, prefetched reads.
    #[default]
    BatchedPull,
    /// Single-threaded scalar reference.
    Serial,
}

/// Number of rows the batched engine processes per block (see
/// [`chunk::BATCH_ROWS`]).
const BATCH_BLOCK: usize = chunk::BATCH_ROWS;

/// Lookahead distance (in emissions) for software prefetch of the
/// gathered `x` reads in the batched pull accumulation. Sized for a DRAM
/// round-trip (~100 ns) over a ~3 ns loop iteration.
const PREFETCH_AHEAD: usize = 32;

/// Issues a best-effort prefetch of `data[index]` into L1.
#[inline(always)]
fn prefetch_read<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < data.len() {
        // SAFETY: in-bounds pointer; prefetch has no observable effect.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                data.as_ptr().add(index) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, index);
}

// ---------------------------------------------------------------------------
// Scratch arena
// ---------------------------------------------------------------------------

/// Per-task temporaries of one matvec worker. All vectors grow to their
/// steady-state capacity on first use and are reused afterwards.
#[derive(Default)]
pub struct MatvecScratch<S: Scalar> {
    /// Scalar-path row buffer (`apply_off_diag` output).
    row: Vec<(u64, S)>,
    /// Batched generation output.
    gen: OffDiagBlock<S>,
    /// Bulk-ranking output aligned with `gen`.
    idx: Vec<u32>,
    /// Branchless-compaction scratch of the fused pull generation.
    fired: Vec<u32>,
    /// `(coefficient, end offset)` segments of the fused pull.
    segs: Vec<(S, u32)>,
}

/// A pool of [`MatvecScratch`] buffers shared by the
/// workers of (possibly repeated) matvec calls. [`crate::Operator`] owns
/// one pool per operator, so Lanczos' hundreds of `apply` calls on the
/// same operator allocate staging memory exactly once.
///
/// Scratch is **per worker**, not per call: slot `i` is owned by
/// persistent pool worker `i` (keyed on [`rayon::current_worker_index`]),
/// so a worker gets the same warm buffers chunk after chunk, product
/// after product, and its slot mutex is uncontended by construction.
/// Threads that are *not* pool workers (the initiating thread of each
/// call, which claims chunks alongside the workers) draw from a shared
/// freelist instead — a short pop/push per chunk, never a lock held
/// across the chunk body, so concurrent callers still run concurrently.
pub struct MatvecScratchPool<S: Scalar> {
    worker: Vec<Mutex<MatvecScratch<S>>>,
    floating: Mutex<Vec<MatvecScratch<S>>>,
    /// Memoized per-state diagonal, keyed on the (operator, basis)
    /// identity: the diagonal depends on neither `x` nor the strategy, so
    /// the hundreds of products of a Lanczos run compute it once.
    diag: Mutex<Option<(DiagKey, Arc<Vec<S>>)>>,
}

/// RAII lease of one [`MatvecScratch`]: either the calling pool worker's
/// own slot (guard held for the chunk) or a buffer popped from the
/// floating freelist (returned on drop).
pub struct ScratchLease<'a, S: Scalar> {
    pool: &'a MatvecScratchPool<S>,
    kind: LeaseKind<'a, S>,
}

// The size skew vs the guard variant is fine: leases live on a worker's
// stack for one chunk, never in bulk storage.
#[allow(clippy::large_enum_variant)]
enum LeaseKind<'a, S: Scalar> {
    Worker(MutexGuard<'a, MatvecScratch<S>>),
    Floating(Option<MatvecScratch<S>>),
}

impl<S: Scalar> std::ops::Deref for ScratchLease<'_, S> {
    type Target = MatvecScratch<S>;
    fn deref(&self) -> &MatvecScratch<S> {
        match &self.kind {
            LeaseKind::Worker(guard) => guard,
            LeaseKind::Floating(sc) => sc.as_ref().expect("lease alive"),
        }
    }
}

impl<S: Scalar> std::ops::DerefMut for ScratchLease<'_, S> {
    fn deref_mut(&mut self) -> &mut MatvecScratch<S> {
        match &mut self.kind {
            LeaseKind::Worker(guard) => guard,
            LeaseKind::Floating(sc) => sc.as_mut().expect("lease alive"),
        }
    }
}

impl<S: Scalar> Drop for ScratchLease<'_, S> {
    fn drop(&mut self) {
        if let LeaseKind::Floating(sc) = &mut self.kind {
            if let Some(sc) = sc.take() {
                self.pool.floating.lock().unwrap().push(sc);
            }
        }
    }
}

/// Identity of a (operator diagonal, basis) pair. The operator half is a
/// process-unique construction id (allocator-reuse proof); the basis half
/// is pointer + length of the Arc'd state list.
type DiagKey = ((u64, usize), usize, usize);

impl<S: Scalar> Default for MatvecScratchPool<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> MatvecScratchPool<S> {
    pub fn new() -> Self {
        Self {
            worker: (0..rayon::max_workers()).map(|_| Mutex::new(Default::default())).collect(),
            floating: Mutex::new(Vec::new()),
            diag: Mutex::new(None),
        }
    }

    /// The memoized diagonal of `op` over `basis` (computed in parallel on
    /// first use). Values are produced by [`SymmetrizedOperator::diagonal_block`],
    /// so they are bit-identical to inline evaluation.
    fn cached_diagonal(&self, op: &SymmetrizedOperator<S>, basis: &SpinBasis) -> Arc<Vec<S>> {
        let states = basis.states();
        let key: DiagKey = (op.diag_fingerprint(), states.as_ptr() as usize, states.len());
        if let Some((k, v)) = &*self.diag.lock().unwrap() {
            if *k == key {
                return Arc::clone(v);
            }
        }
        let mut values = vec![S::ZERO; states.len()];
        let chunk = par_chunk(states.len());
        values.par_chunks_mut(chunk).enumerate().for_each(|(ci, vc)| {
            let base = ci * chunk;
            op.diagonal_block(&states[base..base + vc.len()], vc);
        });
        let values = Arc::new(values);
        *self.diag.lock().unwrap() = Some((key, Arc::clone(&values)));
        values
    }

    /// Checks out scratch for the calling thread: pool workers get their
    /// own uncontended slot (same warm buffers on every chunk), any other
    /// thread pops from the floating freelist (returned when the lease
    /// drops, so concurrent non-pool threads never serialize on it).
    fn worker_scratch(&self) -> ScratchLease<'_, S> {
        match rayon::current_worker_index() {
            Some(i) => ScratchLease {
                pool: self,
                kind: LeaseKind::Worker(self.worker[i].lock().unwrap()),
            },
            None => {
                let sc = self.floating.lock().unwrap().pop().unwrap_or_default();
                ScratchLease { pool: self, kind: LeaseKind::Floating(Some(sc)) }
            }
        }
    }
}

/// Output-chunk size for the parallel sweeps — the centralized,
/// thread-count-independent heuristic (see [`chunk::par_chunk`]): the
/// partition shape depends only on `dim`, so the fused matvec+dot
/// partials keep the same reduction tree at any thread count, and the
/// persistent pool's dynamic chunk claiming does the load balancing.
fn par_chunk(dim: usize) -> usize {
    chunk::par_chunk(dim)
}

/// The differential-ranking fast path is available when the basis ranks
/// in closed form (trivial group, the whole product of one or two
/// fixed-weight species — what [`SpinBasis::rank_layout`] reports) and
/// the operator's group is trivial: there a row's basis index *is* its
/// product rank and destination ranks follow from per-species `rank_xor`
/// deltas, skipping every lookup structure. Every channel qualifies: a
/// flip inside one species reads one delta, a flip across both sums two,
/// and a Jordan-Wigner sign splits the channel's rows into a `+coeff` and
/// a `−coeff` segment.
fn fused_layout<'b, S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &'b SpinBasis,
) -> Option<RankLayout<'b>> {
    basis.rank_layout().filter(|_| op.has_trivial_group())
}

// ---------------------------------------------------------------------------
// Scalar products
// ---------------------------------------------------------------------------

/// Pull: `y[β] = diag(β)·x[β] + Σ conj(amp)·x[rank(rep)]`.
/// Requires a Hermitian operator.
pub fn apply_pull<S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &SpinBasis,
    x: &[S],
    y: &mut [S],
) {
    apply_pull_pooled(op, basis, x, y, &MatvecScratchPool::new());
}

/// [`apply_pull`] drawing its temporaries from `pool`.
pub fn apply_pull_pooled<S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &SpinBasis,
    x: &[S],
    y: &mut [S],
    pool: &MatvecScratchPool<S>,
) {
    assert!(op.is_hermitian(), "pull formulation requires Hermitian H");
    let dim = basis.dim();
    assert_eq!(x.len(), dim);
    assert_eq!(y.len(), dim);
    let chunk = par_chunk(dim);
    y.par_chunks_mut(chunk).enumerate().for_each(|(ci, yc)| {
        let base = ci * chunk;
        let mut sc = pool.worker_scratch();
        for (k, out) in yc.iter_mut().enumerate() {
            let j = base + k;
            let beta = basis.state(j);
            let mut acc = op.diagonal(beta) * x[j];
            sc.row.clear();
            op.apply_off_diag(beta, basis.orbit_sizes()[j], &mut sc.row);
            for &(rep, amp) in &sc.row {
                let i = basis.index_of_present(rep);
                acc += amp.conj() * x[i];
            }
            *out = acc;
        }
    });
}

/// Serial reference, scatter form: `y[rank(rep)] += amp·x[α]`. Runs on
/// any operator, Hermitian or not.
pub fn apply_serial<S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &SpinBasis,
    x: &[S],
    y: &mut [S],
) {
    apply_serial_pooled(op, basis, x, y, &MatvecScratchPool::new());
}

/// [`apply_serial`] drawing its temporaries from `pool`.
pub fn apply_serial_pooled<S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &SpinBasis,
    x: &[S],
    y: &mut [S],
    pool: &MatvecScratchPool<S>,
) {
    let dim = basis.dim();
    assert_eq!(x.len(), dim);
    assert_eq!(y.len(), dim);
    y.fill(S::ZERO);
    let mut sc = pool.worker_scratch();
    for j in 0..dim {
        let alpha = basis.state(j);
        y[j] += op.diagonal(alpha) * x[j];
        sc.row.clear();
        op.apply_off_diag(alpha, basis.orbit_sizes()[j], &mut sc.row);
        for &(rep, amp) in &sc.row {
            let i = basis.index_of_present(rep);
            y[i] += amp * x[j];
        }
    }
}

// ---------------------------------------------------------------------------
// Batched pull
// ---------------------------------------------------------------------------

/// Batched gather: `y[β]` accumulated per block of rows through the bulk
/// generation and ranking kernels. Bit-exact against [`apply_pull`].
pub fn apply_batched_pull<S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &SpinBasis,
    x: &[S],
    y: &mut [S],
) {
    apply_batched_pull_pooled(op, basis, x, y, &MatvecScratchPool::new());
}

/// [`apply_batched_pull`] drawing its temporaries from `pool`.
pub fn apply_batched_pull_pooled<S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &SpinBasis,
    x: &[S],
    y: &mut [S],
    pool: &MatvecScratchPool<S>,
) {
    // Both the bulk ranking kernels and the fused path's packed
    // (src << 32 | dest) emissions hold ranks in 32 bits; beyond that the
    // scalar gather (usize indexing) — the batched path's bit-exact twin —
    // takes over instead of losing the sector entirely.
    if basis.dim() >= u32::MAX as usize {
        return apply_pull_pooled(op, basis, x, y, pool);
    }
    batched_pull_sweep(op, basis, x, y, pool, None);
}

/// [`apply_batched_pull_pooled`] fused with the inner product `⟨x, y⟩` of
/// its own output — the matvec+dot epilogue of a Lanczos iteration
/// (`α = ⟨v, H v⟩` falls out of the product instead of costing another
/// full sweep over both vectors). Each chunk accumulates its partial
/// while the freshly written outputs are still cache-hot; the partials
/// combine in a fixed pairwise tree over the thread-count-independent
/// chunk partition, so the value is bit-identical at any
/// `LS_NUM_THREADS`. `y` is bit-exact against [`apply_batched_pull`].
pub fn apply_batched_pull_dot_pooled<S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &SpinBasis,
    x: &[S],
    y: &mut [S],
    pool: &MatvecScratchPool<S>,
) -> S {
    if basis.dim() >= u32::MAX as usize {
        apply_pull_pooled(op, basis, x, y, pool);
        return ls_eigen::op::par_dot(x, y);
    }
    let chunk = par_chunk(basis.dim());
    let mut partials = vec![S::ZERO; basis.dim().div_ceil(chunk)];
    batched_pull_sweep(op, basis, x, y, pool, Some(&mut partials));
    pairwise_sum(&partials)
}

/// The shared batched-pull sweep. With `partials`, chunk `ci` additionally
/// stores `Σ_j conj(x[j])·y[j]` over its rows into `partials[ci]` (each
/// slot written by exactly one chunk, so relaxed lane stores suffice).
fn batched_pull_sweep<S: Scalar>(
    op: &SymmetrizedOperator<S>,
    basis: &SpinBasis,
    x: &[S],
    y: &mut [S],
    pool: &MatvecScratchPool<S>,
    partials: Option<&mut [S]>,
) {
    assert!(op.is_hermitian(), "pull formulation requires Hermitian H");
    let dim = basis.dim();
    assert_eq!(x.len(), dim);
    assert_eq!(y.len(), dim);
    let chunk = par_chunk(dim);
    let states_all = basis.states();
    let orbits_all = basis.orbit_sizes();
    let fused = fused_layout(op, basis);
    let diag_all = pool.cached_diagonal(op, basis);
    // Race-free indexed stores of the partials: each chunk writes only
    // its own slot (same layout trick as the scatter accumulation).
    let partial_lanes: Option<&[AtomicU64]> = partials.map(|p| ls_eigen::op::atomic_lanes(p));
    y.par_chunks_mut(chunk).enumerate().for_each(|(ci, yc)| {
        let base = ci * chunk;
        let mut sc = pool.worker_scratch();
        let sc = &mut *sc;
        let mut b0 = 0usize;
        while b0 < yc.len() {
            let b1 = (b0 + BATCH_BLOCK).min(yc.len());
            let states = &states_all[base + b0..base + b1];
            let orbits = &orbits_all[base + b0..base + b1];
            let yb = &mut yc[b0..b1];
            // Seed with `diag * x[j]` — the scalar path's accumulator
            // seed, with the diagonal drawn from the pool's memo.
            for (k, out) in yb.iter_mut().enumerate() {
                let j = base + b0 + k;
                *out = diag_all[j] * x[j];
            }
            match fused {
                Some(layout) => {
                    // Fused channel-outer generation + differential
                    // ranking; the gather can trust every destination
                    // rank and hoists each segment's constant amplitude.
                    op.apply_off_diag_block_ranked_channels(
                        states,
                        (base + b0) as u64,
                        layout.species(),
                        &mut sc.fired,
                        &mut sc.gen.reps,
                        &mut sc.segs,
                    );
                    accumulate_pull_segments(yb, x, &sc.gen.reps, &sc.segs);
                }
                None => {
                    // Generate + bulk-rank the whole block, then gather.
                    op.apply_off_diag_block(states, orbits, &mut sc.gen);
                    basis.index_of_batch(&sc.gen.reps, &mut sc.idx);
                    accumulate_pull(yb, x, &sc.gen, &sc.idx, basis);
                }
            }
            b0 = b1;
        }
        if let Some(lanes) = partial_lanes {
            // The fused epilogue: the chunk's share of ⟨x, y⟩, summed in
            // ascending row order while `yc` is cache-resident.
            let mut acc = S::ZERO;
            for (k, &yv) in yc.iter().enumerate() {
                acc += x[base + k].conj() * yv;
            }
            ls_eigen::op::store_partial(lanes, ci, acc);
        }
    });
}

/// The fused-path gather: per channel segment the (conjugated) amplitude
/// is a hoisted constant, destination ranks are valid by construction,
/// and the `x` reads are prefetched from the packed
/// `(source << 32) | destination` emission block. Per output element the
/// adds still arrive in ascending channel order — the scalar pull order.
#[inline]
fn accumulate_pull_segments<S: Scalar>(yb: &mut [S], x: &[S], emit: &[u64], segs: &[(S, u32)]) {
    // Real-scalar specialization: the f64 gather-multiply kernel
    // vectorizes the lane products while keeping the per-element add
    // order, so results stay bit-identical to the scalar loop below.
    if let (Some(yb64), Some(x64)) = (S::as_f64_slice_mut(yb), S::as_f64_slice(x)) {
        let mut t0 = 0usize;
        for &(coeff, t1) in segs {
            let t1 = t1 as usize;
            ls_kernels::simd::accumulate_segment_f64(
                yb64,
                x64,
                &emit[t0..t1],
                coeff.conj().re(),
            );
            t0 = t1;
        }
        return;
    }
    let mut t0 = 0usize;
    for &(coeff, t1) in segs {
        let a = coeff.conj();
        let t1 = t1 as usize;
        for t in t0..t1 {
            if t + PREFETCH_AHEAD < emit.len() {
                prefetch_read(x, emit[t + PREFETCH_AHEAD] as u32 as usize);
            }
            let e = emit[t];
            yb[(e >> 32) as usize] += a * x[e as u32 as usize];
        }
        t0 = t1;
    }
}

/// The gather sweep: emissions are ordered (row, channel), so per output
/// element the additions happen in exactly the scalar pull order. The
/// ranked index block enables prefetching the `x` reads ahead of use —
/// the single biggest win over the one-lookup-at-a-time scalar loop.
#[inline]
fn accumulate_pull<S: Scalar>(
    yb: &mut [S],
    x: &[S],
    gen: &OffDiagBlock<S>,
    idx: &[u32],
    basis: &SpinBasis,
) {
    debug_assert_eq!(gen.len(), idx.len());
    for t in 0..idx.len() {
        if t + PREFETCH_AHEAD < idx.len() {
            let ahead = idx[t + PREFETCH_AHEAD];
            if ahead != NOT_FOUND {
                prefetch_read(x, ahead as usize);
            }
        }
        let i = idx[t];
        if i == NOT_FOUND {
            let sector = basis.sector();
            missing_state(gen.reps[t], sector.encoding(), sector.n_sites());
        }
        yb[gen.src[t] as usize] += gen.amps[t].conj() * x[i as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_basis::SectorSpec;
    use ls_expr::builders::{heisenberg, xxz};
    use ls_kernels::Complex64;
    use ls_symmetry::lattice;

    fn random_vec(dim: usize, seed: u64) -> Vec<f64> {
        (0..dim)
            .map(|i| {
                let h = ls_kernels::hash64_01(seed.wrapping_add(i as u64));
                (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn strategies_agree_real() {
        let n = 12usize;
        let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(6), group).unwrap();
        let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = ls_basis::SpinBasis::build(sector);
        let x = random_vec(basis.dim(), 3);
        let mut y1 = vec![0.0; basis.dim()];
        let mut y2 = vec![0.0; basis.dim()];
        let mut y3 = vec![0.0; basis.dim()];
        apply_pull(&op, &basis, &x, &mut y1);
        apply_serial(&op, &basis, &x, &mut y2);
        apply_batched_pull(&op, &basis, &x, &mut y3);
        for i in 0..basis.dim() {
            assert!((y1[i] - y2[i]).abs() < 1e-11);
            // The engine is the bit-exact twin of the scalar gather.
            assert_eq!(y3[i], y1[i], "batched pull vs pull at {i}");
        }
    }

    #[test]
    fn strategies_agree_complex() {
        let n = 10usize;
        let group = lattice::chain_group(n, 3, None, None).unwrap();
        let sector = SectorSpec::new(n as u32, Some(5), group).unwrap();
        let kernel = xxz(&lattice::chain_bonds(n), 1.0, 0.7).to_kernel(n as u32).unwrap();
        let op = SymmetrizedOperator::<Complex64>::new(&kernel, &sector).unwrap();
        let basis = ls_basis::SpinBasis::build(sector);
        let x: Vec<Complex64> = random_vec(basis.dim(), 7)
            .into_iter()
            .zip(random_vec(basis.dim(), 8))
            .map(|(a, b)| Complex64::new(a, b))
            .collect();
        let mut y1 = vec![Complex64::ZERO; basis.dim()];
        let mut y2 = vec![Complex64::ZERO; basis.dim()];
        let mut y3 = vec![Complex64::ZERO; basis.dim()];
        apply_pull(&op, &basis, &x, &mut y1);
        apply_serial(&op, &basis, &x, &mut y2);
        apply_batched_pull(&op, &basis, &x, &mut y3);
        for i in 0..basis.dim() {
            assert!(y1[i].approx_eq(y2[i], 1e-11), "{:?} vs {:?}", y1[i], y2[i]);
            assert_eq!(y3[i], y1[i], "batched pull vs pull at {i}");
        }
    }

    #[test]
    fn engine_handles_tiny_and_odd_dims() {
        // Dimensions around the block/chunk boundaries, U(1)-only sector.
        for (n, w) in [(4u32, 2u32), (9, 4), (13, 6)] {
            let sector = SectorSpec::with_weight(n, w).unwrap();
            let kernel =
                heisenberg(&lattice::chain_bonds(n as usize), 1.0).to_kernel(n).unwrap();
            let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
            let basis = ls_basis::SpinBasis::build(sector);
            let x = random_vec(basis.dim(), n as u64);
            let mut y_ref = vec![0.0; basis.dim()];
            let mut y_pull = vec![0.0; basis.dim()];
            apply_serial(&op, &basis, &x, &mut y_ref);
            apply_batched_pull(&op, &basis, &x, &mut y_pull);
            for i in 0..basis.dim() {
                assert!((y_pull[i] - y_ref[i]).abs() < 1e-12, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn fused_pull_dot_matches_separate_sweeps() {
        let n = 14usize;
        let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(7), group).unwrap();
        let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = ls_basis::SpinBasis::build(sector);
        let x = random_vec(basis.dim(), 17);
        let pool = MatvecScratchPool::new();
        let mut y_plain = vec![0.0; basis.dim()];
        apply_batched_pull_pooled(&op, &basis, &x, &mut y_plain, &pool);
        let mut y_fused = vec![0.0; basis.dim()];
        let d = apply_batched_pull_dot_pooled(&op, &basis, &x, &mut y_fused, &pool);
        // The product itself is untouched by the fused epilogue.
        assert_eq!(y_plain, y_fused);
        // The fused inner product agrees with a separate sweep (different
        // partial layout, so tolerance-exact).
        let expect = ls_eigen::op::par_dot(&x, &y_plain);
        assert!((d - expect).abs() <= 1e-12 * expect.abs().max(1.0), "{d} vs {expect}");
    }

    #[test]
    fn pool_reuse_is_deterministic() {
        let n = 10usize;
        let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(5), group).unwrap();
        let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = ls_basis::SpinBasis::build(sector);
        let x = random_vec(basis.dim(), 11);
        let pool = MatvecScratchPool::new();
        let mut first = vec![0.0; basis.dim()];
        apply_batched_pull_pooled(&op, &basis, &x, &mut first, &pool);
        let mut serial_fresh = vec![0.0; basis.dim()];
        apply_serial(&op, &basis, &x, &mut serial_fresh);
        for _ in 0..3 {
            let mut again = vec![0.0; basis.dim()];
            apply_batched_pull_pooled(&op, &basis, &x, &mut again, &pool);
            assert_eq!(first, again);
            // The oracle shares the pool without disturbing it.
            let mut serial = vec![0.0; basis.dim()];
            apply_serial_pooled(&op, &basis, &x, &mut serial, &pool);
            assert_eq!(serial, serial_fresh);
        }
    }
}
