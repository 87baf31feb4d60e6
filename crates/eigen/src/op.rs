//! The matrix-free operator interface and the BLAS-1 layer of the
//! eigensolvers.
//!
//! Every vector kernel here is written once, over a [`Scalar`] (`f64`
//! or `Complex64`): a Krylov vector stores what it computes in. Two
//! tiers:
//!
//! * the serial block loops — [`dot`], [`norm`], [`axpy`], [`scale`] and
//!   the private multi-vector loops beside them — linear accumulation
//!   order over one slice, used by the parallel tier on each block, by
//!   the dense references, and anywhere a plain loop is the right tool.
//!   The multi-vector loops walk a block in L1-sized tiles; inner
//!   products are taken eight, four or one basis vector at a time, one
//!   accumulator per vector carried across the tiles (every sum still
//!   adds its terms in ascending element order, only the *chains* are
//!   independent), and updates apply four or one vector per pass over the
//!   tile, in ascending vector order per element. Grouping moves no
//!   floating-point operation: the results are those of one [`dot`] /
//!   [`axpy`] per vector, bit for bit;
//! * the **parallel deterministic** kernels ([`par_dot`],
//!   [`par_norm_sqr`], [`par_axpy`], [`par_scale`], [`par_axpy_norm_sqr`],
//!   the blocked multi-vector [`par_multi_dot`] / [`par_multi_axpy`] /
//!   [`par_multi_axpy_dot`] / [`par_multi_axpy_norm_sqr`] and the
//!   in-place [`par_combine_in_place`]) that the Lanczos pipeline runs
//!   on. Each is a block loop handed to **one** private driver, which
//!   owns the *fixed* partition ([`REDUCE_BLOCK`], independent of the
//!   thread count), the inline-or-pool decision ([`MIN_PAR_BLOCKS`]) and
//!   the fixed pairwise tree ([`pairwise_sum`]) over the per-block
//!   partials; a block may update one vector, many, or none, and take
//!   any number of sums on the way. The result is bit-identical for
//!   `LS_NUM_THREADS = 1, 2, …, N`, only the wall time changes.

use ls_kernels::Scalar;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A linear operator `A` acting on vectors of scalars `S`.
///
/// Implementations must be thread-safe (`Sync`): eigensolvers may call
/// `apply` from parallel contexts.
pub trait LinearOp<S: Scalar>: Sync {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`. `x.len() == y.len() == self.dim()`; `y` arrives
    /// zero-filled or with arbitrary content and must be overwritten.
    fn apply(&self, x: &[S], y: &mut [S]);

    /// Computes `y = A x` and returns `⟨x, y⟩` — the fused matvec+dot
    /// epilogue of a Lanczos iteration (`α_j = ⟨v_j, H v_j⟩`).
    ///
    /// The default runs `apply` followed by [`par_dot`]; implementations
    /// with chunked products (e.g. the batched pull strategy) override it
    /// to accumulate the inner product while the freshly written output
    /// chunk is still cache-resident, saving one full sweep over the
    /// Krylov vectors per iteration. Overrides must stay deterministic
    /// across thread counts, like every kernel in this module.
    fn apply_dot(&self, x: &[S], y: &mut [S]) -> S {
        self.apply(x, y);
        par_dot(x, y)
    }

    /// True when the operator is Hermitian. Lanczos requires it.
    fn is_hermitian(&self) -> bool {
        true
    }
}

/// A dense (row-major) matrix operator — the reference implementation and
/// test scaffold.
#[derive(Clone, Debug)]
pub struct DenseOp<S> {
    n: usize,
    a: Vec<S>, // row-major n×n
}

impl<S: Scalar> DenseOp<S> {
    pub fn new(n: usize, a: Vec<S>) -> Self {
        assert_eq!(a.len(), n * n);
        Self { n, a }
    }

    pub fn from_rows(rows: &[Vec<S>]) -> Self {
        let n = rows.len();
        let mut a = Vec::with_capacity(n * n);
        for r in rows {
            assert_eq!(r.len(), n);
            a.extend_from_slice(r);
        }
        Self { n, a }
    }

    pub fn entry(&self, i: usize, j: usize) -> S {
        self.a[i * self.n + j]
    }
}

impl<S: Scalar> LinearOp<S> for DenseOp<S> {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[S], y: &mut [S]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.a[i * self.n..(i + 1) * self.n];
            let mut acc = S::ZERO;
            for (aij, xj) in row.iter().zip(x) {
                acc += *aij * *xj;
            }
            *yi = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Serial tier: one block, linear order
// ---------------------------------------------------------------------------

/// Hermitian inner product `⟨a, b⟩ = Σ conj(a_i) b_i`.
#[inline]
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = S::ZERO;
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
}

/// Squared 2-norm (always real).
#[inline]
pub fn norm_sqr<S: Scalar>(a: &[S]) -> f64 {
    a.iter().map(|x| x.abs_sqr()).sum()
}

/// 2-norm.
#[inline]
pub fn norm<S: Scalar>(a: &[S]) -> f64 {
    norm_sqr(a).sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// `x *= alpha` (real scale).
#[inline]
pub fn scale<S: Scalar>(x: &mut [S], alpha: f64) {
    for xi in x.iter_mut() {
        *xi = xi.scale_re(alpha);
    }
}

/// Elements per tile of the multi-vector loops: the `w` tile (8 or
/// 16 KB) stays in L1 while the basis tiles stream past it.
const TILE: usize = 1024;

/// `out[g] += Σ_i conj(vs[g][lo + i]) · w[i]` for `G` vectors at once:
/// `G` independent accumulation chains, each in ascending `i`.
#[inline]
fn dot_group<S: Scalar, V: AsRef<[S]>, const G: usize>(
    vs: &[V],
    lo: usize,
    w: &[S],
    out: &mut [S],
) {
    let v: [&[S]; G] = std::array::from_fn(|g| &vs[g].as_ref()[lo..lo + w.len()]);
    let mut acc: [S; G] = std::array::from_fn(|g| out[g]);
    for (i, wi) in w.iter().enumerate() {
        for g in 0..G {
            acc[g] += v[g][i].conj() * *wi;
        }
    }
    out.copy_from_slice(&acc);
}

/// [`dot_group`] over every vector of `vs`, eight, four and one at a time.
#[inline]
fn dot_tile<S: Scalar, V: AsRef<[S]>>(vs: &[V], lo: usize, w: &[S], out: &mut [S]) {
    let mut b = 0;
    while vs.len() - b >= 8 {
        dot_group::<S, V, 8>(&vs[b..b + 8], lo, w, &mut out[b..b + 8]);
        b += 8;
    }
    if vs.len() - b >= 4 {
        dot_group::<S, V, 4>(&vs[b..b + 4], lo, w, &mut out[b..b + 4]);
        b += 4;
    }
    for b in b..vs.len() {
        dot_group::<S, V, 1>(&vs[b..=b], lo, w, &mut out[b..=b]);
    }
}

/// `w[i] += coeffs[0] · vs[0][lo + i] + …` for `G` vectors in one pass
/// over `w`, the additions in ascending `g` per element.
#[inline]
fn axpy_group<S: Scalar, V: AsRef<[S]>, const G: usize>(
    coeffs: &[S],
    vs: &[V],
    lo: usize,
    w: &mut [S],
) {
    let v: [&[S]; G] = std::array::from_fn(|g| &vs[g].as_ref()[lo..lo + w.len()]);
    let c: [S; G] = std::array::from_fn(|g| coeffs[g]);
    for (i, wi) in w.iter_mut().enumerate() {
        let mut x = *wi;
        for g in 0..G {
            x += c[g] * v[g][i];
        }
        *wi = x;
    }
}

/// [`axpy_group`] over every vector of `vs`, four and one at a time.
#[inline]
fn axpy_tile<S: Scalar, V: AsRef<[S]>>(coeffs: &[S], vs: &[V], lo: usize, w: &mut [S]) {
    let mut b = 0;
    while vs.len() - b >= 4 {
        axpy_group::<S, V, 4>(&coeffs[b..b + 4], &vs[b..b + 4], lo, w);
        b += 4;
    }
    for b in b..vs.len() {
        axpy_group::<S, V, 1>(&coeffs[b..=b], &vs[b..=b], lo, w);
    }
}

/// `w[i] += Σ_b coeffs[b] · vs[b][base + i]` over one block `w`,
/// additions in ascending `b` per element.
#[inline]
fn multi_axpy<S: Scalar, V: AsRef<[S]>>(coeffs: &[S], vs: &[V], base: usize, w: &mut [S]) {
    for (t, wt) in w.chunks_mut(TILE).enumerate() {
        axpy_tile(coeffs, vs, base + t * TILE, wt);
    }
}

/// `out[b] = Σ_i conj(vs[b][base + i]) · w[i]` over one block `w`: one
/// [`dot`] per vector, every sum in ascending `i`.
#[inline]
fn multi_dot<S: Scalar, V: AsRef<[S]>>(vs: &[V], base: usize, w: &[S], out: &mut [S]) {
    out.fill(S::ZERO);
    for (t, wt) in w.chunks(TILE).enumerate() {
        dot_tile(vs, base + t * TILE, wt, out);
    }
}

/// [`multi_axpy`] followed by [`multi_dot`] of the updated block — one
/// CGS pass applied and the next one's coefficients taken tile by tile,
/// while the tile is resident.
#[inline]
fn multi_axpy_dot<S: Scalar, V: AsRef<[S]>>(
    coeffs: &[S],
    vs: &[V],
    base: usize,
    w: &mut [S],
    out: &mut [S],
) {
    out.fill(S::ZERO);
    for (t, wt) in w.chunks_mut(TILE).enumerate() {
        axpy_tile(coeffs, vs, base + t * TILE, wt);
        dot_tile(vs, base + t * TILE, wt, out);
    }
}

// ---------------------------------------------------------------------------
// Parallel deterministic kernels
// ---------------------------------------------------------------------------

/// Reduction-block length of the parallel kernels. Fixed — *never* a
/// function of the thread count — so the partial-sum layout, and with it
/// every floating-point result, is identical no matter how many pool
/// workers execute the sweep. Sized to amortize a chunk claim while
/// leaving enough blocks for dynamic load balancing on large sectors.
pub const REDUCE_BLOCK: usize = 8192;

/// Below this many blocks a kernel computes its blocks inline instead
/// of dispatching to the pool — a wake-up costs more than a few blocks
/// of streaming arithmetic. The partial layout and combination tree are
/// the same either way, so the result is bit-identical to the parallel
/// path (the dispatch decision is invisible in the output).
pub const MIN_PAR_BLOCKS: usize = 8;

/// Sums `parts` in a fixed pairwise (balanced binary) tree. The tree
/// shape depends only on `parts.len()`, making the reduction
/// deterministic and more accurate than linear accumulation.
pub fn pairwise_sum<S: Scalar>(parts: &[S]) -> S {
    match parts.len() {
        0 => S::ZERO,
        1 => parts[0],
        2 => parts[0] + parts[1],
        n => pairwise_sum(&parts[..n / 2]) + pairwise_sum(&parts[n / 2..]),
    }
}

/// Views a scalar slice as atomic `f64`-bit lanes (the layout trick the
/// scatter matvec uses). Used for racing-free indexed stores of reduction
/// partials from parallel chunks; every lane is written by exactly one
/// chunk, so relaxed stores suffice. Public so the fused matvec+dot in
/// `ls-core` shares this one audited copy of the unsafe cast (`f64`
/// itself is a `Scalar`, so plain real partials go through it too).
pub fn atomic_lanes<S: Scalar>(data: &mut [S]) -> &[AtomicU64] {
    // SAFETY: every `Scalar` is `N_REALS` little-endian f64 lanes, and
    // AtomicU64 has the same size/alignment as f64 on every supported
    // target.
    unsafe {
        std::slice::from_raw_parts(
            data.as_mut_ptr() as *const AtomicU64,
            data.len() * S::N_REALS,
        )
    }
}

/// Stores `value`'s lanes into partial slot `slot` (relaxed; one writer
/// per slot — see [`atomic_lanes`]).
#[inline]
pub fn store_partial<S: Scalar>(lanes: &[AtomicU64], slot: usize, value: S) {
    let reals = value.to_reals();
    for lane in 0..S::N_REALS {
        lanes[slot * S::N_REALS + lane].store(reals[lane].to_bits(), Ordering::Relaxed);
    }
}

/// Hands out `w` one block at a time, front to back — the `take` of
/// [`blocked`] for a kernel that updates `w`.
fn blocks_of<'a, S>(w: &'a mut [S]) -> impl FnMut(usize) -> &'a mut [S] {
    let mut rest = w;
    move |len| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        head
    }
}

/// The blocked driver every pooled kernel runs on: one sweep over the
/// index range `0..n`, cut into [`REDUCE_BLOCK`] blocks, that may update
/// vectors in place and takes `m` sums on the way. `take(len)` is called
/// once per block, in ascending order, for whatever the kernel writes in
/// that block (`()` for a pure reduction, the block of `w` from
/// [`blocks_of`] for an update); `block(lo, hi, target, partials)` then
/// computes the block — inline, or on the pool from [`MIN_PAR_BLOCKS`]
/// blocks on, where each block's target and partial slots travel to it
/// by value — and leaves every sum restricted to `lo..hi` in `partials`.
/// The driver owns the partition, the inline-or-pool decision and the
/// per-sum [`pairwise_sum`] tree over the block partials.
fn blocked<T: Send, A: Scalar>(
    n: usize,
    m: usize,
    mut take: impl FnMut(usize) -> T,
    block: impl Fn(usize, usize, T, &mut [A]) + Sync,
) -> Vec<A> {
    let n_blocks = n.div_ceil(REDUCE_BLOCK).max(1);
    // partials[k * m + b] = sum `b` restricted to block `k`.
    let mut partials = vec![A::ZERO; n_blocks * m];
    {
        let mut slots = blocks_of(&mut partials);
        let jobs: Vec<_> = (0..n_blocks)
            .map(|k| {
                let (lo, hi) = (k * REDUCE_BLOCK, ((k + 1) * REDUCE_BLOCK).min(n));
                (lo, hi, take(hi - lo), slots(m))
            })
            .collect();
        let run =
            |(lo, hi, target, out): (usize, usize, T, &mut [A])| block(lo, hi, target, out);
        if n_blocks < MIN_PAR_BLOCKS {
            jobs.into_iter().for_each(run);
        } else {
            jobs.into_par_iter().map(run).collect::<()>();
        }
    }
    let column = |b: usize| partials.iter().skip(b).step_by(m).copied().collect::<Vec<A>>();
    (0..m).map(|b| pairwise_sum(&column(b))).collect()
}

/// Parallel Hermitian inner product, bit-deterministic across thread
/// counts: per-block partials (one [`dot`] per [`REDUCE_BLOCK`])
/// combined with [`pairwise_sum`].
pub fn par_dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot of vectors of different lengths");
    blocked(a.len(), 1, |_| (), |lo, hi, (), out| out[0] = dot(&a[lo..hi], &b[lo..hi]))[0]
}

/// Parallel squared 2-norm, bit-deterministic across thread counts.
pub fn par_norm_sqr<S: Scalar>(a: &[S]) -> f64 {
    blocked(a.len(), 1, |_| (), |lo, hi, (), out| out[0] = norm_sqr(&a[lo..hi]))[0]
}

/// Parallel 2-norm (deterministic, see [`par_norm_sqr`]).
pub fn par_norm<S: Scalar>(a: &[S]) -> f64 {
    par_norm_sqr(a).sqrt()
}

/// Parallel `y += alpha * x`. Element-wise, so trivially deterministic.
pub fn par_axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy of vectors of different lengths");
    blocked::<_, f64>(y.len(), 0, blocks_of(y), |lo, hi, yb, _| axpy(alpha, &x[lo..hi], yb));
}

/// Parallel `x *= alpha` (real scale).
pub fn par_scale<S: Scalar>(x: &mut [S], alpha: f64) {
    blocked::<_, f64>(x.len(), 0, blocks_of(x), |_, _, xb, _| scale(xb, alpha));
}

/// Fused `y += alpha * x; return ‖y‖²` in one parallel sweep — the
/// axpy+norm epilogue of a Lanczos iteration (the final
/// reorthogonalization update and the β that follows it), saving one full
/// read pass over the Krylov vector. Bit-identical to [`par_axpy`]
/// followed by [`par_norm_sqr`], at any thread count.
pub fn par_axpy_norm_sqr<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy of vectors of different lengths");
    blocked(y.len(), 1, blocks_of(y), |lo, hi, yb, out| {
        axpy(alpha, &x[lo..hi], yb);
        out[0] = norm_sqr(yb);
    })[0]
}

/// Blocked multi-vector inner products: `out[b] = ⟨vs[b], w⟩` for every
/// basis vector at once, sweeping `w` (and each `vs[b]`) exactly once.
/// This is the coefficient half of blocked (CGS2) reorthogonalization —
/// with `m` basis vectors the one-vector-at-a-time loop reads `w` `m`
/// times per pass; this kernel reads it once, with the current `w` tile
/// cache-hot across all `m` dot products (the tiled `multi_dot` block loop).
/// Deterministic: per-vector partials over the fixed [`REDUCE_BLOCK`]
/// partition, combined with [`pairwise_sum`] — `out[b]` is
/// [`par_dot`]`(vs[b], w)` to the bit.
pub fn par_multi_dot<S: Scalar, V: AsRef<[S]> + Sync>(vs: &[V], w: &[S]) -> Vec<S> {
    blocked(w.len(), vs.len(), |_| (), |lo, hi, (), out| multi_dot(vs, lo, &w[lo..hi], out))
}

/// Blocked multi-vector update: `w += Σ_b coeffs[b] · vs[b]`, sweeping
/// `w` exactly once (the update half of blocked reorthogonalization).
/// Per element the additions run in ascending `b` order — independent of
/// how chunks are claimed, so deterministic.
pub fn par_multi_axpy<S: Scalar, V: AsRef<[S]> + Sync>(coeffs: &[S], vs: &[V], w: &mut [S]) {
    assert_eq!(coeffs.len(), vs.len(), "one coefficient per vector");
    blocked::<_, f64>(w.len(), 0, blocks_of(w), |lo, _, wb, _| multi_axpy(coeffs, vs, lo, wb));
}

/// [`par_multi_axpy`] fused with `‖w‖²` of the result — the final
/// reorthogonalization pass and the β norm in one sweep over `w`.
/// Bit-identical to [`par_multi_axpy`] followed by [`par_norm_sqr`].
pub fn par_multi_axpy_norm_sqr<S: Scalar, V: AsRef<[S]> + Sync>(
    coeffs: &[S],
    vs: &[V],
    w: &mut [S],
) -> f64 {
    assert_eq!(coeffs.len(), vs.len(), "one coefficient per vector");
    blocked(w.len(), 1, blocks_of(w), |lo, _, wb, out| {
        multi_axpy(coeffs, vs, lo, wb);
        out[0] = norm_sqr(wb);
    })[0]
}

/// [`par_multi_axpy`] fused with the [`par_multi_dot`] of the result
/// against the same vectors — the first CGS pass's update and the second
/// pass's coefficients in one sweep over the basis
/// (`multi_axpy_dot`). Bit-identical to the two calls in turn.
pub fn par_multi_axpy_dot<S: Scalar, V: AsRef<[S]> + Sync>(
    coeffs: &[S],
    vs: &[V],
    w: &mut [S],
) -> Vec<S> {
    assert_eq!(coeffs.len(), vs.len(), "one coefficient per vector");
    blocked(w.len(), vs.len(), blocks_of(w), |lo, _, wb, out| {
        multi_axpy_dot(coeffs, vs, lo, wb, out);
    })
}

/// Elements per tile of [`par_combine_in_place`]: the tiles of every
/// input vector and of every output row stay in L2 together.
const COMBINE_TILE: usize = 512;

/// Overwrites `vs[r]` with `Σ_j rows[r][j] · vs[j]` for every
/// `r < rows.len()` in one sweep — thick-restart compression and Ritz
/// vector assembly without a second set of vectors. Tile by tile, every
/// row is formed from the input tiles into scratch before the first
/// output tile is written. Per element that is [`par_multi_axpy`] into a
/// zero vector (`0 + rows[r][0]·vs[0] + rows[r][1]·vs[1] + …`, so a
/// `-0.0` product lands as `+0.0`), to the bit. `vs[rows.len()..]` keep
/// their content.
pub fn par_combine_in_place<S: Scalar>(rows: &[Vec<S>], vs: Vec<&mut [S]>) {
    assert!(rows.len() <= vs.len(), "more combinations than vectors");
    assert!(rows.iter().all(|row| row.len() == vs.len()), "one coefficient per vector");
    let n = vs.first().map_or(0, |v| v.len());
    assert!(vs.iter().all(|v| v.len() == n), "combination of vectors of different lengths");
    let mut takes: Vec<_> = vs.into_iter().map(blocks_of).collect();
    let take = |len: usize| takes.iter_mut().map(|t| t(len)).collect::<Vec<&mut [S]>>();
    blocked::<_, f64>(n, 0, take, |lo, hi, mut blk: Vec<&mut [S]>, _| {
        let mut scratch = vec![S::ZERO; rows.len() * COMBINE_TILE];
        for t in (0..hi - lo).step_by(COMBINE_TILE) {
            let len = COMBINE_TILE.min(hi - lo - t);
            for (row, s) in rows.iter().zip(scratch.chunks_mut(COMBINE_TILE)) {
                s[..len].fill(S::ZERO);
                multi_axpy(row, &blk, t, &mut s[..len]);
            }
            for (v, s) in blk.iter_mut().zip(scratch.chunks(COMBINE_TILE)) {
                v[t..t + len].copy_from_slice(&s[..len]);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_kernels::Complex64;

    #[test]
    fn dense_apply() {
        let a = DenseOp::new(2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = vec![0.0; 2];
        a.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn blas1_helpers() {
        let a = vec![1.0, -2.0, 2.0];
        assert_eq!(norm_sqr(&a), 9.0);
        assert_eq!(norm(&a), 3.0);
        assert_eq!(dot(&a, &a), 9.0);
        let mut y = vec![0.0, 1.0, 0.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![2.0, -3.0, 4.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![1.0, -1.5, 2.0]);
    }

    #[test]
    fn complex_dot_conjugates_left() {
        let a = vec![Complex64::new(0.0, 1.0)];
        let b = vec![Complex64::new(0.0, 1.0)];
        // ⟨i, i⟩ = conj(i)·i = 1.
        assert!(dot(&a, &b).approx_eq(Complex64::ONE, 1e-15));
    }

    #[test]
    fn full_width_lanes_are_their_own_accumulator() {
        let a = [1.0, -2.0, 2.0];
        assert_eq!(dot(&a, &a), 9.0);
        assert_eq!(norm_sqr(&a), 9.0);
        let mut y = [0.0, 1.0, 0.0];
        assert_eq!(par_axpy_norm_sqr(2.0, &a, &mut y), 29.0);
        assert_eq!(y, [2.0, -3.0, 4.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, [1.0, -1.5, 2.0]);
        // ⟨i, i⟩ = conj(i)·i = 1: the left side is conjugated.
        let z = [Complex64::new(0.0, 1.0)];
        assert!(dot(&z, &z).approx_eq(Complex64::ONE, 1e-15));
    }

    /// The tiled multi-vector loops on one block against one
    /// `dot` / `axpy` per vector, for every group remainder and on both
    /// sides of a tile boundary.
    fn tiled_is_per_vector<S: Scalar>(value: impl Fn(usize) -> S) {
        for n in [0, 1, TILE - 1, TILE, 2 * TILE + 3] {
            for m in [0usize, 1, 3, 4, 5, 8, 9, 17] {
                let base = 5;
                let vs: Vec<Vec<S>> = (0..m)
                    .map(|b| (0..base + n).map(|i| value(31 * b + i)).collect())
                    .collect();
                let coeffs: Vec<S> = (0..m).map(|b| value(1000 + b)).collect();
                let w: Vec<S> = (0..n).map(|i| value(7 * i + 3)).collect();

                let mut dots = vec![S::ONE; m];
                multi_dot(&vs, base, &w, &mut dots);
                let mut updated = w.clone();
                multi_axpy(&coeffs, &vs, base, &mut updated);
                let mut expect = w.clone();
                for b in 0..m {
                    assert!(dots[b] == dot(&vs[b][base..], &w), "dot {b} of {m}, n = {n}");
                    axpy(coeffs[b], &vs[b][base..], &mut expect);
                }
                assert!(updated == expect, "axpy of {m}, n = {n}");

                let mut fused = w.clone();
                let mut fused_dots = vec![S::ONE; m];
                multi_axpy_dot(&coeffs, &vs, base, &mut fused, &mut fused_dots);
                multi_dot(&vs, base, &updated, &mut dots);
                assert!(fused == updated && fused_dots == dots, "fused, {m} vectors, n = {n}");
            }
        }
    }

    #[test]
    fn tiled_multi_vector_loops_keep_the_per_vector_bits() {
        let real = |i: usize| ((i * 2654435761) % 1009) as f64 / 1009.0 - 0.5;
        tiled_is_per_vector(real);
        tiled_is_per_vector(|i| Complex64::new(real(i), real(i + 500)));
    }

    fn ramp(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| ((i % 97) as f64 - 48.0) * scale).collect()
    }

    #[test]
    fn par_kernels_agree_with_serial() {
        for n in [0usize, 1, 100, REDUCE_BLOCK, 3 * REDUCE_BLOCK + 7, 9 * REDUCE_BLOCK + 11] {
            let a = ramp(n, 1e-3);
            let b = ramp(n, -2e-3);
            let tol = 1e-12 * (n as f64 + 1.0);
            assert!((par_dot(&a, &b) - dot(&a, &b)).abs() <= tol, "dot n={n}");
            assert!((par_norm_sqr(&a) - norm_sqr(&a)).abs() <= tol, "norm n={n}");
            let mut y1 = b.clone();
            let mut y2 = b.clone();
            par_axpy(0.37, &a, &mut y1);
            axpy(0.37, &a, &mut y2);
            assert_eq!(y1, y2, "axpy n={n}");
            par_scale(&mut y1, 0.25);
            scale(&mut y2, 0.25);
            assert_eq!(y1, y2, "scale n={n}");
            // Fused axpy+norm is bit-identical to the split pair.
            let mut y3 = b.clone();
            let fused = par_axpy_norm_sqr(-0.11, &a, &mut y3);
            let mut y4 = b.clone();
            par_axpy(-0.11, &a, &mut y4);
            assert_eq!(y3, y4, "fused update n={n}");
            assert_eq!(fused.to_bits(), par_norm_sqr(&y4).to_bits(), "fused norm n={n}");
        }
    }

    #[test]
    fn blocked_multi_kernels_agree_with_loops() {
        for n in [0usize, 5, REDUCE_BLOCK + 3, 9 * REDUCE_BLOCK + 1] {
            let w = ramp(n, 5e-4);
            let vs: Vec<Vec<f64>> = (0..4).map(|k| ramp(n, 1e-3 * (k + 1) as f64)).collect();
            let coeffs = par_multi_dot(&vs, &w);
            assert_eq!(coeffs.len(), 4);
            for (b, v) in vs.iter().enumerate() {
                assert_eq!(
                    coeffs[b].to_bits(),
                    par_dot(v, &w).to_bits(),
                    "multi-dot lane {b} n={n}"
                );
            }
            // Multi-axpy equals the sequential per-vector updates.
            let mut w1 = w.clone();
            par_multi_axpy(&coeffs, &vs, &mut w1);
            let mut w2 = w.clone();
            // Same per-element order: ascending b within each element.
            for i in 0..n {
                for (b, v) in vs.iter().enumerate() {
                    w2[i] += coeffs[b] * v[i];
                }
            }
            assert_eq!(w1, w2, "multi-axpy n={n}");
            // The fused variant matches multi-axpy + parallel norm bitwise.
            let mut w3 = w.clone();
            let fused = par_multi_axpy_norm_sqr(&coeffs, &vs, &mut w3);
            assert_eq!(w3, w1, "fused multi update n={n}");
            assert_eq!(fused.to_bits(), par_norm_sqr(&w1).to_bits(), "fused multi norm n={n}");
        }
    }

    #[test]
    fn pairwise_sum_shapes() {
        assert_eq!(pairwise_sum::<f64>(&[]), 0.0);
        assert_eq!(pairwise_sum(&[3.0]), 3.0);
        let parts: Vec<f64> = (0..13).map(|i| i as f64).collect();
        assert_eq!(pairwise_sum(&parts), 78.0);
        let cparts: Vec<Complex64> =
            (0..7).map(|i| Complex64::new(i as f64, -(i as f64))).collect();
        let s = pairwise_sum(&cparts);
        assert!(s.approx_eq(Complex64::new(21.0, -21.0), 1e-12));
    }
}
