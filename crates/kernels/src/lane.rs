//! [`Lane`]: the element type a Krylov vector is *stored* in, together
//! with the type its arithmetic runs in.
//!
//! The Krylov solvers are bandwidth-bound on their vectors, so the
//! stored width is the knob that matters; the arithmetic never narrows.
//! A lane therefore names two types — the stored element and its
//! accumulator [`Lane::Acc`] — and supplies the BLAS-1 loops over **one
//! block** of a vector. `ls-eigen` builds its deterministic pooled
//! kernels on top (fixed blocks, pairwise tree), once, for every lane:
//!
//! * every [`Scalar`] (`f64`, [`crate::Complex64`]) is its own
//!   accumulator: plain linear loops, one rounding per operation;
//! * `f32` accumulates in `f64` (widen both operands, fixed 4-lane
//!   reduction shape) and narrows once per stored element.
//!
//! The multi-vector loops ([`Lane::multi_dot`], [`Lane::multi_axpy`],
//! [`Lane::multi_axpy_dot`]) are what a Krylov step spends its time in,
//! so the full-width lanes run them at memory bandwidth: the block is
//! walked in L1-sized tiles, inner products are taken eight, four or one
//! basis vector at a time — one accumulator per vector, carried across
//! the tiles, so every sum still adds its terms in ascending element
//! order and only the *chains* are independent — and updates apply four
//! or one vector per pass over the tile, in ascending vector order per
//! element. Grouping moves no floating-point operation: the results are
//! those of one [`Lane::dot`] / [`Lane::axpy`] per vector, bit for bit.

use crate::complexnum::Scalar;

/// A stored vector element and the BLAS-1 loops over one block of them.
pub trait Lane: Copy + Send + Sync + Default + 'static {
    /// The type products, sums and coefficients are computed in.
    type Acc: Scalar;

    /// Bytes per stored real lane (8 or 4): the checkpoint width tag and
    /// the wire width of a distributed vector's elements.
    const WIDTH: u32;

    fn widen(self) -> Self::Acc;

    /// Rounds an accumulator to the stored type (the identity for the
    /// full-width lanes).
    fn narrow(x: Self::Acc) -> Self;

    /// Hermitian inner product `Σ conj(a_i) b_i`.
    fn dot(a: &[Self], b: &[Self]) -> Self::Acc;

    /// `Σ |a_i|²`.
    fn norm_sqr(a: &[Self]) -> f64;

    /// `y += alpha · x`.
    fn axpy(alpha: Self::Acc, x: &[Self], y: &mut [Self]);

    /// `x *= alpha` (real scale).
    fn scale(x: &mut [Self], alpha: f64);

    /// [`Lane::axpy`] followed by [`Lane::norm_sqr`] of the stored `y`.
    fn axpy_norm_sqr(alpha: Self::Acc, x: &[Self], y: &mut [Self]) -> f64 {
        Self::axpy(alpha, x, y);
        Self::norm_sqr(y)
    }

    /// `w[i] += Σ_b coeffs[b] · vs[b][base + i]`, additions in ascending
    /// `b` per element.
    fn multi_axpy<V: AsRef<[Self]>>(
        coeffs: &[Self::Acc],
        vs: &[V],
        base: usize,
        w: &mut [Self],
    );

    /// `out[b] = Σ_i conj(vs[b][base + i]) · w[i]`: one [`Lane::dot`]
    /// against the block `w` per vector, every sum in ascending `i`.
    fn multi_dot<V: AsRef<[Self]>>(vs: &[V], base: usize, w: &[Self], out: &mut [Self::Acc]) {
        for (o, v) in out.iter_mut().zip(vs) {
            *o = Self::dot(&v.as_ref()[base..base + w.len()], w);
        }
    }

    /// [`Lane::multi_axpy`] followed by [`Lane::multi_dot`] of the
    /// updated block — one CGS pass applied and the next one's
    /// coefficients taken while the block is resident.
    fn multi_axpy_dot<V: AsRef<[Self]>>(
        coeffs: &[Self::Acc],
        vs: &[V],
        base: usize,
        w: &mut [Self],
        out: &mut [Self::Acc],
    ) {
        Self::multi_axpy(coeffs, vs, base, w);
        Self::multi_dot(vs, base, w, out);
    }
}

/// Elements per tile of the full-width multi-vector loops: the `w` tile
/// (8 or 16 KB) stays in L1 while the basis tiles stream past it.
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

impl<S: Scalar> Lane for S {
    type Acc = S;

    const WIDTH: u32 = 8;

    #[inline]
    fn widen(self) -> S {
        self
    }

    #[inline]
    fn narrow(x: S) -> S {
        x
    }

    #[inline]
    fn dot(a: &[S], b: &[S]) -> S {
        let mut acc = S::ZERO;
        for (x, y) in a.iter().zip(b) {
            acc += x.conj() * *y;
        }
        acc
    }

    #[inline]
    fn norm_sqr(a: &[S]) -> f64 {
        a.iter().map(|x| x.abs_sqr()).sum()
    }

    #[inline]
    fn axpy(alpha: S, x: &[S], y: &mut [S]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * *xi;
        }
    }

    #[inline]
    fn scale(x: &mut [S], alpha: f64) {
        for xi in x.iter_mut() {
            *xi = xi.scale_re(alpha);
        }
    }

    #[inline]
    fn multi_axpy<V: AsRef<[S]>>(coeffs: &[S], vs: &[V], base: usize, w: &mut [S]) {
        for (t, wt) in w.chunks_mut(TILE).enumerate() {
            axpy_tile(coeffs, vs, base + t * TILE, wt);
        }
    }

    #[inline]
    fn multi_dot<V: AsRef<[S]>>(vs: &[V], base: usize, w: &[S], out: &mut [S]) {
        out.fill(S::ZERO);
        for (t, wt) in w.chunks(TILE).enumerate() {
            dot_tile(vs, base + t * TILE, wt, out);
        }
    }

    #[inline]
    fn multi_axpy_dot<V: AsRef<[S]>>(
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
}

impl Lane for f32 {
    type Acc = f64;

    const WIDTH: u32 = 4;

    #[inline]
    fn widen(self) -> f64 {
        self as f64
    }

    #[inline]
    fn narrow(x: f64) -> f32 {
        x as f32
    }

    /// Both operands widened, summed in four interleaved f64 accumulators
    /// over the 4-aligned prefix (lane `l` takes elements `4k + l`), the
    /// remainder into lanes `0..len % 4`, finished as
    /// `(acc0 + acc1) + (acc2 + acc3)`. The shape is part of the result:
    /// `tests/blas1_pins.rs` pins its bits.
    fn dot(a: &[f32], b: &[f32]) -> f64 {
        assert_eq!(a.len(), b.len());
        let mut acc = [0.0f64; 4];
        let n4 = a.len() & !3;
        for k in (0..n4).step_by(4) {
            for l in 0..4 {
                acc[l] += a[k + l] as f64 * b[k + l] as f64;
            }
        }
        for i in n4..a.len() {
            acc[i - n4] += a[i] as f64 * b[i] as f64;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    fn norm_sqr(a: &[f32]) -> f64 {
        Self::dot(a, a)
    }

    /// `y[i] = f32(f64(y[i]) + alpha · f64(x[i]))`: one rounding on store.
    fn axpy(alpha: f64, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len());
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = (*yi as f64 + alpha * xi as f64) as f32;
        }
    }

    fn scale(x: &mut [f32], alpha: f64) {
        for xi in x.iter_mut() {
            *xi = (*xi as f64 * alpha) as f32;
        }
    }

    /// The norm of the *stored* (narrowed) result, in the [`Lane::dot`]
    /// shape: what a subsequent [`Lane::norm_sqr`] of `y` returns.
    fn axpy_norm_sqr(alpha: f64, x: &[f32], y: &mut [f32]) -> f64 {
        assert_eq!(x.len(), y.len());
        let mut acc = [0.0f64; 4];
        let n4 = y.len() & !3;
        for k in (0..n4).step_by(4) {
            for l in 0..4 {
                let v = (y[k + l] as f64 + alpha * x[k + l] as f64) as f32;
                y[k + l] = v;
                acc[l] += v as f64 * v as f64;
            }
        }
        for i in n4..y.len() {
            let v = (y[i] as f64 + alpha * x[i] as f64) as f32;
            y[i] = v;
            acc[i - n4] += v as f64 * v as f64;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// The sum runs in f64 and narrows once per element — one rounding,
    /// not one per basis vector.
    fn multi_axpy<V: AsRef<[f32]>>(coeffs: &[f64], vs: &[V], base: usize, w: &mut [f32]) {
        for (i, wi) in w.iter_mut().enumerate() {
            let mut acc = *wi as f64;
            for (c, v) in coeffs.iter().zip(vs) {
                acc += c * v.as_ref()[base + i] as f64;
            }
            *wi = acc as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn full_width_lanes_are_their_own_accumulator() {
        let a = [1.0, -2.0, 2.0];
        assert_eq!(<f64 as Lane>::dot(&a, &a), 9.0);
        assert_eq!(<f64 as Lane>::norm_sqr(&a), 9.0);
        let mut y = [0.0, 1.0, 0.0];
        assert_eq!(<f64 as Lane>::axpy_norm_sqr(2.0, &a, &mut y), 29.0);
        assert_eq!(y, [2.0, -3.0, 4.0]);
        <f64 as Lane>::scale(&mut y, 0.5);
        assert_eq!(y, [1.0, -1.5, 2.0]);
        // ⟨i, i⟩ = conj(i)·i = 1: the left side is conjugated.
        let z = [Complex64::new(0.0, 1.0)];
        assert!(<Complex64 as Lane>::dot(&z, &z).approx_eq(Complex64::ONE, 1e-15));
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
                S::multi_dot(&vs, base, &w, &mut dots);
                let mut updated = w.clone();
                S::multi_axpy(&coeffs, &vs, base, &mut updated);
                let mut expect = w.clone();
                for b in 0..m {
                    assert!(dots[b] == S::dot(&vs[b][base..], &w), "dot {b} of {m}, n = {n}");
                    S::axpy(coeffs[b], &vs[b][base..], &mut expect);
                }
                assert!(updated == expect, "axpy of {m}, n = {n}");

                let mut fused = w.clone();
                let mut fused_dots = vec![S::ONE; m];
                S::multi_axpy_dot(&coeffs, &vs, base, &mut fused, &mut fused_dots);
                S::multi_dot(&vs, base, &updated, &mut dots);
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

    #[test]
    fn f32_lane_keeps_its_reduction_shape_and_fused_norm() {
        let value = |i: usize| ((crate::hash64_01(i as u64) >> 40) as f32 - 8.0e6) * 1.0e-7;
        for n in (0..=9).chain([1021]) {
            let a: Vec<f32> = (0..n).map(value).collect();
            let b: Vec<f32> = (0..n).map(|i| value(i + 5000)).collect();
            // Element i feeds accumulator i % 4, in ascending i.
            let mut lanes = [0.0f64; 4];
            for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
                lanes[i % 4] += x as f64 * y as f64;
            }
            let shape = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            assert_eq!(<f32 as Lane>::dot(&a, &b).to_bits(), shape.to_bits(), "n = {n}");

            let mut fused = b.clone();
            let norm = <f32 as Lane>::axpy_norm_sqr(-1.13, &a, &mut fused);
            let mut plain = b.clone();
            <f32 as Lane>::axpy(-1.13, &a, &mut plain);
            assert_eq!(fused, plain, "n = {n}");
            assert_eq!(norm.to_bits(), <f32 as Lane>::norm_sqr(&fused).to_bits(), "n = {n}");
        }
    }

    #[test]
    fn f32_multi_axpy_rounds_once_per_element() {
        // 1 + 2^-24 + 2^-24: each addend alone rounds away in f32, the
        // f64 sum does not.
        let tiny = 2.0f32.powi(-24);
        let vs = [vec![0.0, tiny], vec![0.0, tiny]];
        let mut w = [1.0f32];
        <f32 as Lane>::multi_axpy(&[1.0, 1.0], &vs, 1, &mut w);
        assert_eq!(w[0], 1.0 + 2.0 * tiny);
    }
}
