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
//! * `f32` accumulates in `f64` through the [`crate::simd`] f32 kernels
//!   (widen both operands, fixed 4-lane reduction shape shared by the
//!   scalar and AVX2 paths) and narrows once per stored element.

use crate::complexnum::Scalar;
use crate::simd;

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
        for (c, v) in coeffs.iter().zip(vs) {
            Self::axpy(*c, &v.as_ref()[base..base + w.len()], w);
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

    fn dot(a: &[f32], b: &[f32]) -> f64 {
        simd::dot_f32(a, b)
    }

    fn norm_sqr(a: &[f32]) -> f64 {
        simd::norm_sqr_f32(a)
    }

    fn axpy(alpha: f64, x: &[f32], y: &mut [f32]) {
        simd::axpy_f32(alpha, x, y);
    }

    fn scale(x: &mut [f32], alpha: f64) {
        simd::scale_f32(x, alpha);
    }

    fn axpy_norm_sqr(alpha: f64, x: &[f32], y: &mut [f32]) -> f64 {
        simd::axpy_norm_sqr_f32(alpha, x, y)
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
