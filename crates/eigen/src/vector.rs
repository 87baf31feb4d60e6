//! The Krylov vector abstraction: one solver, any storage.
//!
//! Every Krylov algorithm in this crate (Lanczos eigensolver, the
//! `exp(zH)` propagators, the spectral continued fraction) is a short
//! three-term recurrence over a handful of BLAS-1 primitives plus the
//! matrix-vector product. [`KrylovVec`] captures exactly those
//! primitives — fused, deterministic, in place — so the recurrences are
//! written once and run on any storage:
//!
//! * **`Vec<S>`** — shared-memory vectors on the parallel deterministic
//!   kernels of [`crate::op`] (per-block partials over the fixed
//!   [`crate::op::REDUCE_BLOCK`] partition, pairwise reduction trees);
//! * **`ls_runtime::DistVec<S>`** — locale-partitioned vectors. Each
//!   primitive runs the same shared-memory kernel *per part* and reduces
//!   the per-locale partials in locale order (the `allreduce` of a real
//!   cluster). Nothing is ever gathered: the Krylov recurrence operates
//!   on the distributed parts in place, which is the paper's central
//!   claim — Krylov state stays distributed, only matrix elements cross
//!   locale boundaries.
//!
//! Both are generic over the element `S:` [`Scalar`] (`f64` or
//! `Complex64`): a Krylov vector stores what it computes in.
//!
//! [`KrylovOp`] is the operator side: the matrix-vector product over a
//! given vector type, plus the allocation hook the solvers use for their
//! workspace ([`KrylovOp::new_vec`]) and the fused matvec+dot epilogue
//! ([`KrylovOp::apply_dot`]). Every [`LinearOp`] automatically is a
//! `KrylovOp<Vec<S>>`, so existing slice-based operators need no changes;
//! the distributed backend implements `KrylovOp<DistVec<S>>` directly on
//! the producer/consumer engine.
//!
//! # Determinism
//!
//! Both implementations inherit the workspace-wide contract: reduction
//! partials live on thread-count-independent partitions (blocks within a
//! part, parts in locale order), so every primitive is bit-identical for
//! any `LS_NUM_THREADS`. The distributed reduction order *does* depend on
//! the locale count — results across cluster shapes agree to solver
//! tolerance, not bitwise, exactly like a real machine.

use crate::op::{self, LinearOp};
use ls_kernels::Scalar;
use ls_runtime::{collective, DistVec};
use std::borrow::Borrow;

/// A vector a Krylov solver can iterate on: fused, deterministic BLAS-1
/// plus an element-order fill hook.
///
/// The multi-vector operations (`multi_dot`, `multi_axpy`,
/// `multi_axpy_dot`, `multi_axpy_norm_sqr`) are the blocked-CGS2
/// workhorses — they sweep the target vector once for the whole basis
/// instead of once per basis vector, and the solvers' performance rests
/// on them; `combine_in_place` is the compression of a thick restart.
pub trait KrylovVec: Clone {
    /// The element type, stored and computed in: coefficients, inner
    /// products and the values [`KrylovVec::visit`] /
    /// [`KrylovVec::fill_with`] exchange.
    type Scalar: Scalar;

    /// Storage-kind tag written into checkpoint files so a resume cannot
    /// silently reinterpret one storage's bytes as another's
    /// (see [`crate::checkpoint`]): dense 1, distributed 2.
    const STORAGE_KIND: u32;

    /// Global number of elements (summed over parts for distributed
    /// storage).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Part lengths describing the physical layout (`[len]` for dense
    /// storage, per-locale lengths for distributed storage). Checkpoints
    /// record it so a resume on a different layout is rejected instead of
    /// silently breaking the bit-identical-resume contract (reduction
    /// order follows the parts).
    fn layout(&self) -> Vec<usize>;

    /// Visits every element in ascending global order — the
    /// serialization counterpart of [`KrylovVec::fill_with`].
    fn visit(&self, f: &mut dyn FnMut(Self::Scalar));

    /// Overwrites every element with `f(global_index)`, calling `f` in
    /// ascending global order exactly once per element. Callers feed
    /// sequential RNG streams through this, so the order is a contract:
    /// a distributed vector filled this way is element-for-element the
    /// vector a shared-memory solver would start from.
    fn fill_with(&mut self, f: &mut dyn FnMut(usize) -> Self::Scalar);

    /// Hermitian inner product `⟨self, other⟩` (left side conjugated).
    fn dot(&self, other: &Self) -> Self::Scalar;

    /// Squared 2-norm (always real).
    fn norm_sqr(&self) -> f64;

    fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// `self += alpha · x`.
    fn axpy(&mut self, alpha: Self::Scalar, x: &Self);

    /// `self *= alpha` (real scale).
    fn scale(&mut self, alpha: f64);

    /// Fused `self += alpha · x; ‖self‖²` in one sweep.
    fn axpy_norm_sqr(&mut self, alpha: Self::Scalar, x: &Self) -> f64;

    /// Blocked multi-dot: `out[b] = ⟨vs[b], w⟩`, sweeping `w` once.
    fn multi_dot(vs: &[Self], w: &Self) -> Vec<Self::Scalar>;

    /// Blocked multi-update: `w += Σ_b coeffs[b] · vs[b]`, sweeping `w`
    /// once; per element the additions run in ascending `b` order.
    fn multi_axpy(coeffs: &[Self::Scalar], vs: &[Self], w: &mut Self);

    /// [`Self::multi_axpy`] fused with `‖w‖²` of the result.
    fn multi_axpy_norm_sqr(coeffs: &[Self::Scalar], vs: &[Self], w: &mut Self) -> f64;

    /// [`Self::multi_axpy`] fused with the [`Self::multi_dot`] of the
    /// result against the same `vs` — one sweep over the basis where the
    /// two calls make two, bit-identical to them.
    fn multi_axpy_dot(coeffs: &[Self::Scalar], vs: &[Self], w: &mut Self) -> Vec<Self::Scalar>;

    /// Overwrites `vs[r]` with `Σ_j rows[r][j] · vs[j]` for every
    /// `r < rows.len()`, in one sweep and without a second set of
    /// vectors; per element it is [`Self::multi_axpy`] of row `r` into a
    /// zero vector, to the bit. `vs[rows.len()..]` keep their content.
    fn combine_in_place(rows: &[Vec<Self::Scalar>], vs: &mut [Self]);
}

impl<S: Scalar> KrylovVec for Vec<S> {
    type Scalar = S;

    const STORAGE_KIND: u32 = 1;

    fn len(&self) -> usize {
        <[S]>::len(self)
    }

    fn layout(&self) -> Vec<usize> {
        vec![<[S]>::len(self)]
    }

    fn visit(&self, f: &mut dyn FnMut(S)) {
        self.iter().for_each(|&x| f(x));
    }

    fn fill_with(&mut self, f: &mut dyn FnMut(usize) -> S) {
        for (i, x) in self.iter_mut().enumerate() {
            *x = f(i);
        }
    }

    fn dot(&self, other: &Self) -> S {
        op::par_dot(self, other)
    }

    fn norm_sqr(&self) -> f64 {
        op::par_norm_sqr(self)
    }

    fn axpy(&mut self, alpha: S, x: &Self) {
        op::par_axpy(alpha, x, self);
    }

    fn scale(&mut self, alpha: f64) {
        op::par_scale(self, alpha);
    }

    fn axpy_norm_sqr(&mut self, alpha: S, x: &Self) -> f64 {
        op::par_axpy_norm_sqr(alpha, x, self)
    }

    fn multi_dot(vs: &[Self], w: &Self) -> Vec<S> {
        op::par_multi_dot(vs, w)
    }

    fn multi_axpy(coeffs: &[S], vs: &[Self], w: &mut Self) {
        op::par_multi_axpy(coeffs, vs, w);
    }

    fn multi_axpy_norm_sqr(coeffs: &[S], vs: &[Self], w: &mut Self) -> f64 {
        op::par_multi_axpy_norm_sqr(coeffs, vs, w)
    }

    fn multi_axpy_dot(coeffs: &[S], vs: &[Self], w: &mut Self) -> Vec<S> {
        op::par_multi_axpy_dot(coeffs, vs, w)
    }

    fn combine_in_place(rows: &[Vec<S>], vs: &mut [Self]) {
        op::par_combine_in_place(rows, vs.iter_mut().map(Vec::as_mut_slice).collect());
    }
}

/// The one shape of a distributed primitive: `kernel(w, l)` runs the
/// shared-memory kernel on part `l` and returns its `m` scalar partials
/// (`m = 0` for a pure update). The parts this process hosts — all of
/// them in process, the one authoritative part under the multiprocess
/// transport — run in locale order, their partials add up in that
/// order, and [`collective::allreduce`] combines the processes' sums in
/// rank order: the same `0 + p₀ + p₁ + …` on both backends. An update
/// issues no collective.
///
/// Every vector in `others` must have `w`'s layout. That is asserted
/// here, in every build profile: zipping parts of different lengths
/// would otherwise return a plausible number.
fn per_part<'a, S: Scalar, A: Scalar, W: Borrow<DistVec<S>>>(
    mut w: W,
    others: impl IntoIterator<Item = &'a DistVec<S>>,
    m: usize,
    mut kernel: impl FnMut(&mut W, usize) -> Vec<A>,
) -> Vec<A> {
    let layout = w.borrow().parts();
    for other in others {
        assert!(
            layout.iter().map(Vec::len).eq(other.parts().iter().map(Vec::len)),
            "distributed BLAS-1 on mismatched layouts"
        );
    }
    let mut out = vec![A::ZERO; m];
    for l in collective::hosted(w.borrow().n_locales()) {
        for (acc, partial) in out.iter_mut().zip(kernel(&mut w, l)) {
            *acc += partial;
        }
    }
    collective::allreduce(out)
}

/// Part `l` of every vector in `vs`.
fn parts_of<S>(vs: &[DistVec<S>], l: usize) -> Vec<&[S]> {
    vs.iter().map(|v| v.part(l)).collect()
}

/// The distributed implementation: every primitive is the shared-memory
/// kernel applied per locale part (`per_part`). No part ever leaves
/// its locale. Under the multiprocess transport the replica's remote
/// parts are left untouched by the update primitives; only
/// [`KrylovVec::visit`] re-assembles the global vector
/// ([`collective::for_each_global`]), which is what checkpointing
/// consumes.
impl<S: Scalar> KrylovVec for DistVec<S> {
    type Scalar = S;

    const STORAGE_KIND: u32 = 2;

    fn len(&self) -> usize {
        self.total_len()
    }

    fn layout(&self) -> Vec<usize> {
        self.lens()
    }

    fn visit(&self, f: &mut dyn FnMut(S)) {
        // Every rank streams the identical canonical vector, so
        // checkpoints written from it agree.
        collective::for_each_global(self, f);
    }

    fn fill_with(&mut self, f: &mut dyn FnMut(usize) -> S) {
        // Multiprocess included: every rank fills the full replica — the
        // stream is deterministic, so all ranks agree and each rank's own
        // part comes out authoritative.
        let mut i = 0usize;
        for part in self.parts_mut() {
            for x in part.iter_mut() {
                *x = f(i);
                i += 1;
            }
        }
    }

    fn dot(&self, other: &Self) -> S {
        per_part(self, Some(other), 1, |a, l| vec![op::par_dot(a.part(l), other.part(l))])[0]
    }

    fn norm_sqr(&self) -> f64 {
        per_part(self, None, 1, |a, l| vec![op::par_norm_sqr(a.part(l))])[0]
    }

    fn axpy(&mut self, alpha: S, x: &Self) {
        per_part(self, Some(x), 0, |y, l| -> Vec<f64> {
            op::par_axpy(alpha, x.part(l), y.part_mut(l));
            Vec::new()
        });
    }

    fn scale(&mut self, alpha: f64) {
        per_part(self, None, 0, |y, l| -> Vec<f64> {
            op::par_scale(y.part_mut(l), alpha);
            Vec::new()
        });
    }

    fn axpy_norm_sqr(&mut self, alpha: S, x: &Self) -> f64 {
        per_part(self, Some(x), 1, |y, l| {
            vec![op::par_axpy_norm_sqr(alpha, x.part(l), y.part_mut(l))]
        })[0]
    }

    fn multi_dot(vs: &[Self], w: &Self) -> Vec<S> {
        per_part(w, vs, vs.len(), |w, l| op::par_multi_dot(&parts_of(vs, l), w.part(l)))
    }

    fn multi_axpy(coeffs: &[S], vs: &[Self], w: &mut Self) {
        per_part(w, vs, 0, |w, l| -> Vec<f64> {
            op::par_multi_axpy(coeffs, &parts_of(vs, l), w.part_mut(l));
            Vec::new()
        });
    }

    fn multi_axpy_norm_sqr(coeffs: &[S], vs: &[Self], w: &mut Self) -> f64 {
        per_part(w, vs, 1, |w, l| {
            vec![op::par_multi_axpy_norm_sqr(coeffs, &parts_of(vs, l), w.part_mut(l))]
        })[0]
    }

    fn multi_axpy_dot(coeffs: &[S], vs: &[Self], w: &mut Self) -> Vec<S> {
        per_part(w, vs, vs.len(), |w, l| {
            op::par_multi_axpy_dot(coeffs, &parts_of(vs, l), w.part_mut(l))
        })
    }

    /// Part by part on the parts this process hosts; an update, so no
    /// collective (`per_part` has one target vector, this has many).
    fn combine_in_place(rows: &[Vec<S>], vs: &mut [Self]) {
        let Some(first) = vs.first() else { return };
        let lens = first.lens();
        assert!(
            vs.iter().all(|v| v.lens() == lens),
            "distributed BLAS-1 on mismatched layouts"
        );
        for l in collective::hosted(lens.len()) {
            let parts = vs.iter_mut().map(|v| v.part_mut(l).as_mut_slice()).collect();
            op::par_combine_in_place(rows, parts);
        }
    }
}

/// A linear operator over an abstract Krylov vector type.
///
/// This is what the generic solvers ([`crate::restart::thick_restart_lanczos_in`],
/// [`crate::expm::evolve_real_time`], ...) are written against. The
/// slice-based [`LinearOp`] gets a blanket implementation for
/// `V = Vec<S>`, so every existing operator works unchanged; distributed
/// operators implement this directly for `DistVec<S>` and run their
/// products in place on the parts.
pub trait KrylovOp<V: KrylovVec> {
    /// Dimension of the (square) operator — `V::len` of its vectors.
    fn dim(&self) -> usize;

    /// Allocates a zero vector in this operator's layout — the solvers'
    /// only source of vectors. The eigen-recurrence
    /// ([`crate::restart`]) calls it once per vector of its first cycle
    /// (start vector, workspace, one per chain step) and then no more:
    /// later cycles, compression and Ritz-vector assembly run on the
    /// vectors the first cycle allocated (a breakdown re-seed may take
    /// a few more). The plain factorization behind the
    /// propagators and the spectral continued fraction calls it once and
    /// grows its chain by cloning that workspace.
    fn new_vec(&self) -> V;

    /// Computes `y = A x` in place on `y`'s storage. `y` arrives with
    /// arbitrary content — the recurrence hands in whatever vector its
    /// last compression left over, never a fresh zero vector — and must
    /// be overwritten in full (`tests/apply_contract.rs`).
    fn apply(&self, x: &V, y: &mut V);

    /// Computes `y = A x` and returns `⟨x, y⟩` — the matvec+dot of a
    /// Lanczos iteration. Implementations override it when they can
    /// accumulate the inner product while the freshly written output is
    /// still cache-resident (the shared-memory engine; distributed, the
    /// dot is 0.3 % of a product and this default stands).
    fn apply_dot(&self, x: &V, y: &mut V) -> V::Scalar {
        self.apply(x, y);
        x.dot(y)
    }

    /// True when the operator is Hermitian. The Krylov solvers require it.
    fn is_hermitian(&self) -> bool {
        true
    }

    /// A no-op the solver never calls: a detected corruption ends the
    /// solve, and the caller (or the multiprocess supervisor) resumes
    /// from the newest checkpoint. It stays only because
    /// `benchmark/src/surface.rs` forwards it.
    fn recover(&self) {}
}

/// Every slice-based operator is a Krylov operator over `Vec<S>`,
/// including its fused `apply_dot` override (e.g. the batched-pull
/// matvec+dot of `ls-core`).
impl<S: Scalar, Op: LinearOp<S> + ?Sized> KrylovOp<Vec<S>> for Op {
    fn dim(&self) -> usize {
        LinearOp::dim(self)
    }

    fn new_vec(&self) -> Vec<S> {
        vec![S::ZERO; LinearOp::dim(self)]
    }

    fn apply(&self, x: &Vec<S>, y: &mut Vec<S>) {
        LinearOp::apply(self, x, y);
    }

    fn apply_dot(&self, x: &Vec<S>, y: &mut Vec<S>) -> S {
        LinearOp::apply_dot(self, x, y)
    }

    fn is_hermitian(&self) -> bool {
        LinearOp::is_hermitian(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_kernels::Complex64;

    fn ramp(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| ((i % 89) as f64 - 44.0) * scale).collect()
    }

    /// Splits a dense vector into parts of the given lengths.
    fn split<T: Clone>(v: &[T], lens: &[usize]) -> DistVec<T> {
        let mut parts = Vec::new();
        let mut lo = 0usize;
        for &len in lens {
            parts.push(v[lo..lo + len].to_vec());
            lo += len;
        }
        assert_eq!(lo, v.len());
        DistVec::from_parts(parts)
    }

    #[test]
    fn dist_primitives_agree_with_dense() {
        let n = 3 * op::REDUCE_BLOCK + 137;
        let lens = [op::REDUCE_BLOCK + 1, 0, n - op::REDUCE_BLOCK - 1 - 500, 500];
        let a = ramp(n, 1e-3);
        let b = ramp(n, -7e-4);
        let da = split(&a, &lens);
        let db = split(&b, &lens);
        let tol = 1e-12 * n as f64;
        assert!((KrylovVec::dot(&da, &db) - op::dot(&a, &b)).abs() <= tol);
        assert!((da.norm_sqr() - op::norm_sqr(&a)).abs() <= tol);

        let mut y = db.clone();
        y.axpy(0.37, &da);
        let mut y_ref = b.clone();
        op::axpy(0.37, &a, &mut y_ref);
        assert_eq!(y.concat(), y_ref, "axpy");
        y.scale(0.25);
        op::scale(&mut y_ref, 0.25);
        assert_eq!(y.concat(), y_ref, "scale");

        let mut y = db.clone();
        let fused = y.axpy_norm_sqr(-0.11, &da);
        let mut y_ref = b.clone();
        op::axpy(-0.11, &a, &mut y_ref);
        assert_eq!(y.concat(), y_ref, "fused axpy");
        assert!((fused - op::norm_sqr(&y_ref)).abs() <= tol, "fused norm");
    }

    #[test]
    fn dist_multi_kernels_agree_with_loops() {
        let n = 2 * op::REDUCE_BLOCK + 33;
        let lens = [17usize, n - 17 - 1000, 0, 1000];
        let w = ramp(n, 5e-4);
        let vs: Vec<Vec<f64>> = (0..5).map(|k| ramp(n, 1e-3 * (k + 1) as f64)).collect();
        let dw = split(&w, &lens);
        let dvs: Vec<DistVec<f64>> = vs.iter().map(|v| split(v, &lens)).collect();

        let coeffs = KrylovVec::multi_dot(&dvs, &dw);
        for (b, v) in vs.iter().enumerate() {
            let expect = op::dot(v, &w);
            assert!((coeffs[b] - expect).abs() <= 1e-12 * n as f64, "lane {b}");
        }

        let mut out = dw.clone();
        DistVec::multi_axpy(&coeffs, &dvs, &mut out);
        let mut out_ref = w.clone();
        for i in 0..n {
            for (b, v) in vs.iter().enumerate() {
                out_ref[i] += coeffs[b] * v[i];
            }
        }
        assert_eq!(out.concat(), out_ref, "multi-axpy");

        let mut out2 = dw.clone();
        let fused = DistVec::multi_axpy_norm_sqr(&coeffs, &dvs, &mut out2);
        assert_eq!(out2.concat(), out_ref, "fused multi-axpy update");
        assert!((fused - op::norm_sqr(&out_ref)).abs() <= 1e-10 * n as f64, "fused norm");
    }

    #[test]
    fn dist_fused_kernels_match_split_pairs_bitwise() {
        let lens = [3usize, 0, 4];
        let mk = |seed: f64| {
            let v: Vec<f64> = (0..7).map(|i| (i as f64 * seed).sin()).collect();
            split(&v, &lens)
        };
        let x = mk(0.7);
        let y0 = mk(-1.3);
        let vs = [mk(0.31), mk(0.57)];

        let mut y1 = y0.clone();
        let fused = y1.axpy_norm_sqr(0.37, &x);
        let mut y2 = y0.clone();
        y2.axpy(0.37, &x);
        assert_eq!(y1, y2);
        assert_eq!(fused.to_bits(), y2.norm_sqr().to_bits());

        let coeffs = DistVec::multi_dot(&vs, &x);
        for (b, v) in vs.iter().enumerate() {
            assert_eq!(coeffs[b].to_bits(), KrylovVec::dot(v, &x).to_bits(), "lane {b}");
        }
        let mut w1 = y0.clone();
        let fused = DistVec::multi_axpy_norm_sqr(&coeffs, &vs, &mut w1);
        let mut w2 = y0.clone();
        DistVec::multi_axpy(&coeffs, &vs, &mut w2);
        assert_eq!(w1, w2);
        assert_eq!(fused.to_bits(), w2.norm_sqr().to_bits());
    }

    #[test]
    fn fill_order_is_global_element_order() {
        let mut dense = vec![0.0f64; 23];
        let mut dist = DistVec::<f64>::zeros(&[5, 0, 11, 7]);
        let mut k = 0;
        KrylovVec::fill_with(&mut dense, &mut |i| i as f64 * 0.5);
        KrylovVec::fill_with(&mut dist, &mut |i| {
            assert_eq!(i, k, "fill must visit ascending global order");
            k += 1;
            i as f64 * 0.5
        });
        assert_eq!(dist.concat(), dense);
    }

    #[test]
    fn blanket_krylov_op_matches_linear_op() {
        let a = crate::op::DenseOp::new(2, vec![1.0, 2.0, 3.0, 4.0]);
        let x = vec![1.0, 1.0];
        let mut y = KrylovOp::<Vec<f64>>::new_vec(&a);
        assert_eq!(y, vec![0.0, 0.0]);
        let d = KrylovOp::apply_dot(&a, &x, &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
        assert_eq!(d, 10.0);
        assert_eq!(KrylovOp::<Vec<f64>>::dim(&a), 2);
        assert!(KrylovOp::<Vec<f64>>::is_hermitian(&a));
    }

    #[test]
    fn complex_dist_dot_conjugates_left() {
        let a = DistVec::from_parts(vec![vec![Complex64::new(0.0, 1.0)], vec![]]);
        assert!(KrylovVec::dot(&a, &a).approx_eq(Complex64::ONE, 1e-15));
    }
}
