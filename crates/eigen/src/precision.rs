//! Mixed-precision Krylov mode: f32 vector storage, f64 arithmetic.
//!
//! The thick-restart solver is bandwidth-bound on its Krylov state (the
//! paper's central measurement), so halving the bytes per stored lane
//! halves the traffic of every BLAS-1 sweep and every reorthogonalization
//! pass. The storage for that trade is not a type of its own: the
//! solvers run on any [`KrylovVec`], and `Vec<f32>` / `DistVec<f32>` are
//! the same two implementations as their f64 counterparts, instantiated
//! at the `f32` [`ls_kernels::Lane`] — elements *stored* in f32, **all
//! arithmetic in f64**: every product widens both operands, every
//! reduction accumulates f64 partials over the same fixed
//! [`op::REDUCE_BLOCK`] partition and [`op::pairwise_sum`] tree, and only
//! the final store narrows. Results are therefore bit-identical across
//! thread counts and machines, exactly like f64 storage — the
//! *mode* changes results (f32 rounding on store), never the machine
//! shape. Checkpoints of such a solve carry 4-byte lanes (storage kinds
//! 3 and 4), and a distributed vector's allgather frames are 4 bytes per
//! lane too. What this module adds on top:
//!
//! * [`MixedOp`] — adapts any f64 [`LinearOp`] to `KrylovOp<Vec<f32>>` by
//!   widening the input vector, applying in f64, and narrowing the
//!   output.
//! * [`refine_in_f64`] — one step of iterative refinement: a
//!   Rayleigh–Ritz pass in full f64 over the widened f32 Ritz basis.
//!   For a Hermitian operator the Ritz values of the refined subspace
//!   carry an `O(‖r‖²)` eigenvalue error, which is what lets an f32
//!   subspace (residuals ~1e-6·‖H‖) deliver eigenvalues at f64 solver
//!   tolerance (~1e-12·‖H‖).
//! * [`eigensolve_precision`] — the routing entry for real (f64)
//!   operators, selected by a [`Precision`]; `LS_PRECISION` reaches it
//!   as `eigensolve_precision(op, opts, Precision::from_env())`:
//!
//!   * `f64` (default) — the ordinary double-precision solve;
//!   * `f32` — f32 storage end to end, eigenvalues at f32 accuracy;
//!   * `mixed` — f32 storage for the Krylov loop plus one f64 refinement
//!     pass at the end.
//!
//! Complex sectors have no reduced-width path (Jordan–Wigner phases and
//! momentum characters keep full width).

use crate::lanczos::LanczosResultIn;
use crate::op::{self, LinearOp};
use crate::restart::{thick_restart_lanczos_in, RestartOptions};
use crate::vector::{KrylovOp, KrylovVec};
use std::cell::RefCell;
use std::sync::OnceLock;

/// The precision mode of a Krylov solve (`LS_PRECISION`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Precision {
    /// f64 storage and arithmetic (the default).
    F64,
    /// f32 storage, f64 arithmetic, no refinement: eigenvalues at f32
    /// accuracy in half the vector memory.
    F32,
    /// f32 storage for the Krylov loop, one f64 Rayleigh–Ritz refinement
    /// at the end: f64-tolerance eigenvalues in half the loop memory. The
    /// loop runs to a residual of at most 1e-7 of the spectral scale, even
    /// when `tol` is looser, so the refinement has a residual to square.
    Mixed,
}

impl Precision {
    /// Reads `LS_PRECISION` (cached; `f64|f32|mixed`, default `f64`).
    pub fn from_env() -> Self {
        static MODE: OnceLock<Precision> = OnceLock::new();
        *MODE.get_or_init(|| {
            let mode = std::env::var("LS_PRECISION").unwrap_or_else(|_| "f64".into());
            match mode.as_str() {
                "f64" => Precision::F64,
                "f32" => Precision::F32,
                "mixed" => Precision::Mixed,
                other => panic!("LS_PRECISION={other:?} is not one of f64|f32|mixed"),
            }
        })
    }
}

/// Widened copy of an f32-stored vector (exact).
pub(crate) fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// Adapts an f64 [`LinearOp`] to `KrylovOp<Vec<f32>>`: widen the input,
/// apply in full f64, narrow the output. The matvec itself never runs in
/// reduced precision — only the Krylov *state* between matvecs is f32.
pub struct MixedOp<'a, Op: LinearOp<f64> + ?Sized> {
    inner: &'a Op,
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a, Op: LinearOp<f64> + ?Sized> MixedOp<'a, Op> {
    pub fn new(inner: &'a Op) -> Self {
        Self { inner, scratch: RefCell::new((Vec::new(), Vec::new())) }
    }
}

impl<Op: LinearOp<f64> + ?Sized> KrylovOp<Vec<f32>> for MixedOp<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn new_vec(&self) -> Vec<f32> {
        vec![0.0f32; self.inner.dim()]
    }

    fn apply(&self, x: &Vec<f32>, y: &mut Vec<f32>) {
        let (xw, yw) = &mut *self.scratch.borrow_mut();
        xw.clear();
        xw.extend(x.iter().map(|&v| v as f64));
        yw.clear();
        yw.resize(xw.len(), 0.0);
        self.inner.apply(xw, yw);
        y.clear();
        y.extend(yw.iter().map(|&v| v as f32));
    }

    fn apply_dot(&self, x: &Vec<f32>, y: &mut Vec<f32>) -> f64 {
        // The fused dot must be the dot of the *stored* (narrowed) `y`,
        // or the Lanczos α would disagree with what a recomputation from
        // storage yields and a checkpoint resume could diverge.
        self.apply(x, y);
        x.dot(y)
    }

    fn is_hermitian(&self) -> bool {
        self.inner.is_hermitian()
    }
}

/// One step of iterative refinement: Rayleigh–Ritz in full f64 on the
/// span of the (widened) f32 Ritz basis. Returns `(eigenvalues,
/// eigenvectors, residuals)`, ascending, one entry per basis vector.
///
/// For a Hermitian `A`, Ritz values extracted from a subspace carrying
/// residual `‖r‖` have `O(‖r‖²)` eigenvalue error — the f32 subspace's
/// ~1e-7 relative residuals land the refined eigenvalues at ~1e-14
/// relative error, i.e. f64 solver tolerance, for the cost of `k` f64
/// matvecs.
pub fn refine_in_f64<Op: LinearOp<f64> + ?Sized>(
    op: &Op,
    basis32: &[Vec<f32>],
) -> (Vec<f64>, Vec<Vec<f64>>, Vec<f64>) {
    let k = basis32.len();
    assert!(k >= 1, "refinement needs at least one Ritz vector");
    let mut basis: Vec<Vec<f64>> = basis32.iter().map(|v| widen(v)).collect();
    // Orthonormalize the widened basis (CGS2: two projection passes).
    for i in 0..k {
        for _pass in 0..2 {
            let (head, tail) = basis.split_at_mut(i);
            let v = &mut tail[0];
            if i > 0 {
                let mut coeffs = op::par_multi_dot(head, v);
                for c in coeffs.iter_mut() {
                    *c = -*c;
                }
                op::par_multi_axpy(&coeffs, head, v);
            }
        }
        let norm = op::par_norm_sqr(&basis[i]).sqrt();
        assert!(norm > 0.0, "refinement basis is rank-deficient");
        op::par_scale(&mut basis[i], 1.0 / norm);
    }
    // Projected matrix H[i][j] = ⟨v_i, A v_j⟩ from k full-precision
    // matvecs (keep the products for residuals).
    let mut av: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut h = vec![0.0f64; k * k];
    for j in 0..k {
        let mut w = vec![0.0f64; basis[j].len()];
        op.apply(&basis[j], &mut w);
        for (i, hij) in op::par_multi_dot(&basis, &w).into_iter().enumerate() {
            h[i * k + j] = hij;
        }
        av.push(w);
    }
    // Symmetrize against matvec round-off before the Jacobi solve.
    for i in 0..k {
        for j in (i + 1)..k {
            let s = 0.5 * (h[i * k + j] + h[j * k + i]);
            h[i * k + j] = s;
            h[j * k + i] = s;
        }
    }
    let (vals, rots) = crate::jacobi::eigh_real(&h, k);
    // Assemble refined eigenvectors and their true residuals.
    let mut vecs = Vec::with_capacity(k);
    let mut residuals = Vec::with_capacity(k);
    for (e, rot) in rots.iter().enumerate() {
        let mut x = vec![0.0f64; basis[0].len()];
        op::par_multi_axpy(rot, &basis, &mut x);
        let mut r = vec![0.0f64; x.len()];
        op::par_multi_axpy(rot, &av, &mut r); // r = A x
        op::par_axpy(-vals[e], &x, &mut r); // r -= λ x
        residuals.push(op::par_norm_sqr(&r).sqrt());
        vecs.push(x);
    }
    (vals, vecs, residuals)
}

/// The same result over another vector storage.
fn map_vectors<V, U>(r: LanczosResultIn<V>, f: impl Fn(&V) -> U) -> LanczosResultIn<U> {
    LanczosResultIn {
        eigenvalues: r.eigenvalues,
        eigenvectors: r.eigenvectors.map(|vs| vs.iter().map(f).collect()),
        iterations: r.iterations,
        residuals: r.residuals,
        converged: r.converged,
        peak_retained: r.peak_retained,
        rollbacks: r.rollbacks,
    }
}

/// The loosest residual tolerance the f32 loop of [`Precision::Mixed`]
/// runs to. The refined eigenvalue error is about the square of the
/// loop's residual over the spectral gap, so a loop stopped at a loose
/// `tol` — say 1e-6 of a spectral scale of 300 — would hand the
/// refinement errors of 1e-9 and more; 1e-7, near the f32 unit roundoff,
/// keeps them at f64 accuracy. Tighter tolerances pass through.
const MIXED_LOOP_TOL: f64 = 1e-7;

/// Precision-routed thick-restart eigensolve for real (f64) operators.
/// The reduced modes run the solver on `Vec<f32>` through [`MixedOp`]
/// (their checkpoints carry 4-byte lanes); eigenvectors come back
/// widened to f64 in every mode.
pub fn eigensolve_precision<Op: LinearOp<f64> + ?Sized>(
    op: &Op,
    opts: &RestartOptions,
    precision: Precision,
) -> LanczosResultIn<Vec<f64>> {
    match precision {
        Precision::F64 => thick_restart_lanczos_in::<Vec<f64>, Op>(op, opts),
        Precision::F32 => {
            map_vectors(thick_restart_lanczos_in(&MixedOp::new(op), opts), |v| widen(v))
        }
        Precision::Mixed => {
            // The f32 pass must return its Ritz basis for refinement, with
            // a residual the refinement can square into f64 accuracy.
            let tol = opts.tol.min(MIXED_LOOP_TOL);
            let inner = RestartOptions { want_vectors: true, tol, ..opts.clone() };
            let mut r = thick_restart_lanczos_in(&MixedOp::new(op), &inner);
            let basis32 = r.eigenvectors.take().expect("want_vectors was set");
            let (vals, vecs, residuals) = refine_in_f64(op, &basis32);
            LanczosResultIn {
                eigenvalues: vals,
                eigenvectors: opts.want_vectors.then_some(vecs),
                iterations: r.iterations + basis32.len(),
                residuals,
                ..map_vectors(r, |v| widen(v))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DenseOp;
    use crate::restart::RestartOptions;

    /// Symmetric test matrix with a well-separated low end (row-major).
    fn test_matrix(n: usize) -> Vec<f64> {
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = i as f64 - 0.3 * n as f64;
            if i + 1 < n {
                a[i * n + i + 1] = 0.7;
                a[(i + 1) * n + i] = 0.7;
            }
            if i + 3 < n {
                a[i * n + i + 3] = -0.2;
                a[(i + 3) * n + i] = -0.2;
            }
        }
        a
    }

    fn test_op(n: usize) -> DenseOp<f64> {
        DenseOp::new(n, test_matrix(n))
    }

    #[test]
    fn env_default_is_f64() {
        // The suite does not set LS_PRECISION, so the cached mode is the
        // default (other tests pass precision explicitly).
        assert_eq!(Precision::from_env(), Precision::F64);
    }

    #[test]
    fn f32_storage_reaches_f32_accuracy() {
        let op = test_op(400);
        let opts = RestartOptions { tol: 1e-6, ..RestartOptions::new(3) };
        let exact = thick_restart_lanczos_in::<Vec<f64>, _>(&op, &RestartOptions::new(3));
        let r32 = eigensolve_precision(&op, &opts, Precision::F32);
        for (a, b) in r32.eigenvalues.iter().zip(&exact.eigenvalues) {
            assert!((a - b).abs() <= 1e-3, "f32 eigenvalue {a} vs f64 {b}");
        }
    }

    #[test]
    fn mixed_mode_reaches_f64_tolerance() {
        // The reference is the dense spectrum, not an f64 solve: without
        // vectors that one stops on the eigenvalue estimate `tol·|θ|`,
        // looser than the 1e-9 asked of the refinement here.
        let n = 400;
        let (exact, _) = crate::jacobi::eigh_real(&test_matrix(n), n);
        let opts = RestartOptions { tol: 1e-6, want_vectors: true, ..RestartOptions::new(3) };
        let rm = eigensolve_precision(&test_op(n), &opts, Precision::Mixed);
        for (a, b) in rm.eigenvalues.iter().zip(&exact) {
            assert!((a - b).abs() <= 1e-9, "refined eigenvalue {a} vs dense {b}");
        }
        // Residuals of the refined pairs are genuinely small in f64.
        for r in &rm.residuals {
            assert!(*r <= 1e-4, "refined residual {r}");
        }
    }
}
