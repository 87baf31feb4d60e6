//! The Lanczos step and the iteration-count front end — generic over the
//! Krylov vector storage.
//!
//! Plain three-term Lanczos loses orthogonality in floating point (ghost
//! eigenvalues); since our Krylov dimensions are modest (≲ a few hundred)
//! every new vector is reorthogonalized against all retained ones, twice
//! ("twice is enough", Kahan–Parlett), as *blocked* classical
//! Gram–Schmidt in **three sweeps** over the basis: `cgs2_beta` takes the
//! first pass's coefficients at a go ([`KrylovVec::multi_dot`]), applies
//! them and takes the second pass's from the updated vector while each
//! tile of it is resident ([`KrylovVec::multi_axpy_dot`]), and fuses the
//! second update with the β norm ([`KrylovVec::multi_axpy_norm_sqr`]) —
//! always two passes; skipping the second when the first removed little
//! (DGKS) would change trajectories and is not done. With the fused
//! matvec+dot ([`KrylovOp::apply_dot`]: `α_j` falls out of the product)
//! that is one Lanczos step. On `Vec<S>` it lowers to the kernels of
//! [`crate::op`] (bit-identical for any `LS_NUM_THREADS`); on
//! `DistVec<S>` it runs in place on the locale parts, one `allreduce`
//! per sweep.
//!
//! The eigen-recurrence built from that step exists once, in
//! [`crate::restart`]; [`crate::expm`] and [`crate::spectral`] use the
//! plain `krylov_factorization` here. [`lanczos_smallest_in`] is not a
//! second loop: it translates an iteration cap and a vector budget
//! ([`LanczosOptions`]) into that recurrence's plan, and unrestarted
//! Lanczos is the plan whose single cycle may reach `min(max_iter, dim)`
//! vectors.

use crate::restart::{run_plan, split_budget, CheckpointPolicy, RestartOptions};
use crate::vector::{KrylovOp, KrylovVec};
use crate::LinearOp;
use ls_kernels::Scalar;
use rand::rngs::StdRng;
use rand::Rng;

/// Options for [`lanczos_smallest`].
#[derive(Clone, Debug)]
pub struct LanczosOptions {
    /// Maximum Krylov dimension of a cycle, and the work bound of the
    /// solve: a restarted plan is granted ~4× as many products.
    pub max_iter: usize,
    /// Convergence threshold, with the meaning of
    /// [`RestartOptions::tol`]: on each wanted Ritz residual estimate
    /// `|β_m · y_m[k]|` relative to the spectral scale when Ritz vectors
    /// are wanted, on the eigenvalue error estimate of the wanted set
    /// relative to `max(1, |θ|)` (the gap rule of [`crate::restart`])
    /// when they are not.
    pub tol: f64,
    /// Seed for the random start vector (deterministic by default).
    pub seed: u64,
    /// Compute Ritz vectors?
    pub want_vectors: bool,
    /// Memory budget: the most Krylov-state vectors (basis and
    /// workspace) the solve may hold. When `min(max_iter, dim) + 1`
    /// vectors (`+ k` with `want_vectors`) fit, the solve is a single
    /// cycle that keeps every Krylov vector; otherwise its cycles are cut
    /// to the budget and joined by thick restarts, as
    /// [`crate::restart::thick_restart_lanczos_in`] does with
    /// `extra = max_retained - k` — so a budget below `2k + 3` that the
    /// iteration cap does not fit is rejected, not ignored. The plan is
    /// still cut as if compression and Ritz-vector assembly needed
    /// vectors of their own; both run in place now, so a solve peaks at
    /// its chain length + 1 ([`LanczosResultIn::peak_retained`]), below
    /// the budget.
    pub max_retained: usize,
    /// Checkpoint/restart policy. Checkpoints are written at restart
    /// boundaries, so a solve that fits its budget in a single cycle
    /// never writes one.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        Self {
            max_iter: 300,
            tol: 1e-10,
            seed: 0x5eed,
            want_vectors: false,
            max_retained: 128,
            checkpoint: None,
        }
    }
}

/// Result of a Lanczos run over vector storage `V` (eigenvectors come
/// back in the same storage the solver iterated on — a distributed solve
/// yields distributed Ritz vectors).
#[derive(Clone, Debug)]
pub struct LanczosResultIn<V> {
    /// The `k` smallest Ritz values, ascending.
    pub eigenvalues: Vec<f64>,
    /// Ritz vectors (if requested), aligned with `eigenvalues`.
    pub eigenvectors: Option<Vec<V>>,
    /// Matrix-vector products performed by this call: the Krylov
    /// dimension of a single-cycle solve, the sum over cycles of a
    /// restarted one.
    pub iterations: usize,
    /// Final Ritz residual estimates `|β·y_i[m-1]|` per returned
    /// eigenvalue. A solve that wants no Ritz vectors stops on the gap
    /// rule of [`crate::restart`], so its residuals may exceed `tol`: the
    /// eigenvalue error is about their square over the gap.
    pub residuals: Vec<f64>,
    /// Did the `k` wanted pairs meet the tolerance, by the rule
    /// `want_vectors` selects (residual rule with vectors, gap rule
    /// without)?
    pub converged: bool,
    /// High-water mark of simultaneously held Krylov-state vectors
    /// (basis + workspace + vectors kept for reuse; compression and
    /// Ritz-vector assembly hold none of their own) — the solver's
    /// memory footprint in units of one state vector: the longest
    /// cycle's chain + 1.
    pub peak_retained: usize,
}

/// Result of a shared-memory (slice-backed) Lanczos run.
pub type LanczosResult<S> = LanczosResultIn<Vec<S>>;

/// Computes the `k` smallest eigenpairs of a Hermitian operator on dense
/// shared-memory vectors. Thin wrapper over [`lanczos_smallest_in`] with
/// `V = Vec<S>`.
///
/// # Panics
/// As [`lanczos_smallest_in`].
pub fn lanczos_smallest<S: Scalar, Op: LinearOp<S> + ?Sized>(
    op: &Op,
    k: usize,
    opts: &LanczosOptions,
) -> LanczosResult<S> {
    lanczos_smallest_in::<Vec<S>, Op>(op, k, opts)
}

/// Computes the `k` smallest eigenpairs of a Hermitian operator, running
/// the whole recurrence in place on the operator's vector storage.
///
/// A translation, not a solver: `(k, opts)` becomes a plan for the one
/// recurrence in [`crate::restart`], a single cycle or restarted ones as
/// [`LanczosOptions::max_retained`] describes.
///
/// # Panics
/// Panics if `k == 0`, `k > op.dim()`, the operator reports itself
/// non-Hermitian, or `max_iter` does not fit a `max_retained` below
/// `2k + 3` (no restart cycle could make progress).
pub fn lanczos_smallest_in<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    k: usize,
    opts: &LanczosOptions,
) -> LanczosResultIn<V> {
    let n = op.dim();
    let cap = opts.max_iter.min(n).max(k + 1).min(n);
    let assembly = if opts.want_vectors { k } else { 0 };
    let (chain_cap, keep, max_restarts) = if cap + 1 + assembly <= opts.max_retained {
        (cap, None, 1)
    } else {
        // `max_iter` stays a work bound: restarting re-does some work
        // per cycle (each compression discards subspace information), so
        // grant ~4× the requested products, counted in cycles of the
        // chain length a restart leaves room for.
        let (keep, m) = split_budget(k, opts.max_retained);
        (m, Some(keep), (4 * opts.max_iter).div_ceil(m - keep).max(4))
    };
    let ropts = RestartOptions {
        k,
        extra: opts.max_retained.saturating_sub(k),
        max_restarts,
        tol: opts.tol,
        seed: opts.seed,
        want_vectors: opts.want_vectors,
        checkpoint: opts.checkpoint.clone(),
    };
    run_plan(op, &ropts, chain_cap, keep)
}

/// Two blocked CGS passes orthogonalizing `w` against `basis` in three
/// sweeps over it: the coefficients of the first pass, its update fused
/// with the coefficients of the second, and the second update fused with
/// the norm of the result — returns `β = ‖(1 - P)² w‖`. The first pass
/// subsumes the explicit three-term subtractions (`⟨v_j, w⟩` *is* α and
/// `⟨v_{j-1}, w⟩` is β up to rounding), so projecting against the whole
/// basis removes them along with every older component.
pub(crate) fn cgs2_beta<V: KrylovVec>(basis: &[V], w: &mut V) -> f64 {
    let negated = |coeffs: Vec<V::Scalar>| coeffs.into_iter().map(|c| -c).collect::<Vec<_>>();
    let c1 = negated(V::multi_dot(basis, w));
    let c2 = negated(V::multi_axpy_dot(&c1, basis, w));
    V::multi_axpy_norm_sqr(&c2, basis, w).sqrt()
}

/// Builds an orthonormal Krylov basis from `v0` (consumed — it becomes
/// the first basis vector after normalization, so callers pay exactly
/// one copy of the input state) and the projected tridiagonal matrix
/// (full blocked-CGS2 reorthogonalization, fused epilogues — the
/// factorization behind the `exp(zH)` propagators and the spectral
/// continued fraction). Returns `(basis, alphas, betas)` with
/// `basis.len() == alphas.len()` and `betas.len() + 1 == alphas.len()`.
pub(crate) fn krylov_factorization<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    mut v: V,
    m: usize,
) -> (Vec<V>, Vec<f64>, Vec<f64>) {
    let m = m.min(op.dim());
    let nv = v.norm();
    assert!(nv > 0.0, "zero start vector");
    v.scale(1.0 / nv);
    let mut basis: Vec<V> = Vec::with_capacity(m);
    basis.push(v);
    let mut alphas = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m.saturating_sub(1));
    let mut w = op.new_vec();
    for j in 0..m {
        let alpha = op.apply_dot(&basis[j], &mut w).re();
        alphas.push(alpha);
        let beta = cgs2_beta(&basis, &mut w);
        if beta <= 1e-13 || j + 1 == m {
            break;
        }
        betas.push(beta);
        w.scale(1.0 / beta);
        // `apply_dot` overwrites all of `w` (`tests/apply_contract.rs`),
        // so a fresh vector serves as the next workspace.
        basis.push(std::mem::replace(&mut w, op.new_vec()));
    }
    (basis, alphas, betas)
}

pub(crate) fn random_fill<V: KrylovVec>(v: &mut V, rng: &mut StdRng) {
    v.fill_with(&mut |_i| {
        let re: f64 = rng.gen_range(-1.0..1.0);
        let im: f64 = if V::Scalar::N_REALS == 2 { rng.gen_range(-1.0..1.0) } else { 0.0 };
        V::Scalar::from_reals([re, im])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::eigh_real;
    use crate::op::DenseOp;
    use crate::restart::thick_restart_lanczos;
    use ls_kernels::Complex64;

    fn random_symmetric(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        let mut next = move || {
            s = ls_kernels::hash64_01(s.wrapping_add(1));
            (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let x = next();
                a[i * n + j] = x;
                a[j * n + i] = x;
            }
        }
        a
    }

    #[test]
    fn matches_jacobi_on_dense_symmetric() {
        let n = 60;
        let a = random_symmetric(n, 7);
        let (expect, _) = eigh_real(&a, n);
        let op = DenseOp::new(n, a);
        let res = lanczos_smallest(
            &op,
            4,
            &LanczosOptions { max_iter: n, tol: 1e-11, ..Default::default() },
        );
        assert!(res.converged, "residuals: {:?}", res.residuals);
        for (i, (got, want)) in res.eigenvalues.iter().zip(&expect).take(4).enumerate() {
            assert!((got - want).abs() < 1e-8, "λ{i}: {got} vs {want}");
        }
    }

    #[test]
    fn ritz_vectors_have_small_residuals() {
        let n = 40;
        let a = random_symmetric(n, 99);
        let op = DenseOp::new(n, a.clone());
        let res = lanczos_smallest(
            &op,
            3,
            &LanczosOptions {
                max_iter: n,
                tol: 1e-11,
                want_vectors: true,
                ..Default::default()
            },
        );
        let vecs = res.eigenvectors.unwrap();
        for (lam, v) in res.eigenvalues.iter().zip(&vecs) {
            let mut av = vec![0.0f64; n];
            LinearOp::apply(&op, v, &mut av);
            let res_norm: f64 = av
                .iter()
                .zip(v)
                .map(|(x, y)| (x - lam * y) * (x - lam * y))
                .sum::<f64>()
                .sqrt();
            assert!(res_norm < 1e-7, "residual {res_norm}");
        }
    }

    #[test]
    fn complex_hermitian_operator() {
        // H = [[1, i], [-i, 1]] ⊗ I_10 + diagonal perturbation.
        let n = 20;
        let mut h = vec![Complex64::ZERO; n * n];
        for b in 0..10 {
            let (i, j) = (2 * b, 2 * b + 1);
            h[i * n + i] = Complex64::new(1.0 + 0.01 * b as f64, 0.0);
            h[j * n + j] = Complex64::new(1.0 + 0.01 * b as f64, 0.0);
            h[i * n + j] = Complex64::I;
            h[j * n + i] = -Complex64::I;
        }
        let expect = crate::jacobi::eigvals_hermitian(&h, n);
        let op = DenseOp::new(n, h);
        let res = lanczos_smallest(
            &op,
            3,
            &LanczosOptions { max_iter: n, tol: 1e-11, ..Default::default() },
        );
        for (got, want) in res.eigenvalues.iter().zip(&expect).take(3) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn small_dimension_edge_cases() {
        // dim == 1.
        let op = DenseOp::new(1, vec![4.2]);
        let res = lanczos_smallest(&op, 1, &LanczosOptions::default());
        assert!((res.eigenvalues[0] - 4.2).abs() < 1e-12);
        // k == dim.
        let op = DenseOp::new(3, vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0]);
        let res = lanczos_smallest(&op, 3, &LanczosOptions::default());
        assert!((res.eigenvalues[0] - 1.0).abs() < 1e-10);
        assert!((res.eigenvalues[2] - 3.0).abs() < 1e-10);
        // The restart entry point called directly, default budget, on
        // spaces smaller than one cycle of it.
        for n in [1usize, 2, 3, 5] {
            let a = random_symmetric(n, 3 + n as u64);
            let (expect, _) = eigh_real(&a, n);
            let op = DenseOp::new(n, a);
            for k in [1, n] {
                let res = thick_restart_lanczos(&op, &RestartOptions::new(k));
                assert!(res.converged && res.iterations <= n, "n = {n}, k = {k}");
                for (got, want) in res.eigenvalues.iter().zip(&expect) {
                    assert!((got - want).abs() < 1e-12, "n = {n}, k = {k}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn an_unreachable_tolerance_runs_exactly_max_iter_products() {
        // What fixed-iteration timing runs rely on: the cap fits the
        // budget, so the plan is one cycle of exactly `max_iter` products
        // holding `max_iter + 1` vectors.
        let op = DenseOp::new(60, random_symmetric(60, 7));
        let res = lanczos_smallest(
            &op,
            1,
            &LanczosOptions { max_iter: 40, tol: 1e-300, ..Default::default() },
        );
        assert!(!res.converged);
        assert_eq!((res.iterations, res.peak_retained), (40, 41));
    }

    #[test]
    #[should_panic(expected = "restart budget too small")]
    fn a_budget_the_iteration_cap_cannot_fit_is_rejected_not_ignored() {
        // 200 iterations do not fit 5 vectors, and 5 < 2k + 3 leaves no
        // room to restart: holding 201 vectors anyway is not an answer.
        let op = DenseOp::new(300, random_symmetric(300, 7));
        let _ = lanczos_smallest(
            &op,
            2,
            &LanczosOptions { max_iter: 200, max_retained: 5, ..Default::default() },
        );
    }

    #[test]
    fn degenerate_spectrum_with_restart() {
        // Two distinct eigenvalues force an invariant subspace after two
        // steps, exercising the random-restart path. The re-seeded
        // direction is orthogonalized against the whole basis (converged
        // Ritz directions included) and restarts continue until more
        // than k independent blocks were explored, so the *full
        // multiplicity* of the degenerate ground state is recovered —
        // the earlier behaviour stopped at the first k exact values and
        // could return only two copies of -1.
        let n = 30;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = if i < 3 { -1.0 } else { 2.0 };
        }
        let op = DenseOp::new(n, a);
        let res =
            lanczos_smallest(&op, 4, &LanczosOptions { max_iter: n, ..Default::default() });
        assert!((res.eigenvalues[0] + 1.0).abs() < 1e-9);
        // Every returned value is in the true spectrum {-1, 2}.
        for v in &res.eigenvalues {
            assert!(
                (v + 1.0).abs() < 1e-9 || (v - 2.0).abs() < 1e-9,
                "spurious eigenvalue {v}"
            );
        }
        // Multiplicity regression lock: exactly three copies of -1, then 2.
        let copies = res.eigenvalues.iter().filter(|v| (*v + 1.0).abs() < 1e-9).count();
        assert_eq!(copies, 3, "eigenvalues: {:?}", res.eigenvalues);
        assert!((res.eigenvalues[3] - 2.0).abs() < 1e-9);
        assert!(res.converged);
    }

    #[test]
    fn identity_operator_restarts_to_k_values() {
        let n = 10;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let op = DenseOp::new(n, a);
        let res = lanczos_smallest(&op, 3, &LanczosOptions::default());
        assert_eq!(res.eigenvalues.len(), 3);
        for v in &res.eigenvalues {
            assert!((v - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds dimension")]
    fn k_too_large_panics() {
        let op = DenseOp::new(2, vec![1.0, 0.0, 0.0, 1.0]);
        let _ = lanczos_smallest(&op, 3, &LanczosOptions::default());
    }

    /// A dense operator that hands out block-distributed vectors: drives
    /// the generic solver through the `DistVec` storage path without any
    /// cluster machinery.
    struct DistDense {
        inner: DenseOp<f64>,
        lens: Vec<usize>,
    }

    impl KrylovOp<ls_runtime::DistVec<f64>> for DistDense {
        fn dim(&self) -> usize {
            LinearOp::dim(&self.inner)
        }
        fn new_vec(&self) -> ls_runtime::DistVec<f64> {
            ls_runtime::DistVec::zeros(&self.lens)
        }
        fn apply(&self, x: &ls_runtime::DistVec<f64>, y: &mut ls_runtime::DistVec<f64>) {
            let mut dense = vec![0.0; KrylovOp::dim(self)];
            LinearOp::apply(&self.inner, &x.concat(), &mut dense);
            let mut lo = 0;
            for part in y.parts_mut() {
                let hi = lo + part.len();
                part.copy_from_slice(&dense[lo..hi]);
                lo = hi;
            }
        }
    }

    #[test]
    fn distvec_storage_agrees_with_dense_storage() {
        let n = 48;
        let a = random_symmetric(n, 41);
        let opts = LanczosOptions {
            max_iter: n,
            tol: 1e-11,
            want_vectors: true,
            ..Default::default()
        };
        let dense = lanczos_smallest(&DenseOp::new(n, a.clone()), 3, &opts);
        let dist_op = DistDense { inner: DenseOp::new(n, a), lens: vec![11, 0, 30, 7] };
        let dist = lanczos_smallest_in(&dist_op, 3, &opts);
        assert!(dense.converged && dist.converged);
        assert_eq!(dense.iterations, dist.iterations);
        for (a, b) in dense.eigenvalues.iter().zip(&dist.eigenvalues) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        // Ritz vectors come back distributed, matching up to global sign
        // and BLAS-1 reduction rounding (per-part partial sums differ
        // from the dense partition's).
        let dv = dense.eigenvectors.unwrap();
        let xv = dist.eigenvectors.unwrap();
        for (d, x) in dv.iter().zip(&xv) {
            let x = x.concat();
            let overlap: f64 = d.iter().zip(&x).map(|(p, q)| p * q).sum();
            assert!((overlap.abs() - 1.0).abs() < 1e-8, "overlap {overlap}");
        }
    }
}
