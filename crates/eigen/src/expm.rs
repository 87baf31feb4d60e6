//! Krylov-subspace time evolution: `exp(z H)|ψ⟩` without forming `H`.
//!
//! The same Lanczos machinery that finds eigenvalues evaluates matrix
//! exponentials: project onto an `m`-dimensional Krylov space, exponentiate
//! the small tridiagonal matrix exactly (via its eigendecomposition) and
//! lift back. This powers real-time dynamics (`z = -it`) and
//! imaginary-time/thermal evolution (`z = -τ`) — the "dynamics" features
//! packages like QuSpin offer, built on the same matrix-vector product the
//! paper scales up.
//!
//! The propagators ([`evolve_real_time`] / [`evolve_imaginary_time`]) are
//! generic over [`KrylovVec`], the storage inferred from the state: the
//! Krylov factorization is the shared blocked-CGS2 pipeline of
//! [`crate::lanczos`] (fused matvec+dot, three blocked sweeps over the
//! basis per step instead of a clone-and-subtract per basis vector), and
//! the lift back is a single fused `multi_axpy` sweep. A `Vec` state runs
//! on any [`crate::LinearOp`]; a distributed state evolves in place on its
//! locale parts.

use crate::lanczos::krylov_factorization;
use crate::tridiag::tridiag_eigh;
use crate::vector::{KrylovOp, KrylovVec};
use ls_kernels::{Complex64, Scalar};

/// `exp(-i t H)|ψ⟩` for a Hermitian operator, via an `m`-dimensional
/// Krylov space. Unitary up to Krylov truncation error (use `m ≈ 20–40`
/// for moderate `t·‖H‖`). The Krylov basis, the projected exponential
/// and the lifted result all live in the state's storage `V` (for a
/// distributed state nothing is ever gathered).
pub fn evolve_real_time<V, Op>(op: &Op, psi: &V, t: f64, m: usize) -> V
where
    V: KrylovVec<Scalar = Complex64>,
    Op: KrylovOp<V> + ?Sized,
{
    assert!(op.is_hermitian());
    let norm_in = psi.norm();
    if norm_in == 0.0 {
        return psi.clone();
    }
    // `psi` becomes the first Krylov vector: one copy of the state a call.
    let (basis, alphas, betas) = krylov_factorization(op, psi.clone(), m.max(2));
    let k = alphas.len();
    let (vals, vecs) = tridiag_eigh(&alphas, &betas, true);
    let vecs = vecs.unwrap();
    // coeff_j = Σ_k Q_{j,k} e^{-i t λ_k} Q_{0,k} — note `vecs[k][j]` is
    // component j of eigenvector k.
    let mut coeffs = Vec::with_capacity(k);
    for j in 0..k {
        let mut cj = Complex64::ZERO;
        for (lam, q) in vals.iter().zip(&vecs) {
            cj += Complex64::cis(-t * lam).scale(q[j] * q[0]);
        }
        coeffs.push(cj.scale(norm_in));
    }
    let mut out = op.new_vec();
    V::multi_axpy(&coeffs, &basis[..k], &mut out);
    out
}

/// `exp(-τ H)|ψ⟩` (imaginary time), normalized, in the state's storage.
/// Works in real arithmetic for real sectors; converges to the ground
/// state as `τ → ∞`.
pub fn evolve_imaginary_time<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    psi: &V,
    tau: f64,
    m: usize,
) -> V {
    assert!(op.is_hermitian());
    let norm_in = psi.norm();
    assert!(norm_in > 0.0, "zero start vector");
    let (basis, alphas, betas) = krylov_factorization(op, psi.clone(), m.max(2));
    let k = alphas.len();
    let (vals, vecs) = tridiag_eigh(&alphas, &betas, true);
    let vecs = vecs.unwrap();
    // Shift by the smallest Ritz value to avoid overflow for large τ.
    let shift = vals[0];
    let mut coeffs = Vec::with_capacity(k);
    for j in 0..k {
        let mut cj = 0.0f64;
        for (lam, q) in vals.iter().zip(&vecs) {
            cj += (-tau * (lam - shift)).exp() * q[j] * q[0];
        }
        coeffs.push(V::Scalar::from_re(cj));
    }
    let mut out = op.new_vec();
    V::multi_axpy(&coeffs, &basis[..k], &mut out);
    let n_out = out.norm();
    assert!(n_out > 0.0, "evolution annihilated the state");
    out.scale(1.0 / n_out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::eigh_real;
    use crate::op::{dot, norm, DenseOp};
    use crate::LinearOp;

    fn random_symmetric(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        let mut next = move || {
            s = ls_kernels::hash64_01(s.wrapping_add(1));
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
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

    fn to_complex_op(a: &[f64], n: usize) -> DenseOp<Complex64> {
        DenseOp::new(n, a.iter().map(|&x| Complex64::new(x, 0.0)).collect())
    }

    #[test]
    fn real_time_evolution_is_unitary_and_conserves_energy() {
        let n = 30;
        let a = random_symmetric(n, 5);
        let op = to_complex_op(&a, n);
        let psi: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.4).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let e_before = {
            let mut hp = vec![Complex64::ZERO; n];
            LinearOp::apply(&op, &psi, &mut hp);
            dot(&psi, &hp).re / dot(&psi, &psi).re
        };
        let out = evolve_real_time(&op, &psi, 1.7, n);
        // Norm preserved.
        assert!((norm(&out) - norm(&psi)).abs() < 1e-8);
        // Energy preserved.
        let e_after = {
            let mut hp = vec![Complex64::ZERO; n];
            LinearOp::apply(&op, &out, &mut hp);
            dot(&out, &hp).re / dot(&out, &out).re
        };
        assert!((e_before - e_after).abs() < 1e-8, "{e_before} vs {e_after}");
    }

    #[test]
    fn eigenstate_acquires_a_pure_phase() {
        let n = 16;
        let a = random_symmetric(n, 11);
        let (vals, vecs) = eigh_real(&a, n);
        let op = to_complex_op(&a, n);
        let psi: Vec<Complex64> = vecs[0].iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let t = 0.83;
        let out = evolve_real_time(&op, &psi, t, n);
        let phase = Complex64::cis(-t * vals[0]);
        for (o, p) in out.iter().zip(&psi) {
            assert!(o.approx_eq(*p * phase, 1e-8), "{o:?} vs {:?}", *p * phase);
        }
    }

    #[test]
    fn small_time_matches_taylor_expansion() {
        let n = 12;
        let a = random_symmetric(n, 23);
        let op = to_complex_op(&a, n);
        let psi: Vec<Complex64> =
            (0..n).map(|i| Complex64::new(1.0 / (1.0 + i as f64), 0.0)).collect();
        let t = 1e-3;
        let out = evolve_real_time(&op, &psi, t, n);
        // ψ - i t H ψ - t²/2 H²ψ + O(t³)
        let mut hp = vec![Complex64::ZERO; n];
        LinearOp::apply(&op, &psi, &mut hp);
        let mut hhp = vec![Complex64::ZERO; n];
        LinearOp::apply(&op, &hp, &mut hhp);
        for i in 0..n {
            let taylor = psi[i] - Complex64::I.scale(t) * hp[i] - hhp[i].scale(t * t / 2.0);
            assert!(out[i].approx_eq(taylor, 1e-7), "{:?} vs {taylor:?}", out[i]);
        }
    }

    #[test]
    fn imaginary_time_projects_to_ground_state() {
        let n = 24;
        let a = random_symmetric(n, 31);
        let (_, vecs) = eigh_real(&a, n);
        let op = DenseOp::new(n, a.clone());
        let psi: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let out = evolve_imaginary_time(&op, &psi, 300.0, n);
        // Overlap with the true ground state approaches ±1 (suppression
        // of excited states is exp(-τ·gap); the Krylov space is exact
        // here since m = n).
        let overlap: f64 = out.iter().zip(&vecs[0]).map(|(a, b)| a * b).sum();
        assert!(overlap.abs() > 1.0 - 1e-9, "overlap {overlap}");
        assert!((norm(&out) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zero_state_passthrough_and_asserts() {
        let n = 4;
        let op = to_complex_op(&random_symmetric(n, 1), n);
        let zero = vec![Complex64::ZERO; n];
        let out = evolve_real_time(&op, &zero, 1.0, 8);
        assert_eq!(out, zero);
    }
}
