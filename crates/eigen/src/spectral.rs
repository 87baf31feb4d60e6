//! Dynamical response via the Lanczos continued fraction.
//!
//! The classic exact-diagonalization route to spectral functions
//! (Lin, the paper's Ref.\ 16): for a seed state `|φ⟩ = O|gs⟩`,
//!
//! ```text
//! A(ω) = -(1/π) Im ⟨φ| (ω + iη - H)^(-1) |φ⟩
//! ```
//!
//! is evaluated from the Lanczos coefficients `(α_j, β_j)` of `|φ⟩` as a
//! continued fraction — no inversion, no dense algebra, just the same
//! matrix-vector product everything else uses.
//!
//! The coefficient run is the shared blocked-CGS2 Krylov factorization
//! of [`crate::lanczos`] (fused matvec+dot, three blocked sweeps over
//! the basis per step — no clone-and-subtract per basis vector), generic over
//! [`KrylovVec`]: a distributed seed state produces its coefficients
//! entirely in place on the locale parts; the coefficients themselves are
//! a few scalars, so the continued-fraction evaluation is storage-agnostic.

use crate::lanczos::krylov_factorization;
use crate::vector::{KrylovOp, KrylovVec};
use ls_kernels::Complex64;

/// The Lanczos tridiagonal coefficients of a seed state: everything needed
/// to evaluate spectral functions at any frequency.
#[derive(Clone, Debug)]
pub struct SpectralCoefficients {
    /// `⟨φ|φ⟩` — the total spectral weight.
    pub weight: f64,
    pub alphas: Vec<f64>,
    pub betas: Vec<f64>,
}

/// Runs `m` Lanczos steps from `seed` (full reorthogonalization) in
/// place on the seed's storage and returns the continued-fraction
/// coefficients.
pub fn spectral_coefficients<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    seed: &V,
    m: usize,
) -> SpectralCoefficients {
    assert!(op.is_hermitian());
    let weight = seed.norm_sqr();
    assert!(weight > 0.0, "zero seed state has no spectrum");
    // `seed` becomes the first Krylov vector: one copy of the state a call.
    let (_basis, alphas, betas) = krylov_factorization(op, seed.clone(), m);
    SpectralCoefficients { weight, alphas, betas }
}

impl SpectralCoefficients {
    /// The resolvent matrix element `⟨φ|(z - H)^{-1}|φ⟩` at complex
    /// frequency `z = ω + iη`, evaluated bottom-up through the continued
    /// fraction.
    pub fn resolvent(&self, z: Complex64) -> Complex64 {
        let k = self.alphas.len();
        let mut acc = Complex64::ZERO;
        for j in (0..k).rev() {
            let denom = z - Complex64::from(self.alphas[j]) - acc;
            let b2 = if j > 0 { self.betas[j - 1].powi(2) } else { self.weight };
            // Next level up: β_j² / (z - α_j - acc); at the top the
            // numerator is ⟨φ|φ⟩.
            acc = Complex64::from(b2) / denom;
        }
        acc
    }

    /// The spectral function `A(ω) = -(1/π) Im ⟨φ|(ω + iη - H)^{-1}|φ⟩`
    /// with Lorentzian broadening `eta`.
    pub fn spectral_function(&self, omega: f64, eta: f64) -> f64 {
        assert!(eta > 0.0);
        let g = self.resolvent(Complex64::new(omega, eta));
        -g.im / std::f64::consts::PI
    }

    /// Evaluates `A(ω)` on a frequency grid.
    pub fn spectrum(&self, omegas: &[f64], eta: f64) -> Vec<f64> {
        omegas.iter().map(|&w| self.spectral_function(w, eta)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::eigh_real;
    use crate::op::DenseOp;

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

    /// Dense oracle: A(ω) = Σ_k |⟨k|φ⟩|² L_η(ω - λ_k).
    fn dense_spectrum(a: &[f64], n: usize, phi: &[f64], omega: f64, eta: f64) -> f64 {
        let (vals, vecs) = eigh_real(a, n);
        let mut acc = 0.0;
        for (lam, v) in vals.iter().zip(&vecs) {
            let overlap: f64 = v.iter().zip(phi).map(|(a, b)| a * b).sum();
            let lorentz = eta / std::f64::consts::PI / ((omega - lam).powi(2) + eta * eta);
            acc += overlap * overlap * lorentz;
        }
        acc
    }

    #[test]
    fn matches_dense_resolvent() {
        let n = 24;
        let a = random_symmetric(n, 3);
        let op = DenseOp::new(n, a.clone());
        let phi: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).cos()).collect();
        // Full Krylov space => exact (up to roundoff).
        let coeffs = spectral_coefficients(&op, &phi, n);
        let eta = 0.15;
        for omega in [-2.0f64, -0.5, 0.0, 0.7, 1.9] {
            let ours = coeffs.spectral_function(omega, eta);
            let exact = dense_spectrum(&a, n, &phi, omega, eta);
            assert!(
                (ours - exact).abs() < 1e-8 * (1.0 + exact.abs()),
                "ω={omega}: {ours} vs {exact}"
            );
        }
    }

    #[test]
    fn sum_rule_total_weight() {
        // ∫ A(ω) dω = ⟨φ|φ⟩; check by coarse numerical integration over a
        // wide window (Lorentzian tails make this approximate).
        let n = 16;
        let a = random_symmetric(n, 9);
        let op = DenseOp::new(n, a);
        let phi: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let weight = crate::op::norm_sqr(&phi);
        let coeffs = spectral_coefficients(&op, &phi, n);
        let eta = 0.02;
        let (lo, hi, steps) = (-30.0, 30.0, 120_000);
        let dw = (hi - lo) / steps as f64;
        let integral: f64 = (0..steps)
            .map(|i| coeffs.spectral_function(lo + (i as f64 + 0.5) * dw, eta) * dw)
            .sum();
        assert!((integral - weight).abs() < 0.02 * weight, "∫A = {integral}, ⟨φ|φ⟩ = {weight}");
    }

    #[test]
    fn single_eigenstate_seed_is_a_single_peak() {
        let n = 12;
        let a = random_symmetric(n, 17);
        let (vals, vecs) = eigh_real(&a, n);
        let op = DenseOp::new(n, a);
        let coeffs = spectral_coefficients(&op, &vecs[3], n);
        let eta = 0.05;
        // Peak at λ_3 with height 1/(π η):
        let peak = coeffs.spectral_function(vals[3], eta);
        assert!((peak - 1.0 / (std::f64::consts::PI * eta)).abs() / peak < 1e-6);
        // Far away: tiny.
        assert!(coeffs.spectral_function(vals[3] + 50.0, eta) < 1e-4);
    }

    #[test]
    fn spectrum_is_nonnegative() {
        let n = 20;
        let a = random_symmetric(n, 21);
        let op = DenseOp::new(n, a);
        let phi: Vec<f64> = (0..n).map(|i| ((i * i) as f64).sin()).collect();
        let coeffs = spectral_coefficients(&op, &phi, n);
        let omegas: Vec<f64> = (0..200).map(|i| -4.0 + 0.04 * i as f64).collect();
        for v in coeffs.spectrum(&omegas, 0.1) {
            assert!(v >= -1e-12, "negative spectral weight {v}");
        }
    }
}
