//! Complex d×d matrices (d ≤ 4): the single-site building blocks of
//! operators on an arbitrary local Hilbert space.
//!
//! [`SiteMatrix`] is the one single-site operator type, for local
//! dimensions 2..=4 (spin-1/2 through spin-3/2, fermionic orbitals), and
//! [`crate::LocalHilbert::primitive_matrix`] the one dictionary of
//! primitives. Rows/columns are indexed by the site *code* — the packed
//! field value of [`ls_kernels::SiteEncoding`] — so `m[a][b]` is
//! `⟨a|M|b⟩` and code 0 is the lowest-`Sz` (or empty-orbital) state.

use ls_kernels::Complex64;

/// A d×d complex matrix stored in a fixed 4×4 block, row-major:
/// `m[row][col]` with `row, col < d`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SiteMatrix {
    pub d: usize,
    pub m: [[Complex64; 4]; 4],
}

const C0: Complex64 = Complex64::ZERO;

impl SiteMatrix {
    pub fn zero(d: usize) -> Self {
        assert!((2..=4).contains(&d));
        Self { d, m: [[C0; 4]; 4] }
    }

    pub fn identity(d: usize) -> Self {
        let mut out = Self::zero(d);
        for i in 0..d {
            out.m[i][i] = Complex64::ONE;
        }
        out
    }

    /// Matrix unit `|a⟩⟨b|`.
    pub fn unit(d: usize, a: usize, b: usize) -> Self {
        assert!(a < d && b < d);
        let mut out = Self::zero(d);
        out.m[a][b] = Complex64::ONE;
        out
    }

    pub fn diagonal(d: usize, entries: &[f64]) -> Self {
        assert_eq!(entries.len(), d);
        let mut out = Self::zero(d);
        for (i, &v) in entries.iter().enumerate() {
            out.m[i][i] = Complex64::new(v, 0.0);
        }
        out
    }

    /// Spin quantum number of a d-dimensional site: `s = (d-1)/2`.
    fn spin_of(d: usize) -> f64 {
        (d as f64 - 1.0) / 2.0
    }

    /// `S+` for spin `s = (d-1)/2`: `⟨m+1|S+|m⟩ = √(s(s+1) − m(m+1))`
    /// with `m = code − s`.
    pub fn splus(d: usize) -> Self {
        let s = Self::spin_of(d);
        let mut out = Self::zero(d);
        for code in 0..d - 1 {
            let m = code as f64 - s;
            out.m[code + 1][code] = Complex64::new((s * (s + 1.0) - m * (m + 1.0)).sqrt(), 0.0);
        }
        out
    }

    /// `S- = (S+)†`.
    pub fn sminus(d: usize) -> Self {
        Self::splus(d).adjoint()
    }

    /// `Sz = diag(code − s)`.
    pub fn sz(d: usize) -> Self {
        let s = Self::spin_of(d);
        let mut out = Self::zero(d);
        for code in 0..d {
            out.m[code][code] = Complex64::new(code as f64 - s, 0.0);
        }
        out
    }

    /// `Sx = (S+ + S-)/2`.
    pub fn sx(d: usize) -> Self {
        Self::splus(d).add(&Self::sminus(d)).scale(Complex64::new(0.5, 0.0))
    }

    /// `Sy = (S+ − S-)/(2i)`.
    pub fn sy(d: usize) -> Self {
        Self::splus(d)
            .add(&Self::sminus(d).scale(-Complex64::ONE))
            .scale(Complex64::new(0.0, -0.5))
    }

    /// Fermionic creation operator on one orbital: `a† = |1⟩⟨0|` (the
    /// Jordan-Wigner string lives in the monomial, not the matrix).
    pub fn fermion_create() -> Self {
        Self::unit(2, 1, 0)
    }

    /// Fermionic annihilation operator on one orbital: `a = |0⟩⟨1|`.
    pub fn fermion_annihilate() -> Self {
        Self::unit(2, 0, 1)
    }

    /// Occupation number `n = |1⟩⟨1|`.
    pub fn fermion_number() -> Self {
        Self::unit(2, 1, 1)
    }

    /// Fermion parity `Z = (−1)^n = diag(1, −1)`: the per-site factor of a
    /// Jordan-Wigner string.
    pub fn fermion_parity() -> Self {
        Self::diagonal(2, &[1.0, -1.0])
    }

    /// Matrix product `self · other`.
    pub fn mul(&self, other: &Self) -> Self {
        debug_assert_eq!(self.d, other.d);
        let d = self.d;
        let mut out = Self::zero(d);
        for r in 0..d {
            for c in 0..d {
                let mut acc = C0;
                for k in 0..d {
                    acc += self.m[r][k] * other.m[k][c];
                }
                out.m[r][c] = acc;
            }
        }
        out
    }

    pub fn add(&self, other: &Self) -> Self {
        debug_assert_eq!(self.d, other.d);
        let mut out = Self::zero(self.d);
        for r in 0..self.d {
            for c in 0..self.d {
                out.m[r][c] = self.m[r][c] + other.m[r][c];
            }
        }
        out
    }

    pub fn scale(&self, z: Complex64) -> Self {
        let mut out = *self;
        for r in 0..self.d {
            for c in 0..self.d {
                out.m[r][c] *= z;
            }
        }
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        let mut out = Self::zero(self.d);
        for r in 0..self.d {
            for c in 0..self.d {
                out.m[r][c] = self.m[c][r].conj();
            }
        }
        out
    }

    pub fn is_zero(&self, tol: f64) -> bool {
        self.m.iter().flatten().all(|z| z.abs() <= tol)
    }

    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        if self.d != other.d {
            return false;
        }
        for r in 0..self.d {
            for c in 0..self.d {
                if !self.m[r][c].approx_eq(other.m[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commutator(a: &SiteMatrix, b: &SiteMatrix) -> SiteMatrix {
        a.mul(b).add(&b.mul(a).scale(-Complex64::ONE))
    }

    /// A spin-1/2 matrix from literal `(re, im)` entries, `m[row][col]`.
    fn two(m: [[(f64, f64); 2]; 2]) -> SiteMatrix {
        let mut out = SiteMatrix::zero(2);
        for (row, entries) in out.m.iter_mut().zip(m) {
            for (z, (re, im)) in row.iter_mut().zip(entries) {
                *z = Complex64::new(re, im);
            }
        }
        out
    }

    #[test]
    fn spin_half_matches_matrix2() {
        let (o, h) = ((0.0, 0.0), 0.5);
        assert!(SiteMatrix::splus(2).approx_eq(&two([[o, o], [(1.0, 0.0), o]]), 1e-15));
        assert!(SiteMatrix::sminus(2).approx_eq(&two([[o, (1.0, 0.0)], [o, o]]), 1e-15));
        assert!(SiteMatrix::sz(2).approx_eq(&two([[(-h, 0.0), o], [o, (h, 0.0)]]), 1e-15));
        assert!(SiteMatrix::sx(2).approx_eq(&two([[o, (h, 0.0)], [(h, 0.0), o]]), 1e-15));
        assert!(SiteMatrix::sy(2).approx_eq(&two([[o, (0.0, h)], [(0.0, -h), o]]), 1e-15));
    }

    #[test]
    fn spin_algebra_all_dims() {
        for d in 2..=4usize {
            let (sp, sm, sz) = (SiteMatrix::splus(d), SiteMatrix::sminus(d), SiteMatrix::sz(d));
            // [Sz, S±] = ±S±.
            assert!(commutator(&sz, &sp).approx_eq(&sp, 1e-13), "d = {d}");
            assert!(commutator(&sz, &sm).approx_eq(&sm.scale(-Complex64::ONE), 1e-13));
            // [S+, S-] = 2 Sz.
            assert!(commutator(&sp, &sm).approx_eq(&sz.scale(Complex64::new(2.0, 0.0)), 1e-13));
            // Casimir S² = s(s+1) I.
            let s = (d as f64 - 1.0) / 2.0;
            let casimir = SiteMatrix::sx(d)
                .mul(&SiteMatrix::sx(d))
                .add(&SiteMatrix::sy(d).mul(&SiteMatrix::sy(d)))
                .add(&sz.mul(&sz));
            let expect = SiteMatrix::identity(d).scale(Complex64::new(s * (s + 1.0), 0.0));
            assert!(casimir.approx_eq(&expect, 1e-13), "d = {d}");
        }
    }

    #[test]
    fn fermion_site_algebra() {
        let (c, a) = (SiteMatrix::fermion_create(), SiteMatrix::fermion_annihilate());
        // a† a = n, a a† = 1 − n (same-site anticommutator = 1).
        assert!(c.mul(&a).approx_eq(&SiteMatrix::fermion_number(), 1e-15));
        let hole =
            SiteMatrix::identity(2).add(&SiteMatrix::fermion_number().scale(-Complex64::ONE));
        assert!(a.mul(&c).approx_eq(&hole, 1e-15));
        // a† Z = a†, a Z = −a, Z² = I.
        let z = SiteMatrix::fermion_parity();
        assert!(c.mul(&z).approx_eq(&c, 1e-15));
        assert!(a.mul(&z).approx_eq(&a.scale(-Complex64::ONE), 1e-15));
        assert!(z.mul(&z).approx_eq(&SiteMatrix::identity(2), 1e-15));
    }
}
