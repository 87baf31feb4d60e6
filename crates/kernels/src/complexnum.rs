//! A minimal complex-number type and the `Scalar` abstraction.
//!
//! The offline crate set does not include `num-complex`, so we ship the
//! small part of it that exact diagonalization needs. `Scalar` lets the
//! basis/matvec/eigen layers be generic over `f64` (real symmetry sectors,
//! the case benchmarked in the paper) and `Complex64` (momentum sectors with
//! non-real characters).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` components. Layout-compatible with `[f64; 2]`.
#[derive(Copy, Clone, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    pub re: f64,
    pub im: f64,
}

impl Complex64 {
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `exp(i * theta)` — the unit phase with angle `theta`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self { re: theta.cos(), im: theta.sin() }
    }

    #[inline]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared modulus `|z|^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }

    /// True when `|z - w|` is at most `tol`.
    #[inline]
    pub fn approx_eq(self, w: Self, tol: f64) -> bool {
        (self - w).abs() <= tol
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self { re: self.re + o.re, im: self.im + o.im }
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self { re: self.re - o.re, im: self.im - o.im }
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        Self { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        let d = o.norm_sqr();
        Self {
            re: (self.re * o.re + self.im * o.im) / d,
            im: (self.im * o.re - self.re * o.im) / d,
        }
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self { re: -self.re, im: -self.im }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

/// Field scalar used for wavefunction amplitudes: `f64` or [`Complex64`].
///
/// The `N_REALS`/`to_reals`/`from_reals` members expose the flat `f64`
/// representation so that distributed accumulation can use plain `f64`
/// atomics regardless of the scalar type.
pub trait Scalar:
    Copy
    + Clone
    + Send
    + Sync
    + PartialEq
    + fmt::Debug
    + Default
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    /// Number of `f64` lanes in the flat representation (1 or 2).
    const N_REALS: usize;
    const ZERO: Self;
    const ONE: Self;

    /// Lossless conversion from a complex value; `None` if the imaginary
    /// part does not fit (used to reject complex characters in real
    /// sectors at operator-construction time).
    fn from_c64(z: Complex64) -> Option<Self>;
    fn to_c64(self) -> Complex64;
    fn conj(self) -> Self;
    fn re(self) -> f64;
    fn abs_sqr(self) -> f64;
    fn from_re(x: f64) -> Self;
    fn scale_re(self, x: f64) -> Self;
    fn to_reals(self) -> [f64; 2];
    fn from_reals(r: [f64; 2]) -> Self;
    /// `|self - other|` below `tol`?
    fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self - other).abs_sqr().sqrt() <= tol
    }
}

impl Scalar for f64 {
    const N_REALS: usize = 1;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_c64(z: Complex64) -> Option<Self> {
        // Tolerate tiny imaginary dust from phase arithmetic.
        if z.im.abs() <= 1e-12 * (1.0 + z.re.abs()) {
            Some(z.re)
        } else {
            None
        }
    }

    #[inline]
    fn to_c64(self) -> Complex64 {
        Complex64::new(self, 0.0)
    }

    #[inline]
    fn conj(self) -> Self {
        self
    }

    #[inline]
    fn re(self) -> f64 {
        self
    }

    #[inline]
    fn abs_sqr(self) -> f64 {
        self * self
    }

    #[inline]
    fn from_re(x: f64) -> Self {
        x
    }

    #[inline]
    fn scale_re(self, x: f64) -> Self {
        self * x
    }

    #[inline]
    fn to_reals(self) -> [f64; 2] {
        [self, 0.0]
    }

    #[inline]
    fn from_reals(r: [f64; 2]) -> Self {
        r[0]
    }
}

impl Scalar for Complex64 {
    const N_REALS: usize = 2;
    const ZERO: Self = Complex64::ZERO;
    const ONE: Self = Complex64::ONE;

    #[inline]
    fn from_c64(z: Complex64) -> Option<Self> {
        Some(z)
    }

    #[inline]
    fn to_c64(self) -> Complex64 {
        self
    }

    #[inline]
    fn conj(self) -> Self {
        Complex64::conj(self)
    }

    #[inline]
    fn re(self) -> f64 {
        self.re
    }

    #[inline]
    fn abs_sqr(self) -> f64 {
        self.norm_sqr()
    }

    #[inline]
    fn from_re(x: f64) -> Self {
        Complex64::new(x, 0.0)
    }

    #[inline]
    fn scale_re(self, x: f64) -> Self {
        self.scale(x)
    }

    #[inline]
    fn to_reals(self) -> [f64; 2] {
        [self.re, self.im]
    }

    #[inline]
    fn from_reals(r: [f64; 2]) -> Self {
        Complex64::new(r[0], r[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spot_checks() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.5, 3.0);
        let c = Complex64::new(0.25, 0.75);
        assert!((a + b - b).approx_eq(a, 1e-15));
        assert!(((a * b) * c).approx_eq(a * (b * c), 1e-12));
        assert!((a * (b + c)).approx_eq(a * b + a * c, 1e-12));
        assert!((a / a).approx_eq(Complex64::ONE, 1e-15));
        assert!((a * a.conj()).approx_eq(Complex64::from(a.norm_sqr()), 1e-12));
    }

    #[test]
    fn cis_is_unit_phase() {
        for k in 0..16 {
            let t = std::f64::consts::TAU * k as f64 / 16.0;
            let z = Complex64::cis(t);
            assert!((z.abs() - 1.0).abs() < 1e-14);
        }
        assert!(Complex64::cis(0.0).approx_eq(Complex64::ONE, 1e-15));
        assert!(Complex64::cis(std::f64::consts::PI).approx_eq(-Complex64::ONE, 1e-15));
    }

    #[test]
    fn scalar_real_rejects_complex() {
        assert_eq!(<f64 as Scalar>::from_c64(Complex64::new(2.0, 0.0)), Some(2.0));
        assert_eq!(<f64 as Scalar>::from_c64(Complex64::new(0.0, 1.0)), None);
    }

    #[test]
    fn scalar_real_lanes_roundtrip() {
        let x = -3.25f64;
        assert_eq!(f64::from_reals(x.to_reals()), x);
        let z = Complex64::new(1.0, -2.0);
        assert_eq!(Complex64::from_reals(z.to_reals()), z);
    }
}
