//! The expression AST for symbolic spin operators.
//!
//! Expressions are built with ordinary Rust arithmetic (`+`, `-`, `*`) from
//! on-site primitives, or parsed from strings (see [`crate::parse`]).
//! They are compiled to an executable [`crate::OperatorKernel`] via
//! [`Expr::to_kernel`].

use ls_kernels::Complex64;
use std::ops::{Add, Mul, Neg, Sub};

/// Kinds of single-site operators. Which kinds an expression may use
/// depends on the local Hilbert space it is compiled against (see
/// [`crate::LocalHilbert::primitive_matrix`]): the spin kinds exist on
/// any spin-S site, the Pauli kinds only on spin-1/2, and the fermionic
/// kinds (`c†`, `c`, `n`) only on fermionic orbitals.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PrimitiveKind {
    /// Raising operator `S+`.
    SPlus,
    /// Lowering operator `S-`.
    SMinus,
    /// `Sz` with eigenvalues `−s..=+s`.
    Sz,
    /// `Sx = (S+ + S-)/2`.
    Sx,
    /// `Sy = (S+ - S-)/(2i)`.
    Sy,
    /// Pauli `σx` (= 2Sx).
    SigmaX,
    /// Pauli `σy` (= 2Sy).
    SigmaY,
    /// Pauli `σz` (= 2Sz).
    SigmaZ,
    /// Fermionic creation `c†` (Jordan-Wigner string over lower sites).
    Create,
    /// Fermionic annihilation `c`.
    Annihilate,
    /// Occupation number `n = c† c` (string-free).
    Number,
}

impl PrimitiveKind {
    pub fn symbol(self) -> &'static str {
        match self {
            Self::SPlus => "S+",
            Self::SMinus => "S-",
            Self::Sz => "Sz",
            Self::Sx => "Sx",
            Self::Sy => "Sy",
            Self::SigmaX => "σx",
            Self::SigmaY => "σy",
            Self::SigmaZ => "σz",
            Self::Create => "c†",
            Self::Annihilate => "c",
            Self::Number => "n",
        }
    }
}

/// A single-site operator attached to a lattice site.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Primitive {
    pub kind: PrimitiveKind,
    pub site: u16,
}

/// A symbolic operator expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A complex scalar (also the multiplicative coefficient unit).
    Scalar(Complex64),
    /// A single-site primitive.
    Primitive(Primitive),
    /// Sum of sub-expressions.
    Sum(Vec<Expr>),
    /// Product of sub-expressions (operator composition; order matters).
    Product(Vec<Expr>),
}

impl Expr {
    pub fn scalar(re: f64) -> Self {
        Expr::Scalar(Complex64::new(re, 0.0))
    }

    pub fn scalar_c(z: Complex64) -> Self {
        Expr::Scalar(z)
    }

    pub fn zero() -> Self {
        Expr::Scalar(Complex64::ZERO)
    }

    pub fn one() -> Self {
        Expr::Scalar(Complex64::ONE)
    }

    /// The largest site index + 1 mentioned in the expression, or 0.
    pub fn min_sites(&self) -> usize {
        match self {
            Expr::Scalar(_) => 0,
            Expr::Primitive(p) => p.site as usize + 1,
            Expr::Sum(es) | Expr::Product(es) => {
                es.iter().map(|e| e.min_sites()).max().unwrap_or(0)
            }
        }
    }

    /// Formal adjoint of the expression (reverses products, conjugates
    /// scalars, swaps `S+`/`S-`).
    pub fn adjoint(&self) -> Self {
        match self {
            Expr::Scalar(z) => Expr::Scalar(z.conj()),
            Expr::Primitive(p) => {
                let kind = match p.kind {
                    PrimitiveKind::SPlus => PrimitiveKind::SMinus,
                    PrimitiveKind::SMinus => PrimitiveKind::SPlus,
                    PrimitiveKind::Create => PrimitiveKind::Annihilate,
                    PrimitiveKind::Annihilate => PrimitiveKind::Create,
                    k => k, // Sx, Sy, Sz, Paulis, n are Hermitian
                };
                Expr::Primitive(Primitive { kind, site: p.site })
            }
            Expr::Sum(es) => Expr::Sum(es.iter().map(|e| e.adjoint()).collect()),
            Expr::Product(es) => Expr::Product(es.iter().rev().map(|e| e.adjoint()).collect()),
        }
    }
}

/// `S+` on `site`.
pub fn splus(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::SPlus, site })
}

/// `S-` on `site`.
pub fn sminus(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::SMinus, site })
}

/// `Sz` on `site`.
pub fn sz(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::Sz, site })
}

/// `Sx` on `site`.
pub fn sx(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::Sx, site })
}

/// `Sy` on `site`.
pub fn sy(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::Sy, site })
}

/// Pauli `σx` on `site`.
pub fn sigma_x(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::SigmaX, site })
}

/// Pauli `σy` on `site`.
pub fn sigma_y(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::SigmaY, site })
}

/// Pauli `σz` on `site`.
pub fn sigma_z(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::SigmaZ, site })
}

/// Fermionic creation operator `c†` on orbital `site`.
pub fn create(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::Create, site })
}

/// Fermionic annihilation operator `c` on orbital `site`.
pub fn annihilate(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::Annihilate, site })
}

/// Occupation number `n = c† c` on orbital `site`.
pub fn number(site: u16) -> Expr {
    Expr::Primitive(Primitive { kind: PrimitiveKind::Number, site })
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        match (self, rhs) {
            (Expr::Sum(mut a), Expr::Sum(b)) => {
                a.extend(b);
                Expr::Sum(a)
            }
            (Expr::Sum(mut a), b) => {
                a.push(b);
                Expr::Sum(a)
            }
            (a, Expr::Sum(mut b)) => {
                b.insert(0, a);
                Expr::Sum(b)
            }
            (a, b) => Expr::Sum(vec![a, b]),
        }
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self + (-rhs)
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Scalar(-Complex64::ONE) * self
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        match (self, rhs) {
            (Expr::Product(mut a), Expr::Product(b)) => {
                a.extend(b);
                Expr::Product(a)
            }
            (Expr::Product(mut a), b) => {
                a.push(b);
                Expr::Product(a)
            }
            (a, Expr::Product(mut b)) => {
                b.insert(0, a);
                Expr::Product(b)
            }
            (a, b) => Expr::Product(vec![a, b]),
        }
    }
}

impl Mul<Expr> for f64 {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::scalar(self) * rhs
    }
}

impl Mul<f64> for Expr {
    type Output = Expr;
    fn mul(self, rhs: f64) -> Expr {
        Expr::scalar(rhs) * self
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Scalar(z) => {
                if z.im == 0.0 {
                    write!(f, "{}", z.re)
                } else {
                    write!(f, "({z})")
                }
            }
            Expr::Primitive(p) => write!(f, "{}_{}", p.kind.symbol(), p.site),
            Expr::Sum(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Product(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_operators() {
        let e = 2.0 * sz(0) * sz(1) + splus(0) * sminus(1);
        assert_eq!(e.min_sites(), 2);
        match &e {
            Expr::Sum(terms) => assert_eq!(terms.len(), 2),
            other => panic!("expected sum, got {other:?}"),
        }
    }

    #[test]
    fn adjoint_swaps_ladder_operators() {
        let e = splus(0) * sminus(1);
        let a = e.adjoint();
        // (S+_0 S-_1)† = S+_1 S-_0.
        assert_eq!(a, Expr::Product(vec![splus(1), sminus(0)]));
    }

    #[test]
    fn adjoint_is_involution() {
        let e = Expr::scalar_c(Complex64::new(0.0, 2.0)) * sy(3) * splus(1) + 0.5 * sz(0);
        assert_eq!(e.adjoint().adjoint(), e);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let e = 2.0 * sz(0) * sz(1) + splus(0) * sminus(1);
        let s = format!("{e}");
        let parsed = crate::parse::parse_expr(&s).unwrap();
        // Compare compiled kernels (ASTs may differ structurally).
        let k1 = e.to_kernel(2).unwrap();
        let k2 = parsed.to_kernel(2).unwrap();
        assert!(k1.approx_eq(&k2, 1e-12));
    }
}
