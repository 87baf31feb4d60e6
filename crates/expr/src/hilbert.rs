//! The pluggable local Hilbert space: which on-site primitives exist,
//! what their matrices are, and how site codes pack into basis words.
//!
//! A [`LocalHilbert`] pairs a [`SiteEncoding`] (field width, local
//! dimension, statistics flag) with the operator dictionary of that site
//! type. Everything downstream — normal ordering, channel compilation,
//! sector enumeration, ranking, batched/distributed matvec — is generic
//! over it; only this module and the instance builders know what a
//! "fermion" or a "spin-1 site" actually is.
//!
//! Sign convention for fermions: sites are Jordan-Wigner ordered by code
//! position, `c_i = (Π_{j<i} Z_j) a_i` with `Z = diag(1, −1)` in the
//! occupation basis, so a channel's runtime amplitude is
//! `(−1)^{popcount(α & sign_mask)} · coeff`.

use crate::ast::PrimitiveKind;
use crate::normal::CompileError;
use crate::sitematrix::SiteMatrix;
use ls_kernels::SiteEncoding;

/// A local Hilbert space: encoding plus on-site operator dictionary.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LocalHilbert {
    encoding: SiteEncoding,
}

impl LocalHilbert {
    /// Spin-1/2 sites: the default, and the bit-identical fast path.
    pub const fn spin_half() -> Self {
        Self { encoding: SiteEncoding::spin_half() }
    }

    /// Spin-S sites with `local_dim = 2S + 1` in `2..=4`.
    pub fn spin(local_dim: u32) -> Self {
        Self { encoding: SiteEncoding::spin(local_dim) }
    }

    /// Spin-1 sites (codes 0, 1, 2 for `Sz = −1, 0, +1`).
    pub fn spin_one() -> Self {
        Self::spin(3)
    }

    /// Fermionic orbitals (one occupation bit per site, Jordan-Wigner
    /// signs). Spinful models use two orbitals per physical site.
    pub const fn fermion() -> Self {
        Self { encoding: SiteEncoding::fermion() }
    }

    /// Reconstructs the Hilbert space from its encoding (the encoding
    /// fully determines the operator dictionary).
    pub fn from_encoding(encoding: SiteEncoding) -> Self {
        Self { encoding }
    }

    pub fn encoding(&self) -> SiteEncoding {
        self.encoding
    }

    pub fn local_dim(&self) -> u32 {
        self.encoding.local_dim()
    }

    pub fn is_fermionic(&self) -> bool {
        self.encoding.is_fermionic()
    }

    /// Human-readable name for diagnostics.
    pub fn name(&self) -> &'static str {
        if self.is_fermionic() {
            "fermion"
        } else {
            match self.local_dim() {
                2 => "spin-1/2",
                3 => "spin-1",
                _ => "spin-3/2",
            }
        }
    }

    /// The on-site matrix of a primitive, or an error if this site type
    /// does not define it (e.g. `c†` on a spin site, `σx` on spin-1).
    pub fn primitive_matrix(&self, kind: PrimitiveKind) -> Result<SiteMatrix, CompileError> {
        use PrimitiveKind::*;
        let unsupported = || {
            Err(CompileError::UnsupportedPrimitive {
                symbol: kind.symbol(),
                hilbert: self.name(),
            })
        };
        if self.is_fermionic() {
            return match kind {
                Create => Ok(SiteMatrix::fermion_create()),
                Annihilate => Ok(SiteMatrix::fermion_annihilate()),
                Number => Ok(SiteMatrix::fermion_number()),
                _ => unsupported(),
            };
        }
        let d = self.local_dim() as usize;
        match kind {
            SPlus => Ok(SiteMatrix::splus(d)),
            SMinus => Ok(SiteMatrix::sminus(d)),
            Sz => Ok(SiteMatrix::sz(d)),
            Sx => Ok(SiteMatrix::sx(d)),
            Sy => Ok(SiteMatrix::sy(d)),
            SigmaX if d == 2 => Ok(SiteMatrix::sx(2).scale(2.0.into())),
            SigmaY if d == 2 => Ok(SiteMatrix::sy(2).scale(2.0.into())),
            SigmaZ if d == 2 => Ok(SiteMatrix::sz(2).scale(2.0.into())),
            _ => unsupported(),
        }
    }

    /// Does `kind` carry a Jordan-Wigner string in this Hilbert space?
    pub fn primitive_has_string(&self, kind: PrimitiveKind) -> bool {
        self.is_fermionic() && matches!(kind, PrimitiveKind::Create | PrimitiveKind::Annihilate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_half_dictionary_matches_matrix2() {
        let h = LocalHilbert::spin_half();
        let m = h.primitive_matrix(PrimitiveKind::SigmaZ).unwrap();
        assert!(m.approx_eq(&SiteMatrix::diagonal(2, &[-1.0, 1.0]), 1e-15));
        assert!(h.primitive_matrix(PrimitiveKind::Create).is_err());
        assert!(!h.is_fermionic());
    }

    #[test]
    fn spin_one_rejects_paulis_and_fermions() {
        let h = LocalHilbert::spin_one();
        assert!(h.primitive_matrix(PrimitiveKind::Sz).is_ok());
        let err = h.primitive_matrix(PrimitiveKind::SigmaX).unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedPrimitive { hilbert: "spin-1", .. }));
        assert!(h.primitive_matrix(PrimitiveKind::Annihilate).is_err());
    }

    #[test]
    fn fermion_dictionary() {
        let h = LocalHilbert::fermion();
        assert!(h.is_fermionic());
        assert!(h.primitive_matrix(PrimitiveKind::Create).is_ok());
        assert!(h.primitive_matrix(PrimitiveKind::Sz).is_err());
        assert!(h.primitive_has_string(PrimitiveKind::Create));
        assert!(!h.primitive_has_string(PrimitiveKind::Number));
    }
}
