//! Symmetry sector specification.

use ls_kernels::bits::low_mask;
use ls_kernels::combinadics::{BinomialTable, LinTables};
use ls_kernels::SiteEncoding;
use ls_symmetry::SymmetryGroup;

/// Errors constructing sectors, bases and symmetrized operators.
#[derive(Debug, Clone, PartialEq)]
pub enum BasisError {
    /// The symmetry group acts on a different number of sites.
    GroupSizeMismatch { group_sites: usize, n_sites: u32 },
    /// Hamming weight (code sum) exceeds its maximum for the encoding.
    WeightOutOfRange { weight: u32, n_sites: u32 },
    /// Spin-inversion symmetry maps weight `w` to `n - w`; combining it
    /// with U(1) requires half filling.
    InversionNeedsHalfFilling,
    /// The sector has complex characters but a real scalar type was
    /// requested.
    ComplexSector,
    /// The operator does not conserve the Hamming weight (total code sum)
    /// but the sector fixes it.
    BreaksU1,
    /// The operator does not commute with a group element.
    BreaksSymmetry,
    /// The operator's coefficients are complex but a real scalar type was
    /// requested.
    ComplexOperator,
    /// The operator acts on a different number of sites than the sector.
    OperatorSizeMismatch { kernel_sites: u32, n_sites: u32 },
    /// Non-trivial lattice symmetry groups are only supported for
    /// spin-1/2 sectors (permutation masks act on one-bit site codes).
    UnsupportedSymmetry,
    /// The operator was compiled for a different site encoding than the
    /// sector's.
    EncodingMismatch,
    /// The operator does not conserve the particle number within a charge
    /// mask the sector fixes (e.g. mixes spin-up and spin-down fermions).
    BreaksCharge { mask: u64 },
    /// A charge constraint is malformed: weight above the mask's
    /// popcount, mask outside the site range, or masks overlapping.
    ChargeOutOfRange { mask: u64, weight: u32 },
}

impl std::fmt::Display for BasisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::GroupSizeMismatch { group_sites, n_sites } => {
                write!(f, "symmetry group acts on {group_sites} sites, sector has {n_sites}")
            }
            Self::WeightOutOfRange { weight, n_sites } => {
                write!(f, "hamming weight {weight} out of range for {n_sites} sites")
            }
            Self::InversionNeedsHalfFilling => {
                write!(f, "spin inversion with U(1) requires weight = n/2")
            }
            Self::ComplexSector => {
                write!(f, "sector has complex characters; use Complex64 amplitudes")
            }
            Self::BreaksU1 => {
                write!(f, "operator does not conserve the Hamming weight")
            }
            Self::BreaksSymmetry => {
                write!(f, "operator does not commute with the symmetry group")
            }
            Self::ComplexOperator => {
                write!(f, "operator has complex coefficients; use Complex64")
            }
            Self::OperatorSizeMismatch { kernel_sites, n_sites } => {
                write!(f, "operator on {kernel_sites} sites, sector on {n_sites}")
            }
            Self::UnsupportedSymmetry => {
                write!(f, "non-trivial symmetry groups require spin-1/2 sites")
            }
            Self::EncodingMismatch => {
                write!(f, "operator and sector use different site encodings")
            }
            Self::BreaksCharge { mask } => {
                write!(f, "operator does not conserve the particle number on mask {mask:#x}")
            }
            Self::ChargeOutOfRange { mask, weight } => {
                write!(f, "charge weight {weight} invalid for mask {mask:#x}")
            }
        }
    }
}

impl std::error::Error for BasisError {}

/// A conserved per-species particle number: the bit count of basis words
/// within `mask` is fixed to `weight`. Used by spinful-fermion sectors to
/// pin `N↑` and `N↓` separately (masks are disjoint orbital sets).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChargeMask {
    pub mask: u64,
    pub weight: u32,
}

/// A symmetry sector: the subspace the Hamiltonian is restricted to.
#[derive(Clone, Debug)]
pub struct SectorSpec {
    n_sites: u32,
    encoding: SiteEncoding,
    hamming_weight: Option<u32>,
    charges: Vec<ChargeMask>,
    group: SymmetryGroup,
}

impl SectorSpec {
    /// Creates a spin-1/2 sector. `group` must act on `n_sites` sites; a
    /// fixed Hamming weight combined with spin-inversion symmetry
    /// requires half filling (inversion maps weight `w` to `n − w`).
    pub fn new(
        n_sites: u32,
        hamming_weight: Option<u32>,
        group: SymmetryGroup,
    ) -> Result<Self, BasisError> {
        if group.n_sites() != n_sites as usize {
            return Err(BasisError::GroupSizeMismatch {
                group_sites: group.n_sites(),
                n_sites,
            });
        }
        if let Some(w) = hamming_weight {
            if w > n_sites {
                return Err(BasisError::WeightOutOfRange { weight: w, n_sites });
            }
            if group.has_spin_inversion() && 2 * w != n_sites {
                return Err(BasisError::InversionNeedsHalfFilling);
            }
        }
        Ok(Self {
            n_sites,
            encoding: SiteEncoding::spin_half(),
            hamming_weight,
            charges: Vec::new(),
            group,
        })
    }

    /// A sector with no symmetries at all (full 2^n space).
    pub fn full(n_sites: u32) -> Self {
        Self::new(n_sites, None, SymmetryGroup::trivial(n_sites as usize))
            .expect("trivial full sector is always valid")
    }

    /// U(1)-only sector (fixed Hamming weight, no lattice symmetries).
    pub fn with_weight(n_sites: u32, weight: u32) -> Result<Self, BasisError> {
        Self::new(n_sites, Some(weight), SymmetryGroup::trivial(n_sites as usize))
    }

    /// A sector over an arbitrary site encoding with an optional fixed
    /// total code sum (the generalized U(1) charge: `Σ(Sz_i + S)` for
    /// spin-S, particle number for fermions). Lattice symmetry groups are
    /// not yet supported off the spin-1/2 encoding, so the group is
    /// trivial.
    pub fn with_encoding(
        n_sites: u32,
        encoding: SiteEncoding,
        code_sum: Option<u32>,
    ) -> Result<Self, BasisError> {
        if encoding.is_spin_half() {
            let mut s = Self::new(n_sites, code_sum, SymmetryGroup::trivial(n_sites as usize))?;
            s.encoding = encoding; // preserves a fermion() statistics flag
            return Ok(s);
        }
        if n_sites > encoding.max_sites() {
            return Err(BasisError::WeightOutOfRange { weight: 0, n_sites });
        }
        if let Some(w) = code_sum {
            if w > n_sites * (encoding.local_dim() - 1) {
                return Err(BasisError::WeightOutOfRange { weight: w, n_sites });
            }
        }
        Ok(Self {
            n_sites,
            encoding,
            hamming_weight: code_sum,
            charges: Vec::new(),
            group: SymmetryGroup::trivial(n_sites as usize),
        })
    }

    /// A spin-S sector (`local_dim = 2S + 1`) with an optional fixed
    /// total code sum (`Σ(Sz_i + S)`; half filling of the code sum is the
    /// `Σ Sz = 0` sector).
    pub fn spin_s(
        n_sites: u32,
        local_dim: u32,
        code_sum: Option<u32>,
    ) -> Result<Self, BasisError> {
        Self::with_encoding(n_sites, SiteEncoding::spin(local_dim), code_sum)
    }

    /// A spinful-fermion sector on `n_phys` physical sites with fixed
    /// `n_up` and `n_down` particle numbers.
    ///
    /// Orbital layout matches [`ls_expr::builders::hubbard_1d`]: spin-up
    /// orbitals occupy code positions `0..n_phys`, spin-down orbitals
    /// `n_phys..2·n_phys`. The total particle number becomes the sector's
    /// Hamming weight and each species count a [`ChargeMask`].
    pub fn spinful_fermions(n_phys: u32, n_up: u32, n_down: u32) -> Result<Self, BasisError> {
        let n_sites = 2 * n_phys;
        if n_sites > 64 {
            return Err(BasisError::WeightOutOfRange { weight: 0, n_sites });
        }
        let up_mask = ls_kernels::bits::low_mask(n_phys);
        let down_mask = up_mask << n_phys;
        if n_up > n_phys {
            return Err(BasisError::ChargeOutOfRange { mask: up_mask, weight: n_up });
        }
        if n_down > n_phys {
            return Err(BasisError::ChargeOutOfRange { mask: down_mask, weight: n_down });
        }
        Ok(Self {
            n_sites,
            encoding: SiteEncoding::fermion(),
            hamming_weight: Some(n_up + n_down),
            charges: vec![
                ChargeMask { mask: up_mask, weight: n_up },
                ChargeMask { mask: down_mask, weight: n_down },
            ],
            group: SymmetryGroup::trivial(n_sites as usize),
        })
    }

    pub fn n_sites(&self) -> u32 {
        self.n_sites
    }

    /// The site encoding of basis words (spin-1/2 unless the sector was
    /// built with [`Self::with_encoding`] or a fermion constructor).
    pub fn encoding(&self) -> SiteEncoding {
        self.encoding
    }

    /// Total bits of a packed basis word: `n_sites · encoding.bits()`.
    pub fn code_bits(&self) -> u32 {
        self.encoding.code_bits(self.n_sites)
    }

    /// The fixed total code sum, if any (Hamming weight for one-bit
    /// encodings).
    pub fn hamming_weight(&self) -> Option<u32> {
        self.hamming_weight
    }

    /// Additional per-species conserved charges (disjoint masks with
    /// fixed bit counts), if any.
    pub fn charges(&self) -> &[ChargeMask] {
        &self.charges
    }

    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// Can amplitudes be real? (All characters ±1.)
    pub fn is_real(&self) -> bool {
        self.group.is_real()
    }

    /// Lin tables that rank the sector's *whole* member list in closed
    /// form, where it has one: every state its own orbit (trivial group),
    /// one-bit codes, and the members the product of one or two contiguous
    /// fixed-weight species (a U(1) spin sector, spinful fermions). The
    /// one rule [`crate::SpinBasis`] and the distributed basis both rank by.
    pub fn lin_tables(&self, binom: &BinomialTable) -> Option<LinTables> {
        if self.group.order() != 1 || self.encoding.bits() != 1 {
            return None;
        }
        let species: Vec<(u64, u32)> = match (&self.charges[..], self.hamming_weight) {
            ([], Some(w)) => vec![(low_mask(self.n_sites), w)],
            (charges, _) => charges.iter().map(|c| (c.mask, c.weight)).collect(),
        };
        LinTables::new(binom, self.n_sites, &species)
    }

    /// Exact sector dimension without enumeration: Burnside counting for
    /// symmetric spin-1/2 sectors, binomial products for charge sectors,
    /// a polynomial-coefficient recurrence for multi-bit codes.
    pub fn dimension(&self) -> u64 {
        if !self.charges.is_empty() {
            let table = BinomialTable::new();
            let mut dim = 1u64;
            let mut covered = 0u64;
            let mut used = 0u32;
            for c in &self.charges {
                dim *= table.choose(c.mask.count_ones(), c.weight);
                covered |= c.mask;
                used += c.weight;
            }
            let free = self.n_sites - covered.count_ones();
            match self.hamming_weight {
                Some(w) => dim * table.choose(free, w.saturating_sub(used)),
                None => dim << free,
            }
        } else if self.encoding.bits() > 1 {
            let d = self.encoding.local_dim() as usize;
            match self.hamming_weight {
                // Coefficient of x^w in (1 + x + … + x^{d−1})^n.
                Some(w) => {
                    let w = w as usize;
                    let mut coeffs = vec![0u64; w + 1];
                    coeffs[0] = 1;
                    for _ in 0..self.n_sites {
                        let mut next = vec![0u64; w + 1];
                        for (k, &c) in coeffs.iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            for add in 0..d.min(w - k + 1) {
                                next[k + add] += c;
                            }
                        }
                        coeffs = next;
                    }
                    coeffs[w]
                }
                None => (d as u64).pow(self.n_sites),
            }
        } else {
            ls_symmetry::count::sector_dimension(&self.group, self.hamming_weight)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_symmetry::lattice;

    #[test]
    fn construction_checks() {
        let g = SymmetryGroup::trivial(8);
        assert!(SectorSpec::new(8, Some(4), g.clone()).is_ok());
        assert!(matches!(
            SectorSpec::new(10, Some(4), g.clone()),
            Err(BasisError::GroupSizeMismatch { .. })
        ));
        assert!(matches!(
            SectorSpec::new(8, Some(9), g),
            Err(BasisError::WeightOutOfRange { .. })
        ));
        // Spin inversion off half filling:
        let gi = lattice::chain_group(8, 0, None, Some(0)).unwrap();
        assert!(matches!(
            SectorSpec::new(8, Some(3), gi.clone()),
            Err(BasisError::InversionNeedsHalfFilling)
        ));
        assert!(SectorSpec::new(8, Some(4), gi).is_ok());
    }

    #[test]
    fn dimension_shortcuts() {
        assert_eq!(SectorSpec::full(10).dimension(), 1024);
        assert_eq!(SectorSpec::with_weight(10, 5).unwrap().dimension(), 252);
        let g = lattice::chain_group(12, 0, Some(0), Some(0)).unwrap();
        let s = SectorSpec::new(12, Some(6), g).unwrap();
        // Cross-checked against brute-force enumeration elsewhere; here
        // just pin the value (12-site chain ground sector).
        assert_eq!(s.dimension(), 35);
        assert!(s.is_real());
    }

    #[test]
    fn default_sectors_are_spin_half() {
        let s = SectorSpec::with_weight(10, 5).unwrap();
        assert!(s.encoding().is_spin_half());
        assert_eq!(s.code_bits(), 10);
        assert!(s.charges().is_empty());
    }

    #[test]
    fn spinful_fermion_sector() {
        // 4 physical sites, 2 up + 2 down at half filling.
        let s = SectorSpec::spinful_fermions(4, 2, 2).unwrap();
        assert_eq!(s.n_sites(), 8);
        assert!(s.encoding().is_fermionic());
        assert_eq!(s.hamming_weight(), Some(4));
        assert_eq!(s.charges().len(), 2);
        assert_eq!(s.charges()[0], ChargeMask { mask: 0b0000_1111, weight: 2 });
        assert_eq!(s.charges()[1], ChargeMask { mask: 0b1111_0000, weight: 2 });
        // dim = C(4,2)² = 36.
        assert_eq!(s.dimension(), 36);
        assert!(matches!(
            SectorSpec::spinful_fermions(4, 5, 2),
            Err(BasisError::ChargeOutOfRange { .. })
        ));
    }

    #[test]
    fn spin_one_sector_dimension() {
        // 4 spin-1 sites, code sum 4 (Σ Sz = 0): coefficient of x^4 in
        // (1+x+x²)^4 = 19.
        let s = SectorSpec::spin_s(4, 3, Some(4)).unwrap();
        assert_eq!(s.code_bits(), 8);
        assert_eq!(s.dimension(), 19);
        // Unconstrained: 3^4.
        assert_eq!(SectorSpec::spin_s(4, 3, None).unwrap().dimension(), 81);
        assert!(matches!(
            SectorSpec::spin_s(4, 3, Some(9)),
            Err(BasisError::WeightOutOfRange { .. })
        ));
    }
}
