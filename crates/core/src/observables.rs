//! Expectation values of arbitrary observables in symmetry sectors.
//!
//! A wavefunction living in a symmetry sector satisfies `P|ψ⟩ = |ψ⟩`, so
//! for *any* observable `O`,
//!
//! ```text
//! ⟨ψ|O|ψ⟩ = ⟨ψ|P O P|ψ⟩ = ⟨ψ| Ō |ψ⟩,   Ō = (1/|G|) Σ_g U_g† O U_g
//! ```
//!
//! — the group-averaged observable, which *does* commute with the group
//! and can therefore be applied with the same symmetrized machinery as
//! the Hamiltonian. (Physically: within a momentum sector one can only
//! measure translation-averaged quantities, e.g. `⟨Sz_0 Sz_r⟩` rather
//! than `⟨Sz_3 Sz_{3+r}⟩` individually — they are equal anyway.)
//!
//! Channels that change the Hamming weight (total code sum) or any
//! per-species charge contribute nothing inside a sector fixing them and
//! are projected out, so observables like `Sx_i` (or a spin-mixing
//! fermion hop inside a fixed-`N↑`/`N↓` sector) simply evaluate to their
//! exact value, zero.
//!
//! This module is the "custom observables" capability the paper's Sec. 3
//! highlights as painful to add to SPINPACK.

use crate::operator::Operator;
use ls_basis::{BasisError, SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_expr::{Expr, LocalHilbert, OperatorKernel};
use ls_kernels::Scalar;

/// Group-averages a kernel: `(1/|G|) Σ_g U_g O U_g†`.
fn group_average(kernel: &OperatorKernel, sector: &SectorSpec) -> OperatorKernel {
    let group = sector.group();
    let conjugated: Vec<OperatorKernel> = group
        .elements()
        .iter()
        .map(|el| kernel.conjugated_by(|s| el.apply_permutation(s), el.has_flip()))
        .collect();
    OperatorKernel::merged(conjugated.iter()).scaled(1.0 / group.order() as f64)
}

/// Compiles `observable` for the sector's local Hilbert space, then
/// group-averages and projects onto every conservation law the sector
/// fixes (total code sum, per-species charge masks).
fn sector_kernel(observable: &Expr, sector: &SectorSpec) -> Result<OperatorKernel, BasisError> {
    let hilbert = LocalHilbert::from_encoding(sector.encoding());
    let kernel = observable.to_kernel_in(&hilbert, sector.n_sites()).map_err(|_| {
        BasisError::OperatorSizeMismatch {
            kernel_sites: observable.min_sites() as u32,
            n_sites: sector.n_sites(),
        }
    })?;
    let mut averaged = group_average(&kernel, sector);
    if sector.hamming_weight().is_some() {
        averaged = averaged.u1_projected();
    }
    if !sector.charges().is_empty() {
        let masks: Vec<u64> = sector.charges().iter().map(|c| c.mask).collect();
        averaged = averaged.projected_conserving(&masks);
    }
    Ok(averaged)
}

/// `⟨ψ|O|ψ⟩` for an arbitrary observable expression. `psi` must live in
/// `basis`'s sector (e.g. a Lanczos eigenvector).
///
/// The observable is group-averaged and U(1)-projected automatically; the
/// returned value is exact for symmetric observables and equals the
/// sector-projected expectation for non-symmetric ones.
pub fn expectation<S: Scalar>(
    observable: &Expr,
    basis: &SpinBasis,
    psi: &[S],
) -> Result<S, BasisError> {
    let sector = basis.sector();
    let averaged = sector_kernel(observable, sector)?;
    let symop = SymmetrizedOperator::<S>::new(&averaged, sector)?;
    // ⟨ψ| O |ψ⟩ via one application.
    let mut o_psi = vec![S::ZERO; basis.dim()];
    let pool = crate::matvec::MatvecScratchPool::new();
    crate::matvec::apply_serial_pooled(&symop, basis, psi, &mut o_psi, &pool);
    let mut acc = S::ZERO;
    for (a, b) in psi.iter().zip(&o_psi) {
        acc += a.conj() * *b;
    }
    Ok(acc)
}

/// Spin-spin correlation function `C(r) = ⟨Sz_0 Sz_r⟩` for `r = 0..n`
/// (translation-averaged). Works for any spin-S sector; the on-site value
/// `C(0) = ⟨Sz²⟩` is 1/4 for spin-1/2 and state-dependent for higher
/// spin.
pub fn sz_correlations<S: Scalar>(op: &Operator<S>, psi: &[S]) -> Result<Vec<f64>, BasisError> {
    let basis = op.basis();
    let n = basis.sector().n_sites() as usize;
    let mut out = Vec::with_capacity(n);
    for r in 0..n {
        let expr = if r == 0 {
            ls_expr::ast::sz(0) * ls_expr::ast::sz(0)
        } else {
            ls_expr::ast::sz(0) * ls_expr::ast::sz(r as u16)
        };
        out.push(expectation(&expr, basis, psi)?.re());
    }
    Ok(out)
}

/// Distributed expectation value: `⟨ψ|O|ψ⟩` for a hashed-distributed
/// wavefunction, using one distributed matrix-vector product of the
/// group-averaged observable. The paper's "custom observables" at
/// cluster scale.
pub fn expectation_dist<S: Scalar>(
    observable: &Expr,
    cluster: &ls_runtime::Cluster,
    basis: &ls_dist::DistSpinBasis,
    psi: &ls_runtime::DistVec<S>,
) -> Result<S, BasisError> {
    let sector = basis.sector();
    let averaged = sector_kernel(observable, sector)?;
    let symop = SymmetrizedOperator::<S>::new(&averaged, sector)?;
    let mut o_psi = ls_runtime::DistVec::<S>::zeros(&psi.lens());
    let op = ls_dist::DistOp::new(cluster, &symop, basis, ls_dist::PcOptions::default());
    ls_eigen::KrylovOp::apply(&op, psi, &mut o_psi);
    Ok(ls_eigen::KrylovVec::dot(psi, &o_psi))
}

/// Static structure factor `S(q) = Σ_r e^{-iqr} C(r)` on the allowed
/// momenta `q = 2πk/n`. Real by symmetry of `C`.
pub fn structure_factor(correlations: &[f64]) -> Vec<f64> {
    let n = correlations.len();
    (0..n)
        .map(|k| {
            let q = std::f64::consts::TAU * k as f64 / n as f64;
            correlations.iter().enumerate().map(|(r, &c)| c * (q * r as f64).cos()).sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn ground(n: usize) -> (std::sync::Arc<SpinBasis>, Operator<f64>, Vec<f64>, f64) {
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
        let (e0, psi) = crate::eigen::ground_state(&op);
        (basis, op, psi, e0)
    }

    #[test]
    fn bond_energy_times_n_is_e0() {
        // E0 = Σ_bonds ⟨S_i·S_{i+1}⟩ = n·⟨S_0·S_1⟩ by translation
        // invariance — a stringent consistency check of the whole
        // observable pipeline.
        let n = 12usize;
        let (basis, _, psi, e0) = ground(n);
        let bond = heisenberg_bond(0, 1);
        let e_bond = expectation(&bond, &basis, &psi).unwrap();
        assert!(
            (n as f64 * e_bond - e0).abs() < 1e-8,
            "n*bond = {} vs E0 = {e0}",
            n as f64 * e_bond
        );
    }

    #[test]
    fn sz_correlations_of_the_afm_ground_state() {
        let n = 12usize;
        let (_, op, psi, _) = ground(n);
        let c = sz_correlations(&op, &psi).unwrap();
        // For a spin-1/2 sector ⟨Sz²⟩ is the constant 1/4 (Sz² = I/4 on
        // every site); higher-spin sectors have state-dependent C(0).
        assert!((c[0] - 0.25).abs() < 1e-10, "C(0) = {}", c[0]);
        // Antiferromagnet: signs alternate.
        for (r, &cr) in c.iter().enumerate().skip(1) {
            let sign = if r % 2 == 1 { -1.0 } else { 1.0 };
            assert!(cr * sign > 0.0, "C({r}) = {cr}");
        }
        // Sum rule: Σ_r C(r) = ⟨Sz_0 · (Σ_r Sz_r)⟩ = 0 at half filling.
        let total: f64 = c.iter().sum();
        assert!(total.abs() < 1e-9, "sum rule violated: {total}");
        // Reflection symmetry of the ring: C(r) = C(n-r).
        for r in 1..n / 2 {
            assert!((c[r] - c[n - r]).abs() < 1e-9);
        }
    }

    #[test]
    fn structure_factor_peaks_at_pi() {
        let n = 12usize;
        let (_, op, psi, _) = ground(n);
        let c = sz_correlations(&op, &psi).unwrap();
        let s = structure_factor(&c);
        let peak = s.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(peak, n / 2, "S(q) must peak at q = π, got index {peak}");
        // S(0) = 0 (conserved total Sz at half filling).
        assert!(s[0].abs() < 1e-9);
    }

    #[test]
    fn u1_breaking_observables_are_zero() {
        let n = 8usize;
        let (basis, _, psi, _) = ground(n);
        let val = expectation(&ls_expr::ast::sx(0), &basis, &psi).unwrap();
        assert!(val.abs() < 1e-12, "⟨Sx⟩ = {val}");
        let val = expectation(&(ls_expr::ast::splus(0) * ls_expr::ast::splus(1)), &basis, &psi)
            .unwrap();
        assert!(val.abs() < 1e-12);
    }

    #[test]
    fn total_sz_and_its_square() {
        // ⟨Σ Sz⟩ = 0 and ⟨(Σ Sz)²⟩ = 0 exactly at half filling.
        let n = 8usize;
        let (basis, _, psi, _) = ground(n);
        let total_sz = Expr::Sum((0..n as u16).map(ls_expr::ast::sz).collect());
        let v1 = expectation(&total_sz, &basis, &psi).unwrap();
        assert!(v1.abs() < 1e-12);
        let squared = total_sz.clone() * total_sz;
        let v2 = expectation(&squared, &basis, &psi).unwrap();
        assert!(v2.abs() < 1e-10, "⟨(ΣSz)²⟩ = {v2}");
    }

    #[test]
    fn distributed_expectation_matches_shared() {
        let n = 12usize;
        let (basis, _, psi, e0) = ground(n);
        // Scatter ψ into a 3-locale hashed distribution.
        let cluster = ls_runtime::Cluster::new(ls_runtime::ClusterSpec::new(3, 1));
        let dist = ls_dist::enumerate_dist(&cluster, basis.sector(), 4);
        let mut psi_d = ls_runtime::DistVec::<f64>::zeros(&dist.states().lens());
        for l in 0..3 {
            for (i, &s) in dist.states().part(l).iter().enumerate() {
                psi_d.part_mut(l)[i] = psi[basis.index_of(s).unwrap()];
            }
        }
        let bond = heisenberg_bond(0, 1);
        let shared = expectation(&bond, &basis, &psi).unwrap();
        let distributed = expectation_dist(&bond, &cluster, &dist, &psi_d).unwrap();
        assert!(
            (shared - distributed).abs() < 1e-10,
            "shared {shared} vs distributed {distributed}"
        );
        // And both reproduce E0/n.
        assert!((distributed * n as f64 - e0).abs() < 1e-8);
    }

    #[test]
    fn works_in_complex_momentum_sectors() {
        let n = 10usize;
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let group = chain_group(n, 2, None, None).unwrap();
        let sector = SectorSpec::new(n as u32, Some(5), group).unwrap();
        let (basis, op) = Operator::<Complex64>::from_expr(&expr, sector).unwrap();
        let (_, psi) = crate::eigen::ground_state(&op);
        let e_bond = expectation(&heisenberg_bond(0, 1), &basis, &psi).unwrap();
        // Bond energy must be real and negative for an AFM state.
        assert!(e_bond.im.abs() < 1e-9);
        assert!(e_bond.re < 0.0);
    }
}
