//! Convenience eigensolver entry points. The first four solve under
//! `LanczosOptions::default()` (`tol = 1e-10`, at most 128 retained
//! vectors) and cost the products their convergence takes: every cycle
//! is tested after each step, and stops at the step its wanted pairs
//! pass, not at the cycle's end. The energy-only ones stop when their
//! eigenvalues are done (the gap rule of `ls_eigen::restart`), the
//! ones that return Ritz vectors when the vectors' residuals are.

use crate::operator::Operator;
use ls_eigen::{
    lanczos_smallest, thick_restart_lanczos, LanczosOptions, LanczosResult, RestartOptions,
};
use ls_kernels::Scalar;

/// Ground-state energy of the operator's sector.
pub fn ground_state_energy<S: Scalar>(op: &Operator<S>) -> f64 {
    let res = lanczos_smallest(op, 1, &LanczosOptions::default());
    res.eigenvalues[0]
}

/// Ground-state energy and normalized wavefunction.
pub fn ground_state<S: Scalar>(op: &Operator<S>) -> (f64, Vec<S>) {
    let res =
        lanczos_smallest(op, 1, &LanczosOptions { want_vectors: true, ..Default::default() });
    (res.eigenvalues[0], res.eigenvectors.unwrap().remove(0))
}

/// The `k` lowest eigenvalues of the sector.
pub fn lowest_eigenvalues<S: Scalar>(op: &Operator<S>, k: usize) -> Vec<f64> {
    let res = lanczos_smallest(op, k, &LanczosOptions::default());
    res.eigenvalues
}

/// The `k` lowest eigenpairs (values + Ritz vectors) of the sector.
pub fn lowest_eigenpairs<S: Scalar>(op: &Operator<S>, k: usize) -> (Vec<f64>, Vec<Vec<S>>) {
    let res =
        lanczos_smallest(op, k, &LanczosOptions { want_vectors: true, ..Default::default() });
    (res.eigenvalues, res.eigenvectors.unwrap())
}

/// Full-control memory-bounded solve (checkpointing, custom tolerance,
/// Ritz vectors) — the facade over
/// [`ls_eigen::thick_restart_lanczos`] for [`Operator`]s.
pub fn eigensolve_restarted<S: Scalar>(
    op: &Operator<S>,
    opts: &RestartOptions,
) -> LanczosResult<S> {
    thick_restart_lanczos(op, opts)
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn four_site_ring_ground_state_is_minus_two() {
        let n = 4usize;
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let sector = SectorSpec::with_weight(n as u32, 2).unwrap();
        let (_, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
        let e0 = ground_state_energy(&op);
        assert!((e0 + 2.0).abs() < 1e-9, "E0 = {e0}");
    }

    #[test]
    fn ground_state_vector_is_eigenvector() {
        let n = 8usize;
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(4), group).unwrap();
        let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
        let (e0, psi) = ground_state(&op);
        let mut h_psi = vec![0.0; basis.dim()];
        op.apply(&psi, &mut h_psi);
        let res: f64 = h_psi
            .iter()
            .zip(&psi)
            .map(|(a, b)| (a - e0 * b) * (a - e0 * b))
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-7, "residual {res}");
    }

    #[test]
    fn eigenpairs_are_orthonormal_eigenvectors() {
        let n = 10usize;
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(5), group).unwrap();
        let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
        let (vals, vecs) = crate::eigen::lowest_eigenpairs(&op, 3);
        for (lam, v) in vals.iter().zip(&vecs) {
            let mut hv = vec![0.0; basis.dim()];
            op.apply(v, &mut hv);
            let res: f64 = hv
                .iter()
                .zip(v)
                .map(|(a, b)| (a - lam * b) * (a - lam * b))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-7, "residual {res} for {lam}");
        }
        // Orthonormality (non-degenerate levels here).
        for i in 0..vecs.len() {
            for j in 0..vecs.len() {
                let d: f64 = vecs[i].iter().zip(&vecs[j]).map(|(a, b)| a * b).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-7, "⟨{i}|{j}⟩ = {d}");
            }
        }
    }

    #[test]
    fn sector_decomposition_finds_the_global_ground_state() {
        // The true E0 lives in the k=0, R=+1, I=+1 sector for N ≡ 0 mod 4.
        let n = 8usize;
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let mut best = f64::INFINITY;
        for k in 0..n as i64 {
            let group = chain_group(n, k, None, None).unwrap();
            let sector = SectorSpec::new(n as u32, Some(4), group).unwrap();
            let e = if sector.is_real() {
                let (_, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
                ground_state_energy(&op)
            } else {
                let (_, op) = Operator::<Complex64>::from_expr(&expr, sector).unwrap();
                ground_state_energy(&op)
            };
            best = best.min(e);
        }
        // Known E0 of the 8-site Heisenberg ring: -3.651093408937176.
        assert!((best + 3.651_093_408_937).abs() < 1e-7, "E0 = {best}");
    }
}
