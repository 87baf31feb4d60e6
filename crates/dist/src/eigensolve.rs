//! The distributed product as a Krylov operator: every Krylov routine
//! runs **in place on distributed vectors**.
//!
//! The Krylov recurrence itself is tiny; everything expensive is the
//! matrix-vector product. [`DistOp`], the one handle for the distributed
//! product, exposes the producer/consumer product as an
//! [`ls_eigen::KrylovOp`] over [`DistVec`]. The generic routines of
//! `ls-eigen` take it as they take a shared-memory operator — the one
//! recurrence behind [`ls_eigen::lanczos_smallest_in`] and
//! [`ls_eigen::thick_restart_lanczos_in`] (which differ only in how they
//! plan its cycles), [`ls_eigen::evolve_real_time`],
//! [`ls_eigen::evolve_imaginary_time`] and
//! [`ls_eigen::spectral_coefficients`] — and run on the locale parts:
//! Krylov vectors are allocated once per solve in the hashed distribution
//! and never gathered, and reorthogonalization and `α_j = ⟨v_j, H v_j⟩`
//! run on the per-part fused BLAS-1 kernels (locale-ordered reductions —
//! the `allreduce` of a real cluster). Only matrix elements ever cross
//! locale boundaries — the paper's central claim.
//!
//! A [`DistOp`] builds one producer/consumer engine and reuses it across
//! every product, so the staging buffers are allocated exactly once per
//! solve — the buffer-reuse discipline of the paper's Sec. 5.3. Requested
//! Ritz vectors come back as [`DistVec`]s in the same distribution; gather
//! one explicitly (e.g. [`DistVec::concat`]) only if a dense copy is
//! genuinely needed. The propagators retain their full `m`-vector Krylov
//! basis, so pick `m` within the per-locale memory budget; a
//! memory-bounded eigensolve is [`dist_thick_restart_lanczos`].

use crate::basis::DistSpinBasis;
use crate::matvec::pc::PcEngine;
use crate::matvec::PcOptions;
use ls_basis::SymmetrizedOperator;
use ls_eigen::{
    thick_restart_lanczos_in, KrylovOp, KrylovVec, LanczosResultIn, RestartOptions,
};
use ls_kernels::Scalar;
use ls_runtime::{collective, Cluster, DistVec};

/// Options for [`dist_thick_restart_lanczos`] — direct control over the
/// memory-bounded solver (budget split, checkpoint/restart) on a
/// distributed sector.
#[derive(Clone, Debug, Default)]
pub struct DistRestartOptions {
    /// Thick-restart parameters (`k`, `extra`, checkpoint policy, ...).
    pub restart: RestartOptions,
    /// Producer/consumer pipeline tuning for every matrix-vector product.
    pub pc: PcOptions,
}

/// The distributed Hamiltonian as a Krylov operator over [`DistVec`]:
/// products run through the reusable producer/consumer engine, directly
/// on the parts of `x` and `y` — no scatter, no gather, no per-product
/// allocation.
///
/// Build it once and hand it to any generic Krylov routine, or call
/// [`KrylovOp::apply`] for a single product. Under the multiprocess
/// transport `new` is SPMD-collective (it builds the channel grid): every
/// rank constructs its operators in the same program order.
pub struct DistOp<'a, S: Scalar> {
    cluster: &'a Cluster,
    op: &'a SymmetrizedOperator<S>,
    basis: &'a DistSpinBasis,
    engine: PcEngine<S>,
    lens: Vec<usize>,
}

impl<'a, S: Scalar> DistOp<'a, S> {
    pub fn new(
        cluster: &'a Cluster,
        op: &'a SymmetrizedOperator<S>,
        basis: &'a DistSpinBasis,
        pc: PcOptions,
    ) -> Self {
        Self {
            cluster,
            op,
            basis,
            engine: PcEngine::new(cluster.n_locales(), pc),
            lens: basis.states().lens(),
        }
    }

    pub fn basis(&self) -> &DistSpinBasis {
        self.basis
    }
}

impl<S: Scalar> KrylovOp<DistVec<S>> for DistOp<'_, S> {
    fn dim(&self) -> usize {
        self.basis.dim() as usize
    }

    /// A zero vector in the basis's hashed distribution — the solvers'
    /// allocation hook (once per vector of a solve's first cycle, never
    /// per product; see [`KrylovOp::new_vec`]).
    fn new_vec(&self) -> DistVec<S> {
        DistVec::zeros(&self.lens)
    }

    fn apply(&self, x: &DistVec<S>, y: &mut DistVec<S>) {
        self.engine.apply(self.cluster, self.op, self.basis, x, y);
    }

    /// The trait's default — the product, then the locale-ordered
    /// [`KrylovVec::dot`] — with the `LS_FAULT` `nan` probe in between:
    /// one tick per call, and when it fires this rank's share of
    /// `⟨x, y⟩` is NaN'd through `y`, after the product's checksum
    /// verification and before the reduction. Every rank then reads the
    /// same NaN `α` and fails the same health check.
    fn apply_dot(&self, x: &DistVec<S>, y: &mut DistVec<S>) -> S {
        self.apply(x, y);
        if collective::nan_fault_fires() {
            for l in collective::hosted(y.n_locales()) {
                y.part_mut(l).fill(S::from_re(f64::NAN));
            }
        }
        x.dot(y)
    }

    fn is_hermitian(&self) -> bool {
        self.op.is_hermitian()
    }
}

/// Memory-bounded distributed eigensolve: thick-restart Lanczos over the
/// producer/consumer product, holding at most `k + extra` distributed
/// Krylov vectors (each in the hashed distribution — per-locale memory
/// is `(k + extra) · dim / locales` scalars). With a
/// [`ls_eigen::CheckpointPolicy`] in `opts.restart.checkpoint`, the
/// compressed state is written at restart boundaries in canonical global
/// element order, and a killed solve resumes **bit-identically** on the
/// same cluster shape (a different locale partition is rejected with a
/// typed error — reduction order follows the parts).
pub fn dist_thick_restart_lanczos<S: Scalar>(
    cluster: &Cluster,
    op: &SymmetrizedOperator<S>,
    basis: &DistSpinBasis,
    opts: &DistRestartOptions,
) -> LanczosResultIn<DistVec<S>> {
    let dist_op = DistOp::new(cluster, op, basis, opts.pc);
    thick_restart_lanczos_in(&dist_op, &opts.restart)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::enumerate_dist;
    use ls_basis::SectorSpec;
    use ls_expr::builders::heisenberg;
    use ls_runtime::ClusterSpec;
    use ls_symmetry::lattice::{chain_bonds, chain_group};

    #[test]
    fn ground_state_energy_of_the_12_ring() {
        let n = 12usize;
        let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(6), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let mut energies = Vec::new();
        for locales in [1usize, 3] {
            let cluster = Cluster::new(ClusterSpec::new(locales, 1));
            let basis = enumerate_dist(&cluster, &sector, 2);
            let dist_op = DistOp::new(&cluster, &op, &basis, PcOptions::default());
            let res = ls_eigen::lanczos_smallest_in(&dist_op, 1, &Default::default());
            assert!(res.converged);
            energies.push(res.eigenvalues[0]);
        }
        // Known E0 of the 12-site Heisenberg ring (fully symmetric sector).
        assert!((energies[0] + 5.387_390_917_445).abs() < 1e-6, "E0 = {}", energies[0]);
        assert!((energies[0] - energies[1]).abs() < 1e-9);
    }
}
