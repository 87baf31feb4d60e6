//! Distributed Lanczos, running **in place on distributed vectors**.
//!
//! The Krylov recurrence itself is tiny; everything expensive is the
//! matrix-vector product. [`DistOp`] exposes the producer/consumer
//! product as an [`ls_eigen::KrylovOp`] over [`DistVec`], so the one
//! generic recurrence of `ls-eigen` — behind both
//! [`ls_eigen::lanczos_smallest_in`] and
//! [`ls_eigen::thick_restart_lanczos_in`], which differ only in how they
//! plan its cycles — runs on the locale parts: Krylov vectors are allocated once per solve in
//! the hashed distribution and never gathered, and reorthogonalization
//! and `α_j = ⟨v_j, H v_j⟩` run on the per-part fused BLAS-1 kernels
//! (locale-ordered reductions — the `allreduce` of a real cluster). Only
//! matrix elements ever cross locale boundaries — the paper's central
//! claim. (Earlier
//! revisions gathered every Krylov vector into one node-local buffer and
//! re-scattered it around each product, capping the solver at
//! single-node memory and adding O(dim) copies per iteration.)
//!
//! One [`PcEngine`] is reused across all iterations, so the staging
//! buffers are allocated exactly once per solve — the buffer-reuse
//! discipline of the paper's Sec. 5.3. Requested Ritz vectors come back
//! as [`DistVec`]s in the same distribution; gather one explicitly (e.g.
//! [`DistVec::concat`]) only if a dense copy is genuinely needed.

use crate::basis::DistSpinBasis;
use crate::matvec::pc::PcEngine;
use crate::matvec::PcOptions;
use ls_basis::SymmetrizedOperator;
use ls_eigen::{
    lanczos_smallest_in, thick_restart_lanczos_in, KrylovOp, KrylovVec, LanczosOptions,
    LanczosResultIn, RestartOptions,
};
use ls_kernels::Scalar;
use ls_runtime::{collective, Cluster, DistVec};

/// Options for [`dist_lanczos_smallest`].
#[derive(Clone, Debug, Default)]
pub struct DistLanczosOptions {
    /// The inner Krylov iteration (tolerance, max iterations, seed,
    /// retained-basis budget, checkpoint policy, ...), planned exactly
    /// as for a shared-memory solve: one cycle keeping every (distributed)
    /// Krylov vector when `max_iter` fits `max_retained`, thick-restart
    /// cycles cut to that budget when it does not.
    pub lanczos: LanczosOptions,
    /// Producer/consumer pipeline tuning for every matrix-vector product.
    pub pc: PcOptions,
}

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

/// Result of a distributed Lanczos run: Ritz vectors (when requested)
/// stay in the hashed distribution.
pub type DistLanczosResult<S> = LanczosResultIn<DistVec<S>>;

/// The distributed Hamiltonian as a Krylov operator over [`DistVec`]:
/// products run through the reusable producer/consumer engine, directly
/// on the parts of `x` and `y` — no scatter, no gather, no per-product
/// allocation.
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

/// Computes the `k` smallest eigenpairs of `op` over the distributed
/// basis, running every matrix-vector product through the
/// producer/consumer pipeline on `cluster` and the whole Krylov
/// recurrence in place on distributed vectors. No full-vector
/// gather/scatter happens anywhere — requested eigenvectors are returned
/// distributed.
pub fn dist_lanczos_smallest<S: Scalar>(
    cluster: &Cluster,
    op: &SymmetrizedOperator<S>,
    basis: &DistSpinBasis,
    k: usize,
    opts: &DistLanczosOptions,
) -> DistLanczosResult<S> {
    let dist_op = DistOp::new(cluster, op, basis, opts.pc);
    lanczos_smallest_in(&dist_op, k, &opts.lanczos)
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
) -> DistLanczosResult<S> {
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
            let res = dist_lanczos_smallest(&cluster, &op, &basis, 1, &Default::default());
            assert!(res.converged);
            energies.push(res.eigenvalues[0]);
        }
        // Known E0 of the 12-site Heisenberg ring (fully symmetric sector).
        assert!((energies[0] + 5.387_390_917_445).abs() < 1e-6, "E0 = {}", energies[0]);
        assert!((energies[0] - energies[1]).abs() < 1e-9);
    }
}
