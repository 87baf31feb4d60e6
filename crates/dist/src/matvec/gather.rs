//! The gather (pull-style) matrix-vector product: every locale replicates
//! `x` through one-sided RMA reads, then computes its own rows locally.
//!
//! This is the communication pattern the push-style pipeline
//! ([`crate::matvec::pc`]) was built to avoid — each
//! product moves `O(dim)` bytes per locale instead of `O(matrix
//! elements that cross a boundary)` — but it earns its keep twice:
//!
//! * as the **baseline** the paper's buffering strategies are measured
//!   against (it returns the bytes it gathered);
//! * as the solve mode that exercises the **window read path** end to
//!   end: under the multiprocess transport every product opens a
//!   [`RmaReadWindow`], whose parts arrive in one collective exchange —
//!   CRC-sealed frames under `LS_INTEGRITY`. A `flip-bit` fault on
//!   collective frames therefore lands inside a product mid-solve, and
//!   is detected inside an ordinary Lanczos iteration, which is exactly
//!   what the chaos tests need (the producer/consumer engine never opens
//!   a window, so this path is otherwise dark in a solve).
//!
//! The pull formulation generates matrix elements from the *row* side:
//! for an own state `α_i`, [`SymmetrizedOperator::apply_off_diag`]
//! yields the column entries `H[rep, α_i]`; Hermiticity turns them into
//! the row entries `H[α_i, rep] = conj(H[rep, α_i])` this locale needs.
//! The operator must be Hermitian — asserted, since the Krylov solvers
//! require it anyway.

use crate::basis::DistSpinBasis;
use crate::matvec::validate_shapes;
use ls_basis::SymmetrizedOperator;
use ls_eigen::KrylovOp;
use ls_kernels::Scalar;
use ls_runtime::{Cluster, DistVec, RmaReadWindow};
use std::sync::atomic::{AtomicU64, Ordering};

/// `y = H x` by full replication: each locale gathers every part of `x`
/// through a read window, then fills its own part of `y` row by row.
/// Returns the number of bytes gathered (summed over the locales this
/// process ran — under the multiprocess transport, its own rank only).
///
/// # Panics
/// Panics when the shapes do not match the basis distribution or when
/// `op` is not Hermitian (the pull formulation relies on `H = H†`).
pub fn matvec_gather<S: Scalar>(
    cluster: &Cluster,
    op: &SymmetrizedOperator<S>,
    basis: &DistSpinBasis,
    x: &DistVec<S>,
    y: &mut DistVec<S>,
) -> u64 {
    validate_shapes(cluster, basis, x, y);
    assert!(op.is_hermitian(), "the gather matvec pulls rows via H = H†");
    let lens: Vec<usize> = x.parts().iter().map(Vec::len).collect();
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    offsets.push(0usize);
    for &l in &lens {
        offsets.push(offsets.last().unwrap() + l);
    }
    let dim = *offsets.last().unwrap();
    // Opening the window is collective under the multiprocess transport
    // (allgathers the parts).
    let win = RmaReadWindow::new(x);
    let results = cluster.run(|ctx| {
        let me = ctx.locale();
        // The full replica: remote parts arrive through `get`, which
        // under the multiprocess transport copies from the window's
        // snapshot of the owners' parts.
        let mut xg: Vec<S> = vec![S::ZERO; dim];
        let mut gathered = 0u64;
        for (src, &len) in lens.iter().enumerate() {
            if len == 0 {
                continue;
            }
            win.get(ctx, src, 0, &mut xg[offsets[src]..offsets[src] + len]);
            if src != me {
                gathered += (len * std::mem::size_of::<S>()) as u64;
            }
        }
        let states = basis.states().part(me);
        let orbits = basis.orbit_sizes().part(me);
        let mut out: Vec<S> = Vec::with_capacity(states.len());
        let mut row = Vec::with_capacity(op.max_row_entries());
        for (i, (&alpha, &orbit)) in states.iter().zip(orbits).enumerate() {
            let mut acc = op.diagonal(alpha) * xg[offsets[me] + i];
            row.clear();
            op.apply_off_diag(alpha, orbit, &mut row);
            for &(rep, amp) in &row {
                let src = basis.owner(rep);
                let j = basis.index_on(src, rep).expect("state missing from the basis");
                // `amp` is H[rep, α_i]; the row entry we need is its
                // conjugate.
                acc += amp.conj() * xg[offsets[src] + j];
            }
            out.push(acc);
        }
        (me, out, gathered)
    });
    drop(win);
    let mut total = 0u64;
    for (l, part, gathered) in results {
        y.part_mut(l).copy_from_slice(&part);
        total += gathered;
    }
    total
}

/// The gather matvec as a Krylov operator over [`DistVec`] — the adapter
/// the chaos tests drive a full thick-restart solve through, so every
/// iteration crosses the window read path.
pub struct GatherOp<'a, S: Scalar> {
    cluster: &'a Cluster,
    op: &'a SymmetrizedOperator<S>,
    basis: &'a DistSpinBasis,
    lens: Vec<usize>,
    gathered_bytes: AtomicU64,
}

impl<'a, S: Scalar> GatherOp<'a, S> {
    pub fn new(
        cluster: &'a Cluster,
        op: &'a SymmetrizedOperator<S>,
        basis: &'a DistSpinBasis,
    ) -> Self {
        Self {
            cluster,
            op,
            basis,
            lens: basis.states().lens(),
            gathered_bytes: AtomicU64::new(0),
        }
    }

    /// Bytes gathered across all applies so far (this process's locales).
    pub fn gathered_bytes(&self) -> u64 {
        self.gathered_bytes.load(Ordering::Relaxed)
    }
}

impl<S: Scalar> KrylovOp<DistVec<S>> for GatherOp<'_, S> {
    fn dim(&self) -> usize {
        self.basis.dim() as usize
    }

    fn new_vec(&self) -> DistVec<S> {
        DistVec::zeros(&self.lens)
    }

    fn apply(&self, x: &DistVec<S>, y: &mut DistVec<S>) {
        let gathered = matvec_gather(self.cluster, self.op, self.basis, x, y);
        self.gathered_bytes.fetch_add(gathered, Ordering::Relaxed);
    }

    fn is_hermitian(&self) -> bool {
        self.op.is_hermitian()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::enumerate_dist;
    use crate::matvec::matvec_naive;
    use ls_basis::SectorSpec;
    use ls_expr::builders::heisenberg;
    use ls_runtime::ClusterSpec;
    use ls_symmetry::lattice::{chain_bonds, chain_group};

    fn setup(
        n: usize,
        locales: usize,
    ) -> (Cluster, SymmetrizedOperator<f64>, DistSpinBasis, DistVec<f64>) {
        let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let cluster = Cluster::new(ClusterSpec::new(locales, 1));
        let basis = enumerate_dist(&cluster, &sector, 2);
        let x = DistVec::from_parts(
            basis
                .states()
                .parts()
                .iter()
                .map(|p| p.iter().map(|&s| ((s as f64) * 0.19).sin()).collect())
                .collect(),
        );
        (cluster, op, basis, x)
    }

    #[test]
    fn gather_matches_the_push_formulation() {
        for locales in [1usize, 3] {
            let (cluster, op, basis, x) = setup(12, locales);
            let lens = basis.states().lens();
            let mut y_pull = DistVec::<f64>::zeros(&lens);
            let gathered = matvec_gather(&cluster, &op, &basis, &x, &mut y_pull);
            let mut y_push = DistVec::<f64>::zeros(&lens);
            matvec_naive(&cluster, &op, &basis, &x, &mut y_push);
            for l in 0..locales {
                for (a, b) in y_pull.part(l).iter().zip(y_push.part(l)) {
                    assert!((a - b).abs() < 1e-11, "locales={locales}");
                }
            }
            // Every locale replicates every *other* part.
            let remote: usize = (0..locales)
                .map(|me| {
                    lens.iter()
                        .enumerate()
                        .filter(|&(l, _)| l != me)
                        .map(|(_, n)| n)
                        .sum::<usize>()
                })
                .sum();
            assert_eq!(gathered, (remote * std::mem::size_of::<f64>()) as u64);
        }
    }

    #[test]
    fn gather_op_counts_bytes_and_solves() {
        let (cluster, op, basis, x) = setup(10, 2);
        let gop = GatherOp::new(&cluster, &op, &basis);
        let mut y = gop.new_vec();
        gop.apply(&x, &mut y);
        assert!(gop.gathered_bytes() > 0);
        // And the solver runs through it: same ground state as the
        // producer/consumer path.
        let res = ls_eigen::lanczos_smallest_in(&gop, 1, &Default::default());
        let pc_op = crate::DistOp::new(&cluster, &op, &basis, Default::default());
        let pc_res = ls_eigen::lanczos_smallest_in(&pc_op, 1, &Default::default());
        assert!(res.converged);
        assert!((res.eigenvalues[0] - pc_res.eigenvalues[0]).abs() < 1e-8);
    }
}
