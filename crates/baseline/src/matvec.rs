//! The bulk-synchronous (SPINPACK-style) matrix-vector product.

use crate::collective::alltoallv;
use ls_basis::SymmetrizedOperator;
use ls_dist::DistSpinBasis;
use ls_kernels::Scalar;
use ls_runtime::{Cluster, DistVec};

/// `y = H x` with full materialization and a collective exchange.
///
/// Phase structure (no overlap anywhere):
/// generate → barrier → alltoallv → barrier → accumulate.
pub fn matvec_alltoall<S: Scalar>(
    cluster: &Cluster,
    op: &SymmetrizedOperator<S>,
    basis: &DistSpinBasis,
    x: &DistVec<S>,
    y: &mut DistVec<S>,
) {
    let locales = cluster.n_locales();
    assert_eq!(x.n_locales(), locales);
    assert_eq!(y.n_locales(), locales);
    for l in 0..locales {
        assert_eq!(x.part(l).len(), basis.local_dim(l));
        assert_eq!(y.part(l).len(), basis.local_dim(l));
    }

    // Phase 1: generate everything. The per-locale buckets hold the whole
    // outgoing volume at once — the memory high-water mark SPINPACK pays.
    let buckets: Vec<Vec<Vec<(u64, S)>>> = cluster.run(|ctx| {
        let me = ctx.locale();
        let states = basis.states().part(me);
        let orbits = basis.orbit_sizes().part(me);
        let x_local = x.part(me);
        let mut out: Vec<Vec<(u64, S)>> = vec![Vec::new(); locales];
        let mut row = Vec::with_capacity(op.max_row_entries());
        for (j, (&alpha, &orbit)) in states.iter().zip(orbits).enumerate() {
            // Diagonal contribution is local; buffer it with the rest so
            // the accumulate phase is uniform.
            let d = op.diagonal(alpha);
            if d != S::ZERO {
                out[me].push((alpha, d * x_local[j]));
            }
            row.clear();
            op.apply_off_diag(alpha, orbit, &mut row);
            for &(rep, amp) in &row {
                let dest = ls_kernels::locale_idx_of(rep, locales);
                out[dest].push((rep, amp * x_local[j]));
            }
        }
        ctx.barrier_wait();
        out
    });

    // Phases 2-4: collective exchange (synchronizing).
    let received = alltoallv(cluster, &buckets);

    // Phase 5: rank + accumulate, purely local, no overlap with comm.
    // Ranking runs through the bulk kernel — even the bulk-synchronous
    // baseline benefits from batched lookups once the data is local.
    let y_parts: Vec<Vec<S>> = cluster.run(|ctx| {
        let me = ctx.locale();
        let mut y_local = vec![S::ZERO; basis.local_dim(me)];
        let pairs = received.part(me);
        let needles: Vec<u64> = pairs.iter().map(|&(s, _)| s).collect();
        let mut idx = Vec::new();
        basis.index_on_batch(me, &needles, &mut idx);
        for (&(rep, coeff), &i) in pairs.iter().zip(&idx) {
            let i = if i != ls_kernels::search::NOT_FOUND {
                i as usize
            } else {
                basis.index_on_present(me, rep)
            };
            y_local[i] += coeff;
        }
        ctx.barrier_wait();
        y_local
    });
    for (l, part) in y_parts.into_iter().enumerate() {
        *y.part_mut(l) = part;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_basis::SectorSpec;
    use ls_dist::enumerate_dist;
    use ls_dist::matvec::{matvec_naive, PcOptions};
    use ls_dist::DistOp;
    use ls_eigen::KrylovOp;
    use ls_expr::builders::heisenberg;
    use ls_runtime::ClusterSpec;
    use ls_symmetry::lattice;

    fn setup(
        n: usize,
        locales: usize,
    ) -> (Cluster, SymmetrizedOperator<f64>, DistSpinBasis, DistVec<f64>) {
        let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let cluster = Cluster::new(ClusterSpec::new(locales, 1));
        let basis = enumerate_dist(&cluster, &sector, 3);
        let mut x = DistVec::<f64>::zeros(&basis.states().lens());
        for l in 0..locales {
            for (i, s) in basis.states().part(l).iter().enumerate() {
                x.part_mut(l)[i] = ((*s as f64) * 0.21).sin() - 0.3;
            }
        }
        (cluster, op, basis, x)
    }

    #[test]
    fn agrees_with_async_implementations() {
        for locales in [1usize, 2, 4] {
            let (cluster, op, basis, x) = setup(12, locales);
            let lens = basis.states().lens();
            let mut y_base = DistVec::<f64>::zeros(&lens);
            matvec_alltoall(&cluster, &op, &basis, &x, &mut y_base);
            let mut y_naive = DistVec::<f64>::zeros(&lens);
            matvec_naive(&cluster, &op, &basis, &x, &mut y_naive);
            let mut y_pc = DistVec::<f64>::zeros(&lens);
            DistOp::new(&cluster, &op, &basis, PcOptions::default()).apply(&x, &mut y_pc);
            for l in 0..locales {
                for ((base, naive), pc) in
                    y_base.part(l).iter().zip(y_naive.part(l)).zip(y_pc.part(l))
                {
                    assert!((base - naive).abs() < 1e-11);
                    assert!((base - pc).abs() < 1e-11);
                }
            }
        }
    }

    #[test]
    fn is_bulk_synchronous() {
        let (cluster, op, basis, x) = setup(10, 3);
        let mut y = DistVec::<f64>::zeros(&basis.states().lens());
        cluster.reset_stats();
        matvec_alltoall(&cluster, &op, &basis, &x, &mut y);
        let s = cluster.stats_total();
        // Barriers: generate (1/locale) + alltoallv (2/locale) +
        // accumulate (1/locale) + allreduce-free = 4 per locale.
        assert_eq!(s.barriers, 4 * 3);
        assert!(s.puts > 0);
    }
}
