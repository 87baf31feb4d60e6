//! Integration test: the producer/consumer pipeline agrees with the
//! shared-memory serial reference for extreme staging-buffer capacities —
//! a 1-pair capacity degenerates to the naive formulation's granularity,
//! 4096 exceeds the whole off-diagonal volume so everything ships in the
//! final drain — in arrival order and in the deterministic (stashing)
//! order, which must also repeat bit for bit, on every schedule: one
//! thread per locale for all roles (`cores = 1`), a thread per role, and
//! in between.

use ls_basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_dist::matvec::{matvec_pc, PcOptions};
use ls_dist::{enumerate_dist, DistSpinBasis};
use ls_expr::builders::heisenberg;
use ls_runtime::{Cluster, ClusterSpec, DistVec};
use ls_symmetry::lattice::{chain_bonds, chain_group};

fn serial_reference(op: &SymmetrizedOperator<f64>, basis: &SpinBasis, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; basis.dim()];
    let mut row = Vec::new();
    for j in 0..basis.dim() {
        let alpha = basis.state(j);
        y[j] += op.diagonal(alpha) * x[j];
        row.clear();
        op.apply_off_diag(alpha, basis.orbit_sizes()[j], &mut row);
        for &(rep, amp) in &row {
            y[basis.index_of(rep).unwrap()] += amp * x[j];
        }
    }
    y
}

fn scatter(basis: &SpinBasis, dist: &DistSpinBasis, dense: &[f64]) -> DistVec<f64> {
    let mut out = DistVec::<f64>::zeros(&dist.states().lens());
    for l in 0..dist.n_locales() {
        for (i, &s) in dist.states().part(l).iter().enumerate() {
            out.part_mut(l)[i] = dense[basis.index_of(s).unwrap()];
        }
    }
    out
}

#[test]
fn pc_pipeline_across_batch_capacities() {
    // (sites, reflection sector, locale counts)
    let cases: [(usize, Option<i64>, &[usize]); 2] = [(12, Some(0), &[1, 3]), (10, None, &[4])];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (n, reflection, locale_counts) in cases {
        let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = chain_group(n, 0, reflection, Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector.clone());
        let x: Vec<f64> = (0..basis.dim()).map(|i| ((i as f64) * 0.73).sin() - 0.2).collect();
        let y_ref = serial_reference(&op, &basis, &x);

        // Capacity 1 with 2 + 2 roles on the one thread of each of 4
        // locales is the deadlock probe: nothing there may block.
        for (&locales, cores) in
            locale_counts.iter().flat_map(|l| [1usize, 2, 4].map(|c| (l, c)))
        {
            let cluster = Cluster::new(ClusterSpec::new(locales, cores));
            let dist = enumerate_dist(&cluster, &sector, 2);
            let xd = scatter(&basis, &dist, &x);
            // The deterministic order forces one producer and one consumer,
            // whatever is asked for.
            let tasks: [(usize, usize, bool); 3] = [(1, 1, false), (2, 2, false), (1, 1, true)];
            for capacity in [1usize, 7, 4096] {
                for (producers, consumers, deterministic) in tasks {
                    let opts = PcOptions { producers, consumers, capacity, deterministic };
                    let mut yd = DistVec::<f64>::zeros(&dist.states().lens());
                    matvec_pc(&cluster, &op, &dist, &xd, &mut yd, opts);
                    for l in 0..locales {
                        for (i, &s) in dist.states().part(l).iter().enumerate() {
                            let expect = y_ref[basis.index_of(s).unwrap()];
                            assert!(
                                (yd.part(l)[i] - expect).abs() < 1e-11,
                                "n={n} locales={locales} cores={cores} capacity={capacity} \
                                 p={producers} c={consumers} det={deterministic} state={s:#b}"
                            );
                        }
                    }
                    if deterministic {
                        // Stashed batches are applied in an order that does
                        // not depend on timing: a second product has the
                        // same bits, part by part.
                        let mut again = DistVec::<f64>::zeros(&dist.states().lens());
                        matvec_pc(&cluster, &op, &dist, &xd, &mut again, opts);
                        // Nor on the schedule: the product of one thread
                        // per locale has the same bits too.
                        let one_core = Cluster::new(ClusterSpec::new(locales, 1));
                        let mut shared = DistVec::<f64>::zeros(&dist.states().lens());
                        matvec_pc(&one_core, &op, &dist, &xd, &mut shared, opts);
                        for l in 0..locales {
                            let at = format!(
                                "n={n} locales={locales} cores={cores} capacity={capacity} part {l}"
                            );
                            assert_eq!(bits(again.part(l)), bits(yd.part(l)), "{at}");
                            assert_eq!(bits(shared.part(l)), bits(yd.part(l)), "{at}");
                        }
                    }
                }
            }
        }
    }
}
