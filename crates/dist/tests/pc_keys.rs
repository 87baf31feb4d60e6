//! Integration test: the producer/consumer product agrees with the naive
//! oracle on both kinds of wire key — sector ranks, which the owner only
//! selects (U(1) rings, spinful fermions), and states, which the owner
//! ranks by its hash index (a symmetrized ring) — on every locale count,
//! core count and channel capacity of the grid.

use ls_basis::{SectorSpec, SymmetrizedOperator};
use ls_dist::matvec::{matvec_naive, PcOptions};
use ls_dist::{enumerate_dist, DistOp};
use ls_eigen::KrylovOp;
use ls_expr::builders::heisenberg;
use ls_expr::{hubbard_1d, LocalHilbert, OperatorKernel};
use ls_runtime::{Cluster, ClusterSpec, DistVec};
use ls_symmetry::lattice::{chain_bonds, chain_group};

fn ring(n: usize) -> OperatorKernel {
    heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap()
}

#[test]
fn pc_matches_naive_on_rank_keys_and_state_keys() {
    let fermion = LocalHilbert::fermion();
    let hubbard = hubbard_1d(5, 1.0, 4.0, true).to_kernel_in(&fermion, 10).unwrap();
    let symmetrized =
        SectorSpec::new(12, Some(6), chain_group(12, 0, Some(0), Some(0)).unwrap());
    // (kernel, sector, whether the wire carries sector ranks)
    let cases = [
        (ring(12), SectorSpec::with_weight(12, 6).unwrap(), true),
        (ring(13), SectorSpec::with_weight(13, 6).unwrap(), true),
        (hubbard, SectorSpec::spinful_fermions(5, 2, 3).unwrap(), true),
        (ring(12), symmetrized.unwrap(), false),
    ];
    for (kernel, sector, rank_keys) in &cases {
        let op = SymmetrizedOperator::<f64>::new(kernel, sector).unwrap();
        for locales in [1usize, 2, 3, 5] {
            let basis = enumerate_dist(&Cluster::new(ClusterSpec::new(locales, 1)), sector, 2);
            assert_eq!(basis.ranks_in_closed_form(), *rank_keys, "{locales} locales");
            let lens = basis.states().lens();
            let x = DistVec::from_parts(
                basis
                    .states()
                    .parts()
                    .iter()
                    .map(|p| p.iter().map(|&s| ((s as f64) * 0.37).sin() - 0.1).collect())
                    .collect(),
            );
            for cores in [1usize, 2] {
                let cluster = Cluster::new(ClusterSpec::new(locales, cores));
                let mut y_ref = DistVec::<f64>::zeros(&lens);
                matvec_naive(&cluster, &op, &basis, &x, &mut y_ref);
                for capacity in [1usize, 16, 512, PcOptions::default().capacity] {
                    let mut y = DistVec::<f64>::zeros(&lens);
                    let opts = PcOptions { capacity, ..PcOptions::default() };
                    DistOp::new(&cluster, &op, &basis, opts).apply(&x, &mut y);
                    for l in 0..locales {
                        for (i, (a, b)) in y.part(l).iter().zip(y_ref.part(l)).enumerate() {
                            assert!(
                                (a - b).abs() <= 1e-12,
                                "{} sites, rank keys {rank_keys}: locales={locales} \
                                 cores={cores} capacity={capacity} locale {l} row {i}: \
                                 {a} vs {b}",
                                sector.n_sites()
                            );
                        }
                    }
                }
            }
        }
    }
}
