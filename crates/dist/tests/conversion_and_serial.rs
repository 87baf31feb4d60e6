//! Satellite coverage for the distributed layer: the layout-conversion
//! roundtrip on random small sectors, and the producer/consumer matvec
//! degenerating to the serial baseline on one locale.

use ls_basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_dist::convert::{block_to_hashed, hashed_masks, hashed_to_block, to_block};
use ls_dist::{enumerate_dist, DistOp, PcOptions};
use ls_eigen::KrylovOp;
use ls_expr::builders::xxz;
use ls_runtime::{Cluster, ClusterSpec, DistVec};
use ls_symmetry::lattice::{chain_bonds, chain_group};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `hashed_to_block ∘ block_to_hashed` is the identity on the state
    /// lists and amplitude vectors of random small sectors.
    #[test]
    fn conversion_roundtrip_on_random_sectors(
        n in 6usize..=12,
        weight_off in 0i64..=1,
        use_symmetry in any::<bool>(),
        locales in 1usize..=5,
        chunks in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let weight = (n as i64 / 2 + weight_off) as u32;
        let sector = if use_symmetry {
            let group = chain_group(n, 0, None, None).unwrap();
            SectorSpec::new(n as u32, Some(weight), group).unwrap()
        } else {
            SectorSpec::with_weight(n as u32, weight).unwrap()
        };
        let basis = SpinBasis::build(sector);
        prop_assume!(basis.dim() > 0);
        let cluster = Cluster::new(ClusterSpec::new(locales, 1));

        // Random amplitudes in canonical order, block-distributed.
        let data: Vec<f64> = (0..basis.dim())
            .map(|i| {
                let h = ls_kernels::hash64_01(seed.wrapping_add(i as u64));
                (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let states_block = to_block(basis.states(), locales);
        let masks = hashed_masks(&cluster, &states_block);
        let block = to_block(&data, locales);

        let hashed = block_to_hashed(&cluster, &block, &masks, chunks);
        let back = hashed_to_block(&cluster, &hashed, &masks, chunks);
        prop_assert_eq!(back.parts(), block.parts());

        // The redistributed states agree with the distributed enumeration.
        let states_hashed = block_to_hashed(&cluster, &states_block, &masks, chunks);
        let dist = enumerate_dist(&cluster, basis.sector(), 2);
        prop_assert_eq!(states_hashed.parts(), dist.states().parts());
    }
}

/// On one locale the producer/consumer pipeline must reproduce a plain
/// serial push matvec and the `ls-baseline` alltoall product exactly (up
/// to float accumulation order).
#[test]
fn single_locale_pc_equals_serial_baseline() {
    let n = 12usize;
    let expr = xxz(&chain_bonds(n), 1.0, 0.7);
    let kernel = expr.to_kernel(n as u32).unwrap();
    let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(6), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = SpinBasis::build(sector.clone());

    // Serial reference on the shared-memory basis.
    let x: Vec<f64> = (0..basis.dim()).map(|i| ((i as f64) * 0.61).sin()).collect();
    let mut y_serial = vec![0.0; basis.dim()];
    let mut row = Vec::new();
    for (j, xj) in x.iter().enumerate() {
        let alpha = basis.state(j);
        y_serial[j] += op.diagonal(alpha) * xj;
        row.clear();
        op.apply_off_diag(alpha, basis.orbit_sizes()[j], &mut row);
        for &(rep, amp) in &row {
            y_serial[basis.index_of(rep).unwrap()] += amp * xj;
        }
    }

    // One-locale distributed runs.
    let cluster = Cluster::new(ClusterSpec::new(1, 2));
    let dist = enumerate_dist(&cluster, &sector, 4);
    assert_eq!(dist.dim(), basis.dim() as u64);
    let mut xd = DistVec::<f64>::zeros(&dist.states().lens());
    for (i, &s) in dist.states().part(0).iter().enumerate() {
        xd.part_mut(0)[i] = x[basis.index_of(s).unwrap()];
    }

    let mut y_pc = DistVec::<f64>::zeros(&dist.states().lens());
    DistOp::new(&cluster, &op, &dist, PcOptions { capacity: 32, ..PcOptions::default() })
        .apply(&xd, &mut y_pc);
    let mut y_base = DistVec::<f64>::zeros(&dist.states().lens());
    ls_baseline::matvec_alltoall(&cluster, &op, &dist, &xd, &mut y_base);

    for (i, &s) in dist.states().part(0).iter().enumerate() {
        let expect = y_serial[basis.index_of(s).unwrap()];
        assert!(
            (y_pc.part(0)[i] - expect).abs() < 1e-11,
            "pc: state {s}: {} vs {expect}",
            y_pc.part(0)[i]
        );
        assert!(
            (y_base.part(0)[i] - expect).abs() < 1e-11,
            "baseline: state {s}: {} vs {expect}",
            y_base.part(0)[i]
        );
    }

    // With a single locale nothing may cross the (nonexistent) wire.
    cluster.reset_stats();
    let mut y = DistVec::<f64>::zeros(&dist.states().lens());
    DistOp::new(&cluster, &op, &dist, PcOptions::default()).apply(&xd, &mut y);
    assert_eq!(cluster.stats_total().puts, 0, "no remote puts on one locale");
}
