//! Property-based integration tests over the whole stack.

mod common;

use exact_diag::basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use exact_diag::core::matvec::{
    apply_batched_pull_pooled, apply_pull_pooled, apply_serial_pooled, MatvecScratchPool,
};
use exact_diag::dist::convert::{block_to_hashed, hashed_to_block, to_block};
use exact_diag::prelude::*;
use exact_diag::runtime::{Cluster, ClusterSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random XXZ couplings in random real sectors: the serial oracle, the
    /// scalar gather and the batched engine agree on random vectors.
    #[test]
    fn matvec_strategies_agree_on_random_xxz(
        jxy in 0.1f64..3.0,
        delta in -2.0f64..2.0,
        k_choice in 0usize..2,
        seed in any::<u64>(),
    ) {
        let n = 10usize;
        let k = if k_choice == 0 { 0 } else { n as i64 / 2 };
        let expr = xxz(&chain_bonds(n), jxy, delta);
        let kernel = expr.to_kernel(n as u32).unwrap();
        let group = chain_group(n, k, None, None).unwrap();
        let sector = SectorSpec::new(n as u32, Some(5), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector);
        let x = common::random_vec(basis.dim(), seed);
        let mut y1 = vec![0.0; basis.dim()];
        let mut y2 = vec![0.0; basis.dim()];
        let mut y3 = vec![0.0; basis.dim()];
        apply_serial_pooled(&op, &basis, &x, &mut y1, &MatvecScratchPool::new());
        apply_pull_pooled(&op, &basis, &x, &mut y2, &MatvecScratchPool::new());
        apply_batched_pull_pooled(&op, &basis, &x, &mut y3, &MatvecScratchPool::new());
        for i in 0..basis.dim() {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-10);
            prop_assert!((y1[i] - y3[i]).abs() < 1e-10);
        }
    }

    /// Arbitrary masks (not just hash-based): block→hashed→block is the
    /// identity, for any locale count and chunking.
    #[test]
    fn conversion_roundtrip_arbitrary_masks(
        data in proptest::collection::vec(any::<u64>(), 0..300),
        locales in 1usize..6,
        chunks in 1usize..9,
        mask_seed in any::<u64>(),
    ) {
        let masks: Vec<u16> = (0..data.len())
            .map(|i| {
                (ls_kernels::hash64_01(mask_seed.wrapping_add(i as u64))
                    % locales as u64) as u16
            })
            .collect();
        let cluster = Cluster::new(ClusterSpec::new(locales, 1));
        let block = to_block(&data, locales);
        let mask_block = to_block(&masks, locales);
        let hashed = block_to_hashed(&cluster, &block, &mask_block, chunks);
        let back = hashed_to_block(&cluster, &hashed, &mask_block, chunks + 1);
        prop_assert_eq!(back.parts(), block.parts());
        // Order preservation within each destination:
        for l in 0..locales {
            let expect: Vec<u64> = data
                .iter()
                .zip(&masks)
                .filter(|&(_, &m)| m as usize == l)
                .map(|(&d, _)| d)
                .collect();
            prop_assert_eq!(hashed.part(l), &expect[..]);
        }
    }

    /// The Hamiltonian is Hermitian in every sector: ⟨x, H y⟩ = ⟨H x, y⟩
    /// for random vectors, including complex momentum sectors.
    #[test]
    fn hermiticity_in_random_sectors(k in 0i64..10, seed in any::<u64>()) {
        let n = 10usize;
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let kernel = expr.to_kernel(n as u32).unwrap();
        let group = chain_group(n, k, None, None).unwrap();
        let sector = SectorSpec::new(n as u32, Some(5), group).unwrap();
        let op = SymmetrizedOperator::<Complex64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector);
        let dim = basis.dim();
        prop_assume!(dim > 0);
        let rand_c = |off: u64| -> Vec<Complex64> {
            (0..dim)
                .map(|i| {
                    let a = ls_kernels::hash64_01(seed ^ off ^ (i as u64));
                    let b = ls_kernels::hash64_01(a);
                    Complex64::new(
                        (a >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                        (b >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                    )
                })
                .collect()
        };
        let x = rand_c(0xAAAA);
        let y = rand_c(0x5555);
        let mut hx = vec![Complex64::ZERO; dim];
        let mut hy = vec![Complex64::ZERO; dim];
        apply_serial_pooled(&op, &basis, &x, &mut hx, &MatvecScratchPool::new());
        apply_serial_pooled(&op, &basis, &y, &mut hy, &MatvecScratchPool::new());
        let lhs: Complex64 = x.iter().zip(&hy).map(|(a, b)| a.conj() * *b).sum();
        let rhs: Complex64 = hx.iter().zip(&y).map(|(a, b)| a.conj() * *b).sum();
        prop_assert!(lhs.approx_eq(rhs, 1e-9), "{lhs:?} vs {rhs:?}");
    }

    /// Parseval-style sanity: applying H twice equals applying the dense
    /// square for tiny systems.
    #[test]
    fn h_squared_consistency(delta in -1.5f64..1.5) {
        let n = 6usize;
        let expr = xxz(&chain_bonds(n), 1.0, delta);
        let kernel = expr.to_kernel(n as u32).unwrap();
        let sector = SectorSpec::with_weight(n as u32, 3).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector);
        let dim = basis.dim();
        let x: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.7).sin()).collect();
        // (H(Hx)) via kernel vs dense H² x.
        let mut hx = vec![0.0; dim];
        apply_serial_pooled(&op, &basis, &x, &mut hx, &MatvecScratchPool::new());
        let mut hhx = vec![0.0; dim];
        apply_serial_pooled(&op, &basis, &hx, &mut hhx, &MatvecScratchPool::new());
        let dense = op.to_dense(&basis);
        for (row, hh) in dense.iter().zip(&hhx) {
            let mut acc = 0.0;
            for (hij, col) in row.iter().zip(&dense) {
                let mut hjx = 0.0;
                for (hjl, xl) in col.iter().zip(&x) {
                    hjx += hjl * xl;
                }
                acc += hij * hjx;
            }
            prop_assert!((acc - hh).abs() < 1e-9);
        }
    }
}
