//! Property tests pinning the batched matvec engine to its scalar
//! reference, bit for bit.
//!
//! The engine is built to perform the identical floating-point
//! operations in the identical order as the scalar gather
//! (`apply_pull_pooled`; per output element: diagonal, then channels in
//! ascending order). These tests therefore assert *equality*, not
//! tolerance — any reordering regression fails immediately — on every
//! sector family the engine has a distinct path for, and agreement with
//! the `Serial` oracle to rounding.

use exact_diag::basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use exact_diag::core::matvec::{
    apply_batched_pull_dot_pooled, apply_batched_pull_pooled, apply_pull_pooled,
    apply_serial_pooled, MatvecScratchPool,
};
use exact_diag::expr::ast::{annihilate, create, number};
use exact_diag::prelude::*;
use ls_kernels::search::PrefixIndex;
use ls_kernels::SiteEncoding;
use proptest::prelude::*;

fn random_vec(dim: usize, seed: u64) -> Vec<f64> {
    (0..dim)
        .map(|i| {
            let h = ls_kernels::hash64_01(seed.wrapping_add(i as u64));
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Engine ≡ scalar gather bit for bit (with and without the fused
/// matvec+dot epilogue), engine ≈ `Serial` to 1e-10, for `expr` compiled
/// against `sector`'s local Hilbert space — under the ranking the basis
/// chose (`closed_form` says which, and with it whether the engine takes
/// the closed-form row pass on a trivial group), and every rank those
/// products resolved is the one prefix buckets over the same list give.
fn check_engine<S: Scalar>(
    expr: &Expr,
    sector: SectorSpec,
    closed_form: bool,
    seed: u64,
) -> Result<(), String> {
    let hilbert = LocalHilbert::from_encoding(sector.encoding());
    let kernel = expr.to_kernel_in(&hilbert, sector.n_sites()).unwrap();
    let op = SymmetrizedOperator::<S>::new(&kernel, &sector).unwrap();
    let basis = SpinBasis::build(sector);
    prop_assert_eq!(basis.ranks_in_closed_form(), closed_form);
    let dim = basis.dim();
    let x: Vec<S> = random_vec(dim, seed)
        .into_iter()
        .zip(random_vec(dim, !seed))
        .map(|(re, im)| S::from_reals([re, im]))
        .collect();

    let pool = MatvecScratchPool::new();
    let mut y_serial = vec![S::ZERO; dim];
    let mut y_pull = vec![S::ZERO; dim];
    let mut y_engine = vec![S::ZERO; dim];
    apply_serial_pooled(&op, &basis, &x, &mut y_serial, &pool);
    apply_pull_pooled(&op, &basis, &x, &mut y_pull, &pool);
    apply_batched_pull_pooled(&op, &basis, &x, &mut y_engine, &pool);

    for i in 0..dim {
        prop_assert_eq!(y_engine[i], y_pull[i], "engine vs scalar gather at {}", i);
        prop_assert!(
            y_engine[i].approx_eq(y_serial[i], 1e-10),
            "engine vs serial at {}: {:?} vs {:?}",
            i,
            y_engine[i],
            y_serial[i]
        );
    }
    let mut y_dot = vec![S::ZERO; dim];
    let dot = apply_batched_pull_dot_pooled(&op, &basis, &x, &mut y_dot, &pool);
    prop_assert_eq!(&y_dot, &y_engine, "the dot epilogue moved the product");
    let expect: S = x.iter().zip(&y_engine).map(|(&a, &b)| a.conj() * b).sum();
    let scale = expect.abs_sqr().sqrt().max(1.0);
    prop_assert!(dot.approx_eq(expect, 1e-12 * scale), "dot {:?} vs {:?}", dot, expect);
    let states = basis.states();
    let buckets = PrefixIndex::auto(states, basis.sector().code_bits());
    let (mut own, mut searched) = (Vec::new(), Vec::new());
    basis.index_of_batch(states, &mut own);
    buckets.lookup_batch(states, states, &mut searched);
    prop_assert_eq!(&own, &(0..dim as u32).collect::<Vec<_>>());
    prop_assert_eq!(&searched, &own, "prefix buckets vs the basis's ranking");
    Ok(())
}

/// 16 sites: bases of a few hundred representatives, so one product of
/// the engine takes the differential group walk over many tiles of source
/// rows and a partial last one (|G| = 64: 48 rows a tile; |G| = 16: 192).
#[test]
fn sixteen_site_products_span_many_tiles() {
    let n = 16usize;
    let expr = xxz(&chain_bonds(n), 1.3, 0.7);
    let chain = |momentum, reflection, inversion| {
        let group = chain_group(n, momentum, reflection, inversion).unwrap();
        SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap()
    };
    let full = chain(0, Some(0), Some(0));
    check_engine::<f64>(&expr, full, false, 0x5eed).unwrap();
    // Complex characters, zero-norm orbits skipped.
    let k1 = chain(1, None, None);
    check_engine::<Complex64>(&expr, k1, false, 0x5eed).unwrap();
}

/// U(1) spin sectors through the closed-form row pass: rings (the wrap
/// bond is a span of its own in the mask loop), J1-J2 (second
/// neighbours) and a 6 × 6 square (72 bonds: two groups of mask tests).
/// Spinful and spinless fermions take the same pass with Jordan-Wigner
/// strings, in the tests below.
#[test]
fn row_pass_covers_u1_lattices() {
    for (n, weight) in [(12u32, 6u32), (13, 5)] {
        let ring = xxz(&chain_bonds(n as usize), 0.9, 1.3);
        check_engine::<f64>(&ring, SectorSpec::with_weight(n, weight).unwrap(), true, 41)
            .unwrap();
    }
    let j1j2 = heisenberg(&exact_diag::symmetry::lattice::triangular_ladder_bonds(12), 1.0)
        + Expr::scalar(0.4) * heisenberg(&chain_bonds(12), 1.0);
    check_engine::<f64>(&j1j2, SectorSpec::with_weight(12, 6).unwrap(), true, 42).unwrap();
    let square = heisenberg(&square_bonds(6, 6), 1.0);
    check_engine::<f64>(&square, SectorSpec::with_weight(36, 3).unwrap(), true, 43).unwrap();
    check_engine::<Complex64>(&square, SectorSpec::with_weight(36, 2).unwrap(), true, 44)
        .unwrap();
}

/// Spinful fermions at the edges of the product layout: many blocks and
/// chunks, unbalanced and single-configuration species, `sites·bits ==
/// 64`, open and periodic chains, real and complex amplitudes.
#[test]
fn fused_pass_spans_the_product_layout() {
    let ring = |n: u32| hubbard_1d(n as usize, 1.0, 4.0, true);
    // C(10, 5)² = 63 504 rows: dozens of blocks, several chunks.
    let big = SectorSpec::spinful_fermions(10, 5, 5).unwrap();
    check_engine::<f64>(&ring(10), big, true, 0xf00d).unwrap();
    for (n, up, down) in [(7, 0, 3), (5, 5, 2), (32, 1, 1)] {
        let sector = SectorSpec::spinful_fermions(n, up, down).unwrap();
        check_engine::<f64>(&ring(n), sector, true, u64::from(n)).unwrap();
    }
    for periodic in [false, true] {
        let chain = hubbard_1d(7, 0.8, 2.5, periodic);
        let sector = SectorSpec::spinful_fermions(7, 4, 2).unwrap();
        check_engine::<f64>(&chain, sector.clone(), true, 11).unwrap();
        check_engine::<Complex64>(&chain, sector, true, 12).unwrap();
    }
}

/// Spinless fermions on a ring: one species whose closure bond carries a
/// Jordan-Wigner string.
#[test]
fn fused_pass_signs_a_spinless_fermion_ring() {
    let n = 12u16;
    let ring = Expr::Sum(
        (0..n)
            .flat_map(|i| {
                let j = (i + 1) % n;
                [fermion_hop(i, j, 1.0), Expr::scalar(1.5) * number(i) * number(j)]
            })
            .collect(),
    );
    let sector = SectorSpec::with_encoding(n as u32, SiteEncoding::fermion(), Some(5)).unwrap();
    check_engine::<f64>(&ring, sector.clone(), true, 21).unwrap();
    check_engine::<Complex64>(&ring, sector, true, 22).unwrap();
}

/// `c†_{i↑} c_{i↓} c†_{j↓} c_{j↑} + h.c.` conserves both species' counts
/// but flips bits of both: its destination rank sums two species' deltas.
#[test]
fn fused_pass_sums_a_flip_across_species() {
    let n = 6u16;
    let spin_flip = |i: u16, j: u16| {
        let (iu, id, ju, jd) = (i, n + i, j, n + j);
        Expr::scalar(0.7)
            * (create(iu) * annihilate(id) * create(jd) * annihilate(ju)
                + create(ju) * annihilate(jd) * create(id) * annihilate(iu))
    };
    let mut terms = vec![hubbard_1d(n as usize, 1.0, 4.0, true)];
    terms.extend((0..n).map(|i| spin_flip(i, (i + 1) % n)));
    terms.push(spin_flip(0, 3));
    let expr = Expr::Sum(terms);
    let fermion = LocalHilbert::fermion();
    let kernel = expr.to_kernel_in(&fermion, 2 * n as u32).unwrap();
    let up = (1u64 << n) - 1;
    let crosses = |c: &&exact_diag::expr::Channel| {
        let f = c.flip_mask();
        f & up != 0 && f & !up != 0
    };
    assert!(kernel.channels().iter().filter(crosses).any(|c| c.sign != 0));
    let sector = SectorSpec::spinful_fermions(n as u32, 3, 3).unwrap();
    check_engine::<f64>(&expr, sector.clone(), true, 31).unwrap();
    check_engine::<Complex64>(&expr, sector, true, 32).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random couplings on every sector family the engine has a distinct
    /// path for — with and without symmetries, real and complex
    /// characters, spin-1/2, spinful fermions and spin-1: the engine is the
    /// bit-exact twin of the scalar gather and agrees with `Serial` to
    /// rounding.
    #[test]
    fn batched_strategies_bitexact(
        jxy in 0.1f64..3.0,
        delta in -2.0f64..2.0,
        n_choice in 0usize..3,
        seed in any::<u64>(),
    ) {
        let n = [8usize, 10, 12][n_choice];
        let spin_half = xxz(&chain_bonds(n), jxy, delta);
        let chain = |momentum, reflection, inversion| {
            let group = chain_group(n, momentum, reflection, inversion).unwrap();
            SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap()
        };
        // U(1)-only: combinadic ranking, the differential-ranking fused
        // path.
        let u1 = SectorSpec::with_weight(n as u32, n as u32 / 2).unwrap();
        check_engine::<f64>(&spin_half, u1, true, seed)?;
        // Translation (k = 0).
        check_engine::<f64>(&spin_half, chain(0, None, None), false, seed)?;
        // Full chain symmetry: translation + reflection + spin flip.
        check_engine::<f64>(&spin_half, chain(0, Some(0), Some(0)), false, seed)?;
        // k = π (real characters, non-trivial phases).
        check_engine::<f64>(&spin_half, chain(n as i64 / 2, None, None), false, seed)?;
        // k = 2π/n (complex characters).
        check_engine::<Complex64>(&spin_half, chain(1, None, None), false, seed)?;

        let sites = [4usize, 6, 7][n_choice];
        // Spinful fermions: closed-form ranking of the N↑ × N↓ product,
        // the fused pass with Jordan-Wigner signs as ± segments.
        // Balanced and unbalanced filling.
        let hubbard_ring = hubbard_1d(sites, jxy, 2.0 * delta, true);
        let filling = sites as u32 / 2;
        for n_down in [filling, filling + 1] {
            let hubbard = SectorSpec::spinful_fermions(sites as u32, filling, n_down).unwrap();
            check_engine::<f64>(&hubbard_ring, hubbard, true, seed)?;
        }
        // Spin-1 (two bits per site), total Sz = 0.
        let spin_one = SectorSpec::spin_s(sites as u32, 3, Some(sites as u32)).unwrap();
        check_engine::<f64>(&xxz(&chain_bonds(sites), jxy, delta), spin_one, false, seed)?;
    }

    /// Repeated applies through one `Operator` (its scratch pool warm)
    /// stay bit-identical to the first — buffer reuse must not leak state
    /// between products.
    #[test]
    fn pooled_reapply_is_reproducible(
        seed in any::<u64>(),
        strategy_choice in 0usize..2,
    ) {
        let n = 10usize;
        let sector = SectorSpec::new(
            n as u32,
            Some(5),
            chain_group(n, 0, Some(0), None).unwrap(),
        )
        .unwrap();
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
        let strategy = if strategy_choice == 0 {
            MatvecStrategy::BatchedPull
        } else {
            MatvecStrategy::Serial
        };
        let op = op.with_strategy(strategy);
        let x = random_vec(basis.dim(), seed);
        let mut first = vec![0.0; basis.dim()];
        op.apply(&x, &mut first);
        for _ in 0..3 {
            let mut again = vec![0.0; basis.dim()];
            op.apply(&x, &mut again);
            prop_assert_eq!(&first, &again);
        }
    }
}
