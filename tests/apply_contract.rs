//! The output contract of [`KrylovOp::apply`]: `y` arrives with
//! arbitrary content and is overwritten. The eigen-recurrence rests on
//! it — a step's output buffer is whatever vector the last compression
//! left over, never a fresh zero vector — so every operator a solve can
//! run on multiplies into a NaN-filled output and into a zeroed one, and
//! the two results (and the `apply_dot` values) must be bit-equal.
//!
//! The input holds small integers and the Heisenberg couplings are
//! multiples of 1/4, so every sum is exact and the comparison is
//! bit-for-bit even where contributions are added in arrival order.

use exact_diag::dist::eigensolve::DistOp;
use exact_diag::dist::{enumerate_dist, PcOptions};
use exact_diag::eigen::{DenseOp, KrylovOp, KrylovVec};
use exact_diag::kernels::{hash64_01, Scalar};
use exact_diag::prelude::*;
use exact_diag::runtime::{Cluster, ClusterSpec};

/// An integer in `-8..=8` per element.
fn small_integer(i: usize) -> f64 {
    (hash64_01(i as u64) % 17) as f64 - 8.0
}

fn bits<V: KrylovVec>(v: &V) -> Vec<u64> {
    let mut out = Vec::new();
    v.visit(&mut |x| out.extend(x.to_reals().map(f64::to_bits)));
    out
}

/// `op · x` into a vector pre-filled with `garbage`, through `apply` and
/// through `apply_dot`.
fn product_into<V: KrylovVec, Op: KrylovOp<V>>(op: &Op, garbage: f64) -> (Vec<u64>, Vec<u64>) {
    let mut x = op.new_vec();
    x.fill_with(&mut |i| V::Scalar::from_re(small_integer(i)));
    let mut y = op.new_vec();
    y.fill_with(&mut |_| V::Scalar::from_re(garbage));
    op.apply(&x, &mut y);
    let applied = bits(&y);
    y.fill_with(&mut |_| V::Scalar::from_re(garbage));
    let alpha = op.apply_dot(&x, &mut y);
    assert_eq!(bits(&y), applied, "apply_dot's product is apply's");
    (applied, alpha.to_reals().map(f64::to_bits).to_vec())
}

fn assert_overwrites<V: KrylovVec, Op: KrylovOp<V>>(what: &str, op: &Op) {
    let zeroed = product_into(op, 0.0);
    let poisoned = product_into(op, f64::NAN);
    assert_eq!(zeroed, poisoned, "{what}: the product depends on what the output held");
    assert!(zeroed.0.iter().any(|&b| b != 0), "{what}: a zero product shows nothing");
}

#[test]
fn every_solve_path_operator_overwrites_its_output() {
    let sites = 16u32;
    let expr = heisenberg(&chain_bonds(sites as usize), 1.0);
    let sector = SectorSpec::with_weight(sites, sites / 2).unwrap();

    let (_, pull) = Operator::<f64>::from_expr(&expr, sector.clone()).unwrap();
    assert_eq!(pull.strategy(), MatvecStrategy::BatchedPull);
    assert_overwrites::<Vec<f64>, _>("Operator, BatchedPull", &pull);
    let serial = pull.with_strategy(MatvecStrategy::Serial);
    assert_overwrites::<Vec<f64>, _>("Operator, Serial", &serial);

    let n = 40;
    let dense = DenseOp::new(n, (0..n * n).map(|i| small_integer(i + 1000)).collect());
    assert_overwrites::<Vec<f64>, _>("DenseOp", &dense);

    let kernel = expr.to_kernel(sites).unwrap();
    let symop = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let basis = enumerate_dist(&cluster, &sector, 3);
    for deterministic in [false, true] {
        let pc = PcOptions { deterministic, ..PcOptions::default() };
        let op = DistOp::new(&cluster, &symop, &basis, pc);
        assert_overwrites(&format!("DistOp, deterministic = {deterministic}"), &op);
    }
}
