//! Bit pins of the thick-restart trajectory under the repo benchmark's
//! solver options (`k = 2`, 26-vector budget, `tol = 1e-10`, default
//! seed): products performed, vector high-water mark and the bits of both
//! eigenvalues, on one sector per storage and product path the solver
//! runs on —
//!
//! * `f64` on a 16-site U(1) Heisenberg ring (combinadic ranking, fused
//!   generation),
//! * `Complex64` on a 14-site momentum sector with complex characters,
//! * `f64` on an 8-site Hubbard ring with 3 up + 3 down fermions
//!   (Jordan-Wigner signs, closed-form ranking of the N↑ × N↓ product,
//!   fused generation),
//! * `DistVec<f64>` on the U(1) ring hashed over 2 in-process locales
//!   with the deterministic producer/consumer pipeline.
//!
//! Every case needs at least one restart, so compression, the arrowhead
//! solve and the per-step convergence test of a restarted cycle are all on
//! the pinned path. A refactor of the solver must leave the constants
//! untouched — any change means a restarted solve took a different
//! trajectory.
//!
//! They were re-captured once, when the stopping rule changed: a solve
//! that wants no Ritz vectors (these four) now stops when the Kato–Temple
//! estimate of its eigenvalue error passes `tol` (the gap rule of
//! `ls_eigen::restart`), and restarted cycles are tested after every step
//! instead of at their boundary. The same trajectories stop earlier — 71,
//! 62, 107 and 71 products became 49, 44, 84 and 47 — on eigenvalues that
//! agree with the old pins to 1e-10. The U(1) ring now stops two products
//! apart on its two storages, whose last bits differ.

use exact_diag::dist::eigensolve::{dist_thick_restart_lanczos, DistRestartOptions};
use exact_diag::dist::{enumerate_dist, PcOptions};
use exact_diag::eigen::{thick_restart_lanczos, LanczosResultIn};
use exact_diag::kernels::Complex64;
use exact_diag::prelude::*;
use exact_diag::runtime::{Cluster, ClusterSpec};

/// The first cycle of a 26-vector budget at `k = 2`.
const FIRST_CYCLE: usize = 17;

/// `benchmark/src/surface.rs::restart_options`.
fn bench_options() -> RestartOptions {
    RestartOptions { k: 2, extra: 24, tol: 1e-10, ..RestartOptions::new(2) }
}

fn assert_pinned<V>(
    what: &str,
    res: &LanczosResultIn<V>,
    iterations: usize,
    peak_retained: usize,
    eigenvalue_bits: [u64; 2],
) {
    assert!(res.converged, "{what}: not converged, residuals {:?}", res.residuals);
    assert!(res.iterations > FIRST_CYCLE, "{what}: no restart was needed");
    let got: Vec<u64> = res.eigenvalues.iter().map(|e| e.to_bits()).collect();
    assert_eq!(
        (res.iterations, res.peak_retained, got.as_slice()),
        (iterations, peak_retained, &eigenvalue_bits[..]),
        "{what}: got {} products, peak {}, eigenvalues {:?} = {got:#x?}",
        res.iterations,
        res.peak_retained,
        res.eigenvalues,
    );
}

fn u1_ring16() -> (Expr, SectorSpec) {
    (heisenberg(&chain_bonds(16), 1.0), SectorSpec::with_weight(16, 8).unwrap())
}

#[test]
fn u1_ring_f64() {
    let (expr, sector) = u1_ring16();
    let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
    assert!(basis.ranks_in_closed_form());
    assert_eq!(op.strategy(), MatvecStrategy::BatchedPull);
    let res = thick_restart_lanczos(&op, &bench_options());
    assert_pinned("u1 ring", &res, 49, 18, [0xc01c91b6231cc1e3, 0xc01b7d0988784014]);
}

#[test]
fn momentum_sector_complex64() {
    let n = 14usize;
    let group = chain_group(n, 3, None, None).unwrap();
    let sector = SectorSpec::new(n as u32, Some(7), group).unwrap();
    let (_, op) =
        Operator::<Complex64>::from_expr(&heisenberg(&chain_bonds(n), 1.0), sector).unwrap();
    let res = thick_restart_lanczos(&op, &bench_options());
    assert_pinned("momentum sector", &res, 44, 18, [0xc01244964f20cde9, 0xc01190b8fd32408f]);
}

#[test]
fn hubbard_ring_f64() {
    let sector = SectorSpec::spinful_fermions(8, 3, 3).unwrap();
    let (basis, op) =
        Operator::<f64>::from_expr(&hubbard_1d(8, 1.0, 4.0, true), sector).unwrap();
    assert!(basis.ranks_in_closed_form());
    let res = thick_restart_lanczos(&op, &bench_options());
    assert_pinned("hubbard ring", &res, 84, 18, [0xc01ab05425bf798f, 0xc016e3bbb5c42ec7]);
}

#[test]
fn u1_ring_distvec_two_locales() {
    let (expr, sector) = u1_ring16();
    let kernel = expr.to_kernel(16).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let basis = enumerate_dist(&cluster, &sector, 3);
    let opts = DistRestartOptions {
        restart: bench_options(),
        pc: PcOptions { deterministic: true, ..PcOptions::default() },
    };
    let res = dist_thick_restart_lanczos(&cluster, &op, &basis, &opts);
    assert_pinned(
        "u1 ring on 2 locales",
        &res,
        47,
        18,
        [0xc01c91b6231cc1f1, 0xc01b7d098878146d],
    );
}
