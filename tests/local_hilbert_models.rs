//! End-to-end validation of the two new local Hilbert space instances —
//! spinful fermions (Hubbard) and spin-1 Heisenberg — through the full
//! pipeline: dense Jacobi oracle, shared-memory `BatchedPull` Lanczos,
//! and `dist_thick_restart_lanczos` over in-process clusters, with
//! bit-identity across thread and locale-partition reruns.

mod common;

use exact_diag::dist::eigensolve::{dist_thick_restart_lanczos, DistRestartOptions};
use exact_diag::dist::{enumerate_dist, PcOptions};
use exact_diag::eigen::jacobi::eigh_real;
use exact_diag::prelude::*;
use exact_diag::runtime::{Cluster, ClusterSpec};

/// Ground-state energy from the dense sector matrix via cyclic Jacobi —
/// the oracle that knows nothing about channels, rankings or batching.
fn dense_ground_energy(expr: &Expr, sector: &SectorSpec) -> f64 {
    let hilbert = LocalHilbert::from_encoding(sector.encoding());
    let kernel = expr.to_kernel_in(&hilbert, sector.n_sites()).unwrap();
    let basis = SpinBasis::build(sector.clone());
    let n = basis.dim();
    let dense = kernel.to_dense_states(basis.states());
    let mut flat = vec![0.0; n * n];
    for (r, row) in dense.iter().enumerate() {
        for (c, z) in row.iter().enumerate() {
            assert!(z.im.abs() < 1e-12, "sector matrix must be real");
            flat[r * n + c] = z.re;
        }
    }
    let (evals, _) = eigh_real(&flat, n);
    evals.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Distributed thick-restart ground state on an in-process cluster with
/// the deterministic producer/consumer pipeline.
fn dist_ground_energy(
    expr: &Expr,
    sector: &SectorSpec,
    locales: usize,
    chunks_per_locale: usize,
) -> f64 {
    let hilbert = LocalHilbert::from_encoding(sector.encoding());
    let kernel = expr.to_kernel_in(&hilbert, sector.n_sites()).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, sector).unwrap();
    let cluster = Cluster::new(ClusterSpec::new(locales, 2));
    let basis = enumerate_dist(&cluster, sector, chunks_per_locale);
    let result = dist_thick_restart_lanczos(
        &cluster,
        &op,
        &basis,
        &DistRestartOptions {
            restart: RestartOptions {
                extra: 10,
                tol: 1e-12,
                want_vectors: false,
                ..RestartOptions::new(1)
            },
            pc: PcOptions { deterministic: true, ..PcOptions::default() },
        },
    );
    assert!(result.converged, "dist solve did not converge on {locales} locales");
    result.eigenvalues[0]
}

/// Shared-memory BatchedPull ground state under an explicit thread
/// limit, rebuilding the basis under that limit too (enumeration
/// chunking must not affect the state list).
fn pull_ground_energy_with_threads(expr: &Expr, sector: &SectorSpec, limit: usize) -> f64 {
    let prev = rayon::set_thread_limit(limit);
    let (_, op) = Operator::<f64>::from_expr(expr, sector.clone()).unwrap();
    assert_eq!(op.strategy(), MatvecStrategy::BatchedPull);
    let e0 = ground_state_energy(&op);
    rayon::set_thread_limit(prev);
    e0
}

#[test]
fn hubbard_chain_full_pipeline() {
    // 6-site periodic Hubbard chain at half filling, t = 1, U = 4:
    // C(6,3)^2 = 400 states in the (n_up, n_down) = (3, 3) sector.
    let n = 6usize;
    let expr = hubbard_1d(n, 1.0, 4.0, true);
    let sector = SectorSpec::spinful_fermions(n as u32, 3, 3).unwrap();
    assert_eq!(sector.dimension(), 400);

    let e_dense = dense_ground_energy(&expr, &sector);
    // The half-filled repulsive chain sits below the atomic limit (E=0)
    // by the kinetic superexchange scale.
    assert!(e_dense < -1.0 && e_dense > -4.0 * n as f64, "implausible E0 = {e_dense}");

    // Shared-memory BatchedPull Lanczos: oracle match and thread-count
    // bit-identity.
    let e_one = pull_ground_energy_with_threads(&expr, &sector, 1);
    let e_many = pull_ground_energy_with_threads(&expr, &sector, usize::MAX);
    assert_eq!(e_one.to_bits(), e_many.to_bits(), "thread count changed Hubbard bits");
    assert!((e_many - e_dense).abs() < 1e-10, "pull {e_many} vs dense {e_dense}");

    // Distributed thick restart over several locale partitions, each
    // matching the oracle; a rerun of the same partition is bit-exact.
    for locales in [1usize, 2, 3] {
        let e = dist_ground_energy(&expr, &sector, locales, 3);
        assert!((e - e_dense).abs() < 1e-10, "dist({locales} locales) {e} vs dense {e_dense}");
    }
    let a = dist_ground_energy(&expr, &sector, 2, 3);
    let b = dist_ground_energy(&expr, &sector, 2, 3);
    assert_eq!(a.to_bits(), b.to_bits(), "deterministic dist rerun drifted");
}

#[test]
fn hubbard_eight_site_half_filling() {
    // The ISSUE's headline sector: 8 sites, U = 4, half filling —
    // C(8,4)^2 = 4900 states, too big for the Jacobi oracle but an easy
    // Lanczos problem. The engine, the serial oracle and the distributed
    // solver must agree; threads must not change bits.
    let n = 8usize;
    let expr = hubbard_1d(n, 1.0, 4.0, true);
    let sector = SectorSpec::spinful_fermions(n as u32, 4, 4).unwrap();
    assert_eq!(sector.dimension(), 4900);

    let e_one = pull_ground_energy_with_threads(&expr, &sector, 1);
    let e_pull = pull_ground_energy_with_threads(&expr, &sector, usize::MAX);
    assert_eq!(e_one.to_bits(), e_pull.to_bits(), "thread count changed Hubbard bits");

    let (basis, op) = Operator::<f64>::from_expr(&expr, sector.clone()).unwrap();
    assert_eq!(basis.dim(), 4900);
    let e = ground_state_energy(&op.with_strategy(MatvecStrategy::Serial));
    assert!((e - e_pull).abs() < 1e-10, "serial: {e} vs pull {e_pull}");

    for locales in [1usize, 2] {
        let e = dist_ground_energy(&expr, &sector, locales, 3);
        assert!((e - e_pull).abs() < 1e-10, "dist({locales}) {e} vs pull {e_pull}");
    }
}

#[test]
fn spin_one_heisenberg_full_pipeline() {
    // 6-site spin-1 Heisenberg ring in the total-Sz = 0 sector
    // (code_sum = n since codes 0..=2 store Sz + 1): 141 states.
    let n = 6usize;
    let expr = heisenberg(&chain_bonds(n), 1.0);
    let sector = SectorSpec::spin_s(n as u32, 3, Some(n as u32)).unwrap();
    assert_eq!(sector.dimension(), 141);

    let e_dense = dense_ground_energy(&expr, &sector);
    // Haldane-phase rings sit near -1.4 J per site.
    assert!(e_dense < -1.2 * n as f64 && e_dense > -1.6 * n as f64, "implausible {e_dense}");

    let e_one = pull_ground_energy_with_threads(&expr, &sector, 1);
    let e_many = pull_ground_energy_with_threads(&expr, &sector, usize::MAX);
    assert_eq!(e_one.to_bits(), e_many.to_bits(), "thread count changed spin-1 bits");
    assert!((e_many - e_dense).abs() < 1e-10, "pull {e_many} vs dense {e_dense}");

    for locales in [1usize, 2, 3] {
        let e = dist_ground_energy(&expr, &sector, locales, 3);
        assert!((e - e_dense).abs() < 1e-10, "dist({locales} locales) {e} vs dense {e_dense}");
    }
    let a = dist_ground_energy(&expr, &sector, 3, 2);
    let b = dist_ground_energy(&expr, &sector, 3, 2);
    assert_eq!(a.to_bits(), b.to_bits(), "deterministic dist rerun drifted");
}
