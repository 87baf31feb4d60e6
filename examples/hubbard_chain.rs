//! Models smoke test: the local-Hilbert pipeline on non-spin-1/2 sites.
//! A half-filled Hubbard chain (spinful fermions, Jordan-Wigner signs)
//! and a spin-1 Heisenberg ring are solved with the distributed
//! thick-restart Lanczos engine and checked on the primary rank against
//! a dense Jacobi oracle and the shared-memory `BatchedPull` solver.
//!
//! ```sh
//! cargo run --release --example hubbard_chain
//! ```
//!
//! runs on the in-process transport;
//!
//! ```sh
//! LS_TRANSPORT=multiprocess LS_LOCALES=2 \
//!     cargo run --release --example hubbard_chain
//! ```
//!
//! runs the identical program across real OS processes. The
//! `EIGENVALUES*` hex lines are bit-identical across both backends (the
//! deterministic producer/consumer schedule); CI compares the digests.

use exact_diag::basis::SymmetrizedOperator;
use exact_diag::dist::eigensolve::{dist_thick_restart_lanczos, DistRestartOptions};
use exact_diag::dist::{enumerate_dist, PcOptions};
use exact_diag::eigen::jacobi::eigh_real;
use exact_diag::prelude::*;
use exact_diag::runtime::transport;
use exact_diag::runtime::{Cluster, ClusterSpec};

/// Prints on the primary rank only (every rank in multiprocess mode runs
/// the same program; one copy of the report is enough).
macro_rules! say {
    ($($arg:tt)*) => { if transport::is_primary() { println!($($arg)*); } };
}

/// Ground-state energy from the dense sector matrix via cyclic Jacobi.
fn dense_ground_energy(expr: &Expr, sector: &SectorSpec) -> f64 {
    let hilbert = LocalHilbert::from_encoding(sector.encoding());
    let kernel = expr.to_kernel_in(&hilbert, sector.n_sites()).unwrap();
    let basis = SpinBasis::build(sector.clone());
    let n = basis.dim();
    let dense = kernel.to_dense_states(basis.states());
    let mut flat = vec![0.0; n * n];
    for (r, row) in dense.iter().enumerate() {
        for (c, z) in row.iter().enumerate() {
            flat[r * n + c] = z.re;
        }
    }
    let (evals, _) = eigh_real(&flat, n);
    evals.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Solves one sector with the distributed thick-restart engine and
/// verifies it (primary rank) against the dense oracle and the
/// shared-memory pipeline. Returns the distributed ground energy.
fn solve_and_check(label: &str, expr: &Expr, sector: &SectorSpec, cluster: &Cluster) -> f64 {
    let hilbert = LocalHilbert::from_encoding(sector.encoding());
    let kernel = expr.to_kernel_in(&hilbert, sector.n_sites()).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, sector).unwrap();
    let basis = enumerate_dist(cluster, sector, 3);
    say!("{label}: dim {} (exact: {})", basis.dim(), sector.dimension());

    let t = std::time::Instant::now();
    let res = dist_thick_restart_lanczos(
        cluster,
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
    assert!(res.converged, "{label}: distributed solve did not converge");
    let e_dist = res.eigenvalues[0];
    say!(
        "{label}: E0 = {:.12} ({} iterations, {:.1} ms)",
        e_dist,
        res.iterations,
        t.elapsed().as_secs_f64() * 1e3
    );

    // The reference solves are process-local; only the primary runs them.
    if transport::is_primary() {
        let e_dense = dense_ground_energy(expr, sector);
        let (_, shared) = Operator::<f64>::from_expr(expr, sector.clone()).unwrap();
        let e_pull = ground_state_energy(&shared);
        say!("{label}: dense oracle {e_dense:.12}, shared-memory {e_pull:.12}");
        assert!((e_dist - e_dense).abs() < 1e-10, "{label}: dist vs dense oracle");
        assert!((e_pull - e_dense).abs() < 1e-10, "{label}: pull vs dense oracle");
    }
    e_dist
}

fn main() {
    // Relaunches as the multi-process launcher when LS_TRANSPORT says so;
    // a no-op on the in-process backend and inside worker processes.
    transport::launch_if_requested();

    let mp = transport::active();
    let locales = exact_diag::runtime::collective::locales_from_env(2);
    say!(
        "== {} cluster: {locales} locales x 2 cores (backend: {}) ==",
        if mp.is_some() { "multiprocess" } else { "simulated" },
        transport::backend().name()
    );
    let cluster = Cluster::new(ClusterSpec::new(locales, 2));

    // Half-filled 6-site Hubbard chain: t = 1, U = 4, periodic;
    // (n_up, n_down) = (3, 3) gives C(6,3)^2 = 400 states.
    let n = 6usize;
    let hubbard = hubbard_1d(n, 1.0, 4.0, true);
    let fermion_sector = SectorSpec::spinful_fermions(n as u32, 3, 3).unwrap();
    let e_hubbard = solve_and_check("hubbard", &hubbard, &fermion_sector, &cluster);

    // Spin-1 Heisenberg ring, total Sz = 0 (code_sum = n): 141 states.
    let spin_one = heisenberg(&chain_bonds(n), 1.0);
    let spin_sector = SectorSpec::spin_s(n as u32, 3, Some(n as u32)).unwrap();
    let e_spin_one = solve_and_check("spin-1", &spin_one, &spin_sector, &cluster);

    // Hex digests for the CI backend comparison (in-process vs
    // multiprocess must produce identical bits).
    say!("EIGENVALUES_HUBBARD {:016x}", e_hubbard.to_bits());
    say!("EIGENVALUES_SPIN1 {:016x}", e_spin_one.to_bits());
    say!("\nmodels smoke ✓");
}
