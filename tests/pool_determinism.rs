//! Pins the persistent pool's determinism guarantee end to end: batched
//! matvec products, a full 30-step Lanczos ground-state run, and a
//! checkpointed thick-restart solve are **bit-exact** across thread
//! counts (`LS_NUM_THREADS=1` vs the default), on randomized symmetrized
//! sectors (shared generators in `tests/common`).
//!
//! Why this holds by construction:
//! * batched pull computes every output element independently, in a fixed
//!   per-row channel order;
//! * every Lanczos reduction (`par_dot`, `par_norm_sqr`, the fused
//!   matvec+dot and axpy+norm epilogues) uses per-block partials over a
//!   thread-independent partition combined in a fixed pairwise tree;
//! * thick-restart compression is `combine_in_place` on that same driver,
//!   and checkpoints store exact `f64` bits — so interrupting, reloading
//!   and resuming replays the identical arithmetic.
//!
//! The thread count is driven through `rayon::set_thread_limit` — the
//! process-global override that emulates `LS_NUM_THREADS` (the env
//! variable itself is parsed once per process, so two counts cannot be
//! tested through it in one test binary). Everything lives in one `#[test]`
//! so the override is never mutated concurrently.

mod common;

use common::{bits, random_vec, sectors, tmp_path};
use exact_diag::basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use exact_diag::core::matvec::apply_batched_pull_pooled;
use exact_diag::core::MatvecScratchPool;
use exact_diag::eigen::{thick_restart_lanczos, CheckpointPolicy, RestartOptions};
use exact_diag::prelude::*;
use exact_diag::symmetry::lattice::chain_bonds;

/// One full single-thread vs multi-thread comparison for one sector.
fn check_sector(n: usize, sector: SectorSpec, threads: usize) {
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let run = |limit: usize| {
        let prev = rayon::set_thread_limit(limit);
        // Rebuild the basis under this thread count too: enumeration
        // chunking must not affect the state list.
        let basis = SpinBasis::build(sector.clone());
        let dim = basis.dim();
        let x = random_vec(dim, n as u64 ^ 0xc0ffee);
        let pool = MatvecScratchPool::new();
        let mut pull = vec![0.0; dim];
        apply_batched_pull_pooled(&op, &basis, &x, &mut pull, &pool);

        // Full 30-step Lanczos ground-state run through the public
        // operator (fused matvec+dot epilogue, parallel BLAS-1, shared
        // scratch pool).
        let full = Operator::<f64>::from_parts(op.clone(), std::sync::Arc::new(basis));
        let res = lanczos_smallest(
            &full,
            1,
            &LanczosOptions {
                max_iter: 30,
                tol: 1e-14,
                want_vectors: true,
                ..Default::default()
            },
        );
        rayon::set_thread_limit(prev);
        (
            bits(&pull),
            res.eigenvalues[0].to_bits(),
            bits(&res.eigenvectors.unwrap()[0]),
            res.iterations,
        )
    };
    let serial = run(1);
    let parallel = run(threads);
    assert_eq!(serial.0, parallel.0, "batched pull diverged (n={n})");
    assert_eq!(
        serial.1,
        parallel.1,
        "Lanczos ground-state energy diverged (n={n}): {} vs {}",
        f64::from_bits(serial.1),
        f64::from_bits(parallel.1)
    );
    assert_eq!(serial.2, parallel.2, "Lanczos ground-state vector diverged (n={n})");
    assert_eq!(serial.3, parallel.3, "Lanczos iteration count diverged (n={n})");
}

/// A thick-restart solve that is checkpointed, dropped after two restart
/// cycles and resumed must be bit-identical to the uninterrupted solve —
/// under every thread count.
fn check_restart_resume(n: usize, sector: SectorSpec, threads: usize) {
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let base =
        RestartOptions { extra: 8, tol: 1e-12, want_vectors: true, ..RestartOptions::new(2) };
    let run = |limit: usize, interrupt: bool| {
        let prev = rayon::set_thread_limit(limit);
        let basis = SpinBasis::build(sector.clone());
        let full = Operator::<f64>::from_parts(op.clone(), std::sync::Arc::new(basis));
        let res = if interrupt {
            let path = tmp_path(&format!("pool_resume_{n}_{limit}.lsck"));
            std::fs::remove_file(&path).ok();
            let ck = CheckpointPolicy::new(path.clone());
            // "Kill" after two restart cycles...
            let truncated = thick_restart_lanczos(
                &full,
                &RestartOptions {
                    max_restarts: 2,
                    checkpoint: Some(ck.clone()),
                    ..base.clone()
                },
            );
            assert!(!truncated.converged, "n={n}: interrupted run already converged");
            // ...then resume from the checkpoint and finish.
            let resumed = thick_restart_lanczos(
                &full,
                &RestartOptions { checkpoint: Some(ck), ..base.clone() },
            );
            std::fs::remove_file(&path).ok();
            resumed
        } else {
            thick_restart_lanczos(&full, &base)
        };
        rayon::set_thread_limit(prev);
        assert!(res.converged, "n={n} limit={limit} interrupt={interrupt}");
        (
            bits(&res.eigenvalues),
            res.eigenvectors.unwrap().iter().map(|v| bits(v)).collect::<Vec<_>>(),
        )
    };
    let reference = run(1, false);
    for limit in [1usize, 2, threads] {
        for interrupt in [false, true] {
            if limit == 1 && !interrupt {
                continue; // that is the reference itself
            }
            let got = run(limit, interrupt);
            assert_eq!(
                reference.0, got.0,
                "thick-restart eigenvalues diverged (n={n}, threads={limit}, \
                 interrupted={interrupt})"
            );
            assert_eq!(
                reference.1, got.1,
                "thick-restart Ritz vectors diverged (n={n}, threads={limit}, \
                 interrupted={interrupt})"
            );
        }
    }
}

#[test]
fn matvec_and_lanczos_bit_exact_across_thread_counts() {
    let _guard = common::thread_limit_guard();
    // Oversubscribe deliberately when the machine is small: the pool
    // spawns workers lazily, and determinism must hold regardless.
    let threads = rayon::current_num_threads().max(4);
    for (n, sector) in sectors(0x5eed_0001) {
        check_sector(n, sector, threads);
    }
}

#[test]
fn checkpointed_thick_restart_bit_exact_across_thread_counts() {
    let _guard = common::thread_limit_guard();
    let threads = rayon::current_num_threads().max(4);
    // One shared-memory sector is enough here — the distributed-storage
    // counterpart lives in tests/distributed_equivalence.rs.
    let (n, sector) = sectors(0x5eed_0002).swap_remove(1);
    check_restart_resume(n, sector, threads);
}
