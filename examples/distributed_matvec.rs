//! The paper's distributed pipeline end to end: distributed basis
//! enumeration (Fig. 4), producer/consumer matrix-vector products
//! (Fig. 5), a distributed Lanczos run — Krylov state held **in place on
//! the locale parts**, nothing gathered — plus distributed imaginary-time
//! evolution and a spectral function on the same in-place pipeline, and
//! the communication statistics that drive the performance model.
//!
//! ```sh
//! cargo run --release --example distributed_matvec
//! ```
//!
//! runs on the default in-process transport (locales are threads).
//! The identical program runs across real OS processes — channels,
//! collectives and window epochs all over one TCP mesh — with:
//!
//! ```sh
//! LS_TRANSPORT=multiprocess LS_LOCALES=4 \
//!     cargo run --release --example distributed_matvec
//! ```
//!
//! The `EIGENVALUES` line is bit-identical across both backends (the
//! Lanczos run uses the deterministic producer/consumer schedule); CI
//! compares the hex digests directly.

use exact_diag::basis::SectorSpec;
use exact_diag::basis::SymmetrizedOperator;
use exact_diag::dist::{enumerate_dist, DistOp, PcOptions};
use exact_diag::eigen::{lanczos_smallest_in, KrylovOp, KrylovVec};
use exact_diag::prelude::*;
use exact_diag::runtime::transport;
use exact_diag::runtime::{Cluster, ClusterSpec, DistVec};

/// Prints on the primary rank only (every rank in multiprocess mode runs
/// the same program; one copy of the report is enough).
macro_rules! say {
    ($($arg:tt)*) => { if transport::is_primary() { println!($($arg)*); } };
}

fn main() {
    // Relaunches as the multi-process launcher when LS_TRANSPORT says so;
    // a no-op on the in-process backend and inside worker processes.
    transport::launch_if_requested();

    let n = 20usize;
    let mp = transport::active();
    // LS_LOCALES also sizes the in-process cluster, so the two backends
    // can be compared on the same shape (reduction order follows it).
    let locales = exact_diag::runtime::collective::locales_from_env(4);
    let cores = 2usize;
    // A product runs `cores` threads per locale, all alike: each produces
    // a share of the locale's rows and drains its inbox (the deterministic
    // solve below runs one, which adds plainly).

    say!(
        "== {} cluster: {locales} locales x {cores} cores, {cores} threads per locale \
         (backend: {}) ==",
        if mp.is_some() { "multiprocess" } else { "simulated" },
        transport::backend().name()
    );
    let cluster = Cluster::new(ClusterSpec::new(locales, cores));

    // Hamiltonian and the paper's benchmark sector.
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();

    // Distributed enumeration (Fig. 4): cyclic chunks, filter, hash-
    // distribute.
    let t = std::time::Instant::now();
    let basis = enumerate_dist(&cluster, &sector, 25);
    say!(
        "basis: dim {} enumerated in {:.1} ms (exact Burnside dim: {})",
        basis.dim(),
        t.elapsed().as_secs_f64() * 1e3,
        sector.dimension()
    );
    let (min, max, mean) = basis.balance();
    say!("hashed distribution balance: min {min} / mean {mean:.1} / max {max}");

    // Why hashing? Compare against partitioning the raw state space into
    // contiguous ranges (paper Sec. 5.1: the hash "mixes all bits" for
    // load balance; representative density makes ranges skewed).
    use exact_diag::dist::distribution::{partition_balance, Scheme};
    let all_states: Vec<u64> = basis.states().parts().iter().flatten().copied().collect();
    for scheme in [Scheme::Hashed, Scheme::RawRanges] {
        let r = partition_balance(&all_states, n as u32, locales, scheme);
        say!("  {scheme:?}: imbalance (max/mean) = {:.3}, cv = {:.3}", r.imbalance(), r.cv());
    }

    // One producer/consumer matvec on |+...+> and its statistics.
    let x = DistVec::<f64>::from_parts(
        basis.states().lens().iter().map(|&l| vec![1.0; l]).collect(),
    );
    let mut y = DistVec::<f64>::zeros(&basis.states().lens());
    cluster.reset_stats();
    let t = std::time::Instant::now();
    DistOp::new(&cluster, &op, &basis, PcOptions::default()).apply(&x, &mut y);
    let dt = t.elapsed().as_secs_f64();
    let stats = cluster.stats_total();
    say!("\n== one producer/consumer matvec ==");
    say!("wall time        : {:.1} ms", dt * 1e3);
    say!("remote puts      : {} ({} bytes)", stats.puts, stats.put_bytes);
    say!("mean message     : {:.0} bytes", stats.mean_message_bytes());
    say!("flag messages    : {} (remoteAtomicWrite)", stats.flag_messages);

    // Distributed Lanczos: the full ED pipeline. Every Krylov vector
    // lives and dies in the hashed distribution — the statistics below
    // prove no full-vector gather ever happens (zero RMA gets). The
    // deterministic schedule makes the eigenvalue bit-identical across
    // transports, which the multiprocess CI smoke test checks.
    say!("\n== distributed Lanczos (in place on DistVec) ==");
    cluster.reset_stats();
    let t = std::time::Instant::now();
    let pc = PcOptions { deterministic: true, ..PcOptions::default() };
    let res =
        lanczos_smallest_in(&DistOp::new(&cluster, &op, &basis, pc), 1, &Default::default());
    say!(
        "E0 = {:.12} ({} iterations, {:.1} ms, converged: {})",
        res.eigenvalues[0],
        res.iterations,
        t.elapsed().as_secs_f64() * 1e3,
        res.converged
    );
    say!("EIGENVALUES {:016x}", res.eigenvalues[0].to_bits());
    let solve_stats = cluster.stats_total();
    say!(
        "krylov state gathered : {} bytes ({} RMA gets) — everything stayed distributed",
        solve_stats.get_bytes,
        solve_stats.gets
    );
    assert_eq!(solve_stats.gets, 0);

    // Distributed dynamics on the same in-place pipeline: imaginary-time
    // projection toward the ground state, then the dynamical spectral
    // function of a seed state via the Lanczos continued fraction.
    say!("\n== distributed dynamics ==");
    let psi0 = DistVec::<f64>::from_parts(
        basis.states().lens().iter().map(|&l| vec![1.0; l]).collect(),
    );
    let t = std::time::Instant::now();
    let cooled = evolve_imaginary_time(
        &DistOp::new(&cluster, &op, &basis, PcOptions::default()),
        &psi0,
        4.0,
        40,
    );
    // Rayleigh quotient of the cooled state through one more product.
    let mut h_cooled = DistVec::<f64>::zeros(&basis.states().lens());
    DistOp::new(&cluster, &op, &basis, PcOptions::default()).apply(&cooled, &mut h_cooled);
    let e_cooled = cooled.dot(&h_cooled);
    say!(
        "imaginary time τ=4.0 : ⟨H⟩ = {:.9} (E0 = {:.9}, {:.1} ms, state stayed distributed)",
        e_cooled,
        res.eigenvalues[0],
        t.elapsed().as_secs_f64() * 1e3,
    );

    let t = std::time::Instant::now();
    let coeffs = spectral_coefficients(
        &DistOp::new(&cluster, &op, &basis, PcOptions::default()),
        &psi0,
        60,
    );
    let omegas: Vec<f64> = (0..5).map(|i| res.eigenvalues[0] + i as f64 * 2.0).collect();
    let spectrum = coeffs.spectrum(&omegas, 0.2);
    say!(
        "spectral function    : {} Lanczos coefficients in {:.1} ms; A(ω) at {:?} = {:?}",
        coeffs.alphas.len(),
        t.elapsed().as_secs_f64() * 1e3,
        omegas.iter().map(|w| (w * 100.0).round() / 100.0).collect::<Vec<_>>(),
        spectrum.iter().map(|a| (a * 1e4).round() / 1e4).collect::<Vec<_>>(),
    );

    // Wire traffic summary (multiprocess only: what actually crossed the
    // socket boundary, as opposed to the modeled counts).
    if let Some(mp) = mp {
        let t = mp.stats().snapshot();
        say!("\n== transport wire statistics (rank 0) ==");
        say!("tcp tx           : {} frames, {} bytes", t.tx_frames, t.tx_bytes);
        say!("tcp rx           : {} frames, {} bytes", t.rx_frames, t.rx_bytes);
        say!("wire bytes       : {}", t.tx_bytes + t.rx_bytes);
        say!(
            "barriers         : {} (mean {:.1} µs)",
            t.barriers,
            t.mean_barrier_seconds() * 1e6
        );
        // `restarts` counts supervisor relaunches before this incarnation;
        // the other two are what this incarnation itself observed. A
        // corrupt frame shows as its rank's `integrity:` line on stderr,
        // just before the job exits 115.
        say!(
            "recovery         : restarts={} peer_failures={} crc_bytes_checked={}",
            t.restarts,
            t.peer_failures,
            t.crc_bytes_checked
        );
    }

    // Cross-check against the shared-memory path. The reference solve is
    // process-local, so only the primary rank runs it.
    if transport::is_primary() {
        let shared_sector = sector.clone();
        let expr = heisenberg(&chain_bonds(n), 1.0);
        let (_, shared_op) = Operator::<f64>::from_expr(&expr, shared_sector).unwrap();
        let e0_shared = ground_state_energy(&shared_op);
        say!("shared-memory reference: {e0_shared:.12}");
        assert!(
            (res.eigenvalues[0] - e0_shared).abs() < 1e-8,
            "distributed and shared-memory energies disagree"
        );
        say!("\ndistributed == shared ✓");
    }
}
