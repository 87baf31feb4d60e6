//! Transport equivalence: the same distributed pipeline — enumeration,
//! deterministic producer/consumer matvec, in-place Lanczos,
//! checkpointed thick-restart with resume — produces **bit-identical**
//! eigenvalues on the in-process backend and on the real multi-process
//! backend, at the same locale count. The arrival-ordered product on two
//! threads per locale — two threads claiming credits on one sender and
//! popping one receiver — agrees across backends to rounding, with equal
//! put counts.
//!
//! The in-process half (plus determinism and statistics invariants) runs
//! hermetically in every `cargo test`. The multi-process half needs to
//! fork real OS processes, so it only runs when `LS_MP_E2E=1` is set
//! (CI's multiprocess smoke job does): the test re-executes its own
//! binary with `LS_TRANSPORT=multiprocess`, which routes into the
//! `#[ignore]`d `mp_worker_entry` test below — first as the launcher,
//! then as the SPMD workers — and bit-compares the printed eigenvalues.

use exact_diag::basis::{SectorSpec, SymmetrizedOperator};
use exact_diag::dist::eigensolve::{
    dist_lanczos_smallest, dist_thick_restart_lanczos, DistLanczosOptions, DistRestartOptions,
};
use exact_diag::dist::matvec::PcOptions;
use exact_diag::dist::{enumerate_dist, matvec_pc};
use exact_diag::prelude::*;
use exact_diag::runtime::{collective, transport};
use exact_diag::runtime::{Cluster, ClusterSpec, DistVec};
use std::path::PathBuf;

const SITES: usize = 14;
const LOCALES: usize = 2;

/// The full SPMD pipeline under test. Runs on whichever transport is
/// active; returns `(lanczos_e0_bits, restart_eigenvalue_bits)`.
fn run_pipeline() -> (u64, Vec<u64>) {
    let mp = transport::active();
    let locales = mp.map(|m| m.n_locales()).unwrap_or(LOCALES);
    let cluster = Cluster::new(ClusterSpec::new(locales, 1));

    let kernel = heisenberg(&chain_bonds(SITES), 1.0).to_kernel(SITES as u32).unwrap();
    let group = chain_group(SITES, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(SITES as u32, Some(SITES as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = enumerate_dist(&cluster, &sector, 3);
    let pc = PcOptions { deterministic: true, ..PcOptions::default() };

    // Determinism invariant: two deterministic products are bit-equal on
    // this rank's part (the only authoritative one under multiprocess).
    let x = DistVec::<f64>::from_parts(
        basis
            .states()
            .parts()
            .iter()
            .map(|p| p.iter().map(|&s| ((s as f64) * 0.37).sin()).collect())
            .collect(),
    );
    let me = mp.map(|m| m.rank()).unwrap_or(0);
    let mut y1 = DistVec::<f64>::zeros(&basis.states().lens());
    let mut y2 = DistVec::<f64>::zeros(&basis.states().lens());
    matvec_pc(&cluster, &op, &basis, &x, &mut y1, pc);
    matvec_pc(&cluster, &op, &basis, &x, &mut y2, pc);
    if mp.is_some() {
        assert_eq!(y1.part(me), y2.part(me), "deterministic matvec not reproducible");
    } else {
        for l in 0..locales {
            assert_eq!(y1.part(l), y2.part(l), "deterministic matvec not reproducible");
        }
    }

    // In-place Lanczos + statistics invariants: matrix elements cross
    // locale boundaries (remote puts), full vectors never do (no gets).
    cluster.reset_stats();
    let res = dist_lanczos_smallest(
        &cluster,
        &op,
        &basis,
        1,
        &DistLanczosOptions { pc, ..Default::default() },
    );
    assert!(res.converged);
    let stats = cluster.stats_total();
    assert_eq!(stats.gets, 0, "in-place Lanczos must never gather");
    if locales > 1 {
        assert!(stats.puts > 0, "off-diagonal batches must cross locales");
    }

    // Checkpointed thick-restart, killed after 3 cycles by the restart
    // cap, resumed to convergence — against the uninterrupted solve.
    let ckpt = std::env::var("LS_MP_E2E_CKPT").map(PathBuf::from).unwrap_or_else(|_| {
        std::env::temp_dir().join(format!("transport-eq-{}.lsck", std::process::id()))
    });
    if transport::is_primary() {
        std::fs::remove_file(&ckpt).ok();
    }
    if let Some(mp) = mp {
        mp.barrier();
    }
    let base = RestartOptions { k: 2, extra: 8, tol: 1e-10, ..RestartOptions::new(2) };
    let with_cap = |cap: usize| DistRestartOptions {
        restart: RestartOptions {
            max_restarts: cap,
            checkpoint: Some(CheckpointPolicy::new(ckpt.clone())),
            ..base.clone()
        },
        pc,
    };
    let partial = dist_thick_restart_lanczos(&cluster, &op, &basis, &with_cap(3));
    assert!(!partial.converged, "cap of 3 cycles should not converge yet");
    assert!(ckpt.exists(), "checkpoint must exist at the restart boundary");
    let resumed = dist_thick_restart_lanczos(&cluster, &op, &basis, &with_cap(500));
    assert!(resumed.converged);
    let reference = dist_thick_restart_lanczos(
        &cluster,
        &op,
        &basis,
        &DistRestartOptions { restart: base, pc },
    );
    assert!(reference.converged);
    let resumed_bits: Vec<u64> = resumed.eigenvalues.iter().map(|v| v.to_bits()).collect();
    let reference_bits: Vec<u64> = reference.eigenvalues.iter().map(|v| v.to_bits()).collect();
    assert_eq!(resumed_bits, reference_bits, "resume is not bit-identical");
    if transport::is_primary() {
        std::fs::remove_file(&ckpt).ok();
    }

    (res.eigenvalues[0].to_bits(), resumed_bits)
}

/// One arrival-ordered product (default options) on 2 cores per locale,
/// over a U(1)-only sector large enough that every channel hands over
/// tens of batches: `y` in global order, then the job's `puts` and
/// `put_bytes`.
fn arrival_ordered_product() -> (Vec<f64>, Vec<f64>) {
    const SITES: usize = 16;
    let locales = collective::locales_from_env(LOCALES);
    let cluster = Cluster::new(ClusterSpec::new(locales, 2));
    let kernel = heisenberg(&chain_bonds(SITES), 1.0).to_kernel(SITES as u32).unwrap();
    let group = exact_diag::symmetry::SymmetryGroup::trivial(SITES);
    let sector = SectorSpec::new(SITES as u32, Some(SITES as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = enumerate_dist(&cluster, &sector, 3);
    let parts = basis.states().parts().iter();
    let x = DistVec::<f64>::from_parts(
        parts.map(|p| p.iter().map(|&s| ((s as f64) * 0.37).sin()).collect()).collect(),
    );
    let mut y = DistVec::<f64>::zeros(&basis.states().lens());
    cluster.reset_stats();
    matvec_pc(&cluster, &op, &basis, &x, &mut y, PcOptions::default());
    let stats = cluster.stats_total();
    let mut dense = Vec::new();
    collective::for_each_global(&y, |v| dense.push(v));
    (dense, collective::allreduce(vec![stats.puts as f64, stats.put_bytes as f64]))
}

#[test]
fn transport_equivalence() {
    let (lanczos_bits, restart_bits) = run_pipeline();
    let (product, puts) = arrival_ordered_product();
    assert!(puts[0] >= 40.0, "every channel must hand over many batches: {puts:?}");

    if std::env::var("LS_MP_E2E").as_deref() != Ok("1") {
        eprintln!("LS_MP_E2E not set: skipping the multi-process half");
        return;
    }

    // Re-execute this test binary as a multiprocess job running
    // `mp_worker_entry`; its rank 0 prints the digests we compare.
    let exe = std::env::current_exe().unwrap();
    let ckpt =
        std::env::temp_dir().join(format!("transport-eq-mp-{}.lsck", std::process::id()));
    let out = std::process::Command::new(&exe)
        .args(["mp_worker_entry", "--exact", "--ignored", "--nocapture"])
        .env("LS_TRANSPORT", "multiprocess")
        .env("LS_LOCALES", LOCALES.to_string())
        .env("LS_MP_E2E_CKPT", &ckpt)
        .output()
        .expect("spawn multiprocess job");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "multiprocess job failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // The libtest harness may print `test ... ` on the same line before
    // the worker's output, so match the marker anywhere in the line.
    let field = |marker: &str| -> Vec<u64> {
        stdout
            .lines()
            .find_map(|l| l.split_once(marker).map(|(_, rest)| rest))
            .unwrap_or_else(|| panic!("no {marker} line in:\n{stdout}"))
            .split_whitespace()
            .map(|t| u64::from_str_radix(t, 16).unwrap())
            .collect()
    };
    assert_eq!(field("MP_LANCZOS"), vec![lanczos_bits], "Lanczos E0 differs across backends");
    assert_eq!(field("MP_RESTART"), restart_bits, "restart eigenvalues differ across backends");
    let floats = |marker| field(marker).into_iter().map(f64::from_bits).collect::<Vec<_>>();
    let mp_product = floats("MP_PRODUCT");
    assert_eq!(mp_product.len(), product.len());
    for (i, (a, b)) in mp_product.iter().zip(&product).enumerate() {
        assert!((a - b).abs() < 1e-10, "two-thread product differs at {i}: {a} vs {b}");
    }
    assert_eq!(floats("MP_PUTS"), puts, "puts / put_bytes differ across backends");
}

/// Not a test on its own: the SPMD body `transport_equivalence` re-runs
/// across real processes. `#[ignore]` keeps it out of normal runs; the
/// driver invokes it by name with `--ignored`.
#[test]
#[ignore]
fn mp_worker_entry() {
    transport::launch_if_requested();
    let Some(mp) = transport::active() else {
        panic!("mp_worker_entry must be run with LS_TRANSPORT=multiprocess");
    };
    let (lanczos_bits, restart_bits) = run_pipeline();
    let (product, puts) = arrival_ordered_product();
    if mp.rank() == 0 {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let fields = [
            ("MP_LANCZOS", vec![lanczos_bits]),
            ("MP_RESTART", restart_bits),
            ("MP_PRODUCT", bits(&product)),
            ("MP_PUTS", bits(&puts)),
        ];
        for (marker, words) in fields {
            let words: String = words.iter().map(|w| format!(" {w:016x}")).collect();
            println!("{marker}{words}");
        }
    }
}
