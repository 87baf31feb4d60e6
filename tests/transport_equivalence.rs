//! Transport equivalence: the same distributed pipeline — enumeration,
//! deterministic producer/consumer matvec, in-place Lanczos,
//! checkpointed thick-restart with resume — produces **bit-identical**
//! eigenvalues on the in-process backend and on the real multi-process
//! backend, at the same locale count. The arrival-ordered product on two
//! threads per locale — two threads claiming credits on one sender and
//! popping one receiver — agrees across backends to rounding, with equal
//! put counts. A hundred products back to back on one engine, with no
//! collective between them, agree bit for bit and cross exactly two
//! barriers each. And on three locales the window epochs — enumeration,
//! a block → hashed → block round trip, a read epoch over stale
//! replicas and a write epoch that covers only part of each part — leave
//! the same bits on every rank as in process, without a barrier.
//!
//! The in-process half (plus determinism and statistics invariants) runs
//! hermetically in every `cargo test`. The multi-process half needs to
//! fork real OS processes, so it only runs when `LS_MP_E2E=1` is set
//! (CI's multiprocess smoke job does): the test re-executes its own
//! binary with `LS_TRANSPORT=multiprocess`, which routes into the
//! `#[ignore]`d `mp_worker_entry` test below — first as the launcher,
//! then as the SPMD workers — and bit-compares the printed eigenvalues.

use exact_diag::basis::{SectorSpec, SymmetrizedOperator};
use exact_diag::dist::convert::{hashed_masks, to_block};
use exact_diag::dist::eigensolve::{dist_thick_restart_lanczos, DistOp, DistRestartOptions};
use exact_diag::dist::matvec::PcOptions;
use exact_diag::dist::{block_to_hashed, enumerate_dist, hashed_to_block, DistSpinBasis};
use exact_diag::eigen::{lanczos_smallest_in, KrylovOp};
use exact_diag::prelude::*;
use exact_diag::runtime::{collective, transport, RmaReadWindow, RmaWriteWindow};
use exact_diag::runtime::{AtomicAccumWindow, Cluster, ClusterSpec, DistVec};
use std::path::PathBuf;

const SITES: usize = 14;
const LOCALES: usize = 2;
/// Products the back-to-back row makes on one engine.
const BACK_TO_BACK: usize = 100;
/// Locales of the window-epoch row: three, so that every epoch has a part
/// that is neither the reader's nor the writer's.
const WINDOW_LOCALES: usize = 3;

/// The symmetrized `SITES`-site Heisenberg ring.
fn sector() -> SectorSpec {
    let group = chain_group(SITES, 0, Some(0), Some(0)).unwrap();
    SectorSpec::new(SITES as u32, Some(SITES as u32 / 2), group).unwrap()
}

/// The deterministic start value of basis state `s`.
fn start_value(s: u64) -> f64 {
    ((s as f64) * 0.37).sin()
}

/// [`sector`]'s operator on one core a locale, distributed, with a
/// deterministic start vector.
fn chain() -> (Cluster, SymmetrizedOperator<f64>, DistSpinBasis, DistVec<f64>) {
    let cluster = Cluster::new(ClusterSpec::new(collective::locales_from_env(LOCALES), 1));
    let kernel = heisenberg(&chain_bonds(SITES), 1.0).to_kernel(SITES as u32).unwrap();
    let sector = sector();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = enumerate_dist(&cluster, &sector, 3);
    let parts = basis.states().parts().iter();
    let x = DistVec::<f64>::from_parts(
        parts.map(|p| p.iter().copied().map(start_value).collect()).collect(),
    );
    (cluster, op, basis, x)
}

/// The full SPMD pipeline under test. Runs on whichever transport is
/// active; returns `(lanczos_e0_bits, restart_eigenvalue_bits)`.
fn run_pipeline() -> (u64, Vec<u64>) {
    let mp = transport::active();
    let (cluster, op, basis, x) = chain();
    let locales = cluster.n_locales();
    let pc = PcOptions { deterministic: true, ..PcOptions::default() };

    // Determinism invariant: two deterministic products are bit-equal on
    // this rank's part (the only authoritative one under multiprocess).
    let me = mp.map(|m| m.rank()).unwrap_or(0);
    let mut y1 = DistVec::<f64>::zeros(&basis.states().lens());
    let mut y2 = DistVec::<f64>::zeros(&basis.states().lens());
    DistOp::new(&cluster, &op, &basis, pc).apply(&x, &mut y1);
    DistOp::new(&cluster, &op, &basis, pc).apply(&x, &mut y2);
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
    let res =
        lanczos_smallest_in(&DistOp::new(&cluster, &op, &basis, pc), 1, &Default::default());
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
/// tens of batches of the default capacity (18 sites: 116 in all):
/// `y` in global order, then the job's `puts` and `put_bytes`.
fn arrival_ordered_product() -> (Vec<f64>, Vec<f64>) {
    const SITES: usize = 18;
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
    DistOp::new(&cluster, &op, &basis, PcOptions::default()).apply(&x, &mut y);
    let stats = cluster.stats_total();
    let mut dense = Vec::new();
    collective::for_each_global(&y, |v| dense.push(v));
    (dense, collective::allreduce(vec![stats.puts as f64, stats.put_bytes as f64]))
}

/// `BACK_TO_BACK` deterministic products on one engine, each fed the last
/// one's result scaled by 1/8 (exactly), with no collective between them:
/// `y` in global order after the last, and the barriers the transport
/// crossed meanwhile (none in process).
fn back_to_back_products() -> (Vec<f64>, u64) {
    let (cluster, op, basis, mut x) = chain();
    let opts = PcOptions { capacity: 16, deterministic: true };
    let engine = DistOp::new(&cluster, &op, &basis, opts);
    let mut y = DistVec::<f64>::zeros(&basis.states().lens());
    let barriers = || transport::active().map_or(0, |mp| mp.stats().snapshot().barriers);
    let before = barriers();
    for _ in 0..BACK_TO_BACK {
        engine.apply(&x, &mut y);
        for (xp, yp) in x.parts_mut().iter_mut().zip(y.parts()) {
            xp.iter_mut().zip(yp).for_each(|(xi, &yi)| *xi = yi * 0.125);
        }
    }
    let crossed = barriers() - before;
    let mut dense = Vec::new();
    collective::for_each_global(&y, |v| dense.push(v));
    (dense, crossed)
}

/// The window epochs on `WINDOW_LOCALES` locales, each asserting on every
/// rank what it must leave there: the digest of the enumeration and its
/// round trip, and the barriers one read epoch and one write epoch
/// crossed.
fn window_epochs() -> (u64, [u64; 2]) {
    let locales = WINDOW_LOCALES;
    let cluster = Cluster::new(ClusterSpec::new(locales, 1));
    let basis = enumerate_dist(&cluster, &sector(), 3);

    // Block → hashed → block: the sorted states' values travel to the
    // locales that own the states, then back.
    let mut states = basis.states().concat();
    states.sort_unstable();
    let block = to_block(&states.iter().copied().map(start_value).collect::<Vec<_>>(), locales);
    let masks = hashed_masks(&cluster, &to_block(&states, locales));
    let hashed = block_to_hashed(&cluster, &block, &masks, 2);
    for (part, owned) in hashed.parts().iter().zip(basis.states().parts()) {
        let want: Vec<f64> = owned.iter().copied().map(start_value).collect();
        assert_eq!(bits(part), bits(&want), "block_to_hashed misplaced a value");
    }
    let back = hashed_to_block(&cluster, &hashed, &masks, 3);
    for (back, block) in back.parts().iter().zip(block.parts()) {
        assert_eq!(bits(back), bits(block), "the round trip is not exact");
    }
    let words = basis.states().parts().iter().flatten().copied();
    let words = words.chain(hashed.parts().iter().flat_map(|p| bits(p)));
    let digest =
        words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3));

    // Every rank starts from its own part and stale replicas of the
    // others: a read epoch sees the owners' values, and after a write
    // epoch that puts one element into the next locale's part the rest
    // of every part is still its owner's.
    let owner = |d: usize| [0, 1, 2, 3].map(|i| (100 * d + i) as u64);
    let hosted = collective::hosted(locales);
    let mut v = DistVec::from_parts(
        (0..locales)
            .map(|d| if hosted.contains(&d) { owner(d).to_vec() } else { vec![u64::MAX; 4] })
            .collect(),
    );
    let barriers = || transport::active().map_or(0, |mp| mp.stats().snapshot().barriers);
    let before = barriers();
    {
        let win = RmaReadWindow::new(&v);
        cluster.run(|ctx| {
            for d in 0..locales {
                let mut got = [0u64; 4];
                win.get(ctx, d, 0, &mut got);
                assert_eq!(got, owner(d), "a read epoch returned a stale replica");
            }
        });
    }
    let read = barriers() - before;
    let before = barriers();
    {
        let win = RmaWriteWindow::new(&mut v);
        cluster.run(|ctx| {
            win.put(ctx, (ctx.locale() + 1) % locales, 1, &[1000 + ctx.locale() as u64])
        });
    }
    let write = barriers() - before;
    for d in 0..locales {
        let mut want = owner(d);
        want[1] = (1000 + (d + locales - 1) % locales) as u64;
        assert_eq!(v.part(d), want, "part {d} after a write epoch covering one element");
    }
    (digest, [read, write])
}

fn e2e_enabled() -> bool {
    if std::env::var("LS_MP_E2E").as_deref() == Ok("1") {
        return true;
    }
    eprintln!("LS_MP_E2E not set: skipping the multi-process half");
    false
}

/// Re-executes this test binary as a `locales`-rank multiprocess job
/// running the ignored test `entry` with `envs` set, and returns the
/// job's stdout (rank 0 prints the digests).
fn run_job(entry: &str, locales: usize, envs: &[(&str, &std::ffi::OsStr)]) -> String {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([entry, "--exact", "--ignored", "--nocapture"])
        .env("LS_TRANSPORT", "multiprocess")
        .env("LS_LOCALES", locales.to_string())
        .envs(envs.iter().copied())
        .output()
        .expect("spawn multiprocess job");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "multiprocess job failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The hex words printed after `marker` by [`print_fields`]. The libtest
/// harness may print `test ... ` on the same line before the worker's
/// output, so the marker may stand anywhere in the line.
fn field(stdout: &str, marker: &str) -> Vec<u64> {
    stdout
        .lines()
        .find_map(|l| l.split_once(marker).map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("no {marker} line in:\n{stdout}"))
        .split_whitespace()
        .map(|t| u64::from_str_radix(t, 16).unwrap())
        .collect()
}

/// Prints each marker and its words in hex, one line each, on rank 0.
fn print_fields(fields: &[(&str, Vec<u64>)]) {
    if transport::is_primary() {
        for (marker, words) in fields {
            let words: String = words.iter().map(|w| format!(" {w:016x}")).collect();
            println!("{marker}{words}");
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn transport_equivalence() {
    let (lanczos_bits, restart_bits) = run_pipeline();
    let (product, puts) = arrival_ordered_product();
    assert!(puts[0] >= 40.0, "every channel must hand over many batches: {puts:?}");
    if !e2e_enabled() {
        return;
    }
    let ckpt =
        std::env::temp_dir().join(format!("transport-eq-mp-{}.lsck", std::process::id()));
    let stdout = run_job("mp_worker_entry", LOCALES, &[("LS_MP_E2E_CKPT", ckpt.as_os_str())]);
    let field = |marker| field(&stdout, marker);
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

/// Products back to back, with integrity off so that no ABFT allreduce
/// stands between them: only the engine's own re-arm barrier keeps a fast
/// rank's next batches from reaching a receiver that has not been reset.
#[test]
fn back_to_back_products_cross_two_barriers_each() {
    let (product, crossed) = back_to_back_products();
    assert_eq!(crossed, 0, "in process the transport crosses no barrier");
    if !e2e_enabled() {
        return;
    }
    let stdout = run_job("mp_back_to_back_entry", LOCALES, &[("LS_INTEGRITY", "off".as_ref())]);
    let crossed = field(&stdout, "MP_BARRIERS");
    assert_eq!(crossed, vec![2 * BACK_TO_BACK as u64], "two barriers a multiprocess product");
    assert_eq!(field(&stdout, "MP_PRODUCT"), bits(&product), "products differ across backends");
}

/// Window epochs ride the collectives: the same bits on every rank as in
/// process, and no barrier crossed by a read or a write epoch.
#[test]
fn window_epochs_match_in_process_without_a_barrier() {
    let (digest, crossed) = window_epochs();
    assert_eq!(crossed, [0, 0], "in process the transport crosses no barrier");
    if !e2e_enabled() {
        return;
    }
    let stdout = run_job("mp_window_entry", WINDOW_LOCALES, &[]);
    assert_eq!(
        field(&stdout, "MP_DIGEST"),
        vec![digest],
        "window epochs differ across backends"
    );
    assert_eq!(field(&stdout, "MP_BARRIERS"), vec![0, 0], "a window epoch crossed a barrier");
}

/// Not a test on its own: the SPMD body `transport_equivalence` re-runs
/// across real processes. `#[ignore]` keeps it out of normal runs; the
/// driver invokes it by name with `--ignored`.
#[test]
#[ignore]
fn mp_worker_entry() {
    transport::launch_if_requested();
    assert!(
        transport::active().is_some(),
        "run mp_worker_entry with LS_TRANSPORT=multiprocess"
    );
    let (lanczos_bits, restart_bits) = run_pipeline();
    let (product, puts) = arrival_ordered_product();
    print_fields(&[
        ("MP_LANCZOS", vec![lanczos_bits]),
        ("MP_RESTART", restart_bits),
        ("MP_PRODUCT", bits(&product)),
        ("MP_PUTS", bits(&puts)),
    ]);
}

/// Not a test on its own: the SPMD body of
/// `back_to_back_products_cross_two_barriers_each`, run like
/// [`mp_worker_entry`].
#[test]
#[ignore]
fn mp_back_to_back_entry() {
    transport::launch_if_requested();
    let Some(mp) = transport::active() else {
        panic!("mp_back_to_back_entry must be run with LS_TRANSPORT=multiprocess");
    };
    let (product, crossed) = back_to_back_products();
    // Remote accumulation stays in process: an add into the part the
    // other rank hosts is refused by name, never made into a stale replica.
    let other = 1 - mp.rank();
    let mut y = DistVec::<f64>::zeros(&[1; LOCALES]);
    let win = AtomicAccumWindow::new(&mut y);
    let refused = std::panic::catch_unwind(|| win.fetch_add(other, 0, 1.0)).unwrap_err();
    let message = refused.downcast_ref::<String>().expect("a formatted panic");
    assert!(message.contains(&format!("locale {other}'s part lives in another process")));
    print_fields(&[("MP_BARRIERS", vec![crossed]), ("MP_PRODUCT", bits(&product))]);
}

/// Not a test on its own: the SPMD body of
/// `window_epochs_match_in_process_without_a_barrier`, run like
/// [`mp_worker_entry`] on `WINDOW_LOCALES` ranks.
#[test]
#[ignore]
fn mp_window_entry() {
    transport::launch_if_requested();
    assert!(
        transport::active().is_some(),
        "run mp_window_entry with LS_TRANSPORT=multiprocess"
    );
    let (digest, crossed) = window_epochs();
    print_fields(&[("MP_DIGEST", vec![digest]), ("MP_BARRIERS", crossed.to_vec())]);
}
