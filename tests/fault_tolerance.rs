//! Fault tolerance: deterministic fault injection (`LS_FAULT`), fast
//! peer-failure detection, supervisor recovery, and artifact cleanup.
//!
//! The hermetic half (plan parsing, exit classification, transport error
//! attribution, rotated-checkpoint recovery through the public API) runs
//! in every `cargo test`. The chaos half forks real multi-process jobs,
//! so it only runs when `LS_MP_E2E=1` is set (CI's chaos-smoke job): the
//! tests re-execute this binary with `LS_TRANSPORT=multiprocess` plus an
//! `LS_FAULT` plan, which routes into the `#[ignore]`d `mp_worker_entry`
//! below, and assert that
//!
//! * a killed rank is detected in **under a second** (not after the
//!   180 s collective timeout),
//! * the supervisor relaunches the job and the recovered solve converges
//!   **bit-identically** to an uninterrupted run, for kills at
//!   enumeration, mid-solve and mid-restart-cycle boundaries,
//! * *silent* errors — a flipped bit in a channel frame, a flipped bit in
//!   a window epoch's collective frame, a NaN'd share of a dot product —
//!   are detected and attributed, end the job with exit 115, and recover
//!   through the same supervised relaunch, again bit-identically, and
//! * a SIGKILLed job (supervisor included) leaves no rendezvous
//!   directory behind under `/dev/shm`.

use exact_diag::eigen::{
    manifest_generations, remove_checkpoint, thick_restart_lanczos, CheckpointPolicy, DenseOp,
    RestartOptions,
};
use exact_diag::runtime::transport::{self, TransportError};
use exact_diag::runtime::{classify_exit, FailureClass, FaultKind, FaultPlan, FrameClass};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Hermetic half
// ---------------------------------------------------------------------

#[test]
fn fault_plans_parse_and_trigger_deterministically() {
    let plan = FaultPlan::parse(
        "kill:rank=2,barrier=7; delay:rank=1,frame=chan,ms=500; drop-conn:rank=3,barrier=2",
    )
    .unwrap();
    assert_eq!(plan.actions.len(), 3);
    assert_eq!(plan.actions[0].kind, FaultKind::Kill);
    assert_eq!(plan.at_barrier(2, 0, 7).count(), 1);
    assert_eq!(plan.at_barrier(2, 1, 7).count(), 0, "restarted incarnations run clean");
    assert_eq!(plan.delays_for(1, 0, FrameClass::Chan).count(), 1);
    assert_eq!(plan.delays_for(1, 0, FrameClass::Coll).count(), 0);
    assert!(plan.is_empty_for(0, 0));
    assert!(FaultPlan::parse("kill:rank=1,barrier=0").is_err(), "ordinals are 1-based");
    assert!(FaultPlan::parse("explode:rank=1").is_err());
}

#[test]
fn exit_classification_orders_culprits() {
    assert_eq!(classify_exit(Some(0), None), FailureClass::Clean);
    assert_eq!(classify_exit(Some(114), None), FailureClass::Failover);
    assert_eq!(classify_exit(Some(124), None), FailureClass::Orphaned);
    assert_eq!(classify_exit(Some(113), None), FailureClass::Desync);
    assert_eq!(classify_exit(Some(7), None), FailureClass::Other(7));
    assert_eq!(classify_exit(None, Some(6)), FailureClass::Crash(6));
    // Attribution: the rank that crashed outranks the ranks that merely
    // aborted in sympathy (exit 114), so the supervisor blames the cause.
    assert!(FailureClass::Crash(6) > FailureClass::Desync);
    assert!(FailureClass::Desync > FailureClass::Failover);
    assert!(FailureClass::Failover > FailureClass::Clean);
    assert!(!FailureClass::Clean.is_abnormal());
    assert!(FailureClass::Crash(9).is_abnormal());
}

#[test]
fn transport_errors_attribute_the_failure() {
    let e = TransportError::PeerFailed {
        peer: 3,
        detail: "connection lost during collective".into(),
        detection: Duration::from_millis(4),
    };
    let msg = e.to_string();
    assert!(msg.contains("peer rank 3 failed"), "{msg}");
    assert!(msg.contains("detected in 0.004s"), "{msg}");
    assert_eq!(e.exit_code(), 114);
    assert_eq!(
        TransportError::Aborted { origin: 1, reason: "x".into() }.exit_code(),
        114,
        "abort receivers exit 114 so the supervisor blames the origin, not them"
    );
    assert_eq!(TransportError::Desync { peer: 0, expected: 1, got: 2 }.exit_code(), 113);
}

/// Rotated checkpoints through the public API: a solve killed mid-way
/// with `keep = 2` leaves a manifest + generation files; corrupting the
/// newest generation still resumes (from the older one) bit-identically.
#[test]
fn rotated_checkpoints_recover_past_a_torn_generation() {
    let n = 120;
    // Any symmetric matrix will do; determinism is the property under test.
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let v = ((i * 37 + j * 17) as f64).sin();
            a[i * n + j] = v;
            a[j * n + i] = v;
        }
    }
    let op = DenseOp::new(n, a);
    let path = std::env::temp_dir()
        .join(format!("ls_fault_tolerance_rotate_{}.lsck", std::process::id()));
    remove_checkpoint(&path).unwrap();

    let base =
        RestartOptions { extra: 10, tol: 1e-12, want_vectors: false, ..RestartOptions::new(2) };
    let reference = thick_restart_lanczos(&op, &base);
    assert!(reference.converged);

    let policy = CheckpointPolicy { keep: 2, ..CheckpointPolicy::new(path.clone()) };
    let partial = thick_restart_lanczos(
        &op,
        &RestartOptions { max_restarts: 3, checkpoint: Some(policy.clone()), ..base.clone() },
    );
    assert!(!partial.converged);
    assert_eq!(manifest_generations(&path).unwrap(), vec![2, 3], "keep-last-2 rotation");

    // Tear the newest generation (a crash mid-write) and resume anyway.
    let g3 = exact_diag::eigen::generation_path(&path, 3);
    let bytes = std::fs::read(&g3).unwrap();
    std::fs::write(&g3, &bytes[..bytes.len() / 3]).unwrap();
    let resumed = thick_restart_lanczos(
        &op,
        &RestartOptions { checkpoint: Some(policy), ..base.clone() },
    );
    assert!(resumed.converged);
    for (r, s) in reference.eigenvalues.iter().zip(&resumed.eigenvalues) {
        assert_eq!(r.to_bits(), s.to_bits(), "recovery is not bit-identical");
    }
    remove_checkpoint(&path).unwrap();
    assert!(!g3.exists(), "remove_checkpoint must prune generation files");
}

proptest! {
    /// The integrity layer's whole premise: no single-bit flip anywhere
    /// in a CRC32C-protected payload goes undetected. (CRC32C detects
    /// all single-bit errors by construction — this pins the *vendored
    /// implementation* to that property, byte tables and all.)
    #[test]
    fn any_single_bit_flip_changes_the_crc(
        mut payload in collection::vec(any::<u8>(), 1..512),
        raw_bit in any::<usize>(),
    ) {
        let clean = exact_diag::runtime::crc32c(&payload);
        let bit = raw_bit % (payload.len() * 8);
        payload[bit / 8] ^= 1 << (bit % 8);
        let flipped = exact_diag::runtime::crc32c(&payload);
        prop_assert!(
            clean != flipped,
            "flipped bit {} of {} bytes went undetected", bit, payload.len()
        );
    }

    /// Frames are checksummed incrementally (header, then payload);
    /// the streamed digest must equal the one-shot digest at any split.
    #[test]
    fn streamed_crc_matches_one_shot(
        payload in collection::vec(any::<u8>(), 0..512),
        raw_cut in any::<usize>(),
    ) {
        let cut = raw_cut % (payload.len() + 1);
        let streamed = exact_diag::runtime::crc32c_append(
            exact_diag::runtime::crc32c(&payload[..cut]),
            &payload[cut..],
        );
        prop_assert_eq!(streamed, exact_diag::runtime::crc32c(&payload));
    }
}

// ---------------------------------------------------------------------
// Chaos half (LS_MP_E2E=1): real multi-process jobs under LS_FAULT
// ---------------------------------------------------------------------

const LOCALES: usize = 4;

fn e2e_enabled() -> bool {
    if std::env::var("LS_MP_E2E").as_deref() == Ok("1") {
        return true;
    }
    eprintln!("LS_MP_E2E not set: skipping the multi-process chaos half");
    false
}

/// Where the supervisor puts job directories (must mirror the runtime).
fn shm_base() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

/// Launches this test binary as a supervised multiprocess job running
/// `mp_worker_entry` in `mode`, with the given fault plan and restart
/// budget. Returns (exit status, stdout, stderr, wall time).
fn launch_job(
    mode: &str,
    fault: &str,
    max_restarts: u32,
    ckpt: &std::path::Path,
) -> (std::process::ExitStatus, String, String, Duration) {
    let exe = std::env::current_exe().unwrap();
    let started = Instant::now();
    let out = std::process::Command::new(&exe)
        .args(["mp_worker_entry", "--exact", "--ignored", "--nocapture"])
        .env("LS_TRANSPORT", "multiprocess")
        .env("LS_LOCALES", LOCALES.to_string())
        .env("LS_FAULT", fault)
        .env("LS_MP_MAX_RESTARTS", max_restarts.to_string())
        .env("LS_MP_BACKOFF_MS", "50")
        .env("LS_FT_MODE", mode)
        .env("LS_FT_CKPT", ckpt)
        .output()
        .expect("spawn multiprocess job");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        started.elapsed(),
    )
}

fn eigenvalue_bits(stdout: &str) -> Vec<u64> {
    stdout
        .lines()
        .find_map(|l| l.split_once("EIGENVALUES").map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("no EIGENVALUES line in:\n{stdout}"))
        .split_whitespace()
        .map(|t| u64::from_str_radix(t, 16).unwrap())
        .collect()
}

/// Satellite (a): a rank killed mid-collective must be detected in well
/// under a second — via socket EOF, not the multi-minute timeout.
#[test]
fn peer_failure_is_detected_sub_second() {
    if !e2e_enabled() {
        return;
    }
    let ckpt = std::env::temp_dir().join(format!("ft-detect-{}.lsck", std::process::id()));
    // No restart budget: the job must fail fast, blaming the killed rank.
    let (status, stdout, stderr, wall) = launch_job("spin", "kill:rank=1,barrier=5", 0, &ckpt);
    assert!(!status.success(), "job with a killed rank must fail:\n{stdout}\n{stderr}");
    assert!(
        wall < Duration::from_secs(30),
        "detection took {wall:?} — the old path burned the full collective timeout"
    );
    // A survivor attributes the failure and reports its detection latency.
    // Every survivor prints one line, its own diagnosis or the one a peer
    // relayed: the first whole latency (`0.012s`) counts.
    let detection: f64 = stderr
        .lines()
        .find_map(|l| {
            let (_, rest) = l.split_once("detected in ")?;
            rest.split_whitespace().next()?.strip_suffix('s')?.parse().ok()
        })
        .unwrap_or_else(|| panic!("no whole detection report in stderr:\n{stderr}"));
    assert!(detection < 1.0, "detection latency {detection}s is not sub-second");
    assert!(
        stderr.contains("supervisor: worker 1 crashed"),
        "supervisor must blame the killed rank:\n{stderr}"
    );
}

/// Tentpole acceptance: kills and connection drops at enumeration,
/// mid-solve and mid-restart-cycle boundaries all recover through the
/// supervisor, and the recovered eigenvalues are bit-identical to an
/// uninterrupted run.
#[test]
fn supervisor_recovers_faulted_solves_bit_identically() {
    if !e2e_enabled() {
        return;
    }
    let tag = std::process::id();
    let ckpt_ref = std::env::temp_dir().join(format!("ft-matrix-ref-{tag}.lsck"));
    remove_checkpoint(&ckpt_ref).unwrap();
    let (status, stdout, stderr, _) = launch_job("solve", "", 0, &ckpt_ref);
    assert!(status.success(), "clean run failed:\n{stdout}\n{stderr}");
    assert!(!stderr.contains("relaunching"), "clean run must not restart:\n{stderr}");
    let reference = eigenvalue_bits(&stdout);
    remove_checkpoint(&ckpt_ref).unwrap();

    // One fault per phase boundary. At 4 ranks enumeration crosses
    // barriers 1–2 (its window epochs are allgathers, not barriers), then
    // every product 2 (its drain, then the re-arm of its channels):
    // product p crosses 1 + 2p and 2 + 2p. The first cycle runs 6
    // products and checkpoints, every later cycle 3. So barrier 2 is
    // inside enumeration, 13 is product 6's drain (cycle 1, before any
    // checkpoint) and 37 product 18's (cycle 5: the relaunch resumes from
    // cycle 4's checkpoint). Corruption takes the same relaunch
    // (`silent_errors_relaunch_bit_identically`).
    let cases = [
        ("kill:rank=1,barrier=2", "enumeration"),
        ("kill:rank=3,barrier=37", "restart cycle"),
        ("drop-conn:rank=2,barrier=13", "matvec epoch"),
    ];
    for (fault, phase) in cases {
        let ckpt = std::env::temp_dir()
            .join(format!("ft-matrix-{tag}-{}.lsck", phase.replace(' ', "-")));
        remove_checkpoint(&ckpt).unwrap();
        let (status, stdout, stderr, _) = launch_job("solve", fault, 2, &ckpt);
        assert!(
            status.success(),
            "faulted job ({fault}, {phase}) did not recover:\n{stdout}\n{stderr}"
        );
        assert!(
            stderr.contains("relaunching"),
            "fault {fault} ({phase}) never fired or never restarted:\n{stderr}"
        );
        assert!(!stderr.contains("rolling back"), "{fault} ({phase}):\n{stderr}");
        assert_eq!(
            eigenvalue_bits(&stdout),
            reference,
            "recovery after {fault} ({phase}) is not bit-identical"
        );
        remove_checkpoint(&ckpt).unwrap();
    }
}

/// Silent-error acceptance: a flipped bit in a channel frame, a flipped
/// bit in a window epoch's collective frame and a NaN'd share of
/// `⟨x, y⟩` must each be *detected* and attributed, end the job as a
/// typed corruption (exit 115) — fail-stop, never repaired in place —
/// and recover through one supervised relaunch from the newest
/// checkpoint, bit-identically to a clean run.
///
/// Fault placement is deterministic but phase-sensitive:
/// * `flip-bit` on `chan` counts sealed channel frames on rank 2 — only
///   the producer/consumer engine ships those, so `nth=40` lands inside
///   a mid-solve product (`solve` mode).
/// * `flip-bit` on `coll` counts rank 1's payload-bearing collective
///   frames: enumeration's count exchange, reductions, checkpoint
///   exchanges and the read window every gather product opens. In a
///   traced `gather-solve` run the first checkpoint follows frame 34 and
///   frame 52 is the second product's read window after it, so the
///   relaunch resumes from that checkpoint (the pc engine never opens
///   windows).
/// * `nan` counts the solver's matvec+dot steps (`DistOp::apply_dot`
///   calls); ordinal 12 lands past the first restart boundary, so the
///   relaunch resumes from a checkpoint rather than from scratch.
#[test]
fn silent_errors_relaunch_bit_identically() {
    if !e2e_enabled() {
        return;
    }
    let tag = std::process::id();
    let mut reference = std::collections::HashMap::new();
    for mode in ["solve", "gather-solve"] {
        let ckpt = std::env::temp_dir().join(format!("ft-silent-ref-{tag}-{mode}.lsck"));
        remove_checkpoint(&ckpt).unwrap();
        let (status, stdout, stderr, _) = launch_job(mode, "", 0, &ckpt);
        assert!(status.success(), "clean {mode} run failed:\n{stdout}\n{stderr}");
        // Integrity checking is on by default and must stay silent on a
        // clean run: no rank names a corrupt frame.
        assert!(
            !stderr.contains("integrity:"),
            "clean {mode} run reported spurious integrity events:\n{stderr}"
        );
        reference.insert(mode, eigenvalue_bits(&stdout));
        remove_checkpoint(&ckpt).unwrap();
    }

    let cases = [
        (
            "solve",
            "nan:rank=0,cycle=12",
            "NaN dot partial",
            "ls-eigen: solver health violation in cycle 2: alpha check failed",
        ),
        (
            "solve",
            "flip-bit:rank=2,frame=chan,nth=40",
            "wire bit-flip",
            "integrity: corrupt chan from rank 2 (payload CRC mismatch)",
        ),
        (
            "gather-solve",
            "flip-bit:rank=1,frame=coll,nth=52",
            "window bit-flip",
            "integrity: corrupt coll from rank 1 (payload CRC mismatch)",
        ),
    ];
    for (mode, fault, what, detected) in cases {
        let ckpt = std::env::temp_dir()
            .join(format!("ft-silent-{tag}-{}.lsck", what.replace(' ', "-")));
        remove_checkpoint(&ckpt).unwrap();
        let (status, stdout, stderr, _) = launch_job(mode, fault, 1, &ckpt);
        assert!(
            status.success(),
            "{what} ({fault}, {mode}) did not recover:\n{stdout}\n{stderr}"
        );
        assert!(stderr.contains("fault injection:"), "{what} ({fault}) never fired:\n{stderr}");
        assert!(stderr.contains(detected), "{what} ({fault}) was not attributed:\n{stderr}");
        assert!(
            stderr.contains("detected unrecovered data corruption (exit 115)"),
            "{what} ({fault}) did not end as a typed corruption exit:\n{stderr}"
        );
        assert!(
            stderr.contains("supervisor: relaunching"),
            "{what} ({fault}) was not relaunched:\n{stderr}"
        );
        assert!(!stderr.contains("rolling back"), "{what} ({fault}):\n{stderr}");
        assert_eq!(
            eigenvalue_bits(&stdout),
            reference[mode],
            "recovery after {what} ({fault}) is not bit-identical"
        );
        remove_checkpoint(&ckpt).unwrap();
    }
}

/// Satellite (b): SIGKILLing the whole job — supervisor included — must
/// leave no rendezvous directory behind (the workers' stdin watchdog
/// cleans up on supervisor death).
#[test]
fn sigkilled_job_leaves_no_artifacts() {
    if !e2e_enabled() {
        return;
    }
    let ckpt = std::env::temp_dir().join(format!("ft-sigkill-{}.lsck", std::process::id()));
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(&exe)
        .args(["mp_worker_entry", "--exact", "--ignored", "--nocapture"])
        .env("LS_TRANSPORT", "multiprocess")
        .env("LS_LOCALES", LOCALES.to_string())
        .env("LS_FT_MODE", "spin")
        .env("LS_FT_CKPT", &ckpt)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn multiprocess job");
    let supervisor_pid = child.id();
    let prefix = format!("ls-mp-{supervisor_pid}.");
    let job_dirs = || -> Vec<PathBuf> {
        std::fs::read_dir(shm_base())
            .map(|rd| {
                rd.filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with(&prefix))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    // Wait for the job to actually come up (rendezvous dir populated).
    let deadline = Instant::now() + Duration::from_secs(20);
    while job_dirs().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!job_dirs().is_empty(), "job directory never appeared under {:?}", shm_base());
    std::thread::sleep(Duration::from_millis(500));

    child.kill().expect("SIGKILL the supervisor");
    child.wait().expect("reap the supervisor");

    // Workers see stdin EOF, remove the job dir and exit; give them a
    // few seconds.
    let deadline = Instant::now() + Duration::from_secs(15);
    while !job_dirs().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(job_dirs().is_empty(), "SIGKILLed job leaked artifacts: {:?}", job_dirs());
}

// ---------------------------------------------------------------------
// SPMD worker body (re-executed across real processes)
// ---------------------------------------------------------------------

/// Not a test on its own: the chaos tests re-run this across real
/// processes. `LS_FT_MODE` picks the body: `spin` crosses barriers at a
/// steady pace (fodder for kill/detection tests); `solve` runs the
/// checkpointed distributed eigensolve through the producer/consumer
/// engine; `gather-solve` runs the same solve through the pull-style
/// gather product (the window read path, for `coll` bit-flips).
/// Both solve modes print `EIGENVALUES` and an `FT_STATS` line.
#[test]
#[ignore]
fn mp_worker_entry() {
    transport::launch_if_requested();
    let Some(mp) = transport::active() else {
        panic!("mp_worker_entry must be run with LS_TRANSPORT=multiprocess");
    };
    match std::env::var("LS_FT_MODE").as_deref() {
        Ok("spin") => {
            // ~10 s of barrier crossings; a kill fault cuts this short.
            for _ in 0..200 {
                mp.barrier();
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        Ok("solve") => run_solve(mp, false),
        Ok("gather-solve") => run_solve(mp, true),
        other => panic!("unknown LS_FT_MODE {other:?}"),
    }
}

fn run_solve(mp: &'static transport::MpRuntime, gather: bool) {
    use exact_diag::basis::{SectorSpec, SymmetrizedOperator};
    use exact_diag::dist::eigensolve::{dist_thick_restart_lanczos, DistRestartOptions};
    use exact_diag::dist::enumerate_dist;
    use exact_diag::dist::matvec::PcOptions;
    use exact_diag::prelude::*;
    use exact_diag::runtime::{Cluster, ClusterSpec};

    const SITES: usize = 14;
    let cluster = Cluster::new(ClusterSpec::new(mp.n_locales(), 1));
    let kernel = heisenberg(&chain_bonds(SITES), 1.0).to_kernel(SITES as u32).unwrap();
    let group = chain_group(SITES, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(SITES as u32, Some(SITES as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = enumerate_dist(&cluster, &sector, 3);
    let pc = PcOptions { deterministic: true, ..PcOptions::default() };

    let ckpt = PathBuf::from(std::env::var("LS_FT_CKPT").expect("LS_FT_CKPT not set"));
    let restart = RestartOptions {
        k: 2,
        extra: 8,
        tol: 1e-10,
        max_restarts: 500,
        checkpoint: Some(CheckpointPolicy { keep: 2, ..CheckpointPolicy::new(ckpt) }),
        ..RestartOptions::new(2)
    };
    let res = if gather {
        // The pull-style product: every iteration opens a read window,
        // whose collective frames a `coll` bit-flip damages mid-solve.
        let gop = exact_diag::dist::matvec::GatherOp::new(&cluster, &op, &basis);
        exact_diag::eigen::thick_restart_lanczos_in(&gop, &restart)
    } else {
        dist_thick_restart_lanczos(&cluster, &op, &basis, &DistRestartOptions { restart, pc })
    };
    assert!(res.converged, "solve did not converge");
    if mp.rank() == 0 {
        print!("EIGENVALUES");
        for v in &res.eigenvalues {
            print!(" {:016x}", v.to_bits());
        }
        println!();
        let w = mp.stats().snapshot();
        println!(
            "FT_STATS restarts={} peer_failures={} crc_bytes_checked={} mean_detection={:.6}",
            w.restarts,
            w.peer_failures,
            w.crc_bytes_checked,
            w.mean_detection_seconds()
        );
    }
}
