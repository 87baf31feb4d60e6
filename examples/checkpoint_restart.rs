//! Memory-bounded eigensolving with checkpoint/restart: kill this
//! process at ANY moment (SIGKILL included) and rerun the same command —
//! the solve resumes from the last completed restart cycle and finishes
//! with **bit-identical** eigenvalues.
//!
//! The solver is thick-restart Lanczos holding at most `k + extra`
//! Krylov vectors; each restart cycle compresses the basis to the best
//! Ritz pairs and (here, `every = 1`) writes an atomic, checksummed
//! checkpoint. The example drives one restart cycle per solver call so
//! it can narrate progress — every call after the first resumes from the
//! checkpoint, which is exactly the kill-and-resume path.
//!
//! ```sh
//! cargo run --release --example checkpoint_restart -- \
//!     [--sites N] [--weight W] [--k K] [--extra P] [--tol T] \
//!     [--ckpt PATH] [--keep K] [--fresh] [--verify] [--max-cycles C]
//! ```
//!
//! `--fresh` deletes an existing checkpoint first (generation files and
//! manifest included); `--verify` reruns the whole solve uninterrupted
//! in memory and asserts the eigenvalues are bit-identical to the
//! chunked/resumed run. `--keep K` (K > 1) switches to rotated
//! keep-last-K checkpoints: each cycle writes a new generation file and
//! a crash-consistent manifest, and the resume path falls back to an
//! older generation if the newest is torn — determinism makes resumption
//! from *any* cycle converge to the same bits.
//!
//! With `LS_TRANSPORT=multiprocess LS_LOCALES=N` the same contract holds
//! across OS processes: the solve runs distributed (thick-restart over
//! the producer/consumer product with the deterministic schedule), every
//! rank writes the identical canonical-order checkpoint via its own
//! atomic tempfile, and killing the whole job (launcher included) at any
//! moment still resumes bit-identically — on the same locale count.

use exact_diag::prelude::*;
use exact_diag::runtime::transport;

fn main() {
    transport::launch_if_requested();
    let mut sites = 18usize;
    let mut weight: Option<usize> = None;
    let mut k = 2usize;
    let mut extra = 10usize;
    let mut tol = 1e-10f64;
    let mut ckpt = String::from("checkpoint_restart.lsck");
    let mut keep = 1usize;
    let mut fresh = false;
    let mut verify = false;
    let mut max_cycles = 500usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value for flag");
        match arg.as_str() {
            "--sites" => sites = value().parse().unwrap(),
            "--weight" => weight = Some(value().parse().unwrap()),
            "--k" => k = value().parse().unwrap(),
            "--extra" => extra = value().parse().unwrap(),
            "--tol" => tol = value().parse().unwrap(),
            "--ckpt" => ckpt = value(),
            "--keep" => keep = value().parse().unwrap(),
            "--fresh" => fresh = true,
            "--verify" => verify = true,
            "--max-cycles" => max_cycles = value().parse().unwrap(),
            other => panic!(
                "unknown flag {other} (try --sites/--weight/--k/--extra/--tol/--ckpt/\
                 --keep/--fresh/--verify/--max-cycles)"
            ),
        }
    }
    let weight = weight.unwrap_or(sites / 2) as u32;
    let path = std::path::PathBuf::from(&ckpt);
    if fresh {
        // One deleter is enough; the barrier keeps a lagging rank from
        // probing (and resuming from) the file before it disappears.
        // `remove_checkpoint` also prunes rotated generation files.
        if transport::is_primary() {
            exact_diag::core::io::remove_checkpoint(&path).ok();
        }
        if let Some(mp) = transport::active() {
            mp.barrier();
        }
    }

    if let Some(mp) = transport::active() {
        run_distributed(
            mp, sites, weight, k, extra, tol, &ckpt, &path, keep, verify, max_cycles,
        );
        return;
    }

    let expr = heisenberg(&chain_bonds(sites), 1.0);
    let sector = SectorSpec::with_weight(sites as u32, weight).unwrap();
    let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
    println!(
        "{sites}-site U(1) sector (weight {weight}): dim {}, budget {} vectors \
         ({:.1} MiB of Krylov state), tol {tol:.0e}",
        basis.dim(),
        k + extra,
        ((k + extra) * basis.dim() * 8) as f64 / (1024.0 * 1024.0),
    );
    if path.exists() {
        println!("resuming from checkpoint {ckpt}");
    }

    let base = RestartOptions { k, extra, tol, ..RestartOptions::new(k) };
    let policy = CheckpointPolicy { keep, ..CheckpointPolicy::new(path.clone()) };

    // One restart cycle per call: `max_restarts` is cumulative (stored in
    // the checkpoint), so raising the cap by 1 each call runs exactly one
    // new cycle and re-enters through the resume path every time. After a
    // resume, start past the checkpoint's restart counter — calls with a
    // lower cap would reload the state and return without doing work.
    // The latest-checkpoint probe understands both the plain single-file
    // format and the rotated manifest (falling back past torn newest
    // generations, exactly like the solver's own resume path).
    let start = if path.exists() {
        match exact_diag::core::io::load_latest_checkpoint::<Vec<f64>, _>(&path, &op) {
            Ok(st) => st.restarts + 1,
            Err(e) => panic!("cannot resume from {ckpt}: {e}"),
        }
    } else {
        1
    };
    let mut result = None;
    for cycle in start..=max_cycles.max(start) {
        let res = exact_diag::eigen::thick_restart_lanczos(
            &op,
            &RestartOptions {
                max_restarts: cycle,
                checkpoint: Some(policy.clone()),
                ..base.clone()
            },
        );
        let lam0 = res.eigenvalues.first().copied().unwrap_or(f64::NAN);
        let resid = res.residuals.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "cycle {cycle:>4}: λ0 ≈ {lam0:.12}  max residual {resid:.3e}  \
             (peak {} vectors, {} matvecs this call)",
            res.peak_retained, res.iterations
        );
        let done = res.converged;
        result = Some(res);
        if done {
            break;
        }
    }
    let result = result.expect("max_cycles must be >= 1");
    assert!(result.converged, "did not converge within {max_cycles} cycles");

    print!("EIGENVALUES");
    for v in &result.eigenvalues {
        print!(" {:016x}", v.to_bits());
    }
    println!();
    for (i, v) in result.eigenvalues.iter().enumerate() {
        println!("  λ{i} = {v:.15}");
    }

    if verify {
        // The uninterrupted reference: same options, no checkpointing,
        // one call. Bit-identical eigenvalues are the resume contract.
        let reference = exact_diag::eigen::thick_restart_lanczos(&op, &base);
        assert!(reference.converged);
        assert_eq!(
            reference.eigenvalues.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            result.eigenvalues.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "checkpointed run diverged from the uninterrupted solve"
        );
        println!("VERIFIED: chunked/resumed run is bit-identical to the uninterrupted solve");
    }
}

/// The multiprocess variant: the identical cycle-by-cycle protocol, but
/// the solve is the distributed thick-restart Lanczos (deterministic
/// producer/consumer schedule), the Krylov state lives in the hashed
/// distribution and the checkpoint is written in canonical global order
/// by every rank. SPMD: all ranks execute everything collective; only
/// rank 0 narrates.
#[allow(clippy::too_many_arguments)]
fn run_distributed(
    mp: &'static transport::MpRuntime,
    sites: usize,
    weight: u32,
    k: usize,
    extra: usize,
    tol: f64,
    ckpt: &str,
    path: &std::path::Path,
    keep: usize,
    verify: bool,
    max_cycles: usize,
) {
    use exact_diag::basis::{SectorSpec, SymmetrizedOperator};
    use exact_diag::dist::eigensolve::{
        dist_thick_restart_lanczos, DistOp, DistRestartOptions,
    };
    use exact_diag::dist::enumerate_dist;
    use exact_diag::dist::matvec::PcOptions;
    use exact_diag::runtime::{Cluster, ClusterSpec, DistVec};

    let primary = mp.rank() == 0;
    let kernel = heisenberg(&chain_bonds(sites), 1.0).to_kernel(sites as u32).unwrap();
    let sector = SectorSpec::with_weight(sites as u32, weight).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let cluster = Cluster::new(ClusterSpec::new(mp.n_locales(), 1));
    let basis = enumerate_dist(&cluster, &sector, 4);
    if primary {
        println!(
            "{sites}-site U(1) sector (weight {weight}): dim {}, budget {} vectors, \
             tol {tol:.0e} — distributed over {} processes",
            basis.dim(),
            k + extra,
            mp.n_locales(),
        );
        if path.exists() {
            println!("resuming from checkpoint {ckpt}");
        }
    }

    let pc = PcOptions { deterministic: true, ..PcOptions::default() };
    let base = RestartOptions { k, extra, tol, ..RestartOptions::new(k) };
    let policy = CheckpointPolicy { keep, ..CheckpointPolicy::new(path.to_path_buf()) };

    let start = if path.exists() {
        let probe = DistOp::new(&cluster, &op, &basis, pc);
        match exact_diag::core::io::load_latest_checkpoint::<DistVec<f64>, _>(path, &probe) {
            Ok(st) => st.restarts + 1,
            Err(e) => panic!("cannot resume from {ckpt}: {e}"),
        }
    } else {
        1
    };
    let mut result = None;
    for cycle in start..=max_cycles.max(start) {
        let res = dist_thick_restart_lanczos(
            &cluster,
            &op,
            &basis,
            &DistRestartOptions {
                restart: RestartOptions {
                    max_restarts: cycle,
                    checkpoint: Some(policy.clone()),
                    ..base.clone()
                },
                pc,
            },
        );
        let lam0 = res.eigenvalues.first().copied().unwrap_or(f64::NAN);
        let resid = res.residuals.iter().cloned().fold(0.0f64, f64::max);
        if primary {
            println!(
                "cycle {cycle:>4}: λ0 ≈ {lam0:.12}  max residual {resid:.3e}  \
                 (peak {} vectors, {} matvecs this call)",
                res.peak_retained, res.iterations
            );
        }
        let done = res.converged;
        result = Some(res);
        if done {
            break;
        }
    }
    let result = result.expect("max_cycles must be >= 1");
    assert!(result.converged, "did not converge within {max_cycles} cycles");

    if primary {
        print!("EIGENVALUES");
        for v in &result.eigenvalues {
            print!(" {:016x}", v.to_bits());
        }
        println!();
        for (i, v) in result.eigenvalues.iter().enumerate() {
            println!("  λ{i} = {v:.15}");
        }
    }

    if verify {
        // Uninterrupted reference on the same cluster shape (collective:
        // every rank participates; every rank checks).
        let reference = dist_thick_restart_lanczos(
            &cluster,
            &op,
            &basis,
            &DistRestartOptions { restart: base, pc },
        );
        assert!(reference.converged);
        assert_eq!(
            reference.eigenvalues.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            result.eigenvalues.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "checkpointed run diverged from the uninterrupted solve"
        );
        if primary {
            println!(
                "VERIFIED: chunked/resumed run is bit-identical to the uninterrupted solve"
            );
        }
    }
}
