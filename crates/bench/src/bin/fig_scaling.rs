//! Thread-scaling of the persistent pool vs the spawn-per-call shim:
//! matrix-vector products and full Lanczos iterations versus thread
//! count, emitted as `BENCH_scaling.json`.
//!
//! Two configurations are compared at every thread count:
//!
//! * **pool** — this repository's current execution model: the persistent
//!   work-stealing pool (parked workers, dynamic chunk claiming) running
//!   the parallel fused Lanczos pipeline (parallel deterministic BLAS-1,
//!   fused matvec+dot and axpy+norm epilogues).
//! * **spawn** — the seed configuration this PR replaces: the
//!   spawn-per-call backend (`rayon::ExecutionMode::SpawnPerCall`, fresh
//!   scoped threads and static chunks on every parallel call) driving the
//!   seed's Lanczos iteration shape (serial BLAS-1, separate matvec and
//!   dot sweeps) — a faithful replica of what the code did before the
//!   pool existed.
//!
//! While measuring, the binary asserts the determinism contract: the
//! batched pull product is bit-identical across every (threads, mode)
//! cell.
//!
//! ```sh
//! cargo run --release -p ls-bench --bin fig_scaling -- \
//!     [--sites N] [--weight W] [--iters I] [--reps R] \
//!     [--threads 1,2,4] [--out BENCH_scaling.json]
//! ```
//!
//! Thread counts above the machine's core count oversubscribe the pool
//! (workers are spawned lazily) — useful for exercising the machinery on
//! small containers, though wall-clock scaling obviously needs real
//! cores.

use ls_basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_core::Operator;
use ls_eigen::op::{axpy, dot, norm, scale};
use ls_eigen::{lanczos_smallest, LanczosOptions, LinearOp};
use rayon::ExecutionMode;
use std::sync::Arc;

struct Cell {
    threads: usize,
    mode: &'static str,
    matvec_seconds: f64,
    lanczos_iter_seconds: f64,
}

/// The seed's Lanczos iteration shape: serial BLAS-1, unfused epilogues
/// (matvec, then a separate dot sweep; axpy, then a separate norm sweep),
/// full two-pass reorthogonalization. Returns the smallest Ritz value's
/// raw tridiagonal coefficients so the two pipelines can be
/// sanity-compared.
fn legacy_lanczos_iterations<S: ls_kernels::Scalar>(
    op: &Operator<S>,
    iters: usize,
) -> (Vec<f64>, Vec<f64>) {
    let n = op.dim();
    let mut v0 = vec![S::ZERO; n];
    for (i, v) in v0.iter_mut().enumerate() {
        *v = S::from_re(((i as f64) * 0.59).sin());
    }
    let nrm = norm(&v0);
    scale(&mut v0, 1.0 / nrm);
    let mut basis = vec![v0];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut w = vec![S::ZERO; n];
    for j in 0..iters {
        op.apply(&basis[j], &mut w);
        let alpha = dot(&basis[j], &w).re();
        alphas.push(alpha);
        axpy(S::from_re(-alpha), &basis[j], &mut w);
        if j > 0 {
            axpy(S::from_re(-betas[j - 1]), &basis[j - 1], &mut w);
        }
        for _pass in 0..2 {
            for vb in &basis {
                let c = dot(vb, &w);
                axpy(-c, vb, &mut w);
            }
        }
        let beta = norm(&w);
        if beta <= 1e-13 {
            break;
        }
        betas.push(beta);
        scale(&mut w, 1.0 / beta);
        basis.push(w.clone());
    }
    (alphas, betas)
}

fn main() {
    let mut sites = 24usize;
    let mut weight: Option<usize> = None;
    let mut iters = 6usize;
    let mut reps = 2usize;
    let mut threads_arg: Option<Vec<usize>> = None;
    let mut out_path = String::from("BENCH_scaling.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value for flag");
        match arg.as_str() {
            "--sites" => sites = value().parse().unwrap(),
            "--weight" => weight = Some(value().parse().unwrap()),
            "--iters" => iters = value().parse().unwrap(),
            "--reps" => reps = value().parse().unwrap(),
            "--threads" => {
                threads_arg =
                    Some(value().split(',').map(|t| t.trim().parse().unwrap()).collect())
            }
            "--out" => out_path = value(),
            other => {
                panic!("unknown flag {other} (try --sites/--weight/--iters/--reps/--threads/--out)")
            }
        }
    }
    let weight = weight.unwrap_or(sites / 2);
    let max_threads = rayon::current_num_threads();
    // Default sweep: powers of two up to the configured width (always
    // including 1 and the maximum).
    let thread_counts = threads_arg.unwrap_or_else(|| {
        let mut ts = vec![1usize];
        let mut t = 2;
        while t < max_threads {
            ts.push(t);
            t *= 2;
        }
        if max_threads > 1 {
            ts.push(max_threads);
        }
        ts
    });

    // The default 24-site U(1) sector of the acceptance experiment.
    let sector = SectorSpec::with_weight(sites as u32, weight as u32).unwrap();
    let kernel = ls_expr::builders::heisenberg(&ls_symmetry::lattice::chain_bonds(sites), 1.0)
        .to_kernel(sites as u32)
        .unwrap();
    let symop = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = Arc::new(SpinBasis::build(sector));
    let dim = basis.dim();
    let op = Operator::from_parts(symop.clone(), Arc::clone(&basis));
    println!("fig_scaling: {sites} sites, weight {weight}, dim {dim}, iters {iters}");
    println!("thread counts {thread_counts:?} (configured width {max_threads})");

    // Roofline attribution: the measured triad ceiling (at the full pool
    // width) and the matvec's modelled traffic, so every cell's achieved
    // GB/s reads directly against the machine's bandwidth.
    let stream_gbps = ls_bench::stream_triad_gbps(3);
    let nnz_offdiag = ls_bench::count_offdiag_entries(&symop, &basis);
    let matvec_bytes = ls_bench::matvec_traffic_bytes(dim, nnz_offdiag);
    println!(
        "STREAM triad ceiling {stream_gbps:.1} GB/s; matvec moves {:.1} MB \
         ({nnz_offdiag} off-diagonal entries; SIMD {:?})",
        matvec_bytes as f64 / 1e6,
        ls_kernels::simd::level()
    );

    let x: Vec<f64> = (0..dim)
        .map(|i| (ls_kernels::hash64_01(i as u64) >> 11) as f64 * 1e-16 - 0.4)
        .collect();
    // Bit-exactness reference, computed once at one thread.
    let prev_limit = rayon::set_thread_limit(1);
    let mut y_ref = vec![0.0f64; dim];
    op.apply(&x, &mut y_ref);
    let pull_ref: Vec<u64> = y_ref.iter().map(|v| v.to_bits()).collect();
    rayon::set_thread_limit(prev_limit);

    // Interleaved rounds: one sample of every (threads, mode) cell per
    // round, so slow machine-load drift biases no cell; the per-cell
    // median is reported (the fig_batch discipline). The visit order is
    // additionally *rotated* each round — with a fixed order, drift that
    // spans a whole round (frequency scaling, a neighbour VM waking up)
    // would still hit the same cells at the same phase every time.
    let configs: Vec<(usize, ExecutionMode, &'static str)> = thread_counts
        .iter()
        .flat_map(|&t| {
            [(t, ExecutionMode::Pool, "pool"), (t, ExecutionMode::SpawnPerCall, "spawn")]
        })
        .collect();
    let mut matvec_samples = vec![Vec::with_capacity(reps); configs.len()];
    let mut lanczos_samples = vec![Vec::with_capacity(reps); configs.len()];
    let mut y = vec![0.0f64; dim];
    for round in 0..reps.max(1) {
        for visit in 0..configs.len() {
            let ci = (visit + round) % configs.len();
            let (threads, mode, label) = configs[ci];
            rayon::set_thread_limit(threads);
            rayon::set_execution_mode(mode);
            // Warm up (pool workers, scratch, memoized diagonal).
            op.apply(&x, &mut y);
            let t = std::time::Instant::now();
            op.apply(&x, &mut y);
            matvec_samples[ci].push(t.elapsed().as_secs_f64());
            if round == 0 {
                // The bit-exactness check doubles as correctness
                // coverage: the default pull product against the
                // 1-thread reference.
                for (i, &v) in y.iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        pull_ref[i],
                        "batched pull diverged at {i} (threads {threads}, {label})"
                    );
                }
            }
            // Full Lanczos iterations: the pool cell runs the fused
            // parallel pipeline, the spawn cell replays the seed's
            // iteration shape on the spawn-per-call backend.
            let sample = match mode {
                ExecutionMode::Pool => {
                    let t = std::time::Instant::now();
                    let res = lanczos_smallest(
                        &op,
                        1,
                        &LanczosOptions { max_iter: iters, tol: 1e-300, ..Default::default() },
                    );
                    t.elapsed().as_secs_f64() / res.iterations.max(1) as f64
                }
                ExecutionMode::SpawnPerCall => {
                    let t = std::time::Instant::now();
                    let (alphas, _betas) = legacy_lanczos_iterations(&op, iters);
                    t.elapsed().as_secs_f64() / alphas.len().max(1) as f64
                }
            };
            lanczos_samples[ci].push(sample);
        }
    }
    rayon::set_execution_mode(ExecutionMode::Pool);
    rayon::set_thread_limit(0);

    let median = |samples: &mut Vec<f64>| -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let mut cells: Vec<Cell> = Vec::new();
    for (ci, &(threads, _mode, label)) in configs.iter().enumerate() {
        let matvec_seconds = median(&mut matvec_samples[ci]);
        let lanczos_iter_seconds = median(&mut lanczos_samples[ci]);
        cells.push(Cell { threads, mode: label, matvec_seconds, lanczos_iter_seconds });
        let gbps = matvec_bytes as f64 / matvec_seconds / 1e9;
        println!(
            "  threads {threads:>3} {label:>5}: matvec {} ({gbps:.1} GB/s, {:.0}% of ceiling), \
             lanczos iteration {}",
            ls_bench::fmt_secs(matvec_seconds),
            100.0 * gbps / stream_gbps,
            ls_bench::fmt_secs(lanczos_iter_seconds)
        );
    }

    let at = |threads: usize, mode: &str| {
        cells.iter().find(|c| c.threads == threads && c.mode == mode).expect("cell measured")
    };
    let t_max = *thread_counts.iter().max().unwrap();
    let matvec_ratio = at(t_max, "spawn").matvec_seconds / at(t_max, "pool").matvec_seconds;
    let lanczos_ratio =
        at(t_max, "spawn").lanczos_iter_seconds / at(t_max, "pool").lanczos_iter_seconds;
    println!("\nat {t_max} threads: pool vs spawn-per-call");
    println!("  matvec:            {matvec_ratio:.2}x");
    println!("  lanczos iteration: {lanczos_ratio:.2}x");

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"threads\": {}, \"mode\": \"{}\", \"matvec_seconds\": {:.9}, \
                 \"lanczos_iter_seconds\": {:.9}, \"matvec_gbps\": {:.4}}}",
                c.threads,
                c.mode,
                c.matvec_seconds,
                c.lanczos_iter_seconds,
                matvec_bytes as f64 / c.matvec_seconds / 1e9
            )
        })
        .collect();
    // Physical context: thread counts above this are oversubscribed, so
    // wall-clock gains there come from fused sweeps and eliminated spawn
    // overhead, not added parallel throughput.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \"sites\": {sites},\n  \"weight\": {weight},\n  \
         \"dim\": {dim},\n  \"iters\": {iters},\n  \"reps\": {reps},\n  \
         \"available_cores\": {cores},\n  \
         \"max_threads\": {t_max},\n  \"stream_gbps\": {stream_gbps:.4},\n  \
         \"matvec_bytes\": {matvec_bytes},\n  \"nnz_offdiag\": {nnz_offdiag},\n  \
         \"series\": [\n{}\n  ],\n  \
         \"pool_vs_spawn_matvec_at_max\": {matvec_ratio:.4},\n  \
         \"pool_vs_spawn_lanczos_at_max\": {lanczos_ratio:.4}\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
