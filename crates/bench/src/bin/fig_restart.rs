//! Memory-bounded vs full-memory Lanczos: time-to-tolerance and peak
//! retained Krylov vectors, emitted as `BENCH_restart.json`.
//!
//! Two configurations on the same U(1) sector:
//!
//! * **full** — the recurrence as one cycle (every Krylov vector retained):
//!   fastest in matvec count, but its memory high-water mark grows with
//!   the iteration count — `(m + 1) · dim` scalars.
//! * **thick** — thick-restart Lanczos
//!   (`ls_eigen::thick_restart_lanczos`) under a `k + extra` vector
//!   budget: more matvecs (each restart discards subspace information),
//!   bounded memory — the trade the paper's large sectors force.
//!
//! The binary asserts both reach the same eigenvalues (cross-solver
//! oracle, same as `tests/restart_oracle.rs`) and that the thick run's
//! realized peak stays within its budget; the CI bench-smoke step
//! re-validates both from the JSON.
//!
//! ```sh
//! cargo run --release -p ls-bench --bin fig_restart -- \
//!     [--sites N] [--weight W] [--k K] [--extra P] [--tol T] \
//!     [--reps R] [--out BENCH_restart.json]
//! ```

use ls_basis::SectorSpec;
use ls_core::Operator;
use ls_eigen::{thick_restart_lanczos, LanczosOptions, RestartOptions};
use ls_expr::builders::heisenberg;
use ls_symmetry::lattice::chain_bonds;
use std::time::Instant;

struct Cell {
    mode: &'static str,
    seconds: f64,
    matvecs: usize,
    peak_retained: usize,
    eigenvalues: Vec<f64>,
}

impl Cell {
    fn to_json(&self) -> String {
        let evs: Vec<String> = self.eigenvalues.iter().map(|v| format!("{v:.15e}")).collect();
        format!(
            "    {{\"mode\": \"{}\", \"seconds\": {:.6}, \"matvecs\": {}, \
             \"peak_retained_vectors\": {}, \"eigenvalues\": [{}]}}",
            self.mode,
            self.seconds,
            self.matvecs,
            self.peak_retained,
            evs.join(", ")
        )
    }
}

fn main() {
    let mut sites = 24usize;
    let mut weight: Option<usize> = None;
    let mut k = 2usize;
    let mut extra = 24usize;
    let mut tol = 1e-10f64;
    let mut reps = 3usize;
    let mut out_path = String::from("BENCH_restart.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value for flag");
        match arg.as_str() {
            "--sites" => sites = value().parse().unwrap(),
            "--weight" => weight = Some(value().parse().unwrap()),
            "--k" => k = value().parse().unwrap(),
            "--extra" => extra = value().parse().unwrap(),
            "--tol" => tol = value().parse().unwrap(),
            "--reps" => reps = value().parse().unwrap(),
            "--out" => out_path = value(),
            other => panic!(
                "unknown flag {other} (try --sites/--weight/--k/--extra/--tol/--reps/--out)"
            ),
        }
    }
    let weight = weight.unwrap_or(sites / 2) as u32;
    let threads = rayon::current_num_threads();

    let expr = heisenberg(&chain_bonds(sites), 1.0);
    let sector = SectorSpec::with_weight(sites as u32, weight).unwrap();
    let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
    let dim = basis.dim();
    let budget = k + extra;
    println!(
        "{sites}-site U(1) sector (weight {weight}): dim {dim}, k = {k}, \
         thick budget {budget} vectors, tol {tol:.0e}, {threads} threads, {reps} reps"
    );

    // Median-of-reps measurement per mode; the solves are deterministic,
    // so only the wall time varies between repetitions.
    let measure = |f: &dyn Fn() -> (usize, usize, Vec<f64>)| {
        let mut times = Vec::with_capacity(reps);
        let mut stats = (0usize, 0usize, Vec::new());
        for _ in 0..reps {
            let t0 = Instant::now();
            stats = f();
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(f64::total_cmp);
        (times[times.len() / 2], stats)
    };

    let (full_secs, (full_matvecs, full_peak, full_evs)) = measure(&|| {
        let res = ls_eigen::lanczos_smallest(
            &op,
            k,
            &LanczosOptions {
                max_iter: dim.min(1000),
                tol,
                max_retained: usize::MAX, // one cycle, every vector kept
                ..Default::default()
            },
        );
        assert!(res.converged, "full Lanczos did not converge");
        (res.iterations, res.peak_retained, res.eigenvalues)
    });
    println!(
        "  full : {full_secs:.3}s to tol, {full_matvecs} matvecs, \
         peak {full_peak} vectors ({:.1} MiB)",
        (full_peak * dim * 8) as f64 / (1024.0 * 1024.0)
    );

    let (thick_secs, (thick_matvecs, thick_peak, thick_evs)) = measure(&|| {
        let res = thick_restart_lanczos(
            &op,
            &RestartOptions { k, extra, tol, ..RestartOptions::new(k) },
        );
        assert!(res.converged, "thick restart did not converge");
        (res.iterations, res.peak_retained, res.eigenvalues)
    });
    println!(
        "  thick: {thick_secs:.3}s to tol, {thick_matvecs} matvecs, \
         peak {thick_peak} vectors ({:.1} MiB)",
        (thick_peak * dim * 8) as f64 / (1024.0 * 1024.0)
    );

    // Cross-solver oracle: both modes must land on the same eigenvalues.
    let scale = full_evs.iter().fold(1.0f64, |a, v| a.max(v.abs()));
    for (i, (a, b)) in full_evs.iter().zip(&thick_evs).enumerate() {
        assert!((a - b).abs() <= 1e-7 * scale, "λ{i} disagrees: full {a} vs thick {b}");
    }
    assert!(
        thick_peak <= budget,
        "thick restart exceeded its budget: peak {thick_peak} > {budget}"
    );

    let cells = [
        Cell {
            mode: "full",
            seconds: full_secs,
            matvecs: full_matvecs,
            peak_retained: full_peak,
            eigenvalues: full_evs,
        },
        Cell {
            mode: "thick",
            seconds: thick_secs,
            matvecs: thick_matvecs,
            peak_retained: thick_peak,
            eigenvalues: thick_evs,
        },
    ];
    let rows: Vec<String> = cells.iter().map(Cell::to_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"restart\",\n  \"sites\": {sites},\n  \"weight\": {weight},\n  \
         \"dim\": {dim},\n  \"threads\": {threads},\n  \"reps\": {reps},\n  \"k\": {k},\n  \
         \"budget\": {budget},\n  \"tol\": {tol:e},\n  \"series\": [\n{}\n  ],\n  \
         \"memory_ratio_full_vs_thick\": {:.4}\n}}\n",
        rows.join(",\n"),
        full_peak as f64 / thick_peak as f64,
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!(
        "\nmemory ratio full/thick: {:.2}×  (time ratio thick/full: {:.2}×)",
        full_peak as f64 / thick_peak as f64,
        thick_secs / full_secs.max(1e-12),
    );
    println!("wrote {out_path}");
}
