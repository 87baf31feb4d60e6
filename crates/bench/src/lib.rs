//! Harness utilities shared by the per-figure experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it:
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `table2`| Table 2 — sector dimensions (exact match) |
//! | `fig6`  | Fig. 6 — block↔hashed conversion times |
//! | `fig7`  | Fig. 7 — basis-construction strong scaling |
//! | `fig8`  | Fig. 8 — matvec strong scaling (+ §6.3 breakdown) |
//! | `fig9`  | Fig. 9 — LS vs SPINPACK comparison |
//! | `calibrate` | model-constant calibration on this machine |
//!
//! Each prints the series the paper plots (and the paper's reported
//! values, where the text/caption states them) plus, where feasible, a
//! *real* small-scale execution on the simulated cluster whose
//! instrumented statistics validate the model inputs.
//!
//! That is all this crate measures. How fast a solve is, and where its
//! time goes, is the repo benchmark's question (`benchmark/`,
//! `BENCHMARK.json`: fixed sectors, a noise model, per-layer metrics);
//! the criterion cells under `benches/` are ablations — a design choice
//! against the alternative it replaced, the pipeline against
//! `ls-baseline`.

use std::time::Instant;

/// Median wall time of `reps` executions of `f`, in seconds.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    assert!(reps >= 1);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let header_line: Vec<String> =
        headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> =
            row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", line.join("  "));
    }
}

/// Formats seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// A standard small-scale chain problem on the simulated cluster.
pub struct SmallScale {
    pub cluster: ls_runtime::Cluster,
    pub op: ls_basis::SymmetrizedOperator<f64>,
    pub basis: ls_dist::DistSpinBasis,
    pub x: ls_runtime::DistVec<f64>,
}

impl SmallScale {
    /// Heisenberg ring of `n` sites in the fully symmetric sector,
    /// distributed over `locales` locales.
    pub fn chain(n: usize, locales: usize, cores: usize) -> Self {
        use ls_basis::{SectorSpec, SymmetrizedOperator};
        let kernel = ls_expr::builders::heisenberg(&ls_symmetry::lattice::chain_bonds(n), 1.0)
            .to_kernel(n as u32)
            .unwrap();
        let group = ls_symmetry::lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let cluster = ls_runtime::Cluster::new(ls_runtime::ClusterSpec::new(locales, cores));
        let basis = ls_dist::enumerate_dist(&cluster, &sector, 8);
        let x = ls_runtime::DistVec::from_parts(
            basis
                .states()
                .parts()
                .iter()
                .map(|p| p.iter().map(|&s| ((s as f64) * 1e-4).sin()).collect())
                .collect(),
        );
        Self { cluster, op, basis, x }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let t = time_median(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(t >= 0.0);
        assert_eq!(fmt_secs(0.5), "500.00 ms");
        assert_eq!(fmt_secs(2.0), "2.00 s");
        print_table("test", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn small_scale_setup() {
        let s = SmallScale::chain(12, 2, 1);
        assert_eq!(s.basis.dim(), 35);
        assert_eq!(s.x.total_len(), 35);
        assert!(s.op.is_hermitian());
    }
}
