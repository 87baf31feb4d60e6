//! Fig. 9: lattice-symmetries vs SPINPACK (the MPI+X state of the art).
//!
//! Model part: speedups of both codes over the fastest single-node LS
//! run, 1–32 nodes. Paper anchors: LS is 2× faster on one node and 7–8×
//! faster on 32 nodes.
//!
//! Real part: the producer/consumer pipeline vs the bulk-synchronous
//! `alltoallv` baseline (`ls-baseline`), both on the same simulated
//! cluster — validating that the *algorithmic structure* (overlap vs
//! barriers, streaming buffers vs full materialization) is what the model
//! says it is.
//!
//! ```sh
//! cargo run --release -p ls-bench --bin fig9
//! ```

use ls_baseline::matvec_alltoall;
use ls_bench::SmallScale;
use ls_dist::matvec::{matvec_pc, PcOptions};
use ls_perfmodel::figures::fig9_series;
use ls_perfmodel::MachineModel;
use ls_runtime::DistVec;

fn main() {
    let model = MachineModel::snellius_paper_calibrated();
    let nodes = [1usize, 2, 4, 8, 16, 24, 32];

    for n_spins in [40usize, 42] {
        let (ls, sp) = fig9_series(&model, n_spins, &nodes);
        let rows: Vec<Vec<String>> = ls
            .iter()
            .zip(&sp)
            .map(|(l, s)| {
                let ratio = l.value / s.value;
                let note = match l.nodes {
                    1 => "paper: 2×".to_string(),
                    32 => "paper: 7–8×".to_string(),
                    _ => String::new(),
                };
                vec![
                    l.nodes.to_string(),
                    format!("{:.1}", l.value),
                    format!("{:.1}", s.value),
                    format!("{:.1}×", ratio),
                    note,
                ]
            })
            .collect();
        ls_bench::print_table(
            &format!("Fig. 9 (model): speedup over fastest 1-node LS run, {n_spins} spins"),
            &["nodes", "LS", "SPINPACK", "LS/SPINPACK", "reference"],
            &rows,
        );
    }

    // ---- real head-to-head at laptop scale ----
    println!("\nreal head-to-head: producer/consumer vs alltoallv baseline");
    let mut rows = Vec::new();
    for (n, locales) in [(24usize, 4usize), (26, 4)] {
        let s = SmallScale::chain(n, locales, 2);
        let lens = s.basis.states().lens();

        let mut y_pc = DistVec::<f64>::zeros(&lens);
        let t_pc = ls_bench::time_median(3, || {
            matvec_pc(
                &s.cluster,
                &s.op,
                &s.basis,
                &s.x,
                &mut y_pc,
                PcOptions { capacity: 1024, ..PcOptions::default() },
            );
        });

        let mut y_base = DistVec::<f64>::zeros(&lens);
        let t_base = ls_bench::time_median(3, || {
            matvec_alltoall(&s.cluster, &s.op, &s.basis, &s.x, &mut y_base);
        });

        // Verify agreement while we're here.
        for l in 0..locales {
            for (a, b) in y_pc.part(l).iter().zip(y_base.part(l)) {
                assert!((a - b).abs() < 1e-10);
            }
        }

        // Structural stats: barriers & materialization demonstrate the
        // bulk-synchronous nature of the baseline.
        s.cluster.reset_stats();
        matvec_alltoall(&s.cluster, &s.op, &s.basis, &s.x, &mut y_base);
        let barriers_base = s.cluster.stats_total().barriers;
        s.cluster.reset_stats();
        matvec_pc(
            &s.cluster,
            &s.op,
            &s.basis,
            &s.x,
            &mut y_pc,
            PcOptions { capacity: 1024, ..PcOptions::default() },
        );
        let barriers_pc = s.cluster.stats_total().barriers;
        let peak: usize =
            ls_baseline::matvec::peak_buffered_pairs(&s.op, &s.basis).iter().sum();

        rows.push(vec![
            format!("{n} spins / {locales} loc"),
            format!("{}", s.basis.dim()),
            ls_bench::fmt_secs(t_pc),
            ls_bench::fmt_secs(t_base),
            format!("{:.2}×", t_base / t_pc),
            format!("{barriers_pc} vs {barriers_base}"),
            format!("{:.1} M pairs", peak as f64 / 1e6),
        ]);
    }
    ls_bench::print_table(
        "real runs (same simulated cluster; oversubscribed hardware, so wall \
         times indicate structure, not absolute performance)",
        &[
            "problem",
            "dim",
            "PC time",
            "alltoall time",
            "baseline/PC",
            "barriers (PC vs base)",
            "baseline peak buffer",
        ],
        &rows,
    );
}
