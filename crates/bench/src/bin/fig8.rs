//! Fig. 8: strong scaling of the producer/consumer matrix-vector product,
//! plus the Sec. 6.3 producer/consumer breakdown.
//!
//! (a) 40/42 spins, speedup over one node, up to 64 nodes — the paper
//! measures ≈51× for 42 spins at 64 nodes and explains it via the strict
//! 104/24 producer/consumer core split (8.2 s per producing core);
//! (b) 44 spins over the 4-node run and 46 spins over the 16-node run,
//! up to 256 nodes (paper: 47× and 12×).
//!
//! ```sh
//! cargo run --release -p ls-bench --bin fig8
//! ```

use ls_bench::SmallScale;
use ls_dist::matvec::{matvec_pc, PcOptions};
use ls_perfmodel::figures::{fig8_speedups, matvec_core_breakdown, matvec_pc_time, CoreSplit};
use ls_perfmodel::{ChainWorkload, MachineModel};
use ls_runtime::DistVec;

fn main() {
    let model = MachineModel::snellius_paper_calibrated();
    let split = CoreSplit::default();

    // Single-node anchor (Fig. 9 caption: 42 spins LS 509.6 s).
    let t1 = matvec_pc_time(&model, &ChainWorkload::new(42), 1, split, 16384.0);
    println!("single-node model time, 42 spins: {} (paper: 509.6 s)", ls_bench::fmt_secs(t1));

    // (a) small systems over one node.
    let nodes_a = [1usize, 2, 4, 8, 16, 32, 64];
    for n_spins in [40usize, 42] {
        let series = fig8_speedups(&model, n_spins, &nodes_a, 1, split);
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|p| {
                let note = if n_spins == 42 && p.nodes == 64 {
                    "paper: ≈51×".to_string()
                } else {
                    String::new()
                };
                vec![p.nodes.to_string(), format!("{:.1}", p.value), note]
            })
            .collect();
        ls_bench::print_table(
            &format!("Fig. 8a (model): matvec speedup over 1 node, {n_spins} spins"),
            &["nodes", "speedup", "reference"],
            &rows,
        );
    }

    // Sec. 6.3 breakdown at 64 nodes.
    let (p, c) = matvec_core_breakdown(&model, 42, 64, split);
    println!(
        "\nSec. 6.3 breakdown at 64 nodes (42 spins): {:.1} s per producing core \
         (paper: ≈8.2 s), {:.1} s per consuming core",
        p, c
    );
    println!(
        "paper's work-stealing estimate: with all 128 cores producing, \
         424/8.2 · 128/104 ≈ 63× would be reachable — the strict split costs \
         the difference."
    );

    // (b) large systems over their smallest feasible node counts.
    let nodes_b44 = [4usize, 8, 16, 32, 64, 128, 256];
    let series = fig8_speedups(&model, 44, &nodes_b44, 4, split);
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|p| {
            let note = if p.nodes == 256 { "paper: ≈47×".into() } else { String::new() };
            vec![p.nodes.to_string(), format!("{:.1}", p.value), note]
        })
        .collect();
    ls_bench::print_table(
        "Fig. 8b (model): 44 spins, speedup over the 4-node run",
        &["nodes", "speedup", "reference"],
        &rows,
    );
    let nodes_b46 = [16usize, 32, 64, 128, 256];
    let series = fig8_speedups(&model, 46, &nodes_b46, 16, split);
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|p| {
            let note = if p.nodes == 256 { "paper: ≈12×".into() } else { String::new() };
            vec![p.nodes.to_string(), format!("{:.1}", p.value), note]
        })
        .collect();
    ls_bench::print_table(
        "Fig. 8b (model): 46 spins, speedup over the 16-node run",
        &["nodes", "speedup", "reference"],
        &rows,
    );

    // Producer/consumer split sweep (the ablation the paper's discussion
    // of work stealing motivates).
    let rows: Vec<Vec<String>> = [(127usize, 1usize), (116, 12), (104, 24), (96, 32), (64, 64)]
        .iter()
        .map(|&(prod, cons)| {
            let s = CoreSplit { producers: prod, consumers: cons };
            let t = matvec_pc_time(&model, &ChainWorkload::new(42), 64, s, 16384.0);
            vec![format!("{prod}/{cons}"), ls_bench::fmt_secs(t), format!("{:.1}", t1 / t)]
        })
        .collect();
    ls_bench::print_table(
        "ablation (model): producer/consumer split at 64 nodes, 42 spins",
        &["split (P/C)", "time", "speedup over 1 node"],
        &rows,
    );

    // ---- real small-scale producer/consumer matvec ----
    println!("\nreal producer/consumer matvec (26 spins, fully symmetric sector):");
    let mut rows = Vec::new();
    for locales in [1usize, 2, 4] {
        let s = SmallScale::chain(26, locales, 2);
        let mut y = DistVec::<f64>::zeros(&s.basis.states().lens());
        let t = ls_bench::time_median(3, || {
            matvec_pc(
                &s.cluster,
                &s.op,
                &s.basis,
                &s.x,
                &mut y,
                PcOptions { capacity: 1024, ..PcOptions::default() },
            );
        });
        s.cluster.reset_stats();
        matvec_pc(
            &s.cluster,
            &s.op,
            &s.basis,
            &s.x,
            &mut y,
            PcOptions { capacity: 1024, ..PcOptions::default() },
        );
        let stats = s.cluster.stats_total();
        rows.push(vec![
            locales.to_string(),
            format!("{}", s.basis.dim()),
            ls_bench::fmt_secs(t),
            format!("{}", stats.puts),
            format!("{:.1} KB", stats.mean_message_bytes() / 1024.0),
            format!("{}", stats.flag_messages),
        ]);
    }
    ls_bench::print_table(
        "real runs (simulated locales share 2 hardware cores)",
        &["locales", "dim", "time", "remote puts", "mean msg", "flag msgs"],
        &rows,
    );
}
