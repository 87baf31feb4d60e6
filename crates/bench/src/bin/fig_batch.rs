//! Batched vs scalar matrix-vector products: the ablation behind the
//! batched engine (`MatvecStrategy::BatchedPull`).
//!
//! Times the serial oracle, the scalar gather and the engine against every
//! applicable `RankingKind` on a U(1) sector, a fully symmetrized sector
//! (the differential group walk of `apply_off_diag_block`) and a Hubbard ring (the `product` cell:
//! closed-form ranking of N↑ × N↓ without the fused path), verifies
//! agreement against the serial reference while doing so, and emits the
//! measurements as `BENCH_matvec.json` so the repository's performance
//! trajectory is recorded run over run.
//!
//! ```sh
//! cargo run --release -p ls-bench --bin fig_batch -- \
//!     [--sites N] [--weight W] [--reps R] [--out BENCH_matvec.json]
//! ```

use ls_basis::basis::RankingKind;
use ls_basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_core::matvec::{apply_batched_pull_pooled, apply_pull_pooled, apply_serial_pooled};
use ls_core::MatvecScratchPool;
use ls_expr::{Expr, LocalHilbert};
use ls_symmetry::lattice::{chain_bonds, chain_group};

type Product =
    fn(&SymmetrizedOperator<f64>, &SpinBasis, &[f64], &mut [f64], &MatvecScratchPool<f64>);

const SERIAL: &str = "Serial";
const SCALAR_PULL: &str = "ScalarPull";
const BATCHED_PULL: &str = "BatchedPull";

/// The timed products, by the name their JSON rows carry. `ScalarPull` is
/// the engine's scalar twin, called directly — it is not a strategy.
const PRODUCTS: [(&str, Product); 3] = [
    (SERIAL, apply_serial_pooled),
    (SCALAR_PULL, apply_pull_pooled),
    (BATCHED_PULL, apply_batched_pull_pooled),
];

struct Measurement {
    strategy: &'static str,
    ranking: RankingKind,
    seconds: f64,
}

struct SectorReport {
    label: &'static str,
    n_sites: usize,
    dim: usize,
    group_order: usize,
    default_ranking: RankingKind,
    /// Off-diagonal row entries of the sector (for the traffic model).
    nnz_offdiag: usize,
    /// Modelled bytes moved by one matvec (see
    /// [`ls_bench::matvec_traffic_bytes`]).
    bytes_moved: u64,
    results: Vec<Measurement>,
}

impl SectorReport {
    /// Median seconds of `strategy` at the sector's default ranking.
    fn default_time(&self, strategy: &str) -> f64 {
        self.results
            .iter()
            .find(|m| m.strategy == strategy && m.ranking == self.default_ranking)
            .map(|m| m.seconds)
            .expect("strategy measured at the default ranking")
    }

    /// Achieved bandwidth of a measurement under the traffic model.
    fn gbps(&self, seconds: f64) -> f64 {
        self.bytes_moved as f64 / seconds / 1e9
    }

    fn to_json(&self, stream_gbps: f64) -> String {
        let rows: Vec<String> = self
            .results
            .iter()
            .map(|m| {
                format!(
                    "      {{\"strategy\": \"{}\", \"ranking\": \"{:?}\", \
                     \"seconds\": {:.9}, \"gbps\": {:.4}, \"roofline_frac\": {:.4}}}",
                    m.strategy,
                    m.ranking,
                    m.seconds,
                    self.gbps(m.seconds),
                    self.gbps(m.seconds) / stream_gbps
                )
            })
            .collect();
        format!(
            "  \"{}\": {{\n    \"n_sites\": {},\n    \"dim\": {},\n    \
             \"group_order\": {},\n    \"default_ranking\": \"{:?}\",\n    \
             \"nnz_offdiag\": {},\n    \"bytes_moved\": {},\n    \
             \"results\": [\n{}\n    ]\n  }}",
            self.label,
            self.n_sites,
            self.dim,
            self.group_order,
            self.default_ranking,
            self.nnz_offdiag,
            self.bytes_moved,
            rows.join(",\n")
        )
    }
}

fn run_sector(
    label: &'static str,
    expr: &Expr,
    sector: SectorSpec,
    n_sites: usize,
    reps: usize,
) -> SectorReport {
    let hilbert = LocalHilbert::from_encoding(sector.encoding());
    let kernel = expr.to_kernel_in(&hilbert, sector.n_sites()).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let group_order = sector.group().order();
    let mut basis = SpinBasis::build(sector);
    let default_ranking = basis.ranking();
    let dim = basis.dim();
    let x: Vec<f64> = (0..dim)
        .map(|i| (ls_kernels::hash64_01(i as u64) >> 11) as f64 * 1e-16 - 0.4)
        .collect();
    let mut y = vec![0.0f64; dim];
    let mut y_ref = vec![0.0f64; dim];
    let pool = MatvecScratchPool::new();
    apply_serial_pooled(&op, &basis, &x, &mut y_ref, &pool);

    let mut rankings = vec![RankingKind::PrefixBuckets, RankingKind::Trie];
    if default_ranking == RankingKind::Combinadic {
        rankings.insert(0, RankingKind::Combinadic);
    }

    // Interleaved rounds: one sample of every (ranking, strategy) pair
    // per round, so slow machine-load drift biases no strategy; the
    // per-pair median is reported.
    let mut samples = vec![vec![Vec::with_capacity(reps); PRODUCTS.len()]; rankings.len()];
    for round in 0..reps.max(1) {
        for (ri, &ranking) in rankings.iter().enumerate() {
            basis.set_ranking(ranking);
            for (si, &(strategy, product)) in PRODUCTS.iter().enumerate() {
                let t = std::time::Instant::now();
                product(&op, &basis, &x, &mut y, &pool);
                samples[ri][si].push(t.elapsed().as_secs_f64());
                if round == 0 {
                    // Every configuration doubles as a correctness check.
                    for i in 0..dim {
                        assert!(
                            (y[i] - y_ref[i]).abs() < 1e-10,
                            "{strategy}/{ranking:?} disagrees with serial at {i}"
                        );
                    }
                }
            }
        }
    }
    let mut results = Vec::new();
    for (ri, &ranking) in rankings.iter().enumerate() {
        for (si, &(strategy, _)) in PRODUCTS.iter().enumerate() {
            let times = &mut samples[ri][si];
            times.sort_by(f64::total_cmp);
            results.push(Measurement { strategy, ranking, seconds: times[times.len() / 2] });
        }
    }
    basis.set_ranking(default_ranking);
    let nnz_offdiag = ls_bench::count_offdiag_entries(&op, &basis);
    let bytes_moved = ls_bench::matvec_traffic_bytes(dim, nnz_offdiag);
    SectorReport {
        label,
        n_sites,
        dim,
        group_order,
        default_ranking,
        nnz_offdiag,
        bytes_moved,
        results,
    }
}

fn print_report(r: &SectorReport, reps: usize, stream_gbps: f64) {
    let rows: Vec<Vec<String>> = r
        .results
        .iter()
        .map(|m| {
            vec![
                m.strategy.to_string(),
                format!("{:?}", m.ranking),
                ls_bench::fmt_secs(m.seconds),
                format!("{:.2}×", r.default_time(SERIAL) / m.seconds),
                format!("{:.1}", r.gbps(m.seconds)),
                format!("{:.0}%", 100.0 * r.gbps(m.seconds) / stream_gbps),
            ]
        })
        .collect();
    ls_bench::print_table(
        &format!(
            "{}: {} sites, dim {}, |G| = {}, {:.1} MB moved/matvec (median of {reps}, \
             ceiling {stream_gbps:.1} GB/s)",
            r.label,
            r.n_sites,
            r.dim,
            r.group_order,
            r.bytes_moved as f64 / 1e6
        ),
        &["strategy", "ranking", "time", "vs serial", "GB/s", "roofline"],
        &rows,
    );
}

fn main() {
    let mut sites = 24usize;
    let mut weight: Option<usize> = None;
    let mut reps = 3usize;
    let mut out_path = String::from("BENCH_matvec.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value for flag");
        match arg.as_str() {
            "--sites" => sites = value().parse().unwrap(),
            "--weight" => weight = Some(value().parse().unwrap()),
            "--reps" => reps = value().parse().unwrap(),
            "--out" => out_path = value(),
            other => panic!("unknown flag {other} (try --sites/--weight/--reps/--out)"),
        }
    }
    let weight = weight.unwrap_or(sites / 2);
    let threads = rayon::current_num_threads();

    // The measured memory-bandwidth ceiling every achieved-GB/s column
    // is attributed against, and the active SIMD dispatch level.
    let stream_gbps = ls_bench::stream_triad_gbps(3);
    let simd_level = format!("{:?}", ls_kernels::simd::level());
    println!(
        "STREAM triad ceiling: {stream_gbps:.1} GB/s at {threads} threads (SIMD {simd_level})"
    );

    let heisenberg = ls_expr::builders::heisenberg(&chain_bonds(sites), 1.0);

    // U(1)-only sector: the trivial-group fast path, all three rankings.
    let u1 = run_sector(
        "u1",
        &heisenberg,
        SectorSpec::with_weight(sites as u32, weight as u32).unwrap(),
        sites,
        reps,
    );
    print_report(&u1, reps, stream_gbps);

    // Fully symmetrized sector (translation + reflection + spin flip):
    // the engine's row generation is the differential group walk
    // (`g(α ⊕ m) = g(α) ⊕ π_g(m)`, a table of |G| × distinct flip masks
    // words), the scalar gather's the per-emission `state_info` it is
    // tested against. The dimension shrinks by ~|G|, so the same site
    // count stays cheap.
    let group = chain_group(sites, 0, Some(0), Some(0)).unwrap();
    let symmetrized = run_sector(
        "symmetrized",
        &heisenberg,
        SectorSpec::new(sites as u32, Some(weight as u32), group).unwrap(),
        sites,
        reps,
    );
    print_report(&symmetrized, reps, stream_gbps);

    // Product sector: a Hubbard ring (t = 1, U = 4) on `sites / 2 + 1`
    // physical sites just below half filling, which keeps its dimension
    // next to the U(1) cell's (14 → 8 sites, 3 + 3). Closed-form ranking,
    // but Jordan-Wigner signs keep it on generate + rank + gather.
    let n_phys = sites / 2 + 1;
    let filling = (n_phys as u32 - 1) / 2;
    let product = run_sector(
        "product",
        &ls_expr::builders::hubbard_1d(n_phys, 1.0, 4.0, true),
        SectorSpec::spinful_fermions(n_phys as u32, filling, filling).unwrap(),
        n_phys,
        reps,
    );
    print_report(&product, reps, stream_gbps);

    let speedup_pull = u1.default_time(SCALAR_PULL) / u1.default_time(BATCHED_PULL);
    println!("\nU(1) speedups at the default ranking ({:?}):", u1.default_ranking);
    println!("  BatchedPull vs ScalarPull: {speedup_pull:.2}×");

    // SIMD vs forced-scalar A/B on the U(1) BatchedPull product (the
    // dispatch is bit-exact, so the outputs agree; only speed differs).
    // Interleaved samples, median of each arm.
    let simd_speedup_pull = {
        let sector = SectorSpec::with_weight(sites as u32, weight as u32).unwrap();
        let kernel = ls_expr::builders::heisenberg(&chain_bonds(sites), 1.0)
            .to_kernel(sites as u32)
            .unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector);
        let dim = basis.dim();
        let x: Vec<f64> = (0..dim)
            .map(|i| (ls_kernels::hash64_01(i as u64) >> 11) as f64 * 1e-16 - 0.4)
            .collect();
        let mut y = vec![0.0f64; dim];
        let pool = MatvecScratchPool::new();
        let mut times = [Vec::new(), Vec::new()];
        apply_batched_pull_pooled(&op, &basis, &x, &mut y, &pool); // warm-up
        for _ in 0..reps.max(3) {
            for (arm, samples) in times.iter_mut().enumerate() {
                ls_kernels::simd::set_force_scalar(arm == 0);
                let t = std::time::Instant::now();
                apply_batched_pull_pooled(&op, &basis, &x, &mut y, &pool);
                samples.push(t.elapsed().as_secs_f64());
            }
        }
        ls_kernels::simd::set_force_scalar(false);
        let median = |s: &mut Vec<f64>| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        let (scalar_t, simd_t) = (median(&mut times[0]), median(&mut times[1]));
        println!(
            "  BatchedPull SIMD vs scalar dispatch: {:.2}× ({} vs {})",
            scalar_t / simd_t,
            ls_bench::fmt_secs(simd_t),
            ls_bench::fmt_secs(scalar_t)
        );
        scalar_t / simd_t
    };

    let json = format!(
        "{{\n  \"bench\": \"matvec\",\n  \"threads\": {threads},\n  \"reps\": {reps},\n  \
         \"stream_gbps\": {stream_gbps:.4},\n  \"simd_level\": \"{simd_level}\",\n\
         {},\n{},\n{},\n  \"speedup_batched_pull_vs_pull\": {speedup_pull:.4},\n  \
         \"simd_speedup_batched_pull\": {simd_speedup_pull:.4}\n}}\n",
        u1.to_json(stream_gbps),
        symmetrized.to_json(stream_gbps),
        product.to_json(stream_gbps)
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
}
