//! Criterion benchmarks of the distributed algorithms on the simulated
//! cluster (small configurations — correctness-scale, not cluster-scale).

use criterion::{criterion_group, criterion_main, Criterion};
use ls_basis::SectorSpec;
use ls_bench::SmallScale;
use ls_dist::convert::{hashed_masks, to_block};
use ls_dist::matvec::{matvec_pc, PcOptions};
use ls_dist::{block_to_hashed, enumerate_dist, hashed_to_block};
use ls_runtime::{Cluster, ClusterSpec, DistVec};

fn bench_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist_enumeration");
    g.sample_size(10);
    let group = ls_symmetry::lattice::chain_group(20, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(20, Some(10), group).unwrap();
    for locales in [1usize, 4] {
        let cluster = Cluster::new(ClusterSpec::new(locales, 1));
        g.bench_function(format!("20spins_{locales}locales"), |b| {
            b.iter(|| enumerate_dist(&cluster, &sector, 8))
        });
    }
    g.finish();
}

fn bench_conversions(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist_conversion");
    g.sample_size(10);
    let basis = ls_basis::SpinBasis::build(SectorSpec::with_weight(20, 10).unwrap());
    let data: Vec<f64> = (0..basis.dim()).map(|i| i as f64).collect();
    let locales = 4;
    let cluster = Cluster::new(ClusterSpec::new(locales, 1));
    let states_block = to_block(basis.states(), locales);
    let masks = hashed_masks(&cluster, &states_block);
    let block = to_block(&data, locales);
    let hashed = block_to_hashed(&cluster, &block, &masks, 8);
    g.bench_function("block_to_hashed_184k", |b| {
        b.iter(|| block_to_hashed(&cluster, &block, &masks, 8))
    });
    g.bench_function("hashed_to_block_184k", |b| {
        b.iter(|| hashed_to_block(&cluster, &hashed, &masks, 8))
    });
    g.finish();
}

fn bench_matvec_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist_matvec");
    g.sample_size(10);
    let s = SmallScale::chain(22, 4, 1);
    let mut y = DistVec::<f64>::zeros(&s.basis.states().lens());
    g.bench_function("producer_consumer", |b| {
        b.iter(|| {
            matvec_pc(
                &s.cluster,
                &s.op,
                &s.basis,
                &s.x,
                &mut y,
                PcOptions { capacity: 1024, ..PcOptions::default() },
            )
        })
    });
    g.bench_function("alltoall_baseline", |b| {
        b.iter(|| ls_baseline::matvec_alltoall(&s.cluster, &s.op, &s.basis, &s.x, &mut y))
    });
    g.finish();
}

criterion_group!(benches, bench_enumeration, bench_conversions, bench_matvec_variants);
criterion_main!(benches);
