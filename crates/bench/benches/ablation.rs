//! Ablation benchmarks: each group times one design choice of the
//! library against the alternative it replaced (ranking structures, the
//! owner-side ranking of a distributed part, the scalar gather, comparison-sort partitioning, conditional diagonal
//! channels, per-pair staging).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ls_basis::{SectorSpec, SpinBasis};
use ls_kernels::bits::{low_mask, FixedWeightRange};
use ls_kernels::combinadics::{BinomialTable, LinTables};
use ls_kernels::search::HashIndex;
use ls_kernels::sort::{apply_perm, counting_sort_perm};

/// Ranking: the two closed forms (Lin tables, the combinadic sum) against
/// the hash index a search sector gets, over the same U(1) state list —
/// one lookup at a time and, for the index, the bulk kernel.
fn bench_ranking(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_ranking");
    g.sample_size(15);
    let (n, w) = (24u32, 12u32);
    let basis = SpinBasis::build(SectorSpec::with_weight(n, w).unwrap());
    let states = basis.states();
    let probes: Vec<u64> = states.iter().copied().step_by(7).collect();
    let binom = BinomialTable::new();
    let lin = LinTables::new(&binom, n, &[(low_mask(n), w)]).unwrap();
    let hash = HashIndex::new(states, n);
    g.bench_function("lin_tables", |b| {
        b.iter(|| probes.iter().map(|&p| lin.rank(black_box(p)).unwrap()).sum::<u64>())
    });
    g.bench_function("combinadic_sum", |b| {
        b.iter(|| probes.iter().map(|&p| binom.rank(black_box(p))).sum::<u64>())
    });
    g.bench_function("hash_index", |b| {
        b.iter(|| {
            probes.iter().map(|&p| hash.lookup(states, black_box(p)).unwrap()).sum::<usize>()
        })
    });
    let mut out = Vec::new();
    g.bench_function("hash_index_batch", |b| {
        b.iter(|| {
            hash.lookup_batch(states, black_box(&probes), &mut out);
            out.iter().map(|&i| i as usize).sum::<usize>()
        })
    });
    g.finish();
}

/// Owner-side ranking of the producer/consumer product: one part of the
/// 20-site half-filling sector on 2 locales ranks every matrix element it
/// receives in a product, in arrival order — by Lin rank → select (what
/// `DistSpinBasis` picks there) against a hash index over the same part,
/// both batched. The names carry the lookup count: ns per lookup is the
/// reported time over it.
fn bench_dist_part_rank(c: &mut Criterion) {
    use ls_basis::{OffDiagBlock, SymmetrizedOperator};
    use ls_kernels::search::NOT_FOUND;
    use ls_runtime::{Cluster, ClusterSpec};

    let mut g = c.benchmark_group("dist_part_rank");
    g.sample_size(15);
    let n = 20u32;
    let sector = SectorSpec::with_weight(n, n / 2).unwrap();
    let kernel =
        ls_expr::builders::heisenberg(&ls_symmetry::lattice::chain_bonds(n as usize), 1.0)
            .to_kernel(n)
            .unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = ls_dist::enumerate_dist(&Cluster::new(ClusterSpec::new(2, 1)), &sector, 4);
    assert!(basis.ranks_in_closed_form());
    // Locale 0's own run first, then what locale 1 ships to it.
    let (mut gen, mut probes) = (OffDiagBlock::new(), Vec::new());
    for l in 0..2 {
        let (states, orbits) = (basis.states().part(l), basis.orbit_sizes().part(l));
        for (rows, orbits) in states.chunks(512).zip(orbits.chunks(512)) {
            op.apply_off_diag_block(rows, orbits, &mut gen);
            probes.extend(gen.reps.iter().filter(|&&rep| basis.owner(rep) == 0));
        }
    }
    let part = basis.states().part(0);
    let hash = HashIndex::new(part, n);
    let mut out = Vec::new();
    let mut bench = |name: &str, rank: &dyn Fn(&[u64], &mut Vec<u32>)| {
        g.bench_function(format!("{name}_batch/{}_lookups", probes.len()), |b| {
            b.iter(|| {
                probes.chunks(512).for_each(|batch| {
                    rank(black_box(batch), &mut out);
                    assert!(!out.contains(&NOT_FOUND));
                })
            })
        });
    };
    bench("select", &|batch, out| basis.index_on_batch(0, batch, out));
    bench("hash", &|batch, out| hash.lookup_batch(part, batch, out));
    g.finish();
}

/// Shared-memory matvec: scalar gather vs the batched engine on a U(1)
/// sector.
fn bench_matvec_strategies(c: &mut Criterion) {
    use ls_basis::SymmetrizedOperator;
    use ls_core::matvec;
    use ls_core::MatvecScratchPool;

    let mut g = c.benchmark_group("ablation_matvec_strategies");
    g.sample_size(10);
    let n = 20u32;
    let sector = SectorSpec::with_weight(n, n / 2).unwrap();
    let kernel =
        ls_expr::builders::heisenberg(&ls_symmetry::lattice::chain_bonds(n as usize), 1.0)
            .to_kernel(n)
            .unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = SpinBasis::build(sector);
    let x: Vec<f64> = (0..basis.dim()).map(|i| (i as f64 * 0.11).sin()).collect();
    let mut y = vec![0.0; basis.dim()];
    let pool = MatvecScratchPool::new();
    g.bench_function("pull_scalar", |b| {
        b.iter(|| matvec::apply_pull_pooled(&op, &basis, black_box(&x), &mut y, &pool))
    });
    g.bench_function("pull_batched", |b| {
        b.iter(|| matvec::apply_batched_pull_pooled(&op, &basis, black_box(&x), &mut y, &pool))
    });
    g.finish();
}

/// Destination partitioning: counting sort vs comparison sort.
fn bench_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_partition");
    g.sample_size(15);
    let n = 100_000usize;
    let locales = 64usize;
    let keys: Vec<u16> =
        (0..n).map(|i| (ls_kernels::hash64_01(i as u64) % locales as u64) as u16).collect();
    let vals: Vec<u64> = (0..n as u64).collect();
    g.bench_function("counting_sort", |b| {
        let mut perm = Vec::new();
        let mut offsets = Vec::new();
        let mut out = Vec::new();
        b.iter(|| {
            counting_sort_perm(&keys, locales, &mut perm, &mut offsets);
            apply_perm(&perm, &vals, &mut out);
            black_box(out.len())
        })
    });
    g.bench_function("comparison_sort", |b| {
        b.iter(|| {
            let mut pairs: Vec<(u16, u64)> =
                keys.iter().copied().zip(vals.iter().copied()).collect();
            pairs.sort_by_key(|&(k, _)| k);
            black_box(pairs.len())
        })
    });
    g.finish();
}

/// Diagonal evaluation: Walsh monomials (popcount) vs conditional
/// pattern channels (the representation the E-decomposition would give
/// without the Walsh conversion).
fn bench_diagonal(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_diagonal");
    g.sample_size(15);
    let n = 24u32;
    let bonds = ls_symmetry::lattice::chain_bonds(n as usize);
    // Walsh form: one (coeff, zmask) per bond.
    let walsh: Vec<(f64, u64)> =
        bonds.iter().map(|&(i, j)| (0.25, (1u64 << i) | (1u64 << j))).collect();
    // Conditional form: 4 (pattern, coeff) channels per bond.
    let mut channels: Vec<(u64, u64, f64)> = Vec::new(); // (sites, pattern, coeff)
    for &(i, j) in &bonds {
        let sites = (1u64 << i) | (1u64 << j);
        for pat_bits in 0..4u64 {
            let pattern = ((pat_bits & 1) << i) | (((pat_bits >> 1) & 1) << j);
            let aligned = (pat_bits & 1) == ((pat_bits >> 1) & 1);
            channels.push((sites, pattern, if aligned { 0.25 } else { -0.25 }));
        }
    }
    let states: Vec<u64> = FixedWeightRange::all(n, n / 2).take(20_000).collect();
    g.bench_function("walsh_popcount", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &s in &states {
                for &(cf, zmask) in &walsh {
                    let downs = (!s & zmask).count_ones();
                    acc += if downs & 1 == 0 { cf } else { -cf };
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("conditional_channels", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &s in &states {
                for &(sites, pattern, cf) in &channels {
                    if s & sites == pattern {
                        acc += cf;
                    }
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Batched vs per-pair destination handling: the producer/consumer
/// pipeline across staging-buffer capacities.
fn bench_batched_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_batched_rows");
    g.sample_size(10);
    let s = ls_bench::SmallScale::chain(22, 4, 1);
    let mut y = ls_runtime::DistVec::<f64>::zeros(&s.basis.states().lens());
    for batch in [1usize, 16, 256, 4096] {
        g.bench_function(format!("batch_{batch}"), |b| {
            b.iter(|| {
                ls_dist::matvec_pc(
                    &s.cluster,
                    &s.op,
                    &s.basis,
                    &s.x,
                    &mut y,
                    ls_dist::PcOptions { capacity: batch, ..Default::default() },
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_ranking,
    bench_dist_part_rank,
    bench_matvec_strategies,
    bench_partition,
    bench_diagonal,
    bench_batched_rows
);
criterion_main!(benches);
