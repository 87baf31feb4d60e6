//! Criterion benchmarks of the shared-memory matrix-vector product and
//! its row-generation kernel (`getRow`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ls_basis::{OffDiagBlock, SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_core::matvec::{apply_pull, apply_serial};
use ls_expr::builders::heisenberg;
use ls_kernels::chunk::BATCH_ROWS;
use ls_symmetry::lattice;

fn setup(n: usize) -> (SymmetrizedOperator<f64>, SpinBasis, Vec<f64>) {
    let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = SpinBasis::build(sector);
    let x: Vec<f64> = (0..basis.dim()).map(|i| (i as f64 * 0.31).sin()).collect();
    (op, basis, x)
}

fn bench_row_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("getrow");
    g.sample_size(15);
    let (op, basis, _) = setup(20);
    g.bench_function("symmetrized_rows_20spins", |b| {
        let mut row = Vec::with_capacity(op.max_row_entries());
        b.iter(|| {
            let mut acc = 0usize;
            for j in 0..basis.dim().min(5_000) {
                row.clear();
                op.apply_off_diag(basis.state(j), basis.orbit_sizes()[j], &mut row);
                acc += row.len();
            }
            black_box(acc)
        })
    });
    // The same rows through the block form the engines run (the
    // differential walk), in the engine's blocks; the cell above is its
    // reference.
    g.bench_function("symmetrized_block_20spins", |b| {
        let rows = basis.dim().min(5_000);
        let (states, orbits) = (&basis.states()[..rows], &basis.orbit_sizes()[..rows]);
        let mut block = OffDiagBlock::new();
        b.iter(|| {
            let mut acc = 0usize;
            for (s, o) in states.chunks(BATCH_ROWS).zip(orbits.chunks(BATCH_ROWS)) {
                op.apply_off_diag_block(s, o, &mut block);
                acc += block.len();
            }
            black_box(acc)
        })
    });
    g.bench_function("diagonal_20spins", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for j in 0..basis.dim().min(5_000) {
                acc += op.diagonal(basis.state(j));
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("matvec_shared");
    g.sample_size(10);
    let (op, basis, x) = setup(20);
    let mut y = vec![0.0f64; basis.dim()];
    g.bench_function("serial", |b| b.iter(|| apply_serial(&op, &basis, black_box(&x), &mut y)));
    g.bench_function("pull_parallel", |b| {
        b.iter(|| apply_pull(&op, &basis, black_box(&x), &mut y))
    });
    g.finish();
}

criterion_group!(benches, bench_row_generation, bench_strategies);
criterion_main!(benches);
