//! Integration test: the producer/consumer pipeline agrees with the
//! shared-memory serial reference for extreme staging-buffer capacities —
//! a 1-pair capacity degenerates to the naive formulation's granularity,
//! 4096 exceeds the whole off-diagonal volume so everything ships in the
//! final drain — in arrival order and in the deterministic (stashing)
//! order, which must also repeat bit for bit, on 1, 2 and 4 threads per
//! locale, on symmetrized sectors (keyed by state, ranked by search) and
//! on a U(1) sector (keyed by sector rank, resolved by select) — and on
//! more threads than a locale has rows.

use ls_basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_dist::matvec::{matvec_naive, PcOptions};
use ls_dist::{enumerate_dist, DistOp, DistSpinBasis};
use ls_eigen::KrylovOp;
use ls_expr::builders::heisenberg;
use ls_runtime::{Cluster, ClusterSpec, DistVec};
use ls_symmetry::lattice::{chain_bonds, chain_group};

fn serial_reference(op: &SymmetrizedOperator<f64>, basis: &SpinBasis, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; basis.dim()];
    let mut row = Vec::new();
    for j in 0..basis.dim() {
        let alpha = basis.state(j);
        y[j] += op.diagonal(alpha) * x[j];
        row.clear();
        op.apply_off_diag(alpha, basis.orbit_sizes()[j], &mut row);
        for &(rep, amp) in &row {
            y[basis.index_of(rep).unwrap()] += amp * x[j];
        }
    }
    y
}

fn scatter(basis: &SpinBasis, dist: &DistSpinBasis, dense: &[f64]) -> DistVec<f64> {
    let mut out = DistVec::<f64>::zeros(&dist.states().lens());
    for l in 0..dist.n_locales() {
        for (i, &s) in dist.states().part(l).iter().enumerate() {
            out.part_mut(l)[i] = dense[basis.index_of(s).unwrap()];
        }
    }
    out
}

/// The `n`-site ring at half filling under translations, the flip and
/// `reflection`: a searched sector.
fn symmetrized_ring(n: u32, reflection: Option<i64>) -> SectorSpec {
    let group = chain_group(n as usize, 0, reflection, Some(0)).unwrap();
    SectorSpec::new(n, Some(n / 2), group).unwrap()
}

#[test]
fn pc_pipeline_across_batch_capacities() {
    // (sector, locale counts). The U(1) ring is a closed form: its
    // emissions are keyed by sector rank and resolved by select; the
    // symmetrized rings ship states and search.
    let cases = [
        (symmetrized_ring(12, Some(0)), &[1, 3][..]),
        (symmetrized_ring(10, None), &[4]),
        (SectorSpec::with_weight(12, 6).unwrap(), &[1, 2, 3]),
    ];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (sector, locale_counts) in cases {
        let (n, closed_form) = (sector.n_sites() as usize, sector.group().order() == 1);
        let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector.clone());
        let x: Vec<f64> = (0..basis.dim()).map(|i| ((i as f64) * 0.73).sin() - 0.2).collect();
        let y_ref = serial_reference(&op, &basis, &x);

        // Capacity 1 on the one thread of each of 4 locales is the deadlock
        // probe: nothing there may block.
        for (&locales, cores) in
            locale_counts.iter().flat_map(|l| [1usize, 2, 4].map(|c| (l, c)))
        {
            let cluster = Cluster::new(ClusterSpec::new(locales, cores));
            let dist = enumerate_dist(&cluster, &sector, 2);
            assert_eq!(dist.ranks_in_closed_form(), closed_form, "n={n}");
            let xd = scatter(&basis, &dist, &x);
            for capacity in [1usize, 7, 4096] {
                for deterministic in [false, true] {
                    let opts = PcOptions { capacity, deterministic };
                    let mut yd = DistVec::<f64>::zeros(&dist.states().lens());
                    DistOp::new(&cluster, &op, &dist, opts).apply(&xd, &mut yd);
                    for l in 0..locales {
                        for (i, &s) in dist.states().part(l).iter().enumerate() {
                            let expect = y_ref[basis.index_of(s).unwrap()];
                            assert!(
                                (yd.part(l)[i] - expect).abs() < 1e-11,
                                "n={n} locales={locales} cores={cores} capacity={capacity} \
                                 det={deterministic} state={s:#b}"
                            );
                        }
                    }
                    if deterministic {
                        // Stashed batches are applied in an order that does
                        // not depend on timing: a second product has the
                        // same bits, part by part.
                        let mut again = DistVec::<f64>::zeros(&dist.states().lens());
                        DistOp::new(&cluster, &op, &dist, opts).apply(&xd, &mut again);
                        // Nor on the core count: the product of a one-core
                        // locale has the same bits too.
                        let one_core = Cluster::new(ClusterSpec::new(locales, 1));
                        let mut shared = DistVec::<f64>::zeros(&dist.states().lens());
                        DistOp::new(&one_core, &op, &dist, opts).apply(&xd, &mut shared);
                        for l in 0..locales {
                            let at = format!(
                                "n={n} locales={locales} cores={cores} capacity={capacity} part {l}"
                            );
                            assert_eq!(bits(again.part(l)), bits(yd.part(l)), "{at}");
                            assert_eq!(bits(shared.part(l)), bits(yd.part(l)), "{at}");
                        }
                    }
                }
            }
        }
    }
}

/// The arrival-ordered product on `spec` against `matvec_naive`, to 1e-11;
/// returns the part lengths it ran on.
fn matches_naive(n: usize, spec: ClusterSpec) -> Vec<usize> {
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let cluster = Cluster::new(spec);
    let dist = enumerate_dist(&cluster, &sector, 2);
    let lens = dist.states().lens();
    let parts = dist.states().parts().iter();
    let x = DistVec::from_parts(
        parts.map(|p| p.iter().map(|&s| ((s as f64) * 0.37).cos()).collect()).collect(),
    );
    let mut y_ref = DistVec::<f64>::zeros(&lens);
    matvec_naive(&cluster, &op, &dist, &x, &mut y_ref);
    for capacity in [1usize, 512] {
        let mut y = DistVec::<f64>::zeros(&lens);
        DistOp::new(&cluster, &op, &dist, PcOptions { capacity, ..PcOptions::default() })
            .apply(&x, &mut y);
        for l in 0..lens.len() {
            for (a, b) in y.part(l).iter().zip(y_ref.part(l)) {
                assert!((a - b).abs() < 1e-11, "n={n} {spec:?} capacity={capacity} part {l}");
            }
        }
    }
    lens
}

#[test]
fn every_thread_of_one_locale_produces_and_drains() {
    // 1 locale × 3 cores: nothing ever ships, three threads share the rows
    // and the adds into the one part.
    matches_naive(12, ClusterSpec::new(1, 3));
}

#[test]
fn a_part_shorter_than_its_thread_count() {
    // Thread `t` of 3 takes rows `[t·n/3, (t+1)·n/3)`: with n = 0 or 1 some
    // threads produce nothing and still drain, close and cross the barrier.
    let lens = matches_naive(6, ClusterSpec::new(4, 3));
    assert!(lens.contains(&0) && lens.contains(&1), "the case went away: {lens:?}");
}

#[test]
fn an_engine_walks_several_tiles_of_a_symmetrized_part() {
    // 18 sites under translations, reflection and the flip (|G| = 72),
    // odd under both: characters ±1, so the walk checks stabilizers and
    // looks up phases. The group walk resolves its tile of rows at a time;
    // every thread of every locale runs several.
    let n = 18usize;
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let group = chain_group(n, 0, Some(1), Some(1)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let tile_rows = op.walk_tile_rows().expect("a symmetrized sector walks");
    let (locales, cores) = (2, 2);
    let cluster = Cluster::new(ClusterSpec::new(locales, cores));
    let dist = enumerate_dist(&cluster, &sector, 2);
    let lens = dist.states().lens();
    assert!(lens.iter().all(|&len| len >= 2 * cores * tile_rows), "{lens:?}");
    let parts = dist.states().parts().iter();
    let x = DistVec::from_parts(
        parts.map(|p| p.iter().map(|&s| ((s as f64) * 0.37).cos()).collect()).collect(),
    );
    let mut y_ref = DistVec::<f64>::zeros(&lens);
    matvec_naive(&cluster, &op, &dist, &x, &mut y_ref);
    // The engine's buffers are reused: the second product must agree too.
    let engine = DistOp::new(&cluster, &op, &dist, PcOptions::default());
    for product in 0..2 {
        let mut y = DistVec::<f64>::zeros(&lens);
        engine.apply(&x, &mut y);
        for l in 0..locales {
            for (a, b) in y.part(l).iter().zip(y_ref.part(l)) {
                assert!((a - b).abs() < 1e-11, "product {product}, part {l}: {a} vs {b}");
            }
        }
    }
}
