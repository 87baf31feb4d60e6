//! Failure-injection tests: every misuse the library promises to catch
//! must actually be caught, across crate boundaries.

use exact_diag::basis::{BasisError, SectorSpec, SymmetrizedOperator};
use exact_diag::dist::{block_to_hashed, enumerate_dist, DistOp, PcOptions};
use exact_diag::eigen::KrylovOp;
use exact_diag::prelude::*;
use exact_diag::runtime::{Cluster, ClusterSpec, DistVec, RmaWriteWindow};

fn chain_op(n: usize) -> (SectorSpec, SymmetrizedOperator<f64>) {
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    (sector, op)
}

#[test]
fn operator_sector_mismatches_reported() {
    let n = 8usize;
    let expr = heisenberg(&chain_bonds(n), 1.0);
    // Wrong site count.
    let kernel = expr.to_kernel(n as u32).unwrap();
    let sector10 = SectorSpec::with_weight(10, 5).unwrap();
    assert!(matches!(
        SymmetrizedOperator::<f64>::new(&kernel, &sector10),
        Err(BasisError::OperatorSizeMismatch { .. })
    ));
    // U(1) violation.
    let tfield =
        exact_diag::expr::builders::transverse_field(n, 1.0).to_kernel(n as u32).unwrap();
    let sector = SectorSpec::with_weight(n as u32, 4).unwrap();
    assert!(matches!(
        SymmetrizedOperator::<f64>::new(&tfield, &sector),
        Err(BasisError::BreaksU1)
    ));
    // Symmetry violation: a field on one site breaks translation.
    let lopsided = (heisenberg(&chain_bonds(n), 1.0) + exact_diag::expr::ast::sz(0))
        .to_kernel(n as u32)
        .unwrap();
    let group = chain_group(n, 0, None, None).unwrap();
    let tsector = SectorSpec::new(n as u32, Some(4), group).unwrap();
    assert!(matches!(
        SymmetrizedOperator::<f64>::new(&lopsided, &tsector),
        Err(BasisError::BreaksSymmetry)
    ));
}

#[test]
fn inconsistent_symmetry_declarations_rejected() {
    // Spin inversion off half filling.
    let g = chain_group(8, 0, None, Some(0)).unwrap();
    assert!(matches!(
        SectorSpec::new(8, Some(3), g),
        Err(BasisError::InversionNeedsHalfFilling)
    ));
    // Reflection with a complex momentum has no consistent character.
    assert!(chain_group(8, 1, Some(0), None).is_err());
    // Out-of-range weight.
    assert!(matches!(SectorSpec::with_weight(8, 9), Err(BasisError::WeightOutOfRange { .. })));
}

#[test]
#[should_panic(expected = "x length on locale")]
fn misaligned_distributed_vector_panics() {
    let (sector, op) = chain_op(10);
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let basis = enumerate_dist(&cluster, &sector, 2);
    // Deliberately wrong lengths.
    let x = DistVec::<f64>::zeros(&[1, 1]);
    let mut y = DistVec::<f64>::zeros(&basis.states().lens());
    DistOp::new(&cluster, &op, &basis, PcOptions::default()).apply(&x, &mut y);
}

/// A `DistOp` sizes its engine from the cluster it holds, so the one
/// mismatch left to make is a basis enumerated on another cluster.
#[test]
#[should_panic(expected = "basis distributed over 3 locales, cluster has 2")]
fn basis_cluster_mismatch_panics() {
    let (sector, op) = chain_op(10);
    let basis = enumerate_dist(&Cluster::new(ClusterSpec::new(3, 1)), &sector, 2);
    let x = DistVec::<f64>::zeros(&basis.states().lens());
    let mut y = DistVec::<f64>::zeros(&basis.states().lens());
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    DistOp::new(&cluster, &op, &basis, PcOptions::default()).apply(&x, &mut y);
}

#[test]
fn a_panicking_producer_fails_the_product_instead_of_hanging_it() {
    // The operator is bound to the plain U(1) sector and the basis
    // enumerated for the symmetrized one, so producers generate states the
    // basis does not hold and panic while ranking them. Their channels
    // then never close: the consumers and the other locale used to wait on
    // them forever. The product runs on a helper thread so that a relapse
    // fails this test instead of hanging the suite.
    let n = 10usize;
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let u1 = SectorSpec::with_weight(n as u32, 5).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &u1).unwrap();
    let (sector, _) = chain_op(n);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        let basis = enumerate_dist(&cluster, &sector, 2);
        let lens = basis.states().lens();
        let x = DistVec::from_parts(lens.iter().map(|&len| vec![1.0f64; len]).collect());
        let mut y = DistVec::<f64>::zeros(&lens);
        let product = std::panic::AssertUnwindSafe(|| {
            DistOp::new(&cluster, &op, &basis, PcOptions::default()).apply(&x, &mut y)
        });
        let _ = tx.send(std::panic::catch_unwind(product));
    });
    let payload = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the product hung on its panicked producer")
        .expect_err("a state outside the basis must fail the product");
    let message = payload.downcast_ref::<String>().expect("the producer's own payload");
    assert!(message.contains("is not in the basis"), "{message}");
}

#[test]
fn a_panic_inside_a_drain_step_fails_the_product_instead_of_hanging_it() {
    // The twin of the test above with the panic on the consuming side:
    // locale 1's part lacks one state that only rows of locale 0 connect
    // to (H is symmetric, so those are the rows the state itself emits to),
    // which makes locale 0's producer ship a pair locale 1 cannot rank.
    // With one core per locale that drain step runs on the thread of
    // locale 1's producer; with two it is the consumer thread that dies
    // while both producers wait for channel buffers nobody will free.
    let n = 10usize;
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let sector = SectorSpec::with_weight(n as u32, 5).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let full = enumerate_dist(&Cluster::new(ClusterSpec::new(2, 1)), &sector, 2);
    let mut row = Vec::new();
    let victim = (0..full.local_dim(1))
        .find(|&i| {
            row.clear();
            op.apply_off_diag(
                full.states().part(1)[i],
                full.orbit_sizes().part(1)[i],
                &mut row,
            );
            !row.is_empty() && row.iter().all(|&(rep, _)| full.owner(rep) == 0)
        })
        .expect("a state of locale 1 with all its neighbours on locale 0");
    let without = |part: &[u64]| [&part[..victim], &part[victim + 1..]].concat();
    let states = vec![full.states().part(0).to_vec(), without(full.states().part(1))];
    let orbits = vec![vec![1u32; states[0].len()], vec![1u32; states[1].len()]];
    for cores in [1usize, 2] {
        let basis = exact_diag::dist::DistSpinBasis::from_parts(
            sector.clone(),
            DistVec::from_parts(states.clone()),
            DistVec::from_parts(orbits.clone()),
        );
        let op = op.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cluster = Cluster::new(ClusterSpec::new(2, cores));
            let lens = basis.states().lens();
            let x = DistVec::from_parts(lens.iter().map(|&len| vec![1.0f64; len]).collect());
            let mut y = DistVec::<f64>::zeros(&lens);
            let opts = PcOptions { capacity: 4, ..PcOptions::default() };
            let product = std::panic::AssertUnwindSafe(|| {
                DistOp::new(&cluster, &op, &basis, opts).apply(&x, &mut y)
            });
            let _ = tx.send(std::panic::catch_unwind(product));
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("cores={cores}: the product hung on its panicked drain"))
            .expect_err("a state outside the basis must fail the product");
        let message = payload.downcast_ref::<String>().expect("the drain step's own payload");
        assert!(message.contains("is not in the basis"), "cores={cores}: {message}");
    }
}

#[test]
#[should_panic(expected = "block layout mismatch")]
fn conversion_layout_mismatch_panics() {
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    // block has 3 elements on locale 0 and 0 on locale 1 — not a block
    // layout of 3 elements over 2 locales (should be 1/2 split ... 3
    // over 2 = [1, 2]).
    let block = DistVec::from_parts(vec![vec![1u64, 2, 3], vec![]]);
    let masks = DistVec::from_parts(vec![vec![0u16, 0, 0], vec![]]);
    let _ = block_to_hashed(&cluster, &block, &masks, 2);
}

#[test]
#[should_panic(expected = "overlapping puts")]
fn rma_window_catches_races() {
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let mut v = DistVec::<u64>::zeros(&[4, 4]);
    let win = RmaWriteWindow::new(&mut v);
    cluster.run(|ctx| {
        // Both locales write the same destination range.
        win.put(ctx, 0, 0, &[ctx.locale() as u64]);
    });
}

#[test]
fn lanczos_guards() {
    let (_, op) = chain_op(8);
    let basis = ls_basis::SpinBasis::build(chain_op(8).0);
    let full_op = Operator::from_parts(op, std::sync::Arc::new(basis));
    // k = 0 rejected.
    let res = std::panic::catch_unwind(|| {
        ls_eigen::lanczos_smallest(&full_op, 0, &ls_eigen::LanczosOptions::default())
    });
    assert!(res.is_err());
    // k > dim rejected.
    let res = std::panic::catch_unwind(|| {
        ls_eigen::lanczos_smallest(&full_op, 10_000, &ls_eigen::LanczosOptions::default())
    });
    assert!(res.is_err());
}

#[test]
fn io_rejects_corruption() {
    use exact_diag::core::io;
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ls_failure_io_{}.lsrs", std::process::id()));
    // Truncated file.
    std::fs::write(&path, b"LS").unwrap();
    assert!(io::load_vector::<f64>(&path).is_err());
    // Wrong magic.
    std::fs::write(&path, vec![0u8; 64]).unwrap();
    assert!(io::load_vector::<f64>(&path).is_err());
    // Valid header, truncated payload.
    io::save_vector::<f64>(&path, &[1.0, 2.0, 3.0]).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(bytes.len() - 4);
    std::fs::write(&path, bytes).unwrap();
    assert!(io::load_vector::<f64>(&path).is_err());
    // Truncation *inside the header* must also be a typed error (this
    // used to panic in the unchecked reads).
    io::save_vector::<f64>(&path, &[1.0]).unwrap();
    let good = std::fs::read(&path).unwrap();
    for cut in [5usize, 13, 15, 20] {
        std::fs::write(&path, &good[..cut]).unwrap();
        let got = std::panic::catch_unwind(|| io::load_vector::<f64>(&path));
        assert!(got.expect("load must not panic").is_err(), "cut at {cut} accepted");
    }
    // A flipped bit in a saved vector no longer loads silently.
    let mut bad = good.clone();
    bad[good.len() - 6] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    let err = io::load_vector::<f64>(&path).unwrap_err();
    let typed = err.get_ref().and_then(|e| e.downcast_ref::<io::FileError>());
    assert!(matches!(typed, Some(io::FileError::PayloadCorrupt { .. })), "{err}");
    std::fs::remove_file(&path).ok();
}

/// Checkpoint load paths: truncation, checksum corruption and
/// wrong-storage-kind files must all surface as the right typed
/// [`FileError`], across the crate boundary.
#[test]
fn checkpoints_reject_truncation_corruption_and_wrong_storage() {
    use exact_diag::core::io::{load_checkpoint, save_checkpoint, FileError};
    use exact_diag::eigen::{CheckpointState, KrylovOp};
    use exact_diag::runtime::DistVec;

    let dir = std::env::temp_dir();
    let path = dir.join(format!("ls_failure_ckpt_{}.lsck", std::process::id()));
    let dim = 64usize;
    let mk = |s: f64| (0..dim).map(|i| (i as f64 * s).cos()).collect::<Vec<f64>>();
    let state = CheckpointState {
        k: 1,
        budget: 9,
        restarts: 2,
        draws: 1,
        breakdowns: 0,
        retained: 1,
        diag: vec![-2.5],
        border: vec![3e-4],
        basis: vec![mk(0.3), mk(0.7)],
    };
    save_checkpoint(&path, &state).unwrap();
    let good = std::fs::read(&path).unwrap();
    let dense_op = ls_eigen::DenseOp::new(dim, vec![0.0; dim * dim]);

    // Truncation at every stage of the layout: typed error, no panic.
    for cut in [0usize, 7, 30, good.len() / 3, good.len() - 3] {
        std::fs::write(&path, &good[..cut]).unwrap();
        let err = load_checkpoint::<Vec<f64>, _>(&path, &dense_op).unwrap_err();
        assert!(matches!(err, FileError::Truncated { .. }), "cut {cut}: {err:?}");
    }

    // Bit rot anywhere in the payload fails the checksum.
    for flip in [24usize, good.len() / 2, good.len() - 9] {
        let mut bad = good.clone();
        bad[flip] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_checkpoint::<Vec<f64>, _>(&path, &dense_op),
            Err(FileError::PayloadCorrupt { .. })
        ));
    }

    // Wrong storage kind: a dense checkpoint refused by a distributed
    // solve (and the panic-free typed error is what the solver reports).
    struct DistZero(Vec<usize>);
    impl KrylovOp<DistVec<f64>> for DistZero {
        fn dim(&self) -> usize {
            self.0.iter().sum()
        }
        fn new_vec(&self) -> DistVec<f64> {
            DistVec::zeros(&self.0)
        }
        fn apply(&self, _x: &DistVec<f64>, _y: &mut DistVec<f64>) {}
    }
    std::fs::write(&path, &good).unwrap();
    let dist_op = DistZero(vec![40, 24]);
    assert!(matches!(
        load_checkpoint::<DistVec<f64>, _>(&path, &dist_op),
        Err(FileError::WrongKind { found: 1, expected: 2 })
    ));

    // ... and symmetrically: a distributed checkpoint refused by a
    // shared-memory solve.
    let dist_state = CheckpointState {
        k: 1,
        budget: 9,
        restarts: 2,
        draws: 1,
        breakdowns: 0,
        retained: 1,
        diag: vec![-2.5],
        border: vec![3e-4],
        basis: vec![
            DistVec::from_parts(vec![mk(0.3)[..40].to_vec(), mk(0.3)[40..].to_vec()]),
            DistVec::from_parts(vec![mk(0.7)[..40].to_vec(), mk(0.7)[40..].to_vec()]),
        ],
    };
    save_checkpoint(&path, &dist_state).unwrap();
    assert!(matches!(
        load_checkpoint::<Vec<f64>, _>(&path, &dense_op),
        Err(FileError::WrongKind { found: 2, expected: 1 })
    ));
    // The distributed op with the *matching* layout loads it fine...
    assert!(load_checkpoint::<DistVec<f64>, _>(&path, &dist_op).is_ok());
    // ...but a different locale partition of the same total is refused.
    let repartitioned = DistZero(vec![32, 32]);
    assert!(matches!(
        load_checkpoint::<DistVec<f64>, _>(&path, &repartitioned),
        Err(FileError::LayoutMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn parser_rejects_malformed_input() {
    for bad in [
        "",
        "S+",
        "Sz_",
        "Sz_0 +",
        "* Sz_0",
        "(Sz_0",
        "Sz_0)",
        "Sq_0",
        "Sz_0 Sz_1",
        "1..5 * Sz_0",
        "σq_0",
    ] {
        assert!(parse_expr(bad).is_err(), "accepted {bad:?}");
    }
}
