//! Cross-solver oracle suite for thick-restart Lanczos: on random
//! symmetrized sectors small enough for dense diagonalization, the
//! memory-bounded solver must agree with (a) the dense Jacobi reference
//! and (b) full-memory Lanczos, while actually honoring its vector
//! budget.
//!
//! Oracle assertions are multiplicity-robust: every returned value must
//! lie in the dense spectrum, the ground state must match exactly, and
//! sorted Ritz values are bounded below by the sorted dense spectrum
//! (any k true eigenvalues sorted ascending dominate the k smallest).
//!
//! A solve that wants no Ritz vectors stops on the gap rule of
//! `ls_eigen::restart` (a Kato–Temple estimate of the eigenvalue error),
//! so its oracle is the dense spectrum, value for value in order, to
//! `tol·max(1, |λ|)`: on random sectors under the default and a tight
//! budget, on a degenerate cluster inside the wanted set, and on a
//! degenerate pair straddling the `k`-th eigenvalue, where the rule falls
//! back to the residual estimates.

mod common;

use exact_diag::eigen::jacobi::eigh_real;
use exact_diag::eigen::DenseOp;
use exact_diag::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Dense spectrum of a sector (row-major flatten + Jacobi).
fn dense_spectrum(op: &SymmetrizedOperator<f64>, basis: &SpinBasis) -> Vec<f64> {
    let rows = op.to_dense(basis);
    let n = basis.dim();
    let mut flat = vec![0.0f64; n * n];
    for (i, row) in rows.iter().enumerate() {
        flat[i * n..(i + 1) * n].copy_from_slice(row);
    }
    let (vals, _) = eigh_real(&flat, n);
    vals
}

/// Walks the solver's ascending eigenvalues through the sorted dense
/// spectrum in order, each within `tol·max(1, |λ|)` of its eigenvalue:
/// no eigenvalue below the last one found may be skipped, and none found
/// more often than its multiplicity. A copy of a degenerate eigenvalue
/// may be missing — single-vector Krylov sees one copy per eigenspace
/// unless rounding or a breakdown seeds another, whatever the stopping
/// rule — so copies count as one level (equal to 1e-9).
fn walk_spectrum(got: &[f64], dense: &[f64], tol: f64) -> Result<(), String> {
    let mut levels: Vec<(f64, usize)> = Vec::new();
    for &d in dense {
        match levels.last_mut() {
            Some((v, copies)) if (d - *v).abs() <= 1e-9 * d.abs().max(1.0) => *copies += 1,
            _ => levels.push((d, 1)),
        }
    }
    let (mut at, mut used) = (0usize, 0usize);
    for (i, &g) in got.iter().enumerate() {
        let nearer_next =
            levels.get(at + 1).is_some_and(|n| (g - n.0).abs() < (g - levels[at].0).abs());
        if used > 0 && (used == levels[at].1 || nearer_next) {
            at += 1;
            used = 0;
        }
        used += 1;
        let d = levels[at].0;
        if (g - d).abs() > tol * d.abs().max(1.0) {
            return Err(format!(
                "λ{i} = {g} is {:e} from dense level {at} = {d}",
                (g - d).abs()
            ));
        }
    }
    Ok(())
}

/// The solver's eigenvalues agree with the sorted dense spectrum, copy for
/// copy, to `tol·max(1, |λ|)`.
fn assert_spectrum_to_tol(what: &str, got: &[f64], dense: &[f64], tol: f64) {
    for (i, (g, d)) in got.iter().zip(dense).enumerate() {
        assert!((g - d).abs() <= tol * d.abs().max(1.0), "{what}: λ{i} = {g}, dense {d}");
    }
}

/// Diagonal operator with `count` copies of each `value`, and its sorted
/// spectrum.
fn degenerate_diagonal(copies: &[(f64, usize)]) -> (DenseOp<f64>, Vec<f64>) {
    let spectrum: Vec<f64> =
        copies.iter().flat_map(|&(v, c)| std::iter::repeat_n(v, c)).collect();
    let n = spectrum.len();
    let mut a = vec![0.0f64; n * n];
    for (i, v) in spectrum.iter().enumerate() {
        a[i * n + i] = *v;
    }
    (DenseOp::new(n, a), spectrum)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Thick restart vs dense Jacobi vs full Lanczos on random sectors
    /// with dimensions well past the vector budget.
    #[test]
    fn thick_restart_agrees_with_dense_and_full_lanczos(
        case in any::<u64>(),
        k_choice in 1usize..4,
    ) {
        // Chain sizes whose sector dimensions stay dense-diagonalizable.
        let n = 10usize;
        let sector = common::random_sector(n, case);
        let (op, basis) = common::heisenberg_problem(n, &sector);
        let dim = basis.dim();
        prop_assume!(dim >= 16);
        let dense = dense_spectrum(&op, &basis);
        let k = k_choice.min(dim / 4).max(1);
        let full_op = Operator::<f64>::from_parts(op, Arc::new(basis));

        let full = lanczos_smallest(
            &full_op,
            k,
            // max_retained pinned high: the reference must be genuinely
            // full-memory, not the transparently routed thick restart.
            &LanczosOptions {
                max_iter: dim,
                tol: 1e-11,
                max_retained: usize::MAX,
                ..Default::default()
            },
        );
        let opts = RestartOptions {
            extra: k + 4, // total budget 2k + 4 vectors — far below dim
            tol: 1e-11,
            want_vectors: true,
            ..RestartOptions::new(k)
        };
        let thick = exact_diag::eigen::thick_restart_lanczos(&full_op, &opts);

        prop_assert!(thick.converged, "thick restart did not converge: {:?}", thick.residuals);
        prop_assert!(full.converged, "full Lanczos did not converge");

        // Budget honored: never more than k + extra live vectors.
        prop_assert!(
            thick.peak_retained <= opts.k + opts.extra,
            "peak {} exceeds budget {}", thick.peak_retained, opts.k + opts.extra
        );
        // ... and genuinely fewer than the full solver's retained basis
        // whenever the run restarts at all.
        if full.iterations + 1 > opts.k + opts.extra {
            prop_assert!(thick.peak_retained < full.peak_retained);
        }

        // (a) vs dense: λ0 exact, every value in the spectrum, sorted
        // values dominated below by the dense spectrum.
        prop_assert!((thick.eigenvalues[0] - dense[0]).abs() < 1e-7,
            "λ0 {} vs dense {}", thick.eigenvalues[0], dense[0]);
        for (i, v) in thick.eigenvalues.iter().enumerate() {
            prop_assert!(
                dense.iter().any(|d| (d - v).abs() < 1e-7),
                "Ritz value {v} not in the dense spectrum"
            );
            prop_assert!(*v >= dense[i] - 1e-7, "λ{i} = {v} below dense λ{i} = {}", dense[i]);
        }

        // (b) vs full-memory Lanczos: same ground state.
        prop_assert!((thick.eigenvalues[0] - full.eigenvalues[0]).abs() < 1e-8,
            "thick {} vs full {}", thick.eigenvalues[0], full.eigenvalues[0]);

        // (c) Ritz pairs are genuine: ‖Hx − λx‖ below tolerance.
        let vecs = thick.eigenvectors.as_ref().unwrap();
        for (lam, v) in thick.eigenvalues.iter().zip(vecs) {
            let mut hv = vec![0.0f64; dim];
            full_op.apply(v, &mut hv);
            let rn: f64 = hv
                .iter()
                .zip(v)
                .map(|(a, b)| (a - lam * b) * (a - lam * b))
                .sum::<f64>()
                .sqrt();
            prop_assert!(rn < 1e-6, "Ritz residual {rn} for λ = {lam}");
        }

        // (d) the solver's own residual estimates honor the tolerance.
        let scale = thick.eigenvalues.iter().fold(1e-300f64, |a, v| a.max(v.abs()));
        for r in &thick.residuals {
            prop_assert!(*r <= 1e-11 * scale.max(dense.last().unwrap().abs()) * 10.0,
                "reported residual {r} above tolerance");
        }

        // (e) Eigenvalues only: the gap rule. Under the default budget
        // and under this tight one — where a restart locks no unwanted
        // pair and the gap must be read from a resolved neighbour — every
        // eigenvalue is its dense eigenvalue to `tol·max(1, |λ|)`, none
        // skipped.
        for extra in [RestartOptions::new(k).extra, opts.extra] {
            let values = exact_diag::eigen::thick_restart_lanczos(
                &full_op,
                &RestartOptions { extra, want_vectors: false, ..opts.clone() },
            );
            prop_assert!(values.converged, "extra {extra}: residuals {:?}", values.residuals);
            let walk = walk_spectrum(&values.eigenvalues, &dense, opts.tol);
            prop_assert!(walk.is_ok(), "extra {extra}: {}", walk.unwrap_err());
        }
    }

    /// On sectors too large for a dense oracle, thick restart still
    /// reproduces full-memory Lanczos eigenvalues under a tight budget.
    #[test]
    fn thick_restart_matches_full_lanczos_on_larger_sectors(case in any::<u64>()) {
        let n = 14usize;
        let sector = common::random_sector(n, case);
        let (op, basis) = common::heisenberg_problem(n, &sector);
        let dim = basis.dim();
        prop_assume!(dim >= 64);
        let k = 2usize;
        let full_op = Operator::<f64>::from_parts(op, Arc::new(basis));
        let full = lanczos_smallest(
            &full_op,
            k,
            &LanczosOptions {
                max_iter: dim.min(200),
                tol: 1e-11,
                max_retained: usize::MAX, // genuine full-memory reference
                ..Default::default()
            },
        );
        let thick = exact_diag::eigen::thick_restart_lanczos(
            &full_op,
            &RestartOptions { extra: 10, tol: 1e-11, ..RestartOptions::new(k) },
        );
        prop_assert!(thick.converged && full.converged);
        prop_assert!(thick.peak_retained <= k + 10);
        for (i, (a, b)) in thick.eigenvalues.iter().zip(&full.eigenvalues).enumerate() {
            prop_assert!((a - b).abs() < 1e-7, "λ{i}: thick {a} vs full {b}");
        }
    }
}

/// Degenerate spectra, eigenvalues only: a cluster of copies inside the
/// wanted set is bounded as a cluster against the gap to the rest, and a
/// degenerate pair straddling the `k`-th eigenvalue (`δ̂ ≤ 0`) falls back
/// to the residual rule. Every copy is found, to `tol·max(1, |λ|)`, on
/// the restarted plan and on both `lanczos_smallest` plans.
#[test]
fn gap_rule_on_degenerate_spectra() {
    let tol = 1e-10;
    let cases: [(&[(f64, usize)], usize); 3] = [
        // Four copies of -1 inside the wanted set, a gap of 3 above it.
        (&[(-1.0, 4), (2.0, 56)], 4),
        // k = 5 splits the 2s: one wanted, 55 unwanted.
        (&[(-1.0, 4), (2.0, 56)], 5),
        // k = 3 splits the pair of 0s.
        (&[(-1.0, 2), (0.0, 2), (2.0, 56)], 3),
    ];
    for (copies, k) in cases {
        let (op, spectrum) = degenerate_diagonal(copies);
        let what = format!("{copies:?}, k = {k}");
        let plans = [
            exact_diag::eigen::thick_restart_lanczos(
                &op,
                &RestartOptions { extra: k + 4, tol, ..RestartOptions::new(k) },
            ),
            lanczos_smallest(&op, k, &LanczosOptions { tol, ..Default::default() }),
            lanczos_smallest(
                &op,
                k,
                &LanczosOptions { tol, max_retained: usize::MAX, ..Default::default() },
            ),
        ];
        for res in plans {
            assert!(res.converged, "{what}: residuals {:?}", res.residuals);
            assert_spectrum_to_tol(&what, &res.eigenvalues, &spectrum, tol);
        }
    }
}

/// The gap rule fires: on a well-separated sector (16-site U(1) ring,
/// restarted under the benchmark's 26-vector budget) the solve without
/// Ritz vectors stops products before the same solve with them, on
/// eigenvalues that agree to `tol·max(1, |λ|)`.
#[test]
fn gap_rule_stops_before_the_residual_rule() {
    let n = 16usize;
    let sector = SectorSpec::with_weight(n as u32, 8).unwrap();
    let (op, basis) = common::heisenberg_problem(n, &sector);
    let full_op = Operator::<f64>::from_parts(op, Arc::new(basis));
    let opts = RestartOptions { extra: 24, ..RestartOptions::new(2) };
    let values = exact_diag::eigen::thick_restart_lanczos(&full_op, &opts);
    let vectors = exact_diag::eigen::thick_restart_lanczos(
        &full_op,
        &RestartOptions { want_vectors: true, ..opts.clone() },
    );
    assert!(values.converged && vectors.converged);
    assert!(
        values.iterations < vectors.iterations,
        "gap rule {} products, residual rule {}",
        values.iterations,
        vectors.iterations
    );
    assert_spectrum_to_tol("16-site ring", &values.eigenvalues, &vectors.eigenvalues, opts.tol);
}

/// The default 24-site-scale acceptance path, shrunk to CI size: the
/// routed `lanczos_smallest` (default options, `max_iter` above the
/// retained budget) must agree with explicit full-memory Lanczos on a
/// U(1) sector whose Krylov run genuinely restarts.
#[test]
fn routed_solver_reaches_full_lanczos_eigenvalues_on_u1_sector() {
    let n = 16usize;
    let sector = SectorSpec::with_weight(n as u32, 8).unwrap();
    let (op, basis) = common::heisenberg_problem(n, &sector);
    let dim = basis.dim(); // C(16, 8) = 12870
    let full_op = Operator::<f64>::from_parts(op, Arc::new(basis));

    // Full-memory reference.
    let full = lanczos_smallest(
        &full_op,
        2,
        &LanczosOptions {
            max_iter: 200,
            tol: 1e-10,
            max_retained: usize::MAX,
            ..Default::default()
        },
    );
    // Small budget forces the routed thick-restart path.
    let routed = lanczos_smallest(
        &full_op,
        2,
        &LanczosOptions { max_iter: 200, tol: 1e-10, max_retained: 16, ..Default::default() },
    );
    assert!(full.converged && routed.converged);
    assert!(routed.peak_retained <= 16, "routed peak {}", routed.peak_retained);
    assert!(full.peak_retained > 16, "reference did not exceed the budget (dim {dim})");
    for (a, b) in routed.eigenvalues.iter().zip(&full.eigenvalues) {
        assert!((a - b).abs() < 1e-7, "routed {a} vs full {b}");
    }
}
