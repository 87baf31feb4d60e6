//! Krylov health monitoring: the solver-level layer of the silent-error
//! defense.
//!
//! Transport CRCs ([`ls_runtime::crc32c()`], `LS_INTEGRITY`) catch bytes
//! that change in flight, but a silent error inside a rank — a flipped
//! bit in resident Krylov state, a miscomputed kernel — produces frames
//! that are internally consistent and checksum clean. What such errors
//! *cannot* fake is the algebra of the Lanczos recurrence: coefficients
//! stay finite, `β ≥ 0` by construction, the retained basis stays
//! orthonormal to working precision, and Ritz residual estimates are
//! finite numbers. [`HealthMonitor`] checks exactly those invariants once
//! per restart cycle (plus a per-iteration finiteness check that is a
//! handful of flops next to a matrix-vector product).
//!
//! A violation is fail-stop, like every detected corruption: in process
//! it unwinds out of the solve as a typed [`SolverHealthError`] (thrown
//! with [`std::panic::panic_any`], as the ABFT tally throws
//! [`ls_runtime::TransportError::Corruption`]), and the caller resumes
//! from its checkpoint; a multiprocess job aborts with exit 115 and the
//! supervisor relaunches it from the newest checkpoint.
//!
//! The orthogonality sweep is the only check that costs real work
//! (`O(l²·dim)` on the `l ≤ k + extra` retained vectors, once per cycle,
//! collective under the multiprocess transport), so it is gated on
//! `LS_INTEGRITY=full` like the segment checksums; everything else is
//! cheap enough to run unconditionally.

use crate::vector::KrylovVec;
use ls_kernels::Scalar;
use ls_runtime::IntegrityMode;
use std::fmt;
use std::io::Write;

/// A violated Lanczos invariant: the typed payload the health monitor
/// throws (via [`std::panic::panic_any`]) out of the solve.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverHealthError {
    /// Completed restart cycles at the time of detection (0 during the
    /// first cycle, so always 0 on a single-cycle plan).
    pub cycle: usize,
    /// Which invariant failed (`"alpha"`, `"beta"`, `"ritz"`,
    /// `"residual"`, `"orthogonality"`).
    pub check: &'static str,
    /// Human-readable specifics: the offending value and its position.
    pub detail: String,
}

impl fmt::Display for SolverHealthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solver health violation in cycle {}: {} check failed ({})",
            self.cycle, self.check, self.detail
        )
    }
}

impl std::error::Error for SolverHealthError {}

/// Reports `err` and ends the solve on it through
/// [`ls_runtime::collective::give_up`]: a multiprocess job aborts with
/// exit 115, and in process `err` unwinds typed — `catch_unwind`
/// downcasts it back to [`SolverHealthError`] instead of string-matching
/// a message.
pub fn raise(err: SolverHealthError) -> ! {
    // One write: every rank of a job may report the same violation.
    let _ = std::io::stderr().write_all(format!("ls-eigen: {err}\n").as_bytes());
    ls_runtime::collective::give_up(err)
}

/// Per-cycle invariant checks over the Lanczos recurrence.
///
/// Construct with [`HealthMonitor::from_env`]; each method returns the
/// typed [`SolverHealthError`] on violation so the checks are unit-testable
/// without unwinding — solver call sites feed errors through [`raise`].
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    /// Tolerance on the orthonormality drift of the retained basis:
    /// `|⟨u_i, u_j⟩ − δ_ij|` beyond this is a violation. CGS2 keeps the
    /// basis orthonormal to a few ulps, so 1e-6 of drift means state was
    /// corrupted, not rounded.
    pub orth_tol: f64,
    /// Run the `O(l²·dim)` orthogonality sweep? Tied to
    /// `LS_INTEGRITY=full` by [`HealthMonitor::from_env`].
    pub check_orthogonality: bool,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self { orth_tol: 1e-6, check_orthogonality: true }
    }
}

impl HealthMonitor {
    /// Monitor configured from `LS_INTEGRITY`: the cheap finiteness
    /// checks always run, the orthogonality sweep only under `full`.
    pub fn from_env() -> Self {
        Self { check_orthogonality: IntegrityMode::from_env().full(), ..Self::default() }
    }

    /// Checks one recurrence step: `α` finite, `β` finite and
    /// non-negative. (`β` is the norm of the reorthogonalized residual,
    /// so a negative value cannot arise from healthy arithmetic at all —
    /// only a NaN can sneak through `sqrt`.)
    pub fn check_step(
        &self,
        cycle: usize,
        alpha: f64,
        beta: f64,
    ) -> Result<(), SolverHealthError> {
        if !alpha.is_finite() {
            return Err(SolverHealthError {
                cycle,
                check: "alpha",
                detail: format!("diagonal coefficient is {alpha}"),
            });
        }
        if !beta.is_finite() || beta < 0.0 {
            return Err(SolverHealthError {
                cycle,
                check: "beta",
                detail: format!("off-diagonal coefficient is {beta}"),
            });
        }
        Ok(())
    }

    /// Checks the projected solve's output: every Ritz value finite.
    pub fn check_ritz(&self, cycle: usize, ritz: &[f64]) -> Result<(), SolverHealthError> {
        for (i, v) in ritz.iter().enumerate() {
            if !v.is_finite() {
                return Err(SolverHealthError {
                    cycle,
                    check: "ritz",
                    detail: format!("Ritz value {i} is {v}"),
                });
            }
        }
        Ok(())
    }

    /// Checks the residual estimates: finite (they are `|β·y|` of finite
    /// inputs — anything else means the projected eigenvectors are junk).
    pub fn check_residuals(
        &self,
        cycle: usize,
        residuals: &[f64],
    ) -> Result<(), SolverHealthError> {
        for (i, r) in residuals.iter().enumerate() {
            if !r.is_finite() {
                return Err(SolverHealthError {
                    cycle,
                    check: "residual",
                    detail: format!("residual estimate {i} is {r}"),
                });
            }
        }
        Ok(())
    }

    /// Checks orthonormality of the retained basis: every pairwise inner
    /// product within [`HealthMonitor::orth_tol`] of `δ_ij`. Skipped
    /// (Ok) unless [`HealthMonitor::check_orthogonality`] is set. Under
    /// the multiprocess transport this is collective (one allreduce per
    /// retained vector): call it from all ranks or none.
    pub fn check_basis<V: KrylovVec>(
        &self,
        cycle: usize,
        basis: &[V],
    ) -> Result<(), SolverHealthError> {
        if !self.check_orthogonality {
            return Ok(());
        }
        for (j, v) in basis.iter().enumerate() {
            // One blocked sweep gives column j of the Gram matrix down to
            // its diagonal; the rest of the column is the conjugate of
            // what later columns compute, so the upper triangle is
            // everything.
            let col = V::multi_dot(&basis[..=j], v);
            for (i, c) in col.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                let [cre, cim] = c.to_reals();
                // Comparisons are written to *fail* on NaN (f64::max
                // would silently drop a NaN drift instead).
                let dre = (cre - expect).abs();
                let dim = cim.abs();
                let drift = if dre.is_nan() || dre >= dim { dre } else { dim };
                if !(dre <= self.orth_tol && dim <= self.orth_tol) {
                    return Err(SolverHealthError {
                        cycle,
                        check: "orthogonality",
                        detail: format!(
                            "|<u_{i}, u_{j}> - {expect}| = {drift:.3e} exceeds {:.1e}",
                            self.orth_tol
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon() -> HealthMonitor {
        HealthMonitor::default()
    }

    #[test]
    fn finite_steps_pass_and_poisoned_steps_fail() {
        assert!(mon().check_step(0, 1.5, 0.25).is_ok());
        assert!(mon().check_step(0, 1.5, 0.0).is_ok());
        let e = mon().check_step(3, f64::NAN, 0.1).unwrap_err();
        assert_eq!(e.check, "alpha");
        assert_eq!(e.cycle, 3);
        assert_eq!(mon().check_step(0, 0.0, f64::INFINITY).unwrap_err().check, "beta");
        assert_eq!(mon().check_step(0, 0.0, -1e-3).unwrap_err().check, "beta");
    }

    #[test]
    fn ritz_and_residual_checks_catch_non_finite_entries() {
        assert!(mon().check_ritz(1, &[-2.0, 0.5]).is_ok());
        assert_eq!(mon().check_ritz(1, &[-2.0, f64::NAN]).unwrap_err().check, "ritz");
        assert!(mon().check_residuals(1, &[1e-12, 0.0]).is_ok());
        let e = mon().check_residuals(2, &[1e-12, f64::INFINITY]).unwrap_err();
        assert_eq!(e.check, "residual");
        assert!(e.detail.contains("estimate 1"), "{}", e.detail);
    }

    #[test]
    fn orthogonality_check_accepts_clean_and_flags_drifted_bases() {
        let basis: Vec<Vec<f64>> = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]];
        assert!(mon().check_basis(0, &basis).is_ok());
        // A corrupted retained vector: still unit norm, no longer
        // orthogonal to its neighbour.
        let s = 0.5f64.sqrt();
        let drifted: Vec<Vec<f64>> = vec![vec![1.0, 0.0, 0.0], vec![s, s, 0.0]];
        let e = mon().check_basis(4, &drifted).unwrap_err();
        assert_eq!(e.check, "orthogonality");
        assert_eq!(e.cycle, 4);
        // Each pair is visited once, from its later vector: corruption of
        // the earlier one of a pair is caught there all the same, also
        // when it leaves the norm alone.
        let earlier: Vec<Vec<f64>> =
            vec![vec![s, 0.0, s], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let e = mon().check_basis(0, &earlier).unwrap_err();
        assert!(e.detail.contains("<u_0, u_2>"), "{}", e.detail);
        let later: Vec<Vec<f64>> =
            vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![s, 0.0, s]];
        let e = mon().check_basis(0, &later).unwrap_err();
        assert!(e.detail.contains("<u_0, u_2>"), "{}", e.detail);
        // NaN contamination is also drift (comparison written to fail on
        // NaN, not pass vacuously).
        let nan: Vec<Vec<f64>> = vec![vec![f64::NAN, 0.0, 0.0]];
        assert_eq!(mon().check_basis(0, &nan).unwrap_err().check, "orthogonality");
        // Gated off: same drifted basis passes.
        let off = HealthMonitor { check_orthogonality: false, ..mon() };
        assert!(off.check_basis(4, &drifted).is_ok());
    }

    #[test]
    fn display_names_the_cycle_and_check() {
        let e = SolverHealthError { cycle: 7, check: "beta", detail: "is NaN".into() };
        let s = e.to_string();
        assert!(s.contains("cycle 7") && s.contains("beta"), "{s}");
    }
}
