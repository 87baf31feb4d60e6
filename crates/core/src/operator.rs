//! The high-level operator: expression + sector → basis + matrix-free
//! Hamiltonian with a parallel shared-memory matrix-vector product.

use crate::matvec::{self, MatvecScratchPool, MatvecStrategy};
use ls_basis::{BasisError, SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_eigen::LinearOp;
use ls_expr::Expr;
use ls_kernels::Scalar;
use std::sync::Arc;

/// A symmetrized Hamiltonian bound to its basis.
///
/// The operator owns a [`MatvecScratchPool`]: repeated [`LinearOp::apply`]
/// calls (a Lanczos run performs hundreds on the same operator) reuse the
/// same staging buffers instead of reallocating per product.
#[derive(Clone)]
pub struct Operator<S: Scalar> {
    symop: SymmetrizedOperator<S>,
    basis: Arc<SpinBasis>,
    strategy: MatvecStrategy,
    scratch: Arc<MatvecScratchPool<S>>,
}

impl<S: Scalar> Operator<S> {
    /// Compiles `expr` against the sector's local Hilbert space, builds
    /// the sector basis (in parallel) and binds the two. Returns the
    /// basis alongside the operator.
    pub fn from_expr(
        expr: &Expr,
        sector: SectorSpec,
    ) -> Result<(Arc<SpinBasis>, Self), BasisError> {
        let hilbert = ls_expr::LocalHilbert::from_encoding(sector.encoding());
        let kernel = expr.to_kernel_in(&hilbert, sector.n_sites()).map_err(|_| {
            BasisError::OperatorSizeMismatch {
                kernel_sites: expr.min_sites() as u32,
                n_sites: sector.n_sites(),
            }
        })?;
        let symop = SymmetrizedOperator::<S>::new(&kernel, &sector)?;
        let basis = Arc::new(SpinBasis::build(sector));
        let op = Self::from_parts(symop, Arc::clone(&basis));
        Ok((basis, op))
    }

    /// Binds an already-compiled kernel to an existing basis.
    pub fn from_parts(symop: SymmetrizedOperator<S>, basis: Arc<SpinBasis>) -> Self {
        Self {
            symop,
            basis,
            strategy: MatvecStrategy::default(),
            scratch: Arc::new(MatvecScratchPool::new()),
        }
    }

    pub fn basis(&self) -> &Arc<SpinBasis> {
        &self.basis
    }

    pub fn symmetrized(&self) -> &SymmetrizedOperator<S> {
        &self.symop
    }

    /// Selects the product `apply` runs — the oracle hook: tests and
    /// the benchmark pick [`MatvecStrategy::Serial`] to get the reference.
    /// Nothing needs selecting to get a correct product (see
    /// [`Self::strategy`]).
    pub fn with_strategy(mut self, strategy: MatvecStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The product `apply` runs. The batched engine gathers, which needs a
    /// Hermitian operator, so a non-Hermitian one takes the serial scatter
    /// whatever was selected.
    pub fn strategy(&self) -> MatvecStrategy {
        if self.symop.is_hermitian() {
            self.strategy
        } else {
            MatvecStrategy::Serial
        }
    }

    /// The number of stored Hamiltonian terms (diagnostics).
    pub fn n_terms(&self) -> usize {
        self.symop.n_channels() + self.symop.n_diag_monomials()
    }
}

impl<S: Scalar> LinearOp<S> for Operator<S> {
    fn dim(&self) -> usize {
        self.basis.dim()
    }

    fn apply(&self, x: &[S], y: &mut [S]) {
        let pool = &*self.scratch;
        match self.strategy() {
            MatvecStrategy::BatchedPull => {
                matvec::apply_batched_pull_pooled(&self.symop, &self.basis, x, y, pool)
            }
            MatvecStrategy::Serial => {
                matvec::apply_serial_pooled(&self.symop, &self.basis, x, y, pool)
            }
        }
    }

    /// The fused matvec+dot epilogue: the engine accumulates the inner
    /// product chunk-by-chunk while the product's output is still
    /// cache-resident (one full sweep over the Krylov vectors saved per
    /// Lanczos iteration). The serial oracle falls back to the product
    /// followed by the deterministic parallel dot.
    fn apply_dot(&self, x: &[S], y: &mut [S]) -> S {
        match self.strategy() {
            MatvecStrategy::BatchedPull => matvec::apply_batched_pull_dot_pooled(
                &self.symop,
                &self.basis,
                x,
                y,
                &self.scratch,
            ),
            MatvecStrategy::Serial => {
                self.apply(x, y);
                ls_eigen::op::par_dot(x, y)
            }
        }
    }

    fn is_hermitian(&self) -> bool {
        self.symop.is_hermitian()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_expr::builders::heisenberg;
    use ls_symmetry::lattice;

    #[test]
    fn build_and_apply() {
        let n = 8usize;
        let expr = heisenberg(&lattice::chain_bonds(n), 1.0);
        let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(4), group).unwrap();
        let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
        assert_eq!(basis.dim() as u64, basis.sector().dimension());
        assert!(op.is_hermitian());
        let x = vec![1.0; basis.dim()];
        let mut y = vec![0.0; basis.dim()];
        op.apply(&x, &mut y);
        // H acting on the uniform vector: row sums; engine vs oracle.
        assert_eq!(op.strategy(), MatvecStrategy::BatchedPull);
        let mut y2 = vec![0.0; basis.dim()];
        op.clone().with_strategy(MatvecStrategy::Serial).apply(&x, &mut y2);
        for i in 0..basis.dim() {
            assert!((y[i] - y2[i]).abs() < 1e-12, "at {i}");
        }
    }

    /// A valid non-Hermitian, charge-conserving operator: the default
    /// product must be the dense sector matrix's, not a panic from the
    /// gather engine's Hermitian precondition.
    #[test]
    fn non_hermitian_default_apply_matches_dense() {
        use ls_expr::ast::{annihilate, create, sminus, splus};
        let cases = [
            (splus(0) * sminus(1), SectorSpec::with_weight(6, 3).unwrap()),
            // One-directional hop between two up-spin orbitals.
            (create(0) * annihilate(1), SectorSpec::spinful_fermions(3, 2, 1).unwrap()),
        ];
        for (expr, sector) in cases {
            let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
            assert!(!op.is_hermitian());
            let dim = basis.dim();
            let x: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            let mut y = vec![0.0; dim];
            op.apply(&x, &mut y);
            let mut y_dot = vec![0.0; dim];
            let xy = op.apply_dot(&x, &mut y_dot);
            assert_eq!(op.strategy(), MatvecStrategy::Serial);

            let dense = op.symmetrized().to_dense(&basis);
            let expect: Vec<f64> =
                dense.iter().map(|row| row.iter().zip(&x).map(|(h, v)| h * v).sum()).collect();
            assert!(expect.iter().any(|&v| v != 0.0), "degenerate case");
            for i in 0..dim {
                assert!((y[i] - expect[i]).abs() < 1e-12, "apply at {i}");
                assert!((y_dot[i] - expect[i]).abs() < 1e-12, "apply_dot at {i}");
            }
            let xy_expect: f64 = x.iter().zip(&expect).map(|(a, b)| a * b).sum();
            assert!((xy - xy_expect).abs() < 1e-12);

            // Called directly, the engine still refuses non-Hermitian input.
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut y = vec![0.0; dim];
                matvec::apply_batched_pull_pooled(
                    op.symmetrized(),
                    &basis,
                    &x,
                    &mut y,
                    &MatvecScratchPool::new(),
                )
            }));
            assert!(refused.is_err());
        }
    }

    #[test]
    fn rejects_bad_sector() {
        let n = 6usize;
        let expr = heisenberg(&lattice::chain_bonds(n), 1.0);
        // Momentum k=1 sector is complex: f64 must be rejected.
        let group = lattice::chain_group(n, 1, None, None).unwrap();
        let sector = SectorSpec::new(n as u32, Some(3), group).unwrap();
        assert!(Operator::<f64>::from_expr(&expr, sector).is_err());
    }
}
