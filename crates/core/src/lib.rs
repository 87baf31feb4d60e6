//! # ls-core — the `lattice-symmetries-rs` public API
//!
//! A from-scratch Rust reproduction of the system described in
//! *"Implementing scalable matrix-vector products for the exact
//! diagonalization methods in quantum many-body physics"*
//! (Westerhout & Chamberlain, PAW-ATM '23).
//!
//! ## Quickstart
//!
//! ```rust
//! use ls_core::prelude::*;
//!
//! // A 12-site Heisenberg ring in the fully symmetric sector
//! // (U(1) at half filling + translation + reflection + spin inversion;
//! // for N ≡ 0 mod 4 the global ground state lives here).
//! let n = 12;
//! let expr = heisenberg(&chain_bonds(n), 1.0);
//! let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
//! let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
//! let (basis, op) = Operator::<f64>::from_expr(&expr, sector).unwrap();
//! let e0 = ground_state_energy(&op);
//! assert!((e0 + 5.387390917).abs() < 1e-6);
//! assert_eq!(basis.dim(), 35); // 924 states fold down to 35
//! ```
//!
//! ## Crate map
//!
//! | layer | crate |
//! |---|---|
//! | bit kernels (hashing, Benes, Gosper, ranking) | `ls-kernels` |
//! | symbolic operators → matrix-free kernels | `ls-expr` |
//! | symmetry groups, characters, Burnside counting | `ls-symmetry` |
//! | sector bases, representative resolution | `ls-basis` |
//! | Lanczos / tridiagonal / Jacobi | `ls-eigen` |
//! | simulated PGAS runtime | `ls-runtime` |
//! | distributed algorithms (paper §5) | `ls-dist` |
//! | SPINPACK-style baseline | `ls-baseline` |

pub mod eigen;
pub mod io;
pub mod matvec;
pub mod observables;
pub mod operator;

pub use eigen::{eigensolve_restarted, ground_state, ground_state_energy, lowest_eigenvalues};
pub use matvec::{MatvecScratchPool, MatvecStrategy};
pub use observables::{expectation, structure_factor, sz_correlations};
pub use operator::Operator;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::eigen::{
        eigensolve_restarted, ground_state, ground_state_energy, lowest_eigenvalues,
    };
    pub use crate::matvec::MatvecStrategy;
    pub use crate::observables::{expectation, structure_factor, sz_correlations};
    pub use crate::operator::Operator;
    pub use ls_basis::{BasisError, SectorSpec, SpinBasis, SymmetrizedOperator};
    pub use ls_eigen::{
        evolve_imaginary_time, evolve_real_time, lanczos_smallest, spectral_coefficients,
        thick_restart_lanczos, CheckpointPolicy, LanczosOptions, LinearOp, RestartOptions,
    };
    pub use ls_expr::builders::{
        fermion_hop, heisenberg, heisenberg_bond, hubbard_1d, transverse_field, xxz,
    };
    pub use ls_expr::{parse_expr, Expr, LocalHilbert, OperatorKernel};
    pub use ls_kernels::{Complex64, Scalar};
    pub use ls_symmetry::lattice::{
        chain_bonds, chain_group, chain_reflection, chain_translation, square_bonds,
        square_translation_x, square_translation_y,
    };
    pub use ls_symmetry::{Generator, SymmetryGroup};
}
