//! # exact-diag
//!
//! Umbrella crate of the `lattice-symmetries-rs` workspace: a from-scratch
//! Rust reproduction of *"Implementing scalable matrix-vector products for
//! the exact diagonalization methods in quantum many-body physics"*
//! (Westerhout & Chamberlain, PAW-ATM '23, arXiv:2308.16712).
//!
//! Re-exports the full public API; see [`ls_core`] for the main entry
//! points and the repository `README.md` / `docs/ARCHITECTURE.md` for the
//! architecture. Runnable examples live in `examples/`; `benchmark/` times
//! a solve end to end and layer by layer.

pub use ls_baseline as baseline;
pub use ls_basis as basis;
pub use ls_core as core;
pub use ls_core::prelude;
pub use ls_dist as dist;
pub use ls_eigen as eigen;
pub use ls_expr as expr;
pub use ls_kernels as kernels;
pub use ls_runtime as runtime;
pub use ls_symmetry as symmetry;
