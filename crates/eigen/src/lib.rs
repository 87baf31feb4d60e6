//! # ls-eigen
//!
//! Krylov eigensolvers for the exact-diagonalization stack.
//!
//! Exact diagonalization ultimately asks for a few extreme eigenpairs of a
//! huge Hermitian matrix; the paper (Sec. 2.1) points to Krylov subspace
//! methods as the standard tool, with the matrix-vector product (this
//! workspace's centrepiece) as the only operation touching the operator.
//!
//! This crate provides:
//! * [`vector`] — the Krylov storage abstraction: [`KrylovVec`] (fused
//!   deterministic BLAS-1 over any vector representation, implemented
//!   once for `Vec<S>` and once for the locale-partitioned
//!   `ls_runtime::DistVec<S>`, `S` a [`ls_kernels::Scalar`]: `f64` or
//!   `Complex64`, stored as computed in) and [`KrylovOp`] (the
//!   matrix-free operator over that storage, with a blanket
//!   implementation turning every [`LinearOp`] into a
//!   `KrylovOp<Vec<S>>`);
//! * [`LinearOp`] — the slice-based matrix-free operator interface,
//!   including the fused matvec+dot epilogue hook
//!   ([`LinearOp::apply_dot`]);
//! * [`op`] — the BLAS-1 layer, written once over the scalar: serial
//!   block loops plus the **parallel deterministic kernels** (`par_dot`,
//!   `par_norm_sqr`, blocked multi-vector `par_multi_dot`/`par_multi_axpy`
//!   and their fusions, in-place `par_combine_in_place`) whose
//!   reductions are bit-identical at any `LS_NUM_THREADS`;
//! * [`restart`] — the one Lanczos eigen-recurrence: full (blocked CGS2)
//!   reorthogonalization and Ritz-residual convergence control, written
//!   once against the vector abstraction on the parallel fused pipeline,
//!   cut into cycles joined by thick restarts (Ritz compression), with
//!   optional checkpoint/restart ([`restart::CheckpointPolicy`]) whose
//!   resume is bit-identical to the uninterrupted solve. It has two
//!   front ends, which only plan its cycles:
//!   [`restart::thick_restart_lanczos_in`] from a `k + extra` vector
//!   budget, and [`lanczos::lanczos_smallest_in`] from an iteration cap
//!   plus [`LanczosOptions::max_retained`] — a single cycle keeping
//!   every vector (unrestarted Lanczos) when the cap fits the budget,
//!   the budget's restart cycles when it does not
//!   ([`lanczos::lanczos_smallest`] is the slice-based wrapper);
//! * [`lanczos`] also holds the blocked-CGS2 step and the plain Krylov
//!   factorization that [`expm`] and [`spectral`] reuse for propagators
//!   and spectral functions;
//! * [`checkpoint`] — the on-disk format behind that resume contract
//!   ([`save_checkpoint`] / [`load_checkpoint`], plus keep-last-K
//!   rotation);
//! * [`record`] — the one codec of every file the workspace writes
//!   (checkpoints, their manifests, saved vectors and bases): a sealed
//!   record with a CRC32C on header and payload, streamed both ways and
//!   written atomically, and the one typed [`FileError`] for truncated,
//!   corrupt or mismatched files;
//! * [`health`] — the solver layer of the silent-error defense:
//!   [`HealthMonitor`] checks Lanczos invariants (finite coefficients,
//!   `β ≥ 0`, retained-basis orthonormality, sane residuals) each cycle.
//!   A violation ends the solve, fail-stop like every detected
//!   corruption: the typed [`SolverHealthError`] unwinds in process, a
//!   multiprocess job exits 115, and the caller or the supervisor
//!   resumes from the newest checkpoint;
//! * [`tridiag::tridiag_eigh`] — implicit-shift QL for the projected
//!   tridiagonal problem (no LAPACK available offline, so this is a
//!   from-scratch implementation);
//! * [`jacobi`] — dense cyclic-Jacobi reference solvers (real symmetric
//!   and complex Hermitian via real embedding) used to validate everything
//!   else.

pub mod checkpoint;
pub mod expm;
pub mod health;
pub mod jacobi;
pub mod lanczos;
pub mod op;
pub mod record;
pub mod restart;
pub mod spectral;
pub mod tridiag;
pub mod vector;

pub use checkpoint::{
    generation_path, load_checkpoint, load_latest_checkpoint, manifest_generations,
    remove_checkpoint, save_checkpoint, save_checkpoint_rotated, CheckpointState,
};
pub use expm::{evolve_imaginary_time, evolve_real_time};
pub use health::{HealthMonitor, SolverHealthError};
pub use lanczos::{
    lanczos_smallest, lanczos_smallest_in, LanczosOptions, LanczosResult, LanczosResultIn,
};
pub use op::{DenseOp, LinearOp};
pub use record::FileError;
pub use restart::{
    thick_restart_lanczos, thick_restart_lanczos_in, CheckpointPolicy, RestartOptions,
};
pub use spectral::{spectral_coefficients, SpectralCoefficients};
pub use vector::{KrylovOp, KrylovVec};
