//! # ls-dist
//!
//! The distributed-memory layer of the workspace: everything from the
//! paper's Secs. 4–5, executed on the simulated PGAS runtime of
//! [`ls_runtime`].
//!
//! * [`basis`] — distributed representative enumeration ([`enumerate_dist`],
//!   the paper's Fig. 4) producing a [`DistSpinBasis`] in the *hashed*
//!   distribution: basis state `s` lives on locale
//!   `hash64_01(s) % numLocales` (Sec. 5.1), which balances both memory
//!   and matrix-row work;
//! * [`convert`] — exact conversions between the hashed distribution used
//!   for compute and the *block* distribution used for I/O (Sec. 4,
//!   Figs. 2–3); the roundtrip is bit-exact;
//! * [`distribution`] — load-balance diagnostics comparing the hashed
//!   scheme against naive contiguous range partitioning;
//! * [`matvec`] — the distributed matrix-vector product: the
//!   producer/consumer pipeline of Sec. 5.3 ([`matvec::pc`]) that overlaps
//!   row generation with communication through reusable buffer channels,
//!   plus its oracle, one remote atomic per matrix element
//!   ([`matvec::matvec_naive`]);
//! * [`eigensolve`] — [`DistOp`], the one handle for the distributed
//!   product: it owns the producer/consumer engine and implements
//!   `KrylovOp<DistVec>`, so a single product is `KrylovOp::apply` and
//!   every generic Krylov routine of [`ls_eigen`] (Lanczos, thick restart,
//!   real- and imaginary-time evolution, spectral coefficients) runs **in
//!   place on [`ls_runtime::DistVec`]**: no Krylov vector is ever
//!   gathered, and the engine's buffers are reused across the repeated
//!   products. [`dist_thick_restart_lanczos`] is the one distributed solve
//!   wrapper.
//!
//! Level-1 operations on distributed vectors are the
//! [`ls_eigen::KrylovVec`] methods of `DistVec` (`x.dot(&y)`,
//! `DistVec::multi_axpy_norm_sqr(..)`, ...); there is no separate
//! distributed BLAS module.

pub mod basis;
pub mod convert;
pub mod distribution;
pub mod eigensolve;
mod layout;
pub mod matvec;

pub use basis::{enumerate_dist, DistSpinBasis};
pub use convert::{block_to_hashed, hashed_to_block};
pub use eigensolve::{dist_thick_restart_lanczos, DistOp, DistRestartOptions};
pub use matvec::{matvec_naive, PcOptions};
