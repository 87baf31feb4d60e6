//! # ls-kernels
//!
//! Low-level, allocation-free kernels used throughout the
//! `lattice-symmetries-rs` workspace: bit manipulation, hashing, fixed-weight
//! bitstring iteration (Gosper), combinadic ranking, Benes permutation
//! networks, stable counting/radix sorts and accelerated sorted-array
//! searches.
//!
//! In the paper these kernels are the Halide-generated layer; here they are
//! hand-written Rust following the Rust Performance Book idioms: no
//! allocation in hot loops, branch-light inner kernels, `#[inline]` on the
//! tiny leaf functions.

pub mod bits;
pub mod chunk;
pub mod combinadics;
pub mod complexnum;
pub mod encoding;
pub mod hash;
pub mod net;
pub mod search;
pub mod simd;
pub mod sort;

pub use complexnum::{Complex64, Scalar};
pub use encoding::{CodedRange, SiteEncoding};
pub use hash::{hash64_01, locale_idx_of};
pub use net::BenesNetwork;
