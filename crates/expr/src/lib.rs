//! # ls-expr
//!
//! Symbolic operator expressions over pluggable local Hilbert spaces
//! (spin-1/2 through spin-3/2, fermionic orbitals) and their compilation
//! to matrix-free kernels.
//!
//! The paper's package compiles symbolic Hamiltonians (written in a small
//! expression language, processed by Haskell) into low-level kernels
//! (generated by Halide). This crate is that pipeline, in Rust:
//!
//! 1. [`Expr`] — an AST of sums/products of on-site primitives
//!    (`S+`, `S-`, `Sz`, `Sx`, `Sy`, Pauli matrices, fermionic
//!    `c†`/`c`/`n`), built either with operator overloading or parsed
//!    from a string;
//! 2. normal-form expansion — every expression reduces to a sum of
//!    monomials, each a complex coefficient times a product of one d×d
//!    matrix per site, using the algebra of the chosen [`LocalHilbert`]
//!    (fermionic monomials additionally track Jordan-Wigner parity
//!    strings);
//! 3. [`OperatorKernel`] — the executable matrix-free form: a *Walsh
//!    polynomial* (one-bit encodings) or masked-compare patterns
//!    (multi-bit codes) for the diagonal part and a list of *scattering
//!    channels* — with optional fermionic sign masks — for the
//!    off-diagonal part. Applying the kernel to a basis state enumerates
//!    one row (equivalently column) of the Hamiltonian, which is exactly
//!    the `getRow` operation of the paper (Sec. 5.3).

pub mod ast;
pub mod builders;
pub mod hilbert;
pub mod kernel;
pub mod normal;
pub mod parse;
pub mod sitematrix;

pub use ast::{Expr, Primitive, PrimitiveKind};
pub use builders::{
    fermion_hop, heisenberg, heisenberg_bond, hubbard_1d, ising_zz, transverse_field, xxz,
    xxz_bond,
};
pub use hilbert::LocalHilbert;
pub use kernel::{Channel, DiagPattern, OperatorKernel, ZMonomial};
pub use normal::CompileError;
pub use parse::{parse_expr, ParseError};
pub use sitematrix::SiteMatrix;
