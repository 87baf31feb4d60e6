//! # ls-basis
//!
//! Symmetry-adapted basis construction for exact diagonalization.
//!
//! In the presence of symmetries, basis elements (bitstrings) and indices
//! (positions in the wavefunction vector) decouple — the central
//! complication the paper's Fig. 1 illustrates. This crate owns that
//! machinery:
//!
//! * [`SectorSpec`] — a symmetry sector: number of sites, site encoding
//!   (spin-1/2, spin-S, fermionic orbitals), optional U(1) charge (total
//!   code sum), per-species [`ChargeMask`]s, and a symmetry group with
//!   characters;
//! * [`rep::state_info`] — maps an arbitrary bitstring to its orbit
//!   representative, with the character phase and orbit size needed for
//!   matrix elements;
//! * [`SpinBasis`] — the list of representatives (with fast state→index
//!   ranking), built serially or with rayon;
//! * [`SymmetrizedOperator`] — an [`ls_expr::OperatorKernel`] projected
//!   into a sector: `getRow` over *representatives*, producing
//!   `(representative, amplitude)` pairs — exactly the operation the
//!   distributed matrix-vector product is built on. Its block form
//!   resolves emissions differentially (`g(α ⊕ m) = g(α) ⊕ π_g(m)`);
//!   [`state_info_batch`] is the reference it is tested against.

pub mod basis;
pub mod enumerate;
pub mod rep;
pub mod sector;
pub mod symop;

pub use basis::{missing_state, MissingState, SpinBasis};
pub use rep::{state_info, state_info_batch, StateInfo, StateInfoBatch, WalkScratch};
pub use sector::{BasisError, ChargeMask, SectorSpec};
pub use symop::{OffDiagBlock, SymmetrizedOperator};
