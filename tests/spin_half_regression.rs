//! Bit-identity pins for the spin-1/2 fast path across the local-Hilbert
//! refactor: enumeration output (serial and chunked-parallel), and
//! ground-state eigenvalues through the symmetric and combinadic U(1)
//! pipelines. The constants were captured on the pre-refactor tree; any
//! drift means the generic encoding path changed spin-1/2 arithmetic or
//! state ordering, which the refactor promises not to do. The
//! symmetrized enumeration pins (states and orbit sizes of three
//! sectors) were captured before the candidate filter walked site
//! permutations instead of group elements, and hold it to the same
//! output.
//!
//! The two eigenvalue pins were re-captured twice, each time because the
//! solver stops at another product, so the Ritz value is read off a
//! Krylov space of another size: same eigenvalue to the solver
//! tolerance, other last bits. Both solves use
//! `LanczosOptions::default()`, which plans restart cycles of 95 products
//! under its 128-vector budget. First, when the unrestarted recurrence
//! was folded into the restart driver: the driver used to test
//! convergence only at a cycle boundary, so both ran all 95, and it now
//! tests after every step. Second, when the stopping rule of a solve
//! without Ritz vectors became the gap rule of `ls_eigen::restart`: the
//! Kato–Temple estimate of the eigenvalue error reaches `tol` products
//! before the Ritz residual does. Each time the pattern it replaced stays
//! below as the reference the new one must match to 1e-9.

use exact_diag::basis::{SectorSpec, SpinBasis};
use exact_diag::eigen::{lanczos_smallest, LanczosOptions};
use exact_diag::prelude::*;

fn fnv1a(stream: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in stream {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// `ground_state_energy` pinned to `bits`, within 1e-9 of the value
/// pinned before the last re-capture (`old_bits`); the default-options
/// solve behind it must stop inside its first 95-product cycle.
fn assert_ground_state_pinned(op: &exact_diag::core::Operator<f64>, bits: u64, old_bits: u64) {
    let e0 = exact_diag::core::eigen::ground_state_energy(op);
    assert_eq!(e0.to_bits(), bits, "got {e0} = {:#x}", e0.to_bits());
    assert!((e0 - f64::from_bits(old_bits)).abs() <= 1e-9);
    let res = lanczos_smallest(op, 1, &LanczosOptions::default());
    assert!(res.converged && res.iterations < 95, "{} products", res.iterations);
}

#[test]
fn u1_enumeration_bit_identical() {
    // 24-site weight-12 U(1)-only sector: dimension and full state-list
    // hash (order-sensitive).
    let sector = SectorSpec::with_weight(24, 12).unwrap();
    let basis = SpinBasis::build(sector);
    assert_eq!(basis.dim(), 2_704_156);
    assert_eq!(fnv1a(basis.states().iter().copied()), 0xeab1b037cce7ddf5);
}

#[test]
fn parallel_enumeration_bit_identical() {
    // Chunked parallel enumeration (the distributed layer's shape) with a
    // prime chunk count that does not divide the dimension.
    let sector = SectorSpec::with_weight(18, 9).unwrap();
    let chunk = exact_diag::basis::enumerate::enumerate_par(&sector, 37);
    assert_eq!(fnv1a(chunk.states.iter().copied()), 0x29d3b3dafe643301);
}

#[test]
fn symmetric_sector_eigenvalue_bit_identical() {
    // 16-site fully symmetrized Heisenberg ground state (character-phase
    // channel path).
    let n = 16usize;
    let expr = heisenberg(&chain_bonds(n), 1.0);
    let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(8), group).unwrap();
    let (_, op) = exact_diag::core::Operator::<f64>::from_expr(&expr, sector).unwrap();
    assert_ground_state_pinned(&op, 0xc01c91b6231b3bef, 0xc01c91b6231cc16d);
}

#[test]
fn combinadic_u1_eigenvalue_bit_identical() {
    // 20-site U(1)-only BatchedPull ground state (combinadic ranking and
    // the fused segment-gather fast path).
    let n = 20usize;
    let expr = heisenberg(&chain_bonds(n), 1.0);
    let sector = SectorSpec::with_weight(n as u32, 10).unwrap();
    let (basis, op) = exact_diag::core::Operator::<f64>::from_expr(&expr, sector).unwrap();
    assert!(basis.ranks_in_closed_form());
    assert_ground_state_pinned(&op, 0xc021cf0bc0514be2, 0xc021cf0bc0518645);
}

/// The three symmetrized sectors the enumeration pins cover: the
/// benchmark's 24-site ring (|G| = 96, dim 28 968), the same ring at
/// k = 1 with translations only (complex characters, zero-norm orbits),
/// and the 6 × 4 square lattice under Tx · Ty · Z.
fn symmetrized_sectors() -> [(&'static str, SectorSpec); 3] {
    use exact_diag::symmetry::lattice::{square_translation_x, square_translation_y};
    use exact_diag::symmetry::{Generator, SymmetryGroup};
    let square = SymmetryGroup::generate(&[
        Generator::new(square_translation_x(6, 4), 3),
        Generator::new(square_translation_y(6, 4), 0),
        Generator::spin_inversion(24, 1),
    ])
    .unwrap();
    [
        (
            "chain24",
            SectorSpec::new(24, Some(12), chain_group(24, 0, Some(0), Some(0)).unwrap()),
        ),
        ("chain24_k1", SectorSpec::new(24, Some(12), chain_group(24, 1, None, None).unwrap())),
        ("square6x4", SectorSpec::new(24, Some(12), square)),
    ]
    .map(|(name, sector)| (name, sector.unwrap()))
}

#[test]
fn symmetrized_enumeration_bit_identical() {
    // (dimension, FNV of the states, FNV of the orbit sizes), all
    // order-sensitive, through the shared-memory build and a prime chunk
    // count of the chunked enumeration.
    let pins = [
        (28_968, 0x515528f114dad95b, 0xe1713bd70b49e3e5),
        (112_632, 0xb1022bebe887122a, 0x78974fd654a57225),
        (56_406, 0x8d1a58c0bf645094, 0x47cf26a5f009e91d),
    ];
    for ((name, sector), (dim, states, orbits)) in symmetrized_sectors().into_iter().zip(pins) {
        let chunk = exact_diag::basis::enumerate::enumerate_par(&sector, 37);
        let basis = SpinBasis::build(sector);
        for (how, s, o) in [
            ("build", basis.states(), basis.orbit_sizes()),
            ("enumerate_par", &chunk.states[..], &chunk.orbit_sizes[..]),
        ] {
            let (hs, ho) = (fnv1a(s.iter().copied()), fnv1a(o.iter().map(|&o| o as u64)));
            assert_eq!((s.len(), hs, ho), (dim, states, orbits), "{name} through {how}");
        }
    }
}
