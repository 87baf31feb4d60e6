//! Orbit representatives, characters and norms.
//!
//! The symmetry-adapted basis vector built on representative `r` is
//! `|r̃⟩ = P|r⟩ / √n_r` with `P = (1/|G|) Σ_g χ(g)* U_g` and
//! `n_r = ⟨r|P|r⟩ = |Stab(r)| / |G|` — non-zero exactly when the character
//! is trivial on the stabilizer. Everything a matrix-vector product needs
//! about an arbitrary bitstring `s` is collected in one `O(|G|)` pass by
//! [`state_info`].

use ls_kernels::Complex64;
use ls_symmetry::SymmetryGroup;

/// The result of resolving a raw bitstring against a symmetry group.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StateInfo {
    /// The orbit minimum (the canonical representative).
    pub representative: u64,
    /// `χ(g)*` for (any) `g` mapping `s` to the representative. When the
    /// orbit carries zero norm this value is meaningless.
    pub phase: Complex64,
    /// Orbit size `|G| / |Stab(s)|`.
    pub orbit_size: u32,
    /// `false` when the character is non-trivial on the stabilizer, i.e.
    /// the orbit does not support a state in this sector (`P|s⟩ = 0`).
    pub valid: bool,
}

/// Resolves `s`: finds its representative, the phase connecting `s` to it,
/// the orbit size and the norm-validity flag, in one pass over the group.
pub fn state_info(group: &SymmetryGroup, s: u64) -> StateInfo {
    let mut rep = s;
    let mut phase_exact = ls_symmetry::RationalPhase::ZERO;
    let mut stab = 0u32;
    let mut valid = true;
    for el in group.elements() {
        let t = el.apply(s);
        if t < rep {
            rep = t;
            phase_exact = el.phase();
        } else if t == s {
            stab += 1;
            if !el.phase().is_one() {
                valid = false;
            }
        }
    }
    // A state is always stabilized at least by the identity.
    debug_assert!(stab >= 1);
    StateInfo {
        representative: rep,
        // χ(g)^* of the minimizing element.
        phase: phase_exact.conj().to_c64(),
        orbit_size: group.order() as u32 / stab,
        valid,
    }
}

/// SoA results of resolving a *block* of raw bitstrings against a
/// symmetry group — the batched `state_info`, and the oracle of the
/// differential walk the matvec engines run (`GroupWalk`).
///
/// All vectors are aligned with the input block and are caller-owned
/// scratch: [`state_info_batch`] clears and refills them, so a reused
/// `StateInfoBatch` performs no allocations in steady state.
#[derive(Clone, Debug, Default)]
pub struct StateInfoBatch {
    /// Orbit minima (canonical representatives).
    pub representatives: Vec<u64>,
    /// `χ(g)*` of (any) element mapping the input to its representative;
    /// meaningless where `valid` is `false`.
    pub phases: Vec<Complex64>,
    /// Orbit sizes `|G| / |Stab(s)|`.
    pub orbit_sizes: Vec<u32>,
    /// `false` where the character is non-trivial on the stabilizer.
    pub valid: Vec<bool>,
    /// Stabilizer counts (internal accumulator for `orbit_sizes`).
    stab: Vec<u32>,
}

impl StateInfoBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resolved states in the current block.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }
}

/// Resolves a block of states in one pass over the group, with the
/// group-element-outer / state-inner loop order: each element's compiled
/// permutation network is loaded once and applied to the whole block, so
/// the per-state work is a handful of register operations and the block's
/// independent updates can overlap in the pipeline. Produces exactly the
/// same values as [`state_info`] applied elementwise (same element
/// iteration order, same minimization), bit for bit.
pub fn state_info_batch(group: &SymmetryGroup, states: &[u64], out: &mut StateInfoBatch) {
    let n = states.len();
    out.representatives.clear();
    out.representatives.extend_from_slice(states);
    out.phases.clear();
    out.phases.resize(n, ls_symmetry::RationalPhase::ZERO.conj().to_c64());
    out.stab.clear();
    out.stab.resize(n, 0);
    out.valid.clear();
    out.valid.resize(n, true);
    for el in group.elements() {
        // Hoisted per-element constants: the scalar path re-derives the
        // character of the minimizing element per call; here the (exact →
        // f64) conversion happens once per element per block.
        let phase_conj = el.phase().conj().to_c64();
        let stabilizer_ok = el.phase().is_one();
        for (i, &s) in states.iter().enumerate() {
            let t = el.apply(s);
            if t < out.representatives[i] {
                out.representatives[i] = t;
                out.phases[i] = phase_conj;
            } else if t == s {
                out.stab[i] += 1;
                out.valid[i] = out.valid[i] && stabilizer_ok;
            }
        }
    }
    let order = group.order() as u32;
    out.orbit_sizes.clear();
    out.orbit_sizes.extend(out.stab.iter().map(|&stab| {
        // Every state is stabilized at least by the identity.
        debug_assert!(stab >= 1);
        order / stab
    }));
}

/// Words of orbit images one tile of source rows may occupy (24 KiB): the
/// tile and the `|G| × masks` table stay cache-resident between the pass
/// that writes the images and the loop that reads them, and a worker's
/// image scratch does not grow with the block length (a 1024-row block at
/// `|G| = 96` would hold 768 KiB). Measured flat from 6 KiB to 768 KiB on
/// the 24-site chain, so this is a bound, not a tuned value.
const IMAGE_TILE_WORDS: usize = 3072;

/// The tables of the *differential* group walk, the form of
/// [`state_info`] the block `getRow` runs.
///
/// A group element is a bit permutation plus an optional global flip, so
/// it is affine over GF(2): `g(α ⊕ m) = g(α) ⊕ π_g(m)`. Every emission of
/// a source row `α` is `α ⊕ m` for one of the operator's few channel flip
/// masks `m`, so the Benes networks run once per *row* — and once per
/// distinct site permutation, since elements that differ by the global
/// flip share it ([`Self::orbit_images`]) — and the `|G|` images of each
/// emission are one XOR against the precomputed `|G| × masks` words of
/// `π_g(m)` ([`Self::resolve`]). [`state_info`] and [`state_info_batch`]
/// are the oracle: the element order and the update rule are theirs, so
/// every result is equal bit for bit.
#[derive(Clone, Debug)]
pub(crate) struct GroupWalk {
    order: usize,
    /// Per element, the earlier element carrying the same site
    /// permutation (its own index when it is the first: that one runs the
    /// network) …
    network: Vec<u32>,
    /// … and what turns that element's image into this one's: the
    /// element's own flip mask on a network element, the XOR of the two
    /// flip masks on a sharing one.
    xor: Vec<u64>,
    /// `permuted[mask · |G| + g] = π_g(mask)`.
    permuted: Vec<u64>,
    /// Is the element's character 1? (A stabilizing element with any
    /// other character gives the orbit zero norm.)
    stabilizer_ok: Vec<bool>,
    /// `χ(g)*` per element, and in slot `|G|` the phase [`state_info`]
    /// starts from, for a state that is its own orbit minimum.
    phase_conj: Vec<Complex64>,
}

impl GroupWalk {
    /// Tables for `group` and the distinct channel flip `masks`.
    pub(crate) fn new(group: &SymmetryGroup, masks: &[u64]) -> Self {
        let elements = group.elements();
        let mut first = std::collections::HashMap::new();
        let mut network = Vec::with_capacity(elements.len());
        let mut xor = Vec::with_capacity(elements.len());
        for (g, el) in elements.iter().enumerate() {
            // `π(0) = 0`, so the image of the empty word is the flip mask.
            let flip_mask = el.apply(0);
            let h = *first.entry(el.permutation().as_slice()).or_insert(g);
            network.push(h as u32);
            xor.push(if h == g { flip_mask } else { flip_mask ^ elements[h].apply(0) });
        }
        let permuted = masks
            .iter()
            .flat_map(|&m| elements.iter().map(move |el| el.apply_permutation(m)))
            .collect();
        let mut phase_conj: Vec<Complex64> =
            elements.iter().map(|el| el.phase().conj().to_c64()).collect();
        phase_conj.push(ls_symmetry::RationalPhase::ZERO.conj().to_c64());
        Self {
            order: elements.len(),
            network,
            xor,
            permuted,
            stabilizer_ok: elements.iter().map(|el| el.phase().is_one()).collect(),
            phase_conj,
        }
    }

    /// Benes networks one source row costs: the distinct site
    /// permutations of the group.
    #[cfg(test)]
    pub(crate) fn n_networks(&self) -> usize {
        self.network.iter().enumerate().filter(|&(g, &h)| h as usize == g).count()
    }

    /// Source rows per tile of [`Self::orbit_images`], from `|G|` alone.
    pub(crate) fn tile_rows(&self) -> usize {
        (IMAGE_TILE_WORDS / self.order).max(1)
    }

    /// `images[row · |G| + g] = el_g.apply(states[row])`, group-element-outer
    /// like [`state_info_batch`]: each compiled network is loaded once
    /// and applied to the whole tile.
    pub(crate) fn orbit_images(
        &self,
        group: &SymmetryGroup,
        states: &[u64],
        images: &mut Vec<u64>,
    ) {
        let order = self.order;
        // Every slot is overwritten below; a tile of the usual length
        // costs no fill.
        images.resize(states.len() * order, 0);
        for (g, el) in group.elements().iter().enumerate() {
            let (h, xor) = (self.network[g] as usize, self.xor[g]);
            if h == g {
                for (row, &alpha) in images.chunks_exact_mut(order).zip(states) {
                    row[g] = el.apply_permutation(alpha) ^ xor;
                }
            } else {
                for row in images.chunks_exact_mut(order) {
                    row[g] = row[h] ^ xor;
                }
            }
        }
    }

    /// [`state_info`] of the emission `raw = α ⊕ masks[mask]`, from the
    /// `|G|` orbit `images` of its source row `α`.
    #[inline]
    pub(crate) fn resolve(&self, images: &[u64], mask: usize, raw: u64) -> StateInfo {
        let order = self.order;
        let images = &images[..order];
        let permuted = &self.permuted[mask * order..][..order];
        let stabilizer_ok = &self.stabilizer_ok[..order];
        let mut rep = raw;
        let mut winner = order;
        let mut stab = 0u32;
        let mut valid = true;
        for g in 0..order {
            let t = images[g] ^ permuted[g];
            if t < rep {
                rep = t;
                winner = g;
            } else if t == raw {
                stab += 1;
                valid &= stabilizer_ok[g];
            }
        }
        // A state is always stabilized at least by the identity.
        debug_assert!(stab >= 1);
        StateInfo {
            representative: rep,
            phase: self.phase_conj[winner],
            orbit_size: order as u32 / stab,
            valid,
        }
    }
}

/// Is `s` a valid representative? Returns its orbit size if so.
///
/// `s` must be the minimum of its orbit *and* carry non-zero norm. This is
/// the filter applied during basis enumeration (paper Sec. 5.2).
pub fn is_representative(group: &SymmetryGroup, s: u64) -> Option<u32> {
    let mut stab = 0u32;
    for el in group.elements() {
        let t = el.apply(s);
        if t < s {
            return None;
        }
        if t == s {
            if !el.phase().is_one() {
                return None;
            }
            stab += 1;
        }
    }
    Some(group.order() as u32 / stab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_symmetry::lattice;
    use ls_symmetry::{Generator, SymmetryGroup};

    fn translation_group(n: usize, k: i64) -> SymmetryGroup {
        SymmetryGroup::generate(&[Generator::new(lattice::chain_translation(n), k)]).unwrap()
    }

    #[test]
    fn trivial_group_everything_is_rep() {
        let g = SymmetryGroup::trivial(6);
        for s in 0..64u64 {
            let info = state_info(&g, s);
            assert_eq!(info.representative, s);
            assert_eq!(info.orbit_size, 1);
            assert!(info.valid);
            assert_eq!(is_representative(&g, s), Some(1));
        }
    }

    #[test]
    fn translation_orbits() {
        let g = translation_group(4, 0);
        // Orbit of 0b0001: {0001, 0010, 0100, 1000}; rep = 0b0001.
        let info = state_info(&g, 0b0100);
        assert_eq!(info.representative, 0b0001);
        assert_eq!(info.orbit_size, 4);
        assert!(info.valid);
        assert_eq!(is_representative(&g, 0b0001), Some(4));
        assert_eq!(is_representative(&g, 0b0010), None);
        // 0b0101 has a 2-element orbit (stabilized by T²).
        let info = state_info(&g, 0b0101);
        assert_eq!(info.representative, 0b0101);
        assert_eq!(info.orbit_size, 2);
        assert!(info.valid);
    }

    #[test]
    fn zero_norm_orbit_detected() {
        // k = 1 on a 4-ring: 0b0101 is stabilized by T² with character
        // χ(T²) = exp(-2πi·2/4) = -1 ≠ 1 → zero norm.
        let g = translation_group(4, 1);
        let info = state_info(&g, 0b0101);
        assert!(!info.valid);
        assert_eq!(is_representative(&g, 0b0101), None);
        // While 0b0011 (orbit size 4) is fine in any sector.
        assert_eq!(is_representative(&g, 0b0011), Some(4));
    }

    #[test]
    fn phase_of_mapping_element() {
        // k = 1 on a 4-ring. T|s⟩: site i -> i+1, i.e. rotate left.
        // s = 0b0010 is T applied to 0b0001, so the element mapping s back
        // to the rep 0b0001 is T³ (rotating left 3 more times), with
        // χ(T³) = exp(-2πi·3/4); the stored phase is its conjugate.
        let g = translation_group(4, 1);
        let info = state_info(&g, 0b0010);
        assert_eq!(info.representative, 0b0001);
        let expect = Complex64::cis(-std::f64::consts::TAU * 3.0 / 4.0).conj();
        assert!(info.phase.approx_eq(expect, 1e-12), "{:?}", info.phase);
    }

    #[test]
    fn representative_counts_match_burnside() {
        // # of valid representatives must equal the Burnside dimension.
        for n in [6usize, 8, 10] {
            for k in [0i64, 1, n as i64 / 2] {
                let g = translation_group(n, k);
                let dim = ls_symmetry::count::sector_dimension(&g, None);
                let count = (0..(1u64 << n))
                    .filter(|&s| is_representative(&g, s).is_some())
                    .count() as u64;
                assert_eq!(count, dim, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn representative_counts_with_inversion_and_reflection() {
        for n in [6usize, 8] {
            let g = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
            let w = n as u32 / 2;
            let dim = ls_symmetry::count::sector_dimension(&g, Some(w));
            let count = (0..(1u64 << n))
                .filter(|&s| s.count_ones() == w)
                .filter(|&s| is_representative(&g, s).is_some())
                .count() as u64;
            assert_eq!(count, dim, "n={n}");
        }
    }

    #[test]
    fn batch_matches_scalar_state_info() {
        let groups = [
            SymmetryGroup::trivial(8),
            translation_group(8, 0),
            translation_group(8, 3),
            lattice::chain_group(8, 4, Some(1), Some(0)).unwrap(),
        ];
        for g in &groups {
            // All 256 states in blocks of 37 (misaligned on purpose).
            let states: Vec<u64> = (0..(1u64 << 8)).collect();
            let mut batch = StateInfoBatch::new();
            for chunk in states.chunks(37) {
                state_info_batch(g, chunk, &mut batch);
                assert_eq!(batch.len(), chunk.len());
                for (i, &s) in chunk.iter().enumerate() {
                    let scalar = state_info(g, s);
                    assert_eq!(batch.representatives[i], scalar.representative);
                    assert_eq!(batch.orbit_sizes[i], scalar.orbit_size);
                    assert_eq!(batch.valid[i], scalar.valid);
                    if scalar.valid {
                        // Bit-exact, not approximate: same element order,
                        // same conversion.
                        assert_eq!(batch.phases[i], scalar.phase, "state {s:#b}");
                    }
                }
            }
            // Scratch reuse across blocks of different sizes.
            state_info_batch(g, &[], &mut batch);
            assert!(batch.is_empty());
        }
    }

    #[test]
    fn info_consistent_with_is_representative() {
        let g = lattice::chain_group(8, 4, None, None).unwrap();
        for s in 0..(1u64 << 8) {
            let info = state_info(&g, s);
            let rep_check = is_representative(&g, s);
            if s == info.representative && info.valid {
                assert_eq!(rep_check, Some(info.orbit_size));
            } else {
                assert_eq!(rep_check, None);
            }
        }
    }
}
