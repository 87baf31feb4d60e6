//! Orbit representatives, characters and norms.
//!
//! The symmetry-adapted basis vector built on representative `r` is
//! `|r̃⟩ = P|r⟩ / √n_r` with `P = (1/|G|) Σ_g χ(g)* U_g` and
//! `n_r = ⟨r|P|r⟩ = |Stab(r)| / |G|` — non-zero exactly when the character
//! is trivial on the stabilizer. Everything a matrix-vector product needs
//! about an arbitrary bitstring `s` is collected in one `O(|G|)` pass by
//! [`state_info`].
//!
//! The engines resolve their emissions with the *differential* group walk
//! (`GroupWalk`): a source row's orbit images are computed once per row,
//! written a row at a time into *lanes*, and an emission's orbit minimum
//! and stabilizer come out of one branch-free sweep over them, held in the
//! narrowest word (`u32` or `u64`) that holds the sector's basis words. A
//! lane is a group element, or, where the group holds the spin flip with
//! every character 1, a site permutation whose two elements the sweep
//! takes at once (the *fold*). [`state_info`] and [`state_info_batch`] are
//! its oracle, bit for bit.
//!
//! The walk and the enumeration filter (`RepFilter`) apply a site
//! permutation as a rotation of the word wherever it is one
//! (`rotation_bases`): a ring's translations rotate the word, and each of
//! its reflections is a rotation of one reflected image, so a Beneš network
//! runs only per *base* permutation and every other image is a shift pair
//! and a mask — in the walk, a shift pair of each lane's own, which the
//! x86-64-v3 baseline's variable shifts vectorize.

use ls_kernels::bits::{low_mask, rotate_low_bits};
use ls_kernels::net::{delta_swap, DELTAS, STAGES};
use ls_kernels::Complex64;
use ls_symmetry::SymmetryGroup;
use std::ops::{BitAnd, BitOr, BitXor, Shl, Shr};

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

/// Sets a tile of source rows to `IMAGE_TILE_WORDS / |G|` rows (32 on the
/// 24-site chain): the length of the uniform loops that run a base's
/// Beneš network over the tile, one row a vector lane. A tile holds one
/// image of each base per row, at most as many words as this, and the
/// orbit images of the one row being resolved, so a worker's scratch does
/// not grow with the block length. On 2 vCPUs, with a tile of every
/// image, a walk over the 24-site chain's 28 968 rows read 10.6–10.9 ms
/// (the minimum of 25) at 3 072, 12 288 and 49 152 words, and 19.5 ms at
/// 768, where a tile held 8 rows: a floor on the loops' length, not a
/// tuned value.
const IMAGE_TILE_WORDS: usize = 3072;

/// The word a [`GroupWalk`] holds its images and permuted masks in: `u32`
/// where every basis word of the sector fits 32 bits, `u64` otherwise
/// ([`SectorWalk`]). A narrow word puts twice the lanes in a vector
/// register: under the x86-64-v3 baseline, 8 in an AVX2 register, whose
/// variable shifts (`vpsllvd` / `vpsrlvd`) rotate each lane by its own
/// count in [`GroupWalk::orbit_images`], and whose unsigned minimum
/// (`vpminud`) the sweep of [`GroupWalk::resolve`] vectorizes to.
pub(crate) trait WalkWord:
    Copy
    + Ord
    + Default
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + Shl<Self, Output = Self>
    + Shr<Self, Output = Self>
{
    /// Stage pairs at each end of a 64-bit Benes network that are zero in
    /// every network of a permutation this word holds: the shift-32 pair
    /// for `u32` (the routing leaves the upper half of the word alone).
    const OUTER_STAGES: usize;
    /// `word`, which fits.
    fn narrow(word: u64) -> Self;
    fn widen(self) -> u64;
}

impl WalkWord for u32 {
    const OUTER_STAGES: usize = 1;
    #[inline(always)]
    fn narrow(word: u64) -> Self {
        word as u32
    }
    #[inline(always)]
    fn widen(self) -> u64 {
        self as u64
    }
}

impl WalkWord for u64 {
    const OUTER_STAGES: usize = 0;
    #[inline(always)]
    fn narrow(word: u64) -> Self {
        word
    }
    #[inline(always)]
    fn widen(self) -> u64 {
        self
    }
}

/// A group's distinct site permutations, each written `π = rot_t ∘ β`
/// ([`rotation_bases`]).
struct RotationBases {
    /// Per element, the index of its site permutation.
    permutation_of: Vec<usize>,
    /// Per distinct site permutation, in the order of the first element
    /// carrying it (the identity first): `(b, t)`, its base `bases[b]` and
    /// its rotation `t`, which is 0 on the base itself and only there.
    decomposed: Vec<(usize, u32)>,
    /// Per base, the identity first: the index of its permutation and its
    /// Beneš network's stage masks (all zero on the identity).
    bases: Vec<(usize, [u64; STAGES])>,
}

/// Writes each distinct site permutation of `group` as `π = rot_t ∘ β`
/// on basis words of `bits` bits. `rot_t` rotates the word by `t` bits
/// (bit `i` to bit `(i + t) mod bits`), and `β` is a *base*: the identity,
/// or a permutation that is no rotation of an earlier base.
///
/// The decomposition is found on unit vectors, `π(1 << i) ==
/// rot_t(β(1 << i))` for every bit `i < bits`. Both sides are linear, so
/// it holds on every word of `bits` bits, whatever the group, the site
/// numbering or the code. A ring's translations are rotations of the
/// identity and its reflections rotations of one reflected image; a group
/// without the structure makes every permutation its own base. The one
/// derivation [`GroupWalk`] and [`RepFilter`] take their networks from.
fn rotation_bases(group: &SymmetryGroup, bits: u32) -> RotationBases {
    let elements = group.elements();
    assert!(elements[0].permutation().is_identity(), "a group lists the identity first");
    debug_assert!(bits as usize >= group.n_sites() && bits <= u64::BITS);
    let mut first = std::collections::HashMap::new();
    let mut out = RotationBases {
        permutation_of: Vec::with_capacity(elements.len()),
        decomposed: Vec::new(),
        bases: Vec::new(),
    };
    // Each base's images of the unit vectors.
    let mut units: Vec<Vec<u64>> = Vec::new();
    for el in elements {
        let next = out.decomposed.len();
        let j = *first.entry(el.permutation().as_slice()).or_insert(next);
        out.permutation_of.push(j);
        if j < next {
            continue;
        }
        let image: Vec<u64> = (0..bits).map(|i| el.apply_permutation(1 << i)).collect();
        let rotation = units.iter().enumerate().find_map(|(b, base)| {
            let t = (image[0].trailing_zeros() + bits - base[0].trailing_zeros()) % bits;
            let rotated =
                image.iter().zip(base).all(|(&u, &v)| u == rotate_low_bits(v, bits, t));
            rotated.then_some((b, t))
        });
        out.decomposed.push(rotation.unwrap_or_else(|| {
            units.push(image);
            out.bases.push((j, *el.network().masks()));
            (out.bases.len() - 1, 0)
        }));
    }
    out
}

/// The tables of the *differential* group walk, the form of
/// [`state_info`] the block `getRow` runs, in the lane word `W`.
///
/// A group element is a bit permutation plus an optional global flip, so
/// it is affine over GF(2): `g(α ⊕ m) = g(α) ⊕ π_g(m)`. Every emission of
/// a source row `α` is `α ⊕ m` for one of the operator's few channel flip
/// masks `m`, so the permutations run once per *row*: a Beneš network per
/// base of [`rotation_bases`] over a tile of rows ([`Self::base_images`]),
/// then each row's *lanes* rotate their base's image, with per-lane shift
/// counts and flips ([`Self::orbit_images`]). A lane is a group element,
/// or, where the walk *folds*, a site permutation and the two elements
/// that carry it. An emission's images are one XOR per lane against the
/// precomputed `lanes × masks` words of `π(m)`, taken in one branch-free
/// sweep ([`Self::resolve`]). [`state_info`] and [`state_info_batch`] are
/// the oracle: every result is equal bit for bit.
#[derive(Clone, Debug)]
pub(crate) struct GroupWalk<W> {
    order: usize,
    /// Per base, the identity first: its lanes and its network's stage
    /// masks in the word (all zero on the identity, which runs none).
    bases: Vec<(std::ops::Range<usize>, [W; STAGES])>,
    /// The basis words' mask.
    low: W,
    /// Per lane, grouped by base: the rotation `t` as a left shift …
    left: Vec<W>,
    /// … and the right shift `(bits − t) % bits` …
    right: Vec<W>,
    /// … and the flip mask of its element.
    flip: Vec<W>,
    /// The global flip `f` where the walk folds (the group holds it, every
    /// element's flip is 0 or `f`, every character is 1), else 0.
    fold: W,
    /// Per lane, the index of its element in the group.
    element: Vec<u32>,
    /// `permuted[mask · lanes + lane] = π_lane(mask)`.
    permuted: Vec<W>,
    /// Is every character 1? Then every orbit has non-zero norm and every
    /// phase is 1, and [`Self::resolve`] is its sweep alone.
    characters_one: bool,
    /// Per lane, 1 where its character is 1 and 0 elsewhere: `t = raw`
    /// on a 0 (a stabilizing element with another character) gives the
    /// orbit zero norm.
    character_one: Vec<W>,
    /// `χ(g)*` per element, and in slot `|G|` the phase [`state_info`]
    /// starts from, for a state that is its own orbit minimum.
    phase_conj: Vec<Complex64>,
}

/// The per-tile scratch of one [`GroupWalk`].
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkTile<W> {
    /// `bases[b · tile rows + row] = β_b(states[row])`, base-major, in the
    /// lane word; base 0, the identity's, is the rows narrowed once.
    bases: Vec<W>,
    /// The orbit images of the row being resolved, one per lane.
    images: Vec<W>,
}

impl<W: WalkWord> GroupWalk<W> {
    /// Tables for `group`, the distinct channel flip `masks` and basis
    /// words of `bits` bits, all of which must fit `W`.
    fn new(group: &SymmetryGroup, masks: &[u64], bits: u32) -> Self {
        let elements = group.elements();
        let order = elements.len();
        let rotations = rotation_bases(group, bits);
        let characters_one = elements.iter().all(|el| el.phase().is_one());
        // `π(0) = 0`, so the image of the empty word is the flip mask.
        let flip_of = |g: usize| elements[g].apply(0);
        let global = (1..order).find(|&g| rotations.permutation_of[g] == 0).map(flip_of);
        let folds = |f: u64| characters_one && (0..order).all(|g| [0, f].contains(&flip_of(g)));
        let fold = global.filter(|&f| folds(f)).unwrap_or(0);
        // The lanes: every element, or under the fold the one element of
        // each permutation that does not flip; grouped by base, in element
        // order.
        let mut lanes: Vec<usize> =
            (0..order).filter(|&g| fold == 0 || flip_of(g) == 0).collect();
        let decomposed = |g: usize| rotations.decomposed[rotations.permutation_of[g]];
        lanes.sort_by_key(|&g| decomposed(g).0);
        let outer = W::OUTER_STAGES;
        let bases = rotations
            .bases
            .iter()
            .enumerate()
            .map(|(b, &(_, wide))| {
                let fits = wide.iter().enumerate().all(|(s, &m)| {
                    let inside = (outer..STAGES - outer).contains(&s);
                    if inside {
                        W::narrow(m).widen() == m
                    } else {
                        m == 0
                    }
                });
                assert!(fits, "a network outside the walk's word");
                let first = lanes.partition_point(|&g| decomposed(g).0 < b);
                (first..lanes.partition_point(|&g| decomposed(g).0 <= b), wide.map(W::narrow))
            })
            .collect();
        let shift = |t: u32| W::narrow(u64::from(t % bits));
        let permuted = masks
            .iter()
            .flat_map(|&m| {
                lanes.iter().map(move |&g| W::narrow(elements[g].apply_permutation(m)))
            })
            .collect();
        let mut phase_conj: Vec<Complex64> =
            elements.iter().map(|el| el.phase().conj().to_c64()).collect();
        phase_conj.push(ls_symmetry::RationalPhase::ZERO.conj().to_c64());
        Self {
            order,
            bases,
            low: W::narrow(low_mask(bits)),
            left: lanes.iter().map(|&g| shift(decomposed(g).1)).collect(),
            right: lanes.iter().map(|&g| shift(bits - decomposed(g).1)).collect(),
            flip: lanes.iter().map(|&g| W::narrow(flip_of(g))).collect(),
            fold: W::narrow(fold),
            element: lanes.iter().map(|&g| g as u32).collect(),
            permuted,
            characters_one,
            character_one: lanes
                .iter()
                .map(|&g| W::narrow(elements[g].phase().is_one() as u64))
                .collect(),
            phase_conj,
        }
    }

    /// The bases of [`rotation_bases`], the identity's included, and the
    /// lanes of a row: `|G|`, or `|G| / 2` under the fold.
    #[cfg(test)]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.bases.len(), self.flip.len())
    }

    /// Source rows per tile of [`Self::base_images`], from `|G|` alone.
    pub(crate) fn tile_rows(&self) -> usize {
        (IMAGE_TILE_WORDS / self.order).max(1)
    }

    /// Fills the base images of `states`, at most [`Self::tile_rows`] of
    /// them, base-outer: each base loads its stage masks once and runs its
    /// network on the whole tile, one row a lane, the stages inside the
    /// word only.
    pub(crate) fn base_images(&self, states: &[u64], tile: &mut WalkTile<W>) {
        let (rows, n) = (self.tile_rows(), states.len());
        debug_assert!(n <= rows);
        // Every image read below is written first; a tile of the usual
        // length costs no fill.
        tile.bases.resize(self.bases.len() * rows, W::default());
        tile.images.resize(self.flip.len(), W::default());
        let (identity, others) = tile.bases.split_at_mut(rows);
        for (out, &alpha) in identity.iter_mut().zip(states) {
            *out = W::narrow(alpha);
        }
        for ((_, masks), out) in self.bases[1..].iter().zip(others.chunks_exact_mut(rows)) {
            for (out, &alpha) in out[..n].iter_mut().zip(&identity[..n]) {
                let stages = W::OUTER_STAGES..STAGES - W::OUTER_STAGES;
                *out = stages.fold(alpha, |x, s| delta_swap(x, masks[s], DELTAS[s]));
            }
        }
    }

    /// The orbit images of row `row` of the tile [`Self::base_images`]
    /// filled, one per lane: each lane rotates its base's image by its own
    /// shift pair and applies its flip, `((x << l) | (x >> r)) & low ^
    /// flip`, a row at a time in vector registers.
    #[inline(always)]
    pub(crate) fn orbit_images<'t>(&self, tile: &'t mut WalkTile<W>, row: usize) -> &'t [W] {
        let (rows, low) = (self.tile_rows(), self.low);
        for (b, (lanes, _)) in self.bases.iter().enumerate() {
            let x = tile.bases[b * rows + row];
            let shifts = self.left[lanes.clone()].iter().zip(&self.right[lanes.clone()]);
            let images = tile.images[lanes.clone()].iter_mut().zip(&self.flip[lanes.clone()]);
            for ((image, &flip), (&l, &r)) in images.zip(shifts) {
                *image = (((x << l) | (x >> r)) & low) ^ flip;
            }
        }
        &tile.images
    }

    /// [`state_info`] of the emission `raw = α ⊕ masks[mask]`, from the
    /// orbit `images` of its source row `α`.
    ///
    /// One sweep over the lanes' `t = images[lane] ^ permuted[lane]` takes
    /// the minimum of `u = min(t, t ^ fold)` and counts `u = min(raw, raw ^
    /// fold)`, the stabilizer, with no branch, so it vectorizes. Under the
    /// fold a lane's two elements map `raw` to `t` and `t ^ fold`, and `u`
    /// equals that minimum only when one of them is `raw`; elsewhere `fold`
    /// is 0 and `u = t`. Only a group with a character other than 1 goes
    /// on (it never folds): a second branch-free sweep looks for a
    /// stabilizing element whose character is not 1, and when `raw` is not
    /// its own minimum a third takes the smallest element index among the
    /// lanes with `t = rep` — the element whose character [`state_info`]'s
    /// running minimum keeps.
    #[inline(always)]
    pub(crate) fn resolve(&self, images: &[W], mask: usize, raw: u64) -> StateInfo {
        let lanes = self.flip.len();
        let images = &images[..lanes];
        let permuted = &self.permuted[mask * lanes..][..lanes];
        let (raw_word, fold) = (W::narrow(raw), self.fold);
        let own = raw_word.min(raw_word ^ fold);
        let (mut rep, mut stab) = (raw_word, 0u32);
        for (&image, &p) in images.iter().zip(permuted) {
            let t = image ^ p;
            let u = t.min(t ^ fold);
            rep = rep.min(u);
            stab += (u == own) as u32;
        }
        // A state is always stabilized at least by the identity.
        debug_assert!(stab >= 1);
        let (mut valid, mut winner) = (true, self.order);
        if !self.characters_one {
            let orbit = images.iter().zip(permuted).map(|(&image, &p)| image ^ p);
            let zero_norm = orbit
                .clone()
                .zip(&self.character_one)
                .fold(0u32, |n, (t, &one)| n + (((t ^ raw_word) | one) == W::default()) as u32);
            valid = zero_norm == 0;
            if rep < raw_word {
                let none = self.order as u32;
                let first = |w: u32, (t, &g): (W, &u32)| w.min(if t == rep { g } else { none });
                winner = orbit.zip(&self.element).fold(none, first) as usize;
            }
        }
        StateInfo {
            representative: rep.widen(),
            phase: self.phase_conj[winner],
            orbit_size: self.order as u32 / stab,
            valid,
        }
    }
}

/// The group walk of one operator, in the narrowest word that holds the
/// sector's basis words, chosen once when the operator is bound.
#[derive(Clone, Debug)]
pub(crate) enum SectorWalk {
    /// Basis words of at most 32 bits.
    Narrow(GroupWalk<u32>),
    Wide(GroupWalk<u64>),
}

impl SectorWalk {
    /// Tables for `group`, the distinct channel flip `masks` and basis
    /// words of `code_bits` bits.
    pub(crate) fn new(group: &SymmetryGroup, masks: &[u64], code_bits: u32) -> Self {
        if code_bits <= u32::BITS {
            Self::Narrow(GroupWalk::new(group, masks, code_bits))
        } else {
            Self::Wide(GroupWalk::new(group, masks, code_bits))
        }
    }

    #[cfg(test)]
    pub(crate) fn is_narrow(&self) -> bool {
        matches!(self, Self::Narrow(_))
    }

    pub(crate) fn tile_rows(&self) -> usize {
        match self {
            Self::Narrow(walk) => walk.tile_rows(),
            Self::Wide(walk) => walk.tile_rows(),
        }
    }

    #[cfg(test)]
    pub(crate) fn shape(&self) -> (usize, usize) {
        match self {
            Self::Narrow(walk) => walk.shape(),
            Self::Wide(walk) => walk.shape(),
        }
    }
}

/// Caller-owned scratch of the group walk
/// ([`crate::SymmetrizedOperator::generate_off_diag_block`]): the base
/// images of the current tile of source rows and the orbit images of the
/// row being resolved, in the walk's word. Reusing one across blocks keeps
/// the walk allocation-free.
#[derive(Clone, Debug, Default)]
pub struct WalkScratch {
    pub(crate) narrow: WalkTile<u32>,
    pub(crate) wide: WalkTile<u64>,
}

/// The candidate filter of basis enumeration (paper Sec. 4, Fig. 4): is
/// `s` the minimum of its orbit, with non-zero norm?
///
/// It walks the group's distinct site permutations, not its elements,
/// base by base ([`rotation_bases`]). Each base computes its image
/// `b = β(s)` once: the identity's is `s`, and any other runs its Beneš
/// network, only the stages inside the window that is non-zero in some
/// network of the group (on ≤ 32 sites the two shift-32 stages are zero in
/// all of them). Each permutation of the base rotates it, `p = rot_t(b)`,
/// and every element carrying the permutation tests `t = p ^ flip_mask`:
/// `t < s` rejects, and `t == s` counts toward the stabilizer and rejects
/// when the element's character is not 1. The elements carrying one
/// permutation are a coset of the group's pure flips, so there is one per
/// permutation, or two (flip partners) when the group holds the spin flip.
/// The identity comes first, so a ring's translations and the pure spin
/// flip test `s` before any network runs.
///
/// Whether `s` passes is a property of the whole element set, so it does
/// not depend on the order of the walk; [`state_info`] is the oracle
/// (`representative == s && valid`, and the same orbit size).
#[derive(Clone, Debug)]
pub(crate) struct RepFilter {
    order: u32,
    /// Per base, the identity first.
    bases: Vec<Base>,
    /// Per distinct site permutation, grouped by base, each base's own
    /// permutation first.
    permutations: Vec<Permutation>,
    /// The group's sites, the width of a rotation …
    bits: u32,
    /// … and their mask.
    low: u64,
    /// Does every permutation carry two elements, flip partners?
    partners: bool,
    /// Outermost stage pairs that are zero in every network.
    window: usize,
}

/// A base of [`RepFilter`]: its network and its permutations.
#[derive(Clone, Debug)]
struct Base {
    masks: [u64; STAGES],
    permutations: std::ops::Range<usize>,
}

/// A site permutation `rot_shift ∘ β` and the elements carrying it.
#[derive(Clone, Debug)]
struct Permutation {
    shift: u32,
    /// Flip masks: the element's, and its partner's when there is one …
    flips: [u64; 2],
    /// … and whether their characters are 1.
    character_one: [bool; 2],
}

impl Permutation {
    /// The stabilizer count the elements of this permutation add for `s`,
    /// given `p = π(s)`, or `None` when one of them rejects `s`.
    #[inline(always)]
    fn test<const PARTNERS: bool>(&self, p: u64, s: u64) -> Option<u32> {
        let mut stab = 0;
        for k in 0..1 + PARTNERS as usize {
            let t = p ^ self.flips[k];
            if t < s || (t == s && !self.character_one[k]) {
                return None;
            }
            stab += (t == s) as u32;
        }
        Some(stab)
    }
}

impl RepFilter {
    /// Derives the tables from the group's compiled elements.
    pub(crate) fn new(group: &SymmetryGroup) -> Self {
        let elements = group.elements();
        let bits = group.n_sites() as u32;
        let rotations = rotation_bases(group, bits);
        let decomposed = &rotations.decomposed;
        // Per permutation, the elements carrying it, the one without the
        // flip first (on the identity, the identity element).
        let mut carriers = vec![Vec::with_capacity(2); decomposed.len()];
        for (g, &j) in rotations.permutation_of.iter().enumerate() {
            carriers[j].push(g);
        }
        for carriers in &mut carriers {
            carriers.sort_by_key(|&g| elements[g].has_flip());
        }
        // Grouped by base, the base's own permutation (shift 0) first.
        let mut by_base: Vec<usize> = (0..decomposed.len()).collect();
        by_base.sort_by_key(|&j| decomposed[j]);
        let mut bases: Vec<Base> = rotations
            .bases
            .iter()
            .map(|&(_, masks)| Base { masks, permutations: 0..0 })
            .collect();
        let permutations = by_base
            .iter()
            .enumerate()
            .map(|(i, &j)| {
                let (b, shift) = decomposed[j];
                if shift == 0 {
                    bases[b].permutations.start = i;
                }
                bases[b].permutations.end = i + 1;
                let carriers = &carriers[j];
                let (own, partner) =
                    (&elements[carriers[0]], &elements[carriers[carriers.len() - 1]]);
                // `π(0) = 0`, so the image of the empty word is the flip mask.
                Permutation {
                    shift,
                    flips: [own.apply(0), partner.apply(0)],
                    character_one: [own.phase().is_one(), partner.phase().is_one()],
                }
            })
            .collect::<Vec<_>>();
        let outer_zero = bases.iter().all(|b| b.masks[0] == 0 && b.masks[STAGES - 1] == 0);
        Self {
            order: elements.len() as u32,
            partners: elements.len() == 2 * permutations.len(),
            bases,
            permutations,
            bits,
            low: low_mask(bits),
            window: outer_zero as usize,
        }
    }

    /// The orbit size of `s` if it is a valid representative, else `None`.
    #[inline]
    pub(crate) fn orbit_size(&self, s: u64) -> Option<u32> {
        match (self.window, self.partners) {
            (0, false) => self.walk::<0, false>(s),
            (0, true) => self.walk::<0, true>(s),
            (_, false) => self.walk::<1, false>(s),
            (_, true) => self.walk::<1, true>(s),
        }
    }

    #[inline(always)]
    fn walk<const WINDOW: usize, const PARTNERS: bool>(&self, s: u64) -> Option<u32> {
        let (identity, others) = self.bases.split_first().expect("a group holds the identity");
        let mut stab = self.test_base::<PARTNERS>(identity, s, s)?;
        for base in others {
            let stages = WINDOW..STAGES - WINDOW;
            let b = base.masks[stages.clone()]
                .iter()
                .zip(&DELTAS[stages])
                .fold(s, |p, (&mask, &shift)| delta_swap(p, mask, shift));
            stab += self.test_base::<PARTNERS>(base, b, s)?;
        }
        Some(self.order / stab)
    }

    /// The stabilizer count the permutations of `base` add for `s`, given
    /// its image `b = β(s)`, or `None` when one of their elements rejects
    /// `s`.
    #[inline(always)]
    fn test_base<const PARTNERS: bool>(&self, base: &Base, b: u64, s: u64) -> Option<u32> {
        let (own, rotations) = self.permutations[base.permutations.clone()]
            .split_first()
            .expect("a base carries its own permutation");
        let mut stab = own.test::<PARTNERS>(b, s)?;
        for permutation in rotations {
            let shift = permutation.shift;
            let p = ((b << shift) | (b >> (self.bits - shift))) & self.low;
            stab += permutation.test::<PARTNERS>(p, s)?;
        }
        Some(stab)
    }
}

/// The bonds and the translations (with the spin flip) of an `n`-site
/// ring (even `n`) numbered in a zigzag, ring position `p` at site `p / 2`,
/// or `n / 2 + p / 2` for odd `p`: no translation rotates the word, so
/// every permutation is its own base of [`rotation_bases`].
#[cfg(test)]
pub(crate) fn zigzag_ring(n: usize) -> (Vec<(usize, usize)>, SymmetryGroup) {
    use ls_symmetry::{lattice, Generator, SitePermutation};
    let site = |p: usize| p / 2 + (p % 2) * (n / 2);
    let bonds = lattice::chain_bonds(n).iter().map(|&(p, q)| (site(p), site(q))).collect();
    let mut map = vec![0; n];
    for p in 0..n {
        map[site(p)] = site((p + 1) % n);
    }
    let translation = SitePermutation::from_usize(&map).unwrap();
    let generators = [Generator::new(translation, 0), Generator::spin_inversion(n, 0)];
    (bonds, SymmetryGroup::generate(&generators).unwrap())
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
            assert_eq!(RepFilter::new(&g).orbit_size(s), Some(1));
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
        let filter = RepFilter::new(&g);
        assert_eq!(filter.orbit_size(0b0001), Some(4));
        assert_eq!(filter.orbit_size(0b0010), None);
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
        let filter = RepFilter::new(&g);
        assert_eq!(filter.orbit_size(0b0101), None);
        // While 0b0011 (orbit size 4) is fine in any sector.
        assert_eq!(filter.orbit_size(0b0011), Some(4));
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
                let filter = RepFilter::new(&g);
                let count =
                    (0..(1u64 << n)).filter(|&s| filter.orbit_size(s).is_some()).count() as u64;
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
            let filter = RepFilter::new(&g);
            let count = (0..(1u64 << n))
                .filter(|&s| s.count_ones() == w)
                .filter(|&s| filter.orbit_size(s).is_some())
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

    /// Every group the exhaustive oracle test covers on `n` sites: the
    /// full chain group (the flip with every character 1, which the group
    /// walk folds), k = n/2 with and without reflection (stabilizer
    /// characters of −1, so zero-norm orbits), k = 1 (complex characters),
    /// Z = −1, a translation carrying the flip at k = 1 and k = 0 (its
    /// elements carry flips, and on even `n` the flip is none of them), a
    /// square lattice where `n` factors into one, the trivial group, and on
    /// even `n` a ladder (rotations of two bases) and the zigzag ring
    /// (every permutation a base).
    fn oracle_groups(n: usize) -> Vec<(String, SymmetryGroup)> {
        let half = n as i64 / 2;
        // Reflection commutes with the translations only at k = π.
        let reflection = n.is_multiple_of(2).then_some(1);
        let mut groups = vec![
            ("chain".to_string(), lattice::chain_group(n, 0, Some(0), Some(0)).unwrap()),
            ("k = n/2".to_string(), lattice::chain_group(n, half, reflection, None).unwrap()),
            ("k = n/2, T only".to_string(), lattice::chain_group(n, half, None, None).unwrap()),
            ("k = 1".to_string(), lattice::chain_group(n, 1, None, None).unwrap()),
            ("z = -1".to_string(), lattice::chain_group(n, 0, Some(0), Some(1)).unwrap()),
            ("trivial".to_string(), SymmetryGroup::trivial(n)),
        ];
        for k in [1, 0] {
            let generator = Generator::with_flip(lattice::chain_translation(n), k);
            let group = SymmetryGroup::generate(&[generator]).unwrap();
            groups.push((format!("T with flip, k = {k}"), group));
        }
        if let Some(lx) =
            [4usize, 3].into_iter().find(|&lx| n.is_multiple_of(lx) && n / lx >= 2)
        {
            let ly = n / lx;
            let square = SymmetryGroup::generate(&[
                Generator::new(lattice::square_translation_x(lx, ly), 1),
                Generator::new(lattice::square_translation_y(lx, ly), 0),
                Generator::spin_inversion(n, 0),
            ])
            .unwrap();
            groups.push((format!("{lx} x {ly} square"), square));
        }
        if n.is_multiple_of(2) {
            let rungs = n / 2;
            let ladder = SymmetryGroup::generate(&[
                Generator::new(lattice::ladder_translation(rungs), 1),
                Generator::new(lattice::ladder_leg_swap(rungs), 1),
                Generator::spin_inversion(n, 0),
            ])
            .unwrap();
            groups.push((format!("{rungs}-rung ladder"), ladder));
            groups.push(("zigzag ring".to_string(), zigzag_ring(n).1));
        }
        groups
    }

    #[test]
    fn filter_agrees_with_state_info_on_every_state() {
        for n in 8..=12usize {
            for (name, g) in oracle_groups(n) {
                let filter = RepFilter::new(&g);
                let mut accepted = 0;
                for s in 0..(1u64 << n) {
                    let info = state_info(&g, s);
                    let expect =
                        (info.representative == s && info.valid).then_some(info.orbit_size);
                    assert_eq!(filter.orbit_size(s), expect, "{name}, n = {n}, s = {s:#b}");
                    accepted += expect.is_some() as u64;
                }
                let dim = ls_symmetry::count::sector_dimension(&g, None);
                assert_eq!(accepted, dim, "{name}, n = {n}");
            }
        }
        // Words of 32 and 64 bits, sampled: rotations by `t = 0` and by
        // `bits − t` across the whole word.
        for n in [32usize, 64] {
            for (name, g) in oracle_groups(n) {
                let filter = RepFilter::new(&g);
                for s in sampled_words(&g, n as u32) {
                    let info = state_info(&g, s);
                    let expect =
                        (info.representative == s && info.valid).then_some(info.orbit_size);
                    assert_eq!(filter.orbit_size(s), expect, "{name}, n = {n}, s = {s:#x}");
                }
            }
        }
    }

    #[test]
    fn flip_partners_share_a_network_and_zero_stages_are_skipped() {
        // 24-site chain: 96 elements on 48 site permutations, the identity
        // first, carrying the pure spin flip as its partner; two bases,
        // the identity and the reflection.
        let g = lattice::chain_group(24, 0, Some(0), Some(0)).unwrap();
        let filter = RepFilter::new(&g);
        assert_eq!((filter.permutations.len(), filter.bases.len()), (48, 2));
        assert!(filter.partners);
        assert_eq!(filter.bases[0].masks, [0; STAGES]);
        assert_eq!(filter.bases[0].permutations, 0..24);
        assert_eq!(filter.permutations[0].shift, 0);
        assert_eq!(filter.permutations[0].flips, [0, (1 << 24) - 1]);
        // On ≤ 32 sites the shift-32 stages are zero in every network.
        assert_eq!(filter.window, 1);
        // A translation carrying the flip: one element per permutation.
        let g =
            SymmetryGroup::generate(&[Generator::with_flip(lattice::chain_translation(24), 0)])
                .unwrap();
        let filter = RepFilter::new(&g);
        assert_eq!(
            (filter.permutations.len(), filter.partners, filter.bases.len()),
            (24, false, 1)
        );
        // 64 sites: the reflection's network uses every stage.
        let filter = RepFilter::new(&lattice::chain_group(64, 0, Some(0), Some(0)).unwrap());
        assert_eq!((filter.permutations.len(), filter.partners, filter.window), (128, true, 0));
    }

    /// Checks [`rotation_bases`] of `group` on words of `bits` bits: every
    /// element's permutation is its base's network then its rotation, on
    /// every unit vector and on 64 other words; each base is its own
    /// rotation 0 and comes before its rotations. Returns the base count.
    fn check_rotation_bases(group: &SymmetryGroup, bits: u32) -> usize {
        let rotations = rotation_bases(group, bits);
        assert_eq!(rotations.bases[0], (0, [0; STAGES]), "the identity is the first base");
        for (g, el) in group.elements().iter().enumerate() {
            let j = rotations.permutation_of[g];
            let (b, t) = rotations.decomposed[j];
            let (own, masks) = rotations.bases[b];
            assert!(t < bits && own <= j, "element {g}: base {b}, rotation {t}");
            assert_eq!(t == 0, own == j, "element {g}");
            let network =
                |w: u64| masks.iter().zip(&DELTAS).fold(w, |x, (&m, &d)| delta_swap(x, m, d));
            let units = (0..bits).map(|i| 1u64 << i);
            let words = (0..64).map(|seed| ls_kernels::hash64_01(seed) & low_mask(bits));
            for w in units.chain(words) {
                let expect = el.apply_permutation(w);
                assert_eq!(rotate_low_bits(network(w), bits, t), expect, "element {g}, {w:#x}");
            }
        }
        rotations.bases.len()
    }

    #[test]
    fn rotation_bases_reproduce_every_permutation() {
        // A ring's translations are rotations of the identity, and its
        // reflections rotations of one reflected image. At 64 sites no
        // rotation shifts by 64 (`t < bits` above).
        for n in [4usize, 5, 12, 24, 31, 32, 33, 64] {
            for reflection in [None, Some(0)] {
                for flip in [None, Some(0)] {
                    let g = lattice::chain_group(n, 0, reflection, flip).unwrap();
                    let bases = check_rotation_bases(&g, n as u32);
                    assert_eq!(bases, 1 + reflection.is_some() as usize, "{n} sites");
                }
            }
        }
        // The 4 × 4 torus: a row translation rotates the word by 4, so its
        // translations have 4 bases, and with the C4 rotation 16.
        let (tx, ty) =
            (lattice::square_translation_x(4, 4), lattice::square_translation_y(4, 4));
        let square = |with_rotation: bool| {
            let mut generators =
                vec![Generator::new(tx.clone(), 0), Generator::new(ty.clone(), 0)];
            if with_rotation {
                generators.push(Generator::new(lattice::square_rotation(4), 0));
            }
            SymmetryGroup::generate(&generators).unwrap()
        };
        assert_eq!(check_rotation_bases(&square(false), 16), 4);
        assert_eq!(check_rotation_bases(&square(true), 16), 16);
        // A 6-rung ladder: a rung translation rotates the word by 2, and
        // the leg swap is the second base.
        let ladder = SymmetryGroup::generate(&[
            Generator::new(lattice::ladder_translation(6), 0),
            Generator::new(lattice::ladder_leg_swap(6), 0),
            Generator::spin_inversion(12, 0),
        ])
        .unwrap();
        assert_eq!(check_rotation_bases(&ladder, 12), 2);
        // No rotation structure: one base per permutation, as many
        // networks as before the decomposition. The zigzag ring, and a
        // ring whose words are wider than its sites (a two-bit code).
        assert_eq!(check_rotation_bases(&zigzag_ring(12).1, 12), 12);
        let chain = lattice::chain_group(12, 0, Some(0), None).unwrap();
        assert_eq!(check_rotation_bases(&chain, 24), 24);
    }

    /// Every word of `n` bits of weight at most 2 or at least `n - 2`, 2048
    /// hashed words, and the orbit minimum of each under `group`.
    fn sampled_words(group: &SymmetryGroup, n: u32) -> Vec<u64> {
        let low = low_mask(n);
        let pairs = (0..n).flat_map(|i| (0..n).map(move |j| (1u64 << i) | (1u64 << j)));
        let mut words: Vec<u64> =
            [0, low].into_iter().chain(pairs.flat_map(|w| [w, !w & low])).collect();
        words.extend((0..2048).map(|seed| ls_kernels::hash64_01(seed) & low));
        let minima: Vec<u64> =
            words.iter().map(|&w| state_info(group, w).representative).collect();
        words.extend(minima);
        words
    }

    #[test]
    fn filter_agrees_with_state_info_on_square_and_ladder_groups() {
        let square = |lx: usize, ly: usize, kx: i64, rotation: bool| {
            let mut generators = vec![
                Generator::new(lattice::square_translation_x(lx, ly), kx),
                Generator::new(lattice::square_translation_y(lx, ly), 0),
                Generator::spin_inversion(lx * ly, 1),
            ];
            if rotation {
                generators.push(Generator::new(lattice::square_rotation(lx), 1));
            }
            SymmetryGroup::generate(&generators).unwrap()
        };
        let ladder = |l: usize, k: i64| {
            SymmetryGroup::generate(&[
                Generator::new(lattice::ladder_translation(l), k),
                Generator::new(lattice::ladder_leg_swap(l), 1),
                Generator::spin_inversion(2 * l, 0),
            ])
            .unwrap()
        };
        // 16 sites, every word: the 4 × 4 torus with the C4 rotation (±i
        // characters), and an 8-rung ladder at momentum π.
        for (name, g) in [("4 x 4", square(4, 4, 0, true)), ("8-rung", ladder(8, 4))] {
            let filter = RepFilter::new(&g);
            for s in 0..1u64 << 16 {
                let info = state_info(&g, s);
                let expect =
                    (info.representative == s && info.valid).then_some(info.orbit_size);
                assert_eq!(filter.orbit_size(s), expect, "{name}, s = {s:#b}");
            }
        }
        // 32, 34, 36 and 64 sites, sampled: rotations by whole rows or
        // rungs next to bases, inside and across the 32-bit boundary.
        let wide = [
            ("4 x 8", square(4, 8, 1, false), 32),
            ("16-rung", ladder(16, 0), 32),
            ("17-rung", ladder(17, 1), 34),
            ("6 x 6", square(6, 6, 0, true), 36),
            ("8 x 8", square(8, 8, 4, false), 64),
        ];
        for (name, g, n) in wide {
            let filter = RepFilter::new(&g);
            let mut accepted = 0;
            for s in sampled_words(&g, n) {
                let info = state_info(&g, s);
                let expect =
                    (info.representative == s && info.valid).then_some(info.orbit_size);
                assert_eq!(filter.orbit_size(s), expect, "{name}, s = {s:#x}");
                accepted += expect.is_some() as usize;
            }
            assert!(accepted > 100, "{name}: {accepted}");
        }
    }
}
