//! Operators projected into a symmetry sector.
//!
//! A [`SymmetrizedOperator`] is the executable form of `H` restricted to a
//! sector basis of representatives. Applying a scattering channel to a
//! representative `|α⟩` yields a raw state `|s⟩`; resolving `s` against the
//! group gives its representative `|β⟩`, the connecting phase `χ(g)*` and
//! the orbit sizes, and the matrix element follows:
//!
//! ```text
//! ⟨β̃|H|α̃⟩ += c · χ(g)* · sqrt(orbit(α) / orbit(β))
//! ```
//!
//! (zero-norm orbits are skipped). This is the paper's `getRow` for
//! symmetry-adapted bases, and the inner kernel of every matrix-vector
//! product in this workspace.
//!
//! The scalar [`SymmetrizedOperator::apply_off_diag`] resolves each raw
//! state with [`state_info`] — `|G|` Benes networks per emission — and is
//! the reference. The block form both engines run,
//! [`SymmetrizedOperator::generate_off_diag_block`], hands each emission to
//! a caller's sink ([`SymmetrizedOperator::apply_off_diag_block`] is the
//! sink that fills an [`OffDiagBlock`]). Under every group it is one mask
//! loop per row (`FireGroup`), Jordan-Wigner signs included, and
//! [`SymmetrizedOperator::pull_rows`] runs the same loop with a sum in
//! place of the sink — the shared-memory engine's closed-form row pass.
//! Under a trivial group each fire bit is an emission as it stands.
//! Under any other group it is resolved by the group walk, which uses that
//! a group element (a bit permutation `π_g`, then an optional global flip)
//! is affine over GF(2), `g(α ⊕ m) = g(α) ⊕ π_g(m)`: the permutations run
//! once per source *row*, into one orbit image per lane, and an emission's
//! images are one XOR each against a table of `lanes × distinct flip masks`
//! words built at construction (`crate::rep::GroupWalk`), swept once
//! without a branch for their minimum and stabilizer — in `u32` lanes
//! where the sector's basis words fit 32 bits, chosen when the operator is
//! bound.
//!
//! [`SymmetrizedOperator::apply_off_diag_block_u1_ranked_channels`], a
//! channel-outer generate-and-rank pass into packed segments, is no
//! engine's path: it is the surface the repo benchmark's replay times.

use crate::rep::{state_info, GroupWalk, SectorWalk, WalkScratch, WalkTile, WalkWord};
use crate::sector::{BasisError, SectorSpec};
use ls_expr::OperatorKernel;
use ls_kernels::combinadics::BinomialTable;
use ls_kernels::{Complex64, Scalar};
use ls_symmetry::SymmetryGroup;

/// SoA emissions of one block off-diagonal generation (the batched
/// `getRow`): parallel arrays of source position, destination
/// representative and matrix element. Caller-owned scratch — reusing one
/// `OffDiagBlock` across blocks keeps the hot loop allocation-free.
#[derive(Clone, Debug, Default)]
pub struct OffDiagBlock<S: Scalar> {
    /// Source position of each emission, relative to the block start.
    /// Non-decreasing: emissions are ordered (state, channel), exactly
    /// like repeated [`SymmetrizedOperator::apply_off_diag`] calls.
    pub src: Vec<u32>,
    /// Destination representatives, resolved against the group.
    pub reps: Vec<u64>,
    /// Matrix elements `⟨β̃|H|α̃⟩`.
    pub amps: Vec<S>,
    /// Scratch of the group walk.
    walk: WalkScratch,
}

impl<S: Scalar> OffDiagBlock<S> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of emissions in the current block.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }
}

#[derive(Copy, Clone, Debug)]
struct SymChannel<S> {
    coeff: S,
    sites: u64,
    in_pat: u64,
    flip: u64,
    /// Jordan-Wigner parity mask: the amplitude picks up
    /// `(−1)^popcount(α & sign)`. Zero for bosonic/spin channels.
    sign: u64,
}

impl<S: Scalar> SymChannel<S> {
    /// The channel coefficient with the fermionic string sign applied.
    #[inline]
    fn signed_coeff(&self, alpha: u64) -> S {
        if (alpha & self.sign).count_ones() & 1 == 1 {
            -self.coeff
        } else {
            self.coeff
        }
    }
}

/// Up to 64 consecutive tests of the mask loop, and how a row `α` computes
/// its fire mask over them. A test fires when `α & sites` is one of its
/// patterns and emits `α ^ flip` with `±coeff`, negated on odd
/// `popcount(α & sign)`; under a non-trivial group the group walk resolves
/// the emission against its flip's row of the walk's mask table.
/// Consecutive channels that differ only in their input pattern — the
/// `S⁺S⁻` / `S⁻S⁺` halves of a bond, the `c†c` / `c c†` halves of a hop
/// with equal string masks — are one test with two patterns: at most one
/// of them fires on a row, and both emit the same.
#[derive(Clone, Debug)]
struct FireGroup<S> {
    /// Per test, in channel order: `(flip, coeff)`; 64 slots, so a read needs no bounds check.
    emits: [(u64, S); 64],
    /// Per test, the index of its flip in the group walk's mask table.
    masks: [u32; 64],
    /// `(string mask, test)` of each test that carries a string; a group
    /// without one does no parity work.
    strings: Vec<(u64, u32)>,
    /// The tests of two sites `i < j` that fire when exactly one is set:
    /// one `(d, r, l, mask)` per distinct distance `d = j − i` and shift,
    /// whose fire bits are `((α ^ α >> d) >> r << l) & mask` — a ring's
    /// bonds take three, not one each.
    spans: Vec<(u32, u32, u32, u64)>,
    /// Every other test, `(sites, a, b, bit)`: fires when `α & sites` is
    /// `a` or `b`.
    tests: Vec<(u64, u64, u64, u32)>,
}

impl<S: Scalar> FireGroup<S> {
    /// The channels as the mask loop tests them, 64 tests a group; `masks`
    /// are the distinct flip masks, in the order the walk's table holds
    /// them.
    fn build(channels: &[SymChannel<S>], masks: &[u64]) -> Vec<Self> {
        // `(sites, a, b, flip, sign, coeff)`: one test per channel, or per
        // two consecutive channels that emit the same on different
        // patterns.
        let mut tests: Vec<(u64, u64, u64, u64, u64, S)> = Vec::new();
        for ch in channels {
            match tests.last_mut() {
                Some((sites, a, b, flip, sign, coeff))
                    if a == b
                        && *sites == ch.sites
                        && *a != ch.in_pat
                        && *flip == ch.flip
                        && *sign == ch.sign
                        && *coeff == ch.coeff =>
                {
                    *b = ch.in_pat
                }
                _ => tests.push((ch.sites, ch.in_pat, ch.in_pat, ch.flip, ch.sign, ch.coeff)),
            }
        }
        tests.chunks(64).map(|tests| Self::new(tests, masks)).collect()
    }

    /// `tests` are `(sites, a, b, flip, sign, coeff)`, at most 64.
    fn new(tests: &[(u64, u64, u64, u64, u64, S)], masks: &[u64]) -> Self {
        let mut group = Self {
            emits: [(0, S::ZERO); 64],
            masks: [0; 64],
            strings: Vec::new(),
            spans: Vec::new(),
            tests: Vec::new(),
        };
        for (c, &(sites, a, b, flip, sign, coeff)) in tests.iter().enumerate() {
            group.emits[c] = (flip, coeff);
            group.masks[c] =
                masks.iter().position(|&m| m == flip).expect("a channel's flip") as u32;
            if sign != 0 {
                group.strings.push((sign, c as u32));
            }
            if sites.count_ones() == 2 && a.count_ones() == 1 && a ^ b == sites {
                let (i, j) = (sites.trailing_zeros(), 63 - sites.leading_zeros());
                let shift = c as i32 - i as i32;
                let span = (j - i, (-shift).max(0) as u32, shift.max(0) as u32);
                match group.spans.iter_mut().find(|s| (s.0, s.1, s.2) == span) {
                    Some(s) => s.3 |= 1 << c,
                    None => group.spans.push((span.0, span.1, span.2, 1 << c)),
                }
            } else {
                group.tests.push((sites, a, b, c as u32));
            }
        }
        group
    }

    /// The tests firing on the row `alpha`, one bit each. Which tests fire
    /// is data (one in four on a spin ring, in no pattern), so they are
    /// collected into a mask without a branch each.
    #[inline(always)]
    fn fires(&self, alpha: u64) -> u64 {
        let mut fires = 0u64;
        for &(d, r, l, mask) in &self.spans {
            fires |= ((alpha ^ alpha >> d) >> r << l) & mask;
        }
        for &(sites, a, b, c) in &self.tests {
            let m = alpha & sites;
            fires |= ((m == a) as u64 | (m == b) as u64) << c;
        }
        fires
    }

    /// The tests whose string has odd parity on the row `alpha`.
    #[inline(always)]
    fn odd(&self, alpha: u64) -> u64 {
        let mut odd = 0u64;
        for &(sign, c) in &self.strings {
            odd |= u64::from((alpha & sign).count_ones() & 1) << c;
        }
        odd
    }
}

/// An operator kernel bound to a symmetry sector, with scalar type `S`.
#[derive(Clone, Debug)]
pub struct SymmetrizedOperator<S: Scalar> {
    group: SymmetryGroup,
    diag: Vec<(S, u64)>,
    /// Masked-compare diagonal patterns `(coeff, sites, pat)` from
    /// multi-bit encodings (empty for spin-1/2 operators).
    patterns: Vec<(S, u64, u64)>,
    channels: Vec<SymChannel<S>>,
    /// The channels as the row-outer mask loop tests them, in channel
    /// order.
    fire: Vec<FireGroup<S>>,
    walk: SectorWalk,
    hermitian: bool,
    trivial_group: bool,
    /// Any channel with a non-zero Jordan-Wigner sign mask? Gates the
    /// scalar reference's sign-free loop.
    has_signs: bool,
    /// Process-unique construction id (shared by clones, which carry
    /// identical terms) — see [`Self::diag_fingerprint`].
    id: u64,
}

/// Source of [`SymmetrizedOperator::id`]: monotonically increasing, never
/// reused, so cache keys built on it cannot suffer allocator ABA.
static NEXT_OPERATOR_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl<S: Scalar> SymmetrizedOperator<S> {
    /// Binds `kernel` to `sector`, verifying that the operator
    /// 1. acts on the sector's sites, with the sector's site encoding,
    /// 2. conserves the Hamming weight (total code sum) if the sector
    ///    fixes one, and every per-species [`crate::ChargeMask`],
    /// 3. commutes with every symmetry-group element (checked exactly via
    ///    kernel conjugation),
    /// 4. fits the scalar type (`f64` demands a real sector and real
    ///    coefficients).
    pub fn new(kernel: &OperatorKernel, sector: &SectorSpec) -> Result<Self, BasisError> {
        if kernel.n_sites() != sector.n_sites() {
            return Err(BasisError::OperatorSizeMismatch {
                kernel_sites: kernel.n_sites(),
                n_sites: sector.n_sites(),
            });
        }
        if kernel.encoding() != sector.encoding() {
            return Err(BasisError::EncodingMismatch);
        }
        if sector.hamming_weight().is_some() && !kernel.conserves_hamming_weight() {
            return Err(BasisError::BreaksU1);
        }
        for c in sector.charges() {
            if !kernel.conserves_masked_weight(c.mask) {
                return Err(BasisError::BreaksCharge { mask: c.mask });
            }
        }
        for el in sector.group().elements() {
            let conj = kernel.conjugated_by(|s| el.apply_permutation(s), el.has_flip());
            if !conj.approx_eq(kernel, 1e-10) {
                return Err(BasisError::BreaksSymmetry);
            }
        }
        if S::N_REALS == 1 && !sector.is_real() {
            return Err(BasisError::ComplexSector);
        }
        let mut diag = Vec::with_capacity(kernel.diagonal_monomials().len());
        for m in kernel.diagonal_monomials() {
            let c = S::from_c64(m.coeff).ok_or(BasisError::ComplexOperator)?;
            diag.push((c, m.zmask));
        }
        let mut patterns = Vec::with_capacity(kernel.diagonal_patterns().len());
        for p in kernel.diagonal_patterns() {
            let c = S::from_c64(p.coeff).ok_or(BasisError::ComplexOperator)?;
            patterns.push((c, p.sites, p.pat));
        }
        let mut channels = Vec::with_capacity(kernel.channels().len());
        let mut masks: Vec<u64> = Vec::new();
        for ch in kernel.channels() {
            let c = S::from_c64(ch.coeff).ok_or(BasisError::ComplexOperator)?;
            let flip = ch.flip_mask();
            channels.push(SymChannel {
                coeff: c,
                sites: ch.sites,
                in_pat: ch.in_pat,
                flip,
                sign: ch.sign,
            });
            if !masks.contains(&flip) {
                masks.push(flip);
            }
        }
        let trivial_group = sector.group().order() == 1;
        Ok(Self {
            walk: SectorWalk::new(sector.group(), &masks, sector.code_bits()),
            group: sector.group().clone(),
            diag,
            patterns,
            fire: FireGroup::build(&channels, &masks),
            channels,
            hermitian: kernel.is_hermitian(1e-10),
            trivial_group,
            has_signs: kernel.has_signs(),
            id: NEXT_OPERATOR_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// Is the bound group trivial (U(1)-only sector)? Gates the closed-form
    /// row pass of the batched matvec.
    pub fn has_trivial_group(&self) -> bool {
        self.trivial_group
    }

    /// Source rows the group walk resolves a tile at a time — the unit of
    /// [`Self::generate_off_diag_block`]'s work on a symmetrized sector.
    /// `None` under the trivial group, which generates without the walk.
    pub fn walk_tile_rows(&self) -> Option<usize> {
        (!self.trivial_group).then(|| self.walk.tile_rows())
    }

    /// Identity of this operator's diagonal — the cache key the matvec
    /// scratch pool uses to memoize per-state diagonals across repeated
    /// products. Built on a process-unique construction id (never
    /// recycled, so a freed operator's allocation being reused cannot
    /// produce a stale hit); clones share the id and the identical terms.
    pub fn diag_fingerprint(&self) -> (u64, usize) {
        (self.id, self.diag.len())
    }

    pub fn is_hermitian(&self) -> bool {
        self.hermitian
    }

    /// Upper bound on off-diagonal entries per row.
    pub fn max_row_entries(&self) -> usize {
        self.channels.len()
    }

    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    pub fn n_diag_monomials(&self) -> usize {
        self.diag.len()
    }

    pub fn n_diag_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Diagonal matrix element `⟨α̃|H|α̃⟩_diag` (the Walsh part; channel
    /// contributions that happen to map `α` back to itself are produced by
    /// [`Self::apply_off_diag`]).
    #[inline]
    pub fn diagonal(&self, alpha: u64) -> S {
        let mut acc = S::ZERO;
        for &(c, zmask) in &self.diag {
            let downs = (!alpha & zmask).count_ones();
            if downs & 1 == 0 {
                acc += c;
            } else {
                acc -= c;
            }
        }
        for &(c, sites, pat) in &self.patterns {
            if alpha & sites == pat {
                acc += c;
            }
        }
        acc
    }

    /// Pushes `(β_rep, ⟨β̃|H|α̃⟩)` for every off-diagonal channel firing on
    /// the representative `alpha` (with orbit size `alpha_orbit`). Entries
    /// with `β_rep == alpha` are legitimate (orbit self-connections) and
    /// must be accumulated by the caller like any other entry.
    #[inline]
    pub fn apply_off_diag(&self, alpha: u64, alpha_orbit: u32, out: &mut Vec<(u64, S)>) {
        if self.trivial_group {
            if self.has_signs {
                for ch in &self.channels {
                    if alpha & ch.sites == ch.in_pat {
                        out.push((alpha ^ ch.flip, ch.signed_coeff(alpha)));
                    }
                }
            } else {
                // Sign-free hot loop (all spin models), untouched.
                for ch in &self.channels {
                    if alpha & ch.sites == ch.in_pat {
                        out.push((alpha ^ ch.flip, ch.coeff));
                    }
                }
            }
            return;
        }
        for ch in &self.channels {
            if alpha & ch.sites == ch.in_pat {
                let raw = alpha ^ ch.flip;
                let info = state_info(&self.group, raw);
                if !info.valid {
                    continue;
                }
                let norm = (alpha_orbit as f64 / info.orbit_size as f64).sqrt();
                let phase =
                    S::from_c64(info.phase).expect("real sector guarantees real phases");
                let amp = ch.signed_coeff(alpha) * phase.scale_re(norm);
                out.push((info.representative, amp));
            }
        }
    }

    /// Diagonal matrix elements for a whole block of states:
    /// `out[k] = ⟨α̃_k|H|α̃_k⟩_diag`. Monomial-outer / state-inner loop
    /// order — each Walsh mask is loaded once per block and the inner loop
    /// is a branch-light popcount stream. Elementwise bit-identical to
    /// [`Self::diagonal`] (same monomial accumulation order).
    pub fn diagonal_block(&self, states: &[u64], out: &mut [S]) {
        assert_eq!(states.len(), out.len());
        out.fill(S::ZERO);
        for &(c, zmask) in &self.diag {
            for (o, &s) in out.iter_mut().zip(states) {
                let downs = (!s & zmask).count_ones();
                if downs & 1 == 0 {
                    *o += c;
                } else {
                    *o -= c;
                }
            }
        }
        for &(c, sites, pat) in &self.patterns {
            for (o, &s) in out.iter_mut().zip(states) {
                if s & sites == pat {
                    *o += c;
                }
            }
        }
    }

    /// Batched [`Self::apply_off_diag`]: generates every off-diagonal
    /// emission for a block of representatives (`states` with orbit sizes
    /// `orbits`) into `out`'s SoA arrays — [`Self::generate_off_diag_block`]
    /// with a sink that pushes.
    pub fn apply_off_diag_block(
        &self,
        states: &[u64],
        orbits: &[u32],
        out: &mut OffDiagBlock<S>,
    ) {
        let OffDiagBlock { src, reps, amps, walk } = out;
        src.clear();
        reps.clear();
        amps.clear();
        self.generate_off_diag_block(states, orbits, walk, |k, rep, amp| {
            src.push(k as u32);
            reps.push(rep);
            amps.push(amp);
        });
    }

    /// The block generator behind every engine's row generation: hands
    /// each off-diagonal emission of a block of representatives (`states`
    /// with orbit sizes `orbits`) to `emit` as `(row in the block,
    /// destination representative, ⟨β̃|H|α̃⟩)`, ordered (row, channel)
    /// exactly like repeated [`Self::apply_off_diag`] calls. `scratch` is
    /// caller-owned scratch for the group walk, reused across blocks.
    ///
    /// Under every group this is the mask loop (`FireGroup`): per row,
    /// the fire bits of up to 64 channels at a time, then one emission per
    /// set bit, its coefficient negated on an odd Jordan-Wigner string.
    /// Under a non-trivial group each fire bit is resolved by the
    /// differential walk (`g(α ⊕ m) = g(α) ⊕ π_g(m)`): rows are taken in
    /// tiles sized from `|G|`; per tile, one Beneš network per base
    /// permutation runs on the tile's rows side by side; per row, each
    /// lane rotates its base's image into one orbit image; then each
    /// firing channel resolves its emission in one branch-free sweep of
    /// XORs against the `lanes × distinct masks` table, taking the minimum
    /// and counting the stabilizer; a group with a character other than 1
    /// adds a sweep for the norm and one for the phase. Where the two
    /// orbit sizes are equal the norm is 1, which `sqrt(x / x)` is.
    /// Emission order, the minimization rule and every floating-point
    /// result match the scalar path, so results are bit-identical to
    /// calling `apply_off_diag` state by state; [`state_info`] and
    /// [`crate::state_info_batch`] on the raw emissions are the oracle.
    #[inline]
    pub fn generate_off_diag_block(
        &self,
        states: &[u64],
        orbits: &[u32],
        scratch: &mut WalkScratch,
        mut emit: impl FnMut(usize, u64, S),
    ) {
        assert_eq!(states.len(), orbits.len());
        if !self.trivial_group {
            return self.walk_off_diag_block(states, orbits, scratch, emit);
        }
        // Raw states are their own representatives with unit phase: the
        // same emissions in the same (row, channel) order, with the same
        // amplitudes.
        for (k, &alpha) in states.iter().enumerate() {
            for group in &self.fire {
                let (mut fires, odd) = (group.fires(alpha), group.odd(alpha));
                while fires != 0 {
                    let c = fires.trailing_zeros();
                    let (flip, coeff) = group.emits[c as usize % 64];
                    emit(k, alpha ^ flip, if odd >> c & 1 == 1 { -coeff } else { coeff });
                    fires &= fires - 1;
                }
            }
        }
    }

    /// The shared-memory engine's row pass on a closed-form sector: for
    /// each row `α` of `states`, `y[k] += conj(amp)·x[rank(α ⊕ flip)]` over
    /// the emissions [`Self::generate_off_diag_block`] makes of it, in the
    /// same order, with the row's sum in a register and stored once. `y`
    /// comes seeded (`diag·x`); `rank` maps a member of the basis to its
    /// index. Trivial group only. The engine passes the unchecked rank of
    /// a Lin view it took once (`ls_kernels::combinadics::LinView`): a
    /// `rank` that reaches through the basis per emission reloads its
    /// descriptors from the stack (the loop ran ~1.4x slower with one).
    ///
    /// A loop of its own, not a sink of the generator: a row pass that
    /// inlines both of the generator's loops per row runs ~20 % slower than
    /// this single one. The generator has no separate sign-free loop: it
    /// was not measurably faster for the distributed producer, whose
    /// 20-site ring's product (2 locales × 1 core, 2 vCPUs) read ×0.84–1.13
    /// of the two-loop form with the signed loop alone over 8 alternating
    /// rounds of 38 products, median ×1.00.
    pub fn pull_rows(&self, states: &[u64], x: &[S], rank: impl Fn(u64) -> usize, y: &mut [S]) {
        assert!(self.trivial_group, "the row pass requires the trivial group");
        for (&alpha, out) in states.iter().zip(y) {
            let mut acc = *out;
            for group in &self.fire {
                let (mut fires, odd) = (group.fires(alpha), group.odd(alpha));
                while fires != 0 {
                    let c = fires.trailing_zeros();
                    let (flip, coeff) = group.emits[c as usize % 64];
                    let amp = if odd >> c & 1 == 1 { -coeff } else { coeff };
                    acc += amp.conj() * x[rank(alpha ^ flip)];
                    fires &= fires - 1;
                }
            }
            *out = acc;
        }
    }

    /// The non-trivial-group half of [`Self::generate_off_diag_block`], in
    /// the walk's word. Out of line: it runs once per block, and inlined
    /// into an engine it would crowd the registers of the row passes
    /// compiled next to it.
    #[inline(never)]
    fn walk_off_diag_block(
        &self,
        states: &[u64],
        orbits: &[u32],
        scratch: &mut WalkScratch,
        emit: impl FnMut(usize, u64, S),
    ) {
        match &self.walk {
            SectorWalk::Narrow(walk) => {
                self.walk_tiles(walk, states, orbits, &mut scratch.narrow, emit)
            }
            SectorWalk::Wide(walk) => {
                self.walk_tiles(walk, states, orbits, &mut scratch.wide, emit)
            }
        }
    }

    /// [`Self::walk_off_diag_block`] on the tables of `walk`; the
    /// per-emission arithmetic is [`Self::apply_off_diag`]'s, but for a
    /// norm of exactly 1 taken without the divide and the root.
    #[inline(always)]
    fn walk_tiles<W: WalkWord>(
        &self,
        walk: &GroupWalk<W>,
        states: &[u64],
        orbits: &[u32],
        scratch: &mut WalkTile<W>,
        mut emit: impl FnMut(usize, u64, S),
    ) {
        let tile = walk.tile_rows();
        for (t, tile_states) in states.chunks(tile).enumerate() {
            walk.base_images(tile_states, scratch);
            for (r, &alpha) in tile_states.iter().enumerate() {
                let (k, images) = (t * tile + r, walk.orbit_images(scratch, r));
                for group in &self.fire {
                    let (mut fires, odd) = (group.fires(alpha), group.odd(alpha));
                    while fires != 0 {
                        let c = fires.trailing_zeros() as usize % 64;
                        fires &= fires - 1;
                        let (flip, coeff) = group.emits[c];
                        let info = walk.resolve(images, group.masks[c] as usize, alpha ^ flip);
                        if !info.valid {
                            continue;
                        }
                        // `sqrt(x / x)` is exactly 1: the same bits without
                        // the divide and the root.
                        let norm = if orbits[k] == info.orbit_size {
                            1.0
                        } else {
                            (orbits[k] as f64 / info.orbit_size as f64).sqrt()
                        };
                        let phase = S::from_c64(info.phase)
                            .expect("real sector guarantees real phases");
                        let coeff = if odd >> c & 1 == 1 { -coeff } else { coeff };
                        emit(k, info.representative, coeff * phase.scale_re(norm));
                    }
                }
            }
        }
    }

    /// Channel-outer generation *and ranking* of a block of a U(1) sector
    /// (trivial group, one species filling the word, ranked by `table`,
    /// sign-free channels) into packed segments. No engine runs it — the
    /// shared-memory engine sums a closed-form row where
    /// [`Self::generate_off_diag_block`] generates it — but the repo
    /// benchmark's replay times it against the row pass it replaced.
    ///
    /// The basis index of a state is its combinadic rank, so the block's
    /// `k`-th row has rank `first_rank + k`, and each destination rank is
    /// the source's plus a [`BinomialTable::rank_xor`] delta over the
    /// flipped span. For each channel, firing rows are first collected
    /// with a branchless compaction sweep into `fired`, then ranked.
    /// `emit` packs each emission as `(source position << 32) |
    /// destination rank`, grouped by channel, and `segs` holds one
    /// `(coefficient, end offset)` pair per channel segment. Emission
    /// order is (channel, state); a row fires a channel at most once, so
    /// each row still receives its contributions in ascending channel
    /// order.
    pub fn apply_off_diag_block_u1_ranked_channels(
        &self,
        states: &[u64],
        first_rank: u64,
        table: &BinomialTable,
        fired: &mut Vec<u32>,
        emit: &mut Vec<u64>,
        segs: &mut Vec<(S, u32)>,
    ) {
        // Hard checks (one flag test per block): past them a symmetrized
        // or signed operator would get plausible wrong ranks.
        assert!(self.trivial_group, "fused ranking requires the trivial group");
        assert!(!self.has_signs, "fused ranking requires sign-free channels");
        emit.clear();
        segs.clear();
        if fired.len() < states.len() {
            fired.resize(states.len(), 0);
        }
        let mut c = 0usize;
        while c < self.channels.len() {
            let ch = &self.channels[c];
            // Exchange-pair merge: the kernel's channel list is sorted by
            // (sites, in_pat), so the S⁺S⁻ / S⁻S⁺ halves of a bond are
            // consecutive; with equal coefficients they share one "exactly
            // one of the two sites is set" sweep (a row fires at most one
            // of the two, so per-row emission order is unchanged).
            let paired = c + 1 < self.channels.len() && {
                let ch2 = &self.channels[c + 1];
                ch.sites.count_ones() == 2
                    && ch.flip == ch.sites
                    && ch2.sites == ch.sites
                    && ch2.flip == ch.sites
                    && ch.in_pat ^ ch2.in_pat == ch.sites
                    && ch.coeff == ch2.coeff
            };
            let (sites, in_pat) = (ch.sites, ch.in_pat);
            let n = if paired {
                compact_firing_rows(states, fired, |alpha| {
                    let t = alpha & sites;
                    t != 0 && t != sites
                })
            } else {
                compact_firing_rows(states, fired, |alpha| alpha & sites == in_pat)
            };
            let lo = ch.flip.trailing_zeros();
            if ch.flip >> lo == 0b11 {
                // An adjacent pair (every nearest-neighbour term): two
                // table loads.
                for &k in &fired[..n] {
                    let dest =
                        table.rank_xor_adjacent(states[k as usize], lo, first_rank + k as u64);
                    emit.push((k as u64) << 32 | dest);
                }
            } else {
                for &k in &fired[..n] {
                    let dest =
                        table.rank_xor(states[k as usize], ch.flip, first_rank + k as u64);
                    emit.push((k as u64) << 32 | dest);
                }
            }
            segs.push((ch.coeff, emit.len() as u32));
            c += if paired { 2 } else { 1 };
        }
    }

    /// Builds the dense sector matrix (testing / small systems only).
    // Column index `j` addresses `h`, the basis and the orbit list at
    // once; the range loop is the clear form.
    #[allow(clippy::needless_range_loop)]
    pub fn to_dense(&self, basis: &crate::SpinBasis) -> Vec<Vec<S>> {
        let dim = basis.dim();
        assert!(dim <= 1 << 14, "dense sector matrix too large");
        let mut h = vec![vec![S::ZERO; dim]; dim];
        let mut row = Vec::new();
        for j in 0..dim {
            let alpha = basis.state(j);
            let orbit = basis.orbit_sizes()[j];
            h[j][j] += self.diagonal(alpha);
            row.clear();
            self.apply_off_diag(alpha, orbit, &mut row);
            for &(beta, amp) in &row {
                let i =
                    basis.index_of(beta).expect("channel produced a state outside the basis");
                h[i][j] += amp;
            }
        }
        h
    }
}

/// Branchless compaction of the rows of `states` that fire a channel:
/// every row writes its index, only firing rows advance the cursor.
/// Returns how many fired.
#[inline(always)]
fn compact_firing_rows(states: &[u64], rows: &mut [u32], fires: impl Fn(u64) -> bool) -> usize {
    let mut n = 0usize;
    for (k, &alpha) in states.iter().enumerate() {
        rows[n] = k as u32;
        n += fires(alpha) as usize;
    }
    n
}

/// Convenience: symmetrize a Hermitian kernel with complex bookkeeping and
/// verify Hermiticity of the dense sector matrix (test helper).
pub fn sector_matrix_c64(
    kernel: &OperatorKernel,
    sector: &SectorSpec,
    basis: &crate::SpinBasis,
) -> Result<Vec<Vec<Complex64>>, BasisError> {
    let op = SymmetrizedOperator::<Complex64>::new(kernel, sector)?;
    Ok(op.to_dense(basis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::SpinBasis;
    use crate::rep::{state_info_batch, StateInfoBatch};
    use ls_expr::builders::heisenberg;
    use ls_symmetry::lattice;

    fn chain_setup(
        n: usize,
        k: i64,
        r: Option<i64>,
        z: Option<i64>,
    ) -> (OperatorKernel, SectorSpec, SpinBasis) {
        let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = lattice::chain_group(n, k, r, z).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let basis = SpinBasis::build(sector.clone());
        (kernel, sector, basis)
    }

    #[test]
    fn real_sector_builds_with_f64() {
        let (kernel, sector, _) = chain_setup(8, 0, Some(0), Some(0));
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        assert!(op.is_hermitian());
        assert_eq!(op.n_diag_monomials(), 8);
        assert_eq!(op.n_channels(), 16);
    }

    #[test]
    fn complex_sector_rejects_f64() {
        let (kernel, sector, _) = chain_setup(8, 1, None, None);
        let err = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap_err();
        assert_eq!(err, BasisError::ComplexSector);
        // ... but accepts Complex64.
        assert!(SymmetrizedOperator::<Complex64>::new(&kernel, &sector).is_ok());
    }

    #[test]
    fn symmetry_violation_detected() {
        // A single bond does not commute with translation.
        let n = 6;
        let kernel = ls_expr::builders::heisenberg_bond(0, 1).to_kernel(n as u32).unwrap();
        let group = lattice::chain_group(n, 0, None, None).unwrap();
        let sector = SectorSpec::new(n as u32, Some(3), group).unwrap();
        let err = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap_err();
        assert_eq!(err, BasisError::BreaksSymmetry);
    }

    #[test]
    fn u1_violation_detected() {
        let n = 4;
        let kernel = ls_expr::builders::transverse_field(n, 1.0).to_kernel(n as u32).unwrap();
        let sector = SectorSpec::with_weight(n as u32, 2).unwrap();
        let err = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap_err();
        assert_eq!(err, BasisError::BreaksU1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // symmetric (i, j) access pattern
    fn dense_sector_matrix_is_hermitian() {
        for (k, r, z) in
            [(0i64, Some(0i64), Some(0i64)), (0, Some(1), None), (4, None, Some(0))]
        {
            let (kernel, sector, basis) = chain_setup(8, k, r, z);
            let h = sector_matrix_c64(&kernel, &sector, &basis).unwrap();
            for i in 0..h.len() {
                for j in 0..h.len() {
                    assert!(
                        h[i][j].approx_eq(h[j][i].conj(), 1e-10),
                        "H[{i}][{j}] = {:?} vs H[{j}][{i}]* = {:?} (k={k})",
                        h[i][j],
                        h[j][i].conj()
                    );
                }
            }
        }
    }

    #[test]
    fn block_generation_matches_scalar_apply() {
        // Symmetric and U(1)-only sectors; Complex64 covers the momentum
        // sector path with genuine phases.
        let n = 8usize;
        let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        for (k, r, z) in [(0i64, Some(0i64), Some(0i64)), (2, None, None), (4, None, Some(0))] {
            let group = lattice::chain_group(n, k, r, z).unwrap();
            let sector = SectorSpec::new(n as u32, Some(4), group).unwrap();
            let basis = SpinBasis::build(sector.clone());
            let op = SymmetrizedOperator::<Complex64>::new(&kernel, &sector).unwrap();
            check_block_matches_scalar(&op, &basis);
        }
        // Trivial group fast path (f64).
        let sector = SectorSpec::with_weight(n as u32, 4).unwrap();
        let basis = SpinBasis::build(sector.clone());
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        check_block_matches_scalar(&op, &basis);
    }

    /// `bonds` Heisenberg at fixed weight (or on the full space) under
    /// `group`, through [`check_block_matches_scalar`]; the basis must
    /// span at least `min_tiles` tiles of the walk.
    fn check_heisenberg<S: Scalar>(
        bonds: &[(usize, usize)],
        n: usize,
        weight: Option<u32>,
        group: SymmetryGroup,
        min_tiles: usize,
    ) -> usize {
        let kernel = heisenberg(bonds, 1.0).to_kernel(n as u32).unwrap();
        let sector = SectorSpec::new(n as u32, weight, group).unwrap();
        let basis = SpinBasis::build(sector.clone());
        let op = SymmetrizedOperator::<S>::new(&kernel, &sector).unwrap();
        assert!(basis.dim() >= min_tiles * op.walk.tile_rows(), "dim {}", basis.dim());
        check_block_matches_scalar(&op, &basis)
    }

    #[test]
    fn block_generation_matches_scalar_apply_across_tiles() {
        use ls_symmetry::Generator;
        let n = 16usize;
        let chain = lattice::chain_bonds(n);
        // The benchmark's family: |G| = 64, real characters, flip sharing.
        let full = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        assert_eq!(full.order(), 64);
        check_heisenberg::<f64>(&chain, n, Some(8), full, 3);
        // k = 1: complex characters and zero-norm orbits (the skip path).
        let k1 = lattice::chain_group(n, 1, None, None).unwrap();
        assert!(check_heisenberg::<Complex64>(&chain, n, Some(8), k1, 3) > 0);
        // J1-J2 ring: more distinct flip masks than bonds of one length.
        let j1j2 = lattice::triangular_ladder_bonds(n);
        let group = lattice::chain_group(n, 0, Some(1), Some(1)).unwrap();
        check_heisenberg::<f64>(&j1j2, n, Some(8), group, 3);
        // 4 × 4 square lattice, both translations and the C4 rotation:
        // non-chain permutations, ±i characters at zero momentum.
        let square = SymmetryGroup::generate(&[
            Generator::new(lattice::square_translation_x(4, 4), 0),
            Generator::new(lattice::square_translation_y(4, 4), 0),
            Generator::new(lattice::square_rotation(4), 1),
        ])
        .unwrap();
        assert_eq!(square.order(), 64);
        assert!(!square.is_real());
        check_heisenberg::<Complex64>(&lattice::square_bonds(4, 4), n, Some(8), square, 3);
    }

    #[test]
    fn mask_loop_matches_scalar_apply_on_every_test_shape() {
        // A ring's bonds: three spans (the open bonds, the closing bond and
        // the bond sorted after it), no compare test.
        let ring = heisenberg(&lattice::chain_bonds(12), 1.0).to_kernel(12).unwrap();
        let sector = SectorSpec::with_weight(12, 6).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&ring, &sector).unwrap();
        assert_eq!((op.fire.len(), op.fire[0].spans.len()), (1, 3));
        assert!(op.fire[0].tests.is_empty());
        check_block_matches_scalar(&op, &SpinBasis::build(sector));
        // Second neighbours, a square lattice, and 72 bonds: more tests
        // than one 64-bit fire mask holds.
        let cases = [
            (lattice::triangular_ladder_bonds(12), 12u32, 6u32),
            (lattice::square_bonds(4, 4), 16, 8),
            (lattice::square_bonds(6, 6), 36, 2),
        ];
        for (bonds, n, weight) in cases {
            let kernel = heisenberg(&bonds, 1.0).to_kernel(n).unwrap();
            let sector = SectorSpec::with_weight(n, weight).unwrap();
            let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
            assert!(op.fire.iter().all(|group| group.tests.is_empty()), "{n} sites");
            check_block_matches_scalar(&op, &SpinBasis::build(sector));
        }
        // Single-site flips with a field and Ising bonds: compare tests
        // only, on the full space.
        let tfim = ls_expr::builders::ising_zz(&lattice::chain_bonds(8), 1.0)
            + ls_expr::builders::transverse_field(8, 0.7);
        let trivial = SectorSpec::new(8, None, SymmetryGroup::trivial(8)).unwrap();
        let op =
            SymmetrizedOperator::<f64>::new(&tfim.to_kernel(8).unwrap(), &trivial).unwrap();
        assert!(op.fire.iter().all(|group| group.spans.is_empty()));
        check_block_matches_scalar(&op, &SpinBasis::build(trivial));
        // Jordan-Wigner strings. The periodic Hubbard ring's wrap hops
        // carry a string mask; so do a spinless chain's next-nearest hops.
        let fermion = ls_expr::LocalHilbert::fermion();
        let hubbard =
            ls_expr::hubbard_1d(6, 1.0, 4.0, true).to_kernel_in(&fermion, 12).unwrap();
        let sector = SectorSpec::spinful_fermions(6, 3, 2).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&hubbard, &sector).unwrap();
        assert!(op.fire.iter().all(|group| !group.strings.is_empty()));
        check_block_matches_scalar(&op, &SpinBasis::build(sector));
        let spinless = |bonds: &[(usize, usize)], n: u32, weight: u32| {
            let hops =
                bonds.iter().map(|&(i, j)| ls_expr::fermion_hop(i as u16, j as u16, 0.8));
            let kernel = ls_expr::Expr::Sum(hops.collect()).to_kernel_in(&fermion, n).unwrap();
            let sector =
                SectorSpec::with_encoding(n, fermion.encoding(), Some(weight)).unwrap();
            (
                SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap(),
                SpinBasis::build(sector),
            )
        };
        let next_nearest: Vec<(usize, usize)> =
            (0..10).flat_map(|i| [(i, i + 1), (i, i + 2)]).filter(|&(_, j)| j < 10).collect();
        let (op, basis) = spinless(&next_nearest, 10, 4);
        assert!(!op.fire[0].strings.is_empty() && op.fire[0].tests.is_empty());
        check_block_matches_scalar(&op, &basis);
        // 72 hops of a 6 × 6 square: a signed operator over two groups.
        let (op, basis) = spinless(&lattice::square_bonds(6, 6), 36, 2);
        assert_eq!(op.fire.len(), 2);
        assert!(op.fire.iter().all(|group| !group.strings.is_empty()));
        check_block_matches_scalar(&op, &basis);
    }

    #[test]
    fn block_generation_matches_scalar_apply_on_odd_group_orders() {
        // Nothing in the walk may assume |G| is a multiple of 4 or a
        // power of two. |G| = 6: translations of a 6-ring.
        let ring6 = lattice::chain_group(6, 0, None, None).unwrap();
        assert_eq!(ring6.order(), 6);
        check_heisenberg::<f64>(&lattice::chain_bonds(6), 6, Some(3), ring6.clone(), 0);
        check_heisenberg::<f64>(&lattice::chain_bonds(6), 6, None, ring6, 0);
        // |G| = 10: translation × flip of a 5-ring on the full space,
        // under a transverse-field Ising model — odd-weight flip masks.
        let ring5 = lattice::chain_group(5, 0, None, Some(0)).unwrap();
        assert_eq!(ring5.order(), 10);
        let tfim = ls_expr::builders::ising_zz(&lattice::chain_bonds(5), 1.0)
            + ls_expr::builders::transverse_field(5, 0.7);
        let sector = SectorSpec::new(5, None, ring5).unwrap();
        let basis = SpinBasis::build(sector.clone());
        let op = SymmetrizedOperator::<f64>::new(&tfim.to_kernel(5).unwrap(), &sector).unwrap();
        check_block_matches_scalar(&op, &basis);
    }

    #[test]
    fn flip_partners_share_one_network() {
        // The benchmark's 24-site group: 96 elements, 48 site permutations,
        // and two bases: the identity, which runs no network, and the
        // reflection. The other 46 permutations rotate one of them. The
        // group holds the flip with every character 1, so the walk folds
        // each pair of flip partners into one of 48 lanes.
        let n = 24usize;
        let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(12), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        assert_eq!(op.group().order(), 96);
        assert_eq!(op.walk.shape(), (2, 48));
        assert_eq!(op.walk.tile_rows(), 32);
        // Without the flip each permutation carries one element, a lane.
        let group = lattice::chain_group(n, 0, Some(0), None).unwrap();
        let sector = SectorSpec::new(n as u32, Some(12), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        assert_eq!(op.walk.shape(), (2, 48));
        assert_eq!(op.group().order(), 48);
        // A ring numbered in a zigzag has no rotation structure: a base
        // per permutation, as many networks as a row ran before.
        let (bonds, group) = crate::rep::zigzag_ring(12);
        let kernel = heisenberg(&bonds, 1.0).to_kernel(12).unwrap();
        let sector = SectorSpec::new(12, Some(6), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        assert_eq!((op.group().order(), op.walk.shape()), (24, (12, 12)));
        check_block_matches_scalar(&op, &SpinBasis::build(sector));
    }

    #[test]
    fn block_generation_matches_scalar_apply_at_the_lane_boundary() {
        use ls_symmetry::Generator;
        // 32 sites walk in `u32` words, 33 and 64 in `u64` ones: 32 and 64
        // are the rotations whose right shift would be the whole word at
        // `t = 0`. The rows are few: low weights, and under the flip the
        // weight-3 orbit minima (a sector with the flip must otherwise be
        // half filled).
        for (n, k1_weight, k1_tiles) in [(32usize, 4u32, 2), (33, 3, 1), (64, 2, 0)] {
            let chain = lattice::chain_bonds(n);
            let kernel = heisenberg(&chain, 1.0).to_kernel(n as u32).unwrap();
            let translation_with_flip = Generator::with_flip(lattice::chain_translation(n), 0);
            // Does the walk fold the flip partners into one lane?
            let groups = [
                // The flip with every character 1: folded.
                (lattice::chain_group(n, 0, Some(0), Some(0)).unwrap(), true),
                // Reflection and flip odd: characters −1.
                (lattice::chain_group(n, 0, Some(1), Some(1)).unwrap(), false),
                // z = −1 alone: zero-norm orbits under the flip.
                (lattice::chain_group(n, 0, Some(0), Some(1)).unwrap(), false),
                // Elements carry flips; on an even ring the flip itself
                // is no element, on an odd one it is.
                (SymmetryGroup::generate(&[translation_with_flip]).unwrap(), n % 2 == 1),
            ];
            for (group, folds) in groups {
                let sector = SectorSpec::new(n as u32, None, group.clone()).unwrap();
                let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
                let lanes = group.order() / (1 + folds as usize);
                assert_eq!((op.walk.is_narrow(), op.walk.shape().1), (n <= 32, lanes), "{n}");
                let (states, orbits) = weight_orbit_minima(&group, n as u32, 3);
                assert!(states.len() >= 2 * op.walk.tile_rows(), "{n} sites: {}", states.len());
                check_rows_match_scalar(&op, &states, &orbits);
            }
            // k = 1: complex characters, and zero-norm orbits at weights
            // that share a factor with `n`.
            let k1 = lattice::chain_group(n, 1, None, None).unwrap();
            let skipped =
                check_heisenberg::<Complex64>(&chain, n, Some(k1_weight), k1, k1_tiles);
            assert!(skipped > 0, "{n} sites");
        }
        // The 64-site group of the enumeration filter's tests: every
        // network stage in use, flip partners.
        let n = 64usize;
        let kernel = heisenberg(&lattice::chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = lattice::chain_group(n, 0, None, Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, None, group.clone()).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let (states, orbits) = weight_orbit_minima(&group, n as u32, 3);
        assert!(states.len() >= 2 * op.walk.tile_rows(), "{}", states.len());
        check_rows_match_scalar(&op, &states, &orbits);
        // Square tori and ladders: rotations by whole rows or rungs next to
        // the bases that run networks, at 32 sites in `u32` words and past
        // them in `u64` ones.
        let square = |lx: usize, ly: usize, ky: i64, rotation: bool| {
            let mut generators = vec![
                Generator::new(lattice::square_translation_x(lx, ly), 0),
                Generator::new(lattice::square_translation_y(lx, ly), ky),
                Generator::spin_inversion(lx * ly, 1),
            ];
            if rotation {
                generators.push(Generator::new(lattice::square_rotation(lx), 0));
            }
            (lattice::square_bonds(lx, ly), SymmetryGroup::generate(&generators).unwrap())
        };
        let ladder = |l: usize| {
            let generators = [
                Generator::new(lattice::ladder_translation(l), 0),
                Generator::new(lattice::ladder_leg_swap(l), 1),
                Generator::spin_inversion(2 * l, 0),
            ];
            (lattice::ladder_bonds(l, true), SymmetryGroup::generate(&generators).unwrap())
        };
        let cases = [
            (square(8, 4, 2, false), 8),
            (ladder(16), 2),
            (ladder(17), 2),
            (square(6, 6, 0, true), 24),
        ];
        for ((bonds, group), bases) in cases {
            let n = group.n_sites();
            let kernel = heisenberg(&bonds, 1.0).to_kernel(n as u32).unwrap();
            let sector = SectorSpec::new(n as u32, None, group.clone()).unwrap();
            let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
            assert_eq!((op.walk.is_narrow(), op.walk.shape().0), (n <= 32, bases), "{n} sites");
            let (states, orbits) = weight_orbit_minima(&group, n as u32, 3);
            assert!(states.len() >= 2 * op.walk.tile_rows(), "{n} sites: {}", states.len());
            check_rows_match_scalar(&op, &states, &orbits);
        }
    }

    #[test]
    fn block_generation_matches_scalar_apply_on_padded_lanes() {
        use ls_symmetry::Generator;
        // `u32` lane counts that are no multiple of the sweep's iteration,
        // padded with copies of the identity's lane: with a spare bit in
        // the word and with 32 sites filling it, and through the zero-norm
        // and phase sweeps where a character is not 1. The 24-site chain's
        // 48 lanes need no pad, and `u64` lanes (64 sites) are never padded.
        let chain = |n: usize, k: i64, reflection: Option<i64>, flip: Option<i64>| {
            (lattice::chain_bonds(n), lattice::chain_group(n, k, reflection, flip).unwrap())
        };
        let square_x = |lx: usize, ly: usize, k: i64, flip: Option<i64>| {
            let mut generators = vec![Generator::new(lattice::square_translation_x(lx, ly), k)];
            generators.extend(flip.map(|z| Generator::spin_inversion(lx * ly, z)));
            (lattice::square_bonds(lx, ly), SymmetryGroup::generate(&generators).unwrap())
        };
        // `((bonds, group), weight of the rows, lanes, lanes swept)`.
        let cases = [
            (crate::rep::zigzag_ring(12), 5, 12, 16),
            (chain(12, 1, None, None), 5, 12, 16),
            (chain(20, 0, Some(0), Some(0)), 4, 40, 48),
            (chain(20, 10, Some(1), None), 4, 40, 48),
            (chain(24, 0, Some(0), Some(0)), 4, 48, 48),
            (square_x(8, 4, 0, Some(0)), 3, 8, 16),
            (square_x(8, 4, 1, None), 3, 8, 16),
            (square_x(8, 8, 0, Some(0)), 2, 8, 8),
            (square_x(8, 8, 1, None), 2, 8, 8),
        ];
        for ((bonds, group), weight, lanes, swept) in cases {
            let n = group.n_sites();
            let kernel = heisenberg(&bonds, 1.0).to_kernel(n as u32).unwrap();
            let sector = SectorSpec::new(n as u32, None, group.clone()).unwrap();
            let op = SymmetrizedOperator::<Complex64>::new(&kernel, &sector).unwrap();
            let shape = (op.walk.is_narrow(), op.walk.shape().1, op.walk.swept_lanes());
            assert_eq!(shape, (n <= 32, lanes, swept), "{n} sites, {lanes} lanes");
            let (states, orbits) = weight_orbit_minima(&group, n as u32, weight);
            assert!(states.len() >= 20, "{n} sites: {}", states.len());
            check_rows_match_scalar(&op, &states, &orbits);
        }
    }

    /// The weight-`w` words of `n` sites that are valid orbit minima under
    /// `group`, ascending, with their orbit sizes ([`state_info`]).
    fn weight_orbit_minima(group: &SymmetryGroup, n: u32, w: u32) -> (Vec<u64>, Vec<u32>) {
        fn words(n: u32, w: u32) -> Vec<u64> {
            if w == 0 {
                return vec![0];
            }
            (w - 1..n)
                .flat_map(|top| words(top, w - 1).into_iter().map(move |r| r | 1 << top))
                .collect()
        }
        words(n, w)
            .into_iter()
            .map(|s| (s, state_info(group, s)))
            .filter(|(s, info)| info.representative == *s && info.valid)
            .map(|(s, info)| (s, info.orbit_size))
            .unzip()
    }

    fn check_block_matches_scalar<S: Scalar>(
        op: &SymmetrizedOperator<S>,
        basis: &SpinBasis,
    ) -> usize {
        check_rows_match_scalar(op, basis.states(), basis.orbit_sizes())
    }

    /// Block generation ≡ scalar `apply_off_diag` ≡ `state_info_batch` run
    /// on the block's raw emissions, bit for bit, on the rows `states` with
    /// orbit sizes `orbits`, at block lengths on both sides of the walk's
    /// tile; and the walk's resolution of every raw emission is
    /// [`state_info`]'s, the phase of a zero-norm orbit included. Returns
    /// how many zero-norm emissions one sweep over the rows skips.
    fn check_rows_match_scalar<S: Scalar>(
        op: &SymmetrizedOperator<S>,
        all_states: &[u64],
        all_orbits: &[u32],
    ) -> usize {
        match &op.walk {
            SectorWalk::Narrow(walk) => check_resolve(op, walk, all_states),
            SectorWalk::Wide(walk) => check_resolve(op, walk, all_states),
        }
        let tile = op.walk.tile_rows();
        let mut block = OffDiagBlock::new();
        let mut info = StateInfoBatch::new();
        let mut diag = vec![S::ZERO; 0];
        let mut row = Vec::new();
        let mut skipped = 0usize;
        // 13 and 77: deliberately odd, to exercise boundaries.
        for bs in [1, (tile - 1).max(1), tile, tile + 1, 13, 77, all_states.len().max(1)] {
            skipped = 0;
            for (states, orbits) in all_states.chunks(bs).zip(all_orbits.chunks(bs)) {
                op.apply_off_diag_block(states, orbits, &mut block);
                diag.resize(states.len(), S::ZERO);
                op.diagonal_block(states, &mut diag);
                let mut t = 0usize;
                for k in 0..states.len() {
                    // Diagonal: bit-identical to the scalar accumulator.
                    assert_eq!(diag[k], op.diagonal(states[k]));
                    row.clear();
                    op.apply_off_diag(states[k], orbits[k], &mut row);
                    for &(rep, amp) in &row {
                        assert!(t < block.len(), "batch emitted too few entries");
                        assert_eq!(block.src[t] as usize, k);
                        assert_eq!(block.reps[t], rep);
                        // Bit-exact: the batch path performs the identical
                        // floating-point operations in the same order.
                        assert_eq!(block.amps[t], amp);
                        t += 1;
                    }
                }
                assert_eq!(t, block.len(), "batch emitted extra entries");

                // The oracle of the walk: the reference group pass over
                // the raw states the channels emit.
                let fired: Vec<(usize, &SymChannel<S>)> = (0..states.len())
                    .flat_map(|k| op.channels.iter().map(move |ch| (k, ch)))
                    .filter(|&(k, ch)| states[k] & ch.sites == ch.in_pat)
                    .collect();
                let raw: Vec<u64> = fired.iter().map(|&(k, ch)| states[k] ^ ch.flip).collect();
                state_info_batch(op.group(), &raw, &mut info);
                let mut t = 0usize;
                for (r, &(k, ch)) in fired.iter().enumerate() {
                    if !info.valid[r] {
                        skipped += 1;
                        continue;
                    }
                    let norm = (orbits[k] as f64 / info.orbit_sizes[r] as f64).sqrt();
                    let phase = S::from_c64(info.phases[r]).unwrap();
                    assert_eq!(block.src[t] as usize, k);
                    assert_eq!(block.reps[t], info.representatives[r]);
                    assert_eq!(
                        block.amps[t],
                        ch.signed_coeff(states[k]) * phase.scale_re(norm)
                    );
                    t += 1;
                }
                assert_eq!(t, block.len(), "oracle and batch disagree on zero-norm orbits");
            }
        }
        skipped
    }

    /// [`GroupWalk::resolve`] of each emission of the rows `states` equals
    /// [`state_info`] in every field: under a character other than 1 the
    /// phase of a zero-norm orbit too, which no amplitude shows.
    fn check_resolve<S: Scalar, W: WalkWord>(
        op: &SymmetrizedOperator<S>,
        walk: &GroupWalk<W>,
        states: &[u64],
    ) {
        let mut tile = WalkTile::default();
        for rows in states.chunks(walk.tile_rows()) {
            walk.base_images(rows, &mut tile);
            for (r, &alpha) in rows.iter().enumerate() {
                let images = walk.orbit_images(&mut tile, r).to_vec();
                for group in &op.fire {
                    let mut fires = group.fires(alpha);
                    while fires != 0 {
                        let c = fires.trailing_zeros() as usize;
                        fires &= fires - 1;
                        let raw = alpha ^ group.emits[c].0;
                        let info = walk.resolve(&images, group.masks[c] as usize, raw);
                        assert_eq!(info, state_info(op.group(), raw), "{alpha:#x} → {raw:#x}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fused ranking requires the trivial group")]
    fn fused_ranking_rejects_a_symmetry_group() {
        let (kernel, sector, basis) = chain_setup(8, 0, Some(0), Some(0));
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        fused_block(&op, basis.states());
    }

    #[test]
    #[should_panic(expected = "fused ranking requires sign-free channels")]
    fn fused_ranking_rejects_jordan_wigner_signs() {
        let h = ls_expr::LocalHilbert::fermion();
        let kernel = ls_expr::hubbard_1d(4, 1.0, 4.0, true).to_kernel_in(&h, 8).unwrap();
        let sector = SectorSpec::spinful_fermions(4, 2, 1).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        fused_block(&op, SpinBasis::build(sector).states());
    }

    /// The fused pass against generation + ranking, at block lengths on
    /// both sides of a channel's compaction: per row, the same
    /// `(destination rank, amplitude)` list in the same channel order.
    fn check_fused_matches_ranked_generation(op: &SymmetrizedOperator<f64>, basis: &SpinBasis) {
        let table = basis.combinadic_table().expect("U(1) basis");
        let (mut fired, mut emit, mut segs) = (Vec::new(), Vec::new(), Vec::new());
        let mut block = OffDiagBlock::new();
        for bs in [1, 7, 64, basis.dim()] {
            let chunks = basis.states().chunks(bs).zip(basis.orbit_sizes().chunks(bs));
            for (b, (states, orbits)) in chunks.enumerate() {
                let first = (b * bs) as u64;
                op.apply_off_diag_block_u1_ranked_channels(
                    states, first, table, &mut fired, &mut emit, &mut segs,
                );
                let mut fused = vec![Vec::new(); states.len()];
                let mut t0 = 0;
                for &(coeff, t1) in &segs {
                    for &e in &emit[t0..t1 as usize] {
                        fused[(e >> 32) as usize].push((e as u32 as usize, coeff));
                    }
                    t0 = t1 as usize;
                }
                op.apply_off_diag_block(states, orbits, &mut block);
                let mut generated = vec![Vec::new(); states.len()];
                for t in 0..block.len() {
                    let rank = basis.index_of(block.reps[t]).unwrap();
                    generated[block.src[t] as usize].push((rank, block.amps[t]));
                }
                assert_eq!(fused, generated, "block length {bs}, block {b}");
            }
        }
    }

    #[test]
    fn fused_ranking_matches_generation_on_u1_sectors() {
        // Nearest-neighbour exchange on a ring (the adjacent rank and the
        // closing bond's span) and next-nearest exchange (spans only).
        let n = 12usize;
        for bonds in [lattice::chain_bonds(n), lattice::triangular_ladder_bonds(n)] {
            let kernel = heisenberg(&bonds, 1.0).to_kernel(n as u32).unwrap();
            let sector = SectorSpec::with_weight(n as u32, 5).unwrap();
            let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
            check_fused_matches_ranked_generation(&op, &SpinBasis::build(sector));
        }
    }

    #[test]
    fn exchange_pairs_merge_only_with_equal_string_masks() {
        // The two halves of the closure hop of a spinless 6-ring share a
        // string mask and merge into one test; given different masks, they
        // stay two, and the rows firing the second half take its parity,
        // not the first half's.
        let fermion = ls_expr::LocalHilbert::fermion();
        let hop = ls_expr::fermion_hop(0, 5, 1.0).to_kernel_in(&fermion, 6).unwrap();
        let sector = SectorSpec::with_encoding(6, fermion.encoding(), Some(3)).unwrap();
        let basis = SpinBasis::build(sector.clone());
        let mut op = SymmetrizedOperator::<f64>::new(&hop, &sector).unwrap();
        assert_eq!(op.channels.len(), 2);
        assert_eq!(op.channels[0].sign, op.channels[1].sign);
        let tests = |op: &SymmetrizedOperator<f64>| {
            op.fire[0].emits.iter().filter(|e| e.0 != 0).count()
        };
        assert_eq!(tests(&op), 1);
        check_block_matches_scalar(&op, &basis);
        op.channels[1].sign = 0b0_0110;
        op.fire = FireGroup::build(&op.channels, &[op.channels[0].flip]);
        assert_eq!(tests(&op), 2);
        check_block_matches_scalar(&op, &basis);
    }

    fn fused_block(op: &SymmetrizedOperator<f64>, states: &[u64]) {
        let (mut fired, mut emit, mut segs) = (Vec::new(), Vec::new(), Vec::new());
        op.apply_off_diag_block_u1_ranked_channels(
            states,
            0,
            &BinomialTable::new(),
            &mut fired,
            &mut emit,
            &mut segs,
        );
    }

    #[test]
    fn encoding_mismatch_detected() {
        // A spin-1/2 kernel cannot bind to a fermionic sector …
        let kernel = heisenberg(&[(0, 1)], 1.0).to_kernel(4).unwrap();
        let sector = SectorSpec::spinful_fermions(2, 1, 1).unwrap();
        let err = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap_err();
        assert_eq!(err, BasisError::EncodingMismatch);
        // … and a fermionic kernel cannot bind to a spin sector.
        let h = ls_expr::LocalHilbert::fermion();
        let hop = ls_expr::fermion_hop(0, 1, 1.0).to_kernel_in(&h, 4).unwrap();
        let spin = SectorSpec::with_weight(4, 2).unwrap();
        let err = SymmetrizedOperator::<f64>::new(&hop, &spin).unwrap_err();
        assert_eq!(err, BasisError::EncodingMismatch);
    }

    #[test]
    fn charge_violation_detected() {
        // A hop between the up and down orbitals of site 0 conserves the
        // total particle number but not the per-species counts.
        let h = ls_expr::LocalHilbert::fermion();
        let mix = ls_expr::fermion_hop(0, 2, 1.0).to_kernel_in(&h, 4).unwrap();
        let sector = SectorSpec::spinful_fermions(2, 1, 1).unwrap();
        let err = SymmetrizedOperator::<f64>::new(&mix, &sector).unwrap_err();
        assert!(matches!(err, BasisError::BreaksCharge { .. }));
    }

    #[test]
    fn hubbard_sector_matrix_matches_kernel_dense() {
        // Periodic 4-site Hubbard chain at quarter-ish filling: JW sign
        // masks are live. The symmetrized dense matrix must equal the raw
        // kernel restricted to the basis states.
        let h = ls_expr::LocalHilbert::fermion();
        let kernel = ls_expr::hubbard_1d(4, 1.0, 4.0, true).to_kernel_in(&h, 8).unwrap();
        assert!(kernel.has_signs());
        let sector = SectorSpec::spinful_fermions(4, 2, 1).unwrap();
        let basis = SpinBasis::build(sector.clone());
        assert_eq!(basis.dim() as u64, sector.dimension());
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        assert!(op.has_signs);
        assert!(op.is_hermitian());
        let dense = op.to_dense(&basis);
        let expect = kernel.to_dense_states(basis.states());
        for i in 0..basis.dim() {
            for j in 0..basis.dim() {
                assert!(
                    (dense[i][j] - expect[i][j].re).abs() < 1e-12,
                    "H[{i}][{j}]: {} vs {}",
                    dense[i][j],
                    expect[i][j].re
                );
            }
        }
        // Batched generation agrees bit-exactly with the scalar path.
        check_block_matches_scalar(&op, &basis);
    }

    #[test]
    fn spin_one_sector_matrix_matches_kernel_dense() {
        // 4-site spin-1 Heisenberg ring in the Σ Sz = 0 sector: diagonal
        // patterns (SzSz over 2-bit codes) are live.
        let hilb = ls_expr::LocalHilbert::spin_one();
        let kernel =
            heisenberg(&[(0, 1), (1, 2), (2, 3), (3, 0)], 1.0).to_kernel_in(&hilb, 4).unwrap();
        let sector = SectorSpec::spin_s(4, 3, Some(4)).unwrap();
        let basis = SpinBasis::build(sector.clone());
        assert_eq!(basis.dim() as u64, sector.dimension());
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        assert!(op.n_diag_patterns() > 0);
        assert!(!op.has_signs);
        let dense = op.to_dense(&basis);
        let expect = kernel.to_dense_states(basis.states());
        for i in 0..basis.dim() {
            for j in 0..basis.dim() {
                assert!(
                    (dense[i][j] - expect[i][j].re).abs() < 1e-12,
                    "H[{i}][{j}]: {} vs {}",
                    dense[i][j],
                    expect[i][j].re
                );
            }
        }
        check_block_matches_scalar(&op, &basis);
    }

    #[test]
    fn trivial_group_matches_generic_path() {
        // U(1)-only: the fast path must agree with a 1-element group going
        // through state_info.
        let n = 6u32;
        let kernel = heisenberg(&lattice::chain_bonds(n as usize), 1.0).to_kernel(n).unwrap();
        let sector = SectorSpec::with_weight(n, 3).unwrap();
        let basis = SpinBasis::build(sector.clone());
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let mut out = Vec::new();
        for (j, &alpha) in basis.states().iter().enumerate() {
            out.clear();
            op.apply_off_diag(alpha, basis.orbit_sizes()[j], &mut out);
            // Compare against the raw kernel's off-diagonal (orbit size 1,
            // no phases in the trivial group).
            let mut raw = Vec::new();
            kernel.off_diagonal(alpha, &mut raw);
            let expect: Vec<(u64, f64)> = raw.into_iter().map(|(b, c)| (b, c.re)).collect();
            assert_eq!(out.len(), expect.len());
            for (a, e) in out.iter().zip(&expect) {
                assert_eq!(a.0, e.0);
                assert!((a.1 - e.1).abs() < 1e-14);
            }
        }
    }
}
