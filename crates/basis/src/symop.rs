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

use crate::rep::{state_info, state_info_batch, StateInfoBatch};
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
    info: StateInfoBatch,
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

/// An operator kernel bound to a symmetry sector, with scalar type `S`.
#[derive(Clone, Debug)]
pub struct SymmetrizedOperator<S: Scalar> {
    group: SymmetryGroup,
    diag: Vec<(S, u64)>,
    /// Masked-compare diagonal patterns `(coeff, sites, pat)` from
    /// multi-bit encodings (empty for spin-1/2 operators).
    patterns: Vec<(S, u64, u64)>,
    channels: Vec<SymChannel<S>>,
    hermitian: bool,
    trivial_group: bool,
    /// Any channel with a non-zero Jordan-Wigner sign mask? Gates the
    /// sign-free hot loops.
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
        for ch in kernel.channels() {
            let c = S::from_c64(ch.coeff).ok_or(BasisError::ComplexOperator)?;
            channels.push(SymChannel {
                coeff: c,
                sites: ch.sites,
                in_pat: ch.in_pat,
                flip: ch.flip_mask(),
                sign: ch.sign,
            });
        }
        Ok(Self {
            group: sector.group().clone(),
            diag,
            patterns,
            channels,
            hermitian: kernel.is_hermitian(1e-10),
            trivial_group: sector.group().order() == 1,
            has_signs: kernel.has_signs(),
            id: NEXT_OPERATOR_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// Is the bound group trivial (U(1)-only sector)? Gates the
    /// differential-ranking fast path of the batched matvec.
    pub fn has_trivial_group(&self) -> bool {
        self.trivial_group
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

    /// Does any channel carry a fermionic Jordan-Wigner sign mask? When
    /// true the segment-encoded constant-coefficient fast paths (which
    /// assume one amplitude per channel) are unavailable.
    pub fn has_signs(&self) -> bool {
        self.has_signs
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
    /// `orbits`) into `out`'s SoA arrays.
    ///
    /// The pipeline is: (1) channel-mask generation of raw states, (2) a
    /// single [`state_info_batch`] pass over all raw states of the block
    /// (group-element-outer), (3) amplitude resolution with zero-norm
    /// emissions compacted away. Emission order and every floating-point
    /// operation match the scalar path, so results are bit-identical to
    /// calling `apply_off_diag` state by state.
    pub fn apply_off_diag_block(
        &self,
        states: &[u64],
        orbits: &[u32],
        out: &mut OffDiagBlock<S>,
    ) {
        assert_eq!(states.len(), orbits.len());
        out.src.clear();
        out.reps.clear();
        out.amps.clear();
        if self.has_signs {
            for (k, &alpha) in states.iter().enumerate() {
                for ch in &self.channels {
                    if alpha & ch.sites == ch.in_pat {
                        out.src.push(k as u32);
                        out.reps.push(alpha ^ ch.flip);
                        out.amps.push(ch.signed_coeff(alpha));
                    }
                }
            }
        } else {
            // Sign-free hot loop, untouched.
            for (k, &alpha) in states.iter().enumerate() {
                for ch in &self.channels {
                    if alpha & ch.sites == ch.in_pat {
                        out.src.push(k as u32);
                        out.reps.push(alpha ^ ch.flip);
                        out.amps.push(ch.coeff);
                    }
                }
            }
        }
        if self.trivial_group {
            // Raw states are their own representatives with unit phase.
            return;
        }
        state_info_batch(&self.group, &out.reps, &mut out.info);
        let info = &out.info;
        let mut w = 0usize;
        for r in 0..out.reps.len() {
            if !info.valid[r] {
                continue;
            }
            let alpha_orbit = orbits[out.src[r] as usize];
            let norm = (alpha_orbit as f64 / info.orbit_sizes[r] as f64).sqrt();
            let phase =
                S::from_c64(info.phases[r]).expect("real sector guarantees real phases");
            out.src[w] = out.src[r];
            out.reps[w] = info.representatives[r];
            out.amps[w] = out.amps[r] * phase.scale_re(norm);
            w += 1;
        }
        out.src.truncate(w);
        out.reps.truncate(w);
        out.amps.truncate(w);
    }

    /// The U(1) fused fast path: generation *and ranking* of a block in
    /// one channel-outer pass. Valid only for a trivial group over the
    /// full fixed-weight basis (the combinadic-ranking precondition):
    /// there the basis index of a state *is* its combinadic rank, the rank
    /// of the block's `k`-th row is simply `first_rank + k`, and each
    /// destination rank follows by [`BinomialTable::rank_xor`] — O(flipped
    /// span) instead of O(weight) per matrix element, with no lookup
    /// structure touched at all. Destination ranks are always valid.
    ///
    /// For each channel, firing rows are first collected with a
    /// *branchless* compaction sweep (the data-dependent fire/no-fire
    /// branch of the row-outer loops mispredicts constantly; a
    /// conditional-increment store does not), then ranked differentially.
    /// Output is segment-encoded: `emit` packs each emission as
    /// `(source position << 32) | destination rank` grouped by channel,
    /// and `segs` holds one `(coefficient, end offset)` pair per channel —
    /// the amplitude of a U(1) channel is a constant, so storing it per
    /// segment instead of per emission halves the emission traffic.
    ///
    /// Emission order is (channel, state); each output element still
    /// receives its contributions in ascending channel order — exactly the
    /// scalar pull accumulation order, so gather results stay bit-exact.
    pub fn apply_off_diag_block_u1_ranked_channels(
        &self,
        states: &[u64],
        first_rank: u64,
        table: &BinomialTable,
        fired: &mut Vec<u32>,
        emit: &mut Vec<u64>,
        segs: &mut Vec<(S, u32)>,
    ) {
        debug_assert!(self.trivial_group, "fused ranking requires the trivial group");
        debug_assert!(!self.has_signs, "fused ranking requires sign-free channels");
        emit.clear();
        segs.clear();
        fired.clear();
        fired.resize(states.len(), 0);
        let mut c = 0usize;
        while c < self.channels.len() {
            let ch = &self.channels[c];
            // Exchange-pair merge: the kernel's channel list is sorted by
            // (sites, in_pat), so the S⁺S⁻ / S⁻S⁺ halves of a bond are
            // consecutive; with equal coefficients they share one
            // "exactly one of the two sites is up" sweep (a row fires at
            // most one of the two, so per-row emission order is
            // unchanged). This halves the dominant cost — the per-channel
            // block sweep.
            let paired = c + 1 < self.channels.len() && {
                let ch2 = &self.channels[c + 1];
                ch.sites.count_ones() == 2
                    && ch.flip == ch.sites
                    && ch2.sites == ch.sites
                    && ch2.flip == ch.sites
                    && ch.in_pat ^ ch2.in_pat == ch.sites
                    && ch.coeff == ch2.coeff
            };
            let sites = ch.sites;
            let in_pat = ch.in_pat;
            // Branchless compaction: every row writes its index, only
            // firing rows advance the cursor.
            let mut w = 0usize;
            if paired {
                for (k, &alpha) in states.iter().enumerate() {
                    fired[w] = k as u32;
                    let t = alpha & sites;
                    w += (t != 0 && t != sites) as usize;
                }
            } else {
                for (k, &alpha) in states.iter().enumerate() {
                    fired[w] = k as u32;
                    w += (alpha & sites == in_pat) as usize;
                }
            }
            // Channel constants of the differential rank, hoisted.
            let lo = ch.flip.trailing_zeros();
            let below = !(u64::MAX << lo);
            if ch.flip >> lo == 0b11 {
                // Adjacent transposition (every nearest-neighbour term):
                // the rank delta is two table loads.
                for &k in &fired[..w] {
                    let alpha = states[k as usize];
                    let dest = table.rank_xor_adjacent(alpha, lo, below, first_rank + k as u64);
                    emit.push((k as u64) << 32 | dest);
                }
            } else {
                for &k in &fired[..w] {
                    let alpha = states[k as usize];
                    let dest = table.rank_xor(alpha, ch.flip, first_rank + k as u64);
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

    fn check_block_matches_scalar<S: Scalar>(op: &SymmetrizedOperator<S>, basis: &SpinBasis) {
        let states = basis.states();
        let orbits = basis.orbit_sizes();
        let mut block = OffDiagBlock::new();
        let mut diag = vec![S::ZERO; 0];
        let mut row = Vec::new();
        // Deliberately odd block size to exercise boundaries.
        let bs = 13usize;
        let mut b0 = 0usize;
        while b0 < states.len() {
            let b1 = (b0 + bs).min(states.len());
            op.apply_off_diag_block(&states[b0..b1], &orbits[b0..b1], &mut block);
            diag.resize(b1 - b0, S::ZERO);
            op.diagonal_block(&states[b0..b1], &mut diag);
            let mut t = 0usize;
            for k in 0..(b1 - b0) {
                // Diagonal: bit-identical to the scalar accumulator.
                assert_eq!(diag[k], op.diagonal(states[b0 + k]));
                row.clear();
                op.apply_off_diag(states[b0 + k], orbits[b0 + k], &mut row);
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
            b0 = b1;
        }
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
        assert!(op.has_signs());
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
        assert!(!op.has_signs());
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
