//! Packed site-code encodings: how a local Hilbert space maps onto bits.
//!
//! A basis state of an `n`-site system is a `u64` of `n` packed `k`-bit
//! fields; the field at site `i` holds the site's *code* — an index
//! `0..local_dim` into the local basis. Spin-1/2 is the `k = 1` case
//! (code = bit = spin up), spinful fermions are `k = 1` occupation bits
//! per spin-orbital with Jordan-Wigner sign tracking, spin-1 is `k = 2`
//! with codes `0, 1, 2` for `Sz = -1, 0, +1`.
//!
//! [`SiteEncoding`] is the value everything downstream is generic over:
//! enumeration, ranking and the scattering-channel machinery only need
//! the field width, the local dimension (to skip invalid code words) and
//! the statistics flag (to know whether channels carry sign masks).

use crate::bits::{self, low_mask};

/// Describes how one lattice site's local Hilbert space is packed into a
/// basis word.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct SiteEncoding {
    local_dim: u8,
    bits: u8,
    fermionic: bool,
}

/// Iterator over the valid code words of an encoding within `[lo, hi)`,
/// in increasing order, optionally restricted to a fixed code sum (the
/// generalized U(1) charge). The chunked-range form exists for the same
/// reason as [`bits::FixedWeightRange`]: parallel enumeration splits the
/// raw word range and each chunk must reproduce exactly its slice of the
/// global order.
#[derive(Clone, Debug)]
pub struct CodedRange {
    encoding: SiteEncoding,
    n_sites: u32,
    code_sum: Option<u32>,
    next: Option<u64>,
    /// Largest word the range may yield (inclusive — the exclusive end of
    /// a dense 64-bit code space, 2^64, is not representable in a `u64`).
    last: u64,
}

impl SiteEncoding {
    /// One bit per site, both codes valid: the spin-1/2 fast path.
    pub const fn spin_half() -> Self {
        Self { local_dim: 2, bits: 1, fermionic: false }
    }

    /// One occupation bit per spin-orbital with fermionic (Jordan-Wigner)
    /// sign tracking.
    pub const fn fermion() -> Self {
        Self { local_dim: 2, bits: 1, fermionic: true }
    }

    /// A `local_dim`-state bosonic/spin site packed into
    /// `ceil(log2(local_dim))` bits. Supports `local_dim` in `2..=4`
    /// (spin-1/2 through spin-3/2); spin-1 is `SiteEncoding::spin(3)`.
    pub fn spin(local_dim: u32) -> Self {
        assert!(
            (2..=4).contains(&local_dim),
            "local dimension {local_dim} outside the supported range 2..=4"
        );
        let bits = if local_dim == 2 { 1 } else { 2 };
        Self { local_dim: local_dim as u8, bits, fermionic: false }
    }

    pub fn local_dim(self) -> u32 {
        self.local_dim as u32
    }

    /// Field width in bits.
    pub fn bits(self) -> u32 {
        self.bits as u32
    }

    /// Do channels of this encoding carry Jordan-Wigner sign masks?
    pub fn is_fermionic(self) -> bool {
        self.fermionic
    }

    /// Is this exactly the one-bit-per-site spin encoding every
    /// pre-existing spin-1/2 code path assumes?
    pub fn is_spin_half(self) -> bool {
        self == Self::spin_half()
    }

    /// Largest site count that fits a 64-bit word.
    pub fn max_sites(self) -> u32 {
        64 / self.bits as u32
    }

    /// Total code bits of an `n_sites` system — the width of the raw
    /// iteration space `[0, 2^code_bits)`.
    pub fn code_bits(self, n_sites: u32) -> u32 {
        debug_assert!(n_sites <= self.max_sites());
        n_sites * self.bits as u32
    }

    /// Bit position of site `site`'s field.
    #[inline]
    pub fn site_shift(self, site: u32) -> u32 {
        site * self.bits as u32
    }

    /// Mask selecting site `site`'s field.
    #[inline]
    pub fn site_mask(self, site: u32) -> u64 {
        low_mask(self.bits as u32) << self.site_shift(site)
    }

    /// The code stored at `site`.
    #[inline]
    pub fn extract(self, word: u64, site: u32) -> u64 {
        bits::extract_field(word, self.site_shift(site), self.bits as u32)
    }

    /// `word` with `site`'s code replaced by `code`.
    #[inline]
    pub fn deposit(self, word: u64, site: u32, code: u64) -> u64 {
        bits::deposit_field(word, self.site_shift(site), self.bits as u32, code)
    }

    /// Sum of all site codes — the generalized U(1) charge (Hamming
    /// weight for one-bit encodings, `Σ(Sz_i + S)` for spin-S, particle
    /// number for fermions).
    #[inline]
    pub fn code_sum(self, word: u64, n_sites: u32) -> u32 {
        bits::field_sum(word, self.bits as u32, n_sites)
    }

    /// Does every field of `word` hold a code `< local_dim`?
    #[inline]
    pub fn is_valid(self, word: u64, n_sites: u32) -> bool {
        if self.dense() {
            return word <= last_word(self.code_bits(n_sites));
        }
        if word > last_word(self.code_bits(n_sites)) {
            return false;
        }
        // local_dim == 3, bits == 2: a field is invalid iff both its bits
        // are set.
        let hi = word & HI2;
        let lo = word & (HI2 >> 1);
        hi & (lo << 1) == 0
    }

    /// Every `bits`-wide field pattern is a valid code (power-of-two
    /// local dimension): the raw word range needs no skipping, so a dense
    /// scan (basis enumeration's field-sum filter) beats the odometer.
    #[inline]
    pub fn dense(self) -> bool {
        self.local_dim as u32 == 1 << self.bits
    }

    /// Smallest valid code word `>= word` with all fields `< local_dim`,
    /// or `None` if none exists below `2^code_bits`. Carries past whole
    /// invalid subtrees, so iterating with it costs `O(valid words)`.
    pub fn next_valid(self, word: u64, n_sites: u32) -> Option<u64> {
        let limit = last_word(self.code_bits(n_sites));
        if word > limit {
            return None;
        }
        if self.dense() {
            return Some(word);
        }
        let mut w = word;
        loop {
            // Highest invalid field, if any.
            let mut bad: Option<u32> = None;
            for site in (0..n_sites).rev() {
                if self.extract(w, site) >= self.local_dim as u64 {
                    bad = Some(site);
                    break;
                }
            }
            let Some(site) = bad else { return Some(w) };
            // Bump the field above the invalid one and clear everything
            // below — the smallest word strictly greater than every word
            // sharing this invalid prefix. When the invalid field is the
            // top site of a word-filling encoding (`sites * bits == 64`)
            // the carry position is bit 64: the carry leaves the word, so
            // no valid word `>= w` exists. `1u64 << 64` would be a shift
            // overflow, hence the explicit check.
            let carry_shift = self.site_shift(site + 1);
            if carry_shift >= 64 {
                return None;
            }
            let cleared = w & !low_mask(carry_shift);
            let (next, overflow) = cleared.overflowing_add(1u64 << carry_shift);
            if overflow || next > limit {
                return None;
            }
            w = next;
        }
    }

    /// Decodes `word` into one code per site (diagnostics: error
    /// messages report states as site configurations, not hex).
    pub fn decode(self, word: u64, n_sites: u32) -> Vec<u8> {
        (0..n_sites).map(|s| self.extract(word, s) as u8).collect()
    }

    /// Mask of all code bits strictly below `site`'s field — the
    /// Jordan-Wigner string mask of `c_site` (sign = parity of the
    /// occupied orbitals below the site).
    #[inline]
    pub fn sign_mask_below(self, site: u32) -> u64 {
        low_mask(self.site_shift(site))
    }
}

/// High bit of every 2-bit field.
const HI2: u64 = 0xaaaa_aaaa_aaaa_aaaa;

/// Largest word of a `code_bits`-wide space.
#[inline]
fn last_word(code_bits: u32) -> u64 {
    low_mask(code_bits)
}

impl CodedRange {
    /// Valid code words `w` with `lo <= w < hi` (and
    /// `code_sum(w) == sum` if fixed), increasing. `hi == u64::MAX`
    /// doubles as "unbounded" (the same sentinel convention as
    /// [`bits::FixedWeightRange`]): the exclusive end of a dense 64-bit
    /// code space is 2^64, which a `u64` cannot hold, and clamping it to
    /// `u64::MAX` used to silently drop the all-ones word from
    /// word-filling encodings (`sites * bits == 64`).
    pub fn new(
        encoding: SiteEncoding,
        n_sites: u32,
        code_sum: Option<u32>,
        lo: u64,
        hi: u64,
    ) -> Self {
        let space_last = last_word(encoding.code_bits(n_sites));
        let last =
            if hi == u64::MAX { space_last } else { space_last.min(hi.saturating_sub(1)) };
        let mut r = Self { encoding, n_sites, code_sum, next: None, last };
        r.next = if hi == 0 { None } else { r.seek(lo) };
        r
    }

    /// The full space.
    pub fn all(encoding: SiteEncoding, n_sites: u32, code_sum: Option<u32>) -> Self {
        Self::new(encoding, n_sites, code_sum, 0, u64::MAX)
    }

    /// Smallest matching word `>= from`, at most `last`.
    fn seek(&self, from: u64) -> Option<u64> {
        let mut w = from;
        loop {
            let v = self.encoding.next_valid(w, self.n_sites)?;
            if v > self.last {
                return None;
            }
            match self.code_sum {
                Some(sum) if self.encoding.code_sum(v, self.n_sites) != sum => {
                    w = v.checked_add(1)?;
                }
                _ => return Some(v),
            }
        }
    }
}

impl Iterator for CodedRange {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let cur = self.next?;
        self.next = cur.checked_add(1).and_then(|n| self.seek(n));
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_half_is_the_identity_encoding() {
        let e = SiteEncoding::spin_half();
        assert!(e.is_spin_half());
        assert_eq!(e.bits(), 1);
        assert_eq!(e.code_bits(24), 24);
        assert_eq!(e.code_sum(0b1011, 4), 3);
        assert!(e.is_valid(u64::MAX, 64));
        assert_eq!(e.next_valid(17, 8), Some(17));
        assert_eq!(SiteEncoding::spin(2), e);
    }

    #[test]
    fn fermion_differs_only_in_statistics() {
        let e = SiteEncoding::fermion();
        assert!(e.is_fermionic());
        assert!(!e.is_spin_half());
        assert_eq!(e.bits(), 1);
        assert_eq!(e.sign_mask_below(3), 0b111);
        assert_eq!(e.sign_mask_below(0), 0);
    }

    #[test]
    fn spin_one_field_access() {
        let e = SiteEncoding::spin(3);
        assert_eq!(e.bits(), 2);
        assert_eq!(e.max_sites(), 32);
        let mut w = 0u64;
        for (site, code) in [(0u32, 2u64), (1, 0), (2, 1), (3, 2)] {
            w = e.deposit(w, site, code);
        }
        assert_eq!(e.decode(w, 4), vec![2, 0, 1, 2]);
        assert_eq!(e.code_sum(w, 4), 5);
        assert!(e.is_valid(w, 4));
        assert!(!e.is_valid(e.deposit(w, 1, 3), 4));
    }

    #[test]
    fn next_valid_skips_invalid_subtrees() {
        let e = SiteEncoding::spin(3);
        let n = 3u32;
        // Brute-force reference.
        for w in 0..(1u64 << e.code_bits(n)) + 2 {
            let expect = (w..(1u64 << e.code_bits(n))).find(|&v| e.is_valid(v, n));
            assert_eq!(e.next_valid(w, n), expect, "w = {w:#b}");
        }
    }

    #[test]
    fn coded_range_full_space_counts() {
        let e = SiteEncoding::spin(3);
        // 3^4 = 81 valid words over 4 sites.
        let all: Vec<u64> = CodedRange::all(e, 4, None).collect();
        assert_eq!(all.len(), 81);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert!(all.iter().all(|&w| e.is_valid(w, 4)));
        // Fixed code sum: coefficient of x^4 in (1 + x + x²)^4 = 19.
        let sector: Vec<u64> = CodedRange::all(e, 4, Some(4)).collect();
        assert_eq!(sector.len(), 19);
        assert!(sector.iter().all(|&w| e.code_sum(w, 4) == 4));
    }

    #[test]
    fn coded_range_chunks_partition() {
        let e = SiteEncoding::spin(3);
        let n = 5u32;
        for sum in [None, Some(5), Some(0), Some(10)] {
            let full: Vec<u64> = CodedRange::all(e, n, sum).collect();
            let total = 1u64 << e.code_bits(n);
            let chunks = 7u64;
            let mut chunked = Vec::new();
            for c in 0..chunks {
                let lo = c * total / chunks;
                let hi = (c + 1) * total / chunks;
                chunked.extend(CodedRange::new(e, n, sum, lo, hi));
            }
            assert_eq!(full, chunked, "sum = {sum:?}");
        }
    }

    #[test]
    fn word_filling_spin_one_boundary() {
        // 32 spin-1 sites × 2 bits == 64 code bits: the carry out of the
        // top field used to be `1u64 << 64`.
        let e = SiteEncoding::spin(3);
        let n = 32u32;
        assert_eq!(e.code_bits(n), 64);
        // All-ones word: every field holds the invalid code 3. The carry
        // out of the top site leaves the word — no valid word above.
        assert_eq!(e.next_valid(u64::MAX, n), None);
        // Invalid code in the top field only: still nothing above.
        let top_bad = e.deposit(0, n - 1, 3);
        assert_eq!(e.next_valid(top_bad, n), None);
        // The largest *valid* word (code 2 everywhere) is its own
        // successor and is reachable through a bounded range.
        let top = (0..n).fold(0u64, |w, s| e.deposit(w, s, 2));
        assert_eq!(e.next_valid(top, n), Some(top));
        assert!(e.is_valid(top, n));
        let tail: Vec<u64> = CodedRange::new(e, n, None, top - 4, u64::MAX).collect();
        assert_eq!(tail.last(), Some(&top));
        assert!(tail.windows(2).all(|w| w[0] < w[1]));
        assert!(tail.iter().all(|&w| e.is_valid(w, n)));
        // Fixed-charge seek across the top of the space must terminate.
        let full_charge = 2 * n;
        let sector: Vec<u64> =
            CodedRange::new(e, n, Some(full_charge), top - 100, u64::MAX).collect();
        assert_eq!(sector, vec![top]);
    }

    #[test]
    fn word_filling_fermion_boundary() {
        // 64 spin-orbitals × 1 bit == 64 code bits (dense encoding): the
        // all-ones word is a valid state and must not be dropped by the
        // unrepresentable exclusive bound 2^64.
        let e = SiteEncoding::fermion();
        let n = 64u32;
        assert_eq!(e.code_bits(n), 64);
        assert!(e.is_valid(u64::MAX, n));
        assert_eq!(e.next_valid(u64::MAX, n), Some(u64::MAX));
        let tail: Vec<u64> = CodedRange::new(e, n, None, u64::MAX - 3, u64::MAX).collect();
        assert_eq!(tail, vec![u64::MAX - 3, u64::MAX - 2, u64::MAX - 1, u64::MAX]);
        // Fully-occupied charge sector: exactly the all-ones word. (Seek
        // from near the top — the generic weight seek is a linear scan,
        // so starting at 0 would walk the whole 2^64 space.)
        let sector: Vec<u64> =
            CodedRange::new(e, n, Some(64), u64::MAX - 50, u64::MAX).collect();
        assert_eq!(sector, vec![u64::MAX]);
        // An explicit exclusive bound below the sentinel still excludes.
        let bounded: Vec<u64> =
            CodedRange::new(e, n, None, u64::MAX - 3, u64::MAX - 1).collect();
        assert_eq!(bounded, vec![u64::MAX - 3, u64::MAX - 2]);
        // Empty ranges stay empty.
        assert_eq!(CodedRange::new(e, n, None, 5, 0).count(), 0);
        assert_eq!(CodedRange::new(e, n, None, 5, 5).count(), 0);
    }

    #[test]
    fn one_below_word_filling_boundary() {
        // 63 total bits: one bit short of the word — the last pre-overflow
        // width for 1-bit encodings, and 31 spin-1 sites (62 bits) for the
        // 2-bit field. Both must agree with the generic machinery.
        let f = SiteEncoding::fermion();
        assert_eq!(f.code_bits(63), 63);
        let last = low_mask(63);
        assert!(f.is_valid(last, 63));
        assert!(!f.is_valid(last + 1, 63));
        assert_eq!(f.next_valid(last, 63), Some(last));
        assert_eq!(f.next_valid(last + 1, 63), None);
        let tail: Vec<u64> = CodedRange::new(f, 63, None, last - 2, u64::MAX).collect();
        assert_eq!(tail, vec![last - 2, last - 1, last]);

        let e = SiteEncoding::spin(3);
        let n = 31u32;
        let top = (0..n).fold(0u64, |w, s| e.deposit(w, s, 2));
        assert_eq!(e.next_valid(top, n), Some(top));
        assert_eq!(e.next_valid(top + 1, n), None);
        let sector: Vec<u64> =
            CodedRange::new(e, n, Some(2 * n), top.saturating_sub(50), u64::MAX).collect();
        assert_eq!(sector, vec![top]);
    }

    #[test]
    fn coded_range_spin_half_matches_raw_range() {
        let e = SiteEncoding::spin_half();
        let all: Vec<u64> = CodedRange::all(e, 6, None).collect();
        assert_eq!(all, (0..64u64).collect::<Vec<_>>());
        let weighted: Vec<u64> = CodedRange::all(e, 6, Some(3)).collect();
        let gosper: Vec<u64> = crate::bits::FixedWeightRange::all(6, 3).collect();
        assert_eq!(weighted, gosper);
    }
}
