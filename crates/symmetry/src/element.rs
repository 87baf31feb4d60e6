//! Group elements: a site permutation, an optional global spin flip, and a
//! character.

use crate::perm::SitePermutation;
use crate::phase::RationalPhase;
use ls_kernels::bits::low_mask;
use ls_kernels::net::BenesNetwork;
use ls_kernels::Complex64;

/// One element of a symmetry group, with its compiled fast path.
///
/// The action on a basis state is: permute the bits, then (optionally) flip
/// all of them. Global spin inversion commutes with every site permutation,
/// so this normal form is closed under composition.
#[derive(Clone, Debug)]
pub struct GroupElement {
    perm: SitePermutation,
    flip: bool,
    phase: RationalPhase,
    net: BenesNetwork,
    flip_mask: u64,
}

impl GroupElement {
    pub fn new(perm: SitePermutation, flip: bool, phase: RationalPhase) -> Self {
        let net = perm.compile();
        let n = perm.len() as u32;
        let flip_mask = if flip { low_mask(n) } else { 0 };
        Self { perm, flip, phase, net, flip_mask }
    }

    pub fn identity(n_sites: usize) -> Self {
        Self::new(SitePermutation::identity(n_sites), false, RationalPhase::ZERO)
    }

    /// Applies the element to a basis state (Benes network + flip mask).
    #[inline]
    pub fn apply(&self, s: u64) -> u64 {
        self.net.apply(s) ^ self.flip_mask
    }

    /// Applies only the permutation part (no spin flip). Used when
    /// conjugating operator kernels, where the flip is handled separately.
    #[inline]
    pub fn apply_permutation(&self, s: u64) -> u64 {
        self.net.apply(s)
    }

    /// The compiled network of the permutation part, for callers that
    /// derive their own tables from its stages.
    pub fn network(&self) -> &BenesNetwork {
        &self.net
    }

    /// The character `χ(g)` of this element.
    #[inline]
    pub fn character(&self) -> Complex64 {
        self.phase.to_c64()
    }

    /// The exact phase of the character.
    #[inline]
    pub fn phase(&self) -> RationalPhase {
        self.phase
    }

    pub fn permutation(&self) -> &SitePermutation {
        &self.perm
    }

    pub fn has_flip(&self) -> bool {
        self.flip
    }

    pub fn is_identity_action(&self) -> bool {
        self.perm.is_identity() && !self.flip
    }

    pub fn n_sites(&self) -> usize {
        self.perm.len()
    }

    /// Group composition: apply `self`, then `other`. Characters multiply.
    pub fn then(&self, other: &Self) -> Self {
        assert_eq!(self.n_sites(), other.n_sites());
        Self::new(
            self.perm.then(&other.perm),
            self.flip ^ other.flip,
            self.phase.add(other.phase),
        )
    }

    /// The key identifying the element's *action* (ignoring the character),
    /// used for deduplication during group closure.
    pub fn action_key(&self) -> (Vec<u16>, bool) {
        (self.perm.as_slice().to_vec(), self.flip)
    }

    /// Order of the action (smallest k with action^k = identity).
    pub fn action_order(&self) -> u64 {
        let p = self.perm.order();
        if self.flip {
            // (π, flip)^k = (π^k, flip^k); need π^k = id and k even.
            if p.is_multiple_of(2) {
                p
            } else {
                2 * p
            }
        } else {
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn translation(n: usize) -> SitePermutation {
        SitePermutation::new((0..n as u16).map(|i| (i + 1) % n as u16).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn apply_with_flip() {
        let g = GroupElement::new(SitePermutation::identity(4), true, RationalPhase::ZERO);
        assert_eq!(g.apply(0b0000), 0b1111);
        assert_eq!(g.apply(0b1010), 0b0101);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let t = GroupElement::new(translation(6), false, RationalPhase::new(1, 6));
        let i = GroupElement::new(SitePermutation::identity(6), true, RationalPhase::HALF);
        let ti = t.then(&i);
        for s in 0..64u64 {
            assert_eq!(ti.apply(s), i.apply(t.apply(s)));
        }
        // Characters multiplied: exp(-2πi/6)·exp(-iπ) = exp(-2πi·(1/6+1/2)).
        assert_eq!(ti.phase(), RationalPhase::new(2, 3));
    }

    #[test]
    fn orders() {
        let t = GroupElement::new(translation(6), false, RationalPhase::ZERO);
        assert_eq!(t.action_order(), 6);
        let f = GroupElement::new(SitePermutation::identity(6), true, RationalPhase::ZERO);
        assert_eq!(f.action_order(), 2);
        let tf = t.then(&f);
        assert_eq!(tf.action_order(), 6); // π order 6 (even), flip absorbed
        let t5 = GroupElement::new(translation(5), false, RationalPhase::ZERO);
        let t5f = t5.then(&GroupElement::new(
            SitePermutation::identity(5),
            true,
            RationalPhase::ZERO,
        ));
        assert_eq!(t5f.action_order(), 10); // odd-order π with flip doubles
    }

    #[test]
    fn flip_commutes_with_permutation() {
        let n = 8;
        let t = translation(n);
        let tf = GroupElement::new(t.clone(), true, RationalPhase::ZERO);
        for s in 0..256u64 {
            let a = tf.apply(s);
            let b = t.apply_naive(s ^ ls_kernels::bits::low_mask(n as u32));
            assert_eq!(a, b);
        }
    }
}
