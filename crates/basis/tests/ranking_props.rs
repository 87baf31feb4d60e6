//! Property tests of `state -> index` ranking on the sectors that rank in
//! closed form: the closed form, and a hash index built over the same
//! list, both give the position in the sorted state list, for members,
//! near-misses and arbitrary words alike.

use ls_basis::{SectorSpec, SpinBasis};
use ls_kernels::search::{HashIndex, NOT_FOUND};
use proptest::prelude::*;

/// Members, members with one bit flipped or one particle moved to the
/// other half of the word, and `words`.
fn probes(basis: &SpinBasis, words: &[u64]) -> Vec<u64> {
    let n = basis.sector().n_sites();
    let mut out = basis.states().to_vec();
    for (&s, &w) in basis.states().iter().zip(words.iter().cycle()) {
        let (a, b) = ((w % n as u64) as u32, ((w >> 8) % n as u64) as u32);
        out.push(s ^ 1 << a);
        out.push(s ^ 1 << a ^ 1 << b);
        out.push(s | 1 << ((n + a) % 64));
    }
    out.extend(words);
    out.extend([0, u64::MAX]);
    out
}

fn check(sector: SectorSpec, words: &[u64]) -> Result<(), String> {
    let basis = SpinBasis::build(sector);
    prop_assert!(basis.ranks_in_closed_form());
    prop_assert_eq!(basis.dim() as u64, basis.sector().dimension());
    let states = basis.states();
    let hash = HashIndex::new(states, basis.sector().code_bits());
    let probes = probes(&basis, words);
    let (mut own, mut searched) = (Vec::new(), Vec::new());
    basis.index_of_batch(&probes, &mut own);
    hash.lookup_batch(states, &probes, &mut searched);
    for (k, &p) in probes.iter().enumerate() {
        let expect = states.binary_search(&p).ok();
        prop_assert_eq!(basis.index_of(p), expect, "closed form, probe {:#x}", p);
        prop_assert_eq!(hash.lookup(states, p), expect, "hash index, probe {:#x}", p);
        prop_assert_eq!(own[k], expect.map_or(NOT_FOUND, |i| i as u32), "batch {:#x}", p);
        prop_assert_eq!(searched[k], own[k], "hash batch {:#x}", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spinful_fermion_rankings_agree(
        n_phys in 1u32..=8,
        fill in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let n_up = (fill % (n_phys as u64 + 1)) as u32;
        let n_dn = ((fill >> 8) % (n_phys as u64 + 1)) as u32;
        check(SectorSpec::spinful_fermions(n_phys, n_up, n_dn).unwrap(), &words)?;
    }

    #[test]
    fn u1_rankings_agree(
        n in 1u32..=16,
        fill in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let w = (fill % (n as u64 + 1)) as u32;
        check(SectorSpec::with_weight(n, w).unwrap(), &words)?;
    }
}
