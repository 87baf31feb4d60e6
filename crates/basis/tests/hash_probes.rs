//! The hash index's probe lengths on the state lists it serves: the
//! symmetrized chains, their hashed parts on 2 and 4 locales, a spin-1
//! sector, a momentum sector and two synthetic lists. A weak hash, or one
//! that shares bits with the owner hash `locale_idx_of`, shows here as
//! long probe sequences.

use ls_basis::{SectorSpec, SpinBasis};
use ls_kernels::locale_idx_of;
use ls_kernels::search::HashIndex;
use ls_symmetry::lattice::chain_group;

/// Mean and maximum slots examined to find each of `states`.
fn probes(states: &[u64]) -> (f64, usize) {
    let lengths: Vec<usize> = HashIndex::new(states, 64).probe_lengths(states).collect();
    assert_eq!(lengths.len(), states.len());
    let mean = lengths.iter().sum::<usize>() as f64 / lengths.len().max(1) as f64;
    (mean, lengths.into_iter().max().unwrap_or(0))
}

fn assert_short(name: &str, states: &[u64]) {
    let (mean, max) = probes(states);
    assert!(mean <= 1.6 && max <= 32, "{name}: mean {mean:.3}, max {max}");
}

#[test]
fn sectors_and_their_parts_probe_short() {
    for n in [16u32, 20, 24] {
        let group = chain_group(n as usize, 0, Some(0), Some(0)).unwrap();
        let basis = SpinBasis::build(SectorSpec::new(n, Some(n / 2), group).unwrap());
        assert_short(&format!("chain {n}"), basis.states());
        for locales in [2usize, 4] {
            for l in 0..locales {
                let part: Vec<u64> = basis
                    .states()
                    .iter()
                    .copied()
                    .filter(|&s| locale_idx_of(s, locales) == l)
                    .collect();
                assert_short(&format!("chain {n}, part {l} of {locales}"), &part);
            }
        }
    }
    let spin1 = SpinBasis::build(SectorSpec::spin_s(10, 3, Some(10)).unwrap());
    assert_short("spin-1, 10 sites", spin1.states());
    let group = chain_group(20, 5, None, None).unwrap();
    let momentum = SpinBasis::build(SectorSpec::new(20, Some(10), group).unwrap());
    assert_short("chain 20, k = 5", momentum.states());
}

#[test]
fn arithmetic_lists_probe_short() {
    let dense: Vec<u64> = (0..100_000).collect();
    let strided: Vec<u64> = (0..100_000).map(|i| i << 20).collect();
    for (name, states) in [("0..1e5", dense), ("i << 20", strided)] {
        let (mean, _) = probes(&states);
        assert!(mean <= 4.0, "{name}: mean {mean:.3}");
    }
}
