//! The hash index's probe lengths on the state lists it serves: the
//! symmetrized chains of 16 to 28 sites, their hashed parts on 2 and 4
//! locales, a spin-1 sector, a momentum sector and two synthetic lists. A
//! weak hash, or one that shares bits with the owner hash `locale_idx_of`,
//! shows here as long probe sequences.

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
    println!("{name}: {} states, mean {mean:.3}, max {max}", states.len());
    assert!(mean <= 1.6 && max <= 32, "{name}: mean {mean:.3}, max {max}");
}

/// The fully symmetrized `n`-site ring at half filling, and its hashed
/// parts on 2 and 4 locales.
fn assert_chain_and_parts_short(n: u32) {
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

#[test]
fn sectors_and_their_parts_probe_short() {
    for n in [16u32, 20, 24] {
        assert_chain_and_parts_short(n);
    }
    let spin1 = SpinBasis::build(SectorSpec::spin_s(10, 3, Some(10)).unwrap());
    assert_short("spin-1, 10 sites", spin1.states());
    let group = chain_group(20, 5, None, None).unwrap();
    let momentum = SpinBasis::build(SectorSpec::new(20, Some(10), group).unwrap());
    assert_short("chain 20, k = 5", momentum.states());
}

/// Release only (CI's bit-pins step runs it with `--ignored`). Plain
/// linear probing at load ½ read max 34 here, on the whole ring and on
/// part 0 of 4; Robin Hood placement in `HashIndex::new` reads 8–12 at the
/// same mean (1.40–1.47).
#[test]
#[ignore = "release only: 28-site enumeration"]
fn the_28_site_chain_and_its_parts_probe_short() {
    assert_chain_and_parts_short(28);
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
