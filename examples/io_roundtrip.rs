//! I/O via the block distribution (paper Sec. 5.1): wavefunctions live in
//! the hashed distribution during the computation and are converted with
//! the Fig. 3 algorithm for writing to disk. The roundtrip is bit-exact —
//! the property the paper verifies in Sec. 6.1.
//!
//! ```sh
//! cargo run --release --example io_roundtrip
//! ```

use exact_diag::basis::{SectorSpec, SymmetrizedOperator};
use exact_diag::core::io;
use exact_diag::dist::{enumerate_dist, DistOp, PcOptions};
use exact_diag::eigen::lanczos_smallest_in;
use exact_diag::prelude::*;
use exact_diag::runtime::{Cluster, ClusterSpec, DistVec};

fn main() {
    let n = 16usize;
    let locales = 3usize;
    let cluster = Cluster::new(ClusterSpec::new(locales, 2));

    // Build the distributed problem and compute the ground state.
    let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
    let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = enumerate_dist(&cluster, &sector, 8);
    println!("distributed basis: dim {} over {locales} locales", basis.dim());

    let dist_op = DistOp::new(&cluster, &op, &basis, PcOptions::default());
    let res = lanczos_smallest_in(&dist_op, 1, &LanczosOptions::default());
    println!("E0 = {:.12}", res.eigenvalues[0]);

    // Make a deterministic hashed-distributed vector (e.g. |+...+>-ish).
    let hashed = DistVec::<f64>::from_parts(
        basis
            .states()
            .parts()
            .iter()
            .map(|p| p.iter().map(|&s| ((s as f64) * 1e-3).sin()).collect())
            .collect(),
    );

    // hashed -> block -> file.
    let dir = std::env::temp_dir();
    let vec_path = dir.join(format!("ls_example_vector_{}.lsrs", std::process::id()));
    let basis_path = dir.join(format!("ls_example_basis_{}.lsrs", std::process::id()));
    io::save_hashed_vector(&vec_path, &cluster, &basis, &hashed).unwrap();
    println!("wrote {}", vec_path.display());

    // Save the basis too (states in canonical global order).
    let canonical = io::hashed_vector_to_block(&cluster, &basis, &hashed);
    let mut all_states: Vec<u64> = basis.states().parts().iter().flatten().copied().collect();
    all_states.sort_unstable();
    let orbit_by_state: std::collections::HashMap<u64, u32> = basis
        .states()
        .parts()
        .iter()
        .zip(basis.orbit_sizes().parts())
        .flat_map(|(s, o)| s.iter().copied().zip(o.iter().copied()))
        .collect();
    let orbits: Vec<u32> = all_states.iter().map(|s| orbit_by_state[s]).collect();
    io::save_basis(&basis_path, n as u32, Some(n as u32 / 2), &all_states, &orbits).unwrap();
    println!("wrote {}", basis_path.display());

    // Read back and verify bit-exactness against the canonical gather.
    let loaded: Vec<f64> = io::load_vector(&vec_path).unwrap();
    assert_eq!(loaded.len() as u64, basis.dim());
    assert_eq!(loaded, canonical, "vector roundtrip must be bit-exact");

    let loaded_basis = io::load_basis(&basis_path).unwrap();
    assert_eq!(loaded_basis.states, all_states);
    assert_eq!(loaded_basis.n_sites, n as u32);

    // And the values line up with the hashed originals state-by-state.
    for (global_idx, &s) in all_states.iter().enumerate() {
        let l = basis.owner(s);
        let i = basis.index_on(l, s).unwrap();
        assert_eq!(loaded[global_idx], hashed.part(l)[i]);
    }
    println!("roundtrip hashed -> block -> disk -> memory: bit-exact ✓");

    std::fs::remove_file(&vec_path).ok();
    std::fs::remove_file(&basis_path).ok();
}
