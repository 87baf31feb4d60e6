//! Binary I/O for bases, wavefunctions and solver checkpoints.
//!
//! The paper keeps vectors in the hashed distribution internally and
//! converts to the block distribution for I/O (Sec. 5.1); the same flow
//! is available here: [`save_hashed_vector`] converts via
//! [`ls_dist::hashed_to_block`] and writes the block parts in locale
//! order, which yields a canonical on-disk representation independent of
//! the locale count.
//!
//! Every file is one sealed record of `ls_eigen::record`, the codec whose
//! public items this module re-exports: vectors and bases (magic `LSRS`,
//! [`save_vector`] / [`save_basis`]), checkpoints (magic `LSCK`) and
//! rotation manifests (magic `LSMF`). Writes are atomic, both the header
//! and the payload carry a CRC32C, and loads stream. The `LSRS` loads
//! return `io::Result`: a missing file stays `NotFound`, and anything else
//! is `InvalidData` around the typed [`FileError`].
//!
//! Thick-restart Lanczos checkpoints (bit-identical resume) handle both
//! `Vec<S>` and hashed `DistVec<S>` storage through [`save_checkpoint`] /
//! [`load_checkpoint`]. Rotated keep-last-K checkpoints (an `LSMF`
//! manifest plus `.g<N>` generation files) use
//! [`save_checkpoint_rotated`] / [`load_latest_checkpoint`]; the latter
//! also reads plain single-file checkpoints, so callers can migrate by
//! switching the load path alone.

use ls_dist::DistSpinBasis;
use ls_kernels::Scalar;
use ls_runtime::{Cluster, DistVec};
use std::io;
use std::path::Path;

pub use ls_eigen::checkpoint::{
    generation_path, load_checkpoint, load_latest_checkpoint, manifest_generations,
    remove_checkpoint, save_checkpoint, save_checkpoint_rotated, CheckpointState,
};
pub use ls_eigen::record::{
    load_basis, load_vector, save_basis, save_vector, FileError, LoadedBasis,
};
pub use ls_eigen::restart::CheckpointPolicy;

/// Converts a hashed-distributed vector to the block distribution (the
/// paper's Fig. 3 algorithm) and writes it as one canonical file.
pub fn save_hashed_vector<S: Scalar>(
    path: &Path,
    cluster: &Cluster,
    basis: &DistSpinBasis,
    hashed: &DistVec<S>,
) -> io::Result<()> {
    let block = hashed_vector_to_block(cluster, basis, hashed);
    save_vector(path, &block)
}

/// Gathers a hashed vector into the canonical (global basis order) dense
/// form via the block distribution.
pub fn hashed_vector_to_block<S: Scalar>(
    cluster: &Cluster,
    basis: &DistSpinBasis,
    hashed: &DistVec<S>,
) -> Vec<S> {
    // The states in global order (each lives on exactly one locale, so the
    // parts' union, sorted) and the masks that say which locale holds each.
    let mut all_states: Vec<u64> =
        (0..basis.n_locales()).flat_map(|l| basis.states().part(l).iter().copied()).collect();
    all_states.sort_unstable();
    let masks: Vec<u16> = all_states.iter().map(|&s| basis.owner(s) as u16).collect();
    let masks_block = ls_dist::convert::to_block(&masks, cluster.n_locales());
    let block = ls_dist::hashed_to_block(cluster, hashed, &masks_block, 4);
    block.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_kernels::Complex64;
    use std::fs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ls_core_io_{}_{name}", std::process::id()));
        p
    }

    /// The typed error inside a failed load.
    fn typed(err: io::Error) -> FileError {
        match err.get_ref().is_some_and(|e| e.is::<FileError>()) {
            true => *err.into_inner().unwrap().downcast().unwrap(),
            false => FileError::Io(err),
        }
    }

    #[test]
    fn vector_roundtrip_f64() {
        let path = tmp("vec_f64");
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        save_vector(&path, &data).unwrap();
        let back: Vec<f64> = load_vector(&path).unwrap();
        assert_eq!(data, back); // bit-exact
        fs::remove_file(&path).ok();
    }

    #[test]
    fn vector_roundtrip_complex() {
        let path = tmp("vec_c64");
        let data: Vec<Complex64> =
            (0..257).map(|i| Complex64::new(i as f64, -(i as f64) / 3.0)).collect();
        save_vector(&path, &data).unwrap();
        let back: Vec<Complex64> = load_vector(&path).unwrap();
        assert_eq!(data, back);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn scalar_width_mismatch_rejected() {
        let path = tmp("vec_width");
        save_vector::<f64>(&path, &[1.0, 2.0]).unwrap();
        assert!(matches!(
            typed(load_vector::<Complex64>(&path).unwrap_err()),
            FileError::ScalarWidthMismatch { found: 1, expected: 2 }
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn basis_roundtrip() {
        let path = tmp("basis");
        let states = vec![0b0011u64, 0b0101, 0b1001];
        let orbits = vec![4u32, 2, 4];
        save_basis(&path, 4, Some(2), &states, &orbits).unwrap();
        let back = load_basis(&path).unwrap();
        assert_eq!(back.n_sites, 4);
        assert_eq!(back.hamming_weight, Some(2));
        assert_eq!(back.states, states);
        assert_eq!(back.orbit_sizes, orbits);
        save_basis(&path, 4, None, &states, &orbits).unwrap();
        assert_eq!(load_basis(&path).unwrap().hamming_weight, None);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_files_rejected() {
        let path = tmp("corrupt");
        fs::write(&path, b"not a valid file").unwrap();
        assert!(load_vector::<f64>(&path).is_err());
        assert!(load_basis(&path).is_err());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_byte_is_an_error_not_a_panic() {
        // Historical bug: a file cut inside the header (e.g. 13 bytes)
        // panicked in the unchecked reads. Every prefix must now come
        // back as a typed error.
        let path = tmp("trunc_every");
        let cut_path = tmp("trunc_every_cut");
        let data: Vec<f64> = (0..16).map(|i| i as f64 * 0.25).collect();
        save_vector(&path, &data).unwrap();
        let good = fs::read(&path).unwrap();
        for cut in 0..good.len() {
            fs::write(&cut_path, &good[..cut]).unwrap();
            std::panic::catch_unwind(|| load_vector::<f64>(&cut_path))
                .expect("load must not panic")
                .expect_err("truncated file must be rejected");
        }
        save_basis(&path, 4, None, &[1, 2], &[1, 1]).unwrap();
        let good = fs::read(&path).unwrap();
        for cut in 0..good.len() {
            fs::write(&cut_path, &good[..cut]).unwrap();
            std::panic::catch_unwind(|| load_basis(&cut_path))
                .expect("load must not panic")
                .expect_err("truncated file must be rejected");
        }
        fs::remove_file(&path).ok();
        fs::remove_file(&cut_path).ok();
    }

    #[test]
    fn typed_errors_identify_the_failure() {
        let path = tmp("typed");
        save_basis(&path, 4, Some(2), &[0b0011], &[4]).unwrap();
        // A basis payload loaded as a vector is WrongKind.
        assert!(matches!(
            typed(load_vector::<f64>(&path).unwrap_err()),
            FileError::WrongKind { found: 2, expected: 1 }
        ));
        fs::write(&path, b"LS").unwrap();
        assert!(matches!(
            typed(load_vector::<f64>(&path).unwrap_err()),
            FileError::Truncated { needed: 24, available: 2 }
        ));
        fs::write(&path, [0u8; 64]).unwrap();
        assert!(matches!(
            typed(load_vector::<f64>(&path).unwrap_err()),
            FileError::BadMagic([0, 0, 0, 0])
        ));
        // A missing file stays an I/O error of its own kind.
        let err =
            load_basis(&std::path::PathBuf::from(&path).with_extension("missing")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        save_vector::<f64>(&path, &[1.0]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        fs::write(&path, &bytes).unwrap();
        let err = load_vector::<f64>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.get_ref().unwrap().is::<FileError>());
        fs::remove_file(&path).ok();
    }
}
