//! Versioned, checksummed checkpoints for the thick-restart Lanczos
//! solver ([`crate::restart`]).
//!
//! A checkpoint captures the compressed solver state at a restart
//! boundary — the retained Ritz basis plus the chain seed, the projected
//! coefficients (`θ`, border `s`), the restart counter and the RNG draw
//! counter — which is everything needed to resume a killed solve
//! **bit-identically**: vectors are stored as exact lanes in canonical
//! global element order, so the resumed in-memory state equals the
//! uninterrupted one to the last bit.
//!
//! A checkpoint is one sealed [`crate::record`] of magic `LSCK`, version
//! 3, whose payload is (little-endian)
//!
//! ```text
//! kind:u32 lanes:u32 width:u32
//! k:u64 budget:u64 restarts:u64 draws:u64 breakdowns:u64 retained:u64
//! nparts:u64 part_len:u64 × nparts
//! diag:f64 × retained  border:f64 × retained
//! (retained + 1) vectors × Σpart_len elements × lanes × width bytes  (global element order)
//! ```
//!
//! `kind` is [`KrylovVec::STORAGE_KIND`] (dense = 1, distributed = 2):
//! loading a checkpoint into a different storage is a typed error, as is
//! a layout (part-length) mismatch — resuming on a different locale
//! partition would change reduction order and break bit-identity.
//! `lanes` is reals per element (1 real, 2 complex) and `width` bytes
//! per real lane, always 8: every lane is an exact f64, and a file that
//! declares another width is refused as [`FileError::Malformed`].
//! The record codec writes atomically and streams both ways, so neither a
//! save nor a load holds a second copy of the vectors.

use crate::record::{self, FileError, Reader};
use crate::vector::{KrylovOp, KrylovVec};
use ls_kernels::Scalar;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"LSCK";
const VERSION: u32 = 3;
/// Bytes per real lane of a stored element: an exact f64.
const LANE_WIDTH: u32 = 8;

/// Solver state at a restart boundary (see [`crate::restart`] for the
/// invariants: `basis` holds `retained` locked Ritz vectors followed by
/// one chain-seed vector, `diag`/`border` are the projected arrowhead).
#[derive(Clone, Debug)]
pub struct CheckpointState<V> {
    /// Number of wanted eigenpairs the checkpointed solve was asked for.
    pub k: usize,
    /// Total vector budget (`k + extra`) of the checkpointed solve.
    pub budget: usize,
    /// Restart cycles completed so far (cumulative across resumes).
    pub restarts: usize,
    /// Random vectors drawn so far (start vector + breakdown re-seeds).
    pub draws: u64,
    /// Exact-breakdown events so far (cumulative across resumes): the
    /// solver's multiplicity-recovery rule compares this against `k`, so
    /// a resume must replay the same count to stay bit-identical.
    pub breakdowns: u64,
    /// Number of locked Ritz vectors at the front of `basis`.
    pub retained: usize,
    /// Ritz values of the locked vectors (`retained` entries).
    pub diag: Vec<f64>,
    /// Arrowhead border coupling each locked vector to the chain seed.
    pub border: Vec<f64>,
    /// `retained + 1` vectors: the locked Ritz basis, then the chain seed.
    pub basis: Vec<V>,
}

/// Writes a checkpoint atomically, so an interrupted write never destroys
/// the previous one.
pub fn save_checkpoint<V: KrylovVec>(
    path: &Path,
    state: &CheckpointState<V>,
) -> io::Result<()> {
    assert_eq!(state.diag.len(), state.retained, "diag length != retained count");
    assert_eq!(state.border.len(), state.retained, "border length != retained count");
    assert_eq!(state.basis.len(), state.retained + 1, "basis must hold retained + 1 vectors");
    let layout = state.basis[0].layout();
    let dim: usize = layout.iter().sum();
    let lanes = V::Scalar::N_REALS;
    let (k, budget, restarts, retained) =
        (state.k as u64, state.budget as u64, state.restarts as u64, state.retained as u64);
    let mut counts = vec![k, budget, restarts, state.draws, state.breakdowns, retained];
    counts.push(layout.len() as u64);
    counts.extend(layout.iter().map(|&l| l as u64));
    let vectors = state.basis.len() * dim * lanes * LANE_WIDTH as usize;
    let len = 3 * 4 + 8 * counts.len() + 16 * state.retained + vectors;
    record::write(path, MAGIC, VERSION, len as u64, |w| {
        w.put_u32(V::STORAGE_KIND);
        w.put_u32(lanes as u32);
        w.put_u32(LANE_WIDTH);
        counts.iter().for_each(|&n| w.put_u64(n));
        for &x in state.diag.iter().chain(&state.border) {
            w.put_f64(x);
        }
        for v in &state.basis {
            debug_assert_eq!(v.layout(), layout, "checkpointed vectors must share one layout");
            v.visit(&mut |x| w.put_scalar(x));
        }
    })
}

// ---- keep-last-K rotation ------------------------------------------------
//
// With `keep > 1` the checkpoint path holds a tiny *manifest* (magic
// `LSMF`, version 2, payload `count:u64 generation:u64 × count`) instead
// of the state itself; the state lives in sibling generation files
// `<filename>.g<restarts>`. Ordering makes the scheme crash-consistent: a
// generation file is fully written (atomically) *before* the manifest
// that mentions it, so the manifest never points at bytes that do not
// exist, and a crash between the two writes merely leaves an extra
// generation on disk. Because resumes are bit-identical from any cycle,
// falling back to an older valid generation (after corruption of the
// newest) changes nothing about the final eigenvalues.

const MANIFEST_MAGIC: &[u8; 4] = b"LSMF";
const MANIFEST_VERSION: u32 = 2;

/// The sibling file holding generation `gen` of the rotated checkpoint
/// at `path`.
pub fn generation_path(path: &Path, gen: u64) -> PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!("{name}.g{gen}"))
}

/// The generations a rotated checkpoint at `path` currently advertises,
/// oldest first. A plain (non-rotated) checkpoint reports
/// [`FileError::BadMagic`].
pub fn manifest_generations(path: &Path) -> Result<Vec<u64>, FileError> {
    record::read(path, MANIFEST_MAGIC, MANIFEST_VERSION, |r| {
        let count = r.get_u64();
        r.need(count, 8)?;
        Ok((0..count as usize).map(|_| r.get_u64()).collect())
    })
}

/// Every file beside `path` named `<file name>.<suffix>`, with its suffix.
fn siblings(path: &Path) -> Vec<(PathBuf, String)> {
    let Some(name) = path.file_name() else { return Vec::new() };
    let prefix = format!("{}.", name.to_string_lossy());
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| {
            let suffix = e.file_name().to_string_lossy().strip_prefix(&prefix)?.to_owned();
            Some((e.path(), suffix))
        })
        .collect()
}

/// The generation a sibling suffix `g<N>` names.
fn generation(suffix: &str) -> Option<u64> {
    suffix.strip_prefix('g')?.parse().ok()
}

/// Every `<filename>.g<N>` sibling actually on disk, newest first — the
/// recovery path when the manifest itself is torn or missing.
fn scan_generations(path: &Path) -> Vec<u64> {
    let mut gens: Vec<u64> = siblings(path).iter().filter_map(|(_, s)| generation(s)).collect();
    gens.sort_unstable_by(|a, b| b.cmp(a));
    gens.dedup();
    gens
}

/// Saves one generation of a keep-last-`keep` rotated checkpoint: writes
/// the state to its generation file, then atomically updates the
/// manifest at `path`, then prunes generations that fell out of the
/// window (best-effort). `keep == 1` still goes through the manifest so
/// a job's rotation mode is consistent; use [`save_checkpoint`] for the
/// plain single-file format.
pub fn save_checkpoint_rotated<V: KrylovVec>(
    path: &Path,
    state: &CheckpointState<V>,
    keep: usize,
) -> io::Result<()> {
    let gen = state.restarts as u64;
    save_checkpoint(&generation_path(path, gen), state)?;

    // Merge with whatever the manifest (or, failing that, the directory)
    // already knows, keep the newest `keep`.
    let mut gens = manifest_generations(path).unwrap_or_else(|_| scan_generations(path));
    if !gens.contains(&gen) {
        gens.push(gen);
    }
    gens.sort_unstable();
    let pruned: Vec<u64> = gens.drain(..gens.len().saturating_sub(keep.max(1))).collect();
    let len = 8 * (gens.len() as u64 + 1);
    record::write(path, MANIFEST_MAGIC, MANIFEST_VERSION, len, |w| {
        w.put_u64(gens.len() as u64);
        gens.iter().for_each(|&g| w.put_u64(g));
    })?;
    for old in pruned {
        let _ = fs::remove_file(generation_path(path, old));
    }
    Ok(())
}

/// Loads the newest valid checkpoint reachable from `path`, whatever its
/// format:
///
/// * a plain `LSCK` file loads directly ([`load_checkpoint`]);
/// * a rotated `LSMF` manifest tries its generations newest-first,
///   falling back past corrupt or missing ones — a crash mid-write
///   strands at most the newest generation, never the job;
/// * a torn manifest falls back to scanning the directory for
///   generation files.
///
/// The error returned when nothing loads is the most recent failure.
pub fn load_latest_checkpoint<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    path: &Path,
    op: &Op,
) -> Result<CheckpointState<V>, FileError> {
    let mut gens = match manifest_generations(path) {
        Ok(gens) => gens,
        Err(FileError::BadMagic(_) | FileError::Io(_)) => return load_checkpoint(path, op),
        Err(_) => Vec::new(),
    };
    // Union with the directory: a crash after writing a generation but
    // before the manifest leaves a newer-than-advertised file that is
    // perfectly valid to resume from; a torn manifest leaves only files.
    gens.extend(scan_generations(path));
    gens.sort_unstable_by(|a, b| b.cmp(a));
    gens.dedup();
    let mut last_err = None;
    for gen in gens {
        match load_checkpoint(&generation_path(path, gen), op) {
            Ok(state) => return Ok(state),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        FileError::Malformed("rotated checkpoint manifest with no generations on disk".into())
    }))
}

/// Removes a checkpoint with all of its generation files and the temp
/// files a killed write left behind — the `--fresh` path of restartable
/// programs.
pub fn remove_checkpoint(path: &Path) -> io::Result<()> {
    for (file, suffix) in siblings(path) {
        let written = suffix.split_once(".tmp.").map_or(suffix.as_str(), |(s, _)| s);
        if suffix.starts_with("tmp.") || generation(written).is_some() {
            let _ = fs::remove_file(file);
        }
    }
    match fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

/// Loads and validates a checkpoint, rebuilding the basis vectors in the
/// operator's own storage (`op.new_vec()` + element-order fill). The
/// checkpoint must match the operator: same storage kind, same scalar
/// lanes, same part layout — anything else is a typed error, because a
/// resume that silently reinterprets or repartitions the state cannot be
/// bit-identical to the uninterrupted solve.
pub fn load_checkpoint<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    path: &Path,
    op: &Op,
) -> Result<CheckpointState<V>, FileError> {
    record::read(path, MAGIC, VERSION, |r| read_state(r, op))
}

fn read_state<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    r: &mut Reader,
    op: &Op,
) -> Result<CheckpointState<V>, FileError> {
    let (kind, lanes, width) = (r.get_u32(), r.get_u32(), r.get_u32());
    if kind != V::STORAGE_KIND {
        return Err(FileError::WrongKind { found: kind, expected: V::STORAGE_KIND });
    }
    if width != LANE_WIDTH {
        return Err(FileError::Malformed(format!("{width}-byte lanes, expected {LANE_WIDTH}")));
    }
    if lanes as usize != V::Scalar::N_REALS {
        return Err(FileError::ScalarWidthMismatch {
            found: lanes,
            expected: V::Scalar::N_REALS as u32,
        });
    }
    let [k, budget, restarts] = [(); 3].map(|_| r.get_u64() as usize);
    let (draws, breakdowns, retained) = (r.get_u64(), r.get_u64(), r.get_u64() as usize);
    if retained > budget || k > budget {
        return Err(FileError::Malformed(format!(
            "retained {retained} / k {k} exceed budget {budget}"
        )));
    }
    let nparts = r.get_u64();
    r.need(nparts, 8)?;
    let layout: Vec<usize> = (0..nparts).map(|_| r.get_u64() as usize).collect();
    // The operator's layout comes with the first vector: a load allocates
    // the vectors it returns and no other of their size.
    let first = op.new_vec();
    let expected = first.layout();
    if layout != expected {
        return Err(FileError::LayoutMismatch { found: layout, expected });
    }
    r.need(retained as u64, 16)?;
    let diag: Vec<f64> = (0..retained).map(|_| r.get_f64()).collect();
    let border: Vec<f64> = (0..retained).map(|_| r.get_f64()).collect();
    let dim: usize = layout.iter().sum();
    r.need(retained as u64 + 1, (dim * lanes as usize * LANE_WIDTH as usize) as u64)?;
    let mut basis = vec![first];
    basis.extend((0..retained).map(|_| op.new_vec()));
    for v in &mut basis {
        v.fill_with(&mut |_| r.get_scalar());
        r.check()?;
    }
    Ok(CheckpointState {
        k,
        budget,
        restarts,
        draws,
        breakdowns,
        retained,
        diag,
        border,
        basis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DenseOp;
    use ls_runtime::DistVec;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ls_eigen_ckpt_{}_{name}.lsck", std::process::id()));
        p
    }

    fn sample_state(dim: usize) -> CheckpointState<Vec<f64>> {
        let mk = |s: f64| (0..dim).map(|i| (i as f64 * s).sin()).collect::<Vec<f64>>();
        CheckpointState {
            k: 2,
            budget: 12,
            restarts: 5,
            draws: 3,
            breakdowns: 1,
            retained: 2,
            diag: vec![-1.5, -0.25],
            border: vec![1e-3, -2e-4],
            basis: vec![mk(0.1), mk(0.2), mk(0.3)],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let path = tmp("roundtrip");
        let dim = 97;
        let st = sample_state(dim);
        save_checkpoint(&path, &st).unwrap();
        let op = DenseOp::new(dim, vec![0.0; dim * dim]);
        let back = load_checkpoint::<Vec<f64>, _>(&path, &op).unwrap();
        assert_eq!(back.k, st.k);
        assert_eq!(back.budget, st.budget);
        assert_eq!(back.restarts, st.restarts);
        assert_eq!(back.draws, st.draws);
        assert_eq!(back.breakdowns, st.breakdowns);
        assert_eq!(back.retained, st.retained);
        assert_eq!(back.diag, st.diag);
        assert_eq!(back.border, st.border);
        assert_eq!(back.basis, st.basis); // f64 bit equality via PartialEq
        std::fs::remove_file(&path).ok();
    }

    /// A distributed `f64` operator of the given layout.
    struct DistZero(Vec<usize>);

    impl KrylovOp<DistVec<f64>> for DistZero {
        fn dim(&self) -> usize {
            self.0.iter().sum()
        }
        fn new_vec(&self) -> DistVec<f64> {
            DistVec::zeros(&self.0)
        }
        fn apply(&self, _x: &DistVec<f64>, _y: &mut DistVec<f64>) {}
    }

    #[test]
    fn wrong_storage_kind_rejected() {
        let path = tmp("kind");
        let dim = 16;
        save_checkpoint(&path, &sample_state(dim)).unwrap();
        // A distributed operator with the same total dimension.
        let op = DistZero(vec![8, 8]);
        match load_checkpoint::<DistVec<f64>, _>(&path, &op) {
            Err(FileError::WrongKind { found: 1, expected: 2 }) => {}
            other => panic!("expected WrongKind, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Sealed records built by hand with the writer `save_checkpoint`
    /// uses, each a well-formed payload for the lanes it declares: the
    /// 4-byte storages of an f32 solve (kinds 3 and 4), 4-byte lanes
    /// under kind 1, and 16-byte lanes. Every one is refused with a typed
    /// error by the dense and the distributed loader, never loaded and
    /// never a panic; and a saved checkpoint still declares 8-byte lanes.
    #[test]
    fn foreign_lane_widths_are_typed_errors() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let path = tmp("foreign_width");
        let lens = [5usize, 3];
        let dim: usize = lens.iter().sum();
        let dense = DenseOp::new(dim, vec![0.0; dim * dim]);
        let dist = DistZero(lens.to_vec());

        save_checkpoint(&path, &sample_state(dim)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[20..32], [1u32, 1, 8].map(u32::to_le_bytes).concat()[..]);

        for (kind, width) in [(3u32, 4u32), (4, 4), (1, 4), (1, 16)] {
            // k 1, budget 4, restarts 2, draws 1, no breakdowns, nothing
            // locked: one chain seed of `dim` elements.
            let layout: &[usize] = if kind % 2 == 0 { &lens } else { &[dim] };
            let mut counts = vec![1, 4, 2, 1, 0, 0, layout.len() as u64];
            counts.extend(layout.iter().map(|&l| l as u64));
            let len = 12 + 8 * counts.len() + dim * width as usize;
            record::write(&path, MAGIC, VERSION, len as u64, |w| {
                [kind, 1, width].into_iter().for_each(|x| w.put_u32(x));
                counts.iter().for_each(|&n| w.put_u64(n));
                (0..dim * width as usize / 4).for_each(|i| w.put_u32(0x3f80_0000 + i as u32));
            })
            .unwrap();
            let what = format!("kind {kind}, {width}-byte lanes");
            let loaded = catch_unwind(AssertUnwindSafe(|| {
                let into_dense = load_checkpoint::<Vec<f64>, _>(&path, &dense).map(|_| ());
                let into_dist = load_checkpoint::<DistVec<f64>, _>(&path, &dist).map(|_| ());
                [(1, into_dense), (2, into_dist)]
            }))
            .unwrap_or_else(|_| panic!("{what}: the loader panicked"));
            for (storage, got) in loaded {
                match got {
                    Err(FileError::WrongKind { found, expected })
                        if (found, expected) == (kind, storage) => {}
                    Err(FileError::Malformed(_)) if kind == storage => {}
                    other => panic!("{what} into storage {storage}: got {other:?}"),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_codec_checkpoint_is_refused_as_unsupported_version() {
        // A version-2 file: magic, version, then the FNV-era header and
        // body with no record length or CRCs.
        let path = tmp("pre_codec");
        let mut bytes = b"LSCK".to_vec();
        for word in [2u32, 1, 1, 8] {
            bytes.extend(word.to_le_bytes());
        }
        bytes.resize(400, 0x5a);
        std::fs::write(&path, &bytes).unwrap();
        let op = DenseOp::new(4, vec![0.0; 16]);
        match load_checkpoint::<Vec<f64>, _>(&path, &op) {
            Err(FileError::UnsupportedVersion(2)) => {}
            other => panic!("expected UnsupportedVersion(2), got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_and_corruption_rejected() {
        let path = tmp("corrupt");
        let dim = 40;
        save_checkpoint(&path, &sample_state(dim)).unwrap();
        let good = std::fs::read(&path).unwrap();
        let op = DenseOp::new(dim, vec![0.0; dim * dim]);

        // Truncated at various points (header, payload, checksum).
        for cut in [0, 3, 20, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let err = load_checkpoint::<Vec<f64>, _>(&path, &op).unwrap_err();
            assert!(matches!(err, FileError::Truncated { .. }), "cut {cut}: {err:?}");
        }

        // A flipped payload byte fails the checksum.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_checkpoint::<Vec<f64>, _>(&path, &op),
            Err(FileError::PayloadCorrupt { .. })
        ));

        // Layout mismatch: same bytes, smaller operator.
        std::fs::write(&path, &good).unwrap();
        let small = DenseOp::new(dim - 1, vec![0.0; (dim - 1) * (dim - 1)]);
        assert!(matches!(
            load_checkpoint::<Vec<f64>, _>(&path, &small),
            Err(FileError::LayoutMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotation_keeps_last_k_and_loads_newest() {
        let path = tmp("rotate");
        remove_checkpoint(&path).unwrap();
        let dim = 24;
        let op = DenseOp::new(dim, vec![0.0; dim * dim]);
        for cycle in 1..=5 {
            let mut st = sample_state(dim);
            st.restarts = cycle;
            st.draws = cycle as u64 * 10;
            save_checkpoint_rotated(&path, &st, 3).unwrap();
        }
        // Only the newest 3 generations survive, manifest agrees.
        assert_eq!(manifest_generations(&path).unwrap(), vec![3, 4, 5]);
        assert!(!generation_path(&path, 1).exists());
        assert!(!generation_path(&path, 2).exists());
        for gen in 3..=5 {
            assert!(generation_path(&path, gen).exists(), "generation {gen} missing");
        }
        let newest = load_latest_checkpoint::<Vec<f64>, _>(&path, &op).unwrap();
        assert_eq!(newest.restarts, 5);
        assert_eq!(newest.draws, 50);
        remove_checkpoint(&path).unwrap();
        assert!(!path.exists());
        assert!(scan_generations(&path).is_empty());
    }

    #[test]
    fn rotation_falls_back_past_a_corrupt_newest_generation() {
        let path = tmp("fallback");
        remove_checkpoint(&path).unwrap();
        let dim = 24;
        let op = DenseOp::new(dim, vec![0.0; dim * dim]);
        for cycle in 1..=3 {
            let mut st = sample_state(dim);
            st.restarts = cycle;
            save_checkpoint_rotated(&path, &st, 3).unwrap();
        }
        // Corrupt the newest generation: the loader must fall back.
        let g3 = generation_path(&path, 3);
        let mut bytes = std::fs::read(&g3).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&g3, &bytes).unwrap();
        let state = load_latest_checkpoint::<Vec<f64>, _>(&path, &op).unwrap();
        assert_eq!(state.restarts, 2, "should resume from the newest *valid* generation");

        // Torn manifest: directory scan still finds the generations.
        std::fs::write(&path, b"LSMFgarbage").unwrap();
        let state = load_latest_checkpoint::<Vec<f64>, _>(&path, &op).unwrap();
        assert_eq!(state.restarts, 2);

        // Every generation corrupt: a typed error, not a panic.
        for gen in 1..=3 {
            std::fs::write(generation_path(&path, gen), b"junk").unwrap();
        }
        assert!(load_latest_checkpoint::<Vec<f64>, _>(&path, &op).is_err());
        remove_checkpoint(&path).unwrap();
    }

    #[test]
    fn plain_checkpoints_load_through_the_latest_api() {
        let path = tmp("plain_via_latest");
        remove_checkpoint(&path).unwrap();
        let dim = 33;
        let st = sample_state(dim);
        save_checkpoint(&path, &st).unwrap();
        let op = DenseOp::new(dim, vec![0.0; dim * dim]);
        let back = load_latest_checkpoint::<Vec<f64>, _>(&path, &op).unwrap();
        assert_eq!(back.basis, st.basis);
        // And a plain file is not a manifest.
        assert!(matches!(manifest_generations(&path), Err(FileError::BadMagic(_))));
        remove_checkpoint(&path).unwrap();
    }

    #[test]
    fn unadvertised_newer_generation_is_preferred() {
        // Crash window: generation written, manifest not yet updated.
        let path = tmp("unadvertised");
        remove_checkpoint(&path).unwrap();
        let dim = 24;
        let op = DenseOp::new(dim, vec![0.0; dim * dim]);
        let mut st = sample_state(dim);
        st.restarts = 1;
        save_checkpoint_rotated(&path, &st, 2).unwrap();
        // Simulate the torn write: generation 2 exists, manifest says [1].
        st.restarts = 2;
        save_checkpoint(&generation_path(&path, 2), &st).unwrap();
        assert_eq!(manifest_generations(&path).unwrap(), vec![1]);
        let state = load_latest_checkpoint::<Vec<f64>, _>(&path, &op).unwrap();
        assert_eq!(state.restarts, 2);
        remove_checkpoint(&path).unwrap();
    }

    #[test]
    fn fresh_removes_orphaned_temp_files_and_scans_skip_them() {
        let path = tmp("orphans");
        remove_checkpoint(&path).unwrap();
        let st = sample_state(8);
        save_checkpoint_rotated(&path, &st, 2).unwrap();
        // What a write killed before its rename leaves behind.
        let orphan = |suffix: &str| {
            let mut name = path.as_os_str().to_owned();
            name.push(suffix);
            std::fs::write(&name, b"torn").unwrap();
            PathBuf::from(name)
        };
        let orphans = [orphan(".tmp.999"), orphan(".g7.tmp.999")];
        assert_eq!(scan_generations(&path), vec![5], "a temp file is no generation");
        // A neighbour that only shares the prefix stays.
        let keep = orphan(".gold");
        remove_checkpoint(&path).unwrap();
        for gone in orphans.iter().chain([&path, &generation_path(&path, 5)]) {
            assert!(!gone.exists(), "{} survived", gone.display());
        }
        assert!(keep.exists());
        std::fs::remove_file(&keep).ok();
    }
}
