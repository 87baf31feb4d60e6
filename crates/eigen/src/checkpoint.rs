//! Versioned, checksummed checkpoints for the thick-restart Lanczos
//! solver ([`crate::restart`]).
//!
//! A checkpoint captures the compressed solver state at a restart
//! boundary — the retained Ritz basis plus the chain seed, the projected
//! coefficients (`θ`, border `s`), the restart counter and the RNG draw
//! counter — which is everything needed to resume a killed solve
//! **bit-identically**: vectors are stored as exact `f64` lanes in
//! canonical global element order, so the resumed in-memory state equals
//! the uninterrupted one to the last bit.
//!
//! Format (little-endian), magic `LSCK`, version 2:
//!
//! ```text
//! magic[4] version:u32 kind:u32 lanes:u32 width:u32
//! k:u64 budget:u64 restarts:u64 draws:u64 breakdowns:u64 retained:u64 nvecs:u64
//! nparts:u64 part_len:u64 × nparts
//! diag:f64 × retained  border:f64 × retained
//! vector data: nvecs × Σpart_len × lanes × width bytes  (global element order)
//! checksum:u64 (FNV-1a over every preceding byte)
//! ```
//!
//! `kind` is [`KrylovVec::STORAGE_KIND`] (dense = 1, distributed = 2,
//! f32 dense = 3, f32 distributed = 4): loading a checkpoint into a
//! different storage is a typed error, as is a layout (part-length)
//! mismatch — resuming on a different locale partition would change
//! reduction order and break bit-identity. `width` is
//! [`KrylovVec::SCALAR_WIDTH`] — bytes per stored lane (8, or 4 for the
//! f32 storages of the mixed-precision mode); version-1 files have no
//! width field and are read as width 8. A precision-mismatched resume is
//! allowed only in the exact widening direction (f32 file into the
//! matching f64 storage — lossless, though such a resume follows the
//! f64 trajectory from the widened state rather than replaying the f32
//! one bit-identically); the narrowing direction would silently truncate
//! lanes and is rejected with
//! [`CheckpointError::PrecisionMismatch`].
//! Writes go to `<path>.tmp` first and are renamed into place, so a kill
//! mid-write never corrupts the previous checkpoint.

use crate::vector::{get_scalar, put_scalar, KrylovOp, KrylovVec};
use bytes::{Buf, BufMut};
use ls_kernels::Scalar;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 4] = b"LSCK";
const VERSION: u32 = 2;

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

/// Typed failure modes of [`load_checkpoint`]. Corrupted or mismatched
/// files are reported, never panicked on.
#[derive(Debug)]
pub enum CheckpointError {
    Io(io::Error),
    /// Shorter than the fixed header + checksum.
    TooShort,
    BadMagic([u8; 4]),
    UnsupportedVersion(u32),
    /// The file was written for a different vector storage (e.g. a dense
    /// checkpoint loaded into a distributed solve).
    WrongStorageKind {
        found: u32,
        expected: u32,
    },
    ScalarWidthMismatch {
        found: u32,
        expected: u32,
    },
    /// The file's storage width (bytes per lane) disagrees with the
    /// active precision mode in the lossy direction: an f64 checkpoint
    /// cannot resume an f32-storage solve (lanes would be truncated).
    /// The widening direction (f32 file, f64 solve) loads fine.
    PrecisionMismatch {
        found: u32,
        expected: u32,
    },
    /// Part lengths in the file differ from the operator's layout.
    LayoutMismatch {
        found: Vec<usize>,
        expected: Vec<usize>,
    },
    /// The payload ends before its declared contents.
    Truncated {
        needed: usize,
        available: usize,
    },
    BadChecksum {
        stored: u64,
        computed: u64,
    },
    /// Internally inconsistent header fields.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::TooShort => write!(f, "checkpoint file too short for header"),
            Self::BadMagic(m) => write!(f, "bad checkpoint magic {m:?}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::WrongStorageKind { found, expected } => write!(
                f,
                "checkpoint written for storage kind {found}, loading as kind {expected}"
            ),
            Self::ScalarWidthMismatch { found, expected } => write!(
                f,
                "checkpoint scalar has {found} lanes, requested scalar has {expected}"
            ),
            Self::PrecisionMismatch { found, expected } => write!(
                f,
                "checkpoint stores {found}-byte lanes but the solve stores {expected}-byte \
                 lanes: resuming would truncate precision (widen by resuming in f64, or \
                 delete the checkpoint to restart)"
            ),
            Self::LayoutMismatch { found, expected } => write!(
                f,
                "checkpoint layout {found:?} does not match solver layout {expected:?}"
            ),
            Self::Truncated { needed, available } => {
                write!(f, "checkpoint truncated: needs {needed} more bytes, has {available}")
            }
            Self::BadChecksum { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            Self::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// FNV-1a (64-bit), the checksum all checkpoints carry. Not
/// cryptographic — it catches truncation, bit rot and partial writes.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Borrowed view of the solver state for [`save_checkpoint_ref`]: the
/// solver checkpoints every cycle, and cloning `retained + 1` full
/// vectors per write would double the transient footprint the
/// `k + extra` budget promises to bound.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointStateRef<'a, V> {
    pub k: usize,
    pub budget: usize,
    pub restarts: usize,
    pub draws: u64,
    pub breakdowns: u64,
    pub retained: usize,
    pub diag: &'a [f64],
    pub border: &'a [f64],
    pub basis: &'a [V],
}

/// Serializes a checkpoint and writes it atomically (`<path>.tmp` then
/// rename), so an interrupted write never destroys the previous one.
pub fn save_checkpoint<V: KrylovVec>(
    path: &Path,
    state: &CheckpointState<V>,
) -> io::Result<()> {
    save_checkpoint_ref(path, &state.borrowed())
}

impl<V> CheckpointState<V> {
    /// The borrowed view the write paths take.
    pub(crate) fn borrowed(&self) -> CheckpointStateRef<'_, V> {
        CheckpointStateRef {
            k: self.k,
            budget: self.budget,
            restarts: self.restarts,
            draws: self.draws,
            breakdowns: self.breakdowns,
            retained: self.retained,
            diag: &self.diag,
            border: &self.border,
            basis: &self.basis,
        }
    }
}

/// Serializes a checkpoint into its on-disk byte image (header, state,
/// trailing checksum) — shared by the plain and rotated write paths.
fn encode_checkpoint<V: KrylovVec>(state: &CheckpointStateRef<'_, V>) -> Vec<u8> {
    assert_eq!(state.diag.len(), state.retained, "diag length != retained count");
    assert_eq!(state.border.len(), state.retained, "border length != retained count");
    assert_eq!(state.basis.len(), state.retained + 1, "basis must hold retained + 1 vectors");
    let layout = state.basis[0].layout();
    let dim: usize = layout.iter().sum();
    let lanes = V::Scalar::N_REALS;
    let width = V::SCALAR_WIDTH as usize;

    let mut buf = Vec::with_capacity(
        4 + 4 * 4
            + 8 * 8
            + layout.len() * 8
            + 2 * state.retained * 8
            + state.basis.len() * dim * lanes * width
            + 8,
    );
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(V::STORAGE_KIND);
    buf.put_u32_le(lanes as u32);
    buf.put_u32_le(V::SCALAR_WIDTH);
    buf.put_u64_le(state.k as u64);
    buf.put_u64_le(state.budget as u64);
    buf.put_u64_le(state.restarts as u64);
    buf.put_u64_le(state.draws);
    buf.put_u64_le(state.breakdowns);
    buf.put_u64_le(state.retained as u64);
    buf.put_u64_le(state.basis.len() as u64);
    buf.put_u64_le(layout.len() as u64);
    for &l in &layout {
        buf.put_u64_le(l as u64);
    }
    for &d in state.diag {
        buf.put_f64_le(d);
    }
    for &s in state.border {
        buf.put_f64_le(s);
    }
    for v in state.basis {
        debug_assert_eq!(v.layout(), layout, "checkpointed vectors must share one layout");
        // f32 storage: `visit` yields the widened value, so narrowing
        // back is exact and round-trips bitwise.
        v.visit(&mut |x| put_scalar(&mut buf, x, V::SCALAR_WIDTH));
    }
    let checksum = fnv1a64(&buf);
    buf.put_u64_le(checksum);
    buf
}

/// Atomic byte write: process-unique temp name, then rename. Under the
/// multiprocess transport every rank writes the (identical,
/// deterministic) bytes, and distinct temp files keep the concurrent
/// write+rename pairs from clobbering each other mid-write — each rename
/// atomically installs a complete file.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// [`save_checkpoint`] over borrowed state — the solver's write path.
pub fn save_checkpoint_ref<V: KrylovVec>(
    path: &Path,
    state: &CheckpointStateRef<'_, V>,
) -> io::Result<()> {
    write_atomic(path, &encode_checkpoint(state))
}

// ---- keep-last-K rotation ------------------------------------------------
//
// With `keep > 1` the checkpoint path holds a tiny *manifest* (magic
// `LSMF`) instead of the state itself; the state lives in sibling
// generation files `<filename>.g<restarts>`. Ordering makes the scheme
// crash-consistent: a generation file is fully written (atomically)
// *before* the manifest that mentions it, so the manifest never points at
// bytes that do not exist, and a crash between the two writes merely
// leaves an extra generation on disk. Because resumes are bit-identical
// from any cycle, falling back to an older valid generation (after
// corruption of the newest) changes nothing about the final eigenvalues.

const MANIFEST_MAGIC: &[u8; 4] = b"LSMF";
const MANIFEST_VERSION: u32 = 1;

/// The sibling file holding generation `gen` of the rotated checkpoint
/// at `path`.
pub fn generation_path(path: &Path, gen: u64) -> std::path::PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!("{name}.g{gen}"))
}

fn encode_manifest(keep: usize, gens: &[u64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + gens.len() * 8 + 8);
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u32_le(MANIFEST_VERSION);
    buf.put_u32_le(keep as u32);
    buf.put_u32_le(gens.len() as u32);
    for &g in gens {
        buf.put_u64_le(g);
    }
    let checksum = fnv1a64(&buf);
    buf.put_u64_le(checksum);
    buf
}

fn parse_manifest(raw: &[u8]) -> Result<Vec<u64>, CheckpointError> {
    if raw.len() < 16 + 8 {
        return Err(CheckpointError::TooShort);
    }
    let (payload, stored_tail) = raw.split_at(raw.len() - 8);
    let stored = u64::from_le_bytes(stored_tail.try_into().unwrap());
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(CheckpointError::BadChecksum { stored, computed });
    }
    let mut r = Reader { buf: payload };
    let mut magic = [0u8; 4];
    r.need(4)?;
    r.buf.copy_to_slice(&mut magic);
    if &magic != MANIFEST_MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.u32()?;
    if version != MANIFEST_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let _keep = r.u32()?;
    let count = r.u32()? as usize;
    r.need(count.checked_mul(8).ok_or(CheckpointError::TooShort)?)?;
    let mut gens = Vec::with_capacity(count);
    for _ in 0..count {
        gens.push(r.u64()?);
    }
    Ok(gens)
}

/// The generations a rotated checkpoint at `path` currently advertises,
/// oldest first. Errors mirror [`load_checkpoint`]'s typed failures; a
/// plain (non-rotated) checkpoint reports [`CheckpointError::BadMagic`].
pub fn manifest_generations(path: &Path) -> Result<Vec<u64>, CheckpointError> {
    parse_manifest(&fs::read(path)?)
}

/// Every `<filename>.g<N>` sibling actually on disk, newest first — the
/// recovery path when the manifest itself is torn or missing.
fn scan_generations(path: &Path) -> Vec<u64> {
    let name = match path.file_name() {
        Some(n) => format!("{}.g", n.to_string_lossy()),
        None => return Vec::new(),
    };
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let mut gens: Vec<u64> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| {
                e.file_name().to_string_lossy().strip_prefix(&name).and_then(|s| s.parse().ok())
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    gens.sort_unstable_by(|a, b| b.cmp(a));
    gens.dedup();
    gens
}

/// Saves one generation of a keep-last-`keep` rotated checkpoint: writes
/// the state to its generation file, then atomically updates the
/// manifest at `path`, then prunes generations that fell out of the
/// window (best-effort). `keep == 1` still goes through the manifest so
/// a job's rotation mode is consistent; use [`save_checkpoint_ref`] for
/// the plain single-file format.
pub fn save_checkpoint_rotated<V: KrylovVec>(
    path: &Path,
    state: &CheckpointStateRef<'_, V>,
    keep: usize,
) -> io::Result<()> {
    let keep = keep.max(1);
    let gen = state.restarts as u64;
    write_atomic(&generation_path(path, gen), &encode_checkpoint(state))?;

    // Merge with whatever the manifest (or, failing that, the directory)
    // already knows, keep the newest `keep`.
    let mut gens = match fs::read(path) {
        Ok(raw) => parse_manifest(&raw).unwrap_or_else(|_| {
            let mut g = scan_generations(path);
            g.reverse();
            g
        }),
        Err(_) => Vec::new(),
    };
    if !gens.contains(&gen) {
        gens.push(gen);
    }
    gens.sort_unstable();
    let cut = gens.len().saturating_sub(keep);
    let pruned: Vec<u64> = gens.drain(..cut).collect();
    write_atomic(path, &encode_manifest(keep, &gens))?;
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
) -> Result<CheckpointState<V>, CheckpointError> {
    let raw = fs::read(path)?;
    if !raw.starts_with(MANIFEST_MAGIC) {
        return load_checkpoint(path, op);
    }
    let mut gens = match parse_manifest(&raw) {
        Ok(mut gens) => {
            gens.sort_unstable_by(|a, b| b.cmp(a));
            gens
        }
        Err(_) => Vec::new(),
    };
    // Union with the directory: a crash after writing a generation but
    // before the manifest leaves a newer-than-advertised file that is
    // perfectly valid to resume from; a torn manifest leaves only files.
    for g in scan_generations(path) {
        if !gens.contains(&g) {
            gens.push(g);
        }
    }
    gens.sort_unstable_by(|a, b| b.cmp(a));
    if gens.is_empty() {
        return Err(CheckpointError::Malformed(
            "rotated checkpoint manifest with no generations on disk".into(),
        ));
    }
    let mut last_err = None;
    for gen in gens {
        match load_checkpoint(&generation_path(path, gen), op) {
            Ok(state) => return Ok(state),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap())
}

/// Removes a checkpoint and, if rotated, all of its generation files —
/// the `--fresh` path of restartable programs.
pub fn remove_checkpoint(path: &Path) -> io::Result<()> {
    for gen in scan_generations(path) {
        let _ = fs::remove_file(generation_path(path, gen));
    }
    match fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

/// A cursor over the raw bytes with length-checked reads: every parse
/// failure is a typed [`CheckpointError`], never a panic.
struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn need(&self, n: usize) -> Result<(), CheckpointError> {
        if self.buf.remaining() < n {
            Err(CheckpointError::Truncated { needed: n, available: self.buf.remaining() })
        } else {
            Ok(())
        }
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }
}

/// Loads and validates a checkpoint, rebuilding the basis vectors in the
/// operator's own storage (`op.new_vec()` + element-order fill). The
/// checkpoint must match the operator: same storage kind, same scalar
/// width, same part layout — anything else is a typed error, because a
/// resume that silently reinterprets or repartitions the state cannot be
/// bit-identical to the uninterrupted solve.
pub fn load_checkpoint<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    path: &Path,
    op: &Op,
) -> Result<CheckpointState<V>, CheckpointError> {
    let raw = fs::read(path)?;
    if raw.len() < 4 + 3 * 4 + 8 * 8 + 8 {
        return Err(CheckpointError::TooShort);
    }
    let (payload, stored_tail) = raw.split_at(raw.len() - 8);
    let stored = u64::from_le_bytes(stored_tail.try_into().unwrap());
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(CheckpointError::BadChecksum { stored, computed });
    }

    let mut r = Reader { buf: payload };
    let mut magic = [0u8; 4];
    r.need(4)?;
    r.buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.u32()?;
    if version == 0 || version > VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let kind = r.u32()?;
    let lanes = r.u32()? as usize;
    // Version-1 files predate the width field: always 8-byte lanes.
    let width = if version == 1 { 8 } else { r.u32()? };
    // Precision routing: equal (kind, width) loads directly; an f32 file
    // may be *widened* into the matching f64 storage (lossless); the
    // narrowing direction is a typed error, never a silent truncation.
    let exact = kind == V::STORAGE_KIND && width == V::SCALAR_WIDTH;
    let widening = width == 4
        && V::SCALAR_WIDTH == 8
        && ((kind == 3 && V::STORAGE_KIND == 1) || (kind == 4 && V::STORAGE_KIND == 2));
    if !(exact || widening) {
        let narrowing = width == 8
            && V::SCALAR_WIDTH == 4
            && ((kind == 1 && V::STORAGE_KIND == 3) || (kind == 2 && V::STORAGE_KIND == 4));
        if narrowing || (kind == V::STORAGE_KIND && width != V::SCALAR_WIDTH) {
            return Err(CheckpointError::PrecisionMismatch {
                found: width,
                expected: V::SCALAR_WIDTH,
            });
        }
        return Err(CheckpointError::WrongStorageKind {
            found: kind,
            expected: V::STORAGE_KIND,
        });
    }
    if lanes != V::Scalar::N_REALS {
        return Err(CheckpointError::ScalarWidthMismatch {
            found: lanes as u32,
            expected: V::Scalar::N_REALS as u32,
        });
    }
    let k = r.u64()? as usize;
    let budget = r.u64()? as usize;
    let restarts = r.u64()? as usize;
    let draws = r.u64()?;
    let breakdowns = r.u64()?;
    let retained = r.u64()? as usize;
    let nvecs = r.u64()? as usize;
    if nvecs != retained + 1 {
        return Err(CheckpointError::Malformed(format!(
            "{nvecs} vectors for {retained} retained pairs (want retained + 1)"
        )));
    }
    if retained > budget || k > budget {
        return Err(CheckpointError::Malformed(format!(
            "retained {retained} / k {k} exceed budget {budget}"
        )));
    }
    let nparts = r.u64()? as usize;
    // Bound before allocating: each part length is 8 bytes.
    r.need(nparts.checked_mul(8).ok_or(CheckpointError::TooShort)?)?;
    let mut layout = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        layout.push(r.u64()? as usize);
    }
    let expected_layout = op.new_vec().layout();
    if layout != expected_layout {
        return Err(CheckpointError::LayoutMismatch {
            found: layout,
            expected: expected_layout,
        });
    }
    let dim: usize = layout.iter().sum();
    if dim != op.dim() {
        return Err(CheckpointError::Malformed(format!(
            "checkpoint dimension {dim} != operator dimension {}",
            op.dim()
        )));
    }

    // Bound before allocating: `retained` is file-controlled, and a
    // checksum-valid but malformed file must come back as a typed error,
    // never as a capacity panic (diag + border are 16 bytes per entry).
    r.need(retained.checked_mul(16).ok_or(CheckpointError::TooShort)?)?;
    let mut diag = Vec::with_capacity(retained);
    for _ in 0..retained {
        diag.push(r.f64()?);
    }
    let mut border = Vec::with_capacity(retained);
    for _ in 0..retained {
        border.push(r.f64()?);
    }

    let vec_bytes = dim
        .checked_mul(lanes)
        .and_then(|x| x.checked_mul(width as usize))
        .ok_or(CheckpointError::TooShort)?;
    let total = vec_bytes.checked_mul(nvecs).ok_or(CheckpointError::TooShort)?;
    r.need(total)?;
    let mut basis = Vec::with_capacity(nvecs);
    for _ in 0..nvecs {
        let mut v = op.new_vec();
        // f32 lanes widen exactly (also the widening resume).
        v.fill_with(&mut |_i| get_scalar(&mut r.buf, width));
        basis.push(v);
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

    fn tmp(name: &str) -> std::path::PathBuf {
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

    /// A distributed operator of the given layout, in any lane.
    struct DistZero(Vec<usize>);

    impl<L: ls_kernels::Lane> KrylovOp<DistVec<L>> for DistZero {
        fn dim(&self) -> usize {
            self.0.iter().sum()
        }
        fn new_vec(&self) -> DistVec<L> {
            DistVec::zeros(&self.0)
        }
        fn apply(&self, _x: &DistVec<L>, _y: &mut DistVec<L>) {}
    }

    #[test]
    fn wrong_storage_kind_rejected() {
        let path = tmp("kind");
        let dim = 16;
        save_checkpoint(&path, &sample_state(dim)).unwrap();
        // A distributed operator with the same total dimension.
        let op = DistZero(vec![8, 8]);
        match load_checkpoint::<DistVec<f64>, _>(&path, &op) {
            Err(CheckpointError::WrongStorageKind { found: 1, expected: 2 }) => {}
            other => panic!("expected WrongStorageKind, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// [`sample_state`] re-stored in another vector type, element by
    /// element through `fill_with` (which narrows for f32 lanes).
    fn restore<V: KrylovVec<Scalar = f64>>(
        zero: &V,
        st: CheckpointState<Vec<f64>>,
    ) -> CheckpointState<V> {
        let basis = st
            .basis
            .iter()
            .map(|dense| {
                let mut v = zero.clone();
                v.fill_with(&mut |i| dense[i]);
                v
            })
            .collect();
        CheckpointState {
            k: st.k,
            budget: st.budget,
            restarts: st.restarts,
            draws: st.draws,
            breakdowns: st.breakdowns,
            retained: st.retained,
            diag: st.diag,
            border: st.border,
            basis,
        }
    }

    fn sample_state_f32(dim: usize) -> CheckpointState<Vec<f32>> {
        restore(&vec![0.0f32; dim], sample_state(dim))
    }

    #[test]
    fn f32_checkpoint_roundtrips_bitwise_and_widens_to_f64() {
        use crate::precision::{widen, MixedOp};
        let path = tmp("f32_roundtrip");
        let dim = 61;
        let st = sample_state_f32(dim);
        save_checkpoint(&path, &st).unwrap();
        let dense = DenseOp::new(dim, vec![0.0; dim * dim]);

        // Same-precision resume: bit-exact.
        let op32 = MixedOp::new(&dense);
        let back = load_checkpoint::<Vec<f32>, _>(&path, &op32).unwrap();
        assert_eq!(back.basis, st.basis);
        assert_eq!(back.diag, st.diag);

        // Widening resume (f32 file, f64 solve): explicit and lossless.
        let wide = load_checkpoint::<Vec<f64>, _>(&path, &dense).unwrap();
        for (w, n) in wide.basis.iter().zip(&st.basis) {
            assert_eq!(w, &widen(n), "widened lanes must be the exact f32 values");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn narrowing_resume_is_a_typed_precision_error() {
        use crate::precision::MixedOp;
        let path = tmp("narrowing");
        let dim = 32;
        save_checkpoint(&path, &sample_state(dim)).unwrap(); // f64 file
        let dense = DenseOp::new(dim, vec![0.0; dim * dim]);
        let op32 = MixedOp::new(&dense);
        match load_checkpoint::<Vec<f32>, _>(&path, &op32) {
            Err(CheckpointError::PrecisionMismatch { found: 8, expected: 4 }) => {}
            other => panic!("expected PrecisionMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn distributed_f32_checkpoint_is_kind_4_and_follows_the_precision_rules() {
        let lens = vec![11usize, 0, 23, 7];
        let op = DistZero(lens.clone());
        let dim: usize = lens.iter().sum();

        let path = tmp("dist_f32");
        let st = restore(&DistVec::<f32>::zeros(&lens), sample_state(dim));
        save_checkpoint(&path, &st).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[8..12], 4u32.to_le_bytes(), "storage kind");
        assert_eq!(bytes[16..20], 4u32.to_le_bytes(), "lane width");

        // Same storage: bit-exact. Widening into the f64 distribution:
        // every element is the exact f32 value.
        let back = load_checkpoint::<DistVec<f32>, _>(&path, &op).unwrap();
        assert_eq!(back.basis, st.basis);
        let wide = load_checkpoint::<DistVec<f64>, _>(&path, &op).unwrap();
        for (w, n) in wide.basis.iter().zip(&st.basis) {
            assert_eq!(w.lens(), lens);
            assert_eq!(w.concat(), crate::precision::widen(&n.concat()));
        }
        // ... but not into dense f64 storage.
        let dense = DenseOp::new(dim, vec![0.0; dim * dim]);
        match load_checkpoint::<Vec<f64>, _>(&path, &dense) {
            Err(CheckpointError::WrongStorageKind { found: 4, expected: 1 }) => {}
            other => panic!("expected WrongStorageKind, got {other:?}"),
        }

        // An f64 distributed file must not be truncated into f32 lanes.
        let path64 = tmp("dist_f64_into_f32");
        save_checkpoint(&path64, &restore(&DistVec::<f64>::zeros(&lens), sample_state(dim)))
            .unwrap();
        match load_checkpoint::<DistVec<f32>, _>(&path64, &op) {
            Err(CheckpointError::PrecisionMismatch { found: 8, expected: 4 }) => {}
            other => panic!("expected PrecisionMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path64).ok();
    }

    #[test]
    fn version1_files_load_as_f64() {
        // A v1 file is a v2 file with the width field cut out and the
        // version stamp rewritten — loaders must read it as 8-byte lanes.
        let path = tmp("v1_compat");
        let dim = 19;
        let st = sample_state(dim);
        save_checkpoint(&path, &st).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes()); // version = 1
        bytes.drain(16..20); // remove width field
        let body_end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let op = DenseOp::new(dim, vec![0.0; dim * dim]);
        let back = load_checkpoint::<Vec<f64>, _>(&path, &op).unwrap();
        assert_eq!(back.basis, st.basis);
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
            assert!(
                matches!(err, CheckpointError::TooShort | CheckpointError::BadChecksum { .. }),
                "cut {cut}: {err:?}"
            );
        }

        // A flipped payload byte fails the checksum.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_checkpoint::<Vec<f64>, _>(&path, &op),
            Err(CheckpointError::BadChecksum { .. })
        ));

        // Layout mismatch: same bytes, smaller operator.
        std::fs::write(&path, &good).unwrap();
        let small = DenseOp::new(dim - 1, vec![0.0; (dim - 1) * (dim - 1)]);
        assert!(matches!(
            load_checkpoint::<Vec<f64>, _>(&path, &small),
            Err(CheckpointError::LayoutMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    fn save_rotated(path: &Path, st: &CheckpointState<Vec<f64>>, keep: usize) {
        save_checkpoint_rotated(
            path,
            &CheckpointStateRef {
                k: st.k,
                budget: st.budget,
                restarts: st.restarts,
                draws: st.draws,
                breakdowns: st.breakdowns,
                retained: st.retained,
                diag: &st.diag,
                border: &st.border,
                basis: &st.basis,
            },
            keep,
        )
        .unwrap();
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
            save_rotated(&path, &st, 3);
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
            save_rotated(&path, &st, 3);
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
        assert!(matches!(manifest_generations(&path), Err(CheckpointError::BadMagic(_))));
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
        save_rotated(&path, &st, 2);
        // Simulate the torn write: generation 2 exists, manifest says [1].
        st.restarts = 2;
        let bytes = encode_checkpoint(&CheckpointStateRef {
            k: st.k,
            budget: st.budget,
            restarts: st.restarts,
            draws: st.draws,
            breakdowns: st.breakdowns,
            retained: st.retained,
            diag: &st.diag,
            border: &st.border,
            basis: &st.basis,
        });
        std::fs::write(generation_path(&path, 2), &bytes).unwrap();
        assert_eq!(manifest_generations(&path).unwrap(), vec![1]);
        let state = load_latest_checkpoint::<Vec<f64>, _>(&path, &op).unwrap();
        assert_eq!(state.restarts, 2);
        remove_checkpoint(&path).unwrap();
    }
}
