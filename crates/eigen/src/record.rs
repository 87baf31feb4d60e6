//! The one on-disk codec. Every file the library writes — thick-restart
//! checkpoints (`LSCK`, [`crate::checkpoint`]), their rotation manifests
//! (`LSMF`), saved vectors and bases (`LSRS`, below) — is one sealed
//! record, in the shape of the multiprocess mesh's wire frame
//! (little-endian):
//!
//! ```text
//! magic[4] | version:u32 | len:u64 | crc32c(header):u32 | payload[len] | crc32c(payload):u32
//! ```
//!
//! `write` streams: the encoder declares `len` up front, its typed puts
//! go through a buffer of at most 64 KiB that is CRC'd as it fills, and
//! the record lands in `<file name>.tmp.<pid>`, renamed into place once
//! the payload CRC is written. A kill mid-write never damages the previous
//! file, and the ranks of a multiprocess job writing the same file never
//! share a temp file. A payload of any other size than `len` is refused.
//!
//! `read` checks magic, version (older ones are refused) and header CRC,
//! in that order, then bounds `len` by the file's size before it sizes
//! anything, and streams the payload through the CRC with typed gets. A
//! payload that fails its CRC is [`FileError::PayloadCorrupt`] whatever
//! the decoder concluded: a flipped bit never passes for a plausible
//! semantic error.
//!
//! The `LSRS` formats (version 2) open their payload with a kind; an
//! element is `lanes` reals (`Writer::put_scalar`, as in checkpoints),
//! and `weight` is all ones for a basis of no fixed Hamming weight:
//!
//! ```text
//! vector: kind=1:u32 lanes:u32 n:u64 element × n             (8-byte lanes)
//! basis:  kind=2:u32 n_sites:u32 weight:u64 n:u64 state:u64 × n orbit:u32 × n
//! ```

use ls_kernels::Scalar;
use ls_runtime::{crc32c, crc32c_append};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The most file bytes a [`Writer`] or [`Reader`] holds at once.
const CHUNK: usize = 64 * 1024;
/// Bytes of `magic | version | len | crc(header)`.
const HEADER: usize = 20;
/// Bytes a record adds to its payload: the header and the payload CRC.
const SEAL: u64 = HEADER as u64 + 4;

/// Why a file did not load. Corrupted, truncated or mismatched files are
/// reported, never panicked on.
#[derive(Debug)]
pub enum FileError {
    Io(io::Error),
    BadMagic([u8; 4]),
    /// Another version of the format, pre-codec files included.
    UnsupportedVersion(u32),
    /// The header failed its CRC; nothing behind it was read.
    HeaderCorrupt,
    /// The file is not the length its header declares, or the payload is
    /// shorter than the contents it declares.
    Truncated {
        needed: u64,
        available: u64,
    },
    /// The payload failed its CRC.
    PayloadCorrupt {
        stored: u32,
        computed: u32,
    },
    /// The payload was written as another kind: an `LSRS` basis read as a
    /// vector, or a checkpoint of another vector storage (dense 1,
    /// distributed 2).
    WrongKind {
        found: u32,
        expected: u32,
    },
    /// Real lanes per element: 1 for real, 2 for complex scalars.
    ScalarWidthMismatch {
        found: u32,
        expected: u32,
    },
    /// A checkpoint's part lengths differ from the operator's layout.
    LayoutMismatch {
        found: Vec<usize>,
        expected: Vec<usize>,
    },
    /// Internally inconsistent contents.
    Malformed(String),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::BadMagic(m) => write!(f, "bad magic {m:?}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            Self::HeaderCorrupt => write!(f, "record header CRC mismatch"),
            Self::Truncated { needed, available } => {
                write!(f, "needs {needed} bytes, has {available}")
            }
            Self::PayloadCorrupt { stored, computed } => {
                write!(
                    f,
                    "payload CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            Self::WrongKind { found, expected } => {
                write!(f, "kind {found}, expected {expected}")
            }
            Self::ScalarWidthMismatch { found, expected } => {
                write!(f, "{found} lanes per scalar, expected {expected}")
            }
            Self::LayoutMismatch { found, expected } => {
                write!(f, "layout {found:?} does not match solver layout {expected:?}")
            }
            Self::Malformed(msg) => write!(f, "malformed record: {msg}"),
        }
    }
}

impl std::error::Error for FileError {}

impl From<io::Error> for FileError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// The `io::Result` loads' error: an I/O failure as it was (a missing file
/// stays `NotFound`), anything else `InvalidData` around the typed error.
impl From<FileError> for io::Error {
    fn from(e: FileError) -> Self {
        match e {
            FileError::Io(e) => e,
            e => io::Error::new(io::ErrorKind::InvalidData, e),
        }
    }
}

/// Writes `path` atomically as one record of `len` payload bytes, which
/// `encode` puts.
pub(crate) fn write(
    path: &Path,
    magic: &[u8; 4],
    version: u32,
    len: u64,
    encode: impl FnOnce(&mut Writer),
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let mut w = Writer {
        file: File::create(&tmp)?,
        tmp: PathBuf::from(tmp),
        buf: Vec::with_capacity(CHUNK),
        crc: 0,
        written: 0,
        failed: None,
    };
    let mut head = [&magic[..], &version.to_le_bytes(), &len.to_le_bytes()].concat();
    head.extend(crc32c(&head).to_le_bytes());
    w.file.write_all(&head)?;
    encode(&mut w);
    w.flush();
    if let Some(e) = w.failed.take() {
        return Err(e);
    }
    if w.written != len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("encoder put {} payload bytes, the header declares {len}", w.written),
        ));
    }
    w.file.write_all(&w.crc.to_le_bytes())?;
    fs::rename(&w.tmp, path)
}

/// The payload side of [`write`]. A put cannot fail: a write error is
/// latched and returned once the encoder is done, so an encoder inside a
/// collective visit keeps in step with the other ranks.
pub(crate) struct Writer {
    file: File,
    tmp: PathBuf,
    buf: Vec<u8>,
    crc: u32,
    written: u64,
    failed: Option<io::Error>,
}

impl Writer {
    fn put(&mut self, bytes: &[u8]) {
        if self.buf.len() + bytes.len() > CHUNK {
            self.flush();
        }
        self.buf.extend_from_slice(bytes);
        self.written += bytes.len() as u64;
    }

    fn flush(&mut self) {
        self.crc = crc32c_append(self.crc, &self.buf);
        if self.failed.is_none() {
            self.failed = self.file.write_all(&self.buf).err();
        }
        self.buf.clear();
    }

    pub(crate) fn put_u32(&mut self, x: u32) {
        self.put(&x.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, x: u64) {
        self.put(&x.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, x: f64) {
        self.put(&x.to_le_bytes());
    }

    /// `x` as `S::N_REALS` f64 lanes.
    pub(crate) fn put_scalar<S: Scalar>(&mut self, x: S) {
        for &lane in &x.to_reals()[..S::N_REALS] {
            self.put_f64(lane);
        }
    }
}

/// A temp file that never got renamed goes with its writer.
impl Drop for Writer {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.tmp);
    }
}

/// Reads the record at `path` through `decode`. The payload CRC outranks
/// whatever `decode` returns; past that, a read error it latched outranks
/// its own verdict, and a payload it left unread is [`FileError::Malformed`].
pub(crate) fn read<T>(
    path: &Path,
    magic: &[u8; 4],
    version: u32,
    decode: impl FnOnce(&mut Reader) -> Result<T, FileError>,
) -> Result<T, FileError> {
    let mut file = File::open(path)?;
    let size = file.metadata()?.len();
    if size < HEADER as u64 {
        return Err(FileError::Truncated { needed: SEAL, available: size });
    }
    let mut head = [0u8; HEADER];
    file.read_exact(&mut head)?;
    let word =
        |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
    let found = [head[0], head[1], head[2], head[3]];
    if &found != magic {
        return Err(FileError::BadMagic(found));
    }
    if word(4) != version {
        return Err(FileError::UnsupportedVersion(word(4)));
    }
    if word(16) != crc32c(&head[..16]) {
        return Err(FileError::HeaderCorrupt);
    }
    let len = u64::from(word(8)) | u64::from(word(12)) << 32;
    let needed = len.saturating_add(SEAL);
    if size != needed {
        return Err(FileError::Truncated { needed, available: size });
    }
    let mut r = Reader {
        file,
        buf: vec![0; CHUNK.min(len as usize)],
        at: 0,
        end: 0,
        unread: len,
        crc: 0,
        failed: None,
    };
    let decoded = decode(&mut r);
    let decoded = r.failed.take().map_or(decoded, Err);
    let left = r.remaining();
    while r.unread > 0 {
        r.refill()?;
    }
    let mut stored = [0u8; 4];
    r.file.read_exact(&mut stored)?;
    let stored = u32::from_le_bytes(stored);
    if stored != r.crc {
        return Err(FileError::PayloadCorrupt { stored, computed: r.crc });
    }
    let out = decoded?;
    if left > 0 {
        return Err(FileError::Malformed(format!("{left} payload bytes past the contents")));
    }
    Ok(out)
}

/// The payload side of [`read`]. A get cannot fail either (it may run
/// inside a `fill_with`): a read past the payload or an I/O error is
/// latched (that get returns zero), and [`Reader::check`] hands the error
/// over.
pub(crate) struct Reader {
    file: File,
    buf: Vec<u8>,
    at: usize,
    end: usize,
    /// Payload bytes still in the file.
    unread: u64,
    crc: u32,
    failed: Option<FileError>,
}

impl Reader {
    /// Payload bytes not yet read.
    pub(crate) fn remaining(&self) -> u64 {
        (self.end - self.at) as u64 + self.unread
    }

    /// Refuses `count` items of `each` bytes that the rest of the payload
    /// cannot hold: the bound on a count read from the file before it
    /// sizes an allocation.
    pub(crate) fn need(&self, count: u64, each: u64) -> Result<(), FileError> {
        let (needed, available) = (count.saturating_mul(each), self.remaining());
        (needed <= available).then_some(()).ok_or(FileError::Truncated { needed, available })
    }

    /// The error a get latched, if any.
    pub(crate) fn check(&mut self) -> Result<(), FileError> {
        self.failed.take().map_or(Ok(()), Err)
    }

    fn refill(&mut self) -> io::Result<()> {
        let n = self.unread.min(self.buf.len() as u64) as usize;
        self.file.read_exact(&mut self.buf[..n])?;
        self.crc = crc32c_append(self.crc, &self.buf[..n]);
        self.unread -= n as u64;
        (self.at, self.end) = (0, n);
        Ok(())
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        if let Some(&out) = self.buf[self.at..self.end].first_chunk::<N>() {
            self.at += N;
            return out;
        }
        let mut out = [0u8; N];
        if self.failed.is_some() {
            return out;
        }
        if self.remaining() < N as u64 {
            self.failed =
                Some(FileError::Truncated { needed: N as u64, available: self.remaining() });
            return out;
        }
        let mut got = 0;
        while got < N {
            if self.at == self.end {
                if let Err(e) = self.refill() {
                    self.failed = Some(e.into());
                    return [0; N];
                }
            }
            let k = (N - got).min(self.end - self.at);
            out[got..got + k].copy_from_slice(&self.buf[self.at..self.at + k]);
            (self.at, got) = (self.at + k, got + k);
        }
        out
    }

    pub(crate) fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    pub(crate) fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    pub(crate) fn get_f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }

    /// Reads back one [`Writer::put_scalar`] element.
    pub(crate) fn get_scalar<S: Scalar>(&mut self) -> S {
        let mut reals = [0.0f64; 2];
        for lane in reals.iter_mut().take(S::N_REALS) {
            *lane = self.get_f64();
        }
        S::from_reals(reals)
    }

    /// The `LSRS` payload kind, refused when it is not `expected`.
    fn kind(&mut self, expected: u32) -> Result<(), FileError> {
        let found = self.get_u32();
        (found == expected).then_some(()).ok_or(FileError::WrongKind { found, expected })
    }
}

const LSRS: &[u8; 4] = b"LSRS";
const LSRS_VERSION: u32 = 2;
const KIND_VECTOR: u32 = 1;
const KIND_BASIS: u32 = 2;

/// Saves a plain (shared-memory) vector.
pub fn save_vector<S: Scalar>(path: &Path, data: &[S]) -> io::Result<()> {
    let len = 16 + 8 * S::N_REALS * data.len();
    write(path, LSRS, LSRS_VERSION, len as u64, |w| {
        w.put_u32(KIND_VECTOR);
        w.put_u32(S::N_REALS as u32);
        w.put_u64(data.len() as u64);
        for &x in data {
            w.put_scalar(x);
        }
    })
}

/// Loads a vector saved by [`save_vector`]; a failure other than I/O is
/// `InvalidData` around the [`FileError`].
pub fn load_vector<S: Scalar>(path: &Path) -> io::Result<Vec<S>> {
    Ok(read(path, LSRS, LSRS_VERSION, |r| {
        r.kind(KIND_VECTOR)?;
        let lanes = r.get_u32();
        if lanes as usize != S::N_REALS {
            return Err(FileError::ScalarWidthMismatch {
                found: lanes,
                expected: S::N_REALS as u32,
            });
        }
        let n = r.get_u64();
        r.need(n, 8 * lanes as u64)?;
        Ok((0..n as usize).map(|_| r.get_scalar()).collect())
    })?)
}

/// Saves a basis (states + orbit sizes + sector metadata).
pub fn save_basis(
    path: &Path,
    n_sites: u32,
    hamming_weight: Option<u32>,
    states: &[u64],
    orbit_sizes: &[u32],
) -> io::Result<()> {
    assert_eq!(states.len(), orbit_sizes.len());
    let len = 24 + 12 * states.len();
    write(path, LSRS, LSRS_VERSION, len as u64, |w| {
        w.put_u32(KIND_BASIS);
        w.put_u32(n_sites);
        w.put_u64(hamming_weight.map_or(u64::MAX, u64::from));
        w.put_u64(states.len() as u64);
        states.iter().for_each(|&s| w.put_u64(s));
        orbit_sizes.iter().for_each(|&o| w.put_u32(o));
    })
}

/// A basis loaded from disk.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadedBasis {
    pub n_sites: u32,
    pub hamming_weight: Option<u32>,
    pub states: Vec<u64>,
    pub orbit_sizes: Vec<u32>,
}

/// Loads a basis saved by [`save_basis`]; errors as [`load_vector`]'s.
pub fn load_basis(path: &Path) -> io::Result<LoadedBasis> {
    Ok(read(path, LSRS, LSRS_VERSION, |r| {
        r.kind(KIND_BASIS)?;
        let n_sites = r.get_u32();
        let hamming_weight = u32::try_from(r.get_u64()).ok();
        let n = r.get_u64();
        r.need(n, 12)?;
        let states = (0..n as usize).map(|_| r.get_u64()).collect();
        let orbit_sizes = (0..n as usize).map(|_| r.get_u32()).collect();
        Ok(LoadedBasis { n_sites, hamming_weight, states, orbit_sizes })
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        load_checkpoint, manifest_generations, remove_checkpoint, save_checkpoint,
        save_checkpoint_rotated, CheckpointState,
    };
    use crate::op::DenseOp;
    use ls_kernels::Complex64;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ls_eigen_record_{}_{name}", std::process::id()))
    }

    /// The typed error inside a failed `LSRS` load.
    fn typed(err: io::Error) -> FileError {
        match err.get_ref().is_some_and(|e| e.is::<FileError>()) {
            true => *err.into_inner().unwrap().downcast().unwrap(),
            false => FileError::Io(err),
        }
    }

    type Load = fn(&Path) -> Result<(), FileError>;

    const DIM: usize = 3;

    fn load_lsck(path: &Path) -> Result<(), FileError> {
        let op = DenseOp::new(DIM, vec![0.0; DIM * DIM]);
        load_checkpoint::<Vec<f64>, _>(path, &op).map(drop)
    }

    fn load_lsmf(path: &Path) -> Result<(), FileError> {
        manifest_generations(path).map(drop)
    }

    fn load_lsrs_vector(path: &Path) -> Result<(), FileError> {
        load_vector::<Complex64>(path).map(drop).map_err(typed)
    }

    fn load_lsrs_basis(path: &Path) -> Result<(), FileError> {
        load_basis(path).map(drop).map_err(typed)
    }

    /// One small sealed record of every kind the library writes: its
    /// name, its bytes, and the load that reads it. `path` is scratch.
    fn sealed(path: &Path) -> Vec<(&'static str, Vec<u8>, Load)> {
        let state = CheckpointState {
            k: 1,
            budget: 5,
            restarts: 2,
            draws: 1,
            breakdowns: 0,
            retained: 1,
            diag: vec![-0.5],
            border: vec![0.25],
            basis: vec![vec![1.0, -2.0, 0.5], vec![0.0, 3.0, -1.0]],
        };
        let mut out = Vec::new();
        save_checkpoint(path, &state).unwrap();
        out.push(("LSCK", fs::read(path).unwrap(), load_lsck as Load));
        save_checkpoint_rotated(path, &state, 2).unwrap();
        out.push(("LSMF", fs::read(path).unwrap(), load_lsmf));
        remove_checkpoint(path).unwrap();
        let data = [Complex64::new(1.0, -1.0), Complex64::new(0.5, 2.0)];
        save_vector(path, &data).unwrap();
        out.push(("LSRS vector", fs::read(path).unwrap(), load_lsrs_vector));
        save_basis(path, 4, Some(2), &[0b0011, 0b0101], &[4, 2]).unwrap();
        out.push(("LSRS basis", fs::read(path).unwrap(), load_lsrs_basis));
        out
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error_and_payload_flips_are_corruption() {
        let path = tmp("flip");
        for (name, clean, load) in sealed(&path) {
            fs::write(&path, &clean).unwrap();
            load(&path).unwrap_or_else(|e| panic!("{name}: the clean record fails: {e}"));
            for bit in 0..clean.len() * 8 {
                let mut bytes = clean.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                fs::write(&path, &bytes).unwrap();
                match load(&path) {
                    Err(FileError::PayloadCorrupt { .. }) if bit / 8 >= HEADER => {}
                    Err(
                        FileError::BadMagic(_)
                        | FileError::UnsupportedVersion(_)
                        | FileError::HeaderCorrupt,
                    ) if bit / 8 < HEADER => {}
                    other => panic!("{name} bit {bit}: {other:?}"),
                }
            }
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn every_proper_prefix_is_truncated() {
        let path = tmp("prefix");
        for (name, clean, load) in sealed(&path) {
            for cut in 0..clean.len() {
                fs::write(&path, &clean[..cut]).unwrap();
                match load(&path) {
                    Err(FileError::Truncated { available, .. }) if available == cut as u64 => {}
                    other => panic!("{name} cut {cut}: {other:?}"),
                }
            }
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_write_lands_whole_or_not_at_all() {
        let path = tmp("run.lsck");
        let temp = PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()));
        write(&path, b"TEST", 1, 8, |w| {
            assert!(temp.exists() && !path.exists(), "the record is written beside its name");
            w.put_u64(7);
        })
        .unwrap();
        assert!(!temp.exists());
        let seven = |r: &mut Reader| Ok(r.get_u64());
        assert_eq!(read(&path, b"TEST", 1, seven).unwrap(), 7);

        // A payload of another size than declared is refused, and the
        // file it would have replaced stays.
        let err = write(&path, b"TEST", 1, 9, |w| w.put_u64(8)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(!temp.exists());
        assert_eq!(read(&path, b"TEST", 1, seven).unwrap(), 7);

        // A decoder that leaves payload unread is refused too.
        let half = |r: &mut Reader| Ok(r.get_u32());
        assert!(matches!(read(&path, b"TEST", 1, half), Err(FileError::Malformed(_))));
        fs::remove_file(&path).ok();
    }
}
