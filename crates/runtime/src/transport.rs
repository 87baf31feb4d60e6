//! Pluggable PGAS transport: the layer that decides what "remote" means.
//!
//! Every one-sided primitive of this crate ([`crate::window`],
//! [`crate::cluster::LocaleCtx::barrier_wait`], the producer/consumer
//! [`PairChannel`]) runs over one of two backends, selected by the
//! `LS_TRANSPORT` environment variable. Remote accumulation
//! ([`crate::accum`]) is in-process only: a multiprocess rank adds into
//! the part it hosts, and everything bound for another rank ships as a
//! channel batch.
//!
//! * **`inprocess`** (default) — the historical backend: locales are
//!   threads of one process and every transfer is a memcpy. Hermetic,
//!   deterministic, and what `cargo test` exercises.
//! * **`multiprocess`** — one OS process per locale. A launcher
//!   ([`launch_if_requested`]) re-executes the current binary once per
//!   locale; workers rendezvous through a job directory and then carry
//!   everything — channel batches, barriers, reductions and the window
//!   epochs built on allgathers — over one full mesh of TCP sockets, as
//!   frames of one shape built and parsed by one codec (`frame.rs`): the
//!   receiver reads a frame, then dispatches on its tag.
//!
//! # Execution model (multiprocess)
//!
//! The multiprocess backend is SPMD, like MPI: every worker process runs
//! the *identical* program. Collective operations (barriers, allgathers,
//! the reductions of `ls-eigen`'s distributed vectors) are matched up
//! purely by program order — each process stamps its `k`-th collective
//! with sequence number `k`, and the deterministic control flow that the
//! workspace already guarantees (fixed reduction trees, counter-derived
//! RNG, identical convergence scalars on every rank) makes the `k`-th
//! collective the same operation everywhere. A desynchronized sequence
//! number is detected and aborts the job rather than deadlocking.
//!
//! Distributed vectors keep their full shape in every process; only rank
//! `r`'s part is authoritative on rank `r`. One-sided epochs re-replicate
//! where needed: an [`crate::RmaWriteWindow`] epoch ends by allgathering
//! every locale's finished part, so data produced by distributed
//! enumeration is fully replicated, while Krylov vectors are never
//! replicated — their reductions combine per-rank partials in rank
//! order, bit-identical to the in-process locale-ordered sum.
//!
//! # Visibility and ordering contract
//!
//! Both backends satisfy the same contract (docs/ARCHITECTURE.md states
//! it in full):
//!
//! * puts/gets are only ordered by barriers — a get may not observe a
//!   concurrent epoch's put until a barrier separates them;
//! * channel sends arrive in order per (source, destination) pair;
//! * barriers order everything: an operation issued before a barrier on
//!   one rank happens-before anything issued after that barrier anywhere.

use crate::fault::{FaultKind, FaultPlan, FrameClass};
use crate::frame::{self, Frame, ReadError};
use crate::frame::{TAG_ABORT, TAG_CHAN, TAG_CLOSE, TAG_COLL, TAG_CREDIT, TAG_PING};
use crate::remote::{BufferChannel, RING_SLOTS};
use crate::stats::CommStats;
use bytes::{Buf, BufMut};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Backend selector (`LS_TRANSPORT=inprocess|multiprocess`).
pub const ENV_TRANSPORT: &str = "LS_TRANSPORT";
/// Locale count for the multiprocess launcher (`LS_LOCALES=N`).
pub const ENV_LOCALES: &str = "LS_LOCALES";
/// Internal: this worker's rank. Set by the launcher, never by hand.
pub const ENV_RANK: &str = "LS_MP_RANK";
/// Internal: the rendezvous/job directory. Set by the launcher.
pub const ENV_JOB: &str = "LS_MP_JOB";
/// Internal: enables the parent-death watchdog in workers.
pub const ENV_WATCHDOG: &str = "LS_MP_WATCHDOG";
/// Collective timeout override in seconds (default 180).
pub const ENV_TIMEOUT: &str = "LS_MP_TIMEOUT_SECS";
/// Supervisor retry budget: how many times an abnormally-exited job is
/// relaunched before the supervisor gives up (default 2).
pub const ENV_MAX_RESTARTS: &str = "LS_MP_MAX_RESTARTS";
/// Base supervisor backoff in milliseconds, doubled per retry
/// (default 250).
pub const ENV_BACKOFF_MS: &str = "LS_MP_BACKOFF_MS";
/// Internal: which supervisor incarnation this worker belongs to (0 on
/// the first launch). Set by the supervisor, read by fault injection and
/// [`restart_count`].
pub const ENV_RESTART_COUNT: &str = "LS_MP_RESTART_COUNT";
/// Integrity-checking level (`LS_INTEGRITY=off|wire|full`, default
/// `full`). See [`IntegrityMode`].
pub const ENV_INTEGRITY: &str = "LS_INTEGRITY";

const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);
const DEFAULT_COLLECTIVE_TIMEOUT_SECS: u64 = 180;
/// Heartbeat interval: every live peer gets a `PING` this often.
const HEARTBEAT: Duration = Duration::from_millis(500);
/// Peer-silence threshold: a peer that sends nothing (not even
/// heartbeats) for this long while a collective waits on it is declared
/// failed. The mesh is same-host loopback, where 60 missed heartbeats
/// mean a hung process, not a slow link.
const SILENCE: Duration = Duration::from_secs(30);

/// Exit code of a worker whose launcher died (watchdog).
pub(crate) const EXIT_ORPHANED: i32 = 124;
/// Exit code for transport protocol failures (desync, timeout).
pub(crate) const EXIT_PROTOCOL: i32 = 113;
/// Exit code of a rank that aborted because a *peer* failed (either it
/// detected the failure itself or an `ABORT` frame told it to die).
pub(crate) const EXIT_FAILOVER: i32 = 114;
/// Exit code of a rank that detected data corruption: a frame CRC, the
/// matvec checksum tally or a solver health check. Always fail-stop;
/// the supervisor's relaunch from a checkpoint is the recovery.
pub(crate) const EXIT_CORRUPTION: i32 = 115;

/// A typed, attributed transport failure. This is what replaced the
/// pile of anonymous `fatal()` exits: every failure names the peer (or
/// protocol condition) responsible, and the runtime's internal abort
/// path turns it into a prompt, job-wide abort with a matching exit
/// code (an `ABORT` frame fans out so every rank exits naming the
/// origin).
#[derive(Clone, Debug)]
pub enum TransportError {
    /// A peer's mesh connection died (EOF / reset) or a send to it
    /// failed. `detection` is how long the failure went unnoticed from
    /// this rank's perspective (wait start or socket death, whichever is
    /// later — sub-second in practice, never the collective timeout).
    PeerFailed {
        /// The failed peer's rank.
        peer: usize,
        /// What was observed (connection lost, send failed, silent...).
        detail: String,
        /// Latency from failure to detection on this rank.
        detection: Duration,
    },
    /// A collective arrived with the wrong sequence number: the SPMD
    /// ranks are no longer executing the same program.
    Desync {
        /// The peer whose frame mismatched.
        peer: usize,
        /// The sequence number this rank expected.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// A collective hit the `LS_MP_TIMEOUT_SECS` deadline with the peer
    /// still connected (backstop for failures EOF cannot see).
    Timeout {
        /// The peer that never delivered.
        peer: usize,
        /// The collective's sequence number.
        seq: u64,
        /// How long this rank waited.
        waited: Duration,
    },
    /// A peer told this rank to die (`ABORT` frame), or the local abort
    /// path is already underway.
    Aborted {
        /// The rank where the failure originated.
        origin: usize,
        /// The originating failure, as text.
        reason: String,
    },
    /// A protocol invariant broke (unknown frame tag, a payload too long
    /// for a frame's length field, ...).
    Protocol {
        /// What broke.
        detail: String,
    },
    /// Data corruption caught by the integrity layer: a wire frame failed
    /// its CRC32C, a matvec checksum invariant broke, or a solver health
    /// check failed. Multiprocess the detecting rank aborts the job with
    /// exit 115; in process the error unwinds as a typed panic payload.
    Corruption {
        /// The rank whose data was corrupt (the frame's sender, or the
        /// locale whose partial broke the checksum invariant).
        peer: usize,
        /// What carried the corruption: a frame tag's name (`"coll"`,
        /// `"chan"`, `"abort"`, …), `"header"`, `"abft"` or `"health"`.
        frame: String,
        /// Which check failed (CRC mismatch, checksum-vector drift...).
        kind: String,
    },
}

impl TransportError {
    /// The process exit code this failure maps to: protocol breakages
    /// keep the historical 113, while dying *because a peer died* is 114
    /// so the supervisor can tell the culprit from the collateral.
    pub fn exit_code(&self) -> i32 {
        match self {
            TransportError::PeerFailed { .. } | TransportError::Aborted { .. } => EXIT_FAILOVER,
            TransportError::Desync { .. }
            | TransportError::Timeout { .. }
            | TransportError::Protocol { .. } => EXIT_PROTOCOL,
            TransportError::Corruption { .. } => EXIT_CORRUPTION,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::PeerFailed { peer, detail, detection } => write!(
                f,
                "peer rank {peer} failed ({detail}) — detected in {:.3}s",
                detection.as_secs_f64()
            ),
            TransportError::Desync { peer, expected, got } => write!(
                f,
                "collective desync with rank {peer}: expected seq {expected}, got {got}"
            ),
            TransportError::Timeout { peer, seq, waited } => write!(
                f,
                "collective timeout waiting for rank {peer} (seq {seq}, waited {:.0}s)",
                waited.as_secs_f64()
            ),
            TransportError::Aborted { origin, reason } => {
                write!(f, "aborted by rank {origin}: {reason}")
            }
            TransportError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            TransportError::Corruption { peer, frame, kind } => {
                write!(f, "corrupt {frame} from rank {peer} ({kind})")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Which supervisor incarnation this process belongs to: 0 on a fresh
/// launch, `k` after the supervisor's `k`-th relaunch. Workers read it
/// to arm fault injection; [`TransportSnapshot::restarts`] surfaces it
/// in benchmark output.
pub fn restart_count() -> u64 {
    static COUNT: OnceLock<u64> = OnceLock::new();
    *COUNT.get_or_init(|| env_count(ENV_RESTART_COUNT, Some(0)).unwrap_or_else(|e| fatal(&e)))
}

/// The value a numeric `LS_*` variable selects (`var` is `None` when it
/// is unset). Unset or empty keeps `default` — `None` there means the
/// variable is required. Anything that is not a non-negative integer is
/// an error naming the variable: a typo (`LS_LOCALES=four`) must not
/// silently run the default.
fn parse_count(name: &str, var: Option<&str>, default: Option<u64>) -> Result<u64, String> {
    match var.map(str::trim) {
        None | Some("") => default.ok_or_else(|| format!("{name} is not set")),
        Some(v) => v.parse().map_err(|_| format!("{name}={v:?}: not a non-negative integer")),
    }
}

/// The value a keyword-valued `LS_*` variable selects among `choices`,
/// [`parse_count`]'s twin: unset or empty keeps `default`, anything else
/// that is not one of the keywords is an error naming the variable
/// (`LS_INTEGRITY=ful` must not silently run without the defense, nor
/// `LS_TRANSPORT=multiproces` on simulated locales).
fn parse_choice<T: Copy>(
    name: &str,
    var: Option<&str>,
    choices: &[(&str, T)],
    default: T,
) -> Result<T, String> {
    match var {
        None | Some("") => Ok(default),
        Some(v) => {
            choices.iter().find(|(word, _)| *word == v).map(|&(_, t)| t).ok_or_else(|| {
                let words: Vec<String> =
                    choices.iter().map(|(word, _)| format!("{word:?}")).collect();
                format!("{name}={v:?}: expected one of {}", words.join(", "))
            })
        }
    }
}

/// The process environment's `name` (`None`: unset).
fn env_text(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name}: not valid unicode")),
        var => Ok(var.ok()),
    }
}

/// The value the numeric variable `name` selects in the process
/// environment: `default` when it is unset or empty (`None` there means
/// the variable is required), and an error naming the variable for
/// anything that is not a non-negative integer.
pub fn env_count(name: &str, default: Option<u64>) -> Result<u64, String> {
    parse_count(name, env_text(name)?.as_deref(), default)
}

/// [`parse_choice`] of the process environment.
fn env_choice<T: Copy>(name: &str, choices: &[(&str, T)], default: T) -> Result<T, String> {
    parse_choice(name, env_text(name)?.as_deref(), choices, default)
}

/// A variable read at first use, with no launcher in front to `reject`
/// it: refuses a bad value by name.
fn or_refuse<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| panic!("{e}"))
}

/// `LS_LOCALES` as a job or cluster size: at least one, `default` when
/// unset.
pub(crate) fn locales_from_env(default: usize) -> Result<usize, String> {
    match env_count(ENV_LOCALES, Some(default as u64))? {
        0 => Err(format!("{ENV_LOCALES} must be at least 1")),
        n => Ok(n as usize),
    }
}

/// How much end-to-end integrity checking the runtime performs
/// (`LS_INTEGRITY=off|wire|full`):
///
/// * **`off`** — no checksums anywhere.
/// * **`wire`** — every TCP frame carries a CRC32C over its header and
///   one over its payload, verified on receive. Window epochs travel as
///   collective frames, so this covers them too.
/// * **`full`** (default) — `wire`, plus the matvec checksum-vector
///   invariant in `ls-dist`.
///
/// The mode must be uniform across ranks (the supervisor exports one
/// environment to every worker): it changes the wire format.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IntegrityMode {
    /// No integrity checking.
    Off,
    /// Frame CRCs only.
    Wire,
    /// Frame CRCs + matvec checksum vectors.
    Full,
}

impl IntegrityMode {
    /// The process's mode: `LS_INTEGRITY`, parsed on first use. One mode
    /// for the whole run — the wire format depends on it, and the matvec
    /// and solver checks ask on every product.
    ///
    /// # Panics
    /// Panics on an unrecognized value — a typo must not silently
    /// disable the defense.
    pub fn from_env() -> IntegrityMode {
        static MODE: OnceLock<IntegrityMode> = OnceLock::new();
        *MODE.get_or_init(|| or_refuse(Self::try_from_env()))
    }

    const CHOICES: [(&'static str, IntegrityMode); 3] = [
        ("off", IntegrityMode::Off),
        ("wire", IntegrityMode::Wire),
        ("full", IntegrityMode::Full),
    ];

    /// `LS_INTEGRITY` as the supervisor checks it before it spawns anything.
    pub(crate) fn try_from_env() -> Result<IntegrityMode, String> {
        env_choice(ENV_INTEGRITY, &Self::CHOICES, IntegrityMode::Full)
    }

    /// True when wire frames carry CRCs (`wire` or `full`).
    #[inline]
    pub fn wire(self) -> bool {
        self != IntegrityMode::Off
    }

    /// True when matvec checksums are on (`full`).
    #[inline]
    pub fn full(self) -> bool {
        self == IntegrityMode::Full
    }
}

/// Which transport the process runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Locales are threads of this process; transfers are memcpys.
    InProcess,
    /// Locales are OS processes; transfers cross real process boundaries.
    MultiProcess,
}

impl Backend {
    /// Stable lowercase name (`"inprocess"` / `"multiprocess"`), as used
    /// in `LS_TRANSPORT` and benchmark JSON labels.
    pub fn name(self) -> &'static str {
        match self {
            Backend::InProcess => "inprocess",
            Backend::MultiProcess => "multiprocess",
        }
    }
}

/// The backend requested through `LS_TRANSPORT`.
///
/// # Panics
/// Panics on an unrecognized value — a typo must not silently fall back
/// to simulated numbers.
pub fn requested_backend() -> Backend {
    or_refuse(try_requested_backend())
}

fn try_requested_backend() -> Result<Backend, String> {
    let choices = [Backend::InProcess, Backend::MultiProcess].map(|b| (b.name(), b));
    env_choice(ENV_TRANSPORT, &choices, Backend::InProcess)
}

/// The backend this process is actually running on: `MultiProcess` only
/// when the process is a connected worker of a multiprocess job.
pub fn backend() -> Backend {
    if active().is_some() {
        Backend::MultiProcess
    } else {
        Backend::InProcess
    }
}

/// True on the rank whose output is canonical (rank 0), and always true
/// in-process. Gate file writes (benchmark JSON, reports) on this so a
/// multiprocess job does not race N identical writers.
pub fn is_primary() -> bool {
    active().map(|mp| mp.rank() == 0).unwrap_or(true)
}

static RUNTIME: OnceLock<Option<&'static MpRuntime>> = OnceLock::new();

/// The multiprocess runtime of this worker, or `None` when the process
/// is not part of a multiprocess job. Initializes (rendezvous + mesh
/// connect) on first call when `LS_MP_RANK` is present.
pub fn active() -> Option<&'static MpRuntime> {
    *RUNTIME.get_or_init(|| {
        if std::env::var_os(ENV_RANK).is_some() {
            let rt: &'static MpRuntime = Box::leak(Box::new(MpRuntime::connect()));
            rt.spawn_receivers();
            rt.spawn_watchdog();
            rt.spawn_heartbeat();
            Some(rt)
        } else {
            None
        }
    })
}

/// The multiprocess entry hook: call this first in `main` of any binary
/// that supports `LS_TRANSPORT=multiprocess`.
///
/// * In-process backend requested: returns immediately (no-op).
/// * `LS_TRANSPORT` names neither backend: exits 2 naming the variable,
///   like every knob the supervisor refuses before it spawns anything.
/// * Worker process (spawned by the supervisor): connects the mesh and
///   returns — the program then runs SPMD.
/// * Supervisor (multiprocess requested, not yet a worker): spawns
///   `LS_LOCALES` copies of the current binary with identical arguments,
///   reaps them, classifies abnormal exits, relaunches the job (bounded
///   by `LS_MP_MAX_RESTARTS`, resuming from checkpoints where the
///   program saves them), and **exits** — it never returns. See
///   [`crate::supervisor`].
pub fn launch_if_requested() {
    let requested = try_requested_backend().unwrap_or_else(|e| crate::supervisor::reject(&e));
    if requested != Backend::MultiProcess {
        return;
    }
    if std::env::var_os(ENV_RANK).is_some() {
        // Worker: ensure the runtime is up before any Cluster exists.
        let _ = active();
        return;
    }
    crate::supervisor::run_supervisor();
}

/// Fast failure poll for spin loops that wait on peer progress outside a
/// collective (producer/consumer drains). No-op on the in-process
/// backend. On the multiprocess backend, aborts the job promptly when a
/// peer has died — such loops otherwise spin until the full collective
/// timeout because nothing they wait on ever arrives.
///
/// Only call this from code that runs strictly *between* two barriers of
/// a product (every `PcEngine` drain does): inside that bracket a peer
/// cannot have exited cleanly, so a dead connection is always a failure.
pub fn poll_failure() {
    if let Some(mp) = active() {
        mp.check_peers_alive("peer lost during producer/consumer product");
    }
}

/// Unrecoverable failure *before* the mesh exists (rendezvous, bad
/// worker environment): there is no one to send an `ABORT` to yet, so
/// die loudly and let the supervisor classify the exit.
fn fatal(msg: &str) -> ! {
    let rank = std::env::var(ENV_RANK).unwrap_or_default();
    eprintln!("ls-mp[rank {rank}]: fatal: {msg}");
    std::process::exit(EXIT_PROTOCOL);
}

/// One collective inbox per peer: frames arrive FIFO from the peer's
/// receiver thread, the main thread pops them in sequence order.
#[derive(Default)]
struct CollQueue {
    q: Mutex<VecDeque<(u64, Vec<u8>)>>,
    cv: Condvar,
}

/// Receiver side of one multiprocess channel.
#[derive(Default)]
struct ChanInbox {
    q: Mutex<VecDeque<Vec<u8>>>,
    closed: AtomicBool,
}

/// Wire-level statistics of the multiprocess backend: real bytes moved,
/// not simulated counts. [`CommStats`] keeps recording the *logical*
/// one-sided operations on both backends; these counters exist only when
/// bytes genuinely cross a process boundary.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Frames written to TCP peers (heartbeats excluded, as in the three
    /// counters below).
    pub tx_frames: AtomicU64,
    /// Bytes written to TCP peers (headers + payloads + CRCs).
    pub tx_bytes: AtomicU64,
    /// Frames read from TCP peers.
    pub rx_frames: AtomicU64,
    /// Bytes read from TCP peers.
    pub rx_bytes: AtomicU64,
    /// Barrier crossings.
    pub barriers: AtomicU64,
    /// Total nanoseconds spent inside barriers (latency numerator).
    pub barrier_nanos: AtomicU64,
    /// Peer failures this rank detected (EOF, send failure, silence).
    pub peer_failures: AtomicU64,
    /// Heartbeat frames sent.
    pub heartbeats: AtomicU64,
    /// Total failure-to-detection nanoseconds (latency numerator over
    /// `peer_failures`).
    pub detection_nanos: AtomicU64,
    /// Bytes this rank ran through CRC32C verification (received headers
    /// and payloads — a measure of integrity coverage, not cost).
    pub crc_bytes_checked: AtomicU64,
}

impl TransportStats {
    fn add(&self, counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Plain-data snapshot.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            tx_frames: self.tx_frames.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            rx_frames: self.rx_frames.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            barrier_nanos: self.barrier_nanos.load(Ordering::Relaxed),
            peer_failures: self.peer_failures.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            detection_nanos: self.detection_nanos.load(Ordering::Relaxed),
            crc_bytes_checked: self.crc_bytes_checked.load(Ordering::Relaxed),
            restarts: restart_count(),
        }
    }

    /// Zeroes every counter (`restarts` is incarnation identity, not a
    /// counter — it survives resets).
    pub fn reset(&self) {
        self.tx_frames.store(0, Ordering::Relaxed);
        self.tx_bytes.store(0, Ordering::Relaxed);
        self.rx_frames.store(0, Ordering::Relaxed);
        self.rx_bytes.store(0, Ordering::Relaxed);
        self.barriers.store(0, Ordering::Relaxed);
        self.barrier_nanos.store(0, Ordering::Relaxed);
        self.peer_failures.store(0, Ordering::Relaxed);
        self.heartbeats.store(0, Ordering::Relaxed);
        self.detection_nanos.store(0, Ordering::Relaxed);
        self.crc_bytes_checked.store(0, Ordering::Relaxed);
    }
}

/// Plain-data snapshot of [`TransportStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Frames written to TCP peers.
    pub tx_frames: u64,
    /// Bytes written to TCP peers.
    pub tx_bytes: u64,
    /// Frames read from TCP peers.
    pub rx_frames: u64,
    /// Bytes read from TCP peers.
    pub rx_bytes: u64,
    /// Barrier crossings.
    pub barriers: u64,
    /// Nanoseconds spent in barriers.
    pub barrier_nanos: u64,
    /// Peer failures this rank detected.
    pub peer_failures: u64,
    /// Heartbeat frames sent.
    pub heartbeats: u64,
    /// Failure-to-detection nanoseconds (numerator over `peer_failures`).
    pub detection_nanos: u64,
    /// Bytes run through CRC32C verification.
    pub crc_bytes_checked: u64,
    /// Supervisor incarnation of this process ([`restart_count`]): how
    /// many times the job was relaunched before this snapshot was taken.
    pub restarts: u64,
}

impl TransportSnapshot {
    /// Mean barrier latency in seconds (0 when no barrier was crossed).
    pub fn mean_barrier_seconds(&self) -> f64 {
        if self.barriers == 0 {
            0.0
        } else {
            self.barrier_nanos as f64 * 1e-9 / self.barriers as f64
        }
    }

    /// Mean failure-to-detection latency in seconds (0 when no peer
    /// failure was detected).
    pub fn mean_detection_seconds(&self) -> f64 {
        if self.peer_failures == 0 {
            0.0
        } else {
            self.detection_nanos as f64 * 1e-9 / self.peer_failures as f64
        }
    }
}

/// Liveness bookkeeping for one mesh peer, written by receiver threads
/// and the heartbeat sender, read by every wait loop.
#[derive(Default)]
struct PeerHealth {
    /// The connection died (EOF, reset, failed send).
    dead: AtomicBool,
    /// Nanoseconds since runtime start when death was first observed.
    died_at: AtomicU64,
    /// Nanoseconds since runtime start of the last received frame
    /// (heartbeats included) — the silent-peer clock.
    last_rx: AtomicU64,
}

/// The per-worker multiprocess runtime: rank identity, the TCP mesh, the
/// rendezvous job directory, and the registries behind channels. One per
/// process, `'static`, created lazily by [`active`].
pub struct MpRuntime {
    rank: usize,
    n: usize,
    job_dir: PathBuf,
    /// Write halves of the mesh (`None` at the self index).
    writers: Vec<Option<Mutex<TcpStream>>>,
    /// Read halves, drained once by [`Self::spawn_receivers`].
    readers: Mutex<Vec<Option<TcpStream>>>,
    /// Collective sequence counter; the guard also serializes collectives.
    coll_seq: Mutex<u64>,
    coll_in: Vec<CollQueue>,
    chans: Mutex<HashMap<u64, Arc<ChanInbox>>>,
    /// Sender-side flow control of each channel: batch credits available,
    /// mirroring the in-process [`BufferChannel`]'s ring of `RING_SLOTS`
    /// (a credit returns when the consumer took a batch).
    credits: Mutex<HashMap<u64, Arc<AtomicUsize>>>,
    next_chan: AtomicU64,
    stats: TransportStats,
    timeout: Duration,
    /// Per-peer liveness (self index unused).
    health: Vec<PeerHealth>,
    /// Set by the first abort of this process, whose thread alone prints
    /// the last line and exits (see [`Self::abort_job`]).
    aborting: AtomicBool,
    /// Monotonic time base for the health clocks.
    epoch: Instant,
    /// Parsed `LS_FAULT` plan (empty when unset).
    faults: FaultPlan,
    /// Supervisor incarnation, gating which fault actions are armed.
    attempt: u64,
    /// 1-based count of barriers entered — the fault-trigger clock.
    barrier_ordinal: AtomicU64,
    /// Per-fault-action budget spent (indexed like `faults.actions`).
    fault_spent: Vec<AtomicU64>,
    /// Integrity level, cached at connect (the wire format cannot
    /// change mid-job).
    integrity: IntegrityMode,
    /// 1-based count of matvec+dot epochs — the `nan` fault-trigger
    /// clock.
    matvec_ordinal: AtomicU64,
}

impl MpRuntime {
    /// This worker's locale index.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of worker processes (= locales) in the job.
    #[inline]
    pub fn n_locales(&self) -> usize {
        self.n
    }

    /// Wire statistics of this process.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Rendezvous + full-mesh connect. Every worker binds an ephemeral
    /// listener, publishes its port as a file in the job directory
    /// (write-tmp-then-rename, so readers never see a partial file),
    /// connects to all lower ranks and accepts from all higher ranks.
    fn connect() -> MpRuntime {
        if !cfg!(unix) {
            fatal("the multiprocess backend requires a unix platform");
        }
        // The supervisor validated these before spawning; a worker started
        // by hand with a typo dies here, naming the variable.
        let knob = |name, default| env_count(name, default).unwrap_or_else(|e| fatal(&e));
        let rank = knob(ENV_RANK, None) as usize;
        let n = knob(ENV_LOCALES, None) as usize;
        let job_dir = PathBuf::from(
            std::env::var_os(ENV_JOB).unwrap_or_else(|| fatal(&format!("{ENV_JOB} missing"))),
        );
        let timeout =
            Duration::from_secs(knob(ENV_TIMEOUT, Some(DEFAULT_COLLECTIVE_TIMEOUT_SECS)));
        let faults = FaultPlan::from_env();
        let attempt = restart_count();

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
        let port = listener.local_addr().expect("listener addr").port();
        let port_file = job_dir.join(format!("port-{rank}"));
        let tmp = job_dir.join(format!("port-{rank}.tmp"));
        fs::write(&tmp, port.to_string()).expect("write port file");
        fs::rename(&tmp, &port_file).expect("publish port file");

        let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        // Dial every lower rank, announcing who we are.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let peer_file = job_dir.join(format!("port-{peer}"));
            let stream = loop {
                if let Ok(text) = fs::read_to_string(&peer_file) {
                    if let Ok(port) = text.trim().parse::<u16>() {
                        if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                            break s;
                        }
                    }
                }
                if Instant::now() > deadline {
                    fatal(&format!("rendezvous timeout dialing rank {peer}"));
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            stream.set_nodelay(true).ok();
            (&stream).write_all(&(rank as u32).to_le_bytes()).expect("send hello");
            *slot = Some(stream);
        }
        // Accept every higher rank; the hello says which one arrived.
        for _ in rank + 1..n {
            listener.set_nonblocking(false).expect("blocking accept mode");
            let (stream, _) = listener.accept().unwrap_or_else(|e| {
                fatal(&format!("mesh accept: {e}"));
            });
            stream.set_nodelay(true).ok();
            let mut hello = [0u8; 4];
            (&stream).read_exact(&mut hello).expect("read hello");
            let peer = u32::from_le_bytes(hello) as usize;
            if peer <= rank || peer >= n || streams[peer].is_some() {
                fatal(&format!("bogus hello from rank {peer}"));
            }
            streams[peer] = Some(stream);
        }

        let (mut writers, mut readers) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for s in streams {
            // A blocked send must not outlive the collective timeout
            // (backstop: a peer that stops reading but keeps its socket open).
            if let Some(s) = &s {
                s.set_write_timeout(Some(timeout)).ok();
            }
            readers.push(s.as_ref().map(|s| s.try_clone().expect("clone mesh stream")));
            writers.push(s.map(Mutex::new));
        }
        let fault_spent = (0..faults.actions.len()).map(|_| AtomicU64::new(0)).collect();
        MpRuntime {
            rank,
            n,
            job_dir,
            writers,
            readers: Mutex::new(readers),
            coll_seq: Mutex::new(0),
            coll_in: (0..n).map(|_| CollQueue::default()).collect(),
            chans: Mutex::new(HashMap::new()),
            credits: Mutex::new(HashMap::new()),
            next_chan: AtomicU64::new(0),
            stats: TransportStats::default(),
            timeout,
            health: (0..n).map(|_| PeerHealth::default()).collect(),
            aborting: AtomicBool::new(false),
            epoch: Instant::now(),
            faults,
            attempt,
            barrier_ordinal: AtomicU64::new(0),
            fault_spent,
            integrity: IntegrityMode::from_env(),
            matvec_ordinal: AtomicU64::new(0),
        }
    }

    /// One receiver thread per peer: reads frames off the stream in order
    /// and dispatches them. EOF (peer exited) ends the thread quietly.
    fn spawn_receivers(&'static self) {
        let mut readers = self.readers.lock().unwrap();
        for (peer, slot) in readers.iter_mut().enumerate() {
            let Some(stream) = slot.take() else { continue };
            std::thread::Builder::new()
                .name(format!("ls-mp-rx-{peer}"))
                .spawn(move || self.receive_loop(peer, stream))
                .expect("spawn receiver thread");
        }
    }

    /// Workers must not outlive a killed supervisor: the supervisor holds
    /// the write end of each worker's stdin pipe and never writes, so EOF
    /// on stdin — including after `kill -9` of the supervisor — means
    /// orphaned. Orphans best-effort-delete the job directory on the way
    /// out (the supervisor is gone, so nobody else will), which is what
    /// keeps `/dev/shm` free of `ls-mp-*` debris after any exit path.
    fn spawn_watchdog(&'static self) {
        if std::env::var_os(ENV_WATCHDOG).is_none() {
            return;
        }
        let job_dir = self.job_dir.clone();
        std::thread::Builder::new()
            .name("ls-mp-watchdog".into())
            .spawn(move || {
                let mut buf = [0u8; 64];
                let mut stdin = std::io::stdin();
                loop {
                    match stdin.read(&mut buf) {
                        Ok(0) | Err(_) => {
                            let _ = fs::remove_dir_all(&job_dir);
                            std::process::exit(EXIT_ORPHANED);
                        }
                        Ok(_) => {}
                    }
                }
            })
            .expect("spawn watchdog thread");
    }

    /// Heartbeat sender: a `PING` frame to every live peer each interval.
    /// Pings advance the receivers' silent-peer clocks; a send failure
    /// doubles as failure detection between collectives.
    fn spawn_heartbeat(&'static self) {
        if self.n < 2 {
            return;
        }
        std::thread::Builder::new()
            .name("ls-mp-hb".into())
            .spawn(move || loop {
                std::thread::sleep(HEARTBEAT);
                if self.aborting.load(Ordering::SeqCst) {
                    return;
                }
                self.broadcast(TAG_PING, 0, &[]);
            })
            .expect("spawn heartbeat thread");
    }

    /// Nanoseconds since runtime start (the health clock base).
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Corruption this rank detected: a frame that failed its CRC, or a
    /// check above the transport ([`crate::collective::raise_corruption`]).
    /// Named in one write (a collective frame reaches every
    /// peer, so several ranks may report it at once), and fail-stop: the
    /// job aborts with exit 115 and the supervisor's relaunch from the
    /// newest checkpoint is the recovery.
    pub(crate) fn raise_corruption(&self, peer: usize, frame: &str, kind: &str) -> ! {
        let line = format!(
            "ls-mp[rank {}]: integrity: corrupt {frame} from rank {peer} ({kind})\n",
            self.rank
        );
        let _ = std::io::stderr().write_all(line.as_bytes());
        let (frame, kind) = (frame.into(), kind.into());
        self.abort_job(TransportError::Corruption { peer, frame, kind })
    }

    /// Marks a peer's connection dead and wakes every collective waiter
    /// so detection is immediate, not deferred to the next timeout slice.
    fn note_peer_lost(&self, peer: usize) {
        let health = &self.health[peer];
        if !health.dead.swap(true, Ordering::SeqCst) {
            health.died_at.store(self.now_nanos().max(1), Ordering::SeqCst);
        }
        for queue in &self.coll_in {
            queue.cv.notify_all();
        }
    }

    /// Builds the attributed [`TransportError::PeerFailed`] for a failure
    /// of `peer` first observable to the caller at `since` (nanos on the
    /// health clock), recording the detection-latency statistics.
    fn peer_failed(&self, peer: usize, detail: &str, since: u64) -> TransportError {
        let died = self.health[peer].died_at.load(Ordering::SeqCst);
        let detection = Duration::from_nanos(self.now_nanos().saturating_sub(died.max(since)));
        self.stats.add(&self.stats.peer_failures, 1);
        self.stats.add(&self.stats.detection_nanos, detection.as_nanos() as u64);
        TransportError::PeerFailed { peer, detail: detail.to_string(), detection }
    }

    /// Aborts the job on a dead peer: the check behind [`poll_failure`]
    /// and the channel spin loops. Only valid between the barriers of a
    /// product, where a dead connection is always a genuine failure.
    fn check_peers_alive(&self, detail: &str) {
        if self.aborting.load(Ordering::SeqCst) {
            // Another thread of this process is already exiting.
            std::thread::sleep(Duration::from_millis(50));
            return;
        }
        let now = self.now_nanos();
        for peer in 0..self.n {
            if peer != self.rank && self.health[peer].dead.load(Ordering::SeqCst) {
                self.abort_job(self.peer_failed(peer, detail, now));
            }
        }
    }

    /// The one-way door of every failure. The first abort of the process
    /// decides its exit: it fans an `ABORT` frame to every live peer (so
    /// the whole job dies promptly instead of burning its collective
    /// timeout; remote-origin aborts are not re-fanned), prints the
    /// attributed diagnostic as one write, so the ranks' lines do not
    /// interleave on the stderr they share, and exits with the failure's
    /// code. Every later abort parks until the process is gone — a peer's
    /// `ABORT` that arrives while this rank fans out its own must not
    /// turn the detecting rank's 115 into a collateral 114.
    pub(crate) fn abort_job(&self, err: TransportError) -> ! {
        if self.aborting.swap(true, Ordering::SeqCst) {
            loop {
                std::thread::park();
            }
        }
        let code = err.exit_code();
        if !matches!(err, TransportError::Aborted { .. }) {
            let word = ((self.rank as u64) << 32) | code as u32 as u64;
            self.broadcast(TAG_ABORT, word, err.to_string().as_bytes());
        }
        let line = format!("ls-mp[rank {}]: abort: {err} (exit {code})\n", self.rank);
        let _ = std::io::stderr().write_all(line.as_bytes());
        std::process::exit(code);
    }

    /// Sends one frame to every live peer — the ping and abort fan-outs;
    /// a failed write marks its peer lost. These are no `LS_FAULT` class's
    /// frames: no delay or flip touches them.
    fn broadcast(&self, tag: u8, word: u64, payload: &[u8]) {
        let Ok(bytes) = frame::encode(tag, word, payload, self.integrity.wire()) else {
            return;
        };
        let live = |&p: &usize| p != self.rank && !self.health[p].dead.load(Ordering::SeqCst);
        for peer in (0..self.n).filter(live) {
            let _ = self.write_frame(peer, tag, &bytes);
        }
    }

    /// Writes one encoded frame to `peer` and counts it: in the wire
    /// statistics when [`frame::counted`], as a heartbeat otherwise. A
    /// failed write marks the peer lost.
    fn write_frame(&self, peer: usize, tag: u8, bytes: &[u8]) -> std::io::Result<()> {
        let writer = self.writers[peer].as_ref().expect("frames go to peers, never to self");
        if let Err(e) = writer.lock().unwrap().write_all(bytes) {
            self.note_peer_lost(peer);
            return Err(e);
        }
        if frame::counted(tag) {
            self.stats.add(&self.stats.tx_frames, 1);
            self.stats.add(&self.stats.tx_bytes, bytes.len() as u64);
        } else {
            self.stats.add(&self.stats.heartbeats, 1);
        }
        Ok(())
    }

    /// Reads frames off one peer's stream in order and dispatches them.
    /// Any read failure — EOF on a cleanly-exited peer, ECONNRESET on a
    /// crashed one — marks the peer dead *immediately* and wakes every
    /// collective waiter, so detection costs milliseconds, not the
    /// collective timeout. Whether the death is fatal is decided at the
    /// wait sites: a peer that already contributed everything this rank
    /// will ever wait for is allowed to be gone.
    fn receive_loop(&'static self, peer: usize, mut stream: TcpStream) {
        let sealed = self.integrity.wire();
        loop {
            let (Frame { tag, word, payload }, intact) = match frame::read(&mut stream, sealed)
            {
                Ok(frame) => (frame, true),
                Err(ReadError::Payload(frame)) => (frame, false),
                Err(ReadError::Lost) => return self.note_peer_lost(peer),
                Err(ReadError::Header) => {
                    self.raise_corruption(peer, "header", "header CRC mismatch")
                }
            };
            self.health[peer].last_rx.store(self.now_nanos(), Ordering::Relaxed);
            if frame::counted(tag) {
                let len = payload.len();
                self.stats.add(&self.stats.rx_frames, 1);
                self.stats.add(&self.stats.rx_bytes, frame::wire_len(len, sealed) as u64);
                if sealed {
                    self.stats.add(&self.stats.crc_bytes_checked, (frame::HEAD + len) as u64);
                }
            }
            if !intact {
                self.raise_corruption(peer, frame::name(tag), "payload CRC mismatch");
            }
            match tag {
                TAG_COLL => {
                    let queue = &self.coll_in[peer];
                    queue.q.lock().unwrap().push_back((word, payload));
                    queue.cv.notify_all();
                }
                TAG_CHAN => self.inbox(word).q.lock().unwrap().push_back(payload),
                TAG_CLOSE => self.inbox(word).closed.store(true, Ordering::Release),
                TAG_CREDIT => {
                    self.credit_cell(word).fetch_add(1, Ordering::Release);
                }
                TAG_ABORT => {
                    // Exit right here: the job is already lost, and the
                    // sooner every rank is gone the sooner the supervisor
                    // can relaunch from the last checkpoint. A rank
                    // already aborting on its own keeps its own code.
                    let (origin, code) = ((word >> 32) as usize, word as u32 as i32);
                    let reason = String::from_utf8_lossy(&payload);
                    let reason = format!("{reason} (peer exit {code})");
                    self.abort_job(TransportError::Aborted { origin, reason })
                }
                TAG_PING => {}
                other => self.abort_job(TransportError::Protocol {
                    detail: format!("unknown frame tag {other} from rank {peer}"),
                }),
            }
        }
    }

    fn inbox(&self, chan: u64) -> Arc<ChanInbox> {
        Arc::clone(self.chans.lock().unwrap().entry(chan).or_default())
    }

    fn credit_cell(&self, chan: u64) -> Arc<AtomicUsize> {
        let full = || Arc::new(AtomicUsize::new(RING_SLOTS));
        Arc::clone(self.credits.lock().unwrap().entry(chan).or_insert_with(full))
    }

    /// Executes the delay actions armed for frames of `class` (no-op
    /// without a matching `LS_FAULT` plan). Each action announces itself
    /// the first time it fires.
    fn fault_delay_hook(&self, class: FrameClass) {
        for (idx, action) in self.faults.delays_for(self.rank, self.attempt, class) {
            let spent = self.fault_spent[idx].fetch_add(1, Ordering::Relaxed);
            if spent == 0 && action.count > 0 {
                eprintln!(
                    "ls-mp[rank {}]: fault injection: delay {} ms before each of the next {} \
                     {} frames",
                    self.rank,
                    action.ms,
                    action.count,
                    action.frame.name()
                );
            }
            if spent < action.count {
                std::thread::sleep(action.delay());
            }
        }
    }

    /// Advances the barrier-ordinal clock and executes any kill /
    /// drop-conn action armed for this entry.
    fn fault_barrier_hook(&self) {
        let ordinal = self.barrier_ordinal.fetch_add(1, Ordering::Relaxed) + 1;
        for action in self.faults.at_barrier(self.rank, self.attempt, ordinal) {
            match action.kind {
                FaultKind::Kill => {
                    eprintln!(
                        "ls-mp[rank {}]: fault injection: kill at barrier {ordinal}",
                        self.rank
                    );
                    std::process::abort();
                }
                FaultKind::DropConn => {
                    eprintln!(
                        "ls-mp[rank {}]: fault injection: drop-conn at barrier {ordinal}",
                        self.rank
                    );
                    for writer in self.writers.iter().flatten() {
                        let _ = writer.lock().unwrap().shutdown(std::net::Shutdown::Both);
                    }
                }
                // The corruption kinds fire at their own sites: flip-bit
                // in seal, nan in the matvec epoch clock.
                FaultKind::Delay | FaultKind::FlipBit | FaultKind::Nan => {}
            }
        }
    }

    /// Encodes a channel or collective frame and executes any armed
    /// `flip-bit` injection on the bytes [`frame::encode`] returned. The
    /// flip lands *after* the payload CRC is sealed and flips the first
    /// payload byte — corrupting the data the way a failing NIC or DMA
    /// engine would, so only the receiver's verification can catch it.
    /// Injections count (and fire on) the `nth` *payload-bearing* frame
    /// of their class; with `LS_INTEGRITY=off` no checksum travels and
    /// the flip goes undetected, which is exactly what the knob trades
    /// away.
    fn seal(&self, tag: u8, word: u64, payload: &[u8]) -> Result<Vec<u8>, TransportError> {
        let sealed = self.integrity.wire();
        let mut bytes = frame::encode(tag, word, payload, sealed)?;
        if !payload.is_empty() {
            let class = frame::class(tag);
            for (idx, action) in self.faults.flips_for(self.rank, self.attempt, class) {
                if self.fault_spent[idx].fetch_add(1, Ordering::Relaxed) + 1 == action.nth {
                    eprintln!(
                        "ls-mp[rank {}]: fault injection: flip-bit in {} frame {}",
                        self.rank,
                        class.name(),
                        action.nth
                    );
                    bytes[frame::header_len(sealed)] ^= 1;
                }
            }
        }
        Ok(bytes)
    }

    /// Fallible frame send: a failed write marks the peer dead and
    /// returns the attributed failure instead of killing the process.
    fn try_send_frame(&self, peer: usize, tag: u8, bytes: &[u8]) -> Result<(), TransportError> {
        self.fault_delay_hook(frame::class(tag));
        let sent_at = self.now_nanos();
        self.write_frame(peer, tag, bytes)
            .map_err(|e| self.peer_failed(peer, &format!("send failed: {e}"), sent_at))
    }

    /// Sends one channel frame (`CHAN`, `CLOSE` or `CREDIT`) to `peer`,
    /// failing like [`Self::allgather`].
    fn send(&self, peer: usize, tag: u8, chan: u64, payload: &[u8]) {
        let sent =
            self.seal(tag, chan, payload).and_then(|b| self.try_send_frame(peer, tag, &b));
        sent.unwrap_or_else(|e| self.abort_job(e));
    }

    /// Pops the collective payload with sequence `seq` from `peer`. The
    /// per-peer stream is FIFO and both ranks count collectives in the
    /// same SPMD program order, so the queue head must carry exactly
    /// `seq` — anything else is a desynchronized job.
    ///
    /// Failure handling, in priority order: an already-queued frame is
    /// consumed even if the peer has since died (its last contribution
    /// before a clean exit is still valid); a dead connection fails the
    /// wait immediately (sub-second detection, not the timeout); a peer
    /// silent past the heartbeat threshold is declared hung; the
    /// collective timeout is the last-ditch backstop.
    fn try_pop_coll(&self, peer: usize, seq: u64) -> Result<Vec<u8>, TransportError> {
        let queue = &self.coll_in[peer];
        let wait_start = Instant::now();
        let wait_start_nanos = self.now_nanos();
        let deadline = wait_start + self.timeout;
        let mut q = queue.q.lock().unwrap();
        loop {
            if let Some(&(s, _)) = q.front() {
                if s != seq {
                    return Err(TransportError::Desync { peer, expected: seq, got: s });
                }
                return Ok(q.pop_front().unwrap().1);
            }
            if self.aborting.load(Ordering::SeqCst) {
                return Err(TransportError::Aborted {
                    origin: self.rank,
                    reason: "local abort already in progress".into(),
                });
            }
            if self.health[peer].dead.load(Ordering::SeqCst) {
                return Err(self.peer_failed(
                    peer,
                    "connection lost during collective",
                    wait_start_nanos,
                ));
            }
            let last_rx = self.health[peer].last_rx.load(Ordering::Relaxed);
            // Only distrust silence we actually waited through: the clock
            // may be stale from a long compute phase.
            let silent = self.now_nanos().saturating_sub(last_rx.max(wait_start_nanos));
            if silent > SILENCE.as_nanos() as u64 {
                self.note_peer_lost(peer);
                return Err(self.peer_failed(
                    peer,
                    "peer silent past heartbeat threshold",
                    wait_start_nanos,
                ));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout { peer, seq, waited: self.timeout });
            }
            // Short slices: death/abort flags flip without a cv notify
            // in some paths, and 100 ms keeps detection prompt anyway.
            let slice = (deadline - now).min(Duration::from_millis(100));
            let (guard, _) = queue.cv.wait_timeout(q, slice).unwrap();
            q = guard;
        }
    }

    /// Fallible allgather: every rank contributes `payload`, every rank
    /// receives all contributions indexed by rank. The fundamental
    /// collective — barriers and reductions are built on it.
    fn try_allgather(&self, payload: &[u8]) -> Result<Vec<Vec<u8>>, TransportError> {
        // The guard both allocates the sequence number and serializes
        // collectives within the process.
        let mut seq_guard = self.coll_seq.lock().unwrap();
        let seq = *seq_guard;
        let bytes = self.seal(TAG_COLL, seq, payload)?;
        *seq_guard += 1;
        for peer in 0..self.n {
            if peer != self.rank {
                self.try_send_frame(peer, TAG_COLL, &bytes)?;
            }
        }
        let mut out: Vec<Vec<u8>> = (0..self.n).map(|_| Vec::new()).collect();
        out[self.rank] = payload.to_vec();
        for (peer, slot) in out.iter_mut().enumerate() {
            if peer != self.rank {
                *slot = self.try_pop_coll(peer, seq)?;
            }
        }
        drop(seq_guard);
        Ok(out)
    }

    /// [`Self::try_allgather`] that aborts the whole job on failure.
    pub(crate) fn allgather(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        self.try_allgather(payload).unwrap_or_else(|e| self.abort_job(e))
    }

    /// [`Self::allgather`] of one slice of elements a rank: every rank
    /// receives every rank's `own`, decoded, in rank order. The exchange
    /// behind the window epochs and [`crate::collective::for_each_global`].
    ///
    /// # Safety
    /// `T` must be `Copy` without padding bytes (see [`slice_as_bytes`]).
    pub(crate) unsafe fn allgather_elems<T: Copy>(&self, own: &[T]) -> Vec<Vec<T>> {
        // The caller vouches for `T` (this function's contract).
        let all = self.allgather(slice_as_bytes(own));
        let decode = |bytes: Vec<u8>| {
            let mut elems = Vec::new();
            decode_extend(&bytes, &mut elems);
            elems
        };
        all.into_iter().map(decode).collect()
    }

    /// Barrier: an empty allgather — a failure aborts the whole job.
    /// Per-peer FIFO makes it a flush: every channel/close/credit frame a peer sent before
    /// entering has been applied here once its barrier frame is popped.
    /// Also the fault-injection trigger point: `LS_FAULT` kill/drop-conn
    /// actions fire on entry, keyed by the 1-based count of barriers this
    /// process has entered.
    pub fn barrier(&self) {
        self.fault_barrier_hook();
        let t0 = Instant::now();
        self.allgather(&[]);
        self.stats.add(&self.stats.barriers, 1);
        self.stats.add(&self.stats.barrier_nanos, t0.elapsed().as_nanos() as u64);
    }

    /// Lane-wise allreduce of `f64` partials: gathers every rank's lanes
    /// and sums them **in rank order**, which is bit-identical to the
    /// in-process backend's locale-ordered combination. Fails like
    /// [`Self::allgather`].
    pub(crate) fn allreduce_lanes(&self, lanes: &[f64]) -> Vec<f64> {
        let mut payload = Vec::with_capacity(lanes.len() * 8);
        for &v in lanes {
            payload.put_f64_le(v);
        }
        let mut out = vec![0.0f64; lanes.len()];
        for contribution in &self.allgather(&payload) {
            let mut r: &[u8] = contribution;
            if r.remaining() != lanes.len() * 8 {
                self.abort_job(TransportError::Protocol {
                    detail: "allreduce lane-count mismatch across ranks".into(),
                });
            }
            for slot in out.iter_mut() {
                *slot += r.get_f64_le();
            }
        }
        out
    }

    /// Advances the matvec+dot epoch clock and reports whether an
    /// `LS_FAULT` `nan` action fires for this rank at this epoch (see
    /// [`crate::collective::nan_fault_fires`]).
    pub(crate) fn nan_fault_fires(&self) -> bool {
        let ordinal = self.matvec_ordinal.fetch_add(1, Ordering::Relaxed) + 1;
        let mut fires = false;
        for (idx, action) in self.faults.nans_at(self.rank, self.attempt, ordinal) {
            if self.fault_spent[idx].fetch_add(1, Ordering::Relaxed) < action.count {
                eprintln!(
                    "ls-mp[rank {}]: fault injection: nan into matvec epoch {ordinal}",
                    self.rank
                );
                fires = true;
            }
        }
        fires
    }

    // ---- channels --------------------------------------------------------

    /// Reserves `count` consecutive channel ids. SPMD-collective: every
    /// rank must allocate blocks in the same program order so ids agree.
    pub fn alloc_chan_ids(&self, count: usize) -> u64 {
        self.next_chan.fetch_add(count as u64, Ordering::Relaxed)
    }

    fn drop_chan(&self, chan: u64) {
        self.chans.lock().unwrap().remove(&chan);
        self.credits.lock().unwrap().remove(&chan);
    }
}

// ---- raw byte views ------------------------------------------------------

/// Views a slice of plain-old-data elements as bytes.
///
/// # Safety
/// `T` must be `Copy` **without padding bytes** (the runtime moves
/// `u64`/`u32`/`f64`/scalar-pair payloads only). All processes run the
/// same executable on the same architecture, so the layout agrees.
pub(crate) unsafe fn slice_as_bytes<T: Copy>(s: &[T]) -> &[u8] {
    std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s))
}

/// Decodes a byte payload produced by [`slice_as_bytes`] back into `T`s,
/// appending to `out`. Unaligned-safe.
pub(crate) fn decode_extend<T: Copy>(payload: &[u8], out: &mut Vec<T>) {
    let size = std::mem::size_of::<T>();
    assert!(
        size > 0 && payload.len().is_multiple_of(size),
        "payload not a whole number of elements"
    );
    out.reserve(payload.len() / size);
    for chunk in payload.chunks_exact(size) {
        // SAFETY: chunk holds exactly one T's bytes; read_unaligned
        // tolerates the arbitrary alignment of the network buffer.
        out.push(unsafe { std::ptr::read_unaligned(chunk.as_ptr() as *const T) });
    }
}

// ---- pair channels -------------------------------------------------------

/// Backend-agnostic (source locale → destination locale) staging channel:
/// the transport-aware replacement for raw [`BufferChannel`] grids. The
/// in-process variant *is* a `BufferChannel`; the multiprocess variants
/// speak the CHAN/CLOSE/CREDIT frame protocol, with the same flow control
/// (a ring of two buffers there, as many batch credits here)
/// and the same per-operation [`CommStats`] attribution, so channel
/// statistics agree across backends.
pub enum PairChannel<T: Copy + Default> {
    /// Both endpoints in this process (in-process backend, or the local
    /// loopback pair of the multiprocess backend).
    Local(BufferChannel<T>),
    /// This process is the producer; the consumer is a remote rank.
    Sender(MpSender<T>),
    /// This process is the consumer; the producer is a remote rank.
    Receiver(MpReceiver<T>),
    /// Neither endpoint lives here (multiprocess: a third-party pair).
    Absent,
}

/// Producer endpoint of a cross-process channel.
pub struct MpSender<T: Copy> {
    mp: &'static MpRuntime,
    peer: usize,
    id: u64,
    capacity: usize,
    credits: Arc<AtomicUsize>,
    _marker: std::marker::PhantomData<fn(T)>,
}

/// Consumer endpoint of a cross-process channel.
pub struct MpReceiver<T: Copy> {
    mp: &'static MpRuntime,
    peer: usize,
    id: u64,
    inbox: Arc<ChanInbox>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Copy + Default> PairChannel<T> {
    /// Builds the full `locales × locales` channel grid in row-major
    /// `[source][destination]` order. In-process: every pair is a
    /// [`BufferChannel`]. Multiprocess: this rank's outgoing pairs are
    /// senders, incoming pairs are receivers, the self-loop stays a local
    /// buffer, and all other pairs are [`PairChannel::Absent`].
    /// SPMD-collective (channel ids come from a per-process counter).
    pub fn grid(n_locales: usize, capacity: usize) -> Vec<PairChannel<T>> {
        let Some(mp) = active() else {
            return (0..n_locales * n_locales)
                .map(|_| PairChannel::Local(BufferChannel::new(capacity)))
                .collect();
        };
        assert_eq!(mp.n_locales(), n_locales, "channel grid sized for another job");
        let base = mp.alloc_chan_ids(n_locales * n_locales);
        let me = mp.rank();
        let mut out = Vec::with_capacity(n_locales * n_locales);
        for src in 0..n_locales {
            for dest in 0..n_locales {
                let id = base + (src * n_locales + dest) as u64;
                out.push(if src == me && dest == me {
                    PairChannel::Local(BufferChannel::new(capacity))
                } else if src == me {
                    PairChannel::Sender(MpSender {
                        mp,
                        peer: dest,
                        id,
                        capacity,
                        credits: mp.credit_cell(id),
                        _marker: std::marker::PhantomData,
                    })
                } else if dest == me {
                    PairChannel::Receiver(MpReceiver {
                        mp,
                        peer: src,
                        id,
                        inbox: mp.inbox(id),
                        _marker: std::marker::PhantomData,
                    })
                } else {
                    PairChannel::Absent
                });
            }
        }
        out
    }

    /// Producer: tries to claim a staging buffer (multiprocess: a batch
    /// credit) and returns the turn to pass to [`Self::send`] (which only
    /// the in-process buffer ring gives a meaning). Never
    /// blocks: the caller decides what to do while the consumer holds
    /// every buffer, and must poll [`crate::LocaleCtx::poll_failure`]
    /// while it retries — the consumer may be a task of a failed run, or
    /// (multiprocess) a dead rank whose credit would never come back.
    pub fn try_claim(&self) -> Option<usize> {
        match self {
            PairChannel::Local(ch) => ch.try_claim(),
            PairChannel::Sender(s) => s
                .credits
                .fetch_update(Ordering::Acquire, Ordering::Relaxed, |n| n.checked_sub(1))
                .ok(),
            _ => panic!("claim on a non-producer channel endpoint"),
        }
    }

    /// Producer: publishes a batch into the buffer claimed for `turn`.
    pub fn send(&self, turn: usize, stats: &CommStats, remote: bool, data: &[T]) {
        match self {
            PairChannel::Local(ch) => ch.send(turn, stats, remote, data),
            PairChannel::Sender(s) => {
                assert!(data.len() <= s.capacity, "buffer overflow");
                // SAFETY: channel payload types are padding-free PODs
                // (see slice_as_bytes).
                let payload = unsafe { slice_as_bytes(data) };
                s.mp.send(s.peer, TAG_CHAN, s.id, payload);
                stats.record_put(payload.len(), true);
                stats.record_flag_message();
            }
            _ => panic!("send on a non-producer channel endpoint"),
        }
    }

    /// Producer: declares the stream finished for this product.
    pub fn close(&self) {
        match self {
            PairChannel::Local(ch) => ch.close(),
            PairChannel::Sender(s) => s.mp.send(s.peer, TAG_CLOSE, s.id, &[]),
            _ => panic!("close on a non-producer channel endpoint"),
        }
    }

    /// Consumer: takes one published batch if available — `take` sees it
    /// in place — and returns the buffer (credit) to the producer.
    pub fn try_recv(&self, stats: &CommStats, remote: bool, take: impl FnOnce(&[T])) -> bool {
        match self {
            PairChannel::Local(ch) => ch.try_recv(stats, remote, take),
            PairChannel::Receiver(r) => {
                let payload = r.inbox.q.lock().unwrap().pop_front();
                let Some(payload) = payload else { return false };
                // Wire payloads are unaligned: `take` sees a decoded copy.
                let mut batch = Vec::new();
                decode_extend(&payload, &mut batch);
                take(&batch);
                r.mp.send(r.peer, TAG_CREDIT, r.id, &[]);
                stats.record_flag_message();
                true
            }
            _ => panic!("recv on a non-consumer channel endpoint"),
        }
    }

    /// Consumer: true when the stream is certainly finished (closed
    /// observed, then one more failed receive). See
    /// [`BufferChannel::drained_after_failed_recv`].
    pub fn drained_after_failed_recv(
        &self,
        stats: &CommStats,
        remote: bool,
        take: impl FnOnce(&[T]),
    ) -> bool {
        match self {
            PairChannel::Local(ch) => ch.drained_after_failed_recv(stats, remote, take),
            PairChannel::Receiver(r) => {
                if !r.inbox.closed.load(Ordering::Acquire) {
                    // A producer that died mid-stream will never close;
                    // abort instead of spinning into the timeout.
                    if r.mp.health[r.peer].dead.load(Ordering::SeqCst)
                        && r.inbox.q.lock().unwrap().is_empty()
                    {
                        r.mp.check_peers_alive("producer lost before closing its channel");
                    }
                    return false;
                }
                // CLOSE travels behind every CHAN frame (per-peer FIFO),
                // so closed + empty queue means drained for good.
                !self.try_recv(stats, remote, take)
            }
            _ => panic!("drain check on a non-consumer channel endpoint"),
        }
    }

    /// Re-arms the channel for the next product (buffer/credit reuse).
    ///
    /// # Panics
    /// Panics when the channel is not idle (undrained data, outstanding
    /// credit) — products must be separated by a barrier, which also
    /// flushes the last credit frames home.
    pub fn reset(&self) {
        match self {
            PairChannel::Local(ch) => ch.reset(),
            PairChannel::Sender(s) => {
                let avail = s.credits.load(Ordering::Acquire);
                assert_eq!(
                    avail, RING_SLOTS,
                    "reset while the consumer still holds a batch credit"
                );
            }
            PairChannel::Receiver(r) => {
                assert!(r.inbox.closed.load(Ordering::Acquire), "reset of an open channel");
                assert!(r.inbox.q.lock().unwrap().is_empty(), "reset with unconsumed data");
                r.inbox.closed.store(false, Ordering::Release);
            }
            PairChannel::Absent => {}
        }
    }
}

impl<T: Copy> Drop for MpSender<T> {
    fn drop(&mut self) {
        self.mp.drop_chan(self.id);
    }
}

impl<T: Copy> Drop for MpReceiver<T> {
    fn drop(&mut self) {
        self.mp.drop_chan(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_defaults_to_inprocess() {
        // The test environment never sets LS_TRANSPORT.
        assert_eq!(requested_backend(), Backend::InProcess);
        assert_eq!(backend(), Backend::InProcess);
        assert!(active().is_none());
        assert!(is_primary());
        assert_eq!(Backend::MultiProcess.name(), "multiprocess");
    }

    #[test]
    fn pair_channel_grid_is_local_in_process() {
        let grid = PairChannel::<(u64, f64)>::grid(3, 8);
        assert_eq!(grid.len(), 9);
        let stats = CommStats::new();
        for ch in &grid {
            assert!(matches!(ch, PairChannel::Local(_)));
            let turn = ch.try_claim().expect("a fresh channel has a free buffer");
            ch.send(turn, &stats, true, &[(7, 0.5)]);
            assert!(ch.try_recv(&stats, true, |batch| assert_eq!(batch, [(7, 0.5)])));
            ch.close();
            assert!(ch.drained_after_failed_recv(&stats, true, |_| panic!("drained")));
            ch.reset();
        }
        // One flag message per publish and per release, none for loopback.
        assert_eq!(stats.snapshot().flag_messages, 2 * stats.snapshot().puts);
    }

    #[test]
    fn byte_roundtrip_preserves_pairs() {
        let data: Vec<(u64, f64)> = (0..17).map(|i| (i as u64 * 3, i as f64 * 0.25)).collect();
        // SAFETY: (u64, f64) has no padding.
        let bytes = unsafe { slice_as_bytes(&data) }.to_vec();
        let mut back: Vec<(u64, f64)> = Vec::new();
        decode_extend(&bytes, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn transport_stats_snapshot_and_reset() {
        let stats = TransportStats::default();
        stats.add(&stats.tx_bytes, 100);
        stats.add(&stats.barriers, 2);
        stats.add(&stats.barrier_nanos, 3_000_000_000);
        stats.add(&stats.peer_failures, 2);
        stats.add(&stats.detection_nanos, 24_000_000);
        stats.add(&stats.crc_bytes_checked, 4096);
        let snap = stats.snapshot();
        assert_eq!(snap.tx_bytes, 100);
        assert_eq!(snap.crc_bytes_checked, 4096);
        assert!((snap.mean_barrier_seconds() - 1.5).abs() < 1e-12);
        assert!((snap.mean_detection_seconds() - 0.012).abs() < 1e-12);
        stats.reset();
        assert_eq!(stats.snapshot(), TransportSnapshot::default());
        assert_eq!(TransportSnapshot::default().mean_barrier_seconds(), 0.0);
        assert_eq!(TransportSnapshot::default().mean_detection_seconds(), 0.0);
    }

    #[test]
    fn transport_errors_attribute_and_map_exit_codes() {
        let failed = TransportError::PeerFailed {
            peer: 2,
            detail: "connection lost during collective".into(),
            detection: Duration::from_millis(12),
        };
        assert_eq!(failed.exit_code(), EXIT_FAILOVER);
        let text = failed.to_string();
        assert!(text.contains("rank 2"), "{text}");
        assert!(text.contains("detected in 0.012s"), "{text}");

        let desync = TransportError::Desync { peer: 1, expected: 7, got: 9 };
        assert_eq!(desync.exit_code(), EXIT_PROTOCOL);
        assert!(desync.to_string().contains("expected seq 7, got 9"));

        let timeout =
            TransportError::Timeout { peer: 3, seq: 5, waited: Duration::from_secs(180) };
        assert_eq!(timeout.exit_code(), EXIT_PROTOCOL);

        let aborted = TransportError::Aborted { origin: 0, reason: "peer died".into() };
        assert_eq!(aborted.exit_code(), EXIT_FAILOVER);
        assert!(aborted.to_string().contains("aborted by rank 0"));

        let protocol = TransportError::Protocol { detail: "unknown frame tag 42".into() };
        assert_eq!(protocol.exit_code(), EXIT_PROTOCOL);

        let corrupt = TransportError::Corruption {
            peer: 1,
            frame: "chan".into(),
            kind: "frame CRC mismatch".into(),
        };
        assert_eq!(corrupt.exit_code(), EXIT_CORRUPTION);
        let text = corrupt.to_string();
        assert!(text.contains("corrupt chan from rank 1"), "{text}");
        assert!(text.contains("frame CRC mismatch"), "{text}");
    }

    #[test]
    fn integrity_mode_defaults_to_full() {
        use IntegrityMode::{Full, Off, Wire};
        for (var, mode) in [
            (None, Full),
            (Some(""), Full),
            (Some("full"), Full),
            (Some("wire"), Wire),
            (Some("off"), Off),
        ] {
            let parsed = parse_choice(ENV_INTEGRITY, var, &IntegrityMode::CHOICES, Full);
            assert_eq!(parsed, Ok(mode), "{var:?}");
        }
        // The test environment never sets LS_INTEGRITY.
        assert_eq!(IntegrityMode::from_env(), Full);
        assert!(Full.wire() && Full.full());
        assert!(Wire.wire() && !Wire.full());
        assert!(!Off.wire() && !Off.full());
    }

    #[test]
    #[should_panic(expected = "LS_INTEGRITY=\"bogus\"")]
    fn integrity_mode_rejects_a_typo() {
        let full = IntegrityMode::Full;
        or_refuse(parse_choice(ENV_INTEGRITY, Some("bogus"), &IntegrityMode::CHOICES, full));
    }

    #[test]
    fn keyword_knobs_name_the_variable_and_the_choices() {
        let full = IntegrityMode::Full;
        for bad in ["ful", "Full", " full", "on"] {
            let err = parse_choice(ENV_INTEGRITY, Some(bad), &IntegrityMode::CHOICES, full);
            let err = err.unwrap_err();
            assert!(err.contains(ENV_INTEGRITY) && err.contains(bad), "{err}");
            assert!(err.contains("\"off\", \"wire\", \"full\""), "{err}");
        }
    }

    #[test]
    fn numeric_knobs_keep_the_default_when_unset_and_reject_a_typo() {
        assert_eq!(parse_count(ENV_LOCALES, None, Some(2)), Ok(2));
        assert_eq!(parse_count(ENV_LOCALES, Some(""), Some(2)), Ok(2));
        assert_eq!(parse_count(ENV_LOCALES, Some("4"), Some(2)), Ok(4));
        assert_eq!(parse_count(ENV_LOCALES, Some(" 12 "), Some(2)), Ok(12));
        assert_eq!(parse_count(ENV_BACKOFF_MS, Some("0"), Some(250)), Ok(0));
        for bad in ["four", "-3", "3m", "1.5"] {
            let err = parse_count(ENV_LOCALES, Some(bad), Some(2)).unwrap_err();
            assert!(err.contains(ENV_LOCALES) && err.contains(bad), "{err}");
        }
        // A required variable (a worker's rank) has no default to keep.
        assert!(parse_count(ENV_RANK, None, None).unwrap_err().contains(ENV_RANK));
        assert_eq!(parse_count(ENV_RANK, Some("3"), None), Ok(3));
    }

    #[test]
    fn restart_count_defaults_to_zero() {
        // The test environment never sets LS_MP_RESTART_COUNT.
        assert_eq!(restart_count(), 0);
        assert_eq!(TransportStats::default().snapshot().restarts, 0);
    }

    #[test]
    fn poll_failure_is_a_noop_in_process() {
        poll_failure(); // no runtime: must return without side effects
    }
}
