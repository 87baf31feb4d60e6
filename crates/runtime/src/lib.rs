//! # ls-runtime
//!
//! A simulated multi-locale PGAS runtime: the stand-in for Chapel's
//! distributed execution model (and the cluster it runs on) that the
//! paper's algorithms are written against.
//!
//! ## What is simulated, and what is real
//!
//! *Real*: every algorithmic ingredient. Locales are OS threads with
//! disjoint memory regions ([`DistVec`]); communication happens only
//! through explicit one-sided operations — [`window::RmaWriteWindow::put`],
//! [`window::RmaReadWindow::get`], [`accum::AtomicAccumWindow`] for remote
//! atomic accumulation (in process only), and
//! [`remote::remote_atomic_store`] for the paper's `remoteAtomicWrite`
//! flag protocol. Synchronization (sense-reversing
//! barriers, spin-with-backoff flag waits) is executed with real atomics,
//! so the producer/consumer protocol of Sec. 5.3 is genuinely exercised,
//! including its memory-ordering obligations.
//!
//! *Simulated*: the wire. All "remote" transfers are memcpys between
//! address ranges owned by different threads of one process. Every
//! operation is counted in [`stats::CommStats`] (operation counts, bytes,
//! message-size histogram); the repo benchmark reports those exact counts
//! per product (its `runtime.*` metrics).
//!
//! The memory-safety discipline follows MPI RMA epochs: windows borrow the
//! distributed vector (`&mut` for write windows), so Rust's borrow checker
//! enforces that an epoch's writers have exclusive access at the type
//! level, while in-epoch disjointness of writes is checked at runtime in
//! debug builds.
//!
//! ## Transports
//!
//! Since the [`transport`] module landed, "simulated wire" describes only
//! the *default* backend. `LS_TRANSPORT=multiprocess` runs the identical
//! one-sided API across real OS processes — TCP frames for channels,
//! barriers, reductions and the allgathers of window epochs — with the
//! same visibility and determinism contract (see [`transport`] and
//! `docs/ARCHITECTURE.md`). Programs opt in by calling
//! [`transport::launch_if_requested`] first thing in `main`. Algorithms
//! never ask which backend is active: what differs above the one-sided
//! primitives (which locales this process computes, how partial sums are
//! combined, how corruption is raised) sits behind [`collective`].
//!
//! ## Failure model
//!
//! Multiprocess jobs are supervised: the launcher side of
//! [`transport::launch_if_requested`] is a [`supervisor`] loop that
//! classifies worker exits and relaunches abnormal rounds (programs that
//! checkpoint resume bit-identically). Inside a job, peer failures are
//! detected in milliseconds (socket EOF + heartbeats), attributed with a
//! typed [`transport::TransportError`], and fanned out with an `ABORT`
//! frame so every rank exits promptly. Deterministic fault injection
//! ([`fault`], `LS_FAULT`) drives the whole machinery under test.
//!
//! Silent errors are detected and then handled the same way: CRC32C
//! ([`crc32c()`]) over every wire frame's header and payload
//! (`LS_INTEGRITY`), the matvec checksum tally and the solver's health
//! checks each turn a corruption into a typed
//! [`transport::TransportError::Corruption`] abort (exit 115), and the
//! supervisor's relaunch from the newest checkpoint is the recovery —
//! see the "Silent-error defense" section of `docs/ARCHITECTURE.md`.

#![warn(missing_docs)]

pub mod accum;
pub mod barrier;
pub mod cluster;
pub mod collective;
pub mod crc32c;
pub mod distvec;
pub mod fault;
pub(crate) mod frame;
pub mod remote;
pub mod stats;
pub mod supervisor;
pub mod transport;
pub mod window;

pub use accum::{AtomicAccumWindow, PartLanes};
pub use barrier::SenseBarrier;
pub use cluster::{Cluster, ClusterSpec, LocaleCtx};
pub use crc32c::{crc32c, crc32c_append};
pub use distvec::{block_range, BlockLayout, DistVec};
pub use fault::{FaultAction, FaultKind, FaultPlan, FaultPlanError, FrameClass};
pub use stats::CommStats;
pub use supervisor::{classify_exit, FailureClass};
pub use transport::{
    env_count, Backend, IntegrityMode, MpRuntime, PairChannel, TransportError,
    TransportSnapshot, TransportStats,
};
pub use window::{RmaReadWindow, RmaWriteWindow};
