//! Offline stand-in for the `rayon` crate, backed by a **persistent
//! work-stealing thread pool**.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of rayon's API it actually uses —
//! `Range<usize>::into_par_iter().for_each`,
//! `Vec::into_par_iter().map(..).collect()`,
//! `par_chunks_mut(..).enumerate().for_each`, [`current_num_threads`] —
//! and nothing else: a combinator without a caller is deleted, not kept
//! for completeness. Earlier versions
//! spawned fresh `std::thread::scope` threads on every parallel call and
//! split the work into static chunks; a Lanczos run therefore paid
//! thread-spawn latency hundreds of times per solve, and symmetry-skewed
//! sectors (orbit sizes vary per row) suffered static load imbalance.
//!
//! The current implementation keeps a process-global pool:
//!
//! * **Lazily initialized, workers parked between calls.** The first
//!   parallel call spawns `current_num_threads() - 1` background workers;
//!   between jobs they sleep on a condvar (no spinning, no respawning).
//! * **`LS_NUM_THREADS`.** The worker count honours the `LS_NUM_THREADS`
//!   environment variable (parsed once, cached; a value that is not a
//!   positive integer is rejected, not ignored), falling back to
//!   [`std::thread::available_parallelism`] when it is unset.
//!   [`current_num_threads`] is a cached read — it no longer re-queries
//!   the OS per call.
//! * **Dynamic chunk claiming.** A parallel call over-partitions its work
//!   into chunks and publishes one job with an atomic cursor; the calling
//!   thread and every worker repeatedly `fetch_add` the cursor to claim
//!   the next chunk (work stealing at chunk granularity). Skewed chunks
//!   no longer serialize on one unlucky worker.
//! * **No eager materialization.** `par_chunks_mut` / range iterators
//!   compute each claimed chunk's slice/sub-range arithmetically from the
//!   cursor value instead of collecting per-chunk `Vec`s up front.
//!
//! Ordering guarantees match rayon's indexed parallel iterators: `map` +
//! `collect` preserves item order (each chunk writes its own output
//! slots), and `for_each` over disjoint `par_chunks_mut` chunks is
//! race-free by construction. Which *thread* runs a chunk is
//! nondeterministic; everything observable is not.
//!
//! One test/bench hook falls outside rayon's API: [`set_thread_limit`]
//! caps how many pool threads a call may use (emulating `LS_NUM_THREADS`
//! without restarting the process).

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// The pool width an `LS_NUM_THREADS` value selects (`None`: unset).
/// Unset or empty keeps `fallback` (at least one thread); anything that
/// is not a positive integer is an error naming the variable and the
/// value — a typo (`LS_NUM_THREADS=four`) or a zero must not silently run
/// on every core. Public, and separate from the environment read, so the
/// rule is unit-testable without mutating the process environment.
pub fn threads_from_env(var: Option<&str>, fallback: usize) -> Result<usize, String> {
    match var.map(str::trim) {
        None | Some("") => Ok(fallback.max(1)),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("LS_NUM_THREADS={v:?}: not a positive integer")),
        },
    }
}

/// The configured pool width: `LS_NUM_THREADS` if set, else the machine's
/// available parallelism. Computed once and cached.
///
/// # Panics
/// Panics on an `LS_NUM_THREADS` that [`threads_from_env`] rejects.
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Lossy: a value that is not unicode fails the parse, by name.
        let var = std::env::var_os("LS_NUM_THREADS").map(|v| v.to_string_lossy().into_owned());
        threads_from_env(var.as_deref(), fallback).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// Bench/test override of the configured width; `usize::MAX` = none.
static THREAD_LIMIT: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Absolute ceiling on pool threads across the process lifetime (bounds
/// [`max_workers`], and with it the size of per-worker caches built on
/// [`current_worker_index`]). At least 64 so scaling tests can
/// oversubscribe small machines.
fn hard_cap() -> usize {
    configured_threads().max(64)
}

/// Number of worker threads a parallel call may use. Cached: the
/// environment and the OS are queried once per process, not per call.
pub fn current_num_threads() -> usize {
    let limit = THREAD_LIMIT.load(Ordering::Relaxed);
    if limit == usize::MAX {
        configured_threads()
    } else {
        limit.min(hard_cap()).max(1)
    }
}

/// Overrides the number of threads parallel calls use from now on (`0` or
/// `usize::MAX` restores the configured width). Returns the previous
/// override. A bench/test hook — it emulates `LS_NUM_THREADS=n` without
/// restarting the process, including *raising* the count above the core
/// count (workers are spawned lazily, up to a fixed ceiling); parked
/// workers beyond the override simply stop participating.
pub fn set_thread_limit(limit: usize) -> usize {
    let new = if limit == 0 { usize::MAX } else { limit };
    THREAD_LIMIT.swap(new, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

thread_local! {
    /// `Some(index)` on pool worker threads, `None` elsewhere.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
    /// True on a caller thread while it participates in its own published
    /// job. A nested parallel call from inside a chunk must run inline —
    /// the pool's single job slot is held by the outer call.
    static IN_PARALLEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// This thread's pool-worker index: `Some(0..max_workers())` on pool
/// workers, `None` on every other thread (including parallel-call
/// initiators). Lets callers key per-worker caches without a hash map.
pub fn current_worker_index() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// Upper bound on [`current_worker_index`] across the process lifetime
/// (the pool's maximum background-worker count, independent of the
/// current [`set_thread_limit`] override).
pub fn max_workers() -> usize {
    hard_cap() - 1
}

/// One published parallel job: a type-erased pointer to a [`CursorJob`]
/// living on the initiating caller's stack. The caller keeps the job slot
/// occupied until every participating worker has left `work()`, which is
/// what makes the borrow sound.
#[derive(Copy, Clone)]
struct JobRef {
    job: *const CursorJob,
    /// Background workers with index `>= max_workers` sit this job out
    /// (the caller itself is the `+1`-th participant).
    max_workers: usize,
}

// SAFETY: the pointee is a `CursorJob` whose closure is `Sync`, and the
// publish/complete protocol guarantees it outlives every access.
unsafe impl Send for JobRef {}

struct PoolState {
    job: Option<JobRef>,
    /// Bumped once per published job so late-waking workers never re-run
    /// a job they already finished.
    epoch: u64,
    /// Workers currently inside `work()` for the published job.
    active: usize,
    /// Background workers spawned so far (they are created lazily, as
    /// jobs first need them, and then parked between jobs forever).
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The publishing caller parks here until `active == 0`.
    done_cv: Condvar,
    /// Additional callers park here until the job slot frees up.
    queue_cv: Condvar,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(PoolState { job: None, epoch: 0, active: 0, spawned: 0 }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            queue_cv: Condvar::new(),
        })
    }
}

fn worker_loop(index: usize) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    let pool = Pool::global();
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap();
            loop {
                match st.job {
                    Some(job) if st.epoch != last_epoch && index < job.max_workers => {
                        last_epoch = st.epoch;
                        st.active += 1;
                        break job;
                    }
                    _ => st = pool.work_cv.wait(st).unwrap(),
                }
            }
        };
        // SAFETY: `active` was incremented under the lock while the job
        // was published, so the caller cannot reclaim the `CursorJob`
        // until we decrement it below.
        unsafe { (*job.job).work() };
        let mut st = pool.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            pool.done_cv.notify_all();
        }
    }
}

/// The claiming core of one parallel call: an atomic cursor over
/// `0..n_chunks`, a type-erased `Sync` chunk closure (thin data pointer +
/// monomorphized call shim, so no trait-object lifetime gymnastics), and
/// the first captured panic.
struct CursorJob {
    cursor: AtomicUsize,
    n_chunks: usize,
    /// Consecutive chunks claimed per cursor bump. Claiming short *runs*
    /// instead of single chunks keeps each thread sweeping a contiguous
    /// index range (the locality static striping gets for free) while
    /// retaining dynamic balancing at run granularity.
    claim: usize,
    data: *const (),
    call: unsafe fn(*const (), usize),
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The monomorphized shim [`CursorJob::call`] points at.
unsafe fn call_chunk<F: Fn(usize) + Sync>(data: *const (), i: usize) {
    (*(data as *const F))(i)
}

impl CursorJob {
    /// Claims and runs chunks until the cursor is exhausted (or a chunk
    /// panicked). Runs on the caller *and* every participating worker.
    fn work(&self) {
        'claims: while !self.poisoned.load(Ordering::Relaxed) {
            let lo = self.cursor.fetch_add(self.claim, Ordering::Relaxed);
            if lo >= self.n_chunks {
                break;
            }
            let hi = (lo + self.claim).min(self.n_chunks);
            for i in lo..hi {
                if self.poisoned.load(Ordering::Relaxed) {
                    break 'claims;
                }
                // SAFETY: `data` points at the closure in the initiating
                // caller's frame, which outlives the job (the caller blocks
                // until `active == 0`); the closure is `Sync`.
                if let Err(payload) =
                    catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, i) }))
                {
                    self.poisoned.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        }
    }
}

/// Runs `run_chunk(0..n_chunks)`, each chunk exactly once, on the pool.
/// This is the single execution primitive every combinator in this crate
/// lowers to.
fn run_chunked<F: Fn(usize) + Sync>(n_chunks: usize, run_chunk: F) {
    let threads = current_num_threads();
    // Inline paths: trivial work, a single thread, or a nested call from
    // inside a running job — whether on a pool worker or on the caller
    // thread of the outer job (claiming the pool's single job slot again
    // would deadlock, so nested parallelism degrades to a plain loop).
    if threads <= 1
        || n_chunks <= 1
        || current_worker_index().is_some()
        || IN_PARALLEL.with(|f| f.get())
    {
        for i in 0..n_chunks {
            run_chunk(i);
        }
        return;
    }
    let job = CursorJob {
        cursor: AtomicUsize::new(0),
        n_chunks,
        // Aim for ~8 claims per participating thread: long enough runs to
        // sweep memory contiguously, short enough to rebalance skew.
        claim: (n_chunks / (threads * 8)).max(1),
        data: &run_chunk as *const F as *const (),
        call: call_chunk::<F>,
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    let pool = Pool::global();
    let want_workers = (threads - 1).min(max_workers());
    {
        let mut st = pool.state.lock().unwrap();
        // Lazily top the worker set up to this call's width; workers are
        // never torn down, just parked.
        while st.spawned < want_workers {
            let index = st.spawned;
            std::thread::Builder::new()
                .name(format!("ls-pool-{index}"))
                .spawn(move || worker_loop(index))
                .expect("spawn pool worker");
            st.spawned += 1;
        }
        // One job at a time: later concurrent callers queue up here.
        while st.job.is_some() {
            st = pool.queue_cv.wait(st).unwrap();
        }
        st.job = Some(JobRef { job: &job, max_workers: want_workers });
        st.epoch = st.epoch.wrapping_add(1);
    }
    pool.work_cv.notify_all();
    // The caller is a participant too — it drives the job to completion
    // even if every worker is busy elsewhere.
    IN_PARALLEL.with(|f| f.set(true));
    job.work();
    IN_PARALLEL.with(|f| f.set(false));
    {
        let mut st = pool.state.lock().unwrap();
        while st.active != 0 {
            st = pool.done_cv.wait(st).unwrap();
        }
        st.job = None;
    }
    pool.queue_cv.notify_one();
    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Items per chunk of a parallel call over `total` items: it
/// over-partitions into a few chunks per potential worker, so dynamic
/// claiming can balance skew. At least one, also for no items.
fn chunk_len(total: usize) -> usize {
    total.div_ceil(current_num_threads() * 4).max(1)
}

// ---------------------------------------------------------------------------
// Parallel iterator over owned items
// ---------------------------------------------------------------------------

/// An indexed parallel iterator over a `Vec`'s items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.items, f }
    }
}

/// The result of [`ParIter::map`]; executes on `collect`.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Maps every item on the pool and collects the results in item
    /// order. One slot per item holds the item, then its result; a chunk
    /// takes the one out and puts the other in. Each index belongs to
    /// exactly one chunk, so the slot locks are never contended — they
    /// are there so that the compiler can see it (the callers map a few
    /// dozen coarse work items, not elements).
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let f = &self.f;
        let slots: Vec<Mutex<(Option<T>, Option<R>)>> =
            self.items.into_iter().map(|item| Mutex::new((Some(item), None))).collect();
        let n = slots.len();
        let chunk = chunk_len(n);
        run_chunked(n.div_ceil(chunk), |ci| {
            for slot in &slots[ci * chunk..((ci + 1) * chunk).min(n)] {
                // `f` runs outside the lock: a panic in it poisons nothing.
                let item = slot.lock().unwrap().0.take().expect("an item is claimed once");
                let result = f(item);
                slot.lock().unwrap().1 = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().1.expect("every chunk ran"))
            .collect()
    }
}

/// Conversion into a [`ParIter`] (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

// ---------------------------------------------------------------------------
// Parallel iterator over index ranges
// ---------------------------------------------------------------------------

/// A parallel iterator over an index range: the range stays arithmetic
/// (no materialized index vector) — each cursor claim is converted to a
/// sub-range on the fly, keeping hot loops like the BLAS-1 kernels'
/// `(0..n_blocks).into_par_iter()` allocation-free.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let Range { start, end } = self.range;
        let total = end.saturating_sub(start);
        let chunk = chunk_len(total);
        run_chunked(total.div_ceil(chunk), |ci| {
            for i in ci * chunk..((ci + 1) * chunk).min(total) {
                f(start + i);
            }
        });
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

// ---------------------------------------------------------------------------
// Parallel mutable slice chunking
// ---------------------------------------------------------------------------

/// A shareable raw pointer. Soundness is the user's obligation: every
/// parallel access must target a disjoint region.
struct SyncMutPtr<T>(*mut T);
unsafe impl<T: Send> Send for SyncMutPtr<T> {}
unsafe impl<T: Send> Sync for SyncMutPtr<T> {}

impl<T> SyncMutPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare `*mut T` field.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Lazy parallel iterator over disjoint mutable chunks of a slice
/// (rayon's `par_chunks_mut`): each cursor claim derives its chunk's
/// bounds arithmetically — nothing is materialized up front.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }
}

/// The result of [`ParChunksMut::enumerate`].
pub struct ParChunksMutEnumerate<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        let ParChunksMut { data, chunk_size } = self.inner;
        let len = data.len();
        let base = SyncMutPtr(data.as_mut_ptr());
        run_chunked(len.div_ceil(chunk_size), |ci| {
            let lo = ci * chunk_size;
            let hi = (lo + chunk_size).min(len);
            // SAFETY: chunks are disjoint (each claimed once) and within
            // the slice, which outlives the call.
            let slice = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(lo), hi - lo) };
            f((ci, slice));
        });
    }
}

/// Parallel mutable chunking of slices (rayon's `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut { data: self, chunk_size }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Serializes tests that mutate the global thread limit.
    fn limit_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `(0..n).map(f)` on the pool, through the one order-preserving
    /// combinator the workspace calls.
    fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        (0..n).collect::<Vec<usize>>().into_par_iter().map(f).collect()
    }

    #[test]
    fn vec_map_collect_preserves_order() {
        let items: Vec<String> = (0..257).map(|i| format!("x{i}")).collect();
        let out: Vec<usize> = items.clone().into_par_iter().map(|s| s.len()).collect();
        let expect: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn chunks_mut_touch_every_element() {
        let mut data = vec![0u32; 257];
        data.par_chunks_mut(16).enumerate().for_each(|(ci, chunk)| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = (ci * 16 + k) as u32;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
    }

    #[test]
    fn for_each_runs_everything() {
        let count = AtomicUsize::new(0);
        (0..500usize).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn empty_and_single_item_calls() {
        // 0 items: nothing runs, nothing hangs.
        let count = AtomicUsize::new(0);
        (0..0usize).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let empty: Vec<u64> = Vec::<u64>::new().into_par_iter().map(|i| i).collect();
        assert!(empty.is_empty());
        let mut no_data: [u8; 0] = [];
        no_data.par_chunks_mut(4).enumerate().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);

        // 1 item: runs exactly once, result in order.
        let one: Vec<usize> = vec![7usize].into_par_iter().map(|i| i * 3).collect();
        assert_eq!(one, vec![21]);
        (5..6usize).into_par_iter().for_each(|v| {
            count.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn thread_limit_caps_and_restores() {
        let _guard = limit_lock();
        let prev = set_thread_limit(1);
        assert_eq!(current_num_threads(), 1);
        // Parallel calls still complete (inline path).
        assert_eq!(par_map(100, |i| i + 1)[99], 100);
        set_thread_limit(2);
        assert!(current_num_threads() <= 2);
        assert_eq!(par_map(100, |i| i + 1)[0], 1);
        set_thread_limit(prev);
    }

    #[test]
    fn env_override_parsing() {
        assert_eq!(threads_from_env(Some("3"), 8), Ok(3));
        assert_eq!(threads_from_env(Some(" 12 "), 8), Ok(12));
        // Unset and empty keep the default, clamped to at least one thread.
        assert_eq!(threads_from_env(None, 8), Ok(8));
        assert_eq!(threads_from_env(Some(""), 8), Ok(8));
        assert_eq!(threads_from_env(None, 0), Ok(1));
        // A typo or a zero is rejected by name; it used to run on every core.
        for bad in ["zippy", "four", "0", "-2", "1.5"] {
            let err = threads_from_env(Some(bad), 8).unwrap_err();
            assert!(err.contains("LS_NUM_THREADS") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn env_override_applies_in_child_process() {
        // Re-runs this very test in a child process with LS_NUM_THREADS
        // set, where the cached value must reflect the override — or, for
        // a value that is no thread count, the first read must refuse it.
        if std::env::var("LS_RAYON_ENV_CHILD").is_ok() {
            assert_eq!(current_num_threads(), 3);
            return;
        }
        let child = |value: &str| {
            let exe = std::env::current_exe().expect("test executable path");
            let out = std::process::Command::new(exe)
                .args(["tests::env_override_applies_in_child_process", "--exact"])
                .env("LS_NUM_THREADS", value)
                .env("LS_RAYON_ENV_CHILD", "1")
                .output()
                .expect("spawn child test process");
            let text =
                String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
            (out.status.success(), text.into_owned())
        };
        let (ok, text) = child("3");
        assert!(ok, "child failed:\n{text}");
        for bad in ["four", "0"] {
            let (ok, text) = child(bad);
            assert!(!ok, "LS_NUM_THREADS={bad} was accepted:\n{text}");
            assert!(text.contains(&format!("LS_NUM_THREADS={bad:?}")), "{text}");
        }
    }

    #[test]
    fn panic_in_chunk_propagates() {
        let result = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
            });
        });
        assert!(result.is_err());
        // The pool survives a panicked job.
        assert_eq!(par_map(10, |i| i).len(), 10);
    }

    #[test]
    fn nested_calls_degrade_to_inline() {
        let count = AtomicUsize::new(0);
        (0..8usize).into_par_iter().for_each(|_| {
            // A nested parallel call from (possibly) a worker thread.
            (0..50usize).into_par_iter().for_each(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 400);
    }
}
