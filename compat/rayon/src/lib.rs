//! Offline stand-in for the `rayon` crate, backed by a **persistent
//! work-stealing thread pool**.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of rayon's API it actually uses. Earlier versions
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
//!   environment variable (parsed once, cached), falling back to
//!   [`std::thread::available_parallelism`]. [`current_num_threads`] is a
//!   cached read — it no longer re-queries the OS per call.
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

/// Parses an `LS_NUM_THREADS`-style override: `Some(n > 0)` wins, anything
/// unset/unparsable/zero falls back to `fallback`. Factored out (and
/// public) so the override logic is unit-testable without mutating the
/// process environment.
pub fn threads_from_env(var: Option<&str>, fallback: usize) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => fallback.max(1),
    }
}

/// The configured pool width: `LS_NUM_THREADS` if set, else the machine's
/// available parallelism. Computed once and cached.
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        threads_from_env(std::env::var("LS_NUM_THREADS").ok().as_deref(), fallback)
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

/// Number of chunks a parallel call over-partitions into: a few chunks
/// per potential worker so dynamic claiming can balance skew, bounded by
/// `min_len` so tiny chunks never dominate.
fn chunk_count(total: usize, min_len: usize) -> usize {
    if total == 0 {
        return 0;
    }
    let min_len = min_len.max(1);
    let by_min = total.div_ceil(min_len);
    by_min.min(current_num_threads() * 4).max(1)
}

// ---------------------------------------------------------------------------
// Parallel iterator over owned items
// ---------------------------------------------------------------------------

/// An indexed parallel iterator over a `Vec`'s items. The backing storage
/// is the `Vec` itself — execution claims index ranges from the cursor
/// and moves items out in place (no per-chunk re-collection).
pub struct ParIter<T> {
    items: Vec<T>,
    min_len: usize,
}

/// Runs `f` on every item of `items` (moved out), chunk-claimed. Output
/// writes (if any) go through `f`; item order within a chunk is
/// ascending, chunk-to-thread assignment is dynamic.
fn drive_items<T: Send, F: Fn(usize, T) + Sync>(items: Vec<T>, min_len: usize, f: F) {
    let n = items.len();
    let n_chunks = chunk_count(n, min_len);
    let chunk = n.div_ceil(n_chunks.max(1)).max(1);
    // Move semantics under parallel claiming: the Vec's buffer becomes a
    // slab of slots that each chunk reads out exactly once.
    let mut items = std::mem::ManuallyDrop::new(items);
    let base = SyncMutPtr(items.as_mut_ptr());
    run_chunked(n_chunks, |ci| {
        let lo = ci * chunk;
        let hi = ((ci + 1) * chunk).min(n);
        for i in lo..hi {
            // SAFETY: each index is claimed by exactly one chunk and read
            // exactly once; the buffer outlives the call. On panic the
            // unread tail leaks (safe), mirroring rayon's abort policy.
            f(i, unsafe { std::ptr::read(base.ptr().add(i)) });
        }
    });
    // SAFETY: every element was moved out above; only the allocation
    // remains to free.
    unsafe { items.set_len(0) };
    let _ = std::mem::ManuallyDrop::into_inner(items);
}

impl<T: Send> ParIter<T> {
    /// Lower bound on the number of items processed per chunk claim.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len;
        self
    }

    pub fn enumerate(self) -> ParEnumerate<T> {
        ParEnumerate { inner: self }
    }

    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.items, min_len: self.min_len, f }
    }

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        drive_items(self.items, self.min_len, |_i, t| f(t));
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// The result of [`ParIter::enumerate`].
pub struct ParEnumerate<T> {
    inner: ParIter<T>,
}

impl<T: Send> ParEnumerate<T> {
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.inner.min_len = min_len;
        self
    }

    pub fn for_each<F: Fn((usize, T)) + Sync>(self, f: F) {
        drive_items(self.inner.items, self.inner.min_len, |i, t| f((i, t)));
    }

    pub fn collect<C: FromIterator<(usize, T)>>(self) -> C {
        self.inner.items.into_iter().enumerate().collect()
    }
}

/// The result of [`ParIter::map`]; executes on `collect`/`for_each`.
pub struct ParMap<T, F> {
    items: Vec<T>,
    min_len: usize,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len;
        self
    }

    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n = self.items.len();
        let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(n);
        // SAFETY: the closure below initializes every slot exactly once
        // (slot i from item i), so the later `set_len(n)` is sound.
        #[allow(clippy::uninit_vec)]
        unsafe {
            out.set_len(n)
        };
        let slots = SyncMutPtr(out.as_mut_ptr());
        let f = &self.f;
        drive_items(self.items, self.min_len, |i, t| {
            // SAFETY: slot i is written exactly once, by the chunk that
            // claimed index i. On panic, already-written slots leak.
            unsafe { (*slots.ptr().add(i)).write(f(t)) };
        });
        // SAFETY: all n slots initialized above.
        let out = unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr() as *mut R, n, out.capacity())
        };
        out.into_iter().collect()
    }

    pub fn for_each<G: Fn(R) + Sync>(self, g: G) {
        let f = &self.f;
        drive_items(self.items, self.min_len, |_i, t| g(f(t)));
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
        ParIter { items: self, min_len: 1 }
    }
}

// ---------------------------------------------------------------------------
// Parallel iterator over numeric ranges
// ---------------------------------------------------------------------------

/// Index types usable in [`ParRange`].
pub trait RangeItem: Copy + Send + Sync {
    fn offset(self, n: usize) -> Self;
    fn distance(lo: Self, hi: Self) -> usize;
}

impl RangeItem for usize {
    fn offset(self, n: usize) -> Self {
        self + n
    }
    fn distance(lo: Self, hi: Self) -> usize {
        hi.saturating_sub(lo)
    }
}

impl RangeItem for u64 {
    fn offset(self, n: usize) -> Self {
        self + n as u64
    }
    fn distance(lo: Self, hi: Self) -> usize {
        hi.saturating_sub(lo) as usize
    }
}

/// A parallel iterator over a numeric range: the range stays arithmetic
/// (no materialized index vector) — each cursor claim is converted to a
/// sub-range on the fly, keeping hot loops like the matvec's
/// `(0..dim).into_par_iter()` allocation-free.
pub struct ParRange<T> {
    lo: T,
    hi: T,
    min_len: usize,
}

impl<T: RangeItem> ParRange<T> {
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len;
        self
    }

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        let total = T::distance(self.lo, self.hi);
        let n_chunks = chunk_count(total, self.min_len);
        let chunk = total.div_ceil(n_chunks.max(1)).max(1);
        let lo = self.lo;
        run_chunked(n_chunks, |ci| {
            let start = ci * chunk;
            let end = ((ci + 1) * chunk).min(total);
            for i in start..end {
                f(lo.offset(i));
            }
        });
    }

    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParRangeMap<T, F> {
        ParRangeMap { range: self, f }
    }
}

/// The result of [`ParRange::map`]; executes on `collect`.
pub struct ParRangeMap<T, F> {
    range: ParRange<T>,
    f: F,
}

impl<T, R, F> ParRangeMap<T, F>
where
    T: RangeItem,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.range.min_len = min_len;
        self
    }

    pub fn collect<C: FromIterator<R>>(self) -> C {
        let total = T::distance(self.range.lo, self.range.hi);
        let lo = self.range.lo;
        let f = &self.f;
        let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(total);
        // SAFETY: every slot i is written exactly once below.
        #[allow(clippy::uninit_vec)]
        unsafe {
            out.set_len(total)
        };
        let slots = SyncMutPtr(out.as_mut_ptr());
        let n_chunks = chunk_count(total, self.range.min_len);
        let chunk = total.div_ceil(n_chunks.max(1)).max(1);
        run_chunked(n_chunks, |ci| {
            let start = ci * chunk;
            let end = ((ci + 1) * chunk).min(total);
            for i in start..end {
                // SAFETY: slot i belongs to exactly one chunk.
                unsafe { (*slots.ptr().add(i)).write(f(lo.offset(i))) };
            }
        });
        // SAFETY: all slots initialized.
        let out = unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr() as *mut R, total, out.capacity())
        };
        out.into_iter().collect()
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange<usize>;
    fn into_par_iter(self) -> ParRange<usize> {
        ParRange { lo: self.start, hi: self.end, min_len: 1 }
    }
}

impl IntoParallelIterator for Range<u64> {
    type Item = u64;
    type Iter = ParRange<u64>;
    fn into_par_iter(self) -> ParRange<u64> {
        ParRange { lo: self.start, hi: self.end, min_len: 1 }
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
    fn drive<F: Fn(usize, &mut [T]) + Sync>(self, f: F) {
        let len = self.data.len();
        let chunk_size = self.chunk_size;
        let n_chunks = len.div_ceil(chunk_size);
        let base = SyncMutPtr(self.data.as_mut_ptr());
        run_chunked(n_chunks, |ci| {
            let lo = ci * chunk_size;
            let hi = (lo + chunk_size).min(len);
            // SAFETY: chunks are disjoint (each claimed once) and within
            // the slice, which outlives the call.
            let slice = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(lo), hi - lo) };
            f(ci, slice);
        });
    }

    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }

    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        self.drive(|_ci, chunk| f(chunk));
    }
}

/// The result of [`ParChunksMut::enumerate`].
pub struct ParChunksMutEnumerate<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        self.inner.drive(|ci, chunk| f((ci, chunk)));
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

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<i64> = (0..1000usize).into_par_iter().map(|i| i as i64 * 2).collect();
        let expect: Vec<i64> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn vec_map_collect_preserves_order() {
        let items: Vec<String> = (0..257).map(|i| format!("x{i}")).collect();
        let out: Vec<usize> =
            items.clone().into_par_iter().map(|s| s.len()).with_min_len(3).collect();
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
        (0..500usize).into_par_iter().with_min_len(7).for_each(|_| {
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
        Vec::<u32>::new().into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let empty: Vec<u64> = (0..0u64).into_par_iter().map(|i| i).collect();
        assert!(empty.is_empty());
        let mut no_data: [u8; 0] = [];
        no_data.par_chunks_mut(4).for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);

        // 1 item: runs exactly once, result in order.
        let one: Vec<usize> = (7..8usize).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(one, vec![21]);
        vec![5u8].into_par_iter().for_each(|v| {
            count.fetch_add(v as usize, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn thread_limit_caps_and_restores() {
        let _guard = limit_lock();
        let prev = set_thread_limit(1);
        assert_eq!(current_num_threads(), 1);
        // Parallel calls still complete (inline path).
        let out: Vec<usize> = (0..100usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out[99], 100);
        set_thread_limit(2);
        assert!(current_num_threads() <= 2);
        let out: Vec<usize> = (0..100usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out[0], 1);
        set_thread_limit(prev);
    }

    #[test]
    fn env_override_parsing() {
        assert_eq!(threads_from_env(Some("3"), 8), 3);
        assert_eq!(threads_from_env(Some(" 12 "), 8), 12);
        // Unset, unparsable, and zero all fall back.
        assert_eq!(threads_from_env(None, 8), 8);
        assert_eq!(threads_from_env(Some("zippy"), 8), 8);
        assert_eq!(threads_from_env(Some("0"), 8), 8);
        assert_eq!(threads_from_env(Some(""), 8), 8);
        // The fallback itself is clamped to at least one thread.
        assert_eq!(threads_from_env(None, 0), 1);
    }

    #[test]
    fn env_override_applies_in_child_process() {
        // Re-runs this very test in a child process with LS_NUM_THREADS
        // set, where the cached value must reflect the override.
        if std::env::var("LS_RAYON_ENV_CHILD").is_ok() {
            assert_eq!(current_num_threads(), 3);
            return;
        }
        let exe = std::env::current_exe().expect("test executable path");
        let out = std::process::Command::new(exe)
            .args(["tests::env_override_applies_in_child_process", "--exact"])
            .env("LS_NUM_THREADS", "3")
            .env("LS_RAYON_ENV_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "child failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn panic_in_chunk_propagates() {
        let result = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().with_min_len(1).for_each(|i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
            });
        });
        assert!(result.is_err());
        // The pool survives a panicked job.
        let out: Vec<usize> = (0..10usize).into_par_iter().map(|i| i).collect();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn nested_calls_degrade_to_inline() {
        let count = AtomicUsize::new(0);
        (0..8usize).into_par_iter().with_min_len(1).for_each(|_| {
            // A nested parallel call from (possibly) a worker thread.
            (0..50usize).into_par_iter().for_each(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 400);
    }
}
