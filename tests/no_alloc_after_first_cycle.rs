//! After its first compression a restarted solve allocates no vector:
//! compression runs in place, the vectors it frees become the next
//! cycle's chain, and a step moves its output into the basis instead of
//! copying it. A counting global allocator (hence a test binary of its
//! own, and one `#[test]`) watches a `Vec<f64>` solve and a 2-locale
//! `DistVec<f64>` solve from the last product of the first cycle to the
//! end — every compression and the Ritz-vector assembly included, the
//! products' own buffers excluded — for any allocation of a vector's
//! size (a part's, distributed) or more.
//!
//! The recycled vectors must carry nothing from one state of the solve
//! into another: a solve cut short and resumed from its checkpoint ends
//! on the bits of the uninterrupted one, and so does one that a
//! `SolverHealthError` ended (watched up to the corruption) once its
//! caller resumes it, from its checkpoint or from the start.

use exact_diag::dist::eigensolve::DistOp;
use exact_diag::dist::{enumerate_dist, PcOptions};
use exact_diag::eigen::{
    thick_restart_lanczos_in, CheckpointPolicy, KrylovOp, KrylovVec, LanczosResultIn,
    SolverHealthError,
};
use exact_diag::kernels::Scalar;
use exact_diag::prelude::*;
use exact_diag::runtime::{Cluster, ClusterSpec, DistVec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least this many bytes are counted; `usize::MAX`
/// (nothing is that large) while no solve is being watched.
static WATCHED_SIZE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= WATCHED_SIZE.load(Ordering::Relaxed) {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics and
// allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Products of the first cycle under [`options`]: the chain cap of a
/// 26-vector budget at `k = 2`.
const CHAIN_CAP: usize = 17;

/// The repo benchmark's solver options, with Ritz vectors.
fn options() -> RestartOptions {
    RestartOptions { extra: 24, tol: 1e-10, want_vectors: true, ..RestartOptions::new(2) }
}

/// The operator under test with two probes on its products (counted from
/// 0): once product `watch_from` has returned, allocations of
/// `watched_size` bytes or more made between products are counted, and
/// product `nan_at` comes back all NaN, which ends the watch: what the
/// solve's unwind allocates is not a cycle's.
struct Probed<'a, Op> {
    inner: &'a Op,
    products: AtomicUsize,
    watch_from: usize,
    watched_size: usize,
    nan_at: usize,
}

impl<Op> Probed<'_, Op> {
    /// Runs one product with the watch suspended — what the operator
    /// allocates for itself is not the solver's — and says whether this
    /// product is the one to poison.
    fn product(&self, run: impl FnOnce()) -> bool {
        let product = self.products.fetch_add(1, Ordering::Relaxed);
        WATCHED_SIZE.store(usize::MAX, Ordering::Relaxed);
        run();
        let poisoned = product == self.nan_at;
        if product >= self.watch_from && !poisoned {
            WATCHED_SIZE.store(self.watched_size, Ordering::Relaxed);
        }
        poisoned
    }
}

// Two impls, not one over the vector type: that one would overlap the
// blanket `KrylovOp<Vec<S>>` of every `LinearOp<S>`.
impl<Op: LinearOp<f64>> LinearOp<f64> for Probed<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        if self.product(|| self.inner.apply(x, y)) {
            y.fill(f64::NAN);
        }
    }
}

impl<Op: KrylovOp<DistVec<f64>>> KrylovOp<DistVec<f64>> for Probed<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn new_vec(&self) -> DistVec<f64> {
        self.inner.new_vec()
    }

    fn apply(&self, x: &DistVec<f64>, y: &mut DistVec<f64>) {
        if self.product(|| self.inner.apply(x, y)) {
            y.fill_with(&mut |_| f64::NAN);
        }
    }
}

/// Solves with the probes set and returns the result, or the payload
/// the solve unwound with, and the number of vector-sized allocations
/// made while watching.
fn solve<V: KrylovVec, Op: KrylovOp<V>>(
    op: &Op,
    opts: &RestartOptions,
    watch_from: usize,
    nan_at: usize,
) -> (std::thread::Result<LanczosResultIn<V>>, usize)
where
    for<'a> Probed<'a, Op>: KrylovOp<V>,
{
    let watched_size =
        op.new_vec().layout().into_iter().min().unwrap() * size_of::<V::Scalar>();
    let probed =
        Probed { inner: op, products: AtomicUsize::new(0), watch_from, watched_size, nan_at };
    LARGE_ALLOCATIONS.store(0, Ordering::Relaxed);
    let res = catch_unwind(AssertUnwindSafe(|| thick_restart_lanczos_in(&probed, opts)));
    WATCHED_SIZE.store(usize::MAX, Ordering::Relaxed);
    (res, LARGE_ALLOCATIONS.load(Ordering::Relaxed))
}

/// Solves with the probes set, poisoning product `nan_at`: the solve
/// must unwind with the typed health error, having allocated no vector
/// in its second cycle. The watch starts after that cycle's first
/// product, past the first cycle's checkpoint write, whose 64 KiB record
/// buffer outsizes a part of the 2-locale vector.
fn poisoned<V: KrylovVec, Op: KrylovOp<V>>(
    what: &str,
    op: &Op,
    opts: &RestartOptions,
    nan_at: usize,
) where
    for<'a> Probed<'a, Op>: KrylovOp<V>,
{
    let (res, large) = solve(op, opts, CHAIN_CAP, nan_at);
    let Err(payload) = res else { panic!("{what}: the poisoned product must end the solve") };
    let health = payload.downcast_ref::<SolverHealthError>();
    assert!(health.is_some(), "{what}: the payload must stay the typed SolverHealthError");
    assert_eq!(large, 0, "{what}: vector-sized allocations before the corruption");
}

fn result_bits<V: KrylovVec>(res: &LanczosResultIn<V>) -> Vec<u64> {
    let mut out: Vec<u64> = res.eigenvalues.iter().map(|e| e.to_bits()).collect();
    for v in res.eigenvectors.as_ref().expect("Ritz vectors were asked for") {
        v.visit(&mut |x| out.extend(x.to_reals().map(f64::to_bits)));
    }
    out
}

fn check<V: KrylovVec, Op: KrylovOp<V>>(what: &str, op: &Op)
where
    for<'a> Probed<'a, Op>: KrylovOp<V>,
{
    const NEVER: usize = usize::MAX;
    let (clean, large) = solve(op, &options(), CHAIN_CAP - 1, NEVER);
    let clean = clean.unwrap();
    assert!(clean.converged && clean.iterations > 2 * CHAIN_CAP, "{what}: needs two restarts");
    assert_eq!(large, 0, "{what}: vector-sized allocations after the first cycle");
    assert_eq!(clean.peak_retained, CHAIN_CAP + 1, "{what}: vector high-water mark");
    let clean_products = clean.iterations;
    let clean = result_bits(&clean);

    let path = std::env::temp_dir().join(format!(
        "ls_no_alloc_{}_{}.lsck",
        std::process::id(),
        what.replace(' ', "_")
    ));
    std::fs::remove_file(&path).ok();
    let checkpointed = |max_restarts| RestartOptions {
        max_restarts,
        checkpoint: Some(CheckpointPolicy::new(path.clone())),
        ..options()
    };

    // Cut short after one restart, then resumed.
    let (cut, _) = solve(op, &checkpointed(1), NEVER, NEVER);
    assert!(!cut.unwrap().converged, "{what}: one restart was not supposed to be enough");
    let (resumed, _) = solve(op, &checkpointed(400), NEVER, NEVER);
    assert_eq!(result_bits(&resumed.unwrap()), clean, "{what}: resumed from a checkpoint");

    // Poisoned in the second cycle, then resumed from the checkpoint of
    // the first.
    std::fs::remove_file(&path).ok();
    poisoned(what, op, &checkpointed(400), CHAIN_CAP + 3);
    let (resumed, _) = solve(op, &checkpointed(400), NEVER, NEVER);
    let resumed = resumed.unwrap();
    assert!(resumed.iterations < clean_products, "{what}: the resume started over");
    assert_eq!(result_bits(&resumed), clean, "{what}: resumed after a corruption");
    std::fs::remove_file(&path).ok();

    // No checkpoint to go back to: the operator the corruption unwound
    // through starts over.
    poisoned(what, op, &options(), CHAIN_CAP + 3);
    let (replayed, _) = solve(op, &options(), NEVER, NEVER);
    assert_eq!(result_bits(&replayed.unwrap()), clean, "{what}: replayed from the start");
}

#[test]
fn a_restarted_solve_allocates_no_vector_after_its_first_compression() {
    let sites = 16u32;
    let expr = heisenberg(&chain_bonds(sites as usize), 1.0);
    let sector = SectorSpec::with_weight(sites, sites / 2).unwrap();

    let (_, op) = Operator::<f64>::from_expr(&expr, sector.clone()).unwrap();
    check::<Vec<f64>, _>("dense f64", &op);

    let kernel = expr.to_kernel(sites).unwrap();
    let symop = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let basis = enumerate_dist(&cluster, &sector, 3);
    let pc = PcOptions { deterministic: true, ..PcOptions::default() };
    check("two locales", &DistOp::new(&cluster, &symop, &basis, pc));
}
