//! The record codec streams: a save holds at most one 64 KiB buffer of
//! file bytes, never an image of the file, and a load allocates the
//! vectors it returns and nothing of their size besides. A counting
//! global allocator (hence a test binary of its own, and one `#[test]`)
//! counts the allocations of 1 MiB or more while 2 MiB vectors are saved
//! and loaded.

use exact_diag::core::io::{load_checkpoint, load_vector, save_checkpoint, save_vector};
use exact_diag::eigen::{CheckpointState, LinearOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocations of at least this many bytes are counted, while watching.
const LARGE: usize = 1 << 20;
static WATCHING: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= LARGE && WATCHING.load(Ordering::Relaxed) {
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

/// Elements of a 2 MiB `f64` vector.
const DIM: usize = (2 << 20) / 8;

/// An operator of dimension [`DIM`] whose only use is `new_vec`.
struct Zero;

impl LinearOp<f64> for Zero {
    fn dim(&self) -> usize {
        DIM
    }

    fn apply(&self, _x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
    }
}

/// Runs `f` and returns its result with the allocations of 1 MiB or more
/// it made.
fn large_allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGE_ALLOCATIONS.store(0, Ordering::Relaxed);
    WATCHING.store(true, Ordering::Relaxed);
    let out = f();
    WATCHING.store(false, Ordering::Relaxed);
    (out, LARGE_ALLOCATIONS.load(Ordering::Relaxed))
}

#[test]
fn saves_hold_no_file_image_and_loads_allocate_only_their_vectors() {
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("ls_record_memory_{}.lsck", std::process::id()));
    let vector = dir.join(format!("ls_record_memory_{}.lsrs", std::process::id()));
    let mk = |s: f64| (0..DIM).map(|i| (i as f64 * s).sin()).collect::<Vec<f64>>();
    let retained = 2;
    let state = CheckpointState {
        k: 2,
        budget: 26,
        restarts: 1,
        draws: 1,
        breakdowns: 0,
        retained,
        diag: vec![-1.0; retained],
        border: vec![0.5; retained],
        basis: vec![mk(0.1), mk(0.2), mk(0.3)],
    };

    let (saved, large) = large_allocations(|| save_checkpoint(&ckpt, &state));
    saved.unwrap();
    assert_eq!(large, 0, "save_checkpoint");
    let (saved, large) = large_allocations(|| save_vector(&vector, &state.basis[0]));
    saved.unwrap();
    assert_eq!(large, 0, "save_vector");

    let (back, large) = large_allocations(|| load_checkpoint::<Vec<f64>, _>(&ckpt, &Zero));
    assert_eq!(back.unwrap().basis, state.basis);
    assert_eq!(large, retained + 1, "load_checkpoint: the vectors themselves");
    let (back, large) = large_allocations(|| load_vector::<f64>(&vector));
    assert_eq!(back.unwrap(), state.basis[0]);
    assert_eq!(large, 1, "load_vector: the vector itself");

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&vector).ok();
}
