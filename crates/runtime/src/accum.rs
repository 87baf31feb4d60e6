//! Atomic accumulation windows: the `y[i] += coeff` of the paper's
//! matrix-vector product, executable concurrently from every locale this
//! process hosts.
//!
//! Scalars are viewed as their `f64` lanes and accumulated with CAS loops
//! on `AtomicU64` bit patterns; `Relaxed` ordering suffices because
//! accumulation is commutative and the run that accumulates ends by
//! joining its threads, which publishes everything. A loop over one part
//! takes the part's lanes once ([`AtomicAccumWindow::lanes`], a
//! [`PartLanes`] view behind one bounds check of the window) and adds
//! through the view, each add checked against the part's length. A caller
//! that is the only writer of a part for as long as it accumulates — the
//! producer/consumer product of a locale that runs one thread — skips the
//! CAS through [`PartLanes::add_exclusive`]: same lanes, same sums.
//!
//! The window itself performs no statistics recording: whether an
//! accumulation is "remote" depends on the algorithm (the batched matvec
//! ships coefficients in bulk and then accumulates *locally on behalf of*
//! the destination, while the naive matvec really does remote updates), so
//! attribution is the caller's job via [`crate::stats::CommStats`].
//!
//! ## Multiprocess
//!
//! Remote accumulation is in-process only. Under the multiprocess
//! transport a window covers the part this rank hosts; every other part
//! gets length 0 — its lane view is empty — so an add to it fails the
//! bounds check that every add makes anyway, with a message naming the
//! locale and the rank that hosts none of it — never silently landing in a
//! stale replica. Opening and dropping a window is no collective on either
//! backend: what a distributed product sends to another rank travels as a
//! [`crate::PairChannel`] batch, and the owner ranks and adds it here.

use crate::distvec::DistVec;
use crate::transport;
use ls_kernels::Scalar;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// A window over a distributed vector of scalars allowing concurrent
/// `fetch_add` from any locale this process hosts.
pub struct AtomicAccumWindow<'a, S: Scalar> {
    /// Per locale: pointer to the first `AtomicU64` lane and the number of
    /// *scalar* elements (0 for a part another process hosts).
    parts: Vec<(*const AtomicU64, usize)>,
    /// This process's multiprocess rank; `None` in process.
    rank: Option<usize>,
    _marker: PhantomData<&'a mut [S]>,
}

// SAFETY: `parts` points into the parts of a `DistVec` the window borrows
// mutably for `'a`, so they outlive it and nothing else touches them; every
// access through the window is to `AtomicU64` lanes. `rank` is a plain
// value.
unsafe impl<'a, S: Scalar> Send for AtomicAccumWindow<'a, S> {}
unsafe impl<'a, S: Scalar> Sync for AtomicAccumWindow<'a, S> {}

impl<'a, S: Scalar> AtomicAccumWindow<'a, S> {
    /// Opens an accumulation epoch on `vec`. Multiprocess: over this
    /// rank's part only (see the module docs); not a collective.
    pub fn new(vec: &'a mut DistVec<S>) -> Self {
        Self::hosting(vec, transport::active().map(|mp| mp.rank()))
    }

    /// [`Self::new`] as the process of multiprocess rank `rank` opens it
    /// (`None`: in process, every part).
    fn hosting(vec: &'a mut DistVec<S>, rank: Option<usize>) -> Self {
        // Layout guarantee: f64 and Complex64 are repr(C) aggregates of
        // f64 lanes, and AtomicU64 has the same size/alignment as f64.
        const {
            assert!(std::mem::align_of::<S>() >= std::mem::align_of::<u64>());
        };
        assert_eq!(std::mem::size_of::<S>(), 8 * S::N_REALS);
        let parts = vec
            .parts_mut()
            .iter_mut()
            .enumerate()
            .map(|(l, p)| {
                let len = if rank.is_none_or(|r| r == l) { p.len() } else { 0 };
                (p.as_mut_ptr() as *const AtomicU64, len)
            })
            .collect();
        Self { parts, rank, _marker: PhantomData }
    }

    /// Element count of `locale`'s part (0 for a part another process
    /// hosts).
    pub fn len(&self, locale: usize) -> usize {
        self.parts[locale].1
    }

    /// True when `locale`'s part is empty.
    pub fn is_empty(&self, locale: usize) -> bool {
        self.len(locale) == 0
    }

    /// The `f64` lanes of `vec[locale][start..start + len]`, bounds-checked
    /// once.
    #[inline]
    fn cells(&self, locale: usize, start: usize, len: usize) -> &[AtomicU64] {
        let (base, part_len) = self.parts[locale];
        if start.checked_add(len).is_none_or(|end| end > part_len) {
            out_of_bounds(locale, start.saturating_add(len.max(1) - 1), part_len, self.rank);
        }
        // SAFETY: in bounds of the part the window borrows, and every
        // access through the window is atomic.
        unsafe { std::slice::from_raw_parts(base.add(start * S::N_REALS), len * S::N_REALS) }
    }

    /// The `f64` lanes of `locale`'s whole part (none for a part another
    /// process hosts), for a loop that adds into it.
    #[inline]
    pub fn lanes(&self, locale: usize) -> PartLanes<'_, S> {
        let cells = self.cells(locale, 0, self.len(locale));
        PartLanes { cells, locale, rank: self.rank, _marker: PhantomData }
    }

    /// Atomically `vec[locale][index] += val`. Safe to call concurrently
    /// from any number of threads of this process.
    #[inline]
    pub fn fetch_add(&self, locale: usize, index: usize, val: S) {
        self.lanes(locale).fetch_add(index, val);
    }

    /// Atomic read of one element (diagnostics / tests).
    pub fn load(&self, locale: usize, index: usize) -> S {
        self.lanes(locale).load(index)
    }
}

/// One part of an [`AtomicAccumWindow`] as its `f64` lanes: what a loop
/// over the part adds through, taken once, so that an add is its bounds
/// check and its lanes' arithmetic. Empty for a part another process
/// hosts.
#[derive(Copy, Clone)]
pub struct PartLanes<'w, S: Scalar> {
    /// `S::N_REALS` lanes an element.
    cells: &'w [AtomicU64],
    locale: usize,
    rank: Option<usize>,
    _marker: PhantomData<S>,
}

impl<'w, S: Scalar> PartLanes<'w, S> {
    /// Element count of the part (0 for a part another process hosts).
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len() / S::N_REALS
    }

    /// True when the part is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The lanes of element `index`, bounds-checked.
    #[inline]
    fn at(&self, index: usize) -> &'w [AtomicU64] {
        if index >= self.len() {
            out_of_bounds(self.locale, index, self.len(), self.rank);
        }
        &self.cells[index * S::N_REALS..][..S::N_REALS]
    }

    /// Atomically `part[index] += val`. Safe to call concurrently from any
    /// number of threads of this process.
    #[inline]
    pub fn fetch_add(&self, index: usize, val: S) {
        for (cell, &add) in self.at(index).iter().zip(&val.to_reals()) {
            cas_add(cell, add);
        }
    }

    /// `part[index] += val` for a caller that is the **only** writer of
    /// the part while it accumulates (one thread owns the part): the same
    /// lanes, bounds check and sum as [`Self::fetch_add`], as a relaxed
    /// load and a relaxed store instead of a CAS loop, and no branch. A
    /// concurrent writer of the same element would not be undefined
    /// behaviour — the lanes stay atomic — but its add could be lost.
    #[inline]
    pub fn add_exclusive(&self, index: usize, val: S) {
        for (cell, &add) in self.at(index).iter().zip(&val.to_reals()) {
            plain_add(cell, add);
        }
    }

    /// Atomic read of one element.
    pub fn load(&self, index: usize) -> S {
        let mut lanes = [0.0f64; 2];
        for (slot, cell) in lanes.iter_mut().zip(self.at(index)) {
            *slot = f64::from_bits(cell.load(Ordering::Relaxed));
        }
        S::from_reals(lanes)
    }
}

/// One lane of [`PartLanes::fetch_add`]: a CAS loop, skipped for a zero
/// lane.
#[inline]
fn cas_add(cell: &AtomicU64, add: f64) {
    if add == 0.0 {
        return;
    }
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + add).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

/// One lane of [`PartLanes::add_exclusive`]: [`cas_add`]'s sum as a
/// relaxed load and a relaxed store. A zero lane is added, not skipped:
/// `v + 0.0` is `v` for every `v` but `-0.0`, and a lane that starts at
/// `+0.0` never holds `-0.0` (a sum is `-0.0` only when both terms are).
#[inline]
fn plain_add(cell: &AtomicU64, add: f64) {
    let sum = f64::from_bits(cell.load(Ordering::Relaxed)) + add;
    cell.store(sum.to_bits(), Ordering::Relaxed);
}

/// The bounds check's panic, out of the hot path. Under the multiprocess
/// transport a part another rank hosts has length 0 here, so this is also
/// where an add across processes is refused.
#[cold]
#[inline(never)]
fn out_of_bounds(locale: usize, index: usize, len: usize, rank: Option<usize>) -> ! {
    match rank {
        Some(rank) if rank != locale => panic!(
            "accumulate out of bounds: locale {locale}'s part lives in another process \
             (rank {rank} of the multiprocess transport); remote accumulation is in-process only"
        ),
        _ => panic!(
            "accumulate out of bounds: {index} >= {len} on locale {locale} ({} transport)",
            transport::backend().name()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};
    use ls_kernels::Complex64;

    #[test]
    fn concurrent_real_accumulation() {
        let n_locales = 4;
        let slots = 16usize;
        let adds_per_locale = 1000;
        let cluster = Cluster::new(ClusterSpec::new(n_locales, 1));
        let mut y = DistVec::<f64>::zeros(&vec![slots; n_locales]);
        {
            let win = AtomicAccumWindow::new(&mut y);
            cluster.run(|ctx| {
                for i in 0..adds_per_locale {
                    let dest = i % n_locales;
                    let idx = (i * 7 + ctx.locale()) % slots;
                    win.fetch_add(dest, idx, 0.5);
                }
            });
        }
        let total: f64 = y.parts().iter().flatten().sum();
        let expect = 0.5 * (adds_per_locale * n_locales) as f64;
        assert!((total - expect).abs() < 1e-9, "{total} vs {expect}");
    }

    #[test]
    fn complex_accumulation() {
        let cluster = Cluster::new(ClusterSpec::new(3, 1));
        let mut y = DistVec::<Complex64>::zeros(&[4, 4, 4]);
        {
            let win = AtomicAccumWindow::new(&mut y);
            cluster.run(|_ctx| {
                for _ in 0..100 {
                    win.fetch_add(0, 1, Complex64::new(0.25, -0.5));
                }
            });
        }
        let z = y.part(0)[1];
        assert!(z.approx_eq(Complex64::new(75.0, -150.0), 1e-9), "{z:?}");
        assert_eq!(y.part(0)[0], Complex64::ZERO);
    }

    #[test]
    fn exclusive_adds_have_the_bits_of_atomic_ones() {
        let adds = [0.1, -0.0, 0.7, 1e-17, -0.3, 0.0];
        let (mut plain, mut atomic) =
            (DistVec::<f64>::zeros(&[2]), DistVec::<f64>::zeros(&[2]));
        let mut z = DistVec::<Complex64>::zeros(&[1]);
        {
            let (p, a) =
                (AtomicAccumWindow::new(&mut plain), AtomicAccumWindow::new(&mut atomic));
            let zw = AtomicAccumWindow::new(&mut z);
            let (p, zl) = (p.lanes(0), zw.lanes(0));
            for &v in &adds {
                p.add_exclusive(1, v);
                a.fetch_add(0, 1, v);
                zl.add_exclusive(0, Complex64::new(v, -v));
            }
        }
        assert_eq!(plain.part(0)[1].to_bits(), atomic.part(0)[1].to_bits());
        assert_eq!(plain.part(0)[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(z.part(0)[0], Complex64::new(atomic.part(0)[1], -atomic.part(0)[1]));
    }

    #[test]
    #[should_panic(expected = "out of bounds: 2 >= 2 on locale 0 (inprocess transport)")]
    fn exclusive_adds_are_bounds_checked() {
        let mut y = DistVec::<f64>::zeros(&[2]);
        AtomicAccumWindow::new(&mut y).lanes(0).add_exclusive(2, 1.0);
    }

    #[test]
    fn the_lanes_of_a_part_another_process_hosts_are_empty() {
        // The window rank 1 of a two-process job opens: locale 0's part is
        // hosted elsewhere, so its view is empty and both adds through it
        // fail the bounds check, naming the process that holds the part.
        let mut y = DistVec::<f64>::zeros(&[4, 4]);
        let win = AtomicAccumWindow::hosting(&mut y, Some(1));
        let (remote, own) = (win.lanes(0), win.lanes(1));
        assert!(remote.is_empty() && own.len() == 4);
        own.add_exclusive(3, 1.0);
        for exclusive in [true, false] {
            let add = std::panic::AssertUnwindSafe(|| match exclusive {
                true => remote.add_exclusive(0, 1.0),
                false => remote.fetch_add(0, 1.0),
            });
            let refused =
                std::panic::catch_unwind(add).expect_err("an add into another process");
            let message = refused.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains("locale 0's part lives in another process (rank 1"),
                "{message}"
            );
        }
        drop(win);
        assert_eq!(y.part(1), &[0.0, 0.0, 0.0, 1.0]);
        assert_eq!(y.part(0), &[0.0; 4]);
    }

    #[test]
    fn a_run_adds_the_bits_of_element_adds() {
        // A run of adds through one lane view, plain or CAS, against the
        // window's element adds.
        let vals = [0.1, -0.0, 0.7, 1e-17, -0.3, 0.0];
        for exclusive in [true, false] {
            let (mut run, mut each) =
                (DistVec::<f64>::zeros(&[8]), DistVec::<f64>::zeros(&[8]));
            let mut z = DistVec::<Complex64>::zeros(&[8]);
            {
                let (r, e) =
                    (AtomicAccumWindow::new(&mut run), AtomicAccumWindow::new(&mut each));
                let zw = AtomicAccumWindow::new(&mut z);
                let (r, zl) = (r.lanes(0), zw.lanes(0));
                for round in 0..2 {
                    for (i, &v) in vals.iter().enumerate() {
                        let zv = Complex64::new(v, -v);
                        if exclusive {
                            r.add_exclusive(1 + round + i, v);
                            zl.add_exclusive(1 + i, zv);
                        } else {
                            r.fetch_add(1 + round + i, v);
                            zl.fetch_add(1 + i, zv);
                        }
                        e.fetch_add(0, 1 + round + i, v);
                    }
                }
            }
            let bits =
                |v: &DistVec<f64>| v.part(0).iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&run), bits(&each), "exclusive={exclusive}");
            for (i, &w) in z.part(0).iter().enumerate() {
                let v = if (1..7).contains(&i) { 2.0 * vals[i - 1] } else { 0.0 };
                assert_eq!(w, Complex64::new(v, -v), "exclusive={exclusive}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds: 3 >= 3 on locale 0 (inprocess transport)")]
    fn a_run_is_bounds_checked() {
        let mut y = DistVec::<f64>::zeros(&[3]);
        let win = AtomicAccumWindow::new(&mut y);
        let lanes = win.lanes(0);
        for i in 1..4 {
            lanes.add_exclusive(i, 1.0);
        }
    }

    #[test]
    fn load_reads_back() {
        let mut y = DistVec::<f64>::zeros(&[2]);
        let win = AtomicAccumWindow::new(&mut y);
        win.fetch_add(0, 0, 1.5);
        assert_eq!(win.load(0, 0), 1.5);
        assert_eq!(win.load(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let mut y = DistVec::<f64>::zeros(&[2]);
        let win = AtomicAccumWindow::new(&mut y);
        win.fetch_add(0, 2, 1.0);
    }
}
