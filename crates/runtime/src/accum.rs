//! Atomic accumulation windows: the `y[i] += coeff` of the paper's
//! matrix-vector product, executable concurrently from any locale.
//!
//! Scalars are viewed as their `f64` lanes and accumulated with CAS loops
//! on `AtomicU64` bit patterns; `Relaxed` ordering suffices because
//! accumulation is commutative and the epoch ends with a barrier that
//! publishes everything. A caller that is the only writer of a part for
//! as long as it accumulates — the producer/consumer product of a locale
//! that runs one thread — skips the CAS through
//! [`AtomicAccumWindow::add_exclusive`]: same lanes, same sums.
//!
//! The window itself performs no statistics recording: whether an
//! accumulation is "remote" depends on the algorithm (the batched matvec
//! ships coefficients in bulk and then accumulates *locally on behalf of*
//! the destination, while the naive matvec really does remote updates), so
//! attribution is the caller's job via [`crate::stats::CommStats`].
//!
//! ## Multiprocess epochs
//!
//! Under the multiprocess transport an accumulation window is collective:
//! `new` registers this rank's part as an accumulate target and barriers
//! (no remote add can arrive before its target exists), remote
//! `fetch_add`s travel as transport frames applied atomically by the
//! owner, and drop barriers before deregistering — the barrier doubles as
//! the flush, so after the epoch the owner's part holds every
//! contribution. Remote parts of the local replica are **not** updated
//! ([`AtomicAccumWindow::load`] of a remote locale reads stale data).
//! A peer failing while accumulate frames are in flight surfaces at the
//! next collective (or immediately, via socket EOF on the frame
//! stream) as an attributed abort — see [`crate::transport`]'s failure
//! model. Outbound accumulate frames are eligible targets for `LS_FAULT`
//! `delay:` injection (frame class `accum`).

use crate::distvec::DistVec;
use crate::transport::{self, MpRuntime};
use ls_kernels::Scalar;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// A window over a distributed vector of scalars allowing concurrent
/// `fetch_add` from any locale.
pub struct AtomicAccumWindow<'a, S: Scalar> {
    /// Per locale: pointer to the first `AtomicU64` lane and the number of
    /// *scalar* elements.
    parts: Vec<(*const AtomicU64, usize)>,
    /// Multiprocess: the runtime, this rank, and the registered window id.
    mp: Option<(&'static MpRuntime, usize, u64)>,
    _marker: PhantomData<&'a mut [S]>,
}

unsafe impl<'a, S: Scalar> Send for AtomicAccumWindow<'a, S> {}
unsafe impl<'a, S: Scalar> Sync for AtomicAccumWindow<'a, S> {}

impl<'a, S: Scalar> AtomicAccumWindow<'a, S> {
    /// Opens an accumulation epoch on `vec`. Multiprocess: collective
    /// (registers this rank's part and barriers).
    pub fn new(vec: &'a mut DistVec<S>) -> Self {
        // Layout guarantee: f64 and Complex64 are repr(C) aggregates of
        // f64 lanes, and AtomicU64 has the same size/alignment as f64.
        const {
            assert!(std::mem::align_of::<S>() >= std::mem::align_of::<u64>());
        };
        assert_eq!(std::mem::size_of::<S>(), 8 * S::N_REALS);
        let parts: Vec<(*const AtomicU64, usize)> = vec
            .parts_mut()
            .iter_mut()
            .map(|p| (p.as_mut_ptr() as *const AtomicU64, p.len()))
            .collect();
        let mp = transport::active().map(|mp| {
            let me = mp.rank();
            let (base, len) = parts[me];
            // SAFETY: the borrow of `vec` keeps the part alive for the
            // window lifetime; drop deregisters before releasing it.
            let id = unsafe { mp.register_accum(base, len, S::N_REALS) };
            mp.barrier();
            (mp, me, id)
        });
        Self { parts, mp, _marker: PhantomData }
    }

    /// Element count of `locale`'s part.
    pub fn len(&self, locale: usize) -> usize {
        self.parts[locale].1
    }

    /// True when `locale`'s part is empty.
    pub fn is_empty(&self, locale: usize) -> bool {
        self.len(locale) == 0
    }

    /// Atomically `vec[locale][index] += val`. Safe to call concurrently
    /// from any number of threads. Multiprocess: a remote `locale` ships
    /// one transport frame; the add is visible to the owner no later than
    /// the next barrier.
    #[inline]
    pub fn fetch_add(&self, locale: usize, index: usize, val: S) {
        let (base, len) = self.parts[locale];
        assert!(index < len, "accumulate out of bounds: {index} >= {len}");
        let lanes = val.to_reals();
        if let Some((mp, me, id)) = self.mp {
            if locale != me {
                if lanes.iter().take(S::N_REALS).any(|&v| v != 0.0) {
                    mp.send_acc(locale, id, index, &lanes[..S::N_REALS]);
                }
                return;
            }
        }
        for (lane, &add) in lanes.iter().enumerate().take(S::N_REALS) {
            if add == 0.0 {
                continue;
            }
            // SAFETY: index bounds checked; all epoch access is atomic.
            let cell = unsafe { &*base.add(index * S::N_REALS + lane) };
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let new = (f64::from_bits(cur) + add).to_bits();
                match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// `vec[locale][index] += val` for a caller that is the **only** writer
    /// of `locale`'s part while it accumulates (one thread owns the part,
    /// which this process hosts): the same lanes, bounds check and
    /// arithmetic as [`Self::fetch_add`], as a relaxed load and a relaxed
    /// store instead of a CAS loop. A concurrent writer of the same
    /// element would not be undefined behaviour — the lanes stay atomic —
    /// but its add could be lost.
    #[inline]
    pub fn add_exclusive(&self, locale: usize, index: usize, val: S) {
        let (base, len) = self.parts[locale];
        assert!(index < len, "accumulate out of bounds: {index} >= {len}");
        debug_assert!(self.mp.is_none_or(|(_, me, _)| me == locale), "not this rank's part");
        for (lane, &add) in val.to_reals().iter().enumerate().take(S::N_REALS) {
            if add == 0.0 {
                continue;
            }
            // SAFETY: index bounds checked; all epoch access is atomic.
            let cell = unsafe { &*base.add(index * S::N_REALS + lane) };
            let sum = f64::from_bits(cell.load(Ordering::Relaxed)) + add;
            cell.store(sum.to_bits(), Ordering::Relaxed);
        }
    }

    /// Atomic read of one element (diagnostics / tests). Multiprocess:
    /// only this rank's part is authoritative — a remote `locale` reads
    /// the stale local replica.
    pub fn load(&self, locale: usize, index: usize) -> S {
        let (base, len) = self.parts[locale];
        assert!(index < len);
        let mut lanes = [0.0f64; 2];
        for (lane, slot) in lanes.iter_mut().enumerate().take(S::N_REALS) {
            let cell = unsafe { &*base.add(index * S::N_REALS + lane) };
            *slot = f64::from_bits(cell.load(Ordering::Relaxed));
        }
        S::from_reals(lanes)
    }
}

impl<'a, S: Scalar> Drop for AtomicAccumWindow<'a, S> {
    fn drop(&mut self) {
        if let Some((mp, _, id)) = self.mp {
            // Unwinding out of a poisoned epoch: the flush barrier would
            // allocate the next collective sequence number against peers
            // that unwound at different points — a guaranteed desync
            // abort that would mask the recoverable corruption. Skip the
            // barrier but still deregister: stale in-flight accumulates
            // targeting a dropped id are discarded while the epoch is
            // poisoned/recovering, never applied through a dangling
            // pointer.
            if mp.is_poisoned() || std::thread::panicking() {
                mp.deregister_accum(id);
                return;
            }
            // The barrier flushes every in-flight remote add (per-peer
            // FIFO: accumulate frames travel ahead of the barrier's
            // collective frame), so deregistering afterwards is safe.
            mp.barrier();
            mp.deregister_accum(id);
        }
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
            for &v in &adds {
                p.add_exclusive(0, 1, v);
                a.fetch_add(0, 1, v);
                zw.add_exclusive(0, 0, Complex64::new(v, -v));
            }
        }
        assert_eq!(plain.part(0)[1].to_bits(), atomic.part(0)[1].to_bits());
        assert_eq!(plain.part(0)[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(z.part(0)[0], Complex64::new(atomic.part(0)[1], -atomic.part(0)[1]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn exclusive_adds_are_bounds_checked() {
        let mut y = DistVec::<f64>::zeros(&[2]);
        AtomicAccumWindow::new(&mut y).add_exclusive(0, 2, 1.0);
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
