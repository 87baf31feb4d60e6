//! One-sided RMA windows over distributed vectors.
//!
//! A window opens an *epoch* on a [`DistVec`]: while the window is alive,
//! the vector is only accessible through the window's operations, and the
//! Rust borrow checker enforces it (write windows take `&mut`). Inside an
//! epoch:
//!
//! * [`RmaReadWindow::get`] — remote read (any number, freely concurrent);
//! * [`RmaWriteWindow::put`] — remote write; each element may be written
//!   **at most once per epoch** (the paper's conversion algorithms have
//!   exactly this write-once structure, with offsets precomputed so that
//!   all transfers are disjoint). Violations are detected at runtime by an
//!   interval ledger — always on, because a silent data race would
//!   invalidate every benchmark built on top.
//!
//! For repeatedly reused buffers (the producer/consumer matvec), see
//! [`crate::remote::BufferChannel`], whose flag protocol transfers
//! ownership back and forth instead.
//!
//! Window elements are padding-free PODs (`u8`/`u16`/`u32`/`u64`/`f64`/
//! `Complex64` in this workspace): under the multiprocess transport they
//! travel as raw bytes.
//!
//! ## Multiprocess epochs
//!
//! Under the multiprocess transport ([`crate::transport`]) a window epoch
//! is built from the mesh's collectives, so its data crosses the same
//! CRC-sealed frames as every other exchange. A read window's `new`
//! allgathers the parts and `get` copies from that snapshot. A write
//! window's `put` writes into this rank's own part in place and keeps
//! every put addressed to another rank; dropping the window allgathers
//! those puts, applies the ones addressed to this rank, then allgathers
//! the finished parts — so after the epoch the whole `DistVec` is
//! coherent in every process, each part being its owner's content plus
//! every put (the paper's enumeration pipeline relies on this full
//! replication). Because epochs are collective, all ranks must create
//! and drop windows at the same program point. The write-once ledger only
//! observes this process's puts — a cross-process overlap is caught by
//! whichever rank issues both halves, not globally.
//!
//! If a peer dies while an epoch's collective is in flight, the
//! collective detects it within milliseconds and the job aborts with the
//! failure attributed to that rank — see the failure model in
//! [`crate::transport`].

use crate::cluster::LocaleCtx;
use crate::distvec::DistVec;
use crate::transport::{self, MpRuntime};
use parking_lot::Mutex;
use std::marker::PhantomData;

/// Every rank's `own`, in rank order: the exchange of a multiprocess
/// epoch.
fn allgather<T: Copy>(mp: &MpRuntime, own: &[T]) -> Vec<Vec<T>> {
    // SAFETY: window elements are padding-free PODs (module contract).
    unsafe { mp.allgather_elems(own) }
}

/// Read-only window (shared borrow ⇒ no writers can exist).
pub struct RmaReadWindow<'a, T: Copy + Sync> {
    parts: Vec<(*const T, usize)>,
    /// Multiprocess: the parts allgathered at open, which `parts` points
    /// into.
    _snapshot: Option<Vec<Vec<T>>>,
    _marker: PhantomData<&'a [T]>,
}

unsafe impl<'a, T: Copy + Sync> Send for RmaReadWindow<'a, T> {}
unsafe impl<'a, T: Copy + Sync> Sync for RmaReadWindow<'a, T> {}

impl<'a, T: Copy + Sync> RmaReadWindow<'a, T> {
    /// Opens a read epoch on `vec`. Multiprocess: collective (allgathers
    /// the parts).
    pub fn new(vec: &'a DistVec<T>) -> Self {
        let snapshot = transport::active().map(|mp| allgather(mp, vec.part(mp.rank())));
        let source = snapshot.as_deref().unwrap_or(vec.parts());
        Self {
            parts: source.iter().map(|p| (p.as_ptr(), p.len())).collect(),
            _snapshot: snapshot,
            _marker: PhantomData,
        }
    }

    /// Element count of `locale`'s part.
    pub fn len(&self, locale: usize) -> usize {
        self.parts[locale].1
    }

    /// True when `locale`'s part is empty.
    pub fn is_empty(&self, locale: usize) -> bool {
        self.len(locale) == 0
    }

    /// Copies `dst.len()` elements starting at `offset` from `src_locale`'s
    /// part into `dst` (a remote get). Attributed to `ctx`'s locale.
    pub fn get(&self, ctx: &LocaleCtx<'_>, src_locale: usize, offset: usize, dst: &mut [T]) {
        let (ptr, len) = self.parts[src_locale];
        assert!(
            offset + dst.len() <= len,
            "get out of bounds: {}..{} of {len}",
            offset,
            offset + dst.len()
        );
        // SAFETY: shared borrow of the DistVec (or the window's own
        // snapshot) guarantees no concurrent writers; the range is in
        // bounds.
        unsafe {
            std::ptr::copy_nonoverlapping(ptr.add(offset), dst.as_mut_ptr(), dst.len());
        }
        ctx.stats().record_get(std::mem::size_of_val(dst), src_locale != ctx.locale());
    }

    /// Borrow the caller's *own* part directly (local access is free in
    /// the PGAS model).
    pub fn local_part(&self, ctx: &LocaleCtx<'_>) -> &[T] {
        let (ptr, len) = self.parts[ctx.locale()];
        // SAFETY: as in `get`.
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }
}

/// Write window with write-once-per-epoch semantics.
pub struct RmaWriteWindow<'a, T: Copy + Send> {
    parts: Vec<(*mut T, usize)>,
    /// Per-destination ledger of claimed `[start, end)` ranges.
    claims: Vec<Mutex<Vec<(usize, usize)>>>,
    /// Multiprocess: the puts addressed to parts another process hosts,
    /// as `[dest, offset, len]` headers and their elements, exchanged
    /// when the epoch closes.
    outbox: Option<Mutex<(Vec<u64>, Vec<T>)>>,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<'a, T: Copy + Send> Send for RmaWriteWindow<'a, T> {}
unsafe impl<'a, T: Copy + Send> Sync for RmaWriteWindow<'a, T> {}

impl<'a, T: Copy + Send> RmaWriteWindow<'a, T> {
    /// Opens a write epoch on `vec`. Multiprocess: the epoch's
    /// collectives run when it closes; unwritten elements keep their
    /// owner's values through it.
    pub fn new(vec: &'a mut DistVec<T>) -> Self {
        let parts: Vec<(*mut T, usize)> =
            vec.parts_mut().iter_mut().map(|p| (p.as_mut_ptr(), p.len())).collect();
        let claims = (0..parts.len()).map(|_| Mutex::new(Vec::new())).collect();
        let outbox = transport::active().map(|_| Mutex::new((Vec::new(), Vec::new())));
        Self { parts, claims, outbox, _marker: PhantomData }
    }

    /// Element count of `locale`'s part.
    pub fn len(&self, locale: usize) -> usize {
        self.parts[locale].1
    }

    /// Writes `src` into `dest_locale`'s part at `offset` (a remote put).
    ///
    /// # Panics
    /// Panics when the range is out of bounds or overlaps a range already
    /// written in this epoch — both indicate an offset-computation bug in
    /// the caller, which in a real distributed run would be silent data
    /// corruption.
    pub fn put(&self, ctx: &LocaleCtx<'_>, dest_locale: usize, offset: usize, src: &[T]) {
        if src.is_empty() {
            return;
        }
        let (ptr, len) = self.parts[dest_locale];
        assert!(
            offset + src.len() <= len,
            "put out of bounds: {}..{} of {len}",
            offset,
            offset + src.len()
        );
        let range = (offset, offset + src.len());
        {
            let mut ledger = self.claims[dest_locale].lock();
            for &(s, e) in ledger.iter() {
                assert!(
                    range.1 <= s || e <= range.0,
                    "overlapping puts in one epoch: {range:?} vs {:?}",
                    (s, e)
                );
            }
            ledger.push(range);
        }
        match &self.outbox {
            Some(outbox) if dest_locale != ctx.locale() => {
                let mut outbox = outbox.lock();
                outbox.0.extend([dest_locale, offset, src.len()].map(|n| n as u64));
                outbox.1.extend_from_slice(src);
            }
            _ => {
                // SAFETY: exclusive borrow of the DistVec for the window
                // lifetime; the ledger guarantees the range is written by
                // this call only.
                unsafe {
                    std::ptr::copy_nonoverlapping(src.as_ptr(), ptr.add(offset), src.len());
                }
            }
        }
        ctx.stats().record_put(std::mem::size_of_val(src), dest_locale != ctx.locale());
    }
}

impl<'a, T: Copy + Send> Drop for RmaWriteWindow<'a, T> {
    fn drop(&mut self) {
        let (Some(outbox), Some(mp)) = (&self.outbox, transport::active()) else { return };
        // Unwinding: the close collectives would run against peers that
        // never reach them, and a panic during the unwind aborts.
        if std::thread::panicking() {
            return;
        }
        // SAFETY: the window holds the exclusive borrow of the DistVec
        // these parts belong to, and no put runs once it is dropped.
        let mut parts: Vec<&mut [T]> = self
            .parts
            .iter()
            .map(|&(ptr, len)| unsafe { std::slice::from_raw_parts_mut(ptr, len) })
            .collect();
        let me = mp.rank();
        let outbox = outbox.lock();
        let (heads, elems) = (allgather(mp, &outbox.0), allgather(mp, &outbox.1));
        for (heads, elems) in heads.iter().zip(&elems) {
            let mut at = 0;
            for head in heads.chunks_exact(3) {
                let [dest, offset, len] = [head[0], head[1], head[2]].map(|n| n as usize);
                if dest == me {
                    parts[me][offset..offset + len].copy_from_slice(&elems[at..at + len]);
                }
                at += len;
            }
        }
        let finished = allgather(mp, parts[me]);
        for (locale, part) in finished.iter().enumerate() {
            if locale != me {
                parts[locale].copy_from_slice(part);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};

    #[test]
    fn all_to_all_puts() {
        // Locale l writes value l into slot l of every other locale.
        let n = 4usize;
        let cluster = Cluster::new(ClusterSpec::new(n, 1));
        let mut data = DistVec::<u64>::zeros(&vec![n; n]);
        {
            let win = RmaWriteWindow::new(&mut data);
            cluster.run(|ctx| {
                let me = ctx.locale() as u64;
                for dest in 0..n {
                    win.put(ctx, dest, ctx.locale(), &[me + 100]);
                }
            });
        }
        for l in 0..n {
            let expect: Vec<u64> = (0..n as u64).map(|i| i + 100).collect();
            assert_eq!(data.part(l), &expect[..]);
        }
        let total = cluster.stats_total();
        assert_eq!(total.puts, (n * (n - 1)) as u64); // remote only
        assert_eq!(total.local_ops, n as u64);
        assert_eq!(total.put_bytes, (n * (n - 1) * 8) as u64);
    }

    #[test]
    fn gets_read_remote_parts() {
        let n = 3usize;
        let cluster = Cluster::new(ClusterSpec::new(n, 1));
        let data =
            DistVec::from_parts(vec![vec![1u64, 2, 3], vec![10, 20, 30], vec![100, 200, 300]]);
        let win = RmaReadWindow::new(&data);
        let sums = cluster.run(|ctx| {
            let mut buf = [0u64; 3];
            let mut sum = 0u64;
            for src in 0..n {
                win.get(ctx, src, 0, &mut buf);
                sum += buf.iter().sum::<u64>();
            }
            // Local part direct access.
            assert_eq!(win.local_part(ctx).len(), 3);
            sum
        });
        assert_eq!(sums, vec![666, 666, 666]);
        assert_eq!(cluster.stats_total().gets, (n * (n - 1)) as u64);
    }

    #[test]
    #[should_panic(expected = "overlapping puts")]
    fn overlap_detected() {
        let cluster = Cluster::new(ClusterSpec::new(1, 1));
        let mut data = DistVec::<u32>::zeros(&[8]);
        let win = RmaWriteWindow::new(&mut data);
        cluster.run(|ctx| {
            win.put(ctx, 0, 0, &[1, 2, 3]);
            win.put(ctx, 0, 2, &[4, 5]); // overlaps element 2
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn put_bounds_checked() {
        let cluster = Cluster::new(ClusterSpec::new(1, 1));
        let mut data = DistVec::<u32>::zeros(&[4]);
        let win = RmaWriteWindow::new(&mut data);
        cluster.run(|ctx| {
            win.put(ctx, 0, 3, &[1, 2]);
        });
    }

    #[test]
    fn adjacent_puts_are_fine() {
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        let mut data = DistVec::<u32>::zeros(&[6, 0]);
        let win = RmaWriteWindow::new(&mut data);
        cluster.run(|ctx| {
            if ctx.locale() == 0 {
                win.put(ctx, 0, 0, &[1, 2, 3]);
            } else {
                win.put(ctx, 0, 3, &[4, 5, 6]);
            }
        });
        drop(win);
        assert_eq!(data.part(0), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn message_size_histogram_populated() {
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        let mut data = DistVec::<u8>::zeros(&[4096, 4096]);
        let win = RmaWriteWindow::new(&mut data);
        cluster.run(|ctx| {
            if ctx.locale() == 0 {
                let buf = vec![7u8; 2048];
                win.put(ctx, 1, 0, &buf); // 2048 bytes -> bucket 12
            }
        });
        let snap = cluster.stats()[0].snapshot();
        assert_eq!(snap.size_histogram[12], 1);
        assert!((snap.mean_message_bytes() - 2048.0).abs() < 1e-9);
    }
}
