//! The producer/consumer buffer channel of the paper's Fig. 5, plus the
//! `remoteAtomicWrite` primitive.
//!
//! A [`BufferChannel`] models one `RemoteBuffer`/`LocalBuffer` pair: a
//! fixed-capacity staging area on the consumer's locale, a flag on the
//! producer's side (`producer_free`: may I fill?) and a flag on the
//! consumer's side (`consumer_full`: is there data?). Each side spins only
//! on *its own* flag — the property the paper highlights as the key to
//! avoiding communication in the wait loops — and flips the peer's flag
//! with a `remoteAtomicWrite` (here: a release store plus a statistics
//! record standing in for the fastOn active message).
//!
//! Ownership of the buffer alternates strictly: producer between a
//! successful [`BufferChannel::try_claim`] and [`BufferChannel::send`];
//! consumer between a successful [`BufferChannel::try_recv`]'s CAS and its
//! returning flag store. The Release/Acquire pairs on the two flags make
//! the hand-off a happens-before edge, so the unsynchronized buffer copy
//! inside is race-free.

use crate::stats::CommStats;
use crossbeam::utils::Backoff;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The paper's `remoteAtomicWrite`: sets a flag that (conceptually) lives
/// on another locale. Implemented as a release store; the statistics
/// record stands in for the fastOn active message.
#[inline]
pub fn remote_atomic_store(stats: &CommStats, flag: &AtomicBool, value: bool) {
    flag.store(value, Ordering::Release);
    stats.record_flag_message();
}

/// Spins (with exponential backoff and eventual yielding) until `flag`
/// reads `expected`.
#[inline]
pub fn spin_until(flag: &AtomicBool, expected: bool) {
    let backoff = Backoff::new();
    while flag.load(Ordering::Acquire) != expected {
        backoff.snooze();
    }
}

/// One producer→consumer staging buffer (a RemoteBuffer/LocalBuffer pair).
pub struct BufferChannel<T> {
    buf: UnsafeCell<Box<[T]>>,
    len: AtomicUsize,
    /// Producer-side flag: true ⇒ the producer may claim and fill.
    producer_free: AtomicBool,
    /// Consumer-side flag: true ⇒ the buffer holds unconsumed data.
    consumer_full: AtomicBool,
    /// Producer signals it will send nothing more.
    closed: AtomicBool,
}

// SAFETY: the flag protocol (see module docs) serializes all access to
// `buf` and `len` between exactly one producer and one consumer at a time.
unsafe impl<T: Send> Sync for BufferChannel<T> {}

impl<T: Copy + Default> BufferChannel<T> {
    /// A channel whose single buffer holds up to `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            buf: UnsafeCell::new(vec![T::default(); capacity].into_boxed_slice()),
            len: AtomicUsize::new(0),
            producer_free: AtomicBool::new(true),
            consumer_full: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }

    /// The buffer's element capacity.
    pub fn capacity(&self) -> usize {
        // SAFETY: the boxed slice's length is immutable after
        // construction; reading it never races with content writes.
        unsafe { (&*self.buf.get()).len() }
    }

    /// Producer: tries to claim the buffer for filling. On success the
    /// producer owns the buffer until [`Self::send`].
    #[inline]
    pub fn try_claim(&self) -> bool {
        self.producer_free
            .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Producer: copies `data` into the (claimed) buffer and publishes it
    /// to the consumer. `remote` says whether the consumer lives on a
    /// different locale (for statistics).
    ///
    /// # Panics
    /// Panics if `data` exceeds the capacity. Calling `send` without a
    /// successful claim is a protocol violation (not checked — the flags
    /// would desynchronize, and tests would catch the lost data).
    pub fn send(&self, stats: &CommStats, remote: bool, data: &[T]) {
        assert!(data.len() <= self.capacity(), "buffer overflow");
        // SAFETY: claim succeeded, so the producer exclusively owns `buf`.
        unsafe {
            let buf = &mut *self.buf.get();
            buf[..data.len()].copy_from_slice(data);
        }
        self.len.store(data.len(), Ordering::Relaxed);
        stats.record_put(std::mem::size_of_val(data), remote);
        // Publish: the paper's remoteAtomicWrite on the consumer's flag.
        remote_atomic_store(stats, &self.consumer_full, true);
    }

    /// Producer: declares the stream finished. Must be called after the
    /// last `send` returned.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True once the producer declared the stream finished.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Consumer: tries to take a published buffer. On success the contents
    /// are appended to `out` and the producer's flag is released.
    pub fn try_recv(&self, stats: &CommStats, remote: bool, out: &mut Vec<T>) -> bool {
        if self
            .consumer_full
            .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let n = self.len.load(Ordering::Relaxed);
        // SAFETY: the CAS above acquired exclusive ownership of `buf`.
        unsafe {
            let buf = &*self.buf.get();
            out.extend_from_slice(&buf[..n]);
        }
        let _ = remote;
        // Release the producer: remoteAtomicWrite on its flag.
        remote_atomic_store(stats, &self.producer_free, true);
        true
    }

    /// Consumer: is the channel certainly drained? Only meaningful after
    /// a failed `try_recv`: if `closed` was observed `true` *and then*
    /// another `try_recv` fails, no more data can arrive (the producer's
    /// final `send` happens-before `close`).
    pub fn drained_after_failed_recv(&self, stats: &CommStats, out: &mut Vec<T>) -> bool {
        if !self.is_closed() {
            return false;
        }
        !self.try_recv(stats, false, out)
    }

    /// Re-arms a fully drained channel for another round (the paper reuses
    /// its buffers across matrix-vector products to avoid reallocation and
    /// re-pinning).
    ///
    /// # Panics
    /// Panics if the channel is not in the idle state (closed producer,
    /// no unconsumed data, buffer free).
    pub fn reset(&self) {
        assert!(self.is_closed(), "reset of an open channel");
        assert!(!self.consumer_full.load(Ordering::Acquire), "reset with unconsumed data");
        assert!(
            self.producer_free.load(Ordering::Acquire),
            "reset while producer holds the buffer"
        );
        self.closed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_transfers_everything_in_order() {
        let chan = BufferChannel::<u64>::new(16);
        let stats_p = CommStats::new();
        let stats_c = CommStats::new();
        let total: u64 = 1000;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut next = 0u64;
                let mut batch = Vec::new();
                while next < total {
                    batch.clear();
                    while next < total && batch.len() < 16 {
                        batch.push(next);
                        next += 1;
                    }
                    while !chan.try_claim() {
                        std::thread::yield_now();
                    }
                    chan.send(&stats_p, true, &batch);
                }
                chan.close();
            });
            s.spawn(|| {
                let mut got = Vec::new();
                let backoff = Backoff::new();
                loop {
                    if chan.try_recv(&stats_c, true, &mut got) {
                        backoff.reset();
                        continue;
                    }
                    if chan.drained_after_failed_recv(&stats_c, &mut got) {
                        break;
                    }
                    backoff.snooze();
                }
                let expect: Vec<u64> = (0..total).collect();
                assert_eq!(got, expect);
            });
        });
        // Producer recorded one put per batch; batches of 16 → 63 sends.
        assert_eq!(stats_p.snapshot().puts, total.div_ceil(16));
        // Each send and each recv flips one flag.
        assert_eq!(
            stats_p.snapshot().flag_messages + stats_c.snapshot().flag_messages,
            2 * total.div_ceil(16)
        );
    }

    #[test]
    fn close_without_data() {
        let chan = BufferChannel::<u32>::new(4);
        let stats = CommStats::new();
        chan.close();
        let mut out = Vec::new();
        assert!(!chan.try_recv(&stats, false, &mut out));
        assert!(chan.drained_after_failed_recv(&stats, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn claim_blocks_until_consumed() {
        let chan = BufferChannel::<u32>::new(2);
        let stats = CommStats::new();
        assert!(chan.try_claim());
        chan.send(&stats, false, &[1, 2]);
        // Buffer full and unconsumed: claim must fail.
        assert!(!chan.try_claim());
        let mut out = Vec::new();
        assert!(chan.try_recv(&stats, false, &mut out));
        assert_eq!(out, vec![1, 2]);
        // Now the producer may claim again.
        assert!(chan.try_claim());
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn capacity_enforced() {
        let chan = BufferChannel::<u8>::new(2);
        let stats = CommStats::new();
        assert!(chan.try_claim());
        chan.send(&stats, false, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "reset of an open channel")]
    fn reset_of_open_channel_panics() {
        let chan = BufferChannel::<u8>::new(2);
        chan.reset();
    }

    #[test]
    #[should_panic(expected = "reset with unconsumed data")]
    fn reset_with_pending_data_panics() {
        let chan = BufferChannel::<u8>::new(2);
        let stats = CommStats::new();
        assert!(chan.try_claim());
        chan.send(&stats, false, &[1]);
        chan.close();
        chan.reset();
    }

    #[test]
    fn reset_rearms_for_a_second_round() {
        let chan = BufferChannel::<u8>::new(2);
        let stats = CommStats::new();
        for round in 0..3 {
            assert!(chan.try_claim());
            chan.send(&stats, false, &[round as u8]);
            chan.close();
            let mut out = Vec::new();
            assert!(chan.try_recv(&stats, false, &mut out));
            assert_eq!(out, vec![round as u8]);
            assert!(chan.drained_after_failed_recv(&stats, &mut out));
            chan.reset();
        }
    }

    #[test]
    fn spin_until_and_remote_store() {
        let flag = AtomicBool::new(false);
        let stats = CommStats::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                remote_atomic_store(&stats, &flag, true);
            });
            spin_until(&flag, true);
        });
        assert_eq!(stats.snapshot().flag_messages, 1);
    }
}
