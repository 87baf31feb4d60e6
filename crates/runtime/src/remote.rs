//! The producer/consumer buffer channel of the paper's Fig. 5, plus the
//! `remoteAtomicWrite` primitive.
//!
//! A [`BufferChannel`] is a ring of two (`RING_SLOTS`) `RemoteBuffer` /
//! `LocalBuffer` pairs: fixed-capacity staging areas on the consumer's
//! locale, filled and drained in turn order, so a producer fills one slot
//! while the consumer still works on the other. In the paper each buffer
//! has a flag on the producer's side (may I fill?) and one on the
//! consumer's side (is there data?); each side spins only on *its own*
//! flag — the property the paper highlights as the key to avoiding
//! communication in the wait loops — and flips the peer's flag with a
//! `remoteAtomicWrite`. Here a slot's flag pair is one turn-stamped state
//! word (`4·turn + phase`), which never repeats a value and therefore lets
//! [`BufferChannel::send`] and [`BufferChannel::reset`] assert the
//! protocol; the two stores that would be `remoteAtomicWrite`s (publish,
//! release) go through [`remote_atomic_store`], a release store plus a
//! statistics record standing in for the fastOn active message.
//!
//! Ownership of a slot alternates strictly: free → *claimed* by the
//! producer that won [`BufferChannel::try_claim`] for the slot's turn →
//! *full* after its [`BufferChannel::send`] → *draining* by the consumer
//! that won [`BufferChannel::try_recv`] → free for the turn one ring
//! later. Turns are claimed and taken in order, so batches arrive FIFO
//! from a single producer. The Release/Acquire pairs on the state word
//! make every hand-off a happens-before edge, so the unsynchronized buffer
//! accesses in between are race-free.

use crate::stats::CommStats;
use crossbeam::utils::Backoff;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Slots per [`BufferChannel`] (multiprocess: batch credits per channel).
pub(crate) const RING_SLOTS: usize = 2;

/// Phases of a slot's state word `4·turn + phase`.
const FREE: usize = 0;
const CLAIMED: usize = 1;
const FULL: usize = 2;
const DRAINING: usize = 3;

/// The paper's `remoteAtomicWrite`: sets a flag that (conceptually) lives
/// on another locale. Implemented as a release store; when the two
/// endpoints really are different locales (`remote`) the statistics record
/// stands in for the fastOn active message.
#[inline]
pub fn remote_atomic_store(stats: &CommStats, remote: bool, flag: &AtomicUsize, value: usize) {
    flag.store(value, Ordering::Release);
    if remote {
        stats.record_flag_message();
    }
}

/// Spins (with exponential backoff and eventual yielding) until `flag`
/// reads `expected`.
#[inline]
pub fn spin_until(flag: &AtomicUsize, expected: usize) {
    let backoff = Backoff::new();
    while flag.load(Ordering::Acquire) != expected {
        backoff.snooze();
    }
}

/// One staging buffer of the ring (a RemoteBuffer/LocalBuffer pair).
struct Slot<T> {
    buf: UnsafeCell<Box<[T]>>,
    len: AtomicUsize,
    /// `4·turn + phase`: who owns `buf` and `len`, and for which turn.
    state: AtomicUsize,
}

impl<T> Slot<T> {
    /// Takes the slot from phase `from` of `turn` to its phase `to`, if
    /// that is where it is.
    fn advance(&self, turn: usize, from: usize, to: usize) -> bool {
        let (from, to) = (4 * turn + from, 4 * turn + to);
        self.state.compare_exchange(from, to, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }
}

/// One producer→consumer channel: a ring of staging buffers.
pub struct BufferChannel<T> {
    slots: [Slot<T>; RING_SLOTS],
    /// Next turn to claim (producer side) and to take (consumer side).
    head: AtomicUsize,
    tail: AtomicUsize,
    /// Producer signals it will send nothing more.
    closed: AtomicBool,
}

// SAFETY: the state protocol (see module docs) serializes all access to a
// slot's `buf` and `len` between exactly one producer and one consumer at
// a time; elements cross threads by value, hence `T: Send`.
unsafe impl<T: Send> Sync for BufferChannel<T> {}

impl<T: Copy + Default> BufferChannel<T> {
    /// A channel whose buffers hold up to `capacity` elements each.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            slots: std::array::from_fn(|turn| Slot {
                buf: UnsafeCell::new(vec![T::default(); capacity].into_boxed_slice()),
                len: AtomicUsize::new(0),
                state: AtomicUsize::new(4 * turn + FREE),
            }),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// The element capacity of one buffer.
    pub fn capacity(&self) -> usize {
        // SAFETY: the boxed slice's length is immutable after
        // construction; reading it never races with content writes.
        unsafe { (&*self.slots[0].buf.get()).len() }
    }

    /// Producer: tries to claim the next buffer of the ring for filling.
    /// On success the producer owns it until it calls [`Self::send`] with
    /// the returned turn.
    #[inline]
    pub fn try_claim(&self) -> Option<usize> {
        let turn = self.head.load(Ordering::Acquire);
        // Only the winner of `turn` moves `head` on; a producer that read
        // a stale `head` loses the exchange (state words never repeat).
        self.slots[turn % RING_SLOTS].advance(turn, FREE, CLAIMED).then(|| {
            self.head.store(turn + 1, Ordering::Release);
            turn
        })
    }

    /// Producer: copies `data` into the buffer claimed for `turn` and
    /// publishes it to the consumer. `remote` says whether the consumer
    /// lives on a different locale (for statistics).
    ///
    /// # Panics
    /// Panics if `data` exceeds the capacity, or if the caller does not
    /// hold the claim of `turn` (never claimed, or already sent).
    pub fn send(&self, turn: usize, stats: &CommStats, remote: bool, data: &[T]) {
        assert!(data.len() <= self.capacity(), "buffer overflow");
        let slot = &self.slots[turn % RING_SLOTS];
        assert_eq!(
            slot.state.load(Ordering::Relaxed),
            4 * turn + CLAIMED,
            "send into a buffer the caller did not claim"
        );
        // SAFETY: the slot is in the claimed phase of the caller's turn,
        // so the producer exclusively owns `buf`.
        unsafe {
            let buf = &mut *slot.buf.get();
            buf[..data.len()].copy_from_slice(data);
        }
        slot.len.store(data.len(), Ordering::Relaxed);
        stats.record_put(std::mem::size_of_val(data), remote);
        // Publish: the paper's remoteAtomicWrite on the consumer's flag.
        remote_atomic_store(stats, remote, &slot.state, 4 * turn + FULL);
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

    /// Consumer: tries to take the next published buffer. On success
    /// `take` sees the batch where it lies, then the buffer goes back to
    /// the producer. `remote` says whether the producer lives on a
    /// different locale (for statistics).
    pub fn try_recv(&self, stats: &CommStats, remote: bool, take: impl FnOnce(&[T])) -> bool {
        let turn = self.tail.load(Ordering::Acquire);
        let slot = &self.slots[turn % RING_SLOTS];
        if !slot.advance(turn, FULL, DRAINING) {
            return false;
        }
        self.tail.store(turn + 1, Ordering::Release);
        let n = slot.len.load(Ordering::Relaxed);
        // SAFETY: the draining phase is exclusive ownership of `buf`.
        take(unsafe { &(&*slot.buf.get())[..n] });
        // Release the buffer for the turn one ring later: remoteAtomicWrite
        // on the producer's flag.
        remote_atomic_store(stats, remote, &slot.state, 4 * (turn + RING_SLOTS) + FREE);
        true
    }

    /// Consumer: is the channel certainly drained? Only meaningful after
    /// a failed `try_recv`: if `closed` was observed `true` *and then*
    /// another `try_recv` fails, no more data can arrive (the producer's
    /// final `send` happens-before `close`, and turns are taken in order).
    pub fn drained_after_failed_recv(
        &self,
        stats: &CommStats,
        remote: bool,
        take: impl FnOnce(&[T]),
    ) -> bool {
        self.is_closed() && !self.try_recv(stats, remote, take)
    }

    /// Re-arms a fully drained channel for another round (the paper reuses
    /// its buffers across matrix-vector products to avoid reallocation and
    /// re-pinning).
    ///
    /// # Panics
    /// Panics if the channel is not in the idle state (closed producer,
    /// every buffer free).
    pub fn reset(&self) {
        assert!(self.is_closed(), "reset of an open channel");
        for slot in &self.slots {
            match slot.state.load(Ordering::Acquire) % 4 {
                FREE => {}
                FULL => panic!("reset with unconsumed data"),
                _ => panic!("reset while a buffer is held"),
            }
        }
        self.closed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Claims the next turn (which must be free) and sends `data`.
    fn put<T: Copy + Default>(chan: &BufferChannel<T>, stats: &CommStats, data: &[T]) {
        let turn = chan.try_claim().expect("a free buffer");
        chan.send(turn, stats, false, data);
    }

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
                    let turn = loop {
                        match chan.try_claim() {
                            Some(turn) => break turn,
                            None => std::thread::yield_now(),
                        }
                    };
                    chan.send(turn, &stats_p, true, &batch);
                }
                chan.close();
            });
            s.spawn(|| {
                let mut got = Vec::new();
                let backoff = Backoff::new();
                loop {
                    if chan.try_recv(&stats_c, true, |b| got.extend_from_slice(b)) {
                        backoff.reset();
                        continue;
                    }
                    if chan
                        .drained_after_failed_recv(&stats_c, true, |b| got.extend_from_slice(b))
                    {
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
    fn a_loopback_channel_records_no_flag_messages() {
        let chan = BufferChannel::<u32>::new(4);
        let stats = CommStats::new();
        put(&chan, &stats, &[1, 2]);
        assert!(chan.try_recv(&stats, false, |b| assert_eq!(b, [1, 2])));
        assert_eq!(stats.snapshot().flag_messages, 0);
        assert_eq!(stats.snapshot().puts, 0);
    }

    #[test]
    fn close_without_data() {
        let chan = BufferChannel::<u32>::new(4);
        let stats = CommStats::new();
        chan.close();
        let nothing = |_: &[u32]| panic!("no batch was sent");
        assert!(!chan.try_recv(&stats, false, nothing));
        assert!(chan.drained_after_failed_recv(&stats, false, nothing));
    }

    #[test]
    fn claim_blocks_until_consumed() {
        let chan = BufferChannel::<u32>::new(2);
        let stats = CommStats::new();
        // The ring holds RING_SLOTS unconsumed batches...
        for turn in 0..RING_SLOTS {
            put(&chan, &stats, &[turn as u32, 2]);
        }
        // ...then a claim must fail,
        assert!(chan.try_claim().is_none());
        let mut out = Vec::new();
        assert!(chan.try_recv(&stats, false, |b| out.extend_from_slice(b)));
        assert_eq!(out, vec![0, 2]);
        // until the consumer gave a buffer back.
        assert_eq!(chan.try_claim(), Some(RING_SLOTS));
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn capacity_enforced() {
        let chan = BufferChannel::<u8>::new(2);
        put(&chan, &CommStats::new(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "did not claim")]
    fn send_without_a_claim_panics() {
        let chan = BufferChannel::<u8>::new(2);
        let stats = CommStats::new();
        put(&chan, &stats, &[1]);
        // Turn 1 is the next one, but nobody claimed it.
        chan.send(1, &stats, false, &[2]);
    }

    #[test]
    #[should_panic(expected = "did not claim")]
    fn sending_a_turn_twice_panics() {
        let chan = BufferChannel::<u8>::new(2);
        let stats = CommStats::new();
        let turn = chan.try_claim().unwrap();
        chan.send(turn, &stats, false, &[1]);
        chan.send(turn, &stats, false, &[1]);
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
        put(&chan, &CommStats::new(), &[1]);
        chan.close();
        chan.reset();
    }

    #[test]
    #[should_panic(expected = "reset while a buffer is held")]
    fn reset_with_a_claimed_buffer_panics() {
        let chan = BufferChannel::<u8>::new(2);
        put(&chan, &CommStats::new(), &[1]);
        assert!(chan.try_recv(&CommStats::new(), false, |_| {}));
        // The second slot of the ring is claimed and never sent.
        assert!(chan.try_claim().is_some());
        chan.close();
        chan.reset();
    }

    #[test]
    fn reset_rearms_for_a_second_round() {
        let chan = BufferChannel::<u8>::new(2);
        let stats = CommStats::new();
        // An odd number of batches per round: every round starts on the
        // other slot of the ring.
        for round in 0..3u8 {
            let mut out = Vec::new();
            for batch in 0..3u8 {
                put(&chan, &stats, &[round, batch]);
                assert!(chan.try_recv(&stats, false, |b| out.extend_from_slice(b)));
            }
            chan.close();
            assert_eq!(out, vec![round, 0, round, 1, round, 2]);
            assert!(chan.drained_after_failed_recv(&stats, false, |_| panic!("drained")));
            chan.reset();
        }
    }

    #[test]
    fn spin_until_and_remote_store() {
        let flag = AtomicUsize::new(0);
        let stats = CommStats::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                remote_atomic_store(&stats, true, &flag, 1);
            });
            spin_until(&flag, 1);
        });
        assert_eq!(stats.snapshot().flag_messages, 1);
    }
}
