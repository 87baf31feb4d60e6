//! A reusable sense-reversing spin barrier.
//!
//! Built from two atomics following the construction in *Rust Atomics and
//! Locks*; spinning uses `crossbeam`'s `Backoff` so oversubscribed
//! configurations (more simulated locales than hardware threads) yield to
//! the OS instead of burning a core.

use crossbeam::utils::Backoff;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A reusable barrier for a fixed set of `n` participants.
#[derive(Debug)]
pub struct SenseBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SenseBarrier {
    /// A barrier for exactly `n` participants (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self { n, count: AtomicUsize::new(0), sense: AtomicBool::new(false) }
    }

    /// The fixed participant count `n`.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Blocks until all `n` participants have called `wait`. The barrier
    /// is immediately reusable for the next phase.
    pub fn wait(&self) {
        self.wait_polling(|| {});
    }

    /// [`Self::wait`], calling `poll` on every turn of the spin. `poll`
    /// may unwind to abandon a phase that cannot complete (a participant
    /// is gone); the arrival it leaves behind is cleared by
    /// [`Self::reset`].
    pub fn wait_polling(&self, poll: impl Fn()) {
        // The phase everyone is waiting to *enter*.
        let my_sense = !self.sense.load(Ordering::Relaxed);
        // AcqRel: makes all writes before the barrier visible to everyone
        // after it (release on increment, acquire on the sense load below).
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
        } else {
            let backoff = Backoff::new();
            while self.sense.load(Ordering::Acquire) != my_sense {
                poll();
                backoff.snooze();
            }
        }
    }

    /// Forgets the arrivals of an abandoned phase (see
    /// [`Self::wait_polling`]). Only between phases: no participant may
    /// be inside a wait.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_participant_never_blocks() {
        let b = SenseBarrier::new(1);
        for _ in 0..100 {
            b.wait();
        }
    }

    #[test]
    fn phases_are_separated() {
        // Each thread increments a phase counter, crosses the barrier, and
        // checks that everyone finished the previous phase.
        const T: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = SenseBarrier::new(T);
        let counters: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..T {
                s.spawn(|| {
                    for (r, counter) in counters.iter().enumerate() {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // After the barrier, all T increments of round r
                        // must be visible.
                        assert_eq!(counter.load(Ordering::Relaxed), T as u64, "round {r}");
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn reusable_many_rounds_two_threads() {
        let barrier = SenseBarrier::new(2);
        let turn = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..500u64 {
                    // Even turns belong to thread A.
                    turn.store(2 * i, Ordering::Relaxed);
                    barrier.wait();
                    barrier.wait();
                }
            });
            s.spawn(|| {
                for i in 0..500u64 {
                    barrier.wait();
                    assert_eq!(turn.load(Ordering::Relaxed), 2 * i);
                    barrier.wait();
                }
            });
        });
    }
}
