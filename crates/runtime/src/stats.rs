//! Per-locale communication statistics.
//!
//! Every one-sided operation is recorded here. The counts are *exact*
//! functions of the algorithm and the locale count — which is what lets
//! the performance model project paper-scale timings from small-scale
//! executions.
//!
//! These counters describe the *algorithm's* communication; transport
//! mechanics — wire frames and bytes, and since the fault-tolerance
//! work also peer failures detected, aborts fanned out, heartbeats and
//! detection latency — live in [`crate::transport::TransportStats`].
//! Heartbeat traffic is deliberately excluded from the wire frame and
//! byte counters, sent and received alike (one predicate decides for both
//! directions), so the two layers stay comparable however long a run
//! idles.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket count: message sizes are classified by `ceil(log2)`.
pub const SIZE_CLASSES: usize = 40;

/// Communication counters for one locale. All counters are relaxed
/// atomics: they are statistics, not synchronization.
#[derive(Debug)]
pub struct CommStats {
    /// Remote put operations (writes to another locale's memory).
    pub puts: AtomicU64,
    /// Bytes written by remote puts.
    pub put_bytes: AtomicU64,
    /// Remote get operations.
    pub gets: AtomicU64,
    /// Bytes read by remote gets.
    pub get_bytes: AtomicU64,
    /// Local (same-locale) put/get operations, for completeness.
    pub local_ops: AtomicU64,
    /// Bytes moved by local put/get operations.
    pub local_bytes: AtomicU64,
    /// Remote atomic updates (accumulations into remote memory).
    pub remote_atomics: AtomicU64,
    /// `remoteAtomicWrite` flag messages (the paper's fastOn active
    /// messages).
    pub flag_messages: AtomicU64,
    /// Barrier crossings.
    pub barriers: AtomicU64,
    /// Message-size histogram (puts + gets), bucket = ceil(log2(bytes)).
    pub size_histogram: [AtomicU64; SIZE_CLASSES],
}

impl Default for CommStats {
    fn default() -> Self {
        Self::new()
    }
}

impl CommStats {
    /// All-zero counters.
    pub fn new() -> Self {
        Self {
            puts: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            get_bytes: AtomicU64::new(0),
            local_ops: AtomicU64::new(0),
            local_bytes: AtomicU64::new(0),
            remote_atomics: AtomicU64::new(0),
            flag_messages: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
            size_histogram: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn bucket(bytes: usize) -> usize {
        (usize::BITS - bytes.max(1).leading_zeros()) as usize % SIZE_CLASSES
    }

    /// Records one put of `bytes` (`remote` selects remote vs local
    /// counters and the histogram).
    #[inline]
    pub fn record_put(&self, bytes: usize, remote: bool) {
        if remote {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.put_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            self.size_histogram[Self::bucket(bytes)].fetch_add(1, Ordering::Relaxed);
        } else {
            self.local_ops.fetch_add(1, Ordering::Relaxed);
            self.local_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Records one get of `bytes` (`remote` as in [`Self::record_put`]).
    #[inline]
    pub fn record_get(&self, bytes: usize, remote: bool) {
        if remote {
            self.gets.fetch_add(1, Ordering::Relaxed);
            self.get_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            self.size_histogram[Self::bucket(bytes)].fetch_add(1, Ordering::Relaxed);
        } else {
            self.local_ops.fetch_add(1, Ordering::Relaxed);
            self.local_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Records one remote atomic update.
    #[inline]
    pub fn record_remote_atomic(&self) {
        self.remote_atomics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one flag message (the paper's `remoteAtomicWrite`).
    #[inline]
    pub fn record_flag_message(&self) {
        self.flag_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one barrier crossing.
    #[inline]
    pub fn record_barrier(&self) {
        self.barriers.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-old-data snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            get_bytes: self.get_bytes.load(Ordering::Relaxed),
            local_ops: self.local_ops.load(Ordering::Relaxed),
            local_bytes: self.local_bytes.load(Ordering::Relaxed),
            remote_atomics: self.remote_atomics.load(Ordering::Relaxed),
            flag_messages: self.flag_messages.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            size_histogram: self
                .size_histogram
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.puts.store(0, Ordering::Relaxed);
        self.put_bytes.store(0, Ordering::Relaxed);
        self.gets.store(0, Ordering::Relaxed);
        self.get_bytes.store(0, Ordering::Relaxed);
        self.local_ops.store(0, Ordering::Relaxed);
        self.local_bytes.store(0, Ordering::Relaxed);
        self.remote_atomics.store(0, Ordering::Relaxed);
        self.flag_messages.store(0, Ordering::Relaxed);
        self.barriers.store(0, Ordering::Relaxed);
        for c in &self.size_histogram {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Plain-data snapshot of [`CommStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Remote put operations.
    pub puts: u64,
    /// Bytes written by remote puts.
    pub put_bytes: u64,
    /// Remote get operations.
    pub gets: u64,
    /// Bytes read by remote gets.
    pub get_bytes: u64,
    /// Local (same-locale) put/get operations.
    pub local_ops: u64,
    /// Bytes moved by local operations.
    pub local_bytes: u64,
    /// Remote atomic updates.
    pub remote_atomics: u64,
    /// Flag messages.
    pub flag_messages: u64,
    /// Barrier crossings.
    pub barriers: u64,
    /// Message-size histogram (puts + gets), bucket = ceil(log2(bytes)).
    pub size_histogram: Vec<u64>,
}

impl StatsSnapshot {
    /// Sum of two snapshots (for cluster-wide totals).
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            puts: self.puts + other.puts,
            put_bytes: self.put_bytes + other.put_bytes,
            gets: self.gets + other.gets,
            get_bytes: self.get_bytes + other.get_bytes,
            local_ops: self.local_ops + other.local_ops,
            local_bytes: self.local_bytes + other.local_bytes,
            remote_atomics: self.remote_atomics + other.remote_atomics,
            flag_messages: self.flag_messages + other.flag_messages,
            barriers: self.barriers + other.barriers,
            size_histogram: self
                .size_histogram
                .iter()
                .zip(&other.size_histogram)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Mean remote message size in bytes (puts + gets), or 0.
    pub fn mean_message_bytes(&self) -> f64 {
        let msgs = self.puts + self.gets;
        if msgs == 0 {
            0.0
        } else {
            (self.put_bytes + self.get_bytes) as f64 / msgs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_classification() {
        assert_eq!(CommStats::bucket(1), 1);
        assert_eq!(CommStats::bucket(2), 2);
        assert_eq!(CommStats::bucket(3), 2);
        assert_eq!(CommStats::bucket(4), 3);
        assert_eq!(CommStats::bucket(1024), 11);
        assert_eq!(CommStats::bucket(2048), 12);
    }

    #[test]
    fn record_and_snapshot() {
        let s = CommStats::new();
        s.record_put(100, true);
        s.record_put(100, false);
        s.record_get(8, true);
        s.record_remote_atomic();
        s.record_flag_message();
        s.record_barrier();
        let snap = s.snapshot();
        assert_eq!(snap.puts, 1);
        assert_eq!(snap.put_bytes, 100);
        assert_eq!(snap.gets, 1);
        assert_eq!(snap.get_bytes, 8);
        assert_eq!(snap.local_ops, 1);
        assert_eq!(snap.local_bytes, 100);
        assert_eq!(snap.remote_atomics, 1);
        assert_eq!(snap.flag_messages, 1);
        assert_eq!(snap.barriers, 1);
        assert!((snap.mean_message_bytes() - 54.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.snapshot().puts, 0);
    }

    #[test]
    fn merged_totals() {
        let a = CommStats::new();
        a.record_put(10, true);
        let b = CommStats::new();
        b.record_put(20, true);
        b.record_get(5, true);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.puts, 2);
        assert_eq!(m.put_bytes, 30);
        assert_eq!(m.gets, 1);
    }
}
