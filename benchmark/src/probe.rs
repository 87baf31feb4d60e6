//! The machine-speed probe: why `solve_s` is steady on a host whose
//! speed is not.
//!
//! The reference machine is a 2-vCPU guest on a shared host. Its speed
//! moves by tens of percent for a minute or more at a time — neighbours
//! take cache, memory bandwidth and whole vCPUs — so ten runs of the same
//! code spread by 10–25 %, and no estimator inside a run helps: every
//! solve of the run sits in the same regime. What does help is to measure
//! the machine while it does the work. After every product of a timed
//! solve the untraced pass runs one *sample*: a fixed number of random
//! gathers from a table larger than a core's caches, on as many threads
//! as the workload uses. The sample is this file's code, calls nothing in
//! the library, and so takes the same time at every commit on an
//! undisturbed machine; how much longer it takes now is how much slower
//! the machine is now. The time the host took the vCPUs away altogether
//! is counted by the guest kernel and comes off first. A solve is
//! reported as
//!
//! ```text
//! (wall − time spent sampling − STOLEN_SHARE · stolen) · NOMINAL_S / (lower quartile of the samples)
//! ```
//!
//! that is, in seconds of the reference machine at its undisturbed speed.
//! The lower quartile, because a sample that was itself interrupted is
//! already in the stolen time. Gathers rather than arithmetic or
//! streaming, because on 400 s series of back-to-back solves they were
//! what tracked all four workloads (`u1_chain22` moved between 6.2 and
//! 10.3 s and its samples between 2.5 and 3.6 ms).

use crate::stats::percentile;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The gather table, in MiB: eight times a core's L2, so a gather is a
/// trip to the shared cache or to memory. Resident from construction to
/// exit, which is why `peak_rss_mb` can subtract it exactly.
pub const TABLE_MIB: usize = 32;

/// Gathers per thread per sample: 2.5–3.5 ms, against products of 35–350 ms.
const GATHERS: usize = 300_000;

/// What one sample between two products takes on the reference machine
/// when nothing disturbs it (after a set-up, with the table still in
/// cache, 2.4 ms). Only fixes the scale of the reported times; it
/// cancels between any two results taken with the same harness.
pub const NOMINAL_S: f64 = 3.0e-3;

/// How much of the vCPU time the host took away (summed over the vCPUs)
/// a solve loses in wall time. Between 1/2 — both of two busy threads
/// stopped at once — and 1 — one at a time, the other waiting at the next
/// join. On `sym_chain24` solves with 0–5 s stolen, 0.75–1 left the least
/// spread (0.03, against 0.10 for raw wall time).
pub const STOLEN_SHARE: f64 = 0.75;

pub struct SpeedProbe {
    table: Vec<f64>,
    threads: usize,
    /// Durations of the samples since the last [`Self::take`]. The
    /// operators a solver calls must be `Sync`, hence the mutex; samples
    /// are taken one at a time, so it is never contended.
    log: Mutex<Vec<f64>>,
}

/// Sum of `GATHERS` table entries at the indices of a 64-bit LCG.
fn gather(table: &[f64], seed: u64) -> f64 {
    let mask = table.len() - 1;
    let (mut z, mut sum) = (seed, 0.0);
    for _ in 0..GATHERS {
        z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        sum += table[(z >> 33) as usize & mask];
    }
    sum
}

impl SpeedProbe {
    pub fn new(threads: usize) -> Self {
        let len = TABLE_MIB << 17;
        assert!(len.is_power_of_two(), "gather() masks its indices");
        // Written, not zero-filled: every page must be resident.
        let table = (0..len).map(|i| 1.0 + i as f64).collect();
        Self { table, threads, log: Mutex::new(Vec::new()) }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<f64>> {
        self.log.lock().expect("nothing panics while the probe log is locked")
    }

    /// Takes one sample.
    pub fn sample(&self) {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for seed in 1..=self.threads as u64 {
                scope.spawn(move || black_box(gather(&self.table, black_box(seed))));
            }
        });
        let took = t.elapsed().as_secs_f64();
        self.log().push(took);
    }

    /// The samples since the last call.
    pub fn take(&self) -> Samples {
        Samples(std::mem::take(&mut *self.log()))
    }
}

pub struct Samples(Vec<f64>);

impl Samples {
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Wall time the samples took, to be taken off what they interrupted.
    pub fn spent_s(&self) -> f64 {
        self.0.iter().sum()
    }

    /// How many times slower than its undisturbed self the machine ran
    /// while these samples were taken; 1 without samples.
    pub fn slowdown(&self) -> f64 {
        if self.0.is_empty() {
            return 1.0;
        }
        percentile(&self.0, 25.0) / NOMINAL_S
    }

    /// `wall` seconds that contained these samples and `stolen` seconds
    /// of vCPU time taken by the host, as seconds of the undisturbed
    /// reference machine.
    pub fn nominal_seconds(&self, wall: f64, stolen: f64) -> f64 {
        (wall - self.spent_s() - STOLEN_SHARE * stolen) / self.slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_are_scaled_by_the_lower_quartile_after_the_samples_are_taken_off() {
        // Lower quartile = 0.8 of nominal: the machine ran 1.25× fast.
        let q = 0.8 * NOMINAL_S;
        let s = Samples(vec![2.0 * q, q, q, 0.1]);
        assert_eq!(s.count(), 4);
        assert!((s.spent_s() - (4.0 * q + 0.1)).abs() < 1e-12);
        assert!((s.slowdown() - 0.8).abs() < 1e-12);
        assert!((s.nominal_seconds(1.0 + s.spent_s(), 0.0) - 1.25).abs() < 1e-12);
        assert!(
            (s.nominal_seconds(1.0 + s.spent_s() + STOLEN_SHARE, 1.0) - 1.25).abs() < 1e-12
        );
        let none = Samples(Vec::new());
        assert_eq!(none.slowdown(), 1.0);
        assert_eq!(none.nominal_seconds(3.0, 0.0), 3.0);
    }

    #[test]
    fn a_probe_logs_one_duration_per_sample_and_take_empties_the_log() {
        let probe = SpeedProbe::new(2);
        probe.sample();
        probe.sample();
        let samples = probe.take();
        assert_eq!(samples.count(), 2);
        assert!(samples.spent_s() > 0.0 && samples.slowdown() > 0.0);
        assert_eq!(probe.take().count(), 0);
    }
}
