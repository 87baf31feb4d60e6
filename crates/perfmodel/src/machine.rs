//! Machine constants and primitive cost functions.

/// A simple LogGP-style machine description.
///
/// Times are seconds, bandwidths bytes/second. Per-core rates describe one
/// core of the modelled machine.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Cores per node (Snellius "thin": 128).
    pub cores_per_node: usize,
    /// Effective time of one Benes-network application inside the row
    /// kernel (amortized: includes channel bookkeeping).
    pub t_benes: f64,
    /// Time of one destination-side element: `stateToIndex` (a hash-index
    /// probe confirmed against the sorted states) plus the atomic
    /// accumulate.
    pub t_lookup: f64,
    /// Time to test one enumeration candidate (representative check with
    /// early exit).
    pub t_candidate: f64,
    /// Aggregate per-node memory bandwidth available to streaming
    /// passes (histogram/partition/merge) in bytes/s.
    pub mem_bw: f64,
    /// Per-message network latency (one-sided put/get initiation).
    pub alpha: f64,
    /// Peak per-node injection bandwidth.
    pub bw_peak: f64,
    /// Message size at which the effective bandwidth reaches half of
    /// peak (models the small-message penalty the paper discusses in
    /// Sec. 6.2).
    pub msg_half_size: f64,
    /// Fraction of communication time that is *not* hidden behind
    /// computation in the producer/consumer pipeline. Fitted once against
    /// the paper's measured 51× speedup (42 spins, 64 nodes); everything
    /// else is predicted.
    pub comm_exposure: f64,
}

impl MachineModel {
    /// Snellius constants with compute rates anchored to the paper's
    /// single-node measurements (see crate docs).
    pub fn snellius_paper_calibrated() -> Self {
        // Anchors (42 spins, dim = 3 204 236 779, 84 off-diagonal
        // channels, |G| = 168):
        //   producers: 424 s/core  => t_row = 424*128/dim = 16.94 µs
        //              t_benes = t_row / (84*168) = 1.20 ns
        //   consumers: 80 s/core   => t_lookup = 80*128/(dim*84) = 38.1 ns
        //   enumeration: 407.5 s on one node over C(42,21) candidates
        //              => t_candidate = 407.5*128/5.3826e11 = 96.9 ns
        Self {
            cores_per_node: 128,
            t_benes: 1.20e-9,
            t_lookup: 38.1e-9,
            t_candidate: 96.9e-9,
            mem_bw: 100e9,
            alpha: 2.0e-6,
            bw_peak: 12.5e9, // 100 Gb/s HDR100
            msg_half_size: 2048.0,
            comm_exposure: 0.30,
        }
    }

    /// Builds a model from a calibration of *this* machine's kernels
    /// (used to sanity-check that shapes are robust to the constants).
    pub fn from_calibration(c: &crate::calibrate::Calibration) -> Self {
        Self {
            cores_per_node: 128,
            t_benes: c.t_benes,
            t_lookup: c.t_lookup,
            t_candidate: c.t_candidate,
            mem_bw: c.memcpy_bw * 32.0, // single-core stream -> node estimate
            ..Self::snellius_paper_calibrated()
        }
    }

    /// Effective bandwidth for messages of `msg_bytes`:
    /// `bw_peak * m / (m + msg_half_size)`.
    pub fn eff_bandwidth(&self, msg_bytes: f64) -> f64 {
        let m = msg_bytes.max(1.0);
        self.bw_peak * m / (m + self.msg_half_size)
    }

    /// Time to move `total_bytes` from one node in messages of
    /// `msg_bytes`: latency per message plus the bandwidth term.
    pub fn transfer_time(&self, total_bytes: f64, msg_bytes: f64) -> f64 {
        if total_bytes <= 0.0 {
            return 0.0;
        }
        let msgs = (total_bytes / msg_bytes.max(1.0)).ceil();
        msgs * self.alpha + total_bytes / self.eff_bandwidth(msg_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_curve_saturates() {
        let m = MachineModel::snellius_paper_calibrated();
        assert!(m.eff_bandwidth(64.0) < 0.05 * m.bw_peak);
        assert!((m.eff_bandwidth(2048.0) - 0.5 * m.bw_peak).abs() < 1e-3 * m.bw_peak);
        assert!(m.eff_bandwidth((1u64 << 20) as f64) > 0.99 * m.bw_peak);
        // Monotone:
        let mut last = 0.0;
        for p in 0..24 {
            let bw = m.eff_bandwidth((1u64 << p) as f64);
            assert!(bw >= last);
            last = bw;
        }
    }

    #[test]
    fn transfer_time_components() {
        let m = MachineModel::snellius_paper_calibrated();
        // Tiny transfer: latency-dominated.
        let t_small = m.transfer_time(8.0, 8.0);
        assert!(t_small >= m.alpha);
        // Huge transfer in big messages: bandwidth-dominated.
        let t_big = m.transfer_time(1e9, 1e6);
        assert!((t_big - 1e9 / m.eff_bandwidth(1e6)).abs() / t_big < 0.05);
        assert_eq!(m.transfer_time(0.0, 1024.0), 0.0);
    }

    #[test]
    fn anchors_recovered() {
        // The constants must reproduce the paper's single-node numbers.
        let m = MachineModel::snellius_paper_calibrated();
        let dim = 3_204_236_779f64;
        let t_row = 84.0 * 168.0 * m.t_benes;
        let produce_per_core = dim * t_row / 128.0;
        assert!((produce_per_core - 424.0).abs() < 10.0, "{produce_per_core}");
        let consume_per_core = dim * 84.0 * m.t_lookup / 128.0;
        assert!((consume_per_core - 80.0).abs() < 3.0, "{consume_per_core}");
        let candidates = 538_257_874_440f64; // C(42, 21)
        let enum_1node = candidates * m.t_candidate / 128.0;
        assert!((enum_1node - 407.5).abs() < 10.0, "{enum_1node}");
    }
}
