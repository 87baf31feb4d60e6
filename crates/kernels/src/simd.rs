//! The benchmark replay's segment gather, and the host's vector level.
//!
//! No kernel in the workspace has an explicit SIMD path or dispatches on
//! the CPU, so every product computes the same bits on every host.
//! [`accumulate_segment_f64`] is the scalar gather over the packed
//! segments of `SymmetrizedOperator::apply_off_diag_block_u1_ranked_channels`,
//! which the repo benchmark's replay times; no product calls it. [`level`]
//! reports what the CPU offers, for the benchmark's host fingerprint.

use std::sync::OnceLock;

/// The widest vector instruction set the host offers, as [`level`]
/// reports it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// Nothing past the build's baseline.
    Scalar,
    /// AVX2 (x86-64 with runtime-detected AVX2 support).
    Avx2,
}

/// The host's vector level (cached; detects the CPU once). A fingerprint
/// only: no kernel dispatches on it.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| if avx2_available() { SimdLevel::Avx2 } else { SimdLevel::Scalar })
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// One channel segment of a packed emission block, f64:
/// `yb[emit[t] >> 32] += a * x[emit[t] as u32 as usize]` for every
/// emission, in ascending `t` order.
pub fn accumulate_segment_f64(yb: &mut [f64], x: &[f64], emit: &[u64], a: f64) {
    for &e in emit {
        yb[(e >> 32) as usize] += a * x[e as u32 as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_level_is_cached_and_valid() {
        let l = level();
        assert_eq!(l, level());
        assert!(matches!(l, SimdLevel::Scalar | SimdLevel::Avx2));
    }
}
