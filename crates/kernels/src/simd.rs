//! The benchmark replay's segment gather, the host's vector level, and
//! the check that the host runs the build's CPU baseline.
//!
//! No kernel in the workspace has an explicit SIMD path or dispatches on
//! the CPU, so every product computes the same bits on every host. The
//! whole workspace is compiled for x86-64-v3 (`.cargo/config.toml`), and
//! [`require_baseline`] is how the library's entry points refuse a host
//! without it, naming what is missing, instead of dying on an illegal
//! instruction. [`accumulate_segment_f64`] is the scalar gather over the
//! packed segments of
//! `SymmetrizedOperator::apply_off_diag_block_u1_ranked_channels`, which
//! the repo benchmark's replay times; no product calls it. [`level`]
//! reports what the CPU offers, for the benchmark's host fingerprint.

use std::sync::OnceLock;

/// The widest vector instruction set the host offers, as [`level`]
/// reports it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// No AVX2: a host below the build's x86-64-v3 baseline.
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

/// The features of the x86-64-v3 level (the x86-64 psABI's definition,
/// v2's included) that the host must offer, as `(name, offered)`. LAHF /
/// SAHF in 64-bit mode, v2's last feature, has no run-time detection in
/// `std` and is absent from no x86-64-v2 CPU.
#[cfg(target_arch = "x86_64")]
fn baseline_features() -> [(&'static str, bool); 15] {
    macro_rules! offered {
        ($($name:tt),*) => { [$(($name, std::arch::is_x86_feature_detected!($name))),*] };
    }
    offered!(
        "cmpxchg16b",
        "popcnt",
        "sse3",
        "sse4.1",
        "sse4.2",
        "ssse3",
        "avx",
        "avx2",
        "bmi1",
        "bmi2",
        "f16c",
        "fma",
        "lzcnt",
        "movbe",
        "xsave"
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn baseline_features() -> [(&'static str, bool); 0] {
    []
}

/// A host that lacks features of the CPU baseline the workspace is
/// compiled for: the features, by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissingCpuFeatures(pub Vec<&'static str>);

impl std::fmt::Display for MissingCpuFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "this build targets x86-64-v3, and the CPU lacks {}", self.0.join(", "))
    }
}

impl std::error::Error for MissingCpuFeatures {}

/// Does the host offer every feature of the build's CPU baseline? The
/// entry points of the library (`Cluster::new`, `SpinBasis::build`, the
/// multiprocess supervisor) call it before any kernel runs. Code that runs
/// before them is compiled for the same baseline, so this narrows the
/// window for an illegal instruction; it does not close it.
pub fn require_baseline() -> Result<(), MissingCpuFeatures> {
    let missing: Vec<&'static str> =
        baseline_features().iter().filter(|f| !f.1).map(|f| f.0).collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(MissingCpuFeatures(missing))
    }
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

    /// The feature list is x86-64-v3's definition, the one the build's
    /// `target-cpu` enables, and the host running the tests offers it.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_baseline_check_lists_x86_64_v3() {
        let names: Vec<&str> = baseline_features().iter().map(|f| f.0).collect();
        let compiled_for = [
            ("cmpxchg16b", cfg!(target_feature = "cmpxchg16b")),
            ("popcnt", cfg!(target_feature = "popcnt")),
            ("sse3", cfg!(target_feature = "sse3")),
            ("sse4.1", cfg!(target_feature = "sse4.1")),
            ("sse4.2", cfg!(target_feature = "sse4.2")),
            ("ssse3", cfg!(target_feature = "ssse3")),
            ("avx", cfg!(target_feature = "avx")),
            ("avx2", cfg!(target_feature = "avx2")),
            ("bmi1", cfg!(target_feature = "bmi1")),
            ("bmi2", cfg!(target_feature = "bmi2")),
            ("f16c", cfg!(target_feature = "f16c")),
            ("fma", cfg!(target_feature = "fma")),
            ("lzcnt", cfg!(target_feature = "lzcnt")),
            ("movbe", cfg!(target_feature = "movbe")),
            ("xsave", cfg!(target_feature = "xsave")),
        ];
        assert_eq!(names, compiled_for.map(|f| f.0));
        assert!(compiled_for.iter().all(|f| f.1), "not built for x86-64-v3: {compiled_for:?}");
        assert_eq!(require_baseline(), Ok(()));
        let missing = MissingCpuFeatures(vec!["avx2", "fma"]);
        assert_eq!(
            missing.to_string(),
            "this build targets x86-64-v3, and the CPU lacks avx2, fma"
        );
    }
}
