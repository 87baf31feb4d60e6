//! The workspace's one explicit SIMD kernel, next to its scalar twin.
//!
//! The paper's throughput claim is that the batched matvec engine is
//! bandwidth-bound; what scalar code leaves on the table there is latency
//! in the gather-heavy amplitude accumulation of the fused closed-form
//! product.
//! [`accumulate_segment_f64`] gets an AVX2 path for it, selected once per
//! process by CPU feature detection ([`level`]). It is the only kernel
//! whose vector path a benchmark workload pays for (`u1_chain22`); the
//! state filters and bulk ranking that once had AVX2 twins are plain
//! Rust, and the `CHANGES.md` entry that removed those twins records
//! what each measured.
//!
//! The AVX2 path is **bit-exact** against [`accumulate_segment_f64_scalar`]
//! — not merely close: it vectorizes only the IEEE-exact lane multiplies
//! and keeps every addition scalar and in the scalar order, so the
//! workspace determinism contract (bit-identical across thread counts and
//! backends) holds on every machine, with or without AVX2.

use std::sync::OnceLock;

/// The instruction set [`accumulate_segment_f64`] dispatches to, decided
/// once per process by runtime CPU feature detection.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// Scalar twin only.
    Scalar,
    /// AVX2 path (x86-64 with runtime-detected AVX2 support).
    Avx2,
}

/// The active dispatch level (cached; detects the CPU once).
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

/// One pull segment of the batched matvec, f64 specialization:
/// `yb[emit[t] >> 32] += a * x[emit[t] as u32 as usize]` for every packed
/// emission, in ascending `t` order. The AVX2 path gathers four `x`
/// lanes and multiplies them in one vector op (IEEE-identical to four
/// scalar multiplies), then applies the four additions scalarly in the
/// same ascending order — so the result is bit-for-bit the scalar
/// twin's, preserving the workspace determinism contract the scaling
/// bench asserts (`to_bits` equality across thread counts and modes).
///
/// # Panics
/// Debug builds assert every packed source/destination index is in
/// bounds; release builds rely on the emission builder's invariant.
pub fn accumulate_segment_f64(yb: &mut [f64], x: &[f64], emit: &[u64], a: f64) {
    debug_assert!(emit
        .iter()
        .all(|&e| ((e >> 32) as usize) < yb.len() && (e as u32 as usize) < x.len()));
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: dispatched only when AVX2 was detected at startup; the
        // emission builder guarantees in-bounds packed indices.
        unsafe { accumulate_segment_f64_avx2(yb, x, emit, a) };
        return;
    }
    accumulate_segment_f64_scalar(yb, x, emit, a);
}

/// Scalar twin of [`accumulate_segment_f64`].
pub fn accumulate_segment_f64_scalar(yb: &mut [f64], x: &[f64], emit: &[u64], a: f64) {
    for &e in emit {
        yb[(e >> 32) as usize] += a * x[e as u32 as usize];
    }
}

/// # Safety
/// Requires AVX2; every packed index in `emit` must be in bounds for
/// `x` (low 32 bits) and `yb` (high 32 bits).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_segment_f64_avx2(yb: &mut [f64], x: &[f64], emit: &[u64], a: f64) {
    use std::arch::x86_64::*;
    let va = _mm256_set1_pd(a);
    let idx_mask = _mm256_set1_epi64x(0xffff_ffff);
    let mut chunks = emit.chunks_exact(4);
    for ch in &mut chunks {
        let e = _mm256_loadu_si256(ch.as_ptr() as *const __m256i);
        let src = _mm256_and_si256(e, idx_mask);
        let xv = _mm256_i64gather_pd::<8>(x.as_ptr(), src);
        let prod = _mm256_mul_pd(xv, va);
        let mut p = [0.0f64; 4];
        _mm256_storeu_pd(p.as_mut_ptr(), prod);
        // The additions stay scalar and in ascending emission order —
        // identical rounding to the scalar twin.
        for (l, &pe) in ch.iter().enumerate() {
            *yb.get_unchecked_mut((pe >> 32) as usize) += p[l];
        }
    }
    accumulate_segment_f64_scalar(yb, x, chunks.remainder(), a);
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

    #[test]
    fn accumulate_segment_matches_scalar_bitwise() {
        let x: Vec<f64> = (0..512).map(|i| ((i * 29 % 101) as f64 - 50.0) * 0.01).collect();
        // Strictly increasing destinations within the segment (the
        // emission builder's invariant), arbitrary sources.
        let emit: Vec<u64> = (0..399u64)
            .map(|t| {
                let dest = t * 2 + (t % 3);
                let src = (t * 57) % 512;
                dest << 32 | src
            })
            .collect();
        let mut y1 = vec![0.25f64; 1024];
        let mut y2 = y1.clone();
        accumulate_segment_f64(&mut y1, &x, &emit, -0.731);
        accumulate_segment_f64_scalar(&mut y2, &x, &emit, -0.731);
        for (a, b) in y1.iter().zip(&y2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
