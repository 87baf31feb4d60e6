//! Bit pins of the pooled BLAS-1 primitives behind [`KrylovVec`] for
//! every storage the solvers run on: `f64` and `Complex64` dense
//! vectors, plus `DistVec<f64>` on a 4-part split with an empty part.
//! [`PINS`] covers the eight original primitives (`dot`, `norm_sqr`,
//! `axpy`, `scale`, `axpy_norm_sqr`, `multi_dot`, `multi_axpy`,
//! `multi_axpy_norm_sqr`), [`FUSED_PINS`] the two added with the
//! three-sweep Lanczos step (`multi_axpy_dot`, `combine_in_place`).
//!
//! The lengths straddle every dispatch boundary of the kernels (empty,
//! one element, exactly one [`REDUCE_BLOCK`], one block + 1, a few blocks
//! computed inline, and enough blocks to go through the pool), and each
//! digest must come out the same at pool widths 1 and 2. The [`PINS`]
//! constants were captured before the kernels were made generic over the
//! stored element type, the [`FUSED_PINS`] ones when those primitives
//! were introduced; a refactor of that layer must leave both untouched —
//! any change means a floating-point operation moved.
//!
//! Everything lives in one `#[test]`: `rayon::set_thread_limit` is
//! process-global.

use exact_diag::eigen::op::{MIN_PAR_BLOCKS, REDUCE_BLOCK};
use exact_diag::eigen::KrylovVec;
use exact_diag::kernels::{hash64_01, Complex64, Scalar};
use exact_diag::runtime::DistVec;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn real(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn scalar<S: Scalar>(&mut self, x: S) {
        for lane in &x.to_reals()[..S::N_REALS] {
            self.real(*lane);
        }
    }

    fn vector<V: KrylovVec>(&mut self, v: &V) {
        v.visit(&mut |x| self.scalar(x));
    }
}

/// Hash-driven value in `[-0.5, 0.5)`.
fn unit(seed: u64, i: usize, lane: u64) -> f64 {
    let h = hash64_01(seed.wrapping_mul(0x9e37_79b9).wrapping_add(2 * i as u64 + lane));
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

fn scalar<S: Scalar>(re: f64, im: f64) -> S {
    S::from_reals([re, im])
}

/// A vector in `zero`'s storage and layout, filled from stream `seed`.
fn filled<V: KrylovVec>(zero: &V, seed: u64) -> V {
    let mut v = zero.clone();
    v.fill_with(&mut |i| scalar(unit(seed, i, 0), unit(seed, i, 1)));
    v
}

/// Runs all eight primitives on vectors shaped like `zero` and digests
/// every returned scalar and every updated vector.
fn digest_primitives<V: KrylovVec>(zero: &V) -> u64 {
    let x = filled(zero, 1);
    let y = filled(zero, 2);
    let vs: Vec<V> = (3..6).map(|seed| filled(zero, seed)).collect();
    let mut d = Digest::new();

    d.scalar(x.dot(&y));
    d.real(x.norm_sqr());

    let mut u = y.clone();
    u.axpy(scalar(0.37, -0.21), &x);
    d.vector(&u);
    u.scale(0.73);
    d.vector(&u);

    let mut u = y.clone();
    d.real(u.axpy_norm_sqr(scalar(-0.11, 0.43), &x));
    d.vector(&u);

    let coeffs = V::multi_dot(&vs, &y);
    for &c in &coeffs {
        d.scalar(c);
    }
    let coeffs: Vec<V::Scalar> = coeffs.into_iter().map(|c| -c).collect();

    let mut w = y.clone();
    V::multi_axpy(&coeffs, &vs, &mut w);
    d.vector(&w);

    let mut w = y.clone();
    d.real(V::multi_axpy_norm_sqr(&coeffs, &vs, &mut w));
    d.vector(&w);
    d.0
}

/// `multi_axpy_dot` and `combine_in_place` on vectors shaped like
/// `zero`: the returned coefficients, the updated vector and every
/// vector of the compressed set, kept ones included.
fn digest_fused_primitives<V: KrylovVec>(zero: &V) -> u64 {
    let y = filled(zero, 2);
    let mut vs: Vec<V> = (3..8).map(|seed| filled(zero, seed)).collect();
    let coeffs: Vec<V::Scalar> =
        (0..vs.len()).map(|b| scalar(unit(9, b, 0), unit(9, b, 1))).collect();
    let mut d = Digest::new();

    let mut w = y.clone();
    for c in V::multi_axpy_dot(&coeffs, &vs, &mut w) {
        d.scalar(c);
    }
    d.vector(&w);

    let rows: Vec<Vec<V::Scalar>> = (10..12)
        .map(|seed| (0..vs.len()).map(|j| scalar(unit(seed, j, 0), unit(seed, j, 1))).collect())
        .collect();
    V::combine_in_place(&rows, &mut vs);
    for v in &vs {
        d.vector(v);
    }
    d.0
}

fn lengths() -> [usize; 6] {
    [
        0,
        1,
        REDUCE_BLOCK,
        REDUCE_BLOCK + 1,
        3 * REDUCE_BLOCK + 41,
        MIN_PAR_BLOCKS * REDUCE_BLOCK + 17,
    ]
}

/// `(storage, length index, digest)`, captured at the commit before the
/// BLAS-1 layer became generic over the stored element type.
const PINS: &[(&str, usize, u64)] = &[
    ("f64", 0, 0xafb8afd4d1aea905),
    ("c64", 0, 0xd1184b5054c3f185),
    ("f64", 1, 0x6961dc32849c9cd0),
    ("c64", 1, 0xb87a0e93e565d164),
    ("f64", 2, 0x0bf97bb0501a32e9),
    ("c64", 2, 0x3484cd624c7fe53b),
    ("f64", 3, 0xe9ce1bd32f8126d5),
    ("c64", 3, 0xf2030bbaedca98f1),
    ("f64", 4, 0x365d6d4127fba6d5),
    ("c64", 4, 0xf2227ab0d92db3b8),
    ("f64", 5, 0x0d4c659f1e67c37a),
    ("c64", 5, 0x18c81a55e4a7e382),
    ("dist-f64", 0, 0xa9e72a665e3e0bcd),
];

/// [`digest_fused_primitives`] on the storages and lengths of [`PINS`].
const FUSED_PINS: &[(&str, usize, u64)] = &[
    ("f64", 0, 0x40d69e0cf0f65c45),
    ("c64", 0, 0xf14b84b8290b8965),
    ("f64", 1, 0xa9feb462575afac7),
    ("c64", 1, 0xa306442add0531a2),
    ("f64", 2, 0x4f3bf328d274bcd4),
    ("c64", 2, 0x47bc053a712d2e34),
    ("f64", 3, 0x2aae129e78a95581),
    ("c64", 3, 0x326eda3e4f532ada),
    ("f64", 4, 0x4b2508a7b84a5e68),
    ("c64", 4, 0x3eb93d705a5ab70a),
    ("f64", 5, 0x16d889011a08e217),
    ("c64", 5, 0xb465ff3618fd2acf),
    ("dist-f64", 0, 0xc6e66c75ff751335),
];

/// One digest per storage and length: the eight original primitives,
/// or the two fused ones.
fn all_digests(fused: bool) -> Vec<(&'static str, usize, u64)> {
    fn digest<V: KrylovVec>(fused: bool, zero: &V) -> u64 {
        if fused {
            digest_fused_primitives(zero)
        } else {
            digest_primitives(zero)
        }
    }
    let mut out = Vec::new();
    for (li, &n) in lengths().iter().enumerate() {
        out.push(("f64", li, digest(fused, &vec![0.0f64; n])));
        out.push(("c64", li, digest(fused, &vec![Complex64::ZERO; n])));
    }
    // One part below a block, one empty, one on the pool path, one short.
    let lens = [REDUCE_BLOCK + 1, 0, MIN_PAR_BLOCKS * REDUCE_BLOCK + 17, 500];
    out.push(("dist-f64", 0, digest(fused, &DistVec::<f64>::zeros(&lens))));
    out
}

#[test]
fn blas1_primitives_keep_their_bits() {
    for threads in [1usize, 2] {
        for (fused, pins) in [(false, PINS), (true, FUSED_PINS)] {
            let prev = rayon::set_thread_limit(threads);
            let got = all_digests(fused);
            rayon::set_thread_limit(prev);
            let table: String = got
                .iter()
                .map(|(s, li, d)| format!("    ({s:?}, {li}, {d:#018x}),\n"))
                .collect();
            assert!(
                got == pins,
                "at {threads} thread(s) the digests (fused: {fused}) are:\n{table}"
            );
        }
    }
}
