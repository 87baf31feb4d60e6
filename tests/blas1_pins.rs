//! Bit pins of the eight pooled BLAS-1 primitives behind [`KrylovVec`]
//! (`dot`, `norm_sqr`, `axpy`, `scale`, `axpy_norm_sqr`, `multi_dot`,
//! `multi_axpy`, `multi_axpy_norm_sqr`) for every storage the solvers
//! run on: `f64`, `Complex64` and f32-storage dense vectors, plus
//! `DistVec<f64>` on a 4-part split with an empty part.
//!
//! The lengths straddle every dispatch boundary of the kernels (empty,
//! one element, exactly one [`REDUCE_BLOCK`], one block + 1, a few blocks
//! computed inline, and enough blocks to go through the pool), and each
//! digest must come out the same at pool widths 1 and 2. The constants
//! were captured before the kernels were made generic over the stored
//! element type; a refactor of that layer must leave them untouched —
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
    ("f32", 0, 0x8ac123d6f7dce585),
    ("f64", 1, 0x6961dc32849c9cd0),
    ("c64", 1, 0xb87a0e93e565d164),
    ("f32", 1, 0xe60c88c1e136e241),
    ("f64", 2, 0x0bf97bb0501a32e9),
    ("c64", 2, 0x3484cd624c7fe53b),
    ("f32", 2, 0xcd6ddb81214a01dd),
    ("f64", 3, 0xe9ce1bd32f8126d5),
    ("c64", 3, 0xf2030bbaedca98f1),
    ("f32", 3, 0xec13d9aa4b335056),
    ("f64", 4, 0x365d6d4127fba6d5),
    ("c64", 4, 0xf2227ab0d92db3b8),
    ("f32", 4, 0xaed4d23ec3a29c33),
    ("f64", 5, 0x0d4c659f1e67c37a),
    ("c64", 5, 0x18c81a55e4a7e382),
    ("f32", 5, 0x4595b4fa3f12c8b4),
    ("dist-f64", 0, 0xa9e72a665e3e0bcd),
];

fn all_digests() -> Vec<(&'static str, usize, u64)> {
    let mut out = Vec::new();
    for (li, &n) in lengths().iter().enumerate() {
        out.push(("f64", li, digest_primitives(&vec![0.0f64; n])));
        out.push(("c64", li, digest_primitives(&vec![Complex64::ZERO; n])));
        out.push(("f32", li, digest_primitives(&vec![0.0f32; n])));
    }
    // One part below a block, one empty, one on the pool path, one short.
    let lens = [REDUCE_BLOCK + 1, 0, MIN_PAR_BLOCKS * REDUCE_BLOCK + 17, 500];
    out.push(("dist-f64", 0, digest_primitives(&DistVec::<f64>::zeros(&lens))));
    out
}

#[test]
fn blas1_primitives_keep_their_bits() {
    for threads in [1usize, 2] {
        let prev = rayon::set_thread_limit(threads);
        let got = all_digests();
        rayon::set_thread_limit(prev);
        let table: String =
            got.iter().map(|(s, li, d)| format!("    ({s:?}, {li}, {d:#018x}),\n")).collect();
        assert!(got == PINS, "at {threads} thread(s) the digests are:\n{table}");
    }
}
