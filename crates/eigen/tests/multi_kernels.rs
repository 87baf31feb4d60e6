//! The tiled and fused multi-vector kernels against the compositions
//! they replace, to the bit: grouping vectors (8 / 4 / 1 for inner
//! products, 4 / 1 for updates), walking a block in tiles, fusing an
//! update with the next inner products and compressing in place move no
//! floating-point operation.
//!
//! * `multi_dot[b]` is `dot(vs[b], w)`;
//! * `multi_axpy` is one `axpy` per vector, in order;
//! * `multi_axpy_dot` is `multi_axpy`, then `multi_dot`;
//! * `combine_in_place` row `r` is `multi_axpy` of that row into a zero
//!   vector, and the vectors beyond the rows are left alone.
//!
//! Lengths straddle a tile of the block loops in `ls_eigen::op` (1024
//! elements), a [`REDUCE_BLOCK`] and the pool threshold; vector counts
//! cover every group remainder. One `#[test]`: `rayon::set_thread_limit` is
//! process-global.

use ls_eigen::op::{MIN_PAR_BLOCKS, REDUCE_BLOCK};
use ls_eigen::KrylovVec;
use ls_kernels::{hash64_01, Complex64, Scalar};
use ls_runtime::DistVec;

const LENGTHS: [usize; 8] = [
    0,
    1,
    1023,
    1025,
    REDUCE_BLOCK - 1,
    REDUCE_BLOCK + 1,
    2 * REDUCE_BLOCK + 1024,
    MIN_PAR_BLOCKS * REDUCE_BLOCK + 17,
];

const VECTORS: [usize; 8] = [0, 1, 3, 4, 5, 8, 9, 17];

/// Hash-driven value in `[-0.5, 0.5)`.
fn unit(seed: u64, i: usize, lane: u64) -> f64 {
    let h = hash64_01(seed.wrapping_mul(0x9e37_79b9).wrapping_add(2 * i as u64 + lane));
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

fn filled<V: KrylovVec>(zero: &V, seed: u64) -> V {
    let mut v = zero.clone();
    v.fill_with(&mut |i| V::Scalar::from_reals([unit(seed, i, 0), unit(seed, i, 1)]));
    v
}

fn bits<V: KrylovVec>(v: &V) -> Vec<u64> {
    let mut out = Vec::new();
    v.visit(&mut |x| {
        out.extend(x.to_reals()[..V::Scalar::N_REALS].iter().map(|r| r.to_bits()))
    });
    out
}

fn scalar_bits<S: Scalar>(xs: &[S]) -> Vec<u64> {
    xs.iter().flat_map(|x| x.to_reals()).map(f64::to_bits).collect()
}

fn check<V: KrylovVec>(zero: &V, m: usize, what: &str) {
    let w = filled(zero, 1);
    let vs: Vec<V> = (0..m as u64).map(|b| filled(zero, 2 + b)).collect();
    let coeffs: Vec<V::Scalar> =
        (0..m).map(|b| V::Scalar::from_reals([unit(99, b, 0), unit(99, b, 1)])).collect();

    let dots = V::multi_dot(&vs, &w);
    let each: Vec<V::Scalar> = vs.iter().map(|v| v.dot(&w)).collect();
    assert_eq!(scalar_bits(&dots), scalar_bits(&each), "{what}: multi_dot");

    let mut updated = w.clone();
    V::multi_axpy(&coeffs, &vs, &mut updated);
    let mut one_by_one = w.clone();
    for (c, v) in coeffs.iter().zip(&vs) {
        one_by_one.axpy(*c, v);
    }
    assert_eq!(bits(&updated), bits(&one_by_one), "{what}: multi_axpy");

    let mut fused = w.clone();
    let fused_dots = V::multi_axpy_dot(&coeffs, &vs, &mut fused);
    assert_eq!(bits(&fused), bits(&updated), "{what}: multi_axpy_dot, the update");
    assert_eq!(
        scalar_bits(&fused_dots),
        scalar_bits(&V::multi_dot(&vs, &updated)),
        "{what}: multi_axpy_dot, the inner products"
    );

    // Row 0 is all zeros: every product is ±0.0 and the sum must come
    // out as the +0.0 an update of a zero vector leaves.
    let rows: Vec<Vec<V::Scalar>> = (0..m.div_ceil(2))
        .map(|r| {
            let scale = if r == 0 { 0.0 } else { 1.0 };
            (0..m)
                .map(|j| {
                    let seed = 7 + r as u64;
                    V::Scalar::from_reals([scale * unit(seed, j, 0), scale * unit(seed, j, 1)])
                })
                .collect()
        })
        .collect();
    let mut combined = vs.clone();
    V::combine_in_place(&rows, &mut combined);
    for (r, row) in rows.iter().enumerate() {
        let mut expect = zero.clone();
        V::multi_axpy(row, &vs, &mut expect);
        assert_eq!(bits(&combined[r]), bits(&expect), "{what}: combine_in_place, row {r}");
    }
    if let Some(first) = rows.first().map(|_| bits(&combined[0])) {
        assert!(first.iter().all(|&b| b == 0), "{what}: a -0.0 product must land as +0.0");
    }
    for (kept, v) in combined.iter().zip(&vs).skip(rows.len()) {
        assert_eq!(bits(kept), bits(v), "{what}: combine_in_place beyond the rows");
    }
}

#[test]
fn tiled_and_fused_kernels_are_the_old_compositions_bit_for_bit() {
    for threads in [1usize, 2] {
        let prev = rayon::set_thread_limit(threads);
        for &n in &LENGTHS {
            for &m in &VECTORS {
                let what =
                    |storage: &str| format!("{storage}, n = {n}, m = {m}, {threads} thread(s)");
                check(&vec![0.0f64; n], m, &what("f64"));
                check(&vec![Complex64::ZERO; n], m, &what("c64"));
                // Four parts, one empty, one holding most of the vector.
                let lens = [n / 5, 0, n - n / 5 - n / 7, n / 7];
                check(&DistVec::<f64>::zeros(&lens), m, &what("dist-f64"));
            }
        }
        rayon::set_thread_limit(prev);
    }
}
