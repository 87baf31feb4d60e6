//! Symmetric tridiagonal eigensolver: implicit-shift QL (a from-scratch
//! port of the classic EISPACK `tql2` algorithm).
//!
//! Lanczos projects the big operator onto a Krylov subspace where it is
//! tridiagonal; this solver finishes the job. It is exact-arithmetic-free
//! and `O(n^2)` per eigenvalue with eigenvectors, which is negligible next
//! to the matrix-vector products.

/// Computes all eigenvalues (ascending) and, optionally, eigenvectors of
/// the symmetric tridiagonal matrix with diagonal `d` and sub-diagonal `e`
/// (`e.len() == d.len() - 1`).
///
/// Returns `(eigenvalues, eigenvectors)` where `eigenvectors[k]` is the
/// k-th eigenvector (of length `n`) when requested.
pub fn tridiag_eigh(
    d: &[f64],
    e: &[f64],
    want_vectors: bool,
) -> (Vec<f64>, Option<Vec<Vec<f64>>>) {
    let (values, vectors) = ql(d, e, if want_vectors { 0 } else { d.len() });
    (values, want_vectors.then_some(vectors))
}

/// Eigenvalues (ascending) of the same matrix and the last component of
/// each eigenvector — all a Lanczos residual estimate `|β·y[n-1]|` reads —
/// in `O(n^2)`: only the last row of the rotations is accumulated. Bit
/// for bit the values and last rows of [`tridiag_eigh`].
pub(crate) fn tridiag_eigh_last(d: &[f64], e: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (values, rows) = ql(d, e, d.len().saturating_sub(1));
    (values, rows.into_iter().map(|v| v[0]).collect())
}

/// `tql2` accumulating rows `first..n` of the eigenvector matrix. Returns
/// the eigenvalues ascending and, for each, its components in those rows.
fn ql(d: &[f64], e: &[f64], first: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = d.len();
    assert!(n > 0, "empty matrix");
    assert_eq!(e.len(), n.saturating_sub(1));
    let mut d = d.to_vec();
    // Shifted copy of e with a trailing zero, as tql2 expects.
    let mut ee = vec![0.0f64; n];
    ee[..n - 1].copy_from_slice(e);
    // z: rows `first..n` of the identity (row-major, `rows × n`); the
    // rotations accumulate into it.
    let rows = n - first;
    let mut z = vec![0.0; rows * n];
    for r in 0..rows {
        z[r * n + first + r] = 1.0;
    }

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find small sub-diagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if ee[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter < 50, "tql2 failed to converge");
            // Form implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * ee[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + ee[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * ee[i];
                let b = c * ee[i];
                r = f.hypot(g);
                ee[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: drop the rotation and retry.
                    d[i + 1] -= p;
                    ee[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for k in 0..rows {
                    f = z[k * n + i + 1];
                    z[k * n + i + 1] = s * z[k * n + i] + c * f;
                    z[k * n + i] = c * z[k * n + i] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            ee[l] = g;
            ee[m] = 0.0;
        }
    }

    // Sort ascending (with vectors).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let vectors = order.iter().map(|&col| (0..rows).map(|row| z[row * n + col]).collect());
    (values, vectors.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_eigenpairs(d: &[f64], e: &[f64]) {
        let n = d.len();
        let (vals, vecs) = tridiag_eigh(d, e, true);
        let vecs = vecs.unwrap();
        assert_eq!(vals.len(), n);
        // Ascending:
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Residuals ||T v - λ v||:
        for (lam, v) in vals.iter().zip(&vecs) {
            let mut tv = vec![0.0; n];
            for i in 0..n {
                tv[i] = d[i] * v[i];
                if i > 0 {
                    tv[i] += e[i - 1] * v[i - 1];
                }
                if i + 1 < n {
                    tv[i] += e[i] * v[i + 1];
                }
            }
            let res: f64 = tv
                .iter()
                .zip(v)
                .map(|(a, b)| (a - lam * b) * (a - lam * b))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-9, "residual {res} for eigenvalue {lam}");
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
        // Trace preserved:
        let tr_d: f64 = d.iter().sum();
        let tr_v: f64 = vals.iter().sum();
        assert!((tr_d - tr_v).abs() < 1e-8 * (1.0 + tr_d.abs()));
    }

    #[test]
    fn toeplitz_has_known_spectrum() {
        // d = 0, e = 1: eigenvalues are 2 cos(kπ/(n+1)), k = 1..n.
        let n = 12;
        let d = vec![0.0; n];
        let e = vec![1.0; n - 1];
        let (vals, _) = tridiag_eigh(&d, &e, false);
        let mut expect: Vec<f64> = (1..=n)
            .map(|k| 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
            .collect();
        expect.sort_by(f64::total_cmp);
        for (a, b) in vals.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn single_element() {
        let (vals, vecs) = tridiag_eigh(&[3.5], &[], true);
        assert_eq!(vals, vec![3.5]);
        assert_eq!(vecs.unwrap(), vec![vec![1.0]]);
    }

    #[test]
    fn two_by_two_exact() {
        // [[a, b], [b, c]]: eigenvalues (a+c)/2 ± sqrt(((a-c)/2)^2 + b^2).
        let (a, b, c) = (1.0, 2.0, -1.0);
        let (vals, _) = tridiag_eigh(&[a, c], &[b], false);
        let mid = (a + c) / 2.0;
        let rad = (((a - c) / 2.0f64).powi(2) + b * b).sqrt();
        assert!((vals[0] - (mid - rad)).abs() < 1e-12);
        assert!((vals[1] - (mid + rad)).abs() < 1e-12);
    }

    #[test]
    fn random_matrices_have_consistent_eigenpairs() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = ls_kernels::hash64_01(seed.wrapping_add(1));
            (seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        for n in [2usize, 3, 5, 17, 40] {
            let d: Vec<f64> = (0..n).map(|_| next() * 3.0).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| next()).collect();
            check_eigenpairs(&d, &e);
        }
    }

    #[test]
    fn last_row_matches_the_full_solve_bit_for_bit() {
        let d: Vec<f64> = (0..23).map(|i| ((i * 7) % 11) as f64 - 4.5).collect();
        let e: Vec<f64> = (0..22).map(|i| 0.3 + ((i * 5) % 7) as f64 * 0.1).collect();
        let (vals, vecs) = tridiag_eigh(&d, &e, true);
        let (last_vals, last) = tridiag_eigh_last(&d, &e);
        assert_eq!(vals, last_vals);
        let full_last: Vec<f64> = vecs.unwrap().iter().map(|v| v[22]).collect();
        assert_eq!(full_last, last);
    }

    #[test]
    fn zero_offdiagonal_returns_sorted_diagonal() {
        let d = vec![3.0, -1.0, 2.0];
        let e = vec![0.0, 0.0];
        let (vals, _) = tridiag_eigh(&d, &e, false);
        assert_eq!(vals, vec![-1.0, 2.0, 3.0]);
    }
}
