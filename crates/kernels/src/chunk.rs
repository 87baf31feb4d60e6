//! Centralized chunk-sizing heuristics for the parallel sweeps.
//!
//! Every parallel loop in the workspace used to carry its own copy of the
//! `total / parts, at least min` arithmetic. The copies live here now,
//! expressed through one tunable helper ([`chunk_len`]), so a tuning
//! change propagates everywhere at once.
//!
//! **Determinism contract:** [`par_chunk`] depends only on the problem
//! size — *not* on the thread count. The persistent pool claims chunks
//! dynamically (an atomic cursor), so load balancing no longer needs
//! thread-count-aware splitting; fixing the partition shape is what makes
//! the fused per-chunk reduction partials (matvec+dot) bit-identical for
//! any `LS_NUM_THREADS`.

/// Fixed over-partition factor for thread-independent parallel sweeps:
/// enough chunks that dynamic claiming balances symmetry-skewed sectors
/// (orbit sizes vary per row) on any realistic core count, few enough
/// that the per-chunk claim (one `fetch_add`) stays noise.
pub const PAR_PARTS: usize = 512;

/// Minimum rows per chunk of a parallel sweep: below this the per-chunk
/// bookkeeping (scratch checkout, cursor claim) is no longer amortized.
pub const MIN_PAR_ROWS: usize = 64;

/// Rows the shared-memory batched engine processes per generation block:
/// large enough to amortize the per-block generation and bulk ranking,
/// small enough that the block's SoA emission arrays stay cache-resident.
/// The distributed producers block on their own, smaller constant
/// (`GEN_BLOCK` in `ls-dist`'s `matvec/pc.rs`), not on this one.
pub const BATCH_ROWS: usize = 1024;

/// The one tunable helper: splits `total` items into at most `parts`
/// chunks of at least `min_len` items each, returning the chunk length.
#[inline]
pub fn chunk_len(total: usize, parts: usize, min_len: usize) -> usize {
    total.div_ceil(parts.max(1)).max(min_len.max(1))
}

/// Output-chunk length for the shared-memory parallel sweeps.
///
/// Thread-count independent (see the module docs): the partition shape is
/// a function of `total` alone, so per-chunk reduction partials combine
/// into the same tree no matter how many workers execute the sweep.
#[inline]
pub fn par_chunk(total: usize) -> usize {
    chunk_len(total, PAR_PARTS, MIN_PAR_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_covers_total() {
        for total in [0usize, 1, 63, 64, 65, 1000, 1 << 20] {
            for parts in [1usize, 2, 8, 512] {
                for min_len in [1usize, 64, 256] {
                    let len = chunk_len(total, parts, min_len);
                    assert!(len >= min_len);
                    // Enough chunks of this length to cover the work.
                    assert!(len * parts >= total || len >= min_len);
                    if total > 0 {
                        assert!(total.div_ceil(len) <= parts.max(total));
                    }
                }
            }
        }
    }

    #[test]
    fn par_chunk_is_thread_independent_and_bounded() {
        for total in [1usize, 100, 4096, 1 << 22] {
            let c = par_chunk(total);
            assert!(c >= MIN_PAR_ROWS);
            assert!(total.div_ceil(c) <= PAR_PARTS);
        }
        // Explicitly: no thread-count input exists; same total, same chunk.
        assert_eq!(par_chunk(1 << 20), par_chunk(1 << 20));
    }
}
