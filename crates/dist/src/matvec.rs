//! Distributed matrix-vector products `y = H x` over the hashed basis
//! distribution (paper Sec. 5.3).
//!
//! One product and one oracle, both push-style (each locale scatters
//! contributions generated from its own rows):
//!
//! * the product — the producer/consumer pipeline of Sec. 5.3 (see
//!   [`pc`]), run by `KrylovOp::apply` on a [`crate::DistOp`], which owns
//!   the engine and its channels. Producers stream `(key, coefficient)`
//!   pairs — the key a sector rank where the parts select, the state
//!   elsewhere — through fixed-capacity buffer channels while the owners
//!   concurrently resolve and accumulate, overlapping generation with
//!   communication. [`PcOptions::capacity`] is the batch size; batching
//!   *without* overlap is `ls_baseline::matvec_alltoall`.
//! * [`matvec_naive`] — the oracle: every off-locale contribution is one
//!   remote atomic update. Maximal communication granularity; the baseline
//!   the paper's buffering improves on and the reference the `ls-dist` and
//!   `ls-baseline` tests compare against. In process only.
//!
//! Plus one pull-style baseline, [`matvec_gather`] (see [`gather`]):
//! every locale replicates `x` through one-sided window reads and fills
//! its own rows locally — the `O(dim)`-bytes-per-product pattern the
//! buffered formulations beat. It is kept as the floor the push path's
//! local work is measured against and as the solve mode through which
//! the chaos tests exercise the checksummed window read path.
//!
//! Under `LS_INTEGRITY=full` the pipeline additionally carries an
//! ABFT checksum vector (`AbftTally`): the sum of contributions
//! generated for each destination must match the destination's realized
//! part sum, catching endpoint corruption the wire CRCs cannot.

pub mod gather;
pub mod pc;

use crate::basis::DistSpinBasis;
use ls_basis::SymmetrizedOperator;
use ls_kernels::Scalar;
use ls_runtime::{collective, AtomicAccumWindow, Cluster, DistVec};
use std::sync::Mutex;

pub use gather::{matvec_gather, GatherOp};
pub use pc::PcOptions;

/// Relative tolerance of the ABFT checksum comparison, scaled by the
/// destination's absolute contribution mass. The realized part sum and
/// the tallied contribution sum accumulate in different orders, so they
/// drift apart by rounding — `n · ε · mass` for `n` contributions —
/// while an actual corruption perturbs a *single* contribution, which
/// for any physical operator is enormous next to `1e-10 · mass`.
const ABFT_REL_TOL: f64 = 1e-10;

/// Checksum-vector tally for algorithm-based fault tolerance over the
/// producer/consumer matvec.
///
/// `y` is zeroed before a product and only ever *accumulated* into, so
/// for every destination locale `ℓ` the sum of `y.part(ℓ)` must equal
/// the sum of all contributions generated for `ℓ` — regardless of
/// delivery path (diagonal, local fast path, staged batches) or
/// accumulation order. Producers keep a private running
/// `[Σ re, Σ im, Σ(|re|+|im|)]` per destination ([`LocalTally`]) and
/// [`merge`] once when they finish; [`verify`] then compares the realized part sums against
/// the tallies. A mismatch means contributions were lost, duplicated or
/// altered *between generation and accumulation* — endpoint corruption
/// the wire CRCs cannot see, because the bytes in flight were exactly
/// the (already wrong) bytes handed to the transport. A violation is
/// fail-stop like a frame CRC failure
/// ([`ls_runtime::collective::raise_corruption`]).
///
/// [`merge`]: AbftTally::merge
/// [`verify`]: AbftTally::verify
pub(crate) struct AbftTally {
    /// Per destination locale: `[Σ re, Σ im, Σ(|re|+|im|)]` over every
    /// contribution generated for it *by this process*.
    sums: Mutex<Vec<[f64; 3]>>,
}

impl AbftTally {
    pub(crate) fn new(n_locales: usize) -> Self {
        Self { sums: Mutex::new(vec![[0.0; 3]; n_locales]) }
    }

    /// A fresh per-producer local tally (merged once at the end, so the
    /// per-contribution cost is three adds on private memory).
    pub(crate) fn local(&self) -> LocalTally {
        LocalTally { lanes: vec![[[0.0; 3]; LANES]; self.sums.lock().unwrap().len()] }
    }

    /// Folds a producer-local tally into the shared per-product sums.
    pub(crate) fn merge(&self, local: &LocalTally) {
        let mut sums = self.sums.lock().unwrap();
        for (t, lanes) in sums.iter_mut().zip(&local.lanes) {
            for l in lanes {
                t[0] += l[0];
                t[1] += l[1];
                t[2] += l[2];
            }
        }
    }

    /// Compares every destination's realized part sum against the
    /// tallied contribution sums once the product is complete.
    ///
    /// A collective: one allreduce carries the tallies this process's
    /// producers kept plus the realized sums of the parts it hosts,
    /// after which **every process evaluates every locale's checksum
    /// over identical reduced lanes** — so on a violation all of them
    /// reach [`collective::raise_corruption`] at the same program point
    /// and unwind in lockstep (no rank is left blocking in a collective
    /// against peers that already bailed).
    pub(crate) fn verify<S: Scalar>(&self, y: &DistVec<S>) {
        let sums = self.sums.lock().unwrap();
        // Five lanes per destination: the tallied [Σre, Σim, mass] plus
        // the realized part sum (contributed by whoever hosts the
        // destination; everyone else's lanes stay zero).
        let mut lanes = vec![0.0f64; sums.len() * 5];
        for (l, t) in sums.iter().enumerate() {
            lanes[l * 5..l * 5 + 3].copy_from_slice(t);
        }
        for l in collective::hosted(sums.len()) {
            lanes[l * 5 + 3..l * 5 + 5].copy_from_slice(&part_sum(y.part(l)));
        }
        for (l, t) in collective::allreduce(lanes).chunks_exact(5).enumerate() {
            if let Some(detail) = checksum_mismatch(t[0], t[1], t[2], t[3], t[4]) {
                collective::raise_corruption(l, "abft", &detail);
            }
        }
    }
}

/// Independent partial sums a [`LocalTally`] keeps per destination.
const LANES: usize = 4;

/// A producer's private half of an [`AbftTally`]: per destination
/// `[Σ re, Σ im, Σ(|re|+|im|)]` in [`LANES`] lanes that consecutive
/// contributions take in turn, so that no add waits on the one before.
/// The lanes fold at [`AbftTally::merge`].
pub(crate) struct LocalTally {
    lanes: Vec<[[f64; 3]; LANES]>,
}

impl LocalTally {
    /// Notes the contributions `value(k)` for `k` in `0..len`, all
    /// destined for locale `dest` and asked for in that order: four a
    /// step, the `k`-th in lane `k % LANES`, in one loop the caller can
    /// fuse its own work into (the value closure may add it, too).
    #[inline(always)]
    pub(crate) fn note<S: Scalar>(
        &mut self,
        dest: usize,
        len: usize,
        mut value: impl FnMut(usize) -> S,
    ) {
        let mut lanes = self.lanes[dest];
        let note = |t: &mut [f64; 3], v: S| {
            let [re, im] = v.to_reals();
            t[0] += re;
            if S::N_REALS == 1 {
                // A real scalar's imaginary lane is +0.0, and adding it
                // changes neither sum: both stay bit for bit what they are.
                t[2] += re.abs();
            } else {
                t[1] += im;
                // L1 mass: an upper bound on the magnitude, sqrt-free.
                t[2] += re.abs() + im.abs();
            }
        };
        let steps = len / LANES;
        for step in 0..steps {
            for (j, t) in lanes.iter_mut().enumerate() {
                note(t, value(step * LANES + j));
            }
        }
        // A loop of LANES steps, not of the remainder's, so that every
        // lane is a fixed place and the lanes stay in registers.
        let done = steps * LANES;
        for (j, t) in lanes.iter_mut().enumerate() {
            if done + j < len {
                note(t, value(done + j));
            }
        }
        self.lanes[dest] = lanes;
    }
}

/// Lane-wise sum of one part (the realized half of the ABFT invariant),
/// in [`LANES`] partial sums that consecutive elements take in turn, as a
/// [`LocalTally`] keeps its own: one chain of dependent adds through the
/// part would be the longest serial step of a product's check.
fn part_sum<S: Scalar>(part: &[S]) -> [f64; 2] {
    let mut lanes = [[0.0f64; 2]; LANES];
    let (steps, rest) = part.as_chunks::<LANES>();
    for step in steps {
        for (acc, v) in lanes.iter_mut().zip(step) {
            let [re, im] = v.to_reals();
            acc[0] += re;
            acc[1] += im;
        }
    }
    for (acc, v) in lanes.iter_mut().zip(rest) {
        let [re, im] = v.to_reals();
        acc[0] += re;
        acc[1] += im;
    }
    lanes.iter().fold([0.0; 2], |sum, acc| [sum[0] + acc[0], sum[1] + acc[1]])
}

/// The checksum comparison itself: `None` when the realized sum matches
/// the tallied sum within [`ABFT_REL_TOL`] of the contribution mass.
fn checksum_mismatch(sre: f64, sim: f64, mass: f64, yre: f64, yim: f64) -> Option<String> {
    let tol = ABFT_REL_TOL * mass.max(1.0);
    let dre = (sre - yre).abs();
    let dim = (sim - yim).abs();
    // Written to *fail* on NaN: a NaN contribution sum must not pass
    // the comparison vacuously.
    if dre <= tol && dim <= tol {
        None
    } else {
        Some(format!(
            "checksum-vector mismatch: |Σ contributions − Σ y| = ({dre:.3e}, {dim:.3e}) \
             exceeds {tol:.3e}"
        ))
    }
}

/// Checks that `x`/`y` are distributed exactly like `basis`.
///
/// # Panics
/// Panics with a per-locale diagnostic on any mismatch; in a real
/// distributed run a silent mismatch would be memory corruption.
pub(crate) fn validate_shapes<S: Scalar>(
    cluster: &Cluster,
    basis: &DistSpinBasis,
    x: &DistVec<S>,
    y: &DistVec<S>,
) {
    let locales = cluster.n_locales();
    assert_eq!(
        basis.n_locales(),
        locales,
        "basis distributed over {} locales, cluster has {locales}",
        basis.n_locales()
    );
    assert_eq!(x.n_locales(), locales, "x distributed over the wrong locale count");
    assert_eq!(y.n_locales(), locales, "y distributed over the wrong locale count");
    for l in 0..locales {
        assert_eq!(
            x.part(l).len(),
            basis.local_dim(l),
            "x length on locale {l} does not match the basis"
        );
        assert_eq!(
            y.part(l).len(),
            basis.local_dim(l),
            "y length on locale {l} does not match the basis"
        );
    }
}

/// `y = H x` with one remote atomic accumulation per off-locale matrix
/// element.
///
/// In process only: remote accumulation does not cross processes, so
/// under `LS_TRANSPORT=multiprocess` the first add into a part another
/// rank hosts panics, naming the locale and the transport.
pub fn matvec_naive<S: Scalar>(
    cluster: &Cluster,
    op: &SymmetrizedOperator<S>,
    basis: &DistSpinBasis,
    x: &DistVec<S>,
    y: &mut DistVec<S>,
) {
    validate_shapes(cluster, basis, x, y);
    for part in y.parts_mut() {
        part.fill(S::ZERO);
    }
    let win = AtomicAccumWindow::new(y);
    cluster.run(|ctx| {
        let me = ctx.locale();
        let states = basis.states().part(me);
        let orbits = basis.orbit_sizes().part(me);
        let x_local = x.part(me);
        let mut row = Vec::with_capacity(op.max_row_entries());
        for (j, (&alpha, &orbit)) in states.iter().zip(orbits).enumerate() {
            let xj = x_local[j];
            let d = op.diagonal(alpha);
            if d != S::ZERO {
                win.fetch_add(me, j, d * xj);
            }
            row.clear();
            op.apply_off_diag(alpha, orbit, &mut row);
            for &(rep, amp) in &row {
                let dest = basis.owner(rep);
                let i = basis.index_on(dest, rep).expect("state missing from the basis");
                win.fetch_add(dest, i, amp * xj);
                if dest != me {
                    ctx.stats().record_remote_atomic();
                }
            }
        }
        ctx.barrier_wait();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::enumerate_dist;
    use ls_basis::{SectorSpec, SpinBasis};
    use ls_expr::builders::heisenberg;
    use ls_kernels::Complex64;
    use ls_runtime::ClusterSpec;
    use ls_symmetry::lattice::{chain_bonds, chain_group};

    fn setup(
        n: usize,
    ) -> (SectorSpec, SymmetrizedOperator<f64>, SpinBasis, Vec<f64>, Vec<f64>) {
        let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector.clone());
        let x: Vec<f64> = (0..basis.dim()).map(|i| ((i as f64) * 0.37).sin()).collect();
        // Serial push reference.
        let mut y = vec![0.0; basis.dim()];
        let mut row = Vec::new();
        for j in 0..basis.dim() {
            let alpha = basis.state(j);
            y[j] += op.diagonal(alpha) * x[j];
            row.clear();
            op.apply_off_diag(alpha, basis.orbit_sizes()[j], &mut row);
            for &(rep, amp) in &row {
                y[basis.index_of(rep).unwrap()] += amp * x[j];
            }
        }
        (sector, op, basis, x, y)
    }

    /// [`LocalTally::note`] against the three sums of every value, the
    /// `k`-th of a call in lane `k % 4`, bit for bit: 0 to 11 values a call
    /// (two whole steps and every remainder), two calls a destination,
    /// each starting again at lane 0.
    fn check_tally_lanes<S: Scalar>(values: &[S]) {
        for len in 0..=values.len() {
            let mut local = AbftTally::new(2).local();
            let mut expect = [[[0.0f64; 3]; LANES]; 2];
            for dest in [1, 1, 0] {
                local.note(dest, len, |k| values[k]);
                for (k, v) in values[..len].iter().enumerate() {
                    let ([re, im], t) = (v.to_reals(), &mut expect[dest][k % LANES]);
                    t[0] += re;
                    t[1] += im;
                    t[2] += re.abs() + im.abs();
                }
            }
            let bits = |lanes: &[[[f64; 3]; LANES]]| {
                lanes.iter().flatten().flatten().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&local.lanes), bits(&expect), "len={len}");
        }
    }

    #[test]
    fn a_tally_notes_the_k_th_value_in_lane_k_mod_4() {
        let reals: Vec<f64> = (0..11).map(|k| (k as f64 * 0.37).sin()).collect();
        let mut with_zeros = reals.clone();
        with_zeros[3] = -0.0;
        with_zeros[6] = 0.0;
        check_tally_lanes(&reals);
        check_tally_lanes(&with_zeros);
        let complex: Vec<Complex64> = reals
            .iter()
            .enumerate()
            .map(|(k, &re)| Complex64::new(re, -0.1 * k as f64))
            .collect();
        check_tally_lanes(&complex);
    }

    #[test]
    fn abft_tally_accepts_clean_sums_and_flags_corruption() {
        // Clean: tallied contributions match the realized part sums.
        let tally = AbftTally::new(2);
        let mut local = tally.local();
        local.note(0, 2, |k| [1.5f64, -0.25][k]);
        local.note(1, 1, |_| 2.0f64);
        tally.merge(&local);
        let y = DistVec::from_parts(vec![vec![1.0f64, 0.25], vec![2.0]]);
        tally.verify(&y); // must not panic
                          // Corrupt: one element of y silently changed after accumulation.
        let bad = DistVec::from_parts(vec![vec![1.0f64, 0.25 + 1e-6], vec![2.0]]);
        let err = std::panic::catch_unwind(|| tally.verify(&bad)).unwrap_err();
        let err =
            err.downcast_ref::<ls_runtime::TransportError>().expect("typed corruption payload");
        match err {
            ls_runtime::TransportError::Corruption { peer, frame, .. } => {
                assert_eq!(*peer, 0);
                assert_eq!(frame, "abft");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A NaN contribution sum must fail, never pass vacuously.
        let nan_tally = AbftTally::new(1);
        let mut local = nan_tally.local();
        local.note(0, 1, |_| f64::NAN);
        nan_tally.merge(&local);
        let y1 = DistVec::from_parts(vec![vec![0.0f64]]);
        assert!(std::panic::catch_unwind(|| nan_tally.verify(&y1)).is_err());
    }

    #[test]
    fn naive_matches_serial() {
        let (sector, op, basis, x, y_ref) = setup(12);
        for locales in [1usize, 3] {
            let cluster = Cluster::new(ClusterSpec::new(locales, 1));
            let dist = enumerate_dist(&cluster, &sector, 2);
            let mut xd = DistVec::<f64>::zeros(&dist.states().lens());
            for l in 0..locales {
                for (i, &s) in dist.states().part(l).iter().enumerate() {
                    xd.part_mut(l)[i] = x[basis.index_of(s).unwrap()];
                }
            }
            let mut yd = DistVec::<f64>::zeros(&dist.states().lens());
            matvec_naive(&cluster, &op, &dist, &xd, &mut yd);
            for l in 0..locales {
                for (i, &s) in dist.states().part(l).iter().enumerate() {
                    let expect = y_ref[basis.index_of(s).unwrap()];
                    assert!((yd.part(l)[i] - expect).abs() < 1e-11, "locales={locales}");
                }
            }
        }
    }
}
