//! The Lanczos eigen-recurrence — one loop, two plans — with thick
//! restarts and checkpoint/restart.
//!
//! Keeping every Krylov vector makes a long solve on a large sector
//! memory-bound by the *solver* (`m · dim` scalars), not the matrix —
//! backwards for a code whose point is reaching dimensions where memory
//! binds. Thick restart (Wu & Simon; what XDiag / `lattice-symmetries`
//! ship) caps the basis: run a cycle of the recurrence, diagonalize the
//! projected matrix, keep the best `keep` Ritz pairs plus the trailing
//! residual direction, and expand again from there. `run_plan` is that
//! loop, and the only one: [`thick_restart_lanczos_in`] plans cycles cut
//! to a `k + extra` vector budget ([`RestartOptions`]);
//! [`crate::lanczos::lanczos_smallest_in`] plans the same cycles, or —
//! when its iteration cap fits its budget — a single cycle that keeps
//! every vector, which is unrestarted Lanczos.
//!
//! After a restart the projected operator is **arrowhead + tridiagonal**:
//! locked Ritz values `θ_i` on the diagonal, a border `s_i = β·y_i[m-1]`
//! coupling each locked vector to the chain seed, then the new `α/β`
//! chain. Every cycle — first or restarted — tests its wanted pairs after
//! every step and ends the step they pass. The test reads only the Ritz
//! values and the last component of each projected eigenvector, so it
//! runs on a tridiagonal form: a restarted cycle first reduces its locked
//! arrowhead to a tridiagonal block ending on the chain seed (Householder
//! on the `l` locked indices, once per cycle), which leaves the chain, the
//! values and the last components as they are; then each step is one QL
//! ([`crate::tridiag`]) accumulating a single row, `O(m²)`. The Ritz
//! vectors are built once, where the cycle ends: by the same QL while
//! nothing is locked, by the dense Jacobi solve ([`crate::jacobi`]) of the
//! arrowhead thereafter.
//!
//! What "pass" means depends on what is wanted. Ritz vectors are as good
//! as their residual estimates `r_j = |β·y_j[m-1]|`, so with
//! `want_vectors` each of the `k` wanted pairs must reach `r_i ≤ tol`
//! relative to the spectral scale (the **residual rule**). Eigenvalues
//! alone converge twice as fast: a Ritz value with residual `r` lies
//! within `r²/δ` of an eigenvalue, `δ` the gap to the rest of the
//! spectrum (Kato–Temple; Parlett, *The Symmetric Eigenvalue Problem*,
//! ch. 11). Without vectors the wanted set is bounded as one cluster —
//! so a degenerate cluster inside it needs no detection — by the **gap
//! rule** `‖R‖²/δ̂ ≤ tol·max(1, |θ_i|)` for every wanted `θ_i`, with
//! `‖R‖² = Σ_{j<k} r_j²` and `δ̂ = min_{j≥k}(θ_j − r_j) − θ_{k-1}`, the
//! distance from the cluster to the nearest unwanted Ritz value less
//! that value's residual. `δ̂` estimates the gap and does not bound it:
//! an eigenvalue no Ritz value has resolved yet can sit inside it. So the
//! unwanted Ritz value that sets `δ̂` must be resolved itself, its
//! residual no wider than `δ̂`; a wider one is an average over spectrum
//! the chain has not explored — one step past a restart that locked no
//! unwanted pair (`keep = k`, the tightest budgets), the only unwanted
//! Ritz value is such an average, and a gap read from it let eigenvalue
//! errors reach 5 × `tol`. Where `δ̂ ≤ 0` (an unwanted Ritz value may
//! belong to the cluster), where it is not resolved, or where no
//! unwanted Ritz value exists, the residual rule applies.
//! `tests/restart_oracle.rs` holds the rule to `tol` against the dense
//! spectrum.
//!
//! A breakdown — exact (`β ≤ 1e-13`) or to tolerance (`β` so small that
//! *every* Ritz pair passes the residual rule) — ends the per-step test
//! for the cycle: vanishing residuals on a finished block say nothing
//! about copies of a degenerate eigenvalue in blocks not entered yet, so
//! the chain fills to its cap and the boundary logic decides (breakdown
//! count above `k`, or a forced restart).
//!
//! Each step is the blocked-CGS2 pipeline of [`crate::lanczos`] (fused
//! [`KrylovOp::apply_dot`], then three sweeps over the basis) against
//! [`KrylovVec`]/[`KrylovOp`] — one implementation serves `Vec<S>` and
//! the locale-partitioned `DistVec<S>`, and a distributed solve stays
//! distributed.
//!
//! The vectors stay where they are. A step *moves* its normalized output
//! into the basis and takes any other vector as the next output buffer
//! (a product overwrites its output in full); a restart compresses the
//! cycle basis **in place** ([`KrylovVec::combine_in_place`]: the `keep`
//! Ritz vectors are written over the first `keep` basis vectors in one
//! sweep) and puts the vectors it no longer needs on a spare list the
//! next cycle's chain grows out of; Ritz-vector assembly at the end is
//! the same call on the then-dead basis. So a solve allocates its
//! vectors during the first cycle, never holds more than the chain + 1
//! of them, and allocates none afterwards
//! (`tests/no_alloc_after_first_cycle.rs`).
//!
//! Long cluster runs get **checkpoint/restart**
//! ([`CheckpointPolicy`]): at restart boundaries the compressed state
//! (locked basis + chain seed + projected coefficients + restart/RNG
//! counters) is written atomically in the versioned, checksummed format
//! of [`crate::checkpoint`]. A killed solve resumed from its checkpoint
//! is **bit-identical** to the uninterrupted one — same eigenvalues,
//! same Ritz vectors, to the last bit, at any `LS_NUM_THREADS`.

use crate::checkpoint::{
    load_latest_checkpoint, save_checkpoint, save_checkpoint_rotated, CheckpointState,
};
use crate::health::{raise, HealthMonitor};
use crate::jacobi::eigh_real;
use crate::lanczos::{cgs2_beta, random_fill, LanczosResult, LanczosResultIn};
use crate::tridiag::{tridiag_eigh, tridiag_eigh_last};
use crate::vector::{KrylovOp, KrylovVec};
use crate::LinearOp;
use ls_kernels::Scalar;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Exact-breakdown threshold.
const BREAKDOWN: f64 = 1e-13;

/// When and where to checkpoint a thick-restart solve.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint file. Writes are atomic (`<path>.tmp.<pid>` + rename); the
    /// file is overwritten as the solve progresses and left in place on
    /// completion (delete it to force a fresh start).
    pub path: PathBuf,
    /// Write every `every` completed restart cycles (≥ 1).
    pub every: usize,
    /// Resume from `path` when it exists (default). The checkpoint must
    /// match the solve (same `k`, budget, storage kind, scalar width and
    /// part layout) — anything else panics with the typed
    /// [`crate::record::FileError`], because a silently
    /// mismatched resume could not be bit-identical.
    pub resume: bool,
    /// Generations to retain (default 1). With `keep == 1`, `path` holds
    /// the single checkpoint file (the historical format). With
    /// `keep > 1`, `path` holds a crash-consistent manifest and the last
    /// `keep` generations live in sibling `<filename>.g<cycle>` files
    /// ([`crate::checkpoint::save_checkpoint_rotated`]): a crash mid-write
    /// strands at most the newest generation, and resumes fall back to
    /// the newest *valid* one — still bit-identical, because resuming
    /// from any cycle reproduces the same trajectory.
    pub keep: usize,
}

impl CheckpointPolicy {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), every: 1, resume: true, keep: 1 }
    }
}

/// Options for [`thick_restart_lanczos_in`].
///
/// Defaults ([`RestartOptions::new`]): `extra = max(2k, 24)` (total
/// budget `k + extra` vectors), `max_restarts = 400`, `tol = 1e-10`,
/// `seed = 0x5eed`, no vectors, no checkpointing.
#[derive(Clone, Debug)]
pub struct RestartOptions {
    /// Number of wanted (smallest) eigenpairs.
    pub k: usize,
    /// Memory headroom beyond `k`: the solve holds at most `k + extra`
    /// Krylov-state vectors at any instant (locked Ritz vectors, chain
    /// and workspace). Must be ≥ `k + 3` so a restart cycle can make
    /// progress. The plan still sets `keep` vectors of it aside for a
    /// compression that now runs in place, so the solve peaks at
    /// `k + extra - keep` ([`LanczosResultIn::peak_retained`]).
    pub extra: usize,
    /// Cap on completed restart cycles, **cumulative across resumes**
    /// (the counter is stored in the checkpoint): a resumed solve
    /// continues toward the same limit. Hitting it returns the current
    /// Ritz estimates with `converged = false`.
    pub max_restarts: usize,
    /// Convergence threshold. With `want_vectors`, on each wanted pair's
    /// Ritz residual estimate `|β·y_i[m-1]|` relative to the spectral
    /// scale. Without, on the eigenvalue error estimate of the wanted set
    /// (the gap rule of [`crate::restart`]), relative to
    /// `max(1, |θ_i|)`, and on the residual estimates only where no
    /// positive gap to the unwanted Ritz values is known.
    pub tol: f64,
    /// Seed for the start vector and breakdown re-seeds. Each draw uses
    /// a counter-derived stream, so resumed runs redraw identically.
    pub seed: u64,
    /// Compute Ritz vectors?
    pub want_vectors: bool,
    /// Checkpoint/restart policy (off by default).
    pub checkpoint: Option<CheckpointPolicy>,
}

impl RestartOptions {
    pub fn new(k: usize) -> Self {
        Self {
            k,
            extra: (2 * k).max(24),
            max_restarts: 400,
            tol: 1e-10,
            seed: 0x5eed,
            want_vectors: false,
            checkpoint: None,
        }
    }
}

impl Default for RestartOptions {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Splits the total vector budget `b = k + extra` into the locked count
/// per restart (`keep`) and the cycle expansion cap (`m`):
/// `m = b - keep - 1`, sized for a compression that held `m` old +
/// `keep` new + 1 residual vectors at once. Compression is in place now
/// and the solve peaks at `m + 1`; handing the `keep` vectors this
/// leaves unused to the chain (`m = b - 1`) changes every restarted
/// trajectory, so it is a change of its own. Panics if `b < 2k + 3`: no
/// restart cycle could make progress.
pub(crate) fn split_budget(k: usize, b: usize) -> (usize, usize) {
    assert!(
        b >= 2 * k + 3,
        "restart budget too small: k + extra = {b} vectors for k = {k}, but need \
         extra >= k + 3, i.e. at least {}",
        2 * k + 3
    );
    let keep = (k + ((b - k) / 4).max(1)).min((b - 3) / 2).max(k);
    let m = b - keep - 1;
    debug_assert!(m > keep);
    (keep, m)
}

/// Draws the `draws`-th random vector of the solve. Every draw seeds its
/// own RNG from `(seed, draw index)`, so a resumed run reproduces the
/// exact stream without serializing RNG internals.
fn draw_random<V: KrylovVec>(v: &mut V, seed: u64, draws: &mut u64) {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(*draws + 1));
    random_fill(v, &mut rng);
    *draws += 1;
}

/// Dense symmetric projected matrix: locked arrowhead (diagonal `θ_i`,
/// border `s_i` in column `l`) followed by the tridiagonal chain.
fn projected_dense(diag: &[f64], border: &[f64], offdiag: &[f64], l: usize) -> Vec<f64> {
    let m = diag.len();
    let mut t = vec![0.0f64; m * m];
    for (i, &d) in diag.iter().enumerate() {
        t[i * m + i] = d;
    }
    for (i, &s) in border.iter().enumerate().take(l) {
        t[i * m + l] = s;
        t[l * m + i] = s;
    }
    for (idx, &beta) in offdiag.iter().enumerate() {
        let j = l + idx;
        t[j * m + j + 1] = beta;
        t[(j + 1) * m + j] = beta;
    }
    t
}

/// The locked arrowhead of a cycle — diagonal `theta`, `border` coupling
/// each locked vector to the chain seed — in tridiagonal form: an
/// orthogonal similarity on the locked indices alone (Householder, from
/// the seed's row up) leaves the seed and every chain index fixed, so the
/// projected matrix turns tridiagonal with the same eigenvalues and the
/// same last eigenvector components. Returns the block's diagonal and
/// its couplings `e[i]` between `i` and `i + 1`, the last one to the seed.
fn arrowhead_tridiagonal(theta: &[f64], border: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let l = theta.len();
    let n = l + 1;
    // The seed's own diagonal, the chain's first α, is left out: the
    // similarity never touches it.
    let mut a = projected_dense(&[theta, &[0.0]].concat(), border, &[], l);
    for i in (2..n).rev() {
        // Row i, columns 0..i: reflect x = a[i][..i] onto head·e_{i-1}.
        let x: Vec<f64> = a[i * n..i * n + i].to_vec();
        let sigma: f64 = x[..i - 1].iter().map(|v| v * v).sum();
        if sigma == 0.0 {
            continue;
        }
        let norm = (sigma + x[i - 1] * x[i - 1]).sqrt();
        let head = if x[i - 1] > 0.0 { -norm } else { norm };
        let mut v = x;
        v[i - 1] -= head;
        let h = v.iter().map(|t| t * t).sum::<f64>() / 2.0;
        // A ← (I − v vᵀ/h) A (I − v vᵀ/h) on the leading i × i block.
        let p: Vec<f64> =
            (0..i).map(|r| (0..i).map(|c| a[r * n + c] * v[c]).sum::<f64>() / h).collect();
        let half = v.iter().zip(&p).map(|(vi, pi)| vi * pi).sum::<f64>() / (2.0 * h);
        let q: Vec<f64> = p.iter().zip(&v).map(|(pi, vi)| pi - half * vi).collect();
        for r in 0..i {
            for c in 0..i {
                a[r * n + c] -= v[r] * q[c] + q[r] * v[c];
            }
        }
        for c in 0..i {
            let x = if c == i - 1 { head } else { 0.0 };
            a[i * n + c] = x;
            a[c * n + i] = x;
        }
    }
    ((0..l).map(|i| a[i * n + i]).collect(), (0..l).map(|i| a[(i + 1) * n + i]).collect())
}

/// Eigen-decomposition of the projected matrix: tridiagonal QL while
/// nothing is locked, dense Jacobi on the arrowhead thereafter.
fn projected_eigh<V>(st: &CheckpointState<V>, offdiag: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
    if st.retained == 0 {
        let (vals, vecs) = tridiag_eigh(&st.diag, offdiag, true);
        (vals, vecs.unwrap())
    } else {
        eigh_real(&projected_dense(&st.diag, &st.border, offdiag, st.retained), st.diag.len())
    }
}

/// Ritz residual estimates `|β·y_j[m-1]|` of every pair `yvecs` of a
/// projected solve.
fn ritz_residuals(yvecs: &[Vec<f64>], beta: f64) -> Vec<f64> {
    yvecs.iter().map(|y| (beta * y[y.len() - 1]).abs()).collect()
}

/// The residual rule: every estimate in `resid` within `tol` of the
/// spectral scale, the largest `|θ|` of the projected solve.
fn residuals_pass(cvals: &[f64], resid: &[f64], tol: f64) -> bool {
    let scale = cvals.iter().fold(0.0f64, |acc, v| acc.max(v.abs())).max(1e-300);
    resid.iter().all(|r| *r <= tol * scale)
}

/// Whether the `k` wanted pairs of a projected solve (ascending `cvals`,
/// residual estimates `resid` of every pair) have converged: by the gap
/// rule when only eigenvalues are wanted and the gap `δ̂` is positive and
/// resolved, by the residual rule otherwise (module docs).
fn wanted_converged(cvals: &[f64], resid: &[f64], k: usize, tol: f64, gap_rule: bool) -> bool {
    // The unwanted Ritz value whose residual interval reaches lowest.
    let lowest_reach =
        |&a: &usize, &b: &usize| (cvals[a] - resid[a]).total_cmp(&(cvals[b] - resid[b]));
    let nearest = (k..cvals.len()).min_by(lowest_reach);
    match nearest.map(|j| (cvals[j] - resid[j] - cvals[k - 1], resid[j])) {
        Some((gap, r)) if gap_rule && gap > 0.0 && r <= gap => {
            let block: f64 = resid[..k].iter().map(|r| r * r).sum();
            let least =
                cvals[..k].iter().fold(f64::INFINITY, |acc, t| acc.min(t.abs().max(1.0)));
            block / gap <= tol * least
        }
        _ => residuals_pass(cvals, &resid[..k], tol),
    }
}

/// Compresses a cycle basis onto the pairs `yvecs`, in place:
/// `basis[i]` becomes the Ritz vector `Σ_j yvecs[i][j]·basis[j]` as the
/// combination comes out (compression locks them unnormalized), `basis`
/// shrinks to those, and the vectors it no longer needs come back — their
/// content is dead, their storage is not.
fn compress<V: KrylovVec>(basis: &mut Vec<V>, yvecs: &[Vec<f64>]) -> Vec<V> {
    let row = |yv: &Vec<f64>| yv.iter().map(|&t| V::Scalar::from_re(t)).collect();
    let rows: Vec<Vec<V::Scalar>> = yvecs.iter().map(row).collect();
    V::combine_in_place(&rows, basis);
    basis.split_off(yvecs.len())
}

/// The state of a solve that has done nothing yet: no locked pairs, the
/// normalized first draw as chain seed.
fn fresh_state<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    opts: &RestartOptions,
) -> CheckpointState<V> {
    let mut draws = 0;
    let mut v0 = op.new_vec();
    draw_random(&mut v0, opts.seed, &mut draws);
    let nrm = v0.norm();
    v0.scale(1.0 / nrm);
    CheckpointState {
        k: opts.k,
        budget: opts.k + opts.extra,
        restarts: 0,
        draws,
        breakdowns: 0,
        retained: 0,
        diag: Vec::new(),
        border: Vec::new(),
        basis: vec![v0],
    }
}

/// The newest valid state under `cp`, provided it was written by this
/// solve: resuming under another `k` or budget could not be
/// bit-identical.
fn checkpointed_state<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    cp: &CheckpointPolicy,
    opts: &RestartOptions,
) -> Result<CheckpointState<V>, String> {
    let st = load_latest_checkpoint::<V, Op>(&cp.path, op)
        .map_err(|e| format!("cannot resume from checkpoint {}: {e}", cp.path.display()))?;
    let (k, budget) = (opts.k, opts.k + opts.extra);
    if st.k != k || st.budget != budget {
        return Err(format!(
            "checkpoint {} was written for k = {}, budget = {} (this solve: k = {k}, budget = \
             {budget}); resuming under different parameters would not be bit-identical",
            cp.path.display(),
            st.k,
            st.budget,
        ));
    }
    Ok(st)
}

/// Shared-memory wrapper over [`thick_restart_lanczos_in`] with
/// `V = Vec<S>`.
pub fn thick_restart_lanczos<S: Scalar, Op: LinearOp<S> + ?Sized>(
    op: &Op,
    opts: &RestartOptions,
) -> LanczosResult<S> {
    thick_restart_lanczos_in::<Vec<S>, Op>(op, opts)
}

/// Computes the `k` smallest eigenpairs of a Hermitian operator while
/// holding at most `k + extra` Krylov-state vectors, restarting the
/// recurrence through the Ritz compression of the projected matrix.
///
/// Ritz vectors come back in the solver's storage. An operator smaller
/// than the budget's cycle exhausts its space in the first one, exactly.
///
/// # Panics
/// Panics if `k == 0`, `k > op.dim()`, `extra < k + 3`, the operator
/// reports itself non-Hermitian, or resuming from a corrupt/mismatched
/// checkpoint (the typed [`crate::record::FileError`] is in
/// the panic message).
///
/// A detected corruption ends the solve with a typed payload instead: a
/// [`crate::SolverHealthError`] from the health checks, or a
/// [`ls_runtime::TransportError::Corruption`] from the operator (the
/// distributed product's checksum tally). Nothing is retried inside;
/// call again with the same checkpoint policy to resume from the newest
/// checkpoint, bit-identically. A multiprocess job exits 115 on either
/// and the supervisor's relaunch does the same.
pub fn thick_restart_lanczos_in<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    opts: &RestartOptions,
) -> LanczosResultIn<V> {
    let (keep, m) = split_budget(opts.k, opts.k + opts.extra);
    run_plan(op, opts, m, Some(keep))
}

/// The one Lanczos eigen-recurrence of the workspace. `opts` says what is
/// wanted; the plan says how the cycles are cut: a cycle ends when the
/// basis holds `chain_cap` vectors (never more than `op.dim()` — an
/// `(n+1)`-th orthonormal vector does not exist), and an unconverged
/// cycle restarts from its best `keep_max` Ritz pairs. `keep_max = None`
/// plans a single cycle: nothing follows it, so it ends without
/// compressing and `opts.extra` only tags checkpoints.
pub(crate) fn run_plan<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    opts: &RestartOptions,
    chain_cap: usize,
    keep_max: Option<usize>,
) -> LanczosResultIn<V> {
    let n = op.dim();
    let k = opts.k;
    assert!(k >= 1, "need at least one eigenpair");
    assert!(k <= n, "k = {k} exceeds dimension {n}");
    assert!(op.is_hermitian(), "Lanczos requires a Hermitian operator");
    let m = chain_cap.min(n);

    // ---- state at a restart boundary -----------------------------------
    // basis = [u_0 .. u_{l-1}, chain seed, chain ...] with l = retained;
    // diag holds the l locked Ritz values then the chain alphas; border
    // couples each locked vector to the chain seed; offdiag is the chain
    // betas (empty at a boundary, so not part of the checkpointed state).
    let mut st = match &opts.checkpoint {
        Some(cp) if cp.resume && cp.path.exists() => {
            checkpointed_state(op, cp, opts).unwrap_or_else(|e| panic!("{e}"))
        }
        _ => fresh_state(op, opts),
    };
    let mut offdiag: Vec<f64> = Vec::new();
    let mut w = op.new_vec();
    // Vectors a compression left over. Every use overwrites one in full,
    // so nothing of a cycle survives in them; from the second cycle on
    // the chain grows out of this list and the solve allocates no vector.
    let mut spare: Vec<V> = Vec::new();
    let mut matvecs = 0usize;
    let mut peak = st.basis.len() + 1; // basis + workspace w
    let mut converged = false;
    // Ritz values and residual estimates of the cycle the solve ended on.
    let mut last_cycle: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut eigenvectors: Option<Vec<V>> = None;

    // ---- silent-error defense ------------------------------------------
    // A violated invariant ends the solve (`raise`): fail-stop, like every
    // detected corruption, and resumed from the newest checkpoint by the
    // caller or the multiprocess supervisor.
    let monitor = HealthMonitor::from_env();

    while st.restarts < opts.max_restarts {
        // ---- expansion: grow the chain to m vectors --------------------
        let mut beta_last = 0.0f64;
        // Set when the chain filled up via a breakdown while an unexplored
        // invariant subspace provably remains (see below).
        let mut forced_restart = false;
        // The per-step test (module docs) runs until the cycle's first
        // breakdown, exact or to tolerance, on the tridiagonal form of
        // the projected matrix; `stopped` is its verdict.
        let mut unbroken = true;
        let mut stopped = false;
        let (arrow_d, arrow_e) = arrowhead_tridiagonal(&st.diag[..st.retained], &st.border);
        loop {
            let j = st.basis.len() - 1;
            debug_assert_eq!(st.diag.len(), j, "projected matrix out of step with basis");
            // Fused matvec+dot: `w = H v_j`, `α_j = ⟨v_j, w⟩` in one pass.
            let alpha = op.apply_dot(&st.basis[j], &mut w).re();
            matvecs += 1;
            st.diag.push(alpha);
            // Full blocked-CGS2 reorthogonalization against the *whole*
            // retained set — locked Ritz vectors (`Σ s_i u_i`) and chain.
            let beta = cgs2_beta(&st.basis, &mut w);
            monitor.check_step(st.restarts, alpha, beta).unwrap_or_else(|e| raise(e));
            if st.basis.len() == n {
                // The basis spans the whole space, so β is rounding: the
                // projected problem is exact and complete (β_last = 0).
                break;
            }
            if beta <= BREAKDOWN {
                // Exact invariant subspace. Re-seed with a fresh random
                // direction orthogonalized (CGS2) against every retained
                // vector — including the locked Ritz vectors — so the
                // next block explores an unexplored subspace.
                st.breakdowns += 1;
                unbroken = false;
                let mut fresh = spare.pop().unwrap_or_else(|| op.new_vec());
                draw_random(&mut fresh, opts.seed, &mut st.draws);
                let before = fresh.norm();
                let nf = cgs2_beta(&st.basis, &mut fresh);
                if nf <= 1e-10 * before {
                    // The basis spans the reachable space: the projected
                    // problem is exact and complete. Finish on it.
                    break;
                }
                fresh.scale(1.0 / nf);
                if st.basis.len() == m {
                    if st.breakdowns > k as u64 {
                        // More than k independent invariant blocks have
                        // been explored (cumulative across cycles):
                        // every copy of the wanted eigenvalues is
                        // reachable from some block, so the exact
                        // projected values stand.
                        break;
                    }
                    // The chain is full but `fresh` just proved an
                    // unexplored subspace remains — multiplicity may be
                    // unresolved. Force a restart with `fresh` as the
                    // next chain seed (β = 0: decoupled from the locked
                    // set, exactly a random-restart block).
                    spare.push(std::mem::replace(&mut w, fresh));
                    forced_restart = true;
                    break;
                }
                offdiag.push(0.0);
                st.basis.push(fresh);
                continue;
            }
            if unbroken && st.diag.len() >= k && st.basis.len() < m {
                let d = [&arrow_d, &st.diag[st.retained..]].concat();
                let (vals, last) = tridiag_eigh_last(&d, &[&arrow_e, &offdiag[..]].concat());
                let resid: Vec<f64> = last.iter().map(|y| (beta * y).abs()).collect();
                // Every pair passing means β itself is below tolerance: a
                // breakdown in all but the threshold, not convergence.
                unbroken = !residuals_pass(&vals, &resid, opts.tol);
                stopped = unbroken
                    && wanted_converged(&vals, &resid, k, opts.tol, !opts.want_vectors);
            }
            w.scale(1.0 / beta);
            if stopped || st.basis.len() == m {
                beta_last = beta;
                break; // w is now the normalized residual v_res
            }
            offdiag.push(beta);
            // The chain grows by moving `w` into it. The next product
            // overwrites whatever its output holds (`KrylovOp::apply`),
            // so any vector will do as the next `w`.
            let next = spare.pop().unwrap_or_else(|| op.new_vec());
            st.basis.push(std::mem::replace(&mut w, next));
        }

        // ---- cycle end: projected solve + convergence test -------------
        let mcur = st.basis.len();
        peak = peak.max(mcur + spare.len() + 1);
        assert!(mcur >= k, "Krylov space collapsed below k = {k} (dim {n})");
        let (cvals, yvecs) = projected_eigh(&st, &offdiag);
        monitor.check_ritz(st.restarts, &cvals).unwrap_or_else(|e| raise(e));
        let mut resid = ritz_residuals(&yvecs, beta_last);
        // A cycle the per-step test stopped has passed already: on a
        // restarted cycle the Jacobi solve here agrees with its QL to
        // rounding, and must not reopen the verdict over it.
        let ok = stopped || wanted_converged(&cvals, &resid, k, opts.tol, !opts.want_vectors);
        resid.truncate(k);
        monitor.check_residuals(st.restarts, &resid).unwrap_or_else(|e| raise(e));
        let ok = ok && !forced_restart;

        let keep_max = match keep_max {
            Some(keep_max) if !ok => keep_max,
            _ => {
                // Converged (β_last ≈ 0 without a forced restart means
                // the reachable space is exhausted — the projected
                // problem is then exact), or the plan's only cycle is
                // over. Assemble Ritz vectors from the full cycle basis,
                // over it: nothing reads the basis after this.
                converged = ok;
                last_cycle = Some((cvals[..k].to_vec(), resid));
                if opts.want_vectors {
                    drop(compress(&mut st.basis, &yvecs[..k]));
                    for x in &mut st.basis {
                        let nx = x.norm();
                        x.scale(1.0 / nx);
                    }
                    eigenvectors = Some(std::mem::take(&mut st.basis));
                }
                break;
            }
        };

        // ---- thick restart: compress to the best keep Ritz pairs -------
        let keep = keep_max.min(mcur - 2).max(k);
        spare.extend(compress(&mut st.basis, &yvecs[..keep]));
        let next = spare.pop().expect("a compression frees at least two vectors");
        st.basis.push(std::mem::replace(&mut w, next)); // residual seeds the next chain
        st.retained = keep;
        st.border = (0..keep).map(|i| beta_last * yvecs[i][mcur - 1]).collect();
        st.diag = cvals[..keep].to_vec();
        offdiag.clear();
        st.restarts += 1;

        // Retained-set orthonormality: the compressed basis is the state
        // the *whole rest of the solve* builds on, so drift here (a
        // flipped bit in a locked Ritz vector) would silently poison
        // every later cycle. Checked at the boundary, before it is
        // checkpointed as "good".
        monitor.check_basis(st.restarts, &st.basis).unwrap_or_else(|e| raise(e));

        if let Some(cp) = &opts.checkpoint {
            if st.restarts.is_multiple_of(cp.every.max(1)) {
                let written = if cp.keep > 1 {
                    save_checkpoint_rotated(&cp.path, &st, cp.keep)
                } else {
                    save_checkpoint(&cp.path, &st)
                };
                written.unwrap_or_else(|e| {
                    panic!("failed to write checkpoint {}: {e}", cp.path.display())
                });
            }
        }
    }

    if opts.want_vectors && eigenvectors.is_none() && st.retained >= k {
        // Restart budget exhausted before convergence: the locked basis
        // holds the current best Ritz vectors — return them (best
        // effort, aligned with the reported eigenvalue estimates) so
        // `want_vectors` is honored on every exit path that has them.
        st.basis.truncate(k);
        eigenvectors = Some(std::mem::take(&mut st.basis));
    }

    // Out of cycles, so at a boundary: the locked arrowhead (θ_i, |s_i|) is
    // the current estimate — of the last compression, or a resumed one.
    let (eigenvalues, residuals) = last_cycle.unwrap_or_else(|| {
        let locked = st.diag.iter().zip(&st.border).take(k);
        locked.map(|(theta, s)| (*theta, s.abs())).unzip()
    });
    LanczosResultIn {
        eigenvalues,
        eigenvectors,
        iterations: matvecs,
        residuals,
        converged,
        peak_retained: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::eigh_real;
    use crate::lanczos::{lanczos_smallest, LanczosOptions};
    use crate::op::DenseOp;

    fn random_symmetric(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        let mut next = move || {
            s = ls_kernels::hash64_01(s.wrapping_add(1));
            (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let x = next();
                a[i * n + j] = x;
                a[j * n + i] = x;
            }
        }
        a
    }

    #[test]
    fn matches_dense_with_a_tight_budget() {
        let n = 120;
        let a = random_symmetric(n, 11);
        let (expect, _) = eigh_real(&a, n);
        let op = DenseOp::new(n, a);
        let opts = RestartOptions {
            extra: 14, // budget 18 vectors on a 120-dim problem
            tol: 1e-11,
            want_vectors: true,
            ..RestartOptions::new(4)
        };
        let res = thick_restart_lanczos(&op, &opts);
        assert!(res.converged, "residuals {:?}", res.residuals);
        assert!(res.peak_retained <= opts.k + opts.extra, "peak {}", res.peak_retained);
        for (i, (got, want)) in res.eigenvalues.iter().zip(&expect).enumerate() {
            assert!((got - want).abs() < 1e-7, "λ{i}: {got} vs {want}");
        }
        // Ritz vectors are genuine eigenvectors.
        let op_ref = DenseOp::new(n, random_symmetric(n, 11));
        for (lam, v) in res.eigenvalues.iter().zip(res.eigenvectors.as_ref().unwrap()) {
            let mut av = vec![0.0f64; n];
            LinearOp::apply(&op_ref, v, &mut av);
            let rn: f64 = av
                .iter()
                .zip(v)
                .map(|(x, y)| (x - lam * y) * (x - lam * y))
                .sum::<f64>()
                .sqrt();
            assert!(rn < 1e-6, "residual {rn}");
        }
    }

    #[test]
    fn agrees_with_full_memory_lanczos() {
        let n = 90;
        let a = random_symmetric(n, 23);
        let op = DenseOp::new(n, a);
        let full = lanczos_smallest(
            &op,
            3,
            &LanczosOptions { max_iter: n, tol: 1e-11, ..Default::default() },
        );
        let thick = thick_restart_lanczos(
            &op,
            &RestartOptions { extra: 10, tol: 1e-11, ..RestartOptions::new(3) },
        );
        assert!(full.converged && thick.converged);
        for (a, b) in full.eigenvalues.iter().zip(&thick.eigenvalues) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn a_budget_larger_than_the_space_exhausts_it_and_finishes_exactly() {
        // Budget 26 on a 12-dim operator: the chain is capped at the
        // dimension, never at the 17 the budget would allow.
        let n = 12;
        let a = random_symmetric(n, 5);
        let (expect, _) = eigh_real(&a, n);
        let op = DenseOp::new(n, a);
        let res =
            thick_restart_lanczos(&op, &RestartOptions { tol: 0.0, ..RestartOptions::new(2) });
        assert!(res.converged);
        assert_eq!((res.iterations, res.peak_retained), (n, n + 1));
        assert_eq!(res.residuals, [0.0, 0.0]);
        for (got, want) in res.eigenvalues.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn truncated_then_resumed_is_bit_identical() {
        let n = 150;
        let a = random_symmetric(n, 77);
        let op = DenseOp::new(n, a);
        let mut path = std::env::temp_dir();
        path.push(format!("ls_restart_resume_{}.lsck", std::process::id()));
        std::fs::remove_file(&path).ok();

        let base = RestartOptions {
            extra: 12,
            tol: 1e-12,
            want_vectors: true,
            ..RestartOptions::new(2)
        };
        let uninterrupted = thick_restart_lanczos(&op, &base);
        assert!(uninterrupted.converged);

        // Same solve, but killed after 2 restart cycles and resumed.
        let ck = CheckpointPolicy::new(path.clone());
        let truncated = thick_restart_lanczos(
            &op,
            &RestartOptions { max_restarts: 2, checkpoint: Some(ck.clone()), ..base.clone() },
        );
        assert!(!truncated.converged, "picked max_restarts too large for the test");
        let resumed = thick_restart_lanczos(
            &op,
            &RestartOptions { checkpoint: Some(ck), ..base.clone() },
        );
        assert!(resumed.converged);
        for (a, b) in uninterrupted.eigenvalues.iter().zip(&resumed.eigenvalues) {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed eigenvalue diverged");
        }
        let uv = uninterrupted.eigenvectors.unwrap();
        let rv = resumed.eigenvectors.unwrap();
        for (a, b) in uv.iter().zip(&rv) {
            let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "resumed Ritz vector diverged");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotated_resume_survives_a_torn_newest_generation() {
        use crate::checkpoint::{generation_path, manifest_generations, remove_checkpoint};
        let n = 150;
        let a = random_symmetric(n, 77);
        let op = DenseOp::new(n, a);
        let mut path = std::env::temp_dir();
        path.push(format!("ls_restart_rotated_{}.lsck", std::process::id()));
        remove_checkpoint(&path).unwrap();

        let base = RestartOptions {
            extra: 12,
            tol: 1e-12,
            want_vectors: true,
            ..RestartOptions::new(2)
        };
        let uninterrupted = thick_restart_lanczos(&op, &base);
        assert!(uninterrupted.converged);

        // Killed after 3 cycles with keep-last-2 rotation...
        let ck = CheckpointPolicy { keep: 2, ..CheckpointPolicy::new(path.clone()) };
        let truncated = thick_restart_lanczos(
            &op,
            &RestartOptions { max_restarts: 3, checkpoint: Some(ck.clone()), ..base.clone() },
        );
        assert!(!truncated.converged);
        assert_eq!(manifest_generations(&path).unwrap(), vec![2, 3]);

        // ...then the newest generation is torn by the "crash".
        let g3 = generation_path(&path, 3);
        let bytes = std::fs::read(&g3).unwrap();
        std::fs::write(&g3, &bytes[..bytes.len() / 2]).unwrap();

        // The resume falls back to generation 2 and still converges to
        // the bit-identical answer (any-cycle resume determinism).
        let resumed = thick_restart_lanczos(
            &op,
            &RestartOptions { checkpoint: Some(ck), ..base.clone() },
        );
        assert!(resumed.converged);
        for (a, b) in uninterrupted.eigenvalues.iter().zip(&resumed.eigenvalues) {
            assert_eq!(a.to_bits(), b.to_bits(), "rotated resume diverged");
        }
        remove_checkpoint(&path).unwrap();
    }

    #[test]
    fn degenerate_spectrum_recovers_multiplicity() {
        // 3 copies of -1 in a 60-dim space, solved with an 11-vector
        // budget: restarts + breakdown re-seeding must find all copies.
        let n = 60;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = if i < 3 { -1.0 } else { 2.0 };
        }
        let op = DenseOp::new(n, a);
        let res =
            thick_restart_lanczos(&op, &RestartOptions { extra: 7, ..RestartOptions::new(4) });
        let copies = res.eigenvalues.iter().filter(|v| (*v + 1.0).abs() < 1e-8).count();
        assert_eq!(copies, 3, "eigenvalues {:?}", res.eigenvalues);
        assert!((res.eigenvalues[3] - 2.0).abs() < 1e-8);

        // k below the number of distinct eigenvalues: diag(i % d) breaks
        // down after d steps (exactly, or for d = 12 with β ≈ 1e-12, just
        // above the threshold) with the exact pairs (0, 1) in hand. Their
        // vanishing residual estimate must not pass for convergence — the
        // second copy of 0 lives in a block the chain has not entered.
        for (n, d) in [(200, 10), (400, 12), (200, 6), (100, 10)] {
            let mut a = vec![0.0f64; n * n];
            for i in 0..n {
                a[i * n + i] = (i % d) as f64;
            }
            let op = DenseOp::new(n, a);
            let plans = [
                thick_restart_lanczos(&op, &RestartOptions::new(2)),
                lanczos_smallest(&op, 2, &LanczosOptions::default()),
                lanczos_smallest(
                    &op,
                    2,
                    &LanczosOptions { max_retained: usize::MAX, ..Default::default() },
                ),
            ];
            for res in plans {
                assert!(res.converged, "n = {n}, d = {d}");
                for v in &res.eigenvalues {
                    assert!(v.abs() < 1e-8, "n = {n}, d = {d}: {:?}", res.eigenvalues);
                }
            }
        }
    }

    #[test]
    fn breakdown_at_chain_capacity_forces_a_restart() {
        // diag(-1 ×4, 2 ×56) with k = 4 and a budget whose expansion
        // chain (m = 6) fills with exactly three 2-dim invariant blocks:
        // the first cycle ends in a breakdown *at capacity* while a
        // fourth copy of -1 is still unexplored. Declaring the exact
        // projected values converged there would return [-1,-1,-1,2];
        // the forced restart must keep going until all four copies are
        // found.
        let n = 60;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = if i < 4 { -1.0 } else { 2.0 };
        }
        let op = DenseOp::new(n, a);
        let res = thick_restart_lanczos(
            &op,
            &RestartOptions { extra: 7, want_vectors: true, ..RestartOptions::new(4) },
        );
        for (i, v) in res.eigenvalues.iter().enumerate() {
            assert!((v + 1.0).abs() < 1e-8, "λ{i} = {v}, expected all four copies of -1");
        }
        // want_vectors is honored on every exit path.
        assert_eq!(res.eigenvectors.as_ref().map(|e| e.len()), Some(4));
    }

    #[test]
    fn arrowhead_tridiagonal_keeps_values_and_last_components() {
        // Five locked values (two equal, one zero border) and a chain of four.
        let theta = [-3.0, -1.5, -1.5, 0.25, 2.0];
        let border = [0.4, -0.3, 0.2, 0.0, 0.7];
        let diag = [&theta[..], &[0.5, -0.2, 1.1, 0.3]].concat();
        let offdiag = [0.9, 0.6, 0.45];
        let m = diag.len();
        let (vals, vecs) = eigh_real(&projected_dense(&diag, &border, &offdiag, 5), m);
        let (arrow_d, arrow_e) = arrowhead_tridiagonal(&theta, &border);
        let d = [&arrow_d, &diag[5..]].concat();
        let (tvals, last) = tridiag_eigh_last(&d, &[&arrow_e, &offdiag[..]].concat());
        for i in 0..m {
            assert!((vals[i] - tvals[i]).abs() < 1e-12, "λ{i}: {} vs {}", vals[i], tvals[i]);
        }
        // Last components up to sign. Of the two locked copies of -1.5
        // one combination misses the seed, so -1.5 stays an eigenvalue,
        // simple, with a last component of zero in both forms.
        for i in 0..m {
            let (a, b) = (vecs[i][m - 1].abs(), last[i].abs());
            assert!((a - b).abs() < 1e-12, "y{i}[m-1]: {a} vs {b}");
        }
    }

    #[test]
    fn gap_rule_falls_back_to_the_residual_rule_without_a_positive_gap() {
        let tol = 1e-10;
        // Residual estimates 1e-6 on the k = 2 wanted pairs: far above
        // the residual rule (tol × spectral scale 3), while ‖R‖²/δ̂ =
        // 2e-12 / 2 passes the gap rule once the gap is clear.
        let resid = [1e-6, 1e-6, 1e-3, 1e-3];
        let clear = [-2.0, -1.0, 1.0, 3.0];
        assert!(wanted_converged(&clear, &resid, 2, tol, true));
        assert!(!wanted_converged(&clear, &resid, 2, tol, false), "vectors want residuals");
        // An unwanted Ritz value 1e-9 above θ_1 with residual 1e-3: δ̂ < 0,
        // so the residual rule decides, and fails these estimates...
        let straddled = [-2.0, -1.0, -1.0 + 1e-9, 3.0];
        assert!(!wanted_converged(&straddled, &resid, 2, tol, true));
        // ...and passes estimates below tol × 3.
        let small = [1e-11, 1e-11, 1e-3, 1e-3];
        assert!(wanted_converged(&straddled, &small, 2, tol, true));
        // The unwanted value that sets δ̂ = 2.5 is 4.5 ± 3: a rough
        // average over unexplored spectrum, not a resolved neighbour...
        let far = [-2.0, -1.0, 4.5, 6.0];
        assert!(!wanted_converged(&far, &[1e-6, 1e-6, 3.0, 1e-3], 2, tol, true));
        assert!(wanted_converged(&far, &[1e-11, 1e-11, 3.0, 1e-3], 2, tol, true));
        // ...while 4.5 ± 2 is resolved within its δ̂ = 3.5.
        assert!(wanted_converged(&far, &[1e-6, 1e-6, 2.0, 1e-3], 2, tol, true));
        // No unwanted Ritz value at all: the residual rule again.
        assert!(!wanted_converged(&clear[..2], &resid[..2], 2, tol, true));
        assert!(wanted_converged(&clear[..2], &small[..2], 2, tol, true));
    }

    #[test]
    #[should_panic(expected = "extra >= k + 3")]
    fn undersized_budget_panics() {
        let op = DenseOp::new(50, vec![0.0; 2500]);
        let _ =
            thick_restart_lanczos(&op, &RestartOptions { extra: 2, ..RestartOptions::new(2) });
    }

    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A dense operator that corrupts exactly one matvec output: the
    /// `fire_at`-th apply gets a NaN written into `y[0]`, once. Later
    /// (replayed) applies are clean, so a rolled-back solve retraces the
    /// uncorrupted trajectory — the hermetic stand-in for a one-shot
    /// soft error.
    struct NanOnceOp {
        inner: DenseOp<f64>,
        calls: AtomicUsize,
        fire_at: usize,
        fired: AtomicBool,
    }

    impl NanOnceOp {
        fn new(inner: DenseOp<f64>, fire_at: usize) -> Self {
            Self { inner, calls: AtomicUsize::new(0), fire_at, fired: AtomicBool::new(false) }
        }
    }

    impl LinearOp<f64> for NanOnceOp {
        fn dim(&self) -> usize {
            LinearOp::dim(&self.inner)
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            LinearOp::apply(&self.inner, x, y);
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if call == self.fire_at && !self.fired.swap(true, Ordering::SeqCst) {
                y[0] = f64::NAN;
            }
        }
    }

    /// Runs `solve` to its first detected corruption, which must unwind
    /// as the typed health error of a NaN'd `α`.
    fn unwinds_on_alpha(solve: impl FnOnce() -> LanczosResult<f64>) {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve))
            .expect_err("the corruption must end the solve");
        let health = payload
            .downcast_ref::<crate::health::SolverHealthError>()
            .expect("payload must stay the typed SolverHealthError");
        assert_eq!(health.check, "alpha");
    }

    #[test]
    fn a_corrupted_cycle_unwinds_typed_and_resumes_from_its_checkpoint_bit_identically() {
        let n = 150;
        let a = random_symmetric(n, 77);
        let base = RestartOptions { extra: 12, tol: 1e-12, ..RestartOptions::new(2) };
        let clean = thick_restart_lanczos(&DenseOp::new(n, a.clone()), &base);
        assert!(clean.converged);

        let mut path = std::env::temp_dir();
        path.push(format!("ls_restart_resume_{}.lsck", std::process::id()));
        std::fs::remove_file(&path).ok();
        let opts =
            RestartOptions { checkpoint: Some(CheckpointPolicy::new(path.clone())), ..base };
        // Budget 14 → chain length 8: apply #15 (0-based) lands after the
        // second restart boundary, so a checkpoint exists to resume from.
        let op = NanOnceOp::new(DenseOp::new(n, a), 15);
        unwinds_on_alpha(|| thick_restart_lanczos(&op, &opts));
        assert!(path.exists(), "the corruption must land after a checkpoint");
        let res = thick_restart_lanczos(&op, &opts);
        assert!(res.converged, "residuals {:?}", res.residuals);
        assert!(res.iterations < clean.iterations, "the resume must not start over");
        for (c, r) in clean.eigenvalues.iter().zip(&res.eigenvalues) {
            assert_eq!(c.to_bits(), r.to_bits(), "resumed eigenvalue diverged");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_before_first_checkpoint_replays_from_the_start() {
        // Fire during the very first cycle: no checkpoint exists yet, so
        // the caller's second call starts over; counter-derived draws
        // make it bit-identical to the uninterrupted run. The second case
        // is an operator smaller than its budget (25 ≥ n + 1): the check
        // covers every plan, not only solves that restart.
        let tight = RestartOptions { extra: 12, tol: 1e-12, ..RestartOptions::new(2) };
        for (n, base) in [(150, tight), (20, RestartOptions::new(1))] {
            let a = random_symmetric(n, 77);
            let clean = thick_restart_lanczos(&DenseOp::new(n, a.clone()), &base);
            let op = NanOnceOp::new(DenseOp::new(n, a), 3);
            unwinds_on_alpha(|| thick_restart_lanczos(&op, &base));
            let res = thick_restart_lanczos(&op, &base);
            assert!(res.converged);
            for (c, r) in clean.eigenvalues.iter().zip(&res.eigenvalues) {
                assert_eq!(c.to_bits(), r.to_bits(), "n = {n}: restarted eigenvalue diverged");
            }
        }
    }
}
