//! The one place the benchmark touches the repo's crates.
//!
//! Every call into `ls-*` (and the `rayon` shim) is made here and
//! nowhere else, so a later PR that changes one of these signatures
//! adapts this file alone, and `benchmark/README.md` can list exactly
//! what the benchmark pins. Nothing in here measures; the callers time
//! these functions from outside.

use crate::probe::SpeedProbe;
use crate::trace::Tracer;
use ls_basis::{state_info_batch, OffDiagBlock, SectorSpec, StateInfoBatch};
use ls_core::matvec::{apply_batched_pull_pooled, apply_serial_pooled, MatvecScratchPool};
use ls_core::{eigensolve_restarted, MatvecStrategy, Operator};
use ls_dist::convert::{block_to_hashed, hashed_masks, hashed_to_block, to_block};
use ls_dist::eigensolve::{dist_thick_restart_lanczos, DistOp, DistRestartOptions};
use ls_dist::{enumerate_dist, DistSpinBasis, PcOptions};
use ls_eigen::op::{par_dot, par_multi_axpy, par_multi_dot};
use ls_eigen::{
    lanczos_smallest, load_checkpoint, save_checkpoint, thick_restart_lanczos,
    thick_restart_lanczos_in, CheckpointState, KrylovOp, LanczosOptions, LanczosResultIn,
    LinearOp, RestartOptions,
};
use ls_expr::builders::{heisenberg, hubbard_1d};
use ls_expr::LocalHilbert;
use ls_kernels::simd::accumulate_segment_f64;
use ls_runtime::{crc32c, Cluster, ClusterSpec};
use ls_symmetry::lattice::{chain_bonds, chain_group};
use std::path::Path;
use std::sync::Arc;

pub use ls_basis::{SpinBasis, SymmetrizedOperator};
pub use ls_expr::{Expr, OperatorKernel};
pub use ls_runtime::DistVec;
pub use ls_symmetry::SymmetryGroup;

/// Rows per replay block: `ls_kernels::chunk::BATCH_ROWS`, the block the
/// batched engine feeds the same functions.
pub const REPLAY_BLOCK: usize = ls_kernels::chunk::BATCH_ROWS;

/// The four sector families of the workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// Heisenberg ring, half filling, trivial group (combinadic ranking).
    U1Chain,
    /// Heisenberg ring, half filling, translation × reflection × spin
    /// inversion, all in the trivial representation.
    SymChain,
    /// Hubbard ring with `sites / 3` fermions of each spin, `t = 1, U = 4`.
    Hubbard,
    /// [`Family::U1Chain`] hash-distributed over 2 locales × 1 core.
    DistU1Chain,
}

// ---------------------------------------------------------------------------
// Process-wide settings
// ---------------------------------------------------------------------------

pub fn set_pool_width(threads: usize) {
    rayon::set_thread_limit(threads);
}

/// The SIMD level the kernels dispatch to in this process.
pub fn simd_level() -> String {
    format!("{:?}", ls_kernels::simd::level()).to_lowercase()
}

// ---------------------------------------------------------------------------
// Construction, one function per set-up phase
// ---------------------------------------------------------------------------

pub fn hamiltonian(family: Family, sites: usize) -> Expr {
    match family {
        Family::Hubbard => hubbard_1d(sites, 1.0, 4.0, true),
        _ => heisenberg(&chain_bonds(sites), 1.0),
    }
}

/// The symmetry group, for the family that has one.
pub fn symmetry_group(family: Family, sites: usize) -> Option<SymmetryGroup> {
    (family == Family::SymChain)
        .then(|| chain_group(sites, 0, Some(0), Some(0)).expect("chain group is consistent"))
}

pub fn sector(family: Family, sites: usize, group: Option<SymmetryGroup>) -> SectorSpec {
    let n = sites as u32;
    match (family, group) {
        (Family::Hubbard, _) => SectorSpec::spinful_fermions(n, n / 3, n / 3),
        (_, Some(group)) => SectorSpec::new(n, Some(n / 2), group),
        (_, None) => SectorSpec::with_weight(n, n / 2),
    }
    .expect("workload sectors are valid")
}

pub fn compile(expr: &Expr, sector: &SectorSpec) -> OperatorKernel {
    let hilbert = LocalHilbert::from_encoding(sector.encoding());
    expr.to_kernel_in(&hilbert, sector.n_sites()).expect("workload Hamiltonians compile")
}

pub fn symmetrize(kernel: &OperatorKernel, sector: &SectorSpec) -> SymmetrizedOperator<f64> {
    SymmetrizedOperator::new(kernel, sector).expect("workload Hamiltonians fit their sectors")
}

pub fn enumerate(sector: SectorSpec) -> Arc<SpinBasis> {
    Arc::new(SpinBasis::build(sector))
}

/// A shared-memory sector: the basis and the operator bound to it.
pub struct Shared {
    pub basis: Arc<SpinBasis>,
    pub op: Operator<f64>,
}

impl Shared {
    pub fn bind(symop: SymmetrizedOperator<f64>, basis: Arc<SpinBasis>) -> Self {
        Self { op: Operator::from_parts(symop, Arc::clone(&basis)), basis }
    }

    /// The construction a user writes: expression + sector in, basis +
    /// operator out.
    pub fn build(family: Family, sites: usize) -> Self {
        let sector = sector(family, sites, symmetry_group(family, sites));
        let (basis, op) = Operator::from_expr(&hamiltonian(family, sites), sector)
            .expect("workload Hamiltonians fit their sectors");
        Self { basis, op }
    }

    pub fn dim(&self) -> usize {
        self.basis.dim()
    }

    pub fn group_order(&self) -> usize {
        self.basis.sector().group().order()
    }

    pub fn index_bytes(&self) -> usize {
        self.basis.memory_bytes()
    }

    /// The same sector on the plain single-thread scalar product.
    pub fn serial(&self) -> Shared {
        Shared {
            basis: Arc::clone(&self.basis),
            op: self.op.clone().with_strategy(MatvecStrategy::Serial),
        }
    }

    /// `y = H x` through the operator's default strategy.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        LinearOp::apply(&self.op, x, y);
    }
}

/// A hash-distributed sector on the in-process transport.
pub struct Distributed {
    pub cluster: Cluster,
    pub symop: SymmetrizedOperator<f64>,
    pub basis: DistSpinBasis,
}

/// Raw-range chunks each locale filters during distributed enumeration.
const ENUM_CHUNKS_PER_LOCALE: usize = 8;

pub fn cluster(locales: usize, cores: usize) -> Cluster {
    Cluster::new(ClusterSpec::new(locales, cores))
}

pub fn enumerate_distributed(cluster: &Cluster, sector: &SectorSpec) -> DistSpinBasis {
    enumerate_dist(cluster, sector, ENUM_CHUNKS_PER_LOCALE)
}

impl Distributed {
    pub fn build(family: Family, sites: usize, locales: usize, cores: usize) -> Self {
        let sector = sector(family, sites, None);
        let cluster = cluster(locales, cores);
        let basis = enumerate_distributed(&cluster, &sector);
        let symop = symmetrize(&compile(&hamiltonian(family, sites), &sector), &sector);
        Self { cluster, symop, basis }
    }

    /// The producer/consumer product as a Krylov operator, one producer
    /// and one consumer task per locale.
    pub fn op(&self) -> DistOp<'_, f64> {
        DistOp::new(&self.cluster, &self.symop, &self.basis, PcOptions::default())
    }

    pub fn dim(&self) -> usize {
        self.basis.dim() as usize
    }

    pub fn index_bytes(&self) -> usize {
        self.basis.memory_bytes()
    }

    /// Largest part over mean part of the hashed distribution.
    pub fn imbalance(&self) -> f64 {
        let (_min, max, mean) = self.basis.balance();
        max as f64 / mean
    }

    /// A vector in the basis's distribution, filled part by part.
    pub fn vector(&self, mut fill: impl FnMut() -> f64) -> DistVec<f64> {
        DistVec::from_parts(
            self.basis
                .states()
                .lens()
                .iter()
                .map(|&n| (0..n).map(|_| fill()).collect())
                .collect(),
        )
    }

    /// Distributes a vector given in sorted-state order (`masks` from
    /// [`convert_masks`]).
    pub fn scatter(&self, sorted: &[f64], masks: &DistVec<u16>) -> DistVec<f64> {
        let block = to_block(sorted, self.cluster.n_locales());
        block_to_hashed(&self.cluster, &block, masks, CONVERT_CHUNKS)
    }

    /// Collects a distributed vector back into sorted-state order.
    pub fn gather(&self, v: &DistVec<f64>) -> Vec<f64> {
        self.basis.gather_canonical(v)
    }
}

pub fn dist_apply(op: &DistOp<'_, f64>, x: &DistVec<f64>, y: &mut DistVec<f64>) {
    op.apply(x, y);
}

pub fn dist_zeros(op: &DistOp<'_, f64>) -> DistVec<f64> {
    op.new_vec()
}

// ---------------------------------------------------------------------------
// Eigensolves
// ---------------------------------------------------------------------------

/// What the benchmark keeps of a solve.
pub struct Solve {
    pub eigenvalues: Vec<f64>,
    pub matvecs: usize,
    pub converged: bool,
    pub peak_retained: usize,
}

impl<V> From<LanczosResultIn<V>> for Solve {
    fn from(r: LanczosResultIn<V>) -> Self {
        Self {
            eigenvalues: r.eigenvalues,
            matvecs: r.iterations,
            converged: r.converged,
            peak_retained: r.peak_retained,
        }
    }
}

/// The solve every workload times: the 2 lowest eigenvalues to 1e-10
/// under a 26-vector budget, no checkpointing, no Ritz vectors.
///
/// The start vector keeps the library's default seed (`0x5eed`) and is
/// *not* taken from `--seed`, on purpose. Convergence is tested once per
/// restart cycle of 9 products, so another start vector moves a solve by
/// whole cycles (62 → 71 products on `sym_chain24`: +14 % wall time with
/// no change in speed). Pinned, `eigen.matvecs` repeats exactly and
/// `solve_s` carries machine noise only. `--seed` drives every other
/// generated input: the vectors of the products, the replay and the
/// BLAS-1 / checkpoint / conversion probes.
fn restart_options() -> RestartOptions {
    RestartOptions { k: 2, extra: 24, tol: 1e-10, ..RestartOptions::new(2) }
}

pub fn solve_shared(op: &Operator<f64>) -> Solve {
    eigensolve_restarted(op, &restart_options()).into()
}

/// [`solve_shared`] through a wrapper; `eigensolve_restarted` is this
/// call with `Op = Operator`.
pub fn solve_shared_timed<Op: LinearOp<f64>>(op: &TimedOp<'_, Op>) -> Solve {
    thick_restart_lanczos(op, &restart_options()).into()
}

pub fn solve_dist(d: &Distributed) -> Solve {
    let opts = DistRestartOptions { restart: restart_options(), pc: PcOptions::default() };
    dist_thick_restart_lanczos(&d.cluster, &d.symop, &d.basis, &opts).into()
}

/// [`solve_dist`] through a wrapper; `dist_thick_restart_lanczos` is this
/// call on a fresh `DistOp`.
pub fn solve_dist_timed(op: &TimedOp<'_, DistOp<'_, f64>>) -> Solve {
    thick_restart_lanczos_in(op, &restart_options()).into()
}

/// The reference solve: serial scalar product, unrestarted Lanczos with
/// every Krylov vector kept.
pub fn solve_reference(shared: &Shared) -> Solve {
    let opts = LanczosOptions {
        max_iter: shared.dim().min(1000),
        tol: 1e-10,
        max_retained: usize::MAX,
        ..Default::default()
    };
    lanczos_smallest(&shared.serial().op, 2, &opts).into()
}

/// What a [`TimedOp`] does around each product it forwards.
enum Around<'a> {
    /// Records one span per product: the traced pass.
    Span(&'a Tracer, &'static str),
    /// Takes one machine-speed sample after each product: the untraced pass.
    Probe(&'a SpeedProbe),
}

impl Around<'_> {
    fn product<R>(&self, f: impl FnOnce() -> R) -> R {
        match self {
            Around::Span(tracer, name) => tracer.span(name, f),
            Around::Probe(probe) => {
                let out = f();
                probe.sample();
                out
            }
        }
    }
}

/// Forwards every operator method, with a span or a machine-speed sample
/// per product. It must forward `apply_dot` too: the solvers call the
/// fused form, and falling back to the trait default would time a
/// different product.
pub struct TimedOp<'a, Op> {
    inner: &'a Op,
    around: Around<'a>,
}

impl<'a, Op> TimedOp<'a, Op> {
    pub fn new(inner: &'a Op, tracer: &'a Tracer, span: &'static str) -> Self {
        Self { inner, around: Around::Span(tracer, span) }
    }

    pub fn probed(inner: &'a Op, probe: &'a SpeedProbe) -> Self {
        Self { inner, around: Around::Probe(probe) }
    }
}

impl<Op: LinearOp<f64>> LinearOp<f64> for TimedOp<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.around.product(|| self.inner.apply(x, y))
    }
    fn apply_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        self.around.product(|| self.inner.apply_dot(x, y))
    }
    fn is_hermitian(&self) -> bool {
        self.inner.is_hermitian()
    }
}

impl<Op: KrylovOp<DistVec<f64>>> KrylovOp<DistVec<f64>> for TimedOp<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn new_vec(&self) -> DistVec<f64> {
        self.inner.new_vec()
    }
    fn apply(&self, x: &DistVec<f64>, y: &mut DistVec<f64>) {
        self.around.product(|| self.inner.apply(x, y))
    }
    fn apply_dot(&self, x: &DistVec<f64>, y: &mut DistVec<f64>) -> f64 {
        self.around.product(|| self.inner.apply_dot(x, y))
    }
    fn is_hermitian(&self) -> bool {
        self.inner.is_hermitian()
    }
    fn recover(&self) {
        self.inner.recover()
    }
}

// ---------------------------------------------------------------------------
// Whole products outside the operator (baselines of the trace)
// ---------------------------------------------------------------------------

#[derive(Default)]
pub struct ScratchPool(MatvecScratchPool<f64>);

/// The serial reference product the replay is checked against.
pub fn product_serial(s: &Shared, x: &[f64], y: &mut [f64], pool: &ScratchPool) {
    apply_serial_pooled(s.op.symmetrized(), &s.basis, x, y, &pool.0);
}

/// The shared-memory default product, outside an `Operator`.
pub fn product_batched_pull(s: &Shared, x: &[f64], y: &mut [f64], pool: &ScratchPool) {
    apply_batched_pull_pooled(s.op.symmetrized(), &s.basis, x, y, &pool.0);
}

// ---------------------------------------------------------------------------
// Replay: the block functions the engine calls, one call per block
// ---------------------------------------------------------------------------

/// Buffers one replay block passes from layer to layer.
#[derive(Default)]
pub struct ReplayBlock {
    gen: OffDiagBlock<f64>,
    info: StateInfoBatch,
    idx: Vec<u32>,
    diag: Vec<f64>,
    fired: Vec<u32>,
    emit: Vec<u64>,
    segs: Vec<(f64, u32)>,
}

impl ReplayBlock {
    /// Row generation: `apply_off_diag_block` on rows `lo..hi`. Returns
    /// the number of emissions.
    pub fn rowgen(&mut self, s: &Shared, lo: usize, hi: usize) -> usize {
        let (states, orbits) = (&s.basis.states()[lo..hi], &s.basis.orbit_sizes()[lo..hi]);
        s.op.symmetrized().apply_off_diag_block(states, orbits, &mut self.gen);
        self.gen.len()
    }

    /// The group walk on its own: `state_info_batch` over the block's
    /// emitted states (as many states, the same networks, as the walk
    /// inside [`Self::rowgen`]).
    pub fn state_info(&mut self, s: &Shared) {
        state_info_batch(s.op.symmetrized().group(), &self.gen.reps, &mut self.info);
    }

    /// Ranking: `index_of_batch` over the emitted representatives.
    pub fn rank(&mut self, s: &Shared) {
        s.basis.index_of_batch(&self.gen.reps, &mut self.idx);
    }

    /// Diagonal: `diagonal_block` over rows `lo..hi`.
    pub fn diagonal(&mut self, s: &Shared, lo: usize, hi: usize) {
        self.diag.resize(hi - lo, 0.0);
        s.op.symmetrized().diagonal_block(&s.basis.states()[lo..hi], &mut self.diag);
    }

    /// The reference gather-multiply-accumulate of the pull form:
    /// `y[row] = diag·x[row] + Σ conj(amp)·x[rank(rep)]`.
    pub fn accumulate(&self, x: &[f64], yb: &mut [f64], lo: usize) {
        for (k, out) in yb.iter_mut().enumerate() {
            *out = self.diag[k] * x[lo + k];
        }
        let gen = &self.gen;
        for t in 0..self.idx.len() {
            yb[gen.src[t] as usize] += gen.amps[t] * x[self.idx[t] as usize];
        }
    }

    /// The fused generation + differential ranking the engine runs on
    /// U(1)-only spin-1/2 sectors instead of [`Self::rowgen`] +
    /// [`Self::rank`]: `apply_off_diag_block_u1_ranked_channels`. `false`
    /// where the sector has no combinadic table and the engine cannot
    /// take this path.
    pub fn rowgen_fused(&mut self, s: &Shared, lo: usize, hi: usize) -> bool {
        let Some(table) = s.basis.combinadic_table() else { return false };
        s.op.symmetrized().apply_off_diag_block_u1_ranked_channels(
            &s.basis.states()[lo..hi],
            lo as u64,
            table,
            &mut self.fired,
            &mut self.emit,
            &mut self.segs,
        );
        true
    }

    /// The gather over the fused path's channel segments, through the
    /// engine's own kernel `accumulate_segment_f64`.
    pub fn accumulate_fused(&self, x: &[f64], yb: &mut [f64], lo: usize) {
        for (k, out) in yb.iter_mut().enumerate() {
            *out = self.diag[k] * x[lo + k];
        }
        let mut t0 = 0;
        for &(coeff, t1) in &self.segs {
            accumulate_segment_f64(yb, x, &self.emit[t0..t1 as usize], coeff);
            t0 = t1 as usize;
        }
    }
}

// ---------------------------------------------------------------------------
// BLAS-1, checkpoint, layout conversion, runtime probes
// ---------------------------------------------------------------------------

pub fn blas_dot(a: &[f64], b: &[f64]) -> f64 {
    par_dot(a, b)
}

pub fn blas_multi_dot(vs: &[Vec<f64>], w: &[f64]) -> Vec<f64> {
    par_multi_dot(vs, w)
}

pub fn blas_multi_axpy(coeffs: &[f64], vs: &[Vec<f64>], w: &mut [f64]) {
    par_multi_axpy(coeffs, vs, w);
}

/// Writes a restart-boundary checkpoint holding `vectors` (the last one
/// is the chain seed), as a thick-restart solve would.
pub fn checkpoint_write(path: &Path, vectors: Vec<Vec<f64>>) -> std::io::Result<()> {
    let retained = vectors.len() - 1;
    let state = CheckpointState {
        k: 2,
        budget: 26,
        restarts: 1,
        draws: 1,
        breakdowns: 0,
        retained,
        diag: vec![-1.0; retained],
        border: vec![0.5; retained],
        basis: vectors,
    };
    save_checkpoint(path, &state)
}

/// Reads it back into `op`'s storage; returns the number of vectors.
pub fn checkpoint_read(path: &Path, op: &Operator<f64>) -> Result<usize, String> {
    load_checkpoint::<Vec<f64>, _>(path, op).map(|st| st.basis.len()).map_err(|e| e.to_string())
}

/// Chunks per locale in the layout conversions.
const CONVERT_CHUNKS: usize = 4;

/// Ownership masks of the block-distributed sorted state list.
pub fn convert_masks(d: &Distributed, sorted_states: &[u64]) -> DistVec<u16> {
    hashed_masks(&d.cluster, &to_block(sorted_states, d.cluster.n_locales()))
}

/// Hashed → block → hashed round trip of one vector.
pub fn convert_round_trip(
    d: &Distributed,
    x: &DistVec<f64>,
    masks: &DistVec<u16>,
) -> DistVec<f64> {
    let block = hashed_to_block(&d.cluster, x, masks, CONVERT_CHUNKS);
    block_to_hashed(&d.cluster, &block, masks, CONVERT_CHUNKS)
}

/// Communication counters summed over locales since the last reset.
pub struct CommCounts {
    pub puts: u64,
    pub put_bytes: u64,
    pub flag_messages: u64,
    pub remote_atomics: u64,
    pub barriers: u64,
    pub mean_message_bytes: f64,
}

pub fn comm_reset(cluster: &Cluster) {
    cluster.reset_stats();
}

pub fn comm_counts(cluster: &Cluster) -> CommCounts {
    let s = cluster.stats_total();
    CommCounts {
        puts: s.puts,
        put_bytes: s.put_bytes,
        flag_messages: s.flag_messages,
        remote_atomics: s.remote_atomics,
        barriers: s.barriers,
        mean_message_bytes: s.mean_message_bytes(),
    }
}

/// One SPMD dispatch whose only work is crossing the cluster barrier.
pub fn barrier_round(cluster: &Cluster) {
    cluster.run(|ctx| ctx.barrier_wait());
}

/// One SPMD dispatch of `tasks` empty tasks per locale.
pub fn dispatch_round(cluster: &Cluster, tasks: usize) {
    cluster.run_tasks(tasks, |_, _| {});
}

pub fn checksum(data: &[u8]) -> u32 {
    crc32c(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wrapper must be invisible to the solver: same products, same
    /// fused `apply_dot`, hence the same bits.
    #[test]
    fn timed_op_solves_bit_identically_and_sees_every_product() {
        let s = Shared::build(Family::U1Chain, 14);
        let bare = solve_shared(&s.op);
        let tracer = Tracer::default();
        let timed = solve_shared_timed(&TimedOp::new(&s.op, &tracer, "product"));
        assert!(bare.converged && timed.converged);
        assert_eq!(bare.matvecs, timed.matvecs);
        let bits = |s: &Solve| s.eigenvalues.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&bare), bits(&timed));
        assert_eq!(tracer.spans().len(), timed.matvecs, "one span per product");
        let probe = SpeedProbe::new(2);
        let probed = solve_shared_timed(&TimedOp::probed(&s.op, &probe));
        assert_eq!(bits(&bare), bits(&probed));
        assert_eq!(probe.take().count(), probed.matvecs, "one sample per product");
    }

    #[test]
    fn timed_op_forwards_the_distributed_operator() {
        let d = Distributed::build(Family::DistU1Chain, 12, 2, 1);
        let bare = solve_dist(&d);
        let (tracer, op) = (Tracer::default(), d.op());
        let timed = solve_dist_timed(&TimedOp::new(&op, &tracer, "product"));
        assert!(bare.converged && timed.converged);
        // Accumulation order follows message arrival: equal to rounding.
        assert!((bare.eigenvalues[0] - timed.eigenvalues[0]).abs() < 1e-9);
        assert_eq!(tracer.spans().len(), timed.matvecs);
    }
}
