//! The producer/consumer matrix-vector product (paper Sec. 5.3, Fig. 5).
//!
//! Per locale, every thread streams over its share of the local rows *in
//! blocks* through the block generator
//! ([`SymmetrizedOperator::generate_off_diag_block`] — the differential
//! group walk on symmetrized sectors, one branch-free sweep over the
//! `|G|` images per emission, its scratch a [`WalkScratch`] per thread)
//! and routes every emission in the one pass that generates it: its owner
//! (`hash mod locales`, a mask for a power-of-two count), its key, its
//! value `amp · x[row]` and a push onto the owner's run. The key is the
//! state's sector rank where every part selects — the producer ranks, by
//! Lin's tables — and the state itself elsewhere (see `crate::basis`).
//! Everything the sink would otherwise recompute per emission is taken
//! once a product and moved into it by value: the owner map (`OwnerMap`,
//! the locale count's power-of-two test decided) and the Lin view. An
//! emission then costs one hash, the view's table loads and one staged
//! store. A block's diagonal goes into `y` before its emissions. After a
//! block the ABFT tally notes the block's values run by run, the local run
//! is resolved and added on the spot and the others ship in
//! capacity-sized batches through [`PairChannel`]s — one per
//! (source, destination) pair, each a ring of two buffers, so a producer
//! fills one batch while the previous one is being resolved; at the
//! default capacity a block's remote run fits about one batch. The same
//! threads drain the channels addressed to their locale and resolve each
//! batch where it lies against the *local* basis part — on a product
//! sector a select per pair and nothing else, elsewhere a hash-index
//! lookup — and accumulate into `y`. Row generation, transfer and
//! accumulation therefore overlap — the defining contrast with the
//! bulk-synchronous baseline in `ls-baseline`. There is
//! one drain step; [`PcOptions::deterministic`] only decides whether a
//! received batch is accumulated on arrival or in a fixed order after the
//! drain (on one thread a locale, or the order would not be fixed). The
//! engine computes the product and nothing else: a Lanczos step's `α_j`
//! is the locale-ordered [`ls_eigen::KrylovVec::dot`] over the finished
//! parts.
//!
//! **Threads.** A product is one [`Cluster::run_tasks`] call, the paper's
//! `coforall`: `cores_per_locale` scoped threads per locale (one under
//! [`PcOptions::deterministic`]) that end with the product, all alike —
//! the paper splits a node's cores into producer and consumer tasks, and
//! its Sec. 6.3 prices the cores that split leaves waiting. Thread `t` of
//! `T` produces rows `[t·n/T, (t+1)·n/T)` of the locale's `n` and runs the
//! drain step on the locale's inbox after every block and wherever it
//! would otherwise wait for a free channel buffer — it serves its own
//! inbox first — then drains to completion. The last thread of a locale to
//! finish producing closes its outgoing channels, the last to finish
//! draining crosses the barrier. Multiprocess, a product crosses one more
//! after re-arming its channels, so the next product's batches find every
//! receiver reset: two barriers a product. Nothing blocks: every wait is the
//! engine's one loop (`Task::wait`: try, drain, back off), which polls
//! [`LocaleCtx::poll_failure`], so a task that panics fails the product
//! for all of them and `apply` re-raises what it threw. A locale's only
//! thread is the only writer of its part of `y` and accumulates with plain
//! adds; several accumulate with CAS loops.
//!
//! **Three tight loops.** Around the generator a thread's per-element work
//! is three loops, each of which picks plain or CAS adds once, not per
//! element, and writes through the part's lanes
//! ([`ls_runtime::PartLanes`], taken once a product from the window; each
//! add is its bounds check and its lanes' arithmetic):
//! - *Resolve.* [`DistSpinBasis::resolve_batch`] hands each pair of the
//!   local run or of a drained batch, in batch order, straight to the add.
//! - *Diagonal.* One loop over a block's `diag`, `x` and lanes adds
//!   `diag[k] · x[k]` (zero where the diagonal is, whatever `x` holds) and,
//!   under ABFT, notes the product in the tally in the same pass.
//! - *Tally.* [`crate::matvec::LocalTally::note`] sums a run four values a
//!   step, the `k`-th in lane `k % 4`, so its checksums keep their bits.
//!
//! Every add into `y` keeps its order, so the product keeps its bits.
//!
//! Channel hand-off follows the paper's flag protocol ([`ls_runtime::remote`]).
//! Buffers are reused across products: a [`crate::DistOp`] owns one
//! `PcEngine` for its lifetime — the paper reuses its `RemoteBuffer`s
//! across the whole Lanczos run to avoid reallocation.

use crate::basis::{missing_state, DistSpinBasis};
use crate::matvec::{validate_shapes, AbftTally, LocalTally};
use ls_basis::{SymmetrizedOperator, WalkScratch};
use ls_kernels::combinadics::{LinRanker, LinTables};
use ls_kernels::{hash64_01, Scalar};
use ls_runtime::{
    collective, AtomicAccumWindow, Cluster, DistVec, LocaleCtx, PairChannel, PartLanes,
};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Rows a thread generates and routes at a time: one loop over their
/// diagonal, one [`SymmetrizedOperator::generate_off_diag_block`]
/// call (which runs the group's networks once per source row,
/// `g(α ⊕ m) = g(α) ⊕ π_g(m)`, and one sweep per matrix element;
/// `ls_basis::state_info_batch` is its oracle) whose sink keys and stages
/// every emission, then the tally of the block's runs, one resolve-and-add
/// of the local run and the shipping of every full batch — and the longest
/// a thread leaves its inbox unattended. On the 20-site U(1) ring a block
/// emits ≈ 5 400 pairs, ≈ 2 700 to each of 2 locales: about one batch of
/// the default [`PcOptions::capacity`].
const GEN_BLOCK: usize = 512;

/// The owner of a state, [`ls_kernels::locale_idx_of`] (the definition,
/// and the oracle of this map's test) with the locale count's
/// power-of-two test taken once a product: a mask, or an exact `%`.
#[derive(Copy, Clone, Debug)]
enum OwnerMap {
    Mask(u64),
    Modulo(u64),
}

impl OwnerMap {
    fn new(locales: usize) -> Self {
        let n = locales as u64;
        if n.is_power_of_two() {
            Self::Mask(n - 1)
        } else {
            Self::Modulo(n)
        }
    }

    #[inline(always)]
    fn of(self, state: u64) -> usize {
        let hash = hash64_01(state);
        (match self {
            Self::Mask(mask) => hash & mask,
            Self::Modulo(n) => hash % n,
        }) as usize
    }
}

/// A memoized diagonal, keyed by operator fingerprint, part address, length.
type DiagMemo<S> = Option<(((u64, usize), usize, usize), Arc<Vec<S>>)>;

/// Tuning knobs of the producer/consumer pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PcOptions {
    /// Capacity of each channel buffer, in `(key, coefficient)` pairs.
    /// The default, 2 048 (32 KiB a buffer), holds about one block's remote
    /// run to a destination (`GEN_BLOCK` rows), so a producer ships a
    /// block in one batch and seldom waits for its peer to free one of the
    /// ring's two buffers. On the 20-site U(1) ring (2 locales × 1 core,
    /// 2 vCPUs) a locale's shipping, waits included, fell from 3.8–5.7 ms
    /// a product at 512 (five batches a block) to 0.8–1.2 ms, and the
    /// product to ×0.79–1.03 of its time, median ×0.92, over 4 alternating
    /// rounds. 4 096 and 8 192 read ×0.90–0.99 of 2 048 in the same probe,
    /// at two and four times the channel memory.
    pub capacity: usize,
    /// Deterministic accumulation order: a locale runs one thread, and the
    /// drain step leaves received batches *stashed* (communication still
    /// overlaps generation), applying them only after the locale's rows
    /// are produced — local contributions in row order first, then each
    /// source locale's batches in source order. The result is
    /// bit-identical across runs, **across transport backends and across
    /// `cores_per_locale`** (the arrival-ordered default is deterministic
    /// only to rounding). Costs the stash memory (all remote contributions
    /// of a product buffered at once — 15.6 MB per product on the
    /// benchmark's 20-site sector, which is why it is not the default),
    /// the overlap of accumulation and every core of a locale but one.
    pub deterministic: bool,
}

impl Default for PcOptions {
    fn default() -> Self {
        Self { capacity: 2048, deterministic: false }
    }
}

/// A reusable producer/consumer matvec engine: owns the `L × L` buffer
/// channels so repeated products (e.g. every Lanczos iteration) reuse the
/// same staging memory. [`crate::DistOp`] sizes one from its cluster.
pub(crate) struct PcEngine<S: Scalar> {
    n_locales: usize,
    opts: PcOptions,
    /// Row-major `[source locale][destination locale]`, transport-aware
    /// ([`PairChannel`]: in-process buffers or cross-process framed
    /// channels, selected by the active backend).
    channels: Vec<PairChannel<(u64, S)>>,
    /// Guards the channels against overlapping products: `apply` must be
    /// `&self` (it backs [`ls_eigen::KrylovOp`]), so exclusivity is
    /// enforced at runtime instead of by the borrow checker.
    in_use: AtomicBool,
    /// Per locale: the diagonal over its rows, memoized across products as
    /// `ls_core`'s scratch pool does (8 B a state against 3 ms a product).
    diag: Vec<Mutex<DiagMemo<S>>>,
    /// Test seam: the staged value with this running index (over the runs
    /// a producer tallies) is perturbed between tally and delivery.
    #[cfg(test)]
    perturb_at: Mutex<Option<usize>>,
}

impl<S: Scalar> PcEngine<S> {
    /// Builds the reusable channel grid. Under the multiprocess transport
    /// this is SPMD-collective: every rank must construct its engines in
    /// the same program order.
    pub(crate) fn new(n_locales: usize, opts: PcOptions) -> Self {
        assert!(n_locales >= 1, "need at least one locale");
        let opts = PcOptions { capacity: opts.capacity.max(1), ..opts };
        Self {
            n_locales,
            opts,
            channels: PairChannel::grid(n_locales, opts.capacity),
            in_use: AtomicBool::new(false),
            diag: (0..n_locales).map(|_| Mutex::new(None)).collect(),
            #[cfg(test)]
            perturb_at: Mutex::new(None),
        }
    }

    #[inline]
    fn channel(&self, src: usize, dest: usize) -> &PairChannel<(u64, S)> {
        &self.channels[src * self.n_locales + dest]
    }

    /// The diagonal of `op` over `states`, locale `me`'s part: computed by
    /// the first thread to ask (by [`SymmetrizedOperator::diagonal_block`],
    /// so bit-identical to inline evaluation), then served from the memo
    /// while operator and part stay the same.
    fn diagonal(&self, me: usize, op: &SymmetrizedOperator<S>, states: &[u64]) -> Arc<Vec<S>> {
        let key = (op.diag_fingerprint(), states.as_ptr() as usize, states.len());
        let mut memo = self.diag[me].lock().expect("no producer panics holding it");
        match &*memo {
            Some((known, values)) if *known == key => Arc::clone(values),
            _ => {
                let mut values = vec![S::ZERO; states.len()];
                op.diagonal_block(states, &mut values);
                Arc::clone(&memo.insert((key, Arc::new(values))).1)
            }
        }
    }

    /// One distributed product `y = H x`.
    ///
    /// The engine's channels hold per-product state, so products must not
    /// overlap: concurrent `apply` calls on one engine are detected and
    /// rejected (use one engine per concurrent product instead).
    ///
    /// # Panics
    /// Panics when `basis`, `x` or `y` are not distributed over `cluster`
    /// (the cluster the engine was sized for), or when another `apply` is
    /// still running on this engine.
    pub(crate) fn apply(
        &self,
        cluster: &Cluster,
        op: &SymmetrizedOperator<S>,
        basis: &DistSpinBasis,
        x: &DistVec<S>,
        y: &mut DistVec<S>,
    ) {
        validate_shapes(cluster, basis, x, y);
        assert!(
            !self.in_use.swap(true, Ordering::Acquire),
            "PcEngine::apply called while another product is in flight on this engine"
        );
        for part in y.parts_mut() {
            part.fill(S::ZERO);
        }
        // ABFT checksum vectors (`LS_INTEGRITY=full`): producers tally
        // every contribution they generate, per destination; after the
        // product the realized part sums must match. Catches endpoint
        // corruption (contributions lost, duplicated or altered before
        // they reach `y`) that the wire CRCs cannot see.
        let abft = ls_runtime::IntegrityMode::from_env()
            .full()
            .then(|| AbftTally::new(self.n_locales));
        let win = AtomicAccumWindow::new(y);
        let threads = if self.opts.deterministic { 1 } else { cluster.spec().cores_per_locale };
        // Per-locale countdowns: the last thread to finish producing closes
        // the locale's outgoing channels (releasing every drain that waits
        // on them), and the last to finish draining crosses the cluster
        // barrier on the locale's behalf: a join-then-barrier per locale
        // without a second level of threads.
        let countdowns = || (0..self.n_locales).map(|_| AtomicUsize::new(threads)).collect();
        let still_producing: Vec<AtomicUsize> = countdowns();
        let still_draining: Vec<AtomicUsize> = countdowns();
        cluster.run_tasks(threads, |ctx, thread| {
            let me = ctx.locale();
            let (y, abft) = (win.lanes(me), abft.as_ref());
            let task = Task { engine: self, ctx, op, basis, x, y, abft, thread, threads };
            let mut inbox = Inbox {
                stash: vec![Vec::new(); self.n_locales],
                open: (0..self.n_locales).collect(),
                idx: Vec::new(),
            };
            task.produce(&mut inbox);
            if still_producing[me].fetch_sub(1, Ordering::AcqRel) == 1 {
                for dest in 0..self.n_locales {
                    self.channel(me, dest).close();
                }
            }
            task.drain_to_completion(&mut inbox);
            if still_draining[me].fetch_sub(1, Ordering::AcqRel) == 1 {
                ctx.barrier_wait();
            }
        });
        drop(win);
        // Re-arm the channels for the next product (buffer reuse) and
        // release the engine *before* the checksum verification: if it
        // unwinds, the engine is already back in a reusable state for
        // the caller's resume.
        for ch in &self.channels {
            ch.reset();
        }
        // No rank starts its next product before every rank has re-armed:
        // a batch or a close arriving ahead of the reset would fail it
        // ("reset with unconsumed data") or be cleared by it, leaving the
        // drain to wait forever. In process the run's join already
        // ordered that, and the barrier is a no-op.
        collective::barrier();
        self.in_use.store(false, Ordering::Release);
        if let Some(abft) = &abft {
            abft.verify(&*y);
        }
    }
}

/// What a thread carries from drain step to drain step.
struct Inbox<S> {
    /// Per source: the batches held back under [`PcOptions::deterministic`].
    stash: Vec<Vec<(u64, S)>>,
    /// The sources that have not closed and drained yet.
    open: Vec<usize>,
    /// Scratch of [`DistSpinBasis::resolve_batch`].
    idx: Vec<u32>,
}

/// One thread's view of the product it works on.
struct Task<'a, S: Scalar> {
    engine: &'a PcEngine<S>,
    ctx: &'a LocaleCtx<'a>,
    op: &'a SymmetrizedOperator<S>,
    basis: &'a DistSpinBasis,
    x: &'a DistVec<S>,
    /// This locale's part of `y`.
    y: PartLanes<'a, S>,
    abft: Option<&'a AbftTally>,
    /// This thread's index among the `threads` of its locale.
    thread: usize,
    threads: usize,
}

impl<S: Scalar> Task<'_, S> {
    /// Resolves the keys of `pairs`, all owned by this locale, and adds
    /// the values in order: one loop, with plain adds where the locale's
    /// only thread is the only writer of its part of `y` and CAS adds
    /// otherwise.
    fn accumulate(&self, pairs: &[(u64, S)], idx: &mut Vec<u32>) {
        let (me, y) = (self.ctx.locale(), self.y);
        if self.threads == 1 {
            self.basis.resolve_batch(me, pairs, idx, move |i, val| y.add_exclusive(i, val));
        } else {
            self.basis.resolve_batch(me, pairs, idx, move |i, val| y.fetch_add(i, val));
        }
    }

    /// `y[rows.start + k] += diag[k] · x[k]` over a block's `rows`, and
    /// every product noted in `tally`: one loop, its adds chosen as in
    /// [`Self::accumulate`].
    fn add_diagonal(
        &self,
        rows: Range<usize>,
        diag: &[S],
        x: &[S],
        tally: Option<&mut LocalTally>,
    ) {
        let (me, y, at) = (self.ctx.locale(), self.y, rows.start);
        let (diag, x) = (&diag[rows.clone()], &x[rows]);
        if self.threads == 1 {
            diagonal_sweep(me, diag, x, tally, move |k, val| y.add_exclusive(at + k, val));
        } else {
            diagonal_sweep(me, diag, x, tally, move |k, val| y.fetch_add(at + k, val));
        }
    }

    /// Generates the rows of this thread's contiguous share of the local
    /// basis part in blocks and routes every emission as it is generated,
    /// keyed the way the basis says ([`DistSpinBasis::key_ranks`]): a
    /// sector rank comes from the Lin view taken once, here, and moved
    /// into the sink by value.
    fn produce(&self, inbox: &mut Inbox<S>) {
        match self.basis.key_ranks().map(LinTables::ranker) {
            Some(LinRanker::One(lin)) => self.produce_keyed(inbox, move |rep| lin.rank(rep)),
            Some(LinRanker::Two(lin)) => self.produce_keyed(inbox, move |rep| lin.rank(rep)),
            None => self.produce_keyed(inbox, Some),
        }
    }

    /// [`Self::produce`] with the key of a generated state (`None`: not in
    /// the sector). Per block: the diagonal is added in one loop, then the
    /// generator's sink routes each emission in place — owner, key,
    /// `amp · x[row]`, push onto the owner's run — after which every run's
    /// fresh values are tallied, the local run is resolved and added and
    /// the others ship their full batches. `inbox` is served after every
    /// block and while a channel is full.
    fn produce_keyed(&self, inbox: &mut Inbox<S>, key: impl Fn(u64) -> Option<u64> + Copy) {
        let me = self.ctx.locale();
        let (capacity, locales) = (self.engine.opts.capacity, self.engine.n_locales);
        let owners = OwnerMap::new(locales);
        let states = self.basis.states().part(me);
        let orbits = self.basis.orbit_sizes().part(me);
        let x_local = self.x.part(me);
        let lo = self.thread * states.len() / self.threads;
        let hi = (self.thread + 1) * states.len() / self.threads;

        let mut tally = self.abft.map(AbftTally::local);
        let diag = self.engine.diagonal(me, self.op, states);
        let mut walk = WalkScratch::default();
        // Per destination: the `(key, amp · x[source])` pairs staged and not
        // yet shipped — the tail of earlier blocks, short of a batch, then
        // this block's run — and where that run starts.
        let mut runs: Vec<Vec<(u64, S)>> = vec![Vec::new(); locales];
        let mut fresh = vec![0usize; locales];
        let mut idx = Vec::new();
        for b0 in (lo..hi).step_by(GEN_BLOCK) {
            let b1 = (b0 + GEN_BLOCK).min(hi);
            self.add_diagonal(b0..b1, &diag, x_local, tally.as_mut());
            fresh.iter_mut().zip(&runs).for_each(|(at, run)| *at = run.len());
            let (rows, row_orbits, x_rows) =
                (&states[b0..b1], &orbits[b0..b1], &x_local[b0..b1]);
            // By value: the owner map and the key's view sit in the sink's
            // own frame, one load from where it is called.
            let staged = &mut runs[..];
            self.op.generate_off_diag_block(rows, row_orbits, &mut walk, move |k, rep, amp| {
                let Some(key) = key(rep) else {
                    missing_state(me, rep, self.basis.sector());
                };
                staged[owners.of(rep)].push((key, amp * x_rows[k]));
            });
            for (dest, (run, &at)) in runs.iter_mut().zip(&fresh).enumerate() {
                if let Some(t) = &mut tally {
                    let fresh = &run[at..];
                    t.note(dest, fresh.len(), |k| fresh[k].1);
                }
                #[cfg(test)]
                self.engine.perturb(&mut run[at..]);
                if dest == me {
                    // Local contributions skip the buffers entirely (the
                    // PGAS "here" fast path) but resolve like a batch.
                    self.accumulate(run, &mut idx);
                    run.clear();
                    continue;
                }
                // Whole batches ship straight from the run: every batch but
                // a product's last is full, whatever the block size.
                let full = run.len() / capacity * capacity;
                run[..full].chunks_exact(capacity).for_each(|b| self.ship(dest, b, inbox));
                run.drain(..full);
            }
            // Everything that arrived meanwhile: the peers' buffers come
            // free before they next look for one.
            while self.drain_once(inbox) {}
        }
        for (dest, tail) in runs.iter().enumerate().filter(|(_, tail)| !tail.is_empty()) {
            self.ship(dest, tail, inbox);
        }
        if let (Some(abft), Some(t)) = (self.abft, &tally) {
            abft.merge(t);
        }
    }

    /// Claims a buffer of the channel to `dest` — serving `inbox` while
    /// the locale there holds them all — and publishes `pairs`.
    fn ship(&self, dest: usize, pairs: &[(u64, S)], inbox: &mut Inbox<S>) {
        let ch = self.engine.channel(self.ctx.locale(), dest);
        let turn = self.wait(inbox, |_| ch.try_claim());
        ch.send(turn, self.ctx.stats(), true, pairs);
    }

    /// The engine's one wait loop: until `ready` yields, run the drain
    /// step, and back off when that found nothing to do either.
    fn wait<R>(
        &self,
        inbox: &mut Inbox<S>,
        mut ready: impl FnMut(&Inbox<S>) -> Option<R>,
    ) -> R {
        let mut idle_spins = 0u32;
        loop {
            if let Some(result) = ready(inbox) {
                return result;
            }
            if self.drain_once(inbox) {
                idle_spins = 0;
                continue;
            }
            // Spin briefly, then yield: oversubscribed simulated locales
            // must let the thread run that this one waits for.
            idle_spins = idle_spins.saturating_add(1);
            if idle_spins < 8 {
                std::hint::spin_loop();
            } else {
                // A peer that stopped feeding or draining us would leave
                // this loop spinning forever, so surface the cause.
                // Two distinct failures hide behind the one call, with
                // different exits: a task of this process that
                // *panicked* (its channels never close, its buffers are
                // never freed) takes its siblings down with it and the
                // product re-raises what it threw; a *dead* peer is
                // fail-stop (`TransportError::PeerFailed`, exit 114, and
                // the supervisor relaunches the job).
                self.ctx.poll_failure();
                std::thread::yield_now();
            }
        }
    }

    /// The drain step: one non-blocking pass over the channels addressed
    /// to this locale, resolving and accumulating what arrived into the
    /// local part of `y` — or, under
    /// [`PcOptions::deterministic`], taking it just as eagerly (producers
    /// never stall on flow control) but leaving it *stashed* per source.
    /// Returns whether anything arrived or closed.
    fn drain_once(&self, inbox: &mut Inbox<S>) -> bool {
        let Inbox { stash, open, idx } = inbox;
        let mut progress = false;
        open.retain(|&src| {
            let ch = self.engine.channel(src, self.ctx.locale());
            let (stats, remote) = (self.ctx.stats(), src != self.ctx.locale());
            let mut take = |batch: &[(u64, S)]| {
                progress = true;
                if self.engine.opts.deterministic {
                    stash[src].extend_from_slice(batch);
                } else {
                    self.accumulate(batch, idx);
                }
            };
            // A batch arrives through `try_recv`, or through a drain check
            // that raced with a final publish and took the data itself
            // (the next pass then observes the close).
            ch.try_recv(stats, remote, &mut take)
                || !ch.drained_after_failed_recv(stats, remote, &mut take)
        });
        progress
    }

    /// The end of a thread's product: drains until every source closed.
    /// Under [`PcOptions::deterministic`] the stashes are applied then —
    /// this locale's channel to itself closed too, which happens after
    /// its row-ordered local adds — source by source in locale order, FIFO
    /// within each source. Batch boundaries and contents are identical on
    /// every backend and core count (one thread a locale, fixed capacity),
    /// so that accumulation order is too.
    fn drain_to_completion(&self, inbox: &mut Inbox<S>) {
        self.wait(inbox, |inbox| inbox.open.is_empty().then_some(()));
        let Inbox { stash, idx, .. } = inbox;
        stash.iter().for_each(|batches| self.accumulate(batches, idx));
    }
}

/// The loop of [`Task::add_diagonal`]: `add(k, diag[k] · x[k])` for
/// every row `k` of a block — a zero diagonal adds zero, whatever `x`
/// holds — and, under ABFT, the product noted for locale `me`, in the
/// same pass.
#[inline(always)]
fn diagonal_sweep<S: Scalar>(
    me: usize,
    diag: &[S],
    x: &[S],
    tally: Option<&mut LocalTally>,
    add: impl Fn(usize, S),
) {
    let x = &x[..diag.len()];
    let term = move |k: usize| {
        let product = diag[k] * x[k];
        add(k, if diag[k] != S::ZERO { product } else { S::ZERO });
        product
    };
    match tally {
        Some(t) => t.note(me, diag.len(), term),
        None => (0..diag.len()).for_each(|k| {
            term(k);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::enumerate_dist;

    impl<S: Scalar> PcEngine<S> {
        /// The test seam of `produce`: counts the staged values a producer
        /// tallied down to the one to alter.
        pub(super) fn perturb(&self, run: &mut [(u64, S)]) {
            let mut at = self.perturb_at.lock().unwrap();
            match *at {
                Some(i) if i < run.len() => {
                    run[i].1 += S::from_reals([1e-3, 0.0]);
                    *at = None;
                }
                Some(i) => *at = Some(i - run.len()),
                None => {}
            }
        }
    }
    use ls_basis::SectorSpec;
    use ls_expr::builders::heisenberg;
    use ls_runtime::ClusterSpec;
    use ls_symmetry::lattice::{chain_bonds, chain_group};

    fn setup(
        n: usize,
        locales: usize,
    ) -> (Cluster, SymmetrizedOperator<f64>, DistSpinBasis, DistVec<f64>) {
        setup_on(symmetrized_ring(n), ClusterSpec::new(locales, 2))
    }

    /// The fully symmetrized ring of `n` sites at half filling.
    fn symmetrized_ring(n: usize) -> SectorSpec {
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap()
    }

    fn setup_on(
        sector: SectorSpec,
        spec: ClusterSpec,
    ) -> (Cluster, SymmetrizedOperator<f64>, DistSpinBasis, DistVec<f64>) {
        let n = sector.n_sites() as usize;
        let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let cluster = Cluster::new(spec);
        let basis = enumerate_dist(&cluster, &sector, 3);
        let x = DistVec::from_parts(
            basis
                .states()
                .parts()
                .iter()
                .map(|p| p.iter().map(|&s| ((s as f64) * 0.11).cos()).collect())
                .collect(),
        );
        (cluster, op, basis, x)
    }

    #[test]
    fn a_value_altered_after_the_tally_fails_the_product_as_abft_corruption() {
        // cores = 1: plain adds; cores = 2: two threads a locale, atomic
        // adds. Value 5 stays local or ships, depending on the hash —
        // either way it never matches its tally. The symmetrized ring
        // ships states its owner searches; the U(1) ring ships sector
        // ranks its owner selects.
        let u1 = SectorSpec::with_weight(12, 6).unwrap();
        for (sector, cores) in [symmetrized_ring(12), u1].iter().flat_map(|s| [(s, 1), (s, 2)])
        {
            let (cluster, op, basis, x) = setup_on(sector.clone(), ClusterSpec::new(2, cores));
            assert_eq!(basis.key_ranks().is_some(), sector.group().order() == 1);
            let lens = basis.states().lens();
            let opts = PcOptions { capacity: 16, ..PcOptions::default() };
            let engine = PcEngine::<f64>::new(2, opts);
            *engine.perturb_at.lock().unwrap() = Some(5);
            let mut y = DistVec::<f64>::zeros(&lens);
            let product = std::panic::AssertUnwindSafe(|| {
                engine.apply(&cluster, &op, &basis, &x, &mut y);
            });
            let payload =
                std::panic::catch_unwind(product).expect_err("the tally must catch it");
            match payload.downcast_ref::<ls_runtime::TransportError>() {
                Some(ls_runtime::TransportError::Corruption { frame, .. }) => {
                    assert_eq!(frame, "abft", "cores={cores}")
                }
                other => panic!("cores={cores}: unexpected payload {other:?}"),
            }
            // A fresh engine multiplies correctly.
            let mut y_ref = DistVec::<f64>::zeros(&lens);
            crate::matvec::matvec_naive(&cluster, &op, &basis, &x, &mut y_ref);
            PcEngine::new(2, opts).apply(&cluster, &op, &basis, &x, &mut y);
            for l in 0..2 {
                for (a, b) in y.part(l).iter().zip(y_ref.part(l)) {
                    assert!((a - b).abs() < 1e-10, "cores={cores}");
                }
            }
        }
    }

    #[test]
    fn the_owner_map_is_locale_idx_of() {
        // Every member of the 12-site sector at half filling, and the ends
        // of the word.
        let states = (0..1u64 << 12).filter(|s| s.count_ones() == 6);
        let states: Vec<u64> = states.chain([0, 1 << 63, u64::MAX]).collect();
        assert_eq!(states.len(), 924 + 3);
        for locales in 1..=9 {
            let owners = OwnerMap::new(locales);
            for &s in &states {
                assert_eq!(
                    owners.of(s),
                    ls_kernels::locale_idx_of(s, locales),
                    "{s:#x} on {locales}"
                );
            }
        }
    }

    #[test]
    fn engine_reuse_is_deterministic() {
        let (cluster, op, basis, x) = setup(12, 3);
        let lens = basis.states().lens();
        let engine =
            PcEngine::<f64>::new(3, PcOptions { capacity: 16, ..PcOptions::default() });
        let mut y1 = DistVec::<f64>::zeros(&lens);
        engine.apply(&cluster, &op, &basis, &x, &mut y1);
        let mut y2 = DistVec::<f64>::zeros(&lens);
        engine.apply(&cluster, &op, &basis, &x, &mut y2);
        for l in 0..3 {
            for (a, b) in y1.part(l).iter().zip(y2.part(l)) {
                assert!((a - b).abs() < 1e-12);
            }
        }
        // And it matches the naive formulation.
        let mut y3 = DistVec::<f64>::zeros(&lens);
        crate::matvec::matvec_naive(&cluster, &op, &basis, &x, &mut y3);
        for l in 0..3 {
            for (a, b) in y1.part(l).iter().zip(y3.part(l)) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn tiny_capacity_still_correct() {
        let (cluster, op, basis, x) = setup(10, 4);
        let lens = basis.states().lens();
        let mut y_pc = DistVec::<f64>::zeros(&lens);
        let engine = PcEngine::new(4, PcOptions { capacity: 1, ..PcOptions::default() });
        engine.apply(&cluster, &op, &basis, &x, &mut y_pc);
        let mut y_ref = DistVec::<f64>::zeros(&lens);
        crate::matvec::matvec_naive(&cluster, &op, &basis, &x, &mut y_ref);
        for l in 0..4 {
            for (a, b) in y_pc.part(l).iter().zip(y_ref.part(l)) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "locale 0: generated state")]
    fn a_state_outside_a_rank_keyed_sector_panics_as_missing() {
        // A U(1) operator on the spinful-fermion basis of the same word:
        // bond (3, 4) moves a particle between the species, so the
        // producer's checked Lin rank meets a word with the right total
        // and the wrong per-species counts.
        let kernel = heisenberg(&chain_bonds(8), 1.0).to_kernel(8).unwrap();
        let u1 = SectorSpec::with_weight(8, 4).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &u1).unwrap();
        let cluster = Cluster::new(ClusterSpec::new(1, 1));
        let sector = SectorSpec::spinful_fermions(4, 2, 2).unwrap();
        let basis = enumerate_dist(&cluster, &sector, 2);
        assert!(basis.key_ranks().is_some(), "keys are sector ranks");
        let x = DistVec::from_parts(vec![vec![1.0f64; basis.local_dim(0)]]);
        let mut y = DistVec::<f64>::zeros(&basis.states().lens());
        PcEngine::new(1, PcOptions::default()).apply(&cluster, &op, &basis, &x, &mut y);
    }
}
