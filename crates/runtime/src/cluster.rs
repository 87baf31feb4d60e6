//! The simulated cluster: locales, SPMD execution, per-locale context.
//!
//! A run is a plain task set, the paper's `coforall`: [`Cluster::run`]
//! executes one task per locale (`coforall loc in Locales`),
//! [`Cluster::run_tasks`] several concurrent tasks per locale (what the
//! producer/consumer pipeline needs: all tasks of a run are genuinely
//! concurrent, since a producer makes no progress on a full channel
//! until a consumer — on another thread or another locale — drains it). Every `(locale, task)` slot gets a scoped thread that is
//! joined before the call returns, so nothing a `Cluster` starts outlives
//! the run that started it. The spawns cost ~0.2 ms per run
//! (`runtime.run_dispatch_us` in the repo benchmark) where a distributed
//! product takes tens of milliseconds; the workspace's one persistent
//! pool is the shared-memory one in `compat/rayon`.
//!
//! Failure is a property of the run: the first task to panic marks the
//! run failed and keeps its payload, every loop that waits on a sibling
//! ([`LocaleCtx::barrier_wait`], the producer/consumer product's wait for
//! a channel buffer or for a stream to close) polls
//! [`LocaleCtx::poll_failure`] and unwinds quietly once the
//! mark is set, and the call re-raises the first payload as thrown. A
//! panicking task fails its run; it does not hang it.
//!
//! ## Multiprocess execution
//!
//! Under `LS_TRANSPORT=multiprocess` (see [`crate::transport`]) each
//! locale is a separate OS process running the same SPMD program, and a
//! `Cluster` describes the *whole job* while executing only this rank's
//! share: [`Cluster::run`] runs the closure once (for this rank) and
//! returns a single-element vector, [`Cluster::run_tasks`] runs this
//! rank's task set, and [`LocaleCtx::barrier_wait`] crosses the real
//! cross-process barrier. Statistics are per process — each rank's
//! [`Cluster::stats`] records only its own operations.

use crate::barrier::SenseBarrier;
use crate::stats::{CommStats, StatsSnapshot};
use crate::transport;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Static description of the simulated machine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of locales (compute nodes).
    pub locales: usize,
    /// Cores per node of the machine being described (the paper's nodes
    /// have 128). It is the number of threads a locale runs a
    /// producer/consumer product on, and with one core a locale's only
    /// thread accumulates without atomics. [`Cluster::run_tasks`] itself
    /// starts what it is asked for.
    pub cores_per_locale: usize,
}

impl ClusterSpec {
    /// A machine of `locales` nodes with `cores_per_locale` cores each.
    pub fn new(locales: usize, cores_per_locale: usize) -> Self {
        assert!(locales >= 1 && cores_per_locale >= 1);
        Self { locales, cores_per_locale }
    }
}

/// What a task unwinds with when it finds its run already failed. Raised
/// through `resume_unwind`, so the panic hook prints nothing: the sibling
/// that failed first said what happened, and its payload is the run's.
struct SiblingFailed;

/// A simulated cluster. Executes SPMD closures — one scoped thread per
/// (locale, task) slot, joined before the run returns — and records
/// per-locale communication statistics.
pub struct Cluster {
    spec: ClusterSpec,
    stats: Vec<CommStats>,
    barrier: SenseBarrier,
    /// One run at a time; concurrent callers queue here. `barrier` is
    /// sized for the locales of a single run.
    running: Mutex<()>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("spec", &self.spec).finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds a cluster for `spec`; no thread exists until a run needs
    /// one. Under the multiprocess transport the spec must agree with the
    /// job: `spec.locales == LS_LOCALES`.
    pub fn new(spec: ClusterSpec) -> Self {
        if let Some(mp) = transport::active() {
            assert_eq!(
                spec.locales,
                mp.n_locales(),
                "ClusterSpec.locales must match the multiprocess job size ({})",
                mp.n_locales()
            );
        }
        Self {
            stats: (0..spec.locales).map(|_| CommStats::new()).collect(),
            barrier: SenseBarrier::new(spec.locales),
            spec,
            running: Mutex::new(()),
        }
    }

    /// The machine description this cluster was built from.
    pub fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// Number of locales in the job.
    pub fn n_locales(&self) -> usize {
        self.spec.locales
    }

    /// Per-locale statistics, indexed by locale. Multiprocess: only this
    /// rank's entry is populated (each process counts its own operations).
    pub fn stats(&self) -> &[CommStats] {
        &self.stats
    }

    /// Sum of all locales' statistics (multiprocess: this process's only).
    pub fn stats_total(&self) -> StatsSnapshot {
        self.stats
            .iter()
            .map(|s| s.snapshot())
            .fold(StatsSnapshot::default(), |acc, s| acc.merged(&s))
    }

    /// Zeroes every locale's statistics.
    pub fn reset_stats(&self) {
        for s in &self.stats {
            s.reset();
        }
    }

    /// Runs `f` once per locale (SPMD), each on a thread of its own, and
    /// returns the per-locale results in locale order.
    ///
    /// This is the analogue of the paper's
    /// `coforall loc in Locales do on loc { ... }`.
    ///
    /// Multiprocess: executes `f` once, for this process's rank, and
    /// returns a **single-element** vector — other locales' results live
    /// in other processes. On either backend that is one result per
    /// locale of [`crate::collective::hosted`]; callers needing all
    /// locales' results exchange them explicitly
    /// ([`crate::collective::allgather`]).
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&LocaleCtx<'_>) -> R + Sync,
    {
        self.run_impl(1, |ctx, _task| f(ctx))
    }

    /// Runs `tasks_per_locale` concurrent tasks on every locale (the
    /// paper's nested `coforall` — e.g. the producer/consumer pipeline's
    /// task set). All `locales × tasks_per_locale` tasks execute
    /// concurrently; `f` receives the locale context and the task index
    /// within the locale.
    pub fn run_tasks<F>(&self, tasks_per_locale: usize, f: F)
    where
        F: Fn(&LocaleCtx<'_>, usize) + Sync,
    {
        assert!(tasks_per_locale >= 1, "need at least one task per locale");
        self.run_impl(tasks_per_locale, f);
    }

    /// Runs one SPMD task set and returns the slots' results in slot
    /// order: slot `index` is task `index / locales` of locale
    /// `index % locales`. Multiprocess: this process hosts only its own
    /// rank's `tasks_per_locale` tasks, slot `index` is task `index`.
    /// Once every task has returned or unwound, the payload of the first
    /// one that panicked (if any) is re-raised.
    fn run_impl<R, F>(&self, tasks_per_locale: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&LocaleCtx<'_>, usize) -> R + Sync,
    {
        let locales = self.spec.locales;
        let rank = transport::active().map(|mp| mp.rank());
        let slots = if rank.is_some() { tasks_per_locale } else { locales * tasks_per_locale };
        let failed = AtomicBool::new(false);
        let call = |index: usize| {
            let (locale, task) = match rank {
                Some(rank) => (rank, index),
                None => (index % locales, index / locales),
            };
            let (stats, barrier) = (&self.stats[locale], &self.barrier);
            f(&LocaleCtx { locale, n_locales: locales, stats, barrier, failed: &failed }, task)
        };
        if slots == 1 {
            // Nothing runs beside it: in place, a panic propagates natively.
            return vec![call(0)];
        }
        // The mutex guards no data, so a poisoned one is as good as new.
        let one_run = self.running.lock().unwrap_or_else(PoisonError::into_inner);
        let first_panic = Mutex::new(None::<Box<dyn Any + Send>>);
        let task = |index: usize| match catch_unwind(AssertUnwindSafe(|| call(index))) {
            Ok(result) => Some(result),
            Err(payload) if payload.is::<SiblingFailed>() => None,
            Err(payload) => {
                first_panic.lock().expect("nothing panics holding it").get_or_insert(payload);
                // Relaxed: publishes nothing, the payload is read after the join.
                failed.store(true, Ordering::Relaxed);
                None
            }
        };
        let results: Vec<Option<R>> = std::thread::scope(|scope| {
            let spawn = |index| {
                std::thread::Builder::new()
                    .name(format!("ls-locale-{index}"))
                    .spawn_scoped(scope, move || task(index))
                    .expect("spawn locale task")
            };
            let handles: Vec<_> = (0..slots).map(spawn).collect();
            handles.into_iter().map(|h| h.join().expect("task panics are caught")).collect()
        });
        if let Some(payload) = first_panic.into_inner().expect("nothing panics holding it") {
            // Arrivals abandoned in `barrier_wait` must not reach the next run.
            self.barrier.reset();
            drop(one_run);
            // As thrown: callers see the real message and can downcast.
            resume_unwind(payload);
        }
        results.into_iter().map(|r| r.expect("no task failed")).collect()
    }
}

/// Execution context handed to each locale's SPMD task.
#[derive(Copy, Clone)]
pub struct LocaleCtx<'a> {
    locale: usize,
    n_locales: usize,
    stats: &'a CommStats,
    barrier: &'a SenseBarrier,
    failed: &'a AtomicBool,
}

impl<'a> LocaleCtx<'a> {
    /// This locale's index (`here.id` in Chapel).
    #[inline]
    pub fn locale(&self) -> usize {
        self.locale
    }

    /// Number of locales in the job.
    #[inline]
    pub fn n_locales(&self) -> usize {
        self.n_locales
    }

    /// This locale's statistics.
    #[inline]
    pub fn stats(&self) -> &'a CommStats {
        self.stats
    }

    /// The poll of every loop that waits on another task's progress (a
    /// barrier, a channel credit, a stream that has to close): what it
    /// waits for never comes once the run has failed. A task of this
    /// process panicked: unwinds quietly, and the run re-raises that
    /// task's payload. Multiprocess, a peer died:
    /// [`transport::poll_failure`] — so only call it strictly *between*
    /// two barriers of a product, where no peer can have exited cleanly.
    pub fn poll_failure(&self) {
        if self.failed.load(Ordering::Relaxed) {
            resume_unwind(Box::new(SiblingFailed));
        }
        transport::poll_failure();
    }

    /// Waits until every locale reaches the barrier, then returns — on
    /// both backends. In-process this is the sense-reversing thread
    /// barrier; multiprocess it is a real cross-process collective that
    /// also **flushes**: the channel batches, closes and credits this
    /// locale sent before the barrier have been applied at their
    /// destination once the barrier completes. At most one task per locale
    /// may wait per epoch.
    ///
    /// Failure model: in-process the wait polls [`Self::poll_failure`];
    /// multiprocess, a peer that dies while this rank waits is detected
    /// in milliseconds (socket EOF / missed heartbeats), the failure is
    /// attributed to that rank, and the job aborts with
    /// [`transport::TransportError`] semantics — an `ABORT` frame fans out
    /// so every survivor exits promptly, and the supervisor decides
    /// whether to relaunch from the latest checkpoint. Barrier crossings
    /// are also the reference points for deterministic fault injection
    /// (`LS_FAULT` counts barriers).
    pub fn barrier_wait(&self) {
        self.stats().record_barrier();
        if let Some(mp) = transport::active() {
            mp.barrier();
        } else {
            self.barrier.wait_polling(|| self.poll_failure());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_locales_in_order() {
        let cluster = Cluster::new(ClusterSpec::new(4, 2));
        let ids = cluster.run(|ctx| {
            assert_eq!(ctx.n_locales(), 4);
            ctx.locale()
        });
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let cluster = Cluster::new(ClusterSpec::new(3, 1));
        let phase = AtomicUsize::new(0);
        cluster.run(|ctx| {
            phase.fetch_add(1, Ordering::SeqCst);
            ctx.barrier_wait();
            assert_eq!(phase.load(Ordering::SeqCst), 3);
            ctx.barrier_wait();
            phase.fetch_add(1, Ordering::SeqCst);
            ctx.barrier_wait();
            assert_eq!(phase.load(Ordering::SeqCst), 6);
        });
        let total = cluster.stats_total();
        assert_eq!(total.barriers, 9);
    }

    #[test]
    fn stats_reset() {
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        cluster.run(|ctx| ctx.barrier_wait());
        assert_eq!(cluster.stats_total().barriers, 2);
        cluster.reset_stats();
        assert_eq!(cluster.stats_total().barriers, 0);
    }

    #[test]
    fn run_tasks_are_genuinely_concurrent() {
        // 3 locales × 4 tasks: every task must rendezvous at one barrier,
        // which only terminates if all 12 run concurrently (the guarantee
        // the producer/consumer pipeline depends on: producers block on
        // channel capacity until consumers drain).
        let cluster = Cluster::new(ClusterSpec::new(3, 2));
        let rendezvous = std::sync::Barrier::new(12);
        let hits: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(0)).collect();
        cluster.run_tasks(4, |ctx, task| {
            rendezvous.wait();
            hits[ctx.locale() * 4 + task].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn runs_of_changing_width_share_one_cluster() {
        // Many runs on one cluster, the width changing every time (1 task
        // per locale, then 3, then 1): each run sees exactly its own slots.
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        for round in 0..50usize {
            let ids = cluster.run(|ctx| ctx.locale() * 100 + round);
            assert_eq!(ids, vec![round, 100 + round]);
            let total = AtomicUsize::new(0);
            cluster.run_tasks(3, |_ctx, task| {
                total.fetch_add(task + 1, Ordering::SeqCst);
            });
            // 2 locales × (1 + 2 + 3).
            assert_eq!(total.load(Ordering::SeqCst), 12);
        }
    }

    #[test]
    fn panic_in_one_locale_propagates_and_team_survives() {
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                if ctx.locale() == 1 {
                    panic!("locale 1 exploded");
                }
            });
        }));
        assert_eq!(result.unwrap_err().downcast_ref::<&str>(), Some(&"locale 1 exploded"));
        // The cluster keeps serving runs after a failed one.
        let ids = cluster.run(|ctx| ctx.locale());
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn single_locale_cluster() {
        let cluster = Cluster::new(ClusterSpec::new(1, 4));
        let out = cluster.run(|ctx| {
            ctx.barrier_wait();
            42usize + ctx.locale()
        });
        assert_eq!(out, vec![42]);
    }
}
