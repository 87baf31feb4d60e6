//! The simulated cluster: locales, SPMD execution, per-locale context.
//!
//! Locale tasks run on a **persistent team** of worker threads owned by
//! the [`Cluster`]: threads are spawned lazily the first time a run needs
//! them and parked on a condvar between runs. A Lanczos solve issues one
//! distributed matrix-vector product per iteration — with spawn-per-call
//! execution that used to mean `locales × (1 + producers + consumers)`
//! `thread::spawn`s *per product*; with the team it means a wake-up.
//! [`Cluster::run`] executes one task per locale (the paper's
//! `coforall loc in Locales`), [`Cluster::run_tasks`] executes several
//! concurrent tasks per locale (what the producer/consumer pipeline
//! needs: all tasks of a run are genuinely concurrent, since producers
//! block on channel capacity until consumers drain).
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Static description of the simulated machine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of locales (compute nodes).
    pub locales: usize,
    /// Cores per node of the machine being described (the paper's nodes
    /// have 128), for reports. It sizes nothing: the task width of a
    /// product is `PcOptions::{producers, consumers}`.
    pub cores_per_locale: usize,
}

impl ClusterSpec {
    /// A machine of `locales` nodes with `cores_per_locale` cores each.
    pub fn new(locales: usize, cores_per_locale: usize) -> Self {
        assert!(locales >= 1 && cores_per_locale >= 1);
        Self { locales, cores_per_locale }
    }
}

/// One published SPMD run: a type-erased `(locale, task)` closure living
/// on the initiating caller's stack (the caller blocks until every slot
/// has finished, which keeps the borrow alive).
#[derive(Copy, Clone)]
struct TeamJob {
    data: *const (),
    call: unsafe fn(*const (), usize, usize),
    locales: usize,
    tasks_per_locale: usize,
    /// Multiprocess: every slot runs as this locale (this process's rank)
    /// and the slot index becomes the task index.
    fixed_locale: Option<usize>,
}

// SAFETY: the pointee outlives the job (completion protocol) and the
// closure behind it is `Sync`.
unsafe impl Send for TeamJob {}

struct TeamState {
    job: Option<TeamJob>,
    /// Bumped per run so a worker never re-runs a job it finished.
    epoch: u64,
    /// Slots of the current run not yet completed.
    pending: usize,
    /// Worker threads spawned so far.
    spawned: usize,
    /// First panic payload captured from any slot of the current run.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// The persistent worker team backing a [`Cluster`].
struct Team {
    state: Mutex<TeamState>,
    /// Workers park here between runs.
    work_cv: Condvar,
    /// The initiating caller parks here until `pending == 0`.
    done_cv: Condvar,
    /// Later concurrent callers park here until the job slot frees up.
    queue_cv: Condvar,
}

/// A simulated cluster. Executes SPMD closures — one persistent worker
/// thread per (locale, task) slot, parked between runs — and records
/// per-locale communication statistics.
pub struct Cluster {
    spec: ClusterSpec,
    stats: Vec<CommStats>,
    barrier: SenseBarrier,
    team: std::sync::Arc<Team>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("spec", &self.spec).finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds a cluster for `spec`. Worker threads spawn lazily on first
    /// use. Under the multiprocess transport the spec must agree with the
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
            team: std::sync::Arc::new(Team {
                state: Mutex::new(TeamState {
                    job: None,
                    epoch: 0,
                    pending: 0,
                    spawned: 0,
                    panic: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                queue_cv: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
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

    /// The execution context of one locale (exposed so long-lived engines
    /// can drive per-locale work outside a [`Cluster::run`] closure).
    fn ctx(&self, locale: usize) -> LocaleCtx<'_> {
        LocaleCtx {
            locale,
            n_locales: self.spec.locales,
            stats: &self.stats[locale],
            barrier: &self.barrier,
        }
    }

    /// Runs `f` once per locale (SPMD) on the persistent team — one
    /// parked worker thread per locale, woken for the run — and returns
    /// the per-locale results in locale order.
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
        if let Some(mp) = transport::active() {
            return vec![f(&self.ctx(mp.rank()))];
        }
        let n = self.spec.locales;
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        {
            let slots = SlotPtr(out.as_mut_ptr());
            self.run_impl(1, &|locale, _task| {
                let r = f(&self.ctx(locale));
                // SAFETY: slot `locale` is written by exactly one task,
                // and `out` outlives the run (the caller blocks in
                // `run_impl` until every slot completed).
                unsafe { *slots.get().add(locale) = Some(r) };
            });
        }
        out.into_iter().map(|r| r.expect("locale task completed")).collect()
    }

    /// Runs `tasks_per_locale` concurrent tasks on every locale (the
    /// paper's nested `coforall` — e.g. the producer/consumer pipeline's
    /// task set). All `locales × tasks_per_locale` tasks execute
    /// concurrently on the persistent team; `f` receives the locale
    /// context and the task index within the locale.
    pub fn run_tasks<F>(&self, tasks_per_locale: usize, f: F)
    where
        F: Fn(&LocaleCtx<'_>, usize) + Sync,
    {
        assert!(tasks_per_locale >= 1, "need at least one task per locale");
        self.run_impl(tasks_per_locale, &|locale, task| f(&self.ctx(locale), task));
    }

    /// Publishes one SPMD job to the team and blocks until every slot has
    /// completed, growing the worker set lazily to the run's width.
    /// Multiprocess: the team only hosts this rank's `tasks_per_locale`
    /// tasks (every slot pinned to the rank).
    fn run_impl(&self, tasks_per_locale: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        let locales = self.spec.locales;
        let fixed_locale = transport::active().map(|mp| mp.rank());
        let slots = match fixed_locale {
            Some(_) => tasks_per_locale,
            None => locales * tasks_per_locale,
        };
        if slots == 1 {
            // Single-slot run: no concurrency needed, execute in place
            // (panics propagate natively).
            return f(fixed_locale.unwrap_or(0), 0);
        }
        let job = TeamJob {
            data: &f as *const &(dyn Fn(usize, usize) + Sync) as *const (),
            call: call_team_job,
            locales,
            tasks_per_locale,
            fixed_locale,
        };
        {
            let mut st = self.team.state.lock().unwrap();
            // Top the persistent team up to this run's width; workers are
            // parked between runs, never torn down before Drop.
            while st.spawned < slots {
                let index = st.spawned;
                let team = std::sync::Arc::clone(&self.team);
                let handle = std::thread::Builder::new()
                    .name(format!("ls-locale-{index}"))
                    .spawn(move || team_worker(team, index))
                    .expect("spawn locale worker");
                self.handles.lock().unwrap().push(handle);
                st.spawned += 1;
            }
            // One run at a time per cluster; concurrent callers queue.
            while st.job.is_some() {
                st = self.team.queue_cv.wait(st).unwrap();
            }
            st.job = Some(job);
            st.epoch = st.epoch.wrapping_add(1);
            st.pending = slots;
            st.panic = None;
        }
        self.team.work_cv.notify_all();
        let payload = {
            let mut st = self.team.state.lock().unwrap();
            while st.pending != 0 {
                st = self.team.done_cv.wait(st).unwrap();
            }
            st.job = None;
            st.panic.take()
        };
        self.team.queue_cv.notify_one();
        if let Some(payload) = payload {
            // Re-raise with the original payload so callers (and
            // #[should_panic] tests) see the real message.
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        {
            let mut st = self.team.state.lock().unwrap();
            st.shutdown = true;
        }
        self.team.work_cv.notify_all();
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// The monomorphization-free shim [`TeamJob::call`] points at.
unsafe fn call_team_job(data: *const (), locale: usize, task: usize) {
    let f = *(data as *const &(dyn Fn(usize, usize) + Sync));
    f(locale, task)
}

/// A shareable raw slot pointer (accessor method so closures capture the
/// `Sync` wrapper, not the bare pointer field).
struct SlotPtr<R>(*mut Option<R>);
unsafe impl<R: Send> Send for SlotPtr<R> {}
unsafe impl<R: Send> Sync for SlotPtr<R> {}
impl<R> SlotPtr<R> {
    fn get(&self) -> *mut Option<R> {
        self.0
    }
}

/// The parked-worker loop: wait for a run that includes this slot,
/// execute it, report completion, park again.
fn team_worker(team: std::sync::Arc<Team>, index: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = team.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    Some(job) if st.epoch != last_epoch => {
                        last_epoch = st.epoch;
                        let width = match job.fixed_locale {
                            Some(_) => job.tasks_per_locale,
                            None => job.locales * job.tasks_per_locale,
                        };
                        break (index < width).then_some(job);
                    }
                    _ => st = team.work_cv.wait(st).unwrap(),
                }
            }
        };
        let Some(job) = job else { continue };
        let (locale, task) = match job.fixed_locale {
            Some(l) => (l, index),
            None => (index % job.locales, index / job.locales),
        };
        // SAFETY: the job (and the closure it points at) outlives this
        // call — the publisher blocks until `pending` reaches zero.
        let result =
            catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, locale, task) }));
        let mut st = team.state.lock().unwrap();
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.pending -= 1;
        if st.pending == 0 {
            team.done_cv.notify_all();
        }
    }
}

/// Execution context handed to each locale's SPMD task.
#[derive(Copy, Clone)]
pub struct LocaleCtx<'a> {
    locale: usize,
    n_locales: usize,
    stats: &'a CommStats,
    barrier: &'a SenseBarrier,
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

    /// Waits until every locale reaches the barrier, then returns — on
    /// both backends. In-process this is the sense-reversing thread
    /// barrier; multiprocess it is a real cross-process collective that
    /// also **flushes**: accumulates and channel messages this locale
    /// sent before the barrier are visible at their destination once the
    /// barrier completes. At most one task per locale may wait per epoch.
    ///
    /// Failure model (multiprocess): a peer that dies while this rank
    /// waits is detected in milliseconds (socket EOF / missed
    /// heartbeats), the failure is attributed to that rank, and the job
    /// aborts with [`transport::TransportError`] semantics — an `ABORT`
    /// frame fans out so every survivor exits promptly, and the
    /// supervisor decides whether to relaunch from the latest
    /// checkpoint. Barrier crossings are also the reference points for
    /// deterministic fault injection (`LS_FAULT` counts barriers).
    pub fn barrier_wait(&self) {
        self.stats().record_barrier();
        if let Some(mp) = transport::active() {
            mp.barrier();
        } else {
            self.barrier.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn team_is_reused_across_runs() {
        // Many runs on one cluster: the persistent team handles changing
        // widths (1 task, then 3, then 1) without respawning per call.
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
        assert!(result.is_err());
        // The team keeps serving runs after a panicked one.
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
