//! The multiprocess job supervisor: spawn, reap, classify, relaunch.
//!
//! [`crate::transport::launch_if_requested`] lands here when
//! `LS_TRANSPORT=multiprocess` is requested by a process that is not yet
//! a worker. Where the old launcher spawned the workers once and
//! propagated the first failure, the supervisor owns the job's whole
//! lifecycle:
//!
//! * **Reap + classify.** Every worker exit is classified (see
//!   [`FailureClass`]): clean, orphaned watchdog (124), protocol
//!   desync/timeout (113), failover after a peer death (114), a signal
//!   crash, or some other nonzero code. The *culprit* of a failed round
//!   is the worker with the most causal class — a crash outranks a
//!   desync outranks collateral failovers — so the diagnostic names the
//!   rank that actually died, not the first rank that noticed.
//! * **Prompt teardown.** On the first abnormal exit the supervisor
//!   gives the survivors a short grace period (the `ABORT` fan-out
//!   usually beats it), then kills and reaps whatever is left and
//!   removes the rendezvous directory. No `ls-mp-*` artifact outlives
//!   the round on any exit path.
//! * **Bounded relaunch.** Abnormal rounds are retried up to
//!   `LS_MP_MAX_RESTARTS` times (default 2) with exponential backoff
//!   starting at `LS_MP_BACKOFF_MS` (default 250). Each relaunch runs
//!   the identical command line with `LS_MP_RESTART_COUNT` incremented
//!   and a fresh rendezvous directory; programs that save checkpoints
//!   (`ls-eigen`'s thick restart) resume from the latest valid one and,
//!   by the workspace determinism contract, converge bit-identically to
//!   an uninterrupted run.
//!
//! The supervisor holds the write end of each worker's stdin pipe and
//! never writes it. If the supervisor itself dies — even by SIGKILL —
//! workers see EOF, remove the rendezvous directory themselves, and exit
//! 124 (see `spawn_watchdog` in [`crate::transport`]).

use crate::fault::FaultPlan;
use crate::transport::{
    env_count, locales_from_env, IntegrityMode, ENV_BACKOFF_MS, ENV_JOB, ENV_LOCALES,
    ENV_MAX_RESTARTS, ENV_RANK, ENV_RESTART_COUNT, ENV_TIMEOUT, ENV_WATCHDOG, EXIT_CORRUPTION,
    EXIT_FAILOVER, EXIT_ORPHANED, EXIT_PROTOCOL,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long after the first abnormal exit the supervisor waits for the
/// remaining workers to exit on their own (the `ABORT` fan-out usually
/// finishes the job in milliseconds) before killing them.
const TEARDOWN_GRACE: Duration = Duration::from_secs(3);
/// Reap polling interval.
const REAP_POLL: Duration = Duration::from_millis(5);
/// Ceiling on the exponential backoff between relaunches.
const MAX_BACKOFF: Duration = Duration::from_secs(10);

/// Classification of one worker's exit, ordered by causal priority:
/// when a round fails, the worker whose class compares highest is
/// reported as the culprit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// Exit code 0.
    Clean,
    /// Exit 114: the worker aborted because a *peer* failed — always
    /// collateral damage, never the culprit.
    Failover,
    /// Exit 124: the watchdog fired (supervisor death) — ambient, not a
    /// worker's fault.
    Orphaned,
    /// Any other nonzero exit code (application failure).
    Other(i32),
    /// Exit 113: transport protocol failure (desync, timeout) detected
    /// by this worker.
    Desync,
    /// Exit 115: this worker detected data corruption (a frame CRC, the
    /// matvec checksum tally or a solver health check).
    /// More causal than a desync — the corruption is the root event —
    /// but a signal crash still outranks it.
    Corruption,
    /// Killed by a signal (SIGABRT, SIGKILL, SIGSEGV...) — the most
    /// causal class: this is the worker that actually died.
    Crash(i32),
}

impl FailureClass {
    /// True for every class except [`FailureClass::Clean`].
    pub fn is_abnormal(self) -> bool {
        self != FailureClass::Clean
    }

    /// The exit code the supervisor propagates when this class is the
    /// round's culprit and the retry budget is exhausted.
    pub fn exit_code(self) -> i32 {
        match self {
            FailureClass::Clean => 0,
            FailureClass::Failover => EXIT_FAILOVER,
            FailureClass::Orphaned => EXIT_ORPHANED,
            FailureClass::Other(code) => code,
            FailureClass::Desync => EXIT_PROTOCOL,
            FailureClass::Corruption => EXIT_CORRUPTION,
            FailureClass::Crash(_) => EXIT_PROTOCOL,
        }
    }

    /// Human-readable description for supervisor diagnostics.
    pub fn describe(self) -> String {
        match self {
            FailureClass::Clean => "exited cleanly".into(),
            FailureClass::Failover => {
                format!("aborted after a peer failure (exit {EXIT_FAILOVER})")
            }
            FailureClass::Orphaned => {
                format!("orphaned by the watchdog (exit {EXIT_ORPHANED})")
            }
            FailureClass::Other(code) => format!("failed (exit {code})"),
            FailureClass::Desync => {
                format!("desynchronized or timed out (exit {EXIT_PROTOCOL})")
            }
            FailureClass::Corruption => {
                format!("detected unrecovered data corruption (exit {EXIT_CORRUPTION})")
            }
            FailureClass::Crash(signal) => format!("crashed (signal {signal})"),
        }
    }
}

/// Classifies a worker exit from its code (`None` when signal-killed)
/// and terminating signal, mirroring `ExitStatus` on unix.
pub fn classify_exit(code: Option<i32>, signal: Option<i32>) -> FailureClass {
    match (code, signal) {
        (Some(0), _) => FailureClass::Clean,
        (Some(c), _) if c == EXIT_PROTOCOL => FailureClass::Desync,
        (Some(c), _) if c == EXIT_FAILOVER => FailureClass::Failover,
        (Some(c), _) if c == EXIT_ORPHANED => FailureClass::Orphaned,
        (Some(c), _) if c == EXIT_CORRUPTION => FailureClass::Corruption,
        (Some(c), _) => FailureClass::Other(c),
        (None, Some(sig)) => FailureClass::Crash(sig),
        (None, None) => FailureClass::Other(1),
    }
}

fn classify_status(status: ExitStatus) -> FailureClass {
    #[cfg(unix)]
    let signal = {
        use std::os::unix::process::ExitStatusExt;
        status.signal()
    };
    #[cfg(not(unix))]
    let signal = None;
    classify_exit(status.code(), signal)
}

/// One supervised worker.
struct Worker {
    rank: usize,
    child: Child,
    /// The never-written stdin pipe: dropping it (only after the whole
    /// round is down) signals the watchdog.
    pipe: Option<std::process::ChildStdin>,
    outcome: Option<FailureClass>,
}

/// One round's result: every worker's class, in rank order.
struct Round {
    outcomes: Vec<FailureClass>,
}

impl Round {
    /// The most causal abnormal class and its rank, if any worker
    /// misbehaved.
    fn culprit(&self) -> Option<(usize, FailureClass)> {
        self.outcomes
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, c)| c.is_abnormal())
            .max_by_key(|&(rank, class)| (class, std::cmp::Reverse(rank)))
    }
}

/// A launch-time configuration error: named on stderr, exit 2, nothing
/// spawned.
pub(crate) fn reject(msg: &str) -> ! {
    eprintln!("ls-mp: supervisor: {msg}");
    std::process::exit(2);
}

/// The supervisor entry point: runs rounds until one exits cleanly or
/// the retry budget is spent, then exits with the verdict. Never
/// returns.
pub(crate) fn run_supervisor() -> ! {
    // Validate the fault plan and every knob before spawning anything: a
    // typo fails at launch with the offending clause or variable named,
    // instead of inside every worker's transport connect (or, worse, by
    // silently running the default).
    if let Err(e) = FaultPlan::try_from_env() {
        reject(&e.to_string());
    }
    if let Err(e) = IntegrityMode::try_from_env() {
        reject(&e);
    }
    let knob = |name, default| env_count(name, Some(default)).unwrap_or_else(|e| reject(&e));
    let n = locales_from_env(2).unwrap_or_else(|e| reject(&e));
    let max_restarts = knob(ENV_MAX_RESTARTS, 2);
    let backoff_base = Duration::from_millis(knob(ENV_BACKOFF_MS, 250));
    // The workers' own knobs (read in their transport connect).
    for name in [ENV_TIMEOUT, ENV_RESTART_COUNT] {
        knob(name, 0);
    }
    let exe = std::env::current_exe().expect("current_exe for the multiprocess supervisor");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let base = if cfg!(unix) && std::path::Path::new("/dev/shm").is_dir() {
        PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };

    let mut attempt: u64 = 0;
    loop {
        // A fresh rendezvous directory per round: a relaunch must never
        // read stale port files from the crashed round.
        let job_dir = base.join(format!("ls-mp-{}.{attempt}", std::process::id()));
        fs::create_dir_all(&job_dir).expect("create multiprocess job directory");
        let round = run_round(&exe, &args, n, &job_dir, attempt);
        let _ = fs::remove_dir_all(&job_dir);

        let Some((rank, class)) = round.culprit() else {
            std::process::exit(0);
        };
        eprintln!("ls-mp: supervisor: worker {rank} {}", class.describe());
        if attempt >= max_restarts {
            if max_restarts > 0 {
                eprintln!(
                    "ls-mp: supervisor: giving up after {attempt} restart(s) \
                     (raise {ENV_MAX_RESTARTS} to retry more)"
                );
            }
            std::process::exit(class.exit_code());
        }
        let backoff = backoff_base.saturating_mul(1 << attempt.min(16)).min(MAX_BACKOFF);
        attempt += 1;
        eprintln!(
            "ls-mp: supervisor: relaunching in {:.2}s \
             (attempt {attempt}/{max_restarts}, {ENV_RESTART_COUNT}={attempt})",
            backoff.as_secs_f64()
        );
        std::thread::sleep(backoff);
    }
}

/// Spawns and reaps one round of workers.
fn run_round(exe: &Path, args: &[String], n: usize, job_dir: &Path, attempt: u64) -> Round {
    let mut workers: Vec<Worker> = (0..n)
        .map(|rank| {
            let mut child = Command::new(exe)
                .args(args)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_JOB, job_dir)
                .env(ENV_LOCALES, n.to_string())
                .env(ENV_WATCHDOG, "1")
                .env(ENV_RESTART_COUNT, attempt.to_string())
                // The pipe is never written: its EOF (supervisor death,
                // even by SIGKILL) tells workers to clean up and exit.
                .stdin(Stdio::piped())
                // Rank 0's stdout is the job's canonical output.
                .stdout(if rank == 0 { Stdio::inherit() } else { Stdio::null() })
                .spawn()
                .unwrap_or_else(|e| panic!("spawn worker {rank}: {e}"));
            // `Child::wait` would close the child's stdin first, tripping
            // the watchdog of a still-running worker — hold the write
            // ends apart until the whole round is down.
            let pipe = child.stdin.take();
            Worker { rank, child, pipe, outcome: None }
        })
        .collect();

    let mut teardown_deadline: Option<Instant> = None;
    loop {
        let mut live = 0usize;
        for w in workers.iter_mut() {
            if w.outcome.is_some() {
                continue;
            }
            match w.child.try_wait() {
                Ok(Some(status)) => {
                    let class = classify_status(status);
                    if class.is_abnormal() && teardown_deadline.is_none() {
                        // First abnormal exit: give the ABORT fan-out a
                        // moment to finish the survivors, then kill.
                        teardown_deadline = Some(Instant::now() + TEARDOWN_GRACE);
                    }
                    w.outcome = Some(class);
                }
                Ok(None) => live += 1,
                Err(e) => {
                    eprintln!("ls-mp: supervisor: wait for worker {}: {e}", w.rank);
                    w.outcome = Some(FailureClass::Other(1));
                }
            }
        }
        if live == 0 {
            break;
        }
        if let Some(deadline) = teardown_deadline {
            if Instant::now() >= deadline {
                for w in workers.iter_mut() {
                    if w.outcome.is_none() {
                        let _ = w.child.kill();
                        match w.child.wait() {
                            Ok(status) => w.outcome = Some(classify_status(status)),
                            Err(_) => w.outcome = Some(FailureClass::Other(1)),
                        }
                    }
                }
                break;
            }
        }
        std::thread::sleep(REAP_POLL);
    }
    // Only now release the watchdog pipes: every worker has been reaped.
    for w in workers.iter_mut() {
        drop(w.pipe.take());
    }
    Round { outcomes: workers.into_iter().map(|w| w.outcome.unwrap()).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_classification_covers_the_failure_model() {
        assert_eq!(classify_exit(Some(0), None), FailureClass::Clean);
        assert_eq!(classify_exit(Some(113), None), FailureClass::Desync);
        assert_eq!(classify_exit(Some(114), None), FailureClass::Failover);
        assert_eq!(classify_exit(Some(124), None), FailureClass::Orphaned);
        assert_eq!(classify_exit(Some(115), None), FailureClass::Corruption);
        assert_eq!(classify_exit(Some(7), None), FailureClass::Other(7));
        assert_eq!(classify_exit(None, Some(6)), FailureClass::Crash(6));
        assert_eq!(classify_exit(None, None), FailureClass::Other(1));
    }

    #[test]
    fn culprit_prefers_the_causal_class() {
        // A crash outranks the desync that noticed it, which outranks
        // the collateral failovers.
        let round = Round {
            outcomes: vec![
                FailureClass::Failover,
                FailureClass::Crash(6),
                FailureClass::Desync,
                FailureClass::Failover,
            ],
        };
        assert_eq!(round.culprit(), Some((1, FailureClass::Crash(6))));

        // All-failover rounds blame the lowest such rank.
        let round = Round { outcomes: vec![FailureClass::Clean, FailureClass::Failover] };
        assert_eq!(round.culprit(), Some((1, FailureClass::Failover)));

        let clean = Round { outcomes: vec![FailureClass::Clean, FailureClass::Clean] };
        assert_eq!(clean.culprit(), None);
    }

    #[test]
    fn exit_codes_and_descriptions() {
        assert_eq!(FailureClass::Clean.exit_code(), 0);
        assert!(!FailureClass::Clean.is_abnormal());
        assert_eq!(FailureClass::Desync.exit_code(), 113);
        assert_eq!(FailureClass::Failover.exit_code(), 114);
        assert_eq!(FailureClass::Orphaned.exit_code(), 124);
        assert_eq!(FailureClass::Crash(9).exit_code(), 113);
        assert_eq!(FailureClass::Other(3).exit_code(), 3);
        assert_eq!(FailureClass::Corruption.exit_code(), 115);
        assert!(FailureClass::Corruption.describe().contains("corruption"));
        assert!(FailureClass::Crash(6).describe().contains("signal 6"));
        assert!(FailureClass::Crash(6).is_abnormal());
        // Causal ordering: a crash outranks corruption outranks desync.
        assert!(FailureClass::Crash(6) > FailureClass::Corruption);
        assert!(FailureClass::Corruption > FailureClass::Desync);
    }
}
