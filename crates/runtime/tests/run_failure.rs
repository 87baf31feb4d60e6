//! How a [`Cluster`] run fails and what it leaves behind: the first
//! task's payload reaches the caller as thrown, tasks parked on a sibling
//! unwind instead of hanging the run, and the cluster serves the next run.
//! (Beside `cluster.rs`'s own unit tests, which hold the healthy paths.)

use ls_runtime::{Cluster, ClusterSpec, TransportError};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The payload `f` panics with.
fn payload_of(f: impl FnOnce()) -> Box<dyn Any + Send> {
    catch_unwind(AssertUnwindSafe(f)).expect_err("the run must fail")
}

/// The message of a `panic!("literal")` payload.
fn message(payload: &(dyn Any + Send)) -> &str {
    payload.downcast_ref::<&str>().copied().expect("a string payload")
}

#[test]
fn a_typed_payload_still_downcasts_at_the_caller() {
    // What `run_plan` relies on to roll a corrupt product back.
    let cluster = Cluster::new(ClusterSpec::new(1, 1));
    let payload = payload_of(|| {
        cluster.run_tasks(2, |_ctx, task| {
            if task == 1 {
                std::panic::panic_any(TransportError::Corruption {
                    peer: 3,
                    frame: "chan".into(),
                    kind: "crc mismatch".into(),
                });
            }
        })
    });
    let err = payload.downcast_ref::<TransportError>().expect("the payload as thrown");
    assert!(matches!(err, TransportError::Corruption { peer: 3, .. }), "{err}");
}

#[test]
fn the_first_panic_is_the_one_raised() {
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let payload = payload_of(|| {
        cluster.run(|ctx| {
            if ctx.locale() == 0 {
                panic!("first");
            }
            // Locale 1 fails only once it has seen locale 0's failure
            // recorded, so which payload came first is not a race.
            payload_of(|| loop {
                ctx.poll_failure();
                std::thread::yield_now();
            });
            panic!("second");
        });
    });
    assert_eq!(message(&*payload), "first");
}

#[test]
fn a_task_parked_at_the_barrier_unwinds_when_its_sibling_panics() {
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let payload = payload_of(|| {
        cluster.run(|ctx| {
            if ctx.locale() == 0 {
                // Never matched: locale 1 does not come.
                ctx.barrier_wait();
                unreachable!("the barrier released one locale of two");
            }
            // The crossing is counted before the wait begins.
            while cluster.stats()[0].snapshot().barriers == 0 {
                std::thread::yield_now();
            }
            panic!("locale 1 gave up");
        });
    });
    assert_eq!(message(&*payload), "locale 1 gave up");
    // The abandoned arrival does not leak into the next run.
    cluster.run(|ctx| ctx.barrier_wait());
}

#[test]
fn concurrent_runs_on_one_cluster_serialize() {
    // Two caller threads, 40 runs each, every run crossing the 2-locale
    // barrier twice: overlapping runs would put up to four tasks inside
    // at once (and four arrivals into a barrier of two).
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let inside = AtomicUsize::new(0);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                for _ in 0..40 {
                    cluster.run(|ctx| {
                        inside.fetch_add(1, Ordering::SeqCst);
                        ctx.barrier_wait();
                        assert_eq!(inside.load(Ordering::SeqCst), 2);
                        ctx.barrier_wait();
                        inside.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });
    assert_eq!(cluster.stats_total().barriers, 2 * 40 * 2 * 2);
}
