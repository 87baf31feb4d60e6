//! Backend-agnostic collectives: where a distributed algorithm would
//! have to ask which transport is underneath, so that it never does.
//!
//! An in-process job hosts every locale in this process, a multiprocess
//! job one per process. `ls-dist` and `ls-eigen` are written once — loop
//! over [`hosted`], combine with [`allreduce`] / [`allgather`] — and
//! every function here is the identity (or a no-op) in process and the
//! real collective of [`crate::transport`] otherwise, so the lines tier-1
//! executes are the lines a multiprocess job executes, down to the call
//! into this module. The multiprocess arms are matched by program order:
//! every rank must make the same calls in the same sequence.

use crate::distvec::DistVec;
use crate::transport::{self, TransportError};
use ls_kernels::Scalar;
use std::any::Any;
use std::fmt;
use std::ops::Range;

/// The locales whose share of an SPMD step this process computes: all
/// `n_locales` in process, this rank multiprocess. `Cluster::run`
/// returns one result per hosted locale, in this order.
pub fn hosted(n_locales: usize) -> Range<usize> {
    match transport::active() {
        Some(mp) => {
            assert_eq!(n_locales, mp.n_locales(), "sized for another multiprocess job");
            mp.rank()..mp.rank() + 1
        }
        None => 0..n_locales,
    }
}

/// The locale count to build a program's cluster for: the multiprocess
/// job's size, otherwise `LS_LOCALES` (so both backends can be compared
/// on one shape), or `default` when that is unset.
///
/// # Panics
/// Panics, naming the variable, when `LS_LOCALES` is not a positive
/// integer.
pub fn locales_from_env(default: usize) -> usize {
    match transport::active() {
        Some(mp) => mp.n_locales(),
        None => transport::locales_from_env(default).unwrap_or_else(|e| panic!("{e}")),
    }
}

/// Sums `partials` lane-wise over all locales. The caller passes what it
/// added up, in locale order, over its [`hosted`] locales: in process
/// that is the result, multiprocess the ranks' vectors are added in rank
/// order — the same `0 + p₀ + p₁ + …`, bit for bit. An empty reduction
/// issues no collective.
pub fn allreduce<S: Scalar>(partials: Vec<S>) -> Vec<S> {
    let Some(mp) = transport::active() else { return partials };
    if partials.is_empty() {
        return partials;
    }
    let lanes: Vec<f64> =
        partials.iter().flat_map(|p| p.to_reals().into_iter().take(S::N_REALS)).collect();
    let summed = mp.allreduce_lanes(&lanes);
    let unpack = |c: &[f64]| S::from_reals([c[0], c.get(1).copied().unwrap_or(0.0)]);
    summed.chunks_exact(S::N_REALS).map(unpack).collect()
}

/// Exchanges one payload per [`hosted`] locale for one per locale, in
/// locale order.
pub fn allgather(payloads: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    match transport::active() {
        Some(mp) => mp.allgather(&payloads[0]),
        None => payloads,
    }
}

/// Waits until every process of the job arrives. A no-op in process,
/// where the join that ends a [`crate::Cluster`] run already orders its
/// locales; multiprocess it is the transport's barrier (and, like every
/// barrier there, an `LS_FAULT` trigger point).
pub fn barrier() {
    if let Some(mp) = transport::active() {
        mp.barrier();
    }
}

/// Visits every element of `v` in ascending global order (parts in
/// locale order, elements in part order) — the serialization hook: what
/// streams through it is the canonical dense vector, on every rank.
/// Multiprocess, where only a vector's own part is authoritative, the
/// parts are allgathered first, as stored.
pub fn for_each_global<S: Scalar>(v: &DistVec<S>, mut f: impl FnMut(S)) {
    let Some(mp) = transport::active() else {
        return v.parts().iter().flatten().for_each(|&x| f(x));
    };
    assert_eq!(std::mem::size_of::<S>(), 8 * S::N_REALS);
    // SAFETY: a scalar is `N_REALS` f64 reals and, by the size check
    // above, nothing else — no padding.
    let parts = unsafe { mp.allgather_elems(v.part(mp.rank())) };
    parts.iter().flatten().for_each(|&x| f(x));
}

/// Raises corruption found by a check *above* the transport (the matvec
/// checksum vector), fail-stop like a frame CRC mismatch. Multiprocess
/// the job aborts with exit 115 and the supervisor relaunches it from
/// the newest checkpoint; such a check runs on identical reduced data,
/// so every rank stops at the same point. In process the typed
/// [`TransportError::Corruption`] unwinds to the caller, which resumes
/// from its checkpoint.
pub fn raise_corruption(peer: usize, frame: &str, kind: &str) -> ! {
    if let Some(mp) = transport::active() {
        mp.raise_corruption(peer, frame, kind);
    }
    eprintln!("ls-runtime: integrity: corrupt {frame} from locale {peer} ({kind})");
    let (frame, kind) = (frame.into(), kind.into());
    std::panic::panic_any(TransportError::Corruption { peer, frame, kind })
}

/// Where a solver's own health check leaves the job: `err`, which the
/// check has already reported, unwinds as the typed payload in process.
/// A multiprocess rank aborts the job instead (`ABORT` fan-out, exit
/// 115, as `corrupt health from rank r`: the check runs on reduced
/// scalars and cannot tell whose data went bad), so the supervisor
/// reports [`crate::FailureClass::Corruption`] and relaunches from the
/// newest checkpoint.
pub fn give_up<E: Any + Send + fmt::Display>(err: E) -> ! {
    if let Some(mp) = transport::active() {
        let kind = err.to_string();
        mp.abort_job(TransportError::Corruption {
            peer: mp.rank(),
            frame: "health".into(),
            kind,
        });
    }
    std::panic::panic_any(err)
}

/// The `LS_FAULT` `nan` probe: ticks this rank's matvec+dot clock and
/// says whether an armed `nan` action fires now. The caller then NaNs
/// its share of the product *before* the inner product, so the reduction
/// hands every rank the same NaN and each fails the same health check.
/// Never fires in process (fault plans belong to the multiprocess
/// transport).
pub fn nan_fault_fires() -> bool {
    transport::active().is_some_and(|mp| mp.nan_fault_fires())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_kernels::Complex64;
    use std::panic::catch_unwind;

    // The test environment never sets LS_TRANSPORT / LS_LOCALES: these
    // pin the in-process arms.

    #[test]
    fn every_locale_is_hosted_in_process() {
        assert_eq!(hosted(4), 0..4);
        assert_eq!(locales_from_env(3), 3);
        barrier(); // nothing to wait for
    }

    #[test]
    fn allreduce_and_allgather_are_identities_in_process() {
        let partials = vec![Complex64::new(1.5, -0.0), Complex64::new(f64::NAN, 2.0)];
        let out = allreduce(partials.clone());
        for (a, b) in out.iter().zip(&partials) {
            assert_eq!(a.to_reals().map(f64::to_bits), b.to_reals().map(f64::to_bits));
        }
        assert!(allreduce(Vec::<f64>::new()).is_empty());
        let payloads = vec![vec![1u8, 2], vec![], vec![3]];
        assert_eq!(allgather(payloads.clone()), payloads);
    }

    #[test]
    fn global_order_is_parts_in_locale_order() {
        let v = DistVec::from_parts(vec![vec![1.0f64, 2.0], vec![], vec![3.0]]);
        let mut seen = Vec::new();
        for_each_global(&v, |x| seen.push(x));
        assert_eq!(seen, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn corruption_is_raised_typed_and_handed_back_untouched() {
        assert!(!nan_fault_fires());
        let payload = catch_unwind(|| raise_corruption(2, "abft", "drift")).unwrap_err();
        match payload.downcast_ref::<TransportError>() {
            Some(TransportError::Corruption { peer: 2, frame, kind }) => {
                assert_eq!((frame.as_str(), kind.as_str()), ("abft", "drift"));
            }
            other => panic!("unexpected payload {other:?}"),
        }
        // Giving up in process unwinds with the very same error.
        let again = catch_unwind(|| give_up(String::from("drift"))).unwrap_err();
        assert_eq!(again.downcast_ref::<String>().map(String::as_str), Some("drift"));
    }
}
