//! The replay sweep: one product rebuilt on one thread from the public
//! block functions of each layer, each timed from outside.
//!
//! Rows go through in blocks of [`REPLAY_BLOCK`], and every block feeds
//! each layer exactly what the batched engine would feed it: generated
//! rows → (on symmetrized sectors) the group walk over the emitted
//! states → ranking of the representatives → the diagonal → a reference
//! gather-multiply-accumulate. On U(1)-only sectors the engine replaces
//! generation + ranking by one fused pass; there the sweep replays that
//! path too, into a second output. Each output is a full `y = H x`, so
//! the caller can check it against the serial product, and the layer
//! times add up to a product the trace can compare with the real ones.

use crate::stats::median;
use crate::surface::{ReplayBlock, Shared, REPLAY_BLOCK};
use std::time::Instant;

/// Milliseconds spent per layer over one sweep, plus the work counts.
#[derive(Default, Clone)]
pub struct Layers {
    pub rowgen: f64,
    /// Zero on sectors with the trivial group, where nothing walks.
    pub state_info: f64,
    pub rank: f64,
    pub diag: f64,
    pub accum: f64,
    /// Zero on sectors the fused U(1) path does not serve.
    pub rowgen_fused: f64,
    pub accum_fused: f64,
    /// Off-diagonal matrix elements generated (`core.nnz_offdiag`).
    pub emissions: usize,
    /// Did the fused path run (and fill `y_fused`)?
    pub fused: bool,
}

impl Layers {
    /// The generic layers that make up `y`, diagonal included: what the
    /// serial product pays on every call. (`state_info` is inside `rowgen`.)
    pub fn generic_ms(&self) -> f64 {
        self.rowgen + self.rank + self.diag + self.accum
    }

    /// The layers the default engine runs per product on this sector:
    /// the fused pair where it applies, else generate + rank + gather.
    /// No diagonal: the engine computes it once and keeps it.
    pub fn engine_ms(&self) -> f64 {
        if self.fused {
            self.rowgen_fused + self.accum_fused
        } else {
            self.rowgen + self.rank + self.accum
        }
    }
}

fn timed<R>(acc_ms: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *acc_ms += t.elapsed().as_secs_f64() * 1e3;
    out
}

/// One sweep over all rows; `y` receives `H x` from the generic layers
/// and `y_fused` from the fused path, where the sector has one.
pub fn sweep(s: &Shared, x: &[f64], y: &mut [f64], y_fused: &mut [f64]) -> Layers {
    let mut l = Layers::default();
    let mut block = ReplayBlock::default();
    let walks = s.group_order() > 1;
    for lo in (0..s.dim()).step_by(REPLAY_BLOCK) {
        let hi = (lo + REPLAY_BLOCK).min(s.dim());
        l.emissions += timed(&mut l.rowgen, || block.rowgen(s, lo, hi));
        if walks {
            timed(&mut l.state_info, || block.state_info(s));
        }
        timed(&mut l.rank, || block.rank(s));
        timed(&mut l.diag, || block.diagonal(s, lo, hi));
        timed(&mut l.accum, || block.accumulate(x, &mut y[lo..hi], lo));
        let mut fused_ms = 0.0;
        if timed(&mut fused_ms, || block.rowgen_fused(s, lo, hi)) {
            l.rowgen_fused += fused_ms;
            timed(&mut l.accum_fused, || block.accumulate_fused(x, &mut y_fused[lo..hi], lo));
            l.fused = true;
        }
    }
    l
}

/// `count` sweeps; each layer's time is its median over them.
pub fn sweeps(
    s: &Shared,
    x: &[f64],
    y: &mut [f64],
    y_fused: &mut [f64],
    count: usize,
) -> Layers {
    let runs: Vec<Layers> = (0..count).map(|_| sweep(s, x, y, y_fused)).collect();
    let med = |f: fn(&Layers) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    Layers {
        rowgen: med(|l| l.rowgen),
        state_info: med(|l| l.state_info),
        rank: med(|l| l.rank),
        diag: med(|l| l.diag),
        accum: med(|l| l.accum),
        rowgen_fused: med(|l| l.rowgen_fused),
        accum_fused: med(|l| l.accum_fused),
        ..runs[0].clone()
    }
}
