//! The traced pass: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions.
//!
//! Three mechanisms: spans around the set-up phases and around every
//! product of one traced solve ([`TimedOp`]); the single-thread replay
//! sweep ([`crate::replay`]); and direct timed calls for everything else.
//! A bare solve runs beside the traced one, so the tracing overhead is a
//! number and not an assumption.

use crate::env;
use crate::json::Json;
use crate::metrics::{Metrics, PER_LAYER};
use crate::pass::{checked_solve, Rng, RunConfig, RunOutcome, DIST_CORES, DIST_LOCALES};
use crate::replay;
use crate::stats::{median, percentile};
use crate::surface::{self, Distributed, Family, ScratchPool, Shared, Solve, TimedOp};
use crate::trace::{self, Span, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each directly timed call; the median is reported.
const DIRECT_REPS: usize = 5;
/// Replay sweeps; per-layer medians are reported.
const REPLAY_SWEEPS: usize = 3;
/// Vectors in the multi-vector BLAS-1 probes: the restart cycle's basis.
const BLAS_VECTORS: usize = 24;
/// Vectors in the probe checkpoint: 8 locked Ritz vectors + the chain seed.
const CKPT_VECTORS: usize = 9;
/// Products the communication counters are averaged over.
const COUNTED_PRODUCTS: usize = 10;

/// Median wall time of `reps` calls of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Largest `|a - b|` relative to the largest `|b|` (at least 1).
fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    a.iter().zip(b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs())) / scale
}

/// Counts checks and solves; prints each failure as it happens.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}: {}", detail());
        }
    }

    fn solve(
        &mut self,
        refs: [f64; 2],
        what: &str,
        f: impl FnOnce() -> Solve,
    ) -> Option<Solve> {
        self.attempted += 1;
        match checked_solve(refs, f) {
            Ok(s) => Some(s),
            Err(why) => {
                self.failed += 1;
                println!("{what} FAILED: {why}");
                None
            }
        }
    }
}

/// STREAM triad `a = b + q·c` on `threads` threads, best of 5, counted as
/// 24 bytes per element. The ceiling the bandwidth layers are read against.
fn triad_gbps(len: usize, threads: usize) -> f64 {
    let (b, c) = (vec![1.0f64; len], vec![2.0f64; len]);
    let mut a = vec![0.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for ((ai, bi), ci) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in ai.iter_mut().zip(bi).zip(ci) {
                        *x = y + 0.42 * z;
                    }
                });
            }
        });
        black_box(&a);
        best = best.max(24.0 * len as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

fn measure_triad(cfg: &RunConfig, m: &mut Metrics) {
    // Each array at least four times the last-level cache, so the triad
    // streams from memory; small in smoke mode, where only the plumbing
    // is under test.
    let llc = env::llc_bytes().unwrap_or(32 << 20);
    let bytes = if cfg.smoke { 16 << 20 } else { (4 * llc).clamp(256 << 20, 1 << 30) };
    let gbps = triad_gbps(bytes as usize / 8, cfg.threads);
    println!("triad: 3 arrays of {} MiB each, detected LLC {} MiB", bytes >> 20, llc >> 20);
    m.set("mem.triad_gbps", gbps, 5);
}

/// BLAS-1 rates on `dim`-long vectors, in computed GB/s (array sizes
/// over time; cache misses are not counted).
fn measure_blas(dim: usize, rng: &mut Rng, m: &mut Metrics) {
    let vs: Vec<Vec<f64>> = (0..BLAS_VECTORS).map(|_| rng.vector(dim)).collect();
    let mut w = rng.vector(dim);
    let coeffs: Vec<f64> = (0..BLAS_VECTORS).map(|_| 1e-3 * rng.next_f64()).collect();
    let gbps = |vectors: usize, ms: f64| (8 * dim * vectors) as f64 / (ms * 1e-3) / 1e9;
    let dot = median_ms(DIRECT_REPS, || {
        black_box(surface::blas_dot(&vs[0], &w));
    });
    m.set("eigen.dot_gbps", gbps(2, dot), DIRECT_REPS);
    let multi_dot =
        median_ms(DIRECT_REPS, || drop(black_box(surface::blas_multi_dot(&vs, &w))));
    m.set("eigen.multi_dot_gbps", gbps(BLAS_VECTORS + 1, multi_dot), DIRECT_REPS);
    let multi_axpy = median_ms(DIRECT_REPS, || surface::blas_multi_axpy(&coeffs, &vs, &mut w));
    m.set("eigen.multi_axpy_gbps", gbps(BLAS_VECTORS + 2, multi_axpy), DIRECT_REPS);
}

/// Checkpoint write and read of a restart-boundary state in `op`'s storage.
fn measure_checkpoint(
    cfg: &RunConfig,
    shared: &Shared,
    rng: &mut Rng,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let dir = env::out_dir(cfg.smoke).join(format!(
        "ckpt-{}-{}",
        cfg.workload.name,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create checkpoint directory");
    let path = dir.join("probe.ckpt");
    let vectors: Vec<Vec<f64>> = (0..CKPT_VECTORS).map(|_| rng.vector(shared.dim())).collect();
    let mut io_error = None;
    let mut write_ms = Vec::with_capacity(DIRECT_REPS);
    for _ in 0..DIRECT_REPS {
        // The state is saved from owned vectors; the copy is off the clock.
        let owned = vectors.clone();
        let t = Instant::now();
        if let Err(e) = surface::checkpoint_write(&path, owned) {
            io_error = Some(e.to_string());
        }
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
    let mut read_back = Ok(0);
    let read =
        median_ms(DIRECT_REPS, || read_back = surface::checkpoint_read(&path, &shared.op));
    let _ = std::fs::remove_dir_all(&dir);
    tally.check(
        "checkpoint round trip",
        io_error.is_none() && read_back == Ok(CKPT_VECTORS),
        || format!("write: {io_error:?}, read: {read_back:?}"),
    );
    m.set("eigen.ckpt_write_ms", median(&write_ms), DIRECT_REPS);
    m.set("eigen.ckpt_read_ms", read, DIRECT_REPS);
    m.set("eigen.ckpt_bytes", bytes as f64, 1);
}

/// What one traced solve says about its products and the solver around them.
struct SolveProfile {
    solve_ms: f64,
    products_ms: Vec<f64>,
}

fn profile_of(spans: &[Span], solve_name: &str, product_name: &str) -> Option<SolveProfile> {
    let (id, solve) = spans.iter().enumerate().find(|(_, s)| s.name == solve_name)?;
    let products_ms = spans
        .iter()
        .filter(|s| s.name == product_name && s.parent == Some(id))
        .map(Span::ms)
        .collect();
    Some(SolveProfile { solve_ms: solve.ms(), products_ms })
}

/// Sets the product percentiles and the product share of the solve
/// under `prefix` (the products' layer, `core` or `dist`) and the solver's
/// own time per iteration as `self_metric`; returns the product median.
fn set_solve_profile(
    p: &SolveProfile,
    prefix: &str,
    self_metric: &str,
    m: &mut Metrics,
) -> f64 {
    let n = p.products_ms.len();
    let in_products: f64 = p.products_ms.iter().sum();
    let p50 = percentile(&p.products_ms, 50.0);
    m.set(&format!("{prefix}.matvec_ms_p50"), p50, n);
    m.set(&format!("{prefix}.matvec_ms_p90"), percentile(&p.products_ms, 90.0), n);
    m.set(&format!("{prefix}.matvec_share"), in_products / p.solve_ms, n);
    m.set(self_metric, (p.solve_ms - in_products) / n as f64, n);
    m.set("eigen.self_share", 1.0 - in_products / p.solve_ms, n);
    p50
}

/// The bare solve beside the traced one, and what the difference costs.
fn set_overhead(traced_ms: f64, bare_ms: f64, m: &mut Metrics) {
    let frac = (traced_ms - bare_ms) / bare_ms;
    if frac >= 0.03 {
        println!(
            "WARNING: trace.overhead_frac = {frac:.4} is not below 0.03 (one pair of solves)"
        );
    }
    m.set("trace.overhead_frac", frac, 1);
}

fn set_solver_counts(s: &Solve, m: &mut Metrics) {
    m.set("eigen.matvecs", s.matvecs as f64, 1);
    m.set("eigen.peak_retained", s.peak_retained as f64, 1);
}

fn traced_shared(cfg: &RunConfig, tracer: &Tracer, m: &mut Metrics, tally: &mut Tally) {
    let mut rng = Rng::new(cfg.seed);
    let (family, sites) = (cfg.workload.family, cfg.sites());
    let refs = cfg.workload.refs(cfg.smoke);

    // Set-up, one span per phase.
    let expr = surface::hamiltonian(family, sites);
    let group = tracer.span("symmetry.group", || surface::symmetry_group(family, sites));
    let sector = surface::sector(family, sites, group);
    let kernel = tracer.span("expr.compile", || surface::compile(&expr, &sector));
    let symop = tracer.span("basis.symop_build", || surface::symmetrize(&kernel, &sector));
    let basis = tracer.span("basis.enumerate", || surface::enumerate(sector));
    let s = Shared::bind(symop, basis);
    let dim = s.dim();
    m.set("basis.dim", dim as f64, 1);
    m.set("basis.group_order", s.group_order() as f64, 1);
    m.set("basis.index_bytes", s.index_bytes() as f64, 1);

    // Replay, checked against the serial product.
    let x = rng.vector(dim);
    let pool = ScratchPool::default();
    let mut y_ref = vec![0.0; dim];
    surface::product_serial(&s, &x, &mut y_ref, &pool);
    let (mut y, mut y_fused) = (vec![0.0; dim], vec![0.0; dim]);
    let layers =
        tracer.span("replay", || replay::sweeps(&s, &x, &mut y, &mut y_fused, REPLAY_SWEEPS));
    let diff = max_rel_diff(&y, &y_ref);
    tally.check("replay equals serial product", diff <= 1e-10, || format!("max diff {diff:e}"));
    if layers.fused {
        let diff = max_rel_diff(&y_fused, &y_ref);
        tally.check("fused replay equals serial product", diff <= 1e-10, || {
            format!("max diff {diff:e}")
        });
    }
    s.apply(&x, &mut y);
    let diff = max_rel_diff(&y, &y_ref);
    tally.check("default product equals serial product", diff <= 1e-10, || {
        format!("max diff {diff:e}")
    });

    let nnz = layers.emissions;
    m.set("core.nnz_offdiag", nnz as f64, 1);
    m.set("basis.rowgen_ms", layers.rowgen, REPLAY_SWEEPS);
    m.set("basis.rowgen_fused_ms", layers.rowgen_fused, REPLAY_SWEEPS);
    m.set("basis.state_info_ms", layers.state_info, REPLAY_SWEEPS);
    if s.group_order() > 1 {
        let applications = (nnz * s.group_order()) as f64;
        m.set(
            "basis.state_info_ns_per_gapp",
            layers.state_info * 1e6 / applications,
            REPLAY_SWEEPS,
        );
    }
    m.set("basis.rank_ms", layers.rank, REPLAY_SWEEPS);
    m.set("basis.rank_ns_per_lookup", layers.rank * 1e6 / nnz as f64, REPLAY_SWEEPS);
    m.set("basis.diag_ms", layers.diag, REPLAY_SWEEPS);
    m.set("replay.accum_ms", layers.accum, REPLAY_SWEEPS);
    m.set("replay.accum_fused_ms", layers.accum_fused, REPLAY_SWEEPS);

    // Whole products: the plain single-thread baseline, then the default
    // strategy on one thread.
    let serial_op = s.serial();
    let serial = median_ms(DIRECT_REPS, || serial_op.apply(&x, &mut y));
    m.set("core.matvec_serial_ms", serial, DIRECT_REPS);
    m.set("replay.sum_over_serial", layers.generic_ms() / serial, REPLAY_SWEEPS);
    surface::set_pool_width(1);
    let t1 = median_ms(DIRECT_REPS, || s.apply(&x, &mut y));
    surface::set_pool_width(cfg.threads);
    m.set("core.matvec_t1_ms", t1, DIRECT_REPS);
    // Closure: do the replayed layers account for the engine's product?
    let closure = layers.engine_ms() / t1;
    if !(0.9..=1.1).contains(&closure) {
        println!("WARNING: replay.sum_over_t1 = {closure:.3} is outside 0.9–1.1");
    }
    m.set("replay.sum_over_t1", closure, REPLAY_SWEEPS);

    measure_blas(dim, &mut rng, m);
    measure_checkpoint(cfg, &s, &mut rng, m, tally);

    // One bare and one traced solve.
    let t = Instant::now();
    tally.solve(refs, "bare solve", || surface::solve_shared(&s.op));
    let bare_ms = t.elapsed().as_secs_f64() * 1e3;
    let timed = TimedOp::new(&s.op, tracer, "core.matvec");
    let solved = tracer.solve_span("solve", || {
        tally.solve(refs, "traced solve", || surface::solve_shared_timed(&timed))
    });

    let spans = tracer.spans();
    if let (Some(solved), Some(profile)) = (solved, profile_of(&spans, "solve", "core.matvec"))
    {
        set_solver_counts(&solved, m);
        let p50 = set_solve_profile(&profile, "core", "eigen.self_ms_per_iter", m);
        set_overhead(profile.solve_ms, bare_ms, m);
        m.set(
            "core.matvec_par_eff",
            t1 / (cfg.threads as f64 * p50),
            profile.products_ms.len(),
        );
        // Computed, not measured: array sizes, ignoring cache misses.
        let bytes = 24.0 * dim as f64 + 16.0 * nnz as f64;
        m.set("core.bytes_model", bytes, 1);
        let gbps = bytes / (p50 * 1e-3) / 1e9;
        m.set("core.gbps_model", gbps, profile.products_ms.len());
        m.set(
            "core.roofline_frac",
            gbps / m.get("mem.triad_gbps").expect("triad ran first"),
            1,
        );
    }
    set_span_ms(&spans, m);
}

/// The set-up phase metrics are the durations of their spans.
fn set_span_ms(spans: &[Span], m: &mut Metrics) {
    for (span, metric) in [
        ("symmetry.group", "symmetry.group_ms"),
        ("expr.compile", "expr.compile_ms"),
        ("basis.symop_build", "basis.symop_build_ms"),
        ("basis.enumerate", "basis.enumerate_ms"),
        ("dist.enumerate", "dist.enumerate_ms"),
    ] {
        if let Some(&ms) = trace::durations_ms(spans, span).first() {
            m.set(metric, ms, 1);
        }
    }
}

fn traced_dist(cfg: &RunConfig, tracer: &Tracer, m: &mut Metrics, tally: &mut Tally) {
    let mut rng = Rng::new(cfg.seed);
    let (family, sites) = (cfg.workload.family, cfg.sites());
    let refs = cfg.workload.refs(cfg.smoke);

    let expr = surface::hamiltonian(family, sites);
    let sector = surface::sector(family, sites, None);
    let cluster = surface::cluster(DIST_LOCALES, DIST_CORES);
    let basis =
        tracer.span("dist.enumerate", || surface::enumerate_distributed(&cluster, &sector));
    let kernel = tracer.span("expr.compile", || surface::compile(&expr, &sector));
    let symop = tracer.span("basis.symop_build", || surface::symmetrize(&kernel, &sector));
    let d = Distributed { cluster, symop, basis };
    let dim = d.dim();
    m.set("basis.dim", dim as f64, 1);
    m.set("basis.group_order", 1.0, 1);
    m.set("basis.index_bytes", d.index_bytes() as f64, 1);
    m.set("dist.balance", d.imbalance(), 1);

    // The same sector in shared memory: the oracle of the distributed
    // product and the engine it is compared with.
    let twin = Shared::build(Family::U1Chain, sites);
    let masks = surface::convert_masks(&d, twin.basis.states());
    let x_sorted = rng.vector(dim);
    let x = d.scatter(&x_sorted, &masks);
    let pool = ScratchPool::default();
    let mut y_ref = vec![0.0; dim];
    surface::product_serial(&twin, &x_sorted, &mut y_ref, &pool);
    let op = d.op();
    let mut y = surface::dist_zeros(&op);
    surface::dist_apply(&op, &x, &mut y);
    let diff = max_rel_diff(&d.gather(&y), &y_ref);
    tally.check("distributed product equals serial product", diff <= 1e-10, || {
        format!("max diff {diff:e}")
    });
    let mut block = surface::ReplayBlock::default();
    let nnz: usize = (0..dim)
        .step_by(surface::REPLAY_BLOCK)
        .map(|lo| block.rowgen(&twin, lo, (lo + surface::REPLAY_BLOCK).min(dim)))
        .sum();
    m.set("core.nnz_offdiag", nnz as f64, 1);

    // Communication per product: counts, so they repeat exactly.
    surface::comm_reset(&d.cluster);
    for _ in 0..COUNTED_PRODUCTS {
        surface::dist_apply(&op, &x, &mut y);
    }
    let c = surface::comm_counts(&d.cluster);
    let per = |n: u64| n as f64 / COUNTED_PRODUCTS as f64;
    m.set("runtime.puts_per_matvec", per(c.puts), COUNTED_PRODUCTS);
    m.set("runtime.put_bytes_per_matvec", per(c.put_bytes), COUNTED_PRODUCTS);
    m.set("runtime.flag_msgs_per_matvec", per(c.flag_messages), COUNTED_PRODUCTS);
    m.set("runtime.remote_atomics_per_matvec", per(c.remote_atomics), COUNTED_PRODUCTS);
    m.set("runtime.barriers_per_matvec", per(c.barriers), COUNTED_PRODUCTS);
    m.set("runtime.mean_msg_bytes", c.mean_message_bytes, COUNTED_PRODUCTS);

    // The engine with no remote traffic: one locale, both cores.
    {
        let local = Distributed::build(family, sites, 1, DIST_LOCALES * DIST_CORES);
        let (x1, op1) = (local.vector(|| rng.next_f64()), local.op());
        let mut y1 = surface::dist_zeros(&op1);
        let l1 = median_ms(DIRECT_REPS, || surface::dist_apply(&op1, &x1, &mut y1));
        m.set("dist.matvec_l1_ms", l1, DIRECT_REPS);
    }
    let mut y_twin = vec![0.0; dim];
    let shared_ms = median_ms(DIRECT_REPS, || {
        surface::product_batched_pull(&twin, &x_sorted, &mut y_twin, &pool)
    });

    let mut round_trip = None;
    let convert = median_ms(DIRECT_REPS, || {
        round_trip = Some(surface::convert_round_trip(&d, &x, &masks))
    });
    tally.check(
        "layout round trip returns the vector",
        round_trip.as_ref() == Some(&x),
        String::new,
    );
    m.set("dist.convert_ms", convert, DIRECT_REPS);

    let rounds = if cfg.smoke { 100 } else { 1000 };
    let barrier =
        median_ms(1, || (0..rounds).for_each(|_| surface::barrier_round(&d.cluster))) * 1e3;
    m.set("runtime.barrier_us", barrier / rounds as f64, rounds);
    let dispatch =
        median_ms(1, || (0..rounds).for_each(|_| surface::dispatch_round(&d.cluster, 2))) * 1e3;
    m.set("runtime.run_dispatch_us", dispatch / rounds as f64, rounds);
    let payload: Vec<u8> =
        (0..if cfg.smoke { 4usize << 20 } else { 64 << 20 }).map(|i| (i * 31) as u8).collect();
    let crc = median_ms(DIRECT_REPS, || {
        black_box(surface::checksum(&payload));
    });
    m.set("runtime.crc32c_gbps", payload.len() as f64 / (crc * 1e-3) / 1e9, DIRECT_REPS);

    measure_blas(dim, &mut rng, m);
    measure_checkpoint(cfg, &twin, &mut rng, m, tally);

    let t = Instant::now();
    tally.solve(refs, "bare solve", || surface::solve_dist(&d));
    let bare_ms = t.elapsed().as_secs_f64() * 1e3;
    let timed = TimedOp::new(&op, tracer, "dist.matvec");
    let solved = tracer.solve_span("solve", || {
        tally.solve(refs, "traced solve", || surface::solve_dist_timed(&timed))
    });

    let spans = tracer.spans();
    if let (Some(solved), Some(profile)) = (solved, profile_of(&spans, "solve", "dist.matvec"))
    {
        set_solver_counts(&solved, m);
        let p50 = set_solve_profile(&profile, "dist", "dist.self_ms_per_iter", m);
        set_overhead(profile.solve_ms, bare_ms, m);
        m.set("dist.vs_shared_ratio", p50 / shared_ms, profile.products_ms.len());
    }
    set_span_ms(&spans, m);
}

/// The traced pass. Writes `out/trace-<workload>.json` when it ends.
pub fn traced(cfg: &RunConfig) -> RunOutcome {
    let mut m = Metrics::new(PER_LAYER);
    let mut tally = Tally::default();
    measure_triad(cfg, &mut m);
    let tracer = Tracer::default();
    match cfg.workload.family {
        Family::DistU1Chain => traced_dist(cfg, &tracer, &mut m, &mut tally),
        _ => traced_shared(cfg, &tracer, &mut m, &mut tally),
    }
    let file = env::out_dir(cfg.smoke).join(format!("trace-{}.json", cfg.workload.name));
    let doc = Json::obj([
        ("workload", Json::str(cfg.workload.name)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("metrics", m.to_json()),
        ("spans", trace::spans_json(&tracer.spans())),
    ]);
    std::fs::write(&file, doc.to_string() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", file.display()));
    println!("wrote {}", file.display());
    RunOutcome { attempted: tally.attempted, failed: tally.failed, metrics: m }
}
