//! One run of one workload: what the two passes share, and the untraced
//! pass that produces the end-to-end metrics.

use crate::env;
use crate::metrics::{Metrics, END_TO_END};
use crate::probe::{SpeedProbe, TABLE_MIB};
use crate::stats::median;
use crate::surface::{self, Distributed, Family, Shared, Solve, TimedOp};
use crate::workloads::{Workload, REF_TOL};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups (each with its first product) per run; `setup_s` is their
/// median. A set-up is 0.1–0.4 s of page faults and cold caches, the
/// noisiest thing measured here, hence as many as a run can afford.
pub const SETUP_REPS: usize = 21;

/// The distributed workload's machine: the smallest with remote traffic.
pub const DIST_LOCALES: usize = 2;
pub const DIST_CORES: usize = 1;

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Keep solving until this much solve time has passed (at least once).
    pub seconds: f64,
    pub smoke: bool,
    pub threads: usize,
}

impl RunConfig {
    pub fn sites(&self) -> usize {
        self.workload.sites(self.smoke)
    }
}

pub struct RunOutcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

/// SplitMix64: the inputs a seed generates.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-0.5, 0.5).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    pub fn vector(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next_f64()).collect()
    }
}

/// A built workload sector of either kind.
pub enum Sector {
    Shared(Shared),
    Dist(Box<Distributed>),
}

impl Sector {
    pub fn build(family: Family, sites: usize) -> Self {
        match family {
            Family::DistU1Chain => Sector::Dist(Box::new(Distributed::build(
                family,
                sites,
                DIST_LOCALES,
                DIST_CORES,
            ))),
            _ => Sector::Shared(Shared::build(family, sites)),
        }
    }

    /// Time of one product on fresh vectors (generated outside the clock).
    pub fn product(&self, rng: &mut Rng) -> Duration {
        match self {
            Sector::Shared(s) => {
                let x = rng.vector(s.dim());
                let mut y = vec![0.0; s.dim()];
                let t = Instant::now();
                s.apply(&x, &mut y);
                t.elapsed()
            }
            Sector::Dist(d) => {
                let x = d.vector(|| rng.next_f64());
                let t = Instant::now();
                let op = d.op();
                let mut y = surface::dist_zeros(&op);
                surface::dist_apply(&op, &x, &mut y);
                t.elapsed()
            }
        }
    }

    /// The solve the untraced pass times: the workload's operator behind
    /// the wrapper that samples the machine's speed after every product.
    pub fn solve(&self, probe: &SpeedProbe) -> Solve {
        match self {
            Sector::Shared(s) => surface::solve_shared_timed(&TimedOp::probed(&s.op, probe)),
            Sector::Dist(d) => surface::solve_dist_timed(&TimedOp::probed(&d.op(), probe)),
        }
    }
}

/// Runs one solve, catching panics, and checks it against the references.
pub fn checked_solve(refs: [f64; 2], solve: impl FnOnce() -> Solve) -> Result<Solve, String> {
    let s = catch_unwind(AssertUnwindSafe(solve)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or(p.downcast_ref::<&str>().copied());
        format!("solve panicked: {}", msg.unwrap_or("(no message)"))
    })?;
    if !s.converged {
        return Err(format!("solve did not converge after {} products", s.matvecs));
    }
    for (i, (&got, &want)) in s.eigenvalues.iter().zip(&refs).enumerate() {
        if (got - want).abs() > REF_TOL {
            return Err(format!("eigenvalue {i} is {got:.12}, reference {want:.12}"));
        }
    }
    Ok(s)
}

/// The untraced pass: `setup_s`, `solve_s`, `peak_rss_mb`. `solve_s` is
/// wall time in seconds of the undisturbed reference machine; see
/// `probe.rs` for why and how.
pub fn untraced(cfg: &RunConfig) -> RunOutcome {
    let mut rng = Rng::new(cfg.seed);
    let family = cfg.workload.family;
    let probe = SpeedProbe::new(cfg.threads);

    // Set-up includes the first product, so work a later PR moves into
    // construction or into a lazily built cache still lands here. The
    // previous sector is dropped first: peak memory is one sector's.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut sector = None;
    for _ in 0..SETUP_REPS {
        drop(sector.take());
        let t = Instant::now();
        let built = Sector::build(family, cfg.sites());
        let build = t.elapsed();
        setups.push((build + built.product(&mut rng)).as_secs_f64());
        sector = Some(built);
    }
    let sector = sector.expect("SETUP_REPS > 0");

    // Closed loop, one client: the next solve starts when the last ended.
    let (mut times, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let clock = Instant::now();
    loop {
        let (t, stolen) = (Instant::now(), env::stolen_seconds());
        let result = checked_solve(cfg.workload.refs(cfg.smoke), || sector.solve(&probe));
        let wall = t.elapsed().as_secs_f64();
        let stolen = env::stolen_seconds() - stolen;
        let samples = probe.take();
        times.push(samples.nominal_seconds(wall, stolen));
        attempted += 1;
        print!(
            "solve {attempted}: {wall:.3} s wall, {stolen:.2} s stolen, {} samples ({:.3} s) at {:.3} of nominal → {:.3} s",
            samples.count(),
            samples.spent_s(),
            samples.slowdown(),
            times[attempted - 1]
        );
        match result {
            Ok(s) => println!(
                ", {} products, λ = {:.12} {:.12}",
                s.matvecs, s.eigenvalues[0], s.eigenvalues[1]
            ),
            Err(why) => {
                failed += 1;
                println!(" FAILED: {why}");
            }
        }
        if clock.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("solve_s", median(&times), times.len());
    metrics.set("setup_s", median(&setups), setups.len());
    // The probe's table is resident from before the first set-up on.
    metrics.set("peak_rss_mb", env::peak_rss_mib() - TABLE_MIB as f64, 1);
    RunOutcome { attempted, failed, metrics }
}
