//! The repo benchmark: time to converged eigenvalues on four reference
//! sectors, with an outside-in per-layer trace. See `README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command does)
//! benchmark [--passes P] [--seed N] [--seconds S]            every workload, both passes → out/result.json
//! benchmark compare A.json B.json                            two results against the bounds
//! benchmark --verify-refs                                    re-derive the reference eigenvalues
//! ```
//! `--smoke` swaps in the 6–16-site stand-ins of the workloads.

pub mod compare;
pub mod env;
pub mod json;
pub mod metrics;
pub mod pass;
pub mod probe;
pub mod replay;
pub mod stats;
pub mod suite;
pub mod surface;
pub mod trace;
pub mod traced;
pub mod workloads;

use json::Json;
use pass::{RunConfig, RunOutcome};
use std::process::ExitCode;
use workloads::Workload;

/// The pool width every result is taken at (`nproc` of the reference
/// machine). `--threads` exists so the fingerprint records a deviation.
const THREADS: usize = 2;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub threads: usize,
    pub passes: usize,
    pub verify_refs: bool,
    pub positional: Vec<String>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0x5eed,
        seconds: None,
        trace: false,
        smoke: false,
        threads: THREADS,
        passes: 1,
        verify_refs: false,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        let bad = |v: &str| format!("{arg}: cannot read {v:?}");
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a number")?;
                args.seed = parse_seed(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value("a duration in seconds")?;
                args.seconds =
                    Some(v.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(|| bad(v))?);
            }
            "--trace" => {
                let v = value("0 or 1")?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--threads" => {
                let v = value("a thread count")?;
                args.threads = v.parse().ok().filter(|t| *t >= 1).ok_or_else(|| bad(v))?;
            }
            "--passes" => {
                let v = value("a count")?;
                args.passes = v.parse().ok().filter(|p| *p >= 1).ok_or_else(|| bad(v))?;
            }
            "--smoke" => args.smoke = true,
            "--verify-refs" => args.verify_refs = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

/// One run of one workload in this process. The last line printed is the
/// result object the benchmark contract asks for.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {}", known.join(", "))
    })?;
    surface::set_pool_width(args.threads);
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or_else(|| suite::run_seconds(args.smoke)),
        smoke: args.smoke,
        threads: args.threads,
    };
    println!(
        "{name}{}: {} pass, seed {:#x}, {} threads, {} s",
        if args.smoke { " (smoke)" } else { "" },
        if args.trace { "traced" } else { "untraced" },
        cfg.seed,
        cfg.threads,
        cfg.seconds
    );
    let RunOutcome { attempted, failed, metrics } =
        if args.trace { traced::traced(&cfg) } else { pass::untraced(&cfg) };
    metrics.print();
    println!("attempted {attempted}, failed {failed}");
    println!("samples {}", metrics.samples_json());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", metrics.to_json()),
        ])
    );
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The command line, minus the program name.
pub fn run(argv: &[String]) -> ExitCode {
    let result = env::refuse_ls_variables().and_then(|()| parse_args(argv)).and_then(|args| {
        match (args.positional.first().map(String::as_str), &args.workload) {
            (Some("compare"), _) => compare::run(&args.positional[1..]),
            (Some(other), _) => Err(format!("unknown subcommand {other:?}")),
            (None, _) if args.verify_refs => suite::verify_refs(&args),
            (None, Some(name)) => run_one(&args, name),
            (None, None) => suite::run_all(&args),
        }
    });
    result.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        ExitCode::from(2)
    })
}
