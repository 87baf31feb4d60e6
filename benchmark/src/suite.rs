//! Every workload, both passes, each run in an OS process of its own, so
//! that `peak_rss_mb` belongs to one workload and nothing one run warmed
//! or fragmented reaches the next. Also the one-off reference check.

use crate::env;
use crate::json::Json;
use crate::metrics::{benchmark_json, END_TO_END};
use crate::pass::SETUP_REPS;
use crate::probe;
use crate::surface::{self, Family, Shared};
use crate::workloads::{REF_TOL, WORKLOADS};
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// How long a run keeps solving: `run_seconds` of `BENCHMARK.json`; in
/// smoke mode a single solve.
pub fn run_seconds(smoke: bool) -> f64 {
    if smoke {
        return 0.0;
    }
    benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json has run_seconds")
}

/// Runs this executable on one workload and returns its result object.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &args.threads.to_string()])
        .stderr(Stdio::inherit());
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("the {workload} run ({}) printed no result", out.status))?;
    let samples = lines
        .find_map(|l| l.strip_prefix("samples "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    Ok(Json::obj([("result", result), ("samples", samples)]))
}

fn count(run: &Json, key: &str) -> usize {
    run.get("result").and_then(|r| r.get(key)).and_then(Json::as_f64).unwrap_or(0.0) as usize
}

/// `--passes` untraced runs (seeds `seed`, `seed + 1`, …) and one traced
/// run per workload; prints every metric and writes `out/result.json`.
pub fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in WORKLOADS {
        let mut values: Vec<Vec<Json>> = vec![Vec::new(); END_TO_END.len()];
        let mut samples = Json::Null;
        for pass in 0..args.passes {
            let run = run_child(args, w.name, args.seed + pass as u64, false)?;
            attempted += count(&run, "attempted");
            failed += count(&run, "failed");
            for (def, column) in END_TO_END.iter().zip(&mut values) {
                let value = run
                    .get("result")
                    .and_then(|r| r.get("metrics"))
                    .and_then(|m| m.get(def.name));
                column.push(value.and_then(|v| v.get("value")).cloned().unwrap_or(Json::Null));
            }
            samples = run.get("samples").cloned().unwrap_or(Json::Null);
        }
        let traced = run_child(args, w.name, args.seed, true)?;
        attempted += count(&traced, "attempted");
        failed += count(&traced, "failed");
        rows.push(Json::obj([
            ("name", Json::str(w.name)),
            (
                "end_to_end",
                Json::obj(END_TO_END.iter().zip(values).map(|(def, column)| {
                    (
                        def.name,
                        Json::obj([
                            ("unit", Json::str(def.unit)),
                            ("values", Json::Arr(column)),
                        ]),
                    )
                })),
            ),
            ("end_to_end_samples", samples),
            (
                "per_layer",
                traced
                    .get("result")
                    .and_then(|r| r.get("metrics"))
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
            ("per_layer_samples", traced.get("samples").cloned().unwrap_or(Json::Null)),
        ]));
    }
    let doc = Json::obj([
        ("fingerprint", env::fingerprint(args.threads)),
        (
            "config",
            Json::obj([
                ("seed", Json::Num(args.seed as f64)),
                (
                    "seconds",
                    Json::from(args.seconds.unwrap_or_else(|| run_seconds(args.smoke))),
                ),
                ("passes", Json::from(args.passes)),
                ("setup_reps", Json::from(SETUP_REPS)),
                ("probe_table_mib", Json::from(probe::TABLE_MIB)),
                ("probe_nominal_s", Json::from(probe::NOMINAL_S)),
                ("stolen_share", Json::from(probe::STOLEN_SHARE)),
                ("smoke", Json::Bool(args.smoke)),
            ]),
        ),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("workloads", Json::Arr(rows)),
    ]);
    let file = env::out_dir(args.smoke).join("result.json");
    std::fs::write(&file, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("wrote {} ({attempted} attempted, {failed} failed)", file.display());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Re-derives λ₀, λ₁ of every workload with the serial product and
/// unrestarted Lanczos, and compares them with the recorded references.
/// The distributed workload's references are those of the same sector in
/// shared memory.
pub fn verify_refs(args: &Args) -> Result<ExitCode, String> {
    surface::set_pool_width(args.threads);
    let mut wrong = 0;
    for w in WORKLOADS {
        let family = if w.family == Family::DistU1Chain { Family::U1Chain } else { w.family };
        let shared = Shared::build(family, w.sites(args.smoke));
        let solved = surface::solve_reference(&shared);
        let refs = w.refs(args.smoke);
        let ok = solved.converged
            && solved
                .eigenvalues
                .iter()
                .zip(&refs)
                .all(|(got, want)| (got - want).abs() <= REF_TOL);
        wrong += usize::from(!ok);
        println!(
            "{:<16} dim {:>7}  {} products  [{:.12}, {:.12}]  recorded [{:.12}, {:.12}]  {}",
            w.name,
            shared.dim(),
            solved.matvecs,
            solved.eigenvalues[0],
            solved.eigenvalues[1],
            refs[0],
            refs[1],
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    Ok(if wrong == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
