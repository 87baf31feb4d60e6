//! `compare A.json B.json`: B against A, row by row, under the bounds of
//! `BENCHMARK.json`.
//!
//! A row is one (end-to-end metric, workload) pair. B regressed when its
//! median is worse than A's by more than the metric's bound, improved
//! when better by more than it. Where either side's own spread (quartile
//! distance over median, across its passes) exceeds the bound the row is
//! `unresolved`: the files cannot tell a change that size from noise.

use crate::json::Json;
use crate::metrics::{benchmark_json, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;
use std::process::ExitCode;

/// Per-layer counts that must be identical between two results of the
/// same commit. `eigen.matvecs` is exempt on the distributed workload,
/// whose accumulation order follows message arrival.
const EXACT_COUNTS: &[&str] = &[
    "basis.dim",
    "basis.group_order",
    "core.nnz_offdiag",
    "eigen.matvecs",
    "runtime.puts_per_matvec",
    "runtime.put_bytes_per_matvec",
    "runtime.flag_msgs_per_matvec",
    "runtime.remote_atomics_per_matvec",
    "runtime.barriers_per_matvec",
];
const ARRIVAL_ORDERED: (&str, &str) = ("dist_u1_chain20", "eigen.matvecs");

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

/// `ratio` is B's median over A's; `lower_is_better` the metric's direction.
pub fn verdict(ratio: f64, lower_is_better: bool, bound: f64, spread: Option<f64>) -> Verdict {
    let worse_by = if lower_is_better { ratio - 1.0 } else { 1.0 - ratio };
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
fn bound_of(spec: &Json, metric: &str) -> Result<f64, String> {
    spec.get("end_to_end")
        .and_then(|list| {
            list.as_array()
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
        })
        .and_then(|m| m.get("bound")?.as_f64())
        .ok_or_else(|| format!("BENCHMARK.json gives {metric} no bound"))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_array()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn values(doc: &Json, workload_name: &str, metric: &str) -> Vec<f64> {
    workload(doc, workload_name)
        .and_then(|w| w.get("end_to_end")?.get(metric)?.get("values"))
        .map(|v| v.as_array().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn layer_value(doc: &Json, workload_name: &str, metric: &str) -> Option<f64> {
    workload(doc, workload_name)?.get("per_layer")?.get(metric)?.get("value")?.as_f64()
}

pub fn run(paths: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = paths else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = benchmark_json();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut bad = 0;

    println!("A = {a_path}\nB = {b_path}\n");
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "spread A", "spread B", "bound"
    );
    for name in &names {
        for def in END_TO_END {
            let metric = def.name;
            let bound = bound_of(&spec, metric)?;
            let lower = def.better == "lower";
            let (va, vb) = (values(&a, name, metric), values(&b, name, metric));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<16} {metric:<12} missing on one side");
                bad += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            let spread = match (sa, sb) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let v = verdict(mb / ma, lower, bound, spread);
            bad += usize::from(v == Verdict::Regressed);
            let pct = |s: Option<f64>| s.map_or("n/a".into(), |s| format!("{:.2}%", 100.0 * s));
            println!(
                "{name:<16} {metric:<12} {ma:>12.4} {mb:>12.4} {:>8.4} {:>9} {:>9} {bound:>6}  {}",
                mb / ma,
                pct(sa),
                pct(sb),
                format!("{v:?}").to_lowercase()
            );
        }
    }

    println!("\ncounts that must repeat exactly:");
    for name in &names {
        for metric in EXACT_COUNTS {
            if (*name, *metric) == ARRIVAL_ORDERED {
                continue;
            }
            let (ca, cb) = (layer_value(&a, name, metric), layer_value(&b, name, metric));
            if ca != cb || ca.is_none() {
                println!("{name:<16} {metric:<34} A = {ca:?}, B = {cb:?}  DIFFERS");
                bad += 1;
            }
        }
    }
    for (label, doc) in [("A", &a), ("B", &b)] {
        let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if failed != 0.0 {
            println!("{label} has failed = {failed}");
            bad += 1;
        }
    }
    println!(
        "{}",
        if bad == 0 { "no regression, counts identical, nothing failed" } else { "NOT CLEAN" }
    );
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(verdict(1.05, true, 0.08, Some(0.01)), Verdict::Unchanged);
        assert_eq!(verdict(1.09, true, 0.08, Some(0.01)), Verdict::Regressed);
        assert_eq!(verdict(0.90, true, 0.08, Some(0.01)), Verdict::Improved);
        assert_eq!(verdict(0.90, false, 0.08, Some(0.01)), Verdict::Regressed);
        assert_eq!(verdict(1.09, false, 0.08, None), Verdict::Improved);
        // Noise wider than the bound: no claim either way.
        assert_eq!(verdict(1.30, true, 0.08, Some(0.09)), Verdict::Unresolved);
        assert_eq!(verdict(1.00, true, 0.08, Some(0.09)), Verdict::Unresolved);
    }
}
