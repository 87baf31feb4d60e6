//! The harness end to end on the smoke stand-ins of the four workloads:
//! the suite mode, the single-run mode the benchmark contract drives,
//! `compare`, and the refusals.

use benchmark::json::Json;
use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::workloads::WORKLOADS;
use std::path::PathBuf;
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("harness starts")
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other}"),
    }
}

/// One test, in sequence: both halves write `out/smoke/trace-*.json`.
#[test]
fn suite_and_single_runs() {
    suite_runs_every_workload_and_compares_clean_with_itself();
    single_runs_print_the_contract_result_line();
}

fn suite_runs_every_workload_and_compares_clean_with_itself() {
    let out = harness(&["--smoke", "--passes", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/smoke/result.json");
    let result = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
    let names: Vec<_> = result
        .get("workloads")
        .unwrap()
        .as_array()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for w in result.get("workloads").unwrap().as_array() {
        let solves =
            w.get("end_to_end").unwrap().get("solve_s").unwrap().get("values").unwrap();
        assert_eq!(solves.as_array().len(), 2, "one value per pass");
        let layers = w.get("per_layer").unwrap();
        assert_eq!(keys(layers), PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        assert!(layers.get("basis.dim").unwrap().get("value").unwrap().as_f64().unwrap() > 0.0);
    }
    assert!(result.get("fingerprint").unwrap().get("simd").is_some());

    // Counts repeat exactly and nothing failed, so a result is clean
    // against itself whatever the timings were.
    let file = file.to_str().unwrap();
    let cmp = harness(&["compare", file, file]);
    assert!(cmp.status.success(), "{}", String::from_utf8_lossy(&cmp.stdout));
}

fn single_runs_print_the_contract_result_line() {
    for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let out = harness(&[
            "--workload",
            "hubbard12",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(out.status.success());
        let line = last_line(&out);
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed"), Some(&Json::Num(0.0)));
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(keys(metrics), defs.iter().map(|d| d.name).collect::<Vec<_>>());
        for d in defs {
            let m = metrics.get(d.name).unwrap();
            assert_eq!(keys(m), ["value", "unit"]);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
        }
    }
}

#[test]
fn refuses_ls_variables_and_unknown_input() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "hubbard12", "--smoke"])
        .env("LS_NUM_THREADS", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("LS_NUM_THREADS"));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
    assert_eq!(harness(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(harness(&["--trace", "2"]).status.code(), Some(2));
}
