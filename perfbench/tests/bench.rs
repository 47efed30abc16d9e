//! The benchmark's own tests: tiny runs of every workload through the
//! real binary, checked against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the simulator is too slow for these in a debug build).

use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 3] = ["paper-grid", "llc-coord", "serve-coord"];

/// Per-layer counts that must repeat exactly between two traced runs at
/// the default seed.
const COUNTS: [&str; 6] = [
    "cmp.steps",
    "mc.issued",
    "dram.row_hit_ratio",
    "dram.row_misses",
    "dram.row_conflicts",
    "bwpartd.engine.repartition_frac",
];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark binary; returns its exit code and parsed last line.
fn run(args: &[&str]) -> (i32, Option<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    (
        out.status.code().unwrap_or(-1),
        serde_json::from_str(last).ok(),
    )
}

fn tiny(workload: &str, trace: &str) -> Value {
    let (code, result) = run(&[
        "--workload",
        workload,
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ]);
    assert_eq!(code, 0, "{workload} --trace {trace} exits 0");
    let result = result.expect("last line is the JSON result");
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    result
}

fn metric(result: &Value, name: &str) -> (f64, String) {
    let m = result
        .get("metrics")
        .and_then(|ms| ms.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"));
    let value = m
        .get("value")
        .and_then(Value::as_f64)
        .expect("numeric value");
    let unit = m
        .get("unit")
        .and_then(Value::as_str)
        .expect("unit")
        .to_string();
    (value, unit)
}

fn metric_names(result: &Value) -> Vec<String> {
    match result.get("metrics") {
        Some(Value::Object(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn smoke_runs_print_every_end_to_end_metric_with_its_unit() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        let result = tiny(w, "0");
        assert_eq!(
            metric_names(&result).len(),
            want.len(),
            "{w}: exactly the end-to-end metrics"
        );
        for (name, unit) in &want {
            let (value, got) = metric(&result, name);
            assert_eq!(&got, unit, "{w} {name}");
            assert!(value.is_finite() && value > 0.0, "{w} {name} = {value}");
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_repeat_their_counts() {
    let want = declared("per_layer");
    for w in WORKLOADS {
        let first = tiny(w, "1");
        let second = tiny(w, "1");
        assert_eq!(
            metric_names(&first).len(),
            want.len(),
            "{w}: exactly the per-layer metrics"
        );
        for (name, unit) in &want {
            let (value, got) = metric(&first, name);
            assert_eq!(&got, unit, "{w} {name}");
            assert!(value.is_finite(), "{w} {name} = {value}");
        }
        for name in COUNTS {
            assert_eq!(
                metric(&first, name).0,
                metric(&second, name).0,
                "{w}: {name} repeats"
            );
        }
        assert!(metric(&first, "cmp.steps").0 > 0.0 && metric(&first, "mc.issued").0 > 0.0);
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "paper-grid", "--trace", "2"][..],
        &["--seed", "1"][..],
        &["--workload", "paper-grid", "--bogus"][..],
    ] {
        let (code, result) = run(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(result.is_none(), "{args:?} printed a result");
    }
    let (code, result) = run(&[
        "--workload",
        "nope",
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_ne!(code, 0);
    assert!(result.is_none());
}
