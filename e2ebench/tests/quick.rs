//! Quick mode: a tiny slice of every workload (the canary scenario, the
//! width-100 Table 1 member, the `linear-ci-grid` family) in both trace
//! modes, checked against the result-line schema, the metric lists in
//! `BENCHMARK.json`, and the correctness gates.

use std::path::Path;
use std::process::Command;

use nncps::scenarios::json::Json;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
}

/// Metric names of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

/// Runs the benchmark with whitespace-separated `args`; returns its exit
/// code and standard output.
fn run(args: &str) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_nncps_e2ebench"))
        .args(args.split_whitespace())
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    (output.status.code(), stdout)
}

fn quick(workload: &str, trace: &str) -> Json {
    let (code, stdout) = run(&format!(
        "--workload {workload} --seed 7 --seconds 0 --trace {trace} --quick"
    ));
    assert_eq!(code, Some(0), "{workload} --trace {trace}:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is one JSON object")
}

fn check_result(result: &Json, list: &str) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(names, declared(list));
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {metric:?}");
        assert!(
            metric.get("unit").and_then(Json::as_str).is_some(),
            "{name}"
        );
        if list == "end_to_end" {
            assert!(
                value.unwrap() > 0.0,
                "end-to-end metric {name} must not read 0"
            );
        }
    }
}

#[test]
fn every_workload_reports_its_end_to_end_metrics() {
    for workload in ["registry_cold", "table1_wide", "family_serve"] {
        check_result(&quick(workload, "0"), "end_to_end");
    }
}

#[test]
fn every_workload_reports_its_per_layer_metrics() {
    for workload in ["registry_cold", "table1_wide", "family_serve"] {
        let result = quick(workload, "1");
        check_result(&result, "per_layer");
        let metric = |name: &str| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        let unaccounted = metric("trace.unaccounted_frac");
        assert!(
            (0.0..1.0).contains(&unaccounted),
            "{workload}: {unaccounted}"
        );
        if workload == "family_serve" {
            assert!(metric("pool.busy_frac") > 0.0);
            assert!(metric("store.entries_written") > 0.0);
        } else {
            assert!(metric("lp.solves") >= 1.0);
            assert!(metric("sim.rk4_steps") > 0.0);
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload registry_cold --seed 1 --seconds 1 --trace 2",
        "--workload registry_cold --seconds 1 --trace 0",
    ] {
        let (code, stdout) = run(args);
        assert_ne!(code, Some(0), "{args}");
        assert!(stdout.is_empty(), "{args}: {stdout}");
    }
}
