//! Tiny-config runs of every workload through `run.py`: each run must
//! pass its own correctness checks and emit exactly the metrics
//! `BENCHMARK.json` names, each with its unit; a corrupted Fig. 5
//! reference must fail the run.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use ch_fleet::Json;

const WORKLOADS: [&str; 3] = ["city-day", "fig5-campaign", "serve-crash"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let json = Json::parse(&text).unwrap();
    json.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark command on a tiny config; returns the parsed last
/// stdout line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> Json {
    let output = Command::new("python3")
        .current_dir(repo_root())
        .arg("benchmark/run.py")
        .args(["--binary", env!("CARGO_BIN_EXE_ch-benchmark")])
        .args(["--workload", workload, "--seed", "2", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().unwrap()).unwrap()
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_u64).unwrap()
}

/// Asserts the run passed and emitted exactly `expected`, with units.
fn assert_emits(workload: &str, result: &Json, expected: &[(String, String)]) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert!(count(result, "attempted") >= 1, "{workload}");
    assert_eq!(count(result, "failed"), 0, "{workload}");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted_names = names.clone();
    let mut sorted_wanted = wanted.clone();
    sorted_names.sort_unstable();
    sorted_wanted.sort_unstable();
    assert_eq!(sorted_names, sorted_wanted, "{workload}: metric set");
    for (name, unit) in expected {
        let metric = result.get("metrics").and_then(|m| m.get(name)).unwrap();
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let value = metric.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for workload in WORKLOADS {
        let result = run(workload, false, &[]);
        assert_emits(workload, &result, &expected);
        for (name, _) in &expected {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap();
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_metric() {
    let expected = declared("per_layer");
    for workload in WORKLOADS {
        assert_emits(workload, &run(workload, true, &[]), &expected);
    }
}

#[test]
fn corrupted_fig5_reference_fails_the_run() {
    let mut reference = std::fs::read(repo_root().join("results/fig5.txt")).unwrap();
    let last = reference.len() - 2;
    reference[last] ^= 0x01;
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig5-corrupted.txt");
    std::fs::write(&path, reference).unwrap();
    let result = run(
        "fig5-campaign",
        false,
        &["--fig5-reference", path.to_str().unwrap()],
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(count(&result, "failed"), count(&result, "attempted"));
}
