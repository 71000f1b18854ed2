//! All four workloads end to end at `--smoke` scale (a fiftieth of every
//! count, Table-1 kernels at the equivalence-test sizes): each run's result
//! line is parsed back and held against `BENCHMARK.json`, then the
//! one-command mode writes a result file that `--compare` accepts against
//! itself.

use gpgpu_trace::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_gpgpu-benchmark");
const WORKLOADS: [&str; 4] = ["table1_cold", "fuzz_verify", "serve_hot", "store_churn"];

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn scratch(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn every_workload_runs_both_ways_and_reports_the_contracts_metrics() {
    let contract = contract();
    let out_dir = scratch("single");
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
                "--out-dir",
                out_dir.to_str().unwrap(),
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = parse_json(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(
                line.get("correct").and_then(Json::as_bool),
                Some(true),
                "{stderr}"
            );
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics object");
            };
            let reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(
                reported,
                names_and_units(contract.get(list).unwrap()),
                "{workload} {list}"
            );
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(
                    value.is_finite() && value >= 0.0,
                    "{workload}: {name} = {value}"
                );
                // A bounded metric is a share of a median: it may never be 0.
                assert!(trace == "1" || value > 0.0, "{workload}: {name} is zero");
            }
        }
        let trace_file = out_dir.join(format!("trace-{workload}.json"));
        let trace = parse_json(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(spans.iter().any(|s| s
            .get("name")
            .and_then(Json::as_str)
            .is_some_and(|n| n.starts_with("req:"))));
    }
    // Nothing is left behind but the trace files.
    let leftovers: Vec<String> = std::fs::read_dir(&out_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !n.starts_with("trace-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn one_command_writes_a_result_file_that_compares_clean_against_itself() {
    let out_dir = scratch("all");
    let result = out_dir.join("r.json");
    let out = run(&[
        "--seed",
        "5",
        "--seconds",
        "0",
        "--smoke",
        "--runs",
        "2",
        "--out-dir",
        out_dir.to_str().unwrap(),
        "--out",
        result.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "== table1_cold",
        "latency_p99_ms",
        "trace.coverage",
        "failed_share",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
    let doc = parse_json(&std::fs::read_to_string(&result).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gpgpu-benchmark/v1")
    );
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(5.0));
    let provenance = doc.get("provenance").unwrap();
    for key in [
        "nproc",
        "rustc",
        "profile",
        "opt_level",
        "git_commit",
        "fault_inject",
    ] {
        assert!(provenance.get(key).is_some(), "provenance lacks `{key}`");
    }
    assert_eq!(
        provenance.get("fault_inject").and_then(Json::as_bool),
        Some(false)
    );
    for workload in WORKLOADS {
        let w = doc.get("workloads").unwrap().get(workload).unwrap();
        assert_eq!(
            w.get("failed_share").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(w.get("requests_per_pass").and_then(Json::as_f64).unwrap() >= 1.0);
        let wall = w.get("end_to_end").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("runs").and_then(Json::as_f64), Some(2.0));
        assert!(wall.get("spread").is_some());
    }

    let same = run(&[
        "--compare",
        result.to_str().unwrap(),
        result.to_str().unwrap(),
    ]);
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    assert!(table.contains("no regression"));

    // A result with a failed check, or a digest that moved, does not pass.
    let text = std::fs::read_to_string(&result).unwrap();
    let broken = out_dir.join("broken.json");
    std::fs::write(
        &broken,
        text.replacen("\"failed_share\": 0", "\"failed_share\": 0.5", 1),
    )
    .unwrap();
    let worse = run(&[
        "--compare",
        result.to_str().unwrap(),
        broken.to_str().unwrap(),
    ]);
    assert_eq!(worse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("REGRESSED"));
}

#[test]
fn the_emitted_manifest_repeats_for_a_seed_and_bad_usage_is_an_error() {
    let emit = |seed: &str| {
        let out = run(&["--emit-workload", "store_churn", "--seed", seed, "--smoke"]);
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(emit("3"), emit("3"));
    assert_ne!(emit("3"), emit("4"));
    assert_eq!(emit("3").lines().count(), 8 + 64 + 8);
    assert_eq!(
        run(&["--workload", "nope", "--trace", "0"]).status.code(),
        Some(2)
    );
    assert_eq!(run(&["--frobnicate"]).status.code(), Some(2));
}
