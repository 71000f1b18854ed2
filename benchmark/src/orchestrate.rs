//! The one-command mode: every selected workload, tracing off and on, each
//! run in a fresh child process (this executable, re-executed), so that
//! peak memory and the crates' process-global registries never carry over
//! from one workload to the next. Prints every metric by name with its
//! unit and writes the result file.

use crate::host;
use crate::inputs::{manifest, Scale, Workload};
use crate::report::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use gpgpu_trace::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Schema tag of the result file.
pub const RESULT_SCHEMA: &str = "gpgpu-benchmark/v1";

pub struct Plan {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Untraced runs per workload; the file records their median and spread.
    pub runs: usize,
    /// `--traced` clears this: the traced run only.
    pub untraced: bool,
    pub out_dir: PathBuf,
    pub result_file: PathBuf,
}

/// One child run, parsed back from the last two lines of its output.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
    details: Json,
}

fn run_child(plan: &Plan, workload: Workload, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&plan.out_dir);
    if plan.scale.smoke {
        cmd.arg("--smoke");
    }
    // The child's diagnostics go straight to this process's stderr.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or_else(|| {
        format!(
            "{}: the run printed nothing ({})",
            workload.name(),
            output.status
        )
    })?;
    let result =
        parse_json(result).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    let details = lines
        .next()
        .and_then(|l| parse_json(l).ok())
        .and_then(|d| d.get("details").cloned())
        .unwrap_or(Json::Null);
    let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let metrics = match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                )
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildRun {
        correct: output.status.success()
            && result.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics,
        details,
    })
}

fn metric_rows(defs: &[MetricDef], runs: &[ChildRun]) -> Vec<(String, Json)> {
    defs.iter()
        .map(|def| {
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| n == def.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            let value = median(&samples);
            println!("    {:<36} {:>18.6} {}", def.name, value, def.unit);
            let mut fields = vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better)),
                ("runs", Json::count(samples.len() as u64)),
            ];
            if samples.len() >= 2 {
                // IQR over the median, as the benchmark contract computes
                // it; with fewer than four runs the quartiles degenerate
                // to the extremes.
                fields.push(("spread", Json::Num(iqr_share(&samples))));
            }
            (def.name.to_string(), Json::obj(fields))
        })
        .collect()
}

/// Runs the plan. Returns whether every check of every run passed.
pub fn run(plan: &Plan) -> Result<bool, String> {
    std::fs::create_dir_all(&plan.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", plan.out_dir.display()))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for &workload in &plan.workloads {
        println!("== {}", workload.name());
        let mut fields: Vec<(String, Json)> = vec![(
            "requests_per_pass".to_string(),
            Json::count(manifest(workload, plan.seed, plan.scale).len() as u64),
        )];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for (label, on, defs, runs) in [
            (
                "end_to_end",
                plan.untraced,
                &END_TO_END[..],
                plan.runs.max(1),
            ),
            ("per_layer", true, &PER_LAYER[..], 1),
        ] {
            if !on {
                continue;
            }
            println!(
                "  {label} (tracing {})",
                if label == "per_layer" { "on" } else { "off" }
            );
            let mut children = Vec::new();
            for _ in 0..runs {
                let child = run_child(plan, workload, label == "per_layer")?;
                all_correct &= child.correct;
                attempted += child.attempted;
                failed += child.failed;
                children.push(child);
            }
            fields.push((label.to_string(), Json::Obj(metric_rows(defs, &children))));
            fields.push((
                format!("{label}_details"),
                Json::Arr(children.into_iter().map(|c| c.details).collect()),
            ));
        }
        let failed_share = if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        };
        println!(
            "    {:<36} {:>18.6} ratio   ({failed} of {attempted})",
            "failed_share", failed_share
        );
        fields.push(("attempted".to_string(), Json::Num(attempted)));
        fields.push(("failed".to_string(), Json::Num(failed)));
        fields.push(("failed_share".to_string(), Json::Num(failed_share)));
        workloads.push((workload.name().to_string(), Json::Obj(fields)));
    }
    let document = Json::obj([
        ("schema", Json::str(RESULT_SCHEMA)),
        ("seed", Json::count(plan.seed)),
        ("seconds", Json::Num(plan.seconds)),
        ("smoke", Json::Bool(plan.scale.smoke)),
        ("provenance", host::provenance()),
        ("workloads", Json::Obj(workloads)),
    ]);
    write_result(&plan.result_file, &document)?;
    println!("results: {}", plan.result_file.display());
    Ok(all_correct)
}

fn write_result(path: &Path, document: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, document.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
