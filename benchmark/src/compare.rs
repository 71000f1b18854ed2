//! `--compare a.json b.json`: one row per (metric, workload) with both
//! values and a verdict under the bounds `BENCHMARK.json` fixes.
//!
//! * end-to-end metrics: *regressed* when `b` is worse than `a` by more
//!   than the bound (a share of `a`), *improved* when better by more than
//!   it, otherwise *unchanged* — unless either side's run-to-run spread
//!   is wider than the bound, in which case *unresolved*: the data cannot
//!   tell "unchanged" from "changed by less than the noise";
//! * `failed_share`: any failure in `b` is a regression (absolute zero);
//! * the deterministic counts — `core.sim_speedup_geomean` and the two
//!   digests — must be equal; a lower speed-up is a regression, a digest
//!   that differs is reported as *changed* and also fails the comparison,
//!   because "same inputs, same outputs" is what it asserts;
//! * every other per-layer metric is printed for information.

use crate::report::{END_TO_END, PER_LAYER};
use gpgpu_trace::{parse_json, Json};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
    Changed,
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "CHANGED",
            Verdict::Info => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }
}

/// The verdict on one bounded metric. `spread` is the larger of the two
/// sides' recorded spreads, when either recorded one.
pub fn bounded(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: Option<f64>) -> Verdict {
    let worse_by = if lower_is_better { b - a } else { a - b };
    // End-to-end metrics are never zero; a zero base makes any move infinite.
    let share = if worse_by == 0.0 {
        0.0
    } else {
        worse_by / a.abs()
    };
    if share > bound {
        Verdict::Regressed
    } else if share < -bound {
        Verdict::Improved
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

const EXACT: [&str; 3] = [
    "core.sim_speedup_geomean",
    "core.artifact_digest",
    "sim.stats_digest",
];

fn exact(name: &str, a: f64, b: f64) -> Verdict {
    if a == b {
        Verdict::Unchanged
    } else if name == "core.sim_speedup_geomean" {
        if b < a {
            Verdict::Regressed
        } else {
            Verdict::Improved
        }
    } else {
        Verdict::Changed
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `bound` of each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Json) -> Result<Vec<(String, f64)>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("a metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn field(doc: &Json, workload: &str, section: &str, metric: &str, key: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get(key)?
        .as_f64()
}

/// Compares two result files. Prints the table; returns whether `b` is
/// free of regressions.
pub fn run(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load(benchmark_json)?)?;
    let workloads: Vec<String> = match a.get("workloads") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(name, _)| name.clone()).collect(),
        _ => return Err(format!("{}: no `workloads` object", a_path.display())),
    };
    let mut ok = true;
    println!(
        "{:<14} {:<36} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let mut row = |workload: &str, metric: &str, a: f64, b: f64, bound: &str, verdict: Verdict| {
        let change = if a != 0.0 {
            format!("{:+.2}%", (b - a) / a.abs() * 100.0)
        } else {
            "n/a".to_string()
        };
        println!(
            "{workload:<14} {metric:<36} {a:>16.6} {b:>16.6} {change:>9} {bound:>7}  {}",
            verdict.as_str()
        );
        ok &= !verdict.fails();
    };
    for workload in &workloads {
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (
                field(&a, workload, "end_to_end", def.name, "value"),
                field(&b, workload, "end_to_end", def.name, "value"),
            ) else {
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == def.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for `{}`", def.name))?;
            let spread = [&a, &b]
                .iter()
                .filter_map(|doc| field(doc, workload, "end_to_end", def.name, "spread"))
                .reduce(f64::max);
            let verdict = bounded(va, vb, def.better == "lower", bound, spread);
            row(
                workload,
                def.name,
                va,
                vb,
                &format!("{:.0}%", bound * 100.0),
                verdict,
            );
        }
        let share = |doc: &Json| {
            doc.get("workloads")?
                .get(workload)?
                .get("failed_share")?
                .as_f64()
        };
        if let (Some(fa), Some(fb)) = (share(&a), share(&b)) {
            let verdict = if fb > 0.0 {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            };
            row(workload, "failed_share", fa, fb, "0", verdict);
        }
        for def in PER_LAYER {
            let (Some(va), Some(vb)) = (
                field(&a, workload, "per_layer", def.name, "value"),
                field(&b, workload, "per_layer", def.name, "value"),
            ) else {
                continue;
            };
            let (bound, verdict) = if EXACT.contains(&def.name) {
                ("exact", exact(def.name, va, vb))
            } else {
                ("", Verdict::Info)
            };
            row(workload, def.name, va, vb, bound, verdict);
        }
    }
    println!("{}", if ok { "no regression" } else { "REGRESSION" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_verdicts() {
        // lower is better, bound 10 %
        assert_eq!(bounded(10.0, 10.5, true, 0.1, None), Verdict::Unchanged);
        assert_eq!(bounded(10.0, 11.5, true, 0.1, None), Verdict::Regressed);
        assert_eq!(bounded(10.0, 8.0, true, 0.1, None), Verdict::Improved);
        // higher is better
        assert_eq!(bounded(10.0, 8.0, false, 0.1, None), Verdict::Regressed);
        assert_eq!(bounded(10.0, 12.0, false, 0.1, None), Verdict::Improved);
        // a spread wider than the bound cannot support "unchanged" …
        assert_eq!(
            bounded(10.0, 10.5, true, 0.1, Some(0.2)),
            Verdict::Unresolved
        );
        // … but a difference beyond the bound is still called.
        assert_eq!(
            bounded(10.0, 13.0, true, 0.1, Some(0.2)),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_verdicts() {
        assert_eq!(exact("core.artifact_digest", 5.0, 5.0), Verdict::Unchanged);
        assert_eq!(exact("core.artifact_digest", 5.0, 6.0), Verdict::Changed);
        assert_eq!(
            exact("core.sim_speedup_geomean", 5.0, 4.9),
            Verdict::Regressed
        );
        assert_eq!(
            exact("core.sim_speedup_geomean", 5.0, 5.1),
            Verdict::Improved
        );
        assert!(Verdict::Changed.fails() && Verdict::Regressed.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Info.fails());
    }
}
