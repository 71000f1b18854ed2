//! The metric tables — names, units and directions, in the order they are
//! printed — and the arithmetic that turns an [`Outcome`] into end-to-end
//! values. `BENCHMARK.json` repeats the tables (a test keeps the two in
//! step) and adds the bounds.

use crate::stats::{geomean, median, quantile, sliced_p99};
use crate::workloads::Outcome;
use gpgpu_trace::Json;

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: what a user of the compile service sees. Each is
/// reported per workload, from a run with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s", "lower"),
    def("wall_s", "s", "lower"),
    def("latency_geomean_ms", "ms", "lower"),
    def("latency_p99_ms", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, from the traced run. `*_us` is busy time summed over
/// the traced requests, `*_calls` and the bare names are work counts,
/// `*_ratio`/`*_share` are useful-over-attempted ratios. None has a bound.
pub const PER_LAYER: [MetricDef; 79] = [
    // ast: lexer, parser, printer
    def("ast.parse_us", "us", "lower"),
    def("ast.parse_calls", "count", "lower"),
    def("ast.source_bytes", "B", "lower"),
    def("ast.print_us", "us", "lower"),
    def("ast.winner_stmts", "count", "lower"),
    // analysis: the §3.4 analyses behind the analysis manager
    def("analysis.layouts_us", "us", "lower"),
    def("analysis.accesses_us", "us", "lower"),
    def("analysis.sharing_us", "us", "lower"),
    def("analysis.resources_us", "us", "lower"),
    def("analysis.noncoalesced_found", "count", "higher"),
    def("analysis.cache_hit_ratio", "ratio", "higher"),
    // transform: one entry per pass
    def("transform.vectorize_us", "us", "lower"),
    def("transform.coalesce_us", "us", "lower"),
    def("transform.block_merge_us", "us", "lower"),
    def("transform.thread_merge_us", "us", "lower"),
    def("transform.prefetch_us", "us", "lower"),
    def("transform.camping_us", "us", "lower"),
    def("transform.vectorize_applied", "count", "higher"),
    def("transform.coalesce_applied", "count", "higher"),
    def("transform.block_merge_applied", "count", "higher"),
    def("transform.thread_merge_applied", "count", "higher"),
    def("transform.prefetch_applied", "count", "higher"),
    def("transform.camping_applied", "count", "higher"),
    def("transform.branch_us", "us", "lower"),
    // sim: the sampled estimate and the full-grid functional run
    def("sim.estimate_us", "us", "lower"),
    def("sim.estimate_calls", "count", "lower"),
    def("sim.estimate_trace_share", "ratio", "lower"),
    def("sim.estimate_ns_per_warp_inst", "ns", "lower"),
    def("sim.estimate_hierarchy_us", "us", "lower"),
    def("sim.launch_us", "us", "lower"),
    def("sim.launch_ns_per_warp_inst", "ns", "lower"),
    def("sim.sanitize_overhead_ratio", "ratio", "lower"),
    def("sim.stats_digest", "hash", "higher"),
    // core: the driver and the design-space search
    def("core.explore_us", "us", "lower"),
    def("core.candidates_evaluated", "count", "lower"),
    def("core.candidates_rejected", "count", "lower"),
    def("core.candidates_faulted", "count", "lower"),
    def("core.useful_candidate_ratio", "ratio", "higher"),
    def("core.candidate_us_p50", "us", "lower"),
    def("core.explore_parallel_speedup", "ratio", "higher"),
    def("core.fingerprint_us", "us", "lower"),
    def("core.infer_domain_us", "us", "lower"),
    def("core.verify_us", "us", "lower"),
    def("core.degraded", "count", "lower"),
    def("core.artifact_digest", "hash", "higher"),
    def("core.sim_speedup_geomean", "ratio", "higher"),
    // tuning: the persistent autotuning store
    def("tuning.open_us", "us", "lower"),
    def("tuning.lookup_us", "us", "lower"),
    def("tuning.lookup_calls", "count", "lower"),
    def("tuning.warm_hit_ratio", "ratio", "higher"),
    def("tuning.record_us", "us", "lower"),
    def("tuning.record_calls", "count", "lower"),
    def("tuning.journal_bytes", "B", "lower"),
    def("tuning.explored_ratio", "ratio", "lower"),
    def("tuning.write_errors", "count", "lower"),
    // fusion: the pair planner and driver
    def("fusion.plan_us", "us", "lower"),
    def("fusion.plan_calls", "count", "lower"),
    def("fusion.fused_ratio", "ratio", "higher"),
    def("fusion.compile_fused_us", "us", "lower"),
    def("fusion.traffic_reduction_geomean", "ratio", "higher"),
    // service: protocol, caches, queue
    def("service.request_parse_us", "us", "lower"),
    def("service.response_render_us", "us", "lower"),
    def("service.response_bytes", "B", "lower"),
    def("service.cache_get_us", "us", "lower"),
    def("service.cache_put_us", "us", "lower"),
    def("service.memory_hit_ratio", "ratio", "higher"),
    def("service.disk_hit_ratio", "ratio", "higher"),
    def("service.disk_read_us_per_hit", "us", "lower"),
    def("service.disk_write_us_per_put", "us", "lower"),
    def("service.evictions", "count", "lower"),
    def("service.handle_us_per_hit", "us", "lower"),
    def("service.phase_publish_s", "s", "lower"),
    def("service.phase_restart_read_s", "s", "lower"),
    def("service.phase_warm_recompile_s", "s", "lower"),
    def("service.submit_roundtrip_us_p50", "us", "lower"),
    def("service.two_caller_scaling", "ratio", "higher"),
    def("service.rss_bytes_per_request", "B", "lower"),
    // the tracing itself
    def("trace.overhead_ratio", "ratio", "lower"),
    def("trace.coverage", "ratio", "higher"),
];

/// A measured value with its unit, as the result line carries it.
pub type Values = Vec<(&'static str, f64, &'static str)>;

/// Each request's latency: its median over the passes (every pass sends
/// the same requests in the same order).
fn per_request_ms(out: &Outcome) -> Vec<f64> {
    let requests = out.passes.first().map_or(0, |p| p.latencies_ms.len());
    (0..requests)
        .map(|i| {
            let samples: Vec<f64> = out
                .passes
                .iter()
                .filter_map(|p| p.latencies_ms.get(i).copied())
                .collect();
            median(&samples)
        })
        .collect()
}

/// The end-to-end values of one untraced run.
pub fn end_to_end(out: &Outcome) -> Values {
    let walls: Vec<f64> = out.passes.iter().map(|p| p.wall_s()).collect();
    let per_request = per_request_ms(out);
    let in_order: Vec<f64> = out
        .passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let value = |name: &str| match name {
        "setup_s" => median(&out.setups_s),
        "wall_s" => median(&walls),
        "latency_geomean_ms" => geomean(&per_request),
        "latency_p99_ms" => sliced_p99(&in_order),
        "peak_rss_mb" => out.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        other => unreachable!("no definition for end-to-end metric `{other}`"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

/// The result line the benchmark contract asks for: the last line of
/// standard output of a `--workload` run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::count(attempted.max(1))),
        ("failed", Json::count(failed)),
        (
            "metrics",
            Json::Obj(
                values
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .compact()
}

/// What the result line leaves out: per-pass and per-sample statistics of
/// an untraced run — each timing as its median and upper percentiles with
/// the sample count they rest on.
pub fn details(out: &Outcome) -> Json {
    let latencies: Vec<f64> = out
        .passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let series = |values: Vec<f64>| Json::Arr(values.into_iter().map(Json::Num).collect());
    Json::obj([
        ("passes", Json::count(out.passes.len() as u64)),
        (
            "requests_per_pass",
            Json::count(out.passes.first().map_or(0, |p| p.latencies_ms.len()) as u64),
        ),
        ("setup_s", series(out.setups_s.clone())),
        (
            "wall_s",
            series(out.passes.iter().map(|p| p.wall_s()).collect()),
        ),
        (
            "phases_s",
            Json::Arr(
                out.passes
                    .iter()
                    .map(|p| series(p.phases_s.clone()))
                    .collect(),
            ),
        ),
        (
            // Every request in its own row, where a pass is short enough.
            "request_ms",
            Json::Obj(
                out.request_ids
                    .iter()
                    .cloned()
                    .zip(per_request_ms(out).into_iter().map(Json::Num))
                    .collect(),
            ),
        ),
        (
            "latency_ms",
            Json::obj([
                ("samples", Json::count(latencies.len() as u64)),
                ("p50", Json::Num(quantile(&latencies, 0.5))),
                ("p90", Json::Num(quantile(&latencies, 0.9))),
                ("p99", Json::Num(quantile(&latencies, 0.99))),
                ("max", Json::Num(quantile(&latencies, 1.0))),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_trace::parse_json;

    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        assert!(text.len() <= 64 * 1024);
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn keys(obj: &Json) -> Vec<&str> {
        match obj {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("expected an object"),
        }
    }

    /// `BENCHMARK.json` repeats the metric tables of this file, in order,
    /// and stays inside the limits the benchmark contract sets.
    #[test]
    fn benchmark_json_matches_the_tables_and_the_contract() {
        let doc = contract();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        for (key, defs, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                let text = |k: &str| entry.get(k).and_then(Json::as_str).unwrap();
                assert_eq!(
                    (text("name"), text("unit"), text("better")),
                    (def.name, def.unit, def.better)
                );
                assert!(is_name(def.name) && is_unit(def.unit), "{}", def.name);
                assert!(matches!(def.better, "lower" | "higher"));
                if bounded {
                    assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
                    let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
                } else {
                    assert_eq!(keys(entry), ["name", "unit", "better"]);
                }
            }
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let setup = &list("end_to_end")[0];
        assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup_s"));
        let largest = list("end_to_end")
            .iter()
            .filter_map(|m| m.get("bound").and_then(Json::as_f64))
            .fold(0.0, f64::max);
        assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::inputs::Workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(crate::inputs::Workload::ALL) {
            assert_eq!(keys(entry), ["name", "why"]);
            assert_eq!(
                entry.get("name").and_then(Json::as_str),
                Some(workload.name())
            );
            let why = entry.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
            names.push(workload.name());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");

        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        let command = list("command");
        assert!(command.len() <= 32);
        for word in &command {
            let word = word.as_str().unwrap();
            assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
        }
        assert_eq!(list("paths").len(), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 0, 0, &vec![("wall_s", 1.25, "s")]);
        let doc = parse_json(&line).unwrap();
        assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
        // `attempted` is at least 1 even for an empty run.
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1.0));
        let m = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(keys(m), ["value", "unit"]);
    }

    #[test]
    fn end_to_end_values_use_medians_over_passes() {
        use crate::workloads::Pass;
        let pass = |l: &[f64]| Pass {
            latencies_ms: l.to_vec(),
            phases_s: Vec::new(),
        };
        let out = Outcome {
            setups_s: vec![3.0, 1.0, 2.0],
            passes: vec![
                pass(&[1.0, 100.0]),
                pass(&[3.0, 100.0]),
                pass(&[2.0, 400.0]),
            ],
            peak_rss_bytes: 3 << 20,
            ..Outcome::default()
        };
        let values = end_to_end(&out);
        let get = |name: &str| values.iter().find(|v| v.0 == name).unwrap().1;
        assert_eq!(get("setup_s"), 2.0);
        assert!((get("wall_s") - 0.103).abs() < 1e-12);
        // per-request medians are 2 and 100; their geometric mean:
        assert!((get("latency_geomean_ms") - 200f64.sqrt()).abs() < 1e-9);
        assert_eq!(get("latency_p99_ms"), 400.0);
        assert_eq!(get("peak_rss_mb"), 3.0);
    }
}
