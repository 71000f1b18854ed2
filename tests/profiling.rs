//! Tests for the ISSUE 6 profiling layer: latency-histogram percentile
//! accuracy, span-stack balance under injected faults, the v1 -> v2
//! trace-schema compatibility guarantee, live service telemetry
//! consistency, and schema sanity of the committed `BENCH_*.json`
//! snapshots.

use gpgpu::ast::parse_kernel;
use gpgpu::core::trace::{parse_json, schema_supported, SCHEMA, SCHEMA_V1};
use gpgpu::core::{compile, fault, CompileOptions, Histogram, Json, TraceEvent};
use gpgpu::service::{CompileRequest, Engine, ServiceConfig};
use gpgpu::sim::MachineDesc;
use proptest::prelude::*;
use std::sync::Mutex;

const MM: &str = "__global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
    float sum = 0.0f;
    for (int i = 0; i < w; i = i + 1) { sum += a[idy][i] * b[i][idx]; }
    c[idy][idx] = sum;
}";

const MV: &str = "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) {
    float sum = 0.0f;
    for (int i = 0; i < w; i = i + 1) { sum += a[idx][i] * b[i]; }
    c[idx] = sum;
}";

const RD: &str = "#pragma gpgpu output c
__global__ void rd(float a[len], float c[1], int len) {
    for (int s = len / 2; s > 0; s = s >> 1) {
        if (idx < s) { a[idx] = a[idx] + a[idx + s]; }
        __gsync();
    }
    if (idx == 0) { c[0] = a[0]; }
}";

fn mm_opts(n: i64) -> CompileOptions {
    CompileOptions::new(MachineDesc::gtx280())
        .bind("n", n)
        .bind("w", n)
}

/// Armed-fault state is process-global; every test that arms one must hold
/// this lock for its whole body — and so must every test that expects a
/// clean compile, or a sibling's armed fault lands in it.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Disarms the injector when a test body exits, even on assertion failure.
struct Disarmed;

impl Drop for Disarmed {
    fn drop(&mut self) {
        fault::disarm();
    }
}

// ---------------------------------------------------------------------
// Histogram percentiles
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A percentile estimate read from the log-scale histogram lands in
    /// the same power-of-two bucket as the exact rank statistic: the
    /// histogram never mislocates a percentile by more than its bucket
    /// resolution.
    #[test]
    fn percentile_estimates_stay_within_one_bucket(
        values in prop::collection::vec(0u64..4_000_000_000, 1..256),
        p in prop::sample::select(vec![0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0]),
    ) {
        let mut hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values;
        sorted.sort_unstable();
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize)
            .clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let estimate = hist.percentile(p);
        prop_assert_eq!(
            Histogram::bucket_index(estimate),
            Histogram::bucket_index(exact),
            "p{}: estimate {} and exact {} fall in different buckets",
            p, estimate, exact
        );
    }

    /// Merging two histograms is equivalent to recording the union of
    /// their samples.
    #[test]
    fn merge_equals_recording_the_union(
        a in prop::collection::vec(0u64..1_000_000, 0..64),
        b in prop::collection::vec(0u64..1_000_000, 0..64),
    ) {
        let mut ha = Histogram::new();
        for &v in &a { ha.record(v); }
        let mut hb = Histogram::new();
        for &v in &b { hb.record(v); }
        let mut union = Histogram::new();
        for &v in a.iter().chain(&b) { union.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha, union);
    }
}

// ---------------------------------------------------------------------
// Span-stack balance under faults
// ---------------------------------------------------------------------

/// A panic injected into the optimizing pipeline (caught by the
/// containment layer, degrading to the naive kernel) must not leak open
/// spans: the guard stack unwinds with the panic.
#[test]
fn span_stack_balances_when_the_pipeline_panics() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarmed;

    let k = parse_kernel(MM).unwrap();
    let opts = mm_opts(256);
    fault::arm_panic("pipeline");
    let compiled = compile(&k, &opts).expect("degrades instead of dying");
    assert!(compiled.degraded.is_some(), "pipeline fault must degrade");

    assert_eq!(compiled.profiler.open_spans(), 0, "open spans leaked");
    let spans = compiled.profiler.spans();
    assert!(!spans.is_empty(), "fault path recorded no spans at all");
    for s in &spans {
        assert!(
            s.duration_us.is_some(),
            "span `{}` left open after panic containment",
            s.name
        );
    }
}

/// A panic in a single exploration candidate is contained per-candidate;
/// the compile succeeds and every span — including the sabotaged
/// candidate's — is closed.
#[test]
fn span_stack_balances_when_one_candidate_panics() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarmed;

    let k = parse_kernel(MM).unwrap();
    let clean = compile(&k, &mm_opts(256)).unwrap();
    let winner = clean.chosen.label();
    let victim = clean
        .evaluated
        .iter()
        .map(|c| c.label())
        .find(|l| *l != winner)
        .expect("a losing candidate exists");

    fault::arm_panic(&victim);
    let compiled = compile(&k, &mm_opts(256)).expect("survives candidate fault");
    assert!(compiled.degraded.is_none(), "one bad candidate must not degrade");

    assert_eq!(compiled.profiler.open_spans(), 0, "open spans leaked");
    for s in compiled.profiler.spans() {
        assert!(
            s.duration_us.is_some(),
            "span `{}` left open after candidate panic",
            s.name
        );
    }
}

/// A clean compile produces a hierarchy: a single root span covering the
/// whole compilation whose duration bounds every child, pass spans under
/// it, one `explore` span holding one `candidate:<label>` span per design
/// point, and an aggregate table consistent with the raw records. A merge
/// space (mm) and a reduction space (rd) report alike.
#[test]
fn clean_compile_span_tree_is_well_formed() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let cases = [
        (MM, mm_opts(128)),
        (RD, CompileOptions::new(MachineDesc::gtx280()).bind("len", 65536)),
    ];
    for (src, opts) in cases {
        let k = parse_kernel(src).unwrap();
        let compiled = compile(&k, &opts).unwrap();
        let spans = compiled.profiler.spans();
        assert_eq!(compiled.profiler.open_spans(), 0);

        let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "expected one root, got {roots:?}");
        let root = roots[0];
        assert!(root.name.starts_with("compile:"), "root is {}", root.name);
        let root_end = root.start_us + root.micros();
        for s in &spans {
            assert!(s.start_us >= root.start_us, "span `{}` starts before root", s.name);
            assert!(
                s.start_us + s.micros() <= root_end,
                "span `{}` outlives the root",
                s.name
            );
        }
        assert!(
            spans.iter().any(|s| s.category == "pass"),
            "{}: no pass spans recorded",
            k.name
        );

        // One explorer span, one candidate span per evaluated or rejected
        // point, and one `candidate_micros` sample per point.
        let explores: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "explore" && s.parent == Some(root.id))
            .collect();
        assert_eq!(explores.len(), 1, "{}: explore spans {explores:?}", k.name);
        let points = compiled
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::CandidateEvaluated { .. }))
            .count();
        assert!(points > 1, "{}: {points} point(s)", k.name);
        let candidates = spans
            .iter()
            .filter(|s| s.parent == Some(explores[0].id) && s.name.starts_with("candidate:"))
            .count();
        assert_eq!(candidates, points, "{}: candidate spans", k.name);
        let micros = compiled
            .metrics
            .histogram("candidate_micros")
            .expect("candidate_micros histogram");
        assert_eq!(micros.count(), points as u64, "{}: candidate_micros", k.name);

        let agg = compiled.profiler.aggregate_by_name();
        let total_count: u64 = agg.iter().map(|(_, c, _)| c).sum();
        assert_eq!(total_count, spans.len() as u64);
        for w in agg.windows(2) {
            assert!(w[0].2 >= w[1].2, "aggregate not sorted by total time");
        }
    }
}

// ---------------------------------------------------------------------
// Schema compatibility: v1 documents stay readable after the v2 bump
// ---------------------------------------------------------------------

#[test]
fn v1_documents_still_parse_and_v2_is_a_superset() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    assert!(schema_supported(SCHEMA));
    assert!(schema_supported(SCHEMA_V1));
    assert!(!schema_supported("gpgpu-trace/v3"));

    // A pre-bump document, as written by the v1 exporter: no spans, no
    // histograms. It must parse and be recognized as a supported schema.
    let v1 = r#"{
      "schema": "gpgpu-trace/v1",
      "kernel": "mm",
      "machine": "GTX280",
      "events": [{"kind": "coalesce-staged", "array": "a"}],
      "metrics": {"chosen": "bx16", "globals": {}, "candidates": []}
    }"#;
    let doc = parse_json(v1).expect("v1 document parses");
    let tag = doc.get("schema").and_then(Json::as_str).expect("schema tag");
    assert!(schema_supported(tag), "v1 tag rejected after the v2 bump");
    assert!(doc.get("spans").is_none(), "v1 fixture must not carry spans");

    // A fresh compile emits v2: everything v1 had, plus span records and
    // duration histograms in the metrics block.
    let k = parse_kernel(MM).unwrap();
    let compiled = compile(&k, &mm_opts(128)).unwrap();
    let doc = compiled.trace_json("GTX280");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    for v1_key in ["kernel", "machine", "events", "metrics", "chosen"] {
        assert!(doc.get(v1_key).is_some(), "v2 dropped v1 key `{v1_key}`");
    }
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans array");
    assert!(!spans.is_empty(), "v2 document has no spans");
    let hists = doc
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .expect("metrics.histograms present in v2");
    let pass = hists.get("pass_micros").expect("pass_micros histogram");
    let count = pass.get("count").and_then(Json::as_f64).unwrap_or(0.0);
    assert!(count >= 1.0, "pass_micros histogram is empty");
    let p50 = pass.get("p50_us").and_then(Json::as_f64).expect("p50_us");
    let p99 = pass.get("p99_us").and_then(Json::as_f64).expect("p99_us");
    assert!(p50 <= p99, "p50 {p50} > p99 {p99}");

    // Round trip: the emitted v2 document parses back identically.
    assert_eq!(parse_json(&doc.pretty()).expect("round trip"), doc);
}

// ---------------------------------------------------------------------
// Live service telemetry
// ---------------------------------------------------------------------

/// The `{"stats": true}` snapshot agrees with the engine's own metric
/// counters: request totals match the latency histogram population, the
/// cache hit ratio is hits/(hits+misses), and percentiles are ordered.
#[test]
fn service_stats_snapshot_is_consistent_with_counters() {
    let engine = Engine::new(ServiceConfig {
        jobs: 2,
        ..ServiceConfig::default()
    })
    .expect("in-memory engine builds");

    // Six requests over two distinct artifacts: 2 misses, 4 warm hits.
    let mut reqs = Vec::new();
    for i in 0..6 {
        let mut req = CompileRequest::inline(format!("job-{i}"), if i % 2 == 0 { MV } else { MM });
        req.bindings = vec![("n".into(), 64), ("w".into(), 64)];
        reqs.push(req);
    }
    let responses = engine.run_batch(reqs);
    assert_eq!(responses.len(), 6);
    assert!(responses.iter().all(|r| r.error.is_none()), "{responses:?}");

    let doc = engine.stats_json();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    let stats = doc.get("stats").expect("stats object");
    let num = |j: &Json, path: &[&str]| -> f64 {
        let mut cur = j.clone();
        for k in path {
            cur = cur.get(k).unwrap_or_else(|| panic!("missing {path:?}")).clone();
        }
        cur.as_f64().unwrap_or_else(|| panic!("{path:?} not a number"))
    };

    assert_eq!(num(stats, &["requests", "total"]), 6.0);
    assert_eq!(num(stats, &["requests", "ok"]), 6.0);
    assert_eq!(num(stats, &["latency", "all", "count"]), 6.0);

    // Cache arithmetic, cross-checked against the exported counters.
    // (Racing workers may both miss on the same cold artifact — there is
    // no in-flight dedup — so only the lower bound is exact.)
    let hits = num(stats, &["cache", "hits"]);
    let misses = num(stats, &["cache", "misses"]);
    assert!(misses >= 2.0, "two distinct artifacts -> at least two misses");
    assert_eq!(hits + misses, 6.0);
    let ratio = num(stats, &["cache", "hit_ratio"]);
    assert!((ratio - hits / (hits + misses)).abs() < 1e-9);

    let globals = engine.metrics();
    let g = globals.globals();
    assert_eq!(g.get("service_requests"), Some(6.0));
    assert_eq!(g.get("service_cache_hits"), Some(hits));
    assert_eq!(g.get("service_cache_misses"), Some(misses));

    // Percentiles are ordered and the per-stage histograms saw every
    // request (queue wait and respond fire once per request).
    let p50 = num(stats, &["latency", "all", "p50_us"]);
    let p90 = num(stats, &["latency", "all", "p90_us"]);
    let p99 = num(stats, &["latency", "all", "p99_us"]);
    assert!(p50 <= p90 && p90 <= p99, "percentiles out of order: {p50} {p90} {p99}");
    assert_eq!(num(stats, &["stages", "queue_wait", "count"]), 6.0);
    assert_eq!(num(stats, &["stages", "respond", "count"]), 6.0);
    assert!(num(stats, &["uptime_us"]) > 0.0);

    // The snapshot is NDJSON-safe: it serializes compactly on one line
    // and parses back identically.
    let line = doc.compact();
    assert!(!line.contains('\n'));
    assert_eq!(parse_json(&line).expect("stats round trip"), doc);
}

// ---------------------------------------------------------------------
// Committed benchmark snapshots
// ---------------------------------------------------------------------

/// The `BENCH_*.json` snapshots committed at the repo root replay through
/// the in-repo parser under a supported schema tag, so a regression in
/// either the exporter or the parser is caught by the snapshot itself.
#[test]
fn committed_bench_snapshots_replay_through_the_parser() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (name, figure) in [
        ("BENCH_fig11.json", "fig11"),
        ("BENCH_fig12.json", "fig12"),
        ("BENCH_service.json", "service"),
        ("BENCH_serve.json", "serve-load"),
        ("BENCH_model.json", "model"),
        ("BENCH_tuning.json", "tuning"),
        ("BENCH_fusion.json", "fusion"),
    ] {
        let text = std::fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let doc = parse_json(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let tag = doc
            .get("schema")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name}: no schema tag"));
        assert!(schema_supported(tag), "{name}: unsupported schema `{tag}`");
        assert_eq!(doc.get("figure").and_then(Json::as_str), Some(figure), "{name}");
        // Compact re-serialization round-trips.
        assert_eq!(parse_json(&doc.compact()).expect("round trip"), doc, "{name}");
    }

    // The service snapshot embeds a live telemetry snapshot with latency
    // percentiles for the batch it measured.
    let text = std::fs::read_to_string(root.join("BENCH_service.json")).unwrap();
    let doc = parse_json(&text).unwrap();
    let lat = doc
        .get("stats")
        .and_then(|s| s.get("stats"))
        .and_then(|s| s.get("latency"))
        .and_then(|l| l.get("all"))
        .expect("stats.stats.latency.all in BENCH_service.json");
    for key in ["count", "p50_us", "p90_us", "p99_us"] {
        assert!(lat.get(key).is_some(), "latency.all missing `{key}`");
    }

    // The serve-load snapshot records per-traffic-class percentiles for
    // each regime, a nonzero shed count under saturation, and zero
    // cross-request faults everywhere (ISSUE 7 acceptance).
    let text = std::fs::read_to_string(root.join("BENCH_serve.json")).unwrap();
    let doc = parse_json(&text).unwrap();
    let runs = match doc.get("runs") {
        Some(Json::Arr(runs)) if !runs.is_empty() => runs.clone(),
        other => panic!("BENCH_serve.json runs: {other:?}"),
    };
    let mut saw_saturated_sheds = false;
    for run in &runs {
        let regime = run.get("regime").and_then(Json::as_str).unwrap_or("?");
        for class in ["hot", "cold", "malformed", "deadline-tight", "poisoned"] {
            let lat = run
                .get("classes")
                .and_then(|c| c.get(class))
                .and_then(|c| c.get("latency"))
                .unwrap_or_else(|| panic!("{regime}: no latency for `{class}`"));
            for key in ["count", "p50_us", "p99_us"] {
                assert!(lat.get(key).is_some(), "{regime}/{class} missing `{key}`");
            }
        }
        let totals = run.get("totals").expect("run totals");
        let faults = totals
            .get("cross_request_faults")
            .and_then(Json::as_f64)
            .expect("cross_request_faults");
        assert_eq!(faults, 0.0, "{regime}: a fault crossed a request boundary");
        for key in ["missing", "duplicates", "unexpected", "sheds_missing_hint"] {
            assert_eq!(
                totals.get(key).and_then(Json::as_f64),
                Some(0.0),
                "{regime}: nonzero `{key}`"
            );
        }
        if regime == "saturated" {
            saw_saturated_sheds =
                totals.get("shed").and_then(Json::as_f64).unwrap_or(0.0) > 0.0;
        }
    }
    assert!(
        saw_saturated_sheds,
        "the saturated regime never engaged admission control"
    );
}

/// The tuning snapshot (`BENCH_tuning.json`, from the `tuning_store`
/// bench) records the persistent-autotuning acceptance: on the mutated
/// Figure 11 kernels the warm-started search explores >=5x fewer
/// candidates than the cold full-grid search, every warm winner is
/// identical to its cold winner, and both service regimes carry latency
/// percentiles.
#[test]
fn tuning_snapshot_shows_5x_candidate_reduction_at_equal_winner_quality() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("BENCH_tuning.json")).unwrap();
    let doc = parse_json(&text).unwrap();

    let kernels = match doc.get("kernels") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows.clone(),
        other => panic!("BENCH_tuning.json kernels: {other:?}"),
    };
    let mut cold = 0.0;
    let mut warm = 0.0;
    for row in &kernels {
        let name = row.get("kernel").and_then(Json::as_str).unwrap_or("?");
        for key in ["fingerprint", "full_space", "warm_outcome", "reduction"] {
            assert!(row.get(key).is_some(), "{name}: missing `{key}`");
        }
        assert_eq!(
            row.get("winner_equal"),
            Some(&Json::Bool(true)),
            "{name}: the warm-started winner differs from the cold winner"
        );
        cold += row.get("cold_candidates").and_then(Json::as_f64).expect("cold_candidates");
        warm += row.get("warm_candidates").and_then(Json::as_f64).expect("warm_candidates");
    }
    assert!(kernels.len() >= 8, "fewer tuned kernels than Figure 11: {}", kernels.len());
    let reduction = doc.get("reduction").and_then(Json::as_f64).expect("reduction");
    assert!(
        reduction >= 5.0,
        "warm start must cut explored candidates by >=5x (snapshot: {reduction})"
    );
    assert!((cold / warm.max(1.0) - reduction).abs() < 0.1, "reduction not reproducible from rows");
    for regime in ["cold", "warm"] {
        let lat = doc
            .get("service")
            .and_then(|s| s.get(regime))
            .unwrap_or_else(|| panic!("service.{regime} latency missing"));
        for key in ["count", "p50_us", "p99_us"] {
            assert!(lat.get(key).is_some(), "service.{regime} missing `{key}`");
        }
    }
}

/// The timing-model snapshot (`BENCH_model.json`, from the
/// `timing_model` bench) covers every Table 1 kernel under *both* cost
/// models, and its serial-vs-parallel explorer comparison picked the
/// same winner on both schedules. The >=2x parallel speedup is asserted
/// only when the snapshot was taken on a multi-core host — a single-core
/// recording is honest about having nothing to parallelize onto.
#[test]
fn timing_model_snapshot_covers_both_models_with_stable_winners() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("BENCH_model.json")).unwrap();
    let doc = parse_json(&text).unwrap();

    let rows = match doc.get("estimate_cost") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows.clone(),
        other => panic!("estimate_cost: {other:?}"),
    };
    let mut per_model = std::collections::BTreeMap::<String, usize>::new();
    for row in &rows {
        let model = row
            .get("model")
            .and_then(Json::as_str)
            .expect("row model")
            .to_string();
        *per_model.entry(model).or_default() += 1;
        for key in ["kernel", "candidates", "compile_ms", "per_candidate_ms", "chosen"] {
            assert!(row.get(key).is_some(), "estimate_cost row missing `{key}`");
        }
    }
    let analytic = per_model.get("analytic").copied().unwrap_or(0);
    let hierarchy = per_model.get("hierarchy").copied().unwrap_or(0);
    assert_eq!(analytic, hierarchy, "unequal model coverage: {per_model:?}");
    assert!(analytic >= 10, "fewer kernels than Table 1: {per_model:?}");

    let explorer = doc.get("explorer").expect("explorer object");
    assert_eq!(
        explorer.get("winners_match"),
        Some(&Json::Bool(true)),
        "serial and parallel explorers disagreed on a winner"
    );
    let threads = explorer
        .get("worker_threads")
        .and_then(Json::as_f64)
        .expect("worker_threads");
    let speedup = explorer
        .get("speedup")
        .and_then(Json::as_f64)
        .expect("speedup");
    assert!(speedup > 0.0, "nonsensical speedup {speedup}");
    if threads >= 4.0 {
        assert!(
            speedup >= 2.0,
            "parallel explorer only {speedup:.2}x on a {threads}-thread host"
        );
    }
}

/// The fusion snapshot (`BENCH_fusion.json`, from the `fusion` bench)
/// records the kernel-fusion acceptance: under both cost models, every
/// fused pipeline moves strictly fewer global bytes than its sequential
/// two-kernel form, the planner's saving is positive, and the service
/// stats carry the fusion counters for the pairs batched through the
/// `fuse` path.
#[test]
fn fusion_snapshot_shows_reduced_global_traffic() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("BENCH_fusion.json")).unwrap();
    let doc = parse_json(&text).unwrap();

    let pairs = match doc.get("pairs") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows.clone(),
        other => panic!("BENCH_fusion.json pairs: {other:?}"),
    };
    let mut models = std::collections::BTreeSet::new();
    for row in &pairs {
        let name = row.get("pair").and_then(Json::as_str).unwrap_or("?");
        let num = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: missing `{key}`"))
        };
        let unfused = num("unfused_global_bytes");
        let fused = num("fused_global_bytes");
        assert!(
            fused < unfused,
            "{name}: fusion must reduce global traffic ({fused} !< {unfused})"
        );
        let mode = row.get("mode").and_then(Json::as_str).unwrap_or("?");
        assert!(mode == "register" || mode == "inline", "{name}: unknown mode `{mode}`");
        // Inline fusion trades intermediate reads for recomputation, so
        // the planner's naive-form estimate can be byte-neutral; register
        // fusion eliminates the round-trip outright and must show it.
        if mode == "register" {
            assert!(num("planner_bytes_saved") > 0.0, "{name}: planner saw no saving");
        }
        models.insert(
            row.get("cost_model")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{name}: missing `cost_model`"))
                .to_string(),
        );
    }
    assert_eq!(models.len(), 2, "both cost models must be measured: {models:?}");

    let fusion = doc
        .get("stats")
        .and_then(|s| s.get("stats"))
        .and_then(|s| s.get("fusion"))
        .expect("stats.stats.fusion in BENCH_fusion.json");
    assert!(
        fusion.get("fused").and_then(Json::as_f64).unwrap_or(0.0) >= 2.0,
        "the service pass must have fused both pairs: {}",
        fusion.pretty()
    );
}
