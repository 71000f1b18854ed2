//! The traced run of each workload — the same `table1_cold` requests, the
//! first quarter of the other three — and the per-layer values it yields.
//! Every traced request is replayed through the real product path; the
//! replay supplies the untraced time and the artifact the staged path has
//! to match.

use crate::common::{
    check_oracle_case, kernels, machine, options, oracle_cases, run_program, sim_speedup,
};
use crate::host;
use crate::inputs::{
    churn_requests, fuzz_requests, table1_requests, Body, Request, Scale, Workload,
};
use crate::report::{Values, PER_LAYER};
use crate::rng::{derive, Rng};
use crate::stats::{geomean, median};
use crate::traced::{Served, Stores, Tracer};
use crate::workloads::{
    churn_config, churn_pass, fuzz_one, in_memory_engine, prime, serve_pass, timed_request,
    Outcome, ScratchDir,
};
use gpgpu_analysis::resolve_layouts_padded;
use gpgpu_ast::Kernel;
use gpgpu_core::{naive_compiled, CachedArtifact, CompileOptions, TuningStore};
use gpgpu_service::{
    CacheDisposition, CompileCache, CompileRequest, Engine, ShardConfig, ShardedEngine, Submitted,
};
use gpgpu_sim::ExecOptions;
use gpgpu_trace::Json;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Everything a traced run observed.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: Values,
}

struct Run {
    tracer: Tracer,
    out: Outcome,
    /// Σ product-path time of the replayed requests, microseconds.
    untraced_us: f64,
    speedups: Vec<f64>,
}

impl Run {
    fn new() -> Run {
        Run {
            tracer: Tracer::new(),
            out: Outcome::default(),
            untraced_us: 0.0,
            speedups: Vec::new(),
        }
    }

    /// Books a staged request's result against what the product path
    /// delivered for the same request.
    fn compare(&mut self, req: &Request, served: &Served, product: &Option<CachedArtifact>) {
        self.out.attempted += 1;
        if let Some(e) = &served.error {
            self.out.fail(format!("{}: staged path: {e}", req.id));
        } else if &served.artifact != product {
            self.out.fail(format!(
                "{}: the staged path and the product path delivered different artifacts",
                req.id
            ));
        }
    }

    fn score(&mut self, req: &Request, artifact: &Option<CachedArtifact>) {
        if let Some(artifact) = artifact {
            match sim_speedup(req, artifact) {
                Ok(s) => self.speedups.push(s),
                Err(e) => self.out.fail(format!("{}: scoring: {e}", req.id)),
            }
        }
    }
}

/// Seeded input streams for every array a generated kernel names.
fn seeded_inputs(
    kernel: &Kernel,
    opts: &CompileOptions,
    seed: u64,
) -> Result<Vec<(String, Vec<f32>)>, String> {
    let layouts = resolve_layouts_padded(kernel, &opts.bindings).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(derive(seed, 6, 0));
    Ok(kernel
        .array_params()
        .map(|p| {
            let layout = &layouts[&p.name];
            let len = layout.logical_elems() * i64::from(layout.elem.lanes());
            (p.name.clone(), rng.floats(len as usize))
        })
        .collect())
}

/// Full-grid functional launches of a naive kernel, plain and under the
/// sanitizer — the simulator's other face, timed on its own. Books the
/// sanitizer ratio's two sides; returns the plain side (launch time in
/// microseconds, warp instructions).
fn sanitize_probe(
    tracer: &mut Tracer,
    kernel: &Kernel,
    opts: &CompileOptions,
    inputs: &[(&str, &[f32])],
) -> Result<(f64, f64), String> {
    let naive = naive_compiled(kernel, opts).map_err(|e| e.to_string())?;
    let plain = tracer.stage("sim.launch_probe", |_| {
        run_program(
            &naive.launches,
            &opts.bindings,
            inputs,
            &[],
            &ExecOptions::default(),
        )
    })?;
    let sanitized = tracer.stage("sim.launch_probe_sanitized", |_| {
        let exec = ExecOptions {
            sanitize: true,
            ..ExecOptions::default()
        };
        run_program(&naive.launches, &opts.bindings, inputs, &[], &exec)
    })?;
    tracer.add("sim.sanitize_plain_us", plain.launch_us);
    tracer.add("sim.sanitize_sanitized_us", sanitized.launch_us);
    let warp_insts = plain.stats.iter().map(|s| s.warp_insts).sum::<u64>();
    Ok((plain.launch_us, warp_insts as f64))
}

/// [`sanitize_probe`] on a generated kernel, whose grid is small enough to
/// run in full; its plain launch is also the workload's `sim.launch_*`.
fn generated_launch_probe(run: &mut Run, req: &Request) {
    let Body::Kernel(_) = &req.body else { return };
    let result = kernels(req).and_then(|ks| {
        let opts = options(req);
        let inputs = seeded_inputs(&ks[0], &opts, req.verify_seed)?;
        let borrowed: Vec<(&str, &[f32])> = inputs
            .iter()
            .map(|(n, d)| (n.as_str(), d.as_slice()))
            .collect();
        sanitize_probe(&mut run.tracer, &ks[0], &opts, &borrowed)
    });
    match result {
        Ok((launch_us, warp_insts)) => {
            run.tracer.add("sim.launch_us", launch_us);
            run.tracer.add("sim.launch_warp_insts", warp_insts);
        }
        Err(e) => run.out.fail(format!("{}: launch probe: {e}", req.id)),
    }
}

fn table1_cold(seed: u64, scale: Scale) -> Run {
    let mut run = Run::new();
    run.tracer.probe_parallelism = true;
    let requests = table1_requests(seed, scale);
    let mut stores = Stores {
        cache: CompileCache::new(256, None).expect("an in-memory cache opens no directory"),
        tuning: None,
    };
    let engine = in_memory_engine();
    for (i, req) in requests.iter().enumerate() {
        let served = run.tracer.serve(&mut stores, req, i);
        let (resp, _, ms) = timed_request(&engine, &req.line, i);
        run.untraced_us += ms * 1e3;
        run.compare(req, &served, &resp.artifact);
        run.score(req, &served.artifact);
    }
    for case in oracle_cases(seed) {
        match check_oracle_case(&case) {
            Ok(oracle) => {
                run.tracer.add("sim.launch_us", oracle.launch_us);
                run.tracer.add(
                    "sim.launch_warp_insts",
                    oracle.stats.iter().map(|s| s.warp_insts).sum::<u64>() as f64,
                );
            }
            Err(e) => run.out.fail(format!("oracle: {e}")),
        }
        // The sanitizer's cost, on the naive kernel at the same size.
        let opts = CompileOptions {
            bindings: (case.bench.bind)(case.size),
            ..CompileOptions::new(machine())
        };
        let inputs: Vec<(&str, &[f32])> = case
            .inputs
            .iter()
            .map(|(n, d)| (*n, d.as_slice()))
            .collect();
        if let Err(e) = sanitize_probe(&mut run.tracer, &case.bench.kernel(), &opts, &inputs) {
            run.out
                .fail(format!("{}: sanitize probe: {e}", case.bench.name));
        }
    }
    run
}

fn fuzz_verify(seed: u64, scale: Scale) -> Run {
    let mut run = Run::new();
    let mut requests = fuzz_requests(seed, scale);
    requests.truncate((requests.len() / 4).max(1));
    for req in &requests {
        let staged = run.tracer.verify_one(req);
        let started = Instant::now();
        let product = fuzz_one(req);
        run.untraced_us += started.elapsed().as_secs_f64() * 1e6;
        run.out.attempted += 1;
        match (staged, product) {
            (Ok(staged), Ok((kernel, opts, compiled))) => {
                let product = compiled.cache_artifact(&opts.fingerprint(&kernel));
                if staged != product {
                    run.out.fail(format!(
                        "{}: the staged path and `compile` delivered different artifacts",
                        req.id
                    ));
                }
                run.score(req, &Some(staged));
            }
            (Err(e), _) => run.out.fail(format!("{}: staged path: {e}", req.id)),
            (_, Err(e)) => run.out.fail(format!("{}: {e}", req.id)),
        }
        generated_launch_probe(&mut run, req);
    }
    run
}

/// The hit path's own probes, on the primed product engine: what one
/// request retains, whether two callers scale, and what the sharded
/// queue adds to a hit.
fn service_probes(tracer: &mut Tracer, engine: Engine, lines: &[&str]) {
    let hits = |engine: &Engine| {
        for (i, line) in lines.iter().enumerate() {
            std::hint::black_box(engine.handle_line(line, i));
        }
    };
    let before = host::rss_bytes();
    hits(&engine);
    let grown = host::rss_bytes().saturating_sub(before);
    tracer.add(
        "service.rss_bytes_per_request",
        grown as f64 / lines.len() as f64,
    );

    let started = Instant::now();
    hits(&engine);
    let one_caller = started.elapsed().as_secs_f64();
    let barrier = Barrier::new(2);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                barrier.wait();
                hits(&engine);
            });
        }
    });
    let two_callers = started.elapsed().as_secs_f64();
    // (2n / t2) over 2 · (n / t1): 1.0 is perfect scaling, 0.5 is none.
    tracer.add("service.two_caller_scaling", one_caller / two_callers);

    let sharded = ShardedEngine::start(
        Arc::new(engine),
        ShardConfig {
            shards: 1,
            workers_per_shard: 1,
            ..ShardConfig::default()
        },
    );
    let mut roundtrips = Vec::new();
    for (i, line) in lines.iter().enumerate().take(2000) {
        let Ok(req) = CompileRequest::parse(line, i) else {
            continue;
        };
        let started = Instant::now();
        if let Submitted::Queued(rx) = sharded.submit(req, started) {
            if rx.recv().is_ok() {
                roundtrips.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    sharded.shutdown(None);
    tracer.add("service.submit_roundtrip_us_p50", median(&roundtrips));
}

fn serve_hot(seed: u64, scale: Scale) -> Run {
    let mut run = Run::new();
    let mut primed = prime(seed, scale);
    let mut draws = std::mem::take(&mut primed.draws);
    draws.truncate((draws.len() / 4).max(1));
    let mut stores = Stores {
        cache: CompileCache::new(256, None).expect("an in-memory cache opens no directory"),
        tuning: None,
    };
    for artifact in primed.artifacts.iter().flatten() {
        stores.cache.put(artifact);
    }
    for (i, &d) in draws.iter().enumerate() {
        let served = run.tracer.serve(&mut stores, &primed.keys[d], i);
        if served.cache != CacheDisposition::Memory {
            run.out.fail(format!(
                "{}: staged path served from {}",
                primed.keys[d].id,
                served.cache.as_str()
            ));
        }
        let product = primed.artifacts[d].clone();
        run.compare(&primed.keys[d], &served, &product);
    }
    let replay = serve_pass(&mut primed, &draws, &mut run.out);
    run.untraced_us = replay.latencies_ms.iter().sum::<f64>() * 1e3;
    run.tracer.add("service.handle_hit_us", run.untraced_us);
    run.tracer
        .add("service.handle_hits", replay.latencies_ms.len() as f64);
    for (key, artifact) in primed.keys.iter().zip(&primed.artifacts) {
        run.score(key, artifact);
    }
    let lines: Vec<&str> = draws
        .iter()
        .map(|&d| primed.keys[d].line.as_str())
        .collect();
    service_probes(&mut run.tracer, primed.engine, &lines);
    run
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn store_churn(seed: u64, scale: Scale, out_dir: &Path) -> Run {
    let mut run = Run::new();
    let (mut keys, mut draws) = churn_requests(seed, scale);
    keys.truncate((keys.len() / 4).max(1));
    draws.truncate((draws.len() / 4).max(1));
    for d in &mut draws {
        *d %= keys.len();
    }
    let staged_dir = ScratchDir::create(out_dir, "churn-staged");
    let config = churn_config(&staged_dir.0, keys.len());
    let open = |tracer: &mut Tracer| {
        let cache = CompileCache::new(config.cache_entries, config.cache_dir.as_deref())
            .expect("the scratch directory is writable");
        let dir = config
            .tuning_dir
            .clone()
            .expect("store_churn has a tuning store");
        let started = Instant::now();
        let tuning = tracer.stage("tuning.open", |_| Arc::new(TuningStore::open(&dir)));
        let stores = Stores {
            cache,
            tuning: Some(tuning),
        };
        (stores, started.elapsed().as_secs_f64())
    };
    let close = |tracer: &mut Tracer, stores: Stores| {
        let c = stores
            .tuning
            .map(|store| store.counters())
            .unwrap_or_default();
        let warm = c.warm_hits + c.neighbor_hits;
        tracer.add("tuning.warm_hits", warm as f64);
        tracer.add("tuning.lookups", (warm + c.misses + c.reexplored) as f64);
        tracer.add("tuning.write_errors", c.write_errors as f64);
    };

    // publish
    let (mut stores, mut phase) = open(&mut run.tracer);
    let mut published = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let served = run.tracer.serve(&mut stores, key, i);
        phase += served.micros / 1e6;
        published.push(served);
    }
    run.tracer.add("service.phase_publish_s", phase);
    close(&mut run.tracer, stores);
    run.tracer.add(
        "tuning.journal_bytes",
        dir_bytes(&staged_dir.0.join("tuning")) as f64,
    );

    // restart_read
    let (mut stores, mut phase) = open(&mut run.tracer);
    for (i, &d) in draws.iter().enumerate() {
        let served = run.tracer.serve(&mut stores, &keys[d], i);
        phase += served.micros / 1e6;
        run.out.attempted += 1;
        if served.artifact != published[d].artifact {
            run.out.fail(format!(
                "{}: staged restart_read differs from staged publish",
                keys[d].id
            ));
        }
    }
    run.tracer.add("service.phase_restart_read_s", phase);
    close(&mut run.tracer, stores);

    // warm_recompile
    if let Err(e) = std::fs::remove_dir_all(staged_dir.0.join("cache")) {
        run.out
            .fail(format!("cannot drop the staged artifact cache: {e}"));
    }
    let (mut stores, mut phase) = open(&mut run.tracer);
    let before = (
        run.tracer.count("tuning.explored"),
        run.tracer.count("tuning.full_space"),
    );
    for (i, key) in keys.iter().enumerate() {
        let served = run.tracer.serve(&mut stores, key, i);
        phase += served.micros / 1e6;
        run.out.attempted += 1;
        if served.artifact != published[i].artifact {
            run.out.fail(format!(
                "{}: staged warm_recompile differs from staged publish",
                key.id
            ));
        }
    }
    run.tracer.add(
        "tuning.warm_explored",
        run.tracer.count("tuning.explored") - before.0,
    );
    run.tracer.add(
        "tuning.warm_full_space",
        run.tracer.count("tuning.full_space") - before.1,
    );
    run.tracer.add("service.phase_warm_recompile_s", phase);
    close(&mut run.tracer, stores);

    // The same three phases through the real engine.
    let replay_dir = ScratchDir::create(out_dir, "churn-replay");
    let engine = Engine::new(churn_config(&replay_dir.0, keys.len()))
        .expect("the scratch directory is writable");
    let (replay, product) = churn_pass(&keys, &draws, &replay_dir.0, engine, &mut run.out);
    run.untraced_us = replay.latencies_ms.iter().sum::<f64>() * 1e3;
    for ((key, served), (_, product)) in keys.iter().zip(&published).zip(&product) {
        run.compare(key, served, product);
        run.score(key, &served.artifact);
    }
    for key in &keys {
        generated_launch_probe(&mut run, key);
    }
    run
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer values, in [`PER_LAYER`] order.
fn values(run: &Run) -> Values {
    let t = &run.tracer;
    let (artifact_digest, stats_digest) = t.digests();
    let estimate_us = t.count("sim.estimate_trace_us") + t.count("sim.estimate_model_us");
    let candidates = t.count("core.candidates_evaluated")
        + t.count("core.candidates_rejected")
        + t.count("core.candidates_faulted");
    let requests = t.requests() as f64;
    let value = |name: &str| -> f64 {
        match name {
            "ast.parse_us" => t.busy_us("ast.parse") + t.busy_us("ast.access_spans"),
            "ast.parse_calls" => t.calls("ast.parse"),
            "ast.print_us" => t.busy_us("ast.print"),
            "analysis.cache_hit_ratio" => ratio(
                t.count("analysis.cache_hits"),
                t.count("analysis.cache_hits") + t.count("analysis.cache_misses"),
            ),
            "sim.estimate_us" => estimate_us,
            "sim.estimate_trace_share" => ratio(t.count("sim.estimate_trace_us"), estimate_us),
            "sim.estimate_ns_per_warp_inst" => ratio(
                t.count("sim.winner_trace_us") * 1e3,
                t.count("sim.winner_warp_insts"),
            ),
            "sim.estimate_hierarchy_us" => t.busy_us("sim.estimate_hierarchy"),
            "sim.launch_ns_per_warp_inst" => ratio(
                t.count("sim.launch_us") * 1e3,
                t.count("sim.launch_warp_insts"),
            ),
            "sim.sanitize_overhead_ratio" => ratio(
                t.count("sim.sanitize_sanitized_us"),
                t.count("sim.sanitize_plain_us"),
            ),
            "sim.stats_digest" => stats_digest as f64,
            "core.useful_candidate_ratio" => {
                ratio(t.count("core.candidates_evaluated"), candidates)
            }
            "core.candidate_us_p50" => t.candidate_us_p50(),
            "core.explore_parallel_speedup" => ratio(
                t.count("core.explore_serial_us"),
                t.count("core.explore_default_us"),
            ),
            "core.artifact_digest" => artifact_digest as f64,
            "core.sim_speedup_geomean" => geomean(&run.speedups),
            "tuning.lookup_calls" => t.calls("tuning.lookup"),
            "tuning.record_calls" => t.calls("tuning.record"),
            "tuning.warm_hit_ratio" => {
                ratio(t.count("tuning.warm_hits"), t.count("tuning.lookups"))
            }
            "tuning.explored_ratio" => ratio(
                t.count("tuning.warm_explored"),
                t.count("tuning.warm_full_space"),
            ),
            "fusion.plan_calls" => t.calls("fusion.plan"),
            "fusion.fused_ratio" => ratio(t.count("fusion.fused"), t.count("fusion.groups")),
            "fusion.traffic_reduction_geomean" => t.traffic_reduction_geomean(),
            "service.memory_hit_ratio" => ratio(t.count("service.memory_hits"), requests),
            "service.disk_hit_ratio" => ratio(t.count("service.disk_hits"), requests),
            "service.disk_read_us_per_hit" => ratio(
                t.count("service.disk_read_us"),
                t.count("service.disk_hits"),
            ),
            "service.disk_write_us_per_put" => ratio(
                t.count("service.disk_write_us"),
                t.count("service.disk_puts"),
            ),
            "service.handle_us_per_hit" => ratio(
                t.count("service.handle_hit_us"),
                t.count("service.handle_hits"),
            ),
            "trace.overhead_ratio" => ratio(t.root_us(), run.untraced_us),
            "trace.coverage" => t.coverage(),
            // `<stage>_us` is the stage's busy time; anything else is a
            // counter kept under the metric's own name.
            other => match other.strip_suffix("_us") {
                Some(stage) if t.calls(stage) > 0.0 => t.busy_us(stage),
                _ => t.count(other),
            },
        }
    };
    PER_LAYER
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

/// Runs `workload` traced, writes `trace-<workload>.json` (the kept spans
/// and the layer values) and `trace-<workload>.chrome.json` into
/// `out_dir`, and returns the per-layer values.
pub fn run(workload: Workload, seed: u64, scale: Scale, out_dir: &Path) -> Traced {
    let run = match workload {
        Workload::Table1Cold => table1_cold(seed, scale),
        Workload::FuzzVerify => fuzz_verify(seed, scale),
        Workload::ServeHot => serve_hot(seed, scale),
        Workload::StoreChurn => store_churn(seed, scale, out_dir),
    };
    let values = values(&run);
    let mut out = run.out;
    let document = Json::obj([
        ("schema", Json::str(gpgpu_trace::SCHEMA)),
        ("workload", Json::str(workload.name())),
        ("seed", Json::count(seed)),
        ("traced_requests", Json::count(run.tracer.requests() as u64)),
        (
            "layers",
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
        ("spans", run.tracer.profiler.to_json()),
    ]);
    for (file, text) in [
        (format!("trace-{}.json", workload.name()), document.pretty()),
        (
            format!("trace-{}.chrome.json", workload.name()),
            run.tracer
                .profiler
                .to_chrome_json(u64::from(std::process::id()))
                .compact(),
        ),
    ] {
        if let Err(e) = std::fs::write(out_dir.join(&file), text) {
            out.fail(format!("cannot write {file}: {e}"));
        }
    }
    Traced {
        attempted: out.attempted,
        failed: out.failed,
        failures: out.failures,
        values,
    }
}
