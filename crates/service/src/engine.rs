//! The batch-compilation engine: a compile cache, a worker pool fed by a
//! bounded queue, and per-request fault containment.
//!
//! One [`Engine`] serves many requests. Each request resolves to a
//! content-addressed fingerprint; a cache hit returns the stored artifact
//! byte-identically, a miss compiles under `catch_unwind` so a poisoned
//! kernel (or an injected `GPGPU_FAULT=panic:service-<kernel>` fault)
//! degrades only its own request into a structured `internal` error while
//! the rest of the batch completes normally. Degraded compilations are
//! *not* persisted — a transient fault must not pin its fallback output
//! into the cache.

use crate::cache::{CacheOutcome, CompileCache, DiskFault};
use crate::request::{
    CacheDisposition, CompileRequest, CompileResponse, ErrorClass, SourceSpec,
};
use crate::shard::{Front, Submitted};
use gpgpu_ast::Kernel;
use gpgpu_core::{
    CachedArtifact, CompileError, CompileOptions, Json, MetricsRegistry, Profiler, SpanId,
    TraceEvent, TuningStore,
};
use gpgpu_fusion::{compile_unit, FusionError, UnitCompile, UnitError};
use gpgpu_sim::{CostModelKind, MachineDesc};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for [`Engine::run_batch`].
    pub jobs: usize,
    /// Bounded request-queue capacity (the backpressure knob), multiplied
    /// by [`crate::ShardConfig::shards`] behind a [`crate::ShardedEngine`].
    pub queue_capacity: usize,
    /// In-memory LRU capacity, in artifacts.
    pub cache_entries: usize,
    /// Root of the persistent on-disk cache; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to requests that do not carry their own, in
    /// milliseconds; `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Timing model ranking candidates for every compile this engine runs
    /// (`gpgpuc serve --cost-model`). Part of each request's cache
    /// fingerprint, so artifacts never leak across models.
    pub cost_model: CostModelKind,
    /// Root of the persistent tuning store (`--tuning-dir`); `None`
    /// compiles store-less with full exploration.
    pub tuning_dir: Option<PathBuf>,
    /// Whether tuning-store hits may narrow the design-space search
    /// (`--no-warm-start` records outcomes without consuming them).
    pub warm_start: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            jobs: 4,
            queue_capacity: 64,
            cache_entries: 256,
            cache_dir: None,
            default_deadline_ms: None,
            cost_model: CostModelKind::default(),
            tuning_dir: None,
            warm_start: true,
        }
    }
}

/// Aggregated service counters, exported through [`Engine::metrics`].
#[derive(Debug, Clone, Default)]
struct Counters {
    requests: u64,
    ok: u64,
    degraded: u64,
    errors: u64,
    memory_hits: u64,
    disk_hits: u64,
    misses: u64,
    evictions: u64,
    disk_errors: u64,
    latency_micros_total: u64,
    latency_micros_max: u64,
    queue_max_depth: u64,
    /// Requests rejected by admission control (`overloaded` responses).
    shed: u64,
    /// Expired requests swept out of a queue before reaching a worker.
    swept: u64,
    /// Corrupt/mismatched on-disk cache entries deleted (self-heals).
    self_heals: u64,
    /// Requests failed with `deadline` *before* compiling because the
    /// remaining budget was under the engine's p50 compile estimate.
    deadline_preempted: u64,
    /// Durable-state writes (compile cache or tuning store) that failed —
    /// the "dying disk" early-warning counter.
    store_write_errors: u64,
    /// Fusion groups the engine planned (every `fuse` request that reached
    /// the planner; cache hits are not re-planned).
    fusion_planned: u64,
    /// Groups fused, compiled, and differentially verified.
    fusion_fused: u64,
    /// Groups that degraded to separate member compiles (planner
    /// rejection, fused-compile failure, or verification failure).
    fusion_rejected: u64,
    /// The subset of rejections where the *verifier* refused the fused
    /// kernel — a compiler bug worth alarming on, not a routine refusal.
    fusion_verify_failures: u64,
}

/// The long-lived batch-compilation engine.
pub struct Engine {
    config: ServiceConfig,
    cache: Mutex<CompileCache>,
    counters: Mutex<Counters>,
    events: Mutex<Vec<TraceEvent>>,
    /// When the engine was built — the `stats` uptime epoch.
    started: Instant,
    /// Span table shared with every compile this engine runs: request
    /// stages (`queue-wait` → `cache-probe` → `compile` → `respond`) nest
    /// the compiler's own pass/candidate spans. Spans accumulate for the
    /// engine's lifetime (self-profile semantics), which is what the batch
    /// attribution table and `--profile` exports read.
    profiler: Profiler,
    /// Live latency histograms (`service_latency_*` per outcome class,
    /// `service_stage_*` per request stage), merged into [`Engine::metrics`]
    /// snapshots and the `stats` document.
    hists: Mutex<MetricsRegistry>,
    /// Persistent tuning store shared by every compile this engine runs;
    /// `None` when the config names no `tuning_dir`.
    tuning: Option<Arc<TuningStore>>,
    /// Fingerprints currently being compiled — the cache-stampede guard.
    /// A request that misses the cache but finds its fingerprint here
    /// waits for the in-flight compile and takes the hit instead of
    /// duplicating the work (hot traffic arriving concurrently compiles
    /// once, not N times).
    inflight_fps: Mutex<HashSet<String>>,
    inflight_cv: Condvar,
}

/// Holds one fingerprint's slot in the stampede guard; releasing (on any
/// exit path, including an error response) wakes every waiter so they
/// re-probe the cache.
struct InflightSlot<'a> {
    engine: &'a Engine,
    fingerprint: String,
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        lock(&self.engine.inflight_fps).remove(&self.fingerprint);
        self.engine.inflight_cv.notify_all();
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Whether a request that has already waited `waited_ms` of its
/// `limit_ms` deadline is expired. A zero deadline is expired on arrival
/// — such a request must be refused at admission, never dispatched.
pub(crate) fn deadline_expired(limit_ms: u64, waited_ms: u64) -> bool {
    limit_ms == 0 || waited_ms > limit_ms
}

/// Parses the request's compile unit — one kernel, or a `fuse` pair in
/// producer→consumer order. The error is the class and detail of the
/// first member that is unresolved or does not parse.
fn parse_unit(req: &CompileRequest) -> Result<Vec<Kernel>, (ErrorClass, String)> {
    let (specs, fused) = (req.unit_specs(), req.fuse.is_some());
    if fused && specs.len() != 2 {
        let detail = "`fuse` must list exactly two kernels".to_string();
        return Err((ErrorClass::BadRequest, detail));
    }
    let mut unit = Vec::with_capacity(specs.len());
    for (spec, role) in specs.iter().zip(["producer", "consumer"]) {
        let Some(text) = spec.text() else {
            let detail = match spec {
                SourceSpec::File(path) if fused => {
                    format!("fuse member `{path}` is an unresolved file")
                }
                _ => "request still points at an unresolved file".to_string(),
            };
            return Err((ErrorClass::BadRequest, detail));
        };
        let parsed = gpgpu_ast::parse_kernel(text).map_err(|e| match fused {
            true => (ErrorClass::Parse, format!("fuse {role}: {e}")),
            false => (ErrorClass::Parse, e.to_string()),
        });
        unit.push(parsed?);
    }
    Ok(unit)
}

impl Engine {
    /// Builds an engine, opening (and creating) the persistent cache
    /// directory when the config names one.
    ///
    /// # Errors
    ///
    /// Fails only when the cache directory cannot be created.
    pub fn new(config: ServiceConfig) -> std::io::Result<Engine> {
        let cache = CompileCache::new(config.cache_entries, config.cache_dir.as_deref())?;
        // Opening the tuning store never fails — I/O problems yield a
        // degraded store that answers every lookup with full exploration.
        let tuning = config
            .tuning_dir
            .as_deref()
            .map(|dir| Arc::new(TuningStore::open(dir)));
        let engine = Engine {
            config,
            cache: Mutex::new(cache),
            counters: Mutex::new(Counters::default()),
            events: Mutex::new(Vec::new()),
            started: Instant::now(),
            profiler: Profiler::new(),
            hists: Mutex::new(MetricsRegistry::new()),
            tuning,
            inflight_fps: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
        };
        if let Some(store) = &engine.tuning {
            let notes = store.drain_notes();
            let mut events = lock(&engine.events);
            for note in notes {
                events.push(match note {
                    gpgpu_core::StoreNote::Degraded { reason } => {
                        TraceEvent::StoreDegraded {
                            store: "tuning",
                            reason,
                        }
                    }
                    gpgpu_core::StoreNote::SelfHeal { detail } => TraceEvent::Note {
                        message: format!("tuning store self-heal: {detail}"),
                    },
                    gpgpu_core::StoreNote::WriteError { detail } => {
                        TraceEvent::StoreWriteError {
                            store: "tuning",
                            detail,
                        }
                    }
                });
            }
        }
        Ok(engine)
    }

    /// The engine's persistent tuning store, when one is open.
    pub fn tuning_store(&self) -> Option<&Arc<TuningStore>> {
        self.tuning.as_ref()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn emit(&self, event: TraceEvent) {
        lock(&self.events).push(event);
    }

    /// Drains the trace events recorded so far (`service-request` /
    /// `service-cache` kinds), in emission order.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut lock(&self.events))
    }

    /// The service counters as a metrics registry (the `--metrics` JSON
    /// document and the CI smoke assertions read these globals).
    pub fn metrics(&self) -> MetricsRegistry {
        let c = lock(&self.counters).clone();
        let mut reg = MetricsRegistry::new();
        let hits = c.memory_hits + c.disk_hits;
        for (name, value) in [
            ("service_requests", c.requests),
            ("service_ok", c.ok),
            ("service_degraded", c.degraded),
            ("service_errors", c.errors),
            ("service_cache_hits", hits),
            ("service_cache_memory_hits", c.memory_hits),
            ("service_cache_disk_hits", c.disk_hits),
            ("service_cache_misses", c.misses),
            ("service_cache_evictions", c.evictions),
            ("service_cache_disk_errors", c.disk_errors),
            ("service_latency_micros_total", c.latency_micros_total),
            ("service_latency_micros_max", c.latency_micros_max),
            ("service_queue_max_depth", c.queue_max_depth),
            ("service_shed_total", c.shed),
            ("service_swept_total", c.swept),
            ("service_cache_self_heals", c.self_heals),
            ("service_deadline_preempted", c.deadline_preempted),
            ("service_store_write_errors", c.store_write_errors),
            ("service_fusion_planned", c.fusion_planned),
            ("service_fusion_fused", c.fusion_fused),
            ("service_fusion_rejected", c.fusion_rejected),
            ("service_fusion_verify_failures", c.fusion_verify_failures),
        ] {
            reg.push_global(name, value as f64);
        }
        if let Some(store) = &self.tuning {
            let t = store.counters();
            for (name, value) in [
                ("service_tuning_warm_hits", t.warm_hits),
                ("service_tuning_neighbor_hits", t.neighbor_hits),
                ("service_tuning_misses", t.misses),
                ("service_tuning_reexplored", t.reexplored),
                ("service_tuning_demotions", t.demotions),
                ("service_tuning_self_heals", t.self_heals),
                ("service_tuning_write_errors", t.write_errors),
                ("service_tuning_degraded", t.degraded),
                ("service_tuning_refreshes", t.refreshes),
            ] {
                reg.push_global(name, value as f64);
            }
        }
        for (name, hist) in lock(&self.hists).histograms() {
            reg.merge_histogram(name, hist);
        }
        reg
    }

    /// The span table every request stage and contained compile records
    /// into — `gpgpuc batch` reads it for the per-stage attribution table
    /// and the `--profile` exporters.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    fn record_duration(&self, name: &str, micros: u64) {
        lock(&self.hists).record_duration(name, micros);
    }

    /// The live telemetry snapshot answering a `{"stats": true}` control
    /// request on the serve loop: uptime, request counts, queue
    /// capacity/high-water, cache hit ratio, and per-class / per-stage
    /// latency histograms with percentile estimates.
    pub fn stats_json(&self) -> Json {
        let high_water = lock(&self.counters).queue_max_depth;
        self.stats_with_queue(Json::obj([
            ("capacity", Json::count(self.config.queue_capacity as u64)),
            ("high_water", Json::count(high_water)),
        ]))
    }

    /// The stats snapshot around a given `stats.queue` block — the one
    /// the front reads live from its queue.
    pub(crate) fn stats_with_queue(&self, queue: Json) -> Json {
        let c = lock(&self.counters).clone();
        let hits = c.memory_hits + c.disk_hits;
        let probes = hits + c.misses;
        let hit_ratio = if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        };
        let hists = lock(&self.hists);
        let mut latency: Vec<(String, Json)> = Vec::new();
        let mut stages: Vec<(String, Json)> = Vec::new();
        let mut hierarchy: Vec<(String, Json)> = Vec::new();
        for (name, h) in hists.histograms() {
            if let Some(class) = name.strip_prefix("service_latency_") {
                latency.push((class.to_string(), h.to_json()));
            } else if let Some(counter) = name.strip_prefix("service_hierarchy_") {
                hierarchy.push((counter.to_string(), h.to_json()));
            } else if let Some(stage) = name.strip_prefix("service_stage_") {
                stages.push((stage.to_string(), h.to_json()));
            }
        }
        Json::obj([
            ("schema", Json::str(gpgpu_core::trace::SCHEMA)),
            (
                "stats",
                Json::obj([
                    (
                        "uptime_us",
                        Json::count(self.started.elapsed().as_micros() as u64),
                    ),
                    (
                        "requests",
                        Json::obj([
                            ("total", Json::count(c.requests)),
                            ("ok", Json::count(c.ok)),
                            ("degraded", Json::count(c.degraded)),
                            ("errors", Json::count(c.errors)),
                        ]),
                    ),
                    ("queue", queue),
                    (
                        "cache",
                        Json::obj([
                            ("hits", Json::count(hits)),
                            ("memory_hits", Json::count(c.memory_hits)),
                            ("disk_hits", Json::count(c.disk_hits)),
                            ("misses", Json::count(c.misses)),
                            ("evictions", Json::count(c.evictions)),
                            ("disk_errors", Json::count(c.disk_errors)),
                            ("self_heals", Json::count(c.self_heals)),
                            ("write_errors", Json::count(c.store_write_errors)),
                            ("hit_ratio", Json::Num(hit_ratio)),
                        ]),
                    ),
                    (
                        "tuning",
                        match &self.tuning {
                            Some(store) => store.stats_json(),
                            None => Json::Null,
                        },
                    ),
                    (
                        "fusion",
                        Json::obj([
                            ("planned", Json::count(c.fusion_planned)),
                            ("fused", Json::count(c.fusion_fused)),
                            ("rejected", Json::count(c.fusion_rejected)),
                            (
                                "verify_failures",
                                Json::count(c.fusion_verify_failures),
                            ),
                        ]),
                    ),
                    (
                        "overload",
                        Json::obj([
                            ("shed", Json::count(c.shed)),
                            ("swept", Json::count(c.swept)),
                            ("deadline_preempted", Json::count(c.deadline_preempted)),
                        ]),
                    ),
                    (
                        "cost_model",
                        Json::str(self.config.cost_model.as_str()),
                    ),
                    ("hierarchy", Json::Obj(hierarchy)),
                    ("latency", Json::Obj(latency)),
                    ("stages", Json::Obj(stages)),
                ]),
            ),
        ])
    }

    /// Parses and serves one NDJSON request line — the `serve` loop's unit
    /// of work. A malformed line yields a structured `bad-request`
    /// response, never a crash.
    pub fn handle_line(&self, line: &str, position: usize) -> CompileResponse {
        let started = Instant::now();
        let bad_request = |id: String, detail: String| {
            let resp = CompileResponse::failure(id, ErrorClass::BadRequest, detail);
            self.book_external(&resp, started);
            resp
        };
        let mut req = match CompileRequest::parse(line, position) {
            Ok(req) => req,
            Err(detail) => return bad_request(position.to_string(), detail),
        };
        match req.resolve_file() {
            Ok(()) => self.handle(req, started),
            Err(detail) => bad_request(req.id, detail),
        }
    }

    /// Serves one parsed request — the only request path. `started` is
    /// when the request entered the system (enqueue time for batches), so
    /// deadlines cover queueing.
    ///
    /// A request names one **compile unit**: a kernel (`source`) or an
    /// ordered producer→consumer pair (`fuse`). Every unit takes the same
    /// steps: fingerprint, cache probe, stampede slot, re-probe, deadline
    /// pre-emption, contained [`compile_unit`], store. A pair the fusion
    /// planner refuses still answers ok — its members compiled separately
    /// into one `separate:<slug>` artifact under the pair's fingerprint.
    ///
    /// The stampede guard's contract: of N identical requests in flight
    /// at once, exactly one answers `cache: "miss"` (it compiled); the
    /// rest wait for it and answer `"memory"` (or `"disk"`), all carrying
    /// the same artifact. *Which* of them misses is a race, not an order.
    pub fn handle(&self, req: CompileRequest, started: Instant) -> CompileResponse {
        // Book the time between enqueue and this worker picking the
        // request up — the queue-wait stage.
        let entered = Instant::now();
        self.profiler
            .record_span_between(None, "queue-wait", "service", started, entered);
        self.record_duration(
            "service_stage_queue_wait",
            entered.saturating_duration_since(started).as_micros() as u64,
        );
        let req_span = self.profiler.span("request", "service");
        let parent = Some(req_span.id());
        // Every exit books its response the same way; `unit` is `"?"`
        // until the request's kernels have parsed.
        let fail = |unit: &str, class: ErrorClass, detail: String| {
            let resp = CompileResponse::failure(req.id.clone(), class, detail);
            self.finish(&resp, unit, started, parent);
            resp
        };
        let deliver = |unit: &str, artifact: CachedArtifact, cache: CacheDisposition| {
            let resp = CompileResponse {
                id: req.id.clone(),
                artifact: Some(artifact),
                error: None,
                cache,
                micros: started.elapsed().as_micros() as u64,
            };
            self.finish(&resp, unit, started, parent);
            resp
        };
        let deadline_ms = req.deadline_ms.or(self.config.default_deadline_ms);
        // The `deadline` detail when the budget is spent, `doing` what.
        let expired = |doing: &str| {
            let limit = deadline_ms?;
            let waited = started.elapsed().as_millis() as u64;
            deadline_expired(limit, waited)
                .then(|| format!("deadline of {limit} ms elapsed after {waited} ms {doing}"))
        };
        if let Some(detail) = expired("in queue") {
            return fail("?", ErrorClass::Deadline, detail);
        }
        let Some(machine) = MachineDesc::by_name(&req.machine) else {
            let (name, known) = (&req.machine, MachineDesc::KNOWN_NAMES.join(", "));
            let detail = format!("unknown machine `{name}` (known: {known})");
            return fail("?", ErrorClass::BadRequest, detail);
        };
        let unit = match parse_unit(&req) {
            Ok(unit) => unit,
            Err((class, detail)) => return fail("?", class, detail),
        };
        // `mv`, or `scale+add` for a pair.
        let unit_name = unit.iter().map(|k| k.name.as_str()).collect::<Vec<_>>().join("+");
        let mut opts = CompileOptions::new(machine)
            .with_stages(req.stages)
            .with_verify_seed(req.verify_seed)
            .with_cost_model(self.config.cost_model)
            .with_profiler(self.profiler.clone());
        for (name, value) in &req.bindings {
            opts = opts.bind(name, *value);
        }
        if let Some(store) = &self.tuning {
            opts = opts
                .with_tuning(Arc::clone(store))
                .with_warm_start(self.config.warm_start);
        }

        // Cache probe. A pair is content-addressed by its ordered member
        // fingerprints (see `CompileOptions::fused_fingerprint`).
        let probe_span = self.profiler.span_under(parent, "cache-probe", "service");
        let probe_started = Instant::now();
        let fingerprint = match unit.as_slice() {
            [producer, consumer] => opts.fused_fingerprint(producer, consumer),
            kernels => opts.fingerprint(&kernels[0]),
        };
        let probe = self.probe(&fingerprint, None);
        drop(probe_span);
        self.record_duration(
            "service_stage_cache_probe",
            probe_started.elapsed().as_micros() as u64,
        );
        if let Some((artifact, cache)) = probe {
            return deliver(&unit_name, artifact, cache);
        }

        // Cache-stampede guard: when an identical request is already
        // compiling on another worker, wait for it instead of compiling
        // the same unit twice, then take the cache hit it stored. The
        // slot is released on every exit path (Drop), so even an error
        // response wakes the waiters — they re-probe, miss, and the next
        // one becomes the new winner.
        let _slot = {
            let mut inflight = lock(&self.inflight_fps);
            loop {
                if !inflight.contains(&fingerprint) {
                    inflight.insert(fingerprint.clone());
                    break;
                }
                if let Some(detail) = expired("waiting on an in-flight duplicate compile") {
                    drop(inflight);
                    return fail(&unit_name, ErrorClass::Deadline, detail);
                }
                let (guard, _) = self
                    .inflight_cv
                    .wait_timeout(inflight, Duration::from_millis(20))
                    .unwrap_or_else(|p| p.into_inner());
                inflight = guard;
            }
            InflightSlot {
                engine: self,
                fingerprint: fingerprint.clone(),
            }
        };
        // Re-probe now that we hold the slot: if we waited, the winner's
        // artifact is in the cache; even without waiting, a winner may
        // have stored and released between our first probe and the slot
        // acquisition. Either way the hit is taken, not recompiled.
        if let Some((artifact, cache)) = self.probe(&fingerprint, Some("coalesced")) {
            return deliver(&unit_name, artifact, cache);
        }

        // Deadline-aware scheduling: if what's left of the deadline is
        // below the observed p50 compile time, the compile would almost
        // certainly blow the budget — fail *now*, before opening a compile
        // span or burning a worker on doomed work.
        if let Some(limit) = deadline_ms {
            let elapsed_us = started.elapsed().as_micros() as u64;
            let remaining_us = limit.saturating_mul(1000).saturating_sub(elapsed_us);
            if let Some(p50_us) = self.compile_p50_estimate_us() {
                if remaining_us < p50_us {
                    lock(&self.counters).deadline_preempted += 1;
                    let detail = format!(
                        "remaining deadline {} ms is below the p50 compile \
                         estimate of {} ms; not compiling",
                        remaining_us / 1000,
                        p50_us / 1000
                    );
                    return fail(&unit_name, ErrorClass::Deadline, detail);
                }
            }
        }

        // Mid-batch tuning refresh: a shard that lost the writer election
        // re-reads the writer's on-disk state here, so this compile's
        // lookup warm-starts from what a sibling shard already recorded
        // instead of re-exploring the full grid. For the writer (or an
        // unchanged store) this is a cheap no-op.
        if let Some(store) = &self.tuning {
            store.refresh();
        }

        // Cold compile, contained: a panic here — including the injected
        // per-request `service-<unit>` fault site — poisons only this
        // request. The stage span is opened before the `catch_unwind` so
        // an unwinding fault still closes it (guard drop), and the
        // compiler's own spans nest under it because `opts` shares the
        // engine's profiler. Source spans only matter to a compile, so
        // the hit path above never builds them.
        if unit.len() == 2 {
            lock(&self.counters).fusion_planned += 1;
        }
        let source: Vec<&str> = req.unit_specs().iter().filter_map(SourceSpec::text).collect();
        let compile_span = self.profiler.span_under(parent, "compile", "service");
        let opts = opts
            .with_source(&source.join("\n"))
            .under_span(compile_span.id());
        let compile_started = Instant::now();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpgpu_core::fault::maybe_panic(&format!("service-{unit_name}"));
            compile_unit(&unit, &opts)
        }));
        drop(compile_span);
        self.record_duration(
            "service_stage_compile",
            compile_started.elapsed().as_micros() as u64,
        );
        let outcome = match attempt {
            Ok(outcome) => outcome,
            Err(payload) => {
                let detail = gpgpu_core::error::panic_message(payload);
                return fail(&unit_name, ErrorClass::Internal, detail);
            }
        };
        // What the fusion planner decided for a pair. A refusal is booked
        // whether or not the members then compiled.
        match &outcome {
            Ok(UnitCompile::Fused(_)) => lock(&self.counters).fusion_fused += 1,
            Ok(UnitCompile::Separate { rejection, .. })
            | Err(UnitError::Member { rejection, .. }) => self.book_rejection(&unit, rejection),
            _ => {}
        }
        let compiled = match outcome {
            Ok(compiled) => compiled,
            Err(e) => {
                let class = match e.compile_error() {
                    Some(CompileError::Internal(_)) | None => ErrorClass::Internal,
                    Some(_) => ErrorClass::Compile,
                };
                return fail(&unit_name, class, e.to_string());
            }
        };
        for part in compiled.parts() {
            // Surface the fusion driver's rationale event and the compile's
            // tuning-store events (degradation, self-heals, failed durable
            // writes) in the service event stream and the write-error
            // counter, so a dying disk under the store shows up in
            // `--report` and `{"stats": true}` instead of disappearing
            // into one request's trace.
            for event in part.trace.events() {
                match event {
                    TraceEvent::Fusion { .. } | TraceEvent::StoreDegraded { .. } => {
                        self.emit(event.clone())
                    }
                    TraceEvent::StoreWriteError { .. } => {
                        lock(&self.counters).store_write_errors += 1;
                        self.emit(event.clone());
                    }
                    _ => {}
                }
            }
            // Under the hierarchy cost model, fold the winner's per-level
            // memory counters into live histograms — the `{"stats": true}`
            // snapshot's `hierarchy` section.
            if let Some(h) = &part.estimate.hierarchy {
                let mut hists = lock(&self.hists);
                for (name, value) in [
                    ("service_hierarchy_l1_hits", h.l1_hits),
                    ("service_hierarchy_l2_hits", h.l2_hits),
                    ("service_hierarchy_mshr_merges", h.mshr_merges),
                    (
                        "service_hierarchy_partition_queue_peak",
                        h.partition_queue_peak,
                    ),
                ] {
                    hists.record_duration(name, value);
                }
            }
        }
        let artifact = compiled.cache_artifact(&fingerprint);
        // Degraded results are transient (a fault's fallback); only fully
        // optimized artifacts are worth pinning.
        if artifact.degraded.is_none() {
            self.persist(&artifact);
        }
        deliver(&unit_name, artifact, CacheDisposition::Miss)
    }

    /// Probes the cache for `fingerprint`, booking any soft disk fault and
    /// a `service-cache` event: `op` when given (emitted only on a hit —
    /// the stampede re-probe), else `hit` / `disk-hit` / `miss`. The one
    /// place a [`CacheOutcome`] becomes a [`CacheDisposition`].
    fn probe(
        &self,
        fingerprint: &str,
        op: Option<&'static str>,
    ) -> Option<(CachedArtifact, CacheDisposition)> {
        let probe = lock(&self.cache).get(fingerprint);
        if let Some(err) = &probe.disk_error {
            self.note_disk_error(fingerprint, err);
        }
        let (disposition, outcome_op) = match probe.outcome {
            CacheOutcome::MemoryHit => (CacheDisposition::Memory, "hit"),
            CacheOutcome::DiskHit => (CacheDisposition::Disk, "disk-hit"),
            CacheOutcome::Miss => (CacheDisposition::Miss, "miss"),
        };
        if op.is_none() || probe.artifact.is_some() {
            self.emit(TraceEvent::ServiceCache {
                op: op.unwrap_or(outcome_op),
                fingerprint: fingerprint.to_string(),
            });
        }
        probe.artifact.map(|artifact| (artifact, disposition))
    }

    /// Books a refused pair: the counters and the `fusion-rejected` event.
    fn book_rejection(&self, unit: &[Kernel], rejection: &FusionError) {
        {
            let mut c = lock(&self.counters);
            c.fusion_rejected += 1;
            // The verifier refusing a fused kernel is a compiler bug worth
            // alarming on, not a routine refusal.
            if matches!(rejection, FusionError::Verify(_)) {
                c.fusion_verify_failures += 1;
            }
        }
        if let [producer, consumer] = unit {
            self.emit(TraceEvent::FusionRejected {
                producer: producer.name.clone(),
                consumer: consumer.name.clone(),
                reason: rejection.slug(),
                detail: rejection.detail(),
            });
        }
    }

    /// Stores an artifact in the cache, booking evictions and disk faults.
    fn persist(&self, artifact: &CachedArtifact) {
        let fingerprint = &artifact.fingerprint;
        let (evicted, disk_error) = lock(&self.cache).put(artifact);
        self.emit(TraceEvent::ServiceCache {
            op: "store",
            fingerprint: fingerprint.clone(),
        });
        if self.has_disk() {
            self.emit(TraceEvent::ServiceCache {
                op: "disk-store",
                fingerprint: fingerprint.clone(),
            });
        }
        if let Some(victim) = evicted {
            lock(&self.counters).evictions += 1;
            self.emit(TraceEvent::ServiceCache {
                op: "evict",
                fingerprint: victim,
            });
        }
        if let Some(err) = disk_error {
            // A failed persist is a miss that silently costs every future
            // request a recompile: count it and name it, don't just log
            // the disk fault.
            lock(&self.counters).store_write_errors += 1;
            self.emit(TraceEvent::StoreWriteError {
                store: "cache",
                detail: format!("{fingerprint}: {}", err.detail),
            });
            self.note_disk_error(fingerprint, &err);
        }
    }

    fn has_disk(&self) -> bool {
        lock(&self.cache).has_disk()
    }

    fn note_disk_error(&self, fingerprint: &str, fault: &DiskFault) {
        {
            let mut c = lock(&self.counters);
            c.disk_errors += 1;
            if fault.healed {
                c.self_heals += 1;
            }
        }
        self.emit(TraceEvent::ServiceCache {
            op: if fault.healed { "self-heal" } else { "disk-error" },
            fingerprint: format!("{fingerprint}: {}", fault.detail),
        });
    }

    /// Books an admission-control shed into the counters (the
    /// `service_shed_total` metric).
    pub(crate) fn note_shed(&self) {
        lock(&self.counters).shed += 1;
    }

    /// Books expired requests swept from a queue before dispatch.
    pub(crate) fn note_swept(&self, n: u64) {
        lock(&self.counters).swept += n;
    }

    /// Folds the front queue's high-water mark into the engine counters.
    pub(crate) fn note_queue_depth(&self, depth: u64) {
        let mut c = lock(&self.counters);
        c.queue_max_depth = c.queue_max_depth.max(depth);
    }

    /// Books a response produced *outside* [`Engine::handle`] — admission
    /// refusals, queue sweeps, and drain-timeout sheds — so the stats stay
    /// consistent with everything the server emitted.
    pub(crate) fn book_external(&self, resp: &CompileResponse, started: Instant) {
        self.finish(resp, "?", started, None);
    }

    /// The p50 of observed compile-stage times, in microseconds — the
    /// deadline scheduler's estimate of what admitting a cold request
    /// costs. `None` until enough samples (8) have accumulated to trust.
    pub fn compile_p50_estimate_us(&self) -> Option<u64> {
        let hists = lock(&self.hists);
        let h = hists.histogram("service_stage_compile")?;
        if h.count() < 8 {
            return None;
        }
        Some(h.percentile(50.0))
    }

    /// Books a finished response into the counters, the latency
    /// histograms, and the event stream.
    fn finish(
        &self,
        resp: &CompileResponse,
        kernel: &str,
        started: Instant,
        parent: Option<SpanId>,
    ) {
        let respond_span = self.profiler.span_under(parent, "respond", "service");
        let respond_started = Instant::now();
        let micros = started.elapsed().as_micros() as u64;
        let outcome = match &resp.error {
            Some(e) => e.class.as_str().to_string(),
            None => match &resp.artifact {
                Some(a) if a.degraded.is_some() => "degraded".to_string(),
                _ => "ok".to_string(),
            },
        };
        {
            let mut c = lock(&self.counters);
            c.requests += 1;
            match outcome.as_str() {
                "ok" => c.ok += 1,
                "degraded" => c.degraded += 1,
                _ => c.errors += 1,
            }
            match resp.cache {
                CacheDisposition::Memory => c.memory_hits += 1,
                CacheDisposition::Disk => c.disk_hits += 1,
                CacheDisposition::Miss if resp.error.is_none() => c.misses += 1,
                CacheDisposition::Miss => {}
            }
            c.latency_micros_total += micros;
            c.latency_micros_max = c.latency_micros_max.max(micros);
        }
        self.record_duration("service_latency_all", micros);
        self.record_duration(&format!("service_latency_{outcome}"), micros);
        self.emit(TraceEvent::ServiceRequest {
            id: resp.id.clone(),
            kernel: kernel.to_string(),
            cache_hit: resp.cache.is_hit(),
            micros,
            outcome,
        });
        drop(respond_span);
        self.record_duration(
            "service_stage_respond",
            respond_started.elapsed().as_micros() as u64,
        );
    }

    /// Runs a whole batch through the front's worker loop on this engine:
    /// `config.jobs` workers drain one queue of `queue_capacity` slots,
    /// each request blocks for a slot (backpressure, never a shed), and
    /// the responses come back **in request order** regardless of
    /// completion order.
    pub fn run_batch(&self, requests: Vec<CompileRequest>) -> Vec<CompileResponse> {
        let jobs = self.config.jobs.max(1);
        let front = Front::new(self.config.queue_capacity, jobs);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| front.serve(self));
            }
            let pending: Vec<(String, Submitted)> = requests
                .into_iter()
                .map(|req| (req.id.clone(), front.push(self, req, Instant::now())))
                .collect();
            front.close(self);
            let answer = |(id, submitted): (String, Submitted)| match submitted {
                Submitted::Rejected(resp) => *resp,
                Submitted::Queued(rx) => rx.recv().unwrap_or_else(|_| {
                    let detail = "worker exited without a response";
                    CompileResponse::failure(id, ErrorClass::Internal, detail)
                }),
            };
            pending.into_iter().map(answer).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MV: &str = "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) \
                      { float sum = 0.0f; for (int i = 0; i < w; i = i + 1) \
                      { sum += a[idx][i] * b[i]; } c[idx] = sum; }";

    /// `scale` → `add` as one `fuse` request line.
    const PAIR: &str = r#"{"fuse": [
        {"source": "__global__ void scale(float a[n], float t[n], int n) { t[idx] = a[idx] * 2.0f; }"},
        {"source": "__global__ void add(float t[n], float b[n], float c[n], int n) { c[idx] = t[idx] + b[idx]; }"}],
        "bindings": {"n": 4096}}"#;

    /// The two kinds of compile unit, as requests: one kernel, one pair.
    fn units() -> [CompileRequest; 2] {
        let mut single = CompileRequest::inline("unit", MV);
        single.bindings = vec![("n".into(), 64), ("w".into(), 64)];
        let pair = CompileRequest::parse(&PAIR.replace('\n', " "), 0)
            .unwrap_or_else(|e| panic!("{e}"));
        [single, pair]
    }

    fn global(engine: &Engine, name: &str) -> f64 {
        let doc = engine.metrics().to_json();
        let value = doc.get("globals").and_then(|g| g.get(name));
        value.and_then(Json::as_f64).unwrap_or_else(|| panic!("missing global {name}"))
    }

    /// The stampede guard, for every kind of unit: identical requests
    /// racing on a cold cache compile exactly once — one miss does the
    /// work, every other thread waits and takes the hit it stored.
    #[test]
    fn concurrent_identical_requests_compile_once() {
        for req in units() {
            let engine = Engine::new(ServiceConfig::default()).unwrap_or_else(|e| panic!("{e}"));
            let responses: Vec<CompileResponse> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4)
                    .map(|_| scope.spawn(|| engine.handle(req.clone(), Instant::now())))
                    .collect();
                let join = |w: std::thread::ScopedJoinHandle<'_, CompileResponse>| {
                    w.join().unwrap_or_else(|_| panic!("worker panicked"))
                };
                workers.into_iter().map(join).collect()
            });
            assert!(responses.iter().all(|r| r.ok()), "{responses:?}");
            let count = |d| responses.iter().filter(|r| r.cache == d).count();
            assert_eq!(
                (count(CacheDisposition::Miss), count(CacheDisposition::Memory)),
                (1, 3),
                "{responses:?}"
            );
            // And the artifacts are byte-identical across winner and waiters.
            assert!(responses.iter().all(|r| r.artifact == responses[0].artifact));
            if req.fuse.is_some() {
                assert_eq!(global(&engine, "service_fusion_planned"), 1.0);
            }
        }
    }

    /// Deadline pre-emption is per unit, not per path: once the engine has
    /// a p50 compile estimate, a cold request of either kind whose budget
    /// is below it answers `deadline` without opening a compile span.
    #[test]
    fn deadlines_below_the_p50_estimate_preempt_every_unit() {
        for mut req in units() {
            let engine = Engine::new(ServiceConfig::default()).unwrap_or_else(|e| panic!("{e}"));
            for _ in 0..8 {
                engine.record_duration("service_stage_compile", 4_000_000);
            }
            req.deadline_ms = Some(1_000);
            let resp = engine.handle(req, Instant::now());
            let class = resp.error.as_ref().map(|e| e.class);
            assert_eq!(class, Some(ErrorClass::Deadline), "{resp:?}");
            assert_eq!(global(&engine, "service_deadline_preempted"), 1.0);
            let spans = engine.profiler().spans();
            assert!(spans.iter().any(|s| s.name == "cache-probe"));
            assert!(spans.iter().all(|s| s.name != "compile"), "{spans:?}");
        }
    }
}
