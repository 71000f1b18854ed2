//! The traced run: the per-layer numbers.
//!
//! The program under test is not edited for this. The service's request
//! path and the compiler's driver are re-staged here from the crates'
//! public entry points — request parse → kernel parse → fingerprint →
//! cache probe → (`infer_domain` → vectorize → analyses → coalesce →
//! tuning lookup → `explore` → tuning record → print) → cache put →
//! response render — with one span around every call, the way
//! `benches/compiler_perf.rs` stages a compile. Each request is then
//! replayed through the real `Engine`; the two must deliver the same
//! artifact, and the ratio of their times is `trace.overhead_ratio`, so a
//! staged sequence that drifts from `compile` shows up as a failed check
//! or a ratio away from one.

use crate::common::{digest_artifact, digest_stats, Fnv};
use crate::inputs::{Body, Request};
use gpgpu_analysis::{AnalysisManager, CoalesceVerdict};
use gpgpu_ast::{
    access_spans, parse_kernel, print_kernel, visit::walk_stmts, Kernel, PrintOptions,
};
use gpgpu_core::explore::launch_for;
use gpgpu_core::{
    compile, estimate_launch, explore, infer_domain, naive_compiled, verify_equivalence_sanitized,
    CachedArtifact, Candidate, CompileError, CompileOptions, CompiledKernel, DegradedReason,
    Domain, FusionMeta, Histogram, KernelLaunch, PassManager, Profiler, SpanGuard, SpanId,
    TraceEvent, TraceSink, TuningStore, WarmStartPlan,
};
use gpgpu_fusion::{compile_fused, plan_fusion};
use gpgpu_service::{
    CacheDisposition, CacheOutcome, CompileCache, CompileRequest, CompileResponse,
};
use gpgpu_sim::{CostModelKind, MachineDesc};
use gpgpu_transform::{
    CampingPass, CoalescePass, MergeAxis, PassError, PassOutcome, PipelineState, PrefetchPass,
    ThreadBlockMergePass, ThreadMergePass, VectorizePass,
};
use gpgpu_tuning::{kernel_shape, ConfigScore, KernelShape, Lookup, ShapeContext};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Spans are kept for this many requests (and their probes); beyond that
/// only the busy-time sums grow. `serve_hot` traces 12,500 requests — a
/// span file of all of them would be tens of megabytes of repetition.
const SPAN_REQUESTS: usize = 256;

/// The stores a staged request is served from: what `Engine` owns.
pub struct Stores {
    pub cache: CompileCache,
    pub tuning: Option<Arc<TuningStore>>,
}

/// What a staged request delivered.
pub struct Served {
    pub artifact: Option<CachedArtifact>,
    pub cache: CacheDisposition,
    pub error: Option<String>,
    /// Request time, root span start to end, in microseconds.
    pub micros: f64,
}

/// What is needed to probe a finished staged compile: the coalesced
/// snapshot the explorer branched from, and the winner.
struct ProbeCtx {
    kernel_name: String,
    state: PipelineState,
    am: AnalysisManager,
    domain: Domain,
    opts: CompileOptions,
    chosen: Candidate,
    winner: KernelLaunch,
    explore_us: f64,
}

/// Span recorder and per-layer accumulators of one traced run.
pub struct Tracer {
    pub profiler: Profiler,
    root: Option<SpanGuard>,
    root_started: Instant,
    in_request: bool,
    requests: usize,
    /// Busy microseconds and call count per stage name.
    busy: BTreeMap<&'static str, (f64, u64)>,
    /// Plain counters and sums.
    counts: BTreeMap<&'static str, f64>,
    root_us: f64,
    child_us: f64,
    candidate_micros: Histogram,
    traffic_log_sum: f64,
    traffic_samples: u64,
    artifact_digest: Fnv,
    stats_digest: Fnv,
    /// The explorer-parallelism probe re-runs the search serially; it is
    /// only asked of `table1_cold` (mm and tmv, the ROADMAP's question).
    pub probe_parallelism: bool,
}

fn category(stage: &str) -> &'static str {
    match stage.split('.').next().unwrap_or("") {
        "ast" => "ast",
        "analysis" => "analysis",
        "transform" => "transform",
        "sim" => "sim",
        "core" => "core",
        "tuning" => "tuning",
        "fusion" => "fusion",
        "service" => "service",
        _ => "benchmark",
    }
}

fn pass_failure(e: PassError) -> CompileError {
    if e.fault {
        CompileError::Internal(e.to_string())
    } else {
        CompileError::Perf(e.to_string())
    }
}

fn disposition(outcome: CacheOutcome) -> CacheDisposition {
    match outcome {
        CacheOutcome::MemoryHit => CacheDisposition::Memory,
        CacheOutcome::DiskHit => CacheDisposition::Disk,
        CacheOutcome::Miss => CacheDisposition::Miss,
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            profiler: Profiler::new(),
            root: None,
            root_started: Instant::now(),
            in_request: false,
            requests: 0,
            busy: BTreeMap::new(),
            counts: BTreeMap::new(),
            root_us: 0.0,
            child_us: 0.0,
            candidate_micros: Histogram::new(),
            traffic_log_sum: 0.0,
            traffic_samples: 0,
            artifact_digest: Fnv::new(),
            stats_digest: Fnv::new(),
            probe_parallelism: false,
        }
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn busy_us(&self, stage: &str) -> f64 {
        self.busy.get(stage).map_or(0.0, |b| b.0)
    }

    pub fn calls(&self, stage: &str) -> f64 {
        self.busy.get(stage).map_or(0.0, |b| b.1 as f64)
    }

    pub fn requests(&self) -> usize {
        self.requests
    }

    fn recording(&self) -> bool {
        self.requests <= SPAN_REQUESTS
    }

    /// Opens the root span `req:<id>` of one request.
    pub fn begin(&mut self, id: &str) {
        self.requests += 1;
        self.in_request = true;
        if self.recording() {
            self.root = Some(self.profiler.span(format!("req:{id}"), "request"));
        }
        self.root_started = Instant::now();
    }

    /// Closes the request's root span; returns its duration in microseconds.
    pub fn end(&mut self) -> f64 {
        let micros = self.root_started.elapsed().as_secs_f64() * 1e6;
        self.root = None;
        self.in_request = false;
        self.root_us += micros;
        micros
    }

    /// Runs `f` as the stage `name`: a child span of the open request (a
    /// root span of its own when no request is open — a probe), and
    /// `name`'s busy time and call count. Stages do not nest.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce(Option<SpanId>) -> T) -> T {
        let guard = self.recording().then(|| match &self.root {
            Some(root) => root.child(name, category(name)),
            None => self.profiler.span(name, category(name)),
        });
        let started = Instant::now();
        let result = f(guard.as_ref().map(SpanGuard::id));
        let micros = started.elapsed().as_secs_f64() * 1e6;
        drop(guard);
        let entry = self.busy.entry(name).or_insert((0.0, 0));
        entry.0 += micros;
        entry.1 += 1;
        if self.in_request {
            self.child_us += micros;
        }
        result
    }

    /// Serves one request line the way `Engine::handle_line` does, staged.
    pub fn serve(&mut self, stores: &mut Stores, req: &Request, position: usize) -> Served {
        self.begin(&req.id);
        let mut probe = None;
        let outcome = self.serve_inner(stores, req, position, &mut probe);
        let (artifact, cache, error) = match outcome {
            Ok((artifact, cache)) => (Some(artifact), cache, None),
            Err(e) => (None, CacheDisposition::Miss, Some(e)),
        };
        let response = CompileResponse {
            id: req.id.clone(),
            artifact,
            error: None,
            cache,
            micros: self.root_started.elapsed().as_micros() as u64,
        };
        if error.is_none() {
            let rendered = self.stage("service.response_render", |_| response.to_json().compact());
            self.add("service.response_bytes", rendered.len() as f64);
        }
        let micros = self.end();
        if let Some(artifact) = &response.artifact {
            digest_artifact(&mut self.artifact_digest, artifact);
        }
        if let Some(ctx) = probe {
            self.probe_compile(ctx);
        }
        if let (Body::Pair { .. }, Some(artifact)) = (&req.body, &response.artifact) {
            if cache == CacheDisposition::Miss {
                self.probe_pair(req, artifact);
            }
        }
        Served {
            artifact: response.artifact,
            cache,
            error,
            micros,
        }
    }

    /// One `fuzz_verify` request, staged: parse → staged compile →
    /// sanitized differential check against the naive source.
    pub fn verify_one(&mut self, req: &Request) -> Result<CachedArtifact, String> {
        self.begin(&req.id);
        let mut probe = None;
        let result = self.verify_inner(req, &mut probe);
        self.end();
        if let Some(ctx) = probe {
            self.probe_compile(ctx);
        }
        let (kernel, opts, compiled) = result?;
        let artifact = compiled.cache_artifact(&opts.fingerprint(&kernel));
        digest_artifact(&mut self.artifact_digest, &artifact);
        Ok(artifact)
    }

    fn verify_inner(
        &mut self,
        req: &Request,
        probe: &mut Option<ProbeCtx>,
    ) -> Result<(Kernel, CompileOptions, CompiledKernel), String> {
        let Body::Kernel(source) = &req.body else {
            return Err("fuzz_verify generates single kernels".into());
        };
        self.add("ast.source_bytes", source.len() as f64);
        let kernel = self
            .stage("ast.parse", |_| parse_kernel(source))
            .map_err(|e| e.to_string())?;
        let mut opts = crate::common::options(req);
        if self.recording() {
            opts = opts.with_profiler(self.profiler.clone());
        }
        opts.spans = self.stage("ast.access_spans", |_| access_spans(source));
        let compiled = self
            .compile_staged(&kernel, &opts, None, probe)
            .map_err(|e| format!("compile: {e}"))?;
        self.account(&compiled);
        self.stage("core.verify", |_| {
            verify_equivalence_sanitized(&kernel, &compiled, &opts)
        })
        .map_err(|e| format!("verify: {e}"))?;
        Ok((kernel, opts, compiled))
    }

    fn serve_inner(
        &mut self,
        stores: &mut Stores,
        req: &Request,
        position: usize,
        probe: &mut Option<ProbeCtx>,
    ) -> Result<(CachedArtifact, CacheDisposition), String> {
        let creq = self.stage("service.request_parse", |_| {
            CompileRequest::parse(&req.line, position)
        })?;
        let tuning = stores.tuning.clone();
        let recording = self.recording().then(|| self.profiler.clone());
        let mut opts = self.stage("core.options", |_| options_for(&creq, tuning, recording))?;
        let sources: Vec<&str> = match &creq.fuse {
            None => vec![creq.source_text().unwrap_or_default()],
            Some(members) => members
                .iter()
                .map(|m| match m {
                    gpgpu_service::SourceSpec::Inline(text) => Ok(text.as_str()),
                    gpgpu_service::SourceSpec::File(path) => {
                        Err(format!("unresolved file `{path}`"))
                    }
                })
                .collect::<Result<_, _>>()?,
        };
        let mut parsed = Vec::new();
        for source in &sources {
            self.add("ast.source_bytes", source.len() as f64);
            parsed.push(
                self.stage("ast.parse", |_| parse_kernel(source))
                    .map_err(|e| e.to_string())?,
            );
        }
        let span_source = sources.join("\n");
        opts.spans = self.stage("ast.access_spans", |_| access_spans(&span_source));

        let fingerprint = self.stage("core.fingerprint", |_| match parsed.as_slice() {
            [kernel] => opts.fingerprint(kernel),
            [producer, consumer] => opts.fused_fingerprint(producer, consumer),
            _ => unreachable!("a request names one kernel or a pair"),
        });
        let started = Instant::now();
        let hit = self.stage("service.cache_get", |_| stores.cache.get(&fingerprint));
        let cache = disposition(hit.outcome);
        match cache {
            CacheDisposition::Memory => self.add("service.memory_hits", 1.0),
            CacheDisposition::Disk => {
                self.add("service.disk_hits", 1.0);
                self.add(
                    "service.disk_read_us",
                    started.elapsed().as_secs_f64() * 1e6,
                );
            }
            CacheDisposition::Miss => self.add("service.misses", 1.0),
        }
        if let Some(artifact) = hit.artifact {
            return Ok((artifact, cache));
        }

        let (artifact, degraded) = match parsed.as_slice() {
            [kernel] => {
                let compiled = self
                    .compile_staged(kernel, &opts, stores.tuning.as_ref(), probe)
                    .map_err(|e| e.to_string())?;
                self.account(&compiled);
                let artifact = self.stage("ast.print", |_| compiled.cache_artifact(&fingerprint));
                (artifact, compiled.degraded.is_some())
            }
            [producer, consumer] => self.compile_pair(producer, consumer, &opts, &fingerprint)?,
            _ => unreachable!("a request names one kernel or a pair"),
        };
        if !degraded {
            let started = Instant::now();
            let (evicted, fault) = self.stage("service.cache_put", |_| stores.cache.put(&artifact));
            if stores.cache.has_disk() {
                self.add(
                    "service.disk_write_us",
                    started.elapsed().as_secs_f64() * 1e6,
                );
                self.add("service.disk_puts", 1.0);
            }
            self.add("service.evictions", f64::from(u8::from(evicted.is_some())));
            if let Some(fault) = fault {
                return Err(format!("cache write: {}", fault.detail));
            }
        }
        Ok((artifact, cache))
    }

    /// A fusion group, as `Engine::handle_fuse` serves it: fused when the
    /// planner and the verifier agree, the members compiled separately and
    /// concatenated otherwise. `compile_fused` is one public call, so it is
    /// one span.
    fn compile_pair(
        &mut self,
        producer: &Kernel,
        consumer: &Kernel,
        opts: &CompileOptions,
        fingerprint: &str,
    ) -> Result<(CachedArtifact, bool), String> {
        if let Some(store) = &opts.tuning {
            store.refresh();
        }
        self.add("fusion.groups", 1.0);
        let attempt = self.stage("fusion.compile_fused", |span| {
            compile_fused(producer, consumer, &under(opts, span))
        });
        match attempt {
            Ok(fused) => {
                self.add("fusion.fused", 1.0);
                self.account(&fused.compiled);
                let mut artifact =
                    self.stage("ast.print", |_| fused.compiled.cache_artifact(fingerprint));
                artifact.fusion = Some(FusionMeta {
                    mode: fused.mode.as_str().to_string(),
                    members: vec![fused.producer.clone(), fused.consumer.clone()],
                    intermediate: fused.intermediate.clone(),
                    bytes_saved: fused.bytes_saved as f64,
                });
                let degraded = fused.compiled.degraded.is_some();
                Ok((artifact, degraded))
            }
            Err(rejection) => {
                let mut members = Vec::new();
                for member in [producer, consumer] {
                    let compiled = self
                        .stage("fusion.compile_member", |span| {
                            compile(member, &under(opts, span))
                        })
                        .map_err(|e| format!("fuse member `{}`: {e}", member.name))?;
                    self.account(&compiled);
                    members.push(self.stage("ast.print", |_| compiled.cache_artifact(fingerprint)));
                }
                let second = members.pop().expect("two members were compiled");
                let first = members.pop().expect("two members were compiled");
                let time_ms = first.time_ms + second.time_ms;
                let weight = |a: f64, b: f64| {
                    if time_ms > 0.0 {
                        (a * first.time_ms + b * second.time_ms) / time_ms
                    } else {
                        0.0
                    }
                };
                let artifact = CachedArtifact {
                    fingerprint: fingerprint.to_string(),
                    kernel_name: format!("{}+{}", producer.name, consumer.name),
                    source: format!("{}\n\n{}", first.source, second.source),
                    time_ms,
                    gflops: weight(first.gflops, second.gflops),
                    bandwidth_gbps: weight(first.bandwidth_gbps, second.bandwidth_gbps),
                    degraded: first.degraded.clone().or(second.degraded.clone()),
                    launches: first.launches.into_iter().chain(second.launches).collect(),
                    fusion: Some(FusionMeta {
                        mode: format!("separate:{}", rejection.slug()),
                        members: vec![producer.name.clone(), consumer.name.clone()],
                        intermediate: String::new(),
                        bytes_saved: 0.0,
                    }),
                };
                let degraded = artifact.degraded.is_some();
                Ok((artifact, degraded))
            }
        }
    }

    /// `compile`, staged from public entry points. Kernels on the private
    /// reduction path get one `core.compile` span; a failing stage degrades
    /// to the naive kernel the way `compile` does.
    fn compile_staged(
        &mut self,
        kernel: &Kernel,
        opts: &CompileOptions,
        tuning: Option<&Arc<TuningStore>>,
        probe: &mut Option<ProbeCtx>,
    ) -> Result<CompiledKernel, CompileError> {
        match self.optimize_staged(kernel, opts, tuning, probe) {
            Ok(compiled) => Ok(compiled),
            Err(CompileError::NoDomain) => Err(CompileError::NoDomain),
            Err(primary) => {
                let reason = match &primary {
                    CompileError::Internal(m) => DegradedReason::PipelineFault(m.clone()),
                    CompileError::NoValidConfiguration(m) => {
                        DegradedReason::AllCandidatesFailed(m.clone())
                    }
                    CompileError::Perf(m) => DegradedReason::PassFailure(m.clone()),
                    CompileError::NoDomain => unreachable!("handled above"),
                };
                match self.stage("core.naive_fallback", |_| naive_compiled(kernel, opts)) {
                    Ok(mut fallback) => {
                        fallback.degraded = Some(reason);
                        Ok(fallback)
                    }
                    Err(_) => Err(primary),
                }
            }
        }
    }

    fn optimize_staged(
        &mut self,
        kernel: &Kernel,
        opts: &CompileOptions,
        tuning: Option<&Arc<TuningStore>>,
        probe: &mut Option<ProbeCtx>,
    ) -> Result<CompiledKernel, CompileError> {
        let domain = self
            .stage("core.infer_domain", |_| {
                infer_domain(kernel, &opts.bindings)
            })
            .ok_or(CompileError::NoDomain)?;
        let mut state = PipelineState::new(kernel.clone(), opts.bindings.clone())
            .with_access_spans(opts.spans.clone());
        if self.recording() {
            state = state.with_profiler(self.profiler.clone(), None);
        }
        let mut pm = PassManager::new(opts.stages);
        let vectorized = self
            .stage("transform.vectorize", |span| {
                state.profile_span = span;
                pm.run(&mut state, &mut VectorizePass)
            })
            .map_err(pass_failure)?;
        self.add("transform.vectorize_applied", applied(vectorized));

        if state.kernel.uses_global_sync() {
            return self.stage("core.compile", |span| compile(kernel, &under(opts, span)));
        }

        // The analyses the coalescing pass is about to ask for, computed
        // here so each is its own span; the pass then hits the cache.
        pm.am.sync(state.version());
        let _ = self.stage("analysis.layouts", |_| {
            pm.am.layouts(&state.kernel, &state.bindings)
        });
        let accesses = self.stage("analysis.accesses", |_| {
            pm.am.accesses(&state.kernel, &state.bindings)
        });
        if let Ok(accesses) = &accesses {
            let bad = accesses
                .iter()
                .filter(|a| matches!(a.verdict, CoalesceVerdict::NotCoalesced(_)))
                .count();
            self.add("analysis.noncoalesced_found", bad as f64);
        }
        let (bx, by) = (state.block_x, state.block_y);
        let _ = self.stage("analysis.sharing", |_| {
            pm.am.sharing(&state.kernel, &state.bindings, bx, by)
        });
        let _ = self.stage("analysis.resources", |_| pm.am.resources(&state.kernel));
        // Their compute log belongs to the spans above, not to the next pass.
        pm.am.drain_computes();
        pm.am.drain_hits();

        let coalesced = self
            .stage("transform.coalesce", |span| {
                state.profile_span = span;
                pm.run(&mut state, &mut CoalescePass)
            })
            .map_err(pass_failure)?;
        self.add("transform.coalesce_applied", applied(coalesced));

        let session: Option<(Arc<TuningStore>, KernelShape, Option<WarmStartPlan>)> = match tuning {
            None => None,
            Some(store) => self.stage("tuning.lookup", |_| {
                store.refresh();
                let grid_sig = opts.explore.grid_signature();
                let shape = kernel_shape(
                    kernel,
                    &ShapeContext {
                        bindings: &opts.bindings,
                        machine: opts.machine.name,
                        cost_model: opts.cost_model.as_str(),
                        stage_bits: opts.stages.bits(),
                        grid_sig: &grid_sig,
                        domain: (domain.x, domain.y),
                    },
                )?;
                let plan = match store.lookup(&shape) {
                    Lookup::Warm(warm) if opts.warm_start => Some(WarmStartPlan {
                        seeds: warm.seeds,
                        expand: warm.neighbor,
                    }),
                    _ => None,
                };
                store.drain_notes();
                Some((Arc::clone(store), shape, plan))
            }),
        };
        let warm_opts;
        let explore_opts = match &session {
            Some((_, _, Some(plan))) => {
                warm_opts = {
                    let mut o = opts.clone();
                    o.explore.warm_start = Some(plan.clone());
                    o
                };
                &warm_opts
            }
            _ => opts,
        };
        let explore_started = Instant::now();
        let explored = self.stage("core.explore", |span| {
            state.profile_span = span;
            explore(&state, &pm.am, &domain, explore_opts)
        })?;
        let explore_us = explore_started.elapsed().as_secs_f64() * 1e6;
        if let Some((store, shape, _)) = &session {
            let score = |c: &Candidate| ConfigScore {
                block_merge_x: c.block_merge_x,
                thread_merge_y: c.thread_merge_y,
                thread_merge_x: c.thread_merge_x,
                time_ms: c.time_ms,
            };
            let winner = score(&explored.chosen);
            let candidates: Vec<ConfigScore> = explored
                .evaluated
                .iter()
                .filter(|c| c.reduction_elems.is_none())
                .map(score)
                .collect();
            self.stage("tuning.record", |_| {
                store.record(shape, &winner, &candidates, !explored.warm_started);
                store.drain_notes();
            });
            self.add("tuning.explored", explored.evaluated.len() as f64);
            self.add("tuning.full_space", explored.full_space as f64);
        }
        let source = self.stage("ast.print", |_| {
            print_kernel(&explored.state.kernel, PrintOptions::default())
        });

        let winner = KernelLaunch {
            kernel: explored.state.kernel.as_ref().clone(),
            launch: explored.launch,
            extra_buffers: Vec::new(),
        };
        *probe = Some(ProbeCtx {
            kernel_name: kernel.name.clone(),
            state,
            am: pm.am,
            domain,
            opts: opts.clone(),
            chosen: explored.chosen.clone(),
            winner: winner.clone(),
            explore_us,
        });
        let mut trace = TraceSink::new();
        trace.extend(explored.events);
        Ok(CompiledKernel {
            launches: vec![winner],
            per_launch: vec![explored.estimate.clone()],
            estimate: explored.estimate,
            trace,
            metrics: explored.metrics,
            source,
            chosen: explored.chosen,
            evaluated: explored.evaluated,
            degraded: None,
            cost_model: opts.cost_model,
            profiler: opts.profiler.clone(),
            tuning: None,
        })
    }

    /// Books what one compilation reports about itself: candidate counts,
    /// the simulator-time histograms, analysis-cache traffic, the winner.
    fn account(&mut self, compiled: &CompiledKernel) {
        let mut faults = 0.0;
        for event in compiled.trace.events() {
            match event {
                TraceEvent::CandidateEvaluated { rejected: None, .. } => {
                    self.add("core.candidates_evaluated", 1.0)
                }
                TraceEvent::CandidateEvaluated {
                    rejected: Some(_), ..
                } => self.add("core.candidates_rejected", 1.0),
                TraceEvent::CandidateFault { .. } => faults += 1.0,
                _ => {}
            }
        }
        // A faulted candidate is also reported as a rejected evaluation.
        self.add("core.candidates_faulted", faults);
        self.add("core.candidates_rejected", -faults);
        if let Some(h) = compiled.metrics.histogram("candidate_micros") {
            self.candidate_micros.merge(h);
        }
        for (name, into) in [
            ("estimate_trace_micros", "sim.estimate_trace_us"),
            ("estimate_model_micros", "sim.estimate_model_us"),
        ] {
            if let Some(h) = compiled.metrics.histogram(name) {
                self.add(into, h.sum() as f64);
                if name == "estimate_trace_micros" {
                    self.add("sim.estimate_calls", h.count() as f64);
                }
            }
        }
        for (name, into) in [
            ("analysis_cache_hits", "analysis.cache_hits"),
            ("analysis_cache_misses", "analysis.cache_misses"),
        ] {
            self.add(into, compiled.metrics.globals().get(name).unwrap_or(0.0));
        }
        if let Some(report) = &compiled.tuning {
            self.add("tuning.explored", report.explored as f64);
            self.add("tuning.full_space", report.full_space as f64);
        }
        self.add("core.compiles", 1.0);
        self.add(
            "core.degraded",
            f64::from(u8::from(compiled.degraded.is_some())),
        );
        for estimate in &compiled.per_launch {
            digest_stats(&mut self.stats_digest, &estimate.stats);
            self.add("sim.winner_trace_us", estimate.trace_micros as f64);
            self.add("sim.winner_warp_insts", estimate.stats.warp_insts as f64);
        }
        for launch in &compiled.launches {
            let mut stmts = 0.0;
            walk_stmts(&launch.kernel.body, &mut |_| stmts += 1.0);
            self.add("ast.winner_stmts", stmts);
        }
    }

    /// Probes of one staged compile, outside its request span: each merge,
    /// camping and prefetch pass applied once with the winner's factors on
    /// a fresh branch of the coalesced snapshot; the winner re-estimated
    /// under the `hierarchy` model; and, when asked, the search re-run on
    /// one worker.
    fn probe_compile(&mut self, ctx: ProbeCtx) {
        let ProbeCtx {
            kernel_name,
            state,
            am,
            domain,
            opts,
            chosen,
            winner,
            explore_us,
        } = ctx;
        let mut st = self.stage("transform.branch", |_| state.branch());
        let mut pm = PassManager::with_manager(opts.stages, am.clone());
        let mut run = |tracer: &mut Tracer,
                       stage: &'static str,
                       counter: &'static str,
                       st: &mut PipelineState,
                       pass: &mut dyn gpgpu_transform::Pass| {
            if let Ok(outcome) = tracer.stage(stage, |_| pm.run(st, pass)) {
                tracer.add(counter, applied(outcome));
            }
        };
        if chosen.block_merge_x > 1 {
            run(
                self,
                "transform.block_merge",
                "transform.block_merge_applied",
                &mut st,
                &mut ThreadBlockMergePass {
                    factor: chosen.block_merge_x,
                },
            );
        }
        for (axis, factor) in [
            (MergeAxis::Y, chosen.thread_merge_y),
            (MergeAxis::X, chosen.thread_merge_x),
        ] {
            if factor > 1 {
                run(
                    self,
                    "transform.thread_merge",
                    "transform.thread_merge_applied",
                    &mut st,
                    &mut ThreadMergePass { axis, factor },
                );
            }
        }
        // The order and the square-grid condition of `finish_candidate`.
        if opts.stages.partition {
            if let Some(cfg) = launch_for(&st, &domain) {
                let grid_2d = cfg.grid_y > 1;
                if !grid_2d || cfg.grid_x == cfg.grid_y {
                    run(
                        self,
                        "transform.camping",
                        "transform.camping_applied",
                        &mut st,
                        &mut CampingPass {
                            geometry: opts.machine.partitions,
                            grid_2d,
                        },
                    );
                }
            }
        }
        run(
            self,
            "transform.prefetch",
            "transform.prefetch_applied",
            &mut st,
            &mut PrefetchPass {
                register_budget: opts.machine.max_regs_per_thread,
            },
        );

        let hierarchy = opts.clone().with_cost_model(CostModelKind::Hierarchy);
        let _ = self.stage("sim.estimate_hierarchy", |_| {
            estimate_launch(&winner.kernel, &winner.launch, &opts.bindings, &hierarchy)
        });

        if self.probe_parallelism && matches!(kernel_name.as_str(), "mm" | "tmv") {
            let mut serial = opts.clone();
            serial.explore.workers = Some(1);
            let mut state = state;
            state.profiler = Profiler::new();
            state.profile_span = None;
            let started = Instant::now();
            let _ = self.stage("core.explore_serial", |_| {
                explore(&state, &am, &domain, &serial)
            });
            self.add(
                "core.explore_serial_us",
                started.elapsed().as_secs_f64() * 1e6,
            );
            self.add("core.explore_default_us", explore_us);
        }
    }

    /// Probes of one fusion group: the planner on its own (inside the
    /// request it runs within `compile_fused`), and, when the group fused,
    /// global traffic of the members compiled separately over the fused
    /// kernel's.
    fn probe_pair(&mut self, req: &Request, artifact: &CachedArtifact) {
        let Ok(kernels) = crate::common::kernels(req) else {
            return;
        };
        let [producer, consumer] = kernels.as_slice() else {
            return;
        };
        let opts = crate::common::options(req);
        let _ = self.stage("fusion.plan", |_| plan_fusion(producer, consumer, &opts));
        let fused = artifact
            .fusion
            .as_ref()
            .is_some_and(|f| !f.mode.starts_with("separate:"));
        if !fused {
            return;
        }
        let bytes = |c: &CompiledKernel| {
            c.per_launch
                .iter()
                .map(|e| e.stats.global_bytes)
                .sum::<u64>() as f64
        };
        let (Ok(p), Ok(c), Ok(f)) = (
            compile(producer, &opts),
            compile(consumer, &opts),
            compile_fused(producer, consumer, &opts),
        ) else {
            return;
        };
        let fused_bytes = bytes(&f.compiled);
        if fused_bytes > 0.0 {
            self.traffic_log_sum += ((bytes(&p) + bytes(&c)) / fused_bytes).ln();
            self.traffic_samples += 1;
        }
    }

    /// Σ child spans / Σ root spans, over every traced request.
    pub fn coverage(&self) -> f64 {
        if self.root_us > 0.0 {
            self.child_us / self.root_us
        } else {
            0.0
        }
    }

    pub fn root_us(&self) -> f64 {
        self.root_us
    }

    pub fn candidate_us_p50(&self) -> f64 {
        if self.candidate_micros.is_empty() {
            0.0
        } else {
            self.candidate_micros.percentile(50.0) as f64
        }
    }

    pub fn traffic_reduction_geomean(&self) -> f64 {
        if self.traffic_samples == 0 {
            0.0
        } else {
            (self.traffic_log_sum / self.traffic_samples as f64).exp()
        }
    }

    pub fn digests(&self) -> (u64, u64) {
        (self.artifact_digest.value(), self.stats_digest.value())
    }
}

/// The options `Engine::handle` builds for a request; compiler spans land
/// in `profiler` while the tracer is keeping spans.
fn options_for(
    creq: &CompileRequest,
    tuning: Option<Arc<TuningStore>>,
    profiler: Option<Profiler>,
) -> Result<CompileOptions, String> {
    let machine = MachineDesc::by_name(&creq.machine)
        .ok_or_else(|| format!("unknown machine `{}`", creq.machine))?;
    let mut opts = CompileOptions::new(machine)
        .with_stages(creq.stages)
        .with_verify_seed(creq.verify_seed);
    for (name, value) in &creq.bindings {
        opts = opts.bind(name, *value);
    }
    if let Some(store) = tuning {
        opts = opts.with_tuning(store);
    }
    if let Some(profiler) = profiler {
        opts = opts.with_profiler(profiler);
    }
    Ok(opts)
}

/// `opts` with the compilation's root span parented under `span`, so a
/// whole-`compile` call nests in the trace like the staged calls do.
fn under(opts: &CompileOptions, span: Option<SpanId>) -> CompileOptions {
    match span {
        Some(id) => opts.clone().under_span(id),
        None => opts.clone(),
    }
}

fn applied(outcome: PassOutcome) -> f64 {
    match outcome {
        PassOutcome::Applied => 1.0,
        PassOutcome::Skipped => 0.0,
    }
}
