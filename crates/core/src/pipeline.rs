//! The compiler pipeline (paper Figure 1) and its products.

use crate::domain::{infer_domain, Domain};
use crate::error::{panic_message, DegradedReason};
use crate::explore::{explore, launch_for, Candidate, ExploreOptions, Explored, WarmStartPlan};
use crate::fault;
use crate::pass_manager::PassManager;
use gpgpu_analysis::{ArrayLayout, Bindings};
use gpgpu_ast::{print_kernel, AccessSpans, Kernel, LaunchConfig, PrintOptions};
use gpgpu_sim::{CostModelKind, MachineDesc, PerfError, PerfEstimate, PerfOptions};
use gpgpu_trace::{Json, MetricsRegistry, Profiler, SpanId, TraceEvent, TraceSink};
use gpgpu_transform::{AmdVectorizePass, CoalescePass, PassError, PipelineState, VectorizePass};
use gpgpu_tuning::{kernel_shape, ConfigScore, KernelShape, Lookup, ShapeContext, StoreNote, TuningStore};
use std::fmt;
use std::sync::Arc;

/// Which optimization stages run — the Figure 12 dissection toggles these
/// cumulatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSet {
    /// Producer→consumer kernel fusion (`gpgpu-fusion`; related work:
    /// Filipovič et al., kernel fusion for BLAS). Runs before the
    /// single-kernel pipeline, on multi-kernel (`fuse`) requests only.
    pub fusion: bool,
    /// §3.1 vectorization.
    pub vectorize: bool,
    /// §3.3 coalescing conversion.
    pub coalesce: bool,
    /// §3.5 thread/thread-block merge (and reduction restructuring).
    pub merge: bool,
    /// §3.6 data prefetching.
    pub prefetch: bool,
    /// §3.7 partition-camping elimination.
    pub partition: bool,
}

impl StageSet {
    /// Every stage enabled (the normal compiler).
    pub fn all() -> StageSet {
        StageSet {
            fusion: true,
            vectorize: true,
            coalesce: true,
            merge: true,
            prefetch: true,
            partition: true,
        }
    }

    /// No stages: the naive kernel as-is.
    pub fn none() -> StageSet {
        StageSet {
            fusion: false,
            vectorize: false,
            coalesce: false,
            merge: false,
            prefetch: false,
            partition: false,
        }
    }

    /// Whether the stage a pass declares (see
    /// [`gpgpu_transform::Pass::stage`]) is enabled. Unknown stage names
    /// are disabled rather than a panic: a future pass wired up with a
    /// typo'd stage is silently gated off, which the registry golden test
    /// catches.
    pub fn enabled(&self, stage: &str) -> bool {
        match stage {
            "fusion" => self.fusion,
            "vectorize" => self.vectorize,
            "coalesce" => self.coalesce,
            "merge" => self.merge,
            "prefetch" => self.prefetch,
            "partition" => self.partition,
            _ => false,
        }
    }

    /// A stable bitmask of the enabled stages, hashed into the tuning
    /// store's shape fingerprint (a winner found under one stage set must
    /// not warm-start another).
    pub fn bits(&self) -> u8 {
        (self.vectorize as u8)
            | (self.coalesce as u8) << 1
            | (self.merge as u8) << 2
            | (self.prefetch as u8) << 3
            | (self.partition as u8) << 4
            | (self.fusion as u8) << 5
    }

    /// The cumulative prefixes used by the Figure 12 dissection, in order:
    /// naive, +vectorize, +coalesce, +merge, +prefetch, +partition. Fusion
    /// is not a dissection step: it applies to multi-kernel groups, which
    /// the single-kernel Figure 12 experiment never forms.
    pub fn dissection() -> [(&'static str, StageSet); 6] {
        let mut sets = [
            ("naive", StageSet::none()),
            ("+vectorization", StageSet::none()),
            ("+coalescing", StageSet::none()),
            ("+thread/block merge", StageSet::none()),
            ("+prefetching", StageSet::none()),
            ("+partition elimination", StageSet::none()),
        ];
        sets[1].1.vectorize = true;
        sets[2].1 = StageSet {
            vectorize: true,
            coalesce: true,
            ..StageSet::none()
        };
        sets[3].1 = StageSet {
            vectorize: true,
            coalesce: true,
            merge: true,
            ..StageSet::none()
        };
        sets[4].1 = StageSet {
            prefetch: true,
            ..sets[3].1
        };
        sets[5].1 = StageSet::all();
        sets
    }
}

/// Compiler invocation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Target hardware.
    pub machine: MachineDesc,
    /// Concrete input sizes (the paper compiles per input size).
    pub bindings: Bindings,
    /// Enabled stages.
    pub stages: StageSet,
    /// Merge degrees to explore.
    pub explore: ExploreOptions,
    /// Blocks sampled by the timing model's trace.
    pub sample_blocks: usize,
    /// Source spans of the naive kernel's array accesses
    /// (see [`gpgpu_ast::access_spans`]); attached to per-access trace
    /// events. Empty when the caller has no source text.
    pub spans: AccessSpans,
    /// Seed mixed into the pseudo-random input streams used by output
    /// verification. Reported in every mismatch so a failing comparison can
    /// be replayed exactly (`gpgpuc --verify-seed`). Seed 0 is the
    /// historical default stream.
    pub verify_seed: u64,
    /// Timing model used to rank candidates: the closed-form analytic
    /// model, or the trace-driven memory-hierarchy model
    /// (`gpgpuc --cost-model`). Part of the cache fingerprint — the two
    /// models can rank candidates differently.
    pub cost_model: CostModelKind,
    /// Hierarchical span profiler the compilation records into. Callers
    /// that compile several kernels (the batch service, `gpgpuc profile`)
    /// share one profiler across invocations; the default is a fresh one
    /// per options value.
    pub profiler: Profiler,
    /// Span the compilation's root span is parented under, when the caller
    /// already opened one in [`CompileOptions::profiler`]'s table (the
    /// service's per-request `compile` stage span). `None` makes the
    /// compilation a root in the table.
    pub profile_parent: Option<SpanId>,
    /// Persistent tuning store (`gpgpu-tuning`), when the caller opened one
    /// (`--tuning-dir`). Looked up by kernel shape before the design-space
    /// search and updated with the outcome afterwards; `None` compiles
    /// store-less with the full search.
    pub tuning: Option<Arc<TuningStore>>,
    /// Whether a tuning-store hit may narrow the search. `false`
    /// (`--no-warm-start`) still records outcomes but always runs the full
    /// grid.
    pub warm_start: bool,
}

impl CompileOptions {
    /// Options targeting `machine` with every stage enabled.
    pub fn new(machine: MachineDesc) -> CompileOptions {
        CompileOptions {
            machine,
            bindings: Bindings::new(),
            stages: StageSet::all(),
            explore: ExploreOptions::default(),
            sample_blocks: gpgpu_sim::timing::DEFAULT_SAMPLE_BLOCKS,
            spans: AccessSpans::new(),
            verify_seed: 0,
            cost_model: CostModelKind::default(),
            profiler: Profiler::new(),
            profile_parent: None,
            tuning: None,
            warm_start: true,
        }
    }

    /// Binds a size parameter.
    pub fn bind(mut self, name: &str, value: i64) -> CompileOptions {
        self.bindings.insert(name.to_string(), value);
        self
    }

    /// Builds the access-span side table from the kernel's source text, so
    /// trace events carry source locations.
    pub fn with_source(mut self, src: &str) -> CompileOptions {
        self.spans = gpgpu_ast::access_spans(src);
        self
    }

    /// Replaces the stage set.
    pub fn with_stages(mut self, stages: StageSet) -> CompileOptions {
        self.stages = stages;
        self
    }

    /// Seeds the verification input streams (see
    /// [`CompileOptions::verify_seed`]).
    pub fn with_verify_seed(mut self, seed: u64) -> CompileOptions {
        self.verify_seed = seed;
        self
    }

    /// Selects the timing model that ranks candidates (see
    /// [`CompileOptions::cost_model`]).
    pub fn with_cost_model(mut self, model: CostModelKind) -> CompileOptions {
        self.cost_model = model;
        self
    }

    /// Shares an existing profiler (span table) with this compilation.
    pub fn with_profiler(mut self, profiler: Profiler) -> CompileOptions {
        self.profiler = profiler;
        self
    }

    /// Parents the compilation's root span under `parent` (a span in the
    /// shared profiler's table).
    pub fn under_span(mut self, parent: SpanId) -> CompileOptions {
        self.profile_parent = Some(parent);
        self
    }

    /// Attaches a persistent tuning store (see [`CompileOptions::tuning`]).
    pub fn with_tuning(mut self, store: Arc<TuningStore>) -> CompileOptions {
        self.tuning = Some(store);
        self
    }

    /// Enables or disables warm-started exploration (see
    /// [`CompileOptions::warm_start`]).
    pub fn with_warm_start(mut self, warm: bool) -> CompileOptions {
        self.warm_start = warm;
        self
    }
}

/// One kernel launch of a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelLaunch {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Its grid/block dimensions.
    pub launch: LaunchConfig,
    /// Buffers the runtime must allocate (zero-initialized) beyond the
    /// naive kernel's parameters — e.g. the reduction partials.
    pub extra_buffers: Vec<ArrayLayout>,
}

/// The compiler's output: optimized kernel(s), launch configuration(s),
/// the predicted performance, and the human-readable source.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The launch sequence (one kernel, except for restructured reductions).
    pub launches: Vec<KernelLaunch>,
    /// Performance estimate of the first launch (see [`Self::total_time_ms`]
    /// for the sequence).
    pub estimate: PerfEstimate,
    /// Per-launch estimates.
    pub per_launch: Vec<PerfEstimate>,
    /// Structured trace of every decision the pipeline made (the winning
    /// candidate's pass events plus the design-space search events).
    pub trace: TraceSink,
    /// Per-candidate simulator counter snapshots from the design-space
    /// search; the winner is marked chosen.
    pub metrics: MetricsRegistry,
    /// The optimized source, printed with the paper's shorthand ids.
    pub source: String,
    /// The design-space point that won.
    pub chosen: Candidate,
    /// All evaluated design-space points.
    pub evaluated: Vec<Candidate>,
    /// Set when the optimizing pipeline failed and [`compile`] fell back to
    /// the naive kernel; `None` for a fully optimized result.
    pub degraded: Option<DegradedReason>,
    /// The timing model that ranked the candidates (recorded in the trace
    /// document so a replayed trace knows which model's numbers it holds).
    pub cost_model: CostModelKind,
    /// The span profiler the compilation recorded into (a handle onto the
    /// table shared with [`CompileOptions::profiler`]). Feeds the
    /// `--profile` / `--profile-chrome` exporters and `gpgpuc profile`.
    pub profiler: Profiler,
    /// What the persistent tuning store did for this compilation; `None`
    /// when no store was attached (or the kernel took the reduction or
    /// naive path, which the store does not cover).
    pub tuning: Option<TuningReport>,
}

/// The tuning store's involvement in one compilation, summarized for the
/// trace document and the CLI report.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningReport {
    /// The kernel's 32-hex structural shape fingerprint.
    pub fingerprint: String,
    /// Lookup outcome: `warm`, `neighbor`, `miss`, `reexplore`, or
    /// `disabled`.
    pub outcome: String,
    /// Candidates the (possibly narrowed) search evaluated or rejected.
    pub explored: u64,
    /// Size of the full design space a cold search would have run.
    pub full_space: u64,
    /// True when the store's plan actually narrowed the search.
    pub warm_started: bool,
    /// True when a full-grid result beat and replaced a stored winner.
    pub demoted: bool,
}

impl TuningReport {
    /// The report as a JSON object (embedded in the trace document).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("fingerprint", Json::str(&self.fingerprint)),
            ("outcome", Json::str(&self.outcome)),
            ("explored", Json::count(self.explored)),
            ("full_space", Json::count(self.full_space)),
            ("warm_started", Json::Bool(self.warm_started)),
            ("demoted", Json::Bool(self.demoted)),
        ])
    }
}

impl CompiledKernel {
    /// Total estimated time of the launch sequence, in milliseconds.
    pub fn total_time_ms(&self) -> f64 {
        self.per_launch.iter().map(|e| e.time_ms).sum()
    }

    /// Renders the human-readable pass log (what the compiler did and why),
    /// one line per trace event.
    pub fn log(&self) -> Vec<String> {
        self.trace.render_log()
    }

    /// Builds the complete `gpgpu-trace/v2` JSON document for this
    /// compilation: kernel/machine identity, every trace event, per-pass
    /// timings, per-candidate counter snapshots, latency histograms,
    /// profiler spans, and the final estimate.
    pub fn trace_json(&self, machine: &str) -> Json {
        let kernel = self
            .launches
            .first()
            .map(|l| l.kernel.name.as_str())
            .unwrap_or("?");
        Json::obj([
            ("schema", Json::str(gpgpu_trace::SCHEMA)),
            ("kernel", Json::str(kernel)),
            ("machine", Json::str(machine)),
            ("time_ms", Json::num(self.total_time_ms())),
            ("gflops", Json::num(self.gflops())),
            ("bandwidth_gbps", Json::num(self.effective_bandwidth_gbps())),
            ("cost_model", Json::str(self.cost_model.as_str())),
            ("chosen", candidate_json(&self.chosen)),
            (
                "degraded",
                match &self.degraded {
                    Some(r) => Json::obj([
                        ("reason", Json::str(r.slug())),
                        ("detail", Json::str(r.detail())),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "tuning",
                match &self.tuning {
                    Some(t) => t.to_json(),
                    None => Json::Null,
                },
            ),
            ("events", self.trace.to_json()),
            ("metrics", self.metrics.to_json()),
            ("spans", self.profiler.to_json()),
            (
                "per_launch",
                Json::Arr(
                    self.per_launch
                        .iter()
                        .map(|e| e.counter_snapshot().to_json())
                        .collect(),
                ),
            ),
        ])
    }

    /// Aggregate GFLOPS over the sequence.
    pub fn gflops(&self) -> f64 {
        let flops: u64 = self.per_launch.iter().map(|e| e.stats.flops).sum();
        flops as f64 / (self.total_time_ms() * 1e-3) / 1e9
    }

    /// Aggregate effective bandwidth over the sequence, in GB/s.
    pub fn effective_bandwidth_gbps(&self) -> f64 {
        let bytes: u64 = self.per_launch.iter().map(|e| e.stats.useful_bytes).sum();
        bytes as f64 / (self.total_time_ms() * 1e-3) / 1e9
    }
}

/// A design-space candidate as a JSON object.
fn candidate_json(c: &Candidate) -> Json {
    Json::obj([
        ("block_merge_x", Json::num(c.block_merge_x as f64)),
        ("thread_merge_y", Json::num(c.thread_merge_y as f64)),
        ("thread_merge_x", Json::num(c.thread_merge_x as f64)),
        (
            "reduction_elems",
            match c.reduction_elems {
                Some(e) => Json::num(e as f64),
                None => Json::Null,
            },
        ),
        ("time_ms", Json::num(c.time_ms)),
    ])
}

/// Compilation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The kernel's output domain could not be inferred.
    NoDomain,
    /// Every explored configuration was invalid.
    NoValidConfiguration(String),
    /// The timing model failed on a candidate.
    Perf(String),
    /// The pipeline itself faulted (a contained panic).
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoDomain => f.write_str("cannot infer the kernel's output domain"),
            CompileError::NoValidConfiguration(s) => {
                write!(f, "no valid configuration: {s}")
            }
            CompileError::Perf(s) => write!(f, "timing model failure: {s}"),
            CompileError::Internal(s) => write!(f, "internal fault: {s}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Maps a pass failure out of the pass manager: contained panics are
/// internal faults, ordinary rejections are pass failures.
fn pass_failure(e: PassError) -> CompileError {
    if e.fault {
        CompileError::Internal(e.to_string())
    } else {
        CompileError::Perf(e.to_string())
    }
}

/// Compiles a naive kernel into its optimized form, degrading gracefully:
/// when the optimizing pipeline fails or faults but the naive kernel still
/// compiles, the naive result is returned with
/// [`CompiledKernel::degraded`] set and a `degraded` trace event emitted.
/// A panic anywhere in the optimization passes is contained and treated
/// like any other pipeline failure.
///
/// # Errors
///
/// See [`CompileError`]. An error means even the naive fallback was
/// impossible — the kernel falls outside the supported naive shape
/// (paper §7 discusses the compiler's limits).
pub fn compile(naive: &Kernel, opts: &CompileOptions) -> Result<CompiledKernel, CompileError> {
    // The root span covers the whole compilation, fallback included; its
    // guard closes on every exit path (the unwind out of
    // `compile_optimized` is contained below, so the guard lives here).
    let root = opts.profiler.span_under(
        opts.profile_parent,
        format!("compile:{}", naive.name),
        "compile",
    );
    let root_id = root.id();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        compile_optimized(naive, opts, Some(root_id))
    }));
    let primary = match attempt {
        Ok(Ok(compiled)) => return Ok(compiled),
        Ok(Err(e)) => e,
        Err(payload) => CompileError::Internal(panic_message(payload)),
    };
    let reason = match &primary {
        // No domain means the naive fallback cannot launch either; fail.
        CompileError::NoDomain => return Err(primary),
        CompileError::Internal(msg) => DegradedReason::PipelineFault(msg.clone()),
        CompileError::NoValidConfiguration(msg) => {
            DegradedReason::AllCandidatesFailed(msg.clone())
        }
        CompileError::Perf(msg) => DegradedReason::PassFailure(msg.clone()),
    };
    let fallback_span = root.child("naive-fallback", "compile");
    match naive_compiled_under(naive, opts, Some(fallback_span.id())) {
        Ok(mut fallback) => {
            fallback.trace.emit(TraceEvent::Degraded {
                reason: reason.slug().to_string(),
                detail: reason.detail().to_string(),
            });
            fallback.degraded = Some(reason);
            Ok(fallback)
        }
        // The fallback failed too; the primary failure is the useful one.
        Err(_) => Err(primary),
    }
}

/// Folds the per-pass and per-candidate wall-clock durations recorded in
/// the trace into the registry's latency histograms.
fn record_duration_histograms(metrics: &mut MetricsRegistry, trace: &TraceSink) {
    for event in trace.events() {
        if let TraceEvent::PassCompleted { micros, .. } = event {
            metrics.record_duration("pass_micros", *micros);
        }
    }
}

/// The optimizing pipeline proper (no fallback). Extracted from
/// [`compile`] so its failures and panics can be contained uniformly.
fn compile_optimized(
    naive: &Kernel,
    opts: &CompileOptions,
    profile_span: Option<SpanId>,
) -> Result<CompiledKernel, CompileError> {
    fault::maybe_panic("pipeline");
    let domain = infer_domain(naive, &opts.bindings).ok_or(CompileError::NoDomain)?;
    let mut state = PipelineState::new(naive.clone(), opts.bindings.clone())
        .with_access_spans(opts.spans.clone())
        .with_profiler(opts.profiler.clone(), profile_span);
    let mut pm = PassManager::new(opts.stages);
    pm.run(&mut state, &mut VectorizePass).map_err(pass_failure)?;
    // On AMD/ATI parts the compiler additionally widens element-wise
    // kernels aggressively (paper §3.1): float4 first, then float2.
    if opts.machine.prefers_wide_vectors() {
        pm.run(&mut state, &mut AmdVectorizePass)
            .map_err(pass_failure)?;
    }

    // A `__gsync` reduction is restructured rather than coalesced: its
    // elements-per-thread degrees are the explorer's points, under the
    // merge stage's gate.
    let reduction = state.kernel.uses_global_sync();
    let stage = if reduction { "merge" } else { "coalesce" };
    if !opts.stages.enabled(stage) {
        return naive_state_compiled(state, domain, opts);
    }
    if !reduction {
        pm.run(&mut state, &mut CoalescePass)
            .map_err(pass_failure)?;
    }

    // The tuning store covers merge spaces only.
    let mut tuning_events: Vec<TraceEvent> = Vec::new();
    let session = (!reduction)
        .then(|| prepare_tuning(naive, &domain, opts, &mut tuning_events))
        .flatten();
    let explored = match &session {
        Some(s) if s.plan.is_some() => {
            let mut warm_opts = opts.clone();
            warm_opts.explore.warm_start = s.plan.clone();
            explore(&state, &pm.am, &domain, &warm_opts)?
        }
        _ => explore(&state, &pm.am, &domain, opts)?,
    };
    let tuning_report = session.map(|s| s.finish(&explored, &mut tuning_events));
    let source = explored
        .launches
        .iter()
        .map(|l| print_kernel(&l.kernel, PrintOptions::default()))
        .collect::<Vec<_>>()
        .join("\n");
    // The shared base trace is moved, not cloned: candidates record only
    // suffix events, and the winner's suffix is already folded into
    // `explored.events`.
    let mut trace = state.trace;
    trace.extend(explored.events);
    trace.extend(tuning_events);
    let mut metrics = explored.metrics;
    if let Some(report) = &tuning_report {
        metrics.push_global("tuning_explored", report.explored as f64);
        metrics.push_global("tuning_full_space", report.full_space as f64);
        metrics.push_global(
            "tuning_warm_started",
            if report.warm_started { 1.0 } else { 0.0 },
        );
    }
    record_duration_histograms(&mut metrics, &trace);
    Ok(CompiledKernel {
        launches: explored.launches,
        per_launch: explored.per_launch,
        estimate: explored.estimate,
        trace,
        metrics,
        source,
        chosen: explored.chosen,
        evaluated: explored.evaluated,
        degraded: None,
        cost_model: opts.cost_model,
        profiler: opts.profiler.clone(),
        tuning: tuning_report,
    })
}

/// One compilation's interaction with the tuning store: the shape lookup
/// done up front, carried to [`TuningSession::finish`] after the search.
struct TuningSession {
    store: Arc<TuningStore>,
    shape: KernelShape,
    outcome: String,
    plan: Option<WarmStartPlan>,
}

/// Maps the store's drained notes into trace events.
fn store_note_events(notes: Vec<StoreNote>, events: &mut Vec<TraceEvent>) {
    for note in notes {
        events.push(match note {
            StoreNote::Degraded { reason } => TraceEvent::StoreDegraded {
                store: "tuning",
                reason,
            },
            StoreNote::SelfHeal { detail } => TraceEvent::Note {
                message: format!("tuning store self-heal: {detail}"),
            },
            StoreNote::WriteError { detail } => TraceEvent::StoreWriteError {
                store: "tuning",
                detail,
            },
        });
    }
}

/// Computes the kernel's shape and asks the store for a warm-start plan.
/// Returns `None` when no store is attached or the kernel's layouts defeat
/// the shape analysis (such compiles run the full search, store-less).
fn prepare_tuning(
    naive: &Kernel,
    domain: &Domain,
    opts: &CompileOptions,
    events: &mut Vec<TraceEvent>,
) -> Option<TuningSession> {
    let store = opts.tuning.as_ref()?.clone();
    let grid_sig = opts.explore.grid_signature();
    let shape = kernel_shape(
        naive,
        &ShapeContext {
            bindings: &opts.bindings,
            machine: opts.machine.name,
            cost_model: opts.cost_model.as_str(),
            stage_bits: opts.stages.bits(),
            grid_sig: &grid_sig,
            domain: (domain.x, domain.y),
        },
    )?;
    let (outcome, plan) = if !opts.warm_start {
        ("disabled".to_string(), None)
    } else {
        match store.lookup(&shape) {
            Lookup::Warm(warm) => {
                let outcome = if warm.neighbor { "neighbor" } else { "warm" };
                (
                    outcome.to_string(),
                    Some(WarmStartPlan {
                        seeds: warm.seeds,
                        expand: warm.neighbor,
                    }),
                )
            }
            Lookup::Reexplore => ("reexplore".to_string(), None),
            Lookup::Miss => ("miss".to_string(), None),
            Lookup::Disabled(_) => ("disabled".to_string(), None),
        }
    };
    let seeds = plan
        .as_ref()
        .map(|p| {
            p.seeds
                .iter()
                .map(|&(bx, ty, tx)| format!("bx{bx}_ty{ty}_tx{tx}"))
                .collect()
        })
        .unwrap_or_default();
    events.push(TraceEvent::TuningLookup {
        fingerprint: shape.structure.clone(),
        outcome: outcome.clone(),
        seeds,
    });
    store_note_events(store.drain_notes(), events);
    Some(TuningSession {
        store,
        shape,
        outcome,
        plan,
    })
}

impl TuningSession {
    /// Records the search outcome into the store and summarizes the
    /// session for the trace document.
    fn finish(self, explored: &Explored, events: &mut Vec<TraceEvent>) -> TuningReport {
        let winner = ConfigScore {
            block_merge_x: explored.chosen.block_merge_x,
            thread_merge_y: explored.chosen.thread_merge_y,
            thread_merge_x: explored.chosen.thread_merge_x,
            time_ms: explored.chosen.time_ms,
        };
        let candidates: Vec<ConfigScore> = explored
            .evaluated
            .iter()
            .map(|c| ConfigScore {
                block_merge_x: c.block_merge_x,
                thread_merge_y: c.thread_merge_y,
                thread_merge_x: c.thread_merge_x,
                time_ms: c.time_ms,
            })
            .collect();
        // A search the store did not narrow is authoritative for this
        // size point: it may demote a stale stored winner.
        let demoted = self
            .store
            .record(&self.shape, &winner, &candidates, !explored.warm_started);
        events.push(TraceEvent::TuningRecorded {
            fingerprint: self.shape.structure.clone(),
            winner: winner.label(),
            explored: explored.evaluated.len() as u64,
            full_space: explored.full_space as u64,
            demoted,
        });
        store_note_events(self.store.drain_notes(), events);
        TuningReport {
            fingerprint: self.shape.structure,
            outcome: self.outcome,
            explored: explored.evaluated.len() as u64,
            full_space: explored.full_space as u64,
            warm_started: explored.warm_started,
            demoted,
        }
    }
}

/// Wraps the naive kernel (no optimization) with a reasonable launch — the
/// baseline of every speedup figure.
pub fn naive_compiled(naive: &Kernel, opts: &CompileOptions) -> Result<CompiledKernel, CompileError> {
    naive_compiled_under(naive, opts, None)
}

/// [`naive_compiled`], with the resulting spans parented under an existing
/// profiler span (the degraded-fallback path in [`compile`]).
fn naive_compiled_under(
    naive: &Kernel,
    opts: &CompileOptions,
    profile_span: Option<SpanId>,
) -> Result<CompiledKernel, CompileError> {
    let domain = infer_domain(naive, &opts.bindings).ok_or(CompileError::NoDomain)?;
    let state = PipelineState::new(naive.clone(), opts.bindings.clone())
        .with_access_spans(opts.spans.clone())
        .with_profiler(opts.profiler.clone(), profile_span);
    naive_state_compiled(state, domain, opts)
}

fn naive_state_compiled(
    state: PipelineState,
    domain: Domain,
    opts: &CompileOptions,
) -> Result<CompiledKernel, CompileError> {
    let mut st = state;
    // Pick the widest power-of-two block that tiles the domain.
    let pick = |extent: i64, choices: &[i64]| {
        choices
            .iter()
            .copied()
            .find(|&b| extent % b == 0)
            .unwrap_or(1)
    };
    if domain.is_2d() {
        st.block_x = pick(domain.x, &[16, 8, 4, 2, 1]);
        st.block_y = pick(domain.y, &[16, 8, 4, 2, 1]);
    } else {
        st.block_x = pick(domain.x, &[256, 128, 64, 32, 16, 8, 4, 2, 1]);
        st.block_y = 1;
    }
    let cfg = launch_for(&st, &domain).ok_or_else(|| {
        CompileError::NoValidConfiguration(format!("domain {domain} does not tile"))
    })?;
    let estimate = {
        let _span = st
            .profiler
            .span_under(st.profile_span, "estimate:naive", "estimate");
        estimate_launch(&st.kernel, &cfg, &st.bindings, opts).map_err(CompileError::Perf)?
    };
    let source = print_kernel(&st.kernel, PrintOptions::default());
    let mut metrics = MetricsRegistry::new();
    metrics.record("base", estimate.counter_snapshot());
    metrics.set_chosen("base");
    record_duration_histograms(&mut metrics, &st.trace);
    Ok(CompiledKernel {
        launches: vec![KernelLaunch {
            kernel: st.kernel.as_ref().clone(),
            launch: cfg,
            extra_buffers: Vec::new(),
        }],
        per_launch: vec![estimate.clone()],
        estimate,
        trace: st.trace,
        metrics,
        source,
        chosen: Candidate::UNMERGED,
        evaluated: Vec::new(),
        degraded: None,
        cost_model: opts.cost_model,
        profiler: st.profiler.clone(),
        tuning: None,
    })
}

/// Threads above which a `__gsync()` kernel's trace is run at a reduced
/// size and scaled (mega-block execution is O(total threads)).
const MEGA_TRACE_LIMIT: i64 = 1 << 16;

/// Estimates a launch, transparently shrinking grid-wide (`__gsync`)
/// kernels to a traceable size and scaling the extensive counters back up.
pub fn estimate_launch(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    opts: &CompileOptions,
) -> Result<PerfEstimate, String> {
    let perf_opts = PerfOptions {
        sample_blocks: opts.sample_blocks,
        cost_model: opts.cost_model,
        ..PerfOptions::default()
    };
    estimate_launch_under(kernel, cfg, bindings, opts, &perf_opts).map_err(|e| e.to_string())
}

/// [`estimate_launch`] under explicit simulator options (a candidate's fuel
/// and deadline), keeping the simulator's error so a budget overrun stays
/// distinguishable from a rejection.
pub(crate) fn estimate_launch_under(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    opts: &CompileOptions,
    perf_opts: &PerfOptions,
) -> Result<PerfEstimate, PerfError> {
    let total_threads = cfg.total_threads() as i64;
    if kernel.uses_global_sync() && total_threads > MEGA_TRACE_LIMIT {
        let factor = total_threads / MEGA_TRACE_LIMIT;
        // Shrink every large binding by the same factor (reduction arrays
        // are all sized proportionally to the input length). Symbolic dims
        // not divisible by the factor make the shrink unsound — bail out.
        let mut small = Bindings::new();
        for (k, &v) in bindings {
            if v >= MEGA_TRACE_LIMIT {
                if v % factor != 0 {
                    return Err(PerfError::DoesNotFit(format!(
                        "cannot shrink binding {k}={v} by {factor}"
                    )));
                }
                small.insert(k.clone(), v / factor);
            } else {
                small.insert(k.clone(), v);
            }
        }
        let small_cfg = LaunchConfig::one_d(
            (cfg.grid_x as i64 / factor).max(1) as u32,
            cfg.block_x,
        );
        // The counters are rescaled after the trace, so a budget on the
        // shrunk trace's own counters would not bound this launch.
        let unbudgeted = PerfOptions {
            prune_above_ms: None,
            ..perf_opts.clone()
        };
        let est = gpgpu_sim::estimate(kernel, &small_cfg, &small, &opts.machine, &unbudgeted)?;
        let mut scaled = est.stats.scaled(factor as f64);
        // Barrier crossings (tree depth) grow with log2 of the shrink.
        scaled.gsync_crossings += factor.ilog2() as u64;
        // The shrunk trace has no replayable event stream, so the cost
        // model finishes from scaled counters alone (the hierarchy model
        // falls back to the analytic formulas here).
        return Ok(opts.cost_model.model().finish_scaled(
            kernel,
            cfg,
            &opts.machine,
            est.blocks_per_sm,
            scaled,
        ));
    }
    gpgpu_sim::estimate(kernel, cfg, bindings, &opts.machine, perf_opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_ast::parse_kernel;

    const MM: &str = r#"
        __global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
            float sum = 0.0f;
            for (int i = 0; i < w; i = i + 1) {
                sum += a[idy][i] * b[i][idx];
            }
            c[idy][idx] = sum;
        }
    "#;

    fn mm_opts(n: i64) -> CompileOptions {
        CompileOptions::new(MachineDesc::gtx280())
            .bind("n", n)
            .bind("w", n)
    }

    #[test]
    fn mm_compiles_and_beats_naive() {
        let k = parse_kernel(MM).unwrap();
        let opts = mm_opts(512);
        let optimized = compile(&k, &opts).unwrap();
        let naive = naive_compiled(&k, &opts).unwrap();
        assert!(
            optimized.total_time_ms() < naive.total_time_ms() / 2.0,
            "optimized {} vs naive {}",
            optimized.total_time_ms(),
            naive.total_time_ms()
        );
        // The winner merged blocks along X and threads along Y (paper §5).
        assert!(optimized.chosen.block_merge_x >= 8, "{:?}", optimized.chosen);
        assert!(optimized.chosen.thread_merge_y >= 4, "{:?}", optimized.chosen);
        assert!(optimized.source.contains("__shared__"));
        assert!(!optimized.evaluated.is_empty());
    }

    #[test]
    fn dissection_stage_sets_are_cumulative() {
        let d = StageSet::dissection();
        assert_eq!(d[0].1, StageSet::none());
        assert!(d[1].1.vectorize && !d[1].1.coalesce);
        assert!(d[2].1.coalesce && !d[2].1.merge);
        assert!(d[3].1.merge && !d[3].1.prefetch);
        assert!(d[4].1.prefetch && !d[4].1.partition);
        assert_eq!(d[5].1, StageSet::all());
    }

    #[test]
    fn staged_compilation_is_monotone_for_mm() {
        let k = parse_kernel(MM).unwrap();
        let base = mm_opts(256);
        let mut last = f64::INFINITY;
        for (name, stages) in StageSet::dissection() {
            let opts = base.clone().with_stages(stages);
            let compiled = compile(&k, &opts).unwrap();
            let t = compiled.total_time_ms();
            assert!(
                t <= last * 1.05,
                "stage {name} regressed: {t} ms after {last} ms"
            );
            last = last.min(t);
        }
    }

    #[test]
    fn reduction_compiles_to_two_launches() {
        let k = parse_kernel(
            "#pragma gpgpu output c
            __global__ void rd(float a[len], float c[1], int len) {
                for (int s = len / 2; s > 0; s = s >> 1) {
                    if (idx < s) { a[idx] = a[idx] + a[idx + s]; }
                    __gsync();
                }
                if (idx == 0) { c[0] = a[0]; }
            }",
        )
        .unwrap();
        let opts = CompileOptions::new(MachineDesc::gtx280()).bind("len", 1 << 22);
        let compiled = compile(&k, &opts).unwrap();
        assert_eq!(compiled.launches.len(), 2);
        assert!(compiled.chosen.reduction_elems.is_some());
        assert_eq!(compiled.launches[0].extra_buffers.len(), 1);
        // And it beats the naive gsync tree.
        let naive = naive_compiled(&k, &opts).unwrap();
        assert!(compiled.total_time_ms() < naive.total_time_ms());

        // At 4 Mi elements only the default degree (64) fits the 256
        // partials; the explicit degrees are rejected candidates that say
        // why, not skipped passes.
        let reason = compiled
            .trace
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::CandidateEvaluated {
                    label, rejected, ..
                } if label == "red4" => rejected.clone(),
                _ => None,
            })
            .expect("red4 is reported as a rejected candidate");
        assert!(
            reason.contains("4096 blocks") && reason.contains("256 partials"),
            "{reason}"
        );
        let skipped = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::PassSkipped {
                    pass: "reduction",
                    ..
                }
            )
        };
        assert!(!compiled.trace.events().iter().any(skipped));
    }

    #[test]
    fn gsync_kernel_that_is_not_a_reduction_degrades_naming_the_pattern() {
        let k = parse_kernel(
            "__global__ void g(float a[n], int n) {
                a[idx] = a[idx] * 2.0f;
                __gsync();
                a[idx] = a[idx] + 1.0f;
            }",
        )
        .unwrap();
        let opts = CompileOptions::new(MachineDesc::gtx280()).bind("n", 1024);
        let compiled = compile(&k, &opts).unwrap();
        match &compiled.degraded {
            Some(DegradedReason::AllCandidatesFailed(msg)) => {
                assert!(msg.contains("pattern"), "{msg}")
            }
            other => panic!("expected all candidates to fail, got {other:?}"),
        }
        // With the merge stage off the kernel stays naive, undegraded.
        let off = opts.with_stages(StageSet {
            merge: false,
            ..StageSet::all()
        });
        assert!(compile(&k, &off).unwrap().degraded.is_none());
    }

    #[test]
    fn transpose_compiles_with_camping_fix() {
        let k = parse_kernel(
            "__global__ void tp(float a[n][n], float c[n][n], int n) {
                c[idx][idy] = a[idy][idx];
            }",
        )
        .unwrap();
        let opts = CompileOptions::new(MachineDesc::gtx280()).bind("n", 1024);
        let compiled = compile(&k, &opts).unwrap();
        assert!(compiled.source.contains("diag_bx"), "{}", compiled.source);
        assert_eq!(compiled.launches[0].launch.block_x, 16);
        assert_eq!(compiled.launches[0].launch.block_y, 16);
    }

    #[test]
    fn amd_targets_widen_elementwise_kernels() {
        let vv = parse_kernel(
            "__global__ void vv(float a[n], float b[n], float c[n], int n) {
                c[idx] = a[idx] * b[idx];
            }",
        )
        .unwrap();
        let amd = CompileOptions::new(MachineDesc::hd5870()).bind("n", 1 << 20);
        let compiled = compile(&vv, &amd).unwrap();
        assert!(compiled.source.contains("float4"), "{}", compiled.source);
        // NVIDIA targets leave the scalar kernel alone (§3.1's rule).
        let nv = CompileOptions::new(MachineDesc::gtx280()).bind("n", 1 << 20);
        let compiled = compile(&vv, &nv).unwrap();
        assert!(!compiled.source.contains("float4"), "{}", compiled.source);
    }

    #[test]
    fn mega_kernels_estimate_via_shrunk_traces() {
        // A 64M-element reduction cannot be traced directly; the estimate
        // shrinks the bindings, scales the counters, and adjusts barrier
        // crossings logarithmically.
        let k = parse_kernel(
            "#pragma gpgpu output c
            __global__ void rd(float a[len], float c[1], int len) {
                for (int s = len / 2; s > 0; s = s >> 1) {
                    if (idx < s) { a[idx] = a[idx] + a[idx + s]; }
                    __gsync();
                }
                if (idx == 0) { c[0] = a[0]; }
            }",
        )
        .unwrap();
        let opts = CompileOptions::new(MachineDesc::gtx280()).bind("len", 1 << 26);
        let cfg = LaunchConfig::one_d((1 << 26) / 256, 256);
        let est = estimate_launch(&k, &cfg, &opts.bindings, &opts).unwrap();
        // Traffic is linear in n: roughly 2·4B per element for the first
        // tree level and geometrically less after.
        assert!(est.stats.useful_bytes > (1u64 << 26) * 4, "{est:?}");
        assert_eq!(est.stats.gsync_crossings, 26);
        assert!(est.time_ms > 0.5, "{}", est.time_ms);
    }

    #[test]
    fn unknown_sizes_fail_cleanly() {
        let k = parse_kernel(MM).unwrap();
        let opts = CompileOptions::new(MachineDesc::gtx280());
        assert!(compile(&k, &opts).is_err());
    }
}
