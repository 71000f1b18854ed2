//! Design-space exploration (paper §4).
//!
//! Merging thread blocks and threads is the compiler's way of choosing tile
//! sizes and unroll factors; the best degrees depend non-linearly on the
//! hardware and the input size, so the compiler generates multiple versions
//! and searches empirically. The paper test-runs each version on the GPU;
//! here each version is scored by the simulator's trace-driven timing model
//! (the analytical-model alternative the paper discusses).
//!
//! One search serves two kinds of design point. An ordinary kernel's points
//! are merge triples `(bx, ty, tx)`; a `__gsync` reduction's points are the
//! elements each stage-1 thread accumulates (a thread-merge degree). Every
//! point runs through the same containment, budgets, events and
//! histograms, and the cheapest estimate wins. The first point is probed
//! alone; the rest run on a worker pool, and a trace that provably cannot
//! beat the probe is stopped early (pruned).

use crate::domain::Domain;
use crate::error::{panic_message, FaultReason};
use crate::fault;
use crate::pass_manager::PassManager;
use crate::pipeline::{
    estimate_launch_under, CompileError, CompileOptions, CompiledKernel, KernelLaunch,
};
use gpgpu_analysis::{AnalysisManager, ArrayLayout, CacheStats};
use gpgpu_ast::{Kernel, LaunchConfig, ScalarType};
use gpgpu_sim::{ExecError, PerfError, PerfEstimate, PerfOptions};
use gpgpu_trace::{CounterSnapshot, MetricsRegistry, SpanId, TraceEvent};
use gpgpu_transform::{
    reduction, CampingPass, MergeAxis, PassError, PipelineState, PrefetchPass, ReductionPass,
    ThreadBlockMergePass, ThreadMergePass,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The explored merge degrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Thread-block merge factors along X (the paper targets 128/256/512
    /// threads per block, i.e. merging 8/16/32 half-warp blocks).
    pub block_merge_x: Vec<i64>,
    /// Thread merge degrees along Y. A `__gsync` reduction explores them
    /// as elements per thread, after its default degree.
    pub thread_merge_y: Vec<i64>,
    /// Thread merge degrees along X, explored for 1-D kernels (a 2-D
    /// kernel prefers the Y direction, which preserves coalescing for
    /// free).
    pub thread_merge_x: Vec<i64>,
    /// Per-candidate fuel budget (interpreter steps); `None` uses the
    /// simulator's built-in step limit. A candidate that runs out is
    /// contained as a fault, not a process abort.
    pub candidate_fuel: Option<u64>,
    /// Per-candidate wall-clock deadline in milliseconds; `None` disables
    /// the deadline.
    pub candidate_deadline_ms: Option<u64>,
    /// Worker threads evaluating candidates; `None` sizes the pool from
    /// the host's available parallelism. `Some(1)` forces the serial
    /// schedule (used by the timing-model bench to measure the speedup of
    /// the parallel sweep).
    pub workers: Option<usize>,
    /// Warm-start plan from the persistent tuning store: when set, the
    /// search evaluates only the seed configurations (plus their grid
    /// neighbors when [`WarmStartPlan::expand`] is set) instead of the
    /// full cross product, falling back to the full grid when no seed
    /// lies inside it.
    pub warm_start: Option<WarmStartPlan>,
}

/// The configurations a warm-started search evaluates instead of the full
/// grid. Produced by the tuning store's lookup (`gpgpu-tuning`), consumed
/// here where the factor vectors live.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStartPlan {
    /// Best-known merge-degree triples, best first.
    pub seeds: Vec<(i64, i64, i64)>,
    /// Widen each seed to its adjacent factors along every axis — used
    /// when the seeds come from a *neighboring* size point rather than an
    /// exact hit, where the optimum may sit one grid step away.
    pub expand: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            block_merge_x: vec![8, 16, 32],
            thread_merge_y: vec![4, 8, 16, 32],
            thread_merge_x: vec![2, 4],
            candidate_fuel: None,
            candidate_deadline_ms: Some(10_000),
            workers: None,
            warm_start: None,
        }
    }
}

impl ExploreOptions {
    /// Stable signature of the search grid, hashed into the tuning-store
    /// shape so winners found under one grid never warm-start another.
    pub fn grid_signature(&self) -> String {
        let join = |v: &[i64]| {
            v.iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "bx{};ty{};tx{}",
            join(&self.block_merge_x),
            join(&self.thread_merge_y),
            join(&self.thread_merge_x)
        )
    }
}

/// Why one design-space candidate produced no estimate.
#[derive(Debug, Clone, PartialEq)]
enum CandidateFailure {
    /// An expected rejection: merge precondition, non-tiling domain, a
    /// refused reduction degree, or a configuration that does not fit the
    /// machine.
    Rejected(String),
    /// The trace stopped once it proved the point slower than the probe;
    /// carries the bound reached, in milliseconds.
    Pruned(f64),
    /// A contained fault (panic, fuel exhaustion, deadline overrun). The
    /// flag records whether the candidate was retried once first.
    Fault(FaultReason, bool),
}

/// One point of the design space: merge degrees, or the elements per
/// stage-1 thread of a restructured `__gsync` reduction. Unscored points
/// carry `time_ms` 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Thread blocks merged along X (1 = none).
    pub block_merge_x: i64,
    /// Threads merged along Y (1 = none).
    pub thread_merge_y: i64,
    /// Threads merged along X (1 = none; explored for 1-D kernels).
    pub thread_merge_x: i64,
    /// Elements per thread for reduction kernels (None otherwise).
    pub reduction_elems: Option<i64>,
    /// Estimated time in milliseconds (of the whole launch sequence).
    pub time_ms: f64,
}

impl Candidate {
    /// The point that merges nothing (the naive kernel's launch).
    pub(crate) const UNMERGED: Candidate = Candidate {
        block_merge_x: 1,
        thread_merge_y: 1,
        thread_merge_x: 1,
        reduction_elems: None,
        time_ms: 0.0,
    };

    /// Stable label used by the metrics registry, trace events, candidate
    /// spans and fault sites, e.g. `bx8_ty4_tx1` or `red256`.
    pub fn label(&self) -> String {
        match self.reduction_elems {
            Some(e) => format!("red{e}"),
            None => format!(
                "bx{}_ty{}_tx{}",
                self.block_merge_x, self.thread_merge_y, self.thread_merge_x
            ),
        }
    }

    /// The `candidate-evaluated` event for this point.
    fn evaluated_event(&self, rejected: Option<String>) -> TraceEvent {
        TraceEvent::CandidateEvaluated {
            label: self.label(),
            block_merge_x: self.block_merge_x,
            thread_merge_y: self.thread_merge_y,
            thread_merge_x: self.thread_merge_x,
            reduction_elems: self.reduction_elems,
            time_ms: self.time_ms,
            rejected,
        }
    }
}

/// The result of exploration: the winning point's launches and estimates.
#[derive(Debug, Clone)]
pub struct Explored {
    /// The winning pipeline state (for a reduction, the state the rewrite
    /// read; its two kernels are in [`Self::launches`]).
    pub state: PipelineState,
    /// The first launch's configuration.
    pub launch: LaunchConfig,
    /// The first launch's performance estimate.
    pub estimate: PerfEstimate,
    /// The launch sequence (two launches for a restructured reduction).
    pub launches: Vec<KernelLaunch>,
    /// Per-launch estimates.
    pub per_launch: Vec<PerfEstimate>,
    /// The winning configuration.
    pub chosen: Candidate,
    /// Every evaluated point (for Figure 10-style sweeps).
    pub evaluated: Vec<Candidate>,
    /// Per-candidate counter snapshots; the winner is marked chosen.
    pub metrics: MetricsRegistry,
    /// Search-level trace events (candidate evaluations + selection),
    /// appended after the winning state's own events.
    pub events: Vec<TraceEvent>,
    /// Size of the full design space (before any warm-start narrowing) —
    /// the denominator of the candidate-reduction ratio.
    pub full_space: usize,
    /// True when a warm-start plan actually narrowed the search.
    pub warm_started: bool,
}

/// Builds the launch configuration implied by a pipeline state and domain.
///
/// Returns `None` when the domain does not tile evenly.
pub fn launch_for(state: &PipelineState, domain: &Domain) -> Option<LaunchConfig> {
    let span_x = state.block_x * state.thread_merge_x;
    let span_y = state.block_y * state.thread_merge_y;
    if span_x <= 0 || span_y <= 0 || domain.x % span_x != 0 || domain.y % span_y != 0 {
        return None;
    }
    let grid_x = domain.x / span_x;
    let grid_y = domain.y / span_y;
    if grid_x < 1 || grid_y < 1 {
        return None;
    }
    Some(LaunchConfig {
        grid_x: grid_x as u32,
        grid_y: grid_y as u32,
        block_x: state.block_x as u32,
        block_y: state.block_y as u32,
    })
}

/// The points a search of `state` evaluates, in ranking order, with the
/// size of the full space and whether a warm-start plan narrowed it.
fn design_space(
    state: &PipelineState,
    domain: &Domain,
    opts: &CompileOptions,
) -> (Vec<Candidate>, usize, bool) {
    if state.kernel.uses_global_sync() {
        // The degree the matched pattern implies comes first, then the
        // thread-merge degrees; a repeat would only be evaluated twice.
        let auto = reduction::auto_elems_per_thread(state);
        let merge_y = opts.explore.thread_merge_y.iter().copied();
        let mut points: Vec<Candidate> = Vec::new();
        for e in auto.into_iter().chain(merge_y) {
            let point = Candidate {
                reduction_elems: Some(e.max(1)),
                ..Candidate::UNMERGED
            };
            if !points.contains(&point) {
                points.push(point);
            }
        }
        let n = points.len();
        return (points, n, false);
    }
    let mut x_factors = vec![1i64];
    let mut y_factors = vec![1i64];
    let mut tx_factors = vec![1i64];
    if opts.stages.merge {
        // The 16×16 exchange kernel already has a full block; others grow
        // toward 128–512 threads.
        if state.block_y == 1 {
            x_factors.extend(opts.explore.block_merge_x.iter().copied());
        }
        if domain.is_2d() {
            y_factors.extend(opts.explore.thread_merge_y.iter().copied());
        } else {
            tx_factors.extend(opts.explore.thread_merge_x.iter().copied());
        }
    }

    let mut combos: Vec<Candidate> = Vec::new();
    for &block_merge_x in &x_factors {
        for &thread_merge_y in &y_factors {
            for &thread_merge_x in &tx_factors {
                combos.push(Candidate {
                    block_merge_x,
                    thread_merge_y,
                    thread_merge_x,
                    ..Candidate::UNMERGED
                });
            }
        }
    }
    let full_space = combos.len();
    let mut warm_started = false;
    if let Some(plan) = &opts.explore.warm_start {
        let keep = warm_selection(plan, &x_factors, &y_factors, &tx_factors);
        let mut narrowed = combos.clone();
        narrowed.retain(|c| keep.contains(&(c.block_merge_x, c.thread_merge_y, c.thread_merge_x)));
        // A plan whose seeds all fall outside this grid (a stale or
        // foreign entry) must not empty the search; fall back to the full
        // space so the store can never produce "no candidates".
        if !narrowed.is_empty() {
            combos = narrowed;
            warm_started = true;
        }
    }
    (combos, full_space, warm_started)
}

/// Explores the design space of a kernel state and returns the
/// best-performing version: merge degrees of a coalesced kernel, or
/// elements-per-thread degrees of a `__gsync` reduction.
///
/// # Errors
///
/// Returns [`CompileError::NoValidConfiguration`] when no candidate fits
/// the machine and tiles the domain.
pub fn explore(
    coalesced: &PipelineState,
    am: &AnalysisManager,
    domain: &Domain,
    opts: &CompileOptions,
) -> Result<Explored, CompileError> {
    let (points, full_space, warm_started) = design_space(coalesced, domain, opts);

    // The explore span covers the whole parallel search; candidate spans on
    // the worker threads parent to it across the thread boundary.
    let explore_span = coalesced
        .profiler
        .span_under(coalesced.profile_span, "explore", "explore");
    let explore_span_id = explore_span.id();

    // The paper test-runs its candidate kernels independently; we evaluate
    // them on worker threads the same way. Each evaluation runs under
    // `catch_unwind` so one pathological candidate cannot take down the
    // search: a panicked slot is retried once (transient poisoning), then
    // recorded as a contained fault.
    let evaluate = |point: &Candidate, budget: Option<f64>| {
        let started = Instant::now();
        let outcome = contained_evaluate(
            coalesced,
            am,
            domain,
            opts,
            Some(explore_span_id),
            point,
            budget,
        );
        (outcome, started.elapsed().as_micros() as u64)
    };
    let slots: Vec<OnceLock<(Result<EvaluatedCandidate, CandidateFailure>, u64)>> =
        points.iter().map(|_| OnceLock::new()).collect();
    // The first point is probed alone, and its time becomes every other
    // point's budget: a trace stops once its partial counters prove it
    // slower, so it could never have won. The budget depends on the probe
    // alone, so the same points are pruned for any worker count. A tuning
    // store keeps losers' times (it seeds neighbouring sizes with the
    // runner-up), so a search that feeds one stays unpruned.
    let mut budget = None;
    if let Some(first) = points.first() {
        let probe = evaluate(first, None);
        if opts.tuning.is_none() {
            budget = probe.0.as_ref().ok().map(|ev| ev.candidate.time_ms);
        }
        let _ = slots[0].set(probe);
    }
    let workers = opts
        .explore
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, points.len().saturating_sub(1).max(1));
    let next = AtomicUsize::new(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { return };
                let _ = slots[i].set(evaluate(point, budget));
            });
        }
    });
    drop(explore_span);

    let mut best: Option<EvaluatedCandidate> = None;
    let mut evaluated = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut last_error: Option<String> = None;
    let mut fault_count = 0usize;
    let mut last_fault: Option<String> = None;
    let mut cache = CacheStats::default();
    for (point, slot) in points.into_iter().zip(slots) {
        // A slot can only be empty if a worker died outside the
        // catch_unwind envelope; treat it as a contained fault.
        let (outcome, micros) = slot.into_inner().unwrap_or_else(|| {
            let reason = FaultReason::Panic("worker died before reporting".into());
            (Err(CandidateFailure::Fault(reason, false)), 0)
        });
        metrics.record_duration("candidate_micros", micros);
        match outcome {
            Ok(mut ev) => {
                cache.hits += ev.cache.hits;
                cache.misses += ev.cache.misses;
                cache.invalidations += ev.cache.invalidations;
                // Simulator phase attribution: phantom-trace (of which
                // lowering) vs analytical model wall time per estimate.
                for estimate in &ev.per_launch {
                    metrics.record_duration("estimate_trace_micros", estimate.trace_micros);
                    metrics.record_duration("estimate_lower_micros", estimate.lower_micros);
                    metrics.record_duration("estimate_model_micros", estimate.model_micros);
                }
                metrics.record(ev.candidate.label(), std::mem::take(&mut ev.snapshot));
                events.push(ev.candidate.evaluated_event(None));
                evaluated.push(ev.candidate.clone());
                let better = best
                    .as_ref()
                    .map(|b| ev.candidate.time_ms < b.candidate.time_ms)
                    .unwrap_or(true);
                if better {
                    best = Some(ev);
                }
            }
            Err(failure) => {
                let label = point.label();
                let msg = match &failure {
                    CandidateFailure::Rejected(msg) => msg.clone(),
                    &CandidateFailure::Pruned(bound_ms) => {
                        let incumbent_ms = budget.unwrap_or_default();
                        events.push(TraceEvent::CandidatePruned {
                            label: label.clone(),
                            bound_ms,
                            incumbent_ms,
                        });
                        let mut snapshot = CounterSnapshot::new();
                        snapshot.push("pruned", 1.0);
                        metrics.record(label, snapshot);
                        format!("pruned: ≥ {bound_ms:.4} ms, incumbent {incumbent_ms:.4} ms")
                    }
                    CandidateFailure::Fault(reason, retried) => {
                        events.push(TraceEvent::CandidateFault {
                            label: label.clone(),
                            fault: reason.to_string(),
                            retried: *retried,
                        });
                        let mut snapshot = CounterSnapshot::new();
                        snapshot.push("faulted", 1.0);
                        metrics.record(label, snapshot);
                        fault_count += 1;
                        let msg = format!("fault: {reason}");
                        last_fault = Some(msg.clone());
                        msg
                    }
                };
                events.push(point.evaluated_event(Some(msg.clone())));
                last_error = Some(msg);
            }
        }
    }
    // Compilation-wide cache effectiveness of the shared analysis snapshot
    // across the whole search (the layouts computed once during coalescing
    // are hit by every candidate).
    metrics.push_global("analysis_cache_hits", cache.hits as f64);
    metrics.push_global("analysis_cache_misses", cache.misses as f64);
    metrics.push_global("analysis_cache_invalidations", cache.invalidations as f64);
    // Faults are the actionable signal when nothing survived — a tiling
    // rejection after a dozen contained panics is noise, so prefer the last
    // fault over the last ordinary rejection.
    let Some(mut best) = best else {
        return Err(CompileError::NoValidConfiguration(match last_fault {
            Some(f) => format!("{fault_count} candidate(s) faulted; last {f}"),
            None => last_error.unwrap_or_else(|| "no candidates".into()),
        }));
    };
    metrics.set_chosen(best.candidate.label());
    // The winner's state carries only the suffix of events beyond the
    // shared snapshot; fold it in ahead of the search events.
    let mut combined = std::mem::take(&mut best.state.trace).into_events();
    combined.extend(events);
    combined.push(TraceEvent::MergeSelected {
        block_merge_x: best.candidate.block_merge_x,
        thread_merge_y: best.candidate.thread_merge_y,
        thread_merge_x: best.candidate.thread_merge_x,
        reduction_elems: best.candidate.reduction_elems,
        time_ms: best.candidate.time_ms,
    });
    // Only the winner's kernels are copied out of the shared snapshots.
    let launches: Vec<KernelLaunch> = best
        .launches
        .into_iter()
        .map(|(kernel, launch, extra_buffers)| KernelLaunch {
            kernel: Arc::unwrap_or_clone(kernel),
            launch,
            extra_buffers,
        })
        .collect();
    Ok(Explored {
        state: best.state,
        launch: launches[0].launch,
        estimate: best.per_launch[0].clone(),
        launches,
        per_launch: best.per_launch,
        chosen: best.candidate,
        evaluated,
        metrics,
        events: combined,
        full_space,
        warm_started,
    })
}

/// Every point of `compiled`'s design space that produces an estimate,
/// with its counters, in design-space order: the full sweep behind
/// Figure 10-style tables. A search prunes the points that cannot win, so
/// each pruned merge point is compiled again alone, as a one-seed warm
/// start with nothing to prune against. Reduction degrees cannot be
/// searched alone; a pruned one is left out.
pub fn full_sweep(
    kernel: &Kernel,
    opts: &CompileOptions,
    compiled: &CompiledKernel,
) -> Vec<(Candidate, CounterSnapshot)> {
    let counters = |c: &CompiledKernel, label: &str| {
        let found = c.metrics.candidates().iter().find(|m| m.label == label);
        found.map(|m| m.counters.clone())
    };
    let events = compiled.trace.events();
    let pruned: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::CandidatePruned { label, .. } => Some(label.as_str()),
            _ => None,
        })
        .collect();
    let mut points = Vec::new();
    for event in events {
        let TraceEvent::CandidateEvaluated {
            label,
            block_merge_x,
            thread_merge_y,
            thread_merge_x,
            reduction_elems,
            time_ms,
            rejected,
        } = event
        else {
            continue;
        };
        if rejected.is_none() {
            let point = Candidate {
                block_merge_x: *block_merge_x,
                thread_merge_y: *thread_merge_y,
                thread_merge_x: *thread_merge_x,
                reduction_elems: *reduction_elems,
                time_ms: *time_ms,
            };
            points.extend(counters(compiled, label).map(|c| (point, c)));
        } else if pruned.contains(&label.as_str()) && reduction_elems.is_none() {
            let mut alone = opts.clone();
            alone.explore.warm_start = Some(WarmStartPlan {
                seeds: vec![(*block_merge_x, *thread_merge_y, *thread_merge_x)],
                expand: false,
            });
            let Ok(c) = crate::pipeline::compile(kernel, &alone) else {
                continue;
            };
            if let (Some(point), Some(snapshot)) = (c.evaluated.first(), counters(&c, label)) {
                points.push((point.clone(), snapshot));
            }
        }
    }
    points
}

/// One successfully evaluated design-space point.
struct EvaluatedCandidate {
    state: PipelineState,
    /// The point's launch sequence and per-launch estimates (never empty).
    launches: Vec<PendingLaunch>,
    per_launch: Vec<PerfEstimate>,
    /// The counters the registry records for the point.
    snapshot: CounterSnapshot,
    candidate: Candidate,
    /// Analysis-cache traffic this candidate generated on top of the
    /// inherited snapshot.
    cache: CacheStats,
}

/// The configurations a warm-start plan selects out of the factor grid:
/// each seed itself, widened to the adjacent factor along every axis when
/// the plan asks for expansion. Seeds outside the grid select nothing.
fn warm_selection(
    plan: &WarmStartPlan,
    x_factors: &[i64],
    y_factors: &[i64],
    tx_factors: &[i64],
) -> Vec<(i64, i64, i64)> {
    fn axis(vals: &[i64], v: i64, expand: bool) -> Vec<i64> {
        match vals.iter().position(|&x| x == v) {
            Some(i) if expand => {
                let mut out = vec![vals[i]];
                if i > 0 {
                    out.push(vals[i - 1]);
                }
                if i + 1 < vals.len() {
                    out.push(vals[i + 1]);
                }
                out
            }
            Some(i) => vec![vals[i]],
            None => Vec::new(),
        }
    }
    let mut keep: Vec<(i64, i64, i64)> = Vec::new();
    for &(bx, ty, tx) in &plan.seeds {
        for &kb in &axis(x_factors, bx, plan.expand) {
            for &kt in &axis(y_factors, ty, plan.expand) {
                for &kx in &axis(tx_factors, tx, plan.expand) {
                    if !keep.contains(&(kb, kt, kx)) {
                        keep.push((kb, kt, kx));
                    }
                }
            }
        }
    }
    keep
}

/// Runs one candidate under panic containment: a panic is retried once
/// (the paper's empirical search simply re-runs a flaky measurement) and
/// then recorded as a fault; fuel and deadline overruns map to faults
/// directly.
fn contained_evaluate(
    base: &PipelineState,
    am: &AnalysisManager,
    domain: &Domain,
    opts: &CompileOptions,
    explore_span: Option<SpanId>,
    point: &Candidate,
    budget: Option<f64>,
) -> Result<EvaluatedCandidate, CandidateFailure> {
    let attempt = || {
        catch_unwind(AssertUnwindSafe(|| {
            evaluate_candidate(base, am, domain, opts, explore_span, point, budget)
        }))
    };
    match attempt() {
        Ok(outcome) => outcome,
        Err(_first) => match attempt() {
            Ok(outcome) => outcome,
            Err(payload) => Err(CandidateFailure::Fault(
                FaultReason::Panic(panic_message(payload)),
                true,
            )),
        },
    }
}

/// Maps a pass-manager failure into a candidate failure: contained panics
/// are faults, everything else is an ordinary rejection.
fn pass_failure(e: PassError) -> CandidateFailure {
    if e.fault {
        CandidateFailure::Fault(FaultReason::Panic(e.message), false)
    } else {
        CandidateFailure::Rejected(e.message)
    }
}

/// Maps a simulator failure into a candidate failure: fuel and deadline
/// overruns are faults, a budget overrun prunes the point, everything else
/// is an ordinary rejection.
fn perf_failure(e: PerfError) -> CandidateFailure {
    use CandidateFailure::{Fault, Pruned, Rejected};
    match e {
        PerfError::Exec(ExecError::IterationLimit) => Fault(FaultReason::FuelExhausted, false),
        PerfError::Exec(ExecError::DeadlineExceeded) => Fault(FaultReason::DeadlineExceeded, false),
        PerfError::Exec(ExecError::OverBudget(bound_ms)) => Pruned(bound_ms),
        PerfError::DoesNotFit(msg) => Rejected(msg),
        other => Rejected(other.to_string()),
    }
}

/// The simulator options a candidate's estimates run under: its fuel
/// budget (an injected fuel fault overrides it by label), a deadline
/// starting now, and the time above which its trace is pruned.
fn candidate_perf_options(opts: &CompileOptions, label: &str, budget: Option<f64>) -> PerfOptions {
    PerfOptions {
        sample_blocks: opts.sample_blocks,
        fuel: fault::fuel_override(label).or(opts.explore.candidate_fuel),
        deadline: opts
            .explore
            .candidate_deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
        cost_model: opts.cost_model,
        prune_above_ms: budget,
        ..PerfOptions::default()
    }
}

fn evaluate_candidate(
    base: &PipelineState,
    am: &AnalysisManager,
    domain: &Domain,
    opts: &CompileOptions,
    explore_span: Option<SpanId>,
    point: &Candidate,
    budget: Option<f64>,
) -> Result<EvaluatedCandidate, CandidateFailure> {
    let label = point.label();
    // Opened before fault injection so an injected panic unwinds through
    // the guard and the span table stays balanced.
    let cand_span = base
        .profiler
        .span_under(explore_span, format!("candidate:{label}"), "candidate");
    fault::maybe_panic(&label);
    // Branch from the shared snapshot: the kernel is shared copy-on-write
    // and the analysis cache is inherited, so the layouts resolved during
    // coalescing are never recomputed per candidate.
    let mut st = base.branch();
    st.profile_span = Some(cand_span.id());
    let mut pm = PassManager::with_manager(opts.stages, am.clone());
    let inherited = pm.am.stats();
    let (launches, per_launch, snapshot) = match point.reduction_elems {
        Some(elems) => reduction_point(&mut st, &mut pm, opts, &label, budget, elems)?,
        None => merge_point(&mut st, &mut pm, domain, opts, &label, budget, point)?,
    };
    let total = pm.am.stats();
    let cache = CacheStats {
        hits: total.hits - inherited.hits,
        misses: total.misses - inherited.misses,
        invalidations: total.invalidations - inherited.invalidations,
    };
    Ok(EvaluatedCandidate {
        state: st,
        candidate: Candidate {
            time_ms: per_launch.iter().map(|e| e.time_ms).sum(),
            ..point.clone()
        },
        launches,
        per_launch,
        snapshot,
        cache,
    })
}

/// A launch whose kernel stays shared until the point wins: the kernel, its
/// configuration and the extra buffers it needs.
type PendingLaunch = (Arc<Kernel>, LaunchConfig, Vec<ArrayLayout>);

/// A point's launch sequence, per-launch estimates, and the counters the
/// registry records for it.
type PointResult = (Vec<PendingLaunch>, Vec<PerfEstimate>, CounterSnapshot);

/// A merge point: the merge passes, partition-camping elimination and
/// prefetching on the coalesced branch, then one estimate on the memoized
/// analyses.
fn merge_point(
    st: &mut PipelineState,
    pm: &mut PassManager,
    domain: &Domain,
    opts: &CompileOptions,
    label: &str,
    budget: Option<f64>,
    point: &Candidate,
) -> Result<PointResult, CandidateFailure> {
    let (bx, ty, tx) = (
        point.block_merge_x,
        point.thread_merge_y,
        point.thread_merge_x,
    );
    let rejected = CandidateFailure::Rejected;
    if bx > 1 {
        pm.run(st, &mut ThreadBlockMergePass { factor: bx })
            .map_err(pass_failure)?;
    }
    for (axis, factor) in [(MergeAxis::Y, ty), (MergeAxis::X, tx)] {
        if factor > 1 {
            pm.run(st, &mut ThreadMergePass { axis, factor })
                .map_err(pass_failure)?;
        }
    }
    // Camping elimination must precede prefetching: prefetch derives its
    // next-iteration fetch from the (possibly rotated) staging expression,
    // keeping the advance inside the rotation's modulo.
    if opts.stages.partition {
        let skipped = match launch_for(st, domain) {
            // Diagonal remapping is a permutation only on square grids.
            Some(cfg) if cfg.grid_y <= 1 || cfg.grid_x == cfg.grid_y => {
                let geometry = opts.machine.partitions;
                let grid_2d = cfg.grid_y > 1;
                pm.run(st, &mut CampingPass { geometry, grid_2d })
                    .map_err(pass_failure)?;
                None
            }
            Some(cfg) => Some(format!(
                "diagonal remapping needs a square grid, got {}x{}",
                cfg.grid_x, cfg.grid_y
            )),
            None => Some(format!("domain {domain} does not tile the merged block")),
        };
        if let Some(reason) = skipped {
            st.emit(TraceEvent::PassSkipped {
                pass: "camping",
                reason,
            });
        }
    }
    let register_budget = opts.machine.max_regs_per_thread;
    pm.run(st, &mut PrefetchPass { register_budget })
        .map_err(pass_failure)?;
    let cfg = launch_for(st, domain)
        .ok_or_else(|| rejected(format!("domain {domain} does not tile {bx}x{ty}x{tx}")))?;
    // The timing model reuses the memoized resources and layouts instead
    // of recomputing them per candidate.
    pm.am.sync(st.version());
    let resources = pm.am.resources(&st.kernel);
    let layouts = pm
        .am
        .layouts(&st.kernel, &st.bindings)
        .map_err(|e| rejected(e.to_string()))?;
    let estimate_span = st
        .profiler
        .span_under(st.profile_span, "estimate", "estimate");
    let estimate_started = Instant::now();
    let estimate = gpgpu_sim::estimate_prepared(
        &st.kernel,
        &cfg,
        &st.bindings,
        &opts.machine,
        &candidate_perf_options(opts, label, budget),
        &resources,
        &layouts,
    )
    .map_err(perf_failure)?;
    // The simulator has no profiler handle; it reports how long lowering
    // took, and lowering is the first thing a trace does.
    opts.profiler.record_span_between(
        Some(estimate_span.id()),
        "lower",
        "estimate",
        estimate_started,
        estimate_started + Duration::from_micros(estimate.lower_micros),
    );
    drop(estimate_span);
    let snapshot = estimate.counter_snapshot();
    let launch = (Arc::clone(&st.kernel), cfg, Vec::new());
    Ok((vec![launch], vec![estimate], snapshot))
}

/// A reduction point: the two-launch rewrite at `elems` per thread, both
/// stages estimated under the candidate's budgets. The counters recorded
/// are stage 1's plus the stage-2 and total times.
fn reduction_point(
    st: &mut PipelineState,
    pm: &mut PassManager,
    opts: &CompileOptions,
    label: &str,
    budget: Option<f64>,
    elems: i64,
) -> Result<PointResult, CandidateFailure> {
    let mut pass = ReductionPass {
        elems: Some(elems),
        rewrite: None,
    };
    pm.run(st, &mut pass).map_err(pass_failure)?;
    let rw = pass
        .rewrite
        .ok_or_else(|| CandidateFailure::Rejected("the merge stage is disabled".into()))?;
    st.emit(TraceEvent::ReductionRestructured {
        elems_per_thread: rw.elems_per_thread,
        launches: 2,
    });
    let _estimate_span = st
        .profiler
        .span_under(st.profile_span, "estimate", "estimate");
    let perf = candidate_perf_options(opts, label, budget);
    let estimate = |kernel, launch, stage: &str| {
        estimate_launch_under(kernel, launch, &st.bindings, opts, &perf).map_err(|e| {
            match perf_failure(e) {
                CandidateFailure::Rejected(msg) => {
                    CandidateFailure::Rejected(format!("{stage}: {msg}"))
                }
                fault => fault,
            }
        })
    };
    let e1 = estimate(&rw.stage1, &rw.stage1_launch, "stage 1")?;
    let e2 = estimate(&rw.stage2, &rw.stage2_launch, "stage 2")?;
    let mut snapshot = e1.counter_snapshot();
    snapshot.push("stage2_time_ms", e2.time_ms);
    snapshot.push("total_time_ms", e1.time_ms + e2.time_ms);
    let partials = ArrayLayout::new(&rw.partials, ScalarType::Float, vec![reduction::PARTIALS]);
    let buffers = vec![partials];
    let launches = vec![
        (Arc::new(rw.stage1), rw.stage1_launch, buffers.clone()),
        (Arc::new(rw.stage2), rw.stage2_launch, buffers),
    ];
    Ok((launches, vec![e1, e2], snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_transform::PipelineState;

    fn state(bx: i64, by: i64, tmx: i64, tmy: i64) -> PipelineState {
        let k = gpgpu_ast::parse_kernel(
            "__global__ void f(float c[n][m], int n, int m) { c[idy][idx] = 0.0f; }",
        )
        .unwrap();
        let mut st = PipelineState::new(k, gpgpu_analysis::Bindings::new());
        st.block_x = bx;
        st.block_y = by;
        st.thread_merge_x = tmx;
        st.thread_merge_y = tmy;
        st
    }

    #[test]
    fn launch_for_tiles_domain() {
        let st = state(128, 1, 1, 4);
        let cfg = launch_for(&st, &Domain { x: 1024, y: 512 }).unwrap();
        assert_eq!((cfg.grid_x, cfg.grid_y), (8, 128));
        assert_eq!((cfg.block_x, cfg.block_y), (128, 1));
    }

    #[test]
    fn launch_for_rejects_uneven_tiling() {
        let st = state(128, 1, 1, 1);
        assert!(launch_for(&st, &Domain { x: 100, y: 1 }).is_none());
        let st = state(16, 16, 1, 1);
        assert!(launch_for(&st, &Domain { x: 64, y: 40 }).is_none());
    }

    #[test]
    fn default_explore_space_matches_paper() {
        let e = ExploreOptions::default();
        // §4: 128/256/512-thread blocks = merging 8/16/32 half-warp blocks.
        assert_eq!(e.block_merge_x, vec![8, 16, 32]);
        assert_eq!(e.thread_merge_y, vec![4, 8, 16, 32]);
    }
}
