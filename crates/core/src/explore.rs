//! Design-space exploration (paper §4).
//!
//! Merging thread blocks and threads is the compiler's way of choosing tile
//! sizes and unroll factors; the best degrees depend non-linearly on the
//! hardware and the input size, so the compiler generates multiple versions
//! and searches empirically. The paper test-runs each version on the GPU;
//! here each version is scored by the simulator's trace-driven timing model
//! (the analytical-model alternative the paper discusses).

use crate::domain::Domain;
use crate::error::{panic_message, FaultReason};
use crate::fault;
use crate::pass_manager::PassManager;
use crate::pipeline::{CompileError, CompileOptions};
use gpgpu_analysis::{AnalysisManager, CacheStats};
use gpgpu_ast::LaunchConfig;
use gpgpu_sim::{ExecError, PerfEstimate, PerfError, PerfOptions};
use gpgpu_trace::{CounterSnapshot, MetricsRegistry, SpanId, TraceEvent};
use gpgpu_transform::{
    CampingPass, MergeAxis, PassError, PipelineState, PrefetchPass, ThreadBlockMergePass,
    ThreadMergePass,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The explored merge degrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Thread-block merge factors along X (the paper targets 128/256/512
    /// threads per block, i.e. merging 8/16/32 half-warp blocks).
    pub block_merge_x: Vec<i64>,
    /// Thread merge degrees along Y.
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
    /// An expected rejection: merge precondition, non-tiling domain, or a
    /// configuration that does not fit the machine.
    Rejected(String),
    /// A contained fault (panic, fuel exhaustion, deadline overrun). The
    /// flag records whether the candidate was retried once first.
    Fault(FaultReason, bool),
}

/// One evaluated point of the design space.
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
    /// Estimated time in milliseconds.
    pub time_ms: f64,
}

impl Candidate {
    /// Stable label used by the metrics registry and trace events,
    /// e.g. `bx8_ty4_tx1` or `red256`.
    pub fn label(&self) -> String {
        match self.reduction_elems {
            Some(e) => format!("red{e}"),
            None => format!(
                "bx{}_ty{}_tx{}",
                self.block_merge_x, self.thread_merge_y, self.thread_merge_x
            ),
        }
    }
}

/// The result of exploration: the winning kernel state and its launch.
#[derive(Debug, Clone)]
pub struct Explored {
    /// The winning pipeline state.
    pub state: PipelineState,
    /// Its launch configuration.
    pub launch: LaunchConfig,
    /// Its performance estimate.
    pub estimate: PerfEstimate,
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

/// Applies the post-merge passes (prefetch, partition-camping elimination)
/// according to the enabled stages, through the candidate's pass manager.
///
/// # Errors
///
/// Propagates a [`PassError`] from the pass manager — in practice only a
/// contained panic, since camping and prefetching degrade by skipping.
pub fn finish_candidate(
    state: &mut PipelineState,
    domain: &Domain,
    opts: &CompileOptions,
    pm: &mut PassManager,
) -> Result<(), PassError> {
    // Camping elimination must precede prefetching: prefetch derives its
    // next-iteration fetch from the (possibly rotated) staging expression,
    // keeping the advance inside the rotation's modulo.
    if opts.stages.partition {
        if let Some(cfg) = launch_for(state, domain) {
            let grid_2d = cfg.grid_y > 1;
            // Diagonal remapping is a permutation only on square grids.
            if !grid_2d || cfg.grid_x == cfg.grid_y {
                pm.run(
                    state,
                    &mut CampingPass {
                        geometry: opts.machine.partitions,
                        grid_2d,
                    },
                )?;
            } else {
                state.emit(TraceEvent::PassSkipped {
                    pass: "camping",
                    reason: format!(
                        "diagonal remapping needs a square grid, got {}x{}",
                        cfg.grid_x, cfg.grid_y
                    ),
                });
            }
        } else {
            state.emit(TraceEvent::PassSkipped {
                pass: "camping",
                reason: format!("domain {domain} does not tile the merged block"),
            });
        }
    }
    pm.run(
        state,
        &mut PrefetchPass {
            register_budget: opts.machine.max_regs_per_thread,
        },
    )?;
    Ok(())
}

/// Explores merge degrees starting from a coalesced kernel state and
/// returns the best-performing version.
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
    let mut x_factors = vec![1i64];
    let mut y_factors = vec![1i64];
    let mut tx_factors = vec![1i64];
    if opts.stages.merge {
        // The 16×16 exchange kernel already has a full block; others grow
        // toward 128–512 threads.
        if coalesced.block_y == 1 {
            x_factors.extend(opts.explore.block_merge_x.iter().copied());
        }
        if domain.is_2d() {
            y_factors.extend(opts.explore.thread_merge_y.iter().copied());
        } else {
            tx_factors.extend(opts.explore.thread_merge_x.iter().copied());
        }
    }

    let mut combos: Vec<(i64, i64, i64)> = Vec::new();
    for &bx in &x_factors {
        for &ty in &y_factors {
            for &tx in &tx_factors {
                combos.push((bx, ty, tx));
            }
        }
    }
    let full_space = combos.len();
    let mut warm_started = false;
    if let Some(plan) = &opts.explore.warm_start {
        let keep = warm_selection(plan, &x_factors, &y_factors, &tx_factors);
        let narrowed: Vec<(i64, i64, i64)> =
            combos.iter().copied().filter(|c| keep.contains(c)).collect();
        // A plan whose seeds all fall outside this grid (a stale or
        // foreign entry) must not empty the search; fall back to the full
        // space so the store can never produce "no candidates".
        if !narrowed.is_empty() {
            combos = narrowed;
            warm_started = true;
        }
    }

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
    let results: Vec<(Result<EvaluatedCandidate, CandidateFailure>, u64)> = {
        let workers = opts
            .explore
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
            .clamp(1, combos.len().max(1));
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<(Result<EvaluatedCandidate, CandidateFailure>, u64)>> =
            Vec::new();
        slots.resize_with(combos.len(), || None);
        let results = std::sync::Mutex::new(slots);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= combos.len() {
                        return;
                    }
                    let started = Instant::now();
                    let outcome = contained_evaluate(
                        coalesced,
                        am,
                        domain,
                        opts,
                        Some(explore_span_id),
                        combos[i],
                    );
                    let micros = started.elapsed().as_micros() as u64;
                    // A panicking sibling may have poisoned the mutex while
                    // holding no interesting state — the slots are plain
                    // data, so recover the guard and keep going.
                    results.lock().unwrap_or_else(|p| p.into_inner())[i] =
                        Some((outcome, micros));
                });
            }
        });
        results
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .into_iter()
            .map(|r| {
                // A slot can only be empty if a worker died outside the
                // catch_unwind envelope; treat it as a contained fault.
                r.unwrap_or_else(|| {
                    (
                        Err(CandidateFailure::Fault(
                            FaultReason::Panic("worker died before reporting".into()),
                            false,
                        )),
                        0,
                    )
                })
            })
            .collect()
    };
    drop(explore_span);

    let mut best: Option<Explored> = None;
    let mut evaluated = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut last_error: Option<String> = None;
    let mut fault_count = 0usize;
    let mut last_fault: Option<String> = None;
    let mut cache = CacheStats::default();
    for (&(bx, ty, tx), (outcome, micros)) in combos.iter().zip(results) {
        metrics.record_duration("candidate_micros", micros);
        match outcome {
            Ok(ev) => {
                cache.hits += ev.cache.hits;
                cache.misses += ev.cache.misses;
                cache.invalidations += ev.cache.invalidations;
                // Simulator phase attribution: phantom-trace (of which
                // lowering) vs analytical model wall time per candidate.
                metrics.record_duration("estimate_trace_micros", ev.estimate.trace_micros);
                metrics.record_duration("estimate_lower_micros", ev.estimate.lower_micros);
                metrics.record_duration("estimate_model_micros", ev.estimate.model_micros);
                metrics.record(ev.candidate.label(), ev.estimate.counter_snapshot());
                events.push(TraceEvent::CandidateEvaluated {
                    label: ev.candidate.label(),
                    block_merge_x: bx,
                    thread_merge_y: ty,
                    thread_merge_x: tx,
                    reduction_elems: None,
                    time_ms: ev.estimate.time_ms,
                    rejected: None,
                });
                evaluated.push(ev.candidate.clone());
                let better = best
                    .as_ref()
                    .map(|b| ev.estimate.time_ms < b.estimate.time_ms)
                    .unwrap_or(true);
                if better {
                    best = Some(Explored {
                        state: ev.state,
                        launch: ev.launch,
                        estimate: ev.estimate,
                        chosen: ev.candidate,
                        evaluated: Vec::new(),
                        metrics: MetricsRegistry::new(),
                        events: Vec::new(),
                        full_space,
                        warm_started,
                    });
                }
            }
            Err(failure) => {
                let label = Candidate {
                    block_merge_x: bx,
                    thread_merge_y: ty,
                    thread_merge_x: tx,
                    reduction_elems: None,
                    time_ms: 0.0,
                }
                .label();
                let msg = match &failure {
                    CandidateFailure::Rejected(msg) => msg.clone(),
                    CandidateFailure::Fault(reason, retried) => {
                        events.push(TraceEvent::CandidateFault {
                            label: label.clone(),
                            fault: reason.to_string(),
                            retried: *retried,
                        });
                        let mut snapshot = CounterSnapshot::new();
                        snapshot.push("faulted", 1.0);
                        metrics.record(label.clone(), snapshot);
                        fault_count += 1;
                        let msg = format!("fault: {reason}");
                        last_fault = Some(msg.clone());
                        msg
                    }
                };
                events.push(TraceEvent::CandidateEvaluated {
                    label,
                    block_merge_x: bx,
                    thread_merge_y: ty,
                    thread_merge_x: tx,
                    reduction_elems: None,
                    time_ms: 0.0,
                    rejected: Some(msg.clone()),
                });
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
    match best {
        Some(mut b) => {
            b.evaluated = evaluated;
            metrics.set_chosen(b.chosen.label());
            // The winner's state carries only the suffix of events beyond
            // the shared snapshot; fold it in ahead of the search events.
            let mut combined = std::mem::take(&mut b.state.trace).into_events();
            combined.extend(events);
            combined.push(TraceEvent::MergeSelected {
                block_merge_x: b.chosen.block_merge_x,
                thread_merge_y: b.chosen.thread_merge_y,
                thread_merge_x: b.chosen.thread_merge_x,
                reduction_elems: b.chosen.reduction_elems,
                time_ms: b.chosen.time_ms,
            });
            b.metrics = metrics;
            b.events = combined;
            Ok(b)
        }
        // Faults are the actionable signal when nothing survived — a tiling
        // rejection after a dozen contained panics is noise, so prefer the
        // last fault over the last ordinary rejection.
        None => Err(CompileError::NoValidConfiguration(match last_fault {
            Some(f) => format!("{fault_count} candidate(s) faulted; last {f}"),
            None => last_error.unwrap_or_else(|| "no candidates".into()),
        })),
    }
}

/// One successfully evaluated design-space point.
struct EvaluatedCandidate {
    state: PipelineState,
    launch: LaunchConfig,
    estimate: PerfEstimate,
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
    coalesced: &PipelineState,
    am: &AnalysisManager,
    domain: &Domain,
    opts: &CompileOptions,
    explore_span: Option<SpanId>,
    merges: (i64, i64, i64),
) -> Result<EvaluatedCandidate, CandidateFailure> {
    let attempt = || {
        catch_unwind(AssertUnwindSafe(|| {
            evaluate_candidate(coalesced, am, domain, opts, explore_span, merges)
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

fn evaluate_candidate(
    coalesced: &PipelineState,
    am: &AnalysisManager,
    domain: &Domain,
    opts: &CompileOptions,
    explore_span: Option<SpanId>,
    (bx, ty, tx): (i64, i64, i64),
) -> Result<EvaluatedCandidate, CandidateFailure> {
    let label = Candidate {
        block_merge_x: bx,
        thread_merge_y: ty,
        thread_merge_x: tx,
        reduction_elems: None,
        time_ms: 0.0,
    }
    .label();
    // Opened before fault injection so an injected panic unwinds through
    // the guard and the span table stays balanced.
    let cand_span = coalesced
        .profiler
        .span_under(explore_span, format!("candidate:{label}"), "candidate");
    fault::maybe_panic(&label);
    let rejected = CandidateFailure::Rejected;
    // Branch from the shared coalesced snapshot: the kernel is shared
    // copy-on-write and the analysis cache is inherited, so the layouts
    // resolved during coalescing are never recomputed per candidate.
    let mut st = coalesced.branch();
    st.profile_span = Some(cand_span.id());
    let mut pm = PassManager::with_manager(opts.stages, am.clone());
    let inherited = pm.am.stats();
    if bx > 1 {
        pm.run(&mut st, &mut ThreadBlockMergePass { factor: bx })
            .map_err(pass_failure)?;
    }
    if ty > 1 {
        pm.run(
            &mut st,
            &mut ThreadMergePass {
                axis: MergeAxis::Y,
                factor: ty,
            },
        )
        .map_err(pass_failure)?;
    }
    if tx > 1 {
        pm.run(
            &mut st,
            &mut ThreadMergePass {
                axis: MergeAxis::X,
                factor: tx,
            },
        )
        .map_err(pass_failure)?;
    }
    finish_candidate(&mut st, domain, opts, &mut pm).map_err(pass_failure)?;
    let cfg = launch_for(&st, domain)
        .ok_or_else(|| rejected(format!("domain {domain} does not tile {bx}x{ty}x{tx}")))?;
    let fuel = fault::fuel_override(&label).or(opts.explore.candidate_fuel);
    let deadline = opts
        .explore
        .candidate_deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    // The timing model reuses the memoized resources and layouts instead
    // of recomputing them per candidate.
    pm.am.sync(st.version());
    let resources = pm.am.resources(&st.kernel);
    let layouts = pm
        .am
        .layouts(&st.kernel, &st.bindings)
        .map_err(|e| rejected(e.to_string()))?;
    let estimate_span = cand_span.child("estimate", "estimate");
    let estimate_started = Instant::now();
    let estimate = gpgpu_sim::estimate_prepared(
        &st.kernel,
        &cfg,
        &st.bindings,
        &opts.machine,
        &PerfOptions {
            sample_blocks: opts.sample_blocks,
            fuel,
            deadline,
            cost_model: opts.cost_model,
            ..PerfOptions::default()
        },
        &resources,
        &layouts,
    )
    .map_err(|e| match e {
        PerfError::Exec(ExecError::IterationLimit) => {
            CandidateFailure::Fault(FaultReason::FuelExhausted, false)
        }
        PerfError::Exec(ExecError::DeadlineExceeded) => {
            CandidateFailure::Fault(FaultReason::DeadlineExceeded, false)
        }
        PerfError::DoesNotFit(msg) => rejected(msg),
        other => rejected(other.to_string()),
    })?;
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
    let candidate = Candidate {
        block_merge_x: bx,
        thread_merge_y: ty,
        thread_merge_x: tx,
        reduction_elems: None,
        time_ms: estimate.time_ms,
    };
    let total = pm.am.stats();
    let cache = CacheStats {
        hits: total.hits - inherited.hits,
        misses: total.misses - inherited.misses,
        invalidations: total.invalidations - inherited.invalidations,
    };
    Ok(EvaluatedCandidate {
        state: st,
        launch: cfg,
        estimate,
        candidate,
        cache,
    })
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
