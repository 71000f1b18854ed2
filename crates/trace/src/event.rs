//! Typed pass-trace events.
//!
//! Every decision the optimization pipeline makes — vectorize or not,
//! how each global access classifies under the §3.2 coalescing check,
//! which merge degrees were tried and chosen, why prefetching was skipped,
//! how partition camping was fixed — is recorded as one variant of
//! [`TraceEvent`]. Events render three ways: a stable `kind` string and
//! typed JSON payload (via [`TraceEvent::to_json`]), and the human-readable
//! pass log the paper touts (via [`TraceEvent::message`]).

use crate::json::Json;
use gpgpu_ast::Span;

/// Net effect of one pass on the kernel, sampled before/after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AstDelta {
    /// Statements (recursively counted) before the pass.
    pub statements_before: u32,
    /// Statements after the pass.
    pub statements_after: u32,
    /// Shared-memory bytes per block after the pass.
    pub shared_bytes: u64,
    /// Estimated registers per thread after the pass.
    pub registers: u32,
}

impl AstDelta {
    /// Statements added minus removed.
    pub fn statements_net(&self) -> i64 {
        self.statements_after as i64 - self.statements_before as i64
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("statements_before", Json::count(self.statements_before as u64)),
            ("statements_after", Json::count(self.statements_after as u64)),
            ("shared_bytes", Json::count(self.shared_bytes)),
            ("registers", Json::count(self.registers as u64)),
        ])
    }
}

/// One structured pipeline event. See the module docs; the `kind` strings
/// returned by [`TraceEvent::kind`] are part of the `gpgpu-trace/v1` schema
/// and must stay stable.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// §3.1 vectorization rewrote these arrays to `float2`.
    VectorizeApplied {
        /// Arrays widened.
        arrays: Vec<String>,
        /// Vector width (2 on NVIDIA targets).
        width: u32,
    },
    /// §3.1 vectorization left the kernel alone.
    VectorizeSkipped {
        /// Why the pairing rule did not fire.
        reason: String,
    },
    /// §3.1 AMD wide-vector rewrite (float4/float2, N elements per thread).
    AmdVectorizeApplied {
        /// Vector width.
        width: u32,
    },
    /// §3.2 classification of one global access.
    AccessClassified {
        /// Array name.
        array: String,
        /// Printed index expression(s), e.g. `[idy][i]`.
        index: String,
        /// Coalescing verdict: `coalesced`, `bad-offsets`,
        /// `misaligned-base`, or `unresolved`.
        verdict: String,
        /// Load destination: `G2S` (global→shared) or `G2R`
        /// (global→register); stores report `store`.
        target: String,
        /// True for stores.
        is_write: bool,
        /// Source location of the array's first subscripted use, when the
        /// front end captured one.
        span: Option<Span>,
    },
    /// §3.3 staged one non-coalesced access through shared memory.
    CoalesceStaged {
        /// Source (global) array.
        array: String,
        /// The shared staging array introduced.
        shared: String,
        /// Staging pattern: `segment`, `tile`, `multi-segment`, `window`.
        pattern: String,
        /// Source location of the access, when known.
        span: Option<Span>,
    },
    /// §3.3 could not convert one access.
    CoalesceSkippedAccess {
        /// Array name.
        array: String,
        /// Why.
        reason: String,
        /// Source location, when known.
        span: Option<Span>,
    },
    /// §3.3 pass-level bail-out (e.g. unresolved array layouts).
    CoalescePassSkipped {
        /// Why.
        reason: String,
    },
    /// §3.3 transpose-style idx/idy exchange through a 16×16 tile.
    ExchangeApplied {
        /// The exchanged (tiled) array.
        array: String,
    },
    /// §3.5.1 thread-block merge.
    BlockMerge {
        /// Merge axis, `"X"` or `"Y"`.
        axis: &'static str,
        /// Blocks merged into one.
        factor: i64,
        /// Block extent along X after the merge.
        block_x: i64,
        /// Block extent along Y after the merge.
        block_y: i64,
    },
    /// §3.5.2 thread merge.
    ThreadMerge {
        /// Merge axis, `"X"` or `"Y"`.
        axis: &'static str,
        /// Threads merged into one.
        factor: i64,
        /// Work items each thread now computes.
        elements_per_thread: i64,
    },
    /// §4 design space: the merge degrees that won.
    MergeSelected {
        /// Thread blocks merged along X.
        block_merge_x: i64,
        /// Threads merged along Y.
        thread_merge_y: i64,
        /// Threads merged along X.
        thread_merge_x: i64,
        /// Elements per thread (reduction kernels only).
        reduction_elems: Option<i64>,
        /// Predicted time of the winner, in milliseconds.
        time_ms: f64,
    },
    /// §4 design space: one evaluated point.
    CandidateEvaluated {
        /// Stable label, e.g. `bx8_ty4_tx1` or `red256`.
        label: String,
        /// Thread blocks merged along X.
        block_merge_x: i64,
        /// Threads merged along Y.
        thread_merge_y: i64,
        /// Threads merged along X.
        thread_merge_x: i64,
        /// Elements per thread (reduction kernels only).
        reduction_elems: Option<i64>,
        /// Predicted time in milliseconds (0 when rejected).
        time_ms: f64,
        /// Why the candidate was rejected, if it was.
        rejected: Option<String>,
    },
    /// §3.6 double-buffered prefetching fired.
    PrefetchApplied {
        /// Staged loads double-buffered.
        loads: usize,
    },
    /// §3.6 prefetching declined to run.
    PrefetchSkipped {
        /// Why (currently always register pressure).
        reason: String,
        /// Registers per thread before prefetching.
        registers_per_thread: u32,
        /// The machine's register budget per thread.
        register_budget: u32,
    },
    /// §3.7 partition camping fixed.
    CampingFixed {
        /// Fix kind: `diagonal` (block remapping) or `offset`
        /// (loop rotation by `bidx`).
        fix: &'static str,
        /// Arrays whose partition walk was fixed.
        arrays: Vec<String>,
        /// Human detail (rotated loop, modulo, …).
        detail: String,
    },
    /// §3.7 camping detected but not fixable for these arrays.
    CampingUnfixed {
        /// The camping arrays left alone.
        arrays: Vec<String>,
    },
    /// §3.7 found no partition camping.
    CampingClean,
    /// Reduction restructuring split the kernel into two launches.
    ReductionRestructured {
        /// Elements each thread of stage 1 accumulates.
        elems_per_thread: i64,
        /// Number of launches (always 2).
        launches: u32,
    },
    /// A pass finished: wall-clock time and AST delta.
    PassCompleted {
        /// Pass name (`vectorize`, `coalesce`, `merge`, `prefetch`,
        /// `camping`, `reduction`).
        pass: &'static str,
        /// Wall-clock microseconds the pass took.
        micros: u64,
        /// Net effect on the kernel.
        delta: AstDelta,
    },
    /// A pass declined to run and would otherwise have skipped silently.
    PassSkipped {
        /// Pass name (`vectorize-amd`, `prefetch`, `camping`, `reduction`,
        /// `merge`).
        pass: &'static str,
        /// Why the pass did nothing.
        reason: String,
    },
    /// The analysis manager served a memoized result instead of
    /// recomputing (the pass/analysis-manager framework's cache).
    AnalysisCacheHit {
        /// Analysis name (`layouts`, `accesses`, `sharing`, `resources`).
        analysis: &'static str,
        /// Kernel version the cached result was computed at.
        version: u64,
    },
    /// A pass invalidated cached analysis results (it mutated the kernel
    /// and did not declare the analysis preserved).
    AnalysisInvalidated {
        /// Names of the analyses dropped from the cache.
        analyses: Vec<&'static str>,
        /// The pass whose run invalidated them.
        pass: &'static str,
    },
    /// A candidate evaluation was contained after a fault (panic, fuel
    /// exhaustion, or deadline overrun) instead of aborting the compile.
    CandidateFault {
        /// Candidate label, e.g. `bx8_ty4_tx1`.
        label: String,
        /// Fault description (`panic: ...`, `fuel exhausted`, ...).
        fault: String,
        /// True when the slot was retried once before being skipped.
        retried: bool,
    },
    /// §4 design space: a point's trace stopped once its partial counters
    /// proved it slower than the point probed first, so it cannot win.
    CandidatePruned {
        /// Candidate label, e.g. `bx32_ty1_tx4`.
        label: String,
        /// Lower bound on the point's time when the trace stopped, in
        /// milliseconds.
        bound_ms: f64,
        /// The probed point's time the bound exceeded, in milliseconds.
        incumbent_ms: f64,
    },
    /// The pipeline fell back to the verified naive kernel.
    Degraded {
        /// Stable degradation reason (`all-candidates-failed`,
        /// `pipeline-fault`, `pass-failure`).
        reason: String,
        /// Human-readable detail: the failure that forced the fallback.
        detail: String,
    },
    /// A sanitizer finding from a sanitize-mode simulation run (see the
    /// `gpgpu-sim` sanitizer): a race, OOB/padding access, uninitialized
    /// read, barrier divergence, or shared overflow.
    Sanitizer {
        /// Stable finding identifier (`shared-race`, `global-oob`,
        /// `padding-read`, `uninit-read`, `barrier-divergence`,
        /// `shared-overflow`).
        check: String,
        /// Array the finding refers to, when there is one.
        array: Option<String>,
        /// Which run tripped it (`naive`, or the optimized kernel name).
        run: String,
        /// Rendered finding.
        detail: String,
        /// Source location of the offending array's access, when known.
        span: Option<Span>,
    },
    /// The batch-compilation service finished one request (hit or cold).
    ServiceRequest {
        /// Request id (manifest-assigned or positional).
        id: String,
        /// Kernel name, `?` when the source never parsed.
        kernel: String,
        /// Whether the compile cache served the artifact.
        cache_hit: bool,
        /// Wall-clock microseconds from dequeue to response.
        micros: u64,
        /// Stable outcome: `ok`, `degraded`, or an error class
        /// (`parse`, `bad-request`, `compile`, `internal`, `deadline`).
        outcome: String,
    },
    /// A compile-cache state change in the batch-compilation service.
    ServiceCache {
        /// Operation: `hit`, `miss`, `store`, `evict`, `disk-hit`,
        /// `disk-store`, or `disk-error`.
        op: &'static str,
        /// The content-addressed fingerprint involved.
        fingerprint: String,
    },
    /// The persistent tuning store answered a compile's shape lookup.
    TuningLookup {
        /// The 32-hex structural shape fingerprint (see `gpgpu-tuning`).
        fingerprint: String,
        /// Outcome: `warm` (exact size point), `neighbor` (nearest other
        /// size point), `miss`, `reexplore` (periodic full-grid audit), or
        /// `disabled` (degraded store / lock contention / opted out).
        outcome: String,
        /// Seed candidate labels a warm outcome supplied (empty otherwise).
        seeds: Vec<String>,
    },
    /// The persistent tuning store recorded a compile's exploration result.
    TuningRecorded {
        /// The structural shape fingerprint recorded under.
        fingerprint: String,
        /// The winning candidate label.
        winner: String,
        /// Candidates actually evaluated by this search.
        explored: u64,
        /// Size of the full design space the search would have run cold.
        full_space: u64,
        /// True when a full-grid re-exploration beat (and replaced) the
        /// previously stored winner.
        demoted: bool,
    },
    /// A durable store (tuning store or disk compile cache) degraded to
    /// non-persistent operation.
    StoreDegraded {
        /// Which store: `tuning` or `cache`.
        store: &'static str,
        /// Why — the first I/O failure or recovery action that disabled it.
        reason: String,
    },
    /// A durable-state write failed; the result lives on in memory only.
    StoreWriteError {
        /// Which store: `tuning` or `cache`.
        store: &'static str,
        /// The failed operation and error.
        detail: String,
    },
    /// A producer→consumer kernel group was fused (`gpgpu-fusion`): the
    /// intermediate array no longer round-trips through global memory.
    Fusion {
        /// Producer kernel name.
        producer: String,
        /// Consumer kernel name.
        consumer: String,
        /// The fused kernel's name.
        kernel: String,
        /// Forwarding mode: `register` (thread-local identity mapping) or
        /// `inline` (recompute at each offset read).
        mode: String,
        /// The eliminated intermediate array.
        intermediate: String,
        /// Global-memory bytes saved per the cost model (member traffic
        /// minus fused traffic).
        bytes_saved: u64,
        /// Estimated time of the unfused member sequence, milliseconds.
        members_time_ms: f64,
        /// Estimated time of the naive fused kernel, milliseconds.
        fused_time_ms: f64,
    },
    /// A fusion group was refused; the members compile separately. Never an
    /// error: the structured reason feeds the report and the metrics.
    FusionRejected {
        /// Producer kernel name.
        producer: String,
        /// Consumer kernel name.
        consumer: String,
        /// Stable reason slug (`domain-mismatch`, `multi-consumer`,
        /// `no-dataflow`, `unsupported-mapping`, `resource-overflow`,
        /// `unprofitable`, `gsync-unsupported`, `cost-model-error`,
        /// `stage-disabled`, `verify-failed`).
        reason: String,
        /// Human-readable specifics.
        detail: String,
    },
    /// Free-form note (fallback for information with no variant yet).
    Note {
        /// The note.
        message: String,
    },
}

impl TraceEvent {
    /// The stable schema identifier of this event.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::VectorizeApplied { .. } => "vectorize",
            TraceEvent::VectorizeSkipped { .. } => "vectorize-skip",
            TraceEvent::AmdVectorizeApplied { .. } => "vectorize-amd",
            TraceEvent::AccessClassified { .. } => "access-classified",
            TraceEvent::CoalesceStaged { .. } => "coalesce-staged",
            TraceEvent::CoalesceSkippedAccess { .. } => "coalesce-skip",
            TraceEvent::CoalescePassSkipped { .. } => "coalesce-pass-skip",
            TraceEvent::ExchangeApplied { .. } => "coalesce-exchange",
            TraceEvent::BlockMerge { .. } => "block-merge",
            TraceEvent::ThreadMerge { .. } => "thread-merge",
            TraceEvent::MergeSelected { .. } => "merge-selected",
            TraceEvent::CandidateEvaluated { .. } => "candidate",
            TraceEvent::PrefetchApplied { .. } => "prefetch",
            TraceEvent::PrefetchSkipped { .. } => "prefetch-skip",
            TraceEvent::CampingFixed { .. } => "camping-fix",
            TraceEvent::CampingUnfixed { .. } => "camping-unfixed",
            TraceEvent::CampingClean => "camping-clean",
            TraceEvent::ReductionRestructured { .. } => "reduction-restructure",
            TraceEvent::PassCompleted { .. } => "pass-time",
            TraceEvent::PassSkipped { .. } => "pass-skip",
            TraceEvent::AnalysisCacheHit { .. } => "analysis-cache-hit",
            TraceEvent::AnalysisInvalidated { .. } => "analysis-invalidated",
            TraceEvent::CandidateFault { .. } => "fault",
            TraceEvent::CandidatePruned { .. } => "candidate-pruned",
            TraceEvent::Degraded { .. } => "degraded",
            TraceEvent::Sanitizer { .. } => "sanitizer",
            TraceEvent::ServiceRequest { .. } => "service-request",
            TraceEvent::ServiceCache { .. } => "service-cache",
            TraceEvent::TuningLookup { .. } => "tuning-lookup",
            TraceEvent::TuningRecorded { .. } => "tuning-recorded",
            TraceEvent::StoreDegraded { .. } => "store-degraded",
            TraceEvent::StoreWriteError { .. } => "store-write-error",
            TraceEvent::Fusion { .. } => "fusion",
            TraceEvent::FusionRejected { .. } => "fusion-rejected",
            TraceEvent::Note { .. } => "note",
        }
    }

    /// Source location the event refers to, when one was captured.
    pub fn span(&self) -> Option<Span> {
        match self {
            TraceEvent::AccessClassified { span, .. }
            | TraceEvent::CoalesceStaged { span, .. }
            | TraceEvent::CoalesceSkippedAccess { span, .. }
            | TraceEvent::Sanitizer { span, .. } => *span,
            _ => None,
        }
    }

    /// The human-readable pass-log line for this event.
    pub fn message(&self) -> String {
        match self {
            TraceEvent::VectorizeApplied { arrays, width } => {
                format!("vectorize: widened {} to float{width}", arrays.join(", "))
            }
            TraceEvent::VectorizeSkipped { reason } => {
                format!("vectorize: skipped ({reason})")
            }
            TraceEvent::AmdVectorizeApplied { width } => format!(
                "vectorize (AMD): widened every access to float{width}, {width} elements per thread"
            ),
            TraceEvent::AccessClassified {
                array,
                index,
                verdict,
                target,
                is_write,
                span,
            } => {
                let at = span.map(|s| format!(" at {s}")).unwrap_or_default();
                let dir = if *is_write { "store" } else { target.as_str() };
                format!("access: {array}{index}{at} is {verdict} ({dir})")
            }
            TraceEvent::CoalesceStaged {
                array,
                shared,
                pattern,
                span,
            } => {
                let at = span.map(|s| format!(" at {s}")).unwrap_or_default();
                format!("coalesce: staged {array}{at} through shared `{shared}` ({pattern})")
            }
            TraceEvent::CoalesceSkippedAccess { array, reason, .. } => {
                format!("coalesce: skipped {array} ({reason})")
            }
            TraceEvent::CoalescePassSkipped { reason } => {
                format!("coalesce: cannot resolve layouts ({reason}); skipped")
            }
            TraceEvent::ExchangeApplied { array } => format!(
                "coalesce: applied transpose-style idx/idy exchange of {array}, block set to 16x16"
            ),
            TraceEvent::BlockMerge {
                axis,
                factor,
                block_x,
                block_y,
            } => format!(
                "thread-block merge: {factor} blocks along {axis}, block is now {block_x}x{block_y}"
            ),
            TraceEvent::ThreadMerge {
                axis,
                factor,
                elements_per_thread,
            } => format!(
                "thread merge: {factor} threads along {axis}, each thread now computes {elements_per_thread} element(s)"
            ),
            TraceEvent::MergeSelected {
                block_merge_x,
                thread_merge_y,
                thread_merge_x,
                reduction_elems,
                time_ms,
            } => match reduction_elems {
                Some(e) => format!(
                    "design space: chose {e} elements/thread for the reduction ({time_ms:.4} ms predicted)"
                ),
                None => format!(
                    "design space: chose block-merge-x={block_merge_x}, thread-merge-y={thread_merge_y}, thread-merge-x={thread_merge_x} ({time_ms:.4} ms predicted)"
                ),
            },
            TraceEvent::CandidateEvaluated {
                label,
                time_ms,
                rejected,
                ..
            } => match rejected {
                Some(why) => format!("candidate {label}: rejected ({why})"),
                None => format!("candidate {label}: {time_ms:.4} ms predicted"),
            },
            TraceEvent::PrefetchApplied { loads } => {
                format!("prefetch: double-buffered {loads} staged load(s)")
            }
            TraceEvent::PrefetchSkipped {
                reason,
                registers_per_thread,
                register_budget,
            } => format!(
                "prefetch: skipped ({reason}: {registers_per_thread} regs/thread, budget {register_budget})"
            ),
            TraceEvent::CampingFixed { fix, arrays, detail } => {
                if detail.is_empty() {
                    format!("camping: applied {fix} fix for {}", arrays.join(", "))
                } else {
                    format!("camping: applied {fix} fix for {} ({detail})", arrays.join(", "))
                }
            }
            TraceEvent::CampingUnfixed { arrays } => {
                format!("camping: detected but not fixable for {}", arrays.join(", "))
            }
            TraceEvent::CampingClean => "camping: no partition camping detected".to_string(),
            TraceEvent::ReductionRestructured {
                elems_per_thread,
                launches,
            } => format!(
                "reduction: restructured into {launches} launches, {elems_per_thread} elements/thread"
            ),
            TraceEvent::PassCompleted { pass, micros, delta } => format!(
                "pass {pass}: {micros} µs, {:+} statement(s), {} shared bytes, ~{} registers",
                delta.statements_net(),
                delta.shared_bytes,
                delta.registers
            ),
            TraceEvent::PassSkipped { pass, reason } => {
                format!("pass {pass}: skipped ({reason})")
            }
            TraceEvent::AnalysisCacheHit { analysis, version } => {
                format!("analysis {analysis}: cache hit (kernel version {version})")
            }
            TraceEvent::AnalysisInvalidated { analyses, pass } => {
                format!("analysis cache: {} invalidated by pass {pass}", analyses.join(", "))
            }
            TraceEvent::CandidateFault { label, fault, retried } => {
                let suffix = if *retried { " after one retry" } else { "" };
                format!("candidate {label}: contained fault{suffix} ({fault})")
            }
            TraceEvent::CandidatePruned {
                label,
                bound_ms,
                incumbent_ms,
            } => format!(
                "candidate {label}: pruned (≥ {bound_ms:.4} ms, incumbent {incumbent_ms:.4} ms)"
            ),
            TraceEvent::Degraded { reason, detail } => {
                format!("degraded to naive kernel ({reason}: {detail})")
            }
            TraceEvent::Sanitizer { check, run, detail, .. } => {
                format!("sanitizer [{check}] in {run} run: {detail}")
            }
            TraceEvent::ServiceRequest {
                id,
                kernel,
                cache_hit,
                micros,
                outcome,
            } => {
                let src = if *cache_hit { "cache hit" } else { "cold" };
                format!("service: request {id} ({kernel}) {outcome} in {micros} µs ({src})")
            }
            TraceEvent::ServiceCache { op, fingerprint } => {
                format!("service cache: {op} {fingerprint}")
            }
            TraceEvent::TuningLookup {
                fingerprint,
                outcome,
                seeds,
            } => {
                if seeds.is_empty() {
                    format!("tuning store: {outcome} for shape {fingerprint}")
                } else {
                    format!(
                        "tuning store: {outcome} for shape {fingerprint} (seeds {})",
                        seeds.join(", ")
                    )
                }
            }
            TraceEvent::TuningRecorded {
                fingerprint,
                winner,
                explored,
                full_space,
                demoted,
            } => {
                let note = if *demoted { ", demoted stale winner" } else { "" };
                format!(
                    "tuning store: recorded {winner} for shape {fingerprint} \
                     ({explored}/{full_space} candidates explored{note})"
                )
            }
            TraceEvent::StoreDegraded { store, reason } => {
                format!("{store} store degraded to non-persistent operation: {reason}")
            }
            TraceEvent::StoreWriteError { store, detail } => {
                format!("{store} store write failed (kept in memory only): {detail}")
            }
            TraceEvent::Fusion {
                producer,
                consumer,
                kernel,
                mode,
                intermediate,
                bytes_saved,
                members_time_ms,
                fused_time_ms,
            } => format!(
                "fusion: {producer} → {consumer} fused as {kernel} ({mode} forwarding of \
                 {intermediate}; ~{bytes_saved} global bytes saved, {members_time_ms:.4} ms \
                 unfused vs {fused_time_ms:.4} ms fused naive)"
            ),
            TraceEvent::FusionRejected {
                producer,
                consumer,
                reason,
                detail,
            } => format!(
                "fusion: {producer} → {consumer} rejected ({reason}: {detail}); members \
                 compile separately"
            ),
            TraceEvent::Note { message } => message.clone(),
        }
    }

    /// The typed JSON payload (`gpgpu-trace/v1`).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("kind".into(), Json::str(self.kind()))];
        let mut put = |k: &str, v: Json| pairs.push((k.into(), v));
        match self {
            TraceEvent::VectorizeApplied { arrays, width } => {
                put("arrays", str_arr(arrays));
                put("width", Json::count(*width as u64));
            }
            TraceEvent::VectorizeSkipped { reason } => put("reason", Json::str(reason)),
            TraceEvent::AmdVectorizeApplied { width } => {
                put("width", Json::count(*width as u64));
            }
            TraceEvent::AccessClassified {
                array,
                index,
                verdict,
                target,
                is_write,
                span,
            } => {
                put("array", Json::str(array));
                put("index", Json::str(index));
                put("verdict", Json::str(verdict));
                put("target", Json::str(target));
                put("is_write", Json::Bool(*is_write));
                put("span", span_json(*span));
            }
            TraceEvent::CoalesceStaged {
                array,
                shared,
                pattern,
                span,
            } => {
                put("array", Json::str(array));
                put("shared", Json::str(shared));
                put("pattern", Json::str(pattern));
                put("span", span_json(*span));
            }
            TraceEvent::CoalesceSkippedAccess { array, reason, span } => {
                put("array", Json::str(array));
                put("reason", Json::str(reason));
                put("span", span_json(*span));
            }
            TraceEvent::CoalescePassSkipped { reason } => put("reason", Json::str(reason)),
            TraceEvent::ExchangeApplied { array } => put("array", Json::str(array)),
            TraceEvent::BlockMerge {
                axis,
                factor,
                block_x,
                block_y,
            } => {
                put("axis", Json::str(*axis));
                put("factor", Json::num(*factor as f64));
                put("block_x", Json::num(*block_x as f64));
                put("block_y", Json::num(*block_y as f64));
            }
            TraceEvent::ThreadMerge {
                axis,
                factor,
                elements_per_thread,
            } => {
                put("axis", Json::str(*axis));
                put("factor", Json::num(*factor as f64));
                put("elements_per_thread", Json::num(*elements_per_thread as f64));
            }
            TraceEvent::MergeSelected {
                block_merge_x,
                thread_merge_y,
                thread_merge_x,
                reduction_elems,
                time_ms,
            } => {
                put("block_merge_x", Json::num(*block_merge_x as f64));
                put("thread_merge_y", Json::num(*thread_merge_y as f64));
                put("thread_merge_x", Json::num(*thread_merge_x as f64));
                put("reduction_elems", opt_num(*reduction_elems));
                put("time_ms", Json::num(*time_ms));
            }
            TraceEvent::CandidateEvaluated {
                label,
                block_merge_x,
                thread_merge_y,
                thread_merge_x,
                reduction_elems,
                time_ms,
                rejected,
            } => {
                put("label", Json::str(label));
                put("block_merge_x", Json::num(*block_merge_x as f64));
                put("thread_merge_y", Json::num(*thread_merge_y as f64));
                put("thread_merge_x", Json::num(*thread_merge_x as f64));
                put("reduction_elems", opt_num(*reduction_elems));
                put("time_ms", Json::num(*time_ms));
                put(
                    "rejected",
                    match rejected {
                        Some(r) => Json::str(r),
                        None => Json::Null,
                    },
                );
            }
            TraceEvent::PrefetchApplied { loads } => {
                put("loads", Json::count(*loads as u64));
            }
            TraceEvent::PrefetchSkipped {
                reason,
                registers_per_thread,
                register_budget,
            } => {
                put("reason", Json::str(reason));
                put("registers_per_thread", Json::count(*registers_per_thread as u64));
                put("register_budget", Json::count(*register_budget as u64));
            }
            TraceEvent::CampingFixed { fix, arrays, detail } => {
                put("fix", Json::str(*fix));
                put("arrays", str_arr(arrays));
                put("detail", Json::str(detail));
            }
            TraceEvent::CampingUnfixed { arrays } => put("arrays", str_arr(arrays)),
            TraceEvent::CampingClean => {}
            TraceEvent::ReductionRestructured {
                elems_per_thread,
                launches,
            } => {
                put("elems_per_thread", Json::num(*elems_per_thread as f64));
                put("launches", Json::count(*launches as u64));
            }
            TraceEvent::PassCompleted { pass, micros, delta } => {
                put("pass", Json::str(*pass));
                put("micros", Json::count(*micros));
                put("delta", delta.to_json());
            }
            TraceEvent::PassSkipped { pass, reason } => {
                put("pass", Json::str(*pass));
                put("reason", Json::str(reason));
            }
            TraceEvent::AnalysisCacheHit { analysis, version } => {
                put("analysis", Json::str(*analysis));
                put("version", Json::count(*version));
            }
            TraceEvent::AnalysisInvalidated { analyses, pass } => {
                put(
                    "analyses",
                    Json::Arr(analyses.iter().map(|a| Json::str(*a)).collect()),
                );
                put("pass", Json::str(*pass));
            }
            TraceEvent::CandidateFault { label, fault, retried } => {
                put("label", Json::str(label));
                put("fault", Json::str(fault));
                put("retried", Json::Bool(*retried));
            }
            TraceEvent::CandidatePruned {
                label,
                bound_ms,
                incumbent_ms,
            } => {
                put("label", Json::str(label));
                put("bound_ms", Json::num(*bound_ms));
                put("incumbent_ms", Json::num(*incumbent_ms));
            }
            TraceEvent::Degraded { reason, detail } => {
                put("reason", Json::str(reason));
                put("detail", Json::str(detail));
            }
            TraceEvent::Sanitizer {
                check,
                array,
                run,
                detail,
                span,
            } => {
                put("check", Json::str(check));
                put(
                    "array",
                    match array {
                        Some(a) => Json::str(a),
                        None => Json::Null,
                    },
                );
                put("run", Json::str(run));
                put("detail", Json::str(detail));
                put("span", span_json(*span));
            }
            TraceEvent::ServiceRequest {
                id,
                kernel,
                cache_hit,
                micros,
                outcome,
            } => {
                put("id", Json::str(id));
                put("kernel", Json::str(kernel));
                put("cache_hit", Json::Bool(*cache_hit));
                put("micros", Json::count(*micros));
                put("outcome", Json::str(outcome));
            }
            TraceEvent::ServiceCache { op, fingerprint } => {
                put("op", Json::str(*op));
                put("fingerprint", Json::str(fingerprint));
            }
            TraceEvent::TuningLookup {
                fingerprint,
                outcome,
                seeds,
            } => {
                put("fingerprint", Json::str(fingerprint));
                put("outcome", Json::str(outcome));
                put(
                    "seeds",
                    Json::Arr(seeds.iter().map(Json::str).collect()),
                );
            }
            TraceEvent::TuningRecorded {
                fingerprint,
                winner,
                explored,
                full_space,
                demoted,
            } => {
                put("fingerprint", Json::str(fingerprint));
                put("winner", Json::str(winner));
                put("explored", Json::count(*explored));
                put("full_space", Json::count(*full_space));
                put("demoted", Json::Bool(*demoted));
            }
            TraceEvent::StoreDegraded { store, reason } => {
                put("store", Json::str(*store));
                put("reason", Json::str(reason));
            }
            TraceEvent::StoreWriteError { store, detail } => {
                put("store", Json::str(*store));
                put("detail", Json::str(detail));
            }
            TraceEvent::Fusion {
                producer,
                consumer,
                kernel,
                mode,
                intermediate,
                bytes_saved,
                members_time_ms,
                fused_time_ms,
            } => {
                put("producer", Json::str(producer));
                put("consumer", Json::str(consumer));
                put("kernel", Json::str(kernel));
                put("mode", Json::str(mode));
                put("intermediate", Json::str(intermediate));
                put("bytes_saved", Json::count(*bytes_saved));
                put("members_time_ms", Json::num(*members_time_ms));
                put("fused_time_ms", Json::num(*fused_time_ms));
            }
            TraceEvent::FusionRejected {
                producer,
                consumer,
                reason,
                detail,
            } => {
                put("producer", Json::str(producer));
                put("consumer", Json::str(consumer));
                put("reason", Json::str(reason));
                put("detail", Json::str(detail));
            }
            TraceEvent::Note { message } => put("message", Json::str(message)),
        }
        Json::Obj(pairs)
    }
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(Json::str).collect())
}

fn opt_num(v: Option<i64>) -> Json {
    match v {
        Some(n) => Json::num(n as f64),
        None => Json::Null,
    }
}

fn span_json(span: Option<Span>) -> Json {
    match span {
        Some(s) => Json::obj([
            ("line", Json::count(s.line as u64)),
            ("col", Json::count(s.col as u64)),
        ]),
        None => Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let events = [
            TraceEvent::VectorizeApplied { arrays: vec!["a".into()], width: 2 },
            TraceEvent::VectorizeSkipped { reason: "r".into() },
            TraceEvent::AmdVectorizeApplied { width: 4 },
            TraceEvent::AccessClassified {
                array: "a".into(),
                index: "[idy][i]".into(),
                verdict: "bad-offsets".into(),
                target: "G2R".into(),
                is_write: false,
                span: Some(Span::new(3, 7)),
            },
            TraceEvent::CoalesceStaged {
                array: "a".into(),
                shared: "a_seg".into(),
                pattern: "segment".into(),
                span: None,
            },
            TraceEvent::CampingClean,
            TraceEvent::PassCompleted {
                pass: "coalesce",
                micros: 12,
                delta: AstDelta::default(),
            },
            TraceEvent::PassSkipped {
                pass: "prefetch",
                reason: "no staged loads".into(),
            },
            TraceEvent::CandidateFault {
                label: "bx8_ty4_tx1".into(),
                fault: "panic: boom".into(),
                retried: true,
            },
            TraceEvent::CandidatePruned {
                label: "bx32_ty1_tx4".into(),
                bound_ms: 91.5,
                incumbent_ms: 64.6,
            },
            TraceEvent::AnalysisCacheHit {
                analysis: "accesses",
                version: 3,
            },
            TraceEvent::AnalysisInvalidated {
                analyses: vec!["layouts", "accesses"],
                pass: "merge",
            },
            TraceEvent::Degraded {
                reason: "all-candidates-failed".into(),
                detail: "every merge configuration faulted".into(),
            },
            TraceEvent::Sanitizer {
                check: "shared-race".into(),
                array: Some("s0".into()),
                run: "optimized `mm`".into(),
                detail: "write-write race on shared s0[+3]".into(),
                span: Some(Span::new(2, 11)),
            },
            TraceEvent::ServiceRequest {
                id: "r0".into(),
                kernel: "mm".into(),
                cache_hit: true,
                micros: 42,
                outcome: "ok".into(),
            },
            TraceEvent::ServiceCache {
                op: "evict",
                fingerprint: "deadbeef".into(),
            },
            TraceEvent::TuningLookup {
                fingerprint: "deadbeef".into(),
                outcome: "warm".into(),
                seeds: vec!["bx16_ty8_tx1".into()],
            },
            TraceEvent::TuningRecorded {
                fingerprint: "deadbeef".into(),
                winner: "bx16_ty8_tx1".into(),
                explored: 2,
                full_space: 20,
                demoted: false,
            },
            TraceEvent::StoreDegraded {
                store: "tuning",
                reason: "journal-append: injected ENOSPC".into(),
            },
            TraceEvent::StoreWriteError {
                store: "cache",
                detail: "disk-store: injected short write".into(),
            },
        ];
        let kinds: std::collections::HashSet<_> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), events.len());
        for e in &events {
            let json = e.to_json();
            assert_eq!(json.get("kind").and_then(Json::as_str), Some(e.kind()));
            // Serialized events parse back to the same document.
            assert_eq!(parse(&json.pretty()).unwrap(), json);
            assert!(!e.message().is_empty());
        }
    }

    #[test]
    fn span_round_trips_into_json() {
        let e = TraceEvent::AccessClassified {
            array: "b".into(),
            index: "[i][idx]".into(),
            verdict: "coalesced".into(),
            target: "G2S".into(),
            is_write: false,
            span: Some(Span::new(5, 17)),
        };
        assert_eq!(e.span(), Some(Span::new(5, 17)));
        let json = e.to_json();
        let span = json.get("span").unwrap();
        assert_eq!(span.get("line").and_then(Json::as_f64), Some(5.0));
        assert_eq!(span.get("col").and_then(Json::as_f64), Some(17.0));
        assert!(e.message().contains("5:17"), "{}", e.message());
    }

    #[test]
    fn ast_delta_reports_net_statements() {
        let d = AstDelta {
            statements_before: 4,
            statements_after: 9,
            shared_bytes: 1024,
            registers: 14,
        };
        assert_eq!(d.statements_net(), 5);
        let e = TraceEvent::PassCompleted { pass: "merge", micros: 3, delta: d };
        assert!(e.message().contains("+5 statement"), "{}", e.message());
    }
}
