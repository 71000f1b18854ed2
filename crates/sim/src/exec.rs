//! Functional SIMT interpreter.
//!
//! Kernels are executed block by block in *lock-step vector* style: each
//! statement is evaluated once, over a vector of lanes (one per thread in
//! the block), with divergence expressed as boolean masks. `__syncthreads()`
//! is then a validity check rather than an operation — if it is reached with
//! a divergent mask the kernel is broken, which the interpreter reports.
//!
//! A launch runs in two stages. Lowering (`lower.rs`) resolves the kernel
//! once into a slot-indexed program; the block executor here runs it with
//! every lane vector, mask and index buffer in arenas it reuses across
//! statements, iterations and blocks. Values that are the same for every
//! lane (loop counters, bound scalars, uniform subscripts, loads from
//! address-only buffers) are computed once per warp-step, not per lane.
//!
//! What a launch observes is fixed (`tests/exec_golden.rs` pins it):
//! operands evaluate left before right, subscripts in order, the
//! right-hand side before the left-hand subscripts; every access runs
//! sanitize → trace → data; each statement and each loop iteration costs
//! one step; values are dynamically typed — an operation is floating
//! point, and counts as a flop, when either operand is a float at run time.
//!
//! Kernels using the grid-wide `__gsync()` barrier of naive reduction
//! kernels run in *mega-block* mode: the whole grid is one lane vector.
//!
//! Besides computing results (used to verify that optimized kernels are
//! semantics-preserving), the interpreter traces memory behaviour: global
//! transactions at 32-byte-line granularity, the partition each line lands
//! in, shared-memory bank conflicts, and issued warp instructions. The
//! timing model consumes these traces.

use crate::device::{Device, DeviceError};
use crate::lower::{lower, AffineExpr, ArrayRef, Expr, Global, Loop, Place, Program, Stmt};
use crate::sanitize::{SanitizerError, SanitizerKind, ShadowCell};
use crate::value::Val;
use gpgpu_analysis::Bindings;
use gpgpu_ast::{AccessSpans, BinOp, Kernel, LaunchConfig, ScalarType, UnOp};
use std::fmt;

/// Per-block statement-execution cap (runaway-loop guard).
const STEP_LIMIT: u64 = 500_000_000;

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Execute only the first `n` blocks (row-major over the grid) — the
    /// timing model samples a handful of consecutive blocks and
    /// extrapolates. `None` executes the whole grid.
    pub sample_blocks: Option<usize>,
    /// Cap top-level loops at this many iterations, recording the
    /// truncation factor in [`ExecStats::loop_truncation`]. Only uniform
    /// counted loops (`+= k` with lane-invariant bounds) are truncated;
    /// correctness runs must leave this `None`.
    pub max_outer_iters: Option<u64>,
    /// Spread the sampled blocks over this many *concurrently resident*
    /// blocks (SMs × blocks/SM) instead of taking consecutive ones — the
    /// partition behaviour of the concurrent population is what matters.
    /// `None` samples consecutive blocks.
    pub sample_spread: Option<u64>,
    /// Per-launch fuel budget: interpreter steps before the run is cut off
    /// with [`ExecError::IterationLimit`]. `None` uses the built-in step
    /// limit. Design-space exploration sets this to contain runaway
    /// candidates.
    pub fuel: Option<u64>,
    /// Wall-clock deadline; execution past it fails with
    /// [`ExecError::DeadlineExceeded`]. Checked every few thousand steps,
    /// so overruns are bounded but not exact.
    pub deadline: Option<std::time::Instant>,
    /// Sanitize mode: track per-cell shadow state and fail with
    /// [`ExecError::Sanitizer`] on out-of-bounds or padding accesses,
    /// uninitialized reads, intra-block shared-memory races, barrier
    /// divergence, and shared-memory overflow. See [`crate::sanitize`].
    pub sanitize: bool,
    /// Source spans of each array's first subscripted access in the
    /// original kernel; sanitizer findings about an array carry its span.
    pub spans: AccessSpans,
    /// Simulate the executed blocks on this many worker threads
    /// ("block clusters", after the SM clusters of hardware simulators).
    /// `0` or `1` runs serially. Blocks are independent up to inter-block
    /// write conflicts (data races in the source program), so the parallel
    /// run is serial-equivalent: per-cluster statistics merge by addition,
    /// the lockstep partition timeline merges element-wise, and each
    /// cluster's buffer writes are folded back in cluster order.
    /// Sanitize and mega-block (`__gsync`) runs ignore this and stay
    /// serial.
    pub block_clusters: usize,
    /// Stop a sampled timing trace with [`ExecError::OverBudget`] as soon
    /// as its partial counters prove the launch's time exceeds a limit.
    /// Set by the timing model only; see [`ExecBudget`].
    pub budget: Option<ExecBudget>,
}

/// A time limit for a sampled timing trace, expressed over the counters the
/// trace accumulates.
///
/// The interpreter extrapolates its counters so far to the whole launch,
/// exactly as [`ExecStats::scaled`] will extrapolate the final ones, and
/// bounds the launch's time from below by `base_ms` plus the largest of
/// warp instructions, global bytes and half-warp requests times their
/// per-unit cost. Counters and the loop-truncation factor only grow during
/// a run, so a bound reached mid-trace never exceeds the finished trace's.
/// It is checked at the deadline poll and after every block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecBudget {
    /// Milliseconds the bound may reach before the run stops.
    pub limit_ms: f64,
    /// Milliseconds every launch costs regardless of its counters.
    pub base_ms: f64,
    /// Milliseconds per extrapolated warp instruction.
    pub ms_per_warp_inst: f64,
    /// Milliseconds per extrapolated global byte (0 ignores the counter).
    pub ms_per_global_byte: f64,
    /// Milliseconds per extrapolated half-warp request (0 ignores it).
    pub ms_per_gmem_request: f64,
}

impl ExecBudget {
    /// The bound `stats` proves, when it exceeds the limit.
    fn exceeded(&self, stats: &ExecStats) -> Option<f64> {
        let factor = stats.extrapolation();
        let whole = |v: u64| extrapolate(v, factor) as f64;
        let bound = self.base_ms
            + (whole(stats.warp_insts) * self.ms_per_warp_inst)
                .max(whole(stats.global_bytes) * self.ms_per_global_byte)
                .max(whole(stats.gmem_requests) * self.ms_per_gmem_request);
        (bound > self.limit_ms).then_some(bound)
    }
}

/// One extensive counter extrapolated by `factor`, rounded the way
/// [`ExecStats::scaled`] rounds.
fn extrapolate(v: u64, factor: f64) -> u64 {
    (v as f64 * factor).round() as u64
}

/// Counters collected during execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStats {
    /// Blocks actually executed.
    pub blocks_executed: u64,
    /// Blocks in the launch.
    pub total_blocks: u64,
    /// Warp-instruction issues (lock-step statements × active warps).
    pub warp_insts: u64,
    /// Floating-point operations executed (active lanes).
    pub flops: u64,
    /// Global-memory transactions (distinct 32-byte lines per half-warp
    /// access).
    pub global_transactions: u64,
    /// Bytes moved by those transactions.
    pub global_bytes: u64,
    /// Bytes the lanes actually consumed (coalescing efficiency =
    /// useful / moved).
    pub useful_bytes: u64,
    /// Half-warp global requests issued.
    pub gmem_requests: u64,
    /// Transactions per memory partition (whole-run aggregate).
    pub partition_hits: Vec<u64>,
    /// Lockstep partition timeline: entry `t` histograms the partitions hit
    /// by the `t`-th half-warp request of every sampled block. Blocks run
    /// the same code, so requests with equal in-block issue index are
    /// concurrent on real hardware — camping shows up as single-partition
    /// spikes here even though the aggregate histogram looks even.
    pub partition_timeline: Vec<Vec<u32>>,
    /// Half-warp shared-memory accesses.
    pub shared_accesses: u64,
    /// Extra cycles serialized by shared-memory bank conflicts.
    pub shared_conflict_cycles: u64,
    /// Factor by which top-level loops were truncated (1.0 = full run);
    /// extensive counters must be multiplied by this to extrapolate.
    pub loop_truncation: f64,
    /// Dynamic `__gsync()` crossings: on real hardware each one is a kernel
    /// relaunch, so the timing model charges launch overhead per crossing.
    pub gsync_crossings: u64,
}

impl Default for ExecStats {
    fn default() -> Self {
        ExecStats {
            blocks_executed: 0,
            total_blocks: 0,
            warp_insts: 0,
            flops: 0,
            global_transactions: 0,
            global_bytes: 0,
            useful_bytes: 0,
            gmem_requests: 0,
            partition_hits: Vec::new(),
            partition_timeline: Vec::new(),
            shared_accesses: 0,
            shared_conflict_cycles: 0,
            loop_truncation: 1.0,
            gsync_crossings: 0,
        }
    }
}

impl ExecStats {
    /// Coalescing efficiency in (0, 1]: useful bytes over moved bytes.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.global_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.global_bytes as f64
        }
    }

    /// Ratio of the hottest partition's *concurrent* load to the average
    /// (1.0 = even), computed over windows of the lockstep timeline and
    /// weighted by traffic.
    ///
    /// The memory system keeps a reorder window of outstanding requests, so
    /// short-period partition rotations (a streaming copy) even out, while
    /// genuine camping — long runs pinned to one partition, as in row walks
    /// whose stride resonates with the partition period — stays visible.
    /// Values approach the partition count under full camping.
    pub fn partition_imbalance(&self) -> f64 {
        /// Requests the memory system can overlap and reorder.
        const WINDOW: usize = 64;
        let nparts = self
            .partition_timeline
            .first()
            .map(|h| h.len())
            .unwrap_or(0);
        if nparts == 0 {
            return 1.0;
        }
        let mut sum_max = 0.0f64;
        let mut sum_avg = 0.0f64;
        for chunk in self.partition_timeline.chunks(WINDOW) {
            let mut hist = vec![0u64; nparts];
            for step in chunk {
                for (p, &v) in step.iter().enumerate() {
                    hist[p] += v as u64;
                }
            }
            let total: u64 = hist.iter().sum();
            if total == 0 {
                continue;
            }
            sum_max += hist.iter().copied().max().unwrap_or(0) as f64;
            sum_avg += total as f64 / nparts as f64;
        }
        if sum_avg == 0.0 {
            1.0
        } else {
            sum_max / sum_avg
        }
    }

    /// The factor extrapolating this sampled trace to the full launch:
    /// sampled blocks to all blocks, times the loop truncation.
    pub(crate) fn extrapolation(&self) -> f64 {
        let block_factor = if self.blocks_executed == 0 {
            1.0
        } else {
            self.total_blocks as f64 / self.blocks_executed as f64
        };
        block_factor * self.loop_truncation
    }

    /// Scales the extensive counters by `factor` (extrapolating a sampled
    /// trace to the full launch).
    pub fn scaled(&self, factor: f64) -> ExecStats {
        let s = |v: u64| extrapolate(v, factor);
        ExecStats {
            blocks_executed: self.blocks_executed,
            total_blocks: self.total_blocks,
            warp_insts: s(self.warp_insts),
            flops: s(self.flops),
            global_transactions: s(self.global_transactions),
            global_bytes: s(self.global_bytes),
            useful_bytes: s(self.useful_bytes),
            gmem_requests: s(self.gmem_requests),
            partition_hits: self.partition_hits.iter().map(|&v| s(v)).collect(),
            // Intensive measure: scaling the launch does not change the
            // concurrent distribution.
            partition_timeline: self.partition_timeline.clone(),
            shared_accesses: s(self.shared_accesses),
            shared_conflict_cycles: s(self.shared_conflict_cycles),
            loop_truncation: self.loop_truncation,
            // Crossings grow with log(problem size), not linearly; the
            // caller adjusts them when extrapolating a shrunk trace.
            gsync_crossings: self.gsync_crossings,
        }
    }
}

/// One global-memory transaction observed by the interpreter: a 32-byte
/// line moved on behalf of a half-warp request. The stream of these events
/// is what the trace-driven memory-hierarchy model
/// ([`crate::mem::HierarchySim`]) replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// 32-byte line index (byte address / 32). Addresses come from the
    /// phantom-buffer base-address machinery, so lines are unique across
    /// arrays without any data being stored.
    pub line: i64,
    /// Whether the transaction was a store (assignment) rather than a load.
    pub write: bool,
    /// SM the issuing block is resident on (blocks are laid round-robin
    /// over `MachineDesc::sm_count`).
    pub sm: u32,
    /// In-block issue index of the half-warp request. Blocks run the same
    /// code in lockstep, so events with equal ticks are concurrent on real
    /// hardware; the hierarchy model uses this for MSHR merging windows and
    /// partition-queue depth.
    pub tick: u64,
}

/// Receives the global-memory transaction stream during a launch.
///
/// The interpreter calls [`MemSink::record`] once per 32-byte line of every
/// traced half-warp access, in issue order. Sinks must be cheap: the
/// default [`NullSink`] makes tracing free for correctness runs.
pub trait MemSink {
    /// Records one transaction.
    fn record(&mut self, ev: MemEvent);
}

/// Discards every event — the default sink for correctness and
/// analytic-model runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl MemSink for NullSink {
    fn record(&mut self, _ev: MemEvent) {}
}

/// Buffers the transaction stream in memory for later replay into a
/// hierarchy simulator.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The recorded transactions, in issue order.
    pub events: Vec<MemEvent>,
}

impl MemSink for VecSink {
    fn record(&mut self, ev: MemEvent) {
        self.events.push(ev);
    }
}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A device-memory fault.
    Device(DeviceError),
    /// A scalar parameter had no binding.
    UnboundScalar(String),
    /// A variable was read before being declared.
    UndefinedVar(String),
    /// `__syncthreads()` reached with a divergent mask.
    DivergentSync,
    /// `__gsync()` outside mega-block mode, or shared memory inside it.
    BarrierMisuse(String),
    /// Expression or statement outside the supported fragment.
    Unsupported(String),
    /// The step limit was exceeded (runaway loop).
    IterationLimit,
    /// The wall-clock deadline passed (see [`ExecOptions::deadline`]).
    DeadlineExceeded,
    /// The partial counters proved the launch slower than
    /// [`ExecOptions::budget`] allows; carries the bound reached, in
    /// milliseconds. Not a fault: the trace was stopped on purpose.
    OverBudget(f64),
    /// A sanitizer check failed (only with [`ExecOptions::sanitize`]).
    Sanitizer(SanitizerError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Device(e) => write!(f, "{e}"),
            ExecError::UnboundScalar(s) => write!(f, "unbound scalar parameter `{s}`"),
            ExecError::UndefinedVar(s) => write!(f, "undefined variable `{s}`"),
            ExecError::DivergentSync => f.write_str("__syncthreads() under divergent mask"),
            ExecError::BarrierMisuse(s) => write!(f, "barrier misuse: {s}"),
            ExecError::Unsupported(s) => write!(f, "unsupported construct: {s}"),
            ExecError::IterationLimit => f.write_str("statement step limit exceeded"),
            ExecError::DeadlineExceeded => f.write_str("wall-clock deadline exceeded"),
            ExecError::OverBudget(bound) => write!(f, "over budget: ≥ {bound:.4} ms"),
            ExecError::Sanitizer(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DeviceError> for ExecError {
    fn from(e: DeviceError) -> Self {
        ExecError::Device(e)
    }
}

impl From<SanitizerError> for ExecError {
    fn from(e: SanitizerError) -> Self {
        ExecError::Sanitizer(e)
    }
}

/// Runs `$body` for every active lane `$l` of `$mask`.
macro_rules! lanes {
    ($mask:expr, $l:ident, $body:block) => {{
        let mask: &Mask = $mask;
        if mask.full() {
            #[allow(clippy::needless_range_loop)]
            for $l in 0..mask.bits.len() $body
        } else {
            #[allow(clippy::needless_range_loop)]
            for $l in 0..mask.bits.len() {
                if mask.bits[$l] $body
            }
        }
    }};
}

/// Executes a kernel launch on the device.
///
/// Scalar parameters are bound from `bindings`; array parameters must have
/// matching allocations in `device`. The kernel is lowered once and the
/// lowered program is run block by block.
///
/// # Errors
///
/// Returns an [`ExecError`] on memory faults, divergence violations, or
/// unsupported constructs — all of which indicate a compiler bug when they
/// occur on generated code.
pub fn launch(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    device: &mut Device,
    opts: &ExecOptions,
) -> Result<ExecStats, ExecError> {
    execute(
        &lower(kernel, cfg, bindings, device)?,
        device,
        opts,
        &mut NullSink,
    )
}

/// [`launch`], but streaming every global-memory transaction into `sink`.
///
/// The transaction stream drives the trace-based memory-hierarchy timing
/// model ([`crate::mem`]); correctness-only callers use [`launch`], which
/// discards the stream. Events arrive in block execution order (cluster
/// order under [`ExecOptions::block_clusters`], which is the same order the
/// serial run would produce).
///
/// # Errors
///
/// Same contract as [`launch`].
pub fn launch_with_sink(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    device: &mut Device,
    opts: &ExecOptions,
    sink: &mut dyn MemSink,
) -> Result<ExecStats, ExecError> {
    execute(&lower(kernel, cfg, bindings, device)?, device, opts, sink)
}

/// Runs a lowered program over the launch's (sampled) blocks.
pub(crate) fn execute<S: MemSink + ?Sized>(
    program: &Program,
    device: &mut Device,
    opts: &ExecOptions,
    sink: &mut S,
) -> Result<ExecStats, ExecError> {
    let total = program.cfg.total_blocks();
    let limit = opts.sample_blocks.map(|n| n as u64).unwrap_or(total);
    // When sampling, stride the chosen blocks across the concurrently
    // resident population so partition statistics reflect what actually
    // runs together on the machine.
    let stride = match (opts.sample_blocks, opts.sample_spread) {
        (Some(k), Some(spread)) if k > 0 => {
            // Odd strides cannot alias with the (even) partition counts,
            // which would make block-id-dependent fixes look useless.
            ((spread.min(total) / k as u64).max(1)) | 1
        }
        _ => 1,
    };
    let blocks: Vec<u64> = if program.mega {
        vec![0] // the whole grid is one lane vector
    } else {
        (0..total)
            .step_by(stride as usize)
            .take(limit.min(total) as usize)
            .collect()
    };
    // Every cluster's statistics carry the launch's block counts, so a
    // budget check on a cluster's partial counters extrapolates them alike.
    let empty_stats = |device: &Device| ExecStats {
        partition_hits: vec![0; device.machine.partitions.count as usize],
        total_blocks: total,
        blocks_executed: if program.mega {
            total
        } else {
            blocks.len() as u64
        },
        ..ExecStats::default()
    };
    let mut stats = empty_stats(device);

    // Sanitize runs stay serial: the shadow-state machinery assumes the
    // serial block order when attributing first-fault blame.
    let clusters = if opts.sanitize || program.mega {
        1
    } else {
        opts.block_clusters.clamp(1, blocks.len().max(1))
    };
    if clusters <= 1 {
        run_blocks(program, device, opts, &blocks, &mut stats, sink)?;
        return Ok(stats);
    }

    // Parallel path: split the block list contiguously into clusters, run
    // each on its own thread against a private clone of the device, then
    // merge in cluster order. Blocks are independent up to inter-block
    // write conflicts (already data races in the source program), so the
    // merge is serial-equivalent: each cluster's writes are detected by
    // comparing against the pre-fork snapshot and folded back in order.
    let chunk = blocks.len().div_ceil(clusters);
    let snapshot: Device = device.clone();
    type ClusterRun = Result<(Device, ExecStats, Vec<MemEvent>), ExecError>;
    let results: Vec<ClusterRun> = std::thread::scope(|scope| {
        let snapshot_ref = &snapshot;
        let handles: Vec<_> = blocks
            .chunks(chunk)
            .map(|span| {
                scope.spawn(move || {
                    let mut dev = snapshot_ref.clone();
                    let mut local = empty_stats(&dev);
                    let mut events = VecSink::default();
                    let sink: &mut dyn MemSink = &mut events;
                    run_blocks(program, &mut dev, opts, span, &mut local, sink)?;
                    Ok((dev, local, events.events))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    for result in results {
        let (dev, local, events) = result?;
        device.merge_writes(&snapshot, &dev);
        merge_stats(&mut stats, local);
        for ev in events {
            sink.record(ev);
        }
    }
    Ok(stats)
}

/// Executes thread blocks (by linear grid index) in one block context,
/// accumulating into `stats` and `sink`. The sanitizer and the sink are
/// picked here, once: the context is monomorphized over both.
fn run_blocks<S: MemSink + ?Sized>(
    program: &Program,
    device: &mut Device,
    opts: &ExecOptions,
    blocks: &[u64],
    stats: &mut ExecStats,
    sink: &mut S,
) -> Result<(), ExecError> {
    if opts.sanitize {
        BlockCtx::<S, true>::new(program, device, opts, stats, sink).run(blocks)
    } else {
        BlockCtx::<S, false>::new(program, device, opts, stats, sink).run(blocks)
    }
}

/// Folds one cluster's statistics into the launch totals. Extensive
/// counters add; the lockstep partition timeline adds element-wise (every
/// block restarts its request index at zero, so equal ticks are concurrent
/// regardless of which cluster ran the block); `loop_truncation` is a
/// per-block factor and identical across clusters, so `max` keeps it.
fn merge_stats(into: &mut ExecStats, from: ExecStats) {
    into.warp_insts += from.warp_insts;
    into.flops += from.flops;
    into.global_transactions += from.global_transactions;
    into.global_bytes += from.global_bytes;
    into.useful_bytes += from.useful_bytes;
    into.gmem_requests += from.gmem_requests;
    for (a, b) in into.partition_hits.iter_mut().zip(&from.partition_hits) {
        *a += b;
    }
    if into.partition_timeline.len() < from.partition_timeline.len() {
        let nparts = from.partition_timeline.first().map_or(0, |h| h.len());
        into.partition_timeline
            .resize(from.partition_timeline.len(), vec![0; nparts]);
    }
    for (ours, theirs) in into
        .partition_timeline
        .iter_mut()
        .zip(&from.partition_timeline)
    {
        for (a, b) in ours.iter_mut().zip(theirs) {
            *a += b;
        }
    }
    into.shared_accesses += from.shared_accesses;
    into.shared_conflict_cycles += from.shared_conflict_cycles;
    into.loop_truncation = into.loop_truncation.max(from.loop_truncation);
    into.gsync_crossings += from.gsync_crossings;
}

/// Length cap for the lockstep partition timeline (long loops wrap; the
/// access pattern is periodic so aliasing is harmless).
const TIMELINE_CAP: usize = 16384;

/// How often (in steps) the deadline is polled — a wall-clock read per
/// step would dominate the interpreter.
const DEADLINE_POLL_MASK: u64 = 4095;

/// Mask slot of "every lane" and of "no lane"; refined masks stack above.
const FULL: usize = 0;
const NONE: usize = 1;

/// What a lane column holds: one value for every lane, integer lanes, or
/// dynamically typed lanes (floats, vectors, ints mixed with floats).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    U(Val),
    I,
    V,
}

impl Kind {
    /// The lane kind a column of this kind materializes to.
    fn lanes(self) -> Kind {
        match self {
            Kind::U(Val::I(_)) | Kind::I => Kind::I,
            _ => Kind::V,
        }
    }
}

/// One lane vector of the arena: a variable or an expression temporary.
/// Each backing vector is sized on first use and kept, so a column that
/// has held a kind once never allocates for it again.
#[derive(Debug)]
struct Col {
    kind: Kind,
    i: Vec<i64>,
    v: Vec<Val>,
}

impl Default for Col {
    fn default() -> Col {
        Col {
            kind: Kind::U(Val::I(0)),
            i: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Col {
    /// Switches to `kind` with `nt` lanes of backing store.
    fn begin(&mut self, kind: Kind, nt: usize) {
        self.kind = kind;
        match kind {
            Kind::I => self.i.resize(nt, 0),
            Kind::V => self.v.resize(nt, Val::I(0)),
            Kind::U(_) => {}
        }
    }

    fn view(&self) -> View<'_> {
        match self.kind {
            Kind::U(v) => View::U(v),
            Kind::I => View::I(&self.i),
            Kind::V => View::V(&self.v),
        }
    }

    /// Stores `v` into lane `l`. An integer column only ever receives
    /// integers (its kind follows from the operand kinds).
    #[inline]
    fn set(&mut self, l: usize, v: Val) {
        match self.kind {
            Kind::I => self.i[l] = v.as_i().unwrap_or(0),
            Kind::V => self.v[l] = v,
            Kind::U(_) => {}
        }
    }

    /// Re-represents the current contents as lanes of `kind`.
    fn materialize(&mut self, kind: Kind, nt: usize) {
        let old = std::mem::replace(&mut self.kind, kind);
        if old == kind {
            return;
        }
        self.begin(kind, nt);
        for l in 0..nt {
            let v = match old {
                Kind::U(v) => v,
                Kind::I => Val::I(self.i[l]),
                Kind::V => self.v[l],
            };
            self.set(l, v);
        }
    }

    /// `self[lane] = src[lane]` for the lanes of `mask`.
    fn assign(&mut self, src: View<'_>, mask: &Mask, nt: usize) {
        match src {
            // Rewriting a uniform with its own bit pattern changes nothing.
            View::U(new) if matches!(self.kind, Kind::U(old) if same_bits(old, new)) => {}
            View::U(v) if mask.full() => self.kind = Kind::U(v),
            View::I(s) if mask.full() => {
                self.begin(Kind::I, nt);
                self.i.copy_from_slice(s);
            }
            View::V(s) if mask.full() => {
                self.begin(Kind::V, nt);
                self.v.copy_from_slice(s);
            }
            _ => {
                let both_int = self.kind.lanes() == Kind::I && src.kind().lanes() == Kind::I;
                self.materialize(if both_int { Kind::I } else { Kind::V }, nt);
                lanes!(mask, l, { self.set(l, src.val(l)) });
            }
        }
    }
}

fn same_bits(a: Val, b: Val) -> bool {
    match (a, b) {
        (Val::I(x), Val::I(y)) => x == y,
        (Val::F(x), Val::F(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// A borrowed lane vector.
#[derive(Debug, Clone, Copy)]
enum View<'a> {
    U(Val),
    I(&'a [i64]),
    V(&'a [Val]),
}

impl View<'_> {
    #[inline]
    fn val(self, l: usize) -> Val {
        match self {
            View::U(v) => v,
            View::I(s) => Val::I(s[l]),
            View::V(s) => s[l],
        }
    }

    fn kind(self) -> Kind {
        match self {
            View::U(v) => Kind::U(v),
            View::I(_) => Kind::I,
            View::V(_) => Kind::V,
        }
    }

    /// Subscript value of lane `l` (floats truncate, vectors read as 0).
    #[inline]
    fn index(self, l: usize) -> i64 {
        self.val(l).as_i().unwrap_or(0)
    }
}

/// Where an evaluated expression's lanes are: a temporary at an expression
/// depth, a variable's own column (reads copy nothing), or one value for
/// every lane.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Temp(usize),
    Var(usize),
    Uni(Val),
}

/// The lanes at `loc`. Borrows only the two arenas, so callers can hold
/// other fields of the context mutably.
fn view_of<'c>(temps: &'c [Col], vars: &'c [Col], loc: Loc) -> View<'c> {
    match loc {
        Loc::Temp(d) => temps[d].view(),
        Loc::Var(slot) => vars[slot].view(),
        Loc::Uni(v) => View::U(v),
    }
}

/// A divergence mask with its population counts.
#[derive(Debug, Default)]
struct Mask {
    bits: Vec<bool>,
    /// Active lanes.
    active: usize,
    /// 32-lane warps with at least one active lane.
    warps: u64,
}

impl Mask {
    fn uniform(nt: usize, on: bool) -> Mask {
        let mut mask = Mask {
            bits: vec![on; nt],
            ..Mask::default()
        };
        mask.count();
        mask
    }

    fn count(&mut self) {
        self.active = self.bits.iter().filter(|&&b| b).count();
        self.warps = self.bits.chunks(32).filter(|c| c.contains(&true)).count() as u64;
    }

    fn full(&self) -> bool {
        self.active == self.bits.len()
    }

    fn first(&self) -> Option<usize> {
        self.bits.iter().position(|&b| b)
    }
}

/// A block-private shared-memory array; `dims`/`strides` are those of the
/// declaration that last executed.
#[derive(Debug, Default)]
struct SharedBuf {
    declared: bool,
    dims: Vec<i64>,
    strides: Vec<i64>,
    data: Vec<f32>,
    /// Per-cell shadow state (sanitize only).
    shadow: Vec<ShadowCell>,
}

/// The memory space a subscripted name resolved to.
#[derive(Clone, Copy)]
enum Space {
    Shared(usize),
    Global(usize),
}

/// One vector access in flight.
#[derive(Clone, Copy)]
struct Access<'p> {
    array: &'p ArrayRef,
    /// Where the evaluated subscripts start on the subscript stack.
    base: usize,
    rank: usize,
    m: usize,
    write: bool,
    /// The element offset, when every subscript is uniform; per-lane
    /// offsets are in the context's `offs` otherwise.
    uniform: Option<i64>,
    /// The first active lane with a subscript out of bounds.
    bad: Option<usize>,
}

/// Calls `f` with the element offsets of each half warp's active lanes, in
/// lane order; stops with `Err` when it reaches the lane `acc.bad`.
fn half_warps(
    bits: &[bool],
    offs: &[i64],
    acc: Access<'_>,
    mut f: impl FnMut(&[i64]),
) -> Result<(), usize> {
    for start in (0..bits.len()).step_by(16) {
        let (mut chunk, mut n) = ([0i64; 16], 0);
        for l in (start..(start + 16).min(bits.len())).filter(|&l| bits[l]) {
            if acc.bad == Some(l) {
                return Err(l);
            }
            chunk[n] = acc.uniform.unwrap_or(offs[l]);
            n += 1;
        }
        if n > 0 {
            f(&chunk[..n]);
        }
    }
    Ok(())
}

/// Wraps a sanitizer finding, attaching the source span of the array it
/// refers to when the caller supplied one.
fn sanitizer_err(spans: &AccessSpans, kind: SanitizerKind) -> ExecError {
    let span = kind.array().and_then(|a| spans.get(a)).copied();
    ExecError::Sanitizer(SanitizerError { kind, span })
}

fn unsupported(what: &str) -> ExecError {
    ExecError::Unsupported(what.into())
}

/// Execution state of one block cluster. Lane values, masks, subscript
/// locations and element offsets live in arenas owned here and are reused
/// across statements, loop iterations and blocks: once the first block has
/// sized them, executing allocates nothing.
struct BlockCtx<'a, S: MemSink + ?Sized, const SAN: bool> {
    p: &'a Program,
    device: &'a mut Device,
    stats: &'a mut ExecStats,
    sink: &'a mut S,
    /// Array access spans for sanitizer findings.
    spans: &'a AccessSpans,
    nt: usize,
    /// Variable columns by slot, and whether each slot's declaration has
    /// executed in this block.
    vars: Vec<Col>,
    defined: Vec<bool>,
    /// Expression temporaries by expression depth.
    temps: Vec<Col>,
    /// [`FULL`], [`NONE`], then the refinements of the enclosing
    /// `if`/`for`/`?:` constructs up to `mask_top`.
    masks: Vec<Mask>,
    mask_top: usize,
    /// Stack of evaluated subscripts of the accesses in flight.
    locs: Vec<Loc>,
    /// Linearized element offset per lane of the access in flight.
    offs: Vec<i64>,
    shared: Vec<SharedBuf>,
    block: (i64, i64),
    /// SM this block is resident on (stamped into [`MemEvent`]s).
    sm_id: u32,
    steps: u64,
    request_ix: usize,
    depth: u32,
    /// Barrier epoch: incremented at every uniform barrier; shared-memory
    /// accesses in the same epoch by different lanes race when one writes.
    epoch: u32,
    /// Cumulative `__shared__` bytes declared by this block.
    shared_bytes: u64,
    max_outer_iters: Option<u64>,
    /// Effective fuel budget: `min(STEP_LIMIT, ExecOptions::fuel)`.
    step_limit: u64,
    deadline: Option<std::time::Instant>,
    budget: Option<ExecBudget>,
}

impl<'a, S: MemSink + ?Sized, const SAN: bool> BlockCtx<'a, S, SAN> {
    fn new(
        p: &'a Program,
        device: &'a mut Device,
        opts: &'a ExecOptions,
        stats: &'a mut ExecStats,
        sink: &'a mut S,
    ) -> Self {
        let columns = |n| std::iter::repeat_with(Col::default).take(n).collect();
        BlockCtx {
            p,
            device,
            stats,
            sink,
            spans: &opts.spans,
            nt: p.nt,
            vars: columns(p.vars.len()),
            defined: vec![false; p.vars.len()],
            temps: columns(0),
            masks: vec![Mask::uniform(p.nt, true), Mask::uniform(p.nt, false)],
            mask_top: 2,
            locs: Vec::new(),
            offs: vec![0; p.nt],
            shared: (0..p.shared.len()).map(|_| SharedBuf::default()).collect(),
            block: (0, 0),
            sm_id: 0,
            steps: 0,
            request_ix: 0,
            depth: 0,
            epoch: 0,
            shared_bytes: 0,
            max_outer_iters: opts.max_outer_iters,
            step_limit: opts.fuel.map_or(STEP_LIMIT, |f| f.min(STEP_LIMIT)),
            deadline: opts.deadline,
            budget: opts.budget,
        }
    }

    fn run(mut self, blocks: &[u64]) -> Result<(), ExecError> {
        let p = self.p;
        let grid_x = p.cfg.grid_x as u64;
        for &linear in blocks {
            self.block = ((linear % grid_x) as i64, (linear / grid_x) as i64);
            self.sm_id = (linear % self.device.machine.sm_count.max(1) as u64) as u32;
            self.defined.fill(false);
            self.shared.iter_mut().for_each(|s| s.declared = false);
            (self.steps, self.request_ix, self.epoch, self.shared_bytes) = (0, 0, 0, 0);
            self.exec_body(&p.body, FULL)?;
            self.check_budget()?;
        }
        Ok(())
    }

    fn step(&mut self) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(ExecError::IterationLimit);
        }
        if self.steps & DEADLINE_POLL_MASK == 0 {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(ExecError::DeadlineExceeded);
                }
            }
            self.check_budget()?;
        }
        Ok(())
    }

    fn check_budget(&self) -> Result<(), ExecError> {
        match self.budget.and_then(|b| b.exceeded(self.stats)) {
            Some(bound) => Err(ExecError::OverBudget(bound)),
            None => Ok(()),
        }
    }

    /// Takes the temporary at depth `d` out of the arena for writing lanes
    /// of `kind`; [`Self::put`] returns it.
    fn temp(&mut self, d: usize, kind: Kind) -> Col {
        if self.temps.len() <= d {
            self.temps.resize_with(d + 1, Col::default);
        }
        let mut col = std::mem::take(&mut self.temps[d]);
        col.begin(kind, self.nt);
        col
    }

    fn put(&mut self, d: usize, col: Col) -> Loc {
        self.temps[d] = col;
        Loc::Temp(d)
    }

    fn view(&self, loc: Loc) -> View<'_> {
        view_of(&self.temps, &self.vars, loc)
    }

    /// The views of up to three operands (absent ones read as uniform 0).
    fn views(&self, args: &[Loc]) -> [View<'_>; 3] {
        let mut views = [View::U(Val::I(0)); 3];
        for (view, &loc) in views.iter_mut().zip(args) {
            *view = self.view(loc);
        }
        views
    }

    /// The masks of a two-way branch on predicate `c` under mask `m`:
    /// (taken, not taken). A uniform predicate refines nothing; [`NONE`]
    /// stands in for a side nobody takes, or that the caller does not need
    /// (`both` false). The caller pops what this pushes.
    fn split(&mut self, m: usize, c: Loc, both: bool) -> (usize, usize) {
        match self.view(c) {
            View::U(v) if v.is_true() => (m, NONE),
            View::U(_) => (NONE, m),
            _ if both => (self.refine(m, c, false), self.refine(m, c, true)),
            _ => (self.refine(m, c, false), NONE),
        }
    }

    /// Pushes `parent ∧ (cond != negate)` on the mask stack.
    fn refine(&mut self, parent: usize, cond: Loc, negate: bool) -> usize {
        let top = self.mask_top;
        if self.masks.len() <= top {
            self.masks.push(Mask::uniform(self.nt, false));
        }
        let mut mask = std::mem::take(&mut self.masks[top]);
        let (cond, parent) = (self.view(cond), &self.masks[parent].bits);
        for (l, bit) in mask.bits.iter_mut().enumerate() {
            *bit = parent[l] && cond.val(l).is_true() != negate;
        }
        mask.count();
        self.masks[top] = mask;
        self.mask_top += 1;
        top
    }

    fn exec_body(&mut self, body: &'a [Stmt], m: usize) -> Result<(), ExecError> {
        body.iter().try_for_each(|stmt| self.exec_stmt(stmt, m))
    }

    fn exec_stmt(&mut self, stmt: &'a Stmt, m: usize) -> Result<(), ExecError> {
        self.step()?;
        match stmt {
            Stmt::Decl { var, ty, init } => {
                let value = match init {
                    Some(e) => self.eval(e, 0, m)?,
                    None => Loc::Uni(Val::zero(*ty)),
                };
                // A declaration without initializer zeroes every lane; one
                // with initializes the lanes that reach it.
                if !std::mem::replace(&mut self.defined[*var], true) || init.is_none() {
                    self.vars[*var].kind = Kind::U(Val::zero(*ty));
                }
                self.assign_var(*var, value, m);
            }
            Stmt::DeclShared { shared, ty, dims } => self.decl_shared(*shared, *ty, dims)?,
            Stmt::Assign { lhs, rhs } => {
                let value = self.eval(rhs, 0, m)?;
                self.assign(lhs, value, m)?;
            }
            Stmt::For(l) => self.exec_for(l, m)?,
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, 0, m)?;
                let top = self.mask_top;
                // Both masks are built before either branch runs: the
                // branches reuse the temporaries the predicate lives in.
                let (then_m, else_m) = self.split(m, c, !else_body.is_empty());
                if self.masks[then_m].active > 0 {
                    self.exec_body(then_body, then_m)?;
                }
                if self.masks[else_m].active > 0 {
                    self.exec_body(else_body, else_m)?;
                }
                self.mask_top = top;
            }
            Stmt::SyncThreads => self.barrier(m, false)?,
            Stmt::GlobalSync => {
                self.barrier(m, true)?;
                self.stats.gsync_crossings += 1;
            }
            Stmt::Call(name) => {
                return Err(ExecError::Unsupported(format!(
                    "statement-level call `{name}`"
                )));
            }
        }
        Ok(())
    }

    /// A barrier reached under mask `m`. Lock-step execution makes it a
    /// no-op, but it must be mask-uniform: a uniform mask closes the race
    /// window — accesses before and after it are ordered for every pair of
    /// threads; a divergent one is an error (a spanless sanitizer finding
    /// in sanitize mode).
    fn barrier(&mut self, m: usize, grid_wide: bool) -> Result<(), ExecError> {
        if grid_wide != self.p.mega {
            return Err(ExecError::BarrierMisuse(if grid_wide {
                "__gsync() requires mega-block execution".into()
            } else {
                "__syncthreads() in a __gsync() kernel".into()
            }));
        }
        let mask = &self.masks[m];
        if mask.full() {
            self.epoch += 1;
            return Ok(());
        }
        Err(if SAN {
            let kind = SanitizerKind::BarrierDivergence {
                active: mask.active,
                total: self.nt,
            };
            ExecError::Sanitizer(SanitizerError { kind, span: None })
        } else {
            ExecError::DivergentSync
        })
    }

    fn decl_shared(&mut self, slot: usize, ty: ScalarType, dims: &[i64]) -> Result<(), ExecError> {
        if self.p.mega {
            return Err(ExecError::BarrierMisuse(
                "shared memory in a __gsync() kernel".into(),
            ));
        }
        if ty != ScalarType::Float {
            return Err(unsupported("only float shared arrays are supported"));
        }
        let len = dims.iter().product::<i64>() as usize;
        let buf = &mut self.shared[slot];
        let fresh = !std::mem::replace(&mut buf.declared, true);
        buf.dims.clear();
        buf.dims.extend_from_slice(dims);
        buf.strides.clear();
        buf.strides
            .extend((1..=dims.len()).map(|d| dims[d..].iter().product::<i64>()));
        buf.data.clear();
        buf.data.resize(len, 0.0);
        if SAN {
            buf.shadow.clear();
            buf.shadow.resize(len, ShadowCell::default());
            if fresh {
                self.shared_bytes += len as u64 * ty.size_bytes() as u64;
            }
            if !self.device.machine.fits_shared(self.shared_bytes) {
                let kind = SanitizerKind::SharedOverflow {
                    array: self.p.shared[slot].clone(),
                    bytes: self.shared_bytes,
                    limit: self.device.machine.shared_per_sm as u64,
                };
                return Err(sanitizer_err(self.spans, kind));
            }
        }
        Ok(())
    }

    /// `vars[slot][lane] = value[lane]` under mask `m`.
    fn assign_var(&mut self, slot: usize, value: Loc, m: usize) {
        if matches!(value, Loc::Var(src) if src == slot) {
            return;
        }
        let mut dst = std::mem::take(&mut self.vars[slot]);
        dst.assign(self.view(value), &self.masks[m], self.nt);
        self.vars[slot] = dst;
    }

    fn undefined(&self, slot: usize) -> ExecError {
        ExecError::UndefinedVar(self.p.vars[slot].name.clone())
    }

    fn assign(&mut self, lhs: &'a Place, value: Loc, m: usize) -> Result<(), ExecError> {
        match lhs {
            Place::Var(slot) | Place::Field(slot, _) if !self.defined[*slot] => {
                return Err(self.undefined(*slot));
            }
            Place::Var(slot) => self.assign_var(*slot, value, m),
            Place::Field(slot, field) => {
                let mut dst = std::mem::take(&mut self.vars[*slot]);
                dst.materialize(Kind::V, self.nt);
                let src = self.view(value);
                lanes!(&self.masks[m], l, {
                    let x = src.val(l).as_f();
                    let x = x.ok_or_else(|| unsupported("non-scalar component write"))?;
                    if !dst.v[l].set_component(field.lane(), x) {
                        return Err(unsupported("component write to scalar"));
                    }
                });
                self.vars[*slot] = dst;
            }
            Place::Index(array, indices) => {
                let base = self.eval_indices(indices, 1, m)?;
                let (space, uniform) = self.access(array, base, indices.len(), m, true)?;
                let src = view_of(&self.temps, &self.vars, value);
                let (mask, offs) = (&self.masks[m], &self.offs);
                let at = |l: usize| uniform.unwrap_or(offs[l]) as usize;
                match space {
                    Space::Shared(s) => {
                        let data = &mut self.shared[s].data;
                        lanes!(mask, l, {
                            let x = src.val(l).as_f();
                            data[at(l)] = x.ok_or_else(|| unsupported("vector store to shared"))?;
                        });
                    }
                    Space::Global(g) => {
                        let buf = &mut self.device.slots_mut()[self.p.globals[g].slot];
                        lanes!(mask, l, { buf.store(at(l), src.val(l)) });
                    }
                }
                self.locs.truncate(base);
            }
        }
        Ok(())
    }

    fn exec_for(&mut self, l: &'a Loop, m: usize) -> Result<(), ExecError> {
        let init = self.eval(&l.init, 0, m)?;
        // Truncation: uniform counted top-level loops may be capped for
        // timing traces; the factor scales the counters later.
        let cap = self.truncation_cap(l, init, m);
        // The loop variable is (re)declared for every lane.
        self.defined[l.var] = true;
        self.assign_var(l.var, init, FULL);
        self.depth += 1;
        if let Some((limit, trips, init0, step)) = cap {
            // The factor is recorded on entry, so a budget check inside the
            // loop already extrapolates by it.
            let factor = trips as f64 / limit as f64;
            self.stats.loop_truncation = self.stats.loop_truncation.max(factor);
            // Truncated trace: execute `limit` iterations *strided across
            // the full trip count*, so non-stationary bodies (triangular
            // guards, rotated walks) are sampled representatively rather
            // than from the first iterations only.
            for j in 0..limit {
                let trip = j * trips / limit;
                self.vars[l.var].kind = Kind::U(Val::I(init0 + trip as i64 * step));
                self.step()?;
                self.exec_body(&l.body, m)?;
                self.stats.warp_insts += 2 * self.masks[m].warps;
            }
        } else {
            loop {
                self.step()?;
                let c = self.eval(&l.cond, 0, m)?;
                let top = self.mask_top;
                let (active, _) = self.split(m, c, false);
                if self.masks[active].active == 0 {
                    self.mask_top = top;
                    break;
                }
                self.exec_body(&l.body, active)?;
                self.advance(l, active)?;
                // Loop-control overhead: one compare + one update.
                self.stats.warp_insts += 2 * self.masks[active].warps;
                self.mask_top = top;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Applies the loop update to the loop variable's active lanes.
    fn advance(&mut self, l: &Loop, m: usize) -> Result<(), ExecError> {
        let next = |v: Val| match v.as_i() {
            Some(cur) => Ok(Val::I(l.update.apply(cur))),
            None => Err(unsupported("non-integer loop variable")),
        };
        let (col, mask) = (&mut self.vars[l.var], &self.masks[m]);
        if let (Kind::U(v), true) = (col.kind, mask.full()) {
            col.kind = Kind::U(next(v)?);
            return Ok(());
        }
        col.materialize(col.kind.lanes(), self.nt);
        lanes!(mask, lane, {
            let v = next(col.view().val(lane))?;
            col.set(lane, v);
        });
        Ok(())
    }

    /// The integer every active lane of `loc` holds, if they all agree.
    fn uniform_int(&self, loc: Loc, m: usize) -> Option<i64> {
        let (view, mask) = (self.view(loc), &self.masks[m]);
        let first = view.val(mask.first()?).as_i()?;
        if !matches!(view, View::U(_)) {
            lanes!(mask, l, {
                if view.val(l).as_i() != Some(first) {
                    return None;
                }
            });
        }
        Some(first)
    }

    /// Decides whether a loop may be truncated for a timing trace:
    /// returns `(cap, full_trip_count, init, step)` for uniform counted
    /// top-level loops whose trip count exceeds the cap.
    fn truncation_cap(&mut self, l: &'a Loop, init: Loc, m: usize) -> Option<(u64, u64, i64, i64)> {
        let cap = self.max_outer_iters?;
        if self.depth != 0 || self.p.mega {
            return None;
        }
        let step = l.counted_step?;
        let i0 = self.uniform_int(init, m)?;
        let bound = self.eval(&l.bound, 1, m).ok()?;
        let b0 = self.uniform_int(bound, m)?;
        let trips = ((b0 - i0).max(0) as u64).div_ceil(step as u64);
        (trips > cap).then_some((cap, trips, i0, step))
    }

    /// Evaluates `e` under mask `m`. Temporaries at depths `>= d` are free
    /// for the evaluation; a lane result is left in the temporary at `d`.
    /// Only the lanes of `m` are computed, so a masked-off lane can never
    /// fault; what the other lanes of a result hold is unspecified.
    fn eval(&mut self, e: &'a Expr, d: usize, m: usize) -> Result<Loc, ExecError> {
        match e {
            Expr::Const(v) => Ok(Loc::Uni(*v)),
            Expr::Var(slot) if self.defined[*slot] => Ok(Loc::Var(*slot)),
            Expr::Var(slot) => match self.p.vars[*slot].scalar {
                Some(v) => Ok(Loc::Uni(Val::I(v))),
                None => Err(self.undefined(*slot)),
            },
            Expr::Affine(a) => self.eval_affine(a, d, m),
            Expr::Index(array, indices) => {
                let base = self.eval_indices(indices, d + 1, m)?;
                let (space, uniform) = self.access(array, base, indices.len(), m, false)?;
                self.locs.truncate(base);
                Ok(self.load(space, uniform, d, m))
            }
            Expr::Field(inner, field) => {
                let a = self.eval(inner, d + 1, m)?;
                self.zip(&[a], Kind::V, d, m, |v| {
                    match v[0].component(field.lane()) {
                        Some(x) => Ok((Val::F(x), false)),
                        None => Err(ExecError::Unsupported(format!(
                            ".{} on scalar",
                            field.name()
                        ))),
                    }
                })
            }
            Expr::Unary(op, inner) => {
                let a = self.eval(inner, d + 1, m)?;
                self.stats.warp_insts += self.masks[m].warps;
                let kind = match op {
                    UnOp::Not => Kind::I,
                    UnOp::Neg => self.view(a).kind().lanes(),
                };
                self.zip(&[a], kind, d, m, |v| {
                    let negated = match (op, v[0]) {
                        (UnOp::Not, v) => Val::I(i64::from(!v.is_true())),
                        (UnOp::Neg, Val::I(x)) => Val::I(x.wrapping_neg()),
                        (UnOp::Neg, Val::F(x)) => Val::F(-x),
                        (UnOp::Neg, _) => return Err(unsupported("negate vector")),
                    };
                    Ok((negated, false))
                })
            }
            Expr::Cast(ty, inner) => {
                let a = self.eval(inner, d + 1, m)?;
                let kind = match ty {
                    ScalarType::Int => Kind::I,
                    _ => Kind::V,
                };
                self.zip(&[a], kind, d, m, |v| {
                    let cast = match ty {
                        ScalarType::Int => v[0].as_i().map(Val::I).ok_or("cast vector to int"),
                        ScalarType::Float => v[0].as_f().map(Val::F).ok_or("cast vector to float"),
                        _ => Err("cast to vector type"),
                    };
                    Ok((cast.map_err(unsupported)?, false))
                })
            }
            Expr::Binary(op, l, r) => {
                let a = self.eval(l, d + 1, m)?;
                let b = self.eval(r, d + 2, m)?;
                self.stats.warp_insts += self.masks[m].warps;
                let ints = |loc| self.view(loc).kind().lanes() == Kind::I;
                // Integer × integer stays integral, and every predicate
                // yields 0/1.
                let kind = if (ints(a) && ints(b)) || op.is_predicate() {
                    Kind::I
                } else {
                    Kind::V
                };
                let is_f = |v: Val| matches!(v, Val::F(_));
                self.zip(&[a, b], kind, d, m, |v| {
                    let flop = !op.is_predicate() && (is_f(v[0]) || is_f(v[1]));
                    Ok((binop(*op, v[0], v[1])?, flop))
                })
            }
            Expr::Call(name, args) => {
                // No intrinsic takes more than two arguments; a longer
                // call is unknown whatever they are.
                let mut locs = [Loc::Uni(Val::I(0)); 2];
                for (i, arg) in args.iter().enumerate() {
                    let loc = self.eval(arg, d + 1 + i, m)?;
                    if let Some(slot) = locs.get_mut(i) {
                        *slot = loc;
                    }
                }
                self.stats.warp_insts += self.masks[m].warps;
                let n = args.len();
                self.zip(&locs[..n.min(2)], Kind::V, d, m, |v| {
                    if n > 2 {
                        return Err(ExecError::Unsupported(format!(
                            "intrinsic `{name}` with {n} argument(s)"
                        )));
                    }
                    Ok((intrinsic(name, &v[..n])?, true))
                })
            }
            Expr::Select(c, t, f) => {
                // Branches evaluate under refined masks so an inactive
                // lane's side never touches memory.
                let c = self.eval(c, d + 1, m)?;
                let top = self.mask_top;
                let (t_m, f_m) = self.split(m, c, true);
                let t = self.eval(t, d + 2, t_m)?;
                let f = self.eval(f, d + 3, f_m)?;
                self.mask_top = top;
                self.stats.warp_insts += self.masks[m].warps;
                self.zip(&[c, t, f], Kind::V, d, m, |v| {
                    Ok((if v[0].is_true() { v[1] } else { v[2] }, false))
                })
            }
        }
    }

    /// `f` over the active lanes of up to three operands; the result lands
    /// in a column of `kind` at depth `d`, or stays uniform when every
    /// operand is. `f` also says whether the lane executed a flop.
    fn zip(
        &mut self,
        args: &[Loc],
        kind: Kind,
        d: usize,
        m: usize,
        f: impl Fn(&[Val; 3]) -> Result<(Val, bool), ExecError>,
    ) -> Result<Loc, ExecError> {
        let active = self.masks[m].active as u64;
        if active == 0 {
            return Ok(Loc::Uni(Val::I(0)));
        }
        if let [View::U(a), View::U(b), View::U(c)] = self.views(args) {
            let (v, flop) = f(&[a, b, c])?;
            self.stats.flops += active * u64::from(flop);
            return Ok(Loc::Uni(v));
        }
        let mut out = self.temp(d, kind);
        let views = self.views(args);
        let mut flops = 0;
        lanes!(&self.masks[m], l, {
            let (v, flop) = f(&[views[0].val(l), views[1].val(l), views[2].val(l)])?;
            flops += u64::from(flop);
            out.set(l, v);
        });
        self.stats.flops += flops;
        Ok(self.put(d, out))
    }

    fn eval_affine(&mut self, a: &'a AffineExpr, d: usize, m: usize) -> Result<Loc, ExecError> {
        let term = |acc: i64, c: i64, v: i64| acc.wrapping_add(c.wrapping_mul(v));
        let mut base = term(term(a.konst, a.bid.0, self.block.0), a.bid.1, self.block.1);
        let mut lane_vars = false;
        if let Some((vars, fallback)) = &a.vars {
            for &(slot, c) in vars {
                match (
                    self.defined[slot],
                    self.vars[slot].kind,
                    self.p.vars[slot].scalar,
                ) {
                    (true, Kind::U(Val::I(v)), _) | (false, _, Some(v)) => base = term(base, c, v),
                    (true, Kind::I, _) => lane_vars = true,
                    // Undefined, or not an integer: the nested form decides.
                    _ => return self.eval(fallback, d, m),
                }
            }
        }
        self.stats.warp_insts += a.ops * self.masks[m].warps;
        if a.table.is_none() && !lane_vars {
            return Ok(Loc::Uni(Val::I(base)));
        }
        let mut out = self.temp(d, Kind::I);
        match a.table {
            Some(t) => {
                let table = &self.p.tables[t];
                out.i
                    .iter_mut()
                    .zip(table)
                    .for_each(|(o, &lane)| *o = base.wrapping_add(lane));
            }
            None => out.i.fill(base),
        }
        for &(slot, c) in a.vars.iter().flat_map(|(vars, _)| vars) {
            if let (true, Kind::I) = (self.defined[slot], self.vars[slot].kind) {
                let lanes = &self.vars[slot].i;
                out.i
                    .iter_mut()
                    .zip(lanes)
                    .for_each(|(o, &v)| *o = term(*o, c, v));
            }
        }
        Ok(self.put(d, out))
    }

    /// Evaluates subscripts at depths `d..`, pushing their locations on the
    /// subscript stack; returns where they start.
    fn eval_indices(
        &mut self,
        indices: &'a [Expr],
        d: usize,
        m: usize,
    ) -> Result<usize, ExecError> {
        let base = self.locs.len();
        for (i, ix) in indices.iter().enumerate() {
            let loc = self.eval(ix, d + i, m)?;
            self.locs.push(loc);
        }
        Ok(base)
    }

    /// The subscripts lane `l` of an access evaluated to.
    fn indices_at(&self, acc: Access<'_>, l: usize) -> Vec<i64> {
        let locs = &self.locs[acc.base..acc.base + acc.rank];
        locs.iter().map(|&loc| self.view(loc).index(l)).collect()
    }

    /// Linearizes the subscripts at `base` into per-lane element offsets
    /// (`self.offs`), or into one offset when every subscript is uniform,
    /// and finds the first active lane with a subscript outside `limits`.
    fn linearize(
        &mut self,
        base: usize,
        limits: &[i64],
        strides: &[i64],
        m: usize,
    ) -> (Option<i64>, Option<usize>) {
        let mask = &self.masks[m];
        let mut konst = 0i64;
        let mut bad: Option<usize> = None;
        let mut lanes = false;
        for (d, (&limit, &stride)) in limits.iter().zip(strides).enumerate() {
            let view = view_of(&self.temps, &self.vars, self.locs[base + d]);
            if let View::U(v) = view {
                let ix = v.as_i().unwrap_or(0);
                if ix < 0 || ix >= limit {
                    bad = mask.first();
                }
                konst = konst.wrapping_add(ix.wrapping_mul(stride));
                continue;
            }
            if !std::mem::replace(&mut lanes, true) {
                self.offs.fill(0);
            }
            for (l, off) in self.offs.iter_mut().enumerate() {
                let ix = match view {
                    View::I(s) => s[l],
                    _ => view.index(l),
                };
                if (ix < 0 || ix >= limit) && mask.bits[l] && bad.is_none_or(|b| l < b) {
                    bad = Some(l);
                }
                *off = off.wrapping_add(ix.wrapping_mul(stride));
            }
        }
        if !lanes {
            return (Some(konst), bad);
        }
        self.offs
            .iter_mut()
            .for_each(|o| *o = o.wrapping_add(konst));
        (None, bad)
    }

    /// Resolves the array and runs the access protocol over the subscripts
    /// at `base`: sanitize → trace (→ the caller moves the data). Returns
    /// the space and the access's uniform element offset, if it has one;
    /// per-lane offsets are in `self.offs`.
    fn access(
        &mut self,
        array: &'a ArrayRef,
        base: usize,
        rank: usize,
        m: usize,
        write: bool,
    ) -> Result<(Space, Option<i64>), ExecError> {
        // Until linearized: the verdict on a rank mismatch, which faults
        // the first active lane.
        let (uniform, bad) = (Some(0), self.masks[m].first());
        let mut acc = Access {
            array,
            base,
            rank,
            m,
            write,
            uniform,
            bad,
        };
        if let Some(s) = array.shared.filter(|&s| self.shared[s].declared) {
            let buf = std::mem::take(&mut self.shared[s]);
            let ranked = rank == buf.dims.len();
            if ranked {
                (acc.uniform, acc.bad) = self.linearize(base, &buf.dims, &buf.strides, m);
            }
            self.shared[s] = buf;
            if SAN {
                self.sanitize_shared(s, acc)?;
            }
            if let Some(l) = acc.bad {
                let dims = &self.shared[s].dims;
                return Err(ExecError::Unsupported(if ranked {
                    let indices = self.indices_at(acc, l);
                    format!("shared access out of bounds: {indices:?} in {dims:?}")
                } else {
                    format!("shared array rank mismatch: {rank} vs {}", dims.len())
                }));
            }
            self.trace_shared(acc);
            return Ok((Space::Shared(s), acc.uniform));
        }
        let unknown = || DeviceError::UnknownBuffer(array.name.clone());
        let g = array.global.ok_or_else(unknown)?;
        let p = self.p;
        let global = &p.globals[g];
        if rank == global.limits.len() {
            (acc.uniform, acc.bad) = self.linearize(base, &global.limits, &global.strides, m);
        } else if bad.is_some() {
            return Err(ExecError::Device(DeviceError::RankMismatch {
                array: array.name.clone(),
                got: rank,
                expected: global.limits.len(),
            }));
        }
        if SAN {
            self.sanitize_global(global, acc)?;
        }
        self.trace_global(global, acc)?;
        Ok((Space::Global(g), acc.uniform))
    }

    /// Gathers the loaded lanes of an access [`Self::access`] has checked.
    fn load(&mut self, space: Space, uniform: Option<i64>, d: usize, m: usize) -> Loc {
        if self.masks[m].active == 0 {
            return Loc::Uni(Val::F(0.0));
        }
        // Address-only buffers read as zeros whatever the offset.
        let phantom = matches!(space, Space::Global(g) if self.p.globals[g].phantom);
        if let Some(off) = uniform.or(phantom.then_some(0)) {
            return Loc::Uni(match space {
                Space::Shared(s) => Val::F(self.shared[s].data[off as usize]),
                Space::Global(g) => self.device.slots()[self.p.globals[g].slot].load(off as usize),
            });
        }
        let mut out = self.temp(d, Kind::V);
        let (mask, offs) = (&self.masks[m], &self.offs);
        match space {
            Space::Shared(s) => {
                let data = &self.shared[s].data;
                lanes!(mask, l, { out.v[l] = Val::F(data[offs[l] as usize]) });
            }
            Space::Global(g) => {
                let buf = &self.device.slots()[self.p.globals[g].slot];
                lanes!(mask, l, { out.v[l] = buf.load(offs[l] as usize) });
            }
        }
        self.put(d, out)
    }

    /// Sanitize-mode pre-check of one vector global access: true
    /// out-of-bounds, reads of never-written padding, and uninitialized
    /// reads. Runs before the access so the finding, not a generic device
    /// fault, reaches the caller.
    fn sanitize_global(&self, global: &Global, acc: Access<'_>) -> Result<(), ExecError> {
        let buf = &self.device.slots()[global.slot];
        if acc.bad.is_none() && (acc.write || global.phantom) {
            return Ok(());
        }
        lanes!(&self.masks[acc.m], l, {
            let oob = acc.bad == Some(l);
            let off = acc.uniform.unwrap_or(self.offs[l]);
            if !oob && (acc.write || buf.cell_initialized(off)) {
                if acc.uniform.is_some() {
                    break; // every lane reads this same cell
                }
                continue;
            }
            let (array, indices) = (acc.array.name.clone(), self.indices_at(acc, l));
            // Inside the row pitch but beyond the logical extent.
            let padding = !oob && indices.last().is_some_and(|&ix| ix >= global.row_len);
            let kind = if oob || padding {
                SanitizerKind::GlobalOutOfBounds {
                    array,
                    indices,
                    write: acc.write,
                    padding,
                }
            } else {
                SanitizerKind::UninitializedRead {
                    array,
                    indices,
                    shared: false,
                }
            };
            return Err(sanitizer_err(self.spans, kind));
        });
        Ok(())
    }

    /// Sanitize-mode pre-check of one vector shared access: bounds,
    /// uninitialized reads, and same-epoch races between lanes.
    fn sanitize_shared(&mut self, s: usize, acc: Access<'_>) -> Result<(), ExecError> {
        let mut cells = std::mem::take(&mut self.shared[s].shadow);
        let (epoch, array) = (self.epoch, || acc.array.name.clone());
        lanes!(&self.masks[acc.m], l, {
            let lane = l as u32;
            let offset = acc.uniform.unwrap_or(self.offs[l]) as usize;
            let kind = if acc.bad == Some(l) {
                SanitizerKind::SharedOutOfBounds {
                    array: array(),
                    indices: self.indices_at(acc, l),
                    write: acc.write,
                }
            } else if !acc.write && !cells[offset].written {
                SanitizerKind::UninitializedRead {
                    array: array(),
                    indices: self.indices_at(acc, l),
                    shared: true,
                }
            } else {
                let race = if acc.write {
                    let race = cells[offset].record_write(epoch, lane);
                    race.map(|(other, write_write)| ((lane, other), write_write))
                } else {
                    let race = cells[offset].record_read(epoch, lane);
                    race.map(|other| ((other, lane), false))
                };
                let Some((lanes, write_write)) = race else {
                    continue;
                };
                SanitizerKind::SharedRace {
                    array: array(),
                    offset,
                    lanes,
                    write_write,
                }
            };
            return Err(sanitizer_err(self.spans, kind));
        });
        self.shared[s].shadow = cells;
        Ok(())
    }

    /// Records global-memory traffic for one vector access, streaming one
    /// [`MemEvent`] per touched 32-byte line into the sink. Scratch is
    /// fixed-size: the 16 lanes of a half warp touch at most 32 lines.
    fn trace_global(&mut self, global: &Global, acc: Access<'_>) -> Result<(), ExecError> {
        let elem_bytes = global.elem.size_bytes() as i64;
        let geometry = self.device.machine.partitions;
        let strict = self.device.machine.strict_coalescing;
        let (stats, sink, request_ix) = (&mut *self.stats, &mut *self.sink, &mut self.request_ix);
        let sm = self.sm_id;
        let traced = half_warps(&self.masks[acc.m].bits, &self.offs, acc, |offs| {
            let active_lanes = offs.len() as u64;
            let (mut lines, mut n_lines) = ([0i64; 32], 0);
            let (mut distinct, mut lane_lines) = (0u64, 0u64);
            let (mut low, mut high) = (i64::MAX, i64::MIN);
            // Ascending consecutive elements (the coalesced case) cannot
            // repeat an address, and repeat a line only back to back.
            let sequential = offs.windows(2).all(|w| w[1] == w[0] + 1);
            for (i, &off) in offs.iter().enumerate() {
                let addr = global.base_addr + off * elem_bytes;
                // Useful bytes are deduplicated: a broadcast serves all
                // lanes from one element.
                if sequential || !offs[..i].contains(&off) {
                    distinct += 1;
                    (low, high) = (low.min(addr), high.max(addr));
                }
                let last = (addr + elem_bytes - 1) / 32;
                lane_lines += (last - addr / 32 + 1) as u64;
                for line in addr / 32..=last {
                    let seen = &lines[..n_lines];
                    if seen.last() != Some(&line) && (sequential || !seen.contains(&line)) {
                        lines[n_lines] = line;
                        n_lines += 1;
                    }
                }
            }
            let lines = &lines[..n_lines];
            stats.useful_bytes += distinct * elem_bytes as u64;
            // G80 strict rule (paper §2): unless the half warp forms one
            // aligned sequential segment, every thread issues its own
            // (32-byte-minimum) transaction — no line-level grouping. A
            // segment has no duplicate addresses (broadcasts are not
            // coalesced on G80) and an aligned base; its distinct
            // addresses, whole elements apart, are sequential exactly
            // when they span `count - 1` elements.
            let perfect = distinct == active_lanes
                && low % (16 * elem_bytes) == 0
                && high - low == (distinct as i64 - 1) * elem_bytes;
            let transactions = if strict && !perfect {
                lane_lines.max(active_lanes)
            } else {
                lines.len() as u64
            };
            stats.gmem_requests += 1;
            stats.global_transactions += transactions;
            stats.global_bytes += transactions * 32;
            let tick = *request_ix as u64;
            let ts = *request_ix % TIMELINE_CAP;
            *request_ix += 1;
            if stats.partition_timeline.len() <= ts {
                let nparts = geometry.count as usize;
                stats.partition_timeline.resize(ts + 1, vec![0; nparts]);
            }
            for &line in lines {
                let p = geometry.partition_of(line * 32) as usize;
                stats.partition_hits[p] += 1;
                stats.partition_timeline[ts][p] += 1;
                sink.record(MemEvent {
                    line,
                    write: acc.write,
                    sm,
                    tick,
                });
            }
        });
        traced.map_err(|l| {
            ExecError::Device(DeviceError::OutOfBounds {
                array: acc.array.name.clone(),
                indices: self.indices_at(acc, l),
            })
        })
    }

    /// Records shared-memory traffic and bank conflicts.
    fn trace_shared(&mut self, acc: Access<'_>) {
        let banks = self.device.machine.shared_banks as usize;
        let stats = &mut *self.stats;
        let _ = half_warps(&self.masks[acc.m].bits, &self.offs, acc, |words| {
            stats.shared_accesses += 1;
            // Conflict degree: max distinct words mapping to one bank
            // (same-word broadcast is free). Consecutive words fill the
            // banks round-robin.
            let degree = if words.windows(2).all(|w| w[1] == w[0] + 1) {
                words.len().div_ceil(banks)
            } else {
                let (mut seen, mut n, mut degree) = ([0i64; 16], 0, 1);
                for &w in words {
                    if seen[..n].contains(&w) {
                        continue;
                    }
                    seen[n] = w;
                    n += 1;
                    let same_bank = |v: &&i64| (**v - w) % banks as i64 == 0;
                    degree = degree.max(seen[..n].iter().filter(same_bank).count());
                }
                degree
            };
            stats.shared_conflict_cycles += degree as u64 - 1;
        });
    }
}

fn binop(op: BinOp, a: Val, b: Val) -> Result<Val, ExecError> {
    use BinOp::*;
    // Integer × integer stays integral; anything touching a float promotes.
    if let (Val::I(x), Val::I(y)) = (a, b) {
        let v = match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div if y == 0 => return Err(unsupported("integer division by zero")),
            Div => x.wrapping_div(y),
            Rem if y == 0 => return Err(unsupported("integer modulo by zero")),
            Rem => x.wrapping_rem_euclid(y),
            Shl => x << (y & 63),
            Shr => x >> (y & 63),
            Lt => i64::from(x < y),
            Le => i64::from(x <= y),
            Gt => i64::from(x > y),
            Ge => i64::from(x >= y),
            Eq => i64::from(x == y),
            Ne => i64::from(x != y),
            And => i64::from(x != 0 && y != 0),
            Or => i64::from(x != 0 || y != 0),
        };
        return Ok(Val::I(v));
    }
    let (x, y) = match (a.as_f(), b.as_f()) {
        (Some(x), Some(y)) => (x, y),
        _ => return Err(unsupported("arithmetic on vector values")),
    };
    Ok(match op {
        Add => Val::F(x + y),
        Sub => Val::F(x - y),
        Mul => Val::F(x * y),
        Div => Val::F(x / y),
        Rem => Val::F(x % y),
        Shl | Shr => return Err(unsupported("shift on floats")),
        Lt => Val::I(i64::from(x < y)),
        Le => Val::I(i64::from(x <= y)),
        Gt => Val::I(i64::from(x > y)),
        Ge => Val::I(i64::from(x >= y)),
        Eq => Val::I(i64::from(x == y)),
        Ne => Val::I(i64::from(x != y)),
        And => Val::I(i64::from(x != 0.0 && y != 0.0)),
        Or => Val::I(i64::from(x != 0.0 || y != 0.0)),
    })
}

fn intrinsic(name: &str, args: &[Val]) -> Result<Val, ExecError> {
    let f = |i: usize| -> Result<f32, ExecError> {
        args.get(i)
            .and_then(|v| v.as_f())
            .ok_or_else(|| ExecError::Unsupported(format!("bad argument {i} to {name}")))
    };
    Ok(match (name, args.len()) {
        ("sqrtf" | "sqrt", 1) => Val::F(f(0)?.sqrt()),
        ("fabsf" | "fabs" | "absf", 1) => Val::F(f(0)?.abs()),
        ("expf", 1) => Val::F(f(0)?.exp()),
        ("logf", 1) => Val::F(f(0)?.ln()),
        ("sinf", 1) => Val::F(f(0)?.sin()),
        ("cosf", 1) => Val::F(f(0)?.cos()),
        ("floorf", 1) => Val::F(f(0)?.floor()),
        ("fmaxf" | "maxf", 2) => Val::F(f(0)?.max(f(1)?)),
        ("fminf" | "minf", 2) => Val::F(f(0)?.min(f(1)?)),
        ("min", 2) => match (args[0], args[1]) {
            (Val::I(a), Val::I(b)) => Val::I(a.min(b)),
            _ => Val::F(f(0)?.min(f(1)?)),
        },
        ("max", 2) => match (args[0], args[1]) {
            (Val::I(a), Val::I(b)) => Val::I(a.max(b)),
            _ => Val::F(f(0)?.max(f(1)?)),
        },
        _ => {
            return Err(ExecError::Unsupported(format!(
                "intrinsic `{name}` with {} argument(s)",
                args.len()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDesc;
    use gpgpu_analysis::{resolve_layouts_padded, Bindings};
    use gpgpu_ast::parse_kernel;

    /// Builds a device with padded buffers for every kernel array.
    fn device_for(kernel: &Kernel, bindings: &Bindings, machine: MachineDesc) -> Device {
        let layouts = resolve_layouts_padded(kernel, bindings).unwrap();
        let mut dev = Device::new(machine);
        for p in kernel.array_params() {
            dev.alloc(layouts[&p.name].clone());
        }
        dev
    }

    fn binds(pairs: &[(&str, i64)]) -> Bindings {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn scale_kernel_executes() {
        let k = parse_kernel(
            "__global__ void scale(float a[n], float c[n], int n) { c[idx] = a[idx] * 2.0f; }",
        )
        .unwrap();
        let b = binds(&[("n", 64)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let src: Vec<f32> = (0..64).map(|v| v as f32).collect();
        dev.buffer_mut("a").unwrap().upload(&src);
        let cfg = LaunchConfig::one_d(4, 16);
        let stats = launch(&k, &cfg, &b, &mut dev, &ExecOptions::default()).unwrap();
        let out = dev.buffer("c").unwrap().download();
        assert_eq!(out[10], 20.0);
        assert_eq!(out[63], 126.0);
        assert_eq!(stats.blocks_executed, 4);
        // Coalesced loads: 64 lanes × 4 B useful; lines = 64B/segment.
        assert_eq!(stats.coalescing_efficiency(), 1.0);
    }

    #[test]
    fn naive_mm_computes_reference_product() {
        let k = parse_kernel(
            r#"__global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
                float sum = 0.0f;
                for (int i = 0; i < w; i = i + 1) { sum += a[idy][i] * b[i][idx]; }
                c[idy][idx] = sum;
            }"#,
        )
        .unwrap();
        let n = 8i64;
        let bind = binds(&[("n", n), ("w", n)]);
        let mut dev = device_for(&k, &bind, MachineDesc::gtx280());
        let av: Vec<f32> = (0..n * n).map(|v| (v % 7) as f32).collect();
        let bv: Vec<f32> = (0..n * n).map(|v| (v % 5) as f32 - 2.0).collect();
        dev.buffer_mut("a").unwrap().upload(&av);
        dev.buffer_mut("b").unwrap().upload(&bv);
        let cfg = LaunchConfig {
            grid_x: 2,
            grid_y: 8,
            block_x: 4,
            block_y: 1,
        };
        launch(&k, &cfg, &bind, &mut dev, &ExecOptions::default()).unwrap();
        let c = dev.buffer("c").unwrap().download();
        for y in 0..n {
            for x in 0..n {
                let mut expect = 0.0f32;
                for i in 0..n {
                    expect += av[(y * n + i) as usize] * bv[(i * n + x) as usize];
                }
                assert_eq!(c[(y * n + x) as usize], expect, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn block_clusters_match_serial_execution() {
        let k = parse_kernel(
            r#"__global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
                float sum = 0.0f;
                for (int i = 0; i < w; i = i + 1) { sum += a[idy][i] * b[i][idx]; }
                c[idy][idx] = sum;
            }"#,
        )
        .unwrap();
        let n = 16i64;
        let bind = binds(&[("n", n), ("w", n)]);
        let av: Vec<f32> = (0..n * n).map(|v| (v % 7) as f32).collect();
        let bv: Vec<f32> = (0..n * n).map(|v| (v % 5) as f32 - 2.0).collect();
        let cfg = LaunchConfig {
            grid_x: 4,
            grid_y: 16,
            block_x: 4,
            block_y: 1,
        };
        let run = |clusters: usize| {
            let mut dev = device_for(&k, &bind, MachineDesc::gtx280());
            dev.buffer_mut("a").unwrap().upload(&av);
            dev.buffer_mut("b").unwrap().upload(&bv);
            let mut sink = VecSink::default();
            let stats = launch_with_sink(
                &k,
                &cfg,
                &bind,
                &mut dev,
                &ExecOptions {
                    block_clusters: clusters,
                    ..ExecOptions::default()
                },
                &mut sink,
            )
            .unwrap();
            (dev.buffer("c").unwrap().download(), stats, sink.events)
        };
        let (serial_c, serial_stats, serial_events) = run(1);
        let (par_c, par_stats, par_events) = run(4);
        assert_eq!(serial_c, par_c);
        assert_eq!(serial_stats, par_stats);
        // Clusters are contiguous spans replayed in order, so the event
        // stream is bit-identical to the serial one.
        assert_eq!(serial_events, par_events);
        assert!(!serial_events.is_empty());
    }

    #[test]
    fn block_clusters_respect_sampling() {
        let k = parse_kernel("__global__ void f(float a[n], int n) { a[idx] = 1.0f; }").unwrap();
        let b = binds(&[("n", 4096)]);
        let run = |clusters: usize| {
            let mut dev = device_for(&k, &b, MachineDesc::gtx280());
            let stats = launch(
                &k,
                &LaunchConfig::one_d(256, 16),
                &b,
                &mut dev,
                &ExecOptions {
                    sample_blocks: Some(6),
                    sample_spread: Some(120),
                    block_clusters: clusters,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
            (stats, dev.buffer("a").unwrap().download())
        };
        let (serial, serial_a) = run(1);
        let (par, par_a) = run(3);
        assert_eq!(serial.blocks_executed, 6);
        assert_eq!(serial, par);
        assert_eq!(serial_a, par_a);
    }

    #[test]
    fn divergent_sync_detected() {
        let k = parse_kernel(
            "__global__ void f(float a[n], int n) {
                if (tidx < 8) { __syncthreads(); }
                a[idx] = 0.0f;
            }",
        )
        .unwrap();
        let b = binds(&[("n", 32)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let err = launch(
            &k,
            &LaunchConfig::one_d(2, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::DivergentSync);
    }

    #[test]
    fn out_of_bounds_reported_with_indices() {
        let k = parse_kernel(
            "__global__ void f(float a[n], int n) { a[idx + 1] = 0.0f; }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let err = launch(
            &k,
            &LaunchConfig::one_d(1, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Device(DeviceError::OutOfBounds { .. })));
    }

    #[test]
    fn gsync_reduction_runs_in_mega_mode() {
        let k = parse_kernel(
            r#"#pragma gpgpu output c
            __global__ void rd(float a[len], float c[1], int len) {
                for (int s = 128; s > 0; s = s >> 1) {
                    if (idx < s) { a[idx] = a[idx] + a[idx + s]; }
                    __gsync();
                }
                if (idx == 0) { c[0] = a[0]; }
            }"#,
        )
        .unwrap();
        let b = binds(&[("len", 256)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let src: Vec<f32> = (0..256).map(|v| v as f32).collect();
        dev.buffer_mut("a").unwrap().upload(&src);
        launch(
            &k,
            &LaunchConfig::one_d(16, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap();
        let c = dev.buffer("c").unwrap().download();
        assert_eq!(c[0], (0..256).sum::<i32>() as f32);
    }

    #[test]
    fn shared_memory_staging_works() {
        let k = parse_kernel(
            "__global__ void f(float a[n], float c[n], int n) {
                __shared__ float s0[16];
                s0[tidx] = a[idx];
                __syncthreads();
                c[idx] = s0[15 - tidx];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        dev.buffer_mut("a")
            .unwrap()
            .upload(&(0..16).map(|v| v as f32).collect::<Vec<_>>());
        launch(
            &k,
            &LaunchConfig::one_d(1, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap();
        let c = dev.buffer("c").unwrap().download();
        assert_eq!(c[0], 15.0);
        assert_eq!(c[15], 0.0);
    }

    #[test]
    fn coalescing_efficiency_distinguishes_access_patterns() {
        // Column walk: each lane touches its own 32-byte line.
        let col = parse_kernel(
            "__global__ void f(float a[n][n], float c[n][n], int n) {
                c[idy][idx] = a[idx][idy];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 64)]);
        let mut dev = device_for(&col, &b, MachineDesc::gtx280());
        let cfg = LaunchConfig {
            grid_x: 4,
            grid_y: 64,
            block_x: 16,
            block_y: 1,
        };
        let stats = launch(&col, &cfg, &b, &mut dev, &ExecOptions::default()).unwrap();
        // Reads waste 7/8 of each line; writes are perfect. Efficiency ~2/9… below 1.
        assert!(stats.coalescing_efficiency() < 0.5, "{stats:?}");

        let row = parse_kernel(
            "__global__ void f(float a[n][n], float c[n][n], int n) {
                c[idy][idx] = a[idy][idx];
            }",
        )
        .unwrap();
        let mut dev = device_for(&row, &b, MachineDesc::gtx280());
        let stats = launch(&row, &cfg, &b, &mut dev, &ExecOptions::default()).unwrap();
        assert_eq!(stats.coalescing_efficiency(), 1.0);
    }

    #[test]
    fn bank_conflicts_counted_and_padding_fixes_them() {
        // Stride-16 shared walk: every lane hits bank 0.
        let conflicted = parse_kernel(
            "__global__ void f(float c[n], int n) {
                __shared__ float s0[16][16];
                s0[tidx][0] = 1.0f;
                __syncthreads();
                c[idx] = s0[tidx][0];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        let mut dev = device_for(&conflicted, &b, MachineDesc::gtx280());
        let stats = launch(
            &conflicted,
            &LaunchConfig::one_d(1, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(stats.shared_conflict_cycles >= 30, "{stats:?}");

        let padded = parse_kernel(
            "__global__ void f(float c[n], int n) {
                __shared__ float s0[16][17];
                s0[tidx][0] = 1.0f;
                __syncthreads();
                c[idx] = s0[tidx][0];
            }",
        )
        .unwrap();
        let mut dev = device_for(&padded, &b, MachineDesc::gtx280());
        let stats = launch(
            &padded,
            &LaunchConfig::one_d(1, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(stats.shared_conflict_cycles, 0, "{stats:?}");
    }

    #[test]
    fn partition_histogram_shows_camping() {
        // mv-style row walk at 4k: every block start lands in partition 0.
        let k = parse_kernel(
            "__global__ void mv(float a[n][w], float c[n], int n, int w) {
                float s = 0.0f;
                for (int i = 0; i < 64; i = i + 1) { s += a[idx][i]; }
                c[idx] = s;
            }",
        )
        .unwrap();
        let b = binds(&[("n", 64), ("w", 4096)]);
        let layouts = resolve_layouts_padded(&k, &b).unwrap();
        let mut dev = Device::new(MachineDesc::gtx280());
        for p in k.array_params() {
            dev.alloc_phantom(layouts[&p.name].clone());
        }
        let cfg = LaunchConfig::one_d(4, 16);
        let stats = launch(&k, &cfg, &b, &mut dev, &ExecOptions::default()).unwrap();
        assert!(stats.partition_imbalance() > 2.0, "{stats:?}");
    }

    #[test]
    fn sampling_executes_subset_of_blocks() {
        let k = parse_kernel(
            "__global__ void f(float c[n], int n) { c[idx] = 1.0f; }",
        )
        .unwrap();
        let b = binds(&[("n", 256)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let cfg = LaunchConfig::one_d(16, 16);
        let stats = launch(
            &k,
            &cfg,
            &b,
            &mut dev,
            &ExecOptions {
                sample_blocks: Some(4),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(stats.blocks_executed, 4);
        assert_eq!(stats.total_blocks, 16);
        let scaled = stats.scaled(4.0);
        assert_eq!(scaled.gmem_requests, stats.gmem_requests * 4);
    }

    #[test]
    fn float2_kernel_reads_pairs() {
        let k = parse_kernel(
            "__global__ void f(float2 a[n], float c[n], int n) {
                float2 v = a[idx];
                c[idx] = v.x + v.y;
            }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        dev.buffer_mut("a")
            .unwrap()
            .upload(&(0..32).map(|v| v as f32).collect::<Vec<_>>());
        launch(
            &k,
            &LaunchConfig::one_d(1, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap();
        let c = dev.buffer("c").unwrap().download();
        assert_eq!(c[0], 1.0);
        assert_eq!(c[15], 30.0 + 31.0);
    }

    #[test]
    fn strict_coalescing_punishes_non_segment_accesses() {
        // A broadcast read: relaxed (GT200) moves one 32-byte line per half
        // warp; strict (G80) serializes one transaction per thread.
        let k = parse_kernel(
            "__global__ void f(float a[n][w], float c[n], int n, int w) {
                c[idx] = a[idy][0];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 64), ("w", 64)]);
        let run = |machine: MachineDesc| {
            let mut dev = device_for(&k, &b, machine);
            launch(
                &k,
                &LaunchConfig::one_d(4, 16),
                &b,
                &mut dev,
                &ExecOptions::default(),
            )
            .unwrap()
        };
        let relaxed = run(MachineDesc::gtx280());
        let strict = run(MachineDesc::gtx8800());
        // Stores identical; the broadcast load differs: 1 line vs 16.
        assert!(
            strict.global_transactions > relaxed.global_transactions * 4,
            "strict {} vs relaxed {}",
            strict.global_transactions,
            relaxed.global_transactions
        );
        // Perfectly coalesced kernels are unaffected by strictness.
        let k2 = parse_kernel(
            "__global__ void g(float a[n], float c[n], int n) { c[idx] = a[idx]; }",
        )
        .unwrap();
        let b2 = binds(&[("n", 64)]);
        let run2 = |machine: MachineDesc| {
            let mut dev = device_for(&k2, &b2, machine);
            launch(
                &k2,
                &LaunchConfig::one_d(4, 16),
                &b2,
                &mut dev,
                &ExecOptions::default(),
            )
            .unwrap()
        };
        assert_eq!(
            run2(MachineDesc::gtx8800()).global_transactions,
            run2(MachineDesc::gtx280()).global_transactions
        );
    }

    #[test]
    fn gsync_crossings_counted() {
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
        let b = binds(&[("len", 256)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let stats = launch(
            &k,
            &LaunchConfig::one_d(16, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(stats.gsync_crossings, 8); // log2(256)
    }

    #[test]
    fn truncated_loops_sample_strided_iterations() {
        // A triangular guard: first-iterations-only sampling would see
        // almost no guarded work; strided sampling sees ~half.
        let k = parse_kernel(
            "__global__ void f(float a[n][n], float c[n], int n) {
                float s = 0.0f;
                for (int r = 0; r < n; r = r + 1) {
                    if (r < 512) { s += a[r][idx]; }
                }
                c[idx] = s;
            }",
        )
        .unwrap();
        let b = binds(&[("n", 1024)]);
        let layouts = resolve_layouts_padded(&k, &b).unwrap();
        let mut dev = Device::new(MachineDesc::gtx280());
        for p in k.array_params() {
            dev.alloc_phantom(layouts[&p.name].clone());
        }
        let stats = launch(
            &k,
            &LaunchConfig::one_d(4, 16),
            &b,
            &mut dev,
            &ExecOptions {
                sample_blocks: Some(2),
                max_outer_iters: Some(16),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert!((stats.loop_truncation - 64.0).abs() < 1e-9);
        // ~half the sampled iterations take the guarded branch: the a-loads
        // scale to roughly half of the c-store-normalized full count.
        let scaled = stats.scaled(stats.loop_truncation);
        let full_guarded_requests = 2 * 512; // 2 sampled blocks x 512 rows
        let ratio = scaled.gmem_requests as f64 / full_guarded_requests as f64;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    /// Two sampled blocks of a 64×-truncated loop, under a budget of one
    /// millisecond per extrapolated warp instruction.
    fn budgeted_row_sum(limit_ms: f64) -> Result<ExecStats, ExecError> {
        let k = parse_kernel(
            "__global__ void f(float a[n][n], float c[n], int n) {
                float s = 0.0f;
                for (int r = 0; r < n; r = r + 1) { s += a[r][idx]; }
                c[idx] = s;
            }",
        )
        .unwrap();
        let b = binds(&[("n", 1024)]);
        let layouts = resolve_layouts_padded(&k, &b).unwrap();
        let mut dev = Device::new(MachineDesc::gtx280());
        for p in k.array_params() {
            dev.alloc_phantom(layouts[&p.name].clone());
        }
        let budget = ExecBudget {
            limit_ms,
            base_ms: 0.0,
            ms_per_warp_inst: 1.0,
            ms_per_global_byte: 0.0,
            ms_per_gmem_request: 0.0,
        };
        let opts = ExecOptions {
            sample_blocks: Some(2),
            max_outer_iters: Some(16),
            budget: Some(budget),
            ..ExecOptions::default()
        };
        launch(&k, &LaunchConfig::one_d(64, 16), &b, &mut dev, &opts)
    }

    #[test]
    fn budget_stops_only_traces_that_provably_exceed_it() {
        let free = budgeted_row_sum(f64::INFINITY).unwrap();
        let whole = free.scaled(free.extrapolation()).warp_insts as f64;
        // At exactly the finished trace's bound, the run completes unchanged.
        assert_eq!(budgeted_row_sum(whole).unwrap(), free);
        // Below it, the run stops after the first block: the partial
        // counters, extrapolated by the blocks and the truncation recorded
        // at loop entry, already cross the limit.
        match budgeted_row_sum(whole / 3.0) {
            Err(ExecError::OverBudget(bound)) => {
                assert!(bound > whole / 3.0 && bound < whole, "{bound} vs {whole}");
            }
            other => panic!("expected a pruned trace, got {other:?}"),
        }
    }

    fn san() -> ExecOptions {
        ExecOptions {
            sanitize: true,
            ..ExecOptions::default()
        }
    }

    fn kind_of(err: &ExecError) -> &'static str {
        match err {
            ExecError::Sanitizer(e) => e.name(),
            other => panic!("expected sanitizer error, got {other:?}"),
        }
    }

    #[test]
    fn sanitizer_catches_shared_race_without_barrier() {
        // The staging kernel from `shared_memory_staging_works`, with the
        // __syncthreads() dropped: lane 0 reads cell 15 written by lane 15
        // in the same epoch.
        let k = parse_kernel(
            "__global__ void f(float a[n], float c[n], int n) {
                __shared__ float s0[16];
                s0[tidx] = a[idx];
                c[idx] = s0[15 - tidx];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        dev.buffer_mut("a")
            .unwrap()
            .upload(&(0..16).map(|v| v as f32).collect::<Vec<_>>());
        let err = launch(&k, &LaunchConfig::one_d(1, 16), &b, &mut dev, &san()).unwrap_err();
        assert_eq!(kind_of(&err), "shared-race");
        // With the barrier restored the same kernel is clean.
        let k = parse_kernel(
            "__global__ void f(float a[n], float c[n], int n) {
                __shared__ float s0[16];
                s0[tidx] = a[idx];
                __syncthreads();
                c[idx] = s0[15 - tidx];
            }",
        )
        .unwrap();
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        dev.buffer_mut("a")
            .unwrap()
            .upload(&(0..16).map(|v| v as f32).collect::<Vec<_>>());
        launch(&k, &LaunchConfig::one_d(1, 16), &b, &mut dev, &san()).unwrap();
    }

    #[test]
    fn sanitizer_catches_global_oob_write() {
        let k = parse_kernel(
            "__global__ void f(float a[n], int n) { a[idx + 1] = 0.0f; }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let err = launch(&k, &LaunchConfig::one_d(1, 16), &b, &mut dev, &san()).unwrap_err();
        assert_eq!(kind_of(&err), "global-oob");
    }

    #[test]
    fn sanitizer_distinguishes_padding_reads() {
        // n = 20 pads the row pitch to 32; lanes past index 19 read cells
        // that exist in the allocation but not in the logical array.
        let k = parse_kernel(
            "__global__ void f(float a[n], float c[m], int n, int m) {
                c[idx] = a[idx + 16];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 20), ("m", 16)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        dev.buffer_mut("a")
            .unwrap()
            .upload(&(0..20).map(|v| v as f32).collect::<Vec<_>>());
        let err = launch(&k, &LaunchConfig::one_d(1, 16), &b, &mut dev, &san()).unwrap_err();
        assert_eq!(kind_of(&err), "padding-read");
        // Without the sanitizer the same run silently reads zeros.
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        dev.buffer_mut("a")
            .unwrap()
            .upload(&(0..20).map(|v| v as f32).collect::<Vec<_>>());
        launch(
            &k,
            &LaunchConfig::one_d(1, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn sanitizer_catches_uninitialized_reads() {
        let k = parse_kernel(
            "__global__ void f(float a[n], float c[n], int n) { c[idx] = a[idx]; }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        // `a` never uploaded: its cells are zero but undefined.
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let err = launch(&k, &LaunchConfig::one_d(1, 16), &b, &mut dev, &san()).unwrap_err();
        assert_eq!(kind_of(&err), "uninit-read");

        let shared = parse_kernel(
            "__global__ void f(float c[n], int n) {
                __shared__ float s0[16];
                c[idx] = s0[tidx];
            }",
        )
        .unwrap();
        let mut dev = device_for(&shared, &b, MachineDesc::gtx280());
        let err =
            launch(&shared, &LaunchConfig::one_d(1, 16), &b, &mut dev, &san()).unwrap_err();
        assert_eq!(kind_of(&err), "uninit-read");
        assert!(matches!(
            err,
            ExecError::Sanitizer(SanitizerError {
                kind: SanitizerKind::UninitializedRead { shared: true, .. },
                ..
            })
        ));
    }

    #[test]
    fn sanitizer_reports_barrier_divergence() {
        let k = parse_kernel(
            "__global__ void f(float a[n], int n) {
                if (tidx < 8) { __syncthreads(); }
                a[idx] = 0.0f;
            }",
        )
        .unwrap();
        let b = binds(&[("n", 32)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let err = launch(&k, &LaunchConfig::one_d(2, 16), &b, &mut dev, &san()).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Sanitizer(SanitizerError {
                kind: SanitizerKind::BarrierDivergence {
                    active: 8,
                    total: 16
                },
                ..
            })
        ));
    }

    #[test]
    fn sanitizer_flags_shared_overflow() {
        // 5000 floats = 20 000 B > the 16 KB per-SM shared memory.
        let k = parse_kernel(
            "__global__ void f(float c[n], int n) {
                __shared__ float s0[5000];
                s0[tidx] = 1.0f;
                __syncthreads();
                c[idx] = s0[tidx];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let err = launch(&k, &LaunchConfig::one_d(1, 16), &b, &mut dev, &san()).unwrap_err();
        assert_eq!(kind_of(&err), "shared-overflow");
    }

    #[test]
    fn sanitizer_clean_on_reference_mm() {
        let k = parse_kernel(
            r#"__global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
                float sum = 0.0f;
                for (int i = 0; i < w; i = i + 1) { sum += a[idy][i] * b[i][idx]; }
                c[idy][idx] = sum;
            }"#,
        )
        .unwrap();
        let n = 8i64;
        let bind = binds(&[("n", n), ("w", n)]);
        let mut dev = device_for(&k, &bind, MachineDesc::gtx280());
        let av: Vec<f32> = (0..n * n).map(|v| (v % 7) as f32).collect();
        dev.buffer_mut("a").unwrap().upload(&av);
        dev.buffer_mut("b").unwrap().upload(&av);
        let cfg = LaunchConfig {
            grid_x: 2,
            grid_y: 8,
            block_x: 4,
            block_y: 1,
        };
        launch(&k, &cfg, &bind, &mut dev, &san()).unwrap();
    }

    #[test]
    fn masked_off_lanes_do_not_fault() {
        // Lane 0 is masked off by the guard; its `idx % 0` must not be
        // computed, let alone kill the launch.
        let k = parse_kernel(
            "__global__ void f(float a[n], float c[n], int n) {
                if (tidx > 0) { c[idx] = a[(idx + 1) % tidx]; }
            }",
        )
        .unwrap();
        let b = binds(&[("n", 16)]);
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let src: Vec<f32> = (0..16).map(|v| v as f32 + 1.0).collect();
        dev.buffer_mut("a").unwrap().upload(&src);
        launch(
            &k,
            &LaunchConfig::one_d(1, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap();
        let want: Vec<f32> = (0..16usize)
            .map(|t| if t > 0 { src[(t + 1) % t] } else { 0.0 })
            .collect();
        assert_eq!(dev.buffer("c").unwrap().download(), want);
        // An active lane dividing by zero still faults.
        let k =
            parse_kernel("__global__ void f(float c[n], int n) { c[idx] = 1.0f * (idx / tidx); }")
                .unwrap();
        let mut dev = device_for(&k, &b, MachineDesc::gtx280());
        let err = launch(
            &k,
            &LaunchConfig::one_d(1, 16),
            &b,
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::Unsupported("integer division by zero".into())
        );
    }

    #[test]
    fn unbound_scalar_is_an_error() {
        let k = parse_kernel("__global__ void f(float a[n], int n) { a[idx] = 0.0f; }").unwrap();
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc(gpgpu_analysis::ArrayLayout::new(
            "a",
            gpgpu_ast::ScalarType::Float,
            vec![16],
        ));
        let err = launch(
            &k,
            &LaunchConfig::one_d(1, 16),
            &Bindings::new(),
            &mut dev,
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::UnboundScalar("n".into()));
    }
}
