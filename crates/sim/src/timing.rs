//! Analytic timing model, in the spirit of the Hong–Kim model the paper
//! cites for design-space exploration.
//!
//! The model is **trace-driven**: a handful of consecutive thread blocks are
//! executed by the functional interpreter against *phantom* buffers (address
//! computation only), yielding exact per-block transaction, instruction,
//! bank-conflict and partition statistics. Those are extrapolated to the
//! full launch and combined with an occupancy computation into three
//! bounds — compute throughput, memory bandwidth (degraded by partition
//! imbalance and element-width efficiency), and latency exposure (how much
//! of the round-trip latency the resident warps cannot hide). The kernel
//! time is the maximum of the three plus a fixed launch overhead.
//!
//! Absolute numbers are simulated, not measured; what the model preserves
//! is the *shape* of the paper's results: who wins, by what factor, and
//! where the crossovers fall.

use crate::cost::CostModelKind;
use crate::device::Device;
use crate::exec::{
    execute, ExecBudget, ExecError, ExecOptions, ExecStats, MemEvent, NullSink, VecSink,
};
use crate::lower::lower;
use crate::machine::MachineDesc;
use crate::mem::HierarchyStats;
use gpgpu_analysis::{estimate_resources, resolve_layouts_padded, Bindings, LayoutError};
use gpgpu_ast::{Kernel, LaunchConfig};
use std::fmt;

/// Blocks the trace executes by default.
pub const DEFAULT_SAMPLE_BLOCKS: usize = 6;

/// Fixed kernel-launch overhead in microseconds.
pub(crate) const LAUNCH_OVERHEAD_US: f64 = 5.0;

/// Extra cycles per bank-conflict serialization step.
pub(crate) const CONFLICT_CYCLES: f64 = 2.0;

/// Cycles for one warp instruction on an 8-SP SM (32 lanes / 8 SPs).
pub(crate) const CYCLES_PER_WARP_INST: f64 = 4.0;

/// Default cap on traced top-level loop iterations.
pub const DEFAULT_MAX_OUTER_ITERS: u64 = 24;

/// Options for [`estimate`].
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// How many consecutive blocks the trace executes.
    pub sample_blocks: usize,
    /// Cap on traced top-level loop iterations (trip counts beyond the cap
    /// are extrapolated linearly).
    pub max_outer_iters: Option<u64>,
    /// Per-trace fuel budget, forwarded to [`ExecOptions::fuel`]. `None`
    /// uses the interpreter's built-in step limit.
    pub fuel: Option<u64>,
    /// Wall-clock deadline, forwarded to [`ExecOptions::deadline`].
    pub deadline: Option<std::time::Instant>,
    /// Which [`crate::cost::CostModel`] combines the trace into a time.
    pub cost_model: CostModelKind,
    /// Worker threads for the trace's block loop, forwarded to
    /// [`ExecOptions::block_clusters`]. Estimates trace only a handful of
    /// blocks, so the default stays serial; verification-sized launches
    /// benefit.
    pub block_clusters: usize,
    /// Stop the trace with [`ExecError::OverBudget`] once its partial
    /// counters prove the estimate would exceed this many milliseconds.
    /// An estimate that completes is identical to an unbudgeted one. The
    /// design-space explorer sets it to the time of the point it evaluated
    /// first.
    pub prune_above_ms: Option<f64>,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            sample_blocks: DEFAULT_SAMPLE_BLOCKS,
            max_outer_iters: Some(DEFAULT_MAX_OUTER_ITERS),
            fuel: None,
            deadline: None,
            cost_model: CostModelKind::Analytic,
            block_clusters: 1,
            prune_above_ms: None,
        }
    }
}

/// Relative headroom on a prune limit. The trace bounds the time with the
/// same formulas as [`finish`], evaluated in a different order; this is far
/// above that rounding error and far below any gap worth a trace.
const PRUNE_HEADROOM: f64 = 1e-9;

/// Errors raised by the timing model.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfError {
    /// The kernel does not fit the machine at this launch configuration.
    DoesNotFit(String),
    /// Layout resolution failed.
    Layout(LayoutError),
    /// The trace execution failed (a compiler bug surfaced).
    Exec(ExecError),
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::DoesNotFit(s) => write!(f, "configuration does not fit: {s}"),
            PerfError::Layout(e) => write!(f, "{e}"),
            PerfError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PerfError {}

impl From<LayoutError> for PerfError {
    fn from(e: LayoutError) -> Self {
        PerfError::Layout(e)
    }
}

impl From<ExecError> for PerfError {
    fn from(e: ExecError) -> Self {
        PerfError::Exec(e)
    }
}

/// The timing model's verdict for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEstimate {
    /// Estimated execution time in milliseconds.
    pub time_ms: f64,
    /// Achieved GFLOPS (flops traced / time).
    pub gflops: f64,
    /// Effective bandwidth in GB/s (useful bytes / time).
    pub effective_bandwidth_gbps: f64,
    /// Thread blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Warps resident per SM.
    pub active_warps: u32,
    /// Compute-bound component (cycles).
    pub compute_cycles: f64,
    /// Bandwidth-bound component (cycles).
    pub memory_cycles: f64,
    /// Latency-exposure component (cycles).
    pub latency_cycles: f64,
    /// Partition imbalance factor applied to the memory component.
    pub partition_imbalance: f64,
    /// Fraction of moved bytes the kernel actually used.
    pub coalescing_efficiency: f64,
    /// Wall-clock microseconds spent in the phantom-trace phase (lowering
    /// plus the sampled interpreter run). Zero when the caller assembled
    /// the estimate from pre-scaled stats via [`finish`].
    pub trace_micros: u64,
    /// The part of [`Self::trace_micros`] spent lowering the kernel to its
    /// slot-resolved program, before any block executed.
    pub lower_micros: u64,
    /// Wall-clock microseconds spent in the occupancy + analytical-model
    /// phase.
    pub model_micros: u64,
    /// Per-level hierarchy counters, present when the estimate came from
    /// the `hierarchy` cost model.
    pub hierarchy: Option<HierarchyStats>,
    /// Scaled whole-launch trace statistics.
    pub stats: ExecStats,
}

impl PerfEstimate {
    /// Flattens the estimate plus its [`ExecStats`] into one ordered
    /// counter snapshot for the metrics registry. Counter names are part
    /// of the `gpgpu-trace/v1` schema.
    pub fn counter_snapshot(&self) -> gpgpu_trace::CounterSnapshot {
        let mut s = gpgpu_trace::CounterSnapshot::new();
        s.push("time_ms", self.time_ms);
        s.push("gflops", self.gflops);
        s.push("bandwidth_gbps", self.effective_bandwidth_gbps);
        s.push("blocks_per_sm", self.blocks_per_sm as f64);
        s.push("active_warps", self.active_warps as f64);
        s.push("compute_cycles", self.compute_cycles);
        s.push("memory_cycles", self.memory_cycles);
        s.push("latency_cycles", self.latency_cycles);
        s.push("partition_imbalance", self.partition_imbalance);
        s.push("coalescing_efficiency", self.coalescing_efficiency);
        s.push("blocks_executed", self.stats.blocks_executed as f64);
        s.push("total_blocks", self.stats.total_blocks as f64);
        s.push("warp_insts", self.stats.warp_insts as f64);
        s.push("flops", self.stats.flops as f64);
        s.push("global_transactions", self.stats.global_transactions as f64);
        s.push("global_bytes", self.stats.global_bytes as f64);
        s.push("useful_bytes", self.stats.useful_bytes as f64);
        s.push("gmem_requests", self.stats.gmem_requests as f64);
        s.push("shared_accesses", self.stats.shared_accesses as f64);
        s.push(
            "shared_conflict_cycles",
            self.stats.shared_conflict_cycles as f64,
        );
        s.push("loop_truncation", self.stats.loop_truncation);
        s.push("gsync_crossings", self.stats.gsync_crossings as f64);
        if let Some(h) = &self.hierarchy {
            s.push("l1_hits", h.l1_hits as f64);
            s.push("l1_misses", h.l1_misses as f64);
            s.push("l1_hit_rate", h.l1_hit_rate());
            s.push("l2_hits", h.l2_hits as f64);
            s.push("l2_misses", h.l2_misses as f64);
            s.push("l2_hit_rate", h.l2_hit_rate());
            s.push("mshr_merges", h.mshr_merges as f64);
            s.push("partition_queue_peak", h.partition_queue_peak as f64);
            s.push("dram_bytes", h.dram_bytes as f64);
        }
        s
    }

    /// The bounding component's name, for reports.
    pub fn bound_by(&self) -> &'static str {
        let m = self
            .compute_cycles
            .max(self.memory_cycles)
            .max(self.latency_cycles);
        if m == self.memory_cycles {
            "memory bandwidth"
        } else if m == self.compute_cycles {
            "compute"
        } else {
            "memory latency"
        }
    }
}

/// Estimates the execution time of one kernel launch on `machine`.
///
/// # Errors
///
/// Returns [`PerfError::DoesNotFit`] when the per-block footprint exceeds
/// the machine (the design-space explorer uses this to prune), or
/// propagates trace failures.
pub fn estimate(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    machine: &MachineDesc,
    opts: &PerfOptions,
) -> Result<PerfEstimate, PerfError> {
    let resources = estimate_resources(kernel);
    let layouts = resolve_layouts_padded(kernel, bindings)?;
    estimate_prepared(kernel, cfg, bindings, machine, opts, &resources, &layouts)
}

/// Occupancy and fit checks shared by [`estimate`] and
/// [`estimate_prepared`]: registers and shared memory against the machine
/// limits, then resident blocks per SM.
pub(crate) fn occupancy(
    resources: &gpgpu_analysis::ResourceEstimate,
    machine: &MachineDesc,
    cfg: &LaunchConfig,
) -> Result<u32, PerfError> {
    if resources.registers_per_thread > machine.max_regs_per_thread {
        return Err(PerfError::DoesNotFit(format!(
            "{} registers per thread exceeds {}",
            resources.registers_per_thread, machine.max_regs_per_thread
        )));
    }
    if resources.shared_bytes_per_block > machine.shared_per_sm as u64 {
        return Err(PerfError::DoesNotFit(format!(
            "{} shared bytes per block exceeds {}",
            resources.shared_bytes_per_block, machine.shared_per_sm
        )));
    }
    let tpb = cfg.threads_per_block();
    let blocks_per_sm = machine.blocks_per_sm(
        tpb,
        resources.registers_per_thread,
        resources.shared_bytes_per_block,
    );
    if blocks_per_sm == 0 {
        return Err(PerfError::DoesNotFit(format!(
            "no block of {tpb} threads fits an SM"
        )));
    }
    Ok(blocks_per_sm)
}

/// [`estimate`] for callers that already hold the resource estimate and
/// resolved layouts — the design-space explorer reuses the analysis
/// manager's memoized results instead of recomputing them per candidate.
///
/// # Errors
///
/// Same contract as [`estimate`].
pub fn estimate_prepared(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    machine: &MachineDesc,
    opts: &PerfOptions,
    resources: &gpgpu_analysis::ResourceEstimate,
    layouts: &gpgpu_analysis::LayoutMap,
) -> Result<PerfEstimate, PerfError> {
    opts.cost_model
        .model()
        .estimate_prepared(kernel, cfg, bindings, machine, opts, resources, layouts)
}

/// A sampled phantom trace, scaled to the full launch, shared by every
/// [`crate::cost::CostModel`].
pub(crate) struct SampledTrace {
    /// Whole-launch (scaled) statistics.
    pub stats: ExecStats,
    /// Extrapolation factor applied (block sampling × loop truncation).
    pub factor: f64,
    /// Resident blocks per SM from the occupancy computation.
    pub blocks_per_sm: u32,
    /// Wall-clock microseconds in the interpreter, lowering included.
    pub trace_micros: u64,
    /// Wall-clock microseconds of that spent lowering.
    pub lower_micros: u64,
    /// Wall-clock microseconds in the occupancy computation.
    pub occupancy_micros: u64,
    /// Raw (unscaled) transaction stream; empty unless requested.
    pub events: Vec<MemEvent>,
}

/// Runs the occupancy check and the phantom-buffer trace, optionally
/// collecting the [`MemEvent`] stream for trace-driven models.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sample_trace(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    machine: &MachineDesc,
    opts: &PerfOptions,
    resources: &gpgpu_analysis::ResourceEstimate,
    layouts: &gpgpu_analysis::LayoutMap,
    collect_events: bool,
) -> Result<SampledTrace, PerfError> {
    let model_started = std::time::Instant::now();
    let blocks_per_sm = occupancy(resources, machine, cfg)?;
    let occupancy_micros = model_started.elapsed().as_micros() as u64;

    // Phantom trace over a sample of consecutive blocks.
    let trace_started = std::time::Instant::now();
    let mut device = Device::new(machine.clone());
    for p in kernel.array_params() {
        device.alloc_phantom(layouts[&p.name].clone());
    }
    let exec_opts = ExecOptions {
        sample_blocks: Some(opts.sample_blocks),
        max_outer_iters: opts.max_outer_iters,
        sample_spread: Some(machine.sm_count as u64 * blocks_per_sm as u64),
        fuel: opts.fuel,
        deadline: opts.deadline,
        block_clusters: opts.block_clusters,
        // A model that replays the event stream takes its memory and
        // latency bounds from the replay, so only compute can prune it.
        budget: opts
            .prune_above_ms
            .map(|limit| prune_budget(kernel, cfg, machine, blocks_per_sm, limit, collect_events)),
        ..ExecOptions::default()
    };
    let program = lower(kernel, cfg, bindings, &device)?;
    let lower_micros = trace_started.elapsed().as_micros() as u64;
    let mut events = VecSink::default();
    let stats = if collect_events {
        execute(&program, &mut device, &exec_opts, &mut events)?
    } else {
        execute(&program, &mut device, &exec_opts, &mut NullSink)?
    };
    let trace_micros = trace_started.elapsed().as_micros() as u64;

    let factor = stats.extrapolation();
    Ok(SampledTrace {
        stats: stats.scaled(factor),
        factor,
        blocks_per_sm,
        trace_micros,
        lower_micros,
        occupancy_micros,
        events: events.events,
    })
}

/// Combines trace statistics and occupancy into the final estimate. Public
/// so that callers who traced at a reduced problem size can scale the stats
/// themselves (`ExecStats::scaled`) and still get a consistent estimate.
pub fn finish(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    machine: &MachineDesc,
    blocks_per_sm: u32,
    stats: ExecStats,
) -> PerfEstimate {
    let (active_warps, busy_sms) = residency(cfg, machine, blocks_per_sm);

    // Compute bound: all warp instructions, spread over the busy SMs, plus
    // bank-conflict serialization.
    let compute_cycles = (stats.warp_insts as f64 * CYCLES_PER_WARP_INST
        + stats.shared_conflict_cycles as f64 * CONFLICT_CYCLES)
        / busy_sms;

    // Bandwidth bound: moved bytes over sustained bandwidth, degraded by
    // partition imbalance (camping queues requests on one partition).
    let imbalance = stats.partition_imbalance();
    let memory_cycles =
        stats.global_bytes as f64 / machine.bytes_per_cycle(widest_elem(kernel)) * imbalance;

    // Latency bound: each half-warp request keeps its warp waiting; the
    // resident warps hide each other's latency.
    let requests_per_sm = stats.gmem_requests as f64 / busy_sms;
    let latency_cycles =
        requests_per_sm * machine.mem_latency_cycles / f64::from(active_warps.min(32));

    let cycles = compute_cycles
        .max(memory_cycles)
        .max(latency_cycles)
        .max(1.0);
    // Each grid-wide barrier is a kernel relaunch on real hardware.
    let launches = 1.0 + stats.gsync_crossings as f64;
    let time_ms = cycles / (machine.clock_ghz * 1e9) * 1e3 + launches * LAUNCH_OVERHEAD_US / 1e3;
    let gflops = stats.flops as f64 / (time_ms * 1e-3) / 1e9;
    let effective_bandwidth_gbps = stats.useful_bytes as f64 / (time_ms * 1e-3) / 1e9;

    PerfEstimate {
        time_ms,
        gflops,
        effective_bandwidth_gbps,
        blocks_per_sm,
        active_warps,
        compute_cycles,
        memory_cycles,
        latency_cycles,
        partition_imbalance: imbalance,
        coalescing_efficiency: stats.coalescing_efficiency(),
        trace_micros: 0,
        lower_micros: 0,
        model_micros: 0,
        hierarchy: None,
        stats,
    }
}

/// Warps resident per SM, and the SMs a launch keeps busy (a launch with
/// fewer blocks than SMs leaves the rest idle).
pub(crate) fn residency(
    cfg: &LaunchConfig,
    machine: &MachineDesc,
    blocks_per_sm: u32,
) -> (u32, f64) {
    let warps_per_block = cfg.threads_per_block().div_ceil(machine.warp_size);
    let active_warps = (blocks_per_sm * warps_per_block).max(1);
    let busy_sms = (machine.sm_count as u64).min(cfg.total_blocks()).max(1) as f64;
    (active_warps, busy_sms)
}

/// Widest array element in bytes (drives sustained-bandwidth efficiency).
pub(crate) fn widest_elem(kernel: &Kernel) -> u32 {
    kernel
        .array_params()
        .map(|p| p.ty.size_bytes())
        .max()
        .unwrap_or(4)
}

/// The trace budget that stops an estimate once it provably exceeds
/// `limit_ms`: [`finish`]'s compute, bandwidth and latency bounds as costs
/// per extrapolated counter, over one launch overhead. What the budget
/// leaves out only adds time: bank-conflict cycles, the partition
/// imbalance (≥ 1), the `max(1)` cycle floor and launches for `__gsync`
/// crossings. With `replayed` (a model that replays the event stream) only
/// the compute bound applies.
fn prune_budget(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    machine: &MachineDesc,
    blocks_per_sm: u32,
    limit_ms: f64,
    replayed: bool,
) -> ExecBudget {
    let (active_warps, busy_sms) = residency(cfg, machine, blocks_per_sm);
    let ms_per_cycle = 1e3 / (machine.clock_ghz * 1e9);
    let (ms_per_global_byte, ms_per_gmem_request) = if replayed {
        (0.0, 0.0)
    } else {
        let hiding = f64::from(active_warps.min(32));
        (
            ms_per_cycle / machine.bytes_per_cycle(widest_elem(kernel)),
            ms_per_cycle * machine.mem_latency_cycles / busy_sms / hiding,
        )
    };
    ExecBudget {
        limit_ms: limit_ms * (1.0 + PRUNE_HEADROOM),
        base_ms: LAUNCH_OVERHEAD_US / 1e3,
        ms_per_warp_inst: ms_per_cycle * CYCLES_PER_WARP_INST / busy_sms,
        ms_per_global_byte,
        ms_per_gmem_request,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_ast::parse_kernel;

    fn binds(pairs: &[(&str, i64)]) -> Bindings {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    const NAIVE_MM: &str = r#"
        __global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
            float sum = 0.0f;
            for (int i = 0; i < w; i = i + 1) { sum += a[idy][i] * b[i][idx]; }
            c[idy][idx] = sum;
        }
    "#;

    #[test]
    fn naive_mm_is_memory_bound_and_wasteful() {
        let k = parse_kernel(NAIVE_MM).unwrap();
        let b = binds(&[("n", 512), ("w", 512)]);
        let cfg = LaunchConfig {
            grid_x: 32,
            grid_y: 512,
            block_x: 16,
            block_y: 1,
        };
        let est = estimate(&k, &cfg, &b, &MachineDesc::gtx280(), &PerfOptions::default()).unwrap();
        // The a[idy][i] broadcast wastes 7/8 of each 32-byte line.
        assert!(est.coalescing_efficiency < 0.8, "{est:?}");
        assert!(est.gflops > 0.0);
        assert!(est.time_ms > 0.0);
    }

    #[test]
    fn coalesced_mm_beats_naive() {
        let naive = parse_kernel(NAIVE_MM).unwrap();
        let coalesced = parse_kernel(
            r#"__global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
                float sum = 0.0f;
                for (int i = 0; i < w; i = i + 16) {
                    __shared__ float shared0[16];
                    shared0[tidx] = a[idy][i + tidx];
                    __syncthreads();
                    for (int k = 0; k < 16; k = k + 1) {
                        sum += shared0[k] * b[i + k][idx];
                    }
                    __syncthreads();
                }
                c[idy][idx] = sum;
            }"#,
        )
        .unwrap();
        let b = binds(&[("n", 512), ("w", 512)]);
        let cfg = LaunchConfig {
            grid_x: 32,
            grid_y: 512,
            block_x: 16,
            block_y: 1,
        };
        let m = MachineDesc::gtx280();
        let t_naive = estimate(&naive, &cfg, &b, &m, &PerfOptions::default()).unwrap();
        let t_coal = estimate(&coalesced, &cfg, &b, &m, &PerfOptions::default()).unwrap();
        assert!(
            t_coal.time_ms < t_naive.time_ms,
            "coalesced {:?} vs naive {:?}",
            t_coal.time_ms,
            t_naive.time_ms
        );
        assert!(t_coal.coalescing_efficiency > t_naive.coalescing_efficiency);
    }

    #[test]
    fn prune_budget_stops_only_estimates_above_it() {
        let k = parse_kernel(NAIVE_MM).unwrap();
        let b = binds(&[("n", 512), ("w", 512)]);
        let cfg = LaunchConfig {
            grid_x: 32,
            grid_y: 512,
            block_x: 16,
            block_y: 1,
        };
        let m = MachineDesc::gtx280();
        for cost_model in CostModelKind::ALL {
            let free_opts = PerfOptions {
                cost_model,
                ..PerfOptions::default()
            };
            let mut free = estimate(&k, &cfg, &b, &m, &free_opts).unwrap();
            let at_own_time = PerfOptions {
                prune_above_ms: Some(free.time_ms),
                ..free_opts.clone()
            };
            let mut capped = estimate(&k, &cfg, &b, &m, &at_own_time).unwrap();
            for est in [&mut free, &mut capped] {
                (est.trace_micros, est.lower_micros, est.model_micros) = (0, 0, 0);
            }
            assert_eq!(capped, free, "{cost_model}");
            // Every launch costs its overhead, so a zero budget prunes.
            let zero = PerfOptions {
                prune_above_ms: Some(0.0),
                ..free_opts
            };
            assert!(matches!(
                estimate(&k, &cfg, &b, &m, &zero),
                Err(PerfError::Exec(ExecError::OverBudget(bound))) if bound > 0.0
            ));
        }
    }

    #[test]
    fn oversized_blocks_rejected() {
        let k = parse_kernel(NAIVE_MM).unwrap();
        let b = binds(&[("n", 512), ("w", 512)]);
        let cfg = LaunchConfig {
            grid_x: 1,
            grid_y: 1,
            block_x: 1024,
            block_y: 1,
        };
        assert!(matches!(
            estimate(&k, &cfg, &b, &MachineDesc::gtx280(), &PerfOptions::default()),
            Err(PerfError::DoesNotFit(_))
        ));
    }

    #[test]
    fn shared_overflow_rejected() {
        let k = parse_kernel(
            "__global__ void f(float a[n], int n) {
                __shared__ float s0[5000];
                s0[tidx] = a[idx];
                __syncthreads();
                a[idx] = s0[tidx];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 1024)]);
        let cfg = LaunchConfig::one_d(64, 16);
        assert!(matches!(
            estimate(&k, &cfg, &b, &MachineDesc::gtx280(), &PerfOptions::default()),
            Err(PerfError::DoesNotFit(_))
        ));
    }

    #[test]
    fn partition_camping_slows_the_kernel() {
        // Row-walk mv at 4096 camps on GTX 280 (power-of-two resonance)
        // but not at 4096+64 rows... compare imbalance factors directly.
        let k = parse_kernel(
            "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) {
                float s = 0.0f;
                for (int i = 0; i < w; i = i + 1) { s += a[idx][i] * b[i]; }
                c[idx] = s;
            }",
        )
        .unwrap();
        let m = MachineDesc::gtx280();
        let cfg = LaunchConfig::one_d(64, 16);
        let camped = estimate(
            &k,
            &cfg,
            &binds(&[("n", 1024), ("w", 4096)]),
            &m,
            &PerfOptions::default(),
        )
        .unwrap();
        let spread = estimate(
            &k,
            &cfg,
            &binds(&[("n", 1024), ("w", 4096 + 64)]),
            &m,
            &PerfOptions::default(),
        )
        .unwrap();
        assert!(
            camped.partition_imbalance > spread.partition_imbalance,
            "camped {} vs spread {}",
            camped.partition_imbalance,
            spread.partition_imbalance
        );
    }

    #[test]
    fn more_parallelism_hides_latency() {
        let k = parse_kernel(
            "__global__ void cp(float a[n][n], float c[n][n], int n) {
                c[idy][idx] = a[idy][idx];
            }",
        )
        .unwrap();
        let b = binds(&[("n", 1024)]);
        let m = MachineDesc::gtx280();
        let small = LaunchConfig {
            grid_x: 64,
            grid_y: 1024,
            block_x: 16,
            block_y: 1,
        };
        let big = LaunchConfig {
            grid_x: 8,
            grid_y: 1024,
            block_x: 128,
            block_y: 1,
        };
        let t16 = estimate(&k, &small, &b, &m, &PerfOptions::default()).unwrap();
        let t128 = estimate(&k, &big, &b, &m, &PerfOptions::default()).unwrap();
        assert!(t128.active_warps > t16.active_warps);
        assert!(t128.latency_cycles < t16.latency_cycles);
    }

    #[test]
    fn bound_by_reports_dominant_component() {
        let est = PerfEstimate {
            time_ms: 1.0,
            gflops: 1.0,
            effective_bandwidth_gbps: 1.0,
            blocks_per_sm: 1,
            active_warps: 8,
            compute_cycles: 10.0,
            memory_cycles: 100.0,
            latency_cycles: 50.0,
            partition_imbalance: 1.0,
            coalescing_efficiency: 1.0,
            trace_micros: 0,
            lower_micros: 0,
            model_micros: 0,
            hierarchy: None,
            stats: ExecStats::default(),
        };
        assert_eq!(est.bound_by(), "memory bandwidth");
    }
}
