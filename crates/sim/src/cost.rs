//! Cost-model abstraction: the timing stack behind a trait, with two
//! implementations.
//!
//! [`AnalyticModel`] is the original MWP/CWP-style combine
//! ([`crate::timing`]): three closed-form bounds over the sampled trace
//! statistics. [`HierarchyModel`] replays the interpreter's per-line
//! transaction stream ([`crate::exec::MemEvent`]) through the
//! [`crate::mem`] subsystem — per-SM L1s with MSHR merging, L2 slices over
//! the memory partitions — so reuse, merge, and queueing effects the
//! analytic model cannot see shape the memory and latency bounds.
//!
//! Both models must reproduce the paper's *shapes* (fig10 occupancy ridge,
//! fig11 winner orderings, camping crossovers); `gpgpuc validate` and
//! `tests/model_validation.rs` gate that property in CI.

use crate::exec::ExecStats;
use crate::machine::MachineDesc;
use crate::mem::{HierarchySim, HierarchyStats};
use crate::timing::{
    finish, residency, sample_trace, widest_elem, PerfError, PerfEstimate, PerfOptions,
    CONFLICT_CYCLES, CYCLES_PER_WARP_INST, LAUNCH_OVERHEAD_US,
};
use gpgpu_analysis::Bindings;
use gpgpu_ast::{Kernel, LaunchConfig};
use std::fmt;

/// Which cost model scores candidates. Selected by `--cost-model` on the
/// CLI and `CompileOptions::cost_model` in the library; part of compile
/// cache fingerprints, so artifacts tuned under one model are never served
/// to the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostModelKind {
    /// Closed-form MWP/CWP-style combine over sampled trace statistics.
    #[default]
    Analytic,
    /// Trace-driven L1/MSHR/L2/partition-queue simulation.
    Hierarchy,
}

impl CostModelKind {
    /// Every selectable model, for CLIs and validation sweeps.
    pub const ALL: [CostModelKind; 2] = [CostModelKind::Analytic, CostModelKind::Hierarchy];

    /// Stable identifier: `"analytic"` or `"hierarchy"`. Part of the trace
    /// schema and cache fingerprint.
    pub fn as_str(self) -> &'static str {
        match self {
            CostModelKind::Analytic => "analytic",
            CostModelKind::Hierarchy => "hierarchy",
        }
    }

    /// Parses an identifier (case-insensitive).
    pub fn parse(s: &str) -> Option<CostModelKind> {
        match s.to_ascii_lowercase().as_str() {
            "analytic" => Some(CostModelKind::Analytic),
            "hierarchy" => Some(CostModelKind::Hierarchy),
            _ => None,
        }
    }

    /// The model implementation for this kind.
    pub fn model(self) -> &'static dyn CostModel {
        match self {
            CostModelKind::Analytic => &AnalyticModel,
            CostModelKind::Hierarchy => &HierarchyModel,
        }
    }
}

impl fmt::Display for CostModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for CostModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CostModelKind::parse(s)
            .ok_or_else(|| format!("unknown cost model `{s}` (expected analytic|hierarchy)"))
    }
}

/// A kernel-launch timing model.
///
/// Implementations share the phantom-buffer trace sampling
/// (`sample_trace` in the timing module) and differ in how they combine
/// the observations into the three cycle bounds.
pub trait CostModel: Send + Sync {
    /// The identifier this model answers to.
    fn kind(&self) -> CostModelKind;

    /// Estimates one launch from a pre-computed resource estimate and
    /// layout map (the design-space explorer's memoized analyses).
    ///
    /// # Errors
    ///
    /// [`PerfError::DoesNotFit`] when the launch exceeds the machine, or a
    /// propagated trace failure.
    #[allow(clippy::too_many_arguments)]
    fn estimate_prepared(
        &self,
        kernel: &Kernel,
        cfg: &LaunchConfig,
        bindings: &Bindings,
        machine: &MachineDesc,
        opts: &PerfOptions,
        resources: &gpgpu_analysis::ResourceEstimate,
        layouts: &gpgpu_analysis::LayoutMap,
    ) -> Result<PerfEstimate, PerfError>;

    /// Combines externally scaled trace statistics into an estimate — the
    /// shrunk-trace path for `__gsync` mega-kernels, where the caller
    /// traced a reduced problem size and scaled the counters itself.
    fn finish_scaled(
        &self,
        kernel: &Kernel,
        cfg: &LaunchConfig,
        machine: &MachineDesc,
        blocks_per_sm: u32,
        stats: ExecStats,
    ) -> PerfEstimate;
}

/// The original closed-form model (paper-era behaviour; the default).
pub struct AnalyticModel;

impl CostModel for AnalyticModel {
    fn kind(&self) -> CostModelKind {
        CostModelKind::Analytic
    }

    fn estimate_prepared(
        &self,
        kernel: &Kernel,
        cfg: &LaunchConfig,
        bindings: &Bindings,
        machine: &MachineDesc,
        opts: &PerfOptions,
        resources: &gpgpu_analysis::ResourceEstimate,
        layouts: &gpgpu_analysis::LayoutMap,
    ) -> Result<PerfEstimate, PerfError> {
        let t = sample_trace(kernel, cfg, bindings, machine, opts, resources, layouts, false)?;
        let started = std::time::Instant::now();
        let mut est = finish(kernel, cfg, machine, t.blocks_per_sm, t.stats);
        est.trace_micros = t.trace_micros;
        est.lower_micros = t.lower_micros;
        est.model_micros = t.occupancy_micros + started.elapsed().as_micros() as u64;
        Ok(est)
    }

    fn finish_scaled(
        &self,
        kernel: &Kernel,
        cfg: &LaunchConfig,
        machine: &MachineDesc,
        blocks_per_sm: u32,
        stats: ExecStats,
    ) -> PerfEstimate {
        finish(kernel, cfg, machine, blocks_per_sm, stats)
    }
}

/// The trace-driven memory-hierarchy model.
pub struct HierarchyModel;

impl CostModel for HierarchyModel {
    fn kind(&self) -> CostModelKind {
        CostModelKind::Hierarchy
    }

    fn estimate_prepared(
        &self,
        kernel: &Kernel,
        cfg: &LaunchConfig,
        bindings: &Bindings,
        machine: &MachineDesc,
        opts: &PerfOptions,
        resources: &gpgpu_analysis::ResourceEstimate,
        layouts: &gpgpu_analysis::LayoutMap,
    ) -> Result<PerfEstimate, PerfError> {
        let t = sample_trace(kernel, cfg, bindings, machine, opts, resources, layouts, true)?;
        let started = std::time::Instant::now();
        let widest = widest_elem(kernel);
        let hstats = HierarchySim::new(machine, widest)
            .replay(&t.events)
            .scaled(t.factor);
        let mut est = finish_hierarchy(kernel, cfg, machine, t.blocks_per_sm, t.stats, hstats);
        est.trace_micros = t.trace_micros;
        est.lower_micros = t.lower_micros;
        est.model_micros = t.occupancy_micros + started.elapsed().as_micros() as u64;
        Ok(est)
    }

    fn finish_scaled(
        &self,
        kernel: &Kernel,
        cfg: &LaunchConfig,
        machine: &MachineDesc,
        blocks_per_sm: u32,
        stats: ExecStats,
    ) -> PerfEstimate {
        // Externally scaled counters carry no replayable event stream
        // (the shrunk-trace `__gsync` path), so the analytic combine
        // scores these launches under either model; `hierarchy` stays
        // `None` to make the fallback visible in reports.
        finish(kernel, cfg, machine, blocks_per_sm, stats)
    }
}

/// Combines trace statistics and hierarchy counters into the final
/// estimate. Occupancy and the compute bound match the analytic model;
/// the memory bound is the hottest partition's busy cycles (camping
/// backpressure emerges from the address decoding instead of being a
/// correction factor), and latency exposure is scaled by the L1 miss
/// fraction with L2 hits charged half the round trip.
pub fn finish_hierarchy(
    _kernel: &Kernel,
    cfg: &LaunchConfig,
    machine: &MachineDesc,
    blocks_per_sm: u32,
    stats: ExecStats,
    hstats: HierarchyStats,
) -> PerfEstimate {
    let (active_warps, busy_sms) = residency(cfg, machine, blocks_per_sm);

    let compute_cycles = (stats.warp_insts as f64 * CYCLES_PER_WARP_INST
        + stats.shared_conflict_cycles as f64 * CONFLICT_CYCLES)
        / busy_sms;

    let memory_cycles = hstats.memory_cycles();

    // Latency bound: only L1 misses expose the round trip; L2 hits expose
    // roughly half of it.
    let miss_frac = 1.0 - hstats.l1_hit_rate();
    let l2_frac = hstats.l2_hit_rate();
    let effective_latency = machine.mem_latency_cycles * ((1.0 - l2_frac) + 0.5 * l2_frac);
    let requests_per_sm = stats.gmem_requests as f64 / busy_sms;
    let latency_cycles =
        requests_per_sm * miss_frac * effective_latency / f64::from(active_warps.min(32));

    let cycles = compute_cycles
        .max(memory_cycles)
        .max(latency_cycles)
        .max(1.0);
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
        partition_imbalance: hstats.busy_imbalance(),
        coalescing_efficiency: stats.coalescing_efficiency(),
        trace_micros: 0,
        lower_micros: 0,
        model_micros: 0,
        hierarchy: Some(hstats),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_analysis::{estimate_resources, resolve_layouts_padded};
    use gpgpu_ast::parse_kernel;

    fn binds(pairs: &[(&str, i64)]) -> Bindings {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in CostModelKind::ALL {
            assert_eq!(CostModelKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.model().kind(), kind);
        }
        assert_eq!(CostModelKind::parse("ANALYTIC"), Some(CostModelKind::Analytic));
        assert!(CostModelKind::parse("magic").is_none());
        assert!("hierarchy".parse::<CostModelKind>().is_ok());
        assert!("nope".parse::<CostModelKind>().is_err());
    }

    #[test]
    fn hierarchy_model_attaches_counters_and_agrees_on_occupancy() {
        let k = parse_kernel(
            "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) {
                float s = 0.0f;
                for (int i = 0; i < w; i = i + 1) { s += a[idx][i] * b[i]; }
                c[idx] = s;
            }",
        )
        .unwrap();
        // w = 24 keeps the traced loop inside the default iteration cap,
        // so the row walk's line reuse is visible to the hierarchy (loop
        // truncation strides traced iterations apart).
        let b = binds(&[("n", 1024), ("w", 24)]);
        let cfg = LaunchConfig::one_d(64, 16);
        let m = MachineDesc::gtx280();
        let resources = estimate_resources(&k);
        let layouts = resolve_layouts_padded(&k, &b).unwrap();
        let analytic = AnalyticModel
            .estimate_prepared(
                &k,
                &cfg,
                &b,
                &m,
                &PerfOptions::default(),
                &resources,
                &layouts,
            )
            .unwrap();
        let hier = HierarchyModel
            .estimate_prepared(
                &k,
                &cfg,
                &b,
                &m,
                &PerfOptions {
                    cost_model: CostModelKind::Hierarchy,
                    ..PerfOptions::default()
                },
                &resources,
                &layouts,
            )
            .unwrap();
        assert!(analytic.hierarchy.is_none());
        let h = hier.hierarchy.as_ref().expect("hierarchy counters");
        assert!(h.l1_hits > 0, "row walk rereads lines: {h:?}");
        assert_eq!(hier.blocks_per_sm, analytic.blocks_per_sm);
        assert_eq!(hier.active_warps, analytic.active_warps);
        assert!(hier.time_ms > 0.0);
        // The b[i] stream is shared by every lane and block — the
        // hierarchy sees that reuse, the analytic model cannot, so the
        // hierarchy's memory bound must not exceed the analytic one.
        assert!(hier.memory_cycles <= analytic.memory_cycles * 1.01);
    }

    #[test]
    fn camping_crossover_reproduces_under_hierarchy() {
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
        let opts = PerfOptions {
            cost_model: CostModelKind::Hierarchy,
            ..PerfOptions::default()
        };
        let run = |w: i64| {
            let b = binds(&[("n", 1024), ("w", w)]);
            let resources = estimate_resources(&k);
            let layouts = resolve_layouts_padded(&k, &b).unwrap();
            HierarchyModel
                .estimate_prepared(&k, &cfg, &b, &m, &opts, &resources, &layouts)
                .unwrap()
        };
        let camped = run(4096);
        let spread = run(4096 + 64);
        assert!(
            camped.partition_imbalance > spread.partition_imbalance,
            "camped {} vs spread {}",
            camped.partition_imbalance,
            spread.partition_imbalance
        );
    }
}
