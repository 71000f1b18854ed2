//! The explorer prunes a design point once its partial trace proves it
//! slower than the point probed first. These tests hold the two properties
//! that make pruning safe to leave on:
//!
//! * **Sound:** a budget equal to an estimate's own time never stops its
//!   trace, and the estimate comes back unchanged, for every design point
//!   of the Table-1 kernels and of generated kernels, under both cost
//!   models. A pruned point is therefore strictly slower than the probe and
//!   could never have won.
//! * **Deterministic:** the budget depends on the probe alone, so the same
//!   points are pruned with the same bounds for any worker count; a search
//!   that feeds a tuning store prunes nothing.

use gpgpu::analysis::Bindings;
use gpgpu::ast::Kernel;
use gpgpu::core::{
    compile, CompileOptions, CompiledKernel, KernelLaunch, TraceEvent, TuningStore, WarmStartPlan,
};
use gpgpu::fuzz::{FuzzRng, KernelSpec};
use gpgpu::sim::{
    estimate, CostModelKind, ExecError, MachineDesc, PerfError, PerfEstimate, PerfOptions,
};
use std::sync::Arc;

/// Generated kernels checked beside Table 1.
const FUZZ_SPECS: u64 = 32;

/// Blocks each trace of the soundness sweep samples. The budget arithmetic
/// does not depend on the sample size, and two blocks instead of the
/// default six keep the sweep over every design point fast.
const SWEEP_SAMPLE_BLOCKS: usize = 2;

fn options(bindings: &Bindings, model: CostModelKind) -> CompileOptions {
    CompileOptions {
        bindings: bindings.clone(),
        ..CompileOptions::new(MachineDesc::gtx280()).with_cost_model(model)
    }
}

/// Every launch of every design point of `kernel` that produces an
/// estimate, with that estimate: each merge point compiled alone (a
/// one-seed warm start has nothing to prune against), plus the winner,
/// which covers a reduction's two-launch rewrite.
fn point_launches(kernel: &Kernel, opts: &CompileOptions) -> Vec<(KernelLaunch, PerfEstimate)> {
    let Ok(compiled) = compile(kernel, opts) else {
        return Vec::new();
    };
    let mut points = vec![compiled.clone()];
    for event in compiled.trace.events() {
        if let TraceEvent::CandidateEvaluated {
            block_merge_x,
            thread_merge_y,
            thread_merge_x,
            reduction_elems: None,
            ..
        } = event
        {
            let mut alone = opts.clone();
            alone.explore.warm_start = Some(WarmStartPlan {
                seeds: vec![(*block_merge_x, *thread_merge_y, *thread_merge_x)],
                expand: false,
            });
            points.extend(
                compile(kernel, &alone)
                    .ok()
                    .filter(|c| c.degraded.is_none()),
            );
        }
    }
    points
        .into_iter()
        .flat_map(|c| c.launches.into_iter().zip(c.per_launch))
        .collect()
}

/// Re-estimates one launch under a budget of its own time and checks the
/// trace runs to the end and yields the same estimate (wall-clock phase
/// timings aside).
fn assert_budget_of_own_time_is_invisible(
    what: &str,
    launch: &KernelLaunch,
    mut free: PerfEstimate,
    opts: &CompileOptions,
) {
    let budgeted = PerfOptions {
        sample_blocks: opts.sample_blocks,
        cost_model: opts.cost_model,
        prune_above_ms: Some(free.time_ms),
        ..PerfOptions::default()
    };
    let (kernel, cfg) = (&launch.kernel, &launch.launch);
    let mut capped = match estimate(kernel, cfg, &opts.bindings, &opts.machine, &budgeted) {
        Ok(est) => est,
        Err(PerfError::Exec(ExecError::OverBudget(bound))) => panic!(
            "{what}: pruned at ≥ {bound} ms against its own time {} ms",
            free.time_ms
        ),
        Err(e) => panic!("{what}: budgeted estimate failed: {e}"),
    };
    for est in [&mut free, &mut capped] {
        (est.trace_micros, est.lower_micros, est.model_micros) = (0, 0, 0);
    }
    assert_eq!(free, capped, "{what}");
}

/// Every design point of the Table-1 kernels at their first size and of
/// the generated kernels, under `model`.
fn check_every_point_under(model: CostModelKind) {
    let mut cases: Vec<(String, Kernel, Bindings)> = gpgpu::kernels::table1()
        .into_iter()
        .map(|b| {
            let size = b.sizes.first().copied().unwrap_or(b.default_size);
            (b.name.to_string(), b.kernel(), (b.bind)(size))
        })
        .collect();
    for i in 0..FUZZ_SPECS {
        let case = KernelSpec::from_seed(FuzzRng::new(i).next_u64()).build();
        let bindings = case.bindings.iter().cloned().collect();
        cases.push((format!("fuzz{i}"), case.kernel, bindings));
    }
    let mut launches_checked = 0;
    for (name, kernel, bindings) in &cases {
        let opts = CompileOptions {
            sample_blocks: SWEEP_SAMPLE_BLOCKS,
            ..options(bindings, model)
        };
        for (launch, free) in point_launches(kernel, &opts) {
            let what = format!("{name} ({model}) at {:?}", launch.launch);
            assert_budget_of_own_time_is_invisible(&what, &launch, free, &opts);
            launches_checked += 1;
        }
    }
    assert!(
        launches_checked > 100,
        "only {launches_checked} launches checked"
    );
}

#[test]
fn a_budget_of_its_own_time_never_prunes_an_analytic_estimate() {
    check_every_point_under(CostModelKind::Analytic);
}

#[test]
fn a_budget_of_its_own_time_never_prunes_a_hierarchy_estimate() {
    check_every_point_under(CostModelKind::Hierarchy);
}

/// The design-space events of a compile, with wall-clock pass timings
/// zeroed: everything else in them must be reproducible.
fn search_events(compiled: &CompiledKernel) -> Vec<String> {
    compiled
        .trace
        .events()
        .iter()
        .map(|e| match e {
            TraceEvent::PassCompleted { pass, delta, .. } => TraceEvent::PassCompleted {
                pass,
                micros: 0,
                delta: *delta,
            },
            other => other.clone(),
        })
        .map(|e| e.to_json().compact())
        .collect()
}

fn pruned(compiled: &CompiledKernel) -> usize {
    compiled
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::CandidatePruned { .. }))
        .count()
}

#[test]
fn pruning_is_the_same_for_every_worker_count() {
    let strsm = gpgpu::kernels::by_name("strsm").expect("strsm is in Table 1");
    let kernel = strsm.kernel();
    let base = options(&(strsm.bind)(256), CostModelKind::Analytic);
    let runs: Vec<CompiledKernel> = [1, 2, 4]
        .into_iter()
        .map(|workers| {
            let mut opts = base.clone();
            opts.explore.workers = Some(workers);
            compile(&kernel, &opts).expect("strsm compiles")
        })
        .collect();
    assert!(pruned(&runs[0]) > 0, "strsm at 256 prunes some point");
    let artifact = |c: &CompiledKernel| c.cache_artifact("strsm").to_json().compact();
    for run in &runs[1..] {
        assert_eq!(artifact(run), artifact(&runs[0]));
        assert_eq!(search_events(run), search_events(&runs[0]));
    }
}

#[test]
fn a_search_that_feeds_a_tuning_store_prunes_nothing() {
    let dir = std::env::temp_dir().join(format!("gpgpu-pruning-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    let strsm = gpgpu::kernels::by_name("strsm").expect("strsm is in Table 1");
    let opts = options(&(strsm.bind)(256), CostModelKind::Analytic)
        .with_tuning(Arc::new(TuningStore::open(&dir)));
    let compiled = compile(&strsm.kernel(), &opts).expect("strsm compiles");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(pruned(&compiled), 0);
    assert!(compiled.evaluated.len() > 1, "the full space was scored");
}
