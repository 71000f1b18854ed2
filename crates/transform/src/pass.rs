//! The unified pass abstraction.
//!
//! Every transformation in this crate is exposed twice: as a free function
//! (the historical API, still used by focused unit tests) and as an adapter
//! implementing [`Pass`]. The driver crate sequences passes exclusively
//! through the trait, which gives every pass the same contract:
//!
//! * a stable [`name`](Pass::name) and [`paper_section`](Pass::paper_section)
//!   for traces, `--list-passes` and the staged-dissection labels;
//! * a [`stage`](Pass::stage) key the driver's stage gating switches on;
//! * a declaration of which memoized analyses the pass
//!   [`preserved`](Pass::preserved) — the driver invalidates the rest of the
//!   [`AnalysisManager`] cache only when the kernel version actually moved;
//! * a uniform `Result<PassOutcome, PassError>` so candidate exploration can
//!   contain rejections and faults without bespoke glue per pass.

use crate::PipelineState;
use gpgpu_analysis::{AnalysisKind, AnalysisManager, AnalysisSet, PartitionGeometry};

/// What a successful pass run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOutcome {
    /// The pass rewrote the kernel (or recorded a decision).
    Applied,
    /// The pass ran but found nothing to do.
    Skipped,
}

/// A pass failure, distinguished by severity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError {
    /// Name of the failing pass.
    pub pass: &'static str,
    /// Human-readable reason.
    pub message: String,
    /// `true` for contained panics (compiler defects); `false` for ordinary
    /// "this transformation does not apply here" rejections.
    pub fault: bool,
}

impl PassError {
    /// An ordinary rejection: the transformation does not apply.
    pub fn rejected(pass: &'static str, message: impl Into<String>) -> PassError {
        PassError {
            pass,
            message: message.into(),
            fault: false,
        }
    }

    /// A contained fault (panic) inside the pass.
    pub fn fault(pass: &'static str, message: impl Into<String>) -> PassError {
        PassError {
            pass,
            message: message.into(),
            fault: true,
        }
    }
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pass `{}` failed: {}", self.pass, self.message)
    }
}

impl std::error::Error for PassError {}

/// A compiler pass over [`PipelineState`].
pub trait Pass {
    /// Stable pass name used in traces and `--list-passes`.
    fn name(&self) -> &'static str;

    /// The paper section this pass implements (e.g. `"§3.3"`).
    fn paper_section(&self) -> &'static str;

    /// The driver stage this pass belongs to — one of `"vectorize"`,
    /// `"coalesce"`, `"merge"`, `"prefetch"`, `"partition"`. The driver's
    /// stage gating enables or disables whole stages for the staged
    /// performance dissection.
    fn stage(&self) -> &'static str;

    /// Analyses still valid after this pass rewrites the kernel. The
    /// default is conservative: nothing survives a rewrite. Passes that
    /// leave array parameters and size pragmas untouched preserve layouts.
    fn preserved(&self) -> AnalysisSet {
        AnalysisSet::none()
    }

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns [`PassError`] with `fault = false` when the transformation
    /// does not apply to this kernel (candidate exploration treats this as
    /// a rejection, not a compiler defect).
    fn run(
        &mut self,
        state: &mut PipelineState,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError>;
}

/// Everything except vectorization leaves the array parameter list and the
/// size pragmas alone, so the resolved layouts stay valid.
fn preserves_layouts() -> AnalysisSet {
    AnalysisSet::none().with(AnalysisKind::Layouts)
}

/// Vectorization of paired accesses (paper §3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorizePass;

impl Pass for VectorizePass {
    fn name(&self) -> &'static str {
        "vectorize"
    }

    fn paper_section(&self) -> &'static str {
        "§3.1"
    }

    fn stage(&self) -> &'static str {
        "vectorize"
    }

    // Widening `float` params to `float2` changes the layouts: preserve
    // nothing.
    fn run(
        &mut self,
        state: &mut PipelineState,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError> {
        let report = crate::vectorize::vectorize(state);
        Ok(if report.vectorized.is_empty() {
            PassOutcome::Skipped
        } else {
            PassOutcome::Applied
        })
    }
}

/// AMD-targeted wide vectorization (paper §3.1, §5): tries `float4` first
/// and falls back to `float2`, matching the paper's preference for wide
/// vector loads on AMD-style machines.
#[derive(Debug, Clone, Copy, Default)]
pub struct AmdVectorizePass;

impl Pass for AmdVectorizePass {
    fn name(&self) -> &'static str {
        "vectorize-amd"
    }

    fn paper_section(&self) -> &'static str {
        "§3.1"
    }

    fn stage(&self) -> &'static str {
        "vectorize"
    }

    fn run(
        &mut self,
        state: &mut PipelineState,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError> {
        let mut report = crate::vectorize::vectorize_amd(state, 4);
        if report.width == 0 {
            report = crate::vectorize::vectorize_amd(state, 2);
        }
        Ok(if report.width == 0 {
            PassOutcome::Skipped
        } else {
            PassOutcome::Applied
        })
    }
}

/// Non-coalesced → coalesced conversion (paper §3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoalescePass;

impl Pass for CoalescePass {
    fn name(&self) -> &'static str {
        "coalesce"
    }

    fn paper_section(&self) -> &'static str {
        "§3.3"
    }

    fn stage(&self) -> &'static str {
        "coalesce"
    }

    fn preserved(&self) -> AnalysisSet {
        preserves_layouts()
    }

    fn run(
        &mut self,
        state: &mut PipelineState,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError> {
        let report = crate::coalesce::coalesce_with(state, am);
        Ok(if report.converted.is_empty() {
            PassOutcome::Skipped
        } else {
            PassOutcome::Applied
        })
    }
}

/// Thread-block merge along X (paper §3.5.1).
#[derive(Debug, Clone, Copy)]
pub struct ThreadBlockMergePass {
    /// Number of neighboring blocks merged.
    pub factor: i64,
}

impl Pass for ThreadBlockMergePass {
    fn name(&self) -> &'static str {
        "block-merge"
    }

    fn paper_section(&self) -> &'static str {
        "§3.5.1"
    }

    fn stage(&self) -> &'static str {
        "merge"
    }

    fn preserved(&self) -> AnalysisSet {
        preserves_layouts()
    }

    fn run(
        &mut self,
        state: &mut PipelineState,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError> {
        crate::merge::thread_block_merge_x(state, self.factor)
            .map_err(|e| PassError::rejected("block-merge", e.to_string()))?;
        Ok(PassOutcome::Applied)
    }
}

/// The direction a [`ThreadMergePass`] folds work items along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeAxis {
    /// Fold along X (1-D kernels).
    X,
    /// Fold along Y (2-D kernels; preserves coalescing for free).
    Y,
}

/// Thread merge (paper §3.5.2): folds several work items into one thread.
#[derive(Debug, Clone, Copy)]
pub struct ThreadMergePass {
    /// Fold direction.
    pub axis: MergeAxis,
    /// Work items folded into each thread.
    pub factor: i64,
}

impl Pass for ThreadMergePass {
    fn name(&self) -> &'static str {
        "thread-merge"
    }

    fn paper_section(&self) -> &'static str {
        "§3.5.2"
    }

    fn stage(&self) -> &'static str {
        "merge"
    }

    fn preserved(&self) -> AnalysisSet {
        preserves_layouts()
    }

    fn run(
        &mut self,
        state: &mut PipelineState,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError> {
        let result = match self.axis {
            MergeAxis::X => crate::merge::thread_merge_x(state, self.factor),
            MergeAxis::Y => crate::merge::thread_merge_y(state, self.factor),
        };
        result.map_err(|e| PassError::rejected("thread-merge", e.to_string()))?;
        Ok(PassOutcome::Applied)
    }
}

/// Data prefetching (paper §3.6).
#[derive(Debug, Clone, Copy)]
pub struct PrefetchPass {
    /// Registers per thread the schedule can still afford.
    pub register_budget: u32,
}

impl Pass for PrefetchPass {
    fn name(&self) -> &'static str {
        "prefetch"
    }

    fn paper_section(&self) -> &'static str {
        "§3.6"
    }

    fn stage(&self) -> &'static str {
        "prefetch"
    }

    fn preserved(&self) -> AnalysisSet {
        preserves_layouts()
    }

    fn run(
        &mut self,
        state: &mut PipelineState,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError> {
        let report = crate::prefetch::prefetch_with(state, self.register_budget, am);
        Ok(if report.prefetched > 0 {
            PassOutcome::Applied
        } else {
            PassOutcome::Skipped
        })
    }
}

/// Partition-camping elimination (paper §3.7).
#[derive(Debug, Clone, Copy)]
pub struct CampingPass {
    /// Memory-partition geometry of the target machine.
    pub geometry: PartitionGeometry,
    /// Whether the launch grid qualifies for the diagonal remap (2-D and
    /// square).
    pub grid_2d: bool,
}

impl Pass for CampingPass {
    fn name(&self) -> &'static str {
        "camping"
    }

    fn paper_section(&self) -> &'static str {
        "§3.7"
    }

    fn stage(&self) -> &'static str {
        "partition"
    }

    fn preserved(&self) -> AnalysisSet {
        preserves_layouts()
    }

    fn run(
        &mut self,
        state: &mut PipelineState,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError> {
        let report = crate::camping::eliminate_with(state, self.geometry, self.grid_2d, am);
        Ok(if report.applied() {
            PassOutcome::Applied
        } else {
            PassOutcome::Skipped
        })
    }
}

/// Reduction restructuring (paper §3, §6): rewrites a `__gsync` halving
/// tree into the two-launch hierarchy. The rewrite replaces the kernel
/// rather than editing it in place, so the pass stores the result in
/// [`rewrite`](Self::rewrite) for the driver to pick up. A refused rewrite
/// is an ordinary rejection naming its cause.
#[derive(Debug, Clone, Default)]
pub struct ReductionPass {
    /// Elements accumulated per thread; `None` picks the default.
    pub elems: Option<i64>,
    /// The two-launch program, populated when the rewrite applied.
    pub rewrite: Option<crate::reduction::ReductionRewrite>,
}

impl Pass for ReductionPass {
    fn name(&self) -> &'static str {
        "reduction"
    }

    fn paper_section(&self) -> &'static str {
        "§3/§6"
    }

    fn stage(&self) -> &'static str {
        "merge"
    }

    // Pattern matching only reads the state; every analysis survives.
    fn preserved(&self) -> AnalysisSet {
        AnalysisSet::all()
    }

    fn run(
        &mut self,
        state: &mut PipelineState,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, PassError> {
        let rewrite = crate::reduction::rewrite_reduction(state, self.elems)
            .map_err(|cause| PassError::rejected("reduction", cause))?;
        self.rewrite = Some(rewrite);
        Ok(PassOutcome::Applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_analysis::Bindings;
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

    fn mm_state() -> PipelineState {
        let k = parse_kernel(MM).unwrap();
        let bindings: Bindings = [("n".to_string(), 1024i64), ("w".to_string(), 1024)].into();
        PipelineState::new(k, bindings)
    }

    #[test]
    fn trait_pipeline_matches_free_functions() {
        // mm through the Pass trait …
        let mut st_trait = mm_state();
        let mut am = AnalysisManager::new();
        let mut passes: Vec<Box<dyn Pass>> = vec![
            Box::new(VectorizePass),
            Box::new(CoalescePass),
            Box::new(ThreadBlockMergePass { factor: 16 }),
            Box::new(ThreadMergePass {
                axis: MergeAxis::Y,
                factor: 4,
            }),
        ];
        for p in &mut passes {
            am.sync(st_trait.version());
            p.run(&mut st_trait, &mut am).unwrap();
        }

        // … and through the historical free functions.
        let mut st_free = mm_state();
        crate::vectorize::vectorize(&mut st_free);
        crate::coalesce::coalesce(&mut st_free);
        crate::merge::thread_block_merge_x(&mut st_free, 16).unwrap();
        crate::merge::thread_merge_y(&mut st_free, 4).unwrap();

        assert_eq!(st_trait.kernel, st_free.kernel);
        assert_eq!(st_trait.block_x, st_free.block_x);
        assert_eq!(st_trait.thread_merge_y, st_free.thread_merge_y);
    }

    #[test]
    fn merge_rejection_is_not_a_fault() {
        let mut st = mm_state();
        let mut am = AnalysisManager::new();
        let err = ThreadBlockMergePass { factor: 1 }
            .run(&mut st, &mut am)
            .unwrap_err();
        assert!(!err.fault);
        assert_eq!(err.pass, "block-merge");
    }

    #[test]
    fn coalesce_preserves_cached_layouts() {
        let mut st = mm_state();
        let mut am = AnalysisManager::new();
        am.sync(st.version());
        let before = am.layouts(&st.kernel, &st.bindings).unwrap();
        let mut pass = CoalescePass;
        pass.run(&mut st, &mut am).unwrap();
        // Simulate the driver's post-pass invalidation sweep.
        am.retain_preserved(pass.preserved(), st.version());
        let after = am.layouts(&st.kernel, &st.bindings).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&before, &after),
            "layouts should survive coalescing without recomputation"
        );
    }

    #[test]
    fn reduction_pass_rejects_non_reductions() {
        let mut st = mm_state();
        let mut am = AnalysisManager::new();
        let mut pass = ReductionPass::default();
        let err = pass.run(&mut st, &mut am).unwrap_err();
        assert!(!err.fault);
        assert!(err.message.contains("pattern"), "{err}");
        assert!(pass.rewrite.is_none());
    }
}
