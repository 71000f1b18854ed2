#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # gpgpu-core
//!
//! The compiler driver: ties the analyses (`gpgpu-analysis`), transformation
//! passes (`gpgpu-transform`) and the simulator (`gpgpu-sim`) into the
//! pipeline of the paper's Figure 1.
//!
//! ```text
//! naive kernel - vectorize - coalesce - merge (explored) - prefetch - camping - optimized kernel
//!                                        ^ thread/thread-block degrees searched empirically
//! ```
//!
//! The main entry point is [`compile`]:
//!
//! ```
//! use gpgpu_core::{compile, CompileOptions};
//! use gpgpu_sim::MachineDesc;
//!
//! # fn main() -> Result<(), gpgpu_core::CompileError> {
//! let naive = gpgpu_ast::parse_kernel(
//!     "__global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
//!         float sum = 0.0f;
//!         for (int i = 0; i < w; i = i + 1) { sum += a[idy][i] * b[i][idx]; }
//!         c[idy][idx] = sum;
//!     }",
//! ).unwrap();
//! let opts = CompileOptions::new(MachineDesc::gtx280())
//!     .bind("n", 256)
//!     .bind("w", 256);
//! let compiled = compile(&naive, &opts)?;
//! assert!(compiled.estimate.gflops > 0.0);
//! println!("{}", compiled.source);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod cu;
pub mod domain;
pub mod error;
pub mod explore;
pub mod fault;
pub mod pass_manager;
pub mod pipeline;
pub mod verify;

pub use cache::{BufferArtifact, CachedArtifact, FusionMeta, LaunchArtifact, CACHE_SCHEMA};
pub use cu::emit_cu;
pub use domain::{infer_domain, Domain};
pub use error::{panic_message, CompilerError, DegradedReason, ErrorKind, FaultReason, Stage};
pub use explore::{explore, full_sweep, Candidate, ExploreOptions, WarmStartPlan};
pub use pass_manager::{registered_passes, PassInfo, PassManager};
pub use pipeline::{
    compile, estimate_launch, naive_compiled, CompileError, CompileOptions, CompiledKernel,
    KernelLaunch, StageSet, TuningReport,
};

// The persistent autotuning store, re-exported for the same reason.
pub use gpgpu_tuning as tuning;
pub use gpgpu_tuning::{KernelShape, StoreCounters, StoreNote, TuningStore};
pub use verify::{
    verify_equivalence, verify_equivalence_sanitized, verify_equivalence_with, VerifyError,
};

// The observability subsystem, re-exported so downstream users (CLI, bench
// harnesses, tests) need not depend on `gpgpu-trace` directly.
pub use gpgpu_trace as trace;
pub use gpgpu_trace::{
    AstDelta, CounterSnapshot, Histogram, Json, MetricsRegistry, Profiler, SpanGuard, SpanId,
    SpanRecord, TraceEvent, TraceSink,
};
