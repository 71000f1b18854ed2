#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # gpgpu-fusion
//!
//! Dependence-checked producer→consumer kernel fusion (related work:
//! Filipovič et al., *Optimizing CUDA Code By Kernel Fusion — Application
//! on BLAS*). The paper's compiler optimizes one kernel at a time; real
//! deployments compile *pipelines* where an intermediate array written by
//! one kernel and read by the next round-trips through global memory. This
//! crate plans and performs the fusion that keeps such intermediates
//! thread-local:
//!
//! * **Planner** ([`plan_fusion`]) — proves legality from the kernels
//!   themselves (matching iteration domains via [`gpgpu_core::infer_domain`],
//!   a single producer-output array feeding the consumer with no other
//!   consumers, a dependence-checked element mapping) and within the
//!   resource limits of `gpgpu_analysis::estimate_resources`, then asks the
//!   configured cost model whether the fusion is profitable. Refusals carry
//!   a structured [`RejectReason`] — callers degrade to separate compiles,
//!   never an error.
//! * **Transform** ([`FusionPass`]) — an ordinary [`gpgpu_transform::Pass`]
//!   (stage `fusion`) that rewrites the sequential round-trip form into the
//!   fused kernel. Two forwarding modes: `register` (identical element
//!   mapping; the intermediate becomes a thread-local scalar) and `inline`
//!   (constant-offset window reads; the producer expression is recomputed
//!   at each offset). Shared-memory staging of the fused kernel's *inputs*
//!   then falls out of the existing coalescing conversion, with the barrier
//!   discipline the sanitizer already checks.
//! * **Driver** ([`compile_fused`]) — runs the pass under the PR 3 pass
//!   manager, sends the fused kernel through the full single-kernel
//!   pipeline (coalescing, merge exploration, prefetch, camping, the
//!   tuning store keyed by the fused kernel's combined shape), and then
//!   verifies the result element-for-element against the *round-trip
//!   reference* — the two members spliced around a grid-wide barrier,
//!   which is observationally the sequential unfused execution.
//! * **Compile unit** ([`compile_unit`]) — the one entry point callers
//!   that serve requests use: a unit is one kernel or a pair, a pair is
//!   fused when the driver delivers and compiled member by member when it
//!   does not, and either outcome renders as one cacheable artifact
//!   ([`UnitCompile::cache_artifact`]). The service engine and `gpgpuc
//!   fuse` hold no fallback policy of their own.

mod driver;
mod plan;
mod transform;
mod unit;

pub use driver::{compile_fused, compile_fused_sanitized, FusedCompile, FusionError};
pub use plan::{plan_fusion, FusionMode, FusionPlan, RejectReason};
pub use transform::FusionPass;
pub use unit::{compile_unit, UnitCompile, UnitError};
