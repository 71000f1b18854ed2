#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # gpgpu-service
//!
//! The batch-compilation service: turns the one-shot compiler into a
//! long-lived, concurrent engine behind `gpgpuc batch` and `gpgpuc serve`
//! (DESIGN.md §5.10).
//!
//! Three pieces:
//!
//! - **Content-addressed compile cache** ([`CompileCache`]): requests are
//!   keyed by [`gpgpu_core::CompileOptions::fingerprint`] — a stable hash
//!   over the *normalized* kernel source plus every output-determining
//!   option (machine, bindings, stage set, verify seed). An in-memory LRU
//!   fronts an optional persistent store under the versioned `<root>/v3/`
//!   directory layout, one checksummed frame per entry; compilation is
//!   deterministic, so a hit is byte-identical to a cold compile.
//! - **One front** ([`ShardedEngine`], DESIGN.md §5.10/§5.12): a single
//!   bounded queue ([`BoundedQueue`]) drained by one worker loop, with
//!   per-request deadlines measured from enqueue and `catch_unwind` fault
//!   containment so one poisoned kernel degrades only its own request.
//!   Live `serve` traffic meets bounded-wait admission control that sheds
//!   saturation as structured `overloaded` responses carrying a
//!   `retry_after_ms` hint, sweeps expired requests before they reach a
//!   worker, and drains (or sheds) at shutdown; a finite manifest
//!   (`batch`, [`Engine::run_batch`]) blocks for a slot instead — under
//!   load every request resolves as a success, a structured error, or an
//!   `overloaded` hint, and no client is ever blocked indefinitely.
//! - **NDJSON protocol** ([`CompileRequest`], [`CompileResponse`]): one
//!   JSON object per line for both batch manifests and the `serve`
//!   stdin/stdout loop; malformed input becomes a structured
//!   `bad-request` response, never a crash.
//!
//! Observability rides on the existing subsystems: queue depth, latency
//! and cache hit/miss/evict counters export as `service_*` globals in a
//! [`gpgpu_core::MetricsRegistry`], and every request and cache state
//! change emits a `service-request` / `service-cache`
//! [`gpgpu_core::TraceEvent`].

mod cache;
mod engine;
mod queue;
mod request;
mod shard;

pub use cache::{CacheOutcome, CacheProbe, CompileCache, DiskFault};
pub use engine::{Engine, ServiceConfig};
pub use queue::{BoundedQueue, PushError};
pub use request::{
    CacheDisposition, CompileRequest, CompileResponse, ErrorClass, ResponseError, SourceSpec,
};
pub use shard::{ShardConfig, ShardedEngine, Submitted};
