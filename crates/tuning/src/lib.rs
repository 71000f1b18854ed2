//! Crash-safe persistent autotuning for the GPGPU compiler.
//!
//! The design-space exploration of §5 (block merge × thread merge) is the
//! expensive part of every compile. This crate persists its outcomes in a
//! durable store keyed by kernel *shape* — an access-pattern fingerprint
//! from the §3.4 analyses, deliberately coarser than the compile cache's
//! content hash — so a renamed, reformatted, or re-sized variant of a
//! known kernel warm-starts from the best-known configuration instead of
//! re-searching the full grid.
//!
//! The three pillars:
//!
//! - [`shape`] — the structural fingerprint and size-point neighbor metric.
//! - [`store`] — the journal + snapshot store: append-only checksummed
//!   records, atomic compaction, advisory locking, and recovery that
//!   truncates torn tails and quarantines corrupt snapshots. Every I/O
//!   failure degrades to full exploration; none can produce a wrong
//!   winner or fail a compile.
//! - [`fault`] — the `GPGPU_FAULT=io:*` injection sites (short-write,
//!   enospc, rename, corrupt-read) that make the recovery paths testable
//!   on every CI run, and [`durable`] — the read / write+fsync /
//!   rename+fsync-dir primitives that carry those sites, shared with the
//!   service's disk compile cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod fault;
pub mod shape;
pub mod store;

pub use shape::{kernel_shape, size_distance, KernelShape, ShapeContext};
pub use store::{
    ConfigScore, Lookup, StoreConfig, StoreCounters, StoreNote, TuningStore, WarmStart,
    STORE_SCHEMA, STORE_VERSION,
};
