#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! # gpgpu-sim
//!
//! A GPU simulator standing in for the NVIDIA GTX 8800 / GTX 280 testbed of
//! the PLDI 2010 GPGPU-compiler paper. It has three faces:
//!
//! * a **functional SIMT interpreter** ([`exec`]) that runs MiniCUDA
//!   kernels lock-step with divergence masks against real buffers — used to
//!   check that every compiler transformation preserves semantics, and to
//!   validate barrier placement and memory safety; it can stream its
//!   global-memory transactions ([`exec::MemEvent`]) into a pluggable sink
//!   and parallelize the block loop over block clusters;
//! * two **timing models** behind the [`cost::CostModel`] trait: the
//!   analytic MWP/CWP-style combine ([`timing`]) and a trace-driven
//!   memory-hierarchy simulation ([`mem`]) — both driven by phantom-memory
//!   traces from the same interpreter and used by the compiler's empirical
//!   search (paper §4) and by the benchmark harnesses that regenerate the
//!   paper's figures.
//!
//! [`machine`] holds the hardware descriptors and [`device`] the simulated
//! global memory.

pub mod cost;
pub mod device;
pub mod exec;
mod lower;
pub mod machine;
pub mod mem;
pub mod sanitize;
pub mod timing;
pub mod value;

pub use cost::{AnalyticModel, CostModel, CostModelKind, HierarchyModel};
pub use device::{Buffer, Device, DeviceError};
pub use exec::{
    launch, launch_with_sink, ExecBudget, ExecError, ExecOptions, ExecStats, MemEvent, MemSink,
    NullSink, VecSink,
};
pub use machine::{MachineDesc, PartitionGeometry};
pub use mem::{HierarchySim, HierarchyStats};
pub use sanitize::{SanitizerError, SanitizerKind};
pub use timing::{estimate, estimate_prepared, PerfEstimate, PerfError, PerfOptions};
pub use value::{abs_rel_error, Val};
