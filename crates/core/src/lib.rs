#![warn(missing_docs)]

//! # MODGEMM — the SC'98 paper's contribution
//!
//! Strassen-Winograd matrix multiplication made memory-friendly by three
//! interlocking techniques (Thottethodi, Chatterjee, Lebeck, SC 1998):
//!
//! 1. **Morton-order internal storage** — quadrants at every recursion
//!    level are contiguous, so the 15 Winograd additions are single-loop
//!    flat passes and leaf tiles multiply at stable, size-insensitive
//!    speed ([`exec`]).
//! 2. **Dynamic recursion truncation** — the leaf tile size is chosen per
//!    dimension from a range (default 16–64) to minimize padding
//!    ([`config`], backed by `modgemm-morton`'s tiling module).
//! 3. **Cheap static padding** — the pad is bounded by a small constant,
//!    zero-filled, and multiplied through rather than branched around.
//!
//! Entry points:
//! * [`gemm::modgemm`] / [`gemm::try_modgemm`] — the Level-3
//!   BLAS-compatible interface (`C ← α·op(A)·op(B) + β·C`), one call per
//!   product; [`blas`] holds the raw-slice `dgemm`-style entry points.
//! * [`gemm::modgemm_premorton`] — operands already in Morton order
//!   (Figure 8).
//! * [`plan::GemmPlan::try_new`] / [`plan::GemmPlan::try_execute`] — the
//!   plan/execute split: compile a [`plan::GemmPlan`] once (truncation
//!   search, layout tree, flattened schedule, arena offsets), then execute
//!   it repeatedly with zero hot-path allocations on a warm
//!   [`gemm::GemmContext`]. Each execution returns the conversion/compute
//!   breakdown (Figure 7); [`plan::GemmPlan::try_execute_with_metrics`]
//!   also reports through a [`metrics::MetricsSink`].
//! * [`batch::BatchPlan`] and [`service::GemmService`] — whole batches
//!   and a queued, memory-admitted service front end.
//! * [`exec::morton_mul_add_with_ws`] — the conventional Morton quadrant
//!   recursion below the truncation point, leaf by leaf. Planned
//!   executions with a packing kernel run that subtree as one packed
//!   product instead, packing each operand panel once per subtree.
//!
//! Every entry point reaches the Strassen recursion through one compiled
//! compute stage in [`mod@plan`]: the schedule interpreter, run by a
//! team of the resolved workers on the [`pool`] (one worker for small
//! problems or `threads: 1`). A whole batch runs as the task DAG of
//! [`batch`] on the work-stealing pool, each item's compute one serial
//! interpreter walk.
//!
//! The Winograd recursion step itself lives in [`schedule`] *as data*,
//! shared by this crate's executor, the DGEFMM baseline, and the
//! cache-tracing executor, with an executable symbolic proof of
//! correctness in its tests.

pub mod batch;
pub mod blas;
pub mod config;
pub mod counts;
pub mod error;
pub mod exec;
pub mod faults;
pub mod fuse;
pub mod gemm;
pub mod json;
pub mod metrics;
pub mod plan;
pub mod pool;
pub mod rect;
pub mod schedule;
pub mod service;
pub mod verify;

mod terminal;

pub use batch::{BatchPlan, StridedBatch};
pub use config::{FuseDepth, MemoryBudget, ModgemmConfig, NonFinitePolicy, Truncation, VerifyMode};
pub use error::{GemmError, Operand};
pub use exec::{budget_capped_policy, workspace_len, ExecPolicy, NodeLayouts};
pub use faults::{FaultSite, FaultSpec};
pub use gemm::{
    layouts_of, modgemm, modgemm_premorton, try_modgemm, GemmBreakdown, GemmContext, MortonMatrix,
};
pub use metrics::{
    CacheTotals, CollectingSink, ExecMetrics, MetricsSink, NoopSink, PlanFacts, PoolStats,
    ServiceStats,
};
pub use plan::{GemmPlan, LevelPlan};
pub use pool::{
    resolve_threads, try_resolve_threads, CancelToken, ThreadPool, MODGEMM_THREADS_ENV,
};
pub use rect::{classify, Shape};
pub use schedule::Schedule;
pub use service::{GemmRequest, GemmService, GemmTicket, ServiceConfig};
pub use verify::{verify_gemm, verify_product};

/// Pooled-versus-serial equivalence tests of single GEMMs.
#[cfg(test)]
mod parallel;
