//! Shared helpers for the Criterion benches.
//!
//! Each bench file under `benches/` regenerates the workload of one paper
//! figure (see DESIGN.md's per-experiment index); the experiment binaries
//! in `modgemm-experiments` print the paper-style tables, while these
//! benches give statistically robust single-kernel numbers and ablations.

use criterion::Criterion;

pub mod report;

/// A Criterion instance tuned so the full `cargo bench --workspace` run
/// finishes in minutes: small sample counts, short measurement windows.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .configure_from_args()
}

/// Benchmark sizes used by the GEMM-level groups: one odd mid-size with
/// real padding (513 — the paper's pivotal example) and one small size.
pub const GEMM_SIZES: [usize; 2] = [256, 513];
