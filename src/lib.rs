#![warn(missing_docs)]

//! # modgemm — memory-efficient Strassen-Winograd matrix multiplication
//!
//! Umbrella crate re-exporting the whole workspace. This reproduces
//! *"Tuning Strassen's Matrix Multiplication for Memory Efficiency"*
//! (Thottethodi, Chatterjee, Lebeck — SC 1998): the MODGEMM algorithm
//! (Strassen-Winograd over Morton-order storage with dynamic selection of
//! the recursion truncation point), the comparator implementations it was
//! evaluated against (DGEFMM with dynamic peeling, DGEMMW with dynamic
//! overlap, conventional blocked GEMM), and the cache-simulation substrate
//! used for the paper's miss-ratio study.
//!
//! See the member crates for the full APIs:
//!
//! * [`mat`] — column-major matrices, views, and kernels,
//! * [`morton`] — Morton-order layout, tile-size selection, conversion,
//! * [`core`] — MODGEMM itself,
//! * [`baselines`] — DGEFMM, DGEMMW, Bailey, conventional,
//! * [`cachesim`] — cache simulator and traced executors.
//!
//! # Example
//!
//! ```
//! use modgemm::core::{modgemm, ModgemmConfig};
//! use modgemm::mat::gen::random_matrix;
//! use modgemm::mat::{Matrix, Op};
//!
//! // The paper's pivotal size: 513 pads to 528 (tile 33, depth 4)
//! // instead of 1024.
//! let a: Matrix<f64> = random_matrix(513, 513, 1);
//! let b: Matrix<f64> = random_matrix(513, 513, 2);
//! let mut c: Matrix<f64> = Matrix::zeros(513, 513);
//!
//! modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(),
//!         0.0, c.view_mut(), &ModgemmConfig::paper());
//!
//! // O(n²) probabilistic verification of the O(n^2.81) multiply.
//! assert!(modgemm::core::verify::verify_product(
//!     a.view(), b.view(), c.view(), 8, 42));
//! ```

pub use modgemm_baselines as baselines;
pub use modgemm_cachesim as cachesim;
pub use modgemm_core as core;
pub use modgemm_mat as mat;
pub use modgemm_morton as morton;

/// One-stop imports for typical use:
/// `use modgemm::prelude::*;`
pub mod prelude {
    pub use modgemm_core::blas::{
        gemm_batch_strided, try_dgemm, try_gemm, try_gemm_batch, try_gemm_batch_strided, try_sgemm,
        try_zgemm,
    };
    pub use modgemm_core::{
        modgemm, modgemm_premorton, try_modgemm, BatchPlan, CollectingSink, ExecMetrics,
        GemmContext, GemmError, GemmPlan, MemoryBudget, MetricsSink, ModgemmConfig, MortonMatrix,
        NonFinitePolicy, NoopSink, Operand, StridedBatch, Truncation, Variant, VerifyMode,
    };
    pub use modgemm_mat::{KernelKind, LeafKernel, MatMut, MatRef, Matrix, Op, Scalar};
    pub use modgemm_morton::{MortonLayout, TileRange};
}
