#![warn(missing_docs)]

//! Dense column-major matrix substrate for the `modgemm` workspace.
//!
//! This crate provides the storage, view, and kernel layer that every other
//! crate in the workspace builds on:
//!
//! * [`Scalar`] — the element trait (implemented for `f32`, `f64`, and `i64`;
//!   the integer instance lets tests verify algorithm *schedules* exactly,
//!   with no floating-point error).
//! * [`Matrix`] — an owning column-major matrix.
//! * [`MatRef`] / [`MatMut`] — borrowed views with a BLAS-style leading
//!   dimension (`ld`), supporting the submatrix model used throughout the
//!   SC'98 paper (a tile of a larger base matrix is a view whose `ld` is the
//!   base matrix's column stride).
//! * [`naive::naive_gemm`] — the `O(n³)` reference oracle with full
//!   `C ← α·op(A)·op(B) + β·C` semantics.
//! * [`blocked::blocked_mul_add`] — the cache-blocked, register-tiled kernel
//!   used as the default *leaf multiply* by every Strassen implementation in
//!   the workspace. It deliberately does **not** pack its operands: the
//!   paper's Figure 3 measures precisely how an unpacked kernel's performance
//!   depends on operand contiguity, so packing would erase the effect under
//!   study.
//! * [`kernel`] — the [`LeafKernel`] trait and the [`KernelKind`] selector
//!   that let executors choose the leaf multiply (naive / blocked / micro /
//!   packed, or `Auto`) at plan time instead of hard-wiring it.
//! * [`pack`] / [`simd`] — the Goto/BLIS-style panel packing, the one
//!   packed driver ([`pack::packed_mul_scatter_in`], split into k-slice
//!   packs and [`pack::packed_sweep`] for callers that pack once per
//!   Morton subtree) and the runtime-dispatched SIMD microkernel bodies
//!   behind [`kernel::Packed`] and the fused Strassen level. Every register tile,
//!   ragged edges included, runs the host's vector body; `i64`, Miri and
//!   hosts without SIMD run the portable body. Packing buffers are sized
//!   in closed form ([`pack::packed_len`]) so planned executions carve
//!   them from the workspace arena instead of allocating.
//! * [`addsub`] — elementwise add/sub kernels, in both two-loop (strided
//!   view) and single-loop (contiguous buffer) forms. The single-loop form
//!   is the "secondary benefit" of Morton storage noted in §3.3 of the
//!   paper.

pub mod addsub;
pub mod blocked;
pub mod complex;
pub mod gen;
pub mod io;
pub mod kernel;
pub mod loops;
pub mod matrix;
pub mod naive;
pub mod norms;
pub mod pack;
pub mod scalar;
pub mod simd;
pub mod view;

pub use kernel::{KernelKind, LeafKernel};
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use view::{MatMut, MatRef, Op};

/// The standard GEMM problem dimensions: `C (m×n) ← op(A) (m×k) · op(B) (k×n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmDims {
    /// Rows of `op(A)` and of `C`.
    pub m: usize,
    /// Columns of `op(A)` and rows of `op(B)`.
    pub k: usize,
    /// Columns of `op(B)` and of `C`.
    pub n: usize,
}

impl GemmDims {
    /// Convenience constructor.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n }
    }

    /// Number of floating-point operations of a conventional multiply
    /// (`2·m·k·n`: one multiply and one add per inner-product term).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.k as u64 * self.n as u64
    }
}
