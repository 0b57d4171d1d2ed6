//! The complete error taxonomy of the fault-tolerant GEMM pipeline.
//!
//! Reference BLAS never aborts the host process on an illegal argument —
//! it reports and returns. Strassen-Winograd adds failure modes of its
//! own: large workspace allocations (Boyer et al., arXiv:0707.2347 study
//! exactly this extra-memory axis), weaker numerical error bounds than
//! the conventional algorithm (Huang et al., arXiv:1605.01078), and, in
//! this implementation, worker threads whose panics must not poison the
//! caller. Every fallible entry point (`try_gemm`, `try_dgemm`,
//! [`crate::gemm::try_modgemm`], [`crate::plan::GemmPlan::try_execute`],
//! …) reports through [`GemmError`]; the panicking entry points are thin
//! wrappers that unwrap it.
//!
//! ```
//! use modgemm_core::{GemmError, Operand};
//!
//! let e = GemmError::SliceTooShort { operand: Operand::B, needed: 100, got: 9 };
//! assert!(e.to_string().contains("too short"));
//! let e = GemmError::BadLeadingDim { operand: Operand::A, ld: 9, min: 10 };
//! assert!(e.to_string().contains("leading dimension"));
//! ```

use std::fmt;

/// Which GEMM operand an argument error refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// The left operand `A`.
    A,
    /// The right operand `B`.
    B,
    /// The output `C`.
    C,
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::A => write!(f, "A"),
            Operand::B => write!(f, "B"),
            Operand::C => write!(f, "C"),
        }
    }
}

/// Everything that can go wrong in a MODGEMM call, as data.
///
/// The taxonomy covers the reference-BLAS illegal-argument conditions
/// (dimensions, leading dimensions, slice lengths), the Strassen-specific
/// resource conditions (workspace, allocation), configuration misuse, and
/// the two runtime-quality conditions (non-finite operands under
/// [`crate::config::NonFinitePolicy::Reject`], and a failed
/// Freivalds verification after the conventional retry).
///
/// Errors carry the numbers needed to act on them:
///
/// ```
/// use modgemm_core::blas::try_dgemm;
/// use modgemm_core::{GemmError, ModgemmConfig, Operand};
/// use modgemm_mat::Op;
///
/// let cfg = ModgemmConfig::default();
/// let (a, b) = (vec![0.0; 12], vec![0.0; 8]);
/// let mut c = vec![0.0; 5]; // needs 3×2 = 6 elements at ldc = 3
/// match try_dgemm(Op::NoTrans, Op::NoTrans, 3, 2, 4, 1.0,
///                 &a, 3, &b, 4, 0.0, &mut c, 3, &cfg) {
///     Err(GemmError::SliceTooShort { operand: Operand::C, needed, got }) => {
///         assert_eq!((needed, got), (6, 5));
///     }
///     other => panic!("expected a typed length error, got {other:?}"),
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GemmError {
    /// `op(A).cols != op(B).rows`.
    InnerDimMismatch {
        /// Columns of `op(A)`.
        a_cols: usize,
        /// Rows of `op(B)`.
        b_rows: usize,
    },
    /// `C` is not `op(A).rows × op(B).cols`.
    OutputDimMismatch {
        /// Required dimensions.
        expected: (usize, usize),
        /// Actual dimensions of `C`.
        got: (usize, usize),
    },
    /// A raw-slice operand's leading dimension is smaller than its stored
    /// row count (columns would overlap).
    BadLeadingDim {
        /// Which operand.
        operand: Operand,
        /// The offending leading dimension.
        ld: usize,
        /// The minimum legal value (the stored row count, at least 1).
        min: usize,
    },
    /// A raw-slice operand is too short for its `(rows, cols, ld)` window.
    SliceTooShort {
        /// Which operand.
        operand: Operand,
        /// Required length in elements.
        needed: usize,
        /// Actual slice length.
        got: usize,
    },
    /// A Morton operand buffer does not match its layout's length.
    BufferLenMismatch {
        /// Which operand.
        operand: Operand,
        /// Required length in elements (`layout.len()`).
        needed: usize,
        /// Provided length.
        got: usize,
    },
    /// An internal buffer could not be allocated. Surfaces `Vec`'s
    /// `try_reserve` failure instead of aborting the process.
    Allocation {
        /// The allocation size that failed, in elements.
        elements: usize,
    },
    /// The [`crate::config::ModgemmConfig`] is self-contradictory.
    InvalidConfig {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Operands handed to a planned execution do not match the `m × k × n`
    /// shape the [`crate::plan::GemmPlan`] was compiled for.
    PlanShapeMismatch {
        /// The problem shape the plan was built for.
        planned: (usize, usize, usize),
        /// The shape implied by the operands of this call.
        got: (usize, usize, usize),
    },
    /// An operand contains a non-finite value and the configured
    /// [`crate::config::NonFinitePolicy`] is `Reject`.
    NonFiniteInput {
        /// Which operand.
        operand: Operand,
    },
    /// The batched interface was called with batches of differing lengths.
    BatchLenMismatch {
        /// Length of the `A` batch.
        a: usize,
        /// Length of the `B` batch.
        b: usize,
        /// Length of the `C` batch.
        c: usize,
    },
    /// One item of a batched call failed; `index` identifies the item and
    /// `source` carries the underlying error. Batched entry points
    /// validate every item's shape **before** touching any output, so a
    /// shape error with index `i` guarantees `c_batch[..i]` (and everything
    /// else) is unmodified; execution errors mean items `..index` completed.
    BatchItem {
        /// Zero-based position of the failing item in the batch.
        index: usize,
        /// The underlying per-item error.
        source: Box<GemmError>,
    },
    /// A strided batch's `C` windows overlap: `stride_c` is smaller than
    /// one item's `(m, n, ldc)` footprint, so items would race on the same
    /// output elements. (`A`/`B` strides may alias or broadcast freely —
    /// they are read-only.)
    BatchOverlap {
        /// The offending output stride in elements.
        stride: usize,
        /// The minimum legal stride: `required_len(m, n, ldc)`.
        needed: usize,
    },
    /// The Freivalds check failed for the fast result **and** for the
    /// conventional recomputation — the environment is producing wrong
    /// arithmetic (or the verifier tolerance is violated by design).
    VerificationFailed {
        /// Number of Freivalds rounds that were run.
        rounds: u32,
    },
    /// A parallel worker panicked; the panic was contained and converted
    /// instead of poisoning the join.
    WorkerPanic {
        /// Panic payload when it was a string, or a placeholder.
        message: String,
    },
    /// The [`crate::service::GemmService`] submission queue is full —
    /// typed backpressure instead of unbounded growth. Resubmit later or
    /// shed load.
    Overloaded {
        /// The bounded queue's capacity at the time of rejection.
        capacity: usize,
    },
    /// The request's deadline passed before the result was produced —
    /// either while queued (rejected before any allocation) or mid-flight
    /// (the team or the batch's task DAG stopped cooperatively).
    DeadlineExceeded,
    /// The request was cancelled by its caller (via
    /// [`crate::pool::CancelToken::cancel`]); the in-flight team or task
    /// DAG stopped cooperatively and the context remains reusable.
    Cancelled,
    /// The service is shutting down and rejects new submissions; requests
    /// still queued when the drain could not run also resolve to this.
    ShuttingDown,
    /// The request can never be admitted: its memory estimate exceeds the
    /// service's whole [`crate::config::MemoryBudget`] ledger.
    BudgetExceeded {
        /// Bytes the request would need at peak.
        needed_bytes: usize,
        /// The ledger's total budget in bytes.
        budget_bytes: usize,
    },
}

impl fmt::Display for GemmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemmError::InnerDimMismatch { a_cols, b_rows } => write!(
                f,
                "inner dimensions differ: op(A) has {a_cols} columns, op(B) has {b_rows} rows"
            ),
            GemmError::OutputDimMismatch { expected, got } => {
                write!(f, "C must be {}x{}, got {}x{}", expected.0, expected.1, got.0, got.1)
            }
            GemmError::BadLeadingDim { operand, ld, min } => {
                write!(f, "leading dimension {ld} of {operand} < rows {min}")
            }
            GemmError::SliceTooShort { operand, needed, got } => {
                write!(f, "slice for {operand} too short: need {needed} elements, got {got}")
            }
            GemmError::BufferLenMismatch { operand, needed, got } => {
                write!(f, "{operand} buffer length mismatch: layout needs {needed}, got {got}")
            }
            GemmError::Allocation { elements } => {
                write!(f, "allocation of {elements} elements failed")
            }
            GemmError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            GemmError::PlanShapeMismatch { planned, got } => write!(
                f,
                "plan compiled for {}x{}x{} cannot execute a {}x{}x{} problem",
                planned.0, planned.1, planned.2, got.0, got.1, got.2
            ),
            GemmError::NonFiniteInput { operand } => {
                write!(f, "operand {operand} contains a non-finite value")
            }
            GemmError::BatchLenMismatch { a, b, c } => {
                write!(f, "batch length mismatch: |A| = {a}, |B| = {b}, |C| = {c}")
            }
            GemmError::BatchItem { index, source } => {
                write!(f, "batch item {index}: {source}")
            }
            GemmError::BatchOverlap { stride, needed } => {
                write!(f, "batch C windows overlap: stride {stride} < item footprint {needed}")
            }
            GemmError::VerificationFailed { rounds } => write!(
                f,
                "result failed {rounds}-round Freivalds verification even after conventional retry"
            ),
            GemmError::WorkerPanic { message } => {
                write!(f, "parallel worker panicked: {message}")
            }
            GemmError::Overloaded { capacity } => {
                write!(f, "service overloaded: submission queue at capacity {capacity}")
            }
            GemmError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            GemmError::Cancelled => write!(f, "request cancelled"),
            GemmError::ShuttingDown => {
                write!(f, "service is shutting down and rejects new submissions")
            }
            GemmError::BudgetExceeded { needed_bytes, budget_bytes } => write!(
                f,
                "request needs {needed_bytes} bytes but the service memory budget is only \
                 {budget_bytes} bytes"
            ),
        }
    }
}

impl std::error::Error for GemmError {}

/// Allocates a zero-filled `Vec` of `len` elements, surfacing allocation
/// failure as [`GemmError::Allocation`] instead of aborting.
pub(crate) fn try_zeroed_vec<S: modgemm_mat::Scalar>(len: usize) -> Result<Vec<S>, GemmError> {
    crate::faults::check_alloc(len)?;
    let mut v: Vec<S> = Vec::new();
    v.try_reserve_exact(len).map_err(|_| GemmError::Allocation { elements: len })?;
    v.resize(len, S::ZERO);
    Ok(v)
}

/// Grows `v` to at least `len` elements (zero-filling new space),
/// surfacing allocation failure as [`GemmError::Allocation`].
pub(crate) fn try_grow<S: modgemm_mat::Scalar>(
    v: &mut Vec<S>,
    len: usize,
) -> Result<&mut [S], GemmError> {
    if v.len() < len {
        crate::faults::check_alloc(len)?;
        let extra = len - v.len();
        v.try_reserve(extra).map_err(|_| GemmError::Allocation { elements: len })?;
        v.resize(len, S::ZERO);
    }
    Ok(&mut v[..len])
}

/// Renders a `catch_unwind` payload as a string for
/// [`GemmError::WorkerPanic`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_carry_the_legacy_substrings() {
        // The panicking wrappers format these errors; keep the substrings
        // older should_panic tests and downstream log-scrapers match on.
        let cases: [(GemmError, &str); 12] = [
            (GemmError::InnerDimMismatch { a_cols: 5, b_rows: 6 }, "inner dimensions"),
            (GemmError::OutputDimMismatch { expected: (4, 3), got: (4, 4) }, "C must be 4x3"),
            (GemmError::BadLeadingDim { operand: Operand::A, ld: 9, min: 10 }, "leading dimension"),
            (GemmError::SliceTooShort { operand: Operand::B, needed: 100, got: 9 }, "too short"),
            (
                GemmError::BufferLenMismatch { operand: Operand::A, needed: 64, got: 63 },
                "A buffer length mismatch",
            ),
            (
                GemmError::BatchItem { index: 3, source: Box::new(GemmError::Cancelled) },
                "batch item 3",
            ),
            (GemmError::BatchOverlap { stride: 5, needed: 6 }, "overlap"),
            (GemmError::Overloaded { capacity: 8 }, "capacity 8"),
            (GemmError::DeadlineExceeded, "deadline"),
            (GemmError::Cancelled, "cancelled"),
            (GemmError::ShuttingDown, "shutting down"),
            (GemmError::BudgetExceeded { needed_bytes: 100, budget_bytes: 10 }, "memory budget"),
        ];
        for (e, sub) in cases {
            assert!(e.to_string().contains(sub), "{e} lacks {sub:?}");
        }
    }

    #[test]
    fn implements_std_error() {
        fn take(_: &dyn std::error::Error) {}
        take(&GemmError::Allocation { elements: 1 });
    }

    #[test]
    fn try_zeroed_vec_allocates_and_zeroes() {
        let v: Vec<f64> = try_zeroed_vec(17).unwrap();
        assert_eq!(v.len(), 17);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn try_grow_only_grows() {
        let mut v: Vec<i64> = vec![7; 4];
        {
            let s = try_grow(&mut v, 8).unwrap();
            assert_eq!(s.len(), 8);
            assert_eq!(&s[..4], &[7, 7, 7, 7]);
            assert_eq!(&s[4..], &[0, 0, 0, 0]);
        }
        let s = try_grow(&mut v, 2).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn panic_messages_extracted() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&"boom".to_string()), "boom");
        assert_eq!(panic_message(&42i32), "non-string panic payload");
    }
}
