//! Property tests for the two pooled executors: a single GEMM's team
//! (every rank walks the one interpreter, splitting each step by
//! output) and a batch's task DAG (each item's compute one serial
//! interpreter walk) must be **bit-identical** to serial execution (same
//! products, same kernels, same associativity — only the evaluation
//! order across independent buffers differs), and worker panics on
//! either must be contained as typed [`GemmError::WorkerPanic`] values,
//! never escaping `try_*`.
//!
//! Integer scalars make bit-identity checkable with plain equality: any
//! reassociation or scheduling bug that altered a single product or
//! merge shows up as an exact mismatch.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use modgemm::core::{
    try_modgemm, BatchPlan, FuseDepth, GemmContext, GemmError, GemmPlan, ModgemmConfig,
    StridedBatch, Truncation,
};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::{KernelKind, Matrix, Op, Scalar};
use modgemm::morton::convert::to_morton;
use modgemm::morton::{MortonLayout, TileRange};
use proptest::prelude::*;

/// Pinned worker counts: serial degradation (1), fewer workers than a
/// batch's tasks (2, 3), seven (7), and more workers than the tasks of a
/// two-item batch (16).
const THREADS: [usize; 5] = [1, 2, 3, 7, 16];

fn fill_i64(len: usize, seed: u64) -> Vec<i64> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            ((x >> 48) as i64) % 17 - 8
        })
        .collect()
}

/// A fully staged plan configuration with exact-fit `tile` leaves: an
/// `n = tile << depth` problem recurses `depth` levels with no padding.
fn tiled_cfg(tile: usize, threads: usize) -> ModgemmConfig {
    ModgemmConfig {
        truncation: Truncation::Fixed(tile),
        fuse_depth: FuseDepth::Staged,
        threads,
        ..ModgemmConfig::paper()
    }
}

/// Executes `plan` with `C = A·B` on `ctx`.
fn exec<S: Scalar>(
    plan: &GemmPlan<S>,
    a: &Matrix<S>,
    b: &Matrix<S>,
    ctx: &mut GemmContext<S>,
) -> Result<Matrix<S>, GemmError> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    plan.try_execute(
        S::ONE,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        S::ZERO,
        c.view_mut(),
        ctx,
    )?;
    Ok(c)
}

/// `C_i = A_i·B_i` for the `items` square `n × n` operands laid side by
/// side in `a` and `b` (`n × items·n` each), through a [`BatchPlan`] on
/// `ctx`; the outputs come back side by side too.
fn exec_batch<S: Scalar>(
    plan: &BatchPlan<S>,
    a: &Matrix<S>,
    b: &Matrix<S>,
    ctx: &mut GemmContext<S>,
) -> Result<Matrix<S>, GemmError> {
    let (m, k, n) = plan.item_plan().dims();
    let desc = StridedBatch {
        alpha: S::ONE,
        op_a: Op::NoTrans,
        a: a.as_slice(),
        lda: m,
        stride_a: m * k,
        op_b: Op::NoTrans,
        b: b.as_slice(),
        ldb: k,
        stride_b: k * n,
        beta: S::ZERO,
        ldc: m,
        stride_c: m * n,
    };
    let mut c = Matrix::zeros(m, plan.batch() * n);
    plan.try_execute(&desc, c.as_mut_slice(), ctx)?;
    Ok(c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compiled batch plans with exact-fit tiles: for every leaf kernel
    /// and pinned thread count, the batch DAG equals the one-worker
    /// per-item loop exactly on i64. Every run reuses one context, and
    /// each compared run follows a run of the same plan on unrelated
    /// operands, so the window slots and item arenas start out holding
    /// another product's values: a missed write to C or a read of a
    /// temporary before it is written shows up as a mismatch.
    #[test]
    fn pooled_dag_is_bitwise_serial_on_i64(
        tile in 2usize..6,
        depth in 1usize..4,
        kernel_ix in 0usize..KernelKind::ALL.len(),
        seed in 0u64..1000,
    ) {
        let (n, items) = (tile << depth, 2);
        let kind = KernelKind::ALL[kernel_ix];
        let cfg = |threads| ModgemmConfig { leaf_kernel: kind, ..tiled_cfg(tile, threads) };
        let a = Matrix::from_vec(fill_i64(items * n * n, seed), n, items * n);
        let b = Matrix::from_vec(fill_i64(items * n * n, seed + 1), n, items * n);
        // Entries in [92, 108]: every entry of their product exceeds any
        // entry |A·B| can reach, so stale values cannot pass for real ones.
        let dirt = |s| fill_i64(items * n * n, s).into_iter().map(|x| x + 100).collect();
        let dirt_a = Matrix::from_vec(dirt(seed + 100), n, items * n);
        let dirt_b = Matrix::from_vec(dirt(seed + 101), n, items * n);
        let mut ctx = GemmContext::new();

        let serial = BatchPlan::<i64>::try_new(n, n, n, items, &cfg(1)).unwrap();
        prop_assert_eq!(serial.parallel_tasks(), 0);
        let c_dirt = exec_batch(&serial, &dirt_a, &dirt_b, &mut ctx).unwrap();
        let c_ser = exec_batch(&serial, &a, &b, &mut ctx).unwrap();

        for threads in THREADS {
            let plan = BatchPlan::<i64>::try_new(n, n, n, items, &cfg(threads)).unwrap();
            prop_assert_eq!(plan.parallel_tasks() > 0, threads > 1);
            prop_assert_eq!(&exec_batch(&plan, &dirt_a, &dirt_b, &mut ctx).unwrap(), &c_dirt);
            let c_pool = exec_batch(&plan, &a, &b, &mut ctx).unwrap();
            prop_assert_eq!(
                &c_pool, &c_ser,
                "kernel {:?} tile {} depth {} threads {}",
                kind, tile, depth, threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full pipeline on ragged shapes above the team crossover: a team
    /// produces the exact serial product through conversion, compute,
    /// and unpack.
    #[test]
    fn pooled_pipeline_matches_serial_on_ragged_i64(
        m in 257usize..300,
        k in 257usize..300,
        n in 257usize..300,
        threads_ix in 1usize..THREADS.len(),
        seed in 0u64..1000,
    ) {
        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 7);
        let base = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            ..ModgemmConfig::paper()
        };

        let mut c_ser: Matrix<i64> = Matrix::zeros(m, n);
        try_modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0,
            c_ser.view_mut(), &base).unwrap();

        let pooled = ModgemmConfig { threads: THREADS[threads_ix], ..base };
        prop_assert_eq!(GemmPlan::<i64>::try_new(m, k, n, &pooled).unwrap().threads(), pooled.threads);
        let mut c_pool: Matrix<i64> = Matrix::zeros(m, n);
        try_modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0,
            c_pool.view_mut(), &pooled).unwrap();
        prop_assert_eq!(c_pool, c_ser);
    }
}

// ---------------------------------------------------------------------------
// Panic containment: a scalar whose multiply blows up on huge operands.
// ---------------------------------------------------------------------------

/// Any |value| at or above this trips [`Boom`]'s multiply. Sums of
/// same-sign huge values stay huge, so the Winograd pre-additions cannot
/// launder every huge operand away: some product task always panics.
const BOOM: i64 = 1 << 40;

/// An i64 whose `Mul` panics on huge operands — the injected fault for
/// worker-panic containment tests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Boom(i64);

impl fmt::Display for Boom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Boom {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Boom(self.0.wrapping_add(rhs.0))
    }
}
impl Sub for Boom {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Boom(self.0.wrapping_sub(rhs.0))
    }
}
impl Mul for Boom {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        assert!(self.0.abs() < BOOM && rhs.0.abs() < BOOM, "injected worker fault");
        Boom(self.0.wrapping_mul(rhs.0))
    }
}
impl Neg for Boom {
    type Output = Self;
    fn neg(self) -> Self {
        Boom(self.0.wrapping_neg())
    }
}
impl AddAssign for Boom {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Boom {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Boom {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Scalar for Boom {
    const ZERO: Self = Boom(0);
    const ONE: Self = Boom(1);
    fn abs_val(self) -> Self {
        Boom(self.0.abs())
    }
    fn from_f64(x: f64) -> Self {
        Boom(x as i64)
    }
    fn to_f64(self) -> f64 {
        self.0 as f64
    }
    fn epsilon_f64() -> f64 {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A panicking leaf multiply inside a batch DAG's item task must
    /// surface as `Err(WorkerPanic)` from `try_*` — no panic may cross
    /// the join, no worker may be lost (the pool stays usable for a
    /// healthy follow-up run at the same thread count).
    #[test]
    fn worker_panics_surface_as_typed_errors(
        tile in 2usize..5,
        depth in 1usize..3,
        threads_ix in 1usize..THREADS.len(), // >= 2: the pooled path
        seed in 0u64..1000,
    ) {
        let threads = THREADS[threads_ix];
        let (n, items) = (tile << depth, 2);
        let boom = |seed| {
            let vals = fill_i64(items * n * n, seed).into_iter().map(Boom).collect();
            Matrix::from_vec(vals, n, items * n)
        };
        let plan = BatchPlan::<Boom>::try_new(n, n, n, items, &tiled_cfg(tile, threads)).unwrap();
        prop_assert!(plan.parallel_tasks() > 0, "the batch must run on the pool");
        let mut ctx = GemmContext::new();

        // All-huge A guarantees some product's operand is still huge
        // after the pre-additions (e.g. the A11·B11 chain).
        let a = Matrix::from_vec(vec![Boom(BOOM); items * n * n], n, items * n);
        let b = boom(seed);
        let r = exec_batch(&plan, &a, &b, &mut ctx);
        prop_assert!(
            matches!(r, Err(GemmError::WorkerPanic { .. })),
            "expected WorkerPanic, got {:?}", r
        );

        // The pool and the context survive the contained panic: a healthy
        // run on the same workers still matches serial bitwise.
        let a2 = boom(seed + 1);
        let c_pool = exec_batch(&plan, &a2, &b, &mut ctx).unwrap();
        let serial = BatchPlan::<Boom>::try_new(n, n, n, items, &tiled_cfg(tile, 1)).unwrap();
        let c_ser = exec_batch(&serial, &a2, &b, &mut GemmContext::new()).unwrap();
        prop_assert_eq!(c_pool, c_ser);
    }
}

/// The team counterpart: a rank whose leaf multiply panics fails every
/// rank's next barrier, the call returns `Err(WorkerPanic)`, and the
/// same plan and context then compute the serial product bitwise.
#[test]
fn worker_panics_on_a_team_surface_as_typed_errors() {
    // 264 = 33 << 3: above the team crossover.
    let n = 264;
    let boom = |seed| Matrix::from_vec(fill_i64(n * n, seed).into_iter().map(Boom).collect(), n, n);
    let serial = GemmPlan::<Boom>::try_new(n, n, n, &tiled_cfg(33, 1)).unwrap();
    let (a2, b) = (boom(2), boom(3));
    let c_ser = exec(&serial, &a2, &b, &mut GemmContext::new()).unwrap();
    for threads in [2, 3] {
        let plan = GemmPlan::<Boom>::try_new(n, n, n, &tiled_cfg(33, threads)).unwrap();
        assert_eq!(plan.threads(), threads);
        let mut ctx = GemmContext::new();
        let a = Matrix::from_vec(vec![Boom(BOOM); n * n], n, n);
        let r = exec(&plan, &a, &b, &mut ctx);
        assert!(matches!(r, Err(GemmError::WorkerPanic { .. })), "expected WorkerPanic, got {r:?}");
        assert_eq!(exec(&plan, &a2, &b, &mut ctx).unwrap(), c_ser, "threads = {threads}");
    }
}

/// Morton-buffer round trip sanity for the harness helpers (not a
/// property: one deterministic case so a broken `fill_i64` or layout
/// assumption fails loudly rather than making properties vacuous).
#[test]
fn harness_sanity() {
    let l = MortonLayout::new(4, 4, 2);
    let m: Matrix<i64> = random_matrix(16, 16, 3);
    let mut buf = vec![0i64; l.len()];
    to_morton(m.view(), Op::NoTrans, &l, &mut buf);
    assert_eq!(buf.len(), l.len());
    assert!(fill_i64(64, 1).iter().any(|&x| x != 0));
}

// ---------------------------------------------------------------------------
// Cooperative cancellation: interrupting the batch DAG at every task index.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Cancelling at every task-dequeue index: the interrupted run
    /// resolves as `Ok` (cancel arrived past the last check) or typed
    /// `Cancelled` — never a hang or panic — and the next execute on the
    /// same warm context is allocation-free and bit-identical to the
    /// reference. Cancellation must never leak or corrupt context state.
    #[test]
    fn cancel_at_every_task_index_keeps_context_warm_and_exact(
        m in 24usize..56,
        k in 24usize..56,
        n in 24usize..56,
        seed in 0u64..1000,
    ) {
        use modgemm::core::{CancelToken, CollectingSink, NoopSink};

        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            threads: 4,
            ..ModgemmConfig::paper()
        };
        let plan = BatchPlan::<i64>::try_new(m, k, n, 2, &cfg).unwrap();
        let tasks = plan.parallel_tasks() as u64;
        prop_assert!(tasks > 0, "these shapes must compile a batch DAG");

        let a: Matrix<i64> = random_matrix(m, 2 * k, seed);
        let b: Matrix<i64> = random_matrix(k, 2 * n, seed + 7);
        let desc = StridedBatch {
            alpha: 1, op_a: Op::NoTrans, a: a.as_slice(), lda: m, stride_a: m * k,
            op_b: Op::NoTrans, b: b.as_slice(), ldb: k, stride_b: k * n,
            beta: 0, ldc: m, stride_c: m * n,
        };
        let mut ctx = GemmContext::new();
        let mut c_ref = vec![0i64; 2 * m * n];
        plan.try_execute(&desc, &mut c_ref, &mut ctx).unwrap();

        for cut in 0..=tasks {
            // Trip the token on its `cut`-th successful check: cut 0 is
            // the pre-flight gate, later cuts land on task-dequeue
            // boundaries across the DAG.
            let token = CancelToken::cancelling_after(cut);
            let mut c = vec![0i64; 2 * m * n];
            match plan.try_execute_cancellable_with_metrics(
                &desc, &mut c, &mut ctx, &token, &mut NoopSink,
            ) {
                Ok(()) => prop_assert_eq!(&c, &c_ref, "completed run must be exact (cut {})", cut),
                Err(GemmError::Cancelled) => {}
                other => prop_assert!(false, "unexpected outcome at cut {}: {:?}", cut, other),
            }

            // The warm follow-up execute must be allocation-free and
            // bit-identical, whatever the cancel left behind.
            let mut c2 = vec![0i64; 2 * m * n];
            let mut sink = CollectingSink::new();
            plan.try_execute_with_metrics(&desc, &mut c2, &mut ctx, &mut sink).unwrap();
            prop_assert_eq!(&c2, &c_ref, "follow-up after cut {} must be exact", cut);
            prop_assert_eq!(sink.metrics.temp_alloc_bytes, 0,
                "follow-up after cut {} must be allocation-free", cut);
        }
    }
}
