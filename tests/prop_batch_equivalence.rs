//! Property tests for whole-batch scheduling: `gemm_batch_strided`'s
//! single task DAG must be **bit-identical** to looping the per-item
//! plan serially — same products, same kernels, same associativity; the
//! DAG only changes *when* each item's conversion, compute, and unpack
//! run relative to its neighbours. Integer scalars make that checkable
//! with plain equality: a window slot recycled one item too early, an
//! unpack racing a convert, or a broadcast operand read after a
//! neighbour's epilogue all show up as an exact mismatch.
//!
//! The sweep covers every leaf kernel, fuse depths 0..=1 and Auto,
//! thread counts {1, 2, 7} (serial degradation, minimal pool, more
//! workers than one item's top-level products), ragged shapes, strided
//! and broadcast operands, and budget-capped in-flight windows.

use modgemm::core::blas::try_gemm_batch_strided;
use modgemm::core::plan::GemmPlan;
use modgemm::core::{
    BatchPlan, CancelToken, CollectingSink, FuseDepth, GemmContext, GemmError, MemoryBudget,
    ModgemmConfig, NoopSink, StridedBatch, Truncation,
};
use modgemm::mat::{KernelKind, MatMut, MatRef, Op};
use modgemm::morton::TileRange;
use proptest::prelude::*;

/// The thread counts the ISSUE pins: serial degradation (1), a minimal
/// pool (2), and more workers than one item's top-level products (7).
const THREADS: [usize; 3] = [1, 2, 7];

/// Deterministic small-integer fill: values in `[-8, 8]` keep every
/// product and Winograd pre-addition exactly representable in i64, so
/// equality is meaningful.
fn fill_i64(len: usize, seed: u64) -> Vec<i64> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            ((x >> 48) as i64) % 17 - 8
        })
        .collect()
}

/// Column-major storage an `rows × cols` view with leading dimension
/// `ld` actually touches.
fn required_len(rows: usize, cols: usize, ld: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        ld * (cols - 1) + rows
    }
}

/// The serial per-item reference: the same `GemmPlan` the batch path
/// compiles around, executed item by item against a warm context over
/// the identical strided slabs. This is exactly the loop
/// `try_gemm_batch` runs — the batched DAG claims bit-identity with it.
#[allow(clippy::too_many_arguments)]
fn serial_reference(
    plan: &GemmPlan<i64>,
    desc: &StridedBatch<'_, i64>,
    c: &mut [i64],
    batch: usize,
) {
    let (m, k, n) = plan.dims();
    let (ar, ac) = desc.op_a.apply_dims(m, k);
    let (br, bc) = desc.op_b.apply_dims(k, n);
    let mut ctx = GemmContext::new();
    for i in 0..batch {
        let a_off = i * desc.stride_a;
        let b_off = i * desc.stride_b;
        let c_off = i * desc.stride_c;
        let av = MatRef::from_slice(
            &desc.a[a_off..a_off + required_len(ar, ac, desc.lda)],
            ar,
            ac,
            desc.lda,
        );
        let bv = MatRef::from_slice(
            &desc.b[b_off..b_off + required_len(br, bc, desc.ldb)],
            br,
            bc,
            desc.ldb,
        );
        let c_len = required_len(m, n, desc.ldc);
        let cv = MatMut::from_slice(&mut c[c_off..c_off + c_len], m, n, desc.ldc);
        plan.try_execute(desc.alpha, desc.op_a, av, desc.op_b, bv, desc.beta, cv, &mut ctx)
            .expect("serial reference item must execute");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One-shot `try_gemm_batch_strided` over ragged shapes, every leaf
    /// kernel, drawn fuse depths, the pinned thread counts, padded
    /// leading dimensions, slack between items, and operand broadcasts:
    /// bit-identical on i64 to the serial per-item loop, on a dirty
    /// (non-zero) C with a drawn `(α, β)` pair.
    #[test]
    fn batched_strided_is_bitwise_serial_on_ragged_i64(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        batch in 1usize..6,
        alpha in -3i64..4,
        beta in -3i64..4,
        kernel_ix in 0usize..KernelKind::ALL.len(),
        fuse_sel in 0usize..3,
        threads_ix in 0usize..THREADS.len(),
        pad_a in 0usize..3,
        pad_b in 0usize..3,
        pad_c in 0usize..3,
        slack in 0usize..5,
        broadcast_a in any::<bool>(),
        broadcast_b in any::<bool>(),
        trans_sel in 0usize..4,
        window_knob in 0usize..4,
        seed in 0u64..1000,
    ) {
        let op_a = if trans_sel & 1 == 0 { Op::NoTrans } else { Op::Trans };
        let op_b = if trans_sel & 2 == 0 { Op::NoTrans } else { Op::Trans };
        let (ar, ac) = op_a.apply_dims(m, k);
        let (br, bc) = op_b.apply_dims(k, n);
        let lda = ar + pad_a;
        let ldb = br + pad_b;
        let ldc = m + pad_c;
        // Broadcast pins an operand's stride to 0: every item reads the
        // same panel — the batch DAG must not let any in-flight item's
        // packing scribble over it.
        let stride_a = if broadcast_a { 0 } else { required_len(ar, ac, lda) + slack };
        let stride_b = if broadcast_b { 0 } else { required_len(br, bc, ldb) + slack };
        let stride_c = required_len(m, n, ldc) + slack;

        let a_len = stride_a * (batch - 1) + required_len(ar, ac, lda);
        let b_len = stride_b * (batch - 1) + required_len(br, bc, ldb);
        let c_len = stride_c * (batch - 1) + required_len(m, n, ldc);
        let a = fill_i64(a_len, seed);
        let b = fill_i64(b_len, seed + 1);
        let c0 = fill_i64(c_len, seed + 2);

        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            leaf_kernel: KernelKind::ALL[kernel_ix],
            fuse_depth: [FuseDepth::Auto, FuseDepth::Staged, FuseDepth::Fused][fuse_sel],
            threads: THREADS[threads_ix],
            batch_window: window_knob,
            ..ModgemmConfig::paper()
        };
        let desc = StridedBatch {
            alpha, op_a, a: &a, lda, stride_a,
            op_b, b: &b, ldb, stride_b,
            beta, ldc, stride_c,
        };

        let plan = GemmPlan::<i64>::try_new(m, k, n, &cfg).unwrap();
        let mut c_ser = c0.clone();
        serial_reference(&plan, &desc, &mut c_ser, batch);

        let mut c_batched = c0.clone();
        try_gemm_batch_strided(
            op_a, op_b, m, n, k, alpha, &a, lda, stride_a, &b, ldb, stride_b, beta,
            &mut c_batched, ldc, stride_c, batch, &cfg,
        ).unwrap();
        prop_assert_eq!(
            &c_batched, &c_ser,
            "kernel {:?} fuse {:?} threads {} window_knob {}",
            cfg.leaf_kernel, cfg.fuse_depth, cfg.threads, window_knob
        );
    }

    /// A tight [`MemoryBudget`] caps the in-flight window below the
    /// requested one without changing a single bit of the result — the
    /// acceptance property for budget-driven window admission. The
    /// budget also shrinks each item's Strassen depth, so this pins the
    /// interaction of both degradations at once.
    #[test]
    fn budget_capped_window_is_bitwise_serial(
        m in 16usize..48,
        k in 16usize..48,
        n in 16usize..48,
        batch in 2usize..6,
        budget_kib in 1usize..64,
        threads_ix in 0usize..THREADS.len(),
        seed in 0u64..1000,
    ) {
        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            memory_budget: MemoryBudget::MaxWorkspaceBytes(budget_kib * 1024),
            threads: THREADS[threads_ix],
            // Ask for the whole batch in flight; the budget must cap it.
            batch_window: batch,
            ..ModgemmConfig::paper()
        };
        let bplan = BatchPlan::<i64>::try_new(m, k, n, batch, &cfg).unwrap();
        prop_assert!(bplan.window() <= batch);

        let one_a = m * k;
        let one_b = k * n;
        let one_c = m * n;
        let a = fill_i64(one_a * batch, seed);
        let b = fill_i64(one_b * batch, seed + 1);
        let c0 = fill_i64(one_c * batch, seed + 2);
        let desc = StridedBatch {
            alpha: 1, op_a: Op::NoTrans, a: &a, lda: m, stride_a: one_a,
            op_b: Op::NoTrans, b: &b, ldb: k, stride_b: one_b,
            beta: 1, ldc: m, stride_c: one_c,
        };

        let plan = GemmPlan::<i64>::try_new(m, k, n, &cfg).unwrap();
        let mut c_ser = c0.clone();
        serial_reference(&plan, &desc, &mut c_ser, batch);

        let mut ctx = GemmContext::new();
        let mut c_batched = c0.clone();
        bplan.try_execute(&desc, &mut c_batched, &mut ctx).unwrap();
        prop_assert_eq!(&c_batched, &c_ser, "window {} of batch {}", bplan.window(), batch);

        // Warm re-execution on the same plan and context is
        // allocation-free and still exact.
        let mut c_again = c0.clone();
        let mut sink = CollectingSink::new();
        bplan.try_execute_with_metrics(&desc, &mut c_again, &mut ctx, &mut sink).unwrap();
        prop_assert_eq!(&c_again, &c_ser);
        let metrics = sink.into_metrics();
        prop_assert_eq!(metrics.temp_alloc_bytes, 0, "warm batch execute must not allocate");
        prop_assert_eq!(metrics.batch_items, batch as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cancelling the batch DAG at every task-dequeue index: each
    /// interrupted run resolves as `Ok` (the token tripped past the last
    /// check) or typed `Cancelled` — never a hang, panic, or partial
    /// corruption that survives — and the warm follow-up execute on the
    /// same context is allocation-free and bit-identical.
    #[test]
    fn cancel_at_every_batch_task_index_keeps_context_warm_and_exact(
        m in 24usize..48,
        k in 24usize..48,
        n in 24usize..48,
        batch in 2usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            threads: 4,
            ..ModgemmConfig::paper()
        };
        let bplan = BatchPlan::<i64>::try_new(m, k, n, batch, &cfg).unwrap();
        let tasks = bplan.parallel_tasks() as u64;
        prop_assert!(tasks > 0, "these shapes must compile a whole-batch DAG");

        let one = |r: usize, c: usize| r * c;
        let a = fill_i64(one(m, k) * batch, seed);
        let b = fill_i64(one(k, n) * batch, seed + 1);
        let c0 = fill_i64(one(m, n) * batch, seed + 2);
        let desc = StridedBatch {
            alpha: 1, op_a: Op::NoTrans, a: &a, lda: m, stride_a: one(m, k),
            op_b: Op::NoTrans, b: &b, ldb: k, stride_b: one(k, n),
            beta: 0, ldc: m, stride_c: one(m, n),
        };

        let mut ctx = GemmContext::new();
        let mut c_ref = c0.clone();
        bplan.try_execute(&desc, &mut c_ref, &mut ctx).unwrap();

        for cut in 0..=tasks {
            // Trip the token on its `cut`-th successful check: cut 0 is
            // the pre-flight gate, later cuts land on task-dequeue
            // boundaries across items of the batch DAG.
            let token = CancelToken::cancelling_after(cut);
            let mut c = c0.clone();
            match bplan.try_execute_cancellable_with_metrics(
                &desc, &mut c, &mut ctx, &token, &mut NoopSink,
            ) {
                Ok(()) => prop_assert_eq!(&c, &c_ref, "completed run must be exact (cut {})", cut),
                Err(GemmError::Cancelled) => {}
                other => prop_assert!(false, "unexpected outcome at cut {}: {:?}", cut, other),
            }

            // Whatever the cancel left mid-window, the warm follow-up
            // must be allocation-free and bit-identical.
            let mut c2 = c0.clone();
            let mut sink = CollectingSink::new();
            bplan.try_execute_with_metrics(&desc, &mut c2, &mut ctx, &mut sink).unwrap();
            prop_assert_eq!(&c2, &c_ref, "follow-up after cut {} must be exact", cut);
            prop_assert_eq!(sink.into_metrics().temp_alloc_bytes, 0,
                "follow-up after cut {} must be allocation-free", cut);
        }
    }
}

/// Harness sanity (not a property): one deterministic broadcast batch so
/// a broken `fill_i64`, `required_len`, or reference-loop assumption
/// fails loudly rather than making the properties vacuous.
#[test]
fn harness_sanity() {
    let (m, k, n, batch) = (8usize, 8usize, 8usize, 3usize);
    let cfg = ModgemmConfig::default();
    let a = fill_i64(m * k, 5);
    let b = fill_i64(k * n * batch, 6);
    let mut c = vec![0i64; m * n * batch];
    try_gemm_batch_strided(
        Op::NoTrans,
        Op::NoTrans,
        m,
        n,
        k,
        1,
        &a,
        m,
        0, // broadcast A across the batch
        &b,
        k,
        k * n,
        0,
        &mut c,
        m,
        m * n,
        batch,
        &cfg,
    )
    .unwrap();
    let plan = GemmPlan::<i64>::try_new(m, k, n, &cfg).unwrap();
    let desc = StridedBatch {
        alpha: 1,
        op_a: Op::NoTrans,
        a: &a,
        lda: m,
        stride_a: 0,
        op_b: Op::NoTrans,
        b: &b,
        ldb: k,
        stride_b: k * n,
        beta: 0,
        ldc: m,
        stride_c: m * n,
    };
    let mut c_ser = vec![0i64; m * n * batch];
    serial_reference(&plan, &desc, &mut c_ser, batch);
    assert_eq!(c, c_ser);
    assert!(fill_i64(64, 1).iter().any(|&x| x != 0));
}
