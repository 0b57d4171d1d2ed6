//! The fault-tolerant pipeline end to end: typed argument errors,
//! memory-budget degradation, non-finite input policies, and the
//! Freivalds verified-retry mode — everything a caller who cannot
//! afford a process abort needs.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use modgemm::mat::gen::random_matrix;
use modgemm::mat::naive::naive_gemm;
use modgemm::prelude::*;

fn main() {
    // ── 1. Typed errors instead of aborts ────────────────────────────
    println!("== typed argument errors ==");
    let cfg = ModgemmConfig::paper();
    let (a, b) = (vec![0.0f64; 12], vec![0.0f64; 8]);
    let mut c = vec![0.0f64; 5]; // needs 3×2 = 6 at ldc = 3
    for (what, err) in [
        (
            "short C slice",
            try_dgemm(Op::NoTrans, Op::NoTrans, 3, 2, 4, 1.0, &a, 3, &b, 4, 0.0, &mut c, 3, &cfg)
                .unwrap_err(),
        ),
        (
            "bad lda",
            try_dgemm(Op::NoTrans, Op::NoTrans, 3, 2, 4, 1.0, &a, 2, &b, 4, 0.0, &mut c, 3, &cfg)
                .unwrap_err(),
        ),
    ] {
        println!("  {what:<14} -> {err}");
    }
    let am: Matrix<f64> = Matrix::zeros(3, 4);
    let bm: Matrix<f64> = Matrix::zeros(5, 2);
    let mut cm: Matrix<f64> = Matrix::zeros(3, 2);
    let err =
        try_modgemm(1.0, Op::NoTrans, am.view(), Op::NoTrans, bm.view(), 0.0, cm.view_mut(), &cfg)
            .unwrap_err();
    println!("  {:<14} -> {err}", "k mismatch");

    // ── 2. Memory-budget degradation ─────────────────────────────────
    println!("\n== memory-budget degradation (n = 1000) ==");
    let n = 1000;
    let a: Matrix<f64> = random_matrix(n, n, 1);
    let b: Matrix<f64> = random_matrix(n, n, 2);
    let mut reference: Matrix<f64> = Matrix::zeros(n, n);
    naive_gemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, reference.view_mut());
    for budget in [
        MemoryBudget::Unlimited,
        MemoryBudget::MaxWorkspaceBytes(8 << 20),
        MemoryBudget::MaxWorkspaceBytes(1 << 20),
        MemoryBudget::MaxWorkspaceBytes(0),
    ] {
        let cfg = ModgemmConfig { memory_budget: budget, ..ModgemmConfig::paper() };
        let mut ctx = GemmContext::new();
        ctx.try_reserve_for(n, n, n, &cfg).expect("reserve under budget");
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        let t0 = std::time::Instant::now();
        GemmPlan::try_new(n, n, n, &cfg)
            .and_then(|plan| {
                plan.try_execute(
                    1.0,
                    Op::NoTrans,
                    a.view(),
                    Op::NoTrans,
                    b.view(),
                    0.0,
                    c.view_mut(),
                    &mut ctx,
                )
            })
            .expect("budgeted multiply");
        let dt = t0.elapsed();
        let max_err = c
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        println!(
            "  {budget:?}: strassen workspace {:>9} B (+ {:>9} B operand buffers), {dt:>9.1?}, max |err| {max_err:.2e}",
            ctx.workspace_footprint() * std::mem::size_of::<f64>(),
            (ctx.footprint() - ctx.workspace_footprint()) * std::mem::size_of::<f64>(),
        );
    }

    // ── 3. Non-finite input policies ─────────────────────────────────
    println!("\n== non-finite operands ==");
    let mut poisoned = a.clone();
    poisoned.set(17, 23, f64::NAN);
    let reject = ModgemmConfig { non_finite: NonFinitePolicy::Reject, ..ModgemmConfig::paper() };
    let mut c: Matrix<f64> = Matrix::zeros(n, n);
    let err = try_modgemm(
        1.0,
        Op::NoTrans,
        poisoned.view(),
        Op::NoTrans,
        b.view(),
        0.0,
        c.view_mut(),
        &reject,
    )
    .unwrap_err();
    println!("  Reject               -> {err}");
    let fallback = ModgemmConfig {
        non_finite: NonFinitePolicy::FallbackConventional,
        ..ModgemmConfig::paper()
    };
    try_modgemm(
        1.0,
        Op::NoTrans,
        poisoned.view(),
        Op::NoTrans,
        b.view(),
        0.0,
        c.view_mut(),
        &fallback,
    )
    .expect("fallback runs conventionally");
    let nans = c.as_slice().iter().filter(|x| x.is_nan()).count();
    println!(
        "  FallbackConventional -> conventional product, {nans} NaN entries (one poisoned row)"
    );

    // ── 4. Verified retry (Freivalds) ────────────────────────────────
    println!("\n== verified multiply ==");
    let cfg = ModgemmConfig {
        verify: VerifyMode::Freivalds { rounds: 8, seed: 42 },
        ..ModgemmConfig::paper()
    };
    let mut c: Matrix<f64> = Matrix::zeros(n, n);
    let t0 = std::time::Instant::now();
    try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg)
        .expect("verified multiply");
    println!("  {n}x{n} multiply + 8-round Freivalds check in {:.1?}", t0.elapsed());
    println!("\nall failure modes handled without a single panic");
}
