//! Property tests for the autotuner's cardinal invariant: a tuning
//! profile changes *which* plan is built, never *what* it computes.
//!
//! * For every [`TuningMode`] — `Off`, `Profile` (whatever profile the
//!   host happens to have loaded, if any), and `Forced` over random
//!   operating points — planned execution on **integer** matrices is
//!   bit-identical to the untuned path. Integer arithmetic leaves no
//!   tolerance to hide behind: any tuned plan that computed a different
//!   product would be caught exactly.
//! * Tuned `try_*` planning stays total: garbage forced choices surface
//!   as typed [`GemmError`]s (or plan fine after the precedence guards),
//!   never as panics.

use modgemm::core::plan::GemmPlan;
use modgemm::core::tune::{TunedChoice, TuningMode};
use modgemm::core::{try_modgemm, GemmContext, GemmError, ModgemmConfig};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::{KernelKind, Matrix, Op};
use proptest::prelude::*;

/// Decodes a drawn selector into a tuning mode: 0 = Off, 1 = Profile
/// (consults the process-global profile — usually absent under `cargo
/// test`, which is itself a mode worth covering), ≥2 = Forced over the
/// drawn knobs.
#[allow(clippy::too_many_arguments)]
fn decode_mode(
    selector: usize,
    tile_lo: usize,
    tile_width: usize,
    strassen_min: usize,
    kernel_sel: usize,
    parallel_depth: usize,
    threads: usize,
    fuse_depth: usize,
) -> TuningMode {
    match selector {
        0 => TuningMode::Off,
        1 => TuningMode::Profile,
        _ => TuningMode::Forced(TunedChoice {
            tile_min: tile_lo,
            tile_max: tile_lo + tile_width,
            strassen_min,
            kernel: KernelKind::ALL[kernel_sel % KernelKind::ALL.len()],
            parallel_depth,
            threads,
            fuse_depth,
            batch_window: selector % 4,
            // The schedule-tier axis rides the same draw: every tier is
            // bit-identical on integers, so a tuned pin must be too.
            schedule: modgemm::core::Schedule::ALL[selector % 3],
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Planned execution under any tuning mode is bit-identical on i64
    /// to the untuned one-shot path, for random shapes, scaling pairs,
    /// and delegating/pinned kernel configurations.
    #[test]
    fn tuned_plans_compute_bit_identical_products(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        alpha in -3i64..4,
        beta in -3i64..4,
        mode_sel in 0usize..4,
        tile_lo in 2usize..8,
        tile_width in 4usize..20,
        strassen_min in 0usize..12,
        kernel_sel in 0usize..5,
        parallel_depth in 0usize..3,
        threads in 0usize..4,
        fuse_depth in 0usize..4,
        auto_kernel in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let tuning = decode_mode(
            mode_sel, tile_lo, tile_width, strassen_min, kernel_sel, parallel_depth, threads,
            fuse_depth,
        );
        // Both the delegating default (Auto, where the profile's kernel
        // choice lands) and the paper's pinned Blocked (where it must
        // not) are covered.
        let leaf_kernel = if auto_kernel { KernelKind::Auto } else { KernelKind::Blocked };
        let cfg = ModgemmConfig { tuning, leaf_kernel, ..Default::default() };
        let untuned = ModgemmConfig { leaf_kernel, ..Default::default() };

        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 1);
        let c0: Matrix<i64> = random_matrix(m, n, seed + 2);

        let mut c_untuned = c0.clone();
        try_modgemm(
            alpha, Op::NoTrans, a.view(), Op::NoTrans, b.view(), beta,
            c_untuned.view_mut(), &untuned,
        )
        .expect("untuned path must accept well-formed operands");

        let plan = match GemmPlan::<i64>::try_new(m, k, n, &cfg) {
            Ok(p) => p,
            // The typed-failure contract: a corrupt host profile (or a
            // forced choice the validator rejects) is InvalidConfig,
            // never a panic — and then there is nothing to compare.
            Err(GemmError::InvalidConfig { .. }) => return,
            Err(other) => panic!("unexpected planning error: {other}"),
        };
        let mut ctx = GemmContext::new();
        let mut c_tuned = c0.clone();
        plan.try_execute(
            alpha, Op::NoTrans, a.view(), Op::NoTrans, b.view(), beta,
            c_tuned.view_mut(), &mut ctx,
        )
        .expect("tuned planned path must accept matching operands");
        prop_assert_eq!(&c_tuned, &c_untuned);

        // Warm re-execution on the tuned plan agrees too.
        let mut c_again = c0.clone();
        plan.try_execute(
            alpha, Op::NoTrans, a.view(), Op::NoTrans, b.view(), beta,
            c_again.view_mut(), &mut ctx,
        )
        .expect("warm tuned re-execution must succeed");
        prop_assert_eq!(&c_again, &c_untuned);
    }

    /// Forced tuning never interferes with an explicitly pinned
    /// configuration: when every tunable knob is pinned, the tuned plan
    /// reports no profile hit influence on those knobs — the product
    /// (and the concrete kernel) match the pinned untuned plan exactly.
    #[test]
    fn pinned_config_beats_forced_profile(
        m in 8usize..40,
        k in 8usize..40,
        n in 8usize..40,
        kernel_sel in 0usize..4,
        forced_kernel_sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        // Concrete kinds only (Auto is the delegating posture).
        let pinned = [KernelKind::Naive, KernelKind::Blocked, KernelKind::Micro,
                      KernelKind::Packed][kernel_sel];
        let forced = [KernelKind::Naive, KernelKind::Blocked, KernelKind::Micro,
                      KernelKind::Packed][forced_kernel_sel];
        let choice = TunedChoice {
            kernel: forced,
            strassen_min: 64,
            ..TunedChoice::baseline()
        };
        let cfg = ModgemmConfig {
            leaf_kernel: pinned,
            strassen_min: 4,
            tuning: TuningMode::Forced(choice),
            ..Default::default()
        };
        let untuned = ModgemmConfig {
            leaf_kernel: pinned,
            strassen_min: 4,
            ..Default::default()
        };
        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 1);
        let mut c_tuned: Matrix<i64> = Matrix::zeros(m, n);
        let mut c_untuned: Matrix<i64> = Matrix::zeros(m, n);
        let mut ctx = GemmContext::new();
        let plan = GemmPlan::<i64>::try_new(m, k, n, &cfg).expect("valid config must plan");
        plan.try_execute(
            1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0,
            c_tuned.view_mut(), &mut ctx,
        ).expect("tuned pinned plan must execute");
        try_modgemm(
            1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0,
            c_untuned.view_mut(), &untuned,
        ).expect("untuned pinned path must execute");
        prop_assert_eq!(&c_tuned, &c_untuned);
    }
}
