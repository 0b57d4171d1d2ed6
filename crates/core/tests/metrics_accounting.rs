//! Cross-layer guarantees of the metrics layer:
//!
//! * the flop counts an instrumented run reports equal the closed forms
//!   in `modgemm_core::counts`, across truncation policies;
//! * instrumentation never perturbs the numerics — the `NoopSink` path
//!   and a `CollectingSink` run produce bit-identical products.

use modgemm_core::counts::{conventional_flops, strassen_flops, strassen_levels};
use modgemm_core::exec::{workspace_len, ExecPolicy, NodeLayouts};
use modgemm_core::metrics::{CollectingSink, MetricsSink, NoopSink};
use modgemm_core::{GemmContext, GemmPlan, ModgemmConfig, Truncation};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::view::Op;
use modgemm_mat::Matrix;
use modgemm_morton::MortonLayout;

fn layouts(tile: usize, depth: usize) -> NodeLayouts {
    let l = MortonLayout::new(tile, tile, depth);
    NodeLayouts::new(l, l, l)
}

/// A plan over exact-fit `tile` leaves of an `n × n × n` problem, with the
/// paper's staged Blocked pipeline: its policy is exactly
/// `ExecPolicy { strassen_min, ..Default::default() }`. `threads > 1`
/// runs it as a team when `n³` is above the team crossover (256³).
fn tiled_plan(n: usize, tile: usize, strassen_min: usize, threads: usize) -> GemmPlan<f64> {
    let cfg = ModgemmConfig {
        truncation: Truncation::Fixed(tile),
        strassen_min,
        threads,
        ..ModgemmConfig::paper()
    };
    GemmPlan::try_new(n, n, n, &cfg).unwrap()
}

/// `C = A·B` through `plan` on a fresh context, reporting into `sink`.
fn run<K: MetricsSink>(
    plan: &GemmPlan<f64>,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    sink: &mut K,
) -> Matrix<f64> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    plan.try_execute_with_metrics(
        1.0,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        0.0,
        c.view_mut(),
        &mut GemmContext::new(),
        sink,
    )
    .unwrap();
    c
}

#[test]
fn recorded_flops_match_counts_across_policies() {
    // 320×320 of 40×40 tiles (depth 3): deep enough that every policy
    // below takes a different mix of Strassen and conventional levels,
    // and above the team crossover.
    let layouts = layouts(40, 3);
    let policies = [
        ExecPolicy::default(), // Strassen at every division
        ExecPolicy { strassen_min: 80, ..Default::default() }, // one conventional level
        ExecPolicy { strassen_min: 160, ..Default::default() }, // two
        ExecPolicy { strassen_min: 1 << 20, ..Default::default() }, // pure conventional
    ];
    let a: Matrix<f64> = random_matrix(320, 320, 1);
    let b: Matrix<f64> = random_matrix(320, 320, 2);
    for policy in policies {
        // The serial interpreter and a team of three report the same
        // plan facts.
        for threads in [1, 3] {
            let plan = tiled_plan(320, 40, policy.strassen_min, threads);
            let pooled = threads > 1;
            let mut sink = CollectingSink::new();
            run(&plan, &a, &b, &mut sink);
            let m = sink.into_metrics();
            let (pm, pk, pn) = layouts.dims();
            let ctx = format!("policy {policy:?} threads {threads}");
            assert_eq!(m.padded_volume, (pm * pk * pn) as u128, "{ctx}");
            assert_eq!(m.flops, strassen_flops(layouts, policy), "{ctx}");
            assert_eq!(m.conventional_flops, conventional_flops(pm, pk, pn), "{ctx}");
            assert_eq!(m.strassen_levels, strassen_levels(layouts, policy), "{ctx}");
            // A team's ranks past the first add their terminal tails (and
            // the low-mem paired temporaries) to the serial arena.
            assert_eq!(plan.arena_len(), workspace_len(layouts, policy), "{ctx}");
            if pooled {
                assert!(m.peak_workspace_elems >= plan.arena_len(), "{ctx}");
            } else {
                assert_eq!(m.peak_workspace_elems, plan.arena_len(), "{ctx}");
            }
            assert_eq!(m.pool.map(|p| p.workers), pooled.then_some(threads), "{ctx}");
            // Per-level timing covers exactly the visited levels: one slot
            // per Strassen level plus the handover level (the leaf tile
            // when Strassen runs all the way down).
            assert_eq!(m.level_times.len(), m.strassen_levels + 1, "{ctx}");
        }
    }
    // Sanity on the ordering the closed forms promise: more Strassen
    // levels, fewer flops.
    let full = strassen_flops(layouts, policies[0]);
    let partial = strassen_flops(layouts, policies[1]);
    let none = strassen_flops(layouts, policies[3]);
    assert!(full < partial && partial < none);
    let (pm, pk, pn) = layouts.dims();
    assert_eq!(none, conventional_flops(pm, pk, pn));
}

#[test]
fn pipeline_metrics_flops_match_counts() {
    // Full pipeline at an odd size: the plan's padded layouts are chosen
    // internally, but the recorded plan must still satisfy the closed
    // forms on its *own* padded dimensions.
    let n = 96;
    let a: Matrix<f64> = random_matrix(n, n, 7);
    let b: Matrix<f64> = random_matrix(n, n, 8);
    for strassen_min in [0usize, 24, 1 << 20] {
        let cfg = ModgemmConfig { strassen_min, ..ModgemmConfig::default() };
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        let mut ctx = GemmContext::new();
        let mut sink = CollectingSink::new();
        GemmPlan::try_new(n, n, n, &cfg)
            .unwrap()
            .try_execute_with_metrics(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                c.view_mut(),
                &mut ctx,
                &mut sink,
            )
            .unwrap();
        let m = sink.into_metrics();
        assert_eq!(m.problem, Some((n, n, n)));
        // conventional_flops(m,k,n) = 2·m·k·n, so summed across plans it
        // must equal twice the recorded padded volume.
        assert_eq!(m.conventional_flops as u128, 2 * m.padded_volume);
        assert!(m.flops <= m.conventional_flops);
        if strassen_min == 0 {
            assert!(m.strassen_levels > 0, "paper policy must take Strassen levels");
            assert!(m.flops < m.conventional_flops);
        } else if strassen_min == 1 << 20 {
            assert_eq!(m.strassen_levels, 0);
            assert_eq!(m.flops, m.conventional_flops);
        }
        assert!(m.padding_ratio() >= 1.0);
        assert!(m.effective_flops() == conventional_flops(n, n, n));
    }
}

#[test]
fn noop_and_collecting_runs_are_bit_identical() {
    // Compiled compute stage on exact-fit tiles, on the serial
    // interpreter and on a team. A fresh context grows its buffers,
    // which the instrumented run reports.
    let a: Matrix<f64> = random_matrix(320, 320, 21);
    let b: Matrix<f64> = random_matrix(320, 320, 22);
    for threads in [1, 2] {
        let plan = tiled_plan(320, 40, 80, threads);
        assert_eq!(plan.threads(), threads);
        let c_noop = run(&plan, &a, &b, &mut NoopSink);
        let mut sink = CollectingSink::new();
        let c_inst = run(&plan, &a, &b, &mut sink);
        assert!(sink.metrics.flops > 0);
        assert!(sink.metrics.temp_allocations > 0);
        assert_bits_eq(c_noop.as_slice(), c_inst.as_slice());
    }

    // Full pipeline, odd size (padding + conversion in play).
    let n = 97;
    let a: Matrix<f64> = random_matrix(n, n, 31);
    let b: Matrix<f64> = random_matrix(n, n, 32);
    let plan = GemmPlan::try_new(n, n, n, &ModgemmConfig::default()).unwrap();
    let mut c_noop: Matrix<f64> = Matrix::zeros(n, n);
    plan.try_execute(
        0.5,
        Op::NoTrans,
        a.view(),
        Op::Trans,
        b.view(),
        0.25,
        c_noop.view_mut(),
        &mut GemmContext::new(),
    )
    .unwrap();

    let mut c_inst: Matrix<f64> = Matrix::zeros(n, n);
    let mut sink = CollectingSink::new();
    plan.try_execute_with_metrics(
        0.5,
        Op::NoTrans,
        a.view(),
        Op::Trans,
        b.view(),
        0.25,
        c_inst.view_mut(),
        &mut GemmContext::new(),
        &mut sink,
    )
    .unwrap();
    assert!(sink.metrics.breakdown.total() > std::time::Duration::ZERO);
    assert_bits_eq(c_noop.as_slice(), c_inst.as_slice());
}

fn assert_bits_eq(x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), y.len());
    for (i, (a, b)) in x.iter().zip(y).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
    }
}
