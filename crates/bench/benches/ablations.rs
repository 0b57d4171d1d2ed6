//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * dynamic vs fixed truncation point (the paper's central claim),
//! * Strassen handover threshold (`strassen_min`),
//! * Morton-order conventional recursion vs column-major blocked kernel,
//! * serial vs parallel product evaluation,
//! * Winograd (15 adds) vs original Strassen (18 adds) schedules,
//! * per-call allocation vs reused [`modgemm_core::GemmContext`],
//! * the Boyer et al. schedule memory tiers (standard/low-mem/in-place),
//! * f64 vs f32 element type.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use modgemm_bench::criterion;
use modgemm_core::{modgemm, ModgemmConfig, Truncation};
use modgemm_mat::blocked::blocked_mul;
use modgemm_mat::gen::{random_matrix, random_problem};
use modgemm_mat::{Matrix, Op};
use modgemm_morton::{to_morton, MortonLayout};

fn bench_truncation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_truncation");
    // 513 is the paper's showcase: dynamic tiles pad to 528, fixed-32
    // pads to 1024 (doing ~7.5x the leaf work of the 528 case).
    let n = 513;
    let (a, b, _) = random_problem::<f64>(n, n, n, 42);
    let mut cm: Matrix<f64> = Matrix::zeros(n, n);
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
    for (label, cfg) in [
        ("dynamic_16_64", ModgemmConfig::paper()),
        ("fixed_32", ModgemmConfig { truncation: Truncation::Fixed(32), ..ModgemmConfig::paper() }),
        ("fixed_64", ModgemmConfig { truncation: Truncation::Fixed(64), ..ModgemmConfig::paper() }),
    ] {
        g.bench_function(BenchmarkId::new(label, n), |bch| {
            bch.iter(|| {
                modgemm(
                    1.0,
                    Op::NoTrans,
                    a.view(),
                    Op::NoTrans,
                    b.view(),
                    0.0,
                    cm.view_mut(),
                    &cfg,
                );
                black_box(cm.as_slice());
            })
        });
    }
    g.finish();
}

fn bench_strassen_min(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_strassen_min");
    let n = 512;
    let (a, b, _) = random_problem::<f64>(n, n, n, 42);
    let mut cm: Matrix<f64> = Matrix::zeros(n, n);
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
    for smin in [0usize, 64, 128, 1 << 20] {
        let cfg = ModgemmConfig { strassen_min: smin, ..ModgemmConfig::paper() };
        g.bench_with_input(BenchmarkId::new("strassen_min", smin), &smin, |bch, _| {
            bch.iter(|| {
                modgemm(
                    1.0,
                    Op::NoTrans,
                    a.view(),
                    Op::NoTrans,
                    b.view(),
                    0.0,
                    cm.view_mut(),
                    &cfg,
                );
                black_box(cm.as_slice());
            })
        });
    }
    g.finish();
}

fn bench_morton_conventional(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_conventional_layouts");
    let n = 512;
    let a: Matrix<f64> = random_matrix(n, n, 1);
    let b: Matrix<f64> = random_matrix(n, n, 2);
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));

    // Column-major blocked.
    let mut cm: Matrix<f64> = Matrix::zeros(n, n);
    g.bench_function("colmajor_blocked_512", |bch| {
        bch.iter(|| {
            blocked_mul(a.view(), b.view(), cm.view_mut());
            black_box(cm.as_slice());
        })
    });

    // Morton-order recursive conventional (Frens-Wise style).
    let l = MortonLayout::new(32, 32, 4);
    let layouts = modgemm_core::NodeLayouts::new(l, l, l);
    let mut ab = vec![0.0f64; l.len()];
    let mut bb = vec![0.0f64; l.len()];
    let mut cb = vec![0.0f64; l.len()];
    to_morton(a.view(), Op::NoTrans, &l, &mut ab);
    to_morton(b.view(), Op::NoTrans, &l, &mut bb);
    g.bench_function("morton_recursive_512", |bch| {
        bch.iter(|| {
            cb.fill(0.0);
            modgemm_core::exec::morton_mul_add_with_ws(
                &ab,
                &bb,
                &mut cb,
                layouts,
                modgemm_mat::KernelKind::Blocked,
                &mut [],
            );
            black_box(&cb);
        })
    });
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_parallel");
    let n = 512;
    let (a, b, _) = random_problem::<f64>(n, n, n, 42);
    let mut cm: Matrix<f64> = Matrix::zeros(n, n);
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
    for depth in [0usize, 1, 2] {
        let cfg = ModgemmConfig { parallel_depth: depth, ..ModgemmConfig::paper() };
        g.bench_with_input(BenchmarkId::new("parallel_depth", depth), &depth, |bch, _| {
            bch.iter(|| {
                modgemm(
                    1.0,
                    Op::NoTrans,
                    a.view(),
                    Op::NoTrans,
                    b.view(),
                    0.0,
                    cm.view_mut(),
                    &cfg,
                );
                black_box(cm.as_slice());
            })
        });
    }
    g.finish();
}

fn bench_variant(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_variant");
    let n = 512;
    let (a, b, _) = random_problem::<f64>(n, n, n, 42);
    let mut cm: Matrix<f64> = Matrix::zeros(n, n);
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
    for (label, variant) in [
        ("winograd_15adds", modgemm_core::Variant::Winograd),
        ("strassen_18adds", modgemm_core::Variant::Strassen),
    ] {
        let cfg = ModgemmConfig { variant, ..ModgemmConfig::paper() };
        g.bench_function(BenchmarkId::new(label, n), |bch| {
            bch.iter(|| {
                modgemm(
                    1.0,
                    Op::NoTrans,
                    a.view(),
                    Op::NoTrans,
                    b.view(),
                    0.0,
                    cm.view_mut(),
                    &cfg,
                );
                black_box(cm.as_slice());
            })
        });
    }
    g.finish();
}

fn bench_context_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_context_reuse");
    let n = 512;
    let (a, b, _) = random_problem::<f64>(n, n, n, 42);
    let mut cm: Matrix<f64> = Matrix::zeros(n, n);
    let cfg = ModgemmConfig::paper();
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
    g.bench_function("alloc_per_call", |bch| {
        bch.iter(|| {
            modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, cm.view_mut(), &cfg);
            black_box(cm.as_slice());
        })
    });
    let mut ctx = modgemm_core::GemmContext::new();
    g.bench_function("reused_context", |bch| {
        bch.iter(|| {
            // Planned per call, like alloc_per_call: only the buffers are
            // reused.
            modgemm_core::GemmPlan::try_new(n, n, n, &cfg).expect("valid config").execute(
                a.view(),
                b.view(),
                cm.view_mut(),
                &mut ctx,
            );
            black_box(cm.as_slice());
        })
    });
    g.finish();
}

fn bench_schedule_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_sweep");
    // The three Boyer et al. memory tiers on the packed kernel with one
    // fused level (so staged levels exist for the tier to act on),
    // through a reused plan + context: the in-place tier is only
    // reachable from planned executions that own packed operand copies,
    // and plan reuse keeps per-call allocation out of the comparison.
    // Same products, shrinking arenas — the sweep prices the tiers'
    // extra O(n²) adds against their smaller, hotter workspaces.
    let n = 512;
    let (a, b, _) = random_problem::<f64>(n, n, n, 42);
    let mut cm: Matrix<f64> = Matrix::zeros(n, n);
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
    for sched in modgemm_core::Schedule::ALL {
        let cfg = ModgemmConfig {
            leaf_kernel: modgemm_mat::KernelKind::Packed,
            fuse_depth: modgemm_core::FuseDepth::Fixed(1),
            schedule: modgemm_core::SchedulePolicy::Fixed(sched),
            ..ModgemmConfig::paper()
        };
        let plan = modgemm_core::GemmPlan::<f64>::try_new(n, n, n, &cfg).expect("valid config");
        let mut ctx = modgemm_core::GemmContext::new();
        g.bench_function(BenchmarkId::new(sched.name(), n), |bch| {
            bch.iter(|| {
                plan.execute(a.view(), b.view(), cm.view_mut(), &mut ctx);
                black_box(cm.as_slice());
            })
        });
    }
    g.finish();
}

fn bench_precision(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_precision");
    let n = 512;
    let cfg = ModgemmConfig::paper();
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));

    let (a64, b64, _) = random_problem::<f64>(n, n, n, 42);
    let mut c64: Matrix<f64> = Matrix::zeros(n, n);
    g.bench_function("dgemm_f64_512", |bch| {
        bch.iter(|| {
            modgemm(
                1.0,
                Op::NoTrans,
                a64.view(),
                Op::NoTrans,
                b64.view(),
                0.0,
                c64.view_mut(),
                &cfg,
            );
            black_box(c64.as_slice());
        })
    });

    let (a32, b32, _) = random_problem::<f32>(n, n, n, 42);
    let mut c32: Matrix<f32> = Matrix::zeros(n, n);
    g.bench_function("sgemm_f32_512", |bch| {
        bch.iter(|| {
            modgemm(
                1.0f32,
                Op::NoTrans,
                a32.view(),
                Op::NoTrans,
                b32.view(),
                0.0,
                c32.view_mut(),
                &cfg,
            );
            black_box(c32.as_slice());
        })
    });
    g.finish();
}

fn main() {
    let mut c = criterion();
    bench_truncation(&mut c);
    bench_strassen_min(&mut c);
    bench_morton_conventional(&mut c);
    bench_parallel(&mut c);
    bench_variant(&mut c);
    bench_context_reuse(&mut c);
    bench_schedule_sweep(&mut c);
    bench_precision(&mut c);
    c.final_summary();
}
