//! Suite runner producing schema-versioned `BENCH_<suite>.json` reports,
//! plus the `compare` regression gate.
//!
//! ```text
//! bench_runner [--quick] [--out PATH] [--kernel NAME] [--threads N]
//!              [--tuning off|profile] [--tunable-only]
//! bench_runner compare OLD NEW
//!              [--threshold 0.25] [--metric gflops|score]
//! bench_runner gate-fused REPORT [--threshold 0.05]
//! bench_runner gate-batch REPORT [--threshold 0.05]
//! bench_runner gate-schedule REPORT [--threshold 0.05]
//! bench_runner gate-default REPORT [--threshold 0.05]
//! ```
//!
//! The declared suite covers the paper's axes: GEMM at 256 (power of
//! two), 513 and 1025 (worst-case padding, 33-wide leaves) under the
//! default configuration, plus `modgemm_513_paper` and
//! `modgemm_1025_paper` under [`ModgemmConfig::paper`] (the staged
//! `Blocked` pipeline), which the `gate-default` subcommand turns into
//! CI's assertion that the default never falls back below the paper's
//! kernel on min-time GFLOP/s, a truncation sweep
//! (`strassen_min` 16/64), conversion cost (Morton pack/unpack fraction),
//! parallel speedup (`parallel_depth 2`), plan amortization (a
//! `GemmPlan` built once and executed 32 times per repetition, the
//! amortized counterpart of the one-shot cases at the same sizes), and a
//! leaf-kernel sweep (`kernel_<name>_512` for every [`KernelKind`] at
//! n = 512, isolating the kernel axis from the schedule axes), and the
//! operand-fusion pair (`fused_vs_staged_513_{staged,fused}`: the packed
//! kernel at n = 513, whose 33-wide leaves end in ragged tiles, with
//! `fuse_depth` 0 versus the one fused level, which the `gate-fused`
//! subcommand turns into CI's fused ≥ staged assertion on min-time
//! GFLOP/s).
//! The whole-batch scheduling pairs (`batch_64x64x64_n64` and
//! `batch_256_n8`, each with a `_serial` control) run the same set of
//! same-shape multiplies through one `BatchPlan` task DAG versus a
//! per-item loop over a reused `GemmPlan`; the `gate-batch` subcommand
//! turns each pair into CI's batched ≥ serial-loop assertion on
//! min-time GFLOP/s (meaningful on multi-core runners — on one core the
//! batched path degrades to the same serial loop by design).
//! A thread sweep (`threads_{1,2,4,8}_1024`) runs the work-stealing DAG
//! executor at fixed worker counts on n = 1024, so multi-core scaling of
//! the pooled executor is tracked case-by-case (the `threads_1` case is
//! the serial-degradation control).
//! The schedule sweep (`schedule_{standard,lowmem,inplace}_512`) pins
//! each Boyer et al. memory tier on the packed kernel with one fused
//! level, isolating the schedule axis; the budget sweep
//! (`budget_sweep_1024_{full,half,quarter,eighth}`) runs the default
//! configuration under an unbounded budget and 1/2, 1/4, 1/8 of the
//! standard schedule's full-depth workspace, charting what the
//! degradation ladder preserves as the budget shrinks. The schedule gate
//! pair (`sched_gate_512_{inplace,standard}`) runs both tiers under one
//! budget sized to exactly the in-place tier's full-depth arena; the
//! `gate-schedule` subcommand turns it into CI's assertion that the
//! in-place schedule at full Strassen depth is no slower than the
//! depth-capped standard schedule at the same budget.
//! The `service_mixed_256_513` case drives the [`GemmService`] front-end
//! with mixed 256/513 traffic from two client threads; its `secs_*` are
//! per-repetition wall times, its GFLOP/s the throughput of the completed
//! requests, and a `service` object in the report carries per-request
//! p50/p99 latency, the rejection rate, and the plan-cache hit rate.
//! Batch cases count the flops of every item in the timed batch.
//! `--kernel <naive|blocked|micro|packed|auto>` forces that leaf kernel
//! into every MODGEMM case and restricts the sweep to it — the quick way
//! to A/B one kernel. `--threads <n>` likewise forces the pool worker
//! count into every MODGEMM case (the `threads_*` sweep keeps its
//! declared counts). `--tuning profile` sets `TuningMode::Profile` on
//! every MODGEMM/plan-reuse case so plan selection consults the loaded
//! tuning profile (`MODGEMM_PROFILE` / `~/.cache/modgemm/profile.json`,
//! recorded by `modgemm-tune`); the default `Auto` leaf kernel lets the
//! profile's kernel choice take effect. The `kernel_*` sweep cases and
//! the `_paper` control stay fully untuned — they isolate
//! the kernel axis under the static schedule, which a profile's
//! schedule knobs would wreck. `--tunable-only` restricts the suite to
//! the cases a profile can steer (plus the score reference); CI's
//! tuned-vs-untuned gate passes it to both the `--tuning off` and
//! `--tuning profile` runs so the 5% comparison covers exactly
//! tuning's reach. `--quick` runs the same cases with fewer
//! repetitions and names the suite `smoke` so CI baselines stay
//! comparable. Exit codes: 0 ok, 1 regression, 2 usage or I/O error.
//! See EXPERIMENTS.md for the schema and baseline workflow.

use std::process::ExitCode;
use std::time::Instant;

use modgemm_baselines::conventional_gemm_with_sink;
use modgemm_bench::report::{
    compare_reports, median, CompareMetric, SCHEMA_VERSION, SCORE_REFERENCE_CASE,
};
use modgemm_core::counts::conventional_flops;
use modgemm_core::json::{parse, Value};
use modgemm_core::metrics::{CollectingSink, MetricsSink};
use modgemm_core::{
    GemmContext, GemmError, GemmPlan, GemmRequest, GemmService, ModgemmConfig, ServiceConfig,
};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::view::Op;
use modgemm_mat::{KernelKind, Matrix};

/// One declared benchmark case.
struct Case {
    name: String,
    n: usize,
    algo: Algo,
}

enum Algo {
    /// MODGEMM under the given configuration (plan built per call).
    Modgemm(ModgemmConfig),
    /// The conventional blocked baseline (the `score` reference).
    Conventional,
    /// A `GemmPlan` compiled once for the case, then executed `execs`
    /// times per timed repetition on a warm context. Reported times are
    /// per execution, so the gap to the one-shot `Modgemm` case at the
    /// same size is the plan-amortization win.
    PlanReuse {
        /// Configuration the plan is compiled from.
        cfg: ModgemmConfig,
        /// Executions per timed repetition.
        execs: u32,
    },
    /// `items` same-shape multiplies through one whole-batch
    /// [`modgemm_core::BatchPlan`] task DAG (conversion of later items
    /// overlapping compute of earlier ones). Times cover the whole
    /// batch; GFLOP/s aggregates all items.
    Batch {
        /// Configuration the batch plan is compiled from.
        cfg: ModgemmConfig,
        /// Items per batch.
        items: usize,
    },
    /// The serial control for [`Algo::Batch`]: the same `items`
    /// multiplies through a per-item loop over one reused `GemmPlan` —
    /// what a caller without the batched entry point would write.
    BatchSerial {
        /// Configuration the item plan is compiled from.
        cfg: ModgemmConfig,
        /// Items per batch.
        items: usize,
    },
    /// The `GemmService` front-end under mixed-shape traffic
    /// ([`SERVICE_SIZES`]) from concurrent client threads. Reported times
    /// are per-repetition wall times and GFLOP/s the completed requests'
    /// throughput; per-request latencies (submit → result) go to the
    /// case's `service` metrics object.
    Service {
        /// Requests issued per timed repetition (split across clients).
        requests: u32,
        /// Concurrent client threads.
        clients: u32,
    },
}

fn suite_cases(
    kernel: Option<KernelKind>,
    threads: Option<usize>,
    tuned: bool,
    tunable_only: bool,
) -> Vec<Case> {
    let base = ModgemmConfig::default();
    let trunc = |strassen_min| ModgemmConfig { strassen_min, ..ModgemmConfig::default() };
    let par = ModgemmConfig { parallel_depth: 2, ..ModgemmConfig::default() };
    let case = |name: &str, n, algo| Case { name: name.to_string(), n, algo };
    let mut cases = vec![
        case("modgemm_256", 256, Algo::Modgemm(base)),
        case("modgemm_513", 513, Algo::Modgemm(base)),
        case("modgemm_513_paper", 513, Algo::Modgemm(ModgemmConfig::paper())),
        case("modgemm_1025", 1025, Algo::Modgemm(base)),
        case("modgemm_1025_paper", 1025, Algo::Modgemm(ModgemmConfig::paper())),
        case(SCORE_REFERENCE_CASE, 256, Algo::Conventional),
        case("modgemm_256_trunc16", 256, Algo::Modgemm(trunc(16))),
        case("modgemm_256_trunc64", 256, Algo::Modgemm(trunc(64))),
        case("modgemm_513_conversion", 513, Algo::Modgemm(base)),
        case("modgemm_256_par2", 256, Algo::Modgemm(par)),
        case("plan_reuse_256", 256, Algo::PlanReuse { cfg: base, execs: 32 }),
        case("plan_reuse_513", 513, Algo::PlanReuse { cfg: base, execs: 32 }),
    ];
    // The leaf-kernel sweep: same schedule, same size, only the kernel
    // axis varies. With --kernel, only that kernel's sweep case runs.
    for kind in KernelKind::ALL {
        if kernel.map_or(true, |k| k == kind) {
            let cfg = ModgemmConfig { leaf_kernel: kind, ..ModgemmConfig::default() };
            cases.push(case(&format!("kernel_{kind}_512"), 512, Algo::Modgemm(cfg)));
        }
    }
    // The operand-fusion pair: the packed kernel at n = 513 with the
    // innermost Strassen level staged (fuse_depth 0) versus fused into
    // packing and the scatter epilogue (fuse_depth MAX_FUSE — the level
    // `Auto` fuses on a packing kernel). 513 pads to 33-wide leaves with
    // ragged edge tiles, the sizes fusion is for; at 512 every leaf is
    // whole 8×4 tiles and the two sides barely differ. Same schedule,
    // same kernel — only the fusion axis varies, and the `gate-fused`
    // subcommand asserts the fused case's min-time GFLOP/s does not
    // fall below the staged case's.
    for (suffix, fuse) in [("staged", 0usize), ("fused", modgemm_core::fuse::MAX_FUSE)] {
        let cfg = ModgemmConfig {
            leaf_kernel: KernelKind::Packed,
            fuse_depth: modgemm_core::FuseDepth::Fixed(fuse),
            ..ModgemmConfig::default()
        };
        cases.push(case(&format!("fused_vs_staged_513_{suffix}"), 513, Algo::Modgemm(cfg)));
    }
    // The thread sweep: the pooled DAG executor at fixed worker counts,
    // n = 1024, parallel_depth 2. `threads_1` degrades to the serial
    // executor and anchors the scaling curve.
    for t in [1usize, 2, 4, 8] {
        let cfg = ModgemmConfig { parallel_depth: 2, threads: t, ..ModgemmConfig::default() };
        cases.push(case(&format!("threads_{t}_1024"), 1024, Algo::Modgemm(cfg)));
    }
    // The schedule sweep: the three Boyer et al. memory tiers at n = 512
    // with the packed kernel and one fused level pinned, so staged
    // levels exist and only the schedule axis varies. The tiers compute
    // identical products from shrinking workspaces; the sweep tracks
    // what the smaller, hotter arenas cost (or buy) in time.
    for sched in modgemm_core::Schedule::ALL {
        let cfg = ModgemmConfig {
            leaf_kernel: KernelKind::Packed,
            fuse_depth: modgemm_core::FuseDepth::Fixed(1),
            schedule: modgemm_core::SchedulePolicy::Fixed(sched),
            ..ModgemmConfig::default()
        };
        let tag = sched.name().replace('-', "");
        cases.push(case(&format!("schedule_{tag}_512"), 512, Algo::Modgemm(cfg)));
    }
    // The budget sweep: the default configuration at n = 1024 under an
    // unbounded budget and 1/2, 1/4, 1/8 of the standard schedule's
    // full-depth workspace. The degradation ladder absorbs the pressure
    // (schedule tier first, then the fused level, then parallel/recursion
    // depth),
    // so the four cases chart throughput versus admitted workspace.
    let std_ws_bytes = modgemm_core::GemmPlan::<f64>::try_new(1024, 1024, 1024, &base)
        .expect("valid config")
        .arena_len()
        * std::mem::size_of::<f64>();
    for (tag, budget) in [
        ("full", modgemm_core::MemoryBudget::Unlimited),
        ("half", modgemm_core::MemoryBudget::MaxWorkspaceBytes(std_ws_bytes / 2)),
        ("quarter", modgemm_core::MemoryBudget::MaxWorkspaceBytes(std_ws_bytes / 4)),
        ("eighth", modgemm_core::MemoryBudget::MaxWorkspaceBytes(std_ws_bytes / 8)),
    ] {
        let cfg = ModgemmConfig { memory_budget: budget, ..ModgemmConfig::default() };
        cases.push(case(&format!("budget_sweep_1024_{tag}"), 1024, Algo::Modgemm(cfg)));
    }
    // The schedule gate pair: one budget sized to exactly the in-place
    // tier's full-depth workspace at n = 512 (packed kernel). Pinned
    // in-place keeps full Strassen depth inside it; pinned standard
    // cannot fit at any fuse depth and must shed recursion levels. The
    // `gate-schedule` subcommand asserts the in-place side's min-time
    // GFLOP/s is no worse — i.e. the memory tier beats depth loss.
    let ip_full_depth = ModgemmConfig {
        leaf_kernel: KernelKind::Packed,
        fuse_depth: modgemm_core::FuseDepth::Fixed(modgemm_core::fuse::MAX_FUSE),
        schedule: modgemm_core::SchedulePolicy::Fixed(modgemm_core::Schedule::InPlace),
        ..ModgemmConfig::default()
    };
    let ip_ws_bytes = modgemm_core::GemmPlan::<f64>::try_new(512, 512, 512, &ip_full_depth)
        .expect("valid config")
        .arena_len()
        * std::mem::size_of::<f64>();
    for sched in [modgemm_core::Schedule::InPlace, modgemm_core::Schedule::Standard] {
        let cfg = ModgemmConfig {
            leaf_kernel: KernelKind::Packed,
            memory_budget: modgemm_core::MemoryBudget::MaxWorkspaceBytes(ip_ws_bytes),
            schedule: modgemm_core::SchedulePolicy::Fixed(sched),
            ..ModgemmConfig::default()
        };
        let tag = sched.name().replace('-', "");
        cases.push(case(&format!("sched_gate_512_{tag}"), 512, Algo::Modgemm(cfg)));
    }
    // The whole-batch scheduling pairs: many small same-shape multiplies
    // (64³ × 64 — the shape batching exists for) and a few mid-size ones
    // (256³ × 8), batched through one task DAG versus the per-item loop.
    // parallel_depth 2 with auto worker resolution: on one core the DAG
    // is unavailable and both sides run the identical serial loop.
    for (name, bn, items) in [("batch_64x64x64_n64", 64usize, 64usize), ("batch_256_n8", 256, 8)] {
        cases.push(case(name, bn, Algo::Batch { cfg: par, items }));
        cases.push(case(&format!("{name}_serial"), bn, Algo::BatchSerial { cfg: par, items }));
    }
    // The service front-end under mixed power-of-two / worst-case-padding
    // traffic: per-request latency distribution plus admission behaviour.
    cases.push(case("service_mixed_256_513", 513, Algo::Service { requests: 8, clients: 2 }));
    // --kernel also forces the leaf kernel into every MODGEMM case so the
    // whole report reflects one kernel choice; --threads does the same
    // for the pool worker count (sweep cases keep their declared counts).
    if kernel.is_some() || threads.is_some() {
        for c in &mut cases {
            let sweep_case = c.name.starts_with("threads_");
            match &mut c.algo {
                Algo::Modgemm(cfg)
                | Algo::PlanReuse { cfg, .. }
                | Algo::Batch { cfg, .. }
                | Algo::BatchSerial { cfg, .. } => {
                    if let Some(k) = kernel {
                        cfg.leaf_kernel = k;
                    }
                    if let (Some(t), false) = (threads, sweep_case) {
                        cfg.threads = t;
                        if cfg.parallel_depth == 0 {
                            cfg.parallel_depth = 2;
                        }
                    }
                }
                Algo::Conventional | Algo::Service { .. } => {}
            }
        }
    }
    // --tuning profile: MODGEMM cases consult the loaded profile. The
    // kernel_* sweep (and --kernel runs) stay fully untuned: the sweep
    // isolates the kernel axis under the *static* schedule, and a
    // profile recorded with the winning kernel would mutate the
    // schedule knobs (e.g. the Strassen cutoff) under every pinned
    // kernel, wrecking the sweep's comparability — and the CI
    // tuned-vs-untuned gate with it. Cases running the default `Auto`
    // kernel take the profile's kernel choice.
    if tuned {
        for c in &mut cases {
            // The fused_vs_staged_*, batch_* and *_paper controls isolate
            // the fusion, batch-scheduling and default-config axes the
            // same way kernel_* isolates the kernel axis: all stay
            // untuned so a profile's schedule knobs cannot skew the
            // within-pair comparison.
            if c.name.starts_with("kernel_")
                || c.name.starts_with("fused_vs_staged_")
                || c.name.starts_with("batch_")
                || c.name.starts_with("schedule_")
                || c.name.starts_with("budget_sweep_")
                || c.name.starts_with("sched_gate_")
                || c.name.ends_with("_paper")
                || kernel.is_some()
            {
                continue;
            }
            match &mut c.algo {
                Algo::Modgemm(cfg) | Algo::PlanReuse { cfg, .. } => {
                    cfg.tuning = modgemm_core::TuningMode::Profile;
                }
                Algo::Conventional
                | Algo::Service { .. }
                | Algo::Batch { .. }
                | Algo::BatchSerial { .. } => {}
            }
        }
    }
    // --tunable-only scopes the suite to the cases a profile can steer
    // (plus the conventional reference the score normalizes by). The CI
    // tuned-vs-untuned gate passes it to *both* runs: the kernel_* sweep
    // and the service case run with identical configs under either
    // tuning mode, so including them would feed the gate nothing but
    // run-to-run noise — and `compare` treats a case dropped from one
    // side as a regression, so the scoping has to be symmetric.
    if tunable_only {
        cases.retain(|c| match &c.algo {
            Algo::Conventional => true,
            Algo::Modgemm(_) | Algo::PlanReuse { .. } => {
                !c.name.starts_with("kernel_")
                    && !c.name.starts_with("fused_vs_staged_")
                    && !c.name.starts_with("schedule_")
                    && !c.name.starts_with("budget_sweep_")
                    && !c.name.starts_with("sched_gate_")
                    && !c.name.ends_with("_paper")
            }
            Algo::Service { .. } | Algo::Batch { .. } | Algo::BatchSerial { .. } => false,
        });
    }
    cases
}

/// Square sizes the service case's clients alternate between: a power
/// of two and the paper's worst case for padding.
const SERVICE_SIZES: [usize; 2] = [256, 513];

/// What one case measured.
struct Measured {
    /// Seconds per timed sample (a call, a batch, a plan execution, or
    /// one service repetition).
    secs: Vec<f64>,
    /// Effective flops (`2·m·k·n` per multiply) one timed sample covers.
    flops: f64,
    /// Metrics snapshot of the last repetition.
    metrics: modgemm_core::ExecMetrics,
    /// The service case's extra report object.
    service: Option<Value>,
}

/// Drives the long-running [`GemmService`] with square requests of the
/// given `sizes` (alternating) from `clients` threads. Each timed sample
/// is one repetition's wall time, and its flops are the effective flops
/// of the requests completed in it, so GFLOP/s is the service's
/// throughput. The `service` report object carries the per-request
/// p50/p99 latency, rejection rate, plan-cache hit rate, and the raw
/// admission counters.
fn run_service_case(sizes: &[usize], requests: u32, clients: u32, reps: u32) -> Measured {
    use std::sync::Arc;
    let svc = Arc::new(GemmService::<f64>::start(ServiceConfig {
        queue_capacity: 16,
        dispatchers: 2,
        ..ServiceConfig::default()
    }));
    // Operands are generated once and cloned per request, so the clients
    // measure service latency rather than RNG throughput.
    let inputs: Arc<Vec<(Matrix<f64>, Matrix<f64>)>> = Arc::new(
        sizes.iter().map(|&n| (random_matrix(n, n, 11), random_matrix(n, n, 13))).collect(),
    );
    let mut latencies: Vec<f64> = Vec::new();
    let mut secs = Vec::with_capacity(reps as usize);
    let mut completed_flops = 0.0;
    // Rep 0 is the untimed warmup, matching the other cases' protocol: it
    // fills the plan cache and sizes the dispatcher contexts.
    for rep in 0..=reps {
        let t0 = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|ci| {
                let svc = Arc::clone(&svc);
                let inputs = Arc::clone(&inputs);
                std::thread::spawn(move || {
                    let mut lats = Vec::new();
                    for i in 0..(requests / clients.max(1)).max(1) {
                        let (a, b) = &inputs[(ci + i) as usize % inputs.len()];
                        let t0 = Instant::now();
                        match svc.submit(GemmRequest::new(a.clone(), b.clone())) {
                            Ok(ticket) => {
                                ticket.wait().expect("service bench request failed");
                                let n = a.rows();
                                let flops = conventional_flops(n, n, n) as f64;
                                lats.push((t0.elapsed().as_secs_f64(), flops));
                            }
                            // Overload is measured behaviour (it feeds the
                            // rejection rate), not a bench failure.
                            Err(GemmError::Overloaded { .. }) => {}
                            Err(other) => panic!("unexpected submit rejection: {other:?}"),
                        }
                    }
                    lats
                })
            })
            .collect();
        for worker in workers {
            let lats = worker.join().expect("service bench client panicked");
            if rep > 0 {
                for (lat, flops) in lats {
                    latencies.push(lat);
                    completed_flops += flops;
                }
            }
        }
        if rep > 0 {
            secs.push(t0.elapsed().as_secs_f64());
        }
    }
    let stats = svc.stats();
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[(((sorted.len() - 1) as f64) * p).round() as usize]
    };
    let service_json = Value::object()
        .with("p50_latency_ms", pct(0.50) * 1e3)
        .with("p99_latency_ms", pct(0.99) * 1e3)
        .with("rejection_rate", stats.rejection_rate())
        .with("plan_cache_hit_rate", stats.plan_cache_hit_rate())
        .with("submitted", stats.submitted)
        .with("completed", stats.completed)
        .with("rejected_overload", stats.rejected_overload)
        .with("peak_bytes_in_use", stats.peak_bytes_in_use);
    Measured {
        flops: completed_flops / reps.max(1) as f64,
        secs,
        metrics: CollectingSink::new().into_metrics(),
        service: Some(service_json),
    }
}

/// Drives one batch case: `items` same-shape `n × n × n` multiplies per
/// timed repetition, either through the whole-batch
/// [`modgemm_core::BatchPlan`] DAG (`batched`) or through a per-item
/// loop over one reused `GemmPlan` (the serial control). Operand/output
/// windows are strided through contiguous slabs, so both sides move
/// identical bytes. Per-rep seconds cover the whole batch, and so do the
/// flops: `items` multiplies' worth.
fn run_batch_case(
    cfg: &ModgemmConfig,
    n: usize,
    items: usize,
    reps: u32,
    batched: bool,
) -> Measured {
    use modgemm_core::{BatchPlan, StridedBatch};
    use modgemm_mat::{MatMut, MatRef};
    let a: Matrix<f64> = random_matrix(n, n * items, 11);
    let b: Matrix<f64> = random_matrix(n, n * items, 13);
    let mut c = vec![0.0f64; n * n * items];
    let mut ctx = GemmContext::new();
    let bplan =
        BatchPlan::<f64>::try_new(n, n, n, items, cfg).expect("batch bench plan must compile");
    let iplan = modgemm_core::GemmPlan::<f64>::try_new(n, n, n, cfg).expect("valid config");
    let one = n * n;
    let desc = StridedBatch {
        alpha: 1.0,
        op_a: Op::NoTrans,
        a: a.as_slice(),
        lda: n,
        stride_a: one,
        op_b: Op::NoTrans,
        b: b.as_slice(),
        ldb: n,
        stride_b: one,
        beta: 0.0,
        ldc: n,
        stride_c: one,
    };
    let mut secs = Vec::with_capacity(reps as usize);
    let mut last = CollectingSink::new();
    for rep in 0..=reps {
        let mut sink = CollectingSink::new();
        let t0 = Instant::now();
        if batched {
            bplan
                .try_execute_with_metrics(&desc, &mut c, &mut ctx, &mut sink)
                .expect("batch bench case failed");
        } else {
            for i in 0..items {
                let av = MatRef::from_slice(&a.as_slice()[i * one..(i + 1) * one], n, n, n);
                let bv = MatRef::from_slice(&b.as_slice()[i * one..(i + 1) * one], n, n, n);
                let cv = MatMut::from_slice(&mut c[i * one..(i + 1) * one], n, n, n);
                iplan
                    .try_execute_with_metrics(
                        1.0,
                        Op::NoTrans,
                        av,
                        Op::NoTrans,
                        bv,
                        0.0,
                        cv,
                        &mut ctx,
                        &mut sink,
                    )
                    .expect("batch bench case failed");
            }
        }
        if rep > 0 {
            secs.push(t0.elapsed().as_secs_f64());
        }
        last = sink;
    }
    let metrics = last.into_metrics();
    Measured {
        secs,
        flops: (metrics.effective_flops() * items as u64) as f64,
        metrics,
        service: None,
    }
}

/// Runs one case `reps` times (after one untimed warmup).
fn run_case(case: &Case, reps: u32) -> Measured {
    if let Algo::Service { requests, clients } = case.algo {
        // The service case has its own driver: latency samples come from
        // client threads, and the execution metrics (which belong to the
        // dispatcher contexts) are reported via the service object.
        return run_service_case(&SERVICE_SIZES, requests, clients, reps);
    }
    if let Algo::Batch { cfg, items } | Algo::BatchSerial { cfg, items } = &case.algo {
        let batched = matches!(case.algo, Algo::Batch { .. });
        return run_batch_case(cfg, case.n, *items, reps, batched);
    }
    let n = case.n;
    let a: Matrix<f64> = random_matrix(n, n, 11);
    let b: Matrix<f64> = random_matrix(n, n, 13);
    let mut c: Matrix<f64> = Matrix::zeros(n, n);
    let mut ctx = GemmContext::new();
    let mut secs = Vec::with_capacity(reps as usize);
    let mut last = CollectingSink::new();
    // PlanReuse cases compile their plan once, outside the timed loop.
    let plan = match &case.algo {
        Algo::PlanReuse { cfg, .. } => {
            Some(GemmPlan::<f64>::try_new(n, n, n, cfg).expect("valid config"))
        }
        Algo::Modgemm(_) | Algo::Conventional => None,
        Algo::Service { .. } | Algo::Batch { .. } | Algo::BatchSerial { .. } => {
            unreachable!("handled above")
        }
    };
    // One untimed warmup rep sizes the context buffers and pages in the
    // operands, keeping first-touch cost out of the sample.
    for rep in 0..=reps {
        let mut sink = CollectingSink::new();
        // PlanReuse times each execution individually so its median is
        // comparable to the single-execution cases' median (a mean over
        // the burst would absorb scheduler-tail outliers the other
        // cases' medians discard).
        let mut per_exec: Vec<f64> = Vec::new();
        let t0 = Instant::now();
        match &case.algo {
            Algo::Modgemm(cfg) => {
                // One-shot: compile inside the timed rep, so every rep
                // records one plan built and one execution.
                let plan = GemmPlan::<f64>::try_new(n, n, n, cfg).expect("valid config");
                sink.record_plan_built();
                plan.try_execute_with_metrics(
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
                .expect("bench case failed");
            }
            Algo::Conventional => {
                conventional_gemm_with_sink(
                    1.0,
                    Op::NoTrans,
                    a.view(),
                    Op::NoTrans,
                    b.view(),
                    0.0,
                    c.view_mut(),
                    &mut sink,
                );
            }
            Algo::PlanReuse { execs, .. } => {
                // Account the (shared) compile so the plans_built /
                // plan_executions amortization ratio is visible.
                sink.record_plan_built();
                let plan = plan.as_ref().expect("plan built above");
                for _ in 0..*execs {
                    let te = Instant::now();
                    plan.try_execute_with_metrics(
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
                    .expect("bench case failed");
                    per_exec.push(te.elapsed().as_secs_f64());
                }
            }
            Algo::Service { .. } | Algo::Batch { .. } | Algo::BatchSerial { .. } => {
                unreachable!("handled above")
            }
        }
        if rep > 0 {
            if per_exec.is_empty() {
                secs.push(t0.elapsed().as_secs_f64());
            } else {
                secs.extend(per_exec);
            }
        }
        last = sink;
    }
    let metrics = last.into_metrics();
    Measured { secs, flops: metrics.effective_flops() as f64, metrics, service: None }
}

fn metrics_json(m: &modgemm_core::ExecMetrics) -> Value {
    Value::object()
        .with("flops", m.flops)
        .with("conventional_flops", m.conventional_flops)
        .with("flop_ratio", m.flop_ratio())
        .with("depth", m.depth)
        .with("strassen_levels", m.strassen_levels)
        .with("fused_levels", m.fused_levels)
        .with("padding_ratio", m.padding_ratio())
        .with("peak_workspace_bytes", m.peak_workspace_bytes)
        .with("temp_allocations", m.temp_allocations)
        .with("temp_alloc_bytes", m.temp_alloc_bytes)
        .with("plans_built", m.plans_built)
        .with("plan_executions", m.plan_executions)
        .with("profile_hits", m.profile_hits)
        .with("arena_bytes", m.arena_bytes)
        .with("conversion_fraction", m.breakdown.conversion_fraction())
        .with(
            "kernel_selected",
            m.kernel_selected.map(|k| k.to_string()).unwrap_or_else(|| "none".to_string()),
        )
        .with("bytes_packed", m.bytes_packed)
        .with("batch_items", m.batch_items)
        .with("batch_window", m.batch_window)
        .with("conversion_overlap_fraction", m.conversion_overlap_fraction)
        .with("pool_workers", m.pool.map_or(0, |p| p.workers))
        .with("pool_tasks", m.pool.map_or(0, |p| p.tasks_executed))
        .with("pool_steals", m.pool.map_or(0, |p| p.steals))
        .with("pool_idle_secs", m.pool.map_or(0.0, |p| p.idle.as_secs_f64()))
}

fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn machine_json() -> Value {
    let cpus = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    Value::object()
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
        .with("num_cpus", cpus)
}

fn run_suite(
    quick: bool,
    out: Option<String>,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
    tuned: bool,
    tunable_only: bool,
) -> ExitCode {
    let suite = if quick { "smoke" } else { "full" };
    let reps = if quick { 5 } else { 9 };
    let tuning = if tuned { "profile" } else { "off" };
    let scope = if tunable_only { " cases=tunable-only" } else { "" };
    eprintln!("bench_runner: suite={suite} reps={reps} tuning={tuning}{scope}");

    let cases = suite_cases(kernel, threads, tuned, tunable_only);
    let mut measured = Vec::new();
    for case in &cases {
        eprint!("  {} (n={}) ... ", case.name, case.n);
        let Measured { secs, flops, metrics, service } = run_case(case, reps);
        let secs_median = median(&secs);
        let secs_min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
        let gflops_median = flops / secs_median / 1e9;
        eprintln!("{gflops_median:.2} GFLOP/s");
        measured.push((case, secs_min, secs_median, flops, metrics, service));
    }

    // The score reference uses min-time throughput: minima are far less
    // sensitive to scheduler noise than medians (the paper's §4 protocol
    // reports minima for the same reason), so the CI gate stays stable.
    let reference = measured
        .iter()
        .find(|(c, ..)| c.name == SCORE_REFERENCE_CASE)
        .map(|(_, secs_min, _, flops, ..)| flops / secs_min / 1e9)
        .expect("suite must contain the score reference case");

    let cases_json: Vec<Value> = measured
        .iter()
        .map(|(case, secs_min, secs_median, flops, metrics, service)| {
            let (m, k, n) = metrics.problem.unwrap_or((case.n, case.n, case.n));
            let gflops_median = flops / secs_median / 1e9;
            let gflops_min = flops / secs_min.max(f64::MIN_POSITIVE) / 1e9;
            let mut obj = Value::object()
                .with("name", case.name.as_str())
                .with("m", m)
                .with("k", k)
                .with("n", n)
                .with("reps", reps as u64)
                .with("secs_min", *secs_min)
                .with("secs_median", *secs_median)
                .with("gflops_min", gflops_min)
                .with("gflops_median", gflops_median)
                .with("score", gflops_min / reference)
                .with("metrics", metrics_json(metrics));
            if let Some(service) = service {
                obj = obj.with("service", service.clone());
            }
            obj
        })
        .collect();

    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let doc = Value::object()
        .with("schema_version", SCHEMA_VERSION)
        .with("suite", suite)
        .with("created_unix", created)
        .with("git_sha", git_sha())
        .with("machine", machine_json())
        .with("cases", cases_json);

    let path = out.unwrap_or_else(|| format!("BENCH_{suite}.json"));
    if let Err(e) = std::fs::write(&path, doc.to_json_pretty()) {
        eprintln!("bench_runner: cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("bench_runner: wrote {path}");
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold = 0.25;
    let mut metric = CompareMetric::Gflops;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(t) => threshold = t,
                None => return usage("--threshold needs a number"),
            },
            "--metric" => match it.next().and_then(|s| CompareMetric::parse(s)) {
                Some(m) => metric = m,
                None => return usage("--metric needs gflops|score"),
            },
            p if !p.starts_with("--") => paths.push(p.to_string()),
            other => return usage(&format!("unknown compare option {other}")),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return usage("compare needs exactly OLD and NEW paths");
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_runner compare: {e}");
            return ExitCode::from(2);
        }
    };
    match compare_reports(&old, &new, metric, threshold) {
        Ok(out) => {
            for line in &out.lines {
                println!("ok  {line}");
            }
            for r in &out.regressions {
                println!("REG {r}");
            }
            if out.ok() {
                println!("compare: {} case(s) within threshold {threshold}", out.lines.len());
                ExitCode::SUCCESS
            } else {
                println!(
                    "compare: {} regression(s) past threshold {threshold}",
                    out.regressions.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_runner compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// A baseline-free `gate-*` subcommand: for each `(control, candidate)`
/// case pair of one report, asserts the candidate's min-time GFLOP/s is
/// no worse than the control's, modulo a run-to-run noise floor. Both
/// cases of a pair ran minutes apart on the same machine, so a real
/// shortfall means the candidate's mechanism costs more than it buys.
struct Gate {
    /// Subcommand name.
    cmd: &'static str,
    /// `(control, candidate)` case names.
    pairs: &'static [(&'static str, &'static str)],
    /// What a failed pair means.
    failure: &'static str,
}

const GATES: [Gate; 4] = [
    // Operand fusion must never cost throughput versus the staged
    // schedule it replaces.
    Gate {
        cmd: "gate-fused",
        pairs: &[("fused_vs_staged_513_staged", "fused_vs_staged_513_fused")],
        failure: "fused min-time GFLOP/s below staged",
    },
    // Lowering the whole batch into one task DAG must never lose to
    // looping the per-item plan. On a one-core runner both sides run the
    // identical serial loop (the DAG needs ≥ 2 workers), so the gate
    // passes trivially there and bites on multi-core runners.
    Gate {
        cmd: "gate-batch",
        pairs: &[
            ("batch_64x64x64_n64_serial", "batch_64x64x64_n64"),
            ("batch_256_n8_serial", "batch_256_n8"),
        ],
        failure: "batched min-time GFLOP/s below the serial loop",
    },
    // Both cases run under one budget sized to the in-place tier's
    // full-depth arena: in-place keeps full Strassen depth, pinned
    // standard must shed recursion levels. The memory-policy ladder's
    // premise is that a cheaper schedule beats a shallower recursion.
    Gate {
        cmd: "gate-schedule",
        pairs: &[("sched_gate_512_standard", "sched_gate_512_inplace")],
        failure: "in-place min-time GFLOP/s below the depth-capped standard schedule at the \
                  same budget",
    },
    // The default configuration must never fall back below the paper's
    // staged Blocked pipeline, including at the padding worst cases whose
    // 33-wide leaves end in ragged register tiles.
    Gate {
        cmd: "gate-default",
        pairs: &[("modgemm_513_paper", "modgemm_513"), ("modgemm_1025_paper", "modgemm_1025")],
        failure: "default-config min-time GFLOP/s below the paper configuration",
    },
];

/// Evaluates `gate` on `report`: one line per pair (each side's min-time
/// GFLOP/s and Strassen levels, and the floor) and whether it passed.
/// Errors when a named case or its `gflops_min` is missing.
fn check_gate(gate: &Gate, report: &Value, threshold: f64) -> Result<Vec<(String, bool)>, String> {
    let case_of = |name: &str| -> Result<(f64, f64), String> {
        let c = report
            .get("cases")
            .and_then(Value::as_array)
            .and_then(|cases| {
                cases.iter().find(|c| c.get("name").and_then(Value::as_str) == Some(name))
            })
            .ok_or_else(|| format!("report lacks a `{name}` case"))?;
        let gflops = c
            .get("gflops_min")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("`{name}` lacks gflops_min"))?;
        let levels = c
            .get("metrics")
            .and_then(|m| m.get("strassen_levels"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        Ok((gflops, levels))
    };
    gate.pairs
        .iter()
        .map(|&(control, candidate)| {
            let (base, base_levels) = case_of(control)?;
            let (cand, cand_levels) = case_of(candidate)?;
            let floor = base * (1.0 - threshold);
            let line = format!(
                "{control} {base:.4} GFLOP/s at {base_levels} level(s), {candidate} {cand:.4} \
                 GFLOP/s at {cand_levels} level(s) (floor {floor:.4}, threshold {threshold})"
            );
            Ok((line, cand >= floor))
        })
        .collect()
}

/// `gate-* REPORT [--threshold T]` (default 5 %): runs [`check_gate`]
/// and exits 0 when every pair passed, 1 on a shortfall, 2 on a usage,
/// I/O or missing-case error.
fn run_gate(gate: &Gate, args: &[String]) -> ExitCode {
    let cmd = gate.cmd;
    let mut path = None;
    let mut threshold = 0.05f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => threshold = t,
                _ => return usage("--threshold needs a number in [0, 1)"),
            },
            p if !p.starts_with("--") && path.is_none() => path = Some(p.to_string()),
            other => return usage(&format!("unknown {cmd} option {other}")),
        }
    }
    let Some(path) = path else {
        return usage(&format!("{cmd} needs a report path"));
    };
    let checked = load(&path).and_then(|report| check_gate(gate, &report, threshold));
    match checked {
        Ok(lines) => {
            let mut failed = false;
            for (line, ok) in lines {
                println!("{cmd}: {line}");
                if !ok {
                    println!("{cmd}: REGRESSION — {}", gate.failure);
                    failed = true;
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_runner {cmd}: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench_runner: {msg}");
    eprintln!(
        "usage: bench_runner [--quick] [--out PATH] [--kernel naive|blocked|micro|packed|auto] [--threads N] [--tuning off|profile] [--tunable-only]\n       \
         bench_runner compare OLD NEW [--threshold 0.25] [--metric gflops|score]\n       \
         bench_runner gate-fused|gate-batch|gate-schedule|gate-default REPORT [--threshold 0.05]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    if let Some(gate) = GATES.iter().find(|g| args.first().map(String::as_str) == Some(g.cmd)) {
        return run_gate(gate, &args[1..]);
    }
    let mut quick = false;
    let mut out = None;
    let mut kernel = None;
    let mut threads = None;
    let mut tuned = false;
    let mut tunable_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--tuning" => match it.next().map(String::as_str) {
                Some("off") => tuned = false,
                Some("profile") => tuned = true,
                _ => return usage("--tuning needs off|profile"),
            },
            "--tunable-only" => tunable_only = true,
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage("--out needs a path"),
            },
            "--kernel" => match it.next().map(|s| s.parse::<KernelKind>()) {
                Some(Ok(k)) => kernel = Some(k),
                Some(Err(e)) => return usage(&e.to_string()),
                None => return usage("--kernel needs a name"),
            },
            "--threads" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(t) if t > 0 => threads = Some(t),
                _ => return usage("--threads needs a positive worker count"),
            },
            other => return usage(&format!("unknown option {other}")),
        }
    }
    run_suite(quick, out, kernel, threads, tuned, tunable_only)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_cases_count_every_item_flops() {
        let (n, items) = (16usize, 4usize);
        let cfg = ModgemmConfig { parallel_depth: 2, ..ModgemmConfig::default() };
        for batched in [true, false] {
            let run = run_batch_case(&cfg, n, items, 1, batched);
            assert_eq!(run.flops, (items as u64 * conventional_flops(n, n, n)) as f64);
            assert_eq!(run.secs.len(), 1);
        }
    }

    #[test]
    fn service_case_rate_comes_from_completed_requests() {
        // Two clients, two requests each, alternating sizes: every timed
        // repetition completes two requests of each size.
        let run = run_service_case(&[16, 24], 4, 2, 2);
        assert_eq!(run.secs.len(), 2);
        let per_rep = 2 * (conventional_flops(16, 16, 16) + conventional_flops(24, 24, 24));
        assert_eq!(run.flops, per_rep as f64);
        assert!(run.flops / median(&run.secs) > 0.0, "the service case reports a rate");
        assert!(run.service.is_some());
    }

    fn report(cases: &[(&str, f64)]) -> Value {
        let cases: Vec<Value> = cases
            .iter()
            .map(|&(name, gflops_min)| {
                Value::object().with("name", name).with("gflops_min", gflops_min)
            })
            .collect();
        Value::object().with("cases", cases)
    }

    #[test]
    fn gate_default_fails_when_the_default_falls_below_paper() {
        let gate = GATES.iter().find(|g| g.cmd == "gate-default").unwrap();
        // Either pair may carry the candidate under test; the other one
        // is a comfortable pass.
        let verdict = |default: f64, at_1025: bool| {
            let (d513, d1025) = if at_1025 { (20.0, default) } else { (default, 20.0) };
            let r = report(&[
                ("modgemm_513", d513),
                ("modgemm_513_paper", 10.0),
                ("modgemm_1025", d1025),
                ("modgemm_1025_paper", 10.0),
            ]);
            let lines = check_gate(gate, &r, 0.05).unwrap();
            assert_eq!(lines.len(), 2);
            lines.iter().all(|(_, ok)| *ok)
        };
        for at_1025 in [false, true] {
            assert!(verdict(20.0, at_1025), "faster default passes");
            assert!(verdict(9.6, at_1025), "inside the 5% noise floor passes");
            assert!(!verdict(9.0, at_1025), "a default slower than the paper config fails");
        }
        let missing = report(&[("modgemm_513", 20.0), ("modgemm_513_paper", 10.0)]);
        assert!(check_gate(gate, &missing, 0.05).is_err(), "a missing 1025 pair is an error");
    }
}
