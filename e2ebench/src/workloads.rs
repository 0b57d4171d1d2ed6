//! The five seeded workloads and the loops that time them.
//!
//! Four are closed loops — one client thread issues the next call when the
//! previous one returns: one-shot `try_dgemm` calls on large shapes, on
//! small shapes, and on mid-size shapes under a quarter of their standard
//! workspace, and `try_gemm_batch_strided` calls. The fifth is an open loop
//! that submits to a `GemmService` on a fixed schedule. The seed draws the
//! operand values and the order of calls; the mix of shapes is the same for
//! every seed, so runs with different seeds measure the same work.
//!
//! A run splits its window into five segments, each after one set-up pass
//! (the median pass is `setup_s`), so that set-up is sampled across the run
//! rather than in one stretch of it. Timings of repeats of the same call are
//! reduced to the fastest before they are combined across calls (see
//! [`Repeats`]). A traced run times half a window untraced and
//! then replays the same calls for the other half through the
//! metrics-reporting twins of the same entry points, recording spans around
//! each call.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use modgemm_baselines::conventional_gemm;
use modgemm_core::blas::{try_dgemm, try_gemm_batch_strided};
use modgemm_core::{
    BatchPlan, CollectingSink, ExecMetrics, GemmContext, GemmError, GemmPlan, GemmRequest,
    GemmService, GemmTicket, MemoryBudget, ModgemmConfig, Schedule, ServiceConfig, StridedBatch,
};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::{KernelKind, MatRef, Matrix, Op};

use crate::check::{self, Gemm, REL_TOL};
use crate::probe::{self, Sentinel};
use crate::stats;
use crate::trace::{Lanes, Tracer};

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] =
    ["blas_large", "blas_small", "blas_budget", "batch_strided", "service_mixed"];

/// Set-up passes per run, each followed by one segment of the window;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// One call in this many gets Freivalds' check (which ones is seeded).
const FREIVALDS_EVERY: u64 = 8;
/// One call in this many is compared against the conventional baseline
/// (which ones is seeded, so alternating streams are sampled on both sides).
const REFERENCE_EVERY: u64 = 16;
/// At most this many distinct shapes are warmed up during set-up.
const WARMUP_SHAPES: usize = 256;

/// `service_mixed` send rate, frozen so that a change to the library cannot
/// change the offered load. It was set from `e2e_bench capacity` on the
/// host `baseline.json` was recorded on, whose capacity there read 132–181
/// requests/s (median 159): 57% of the median. 120 requests/s overloaded
/// the service in that host's slow stretches (see BENCHMARK.md).
pub const SERVICE_RATE: f64 = 90.0;
/// `service_mixed` latency limit: a request of the saturated service that
/// takes longer does not count toward `goodput_rps`.
const SERVICE_LIMIT: Duration = Duration::from_millis(100);

/// SplitMix64: the benchmark's only source of randomness besides the
/// operand generator, so a seed fixes every call.
#[derive(Default)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn op(&mut self) -> Op {
        if self.next_u64() & 1 == 0 {
            Op::NoTrans
        } else {
            Op::Trans
        }
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which checks call `i` gets under `seed`: `(freivalds, reference)`.
fn selected(seed: u64, i: usize) -> (bool, bool) {
    let h = mix(seed ^ mix(i as u64));
    (h % FREIVALDS_EVERY == 0, (h >> 32) % REFERENCE_EVERY == 0)
}

/// FNV-1a over the bit patterns of `xs`: equal hashes mean bit-identical
/// outputs.
fn hash_bits(xs: &[f64]) -> u64 {
    xs.iter().fold(0xCBF2_9CE4_8422_2325, |h, x| (h ^ x.to_bits()).wrapping_mul(0x100_0000_01B3))
}

/// Whether `x` and `y` hold bit-identical values.
fn same_bits(x: &Matrix<f64>, y: &Matrix<f64>) -> bool {
    x.dims() == y.dims()
        && x.as_slice().iter().zip(y.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    /// Errors, rejections and wrong results.
    pub failed: u64,
    /// Every metric the run produced, end-to-end and per-layer.
    pub metrics: BTreeMap<&'static str, f64>,
    pub disturbed: bool,
    pub tracer: Option<Tracer>,
}

/// Runs `workload` and measures it.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut sentinel = Sentinel::new();
    let mut out = match workload {
        "service_mixed" => ServiceLoop::new(seed).measure(seconds, traced, &mut sentinel)?,
        other => ClosedLoop::new(other, seed)?.measure(seconds, traced, &mut sentinel)?,
    };
    let (host, spread) = sentinel.summary();
    out.disturbed = spread > probe::DISTURBED_SPREAD;
    let m = &mut out.metrics;
    m.insert("probe.host_gflops", host);
    m.insert("probe.host_spread", spread);
    m.insert("probe.disturbed", f64::from(u8::from(out.disturbed)));
    m.insert("pool.resolved_threads", modgemm_core::resolve_threads(0) as f64);
    m.insert("check.fail_frac", out.failed as f64 / out.attempted.max(1) as f64);
    if traced {
        // After the peak-RSS reading: the copy probe's arrays must not count.
        let llc = probe::llc_bytes();
        let array = probe::copy_array_bytes(llc);
        let copy = probe::copy_gbs(array);
        let peak = probe::kernel_peak_gflops(Duration::from_millis(200));
        m.insert("probe.llc_mb", llc.unwrap_or(0) as f64 / (1 << 20) as f64);
        m.insert("probe.copy_array_mb", array as f64 / (1 << 20) as f64);
        m.insert("probe.copy_gbs", copy);
        m.insert("probe.kernel_peak_gflops", peak);
        let morton = m.get("morton.gbs").copied().unwrap_or(0.0);
        m.insert("morton.frac_of_copy", morton / copy);
        let kernel = m.get("kernel.gflops").copied().unwrap_or(0.0);
        m.insert("kernel.frac_of_peak", kernel / peak);
    }
    Ok(out)
}

/// The `service_mixed` service's capacity in requests per second, which
/// [`SERVICE_RATE`] was set against.
pub fn service_capacity(seed: u64, seconds: f64) -> Result<f64, String> {
    let lp = ServiceLoop::new(seed);
    let (svc, _, outputs) = lp.setup()?;
    let (mut w, mut golden) = (Window::default(), Vec::new());
    lp.verify(outputs, &mut golden, &mut w);
    let (rps, _) = lp.saturate(&svc, seconds, &mut w, &golden);
    if w.failed > 0 {
        return Err(format!("{} of {} requests failed", w.failed, w.attempted));
    }
    Ok(rps)
}

/// Most latencies a window keeps for the tail, sampled uniformly.
const TAIL_SAMPLE: usize = 1 << 14;

/// The correct repeats of one distinct call in a window.
struct Repeats {
    /// Conventional flops of one repeat.
    work: f64,
    count: u64,
    /// The fastest repeat's latency, in seconds. Each repeat takes the
    /// call's own time plus whatever the host added to it, so the fastest
    /// is the least disturbed: a slow stretch of the host, or a contended
    /// second core, does not move it unless it covers every repeat.
    best: f64,
}

/// Latency samples of one timed window. What it keeps does not grow with
/// the number of operations, so `peak_rss_mb` does not depend on how fast
/// the library is.
#[derive(Default)]
struct Window {
    /// Per distinct call (repeats of a call share a key).
    repeats: BTreeMap<usize, Repeats>,
    /// A uniform sample of at most [`TAIL_SAMPLE`] correct latencies as
    /// measured, and the number of correct operations it was drawn from.
    sample: Vec<f64>,
    correct: u64,
    rng: Rng,
    attempted: u64,
    failed: u64,
    rel_err_max: f64,
    /// Outputs that differed from the same call's earlier output.
    mismatches: u64,
    /// Service only: how late each send was, and each completed request's
    /// `(submit, wait)` times, in seconds.
    lags: Vec<f64>,
    phases: Vec<(f64, f64)>,
}

impl Window {
    /// Records one operation; only correct ones count toward the metrics.
    fn push(&mut self, key: usize, work: f64, secs: f64, ok: bool) {
        if !ok {
            return;
        }
        let r = self.repeats.entry(key).or_insert(Repeats { work, count: 0, best: f64::INFINITY });
        r.count += 1;
        r.best = r.best.min(secs);
        self.correct += 1;
        if self.sample.len() < TAIL_SAMPLE {
            self.sample.push(secs);
        } else {
            let j = self.rng.below(self.correct as usize);
            if j < TAIL_SAMPLE {
                self.sample[j] = secs;
            }
        }
    }

    /// The median over `(f(call), repeats)`: over correct operations, each
    /// taking its call's fastest repeat.
    fn per_op(&self, f: impl Fn(&Repeats) -> f64) -> f64 {
        let pairs: Vec<(f64, u64)> = self.repeats.values().map(|r| (f(r), r.count)).collect();
        stats::weighted_median(&pairs)
    }

    /// Median over correct operations of flops per second.
    fn gflops(&self) -> f64 {
        self.per_op(|r| r.work / r.best) / 1e9
    }

    /// Median over correct operations of their latency.
    fn best_p50(&self) -> f64 {
        self.per_op(|r| r.best)
    }

    /// Correct operations per second.
    fn goodput(&self) -> f64 {
        let busy: f64 = self.repeats.values().map(|r| r.count as f64 * r.best).sum();
        self.correct as f64 / busy
    }

    /// The per-layer tail latency over correct operations (as measured,
    /// not reduced per call), and the largest scaled error.
    fn tail(&self, m: &mut BTreeMap<&'static str, f64>) {
        let tail = stats::tail(&self.sample);
        m.insert("lat_tail_ms", tail.value * 1e3);
        m.insert("lat_tail.pct", tail.pct);
        m.insert("lat_tail.beyond", tail.beyond as f64);
        m.insert("check.rel_err_max", self.rel_err_max);
    }
}

// ---------------------------------------------------------------------------
// Closed loops
// ---------------------------------------------------------------------------

/// One call of a closed loop.
#[derive(Clone, Copy)]
struct Call {
    m: usize,
    k: usize,
    n: usize,
    /// Batch items (1 for a one-shot `try_dgemm`).
    items: usize,
    ta: Op,
    tb: Op,
    cfg: ModgemmConfig,
}

impl Call {
    fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n * self.items) as f64
    }

    fn lda(&self) -> usize {
        if self.ta == Op::NoTrans {
            self.m
        } else {
            self.k
        }
    }

    fn ldb(&self) -> usize {
        if self.tb == Op::NoTrans {
            self.k
        } else {
            self.n
        }
    }

    /// Bytes the Morton conversions move, computed from the padded layout:
    /// `op(A)` and `op(B)` read, their Morton copies written, the Morton
    /// result read and `C` read and written.
    fn morton_bytes(&self) -> f64 {
        let (m, k, n) = (self.m, self.k, self.n);
        let (pm, pk, pn) = match self.cfg.plan(m, k, n) {
            Some(t) => (t.m.padded, t.k.padded, t.n.padded),
            None => (m, k, n),
        };
        let elems = m * k + k * n + pm * pk + pk * pn + pm * pn + 2 * m * n;
        (8 * elems * self.items) as f64
    }
}

/// Per-layer record of one traced call.
struct Traced {
    call: Call,
    /// Latency of the call itself (the check that may follow excluded).
    secs: f64,
    plan: f64,
    execute: f64,
    metrics: ExecMetrics,
}

struct ClosedLoop {
    name: &'static str,
    calls: Vec<Call>,
    /// Per call, its shape's index among the distinct shapes of `calls`.
    keys: Vec<usize>,
    alpha: f64,
    beta: f64,
    /// Operands shared by every call, sized for the largest: each call
    /// reads a prefix of them.
    a: Vec<f64>,
    b: Vec<f64>,
    c0: Vec<f64>,
    c: Vec<f64>,
    /// The conventional baseline's product for the call being checked.
    expect: Vec<f64>,
    seed: u64,
}

/// `blas_large` shapes `(m, k, n)`: the leaf kernel and the Winograd
/// additions do almost all the work; 1025 is a worst case for padding.
const LARGE: [(usize, usize, usize); 5] =
    [(640, 640, 640), (768, 768, 768), (1000, 1000, 1000), (1025, 1025, 1025), (1100, 900, 1000)];
/// `blas_budget` shapes: the `blas_large` stream scaled to 512–768.
const BUDGET: [(usize, usize, usize); 5] =
    [(513, 513, 513), (576, 576, 576), (640, 640, 640), (704, 704, 704), (768, 640, 704)];
/// Generator seed of the `blas_small` shapes.
const SMALL_SHAPES: u64 = 0x5EED_5A11;
/// `batch_strided` calls `(items, m, k, n)`: many small items, fewer
/// mid-size ones, and a rectangle, each doing the same flops. Three, so that
/// the median over calls is the middle one's time rather than a boundary
/// between two.
const BATCHES: [(usize, usize, usize, usize); 3] =
    [(240, 64, 64, 64), (30, 128, 128, 128), (16, 192, 160, 128)];

impl ClosedLoop {
    fn new(name: &str, seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let base = ModgemmConfig::default();
        let call = |rng: &mut Rng, (m, k, n): (usize, usize, usize), items, cfg| Call {
            m,
            k,
            n,
            items,
            ta: rng.op(),
            tb: rng.op(),
            cfg,
        };
        // Shapes come in rounds, each a shuffled copy of the whole set, so
        // every seed runs the same mix.
        let rounds = |rng: &mut Rng, set: &[Call], count: usize| {
            let mut calls = Vec::with_capacity(set.len() * count);
            for _ in 0..count {
                let mut round = set.to_vec();
                rng.shuffle(&mut round);
                for c in &mut round {
                    (c.ta, c.tb) = (rng.op(), rng.op());
                }
                calls.extend(round);
            }
            calls
        };
        let (name, calls): (&'static str, Vec<Call>) = match name {
            "blas_large" => {
                let set: Vec<Call> = LARGE.iter().map(|&s| call(&mut rng, s, 1, base)).collect();
                ("blas_large", rounds(&mut rng, &set, 400))
            }
            "blas_budget" => {
                let set: Vec<Call> = BUDGET
                    .iter()
                    .map(|&(m, k, n)| {
                        let full = GemmPlan::<f64>::try_new(m, k, n, &base)
                            .map_err(|e| format!("planning {m}x{k}x{n}: {e}"))?
                            .arena_len();
                        let budget = MemoryBudget::MaxWorkspaceBytes(full * 8 / 4);
                        Ok(call(
                            &mut rng,
                            (m, k, n),
                            1,
                            ModgemmConfig { memory_budget: budget, ..base },
                        ))
                    })
                    .collect::<Result<_, String>>()?;
                ("blas_budget", rounds(&mut rng, &set, 400))
            }
            "blas_small" => {
                // Log-uniform in [17, 256], with one dimension in eight
                // replaced by a worst case for padding (65 or 129). The
                // shapes and their order are the same for every seed: with
                // this many sizes, the order of allocations decides how far
                // the heap grows, so a seeded order would move
                // `peak_rss_mb` by several percent.
                let mut shapes = Rng::new(SMALL_SHAPES);
                let mut dim = || {
                    if shapes.below(8) == 0 {
                        [65, 129][shapes.below(2)]
                    } else {
                        (17f64.ln() + shapes.unit() * (256f64.ln() - 17f64.ln())).exp().round()
                            as usize
                    }
                };
                let set: Vec<Call> = (0..8192)
                    .map(|_| {
                        let shape = (dim(), dim(), dim());
                        call(&mut rng, shape, 1, base)
                    })
                    .collect();
                ("blas_small", set)
            }
            "batch_strided" => {
                let set: Vec<Call> = BATCHES
                    .iter()
                    .map(|&(items, m, k, n)| call(&mut rng, (m, k, n), items, base))
                    .collect();
                ("batch_strided", rounds(&mut rng, &set, 700))
            }
            other => return Err(format!("unknown workload `{other}`")),
        };
        let most = |f: fn(&Call) -> usize| calls.iter().map(f).max().unwrap_or(0);
        let (la, lb, lc) = (
            most(|c| c.m * c.k * c.items),
            most(|c| c.k * c.n * c.items),
            most(|c| c.m * c.n * c.items),
        );
        let a = random_matrix::<f64>(la, 1, mix(seed ^ 1)).into_vec();
        let b = random_matrix::<f64>(lb, 1, mix(seed ^ 2)).into_vec();
        let c0 = random_matrix::<f64>(lc, 1, mix(seed ^ 3)).into_vec();
        let mut expect = vec![0.0; most(|c| c.m * c.n)];
        // One baseline product on the largest call, with both operands
        // transposed (the most the baseline allocates), so that the peak
        // memory of a run does not depend on which calls its seed checks.
        let largest =
            *calls.iter().max_by_key(|c| c.m * c.k + c.k * c.n + c.m * c.n).expect("calls");
        let (m, k, n) = (largest.m, largest.k, largest.n);
        check::reference_error(
            &Gemm {
                alpha: 1.5,
                ta: Op::Trans,
                a: MatRef::from_slice(&a, k, m, k),
                tb: Op::Trans,
                b: MatRef::from_slice(&b, n, k, n),
                beta: 0.5,
                c0: MatRef::from_slice(&c0, m, n, m),
                c: MatRef::from_slice(&c0, m, n, m),
            },
            &mut expect,
        );
        let c = c0.clone();
        let mut shapes = BTreeMap::new();
        let keys = calls
            .iter()
            .map(|c| {
                let next = shapes.len();
                *shapes.entry((c.m, c.k, c.n, c.items)).or_insert(next)
            })
            .collect();
        Ok(Self { name, calls, keys, alpha: 1.5, beta: 0.5, a, b, c0, c, expect, seed })
    }

    fn call(&self, i: usize) -> Call {
        self.calls[i % self.calls.len()]
    }

    /// Resets `C` and makes call `i` through the public one-shot entry
    /// point, returning its latency.
    fn issue(&mut self, i: usize) -> Result<f64, GemmError> {
        let c = self.call(i);
        let (out, (a, b)) = (&mut self.c[..c.m * c.n * c.items], (&self.a, &self.b));
        out.copy_from_slice(&self.c0[..out.len()]);
        let t = Instant::now();
        if c.items == 1 {
            try_dgemm(
                c.ta,
                c.tb,
                c.m,
                c.n,
                c.k,
                self.alpha,
                a,
                c.lda(),
                b,
                c.ldb(),
                self.beta,
                out,
                c.m,
                &c.cfg,
            )?;
        } else {
            try_gemm_batch_strided(
                c.ta,
                c.tb,
                c.m,
                c.n,
                c.k,
                self.alpha,
                a,
                c.lda(),
                c.m * c.k,
                b,
                c.ldb(),
                c.k * c.n,
                self.beta,
                out,
                c.m,
                c.m * c.n,
                c.items,
                &c.cfg,
            )?;
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// Call `i` through the same path with a metrics sink — plan, then
    /// execute on a fresh context, which is exactly what the one-shot entry
    /// points do — with a span around each step.
    fn issue_traced(
        &mut self,
        i: usize,
        tr: &mut Tracer,
        track: usize,
    ) -> Result<(usize, Traced), GemmError> {
        let c = self.call(i);
        let (out, (a, b)) = (&mut self.c[..c.m * c.n * c.items], (&self.a, &self.b));
        out.copy_from_slice(&self.c0[..out.len()]);
        let mut sink = CollectingSink::new();
        let t0 = Instant::now();
        let t1;
        if c.items == 1 {
            let plan = GemmPlan::<f64>::try_new(c.m, c.k, c.n, &c.cfg)?;
            t1 = Instant::now();
            let (ar, ac) = c.ta.apply_dims(c.m, c.k);
            let (br, bc) = c.tb.apply_dims(c.k, c.n);
            let av = MatRef::from_slice(a, ar, ac, c.lda());
            let bv = MatRef::from_slice(b, br, bc, c.ldb());
            let cv = modgemm_mat::MatMut::from_slice(out, c.m, c.n, c.m);
            let mut ctx = GemmContext::new();
            plan.try_execute_with_metrics(
                self.alpha, c.ta, av, c.tb, bv, self.beta, cv, &mut ctx, &mut sink,
            )?;
        } else {
            let plan = BatchPlan::<f64>::try_new(c.m, c.k, c.n, c.items, &c.cfg)?;
            t1 = Instant::now();
            let desc = StridedBatch {
                alpha: self.alpha,
                op_a: c.ta,
                a,
                lda: c.lda(),
                stride_a: c.m * c.k,
                op_b: c.tb,
                b,
                ldb: c.ldb(),
                stride_b: c.k * c.n,
                beta: self.beta,
                ldc: c.m,
                stride_c: c.m * c.n,
            };
            let mut ctx = GemmContext::new();
            plan.try_execute_with_metrics(&desc, out, &mut ctx, &mut sink)?;
        }
        let t2 = Instant::now();
        let metrics = sink.into_metrics();
        let op = tr.push("op", i as u64, None, track, t0, t2);
        tr.push("plan", i as u64, Some(op), track, t0, t1);
        let exec = tr.push("execute", i as u64, Some(op), track, t1, t2);
        // The library times conversion and compute itself; lay those
        // durations end to end from the start of execute, so what execute
        // keeps as self time is the gemm overhead. (The batch DAG overlaps
        // them and reports no breakdown.)
        let bd = metrics.breakdown;
        let mut at = t1;
        for (name, d) in
            [("morton_in", bd.convert_in), ("compute", bd.compute), ("morton_out", bd.convert_out)]
        {
            if !d.is_zero() {
                tr.push(name, i as u64, Some(exec), track, at, at + d);
                at += d;
            }
        }
        let (plan, execute) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        Ok((op, Traced { call: c, secs: plan + execute, plan, execute, metrics }))
    }

    /// Checks the output of call `i` if it is selected: Freivalds' test on
    /// one call in eight, the conventional baseline on one in sixteen.
    /// Returns `(wrong, scaled error if compared)`.
    fn check(&mut self, i: usize) -> (bool, Option<f64>) {
        let (freivalds, reference) = selected(self.seed, i);
        if !freivalds && !reference {
            return (false, None);
        }
        let c = self.call(i);
        let (ar, ac) = c.ta.apply_dims(c.m, c.k);
        let (br, bc) = c.tb.apply_dims(c.k, c.n);
        let (mut wrong, mut worst) = (false, 0.0f64);
        for item in 0..c.items {
            let (oa, ob, oc) = (item * c.m * c.k, item * c.k * c.n, item * c.m * c.n);
            let g = Gemm {
                alpha: self.alpha,
                ta: c.ta,
                a: MatRef::from_slice(&self.a[oa..], ar, ac, c.lda()),
                tb: c.tb,
                b: MatRef::from_slice(&self.b[ob..], br, bc, c.ldb()),
                beta: self.beta,
                c0: MatRef::from_slice(&self.c0[oc..], c.m, c.n, c.m),
                c: MatRef::from_slice(&self.c[oc..], c.m, c.n, c.m),
            };
            if freivalds && !check::freivalds(&g, mix(self.seed ^ i as u64)) {
                wrong = true;
            }
            if reference {
                let err = check::reference_error(&g, &mut self.expect);
                wrong |= err > REL_TOL;
                worst = worst.max(err);
            }
        }
        (wrong, reference.then_some(worst))
    }

    fn output_hash(&self, i: usize) -> u64 {
        let c = self.call(i);
        hash_bits(&self.c[..c.m * c.n * c.items])
    }

    /// One set-up pass: one call of each distinct shape (the first
    /// [`WARMUP_SHAPES`] of them), in stream order.
    fn setup(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let mut warmed = 0;
        for i in 0..self.calls.len() {
            // Shapes are numbered in order of first appearance.
            if self.keys[i] != warmed {
                continue;
            }
            self.issue(i).map_err(|e| format!("{} set-up call {i}: {e}", self.name))?;
            warmed += 1;
            if warmed == WARMUP_SHAPES {
                break;
            }
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// Times calls for `seconds` of issuing time into `w`, continuing from
    /// call `w.attempted`. With a tracer the calls go through
    /// [`Self::issue_traced`], and each output is compared with the hash
    /// `hashes` holds for the same call; without one, the hashes are
    /// recorded.
    fn window(
        &mut self,
        w: &mut Window,
        seconds: f64,
        sentinel: &mut Sentinel,
        mut tracing: Option<(&mut Tracer, &mut Vec<Traced>)>,
        mut hashes: Option<&mut Vec<u64>>,
    ) {
        let mut deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut reported = false;
        while Instant::now() < deadline {
            sentinel.tick();
            let i = w.attempted as usize;
            let c = self.call(i);
            let result = match tracing.as_mut() {
                Some((tr, recs)) => {
                    let track = tr.track(self.name);
                    self.issue_traced(i, tr, track).map(|(op, rec)| {
                        let secs = rec.secs;
                        recs.push(rec);
                        (Some(op), secs)
                    })
                }
                None => self.issue(i).map(|secs| (None, secs)),
            };
            w.attempted += 1;
            let t = Instant::now();
            let (secs, ok) = match result {
                Ok((op, secs)) => {
                    let (mut wrong, err) = self.check(i);
                    if let Some(err) = err {
                        w.rel_err_max = w.rel_err_max.max(err);
                    }
                    if let Some(hashes) = hashes.as_deref_mut() {
                        let h = self.output_hash(i);
                        if tracing.is_none() {
                            hashes.push(h);
                        } else if hashes.get(i).is_some_and(|&x| x != h) {
                            w.mismatches += 1;
                            wrong = true;
                        }
                    }
                    if let (Some(op), Some((tr, _))) = (op, tracing.as_mut()) {
                        let track = tr.track(self.name);
                        let end = Instant::now();
                        tr.push("verify", i as u64, Some(op), track, t, end);
                        tr.end_at(op, end);
                    }
                    if wrong && !reported {
                        eprintln!(
                            "{}: call {i} ({}x{}x{}) produced a wrong result",
                            self.name, c.m, c.k, c.n
                        );
                        reported = true;
                    }
                    (secs, !wrong)
                }
                Err(e) => {
                    if !reported {
                        eprintln!("{}: call {i} failed: {e}", self.name);
                        reported = true;
                    }
                    (0.0, false)
                }
            };
            w.push(self.keys[i % self.keys.len()], c.flops(), secs, ok);
            w.failed += u64::from(!ok);
            // Checks do not count against the window.
            deadline += t.elapsed();
        }
    }

    fn measure(
        mut self,
        seconds: f64,
        traced: bool,
        sentinel: &mut Sentinel,
    ) -> Result<Outcome, String> {
        let span = if traced { seconds / 2.0 } else { seconds };
        let mut hashes = Vec::new();
        let mut plain = Window::default();
        let mut setups = Vec::new();
        for _ in 0..SETUP_REPEATS {
            setups.push(self.setup()?);
            let part = span / SETUP_REPEATS as f64;
            self.window(&mut plain, part, sentinel, None, traced.then_some(&mut hashes));
        }
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", stats::median(&setups));
        metrics.insert("gflops", plain.gflops());
        metrics.insert("lat_p50_ms", plain.best_p50() * 1e3);
        metrics.insert("goodput_rps", plain.goodput());
        plain.tail(&mut metrics);
        metrics.insert("peak_rss_mb", probe::peak_rss_mib());
        let (mut attempted, mut failed) = (plain.attempted, plain.failed);

        let mut tracer = None;
        if traced {
            let mut tr = Tracer::new(Instant::now());
            let mut recs = Vec::new();
            let mut w = Window::default();
            self.window(&mut w, span, sentinel, Some((&mut tr, &mut recs)), Some(&mut hashes));
            attempted += w.attempted;
            failed += w.failed;
            closed_layers(&recs, &tr, &mut metrics);
            let gap = 1.0 - w.gflops() / plain.gflops();
            metrics.insert("trace.overhead_frac", gap);
            metrics.insert("trace.compared_ops", hashes.len().min(w.attempted as usize) as f64);
            metrics.insert("trace.mismatches", w.mismatches as f64);
            tracer = Some(tr);
        }
        Ok(Outcome { attempted, failed, metrics, disturbed: false, tracer })
    }
}

/// Numeric code of a schedule tier (its place on the degradation ladder).
fn tier(s: Schedule) -> f64 {
    Schedule::ALL.iter().position(|&t| t == s).unwrap_or(0) as f64
}

/// Numeric code of a leaf kernel (its place in `KernelKind::ALL`).
fn kernel_code(k: KernelKind) -> f64 {
    KernelKind::ALL.iter().position(|&x| x == k).unwrap_or(0) as f64
}

/// The per-layer table of a traced closed-loop window.
fn closed_layers(recs: &[Traced], tr: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let n = recs.len().max(1) as f64;
    let med = |f: &dyn Fn(&Traced) -> f64| stats::median(&recs.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Traced) -> f64| recs.iter().map(f).sum::<f64>();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    // Level times: the staged levels are additions; the last recorded
    // level is the hand-over to the leaf kernel (with any fused levels).
    let staged = |r: &Traced| r.metrics.strassen_levels - r.metrics.fused_levels;
    let adds = |r: &Traced| r.metrics.level_times.iter().take(staged(r)).sum::<Duration>();
    let leaf = |r: &Traced| r.metrics.level_times.get(staged(r)).copied().unwrap_or_default();
    let bd = |r: &Traced| r.metrics.breakdown;

    m.insert("plan.compile_us", med(&|r| r.plan * 1e6));
    m.insert("plan.builds", recs.len() as f64);
    m.insert("plan.cache_hit_rate", 0.0);

    m.insert("morton.in_ms", med(&|r| ms(bd(r).convert_in)));
    m.insert("morton.out_ms", med(&|r| ms(bd(r).convert_out)));
    m.insert("morton.bytes", sum(&|r| r.call.morton_bytes()) / n);
    let conv = sum(&|r| (bd(r).convert_in + bd(r).convert_out).as_secs_f64());
    let conv_bytes = sum(&|r| if bd(r).total().is_zero() { 0.0 } else { r.call.morton_bytes() });
    m.insert("morton.gbs", if conv > 0.0 { conv_bytes / conv / 1e9 } else { 0.0 });
    m.insert("morton.share", conv / sum(&|r| r.secs));

    // The batch DAG overlaps conversion with compute and reports no
    // breakdown; its whole execute span counts as compute.
    let compute =
        |r: &Traced| if bd(r).total().is_zero() { r.execute } else { bd(r).compute.as_secs_f64() };
    m.insert("exec.compute_ms", med(&|r| compute(r) * 1e3));
    m.insert("exec.adds_ms", med(&|r| ms(adds(r))));
    m.insert("exec.strassen_levels", med(&|r| r.metrics.strassen_levels as f64));
    m.insert("exec.fused_levels", med(&|r| r.metrics.fused_levels as f64));
    m.insert("exec.schedule_tier", sum(&|r| r.metrics.schedule_selected.map_or(0.0, tier)) / n);
    let flops = sum(&|r| r.metrics.flops as f64);
    let conventional = sum(&|r| r.metrics.conventional_flops as f64);
    m.insert("exec.flop_ratio", flops / conventional);
    let logical = sum(&|r| r.call.flops() / 2.0);
    m.insert("exec.padding_ratio", sum(&|r| r.metrics.padded_volume as f64) / logical);
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    m.insert(
        "exec.workspace_mb",
        recs.iter().map(|r| mib(r.metrics.peak_workspace_bytes)).fold(0.0, f64::max),
    );
    m.insert(
        "exec.workspace_used_mb",
        recs.iter().map(|r| mib(r.metrics.workspace_used_bytes)).fold(0.0, f64::max),
    );
    m.insert("exec.temp_alloc_bytes", sum(&|r| r.metrics.temp_alloc_bytes as f64) / n);

    m.insert("kernel.leaf_ms", med(&|r| ms(leaf(r))));
    // Leaf flops: the padded conventional count shrinks by 7/8 per
    // Strassen level.
    let leaf_flops = sum(&|r| {
        r.metrics.conventional_flops as f64 * 0.875f64.powi(r.metrics.strassen_levels as i32)
    });
    let leaf_secs = sum(&|r| leaf(r).as_secs_f64());
    m.insert("kernel.gflops", if leaf_secs > 0.0 { leaf_flops / leaf_secs / 1e9 } else { 0.0 });
    m.insert(
        "kernel.selected",
        recs.last().and_then(|r| r.metrics.kernel_selected).map_or(0.0, kernel_code),
    );

    let pool = |r: &Traced| r.metrics.pool.unwrap_or_default();
    m.insert(
        "pool.workers",
        recs.iter().map(|r| pool(r).workers.max(1) as f64).fold(0.0, f64::max),
    );
    m.insert("pool.tasks", sum(&|r| pool(r).tasks_executed as f64) / n);
    m.insert("pool.steals", sum(&|r| pool(r).steals as f64) / n);
    let capacity = sum(&|r| pool(r).workers as f64 * r.execute);
    let idle = sum(&|r| pool(r).idle.as_secs_f64());
    m.insert("pool.idle_frac", if capacity > 0.0 { idle / capacity } else { 0.0 });

    m.insert(
        "batch.window",
        recs.iter().map(|r| r.metrics.batch_window as f64).fold(0.0, f64::max),
    );
    m.insert("batch.overlap_frac", sum(&|r| r.metrics.conversion_overlap_fraction) / n);

    // Self times: what the breakdown leaves of the execute span is the
    // gemm overhead (validation, context allocation and release,
    // β-scaling). The batch DAG reports no breakdown to subtract.
    let selfs = tr.self_ns();
    let overhead: Vec<f64> = tr
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "execute")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    let batched = recs.iter().all(|r| bd(r).total().is_zero());
    m.insert("gemm.overhead_ms", if batched { 0.0 } else { stats::median(&overhead) });
    // Share of call latency the layers' own timers explain: plan, the
    // conversions and compute.
    let explained =
        sum(&|r| r.plan + compute(r) + (bd(r).convert_in + bd(r).convert_out).as_secs_f64());
    m.insert("trace.accounted_frac", explained / sum(&|r| r.secs));
}

// ---------------------------------------------------------------------------
// The service open loop
// ---------------------------------------------------------------------------

/// `service_mixed` request shapes `(m, k, n)`: a power of two, a worst case
/// for padding, and a rectangle.
const SERVICE_SHAPES: [(usize, usize, usize); 3] =
    [(256, 256, 256), (513, 513, 513), (384, 200, 300)];

struct ServiceLoop {
    a: Vec<Matrix<f64>>,
    b: Vec<Matrix<f64>>,
    /// Conventional-baseline product per shape (every request of a shape
    /// multiplies the same operands).
    reference: Vec<Matrix<f64>>,
    /// Shape index of each request, in send order.
    stream: Vec<usize>,
    seed: u64,
}

/// Threads that block on service tickets, so that each completion is
/// timed when it happens. They wait; they do not compute.
const WAITERS: usize = 8;
/// Share of each service segment spent in the open loop; the rest keeps the
/// service saturated.
const OPEN_SHARE: f64 = 2.0 / 3.0;

/// A resolved request as a waiter saw it: index, completion time, result.
type Done = (usize, Instant, Result<Matrix<f64>, GemmError>);
/// Where a client hands a request's ticket to the waiters.
type TicketTx = mpsc::Sender<(usize, GemmTicket<f64>)>;
/// A started service, the seconds its set-up pass took, and that pass's
/// outputs, one per shape.
type SetUp = (GemmService<f64>, f64, Vec<Matrix<f64>>);

impl ServiceLoop {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut stream = Vec::new();
        for _ in 0..2000 {
            let mut round = [0, 1, 2];
            rng.shuffle(&mut round);
            stream.extend(round);
        }
        let (mut a, mut b, mut reference) = (Vec::new(), Vec::new(), Vec::new());
        for (s, &(m, k, n)) in SERVICE_SHAPES.iter().enumerate() {
            let am: Matrix<f64> = random_matrix(m, k, mix(seed ^ (10 + s as u64)));
            let bm: Matrix<f64> = random_matrix(k, n, mix(seed ^ (20 + s as u64)));
            let mut product = Matrix::zeros(m, n);
            conventional_gemm(
                1.0,
                Op::NoTrans,
                am.view(),
                Op::NoTrans,
                bm.view(),
                0.0,
                product.view_mut(),
            );
            reference.push(product);
            a.push(am);
            b.push(bm);
        }
        Self { a, b, reference, stream, seed }
    }

    fn gemm<'a>(a: &'a Matrix<f64>, b: &'a Matrix<f64>, c: &'a Matrix<f64>) -> Gemm<'a> {
        Gemm {
            alpha: 1.0,
            ta: Op::NoTrans,
            a: a.view(),
            tb: Op::NoTrans,
            b: b.view(),
            beta: 0.0,
            c0: c.view(),
            c: c.view(),
        }
    }

    fn request(&self, i: usize) -> GemmRequest<f64> {
        let s = self.stream[i % self.stream.len()];
        GemmRequest::new(self.a[s].clone(), self.b[s].clone())
    }

    fn flops(&self, i: usize) -> f64 {
        let (m, k, n) = SERVICE_SHAPES[self.stream[i % self.stream.len()]];
        2.0 * (m * k * n) as f64
    }

    /// The service configuration: one dispatcher per core, and a ledger
    /// that admits about two of the largest requests at once.
    fn config() -> ServiceConfig {
        let gemm = ModgemmConfig::default();
        let (m, k, n) = SERVICE_SHAPES[1];
        let mut ctx = GemmContext::<f64>::new();
        ctx.reserve_for(m, k, n, &gemm);
        let largest = (ctx.footprint() + m * n) * 8;
        ServiceConfig {
            dispatchers: modgemm_core::resolve_threads(0),
            memory_budget: MemoryBudget::MaxWorkspaceBytes(2 * largest),
            gemm,
            ..ServiceConfig::default()
        }
    }

    /// Starts a service and sends one request of each shape through it.
    /// Returns the service, the time that took, and the outputs.
    fn setup(&self) -> Result<SetUp, String> {
        let t = Instant::now();
        let svc = GemmService::start(Self::config());
        let outputs = (0..SERVICE_SHAPES.len())
            .map(|s| svc.call(GemmRequest::new(self.a[s].clone(), self.b[s].clone())))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("service_mixed set-up request: {e}"))?;
        Ok((svc, t.elapsed().as_secs_f64(), outputs))
    }

    /// Checks the outputs of a set-up pass, outside any timed window: each
    /// gets Freivalds' test and the comparison with the conventional
    /// product, and must equal bit for bit the first output of its shape,
    /// which `golden` keeps. Counts them in `w`.
    fn verify(&self, outputs: Vec<Matrix<f64>>, golden: &mut Vec<Matrix<f64>>, w: &mut Window) {
        for (s, c) in outputs.into_iter().enumerate() {
            let g = Self::gemm(&self.a[s], &self.b[s], &c);
            let err = check::scaled_error(&g, self.reference[s].view());
            w.rel_err_max = w.rel_err_max.max(err);
            let mut wrong = !check::freivalds(&g, mix(self.seed ^ w.attempted)) || err > REL_TOL;
            match golden.get(s) {
                Some(first) if !same_bits(first, &c) => {
                    w.mismatches += 1;
                    wrong = true;
                }
                Some(_) => {}
                None => golden.push(c),
            }
            w.attempted += 1;
            if wrong {
                eprintln!("service_mixed: a set-up request of shape {s} produced a wrong result");
                w.failed += 1;
            }
        }
    }

    /// Whether request `i`'s output `c` is right, as far as it is checked:
    /// a seeded one request in eight (and in sixteen; see [`selected`])
    /// must equal its shape's verified output bit for bit. Every request of
    /// a shape multiplies the same operands, so the comparison stands for
    /// the full checks; it does one comparison per output element, where
    /// the request did `2·k` flops.
    fn right(&self, i: usize, c: &Matrix<f64>, golden: &[Matrix<f64>]) -> bool {
        selected(self.seed, i) == (false, false)
            || same_bits(&golden[self.stream[i % self.stream.len()]], c)
    }

    /// Runs `body` beside [`WAITERS`] threads that block on the tickets sent
    /// to them, so that each request's resolution is timed when it happens.
    fn with_waiters<R>(body: impl FnOnce(&TicketTx, &mpsc::Receiver<Done>) -> R) -> R {
        let (ticket_tx, ticket_rx) = mpsc::channel::<(usize, GemmTicket<f64>)>();
        let ticket_rx = Mutex::new(ticket_rx);
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        std::thread::scope(|scope| {
            for _ in 0..WAITERS {
                let (rx, tx) = (&ticket_rx, done_tx.clone());
                scope.spawn(move || loop {
                    // The queue lock is released before the wait.
                    let Ok((i, ticket)) =
                        rx.lock().expect("waiters never panic holding the queue").recv()
                    else {
                        break;
                    };
                    let result = ticket.wait();
                    if tx.send((i, Instant::now(), result)).is_err() {
                        break;
                    }
                });
            }
            drop(done_tx);
            let out = body(&ticket_tx, &done_rx);
            drop(ticket_tx);
            out
        })
    }

    /// Keeps four requests per dispatcher in flight for `seconds`, so that
    /// the service is never short of work, continuing from request
    /// `w.attempted`. Returns the service's throughput: requests completed
    /// correctly within [`SERVICE_LIMIT`] per second, and their flops per
    /// second. Outputs are checked as in [`Self::right`]; errors and
    /// mismatches count in `w.failed`.
    fn saturate(
        &self,
        svc: &GemmService<f64>,
        seconds: f64,
        w: &mut Window,
        golden: &[Matrix<f64>],
    ) -> (f64, f64) {
        let in_flight = 4 * Self::config().dispatchers;
        let base = w.attempted as usize;
        Self::with_waiters(|tickets, done_rx| {
            let (mut requests, mut flops) = (0u32, 0.0);
            let mut sent: Vec<Instant> = Vec::new();
            let mut outstanding = 0;
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(seconds);
            loop {
                while outstanding < in_flight && Instant::now() < end {
                    let i = base + sent.len();
                    sent.push(Instant::now());
                    w.attempted += 1;
                    match svc.submit(self.request(i)) {
                        Ok(ticket) => {
                            tickets.send((i, ticket)).expect("waiters outlive the client");
                            outstanding += 1;
                        }
                        Err(e) => {
                            eprintln!("service_mixed: request {i} refused: {e}");
                            w.failed += 1;
                        }
                    }
                }
                if outstanding == 0 {
                    break;
                }
                let (i, done, result) = done_rx.recv().expect("waiters outlive the client");
                outstanding -= 1;
                let wrong = match &result {
                    Ok(c) => !self.right(i, c, golden),
                    Err(e) => {
                        eprintln!("service_mixed: request {i} failed: {e}");
                        true
                    }
                };
                if wrong {
                    w.mismatches += u64::from(result.is_ok());
                    w.failed += 1;
                } else if done <= end && done - sent[i - base] <= SERVICE_LIMIT {
                    requests += 1;
                    flops += self.flops(i);
                }
            }
            let secs = seconds.min(start.elapsed().as_secs_f64());
            (f64::from(requests) / secs, flops / secs)
        })
    }

    /// Sends requests at [`SERVICE_RATE`] for `seconds`, continuing from
    /// request `w.attempted`, then waits for the last ones. Latency runs
    /// from each request's due time to the moment a waiter thread sees its
    /// ticket resolve. Outputs are checked as in [`Self::right`].
    fn window(
        &self,
        svc: &GemmService<f64>,
        w: &mut Window,
        seconds: f64,
        sentinel: &mut Sentinel,
        mut tracer: Option<&mut Tracer>,
        golden: &[Matrix<f64>],
    ) {
        let base = w.attempted as usize;
        Self::with_waiters(|tickets, done_rx| {
            let period = Duration::from_secs_f64(1.0 / SERVICE_RATE);
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(seconds);
            // Per request sent: due time, submit start and end.
            let mut sent: Vec<(Instant, Instant, Instant)> = Vec::new();
            let mut outstanding = 0usize;
            let mut next = Some(self.request(base));
            let mut lanes = Lanes::new("service requests");
            let mut reported = false;
            loop {
                let i = base + sent.len();
                let due = start + period * sent.len() as u32;
                let now = Instant::now();
                if due < end && now >= due {
                    let req = next.take().expect("the next request is prepared after each send");
                    let s0 = Instant::now();
                    let submitted = svc.submit(req);
                    let s1 = Instant::now();
                    sent.push((due, s0, s1));
                    w.lags.push((s0 - due).as_secs_f64());
                    w.attempted += 1;
                    match submitted {
                        Ok(ticket) => {
                            outstanding += 1;
                            tickets.send((i, ticket)).expect("waiters outlive the generator");
                        }
                        Err(e) => {
                            if !reported {
                                eprintln!("service_mixed: request {i} refused: {e}");
                                reported = true;
                            }
                            w.failed += 1;
                            w.push(self.stream[i % self.stream.len()], self.flops(i), 0.0, false);
                        }
                    }
                    next = Some(self.request(i + 1));
                    continue;
                }
                let mut arrived: Vec<Done> = done_rx.try_iter().collect();
                if arrived.is_empty() {
                    if due >= end && outstanding == 0 {
                        break;
                    }
                    // Sample the host only while no request is in service
                    // and the next send is a few milliseconds away, so that
                    // the sample competes with no timed request.
                    let slack = if due < end { due - now } else { Duration::MAX };
                    if outstanding == 0 && slack >= Duration::from_millis(4) && sentinel.due() {
                        sentinel.sample();
                        continue;
                    }
                    match done_rx.recv_timeout(slack.min(Duration::from_millis(20))) {
                        Ok(d) => arrived.push(d),
                        Err(_) => continue,
                    }
                }
                for (ri, done, result) in arrived {
                    outstanding -= 1;
                    let (due, s0, s1) = sent[ri - base];
                    w.phases.push(((s1 - s0).as_secs_f64(), (done - s1).as_secs_f64()));
                    if let Some(tr) = tracer.as_deref_mut() {
                        let track = lanes.assign(tr, due, done);
                        let req = tr.push("request", ri as u64, None, track, due, done);
                        tr.push("submit", ri as u64, Some(req), track, s0, s1);
                        tr.push("wait", ri as u64, Some(req), track, s1, done);
                    }
                    let ok = match result {
                        Ok(c) if self.right(ri, &c, golden) => true,
                        Ok(_) => {
                            if !reported {
                                eprintln!("service_mixed: request {ri} produced a wrong result");
                                reported = true;
                            }
                            w.mismatches += 1;
                            w.failed += 1;
                            false
                        }
                        Err(e) => {
                            if !reported {
                                eprintln!("service_mixed: request {ri} failed: {e}");
                                reported = true;
                            }
                            w.failed += 1;
                            false
                        }
                    };
                    let shape = self.stream[ri % self.stream.len()];
                    w.push(shape, self.flops(ri), (done - due).as_secs_f64(), ok);
                }
            }
        });
    }

    /// Each of [`SETUP_REPEATS`] segments starts a service (one set-up
    /// pass), runs the open loop on it and then saturates it.
    fn measure(
        self,
        seconds: f64,
        traced: bool,
        sentinel: &mut Sentinel,
    ) -> Result<Outcome, String> {
        let span = if traced { seconds / 2.0 } else { seconds };
        let part = span / SETUP_REPEATS as f64;
        let mut golden = Vec::new();
        let (mut plain, mut saturated) = (Window::default(), Window::default());
        let (mut setups, mut rps, mut flops) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SETUP_REPEATS {
            // The open loop has few idle moments to sample the host in, and
            // the saturated phase none; the phase boundaries have no request
            // in service.
            sentinel.burst();
            let (svc, secs, outputs) = self.setup()?;
            setups.push(secs);
            self.verify(outputs, &mut golden, &mut plain);
            self.window(&svc, &mut plain, part * OPEN_SHARE, sentinel, None, &golden);
            sentinel.burst();
            let (r, f) = self.saturate(&svc, part * (1.0 - OPEN_SHARE), &mut saturated, &golden);
            rps.push(r);
            flops.push(f);
        }
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", stats::median(&setups));
        // The fastest segment, as each call's fastest repeat elsewhere.
        let best = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        metrics.insert("gflops", best(&flops) / 1e9);
        metrics.insert("goodput_rps", best(&rps));
        metrics.insert("lat_p50_ms", plain.best_p50() * 1e3);
        plain.tail(&mut metrics);
        metrics.insert("peak_rss_mb", probe::peak_rss_mib());
        let mut attempted = plain.attempted + saturated.attempted;
        let mut failed = plain.failed + saturated.failed;

        let mut tracer = None;
        if traced {
            let (svc, _, outputs) = self.setup()?;
            let mut w = Window::default();
            self.verify(outputs, &mut golden, &mut w);
            let first = w.attempted as usize;
            let before = svc.stats();
            let mut tr = Tracer::new(Instant::now());
            self.window(&svc, &mut w, span, sentinel, Some(&mut tr), &golden);
            let after = svc.stats();
            attempted += w.attempted;
            failed += w.failed;
            let m = &mut metrics;
            m.insert("plan.builds", after.plan_cache_misses as f64);
            m.insert("plan.cache_hit_rate", after.plan_cache_hit_rate());
            let submit: Vec<f64> = w.phases.iter().map(|p| p.0 * 1e6).collect();
            let wait: Vec<f64> = w.phases.iter().map(|p| p.1 * 1e3).collect();
            m.insert("service.submit_us", stats::median(&submit));
            m.insert("service.wait_ms", stats::median(&wait));
            m.insert("service.gen_lag_p99_ms", stats::nearest_rank(&w.lags, 99) * 1e3);
            m.insert("service.peak_queue_depth", after.peak_queue_depth as f64);
            let rejected =
                |s: &modgemm_core::ServiceStats| s.rejected_overload + s.rejected_shutdown;
            m.insert("service.rejected", (rejected(&after) - rejected(&before)) as f64);
            m.insert("service.peak_ledger_mb", after.peak_bytes_in_use as f64 / (1 << 20) as f64);
            m.insert("pool.workers", Self::config().dispatchers as f64);
            m.insert("trace.overhead_frac", 1.0 - plain.best_p50() / w.best_p50());
            let compared = (first..w.attempted as usize)
                .filter(|&i| selected(self.seed, i) != (false, false))
                .count();
            m.insert("trace.compared_ops", compared as f64);
            let mismatches = plain.mismatches + saturated.mismatches + w.mismatches;
            m.insert("trace.mismatches", mismatches as f64);
            let selfs = tr.self_ns();
            let total: u64 =
                tr.spans().iter().filter(|s| s.name == "request").map(|s| s.dur()).sum();
            let own: u64 = tr
                .spans()
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == "request")
                .map(|(_, &ns)| ns)
                .sum();
            m.insert("trace.accounted_frac", 1.0 - own as f64 / total.max(1) as f64);
            tracer = Some(tr);
        }
        Ok(Outcome { attempted, failed, metrics, disturbed: false, tracer })
    }
}
