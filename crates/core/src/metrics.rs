//! Execution metrics — the observability vocabulary of the reproduction.
//!
//! The paper's argument is quantitative: MODGEMM wins because its Morton
//! layout and dynamic truncation reduce misses and padding overhead.
//! Every executor in the workspace therefore reports through one shared
//! vocabulary, the [`MetricsSink`] trait:
//!
//! * [`NoopSink`] — the zero-cost default. Its [`MetricsSink::ENABLED`]
//!   constant is `false`, so instrumented code paths skip even the
//!   `Instant::now()` calls; the product is bit-identical to an
//!   uninstrumented run (asserted by tests).
//! * [`CollectingSink`] — accumulates everything into an [`ExecMetrics`]
//!   snapshot: recursion depth taken, per-level wall time, modeled
//!   Strassen vs conventional flops (from [`crate::counts`]), peak
//!   workspace actually reserved, temporary allocations, padding
//!   overhead, the conversion/compute breakdown, and — when fed from a
//!   `modgemm-cachesim` traced run — cache hit/miss totals.
//!
//! Entry points accepting a sink:
//! [`crate::plan::GemmPlan::try_execute_with_metrics`] and the batch and
//! service front ends built on it. Serial and pooled executions of a
//! plan report the same vocabulary. The baselines mirror them in
//! `modgemm-baselines::instrumented`.

use std::time::Duration;

use modgemm_mat::KernelKind;

use crate::gemm::GemmBreakdown;
use crate::schedule::Schedule;

/// Static facts about one planned executor invocation, recorded once per
/// top-level call (and once per sub-product when a rectangular problem is
/// split, §3.5 — the accumulating sink sums them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanFacts {
    /// Padded GEMM dimensions `(m, k, n)` the executor actually runs.
    pub padded: (usize, usize, usize),
    /// Morton recursion depth of the plan.
    pub depth: usize,
    /// Levels that take the Strassen step (the rest run conventionally).
    pub strassen_levels: usize,
    /// Innermost Strassen levels that run fused — pre-adds in packing,
    /// post-merges in the scatter epilogue, no S/T arena slots
    /// ([`crate::fuse`]). Always ≤ [`Self::strassen_levels`].
    pub fused_levels: usize,
    /// The schedule the staged levels interpret
    /// ([`crate::schedule::Schedule`]); `None` for executors that run no
    /// MODGEMM schedule (the instrumented baselines).
    pub schedule: Option<Schedule>,
    /// Modeled flops the executor performs
    /// ([`crate::counts::strassen_flops`] — exact, see its tests).
    pub flops: u64,
    /// Modeled flops a conventional multiply of the padded problem would
    /// perform ([`crate::counts::conventional_flops`]).
    pub conventional_flops: u64,
}

/// Cache-simulation totals (fed from `modgemm-cachesim` traced runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Accesses that hit in the (innermost) simulated cache.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheTotals {
    /// Miss ratio, or 0 when no accesses were recorded.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Counters from one work-stealing pool run, merged from the per-worker
/// metric shards at the join (see [`crate::pool`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers the run was scheduled across (calling thread included).
    pub workers: usize,
    /// DAG tasks executed, summed over workers.
    pub tasks_executed: u64,
    /// Tasks a worker popped from *another* worker's queue.
    pub steals: u64,
    /// Total time workers spent parked waiting for ready tasks.
    pub idle: Duration,
}

/// A point-in-time counter snapshot of one [`crate::service::GemmService`]
/// — admission, completion, rejection, and plan-cache behavior. Taken
/// with [`crate::service::GemmService::stats`]; counters are cumulative
/// since service construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the submission queue.
    pub submitted: u64,
    /// Requests a dispatcher admitted against the memory ledger and ran.
    pub admitted: u64,
    /// Requests that completed with `Ok`.
    pub completed: u64,
    /// Submissions rejected because the bounded queue was full
    /// ([`crate::GemmError::Overloaded`]).
    pub rejected_overload: u64,
    /// Submissions or queued requests rejected during shutdown
    /// ([`crate::GemmError::ShuttingDown`]).
    pub rejected_shutdown: u64,
    /// Requests that ended [`crate::GemmError::Cancelled`].
    pub cancelled: u64,
    /// Requests that ended [`crate::GemmError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Requests that ended in any other typed error (allocation failure,
    /// verification failure, worker panic, budget excess, bad dims, …).
    pub failed: u64,
    /// Requests currently waiting in the submission queue.
    pub queue_depth: u64,
    /// Highest queue depth observed.
    pub peak_queue_depth: u64,
    /// Plan-cache lookups served from the cache.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that compiled a new plan.
    pub plan_cache_misses: u64,
    /// Plans evicted by the cache's LRU policy.
    pub plan_cache_evictions: u64,
    /// Ledger bytes currently admitted (live request workspace).
    pub bytes_in_use: u64,
    /// Highest ledger occupancy observed.
    pub peak_bytes_in_use: u64,
}

impl ServiceStats {
    /// Requests that reached a terminal state (any outcome).
    pub fn finished(&self) -> u64 {
        self.completed
            + self.cancelled
            + self.deadline_exceeded
            + self.failed
            + self.rejected_shutdown
    }

    /// `rejected_overload / (submitted + rejected_overload)` — the
    /// admission-control rejection rate. `0.0` when nothing was offered.
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.submitted + self.rejected_overload;
        if offered == 0 {
            0.0
        } else {
            self.rejected_overload as f64 / offered as f64
        }
    }

    /// Plan-cache hit rate over all lookups. `0.0` before any lookup.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let lookups = self.plan_cache_hits + self.plan_cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / lookups as f64
        }
    }
}

/// The event vocabulary every instrumented executor reports through.
///
/// All methods have empty default bodies, so a sink implements only what
/// it cares about. Executors are generic over the sink and consult
/// [`Self::ENABLED`] before doing instrumentation-only work (timing
/// syscalls in particular), so the [`NoopSink`] paths compile to exactly
/// the uninstrumented code.
pub trait MetricsSink {
    /// `false` only for sinks that discard everything; lets executors
    /// skip instrumentation-only work at compile time.
    const ENABLED: bool = true;

    /// Logical (unpadded) problem dimensions `(m, k, n)`, recorded once
    /// at the top of the GEMM pipeline.
    fn record_problem(&mut self, m: usize, k: usize, n: usize) {
        let _ = (m, k, n);
    }

    /// Plan-level facts of one executor invocation.
    fn record_plan(&mut self, facts: PlanFacts) {
        let _ = facts;
    }

    /// Strassen workspace reserved for one invocation (the quantity
    /// [`crate::config::MemoryBudget`] caps).
    fn record_workspace(&mut self, elems: usize, bytes: usize) {
        let _ = (elems, bytes);
    }

    /// *Measured* workspace high-water mark of one invocation — the
    /// arena elements the interpreter actually consumed, as opposed to
    /// the closed-form reservation of
    /// [`MetricsSink::record_workspace`]. A debug assertion in the
    /// executors pins the two equal, so any schedule whose closed form
    /// under-counts fails loudly in tests.
    fn record_workspace_used(&mut self, elems: usize, bytes: usize) {
        let _ = (elems, bytes);
    }

    /// `count` temporary buffers totalling `elems` elements (`bytes`
    /// bytes) were allocated outside the pre-reserved workspace (cold
    /// [`crate::GemmContext`] buffer growth, internal scratch, …). A planned execution on a warm
    /// context records nothing here — that is the "allocation-free hot
    /// path" acceptance criterion (`temp_alloc_bytes == 0`).
    fn record_temp_allocs(&mut self, count: u64, elems: u64, bytes: u64) {
        let _ = (count, elems, bytes);
    }

    /// One [`crate::GemmPlan`] was compiled (truncation search, layout
    /// tree, flattened schedule, arena offsets). The one-shot wrappers
    /// build a plan per call; a reusing caller records this once.
    fn record_plan_built(&mut self) {}

    /// One execution of a prepared plan, whose workspace arena spans
    /// `arena_bytes` bytes. The ratio `plan_executions / plans_built`
    /// is the amortization factor the plan/execute split buys.
    fn record_plan_execution(&mut self, arena_bytes: u64) {
        let _ = arena_bytes;
    }

    /// Wall time attributed exclusively to recursion level `level`
    /// (additions at Strassen nodes; the whole conventional subtree at
    /// the handover level).
    fn record_level_time(&mut self, level: usize, elapsed: Duration) {
        let _ = (level, elapsed);
    }

    /// The conversion/compute wall-clock split of one GEMM call.
    fn record_breakdown(&mut self, bd: &GemmBreakdown) {
        let _ = bd;
    }

    /// Cache hit/miss totals from a simulated run.
    fn record_cache(&mut self, hits: u64, misses: u64) {
        let _ = (hits, misses);
    }

    /// The concrete leaf kernel an executor ran with. `Auto` policies
    /// resolve before reaching the sink, so recorded kinds are always
    /// concrete.
    fn record_kernel(&mut self, kernel: KernelKind) {
        let _ = kernel;
    }

    /// Modeled bytes copied into packing buffers by one invocation
    /// ([`crate::counts::packed_bytes`]; zero for non-packing kernels).
    fn record_bytes_packed(&mut self, bytes: u64) {
        let _ = bytes;
    }

    /// Work-stealing pool counters of one parallel execution (merged from
    /// the per-worker shards at the join). Serial executions record
    /// nothing here.
    fn record_pool(&mut self, stats: PoolStats) {
        let _ = stats;
    }

    /// One batched execution ([`crate::BatchPlan`]): `items` GEMMs ran
    /// with an in-flight window of `window` slots, and `overlap_fraction`
    /// of the conversion/epilogue wall time ran while at least one
    /// compute task was in flight (0 for the serial per-item fallback,
    /// whose window is 1 by construction).
    fn record_batch(&mut self, items: usize, window: usize, overlap_fraction: f64) {
        let _ = (items, window, overlap_fraction);
    }
}

/// The zero-cost default sink: ignores everything, and its
/// [`MetricsSink::ENABLED`] constant lets executors compile the
/// instrumentation out entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    const ENABLED: bool = false;
}

/// One executed-metrics snapshot — everything a [`CollectingSink`]
/// gathered over one or more instrumented calls.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecMetrics {
    /// Logical problem dims `(m, k, n)` (first recorded call).
    pub problem: Option<(usize, usize, usize)>,
    /// Executor invocations observed (> 1 when a rectangular problem was
    /// split into sub-products).
    pub plans: u64,
    /// Deepest Morton recursion depth across plans.
    pub depth: usize,
    /// Deepest count of levels that took the Strassen step.
    pub strassen_levels: usize,
    /// Deepest count of fused Strassen levels across plans (operand
    /// fusion, [`crate::fuse`]).
    pub fused_levels: usize,
    /// Modeled flops executed, summed across plans.
    pub flops: u64,
    /// Modeled conventional-cost flops of the same padded problems.
    pub conventional_flops: u64,
    /// Sum over plans of the padded volume `m·k·n` (for
    /// [`Self::padding_ratio`]).
    pub padded_volume: u128,
    /// Peak Strassen workspace reserved by any single invocation, in
    /// elements.
    pub peak_workspace_elems: usize,
    /// Peak Strassen workspace in bytes.
    pub peak_workspace_bytes: usize,
    /// Peak *measured* workspace consumption (arena high-water mark) of
    /// any single invocation, in elements. Equals the reservation on
    /// serial planned runs; the executors debug-assert the match.
    pub workspace_used_elems: usize,
    /// Peak measured workspace consumption in bytes.
    pub workspace_used_bytes: usize,
    /// The schedule of the most recent plan (`None` until an executor
    /// reports a plan).
    pub schedule_selected: Option<Schedule>,
    /// Temporary buffers allocated outside the workspace arena.
    pub temp_allocations: u64,
    /// Total elements across those temporaries.
    pub temp_alloc_elems: u64,
    /// Total bytes across those temporaries. Zero on a planned execution
    /// with a warm [`crate::GemmContext`] — the allocation-free hot path.
    pub temp_alloc_bytes: u64,
    /// [`crate::GemmPlan`]s compiled (one per call through the one-shot
    /// wrappers; once for a reusing caller).
    pub plans_built: u64,
    /// Executions of prepared plans. `plan_executions / plans_built` is
    /// the amortization factor of plan reuse.
    pub plan_executions: u64,
    /// Peak workspace-arena span of any executed plan, in bytes.
    pub arena_bytes: u64,
    /// Exclusive wall time per recursion level (index = level; grown on
    /// demand).
    pub level_times: Vec<Duration>,
    /// Accumulated conversion/compute breakdown.
    pub breakdown: GemmBreakdown,
    /// Cache totals, present only when a traced run reported them.
    pub cache: Option<CacheTotals>,
    /// The concrete leaf kernel that ran (last recorded invocation;
    /// `None` until an executor reports one). Never [`KernelKind::Auto`]:
    /// auto-selection resolves at plan time.
    pub kernel_selected: Option<KernelKind>,
    /// Modeled bytes copied into packing buffers, summed across
    /// invocations ([`crate::counts::packed_bytes`]).
    pub bytes_packed: u64,
    /// Work-stealing pool counters, present only when an execution ran on
    /// the pool. Counters accumulate across runs; `workers` keeps the
    /// maximum.
    pub pool: Option<PoolStats>,
    /// GEMMs executed through batched entry points ([`crate::BatchPlan`]),
    /// summed across batches.
    pub batch_items: u64,
    /// Largest in-flight window any batched execution ran with (1 = the
    /// serial per-item fallback).
    pub batch_window: usize,
    /// Conversion/compute overlap of the most recent batch: the fraction
    /// of conversion/epilogue wall time that ran concurrently with at
    /// least one compute task. 0 when nothing batched ran (or nothing
    /// overlapped).
    pub conversion_overlap_fraction: f64,
}

impl ExecMetrics {
    /// Fresh, empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recursion depth actually taken by the Strassen step (alias of
    /// [`Self::strassen_levels`], the ISSUE vocabulary).
    pub fn depth_taken(&self) -> usize {
        self.strassen_levels
    }

    /// `padded volume / logical volume` — the padding overhead the
    /// paper's dynamic truncation minimizes (Figure 2). `1.0` means no
    /// padding; returns 0 when no problem was recorded.
    pub fn padding_ratio(&self) -> f64 {
        match self.problem {
            Some((m, k, n)) if m * k * n > 0 => {
                self.padded_volume as f64 / (m as u128 * k as u128 * n as u128) as f64
            }
            _ => 0.0,
        }
    }

    /// Modeled arithmetic saving of the Strassen recursion:
    /// `flops / conventional_flops` (< 1 when the recursion saves work).
    pub fn flop_ratio(&self) -> f64 {
        if self.conventional_flops == 0 {
            0.0
        } else {
            self.flops as f64 / self.conventional_flops as f64
        }
    }

    /// Effective flops of the *logical* problem (`2·m·k·n`) — the
    /// conventional-equivalent count benchmarks normalize by, so
    /// Strassen's savings show up as higher effective GFLOP/s rather
    /// than a different denominator.
    pub fn effective_flops(&self) -> u64 {
        match self.problem {
            Some((m, k, n)) => crate::counts::conventional_flops(m, k, n),
            None => 0,
        }
    }

    /// Effective GFLOP/s for this problem completed in `elapsed`.
    pub fn effective_gflops(&self, elapsed: Duration) -> f64 {
        let s = elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.effective_flops() as f64 / s / 1e9
        }
    }

    /// Total exclusive per-level time (≈ compute time when instrumented
    /// through the serial executor).
    pub fn level_time_total(&self) -> Duration {
        self.level_times.iter().sum()
    }
}

/// A [`MetricsSink`] that accumulates every event into an
/// [`ExecMetrics`]. Repeated records accumulate (sums / maxima), so one
/// sink can observe a whole rectangular-split pipeline or a batch of
/// calls.
#[derive(Clone, Debug, Default)]
pub struct CollectingSink {
    /// The snapshot accumulated so far.
    pub metrics: ExecMetrics,
}

impl CollectingSink {
    /// A sink with an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the snapshot.
    pub fn into_metrics(self) -> ExecMetrics {
        self.metrics
    }
}

impl MetricsSink for CollectingSink {
    fn record_problem(&mut self, m: usize, k: usize, n: usize) {
        if self.metrics.problem.is_none() {
            self.metrics.problem = Some((m, k, n));
        }
    }

    fn record_plan(&mut self, facts: PlanFacts) {
        let m = &mut self.metrics;
        m.plans += 1;
        m.depth = m.depth.max(facts.depth);
        m.strassen_levels = m.strassen_levels.max(facts.strassen_levels);
        m.fused_levels = m.fused_levels.max(facts.fused_levels);
        m.flops += facts.flops;
        m.conventional_flops += facts.conventional_flops;
        m.schedule_selected = facts.schedule;
        let (pm, pk, pn) = facts.padded;
        m.padded_volume += pm as u128 * pk as u128 * pn as u128;
    }

    fn record_workspace(&mut self, elems: usize, bytes: usize) {
        let m = &mut self.metrics;
        m.peak_workspace_elems = m.peak_workspace_elems.max(elems);
        m.peak_workspace_bytes = m.peak_workspace_bytes.max(bytes);
    }

    fn record_workspace_used(&mut self, elems: usize, bytes: usize) {
        let m = &mut self.metrics;
        m.workspace_used_elems = m.workspace_used_elems.max(elems);
        m.workspace_used_bytes = m.workspace_used_bytes.max(bytes);
    }

    fn record_temp_allocs(&mut self, count: u64, elems: u64, bytes: u64) {
        self.metrics.temp_allocations += count;
        self.metrics.temp_alloc_elems += elems;
        self.metrics.temp_alloc_bytes += bytes;
    }

    fn record_plan_built(&mut self) {
        self.metrics.plans_built += 1;
    }

    fn record_plan_execution(&mut self, arena_bytes: u64) {
        self.metrics.plan_executions += 1;
        self.metrics.arena_bytes = self.metrics.arena_bytes.max(arena_bytes);
    }

    fn record_level_time(&mut self, level: usize, elapsed: Duration) {
        let lt = &mut self.metrics.level_times;
        if lt.len() <= level {
            lt.resize(level + 1, Duration::ZERO);
        }
        lt[level] += elapsed;
    }

    fn record_breakdown(&mut self, bd: &GemmBreakdown) {
        self.metrics.breakdown.convert_in += bd.convert_in;
        self.metrics.breakdown.compute += bd.compute;
        self.metrics.breakdown.convert_out += bd.convert_out;
    }

    fn record_cache(&mut self, hits: u64, misses: u64) {
        let c = self.metrics.cache.get_or_insert(CacheTotals::default());
        c.hits += hits;
        c.misses += misses;
    }

    fn record_kernel(&mut self, kernel: KernelKind) {
        self.metrics.kernel_selected = Some(kernel);
    }

    fn record_bytes_packed(&mut self, bytes: u64) {
        self.metrics.bytes_packed += bytes;
    }

    fn record_pool(&mut self, stats: PoolStats) {
        let p = self.metrics.pool.get_or_insert(PoolStats::default());
        p.workers = p.workers.max(stats.workers);
        p.tasks_executed += stats.tasks_executed;
        p.steals += stats.steals;
        p.idle += stats.idle;
    }

    fn record_batch(&mut self, items: usize, window: usize, overlap_fraction: f64) {
        self.metrics.batch_items += items as u64;
        self.metrics.batch_window = self.metrics.batch_window.max(window);
        self.metrics.conversion_overlap_fraction = overlap_fraction;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compile-time pins: NoopSink must stay the zero-cost default and
    // CollectingSink the enabled one.
    const _: () = assert!(!NoopSink::ENABLED);
    const _: () = assert!(CollectingSink::ENABLED);

    #[test]
    fn collecting_sink_accumulates() {
        let mut sink = CollectingSink::new();
        sink.record_problem(10, 20, 30);
        sink.record_problem(99, 99, 99); // ignored: first wins
        sink.record_plan(PlanFacts {
            padded: (16, 32, 32),
            depth: 2,
            strassen_levels: 2,
            fused_levels: 1,
            schedule: None,
            flops: 100,
            conventional_flops: 200,
        });
        sink.record_plan(PlanFacts {
            padded: (16, 16, 16),
            depth: 1,
            strassen_levels: 1,
            fused_levels: 0,
            schedule: Some(Schedule::LowMem), // last wins
            flops: 10,
            conventional_flops: 20,
        });
        sink.record_workspace(50, 400);
        sink.record_workspace(30, 240);
        sink.record_workspace_used(40, 320);
        sink.record_workspace_used(20, 160); // peak keeps the max
        sink.record_temp_allocs(3, 90, 720);
        sink.record_plan_built();
        sink.record_plan_execution(4096);
        sink.record_plan_execution(2048); // arena_bytes keeps the peak
        sink.record_level_time(1, Duration::from_millis(5));
        sink.record_level_time(1, Duration::from_millis(5));
        sink.record_level_time(0, Duration::from_millis(1));
        sink.record_cache(70, 30);
        sink.record_kernel(KernelKind::Blocked);
        sink.record_kernel(KernelKind::Packed); // last wins
        sink.record_bytes_packed(1000);
        sink.record_bytes_packed(24); // accumulates
        sink.record_pool(PoolStats {
            workers: 4,
            tasks_executed: 10,
            steals: 2,
            idle: Duration::from_millis(3),
        });
        sink.record_pool(PoolStats {
            workers: 2, // workers keeps the max, counters accumulate
            tasks_executed: 5,
            steals: 1,
            idle: Duration::from_millis(1),
        });

        let m = sink.into_metrics();
        assert_eq!(m.problem, Some((10, 20, 30)));
        assert_eq!(m.plans, 2);
        assert_eq!(m.depth, 2);
        assert_eq!(m.strassen_levels, 2);
        assert_eq!(m.fused_levels, 1);
        assert_eq!(m.flops, 110);
        assert_eq!(m.conventional_flops, 220);
        assert_eq!(m.padded_volume, (16 * 32 * 32 + 16 * 16 * 16) as u128);
        assert_eq!(m.peak_workspace_elems, 50);
        assert_eq!(m.peak_workspace_bytes, 400);
        assert_eq!(m.workspace_used_elems, 40);
        assert_eq!(m.workspace_used_bytes, 320);
        assert_eq!(m.schedule_selected, Some(Schedule::LowMem));
        assert_eq!(m.temp_allocations, 3);
        assert_eq!(m.temp_alloc_elems, 90);
        assert_eq!(m.temp_alloc_bytes, 720);
        assert_eq!(m.plans_built, 1);
        assert_eq!(m.plan_executions, 2);
        assert_eq!(m.arena_bytes, 4096);
        assert_eq!(m.level_times.len(), 2);
        assert_eq!(m.level_times[1], Duration::from_millis(10));
        assert_eq!(m.flop_ratio(), 0.5);
        assert_eq!(m.cache.unwrap().miss_ratio(), 0.3);
        assert!(m.padding_ratio() > 1.0);
        assert_eq!(m.effective_flops(), 2 * 10 * 20 * 30);
        assert_eq!(m.kernel_selected, Some(KernelKind::Packed));
        assert_eq!(m.bytes_packed, 1024);
        let pool = m.pool.unwrap();
        assert_eq!(pool.workers, 4);
        assert_eq!(pool.tasks_executed, 15);
        assert_eq!(pool.steals, 3);
        assert_eq!(pool.idle, Duration::from_millis(4));
    }

    #[test]
    fn empty_metrics_are_benign() {
        let m = ExecMetrics::new();
        assert_eq!(m.padding_ratio(), 0.0);
        assert_eq!(m.flop_ratio(), 0.0);
        assert_eq!(m.effective_flops(), 0);
        assert_eq!(m.level_time_total(), Duration::ZERO);
        assert_eq!(m.effective_gflops(Duration::ZERO), 0.0);
    }
}
