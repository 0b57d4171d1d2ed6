//! Persistent work-stealing thread-pool executor.
//!
//! The scoped-thread parallel path re-spawned seven OS threads at every
//! Winograd node on every call, so plan reuse amortized planning but not
//! thread startup, and only one recursion level ever ran in parallel.
//! This module replaces that with a **persistent** pool: worker threads
//! are spawned once per distinct worker count ([`ThreadPool::global`]),
//! parked on a condvar between jobs, and reused across `execute()` calls
//! and whole [`crate::blas::try_gemm_batch`] batches.
//!
//! The pool runs two kinds of job. A **team** job (`run_team`) runs one
//! closure on ranks `0..W` that meet at a spin-then-park barrier: a
//! pooled single GEMM walks the one schedule interpreter on every rank,
//! each rank doing a disjoint output share of every step, so it needs no
//! memory beyond the serial arena (see `Rank`).
//!
//! A **graph** job runs a whole-batch task DAG compiled by
//! [`crate::batch`]'s lowering: every Morton conversion chunk, every
//! item's compute (one serial interpreter walk) and every α/β unpack
//! chunk is a dependency-counted task. Workers pull from their own LIFO
//! deque and steal FIFO from siblings, so one item's conversion overlaps
//! another's compute.
//!
//! Design notes:
//!
//! * **One job at a time.** The pool runs a single job slot (the
//!   OpenBLAS discipline): concurrent graph submitters serialize at the
//!   slot, while a team submitter that finds it busy runs as a team of
//!   one instead of waiting (so a plan executed from inside a DAG task,
//!   or beside another caller, never blocks on the slot). The submitting
//!   thread participates as worker 0, so `threads = n` means `n` CPUs
//!   working: `n − 1` pool threads plus the caller.
//! * **No allocation on workers.** The mutable run state (dependency
//!   counters, deques, metric shards) lives in a [`PoolScratch`] owned
//!   by the caller's [`crate::GemmContext`] and is reset — not
//!   reallocated — per run; each compute task carves its item's arena
//!   slot out of the context's workspace exactly like the serial
//!   executor does.
//! * **Panic containment.** Task bodies run under `catch_unwind`; the
//!   first panic cancels the remaining task bodies (the completion
//!   cascade still drains, so the join never hangs) and surfaces as
//!   [`GemmError::WorkerPanic`], preserving the `try_*` totality
//!   discipline.
//! * **Mutex-protected deques.** Tasks are whole item products and
//!   conversion chunks — microseconds to milliseconds each — so an uncontended
//!   lock per pop is noise. The simple protocol is straightforwardly
//!   data-race-free (and ThreadSanitizer-checked in CI), which a
//!   hand-rolled Chase-Lev deque would not be.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use modgemm_mat::{MatRef, Op, Scalar};
use modgemm_morton::{pack_tile_range, unpack_tile_cols_raw};

use crate::error::{panic_message, GemmError};
use crate::exec::{ExecPolicy, NodeLayouts};
use crate::metrics::{MetricsSink, NoopSink, PoolStats};
use crate::plan::{exec_levels_raw, BatchChunk, LevelPlan, TaskGraph, TaskKind, Walk, MAX_LEVELS};

/// Environment variable consulted when [`crate::ModgemmConfig::threads`]
/// is `0`: a positive integer fixes the worker count, anything else
/// falls back to [`std::thread::available_parallelism`].
pub const MODGEMM_THREADS_ENV: &str = "MODGEMM_THREADS";

/// Upper bound on resolved worker counts — a guard against typos in the
/// environment variable, far above any sensible configuration.
const MAX_WORKERS: usize = 512;

/// The machine fallback: [`std::thread::available_parallelism`], cached
/// (the environment override is *not* cached here — see
/// [`try_resolve_threads`]).
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(MAX_WORKERS)
    })
}

/// Parses a `MODGEMM_THREADS` value: `Ok(None)` when empty/whitespace
/// (treated as unset), `Ok(Some(n))` for a positive integer, and a typed
/// [`GemmError::InvalidConfig`] for anything else — a typo in the
/// environment should not silently change the worker count.
fn parse_threads_env(raw: &str) -> Result<Option<usize>, GemmError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n.min(MAX_WORKERS))),
        _ => Err(GemmError::InvalidConfig {
            reason: "MODGEMM_THREADS must be a positive integer (or empty for auto)",
        }),
    }
}

/// Fallible [`resolve_threads`]: an explicit `configured > 0` wins;
/// otherwise the `MODGEMM_THREADS` environment override; otherwise
/// [`std::thread::available_parallelism`]. A **malformed** environment
/// value (non-numeric, zero, negative) is a typed
/// [`GemmError::InvalidConfig`] — every `try_*` entry point that resolves
/// threads propagates it instead of silently falling back. The
/// environment is re-read per call so configuration errors surface where
/// they are made.
pub fn try_resolve_threads(configured: usize) -> Result<usize, GemmError> {
    if configured > 0 {
        return Ok(configured.min(MAX_WORKERS));
    }
    match std::env::var(MODGEMM_THREADS_ENV) {
        Ok(raw) => Ok(parse_threads_env(&raw)?.unwrap_or_else(auto_threads)),
        Err(_) => Ok(auto_threads()),
    }
}

/// Resolves a configured thread count to the effective one: an explicit
/// `configured > 0` wins; otherwise the `MODGEMM_THREADS` environment
/// override; otherwise [`std::thread::available_parallelism`]. Always at
/// least 1. A result of 1 means "run serially" — no pool is created.
/// A malformed environment value falls back to the machine default here;
/// [`try_resolve_threads`] reports it as a typed error instead.
pub fn resolve_threads(configured: usize) -> usize {
    try_resolve_threads(configured).unwrap_or_else(|_| auto_threads())
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// Sentinel: the token has no check-count trip wire.
const TRIP_DISABLED: i64 = i64::MIN;

struct CancelInner {
    /// Set by [`CancelToken::cancel`] (or when the trip wire fires).
    flag: AtomicBool,
    /// Absolute deadline; checks past it report
    /// [`GemmError::DeadlineExceeded`].
    deadline: Option<Instant>,
    /// Test hook: remaining successful [`CancelToken::check`] calls
    /// before the token self-cancels ([`TRIP_DISABLED`] = off). Lets a
    /// test cancel deterministically "at task index k".
    trip_after: AtomicI64,
}

/// A shareable cancellation handle threaded through `run_graph` and
/// `run_team`: a batch DAG's workers consult it at every task-dequeue
/// boundary, so an expired deadline or a caller-side [`cancel`] drains
/// the in-flight task DAG (reusing the first-panic cancellation cascade —
/// the join never hangs, the [`PoolScratch`] stays reusable) within one
/// task granularity; a team's last arriver at every barrier consults it.
///
/// Clones share the same state. The token is also consulted on the
/// serial execution path at coarser (whole-schedule) granularity.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

impl CancelToken {
    /// A token that never fires until [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
                trip_after: AtomicI64::new(TRIP_DISABLED),
            }),
        }
    }

    /// A token that reports [`GemmError::DeadlineExceeded`] from every
    /// [`CancelToken::check`] at or past `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
                trip_after: AtomicI64::new(TRIP_DISABLED),
            }),
        }
    }

    /// A token that self-cancels after `checks` successful
    /// [`CancelToken::check`] calls — the deterministic "cancel at task
    /// index k" hook the cancellation property tests are built on.
    pub fn cancelling_after(checks: u64) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
                trip_after: AtomicI64::new(checks.min(i64::MAX as u64) as i64),
            }),
        }
    }

    /// Requests cancellation: every subsequent [`CancelToken::check`]
    /// reports [`GemmError::Cancelled`]. Idempotent, callable from any
    /// thread.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] was called (or the trip wire
    /// fired). An expired deadline does not set this flag; it is reported
    /// by [`CancelToken::check`] directly.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
    }

    /// The absolute deadline this token carries, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// The cooperative checkpoint: `Ok(())` to keep running, or the typed
    /// error the caller should drain into — [`GemmError::Cancelled`]
    /// after [`CancelToken::cancel`], [`GemmError::DeadlineExceeded`]
    /// past the deadline.
    pub fn check(&self) -> Result<(), GemmError> {
        if self.inner.flag.load(Ordering::Acquire) {
            return Err(GemmError::Cancelled);
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                return Err(GemmError::DeadlineExceeded);
            }
        }
        if self.inner.trip_after.load(Ordering::Relaxed) != TRIP_DISABLED
            && self.inner.trip_after.fetch_sub(1, Ordering::AcqRel) <= 0
        {
            self.cancel();
            return Err(GemmError::Cancelled);
        }
        Ok(())
    }
}

/// Locks a mutex, tolerating poisoning: pool state is only ever mutated
/// under short, panic-free critical sections (user code runs outside the
/// locks, under `catch_unwind`), so a poisoned lock's data is still
/// consistent and recovery is always safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A unit of pool-schedulable work. The pool hands every participating
/// thread to [`Job::work`]; implementations return from `work` only when
/// the job cannot use that thread any more (normally: when the whole job
/// has completed).
trait Job: Send + Sync {
    /// Contribute the calling thread to the job as worker `worker`
    /// (0 = the submitting thread, `1..` = pool threads).
    fn work(&self, worker: usize);
    /// Blocks until every thread that ever entered [`Job::work`] has
    /// left it. After this returns, no worker touches the job's borrowed
    /// state again.
    fn quiesce(&self);
}

/// The state shared between a pool's submitter side and its workers:
/// the single job slot plus the condvar both sides park on.
struct PoolShared {
    slot: Mutex<JobSlot>,
    /// Signals both "a new job was published" (to workers) and "the slot
    /// was cleared" (to queued submitters).
    job_cv: Condvar,
}

struct JobSlot {
    job: Option<Arc<dyn Job>>,
    /// Bumped on every publish so a worker never re-enters a job it
    /// already finished working on.
    seq: u64,
}

/// A persistent pool of parked worker threads. Created lazily per
/// distinct worker count by [`ThreadPool::global`] and kept for the
/// process lifetime; between jobs the workers sleep on a condvar and
/// cost nothing.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    /// Pool threads actually spawned (spawn failures degrade the pool
    /// rather than failing the GEMM: the submitting thread always works
    /// too, so even zero spawned threads still makes progress).
    spawned: usize,
    /// The pool's one team job, reset and republished by every team run
    /// ([`run_team`]) so a run allocates nothing.
    team: Arc<TeamJob>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("spawned", &self.spawned).finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads − 1` worker threads (the submitting
    /// thread is worker 0 of every job).
    fn new(threads: usize) -> Arc<ThreadPool> {
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot { job: None, seq: 0 }),
            job_cv: Condvar::new(),
        });
        let mut spawned = 0;
        for ix in 0..threads.saturating_sub(1) {
            let sh = Arc::clone(&shared);
            let spawn = std::thread::Builder::new()
                .name(format!("modgemm-pool-{}", ix + 1))
                .spawn(move || worker_main(sh, ix + 1));
            if spawn.is_ok() {
                spawned += 1;
            }
        }
        Arc::new(ThreadPool { shared, spawned, team: Arc::new(TeamJob::new()) })
    }

    /// The process-wide pool serving jobs of `threads` workers. Pools
    /// are keyed by worker count, created on first use, and live for the
    /// process lifetime (their parked threads are detached).
    pub fn global(threads: usize) -> Arc<ThreadPool> {
        type Registry = Mutex<Vec<(usize, Arc<ThreadPool>)>>;
        static POOLS: OnceLock<Registry> = OnceLock::new();
        let registry = POOLS.get_or_init(|| Mutex::new(Vec::new()));
        let mut pools = lock(registry);
        if let Some((_, pool)) = pools.iter().find(|(n, _)| *n == threads) {
            return Arc::clone(pool);
        }
        let pool = ThreadPool::new(threads);
        pools.push((threads, Arc::clone(&pool)));
        pool
    }

    /// Worker threads this pool actually runs (excluding the submitter).
    pub fn spawned_workers(&self) -> usize {
        self.spawned
    }

    /// Publishes `job` to the pool workers, drives it on the calling
    /// thread as worker 0, and returns once the job has quiesced (no
    /// thread will touch its borrowed state again). Concurrent callers
    /// serialize on the single job slot.
    fn run(&self, job: Arc<dyn Job>) {
        {
            let mut slot = lock(&self.shared.slot);
            while slot.job.is_some() {
                slot = self.shared.job_cv.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
            Self::publish(&mut slot, &job);
            self.shared.job_cv.notify_all();
        }
        job.work(0);
        job.quiesce();
        self.retire(&job);
    }

    /// Publishes the pool's team job for a run of `size` ranks if the
    /// slot is free, resetting it first (no worker touches it while the
    /// slot is empty); `None` when another job holds the slot.
    ///
    /// SAFETY: `help` must stay valid until the team job quiesced.
    unsafe fn try_start_team(
        &self,
        size: usize,
        cancel: Option<&CancelToken>,
        timed: bool,
        help: *const HelpFn<'static>,
    ) -> Option<Arc<dyn Job>> {
        let mut slot = lock(&self.shared.slot);
        if slot.job.is_some() {
            return None;
        }
        self.team.reset(size, cancel, timed, help);
        let job: Arc<dyn Job> = self.team.clone();
        Self::publish(&mut slot, &job);
        self.shared.job_cv.notify_all();
        Some(job)
    }

    fn publish(slot: &mut JobSlot, job: &Arc<dyn Job>) {
        slot.job = Some(Arc::clone(job));
        slot.seq = slot.seq.wrapping_add(1);
    }

    /// Clears the slot after `job` quiesced, waking queued submitters.
    /// Only the submitter clears it, so every worker sees a team job
    /// until all of its ranks have run.
    fn retire(&self, job: &Arc<dyn Job>) {
        let mut slot = lock(&self.shared.slot);
        if matches!(&slot.job, Some(cur) if Arc::ptr_eq(cur, job)) {
            slot.job = None;
            self.shared.job_cv.notify_all();
        }
    }
}

/// The parked-worker loop: wait for a fresh job seq, contribute to it,
/// park again.
fn worker_main(shared: Arc<PoolShared>, worker: usize) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if let Some(j) = &slot.job {
                    if slot.seq != last_seq {
                        last_seq = slot.seq;
                        break Arc::clone(j);
                    }
                }
                slot = shared.job_cv.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
        };
        job.work(worker);
    }
}

// ---------------------------------------------------------------------------
// Per-run scratch (owned by the GemmContext, reset — not reallocated — per run)
// ---------------------------------------------------------------------------

/// Per-worker metrics shard, written without synchronization by exactly
/// one worker and merged into the caller's sink after the join.
#[derive(Clone, Copy)]
pub(crate) struct WorkerShard {
    pub tasks: u64,
    pub steals: u64,
    pub idle_nanos: u64,
    pub level_nanos: [u64; MAX_LEVELS + 1],
}

impl WorkerShard {
    const ZERO: WorkerShard =
        WorkerShard { tasks: 0, steals: 0, idle_nanos: 0, level_nanos: [0; MAX_LEVELS + 1] };
}

/// A [`WorkerShard`] cell sharable across the job. Exclusivity is by
/// worker index: worker `w` is the only thread that ever touches shard
/// `w` while the job runs, and the caller reads them only after
/// [`Job::quiesce`].
struct ShardCell(std::cell::UnsafeCell<WorkerShard>);

// SAFETY: see `ShardCell` — access is partitioned by worker index during
// the run and exclusive to the caller afterwards.
unsafe impl Sync for ShardCell {}

/// The reusable mutable state of one pooled execution: dependency
/// counters, per-worker deques, and per-worker metric shards. Owned by
/// the [`crate::GemmContext`] so a warm context resets it in place and
/// the steady-state pooled path allocates nothing.
#[derive(Default)]
pub struct PoolScratch {
    deps: Vec<AtomicU32>,
    queues: Vec<Mutex<VecDeque<u32>>>,
    shards: Vec<ShardCell>,
}

impl std::fmt::Debug for PoolScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScratch")
            .field("tasks", &self.deps.len())
            .field("workers", &self.queues.len())
            .finish()
    }
}

impl Clone for PoolScratch {
    /// Scratch is run-local: a cloned context starts with fresh (empty)
    /// scratch rather than a copy of another run's counters.
    fn clone(&self) -> Self {
        PoolScratch::default()
    }
}

impl PoolScratch {
    /// Capacity (queue slots per worker) that [`reset`](Self::reset)
    /// guarantees: every task could in principle sit in one deque.
    fn reset(&mut self, graph: &TaskGraph, workers: usize) {
        let tasks = graph.tasks.len();
        if self.deps.len() < tasks {
            self.deps.resize_with(tasks, || AtomicU32::new(0));
        }
        for (slot, task) in self.deps.iter().zip(&graph.tasks) {
            slot.store(task.dep_count, Ordering::Relaxed);
        }
        if self.queues.len() < workers {
            self.queues.resize_with(workers, || Mutex::new(VecDeque::new()));
        }
        for q in self.queues.iter_mut() {
            let q = q.get_mut().unwrap_or_else(|p| p.into_inner());
            q.clear();
            if q.capacity() < tasks {
                q.reserve(tasks - q.len());
            }
        }
        if self.shards.len() < workers {
            self.shards
                .resize_with(workers, || ShardCell(std::cell::UnsafeCell::new(WorkerShard::ZERO)));
        }
        for s in self.shards.iter_mut() {
            *s.0.get_mut() = WorkerShard::ZERO;
        }
        // Seed the ready roots round-robin so workers start with local
        // work instead of all stealing from one deque.
        for (i, &root) in graph.roots.iter().enumerate() {
            let q = self.queues[i % workers].get_mut().unwrap_or_else(|p| p.into_inner());
            q.push_back(root);
        }
    }

    /// Shard of worker `w` (exclusive access: only valid outside a run).
    fn shard_mut(&mut self, w: usize) -> &mut WorkerShard {
        self.shards[w].0.get_mut()
    }
}

// ---------------------------------------------------------------------------
// The DAG job
// ---------------------------------------------------------------------------

/// A raw shared-slice view smuggled across the `'static` bound of
/// [`Job`].
///
/// SAFETY CONTRACT: the pointee must stay valid and unaliased-for-writes
/// (shared views) or exclusively-owned-by-the-job (mut views) until the
/// submitting call returns — which [`ThreadPool::run`] guarantees by
/// quiescing the job before returning, while task-body disjointness is
/// guaranteed by the DAG's dependency edges exactly as in the serial
/// schedule.
struct RawView<T> {
    ptr: *const T,
    len: usize,
}

struct RawViewMut<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Sync> Send for RawView<T> {}
unsafe impl<T: Sync> Sync for RawView<T> {}
unsafe impl<T: Send> Send for RawViewMut<T> {}
unsafe impl<T: Send> Sync for RawViewMut<T> {}

impl<T> RawView<T> {
    fn new(s: &[T]) -> Self {
        Self { ptr: s.as_ptr(), len: s.len() }
    }
    /// SAFETY: caller upholds the [`RawView`] contract.
    unsafe fn get(&self, off: usize, len: usize) -> &[T] {
        debug_assert!(off + len <= self.len);
        std::slice::from_raw_parts(self.ptr.add(off), len)
    }
}

impl<T> RawViewMut<T> {
    fn new(s: &mut [T]) -> Self {
        Self { ptr: s.as_mut_ptr(), len: s.len() }
    }
    /// SAFETY: caller upholds the [`RawViewMut`] contract *and* the
    /// disjointness of concurrently outstanding ranges.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, off: usize, len: usize) -> &mut [T] {
        debug_assert!(off + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(off), len)
    }
    /// SAFETY: as [`Self::get_mut`], for read-only uses of a region no
    /// task is concurrently writing.
    unsafe fn get(&self, off: usize, len: usize) -> &[T] {
        debug_assert!(off + len <= self.len);
        std::slice::from_raw_parts(self.ptr.add(off), len)
    }
}

/// Per-item operand/output pointers of one batched GEMM — the
/// [`crate::service::GemmService`] feeds gathered (non-strided) batches
/// through this table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ItemIo<S> {
    pub a: *const S,
    pub lda: usize,
    pub b: *const S,
    pub ldb: usize,
    pub c: *mut S,
    pub ldc: usize,
}

/// Borrowed description of where a batch's items live, handed to
/// [`run_graph`]. `Strided` is the `gemm_batch_strided` layout
/// (item `i` at offset `i·stride` in each operand); `Items` is an
/// explicit per-item pointer table.
pub(crate) enum BatchInput<'x, S> {
    Strided {
        a: &'x [S],
        lda: usize,
        stride_a: usize,
        b: &'x [S],
        ldb: usize,
        stride_b: usize,
        c: &'x mut [S],
        ldc: usize,
        stride_c: usize,
    },
    Items(&'x [ItemIo<S>]),
}

/// The raw (lifetime-erased) form of [`BatchInput`] stored in the job.
enum BatchInputRaw<S> {
    Strided {
        a: *const S,
        lda: usize,
        stride_a: usize,
        b: *const S,
        ldb: usize,
        stride_b: usize,
        c: *mut S,
        ldc: usize,
        stride_c: usize,
    },
    Items(*const ItemIo<S>),
}

impl<S> BatchInputRaw<S> {
    /// Item `i`'s A base pointer and leading dimension.
    /// SAFETY: `i < batch` and the backing input outlives the run.
    unsafe fn a(&self, i: usize) -> (*const S, usize) {
        match *self {
            BatchInputRaw::Strided { a, lda, stride_a, .. } => (a.add(i * stride_a), lda),
            BatchInputRaw::Items(items) => {
                let it = &*items.add(i);
                (it.a, it.lda)
            }
        }
    }
    /// SAFETY: as [`Self::a`].
    unsafe fn b(&self, i: usize) -> (*const S, usize) {
        match *self {
            BatchInputRaw::Strided { b, ldb, stride_b, .. } => (b.add(i * stride_b), ldb),
            BatchInputRaw::Items(items) => {
                let it = &*items.add(i);
                (it.b, it.ldb)
            }
        }
    }
    /// SAFETY: as [`Self::a`]; distinct items' C windows are disjoint
    /// (validated before the DAG is submitted).
    unsafe fn c(&self, i: usize) -> (*mut S, usize) {
        match *self {
            BatchInputRaw::Strided { c, ldc, stride_c, .. } => (c.add(i * stride_c), ldc),
            BatchInputRaw::Items(items) => {
                let it = &*items.add(i);
                (it.c, it.ldc)
            }
        }
    }
}

/// The fixed per-item geometry of a batch DAG: every item shares one
/// problem shape, transposes, and window-slot strides (elements per slot
/// in the packed A/B/C arenas and the workspace).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchGeom {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub op_a: Op,
    pub op_b: Op,
    pub slot_a: usize,
    pub slot_b: usize,
    pub slot_c: usize,
    pub slot_ws: usize,
    /// Shape of each item's packed terminal driver calls.
    pub driver: crate::terminal::Driver,
}

/// The item I/O of a [`GraphJob`]: how the conversion/epilogue task
/// kinds resolve item operands, plus the conversion/compute overlap
/// accounting behind `ExecMetrics::conversion_overlap_fraction`.
struct BatchIo<S> {
    input: BatchInputRaw<S>,
    geom: BatchGeom,
    alpha: S,
    beta: S,
    /// Writable aliases of the job's packed A/B arenas (its `a`/`b`
    /// views): a convert task writes its slot range strictly before any
    /// compute task of that slot reads it (DAG edges).
    pack_a: RawViewMut<S>,
    pack_b: RawViewMut<S>,
    /// Compute-kind task bodies currently in flight.
    active_compute: AtomicUsize,
    /// Nanos spent in conversion/epilogue chunk bodies, and the portion
    /// that ran while at least one compute body was in flight.
    convert_nanos: AtomicU64,
    overlap_nanos: AtomicU64,
}

/// One pooled execution of a compiled [`TaskGraph`]: the borrowed
/// buffers and graph as raw views, plus the job-lifetime atomics.
///
/// A fresh (small, fixed-size) `GraphJob` is built per run; the bulky
/// mutable state lives in the caller's [`PoolScratch`]. A stale pool
/// worker that enters [`Job::work`] after the run completed only ever
/// reads `pending` (its own `Arc` keeps the `GraphJob` alive) — it never
/// touches the raw views, because `pending` is already 0.
struct GraphJob<S> {
    graph: RawView<TaskGraph>,
    levels: RawView<LevelPlan>,
    layouts: NodeLayouts,
    a: RawView<S>,
    b: RawView<S>,
    c: RawViewMut<S>,
    ws: RawViewMut<S>,
    deps: RawView<AtomicU32>,
    queues: RawView<Mutex<VecDeque<u32>>>,
    shards: RawView<ShardCell>,
    workers: usize,
    policy: ExecPolicy,
    metrics_on: bool,
    /// Resolves the conversion/epilogue task kinds and carries the
    /// overlap counters.
    io: BatchIo<S>,
    /// External cancellation (deadline / caller cancel), consulted at
    /// every task-dequeue boundary; `None` costs one branch per task.
    cancel: Option<CancelToken>,
    /// Tasks whose completion cascade has not run yet. The run is done
    /// when this hits 0 — and it always does, even under cancellation,
    /// because cancelled tasks skip their *body* but still cascade.
    pending: AtomicUsize,
    /// Tasks sitting in some deque; lets idle workers avoid parking when
    /// work is available (checked under `sync` for wakeup safety).
    ready: AtomicUsize,
    cancelled: AtomicBool,
    /// Threads currently inside [`Job::work`].
    active: AtomicUsize,
    error: Mutex<Option<GemmError>>,
    sync: Mutex<()>,
    cv: Condvar,
}

// SAFETY: all raw views uphold the RawView contract (see `run_graph`);
// everything else is Sync by construction.
unsafe impl<S: Scalar> Send for GraphJob<S> {}
unsafe impl<S: Scalar> Sync for GraphJob<S> {}

/// Sink that books the serial executor's per-level times into a worker
/// shard, so pooled compute tasks report the same per-level wall-time
/// vocabulary as the serial path (summed across workers at the merge).
struct ShardLevelSink<'a> {
    level_nanos: &'a mut [u64; MAX_LEVELS + 1],
}

impl MetricsSink for ShardLevelSink<'_> {
    fn record_level_time(&mut self, level: usize, elapsed: Duration) {
        self.level_nanos[level.min(MAX_LEVELS)] += elapsed.as_nanos() as u64;
    }
}

impl<S: Scalar> GraphJob<S> {
    fn graph(&self) -> &TaskGraph {
        // SAFETY: the graph outlives the run (RawView contract).
        unsafe { self.graph.get(0, 1) }.first().expect("graph view")
    }

    fn enqueue(&self, task: u32, worker: usize) {
        // SAFETY: queue storage outlives the run; Mutex makes the push safe.
        let queues = unsafe { self.queues.get(0, self.workers) };
        lock(&queues[worker]).push_back(task);
        // Release so an idle worker that observes the count also observes
        // the push (the queue mutex already orders same-queue access).
        self.ready.fetch_add(1, Ordering::Release);
    }

    /// Pops local work (LIFO) or steals (FIFO) from a sibling.
    fn grab(&self, worker: usize, shard: &mut WorkerShard) -> Option<u32> {
        // SAFETY: queue storage outlives the run.
        let queues = unsafe { self.queues.get(0, self.workers) };
        if let Some(t) = lock(&queues[worker]).pop_back() {
            self.ready.fetch_sub(1, Ordering::AcqRel);
            return Some(t);
        }
        for j in 1..self.workers {
            let victim = (worker + j) % self.workers;
            if let Some(t) = lock(&queues[victim]).pop_front() {
                self.ready.fetch_sub(1, Ordering::AcqRel);
                shard.steals += 1;
                return Some(t);
            }
        }
        None
    }

    fn fail(&self, e: GemmError) {
        self.cancelled.store(true, Ordering::Relaxed);
        let mut slot = lock(&self.error);
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Runs one task body (no scheduling bookkeeping).
    ///
    /// SAFETY: called with `task` owned by this worker (popped exactly
    /// once) and all its dependency tasks completed, so every region it
    /// touches is either private to it or no longer written.
    unsafe fn run_body(&self, task_ix: u32, shard: &mut WorkerShard) {
        // Failpoints (no-ops unless the `failpoints` feature armed them):
        // an injected panic here is contained exactly like a real one, and
        // injected latency widens deadline/cancellation race windows.
        crate::faults::maybe_worker_panic();
        crate::faults::maybe_latency();
        let graph = self.graph();
        let task = graph.tasks[task_ix as usize];
        match task.kind {
            TaskKind::Gate => {}
            TaskKind::Leaf => self.run_item(graph.chunks[task.chunk as usize].slot as usize, shard),
            _ => self.run_batch_chunk(task.kind, graph.chunks[task.chunk as usize]),
        }
    }

    /// One item's whole compute: the serial interpreter, a team of one,
    /// over window slot `slot`'s packed operands, result and arena (whose
    /// tail is the terminal's). Level times book into `shard`.
    ///
    /// SAFETY: as [`Self::run_body`] — the item's convert gates completed,
    /// and its unpack chunks and the slot's next occupant wait for this
    /// task.
    unsafe fn run_item(&self, slot: usize, shard: &mut WorkerShard) {
        let (layouts, g) = (self.layouts, self.io.geom);
        // The operand views derive from `run_graph`'s exclusive arena
        // borrows, so they are write-capable; only the in-place schedule
        // writes (and restores) them.
        debug_assert!((slot + 1) * g.slot_a <= self.a.len && (slot + 1) * g.slot_b <= self.b.len);
        let a = self.a.ptr.add(slot * g.slot_a).cast_mut();
        let b = self.b.ptr.add(slot * g.slot_b).cast_mut();
        let c = self.c.get_mut(slot * g.slot_c, layouts.c.len()).as_mut_ptr();
        let (ws, ws_len) = (self.ws.get_mut(slot * g.slot_ws, g.slot_ws).as_mut_ptr(), g.slot_ws);
        let tail_len = crate::plan::terminal_tail_len(layouts, self.policy, g.driver);
        let walk = Walk {
            levels: self.levels.get(0, self.levels.len),
            policy: self.policy,
            rank: Rank::SOLO,
            tail: ws.add(ws_len - tail_len),
            tail_len,
            driver: g.driver,
            paired: core::ptr::null_mut(),
        };
        let run = if self.metrics_on {
            let mut sink = ShardLevelSink { level_nanos: &mut shard.level_nanos };
            exec_levels_raw(&walk, a, b, c, layouts, 0, ws, ws_len, &mut sink)
        } else {
            exec_levels_raw(&walk, a, b, c, layouts, 0, ws, ws_len, &mut NoopSink)
        };
        // A team of one never fails a barrier.
        debug_assert!(run.is_ok());
        // The item's Morton result is complete and its unpack chunks are
        // about to read it.
        crate::faults::maybe_poison(core::slice::from_raw_parts_mut(c, layouts.c.len()));
    }

    /// Runs one conversion/epilogue chunk.
    ///
    /// SAFETY: as [`Self::run_body`] — the DAG's edges make the touched
    /// regions exclusive: a convert chunk owns its tile range of its
    /// window slot (every compute reader of the slot depends on the
    /// item's convert gate, every reuse of the slot on the previous
    /// occupant's retire gate), and an unpack chunk owns its tile-column
    /// range of the item's C output (items' C windows are disjoint).
    unsafe fn run_batch_chunk(&self, kind: TaskKind, chunk: BatchChunk) {
        let io = &self.io;
        let root = self.layouts;
        let g = io.geom;
        let (item, slot) = (chunk.item as usize, chunk.slot as usize);
        let (r0, r1) = (chunk.r0 as usize, chunk.r1 as usize);
        match kind {
            TaskKind::ConvertA | TaskKind::ConvertB => {
                let a_side = kind == TaskKind::ConvertA;
                let layout = if a_side { &root.a } else { &root.b };
                let op = if a_side { g.op_a } else { g.op_b };
                // Stored (pre-op) dimensions of the operand matrix.
                let (rows, cols) =
                    if a_side { op.apply_dims(g.m, g.k) } else { op.apply_dims(g.k, g.n) };
                let (ptr, ld) = if a_side { io.input.a(item) } else { io.input.b(item) };
                let (slot_len, pack) =
                    if a_side { (g.slot_a, &io.pack_a) } else { (g.slot_b, &io.pack_b) };
                let src = MatRef::from_raw_parts(ptr, rows, cols, ld);
                let tile_len = layout.tile_len();
                let dst = pack.get_mut(slot * slot_len + r0 * tile_len, (r1 - r0) * tile_len);
                pack_tile_range(src, op, layout, dst, r0, r1);
            }
            TaskKind::Unpack => {
                let src = self.c.get(slot * g.slot_c, root.c.len());
                let (ptr, ldc) = io.input.c(item);
                unpack_tile_cols_raw(src, &root.c, io.alpha, io.beta, ptr, ldc, g.m, g.n, r0, r1);
            }
            _ => unreachable!(),
        }
    }

    /// Runs a task end to end: body (unless cancelled, under
    /// `catch_unwind`) plus the completion cascade, which always runs so
    /// `pending` drains even on failure.
    fn execute(&self, task_ix: u32, worker: usize, shard: &mut WorkerShard) {
        let graph = self.graph();
        let task = graph.tasks[task_ix as usize];
        // Cooperative cancellation at the task-dequeue boundary: a tripped
        // token cancels the job exactly like a first panic would — bodies
        // stop running, the completion cascade below still drains, and the
        // token's typed error (first writer wins) surfaces after the join.
        if !self.cancelled.load(Ordering::Relaxed) {
            if let Some(token) = &self.cancel {
                if let Err(e) = token.check() {
                    self.fail(e);
                }
            }
        }
        if !self.cancelled.load(Ordering::Relaxed) {
            // Compute tasks book their level times through the shard;
            // conversion chunks are accounted through the overlap
            // counters.
            let metrics = self.metrics_on;
            let is_chunk =
                matches!(task.kind, TaskKind::ConvertA | TaskKind::ConvertB | TaskKind::Unpack);
            let is_compute = task.kind == TaskKind::Leaf;
            let io = &self.io;
            if metrics && is_compute {
                io.active_compute.fetch_add(1, Ordering::Relaxed);
            }
            // A chunk counts as overlapped when compute was in flight at
            // either end of its body (sampling both ends catches compute
            // that started mid-chunk).
            let compute_at_start =
                metrics && is_chunk && io.active_compute.load(Ordering::Relaxed) > 0;
            let t0 = (metrics && is_chunk).then(Instant::now);
            // SAFETY: `task_ix` was popped from a deque exactly once and
            // its dependency count reached zero.
            let body = catch_unwind(AssertUnwindSafe(|| unsafe { self.run_body(task_ix, shard) }));
            if metrics && is_compute {
                io.active_compute.fetch_sub(1, Ordering::Relaxed);
            }
            if let Some(t0) = t0 {
                let nanos = t0.elapsed().as_nanos() as u64;
                io.convert_nanos.fetch_add(nanos, Ordering::Relaxed);
                if compute_at_start || io.active_compute.load(Ordering::Relaxed) > 0 {
                    io.overlap_nanos.fetch_add(nanos, Ordering::Relaxed);
                }
            }
            if let Err(payload) = body {
                self.fail(GemmError::WorkerPanic { message: panic_message(payload.as_ref()) });
            }
        }
        shard.tasks += 1;
        // Completion cascade: release dependents, then retire the task.
        // SAFETY: deps storage outlives the run; entries are atomics.
        let deps = unsafe { self.deps.get(0, graph.tasks.len()) };
        let mut released = false;
        let start = task.dep_start as usize;
        for &dependent in &graph.dependents[start..start + task.dep_len as usize] {
            // AcqRel chains the producers' writes into whichever worker
            // takes the dependent to zero.
            if deps[dependent as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.enqueue(dependent, worker);
                released = true;
            }
        }
        let done = self.pending.fetch_sub(1, Ordering::AcqRel) == 1;
        if done || released {
            // Wake idle workers (new work) or everyone (job complete).
            // Lock/unlock pairs with the idle worker's checks under `sync`.
            drop(lock(&self.sync));
            self.cv.notify_all();
        }
    }

    fn take_error(&self) -> Option<GemmError> {
        lock(&self.error).take()
    }
}

impl<S: Scalar> Job for GraphJob<S> {
    fn work(&self, worker: usize) {
        if worker >= self.workers {
            return; // a pool larger than the job (cannot happen today)
        }
        self.active.fetch_add(1, Ordering::AcqRel);
        // SAFETY: shard `worker` is touched only by this thread during
        // the run (one thread per worker index).
        let shard = unsafe { &mut *(self.shards.get(0, self.workers)[worker].0.get()) };
        while self.pending.load(Ordering::Acquire) != 0 {
            if let Some(task) = self.grab(worker, shard) {
                self.execute(task, worker, shard);
                continue;
            }
            // Park until new work is enqueued or the job completes. The
            // `ready` increment happens *before* the enqueuer takes
            // `sync`, so either we see it here or the notify reaches us.
            let guard = lock(&self.sync);
            if self.pending.load(Ordering::Acquire) == 0 || self.ready.load(Ordering::Acquire) > 0 {
                continue;
            }
            if self.metrics_on {
                let t0 = Instant::now();
                drop(self.cv.wait(guard).unwrap_or_else(|p| p.into_inner()));
                shard.idle_nanos += t0.elapsed().as_nanos() as u64;
            } else {
                drop(self.cv.wait(guard).unwrap_or_else(|p| p.into_inner()));
            }
        }
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(lock(&self.sync));
            self.cv.notify_all();
        }
    }

    fn quiesce(&self) {
        let mut guard = lock(&self.sync);
        while self.active.load(Ordering::Acquire) != 0 {
            guard = self.cv.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Merges the per-worker metric shards into `sink` after a join.
fn merge_shards<K: MetricsSink>(scratch: &mut PoolScratch, threads: usize, sink: &mut K) {
    let mut stats =
        PoolStats { workers: threads, tasks_executed: 0, steals: 0, idle: Duration::ZERO };
    let mut level_nanos = [0u64; MAX_LEVELS + 1];
    for w in 0..threads {
        let shard = scratch.shard_mut(w);
        stats.tasks_executed += shard.tasks;
        stats.steals += shard.steals;
        stats.idle += Duration::from_nanos(shard.idle_nanos);
        for (acc, &n) in level_nanos.iter_mut().zip(shard.level_nanos.iter()) {
            *acc += n;
        }
    }
    for (level, &nanos) in level_nanos.iter().enumerate() {
        if nanos > 0 {
            sink.record_level_time(level, Duration::from_nanos(nanos));
        }
    }
    sink.record_pool(stats);
}

/// Executes a compiled [`TaskGraph`] ([`crate::batch`]'s lowering) on
/// the global pool for `threads` workers: per-item conversion, compute,
/// and epilogue tasks all drain through one dependency-counted DAG, so
/// conversion of item *k+1* overlaps with compute of item *k*. The packed
/// A/B/C arenas and the workspace hold `window` slots of `geom`'s sizes,
/// each item's compute running the interpreter over `levels` and
/// `layouts` under `policy`; `input` resolves each item's column-major
/// operands. `scratch` is reset in place (zero allocations on a warm
/// scratch apart from the job handle itself), and the per-worker metric
/// shards merge into `sink` after the join: per-level wall times (summed
/// across workers, so pooled and serial runs report the same vocabulary)
/// and the aggregate [`PoolStats`]. Returns `(convert_nanos,
/// overlapped_nanos)` — total wall time of conversion/epilogue chunk
/// bodies and the portion that ran concurrently with compute (both zero
/// with a disabled sink).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_graph<S: Scalar, K: MetricsSink>(
    graph: &TaskGraph,
    levels: &[LevelPlan],
    layouts: NodeLayouts,
    policy: ExecPolicy,
    threads: usize,
    input: BatchInput<'_, S>,
    geom: BatchGeom,
    alpha: S,
    beta: S,
    arena_a: &mut [S],
    arena_b: &mut [S],
    arena_c: &mut [S],
    ws: &mut [S],
    scratch: &mut PoolScratch,
    cancel: Option<&CancelToken>,
    sink: &mut K,
) -> Result<(u64, u64), GemmError> {
    debug_assert!(threads >= 2, "threads < 2 must take the serial path");
    scratch.reset(graph, threads);
    // The packed operand arenas are read by compute tasks (through the
    // job's `a`/`b` views) *and* written by convert tasks (through the
    // `pack_*` aliases); the DAG's edges order every write of a slot
    // strictly before its readers, and both views derive from the same
    // exclusive borrow.
    let pack_a = RawViewMut::new(arena_a);
    let pack_b = RawViewMut::new(arena_b);
    let a = RawView { ptr: pack_a.ptr.cast_const(), len: pack_a.len };
    let b = RawView { ptr: pack_b.ptr.cast_const(), len: pack_b.len };
    let input = match input {
        BatchInput::Strided { a, lda, stride_a, b, ldb, stride_b, c, ldc, stride_c } => {
            BatchInputRaw::Strided {
                a: a.as_ptr(),
                lda,
                stride_a,
                b: b.as_ptr(),
                ldb,
                stride_b,
                c: c.as_mut_ptr(),
                ldc,
                stride_c,
            }
        }
        BatchInput::Items(items) => BatchInputRaw::Items(items.as_ptr()),
    };
    let job: Arc<GraphJob<S>> = Arc::new(GraphJob {
        graph: RawView { ptr: graph, len: 1 },
        levels: RawView::new(levels),
        layouts,
        a,
        b,
        c: RawViewMut::new(arena_c),
        ws: RawViewMut::new(ws),
        deps: RawView { ptr: scratch.deps.as_ptr(), len: scratch.deps.len() },
        queues: RawView { ptr: scratch.queues.as_ptr(), len: scratch.queues.len() },
        shards: RawView { ptr: scratch.shards.as_ptr(), len: scratch.shards.len() },
        workers: threads,
        policy,
        metrics_on: K::ENABLED,
        io: BatchIo {
            input,
            geom,
            alpha,
            beta,
            pack_a,
            pack_b,
            active_compute: AtomicUsize::new(0),
            convert_nanos: AtomicU64::new(0),
            overlap_nanos: AtomicU64::new(0),
        },
        cancel: cancel.cloned(),
        pending: AtomicUsize::new(graph.tasks.len()),
        ready: AtomicUsize::new(graph.roots.len()),
        cancelled: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        error: Mutex::new(None),
        sync: Mutex::new(()),
        cv: Condvar::new(),
    });
    ThreadPool::global(threads).run(job.clone());
    let result = match job.take_error() {
        Some(e) => Err(e),
        None => Ok(()),
    };
    if K::ENABLED {
        merge_shards(scratch, threads, sink);
    }
    let io = &job.io;
    result.map(|()| {
        (io.convert_nanos.load(Ordering::Relaxed), io.overlap_nanos.load(Ordering::Relaxed))
    })
}

// ---------------------------------------------------------------------------
// The team job
// ---------------------------------------------------------------------------

/// Element alignment of [`Rank::share`] boundaries: 8 elements keep two
/// ranks' `f64` ranges on separate 64-byte cache lines.
const SHARE_ALIGN: usize = 8;

/// Busy-wait iterations a rank spins at a barrier before it yields: a
/// partner running on another core is usually a few microseconds behind.
/// Teams larger than the machine's parallelism skip the spin.
const SPIN_ITERS: u32 = 1 << 7;

/// `yield_now` rounds a rank tries after spinning and before it parks on
/// the condvar. A partner the scheduler put on the same core gets that
/// core at once, where spinning would hold it: with 4096 spins and 16
/// yields, one run in four of forty one-shot 513³ calls on a 2-vCPU host
/// started at 3–4 GFLOP/s instead of 11–13. With no partner there a round
/// costs one syscall.
const YIELD_ITERS: u32 = 1 << 8;

/// One member of a team run ([`run_team`]): its index, the team size, and
/// the barrier the members meet at. The team of one, [`Rank::SOLO`], is
/// the serial path: every share is the whole range and [`Rank::sync`] is
/// free.
#[derive(Clone, Copy)]
pub(crate) struct Rank<'t> {
    /// `0..size`; rank 0 is the submitting thread.
    pub id: usize,
    pub size: usize,
    barrier: Option<&'t TeamBarrier>,
}

impl Rank<'_> {
    /// The team of one.
    pub const SOLO: Rank<'static> = Rank { id: 0, size: 1, barrier: None };

    /// Rank `id` of a team of `size` that never meets at a barrier: for
    /// tests that run a team's ranks one after another.
    #[cfg(test)]
    pub(crate) fn detached(id: usize, size: usize) -> Rank<'static> {
        Rank { id, size, barrier: None }
    }

    /// Waits until every rank has arrived. Returns the run's first error —
    /// a cancel or deadline the last arriver observed, or a rank's panic
    /// or error — at this and every later barrier, so all ranks unwind
    /// together.
    pub fn sync(&self) -> Result<(), GemmError> {
        self.barrier.map_or(Ok(()), TeamBarrier::wait)
    }

    /// This rank's part of `0..len`: contiguous ranges cut at multiples
    /// of [`SHARE_ALIGN`] elements, the last rank taking the remainder.
    pub fn share(&self, len: usize) -> Range<usize> {
        if self.size == 1 {
            return 0..len;
        }
        let chunk = len.div_ceil(self.size).next_multiple_of(SHARE_ALIGN);
        let lo = (self.id * chunk).min(len);
        lo..(lo + chunk).min(len)
    }

    /// This rank's part of `0..n` indivisible units, balanced to within
    /// one unit.
    pub fn units(&self, n: usize) -> Range<usize> {
        if self.size == 1 {
            return 0..n;
        }
        self.id * n / self.size..(self.id + 1) * n / self.size
    }
}

/// A reusable generation barrier that spins, then yields, then parks,
/// and carries the run's sticky failure: once set, every wait returns it.
/// Its per-run fields are reset by [`TeamJob::reset`] while no rank uses
/// it.
struct TeamBarrier {
    size: AtomicUsize,
    /// [`SPIN_ITERS`], or 0 for a team larger than the machine.
    spins: AtomicU32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Ranks parked on `cv` (read by the releaser to skip the lock when
    /// nobody sleeps).
    parked: AtomicUsize,
    failed: AtomicBool,
    error: Mutex<Option<GemmError>>,
    /// Checked once per barrier, by the last arriver.
    cancel: Mutex<Option<CancelToken>>,
    /// Summed barrier wait over all ranks, when `timed`.
    idle_nanos: AtomicU64,
    timed: AtomicBool,
    sleep: Mutex<()>,
    cv: Condvar,
}

impl TeamBarrier {
    fn error(&self) -> Option<GemmError> {
        lock(&self.error).clone()
    }

    fn status(&self) -> Result<(), GemmError> {
        if self.failed.load(Ordering::Acquire) {
            Err(self.error().expect("a failed barrier holds its error"))
        } else {
            Ok(())
        }
    }

    /// Records the run's failure (first writer wins) and wakes every
    /// waiting rank.
    fn fail(&self, e: GemmError) {
        {
            let mut slot = lock(&self.error);
            if slot.is_none() {
                *slot = Some(e);
            }
        }
        self.failed.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(lock(&self.sleep));
            self.cv.notify_all();
        }
    }

    fn released(&self, generation: usize) -> bool {
        self.generation.load(Ordering::SeqCst) != generation || self.failed.load(Ordering::SeqCst)
    }

    fn wait(&self) -> Result<(), GemmError> {
        self.status()?;
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.size.load(Ordering::Relaxed) {
            if let Some(Err(e)) = lock(&self.cancel).as_ref().map(CancelToken::check) {
                self.fail(e);
            }
            // The reset is ordered before the release, so a rank that sees
            // the new generation also counts from zero at the next barrier.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::SeqCst);
            self.wake();
            return self.status();
        }
        let timed = self.timed.load(Ordering::Relaxed);
        let t0 = timed.then(Instant::now);
        let spin = self.spins.load(Ordering::Relaxed);
        let mut spins = 0;
        while !self.released(generation) {
            if spins < spin + YIELD_ITERS {
                if spins < spin {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                spins += 1;
                continue;
            }
            let mut guard = lock(&self.sleep);
            self.parked.fetch_add(1, Ordering::SeqCst);
            while !self.released(generation) {
                guard = self.cv.wait(guard).unwrap_or_else(|p| p.into_inner());
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        if let Some(t0) = t0 {
            self.idle_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        self.status()
    }
}

/// The body helper ranks run; [`TeamJob`] stores it with the borrow
/// lifetime erased to `'static` (see [`run_team`]).
type HelpFn<'a> = dyn Fn(Rank<'_>) -> Result<(), GemmError> + Sync + 'a;

/// A pool's team job: ranks `1..size` run `help` on pool workers while
/// the submitter runs rank 0. One per pool, reset for every run, so a
/// team run allocates nothing (a per-run job freed by whichever thread
/// dropped it last would hand pool threads a malloc arena of their own).
struct TeamJob {
    /// The run's helper body. SAFETY CONTRACT: written by
    /// [`TeamJob::reset`] only while the pool's slot is empty; valid
    /// until [`run_team`] returns, which it does only after
    /// [`Job::quiesce`].
    help: std::cell::UnsafeCell<*const HelpFn<'static>>,
    barrier: TeamBarrier,
    /// Helper ranks that have finished.
    done: Mutex<usize>,
    done_cv: Condvar,
}

// SAFETY: `help` is a `Sync` closure the submitter keeps alive until the
// job quiesced, and is written only while no worker can see the job;
// everything else is Sync by construction.
unsafe impl Send for TeamJob {}
unsafe impl Sync for TeamJob {}

impl TeamJob {
    fn new() -> Self {
        let nothing: &HelpFn<'static> = &|_| Ok(());
        TeamJob {
            help: std::cell::UnsafeCell::new(nothing),
            barrier: TeamBarrier {
                size: AtomicUsize::new(1),
                spins: AtomicU32::new(0),
                arrived: AtomicUsize::new(0),
                generation: AtomicUsize::new(0),
                parked: AtomicUsize::new(0),
                failed: AtomicBool::new(false),
                error: Mutex::new(None),
                cancel: Mutex::new(None),
                idle_nanos: AtomicU64::new(0),
                timed: AtomicBool::new(false),
                sleep: Mutex::new(()),
                cv: Condvar::new(),
            },
            done: Mutex::new(0),
            done_cv: Condvar::new(),
        }
    }

    /// Prepares the job for a run of `size` ranks.
    ///
    /// SAFETY: the caller holds the pool's empty slot (no worker can be
    /// inside the job) and keeps `help` valid until the run quiesced.
    unsafe fn reset(
        &self,
        size: usize,
        cancel: Option<&CancelToken>,
        timed: bool,
        help: *const HelpFn<'static>,
    ) {
        *self.help.get() = help;
        let b = &self.barrier;
        b.size.store(size, Ordering::Relaxed);
        b.spins.store(if size <= auto_threads() { SPIN_ITERS } else { 0 }, Ordering::Relaxed);
        b.arrived.store(0, Ordering::Relaxed);
        b.failed.store(false, Ordering::Relaxed);
        *lock(&b.error) = None;
        *lock(&b.cancel) = cancel.cloned();
        b.idle_nanos.store(0, Ordering::Relaxed);
        b.timed.store(timed, Ordering::Relaxed);
        *lock(&self.done) = 0;
    }

    fn size(&self) -> usize {
        self.barrier.size.load(Ordering::Relaxed)
    }
}

impl Job for TeamJob {
    fn work(&self, worker: usize) {
        let size = self.size();
        if worker == 0 || worker >= size {
            return;
        }
        let rank = Rank { id: worker, size, barrier: Some(&self.barrier) };
        let body = catch_unwind(AssertUnwindSafe(|| {
            // Failpoints (no-ops unless the `failpoints` feature armed
            // them): a panicking helper poisons the barrier exactly like
            // a real one.
            crate::faults::maybe_worker_panic();
            crate::faults::maybe_latency();
            // SAFETY: the submitter keeps `help` alive until quiesce, and
            // set it before publishing the job this worker took.
            unsafe { (**self.help.get())(rank) }
        }));
        match body {
            Ok(Ok(())) => {}
            Ok(Err(e)) => self.barrier.fail(e),
            Err(payload) => self
                .barrier
                .fail(GemmError::WorkerPanic { message: panic_message(payload.as_ref()) }),
        }
        *lock(&self.done) += 1;
        self.done_cv.notify_all();
    }

    fn quiesce(&self) {
        let mut done = lock(&self.done);
        while *done + 1 < self.size() {
            done = self.done_cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Runs one closure as a team of up to `size` ranks on the global pool
/// for `size` workers: `lead` on the calling thread as rank 0, `help` on
/// ranks `1..size`. Every rank walks the same code and meets the others
/// at [`Rank::sync`]; the team shrinks to one (`lead` alone, with
/// [`Rank::SOLO`]) when `size < 2`, when the pool spawned no helper, or
/// when another job holds the pool's slot — a concurrent caller or the
/// pool job this call runs inside.
///
/// `cancel` is checked at every barrier by its last arriver. A panic or
/// error on any rank fails the barrier, so the others return at their
/// next sync; the run's first error is returned, panics as
/// [`GemmError::WorkerPanic`]. The [`PoolStats`] (`None` for a team of
/// one) count the ranks and, when `timed`, their summed barrier wait.
pub(crate) fn run_team<R>(
    size: usize,
    cancel: Option<&CancelToken>,
    timed: bool,
    lead: impl FnOnce(Rank<'_>) -> Result<R, GemmError>,
    help: &HelpFn<'_>,
) -> (Result<R, GemmError>, Option<PoolStats>) {
    let pool = (size >= 2).then(|| ThreadPool::global(size));
    let size = pool.as_ref().map_or(1, |p| size.min(p.spawned + 1));
    let Some(pool) = pool.filter(|_| size >= 2) else {
        return (lead(Rank::SOLO), None);
    };
    // SAFETY: only the lifetime is erased; `help` outlives the run
    // because this function quiesces the job before returning.
    let help: *const HelpFn<'static> = unsafe { std::mem::transmute(help) };
    let Some(job) = (unsafe { pool.try_start_team(size, cancel, timed, help) }) else {
        return (lead(Rank::SOLO), None);
    };
    let team = &pool.team;
    let rank = Rank { id: 0, size, barrier: Some(&team.barrier) };
    let out = match catch_unwind(AssertUnwindSafe(|| lead(rank))) {
        Ok(out) => out,
        Err(payload) => Err(GemmError::WorkerPanic { message: panic_message(payload.as_ref()) }),
    };
    if let Err(e) = &out {
        // Release helpers waiting for rank 0 at a barrier.
        team.barrier.fail(e.clone());
    }
    team.quiesce();
    let stats = PoolStats {
        workers: size,
        tasks_executed: 0,
        steals: 0,
        idle: Duration::from_nanos(team.barrier.idle_nanos.load(Ordering::Relaxed)),
    };
    let out = match team.barrier.error() {
        Some(e) => Err(e),
        None => out,
    };
    pool.retire(&job);
    (out, Some(stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_env_accepts_positive_and_blank() {
        assert_eq!(parse_threads_env(""), Ok(None));
        assert_eq!(parse_threads_env("   "), Ok(None));
        assert_eq!(parse_threads_env("4"), Ok(Some(4)));
        assert_eq!(parse_threads_env(" 16 "), Ok(Some(16)));
        assert_eq!(parse_threads_env("99999"), Ok(Some(MAX_WORKERS)));
    }

    #[test]
    fn parse_threads_env_rejects_malformed_values() {
        for bad in ["0", "-2", "four", "4.5", "4x", "0x10"] {
            assert!(
                matches!(parse_threads_env(bad), Err(GemmError::InvalidConfig { .. })),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn explicit_thread_count_bypasses_environment() {
        assert_eq!(try_resolve_threads(3), Ok(3));
        assert_eq!(try_resolve_threads(usize::MAX), Ok(MAX_WORKERS));
    }

    #[test]
    fn cancel_token_reports_cancelled_after_cancel() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(GemmError::Cancelled));
    }

    #[test]
    fn cancel_token_deadline_expires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.check(), Err(GemmError::DeadlineExceeded));
        // An expired deadline is not a cancel: the flag stays clear.
        assert!(!t.is_cancelled());

        let far = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(far.check().is_ok());
        assert!(far.deadline().is_some());
    }

    #[test]
    fn cancel_token_trip_wire_counts_checks() {
        let t = CancelToken::cancelling_after(3);
        for _ in 0..3 {
            assert!(t.check().is_ok());
        }
        assert_eq!(t.check(), Err(GemmError::Cancelled));
        assert!(t.is_cancelled());

        let now = CancelToken::cancelling_after(0);
        assert_eq!(now.check(), Err(GemmError::Cancelled));
    }
    // The team tests use pool sizes no other test in this binary uses, so
    // a concurrently running test never holds their pool's slot.

    #[test]
    fn team_ranks_meet_at_every_barrier() {
        // Each rank bumps a shared counter between barriers; after every
        // barrier every rank sees all bumps of the phase.
        let hits = AtomicUsize::new(0);
        let body = |rank: Rank<'_>| {
            for phase in 1..=50 {
                hits.fetch_add(1, Ordering::SeqCst);
                rank.sync()?;
                assert_eq!(hits.load(Ordering::SeqCst), phase * rank.size);
                rank.sync()?;
            }
            Ok(())
        };
        let (out, stats) = run_team(5, None, true, body, &body);
        out.unwrap();
        let stats = stats.expect("a free pool runs the whole team");
        assert_eq!(stats.workers, 5);
    }

    #[test]
    fn a_busy_pool_runs_the_caller_as_a_team_of_one() {
        // A team started from inside another team's rank finds the pool's
        // slot taken (by the outer job) and runs alone instead of waiting
        // on itself.
        let inner = |rank: Rank<'_>| -> Result<usize, GemmError> {
            let (out, stats) = run_team(6, None, false, |r| Ok(r.size), &|_| Ok(()));
            assert!(stats.is_none(), "the nested team must run alone");
            rank.sync()?;
            out
        };
        let (out, stats) = run_team(6, None, false, inner, &|rank| inner(rank).map(drop));
        assert_eq!(out, Ok(1));
        assert_eq!(stats.map(|s| s.workers), Some(6));
    }

    #[test]
    fn a_failing_rank_stops_every_rank_and_leaves_the_pool_usable() {
        // A panicking rank fails the run on every rank.
        let (out, _) = run_team(
            8,
            None,
            false,
            |rank| {
                for _ in 0..10 {
                    rank.sync()?;
                }
                Ok(())
            },
            &|rank| {
                rank.sync()?;
                panic!("rank {} failed", rank.id)
            },
        );
        assert!(matches!(out, Err(GemmError::WorkerPanic { .. })), "{out:?}");
        let (out, _) = run_team(8, None, false, |rank| rank.sync(), &|rank| rank.sync());
        assert_eq!(out, Ok(()));

        // The third barrier's last arriver trips the token; every rank
        // returns the error from that barrier on.
        let token = CancelToken::cancelling_after(2);
        let body = |rank: Rank<'_>| {
            for phase in 0..10 {
                if let Err(e) = rank.sync() {
                    assert_eq!(phase, 2);
                    return Err(e);
                }
            }
            Ok(())
        };
        let (out, _) = run_team(8, Some(&token), false, body, &|rank| body(rank));
        assert_eq!(out, Err(GemmError::Cancelled));
    }

    #[test]
    fn shares_tile_the_range() {
        for size in [1usize, 2, 3, 7] {
            for len in [0usize, 5, 64, 1089, 4356] {
                let mut next = 0;
                for id in 0..size {
                    let r = Rank { id, size, barrier: None }.share(len);
                    assert_eq!(r.start, next.min(len));
                    assert!(r.start % SHARE_ALIGN == 0 || r.start == len);
                    next = r.end;
                }
                assert_eq!(next, len);
                let units: usize =
                    (0..size).map(|id| Rank { id, size, barrier: None }.units(len).len()).sum();
                assert_eq!(units, len);
            }
        }
    }
}
