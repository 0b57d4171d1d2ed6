//! `GemmService` — an admission-controlled multiply front-end.
//!
//! The plan/execute split ([`crate::plan`](mod@crate::plan)) makes a single caller fast;
//! this module makes *many concurrent callers* safe. A
//! [`GemmService`] is a long-running front-end that accepts
//! [`GemmRequest`]s from any number of client threads and runs them on a
//! fixed set of dispatcher threads, each with its own warm
//! [`GemmContext`] (so steady-state traffic stays on the allocation-free
//! hot path). Robustness is layered:
//!
//! * **Bounded submission queue** — a full queue rejects the submission
//!   with [`GemmError::Overloaded`] instead of growing without bound.
//! * **Memory ledger** — before a request allocates anything, its
//!   workspace estimate ([`crate::gemm::GemmContext::try_reserve_for`]'s
//!   sizing) is admitted against a shared byte budget; requests larger
//!   than the whole budget fail fast with
//!   [`GemmError::BudgetExceeded`], and requests that would overshoot a
//!   busy ledger wait (still honoring their deadline) until running work
//!   releases bytes.
//! * **Plan cache** — compilation is deduplicated through a small LRU
//!   cache keyed by `(m, k, n, config)`, so a storm of same-shape
//!   requests compiles once and executes many times.
//! * **Deadlines & cancellation** — every request carries a
//!   [`CancelToken`]; dispatchers check it before any allocation
//!   (an already-expired deadline never touches memory) and execution
//!   observes it at every barrier of a team, draining the in-flight run
//!   into [`GemmError::DeadlineExceeded`] / [`GemmError::Cancelled`]
//!   within roughly one step of the interpreter. The
//!   dispatcher's context stays warm and reusable afterward.
//! * **Graceful shutdown** — [`GemmService::shutdown`] (also run on
//!   drop) rejects new submissions with [`GemmError::ShuttingDown`],
//!   lets in-flight work finish, fails still-queued requests with the
//!   same typed error, and joins every dispatcher. No request is ever
//!   left unresolved.
//!
//! Observability comes from [`GemmService::stats`], a
//! [`ServiceStats`] snapshot of the admission/outcome/cache counters.
//! The failure paths themselves are exercised by the `failpoints` chaos
//! suite (see [`crate::faults`] and `tests/chaos.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modgemm_mat::view::Op;
use modgemm_mat::{Matrix, Scalar};

use crate::batch::BatchPlan;
use crate::config::{MemoryBudget, ModgemmConfig};
use crate::error::{try_zeroed_vec, GemmError};
use crate::gemm::{buffer_needs, GemmContext};
use crate::metrics::{NoopSink, ServiceStats};
use crate::plan::GemmPlan;
use crate::pool::{CancelToken, ItemIo};

/// How often a dispatcher waiting for ledger bytes re-checks its
/// request's cancellation token.
const LEDGER_POLL: Duration = Duration::from_millis(5);

/// Locks a mutex, tolerating poisoning: service state is only mutated in
/// short critical sections that cannot panic, so a poisoned lock's data
/// is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Service configuration
// ---------------------------------------------------------------------------

/// Configuration of a [`GemmService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Capacity of the bounded submission queue; a submission finding it
    /// full is rejected with [`GemmError::Overloaded`].
    pub queue_capacity: usize,
    /// Dispatcher threads executing requests, each with its own warm
    /// [`GemmContext`]. `0` is a test/manual mode: nothing executes —
    /// submissions queue up (making [`GemmError::Overloaded`]
    /// deterministic to provoke) until [`GemmService::shutdown`] fails
    /// them with [`GemmError::ShuttingDown`].
    pub dispatchers: usize,
    /// Shared cap on the *estimated* bytes of concurrently admitted
    /// request workspace (operand/result Morton buffers + Strassen
    /// arena + output). [`MemoryBudget::Unlimited`] admits everything.
    pub memory_budget: MemoryBudget,
    /// Entries in the `(m, k, n, config)` → [`GemmPlan`] LRU cache.
    /// `0` disables caching (every request compiles its own plan).
    pub plan_cache_capacity: usize,
    /// Default per-request GEMM configuration
    /// ([`GemmRequest::config`] overrides it per request).
    pub gemm: ModgemmConfig,
    /// Same-shape queued requests a dispatcher coalesces into one
    /// whole-batch task DAG ([`crate::batch::BatchPlan`]) per dispatch,
    /// so one request's Morton conversion overlaps another's compute.
    /// `1` (the default) dispatches strictly per request. Only
    /// deadline-free requests with identical `(shape, config)` coalesce,
    /// and only from the front of the queue (FIFO order is preserved);
    /// a coalesced group is admitted against the ledger as one unit
    /// using the windowed batch estimate.
    pub batch_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            dispatchers: 1,
            memory_budget: MemoryBudget::Unlimited,
            plan_cache_capacity: 8,
            gemm: ModgemmConfig::default(),
            batch_window: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Requests and tickets
// ---------------------------------------------------------------------------

/// One multiply request: `C = A·B` over owned operands, with an optional
/// per-request configuration and deadline.
#[derive(Debug)]
pub struct GemmRequest<S> {
    a: Matrix<S>,
    b: Matrix<S>,
    config: Option<ModgemmConfig>,
    deadline: Option<Instant>,
}

impl<S: Scalar> GemmRequest<S> {
    /// A request to compute `A·B`.
    pub fn new(a: Matrix<S>, b: Matrix<S>) -> Self {
        Self { a, b, config: None, deadline: None }
    }

    /// Overrides the service's default [`ModgemmConfig`] for this
    /// request (validated when the request is dispatched).
    pub fn config(mut self, cfg: ModgemmConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Sets an absolute deadline: the request fails with
    /// [`GemmError::DeadlineExceeded`] once `deadline` passes — before
    /// any allocation when it is already expired at dispatch, or by
    /// stopping the in-flight run when it expires mid-execution.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now ([`Self::deadline`]).
    pub fn deadline_in(self, timeout: Duration) -> Self {
        self.deadline(Instant::now() + timeout)
    }
}

/// Shared completion slot between a ticket and its dispatcher.
struct TicketShared<S> {
    slot: Mutex<Option<Result<Matrix<S>, GemmError>>>,
    cv: Condvar,
    cancel: CancelToken,
}

/// A handle to one submitted request: wait for its result, or cancel it.
///
/// Every accepted submission resolves exactly once — with the product or
/// a typed [`GemmError`] — even across cancellation, deadline expiry,
/// injected faults, and service shutdown.
pub struct GemmTicket<S> {
    shared: Arc<TicketShared<S>>,
}

impl<S> std::fmt::Debug for GemmTicket<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GemmTicket").field("done", &self.is_done()).finish()
    }
}

impl<S> GemmTicket<S> {
    /// Blocks until the request resolves, returning the product or the
    /// typed error it ended with.
    pub fn wait(self) -> Result<Matrix<S>, GemmError> {
        let mut slot = lock(&self.shared.slot);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.shared.cv.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Waits at most `timeout` for the request to resolve; `None` when it
    /// is still pending afterward (the ticket remains usable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Matrix<S>, GemmError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock(&self.shared.slot);
        loop {
            if let Some(result) = slot.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            slot = guard;
        }
    }

    /// Requests cooperative cancellation: a queued request resolves
    /// [`GemmError::Cancelled`] before touching memory; an in-flight one
    /// stops at its team's next barrier and resolves within roughly one
    /// interpreter step (it may still resolve `Ok` if it won the race to
    /// completion).
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// True once the request has resolved (its result is waiting).
    pub fn is_done(&self) -> bool {
        lock(&self.shared.slot).is_some()
    }
}

fn fulfill<S>(ticket: &Arc<TicketShared<S>>, result: Result<Matrix<S>, GemmError>) {
    *lock(&ticket.slot) = Some(result);
    ticket.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

struct CacheEntry<S> {
    key: (usize, usize, usize, ModgemmConfig),
    plan: Arc<GemmPlan<S>>,
    last_used: u64,
}

/// A small LRU of compiled plans. Lookup-or-build runs under one lock,
/// so a burst of identical shapes compiles exactly once; the entry count
/// is tiny (shapes in service traffic repeat), so a linear scan beats
/// hashing the whole config.
struct PlanCache<S> {
    entries: Vec<CacheEntry<S>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<S: Scalar> PlanCache<S> {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns `(plan, was_hit)`, compiling and inserting on a miss.
    fn get_or_build(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        cfg: &ModgemmConfig,
    ) -> Result<(Arc<GemmPlan<S>>, bool), GemmError> {
        self.tick += 1;
        let tick = self.tick;
        let key = (m, k, n, *cfg);
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = tick;
            self.hits += 1;
            return Ok((Arc::clone(&e.plan), true));
        }
        self.misses += 1;
        let plan = Arc::new(GemmPlan::try_new(m, k, n, cfg)?);
        if self.capacity > 0 {
            if self.entries.len() >= self.capacity {
                let lru = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("cache is non-empty when at capacity");
                self.entries.swap_remove(lru);
                self.evictions += 1;
            }
            self.entries.push(CacheEntry { key, plan: Arc::clone(&plan), last_used: tick });
        }
        Ok((plan, false))
    }
}

// ---------------------------------------------------------------------------
// Memory ledger
// ---------------------------------------------------------------------------

struct Ledger {
    /// `None` = unlimited.
    budget_bytes: Option<u64>,
    state: Mutex<LedgerState>,
    cv: Condvar,
}

#[derive(Default)]
struct LedgerState {
    in_use: u64,
    peak: u64,
}

/// RAII admission: releases the admitted bytes (and wakes waiters) on
/// drop, so every exit path — success, typed error, injected fault —
/// returns its budget.
struct LedgerGuard<'a> {
    ledger: &'a Ledger,
    bytes: u64,
}

impl Drop for LedgerGuard<'_> {
    fn drop(&mut self) {
        if self.bytes > 0 {
            lock(&self.ledger.state).in_use -= self.bytes;
            self.ledger.cv.notify_all();
        }
    }
}

impl Ledger {
    fn new(budget: MemoryBudget) -> Self {
        let budget_bytes = match budget {
            MemoryBudget::Unlimited => None,
            MemoryBudget::MaxWorkspaceBytes(b) => Some(b as u64),
        };
        Self { budget_bytes, state: Mutex::new(LedgerState::default()), cv: Condvar::new() }
    }

    /// Admits `bytes` against the budget, waiting (and polling `cancel`)
    /// while other admitted work holds too much of it. A request larger
    /// than the whole budget fails fast with
    /// [`GemmError::BudgetExceeded`].
    fn admit<'a>(&'a self, bytes: u64, cancel: &CancelToken) -> Result<LedgerGuard<'a>, GemmError> {
        let Some(budget) = self.budget_bytes else {
            let mut st = lock(&self.state);
            st.in_use += bytes;
            st.peak = st.peak.max(st.in_use);
            return Ok(LedgerGuard { ledger: self, bytes });
        };
        if bytes > budget {
            return Err(GemmError::BudgetExceeded {
                needed_bytes: bytes as usize,
                budget_bytes: budget as usize,
            });
        }
        let mut st = lock(&self.state);
        loop {
            if st.in_use + bytes <= budget {
                st.in_use += bytes;
                st.peak = st.peak.max(st.in_use);
                return Ok(LedgerGuard { ledger: self, bytes });
            }
            // Keep honoring the request's deadline/cancel while queued on
            // memory, not just on CPU.
            cancel.check()?;
            let (guard, _) =
                self.cv.wait_timeout(st, LEDGER_POLL).unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    fn snapshot(&self) -> (u64, u64) {
        let st = lock(&self.state);
        (st.in_use, st.peak)
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_shutdown: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    failed: AtomicU64,
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
}

impl Counters {
    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Classifies a terminal request outcome into its counter.
    fn record_outcome<S>(&self, result: &Result<Matrix<S>, GemmError>) {
        match result {
            Ok(_) => self.bump(&self.completed),
            Err(GemmError::Cancelled) => self.bump(&self.cancelled),
            Err(GemmError::DeadlineExceeded) => self.bump(&self.deadline_exceeded),
            Err(GemmError::ShuttingDown) => self.bump(&self.rejected_shutdown),
            Err(_) => self.bump(&self.failed),
        }
    }
}

struct Queued<S> {
    req: GemmRequest<S>,
    ticket: Arc<TicketShared<S>>,
}

struct Shared<S> {
    cfg: ServiceConfig,
    queue: Mutex<VecDeque<Queued<S>>>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    cache: Mutex<PlanCache<S>>,
    ledger: Ledger,
    counters: Counters,
}

/// A long-running, admission-controlled GEMM front-end. See the module
/// docs for the robustness model.
///
/// The service is generic over the scalar it serves; dispatcher threads
/// each own a warm [`GemmContext`] so repeated shapes run the
/// allocation-free hot path.
pub struct GemmService<S: Scalar> {
    shared: Arc<Shared<S>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl<S: Scalar> std::fmt::Debug for GemmService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GemmService")
            .field("dispatchers", &self.dispatchers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<S: Scalar + 'static> GemmService<S> {
    /// Starts a service: spawns the configured dispatcher threads and
    /// returns the handle clients submit through.
    pub fn start(cfg: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_capacity)),
            queue_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            cache: Mutex::new(PlanCache::new(cfg.plan_cache_capacity)),
            ledger: Ledger::new(cfg.memory_budget),
            counters: Counters::default(),
            cfg,
        });
        let dispatchers = (0..cfg.dispatchers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("modgemm-dispatch-{i}"))
                    .spawn(move || Self::dispatch_loop(&shared))
                    .expect("spawning a dispatcher thread")
            })
            .collect();
        Self { shared, dispatchers }
    }

    /// A service with the default [`ServiceConfig`].
    pub fn with_defaults() -> Self {
        Self::start(ServiceConfig::default())
    }

    /// Submits a request, returning its [`GemmTicket`] — or rejecting it
    /// up front with [`GemmError::ShuttingDown`] after
    /// [`Self::shutdown`], or [`GemmError::Overloaded`] when the bounded
    /// queue is full. Accepted requests always resolve their ticket.
    pub fn submit(&self, req: GemmRequest<S>) -> Result<GemmTicket<S>, GemmError> {
        let shared = &self.shared;
        if shared.shutting_down.load(Ordering::Acquire) {
            shared.counters.bump(&shared.counters.rejected_shutdown);
            return Err(GemmError::ShuttingDown);
        }
        let cancel = match req.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let ticket = Arc::new(TicketShared { slot: Mutex::new(None), cv: Condvar::new(), cancel });
        let depth = {
            let mut q = lock(&shared.queue);
            if q.len() >= shared.cfg.queue_capacity {
                shared.counters.bump(&shared.counters.rejected_overload);
                return Err(GemmError::Overloaded { capacity: shared.cfg.queue_capacity });
            }
            q.push_back(Queued { req, ticket: Arc::clone(&ticket) });
            q.len() as u64
        };
        let c = &shared.counters;
        c.bump(&c.submitted);
        c.queue_depth.store(depth, Ordering::Relaxed);
        c.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
        shared.queue_cv.notify_one();
        Ok(GemmTicket { shared: ticket })
    }

    /// Convenience: submit and wait in one call.
    pub fn call(&self, req: GemmRequest<S>) -> Result<Matrix<S>, GemmError> {
        self.submit(req)?.wait()
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let (hits, misses, evictions) = {
            let cache = lock(&self.shared.cache);
            (cache.hits, cache.misses, cache.evictions)
        };
        let (bytes_in_use, peak_bytes) = self.shared.ledger.snapshot();
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            rejected_shutdown: c.rejected_shutdown.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            queue_depth: c.queue_depth.load(Ordering::Relaxed),
            peak_queue_depth: c.peak_queue_depth.load(Ordering::Relaxed),
            plan_cache_hits: hits,
            plan_cache_misses: misses,
            plan_cache_evictions: evictions,
            bytes_in_use,
            peak_bytes_in_use: peak_bytes,
        }
    }

    /// Shuts the service down: new submissions are rejected with
    /// [`GemmError::ShuttingDown`], in-flight requests run to their
    /// (possibly cancelled) completion, still-queued requests resolve
    /// with [`GemmError::ShuttingDown`], and every dispatcher thread is
    /// joined. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        shutdown_impl(&self.shared, &mut self.dispatchers);
    }

    /// One dispatcher: pop, coalesce same-shape neighbors
    /// ([`ServiceConfig::batch_window`]), dispatch, resolve — forever,
    /// until shutdown.
    fn dispatch_loop(shared: &Arc<Shared<S>>) {
        let mut ctx = GemmContext::<S>::new();
        loop {
            let group = {
                let mut q = lock(&shared.queue);
                loop {
                    if let Some(head) = q.pop_front() {
                        let mut group = vec![head];
                        Self::drain_coalescible(shared, &mut q, &mut group);
                        shared.counters.queue_depth.store(q.len() as u64, Ordering::Relaxed);
                        break group;
                    }
                    if shared.shutting_down.load(Ordering::Acquire) {
                        return;
                    }
                    q = shared.queue_cv.wait(q).unwrap_or_else(|p| p.into_inner());
                }
            };
            Self::process_group(shared, group, &mut ctx);
        }
    }

    /// Extends `group` (which holds the just-popped head) with requests
    /// from the queue front that can run in the same whole-batch DAG:
    /// identical `(shape, config)` key and no deadline on either side,
    /// up to [`ServiceConfig::batch_window`] total. Popping only
    /// matching *front* entries preserves FIFO dispatch order.
    fn drain_coalescible(
        shared: &Arc<Shared<S>>,
        q: &mut VecDeque<Queued<S>>,
        group: &mut Vec<Queued<S>>,
    ) {
        let window = shared.cfg.batch_window;
        let head = &group[0].req;
        if window <= 1 || head.deadline.is_some() {
            return;
        }
        let key = |req: &GemmRequest<S>| {
            (
                req.a.rows(),
                req.a.cols(),
                req.b.rows(),
                req.b.cols(),
                req.config.unwrap_or(shared.cfg.gemm),
            )
        };
        let head_key = key(head);
        while group.len() < window {
            let joins = match q.front() {
                Some(cand) => cand.req.deadline.is_none() && key(&cand.req) == head_key,
                None => false,
            };
            if !joins {
                break;
            }
            group.push(q.pop_front().expect("front entry was just inspected"));
        }
    }

    /// Dispatches one coalesced group: members cancelled while queued
    /// resolve immediately; a single survivor takes the ordinary path;
    /// a real group runs through [`Self::run_batch`], falling back to
    /// per-item dispatch when the batched path is unavailable.
    fn process_group(shared: &Arc<Shared<S>>, group: Vec<Queued<S>>, ctx: &mut GemmContext<S>) {
        let mut live: Vec<Queued<S>> = Vec::with_capacity(group.len());
        for item in group {
            match item.ticket.cancel.check() {
                Ok(()) => live.push(item),
                Err(e) => {
                    let result = Err(e);
                    shared.counters.record_outcome(&result);
                    fulfill(&item.ticket, result);
                }
            }
        }
        if live.len() <= 1 {
            if let Some(item) = live.pop() {
                let result = Self::process(shared, &item.req, &item.ticket.cancel, ctx);
                shared.counters.record_outcome(&result);
                fulfill(&item.ticket, result);
            }
            return;
        }
        match Self::run_batch(shared, &live, ctx) {
            Some(Ok(outputs)) => {
                for (item, c) in live.into_iter().zip(outputs) {
                    let result = Ok(c);
                    shared.counters.record_outcome(&result);
                    fulfill(&item.ticket, result);
                }
            }
            Some(Err(e)) => {
                for item in live {
                    let result = Err(e.clone());
                    shared.counters.record_outcome(&result);
                    fulfill(&item.ticket, result);
                }
            }
            None => {
                for item in live {
                    let result = Self::process(shared, &item.req, &item.ticket.cancel, ctx);
                    shared.counters.record_outcome(&result);
                    fulfill(&item.ticket, result);
                }
            }
        }
    }

    /// Runs a coalesced group as one [`BatchPlan`] task DAG so later
    /// items' Morton conversions overlap earlier items' compute.
    /// `None` means the batched path is unavailable for this group
    /// (degenerate shape, serial config, single-threaded pool) and the
    /// caller should dispatch per item instead. Coalesced execution is
    /// deliberately non-cancellable mid-flight: only deadline-free
    /// requests coalesce, and cancellation is honored for each member at
    /// dispatch time — cancelling one member mid-DAG would otherwise
    /// discard its groupmates' work.
    fn run_batch(
        shared: &Arc<Shared<S>>,
        items: &[Queued<S>],
        ctx: &mut GemmContext<S>,
    ) -> Option<Result<Vec<Matrix<S>>, GemmError>> {
        let head = &items[0].req;
        let (m, k) = (head.a.rows(), head.a.cols());
        let (kb, n) = (head.b.rows(), head.b.cols());
        if k != kb || m == 0 || n == 0 {
            return None;
        }
        let cfg = head.config.unwrap_or(shared.cfg.gemm);
        let plan = match lock(&shared.cache).get_or_build(m, k, n, &cfg) {
            Ok((plan, _hit)) => plan,
            Err(e) => return Some(Err(e)),
        };
        let bplan = BatchPlan::from_plan((*plan).clone(), items.len());
        if bplan.parallel_tasks() == 0 {
            return None;
        }

        // Ledger admission over the *windowed* batch estimate — the same
        // sizing the DAG executor grows the context to — plus outputs.
        let elem = core::mem::size_of::<S>() as u64;
        let workspace: u64 = buffer_needs::<S>(m, k, n, items.len(), &cfg)
            .map(|(a, b, c, ws)| (a + b + c + ws) as u64)
            .unwrap_or(0);
        let bytes = (workspace + (m as u64) * (n as u64) * (items.len() as u64)) * elem;
        let guard = match shared.ledger.admit(bytes, &items[0].ticket.cancel) {
            Ok(g) => g,
            Err(e) => return Some(Err(e)),
        };
        for _ in items.iter() {
            shared.counters.bump(&shared.counters.admitted);
        }

        let elements = match m.checked_mul(n) {
            Some(e) => e,
            None => return Some(Err(GemmError::Allocation { elements: usize::MAX })),
        };
        let mut outputs: Vec<Matrix<S>> = Vec::with_capacity(items.len());
        for _ in items.iter() {
            match try_zeroed_vec::<S>(elements) {
                Ok(v) => outputs.push(Matrix::from_vec(v, m, n)),
                Err(e) => return Some(Err(e)),
            }
        }
        let table: Vec<ItemIo<S>> = items
            .iter()
            .zip(outputs.iter_mut())
            .map(|(item, out)| ItemIo {
                a: item.req.a.as_slice().as_ptr(),
                lda: m.max(1),
                b: item.req.b.as_slice().as_ptr(),
                ldb: k.max(1),
                c: out.as_mut_slice().as_mut_ptr(),
                ldc: m.max(1),
            })
            .collect();
        // SAFETY: every request's operands are owned, contiguous
        // column-major matrices of the planned shape (ld = rows), alive
        // for the whole call, and each output is a distinct fresh
        // allocation — so no C window aliases any other buffer.
        let run = unsafe {
            bplan.try_execute_items(
                Op::NoTrans,
                Op::NoTrans,
                S::ONE,
                S::ZERO,
                &table,
                ctx,
                None,
                &mut NoopSink,
            )
        };
        drop(guard);
        Some(run.map(|()| outputs))
    }

    /// Runs one admitted request on this dispatcher's context.
    fn process(
        shared: &Arc<Shared<S>>,
        req: &GemmRequest<S>,
        cancel: &CancelToken,
        ctx: &mut GemmContext<S>,
    ) -> Result<Matrix<S>, GemmError> {
        // 1. Deadline/cancel gate: an expired or cancelled request is
        //    rejected before the service allocates anything for it.
        cancel.check()?;

        let (m, k) = (req.a.rows(), req.a.cols());
        let (kb, n) = (req.b.rows(), req.b.cols());
        if k != kb {
            return Err(GemmError::InnerDimMismatch { a_cols: k, b_rows: kb });
        }
        let cfg = team_config(req.config.unwrap_or(shared.cfg.gemm), shared.cfg.dispatchers);

        // 2. Plan dedupe: one compilation per (shape, config) burst.
        let (plan, _hit) = lock(&shared.cache).get_or_build(m, k, n, &cfg)?;

        // 3. Ledger admission over the request's workspace estimate —
        //    the same sizing execution will use — plus its output.
        let elem = core::mem::size_of::<S>() as u64;
        let workspace: u64 = buffer_needs::<S>(m, k, n, 1, &cfg)
            .map(|(a, b, c, ws)| (a + b + c + ws) as u64)
            .unwrap_or(0);
        let bytes = (workspace + (m as u64) * (n as u64)) * elem;
        let _admitted = shared.ledger.admit(bytes, cancel)?;
        shared.counters.bump(&shared.counters.admitted);

        // 4. Allocate the output and execute cancellably on the warm
        //    per-dispatcher context.
        let elements = m.checked_mul(n).ok_or(GemmError::Allocation { elements: usize::MAX })?;
        let cbuf = try_zeroed_vec::<S>(elements)?;
        let mut c = Matrix::from_vec(cbuf, m, n);
        plan.try_execute_cancellable_with_metrics(
            S::ONE,
            Op::NoTrans,
            req.a.view(),
            Op::NoTrans,
            req.b.view(),
            S::ZERO,
            c.view_mut(),
            ctx,
            cancel,
            &mut NoopSink,
        )?;
        Ok(c)
    }
}

/// The configuration one request runs under: a single GEMM's team gets
/// `threads / dispatchers` workers (at least one), so dispatchers running
/// side by side never oversubscribe the cores. A malformed
/// `MODGEMM_THREADS` is left for plan compilation to report.
fn team_config(cfg: ModgemmConfig, dispatchers: usize) -> ModgemmConfig {
    match crate::pool::try_resolve_threads(cfg.threads) {
        Ok(threads) => ModgemmConfig { threads: (threads / dispatchers.max(1)).max(1), ..cfg },
        Err(_) => cfg,
    }
}

/// The shutdown sequence, shared by [`GemmService::shutdown`] and drop:
/// flag, wake, join, then sweep the queue so every accepted ticket still
/// resolves (the sweep is what resolves queued work in the
/// `dispatchers: 0` manual mode).
fn shutdown_impl<S: Scalar>(shared: &Shared<S>, dispatchers: &mut Vec<JoinHandle<()>>) {
    shared.shutting_down.store(true, Ordering::Release);
    shared.queue_cv.notify_all();
    for handle in dispatchers.drain(..) {
        let _ = handle.join();
    }
    let leftovers: Vec<Queued<S>> = lock(&shared.queue).drain(..).collect();
    let c = &shared.counters;
    c.queue_depth.store(0, Ordering::Relaxed);
    for item in leftovers {
        c.bump(&c.rejected_shutdown);
        fulfill(&item.ticket, Err(GemmError::ShuttingDown));
    }
}

impl<S: Scalar> Drop for GemmService<S> {
    fn drop(&mut self) {
        shutdown_impl(&self.shared, &mut self.dispatchers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_mat::naive::naive_gemm;

    fn filled(rows: usize, cols: usize, salt: i64) -> Matrix<f64> {
        let data =
            (0..rows * cols).map(|i| ((i as i64 * 31 + salt) % 17 - 8) as f64).collect::<Vec<_>>();
        Matrix::from_vec(data, rows, cols)
    }

    fn expected(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        naive_gemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut());
        c
    }

    #[test]
    fn service_completes_requests_correctly() {
        let mut svc =
            GemmService::<f64>::start(ServiceConfig { dispatchers: 2, ..ServiceConfig::default() });
        for (m, k, n, salt) in [(33, 33, 33, 1), (64, 48, 32, 2), (65, 65, 65, 3)] {
            let (a, b) = (filled(m, k, salt), filled(k, n, salt + 100));
            let want = expected(&a, &b);
            let got = svc.call(GemmRequest::new(a, b)).expect("request should succeed");
            assert_eq!(got, want, "{m}x{k}x{n}");
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.admitted, 3);
        svc.shutdown();
    }

    #[test]
    fn service_coalesces_same_shape_requests_through_batch_dag() {
        // Manual mode (no dispatcher threads) lets the test drive one
        // dispatch round by hand, making the coalescing deterministic.
        let par = ModgemmConfig { threads: 3, ..ModgemmConfig::default() };
        let mut svc = GemmService::<f64>::start(ServiceConfig {
            dispatchers: 0,
            batch_window: 8,
            gemm: par,
            ..ServiceConfig::default()
        });
        let mut wants = Vec::new();
        let mut tickets = Vec::new();
        for salt in 0..3 {
            let (a, b) = (filled(40, 36, salt), filled(36, 44, salt + 50));
            wants.push(expected(&a, &b));
            tickets.push(svc.submit(GemmRequest::new(a, b)).unwrap());
        }
        // Same shape but deadline-bearing: a coalescing barrier.
        let barrier = svc
            .submit(
                GemmRequest::new(filled(40, 36, 9), filled(36, 44, 9))
                    .deadline_in(Duration::from_secs(3600)),
            )
            .unwrap();

        let mut ctx = GemmContext::<f64>::new();
        let group = {
            let mut q = lock(&svc.shared.queue);
            let head = q.pop_front().expect("three requests are queued");
            let mut group = vec![head];
            GemmService::drain_coalescible(&svc.shared, &mut q, &mut group);
            assert_eq!(q.len(), 1, "the deadline-bearing request must stay queued");
            group
        };
        assert_eq!(group.len(), 3, "all deadline-free same-shape requests coalesce");
        GemmService::process_group(&svc.shared, group, &mut ctx);

        for (ticket, want) in tickets.into_iter().zip(&wants) {
            let got = ticket.wait().expect("coalesced member should succeed");
            assert_eq!(&got, want);
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.admitted, 3);
        svc.shutdown();
        assert_eq!(barrier.wait(), Err(GemmError::ShuttingDown));
    }

    #[test]
    fn service_batch_window_one_keeps_per_request_dispatch() {
        // The default window (1) must leave dispatch untouched: every
        // request pops alone even when the queue holds identical shapes.
        let mut svc =
            GemmService::<f64>::start(ServiceConfig { dispatchers: 0, ..ServiceConfig::default() });
        let t1 = svc.submit(GemmRequest::new(filled(8, 8, 1), filled(8, 8, 2))).unwrap();
        let _t2 = svc.submit(GemmRequest::new(filled(8, 8, 3), filled(8, 8, 4))).unwrap();
        let group = {
            let mut q = lock(&svc.shared.queue);
            let head = q.pop_front().unwrap();
            let mut group = vec![head];
            GemmService::drain_coalescible(&svc.shared, &mut q, &mut group);
            assert_eq!(q.len(), 1);
            group
        };
        assert_eq!(group.len(), 1);
        let mut ctx = GemmContext::<f64>::new();
        GemmService::process_group(&svc.shared, group, &mut ctx);
        assert!(t1.wait().is_ok());
        svc.shutdown();
    }

    #[test]
    fn service_overload_is_typed_and_queued_work_resolves_on_shutdown() {
        // Manual mode: no dispatchers, so the queue fills deterministically.
        let mut svc = GemmService::<f64>::start(ServiceConfig {
            queue_capacity: 2,
            dispatchers: 0,
            ..ServiceConfig::default()
        });
        let mk = || GemmRequest::new(filled(8, 8, 1), filled(8, 8, 2));
        let t1 = svc.submit(mk()).unwrap();
        let t2 = svc.submit(mk()).unwrap();
        assert_eq!(svc.submit(mk()).unwrap_err(), GemmError::Overloaded { capacity: 2 });
        assert_eq!(svc.stats().rejected_overload, 1);
        assert_eq!(svc.stats().queue_depth, 2);
        svc.shutdown();
        // Accepted tickets still resolve — with the shutdown error.
        assert_eq!(t1.wait(), Err(GemmError::ShuttingDown));
        assert_eq!(t2.wait(), Err(GemmError::ShuttingDown));
        assert_eq!(svc.stats().queue_depth, 0);
        assert!(svc.stats().rejection_rate() > 0.0);
    }

    #[test]
    fn service_rejects_expired_deadline_before_admission() {
        let mut svc = GemmService::<f64>::with_defaults();
        let req = GemmRequest::new(filled(64, 64, 1), filled(64, 64, 2))
            .deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(svc.submit(req).unwrap().wait(), Err(GemmError::DeadlineExceeded));
        let stats = svc.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        // Rejected before the ledger ever admitted it.
        assert_eq!(stats.admitted, 0);
        svc.shutdown();
    }

    #[test]
    fn service_cancel_resolves_and_leaves_service_usable() {
        // One dispatcher keeps both workers: 300 pads above the team
        // crossover, so the request runs as a team of two.
        let par = ModgemmConfig { threads: 2, ..ModgemmConfig::default() };
        let mut svc = GemmService::<f64>::start(ServiceConfig {
            dispatchers: 1,
            gemm: par,
            ..ServiceConfig::default()
        });
        let ticket =
            svc.submit(GemmRequest::new(filled(300, 300, 1), filled(300, 300, 2))).unwrap();
        ticket.cancel();
        // Cancellation races completion; both outcomes are legal, but the
        // ticket must resolve either way.
        match ticket.wait() {
            Ok(_) | Err(GemmError::Cancelled) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        // The dispatcher context stays reusable after a cancel.
        let (a, b) = (filled(48, 48, 3), filled(48, 48, 4));
        let want = expected(&a, &b);
        assert_eq!(svc.call(GemmRequest::new(a, b)).unwrap(), want);
        svc.shutdown();
    }

    #[test]
    fn service_plan_cache_dedupes_and_evicts() {
        let mut svc = GemmService::<f64>::start(ServiceConfig {
            dispatchers: 1,
            plan_cache_capacity: 1,
            ..ServiceConfig::default()
        });
        let shape_a = || GemmRequest::new(filled(32, 32, 1), filled(32, 32, 2));
        let shape_b = || GemmRequest::new(filled(40, 40, 3), filled(40, 40, 4));
        svc.call(shape_a()).unwrap(); // miss: compiles
        svc.call(shape_a()).unwrap(); // hit
        svc.call(shape_b()).unwrap(); // miss: evicts shape A
        let stats = svc.stats();
        assert_eq!(stats.plan_cache_hits, 1);
        assert_eq!(stats.plan_cache_misses, 2);
        assert_eq!(stats.plan_cache_evictions, 1);
        assert!(stats.plan_cache_hit_rate() > 0.3);
        svc.shutdown();
    }

    #[test]
    fn service_budget_rejects_oversized_requests() {
        let mut svc = GemmService::<f64>::start(ServiceConfig {
            dispatchers: 1,
            memory_budget: MemoryBudget::MaxWorkspaceBytes(64),
            ..ServiceConfig::default()
        });
        let err = svc.call(GemmRequest::new(filled(64, 64, 1), filled(64, 64, 2))).unwrap_err();
        assert!(
            matches!(err, GemmError::BudgetExceeded { budget_bytes: 64, .. }),
            "expected BudgetExceeded, got {err:?}"
        );
        assert_eq!(svc.stats().failed, 1);
        assert_eq!(svc.stats().bytes_in_use, 0);
        svc.shutdown();
    }

    #[test]
    fn service_shutdown_rejects_new_submissions() {
        let mut svc = GemmService::<f64>::with_defaults();
        svc.shutdown();
        let err = svc.submit(GemmRequest::new(filled(8, 8, 1), filled(8, 8, 2))).unwrap_err();
        assert_eq!(err, GemmError::ShuttingDown);
        // Idempotent.
        svc.shutdown();
    }

    #[test]
    fn service_soak_parallel_clients_all_resolve() {
        let svc = Arc::new(GemmService::<f64>::start(ServiceConfig {
            queue_capacity: 16,
            dispatchers: 2,
            ..ServiceConfig::default()
        }));
        let clients: Vec<_> = (0..4)
            .map(|ci| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let mut outcomes = [0u32; 3]; // ok, typed error, overload
                    for i in 0..50 {
                        let dim = 16 + (ci * 7 + i) % 48;
                        let mut req = GemmRequest::new(
                            filled(dim, dim, i as i64),
                            filled(dim, dim, ci as i64),
                        );
                        if i % 5 == 0 {
                            req = req.deadline_in(Duration::from_micros(200));
                        }
                        match svc.submit(req) {
                            Ok(ticket) => {
                                if i % 7 == 0 {
                                    ticket.cancel();
                                }
                                match ticket
                                    .wait_timeout(Duration::from_secs(30))
                                    .expect("ticket must resolve: no hangs allowed")
                                {
                                    Ok(_) => outcomes[0] += 1,
                                    Err(_) => outcomes[1] += 1,
                                }
                            }
                            Err(GemmError::Overloaded { .. }) => outcomes[2] += 1,
                            Err(e) => panic!("unexpected submit error: {e:?}"),
                        }
                    }
                    outcomes
                })
            })
            .collect();
        let mut totals = [0u32; 3];
        for c in clients {
            let o = c.join().expect("client thread must not panic");
            for (t, v) in totals.iter_mut().zip(o) {
                *t += v;
            }
        }
        assert_eq!(totals.iter().sum::<u32>(), 200, "every request accounted for");
        assert!(totals[0] > 0, "some requests should succeed");
        // The service is still healthy after the storm.
        let (a, b) = (filled(33, 33, 9), filled(33, 33, 10));
        let want = expected(&a, &b);
        assert_eq!(svc.call(GemmRequest::new(a, b)).unwrap(), want);
        let stats = svc.stats();
        assert_eq!(stats.finished() + stats.queue_depth, stats.submitted);
    }
}
