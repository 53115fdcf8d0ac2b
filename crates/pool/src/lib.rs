//! Persistent work-sharing thread pool for the parallel kernels.
//!
//! # Spawn-once contract
//!
//! A [`ThreadPool`] spawns its worker threads **once**, at construction.
//! Every subsequent [`ThreadPool::broadcast`] reuses those same OS threads;
//! no kernel invocation ever spawns a thread. The global pool returned by
//! [`global`] is created on first use and lives for the remainder of the
//! process, so in steady state the only threads in the system are the
//! caller and the pool's workers. The `pool_reuses_same_threads` test pins
//! this down by intersecting observed `ThreadId`s across repeated
//! broadcasts.
//!
//! The single exception is crash recovery: if a worker thread *dies* (a
//! panic escaped outside any share — in practice only injected faults, see
//! [`resilience::fault`]), [`ThreadPool::heal`] reaps it and spawns a
//! replacement on the same slot. A slot that keeps crashing is quarantined
//! after [`QUARANTINE_AFTER`] respawns; broadcasts still complete because
//! the calling thread always participates. [`ThreadPool::health`] reports
//! live/quarantined/respawned counts plus the process-wide poisoned-lock
//! recovery total from [`resilience::audit`].
//!
//! # Execution model
//!
//! [`ThreadPool::broadcast`] publishes a job of `shares` independent units
//! of work. Workers (and the calling thread, which always participates)
//! repeatedly claim the next unclaimed share index from an atomic counter
//! and run the job closure on it — the same dynamic chunk-claiming pattern
//! as [`DynamicCounter`], which lives here so both `matrix` and `kernels`
//! can share it. Dynamic claiming is what gives the vertex-parallel SpMM
//! its load balance on power-law graphs (Section II-C of the PIUMA GCN
//! paper): a worker stuck on a hub row simply claims fewer shares.
//!
//! A broadcast may cap its parallelism below the pool width (the
//! `executors` argument), letting kernels honour a `threads` parameter
//! smaller than the machine without re-creating pools.
//!
//! # Panics
//!
//! A panicking share does not kill a worker: the payload is captured,
//! remaining shares still run, and the first payload is re-raised on the
//! **calling** thread after the broadcast completes
//! ([`ThreadPool::broadcast_caught`] returns it as a typed
//! [`BroadcastError`] instead). The pool stays fully usable afterwards.
//! Locks poisoned by panicking shares are recovered — and the recovery
//! counted — through [`resilience::audit`].
//!
//! # Safety
//!
//! This crate contains the single `unsafe` block of the workspace: the job
//! closure reference is lifetime-erased to a raw pointer so persistent
//! workers can call a stack-borrowed closure. Soundness is argued at the
//! erasure site: `broadcast` does not return until every share has
//! finished, and no worker dereferences the pointer after the last share
//! completes, so the referent strictly outlives all dereferences.

#![warn(missing_docs)]

// BOUNDS: the only non-test indexing is the scratch arena's `&buf[..len]`
// and `&mut buf[offset..offset + len]`, both taken immediately after the
// buffer is grown to at least `offset + len` entries.

pub use resilience;

use resilience::audit;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// Dynamic work distribution: a shared counter from which each worker
/// claims the next chunk of `chunk` items, up to `limit`.
///
/// This is the software analogue of the paper's dynamically load-balanced
/// vertex-parallel SpMM: chunk granularity bounds claim traffic while the
/// shared counter keeps fast workers busy when rows are skewed.
#[derive(Debug, Default)]
pub struct DynamicCounter {
    next: AtomicUsize,
}

impl DynamicCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        DynamicCounter {
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next chunk of up to `chunk` items below `limit`.
    /// Returns the half-open range `(start, end)`, or `None` when the
    /// range `[0, limit)` is exhausted.
    pub fn claim(&self, chunk: usize, limit: usize) -> Option<(usize, usize)> {
        let chunk = chunk.max(1);
        let start = self.next.fetch_add(chunk, Ordering::Relaxed);
        if start >= limit {
            return None;
        }
        Some((start, (start + chunk).min(limit)))
    }
}

/// Type-erased pointer to the broadcast closure.
///
/// Dereferenced only between job publication and the completion of the
/// final share; `broadcast` blocks until then, keeping the referent alive.
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the pointer is only sent to workers that dereference it while the
// originating `broadcast` frame — which owns the unique borrow — is alive.
unsafe impl Send for TaskPtr {}
// SAFETY: `&TaskPtr` only exposes the raw pointer, and every dereference
// goes through the `Sync` pointee, so concurrent shared access is sound.
unsafe impl Sync for TaskPtr {}

/// One published broadcast: shared claim/completion state.
struct JobCore {
    task: TaskPtr,
    shares: usize,
    /// Next unclaimed share index.
    next: AtomicUsize,
    /// Count of finished shares; completion when it reaches `shares`.
    finished: AtomicUsize,
    /// Worker-participation budget (callers always participate for free).
    budget: AtomicUsize,
    /// First captured panic payload from any share.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Completion signal for the caller.
    done_mx: Mutex<()>,
    done_cv: Condvar,
}

impl JobCore {
    /// Claims and runs shares until none remain. Returns when the counter
    /// is exhausted (not necessarily when all shares have *finished*).
    fn run(&self) {
        loop {
            let share = self.next.fetch_add(1, Ordering::Relaxed);
            if share >= self.shares {
                return;
            }
            // SAFETY: a share can only be claimed before `finished`
            // reaches `shares`, and `broadcast` keeps the closure alive
            // until that point (see module docs).
            let task = unsafe { &*self.task.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                // lint:allow(L008): inside catch_unwind — an injected panic
                // is captured like any share panic; disabled cost is one
                // relaxed load.
                resilience::fault_point!("pool.share");
                task(share)
            })) {
                let mut slot = audit::recover("pool.job_panic", &self.panic);
                slot.get_or_insert(payload);
            }
            // PAIRS: pool.finished — AcqRel makes the share's writes
            // visible to whoever observes completion, and the caller's
            // Acquire load pairs with it.
            let done = self.finished.fetch_add(1, Ordering::AcqRel) + 1;
            if done == self.shares {
                let _g = audit::recover("pool.done", &self.done_mx);
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every share has finished.
    fn wait_done(&self) {
        let mut g = audit::recover("pool.done", &self.done_mx);
        // PAIRS: pool.finished — Acquire pairs with the workers' AcqRel
        // increments, ordering their share writes before our return.
        while self.finished.load(Ordering::Acquire) < self.shares {
            g = audit::recover_wait("pool.done", &self.done_cv, g);
        }
    }
}

/// Job slot shared between the submitting thread and the workers.
struct Slot {
    /// Monotonic job generation; workers run each generation once.
    generation: u64,
    job: Option<Arc<JobCore>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    job_ready: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Slot> {
        audit::recover("pool.slot", &self.slot)
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut last_gen = 0u64;
    loop {
        let core = {
            let mut slot = shared.lock();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.generation > last_gen {
                    if let Some(core) = &slot.job {
                        last_gen = slot.generation;
                        break Arc::clone(core);
                    }
                }
                slot = audit::recover_wait("pool.slot", &shared.job_ready, slot);
            }
        };
        // Worker-death injection site: deliberately OUTSIDE any lock and
        // BEFORE the budget decrement, so a killed worker never holds the
        // slot mutex and never strands a claimed share — the broadcast
        // still completes through the caller, and `heal` respawns us.
        // lint:allow(L008): disabled cost is one relaxed load; placement
        // argued above.
        resilience::fault_point!("pool.worker");
        // Respect the broadcast's executor cap: workers beyond the budget
        // sit this job out.
        let admitted = core
            .budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok();
        if admitted {
            core.run();
        }
    }
}

/// Consecutive crashes after which a worker slot is no longer respawned.
///
/// Each crash-and-respawn cycle increments the slot's counter; reaching
/// this bound marks the slot quarantined. The pool keeps working at
/// reduced width (the caller always participates in broadcasts).
pub const QUARANTINE_AFTER: u32 = 3;

/// Default quiet window after which a healed slot's strike counter
/// resets (see [`ThreadPool::set_strike_window`]).
pub const DEFAULT_STRIKE_WINDOW: Duration = Duration::from_secs(60);

/// One worker slot: the live handle plus its crash-recovery history.
struct WorkerSlot {
    /// `None` while quarantined (or mid-reap).
    handle: Option<JoinHandle<()>>,
    id: ThreadId,
    /// Consecutive crashes observed on this slot inside the strike
    /// window; reset by [`ThreadPool::heal`] once a respawned worker
    /// stays alive for the whole window.
    respawns: u32,
    /// When this slot's most recent crash was reaped.
    last_crash: Option<Instant>,
    quarantined: bool,
}

fn spawn_worker(index: usize, shared: Arc<Shared>) -> JoinHandle<()> {
    thread::Builder::new()
        // lint:allow(L005): worker naming at construction/respawn only.
        .name(format!("pool-worker-{index}"))
        .spawn(move || worker_loop(shared))
        .expect("failed to spawn pool worker")
}

/// A share of a [`ThreadPool::broadcast_caught`] panicked; the first
/// captured payload, rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastError {
    /// The panic payload as a string (see
    /// [`resilience::retry::panic_message`]).
    pub message: String,
}

impl std::fmt::Display for BroadcastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "broadcast share panicked: {}", self.message)
    }
}

impl std::error::Error for BroadcastError {}

/// Liveness snapshot reported by [`ThreadPool::health`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Worker count the pool was constructed with.
    pub configured_workers: usize,
    /// Workers currently alive (spawned and not finished).
    pub live_workers: usize,
    /// Slots retired after [`QUARANTINE_AFTER`] crashes.
    pub quarantined_workers: usize,
    /// Total crash-respawns over the pool's lifetime.
    pub respawned_total: u64,
    /// Process-wide poisoned-lock recoveries ([`audit::poison_recoveries`]).
    pub poison_recoveries: u64,
}

/// A persistent pool of worker threads (see module docs for the
/// spawn-once contract, crash recovery, and execution model).
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<WorkerSlot>>,
    /// Worker count at construction; `width` stays stable across respawns
    /// and quarantines so kernel strategy resolution is deterministic.
    configured: usize,
    respawned: AtomicU64,
    /// Strike-reset quiet window in milliseconds (see
    /// [`ThreadPool::set_strike_window`]).
    strike_window_ms: AtomicU64,
    /// Serializes broadcasts: the single job slot holds one job at a time.
    submit: Mutex<()>,
    scratch: ScratchArena,
}

impl ThreadPool {
    /// Spawns a pool with `workers` worker threads. Total parallelism of a
    /// full-width broadcast is `workers + 1` because the caller always
    /// participates; `ThreadPool::new(0)` is valid and purely sequential.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
        });
        // lint:allow(L005): pool construction — runs once per process
        // under the spawn-once contract, never on the broadcast path.
        let mut slots = Vec::with_capacity(workers);
        for i in 0..workers {
            let handle = spawn_worker(i, Arc::clone(&shared));
            slots.push(WorkerSlot {
                id: handle.thread().id(),
                handle: Some(handle),
                respawns: 0,
                last_crash: None,
                quarantined: false,
            });
        }
        ThreadPool {
            shared,
            workers: Mutex::new(slots),
            configured: workers,
            respawned: AtomicU64::new(0),
            strike_window_ms: AtomicU64::new(DEFAULT_STRIKE_WINDOW.as_millis() as u64),
            submit: Mutex::new(()),
            scratch: ScratchArena::new(),
        }
    }

    /// Maximum parallelism of a broadcast: configured workers plus the
    /// caller. Stable across crash recovery.
    pub fn width(&self) -> usize {
        self.configured + 1
    }

    /// `ThreadId`s of the current workers, in slot order. Stable for the
    /// pool's lifetime except across crash respawns — the basis of the
    /// spawn-once test.
    pub fn worker_ids(&self) -> Vec<ThreadId> {
        audit::recover("pool.workers", &self.workers)
            .iter()
            .map(|w| w.id)
            // lint:allow(L005): diagnostic accessor, not on the broadcast path.
            .collect()
    }

    /// Reusable zeroed scratch storage owned by the pool.
    pub fn scratch(&self) -> &ScratchArena {
        &self.scratch
    }

    /// Reap worker threads that died (a panic escaped the share-level
    /// `catch_unwind`) and respawn them on the same slot, quarantining
    /// slots that crashed [`QUARANTINE_AFTER`] times. Returns how many
    /// workers were respawned by this call.
    ///
    /// Runs automatically at the start of every published broadcast; the
    /// per-call cost when nothing died is one `is_finished` check (an
    /// atomic load) per slot.
    pub fn heal(&self) -> usize {
        let window = Duration::from_millis(self.strike_window_ms.load(Ordering::Relaxed));
        let mut workers = audit::recover("pool.workers", &self.workers);
        let mut respawned = 0;
        for (index, slot) in workers.iter_mut().enumerate() {
            if slot.quarantined || !slot.handle.as_ref().is_some_and(JoinHandle::is_finished) {
                // A healed slot whose replacement has stayed alive for
                // the whole quiet window has proven itself: forget its
                // strikes so an unrelated crash much later does not
                // inherit them toward quarantine.
                if !slot.quarantined
                    && slot.respawns > 0
                    && slot.last_crash.is_some_and(|at| at.elapsed() >= window)
                {
                    slot.respawns = 0;
                    slot.last_crash = None;
                }
                continue;
            }
            let Some(handle) = slot.handle.take() else {
                continue;
            };
            if handle.join().is_ok() {
                // Clean exit: only happens at shutdown; leave the slot.
                continue;
            }
            // Crashes separated by more than the quiet window are treated
            // as independent incidents, not a crash loop.
            if slot.last_crash.is_some_and(|at| at.elapsed() >= window) {
                slot.respawns = 0;
            }
            slot.respawns += 1;
            slot.last_crash = Some(Instant::now());
            self.respawned.fetch_add(1, Ordering::Relaxed);
            if slot.respawns >= QUARANTINE_AFTER {
                slot.quarantined = true;
                continue;
            }
            // Crash-recovery path: runs only after a worker death, never
            // on a healthy broadcast.
            let handle = spawn_worker(index, Arc::clone(&self.shared));
            slot.id = handle.thread().id();
            slot.handle = Some(handle);
            respawned += 1;
        }
        respawned
    }

    /// Sets the strike-reset quiet window: a healed slot that stays alive
    /// this long (and any crash arriving after this long of quiet) has
    /// its consecutive-crash counter reset, so only genuine crash *loops*
    /// reach [`QUARANTINE_AFTER`]. Defaults to [`DEFAULT_STRIKE_WINDOW`].
    pub fn set_strike_window(&self, window: Duration) {
        self.strike_window_ms
            .store(window.as_millis() as u64, Ordering::Relaxed);
    }

    /// Per-slot consecutive-crash counters (test and diagnostics hook).
    pub fn strikes(&self) -> Vec<u32> {
        audit::recover("pool.workers", &self.workers)
            .iter()
            .map(|w| w.respawns)
            // lint:allow(L005): diagnostic accessor, not on the broadcast path.
            .collect()
    }

    /// Liveness and crash-recovery counters for this pool.
    pub fn health(&self) -> PoolHealth {
        let workers = audit::recover("pool.workers", &self.workers);
        PoolHealth {
            configured_workers: self.configured,
            live_workers: workers
                .iter()
                .filter(|w| w.handle.as_ref().is_some_and(|h| !h.is_finished()))
                .count(),
            quarantined_workers: workers.iter().filter(|w| w.quarantined).count(),
            respawned_total: self.respawned.load(Ordering::Relaxed),
            poison_recoveries: audit::poison_recoveries(),
        }
    }

    /// Shared implementation of [`broadcast`](Self::broadcast) /
    /// [`broadcast_caught`](Self::broadcast_caught): runs all shares,
    /// returns the first captured panic payload instead of re-raising.
    fn broadcast_impl<F: Fn(usize) + Sync>(
        &self,
        executors: usize,
        shares: usize,
        task: F,
    ) -> Option<Box<dyn Any + Send + 'static>> {
        if shares == 0 {
            return None;
        }
        let executors = executors.clamp(1, self.width());
        if executors == 1 || shares == 1 || self.configured == 0 {
            // Inline fast path: no publication, no synchronization.
            let mut first_panic = None;
            for share in 0..shares {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                    // lint:allow(L008): inside catch_unwind, mirrors the
                    // published path's share-level injection site.
                    resilience::fault_point!("pool.share");
                    task(share)
                })) {
                    first_panic.get_or_insert(p);
                }
            }
            return first_panic;
        }

        let erased: &(dyn Fn(usize) + Sync) = &task;
        let erased: &'static (dyn Fn(usize) + Sync + 'static) =
            // SAFETY: lifetime erasure — `core.task` is dereferenced by
            // workers only while claiming shares, which is impossible once
            // `finished == shares`; `wait_done` below blocks this frame until
            // then, so `task` outlives every dereference.
            unsafe { std::mem::transmute(erased) };
        let core = Arc::new(JobCore {
            task: TaskPtr(erased as *const (dyn Fn(usize) + Sync)),
            shares,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            budget: AtomicUsize::new(executors - 1),
            panic: Mutex::new(None),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
        });

        let _submit = audit::recover("pool.submit", &self.submit);
        self.heal();
        {
            let mut slot = self.shared.lock();
            slot.generation += 1;
            slot.job = Some(Arc::clone(&core));
            self.shared.job_ready.notify_all();
        }

        core.run(); // the caller is always one of the executors
        core.wait_done();

        {
            let mut slot = self.shared.lock();
            slot.job = None; // drop the erased pointer with the job
        }

        let payload = {
            let mut slot = audit::recover("pool.job_panic", &core.panic);
            slot.take()
        };
        drop(_submit);
        payload
    }

    /// Runs `task(share)` for every `share` in `0..shares` across at most
    /// `executors` threads (the caller plus up to `executors - 1` workers),
    /// blocking until all shares finish.
    ///
    /// Shares are claimed dynamically, so callers should size them at the
    /// granularity they would hand to [`DynamicCounter`] — e.g. one share
    /// per vertex chunk or feature tile.
    ///
    /// # Panics
    ///
    /// If any share panics, the first captured payload is re-raised here
    /// after all shares have completed. The pool remains usable.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, executors: usize, shares: usize, task: F) {
        if let Some(p) = self.broadcast_impl(executors, shares, task) {
            resume_unwind(p);
        }
    }

    /// Like [`broadcast`](Self::broadcast), but a panicking share yields a
    /// typed [`BroadcastError`] instead of re-raising the payload — the
    /// entry point for callers that retry or degrade rather than unwind.
    pub fn broadcast_caught<F: Fn(usize) + Sync>(
        &self,
        executors: usize,
        shares: usize,
        task: F,
    ) -> Result<(), BroadcastError> {
        match self.broadcast_impl(executors, shares, task) {
            None => Ok(()),
            Some(p) => Err(BroadcastError {
                message: resilience::retry::panic_message(p.as_ref()),
            }),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.lock();
            slot.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        let workers = audit::recover_mut("pool.drop", &mut self.workers);
        for slot in workers.iter_mut() {
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Returns the process-wide pool, created on first use with
/// `available_parallelism() - 1` workers (the caller supplies the final
/// executor). Subsequent calls — and therefore all kernel invocations —
/// reuse the same threads.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let width = thread::available_parallelism().map_or(4, |n| n.get());
        ThreadPool::new(width.saturating_sub(1))
    })
}

/// Pool-owned reusable scratch storage.
///
/// The edge-parallel SpMM needs an `n * k` array of `AtomicU32` f32-bit
/// accumulators per call; allocating it each time dominates small-K runs.
/// The arena keeps the high-water-mark buffer alive across calls and hands
/// out zeroed views. Concurrent borrowers fall back to a fresh allocation
/// rather than blocking (the buffer is returned to the arena only if it is
/// larger than what is cached).
#[derive(Default)]
pub struct ScratchArena {
    u32_buf: Mutex<Vec<AtomicU32>>,
    f32_buf: Mutex<Vec<f32>>,
}

/// Alignment (bytes) guaranteed for slices handed out by
/// [`ScratchArena::with_f32`]: one cache line, which also covers every SIMD
/// vector width the micro-kernels use (32 B for AVX2).
pub const SCRATCH_ALIGN: usize = 64;

/// `SCRATCH_ALIGN` expressed in `f32` elements.
const SCRATCH_ALIGN_F32S: usize = SCRATCH_ALIGN / size_of::<f32>();

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Calls `f` with a zeroed `&[AtomicU32]` of length `len`, reusing the
    /// cached buffer when possible.
    pub fn with_zeroed_u32<R>(&self, len: usize, f: impl FnOnce(&[AtomicU32]) -> R) -> R {
        let mut buf = {
            let mut cached = audit::recover("pool.scratch_u32", &self.u32_buf);
            std::mem::take(&mut *cached)
        };
        for a in buf.iter_mut() {
            *a.get_mut() = 0;
        }
        if buf.len() < len {
            buf.reserve(len - buf.len());
            while buf.len() < len {
                buf.push(AtomicU32::new(0));
            }
        }
        let result = f(&buf[..len]);
        let mut cached = audit::recover("pool.scratch_u32", &self.u32_buf);
        if cached.len() < buf.len() {
            *cached = buf;
        }
        result
    }

    /// Calls `f` with a `&mut [f32]` of length `len` whose first element is
    /// aligned to [`SCRATCH_ALIGN`] bytes, reusing the cached buffer when
    /// possible. The slice's **contents are unspecified** (stale values from
    /// earlier borrowers): callers must write before reading — the GEMM
    /// panel-packing routines, which fully overwrite every region they later
    /// read, are the intended consumers. Concurrent borrowers fall back to a
    /// fresh allocation rather than blocking.
    pub fn with_f32<R>(&self, len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        let mut buf = {
            let mut cached = audit::recover("pool.scratch_f32", &self.f32_buf);
            std::mem::take(&mut *cached)
        };
        // Over-allocate by one alignment quantum so an aligned window of
        // `len` elements always exists, then locate it in safe code. A `Vec`
        // never moves its allocation unless it grows, so the offset computed
        // here stays valid for the borrow below.
        let need = len + SCRATCH_ALIGN_F32S;
        if buf.len() < need {
            buf.resize(need, 0.0);
        }
        let misalign = (buf.as_ptr() as usize) % SCRATCH_ALIGN;
        // `Vec<f32>` allocations are at least 4-byte aligned, so the byte
        // distance to the next 64-byte boundary is an exact element count.
        let offset = ((SCRATCH_ALIGN - misalign) % SCRATCH_ALIGN) / size_of::<f32>();
        let result = f(&mut buf[offset..offset + len]);
        let mut cached = audit::recover("pool.scratch_f32", &self.f32_buf);
        if cached.len() < buf.len() {
            *cached = buf;
        }
        result
    }

    /// Capacity (in `u32` slots) currently cached by the arena.
    pub fn cached_len(&self) -> usize {
        audit::recover("pool.scratch_u32", &self.u32_buf).len()
    }

    /// Capacity (in `f32` slots) currently cached by the arena.
    pub fn cached_f32_len(&self) -> usize {
        audit::recover("pool.scratch_f32", &self.f32_buf).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::fault::{self, FaultConfig, FaultKind};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn dynamic_counter_covers_range_exactly_once() {
        let c = DynamicCounter::new();
        let mut seen = [false; 103];
        while let Some((s, e)) = c.claim(8, 103) {
            for (i, slot) in seen.iter_mut().enumerate().take(e).skip(s) {
                assert!(!std::mem::replace(slot, true), "index {i} claimed twice");
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn broadcast_runs_every_share_exactly_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(4, hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "wall-clock concurrency observation; minutes under the interpreter"
    )]
    fn broadcast_observes_executor_cap() {
        let pool = ThreadPool::new(7);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.broadcast(2, 64, |_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(1));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "5×256 timed shares; thread-identity claim needs no interpreter"
    )]
    fn pool_reuses_same_threads() {
        // Fires nowhere, but holds the process-wide arm lock: a neighbour's
        // `pool.worker` kills cannot replace this pool's threads.
        let _quiet = fault::arm(FaultConfig::new(0));
        let pool = ThreadPool::new(4);
        let observe = || {
            let ids = Mutex::new(HashSet::new());
            pool.broadcast(pool.width(), 256, |_| {
                thread::sleep(Duration::from_micros(50));
                ids.lock().unwrap().insert(thread::current().id());
            });
            ids.into_inner().unwrap()
        };
        let spawned: HashSet<ThreadId> = pool.worker_ids().iter().copied().collect();
        let mut caller_plus_spawned = spawned.clone();
        caller_plus_spawned.insert(thread::current().id());
        for _ in 0..5 {
            let seen = observe();
            assert!(
                seen.is_subset(&caller_plus_spawned),
                "broadcast ran on a thread that was not spawned at pool construction"
            );
        }
    }

    #[test]
    fn pool_survives_a_panicking_share() {
        let pool = ThreadPool::new(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(4, 32, |i| {
                if i == 7 {
                    panic!("share 7 exploded");
                }
            });
        }));
        assert!(r.is_err(), "panic payload must reach the caller");
        // All workers must still be alive and serving broadcasts.
        let hits = AtomicUsize::new(0);
        pool.broadcast(4, 100, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn broadcast_caught_returns_typed_error() {
        let pool = ThreadPool::new(2);
        let err = pool
            .broadcast_caught(3, 16, |i| {
                if i == 3 {
                    panic!("typed failure {i}");
                }
            })
            .unwrap_err();
        assert!(err.message.contains("typed failure 3"), "{err}");
        // And a clean broadcast afterwards succeeds.
        pool.broadcast_caught(3, 16, |_| {}).unwrap();
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "deadline-polling respawn drill; real-time waits stall under miri"
    )]
    fn dead_workers_are_respawned_on_the_same_slots() {
        let pool = ThreadPool::new(3);
        let before: HashSet<ThreadId> = pool.worker_ids().into_iter().collect();
        {
            let _quiet = resilience::retry::quiet_panics();
            let _armed =
                fault::arm(FaultConfig::new(9).point("pool.worker", FaultKind::Panic, 1.0));
            // Workers die at the injection site; the caller still completes
            // every share. Shares are slowed down so the workers actually
            // wake up and reach the injection site before the caller
            // drains the whole job.
            let hits = AtomicUsize::new(0);
            pool.broadcast(pool.width(), 64, |_| {
                thread::sleep(Duration::from_millis(1));
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        }
        // Wait for the kills to land, then heal and verify replacements.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut respawned = 0;
        while respawned == 0 && Instant::now() < deadline {
            respawned = pool.heal();
            thread::sleep(Duration::from_millis(5));
        }
        assert!(respawned > 0, "no worker was respawned");
        let health = pool.health();
        assert_eq!(health.configured_workers, 3);
        assert!(health.respawned_total >= respawned as u64);
        let after: HashSet<ThreadId> = pool.worker_ids().into_iter().collect();
        assert_ne!(before, after, "respawned workers must be new threads");
        // The healed pool serves broadcasts on its new workers.
        let hits = AtomicUsize::new(0);
        pool.broadcast(pool.width(), 128, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 128);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "deadline-polling quarantine drill; real-time waits stall under miri"
    )]
    fn crashing_slots_are_quarantined_after_bound() {
        let pool = ThreadPool::new(1);
        let _quiet = resilience::retry::quiet_panics();
        let _armed = fault::arm(FaultConfig::new(3).point("pool.worker", FaultKind::Panic, 1.0));
        // Every published broadcast kills the (re)spawned worker; heal on
        // the next broadcast reaps it. After QUARANTINE_AFTER crashes the
        // slot must stop being respawned.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.health().quarantined_workers == 0 && Instant::now() < deadline {
            pool.broadcast(pool.width(), 8, |_| {});
            thread::sleep(Duration::from_millis(2));
            pool.heal();
        }
        let health = pool.health();
        assert_eq!(
            health.quarantined_workers, 1,
            "slot not quarantined: {health:?}"
        );
        assert_eq!(health.respawned_total, u64::from(QUARANTINE_AFTER));
        // Still fully functional through the caller.
        let hits = AtomicUsize::new(0);
        pool.broadcast(pool.width(), 32, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "deadline-polling strike drill; real-time waits stall under miri"
    )]
    fn quiet_window_resets_strikes_after_successful_heal() {
        let pool = ThreadPool::new(1);
        pool.set_strike_window(Duration::from_millis(50));
        let _quiet = resilience::retry::quiet_panics();
        // Kill the worker QUARANTINE_AFTER + 1 times, but let each healed
        // replacement survive past the quiet window before the next kill:
        // strikes reset between incidents, so the slot never quarantines.
        for round in 0..=QUARANTINE_AFTER {
            {
                let _armed =
                    fault::arm(FaultConfig::new(9).point("pool.worker", FaultKind::Panic, 1.0));
                pool.broadcast(pool.width(), 64, |_| {
                    thread::sleep(Duration::from_millis(1));
                });
            }
            // Reap the crash, respawn the slot.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut respawned = 0;
            while respawned == 0 && Instant::now() < deadline {
                respawned = pool.heal();
                thread::sleep(Duration::from_millis(2));
            }
            assert!(respawned > 0, "round {round}: worker was not respawned");
            assert_eq!(pool.strikes(), vec![1], "round {round}: one fresh strike");
            // Survive the quiet window, then heal again: strike forgotten.
            thread::sleep(Duration::from_millis(60));
            pool.heal();
            assert_eq!(pool.strikes(), vec![0], "round {round}: strike reset");
        }
        let health = pool.health();
        assert_eq!(health.quarantined_workers, 0, "no crash loop: {health:?}");
        assert_eq!(
            health.respawned_total,
            u64::from(QUARANTINE_AFTER) + 1,
            "every incident respawned the slot"
        );
    }

    #[test]
    fn sequential_pool_still_works() {
        let pool = ThreadPool::new(0);
        let sum = AtomicUsize::new(0);
        pool.broadcast(1, 10, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn zero_shares_is_a_noop() {
        let pool = ThreadPool::new(2);
        pool.broadcast(3, 0, |_| panic!("must not run"));
    }

    #[test]
    fn scratch_arena_reuses_buffer_and_zeroes() {
        let arena = ScratchArena::new();
        arena.with_zeroed_u32(64, |s| {
            for a in s {
                a.store(0xDEAD_BEEF, Ordering::Relaxed);
            }
        });
        assert_eq!(arena.cached_len(), 64);
        arena.with_zeroed_u32(32, |s| {
            assert!(s.iter().all(|a| a.load(Ordering::Relaxed) == 0));
        });
        // Growing keeps the larger buffer cached.
        arena.with_zeroed_u32(128, |s| assert_eq!(s.len(), 128));
        assert_eq!(arena.cached_len(), 128);
    }

    #[test]
    fn f32_scratch_is_aligned_and_reused() {
        let arena = ScratchArena::new();
        arena.with_f32(100, |s| {
            assert_eq!(s.len(), 100);
            assert_eq!(s.as_ptr() as usize % SCRATCH_ALIGN, 0, "not 64B-aligned");
            s.fill(3.25);
        });
        assert!(arena.cached_f32_len() >= 100);
        // A second borrow reuses the cached buffer and stays aligned; the
        // contents are unspecified, so only alignment and length are pinned.
        arena.with_f32(64, |s| {
            assert_eq!(s.len(), 64);
            assert_eq!(s.as_ptr() as usize % SCRATCH_ALIGN, 0);
        });
        // Growing works and keeps the larger buffer cached.
        arena.with_f32(5000, |s| assert_eq!(s.len(), 5000));
        assert!(arena.cached_f32_len() >= 5000);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        global().broadcast(global().width(), 16, |_| {});
    }
}
