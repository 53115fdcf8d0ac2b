//! Persistent work-sharing thread pool for the parallel kernels.
//!
//! # Spawn-once contract
//!
//! A [`ThreadPool`] spawns its worker threads **once**, at construction.
//! Every subsequent [`ThreadPool::broadcast`] reuses those same OS threads;
//! no kernel invocation ever spawns a thread, and nothing ever replaces a
//! worker. The global pool returned by [`global`] is created on first use
//! and lives for the remainder of the process, so in steady state the only
//! threads in the system are the caller and the pool's workers. The
//! `pool_reuses_same_threads` test pins this down by intersecting observed
//! `ThreadId`s across repeated broadcasts.
//!
//! # Execution model
//!
//! [`ThreadPool::broadcast`] publishes a job of `shares` independent units
//! of work. Workers (and the calling thread, which always participates)
//! repeatedly claim the next unclaimed share index from an atomic counter
//! and run the job closure on it. Dynamic claiming is what gives the
//! vertex-parallel SpMM its load balance on power-law graphs (Section II-C
//! of the PIUMA GCN paper): a worker stuck on a hub row simply claims
//! fewer shares.
//!
//! A broadcast may cap its parallelism below the pool width (the
//! `executors` argument), letting kernels honour a `threads` parameter
//! smaller than the machine without re-creating pools.
//!
//! # Panics
//!
//! Every share runs under `catch_unwind`, so a panicking share never ends
//! a worker: the payload is captured, remaining shares still run, and the
//! first payload is re-raised on the **calling** thread after the
//! broadcast completes. The pool stays fully usable afterwards. Locks
//! poisoned by panicking shares are recovered — and the recovery logged —
//! through [`resilience::audit`].
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
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle, ThreadId};

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

/// A persistent pool of worker threads (see module docs for the
/// spawn-once contract and execution model).
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Spawned at construction, joined on drop; never replaced.
    workers: Vec<JoinHandle<()>>,
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
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    // lint:allow(L005): worker naming at construction only.
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool worker")
            })
            // lint:allow(L005): pool construction — runs once per process
            // under the spawn-once contract, never on the broadcast path.
            .collect();
        ThreadPool {
            shared,
            workers,
            submit: Mutex::new(()),
            scratch: ScratchArena::new(),
        }
    }

    /// Maximum parallelism of a broadcast: the workers plus the caller.
    pub fn width(&self) -> usize {
        self.workers.len() + 1
    }

    /// `ThreadId`s of the workers, in spawn order. Fixed for the pool's
    /// lifetime — the basis of the spawn-once test.
    pub fn worker_ids(&self) -> Vec<ThreadId> {
        self.workers
            .iter()
            .map(|h| h.thread().id())
            // lint:allow(L005): diagnostic accessor, not on the broadcast path.
            .collect()
    }

    /// Reusable zeroed scratch storage owned by the pool.
    pub fn scratch(&self) -> &ScratchArena {
        &self.scratch
    }

    /// Runs `task(share)` for every `share` in `0..shares` across at most
    /// `executors` threads (the caller plus up to `executors - 1` workers),
    /// blocking until all shares finish.
    ///
    /// Shares are claimed dynamically, so callers should size them at the
    /// granularity of the load balance they want — e.g. one share per
    /// vertex chunk or feature tile.
    ///
    /// # Panics
    ///
    /// If any share panics, the first captured payload is re-raised here
    /// after all shares have completed. The pool remains usable.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, executors: usize, shares: usize, task: F) {
        if shares == 0 {
            return;
        }
        let executors = executors.clamp(1, self.width());
        if executors == 1 || shares == 1 || self.workers.is_empty() {
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
            if let Some(p) = first_panic {
                resume_unwind(p);
            }
            return;
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

        let submit = audit::recover("pool.submit", &self.submit);
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
        // Release the submit lock before unwinding so it is not poisoned.
        drop(submit);
        if let Some(p) = payload {
            resume_unwind(p);
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
        for handle in self.workers.drain(..) {
            let _ = handle.join();
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
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

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
