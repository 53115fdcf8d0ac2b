//! The shard execution hot loop: a dependency-counting task-graph
//! executor over the shared worker pool, plus the copy kernels every
//! sharded layer schedules — halo gather, row-block staging and scatter.
//!
//! "Kernel on shard" and "halo exchange" are both just task IDs here. A
//! [`TaskGraph`] is a static DAG (one `exchange(b) → compute(b)` edge per
//! row block); [`TaskGraph::run_tracked`] drains it with the pool's workers
//! using a shared ready queue and per-task dependency counters, so shards
//! whose halos arrive early start aggregating while other shards are still
//! exchanging — the same overlap a PIUMA node gets from its hardware DMA
//! engines. A task body that panics poisons the run: its dependents are
//! never released, every worker drains out, and the caller gets a
//! [`RunTrace`] naming the failure instead of a deadlock.

// BOUNDS: all `[]` indexing in this module is over vectors sized in
// lock-step with the task count at graph construction (`dependents` and
// `indegree` are `tasks` long and task IDs only ever come from those
// structures), or over rows the partition layer validated when it built
// the shard-local CSR (`refs` entries are in-range columns of the source
// matrix).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

use matrix::DenseMatrix;

/// The first panic observed during a tracked run: which task it hit (if
/// attributable) and the rendered panic payload, so supervision layers can
/// turn it into a typed shard-down event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// The failing task's ID, or `None` when the panic surfaced on the
    /// caller instead of inside a task body (a pool worker-share panic
    /// re-raised by `broadcast` after the run drained).
    pub task: Option<usize>,
    /// The panic payload rendered to text (fault-site string for injected
    /// panics).
    pub message: String,
}

/// Per-task completion record of one [`TaskGraph::run_tracked`] call.
///
/// Recovery layers use the `done` flags to re-execute exactly the tasks a
/// poisoned run withheld: every completed task's outputs are still in its
/// stage/row buffers, so replaying the incomplete suffix from those
/// buffers reproduces the fault-free result bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTrace {
    /// `done[t]` is true iff task `t` ran to completion (its body returned
    /// without panicking).
    pub done: Vec<bool>,
    /// The first panic observed, if any (dependents of the failing task
    /// were withheld).
    pub failure: Option<TaskFailure>,
    /// Tasks that never completed (failed, withheld, or unreleasable).
    pub remaining: usize,
}

/// Mutable frontier of one [`TaskGraph::run_tracked`] call.
struct RunState {
    ready: VecDeque<usize>,
    indegree: Vec<usize>,
    done: Vec<bool>,
    remaining: usize,
    running: usize,
    failed: Option<TaskFailure>,
    stalled: usize,
}

/// A static task DAG scheduled over the worker pool.
///
/// Nodes are `0..tasks`; edges say "dependent cannot start before
/// dependency finishes". The graph itself is immutable during a run, so
/// one graph built per layer shape is reused across inference calls.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    dependents: Vec<Vec<usize>>,
    indegree: Vec<usize>,
}

impl TaskGraph {
    /// An edgeless graph of `tasks` nodes (all immediately ready).
    pub fn new(tasks: usize) -> TaskGraph {
        TaskGraph {
            // lint:allow(L005): graph construction, paid once per layer
            // shape and reused across every inference call.
            dependents: vec![Vec::new(); tasks],
            // lint:allow(L005): graph construction, paid once per layer.
            indegree: vec![0; tasks],
        }
    }

    /// Declares that `task` cannot start until `dep` has finished.
    pub fn add_dep(&mut self, task: usize, dep: usize) {
        debug_assert!(task < self.indegree.len() && dep < self.indegree.len());
        debug_assert_ne!(task, dep, "a task cannot depend on itself");
        self.dependents[dep].push(task);
        self.indegree[task] += 1;
    }

    /// Number of tasks in the graph.
    pub fn tasks(&self) -> usize {
        self.indegree.len()
    }

    /// Drains the graph with up to `workers` pool lanes, calling
    /// `run_task(id)` exactly once per task, dependencies before
    /// dependents, and blocks until every task ran or the run poisoned.
    ///
    /// Returns the per-task completion trace — which tasks completed, which
    /// panic poisoned the run (with its rendered payload and task ID), and
    /// how many tasks never completed: the raw material for task-level
    /// recovery. A dependency cycle shows as `remaining > 0` with no
    /// failure. A pool worker-share panic that re-raises on the caller is
    /// captured as a [`TaskFailure`] with no task ID rather than
    /// unwinding. Either way the pool stays healthy.
    pub fn run_tracked<F: Fn(usize) + Sync>(&self, workers: usize, run_task: F) -> RunTrace {
        let total = self.indegree.len();
        if total == 0 {
            return RunTrace {
                // lint:allow(L005): empty-graph early return, no tasks.
                done: Vec::new(),
                failure: None,
                remaining: 0,
            };
        }
        let mut ready = VecDeque::with_capacity(total);
        for (t, &d) in self.indegree.iter().enumerate() {
            if d == 0 {
                ready.push_back(t);
            }
        }
        let state = Mutex::new(RunState {
            ready,
            indegree: self.indegree.clone(),
            // lint:allow(L005): per-run completion flags, one bool per
            // task — the allocation recovery tracking exists to serve.
            done: vec![false; total],
            remaining: total,
            running: 0,
            failed: None,
            stalled: 0,
        });
        let done = Condvar::new();
        let lanes = workers.clamp(1, pool::global().width());

        let shared = catch_unwind(AssertUnwindSafe(|| {
            pool::global().broadcast(lanes, lanes, |_lane| loop {
                let task = {
                    let mut st = lock(&state);
                    loop {
                        if st.failed.is_some() || st.stalled > 0 || st.remaining == 0 {
                            return;
                        }
                        if let Some(t) = st.ready.pop_front() {
                            st.running += 1;
                            break t;
                        }
                        if st.running == 0 {
                            // Nothing ready, nothing running, tasks
                            // pending: the graph cannot make progress.
                            st.stalled = st.remaining;
                            done.notify_all();
                            return;
                        }
                        st = wait(&done, st);
                    }
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| run_task(task)));
                let mut st = lock(&state);
                st.running -= 1;
                match outcome {
                    Ok(()) => {
                        st.remaining -= 1;
                        st.done[task] = true;
                        for &d in &self.dependents[task] {
                            st.indegree[d] -= 1;
                            if st.indegree[d] == 0 {
                                st.ready.push_back(d);
                            }
                        }
                    }
                    Err(payload) => {
                        // Withhold the dependents; every waiter drains
                        // out. Keep the first failure only.
                        if st.failed.is_none() {
                            st.failed = Some(TaskFailure {
                                task: Some(task),
                                message: resilience::retry::panic_message(payload.as_ref()),
                            });
                        }
                    }
                }
                if st.failed.is_some()
                    || st.remaining == 0
                    || !st.ready.is_empty()
                    || st.running == 0
                {
                    done.notify_all();
                }
            });
        }));

        let mut st = resilience::audit::recover_into("shard.exec.final", state);
        if let Err(payload) = shared {
            // A worker-share panic re-raised on the caller after the
            // broadcast drained; no task is attributable, but the run is
            // poisoned all the same (some task bodies may never have run).
            st.failed.get_or_insert(TaskFailure {
                task: None,
                message: resilience::retry::panic_message(payload.as_ref()),
            });
        }
        RunTrace {
            done: st.done,
            failure: st.failed,
            remaining: st.remaining,
        }
    }
}

/// Locks ignoring poisoning: the executor's own catch_unwind keeps task
/// panics from unwinding through a held guard, and a poisoned frontier is
/// discarded at the end of the run anyway. Routed through the audit
/// helpers so any recovery still shows up in the recovery log.
fn lock<'m>(state: &'m Mutex<RunState>) -> MutexGuard<'m, RunState> {
    resilience::audit::recover("shard.exec.state", state)
}

/// [`Condvar::wait`] ignoring poisoning (see [`lock`]).
fn wait<'m>(cv: &Condvar, guard: MutexGuard<'m, RunState>) -> MutexGuard<'m, RunState> {
    resilience::audit::recover_wait("shard.exec.wait", cv, guard)
}

/// The halo-exchange copy kernel: stages the feature rows listed in `refs`
/// (global row IDs of `src`) into the dense `stage` buffer, one staged row
/// per reference, in ascending reference order. Models a PIUMA node
/// DMA-gathering remote rows from the distributed global address space
/// into a local landing buffer; the explicit copy is what makes the
/// communication volume measurable. Returns the bytes staged.
///
/// Idempotent by construction (pure copy into an exclusively-held buffer),
/// so callers retry it verbatim when the fault injector fires.
pub fn gather_rows(stage: &mut DenseMatrix, src: &DenseMatrix, refs: &[u32]) -> u64 {
    // lint:allow(L008): disabled fault points compile to one static bool
    // load per exchange task (not per row), far below the copy cost.
    resilience::fault_point!("shard.exchange");
    let width = src.cols();
    stage.resize_for_overwrite(refs.len(), width);
    for (slot, &g) in refs.iter().enumerate() {
        stage.row_mut(slot).copy_from_slice(src.row(g as usize));
    }
    (refs.len() * width * 4) as u64
}

/// Stages the contiguous global row range `r0..r1` of `src` into `dst`
/// (row `g` lands in local slot `g - r0`): the hidden-state staging copy a
/// PIUMA node performs before a dense sub-GEMM, made explicit so the
/// staged traffic is measurable and the fault injector can reach it.
/// Returns the bytes staged.
///
/// Idempotent by construction (pure copy into an exclusively-held buffer),
/// so callers retry it verbatim when the fault injector fires.
pub fn stage_block(dst: &mut DenseMatrix, src: &DenseMatrix, r0: usize, r1: usize) -> u64 {
    // lint:allow(L008): disabled fault points compile to one static bool
    // load per staging task (not per row), far below the copy cost.
    resilience::fault_point!("shard.stage");
    let width = src.cols();
    dst.resize_for_overwrite(r1 - r0, width);
    for (lu, g) in (r0..r1).enumerate() {
        dst.row_mut(lu).copy_from_slice(src.row(g));
    }
    ((r1 - r0) * width * 4) as u64
}

/// The inverse copy of [`stage_block`]: scatters the local rows of `src`
/// back to the global row range `r0..r1` of `dst` (local slot `g - r0`
/// lands in row `g`). `dst` must already be sized; only the target range
/// is written. Returns the bytes scattered.
///
/// Idempotent by construction (pure copy into an exclusively-held row
/// range), so callers retry it verbatim when the fault injector fires.
pub fn scatter_block(dst: &mut DenseMatrix, src: &DenseMatrix, r0: usize, r1: usize) -> u64 {
    // lint:allow(L008): disabled fault points compile to one static bool
    // load per scatter task (not per row), far below the copy cost.
    resilience::fault_point!("shard.scatter");
    let width = src.cols();
    for (lu, g) in (r0..r1).enumerate() {
        dst.row_mut(g).copy_from_slice(src.row(lu));
    }
    ((r1 - r0) * width * 4) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_graph_is_a_noop() {
        let g = TaskGraph::new(0);
        let trace = g.run_tracked(4, |_| {});
        assert_eq!((trace.remaining, trace.failure), (0, None));
    }

    #[test]
    fn runs_every_task_exactly_once_in_dependency_order() {
        // Chain 0 -> 1 -> 2 plus a free task 3.
        let mut g = TaskGraph::new(4);
        g.add_dep(1, 0);
        g.add_dep(2, 1);
        let order = Mutex::new(Vec::new());
        let trace = g.run_tracked(4, |t| order.lock().unwrap().push(t));
        assert!(trace.done.iter().all(|&d| d));
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn diamond_joins_wait_for_both_parents() {
        // 0 -> {1, 2} -> 3, many times to shake out races.
        for _ in 0..50 {
            let mut g = TaskGraph::new(4);
            g.add_dep(1, 0);
            g.add_dep(2, 0);
            g.add_dep(3, 1);
            g.add_dep(3, 2);
            let hits = AtomicUsize::new(0);
            let trace = g.run_tracked(4, |t| {
                if t == 3 {
                    assert_eq!(hits.load(Ordering::SeqCst), 3);
                }
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert!(trace.done.iter().all(|&d| d));
            assert_eq!(hits.into_inner(), 4);
        }
    }

    #[test]
    fn cycles_stall_instead_of_deadlocking() {
        let mut g = TaskGraph::new(3);
        g.add_dep(1, 0);
        g.add_dep(0, 1); // 0 <-> 1 cycle; 2 is free.
        let ran = AtomicUsize::new(0);
        let trace = g.run_tracked(2, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!((trace.remaining, trace.failure), (2, None));
        assert_eq!(ran.into_inner(), 1, "only the free task ran");
    }

    #[test]
    fn a_panicking_task_withholds_dependents() {
        let _quiet = resilience::retry::quiet_panics();
        let mut g = TaskGraph::new(3);
        g.add_dep(1, 0);
        g.add_dep(2, 1);
        let ran = AtomicUsize::new(0);
        let trace = g.run_tracked(2, |t| {
            if t == 0 {
                panic!("injected test failure in task 0");
            }
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(trace.failure.and_then(|f| f.task), Some(0));
        assert_eq!(ran.into_inner(), 0, "dependents of the failure never ran");
    }

    #[test]
    fn gather_rows_copies_in_reference_order_and_counts_bytes() {
        let src =
            DenseMatrix::from_rows(&[&[0.0, 1.0], &[10.0, 11.0], &[20.0, 21.0], &[30.0, 31.0]])
                .unwrap();
        let mut stage = DenseMatrix::default();
        let bytes = gather_rows(&mut stage, &src, &[3, 1]);
        assert_eq!(bytes, 2 * 2 * 4);
        assert_eq!(stage.row(0), &[30.0, 31.0]);
        assert_eq!(stage.row(1), &[10.0, 11.0]);
    }
}
