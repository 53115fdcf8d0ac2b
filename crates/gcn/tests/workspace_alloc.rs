//! Steady-state inference must not allocate per-layer activation matrices.
//!
//! A counting global allocator wraps `System` and tallies every allocated
//! byte. The first `infer_planned_with` call sizes the workspace (and the
//! pool's scratch arena); the second call on identically-shaped inputs
//! must allocate far less than a single activation matrix — only small
//! per-call bookkeeping (chunk tables, the pool's job handle) is allowed.
//! A repeated `infer_rows_planned_into` batch allocates nothing sized by
//! the batch or its frontiers at all: one locked output slice per pool
//! share and the pool's job handles remain, a bounded few bytes per layer.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace, RowsWorkspace};
use graph::rmat::RmatConfig;
use graph::Graph;
use kernels::plan::PLAN_SLOTS_PER_THREAD;
use kernels::{SpmmPlan, SpmmStrategy};
use matrix::DenseMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

struct CountingAllocator;

static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: a transparent wrapper over `System`; every method forwards the
// caller's layout/pointer untouched, so `System`'s contract is preserved.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as `System::alloc`, forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same pointer/layout contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`, forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The counter is process-wide: one measuring test at a time. A failed
/// test poisons the lock; the other still measures on its own.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> std::sync::MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn steady_state_inference_does_not_allocate_activations() {
    let _one_at_a_time = measuring();
    let graph = Graph::rmat(&RmatConfig::power_law(9, 8), 42);
    let n = graph.vertices();
    let (input_dim, hidden, classes) = (32, 64, 16);
    let model = GcnModel::new(&GcnConfig::paper_model(input_dim, hidden, classes), 7);
    let features = graph.random_features(input_dim, 3);
    let a_hat = graph.normalized_adjacency().unwrap();
    let strategy = SpmmStrategy::VertexParallel { threads: 4 };

    // Warm-up: sizes the workspace, spawns the pool, fills scratch caches.
    let mut workspace = InferenceWorkspace::new();
    workspace.install_plan(SpmmPlan::pinned(&a_hat, input_dim, strategy));
    let reference = model
        .infer_planned_with(&a_hat, &features, &mut workspace)
        .unwrap()
        .clone();

    ALLOCATED_BYTES.store(0, Ordering::Relaxed);
    let out = model
        .infer_planned_with(&a_hat, &features, &mut workspace)
        .unwrap();
    let steady_state = ALLOCATED_BYTES.load(Ordering::Relaxed);
    assert!(reference.max_abs_diff(out) < 1e-5);

    // One n x hidden activation matrix — the thing a naive per-layer
    // implementation allocates at least three of per call.
    let one_activation = n * hidden * size_of::<f32>();
    assert!(
        steady_state < one_activation,
        "steady-state inference allocated {steady_state} bytes, \
         >= one activation matrix ({one_activation} bytes)"
    );
}

#[test]
fn repeated_rows_batches_allocate_a_per_layer_constant() {
    let _one_at_a_time = measuring();
    // A circulant graph: every row of `A_hat` holds the same seven
    // non-zeros, so an operand of `r >= 16 * width` rows fills every slot of
    // its NNZ partition (a power-law hub row can absorb a slot instead).
    let n = 4096;
    let edges: Vec<_> = (0..n)
        .flat_map(|v| [1, 64, 512].map(|d| (v, (v + d) % n)))
        .collect();
    let graph = Graph::from_undirected_edges(n, &edges);
    let model = GcnModel::new(&GcnConfig::paper_model(32, 64, 16), 7);
    let features = graph.random_features(32, 3);
    let a_hat = graph.normalized_adjacency().unwrap();
    assert!((0..n).all(|v| a_hat.row_nnz(v) == 7), "uniform degree");
    let mut ws = RowsWorkspace::new();
    let mut out = DenseMatrix::default();

    // Bytes allocated by the second of two identical calls: the first
    // sizes the workspace (its buffers keep the most elements they held,
    // so later reshapes between layer widths reuse them), and from then
    // on every call is the same.
    let mut repeat_bytes = |targets: &[usize]| {
        let mut call = || {
            let stats = model
                .infer_rows_planned_into(&a_hat, &features, targets, &mut ws, &mut out)
                .unwrap();
            assert!(stats.gathered > targets.len() && !stats.full_graph);
        };
        call();
        ALLOCATED_BYTES.store(0, Ordering::Relaxed);
        call();
        ALLOCATED_BYTES.load(Ordering::Relaxed)
    };
    let spread = |count: usize| (0..count).map(|i| i * (n / count)).collect::<Vec<_>>();
    let one = repeat_bytes(&[n / 2]);
    let some = repeat_bytes(&spread(n / 16));
    let many = repeat_bytes(&spread(n / 4));

    // Levels, marks, the SpMM partition and the global-id activation
    // buffers are all recycled, and no batch builds an operand or a plan
    // (the one plan is kept while the adjacency is the same).
    // What a call still allocates is, per layer at pool width `w` and for
    // each kernel that publishes to the pool rather than running inline:
    // one locked output slice (three words) per share — a partition slot
    // for the SpMM (`16w` of them), an executor for the dense update (`w`)
    // — and the pool's job handle. Every row list of these two batches has
    // at least `16w` rows, so each SpMM fills all `16w` slots and each
    // dense update all `w` executors: the same bytes, whatever the batch,
    // up to a pool width of `n / 256`. One target's top list is a single
    // row, whose SpMM runs inline (no slot table, no job handle), and its
    // smaller levels fill fewer slots, so it allocates no more. At width 1
    // everything runs inline, and only the dense update's one-entry chunk
    // table is allocated.
    let w = kernels::pool::global().width();
    let slices = (PLAN_SLOTS_PER_THREAD + 1) * w * 3 * size_of::<usize>();
    let job_handles = if w > 1 { 256 } else { 0 };
    let bound = model.layers().len() * (slices + job_handles);
    assert_eq!(some, many, "256- vs 1024-target batch");
    assert!(many <= bound, "1024-target batch: {many} > {bound} bytes");
    assert!(one <= many, "1-target batch: {one} > {many} bytes");
}
