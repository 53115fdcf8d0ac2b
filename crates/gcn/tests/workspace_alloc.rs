//! Steady-state inference must not allocate per-layer activation matrices.
//!
//! A counting global allocator wraps `System` and tallies every allocated
//! byte. The first `infer_planned_with` call sizes the workspace (and the
//! pool's scratch arena); the second call on identically-shaped inputs
//! must allocate far less than a single activation matrix — only small
//! per-call bookkeeping (chunk tables, the pool's job handle) is allowed.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use graph::rmat::RmatConfig;
use graph::Graph;
use kernels::{SpmmPlan, SpmmStrategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[test]
fn steady_state_inference_does_not_allocate_activations() {
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
