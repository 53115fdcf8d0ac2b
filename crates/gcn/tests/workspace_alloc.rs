//! Steady-state inference must not allocate per-layer activation matrices.
//!
//! A counting global allocator wraps `System` and tallies every allocated
//! byte. The first `infer_planned_with` call sizes the workspace (and the
//! pool's scratch arena); the second call on identically-shaped inputs
//! must allocate far less than a single activation matrix — only small
//! per-call bookkeeping (chunk tables, the pool's job handle) is allowed.
//! A repeated `infer_rows_planned_into` batch allocates nothing sized by
//! the batch or its frontiers at all: a fixed few bytes per layer remain.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace, RowsWorkspace};
use graph::rmat::RmatConfig;
use graph::Graph;
use kernels::{SpmmPlan, SpmmStrategy};
use matrix::DenseMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// The counter is process-wide: one measuring test at a time.
static MEASURING: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_inference_does_not_allocate_activations() {
    let _one_at_a_time = MEASURING.lock().unwrap();
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
    let _one_at_a_time = MEASURING.lock().unwrap();
    let graph = Graph::rmat(&RmatConfig::power_law(9, 8), 42);
    let n = graph.vertices();
    let model = GcnModel::new(&GcnConfig::paper_model(32, 64, 16), 7);
    let layers = model.layers().len();
    let features = graph.random_features(32, 3);
    let a_hat = graph.normalized_adjacency().unwrap();
    let mut ws = RowsWorkspace::new();
    let mut out = DenseMatrix::default();

    // Bytes allocated by the third of three identical calls: the first
    // sizes the workspace, and because the ping-pong activation pair swaps
    // roles on an odd layer count the second may still grow the smaller of
    // the two; from then on every call is the same.
    let mut repeat_bytes = |targets: &[usize]| {
        let mut call = || {
            let stats = model
                .infer_rows_planned_into(&a_hat, &features, targets, &mut ws, &mut out)
                .unwrap();
            assert!(stats.gathered > targets.len() && !stats.full_graph);
        };
        call();
        call();
        ALLOCATED_BYTES.store(0, Ordering::Relaxed);
        call();
        ALLOCATED_BYTES.load(Ordering::Relaxed)
    };
    let one = repeat_bytes(&[n / 2]);
    let sixty_four: Vec<usize> = (0..64).map(|i| (i * 7) % n).collect();
    let many = repeat_bytes(&sixty_four);

    // Levels, rank table, per-layer operand arrays and activation buffers
    // are all recycled. What a call still allocates is, per layer: its
    // pinned plan's partition vector (capacity 5 `usize`s at width 1), its
    // `(operand, plan)` entry in the layer loop's operand slice (two
    // pointers), and the single-threaded dense update's one-entry output
    // chunk table (a locked slice, three words) — 80 bytes a layer on a
    // 64-bit host, whatever the batch.
    let word = size_of::<usize>();
    let per_layer = 5 * word + 2 * word + 3 * word;
    assert_eq!(one, layers * per_layer, "1-target batch");
    assert_eq!(many, layers * per_layer, "64-target batch");
}
