//! A workspace retains only the buffers its mode needs.
//!
//! A counting global allocator wraps `System` and tracks the live heap.
//!
//! * **Rows.** After one 2 048-target batch on a Products twin (the
//!   `serve_*` model, `100 -> 64 -> 47`), the heap a fresh workspace still
//!   holds may be at most: its two `n`-row activation buffers at the widest
//!   width a layer writes, its levels (one `usize` list per level, each at
//!   most the next power of two above `n`), its `n` visited marks, and 4 KiB
//!   per pool thread (the SpMM partition, the cached plan's and slack). A
//!   per-batch gather of `X[V_0]` (`|V_0| x 100` floats) and per-layer
//!   renumbered sub-CSRs do not fit in that bound.
//! * **Whole graph.** After one plain inference with a `K = 256` model the
//!   workspace holds `h` and `mid` at the widest width plus the same
//!   per-thread allowance — a third `n x 256` buffer does not fit — and a
//!   recovering run on it adds no buffer: a retry recomputes a lost input
//!   in place instead of keeping a spare copy.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace, RowsWorkspace};
use graph::rmat::RmatConfig;
use graph::{Graph, OgbDataset};
use matrix::DenseMatrix;
use resilience::guard::RunGuard;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: a transparent wrapper over `System`; every method forwards the
// caller's layout/pointer untouched, so `System`'s contract is preserved.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as `System::alloc`, forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same pointer/layout contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`, forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allowed heap per pool thread beyond the named buffers: the SpMM's
/// partition (16 slots a thread), the cached plan's and slack.
const PER_THREAD_BYTES: usize = 4 << 10;

/// The counter is process-wide: one measuring test at a time. A failed
/// test poisons the lock; the other still measures on its own.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live heap bytes `f` leaves allocated.
fn retained_by(f: impl FnOnce()) -> usize {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    f();
    LIVE_BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn a_rows_workspace_retains_global_buffers_levels_and_marks() {
    let _one_at_a_time = measuring();
    let a_hat = OgbDataset::Products
        .materialize_scaled(1 << 12, 0xC0FFEE)
        .normalized_adjacency()
        .expect("twin adjacency normalizes");
    let n = a_hat.nrows();
    let dims = [100, 64, 47];
    let model = GcnModel::new(&GcnConfig::from_dims(dims.to_vec()), 7);
    let x = DenseMatrix::from_vec(
        n,
        dims[0],
        (0..n * dims[0])
            .map(|i| (i % 17) as f32 * 0.1 - 0.8)
            .collect(),
    )
    .expect("shape matches by construction");
    let targets: Vec<usize> = (0..2048).map(|i| i * n / 2048).collect();
    let mut out = DenseMatrix::default();

    // Warm-up through a throwaway workspace: spawns the pool and sizes its
    // scratch, so the measured batch pays only for its own workspace.
    model
        .infer_rows_planned_into(&a_hat, &x, &targets, &mut RowsWorkspace::new(), &mut out)
        .expect("warm-up batch succeeds");
    let out_bytes = size_of_val(out.as_slice());

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut ws = RowsWorkspace::new();
    let stats = model
        .infer_rows_planned_into(&a_hat, &x, &targets, &mut ws, &mut out)
        .expect("batch succeeds");
    let retained = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(size_of_val(out.as_slice()), out_bytes, "out kept its shape");

    // Both layers of `100 -> 64 -> 47` update first, so every buffer a
    // layer writes is at most 64 wide.
    let widest = dims[1..].iter().copied().max().unwrap_or(0);
    let buffers = 2 * n * widest * size_of::<f32>();
    let levels = dims.len() * n.next_power_of_two() * size_of::<usize>();
    let marks = n * size_of::<u32>();
    let threads = kernels::pool::global().width();
    let bound = buffers + levels + marks + threads * PER_THREAD_BYTES;
    assert!(
        retained <= bound,
        "the workspace retains {retained} B > bound {bound} B (buffers {buffers}, levels \
         {levels}, marks {marks}); one copy of the batch's {} feature rows would be {} B",
        stats.gathered,
        stats.gathered * dims[0] * size_of::<f32>()
    );
}

#[test]
fn a_whole_graph_workspace_holds_two_buffers_recovering_or_not() {
    let _one_at_a_time = measuring();
    let graph = Graph::rmat(&RmatConfig::power_law(10, 8), 5);
    let a_hat = graph
        .normalized_adjacency()
        .expect("rmat adjacency normalizes");
    let n = a_hat.nrows();
    // `32 -> 256 -> 256 -> 16`: the widest layer writes 256 columns, and
    // the middle one's intermediate product is as wide.
    let (input, hidden) = (32, 256);
    let model = GcnModel::new(&GcnConfig::paper_model(input, hidden, 16), 7);
    let x = graph.random_features(input, 3);

    // Warm-up through throwaway workspaces: spawns the pool and sizes its
    // scratch for both arms.
    model
        .infer_planned_with(&a_hat, &x, &mut InferenceWorkspace::new())
        .expect("warm-up succeeds");
    model
        .infer_recovering_with(
            &a_hat,
            &x,
            &RunGuard::unbounded(),
            &mut InferenceWorkspace::new(),
        )
        .expect("warm-up succeeds");

    let one_buffer = n * hidden * size_of::<f32>();
    let slack = kernels::pool::global().width() * PER_THREAD_BYTES;
    let mut ws = InferenceWorkspace::new();
    let in_place = retained_by(|| {
        model
            .infer_planned_with(&a_hat, &x, &mut ws)
            .expect("inference succeeds");
    });
    let bound = 2 * one_buffer + slack;
    assert!(
        in_place <= bound,
        "an in-place run retains {in_place} B > bound {bound} B (`h` + `mid` at \
         {one_buffer} B each, plus {slack} B)"
    );
    let recovering = retained_by(|| {
        model
            .infer_recovering_with(&a_hat, &x, &RunGuard::unbounded(), &mut ws)
            .expect("inference succeeds");
    });
    assert!(
        recovering <= slack,
        "a recovering run on the same workspace added {recovering} B > {slack} B; one \
         spare activation buffer would be {one_buffer} B"
    );
}
