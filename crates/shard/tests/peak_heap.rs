//! A sharded inference holds no copy of the layer operand beside it.
//!
//! A counting global allocator wraps `System` and tracks the live heap and
//! its peak. Building a [`shard::ShardedGcn`] over a Products twin and
//! running its first `infer` may raise the peak above what was live before
//! by at most: the plan's one copy of the adjacency and its `refs` / `halo`
//! lists (the ledger), the workspace's buffers — two n-row activation
//! buffers (the layer loop runs in place, and recovers by recomputation,
//! not from a spare copy) and its plan's NNZ partition — and the returned
//! output.
//! Per-block stage buffers — a copy of every block's referenced rows at
//! the aggregation width, `Σ refs × K × 4` bytes — do not fit in that
//! bound.

use gcn::{GcnConfig, GcnModel};
use graph::OgbDataset;
use kernels::SpmmPlan;
use shard::{PartitionKind, ShardedGcn};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: a transparent wrapper over `System`; every method forwards the
// caller's layout/pointer untouched, so `System`'s contract is preserved.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as `System::alloc`, forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
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
        // Counted as a fresh block beside the old one: a moving realloc
        // holds both for an instant.
        grow(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn sharded_inference_peak_heap_is_the_adjacency_and_activations() {
    let a_hat = OgbDataset::Products
        .materialize_scaled(1 << 11, 0xC0FFEE)
        .normalized_adjacency()
        .expect("twin adjacency normalizes");
    let n = a_hat.nrows();
    // The `sharded` benchmark model: update-first, aggregate-first,
    // update-first, so both association orders run.
    let dims = [100, 64, 64, 47];
    let model = GcnModel::new(&GcnConfig::from_dims(dims.to_vec()), 7);
    let x = matrix::DenseMatrix::from_vec(
        n,
        dims[0],
        (0..n * dims[0])
            .map(|i| (i % 17) as f32 * 0.1 - 0.8)
            .collect(),
    )
    .expect("shape matches by construction");
    let workers = 4;

    // Warm-up on the same shapes: spawns the pool and sizes its scratch, so
    // the measured run pays only for the runner.
    ShardedGcn::new(&a_hat, workers, PartitionKind::Rows1D)
        .and_then(|mut s| s.infer(&model, &x))
        .expect("warm-up sharded inference succeeds");

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let mut sharded =
        ShardedGcn::new(&a_hat, workers, PartitionKind::Rows1D).expect("shard plan builds");
    let out = sharded
        .infer(&model, &x)
        .expect("sharded inference succeeds");
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;

    let f32s = size_of::<f32>();
    let adjacency = (n + 1) * size_of::<usize>() + a_hat.nnz() * (size_of::<u32>() + f32s);
    // The ledger: the block table, its row bounds and every block's lists.
    let plan = sharded.plan();
    let lists = size_of_val(plan.blocks())
        + size_of_val(plan.row_bounds())
        + plan
            .blocks()
            .iter()
            .map(|b| (b.refs.len() + b.halo.len()) * size_of::<u32>())
            .sum::<usize>();
    let widest = dims[1..].iter().copied().max().unwrap_or(0);
    let activations = 2 * n * widest * f32s;
    // The workspace plans at pool width, as the runner's first call did.
    let partition = size_of_val(SpmmPlan::new(&a_hat, dims[0]).partition());
    let output = size_of_val(out.as_slice());
    let bound = adjacency + lists + activations + partition + output;
    let staged: usize = sharded.plan().blocks().iter().map(|b| b.refs.len()).sum();
    assert!(
        peak <= bound,
        "peak live heap {peak} B > bound {bound} B (adjacency {adjacency}, ledger \
         {lists}, activations {activations}, partition {partition}, output {output}); one \
         stage copy of every \
         block's referenced rows at width {widest} would be {} B",
        staged * widest * f32s
    );
}
