//! Set-up holds no more heap than its output and its pairs.
//!
//! A counting global allocator wraps `System` and tracks the live heap and
//! its high-water mark, so each bound is on the peak a call reaches above
//! what was live before it.
//!
//! * **R-MAT.** Generating the ddi twin may peak at its `(u32, u32)` pairs,
//!   the finished CSR and `O(n)` beside them. Triplets of `usize` rows,
//!   `usize` columns and `f32` values (20 B an edge), or a CSR built and
//!   then copied, do not fit.
//! * **Normalization.** `A_hat` of the same twin may peak at the output CSR
//!   plus two `n`-vectors of `f64`. A COO of `A + I` or a second CSR does
//!   not fit.

use graph::rmat::{self, RmatConfig};
use graph::OgbDataset;
use sparse::norm::{normalize, NormKind};
use sparse::Csr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: a transparent wrapper over `System`; every method forwards the
// caller's layout/pointer untouched, so `System`'s contract is preserved.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as `System::alloc`, forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
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
        grew(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allowance beyond the named buffers for small bookkeeping allocations.
const SLACK_BYTES: usize = 64 << 10;

/// The counters are process-wide: one measuring test at a time. A failed
/// test poisons the lock; the other still measures on its own.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns its result with the peak heap it reached above
/// the bytes live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Ordering::Relaxed) - before)
}

fn csr_bytes(csr: &Csr) -> usize {
    size_of_val(csr.row_ptr()) + size_of_val(csr.col_idx()) + size_of_val(csr.values())
}

/// The R-MAT config `materialize_scaled` builds for the ddi twin at 2^12.
fn ddi_config() -> RmatConfig {
    let stats = OgbDataset::Ddi.stats();
    RmatConfig::uniform(12, (stats.avg_degree() / 2.0).round() as usize)
}

#[test]
fn rmat_peaks_at_its_pairs_and_csr() {
    let _one_at_a_time = measuring();
    let config = ddi_config();
    let (graph, peak) = peak_of(|| rmat::generate(&config, 3));
    assert_eq!(
        graph,
        OgbDataset::Ddi.materialize_scaled(1 << 12, 3),
        "the config is the ddi twin's"
    );
    let n = config.vertices();
    let pairs = 2 * config.target_edges() * size_of::<(u32, u32)>();
    let csr = csr_bytes(graph.adjacency());
    let bound = pairs + csr + n * size_of::<usize>() + SLACK_BYTES;
    assert!(
        peak <= bound,
        "R-MAT peaked at {peak} B > bound {bound} B (pairs {pairs}, CSR {csr}); \
         triplets alone would be {} B",
        2 * config.target_edges() * 20
    );
}

#[test]
fn normalize_peaks_at_its_output_and_two_vectors() {
    let _one_at_a_time = measuring();
    let adj = OgbDataset::Ddi
        .materialize_scaled(1 << 12, 3)
        .into_adjacency();
    let n = adj.nrows();
    for kind in [NormKind::Symmetric, NormKind::RandomWalk, NormKind::None] {
        let (a_hat, peak) = peak_of(|| normalize(&adj, kind).expect("square"));
        let out = csr_bytes(&a_hat);
        let bound = out + 2 * n * size_of::<f64>() + SLACK_BYTES;
        assert!(
            peak <= bound,
            "{kind:?} peaked at {peak} B > bound {bound} B (output {out}); \
             a COO of A + I alone would be {} B",
            a_hat.nnz() * 20
        );
    }
}
