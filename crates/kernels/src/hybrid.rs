//! Degree-aware hybrid SpMM: edge-split hubs, chunked tail.
//!
//! Vertex-parallel SpMM load-balances badly on power-law graphs — one hub
//! row can outweigh thousands of tail rows, and a whole chunk containing it
//! serializes on one worker (the imbalance the paper quantifies via degree
//! cv). Edge-parallel fixes the balance but pays atomic traffic on *every*
//! output element, which is why the paper finds it slower on CPUs.
//!
//! The hybrid takes each regime where it wins:
//!
//! * **Hub rows** (degree far above the mean) are split into edge segments
//!   processed by different workers; each segment accumulates into a local
//!   `K`-wide buffer, then adds it into the output row under that row's
//!   dedicated mutex. Synchronization cost is one uncontended-to-lightly-
//!   contended lock per segment — not per element.
//! * **Tail rows** are grouped into chunks owned exclusively by one worker
//!   each, exactly like the vertex-parallel kernel: no atomics, no locks
//!   beyond the pool's share claiming.
//!
//! Hub segments are queued before tail chunks so the largest work items
//! start first — with dynamic share claiming this bounds the tail latency
//! by the last chunk, not the last hub.

use matrix::microkernel::KernelDispatch;
use matrix::{DenseMatrix, MatrixError};
use parking_lot::Mutex;
use sparse::Csr;

use crate::spmm::{check, spmm_rows_with, FeatureOperand, VERTEX_CHUNK};

// BOUNDS: indexing here reads CSR arrays validated by `Csr::from_coo`
// (row_ptr monotone, col_idx < ncols), work/slot tables built by the
// partition walk immediately above their use, and output slices carved by
// `split_at_mut` from a buffer sized via `resize_zeroed(n, k)`.

/// A row is a hub when its degree exceeds `HUB_DEGREE_FACTOR * mean`
/// (and the absolute floor [`HUB_DEGREE_MIN`]): beyond that point one row
/// rivals a whole tail chunk and is worth splitting.
const HUB_DEGREE_FACTOR: f64 = 4.0;

/// Minimum degree for hub treatment, so near-uniform graphs (where the
/// mean test would fire on noise) keep the atomics-free fast path.
const HUB_DEGREE_MIN: usize = 32;

/// Target edges per hub segment; segments are the unit of hub parallelism.
const SEGMENT_EDGES: usize = 1024;

enum Work<'a> {
    /// Edge segment `[e0, e1)` of a hub row, reduced into `slot`.
    HubSegment { e0: usize, e1: usize, slot: usize },
    /// Rows `[first_row, first_row + rows)`, owned exclusively.
    TailChunk {
        first_row: usize,
        rows: usize,
        slice: Mutex<&'a mut [f32]>,
    },
}

/// Degree-aware hybrid SpMM (see module docs) over any [`FeatureOperand`],
/// writing into a caller-owned output matrix (reshaped with
/// [`DenseMatrix::resize_zeroed`]; allocation-free at capacity apart from
/// per-call work-list bookkeeping).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch and
/// [`MatrixError::ZeroThreads`] if `threads == 0`.
pub fn spmm_hybrid_into<F: FeatureOperand>(
    a: &Csr,
    h: &F,
    threads: usize,
    out: &mut DenseMatrix,
) -> Result<(), MatrixError> {
    check("spmm_hybrid", a, h)?;
    if threads == 0 {
        return Err(MatrixError::ZeroThreads);
    }
    let (n, k) = (a.nrows(), h.shape().1);
    let nnz = a.nnz();
    out.resize_zeroed(n, k);
    if n == 0 || k == 0 || nnz == 0 {
        return Ok(());
    }
    // Resolve the micro-kernel backend once, outside the broadcast.
    let kd = KernelDispatch::get();
    if threads == 1 {
        spmm_rows_with(kd, a, h, out.as_mut_slice(), 0, n, k);
        return Ok(());
    }

    let mean = nnz as f64 / n as f64;
    let hub_threshold = ((HUB_DEGREE_FACTOR * mean) as usize).max(HUB_DEGREE_MIN);

    // Partition the output: hub rows get individual mutex-guarded slices,
    // runs of tail rows become exclusively-owned chunks. `split_at_mut`
    // walks the backing slice front to back, so every slice is disjoint.
    let row_ptr = a.row_ptr();
    // lint:allow(L005): per-call work-list bookkeeping — O(hubs + n/64)
    // entries, far below the counting-allocator activation budget.
    let mut hub_slots: Vec<Mutex<&mut [f32]>> = Vec::new();
    // lint:allow(L005): same per-call work-list bookkeeping as above.
    let mut works: Vec<Work<'_>> = Vec::new();
    // lint:allow(L005): same per-call work-list bookkeeping as above.
    let mut tail_works: Vec<Work<'_>> = Vec::new();
    let mut rest = out.as_mut_slice();
    let mut u = 0;
    while u < n {
        if a.row_nnz(u) > hub_threshold {
            let (row_slice, remaining) = rest.split_at_mut(k);
            rest = remaining;
            let slot = hub_slots.len();
            hub_slots.push(Mutex::new(row_slice));
            let (e_start, e_end) = (row_ptr[u], row_ptr[u + 1]);
            let row_edges = e_end - e_start;
            let segments = row_edges.div_ceil(SEGMENT_EDGES).clamp(1, threads);
            for s in 0..segments {
                works.push(Work::HubSegment {
                    e0: e_start + s * row_edges / segments,
                    e1: e_start + (s + 1) * row_edges / segments,
                    slot,
                });
            }
            u += 1;
        } else {
            let run_start = u;
            while u < n && u - run_start < VERTEX_CHUNK && a.row_nnz(u) <= hub_threshold {
                u += 1;
            }
            let rows = u - run_start;
            let (chunk, remaining) = rest.split_at_mut(rows * k);
            rest = remaining;
            tail_works.push(Work::TailChunk {
                first_row: run_start,
                rows,
                slice: Mutex::new(chunk),
            });
        }
    }
    // Hubs first: biggest items start earliest under dynamic claiming.
    works.append(&mut tail_works);

    let cols = a.col_idx();
    let vals = a.values();
    pool::global().broadcast(
        threads.min(works.len().max(1)),
        works.len(),
        |i| match &works[i] {
            Work::HubSegment { e0, e1, slot } => {
                // lint:allow(L005): K-wide per-segment accumulator kept
                // thread-local; K is the feature width, tens of floats.
                let mut acc = vec![0.0f32; k];
                h.fill_row(kd, &mut acc, &cols[*e0..*e1], &vals[*e0..*e1]);
                let mut row_out = hub_slots[*slot].lock();
                for (o, x) in row_out.iter_mut().zip(&acc) {
                    *o += x;
                }
            }
            Work::TailChunk {
                first_row,
                rows,
                slice,
            } => {
                let mut chunk = slice.lock();
                spmm_rows_with(kd, a, h, &mut chunk, *first_row, first_row + rows, k);
            }
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::spmm_sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparse::Coo;

    fn random_dense(rng: &mut StdRng, r: usize, c: usize) -> DenseMatrix {
        let data = (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(r, c, data).unwrap()
    }

    fn hybrid(a: &Csr, h: &DenseMatrix, threads: usize) -> Result<DenseMatrix, MatrixError> {
        crate::SpmmStrategy::Hybrid { threads }.run(a, h)
    }

    #[test]
    fn hybrid_matches_sequential_on_star_graph() {
        // One hub touching every vertex plus a sparse tail: the acceptance
        // shape for hub/tail partitioning.
        let n = 500;
        let mut coo = Coo::new(n, n);
        let mut rng = StdRng::seed_from_u64(21);
        for v in 1..n {
            coo.push(0, v, rng.gen_range(-1.0..1.0));
        }
        for _ in 0..n {
            coo.push(
                rng.gen_range(1..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            );
        }
        let a = Csr::from_coo(&coo);
        let h = random_dense(&mut rng, n, 17);
        let reference = spmm_sequential(&a, &h).unwrap();
        for threads in [2, 4, 7, 16] {
            let got = hybrid(&a, &h, threads).unwrap();
            assert!(
                reference.max_abs_diff(&got) < 1e-3,
                "threads={threads} diverged by {}",
                reference.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn hybrid_matches_sequential_on_uniform_graph() {
        // No hubs at all: the kernel must degrade to pure tail chunks.
        let mut rng = StdRng::seed_from_u64(22);
        let n = 300;
        let mut coo = Coo::new(n, n);
        for u in 0..n {
            for _ in 0..5 {
                coo.push(u, rng.gen_range(0..n), rng.gen_range(-1.0..1.0));
            }
        }
        let a = Csr::from_coo(&coo);
        let h = random_dense(&mut rng, n, 8);
        let reference = spmm_sequential(&a, &h).unwrap();
        for threads in [2, 8] {
            let got = hybrid(&a, &h, threads).unwrap();
            assert!(reference.max_abs_diff(&got) < 1e-4);
        }
    }

    #[test]
    fn hybrid_handles_degenerate_inputs() {
        let a = Csr::empty(5, 5);
        let h = DenseMatrix::zeros(5, 3);
        assert!(hybrid(&a, &h, 4)
            .unwrap()
            .as_slice()
            .iter()
            .all(|&x| x == 0.0));
        let h0 = DenseMatrix::zeros(5, 0);
        assert_eq!(hybrid(&a, &h0, 4).unwrap().shape(), (5, 0));
        assert!(matches!(hybrid(&a, &h, 0), Err(MatrixError::ZeroThreads)));
        let bad = DenseMatrix::zeros(6, 2);
        assert!(hybrid(&a, &bad, 2).is_err());
    }

    #[test]
    fn hybrid_into_reuses_buffers_without_stale_values() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut coo = Coo::new(100, 100);
        for v in 1..100 {
            coo.push(0, v, 1.0); // hub
        }
        for _ in 0..200 {
            coo.push(
                rng.gen_range(0..100),
                rng.gen_range(0..100),
                rng.gen_range(-1.0..1.0),
            );
        }
        let a = Csr::from_coo(&coo);
        let h = random_dense(&mut rng, 100, 6);
        let reference = spmm_sequential(&a, &h).unwrap();
        let mut buf = DenseMatrix::filled(200, 9, f32::NAN);
        spmm_hybrid_into(&a, &h, 4, &mut buf).unwrap();
        assert!(reference.max_abs_diff(&buf) < 1e-4);
        spmm_hybrid_into(&a, &h, 4, &mut buf).unwrap();
        assert!(reference.max_abs_diff(&buf) < 1e-4);
    }
}
