//! Host fingerprint and the two measured denominators the per-layer rates
//! are held against: copy bandwidth and packed-GEMM peak.

use std::hint::black_box;
use std::time::Instant;

use kernels::pool;
use matrix::microkernel::{matmul_packed_with, KernelDispatch};
use matrix::DenseMatrix;

use crate::stats::median;

const MIB: usize = 1 << 20;
/// Assumed last-level cache when sysfs does not say.
const DEFAULT_LLC_BYTES: usize = 32 * MIB;
/// Cap on each copy array, whatever the cache size.
const MAX_COPY_ARRAY_BYTES: usize = 1 << 30;
/// Side of the square GEMM the peak is taken at (`--smoke`: 128).
const GEMM_PEAK_N: usize = 512;

/// What is cheap to know about the host; printed with every run.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Backend the cached `KernelDispatch` resolved to.
    pub isa: &'static str,
    /// Width of the global pool every parallel kernel runs on.
    pub pool_width: usize,
    /// Largest cache sysfs reports for cpu0 (or the default).
    pub llc_bytes: usize,
}

/// The measured denominators; taken by the traced pass and by the parent of
/// a `--workload all` run, never inside an untraced workload process (the
/// copy arrays would be its peak RSS).
#[derive(Debug, Clone)]
pub struct HostRates {
    /// Bytes of each of the two copy arrays (4 x LLC, capped at 1 GiB).
    pub copy_array_bytes: usize,
    /// Bytes read plus bytes written per second of a large `copy_from_slice`.
    pub copy_gbps: f64,
    /// Packed 512^3 GEMM on one thread.
    pub gemm_peak_gflops: f64,
    /// The same GEMM at pool width.
    pub gemm_peak_gflops_pool: f64,
}

pub fn facts() -> HostFacts {
    HostFacts {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa: KernelDispatch::get().backend().name(),
        pool_width: pool::global().width(),
        llc_bytes: llc_bytes().unwrap_or(DEFAULT_LLC_BYTES),
    }
}

/// Largest `size` under `/sys/devices/system/cpu/cpu0/cache/index*`.
fn llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let text = std::fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        parse_cache_size(text.trim())
    })
    .max()
}

/// `"266240K"` / `"4M"` / `"512"` as bytes.
fn parse_cache_size(s: &str) -> Option<usize> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], MIB),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(scale)
}

/// Measures the denominators. `smoke` shrinks the copy arrays to 8 MiB and
/// the GEMM to 128^3 so the check-only mode stays fast (its rates are then
/// cache rates, not memory rates, and are not meant to be read).
pub fn rates(facts: &HostFacts, smoke: bool) -> HostRates {
    let copy_array_bytes = if smoke {
        8 * MIB
    } else {
        facts.llc_bytes.saturating_mul(4).min(MAX_COPY_ARRAY_BYTES)
    };
    let words = copy_array_bytes / 4;
    let src = vec![1.0f32; words];
    let mut dst = vec![0.0f32; words];
    // First pass faults the destination in; the timed passes follow it.
    dst.copy_from_slice(&src);
    let secs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let copy_gbps = 2.0 * copy_array_bytes as f64 / median(&secs) / 1e9;
    drop((src, dst));

    let kd = KernelDispatch::get();
    let n = if smoke { GEMM_PEAK_N / 4 } else { GEMM_PEAK_N };
    let a = DenseMatrix::filled(n, n, 0.5);
    let b = DenseMatrix::filled(n, n, 0.25);
    let mut c = DenseMatrix::default();
    let mut gflops = |threads: usize| {
        let secs: Vec<f64> = (0..8)
            .map(|_| {
                let t = Instant::now();
                matmul_packed_with(kd, &a, &b, threads, &mut c).expect("square shapes agree");
                black_box(&c);
                t.elapsed().as_secs_f64()
            })
            .collect();
        2.0 * (n * n * n) as f64 / median(&secs) / 1e9
    };
    HostRates {
        copy_array_bytes,
        copy_gbps,
        gemm_peak_gflops: gflops(1),
        gemm_peak_gflops_pool: gflops(facts.pool_width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("266240K"), Some(266_240 << 10));
        assert_eq!(parse_cache_size("4M"), Some(4 * MIB));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("bigK"), None);
    }

    #[test]
    fn smoke_probe_reports_positive_rates() {
        let f = facts();
        assert!(f.cores >= 1 && f.pool_width >= 1 && f.llc_bytes > 0);
        let r = rates(&f, true);
        assert_eq!(r.copy_array_bytes, 8 * MIB);
        assert!(r.copy_gbps > 0.0 && r.gemm_peak_gflops > 0.0 && r.gemm_peak_gflops_pool > 0.0);
    }
}
