//! Open-loop load study of the inference service: Poisson arrivals at a
//! sweep of rates, batched (coalescing window) versus per-request
//! dispatch, on a Products Table-I twin.
//!
//! The generator is **open loop**: arrival times are drawn up front from
//! an exponential inter-arrival distribution (fixed seed) and requests
//! are submitted on that clock whether or not earlier responses have
//! come back — exactly the regime where admission control matters,
//! because a saturated service must shed instead of queueing without
//! bound. Each (mode, rate) cell reports goodput (completed responses
//! per second of wall clock, submission through drain), shed rate by
//! cause, latency quantiles from the service's own histogram, and the
//! batch-size histogram showing how wide the coalescing window actually
//! got.
//!
//! Results go to `results/BENCH_serving.json`; the headline is the
//! batched/per-request goodput ratio at the highest rate — the knee
//! where one gathered SpMM+GEMM call per window beats one plan-build and
//! kernel call per request.

use bench::BENCH_SEED;
use criterion::{criterion_group, criterion_main, Criterion};
use gcn::{GcnConfig, GcnModel};
use graph::OgbDataset;
use matrix::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serving::{GcnService, Rejection, Request, ServiceConfig};
use sparse::Csr;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Offered load sweep, requests per second. The top rate sits well past
/// the per-request arm's capacity on any host this runs on.
const RATES: [f64; 4] = [250.0, 1_000.0, 4_000.0, 16_000.0];
/// Requests per (mode, rate) cell.
const REQUESTS: usize = 800;
/// Vertex cap for the Products twin.
const TWIN_CAP: usize = 1 << 12;
/// Model shape: input width, hidden width, layers (= gather hops).
const F_IN: usize = 64;
const F_HID: usize = 64;
const LAYERS: usize = 2;

fn service_config(batched: bool) -> ServiceConfig {
    let cfg = ServiceConfig {
        max_batch: 64,
        max_batch_rows: 4096,
        batch_window: Duration::from_millis(1),
        queue_limit: 256,
        latency_budget: Duration::from_millis(500),
        lanes: 2,
        ..ServiceConfig::single_tenant()
    };
    if batched {
        cfg
    } else {
        cfg.per_request()
    }
}

/// Sleep until `deadline` with sub-millisecond accuracy: coarse sleep for
/// the bulk, spin for the tail (thread::sleep alone is too coarse for
/// 60 µs inter-arrival gaps at 16k req/s).
fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

struct Cell {
    mode: &'static str,
    rate: f64,
    submitted: usize,
    completed: u64,
    shed: u64,
    shed_queue_full: u64,
    shed_deadline: u64,
    shed_rate: f64,
    elapsed_s: f64,
    goodput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    mean_batch: f64,
    batch_hist: Vec<u64>,
}

fn run_cell(
    mode: &'static str,
    batched: bool,
    rate: f64,
    model: &GcnModel,
    a: &Csr,
    x: &DenseMatrix,
    seed: u64,
) -> Cell {
    let svc = GcnService::planned(model.clone(), a.clone(), x.clone(), service_config(batched))
        .expect("service config is valid");
    // Warm the plan caches so the measured window starts hot.
    svc.submit(Request::vertex(0, 0))
        .expect("warmup request admits")
        .wait()
        .expect("warmup request completes");

    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap = 1.0 / rate;
    let n = a.nrows();
    let t0 = Instant::now();
    let mut next = t0;
    let mut handles = Vec::with_capacity(REQUESTS);
    let mut door_sheds = 0u64;
    for _ in 0..REQUESTS {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        next += Duration::from_secs_f64(-mean_gap * u.ln());
        pace_until(next);
        match svc.submit(Request::vertex(0, rng.gen_range(0..n))) {
            Ok(h) => handles.push(h),
            Err(Rejection::QueueFull { .. }) => door_sheds += 1,
            Err(other) => panic!("unexpected admission rejection: {other}"),
        }
    }
    let mut completed = 0u64;
    for h in handles {
        match h.wait() {
            Ok(_) => completed += 1,
            Err(Rejection::DeadlineExceeded { .. }) => {}
            Err(other) => panic!("unexpected in-flight rejection: {other}"),
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let m = svc.shutdown();
    // Exclude the warmup request from the throughput numbers (its
    // latency sample stays in the histogram; one sample in 800 is noise
    // below the histogram's own resolution).
    let measured = m.completed.saturating_sub(1);
    assert_eq!(measured, completed, "every admitted request resolved");
    eprintln!(
        "serving_load: {mode:>11} @ {rate:>6.0} req/s: goodput {:.0} rps, \
         shed {:.1}% ({} full / {} late), p99 {:?}, mean batch {:.1}",
        completed as f64 / elapsed,
        m.shed_rate * 100.0,
        m.shed_queue_full,
        m.shed_deadline,
        m.p99,
        m.mean_batch_size(),
    );
    assert_eq!(
        door_sheds, m.shed_queue_full,
        "door sheds are all QueueFull"
    );
    Cell {
        mode,
        rate,
        submitted: REQUESTS,
        completed,
        shed: m.shed,
        shed_queue_full: m.shed_queue_full,
        shed_deadline: m.shed_deadline,
        shed_rate: m.shed_rate,
        elapsed_s: elapsed,
        goodput_rps: completed as f64 / elapsed,
        p50_us: m.p50.as_secs_f64() * 1e6,
        p99_us: m.p99.as_secs_f64() * 1e6,
        p999_us: m.p999.as_secs_f64() * 1e6,
        mean_batch: m.mean_batch_size(),
        batch_hist: m.batch_size_hist,
    }
}

fn write_stats(cells: &[Cell]) {
    // Headline: batched vs per-request goodput at the top rate, and the
    // knee — the lowest swept rate where the ratio first exceeds 1.5x.
    let goodput = |mode: &str, rate: f64| {
        cells
            .iter()
            .find(|c| c.mode == mode && (c.rate - rate).abs() < 1e-9)
            .map_or(0.0, |c| c.goodput_rps)
    };
    let top = RATES[RATES.len() - 1];
    let per_request_top = goodput("per_request", top);
    let speedup_top = if per_request_top > 0.0 {
        goodput("batched", top) / per_request_top
    } else {
        0.0
    };
    let knee = RATES
        .iter()
        .find(|&&r| {
            let pr = goodput("per_request", r);
            pr > 0.0 && goodput("batched", r) / pr > 1.5
        })
        .copied()
        .unwrap_or(0.0);

    let mut rows_json = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            rows_json.push(',');
        }
        let hist: Vec<String> = c.batch_hist.iter().map(u64::to_string).collect();
        write!(
            rows_json,
            "\n    {{\"mode\": \"{}\", \"rate\": {:.0}, \"submitted\": {}, \
             \"completed\": {}, \"shed\": {}, \"shed_queue_full\": {}, \
             \"shed_deadline\": {}, \"shed_rate\": {:.4}, \"elapsed_s\": {:.3}, \
             \"goodput_rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"p999_us\": {:.1}, \"mean_batch\": {:.2}, \"batch_hist\": [{}]}}",
            c.mode,
            c.rate,
            c.submitted,
            c.completed,
            c.shed,
            c.shed_queue_full,
            c.shed_deadline,
            c.shed_rate,
            c.elapsed_s,
            c.goodput_rps,
            c.p50_us,
            c.p99_us,
            c.p999_us,
            c.mean_batch,
            hist.join(", "),
        )
        .expect("writing to a String cannot fail");
    }
    let json = format!(
        "{{\n  \"bench\": \"serving_load\",\n  \"seed\": {BENCH_SEED},\n  \
         \"graph\": \"products_twin\", \"vertices\": {TWIN_CAP}, \
         \"model\": [{F_IN}, {F_HID}], \"layers\": {LAYERS},\n  \
         \"requests_per_cell\": {REQUESTS}, \"latency_budget_ms\": 500,\n  \
         \"batched_speedup_at_top_rate\": {speedup_top:.2},\n  \
         \"knee_rate_rps\": {knee:.0},\n  \
         \"rows\": [{rows_json}\n  ]\n}}\n"
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(format!("{dir}/BENCH_serving.json"), &json))
    {
        eprintln!("serving_load: failed to write stats JSON: {e}");
    } else {
        eprintln!(
            "serving_load: wrote {dir}/BENCH_serving.json \
             (batched speedup at {top:.0} req/s: {speedup_top:.2}x)"
        );
    }
}

fn bench_all(c: &mut Criterion) {
    let g = OgbDataset::Products.materialize_scaled(TWIN_CAP, 0xC0FFEE);
    let a = g.normalized_adjacency().unwrap();
    let x = {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x10AD);
        let data = (0..a.nrows() * F_IN)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        DenseMatrix::from_vec(a.nrows(), F_IN, data).unwrap()
    };
    let model = GcnModel::new(&GcnConfig::paper_model(F_IN, F_HID, LAYERS), 3);

    let mut cells = Vec::new();
    for (mode, batched) in [("per_request", false), ("batched", true)] {
        for (i, &rate) in RATES.iter().enumerate() {
            cells.push(run_cell(
                mode,
                batched,
                rate,
                &model,
                &a,
                &x,
                BENCH_SEED ^ ((i as u64) << 8) ^ batched as u64,
            ));
        }
    }
    write_stats(&cells);

    // One interactive criterion datapoint per mode: closed-loop burst of
    // 64 requests (the sweep above is single-shot; open-loop pacing is
    // far too slow for criterion's sampling).
    let mut group = c.benchmark_group("serving_load");
    group.sample_size(10);
    for (mode, batched) in [("per_request", false), ("batched", true)] {
        // Closed-loop arm: no admission pressure wanted here, so relax
        // the latency budget the open-loop sweep deliberately keeps tight.
        let mut cfg = service_config(batched);
        cfg.latency_budget = Duration::from_secs(30);
        let svc = GcnService::planned(model.clone(), a.clone(), x.clone(), cfg)
            .expect("service config is valid");
        group.bench_function(format!("burst64_{mode}"), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..64)
                    .map(|v| svc.submit(Request::vertex(0, v * 61 % TWIN_CAP)).unwrap())
                    .collect();
                for h in handles {
                    h.wait().unwrap();
                }
            })
        });
        svc.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
