//! Everything generated from `--seed`: the twin, features, weights, arrival
//! times and request targets. Library code only ever sees these inputs.

use std::time::{Duration, Instant};

use gcn::{GcnConfig, GcnModel};
use graph::Graph;
use matrix::DenseMatrix;
use sparse::Csr;

use crate::spec::Workload;

/// Vertex cap of every twin under `--smoke`.
pub const SMOKE_CAP: usize = 1 << 10;

/// SplitMix64: the benchmark's own generator, so schedules and targets do
/// not depend on which `rand` the workspace resolves to.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream for `purpose` under the run's seed.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let tag = purpose.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        let mut s = SplitMix(seed ^ tag);
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The generated inputs of one workload, with the time the two
/// input-building library calls took.
#[derive(Debug)]
pub struct Inputs {
    pub graph: Graph,
    pub a_hat: Csr,
    pub x: DenseMatrix,
    pub model: GcnModel,
    pub materialize_s: f64,
    pub normalize_s: f64,
}

impl Inputs {
    pub fn build(w: &Workload, seed: u64, smoke: bool) -> Result<Inputs, String> {
        let cap = if smoke { SMOKE_CAP.min(w.cap) } else { w.cap };
        let t = Instant::now();
        let graph = w
            .dataset
            .materialize_scaled(cap, SplitMix::new(seed, "twin").next_u64());
        let materialize_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let a_hat = graph
            .normalized_adjacency()
            .map_err(|e| format!("normalizing the {} twin: {e}", w.dataset))?;
        let normalize_s = t.elapsed().as_secs_f64();
        let x = graph.random_features(w.dims[0], SplitMix::new(seed, "features").next_u64());
        let model = GcnModel::new(
            &GcnConfig::from_dims(w.dims.to_vec()),
            SplitMix::new(seed, "weights").next_u64(),
        );
        Ok(Inputs {
            graph,
            a_hat,
            x,
            model,
            materialize_s,
            normalize_s,
        })
    }

    pub fn vertices(&self) -> usize {
        self.a_hat.nrows()
    }
}

/// Poisson arrivals at `rate` per second: `n` due times as offsets from the
/// phase start (exponential gaps), ascending.
pub fn poisson_schedule(rng: &mut SplitMix, rate: f64, n: usize) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -rng.unit().ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// The targets of one request. One target: a vertex uniform at random.
/// More: the first `targets` vertices of a breadth-first ball around a
/// random seed vertex (neighbours in adjacency order), restarted from a
/// fresh seed vertex if the component runs out — distinct, ball order.
pub fn request_targets(rng: &mut SplitMix, a: &Csr, targets: usize) -> Vec<usize> {
    let n = a.nrows();
    let targets = targets.min(n);
    let mut ball: Vec<usize> = Vec::with_capacity(targets);
    while ball.len() < targets {
        let start = rng.below(n);
        if ball.contains(&start) {
            continue;
        }
        let mut head = ball.len();
        ball.push(start);
        while head < ball.len() && ball.len() < targets {
            for &c in a.row_cols(ball[head]) {
                let c = c as usize;
                if ball.len() < targets && !ball.contains(&c) {
                    ball.push(c);
                }
            }
            head += 1;
        }
    }
    ball
}

/// Sleeps to within 200 µs of `due`, then spins the remainder.
pub fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let mut a = SplitMix::new(7, "arrivals");
        let mut b = SplitMix::new(7, "arrivals");
        let mut c = SplitMix::new(7, "targets");
        let mut d = SplitMix::new(8, "arrivals");
        let (x, y, z, w) = (a.next_u64(), b.next_u64(), c.next_u64(), d.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert_ne!(x, w);
        for _ in 0..1000 {
            let u = a.unit();
            assert!(u > 0.0 && u <= 1.0);
            assert!(a.below(5) < 5);
        }
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_near_the_rate() {
        let s1 = poisson_schedule(&mut SplitMix::new(1, "arrivals"), 1000.0, 4000);
        let s2 = poisson_schedule(&mut SplitMix::new(1, "arrivals"), 1000.0, 4000);
        let s3 = poisson_schedule(&mut SplitMix::new(2, "arrivals"), 1000.0, 4000);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert!(s1.windows(2).all(|p| p[0] <= p[1]));
        let span = s1.last().expect("non-empty").as_secs_f64();
        assert!(
            (3.6..4.4).contains(&span),
            "4000 arrivals at 1000/s took {span}s"
        );
    }

    #[test]
    fn bfs_balls_are_seeded_distinct_and_connected_to_their_seed() {
        let w = spec::workload("serve_subgraph").expect("listed");
        let inputs = Inputs::build(w, 5, true).expect("smoke inputs build");
        let a = &inputs.a_hat;
        let ball = request_targets(&mut SplitMix::new(5, "targets"), a, 16);
        let again = request_targets(&mut SplitMix::new(5, "targets"), a, 16);
        let other = request_targets(&mut SplitMix::new(6, "targets"), a, 16);
        assert_eq!(ball, again);
        assert_ne!(ball, other);
        assert_eq!(ball.len(), 16);
        let mut uniq = ball.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 16);
        assert!(ball.iter().all(|&v| v < a.nrows()));
        // The second vertex is a neighbour of the seed vertex unless the
        // seed vertex is isolated (A_hat always holds the self loop).
        let seed_row = a.row_cols(ball[0]);
        assert!(seed_row.len() == 1 || seed_row.contains(&(ball[1] as u32)));
        let single = request_targets(&mut SplitMix::new(5, "targets"), a, 1);
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn inputs_repeat_per_seed() {
        let w = spec::workload("full_agg").expect("listed");
        let a = Inputs::build(w, 3, true).expect("builds");
        let b = Inputs::build(w, 3, true).expect("builds");
        let c = Inputs::build(w, 4, true).expect("builds");
        assert_eq!(a.a_hat, b.a_hat);
        assert_eq!(a.x, b.x);
        assert_eq!(a.model, b.model);
        assert_ne!(a.a_hat, c.a_hat);
        assert_eq!(a.vertices(), SMOKE_CAP);
    }
}
