//! Deterministic, seeded fault-injection registry.
//!
//! Call sites are instrumented with [`crate::fault_point!`] (panics /
//! artificial latency at an execution point) or [`crate::fault_point_err!`]
//! (typed early `return Err(..)`). Each site is identified by a
//! `&'static str` name such as `"pool.share"` or
//! `"graph.io.matrix_market"`.
//!
//! # Disarmed cost
//!
//! When injection is disarmed — the default — a fault point is a single
//! relaxed atomic load and a never-taken branch. No allocation, no lock,
//! no syscall. `crates/resilience/tests/zero_cost.rs` pins this with a
//! counting global allocator.
//!
//! # Arming
//!
//! * Environment: setting `FAULT_SEED=<u64>` arms the process-wide
//!   registry at first use. `FAULT_RATE=<f64>` (default `0.01`) sets the
//!   per-site firing probability, `FAULT_LATENCY_US=<u64>` (default `50`)
//!   the injected sleep, and `FAULT_POINTS=prefix=kind:rate,...` installs
//!   per-point overrides (e.g. `FAULT_POINTS=pool.=panic:0.05,sim.=latency`).
//! * Programmatic: [`arm`] installs a [`FaultConfig`] and returns an
//!   [`ArmedGuard`] that serializes armed regions across threads (tests in
//!   one binary cannot interleave two different fault configurations) and
//!   disarms on drop.
//!
//! # Determinism
//!
//! Whether a site fires on its `n`-th visit is a pure function of
//! `(seed, site name, n)` via an FNV-1a hash — independent of timing,
//! thread interleaving, and pointer addresses — so a failing chaos seed
//! replays exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::Duration;

/// Which failure mode a fault site injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with `panic!` at the site.
    Panic,
    /// Sleep for the configured latency, then continue normally.
    Latency,
    /// Make [`should_fail`] return `true`, so a `fault_point_err!` site
    /// returns its typed error.
    Error,
}

/// Per-point override selected by site-name prefix.
#[derive(Debug, Clone)]
pub struct PointOverride {
    /// Matches every site whose name starts with this prefix.
    pub prefix: String,
    /// Firing probability for matched sites (overrides the global rate).
    pub rate: f64,
    /// Pin the failure mode for matched sites instead of deriving it from
    /// the hash stream.
    pub kind: Option<FaultKind>,
}

/// Configuration installed by [`arm`] (or parsed from the environment).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the deterministic firing decisions.
    pub seed: u64,
    /// Default per-visit firing probability for every site.
    pub rate: f64,
    /// Sleep injected when a site fires with [`FaultKind::Latency`].
    pub latency: Duration,
    /// Prefix-matched per-point overrides; first match wins.
    pub overrides: Vec<PointOverride>,
}

impl FaultConfig {
    /// A config that fires nowhere; use the builder methods to enable sites.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            rate: 0.0,
            latency: Duration::from_micros(50),
            overrides: Vec::new(),
        }
    }

    /// Set the global per-visit firing probability.
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Set the injected latency for [`FaultKind::Latency`] firings.
    pub fn latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Add a per-point override for sites starting with `prefix`.
    pub fn point(mut self, prefix: &str, kind: FaultKind, rate: f64) -> Self {
        self.overrides.push(PointOverride {
            prefix: prefix.to_string(),
            rate,
            kind: Some(kind),
        });
        self
    }

    /// Seed + rate from `FAULT_SEED` / `FAULT_RATE` if set, else the given
    /// defaults. Used by chaos tests so a CI matrix can redirect the seed.
    pub fn from_env_or(seed: u64, rate: f64) -> Self {
        let seed = std::env::var("FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(seed);
        let rate = std::env::var("FAULT_RATE")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(rate);
        FaultConfig::new(seed).rate(rate)
    }
}

/// Counters for one fault site, reported by [`stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Times the site was visited while armed.
    pub visits: u64,
    /// Panics injected.
    pub panics: u64,
    /// Latency injections.
    pub latencies: u64,
    /// Typed-error injections.
    pub errors: u64,
}

/// Snapshot of all per-site counters since the registry was (re)armed.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Per-site counters keyed by site name.
    pub sites: BTreeMap<&'static str, SiteStats>,
}

impl FaultStats {
    /// Total injected failures (panics + latencies + errors) across sites.
    pub fn total_injected(&self) -> u64 {
        self.sites
            .values()
            .map(|s| s.panics + s.latencies + s.errors)
            .sum()
    }

    /// Total site visits while armed.
    pub fn total_visits(&self) -> u64 {
        self.sites.values().map(|s| s.visits).sum()
    }
}

struct Registry {
    config: FaultConfig,
    sites: BTreeMap<&'static str, SiteStats>,
}

// Fast-path flag: a disarmed fault point reads only this.
static ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);
// Serializes armed regions: two tests arming different configs in the same
// binary must not interleave.
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// `true` if fault injection is currently armed. The disarmed path is a
/// relaxed load (after a one-time env probe) — no allocation, no lock.
#[inline]
pub fn armed() -> bool {
    ENV_INIT.call_once(init_from_env);
    // lint:allow(L006): monotonic arm/disarm flag; the registry mutex inside
    // the armed slow path publishes the configuration itself.
    ARMED.load(Ordering::Relaxed)
}

fn init_from_env() {
    let Ok(seed) = std::env::var("FAULT_SEED") else {
        return;
    };
    let Ok(seed) = seed.trim().parse::<u64>() else {
        return;
    };
    let rate = std::env::var("FAULT_RATE")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.01);
    let latency_us = std::env::var("FAULT_LATENCY_US")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(50);
    let mut config = FaultConfig::new(seed)
        .rate(rate)
        .latency(Duration::from_micros(latency_us));
    if let Ok(points) = std::env::var("FAULT_POINTS") {
        config.overrides.extend(parse_points(&points));
    }
    install(config);
}

/// Parse `prefix=kind:rate` entries separated by `,` or `;`. `kind` and
/// `rate` are each optional (`pool.=panic`, `sim.=0.5`, `io=error:0.2`).
fn parse_points(spec: &str) -> Vec<PointOverride> {
    let mut out = Vec::new();
    for entry in spec.split([',', ';']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((prefix, val)) = entry.split_once('=') else {
            continue;
        };
        let mut kind = None;
        let mut rate = 1.0;
        for part in val.split(':') {
            match part.trim() {
                "panic" => kind = Some(FaultKind::Panic),
                "latency" => kind = Some(FaultKind::Latency),
                "error" => kind = Some(FaultKind::Error),
                other => {
                    if let Ok(r) = other.parse::<f64>() {
                        rate = r;
                    }
                }
            }
        }
        out.push(PointOverride {
            prefix: prefix.trim().to_string(),
            rate,
            kind,
        });
    }
    out
}

fn install(config: FaultConfig) {
    let mut reg = audit::recover("resilience.registry", &REGISTRY);
    *reg = Some(Registry {
        config,
        sites: BTreeMap::new(),
    });
    // lint:allow(L006): flag readers re-check under the registry mutex.
    ARMED.store(true, Ordering::Relaxed);
}

use crate::audit;

/// Guard returned by [`arm`]; disarms the registry when dropped and holds
/// the global arm lock so armed regions never interleave across threads.
pub struct ArmedGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        // lint:allow(L006): see install().
        ARMED.store(false, Ordering::Relaxed);
        *audit::recover("resilience.registry", &REGISTRY) = None;
    }
}

/// Arm fault injection with `config` for the lifetime of the returned
/// guard. Blocks until any other armed region has been dropped.
pub fn arm(config: FaultConfig) -> ArmedGuard {
    ENV_INIT.call_once(|| {}); // programmatic arming preempts env arming
    let lock = audit::recover("resilience.arm_lock", &ARM_LOCK);
    install(config);
    ArmedGuard { _lock: lock }
}

/// Snapshot the per-site counters of the currently armed registry
/// (empty when disarmed).
pub fn stats() -> FaultStats {
    let reg = audit::recover("resilience.registry", &REGISTRY);
    match reg.as_ref() {
        Some(r) => FaultStats {
            sites: r.sites.clone(),
        },
        None => FaultStats::default(),
    }
}

/// FNV-1a over the seed, site name, and per-site visit counter, finished
/// with the `fmix64` avalanche of MurmurHash3: the firing decision stream
/// is reproducible regardless of thread interleaving, and consecutive
/// visits of one site decide independently (FNV-1a alone leaves the last
/// bytes mixed — the visit counter's — barely reaching the top bits that
/// [`unit_interval`] reads).
fn decision_hash(seed: u64, site: &str, visit: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in seed.to_le_bytes() {
        mix(b);
    }
    for &b in site.as_bytes() {
        mix(b);
    }
    for b in visit.to_le_bytes() {
        mix(b);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn unit_interval(h: u64) -> f64 {
    // Top 53 bits → [0, 1); f64 has exactly 53 bits of mantissa.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Decide whether `site` fires on this visit and with which kind.
/// Returns the action plus the configured latency (for `Latency` firings).
fn decide(site: &'static str, err_site: bool) -> Option<(FaultKind, Duration)> {
    let mut reg = audit::recover("resilience.registry", &REGISTRY);
    let reg = reg.as_mut()?;
    let stats = reg.sites.entry(site).or_default();
    let visit = stats.visits;
    stats.visits += 1;

    let over = reg
        .config
        .overrides
        .iter()
        .find(|o| site.starts_with(o.prefix.as_str()));
    let rate = over.map_or(reg.config.rate, |o| o.rate);
    let pinned = over.and_then(|o| o.kind);

    let h = decision_hash(reg.config.seed, site, visit);
    if unit_interval(h) >= rate {
        return None;
    }
    // A second, independent hash stream picks the kind when not pinned.
    let kind = pinned.unwrap_or_else(|| {
        let k = decision_hash(reg.config.seed ^ 0x9e37_79b9_7f4a_7c15, site, visit);
        if err_site {
            FaultKind::Error
        } else if k & 1 == 0 {
            FaultKind::Panic
        } else {
            FaultKind::Latency
        }
    });
    match kind {
        FaultKind::Panic => stats.panics += 1,
        FaultKind::Latency => stats.latencies += 1,
        FaultKind::Error => stats.errors += 1,
    }
    Some((kind, reg.config.latency))
}

/// Slow path of [`crate::fault_point!`]: called only while armed. May panic or
/// sleep; an `Error` decision at a plain execution point falls back to a
/// panic (there is no error channel to return through).
#[cold]
pub fn inject_execution(site: &'static str) {
    // The registry lock is released before panicking/sleeping: `decide`
    // returns the action, we perform it here.
    match decide(site, false) {
        Some((FaultKind::Latency, latency)) => std::thread::sleep(latency),
        Some((FaultKind::Panic | FaultKind::Error, _)) => {
            panic!("injected fault at `{site}`")
        }
        None => {}
    }
}

/// Slow path of [`crate::fault_point_err!`]: called only while armed. Returns
/// `true` when the site should return its typed error this visit; a pinned
/// `Panic` kind panics instead, a `Latency` kind sleeps and returns `false`.
#[cold]
pub fn should_fail(site: &'static str) -> bool {
    match decide(site, true) {
        Some((FaultKind::Error, _)) => true,
        Some((FaultKind::Panic, _)) => panic!("injected fault at `{site}`"),
        Some((FaultKind::Latency, latency)) => {
            std::thread::sleep(latency);
            false
        }
        None => false,
    }
}

/// Execution fault point: may inject a panic or artificial latency at this
/// site while armed; a guaranteed no-op (one relaxed load) while disarmed.
///
/// ```
/// fn step() {
///     resilience::fault_point!("example.step");
///     // ... real work ...
/// }
/// step();
/// ```
#[macro_export]
macro_rules! fault_point {
    ($site:literal) => {
        if $crate::fault::armed() {
            $crate::fault::inject_execution($site);
        }
    };
}

/// Error-returning fault point: while armed, may `return Err($err)` from
/// the enclosing function at this site; a no-op while disarmed.
///
/// ```
/// fn load() -> Result<u32, String> {
///     resilience::fault_point_err!("example.load", "injected".to_string());
///     Ok(42)
/// }
/// assert_eq!(load(), Ok(42));
/// ```
#[macro_export]
macro_rules! fault_point_err {
    ($site:literal, $err:expr) => {
        if $crate::fault::armed() && $crate::fault::should_fail($site) {
            return Err($err);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_do_nothing() {
        // Hold the arm lock without arming, so no other test in this binary
        // can be armed meanwhile (FAULT_SEED is not set under `cargo test`).
        let _disarmed = audit::recover("resilience.arm_lock", &ARM_LOCK);
        assert!(!armed());
        fault_point!("test.noop");
        let r: Result<u32, &str> = (|| {
            fault_point_err!("test.noop.err", "nope");
            Ok(7)
        })();
        assert_eq!(r, Ok(7));
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let observe = |seed: u64| -> Vec<bool> {
            let _g = arm(FaultConfig::new(seed)
                .rate(0.5)
                .point("test.det", FaultKind::Error, 0.5));
            (0..64).map(|_| should_fail("test.det")).collect()
        };
        let a = observe(42);
        let b = observe(42);
        let c = observe(43);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ at rate 0.5");
        assert!(a.iter().any(|&x| x), "rate 0.5 must fire within 64 visits");
        assert!(!a.iter().all(|&x| x), "rate 0.5 must also pass sometimes");
    }

    #[test]
    fn one_sites_decisions_are_independent_across_visits() {
        // At rate 0.7, over 4096 seeds of 8 visits each: the firing fraction
        // and the share of seeds whose 8 visits all fire (0.7^8 = 5.76 %)
        // must both sit inside 5-sigma binomial bands. A hash whose visit
        // counter is not mixed into every output bit fires correlated runs.
        const SEEDS: u64 = 4096;
        const VISITS: usize = 8;
        let rate = 0.7f64;
        let (mut fired, mut full_runs) = (0usize, 0usize);
        for seed in 0..SEEDS {
            let _g = arm(FaultConfig::new(seed).point("gcn.layer", FaultKind::Error, rate));
            let run = (0..VISITS).filter(|_| should_fail("gcn.layer")).count();
            fired += run;
            full_runs += usize::from(run == VISITS);
        }
        let band = |trials: f64, p: f64| {
            let (mean, sd) = (trials * p, (trials * p * (1.0 - p)).sqrt());
            (mean - 5.0 * sd, mean + 5.0 * sd)
        };
        let (lo, hi) = band(SEEDS as f64 * VISITS as f64, rate);
        assert!(
            (lo..=hi).contains(&(fired as f64)),
            "{fired} firings outside [{lo:.0}, {hi:.0}]"
        );
        let (lo, hi) = band(SEEDS as f64, rate.powi(VISITS as i32));
        assert!(
            (lo..=hi).contains(&(full_runs as f64)),
            "{full_runs} seeds fired all {VISITS} visits, outside [{lo:.0}, {hi:.0}]"
        );
    }

    #[test]
    fn overrides_pin_kind_and_rate() {
        let _g = arm(FaultConfig::new(7).point("test.always", FaultKind::Error, 1.0));
        assert!(should_fail("test.always"));
        // Sites not matching the override use the global rate (0 here).
        assert!(!should_fail("other.site"));
        let s = stats();
        assert_eq!(s.sites["test.always"].errors, 1);
        assert_eq!(s.sites["other.site"].visits, 1);
        assert_eq!(s.sites["other.site"].errors, 0);
    }

    #[test]
    fn injected_panic_is_catchable_and_counted() {
        let _g = arm(FaultConfig::new(1).point("test.boom", FaultKind::Panic, 1.0));
        let r = std::panic::catch_unwind(|| {
            fault_point!("test.boom");
        });
        assert!(r.is_err());
        assert_eq!(stats().sites["test.boom"].panics, 1);
    }

    #[test]
    fn parse_points_grammar() {
        let p = parse_points("pool.=panic:0.5, sim.=latency; io=0.25,junk");
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].prefix, "pool.");
        assert_eq!(p[0].kind, Some(FaultKind::Panic));
        assert!((p[0].rate - 0.5).abs() < 1e-12);
        assert_eq!(p[1].kind, Some(FaultKind::Latency));
        assert!((p[1].rate - 1.0).abs() < 1e-12);
        assert_eq!(p[2].prefix, "io");
        assert_eq!(p[2].kind, None);
        assert!((p[2].rate - 0.25).abs() < 1e-12);
    }
}
