//! Shard health supervision: a typed event log of shard-down causes.
//!
//! The runner turns three raw failure signals into typed [`ShardEvent`]s
//! here: a worker panic caught by the tracked task-graph executor, a
//! `shard.exchange` fault that escaped its retry budget, and a per-task
//! deadline overrun. Each event names the shard (column-block) and row
//! block it hit, the layer being executed, and the originating fault-site
//! string. The runner's masked replay records into it and marks a layer's
//! events recovered once the replay completes; callers read the log back
//! through [`ShardedGcn::health`] to see which injected fault each replay
//! answered.
//!
//! [`ShardedGcn::health`]: crate::ShardedGcn::health
//!
//! The registry is a bounded ring: supervision must never become the
//! thing that runs the process out of memory during a fault storm.

use std::collections::VecDeque;
use std::sync::Mutex;

use resilience::audit;

/// Upper bound on retained events; older events are dropped first.
const EVENT_CAP: usize = 256;

/// Why a shard was marked down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDownCause {
    /// A task body panicked (caught by the executor; the event's `site`
    /// carries the rendered panic payload).
    Panic,
    /// A halo exchange exhausted its retry budget and surfaced a typed
    /// error.
    ExchangeFault,
    /// A task completed but overran the configured per-task deadline —
    /// the straggler signal a barrier-synchronized layer cannot hide.
    DeadlineOverrun,
}

impl std::fmt::Display for ShardDownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardDownCause::Panic => write!(f, "panic"),
            ShardDownCause::ExchangeFault => write!(f, "exchange-fault"),
            ShardDownCause::DeadlineOverrun => write!(f, "deadline-overrun"),
        }
    }
}

/// One typed shard-down observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEvent {
    /// Shard (grid block) the failure is attributed to, when known.
    pub shard: Option<usize>,
    /// Row block the failure is attributed to, when known.
    pub row_block: Option<usize>,
    /// Model layer index being executed when the failure hit.
    pub layer: usize,
    /// Cause classification.
    pub cause: ShardDownCause,
    /// Originating fault-site string (for injected panics this is the
    /// rendered panic payload, e.g. ``injected fault at `shard.task` ``).
    pub site: String,
    /// True once the layer the event occurred in was recovered (replayed
    /// to completion on surviving workers).
    pub recovered: bool,
}

/// Interior state: the bounded event ring plus per-shard strike counts.
#[derive(Debug, Default)]
struct HealthState {
    events: VecDeque<ShardEvent>,
    strikes: Vec<u64>,
}

/// Bounded, thread-safe log of shard health events.
///
/// Task bodies record events while a layer graph is draining; the
/// recovery loop marks the affected layer recovered once its replay
/// completes. Locks are held only for the push/scan, never across task
/// execution.
#[derive(Debug, Default)]
pub struct HealthRegistry {
    state: Mutex<HealthState>,
}

impl HealthRegistry {
    /// An empty registry sized for `shards` strike counters.
    pub fn new(shards: usize) -> HealthRegistry {
        HealthRegistry {
            state: Mutex::new(HealthState {
                events: VecDeque::with_capacity(EVENT_CAP.min(64)),
                strikes: vec![0; shards],
            }),
        }
    }

    /// Records one event, evicting the oldest when the ring is full, and
    /// bumps the attributed shard's strike counter.
    pub fn record(&self, event: ShardEvent) {
        let mut st = self.lock();
        if let Some(s) = event.shard {
            if let Some(k) = st.strikes.get_mut(s) {
                *k += 1;
            }
        }
        if st.events.len() >= EVENT_CAP {
            st.events.pop_front();
        }
        st.events.push_back(event);
    }

    /// Marks every event of `layer` recovered (called after a successful
    /// masked replay of that layer's task graph).
    pub fn mark_recovered(&self, layer: usize) {
        for e in self.lock().events.iter_mut() {
            if e.layer == layer {
                e.recovered = true;
            }
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<ShardEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// True when no events have been recorded (or all were cleared).
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Per-shard strike counts (events attributed to each shard since the
    /// last [`HealthRegistry::clear`]).
    pub fn strikes(&self) -> Vec<u64> {
        self.lock().strikes.clone()
    }

    /// Drops all events and zeroes the strike counters.
    pub fn clear(&self) {
        let mut st = self.lock();
        st.events.clear();
        for s in st.strikes.iter_mut() {
            *s = 0;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HealthState> {
        audit::recover("shard.health", &self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(shard: usize, layer: usize, cause: ShardDownCause) -> ShardEvent {
        ShardEvent {
            shard: Some(shard),
            row_block: None,
            layer,
            cause,
            site: format!("test.site.{shard}"),
            recovered: false,
        }
    }

    #[test]
    fn records_events_and_strikes() {
        let reg = HealthRegistry::new(4);
        assert!(reg.is_empty());
        reg.record(event(2, 0, ShardDownCause::Panic));
        reg.record(event(2, 1, ShardDownCause::ExchangeFault));
        reg.record(event(0, 1, ShardDownCause::DeadlineOverrun));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.strikes(), vec![1, 0, 2, 0]);
        assert_eq!(
            reg.events().last().unwrap().cause,
            ShardDownCause::DeadlineOverrun
        );
    }

    #[test]
    fn mark_recovered_flips_only_the_layer() {
        let reg = HealthRegistry::new(2);
        reg.record(event(0, 0, ShardDownCause::Panic));
        reg.record(event(1, 1, ShardDownCause::Panic));
        reg.mark_recovered(1);
        let ev = reg.events();
        assert!(!ev[0].recovered);
        assert!(ev[1].recovered);
    }

    #[test]
    fn ring_is_bounded() {
        let reg = HealthRegistry::new(1);
        for i in 0..(EVENT_CAP + 10) {
            reg.record(event(0, i, ShardDownCause::Panic));
        }
        assert_eq!(reg.len(), EVENT_CAP);
        assert_eq!(reg.events()[0].layer, 10, "oldest events were evicted");
        assert_eq!(reg.strikes()[0], (EVENT_CAP + 10) as u64);
    }

    #[test]
    fn clear_resets_everything() {
        let reg = HealthRegistry::new(2);
        reg.record(event(1, 0, ShardDownCause::ExchangeFault));
        reg.clear();
        assert!(reg.is_empty());
        assert_eq!(reg.strikes(), vec![0, 0]);
    }
}
