//! Shard health supervision: a typed event log of shard-down causes.
//!
//! The runner turns two raw failure signals into typed [`ShardEvent`]s
//! here: a worker panic caught by the tracked task-graph executor, and a
//! halo exchange (`shard.exchange`) that exhausted its retry budget. Each event names the row block it hit, the layer being
//! executed, and the originating fault-site string. The runner's masked
//! replay records into it and marks a layer's events recovered once the
//! replay completes; callers read the log back through
//! [`ShardedGcn::health`] to see which injected fault each replay
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
}

impl std::fmt::Display for ShardDownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardDownCause::Panic => write!(f, "panic"),
            ShardDownCause::ExchangeFault => write!(f, "exchange-fault"),
        }
    }
}

/// One typed shard-down observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEvent {
    /// Row block (= shard) the failure is attributed to, when known.
    pub block: Option<usize>,
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

/// Bounded, thread-safe log of shard health events.
///
/// Task bodies record events while a layer graph is draining; the
/// recovery loop marks the affected layer recovered once its replay
/// completes. Locks are held only for the push/scan, never across task
/// execution.
#[derive(Debug, Default)]
pub struct HealthRegistry {
    events: Mutex<VecDeque<ShardEvent>>,
}

impl HealthRegistry {
    /// Records one event, evicting the oldest when the ring is full.
    pub fn record(&self, event: ShardEvent) {
        let mut events = self.lock();
        if events.len() >= EVENT_CAP {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// Marks every event of `layer` recovered (called after a successful
    /// masked replay of that layer's task graph).
    pub fn mark_recovered(&self, layer: usize) {
        for e in self.lock().iter_mut() {
            if e.layer == layer {
                e.recovered = true;
            }
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<ShardEvent> {
        self.lock().iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no events have been recorded (or all were cleared).
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drops all events.
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<ShardEvent>> {
        audit::recover("shard.health", &self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(block: usize, layer: usize, cause: ShardDownCause) -> ShardEvent {
        ShardEvent {
            block: Some(block),
            layer,
            cause,
            site: format!("test.site.{block}"),
            recovered: false,
        }
    }

    #[test]
    fn records_events_in_order() {
        let reg = HealthRegistry::default();
        assert!(reg.is_empty());
        reg.record(event(2, 0, ShardDownCause::Panic));
        reg.record(event(2, 1, ShardDownCause::ExchangeFault));
        assert_eq!(reg.len(), 2);
        assert_eq!(
            reg.events().last().unwrap().cause,
            ShardDownCause::ExchangeFault
        );
    }

    #[test]
    fn mark_recovered_flips_only_the_layer() {
        let reg = HealthRegistry::default();
        reg.record(event(0, 0, ShardDownCause::Panic));
        reg.record(event(1, 1, ShardDownCause::Panic));
        reg.mark_recovered(1);
        let ev = reg.events();
        assert!(!ev[0].recovered);
        assert!(ev[1].recovered);
    }

    #[test]
    fn ring_is_bounded() {
        let reg = HealthRegistry::default();
        for i in 0..(EVENT_CAP + 10) {
            reg.record(event(0, i, ShardDownCause::Panic));
        }
        assert_eq!(reg.len(), EVENT_CAP);
        assert_eq!(reg.events()[0].layer, 10, "oldest events were evicted");
    }

    #[test]
    fn clear_resets_everything() {
        let reg = HealthRegistry::default();
        reg.record(event(1, 0, ShardDownCause::ExchangeFault));
        reg.clear();
        assert!(reg.is_empty());
    }
}
