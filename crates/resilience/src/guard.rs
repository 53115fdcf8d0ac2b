//! Cooperative cancellation and wall-clock budgets for long runs.
//!
//! Simulator sweeps and multi-layer inference can run for a long time; a
//! production serving system needs to bound them without killing the
//! process. A [`RunGuard`] combines an optional [`CancelToken`] (another
//! thread asks the run to stop) with an optional wall-clock budget; the
//! instrumented loop polls [`RunGuard::should_stop`] at safe points and,
//! when asked to stop, returns a typed [`RunOutcome::Partial`] carrying
//! whatever progress it made instead of hanging or discarding it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared flag a controller sets to ask a running computation to stop.
///
/// Clones share the flag. Cancellation is sticky: once cancelled, always
/// cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask every computation holding a clone of this token to stop.
    pub fn cancel(&self) {
        // lint:allow(L006): sticky one-way flag polled at loop safe points;
        // no data is published through it.
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        // lint:allow(L006): see cancel().
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a guarded run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock budget was exhausted.
    BudgetExceeded,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::BudgetExceeded => write!(f, "wall-clock budget exceeded"),
        }
    }
}

/// Combined cancellation + wall-clock budget for one run.
#[derive(Debug, Clone)]
pub struct RunGuard {
    token: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl RunGuard {
    /// A guard that never stops the run (both mechanisms disabled).
    pub fn unbounded() -> Self {
        RunGuard {
            token: None,
            deadline: None,
        }
    }

    /// Stop the run once `budget` of wall-clock time has elapsed
    /// (measured from this call).
    pub fn with_budget(budget: Duration) -> Self {
        RunGuard::unbounded().and_budget(budget)
    }

    /// Stop the run when `token` is cancelled.
    pub fn with_token(token: CancelToken) -> Self {
        RunGuard {
            token: Some(token),
            deadline: None,
        }
    }

    /// Add a wall-clock budget to this guard (measured from now).
    ///
    /// If the guard already carries a deadline — e.g. it was derived from
    /// an enclosing guard via [`RunGuard::child_with_budget`] — the
    /// **tighter** of the two wins: a budget added inside an
    /// already-guarded region can only shrink the remaining time, never
    /// extend past the outer deadline.
    pub fn and_budget(mut self, budget: Duration) -> Self {
        let candidate = Instant::now() + budget;
        self.deadline = Some(match self.deadline {
            Some(existing) => existing.min(candidate),
            None => candidate,
        });
        self
    }

    /// Derive a guard for a nested region with its own `budget`: the child
    /// shares this guard's cancellation token, so cancelling the parent
    /// cancels the child, and its deadline is the tighter of the parent's
    /// and `now + budget`.
    pub fn child_with_budget(&self, budget: Duration) -> Self {
        self.clone().and_budget(budget)
    }

    /// Poll at loop safe points: `Some(reason)` once the run should stop.
    /// Cancellation takes priority over the budget.
    pub fn should_stop(&self) -> Option<StopReason> {
        if self.token.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::BudgetExceeded);
        }
        None
    }
}

impl Default for RunGuard {
    fn default() -> Self {
        RunGuard::unbounded()
    }
}

/// Result of a guarded run: finished, or typed partial progress.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome<T> {
    /// The run finished normally; the value is final.
    Complete(T),
    /// The guard stopped the run; `value` holds the progress made so far.
    Partial {
        /// Progress made before the stop (semantics defined per call site,
        /// e.g. "activations after `layers_done` layers").
        value: T,
        /// Why the run stopped.
        reason: StopReason,
    },
}

impl<T> RunOutcome<T> {
    /// Did the run finish without being stopped?
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete(_))
    }

    /// The carried value (complete or partial), by reference.
    pub fn get(&self) -> &T {
        match self {
            RunOutcome::Complete(v) | RunOutcome::Partial { value: v, .. } => v,
        }
    }

    /// Map the carried value, preserving completeness.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunOutcome<U> {
        match self {
            RunOutcome::Complete(v) => RunOutcome::Complete(f(v)),
            RunOutcome::Partial { value, reason } => RunOutcome::Partial {
                value: f(value),
                reason,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_stops() {
        let g = RunGuard::unbounded();
        assert_eq!(g.should_stop(), None);
    }

    #[test]
    fn cancellation_is_sticky_and_shared() {
        let t = CancelToken::new();
        let g = RunGuard::with_token(t.clone());
        assert_eq!(g.should_stop(), None);
        t.cancel();
        assert_eq!(g.should_stop(), Some(StopReason::Cancelled));
        assert!(t.clone().is_cancelled());
    }

    #[test]
    fn zero_budget_stops_immediately() {
        let g = RunGuard::with_budget(Duration::ZERO);
        assert_eq!(g.should_stop(), Some(StopReason::BudgetExceeded));
    }

    #[test]
    fn cancellation_outranks_budget() {
        let t = CancelToken::new();
        t.cancel();
        let g = RunGuard::with_token(t).and_budget(Duration::ZERO);
        assert_eq!(g.should_stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn nested_budget_cannot_extend_outer_deadline() {
        // Outer guard with an already-expired budget; an inner region
        // asking for a generous budget must stay expired.
        let outer = RunGuard::with_budget(Duration::ZERO);
        let inner = outer.child_with_budget(Duration::from_secs(3600));
        assert_eq!(inner.should_stop(), Some(StopReason::BudgetExceeded));
        // and_budget on an existing guard clamps the same way.
        let extended = outer.clone().and_budget(Duration::from_secs(3600));
        assert_eq!(extended.should_stop(), Some(StopReason::BudgetExceeded));
    }

    #[test]
    fn nested_budget_can_tighten() {
        let outer = RunGuard::with_budget(Duration::from_secs(3600));
        let inner = outer.child_with_budget(Duration::ZERO);
        assert_eq!(inner.should_stop(), Some(StopReason::BudgetExceeded));
        assert_eq!(outer.should_stop(), None);
    }

    #[test]
    fn child_shares_cancellation() {
        let t = CancelToken::new();
        let outer = RunGuard::with_token(t.clone());
        let inner = outer.child_with_budget(Duration::from_secs(3600));
        assert_eq!(inner.should_stop(), None);
        t.cancel();
        assert_eq!(inner.should_stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn outcome_accessors() {
        let c: RunOutcome<u32> = RunOutcome::Complete(3);
        assert!(c.is_complete());
        assert_eq!(*c.get(), 3);
        assert_eq!(*c.map(|v| v + 1).get(), 4);
        let p = RunOutcome::Partial {
            value: 7u32,
            reason: StopReason::BudgetExceeded,
        };
        assert!(!p.is_complete());
        assert_eq!(*p.get(), 7);
        assert!(matches!(
            p.map(|v| v * 2),
            RunOutcome::Partial {
                value: 14,
                reason: StopReason::BudgetExceeded
            }
        ));
    }
}
