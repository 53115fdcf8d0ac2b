//! Bounded retry with backoff, converting escaped panics into values.
//!
//! The retry loop wraps each attempt in `catch_unwind`, so a panicking
//! kernel (injected or real) becomes a recoverable [`Failure::Panic`]
//! rather than taking the process down. This is only sound for attempts
//! that are *idempotent re-runs from scratch*: every `*_into` kernel in
//! this workspace fully overwrites its output buffer, so a half-written
//! buffer from a crashed attempt is erased by the next one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// How many attempts to make and how long to pause between them.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first (`0` is treated as `1`).
    pub attempts: u32,
    /// Pause before the first re-attempt.
    pub backoff: Duration,
    /// Multiplier applied to the pause after each failed attempt.
    pub multiplier: u32,
    /// Upper bound on the pause between attempts.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts with 1 ms → 2 ms → 4 ms backoff.
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            backoff: Duration::from_millis(1),
            multiplier: 2,
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy with `attempts` tries and no pause between them.
    pub fn immediate(attempts: u32) -> Self {
        RetryPolicy {
            attempts,
            backoff: Duration::ZERO,
            multiplier: 1,
            max_backoff: Duration::ZERO,
        }
    }
}

/// One failed attempt: a typed error or a caught panic.
#[derive(Debug)]
pub enum Failure<E> {
    /// The attempt returned `Err`.
    Error(E),
    /// The attempt panicked; the payload rendered as text.
    Panic(String),
}

impl<E: std::fmt::Display> std::fmt::Display for Failure<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "error: {e}"),
            Failure::Panic(p) => write!(f, "panic: {p}"),
        }
    }
}

/// All attempts failed.
#[derive(Debug)]
pub struct RetryError<E> {
    /// How many attempts were made.
    pub attempts: u32,
    /// The failure from the final attempt.
    pub last: Failure<E>,
}

impl<E: std::fmt::Display> std::fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "all {} attempts failed; last: {}",
            self.attempts, self.last
        )
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for RetryError<E> {}

/// A successful value plus how much recovery it took to get it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery<T> {
    /// The successful result.
    pub value: T,
    /// Attempts made, including the successful one (`1` = first try).
    pub attempts: u32,
    /// Panics caught and retried on the way.
    pub recovered_panics: u32,
    /// Typed errors retried on the way.
    pub recovered_errors: u32,
}

/// Render a caught panic payload as text (`&str` and `String` payloads
/// pass through; anything else becomes a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        // lint:allow(L009): failure path only — runs after a panic was
        // already caught, so the steady-state hot loop never gets here.
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        // lint:allow(L009): failure path only (see above).
        "non-string panic payload".to_string()
    }
}

/// Run `f` until it succeeds or the policy is exhausted, catching panics.
///
/// `f` must be an idempotent re-run from scratch (see module docs) — that
/// is why wrapping it in `AssertUnwindSafe` is sound: no attempt observes
/// state a previous crashed attempt left behind.
pub fn run<T, E, F>(policy: &RetryPolicy, mut f: F) -> Result<Recovery<T>, RetryError<E>>
where
    F: FnMut() -> Result<T, E>,
{
    let attempts = policy.attempts.max(1);
    let mut pause = policy.backoff;
    let mut recovered_panics = 0;
    let mut recovered_errors = 0;
    let mut made = 0;
    loop {
        made += 1;
        let outcome = catch_unwind(AssertUnwindSafe(&mut f));
        let failure = match outcome {
            Ok(Ok(value)) => {
                return Ok(Recovery {
                    value,
                    attempts: made,
                    recovered_panics,
                    recovered_errors,
                })
            }
            Ok(Err(e)) => Failure::Error(e),
            Err(payload) => Failure::Panic(panic_message(payload.as_ref())),
        };
        if made >= attempts {
            return Err(RetryError {
                attempts: made,
                last: failure,
            });
        }
        match failure {
            Failure::Error(_) => recovered_errors += 1,
            Failure::Panic(_) => recovered_panics += 1,
        }
        if !pause.is_zero() {
            std::thread::sleep(pause.min(policy.max_backoff));
            pause = pause.saturating_mul(policy.multiplier.max(1));
        }
    }
}

/// The payload prefix of every panic a fault site injects
/// ([`fault_point!`](crate::fault_point)).
const INJECTED_PANIC_PREFIX: &str = "injected fault at";

/// Silence *injected* panics for the guard's lifetime; restores the
/// previous hook on drop.
///
/// Chaos tests inject hundreds of panics that are all caught and retried;
/// without this the default hook floods stderr with expected backtraces.
/// Only panics whose payload starts with `"injected fault at"` are
/// swallowed — anything else (a failed `assert!` in the test holding the
/// guard, a real bug) still reaches the previous hook, so a failing gate
/// keeps its message. The hook is process-global, so hold this only inside
/// regions already serialized by [`fault::arm`](crate::fault::arm).
pub fn quiet_panics() -> QuietPanicGuard {
    let prev = Arc::new(std::panic::take_hook());
    let forward = Arc::clone(&prev);
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = match payload.downcast_ref::<String>() {
            Some(s) => Some(s.as_str()),
            None => payload.downcast_ref::<&str>().copied(),
        };
        if !message.is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX)) {
            forward(info);
        }
    }));
    QuietPanicGuard { prev: Some(prev) }
}

/// The boxed process-global panic hook, as stored by `std::panic`.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// Guard returned by [`quiet_panics`].
pub struct QuietPanicGuard {
    prev: Option<Arc<PanicHook>>,
}

impl Drop for QuietPanicGuard {
    fn drop(&mut self) {
        // `take_hook` / `set_hook` panic on a panicking thread, and a panic
        // in a destructor during unwinding aborts the process. Dropped by a
        // failing test, the guard leaves its hook in place: it forwards
        // everything but injected panics anyway.
        if std::thread::panicking() {
            return;
        }
        let Some(prev) = self.prev.take() else {
            return;
        };
        // Dropping the quiet hook releases its clone of `prev`.
        drop(std::panic::take_hook());
        std::panic::set_hook(match Arc::try_unwrap(prev) {
            Ok(hook) => hook,
            // Guards dropped out of order: some other quiet hook still
            // forwards to this one.
            Err(shared) => Box::new(move |info| shared(info)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The panic hook is process-global: tests that install one take turns.
    static HOOK: Mutex<()> = Mutex::new(());

    fn hook_turn() -> std::sync::MutexGuard<'static, ()> {
        HOOK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn first_try_success_is_one_attempt() {
        let r: Recovery<u32> = run(&RetryPolicy::default(), || Ok::<_, String>(5)).unwrap();
        assert_eq!(r.value, 5);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.recovered_panics + r.recovered_errors, 0);
    }

    #[test]
    fn recovers_from_panics_and_errors() {
        let _turn = hook_turn();
        let _quiet = quiet_panics();
        let mut n = 0;
        let r = run(&RetryPolicy::immediate(4), || {
            n += 1;
            match n {
                1 => panic!("injected fault at `test`"),
                2 => Err("typed".to_string()),
                _ => Ok(n),
            }
        })
        .unwrap();
        assert_eq!(r.value, 3);
        assert_eq!(r.attempts, 3);
        assert_eq!(r.recovered_panics, 1);
        assert_eq!(r.recovered_errors, 1);
    }

    #[test]
    fn exhaustion_reports_last_failure() {
        let _turn = hook_turn();
        let _quiet = quiet_panics();
        let err = run::<u32, _, _>(&RetryPolicy::immediate(2), || {
            Err::<u32, _>("always".to_string())
        })
        .unwrap_err();
        assert_eq!(err.attempts, 2);
        assert!(matches!(err.last, Failure::Error(ref e) if e == "always"));
        assert!(err.to_string().contains("2 attempts"));
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let _turn = hook_turn();
        let _quiet = quiet_panics();
        let p = catch_unwind(|| panic!("injected fault at `literal`")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "injected fault at `literal`");
        let p = catch_unwind(|| panic!("injected fault at `{}`", "formatted")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "injected fault at `formatted`");
    }

    #[test]
    fn quiet_guard_forwards_real_panics_and_survives_an_unwinding_drop() {
        let _turn = hook_turn();
        static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let outer = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            SEEN.lock().unwrap().push(panic_message(info.payload()));
        }));
        {
            let _quiet = quiet_panics();
            let site = "site";
            assert!(catch_unwind(|| panic!("injected fault at `{site}`")).is_err());
            assert!(catch_unwind(|| panic!("injected fault at `site`")).is_err());
            assert!(catch_unwind(|| panic!("gate failed: no post-heal success")).is_err());
        }
        // A failing test drops the guard while unwinding. Before the fix
        // that `set_hook` call panicked inside the destructor and aborted
        // the whole test binary.
        let unwound = catch_unwind(|| {
            let _quiet = quiet_panics();
            panic!("assertion under the guard");
        });
        assert!(unwound.is_err());
        // The abandoned quiet hook still forwards what is not injected.
        assert!(catch_unwind(|| panic!("after the unwind")).is_err());
        std::panic::set_hook(outer);
        assert_eq!(
            *SEEN.lock().unwrap(),
            [
                "gate failed: no post-heal success",
                "assertion under the guard",
                "after the unwind",
            ]
        );
    }
}
