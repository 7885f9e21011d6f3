//! An injectable monotonic clock.
//!
//! The coordinator's mark-down / probe-cooldown / rejoin logic is all
//! "how long since" arithmetic on [`std::time::Instant`]s. Production uses
//! [`SystemClock`]; tests inject a [`TestClock`] and advance it
//! explicitly, so endpoint state transitions are exercised without real
//! sleeps.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A source of monotonic time.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// The real clock: [`Instant::now`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A manually advanced clock for tests: starts at a fixed base instant
/// and only moves when [`TestClock::advance`] is called.
#[derive(Debug)]
pub struct TestClock {
    base: Instant,
    offset: Mutex<Duration>,
}

impl TestClock {
    /// A clock frozen at the construction instant.
    pub fn new() -> TestClock {
        TestClock {
            base: Instant::now(),
            offset: Mutex::new(Duration::ZERO),
        }
    }

    /// Moves the clock forward by `by`.
    pub fn advance(&self, by: Duration) {
        *lock(&self.offset) += by;
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now(&self) -> Instant {
        self.base + *lock(&self.offset)
    }
}

/// Acquires the offset mutex, recovering from poisoning (a `Duration`
/// is valid in any state).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_only_moves_when_advanced() {
        let clock = TestClock::new();
        let t0 = clock.now();
        assert_eq!(clock.now(), t0);
        clock.advance(Duration::from_secs(3));
        assert_eq!(clock.now().duration_since(t0), Duration::from_secs(3));
    }
}
