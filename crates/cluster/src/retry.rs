//! Capped, jittered exponential backoff for the wire-layer client (the
//! controller client in `predictddl`), and the one rule for which
//! failures are worth a retry. What a typed refusal carries is the
//! protocol's business (`predictddl::protocol::ErrorReply`), not this
//! module's.

use pddl_telemetry::rng::Rng;
use std::time::Duration;

/// Retry budget and pacing for one logical request.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (0 behaves as 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Cap on any single backoff sleep.
    pub max_delay: Duration,
    /// Per-attempt deadline applied to connect, reads, and writes.
    pub attempt_timeout: Duration,
    /// Seed of the jitter stream, so test schedules are reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            attempt_timeout: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A fast-paced policy for tests: tight timeouts, millisecond backoff.
    pub fn fast(jitter_seed: u64) -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            attempt_timeout: Duration::from_millis(500),
            jitter_seed,
        }
    }
}

/// The backoff state machine for one logical request.
#[derive(Clone, Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    failures: u32,
    rng: Rng,
}

impl Backoff {
    /// A fresh backoff under `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        let rng = Rng::new(policy.jitter_seed);
        Self { policy, failures: 0, rng }
    }

    /// Records a failed attempt. Returns the jittered delay to sleep
    /// before the next attempt, or `None` when the budget is exhausted.
    /// Jitter is uniform in `[d/2, d)` around the capped exponential `d`,
    /// decorrelating clients that fail in lockstep.
    pub fn next_delay(&mut self) -> Option<Duration> {
        self.failures += 1;
        if self.failures >= self.policy.max_attempts.max(1) {
            return None;
        }
        let exp = self.failures.saturating_sub(1).min(20);
        let raw = self
            .policy
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.policy.max_delay);
        let nanos = raw.as_nanos().min(u64::MAX as u128) as u64;
        let jittered = nanos / 2 + self.rng.below((nanos / 2 + 1) as usize) as u64;
        Some(Duration::from_nanos(jittered))
    }

    /// Failed attempts recorded so far.
    pub fn failures(&self) -> u32 {
        self.failures
    }
}

/// Transport-level failures worth a retry — as opposed to semantic
/// rejections (`InvalidData`, `InvalidInput`) that the server would repeat
/// verbatim. Includes `WouldBlock`, which covers both client-side read
/// timeouts and the typed transient replies (an overload shed, a router
/// re-route) that the controller client raises as `WouldBlock`.
pub fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::NotConnected
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_max_attempts() {
        let mut b = Backoff::new(RetryPolicy { max_attempts: 3, ..RetryPolicy::default() });
        assert!(b.next_delay().is_some());
        assert!(b.next_delay().is_some());
        assert!(b.next_delay().is_none());
    }

    #[test]
    fn delays_grow_and_cap() {
        let policy = RetryPolicy {
            max_attempts: 32,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let mut b = Backoff::new(policy);
        let delays: Vec<Duration> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 31);
        for (i, d) in delays.iter().enumerate() {
            let raw = policy.base_delay.saturating_mul(1u32 << i.min(20)).min(policy.max_delay);
            assert!(*d >= raw / 2, "delay {i} below jitter floor: {d:?}");
            assert!(*d <= raw, "delay {i} above cap: {d:?}");
        }
        // The tail is capped.
        assert!(delays[30] <= policy.max_delay);
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let policy = RetryPolicy { max_attempts: 10, jitter_seed: 42, ..RetryPolicy::default() };
        let mut a = Backoff::new(policy);
        let mut b = Backoff::new(policy);
        for _ in 0..9 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn zero_attempts_behaves_as_one() {
        let mut b = Backoff::new(RetryPolicy { max_attempts: 0, ..RetryPolicy::default() });
        assert!(b.next_delay().is_none());
    }
}
