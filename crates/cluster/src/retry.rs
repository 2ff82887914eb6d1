//! Capped, jittered exponential backoff shared by the wire-layer clients
//! (the collector client here and the controller client in `predictddl`).

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

/// Why the server shed a request — the typed `reason` field of an
/// `overloaded` reply. Distinguishing the causes matters operationally:
/// `QueueFull` wants more capacity, `Deadline` wants a laxer deadline or
/// faster handlers, `ConnectionLimit` wants fewer clients per node, and
/// `Draining` is expected during rollout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded request queue was at capacity.
    QueueFull,
    /// The request expired in the queue past its deadline.
    Deadline,
    /// The per-controller connection cap was reached.
    ConnectionLimit,
    /// The server is draining for graceful shutdown.
    Draining,
    /// The reply carried no (or an unrecognized) reason — e.g. a peer
    /// predating the typed field.
    Unknown,
}

impl ShedReason {
    /// Wire name, as carried in the `reason` field of a shed reply.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Deadline => "deadline",
            ShedReason::ConnectionLimit => "connection_limit",
            ShedReason::Draining => "draining",
            ShedReason::Unknown => "unknown",
        }
    }

    /// Parses a wire name; anything unrecognized maps to `Unknown` rather
    /// than erroring — the reason is advisory.
    pub fn parse(s: &str) -> ShedReason {
        match s {
            "queue_full" => ShedReason::QueueFull,
            "deadline" => ShedReason::Deadline,
            "connection_limit" => ShedReason::ConnectionLimit,
            "draining" => ShedReason::Draining,
            _ => ShedReason::Unknown,
        }
    }
}

/// The error payload of a server-side load shed: the bounded serving core
/// replied `{"error":"overloaded","retry_after_ms":...,"reason":...}`
/// instead of doing the work. Classified as transient by [`is_transient`]
/// — the condition clears as soon as the queue drains — and carries the
/// server's advisory pacing hint ([`overload_retry_hint`]) and typed shed
/// reason ([`overload_reason`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// Server-suggested minimum wait before retrying.
    pub retry_after: Duration,
    /// Why the server shed the request.
    pub reason: ShedReason,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "server overloaded ({}); retry after {}ms",
            self.reason.as_str(),
            self.retry_after.as_millis()
        )
    }
}

impl std::error::Error for Overloaded {}

/// Wraps a shed reply as an `io::Error` that [`is_transient`] accepts, so
/// the resilient retry loops treat "overloaded" exactly like any other
/// transient transport failure — back off and try again. Replies without
/// a typed reason use [`ShedReason::Unknown`]; prefer
/// [`overloaded_error_with_reason`] when the reason is known.
pub fn overloaded_error(retry_after_ms: u64) -> std::io::Error {
    overloaded_error_with_reason(retry_after_ms, ShedReason::Unknown)
}

/// [`overloaded_error`] carrying the server's typed shed reason.
pub fn overloaded_error_with_reason(retry_after_ms: u64, reason: ShedReason) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::WouldBlock,
        Overloaded { retry_after: Duration::from_millis(retry_after_ms), reason },
    )
}

/// The server's `retry_after` hint, if `e` is an overload shed produced by
/// [`overloaded_error`]. Retry loops use it as a backoff floor.
pub fn overload_retry_hint(e: &std::io::Error) -> Option<Duration> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<Overloaded>())
        .map(|o| o.retry_after)
}

/// The typed shed reason, if `e` is an overload shed. Load generators and
/// dashboards use this to attribute sheds to their cause instead of
/// lumping them into one count.
pub fn overload_reason(e: &std::io::Error) -> Option<ShedReason> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<Overloaded>())
        .map(|o| o.reason)
}

/// The error payload of a router re-route: the shard a request was routed
/// to died before answering, membership has already absorbed the death
/// (epoch bumped, ring rebuilt), and the client should refresh its route
/// table and retry — the retry lands on the replacement shard. Classified
/// as transient by [`is_transient`]. The request was not executed twice:
/// this reply is only sent in place of an answer, and the dedup cache
/// absorbs replays of answered requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMoved {
    /// Membership epoch after the death was absorbed. A client whose
    /// cached route table already carries this epoch need not refresh.
    pub epoch: u64,
    /// Router-suggested minimum wait before retrying.
    pub retry_after: Duration,
}

impl std::fmt::Display for ShardMoved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard moved (membership epoch {}); retry after {}ms",
            self.epoch,
            self.retry_after.as_millis()
        )
    }
}

impl std::error::Error for ShardMoved {}

/// Wraps a router `shard_moved` reply as an `io::Error` that
/// [`is_transient`] accepts, carrying the post-death membership epoch
/// ([`shard_moved_epoch`]) and pacing hint ([`shard_moved_retry_hint`]).
pub fn shard_moved_error(epoch: u64, retry_after_ms: u64) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::WouldBlock,
        ShardMoved { epoch, retry_after: Duration::from_millis(retry_after_ms) },
    )
}

/// The membership epoch, if `e` is a `shard_moved` reply produced by
/// [`shard_moved_error`].
pub fn shard_moved_epoch(e: &std::io::Error) -> Option<u64> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<ShardMoved>())
        .map(|s| s.epoch)
}

/// The router's `retry_after` hint, if `e` is a `shard_moved` reply.
/// Retry loops use it as a backoff floor, like [`overload_retry_hint`].
pub fn shard_moved_retry_hint(e: &std::io::Error) -> Option<Duration> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<ShardMoved>())
        .map(|s| s.retry_after)
}

/// Transport-level failures worth a retry — as opposed to semantic
/// rejections (`InvalidData`, `InvalidInput`) that the server would repeat
/// verbatim. Includes `WouldBlock`, which covers both client-side read
/// timeouts and typed server overload sheds ([`overloaded_error`]).
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

    #[test]
    fn overload_errors_are_transient_and_carry_the_hint() {
        let e = overloaded_error(40);
        assert!(is_transient(&e), "overload must enter the retry path");
        assert_eq!(overload_retry_hint(&e), Some(Duration::from_millis(40)));
        assert_eq!(overload_reason(&e), Some(ShedReason::Unknown));
        assert!(e.to_string().contains("overloaded"), "{e}");
        // Unrelated errors of the same kind carry no hint or reason.
        let plain = std::io::Error::new(std::io::ErrorKind::WouldBlock, "timed out");
        assert_eq!(overload_retry_hint(&plain), None);
        assert_eq!(overload_reason(&plain), None);
    }

    #[test]
    fn shard_moved_errors_are_transient_and_carry_the_epoch() {
        let e = shard_moved_error(12, 15);
        assert!(is_transient(&e), "shard_moved must enter the retry path");
        assert_eq!(shard_moved_epoch(&e), Some(12));
        assert_eq!(shard_moved_retry_hint(&e), Some(Duration::from_millis(15)));
        // The two typed payloads do not cross-classify.
        assert_eq!(overload_retry_hint(&e), None);
        assert_eq!(shard_moved_epoch(&overloaded_error(5)), None);
        assert!(e.to_string().contains("epoch 12"), "{e}");
    }

    #[test]
    fn shed_reasons_round_trip_and_tolerate_garbage() {
        for r in [
            ShedReason::QueueFull,
            ShedReason::Deadline,
            ShedReason::ConnectionLimit,
            ShedReason::Draining,
            ShedReason::Unknown,
        ] {
            assert_eq!(ShedReason::parse(r.as_str()), r);
        }
        assert_eq!(ShedReason::parse("???"), ShedReason::Unknown);
        let e = overloaded_error_with_reason(10, ShedReason::QueueFull);
        assert_eq!(overload_reason(&e), Some(ShedReason::QueueFull));
        assert!(e.to_string().contains("queue_full"), "{e}");
    }
}
