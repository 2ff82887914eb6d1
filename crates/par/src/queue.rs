//! A bounded, closeable FIFO task queue — the admission-control primitive
//! behind the controller's serving core.
//!
//! [`TaskQueue`] is deliberately small: a `Mutex<VecDeque>` plus one
//! condvar. Producers never block — [`TaskQueue::try_push`] either admits
//! an item or returns it in [`PushError::Full`], which is what lets a
//! server *shed* load (reply "overloaded") instead of buffering without
//! bound. Consumers block in [`TaskQueue::pop`] until an item arrives or
//! the queue is closed and drained.
//!
//! ## Invariants (pinned by the unit tests here and the seeded
//! property tests in `tests/properties.rs`)
//!
//! * **FIFO**: items leave in the order they were admitted.
//! * **Exactly-once dispatch**: every admitted item is popped by exactly
//!   one consumer; no item is lost or duplicated.
//! * **Bounded**: the queue never holds more than `capacity` items, so
//!   `admitted - popped <= capacity` at every instant.
//! * **Conservation**: `admitted + rejected == submitted`.
//! * **Drain on close**: after [`TaskQueue::close`], pushes are rejected
//!   but pops keep returning queued items until the queue is empty, then
//!   return `None` — a graceful drain, not an abort.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why [`TaskQueue::try_push`] rejected an item. The item is handed back
/// so the caller can reply to, retry, or drop it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue already holds `capacity` items — shed the load.
    Full(T),
    /// The queue was closed; no new work is admitted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Consumes the error, returning the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(t) | PushError::Closed(t) => t,
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    peak: usize,
}

/// Bounded multi-producer multi-consumer FIFO queue with non-blocking
/// admission and blocking, close-aware consumption. See the module docs
/// for the invariant list.
pub struct TaskQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> TaskQueue<T> {
    /// A queue admitting at most `capacity` items (clamped to ≥ 1).
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                peak: 0,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        // Queue mutations are single statements; a panicking holder cannot
        // leave the state inconsistent, so poison is safe to clear.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits `item` if there is room, waking one consumer. Never blocks:
    /// a full (or closed) queue returns the item in the error so the
    /// caller can shed it with a typed reply.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        inner.peak = inner.peak.max(inner.items.len());
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and returns it, or returns
    /// `None` once the queue is closed **and** drained. Queued items are
    /// always delivered before the close is observed.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: subsequent pushes are rejected with
    /// [`PushError::Closed`]; consumers drain the remaining items and then
    /// see `None`. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued (racy by nature; for telemetry).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of the queue depth since construction — the
    /// `controller.queue_depth_peak` gauge reads this per-instance value,
    /// and the bounded-capacity tests assert `peak <= capacity`.
    pub fn peak(&self) -> usize {
        self.lock().peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_consumer() {
        let q = TaskQueue::bounded(8);
        for i in 0..8 {
            q.try_push(i).expect("room");
        }
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn full_queue_sheds_and_returns_item() {
        let q = TaskQueue::bounded(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(e @ PushError::Full(_)) => assert_eq!(e.into_inner(), 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn close_drains_then_none() {
        let q = TaskQueue::bounded(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert!(matches!(q.try_push("c"), Err(PushError::Closed("c"))));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed queue stays closed");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(TaskQueue::<u32>::bounded(4));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.close();
        for w in waiters {
            assert_eq!(w.join().unwrap(), None);
        }
    }

    #[test]
    fn concurrent_exactly_once_and_bounded() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 500;
        let q = Arc::new(TaskQueue::<usize>::bounded(7));
        let admitted = Arc::new(AtomicUsize::new(0));
        let shed = Arc::new(AtomicUsize::new(0));
        let popped = Arc::new(Mutex::new(Vec::new()));

        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                let admitted = Arc::clone(&admitted);
                let shed = Arc::clone(&shed);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        match q.try_push(p * PER_PRODUCER + i) {
                            Ok(()) => {
                                admitted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(PushError::Full(_)) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                                // Give consumers a chance so some items land.
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("queue closed early"),
                        }
                    }
                });
            }
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let q = Arc::clone(&q);
                    let popped = Arc::clone(&popped);
                    s.spawn(move || {
                        while let Some(item) = q.pop() {
                            popped.lock().unwrap().push(item);
                        }
                    })
                })
                .collect();
            // Close once all producers are done; consumers then drain.
            s.spawn({
                let q = Arc::clone(&q);
                let admitted = Arc::clone(&admitted);
                let shed = Arc::clone(&shed);
                move || {
                    // Wait for producers by polling the totals.
                    loop {
                        let done = admitted.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed);
                        if done == PRODUCERS * PER_PRODUCER {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    q.close();
                }
            });
            for c in consumers {
                c.join().unwrap();
            }
        });

        let popped = popped.lock().unwrap();
        let admitted = admitted.load(Ordering::Relaxed);
        let shed = shed.load(Ordering::Relaxed);
        assert_eq!(admitted + shed, PRODUCERS * PER_PRODUCER, "conservation");
        assert_eq!(popped.len(), admitted, "exactly-once dispatch");
        let mut unique: Vec<usize> = popped.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), popped.len(), "no item delivered twice");
        assert!(q.peak() <= q.capacity(), "capacity exceeded: {}", q.peak());
    }

    #[test]
    fn capacity_clamps_to_one() {
        let q = TaskQueue::bounded(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(q.try_push(2).is_err());
    }
}
