//! # pddl-par
//!
//! A `std`-only fork-join work pool for the PredictDDL hot paths: batch
//! prediction fan-out, trace generation, hyperparameter grid search, and
//! per-dataset GHN training. No crates.io dependencies — like the rest of
//! the workspace, the pool is built on [`std::thread::scope`], atomics,
//! and nothing else, so it builds and runs in network-less containers.
//!
//! ## Determinism contract
//!
//! Every combinator in this crate is **order-preserving**: the output
//! vector's element `i` is exactly `f(&items[i])`, regardless of which
//! worker computed it or in which order workers finished. Callers that
//! reduce the results must do so over the returned vector (index order),
//! which makes pooled pipelines produce byte-identical results to their
//! serial equivalents — the property `predictddl`'s determinism tests
//! assert. Randomized tasks should derive their seed from the item (or its
//! index), never from the worker.
//!
//! ## Sizing
//!
//! The default worker count is [`std::thread::available_parallelism`],
//! overridable with the `PDDL_THREADS` environment variable (`PDDL_THREADS=1`
//! forces serial execution, useful for A/B benchmarking). Workers are
//! spawned per call inside a [`std::thread::scope`] — that is what lets
//! closures borrow non-`'static` data safely with zero `unsafe` — and the
//! ~10 µs spawn cost is negligible against the millisecond-scale tasks
//! this workspace runs (GHN forward passes, simulator sweeps, CV folds).
//!
//! ## Example
//!
//! ```
//! let squares = pddl_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

pub mod queue;

pub use queue::{PushError, TaskQueue};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Telemetry handles for pool activity (resolved once, lock-free after).
struct PoolMetrics {
    scopes: &'static pddl_telemetry::Counter,
    items: &'static pddl_telemetry::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        scopes: pddl_telemetry::counter("par.scopes"),
        items: pddl_telemetry::counter("par.items"),
    })
}

/// Default worker count: `PDDL_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism (1 if undetectable).
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("PDDL_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// A fork-join pool with a fixed worker count.
///
/// The pool holds no threads while idle; each [`WorkPool::map`] call spawns
/// up to `threads` scoped workers that pull item indices from a shared
/// atomic cursor and writes results back in item order. Use
/// [`WorkPool::global`] (or the free functions [`par_map`] /
/// [`par_filter_map`]) for the default machine-sized pool, or
/// `WorkPool::new(1)` to force a serial execution with identical semantics.
#[derive(Clone, Copy, Debug)]
pub struct WorkPool {
    threads: usize,
}

impl Default for WorkPool {
    fn default() -> Self {
        Self::global()
    }
}

impl WorkPool {
    /// A pool with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// The machine-sized pool ([`num_threads`] workers).
    pub fn global() -> Self {
        Self::new(num_threads())
    }

    /// Number of workers this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Parallel, order-preserving map: returns `vec![f(&items[0]), ...]`.
    ///
    /// `f` runs on up to [`WorkPool::threads`] workers; element order (and
    /// therefore any subsequent reduction order) is identical to the serial
    /// `items.iter().map(f).collect()`.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// Like [`WorkPool::map`], but the closure also receives the item index
    /// (e.g. to derive a per-item RNG seed deterministically).
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let m = pool_metrics();
        m.scopes.inc();
        m.items.add(items.len() as u64);
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        // Each worker pulls the next unclaimed index and records
        // `(index, result)` locally; the merge step scatters results back
        // into item order, so the output is independent of scheduling.
        let cursor = AtomicUsize::new(0);
        let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pddl-par worker panicked"))
                .collect()
        });

        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for local in per_worker.iter_mut() {
            for (i, r) in local.drain(..) {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }

    /// Parallel, order-preserving filter-map: `Some` results are kept in
    /// item order, `None`s dropped — the pooled equivalent of
    /// `items.iter().filter_map(f).collect()`.
    pub fn filter_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Option<R> + Sync,
    {
        self.map(items, f).into_iter().flatten().collect()
    }

    /// Splits `data` into disjoint chunks of `chunk_len` elements (the last
    /// may be shorter) and runs `f(chunk_index, chunk)` on each, fanning the
    /// chunks out over the pool's workers.
    ///
    /// This is the mutable counterpart of [`WorkPool::map`] for writers that
    /// own disjoint regions of one buffer — the tensor crate's blocked GEMM
    /// hands each macro-tile of the output matrix to a worker this way. The
    /// chunk partition depends only on `data.len()` and `chunk_len`, never on
    /// the worker count, so any computation that is deterministic per chunk
    /// stays deterministic across pool sizes.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        if data.is_empty() {
            return;
        }
        let n_chunks = data.len().div_ceil(chunk_len);
        let m = pool_metrics();
        m.scopes.inc();
        m.items.add(n_chunks as u64);
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }

        // Each chunk is a disjoint `&mut [T]`; workers pull the next
        // unclaimed one from a shared iterator. The lock is taken once per
        // chunk (not per element), so contention is negligible.
        let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let next = chunks.lock().expect("chunk iterator poisoned").next();
                    match next {
                        Some((i, chunk)) => f(i, chunk),
                        None => break,
                    }
                });
            }
        });
    }
}

/// [`WorkPool::map`] on the machine-sized global pool.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    WorkPool::global().map(items, f)
}

/// [`WorkPool::filter_map`] on the machine-sized global pool.
pub fn par_filter_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Option<R> + Sync,
{
    WorkPool::global().filter_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn map_preserves_order_across_pool_sizes() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = WorkPool::new(threads).map(&items, |&x| x * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_indexed_passes_true_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = WorkPool::new(4).map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn filter_map_keeps_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let got = WorkPool::new(7).filter_map(&items, |&x| (x % 3 == 0).then_some(x));
        let expect: Vec<u64> = (0..100).filter(|x| x % 3 == 0).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let seen = Mutex::new(HashSet::new());
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..1000).collect();
        WorkPool::new(8).map(&items, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(seen.lock().unwrap().insert(i), "item {i} ran twice");
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(seen.lock().unwrap().len(), 1000);
    }

    #[test]
    fn workers_actually_overlap() {
        // With 4 workers and 4 tasks that rendezvous on a barrier, the map
        // can only finish if the tasks run concurrently.
        use std::sync::Barrier;
        let barrier = Barrier::new(4);
        let items = [0u8; 4];
        let got = WorkPool::new(4).map(&items, |_| {
            barrier.wait();
            1u8
        });
        assert_eq!(got, vec![1, 1, 1, 1]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(WorkPool::new(8).map(&empty, |&x| x).is_empty());
        assert_eq!(WorkPool::new(8).map(&[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn borrowed_context_without_static_bounds() {
        // The whole point of the scoped design: closures may borrow stack
        // data. A Vec on the stack is summed from worker threads.
        let weights = [1.5f64, 2.5, 3.0];
        let items: Vec<usize> = (0..weights.len()).collect();
        let got = par_map(&items, |&i| weights[i] * 2.0);
        assert_eq!(got, vec![3.0, 5.0, 6.0]);
    }

    #[test]
    fn pool_metadata() {
        assert_eq!(WorkPool::new(0).threads(), 1, "clamped to one worker");
        assert!(WorkPool::global().threads() >= 1);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn chunked_writes_cover_every_element_once() {
        for threads in [1, 2, 3, 8] {
            for len in [0usize, 1, 7, 64, 257] {
                let mut data = vec![0u32; len];
                WorkPool::new(threads).for_each_chunk_mut(&mut data, 10, |i, chunk| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 10 + j) as u32 + 1;
                    }
                });
                let expect: Vec<u32> = (1..=len as u32).collect();
                assert_eq!(data, expect, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn chunk_partition_is_independent_of_pool_size() {
        // Same chunk indices and lengths no matter how many workers run.
        let collect = |threads: usize| {
            let mut data = vec![0u8; 23];
            let seen = Mutex::new(Vec::new());
            WorkPool::new(threads).for_each_chunk_mut(&mut data, 5, |i, chunk| {
                seen.lock().unwrap().push((i, chunk.len()));
            });
            let mut v = seen.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        let serial = collect(1);
        assert_eq!(serial, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 3)]);
        for threads in [2, 4, 16] {
            assert_eq!(collect(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn pooled_float_reduction_matches_serial_grouping() {
        // The determinism contract: reducing the returned vector in index
        // order is bit-identical no matter the pool size.
        let items: Vec<u64> = (1..200).collect();
        let f = |&x: &u64| 1.0f64 / x as f64;
        let serial: f64 = items.iter().map(f).fold(0.0, |a, b| a + b);
        for threads in [2, 5, 16] {
            let pooled: f64 = WorkPool::new(threads)
                .map(&items, f)
                .into_iter()
                .fold(0.0, |a, b| a + b);
            assert_eq!(serial.to_bits(), pooled.to_bits(), "threads={threads}");
        }
    }
}
