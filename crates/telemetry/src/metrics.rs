//! Atomic metric primitives and the name → handle registry.
//!
//! All update paths are lock-free (relaxed atomics). The registry itself
//! uses an `RwLock` only to resolve a name to a `&'static` handle — done
//! once per call site, not per update.

use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// Monotonic event counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one (relaxed).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (relaxed).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Signed instantaneous value (e.g. live connections).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Adds one (relaxed).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one (relaxed).
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `n`, which may be negative (relaxed).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (relaxed).
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (relaxed) — turns a gauge
    /// into a high-water mark, e.g. `controller.queue_depth_peak`.
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.set(0);
    }
}

/// Number of log₂ buckets: bucket `i` holds values whose bit length is `i`
/// (bucket 0 holds zero), so the full `u64` range is covered.
const NUM_BUCKETS: usize = 65;

/// Log-bucketed histogram of `u64` observations (latencies are recorded in
/// nanoseconds by convention; any magnitude-style value works).
///
/// Each bucket spans one power of two, giving ≤ 2× relative quantile error
/// over the whole `u64` range with a fixed 65-slot footprint and O(1)
/// lock-free recording.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Observations clamped into the top bucket because the raw value
    /// exceeded `u64` (e.g. a `Duration` over ~584 years of nanoseconds).
    overflow: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

impl Histogram {
    /// Records one observation. Lock-free: five relaxed atomic RMWs.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in nanoseconds. A duration whose
    /// nanosecond count exceeds `u64` is clamped to `u64::MAX` — it still
    /// lands in the top bucket instead of vanishing — and counted in
    /// [`Histogram::overflow`] so the saturation is visible.
    pub fn record_duration(&self, d: Duration) {
        match u64::try_from(d.as_nanos()) {
            Ok(ns) => self.record(ns),
            Err(_) => {
                self.overflow.fetch_add(1, Ordering::Relaxed);
                self.record(u64::MAX);
            }
        }
    }

    /// Number of clamped (overflowing) observations.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Starts a timer that records elapsed nanoseconds when dropped.
    pub fn start_timer(&self) -> HistTimer<'_> {
        HistTimer { hist: self, start: Instant::now() }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated q-quantile (q in [0, 1]), interpolated linearly inside the
    /// matching power-of-two bucket. Monotone in q. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot_quantile(&self.load_buckets(), q)
    }

    fn load_buckets(&self) -> [u64; NUM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    fn snapshot_quantile(&self, buckets: &[u64; NUM_BUCKETS], q: f64) -> u64 {
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in [1, total]: the observation index the quantile refers to.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                // Position of the rank inside this bucket, in (0, 1].
                let frac = (rank - cum) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                // Clamp into observed range so estimates never exceed max.
                let min = self.min.load(Ordering::Relaxed);
                let max = self.max.load(Ordering::Relaxed);
                return (est.round() as u64).clamp(min.min(max), max);
            }
            cum += c;
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Point-in-time summary with p50/p95/p99.
    pub fn summarize(&self) -> HistogramSnapshot {
        let buckets = self.load_buckets();
        let count = buckets.iter().sum::<u64>();
        let sum = self.sum.load(Ordering::Relaxed);
        let (min, max) = if count == 0 {
            (0, 0)
        } else {
            (self.min.load(Ordering::Relaxed), self.max.load(Ordering::Relaxed))
        };
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50: self.snapshot_quantile(&buckets, 0.50),
            p95: self.snapshot_quantile(&buckets, 0.95),
            p99: self.snapshot_quantile(&buckets, 0.99),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
    }
}

/// Guard from [`Histogram::start_timer`]; records on drop.
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl HistTimer<'_> {
    /// Stops the timer, recording the elapsed time now.
    pub fn observe(self) {}
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Name → handle registry. Metrics are leaked (`&'static`) on first
/// registration: the set of metric names is small and fixed, and `'static`
/// handles are what keep the hot path lock-free.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, &'static Counter>>,
    gauges: RwLock<HashMap<String, &'static Gauge>>,
    histograms: RwLock<HashMap<String, &'static Histogram>>,
}

fn resolve<T: Default>(map: &RwLock<HashMap<String, &'static T>>, name: &str) -> &'static T {
    if let Some(&m) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return m;
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    w.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(T::default())))
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter handle for `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        resolve(&self.counters, name)
    }

    /// Gauge handle for `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        resolve(&self.gauges, name)
    }

    /// Histogram handle for `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        resolve(&self.histograms, name)
    }

    /// Reads every registered metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.summarize()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { counters, gauges, histograms }
    }

    /// Zeroes every registered metric (tests and bench harnesses).
    pub fn reset(&self) {
        for c in self.counters.read().unwrap_or_else(|e| e.into_inner()).values() {
            c.reset();
        }
        for g in self.gauges.read().unwrap_or_else(|e| e.into_inner()).values() {
            g.reset();
        }
        for h in self.histograms.read().unwrap_or_else(|e| e.into_inner()).values() {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(std::ptr::eq(c, r.counter("c")), "same handle on re-resolve");
        let g = r.gauge("g");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let r = Registry::new();
        let g = r.gauge("peak");
        g.set_max(5);
        assert_eq!(g.get(), 5);
        g.set_max(3);
        assert_eq!(g.get(), 5, "lower values do not regress the peak");
        g.set_max(9);
        assert_eq!(g.get(), 9);
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    for v in 0..1000 {
                        g.set_max(t * 1000 + v);
                    }
                });
            }
        });
        assert_eq!(g.get(), 7999, "concurrent maxima converge to the largest");
    }

    #[test]
    fn concurrent_counter_increments_all_land() {
        let r = Registry::new();
        let c = r.counter("par");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn bucket_of_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_partition_the_range() {
        let mut expected_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} lower bound");
            assert!(hi >= lo);
            // Every value inside the bounds maps back to bucket i.
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            expected_lo = hi.wrapping_add(1);
        }
    }

    #[test]
    fn histogram_summary_tracks_extremes_and_mean() {
        let h = Histogram::default();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.summarize();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 100);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 40);
        assert!((s.mean - 25.0).abs() < 1e-9);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= 40 && s.p50 >= 10);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = Histogram::default().summarize();
        assert_eq!((s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99), (0, 0, 0, 0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn quantiles_bracket_uniform_data_within_bucket_error() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Power-of-two buckets give ≤ 2× relative error.
        let p50 = h.quantile(0.5);
        assert!((250..=1000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((495..=1000).contains(&p99), "p99 {p99}");
        assert!(h.quantile(0.0) >= 1);
        assert_eq!(h.quantile(1.0), h.summarize().max);
    }

    /// Seeded property loop: quantiles are monotone in q and bounded by
    /// [min, max] for random observation sets.
    #[test]
    fn quantile_monotonicity_property() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for case in 0..200 {
            let h = Histogram::default();
            let n = 1 + (next() % 500) as usize;
            for _ in 0..n {
                // Mix magnitudes: from tiny to huge.
                let shift = next() % 60;
                h.record(next() >> shift);
            }
            let s = h.summarize();
            let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
            for w in qs.windows(2) {
                assert!(w[0] <= w[1], "case {case}: non-monotone quantiles {qs:?}");
            }
            assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "case {case}: {s:?}");
            assert!(*qs.first().unwrap() >= s.min, "case {case}");
            assert!(*qs.last().unwrap() <= s.max, "case {case}");
        }
    }

    #[test]
    fn overflowing_duration_is_clamped_and_counted() {
        let h = Histogram::default();
        // ~584 years: one nanosecond past what u64 can hold.
        let too_long = Duration::from_secs(u64::MAX / 1_000_000_000 + 1);
        h.record_duration(too_long);
        h.record_duration(Duration::from_nanos(5));
        let s = h.summarize();
        assert_eq!(s.count, 2, "clamped observation still recorded");
        assert_eq!(s.max, u64::MAX, "clamped into the top bucket");
        assert_eq!(s.overflow, 1);
        assert_eq!(h.overflow(), 1);
        h.reset();
        assert_eq!(h.overflow(), 0, "reset clears the overflow count");
    }

    #[test]
    fn timer_records_into_histogram() {
        let h = Histogram::default();
        {
            let _t = h.start_timer();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        let s = h.summarize();
        assert!(s.min >= 1_000_000, "at least 1ms in ns, got {}", s.min);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("x");
        let h = r.histogram("y");
        c.add(3);
        h.record(9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(r.counter("x").get(), 1);
    }
}
