//! Demonstrates the full telemetry surface: counters, gauges, histograms
//! and their drop timers, `PDDL_LOG`-filtered structured logging, and the
//! JSON snapshot round-trip. Run with e.g.
//!
//! ```sh
//! PDDL_LOG=info,demo.inner=debug cargo run -p pddl-telemetry --example stats_demo
//! ```

use pddl_telemetry::{json, tlog, Level, Snapshot};
use std::time::Duration;

fn main() {
    // Counters and gauges: cached &'static handles, atomic updates.
    let requests = pddl_telemetry::counter("demo.requests");
    let active = pddl_telemetry::gauge("demo.active");
    for _ in 0..128 {
        requests.inc();
    }
    active.set(3);

    // Histogram with a known distribution so the printed quantiles can be
    // eyeballed: 1..=1000 microseconds-ish values.
    let hist = pddl_telemetry::histogram("demo.latency");
    for v in 1..=1000u64 {
        hist.record(v);
    }

    // A timer records wall time into its histogram when it ends; the
    // debug line shows only when the filter enables `demo.inner`.
    let inner = pddl_telemetry::histogram("demo.inner");
    for _ in 0..3 {
        let timer = inner.start_timer();
        std::thread::sleep(Duration::from_millis(2));
        timer.observe();
        tlog!(Level::Debug, "demo.inner", "slept", count = inner.count());
    }

    tlog!(
        Level::Info,
        "demo",
        "workload done",
        requests = requests.get(),
        active = active.get()
    );

    // Export, then parse our own export back (the same path
    // `ControllerClient::stats()` uses on the wire).
    let json = json::to_string(&pddl_telemetry::snapshot()).expect("a snapshot always encodes");
    let parsed: Snapshot = json::from_str(&json).expect("snapshot json round-trips");
    assert_eq!(parsed.counter("demo.requests"), Some(128));
    assert_eq!(parsed.gauge("demo.active"), Some(3));
    let lat = parsed.histogram("demo.latency").expect("histogram present");
    assert_eq!(lat.count, 1000);
    assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99);
    println!("{json}");
    eprintln!(
        "demo.latency: count={} min={} max={} p50={:.0} p95={:.0} p99={:.0}",
        lat.count, lat.min, lat.max, lat.p50, lat.p95, lat.p99
    );
}
