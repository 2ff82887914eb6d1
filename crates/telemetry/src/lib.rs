//! # pddl-telemetry
//!
//! Workspace-wide observability for the PredictDDL service: a global,
//! cheap-to-hit metrics registry (atomic counters, gauges and log-bucketed
//! latency histograms), lightweight [`Span`]s that record wall-clock into
//! those histograms, structured JSON logging to stderr gated by the
//! `PDDL_LOG` environment filter, and a JSON snapshot exporter served live
//! over the controller wire protocol (`{"op":"stats"}`).
//!
//! On top of the flat metrics sit two request-level facilities:
//!
//! * [`trace`] — per-request [`TraceContext`]s and a lock-free
//!   [`FlightRecorder`] ring of span events with tail-sampled retention
//!   of shed / errored / slow traces, served via `{"op":"trace"}`;
//! * [`expo`] — Prometheus-style text exposition of the registry,
//!   served via `{"op":"metrics"}`.
//!
//! Built entirely on `std`, so every crate in the workspace can depend on
//! it without weight — which is also why the workspace's one JSON codec
//! ([`json`]: the [`JsonValue`] tree and the `ToJson` / `FromJson` traits
//! behind every wire frame and checkpoint) lives here.
//!
//! ## Hot-path cost
//!
//! Metric handles are `&'static` references resolved once through the
//! registry (a read lock); after that, every operation is lock-free:
//! [`Counter::inc`] is one relaxed `fetch_add`, a [`Histogram`] record is a
//! handful of relaxed atomic RMWs, and a [`Span`] enter/exit adds two
//! `Instant` reads on top. Cache the handle (`OnceLock` static or a struct
//! field) on hot paths; the repo benchmark's `telemetry.trace_overhead_ratio`
//! reports what the instrumentation costs end to end.
//!
//! ## Example
//!
//! ```
//! use pddl_telemetry as tel;
//!
//! let requests = tel::counter("demo.requests");
//! let latency = tel::histogram("demo.latency");
//! {
//!     let _timer = latency.start_timer(); // records ns on drop
//!     requests.inc();
//! }
//! let snap = tel::snapshot();
//! assert!(snap.counter("demo.requests").unwrap() >= 1);
//! let json = snap.to_json();
//! let back = tel::Snapshot::from_json(&json).unwrap();
//! assert_eq!(back.counter("demo.requests"), snap.counter("demo.requests"));
//! ```
//!
//! ## `PDDL_LOG` filter syntax
//!
//! `PDDL_LOG=<default>[,<target-prefix>=<level>]*` where a level is one of
//! `off`, `error`, `warn`, `info`, `debug`, `trace`. The longest matching
//! target prefix wins. Examples:
//!
//! * `PDDL_LOG=info` — everything at info and above;
//! * `PDDL_LOG=warn,controller=debug` — debug for the controller (and
//!   `controller.request` etc.), warnings elsewhere;
//! * `PDDL_LOG=off` — silence all structured logging.
//!
//! Unset, logging defaults to off; parsing is lazy and happens once.

#![warn(missing_docs)]

pub mod expo;
pub mod hash;
pub mod json;
mod log;
mod metrics;
mod snapshot;
mod span;
pub mod trace;

pub use json::{push_json_string, JsonValue};
pub use log::{log_enabled, log_line, FieldValue, Level, LogFilter};
pub use metrics::{Counter, Gauge, HistTimer, Histogram, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::Span;
pub use trace::{flight_recorder, FlightRecorder, SpanEvent, SpanStatus, TraceContext};

use std::sync::OnceLock;

fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Global counter handle; registers the name on first use. The returned
/// reference is `'static` — resolve once and increment lock-free after.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// Global gauge handle; registers the name on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    global().gauge(name)
}

/// Global histogram handle; registers the name on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    global().histogram(name)
}

/// Consistent snapshot of every registered metric, names sorted.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// [`snapshot`] rendered as a JSON object.
pub fn snapshot_json() -> String {
    snapshot().to_json()
}

/// Zeroes every registered metric (handles stay valid). Intended for tests
/// and for `--metrics-reset` style tooling; concurrent updates may land
/// before or after the reset.
pub fn reset() {
    global().reset()
}
