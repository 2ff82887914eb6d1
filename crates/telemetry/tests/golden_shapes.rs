//! Golden fixtures for the two observability wire formats:
//!
//! 1. the registry snapshot served by `{"op":"stats"}`, and
//! 2. the retained-trace JSON served by `{"op":"trace"}`.
//!
//! Both renderers are deterministic for fixed inputs, so the fixtures pin
//! *exact bytes*, not just field names — the router's health probe and
//! the CLI read these formats, and a silent reshape is a breaking change.
//! On an intentional change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test -p pddl-telemetry --test golden_shapes`
//! and review the fixture diff like any other code change.

use pddl_telemetry::json;
use pddl_telemetry::trace::{render_waterfall, FlightRecorder, Stage, TraceDump};
use pddl_telemetry::{HistogramSnapshot, Snapshot, SpanStatus, TraceContext};
use std::path::PathBuf;
use std::time::Duration;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn check_or_regen(name: &str, live: &str) {
    let path = fixture_dir().join(name);
    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, live).unwrap();
        eprintln!("{name} regenerated — commit the fixture diff");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1", path.display())
    });
    assert_eq!(
        stored, live,
        "{name} drifted from the golden fixture \
         (intentional? regenerate with PDDL_REGEN_GOLDEN=1)"
    );
}

/// One of every metric kind, a fractional mean and a non-zero overflow
/// counter.
fn sample_snapshot() -> Snapshot {
    Snapshot {
        counters: vec![
            ("controller.requests".into(), 1024),
            ("controller.shed.queue_full".into(), 17),
        ],
        gauges: vec![("controller.active_connections".into(), 3)],
        histograms: vec![(
            "controller.queue_wait".into(),
            HistogramSnapshot {
                count: 900,
                sum: 123_456_789,
                min: 1_200,
                max: 9_800_000,
                mean: 137_174.2,
                p50: 80_000,
                p95: 2_100_000,
                p99: 7_500_000,
                overflow: 1,
            },
        )],
    }
}

/// Records `stage` on `r` as a child span of `parent`.
fn child(
    r: &FlightRecorder,
    parent: TraceContext,
    stage: Stage,
    start_us: u64,
    dur: Duration,
    status: SpanStatus,
) {
    r.record(stage, Some(stage.child_of(parent)), start_us, dur, status);
}

/// A fixed two-trace retained set: one shed request with a partial
/// pipeline, one errored request with a full one (cache miss included).
fn sample_recorder() -> FlightRecorder {
    let r = FlightRecorder::new(64, 8);
    let ms = Duration::from_millis;

    let shed = TraceContext::root(0x1111);
    child(&r, shed, Stage::FrameRead, 100, ms(1), SpanStatus::Ok);
    r.record(Stage::Request, Some(shed), 100, ms(2), SpanStatus::Shed);
    r.promote(shed.trace_id, "shed");

    let errored = TraceContext::root(0x2222);
    child(&r, errored, Stage::FrameRead, 500, ms(1), SpanStatus::Ok);
    child(&r, errored, Stage::QueueWait, 501, ms(2), SpanStatus::Ok);
    let dispatch = errored.child(1000);
    child(&r, dispatch, Stage::EmbedCache, 503, ms(3), SpanStatus::CacheMiss);
    child(&r, dispatch, Stage::GhnEmbed, 504, ms(2), SpanStatus::Ok);
    child(&r, dispatch, Stage::Regress, 507, ms(1), SpanStatus::Error);
    r.record(Stage::Dispatch, Some(dispatch), 503, ms(5), SpanStatus::Error);
    child(&r, errored, Stage::Serialize, 509, ms(1), SpanStatus::Ok);
    r.record(Stage::Request, Some(errored), 500, ms(10), SpanStatus::Error);
    r.promote(errored.trace_id, "error");

    r
}

#[test]
fn stats_snapshot_matches_golden_fixture() {
    let live = json::to_string(&sample_snapshot()).expect("a snapshot always encodes");
    check_or_regen("stats_snapshot.json", &live);
    assert_eq!(json::from_str::<Snapshot>(&live).expect("snapshot decodes"), sample_snapshot());
}

#[test]
fn trace_dump_matches_golden_fixture() {
    let live = sample_recorder().dump().to_line();
    check_or_regen("trace_dump.json", &live);
    assert_eq!(TraceDump::from_line(&live).expect("dump decodes"), sample_recorder().dump());
}

/// The waterfall rendering of the golden dump is itself pinned — the CLI
/// `trace` subcommand prints exactly this for these inputs.
#[test]
fn trace_waterfall_matches_golden_fixture() {
    let dump = TraceDump::from_line(&sample_recorder().dump().to_line()).expect("dump decodes");
    check_or_regen("trace_waterfall.txt", &render_waterfall(&dump.retained));
}
