//! Trace tier: end-to-end request tracing over the TCP controller.
//!
//! Four scenarios, all against an in-process controller speaking real
//! sockets:
//!
//! 1. a client-minted [`TraceContext`] carried through the wire envelope
//!    yields a correctly *parented* span tree in the `{"op":"trace"}`
//!    dump — root `request` span, pipeline children under it, and the
//!    inference stages (`embed_cache` / `ghn_embed` / `regress`) under
//!    the worker's `dispatch` span, with cache hit and miss
//!    distinguished by span status;
//! 2. retained trace ids are **deterministic** under a seeded
//!    [`pddl_faults`] plan: a zero queue deadline sheds every request,
//!    and two identically-seeded chaos rounds retain exactly the
//!    client-minted id set, with retries merged (unique span ids);
//! 3. the trace dump survives wire chaos: with truncating/resetting
//!    faults injected, `{"op":"trace"}` still eventually returns one
//!    frame of valid, parseable JSON;
//! 4. `{"op":"metrics"}` serves Prometheus text exposition naming the
//!    tracing metrics.
//!
//! The flight recorder is process-global, so the scenarios serialize on
//! a lock and reset it at entry.

use pddl_cluster::{ClusterState, RetryPolicy, ServerClass};
use pddl_ddlsim::Workload;
use pddl_faults::FaultPlan;
use pddl_telemetry::trace::{
    flight_recorder, parse_trace_dump, render_waterfall, stage_id, stages, ParsedTrace,
};
use pddl_telemetry::TraceContext;
use predictddl::{Controller, ControllerClient, OfflineTrainer, PredictionRequest, ServeConfig};
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Serializes scenarios: they all mutate the process-global recorder.
fn recorder_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn request(model: &str) -> PredictionRequest {
    PredictionRequest::zoo(
        Workload::standard(model, "cifar10"),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    )
}

fn span_set<'a>(t: &'a ParsedTrace, stage: &str) -> Vec<&'a pddl_telemetry::trace::ParsedSpan> {
    t.spans.iter().filter(|s| s.stage == stage).collect()
}

#[test]
fn traced_request_yields_parented_span_tree_over_wire() {
    let _g = recorder_lock().lock().unwrap_or_else(|e| e.into_inner());
    flight_recorder().reset();

    let controller = Controller::serve("127.0.0.1:0", OfflineTrainer::tiny().train_full())
        .expect("bind controller");
    let mut client = ControllerClient::connect(controller.addr()).expect("connect");

    // Same workload twice on one connection: the first embed is a cache
    // miss (GHN forward pass), the second a hit.
    let cold = TraceContext::root(0x7AC0_0001);
    let warm = TraceContext::root(0x7AC0_0002);
    client
        .predict_with_trace(&request("resnet18"), cold)
        .expect("transport")
        .expect("cold prediction");
    client
        .predict_with_trace(&request("resnet18"), warm)
        .expect("transport")
        .expect("warm prediction");

    // Successful requests are only *retained* past their own latency
    // (tail sampling keeps the happy path out of the dump); promote both
    // explicitly so the wire dump must carry the full trees.
    flight_recorder().promote(cold.trace_id, "slow");
    flight_recorder().promote(warm.trace_id, "slow");

    let dump = client.trace_dump().expect("op trace");
    let traces = parse_trace_dump(&dump).expect("parse dump");
    let find = |id: u64| {
        traces
            .iter()
            .find(|t| t.trace_id == id)
            .unwrap_or_else(|| panic!("trace {id:#x} not retained"))
    };
    let cold_t = find(cold.trace_id);
    let warm_t = find(warm.trace_id);

    // Root span: the context's own span id, parent 0, stage `request`.
    let root = span_set(cold_t, stages::REQUEST);
    assert_eq!(root.len(), 1, "exactly one root span");
    assert_eq!(root[0].span_id, cold.span_id);
    assert_eq!(root[0].parent_id, 0);
    assert_eq!(root[0].status, "ok");

    // Pipeline stages recorded by the reader and pool parent directly on
    // the root; `accept` anchors the first traced frame of a connection.
    for stage in [stages::ACCEPT, stages::FRAME_READ, stages::QUEUE_WAIT, stages::SERIALIZE] {
        let spans = span_set(cold_t, stage);
        assert_eq!(spans.len(), 1, "one {stage} span in cold trace");
        assert_eq!(spans[0].parent_id, cold.span_id, "{stage} parented on root");
    }

    // The worker's dispatch span wraps the inference stages: dispatch is
    // a deterministic child of the root, and embed/regress are its
    // children, not the root's.
    let dispatch_ctx = cold.child(stage_id(stages::DISPATCH).wrapping_add(1));
    let dispatch = span_set(cold_t, stages::DISPATCH);
    assert_eq!(dispatch.len(), 1);
    assert_eq!(dispatch[0].span_id, dispatch_ctx.span_id);
    assert_eq!(dispatch[0].parent_id, cold.span_id);
    for stage in [stages::EMBED_CACHE, stages::GHN_EMBED, stages::REGRESS] {
        let spans = span_set(cold_t, stage);
        assert_eq!(spans.len(), 1, "one {stage} span in cold trace");
        assert_eq!(spans[0].parent_id, dispatch_ctx.span_id, "{stage} under dispatch");
    }

    // Cache hit vs miss is visible in span status, and a hit skips the
    // GHN forward pass entirely.
    assert_eq!(span_set(cold_t, stages::EMBED_CACHE)[0].status, "miss");
    assert_eq!(span_set(warm_t, stages::EMBED_CACHE)[0].status, "hit");
    assert!(span_set(warm_t, stages::GHN_EMBED).is_empty(), "warm trace has no ghn_embed");
    // The connection's accept marker belongs to the first traced frame.
    assert!(span_set(warm_t, stages::ACCEPT).is_empty());

    // The CLI waterfall renders every retained stage.
    let waterfall = render_waterfall(&traces);
    for stage in [stages::REQUEST, stages::QUEUE_WAIT, stages::EMBED_CACHE, stages::REGRESS] {
        assert!(waterfall.contains(stage), "waterfall missing {stage}:\n{waterfall}");
    }
}

/// Transport chaos for the fault rounds (no garbage: payload corruption
/// is a different contract — see `tests/wire_fuzz.rs`).
fn plan_spec(seed: u64) -> String {
    format!("seed={seed},delay=0.05:1,reset=0.04,truncate=0.04,garbage=0.0,drop=0.03")
}

fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 24,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
        attempt_timeout: Duration::from_millis(500),
        jitter_seed: seed,
    }
}

/// One shed-everything chaos round: returns the retained trace-id set
/// and asserts every retained trace merged its retries (no duplicate
/// span ids).
fn shed_round(seed: u64, trace_ids: &[u64]) -> BTreeSet<u64> {
    flight_recorder().reset();
    let config = ServeConfig {
        // Zero deadline expires every admitted job: deterministic sheds,
        // so retention does not depend on load timing. A 1ms retry hint
        // keeps the clients' (futile) retry budgets cheap to drain.
        request_deadline: Duration::ZERO,
        retry_after_ms: 1,
        fault_plan: Some(FaultPlan::parse(&plan_spec(seed)).expect("plan spec")),
        ..ServeConfig::default()
    };
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), config)
            .expect("bind under fault plan");

    let mut client = ControllerClient::connect_resilient(controller.addr(), chaos_policy(seed))
        .expect("resilient connect");
    let req = request("alexnet");
    for &id in trace_ids {
        // Every attempt sheds; the retry budget drains and the overload
        // surfaces as an error. The *trace* is the product here.
        let _ = client.predict_with_trace(&req, TraceContext::root(id));
    }
    drop(client);
    drop(controller);

    let retained = flight_recorder().retained();
    for t in &retained {
        assert_eq!(t.verdict, "shed", "zero deadline retains as shed");
        let mut ids: Vec<u64> = t.spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), t.spans.len(), "retried trace {:#x} double-recorded spans", t.trace_id);
    }
    retained.iter().map(|t| t.trace_id).collect()
}

#[test]
fn retained_trace_ids_are_deterministic_under_seeded_faults() {
    let _g = recorder_lock().lock().unwrap_or_else(|e| e.into_inner());
    let trace_ids: Vec<u64> = (1..=12u64).map(|i| 0xDE7E_0000 + i).collect();
    let want: BTreeSet<u64> = trace_ids.iter().copied().collect();

    for seed in [11u64, 0xFA57] {
        let first = shed_round(seed, &trace_ids);
        let second = shed_round(seed, &trace_ids);
        // Same seed, same minted ids -> the same retained set, and it is
        // exactly the minted set: chaos reorders and retries requests
        // but cannot invent or lose a trace identity.
        assert_eq!(first, second, "seed {seed}: retained ids diverged between rounds");
        assert_eq!(first, want, "seed {seed}: retained ids are not the minted set");
    }
    flight_recorder().reset();
}

#[test]
fn trace_dump_stays_valid_json_under_wire_faults() {
    let _g = recorder_lock().lock().unwrap_or_else(|e| e.into_inner());
    flight_recorder().reset();

    let config = ServeConfig {
        fault_plan: Some(FaultPlan::parse(&plan_spec(0xD1CE)).expect("plan spec")),
        ..ServeConfig::default()
    };
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), config)
            .expect("bind under fault plan");

    let mut client = ControllerClient::connect_resilient(controller.addr(), chaos_policy(3))
        .expect("resilient connect");
    for i in 0..8u64 {
        let ctx = TraceContext::root(0xF00D_0000 + i);
        client
            .predict_with_trace(&request("squeezenet1_1"), ctx)
            .expect("request lost despite retry budget")
            .expect("prediction");
        flight_recorder().promote(ctx.trace_id, "slow");
    }

    // The dump op rides the same faulty transport; individual attempts
    // may die to a reset or a truncated frame (hence the fresh
    // read-timeout connection each try), but some attempt must deliver
    // one intact frame of valid JSON.
    let addr = controller.addr();
    let mut parsed = None;
    for _ in 0..32 {
        let Ok(mut probe) =
            ControllerClient::connect_with_timeout(addr, Duration::from_millis(500))
        else {
            continue;
        };
        if let Ok(dump) = probe.trace_dump() {
            parsed = Some(parse_trace_dump(&dump).expect("dump frame is not valid trace JSON"));
            break;
        }
    }
    let traces = parsed.expect("trace dump never survived the fault plan");
    assert!(traces.len() >= 8, "expected all promoted traces, got {}", traces.len());
    assert!(traces.iter().all(|t| !t.spans.is_empty()));
    flight_recorder().reset();
}

#[test]
fn metrics_op_serves_prometheus_exposition() {
    let _g = recorder_lock().lock().unwrap_or_else(|e| e.into_inner());

    let controller = Controller::serve("127.0.0.1:0", OfflineTrainer::tiny().train_full())
        .expect("bind controller");
    let mut client = ControllerClient::connect(controller.addr()).expect("connect");
    client
        .predict_with_trace(&request("vgg16"), TraceContext::root(0x3E7))
        .expect("transport")
        .expect("prediction");

    let expo = client.metrics_text().expect("op metrics");
    for needle in [
        "# TYPE pddl_controller_requests_total counter",
        "# TYPE pddl_trace_stage_queue_wait summary",
        "pddl_controller_traced_requests",
        "pddl_trace_stage_regress_count",
    ] {
        assert!(expo.contains(needle), "exposition missing {needle:?}:\n{expo}");
    }
}
