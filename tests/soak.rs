//! Chaos soak: an in-process controller, collector, and a small fleet of
//! resilient clients running under a deterministic [`pddl_faults`] plan.
//!
//! For every fault-plan seed the test asserts the exactly-once contract:
//! each client request yields exactly one accepted reply whose prediction
//! is **bit-identical** (`f64::to_bits`) to a serially computed ground
//! truth, no matter how many resets, truncations, dropped responses, or
//! delays the plan injects along the way. Afterwards the controller's
//! live-connection gauge must return to its pre-round value — handler
//! threads are reaped, not leaked.
//!
//! The default run uses three seeds and finishes in seconds; set
//! `PDDL_SOAK_SECS=<n>` to keep cycling through derived seeds for at
//! least `n` seconds (e.g. a nightly job).
//!
//! Garbage injection is deliberately left out of the soak plan: corrupting
//! request bytes in flight can mutate a *payload* while leaving the
//! `(client, id)` identity intact, which is a semantically different
//! request — not a transport fault the envelope protocol claims to mask.
//! Garbage bytes are covered by `tests/wire_fuzz.rs` and the `pddl-faults`
//! unit tests, where the assertion is "structured error, no panic".

use pddl_cluster::{
    ClusterState, CollectorClient, CollectorServer, RetryPolicy, ServerClass, ServerSpec,
};
use pddl_ddlsim::Workload;
use pddl_faults::{Direction, FaultPlan, FaultyWrite};
use pddl_telemetry::trace::flight_recorder;
use pddl_telemetry::TraceContext;
use std::io::Write;
use predictddl::{Controller, ControllerClient, OfflineTrainer, PredictionRequest, ServeConfig};
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 25;
const SEEDS: [u64; 3] = [7, 1913, 0xC0FFEE];

/// Transport faults only — see the module docs for why `garbage` stays 0.
fn plan_spec(seed: u64) -> String {
    format!("seed={seed},delay=0.06:2,reset=0.02,truncate=0.02,garbage=0.0,drop=0.02")
}

/// A generous budget: the plan's per-op fault rate makes multi-failure
/// request chains common, and a budget exhaustion fails the whole soak.
fn soak_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 24,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        attempt_timeout: Duration::from_millis(750),
        jitter_seed: seed,
    }
}

fn workload_matrix() -> Vec<PredictionRequest> {
    let models = ["resnet18", "vgg16", "squeezenet1_1", "alexnet"];
    (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|i| {
            PredictionRequest::zoo(
                Workload::new(models[i % models.len()], "cifar10", 64 + 32 * (i % 3), 1 + i % 4),
                ClusterState::homogeneous(ServerClass::GpuP100, 1 + i % 8),
            )
        })
        .collect()
}

fn gauge(name: &str) -> i64 {
    pddl_telemetry::snapshot().gauge(name).unwrap_or(0)
}

fn counter(name: &str) -> u64 {
    pddl_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// Polls a gauge back down to `target` — handler threads decrement on
/// exit, shortly after the sockets drop.
fn await_gauge(name: &str, target: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = gauge(name);
        if v <= target {
            return;
        }
        assert!(Instant::now() < deadline, "{name} stuck at {v}, want <= {target}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One full chaos round under `seed`'s fault plan.
fn soak_round(seed: u64, truth: &[(PredictionRequest, Result<u64, String>)]) {
    let spec = plan_spec(seed);

    // The same spec must reproduce the same fault sequence byte for byte —
    // this is what makes a soak failure reproducible from its seed alone.
    let run = |spec: &str| {
        let plan = FaultPlan::parse(spec).unwrap();
        let mut w = FaultyWrite::new(Vec::new(), plan.schedule(3, Direction::Write));
        let outcomes: Vec<_> = (0..256)
            .map(|i| w.write(&[i as u8; 16]).map_err(|e| e.kind()))
            .collect();
        (outcomes, format!("{:?}", w.log()))
    };
    assert_eq!(run(&spec), run(&spec), "fault schedule not reproducible");

    let config = ServeConfig {
        fault_plan: Some(FaultPlan::parse(&spec).expect("plan spec")),
        ..ServeConfig::default()
    };
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), config)
            .expect("bind under fault plan");
    let addr = controller.addr();

    let idle_connections = gauge("controller.active_connections");
    flight_recorder().reset();

    // Every request carries a client-minted trace context; the first two
    // per client are promoted into the retained set right after they
    // complete, so the round can assert trace identity survived the
    // chaos (retries and reconnects merge into ONE trace, not several).
    let trace_id = |i: usize| 0x50AC_0000_0000 + i as u64;
    const PROMOTED_PER_CLIENT: usize = 2;

    let results: Vec<Vec<(usize, Result<u64, String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = ControllerClient::connect_resilient(
                        addr,
                        soak_policy(seed ^ c as u64),
                    )
                    .expect("resilient connect");
                    (0..REQUESTS_PER_CLIENT)
                        .map(|r| {
                            let i = c * REQUESTS_PER_CLIENT + r;
                            let outcome = client
                                .predict_with_trace(&truth[i].0, TraceContext::root(trace_id(i)))
                                .expect("request lost despite retry budget");
                            if r < PROMOTED_PER_CLIENT {
                                flight_recorder().promote(trace_id(i), "soak");
                            }
                            (i, outcome.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string()))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Exactly one reply per request, each bit-identical to ground truth.
    let mut seen = vec![0usize; truth.len()];
    for (i, outcome) in results.into_iter().flatten() {
        seen[i] += 1;
        assert_eq!(outcome, truth[i].1, "seed {seed} request {i} diverged from serial");
    }
    assert!(seen.iter().all(|&n| n == 1), "seed {seed}: lost or duplicated replies");

    // Trace identity under chaos: each promoted request is retained as
    // exactly one trace holding its own id, and deterministic span
    // derivation keeps retried/replayed spans deduplicated.
    let retained = flight_recorder().retained();
    for c in 0..CLIENTS {
        for r in 0..PROMOTED_PER_CLIENT {
            let id = trace_id(c * REQUESTS_PER_CLIENT + r);
            let matches: Vec<_> = retained.iter().filter(|t| t.trace_id == id).collect();
            assert_eq!(matches.len(), 1, "seed {seed}: trace {id:#x} retained {} times", matches.len());
            let spans = &matches[0].spans;
            assert!(!spans.is_empty(), "seed {seed}: trace {id:#x} retained without spans");
            let mut ids: Vec<u64> = spans.iter().map(|sp| sp.span_id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                spans.len(),
                "seed {seed}: trace {id:#x} double-recorded spans across retries"
            );
        }
    }

    drop(controller);
    await_gauge("controller.active_connections", idle_connections);
}

/// Collector under the same chaos: heartbeats retry through resets and
/// dropped acks, and the inventory converges to the full fleet.
fn collector_round(seed: u64) {
    let plan = FaultPlan::parse(&plan_spec(seed)).expect("plan spec");
    let server = CollectorServer::bind("127.0.0.1:0", Some(plan)).expect("bind collector");
    let addr = server.addr();

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let spec =
                    ServerSpec::preset(ServerClass::GpuP100, format!("soak-node-{seed:x}-{c}"));
                let mut client =
                    CollectorClient::register_with_retry(addr, spec, soak_policy(seed ^ c as u64))
                        .expect("register under chaos");
                for beat in 0..20 {
                    client
                        .heartbeat(0.1 * (beat % 10) as f64, beat % 4)
                        .expect("heartbeat lost despite retry budget");
                }
            });
        }
    });

    let state = server.snapshot();
    assert_eq!(state.servers.len(), CLIENTS, "seed {seed}: inventory incomplete");
    assert!(state.servers.iter().all(|st| !st.stale));
}

#[test]
fn soak_exactly_once_under_fault_plans() {
    // Serial ground truth, computed once on a fault-free system.
    let system = OfflineTrainer::tiny().train_full();
    let requests = workload_matrix();
    let truth: Vec<(PredictionRequest, Result<u64, String>)> = requests
        .iter()
        .map(|req| {
            let serial = system
                .predict(req)
                .map(|p| p.seconds.to_bits())
                .map_err(|e| e.to_string());
            (req.clone(), serial)
        })
        .collect();

    // The pooled batch path must agree with the serial path bit-for-bit
    // before any chaos enters the picture.
    let pooled = system.predict_many(&requests);
    for (i, r) in pooled.into_iter().enumerate() {
        let pooled_bits = r.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
        assert_eq!(pooled_bits, truth[i].1, "pooled result {i} diverged from serial");
    }

    let faults_before = counter("faults.injected_resets")
        + counter("faults.truncated_writes")
        + counter("faults.dropped_writes")
        + counter("faults.injected_delays");

    for seed in SEEDS {
        soak_round(seed, &truth);
        collector_round(seed);
    }

    // Opt-in extended soak: keep cycling derived seeds for PDDL_SOAK_SECS.
    if let Ok(secs) = std::env::var("PDDL_SOAK_SECS") {
        let budget = Duration::from_secs(secs.parse().expect("PDDL_SOAK_SECS must be u64"));
        let start = Instant::now();
        let mut seed = 0x50AC_u64;
        while start.elapsed() < budget {
            soak_round(seed, &truth);
            collector_round(seed);
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
    }

    let faults_after = counter("faults.injected_resets")
        + counter("faults.truncated_writes")
        + counter("faults.dropped_writes")
        + counter("faults.injected_delays");
    assert!(
        faults_after > faults_before,
        "fault plan injected nothing ({faults_before} -> {faults_after}); soak exercised nothing"
    );

    // Retries (if any were needed) are visible in the stats counters.
    let retries = counter("controller_client.retries") + counter("collector_client.retries");
    let dedups = counter("controller.request_dedups");
    println!(
        "soak: {} injected faults, {retries} client retries, {dedups} deduplicated replays",
        faults_after - faults_before
    );
}
