//! Load tier: the bounded serving core under saturation.
//!
//! Where `tests/soak.rs` asks "does the wire survive faults?", this tier
//! asks "does the controller survive *demand*?". A deliberately tiny
//! serving core (2 workers, queue depth 2 — capacity for 4 requests in
//! flight) is driven by a fleet several times that size, and the test
//! asserts the overload contract end to end:
//!
//! * **accounting** — every request ends in exactly one of two states:
//!   a reply bit-identical (`f64::to_bits`) to a serially computed
//!   ground truth, or a typed `{"error":"overloaded",...}` shed. No
//!   hangs, no silent drops, no third outcome.
//! * **convergence** — resilient clients (`connect_resilient`) treat the
//!   shed as transient, honor the server's `retry_after_ms` hint, and
//!   all complete once their own backoff spreads the load out.
//! * **deadlines** — with a zero queue-wait deadline every admitted
//!   request expires into the same typed overload shape
//!   (`reason:"deadline"`), and the connection stays usable.
//! * **connection caps** — a connection over `max_connections` gets the
//!   typed overload (`reason:"connection_limit"`) and a close, and the
//!   slot is reusable once the fleet shrinks.
//! * **reaping** — the live-connection count returns to zero after
//!   clients disconnect *without any new connection arriving* (the old
//!   thread-per-connection loop only reaped finished handlers on the
//!   next accept), and repeated rounds do not accumulate OS threads.
//! * **chaos** — the same saturation assertions hold under a seeded
//!   `pddl-faults` plan, composing backpressure with transport faults.
//!
//! The default run finishes in seconds; set `PDDL_LOAD_SECS=<n>` to keep
//! cycling derived fault seeds for at least `n` seconds (mirroring
//! `PDDL_SOAK_SECS`).

use pddl_cluster::{ClusterState, RetryPolicy, ServerClass};
use pddl_ddlsim::Workload;
use pddl_faults::FaultPlan;
use predictddl::{
    Controller, ControllerClient, ErrorReply, OfflineTrainer, PredictionRequest, ServeConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: usize = 12;
const REQUESTS_PER_CLIENT: usize = 15;

type Truth = Vec<(PredictionRequest, Result<u64, String>)>;

/// A serving core small enough that the client fleet saturates it
/// instantly: 2 workers + 2 queue slots against 12 concurrent clients.
fn tiny_serving() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 2,
        retry_after_ms: 2,
        ..ServeConfig::default()
    }
}

/// Generous budget for convergence rounds: sheds are *expected*, so the
/// retry budget must outlast the fleet draining through a 4-slot core.
fn patient_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
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

/// Whether `e` is the typed overload shed.
fn is_shed(e: &std::io::Error) -> bool {
    matches!(ErrorReply::of(e), Some(ErrorReply::Overloaded { .. }))
}

fn counter(name: &str) -> u64 {
    pddl_telemetry::snapshot().counter(name).unwrap_or(0)
}

fn gauge(name: &str) -> i64 {
    pddl_telemetry::snapshot().gauge(name).unwrap_or(0)
}

/// Polls `controller.live_connections()` down to `target` — detached
/// reader threads notice the dead socket within one poll interval.
fn await_live(controller: &Controller, target: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = controller.live_connections();
        if live <= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "live connections stuck at {live}, want <= {target} — reader threads leaked"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// OS thread count of this process (Linux); `None` elsewhere.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Saturation with *plain* clients: the fleet hammers a 4-slot core with
/// no backoff, so sheds are guaranteed, and every request must still end
/// in exactly one accounted outcome.
fn saturation_round(truth: &Truth) {
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), tiny_serving())
            .expect("bind saturation controller");
    let addr = controller.addr();
    let idle_gauge = gauge("controller.active_connections");

    let completed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (completed, shed) = (&completed, &shed);
            s.spawn(move || {
                let mut client =
                    ControllerClient::connect_with_timeout(addr, Duration::from_secs(20))
                        .expect("connect");
                for r in 0..REQUESTS_PER_CLIENT {
                    let i = c * REQUESTS_PER_CLIENT + r;
                    match client.predict(&truth[i].0) {
                        Ok(outcome) => {
                            let bits =
                                outcome.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
                            assert_eq!(bits, truth[i].1, "request {i} diverged from serial");
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            // The only legal failure is the typed shed —
                            // anything else is a hang surrogate or a
                            // silent drop surfacing as transport error.
                            let Some(&ErrorReply::Overloaded { retry_after_ms, .. }) =
                                ErrorReply::of(&e)
                            else {
                                panic!("request {i}: non-overload failure under saturation: {e}")
                            };
                            assert!(retry_after_ms > 0, "request {i}: empty retry_after hint");
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let (completed, shed) = (completed.into_inner(), shed.into_inner());
    assert_eq!(
        completed + shed,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64,
        "request accounting does not balance"
    );
    assert!(completed > 0, "a saturated core must still serve *some* requests");
    assert!(
        shed > 0,
        "{CLIENTS} hammering clients against a 4-slot core must shed \
         (completed={completed}) — is admission actually bounded?"
    );

    // Sheds keep the connection open: the gauge drops only once clients
    // disconnect, and must reach its pre-round level with no new accepts.
    await_live(&controller, 0);
    assert!(
        gauge("controller.active_connections") <= idle_gauge,
        "connection gauge did not return to its pre-round level"
    );
    drop(controller);
}

/// The same overload, but resilient clients: every request must converge
/// to its bit-identical reply once backoff spreads the fleet out.
fn convergence_round(seed: u64, truth: &Truth) {
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), tiny_serving())
            .expect("bind convergence controller");
    let addr = controller.addr();

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut client =
                    ControllerClient::connect_resilient(addr, patient_policy(seed ^ c as u64))
                        .expect("resilient connect");
                for r in 0..REQUESTS_PER_CLIENT {
                    let i = c * REQUESTS_PER_CLIENT + r;
                    let outcome = client
                        .predict(&truth[i].0)
                        .expect("request lost despite retry budget — fleet did not converge");
                    let bits = outcome.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
                    assert_eq!(bits, truth[i].1, "request {i} diverged from serial");
                }
            });
        }
    });
    await_live(&controller, 0);
}

/// A zero queue-wait deadline expires every admitted request into the
/// typed overload reply, and the connection survives to serve stats.
fn expiry_round() {
    let config = ServeConfig { request_deadline: Duration::ZERO, ..tiny_serving() };
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), config)
            .expect("bind expiry controller");
    let expired_before = counter("controller.requests_expired");

    let mut client =
        ControllerClient::connect_with_timeout(controller.addr(), Duration::from_secs(10))
            .expect("connect");
    let req = PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    );
    for i in 0..5 {
        let err = client.predict(&req).expect_err("zero deadline must expire the request");
        assert!(
            is_shed(&err),
            "expiry {i} was not the typed overload: {err}"
        );
    }
    // Stats frames are answered inline by the reader, not queued — they
    // must keep working on the same connection after five expiries.
    let snapshot = client.stats().expect("stats after expiries").snapshot;
    assert!(snapshot.counter("controller.requests_expired").unwrap_or(0) >= expired_before + 5);
    assert_eq!(controller.requests_served(), 0, "expired requests must not count as served");
}

/// One-line stats round trip on a raw socket; `Ok` is the reply line.
fn raw_stats(addr: std::net::SocketAddr) -> std::io::Result<String> {
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut w = stream.try_clone()?;
    w.write_all(b"{\"op\":\"stats\"}\n")?;
    w.flush()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(line)
}

/// Over-cap connections get the typed overload and a close; the slot is
/// admitted again once the fleet shrinks.
fn connection_cap_round() {
    let config = ServeConfig { max_connections: 1, ..tiny_serving() };
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), config)
            .expect("bind capped controller");
    let addr = controller.addr();
    let shed_before = counter("controller.connections_shed");

    // Occupy the single slot and round-trip once so the reader is live.
    let held = std::net::TcpStream::connect(addr).expect("first connect");
    held.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut held_w = held.try_clone().unwrap();
    held_w.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    held_w.flush().unwrap();
    let mut held_r = BufReader::new(held.try_clone().unwrap());
    let mut line = String::new();
    held_r.read_line(&mut line).unwrap();
    assert!(line.contains("snapshot"), "stats on the held connection: {line}");

    // The second connection must be shed with the typed reply, then EOF.
    let over = std::net::TcpStream::connect(addr).expect("second connect");
    over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut over_r = BufReader::new(over);
    let mut reply = String::new();
    over_r.read_line(&mut reply).expect("overload reply");
    assert!(reply.contains("\"error\":\"overloaded\""), "shed reply: {reply}");
    assert!(reply.contains("connection_limit"), "shed reply: {reply}");
    let mut rest = Vec::new();
    over_r.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "server kept talking after shedding the connection");
    assert!(counter("controller.connections_shed") > shed_before);

    // Release the slot; a new connection must eventually be admitted.
    drop(held_r);
    drop(held_w);
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match raw_stats(addr) {
            Ok(line) if line.contains("snapshot") => break,
            Ok(_) | Err(_) => {
                assert!(
                    Instant::now() < deadline,
                    "freed connection slot was never re-admitted"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Regression for the old `reap_finished` design (handlers were only
/// joined when the *next* connection arrived): the live count must fall
/// to zero after disconnects with no further accepts, and repeated
/// rounds must not accumulate OS threads.
fn reap_round() {
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), tiny_serving())
            .expect("bind reap controller");
    let addr = controller.addr();
    let req = PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 2),
    );
    let clients: Vec<_> = (0..5)
        .map(|_| {
            let mut c = ControllerClient::connect_with_timeout(addr, Duration::from_secs(10))
                .expect("connect");
            loop {
                match c.predict(&req) {
                    Ok(outcome) => {
                        outcome.expect("tiny-system predict");
                        break;
                    }
                    // A 4-slot core may shed even 5 clients; retry.
                    Err(e) if is_shed(&e) => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    Err(e) => panic!("predict: {e}"),
                };
            }
            // The connection itself, so all five stay open until the drop
            // below (returning the prediction closed each one on the spot,
            // and the live count raced the readers' exit).
            c
        })
        .collect();
    assert!(controller.live_connections() >= 5);
    drop(clients);
    // The regression: no new connection is made past this point.
    await_live(&controller, 0);
}

fn reap_regression() {
    reap_round(); // warm global pools (telemetry, work pool, allocator)
    let before = os_threads();
    for _ in 0..3 {
        reap_round();
    }
    if let (Some(before), Some(after)) = (before, os_threads()) {
        // Each leaked handler or worker would add threads per round; a
        // small slack absorbs lazily spawned process-global helpers.
        assert!(
            after <= before + 4,
            "OS thread count grew {before} -> {after} across controller rounds — \
             serving threads are leaking"
        );
    }
}

/// Transport faults only — mirrors `tests/soak.rs` (garbage stays 0; see
/// its module docs for the rationale).
fn plan_spec(seed: u64) -> String {
    format!("seed={seed},delay=0.06:2,reset=0.02,truncate=0.02,garbage=0.0,drop=0.02")
}

/// Saturation *and* chaos: resilient clients must still converge to
/// bit-identical replies when sheds interleave with injected resets,
/// truncations, and drops.
fn fault_round(seed: u64, truth: &Truth) {
    let config = ServeConfig {
        fault_plan: Some(FaultPlan::parse(&plan_spec(seed)).expect("plan spec")),
        ..tiny_serving()
    };
    let controller =
        Controller::serve_with("127.0.0.1:0", OfflineTrainer::tiny().train_full(), config)
            .expect("bind under fault plan");
    let addr = controller.addr();

    let fleet = CLIENTS.min(6);
    let per_client = REQUESTS_PER_CLIENT.min(10);
    std::thread::scope(|s| {
        for c in 0..fleet {
            s.spawn(move || {
                let mut client =
                    ControllerClient::connect_resilient(addr, patient_policy(seed ^ c as u64))
                        .expect("resilient connect under chaos");
                for r in 0..per_client {
                    let i = c * REQUESTS_PER_CLIENT + r;
                    let outcome = client
                        .predict(&truth[i].0)
                        .expect("request lost under faults despite retry budget");
                    let bits = outcome.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
                    assert_eq!(bits, truth[i].1, "seed {seed} request {i} diverged");
                }
            });
        }
    });
    await_live(&controller, 0);
}

#[test]
fn load_tier_saturates_the_bounded_core() {
    // Serial ground truth on a fault-free, unloaded system.
    let system = OfflineTrainer::tiny().train_full();
    let truth: Truth = workload_matrix()
        .into_iter()
        .map(|req| {
            let serial =
                system.predict(&req).map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
            (req, serial)
        })
        .collect();
    drop(system);

    saturation_round(&truth);
    convergence_round(0x10AD, &truth);
    expiry_round();
    connection_cap_round();
    reap_regression();
    fault_round(0x10AD_F417, &truth);

    // Opt-in extended run: keep cycling derived seeds for PDDL_LOAD_SECS.
    if let Ok(secs) = std::env::var("PDDL_LOAD_SECS") {
        let budget = Duration::from_secs(secs.parse().expect("PDDL_LOAD_SECS must be u64"));
        let start = Instant::now();
        let mut seed = 0x10AD_5EED_u64;
        while start.elapsed() < budget {
            saturation_round(&truth);
            convergence_round(seed, &truth);
            fault_round(seed, &truth);
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
    }

    println!(
        "load: {} shed, {} expired, {} connection sheds, {} client overloads, {} retries",
        counter("controller.requests_shed"),
        counter("controller.requests_expired"),
        counter("controller.connections_shed"),
        counter("controller_client.overloads"),
        counter("controller_client.retries"),
    );
}
