//! Shard tier: the consistent-hash serving fleet end to end over TCP.
//!
//! Where `tests/load.rs` saturates one bounded controller, this tier
//! stands up the whole serving plane — N controller shards behind a
//! `pddl-router` — and asserts the fleet contract:
//!
//! * **transparency** — a prediction routed through the router is
//!   bit-identical (`f64::to_bits`) to the serially computed ground
//!   truth; the router adds placement, never arithmetic. Malformed
//!   frames pass through and come back with the shard's own typed error,
//!   exactly as on a direct connection.
//! * **observability** — `{"op":"route_table"}` against the router is
//!   the live fleet membership; against a bare controller it is the
//!   one-entry identity table, and sharded stats replies carry the
//!   responding shard id (surfaced by `ControllerClient::last_shard`).
//! * **bounded movement** — adding a shard moves keys *only* onto the
//!   new shard, and only a bounded fraction of them; everything else
//!   keeps its placement (cache-warm shards stay warm).
//! * **convergence + exactly-once** — killing a shard mid-load bumps the
//!   membership epoch within one probe interval, and every in-flight
//!   request still completes exactly once with its bit-identical answer:
//!   resilient clients ride the typed `shard_moved` signal onto the
//!   survivor ring, and the shard-side dedup cache absorbs replays.
//! * **chaos** — the same convergence holds when the shards themselves
//!   run under a seeded `pddl-faults` wire plan (replay the seed with
//!   `--fault-plan` per TESTING.md to reproduce a failure).
//!
//! Requires a network-enabled environment (CI), like the load tier.

use pddl_cluster::retry::{overload_retry_hint, shard_moved_retry_hint};
use pddl_cluster::{ClusterState, RetryPolicy, ServerClass, MAX_FRAME_BYTES};
use pddl_ddlsim::Workload;
use pddl_faults::FaultPlan;
use pddl_router::{routing_key, Router, RouterConfig};
use pddl_telemetry::json;
use predictddl::{
    Controller, ControllerClient, OfflineTrainer, PredictionRequest, ServeConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 10;

type Truth = Vec<(PredictionRequest, Result<u64, String>)>;

/// A roomy per-shard core: this tier tests placement and failover, not
/// admission control (the load tier owns that).
fn shard_config(shard: u64) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 16,
        retry_after_ms: 2,
        shard_id: Some(shard),
        ..ServeConfig::default()
    }
}

/// Fast probes so death discovery fits test budgets.
fn router_config() -> RouterConfig {
    RouterConfig {
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(100),
        retry_after_ms: 2,
        ..RouterConfig::default()
    }
}

/// Retry budget generous enough to ride out a shard death mid-request.
fn patient_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        attempt_timeout: Duration::from_millis(750),
        jitter_seed: seed,
    }
}

/// The tiny system, trained once per process and replicated through its
/// JSON round trip ([`predictddl::PredictDdl`] is not `Clone`; training
/// is deterministic, so a re-train would be bit-identical anyway — this
/// just keeps the tier fast on one core).
fn tiny_system() -> predictddl::PredictDdl {
    static BLOB: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let blob = BLOB.get_or_init(|| {
        json::to_string(&OfflineTrainer::tiny().train_full()).expect("serialize system")
    });
    json::from_str(blob).expect("deserialize system")
}

/// `n` identical shard replicas with `shard_id` 0..n — any shard's
/// answer is THE answer.
fn spawn_fleet(n: usize) -> (Vec<Option<Controller>>, Vec<SocketAddr>) {
    spawn_fleet_under(n, None)
}

/// [`spawn_fleet`], optionally with the shards wearing a wire-fault plan.
fn spawn_fleet_under(
    n: usize,
    fault_plan: Option<FaultPlan>,
) -> (Vec<Option<Controller>>, Vec<SocketAddr>) {
    let shards: Vec<Option<Controller>> = (0..n)
        .map(|i| {
            let config = ServeConfig { fault_plan, ..shard_config(i as u64) };
            Some(Controller::serve_with("127.0.0.1:0", tiny_system(), config).expect("bind shard"))
        })
        .collect();
    let addrs = shards.iter().map(|c| c.as_ref().unwrap().addr()).collect();
    (shards, addrs)
}

/// Distinct workloads spanning the key space. Every request has a unique
/// batch size, so every request owns a distinct routing key — which makes
/// the resize test's per-key movement accounting exact.
fn workload_matrix() -> Vec<PredictionRequest> {
    let models = ["resnet18", "vgg16", "squeezenet1_1", "alexnet"];
    (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|i| {
            PredictionRequest::zoo(
                Workload::new(models[i % models.len()], "cifar10", 64 + i, 1 + i % 4),
                ClusterState::homogeneous(ServerClass::GpuP100, 1 + i % 8),
            )
        })
        .collect()
}

/// Serial ground truth on a fault-free, unloaded system.
fn ground_truth() -> Truth {
    let system = tiny_system();
    workload_matrix()
        .into_iter()
        .map(|req| {
            let serial =
                system.predict(&req).map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
            (req, serial)
        })
        .collect()
}

#[test]
fn routed_replies_are_bit_identical_to_direct() {
    let truth = ground_truth();
    let (_shards, addrs) = spawn_fleet(2);
    let router = Router::serve("127.0.0.1:0", &addrs, router_config()).expect("bind router");

    let mut client = ControllerClient::connect_with_timeout(router.addr(), Duration::from_secs(20))
        .expect("connect through router");
    for (i, (req, want)) in truth.iter().enumerate() {
        let outcome = loop {
            match client.predict(req) {
                Ok(o) => break o,
                Err(e) if overload_retry_hint(&e).is_some() => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Err(e) => panic!("request {i} through router: {e}"),
            }
        };
        let bits = outcome.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
        assert_eq!(&bits, want, "request {i} diverged through the router");
    }

    // Malformed frames pass through: the shard's typed error comes back
    // on the same connection, exactly as on a direct connection.
    let stream = std::net::TcpStream::connect(router.addr()).expect("raw connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(b"this is not json\n").unwrap();
    w.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("typed error reply");
    assert!(line.contains("err"), "malformed pass-through reply: {line}");
}

#[test]
fn route_tables_and_shard_echo_expose_the_fleet() {
    let (_shards, addrs) = spawn_fleet(2);
    let config = router_config();
    let router = Router::serve("127.0.0.1:0", &addrs, config).expect("bind router");

    // Against the router: the live fleet membership.
    let mut via_router =
        ControllerClient::connect_with_timeout(router.addr(), Duration::from_secs(10))
            .expect("connect router");
    let table = via_router.route_table().expect("fleet route table");
    assert_eq!(table.epoch, 1, "fresh fleet starts at epoch 1");
    assert_eq!(table.vnodes, config.vnodes);
    assert!(table.shard.is_none(), "fleet table is not an identity table");
    assert_eq!(table.shards.len(), 2);
    assert!(table.shards.iter().all(|s| s.healthy));
    assert_eq!(via_router.cached_route().expect("cached").epoch, table.epoch);

    // Against a bare shard: the one-entry identity table, and the stats
    // reply carries the shard id instead of dropping it.
    let mut direct = ControllerClient::connect_with_timeout(addrs[1], Duration::from_secs(10))
        .expect("connect shard 1");
    let identity = direct.route_table().expect("identity table");
    assert_eq!(identity.shard, Some(1));
    assert_eq!(identity.shards.len(), 1);
    assert_eq!(direct.last_shard(), None, "no shard observed before any reply");
    direct.stats().expect("stats");
    assert_eq!(direct.last_shard(), Some(1), "stats must surface the responding shard");
}

#[test]
fn adding_a_shard_moves_keys_only_onto_it() {
    let truth = ground_truth();
    let (_shards, addrs) = spawn_fleet(3);
    // Start with shards 0 and 1; shard 2 joins later.
    let router =
        Router::serve("127.0.0.1:0", &addrs[..2], router_config()).expect("bind router");

    // Resilient clients envelope requests, so every reply echoes the
    // answering shard — that is the placement map.
    let mut client = ControllerClient::connect_resilient(router.addr(), patient_policy(0x5A))
        .expect("connect");
    let placement = |client: &mut ControllerClient, truth: &Truth| -> Vec<u64> {
        truth
            .iter()
            .enumerate()
            .map(|(i, (req, want))| {
                let outcome = client.predict(req).expect("resilient predict");
                let bits = outcome.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
                assert_eq!(&bits, want, "request {i} diverged");
                client.last_shard().expect("enveloped reply echoes its shard")
            })
            .collect()
    };
    let before = placement(&mut client, &truth);
    assert!(before.iter().all(|&s| s < 2), "only shards 0/1 exist yet");

    let new_id = router.add_shard(addrs[2]);
    assert_eq!(router.epoch(), 2, "resize bumps the membership epoch");
    let after = placement(&mut client, &truth);

    // Identical workloads share a key, so group movement by key: a key
    // either keeps its shard or moves to the new one — never sideways.
    let mut moved_keys = std::collections::HashSet::new();
    let mut keys = std::collections::HashSet::new();
    for (i, (req, _)) in truth.iter().enumerate() {
        let key = routing_key(req);
        keys.insert(key);
        if after[i] != before[i] {
            assert_eq!(
                after[i], new_id,
                "request {i} moved to shard {} instead of the new shard",
                after[i]
            );
            moved_keys.insert(key);
        }
    }
    assert!(
        moved_keys.len() * 2 <= keys.len(),
        "a 2->3 resize moved {}/{} keys — movement is not bounded",
        moved_keys.len(),
        keys.len()
    );
}

#[test]
fn shard_death_converges_exactly_once() {
    let truth = ground_truth();
    let (mut shards, addrs) = spawn_fleet(3);
    let config = router_config();
    let router = Router::serve("127.0.0.1:0", &addrs, config).expect("bind router");
    let epoch_before = router.epoch();
    let victim = 1usize;

    // Every request resolved exactly once, bit-identically, while the
    // victim dies mid-load. `completions` double-checks the exactly-once
    // accounting explicitly rather than trusting control flow.
    let completions: Vec<std::sync::atomic::AtomicU64> =
        (0..truth.len()).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
    let kill_gate = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (truth, completions, kill_gate) = (&truth, &completions, &kill_gate);
            let router_addr = router.addr();
            s.spawn(move || {
                let mut client =
                    ControllerClient::connect_resilient(router_addr, patient_policy(c as u64))
                        .expect("resilient connect");
                for r in 0..REQUESTS_PER_CLIENT {
                    let i = c * REQUESTS_PER_CLIENT + r;
                    let outcome = client
                        .predict(&truth[i].0)
                        .expect("request lost in shard death despite retry budget");
                    let bits = outcome.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
                    assert_eq!(bits, truth[i].1, "request {i} diverged during failover");
                    completions[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    kill_gate.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
        // Kill the victim once a quarter of the load has completed: a
        // genuine mid-load death with requests still in flight. The
        // deadline guards against a wedged poll if the clients die early
        // — the scope then exits and surfaces their panic instead.
        let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
        let gate_deadline = Instant::now() + Duration::from_secs(120);
        while kill_gate.load(std::sync::atomic::Ordering::Relaxed) < total / 4
            && Instant::now() < gate_deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(shards[victim].take());
    });

    for (i, c) in completions.iter().enumerate() {
        assert_eq!(
            c.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "request {i} was answered {} times, want exactly once",
            c.load(std::sync::atomic::Ordering::Relaxed)
        );
    }

    // Convergence: the router must mark the victim dead within a probe
    // interval or two of the load ending (forward failures usually beat
    // the prober to it).
    let deadline = Instant::now() + 10 * config.probe_interval;
    loop {
        let table = router.table();
        let dead = table
            .shards
            .iter()
            .any(|sh| sh.id == victim as u64 && !sh.healthy);
        if dead {
            assert!(table.epoch > epoch_before, "death must bump the epoch");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never marked the dead shard unhealthy"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The fleet keeps serving on the survivor ring.
    let mut client = ControllerClient::connect_resilient(router.addr(), patient_policy(0xD1E))
        .expect("connect after death");
    for (i, (req, want)) in truth.iter().enumerate().take(10) {
        let outcome = client.predict(req).expect("post-death predict");
        let bits = outcome.map(|p| p.seconds.to_bits()).map_err(|e| e.to_string());
        assert_eq!(&bits, want, "post-death request {i} diverged");
        assert_ne!(client.last_shard(), Some(victim as u64), "routed to the dead shard");
    }
}

#[test]
fn chaos_fleet_converges_under_seeded_faults() {
    let truth = ground_truth();
    let seed = 0x5AAD_F417u64;
    // The shards (not the router) run the seeded wire-fault plan — the
    // same spec `--fault-plan` takes, so failures replay exactly.
    let plan = FaultPlan::parse(&format!("seed={seed},delay=0.05:2,reset=0.02,drop=0.02"))
        .expect("plan spec");
    let (_shards, addrs) = spawn_fleet_under(2, Some(plan));
    let router = Router::serve("127.0.0.1:0", &addrs, router_config()).expect("bind router");

    let fleet = CLIENTS.min(4);
    let per_client = REQUESTS_PER_CLIENT.min(8);
    std::thread::scope(|s| {
        for c in 0..fleet {
            let truth = &truth;
            let router_addr = router.addr();
            s.spawn(move || {
                let mut client = ControllerClient::connect_resilient(
                    router_addr,
                    patient_policy(seed ^ c as u64),
                )
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
}

#[test]
fn shard_moved_is_typed_and_transient() {
    // A router whose only shard is gone answers predicts with a typed,
    // transient signal — never a hang or a silent close. (Zero healthy
    // shards answer the typed overload; a mid-request death answers
    // `shard_moved`. Both are transient; this exercises the wiring
    // without a race on which one fires.)
    let (mut shards, addrs) = spawn_fleet(1);
    let config = router_config();
    let router = Router::serve("127.0.0.1:0", &addrs, config).expect("bind router");
    let mut client = ControllerClient::connect_with_timeout(router.addr(), Duration::from_secs(10))
        .expect("connect");
    let req = workload_matrix().remove(0);
    client.predict(&req).expect("warm request").expect("prediction");

    drop(shards[0].take());
    // Poll until the death is visible; each failure must be the typed
    // shard_moved or overload reply, both transient.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.predict(&req) {
            Err(e) => {
                assert!(
                    shard_moved_retry_hint(&e).is_some() || overload_retry_hint(&e).is_some(),
                    "death surfaced as an untyped error: {e}"
                );
                break;
            }
            Ok(_) => {
                // The shard drains gracefully; in-flight replies may
                // still arrive until the router notices.
                assert!(Instant::now() < deadline, "router never surfaced the death");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn router_cuts_off_an_over_long_frame_with_the_typed_line() {
    let counter = || pddl_telemetry::snapshot().counter("router.oversize_frames").unwrap_or(0);
    let (_shards, addrs) = spawn_fleet(1);
    let router = Router::serve("127.0.0.1:0", &addrs, router_config()).expect("bind router");
    let before = counter();

    let stream = std::net::TcpStream::connect(router.addr()).expect("connect");
    // One byte past the bound, no newline: the router has read every byte
    // when the bound trips, so it closes with a clean FIN behind its reply.
    (&stream).write_all(&vec![b'['; MAX_FRAME_BYTES + 1]).expect("hostile frame");
    let mut replies = BufReader::new(stream).lines();
    let reply = replies.next().expect("a reply before the close").expect("read");
    assert_eq!(reply, predictddl::protocol::frame_too_long_line(MAX_FRAME_BYTES));
    assert!(replies.next().is_none(), "line sync is lost: the connection must be closed");
    assert!(counter() > before, "router.oversize_frames did not move");

    // The router itself is unharmed.
    let mut client = ControllerClient::connect_with_timeout(router.addr(), Duration::from_secs(10))
        .expect("connect");
    client.predict(&workload_matrix().remove(0)).expect("round trip").expect("prediction");
}
