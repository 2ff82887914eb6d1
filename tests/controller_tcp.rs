//! Controller integration over real TCP: the Fig. 7 listener path.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::Workload;
use predictddl::{Controller, ControllerClient, OfflineTrainer, PredictionRequest, RequestError};

fn serve_tiny() -> Controller {
    let system = OfflineTrainer::tiny().train_full();
    Controller::serve("127.0.0.1:0", system).expect("bind")
}

#[test]
fn predict_over_tcp() {
    let controller = serve_tiny();
    let mut client = ControllerClient::connect(controller.addr()).unwrap();
    let req = PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    );
    let pred = client.predict(&req).unwrap().unwrap();
    assert!(pred.seconds > 0.0);
    assert_eq!(controller.requests_served(), 1);
}

#[test]
fn multiple_requests_on_one_connection() {
    let controller = serve_tiny();
    let mut client = ControllerClient::connect(controller.addr()).unwrap();
    for model in ["resnet18", "vgg16", "squeezenet1_1"] {
        let req = PredictionRequest::zoo(
            Workload::new(model, "cifar10", 128, 2),
            ClusterState::homogeneous(ServerClass::GpuP100, 2),
        );
        let pred = client.predict(&req).unwrap().unwrap();
        assert!(pred.seconds > 0.0, "{model}");
    }
    assert_eq!(controller.requests_served(), 3);
}

#[test]
fn concurrent_clients() {
    let controller = serve_tiny();
    let addr = controller.addr();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = ControllerClient::connect(addr).unwrap();
                let req = PredictionRequest::zoo(
                    Workload::new("resnet18", "cifar10", 128, 2),
                    ClusterState::homogeneous(ServerClass::GpuP100, 1 + i % 4),
                );
                client.predict(&req).unwrap().unwrap().seconds
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap() > 0.0);
    }
    assert_eq!(controller.requests_served(), 6);
}

#[test]
fn error_propagates_over_wire() {
    let controller = serve_tiny();
    let mut client = ControllerClient::connect(controller.addr()).unwrap();
    let req = PredictionRequest::zoo(
        Workload::new("resnet18", "tiny-imagenet", 128, 2), // no GHN in tiny trace
        ClusterState::homogeneous(ServerClass::CpuE5_2630, 2),
    );
    let result = client.predict(&req).unwrap();
    assert!(matches!(result, Err(RequestError::NeedsOfflineTraining { .. })));
}

#[test]
fn stats_op_reflects_served_requests() {
    // The telemetry registry is process-global, so other tests running in
    // this binary contribute too: assert deltas with >=, never exact counts.
    let controller = serve_tiny();
    let mut client =
        ControllerClient::connect_with_timeout(controller.addr(), std::time::Duration::from_secs(10))
            .unwrap();

    let before = client.stats().unwrap().snapshot;
    let ok_before = before.counter("controller.requests_ok").unwrap_or(0);
    let err_before = before.counter("controller.requests_err").unwrap_or(0);

    for _ in 0..3 {
        let req = PredictionRequest::zoo(
            Workload::new("resnet18", "cifar10", 128, 2),
            ClusterState::homogeneous(ServerClass::GpuP100, 2),
        );
        client.predict(&req).unwrap().unwrap();
    }
    let bad = PredictionRequest::zoo(
        Workload::new("resnet18", "tiny-imagenet", 128, 2), // no GHN in tiny trace
        ClusterState::homogeneous(ServerClass::GpuP100, 2),
    );
    assert!(client.predict(&bad).unwrap().is_err());

    let after = client.stats().unwrap().snapshot;
    let ok_after = after.counter("controller.requests_ok").unwrap();
    let err_after = after.counter("controller.requests_err").unwrap();
    assert!(ok_after >= ok_before + 3, "ok: {ok_before} -> {ok_after}");
    assert!(err_after > err_before, "err: {err_before} -> {err_after}");
    assert!(ok_after > 0);

    let latency = after.histogram("controller.request_latency").unwrap();
    assert!(latency.count >= 4);
    assert!(latency.p50 <= latency.p95, "{latency:?}");
    assert!(latency.p95 <= latency.p99, "{latency:?}");
    assert!(latency.min <= latency.max, "{latency:?}");

    // The live-connection gauge counts at least this client's connection.
    assert!(after.gauge("controller.active_connections").unwrap_or(0) >= 1);
}

#[test]
fn stats_op_over_raw_wire() {
    use std::io::{BufRead, BufReader, Write};
    let controller = serve_tiny();
    let stream = std::net::TcpStream::connect(controller.addr()).unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    w.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"stats\""), "{line}");
    assert!(line.contains("\"snapshot\""), "{line}");
    // Stats requests are not prediction requests and must not count as one.
    assert_eq!(controller.requests_served(), 0);
}

#[test]
fn malformed_line_gets_typed_error() {
    use pddl_telemetry::json;
    use predictddl::WireResponse;
    use std::io::{BufRead, BufReader, Write};
    let controller = serve_tiny();
    let stream = std::net::TcpStream::connect(controller.addr()).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |frame: &[u8]| {
        w.write_all(frame).unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    // Not JSON, then not UTF-8: each is one malformed frame, answered in
    // turn, and the stream stays in step for the valid request after them.
    for frame in [&b"this is not json\n"[..], b"\xff\xfe\xfd\n"] {
        let line = exchange(frame);
        assert!(line.contains("err"), "{line}");
        assert!(line.contains("malformed"), "{line}");
    }
    let req = PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    );
    let line = exchange(format!("{}\n", json::to_string(&req).unwrap()).as_bytes());
    let reply: WireResponse = json::from_str(&line).unwrap();
    assert!(matches!(reply, WireResponse::Ok { .. }), "{line}");
}

/// Load figures outside what Eq. (1)–(2) are defined for earn the typed
/// `invalid_cluster` error naming the server and field, on `predict` and
/// on `observe` alike, instead of reaching the equations' asserts; the
/// connection keeps answering.
#[test]
fn out_of_range_cluster_figures_get_a_typed_error() {
    let controller = serve_tiny();
    let mut client =
        ControllerClient::connect_with_timeout(controller.addr(), std::time::Duration::from_secs(10))
            .unwrap();
    let valid = PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::CpuE5_2630, 2),
    );
    let mut busy = valid.clone();
    busy.cluster.servers[1].cpu_util = 1.5;
    let mut coreless = valid.clone();
    coreless.cluster.servers[0].spec.cpu_cores = 0;
    let observed = |client: &mut ControllerClient| {
        client.stats().unwrap().snapshot.counter("controller.observe_requests").unwrap_or(0)
    };
    let observed_before = observed(&mut client);

    for (req, detail) in [
        (&busy, "server 1: cpu_util 1.5 is outside [0,1]"),
        (&coreless, "server 0: cpu_cores is 0"),
    ] {
        assert_eq!(
            client.predict(req).unwrap().unwrap_err(),
            RequestError::InvalidCluster(detail.to_string())
        );
        assert_eq!(
            client.observe(req, 100.0).unwrap(),
            Err(format!("prediction_failed: invalid cluster: {detail}"))
        );
    }
    assert!(client.predict(&valid).unwrap().unwrap().seconds > 0.0);
    assert!(client.observe(&valid, 100.0).unwrap().is_ok());
    // Other tests in this binary observe nothing, but the registry is
    // process-global: assert the delta with >=.
    assert!(observed(&mut client) >= observed_before + 3, "controller.observe_requests");
}

/// A plain client whose request timed out must not read that request's
/// late reply as the answer to its next one: the timed-out connection is
/// dropped, and the next call dials afresh. The peer answers
/// `{"op":"reload","version":v}` with version `v`, and holds its first
/// answer until the client has given up on it.
#[test]
fn a_late_reply_is_not_read_as_the_next_answer() {
    use predictddl::{parse_frame, ParsedFrame, ReloadReply};
    use std::io::{BufRead, BufReader, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        std::thread::scope(|s| {
            // The held connection, then the one the client dials after it.
            for mut held in [Some(held), None] {
                let (mut stream, _) = listener.accept().unwrap();
                s.spawn(move || {
                    let frames = BufReader::new(stream.try_clone().unwrap()).lines();
                    for frame in frames.map_while(Result::ok) {
                        let Ok(ParsedFrame::Reload { version: Some(v) }) = parse_frame(&frame)
                        else {
                            panic!("not a versioned reload: {frame}");
                        };
                        if let Some(held) = held.take() {
                            held.recv().unwrap();
                        }
                        let reply = ReloadReply { version: v, previous: 0, epoch: v }.to_line();
                        if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
    });

    let timeout = std::time::Duration::from_millis(250);
    let mut client = ControllerClient::connect_with_timeout(addr, timeout).unwrap();
    let late = client.reload(Some(1)).expect_err("the first answer is held past the timeout");
    assert_eq!(late.kind(), std::io::ErrorKind::TimedOut, "{late}");
    release.send(()).unwrap();
    let second = client.reload(Some(2)).unwrap().expect("a reload reply");
    assert_eq!(second.version, 2, "read request 1's late reply as the answer to request 2");
    drop(client);
    peer.join().unwrap();
}

/// A frame is one write on a `TCP_NODELAY` socket, at both ends. When it
/// was two writes on a Nagle socket the newline waited for the peer's
/// delayed ACK on each leg and every round trip cost ~88 ms; a warm
/// loopback prediction is a fraction of a millisecond, so the bound sits
/// a wide margin from either.
#[test]
fn warm_round_trip_is_not_held_back_by_nagle() {
    let controller = serve_tiny();
    let mut client = ControllerClient::connect(controller.addr()).unwrap();
    let req = PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    );
    client.predict(&req).unwrap().unwrap(); // resolve the model, fill the caches
    let mut round_trips: Vec<std::time::Duration> = (0..50)
        .map(|_| {
            let t0 = std::time::Instant::now();
            client.predict(&req).unwrap().unwrap();
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < std::time::Duration::from_millis(10), "median round trip {median:?}");
}

/// The retry contract: the controller keeps no per-identity state, so the
/// same `RequestEnvelope` sent twice is computed twice, and both replies
/// echo the identity with bit-identical answers (a prediction is a pure
/// function of the request and the live model).
#[test]
fn a_retried_envelope_is_recomputed_with_identical_bits() {
    use pddl_telemetry::json;
    use predictddl::{RequestEnvelope, ResponseEnvelope, WireResponse};
    use std::io::{BufRead, BufReader, Write};

    let controller = serve_tiny();
    let envelope = RequestEnvelope {
        client: 0x5EED,
        id: 7,
        trace: None,
        req: PredictionRequest::zoo(
            Workload::new("resnet18", "cifar10", 128, 2),
            ClusterState::homogeneous(ServerClass::GpuP100, 4),
        ),
    };
    let line = format!("{}\n", json::to_string(&envelope).unwrap());
    let stream = std::net::TcpStream::connect(controller.addr()).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let total = || pddl_telemetry::snapshot().counter("controller.requests_total").unwrap_or(0);
    let total_before = total();

    let answers: Vec<(u64, Option<(String, u32)>)> = (0..2)
        .map(|_| {
            w.write_all(line.as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let reply: ResponseEnvelope = json::from_str(&reply).unwrap();
            assert_eq!((reply.client, reply.id), (0x5EED, 7), "identity not echoed");
            let WireResponse::Ok { prediction } = reply.resp else {
                panic!("retry failed: {:?}", reply.resp)
            };
            let nearest = prediction.nearest_architecture.map(|(name, sim)| (name, sim.to_bits()));
            (prediction.seconds.to_bits(), nearest)
        })
        .collect();
    assert_eq!(answers[0], answers[1], "a retry moved the served bits");
    assert!(answers[0].1.is_some(), "no nearest architecture to compare");
    // Both sends were computed: this controller's own count is exact; the
    // process-global `controller.requests_total` also moves with the other
    // tests in this binary, so its delta is a floor.
    assert_eq!(controller.requests_served(), 2);
    assert!(total() >= total_before + 2, "controller.requests_total");
}

/// A stand-in controller on `listener` that answers one enveloped
/// request per connection, for `conns` connections: the first `torn` get
/// their reply cut off mid-frame and a hang-up (what a `truncate` fault
/// does to a reply), the rest an echo of the identity carrying an
/// `unknown_model` error.
fn scripted_peer(
    listener: std::net::TcpListener,
    torn: usize,
    conns: usize,
) -> std::thread::JoinHandle<()> {
    use pddl_telemetry::json;
    use predictddl::{parse_frame, ParsedFrame, ResponseEnvelope, WireResponse};
    use std::io::{BufRead, BufReader, Write};
    std::thread::spawn(move || {
        for n in 0..conns {
            let (mut stream, _) = listener.accept().unwrap();
            let mut frame = String::new();
            BufReader::new(stream.try_clone().unwrap()).read_line(&mut frame).unwrap();
            let Ok(ParsedFrame::Enveloped(env)) = parse_frame(frame.trim_end()) else {
                panic!("not an enveloped request: {frame}");
            };
            let reply = ResponseEnvelope {
                client: env.client,
                id: env.id,
                trace: None,
                shard: None,
                resp: WireResponse::Err { error: RequestError::UnknownModel("scripted".into()) },
            };
            let line = json::to_string(&reply).unwrap();
            let bytes = if n < torn { &line.as_bytes()[..line.len() / 2] } else { line.as_bytes() };
            stream.write_all(bytes).unwrap();
            if n >= torn {
                stream.write_all(b"\n").unwrap();
            }
        }
    })
}

fn sample_request() -> PredictionRequest {
    PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 1),
    )
}

/// A reply torn in transit cannot be trusted to keep the stream in step:
/// the resilient client drops the connection and lands the request on a
/// fresh one.
#[test]
fn a_torn_reply_is_retried_on_a_fresh_connection() {
    use pddl_cluster::RetryPolicy;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = scripted_peer(listener, 1, 2);
    let mut client = ControllerClient::connect_resilient(addr, RetryPolicy::fast(3)).unwrap();
    let verdict = client.predict(&sample_request()).expect("retried past the torn reply");
    assert_eq!(verdict.unwrap_err(), RequestError::UnknownModel("scripted".into()));
    peer.join().unwrap();
}

/// A resilient client can be created before its controller is up: a
/// refused connect backs off and retries until the port is bound.
#[test]
fn a_resilient_client_waits_out_a_late_controller() {
    use pddl_cluster::RetryPolicy;
    // Reserve an ephemeral port, free it, and bind it again only after
    // a delay: the first attempts see ConnectionRefused.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let peer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(60));
        scripted_peer(std::net::TcpListener::bind(addr).unwrap(), 0, 1).join().unwrap();
    });
    let mut client = ControllerClient::connect_resilient(addr, RetryPolicy::fast(1))
        .expect("connect retries until the controller is up");
    let verdict = client.predict(&sample_request()).unwrap();
    assert_eq!(verdict.unwrap_err(), RequestError::UnknownModel("scripted".into()));
    peer.join().unwrap();
}
