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

    let before = client.stats().unwrap();
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

    let after = client.stats().unwrap();
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
    use std::io::{BufRead, BufReader, Write};
    let controller = serve_tiny();
    let stream = std::net::TcpStream::connect(controller.addr()).unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(b"this is not json\n").unwrap();
    w.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("err"), "{line}");
    assert!(line.contains("malformed"), "{line}");
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
