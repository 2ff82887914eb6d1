//! Integration: the Cluster Resource Collector feeding live snapshots into
//! prediction — the full §III-F → §III-C data path, over real TCP.

use pddl_cluster::{CollectorClient, CollectorServer, ServerClass, ServerSpec};
use pddl_ddlsim::{SimConfig, Simulator, Workload};
use predictddl::{OfflineTrainer, PredictionRequest};

#[test]
fn collector_snapshot_drives_prediction() {
    // Stand up the collector and join four GPU nodes.
    let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
    let mut clients = Vec::new();
    for i in 0..4 {
        let spec = ServerSpec::preset(ServerClass::GpuP100, format!("gpu-{i}"));
        clients.push(CollectorClient::register(server.addr(), spec).unwrap());
    }
    let snapshot = server.snapshot();
    assert_eq!(snapshot.num_servers(), 4);

    // Predict on the live snapshot.
    let system = OfflineTrainer::tiny().train_full();
    let req = PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        snapshot.clone(),
    );
    let pred = system.predict(&req).unwrap();
    assert!(pred.seconds > 0.0);

    // The same snapshot must be simulatable (ground-truth path).
    let sim = Simulator::new(SimConfig::default());
    let actual = sim
        .expected_time(&Workload::new("resnet18", "cifar10", 128, 2), &snapshot)
        .unwrap();
    let ratio = pred.seconds / actual;
    assert!((0.3..3.0).contains(&ratio), "live-cluster ratio {ratio}");
}

#[test]
fn utilization_changes_flow_into_features() {
    let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
    let mut clients = Vec::new();
    for i in 0..3 {
        let spec = ServerSpec::preset(ServerClass::CpuE5_2630, format!("cpu-{i}"));
        clients.push(CollectorClient::register(server.addr(), spec).unwrap());
    }
    let idle = server.snapshot().feature_vector();
    // Load up one node; the mean-utilization feature and available-RAM
    // feature must both move.
    clients[0].heartbeat(0.9, 0).unwrap();
    let loaded = server.snapshot().feature_vector();
    assert!(loaded[7] > idle[7], "mean utilization did not rise");
    assert!(loaded[3] < idle[3], "available RAM did not fall");
}

#[test]
fn departed_node_shrinks_the_cluster_seen_by_the_simulator() {
    let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
    let mut clients = Vec::new();
    for i in 0..3 {
        let spec = ServerSpec::preset(ServerClass::GpuP100, format!("gpu-{i}"));
        clients.push(CollectorClient::register(server.addr(), spec).unwrap());
    }
    let sim = Simulator::new(SimConfig::default());
    let w = Workload::new("vgg16", "cifar10", 128, 1);
    let t3 = sim.expected_time(&w, &server.snapshot()).unwrap();
    clients.pop().unwrap().leave().unwrap();
    let t2 = sim.expected_time(&w, &server.snapshot()).unwrap();
    assert_eq!(server.snapshot().num_servers(), 2);
    // VGG-16 is compute-bound: fewer workers → slower.
    assert!(t2 > t3, "losing a worker should slow training: {t3} -> {t2}");
}
