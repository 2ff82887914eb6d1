//! End-to-end integration: simulator trace → offline training → reusable
//! predictions, across crates. The held-out accuracy of the default-size
//! pipeline on the standard trace is `tests/accuracy.rs`.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::{generate_trace, SimConfig, Simulator, TraceConfig, Workload};
use pddl_regress::metrics::ErrorSummary;
use pddl_regress::split::train_test_split;
use predictddl::{OfflineTrainer, PredictDdl, PredictionRequest};
use std::sync::OnceLock;

/// The tiny system every test here reads, trained once per binary.
fn system() -> &'static PredictDdl {
    static SYSTEM: OnceLock<PredictDdl> = OnceLock::new();
    SYSTEM.get_or_init(|| OfflineTrainer::tiny().train_full())
}

/// A medium-size pipeline: train on 80% of a multi-model CIFAR-10 trace,
/// verify held-out relative error is small (the paper reports 1–4% on
/// CIFAR-10; we allow a loose 25% bound for the tiny-GHN test config).
#[test]
fn offline_training_predicts_heldout_configurations() {
    let mut trace_cfg = TraceConfig::small();
    trace_cfg.models = vec![
        "resnet18".into(),
        "vgg16".into(),
        "squeezenet1_1".into(),
        "alexnet".into(),
        "mobilenet_v3_small".into(),
        "efficientnet_b0".into(),
    ];
    trace_cfg.server_counts = vec![1, 2, 4, 6, 8, 12, 16];
    let records = generate_trace(&trace_cfg);
    assert!(records.len() > 30);

    let (train_idx, test_idx) = train_test_split(records.len(), 0.8, 42);
    let train: Vec<_> = train_idx.iter().map(|&i| records[i].clone()).collect();

    let mut trainer = OfflineTrainer::tiny();
    trainer.ghn_train.num_graphs = 48;
    trainer.ghn_train.epochs = 15;
    let system = trainer.train_from_records(&train);

    let ratios: Vec<f64> = test_idx
        .iter()
        .map(|&i| {
            let r = &records[i];
            let p = system
                .predict_workload(&r.workload, &r.cluster())
                .expect("prediction succeeds");
            p.seconds / r.time_secs
        })
        .collect();
    let err = ErrorSummary::of(&ratios).mean;
    assert!(err < 0.25, "held-out mean relative error {err}");
}

/// The full prediction flow through the request API, including the nearest-
/// architecture diagnostics.
#[test]
fn prediction_response_is_complete() {
    let system = system();
    let req = PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    );
    let pred = system.predict(&req).unwrap();
    assert!(pred.seconds > 0.0);
    let (name, sim) = pred.nearest_architecture.unwrap();
    assert_eq!(name, "resnet18", "self-match expected");
    assert!(sim > 0.999);
}

/// The cluster a request describes drives the prediction: on 4×P100 it
/// lands within 3× of the simulator's answer for the same cluster.
#[test]
fn prediction_tracks_the_simulator_on_the_requested_cluster() {
    let w = Workload::new("resnet18", "cifar10", 128, 2);
    let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 4);
    let pred = system().predict(&PredictionRequest::zoo(w.clone(), cluster.clone())).unwrap();
    let actual = Simulator::new(SimConfig::default()).expected_time(&w, &cluster).unwrap();
    let ratio = pred.seconds / actual;
    assert!((0.3..3.0).contains(&ratio), "4×P100 ratio {ratio}");
}

/// The simulator's own expectation should correlate strongly with PredictDDL
/// predictions across the zoo (sanity of the whole stack).
#[test]
fn predictions_track_simulator_ordering() {
    let system = system();
    let sim = Simulator::new(SimConfig::default());
    let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 4);
    // vgg16 is in the tiny trace; squeezenet1_1 too. Predicted ordering must
    // match simulated ordering.
    let t_small = system
        .predict_workload(&Workload::new("squeezenet1_1", "cifar10", 128, 2), &cluster)
        .unwrap()
        .seconds;
    let t_big = system
        .predict_workload(&Workload::new("vgg16", "cifar10", 128, 2), &cluster)
        .unwrap()
        .seconds;
    let s_small = sim
        .expected_time(&Workload::new("squeezenet1_1", "cifar10", 128, 2), &cluster)
        .unwrap();
    let s_big = sim
        .expected_time(&Workload::new("vgg16", "cifar10", 128, 2), &cluster)
        .unwrap();
    assert!(s_big > s_small);
    assert!(t_big > t_small, "predicted ordering inverted: {t_small} vs {t_big}");
}

/// Malformed requests fail with typed errors, not panics.
#[test]
fn failure_injection_bad_requests() {
    let system = system();
    let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 2);

    // Unknown model.
    let r = system.predict(&PredictionRequest::zoo(
        Workload::new("gpt99", "cifar10", 128, 2),
        cluster.clone(),
    ));
    assert!(matches!(r, Err(predictddl::RequestError::UnknownModel(_))));

    // Zero batch.
    let r = system.predict(&PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 0, 2),
        cluster.clone(),
    ));
    assert!(matches!(r, Err(predictddl::RequestError::InvalidParams(_))));

    // Empty cluster.
    let r = system.predict(&PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::default(),
    ));
    assert!(matches!(r, Err(predictddl::RequestError::InvalidCluster(_))));
}
