//! The evaluation protocol in tier-1: how far off PredictDDL's predictions
//! are on runs it was not fitted on, beside pooled Ernest on the same runs.
//!
//! The GHN meta-trains on synthetic graphs and never sees a trace record,
//! so it is trained once here — on the standard trace's seeded 80/20
//! split, the paper's headline protocol — and every other split is a
//! regressor refit over that registry (§III-G: the GHN is a per-dataset
//! asset, reused for architectures and clusters it never saw):
//!
//! - *record*: the 80/20 split itself, under the paper's two gates, the
//!   same protocol and gates `benchmark/`'s `offline_train` carries;
//! - *arch*: two architectures held out of the trace;
//! - *family*: every ResNet-family model held out;
//! - *scale*: fitted on ≤ 8 servers, scored on 12–20;
//! - *interpolation*: a four-model trace, and a ResNet depth between two
//!   that it holds.
//!
//! Errors are [`ErrorSummary`]s of `Predicted/Actual`. Each hold-out
//! floor is the larger of its native and `PDDL_FORCE_SCALAR=1` readings,
//! rounded up to the next 0.01, and only ever moves down. A change that
//! moves the embedding's bits on purpose (an approximate activation, a new
//! summation order) must pass this file unedited.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::{generate_trace, SimConfig, Simulator, TraceConfig, TraceRecord, Workload};
use pddl_ernest::model::fit_pooled;
use pddl_ghn::train::TrainConfig;
use pddl_regress::split::train_test_split;
use pddl_regress::ErrorSummary;
use predictddl::{OfflineTrainer, PredictDdl, PredictionRequest};
use std::sync::OnceLock;

/// Meta-training set per dataset: the largest of 128×20 (the benchmark's
/// full size; 116 s), 64×10 (37 s) and 32×10 that stayed under a minute
/// in the test profile on 2 vCPU while it built every crate at opt-level
/// 0 (the numeric crates now build at 2: TESTING.md). The record split
/// reads 0.048212 and 12.449× (128×20: 0.044111, 13.606×), so the
/// paper's numbers hold as they are, with no margin taken.
const NUM_GRAPHS: usize = 64;
const EPOCHS: usize = 10;
const TRAIN_FRACTION: f64 = 0.8;
const SPLIT_SEED: u64 = 1;

/// The paper's numbers: held-out error under 8 %, at least 9.8× below
/// Ernest's.
const MAX_REL_ERR: f64 = 0.08;
const MIN_ERNEST_RATIO: f64 = 9.8;

/// Capped-mean floors of the hold-outs (native / forced-scalar readings
/// in CHANGES.md).
const ARCH_FLOOR: f64 = 0.30;
const FAMILY_FLOOR: f64 = 0.69;
const SCALE_FLOOR: f64 = 0.28;

/// The models `crates/zoo/src/families/resnet.rs` builds.
const RESNETS: [&str; 9] = [
    "resnet18",
    "resnet34",
    "resnet50",
    "resnet101",
    "resnet152",
    "resnext50_32x4d",
    "resnext101_32x8d",
    "wide_resnet50_2",
    "wide_resnet101_2",
];

/// The standard trace, its record split, and the system trained on the
/// train side: the one GHN meta-training of this binary.
struct Shared {
    trace: Vec<TraceRecord>,
    train: Vec<TraceRecord>,
    test: Vec<TraceRecord>,
    system: PredictDdl,
}

fn trainer() -> OfflineTrainer {
    OfflineTrainer {
        ghn_train: TrainConfig { num_graphs: NUM_GRAPHS, epochs: EPOCHS, ..TrainConfig::default() },
        ..OfflineTrainer::default()
    }
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let trace = generate_trace(&TraceConfig::default());
        let (train_idx, test_idx) = train_test_split(trace.len(), TRAIN_FRACTION, SPLIT_SEED);
        let pick = |idx: &[usize]| idx.iter().map(|&i| trace[i].clone()).collect::<Vec<_>>();
        let (train, test) = (pick(&train_idx), pick(&test_idx));
        let system = trainer().train_from_records(&train);
        Shared { trace, train, test, system }
    })
}

/// `trainer`'s regressor fitted on `records` over the shared GHNs.
fn refit(trainer: OfflineTrainer, records: &[TraceRecord]) -> PredictDdl {
    trainer.train_from_records_reusing(records, shared().system.registry.clone())
}

/// The standard trace split by `held_out`: (fitted on, scored on).
fn hold_out(held_out: impl Fn(&TraceRecord) -> bool) -> (Vec<TraceRecord>, Vec<TraceRecord>) {
    shared().trace.iter().cloned().partition(|r| !held_out(r))
}

/// PredictDDL fitted on `train` and pooled Ernest fitted on the same runs,
/// each summarised over `test` and printed.
fn score(
    label: &str,
    system: &PredictDdl,
    train: &[TraceRecord],
    test: &[TraceRecord],
) -> (ErrorSummary, ErrorSummary) {
    let runs = train.iter().map(|r| (r.workload.dataset.as_str(), r.num_servers, r.time_secs));
    let ernest = fit_pooled(runs);
    let ours: Vec<f64> = test
        .iter()
        .map(|r| {
            let req = PredictionRequest::zoo(r.workload.clone(), r.cluster());
            let p = system.predict(&req).expect("held-out requests succeed");
            assert!(p.seconds.is_finite(), "{}: prediction {}", r.workload.model, p.seconds);
            p.seconds / r.time_secs
        })
        .collect();
    let theirs: Vec<f64> = test
        .iter()
        .map(|r| ernest[r.workload.dataset.as_str()].predict(1.0, r.num_servers) / r.time_secs)
        .collect();
    let (ours, theirs) = (ErrorSummary::of(&ours), ErrorSummary::of(&theirs));
    for (who, e) in [("predictddl", ours), ("ernest", theirs)] {
        println!(
            "{label} {who}: n={} mean={:.6} median={:.6} worst={:.3} capped_mean={:.6}",
            e.n, e.mean, e.median, e.worst, e.capped_mean
        );
    }
    (ours, theirs)
}

/// `system`'s seconds for `model` on CIFAR-10 at batch 128 on `n` P100s.
fn seconds(system: &PredictDdl, model: &str, epochs: usize, n: usize) -> f64 {
    let cluster = ClusterState::homogeneous(ServerClass::GpuP100, n);
    let w = Workload::new(model, "cifar10", 128, epochs);
    system.predict_workload(&w, &cluster).unwrap().seconds
}

#[test]
fn random_split_error_stays_under_the_papers_floor_and_ahead_of_ernest() {
    let s = shared();
    let (ours, theirs) = score("record", &s.system, &s.train, &s.test);
    let ratio = theirs.capped_mean / ours.capped_mean;
    println!("record: err_ratio_vs_ernest={ratio:.3}");
    let err = ours.capped_mean;
    assert!(err <= MAX_REL_ERR, "mean_rel_err {err} above {MAX_REL_ERR}");
    assert!(ratio >= MIN_ERNEST_RATIO, "err_ratio_vs_ernest {ratio} below {MIN_ERNEST_RATIO}");
}

/// Two architectures the regressor never saw, embedded by the same GHN.
#[test]
fn predicts_unseen_architecture_without_retraining() {
    let (train, test) = hold_out(|r| ["resnet34", "vgg13"].contains(&r.workload.model.as_str()));
    let system = refit(trainer(), &train);
    let (ours, theirs) = score("arch", &system, &train, &test);
    let err = ours.capped_mean;
    assert!(err <= ARCH_FLOOR, "arch capped mean {err} above {ARCH_FLOOR}");
    assert!(err < theirs.capped_mean, "arch: {ours:?} not ahead of Ernest {theirs:?}");

    // The six points of the paper's motivation: usable where black boxes
    // fail, though necessarily worse than in-trace error.
    let sim = Simulator::new(SimConfig::default());
    let mut ratios = Vec::new();
    for model in ["resnet34", "vgg13"] {
        for n in [2, 4, 8] {
            let w = Workload::new(model, "cifar10", 128, 10);
            let actual = sim.expected_time(&w, &ClusterState::homogeneous(ServerClass::GpuP100, n));
            ratios.push(seconds(&system, model, 10, n) / actual.unwrap());
        }
    }
    let err = ErrorSummary::of(&ratios).mean;
    println!("arch six points: mean={err:.6}");
    assert!(err < 0.5, "unseen-architecture error {err}");
}

/// A whole family held out: no depth or width of it is in the fit.
#[test]
fn held_out_family_stays_under_its_floor() {
    let (train, test) = hold_out(|r| RESNETS.contains(&r.workload.model.as_str()));
    let system = refit(trainer(), &train);
    let (ours, _) = score("family", &system, &train, &test);
    let err = ours.capped_mean;
    assert!(err <= FAMILY_FLOOR, "family capped mean {err} above {FAMILY_FLOOR}");
}

/// Changing only the cluster needs no retraining: fitted on ≤ 8 servers,
/// scored on 12–20, and still faster on 16 servers than on one.
#[test]
fn same_model_different_cluster_no_retraining() {
    let (train, test) = hold_out(|r| r.num_servers > 8);
    let test: Vec<TraceRecord> = test.into_iter().filter(|r| r.num_servers >= 12).collect();
    let system = refit(trainer(), &train);
    let (ours, theirs) = score("scale", &system, &train, &test);
    let err = ours.capped_mean;
    assert!(err <= SCALE_FLOOR, "scale capped mean {err} above {SCALE_FLOOR}");
    assert!(err < theirs.capped_mean, "scale: {ours:?} not ahead of Ernest {theirs:?}");

    let sim = Simulator::new(SimConfig::default());
    let w = Workload::new("vgg16", "cifar10", 128, 10);
    let cluster = |n| ClusterState::homogeneous(ServerClass::GpuP100, n);
    let t_sim = [1, 16].map(|n| sim.expected_time(&w, &cluster(n)).unwrap());
    let t_pred = [1, 16].map(|n| seconds(&system, "vgg16", 10, n));
    assert!(t_sim[1] < t_sim[0]);
    assert!(t_pred[1] < t_pred[0], "prediction misses scaling: {t_pred:?} vs {t_sim:?}");
}

/// Interpolation between family members: fitted on resnet18 and resnet50
/// (with vgg16 and squeezenet1_1), the unseen resnet34 lands above
/// resnet18 and at most marginally above resnet50 (15 % slack).
#[test]
fn unseen_family_member_interpolates() {
    let mut cfg = TraceConfig::small();
    cfg.models = ["resnet18", "resnet50", "vgg16", "squeezenet1_1"].map(String::from).into();
    let system = refit(OfflineTrainer::tiny(), &generate_trace(&cfg));
    let t = |m| seconds(&system, m, 2, 4);
    let (t18, t34, t50) = (t("resnet18"), t("resnet34"), t("resnet50"));
    println!("interpolation: r18={t18:.2} r34={t34:.2} r50={t50:.2}");
    assert!(
        t18 < t34 && t34 < 1.15 * t50,
        "family ordering broken: r18={t18:.1} r34={t34:.1} r50={t50:.1}"
    );
}

