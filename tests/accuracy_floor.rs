//! The paper's accuracy headline, pinned in tier-1: generate the default
//! trace, split its records 80/20, train on the 80 with the default
//! pipeline, and score the held-out 20 beside a pooled per-dataset Ernest —
//! the same protocol and the same two gates `benchmark/src/offline.rs`
//! carries (`offline_train`), here where `cargo test` sees them.
//!
//! A change that moves the embedding's bits on purpose (an approximate
//! activation, a new summation order) must pass this file unedited.

use pddl_ddlsim::{generate_trace, TraceConfig, TraceRecord};
use pddl_ernest::model::{ErnestModel, ErnestSample};
use pddl_ghn::train::TrainConfig;
use pddl_regress::split::train_test_split;
use predictddl::{OfflineTrainer, PredictionRequest};
use std::collections::HashMap;

/// Meta-training set per dataset: the largest of 128×20 (the benchmark's
/// full size; 116 s), 64×10 (37 s) and 32×10 that stays under a minute in
/// the unoptimised test profile on 2 vCPU. When pinned it read
/// `mean_rel_err` 0.048603 and 12.349× (128×20: 0.044111, 13.606×), so the
/// paper's numbers hold as they are, with no margin taken.
const NUM_GRAPHS: usize = 64;
const EPOCHS: usize = 10;
const TRAIN_FRACTION: f64 = 0.8;
const SPLIT_SEED: u64 = 1;

/// The paper's numbers: held-out error under 8 %, at least 9.8× below
/// Ernest's.
const MAX_REL_ERR: f64 = 0.08;
const MIN_ERNEST_RATIO: f64 = 9.8;

/// Mean of `|predicted / actual − 1|`, each term capped at 1 as in the
/// benchmark.
fn mean_rel_err(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (sum, n) = pairs.fold((0.0, 0usize), |(s, n), (p, a)| (s + (p / a - 1.0).abs().min(1.0), n + 1));
    sum / n.max(1) as f64
}

/// One Ernest model per dataset, fitted on every training record of that
/// dataset: a black box that cannot tell architectures apart.
fn pooled_ernest(train: &[TraceRecord]) -> HashMap<String, ErnestModel> {
    let mut per_dataset: HashMap<String, Vec<ErnestSample>> = HashMap::new();
    for r in train {
        per_dataset.entry(r.workload.dataset.to_ascii_lowercase()).or_default().push(ErnestSample {
            scale: 1.0,
            machines: r.num_servers,
            time_secs: r.time_secs,
        });
    }
    per_dataset.into_iter().map(|(ds, s)| (ds, ErnestModel::fit(&s))).collect()
}

#[test]
fn random_split_error_stays_under_the_papers_floor_and_ahead_of_ernest() {
    let records = generate_trace(&TraceConfig::default());
    let (train_idx, test_idx) = train_test_split(records.len(), TRAIN_FRACTION, SPLIT_SEED);
    let pick = |idx: &[usize]| -> Vec<TraceRecord> { idx.iter().map(|&i| records[i].clone()).collect() };
    let (train, test) = (pick(&train_idx), pick(&test_idx));

    let trainer = OfflineTrainer {
        ghn_train: TrainConfig { num_graphs: NUM_GRAPHS, epochs: EPOCHS, ..TrainConfig::default() },
        ..OfflineTrainer::default()
    };
    let system = trainer.train_from_records(&train);
    let ernest = pooled_ernest(&train);

    let ours = mean_rel_err(test.iter().map(|r| {
        let req = PredictionRequest::zoo(r.workload.clone(), r.cluster());
        let p = system.predict(&req).expect("held-out requests succeed");
        assert!(p.seconds.is_finite(), "{}: prediction {}", r.workload.model, p.seconds);
        (p.seconds, r.time_secs)
    }));
    let theirs = mean_rel_err(test.iter().map(|r| {
        let model = &ernest[&r.workload.dataset.to_ascii_lowercase()];
        (model.predict(1.0, r.num_servers), r.time_secs)
    }));
    let ratio = theirs / ours;
    println!("held_out={} mean_rel_err={ours:.6} ernest={theirs:.6} ratio={ratio:.3}", test.len());
    assert!(ours <= MAX_REL_ERR, "mean_rel_err {ours} above {MAX_REL_ERR}");
    assert!(ratio >= MIN_ERNEST_RATIO, "err_ratio_vs_ernest {ratio} below {MIN_ERNEST_RATIO}");
}
