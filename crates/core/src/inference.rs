//! The Inference Engine (§III-C): a regression model over the unified
//! feature space [GHN embedding ‖ cluster description ‖ workload scalars].
//!
//! "PredictDDL enables different regression algorithms to be used easily in
//! the prediction model by creating a continuous space that unifies GHN-2
//! embeddings with cluster description features" — the [`Regression`] enum
//! from `pddl-regress` plugs in here, with the paper's second-order
//! polynomial regression as the default.

use pddl_cluster::{ClusterState, CLUSTER_FEATURE_DIM};
use pddl_regress::{Regression, Regressor, StandardScaler};
use pddl_tensor::Matrix;
use pddl_zoo::dataset::dataset_by_name;
use std::cell::RefCell;

/// Number of workload scalars appended after embedding + cluster features.
pub const WORKLOAD_FEATS: usize = 3;

/// Inference-engine configuration.
pub struct InferenceConfig {
    /// Regression model (the paper's PR/LR/SVR/MLP choices).
    pub regression: Regression,
    /// Regress `log10(seconds)` instead of raw seconds. Training times span
    /// orders of magnitude across the zoo; the log target keeps the
    /// *relative* error (the paper's metric) uniform across that range.
    pub log_target: bool,
}

pddl_telemetry::json_struct!(InferenceConfig { regression, log_target });

impl Default for InferenceConfig {
    fn default() -> Self {
        Self { regression: Regression::polynomial(2, 1e-3), log_target: true }
    }
}

/// One training sample for the engine.
pub struct EngineSample {
    /// GHN embedding of the workload's computational graph.
    pub embedding: Vec<f32>,
    /// Cluster the measurement was taken on.
    pub cluster: ClusterState,
    /// Per-worker batch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Dataset name (selects the dataset indicator feature).
    pub dataset: String,
    /// Measured training time, seconds (the regression target).
    pub time_secs: f64,
}

/// The fitted inference engine.
pub struct InferenceEngine {
    cfg: InferenceConfig,
    scaler: Option<StandardScaler>,
    embed_dim: usize,
}

pddl_telemetry::json_struct!(InferenceEngine { cfg, scaler, embed_dim });

impl InferenceEngine {
    /// Creates an unfitted engine with the given configuration.
    pub fn new(cfg: InferenceConfig) -> Self {
        Self { cfg, scaler: None, embed_dim: 0 }
    }

    /// Width of the unified feature row over an `embed_dim`-wide embedding.
    pub fn feature_dim(embed_dim: usize) -> usize {
        embed_dim + CLUSTER_FEATURE_DIM + WORKLOAD_FEATS
    }

    /// Writes the unified feature row `[embedding ‖ cluster ‖ scalars]`
    /// into `out`, which must be [`Self::feature_dim`] wide. The one place
    /// the row is assembled: `fit` fills its design matrix with it and
    /// `predict` a reused per-thread row.
    pub fn features_into(
        embedding: &[f32],
        cluster: &ClusterState,
        batch_size: usize,
        epochs: usize,
        dataset: &str,
        out: &mut [f32],
    ) {
        let e = embedding.len();
        assert_eq!(out.len(), Self::feature_dim(e), "feature row width mismatch");
        out[..e].copy_from_slice(embedding);
        for (o, &v) in out[e..].iter_mut().zip(&cluster.feature_vector()) {
            *o = v as f32;
        }
        let ds_bytes = dataset_by_name(dataset).map_or(1e8, |d| d.bytes_on_disk as f64);
        out[e + CLUSTER_FEATURE_DIM..].copy_from_slice(&[
            (batch_size as f32).log10(),
            epochs as f32 / 10.0,
            (ds_bytes.log10() - 8.0) as f32,
        ]);
    }

    /// Fits the regression on engine samples.
    pub fn fit(&mut self, samples: &[EngineSample]) {
        assert!(!samples.is_empty(), "no training samples");
        self.embed_dim = samples[0].embedding.len();
        let mut x = Matrix::zeros(samples.len(), Self::feature_dim(self.embed_dim));
        let mut y = Vec::with_capacity(samples.len());
        for (r, s) in samples.iter().enumerate() {
            assert_eq!(s.embedding.len(), self.embed_dim, "inconsistent embedding dims");
            let row = x.row_mut(r);
            Self::features_into(&s.embedding, &s.cluster, s.batch_size, s.epochs, &s.dataset, row);
            y.push(if self.cfg.log_target {
                (s.time_secs.max(1e-3)).log10() as f32
            } else {
                s.time_secs as f32
            });
        }
        let scaler = StandardScaler::fit(&x);
        let xs = scaler.transform(&x);
        self.scaler = Some(scaler);
        self.cfg.regression.fit(&xs, &y);
    }

    /// Predicts training time in seconds for one workload. The feature row
    /// is assembled, standardised and regressed in place in a reused
    /// per-thread buffer: a prediction allocates nothing.
    pub fn predict(
        &self,
        embedding: &[f32],
        cluster: &ClusterState,
        batch_size: usize,
        epochs: usize,
        dataset: &str,
    ) -> f64 {
        thread_local! {
            static FEATURE_ROW: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        let scaler = self.scaler.as_ref().expect("predict before fit");
        assert_eq!(embedding.len(), self.embed_dim, "embedding width changed");
        let raw = FEATURE_ROW.with_borrow_mut(|row| {
            row.resize(Self::feature_dim(self.embed_dim), 0.0);
            Self::features_into(embedding, cluster, batch_size, epochs, dataset, row);
            scaler.transform_row(row);
            self.cfg.regression.predict_row(row)
        }) as f64;
        if self.cfg.log_target {
            10f64.powf(raw.clamp(-3.0, 8.0))
        } else {
            raw.max(0.0)
        }
    }

    /// Name of the underlying regression model (Fig. 10 legend).
    pub fn regression_name(&self) -> &'static str {
        self.cfg.regression.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_cluster::ServerClass;
    use pddl_tensor::Rng;

    /// Synthetic engine samples: time = flops-ish from the embedding's first
    /// coordinate, scaled by cluster size.
    fn synth_samples(n: usize, seed: u64) -> Vec<EngineSample> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let complexity = rng.uniform(0.5, 3.0); // stands in for log-FLOPs
                let servers = 1 + rng.below(16);
                let cluster = ClusterState::homogeneous(ServerClass::GpuP100, servers);
                let time = 10f64.powf(complexity as f64) / servers as f64;
                EngineSample {
                    embedding: vec![complexity, complexity * 0.5, 1.0],
                    cluster,
                    batch_size: 128,
                    epochs: 10,
                    dataset: "cifar10".into(),
                    time_secs: time,
                }
            })
            .collect()
    }

    #[test]
    fn fits_and_predicts_within_tolerance() {
        let samples = synth_samples(300, 1);
        let mut engine = InferenceEngine::new(InferenceConfig::default());
        engine.fit(&samples);
        let test = synth_samples(50, 2);
        let mut errs = Vec::new();
        for s in &test {
            let p = engine.predict(&s.embedding, &s.cluster, s.batch_size, s.epochs, &s.dataset);
            errs.push((p / s.time_secs - 1.0).abs());
        }
        let mean: f64 = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.15, "mean relative error {mean}");
    }

    #[test]
    fn log_target_prevents_negative_predictions() {
        let samples = synth_samples(100, 3);
        let mut engine = InferenceEngine::new(InferenceConfig::default());
        engine.fit(&samples);
        // Extreme extrapolation cannot go below zero seconds.
        let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 20);
        let p = engine.predict(&[0.0, 0.0, 0.0], &cluster, 1, 1, "cifar10");
        assert!(p > 0.0);
    }

    #[test]
    fn feature_row_width_is_stable() {
        let cluster = ClusterState::homogeneous(ServerClass::CpuE5_2630, 3);
        assert_eq!(InferenceEngine::feature_dim(32), 32 + CLUSTER_FEATURE_DIM + WORKLOAD_FEATS);
        let mut f = vec![f32::NAN; InferenceEngine::feature_dim(32)];
        InferenceEngine::features_into(&[1.0; 32], &cluster, 128, 10, "cifar10", &mut f);
        assert!(f.iter().all(|v| v.is_finite()), "every column is written: {f:?}");
    }

    #[test]
    fn a_scaler_with_lists_of_different_lengths_is_a_decode_error() {
        use pddl_telemetry::json::{self, JsonError};
        let mut engine = InferenceEngine::new(InferenceConfig::default());
        engine.fit(&synth_samples(60, 4));
        let text = json::to_string(&engine).unwrap();
        // Drop the last standard deviation: `{…,"std":[…,s13]}` → `[…]`.
        let scaler = json::to_string(engine.scaler.as_ref().unwrap()).unwrap();
        let short = format!("{}]}}", &scaler[..scaler.rfind(',').unwrap()]);
        let err = json::from_str::<InferenceEngine>(&text.replacen(&scaler, &short, 1)).err();
        let want = "scaler: scaler has 14 means but 13 standard deviations";
        assert_eq!(err, Some(JsonError::Shape(want.into())));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn unfitted_engine_panics() {
        let engine = InferenceEngine::new(InferenceConfig::default());
        let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 1);
        let _ = engine.predict(&[1.0], &cluster, 1, 1, "cifar10");
    }

    #[test]
    fn swapping_regressors_works() {
        use pddl_regress::Kernel;
        for regression in [
            Regression::linear(),
            Regression::polynomial(2, 1e-3),
            Regression::svr(Kernel::Rbf { gamma: 0.1 }, 100.0, 0.05),
        ] {
            let mut engine =
                InferenceEngine::new(InferenceConfig { regression, log_target: true });
            let samples = synth_samples(120, 7);
            engine.fit(&samples);
            let s = &samples[0];
            let p = engine.predict(&s.embedding, &s.cluster, s.batch_size, s.epochs, &s.dataset);
            assert!(p.is_finite() && p > 0.0, "{}: {p}", engine.regression_name());
        }
    }
}
