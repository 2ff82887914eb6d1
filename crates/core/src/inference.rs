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

    /// Assembles the unified feature row.
    pub fn features(
        embedding: &[f32],
        cluster: &ClusterState,
        batch_size: usize,
        epochs: usize,
        dataset: &str,
    ) -> Vec<f32> {
        let mut f = Vec::with_capacity(embedding.len() + CLUSTER_FEATURE_DIM + WORKLOAD_FEATS);
        f.extend_from_slice(embedding);
        f.extend(cluster.feature_vector().iter().map(|&v| v as f32));
        f.push((batch_size as f32).log10());
        f.push(epochs as f32 / 10.0);
        let ds_bytes = dataset_by_name(dataset).map_or(1e8, |d| d.bytes_on_disk as f64);
        f.push((ds_bytes.log10() - 8.0) as f32);
        f
    }

    /// Fits the regression on engine samples.
    pub fn fit(&mut self, samples: &[EngineSample]) {
        assert!(!samples.is_empty(), "no training samples");
        self.embed_dim = samples[0].embedding.len();
        let d = self.embed_dim + CLUSTER_FEATURE_DIM + WORKLOAD_FEATS;
        let mut x = Matrix::zeros(samples.len(), d);
        let mut y = Vec::with_capacity(samples.len());
        for (r, s) in samples.iter().enumerate() {
            assert_eq!(s.embedding.len(), self.embed_dim, "inconsistent embedding dims");
            let row = Self::features(&s.embedding, &s.cluster, s.batch_size, s.epochs, &s.dataset);
            x.set_row(r, &row);
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

    /// Predicts training time in seconds for one workload.
    pub fn predict(
        &self,
        embedding: &[f32],
        cluster: &ClusterState,
        batch_size: usize,
        epochs: usize,
        dataset: &str,
    ) -> f64 {
        let scaler = self.scaler.as_ref().expect("predict before fit");
        assert_eq!(embedding.len(), self.embed_dim, "embedding width changed");
        let row = Self::features(embedding, cluster, batch_size, epochs, dataset);
        let x = Matrix::from_vec(1, row.len(), row);
        let xs = scaler.transform(&x);
        let raw = self.cfg.regression.predict(&xs)[0] as f64;
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
        let f = InferenceEngine::features(&[1.0; 32], &cluster, 128, 10, "cifar10");
        assert_eq!(f.len(), 32 + CLUSTER_FEATURE_DIM + WORKLOAD_FEATS);
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
