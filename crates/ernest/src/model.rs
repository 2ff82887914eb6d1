//! The Ernest predictor: NNLS over the Ernest basis.

use crate::features::{ernest_features, ERNEST_DIM};
use crate::nnls::nnls;
use pddl_tensor::Matrix;
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// One Ernest training observation.
#[derive(Clone, Copy, Debug)]
pub struct ErnestSample {
    /// Dataset scale fraction of the run.
    pub scale: f64,
    pub machines: usize,
    /// Observed runtime, seconds.
    pub time_secs: f64,
}

/// Fitted Ernest model `t = θ·φ(s, m)` with `θ ≥ 0`.
#[derive(Clone, Debug, Default)]
pub struct ErnestModel {
    pub theta: Vec<f32>,
}

impl ToJson for ErnestModel {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object().field("theta", &self.theta).end();
    }
}

impl FromJson for ErnestModel {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self { theta: o.field("theta")? })
    }
}

impl ErnestModel {
    /// Fits by non-negative least squares (the paper's choice: NNLS "keeps
    /// coefficients physically interpretable").
    pub fn fit(samples: &[ErnestSample]) -> Self {
        assert!(
            samples.len() >= ERNEST_DIM,
            "Ernest needs at least {ERNEST_DIM} observations"
        );
        let mut x = Matrix::zeros(samples.len(), ERNEST_DIM);
        let mut y = Vec::with_capacity(samples.len());
        for (r, s) in samples.iter().enumerate() {
            x.set_row(r, &ernest_features(s.scale, s.machines));
            y.push(s.time_secs as f32);
        }
        Self { theta: nnls(&x, &y) }
    }

    /// Predicted runtime for a configuration.
    pub fn predict(&self, scale: f64, machines: usize) -> f64 {
        assert_eq!(self.theta.len(), ERNEST_DIM, "predict before fit");
        ernest_features(scale, machines)
            .iter()
            .zip(&self.theta)
            .map(|(f, t)| (*f as f64) * (*t as f64))
            .sum()
    }

    /// All coefficients non-negative (NNLS invariant).
    pub fn is_physical(&self) -> bool {
        self.theta.iter().all(|&t| t >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic job following Ernest's own model family exactly.
    fn ernest_world(scale: f64, machines: usize) -> f64 {
        let m = machines as f64;
        5.0 + 120.0 * scale / m + 2.0 * m.ln() + 0.8 * m
    }

    fn samples(configs: &[(f64, usize)]) -> Vec<ErnestSample> {
        configs
            .iter()
            .map(|&(s, m)| ErnestSample { scale: s, machines: m, time_secs: ernest_world(s, m) })
            .collect()
    }

    #[test]
    fn recovers_in_family_model() {
        let train = samples(&[
            (0.125, 1),
            (0.125, 2),
            (0.25, 1),
            (0.25, 4),
            (0.5, 2),
            (0.5, 8),
        ]);
        let model = ErnestModel::fit(&train);
        assert!(model.is_physical());
        // Extrapolate to full scale on 16 machines — Ernest's core use case.
        let pred = model.predict(1.0, 16);
        let actual = ernest_world(1.0, 16);
        assert!(
            (pred / actual - 1.0).abs() < 0.05,
            "pred {pred:.2} vs actual {actual:.2}"
        );
    }

    #[test]
    fn coefficients_nonnegative_even_with_decreasing_times() {
        // Runtime that drops sharply with machines (no positive-coefficient
        // basis combination fits perfectly) — NNLS must stay feasible.
        let train: Vec<ErnestSample> = (1..=8)
            .map(|m| ErnestSample {
                scale: 1.0,
                machines: m,
                time_secs: 100.0 / m as f64,
            })
            .collect();
        let model = ErnestModel::fit(&train);
        assert!(model.is_physical());
        // 1/m is exactly the s/m column at s=1, so the fit is good.
        assert!((model.predict(1.0, 4) - 25.0).abs() < 2.0);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_few_samples_panics() {
        let _ = ErnestModel::fit(&samples(&[(1.0, 1)]));
    }

    #[test]
    fn json_round_trip() {
        let model = ErnestModel::fit(&samples(&[
            (0.25, 1),
            (0.25, 2),
            (0.5, 4),
            (1.0, 8),
            (1.0, 2),
        ]));
        let s = pddl_telemetry::json::to_string(&model).unwrap();
        let m2: ErnestModel = pddl_telemetry::json::from_str(&s).unwrap();
        assert_eq!(m2.theta, model.theta);
    }
}
