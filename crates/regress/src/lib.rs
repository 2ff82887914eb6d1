//! Regression substrate for PredictDDL's Inference Engine.
//!
//! §III-C: "We train a representative number of regression algorithms,
//! namely linear regression, generalized linear regression with polynomial
//! terms, support vector regression, and multi-layer perceptron, and choose
//! the one that performs best." All four are implemented here from scratch:
//!
//! * [`linear::LinearRegression`] — OLS via Householder QR;
//! * [`linear::Ridge`] — L2-regularized normal equations via Cholesky;
//! * [`poly::PolyFeatures`] + OLS/ridge = the paper's second-order
//!   polynomial regression (its chosen default, §IV-B2);
//! * [`svr::Svr`] — ε-insensitive support vector regression by dual
//!   coordinate descent, linear and RBF kernels;
//! * [`mlp::MlpRegressor`] — single-hidden-layer perceptron on the
//!   workspace autodiff engine (the paper limits it to 1–5 neurons).
//!
//! Plus the supporting cast: standardization, train/test splitting, k-fold
//! cross-validation, grid search (the paper grid-searches SVR over
//! C ∈ [1, 10³], γ ∈ [0.05, 0.5], ε ∈ [0.05, 0.2]), and error metrics.
//!
//! Beyond the paper's one-shot offline fit, the crate also carries the
//! continual-refit loop (§VI future work), once, as [`refit::RefitLoop`]:
//! [`online::OnlineRidge`] applies rank-1 Sherman–Morrison updates per
//! completed job with a sliding-window full-refit fallback,
//! [`drift::PageHinkley`] watches standardized residuals for cluster
//! cost-model shifts, and on a fire the loop translates the window onto
//! the new level and refits. The serving inlet and the scheduling engine
//! both run it.

pub mod drift;
pub mod gridsearch;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod online;
pub mod poly;
pub mod refit;
pub mod scale;
pub mod split;
pub mod svr;

pub use drift::{DriftEvent, PageHinkley, ResidualScale};
pub use knn::{Distance, KnnRegressor};
pub use online::{batch_ridge, OnlineRidge};
pub use refit::RefitLoop;
pub use linear::{LinearRegression, Ridge};
pub use metrics::{rmse, ErrorSummary};
pub use mlp::MlpRegressor;
pub use poly::PolyFeatures;
pub use scale::StandardScaler;
pub use split::train_test_split;
pub use svr::{Kernel, Svr};

use pddl_tensor::Matrix;
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// Common interface: fit on `x` (rows = samples) against targets `y`, then
/// predict new rows.
pub trait Regressor {
    fn fit(&mut self, x: &Matrix, y: &[f32]);
    fn predict(&self, x: &Matrix) -> Vec<f32>;
}

/// The paper's four regression-model choices, as one pluggable enum
/// ("PredictDDL also allows users to directly specify their preferred
/// regression model"). Cloning an unfitted model is how a trainer hands
/// out its choice; cloning a fitted one copies its fitted state.
#[derive(Clone)]
pub enum Regression {
    /// Generalized linear regression (LR in Fig. 10).
    Linear(LinearRegression),
    /// Second-order polynomial regression (PR in Fig. 10) = poly features
    /// + ridge, the combination the paper selects as its default.
    Polynomial { expand: PolyFeatures, model: Ridge },
    /// Support vector regression (SVR in Fig. 10).
    Svr(Svr),
    /// Multi-layer perceptron (MLP in Fig. 10).
    Mlp(MlpRegressor),
}

impl ToJson for Regression {
    fn write_json(&self, w: &mut JsonWriter) {
        let o = w.object();
        match self {
            Regression::Linear(m) => o.field("Linear", m),
            Regression::Polynomial { expand, model } => o.field_with("Polynomial", |w| {
                w.object().field("expand", expand).field("model", model).end()
            }),
            Regression::Svr(m) => o.field("Svr", m),
            Regression::Mlp(m) => o.field("Mlp", m),
        }
        .end();
    }
}

impl FromJson for Regression {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(match v.variant()? {
            ("Linear", m) => Regression::Linear(FromJson::read_json(m)?),
            ("Polynomial", fields) => {
                let o = fields.fields()?;
                Regression::Polynomial { expand: o.field("expand")?, model: o.field("model")? }
            }
            ("Svr", m) => Regression::Svr(FromJson::read_json(m)?),
            ("Mlp", m) => Regression::Mlp(FromJson::read_json(m)?),
            (other, _) => return Err(JsonError::unknown_variant(other)),
        })
    }
}


impl Regression {
    /// Paper-default: second-order polynomial regression with light ridge.
    pub fn polynomial(degree: usize, lambda: f32) -> Self {
        Regression::Polynomial {
            expand: PolyFeatures::new(degree, true),
            model: Ridge::new(lambda),
        }
    }

    /// Polynomial regression without cross terms (squares only) — the right
    /// shape when the raw feature space is already wide (e.g. a 32-d GHN
    /// embedding), where full pairwise interactions would exceed the sample
    /// count.
    pub fn polynomial_squares(degree: usize, lambda: f32) -> Self {
        Regression::Polynomial {
            expand: PolyFeatures::new(degree, false),
            model: Ridge::new(lambda),
        }
    }

    pub fn linear() -> Self {
        Regression::Linear(LinearRegression::new())
    }

    pub fn svr(kernel: Kernel, c: f32, epsilon: f32) -> Self {
        Regression::Svr(Svr::new(kernel, c, epsilon))
    }

    pub fn mlp(hidden: usize, epochs: usize, lr: f32, seed: u64) -> Self {
        Regression::Mlp(MlpRegressor::new(hidden, epochs, lr, seed))
    }

    /// Predicts one feature row. The polynomial and linear variants
    /// expand and multiply it in a reused per-thread buffer, so they
    /// allocate nothing; their matrix [`Regressor::predict`] is this, row
    /// by row.
    pub fn predict_row(&self, x: &[f32]) -> f32 {
        match self {
            Regression::Linear(m) => m.predict_row(x),
            Regression::Polynomial { expand, model } => {
                linear::design_row_dot(&model.coef, expand.out_dim(x.len()), |row| {
                    expand.expand_row_into(x, row)
                })
            }
            Regression::Svr(m) => m.predict_row(x),
            Regression::Mlp(m) => m.predict(&Matrix::from_vec(1, x.len(), x.to_vec()))[0],
        }
    }

    /// Display name matching Fig. 10's legend.
    pub fn name(&self) -> &'static str {
        match self {
            Regression::Linear(_) => "LR",
            Regression::Polynomial { .. } => "PR",
            Regression::Svr(_) => "SVR",
            Regression::Mlp(_) => "MLP",
        }
    }
}

impl Regressor for Regression {
    fn fit(&mut self, x: &Matrix, y: &[f32]) {
        match self {
            Regression::Linear(m) => m.fit(x, y),
            Regression::Polynomial { expand, model } => {
                let xp = expand.transform(x);
                model.fit(&xp, y);
            }
            Regression::Svr(m) => m.fit(x, y),
            Regression::Mlp(m) => m.fit(x, y),
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        match self {
            Regression::Linear(m) => m.predict(x),
            Regression::Polynomial { .. } => {
                (0..x.rows()).map(|r| self.predict_row(x.row(r))).collect()
            }
            Regression::Svr(m) => m.predict(x),
            Regression::Mlp(m) => m.predict(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_tensor::Rng;

    /// All four regressors should fit a smooth quadratic reasonably.
    #[test]
    fn all_variants_fit_a_quadratic() {
        let mut rng = Rng::new(42);
        let n = 200;
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = rng.uniform(-1.0, 1.0);
            let b = rng.uniform(-1.0, 1.0);
            x[(i, 0)] = a;
            x[(i, 1)] = b;
            y.push(1.0 + 2.0 * a - b + 0.5 * a * b + a * a);
        }
        let configs: Vec<(Regression, f32)> = vec![
            (Regression::linear(), 0.65),            // misses curvature
            (Regression::polynomial(2, 1e-4), 0.05), // exact family
            (Regression::svr(Kernel::Rbf { gamma: 0.5 }, 10.0, 0.05), 0.30),
            (Regression::mlp(5, 600, 0.02, 7), 0.45),
        ];
        for (mut model, tol) in configs {
            model.fit(&x, &y);
            let pred = model.predict(&x);
            let err = metrics::rmse(&pred, &y);
            assert!(err < tol, "{} rmse {err} > {tol}", model.name());
        }
    }

    /// One JSON round trip per variant, fitted and unfitted: the reloaded
    /// model predicts bit-identically and re-renders to the same bytes.
    #[test]
    fn every_variant_round_trips_json_bit_exactly() {
        use pddl_telemetry::json;
        let mut rng = Rng::new(3);
        let x = Matrix::rand_normal(40, 3, 1.0, &mut rng);
        let y: Vec<f32> = (0..40).map(|i| x[(i, 0)] - 2.0 * x[(i, 1)] * x[(i, 2)]).collect();
        let variants = || {
            [
                Regression::linear(),
                Regression::polynomial(2, 1e-3),
                Regression::polynomial_squares(3, 1e-2),
                Regression::svr(Kernel::Linear, 1.0, 0.1),
                Regression::svr(Kernel::Rbf { gamma: 0.25 }, 10.0, 0.05),
                Regression::mlp(3, 40, 0.02, 9),
            ]
        };
        for (unfitted, mut model) in variants().into_iter().zip(variants()) {
            let blank = json::to_string(&unfitted).unwrap();
            let back: Regression = json::from_str(&blank).unwrap();
            assert_eq!(json::to_string(&back).unwrap(), blank, "{} unfitted", model.name());

            model.fit(&x, &y);
            let text = json::to_string(&model).unwrap();
            let back: Regression = json::from_str(&text).unwrap();
            assert_eq!(back.name(), model.name());
            let bits = |m: &Regression| -> Vec<u32> {
                m.predict(&x).iter().map(|p| p.to_bits()).collect()
            };
            assert_eq!(bits(&back), bits(&model), "{} predictions drifted", model.name());
            assert_eq!(json::to_string(&back).unwrap(), text, "{} re-render", model.name());
        }
        assert!(json::from_str::<Regression>(r#"{"Forest":{}}"#).is_err());
    }

    /// The row path has the matrix path's bits: every variant's
    /// `predict_row` equals its matrix `predict`, and the linear and
    /// polynomial rows equal `matvec` over the whole design matrix, the
    /// path a prediction took before it went row by row.
    #[test]
    fn predict_row_has_the_bits_of_the_design_matrix_product() {
        let mut rng = Rng::new(11);
        let x = Matrix::rand_normal(30, 5, 1.0, &mut rng);
        let y: Vec<f32> = (0..30).map(|i| x[(i, 0)] * x[(i, 3)] - x[(i, 2)]).collect();
        let design = |m: &Matrix| Matrix::hstack(&[&Matrix::ones(m.rows(), 1), m]);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|p| p.to_bits()).collect() };
        for mut model in [
            Regression::linear(),
            Regression::polynomial(2, 1e-3),
            Regression::polynomial_squares(3, 1e-2),
            Regression::svr(Kernel::Rbf { gamma: 0.25 }, 10.0, 0.05),
            Regression::mlp(3, 40, 0.02, 9),
        ] {
            model.fit(&x, &y);
            let rows: Vec<f32> = (0..x.rows()).map(|r| model.predict_row(x.row(r))).collect();
            assert_eq!(bits(&rows), bits(&model.predict(&x)), "{}", model.name());
            let product = match &model {
                Regression::Linear(m) => design(&x).matvec(&m.coef),
                Regression::Polynomial { expand, model } => {
                    design(&expand.transform(&x)).matvec(&model.coef)
                }
                _ => continue,
            };
            assert_eq!(bits(&rows), bits(&product), "{}", model.name());
        }
    }

    #[test]
    #[should_panic(expected = "feature width changed")]
    fn a_row_of_the_wrong_width_is_refused() {
        let mut model = Regression::polynomial(2, 1e-3);
        model.fit(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 5.0], &[4.0, 4.0]]), &[1.0, 2.0, 3.0]);
        model.predict_row(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn names_match_figure_10() {
        assert_eq!(Regression::linear().name(), "LR");
        assert_eq!(Regression::polynomial(2, 0.0).name(), "PR");
        assert_eq!(Regression::svr(Kernel::Linear, 1.0, 0.1).name(), "SVR");
        assert_eq!(Regression::mlp(3, 10, 0.01, 1).name(), "MLP");
    }
}
