//! Multi-layer-perceptron regressor on the workspace autodiff engine.
//!
//! Matches the paper's configuration space: "for MLP, we use a single hidden
//! layer with 1 to 5 neurons ... to avoid over-fitting" (§IV-B2). Inputs and
//! targets are standardized internally; training is full-batch Adam.

use crate::scale::StandardScaler;
use crate::Regressor;
use pddl_autodiff::{layers::Activation, Adam, Mlp, Optimizer, ParamStore, Tape};
use pddl_tensor::{Matrix, Rng};

/// Single-hidden-layer MLP regressor.
#[derive(Clone)]
pub struct MlpRegressor {
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
    state: Option<Fitted>,
}

pddl_telemetry::json_struct!(MlpRegressor { hidden, epochs, lr, seed, state });

#[derive(Clone)]
struct Fitted {
    ps: ParamStore,
    net: Mlp,
    x_scaler: StandardScaler,
    y_mean: f32,
    y_std: f32,
}

pddl_telemetry::json_struct!(Fitted { ps, net, x_scaler, y_mean, y_std });

impl MlpRegressor {
    pub fn new(hidden: usize, epochs: usize, lr: f32, seed: u64) -> Self {
        assert!(hidden >= 1, "need at least one hidden neuron");
        Self { hidden, epochs, lr, seed, state: None }
    }
}

impl Regressor for MlpRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f32]) {
        assert_eq!(x.rows(), y.len(), "sample/target count mismatch");
        let x_scaler = StandardScaler::fit(x);
        let xs = x_scaler.transform(x);
        let (y_mean, y_std) = StandardScaler::fit_1d(y);
        let ys: Vec<f32> = y.iter().map(|v| (v - y_mean) / y_std).collect();
        let target = Matrix::col_vector(&ys);

        let mut rng = Rng::new(self.seed);
        let mut ps = ParamStore::new();
        let net = Mlp::new(
            &mut ps,
            "mlpreg",
            &[x.cols(), self.hidden, 1],
            Activation::Tanh,
            &mut rng,
        );
        let mut opt = Adam::new(self.lr);
        for _ in 0..self.epochs {
            let grads = {
                let mut tape = Tape::new(&ps);
                let xv = tape.constant(xs.clone());
                let pred = net.forward(&mut tape, xv);
                let tv = tape.constant(target.clone());
                let loss = tape.mse_loss(pred, tv);
                tape.backward(loss)
            };
            opt.step(&mut ps, &grads);
        }
        self.state = Some(Fitted { ps, net, x_scaler, y_mean, y_std });
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        let s = self.state.as_ref().expect("predict before fit");
        let xs = s.x_scaler.transform(x);
        let mut tape = Tape::new(&s.ps);
        let xv = tape.constant(xs);
        let pred = s.net.forward(&mut tape, xv);
        tape.value(pred)
            .col(0)
            .iter()
            .map(|v| v * s.y_std + s.y_mean)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    #[test]
    fn fits_linear_function() {
        let mut rng = Rng::new(1);
        let n = 150;
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let (a, b) = (rng.normal(), rng.normal());
            x[(i, 0)] = a;
            x[(i, 1)] = b;
            y.push(10.0 + 5.0 * a - 3.0 * b);
        }
        let mut m = MlpRegressor::new(4, 800, 0.02, 3);
        m.fit(&x, &y);
        let pred = m.predict(&x);
        let e = rmse(&pred, &y);
        assert!(e < 0.8, "rmse {e}");
    }

    #[test]
    fn fits_mild_nonlinearity() {
        let n = 100;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            let a = -2.0 + 4.0 * i as f32 / n as f32;
            x[(i, 0)] = a;
            y.push(a.tanh() * 4.0);
        }
        let mut m = MlpRegressor::new(3, 1200, 0.02, 5);
        m.fit(&x, &y);
        let pred = m.predict(&x);
        assert!(rmse(&pred, &y) < 0.4, "rmse {}", rmse(&pred, &y));
    }

    #[test]
    fn deterministic_given_seed() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = [0.0, 1.0, 2.0, 3.0];
        let mut m1 = MlpRegressor::new(2, 50, 0.05, 9);
        let mut m2 = MlpRegressor::new(2, 50, 0.05, 9);
        m1.fit(&x, &y);
        m2.fit(&x, &y);
        assert_eq!(m1.predict(&x), m2.predict(&x));
    }

    #[test]
    fn output_destandardized() {
        // Targets far from zero: predictions must land near them.
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let y = [1000.0, 1010.0];
        let mut m = MlpRegressor::new(2, 500, 0.05, 11);
        m.fit(&x, &y);
        let pred = m.predict(&x);
        assert!((pred[0] - 1000.0).abs() < 10.0, "{pred:?}");
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn unfitted_predict_panics() {
        let m = MlpRegressor::new(2, 10, 0.01, 1);
        let _ = m.predict(&Matrix::zeros(1, 1));
    }
}
