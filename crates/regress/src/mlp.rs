//! Multi-layer-perceptron regressor on the workspace autodiff engine.
//!
//! Matches the paper's configuration space: "for MLP, we use a single hidden
//! layer with 1 to 5 neurons ... to avoid over-fitting" (§IV-B2). Inputs and
//! targets are standardized internally; training is full-batch Adam.

use crate::scale::StandardScaler;
use crate::Regressor;
use pddl_autodiff::{Adam, Mlp, ParamStore, Tape};
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use pddl_tensor::{Activation, Matrix, Rng};

/// Single-hidden-layer MLP regressor.
#[derive(Clone)]
pub struct MlpRegressor {
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
    state: Option<Fitted>,
}

impl ToJson for MlpRegressor {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("hidden", &self.hidden)
            .field("epochs", &self.epochs)
            .field("lr", &self.lr)
            .field("seed", &self.seed)
            .field("state", &self.state)
            .end();
    }
}

impl FromJson for MlpRegressor {
    /// The fitted state's network is the one `fit` builds for `hidden` and
    /// the scaler's width, filled from the stored `ps` by name.
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        let (hidden, epochs, lr, seed) = (o.field("hidden")?, o.field("epochs")?, o.field("lr")?, o.field("seed")?);
        let state = match o.get("state") {
            None | Some(JsonValue::Null) => None,
            Some(state) => Some(Fitted::read(state, hidden).map_err(|e| e.in_field("state"))?),
        };
        Ok(Self { hidden, epochs, lr, seed, state })
    }
}

/// The trained network and the scalings around it. Checkpointed as
/// `{"ps","x_scaler","y_mean","y_std"}`.
#[derive(Clone)]
struct Fitted {
    ps: ParamStore,
    net: Mlp,
    x_scaler: StandardScaler,
    y_mean: f32,
    y_std: f32,
}

impl ToJson for Fitted {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("ps", &self.ps)
            .field("x_scaler", &self.x_scaler)
            .field("y_mean", &self.y_mean)
            .field("y_std", &self.y_std)
            .end();
    }
}

impl Fitted {
    /// The network `fit` trains: `inputs → hidden (tanh) → 1`.
    fn net(ps: &mut ParamStore, inputs: usize, hidden: usize, rng: &mut Rng) -> Mlp {
        Mlp::new(ps, "mlpreg", [inputs, hidden, 1], Activation::Tanh, rng)
    }

    /// Decodes a fitted state of `hidden` neurons: the network is rebuilt
    /// (any seed: `load` replaces every value) and filled from `ps`.
    fn read(v: &JsonValue, hidden: usize) -> Result<Self, JsonError> {
        let o = v.fields()?;
        let (stored, x_scaler): (ParamStore, StandardScaler) = (o.field("ps")?, o.field("x_scaler")?);
        let mut ps = ParamStore::new();
        let net = Self::net(&mut ps, x_scaler.dim(), hidden, &mut Rng::new(0));
        let rest = ps.load(stored).map_err(|e| JsonError::Shape(format!("ps: {e}")))?;
        if let Some(name) = rest.first() {
            return Err(JsonError::Shape(format!("ps: parameter `{name}` follows the network's")));
        }
        Ok(Self { ps, net, x_scaler, y_mean: o.field("y_mean")?, y_std: o.field("y_std")? })
    }
}

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
        let net = Fitted::net(&mut ps, x.cols(), self.hidden, &mut rng);
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

    /// A fitted state whose store is not the network `hidden` and the
    /// scaler describe used to decode and then panic in the first
    /// `predict`; it is a decode error naming the parameter.
    #[test]
    fn misshapen_checkpoints_are_decode_errors() {
        use pddl_telemetry::json;
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.5], &[2.0, -1.0]]);
        let mut m = MlpRegressor::new(3, 5, 0.05, 7);
        m.fit(&x, &[1.0, 2.0, 3.0]);
        let text = json::to_string(&m).unwrap();
        let back: MlpRegressor = json::from_str(&text).unwrap();
        assert_eq!(json::to_string(&back).unwrap(), text);
        assert_eq!(back.predict(&x), m.predict(&x));

        // The fitted store is `mlpreg.l0.w`, `l0.b`, `l1.w`, `l1.b`; each
        // case writes it with `l1.w` (id 2) dropped or replaced.
        let ps = &m.state.as_ref().unwrap().ps;
        let stored = json::to_string(ps).unwrap();
        let decode = |l1_w: Option<Matrix>| {
            let mut edited = ParamStore::new();
            for id in ps.ids() {
                if let Some(value) = if id.0 == 2 { l1_w.clone() } else { Some(ps.get(id).clone()) } {
                    edited.register(ps.name(id), value);
                }
            }
            json::from_str::<MlpRegressor>(&text.replacen(&stored, &json::to_string(&edited).unwrap(), 1)).err()
        };
        let want = "state: ps: parameter 2 is `mlpreg.l1.b`, expected `mlpreg.l1.w`";
        assert_eq!(decode(None), Some(JsonError::Shape(want.into())));
        let want = "state: ps: parameter `mlpreg.l1.w` is (1, 1), expected (3, 1)";
        assert_eq!(decode(Some(Matrix::zeros(1, 1))), Some(JsonError::Shape(want.into())));

        // An `x_scaler` with one standard deviation short: `{…,"std":[s0]}`.
        let scaler = json::to_string(&m.state.as_ref().unwrap().x_scaler).unwrap();
        let short = format!("{}]}}", &scaler[..scaler.rfind(',').unwrap()]);
        let err = json::from_str::<MlpRegressor>(&text.replacen(&scaler, &short, 1)).err();
        let want = "state: x_scaler: scaler has 2 means but 1 standard deviations";
        assert_eq!(err, Some(JsonError::Shape(want.into())));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn unfitted_predict_panics() {
        let m = MlpRegressor::new(2, 10, 0.01, 1);
        let _ = m.predict(&Matrix::zeros(1, 1));
    }
}
