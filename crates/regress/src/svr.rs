//! ε-insensitive support vector regression.
//!
//! Solver: dual coordinate descent on the bias-in-kernel formulation.
//! With `K̃ = K + 1` (the constant absorbs the bias, removing the equality
//! constraint), the dual is
//!
//! ```text
//! max_β  −½ βᵀK̃β + yᵀβ − ε‖β‖₁   s.t. |β_i| ≤ C
//! ```
//!
//! which coordinate-wise has the closed-form soft-threshold update
//! `β_i ← clip( soft(r_i + K̃_ii β_i, ε) / K̃_ii, ±C )` where `r_i = y_i − f(x_i)`.
//! This is the standard liblinear-style SVR solver, kernelized.

use crate::Regressor;
use pddl_tensor::Matrix;
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// Kernel functions for [`Svr`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    Linear,
    /// `exp(−γ‖a−b‖²)`.
    Rbf { gamma: f32 },
}

impl ToJson for Kernel {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Kernel::Linear => w.string("Linear"),
            Kernel::Rbf { gamma } => w
                .object()
                .field_with("Rbf", |w| w.object().field("gamma", gamma).end())
                .end(),
        }
    }
}

impl FromJson for Kernel {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v.variant()? {
            ("Linear", _) => Ok(Kernel::Linear),
            ("Rbf", fields) => Ok(Kernel::Rbf { gamma: fields.fields()?.field("gamma")? }),
            (other, _) => Err(JsonError::unknown_variant(other)),
        }
    }
}


impl Kernel {
    fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        match *self {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

/// ε-SVR model. Hyperparameters follow the paper's grid-search ranges
/// (`C ∈ [1, 10³]`, `γ ∈ [0.05, 0.5]`, `ε ∈ [0.05, 0.2]`).
#[derive(Clone, Debug)]
pub struct Svr {
    pub kernel: Kernel,
    pub c: f32,
    pub epsilon: f32,
    /// Coordinate-descent sweeps.
    pub max_iter: usize,
    /// Convergence threshold on the largest β change per sweep.
    pub tol: f32,
    beta: Vec<f32>,
    support: Matrix,
}

impl ToJson for Svr {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("kernel", &self.kernel)
            .field("c", &self.c)
            .field("epsilon", &self.epsilon)
            .field("max_iter", &self.max_iter)
            .field("tol", &self.tol)
            .field("beta", &self.beta)
            .field("support", &self.support)
            .end();
    }
}

impl FromJson for Svr {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            kernel: o.field("kernel")?,
            c: o.field("c")?,
            epsilon: o.field("epsilon")?,
            max_iter: o.field("max_iter")?,
            tol: o.field("tol")?,
            beta: o.field("beta")?,
            support: o.field("support")?,
        })
    }
}

impl Svr {
    pub fn new(kernel: Kernel, c: f32, epsilon: f32) -> Self {
        assert!(c > 0.0 && epsilon >= 0.0);
        Self {
            kernel,
            c,
            epsilon,
            max_iter: 200,
            tol: 1e-4,
            beta: Vec::new(),
            support: Matrix::zeros(0, 0),
        }
    }

    /// Number of support vectors (|β| > 0 after fitting).
    pub fn num_support_vectors(&self) -> usize {
        self.beta.iter().filter(|b| b.abs() > 1e-7).count()
    }

    fn decision(&self, x: &[f32]) -> f32 {
        let mut f = 0.0f32;
        for (i, &b) in self.beta.iter().enumerate() {
            if b != 0.0 {
                f += b * (self.kernel.eval(self.support.row(i), x) + 1.0);
            }
        }
        f
    }
}

impl Regressor for Svr {
    fn fit(&mut self, x: &Matrix, y: &[f32]) {
        let n = x.rows();
        assert_eq!(n, y.len(), "sample/target count mismatch");
        assert!(n > 0);
        // Dense kernel matrix with the +1 bias term.
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = self.kernel.eval(x.row(i), x.row(j)) + 1.0;
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        let mut beta = vec![0.0f32; n];
        // f_i = Σ_j K_ij β_j maintained incrementally.
        let mut f = vec![0.0f32; n];
        for _sweep in 0..self.max_iter {
            let mut max_delta = 0.0f32;
            for i in 0..n {
                let kii = k[(i, i)].max(1e-9);
                // Unconstrained minimizer along coordinate i with L1 term.
                let rho = y[i] - f[i] + kii * beta[i];
                let soft = if rho > self.epsilon {
                    rho - self.epsilon
                } else if rho < -self.epsilon {
                    rho + self.epsilon
                } else {
                    0.0
                };
                let new_beta = (soft / kii).clamp(-self.c, self.c);
                let delta = new_beta - beta[i];
                if delta != 0.0 {
                    beta[i] = new_beta;
                    for (fj, krow) in f.iter_mut().zip(k.row(i)) {
                        *fj += delta * krow;
                    }
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < self.tol {
                break;
            }
        }
        self.beta = beta;
        self.support = x.clone();
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.beta.is_empty(), "predict before fit");
        (0..x.rows()).map(|r| self.decision(x.row(r))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use pddl_tensor::Rng;

    #[test]
    fn linear_svr_fits_line() {
        let mut rng = Rng::new(1);
        let n = 80;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            let a = rng.uniform(-2.0, 2.0);
            x[(i, 0)] = a;
            y.push(3.0 * a + 1.0);
        }
        let mut m = Svr::new(Kernel::Linear, 100.0, 0.05);
        m.fit(&x, &y);
        let pred = m.predict(&x);
        assert!(rmse(&pred, &y) < 0.15, "rmse {}", rmse(&pred, &y));
    }

    #[test]
    fn rbf_svr_fits_sine() {
        let n = 120;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            let a = -3.0 + 6.0 * i as f32 / n as f32;
            x[(i, 0)] = a;
            y.push(a.sin());
        }
        let mut m = Svr::new(Kernel::Rbf { gamma: 1.0 }, 100.0, 0.02);
        m.fit(&x, &y);
        let pred = m.predict(&x);
        assert!(rmse(&pred, &y) < 0.1, "rmse {}", rmse(&pred, &y));
    }

    #[test]
    fn epsilon_tube_controls_sparsity() {
        let mut rng = Rng::new(2);
        let n = 60;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            let a = rng.uniform(-1.0, 1.0);
            x[(i, 0)] = a;
            y.push(a + 0.01 * rng.normal());
        }
        let mut tight = Svr::new(Kernel::Linear, 10.0, 0.001);
        let mut loose = Svr::new(Kernel::Linear, 10.0, 0.3);
        tight.fit(&x, &y);
        loose.fit(&x, &y);
        assert!(
            loose.num_support_vectors() <= tight.num_support_vectors(),
            "wider tube must not increase support vectors: {} vs {}",
            loose.num_support_vectors(),
            tight.num_support_vectors()
        );
    }

    #[test]
    fn c_bounds_coefficients() {
        let mut rng = Rng::new(3);
        let n = 40;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            let a = rng.uniform(-1.0, 1.0);
            x[(i, 0)] = a;
            y.push(100.0 * a); // steep target forces β against the box
        }
        let mut m = Svr::new(Kernel::Rbf { gamma: 0.1 }, 0.5, 0.05);
        m.fit(&x, &y);
        assert!(m.beta.iter().all(|b| b.abs() <= 0.5 + 1e-6));
    }

    #[test]
    fn rbf_kernel_is_one_at_zero_distance() {
        let k = Kernel::Rbf { gamma: 0.3 };
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-7);
        assert!(k.eval(&[0.0, 0.0], &[10.0, 10.0]) < 1e-6);
    }

    #[test]
    fn generalizes_to_heldout_points() {
        let n = 100;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            let a = -2.0 + 4.0 * i as f32 / n as f32;
            x[(i, 0)] = a;
            y.push(a * a);
        }
        let mut m = Svr::new(Kernel::Rbf { gamma: 0.5 }, 100.0, 0.02);
        m.fit(&x, &y);
        let test = Matrix::from_rows(&[&[0.5f32], &[-1.25], &[1.75]]);
        let pred = m.predict(&test);
        let expect = [0.25f32, 1.5625, 3.0625];
        for (p, e) in pred.iter().zip(&expect) {
            assert!((p - e).abs() < 0.25, "pred {p} vs {e}");
        }
    }
}
