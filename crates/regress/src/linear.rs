//! Ordinary least squares and ridge regression.

use crate::Regressor;
use pddl_tensor::linalg::{lstsq, solve_spd};
use pddl_tensor::matrix::dot;
use pddl_tensor::Matrix;
use std::cell::RefCell;

/// OLS linear regression with intercept, solved by Householder QR
/// (numerically stable for the ill-conditioned polynomial design matrices).
#[derive(Clone, Debug, Default)]
pub struct LinearRegression {
    /// `[intercept, w_1 … w_d]` after fitting.
    pub coef: Vec<f32>,
}

pddl_telemetry::json_struct!(LinearRegression { coef });

impl LinearRegression {
    pub fn new() -> Self {
        Self::default()
    }

    fn design(x: &Matrix) -> Matrix {
        let ones = Matrix::ones(x.rows(), 1);
        Matrix::hstack(&[&ones, x])
    }

    /// Predicts one feature row.
    pub fn predict_row(&self, x: &[f32]) -> f32 {
        design_row_dot(&self.coef, x.len(), |row| row.copy_from_slice(x))
    }
}

/// `[1 | row]·coef` for a `width`-wide `row` that `fill` writes: the one
/// place a fitted linear model is applied. The design row lives in a
/// reused per-thread buffer, so a prediction allocates nothing, and it is
/// summed by the same [`dot`] as a row of `Matrix::matvec` over the
/// design matrix, so it has the same bits.
pub(crate) fn design_row_dot(coef: &[f32], width: usize, fill: impl FnOnce(&mut [f32])) -> f32 {
    thread_local! {
        static DESIGN_ROW: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    assert!(!coef.is_empty(), "predict before fit");
    assert_eq!(width + 1, coef.len(), "feature width changed");
    DESIGN_ROW.with_borrow_mut(|row| {
        row.resize(coef.len(), 0.0);
        row[0] = 1.0;
        fill(&mut row[1..]);
        dot(row, coef)
    })
}

impl Regressor for LinearRegression {
    fn fit(&mut self, x: &Matrix, y: &[f32]) {
        assert_eq!(x.rows(), y.len(), "sample/target count mismatch");
        self.coef = lstsq(&Self::design(x), y);
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows()).map(|r| self.predict_row(x.row(r))).collect()
    }
}

/// Ridge regression `(XᵀX + λI)β = Xᵀy` via Cholesky; the intercept column
/// is not penalized.
#[derive(Clone, Debug)]
pub struct Ridge {
    pub lambda: f32,
    pub coef: Vec<f32>,
}

pddl_telemetry::json_struct!(Ridge { lambda, coef });

impl Ridge {
    pub fn new(lambda: f32) -> Self {
        assert!(lambda >= 0.0);
        Self { lambda, coef: Vec::new() }
    }

    /// Predicts one feature row.
    pub fn predict_row(&self, x: &[f32]) -> f32 {
        design_row_dot(&self.coef, x.len(), |row| row.copy_from_slice(x))
    }
}

impl Regressor for Ridge {
    fn fit(&mut self, x: &Matrix, y: &[f32]) {
        assert_eq!(x.rows(), y.len(), "sample/target count mismatch");
        let xd = LinearRegression::design(x);
        let d = xd.cols();
        let mut gram = xd.t_matmul(&xd);
        for i in 1..d {
            // skip the intercept at index 0
            gram[(i, i)] += self.lambda;
        }
        // Xᵀ·y on the packed TN kernel (y as an n×1 column).
        let ycol = Matrix::from_vec(y.len(), 1, y.to_vec());
        let xty = xd.t_matmul(&ycol).as_slice().to_vec();
        // Scale-aware diagonal jitter guarantees numerical SPD-ness for
        // rank-deficient / ill-conditioned designs (duplicated polynomial
        // columns, f32 Gram accumulation error on wide expansions). Retry
        // with growing jitter until Cholesky succeeds.
        let max_diag = (0..d).map(|i| gram[(i, i)]).fold(1e-12f32, f32::max);
        let mut jitter = 1e-7 * max_diag;
        self.coef = loop {
            let mut g = gram.clone();
            for i in 0..d {
                g[(i, i)] += jitter;
            }
            if let Some(c) = solve_spd(&g, &xty) {
                break c;
            }
            jitter *= 10.0;
            assert!(
                jitter.is_finite() && jitter < 1e6 * max_diag,
                "ridge system irreparably indefinite"
            );
        };
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows()).map(|r| self.predict_row(x.row(r))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_tensor::Rng;

    fn linear_data(n: usize, seed: u64) -> (Matrix, Vec<f32>) {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(n, 3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let (a, b, c) = (rng.normal(), rng.normal(), rng.normal());
            x[(i, 0)] = a;
            x[(i, 1)] = b;
            x[(i, 2)] = c;
            y.push(4.0 + 1.5 * a - 2.0 * b + 0.5 * c + 0.01 * rng.normal());
        }
        (x, y)
    }

    #[test]
    fn ols_recovers_coefficients() {
        let (x, y) = linear_data(300, 1);
        let mut m = LinearRegression::new();
        m.fit(&x, &y);
        let expect = [4.0, 1.5, -2.0, 0.5];
        for (c, e) in m.coef.iter().zip(&expect) {
            assert!((c - e).abs() < 0.02, "{:?}", m.coef);
        }
    }

    #[test]
    fn ols_predicts_heldout() {
        let (x, y) = linear_data(200, 2);
        let (xt, yt) = linear_data(50, 3);
        let mut m = LinearRegression::new();
        m.fit(&x, &y);
        let pred = m.predict(&xt);
        assert!(crate::metrics::rmse(&pred, &yt) < 0.05);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let (x, y) = linear_data(100, 4);
        let mut weak = Ridge::new(0.001);
        let mut strong = Ridge::new(1000.0);
        weak.fit(&x, &y);
        strong.fit(&x, &y);
        let norm = |c: &[f32]| c[1..].iter().map(|v| v * v).sum::<f32>();
        assert!(norm(&strong.coef) < norm(&weak.coef));
    }

    #[test]
    fn ridge_handles_duplicate_columns() {
        // Duplicated column makes OLS ill-posed; ridge must stay finite.
        let mut x = Matrix::zeros(50, 2);
        let mut rng = Rng::new(5);
        let mut y = Vec::new();
        for i in 0..50 {
            let a = rng.normal();
            x[(i, 0)] = a;
            x[(i, 1)] = a;
            y.push(3.0 * a);
        }
        let mut m = Ridge::new(0.1);
        m.fit(&x, &y);
        assert!(m.coef.iter().all(|c| c.is_finite()));
        let pred = m.predict(&x);
        assert!(crate::metrics::rmse(&pred, &y) < 0.1);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_unfitted_panics() {
        let m = LinearRegression::new();
        let _ = m.predict(&Matrix::zeros(1, 2));
    }

    #[test]
    fn ridge_zero_lambda_matches_ols_on_well_posed() {
        let (x, y) = linear_data(150, 6);
        let mut ols = LinearRegression::new();
        let mut ridge = Ridge::new(0.0);
        ols.fit(&x, &y);
        ridge.fit(&x, &y);
        for (a, b) in ols.coef.iter().zip(&ridge.coef) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }
}
