//! Feature standardization (zero mean, unit variance per column).

use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use pddl_tensor::Matrix;

/// Column-wise standard scaler.
#[derive(Clone, Debug, Default)]
pub struct StandardScaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl ToJson for StandardScaler {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object().field("mean", &self.mean).field("std", &self.std).end();
    }
}

/// Checked after decode: `transform_row` pairs each mean with its standard
/// deviation, so the two lists must have one length.
impl FromJson for StandardScaler {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        let (mean, std): (Vec<f32>, Vec<f32>) = (o.field("mean")?, o.field("std")?);
        if mean.len() != std.len() {
            return Err(JsonError::Shape(format!(
                "scaler has {} means but {} standard deviations",
                mean.len(),
                std.len()
            )));
        }
        Ok(Self { mean, std })
    }
}

impl StandardScaler {
    /// Fits to the columns of `x`. Constant columns get σ = 1 so they map
    /// to zero instead of NaN.
    pub fn fit(x: &Matrix) -> Self {
        let (n, d) = x.shape();
        assert!(n > 0, "cannot fit scaler on empty matrix");
        let mut mean = vec![0.0f64; d];
        for r in 0..n {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; d];
        for r in 0..n {
            for (j, &v) in x.row(r).iter().enumerate() {
                let dlt = v as f64 - mean[j];
                var[j] += dlt * dlt;
            }
        }
        let std: Vec<f32> = var
            .iter()
            .map(|&v| {
                let s = (v / n as f64).sqrt();
                if s < 1e-9 {
                    1.0
                } else {
                    s as f32
                }
            })
            .collect();
        Self { mean: mean.iter().map(|&m| m as f32).collect(), std }
    }

    /// Number of columns it was fitted to.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardizes rows of `x`: [`Self::transform_row`] per row.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.mean.len(), "scaler dimensionality mismatch");
        let mut out = x.clone();
        for r in 0..out.rows() {
            self.transform_row(out.row_mut(r));
        }
        out
    }

    /// Standardizes one row in place. The one place a row is scaled: the
    /// matrix transform and the single-row predict both call it.
    pub fn transform_row(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.mean.len(), "scaler dimensionality mismatch");
        for ((v, &m), &s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// Inverse transform (used on predicted targets).
    pub fn inverse(&self, x: &Matrix) -> Matrix {
        let (n, d) = x.shape();
        assert_eq!(d, self.mean.len());
        let mut out = Matrix::zeros(n, d);
        for r in 0..n {
            for (j, &v) in x.row(r).iter().enumerate() {
                out[(r, j)] = v * self.std[j] + self.mean[j];
            }
        }
        out
    }

    /// Scalar helpers for 1-D targets.
    pub fn fit_1d(y: &[f32]) -> (f32, f32) {
        let n = y.len().max(1) as f64;
        let mean = y.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = y.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-9);
        (mean as f32, std as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_tensor::Rng;

    #[test]
    fn transformed_columns_are_standardized() {
        let mut rng = Rng::new(1);
        let mut x = Matrix::zeros(500, 3);
        for r in 0..500 {
            x[(r, 0)] = rng.normal_with(10.0, 2.0);
            x[(r, 1)] = rng.normal_with(-5.0, 0.1);
            x[(r, 2)] = rng.normal_with(0.0, 100.0);
        }
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        for j in 0..3 {
            let col = t.col(j);
            let mean: f32 = col.iter().sum::<f32>() / 500.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 500.0;
            assert!(mean.abs() < 1e-4, "col {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "col {j} var {var}");
        }
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = Rng::new(2);
        let x = Matrix::rand_normal(20, 4, 3.0, &mut rng);
        let s = StandardScaler::fit(&x);
        let back = s.inverse(&s.transform(&x));
        assert!((&back - &x).max_abs() < 1e-4);
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let x = Matrix::from_rows(&[&[5.0, 1.0], &[5.0, 2.0], &[5.0, 3.0]]);
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        for r in 0..3 {
            assert_eq!(t[(r, 0)], 0.0);
        }
    }

    #[test]
    fn lists_of_different_lengths_are_a_decode_error() {
        use pddl_telemetry::json::{self, JsonError};
        let s = StandardScaler::fit(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 5.0]]));
        let text = json::to_string(&s).unwrap();
        let back: StandardScaler = json::from_str(&text).unwrap();
        assert_eq!(json::to_string(&back).unwrap(), text);
        let err = json::from_str::<StandardScaler>(r#"{"mean":[0.5],"std":[1.0,2.0]}"#).err();
        let want = "scaler has 1 means but 2 standard deviations";
        assert_eq!(err, Some(JsonError::Shape(want.into())));
    }

    #[test]
    fn fit_1d_stats() {
        let (m, s) = StandardScaler::fit_1d(&[1.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!((s - 1.0).abs() < 1e-6);
    }
}
