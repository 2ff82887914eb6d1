//! Polynomial feature expansion.
//!
//! The paper's chosen regressor is second-order polynomial regression
//! ("because of the added benefit of including both the first and second
//! powers of feature values", §IV-B2). Degree-2 expansion of `d` features
//! yields `1 + d + d(d+1)/2` columns (bias, linear terms, squares and
//! pairwise interactions).

use pddl_tensor::Matrix;
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// Polynomial expansion transformer. Degrees 1–3 are supported; degree 2 is
/// what the paper evaluates.
#[derive(Clone, Copy, Debug)]
pub struct PolyFeatures {
    pub degree: usize,
    /// Include pairwise/triple interaction terms (not just powers).
    pub interactions: bool,
}

impl ToJson for PolyFeatures {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("degree", &self.degree)
            .field("interactions", &self.interactions)
            .end();
    }
}

impl FromJson for PolyFeatures {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self { degree: o.field("degree")?, interactions: o.field("interactions")? })
    }
}

impl PolyFeatures {
    pub fn new(degree: usize, interactions: bool) -> Self {
        assert!((1..=3).contains(&degree), "degree must be 1..=3");
        Self { degree, interactions }
    }

    /// Output width for `d` input features.
    pub fn out_dim(&self, d: usize) -> usize {
        let mut n = 1 + d; // bias + linear
        if self.degree >= 2 {
            n += if self.interactions { d * (d + 1) / 2 } else { d };
        }
        if self.degree >= 3 {
            n += if self.interactions { d * (d + 1) * (d + 2) / 6 } else { d };
        }
        n
    }

    /// Expands each row of `x`.
    #[allow(clippy::needless_range_loop)] // triangular index pairs (i ≤ j ≤ l)
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let (n, d) = x.shape();
        let out_d = self.out_dim(d);
        let mut out = Matrix::zeros(n, out_d);
        for r in 0..n {
            let row = x.row(r);
            let o = out.row_mut(r);
            let mut k = 0;
            o[k] = 1.0;
            k += 1;
            o[k..k + d].copy_from_slice(row);
            k += d;
            if self.degree >= 2 {
                if self.interactions {
                    for i in 0..d {
                        for j in i..d {
                            o[k] = row[i] * row[j];
                            k += 1;
                        }
                    }
                } else {
                    for i in 0..d {
                        o[k] = row[i] * row[i];
                        k += 1;
                    }
                }
            }
            if self.degree >= 3 {
                if self.interactions {
                    for i in 0..d {
                        for j in i..d {
                            for l in j..d {
                                o[k] = row[i] * row[j] * row[l];
                                k += 1;
                            }
                        }
                    }
                } else {
                    for i in 0..d {
                        o[k] = row[i] * row[i] * row[i];
                        k += 1;
                    }
                }
            }
            debug_assert_eq!(k, out_d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree2_dimension_formula() {
        let p = PolyFeatures::new(2, true);
        for d in [1usize, 2, 3, 5, 10] {
            assert_eq!(p.out_dim(d), 1 + d + d * (d + 1) / 2);
        }
    }

    #[test]
    fn degree2_values_hand_checked() {
        let p = PolyFeatures::new(2, true);
        let x = Matrix::from_rows(&[&[2.0, 3.0]]);
        let t = p.transform(&x);
        // [1, 2, 3, 4, 6, 9]
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]);
    }

    #[test]
    fn no_interactions_squares_only() {
        let p = PolyFeatures::new(2, false);
        let x = Matrix::from_rows(&[&[2.0, 3.0]]);
        let t = p.transform(&x);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0, 4.0, 9.0]);
    }

    #[test]
    fn degree1_is_bias_plus_identity() {
        let p = PolyFeatures::new(1, true);
        let x = Matrix::from_rows(&[&[7.0, -1.0]]);
        assert_eq!(p.transform(&x).row(0), &[1.0, 7.0, -1.0]);
    }

    #[test]
    fn degree3_dimension() {
        let p = PolyFeatures::new(3, true);
        let d = 3;
        assert_eq!(p.out_dim(d), 1 + 3 + 6 + 10);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert_eq!(p.transform(&x).cols(), p.out_dim(d));
    }

    #[test]
    #[should_panic(expected = "degree must be")]
    fn rejects_degree_zero() {
        let _ = PolyFeatures::new(0, true);
    }
}
