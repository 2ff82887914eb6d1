//! Polynomial feature expansion.
//!
//! The paper's chosen regressor is second-order polynomial regression
//! ("because of the added benefit of including both the first and second
//! powers of feature values", §IV-B2). Degree-2 expansion of `d` features
//! yields `1 + d + d(d+1)/2` columns (bias, linear terms, squares and
//! pairwise interactions).

use pddl_tensor::Matrix;

/// Polynomial expansion transformer. Degrees 1–3 are supported; degree 2 is
/// what the paper evaluates.
#[derive(Clone, Copy, Debug)]
pub struct PolyFeatures {
    pub degree: usize,
    /// Include pairwise/triple interaction terms (not just powers).
    pub interactions: bool,
}

pddl_telemetry::json_struct!(PolyFeatures { degree, interactions });

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

    /// Expands each row of `x`: [`Self::expand_row_into`] per row.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let (n, d) = x.shape();
        let mut out = Matrix::zeros(n, self.out_dim(d));
        for r in 0..n {
            self.expand_row_into(x.row(r), out.row_mut(r));
        }
        out
    }

    /// Writes the expansion of one row `x` into `out`, which must be
    /// [`Self::out_dim`] wide. The one place a row is expanded: the matrix
    /// transform and the single-row predict both call it.
    pub fn expand_row_into(&self, x: &[f32], out: &mut [f32]) {
        let d = x.len();
        assert_eq!(out.len(), self.out_dim(d), "expansion width mismatch");
        out[0] = 1.0;
        out[1..=d].copy_from_slice(x);
        // Terms `x[i] * x[j]` (then `* x[l]`), i ≤ j ≤ l, in lexicographic
        // order, each inner run written as one slice.
        let mut k = 1 + d;
        if self.degree >= 2 {
            if self.interactions {
                for (i, &xi) in x.iter().enumerate() {
                    for (o, &xj) in out[k..k + d - i].iter_mut().zip(&x[i..]) {
                        *o = xi * xj;
                    }
                    k += d - i;
                }
            } else {
                for (o, &xi) in out[k..k + d].iter_mut().zip(x) {
                    *o = xi * xi;
                }
                k += d;
            }
        }
        if self.degree >= 3 {
            if self.interactions {
                for (i, &xi) in x.iter().enumerate() {
                    for (j, &xj) in x.iter().enumerate().skip(i) {
                        let xij = xi * xj;
                        for (o, &xl) in out[k..k + d - j].iter_mut().zip(&x[j..]) {
                            *o = xij * xl;
                        }
                        k += d - j;
                    }
                }
            } else {
                for (o, &xi) in out[k..k + d].iter_mut().zip(x) {
                    *o = xi * xi * xi;
                }
                k += d;
            }
        }
        debug_assert_eq!(k, out.len());
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

    /// Every expansion equals its definition term by term, bit for bit:
    /// `x[i] * x[j]` (`* x[l]`) over i ≤ j ≤ l in lexicographic order.
    #[test]
    #[allow(clippy::needless_range_loop)] // the definition, as index triples
    fn expansion_matches_the_triangular_definition() {
        let x: Vec<f32> = (0..7).map(|i| 0.37 * i as f32 - 1.1).collect();
        let d = x.len();
        for degree in 1..=3 {
            for interactions in [true, false] {
                let p = PolyFeatures::new(degree, interactions);
                let mut want = vec![1.0];
                want.extend_from_slice(&x);
                if degree >= 2 {
                    for i in 0..d {
                        for j in i..d {
                            if interactions || i == j {
                                want.push(x[i] * x[j]);
                            }
                        }
                    }
                }
                if degree >= 3 {
                    for i in 0..d {
                        for j in i..d {
                            for l in j..d {
                                if interactions || (i == j && j == l) {
                                    want.push(x[i] * x[j] * x[l]);
                                }
                            }
                        }
                    }
                }
                let mut got = vec![f32::NAN; p.out_dim(d)];
                p.expand_row_into(&x, &mut got);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "degree {degree}, interactions {interactions}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "degree must be")]
    fn rejects_degree_zero() {
        let _ = PolyFeatures::new(0, true);
    }
}
