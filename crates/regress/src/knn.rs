//! k-nearest-neighbor regression.
//!
//! The paper's Fig. 5 mechanism — "the distance between a pair of vectors
//! to indicate the similarity of the corresponding DNN architectures ...
//! enables the regression algorithm to find the closest matching DNN
//! architecture" — as a literal predictor: average the targets of the k
//! closest training rows, optionally distance-weighted. Serves as an
//! interpretable extension baseline next to PR/SVR/MLP/LR.

use crate::Regressor;
use pddl_tensor::Matrix;

/// Distance metric for neighbor lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distance {
    Euclidean,
    /// 1 − cosine similarity (the paper's similarity measure).
    Cosine,
}

/// k-NN regressor with optional inverse-distance weighting.
#[derive(Clone, Debug)]
pub struct KnnRegressor {
    pub k: usize,
    pub distance: Distance,
    pub weighted: bool,
    x: Option<Matrix>,
    y: Vec<f32>,
}

impl KnnRegressor {
    pub fn new(k: usize, distance: Distance, weighted: bool) -> Self {
        assert!(k >= 1, "k must be positive");
        Self { k, distance, weighted, x: None, y: Vec::new() }
    }

    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        match self.distance {
            Distance::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt(),
            Distance::Cosine => {
                let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
                for (&x, &y) in a.iter().zip(b) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    1.0 - dot / (na.sqrt() * nb.sqrt())
                }
            }
        }
    }
}

impl Regressor for KnnRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f32]) {
        assert_eq!(x.rows(), y.len(), "sample/target count mismatch");
        assert!(x.rows() >= 1);
        self.x = Some(x.clone());
        self.y = y.to_vec();
    }

    fn predict(&self, q: &Matrix) -> Vec<f32> {
        let x = self.x.as_ref().expect("predict before fit");
        let k = self.k.min(x.rows());
        (0..q.rows())
            .map(|r| {
                let query = q.row(r);
                let mut scored: Vec<(f32, f32)> = (0..x.rows())
                    .map(|i| (self.dist(x.row(i), query), self.y[i]))
                    .collect();
                scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let top = &scored[..k];
                if self.weighted {
                    let mut num = 0.0f64;
                    let mut den = 0.0f64;
                    for &(d, y) in top {
                        let w = 1.0 / (d as f64 + 1e-6);
                        num += w * y as f64;
                        den += w;
                    }
                    (num / den) as f32
                } else {
                    top.iter().map(|&(_, y)| y).sum::<f32>() / k as f32
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> (Matrix, Vec<f32>) {
        // y = x0 on a 1-D grid.
        let xs: Vec<f32> = (0..20).map(|i| i as f32 / 2.0).collect();
        let x = Matrix::from_vec(20, 1, xs.clone());
        (x, xs)
    }

    #[test]
    fn exact_match_returns_neighbor_value() {
        let (x, y) = grid();
        let mut m = KnnRegressor::new(1, Distance::Euclidean, false);
        m.fit(&x, &y);
        let p = m.predict(&Matrix::from_rows(&[&[3.0]]));
        assert_eq!(p[0], 3.0);
    }

    #[test]
    fn k3_smooths() {
        let (x, y) = grid();
        let mut m = KnnRegressor::new(3, Distance::Euclidean, false);
        m.fit(&x, &y);
        let p = m.predict(&Matrix::from_rows(&[&[3.0]]));
        // Neighbors 2.5, 3.0, 3.5 → mean 3.0.
        assert!((p[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_knn_respects_distance() {
        let x = Matrix::from_rows(&[&[0.0], &[10.0]]);
        let y = [0.0, 100.0];
        let mut m = KnnRegressor::new(2, Distance::Euclidean, true);
        m.fit(&x, &y);
        let p = m.predict(&Matrix::from_rows(&[&[1.0]]));
        assert!(p[0] < 30.0, "{}", p[0]); // near 0.0's value
    }

    #[test]
    fn cosine_distance_scale_invariant() {
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let y = [1.0, 2.0];
        let mut m = KnnRegressor::new(1, Distance::Cosine, false);
        m.fit(&x, &y);
        // Scaled query still matches the first row's direction.
        let p = m.predict(&Matrix::from_rows(&[&[100.0, 1.0]]));
        assert_eq!(p[0], 1.0);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let y = [2.0, 4.0];
        let mut m = KnnRegressor::new(10, Distance::Euclidean, false);
        m.fit(&x, &y);
        let p = m.predict(&Matrix::from_rows(&[&[0.5]]));
        assert!((p[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn unfitted_panics() {
        let m = KnnRegressor::new(1, Distance::Euclidean, false);
        let _ = m.predict(&Matrix::zeros(1, 1));
    }
}
