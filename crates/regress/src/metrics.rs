//! Error metrics used throughout the evaluation.
//!
//! The paper reports (1) the relative error `Predicted/Actual` ("closer to 1
//! is better") and its deviation `|ratio − 1|`, summarised once by
//! [`ErrorSummary`], and (2) RMSE, which grid search minimises.

/// Root mean squared error.
pub fn rmse(pred: &[f32], actual: &[f32]) -> f32 {
    assert_eq!(pred.len(), actual.len());
    assert!(!pred.is_empty(), "rmse of empty slice");
    let s: f64 = pred
        .iter()
        .zip(actual)
        .map(|(p, a)| ((p - a) as f64).powi(2))
        .sum();
    (s / pred.len() as f64).sqrt() as f32
}

/// The error of a set of `Predicted/Actual` ratios, as the paper reports
/// it ("closer to 1 is better"): the deviation `|ratio − 1|` summarised
/// four ways. Each table and gate says which field it reads.
#[derive(Clone, Copy, Debug)]
pub struct ErrorSummary {
    pub n: usize,
    /// Mean `|ratio − 1|` — the paper's "average prediction error".
    pub mean: f64,
    pub median: f64,
    pub worst: f64,
    /// Mean of `min(|ratio − 1|, 1)`: one wild prediction counts as 100 %,
    /// as in the benchmark's accuracy gate.
    pub capped_mean: f64,
}

impl ErrorSummary {
    /// Summarises `ratios`, summing in their order (every error is NaN
    /// when there are none).
    pub fn of(ratios: &[f64]) -> Self {
        let mut errs: Vec<f64> = ratios.iter().map(|r| (r - 1.0).abs()).collect();
        let n = errs.len();
        let mean = errs.iter().sum::<f64>() / n as f64;
        let capped_mean = errs.iter().map(|e| e.min(1.0)).sum::<f64>() / n as f64;
        errs.sort_by(f64::total_cmp);
        let at = |i: usize| errs.get(i).copied().unwrap_or(f64::NAN);
        let median = (at((n.max(1) - 1) / 2) + at(n / 2)) / 2.0;
        let worst = errs.last().copied().unwrap_or(f64::NAN);
        Self { n, mean, median, worst, capped_mean }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&y, &y), 0.0);
        let s = ErrorSummary::of(&[1.0; 3]);
        assert_eq!((s.n, s.mean, s.median, s.worst, s.capped_mean), (3, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn rmse_hand_computed() {
        // errors 1 and -1 → rmse 1.
        assert!((rmse(&[2.0, 1.0], &[1.0, 2.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relative_error_scale_free() {
        let e = ErrorSummary::of(&[110.0 / 100.0, 0.11 / 0.10]).mean;
        assert!((e - 0.1).abs() < 1e-12, "{e}");
    }

    #[test]
    fn summary_worst_median_and_cap() {
        let s = ErrorSummary::of(&[1.1, 3.0, 0.8, 1.0]);
        assert!((s.worst - 2.0).abs() < 1e-12);
        assert!((s.median - 0.15).abs() < 1e-12);
        assert!((s.mean - 2.3 / 4.0).abs() < 1e-12);
        // The 2.0 counts as 1.0 in the capped mean.
        assert!((s.capped_mean - 1.3 / 4.0).abs() < 1e-12);
        assert_eq!(ErrorSummary::of(&[0.5, 1.5, 1.2]).median, 0.5);
    }

    #[test]
    fn empty_summary_is_nan() {
        let s = ErrorSummary::of(&[]);
        assert_eq!(s.n, 0);
        assert!(s.mean.is_nan() && s.median.is_nan() && s.worst.is_nan() && s.capped_mean.is_nan());
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }
}
