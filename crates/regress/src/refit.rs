//! The continual-refit loop, written once.
//!
//! [`RefitLoop`] owns an [`OnlineRidge`], a [`PageHinkley`] detector, the
//! [`ResidualScale`] that standardizes its input and a ring of the last
//! 64 residuals. Both callers feed it: the serving
//! inlet's `ObservationSink` (`{"op":"observe"}`, a log-space calibration
//! model) and the scheduling engine's `LivePredictor` (per-class runtime
//! curves). Each computes the residual itself and the loop does the rest:
//! standardize, detect, fold in, and on a fire translate the window's
//! history onto the new level and refit.

use crate::drift::{DriftEvent, PageHinkley, ResidualScale};
use crate::online::OnlineRidge;
use std::collections::VecDeque;

/// Ridge penalty λ on the loop's model.
const LAMBDA: f64 = 1e-3;

/// Recent residuals retained for shift-magnitude estimation on a drift
/// fire (at most [`DriftEvent::run_length`] of them are read).
const RECENT_RESIDUALS: usize = 64;

/// An online ridge model with drift detection and one-step recovery.
#[derive(Clone, Debug)]
pub struct RefitLoop {
    model: OnlineRidge,
    detector: PageHinkley,
    scale: ResidualScale,
    recent: VecDeque<f64>,
}

impl RefitLoop {
    /// A loop over `features` raw inputs whose refits read the last
    /// `window` observations.
    pub fn new(features: usize, window: usize) -> Self {
        Self {
            model: OnlineRidge::new(features, LAMBDA, window),
            detector: PageHinkley::new(),
            scale: ResidualScale::default(),
            recent: VecDeque::with_capacity(RECENT_RESIDUALS),
        }
    }

    /// Bootstrap fit on `(x, y)` pairs, with no drift detection, then seeds
    /// the residual scale from the fitted model's residuals so the detector
    /// standardizes against healthy noise from the first observation.
    pub fn pretrain(&mut self, samples: &[(Vec<f64>, f64)]) {
        for (x, y) in samples {
            self.model.observe(x, *y);
        }
        for (x, y) in samples {
            self.scale.absorb(y - self.model.predict(x));
        }
    }

    /// The model's prediction for one raw feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.model.predict(x)
    }

    /// Folds one observation in. `r` is the caller's residual for it; the
    /// loop standardizes it against the healthy-noise scale, runs the
    /// detector on that, and updates the model with `(x, y)`. On a fire the
    /// shift's magnitude is the mean of the post-shift residual run in
    /// excess of the healthy mean; the window's pre-shift history is
    /// translated by it and refit — one-step adaptation, because an abrupt
    /// shift fires within a few observations, far too few to refit from
    /// post-shift data alone — and the scale re-bootstraps, since
    /// standardizing post-shift noise by the stale σ would slowly re-fire
    /// the detector. Returns the standardized residual and the fire, if any.
    pub fn observe(&mut self, x: &[f64], y: f64, r: f64) -> (f64, Option<DriftEvent>) {
        let z = self.scale.standardize(r);
        let event = self.detector.observe(z);
        if self.recent.len() == RECENT_RESIDUALS {
            self.recent.pop_front();
        }
        self.recent.push_back(r);
        self.scale.absorb(r);
        self.model.observe(x, y);
        if let Some(e) = event {
            let run = (e.run_length as usize).clamp(1, self.recent.len());
            let run_mean = self.recent.iter().rev().take(run).sum::<f64>() / run as f64;
            self.model.translate_targets_and_refit(run_mean - self.scale.mean(), run);
            self.recent.clear();
            self.scale = ResidualScale::default();
        }
        (z, event)
    }

    /// Observations folded in through [`Self::observe`] (lifetime,
    /// pretraining excluded).
    pub fn observations(&self) -> u64 {
        self.detector.observations()
    }

    /// Drift events fired (lifetime).
    pub fn drift_events(&self) -> u64 {
        self.detector.events()
    }

    /// Window refits performed.
    pub fn refits(&self) -> u64 {
        self.model.refits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_tensor::Rng;

    /// A bootstrap fit, 300 healthy observations, then a sustained ×3
    /// shift in log space: pretraining is no observation, the shift fires
    /// once and refits once, and the model ends on the new level.
    #[test]
    fn one_shift_fires_once_and_lands_on_the_new_level() {
        let mut rng = Rng::new(11);
        let mut draw = |level: f64| {
            let x = rng.next_f64();
            (x, level + 2.0 * x + 0.02 * rng.normal() as f64)
        };
        let mut refit = RefitLoop::new(1, 512);
        let boot: Vec<(Vec<f64>, f64)> = (0..64)
            .map(|_| {
                let (x, y) = draw(0.0);
                (vec![x], y)
            })
            .collect();
        refit.pretrain(&boot);
        assert_eq!(refit.observations(), 0);
        let mut fires = 0;
        for i in 0..600 {
            let (x, y) = draw(if i < 300 { 0.0 } else { 3f64.ln() });
            let r = y - refit.predict(&[x]);
            fires += usize::from(refit.observe(&[x], y, r).1.is_some());
        }
        assert_eq!((fires, refit.drift_events(), refit.refits()), (1, 1, 1));
        assert_eq!(refit.observations(), 600);
        let err = refit.predict(&[0.5]) - (3f64.ln() + 1.0);
        assert!(err.abs() < 0.02, "post-shift error {err}");
    }
}
