//! The live, continually-refit runtime predictor that drives the
//! large-scale engine's policies.
//!
//! [`LivePredictor`] wraps [`pddl_regress::OnlineRidge`] in log space over
//! per-workload-class curve features, runs every completed job through the
//! [`pddl_regress::PageHinkley`] drift detector, and — when the detector
//! fires — estimates the shift's log magnitude from the post-shift
//! residual run, translates the window's history onto the new level, and
//! refits in canonical order. A `frozen` predictor (the paper's fit-once
//! baseline) is the same object with updates disabled: it keeps predicting
//! from the bootstrap fit while the world moves on, which is exactly the
//! comparison `pddl-experiments exp_sched_policies` prints.

use pddl_regress::{DriftConfig, DriftEvent, OnlineRidge, PageHinkley, ResidualScale};
use std::collections::VecDeque;

/// Recent prequential residuals retained for shift-magnitude estimation
/// (a drift fire reads at most [`DriftEvent::run_length`] of them).
const RECENT_RESIDUALS: usize = 64;

/// Ridge penalty λ on the log-space model.
const LAMBDA: f64 = 1e-3;

/// Sliding-window capacity backing drift refits.
const WINDOW: usize = 4096;

/// Per-class runtime curve features in log space: each workload class `c`
/// owns three slots `[1, ln n, 1/n]`, so the model is an independent
/// `ln T = a_c + b_c·ln n + c_c/n` curve per class sharing one ridge
/// solve — a good low-dimensional fit to the simulator's
/// compute/communication scaling over realistic server counts.
fn class_features(class: usize, classes: usize, servers: usize) -> Vec<f64> {
    let mut x = vec![0.0f64; 3 * classes];
    let n = servers.max(1) as f64;
    x[3 * class] = 1.0;
    x[3 * class + 1] = n.ln();
    x[3 * class + 2] = 1.0 / n;
    x
}

/// A runtime predictor that learns from every completed job.
#[derive(Clone, Debug)]
pub struct LivePredictor {
    model: OnlineRidge,
    detector: PageHinkley,
    scale: ResidualScale,
    recent: VecDeque<f64>,
    classes: usize,
    frozen: bool,
    observed: u64,
}

impl LivePredictor {
    /// New predictor over `classes` workload classes, with Page–Hinkley
    /// at its defaults on standardized log-residuals.
    pub fn new(classes: usize) -> Self {
        assert!(classes >= 1);
        Self {
            model: OnlineRidge::new(3 * classes, LAMBDA, WINDOW),
            detector: PageHinkley::new(DriftConfig::default()),
            scale: ResidualScale::default(),
            recent: VecDeque::with_capacity(RECENT_RESIDUALS),
            classes,
            frozen: false,
            observed: 0,
        }
    }

    /// Bootstrap fit from a batch of `(class, servers, actual_secs)`
    /// samples — the offline training phase every deployment starts with.
    /// Seeds the residual-scale estimate from the fitted model so the
    /// drift detector standardizes against healthy noise from the start.
    pub fn pretrain(&mut self, samples: &[(usize, usize, f64)]) {
        for &(class, servers, secs) in samples {
            let x = class_features(class, self.classes, servers);
            self.model.observe(&x, secs.max(1e-9).ln());
        }
        for &(class, servers, secs) in samples {
            let x = class_features(class, self.classes, servers);
            let r = secs.max(1e-9).ln() - self.model.predict(&x);
            self.scale.absorb(r);
        }
    }

    /// A frozen copy of this predictor: same coefficients forever, no
    /// drift detection — the paper's fit-once baseline.
    pub fn freeze(&self) -> Self {
        let mut f = self.clone();
        f.frozen = true;
        f
    }

    /// Predicted runtime in seconds for one job.
    pub fn predict_secs(&self, class: usize, servers: usize) -> f64 {
        let x = class_features(class, self.classes, servers);
        self.model.predict(&x).exp()
    }

    /// Feeds one completed job back. Computes the prequential residual
    /// (against the model *before* this update), runs drift detection on
    /// its standardized value, and folds the observation in. On a drift
    /// fire, the shift's log magnitude is estimated as the mean of the
    /// post-shift residual run (in excess of the healthy residual mean),
    /// the pre-shift window history is translated onto the new level, and
    /// the model refits — one-step adaptation, because an abrupt shift
    /// fires the detector within a few samples, far too few to refit the
    /// per-class curves from post-shift data alone. Returns the drift
    /// event, if any. No-op when frozen.
    pub fn observe(&mut self, class: usize, servers: usize, actual_secs: f64) -> Option<DriftEvent> {
        if self.frozen {
            return None;
        }
        self.observed += 1;
        let x = class_features(class, self.classes, servers);
        let y = actual_secs.max(1e-9).ln();
        let r = y - self.model.predict(&x);
        let z = self.scale.standardize(r);
        let event = self.detector.observe(z);
        if self.recent.len() == RECENT_RESIDUALS {
            self.recent.pop_front();
        }
        self.recent.push_back(r);
        self.scale.absorb(r);
        self.model.observe(&x, y);
        if let Some(e) = event {
            let run = (e.run_length as usize).clamp(1, self.recent.len());
            let run_mean =
                self.recent.iter().rev().take(run).sum::<f64>() / run as f64;
            let dy = run_mean - self.scale.mean();
            self.model.translate_targets_and_refit(dy, run);
            self.recent.clear();
            // The old noise estimate belongs to the old regime: a
            // prediction-driven policy reallocates jobs after the shift,
            // which widens the residual spread, and standardizing the new
            // spread by the stale (smaller) σ would slowly re-fire the
            // detector on model-misspecification bias. Re-bootstrap the
            // scale from post-recovery residuals instead.
            self.scale = ResidualScale::default();
        }
        event
    }

    /// Observations accepted (lifetime, excluding pretraining).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Window refits performed by the underlying model.
    pub fn refits(&self) -> u64 {
        self.model.refits()
    }

    /// Drift events fired by the detector.
    pub fn drift_events(&self) -> u64 {
        self.detector.events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_tensor::Rng;

    /// Synthetic two-class ground truth: T = base · n^{-0.8} · e^{noise}.
    fn sample(rng: &mut Rng, class: usize, servers: usize, factor: f64) -> f64 {
        let base = [120.0, 400.0][class];
        let noise = (rng.normal() as f64 * 0.03).exp();
        factor * base * (servers as f64).powf(-0.8) * noise
    }

    fn pretrained(rng: &mut Rng) -> LivePredictor {
        let mut p = LivePredictor::new(2);
        let mut samples = Vec::new();
        for class in 0..2 {
            for servers in [1usize, 2, 4, 8, 16] {
                for _ in 0..4 {
                    samples.push((class, servers, sample(rng, class, servers, 1.0)));
                }
            }
        }
        p.pretrain(&samples);
        p
    }

    #[test]
    fn pretrained_predictions_are_accurate() {
        let mut rng = Rng::new(3);
        let p = pretrained(&mut rng);
        for class in 0..2 {
            for servers in [1usize, 4, 16] {
                let truth = [120.0, 400.0][class] * (servers as f64).powf(-0.8);
                let pred = p.predict_secs(class, servers);
                let rel = (pred / truth - 1.0).abs();
                assert!(rel < 0.1, "class {class} n {servers}: rel err {rel}");
            }
        }
    }

    #[test]
    fn recovers_after_cost_shift_while_frozen_degrades() {
        let mut rng = Rng::new(5);
        let mut live = pretrained(&mut rng);
        let frozen = live.freeze();
        // Healthy stream, then a 2.5× cost shift.
        for i in 0..500 {
            let class = i % 2;
            let servers = [1usize, 2, 4, 8][i % 4];
            assert!(live.observe(class, servers, sample(&mut rng, class, servers, 1.0)).is_none());
        }
        let mut fired = 0;
        for i in 0..800 {
            let class = i % 2;
            let servers = [1usize, 2, 4, 8][i % 4];
            if live.observe(class, servers, sample(&mut rng, class, servers, 2.5)).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "drift should fire exactly once for one shift");
        // Post-recovery accuracy: live tracks the new regime, frozen does not.
        let mut live_err = 0.0;
        let mut frozen_err = 0.0;
        let mut n = 0.0;
        for i in 0..200 {
            let class = i % 2;
            let servers = [1usize, 2, 4, 8][i % 4];
            let actual = sample(&mut rng, class, servers, 2.5);
            live_err += (live.predict_secs(class, servers) / actual - 1.0).abs();
            frozen_err += (frozen.predict_secs(class, servers) / actual - 1.0).abs();
            n += 1.0;
            live.observe(class, servers, actual);
        }
        live_err /= n;
        frozen_err /= n;
        assert!(live_err < 0.15, "live err {live_err}");
        assert!(frozen_err > 3.0 * live_err, "frozen {frozen_err} vs live {live_err}");
    }

    #[test]
    fn frozen_never_updates_or_fires() {
        let mut rng = Rng::new(9);
        let live = pretrained(&mut rng);
        let mut frozen = live.freeze();
        let before = frozen.predict_secs(0, 4).to_bits();
        for _ in 0..200 {
            assert!(frozen.observe(0, 4, 1e6).is_none());
        }
        assert_eq!(frozen.predict_secs(0, 4).to_bits(), before);
        assert_eq!(frozen.drift_events(), 0);
        assert_eq!(frozen.observed(), 0);
    }
}
