//! The live, continually-refit runtime predictor that drives the
//! large-scale engine's policies.
//!
//! [`LivePredictor`] runs a [`pddl_regress::RefitLoop`] in log space over
//! per-workload-class curve features: every completed job's prequential
//! residual goes through the loop's drift detection and recovery. A clone
//! taken after pretraining and never fed is the paper's fit-once baseline:
//! it keeps predicting from the bootstrap fit while the world moves on,
//! which is exactly the comparison `pddl-experiments exp_sched_policies`
//! prints.

use pddl_regress::{DriftEvent, RefitLoop};

/// Observations the model's drift refits read.
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
    refit: RefitLoop,
    classes: usize,
}

impl LivePredictor {
    /// New predictor over `classes` workload classes.
    pub fn new(classes: usize) -> Self {
        assert!(classes >= 1);
        Self { refit: RefitLoop::new(3 * classes, WINDOW), classes }
    }

    /// Bootstrap fit from a batch of `(class, servers, actual_secs)`
    /// samples — the offline training phase every deployment starts with.
    /// Seeds the residual-scale estimate from the fitted model so the
    /// drift detector standardizes against healthy noise from the start.
    pub fn pretrain(&mut self, samples: &[(usize, usize, f64)]) {
        let samples: Vec<(Vec<f64>, f64)> = samples
            .iter()
            .map(|&(class, servers, secs)| {
                (class_features(class, self.classes, servers), secs.max(1e-9).ln())
            })
            .collect();
        self.refit.pretrain(&samples);
    }

    /// Predicted runtime in seconds for one job.
    pub fn predict_secs(&self, class: usize, servers: usize) -> f64 {
        let x = class_features(class, self.classes, servers);
        self.refit.predict(&x).exp()
    }

    /// Feeds one completed job back: its prequential residual (against the
    /// model *before* this update) goes through the refit loop's drift
    /// detection and recovery. Returns the drift event, if any.
    pub fn observe(&mut self, class: usize, servers: usize, actual_secs: f64) -> Option<DriftEvent> {
        let x = class_features(class, self.classes, servers);
        let y = actual_secs.max(1e-9).ln();
        let r = y - self.refit.predict(&x);
        self.refit.observe(&x, y, r).1
    }

    /// Observations accepted (lifetime, excluding pretraining).
    pub fn observed(&self) -> u64 {
        self.refit.observations()
    }

    /// Window refits performed by the underlying model.
    pub fn refits(&self) -> u64 {
        self.refit.refits()
    }

    /// Drift events fired by the detector.
    pub fn drift_events(&self) -> u64 {
        self.refit.drift_events()
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
        let frozen = live.clone();
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
}
