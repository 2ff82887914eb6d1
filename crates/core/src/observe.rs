//! The serving-side end of the continual-refit loop: `{"op":"observe"}`.
//!
//! A deployment that only ever *predicts* never learns that the cluster
//! changed. [`ObservationSink`] is the controller's feedback inlet: each
//! completed job is reported with the request it was predicted from and
//! the wall-clock seconds it actually took. The sink feeds the log-space
//! residual against the live model's prediction into a
//! [`pddl_regress::RefitLoop`] — drift detection and recovery — whose model
//! is a *calibration*: a map from (model prediction, cluster size) to
//! observed runtime that [`ObservationSink::calibrate`] applies on top of
//! raw predictions once enough observations have accumulated.
//!
//! The `refit.updates` / `refit.refits` / `refit.drift_events` telemetry
//! counters increment inside the regress primitives, so a serving
//! controller's `{"op":"stats"}` snapshot shows the loop working.

use crate::protocol::ObserveReply;
use pddl_regress::RefitLoop;
use std::sync::{Mutex, MutexGuard};

/// Observations required before [`ObservationSink::calibrate`] starts
/// correcting predictions (below this it returns them unchanged).
const CALIBRATION_WARMUP: u64 = 16;

/// Observations the calibration's drift refits read.
const WINDOW: usize = 2048;

/// Thread-safe accumulator for served-prediction feedback. The loop's
/// features are `[ln predicted, ln servers]`, its target `ln actual`.
pub struct ObservationSink {
    calib: Mutex<RefitLoop>,
}

impl Default for ObservationSink {
    fn default() -> Self {
        Self { calib: Mutex::new(RefitLoop::new(2, WINDOW)) }
    }
}

impl ObservationSink {
    /// An empty sink (see [`ObservationSink::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, RefitLoop> {
        self.calib.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Folds one completed job in. `predicted_secs` is the live model's
    /// prediction for the request, `actual_secs` the measured runtime,
    /// `servers` the cluster size it ran on. Both times must be positive
    /// and finite (the controller rejects before calling).
    pub fn record(&self, predicted_secs: f64, actual_secs: f64, servers: usize) -> ObserveReply {
        let mut calib = self.lock();
        let x = [predicted_secs.ln(), (servers.max(1) as f64).ln()];
        let y = actual_secs.ln();
        let (z, event) = calib.observe(&x, y, y - x[0]);
        ObserveReply {
            observations: calib.observations(),
            drift_events: calib.drift_events(),
            residual_z: z,
            drifted: event.is_some(),
        }
    }

    /// Applies the learned calibration to a raw model prediction: returns
    /// the runtime the sink expects given what the model said and the
    /// cluster size. Identity until `CALIBRATION_WARMUP` (16)
    /// observations have accumulated.
    pub fn calibrate(&self, predicted_secs: f64, servers: usize) -> f64 {
        let calib = self.lock();
        // NaN and non-positive predictions pass through uncorrected.
        if calib.observations() < CALIBRATION_WARMUP || predicted_secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return predicted_secs;
        }
        let x = [predicted_secs.ln(), (servers.max(1) as f64).ln()];
        calib.predict(&x).exp()
    }

    /// Observations accepted (lifetime).
    pub fn observations(&self) -> u64 {
        self.lock().observations()
    }

    /// Drift events fired (lifetime).
    pub fn drift_events(&self) -> u64 {
        self.lock().drift_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_reply_reflects_state() {
        let sink = ObservationSink::new();
        let r1 = sink.record(100.0, 103.0, 4);
        assert_eq!(r1.observations, 1);
        assert!(!r1.drifted);
        let r2 = sink.record(100.0, 98.0, 4);
        assert_eq!(r2.observations, 2);
        assert_eq!(sink.observations(), 2);
        assert_eq!(sink.drift_events(), 0);
    }

    #[test]
    fn calibration_learns_a_systematic_bias() {
        let sink = ObservationSink::new();
        // The model consistently predicts half the real runtime.
        for i in 0..200 {
            let pred = 50.0 + (i % 17) as f64 * 10.0;
            sink.record(pred, 2.0 * pred, 4);
        }
        let corrected = sink.calibrate(100.0, 4);
        assert!(
            (corrected / 200.0 - 1.0).abs() < 0.05,
            "expected ≈200s after calibration, got {corrected}"
        );
    }

    #[test]
    fn calibration_is_identity_during_warmup() {
        let sink = ObservationSink::new();
        for _ in 0..(CALIBRATION_WARMUP - 1) {
            sink.record(10.0, 30.0, 2);
        }
        assert_eq!(sink.calibrate(10.0, 2), 10.0);
    }

    #[test]
    fn sustained_shift_fires_drift_once() {
        let sink = ObservationSink::new();
        for i in 0..300 {
            let pred = 80.0 + (i % 13) as f64;
            sink.record(pred, pred * (1.0 + 0.01 * ((i % 7) as f64 - 3.0)), 8);
        }
        assert_eq!(sink.drift_events(), 0, "healthy stream must not fire");
        let mut fired = 0;
        for i in 0..200 {
            let pred = 80.0 + (i % 13) as f64;
            if sink.record(pred, pred * 3.0, 8).drifted {
                fired += 1;
            }
        }
        // One sustained shift → exactly one fire (the post-fire refit
        // re-centres the calibration on the new regime).
        assert_eq!(fired, 1);
        assert_eq!(sink.drift_events(), 1);
    }
}
