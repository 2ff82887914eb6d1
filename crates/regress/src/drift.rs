//! Drift detection for the continual-refit loop.
//!
//! [`PageHinkley`] runs the Page–Hinkley test on standardized prediction
//! residuals: it tracks the cumulative deviation of `|z_t|` above its
//! running mean (minus a margin δ) and fires when that cumulative sum
//! rises more than a threshold λ above its historical minimum — the
//! classic sequential change-point test for a sustained mean shift. On a
//! stationary residual stream the statistic drifts *down* (each in-control
//! observation contributes ≈ −δ on average), so a well-margined detector
//! essentially never false-fires; when the cluster cost model shifts, the
//! standardized residuals jump by tens of σ and the statistic crosses λ
//! within a handful of observations.
//!
//! After firing the detector resets, which gives the
//! fires-exactly-once-per-shift behavior the sched tier pins: the
//! recovery refit [`crate::RefitLoop`] triggers
//! ([`crate::OnlineRidge::translate_targets_and_refit`]) restores small
//! residuals, so a reset detector stays quiet until the *next* genuine
//! shift. Every fire increments the `refit.drift_events` telemetry
//! counter.

use crate::online::refit_metrics;

/// Margin δ subtracted from each deviation of `|z|`: it sits above the
/// natural fluctuation of `|z|` around its mean for `z ~ N(0,1)`.
const DELTA: f64 = 0.5;

/// Fire threshold λ on `m_t − min(m_t)`: a sustained multi-σ excursion,
/// unreachable by chance on a zero-drift stream and crossed in a few
/// observations when a real cost-model shift multiplies runtimes.
const THRESHOLD: f64 = 15.0;

/// Observations (since the last reset) before the detector may fire.
const WARMUP: u64 = 32;

/// A detected change point, with enough context to size the recovery
/// window: `run_length` counts the observations since the statistic's
/// minimum, i.e. roughly how many observations belong to the new regime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftEvent {
    /// Lifetime observation index (1-based) at which the detector fired.
    pub observation: u64,
    /// Statistic value `m_t − min(m_t)` at the fire point.
    pub statistic: f64,
    /// Observations since the statistic's minimum — the estimated length
    /// of the post-shift segment (sizes the recovery refit, e.g. how many
    /// recent residuals estimate the shift magnitude fed to
    /// [`crate::OnlineRidge::translate_targets_and_refit`]).
    pub run_length: u64,
}

/// Sequential Page–Hinkley change detector on standardized residuals.
#[derive(Clone, Debug, Default)]
pub struct PageHinkley {
    /// Observations since the last reset.
    n: u64,
    /// Lifetime observations (never reset; used for event indices).
    total: u64,
    /// Running mean of `|z|` since the last reset.
    mean: f64,
    /// Cumulative sum `m_t = Σ (|z| − mean − δ)`.
    mt: f64,
    /// Historical minimum of `m_t` since the last reset.
    min_mt: f64,
    /// Observations since `min_mt` last decreased.
    since_min: u64,
    events: u64,
}

impl PageHinkley {
    /// A detector with no observations, at this module's fixed margin δ,
    /// threshold λ and warm-up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one standardized residual. Returns a [`DriftEvent`] when the
    /// statistic crosses the threshold (after warmup); the detector then
    /// resets so it can only re-fire after a *new* sustained shift.
    pub fn observe(&mut self, z: f64) -> Option<DriftEvent> {
        let v = z.abs();
        self.n += 1;
        self.total += 1;
        self.mean += (v - self.mean) / self.n as f64;
        self.mt += v - self.mean - DELTA;
        if self.mt < self.min_mt {
            self.min_mt = self.mt;
            self.since_min = 0;
        } else {
            self.since_min += 1;
        }
        let stat = self.mt - self.min_mt;
        if self.n > WARMUP && stat > THRESHOLD {
            self.events += 1;
            refit_metrics().drift_events.inc();
            let event = DriftEvent {
                observation: self.total,
                statistic: stat,
                run_length: self.since_min.max(1),
            };
            self.reset_window();
            return Some(event);
        }
        None
    }

    /// Clears the test state (not the lifetime counters), as after a fire.
    fn reset_window(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.mt = 0.0;
        self.min_mt = 0.0;
        self.since_min = 0;
    }

    /// Current statistic `m_t − min(m_t)`.
    pub fn statistic(&self) -> f64 {
        self.mt - self.min_mt
    }

    /// Fires so far (lifetime).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Lifetime observations.
    pub fn observations(&self) -> u64 {
        self.total
    }
}

/// Robust online scale estimate for residual standardization (Welford).
///
/// The caller gates updates: during healthy operation every residual is
/// absorbed, but once a residual standardizes beyond `OUTLIER_Z` the
/// sample is *not* folded in — otherwise a cost-model shift would inflate
/// the scale estimate and mask itself before the detector fires.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResidualScale {
    n: u64,
    mean: f64,
    m2: f64,
}

/// Standardized-residual magnitude beyond which [`ResidualScale::absorb`]
/// refuses the sample (treated as a potential shift, not noise).
pub const OUTLIER_Z: f64 = 4.0;

impl ResidualScale {
    /// Samples absorbed so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean residual over absorbed samples.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation, floored to stay divisible. Before two
    /// samples exist the scale is 1.0 (standardization is a no-op, and
    /// the detector's warmup covers the cold start).
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            1.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt().max(1e-12)
        }
    }

    /// Standardizes a residual against the current estimate.
    pub fn standardize(&self, r: f64) -> f64 {
        (r - self.mean) / self.std()
    }

    /// Absorbs `r` into the estimate unless it standardizes beyond
    /// [`OUTLIER_Z`] (always absorbs the first few samples so the
    /// estimate can bootstrap). Returns whether the sample was absorbed.
    pub fn absorb(&mut self, r: f64) -> bool {
        if self.n >= 8 && self.standardize(r).abs() > OUTLIER_Z {
            return false;
        }
        self.n += 1;
        let delta = r - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (r - self.mean);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_tensor::Rng;

    #[test]
    fn never_fires_on_stationary_standard_normals() {
        for seed in 0..8u64 {
            let mut rng = Rng::new(0x5EED ^ seed);
            let mut ph = PageHinkley::new();
            for _ in 0..5000 {
                let z = rng.normal() as f64;
                assert!(
                    ph.observe(z).is_none(),
                    "false fire on zero-drift stream (seed {seed}, stat {})",
                    ph.statistic()
                );
            }
        }
    }

    #[test]
    fn fires_once_per_shift_and_resets() {
        let mut rng = Rng::new(42);
        let mut ph = PageHinkley::new();
        let mut events = Vec::new();
        // In control, then a 12σ sustained shift, then back in control
        // (as after a successful refit), then a second shift.
        for phase in 0..4 {
            let (mu, n) = match phase {
                0 => (0.0, 500),
                1 => (12.0, 50),
                2 => (0.0, 500),
                _ => (12.0, 50),
            };
            for _ in 0..n {
                let z = mu + rng.normal() as f64;
                if let Some(e) = ph.observe(z) {
                    events.push(e);
                    // Model "refits": later phases with mu=0 model recovery.
                    break;
                }
            }
        }
        assert_eq!(events.len(), 2, "one fire per shift: {events:?}");
        assert!(events[0].run_length >= 1);
        assert_eq!(ph.events(), 2);
    }

    #[test]
    fn detects_shift_quickly_after_long_quiet_period() {
        let mut rng = Rng::new(7);
        let mut ph = PageHinkley::new();
        for _ in 0..10_000 {
            assert!(ph.observe(rng.normal() as f64).is_none());
        }
        let mut fired_after = None;
        for i in 0..100 {
            if ph.observe(20.0 + rng.normal() as f64).is_some() {
                fired_after = Some(i + 1);
                break;
            }
        }
        let lag = fired_after.expect("detector must fire on a 20σ shift");
        assert!(lag <= 5, "detection lag {lag} too slow for a 20σ shift");
    }

    #[test]
    fn residual_scale_rejects_shift_outliers() {
        let mut rng = Rng::new(9);
        let mut scale = ResidualScale::default();
        for _ in 0..200 {
            assert!(scale.absorb(rng.normal() as f64 * 0.03));
        }
        let before = scale.std();
        // A shift-sized residual must not be absorbed into the scale.
        assert!(!scale.absorb(0.7));
        assert!((scale.std() - before).abs() < 1e-12);
        assert!(scale.standardize(0.7) > OUTLIER_Z);
    }

    #[test]
    fn event_reports_lifetime_observation_index() {
        let mut ph = PageHinkley::new();
        for _ in 0..100 {
            ph.observe(0.0);
        }
        let e = (0..20).find_map(|_| ph.observe(50.0)).expect("must fire");
        assert_eq!(e.observation, 101);
        assert!(e.statistic > THRESHOLD);
    }
}
