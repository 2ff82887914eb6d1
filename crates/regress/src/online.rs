//! Incremental (online) ridge regression for the continual-refit loop.
//!
//! The paper fits its regressor once, offline (§III-C), and never updates
//! it as the cluster cost model drifts — §VI names closing that loop as
//! future work. [`OnlineRidge`] closes it: every completed job becomes a
//! rank-1 Sherman–Morrison update of the ridge inverse (O(d²) per
//! observation, no re-solve), while a bounded sliding window of raw
//! observations supports a full re-fit ([`OnlineRidge::refit`]) whenever
//! the drift detector ([`crate::drift::PageHinkley`]) decides the world
//! changed and the accumulated history is now a liability.
//!
//! Determinism contract: all arithmetic is f64 with a fixed operation
//! order. A fixed observation sequence produces bit-identical coefficients
//! on every run and every thread count; [`OnlineRidge::refit`] re-solves
//! over the window in a *canonical* order (sorted by the raw bit patterns
//! of the observation), so the refit result is bit-identical for any
//! insertion order of the same window contents — the property pinned by
//! the `window_refit_is_order_independent` property in
//! `tests/properties.rs`.
//!
//! Telemetry: `refit.updates`, `refit.refits` and (from the drift module)
//! `refit.drift_events` counters are visible in `{"op":"metrics"}`
//! exposition wherever the loop runs.

use pddl_telemetry::Counter;
use std::collections::VecDeque;
use std::sync::OnceLock;

pub(crate) struct RefitMetrics {
    pub(crate) updates: &'static Counter,
    pub(crate) refits: &'static Counter,
    pub(crate) drift_events: &'static Counter,
}

pub(crate) fn refit_metrics() -> &'static RefitMetrics {
    static METRICS: OnceLock<RefitMetrics> = OnceLock::new();
    METRICS.get_or_init(|| RefitMetrics {
        updates: pddl_telemetry::counter("refit.updates"),
        refits: pddl_telemetry::counter("refit.refits"),
        drift_events: pddl_telemetry::counter("refit.drift_events"),
    })
}

/// Reference batch ridge solve in f64: minimizes
/// `Σ (y − φᵀw)² + λ‖w‖²` with `φ = [1, x…]` (intercept included in the
/// penalty, matching [`OnlineRidge`]'s prior `A₀ = λI` exactly so the
/// rank-1 chain and this solve agree to floating-point accumulation
/// error). Returns the coefficient vector, intercept first.
///
/// All rows of `xs` must share one length; `ys` must match `xs`.
pub fn batch_ridge(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Vec<f64> {
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    assert!(lambda > 0.0, "ridge lambda must be positive");
    let features = xs.first().map_or(0, Vec::len);
    let d = features + 1;
    let mut a = vec![0.0f64; d * d];
    let mut b = vec![0.0f64; d];
    for i in 0..d {
        a[i * d + i] = lambda;
    }
    let mut phi = vec![0.0f64; d];
    for (x, &y) in xs.iter().zip(ys) {
        assert_eq!(x.len(), features, "inconsistent feature width");
        fill_phi(&mut phi, x);
        accumulate(&mut a, &mut b, &phi, y, d);
    }
    solve_spd(&mut a, &b, d)
}

fn fill_phi(phi: &mut [f64], x: &[f64]) {
    phi[0] = 1.0;
    phi[1..].copy_from_slice(x);
}

fn accumulate(a: &mut [f64], b: &mut [f64], phi: &[f64], y: f64, d: usize) {
    for i in 0..d {
        let pi = phi[i];
        for j in 0..d {
            a[i * d + j] += pi * phi[j];
        }
        b[i] += y * pi;
    }
}

/// Cholesky solve of `A w = b` for SPD `A` (destroys `a`). λ > 0 keeps the
/// ridge system strictly positive-definite, so no pivoting or jitter is
/// needed; a non-finite or non-positive pivot panics loudly rather than
/// returning garbage coefficients.
fn solve_spd(a: &mut [f64], b: &[f64], d: usize) -> Vec<f64> {
    // In-place lower-triangular factor L with A = L Lᵀ.
    for i in 0..d {
        for j in 0..=i {
            let mut sum = a[i * d + j];
            for k in 0..j {
                sum -= a[i * d + k] * a[j * d + k];
            }
            if i == j {
                assert!(sum > 0.0 && sum.is_finite(), "ridge system not SPD (pivot {sum})");
                a[i * d + i] = sum.sqrt();
            } else {
                a[i * d + j] = sum / a[j * d + j];
            }
        }
    }
    // Forward: L z = b.
    let mut z = vec![0.0f64; d];
    for i in 0..d {
        let mut sum = b[i];
        for k in 0..i {
            sum -= a[i * d + k] * z[k];
        }
        z[i] = sum / a[i * d + i];
    }
    // Backward: Lᵀ w = z.
    let mut w = vec![0.0f64; d];
    for i in (0..d).rev() {
        let mut sum = z[i];
        for k in (i + 1)..d {
            sum -= a[k * d + i] * w[k];
        }
        w[i] = sum / a[i * d + i];
    }
    w
}

/// One buffered observation: raw features (no intercept) and target.
type Observation = (Vec<f64>, f64);

/// Canonical total order on observations: compare targets, then features,
/// by raw f64 bit pattern (`total_cmp`). Any permutation of the same
/// multiset sorts to the same sequence, which is what makes
/// [`OnlineRidge::refit`] order-independent down to the last bit.
fn canonical_cmp(a: &Observation, b: &Observation) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then_with(|| {
        for (xa, xb) in a.0.iter().zip(&b.0) {
            let o = xa.total_cmp(xb);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    })
}

/// Online ridge regressor: rank-1 Sherman–Morrison updates on the inverse
/// normal-equation matrix, plus a sliding window of raw observations that
/// backs the full-refit fallback.
///
/// The model is `y ≈ w₀ + Σ wᵢ xᵢ` with L2 penalty `λ` on *all*
/// coefficients (prior `A₀ = λI`). [`OnlineRidge::observe`] folds one
/// `(x, y)` pair in; [`OnlineRidge::refit`] discards everything outside
/// the window and re-solves from scratch, which is how the loop sheds a
/// stale cost model after a [`crate::drift::DriftEvent`].
#[derive(Clone, Debug)]
pub struct OnlineRidge {
    features: usize,
    d: usize,
    lambda: f64,
    /// Inverse of `A = λI + Σ φφᵀ`, row-major `d × d`, kept symmetric.
    a_inv: Vec<f64>,
    /// `b = Σ y φ`.
    xty: Vec<f64>,
    /// Current coefficients `A⁻¹ b`, intercept first.
    coef: Vec<f64>,
    window: VecDeque<Observation>,
    capacity: usize,
    observations: u64,
    refits: u64,
}

impl OnlineRidge {
    /// New model over `features` raw inputs with ridge penalty `lambda`
    /// and a sliding window holding the last `window` observations.
    pub fn new(features: usize, lambda: f64, window: usize) -> Self {
        assert!(features >= 1, "need at least one feature");
        assert!(lambda > 0.0, "ridge lambda must be positive");
        assert!(window >= 1, "window capacity must be at least 1");
        let d = features + 1;
        let mut a_inv = vec![0.0f64; d * d];
        for i in 0..d {
            a_inv[i * d + i] = 1.0 / lambda;
        }
        Self {
            features,
            d,
            lambda,
            a_inv,
            xty: vec![0.0; d],
            coef: vec![0.0; d],
            window: VecDeque::with_capacity(window.min(1 << 20)),
            capacity: window,
            observations: 0,
            refits: 0,
        }
    }

    /// Raw feature width (excluding the intercept).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Current coefficients, intercept first (length `features + 1`).
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// Total observations folded in since construction.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Full window refits performed.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Observations currently buffered in the sliding window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Predicts `w₀ + Σ wᵢ xᵢ` for one raw feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.features, "feature width mismatch");
        let mut y = self.coef[0];
        for (w, v) in self.coef[1..].iter().zip(x) {
            y += w * v;
        }
        y
    }

    /// Folds one observation in via a rank-1 Sherman–Morrison update:
    /// `A⁻¹ ← A⁻¹ − (A⁻¹φ)(A⁻¹φ)ᵀ / (1 + φᵀA⁻¹φ)`, then refreshes the
    /// coefficients. O(d²); never re-solves. The observation is also
    /// appended to the sliding window (evicting the oldest beyond
    /// capacity) so a later [`Self::refit`] can rebuild from recent data.
    pub fn observe(&mut self, x: &[f64], y: f64) {
        assert_eq!(x.len(), self.features, "feature width mismatch");
        let d = self.d;
        let mut phi = vec![0.0f64; d];
        fill_phi(&mut phi, x);
        // k = A⁻¹ φ (A⁻¹ symmetric).
        let mut k = vec![0.0f64; d];
        for (i, ki) in k.iter_mut().enumerate() {
            let row = &self.a_inv[i * d..(i + 1) * d];
            let mut s = 0.0;
            for (aij, pj) in row.iter().zip(&phi) {
                s += aij * pj;
            }
            *ki = s;
        }
        let mut denom = 1.0;
        for (ki, pi) in k.iter().zip(&phi) {
            denom += ki * pi;
        }
        for (i, &ki) in k.iter().enumerate() {
            for (j, &kj) in k.iter().enumerate() {
                self.a_inv[i * d + j] -= ki * kj / denom;
            }
        }
        for (ti, pi) in self.xty.iter_mut().zip(&phi) {
            *ti += y * pi;
        }
        self.refresh_coef();
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back((x.to_vec(), y));
        self.observations += 1;
        refit_metrics().updates.inc();
    }

    fn refresh_coef(&mut self) {
        let d = self.d;
        for i in 0..d {
            let row = &self.a_inv[i * d..(i + 1) * d];
            let mut s = 0.0;
            for (aij, bj) in row.iter().zip(&self.xty) {
                s += aij * bj;
            }
            self.coef[i] = s;
        }
    }

    /// Discards all state outside the sliding window and re-solves the
    /// ridge system over the window contents in canonical order. After
    /// this call the model is exactly what [`batch_ridge`] would produce
    /// on the window — bit-identical for any insertion order of the same
    /// observations — and subsequent [`Self::observe`] calls chain rank-1
    /// updates on top of the fresh inverse.
    pub fn refit(&mut self) {
        let d = self.d;
        let mut ordered: Vec<&Observation> = self.window.iter().collect();
        ordered.sort_by(|a, b| canonical_cmp(a, b));
        let mut a = vec![0.0f64; d * d];
        for i in 0..d {
            a[i * d + i] = self.lambda;
        }
        let mut b = vec![0.0f64; d];
        let mut phi = vec![0.0f64; d];
        for (x, y) in ordered {
            fill_phi(&mut phi, x);
            accumulate(&mut a, &mut b, &phi, *y, d);
        }
        self.a_inv = invert_spd(&a, d);
        self.xty = b;
        self.refresh_coef();
        self.refits += 1;
        refit_metrics().refits.inc();
    }

    /// Shrinks the window to its most recent `keep` observations (the
    /// post-shift segment a [`crate::drift::DriftEvent`] identifies) and
    /// refits on what remains. `keep` is clamped to at least 1.
    pub fn retain_recent_and_refit(&mut self, keep: usize) {
        let keep = keep.max(1);
        while self.window.len() > keep {
            self.window.pop_front();
        }
        self.refit();
    }

    /// Adds `dy` to every buffered target *except* the most recent
    /// `skip_recent` observations, then refits over the full window.
    ///
    /// This is the recovery move for an abrupt *multiplicative* cost
    /// shift observed in log space: the detector fires within a handful
    /// of post-shift samples, far too few to refit a multi-coordinate
    /// model from scratch, but plenty to estimate the shift's log
    /// magnitude. Translating the pre-shift history onto the new level
    /// keeps every fitted per-feature relationship while the model jumps
    /// regimes in one step. The `skip_recent` tail (the post-shift run)
    /// is already at the new level and must not be double-shifted.
    pub fn translate_targets_and_refit(&mut self, dy: f64, skip_recent: usize) {
        assert!(dy.is_finite(), "target translation must be finite");
        let old = self.window.len().saturating_sub(skip_recent);
        for obs in self.window.iter_mut().take(old) {
            obs.1 += dy;
        }
        self.refit();
    }
}

/// Dense SPD inverse via Cholesky: solves `A z = eᵢ` column by column.
/// Fine at the dimensions the loop uses (d ≲ 32).
fn invert_spd(a: &[f64], d: usize) -> Vec<f64> {
    let mut inv = vec![0.0f64; d * d];
    let mut e = vec![0.0f64; d];
    for col in 0..d {
        e.iter_mut().for_each(|v| *v = 0.0);
        e[col] = 1.0;
        let mut work = a.to_vec();
        let z = solve_spd(&mut work, &e, d);
        for row in 0..d {
            inv[row * d + col] = z[row];
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_tensor::Rng;

    fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
        let scale = b.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs() / scale)
            .fold(0.0f64, f64::max)
    }

    fn random_stream(seed: u64, n: usize, features: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::new(seed);
        let truth: Vec<f64> = (0..=features).map(|_| rng.uniform(-2.0, 2.0) as f64).collect();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..features).map(|_| rng.uniform(-1.0, 1.0) as f64).collect();
            let mut y = truth[0];
            for (w, v) in truth[1..].iter().zip(&x) {
                y += w * v;
            }
            y += rng.normal() as f64 * 0.05;
            xs.push(x);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn rank_one_chain_matches_batch_solve() {
        let (xs, ys) = random_stream(7, 400, 4);
        let mut online = OnlineRidge::new(4, 1e-3, 1024);
        for (x, &y) in xs.iter().zip(&ys) {
            online.observe(x, y);
        }
        let batch = batch_ridge(&xs, &ys, 1e-3);
        let err = max_rel_err(online.coefficients(), &batch);
        assert!(err <= 1e-8, "rank-1 chain diverged from batch solve: rel err {err:e}");
    }

    #[test]
    fn refit_equals_batch_over_window_only() {
        let (xs, ys) = random_stream(11, 300, 3);
        let cap = 64;
        let mut online = OnlineRidge::new(3, 1e-3, cap);
        for (x, &y) in xs.iter().zip(&ys) {
            online.observe(x, y);
        }
        online.refit();
        let tail_x: Vec<Vec<f64>> = xs[xs.len() - cap..].to_vec();
        let tail_y: Vec<f64> = ys[ys.len() - cap..].to_vec();
        let batch = batch_ridge(&tail_x, &tail_y, 1e-3);
        let err = max_rel_err(online.coefficients(), &batch);
        assert!(err <= 1e-8, "window refit != batch over window: rel err {err:e}");
    }

    #[test]
    fn refit_is_bit_identical_under_permutation() {
        let (xs, ys) = random_stream(23, 48, 3);
        let mut fwd = OnlineRidge::new(3, 1e-2, 64);
        for (x, &y) in xs.iter().zip(&ys) {
            fwd.observe(x, y);
        }
        fwd.refit();
        let mut rev = OnlineRidge::new(3, 1e-2, 64);
        for (x, &y) in xs.iter().zip(&ys).rev() {
            rev.observe(x, y);
        }
        rev.refit();
        let a: Vec<u64> = fwd.coefficients().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = rev.coefficients().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "canonical-order refit must not depend on insertion order");
    }

    #[test]
    fn updates_after_refit_keep_tracking() {
        let (xs, ys) = random_stream(31, 200, 2);
        let mut online = OnlineRidge::new(2, 1e-3, 50);
        for (x, &y) in xs.iter().zip(&ys).take(100) {
            online.observe(x, y);
        }
        online.refit();
        for (x, &y) in xs.iter().zip(&ys).skip(100) {
            online.observe(x, y);
        }
        // Reference: ridge over window-at-refit + everything after.
        let mut ref_x: Vec<Vec<f64>> = xs[50..100].to_vec();
        ref_x.extend_from_slice(&xs[100..]);
        let mut ref_y: Vec<f64> = ys[50..100].to_vec();
        ref_y.extend_from_slice(&ys[100..]);
        let batch = batch_ridge(&ref_x, &ref_y, 1e-3);
        let err = max_rel_err(online.coefficients(), &batch);
        assert!(err <= 1e-8, "post-refit chain diverged: rel err {err:e}");
    }

    #[test]
    fn retain_recent_drops_stale_history() {
        let mut online = OnlineRidge::new(1, 1e-4, 256);
        // Old regime: y = x; new regime: y = 3x.
        for i in 0..100 {
            let x = (i % 10) as f64 / 10.0 + 0.1;
            online.observe(&[x], x);
        }
        for i in 0..20 {
            let x = (i % 10) as f64 / 10.0 + 0.1;
            online.observe(&[x], 3.0 * x);
        }
        online.retain_recent_and_refit(20);
        let pred = online.predict(&[0.5]);
        assert!((pred - 1.5).abs() < 0.05, "expected new-regime fit, got {pred}");
        assert_eq!(online.window_len(), 20);
        assert_eq!(online.refits(), 1);
    }

    #[test]
    fn translated_targets_match_refit_on_shifted_data() {
        let (xs, ys) = random_stream(13, 80, 3);
        // Model A: observe old-level targets, then translate them up by
        // ln 3 with the last 5 already at the new level.
        let dy = 3.0f64.ln();
        let mut a = OnlineRidge::new(3, 1e-3, 128);
        for (i, (x, &y)) in xs.iter().zip(&ys).enumerate() {
            a.observe(x, if i >= 75 { y + dy } else { y });
        }
        a.translate_targets_and_refit(dy, 5);
        // Model B: every target was at the new level all along.
        let mut b = OnlineRidge::new(3, 1e-3, 128);
        for (x, &y) in xs.iter().zip(&ys) {
            b.observe(x, y + dy);
        }
        b.refit();
        let bits = |m: &OnlineRidge| {
            m.coefficients().iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        assert_eq!(bits(&a), bits(&b), "translation must land exactly on the shifted fit");
        assert_eq!(a.refits(), 1);
    }

    #[test]
    fn fixed_stream_is_bit_deterministic() {
        let (xs, ys) = random_stream(5, 150, 3);
        let run = || {
            let mut m = OnlineRidge::new(3, 1e-3, 64);
            for (x, &y) in xs.iter().zip(&ys) {
                m.observe(x, y);
            }
            m.refit();
            for (x, &y) in xs.iter().zip(&ys).take(40) {
                m.observe(x, y);
            }
            m.coefficients().iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
