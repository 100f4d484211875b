//! A scalar Kalman filter.
//!
//! Used twice in this reproduction, mirroring the paper: the ADAS smooths its
//! speed estimate with it, and the attack engine uses the same filter (Eq. 3)
//! to predict the ego speed one step ahead when choosing strategic values.

/// A one-dimensional Kalman filter over a random-walk-with-drift state.
///
/// # Examples
///
/// ```
/// use openadas::Kalman1D;
///
/// let mut kf = Kalman1D::new(26.8, 1.0, 0.01, 0.05);
/// // Predict constant speed, then fuse a noisy measurement.
/// kf.predict(0.0);
/// kf.update(26.9);
/// assert!((kf.estimate() - 26.85).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kalman1D {
    x: f64,
    p: f64,
    q: f64,
    r: f64,
    last_gain: f64,
}

/// Covariance floor: repeated measurement updates shrink `p`
/// geometrically and would eventually underflow to a denormal (or zero,
/// making the filter deaf to all future measurements). Far below any
/// operating variance, so the clamp is a no-op in normal service.
const P_MIN: f64 = 1e-9;

/// Covariance ceiling: unbounded prediction-only operation (e.g. a radar
/// that never returns) grows `p` without limit, and a later measurement
/// would be fused with a gain of exactly 1.0 computed from a near-overflow
/// ratio. Far above any operating variance.
const P_MAX: f64 = 1e9;

impl Kalman1D {
    /// Creates a filter with initial state `x0`, initial variance `p0`,
    /// process noise `q` and measurement noise `r` (both variances).
    ///
    /// # Panics
    ///
    /// Panics if `q`, `r` or `p0` are not positive.
    // adas-lint: allow(R1, reason = "filter is quantity-generic: it smooths speeds for the ADAS and predictions for the attack engine; x0 is in the caller's unit, p0/q/r are variances (dimensionless here)")
    pub fn new(x0: f64, p0: f64, q: f64, r: f64) -> Self {
        assert!(p0 > 0.0 && q > 0.0 && r > 0.0, "variances must be positive");
        Self {
            x: x0,
            p: p0,
            q,
            r,
            last_gain: 0.0,
        }
    }

    /// Current state estimate.
    // adas-lint: allow(R1, reason = "estimate is in whatever unit the caller filters; wrapping it would pin the filter to one quantity")
    pub fn estimate(&self) -> f64 {
        self.x
    }

    /// Current estimate variance.
    // adas-lint: allow(R1, reason = "variance of the filtered quantity; squared-unit newtypes do not exist in units::")
    pub fn variance(&self) -> f64 {
        self.p
    }

    /// The Kalman gain used by the most recent [`Self::update`] — the
    /// `K_t` of the paper's Eq. 3.
    // adas-lint: allow(R1, reason = "Kalman gain K_t is a dimensionless blend factor in [0, 1]")
    pub fn last_gain(&self) -> f64 {
        self.last_gain
    }

    /// Time-update: shifts the state by a known control increment `du`
    /// (e.g. `accel * dt`) and inflates the variance.
    ///
    /// A non-finite `du` is ignored (the variance still inflates): a
    /// corrupted control input must not poison the state estimate.
    // adas-lint: allow(R1, reason = "control increment in the caller's unit (e.g. accel*dt as m/s); the filter stays quantity-generic")
    pub fn predict(&mut self, du: f64) {
        if du.is_finite() {
            self.x += du;
        }
        self.p = (self.p + self.q).clamp(P_MIN, P_MAX);
    }

    /// Normalized innovation of a candidate measurement `z`: the absolute
    /// residual `|z - x|` in units of the innovation standard deviation
    /// `sqrt(p + r)`. A chi-square-style plausibility gate compares this
    /// against a sigma threshold *before* fusing the measurement — the
    /// filter itself is left untouched.
    ///
    /// A non-finite `z` reports an infinite innovation (maximally
    /// implausible), mirroring [`Self::update`]'s outright rejection.
    // adas-lint: allow(R1, reason = "normalized innovation is dimensionless: a residual divided by its own standard deviation")
    pub fn normalized_innovation(&self, z: f64) -> f64 {
        if !z.is_finite() {
            return f64::INFINITY;
        }
        (z - self.x).abs() / (self.p + self.r).sqrt().max(1e-12)
    }

    /// Measurement-update: fuses measurement `z`, returning the new
    /// estimate. Implements `x <- x + K (z - x)`.
    ///
    /// A non-finite `z` is rejected outright — state, variance and gain are
    /// left untouched, as if no measurement had arrived.
    // adas-lint: allow(R1, reason = "measurement and estimate are in the caller's unit; the filter stays quantity-generic")
    pub fn update(&mut self, z: f64) -> f64 {
        if !z.is_finite() {
            return self.x;
        }
        let k = self.p / (self.p + self.r);
        self.last_gain = k;
        self.x += k * (z - self.x);
        self.p = (self.p * (1.0 - k)).clamp(P_MIN, P_MAX);
        self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_constant_signal() {
        let mut kf = Kalman1D::new(0.0, 10.0, 1e-4, 0.25);
        for _ in 0..200 {
            kf.predict(0.0);
            kf.update(5.0);
        }
        assert!((kf.estimate() - 5.0).abs() < 0.01);
        assert!(kf.variance() < 0.05);
    }

    #[test]
    fn tracks_a_ramp_with_known_control() {
        let mut kf = Kalman1D::new(0.0, 1.0, 1e-3, 0.1);
        let mut truth = 0.0;
        for _ in 0..500 {
            truth += 0.02; // 2 m/s^2 * 10 ms
            kf.predict(0.02);
            kf.update(truth + 0.01); // small bias in measurement
        }
        assert!((kf.estimate() - truth).abs() < 0.05);
    }

    #[test]
    fn gain_shrinks_as_confidence_grows() {
        let mut kf = Kalman1D::new(0.0, 10.0, 1e-6, 1.0);
        kf.predict(0.0);
        kf.update(1.0);
        let early_gain = kf.last_gain();
        for _ in 0..100 {
            kf.predict(0.0);
            kf.update(1.0);
        }
        assert!(kf.last_gain() < early_gain);
        assert!(kf.last_gain() > 0.0);
    }

    #[test]
    fn noisy_measurements_are_smoothed() {
        // Deterministic "noise": alternate +-0.5 around 10.
        let mut kf = Kalman1D::new(10.0, 0.5, 1e-4, 0.5);
        let mut worst: f64 = 0.0;
        for i in 0..400 {
            kf.predict(0.0);
            let z = 10.0 + if i % 2 == 0 { 0.5 } else { -0.5 };
            kf.update(z);
            if i > 50 {
                worst = worst.max((kf.estimate() - 10.0).abs());
            }
        }
        assert!(worst < 0.1, "filter output varies far less than input");
    }

    #[test]
    fn normalized_innovation_scales_with_residual_and_rejects_non_finite() {
        let kf = Kalman1D::new(10.0, 0.5, 0.01, 0.5);
        // sqrt(p + r) = 1.0, so the normalized innovation equals the residual.
        assert!((kf.normalized_innovation(10.0) - 0.0).abs() < 1e-12);
        assert!((kf.normalized_innovation(13.0) - 3.0).abs() < 1e-12);
        assert!((kf.normalized_innovation(7.0) - 3.0).abs() < 1e-12);
        assert!(kf.normalized_innovation(f64::NAN).is_infinite());
        assert!(kf.normalized_innovation(f64::INFINITY).is_infinite());
    }

    #[test]
    #[should_panic(expected = "variances must be positive")]
    fn rejects_non_positive_variance() {
        let _ = Kalman1D::new(0.0, 0.0, 0.01, 0.1);
    }

    #[test]
    fn covariance_never_collapses_under_relentless_updates() {
        // Updates without interleaved predicts shrink p geometrically;
        // without the floor it underflows to a denormal and the gain pins
        // to ~0 forever. Regression test for the radar-loss audit.
        let mut kf = Kalman1D::new(10.0, 1.0, 1e-4, 0.25);
        for _ in 0..1_000_000 {
            kf.update(10.0);
        }
        assert!(kf.variance().is_finite());
        assert!(kf.variance() >= P_MIN);
        // The filter must still respond to a fresh measurement.
        kf.predict(0.0);
        kf.update(12.0);
        assert!(kf.last_gain() > 0.0);
    }

    #[test]
    fn covariance_never_diverges_under_relentless_predicts() {
        // Prediction-only operation (radar silent for the whole run and
        // beyond) inflates p linearly; the ceiling keeps it finite and the
        // next real measurement numerically sane.
        let mut kf = Kalman1D::new(10.0, 1.0, 1e6, 0.25);
        for _ in 0..1_000_000 {
            kf.predict(0.0);
        }
        assert!(kf.variance().is_finite());
        assert!(kf.variance() <= P_MAX);
        let est = kf.update(11.0);
        assert!(est.is_finite());
        assert!((est - 11.0).abs() < 1e-6, "stale prior yields gain ~1");
    }

    #[test]
    fn non_finite_measurement_is_rejected() {
        let mut kf = Kalman1D::new(5.0, 1.0, 0.01, 0.1);
        kf.predict(0.0);
        let snapshot = |kf: &Kalman1D| {
            (
                kf.estimate().to_bits(),
                kf.variance().to_bits(),
                kf.last_gain().to_bits(),
            )
        };
        let before = snapshot(&kf);
        assert!((kf.update(f64::NAN) - 5.0).abs() < 1e-12);
        assert!((kf.update(f64::INFINITY) - 5.0).abs() < 1e-12);
        assert!((kf.update(f64::NEG_INFINITY) - 5.0).abs() < 1e-12);
        assert_eq!(
            before,
            snapshot(&kf),
            "rejected measurements leave no trace"
        );
    }

    #[test]
    fn non_finite_control_is_ignored() {
        let mut kf = Kalman1D::new(5.0, 1.0, 0.01, 0.1);
        kf.predict(f64::NAN);
        assert!((kf.estimate() - 5.0).abs() < 1e-12);
        assert!(
            kf.variance().is_finite(),
            "variance still inflates, finitely"
        );
        kf.predict(f64::INFINITY);
        assert!(kf.estimate().is_finite());
    }
}
