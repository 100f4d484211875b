//! Lane perception post-processing.
//!
//! The raw `modelV2` lane-line estimates are noisy; the lateral planner wants
//! a smooth lateral offset, its derivative, and a curvature estimate. This is
//! the (drastically simplified) counterpart of OpenPilot's lateral MPC input
//! stage.

use msgbus::schema::LaneModel;
use units::{Distance, Speed, DT};

/// Smoothed lane state consumed by the lateral controller.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneEstimate {
    /// Smoothed lateral offset from the lane centre (positive left).
    pub offset: Distance,
    /// Rate of change of the offset.
    pub offset_rate: Speed,
    /// Smoothed road curvature (1/m, positive left).
    pub curvature: f64,
    /// Smoothed distance from the ego centreline to the left lane line.
    pub left_line: Distance,
    /// Smoothed distance from the ego centreline to the right lane line.
    pub right_line: Distance,
    /// Confidence in the estimate, in `[0, 1]`: 1.0 while `modelV2`
    /// samples keep arriving, decaying toward 0 during a camera outage
    /// (see [`LaneProcessor::coast`]). The lateral controller scales its
    /// steering authority by this factor, so a stale lane model fades out
    /// instead of steering on ghosts. `Default` is 0.0: a never-updated
    /// estimate carries no authority.
    pub confidence: f64,
}

/// Low-pass filter over the `modelV2` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneProcessor {
    est: LaneEstimate,
    initialized: bool,
    /// Smoothing factor per 10 ms sample for positions.
    alpha: f64,
    /// Slower smoothing for curvature.
    alpha_curv: f64,
}

impl Default for LaneProcessor {
    fn default() -> Self {
        Self::new()
    }
}

impl LaneProcessor {
    /// Creates a processor with OpenPilot-like smoothing (≈ 0.1 s position
    /// time-constant, ≈ 0.5 s curvature time-constant).
    pub fn new() -> Self {
        Self {
            est: LaneEstimate::default(),
            initialized: false,
            alpha: DT.secs() / 0.1,
            alpha_curv: DT.secs() / 0.5,
        }
    }

    /// Current smoothed estimate.
    pub fn estimate(&self) -> LaneEstimate {
        self.est
    }

    /// Feeds one `modelV2` sample; returns the updated estimate.
    pub fn update(&mut self, model: &LaneModel) -> LaneEstimate {
        let raw_offset = model.lateral_offset();
        if !self.initialized {
            self.est = LaneEstimate {
                offset: raw_offset,
                offset_rate: Speed::ZERO,
                curvature: model.curvature,
                left_line: model.left_line,
                right_line: model.right_line,
                confidence: 1.0,
            };
            self.initialized = true;
            return self.est;
        }
        let prev_offset = self.est.offset;
        let blend = |old: f64, new: f64, a: f64| old + a * (new - old);
        let offset = Distance::meters(blend(prev_offset.raw(), raw_offset.raw(), self.alpha));
        // Derivative of the *smoothed* offset, itself lightly filtered.
        let raw_rate = (offset - prev_offset) / DT.secs();
        let rate = Speed::from_mps(blend(self.est.offset_rate.mps(), raw_rate.raw() / 1.0, 0.2));
        self.est = LaneEstimate {
            offset,
            offset_rate: rate,
            curvature: blend(self.est.curvature, model.curvature, self.alpha_curv),
            left_line: Distance::meters(blend(
                self.est.left_line.raw(),
                model.left_line.raw(),
                self.alpha,
            )),
            right_line: Distance::meters(blend(
                self.est.right_line.raw(),
                model.right_line.raw(),
                self.alpha,
            )),
            confidence: 1.0,
        };
        self.est
    }

    /// Advances the estimate one tick with *no* `modelV2` sample (camera
    /// outage). The geometry holds at its last value while the confidence
    /// decays toward zero with a [`CONFIDENCE_DECAY_TC`] time-constant —
    /// lane-keeping authority fades smoothly instead of snapping off or
    /// steering on stale lines.
    pub fn coast(&mut self) {
        self.est.confidence = (self.est.confidence - DT.secs() / CONFIDENCE_DECAY_TC).max(0.0);
    }
}

/// Seconds for lane confidence to decay from 1.0 to 0.0 during a camera
/// outage (linear ramp): half a second of blind lane-keeping on coasted
/// geometry, matching the camera staleness watchdog's escalation window.
pub const CONFIDENCE_DECAY_TC: f64 = 0.5;

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;

    fn model(offset: f64, curvature: f64) -> LaneModel {
        let half = 3.7 / 2.0;
        LaneModel {
            left_line: Distance::meters(half - offset),
            right_line: Distance::meters(half + offset),
            lane_width: Distance::meters(3.7),
            curvature,
        }
    }

    #[test]
    fn first_sample_initializes_exactly() {
        let mut p = LaneProcessor::new();
        let est = p.update(&model(-0.3, 0.00125));
        assert!((est.offset.raw() + 0.3).abs() < 1e-9);
        assert_eq!(est.curvature, 0.00125);
        assert_eq!(est.offset_rate, Speed::ZERO);
    }

    #[test]
    fn converges_to_steady_input() {
        let mut p = LaneProcessor::new();
        for _ in 0..200 {
            p.update(&model(0.5, 0.002));
        }
        let est = p.estimate();
        assert!((est.offset.raw() - 0.5).abs() < 1e-3);
        assert!((est.curvature - 0.002).abs() < 1e-4);
        assert!(est.offset_rate.mps().abs() < 1e-3);
    }

    #[test]
    fn rate_reflects_moving_offset() {
        let mut p = LaneProcessor::new();
        // Offset ramping left at 0.5 m/s.
        let mut offset = 0.0;
        for _ in 0..300 {
            offset += 0.5 * DT.secs();
            p.update(&model(offset, 0.0));
        }
        let est = p.estimate();
        assert!(
            (est.offset_rate.mps() - 0.5).abs() < 0.05,
            "rate {} should approach 0.5 m/s",
            est.offset_rate
        );
    }

    #[test]
    fn smoothing_rejects_single_sample_glitch() {
        let mut p = LaneProcessor::new();
        for _ in 0..100 {
            p.update(&model(0.0, 0.0));
        }
        // One wild sample (e.g. perception glitch of 2 m).
        p.update(&model(2.0, 0.0));
        let est = p.estimate();
        assert!(
            est.offset.raw() < 0.25,
            "single glitch moves the estimate only slightly, got {}",
            est.offset
        );
    }

    #[test]
    fn confidence_decays_on_coast_and_recovers_on_update() {
        let mut p = LaneProcessor::new();
        assert_eq!(p.estimate().confidence, 0.0, "no authority before data");
        p.update(&model(0.0, 0.0));
        assert_eq!(p.estimate().confidence, 1.0);
        // Half the decay window: about half the confidence is left, and the
        // geometry holds.
        for _ in 0..25 {
            p.coast();
        }
        let est = p.estimate();
        assert!(
            (est.confidence - 0.5).abs() < 0.05,
            "got {}",
            est.confidence
        );
        assert_eq!(est.offset.raw(), 0.0);
        // Past the window: pinned at zero, never negative.
        for _ in 0..100 {
            p.coast();
        }
        assert_eq!(p.estimate().confidence, 0.0);
        // One fresh sample restores full authority.
        p.update(&model(0.0, 0.0));
        assert_eq!(p.estimate().confidence, 1.0);
    }
}
