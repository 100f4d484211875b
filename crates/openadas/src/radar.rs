//! Lead-vehicle tracking from `radarState` samples.

use msgbus::schema::{LeadTrack, RadarState};
use units::{Accel, Distance, Speed};

use crate::Kalman1D;

/// A smoothed lead estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadEstimate {
    /// Smoothed gap to the lead.
    pub d_rel: Distance,
    /// Smoothed lead speed.
    pub v_lead: Speed,
    /// Lead acceleration as reported by the radar pipeline.
    pub a_lead: Accel,
}

/// Tracks the primary lead with a pair of scalar Kalman filters, coasting
/// through short dropouts the way OpenPilot's radard does.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadTracker {
    dist: Option<Kalman1D>,
    speed: Option<Kalman1D>,
    a_lead: Accel,
    /// Consecutive samples without a detection.
    dropout: u32,
    /// Detections needed before the track is published.
    confirm: u32,
}

/// Samples the track survives without a detection before being dropped
/// (0.3 s at 100 Hz).
const MAX_DROPOUT: u32 = 30;
/// Detections needed to confirm a new track.
const CONFIRM_SAMPLES: u32 = 5;

impl Default for LeadTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl LeadTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self {
            dist: None,
            speed: None,
            a_lead: Accel::ZERO,
            dropout: 0,
            confirm: 0,
        }
    }

    /// The confirmed lead estimate, if any.
    pub fn lead(&self) -> Option<LeadEstimate> {
        if self.confirm < CONFIRM_SAMPLES {
            return None;
        }
        match (&self.dist, &self.speed) {
            (Some(d), Some(v)) => Some(LeadEstimate {
                d_rel: Distance::meters(d.estimate()),
                v_lead: Speed::from_mps(v.estimate()),
                a_lead: self.a_lead,
            }),
            _ => None,
        }
    }

    /// Normalized innovations `(distance, speed)` a detection would have
    /// against the current track filters, or `None` when there is no track
    /// to compare against (the gate then falls back to its jump limits).
    // adas-lint: allow(R1, reason = "normalized innovations are dimensionless (residual over its own sigma)")
    pub fn innovations(&self, lead: &LeadTrack) -> Option<(f64, f64)> {
        match (&self.dist, &self.speed) {
            (Some(d), Some(v)) => Some((
                d.normalized_innovation(lead.d_rel.raw()),
                v.normalized_innovation(lead.v_lead.mps()),
            )),
            _ => None,
        }
    }

    /// Feeds one radar sample.
    pub fn update(&mut self, radar: &RadarState) -> Option<LeadEstimate> {
        match radar.lead {
            Some(LeadTrack {
                d_rel,
                v_lead,
                a_lead,
            }) => {
                self.dropout = 0;
                self.confirm = (self.confirm + 1).min(CONFIRM_SAMPLES);
                self.a_lead = a_lead;
                match (&mut self.dist, &mut self.speed) {
                    (Some(d), Some(v)) => {
                        // Gap closes at (v_lead - v_ego); we fold that into the
                        // measurement update rather than tracking ego speed here.
                        d.predict(0.0);
                        d.update(d_rel.raw());
                        v.predict(0.0);
                        v.update(v_lead.mps());
                    }
                    _ => {
                        self.dist = Some(Kalman1D::new(d_rel.raw(), 1.0, 0.05, 0.25));
                        self.speed = Some(Kalman1D::new(v_lead.mps(), 1.0, 0.05, 0.15));
                    }
                }
            }
            None => {
                self.dropout += 1;
                if self.dropout > MAX_DROPOUT {
                    self.dist = None;
                    self.speed = None;
                    self.confirm = 0;
                }
            }
        }
        self.lead()
    }

    /// Advances the track one tick with *no* radar message at all — the
    /// radar module went silent, as opposed to a received `radarState`
    /// carrying no detection (that is [`Self::update`] with `lead: None`).
    ///
    /// The filters coast: the state holds while the variance inflates, so a
    /// reading after a short outage is fused with an honestly low
    /// confidence. After the same [`MAX_DROPOUT`] window as a detection
    /// loss, the track is invalidated — coast-then-invalidate, never
    /// coast-forever.
    pub fn coast(&mut self) {
        if let Some(d) = self.dist.as_mut() {
            d.predict(0.0);
        }
        if let Some(v) = self.speed.as_mut() {
            v.predict(0.0);
        }
        self.dropout = self.dropout.saturating_add(1);
        if self.dropout > MAX_DROPOUT {
            self.dist = None;
            self.speed = None;
            self.confirm = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(d: f64, v: f64) -> RadarState {
        RadarState {
            lead: Some(LeadTrack {
                d_rel: Distance::meters(d),
                v_lead: Speed::from_mps(v),
                a_lead: Accel::ZERO,
            }),
        }
    }

    #[test]
    fn track_requires_confirmation() {
        let mut t = LeadTracker::new();
        for i in 0..4 {
            assert!(t.update(&sample(50.0, 15.0)).is_none(), "sample {i}");
        }
        assert!(t.update(&sample(50.0, 15.0)).is_some(), "confirmed on 5th");
    }

    #[test]
    fn estimates_converge_to_truth() {
        let mut t = LeadTracker::new();
        for _ in 0..100 {
            t.update(&sample(42.0, 18.0));
        }
        let lead = t.lead().unwrap();
        assert!((lead.d_rel.raw() - 42.0).abs() < 0.2);
        assert!((lead.v_lead.mps() - 18.0).abs() < 0.2);
    }

    #[test]
    fn coasts_through_short_dropout() {
        let mut t = LeadTracker::new();
        for _ in 0..20 {
            t.update(&sample(42.0, 18.0));
        }
        for _ in 0..10 {
            assert!(t.update(&RadarState { lead: None }).is_some());
        }
    }

    #[test]
    fn long_dropout_drops_track() {
        let mut t = LeadTracker::new();
        for _ in 0..20 {
            t.update(&sample(42.0, 18.0));
        }
        for _ in 0..(MAX_DROPOUT + 1) {
            t.update(&RadarState { lead: None });
        }
        assert!(t.lead().is_none());
        // And re-acquiring requires fresh confirmation.
        for i in 0..4 {
            assert!(t.update(&sample(30.0, 10.0)).is_none(), "sample {i}");
        }
        assert!(t.update(&sample(30.0, 10.0)).is_some());
    }

    #[test]
    fn coast_holds_then_invalidates() {
        let mut t = LeadTracker::new();
        for _ in 0..20 {
            t.update(&sample(42.0, 18.0));
        }
        let before = t.lead().unwrap();
        // Short silence: the estimate coasts, essentially unchanged.
        for _ in 0..MAX_DROPOUT {
            t.coast();
        }
        let coasted = t.lead().expect("track survives the coast window");
        assert!((coasted.d_rel.raw() - before.d_rel.raw()).abs() < 1e-9);
        // One tick past the window: fail closed, no stale lead.
        t.coast();
        assert!(t.lead().is_none());
    }

    #[test]
    fn coast_inflates_variance_for_reacquisition() {
        let mut t = LeadTracker::new();
        for _ in 0..100 {
            t.update(&sample(42.0, 18.0));
        }
        for _ in 0..10 {
            t.coast();
        }
        // The post-outage measurement is trusted more than the coasted
        // prior: the estimate jumps most of the way to the new reading.
        let est = t.update(&sample(45.0, 18.0)).unwrap();
        assert!(
            est.d_rel.raw() > 43.5,
            "fresh reading dominates: {}",
            est.d_rel.raw()
        );
    }
}
