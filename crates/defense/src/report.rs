//! Detection outcome bookkeeping.

use units::{Seconds, Tick};

/// The outcome of running a defense against one attacked run, relating the
/// detection instant to the attack timeline (Fig. 2): a useful detection
/// lands after activation (`t_a`) and *before* the hazard (`t_h`), with
/// enough lead time for mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectionReport {
    /// When the attack activated.
    pub attack_at: Option<Tick>,
    /// When the defense alarmed.
    pub detected_at: Option<Tick>,
    /// When the hazard occurred.
    pub hazard_at: Option<Tick>,
}

impl DetectionReport {
    /// Detection latency relative to attack activation.
    pub fn latency(&self) -> Option<Seconds> {
        match (self.attack_at, self.detected_at) {
            (Some(a), Some(d)) if d >= a => Some(d.since(a)),
            _ => None,
        }
    }

    /// Time between detection and the hazard — the budget left for
    /// mitigation (positive = detected in time).
    pub fn lead_time(&self) -> Option<Seconds> {
        match (self.detected_at, self.hazard_at) {
            (Some(d), Some(h)) if h >= d => Some(h.since(d)),
            _ => None,
        }
    }

    /// Whether the defense alarmed before the hazard (or the hazard never
    /// happened at all) for an activated attack.
    pub fn detected_in_time(&self) -> bool {
        match (self.detected_at, self.hazard_at) {
            (Some(d), Some(h)) => d < h,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// A false positive: an alarm with no attack ever activating.
    pub fn false_positive(&self) -> bool {
        self.detected_at.is_some() && self.attack_at.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings() {
        let r = DetectionReport {
            attack_at: Some(Tick::new(1000)),
            detected_at: Some(Tick::new(1080)),
            hazard_at: Some(Tick::new(1300)),
        };
        assert_eq!(r.latency(), Some(Seconds::new(0.8)));
        assert_eq!(r.lead_time(), Some(Seconds::new(2.2)));
        assert!(r.detected_in_time());
        assert!(!r.false_positive());
    }

    #[test]
    fn late_detection() {
        let r = DetectionReport {
            attack_at: Some(Tick::new(1000)),
            detected_at: Some(Tick::new(1400)),
            hazard_at: Some(Tick::new(1300)),
        };
        assert!(!r.detected_in_time());
        assert_eq!(r.lead_time(), None);
    }

    #[test]
    fn false_positive_is_flagged() {
        let r = DetectionReport {
            attack_at: None,
            detected_at: Some(Tick::new(10)),
            hazard_at: None,
        };
        assert!(r.false_positive());
        assert_eq!(r.latency(), None);
    }

    #[test]
    fn no_detection() {
        let r = DetectionReport {
            attack_at: Some(Tick::new(10)),
            detected_at: None,
            hazard_at: Some(Tick::new(200)),
        };
        assert!(!r.detected_in_time());
        assert!(!r.false_positive());
    }
}
