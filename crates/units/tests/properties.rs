//! Property-based tests for the quantity newtypes.

use proptest::prelude::*;
use units::{Accel, Angle, Distance, Seconds, Speed, Tick};

fn finite() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

proptest! {
    #[test]
    fn speed_mph_round_trip(v in finite()) {
        let s = Speed::from_mph(v);
        prop_assert!((s.mph() - v).abs() < 1e-6 * v.abs().max(1.0));
    }

    #[test]
    fn angle_degree_round_trip(d in finite()) {
        let a = Angle::from_degrees(d);
        prop_assert!((a.degrees() - d).abs() < 1e-9 * d.abs().max(1.0));
    }

    #[test]
    fn addition_commutes(a in finite(), b in finite()) {
        let x = Distance::meters(a);
        let y = Distance::meters(b);
        prop_assert_eq!(x + y, y + x);
    }

    #[test]
    fn clamp_is_within_bounds(v in finite(), lo in -10.0..0.0f64, hi in 0.0..10.0f64) {
        let c = Accel::from_mps2(v).clamp(Accel::from_mps2(lo), Accel::from_mps2(hi));
        prop_assert!(c.mps2() >= lo && c.mps2() <= hi);
    }

    #[test]
    fn kinematics_dimensional_consistency(v in 0.1..100.0f64, t in 0.001..10.0f64) {
        let speed = Speed::from_mps(v);
        let dt = Seconds::new(t);
        let d = speed * dt;
        // d / v recovers t.
        let t2 = d / speed;
        prop_assert!((t2.secs() - t).abs() < 1e-9);
    }

    #[test]
    fn tick_time_monotone(a in 0u64..100_000, b in 0u64..100_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Tick::new(lo).time() <= Tick::new(hi).time());
        prop_assert_eq!(Tick::new(hi).since(Tick::new(lo)).secs().to_bits(),
                        ((hi - lo) as f64 * 0.01).to_bits());
    }

    #[test]
    fn negation_is_involutive(v in finite()) {
        let a = Angle::from_radians(v);
        prop_assert_eq!(-(-a), a);
        let s = Speed::from_mps(v);
        prop_assert_eq!(-(-s), s);
    }
}
