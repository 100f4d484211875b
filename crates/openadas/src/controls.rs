//! Translation between high-level commands and CAN actuator frames.
//!
//! This is the last computational stage before the physical bus — the stage
//! the paper argues should host robust safety checks, because everything
//! upstream can be bypassed by corrupting the frames here.

use canbus::checksum::{apply_honda_checksum, verify_honda_checksum, RollingCounter};
use canbus::{
    CanFrame, MessageSpec, Signal, VirtualCarDbc, ACCEL_CMD, BRAKE_CMD, BRAKE_REQ, GAS_REQ,
    STEER_ANGLE_CMD, STEER_REQ,
};
use msgbus::schema::CarControl;
use units::{limits, Accel, Angle};

use crate::Enveloped;

/// One actuator command message laid out at compile time from the DBC's
/// `const` definitions: its frame (id and length, validated), the
/// command-value signal, its constant `*_REQ` companion and the
/// rolling-counter/checksum tail. The 100 Hz codec pays no name lookup
/// and no validation.
struct CommandLayout {
    /// An all-zero frame of the message's id and length.
    frame: CanFrame,
    value: Signal,
    req: Signal,
    /// `req` set to 1.
    req_raw: u64,
    counter: Option<Signal>,
    checksum: bool,
}

impl CommandLayout {
    /// Evaluated only for the `const` layouts below, so a command message
    /// that is not a classic CAN frame (an id over 11 bits, more than 8
    /// bytes), or a request flag that cannot hold 1, fails the build
    /// (E0080) instead of an encode.
    #[allow(
        clippy::panic,
        reason = "compile-time only: every caller is a `const` item, so a panic here is a build error"
    )]
    const fn new(spec: &MessageSpec, value: Signal, req: Signal) -> Self {
        let Ok(frame) = CanFrame::new(spec.id, [0; 8].split_at(spec.dlc as usize).0) else {
            panic!("a command message must fit a classic CAN frame");
        };
        let Ok(req_raw) = req.phys_to_raw(1.0) else {
            panic!("a request flag must be able to hold 1");
        };
        Self {
            frame,
            value,
            req,
            req_raw,
            counter: spec.counter_signal,
            checksum: spec.checksum_signal.is_some(),
        }
    }

    /// The frame `canbus::Encoder::encode(spec, &[(value, phys), (req, 1)])`
    /// produces, bit for bit: value and request flag, then the counter
    /// draw, then the checksum. `phys` must lie in the value signal's
    /// range, which the envelope assertions below prove for every
    /// [`Enveloped`] command.
    fn encode(&self, counter: &mut RollingCounter, phys: f64) -> CanFrame {
        let mut data = [0u8; 8];
        let raw = self.value.saturating_phys_to_raw(phys);
        self.value.insert_raw(&mut data, raw);
        self.req.insert_raw(&mut data, self.req_raw);
        if let Some(signal) = self.counter {
            signal.insert_raw(&mut data, u64::from(counter.next_value()));
        }
        let mut frame = self.frame;
        frame.set_u64(u64::from_be_bytes(data));
        if self.checksum {
            apply_honda_checksum(frame.id(), frame.data_mut());
        }
        frame
    }

    /// [`encode`](Self::encode)'s quantization and counter draw without
    /// the frame: the value a receiver would decode and the rolling counter
    /// the frame would carry (0 for a message without one).
    fn quantize(&self, counter: &mut RollingCounter, phys: f64) -> (f64, u8) {
        let raw = self.value.saturating_phys_to_raw(phys);
        let counter = match self.counter {
            Some(_) => counter.next_value(),
            None => 0,
        };
        (self.value.raw_to_phys(raw), counter)
    }

    /// The command value of a frame with this message's id, or `None` if it
    /// fails checksum verification (a receiving ECU drops it).
    fn decode(&self, frame: &CanFrame) -> Option<f64> {
        if self.checksum && !verify_honda_checksum(frame.id(), frame.data()) {
            return None;
        }
        Some(
            self.value
                .raw_to_phys(self.value.extract_raw(&frame.as_u64().to_be_bytes())),
        )
    }
}

const DBC: VirtualCarDbc = VirtualCarDbc::new();
const STEER: CommandLayout = CommandLayout::new(DBC.steering_control(), STEER_ANGLE_CMD, STEER_REQ);
const GAS: CommandLayout = CommandLayout::new(DBC.gas_command(), ACCEL_CMD, GAS_REQ);
const BRAKE: CommandLayout = CommandLayout::new(DBC.brake_command(), BRAKE_CMD, BRAKE_REQ);

/// Whether every value in `[lo, hi]` fits `signal`: both ends convert, and
/// with a positive factor the conversion is monotone, so the values
/// between them do too.
const fn carries(signal: &Signal, lo: f64, hi: f64) -> bool {
    signal.factor > 0.0 && signal.phys_to_raw(lo).is_ok() && signal.phys_to_raw(hi).is_ok()
}

// The physical envelope `Enveloped` admits (`units::limits`) lies inside
// every command signal's raw range, so the encoder has no value to refuse:
// the steering signal carries `±PHYS_STEER_MAX_DEG`, the gas signal
// `accel.max(0)` and the brake signal `accel.min(0)`. A wider envelope or a
// narrower signal fails the build (E0080). `openadas/tests/properties.rs`
// is the runtime half: every admitted command decodes within half a step.
const _: () = assert!(
    carries(
        &STEER.value,
        -limits::PHYS_STEER_MAX_DEG,
        limits::PHYS_STEER_MAX_DEG
    ),
    "the steering envelope must fit the steering command signal"
);
const _: () = assert!(
    carries(&GAS.value, 0.0, limits::PHYS_ACCEL_MAX_MPS2),
    "the acceleration envelope must fit the gas command signal"
);
const _: () = assert!(
    carries(&BRAKE.value, limits::PHYS_BRAKE_MIN_MPS2, 0.0),
    "the braking envelope must fit the brake command signal"
);

/// One control cycle's actuator frames as their readers would see them,
/// without the bytes: what [`CommandEncoder::quantize_cycle`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizedCycle {
    /// The command the actuator side decodes from the unmolested frames.
    pub command: CarControl,
    /// The rolling counters the steering, gas and brake frames carry, in
    /// that order (what a bus monitor reads from them).
    pub counters: [u8; 3],
}

/// Encodes [`Enveloped`] commands into gas/brake/steering CAN frames and
/// decodes them back on the actuator side as [`CarControl`]s.
///
/// The message layouts are compile-time data, so the encoder holds only
/// the three messages' rolling counters, and it cannot fail: an
/// `Enveloped` command always fits the command signals.
#[derive(Debug, Default)]
pub struct CommandEncoder {
    steer: RollingCounter,
    gas: RollingCounter,
    brake: RollingCounter,
}

impl CommandEncoder {
    /// Creates an encoder with every rolling counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one control cycle's command into its three actuator frames:
    /// steering (`0xE4`), gas and brake.
    pub fn encode(&mut self, control: &Enveloped) -> Vec<CanFrame> {
        // adas-lint: allow(R13, reason = "allocating convenience wrapper — steady-state callers hold a 3-slot buffer and use encode_into")
        let mut frames = Vec::with_capacity(3);
        self.encode_into(control, &mut frames);
        frames
    }

    /// Allocation-free variant of [`encode`](Self::encode): clears `frames`
    /// and appends the three actuator frames, reusing the buffer's capacity.
    pub fn encode_into(&mut self, control: &Enveloped, frames: &mut Vec<CanFrame>) {
        frames.clear();
        let control = control.get();
        // adas-lint: allow(R13, reason = "append into the caller's cleared buffer, which retains its 3-frame capacity across ticks — amortized after the first cycle")
        frames.push(STEER.encode(&mut self.steer, control.steer.degrees()));
        // adas-lint: allow(R13, reason = "append into the caller's cleared buffer, which retains its 3-frame capacity across ticks — amortized after the first cycle")
        frames.push(GAS.encode(&mut self.gas, control.accel.max(Accel::ZERO).mps2()));
        // adas-lint: allow(R13, reason = "append into the caller's cleared buffer, which retains its 3-frame capacity across ticks — amortized after the first cycle")
        frames.push(BRAKE.encode(&mut self.brake, control.accel.min(Accel::ZERO).mps2()));
    }

    /// Runs one control cycle's encode→decode round trip without touching
    /// the wire: quantizes the command through the same per-signal DBC
    /// scaling [`encode_into`](Self::encode_into) would apply and consumes
    /// the same three rolling-counter draws, returning the [`CarControl`]
    /// the actuator side would decode from an unmolested frame batch and
    /// the counters those frames would carry.
    ///
    /// The counter parity means a hot path may freely alternate between
    /// real frames (ticks something inspects the bus) and this shortcut
    /// (ticks nothing does) per cycle without the transmit counters
    /// drifting from a frame-for-frame run.
    pub fn quantize_cycle(&mut self, control: &Enveloped) -> QuantizedCycle {
        let control = control.get();
        let (steer, steer_counter) = STEER.quantize(&mut self.steer, control.steer.degrees());
        let (gas, gas_counter) = GAS.quantize(&mut self.gas, control.accel.max(Accel::ZERO).mps2());
        let (brake, brake_counter) =
            BRAKE.quantize(&mut self.brake, control.accel.min(Accel::ZERO).mps2());
        QuantizedCycle {
            command: CarControl {
                accel: Accel::from_mps2(gas + brake),
                steer: Angle::from_degrees(steer),
            },
            counters: [steer_counter, gas_counter, brake_counter],
        }
    }

    /// Actuator-side decoding: folds a batch of delivered frames back into a
    /// [`CarControl`], verifying checksums. Frames that fail verification are
    /// dropped exactly as a real ECU drops them; fields without a valid frame
    /// fall back to `base` (actuators hold their last valid command).
    pub fn decode_actuators(&self, frames: &[CanFrame], base: CarControl) -> CarControl {
        let mut out = base;
        let mut gas = None;
        let mut brake = None;
        for frame in frames {
            if frame.id() == STEER.frame.id() {
                if let Some(deg) = STEER.decode(frame) {
                    out.steer = Angle::from_degrees(deg);
                }
            } else if frame.id() == GAS.frame.id() {
                gas = GAS.decode(frame).or(gas);
            } else if frame.id() == BRAKE.frame.id() {
                brake = BRAKE.decode(frame).or(brake);
            }
        }
        if gas.is_some() || brake.is_some() {
            out.accel = Accel::from_mps2(gas.unwrap_or(0.0) + brake.unwrap_or(0.0));
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;
    use canbus::decode;

    fn raw(accel: f64, steer_deg: f64) -> CarControl {
        CarControl {
            accel: Accel::from_mps2(accel),
            steer: Angle::from_degrees(steer_deg),
        }
    }

    fn control(accel: f64, steer_deg: f64) -> Enveloped {
        Enveloped::new(raw(accel, steer_deg)).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut enc = CommandEncoder::new();
        let frames = enc.encode(&control(1.5, -0.2));
        assert_eq!(frames.len(), 3);
        let decoded = enc.decode_actuators(&frames, CarControl::default());
        assert!((decoded.accel.mps2() - 1.5).abs() < 0.002);
        assert!((decoded.steer.degrees() + 0.2).abs() < 0.01);
    }

    #[test]
    fn braking_goes_on_the_brake_message() {
        let mut enc = CommandEncoder::new();
        let frames = enc.encode(&control(-3.0, 0.0));
        let brake_frame = frames
            .iter()
            .find(|f| f.id() == DBC.brake_command().id)
            .unwrap();
        let map = decode(DBC.brake_command(), brake_frame).unwrap();
        assert!((map["BRAKE_CMD"] + 3.0).abs() < 0.002);
        let gas_frame = frames
            .iter()
            .find(|f| f.id() == DBC.gas_command().id)
            .unwrap();
        assert_eq!(
            decode(DBC.gas_command(), gas_frame).unwrap()["ACCEL_CMD"],
            0.0
        );
    }

    #[test]
    fn corrupted_frame_is_dropped_and_base_held() {
        let mut enc = CommandEncoder::new();
        let mut frames = enc.encode(&control(2.0, 0.3));
        // Corrupt the steering frame without fixing the checksum.
        frames[0].data_mut()[0] ^= 0xFF;
        let base = raw(0.5, 0.1);
        let decoded = enc.decode_actuators(&frames, base);
        assert!(
            (decoded.steer.degrees() - 0.1).abs() < 1e-9,
            "held last valid steer"
        );
        assert!(
            (decoded.accel.mps2() - 2.0).abs() < 0.002,
            "gas still applied"
        );
    }

    #[test]
    fn quantize_cycle_matches_wire_round_trip() {
        let mut wire = CommandEncoder::new();
        let mut short = CommandEncoder::new();
        for i in 0..50 {
            let c = control(-4.0 + 0.173 * i as f64, -2.0 + 0.083 * i as f64);
            let frames = wire.encode(&c);
            let decoded = wire.decode_actuators(&frames, CarControl::default());
            let quantized = short.quantize_cycle(&c);
            assert_eq!(decoded, quantized.command, "cycle {i}");
            let counters = frames
                .iter()
                .map(|f| (f.data()[f.data().len() - 1] >> 4) & 0x3);
            assert!(counters.eq(quantized.counters), "cycle {i}");
        }
        // Counters stayed in lockstep across 50 shortcut cycles.
        let c = control(1.0, 0.1);
        assert_eq!(wire.encode(&c), short.encode(&c));
    }

    /// The name-lookup codec the `const` layouts replaced: frames via
    /// `canbus::Encoder::encode`, commands via `decode_signal`.
    fn by_name_frames(
        enc: &mut canbus::Encoder,
        dbc: &VirtualCarDbc,
        c: &Enveloped,
    ) -> Vec<CanFrame> {
        let c = c.get();
        let gas = c.accel.max(Accel::ZERO).mps2();
        let brake = c.accel.min(Accel::ZERO).mps2();
        vec![
            enc.encode(
                dbc.steering_control(),
                &[("STEER_ANGLE_CMD", c.steer.degrees()), ("STEER_REQ", 1.0)],
            )
            .unwrap(),
            enc.encode(dbc.gas_command(), &[("ACCEL_CMD", gas), ("GAS_REQ", 1.0)])
                .unwrap(),
            enc.encode(
                dbc.brake_command(),
                &[("BRAKE_CMD", brake), ("BRAKE_REQ", 1.0)],
            )
            .unwrap(),
        ]
    }

    fn by_name_decode(dbc: &VirtualCarDbc, frames: &[CanFrame], base: CarControl) -> CarControl {
        let mut out = base;
        let (mut gas, mut brake) = (None, None);
        for f in frames {
            let (spec, name) = match f.id() {
                id if id == dbc.steering_control().id => {
                    (dbc.steering_control(), "STEER_ANGLE_CMD")
                }
                id if id == dbc.gas_command().id => (dbc.gas_command(), "ACCEL_CMD"),
                _ => (dbc.brake_command(), "BRAKE_CMD"),
            };
            let by_name = spec.require_signal(name);
            if let Ok(v) = by_name.and_then(|signal| canbus::decode_signal(spec, f, signal)) {
                match name {
                    "STEER_ANGLE_CMD" => out.steer = Angle::from_degrees(v),
                    "ACCEL_CMD" => gas = Some(v),
                    _ => brake = Some(v),
                }
            }
        }
        if gas.is_some() || brake.is_some() {
            out.accel = Accel::from_mps2(gas.unwrap_or(0.0) + brake.unwrap_or(0.0));
        }
        out
    }

    #[test]
    fn const_layouts_match_the_codec_by_name() {
        let dbc = VirtualCarDbc::new();
        let mut by_name = canbus::Encoder::new();
        let mut enc = CommandEncoder::new();
        let mut rng = 0x5EED_u64;
        for i in 0..400 {
            let c = control(-4.0 + 0.0163 * i as f64, -0.5 + 0.0025 * i as f64);
            let mut frames = enc.encode(&c);
            assert_eq!(frames, by_name_frames(&mut by_name, &dbc, &c), "cycle {i}");
            // Corrupt a random bit of a random frame on most cycles: both
            // decoders must drop exactly the same frames.
            rng = units::mix::splitmix64(rng);
            if !rng.is_multiple_of(4) {
                let frame = &mut frames[(rng >> 8) as usize % 3];
                let bit = (rng >> 16) as usize % (frame.data().len() * 8);
                frame.data_mut()[bit / 8] ^= 1 << (bit % 8);
            }
            let base = raw(0.3, -0.02);
            let got = enc.decode_actuators(&frames, base);
            let want = by_name_decode(&dbc, &frames, base);
            assert_eq!(got, want, "cycle {i}");
        }
    }

    #[test]
    fn empty_batch_returns_base() {
        let enc = CommandEncoder::new();
        let base = raw(-1.0, 0.05);
        assert_eq!(enc.decode_actuators(&[], base), base);
    }
}
