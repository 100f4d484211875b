//! Translation between high-level commands and CAN actuator frames.
//!
//! This is the last computational stage before the physical bus — the stage
//! the paper argues should host robust safety checks, because everything
//! upstream can be bypassed by corrupting the frames here.

use canbus::checksum::{apply_honda_checksum, verify_honda_checksum, RollingCounter};
use canbus::{CanError, CanFrame, MessageSpec, Signal, VirtualCarDbc};
use msgbus::schema::CarControl;
use units::{Accel, Angle};

use crate::Enveloped;

/// One command message resolved against its spec once, at construction:
/// the command-value signal, its constant `*_REQ` companion, and the
/// rolling-counter/checksum tail — plus the message's transmit counter.
/// The 100 Hz codec then pays no per-tick name lookups, and the request
/// flag's validation is done for good.
#[derive(Debug)]
struct CommandLayout {
    id: u16,
    dlc: u8,
    value: Signal,
    req: Signal,
    /// `req` set to 1, validated at resolution.
    req_raw: u64,
    counter_signal: Option<Signal>,
    checksum: bool,
    counter: RollingCounter,
}

impl CommandLayout {
    fn resolve(spec: &MessageSpec, value: &str, req: &str) -> Option<Self> {
        let req = *spec.signal(req)?;
        let counter_signal = match spec.counter_signal {
            Some(name) => Some(*spec.signal(name)?),
            None => None,
        };
        Some(Self {
            id: spec.id,
            dlc: spec.dlc.min(8),
            value: *spec.signal(value)?,
            req_raw: req.phys_to_raw(1.0).ok()?,
            req,
            counter_signal,
            checksum: spec.checksum_signal.is_some(),
            counter: RollingCounter::new(),
        })
    }

    /// The frame `canbus::Encoder::encode(spec, &[(value, phys), (req, 1)])`
    /// produces, bit for bit: value and request flag, then the counter
    /// draw, then the checksum. An out-of-range value fails before the
    /// counter draw, as there.
    fn encode(&mut self, phys: f64) -> Result<CanFrame, CanError> {
        let raw = self.value.phys_to_raw(phys)?;
        let mut data = [0u8; 8];
        self.value.insert_raw(&mut data, raw);
        self.req.insert_raw(&mut data, self.req_raw);
        if let Some(signal) = self.counter_signal {
            signal.insert_raw(&mut data, u64::from(self.counter.next_value()));
        }
        let payload = data.get_mut(..usize::from(self.dlc)).unwrap_or(&mut []);
        if self.checksum {
            apply_honda_checksum(self.id, payload);
        }
        CanFrame::new(self.id, payload)
    }

    /// [`encode`](Self::encode)'s validation, quantization and counter draw
    /// without the frame: the value a receiver would decode and the rolling
    /// counter the frame would carry (0 for a message without one).
    fn quantize(&mut self, phys: f64) -> Result<(f64, u8), CanError> {
        let raw = self.value.phys_to_raw(phys)?;
        let counter = match self.counter_signal {
            Some(_) => self.counter.next_value(),
            None => 0,
        };
        Ok((self.value.raw_to_phys(raw), counter))
    }

    /// The command value of a frame with this message's id, or `None` if it
    /// fails checksum verification (a receiving ECU drops it).
    fn decode(&self, frame: &CanFrame) -> Option<f64> {
        if self.checksum && !verify_honda_checksum(self.id, frame.data()) {
            return None;
        }
        let mut data = [0u8; 8];
        for (dst, src) in data.iter_mut().zip(frame.data()) {
            *dst = *src;
        }
        Some(self.value.raw_to_phys(self.value.extract_raw(&data)))
    }
}

/// The three actuator messages' layouts. Only built when every signal
/// resolves and the constant `*_REQ` companions are in range, which makes
/// the per-cycle codec's skipped lookups and validations infallible by
/// construction.
#[derive(Debug)]
struct CycleSignals {
    steer: CommandLayout,
    gas: CommandLayout,
    brake: CommandLayout,
}

impl CycleSignals {
    fn resolve(dbc: &VirtualCarDbc) -> Option<Self> {
        Some(Self {
            steer: CommandLayout::resolve(dbc.steering_control(), "STEER_ANGLE_CMD", "STEER_REQ")?,
            gas: CommandLayout::resolve(dbc.gas_command(), "ACCEL_CMD", "GAS_REQ")?,
            brake: CommandLayout::resolve(dbc.brake_command(), "BRAKE_CMD", "BRAKE_REQ")?,
        })
    }
}

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
#[derive(Debug)]
pub struct CommandEncoder {
    dbc: VirtualCarDbc,
    /// `None` only if the DBC lacked a command signal; every encode then
    /// fails closed (no frames) and every decode holds the last command.
    cycle_signals: Option<CycleSignals>,
}

impl Default for CommandEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl CommandEncoder {
    /// Creates an encoder over the virtual car's DBC.
    pub fn new() -> Self {
        let dbc = VirtualCarDbc::new();
        let cycle_signals = CycleSignals::resolve(&dbc);
        Self { dbc, cycle_signals }
    }

    /// The message database in use.
    pub fn dbc(&self) -> &VirtualCarDbc {
        &self.dbc
    }

    /// The resolved layouts, or the error an encode by name would raise.
    fn layouts(&mut self) -> Result<&mut CycleSignals, CanError> {
        self.cycle_signals.as_mut().ok_or(CanError::UnknownSignal {
            name: "STEER_ANGLE_CMD",
        })
    }

    /// Encodes one control cycle's command into its three actuator frames:
    /// steering (`0xE4`), gas and brake.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::UnknownSignal`] if the DBC lacks a command
    /// signal. The physical envelope an [`Enveloped`] command sits in lies
    /// inside every command signal's range, so
    /// [`CanError::ValueOutOfRange`] does not arise.
    pub fn encode(&mut self, control: &Enveloped) -> Result<Vec<CanFrame>, CanError> {
        // adas-lint: allow(R13, reason = "allocating convenience wrapper — steady-state callers hold a 3-slot buffer and use encode_into")
        let mut frames = Vec::with_capacity(3);
        self.encode_into(control, &mut frames)?;
        Ok(frames)
    }

    /// Allocation-free variant of [`encode`](Self::encode): clears `frames`
    /// and appends the three actuator frames, reusing the buffer's capacity.
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode). On error `frames` may hold a partial
    /// batch; callers should treat it as garbage.
    pub fn encode_into(
        &mut self,
        control: &Enveloped,
        frames: &mut Vec<CanFrame>,
    ) -> Result<(), CanError> {
        frames.clear();
        let control = control.get();
        let sig = self.layouts()?;
        // adas-lint: allow(R13, reason = "append into the caller's cleared buffer, which retains its 3-frame capacity across ticks — amortized after the first cycle")
        frames.push(sig.steer.encode(control.steer.degrees())?);
        // adas-lint: allow(R13, reason = "append into the caller's cleared buffer, which retains its 3-frame capacity across ticks — amortized after the first cycle")
        frames.push(sig.gas.encode(control.accel.max(Accel::ZERO).mps2())?);
        // adas-lint: allow(R13, reason = "append into the caller's cleared buffer, which retains its 3-frame capacity across ticks — amortized after the first cycle")
        frames.push(sig.brake.encode(control.accel.min(Accel::ZERO).mps2())?);
        Ok(())
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
    ///
    /// # Errors
    ///
    /// Exactly [`encode_into`](Self::encode_into)'s errors at the same
    /// point in the sequence; on error the caller should hold its last
    /// command, which is what the actuator side does when a cycle's frames
    /// never arrive.
    pub fn quantize_cycle(&mut self, control: &Enveloped) -> Result<QuantizedCycle, CanError> {
        let control = control.get();
        let sig = self.layouts()?;
        let (steer, steer_counter) = sig.steer.quantize(control.steer.degrees())?;
        let (gas, gas_counter) = sig.gas.quantize(control.accel.max(Accel::ZERO).mps2())?;
        let (brake, brake_counter) = sig.brake.quantize(control.accel.min(Accel::ZERO).mps2())?;
        Ok(QuantizedCycle {
            command: CarControl {
                accel: Accel::from_mps2(gas + brake),
                steer: Angle::from_degrees(steer),
            },
            counters: [steer_counter, gas_counter, brake_counter],
        })
    }

    /// Actuator-side decoding: folds a batch of delivered frames back into a
    /// [`CarControl`], verifying checksums. Frames that fail verification are
    /// dropped exactly as a real ECU drops them; fields without a valid frame
    /// fall back to `base` (actuators hold their last valid command).
    pub fn decode_actuators(&self, frames: &[CanFrame], base: CarControl) -> CarControl {
        let mut out = base;
        let Some(sig) = &self.cycle_signals else {
            return out;
        };
        let mut gas = None;
        let mut brake = None;
        for frame in frames {
            if frame.id() == sig.steer.id {
                if let Some(deg) = sig.steer.decode(frame) {
                    out.steer = Angle::from_degrees(deg);
                }
            } else if frame.id() == sig.gas.id {
                gas = sig.gas.decode(frame).or(gas);
            } else if frame.id() == sig.brake.id {
                brake = sig.brake.decode(frame).or(brake);
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
        let frames = enc.encode(&control(1.5, -0.2)).unwrap();
        assert_eq!(frames.len(), 3);
        let decoded = enc.decode_actuators(&frames, CarControl::default());
        assert!((decoded.accel.mps2() - 1.5).abs() < 0.002);
        assert!((decoded.steer.degrees() + 0.2).abs() < 0.01);
    }

    #[test]
    fn braking_goes_on_the_brake_message() {
        let mut enc = CommandEncoder::new();
        let frames = enc.encode(&control(-3.0, 0.0)).unwrap();
        let brake_frame = frames
            .iter()
            .find(|f| f.id() == enc.dbc().brake_command().id)
            .unwrap();
        let map = decode(enc.dbc().brake_command(), brake_frame).unwrap();
        assert!((map["BRAKE_CMD"] + 3.0).abs() < 0.002);
        let gas_frame = frames
            .iter()
            .find(|f| f.id() == enc.dbc().gas_command().id)
            .unwrap();
        assert_eq!(decode(enc.dbc().gas_command(), gas_frame).unwrap()["ACCEL_CMD"], 0.0);
    }

    #[test]
    fn corrupted_frame_is_dropped_and_base_held() {
        let mut enc = CommandEncoder::new();
        let mut frames = enc.encode(&control(2.0, 0.3)).unwrap();
        // Corrupt the steering frame without fixing the checksum.
        frames[0].data_mut()[0] ^= 0xFF;
        let base = raw(0.5, 0.1);
        let decoded = enc.decode_actuators(&frames, base);
        assert!((decoded.steer.degrees() - 0.1).abs() < 1e-9, "held last valid steer");
        assert!((decoded.accel.mps2() - 2.0).abs() < 0.002, "gas still applied");
    }

    #[test]
    fn quantize_cycle_matches_wire_round_trip() {
        let mut wire = CommandEncoder::new();
        let mut short = CommandEncoder::new();
        for i in 0..50 {
            let c = control(-4.0 + 0.173 * i as f64, -2.0 + 0.083 * i as f64);
            let frames = wire.encode(&c).unwrap();
            let decoded = wire.decode_actuators(&frames, CarControl::default());
            let quantized = short.quantize_cycle(&c).unwrap();
            assert_eq!(decoded, quantized.command, "cycle {i}");
            let counters = frames
                .iter()
                .map(|f| (f.data()[f.data().len() - 1] >> 4) & 0x3);
            assert!(counters.eq(quantized.counters), "cycle {i}");
        }
        // Counters stayed in lockstep across 50 shortcut cycles.
        let c = control(1.0, 0.1);
        assert_eq!(wire.encode(&c).unwrap(), short.encode(&c).unwrap());
    }

    /// The name-lookup codec the resolved layouts replaced: frames via
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
            if let Ok(v) = canbus::decode_signal(spec, f, name) {
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
    fn resolved_layouts_match_the_codec_by_name() {
        let dbc = VirtualCarDbc::new();
        let mut by_name = canbus::Encoder::new();
        let mut enc = CommandEncoder::new();
        let mut rng = 0x5EED_u64;
        for i in 0..400 {
            let c = control(-4.0 + 0.0163 * i as f64, -0.5 + 0.0025 * i as f64);
            let mut frames = enc.encode(&c).unwrap();
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
