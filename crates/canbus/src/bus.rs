//! The virtual CAN bus: a per-tick frame queue with a man-in-the-middle
//! interceptor hook and an optional traffic capture.

use units::Tick;

use crate::CanFrame;

/// A man-in-the-middle transform applied to every frame in transmission
/// order. This is the paper's injection point: malware sitting between the
/// ADAS process and the actuator interface (e.g. on the OBD-II path after the
/// safety firmware) that can observe and rewrite frames.
pub trait Interceptor: Send {
    /// Observes a frame in flight and returns the frame to deliver instead.
    /// Return the input unchanged to stay passive.
    fn intercept(&mut self, tick: Tick, frame: CanFrame) -> CanFrame;
}

impl<F> Interceptor for F
where
    F: FnMut(Tick, CanFrame) -> CanFrame + Send,
{
    fn intercept(&mut self, tick: Tick, frame: CanFrame) -> CanFrame {
        self(tick, frame)
    }
}

/// Aggregate bus statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Frames submitted by senders.
    pub sent: u64,
    /// Frames whose bits were changed by an interceptor.
    pub tampered: u64,
}

/// A single-segment CAN bus.
///
/// Frames sent within one tick are delivered in arbitration order (lower id
/// first, FIFO among equal ids) when [`CanBus::deliver`] is called.
///
/// # Examples
///
/// ```
/// use canbus::{CanBus, CanFrame};
/// use units::Tick;
///
/// let mut bus = CanBus::new();
/// bus.send(Tick::ZERO, CanFrame::new(0x200, &[0x01])?);
/// bus.send(Tick::ZERO, CanFrame::new(0xE4, &[0x02])?);
/// let delivered = bus.deliver(Tick::ZERO);
/// // Steering (0xE4) wins arbitration over gas (0x200).
/// assert_eq!(delivered[0].id(), 0xE4);
/// # Ok::<(), canbus::CanError>(())
/// ```
#[derive(Default)]
pub struct CanBus {
    pending: Vec<CanFrame>,
    interceptors: Vec<Box<dyn Interceptor>>,
    capture: Option<Capture>,
    stats: BusStats,
}

impl std::fmt::Debug for CanBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CanBus")
            .field("pending", &self.pending.len())
            .field("interceptors", &self.interceptors.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl CanBus {
    /// Creates an empty bus with no interceptors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a man-in-the-middle interceptor. Interceptors run in
    /// installation order on every subsequent frame.
    pub fn install_interceptor(&mut self, interceptor: Box<dyn Interceptor>) {
        self.interceptors.push(interceptor);
    }

    /// Starts capturing delivered traffic (candump-style).
    pub fn enable_capture(&mut self) {
        if self.capture.is_none() {
            self.capture = Some(Capture::new());
        }
    }

    /// Stops capturing and returns the capture, if one was running.
    pub fn take_capture(&mut self) -> Option<Capture> {
        self.capture.take()
    }

    /// Submits a frame for transmission at the given tick. Interceptors run
    /// immediately, in order.
    pub fn send(&mut self, tick: Tick, frame: CanFrame) {
        self.stats.sent += 1;
        let mut current = frame;
        for mitm in &mut self.interceptors {
            let out = mitm.intercept(tick, current);
            if out != current {
                self.stats.tampered += 1;
            }
            current = out;
        }
        self.pending.push(current);
    }

    /// Delivers all pending frames in arbitration order (lowest id first,
    /// stable among equal ids) and clears the queue.
    pub fn deliver(&mut self, tick: Tick) -> Vec<CanFrame> {
        self.pending.sort_by_key(CanFrame::id);
        let frames = std::mem::take(&mut self.pending);
        if let Some(capture) = self.capture.as_mut() {
            for f in &frames {
                capture.log_frame(tick, f);
            }
        }
        frames
    }

    /// Aggregate statistics since construction.
    pub fn stats(&self) -> BusStats {
        self.stats
    }
}

/// A compact binary capture of bus traffic, one record per delivered frame:
/// `tick (u64) | id (u16) | dlc (u8) | data (dlc bytes)`.
///
/// This is the raw material for the attacker's offline reverse-engineering
/// step: decoding it against candidate DBCs recovers message ids and value
/// ranges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Capture {
    buf: Vec<u8>,
    frames: usize,
}

impl Capture {
    /// Creates an empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one frame observation. (Named `log_frame`, not `record`:
    /// adas-lint's call graph joins methods by name, and `record` is the
    /// flight recorder's per-tick entry.)
    pub fn log_frame(&mut self, tick: Tick, frame: &CanFrame) {
        self.buf.extend_from_slice(&tick.index().to_be_bytes());
        self.buf.extend_from_slice(&frame.id().to_be_bytes());
        self.buf.push(frame.dlc());
        self.buf.extend_from_slice(frame.data());
        self.frames += 1;
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// The capture's bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Parses a capture back into `(tick, frame)` records. Truncated or
    /// malformed records terminate the parse rather than panicking.
    pub fn parse(bytes: &[u8]) -> Vec<(Tick, CanFrame)> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while let Some(tick_bytes) = bytes
            .get(i..i + 8)
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
        {
            let Some(id_bytes) = bytes
                .get(i + 8..i + 10)
                .and_then(|s| <[u8; 2]>::try_from(s).ok())
            else {
                break;
            };
            let Some(&dlc_byte) = bytes.get(i + 10) else {
                break;
            };
            let tick = u64::from_be_bytes(tick_bytes);
            let id = u16::from_be_bytes(id_bytes);
            let dlc = dlc_byte as usize;
            i += 11;
            let Some(payload) = bytes.get(i..i + dlc) else {
                break;
            };
            if let Ok(frame) = CanFrame::new(id, payload) {
                out.push((Tick::new(tick), frame));
            }
            i += dlc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u16, byte: u8) -> CanFrame {
        CanFrame::new(id, &[byte, 0, 0, 0, 0, 0]).unwrap()
    }

    #[test]
    fn arbitration_orders_by_id() {
        let mut bus = CanBus::new();
        bus.send(Tick::ZERO, frame(0x200, 1));
        bus.send(Tick::ZERO, frame(0xE4, 2));
        bus.send(Tick::ZERO, frame(0x1FA, 3));
        let ids: Vec<u16> = bus.deliver(Tick::ZERO).iter().map(CanFrame::id).collect();
        assert_eq!(ids, vec![0xE4, 0x1FA, 0x200]);
    }

    #[test]
    fn equal_ids_stay_fifo() {
        let mut bus = CanBus::new();
        bus.send(Tick::ZERO, frame(0xE4, 1));
        bus.send(Tick::ZERO, frame(0xE4, 2));
        let frames = bus.deliver(Tick::ZERO);
        assert_eq!(frames[0].data()[0], 1);
        assert_eq!(frames[1].data()[0], 2);
    }

    #[test]
    fn deliver_clears_queue() {
        let mut bus = CanBus::new();
        bus.send(Tick::ZERO, frame(0xE4, 1));
        assert_eq!(bus.deliver(Tick::ZERO).len(), 1);
        assert!(bus.deliver(Tick::ZERO).is_empty());
    }

    #[test]
    fn interceptor_rewrites_frames_and_counts_tampering() {
        let mut bus = CanBus::new();
        bus.install_interceptor(Box::new(|_tick: Tick, mut f: CanFrame| {
            if f.id() == 0xE4 {
                f.data_mut()[0] = 0xFF;
            }
            f
        }));
        bus.send(Tick::ZERO, frame(0xE4, 1));
        bus.send(Tick::ZERO, frame(0x200, 1));
        let frames = bus.deliver(Tick::ZERO);
        assert_eq!(frames[0].data()[0], 0xFF, "targeted frame rewritten");
        assert_eq!(frames[1].data()[0], 1, "other traffic untouched");
        assert_eq!(
            bus.stats(),
            BusStats {
                sent: 2,
                tampered: 1
            }
        );
    }

    #[test]
    fn interceptors_chain_in_install_order() {
        let mut bus = CanBus::new();
        bus.install_interceptor(Box::new(|_t: Tick, mut f: CanFrame| {
            f.data_mut()[0] += 1;
            f
        }));
        bus.install_interceptor(Box::new(|_t: Tick, mut f: CanFrame| {
            f.data_mut()[0] *= 2;
            f
        }));
        bus.send(Tick::ZERO, frame(0x10, 3));
        assert_eq!(bus.deliver(Tick::ZERO)[0].data()[0], 8, "(3+1)*2");
    }

    #[test]
    fn capture_round_trips() {
        let mut bus = CanBus::new();
        bus.enable_capture();
        bus.send(Tick::new(5), frame(0xE4, 0xAB));
        bus.send(Tick::new(5), frame(0x1D0, 0xCD));
        bus.deliver(Tick::new(5));
        let capture = bus.take_capture().unwrap();
        assert_eq!(capture.len(), 2);
        let bytes = capture.into_bytes();
        let records = Capture::parse(&bytes);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, Tick::new(5));
        assert_eq!(records[0].1.id(), 0xE4);
        assert_eq!(records[0].1.data()[0], 0xAB);
    }

    #[test]
    fn parse_tolerates_truncation() {
        let mut c = Capture::new();
        c.log_frame(Tick::ZERO, &frame(0xE4, 1));
        let bytes = c.into_bytes();
        assert!(Capture::parse(&bytes[..bytes.len() - 3]).is_empty());
    }
}
