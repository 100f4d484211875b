//! A structure-of-arrays column of ADAS instances for lockstep batching.
//!
//! Each lane is a full scalar [`Adas`] fed directly through
//! [`Adas::step_with`], so the ingestion and control math per lane is the
//! scalar code path, bit for bit. Batching is in the iteration order: one
//! tight loop runs the whole control stage across every lane before the
//! caller moves to the next stage, keeping the controller code and its
//! state columns hot.

use msgbus::schema::{CarControl, GpsLocation, LaneModel, RadarState, SensorFeed};
use units::{Speed, Tick};

use crate::{Adas, AdasOutput};

/// A column of per-lane ADAS instances with batched stepping.
#[derive(Debug, Default)]
pub struct AdasColumn {
    lanes: Vec<Adas>,
}

impl AdasColumn {
    /// An empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an ungated lane engaged at the given cruise set-speed.
    pub fn admit(&mut self, v_cruise: Speed) {
        self.lanes.push(Adas::direct(v_cruise, None));
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the column holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// One lane, for per-lane queries (FCW totals, gate rejections).
    pub fn get(&self, lane: usize) -> Option<&Adas> {
        self.lanes.get(lane)
    }

    /// Disengages one lane (its driver took over).
    pub fn disengage(&mut self, lane: usize) {
        if let Some(adas) = self.lanes.get_mut(lane) {
            adas.disengage();
        }
    }

    /// Runs the control stage across every live lane: each ingests this
    /// tick's samples of its sensor columns, all fresh, through
    /// [`Adas::step_with`], writing its output and its quantized command
    /// back into the lane-indexed columns. Lanes with `encode` set
    /// materialize real actuator frames (their traffic is inspected in
    /// flight); the rest advance their rolling counters and report the
    /// quantized command instead.
    #[allow(clippy::too_many_arguments)] // lane-indexed SoA columns, one per stream
    pub fn step_batch(
        &mut self,
        tick: Tick,
        gps: &[GpsLocation],
        lanes: &[LaneModel],
        radars: &[RadarState],
        encode: &[bool],
        live: &[bool],
        outs: &mut [AdasOutput],
        quantized: &mut [Option<CarControl>],
    ) {
        let it = self
            .lanes
            .iter_mut()
            .zip(gps)
            .zip(lanes)
            .zip(radars)
            .zip(encode)
            .zip(live)
            .zip(outs)
            .zip(quantized);
        for (((((((adas, gps), lane), radar), encode), live), out), quantized) in it {
            if *live {
                let feed = SensorFeed {
                    gps: Some((tick, *gps)),
                    lane: Some((tick, *lane)),
                    radar: Some((tick, *radar)),
                };
                *quantized = adas.step_with(tick, &feed, *encode, out);
            }
        }
    }
}
