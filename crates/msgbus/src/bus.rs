//! The in-process publisher/subscriber bus.
//!
//! # Fan-out design
//!
//! Each [`Subscriber`] owns one queue. [`Bus::publish`] clones the
//! [`Envelope`] into every queue whose topic filter matches, and
//! [`Subscriber::drain_into`] moves a queue's messages into the caller's
//! buffer. A queue keeps its capacity across drains, so a subscriber that
//! is drained every tick stops allocating once its queue and the caller's
//! buffer have grown to one tick's traffic.
//!
//! Why not a shared broadcast ring with a read cursor per subscriber: it
//! defers the clone to drain time, but every subscriber here drains every
//! tick, so it clones as often as the queues do and adds cursors and
//! eviction. An unobserved tick never publishes, so only traced runs,
//! tests and examples pay for either.
//!
//! Every lock acquisition recovers from poisoning with
//! [`PoisonError::into_inner`]: no guard is held across code that can
//! panic, so a poisoned bus is still structurally consistent, and one
//! campaign worker dying mid-publish must not take the bus down for every
//! later user of it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use units::Tick;

use crate::{Envelope, Payload, Topic};

/// Maximum number of undrained messages a subscriber's queue holds before
/// the oldest are discarded for it. Mirrors Cereal/ZMQ's conflate-or-drop
/// behaviour and bounds per-subscriber backlog in long campaigns.
const SUBSCRIBER_QUEUE_CAP: usize = 4_096;

// The topic-filter bitmask below holds one bit per topic.
const _: () = assert!(Topic::COUNT <= 64, "TopicMask is a u64 bitmask");

/// One bit per topic, for O(1) subscription filtering without a `Vec` walk.
fn topic_bit(topic: Topic) -> u64 {
    // `Topic::index` is dense and `< Topic::COUNT <= 64` (asserted above).
    1u64 << (topic.index() as u32 % 64)
}

/// One subscriber's undrained messages.
#[derive(Debug)]
struct Queue {
    /// Bitmask of subscribed topics (see [`topic_bit`]).
    mask: u64,
    /// Matching messages in publication order, at most
    /// [`SUBSCRIBER_QUEUE_CAP`].
    messages: VecDeque<Envelope>,
    /// Messages discarded because the queue was full.
    dropped: u64,
}

#[derive(Debug, Default)]
struct BusInner {
    /// Next sequence number to assign.
    seq: u64,
    /// One slot per subscriber ever registered, indexed by
    /// `Subscriber::id`; a dropped handle leaves `None`.
    queues: Vec<Option<Queue>>,
    published_by_topic: [u64; Topic::COUNT],
}

/// The state every clone of a bus and every subscriber handle shares.
#[derive(Debug, Default)]
struct Shared {
    bus_state: Mutex<BusInner>,
    /// Live subscriber handles, kept beside the lock so a publisher can
    /// ask whether anyone listens without taking it. Updated under the
    /// lock; read `Relaxed`, since the count publishes no other data — a
    /// subscriber's queue is only ever read through the lock.
    subscribers: AtomicUsize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, BusInner> {
        self.bus_state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The message bus. Cloning is cheap and all clones address the same bus.
///
/// Anyone holding a bus handle may subscribe to any topic — there is no
/// authentication, just like Cereal. This is the eavesdropping surface the
/// paper's attack exploits (§III-C).
///
/// # Examples
///
/// ```
/// use msgbus::{Bus, Topic, Payload};
/// use msgbus::schema::CarControl;
/// use units::Tick;
///
/// let bus = Bus::new();
/// let mut sub = bus.subscribe(&[Topic::CarControl]);
/// bus.publish(Tick::ZERO, Payload::CarControl(CarControl::default()));
/// assert_eq!(sub.drain().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bus {
    inner: Arc<Shared>,
}

impl Bus {
    /// Creates a new, empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber for the given topics.
    ///
    /// Messages published after this call are queued for the subscriber;
    /// earlier traffic is not replayed.
    pub fn subscribe(&self, topics: &[Topic]) -> Subscriber {
        let mut inner = self.inner.lock();
        self.inner.subscribers.fetch_add(1, Ordering::Relaxed);
        let mask = topics.iter().fold(0u64, |m, &t| m | topic_bit(t));
        // adas-lint: allow(R14, reason = "subscriber registration at wiring time — the lock provides exclusivity, not a parallel result merge; subscription order is single-threaded program order")
        inner.queues.push(Some(Queue {
            mask,
            messages: VecDeque::new(),
            dropped: 0,
        }));
        Subscriber {
            inner: Arc::clone(&self.inner),
            id: inner.queues.len().saturating_sub(1),
        }
    }

    /// Publishes a payload, delivering it to every matching subscriber.
    ///
    /// Cost model: one `Envelope` clone per matching subscriber. A full
    /// queue first discards its oldest message and counts it as dropped.
    ///
    /// Returns the bus-wide sequence number assigned to the message.
    pub fn publish(&self, tick: Tick, payload: Payload) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.seq;
        inner.seq += 1;
        let env = Envelope::new(seq, tick, payload);
        let topic = env.topic();
        if let Some(count) = inner.published_by_topic.get_mut(topic.index()) {
            *count += 1;
        }
        let bit = topic_bit(topic);
        for queue in inner.queues.iter_mut().flatten() {
            if queue.mask & bit == 0 {
                continue;
            }
            if queue.messages.len() >= SUBSCRIBER_QUEUE_CAP {
                queue.messages.pop_front();
                queue.dropped += 1;
            }
            // adas-lint: allow(R13, reason = "bounded queue — push_back grows only to the high-water capacity during warm-up, then drains and the drop-oldest cap recycle slots; witnessed by the counting-allocator gate")
            queue.messages.push_back(env.clone());
        }
        seq
    }

    /// Number of messages published so far.
    pub fn published_count(&self) -> u64 {
        self.inner.lock().seq
    }

    /// Cumulative publish counts, indexed by [`Topic::index`].
    ///
    /// This is the bus-side envelope accounting the platform's flight
    /// recorder snapshots every tick; it is maintained unconditionally
    /// because the cost (one array increment per publish) is negligible.
    pub fn published_by_topic(&self) -> [u64; Topic::COUNT] {
        self.inner.lock().published_by_topic
    }

    /// Whether any live subscriber listens, read without taking the lock —
    /// cheap enough for a publisher to ask every tick before paying for
    /// traffic no one would read.
    pub fn has_subscribers(&self) -> bool {
        self.inner.subscribers.load(Ordering::Relaxed) > 0
    }
}

/// A receive handle returned by [`Bus::subscribe`].
///
/// Dropping the handle unregisters the subscription and frees its queue.
#[derive(Debug)]
pub struct Subscriber {
    inner: Arc<Shared>,
    id: usize,
}

impl Subscriber {
    /// Removes and returns all queued messages, in publication order.
    ///
    /// Allocates a fresh `Vec` per call; hot loops should hold a buffer and
    /// use [`Subscriber::drain_into`] instead.
    pub fn drain(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Clears `buf` and fills it with all queued messages, in publication
    /// order, returning how many were drained.
    ///
    /// The buffer's capacity is reused across calls, so a subscriber that is
    /// drained every tick into the same buffer allocates only until the
    /// buffer has grown to the steady-state message rate.
    pub fn drain_into(&mut self, buf: &mut Vec<Envelope>) -> usize {
        buf.clear();
        let mut inner = self.inner.lock();
        if let Some(Some(queue)) = inner.queues.get_mut(self.id) {
            // Spelled as a path: adas-lint joins methods by name, so a
            // `.drain(..)` here would read as a call to `Subscriber::drain`,
            // which takes this lock again (an R12 cycle `inner → inner`).
            // adas-lint: allow(R14, reason = "per-subscriber FIFO drain into the caller's own buffer — order is publication order fixed by the queue, not completion order")
            buf.extend(VecDeque::drain(&mut queue.messages, ..));
        }
        buf.len()
    }

    /// Number of messages discarded because the subscriber's queue
    /// overflowed [`SUBSCRIBER_QUEUE_CAP`].
    pub fn dropped(&self) -> u64 {
        self.inner
            .lock()
            .queues
            .get(self.id)
            .and_then(Option::as_ref)
            .map_or(0, |q| q.dropped)
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        let mut inner = self.inner.lock();
        self.inner.subscribers.fetch_sub(1, Ordering::Relaxed);
        if let Some(slot) = inner.queues.get_mut(self.id) {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CarControl, CarState, GpsLocation, RadarState};
    use units::{Accel, Angle};

    fn gps() -> Payload {
        Payload::GpsLocationExternal(GpsLocation::default())
    }

    #[test]
    fn delivery_is_topic_filtered() {
        let bus = Bus::new();
        let mut gps_sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        let mut radar_sub = bus.subscribe(&[Topic::RadarState]);

        bus.publish(Tick::ZERO, gps());
        bus.publish(Tick::ZERO, Payload::RadarState(RadarState::default()));

        assert_eq!(gps_sub.drain().len(), 1);
        assert_eq!(radar_sub.drain().len(), 1);
    }

    #[test]
    fn multi_topic_subscription_receives_all() {
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal, Topic::CarState]);
        bus.publish(Tick::ZERO, gps());
        bus.publish(Tick::new(1), Payload::CarState(CarState::default()));
        let msgs = sub.drain();
        assert_eq!(msgs.len(), 2);
        assert!(msgs[0].seq() < msgs[1].seq(), "publication order preserved");
    }

    #[test]
    fn subscribers_do_not_steal_from_each_other() {
        let bus = Bus::new();
        let mut a = bus.subscribe(&[Topic::CarControl]);
        let mut b = bus.subscribe(&[Topic::CarControl]);
        bus.publish(
            Tick::ZERO,
            Payload::CarControl(CarControl {
                accel: Accel::from_mps2(1.0),
                steer: Angle::ZERO,
            }),
        );
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 1, "fan-out, not work-stealing");
    }

    #[test]
    fn no_replay_for_late_subscribers() {
        let bus = Bus::new();
        bus.publish(Tick::ZERO, gps());
        let mut late = bus.subscribe(&[Topic::GpsLocationExternal]);
        assert_eq!(late.drain().len(), 0);
    }

    #[test]
    fn queue_overflow_drops_oldest() {
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        for i in 0..(SUBSCRIBER_QUEUE_CAP as u64 + 10) {
            bus.publish(Tick::new(i), gps());
        }
        assert_eq!(sub.dropped(), 10);
        let msgs = sub.drain();
        assert_eq!(msgs.len(), SUBSCRIBER_QUEUE_CAP);
        // The 10 oldest were discarded.
        assert_eq!(msgs[0].tick(), Tick::new(10));
    }

    #[test]
    fn overflow_bookkeeping_counts_only_matching_messages() {
        // Interleave a foreign topic: drops must count only the subscribed
        // stream.
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        let mut all = bus.subscribe(&[Topic::GpsLocationExternal, Topic::CarState]);
        for i in 0..(SUBSCRIBER_QUEUE_CAP as u64 + 5) {
            bus.publish(Tick::new(i), gps());
            bus.publish(Tick::new(i), Payload::CarState(CarState::default()));
        }
        assert_eq!(sub.dropped(), 5);
        let msgs = sub.drain();
        assert_eq!(msgs.len(), SUBSCRIBER_QUEUE_CAP);
        assert_eq!(msgs[0].tick(), Tick::new(5), "5 oldest GPS dropped");
        assert!(msgs.iter().all(|m| m.topic() == Topic::GpsLocationExternal));
        // The two-topic subscriber saw twice the traffic, so it dropped
        // all but one queue's worth and retains an interleaved window
        // ending at the latest message.
        assert_eq!(all.dropped(), SUBSCRIBER_QUEUE_CAP as u64 + 10);
        let msgs = all.drain();
        assert_eq!(msgs.len(), SUBSCRIBER_QUEUE_CAP);
        assert!(msgs.windows(2).all(|p| p[0].seq() < p[1].seq()));
        assert_eq!(
            msgs.last().map(Envelope::seq),
            Some(bus.published_count() - 1)
        );
    }

    #[test]
    fn drain_into_reuses_the_buffer_and_clears_stale_contents() {
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        let mut buf = Vec::new();
        bus.publish(Tick::ZERO, gps());
        bus.publish(Tick::new(1), gps());
        assert_eq!(sub.drain_into(&mut buf), 2);
        let cap = buf.capacity();
        // Next tick: fewer messages; stale contents must not survive.
        bus.publish(Tick::new(2), gps());
        assert_eq!(sub.drain_into(&mut buf), 1);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].tick(), Tick::new(2));
        assert_eq!(buf.capacity(), cap, "capacity is reused, not reallocated");
        // Empty drain leaves an empty buffer.
        assert_eq!(sub.drain_into(&mut buf), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn dropping_a_subscriber_releases_its_backlog() {
        let bus = Bus::new();
        let lazy = bus.subscribe(&[Topic::GpsLocationExternal]);
        for i in 0..50 {
            bus.publish(Tick::new(i), gps());
        }
        assert!(bus.has_subscribers());
        drop(lazy);
        assert!(!bus.has_subscribers());
        let mut later = bus.subscribe(&[Topic::GpsLocationExternal]);
        assert_eq!(later.drain().len(), 0, "the dropped backlog is gone");
        assert_eq!(later.dropped(), 0);
    }

    #[test]
    fn counters() {
        let bus = Bus::new();
        assert_eq!(bus.published_count(), 0);
        let _sub = bus.subscribe(&[Topic::ModelV2]);
        bus.publish(Tick::ZERO, gps());
        assert_eq!(bus.published_count(), 1);
    }

    #[test]
    fn per_topic_counters_track_each_stream() {
        let bus = Bus::new();
        bus.publish(Tick::ZERO, gps());
        bus.publish(Tick::ZERO, gps());
        bus.publish(Tick::new(1), Payload::CarState(CarState::default()));
        let counts = bus.published_by_topic();
        assert_eq!(counts[Topic::GpsLocationExternal.index()], 2);
        assert_eq!(counts[Topic::CarState.index()], 1);
        assert_eq!(counts.iter().sum::<u64>(), bus.published_count());
    }

    #[test]
    fn clones_share_state() {
        let bus = Bus::new();
        let bus2 = bus.clone();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        bus2.publish(Tick::ZERO, gps());
        assert_eq!(sub.drain().len(), 1);
    }

    #[test]
    fn a_panicking_holder_does_not_poison_the_bus() {
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        let shared = Arc::clone(&bus.inner);
        let _ = std::thread::spawn(move || {
            let _guard = shared.lock();
            panic!("worker dies holding the bus lock");
        })
        .join();
        bus.publish(Tick::ZERO, gps());
        assert_eq!(sub.drain().len(), 1, "the bus keeps working");
    }

    #[test]
    fn concurrent_publish_is_safe() {
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let bus = bus.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        bus.publish(Tick::new(i), gps());
                    }
                });
            }
        });
        assert_eq!(bus.published_count(), 400);
        let msgs = sub.drain();
        assert_eq!(msgs.len(), 400);
        // Sequence numbers are unique and strictly increasing in queue order.
        for pair in msgs.windows(2) {
            assert!(pair[0].seq() < pair[1].seq());
        }
    }

    #[test]
    fn concurrent_drain_while_publishing_loses_nothing() {
        // A reader draining mid-stream must see every message exactly once
        // across its drains, in order.
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        let mut seen = Vec::new();
        std::thread::scope(|s| {
            let writer = bus.clone();
            s.spawn(move || {
                for i in 0..500 {
                    writer.publish(Tick::new(i), gps());
                }
            });
            let mut buf = Vec::new();
            loop {
                sub.drain_into(&mut buf);
                seen.extend(buf.iter().map(Envelope::seq));
                if seen.len() >= 500 {
                    break;
                }
                std::thread::yield_now();
            }
        });
        assert_eq!(seen.len(), 500);
        for pair in seen.windows(2) {
            assert!(pair[0] < pair[1], "strictly increasing, no dup or loss");
        }
    }
}
