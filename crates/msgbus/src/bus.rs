//! The in-process publisher/subscriber bus.
//!
//! # Fan-out design
//!
//! Delivery is a cursor-based broadcast ring, not a queue-per-subscriber:
//! every published [`Envelope`] is appended **once** to a shared ring and
//! each [`Subscriber`] holds a read cursor into it. `publish` therefore
//! performs zero payload clones regardless of how many subscribers match —
//! the clone happens lazily, per message actually read, inside
//! [`Subscriber::drain_into`]. Slots are reclaimed as soon as every live
//! subscriber's cursor has moved past them, so in lock-step operation (all
//! subscribers drained every tick) the ring stays a handful of messages
//! long and steady-state publishing allocates nothing.
//!
//! Every lock acquisition recovers from poisoning with
//! [`PoisonError::into_inner`]: no guard is held across code that can
//! panic, so a poisoned ring is still structurally consistent, and one
//! campaign worker dying mid-publish must not take the bus down for every
//! later user of it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use units::Tick;

use crate::{Envelope, MessageLog, Payload, Topic};

/// Maximum number of undrained *matching* messages a subscriber may lag
/// behind the head before the oldest are discarded for it. Mirrors
/// Cereal/ZMQ's conflate-or-drop behaviour and bounds per-subscriber backlog
/// in long campaigns; the bookkeeping (drop-oldest, per-subscriber dropped
/// counter) is identical to the historical queue-per-subscriber design.
const SUBSCRIBER_QUEUE_CAP: usize = 4_096;

// The topic-filter bitmask below holds one bit per topic.
const _: () = assert!(Topic::COUNT <= 64, "TopicMask is a u64 bitmask");

/// One bit per topic, for O(1) subscription filtering without a `Vec` walk.
fn topic_bit(topic: Topic) -> u64 {
    // `Topic::index` is dense and `< Topic::COUNT <= 64` (asserted above).
    1u64 << (topic.index() as u32 % 64)
}

/// Per-subscriber read state over the shared ring.
#[derive(Debug)]
struct SubState {
    /// Bitmask of subscribed topics (see [`topic_bit`]).
    mask: u64,
    /// Sequence number of the next message this subscriber will examine.
    /// Normalised to the bus head whenever nothing matching is pending, so
    /// ring eviction is never held up by an idle subscriber.
    cursor: u64,
    /// Matching, undrained messages in `[cursor, head)`.
    pending: usize,
    /// Matching messages discarded because the subscriber lagged past
    /// [`SUBSCRIBER_QUEUE_CAP`].
    dropped: u64,
    /// Set when the `Subscriber` handle is dropped; a closed entry neither
    /// receives messages nor holds up eviction.
    closed: bool,
}

impl SubState {
    fn matches(&self, bit: u64) -> bool {
        self.mask & bit != 0
    }
}

#[derive(Debug, Default)]
struct BusInner {
    /// The shared broadcast ring. Invariant: element `i` carries sequence
    /// number `front_seq + i`, and when the ring is empty
    /// `front_seq == seq`.
    ring: VecDeque<Envelope>,
    /// Sequence number of `ring.front()`.
    front_seq: u64,
    /// Next sequence number to assign (the bus head).
    seq: u64,
    subs: Vec<SubState>,
    log: Option<MessageLog>,
    published_by_topic: [u64; Topic::COUNT],
}

impl BusInner {
    /// Pops every ring slot all live subscribers have read past.
    fn evict(&mut self) {
        let min_cursor = self
            .subs
            .iter()
            .filter(|s| !s.closed)
            .map(|s| s.cursor)
            .min()
            .unwrap_or(self.seq);
        while self.front_seq < min_cursor && self.ring.pop_front().is_some() {
            self.front_seq += 1;
        }
    }
}

/// Advances `sub` past its oldest pending matching message, counting it as
/// dropped — the conflate-or-drop step when the subscriber exceeds
/// [`SUBSCRIBER_QUEUE_CAP`].
fn drop_oldest(ring: &VecDeque<Envelope>, front_seq: u64, sub: &mut SubState) {
    let start = sub.cursor.saturating_sub(front_seq) as usize;
    for (off, env) in ring.iter().enumerate().skip(start) {
        if sub.matches(topic_bit(env.topic())) {
            sub.dropped += 1;
            sub.pending = sub.pending.saturating_sub(1);
            sub.cursor = front_seq + off as u64 + 1;
            return;
        }
    }
    // Defensive: `pending` said something matched but nothing did; resync.
    sub.pending = 0;
    sub.cursor = front_seq + ring.len() as u64;
}

/// The state every clone of a bus and every subscriber handle shares.
#[derive(Debug, Default)]
struct Shared {
    bus_state: Mutex<BusInner>,
    /// Live subscriber handles, kept beside the lock so a publisher can
    /// ask whether anyone listens without taking it. Updated under the
    /// lock; read `Relaxed`, since the count publishes no other data — a
    /// subscriber's ring state is only ever read through the lock.
    subscribers: AtomicUsize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, BusInner> {
        self.bus_state.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// earlier traffic is not replayed (use [`Bus::enable_logging`] to
    /// capture history).
    pub fn subscribe(&self, topics: &[Topic]) -> Subscriber {
        let mut inner = self.inner.lock();
        self.inner.subscribers.fetch_add(1, Ordering::Relaxed);
        let mask = topics.iter().fold(0u64, |m, &t| m | topic_bit(t));
        let cursor = inner.seq;
        // adas-lint: allow(R14, reason = "subscriber registration at wiring time — the lock provides exclusivity, not a parallel result merge; subscription order is single-threaded program order")
        inner.subs.push(SubState {
            mask,
            cursor,
            pending: 0,
            dropped: 0,
            closed: false,
        });
        Subscriber {
            inner: Arc::clone(&self.inner),
            id: inner.subs.len().saturating_sub(1),
        }
    }

    /// Publishes a payload, delivering it to every matching subscriber.
    ///
    /// Cost model: one ring append and one cursor update per subscriber —
    /// **zero** `Envelope` clones regardless of subscriber count (the only
    /// clone happens when [`Bus::enable_logging`] is active). Subscribers
    /// copy a message out of the ring only when they drain it.
    ///
    /// Returns the bus-wide sequence number assigned to the message.
    pub fn publish(&self, tick: Tick, payload: Payload) -> u64 {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let seq = inner.seq;
        inner.seq += 1;
        let head = inner.seq;
        let env = Envelope::new(seq, tick, payload);
        if let Some(log) = inner.log.as_mut() {
            log.record(env.clone());
        }
        let topic = env.topic();
        if let Some(count) = inner.published_by_topic.get_mut(topic.index()) {
            *count += 1;
        }
        let bit = topic_bit(topic);
        let mut overflowed = false;
        for sub in inner.subs.iter_mut().filter(|s| !s.closed) {
            if sub.matches(bit) {
                if sub.pending == 0 {
                    sub.cursor = seq;
                }
                sub.pending += 1;
                overflowed |= sub.pending > SUBSCRIBER_QUEUE_CAP;
            } else if sub.pending == 0 {
                // Nothing pending for this subscriber between its cursor and
                // the head: advance it past the new message so it never
                // pins the ring.
                sub.cursor = head;
            }
        }
        // adas-lint: allow(R13, reason = "bounded ring — push_back grows only to the high-water capacity during warm-up, then the drop-oldest policy recycles slots; witnessed by the counting-allocator gate")
        inner.ring.push_back(env);
        if overflowed {
            let BusInner {
                ring,
                front_seq,
                subs,
                ..
            } = inner;
            for sub in subs
                .iter_mut()
                .filter(|s| !s.closed && s.pending > SUBSCRIBER_QUEUE_CAP)
            {
                drop_oldest(ring, *front_seq, sub);
            }
        }
        inner.evict();
        seq
    }

    /// Starts recording every published message into an internal
    /// [`MessageLog`].
    pub fn enable_logging(&self) {
        let mut inner = self.inner.lock();
        if inner.log.is_none() {
            inner.log = Some(MessageLog::new());
        }
    }

    /// Stops logging and returns the captured log, if logging was enabled.
    pub fn take_log(&self) -> Option<MessageLog> {
        self.inner.lock().log.take()
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

    /// Number of live (undropped) subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().subs.iter().filter(|s| !s.closed).count()
    }

    /// Whether any live subscriber listens, read without taking the lock —
    /// cheap enough for a publisher to ask every tick before paying for
    /// traffic no one would read.
    pub fn has_subscribers(&self) -> bool {
        self.inner.subscribers.load(Ordering::Relaxed) > 0
    }

    /// Number of messages currently retained in the shared ring — the
    /// high-water mark every undrained subscriber contributes to. Exposed
    /// for tests and capacity diagnostics.
    pub fn ring_len(&self) -> usize {
        self.inner.lock().ring.len()
    }
}

/// A receive handle returned by [`Bus::subscribe`].
///
/// Dropping the handle unregisters the subscription, releasing any ring
/// slots it was holding.
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
    /// buffer has grown to the steady-state message rate — after that the
    /// drain path is allocation-free apart from non-`Copy` payload clones
    /// (and every payload on the sensor/control topics is plain data).
    pub fn drain_into(&mut self, buf: &mut Vec<Envelope>) -> usize {
        buf.clear();
        let mut guard = self.inner.lock();
        let BusInner {
            ring,
            front_seq,
            seq,
            subs,
            ..
        } = &mut *guard;
        let head = *seq;
        if let Some(sub) = subs.get_mut(self.id) {
            if sub.pending > 0 {
                let start = sub.cursor.saturating_sub(*front_seq) as usize;
                for env in ring.iter().skip(start) {
                    if sub.matches(topic_bit(env.topic())) {
                        // adas-lint: allow(R14, reason = "per-subscriber FIFO drain into the caller's own buffer — order is publication order fixed by the ring, not completion order")
                        buf.push(env.clone());
                    }
                }
            }
            sub.pending = 0;
            sub.cursor = head;
        }
        guard.evict();
        buf.len()
    }

    /// Removes and returns the oldest queued message, if any.
    pub fn try_recv(&mut self) -> Option<Envelope> {
        let mut guard = self.inner.lock();
        let BusInner {
            ring,
            front_seq,
            seq,
            subs,
            ..
        } = &mut *guard;
        let head = *seq;
        let mut found = None;
        if let Some(sub) = subs.get_mut(self.id) {
            if sub.pending > 0 {
                let start = sub.cursor.saturating_sub(*front_seq) as usize;
                for (off, env) in ring.iter().enumerate().skip(start) {
                    if sub.matches(topic_bit(env.topic())) {
                        found = Some(env.clone());
                        sub.pending = sub.pending.saturating_sub(1);
                        sub.cursor = *front_seq + off as u64 + 1;
                        break;
                    }
                }
            }
            if sub.pending == 0 {
                sub.cursor = head;
            }
        }
        guard.evict();
        found
    }

    /// Number of messages waiting to be drained.
    pub fn pending(&self) -> usize {
        self.inner
            .lock()
            .subs
            .get(self.id)
            .map_or(0, |s| s.pending)
    }

    /// Number of messages discarded because the subscriber's backlog
    /// overflowed [`SUBSCRIBER_QUEUE_CAP`].
    pub fn dropped(&self) -> u64 {
        self.inner
            .lock()
            .subs
            .get(self.id)
            .map_or(0, |s| s.dropped)
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        let mut guard = self.inner.lock();
        self.inner.subscribers.fetch_sub(1, Ordering::Relaxed);
        let head = guard.seq;
        if let Some(sub) = guard.subs.get_mut(self.id) {
            sub.closed = true;
            sub.mask = 0;
            sub.pending = 0;
            sub.cursor = head;
        }
        guard.evict();
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
        assert_eq!(sub.pending(), SUBSCRIBER_QUEUE_CAP);
        assert_eq!(sub.dropped(), 10);
        let msgs = sub.drain();
        // The 10 oldest were discarded.
        assert_eq!(msgs[0].tick(), Tick::new(10));
    }

    #[test]
    fn overflow_bookkeeping_counts_only_matching_messages() {
        // Interleave a foreign topic: drops must count only the subscribed
        // stream, exactly like the old queue-per-subscriber design.
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        let mut all = bus.subscribe(&[Topic::GpsLocationExternal, Topic::CarState]);
        for i in 0..(SUBSCRIBER_QUEUE_CAP as u64 + 5) {
            bus.publish(Tick::new(i), gps());
            bus.publish(Tick::new(i), Payload::CarState(CarState::default()));
        }
        assert_eq!(sub.pending(), SUBSCRIBER_QUEUE_CAP);
        assert_eq!(sub.dropped(), 5);
        let msgs = sub.drain();
        assert_eq!(msgs[0].tick(), Tick::new(5), "5 oldest GPS dropped");
        assert!(msgs.iter().all(|m| m.topic() == Topic::GpsLocationExternal));
        // The two-topic subscriber saw twice the traffic, dropped twice as
        // much, and retains an interleaved window ending at the head.
        assert_eq!(all.pending(), SUBSCRIBER_QUEUE_CAP);
        let msgs = all.drain();
        assert_eq!(msgs.len(), SUBSCRIBER_QUEUE_CAP);
        assert!(msgs.windows(2).all(|p| p[0].seq() < p[1].seq()));
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
    fn ring_is_reclaimed_once_all_subscribers_drain() {
        let bus = Bus::new();
        let mut a = bus.subscribe(&[Topic::GpsLocationExternal]);
        let mut b = bus.subscribe(&[Topic::GpsLocationExternal]);
        for i in 0..10 {
            bus.publish(Tick::new(i), gps());
        }
        assert_eq!(bus.ring_len(), 10, "both subscribers still pending");
        a.drain();
        assert_eq!(bus.ring_len(), 10, "b still pins the ring");
        b.drain();
        assert_eq!(bus.ring_len(), 0, "fully drained ring is empty");
    }

    #[test]
    fn unsubscribed_topics_do_not_accumulate() {
        // Messages nobody listens to must not grow the ring: the lock-step
        // harness publishes carControl/controlsState every tick even when
        // no attacker taps them.
        let bus = Bus::new();
        let _sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        for i in 0..100 {
            bus.publish(Tick::new(i), Payload::CarState(CarState::default()));
        }
        assert_eq!(bus.ring_len(), 0);
    }

    #[test]
    fn dropping_a_subscriber_releases_its_backlog() {
        let bus = Bus::new();
        let lazy = bus.subscribe(&[Topic::GpsLocationExternal]);
        for i in 0..50 {
            bus.publish(Tick::new(i), gps());
        }
        assert_eq!(bus.ring_len(), 50);
        assert_eq!(bus.subscriber_count(), 1);
        assert!(bus.has_subscribers());
        drop(lazy);
        assert_eq!(bus.subscriber_count(), 0);
        assert!(!bus.has_subscribers());
        assert_eq!(bus.ring_len(), 0, "dropped handle no longer pins slots");
    }

    #[test]
    fn try_recv_pops_in_order_and_skips_foreign_topics() {
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::GpsLocationExternal]);
        bus.publish(Tick::ZERO, gps());
        bus.publish(Tick::ZERO, Payload::CarState(CarState::default()));
        bus.publish(Tick::new(1), gps());
        let first = sub.try_recv().expect("first gps");
        assert_eq!(first.tick(), Tick::ZERO);
        assert_eq!(sub.pending(), 1);
        let second = sub.try_recv().expect("second gps");
        assert_eq!(second.tick(), Tick::new(1));
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn logging_captures_everything() {
        let bus = Bus::new();
        bus.enable_logging();
        bus.publish(Tick::ZERO, gps());
        bus.publish(Tick::new(1), Payload::CarState(CarState::default()));
        let log = bus.take_log().expect("logging enabled");
        assert_eq!(log.len(), 2);
        assert!(bus.take_log().is_none(), "log can only be taken once");
    }

    #[test]
    fn counters() {
        let bus = Bus::new();
        assert_eq!(bus.published_count(), 0);
        assert_eq!(bus.subscriber_count(), 0);
        let _sub = bus.subscribe(&[Topic::ModelV2]);
        bus.publish(Tick::ZERO, gps());
        assert_eq!(bus.published_count(), 1);
        assert_eq!(bus.subscriber_count(), 1);
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
        // across its drains, in order — the multi-threaded safety property
        // of the old design, preserved by the ring.
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
