//! Message capture for offline analysis.
//!
//! The paper's attacker performs "offline code/data analysis to infer the
//! safety constraints and parameters" (§III-B). [`MessageLog`] is the data
//! half of that: a record of all bus traffic that can be mined for topics,
//! rates and value ranges.

use units::Tick;

use crate::{Envelope, Topic};

/// An append-only record of published messages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageLog {
    entries: Vec<Envelope>,
}

impl MessageLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an envelope.
    pub fn record(&mut self, env: Envelope) {
        // adas-lint: allow(R13, reason = "opt-in message history — attached only when a test or tool asks for capture; unbounded growth is the feature, and the steady-state alloc gate runs without it")
        self.entries.push(env);
    }

    /// Number of captured messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all captured envelopes in publication order.
    pub fn iter(&self) -> impl Iterator<Item = &Envelope> {
        self.entries.iter()
    }

    /// Iterates over the envelopes of a single topic.
    pub fn topic(&self, topic: Topic) -> impl Iterator<Item = &Envelope> {
        self.entries.iter().filter(move |e| e.topic() == topic)
    }

    /// Returns the messages published in the tick range `[from, to)`.
    pub fn between(&self, from: Tick, to: Tick) -> impl Iterator<Item = &Envelope> {
        self.entries
            .iter()
            .filter(move |e| e.tick() >= from && e.tick() < to)
    }

    /// Count of messages per topic, in [`Topic::ALL`] order.
    pub fn topic_histogram(&self) -> Vec<(Topic, usize)> {
        Topic::ALL
            .into_iter()
            .map(|t| (t, self.topic(t).count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CarState, GpsLocation};
    use crate::Payload;

    fn log_with(n: u64) -> MessageLog {
        let mut log = MessageLog::new();
        for i in 0..n {
            let payload = if i % 2 == 0 {
                Payload::GpsLocationExternal(GpsLocation::default())
            } else {
                Payload::CarState(CarState::default())
            };
            log.record(Envelope::new(i, Tick::new(i), payload));
        }
        log
    }

    #[test]
    fn len_and_empty() {
        assert!(MessageLog::new().is_empty());
        assert_eq!(log_with(6).len(), 6);
    }

    #[test]
    fn topic_filter() {
        let log = log_with(6);
        assert_eq!(log.topic(Topic::GpsLocationExternal).count(), 3);
        assert_eq!(log.topic(Topic::CarState).count(), 3);
        assert_eq!(log.topic(Topic::RadarState).count(), 0);
    }

    #[test]
    fn tick_range_is_half_open() {
        let log = log_with(10);
        let window: Vec<_> = log.between(Tick::new(2), Tick::new(5)).collect();
        assert_eq!(window.len(), 3);
        assert_eq!(window[0].tick(), Tick::new(2));
        assert_eq!(window[2].tick(), Tick::new(4));
    }

    #[test]
    fn histogram_covers_all_topics() {
        let log = log_with(4);
        let hist = log.topic_histogram();
        assert_eq!(hist.len(), Topic::ALL.len());
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4);
    }
}
