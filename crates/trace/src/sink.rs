//! The bounded ring-buffer event sink and metric accumulators.

use crate::event::{ArgValue, Event, EventKind, Track};
use std::collections::{BTreeMap, VecDeque};

/// A bounded, drop-oldest event ring plus monotonic metric counters.
///
/// * **Bounded**: at most `capacity` events are retained; pushing into a
///   full ring evicts the oldest event and increments
///   [`TraceSink::dropped`]. The retained window is always the *most
///   recent* events, as a flight recorder keeps them.
/// * **Single-writer**: the runtime only emits from the scheduler's
///   serial phases, so the sink needs no locks or atomics (see the crate
///   docs for why this also makes event order deterministic).
///
/// Metrics ([`TraceSink::bump`]) are independent of the ring: they are
/// monotonic accumulators keyed by full Prometheus-style series name
/// (labels included), never evicted, so the
/// [`prometheus_snapshot`](crate::prometheus_snapshot) stays exact over
/// the whole run even after the ring has wrapped many times.
#[derive(Debug)]
pub struct TraceSink {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
    next_seq: u64,
    metrics: BTreeMap<String, f64>,
}

impl TraceSink {
    /// A sink retaining at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (a sink that can hold nothing is
    /// always a caller bug).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a sink needs a nonzero capacity");
        TraceSink {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
            next_seq: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever emitted (retained + dropped).
    pub fn total_emitted(&self) -> u64 {
        self.next_seq
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Clones the retained events into a vector (test convenience; the
    /// golden-trace tests compare these with `==`).
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// The monotonic metric accumulators, keyed by full series name.
    pub fn metrics(&self) -> &BTreeMap<String, f64> {
        &self.metrics
    }

    /// Opens a span on `track`.
    pub fn begin(
        &mut self,
        track: Track,
        t_ns: u64,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(track, t_ns, name, EventKind::Begin, args);
    }

    /// Closes the innermost open span on `track` (must carry the same
    /// name as its `begin`, which the nesting tests enforce).
    pub fn end(&mut self, track: Track, t_ns: u64, name: &'static str) {
        self.push(track, t_ns, name, EventKind::End, Vec::new());
    }

    /// Records a point-in-time marker.
    pub fn instant(
        &mut self,
        track: Track,
        t_ns: u64,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(track, t_ns, name, EventKind::Instant, args);
    }

    /// Samples a counter value.
    pub fn counter(&mut self, track: Track, t_ns: u64, name: &'static str, value: f64) {
        self.push(track, t_ns, name, EventKind::Counter, vec![("value", ArgValue::F64(value))]);
    }

    /// Adds `delta` to the metric `series` (full Prometheus series name,
    /// labels included, e.g. `ecofusion_frames_total{stream="0"}`). Only
    /// a series' first bump allocates its name.
    pub fn bump(&mut self, series: &str, delta: f64) {
        match self.metrics.get_mut(series) {
            Some(value) => *value += delta,
            None => _ = self.metrics.insert(series.to_string(), 0.0 + delta),
        }
    }

    fn push(
        &mut self,
        track: Track,
        t_ns: u64,
        name: &'static str,
        kind: EventKind,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(Event { seq, track, t_ns, name, kind, args });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(sink: &mut TraceSink, n: u64) {
        for i in 0..n {
            sink.instant(Track::Scheduler, i, "tickmark", Vec::new());
        }
    }

    /// The satellite ring-overflow contract: drop-oldest with an exact
    /// dropped count, while `seq` keeps numbering the full emission
    /// history.
    #[test]
    fn ring_drops_oldest_and_counts_exactly() {
        let mut sink = TraceSink::with_capacity(4);
        fill(&mut sink, 10);
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 6);
        assert_eq!(sink.total_emitted(), 10);
        // The retained window is the most recent events, oldest first.
        let seqs: Vec<u64> = sink.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let ts: Vec<u64> = sink.events().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn exactly_full_ring_drops_nothing() {
        let mut sink = TraceSink::with_capacity(4);
        fill(&mut sink, 4);
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn metrics_survive_ring_overflow() {
        let mut sink = TraceSink::with_capacity(2);
        for _ in 0..50 {
            sink.instant(Track::Scheduler, 0, "e", Vec::new());
            sink.bump("ecofusion_steps_total", 1.0);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.metrics()["ecofusion_steps_total"], 50.0);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_enabled_sink_panics() {
        let _ = TraceSink::with_capacity(0);
    }
}
