//! The event vocabulary: tracks, kinds, and argument values.

/// Where an event belongs in the trace. Exporters render each variant as
/// its own timeline: one track per vehicle stream, one per worker shard,
/// and one for the global scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// A vehicle stream (lane index in the server).
    Stream(u32),
    /// A worker shard.
    Shard(u32),
    /// The global serial scheduler (pick phase, step stats).
    Scheduler,
}

/// What an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Opens a span on the event's track. Spans on one track must nest:
    /// every `Begin` is closed by the `End` with the same name, in LIFO
    /// order (the property tests assert this).
    Begin,
    /// Closes the innermost open span on the track.
    End,
    /// A point-in-time marker (a decision, a fault, a health change).
    Instant,
    /// A sampled numeric value (queue depth, batch size).
    Counter,
}

/// A typed event argument. Kept as an enum (not stringified) so tests
/// can compare exact numeric payloads — e.g. that per-stage span energy
/// sums to the frame's `StageTrace` total bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (ids, counts, levels).
    U64(u64),
    /// Float (energy Joules, latency ms, counter samples).
    F64(f64),
    /// Static label (stage names, precisions, directions).
    Str(&'static str),
    /// Owned text (configuration labels, stream lists).
    Text(String),
}

/// One recorded trace event.
///
/// `seq` is the global emission index (monotonic across the whole run,
/// still advancing when the ring drops old events), `t_ns` the virtual
/// timestamp — see [`crate::TICK_NS`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global emission index (0-based; survives ring overflow).
    pub seq: u64,
    /// The timeline this event belongs to.
    pub track: Track,
    /// Virtual timestamp, nanoseconds.
    pub t_ns: u64,
    /// Event name (the span/marker/counter label).
    pub name: &'static str,
    /// Span begin/end, instant, or counter.
    pub kind: EventKind,
    /// Typed key/value payload (empty for most `End` events).
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The argument under `key` as an `f64`, if present and numeric.
    pub fn arg_f64(&self, key: &str) -> Option<f64> {
        match self.arg(key)? {
            ArgValue::F64(v) => Some(*v),
            ArgValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_lookup_by_key_and_type() {
        let e = Event {
            seq: 0,
            track: Track::Stream(3),
            t_ns: 42,
            name: "frame",
            kind: EventKind::Begin,
            args: vec![("config", ArgValue::U64(7)), ("energy_j", ArgValue::F64(0.25))],
        };
        assert_eq!(e.arg_f64("config"), Some(7.0));
        assert_eq!(e.arg_f64("energy_j"), Some(0.25));
        assert_eq!(e.arg("missing"), None);
        assert_eq!(e.arg_f64("missing"), None);
    }

    #[test]
    fn tracks_order_streams_before_shards() {
        assert!(Track::Stream(9) < Track::Shard(0));
        assert!(Track::Shard(9) < Track::Scheduler);
    }
}
