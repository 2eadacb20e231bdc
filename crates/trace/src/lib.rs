//! Structured tracing for the EcoFusion runtime: a bounded ring-buffer
//! event sink plus exporters.
//!
//! EcoFusion's value proposition is a per-frame runtime trade-off (Eq. 11:
//! energy vs. accuracy vs. latency, decided by the gate), but aggregate
//! counters can only say *that* a stream got expensive, never *why one
//! frame* took a path. This crate records the decision trail itself:
//!
//! * [`TraceSink`] — a bounded ring buffer of [`Event`]s. When full it
//!   drops the oldest event and counts the drop ([`TraceSink::dropped`]),
//!   so a long-lived server records the most recent window — a flight
//!   recorder, not an unbounded log. A disabled sink
//!   ([`TraceSink::disabled`]) rejects every emission at the first branch,
//!   so instrumented code costs nothing when tracing is off.
//! * [`Event`] / [`Track`] — span begin/end, instant, and counter events,
//!   each on a track: one per vehicle stream, one per worker shard, one
//!   for the global scheduler.
//! * [`chrome_trace_json`] — exports the ring as Chrome `trace_event`
//!   JSON, loadable in Perfetto or `chrome://tracing` (streams, shards,
//!   and the scheduler render as separate process groups).
//! * [`prometheus_snapshot`] — renders the sink's monotonic metric
//!   accumulators (which survive ring overflow) in the Prometheus text
//!   exposition format.
//!
//! This crate knows no event or series of the serving path: the
//! runtime's step recorder (`ecofusion_runtime`'s private `recorder`
//! module) is the one writer, and owns every name it emits.
//!
//! # Determinism
//!
//! Timestamps are **virtual**, not wall clock: one scheduler tick is
//! [`TICK_NS`] nanoseconds and spans advance by the *modeled* stage
//! latency. A seeded run therefore emits a bit-identical event sequence
//! on every host and at every rerun — the golden-trace tests diff whole
//! event vectors with `==`.
//!
//! # Concurrency
//!
//! The sink is lock-free by construction rather than by synchronization:
//! every emission happens on the scheduler's serial phases (global pick,
//! post-join accounting, the simulation driver), never on worker threads. Worker-side facts
//! (who executed a unit, whether it was stolen) are recorded into the
//! unit payload during execution and emitted serially afterwards, which
//! is also what makes the event *order* independent of thread timing.
//! There are no atomics or mutexes on the emission path.

pub mod chrome;
pub mod event;
pub mod prom;
pub mod sink;

pub use chrome::chrome_trace_json;
pub use event::{ArgValue, Event, EventKind, Track};
pub use prom::prometheus_snapshot;
pub use sink::TraceSink;

/// Virtual duration of one scheduler tick, in nanoseconds (1 ms). All
/// trace timestamps are derived from tick counts and modeled latencies,
/// never from the host clock, so seeded runs reproduce bit-identically.
pub const TICK_NS: u64 = 1_000_000;

/// Converts a modeled latency in milliseconds to virtual nanoseconds.
/// Truncating (not rounding) keeps the mapping monotone and exact for
/// the representable range the energy model produces.
pub fn ns_from_ms(ms: f64) -> u64 {
    if ms <= 0.0 {
        0
    } else {
        (ms * 1e6) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_from_ms_is_monotone_and_clamped() {
        assert_eq!(ns_from_ms(-1.0), 0);
        assert_eq!(ns_from_ms(0.0), 0);
        assert_eq!(ns_from_ms(1.0), 1_000_000);
        assert!(ns_from_ms(0.5) < ns_from_ms(0.75));
    }
}
