//! The benchmark's own spans: name, start, end, the span that caused it,
//! and the tick as the identifier the spans of one step share. Kept in
//! memory, aggregated at the end of the episode, and exported through an
//! `ecofusion_trace::TraceSink` as Chrome trace JSON.

use ecofusion_trace::{ArgValue, TraceSink, Track};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since [`Spans::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span. Shadow-replay children name the
    /// `core.infer` span they decompose, though they run after it.
    pub parent: Option<usize>,
    pub tick: u64,
    pub track: Track,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store on a real (`Instant`) clock.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    pub fn new() -> Self {
        Spans::default()
    }

    /// Nanoseconds since the store was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        track: Track,
        parent: Option<usize>,
        tick: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        debug_assert!(end_ns >= start_ns);
        self.spans.push(Span { name, start_ns, end_ns, parent, tick, track });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        track: Track,
        parent: Option<usize>,
        tick: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, track, parent, tick, start, end))
    }

    /// Drops every span recorded so far (the clock keeps running).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Sum of the durations of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
    }

    /// Self time of every span called `name`: its duration minus the
    /// durations of the spans that name it as parent.
    pub fn self_ns(&self, name: &str) -> i64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_ns() as i64 - *c as i64)
            .sum()
    }

    /// Replays the spans into a `TraceSink` as begin/end events, ordered
    /// so that the spans of each track nest.
    pub fn to_sink(&self) -> TraceSink {
        // (time, end-before-begin, tie-break, span index, is_end). At one
        // timestamp ends close children first (higher index) and begins
        // open parents first (lower index).
        let mut order: Vec<(u64, u8, i64, usize, bool)> = Vec::with_capacity(2 * self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // A zero-length span still has to begin before it ends.
            let end = s.end_ns.max(s.start_ns + 1);
            order.push((s.start_ns, 1, i as i64, i, false));
            order.push((end, 0, -(i as i64), i, true));
        }
        order.sort();
        let mut sink = TraceSink::with_capacity(order.len().max(1));
        for (t, _, _, i, is_end) in order {
            let s = &self.spans[i];
            if is_end {
                sink.end(s.track, t, s.name);
            } else {
                let parent = s.parent.map_or("", |p| self.spans[p].name);
                sink.begin(
                    s.track,
                    t,
                    s.name,
                    vec![("tick", ArgValue::U64(s.tick)), ("parent", ArgValue::Str(parent))],
                );
            }
        }
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_trace::EventKind;

    /// tick(0..100) > ingest(0..10), step(10..90); infer(100..160) has
    /// shadow children stems(160..190) and branch(190..200).
    fn tree() -> Spans {
        let mut s = Spans::new();
        let tick = s.record("tick", Track::Scheduler, None, 7, 0, 100);
        s.record("ingest", Track::Scheduler, Some(tick), 7, 0, 10);
        s.record("step", Track::Scheduler, Some(tick), 7, 10, 90);
        let infer = s.record("infer", Track::Shard(0), None, 7, 100, 160);
        s.record("stems", Track::Shard(0), Some(infer), 7, 160, 190);
        s.record("branch", Track::Shard(0), Some(infer), 7, 190, 200);
        s
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let s = tree();
        assert_eq!(s.total_ns("tick"), 100);
        assert_eq!(s.self_ns("tick"), 100 - 10 - 80);
        assert_eq!(s.self_ns("step"), 80);
        assert_eq!(s.self_ns("infer"), 60 - 30 - 10);
    }

    #[test]
    fn self_time_sums_over_spans_of_one_name() {
        let mut s = tree();
        let tick = s.record("tick", Track::Scheduler, None, 8, 200, 260);
        s.record("step", Track::Scheduler, Some(tick), 8, 210, 250);
        assert_eq!(s.total_ns("tick"), 160);
        assert_eq!(s.self_ns("tick"), 10 + 20);
    }

    #[test]
    fn export_nests_on_every_track() {
        let sink = tree().to_sink();
        assert_eq!(sink.len(), 12);
        assert_eq!(sink.dropped(), 0);
        let mut open: std::collections::BTreeMap<Track, Vec<&str>> = Default::default();
        for e in sink.events() {
            let stack = open.entry(e.track).or_default();
            match e.kind {
                EventKind::Begin => stack.push(e.name),
                EventKind::End => assert_eq!(stack.pop(), Some(e.name)),
                _ => unreachable!(),
            }
        }
        assert!(open.values().all(Vec::is_empty));
    }
}
