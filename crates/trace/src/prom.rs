//! Prometheus text-exposition snapshot of the sink's metric accumulators.

use crate::sink::TraceSink;
use std::fmt::Write;

/// The metric family a full series name belongs to (the part before the
/// label set).
fn family(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

/// Formats a counter value: integral counts render without a fraction,
/// everything else with full precision (Rust's shortest-roundtrip f64
/// formatting, so snapshots are deterministic).
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the sink's metrics in the Prometheus text exposition format,
/// one `# TYPE` header per family, series sorted lexicographically (the
/// sink stores them in a BTree, so the snapshot is deterministic). Two
/// synthetic series describe the sink itself:
/// `ecofusion_trace_events_total` (all events ever emitted) and
/// `ecofusion_trace_dropped_events_total` (evicted by the ring).
pub fn prometheus_snapshot(sink: &TraceSink) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for (series, value) in sink.metrics() {
        let fam = family(series);
        if fam != last_family {
            let _ = writeln!(out, "# TYPE {fam} counter");
            last_family = fam;
        }
        let _ = writeln!(out, "{series} {}", fmt_value(*value));
    }
    let _ = writeln!(out, "# TYPE ecofusion_trace_dropped_events_total counter");
    let _ = writeln!(out, "ecofusion_trace_dropped_events_total {}", sink.dropped());
    let _ = writeln!(out, "# TYPE ecofusion_trace_events_total counter");
    let _ = writeln!(out, "ecofusion_trace_events_total {}", sink.total_emitted());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_get_one_type_header_and_sorted_series() {
        let mut sink = TraceSink::with_capacity(8);
        sink.bump("ecofusion_frames_total{stream=\"1\"}", 2.0);
        sink.bump("ecofusion_frames_total{stream=\"0\"}", 3.0);
        sink.bump("ecofusion_steps_total", 1.5);
        let text = prometheus_snapshot(&sink);
        assert_eq!(text.matches("# TYPE ecofusion_frames_total counter").count(), 1);
        assert!(text.contains("ecofusion_frames_total{stream=\"0\"} 3\n"));
        assert!(text.contains("ecofusion_frames_total{stream=\"1\"} 2\n"));
        assert!(text.contains("ecofusion_steps_total 1.5\n"));
        let s0 = text.find("stream=\"0\"").unwrap();
        let s1 = text.find("stream=\"1\"").unwrap();
        assert!(s0 < s1, "series must be sorted");
    }

    #[test]
    fn sink_health_series_always_present() {
        let text = prometheus_snapshot(&TraceSink::disabled());
        assert!(text.contains("ecofusion_trace_dropped_events_total 0"));
        assert!(text.contains("ecofusion_trace_events_total 0"));
    }
}
