//! Runs one workload suite with tracing enabled and dumps the trace.
//!
//! ```text
//! # Chrome trace (load in Perfetto / chrome://tracing) + metrics snapshot:
//! cargo run --release -p ecofusion-bench --bin trace_dump -- --quick
//!
//! # A different suite, on 4 shards, with self-validation:
//! cargo run --release -p ecofusion-bench --bin trace_dump -- \
//!     --suite fault_storm --shards 4 --check
//! ```
//!
//! Flags:
//!
//! * `--suite <name>` — which suite to run (default `steady_city`).
//! * `--quick` / `--full` — workload scale (default quick).
//! * `--shards <n>` — runtime worker shards (default 1). Stream-track
//!   events are shard-invariant; shard tracks differ by layout.
//! * `--capacity <n>` — trace ring capacity in events (default 1048576,
//!   large enough that a quick run records every event).
//! * `--out <path>` — Chrome trace output (default `results/trace.json`).
//! * `--metrics <path>` — Prometheus-style text snapshot output
//!   (default `results/metrics.prom`).
//! * `--check` — after dumping, re-parse the Chrome JSON and assert the
//!   trace is well-formed and complete: non-empty `traceEvents`, zero
//!   ring drops, and one span per pipeline stage per frame. Exits
//!   nonzero on any violation (used by the CI `trace-smoke` job).

use ecofusion_bench::cli::{usage_error, Args, TRACE_DUMP};
use ecofusion_bench::write_file;
use ecofusion_energy::StageKind;
use ecofusion_harness::{run_suite_traced, ModelProvider, SuiteId};
use ecofusion_trace::{chrome_trace_json, prometheus_snapshot, TraceSink};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--check`: re-parse the emitted JSON the way a consumer would and
/// verify completeness against the suite report's frame count.
fn check_trace(json: &str, frames: u64, sink: &TraceSink) -> Result<(), String> {
    if sink.dropped() > 0 {
        return Err(format!(
            "ring dropped {} events; raise --capacity so --check sees the whole run",
            sink.dropped()
        ));
    }
    let value: serde::Value =
        serde_json::from_str(json).map_err(|e| format!("chrome trace is not valid JSON: {e}"))?;
    let top = value.as_map().ok_or("top level is not an object")?;
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| v.as_seq())
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    // One Begin span per pipeline stage per frame, plus the frame span
    // that encloses them.
    let begins = |name: &str| -> u64 {
        events
            .iter()
            .filter_map(|e| e.as_map())
            .filter(|m| {
                let field = |k: &str| m.iter().find(|(mk, _)| mk == k).map(|(_, v)| v);
                field("ph").and_then(|v| v.as_str()) == Some("B")
                    && field("name").and_then(|v| v.as_str()) == Some(name)
            })
            .count() as u64
    };
    if begins("frame") != frames {
        return Err(format!("expected {frames} frame spans, found {}", begins("frame")));
    }
    for stage in StageKind::ALL {
        let n = begins(stage.label());
        if n != frames {
            return Err(format!("expected {frames} `{}` stage spans, found {n}", stage.label()));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::from_env(&TRACE_DUMP);
    let scale = args.scale();
    let suite_label = args.str("--suite").unwrap_or("steady_city");
    let Some(id) = SuiteId::from_label(suite_label) else {
        let known: Vec<&str> = SuiteId::ALL.iter().map(|id| id.label()).collect();
        usage_error(&format!("unknown suite `{suite_label}` (known: {})", known.join(", ")));
    };
    let shards = args.count("--shards", 1);
    let capacity = args.count("--capacity", 1 << 20);
    let out = PathBuf::from(args.str("--out").unwrap_or("results/trace.json"));
    let metrics_out = PathBuf::from(args.str("--metrics").unwrap_or("results/metrics.prom"));

    eprintln!("tracing suite {suite_label} ({scale:?}, {shards} shard(s), ring {capacity})...");
    let provider = ModelProvider::prepare(scale);
    let traced = run_suite_traced(
        &provider,
        id,
        scale,
        shards,
        ecofusion_core::Precision::F32,
        Some(capacity),
    );
    let (report, sink) = match traced {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: suite run failed: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let sink = sink.expect("traced run returns its sink");

    let json = chrome_trace_json(&sink);
    let metrics = prometheus_snapshot(&sink);
    for (path, contents) in [(&out, &json), (&metrics_out, &metrics)] {
        if let Err(e) = write_file(path, contents) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}: {} frames, {} events recorded ({} dropped), digest {}",
        suite_label,
        report.frames,
        sink.len(),
        sink.dropped(),
        &report.determinism_digest[..8.min(report.determinism_digest.len())],
    );
    println!("wrote {} and {}", out.display(), metrics_out.display());

    if args.switch("--check") {
        match check_trace(&json, report.frames, &sink) {
            Ok(()) => println!("trace check PASS"),
            Err(e) => {
                eprintln!("trace check FAIL: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
