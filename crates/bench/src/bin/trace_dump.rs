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

use ecofusion_energy::StageKind;
use ecofusion_eval::experiments::common::Scale;
use ecofusion_harness::{run_suite_traced, ModelProvider, SuiteId};
use ecofusion_trace::{chrome_trace_json, prometheus_snapshot, TraceSink};
use std::path::PathBuf;
use std::process::ExitCode;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let suite_label = flag_value(&args, "--suite").unwrap_or_else(|| "steady_city".into());
    let Some(id) = SuiteId::from_label(&suite_label) else {
        let known: Vec<&str> = SuiteId::ALL.iter().map(|id| id.label()).collect();
        eprintln!("error: unknown suite `{suite_label}` (known: {})", known.join(", "));
        return ExitCode::from(2);
    };
    let shards = match flag_value(&args, "--shards") {
        None => 1,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --shards expects a positive integer, got `{v}`");
                return ExitCode::from(2);
            }
        },
    };
    let capacity = match flag_value(&args, "--capacity") {
        None => 1 << 20,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --capacity expects a positive integer, got `{v}`");
                return ExitCode::from(2);
            }
        },
    };
    let out =
        PathBuf::from(flag_value(&args, "--out").unwrap_or_else(|| "results/trace.json".into()));
    let metrics_out = PathBuf::from(
        flag_value(&args, "--metrics").unwrap_or_else(|| "results/metrics.prom".into()),
    );

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
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    if let Some(dir) = metrics_out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&metrics_out, prometheus_snapshot(&sink)) {
        eprintln!("error: cannot write {}: {e}", metrics_out.display());
        return ExitCode::FAILURE;
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

    if args.iter().any(|a| a == "--check") {
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
