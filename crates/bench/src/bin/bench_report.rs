//! Workload-suite bench reports and the perf/accuracy regression gate.
//!
//! ```text
//! # Run every suite and write the machine-readable report:
//! cargo run --release -p ecofusion-bench --bin bench_report -- --quick
//!
//! # Gate a fresh run against the committed baseline (exit 1 on drift):
//! cargo run --release -p ecofusion-bench --bin bench_report -- compare
//!
//! # Refresh the committed baseline after a deliberate behavior change:
//! cargo run --release -p ecofusion-bench --bin bench_report -- refresh-baseline
//! ```
//!
//! Modes:
//!
//! * *(default)* — run the suites at `--quick` (default) or `--full`
//!   scale, print a summary table, and write the `BenchReport` JSON to
//!   `--out` (default `results/bench_report.json`).
//! * `compare` — obtain fresh reports (run the suites, or load
//!   `--report <path>` if given; the flag is repeatable, and every
//!   report's band violations are printed in one run with a single
//!   combined exit code), load the baseline from `--baseline`
//!   (default `baselines/bench_baseline.json`), and diff under the gate
//!   tolerances. Exits nonzero on any violation. Bands are tunable:
//!   `--map-band <pp>`, `--energy-band <frac>`, `--latency-band <frac>`,
//!   each finite and ≥ 0 (else, as on an unknown flag, exit 2).
//! * `refresh-baseline` — run the suites and overwrite the baseline file.
//!
//! `--suite <name>` (repeatable) restricts a run to named suites —
//! useful for debugging one workload, but note the committed baseline
//! covers all five, so a restricted run will fail `compare` on the
//! missing ones.
//!
//! `--shards <n>` runs the suites on `n` runtime worker shards
//! (default 1). Every gated report field is shard-invariant, so an
//! N-shard report still compares cleanly against a 1-shard baseline —
//! the CI shard-matrix step relies on exactly that. Only the per-shard
//! breakdown changes. The report holds no wall-clock number; serving
//! speed is `benchmark/run.sh`'s to measure.
//!
//! `--precision f32|int8` (default `f32`) starts every stream of every
//! suite at that precision. `int8` drives the whole gate quantized; its
//! committed baseline is `baselines/bench_baseline_int8.json`.
//!
//! `compare --flight-recorder` arms the flight recorder: each suite runs
//! with a bounded trace ring (the last few thousand events), and when the
//! gate **fails** the recorder dumps one Chrome-trace JSON plus one
//! Prometheus text snapshot per suite under `--flight-dir` (default
//! `results/flight`) — load the `.trace.json` in Perfetto to see exactly
//! which stage, ladder move, or fault preceded the drift. On a passing
//! gate nothing is written. The traced run is bit-identical to the
//! untraced one (tracing observes the serial accounting phases only), so
//! arming the recorder never changes the gate verdict.

use ecofusion_bench::cli::{usage_error, Args, BENCH_REPORT};
use ecofusion_bench::write_file;
use ecofusion_core::Precision;
use ecofusion_harness::{
    compare, run_report_traced, BenchReport, SuiteId, Tolerances, DEFAULT_BASELINE_PATH,
    FLIGHT_RECORDER_EVENTS,
};
use ecofusion_trace::{chrome_trace_json, prometheus_snapshot, TraceSink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn print_table(report: &BenchReport) {
    println!(
        "rev {} | scale {} | model {} | shards {}",
        report.build.git_rev, report.build.scale, report.build.model, report.build.shards,
    );
    println!(
        "{:<14} {:>7} {:>8} {:>11} {:>9} {:>9} {:>9} {:>13} {:>10}",
        "suite",
        "frames",
        "mAP(%)",
        "gated (J)",
        "p50 ms",
        "p99 ms",
        "stems",
        "cache hit(%)",
        "digest"
    );
    for s in &report.suites {
        println!(
            "{:<14} {:>7} {:>8.3} {:>11.3} {:>9.2} {:>9.2} {:>9} {:>13.1} {:>10}",
            s.suite,
            s.frames,
            s.map_pct,
            s.total_gated_j,
            s.latency.p50_ms,
            s.latency.p99_ms,
            s.stems_executed,
            s.cache_hit_rate * 100.0,
            &s.determinism_digest[..8.min(s.determinism_digest.len())],
        );
        for f in &s.fleet {
            println!(
                "  └ fleet {:>3} streams: {:>5} frames, avg batch {:>5.2} on {} shard(s)",
                f.streams,
                f.frames,
                f.avg_batch_size,
                f.shards.max(1)
            );
            for p in &f.per_shard {
                println!(
                    "      shard {}: {:>2} streams, {:>5} frames, {:>4} batches, {:>3} steals ({} frames)",
                    p.shard, p.streams, p.frames, p.batches, p.steals, p.stolen_frames
                );
            }
        }
    }
}

/// Writes one Chrome trace and one Prometheus snapshot per suite into
/// `dir`. Only called on a failed gate — a passing run leaves no files.
fn dump_flight(dir: &Path, sinks: &[(String, TraceSink)]) {
    for (suite, sink) in sinks {
        let trace_path = dir.join(format!("{suite}.trace.json"));
        let prom_path = dir.join(format!("{suite}.prom"));
        if let Err(e) = write_file(&trace_path, chrome_trace_json(sink)) {
            eprintln!("error: cannot write {}: {e}", trace_path.display());
            continue;
        }
        if let Err(e) = write_file(&prom_path, prometheus_snapshot(sink)) {
            eprintln!("error: cannot write {}: {e}", prom_path.display());
        }
        eprintln!(
            "flight recorder: {} ({} events, {} dropped) + {}",
            trace_path.display(),
            sink.len(),
            sink.dropped(),
            prom_path.display(),
        );
    }
}

fn main() -> ExitCode {
    let args = Args::from_env(&BENCH_REPORT);
    let (scale, shards, only) = (args.scale(), args.count("--shards", 1), args.strs("--suite"));
    let precision = match args.str("--precision") {
        None | Some("f32") => Precision::F32,
        Some("int8") => Precision::Int8,
        Some(other) => usage_error(&format!("--precision expects `f32` or `int8`, got `{other}`")),
    };
    // A suite typo must not produce an empty report (or clobber the
    // baseline) with exit 0.
    if let Some(name) = only.iter().find(|name| SuiteId::from_label(name).is_none()) {
        let known: Vec<&str> = SuiteId::ALL.iter().map(|id| id.label()).collect();
        usage_error(&format!("unknown suite `{name}` (known: {})", known.join(", ")));
    }
    let baseline_path = PathBuf::from(args.str("--baseline").unwrap_or(DEFAULT_BASELINE_PATH));
    // Runs the suites, optionally with the flight recorder armed
    // (`Some(capacity)` attaches a bounded `TraceSink` per suite).
    let run_suites = |trace_capacity: Option<usize>| {
        let armed = if trace_capacity.is_some() { ", flight recorder armed" } else { "" };
        eprintln!(
            "running workload suites ({scale:?}, {shards} shard(s), {}{armed})...",
            precision.label()
        );
        run_report_traced(scale, &only, shards, precision, trace_capacity).unwrap_or_else(|e| {
            eprintln!("error: suite run failed: {e}");
            std::process::exit(1);
        })
    };

    // The mode is the one positional argument (flags may come before or
    // after it); `bench_report --quick` runs the default report mode.
    match args.positional(0) {
        None => {
            let out = PathBuf::from(args.str("--out").unwrap_or("results/bench_report.json"));
            let report = run_suites(None).0;
            print_table(&report);
            if let Err(e) = report.write_json(&out) {
                eprintln!("error: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let default = Tolerances::default();
            let tol = Tolerances {
                map_drop_pct: args.band("--map-band", default.map_drop_pct),
                energy_growth_frac: args.band("--energy-band", default.energy_growth_frac),
                latency_growth_frac: args.band("--latency-band", default.latency_growth_frac),
                // Absolute floors stay at their defaults; the bands above
                // are the CI-tunable knobs.
                ..default
            };
            let baseline = match BenchReport::load_json(&baseline_path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!(
                        "error: cannot load baseline {}: {e}\n\
                         (generate one with `bench_report refresh-baseline`)",
                        baseline_path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            let flight = args.switch("--flight-recorder");
            let flight_dir = PathBuf::from(args.str("--flight-dir").unwrap_or("results/flight"));
            // `--report` is repeatable: every given report is diffed
            // against the baseline and ALL band violations are printed
            // in one run, with a single exit at the end — so a matrix
            // job can gate several recorded reports in one invocation.
            let report_paths = args.strs("--report");
            let (labeled, flight_sinks) = if report_paths.is_empty() {
                let (fresh, sinks) = run_suites(flight.then_some(FLIGHT_RECORDER_EVENTS));
                (vec![("fresh run".to_string(), fresh)], sinks)
            } else {
                let mut labeled = Vec::with_capacity(report_paths.len());
                for path in report_paths {
                    match BenchReport::load_json(&PathBuf::from(&path)) {
                        Ok(r) => labeled.push((path, r)),
                        Err(e) => {
                            eprintln!("error: cannot load report {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                (labeled, Vec::new())
            };
            let mut total_violations = 0usize;
            for (label, fresh) in &labeled {
                let violations = compare(&baseline, fresh, &tol);
                for v in &violations {
                    eprintln!("  [{label}] {v}");
                }
                total_violations += violations.len();
            }
            if total_violations == 0 {
                println!(
                    "perf gate PASS: {} report(s) x {} suites vs {} (map band {} pp, energy band {:.1}%, latency band {:.1}%)",
                    labeled.len(),
                    baseline.suites.len(),
                    baseline_path.display(),
                    tol.map_drop_pct,
                    tol.energy_growth_frac * 100.0,
                    tol.latency_growth_frac * 100.0,
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perf gate FAIL: {total_violations} violation(s) across {} report(s)",
                    labeled.len()
                );
                if !flight_sinks.is_empty() {
                    dump_flight(&flight_dir, &flight_sinks);
                }
                eprintln!(
                    "if this drift is deliberate, refresh the baseline:\n\
                       cargo run --release -p ecofusion-bench --bin bench_report -- refresh-baseline"
                );
                ExitCode::FAILURE
            }
        }
        Some("refresh-baseline") => {
            let report = run_suites(None).0;
            print_table(&report);
            if let Err(e) = report.write_json(&baseline_path) {
                eprintln!("error: cannot write {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("refreshed baseline {}", baseline_path.display());
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!(
            "unknown mode `{other}` (expected no mode, `compare`, or `refresh-baseline`)"
        )),
    }
}
