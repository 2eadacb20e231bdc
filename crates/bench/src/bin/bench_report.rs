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
//! * `compare` — run the suites, load the baseline from `--baseline`
//!   (default `baselines/bench_baseline.json`), and diff the fresh report
//!   against it under the gate's bands (the `MAP_DROP_PP`,
//!   `*_GROWTH_FRAC` and `*_FLOOR_*` constants of
//!   `crates/harness/src/compare.rs`). Exits nonzero on any violation.
//! * `refresh-baseline` — run the suites and overwrite the baseline file.
//!
//! `cargo test` runs every committed gate
//! (`crates/harness/tests/committed_gates.rs`); a failing one prints the
//! `compare` command line that reproduces it here.
//!
//! `--suite <name>` (repeatable) restricts a run to named suites, and
//! `compare` then gates only those suites of the baseline — the committed
//! baseline covers all seven.
//!
//! `--shards <n>` runs the suites on `n` runtime worker shards
//! (default 1). Every gated report field is shard-invariant, so an
//! N-shard report still compares cleanly against a 1-shard baseline —
//! the committed gates' four-shard `fleet_scale` run relies on exactly
//! that. Only the per-shard breakdown changes. The report holds no
//! wall-clock number; serving speed is `benchmark/run.sh`'s to measure.
//!
//! `--precision f32|int8` (default `f32`) starts every stream of every
//! suite at that precision. `int8` drives the whole gate quantized; its
//! committed baseline is `baselines/bench_baseline_int8.json`.
//!
//! `--trace DIR`, in any mode, records every suite the run selects with
//! the flight recorder (a ring of `TRACE_RING_EVENTS` events, which holds
//! every event of a quick suite) and writes `DIR/<suite>.trace.json`, a
//! Chrome trace to load in Perfetto, and `DIR/<suite>.prom`, a
//! Prometheus text snapshot, whether the gate passes or fails. Tracing
//! observes the serial accounting phases only, so a traced run reports —
//! and gates — exactly what an untraced one does.

use ecofusion_bench::cli::{usage_error, Args, BENCH_REPORT};
use ecofusion_bench::write_file;
use ecofusion_core::Precision;
use ecofusion_harness::{compare, run_report, BenchReport, SuiteId, DEFAULT_BASELINE_PATH};
use ecofusion_trace::{chrome_trace_json, prometheus_snapshot, TraceSink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn print_table(report: &BenchReport) {
    println!(
        "rev {} | scale {} | model {} | shards {}",
        report.build.git_rev, report.build.scale, report.build.model, report.build.shards,
    );
    println!(
        "{:<14} {:>7} {:>8} {:>11} {:>9} {:>9} {:>9} {:>10}",
        "suite", "frames", "mAP(%)", "gated (J)", "p50 ms", "p99 ms", "stems", "digest"
    );
    for s in &report.suites {
        println!(
            "{:<14} {:>7} {:>8.3} {:>11.3} {:>9.2} {:>9.2} {:>9} {:>10}",
            s.suite,
            s.frames,
            s.map_pct,
            s.total_gated_j,
            s.latency.p50_ms,
            s.latency.p99_ms,
            s.stems_executed,
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
/// `dir`, printing each suite's event and dropped counts.
fn write_traces(dir: &Path, sinks: &[(String, TraceSink)]) -> std::io::Result<()> {
    for (suite, sink) in sinks {
        let trace_path = dir.join(format!("{suite}.trace.json"));
        let prom_path = dir.join(format!("{suite}.prom"));
        write_file(&trace_path, chrome_trace_json(sink))?;
        write_file(&prom_path, prometheus_snapshot(sink))?;
        eprintln!(
            "trace: {} ({} events, {} dropped) + {}",
            trace_path.display(),
            sink.len(),
            sink.dropped(),
            prom_path.display(),
        );
    }
    Ok(())
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
    let trace_dir = args.str("--trace").map(PathBuf::from);
    // Runs the suites, tracing each into `trace_dir` if one was named.
    let run_suites = || {
        let traced = if trace_dir.is_some() { ", traced" } else { "" };
        eprintln!(
            "running workload suites ({scale:?}, {shards} shard(s), {}{traced})...",
            precision.label()
        );
        let (report, sinks) = run_report(scale, &only, shards, precision, trace_dir.is_some())
            .unwrap_or_else(|e| {
                eprintln!("error: suite run failed: {e}");
                std::process::exit(1);
            });
        if let Some(dir) = &trace_dir {
            if let Err(e) = write_traces(dir, &sinks) {
                eprintln!("error: cannot write traces under {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        report
    };

    // The mode is the one positional argument (flags may come before or
    // after it); `bench_report --quick` runs the default report mode.
    match args.positional(0) {
        None => {
            let out = PathBuf::from(args.str("--out").unwrap_or("results/bench_report.json"));
            let report = run_suites();
            print_table(&report);
            if let Err(e) = report.write_json(&out) {
                eprintln!("error: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let mut baseline = match BenchReport::load_json(&baseline_path) {
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
            if !only.is_empty() {
                baseline.suites.retain(|s| only.contains(&s.suite));
            }
            let violations = compare(&baseline, &run_suites());
            for v in &violations {
                eprintln!("  {v}");
            }
            if violations.is_empty() {
                println!(
                    "perf gate PASS: {} suites vs {} (bands: MAP_DROP_PP, ENERGY_GROWTH_FRAC + \
                     ENERGY_FLOOR_J, LATENCY_GROWTH_FRAC + LATENCY_FLOOR_MS in \
                     crates/harness/src/compare.rs)",
                    baseline.suites.len(),
                    baseline_path.display(),
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("perf gate FAIL: {} violation(s)", violations.len());
                eprintln!(
                    "if this drift is deliberate, refresh the baseline:\n\
                       cargo run --release -p ecofusion-bench --bin bench_report -- refresh-baseline"
                );
                ExitCode::FAILURE
            }
        }
        Some("refresh-baseline") => {
            let report = run_suites();
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
