//! Int8-vs-f32 parity harness: the CI gate on quantization accuracy.
//!
//! ```text
//! # Run every suite twice (f32, then int8) and gate the mAP drift:
//! cargo run --release -p ecofusion-bench --bin int8_parity -- --quick
//!
//! # Widen the per-suite bound (percentage points):
//! cargo run --release -p ecofusion-bench --bin int8_parity -- --quick --bound 2.0
//! ```
//!
//! The harness runs the full workload-suite registry once at f32 and once
//! at int8 (`run_report`'s precision argument — what `bench_report
//! --precision int8` passes too), pairs the per-suite mAP numbers into an
//! [`ecofusion_eval::ParityReport`], and exits nonzero when any suite's
//! drift exceeds the bound (default
//! [`ecofusion_eval::DEFAULT_MAX_DRIFT_PP`]). NaN mAP on either side is a
//! violation, never a vacuous pass.
//!
//! What the int8 plans cost against f32 is the serving benchmark's to
//! say (`benchmark/run.sh --trace 1`: `tensor.stem_plan_us.{f32,i8}`, and
//! the `squeeze_int8` workload end to end); this harness gates accuracy
//! only.
//!
//! `--out <path>` (default `results/int8_parity.json`) receives the int8
//! run's `BenchReport`. `--bound` is finite and ≥ 0; a typo exits 2.

use ecofusion_bench::cli::{Args, INT8_PARITY};
use ecofusion_core::Precision;
use ecofusion_eval::experiments::common::Scale;
use ecofusion_eval::{ParityReport, ParityRow, DEFAULT_MAX_DRIFT_PP};
use ecofusion_harness::{run_report, BenchReport};
use std::path::PathBuf;
use std::process::ExitCode;

/// Runs every suite at `scale` with every stream starting at `precision`.
fn run_at(scale: Scale, precision: Precision) -> BenchReport {
    let label = precision.label();
    eprintln!("running workload suites at {label} ({scale:?})...");
    match run_report(scale, &[], 1, precision, None) {
        Ok((r, _)) => r,
        Err(e) => {
            eprintln!("error: {label} suite run failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() -> ExitCode {
    let args = Args::from_env(&INT8_PARITY);
    let scale = args.scale();
    let bound = args.band("--bound", DEFAULT_MAX_DRIFT_PP);
    let out = PathBuf::from(args.str("--out").unwrap_or("results/int8_parity.json"));

    let f32_report = run_at(scale, Precision::F32);
    let int8_report = run_at(scale, Precision::Int8);

    // Pair suites by name; a suite present in one run but not the other
    // would mean the precision changed the registry, which must never
    // happen silently.
    let mut rows = Vec::new();
    for f in &f32_report.suites {
        let Some(q) = int8_report.suite(&f.suite) else {
            eprintln!("error: suite `{}` missing from the int8 run", f.suite);
            return ExitCode::FAILURE;
        };
        rows.push(ParityRow {
            suite: f.suite.clone(),
            map_f32_pct: f.map_pct,
            map_int8_pct: q.map_pct,
        });
    }
    if rows.len() != int8_report.suites.len() {
        eprintln!("error: int8 run has suites absent from the f32 run");
        return ExitCode::FAILURE;
    }
    let parity = ParityReport::new(rows).with_bound(bound);

    print!("{}", parity.render());
    if let Err(e) = int8_report.write_json(&out) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out.display());

    if parity.passes() {
        ExitCode::SUCCESS
    } else {
        eprintln!("int8 parity FAIL: mAP drift past {bound} pp");
        ExitCode::FAILURE
    }
}
