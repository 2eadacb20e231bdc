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
//! It also times the int8 stem and branch plans against their f32
//! counterparts — the compiled plans serving executes, nothing else — on
//! the build host and records the ratios in the written report's
//! `int8_speedup` field — informational provenance for the
//! acceptance criterion ("int8 stems/branches measurably cheaper"), never
//! gated, because wall clock on a shared runner is not a stable
//! measurement device.
//!
//! `--out <path>` (default `results/int8_parity.json`) receives the int8
//! run's `BenchReport` with the measured speedups attached.

use ecofusion_core::Precision;
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_detect::{BranchConfig, BranchDetector, Stem};
use ecofusion_eval::experiments::common::Scale;
use ecofusion_eval::{ParityReport, ParityRow, DEFAULT_MAX_DRIFT_PP};
use ecofusion_harness::{run_report, BenchReport, Int8Speedup};
use ecofusion_tensor::graph::{compile_quant_pipe, CompiledPlan};
use ecofusion_tensor::layer::Layer;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: &[&str] = &["--out", "--bound"];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn parse_f64(args: &[String], flag: &str, default: f64) -> f64 {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects a number, got `{v}`");
            std::process::exit(2);
        }),
    }
}

/// Runs every suite at `scale` with every stream starting at `precision`.
fn run_at(scale: Scale, precision: Precision) -> BenchReport {
    let label = precision.label();
    eprintln!("running workload suites at {label} ({scale:?})...");
    match run_report(scale, &[], 1, precision) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {label} suite run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Median wall-clock seconds of `f` over `iters` runs (after one warmup).
fn time_median(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: page in weights, settle allocator
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median seconds of one warm `plan` execution over `x`.
fn time_plan(iters: usize, plan: &mut CompiledPlan, x: &Tensor) -> f64 {
    let mut out = Tensor::zeros(&plan.out_shape_for(x.shape()[0]));
    time_median(iters, || plan.execute_into(x, &mut out))
}

/// Times the f32 stem/branch plans against their int8 counterparts on
/// suite-shaped inputs and returns the speedup ratios.
fn measure_speedups() -> Int8Speedup {
    const ITERS: usize = 9;
    let mut rng = Rng::new(0xBE9C);
    let grid = ecofusion_harness::SUITE_GRID;

    // Stem: one 1-channel sensor at the suite grid, batch of 4 (the
    // scheduler's typical micro-batch shape).
    let mut stem = Stem::new(1, &mut rng);
    let warm = Tensor::randn(&[4, 1, grid, grid], 1.0, &mut rng);
    for _ in 0..5 {
        let _ = stem.forward(&warm, true); // settle batch-norm stats
    }
    let calib: Vec<Tensor> =
        (0..4).map(|_| Tensor::randn(&[1, 1, grid, grid], 1.0, &mut rng)).collect();
    let (pipe, _) = stem.quantize(&calib).expect("stem quantizes");
    let x = Tensor::randn(&[4, 1, grid, grid], 1.0, &mut rng);
    let stem_f32 = time_plan(ITERS, &mut stem.compile(x.shape()).expect("stem compiles"), &x);
    let mut qplan = compile_quant_pipe(&pipe, x.shape()).expect("stem pipe compiles");
    let stem_int8 = time_plan(ITERS, &mut qplan, &x);

    // Branch: the 4-sensor early-fusion head (the widest branch the
    // gate can select), fed stem features at the suite raster.
    let cfg = BranchConfig {
        num_sensors: 4,
        num_classes: ecofusion_harness::SUITE_CLASSES,
        raster: grid,
    };
    let mut branch = BranchDetector::new(cfg, &mut rng);
    let side = Stem::out_size(grid);
    let c_in = STEM_CHANNELS * cfg.num_sensors;
    let warm = Tensor::randn(&[4, c_in, side, side], 1.0, &mut rng);
    for _ in 0..5 {
        let _ = branch.forward(&warm, true);
    }
    let calib: Vec<Tensor> =
        (0..4).map(|_| Tensor::randn(&[1, c_in, side, side], 1.0, &mut rng)).collect();
    let qbranch = branch.quantize(&calib).expect("branch quantizes");
    let feats = Tensor::randn(&[4, c_in, side, side], 1.0, &mut rng);
    let mut bplan = branch.compile(feats.shape()).expect("branch compiles");
    let branch_f32 = time_plan(ITERS, &mut bplan, &feats);
    let mut qbplan = qbranch.compile(feats.shape()).expect("quant branch compiles");
    let branch_int8 = time_plan(ITERS, &mut qbplan, &feats);

    Int8Speedup { stem: stem_f32 / stem_int8, branch: branch_f32 / branch_int8 }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (i, a) in args.iter().enumerate() {
        let consumed_value = i > 0 && VALUE_FLAGS.contains(&args[i - 1].as_str());
        if !a.starts_with("--") && !consumed_value {
            eprintln!("error: unexpected argument `{a}`");
            return ExitCode::from(2);
        }
    }
    let scale = Scale::from_args(&args);
    let bound = parse_f64(&args, "--bound", DEFAULT_MAX_DRIFT_PP);
    let out = PathBuf::from(
        flag_value(&args, "--out").unwrap_or_else(|| "results/int8_parity.json".into()),
    );

    let f32_report = run_at(scale, Precision::F32);
    let mut int8_report = run_at(scale, Precision::Int8);

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

    eprintln!("timing int8 plans vs f32...");
    let speedup = measure_speedups();
    println!(
        "plan speedup (f32 time / int8 time): stem {:.2}x, branch {:.2}x (informational)",
        speedup.stem, speedup.branch
    );
    int8_report.int8_speedup = Some(speedup);

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
