//! Regenerates the paper's artifacts, one subcommand each:
//!
//! ```text
//! cargo run --release -p ecofusion-bench --bin paper -- table1 [--full] [--json]
//! cargo run --release -p ecofusion-bench --bin paper -- all --full --json
//! ```
//!
//! * `table1`, `table2`, `table3` — paper Tables 1–3 (`table3` is pure
//!   energy-model arithmetic; the others train first).
//! * `fig1`, `fig4`, `fig5` — paper Figures 1, 4 and 5.
//! * `ablations [gamma|rule|fusion|gate|all]` — the DESIGN.md ablation
//!   studies (default `all`).
//! * `robustness` — the fault-matrix sweep: every (fault, severity,
//!   context) cell clean vs. fault-blind vs. fault-aware.
//! * `all` — every table, figure and ablation table from a single shared
//!   training run.
//! * `debug_detect [--grid N] [--epochs N] [--scenes N]` — per-branch
//!   detection quality on a single-context dataset. Not part of the paper
//!   reproduction; used to tune training.
//!
//! `--full` runs the full-scale harness instead of the quick one; `--json`
//! also writes each result to `results/<artifact>.json`.

use ecofusion_bench::cli::{usage_error, Args, PAPER};
use ecofusion_bench::write_file;
use ecofusion_core::{Dataset, DatasetMix, DatasetSpec, InferenceOptions, TrainConfig, Trainer};
use ecofusion_detect::BBox;
use ecofusion_eval::experiments::robustness::{run_robustness, RobustnessSpec};
use ecofusion_eval::experiments::{
    ablations, fig1, fig4, fig5, table1, table2, table3, Scale, Setup,
};
use ecofusion_eval::{map_voc, GtFrame};
use ecofusion_faults::FaultKind;
use ecofusion_gating::GateKind;
use ecofusion_scene::Context;
use serde::Serialize;
use std::path::PathBuf;

const ARTIFACTS: &str =
    "table1, table2, table3, fig1, fig4, fig5, ablations, robustness, all, debug_detect";
const ABLATIONS: [&str; 5] = ["gamma", "rule", "fusion", "gate", "all"];

/// Prints one result and, under `--json`, writes it to `results/<name>.json`.
macro_rules! emit {
    ($json:expr, $name:literal, $result:expr) => {{
        let result = $result;
        result.print();
        if $json {
            save_json($name, &result);
        }
    }};
}

/// Writes `value` to `results/<name>.json`. A failure is a warning: the
/// table on stdout is the primary artifact.
fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = PathBuf::from(format!("results/{name}.json"));
    match serde_json::to_string_pretty(value).map(|text| write_file(&path, text)) {
        Ok(Ok(())) => eprintln!("wrote {}", path.display()),
        Ok(Err(e)) => eprintln!("warning: cannot write {}: {e}", path.display()),
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

fn prepare(scale: Scale, seed: u64) -> Setup {
    eprintln!("preparing setup ({scale:?})...");
    Setup::prepare(scale, seed)
}

/// The ablation tables selected by `which` (`gamma`, `rule`, `fusion` or
/// `all`), printed and written as one `ablations` artifact.
fn ablation_tables(setup: &mut Setup, json: bool, which: &str) {
    let mut results = Vec::new();
    if which == "gamma" || which == "all" {
        results.push(ablations::gamma_sweep(setup));
    }
    if which == "rule" || which == "all" {
        results.push(ablations::candidate_rule(setup));
    }
    if which == "fusion" || which == "all" {
        results.push(ablations::fusion_block(setup));
    }
    for r in &results {
        r.print();
    }
    if json {
        save_json("ablations", &results);
    }
}

/// Gate-quality analytics: how close the learned gates get to the oracle
/// (paper §5.1 attributes the gap to modeling limitations).
fn gate_quality(setup: &mut Setup) {
    let opts = InferenceOptions::new(0.05, 0.5);
    let samples = setup.model.oracle_pass(setup.dataset.test(), &opts).expect("matching grid");
    println!("Gate quality vs oracle (lambda_E = 0.05, gamma = 0.5)");
    for gate in [GateKind::Deep, GateKind::Attention] {
        let q = ecofusion_eval::assess_gate(&mut setup.model, &samples, gate, 0.05, 0.5);
        println!(
            "  {:<10} spearman {:.3}, top-1 agreement {:.1}%, joint regret {:.4}",
            q.gate,
            q.mean_spearman,
            q.top1_agreement * 100.0,
            q.mean_regret
        );
    }
}

fn robustness(scale: Scale, json: bool) {
    let mut setup = Setup::prepare(scale, 97);
    let mut spec = RobustnessSpec::quick(97, setup.model.grid());
    if scale == Scale::Full {
        spec.frames = 32;
        spec.faults = FaultKind::ALL.to_vec();
        spec.severities = vec![0.25, 0.5, 1.0];
        spec.contexts = Context::ALL.to_vec();
    }
    emit!(json, "robustness", run_robustness(&mut setup.model, setup.num_classes, &spec));
}

/// Every paper artifact from one shared training run.
fn all(scale: Scale, json: bool) {
    eprintln!("preparing shared setup ({scale:?})...");
    let mut setup = Setup::prepare(scale, 42);
    emit!(json, "table3", table3::run());
    emit!(json, "table1", table1::run(&mut setup));
    emit!(json, "table2", table2::run(&mut setup));
    emit!(json, "fig1", fig1::run(&mut setup));
    emit!(json, "fig5", fig5::run(&mut setup));
    emit!(json, "fig4", fig4::run(&mut setup));
    ablation_tables(&mut setup, json, "all");
}

fn debug_detect(args: &Args) {
    let grid = args.int("--grid", 48);
    let epochs = args.int("--epochs", 10);
    let scenes = args.int("--scenes", 100);
    let spec = DatasetSpec {
        seed: 5,
        grid,
        num_scenes: scenes,
        train_fraction: 0.7,
        mix: DatasetMix::Single(Context::City),
    };
    let data = Dataset::generate(&spec);
    let mut config = TrainConfig {
        grid,
        branch_epochs: epochs,
        gate_epochs: 1,
        verbose: true,
        ..TrainConfig::fast_demo()
    };
    config.num_classes = 8;
    let mut trainer = Trainer::new(config, 6);
    let mut model = trainer.train(&data).expect("train");
    let opts = InferenceOptions::new(0.0, 0.5);

    // Per-branch diagnostics over train and test splits.
    let branch_labels: Vec<String> = model.space().branches().iter().map(|b| b.label()).collect();
    for (split, frames) in [("train", data.train()), ("test", data.test())] {
        println!("--- split: {split} ---");
        let samples = model.oracle_pass(frames, &opts).expect("matching grid");
        for (b, label) in branch_labels.iter().enumerate() {
            let mut n_dets = 0usize;
            let mut n_gts = 0usize;
            let mut iou_sum = 0.0f32;
            let mut matched = 0usize;
            let mut dets_per_frame = Vec::new();
            let mut gt_frames = Vec::new();
            for (f, sample) in frames.iter().zip(&samples) {
                let dets = sample.branch_dets[b].clone();
                let gts = f.gt_boxes();
                n_dets += dets.len();
                n_gts += gts.len();
                for gt in &gts {
                    let gb: BBox = (*gt).into();
                    let best = dets.iter().map(|d| d.bbox.iou(&gb)).fold(0.0f32, f32::max);
                    if best > 0.0 {
                        iou_sum += best;
                        matched += 1;
                    }
                }
                dets_per_frame.push(dets);
                gt_frames.push(GtFrame { boxes: gts });
            }
            let ap = map_voc(&dets_per_frame, &gt_frames, 8, 0.5) * 100.0;
            let ap35 = map_voc(&dets_per_frame, &gt_frames, 8, 0.35) * 100.0;
            println!(
                "branch {:<16} dets {:>4} vs gts {:>4} | mean best IoU {:.3} ({} matched) | mAP@.5 {:>6.2}% mAP@.35 {:>6.2}%",
                label,
                n_dets,
                n_gts,
                iou_sum / matched.max(1) as f32,
                matched,
                ap,
                ap35,
            );
        }
    }

    // Late fusion mAP.
    let late = model.baseline_ids().late;
    let mut dets_per_frame = Vec::new();
    let mut gt_frames = Vec::new();
    for f in data.test() {
        let (dets, _) = model.detect_static(f, late, &opts).expect("matching grid");
        dets_per_frame.push(dets);
        gt_frames.push(GtFrame { boxes: f.gt_boxes() });
    }
    println!(
        "late fusion mAP@.5 = {:.2}%  mAP@.35 = {:.2}%",
        map_voc(&dets_per_frame, &gt_frames, 8, 0.5) * 100.0,
        map_voc(&dets_per_frame, &gt_frames, 8, 0.35) * 100.0
    );
}

fn main() {
    let args = Args::from_env(&PAPER);
    let (scale, json) = (args.scale(), args.switch("--json"));
    let artifact = args.positional(0);
    // Only `ablations` takes a second positional: which tables.
    let which = match (artifact, args.positional(1)) {
        (_, None) => "all",
        (Some("ablations"), Some(w)) if ABLATIONS.contains(&w) => w,
        (_, Some(other)) => usage_error(&format!("unexpected argument `{other}`")),
    };
    match artifact {
        Some("table3") => emit!(json, "table3", table3::run()),
        Some("table1") => emit!(json, "table1", table1::run(&mut prepare(scale, 42))),
        Some("table2") => emit!(json, "table2", table2::run(&mut prepare(scale, 42))),
        Some("fig1") => emit!(json, "fig1", fig1::run(&mut prepare(scale, 42))),
        Some("fig4") => emit!(json, "fig4", fig4::run(&mut prepare(scale, 42))),
        Some("fig5") => emit!(json, "fig5", fig5::run(&mut prepare(scale, 42))),
        Some("ablations") => {
            let mut setup = prepare(scale, 42);
            ablation_tables(&mut setup, json, which);
            if which == "gate" || which == "all" {
                gate_quality(&mut setup);
            }
        }
        Some("robustness") => robustness(scale, json),
        Some("all") => all(scale, json),
        Some("debug_detect") => debug_detect(&args),
        other => usage_error(&format!(
            "expected an artifact ({ARTIFACTS}), got {}",
            other.map_or("nothing".to_string(), |o| format!("`{o}`"))
        )),
    }
}
