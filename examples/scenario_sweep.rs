//! Scenario sweep: how each fusion method behaves per driving context
//! (the workload behind the paper's Fig. 5).
//!
//! ```text
//! cargo run --release --example scenario_sweep            # demo scale
//! cargo run --release --example scenario_sweep -- --smoke  # CI smoke
//! ```

use ecofusion::core::{Dataset, DatasetMix, DatasetSpec};
use ecofusion::detect::fusion_loss;
use ecofusion::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut spec = DatasetSpec::small(7);
    if smoke {
        spec.num_scenes = 24;
    }
    let dataset = Dataset::generate(&spec);
    let mut config = TrainConfig::fast_demo();
    config.verbose = true;
    if smoke {
        config.branch_epochs = 1;
        config.gate_epochs = 1;
    }
    let mut model = Trainer::new(config, 7).train(&dataset)?;
    let opts = InferenceOptions::new(0.01, 0.5);
    let b = model.baseline_ids();

    println!(
        "{:<6} | {:>12} | {:>12} | {:>12} | {:>18}",
        "scene", "none (radar)", "early", "late", "ecofusion (attn)"
    );
    let contexts: &[Context] = if smoke {
        &[Context::City, Context::Fog] // one clear + one adverse context
    } else {
        &Context::ALL
    };
    for (ci, context) in contexts.iter().copied().enumerate() {
        // A fresh evaluation set per context, disjoint from training.
        let eval = Dataset::generate(&DatasetSpec {
            seed: 1000 + ci as u64,
            grid: dataset.grid(),
            num_scenes: if smoke { 6 } else { 12 },
            train_fraction: 0.5,
            mix: DatasetMix::Single(context),
        });
        let frames: Vec<_> = eval.train().iter().chain(eval.test().iter()).collect();
        let avg_loss = |model: &mut EcoFusionModel, config| {
            let mut s = 0.0;
            for f in &frames {
                let (dets, _, _) = model.detect_static(f, config, &opts).expect("matching grid");
                s += fusion_loss(&dets, &f.gt_boxes()).total();
            }
            s / frames.len() as f32
        };
        let none = avg_loss(&mut model, b.radar);
        let early = avg_loss(&mut model, b.early);
        let late = avg_loss(&mut model, b.late);
        let mut eco = 0.0;
        for f in &frames {
            let out = model.infer(f, &opts)?;
            eco += fusion_loss(&out.detections, &f.gt_boxes()).total();
        }
        eco /= frames.len() as f32;
        println!(
            "{:<6} | {:>12.2} | {:>12.2} | {:>12.2} | {:>18.2}",
            context.label(),
            none,
            early,
            late,
            eco
        );
    }
    println!("\nLower is better; early fusion should degrade in Fog/Snow while");
    println!("EcoFusion tracks late fusion at a fraction of the energy.");
    Ok(())
}
