//! Quickstart: generate data, train EcoFusion, run adaptive inference.
//!
//! ```text
//! cargo run --release --example quickstart           # demo scale
//! cargo run --release --example quickstart -- --smoke # CI smoke
//! ```

use ecofusion::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // 1. A small synthetic RADIATE-like dataset (70:30 split), fully
    //    deterministic in the seed.
    let mut spec = DatasetSpec::small(42);
    if smoke {
        spec.num_scenes = 24;
    }
    let dataset = Dataset::generate(&spec);
    println!(
        "dataset: {} train / {} test frames at {}x{} px",
        dataset.train().len(),
        dataset.test().len(),
        dataset.grid(),
        dataset.grid()
    );

    // 2. Train the stems + branches, then the gates (a couple of minutes
    //    of CPU at this demo scale; seconds under --smoke).
    let mut config = TrainConfig::fast_demo();
    config.verbose = true;
    if smoke {
        config.branch_epochs = 1;
        config.gate_epochs = 1;
    }
    let mut trainer = Trainer::new(config, 42);
    let mut model = trainer.train(&dataset)?;

    // 3. Adaptive inference with the attention gate: the gate looks at the
    //    stem features, the joint optimizer (Eq. 7-9) picks the cheapest
    //    configuration within gamma of the predicted-best loss.
    let opts = InferenceOptions::new(0.01, 0.5);
    for frame in dataset.test().iter().take(5) {
        let out = model.infer(frame, &opts)?;
        println!(
            "context {:<6} -> selected {:<28} {} detections, {:>5.3} J, {:>6.2} ms",
            frame.scene.context.label(),
            out.selected_label,
            out.detections.len(),
            out.energy_joules(),
            out.stage_trace.total_latency().millis(),
        );
    }

    // 4. Compare with the static late-fusion baseline on the same frames.
    let late = model.baseline_ids().late;
    let (dets, trace) = model.detect_static(&dataset.test()[0], late, &opts)?;
    println!(
        "late fusion baseline: {} detections at {:.3} J / {:.2} ms per frame",
        dets.len(),
        trace.platform_energy().joules(),
        trace.total_latency().millis()
    );
    Ok(())
}
