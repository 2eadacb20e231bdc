//! Batched inference.
//!
//! `EcoFusionModel::infer_batch` amortizes the four stems, the gate pass,
//! and branch execution across a whole batch of frames, with per-frame
//! results identical to sequential `infer`.
//!
//! ```text
//! cargo run --release --example batched_inference            # demo scale
//! cargo run --release --example batched_inference -- --smoke  # CI smoke
//! ```

use ecofusion::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut spec = DatasetSpec::small(42);
    let mut config = TrainConfig::fast_demo();
    if smoke {
        spec.num_scenes = 24;
        config.branch_epochs = 1;
        config.gate_epochs = 1;
    }
    let dataset = Dataset::generate(&spec);
    let mut trainer = Trainer::new(config, 42);
    let mut model = trainer.train(&dataset)?;
    let frames: Vec<Frame> = dataset.test().to_vec();
    let opts = InferenceOptions::new(0.01, 0.5);

    // Sequential vs batched over the same frames: identical outputs, one
    // shared stem/gate/branch pass instead of one per frame.
    let t = Instant::now();
    let mut sequential = Vec::new();
    for frame in &frames {
        sequential.push(model.infer(frame, &opts)?);
    }
    let t_seq = t.elapsed();
    let t = Instant::now();
    let batched = model.infer_batch(&frames, &opts)?;
    let t_batch = t.elapsed();
    assert_eq!(sequential.len(), batched.len());
    for (s, b) in sequential.iter().zip(&batched) {
        assert_eq!(s.selected_config, b.selected_config);
        assert_eq!(s.detections, b.detections);
    }
    println!(
        "{} frames: sequential {:>7.1} ms, batched {:>7.1} ms ({:.2}x)",
        frames.len(),
        t_seq.as_secs_f64() * 1e3,
        t_batch.as_secs_f64() * 1e3,
        t_seq.as_secs_f64() / t_batch.as_secs_f64()
    );
    Ok(())
}
