//! The λ_E energy–performance dial (the workload behind the paper's
//! Fig. 4): sweeping λ_E from 0 (performance-only) to 1 (energy-only)
//! trades loss for energy along a Pareto-like frontier.
//!
//! ```text
//! cargo run --release --example energy_tradeoff            # demo scale
//! cargo run --release --example energy_tradeoff -- --smoke  # CI smoke
//! ```

use ecofusion::detect::fusion_loss;
use ecofusion::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut spec = DatasetSpec::small(21);
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
    let mut model = Trainer::new(config, 21).train(&dataset)?;

    println!(
        "{:>8} | {:>10} | {:>10} | {:>12}",
        "lambda_E", "avg loss", "energy (J)", "latency (ms)"
    );
    let sweep: &[f64] =
        if smoke { &[0.0, 0.05, 1.0] } else { &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0] };
    let mut energies = Vec::new();
    for &lambda in sweep {
        let opts = InferenceOptions::new(lambda, 0.5).with_gate(GateKind::Attention);
        let mut loss = 0.0f64;
        let mut energy = 0.0f64;
        let mut latency = 0.0f64;
        for frame in dataset.test() {
            let out = model.infer(frame, &opts)?;
            loss += fusion_loss(&out.detections, &frame.gt_boxes()).total() as f64;
            energy += out.energy_joules();
            latency += out.stage_trace.total_latency().millis();
        }
        let n = dataset.test().len() as f64;
        energies.push(energy / n);
        println!(
            "{:>8} | {:>10.3} | {:>10.3} | {:>12.2}",
            lambda,
            loss / n,
            energy / n,
            latency / n
        );
    }
    // The dial must actually trade: the energy-only end of the sweep may
    // not spend more than the performance-only end.
    assert!(
        energies.last().unwrap() <= energies.first().unwrap(),
        "lambda_E = 1 spent more energy than lambda_E = 0"
    );
    println!("\nRaising lambda_E buys energy with (bounded, via gamma) loss increase —");
    println!("the dial a deployment tunes to its battery and safety budget.");
    Ok(())
}
