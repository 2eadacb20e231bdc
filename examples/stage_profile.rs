//! Per-stage profile of the staged perception pipeline.
//!
//! For every driving context this example runs the pipeline three ways —
//! attention gate (all stems), knowledge gate (demand-driven stems), and
//! the knowledge gate under full camera dropout (degraded fallback) —
//! and prints the per-stage modeled energy/latency from the `StageTrace`
//! next to the stems the demand-driven plan actually executed.
//!
//! ```text
//! cargo run --release --example stage_profile            # full profile
//! cargo run --release --example stage_profile -- --smoke # CI smoke
//! ```

use ecofusion::core::pipeline::account_prec;
use ecofusion::energy::{Precision, StageKind, StemPolicy};
use ecofusion::prelude::*;
use ecofusion::tensor::rng::Rng;

const GRID: usize = 32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(33));
    let mut generator = ScenarioGenerator::new(500);
    let suite = SensorSuite::new(GRID);

    let attention = InferenceOptions::new(0.01, 0.5);
    let knowledge = attention.with_gate(GateKind::Knowledge);
    let no_cams = SensorMask::all_available()
        .without(SensorKind::CameraLeft)
        .without(SensorKind::CameraRight);
    // The budget ladder's emergency rung: every configuration is a
    // candidate and λ_E = 1 picks the single cheapest branch.
    let emergency = InferenceOptions {
        lambda_e: 1.0,
        gamma: 1.0e9,
        ..InferenceOptions::new(1.0, 0.5).with_gate(GateKind::Knowledge)
    };

    println!(
        "{:<10} {:>14} {:>14} {:>16} {:>15}",
        "context", "attention", "knowledge", "know.+cam-drop", "emergency rung"
    );
    println!(
        "{:<10} {:>14} {:>14} {:>16} {:>15}",
        "", "stems (cfg)", "stems (cfg)", "stems", "stems"
    );
    let mut pruned_somewhere = false;
    for context in Context::ALL {
        let scene = generator.scene(context);
        let frame = Frame { obs: suite.observe(&scene, &mut Rng::new(9)), scene };
        let a = model.infer(&frame, &attention)?;
        let k = model.infer(&frame, &knowledge)?;
        let d = model.infer(&frame, &knowledge.with_health(no_cams))?;
        let e = model.infer(&frame, &emergency)?;
        // Every served trace is its configuration's adaptive Eq. 11
        // account at the frame's precision, with the stems it ran.
        for out in [&a, &k, &d, &e] {
            let trace = &out.stage_trace;
            let want = account_prec(
                model.px2(),
                model.sensor_power(),
                &model.space().branch_specs(out.selected_config),
                StemPolicy::Adaptive,
                out.precision,
            )
            .with_stem_counts(trace.stems_executed, trace.stems_skipped);
            assert_eq!(*trace, want, "served trace is not its configuration's account");
        }
        println!(
            "{:<10} {:>9}/4     {:>9}/4     {:>11}/4     {:>10}/4",
            format!("{context:?}"),
            a.stage_trace.stems_executed,
            k.stage_trace.stems_executed,
            d.stage_trace.stems_executed,
            e.stage_trace.stems_executed,
        );
        assert_eq!(a.stage_trace.stems_executed, 4, "learned gates need every modality");
        pruned_somewhere |= k.stage_trace.stems_executed < 4;
        assert!(d.stage_trace.stems_executed <= 2, "camera dropout leaves at most L+R");
        assert_eq!(e.stage_trace.stems_executed, 1, "emergency rung runs one branch");
    }
    assert!(pruned_somewhere, "knowledge gate should prune stems in some context");

    // Per-stage accounting of one representative selection (City's
    // early-3 under the adaptive policy), decomposed stage by stage.
    let city = model.space().branch_specs(model.baseline_ids().early);
    let trace = account_prec(
        model.px2(),
        model.sensor_power(),
        &city,
        StemPolicy::Adaptive,
        Precision::F32,
    );
    println!("\nstage accounting for {{E(C_L+C_R+L)}} (adaptive policy):");
    println!("{:<10} {:>12} {:>14}", "stage", "energy (J)", "latency (ms)");
    for stage in StageKind::ALL {
        let cost = trace.cost(stage);
        println!(
            "{:<10} {:>12.4} {:>14.3}",
            stage.label(),
            cost.energy.joules(),
            cost.latency.millis()
        );
    }
    println!(
        "{:<10} {:>12.4} {:>14.3}  (Eq. 11 total)",
        "total",
        trace.total_energy().joules(),
        trace.total_latency().millis()
    );

    if smoke {
        println!("\nok: served traces are their configurations' Eq. 11 accounts; stems prune");
    }
    Ok(())
}
