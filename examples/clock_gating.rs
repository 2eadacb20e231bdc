//! Sensor clock gating (the paper's §5.5.2 / Table 3): how much energy the
//! knowledge-gated EcoFusion saves per driving scenario when unused
//! sensors stop measuring (motors keep spinning for safety).
//!
//! Pure energy-model arithmetic — no training, instant.
//!
//! ```text
//! cargo run --example clock_gating            # full output
//! cargo run --example clock_gating -- --smoke  # CI smoke (same run,
//!                                              # already instant)
//! ```

use ecofusion::core::{default_knowledge_rules, ConfigId, ConfigSpace};
use ecofusion::energy::{Precision, SensorSpec, SensorState, StemPolicy};
use ecofusion::prelude::*;
use ecofusion::sensors::SensorKind;

fn main() {
    // Pure energy-model arithmetic: --smoke runs the identical workload
    // (it is already CI-fast); the assertions below make the smoke run a
    // real check rather than a print-and-exit.
    let _smoke = std::env::args().any(|a| a == "--smoke");
    let space = ConfigSpace::canonical();
    let rules = default_knowledge_rules(&space);
    let px2 = Px2Model::default();
    let sensors = SensorPowerModel::default();

    // Reproduce Table 3 row by row: each configuration's Eq. 11 trace
    // under the static policy.
    let trace = |config: ConfigId| {
        let specs = space.branch_specs(config);
        StageTrace::compute_prec(&px2, &sensors, &specs, StemPolicy::Static, Precision::F32)
    };
    // The late-fusion baseline keeps every sensor measuring.
    let late_total = trace(space.baseline_ids().late).platform_energy()
        + sensors.total_frame_energy_all_active();
    println!("late fusion baseline: {late_total} per frame in every scenario\n");
    println!(
        "{:<8} {:<34} {:>10} {:>9}",
        "scene", "knowledge-gate configuration", "total (J)", "savings"
    );
    for context in Context::ALL {
        let config = ConfigId(rules[&context]);
        let total = trace(config).total_energy().joules();
        // Table 3's core claim: whenever the knowledge config leaves a
        // sensor unused, clock gating beats the always-on late-fusion
        // baseline. (Fog/Snow keep all four sensors busy and pay extra
        // branch compute, so their rows legitimately show no savings.)
        let used = Px2Model::sensors_used(&space.branch_specs(config));
        if used.len() < SensorKind::ALL.len() {
            assert!(
                total < late_total.joules(),
                "{} idles a sensor yet spends more than late fusion",
                context.label()
            );
        }
        println!(
            "{:<8} {:<34} {:>10.2} {:>8.1}%",
            context.label(),
            space.label(config),
            total,
            (late_total.joules() - total) / late_total.joules() * 100.0
        );
    }

    // What-if: a next-generation solid-state lidar with no motor.
    let mut future = SensorPowerModel::default();
    future.set_spec(SensorKind::Lidar, SensorSpec { power_w: 8.0, motor_w: 0.0, rate_hz: 10.0 });
    let gated_now = sensors.frame_energy(SensorKind::Lidar, SensorState::Gated);
    let gated_future = future.frame_energy(SensorKind::Lidar, SensorState::Gated);
    println!(
        "\nwhat-if solid-state lidar: gated frame energy {} -> {} (motor eliminated)",
        gated_now, gated_future
    );

    // Temporal controller (paper §5.5.2's future-work paragraph): gate a
    // sensor only after it has been idle for a hold window; rotating
    // sensors pay a spin-up delay when demanded again.
    use ecofusion::core::{ClockGatingController, EpisodeEnergyReport};
    let mut controller = ClockGatingController::new(3, 2);
    // A 60-frame city episode: cameras + lidar wanted, radar never.
    let city_demand: Vec<Vec<SensorKind>> = (0..60)
        .map(|_| vec![SensorKind::CameraLeft, SensorKind::CameraRight, SensorKind::Lidar])
        .collect();
    let report = EpisodeEnergyReport::simulate(&mut controller, &sensors, &city_demand);
    assert!(report.savings_pct() > 0.0, "gating an idle radar must save energy");
    println!(
        "\ntemporal controller over a {}-frame city episode: {} gated vs {} always-on ({:.1}% saved)",
        report.frames,
        report.gated,
        report.always_on,
        report.savings_pct()
    );
}
