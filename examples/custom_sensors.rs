//! Using the substrate crates directly: render raw observations, run a
//! single branch, and fuse hand-built detector outputs with weighted boxes
//! fusion — the building blocks a downstream project would compose into
//! its own pipeline.
//!
//! ```text
//! cargo run --example custom_sensors            # full output
//! cargo run --example custom_sensors -- --smoke  # CI smoke (same run,
//!                                                # already instant)
//! ```

use ecofusion::detect::{weighted_boxes_fusion, BBox, Detection};
use ecofusion::prelude::*;
use ecofusion::scene::{ObjectClass, SceneObject};
use ecofusion::tensor::rng::Rng;

fn main() {
    // No training and no sweep here: --smoke runs the identical (already
    // instant) workload, and the asserts below give CI something to fail.
    let _smoke = std::env::args().any(|a| a == "--smoke");
    // 1. Author a scene by hand instead of sampling one.
    let mut scene = Scene::empty(Context::Fog, 0);
    scene.objects.push(SceneObject::new(ObjectClass::Car, -3.0, 12.0));
    scene.objects.push(SceneObject::new(ObjectClass::Truck, 4.0, 18.0));
    scene.objects.push(SceneObject::new(ObjectClass::Pedestrian, 0.5, 6.0));

    // 2. Render it through the four-sensor rig.
    let suite = SensorSuite::new(48);
    let obs = suite.observe(&scene, &mut Rng::new(3));
    for kind in SensorKind::ALL {
        let g = obs.grid(kind);
        println!(
            "{:<12} grid mean {:.4}, max {:.3} (fog hits optics, radar barely)",
            kind.abbrev(),
            g.mean(),
            g.max()
        );
    }

    // 3. Ground truth in grid coordinates.
    let gts = scene.ground_truth_boxes(48);
    println!("\nground truth: {} boxes, first at ({:.1}, {:.1})", gts.len(), gts[0].x1, gts[0].y1);

    // 4. Fuse synthetic per-model detections with the paper's WBF block.
    let camera_guess = vec![Detection::new(BBox::new(10.0, 20.0, 16.0, 28.0), 0, 0.4)];
    let radar_guess = vec![Detection::new(BBox::new(10.5, 20.5, 16.5, 28.5), 0, 0.7)];
    let fused = weighted_boxes_fusion(&[camera_guess, radar_guess], &WbfParams::default(), 2);
    assert_eq!(fused.len(), 1, "overlapping same-class boxes must fuse to one");
    assert!(fused[0].score >= 0.4, "WBF may not discard the confident radar hit");
    println!(
        "\nWBF fused {} detection(s); top box ({:.1}, {:.1})-({:.1}, {:.1}) score {:.2}",
        fused.len(),
        fused[0].bbox.x1,
        fused[0].bbox.y1,
        fused[0].bbox.x2,
        fused[0].bbox.y2,
        fused[0].score
    );

    // 5. Energy accounting for a custom branch mix: the Eq. 11 stage
    //    trace of the PX2 and sensor models.
    use ecofusion::energy::{BranchSpec, Precision, StemPolicy};
    let my_config = vec![
        BranchSpec::Single(SensorKind::Radar),
        BranchSpec::Early(vec![SensorKind::CameraLeft, SensorKind::CameraRight]),
    ];
    let trace = StageTrace::compute_prec(
        &Px2Model::default(),
        &SensorPowerModel::default(),
        &my_config,
        StemPolicy::Static,
        Precision::F32,
    );
    println!(
        "\ncustom config {{R + E(C_L+C_R)}}: {} / {} (static pipeline)",
        trace.platform_energy(),
        trace.total_latency(),
    );
}
