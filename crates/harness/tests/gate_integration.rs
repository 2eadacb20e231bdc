//! End-to-end regression-gate properties: a seeded suite re-run is
//! report-identical (even across shard counts), and a hand-edited
//! baseline trips the gate.

use ecofusion_core::Precision::F32;
use ecofusion_eval::experiments::common::Scale;
use ecofusion_harness::{compare, run_suite, ModelProvider, SuiteId};

#[test]
fn steady_city_quick_rerun_is_report_identical() {
    let provider = ModelProvider::prepare(Scale::Quick);
    // The re-run uses a different shard count on purpose: the whole suite
    // report must be shard-invariant, as CI's shard matrix certifies for
    // the gated fields.
    let a = run_suite(&provider, SuiteId::SteadyCity, Scale::Quick, 1, F32, false)
        .expect("first run")
        .0;
    let b = run_suite(&provider, SuiteId::SteadyCity, Scale::Quick, 2, F32, false)
        .expect("second run")
        .0;
    assert_eq!(a, b);

    // Which is more than compare() asks: wrap the suites in reports and
    // gate the re-run against the first run.
    let wrap = |suite| ecofusion_harness::BenchReport {
        schema: ecofusion_harness::SCHEMA_VERSION,
        build: ecofusion_harness::BuildMeta {
            git_rev: "test".to_string(),
            scale: "quick".to_string(),
            model: provider.label().to_string(),
            grid: ecofusion_harness::SUITE_GRID,
            num_classes: ecofusion_harness::SUITE_CLASSES,
            shards: 1,
        },
        suites: vec![suite],
    };
    let (base, fresh) = (wrap(a), wrap(b));
    let violations = compare(&base, &fresh);
    assert!(violations.is_empty(), "seeded re-run tripped the gate: {violations:?}");

    // And the JSON round trip through the report file format is
    // lossless, so a committed baseline carries the same bits.
    let back = ecofusion_harness::BenchReport::from_json(&base.to_json()).expect("parses");
    assert_eq!(back, base);
}

#[test]
fn hand_edited_baseline_map_fails_the_gate() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let suite =
        run_suite(&provider, SuiteId::SteadyCity, Scale::Quick, 1, F32, false).expect("run").0;
    let report = ecofusion_harness::BenchReport {
        schema: ecofusion_harness::SCHEMA_VERSION,
        build: ecofusion_harness::BuildMeta {
            git_rev: "test".to_string(),
            scale: "quick".to_string(),
            model: provider.label().to_string(),
            grid: ecofusion_harness::SUITE_GRID,
            num_classes: ecofusion_harness::SUITE_CLASSES,
            shards: 1,
        },
        suites: vec![suite],
    };
    // Simulate a baseline whose mAP was edited upward by hand: the
    // honest fresh run must fail the accuracy gate with exactly that
    // violation.
    let mut tampered = report.clone();
    tampered.suites[0].map_pct += 5.0;
    let violations = compare(&tampered, &report);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].metric, "accuracy.map_pct");
    assert_eq!(violations[0].suite, "steady_city");

    // The honest direction still passes.
    assert!(compare(&report, &report).is_empty());
}

#[test]
fn budget_squeeze_reaches_the_emergency_rung() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let suite =
        run_suite(&provider, SuiteId::BudgetSqueeze, Scale::Quick, 1, F32, false).expect("run").0;
    // The ladder for the paper-default base options has 5 rungs; the
    // squeeze must end pinned at the last (int8 knowledge-gate emergency)
    // one, and the frames served there are counted as quantized.
    assert_eq!(suite.max_final_level, 4, "budget squeeze never hit the int8 emergency rung");
    assert!(suite.escalations >= 4);
    assert!(suite.int8_frames > 0, "emergency rung must serve quantized frames");
}

#[test]
fn context_churn_visits_every_radiate_context() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let suite =
        run_suite(&provider, SuiteId::ContextChurn, Scale::Quick, 2, F32, false).expect("run").0;
    assert_eq!(
        suite.contexts_visited.len(),
        ecofusion_scene::Context::ALL.len(),
        "drift walk missed contexts: {:?}",
        suite.contexts_visited
    );
}
