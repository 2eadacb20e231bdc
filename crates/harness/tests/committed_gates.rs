//! The committed gates, run by `cargo test`: the quick f32 and int8 suites
//! against `baselines/`, the quick `fleet_scale` suite on four shards
//! against the same (one-shard) baseline, and every distilled suite under
//! `suites/distilled/` replayed against its recorded digest and counters
//! and scored against its recorded coverage signature. The library calls
//! are the ones `bench_report compare` and `scenario_search --replay`
//! make, and a failure prints what they print: every band violation, or
//! every drifted field.

use ecofusion_core::Precision;
use ecofusion_eval::experiments::Scale;
use ecofusion_harness::{
    compare, load_distilled_dir, replay_distilled, run_report, run_scenario, BenchReport,
    CoverageSignature, StaleDistilledSuite, Tolerances, DEFAULT_BASELINE_PATH,
    DEFAULT_DISTILLED_DIR, DISTILLED_SCHEMA_VERSION,
};
use std::path::PathBuf;

/// A path relative to the repository root.
fn repo_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative)
}

/// Runs the quick suites named in `only` (all when empty) on `shards`
/// and compares them with the same suites of the committed baseline.
fn gate(precision: Precision, baseline: &str, only: &[&str], shards: usize) {
    let mut baseline =
        BenchReport::load_json(&repo_path(baseline)).expect("committed baseline loads");
    if !only.is_empty() {
        baseline.suites.retain(|s| only.contains(&s.suite.as_str()));
        assert_eq!(baseline.suites.len(), only.len(), "the baseline has every suite of {only:?}");
    }
    let only: Vec<String> = only.iter().map(|s| s.to_string()).collect();
    let (fresh, _) = run_report(Scale::Quick, &only, shards, precision, None).expect("suites run");
    let violations = compare(&baseline, &fresh, &Tolerances::default());
    let listed: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
    assert!(
        violations.is_empty(),
        "perf gate FAIL at {} on {shards} shard(s): {} violation(s)\n{}",
        precision.label(),
        violations.len(),
        listed.join("\n")
    );
}

#[test]
fn quick_f32_suites_pass_the_committed_baseline() {
    gate(Precision::F32, DEFAULT_BASELINE_PATH, &[], 1);
}

/// CI's shard matrix in process: the fleets served by four shards — three
/// of them on the server's worker threads, with stealing — match the
/// one-shard baseline.
#[test]
fn quick_fleet_scale_on_four_shards_passes_the_committed_baseline() {
    gate(Precision::F32, DEFAULT_BASELINE_PATH, &["fleet_scale"], 4);
}

#[test]
fn quick_int8_suites_pass_the_committed_int8_baseline() {
    gate(Precision::Int8, "baselines/bench_baseline_int8.json", &[], 1);
}

#[test]
fn distilled_suites_replay_bit_identically() {
    let suites =
        load_distilled_dir(&repo_path(DEFAULT_DISTILLED_DIR)).expect("distilled suites load");
    assert!(!suites.is_empty(), "no distilled suites under {DEFAULT_DISTILLED_DIR}");
    let mut failures = Vec::new();
    for (path, suite) in &suites {
        match replay_distilled(suite) {
            Ok(drifts) => failures.extend(drifts.iter().map(|d| {
                format!(
                    "  {} ({}): {}: expected {}, got {}",
                    suite.name,
                    path.display(),
                    d.field,
                    d.expected,
                    d.actual
                )
            })),
            Err(e) => {
                failures.push(format!("  {} ({}): replay error {e:?}", suite.name, path.display()))
            }
        }
    }
    assert!(
        failures.is_empty(),
        "scenario regression FAIL: {} drifted field(s)\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Replay checks only the digest and the counters; the recorded
/// signature also pins the float aggregates (mAP, per-stage energy) the
/// rollup computes, bucketed against the scenario's clean twin.
#[test]
fn distilled_suites_keep_their_coverage_signatures() {
    let suites =
        load_distilled_dir(&repo_path(DEFAULT_DISTILLED_DIR)).expect("distilled suites load");
    for (path, suite) in &suites {
        let outcome = run_scenario(&suite.scenario).expect("scenario runs");
        let clean = run_scenario(&suite.scenario.clean_twin()).expect("clean twin runs");
        let signature = CoverageSignature::from_outcomes(&outcome, &clean);
        assert_eq!(signature, suite.signature, "{} ({})", suite.name, path.display());
    }
}

/// A committed suite whose `schema` is not this build's is refused at
/// load, naming the file and both versions, and is not replayed.
#[test]
fn a_version_skewed_distilled_suite_is_rejected() {
    let committed = repo_path(DEFAULT_DISTILLED_DIR).join("auto_s2024_00.json");
    let text = std::fs::read_to_string(&committed).expect("committed suite reads");
    let current = format!("\"schema\": {DISTILLED_SCHEMA_VERSION},");
    assert!(text.contains(&current), "the committed suite carries the current schema");
    let skewed = DISTILLED_SCHEMA_VERSION + 1;
    let dir = std::env::temp_dir().join(format!("ecofusion_stale_suite_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("auto_s2024_00.json");
    std::fs::write(&path, text.replacen(&current, &format!("\"schema\": {skewed},"), 1)).unwrap();

    let err = load_distilled_dir(&dir).expect_err("a stale suite must not load");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let stale = err.get_ref().and_then(|e| e.downcast_ref::<StaleDistilledSuite>());
    assert_eq!(stale, Some(&StaleDistilledSuite { path: path.clone(), schema: skewed }));
    let message = err.to_string();
    assert!(message.contains(&path.display().to_string()), "{message}");
    assert!(message.contains(&format!("schema {skewed}")), "{message}");
    assert!(message.contains(&format!("schema {DISTILLED_SCHEMA_VERSION}")), "{message}");
}
