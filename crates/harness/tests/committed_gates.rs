//! The committed gates — every one of them, run by `cargo test`: the
//! quick f32 and int8 suites against `baselines/`, the int8 suites' mAP
//! within the parity bound of the f32 suites', the quick `fleet_scale`
//! suite on four shards against the same (one-shard) baseline, and every
//! distilled suite under `suites/distilled/` replayed against its
//! recorded digest and counters and scored against its recorded coverage
//! signature. A failure prints every violation or drifted field, and the
//! command line that reproduces it (or re-records what it pins).

use ecofusion_core::Precision;
use ecofusion_eval::experiments::Scale;
use ecofusion_eval::{ParityReport, ParityRow};
use ecofusion_harness::{
    compare, load_distilled_dir, replay_distilled, run_report, run_scenario, BenchReport,
    CoverageSignature, DistilledSuite, StaleDistilledSuite, DEFAULT_BASELINE_PATH,
    DEFAULT_DISTILLED_DIR, DISTILLED_SCHEMA_VERSION,
};
use std::path::PathBuf;
use std::sync::OnceLock;

const BENCH_REPORT: &str = "cargo run --release -p ecofusion-bench --bin bench_report --";
const SCENARIO_SEARCH: &str = "cargo run --release -p ecofusion-bench --bin scenario_search --";
const INT8_BASELINE: &str = "baselines/bench_baseline_int8.json";
const TRACE_DIR: &str = "results/trace";

/// A path relative to the repository root.
fn repo_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative)
}

/// Every quick suite on one shard with every stream starting at
/// `precision`, run once per test binary: the baseline gate and the
/// parity test read the same report, and the f32 and int8 runs still
/// proceed in parallel on the test threads that first ask for them.
fn quick_report(precision: Precision) -> &'static BenchReport {
    static F32: OnceLock<BenchReport> = OnceLock::new();
    static INT8: OnceLock<BenchReport> = OnceLock::new();
    let cell = match precision {
        Precision::F32 => &F32,
        Precision::Int8 => &INT8,
    };
    cell.get_or_init(|| run_report(Scale::Quick, &[], 1, precision, false).expect("suites run").0)
}

/// Compares `fresh`, run at `precision` over the suites named in `only`
/// (all when empty), with the same suites of the committed `baseline`.
fn gate(precision: Precision, baseline: &str, fresh: &BenchReport, only: &[&str]) {
    let mut base = BenchReport::load_json(&repo_path(baseline)).expect("committed baseline loads");
    if !only.is_empty() {
        base.suites.retain(|s| only.contains(&s.suite.as_str()));
        assert_eq!(base.suites.len(), only.len(), "the baseline has every suite of {only:?}");
    }
    let violations = compare(&base, fresh);
    let shards = fresh.build.shards;
    let mut command = format!("{BENCH_REPORT} compare --quick --trace {TRACE_DIR}");
    if precision != Precision::F32 {
        command += &format!(" --precision {} --baseline {baseline}", precision.label());
    }
    for suite in only {
        command += &format!(" --suite {suite}");
    }
    if shards != 1 {
        command += &format!(" --shards {shards}");
    }
    let listed: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
    assert!(
        violations.is_empty(),
        "perf gate FAIL at {} on {shards} shard(s): {} violation(s)\n{}\n\
         reproduce (each suite's Chrome trace and Prometheus snapshot land in \
         {TRACE_DIR}/<suite>.trace.json and .prom):\n  {command}",
        precision.label(),
        violations.len(),
        listed.join("\n")
    );
}

#[test]
fn quick_f32_suites_pass_the_committed_baseline() {
    gate(Precision::F32, DEFAULT_BASELINE_PATH, quick_report(Precision::F32), &[]);
}

/// The fleets served by four shards — three of them on the server's
/// worker threads, with stealing — match the one-shard baseline.
#[test]
fn quick_fleet_scale_on_four_shards_passes_the_committed_baseline() {
    let only = ["fleet_scale"];
    let names: Vec<String> = only.iter().map(|s| s.to_string()).collect();
    let (fresh, _) =
        run_report(Scale::Quick, &names, 4, Precision::F32, false).expect("suites run");
    gate(Precision::F32, DEFAULT_BASELINE_PATH, &fresh, &only);
}

#[test]
fn quick_int8_suites_pass_the_committed_int8_baseline() {
    gate(Precision::Int8, INT8_BASELINE, quick_report(Precision::Int8), &[]);
}

/// The accuracy side of the int8 rung: served quantized, no quick suite
/// loses more mAP against its f32 run than the parity bound allows
/// (`DEFAULT_MAX_DRIFT_PP`; NaN on either side fails).
#[test]
fn quick_int8_suites_keep_their_f32_map_within_the_parity_bound() {
    // Int8 first: the f32 gate sorts ahead of this test, so its report
    // is likely being built on another thread already.
    let int8s = quick_report(Precision::Int8);
    let f32s = quick_report(Precision::F32);
    let names = |r: &BenchReport| r.suites.iter().map(|s| s.suite.clone()).collect::<Vec<_>>();
    assert_eq!(names(f32s), names(int8s), "both precisions run the same suites");
    let rows = f32s.suites.iter().zip(&int8s.suites);
    let parity = ParityReport::new(
        rows.map(|(f, q)| ParityRow {
            suite: f.suite.clone(),
            map_f32_pct: f.map_pct,
            map_int8_pct: q.map_pct,
        })
        .collect(),
    );
    assert!(
        parity.passes(),
        "int8 parity FAIL: mAP drift past {} pp\n{}\
         reproduce: compare the mAP(%) columns of\n  {BENCH_REPORT} --quick\n  \
         {BENCH_REPORT} --quick --precision int8",
        parity.max_drift_pp,
        parity.render()
    );
}

/// The committed distilled suites, with their paths.
fn distilled_suites() -> Vec<(PathBuf, DistilledSuite)> {
    let suites =
        load_distilled_dir(&repo_path(DEFAULT_DISTILLED_DIR)).expect("distilled suites load");
    assert!(!suites.is_empty(), "no distilled suites under {DEFAULT_DISTILLED_DIR}");
    suites
}

/// How to re-record `suites` after a deliberate behaviour change.
fn rerecord(suites: &[(PathBuf, DistilledSuite)]) -> String {
    let seed = suites[0].1.provenance.search_seed;
    format!(
        "if the behaviour change is deliberate, re-record the suites and commit them:\n  \
         {SCENARIO_SEARCH} --search --seed {seed} --emit {}\n  \
         (or, on the corpus --search saved: {SCENARIO_SEARCH} --minimize --corpus results/scenario_corpus.json)",
        suites.len()
    )
}

#[test]
fn distilled_suites_replay_bit_identically() {
    let suites = distilled_suites();
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
        "scenario regression FAIL: {} drifted field(s)\n{}\n{}",
        failures.len(),
        failures.join("\n"),
        rerecord(&suites)
    );
}

/// Replay checks only the digest and the counters; the recorded
/// signature also pins the float aggregates (mAP, per-stage energy) the
/// rollup computes, bucketed against the scenario's clean twin.
#[test]
fn distilled_suites_keep_their_coverage_signatures() {
    let suites = distilled_suites();
    for (path, suite) in &suites {
        let outcome = run_scenario(&suite.scenario).expect("scenario runs");
        let clean = run_scenario(&suite.scenario.clean_twin()).expect("clean twin runs");
        let signature = CoverageSignature::from_outcomes(&outcome, &clean);
        let (name, path) = (&suite.name, path.display());
        assert_eq!(signature, suite.signature, "{name} ({path})\n{}", rerecord(&suites));
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
