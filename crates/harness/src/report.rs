//! The machine-readable bench report.
//!
//! One [`BenchReport`] is the artifact of one harness run: build
//! metadata plus one [`SuiteReport`] per workload suite. The schema is
//! versioned ([`SCHEMA_VERSION`]) and a [`SuiteReport`] holds no clock:
//! every field is a function of the suite definition and the code (mAP,
//! modeled energy/latency, stem counters, selection digest), so two
//! seeded runs compare with `==` and the regression gate checks the
//! fields strictly or with an explicit tolerance band. (The per-shard
//! steal counters of a multi-shard `fleet_scale` run are the one
//! exception — they follow the host's thread schedule and are never
//! gated.) Wall-clock serving cost is measured in one place, the
//! closed-loop benchmark under `benchmark/`.

use ecofusion_energy::StageRollup;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Version of the report schema. Bump when a field changes meaning;
/// compare mode refuses to diff mismatched versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Latency distribution of a suite, milliseconds of *modeled* (PX2 cost
/// model) per-frame latency. Percentiles come from the fixed-bucket
/// [`LatencyHistogram`](ecofusion_runtime::LatencyHistogram), so they are
/// bit-reproducible across runs; the mean and max are exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Exact mean, ms.
    pub mean_ms: f64,
    /// Median (bucket upper edge), ms.
    pub p50_ms: f64,
    /// 95th percentile (bucket upper edge), ms.
    pub p95_ms: f64,
    /// 99th percentile (bucket upper edge), ms.
    pub p99_ms: f64,
    /// Exact maximum, ms.
    pub max_ms: f64,
}

/// One fleet size's point inside the `fleet_scale` suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPoint {
    /// Streams in the fleet.
    pub streams: usize,
    /// Frames processed by this sub-run.
    pub frames: u64,
    /// Mean frames per micro-batch the scheduler achieved.
    pub avg_batch_size: f64,
    /// Worker shards the sub-run executed on (0 in reports that predate
    /// sharding).
    #[serde(default)]
    pub shards: usize,
    /// What each shard's worker did (empty in pre-sharding reports).
    #[serde(default)]
    pub per_shard: Vec<ShardPoint>,
}

/// One worker shard's share of a fleet sub-run. Steal counters are
/// schedule-dependent and never gated; they exist so artifacts show how
/// the work actually spread across cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPoint {
    /// Shard index.
    pub shard: usize,
    /// Streams homed on this shard.
    pub streams: usize,
    /// Frames this shard's worker executed (own + stolen).
    pub frames: u64,
    /// Micro-batches this shard's worker executed.
    pub batches: u64,
    /// Units claimed from other shards (not gated).
    pub steals: u64,
    /// Frames inside those stolen units (not gated).
    pub stolen_frames: u64,
}

/// Everything the report says about one workload suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Suite name ([`SuiteId::label`](crate::SuiteId::label)).
    pub suite: String,
    /// Base stream seed the suite ran with.
    pub seed: u64,
    /// Total streams across the suite's sub-runs.
    pub streams: usize,
    /// Scheduler ticks per sub-run.
    pub ticks: u64,
    /// Frames processed (and reported) across all sub-runs.
    pub frames: u64,
    /// Frames-weighted VOC mAP at IoU ≥ 0.5, percent.
    pub map_pct: f64,
    /// Frames-weighted mean fusion loss.
    pub avg_loss: f64,
    /// Total PX2 platform energy, Joules.
    pub total_platform_j: f64,
    /// Total platform + clock-gated sensor energy (Eq. 11), Joules.
    pub total_gated_j: f64,
    /// Per-stage energy rollup (sums to `total_gated_j`).
    pub stage_energy: StageRollup,
    /// Modeled per-frame latency distribution.
    pub latency: LatencyStats,
    /// Stems the demand-driven pipeline actually ran.
    pub stems_executed: u64,
    /// Stems pruned outright by the demand-driven plan.
    pub stems_skipped: u64,
    /// Frames evicted by drop-oldest backpressure.
    pub dropped: u64,
    /// Producer stalls under stall backpressure.
    pub stalls: u64,
    /// Budget escalations across all streams.
    pub escalations: u64,
    /// Deepest escalation level any stream ended the run at.
    pub max_final_level: usize,
    /// Frames processed while a sensor was degraded or failed.
    pub degraded_frames: u64,
    /// Frames processed with at least one sensor masked out of gating.
    pub masked_frames: u64,
    /// Frames whose perception stages ran int8-quantized (0 in reports
    /// that predate the precision axis).
    #[serde(default)]
    pub int8_frames: u64,
    /// Knowledge-gate missing-rule fallbacks (0 in older reports).
    #[serde(default)]
    pub gate_fallbacks: u64,
    /// Driving contexts the suite's scenes actually visited (labels,
    /// sorted).
    pub contexts_visited: Vec<String>,
    /// How often each configuration was selected, across all streams.
    pub config_histogram: BTreeMap<String, usize>,
    /// FNV-1a-64 digest (hex) over the per-stream sequence of selected
    /// configurations and detection counts: the strict bit-equality
    /// witness the regression gate checks. Covers *behavior* (what was
    /// selected and detected), not modeled costs, so a deliberate
    /// cost-model recalibration trips the banded energy checks without
    /// also invalidating the digest.
    pub determinism_digest: String,
    /// Per-fleet points (only the `fleet_scale` suite fills this).
    #[serde(default)]
    pub fleet: Vec<FleetPoint>,
}

/// Build/provenance metadata of a report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildMeta {
    /// `git rev-parse --short HEAD` of the working tree, `GITHUB_SHA`
    /// when git is unavailable, else `unknown`.
    pub git_rev: String,
    /// Harness scale: `quick` or `full`.
    pub scale: String,
    /// Model provenance: `untrained(seed)` or `fast_demo(seed)`.
    pub model: String,
    /// Observation grid side length.
    pub grid: usize,
    /// Object classes.
    pub num_classes: usize,
    /// Worker shards the runtime ran with (0 in reports that predate
    /// sharding). Provenance only: the gate never compares it, so a
    /// 1-shard baseline diffs cleanly against an N-shard report — which
    /// is exactly what the committed gates' four-shard `fleet_scale` run
    /// does.
    #[serde(default)]
    pub shards: usize,
}

/// A full harness run: metadata plus one report per suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Build/provenance metadata.
    pub build: BuildMeta,
    /// Per-suite reports, in [`SuiteId::ALL`](crate::SuiteId::ALL) order.
    pub suites: Vec<SuiteReport>,
}

impl BenchReport {
    /// The report of one suite, by name.
    pub fn suite(&self, name: &str) -> Option<&SuiteReport> {
        self.suites.iter().find(|s| s.suite == name)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report from JSON text.
    ///
    /// # Errors
    /// Returns the underlying parse error on malformed JSON or a shape
    /// mismatch.
    pub fn from_json(s: &str) -> Result<BenchReport, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Writes the report to `path` (creating parent directories).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut json = self.to_json();
        json.push('\n');
        std::fs::write(path, json)
    }

    /// Loads a report from a JSON file.
    ///
    /// # Errors
    /// Propagates filesystem and parse errors (boxed, for CLI reporting).
    pub fn load_json(path: &Path) -> Result<BenchReport, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)?;
        Ok(BenchReport::from_json(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_suite(name: &str) -> SuiteReport {
        let mut config_histogram = BTreeMap::new();
        config_histogram.insert("E(C_L+C_R+L)".to_string(), 40usize);
        config_histogram.insert("L(R)".to_string(), 24usize);
        SuiteReport {
            suite: name.to_string(),
            seed: 101,
            streams: 1,
            ticks: 64,
            frames: 64,
            map_pct: 12.5,
            avg_loss: 1.75,
            total_platform_j: 240.0,
            total_gated_j: 260.5,
            stage_energy: StageRollup::from_sums(&[16.0, 22.5, 0.64, 0.0, 200.0, 3.2, 0.0]),
            latency: LatencyStats {
                mean_ms: 58.2,
                p50_ms: 61.25,
                p95_ms: 66.5,
                p99_ms: 66.5,
                max_ms: 66.37,
            },
            stems_executed: 180,
            stems_skipped: 64,
            dropped: 0,
            stalls: 0,
            escalations: 0,
            max_final_level: 0,
            degraded_frames: 0,
            masked_frames: 0,
            int8_frames: 0,
            gate_fallbacks: 0,
            contexts_visited: vec!["City".to_string()],
            config_histogram,
            determinism_digest: "cbf29ce484222325".to_string(),
            fleet: Vec::new(),
        }
    }

    pub(crate) fn sample_report() -> BenchReport {
        BenchReport {
            schema: SCHEMA_VERSION,
            build: BuildMeta {
                git_rev: "abc1234".to_string(),
                scale: "quick".to_string(),
                model: format!("untrained({})", crate::MODEL_SEED),
                grid: 32,
                num_classes: 8,
                shards: 2,
            },
            suites: vec![sample_suite("steady_city"), {
                let mut fleet = sample_suite("fleet_scale");
                fleet.fleet = vec![FleetPoint {
                    streams: 4,
                    frames: 64,
                    avg_batch_size: 3.5,
                    shards: 2,
                    per_shard: vec![
                        ShardPoint {
                            shard: 0,
                            streams: 2,
                            frames: 40,
                            batches: 12,
                            steals: 0,
                            stolen_frames: 0,
                        },
                        ShardPoint {
                            shard: 1,
                            streams: 2,
                            frames: 24,
                            batches: 8,
                            steals: 1,
                            stolen_frames: 4,
                        },
                    ],
                }];
                fleet
            }],
        }
    }

    #[test]
    fn report_serde_roundtrip_is_lossless() {
        let report = sample_report();
        let json = report.to_json();
        let back = BenchReport::from_json(&json).expect("parses back");
        assert_eq!(back, report);
        // Float fields survive bit-exactly (the determinism contract).
        let (a, b) = (&report.suites[0], &back.suites[0]);
        assert_eq!(a.map_pct.to_bits(), b.map_pct.to_bits());
        assert_eq!(a.total_gated_j.to_bits(), b.total_gated_j.to_bits());
        assert_eq!(a.latency.p99_ms.to_bits(), b.latency.p99_ms.to_bits());
    }

    #[test]
    fn report_file_roundtrip() {
        let report = sample_report();
        let dir = std::env::temp_dir().join("ecofusion_harness_report_test");
        let path = dir.join("nested").join("report.json");
        report.write_json(&path).expect("writes");
        let back = BenchReport::load_json(&path).expect("loads");
        assert_eq!(back, report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_sharding_reports_still_parse() {
        // Baselines written before the sharded runtime have no `shards`
        // or `per_shard` fields; they must load with defaults so compare
        // mode can still diff against them. They do have the wall-clock
        // and `backend` keys the schema has since dropped: unknown keys
        // are ignored.
        let point: FleetPoint = serde_json::from_str(
            r#"{"streams":4,"frames":64,"avg_batch_size":3.5,"throughput_fps":400.0,"wall_ms":160.0}"#,
        )
        .expect("old fleet point parses");
        assert_eq!(point.shards, 0);
        assert!(point.per_shard.is_empty());
        let build: BuildMeta = serde_json::from_str(
            r#"{"backend":"blocked","git_rev":"abc1234","scale":"quick","model":"untrained(1)","grid":32,"num_classes":8}"#,
        )
        .expect("old build meta parses");
        assert_eq!(build.shards, 0);
        // A suite row from before the stem-feature cache was deleted
        // (quick `fault_storm`), with its four cache keys.
        let row: SuiteReport = serde_json::from_str(concat!(
            r#"{"suite":"fault_storm","seed":301,"streams":2,"ticks":64,"frames":128,"#,
            r#""map_pct":0.021825397561769933,"avg_loss":5.301251941360533,"#,
            r#""total_platform_j":162.39300000000014,"total_gated_j":886.8555000000001,"#,
            r#""stage_energy":{"per_stage_j":{"account":0.0,"branch":117.33699999999993,"#,
            r#""fuse":0.0,"gate":0.0,"select":0.0,"sense":724.4625000000001,"#,
            r#""stems":45.056000000000026},"total_j":886.8555000000001},"#,
            r#""latency":{"mean_ms":23.84531249999999,"p50_ms":23.0,"p95_ms":26.5,"#,
            r#""p99_ms":26.5,"max_ms":26.3},"stems_executed":254,"stems_cached":20,"#,
            r#""stems_skipped":238,"stem_cache_hits":20,"stem_cache_misses":254,"#,
            r#""cache_hit_rate":0.072992700729927,"dropped":0,"stalls":0,"escalations":0,"#,
            r#""max_final_level":0,"degraded_frames":112,"masked_frames":102,"int8_frames":0,"#,
            r#""gate_fallbacks":0,"contexts_visited":["City","Fog","Jct.","Mwy.","Rain","Rural"],"#,
            r#""config_histogram":{"{C_L}":21,"{C_R}":14,"{E(C_L+C_R)}":2,"{E(L+R)}":38,"#,
            r#""{L}":7,"{R}":46},"determinism_digest":"f9317dba21d5b19d","fleet":[]}"#,
        ))
        .expect("a suite row with the stem-cache keys parses");
        assert_eq!((row.stems_executed, row.stems_skipped), (254, 238));
        assert_eq!(row.determinism_digest, "f9317dba21d5b19d");
    }

    /// Each committed baseline is byte for byte what the current schema
    /// writes: no key the report no longer has, none it has gained.
    #[test]
    fn committed_baselines_load_and_roundtrip() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in ["baselines/bench_baseline.json", "baselines/bench_baseline_int8.json"] {
            let text = std::fs::read_to_string(root.join(rel)).expect(rel);
            let loaded = BenchReport::from_json(&text).expect(rel);
            assert_eq!(loaded.schema, SCHEMA_VERSION, "{rel}");
            assert!(!loaded.suites.is_empty(), "{rel}");
            assert_eq!(loaded.to_json() + "\n", text, "{rel}");
        }
    }

    #[test]
    fn suite_lookup_by_name() {
        let report = sample_report();
        assert!(report.suite("steady_city").is_some());
        assert!(report.suite("fleet_scale").is_some());
        assert!(report.suite("missing").is_none());
    }
}
