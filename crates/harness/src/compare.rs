//! The regression gate: diffs a fresh [`BenchReport`] against a committed
//! baseline under per-metric tolerances.
//!
//! Three classes of check, matching what each metric can promise:
//!
//! * **Determinism fields** — every serialized [`SuiteReport`] field but
//!   the exempt keys below, so a field added to the report is gated from
//!   the start — must be **bit-equal** (a drifted one is reported as
//!   `determinism.<key>`): the suites are fully seeded, so *any* drift
//!   here is a behavior change that must be explained — either a bug or
//!   a deliberate change that warrants refreshing the baseline.
//! * **Accuracy** (mAP) may improve but not regress beyond
//!   `MAP_DROP_PP`.
//! * **Modeled energy / latency** may not grow beyond a fractional noise
//!   band (`ENERGY_GROWTH_FRAC` + `ENERGY_FLOOR_J` /
//!   `LATENCY_GROWTH_FRAC` + `LATENCY_FLOOR_MS`). These are deterministic model
//!   outputs, but banding (instead of bit-equality) lets a deliberate
//!   cost-model recalibration land with a baseline refresh in the same PR
//!   while still catching silent cost growth.
//!
//! The exact diff skips these keys, and only these: `suite`, `map_pct`,
//! `avg_loss`, `total_platform_j`, `total_gated_j`, `stage_energy`,
//! `latency`, `fleet`. `suite` is what the reports were matched on, the
//! middle six are banded, and `fleet`'s per-shard steal counts follow
//! the host's thread schedule.

use crate::report::{BenchReport, SuiteReport};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The [`SuiteReport`] keys the exact diff skips (see the module docs).
#[rustfmt::skip]
const EXEMPT: [&str; 8] = ["suite", "map_pct", "avg_loss", "total_platform_j", "total_gated_j",
    "stage_energy", "latency", "fleet"];

// The gate's bands, the only ones: accuracy must not regress measurably
// (1e-6 percentage points absorbs only float-formatting dust), and
// energy/latency may not grow more than 2% plus a small absolute floor.
// A purely relative band collapses to nothing on a zero baseline (any
// positive charge — even modeling dust — fails), so each band is
// `base * (1 + frac) + floor`.

/// Maximum allowed mAP regression, percentage points.
const MAP_DROP_PP: f64 = 1e-6;
/// Maximum allowed fractional growth of total/per-stage energy.
const ENERGY_GROWTH_FRAC: f64 = 0.02;
/// Maximum allowed fractional growth of latency mean/percentiles.
const LATENCY_GROWTH_FRAC: f64 = 0.02;
/// Absolute floor added to every relative energy band, Joules.
const ENERGY_FLOOR_J: f64 = 0.05;
/// Absolute floor added to every relative latency band, ms (one histogram
/// bucket, the percentile resolution).
const LATENCY_FLOOR_MS: f64 = 0.25;

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Suite the violation is in (empty for report-level mismatches).
    pub suite: String,
    /// Metric name.
    pub metric: String,
    /// What the gate observed, human-readable.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.suite.is_empty() {
            write!(f, "[report] {}: {}", self.metric, self.detail)
        } else {
            write!(f, "[{}] {}: {}", self.suite, self.metric, self.detail)
        }
    }
}

impl Violation {
    fn new(suite: &str, metric: impl Into<String>, detail: impl Into<String>) -> Violation {
        Violation { suite: suite.to_string(), metric: metric.into(), detail: detail.into() }
    }
}

/// Diffs `fresh` against `baseline`; an empty result means the gate
/// passes.
pub fn compare(baseline: &BenchReport, fresh: &BenchReport) -> Vec<Violation> {
    let (base_scale, fresh_scale) = (&baseline.build.scale, &fresh.build.scale);
    if baseline.schema != fresh.schema {
        let detail = format!("baseline schema {} vs fresh {}", baseline.schema, fresh.schema);
        return vec![Violation::new("", "schema", detail)];
    }
    if base_scale != fresh_scale {
        let detail = format!(
            "baseline ran at `{base_scale}` scale, fresh at `{fresh_scale}` — refusing to compare"
        );
        return vec![Violation::new("", "scale", detail)];
    }
    let mut v = Vec::new();
    for base_suite in &baseline.suites {
        match fresh.suite(&base_suite.suite) {
            None => v.push(Violation::new(
                &base_suite.suite,
                "presence",
                "suite present in baseline but missing from fresh report",
            )),
            Some(fresh_suite) => compare_suite(base_suite, fresh_suite, &mut v),
        }
    }
    // Symmetric direction: a suite the fresh report has but the baseline
    // lacks would otherwise run ungated forever (e.g. a newly added
    // suite whose author forgot to refresh the baseline).
    for fresh_suite in &fresh.suites {
        if baseline.suite(&fresh_suite.suite).is_none() {
            v.push(Violation::new(
                &fresh_suite.suite,
                "presence",
                "suite present in fresh report but missing from baseline — refresh the \
                 baseline so the new suite is gated",
            ));
        }
    }
    v
}

fn compare_suite(base: &SuiteReport, fresh: &SuiteReport, out: &mut Vec<Violation>) {
    let suite = base.suite.as_str();
    for (key, b, f) in exact_diff(base, fresh, &EXEMPT) {
        out.push(Violation::new(suite, format!("determinism.{key}"), format!("{b} vs {f}")));
    }

    // Accuracy: may not regress beyond the tolerance.
    if fresh.map_pct < base.map_pct - MAP_DROP_PP {
        let detail = format!(
            "regressed {:.4} → {:.4} (allowed drop {MAP_DROP_PP})",
            base.map_pct, fresh.map_pct
        );
        out.push(Violation::new(suite, "accuracy.map_pct", detail));
    }
    // Fusion loss is accuracy-bearing too, and catches box-coordinate
    // drift the count-only digest and a coarse mAP cannot see: it may
    // improve but not grow.
    if fresh.avg_loss > base.avg_loss + 1e-9 {
        let detail = format!("grew {:.6} → {:.6}", base.avg_loss, fresh.avg_loss);
        out.push(Violation::new(suite, "accuracy.avg_loss", detail));
    }

    // Energy / latency: may not grow beyond the noise band. The band is
    // relative *plus* an absolute floor: a zero baseline (a stage a suite
    // never exercises, an empty-histogram percentile) would otherwise
    // make the relative part vanish and fail on any positive dust — or,
    // with a NaN baseline, pass vacuously. The `!(<=)` form fails on NaN
    // on either side instead of silently waving it through.
    let mut banded = |metric: &str, base_v: f64, fresh_v: f64, (frac, floor): (f64, f64)| {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(fresh_v <= base_v * (1.0 + frac) + floor) {
            let pct = frac * 100.0;
            let detail = format!("grew {base_v:.6} → {fresh_v:.6} (band +{pct:.1}% + {floor})");
            out.push(Violation::new(suite, metric, detail));
        }
    };
    let energy = (ENERGY_GROWTH_FRAC, ENERGY_FLOOR_J);
    let latency = (LATENCY_GROWTH_FRAC, LATENCY_FLOOR_MS);
    banded("energy.total_gated_j", base.total_gated_j, fresh.total_gated_j, energy);
    banded("energy.total_platform_j", base.total_platform_j, fresh.total_platform_j, energy);
    // Stages are banded over the baseline's keys, then the fresh report's
    // new ones, mirroring the suite-presence symmetry: a stage the fresh
    // report charges but the baseline has never seen (renamed or newly
    // added StageKind) is banded against 0.0, so any charge above the
    // absolute floor fails, while the old key compares against 0.
    let (base_stages, fresh_stages) =
        (&base.stage_energy.per_stage_j, &fresh.stage_energy.per_stage_j);
    let new_stages = fresh_stages.keys().filter(|k| !base_stages.contains_key(*k));
    for stage in base_stages.keys().chain(new_stages) {
        let j = |stages: &BTreeMap<String, f64>| stages.get(stage).copied().unwrap_or(0.0);
        banded(&format!("energy.stage.{stage}"), j(base_stages), j(fresh_stages), energy);
    }

    // Latency: mean and tail, banded.
    let (b, f) = (&base.latency, &fresh.latency);
    banded("latency.mean_ms", b.mean_ms, f.mean_ms, latency);
    banded("latency.p50_ms", b.p50_ms, f.p50_ms, latency);
    banded("latency.p95_ms", b.p95_ms, f.p95_ms, latency);
    banded("latency.p99_ms", b.p99_ms, f.p99_ms, latency);
    banded("latency.max_ms", b.max_ms, f.max_ms, latency);
}

/// The serialized fields of two structs of one type that differ, as
/// `(key, a, b)` with both values in JSON, in field order; keys in
/// `skip` are not compared.
pub(crate) fn exact_diff<T: Serialize>(
    a: &T,
    b: &T,
    skip: &[&str],
) -> Vec<(String, String, String)> {
    let fields = |t: &T| match t.to_value() {
        Value::Map(fields) => fields,
        _ => unreachable!("a struct serializes to a map"),
    };
    let json = |v: &Value| serde_json::to_string(v).expect("a value serializes");
    fields(a)
        .iter()
        .zip(&fields(b))
        .filter(|((key, x), (_, y))| !skip.contains(&key.as_str()) && x != y)
        .map(|((key, x), (_, y))| (key.clone(), json(x), json(y)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BuildMeta, SCHEMA_VERSION};
    use ecofusion_energy::StageRollup;
    use serde::Deserialize;
    use std::collections::BTreeMap;

    fn report() -> BenchReport {
        BenchReport {
            schema: SCHEMA_VERSION,
            build: BuildMeta {
                git_rev: "abc".to_string(),
                scale: "quick".to_string(),
                model: "untrained(1)".to_string(),
                grid: 32,
                num_classes: 8,
                shards: 1,
            },
            suites: vec![SuiteReport {
                suite: "steady_city".to_string(),
                seed: 101,
                streams: 1,
                ticks: 64,
                frames: 64,
                map_pct: 10.0,
                avg_loss: 2.0,
                total_platform_j: 100.0,
                total_gated_j: 110.0,
                stage_energy: StageRollup::from_sums(&[10.0, 20.0, 1.0, 0.0, 75.0, 4.0, 0.0]),
                latency: crate::report::LatencyStats {
                    mean_ms: 50.0,
                    p50_ms: 50.25,
                    p95_ms: 60.25,
                    p99_ms: 66.25,
                    max_ms: 66.1,
                },
                stems_executed: 100,
                stems_cached: 10,
                stems_skipped: 50,
                stem_cache_hits: 10,
                stem_cache_misses: 100,
                cache_hit_rate: 10.0 / 110.0,
                dropped: 0,
                stalls: 0,
                escalations: 0,
                max_final_level: 0,
                degraded_frames: 0,
                masked_frames: 0,
                int8_frames: 0,
                gate_fallbacks: 0,
                contexts_visited: vec!["City".to_string()],
                config_histogram: BTreeMap::new(),
                determinism_digest: "00000000000000aa".to_string(),
                fleet: Vec::new(),
            }],
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report();
        assert!(compare(&r, &r).is_empty());
    }

    #[test]
    fn map_regression_fails_but_improvement_passes() {
        let base = report();
        let mut worse = report();
        worse.suites[0].map_pct = 9.0;
        let violations = compare(&base, &worse);
        assert!(violations.iter().any(|v| v.metric == "accuracy.map_pct"), "{violations:?}");
        let mut better = report();
        better.suites[0].map_pct = 11.0;
        assert!(compare(&base, &better).is_empty());
    }

    #[test]
    fn hand_edited_baseline_map_fails_the_gate() {
        // The acceptance-criteria scenario: someone edits the committed
        // baseline's mAP upward; the fresh (honest) report must fail.
        let mut baseline = report();
        baseline.suites[0].map_pct += 5.0;
        let fresh = report();
        let violations = compare(&baseline, &fresh);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "accuracy.map_pct");
    }

    #[test]
    fn energy_growth_beyond_band_fails() {
        let base = report();
        let mut fresh = report();
        fresh.suites[0].total_gated_j *= 1.05;
        let violations = compare(&base, &fresh);
        assert!(violations.iter().any(|v| v.metric == "energy.total_gated_j"));
        // Inside the band: passes.
        let mut ok = report();
        ok.suites[0].total_gated_j *= 1.01;
        assert!(compare(&base, &ok).is_empty());
    }

    #[test]
    fn latency_tail_growth_fails() {
        let base = report();
        let mut fresh = report();
        fresh.suites[0].latency.p99_ms *= 1.10;
        assert!(compare(&base, &fresh).iter().any(|v| v.metric == "latency.p99_ms"));
    }

    #[test]
    fn digest_drift_is_strict() {
        let base = report();
        let mut fresh = report();
        fresh.suites[0].determinism_digest = "00000000000000ab".to_string();
        assert!(compare(&base, &fresh)
            .iter()
            .any(|v| v.metric == "determinism.determinism_digest"));
    }

    #[test]
    fn missing_suite_and_scale_mismatch_fail() {
        let base = report();
        let mut fresh = report();
        fresh.suites.clear();
        assert!(compare(&base, &fresh).iter().any(|v| v.metric == "presence"));
        let mut full = report();
        full.build.scale = "full".to_string();
        assert!(compare(&base, &full).iter().any(|v| v.metric == "scale"));
    }

    #[test]
    fn ungated_new_suite_fails_in_both_directions() {
        // A suite only the fresh report has must also be a violation —
        // otherwise a newly added suite runs ungated until someone
        // remembers to refresh the baseline.
        let mut base = report();
        base.suites.clear();
        let fresh = report();
        let violations = compare(&base, &fresh);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "presence");
        assert_eq!(violations[0].suite, "steady_city");
    }

    #[test]
    fn fresh_only_stage_key_is_gated() {
        // A renamed StageKind moves charge to a key the baseline lacks;
        // the old key compares vacuously against 0, so the new key must
        // fail on its own.
        let base = report();
        let mut fresh = report();
        let j = fresh.suites[0].stage_energy.per_stage_j.remove("branch").unwrap();
        fresh.suites[0].stage_energy.per_stage_j.insert("branch_v2".to_string(), j);
        let violations = compare(&base, &fresh);
        assert!(violations.iter().any(|v| v.metric == "energy.stage.branch_v2"), "{violations:?}");
    }

    #[test]
    fn zero_baseline_band_has_absolute_floor() {
        // The "select" stage carries 0.0 J in the fixture. A purely
        // relative band around a zero baseline is `fresh > 0 + ε`, which
        // fails on modeling dust — the absolute floor absorbs it.
        let base = report();
        let mut dust = report();
        dust.suites[0].stage_energy.per_stage_j.insert("select".to_string(), 0.01);
        assert!(
            compare(&base, &dust).is_empty(),
            "charge under the floor must pass on a zero baseline"
        );
        // Real growth past the floor still fails.
        let mut grown = report();
        grown.suites[0].stage_energy.per_stage_j.insert("select".to_string(), 0.06);
        assert!(compare(&base, &grown).iter().any(|v| v.metric == "energy.stage.select"));
        // Same shape for a zero-latency baseline (an empty histogram).
        let mut zero_lat = report();
        zero_lat.suites[0].latency = crate::report::LatencyStats {
            mean_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
        };
        let mut bucket = zero_lat.clone();
        bucket.suites[0].latency.p99_ms = 0.2;
        assert!(
            compare(&zero_lat, &bucket).is_empty(),
            "sub-bucket latency on a zero baseline must pass"
        );
        let mut tail = zero_lat.clone();
        tail.suites[0].latency.p99_ms = 5.0;
        assert!(compare(&zero_lat, &tail).iter().any(|v| v.metric == "latency.p99_ms"));
    }

    #[test]
    fn nan_metrics_never_pass_vacuously() {
        // `fresh > band` is false when either side is NaN, which used to
        // wave a poisoned metric through; the NaN-safe form must flag it.
        let base = report();
        let mut fresh = report();
        fresh.suites[0].latency.p99_ms = f64::NAN;
        assert!(compare(&base, &fresh).iter().any(|v| v.metric == "latency.p99_ms"));
        let mut nan_base = report();
        nan_base.suites[0].total_gated_j = f64::NAN;
        assert!(compare(&nan_base, &report()).iter().any(|v| v.metric == "energy.total_gated_j"));
    }

    #[test]
    fn counter_fields_are_strict() {
        let base = report();
        let mut fresh = report();
        fresh.suites[0].int8_frames = 3;
        assert!(compare(&base, &fresh).iter().any(|v| v.metric == "determinism.int8_frames"));
        let mut fb = report();
        fb.suites[0].gate_fallbacks = 1;
        assert!(compare(&base, &fb).iter().any(|v| v.metric == "determinism.gate_fallbacks"));
    }

    /// A value that differs from `v`, of the same JSON kind.
    fn perturbed(v: &Value) -> Value {
        match v {
            Value::Null => Value::Bool(true),
            Value::Bool(b) => Value::Bool(!b),
            Value::I64(n) => Value::I64(n + 1),
            Value::U64(n) => Value::U64(n + 1),
            Value::F64(x) => Value::F64(x + 1.0),
            Value::Str(s) => Value::Str(format!("{s}~")),
            Value::Seq(items) => {
                Value::Seq([items.clone(), vec![Value::Str("Fog".into())]].concat())
            }
            Value::Map(m) => {
                Value::Map([m.clone(), vec![("L(C_L)".into(), Value::U64(1))]].concat())
            }
        }
    }

    /// Every serialized field outside the exempt keys is gated on its
    /// own: changing it alone yields exactly one `determinism.<key>`
    /// violation, so a field added to `SuiteReport` later is gated
    /// unless someone exempts it on purpose.
    #[test]
    fn every_unexempt_field_is_gated_exactly() {
        let base = report();
        let Value::Map(fields) = base.suites[0].to_value() else { panic!("a struct is a map") };
        let mut gated = 0;
        for (key, value) in fields.iter().filter(|(k, _)| !EXEMPT.contains(&k.as_str())) {
            let mut changed = fields.clone();
            changed.iter_mut().find(|(k, _)| k == key).unwrap().1 = perturbed(value);
            let mut fresh = report();
            fresh.suites[0] = SuiteReport::from_value(&Value::Map(changed)).expect(key);
            assert_ne!(fresh.suites[0], base.suites[0], "{key} was not perturbed");
            let metrics: Vec<String> =
                compare(&base, &fresh).into_iter().map(|v| v.metric).collect();
            assert_eq!(metrics, [format!("determinism.{key}")], "{key}");
            gated += 1;
        }
        assert_eq!(gated + EXEMPT.len(), fields.len(), "every exempt key is a report field");
        assert!(gated >= 20, "only {gated} fields gated");
    }

    /// The exempt keys are exactly the ones the module docs list.
    #[test]
    fn exempt_keys_are_the_documented_ones() {
        let doc = include_str!("compare.rs");
        let start = doc.find("skips these keys, and only these:").expect("the list is documented");
        let list = &doc[start..start + doc[start..].find(". `suite` is").unwrap()];
        let documented: Vec<&str> = list.split('`').skip(1).step_by(2).collect();
        assert_eq!(documented, EXEMPT);
        assert_eq!(
            EXEMPT.to_vec(),
            [
                "suite",
                "map_pct",
                "avg_loss",
                "total_platform_j",
                "total_gated_j",
                "stage_energy",
                "latency",
                "fleet"
            ]
        );
    }

    #[test]
    fn loss_growth_fails_but_improvement_passes() {
        let base = report();
        let mut worse = report();
        worse.suites[0].avg_loss += 0.1;
        assert!(compare(&base, &worse).iter().any(|v| v.metric == "accuracy.avg_loss"));
        let mut better = report();
        better.suites[0].avg_loss -= 0.1;
        assert!(compare(&base, &better).is_empty());
    }
}
