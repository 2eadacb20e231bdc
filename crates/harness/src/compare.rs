//! The regression gate: diffs a fresh [`BenchReport`] against a committed
//! baseline under per-metric tolerances.
//!
//! Three classes of check, matching what each metric can promise:
//!
//! * **Determinism fields** (frames, stem counters, config histogram,
//!   selection digest, backpressure/budget counters, contexts) must be
//!   **bit-equal**: the suites are fully seeded, so *any* drift here is a
//!   behavior change that must be explained — either a bug or a
//!   deliberate change that warrants refreshing the baseline.
//! * **Accuracy** (mAP) may improve but not regress beyond
//!   [`Tolerances::map_drop_pct`].
//! * **Modeled energy / latency** may not grow beyond a fractional noise
//!   band ([`Tolerances::energy_growth_frac`] /
//!   [`Tolerances::latency_growth_frac`]). These are deterministic model
//!   outputs, but banding (instead of bit-equality) lets a deliberate
//!   cost-model recalibration land with a baseline refresh in the same PR
//!   while still catching silent cost growth.

use crate::report::{BenchReport, SuiteReport};
use std::fmt;

/// Per-metric tolerances of the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Maximum allowed mAP regression, percentage points.
    pub map_drop_pct: f64,
    /// Maximum allowed fractional growth of total/per-stage energy.
    pub energy_growth_frac: f64,
    /// Maximum allowed fractional growth of latency mean/percentiles.
    pub latency_growth_frac: f64,
    /// Absolute floor added to every relative energy band, Joules. A
    /// purely relative band collapses to nothing on a zero baseline (any
    /// positive charge — even modeling dust — fails), so each band is
    /// `base * (1 + frac) + floor`.
    pub energy_floor_j: f64,
    /// Absolute floor added to every relative latency band, ms (one
    /// histogram bucket by default, the percentile resolution).
    pub latency_floor_ms: f64,
}

impl Default for Tolerances {
    /// The CI gate defaults: accuracy must not regress measurably
    /// (1e-6 percentage points absorbs only float-formatting dust), and
    /// energy/latency may not grow more than 2% plus a small absolute
    /// floor (so zero baselines stay gated but don't trip on dust).
    fn default() -> Self {
        Tolerances {
            map_drop_pct: 1e-6,
            energy_growth_frac: 0.02,
            latency_growth_frac: 0.02,
            energy_floor_j: 0.05,
            latency_floor_ms: 0.25,
        }
    }
}

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

/// Diffs `fresh` against `baseline`; an empty result means the gate
/// passes.
pub fn compare(baseline: &BenchReport, fresh: &BenchReport, tol: &Tolerances) -> Vec<Violation> {
    let mut v = Vec::new();
    if baseline.schema != fresh.schema {
        v.push(Violation {
            suite: String::new(),
            metric: "schema".to_string(),
            detail: format!("baseline schema {} vs fresh {}", baseline.schema, fresh.schema),
        });
        return v;
    }
    if baseline.build.scale != fresh.build.scale {
        v.push(Violation {
            suite: String::new(),
            metric: "scale".to_string(),
            detail: format!(
                "baseline ran at `{}` scale, fresh at `{}` — refusing to compare",
                baseline.build.scale, fresh.build.scale
            ),
        });
        return v;
    }
    for base_suite in &baseline.suites {
        match fresh.suite(&base_suite.suite) {
            None => v.push(Violation {
                suite: base_suite.suite.clone(),
                metric: "presence".to_string(),
                detail: "suite present in baseline but missing from fresh report".to_string(),
            }),
            Some(fresh_suite) => compare_suite(base_suite, fresh_suite, tol, &mut v),
        }
    }
    // Symmetric direction: a suite the fresh report has but the baseline
    // lacks would otherwise run ungated forever (e.g. a newly added
    // suite whose author forgot to refresh the baseline).
    for fresh_suite in &fresh.suites {
        if baseline.suite(&fresh_suite.suite).is_none() {
            v.push(Violation {
                suite: fresh_suite.suite.clone(),
                metric: "presence".to_string(),
                detail: "suite present in fresh report but missing from baseline — refresh \
                         the baseline so the new suite is gated"
                    .to_string(),
            });
        }
    }
    v
}

fn compare_suite(
    base: &SuiteReport,
    fresh: &SuiteReport,
    tol: &Tolerances,
    out: &mut Vec<Violation>,
) {
    let mut strict = |metric: &str, equal: bool, detail: String| {
        if !equal {
            out.push(Violation {
                suite: base.suite.clone(),
                metric: format!("determinism.{metric}"),
                detail,
            });
        }
    };

    // Determinism fields: bit-equal, no band.
    strict("seed", base.seed == fresh.seed, format!("{} vs {}", base.seed, fresh.seed));
    strict("ticks", base.ticks == fresh.ticks, format!("{} vs {}", base.ticks, fresh.ticks));
    strict(
        "streams",
        base.streams == fresh.streams,
        format!("{} vs {}", base.streams, fresh.streams),
    );
    strict("frames", base.frames == fresh.frames, format!("{} vs {}", base.frames, fresh.frames));
    strict(
        "digest",
        base.determinism_digest == fresh.determinism_digest,
        format!("{} vs {}", base.determinism_digest, fresh.determinism_digest),
    );
    strict(
        "stems_executed",
        base.stems_executed == fresh.stems_executed,
        format!("{} vs {}", base.stems_executed, fresh.stems_executed),
    );
    strict(
        "stems_cached",
        base.stems_cached == fresh.stems_cached,
        format!("{} vs {}", base.stems_cached, fresh.stems_cached),
    );
    strict(
        "stems_skipped",
        base.stems_skipped == fresh.stems_skipped,
        format!("{} vs {}", base.stems_skipped, fresh.stems_skipped),
    );
    strict(
        "stem_cache_hits",
        base.stem_cache_hits == fresh.stem_cache_hits,
        format!("{} vs {}", base.stem_cache_hits, fresh.stem_cache_hits),
    );
    strict(
        "stem_cache_misses",
        base.stem_cache_misses == fresh.stem_cache_misses,
        format!("{} vs {}", base.stem_cache_misses, fresh.stem_cache_misses),
    );
    strict(
        "config_histogram",
        base.config_histogram == fresh.config_histogram,
        "selection histogram changed".to_string(),
    );
    strict(
        "contexts_visited",
        base.contexts_visited == fresh.contexts_visited,
        format!("{:?} vs {:?}", base.contexts_visited, fresh.contexts_visited),
    );
    strict(
        "dropped",
        base.dropped == fresh.dropped,
        format!("{} vs {}", base.dropped, fresh.dropped),
    );
    strict("stalls", base.stalls == fresh.stalls, format!("{} vs {}", base.stalls, fresh.stalls));
    strict(
        "escalations",
        base.escalations == fresh.escalations,
        format!("{} vs {}", base.escalations, fresh.escalations),
    );
    strict(
        "max_final_level",
        base.max_final_level == fresh.max_final_level,
        format!("{} vs {}", base.max_final_level, fresh.max_final_level),
    );
    strict(
        "degraded_frames",
        base.degraded_frames == fresh.degraded_frames,
        format!("{} vs {}", base.degraded_frames, fresh.degraded_frames),
    );
    strict(
        "masked_frames",
        base.masked_frames == fresh.masked_frames,
        format!("{} vs {}", base.masked_frames, fresh.masked_frames),
    );
    strict(
        "int8_frames",
        base.int8_frames == fresh.int8_frames,
        format!("{} vs {}", base.int8_frames, fresh.int8_frames),
    );
    strict(
        "gate_fallbacks",
        base.gate_fallbacks == fresh.gate_fallbacks,
        format!("{} vs {}", base.gate_fallbacks, fresh.gate_fallbacks),
    );

    // Accuracy: may not regress beyond the tolerance.
    if fresh.map_pct < base.map_pct - tol.map_drop_pct {
        out.push(Violation {
            suite: base.suite.clone(),
            metric: "accuracy.map_pct".to_string(),
            detail: format!(
                "regressed {:.4} → {:.4} (allowed drop {})",
                base.map_pct, fresh.map_pct, tol.map_drop_pct
            ),
        });
    }
    // Fusion loss is accuracy-bearing too, and catches box-coordinate
    // drift the count-only digest and a coarse mAP cannot see: it may
    // improve but not grow.
    if fresh.avg_loss > base.avg_loss + 1e-9 {
        out.push(Violation {
            suite: base.suite.clone(),
            metric: "accuracy.avg_loss".to_string(),
            detail: format!("grew {:.6} → {:.6}", base.avg_loss, fresh.avg_loss),
        });
    }

    // Energy / latency: may not grow beyond the noise band. The band is
    // relative *plus* an absolute floor: a zero baseline (a stage a suite
    // never exercises, an empty-histogram percentile) would otherwise
    // make the relative part vanish and fail on any positive dust — or,
    // with a NaN baseline, pass vacuously. The `!(<=)` form fails on NaN
    // on either side instead of silently waving it through.
    let mut banded = |metric: &str, base_v: f64, fresh_v: f64, frac: f64, floor: f64| {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(fresh_v <= base_v * (1.0 + frac) + floor) {
            out.push(Violation {
                suite: base.suite.clone(),
                metric: metric.to_string(),
                detail: format!(
                    "grew {base_v:.6} → {fresh_v:.6} (band +{:.1}% + {floor})",
                    frac * 100.0
                ),
            });
        }
    };
    let (e_frac, e_floor) = (tol.energy_growth_frac, tol.energy_floor_j);
    let (l_frac, l_floor) = (tol.latency_growth_frac, tol.latency_floor_ms);
    banded("energy.total_gated_j", base.total_gated_j, fresh.total_gated_j, e_frac, e_floor);
    banded(
        "energy.total_platform_j",
        base.total_platform_j,
        fresh.total_platform_j,
        e_frac,
        e_floor,
    );
    for (stage, base_j) in &base.stage_energy.per_stage_j {
        let fresh_j = fresh.stage_energy.per_stage_j.get(stage).copied().unwrap_or(0.0);
        banded(&format!("energy.stage.{stage}"), *base_j, fresh_j, e_frac, e_floor);
    }
    // Mirror the suite-presence symmetry for stage keys: a stage the
    // fresh report charges but the baseline has never seen (renamed or
    // newly added StageKind) would otherwise run ungated while the old
    // key vacuously compares against 0. Banding against a 0.0 baseline
    // flags any charge above the absolute floor.
    for (stage, fresh_j) in &fresh.stage_energy.per_stage_j {
        if !base.stage_energy.per_stage_j.contains_key(stage) {
            banded(&format!("energy.stage.{stage}"), 0.0, *fresh_j, e_frac, e_floor);
        }
    }

    // Latency: mean and tail, banded.
    banded("latency.mean_ms", base.latency.mean_ms, fresh.latency.mean_ms, l_frac, l_floor);
    banded("latency.p50_ms", base.latency.p50_ms, fresh.latency.p50_ms, l_frac, l_floor);
    banded("latency.p95_ms", base.latency.p95_ms, fresh.latency.p95_ms, l_frac, l_floor);
    banded("latency.p99_ms", base.latency.p99_ms, fresh.latency.p99_ms, l_frac, l_floor);
    banded("latency.max_ms", base.latency.max_ms, fresh.latency.max_ms, l_frac, l_floor);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BuildMeta, SCHEMA_VERSION};
    use ecofusion_energy::StageRollup;
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
        assert!(compare(&r, &r, &Tolerances::default()).is_empty());
    }

    #[test]
    fn map_regression_fails_but_improvement_passes() {
        let base = report();
        let mut worse = report();
        worse.suites[0].map_pct = 9.0;
        let violations = compare(&base, &worse, &Tolerances::default());
        assert!(violations.iter().any(|v| v.metric == "accuracy.map_pct"), "{violations:?}");
        let mut better = report();
        better.suites[0].map_pct = 11.0;
        assert!(compare(&base, &better, &Tolerances::default()).is_empty());
    }

    #[test]
    fn hand_edited_baseline_map_fails_the_gate() {
        // The acceptance-criteria scenario: someone edits the committed
        // baseline's mAP upward; the fresh (honest) report must fail.
        let mut baseline = report();
        baseline.suites[0].map_pct += 5.0;
        let fresh = report();
        let violations = compare(&baseline, &fresh, &Tolerances::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "accuracy.map_pct");
    }

    #[test]
    fn energy_growth_beyond_band_fails() {
        let base = report();
        let mut fresh = report();
        fresh.suites[0].total_gated_j *= 1.05;
        let violations = compare(&base, &fresh, &Tolerances::default());
        assert!(violations.iter().any(|v| v.metric == "energy.total_gated_j"));
        // Inside the band: passes.
        let mut ok = report();
        ok.suites[0].total_gated_j *= 1.01;
        assert!(compare(&base, &ok, &Tolerances::default()).is_empty());
    }

    #[test]
    fn latency_tail_growth_fails() {
        let base = report();
        let mut fresh = report();
        fresh.suites[0].latency.p99_ms *= 1.10;
        assert!(compare(&base, &fresh, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "latency.p99_ms"));
    }

    #[test]
    fn digest_drift_is_strict() {
        let base = report();
        let mut fresh = report();
        fresh.suites[0].determinism_digest = "00000000000000ab".to_string();
        assert!(compare(&base, &fresh, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "determinism.digest"));
    }

    #[test]
    fn missing_suite_and_scale_mismatch_fail() {
        let base = report();
        let mut fresh = report();
        fresh.suites.clear();
        assert!(compare(&base, &fresh, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "presence"));
        let mut full = report();
        full.build.scale = "full".to_string();
        assert!(compare(&base, &full, &Tolerances::default()).iter().any(|v| v.metric == "scale"));
    }

    #[test]
    fn ungated_new_suite_fails_in_both_directions() {
        // A suite only the fresh report has must also be a violation —
        // otherwise a newly added suite runs ungated until someone
        // remembers to refresh the baseline.
        let mut base = report();
        base.suites.clear();
        let fresh = report();
        let violations = compare(&base, &fresh, &Tolerances::default());
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
        let violations = compare(&base, &fresh, &Tolerances::default());
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
            compare(&base, &dust, &Tolerances::default()).is_empty(),
            "charge under the floor must pass on a zero baseline"
        );
        // Real growth past the floor still fails.
        let mut grown = report();
        grown.suites[0].stage_energy.per_stage_j.insert("select".to_string(), 0.06);
        assert!(compare(&base, &grown, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "energy.stage.select"));
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
            compare(&zero_lat, &bucket, &Tolerances::default()).is_empty(),
            "sub-bucket latency on a zero baseline must pass"
        );
        let mut tail = zero_lat.clone();
        tail.suites[0].latency.p99_ms = 5.0;
        assert!(compare(&zero_lat, &tail, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "latency.p99_ms"));
    }

    #[test]
    fn nan_metrics_never_pass_vacuously() {
        // `fresh > band` is false when either side is NaN, which used to
        // wave a poisoned metric through; the NaN-safe form must flag it.
        let base = report();
        let mut fresh = report();
        fresh.suites[0].latency.p99_ms = f64::NAN;
        assert!(compare(&base, &fresh, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "latency.p99_ms"));
        let mut nan_base = report();
        nan_base.suites[0].total_gated_j = f64::NAN;
        assert!(compare(&nan_base, &report(), &Tolerances::default())
            .iter()
            .any(|v| v.metric == "energy.total_gated_j"));
    }

    #[test]
    fn counter_fields_are_strict() {
        let base = report();
        let mut fresh = report();
        fresh.suites[0].int8_frames = 3;
        assert!(compare(&base, &fresh, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "determinism.int8_frames"));
        let mut fb = report();
        fb.suites[0].gate_fallbacks = 1;
        assert!(compare(&base, &fb, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "determinism.gate_fallbacks"));
    }

    #[test]
    fn loss_growth_fails_but_improvement_passes() {
        let base = report();
        let mut worse = report();
        worse.suites[0].avg_loss += 0.1;
        assert!(compare(&base, &worse, &Tolerances::default())
            .iter()
            .any(|v| v.metric == "accuracy.avg_loss"));
        let mut better = report();
        better.suites[0].avg_loss -= 0.1;
        assert!(compare(&base, &better, &Tolerances::default()).is_empty());
    }
}
