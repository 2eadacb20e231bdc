//! Int8-vs-f32 parity accounting: per-suite mAP drift bounds.
//!
//! Post-training quantization trades numeric fidelity for energy; the
//! repo's contract is that the trade stays small — per-suite mAP under
//! `Precision::Int8` may drift at most [`DEFAULT_MAX_DRIFT_PP`]
//! percentage points below the f32 run of the same seeded suite. This
//! module is the pure accounting core: the harness's committed gates
//! (`crates/harness/tests/committed_gates.rs`, run by `cargo test`) pair
//! the quick suites' f32 and int8 reports and fail on any
//! [`ParityReport::violations`].
//!
//! Drift is one-sided: a quantized run scoring *above* f32 (possible on
//! small seeded suites, where rounding can nudge a borderline detection
//! the right way) is never a violation.

use serde::{Deserialize, Serialize};

/// Default per-suite bound on the int8 mAP drift, percentage points.
pub const DEFAULT_MAX_DRIFT_PP: f64 = 1.0;

/// One suite's paired f32/int8 accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParityRow {
    /// Suite name.
    pub suite: String,
    /// mAP of the f32 run, percent.
    pub map_f32_pct: f64,
    /// mAP of the int8 run of the same seeded suite, percent.
    pub map_int8_pct: f64,
}

impl ParityRow {
    /// How far int8 fell below f32, percentage points (negative when the
    /// quantized run scored higher).
    pub fn drift_pp(&self) -> f64 {
        self.map_f32_pct - self.map_int8_pct
    }
}

/// A full parity sweep: every suite's pair plus the bound it was checked
/// against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParityReport {
    /// Per-suite pairs.
    pub rows: Vec<ParityRow>,
    /// The drift bound applied, percentage points.
    pub max_drift_pp: f64,
}

impl ParityReport {
    /// Wraps `rows` under the default bound.
    pub fn new(rows: Vec<ParityRow>) -> Self {
        ParityReport { rows, max_drift_pp: DEFAULT_MAX_DRIFT_PP }
    }

    /// The suites whose drift exceeds the bound (NaN mAP on either side
    /// counts as a violation — a poisoned metric must not pass
    /// vacuously).
    pub fn violations(&self) -> Vec<&ParityRow> {
        // Negated `<=` rather than `>` so a NaN drift is a violation.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        self.rows.iter().filter(|r| !(r.drift_pp() <= self.max_drift_pp)).collect()
    }

    /// Whether every suite is inside the bound.
    pub fn passes(&self) -> bool {
        self.violations().is_empty()
    }

    /// The worst (largest) drift observed, percentage points; 0 when
    /// empty.
    pub fn worst_drift_pp(&self) -> f64 {
        self.rows.iter().map(ParityRow::drift_pp).fold(0.0, f64::max)
    }

    /// Plain-text table, printed by a failing gate.
    pub fn render(&self) -> String {
        let mut out = String::from("suite                    f32 mAP%   int8 mAP%   drift pp\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>8.3} {:>11.3} {:>10.3}{}\n",
                r.suite,
                r.map_f32_pct,
                r.map_int8_pct,
                r.drift_pp(),
                if r.drift_pp() <= self.max_drift_pp { "" } else { "  VIOLATION" },
            ));
        }
        out.push_str(&format!(
            "bound: {} pp, worst: {:.3} pp → {}\n",
            self.max_drift_pp,
            self.worst_drift_pp(),
            if self.passes() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(suite: &str, f32_pct: f64, int8_pct: f64) -> ParityRow {
        ParityRow { suite: suite.to_string(), map_f32_pct: f32_pct, map_int8_pct: int8_pct }
    }

    #[test]
    fn drift_is_one_sided() {
        let report = ParityReport::new(vec![
            row("steady_city", 12.0, 11.5),
            // Int8 above f32: fine, drift negative.
            row("context_churn", 10.0, 10.4),
        ]);
        assert!(report.passes());
        assert!((report.worst_drift_pp() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drift_past_bound_fails() {
        let report = ParityReport::new(vec![
            row("steady_city", 12.0, 11.5),
            row("budget_squeeze", 12.0, 10.5),
        ]);
        assert!(!report.passes());
        let v = report.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].suite, "budget_squeeze");
        assert!(report.render().contains("VIOLATION"));
    }

    /// NaN on either side must fail, not pass vacuously.
    #[test]
    fn nan_map_on_either_side_fails() {
        for r in [row("s", f64::NAN, 10.0), row("s", 12.0, f64::NAN)] {
            let report = ParityReport::new(vec![r]);
            assert!(!report.passes());
            assert!(report.render().contains("VIOLATION"));
        }
    }
}
