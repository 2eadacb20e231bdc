//! Table 3: combined sensor and platform energy per driving scenario with
//! sensor clock gating (§5.5.2).
//!
//! This experiment is pure energy-model arithmetic (Eq. 10–11 + the
//! knowledge-gate configuration map) and needs no trained model, exactly
//! as in the paper.

use crate::tables::Table;
use ecofusion_core::{default_knowledge_rules, ConfigId, ConfigSpace};
use ecofusion_energy::{Precision, Px2Model, SensorPowerModel, StageTrace, StemPolicy};
use ecofusion_scene::Context;
use serde::Serialize;

/// One scene column of Table 3.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Column {
    /// Scene label.
    pub scene: String,
    /// Late-fusion total energy (baseline), Joules.
    pub late_fusion_j: f64,
    /// EcoFusion (knowledge gate, clock gating) total energy, Joules.
    pub ecofusion_j: f64,
    /// Energy savings vs late fusion, percent (negative = EcoFusion uses
    /// more).
    pub savings_pct: f64,
}

/// Table 3 result.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Result {
    /// Per-scene columns in paper order.
    pub columns: Vec<Table3Column>,
    /// Mix-weighted overall column.
    pub overall: Table3Column,
    /// Overall EcoFusion energy *without* clock gating, Joules (the paper
    /// reports 43.90 % savings of gating vs not gating).
    pub ecofusion_ungated_overall_j: f64,
}

/// Runs the Table 3 computation with the default models.
pub fn run() -> Table3Result {
    run_with(&Px2Model::default(), &SensorPowerModel::default())
}

/// Runs the Table 3 computation with explicit cost models.
pub fn run_with(px2: &Px2Model, sensors: &SensorPowerModel) -> Table3Result {
    let space = ConfigSpace::canonical();
    let rules = default_knowledge_rules(&space);
    let late = space.baseline_ids().late;
    let trace = |config: ConfigId| {
        let specs = space.branch_specs(config);
        StageTrace::compute_prec(px2, sensors, &specs, StemPolicy::Static, Precision::F32)
    };
    // Without clock gating every sensor measures.
    let ungated =
        |t: &StageTrace| (t.platform_energy() + sensors.total_frame_energy_all_active()).joules();
    let late_total = ungated(&trace(late));
    let mut columns = Vec::new();
    let weights = Context::mix_weights();
    let mut overall_eco = 0.0;
    let mut overall_eco_ungated = 0.0;
    for (i, context) in Context::ALL.iter().enumerate() {
        let config = ConfigId(rules[context]);
        let t = trace(config);
        let eco = t.total_energy().joules();
        overall_eco += weights[i] * eco;
        overall_eco_ungated += weights[i] * ungated(&t);
        columns.push(Table3Column {
            scene: context.label().to_string(),
            late_fusion_j: late_total,
            ecofusion_j: eco,
            savings_pct: (late_total - eco) / late_total * 100.0,
        });
    }
    let overall = Table3Column {
        scene: "Overall".to_string(),
        late_fusion_j: late_total,
        ecofusion_j: overall_eco,
        savings_pct: (late_total - overall_eco) / late_total * 100.0,
    };
    Table3Result { columns, overall, ecofusion_ungated_overall_j: overall_eco_ungated }
}

impl Table3Result {
    /// Clock-gating benefit: how much less energy EcoFusion uses with
    /// clock gating vs running all sensors (paper: 43.90 %).
    pub fn gating_benefit_pct(&self) -> f64 {
        (self.ecofusion_ungated_overall_j - self.overall.ecofusion_j)
            / self.ecofusion_ungated_overall_j
            * 100.0
    }

    /// Renders the table in the paper's layout.
    pub fn print(&self) {
        println!("Table 3 — Combined sensor and AV platform energy per scenario (J)");
        let mut header: Vec<String> = vec!["Fusion Method".to_string()];
        header.extend(self.columns.iter().map(|c| c.scene.clone()));
        header.push("Overall".to_string());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        let mut late = vec!["Late Fusion".to_string()];
        late.extend(self.columns.iter().map(|c| format!("{:.2}", c.late_fusion_j)));
        late.push(format!("{:.2}", self.overall.late_fusion_j));
        t.row(&late);
        let mut eco = vec!["EcoFusion (Ours)".to_string()];
        eco.extend(self.columns.iter().map(|c| format!("{:.2}", c.ecofusion_j)));
        eco.push(format!("{:.2}", self.overall.ecofusion_j));
        t.row(&eco);
        let mut sav = vec!["EcoFusion Energy Savings".to_string()];
        sav.extend(self.columns.iter().map(|c| format!("{:.2}%", c.savings_pct)));
        sav.push(format!("{:.2}%", self.overall.savings_pct));
        t.row(&sav);
        println!("{t}");
        println!(
            "Clock gating saves {:.2}% vs EcoFusion without sensor gating ({:.2} J ungated).\n",
            self.gating_benefit_pct(),
            self.ecofusion_ungated_overall_j
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table 3, reproduced cell by cell.
    #[test]
    fn matches_paper_cells() {
        let r = run();
        let expect = [
            ("City", 5.45, 58.91),
            ("Fog", 13.96, -5.15),
            ("Jct.", 2.87, 78.40),
            ("Mwy.", 2.87, 78.40),
            ("Night", 12.10, 8.81),
            ("Rain", 13.27, -0.09),
            ("Rural", 3.81, 71.28),
            ("Snow", 13.96, -5.15),
        ];
        for ((scene, eco, savings), col) in expect.iter().zip(&r.columns) {
            assert_eq!(&col.scene, scene);
            assert!((col.late_fusion_j - 13.27).abs() < 0.01, "late {}", col.late_fusion_j);
            assert!(
                (col.ecofusion_j - eco).abs() < 0.02,
                "{scene}: eco {} vs paper {eco}",
                col.ecofusion_j
            );
            assert!(
                (col.savings_pct - savings).abs() < 0.6,
                "{scene}: savings {} vs paper {savings}",
                col.savings_pct
            );
        }
    }

    #[test]
    fn overall_savings_near_paper() {
        let r = run();
        // Paper: 51.41% overall with its dataset mix; our RADIATE-like mix
        // approximation lands in the same band.
        assert!(
            r.overall.savings_pct > 40.0 && r.overall.savings_pct < 60.0,
            "overall savings {:.2}%",
            r.overall.savings_pct
        );
    }

    #[test]
    fn gating_benefit_near_paper() {
        let r = run();
        // Paper: clock gating saves 43.90% vs no gating.
        let b = r.gating_benefit_pct();
        assert!(b > 30.0 && b < 55.0, "gating benefit {b:.2}%");
    }
}
