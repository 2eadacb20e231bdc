//! Default knowledge-gating rules (§4.2.1 / Table 3).
//!
//! The paper's knowledge gate statically maps each driving context to a
//! configuration chosen by domain knowledge. The exact map is not printed,
//! but it is fully recoverable from Table 3's per-scene energy numbers
//! (DESIGN.md §2 shows the arithmetic); the rules below reproduce every
//! cell of that table:
//!
//! | Scene | Configuration | Total energy (J) |
//! |---|---|---|
//! | City | `{E(C_L+C_R+L)}` | 5.45 |
//! | Fog, Snow | `{L, R, E(C_L+C_R+L), E(C_L+C_R)}` | 13.96 |
//! | Junction, Motorway | `{E(C_L+C_R)}` | 2.87 |
//! | Night | `{C_R, L, R}` | 12.10 |
//! | Rain | `{C_L, C_R, L, R}` (full late fusion) | 13.27 |
//! | Rural | `{C_R, E(C_L+C_R)}` | 3.81 |

use crate::config::{ConfigId, ConfigSpace};
use ecofusion_scene::Context;
use std::collections::BTreeMap;

/// Builds the degraded-context fallback rules for the knowledge gate: per
/// context, an ordered preference list of configurations to try when the
/// primary Table 3 rule needs a sensor the health monitor has masked out.
///
/// The ordering encodes the same domain knowledge as the primary rules.
/// In optically clear contexts the gate prefers to stay on cameras
/// (cheap, accurate) and only then crosses to lidar/radar; in adverse
/// weather and at night it prefers the weather-proof pair first. Every
/// list ends with the four single-sensor configurations, so any single
/// healthy sensor always yields a runnable choice.
pub fn default_degraded_fallbacks(space: &ConfigSpace) -> BTreeMap<Context, Vec<usize>> {
    use ConfigSpace as S;
    let cameras_early = space.config_of(&[S::EARLY_CAMERAS]).0;
    let lr_early = space.config_of(&[S::EARLY_LR]).0;
    let lr_late = space.config_of(&[S::LIDAR, S::RADAR]).0;
    let lr_full = space.config_of(&[S::LIDAR, S::RADAR, S::EARLY_LR]).0;
    let cam_left = space.config_of(&[S::CAMERA_LEFT]).0;
    let cam_right = space.config_of(&[S::CAMERA_RIGHT]).0;
    let lidar = space.config_of(&[S::LIDAR]).0;
    let radar = space.config_of(&[S::RADAR]).0;

    let clear = vec![cameras_early, cam_right, cam_left, lr_early, lr_late, lidar, radar];
    let adverse =
        vec![lr_full, lr_early, lr_late, lidar, radar, cameras_early, cam_right, cam_left];
    let night = vec![lr_late, lr_early, lidar, radar, cameras_early, cam_right, cam_left];

    let mut fallbacks: BTreeMap<Context, Vec<usize>> = BTreeMap::new();
    for c in [Context::City, Context::Junction, Context::Motorway, Context::Rural] {
        fallbacks.insert(c, clear.clone());
    }
    for c in [Context::Fog, Context::Snow, Context::Rain] {
        fallbacks.insert(c, adverse.clone());
    }
    fallbacks.insert(Context::Night, night);
    fallbacks
}

/// Builds the Table 3 context → configuration map over a canonical
/// [`ConfigSpace`], as configuration indices suitable for
/// [`ecofusion_gating::KnowledgeGate`].
pub fn default_knowledge_rules(space: &ConfigSpace) -> BTreeMap<Context, usize> {
    use ConfigSpace as S;
    let mut rules: BTreeMap<Context, ConfigId> = BTreeMap::new();
    rules.insert(Context::City, space.config_of(&[S::EARLY_CCL]));
    let adverse = space.config_of(&[S::LIDAR, S::RADAR, S::EARLY_CCL, S::EARLY_CAMERAS]);
    rules.insert(Context::Fog, adverse);
    rules.insert(Context::Snow, adverse);
    let cameras_only = space.config_of(&[S::EARLY_CAMERAS]);
    rules.insert(Context::Junction, cameras_only);
    rules.insert(Context::Motorway, cameras_only);
    rules.insert(Context::Night, space.config_of(&[S::CAMERA_RIGHT, S::LIDAR, S::RADAR]));
    rules.insert(
        Context::Rain,
        space.config_of(&[S::CAMERA_LEFT, S::CAMERA_RIGHT, S::LIDAR, S::RADAR]),
    );
    rules.insert(Context::Rural, space.config_of(&[S::CAMERA_RIGHT, S::EARLY_CAMERAS]));
    rules.into_iter().map(|(c, id)| (c, id.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_energy::{Precision, Px2Model, SensorPowerModel, StageTrace, StemPolicy};

    /// The acid test: the default rules must reproduce every Table 3 cell.
    #[test]
    fn rules_reproduce_table3_energies() {
        let space = ConfigSpace::canonical();
        let rules = default_knowledge_rules(&space);
        let px2 = Px2Model::default();
        let sensors = SensorPowerModel::default();
        let expect = [
            (Context::City, 5.45),
            (Context::Fog, 13.96),
            (Context::Junction, 2.87),
            (Context::Motorway, 2.87),
            (Context::Night, 12.10),
            (Context::Rain, 13.27),
            (Context::Rural, 3.81),
            (Context::Snow, 13.96),
        ];
        for (ctx, want) in expect {
            let id = ConfigId(rules[&ctx]);
            let specs = space.branch_specs(id);
            let trace = StageTrace::compute_prec(
                &px2,
                &sensors,
                &specs,
                StemPolicy::Static,
                Precision::F32,
            );
            let got = trace.total_energy().joules();
            assert!(
                (got - want).abs() < 0.011,
                "{ctx:?}: got {got:.3} J, paper says {want} J (config {})",
                space.label(id)
            );
        }
    }

    #[test]
    fn rules_cover_all_contexts() {
        let space = ConfigSpace::canonical();
        let rules = default_knowledge_rules(&space);
        for c in Context::ALL {
            assert!(rules.contains_key(&c));
        }
    }

    #[test]
    fn degraded_fallbacks_cover_all_contexts_and_single_sensors() {
        let space = ConfigSpace::canonical();
        let fallbacks = default_degraded_fallbacks(&space);
        for c in Context::ALL {
            let list = &fallbacks[&c];
            assert!(!list.is_empty(), "{c:?}");
            // Every context's list contains every single-sensor config, so
            // one healthy sensor always leaves a runnable fallback.
            for single in [
                ConfigSpace::CAMERA_LEFT,
                ConfigSpace::CAMERA_RIGHT,
                ConfigSpace::LIDAR,
                ConfigSpace::RADAR,
            ] {
                let id = space.config_of(&[single]).0;
                assert!(list.contains(&id), "{c:?} missing single-sensor fallback {single:?}");
            }
            for idx in list {
                assert!(*idx < space.num_configs());
            }
        }
        // Clear contexts prefer cameras, adverse contexts lidar/radar.
        let city_first = fallbacks[&Context::City][0];
        assert_eq!(space.label(ConfigId(city_first)), "{E(C_L+C_R)}");
        let fog_first = fallbacks[&Context::Fog][0];
        assert_eq!(space.label(ConfigId(fog_first)), "{L, R, E(L+R)}");
    }

    #[test]
    fn adverse_contexts_use_radar() {
        let space = ConfigSpace::canonical();
        let rules = default_knowledge_rules(&space);
        for ctx in [Context::Fog, Context::Snow, Context::Night, Context::Rain] {
            let id = ConfigId(rules[&ctx]);
            let specs = space.branch_specs(id);
            let uses_radar =
                Px2Model::sensors_used(&specs).contains(&ecofusion_sensors::SensorKind::Radar);
            assert!(uses_radar, "{ctx:?} should keep radar on");
        }
    }
}
