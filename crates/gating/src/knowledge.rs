//! Knowledge gating (§4.2.1).

use crate::input::GateInput;
use crate::{Gate, GateKind};
use ecofusion_scene::Context;
use ecofusion_sensors::SensorMask;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Loss value assigned to configurations the knowledge gate did not pick:
/// large enough that the joint optimizer never selects them.
pub const KNOWLEDGE_REJECT_LOSS: f32 = 1.0e6;

/// Static, rule-based gate: domain knowledge maps each rigidly defined
/// driving context to one configuration. The context is assumed to come
/// from external sources (weather service, GPS, clock — paper §4.2.1), so
/// this gate never looks at the stem features.
///
/// Because its output is 0 for the chosen configuration and effectively
/// infinite for all others, the downstream `λ_E` optimization cannot trade
/// the choice off — matching the paper's observation that Knowledge "lacks
/// tunability" (identical loss/energy for every `λ_E` in Table 2).
///
/// # Degraded-context rules
///
/// A gate built with [`KnowledgeGate::with_degraded_rules`] additionally
/// knows which sensors each configuration consumes and, per context, an
/// ordered list of fallback configurations. When the input carries a
/// [`SensorMask`] that rules out the primary choice, the gate walks the
/// context's fallbacks and picks the first one whose sensors are all
/// available — e.g. "City normally runs `{E(C_L+C_R+L)}`, but with the
/// cameras dead, run lidar+radar instead". With no mask (or an
/// all-available one) behavior is bit-identical to the plain gate.
///
/// # Missing-rule fallback
///
/// A rule map may be incomplete (a deployment that never trained rules
/// for a context it now encounters). Lookups for an unmapped context do
/// not panic: they degrade to [`KnowledgeGate::fallback_choice`] — the
/// configuration with the fewest required sensors (the cheapest
/// single-sensor branch when degraded rules are configured, index 0
/// otherwise). [`KnowledgeGate::has_rule`] tells such a context apart;
/// the pipeline counts the frames it served this way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnowledgeGate {
    rules: BTreeMap<Context, usize>,
    num_configs: usize,
    /// Per-context ordered fallback configurations for degraded sensing.
    #[serde(default)]
    fallbacks: BTreeMap<Context, Vec<usize>>,
    /// Sensor-usage bitmask per configuration (bit `i` = canonical sensor
    /// `i` required); empty when degraded rules are not configured.
    #[serde(default)]
    config_sensors: Vec<u8>,
}

impl KnowledgeGate {
    /// Creates a gate from explicit context → configuration-index rules.
    /// Contexts absent from `rules` degrade at lookup time (see the
    /// missing-rule fallback above) instead of failing here.
    ///
    /// # Panics
    /// Panics if any rule points beyond `num_configs`.
    pub fn new(rules: BTreeMap<Context, usize>, num_configs: usize) -> Self {
        for (c, idx) in &rules {
            assert!(*idx < num_configs, "rule for {c:?} out of range");
        }
        KnowledgeGate { rules, num_configs, fallbacks: BTreeMap::new(), config_sensors: Vec::new() }
    }

    /// Equips the gate with degraded-context rules: `fallbacks` lists, per
    /// context, alternative configurations in preference order, and
    /// `config_sensors` gives each configuration's required-sensor bitmask
    /// (bit `i` = canonical sensor `i`).
    ///
    /// # Panics
    /// Panics if `config_sensors` does not cover every configuration or a
    /// fallback index is out of range.
    pub fn with_degraded_rules(
        mut self,
        fallbacks: BTreeMap<Context, Vec<usize>>,
        config_sensors: Vec<u8>,
    ) -> Self {
        assert_eq!(
            config_sensors.len(),
            self.num_configs,
            "config_sensors must cover every configuration"
        );
        for (c, list) in &fallbacks {
            for idx in list {
                assert!(*idx < self.num_configs, "fallback for {c:?} out of range");
            }
        }
        self.fallbacks = fallbacks;
        self.config_sensors = config_sensors;
        self
    }

    /// Whether a rule exists for the context.
    pub fn has_rule(&self, context: Context) -> bool {
        self.rules.contains_key(&context)
    }

    /// The choice an unmapped context degrades to: the configuration with
    /// the fewest required sensors (ties broken by lowest index), or
    /// config 0 when degraded rules — and thus sensor usage — are not
    /// configured.
    pub fn fallback_choice(&self) -> usize {
        self.config_sensors
            .iter()
            .enumerate()
            .min_by_key(|(i, bits)| (bits.count_ones(), *i))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The configured choice for a context, degrading to
    /// [`KnowledgeGate::fallback_choice`] when no rule exists.
    pub fn choice(&self, context: Context) -> usize {
        self.rules.get(&context).copied().unwrap_or_else(|| self.fallback_choice())
    }

    /// The choice for a context given an availability mask: the primary
    /// rule when its sensors are all available (or degraded rules are not
    /// configured), otherwise the first healthy fallback. Falls back to
    /// the primary rule when nothing in the list is fully healthy.
    pub fn choice_with_health(&self, context: Context, mask: SensorMask) -> usize {
        let primary = self.choice(context);
        if self.config_sensors.is_empty() || mask.is_all_available() {
            return primary;
        }
        if mask.allows_bits(self.config_sensors[primary]) {
            return primary;
        }
        self.fallbacks
            .get(&context)
            .and_then(|list| {
                list.iter().find(|idx| mask.allows_bits(self.config_sensors[**idx])).copied()
            })
            .unwrap_or(primary)
    }
}

impl Gate for KnowledgeGate {
    fn kind(&self) -> GateKind {
        GateKind::Knowledge
    }

    fn num_configs(&self) -> usize {
        self.num_configs
    }

    fn predict(&mut self, input: &GateInput<'_>) -> Vec<f32> {
        let context =
            input.context.expect("knowledge gating requires an externally identified context");
        let chosen = match input.sensor_health {
            Some(mask) => self.choice_with_health(context, mask),
            None => self.choice(context),
        };
        let mut out = vec![KNOWLEDGE_REJECT_LOSS; self.num_configs];
        out[chosen] = 0.0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_tensor::tensor::Tensor;

    fn rules() -> BTreeMap<Context, usize> {
        Context::ALL.iter().enumerate().map(|(i, c)| (*c, i % 3)).collect()
    }

    #[test]
    fn picks_configured_rule() {
        let mut g = KnowledgeGate::new(rules(), 3);
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let pred = g.predict(&GateInput::with_context(&t, Context::City));
        let chosen = g.choice(Context::City);
        assert_eq!(pred[chosen], 0.0);
        assert!(pred.iter().enumerate().all(|(i, &v)| i == chosen || v >= KNOWLEDGE_REJECT_LOSS));
    }

    #[test]
    #[should_panic(expected = "externally identified context")]
    fn missing_context_panics() {
        let mut g = KnowledgeGate::new(rules(), 3);
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = g.predict(&GateInput::features_only(&t));
    }

    #[test]
    fn incomplete_rules_degrade_instead_of_panicking() {
        let mut r = rules();
        r.remove(&Context::Snow);
        let mut g = KnowledgeGate::new(r, 3);
        assert!(!g.has_rule(Context::Snow));
        // Without sensor usage configured, the fallback is config 0.
        assert_eq!(g.choice(Context::Snow), 0);
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let pred = g.predict(&GateInput::with_context(&t, Context::Snow));
        assert_eq!(pred[0], 0.0);
    }

    #[test]
    fn missing_rule_fallback_prefers_fewest_sensors() {
        // Sensor usage configured: the fallback is the cheapest
        // single-sensor config (lidar-only, index 1), not index 0.
        let mut g = degraded_gate_missing(Context::Snow);
        assert_eq!(g.fallback_choice(), 1);
        assert_eq!(g.choice(Context::Snow), 1);
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let pred = g.predict(
            &GateInput::with_context(&t, Context::Snow).with_health(SensorMask::all_available()),
        );
        assert_eq!(pred[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rule_panics() {
        let mut r = rules();
        r.insert(Context::City, 99);
        let _ = KnowledgeGate::new(r, 3);
    }

    use ecofusion_sensors::SensorKind;

    /// Three toy configs: 0 = cameras, 1 = lidar, 2 = lidar+radar.
    fn degraded_gate() -> KnowledgeGate {
        let sensors = vec![
            (1 << SensorKind::CameraLeft.index()) | (1 << SensorKind::CameraRight.index()),
            1 << SensorKind::Lidar.index(),
            (1 << SensorKind::Lidar.index()) | (1 << SensorKind::Radar.index()),
        ];
        let mut rules: BTreeMap<Context, usize> = Context::ALL.iter().map(|c| (*c, 0)).collect();
        rules.insert(Context::Night, 2);
        let fallbacks: BTreeMap<Context, Vec<usize>> =
            Context::ALL.iter().map(|c| (*c, vec![2, 1])).collect();
        KnowledgeGate::new(rules, 3).with_degraded_rules(fallbacks, sensors)
    }

    /// [`degraded_gate`] with one context's rule removed.
    fn degraded_gate_missing(missing: Context) -> KnowledgeGate {
        let sensors = vec![
            (1 << SensorKind::CameraLeft.index()) | (1 << SensorKind::CameraRight.index()),
            1 << SensorKind::Lidar.index(),
            (1 << SensorKind::Lidar.index()) | (1 << SensorKind::Radar.index()),
        ];
        let mut rules: BTreeMap<Context, usize> = Context::ALL.iter().map(|c| (*c, 0)).collect();
        rules.remove(&missing);
        let fallbacks: BTreeMap<Context, Vec<usize>> =
            Context::ALL.iter().map(|c| (*c, vec![2, 1])).collect();
        KnowledgeGate::new(rules, 3).with_degraded_rules(fallbacks, sensors)
    }

    #[test]
    fn healthy_mask_keeps_primary_rule() {
        let mut g = degraded_gate();
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let all = SensorMask::all_available();
        assert_eq!(g.choice_with_health(Context::City, all), 0);
        let pred = g.predict(&GateInput::with_context(&t, Context::City).with_health(all));
        assert_eq!(pred[0], 0.0);
    }

    #[test]
    fn dead_camera_falls_back_in_preference_order() {
        let mut g = degraded_gate();
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let no_cams = SensorMask::all_available()
            .without(SensorKind::CameraLeft)
            .without(SensorKind::CameraRight);
        // Primary (cameras) is broken; first fallback (lidar+radar) is
        // healthy.
        assert_eq!(g.choice_with_health(Context::City, no_cams), 2);
        let pred = g.predict(&GateInput::with_context(&t, Context::City).with_health(no_cams));
        assert_eq!(pred[2], 0.0);
        assert!(pred[0] >= KNOWLEDGE_REJECT_LOSS);
        // With radar also dead, the next fallback (lidar alone) wins.
        let lidar_only = no_cams.without(SensorKind::Radar);
        assert_eq!(g.choice_with_health(Context::City, lidar_only), 1);
    }

    #[test]
    fn healthy_primary_ignores_fallbacks_and_exhausted_list_keeps_primary() {
        let g = degraded_gate();
        // Night's primary (lidar+radar) is healthy even without cameras.
        let no_cams = SensorMask::all_available()
            .without(SensorKind::CameraLeft)
            .without(SensorKind::CameraRight);
        assert_eq!(g.choice_with_health(Context::Night, no_cams), 2);
        // Everything dead: nothing in the list is healthy, keep primary.
        assert_eq!(g.choice_with_health(Context::City, SensorMask::none_available()), 0);
    }

    #[test]
    fn gate_without_degraded_rules_ignores_mask() {
        let mut g = KnowledgeGate::new(rules(), 3);
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let no_cams = SensorMask::all_available().without(SensorKind::CameraLeft);
        let with_mask = g.predict(&GateInput::with_context(&t, Context::City).with_health(no_cams));
        let without = g.predict(&GateInput::with_context(&t, Context::City));
        assert_eq!(with_mask, without);
    }

    #[test]
    #[should_panic(expected = "cover every configuration")]
    fn mismatched_sensor_map_panics() {
        let _ = KnowledgeGate::new(rules(), 3).with_degraded_rules(BTreeMap::new(), vec![0u8; 2]);
    }
}
