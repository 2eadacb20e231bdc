//! Online per-sensor health estimation from grid statistics.

use ecofusion_sensors::{Observation, SensorKind, SensorMask};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Tuning knobs of the [`SensorHealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// EWMA coefficient of the fast (reactive) statistics.
    pub alpha_fast: f64,
    /// EWMA coefficient of the slow baseline statistics.
    pub alpha_slow: f64,
    /// Frames before the monitor starts judging (baselines settle first);
    /// every sensor reports healthy during warmup.
    pub warmup_frames: u64,
    /// Score below which a sensor is [`HealthState::Degraded`].
    pub degraded_below: f64,
    /// Score below which a sensor is [`HealthState::Failed`].
    pub failed_below: f64,
    /// Recovery margin: a sensor already flagged (degraded or failed)
    /// only improves its state once the score clears the corresponding
    /// threshold by this much. Prevents a score hovering at a threshold
    /// from flapping the state — and, downstream, the availability mask —
    /// frame to frame.
    pub hysteresis: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            alpha_fast: 0.5,
            alpha_slow: 0.05,
            warmup_frames: 4,
            degraded_below: 0.7,
            failed_below: 0.35,
            hysteresis: 0.1,
        }
    }
}

/// Discretized health of one sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthState {
    /// Statistics within the sensor's own baseline.
    Healthy,
    /// Statistics drifting away from baseline; still usable with caution.
    Degraded,
    /// Statistics incompatible with a live sensor; mask it out.
    Failed,
}

impl HealthState {
    /// Lower-case name (`healthy`, `degraded`, `failed`), as displayed
    /// and as trace events carry it.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Failed => "failed",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Rolling statistics and verdict for one sensor.
#[derive(Debug, Clone)]
struct SensorTracker {
    frames: u64,
    fast_energy: f64,
    slow_energy: f64,
    fast_var: f64,
    slow_var: f64,
    fast_delta: f64,
    slow_delta: f64,
    /// The previous frame's grid, overwritten in place every frame (empty
    /// before the first).
    prev: Vec<f32>,
    score: f64,
    state: HealthState,
}

impl SensorTracker {
    fn new() -> Self {
        SensorTracker {
            frames: 0,
            fast_energy: 0.0,
            slow_energy: 0.0,
            fast_var: 0.0,
            slow_var: 0.0,
            fast_delta: 0.0,
            slow_delta: 0.0,
            prev: Vec::new(),
            score: 1.0,
            state: HealthState::Healthy,
        }
    }

    /// The previous grid a `len`-cell grid can be differenced against:
    /// none on a first frame, and none when the grid changed length — a
    /// delta over the common prefix would compare unrelated cells.
    fn prev_for(&self, len: usize) -> Option<&[f32]> {
        (self.frames > 0 && self.prev.len() == len).then_some(&self.prev[..])
    }
}

/// One frame's grid statistics of one sensor.
#[derive(Debug, Clone, Copy)]
struct GridStats {
    /// Mean absolute cell value.
    energy: f64,
    /// Population variance of the cells.
    var: f64,
    /// Mean absolute change against the previous frame, when there is one
    /// to compare with ([`SensorTracker::prev_for`]).
    delta: Option<f64>,
}

/// [`GridStats`] of one sensor, a pass per statistic: the definition the
/// one-pass [`fused_stats`] is bit-identical to, the path of an
/// observation whose grids differ in length, and the tests' oracle.
fn sensor_stats(data: &[f32], prev: Option<&[f32]>) -> GridStats {
    let n = data.len().max(1) as f64;
    let mut sum = 0.0f64;
    let mut sum_abs = 0.0f64;
    for &v in data {
        sum += v as f64;
        sum_abs += v.abs() as f64;
    }
    let mean = sum / n;
    let mut var = 0.0f64;
    for &v in data {
        let d = v as f64 - mean;
        var += d * d;
    }
    let delta = prev.map(|prev| {
        let mut d = 0.0f64;
        for (&a, &b) in data.iter().zip(prev) {
            d += (a - b).abs() as f64;
        }
        d / n
    });
    GridStats { energy: sum_abs / n, var: var / n, delta }
}

/// [`sensor_stats`] of all four sensors in one pass over four grids of
/// one length: the sums, absolute sums and frame deltas as twelve
/// independent accumulators in one loop, the four variances in a second.
/// Every accumulator adds the terms [`sensor_stats`] adds, in its order —
/// floating-point addition is never reassociated — so each statistic is
/// the same `f64` bit for bit; what changes is that twelve serial add
/// chains overlap instead of running one after another, and each grid is
/// read twice instead of three times.
///
/// # Panics
/// Panics if the grids (or a present `prev`) differ in length.
fn fused_stats(grids: [&[f32]; 4], prevs: [Option<&[f32]>; 4]) -> [GridStats; 4] {
    let len = grids[0].len();
    let n = len.max(1) as f64;
    // A sensor with nothing to difference against reads its own grid as
    // `prev`; its delta is discarded below.
    let against: [&[f32]; 4] = std::array::from_fn(|s| prevs[s].unwrap_or(grids[s]));
    assert!(grids.iter().chain(&against).all(|g| g.len() == len), "grids of one length");
    /// Cell `i` of all four slices, for every `i`.
    fn cells<'a>([a, b, c, d]: [&'a [f32]; 4]) -> impl Iterator<Item = [f32; 4]> + 'a {
        a.iter().zip(b).zip(c).zip(d).map(|(((&a, &b), &c), &d)| [a, b, c, d])
    }
    let (mut sum, mut sum_abs, mut diff) = ([0.0f64; 4], [0.0f64; 4], [0.0f64; 4]);
    for (v, prev) in cells(grids).zip(cells(against)) {
        for s in 0..4 {
            sum[s] += v[s] as f64;
            sum_abs[s] += v[s].abs() as f64;
            diff[s] += (v[s] - prev[s]).abs() as f64;
        }
    }
    let mean = sum.map(|s| s / n);
    let mut var = [0.0f64; 4];
    for v in cells(grids) {
        for s in 0..4 {
            let d = v[s] as f64 - mean[s];
            var[s] += d * d;
        }
    }
    std::array::from_fn(|s| GridStats {
        energy: sum_abs[s] / n,
        var: var[s] / n,
        delta: prevs[s].map(|_| diff[s] / n),
    })
}

/// Estimates per-sensor health online, with no ground truth, from three
/// grid statistics:
///
/// * **energy** (mean absolute cell value) — collapses under dropout and
///   heavy attenuation;
/// * **variance** — explodes under a noise burst;
/// * **frame delta** (mean absolute change vs. the previous frame) —
///   collapses when a sensor freezes.
///
/// Each statistic keeps a fast and a slow EWMA; the health score is the
/// worst of the fast/slow ratios, mapped into `[0, 1]`. The slow baseline
/// is frozen while a sensor is not healthy, so a long-lived fault cannot
/// become the new normal. Scores discretize into [`HealthState`]s, and
/// [`SensorHealthMonitor::mask`] summarizes failed sensors as a
/// [`SensorMask`] for the fault-aware gating layer.
///
/// The monitor is pure observation-side accounting and fully
/// deterministic in its input sequence. Its cost is measured, not
/// assumed: ≈ 5 µs per 32×32 observation on the reference host
/// (`fault_pipeline/health_monitor_update`), about half the int8 branch
/// plan's ≈ 11 µs per frame (`BENCH_27.json`) — it runs in the server's
/// serial pick phase, so on the int8 emergency rung it is a visible share
/// of the step. [`SensorHealthMonitor::update`] therefore
/// reads the four grids of an observation together (`fused_stats`): one
/// loop carries the sum, absolute sum and frame delta of all four
/// sensors as twelve independent `f64` chains, a second the four
/// variances. Each chain adds exactly the terms of the sensor-at-a-time
/// definition (`sensor_stats`) in exactly its order, so every score,
/// state, mask and transition count is bit-identical to it; grids of
/// unequal length (reachable only through [`Observation::grid_mut`]) take
/// the sensor-at-a-time path.
///
/// # Grid length changes
///
/// The frame delta compares a grid with the previous frame's, cell for
/// cell. A sensor whose grid changes length between two updates has no
/// such pairing: it gets **no delta sample on that frame** — exactly as
/// on its first frame — its previous-frame buffer is re-seeded with the
/// new grid, and its EWMAs and the energy and variance statistics carry
/// on. The frame after takes its delta over every cell again.
///
/// # Limitation: faults present from stream start
///
/// The baseline is learned from the stream itself, so a *partial* fault
/// already active during warmup (say a half-severity dropout from frame
/// 0) is absorbed into the slow statistics and never flagged — the
/// monitor detects *change* relative to the sensor's own history, not
/// absolute quality. A sensor that is fully dead at start is still
/// caught (zero energy scores ~0 against any baseline), but
/// pre-degraded-yet-alive sensors need an external reference (e.g. a
/// fleet-wide expected-statistics table) that this reproduction does not
/// model.
#[derive(Debug, Clone)]
pub struct SensorHealthMonitor {
    cfg: HealthConfig,
    trackers: [SensorTracker; 4],
    transitions: u64,
}

impl Default for SensorHealthMonitor {
    fn default() -> Self {
        SensorHealthMonitor::new(HealthConfig::default())
    }
}

impl SensorHealthMonitor {
    /// Creates a monitor.
    ///
    /// # Panics
    /// Panics if the config's alphas are outside `(0, 1]` or the
    /// thresholds are not `0 < failed_below <= degraded_below <= 1`.
    pub fn new(cfg: HealthConfig) -> Self {
        assert!(cfg.alpha_fast > 0.0 && cfg.alpha_fast <= 1.0, "alpha_fast must be in (0, 1]");
        assert!(cfg.alpha_slow > 0.0 && cfg.alpha_slow <= 1.0, "alpha_slow must be in (0, 1]");
        assert!(
            cfg.failed_below > 0.0 && cfg.failed_below <= cfg.degraded_below,
            "thresholds must satisfy 0 < failed_below <= degraded_below"
        );
        assert!(cfg.degraded_below <= 1.0, "degraded_below must be at most 1");
        assert!(cfg.hysteresis >= 0.0, "hysteresis must be non-negative");
        SensorHealthMonitor {
            cfg,
            trackers: [
                SensorTracker::new(),
                SensorTracker::new(),
                SensorTracker::new(),
                SensorTracker::new(),
            ],
            transitions: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Ingests one observation and refreshes every sensor's score/state.
    pub fn update(&mut self, obs: &Observation) {
        let grids = SensorKind::ALL.map(|k| obs.grid(k).data());
        let prevs: [Option<&[f32]>; 4] =
            std::array::from_fn(|s| self.trackers[s].prev_for(grids[s].len()));
        let stats = if grids.iter().all(|g| g.len() == grids[0].len()) {
            fused_stats(grids, prevs)
        } else {
            std::array::from_fn(|s| sensor_stats(grids[s], prevs[s]))
        };
        for (s, stats) in stats.into_iter().enumerate() {
            self.judge(s, grids[s], stats);
        }
    }

    /// The verdict half of an update for the sensor with canonical index
    /// `s`: remembers `data` as the previous frame, folds the frame's
    /// statistics into the EWMAs and re-derives score and state.
    fn judge(&mut self, s: usize, data: &[f32], stats: GridStats) {
        let cfg = self.cfg;
        let GridStats { energy, var, delta } = stats;
        let t = &mut self.trackers[s];
        // In place once the buffer has the grid's length.
        t.prev.clear();
        t.prev.extend_from_slice(data);

        if t.frames == 0 {
            t.fast_energy = energy;
            t.slow_energy = energy;
            t.fast_var = var;
            t.slow_var = var;
        } else {
            t.fast_energy = ewma(cfg.alpha_fast, energy, t.fast_energy);
            t.fast_var = ewma(cfg.alpha_fast, var, t.fast_var);
        }
        if let Some(delta) = delta {
            if t.frames == 1 {
                t.fast_delta = delta;
                t.slow_delta = delta;
            } else {
                t.fast_delta = ewma(cfg.alpha_fast, delta, t.fast_delta);
            }
        }
        // The slow baseline only learns from frames the monitor believes
        // are healthy — a fault must not become the reference.
        if t.state == HealthState::Healthy && t.frames > 0 {
            t.slow_energy = ewma(cfg.alpha_slow, energy, t.slow_energy);
            t.slow_var = ewma(cfg.alpha_slow, var, t.slow_var);
            if let Some(delta) = delta {
                if t.frames > 1 {
                    t.slow_delta = ewma(cfg.alpha_slow, delta, t.slow_delta);
                }
            }
        }
        t.frames += 1;

        if t.frames <= cfg.warmup_frames {
            t.score = 1.0;
            // Warmup never transitions; state stays Healthy.
            return;
        }
        const EPS: f64 = 1e-6;
        let energy_score = (t.fast_energy / (t.slow_energy + EPS)).clamp(0.0, 1.0);
        let delta_score = (t.fast_delta / (t.slow_delta + EPS)).clamp(0.0, 1.0);
        let noise_score = ((t.slow_var + EPS) / (t.fast_var + EPS)).clamp(0.0, 1.0);
        t.score = energy_score.min(delta_score).min(noise_score);
        // Hysteresis: worsening applies at the base thresholds
        // immediately (masking a dying sensor must be fast), but
        // improving requires clearing the threshold by the margin — a
        // score hovering at a boundary cannot flap the state (and the
        // availability mask) every frame.
        let classify = |score: f64, margin: f64| {
            if score < cfg.failed_below + margin {
                HealthState::Failed
            } else if score < cfg.degraded_below + margin {
                HealthState::Degraded
            } else {
                HealthState::Healthy
            }
        };
        let raw = classify(t.score, 0.0);
        let new_state = if raw >= t.state {
            raw
        } else {
            // Improving: only as far as the margin-raised thresholds
            // allow, and never below the current state.
            classify(t.score, cfg.hysteresis).min(t.state)
        };
        if new_state != t.state {
            t.state = new_state;
            self.transitions += 1;
        }
    }

    /// Current health score of one sensor (1 = fully healthy).
    pub fn score(&self, kind: SensorKind) -> f64 {
        self.trackers[kind.index()].score
    }

    /// Current state of one sensor.
    pub fn state(&self, kind: SensorKind) -> HealthState {
        self.trackers[kind.index()].state
    }

    /// All scores in canonical sensor order.
    pub fn scores(&self) -> [f64; 4] {
        SensorKind::ALL.map(|k| self.score(k))
    }

    /// All states in canonical sensor order.
    pub fn states(&self) -> [HealthState; 4] {
        SensorKind::ALL.map(|k| self.state(k))
    }

    /// Sensors currently *not* healthy.
    pub fn degraded_count(&self) -> usize {
        self.trackers.iter().filter(|t| t.state != HealthState::Healthy).count()
    }

    /// Availability mask for the gating layer: failed sensors are masked
    /// out, degraded sensors stay available (their branches still carry
    /// signal).
    pub fn mask(&self) -> SensorMask {
        let mut m = SensorMask::all_available();
        for kind in SensorKind::ALL {
            if self.state(kind) == HealthState::Failed {
                m = m.without(kind);
            }
        }
        m
    }

    /// Conservative mask: degraded *and* failed sensors are masked out.
    pub fn strict_mask(&self) -> SensorMask {
        let mut m = SensorMask::all_available();
        for kind in SensorKind::ALL {
            if self.state(kind) != HealthState::Healthy {
                m = m.without(kind);
            }
        }
        m
    }

    /// State changes observed since construction/reset.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Forgets all statistics and verdicts.
    pub fn reset(&mut self) {
        *self = SensorHealthMonitor::new(self.cfg);
    }
}

fn ewma(alpha: f64, sample: f64, prev: f64) -> f64 {
    alpha * sample + (1.0 - alpha) * prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjector, FaultKind, FaultSchedule};
    use ecofusion_scene::{Context, ScenarioGenerator, Scene, SceneSequence};
    use ecofusion_sensors::SensorSuite;
    use ecofusion_tensor::rng::Rng;

    /// A short deterministic city sequence rendered clean.
    fn sequence(seed: u64, frames: usize) -> (Vec<Scene>, Vec<Observation>) {
        let mut gen = ScenarioGenerator::new(seed);
        let seq = SceneSequence::simulate(gen.scene(Context::City), frames - 1, 0.1);
        let suite = SensorSuite::new(32);
        let scenes: Vec<Scene> = seq.frames().to_vec();
        let obs = scenes
            .iter()
            .enumerate()
            .map(|(i, s)| suite.observe(s, &mut Rng::new(seed ^ ((i as u64) << 9))))
            .collect();
        (scenes, obs)
    }

    fn run_monitor(
        schedule: FaultSchedule,
        frames: usize,
    ) -> (SensorHealthMonitor, Vec<SensorMask>) {
        let (scenes, clean) = sequence(17, frames);
        let mut inj = FaultInjector::new(schedule, 5);
        let mut monitor = SensorHealthMonitor::default();
        let mut masks = Vec::new();
        for (s, o) in scenes.iter().zip(&clean) {
            let obs = inj.apply(o.clone(), s.context);
            monitor.update(&obs);
            masks.push(monitor.mask());
        }
        (monitor, masks)
    }

    #[test]
    fn clean_stream_stays_healthy() {
        let (monitor, masks) = run_monitor(FaultSchedule::empty(), 16);
        for kind in SensorKind::ALL {
            assert_eq!(monitor.state(kind), HealthState::Healthy, "{kind:?}");
            assert!(monitor.score(kind) > 0.5, "{kind:?}: {}", monitor.score(kind));
        }
        assert!(masks.iter().all(|m| m.is_all_available()));
        assert_eq!(monitor.degraded_count(), 0);
    }

    #[test]
    fn dropout_drives_sensor_to_failed() {
        let schedule = FaultSchedule::empty().with_dropout(SensorKind::CameraRight, 8, u64::MAX);
        let (monitor, masks) = run_monitor(schedule, 16);
        assert_eq!(monitor.state(SensorKind::CameraRight), HealthState::Failed);
        assert!(!monitor.mask().is_available(SensorKind::CameraRight));
        assert!(monitor.mask().is_available(SensorKind::Lidar));
        // The mask flips within a few frames of onset.
        assert!(masks[7].is_all_available(), "pre-onset mask must be clean");
        assert!(!masks[11].is_available(SensorKind::CameraRight), "mask too slow");
        assert!(monitor.transitions() > 0);
    }

    #[test]
    fn frozen_frame_detected_via_delta_collapse() {
        let schedule = FaultSchedule::empty().with_frozen(SensorKind::Lidar, 8, u64::MAX);
        let (monitor, _) = run_monitor(schedule, 18);
        assert_ne!(monitor.state(SensorKind::Lidar), HealthState::Healthy);
        assert!(monitor.score(SensorKind::Lidar) < 0.5);
        assert_eq!(monitor.state(SensorKind::Radar), HealthState::Healthy);
    }

    #[test]
    fn noise_burst_detected_via_variance() {
        let schedule = FaultSchedule::empty().with_event(
            SensorKind::Radar,
            FaultKind::NoiseBurst,
            8,
            u64::MAX,
            1.0,
        );
        let (monitor, _) = run_monitor(schedule, 16);
        assert_ne!(monitor.state(SensorKind::Radar), HealthState::Healthy);
        assert_eq!(monitor.state(SensorKind::CameraLeft), HealthState::Healthy);
    }

    #[test]
    fn recovery_after_fault_clears() {
        let schedule = FaultSchedule::empty().with_dropout(SensorKind::CameraLeft, 6, 6);
        let (monitor, masks) = run_monitor(schedule, 28);
        // Failed mid-fault, healthy again well after it clears.
        assert!(masks.iter().any(|m| !m.is_available(SensorKind::CameraLeft)));
        assert_eq!(monitor.state(SensorKind::CameraLeft), HealthState::Healthy);
        assert!(monitor.mask().is_all_available());
        assert!(monitor.transitions() >= 2, "fail + recover");
    }

    #[test]
    fn warmup_never_judges() {
        let schedule = FaultSchedule::empty().with_dropout(SensorKind::Lidar, 0, u64::MAX);
        let (scenes, clean) = sequence(23, 4);
        let mut inj = FaultInjector::new(schedule, 5);
        let mut monitor = SensorHealthMonitor::default();
        for (s, o) in scenes.iter().zip(&clean) {
            monitor.update(&inj.apply(o.clone(), s.context));
            assert_eq!(monitor.state(SensorKind::Lidar), HealthState::Healthy);
        }
        assert_eq!(monitor.transitions(), 0);
    }

    #[test]
    fn strict_mask_masks_degraded() {
        let mut monitor = SensorHealthMonitor::default();
        monitor.trackers[2].state = HealthState::Degraded;
        monitor.trackers[3].state = HealthState::Failed;
        assert_eq!(monitor.mask().unavailable(), vec![SensorKind::Radar]);
        assert_eq!(monitor.strict_mask().unavailable(), vec![SensorKind::Lidar, SensorKind::Radar]);
    }

    #[test]
    fn deterministic_and_resettable() {
        let schedule = FaultSchedule::empty().with_camera_dropout(5, 10);
        let (a, _) = run_monitor(schedule.clone(), 20);
        let (b, _) = run_monitor(schedule, 20);
        assert_eq!(a.scores(), b.scores());
        assert_eq!(a.states(), b.states());
        let mut m = a.clone();
        m.reset();
        assert_eq!(m.scores(), [1.0; 4]);
        assert_eq!(m.transitions(), 0);
    }

    #[test]
    #[should_panic(expected = "alpha_fast")]
    fn bad_config_panics() {
        let _ = SensorHealthMonitor::new(HealthConfig { alpha_fast: 0.0, ..Default::default() });
    }

    /// A score hovering right at the failed threshold must not flap the
    /// state: demotion is immediate, but recovery requires clearing the
    /// threshold by the hysteresis margin.
    #[test]
    fn hysteresis_prevents_state_flapping() {
        use ecofusion_tensor::tensor::Tensor;

        // Synthetic observations: seeded random grids scaled so the
        // energy ratio vs. the baseline oscillates around failed_below
        // (0.35): alternately just below and just above.
        let obs_with_scale = |seed: u64, scale: f32| {
            let grids = [0, 1, 2, 3].map(|s| {
                let mut t = Tensor::zeros(&[1, 1, 16, 16]);
                let mut rng = Rng::new(seed ^ (s << 8));
                for v in t.data_mut() {
                    *v = scale * rng.uniform(0.0, 1.0) as f32;
                }
                t
            });
            Observation::from_grids(grids)
        };
        let mut monitor = SensorHealthMonitor::default();
        // Baseline at full scale.
        for i in 0..8u64 {
            monitor.update(&obs_with_scale(i, 1.0));
        }
        assert_eq!(monitor.states(), [HealthState::Healthy; 4]);
        let baseline_transitions = monitor.transitions();
        // Oscillate around the failed threshold for a while.
        for i in 0..24u64 {
            let scale = if i % 2 == 0 { 0.30 } else { 0.40 };
            monitor.update(&obs_with_scale(100 + i, scale));
        }
        for kind in SensorKind::ALL {
            assert_eq!(monitor.state(kind), HealthState::Failed, "{kind:?}");
        }
        // At most one downward walk per sensor (healthy → degraded →
        // failed): no recovery transitions while hovering below
        // failed_below + hysteresis.
        let downward = monitor.transitions() - baseline_transitions;
        assert!(downward <= 8, "state flapped: {downward} transitions during hover");
    }
    /// `update` the sensor-at-a-time way, whatever the grids' lengths:
    /// the oracle of the one-pass form.
    fn update_sensor_at_a_time(monitor: &mut SensorHealthMonitor, obs: &Observation) {
        for (s, kind) in SensorKind::ALL.into_iter().enumerate() {
            let data = obs.grid(kind).data();
            let stats = sensor_stats(data, monitor.trackers[s].prev_for(data.len()));
            monitor.judge(s, data, stats);
        }
    }

    /// Bit equality, except that two NaNs are equal whatever their sign
    /// and payload: Rust leaves both unspecified, and which operand's NaN
    /// an addition propagates is the code generator's choice.
    fn assert_same_scores(a: &SensorHealthMonitor, b: &SensorHealthMonitor, what: &str) {
        for (kind, (x, y)) in
            SensorKind::ALL.into_iter().zip(a.scores().into_iter().zip(b.scores()))
        {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: {kind:?} scores differ: {x:?} vs {y:?}"
            );
        }
        assert_eq!(a.states(), b.states(), "{what}");
        assert_eq!(a.transitions(), b.transitions(), "{what}");
    }

    fn grid(side: usize, cell: impl FnMut(usize) -> f32) -> ecofusion_tensor::tensor::Tensor {
        let data = (0..side * side).map(cell).collect();
        ecofusion_tensor::tensor::Tensor::from_vec(&[1, 1, side, side], data)
    }

    /// A ±1 grid with as many of each sign: energy 1, mean 0, variance 1,
    /// all exact, so only the frame delta moves. `flipped` cells (an even
    /// number of neighbours) have their sign inverted.
    fn signs(side: usize, flipped: impl Fn(usize) -> bool) -> ecofusion_tensor::tensor::Tensor {
        grid(side, |i| {
            let v = if i % 2 == 0 { 1.0 } else { -1.0 };
            if flipped(i) {
                -v
            } else {
                v
            }
        })
    }

    /// A grid that changes length yields no delta sample on that frame —
    /// not one over the common prefix scaled by the new length — and the
    /// frame after takes its delta over every cell of the new grid.
    #[test]
    fn grid_length_change_skips_one_delta_sample() {
        let cfg = HealthConfig { warmup_frames: 3, ..HealthConfig::default() };
        let frames = [
            signs(16, |_| false),
            // Half the cells flip: delta 128 · 2 / 256 = 1, the baseline.
            signs(16, |i| i < 128),
            // The grid grows; its first 256 cells repeat the last frame.
            signs(32, |i| i < 128),
            // 128 more flips, all beyond the old length: 128 · 2 / 1024.
            signs(32, |i| i < 128 || (256..384).contains(&i)),
        ];
        let run = || {
            let mut monitor = SensorHealthMonitor::new(cfg);
            for g in &frames {
                monitor.update(&Observation::from_grids([0, 1, 2, 3].map(|_| g.clone())));
            }
            monitor
        };
        let monitor = run();
        // Fast and slow delta are both 1 when the grid grows and are left
        // alone by that frame; the last frame folds 0.25 into each.
        let fast = ewma(cfg.alpha_fast, 0.25, 1.0);
        let slow = ewma(cfg.alpha_slow, 0.25, 1.0);
        let expected = fast / (slow + 1e-6);
        assert!(expected < 0.7, "the delta score must be the binding one: {expected}");
        for kind in SensorKind::ALL {
            assert_eq!(monitor.score(kind).to_bits(), expected.to_bits(), "{kind:?}");
            assert_eq!(monitor.state(kind), HealthState::Degraded, "{kind:?}");
        }
        assert_same_scores(&monitor, &run(), "two runs");
    }

    /// One sensor's grid changing length (the other three keep theirs)
    /// sends the observation down the sensor-at-a-time path and must not
    /// touch the other three sensors' statistics.
    #[test]
    fn one_sensors_length_change_leaves_the_others_bit_equal() {
        let (_, clean) = sequence(29, 12);
        let mut plain = SensorHealthMonitor::default();
        let mut resized = SensorHealthMonitor::default();
        for (i, obs) in clean.iter().enumerate() {
            plain.update(obs);
            let mut obs = obs.clone();
            if i >= 5 {
                let mut rng = Rng::new(i as u64);
                *obs.grid_mut(SensorKind::Lidar) = grid(16, |_| rng.uniform(0.0, 1.0) as f32);
            }
            resized.update(&obs);
        }
        for kind in SensorKind::ALL {
            let (a, b) = (plain.score(kind), resized.score(kind));
            if kind == SensorKind::Lidar {
                assert!(b.is_finite(), "the resized sensor keeps a score: {b}");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}: {a} vs {b}");
                assert_eq!(plain.state(kind), resized.state(kind), "{kind:?}");
            }
        }
    }

    /// The one-pass `update` is the sensor-at-a-time monitor bit for bit:
    /// random grid sequences salted with the values that break careless
    /// float code, a constant grid, a length change for all four sensors
    /// and observations whose four grids have four different lengths.
    #[test]
    fn one_pass_update_matches_the_sensor_at_a_time_oracle() {
        const SPECIALS: [f32; 7] =
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX, f32::MIN_POSITIVE];
        for seed in 0..24u64 {
            let mut rng = Rng::new(0x4EA1 ^ seed);
            let mut fused = SensorHealthMonitor::default();
            let mut oracle = SensorHealthMonitor::default();
            for frame in 0..20usize {
                // Seeds below 8 stay finite, so their scores compare by
                // bits alone; the rest meet a special value now and then.
                let special_rate = if seed < 8 { 0.0 } else { 0.002 };
                let scale = if frame % 7 == 6 { 0.2 } else { 1.0 };
                let side = if frame < 9 { 16 } else { 32 };
                let constant = frame == 4;
                let mut obs = Observation::from_grids([0, 1, 2, 3].map(|_| {
                    grid(side, |_| {
                        if constant {
                            0.5
                        } else if rng.chance(special_rate) {
                            SPECIALS[rng.uniform_usize(0, SPECIALS.len())]
                        } else {
                            (scale * rng.normal(0.0, 1.0)) as f32
                        }
                    })
                }));
                if frame == 13 || frame == 14 {
                    for (kind, side) in SensorKind::ALL.into_iter().zip([8, 16, 24, 32]) {
                        *obs.grid_mut(kind) = grid(side, |_| rng.normal(0.0, 1.0) as f32);
                    }
                }
                fused.update(&obs);
                update_sensor_at_a_time(&mut oracle, &obs);
                assert_same_scores(&fused, &oracle, &format!("seed {seed} frame {frame}"));
                if seed < 8 {
                    assert!(fused.scores().iter().all(|s| s.is_finite()), "seed {seed}");
                }
            }
        }
    }
}
