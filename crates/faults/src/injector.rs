//! The fault injector: applies a schedule to an observation stream.

use crate::model::{apply_stateless, FaultKind};
use crate::schedule::FaultSchedule;
use ecofusion_scene::{Context, Scene};
use ecofusion_sensors::{Observation, SensorSuite};
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;
use std::collections::BTreeMap;

/// Applies a [`FaultSchedule`] to a stream of observations, one frame at a
/// time.
///
/// The injector wraps the *output* of [`SensorSuite::observe`] and never
/// touches the clean rendering path: with an empty schedule (or outside
/// every event's interval) the observation passes through bit-identical
/// and no random numbers are drawn, so seeded fixtures are unchanged.
/// Faulty frames draw from per-`(frame, event)` RNG streams derived from
/// the injector seed only — injection is reproducible regardless of how
/// events overlap, and independent of the caller's RNG state.
///
/// # Example
///
/// ```
/// use ecofusion_faults::{FaultInjector, FaultSchedule};
/// use ecofusion_scene::{Context, ScenarioGenerator};
/// use ecofusion_sensors::{SensorKind, SensorSuite};
/// use ecofusion_tensor::rng::Rng;
///
/// let suite = SensorSuite::new(32);
/// let mut gen = ScenarioGenerator::new(1);
/// let scene = gen.scene(Context::City);
/// let schedule = FaultSchedule::empty().with_dropout(SensorKind::Lidar, 0, u64::MAX);
/// let mut injector = FaultInjector::new(schedule, 7);
/// let obs = injector.observe(&suite, &scene, &mut Rng::new(2));
/// assert_eq!(obs.grid(SensorKind::Lidar).sum(), 0.0);
/// assert!(obs.grid(SensorKind::Radar).sum() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    seed: u64,
    frame: u64,
    /// Per-event captured grid for frozen-frame faults, keyed by the
    /// event's schedule index.
    frozen: BTreeMap<usize, Tensor>,
    /// The previous frame as delivered downstream (kept only when the
    /// schedule contains a frozen-frame event).
    last_output: Option<Observation>,
    events_applied: u64,
    frames_faulted: u64,
}

impl FaultInjector {
    /// Creates an injector for `schedule`, seeded independently of the
    /// sensor noise streams.
    pub fn new(schedule: FaultSchedule, seed: u64) -> Self {
        FaultInjector {
            schedule,
            seed,
            frame: 0,
            frozen: BTreeMap::new(),
            last_output: None,
            events_applied: 0,
            frames_faulted: 0,
        }
    }

    /// Index of the next frame [`FaultInjector::apply`] will process.
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Total `(frame, event)` applications so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Frames that had at least one active fault.
    pub fn frames_faulted(&self) -> u64 {
        self.frames_faulted
    }

    /// Renders a scene through `suite` and applies the current frame's
    /// faults: the drop-in replacement for [`SensorSuite::observe`] on a
    /// degraded stream.
    pub fn observe(&mut self, suite: &SensorSuite, scene: &Scene, rng: &mut Rng) -> Observation {
        let obs = suite.observe(scene, rng);
        self.apply(obs, scene.context)
    }

    /// Applies the faults scheduled for the current frame to `obs` and
    /// advances the frame counter. `context` drives weather-tied faults.
    pub fn apply(&mut self, obs: Observation, context: Context) -> Observation {
        let frame = self.frame;
        self.frame += 1;
        if !self.schedule.any_active_at(frame) {
            if self.schedule.needs_frozen_capture(frame) {
                // Frozen events capture the last *delivered* frame, so the
                // clean passthrough must still be remembered.
                self.last_output = Some(obs.clone());
            }
            self.gc_frozen(frame);
            return obs;
        }
        let mut out = obs;
        let active: Vec<(usize, crate::FaultEvent)> =
            self.schedule.active_at(frame).map(|(i, e)| (i, *e)).collect();
        for (idx, event) in active {
            match event.kind {
                FaultKind::FrozenFrame => {
                    if !self.frozen.contains_key(&idx) {
                        // First frozen frame: stick to the observation the
                        // consumer saw last (or this one, at stream start).
                        let captured = match &self.last_output {
                            Some(prev) => prev.grid(event.sensor).clone(),
                            None => out.grid(event.sensor).clone(),
                        };
                        self.frozen.insert(idx, captured);
                    }
                    out.set_grid(event.sensor, self.frozen[&idx].clone());
                }
                kind => {
                    let mut rng = self.event_rng(frame, idx, event.sensor.index());
                    apply_stateless(
                        out.grid_mut(event.sensor),
                        kind,
                        event.severity,
                        context,
                        event.sensor.index(),
                        frame - event.onset,
                        &mut rng,
                    );
                }
            }
            self.events_applied += 1;
        }
        self.frames_faulted += 1;
        if self.schedule.needs_frozen_capture(frame) {
            self.last_output = Some(out.clone());
        }
        self.gc_frozen(frame);
        out
    }

    /// Drops frozen caches of events whose interval has ended.
    fn gc_frozen(&mut self, frame: u64) {
        if self.frozen.is_empty() {
            return;
        }
        let events = self.schedule.events();
        self.frozen.retain(|idx, _| events.get(*idx).map(|e| frame < e.end()).unwrap_or(false));
    }

    /// Independent RNG stream for one `(frame, event, sensor)` triple.
    fn event_rng(&self, frame: u64, event_idx: usize, sensor_idx: usize) -> Rng {
        let mix = self
            .seed
            .wrapping_add(frame.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((event_idx as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((sensor_idx as u64 + 1).wrapping_mul(0xEB44_ACCA_B455_D165));
        Rng::new(mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_scene::ScenarioGenerator;
    use ecofusion_sensors::SensorKind;

    fn render(seed: u64, n: usize) -> (Vec<Scene>, Vec<Observation>) {
        let mut gen = ScenarioGenerator::new(seed);
        let suite = SensorSuite::new(32);
        let scenes: Vec<Scene> = (0..n).map(|_| gen.scene(Context::City)).collect();
        let obs = scenes
            .iter()
            .enumerate()
            .map(|(i, s)| suite.observe(s, &mut Rng::new(seed ^ (i as u64) << 8)))
            .collect();
        (scenes, obs)
    }

    #[test]
    fn empty_schedule_is_bit_identical_passthrough() {
        let (scenes, clean) = render(3, 4);
        let mut inj = FaultInjector::new(FaultSchedule::empty(), 99);
        for (scene, obs) in scenes.iter().zip(&clean) {
            let out = inj.apply(obs.clone(), scene.context);
            for k in SensorKind::ALL {
                assert_eq!(out.grid(k), obs.grid(k));
            }
        }
        assert_eq!(inj.events_applied(), 0);
        assert_eq!(inj.frames_faulted(), 0);
    }

    #[test]
    fn outside_interval_is_passthrough_and_faults_are_deterministic() {
        let schedule =
            FaultSchedule::empty().with_event(SensorKind::Lidar, FaultKind::NoiseBurst, 1, 2, 1.0);
        let (scenes, clean) = render(5, 4);
        let run = || {
            let mut inj = FaultInjector::new(schedule.clone(), 42);
            scenes
                .iter()
                .zip(&clean)
                .map(|(s, o)| inj.apply(o.clone(), s.context))
                .collect::<Vec<Observation>>()
        };
        let a = run();
        let b = run();
        for (fa, fb) in a.iter().zip(&b) {
            for k in SensorKind::ALL {
                assert_eq!(fa.grid(k), fb.grid(k), "fault injection must be reproducible");
            }
        }
        // Frames 0 and 3 are outside the interval: untouched.
        assert_eq!(a[0].grid(SensorKind::Lidar), clean[0].grid(SensorKind::Lidar));
        assert_eq!(a[3].grid(SensorKind::Lidar), clean[3].grid(SensorKind::Lidar));
        // Frames 1 and 2 are noisy, and differently so (per-frame streams).
        assert_ne!(a[1].grid(SensorKind::Lidar), clean[1].grid(SensorKind::Lidar));
        assert_ne!(a[1].grid(SensorKind::Lidar), a[2].grid(SensorKind::Lidar));
        // Other sensors never touched.
        assert_eq!(a[1].grid(SensorKind::Radar), clean[1].grid(SensorKind::Radar));
    }

    #[test]
    fn frozen_frame_sticks_to_last_delivered() {
        let schedule = FaultSchedule::empty().with_frozen(SensorKind::CameraRight, 2, 2);
        let (scenes, clean) = render(7, 5);
        let mut inj = FaultInjector::new(schedule, 1);
        let out: Vec<Observation> =
            scenes.iter().zip(&clean).map(|(s, o)| inj.apply(o.clone(), s.context)).collect();
        // Frames 2 and 3 repeat frame 1's camera; frame 4 is live again.
        assert_eq!(out[2].grid(SensorKind::CameraRight), clean[1].grid(SensorKind::CameraRight));
        assert_eq!(out[3].grid(SensorKind::CameraRight), clean[1].grid(SensorKind::CameraRight));
        assert_eq!(out[4].grid(SensorKind::CameraRight), clean[4].grid(SensorKind::CameraRight));
        // Lidar unaffected throughout.
        for (o, c) in out.iter().zip(&clean) {
            assert_eq!(o.grid(SensorKind::Lidar), c.grid(SensorKind::Lidar));
        }
    }

    #[test]
    fn frozen_at_stream_start_freezes_first_frame() {
        let schedule = FaultSchedule::empty().with_frozen(SensorKind::Lidar, 0, 3);
        let (scenes, clean) = render(9, 3);
        let mut inj = FaultInjector::new(schedule, 1);
        let out: Vec<Observation> =
            scenes.iter().zip(&clean).map(|(s, o)| inj.apply(o.clone(), s.context)).collect();
        for o in &out {
            assert_eq!(o.grid(SensorKind::Lidar), clean[0].grid(SensorKind::Lidar));
        }
    }

    #[test]
    fn counters() {
        let schedule = FaultSchedule::empty().with_camera_dropout(1, 2);
        let (scenes, clean) = render(11, 4);
        let mut inj = FaultInjector::new(schedule, 1);
        for (s, o) in scenes.iter().zip(&clean) {
            let _ = inj.apply(o.clone(), s.context);
        }
        assert_eq!(inj.frame(), 4);
        assert_eq!(inj.frames_faulted(), 2);
        assert_eq!(inj.events_applied(), 4, "two cameras over two frames");
    }

    #[test]
    fn storm_schedule_runs_through_both_paths() {
        // A storm: every fault kind active at once, frozen frames
        // included. The stateful path (injector) freezes; the stateless
        // path (apply_stateless, used by schedule sweeps that replay
        // events without injector state) passes frozen events through
        // instead of panicking mid-sweep.
        let schedule = FaultSchedule::empty()
            .with_frozen(SensorKind::CameraLeft, 1, 3)
            .with_dropout(SensorKind::Lidar, 1, 3)
            .with_event(SensorKind::Radar, FaultKind::NoiseBurst, 1, 3, 0.8)
            .with_event(SensorKind::CameraRight, FaultKind::CalibrationDrift, 1, 3, 1.0)
            .with_event(SensorKind::Lidar, FaultKind::WeatherAttenuation, 1, 3, 0.5);
        let (scenes, clean) = render(17, 4);

        // Stateful path: the injector applies the whole storm; the frozen
        // camera repeats frame 0's grid.
        let mut inj = FaultInjector::new(schedule.clone(), 5);
        let out: Vec<Observation> =
            scenes.iter().zip(&clean).map(|(s, o)| inj.apply(o.clone(), s.context)).collect();
        assert_eq!(out[2].grid(SensorKind::CameraLeft), clean[0].grid(SensorKind::CameraLeft));
        assert_eq!(out[1].grid(SensorKind::Lidar).sum(), 0.0, "dropout at severity 1 blanks");
        assert_eq!(inj.frames_faulted(), 3);

        // Stateless path: replay frame 2's events directly. Frozen passes
        // through unchanged; every other kind still bites.
        for (idx, event) in schedule.active_at(2) {
            let mut grid = clean[2].grid(event.sensor).clone();
            let before = grid.clone();
            crate::model::apply_stateless(
                &mut grid,
                event.kind,
                event.severity,
                scenes[2].context,
                event.sensor.index(),
                2 - event.onset,
                &mut Rng::new(idx as u64),
            );
            if event.kind == FaultKind::FrozenFrame {
                assert_eq!(grid, before, "frozen is a stateless pass-through");
            } else {
                assert_ne!(grid, before, "{:?} must still modify the grid", event.kind);
            }
        }
    }

    #[test]
    fn composed_faults_apply_in_schedule_order() {
        // Dropout then noise burst on the same sensor: the burst writes
        // over a blank grid, so output energy is pure noise.
        let schedule = FaultSchedule::empty().with_dropout(SensorKind::Radar, 0, 1).with_event(
            SensorKind::Radar,
            FaultKind::NoiseBurst,
            0,
            1,
            0.5,
        );
        let (scenes, clean) = render(13, 1);
        let mut inj = FaultInjector::new(schedule, 21);
        let out = inj.apply(clean[0].clone(), scenes[0].context);
        assert_ne!(out.grid(SensorKind::Radar), clean[0].grid(SensorKind::Radar));
        assert!(out.grid(SensorKind::Radar).norm_sq() > 0.0);
        assert_eq!(inj.events_applied(), 2);
    }
}
