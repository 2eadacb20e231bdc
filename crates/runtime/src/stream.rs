//! Deterministic per-vehicle frame sources with context drift.

use crate::budget::EnergyBudget;
use crate::queue::BackpressurePolicy;
use ecofusion_core::{Frame, InferenceOptions};
use ecofusion_faults::{FaultInjector, FaultSchedule};
use ecofusion_scene::{Context, ContextWalk, ScenarioGenerator, Scene, SceneSequence};
use ecofusion_sensors::SensorSuite;
use ecofusion_tensor::rng::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Frame interval of a vehicle stream, seconds (10 Hz — RADIATE's radar
/// rate, and the cadence the PX2 latencies are quoted against).
pub const STREAM_DT: f64 = 0.1;

/// Static description of one vehicle stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Seed of the stream's scenario generator, drift walk, and sensor
    /// noise (streams with different seeds are fully independent).
    pub seed: u64,
    /// Observation grid side length (must match the serving model).
    pub grid: usize,
    /// Context of the first segment.
    pub initial_context: Context,
    /// Frames per context segment: the stream simulates one
    /// [`SceneSequence`] of this length, then drifts to the next context.
    pub dwell_frames: usize,
    /// Probability the drift walk stays in the current context at a
    /// segment boundary (otherwise it redraws from the RADIATE mix).
    pub drift_stay_prob: f64,
    /// Scheduler ticks between frames (1 = a frame every tick).
    pub frame_period: u64,
    /// Tick offset of the first frame, so streams can be staggered.
    pub phase: u64,
    /// Capacity of the stream's ingest queue.
    pub queue_capacity: usize,
    /// What happens when the ingest queue is full.
    pub backpressure: BackpressurePolicy,
    /// The stream's energy budget.
    pub budget: EnergyBudget,
    /// Inference options at escalation level 0.
    pub base_opts: InferenceOptions,
    /// Whether the server's per-stream health monitor feeds the gating
    /// layer: when true, sensors the monitor marks failed are masked in
    /// the stream's [`InferenceOptions::health`] before every selection.
    /// Off by default — clean streams behave bit-identically to a server
    /// without health monitoring.
    #[serde(default)]
    pub health_gating: bool,
    /// Frames the producer emits per due tick. The default of 0 is
    /// treated as 1 — the classic one-frame-per-tick producer; values
    /// above 1 model a source faster than the scheduler's service rate —
    /// with a [`BackpressurePolicy::Stall`] queue the producer stalls
    /// mid-burst the moment the queue fills, which is exactly the
    /// saturation the `queue_saturation` suite exercises.
    #[serde(default)]
    pub frames_per_tick: usize,
}

impl StreamSpec {
    /// A spec with sensible defaults: city start, 8-frame segments, a
    /// frame every tick, an 8-deep drop-oldest queue, no energy budget,
    /// and the paper-default inference options (`λ_E = 0.01`, attention
    /// gate).
    ///
    /// # Example
    ///
    /// ```
    /// use ecofusion_runtime::{EnergyBudget, StreamSpec};
    /// let spec = StreamSpec::new(7, 32).with_budget(EnergyBudget::per_frame(6.0));
    /// assert_eq!(spec.grid, 32);
    /// assert_eq!(spec.budget.target_j, 6.0);
    /// ```
    pub fn new(seed: u64, grid: usize) -> Self {
        StreamSpec {
            seed,
            grid,
            initial_context: Context::City,
            dwell_frames: 8,
            drift_stay_prob: 0.25,
            frame_period: 1,
            phase: 0,
            queue_capacity: 8,
            backpressure: BackpressurePolicy::DropOldest,
            budget: EnergyBudget::unlimited(),
            base_opts: InferenceOptions::new(0.01, 0.5),
            health_gating: false,
            frames_per_tick: 1,
        }
    }

    /// Same spec starting in `context`.
    pub fn with_context(mut self, context: Context) -> Self {
        self.initial_context = context;
        self
    }

    /// Same spec with an energy budget.
    pub fn with_budget(mut self, budget: EnergyBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Same spec with a queue capacity and backpressure policy.
    pub fn with_queue(mut self, capacity: usize, policy: BackpressurePolicy) -> Self {
        self.queue_capacity = capacity;
        self.backpressure = policy;
        self
    }

    /// Same spec emitting every `period` ticks starting at `phase`.
    pub fn with_timing(mut self, period: u64, phase: u64) -> Self {
        self.frame_period = period;
        self.phase = phase;
        self
    }

    /// Same spec with different base inference options.
    pub fn with_opts(mut self, opts: InferenceOptions) -> Self {
        self.base_opts = opts;
        self
    }

    /// Same spec with fault-aware gating switched on or off.
    pub fn with_health_gating(mut self, enabled: bool) -> Self {
        self.health_gating = enabled;
        self
    }

    /// Same spec emitting `frames` frames per due tick (an over-producing
    /// source; see [`StreamSpec::frames_per_tick`]).
    pub fn with_frames_per_tick(mut self, frames: usize) -> Self {
        self.frames_per_tick = frames;
        self
    }

    /// Frames the producer emits per due tick, with the serde-default 0
    /// normalized to 1.
    pub fn burst(&self) -> usize {
        self.frames_per_tick.max(1)
    }
}

/// A deterministic stream of rendered frames from one simulated vehicle.
///
/// Scenes come from a seeded [`ScenarioGenerator`], evolve in
/// [`SceneSequence`] segments (constant-velocity kinematics at
/// [`STREAM_DT`]), and drift context at segment boundaries via a seeded
/// walk over the RADIATE mix. Rendering draws from a per-frame RNG stream
/// derived from the stream seed and frame index only, so two streams built
/// from the same spec produce bit-identical frames regardless of when or
/// how often they are polled.
///
/// # Example
///
/// ```
/// use ecofusion_runtime::{StreamSpec, VehicleStream};
/// let mut a = VehicleStream::new(StreamSpec::new(3, 32));
/// let mut b = VehicleStream::new(StreamSpec::new(3, 32));
/// let fa = a.next_frame();
/// let fb = b.next_frame();
/// assert_eq!(fa.scene, fb.scene);
/// ```
#[derive(Debug)]
pub struct VehicleStream {
    spec: StreamSpec,
    generator: ScenarioGenerator,
    drift_rng: Rng,
    suite: SensorSuite,
    context: Context,
    pending: VecDeque<Scene>,
    produced: u64,
    /// Optional fault injector; `None` renders the clean path untouched.
    injector: Option<FaultInjector>,
    /// Optional scripted context walk. When set, segment contexts and
    /// dwells come from the script instead of the drift RNG (which is
    /// then never drawn), and the final segment repeats forever.
    script: Option<ContextWalk>,
    /// Index of the next scripted segment to play.
    script_cursor: usize,
}

impl VehicleStream {
    /// Creates the stream described by `spec`.
    ///
    /// # Panics
    /// Panics if `dwell_frames` is zero or `frame_period` is zero.
    pub fn new(spec: StreamSpec) -> Self {
        assert!(spec.dwell_frames > 0, "dwell_frames must be positive");
        assert!(spec.frame_period > 0, "frame_period must be positive");
        VehicleStream {
            generator: ScenarioGenerator::new(spec.seed),
            drift_rng: Rng::new(spec.seed ^ 0xD21F_7000),
            suite: SensorSuite::new(spec.grid),
            context: spec.initial_context,
            pending: VecDeque::new(),
            produced: 0,
            injector: None,
            script: None,
            script_cursor: 0,
            spec,
        }
    }

    /// Attaches a scripted context walk: segment contexts and dwells
    /// follow `walk` exactly (the final segment repeats once the script
    /// runs out), the spec's `initial_context`, `dwell_frames`, and
    /// `drift_stay_prob` are ignored, and the drift RNG is never drawn.
    /// Scenes and rendering stay keyed on the stream seed and frame index
    /// as usual, so a scripted stream is bit-reproducible from
    /// `(spec, walk)` alone — the property that makes a distilled
    /// scenario a deterministic regression test.
    ///
    /// # Panics
    /// Panics if `walk` is structurally invalid (empty, or a zero dwell).
    pub fn with_walk(mut self, walk: ContextWalk) -> Self {
        assert!(walk.is_structurally_valid(), "context walk must be non-empty with dwell >= 1");
        self.context = walk.segments()[0].context;
        self.script = Some(walk);
        self.script_cursor = 0;
        self
    }

    /// The attached context walk, if any.
    pub fn walk(&self) -> Option<&ContextWalk> {
        self.script.as_ref()
    }

    /// Attaches a fault schedule: from the next frame on, the stream's
    /// observations pass through a [`FaultInjector`] keyed on the frame
    /// index. The injector is seeded from the stream seed, so a degraded
    /// stream is exactly as reproducible as a clean one — and an empty
    /// schedule leaves every frame bit-identical to the clean stream.
    pub fn with_faults(mut self, schedule: FaultSchedule) -> Self {
        self.injector = Some(FaultInjector::new(schedule, self.spec.seed ^ 0xFA17_5EED));
        self
    }

    /// `(faulty frames, fault-event applications)` injected so far.
    pub fn fault_counts(&self) -> (u64, u64) {
        self.injector.as_ref().map(|i| (i.frames_faulted(), i.events_applied())).unwrap_or((0, 0))
    }

    /// The stream's spec.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Context of the segment currently being emitted.
    pub fn context(&self) -> Context {
        self.context
    }

    /// Frames produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Whether the stream emits a frame at scheduler tick `tick`.
    pub fn emits_at(&self, tick: u64) -> bool {
        tick >= self.spec.phase && (tick - self.spec.phase).is_multiple_of(self.spec.frame_period)
    }

    /// Renders and returns the next frame of the stream.
    pub fn next_frame(&mut self) -> Frame {
        if self.pending.is_empty() {
            self.refill_segment();
        }
        let scene = self.pending.pop_front().expect("segment refilled");
        // Per-frame render stream keyed on (stream seed, frame index):
        // reproducible regardless of segment boundaries or polling order.
        let mut rng = Rng::new(
            self.spec.seed ^ self.produced.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xC5),
        );
        let obs = self.suite.observe(&scene, &mut rng);
        let obs = match &mut self.injector {
            Some(injector) => injector.apply(obs, scene.context),
            None => obs,
        };
        self.produced += 1;
        Frame { scene, obs }
    }

    /// Renders the next `n` frames (convenience for offline replay and
    /// benchmarking).
    pub fn generate(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.next_frame()).collect()
    }

    fn refill_segment(&mut self) {
        let dwell = match &self.script {
            Some(walk) => {
                let seg = walk.segment(self.script_cursor);
                self.script_cursor = self.script_cursor.saturating_add(1);
                self.context = seg.context;
                seg.dwell as usize
            }
            None => {
                if self.produced > 0 {
                    self.context = self.drift();
                }
                self.spec.dwell_frames
            }
        };
        let base = self.generator.scene(self.context);
        let seq = SceneSequence::simulate(base, dwell - 1, STREAM_DT);
        self.pending.extend(seq.frames().iter().cloned());
    }

    /// Seeded context walk: stay with `drift_stay_prob`, else redraw from
    /// the RADIATE mix distribution.
    fn drift(&mut self) -> Context {
        if self.drift_rng.chance(self.spec.drift_stay_prob) {
            return self.context;
        }
        let w = Context::mix_weights();
        let r = self.drift_rng.uniform(0.0, 1.0);
        let mut acc = 0.0;
        for (i, c) in Context::ALL.iter().enumerate() {
            acc += w[i];
            if r <= acc {
                return *c;
            }
        }
        self.context
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_spec() {
        let spec = StreamSpec::new(9, 32);
        let mut a = VehicleStream::new(spec);
        let mut b = VehicleStream::new(spec);
        for _ in 0..12 {
            let fa = a.next_frame();
            let fb = b.next_frame();
            assert_eq!(fa.scene, fb.scene);
            for k in ecofusion_sensors::SensorKind::ALL {
                assert_eq!(fa.obs.grid(k), fb.obs.grid(k));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = VehicleStream::new(StreamSpec::new(1, 32));
        let mut b = VehicleStream::new(StreamSpec::new(2, 32));
        assert_ne!(a.next_frame().scene, b.next_frame().scene);
    }

    #[test]
    fn context_drifts_across_segments() {
        let mut spec = StreamSpec::new(4, 32);
        spec.dwell_frames = 2;
        spec.drift_stay_prob = 0.0;
        let mut s = VehicleStream::new(spec);
        let mut contexts = std::collections::BTreeSet::new();
        for _ in 0..40 {
            contexts.insert(s.next_frame().scene.context);
        }
        assert!(contexts.len() > 2, "drift never left {contexts:?}");
    }

    #[test]
    fn segments_are_temporally_coherent() {
        let mut spec = StreamSpec::new(5, 32);
        spec.dwell_frames = 4;
        let mut s = VehicleStream::new(spec);
        let frames = s.generate(4);
        // Within a segment the context is constant and scene ids follow
        // the sequence numbering scheme.
        assert!(frames.iter().all(|f| f.scene.context == frames[0].scene.context));
        assert_eq!(frames[1].scene.id, frames[0].scene.id * 10_000 + 1);
    }

    #[test]
    fn emission_schedule_respects_period_and_phase() {
        let mut spec = StreamSpec::new(6, 32);
        spec.frame_period = 3;
        spec.phase = 1;
        let s = VehicleStream::new(spec);
        let emitted: Vec<u64> = (0..9).filter(|t| s.emits_at(*t)).collect();
        assert_eq!(emitted, vec![1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "dwell_frames")]
    fn zero_dwell_panics() {
        let mut spec = StreamSpec::new(7, 32);
        spec.dwell_frames = 0;
        let _ = VehicleStream::new(spec);
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical() {
        let spec = StreamSpec::new(21, 32);
        let mut clean = VehicleStream::new(spec);
        let mut faulted = VehicleStream::new(spec).with_faults(FaultSchedule::empty());
        for _ in 0..6 {
            let a = clean.next_frame();
            let b = faulted.next_frame();
            assert_eq!(a.scene, b.scene);
            for k in ecofusion_sensors::SensorKind::ALL {
                assert_eq!(a.obs.grid(k), b.obs.grid(k));
            }
        }
        assert_eq!(faulted.fault_counts(), (0, 0));
    }

    #[test]
    fn scripted_walk_replaces_drift_and_holds_the_tail() {
        use ecofusion_scene::ContextWalk;
        let walk =
            ContextWalk::from_pairs(&[(Context::Fog, 3), (Context::Night, 2), (Context::Snow, 1)]);
        // Spec drift fields are deliberately hostile: a scripted stream
        // must ignore them entirely.
        let mut spec = StreamSpec::new(31, 32).with_context(Context::City);
        spec.dwell_frames = 1;
        spec.drift_stay_prob = 0.0;
        let mut s = VehicleStream::new(spec).with_walk(walk.clone());
        assert_eq!(s.context(), Context::Fog, "walk overrides initial_context");
        for f in 0..10u64 {
            let frame = s.next_frame();
            assert_eq!(frame.scene.context, walk.context_at(f), "frame {f}");
        }
        assert!(s.walk().is_some());
        // Bit-reproducible from (spec, walk).
        let mut a = VehicleStream::new(spec).with_walk(walk.clone());
        let mut b = VehicleStream::new(spec).with_walk(walk);
        for _ in 0..8 {
            let fa = a.next_frame();
            let fb = b.next_frame();
            assert_eq!(fa.scene, fb.scene);
            for k in ecofusion_sensors::SensorKind::ALL {
                assert_eq!(fa.obs.grid(k), fb.obs.grid(k));
            }
        }
    }

    #[test]
    fn frames_per_tick_defaults_to_one() {
        let spec = StreamSpec::new(1, 32);
        assert_eq!(spec.frames_per_tick, 1);
        assert_eq!(spec.burst(), 1);
        // The serde default (a field-less legacy spec) normalizes to 1.
        let mut legacy = spec;
        legacy.frames_per_tick = 0;
        assert_eq!(legacy.burst(), 1);
        assert_eq!(spec.with_frames_per_tick(3).burst(), 3);
    }

    #[test]
    fn fault_schedule_applies_deterministically() {
        use ecofusion_sensors::SensorKind;
        let spec = StreamSpec::new(22, 32);
        let schedule = FaultSchedule::empty().with_dropout(SensorKind::Lidar, 2, 3);
        let run = || {
            let mut s = VehicleStream::new(spec).with_faults(schedule.clone());
            s.generate(6)
        };
        let a = run();
        let b = run();
        for (fa, fb) in a.iter().zip(&b) {
            for k in SensorKind::ALL {
                assert_eq!(fa.obs.grid(k), fb.obs.grid(k));
            }
        }
        let mut clean = VehicleStream::new(spec);
        let c = clean.generate(6);
        // Inside the interval the lidar grid is blanked; outside it the
        // stream is untouched.
        assert_eq!(a[1].obs.grid(SensorKind::Lidar), c[1].obs.grid(SensorKind::Lidar));
        assert_eq!(a[3].obs.grid(SensorKind::Lidar).sum(), 0.0);
        assert_eq!(a[5].obs.grid(SensorKind::Lidar), c[5].obs.grid(SensorKind::Lidar));
        assert_eq!(a[3].obs.grid(SensorKind::Radar), c[3].obs.grid(SensorKind::Radar));
        let mut s = VehicleStream::new(spec).with_faults(schedule);
        let _ = s.generate(6);
        assert_eq!(s.fault_counts(), (3, 3));
    }
}
