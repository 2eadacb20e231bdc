//! Adversarial scenarios: a serializable input model, hermetic
//! execution, coverage signatures, and distilled record–replay suites.
//!
//! A [`Scenario`] pins *every* input axis of one serving run — per-stream
//! seeds, scripted [`ContextWalk`]s, [`FaultSchedule`]s, budgets and
//! scripted [`BudgetTimeline`]s, queue/backpressure shape — so running it
//! through the real [`PerceptionServer`](ecofusion_runtime::PerceptionServer)
//! is a pure function of the JSON it serializes to. [`run_scenario`] runs
//! one, untraced, through the suites' driver and rollup and summarizes
//! what the runtime *did* as a [`ScenarioOutcome`] (the ladder rungs come
//! from each stream's budget controller); a [`CoverageSignature`]
//! discretizes that behavior (vs. the scenario's clean twin) into the
//! novelty key the `ecofusion-search` crate hill-climbs on; and a
//! [`DistilledSuite`] freezes a minimized scenario with its expected
//! digest and counters so `cargo test` can replay it bit-for-bit
//! ([`replay_distilled`]).
//!
//! Execution is hermetic on purpose: the model is always the untrained
//! [`MODEL_SEED`] quick-scale model and the base inference options are
//! the paper defaults — nothing outside the scenario's JSON reaches the
//! run, so a distilled suite means the same thing on every machine that
//! replays it.

use crate::compare::exact_diff;
use crate::digest::format_digest;
use crate::run::{drive, Rollup};
use crate::suites::{MODEL_SEED, SUITE_CLASSES, SUITE_GRID};
use ecofusion_core::model::InferError;
use ecofusion_core::{EcoFusionModel, InferenceOptions};
use ecofusion_faults::FaultSchedule;
use ecofusion_runtime::{
    BackpressurePolicy, BudgetTimeline, EnergyBudget, StreamSpec, VehicleStream,
};
use ecofusion_scene::ContextWalk;
use ecofusion_tensor::rng::Rng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::{fmt, io};

/// Where the committed distilled suites live, relative to the repo root.
pub const DEFAULT_DISTILLED_DIR: &str = "suites/distilled";

/// Schema version of the [`DistilledSuite`] JSON layout.
pub const DISTILLED_SCHEMA_VERSION: u32 = 1;

/// The finite "no budget pressure" target scenarios use instead of
/// [`EnergyBudget::unlimited`]'s `f64::INFINITY`: infinity serializes to
/// JSON `null`, and a distilled suite must round-trip through JSON
/// losslessly. No modeled frame costs a millionth of this, so the ladder
/// never escalates — behaviorally identical to unlimited.
pub const UNLIMITED_TARGET_J: f64 = 1e9;

/// One stream of a scenario: every input knob, pinned and serializable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioStream {
    /// Stream seed (scene generation and per-frame sensor noise).
    pub seed: u64,
    /// Scripted context schedule (replaces the drift walk entirely).
    pub walk: ContextWalk,
    /// Scripted faults (empty = clean sensors).
    pub faults: FaultSchedule,
    /// Energy budget the stream's ladder controller runs against.
    pub budget: EnergyBudget,
    /// Scripted budget retargets, if any.
    #[serde(default)]
    pub timeline: Option<BudgetTimeline>,
    /// Whether health monitoring drives the gating mask.
    pub health_gating: bool,
    /// Ingest queue depth.
    pub queue_capacity: usize,
    /// What a full queue does to the producer.
    pub backpressure: BackpressurePolicy,
    /// Frames offered per due tick (>1 models an over-producing source).
    pub frames_per_tick: usize,
}

impl ScenarioStream {
    /// A clean baseline stream: the given seed and walk, no faults, no
    /// budget pressure, default queue shape.
    pub fn baseline(seed: u64, walk: ContextWalk) -> Self {
        ScenarioStream {
            seed,
            walk,
            faults: FaultSchedule::empty(),
            budget: EnergyBudget::per_frame(UNLIMITED_TARGET_J),
            timeline: None,
            health_gating: true,
            queue_capacity: 8,
            backpressure: BackpressurePolicy::DropOldest,
            frames_per_tick: 1,
        }
    }

    /// The runtime spec this stream resolves to. Base inference options
    /// are always the paper defaults — scenarios are hermetic and carry
    /// no environment-dependent state.
    fn to_spec(&self) -> StreamSpec {
        let mut spec = StreamSpec::new(self.seed, SUITE_GRID);
        spec.queue_capacity = self.queue_capacity;
        spec.backpressure = self.backpressure;
        spec.budget = self.budget;
        spec.health_gating = self.health_gating;
        spec.frames_per_tick = self.frames_per_tick.max(1);
        spec.base_opts = InferenceOptions::new(0.01, 0.5);
        spec
    }

    /// Structural invariants the mutators must preserve.
    pub fn is_structurally_valid(&self) -> bool {
        self.walk.is_structurally_valid()
            && self.faults.is_structurally_valid()
            && self.timeline.as_ref().is_none_or(|t| t.is_structurally_valid())
            && self.queue_capacity >= 1
            && self.frames_per_tick >= 1
            && self.budget.target_j > 0.0
            && self.budget.target_j.is_finite()
    }
}

/// A fully pinned adversarial serving scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable handle (becomes the distilled suite's name).
    pub name: String,
    /// Scheduler ticks the drive runs for (queues drain afterwards).
    pub ticks: u64,
    /// Scheduler micro-batch cap.
    pub max_batch: usize,
    /// The streams, in server lane order.
    pub streams: Vec<ScenarioStream>,
}

impl Scenario {
    /// Structural invariants of the whole scenario.
    pub fn is_structurally_valid(&self) -> bool {
        self.ticks >= 1
            && self.max_batch >= 1
            && !self.streams.is_empty()
            && self.streams.iter().all(ScenarioStream::is_structurally_valid)
    }

    /// The scenario's *clean twin*: identical seeds, walks, horizon, and
    /// queue shape, but no faults, no budget pressure, and no scripted
    /// retargets. Coverage scoring diffs a candidate against its twin so
    /// the signature measures what the *adversarial* inputs caused, not
    /// what the workload does anyway.
    pub fn clean_twin(&self) -> Scenario {
        Scenario {
            name: format!("{}__clean", self.name),
            ticks: self.ticks,
            max_batch: self.max_batch,
            streams: self
                .streams
                .iter()
                .map(|s| ScenarioStream {
                    faults: FaultSchedule::empty(),
                    budget: EnergyBudget::per_frame(UNLIMITED_TARGET_J),
                    timeline: None,
                    walk: s.walk.clone(),
                    ..*s
                })
                .collect(),
        }
    }

    /// Mutable-input sizes, for minimization progress and provenance.
    pub fn size(&self) -> ScenarioSize {
        ScenarioSize {
            fault_events: self.streams.iter().map(|s| s.faults.events().len()).sum(),
            walk_segments: self.streams.iter().map(|s| s.walk.len()).sum(),
            timeline_phases: self
                .streams
                .iter()
                .map(|s| s.timeline.as_ref().map_or(0, |t| t.phases().len()))
                .sum(),
        }
    }
}

/// How many mutable inputs a scenario carries (the quantity minimization
/// shrinks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSize {
    /// Fault events across all streams.
    pub fault_events: usize,
    /// Context-walk segments across all streams.
    pub walk_segments: usize,
    /// Budget-timeline phases across all streams.
    pub timeline_phases: usize,
}

impl ScenarioSize {
    /// Total mutable inputs.
    pub fn total(&self) -> usize {
        self.fault_events + self.walk_segments + self.timeline_phases
    }
}

/// The exactly-reproducible counters a scenario run produces. Every
/// field is deterministic and shard-count-invariant, so a replay must
/// match bit-for-bit; host-dependent quantities (wall clock, steals)
/// are deliberately absent. [`replay_distilled`] diffs every field.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioCounters {
    /// Frames processed across all streams.
    pub frames: u64,
    /// Gate-decision churn: selected-configuration changes between
    /// consecutive frames, summed over streams.
    pub churn: u64,
    /// Budget-ladder escalations across all streams.
    pub escalations: u64,
    /// Budget-ladder relaxations across all streams.
    pub relaxations: u64,
    /// Deepest final ladder level of any stream.
    pub max_final_level: u64,
    /// Bitmask of ladder rungs visited by any stream (bit 0 = base
    /// policy, always set).
    pub rungs: u8,
    /// Sensor health-state transitions across all streams.
    pub health_transitions: u64,
    /// Knowledge-gate missing-rule fallbacks across all streams.
    pub gate_fallbacks: u64,
    /// Frames processed while a sensor was degraded or failed.
    pub degraded_frames: u64,
    /// Frames processed with at least one sensor masked out of gating.
    pub masked_frames: u64,
    /// Frames that ran int8-quantized.
    pub int8_frames: u64,
    /// Frames evicted by drop-oldest backpressure.
    pub dropped: u64,
    /// Producer stalls under stall backpressure.
    pub stalls: u64,
    /// Distinct contexts the produced frames actually visited.
    pub contexts: u64,
}

/// Everything [`run_scenario`] observes about one run: the exact-match
/// counters plus the behavioral digest, and the float-valued quality /
/// energy aggregates the coverage signature buckets (floats never enter
/// the exact-match record).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Exactly-reproducible behavior counters.
    pub counters: ScenarioCounters,
    /// FNV-1a selection-sequence digest (same scheme as the bench
    /// report's `determinism_digest`).
    pub digest: String,
    /// Frame-weighted mAP, percent.
    pub map_pct: f64,
    /// Frame-weighted average detection loss.
    pub avg_loss: f64,
    /// Per-stage energy, J/frame (each stage's sum over all streams ÷
    /// frames), `StageKind::ALL` order.
    pub stage_energy_j: Vec<f64>,
    /// Total platform + gated sensor energy, Joules.
    pub total_gated_j: f64,
}

/// Runs `scenario` through the real server and summarizes its behavior.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
///
/// # Panics
/// Panics if the scenario is structurally invalid.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioOutcome, InferError> {
    assert!(scenario.is_structurally_valid(), "scenario must be structurally valid");
    let model = EcoFusionModel::new(SUITE_GRID, SUITE_CLASSES, &mut Rng::new(MODEL_SEED));
    // An empty schedule leaves a stream's frames bit-identical to a clean one.
    let vehicles = scenario
        .streams
        .iter()
        .map(|s| {
            VehicleStream::new(s.to_spec()).with_walk(s.walk.clone()).with_faults(s.faults.clone())
        })
        .collect();
    let timelines: Vec<_> = scenario.streams.iter().map(|s| s.timeline.clone()).collect();
    let (server, contexts) =
        drive(model, vehicles, scenario.max_batch, 1, scenario.ticks, &timelines, None)?;
    let mut rollup = Rollup::default();
    rollup.absorb(&server, contexts);
    Ok(ScenarioOutcome {
        digest: format_digest(&rollup.digest),
        map_pct: rollup.per_frame(rollup.map_weighted),
        avg_loss: rollup.per_frame(rollup.loss_weighted),
        stage_energy_j: rollup.stage_sums.iter().map(|&j| rollup.per_frame(j)).collect(),
        total_gated_j: rollup.gated_j,
        counters: rollup.counters,
    })
}

/// The discretized behavior key coverage-guided search scores candidates
/// by. Two scenarios with equal signatures stress the runtime the same
/// way; a candidate enters the corpus only when its signature is new.
///
/// Everything is bucketed (log2 counts, mAP-loss bands, per-stage
/// overshoot bits) so the signature is a *coverage class*, not a
/// fingerprint — small perturbations of an already-covered behavior are
/// correctly rejected as redundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoverageSignature {
    /// Ladder rungs visited (bitmask, bit 0 = base).
    pub rungs: u8,
    /// log2 bucket of gate-decision churn.
    pub churn_bucket: u8,
    /// log2 bucket of health-state transitions.
    pub health_bucket: u8,
    /// Whether any knowledge-gate fallback fired.
    pub fallbacks: bool,
    /// Whether any frame ran with a degraded sensor.
    pub degraded: bool,
    /// Whether any frame ran with a masked sensor.
    pub masked: bool,
    /// Whether any frame ran int8-quantized.
    pub int8: bool,
    /// log2 bucket of backpressure drops.
    pub drops_bucket: u8,
    /// log2 bucket of producer stalls.
    pub stalls_bucket: u8,
    /// mAP loss vs. the clean twin, banded: 0 (<0.25 pp), 1 (<1), 2
    /// (<3), 3 (<10), 4 (≥10).
    pub map_loss_bucket: u8,
    /// Per-stage energy overshoot vs. the clean twin (bit per stage,
    /// set when the stage spends >10% + 0.01 J/frame more).
    pub overshoot: u8,
    /// Distinct contexts visited.
    pub contexts: u8,
}

impl CoverageSignature {
    /// Builds the signature of a candidate run, measured against its
    /// clean twin's run.
    pub fn from_outcomes(candidate: &ScenarioOutcome, clean: &ScenarioOutcome) -> Self {
        let c = &candidate.counters;
        let map_loss_pp = (clean.map_pct - candidate.map_pct).max(0.0);
        let map_loss_bucket = match map_loss_pp {
            l if l < 0.25 => 0,
            l if l < 1.0 => 1,
            l if l < 3.0 => 2,
            l if l < 10.0 => 3,
            _ => 4,
        };
        let mut overshoot = 0u8;
        for (i, (cand, base)) in
            candidate.stage_energy_j.iter().zip(&clean.stage_energy_j).enumerate().take(8)
        {
            if *cand > base * 1.10 + 0.01 {
                overshoot |= 1 << i;
            }
        }
        CoverageSignature {
            rungs: c.rungs,
            churn_bucket: log2_bucket(c.churn),
            health_bucket: log2_bucket(c.health_transitions),
            fallbacks: c.gate_fallbacks > 0,
            degraded: c.degraded_frames > 0,
            masked: c.masked_frames > 0,
            int8: c.int8_frames > 0,
            drops_bucket: log2_bucket(c.dropped),
            stalls_bucket: log2_bucket(c.stalls),
            map_loss_bucket,
            overshoot,
            contexts: c.contexts.min(u8::MAX as u64) as u8,
        }
    }
}

/// 0 for 0, else `floor(log2(n)) + 1` — the coarse count classes the
/// signature buckets churn/transition/drop counts into.
fn log2_bucket(n: u64) -> u8 {
    (64 - n.leading_zeros()) as u8
}

/// Provenance of a distilled suite: where it came from and how much the
/// distillation pass shrank it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistilledProvenance {
    /// Seed of the search run that discovered the scenario.
    pub search_seed: u64,
    /// Mutable-input sizes as discovered.
    pub discovered: ScenarioSize,
    /// Mutable-input sizes after minimization.
    pub minimized: ScenarioSize,
}

/// A self-contained record–replay regression suite: a minimized
/// scenario, the coverage signature that made it novel, and the exact
/// behavior a replay must reproduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistilledSuite {
    /// JSON layout version ([`DISTILLED_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Suite name (also the file stem under [`DEFAULT_DISTILLED_DIR`]).
    pub name: String,
    /// The full scenario — everything a replay needs.
    pub scenario: Scenario,
    /// The coverage class the scenario was kept for.
    pub signature: CoverageSignature,
    /// Expected selection-sequence digest (exact match).
    pub expected_digest: String,
    /// Expected behavior counters (exact match).
    pub expected_counters: ScenarioCounters,
    /// Search provenance.
    pub provenance: DistilledProvenance,
}

impl DistilledSuite {
    /// Records `scenario`'s current behavior as a distilled suite.
    ///
    /// # Errors
    /// Propagates [`InferError`] from the serving model.
    pub fn record(
        name: &str,
        scenario: Scenario,
        signature: CoverageSignature,
        provenance: DistilledProvenance,
    ) -> Result<DistilledSuite, InferError> {
        let outcome = run_scenario(&scenario)?;
        Ok(DistilledSuite {
            schema: DISTILLED_SCHEMA_VERSION,
            name: name.to_string(),
            scenario,
            signature,
            expected_digest: outcome.digest,
            expected_counters: outcome.counters,
            provenance,
        })
    }
}

/// One field that replayed differently than the distilled suite
/// recorded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayDrift {
    /// Which recorded quantity drifted.
    pub field: String,
    /// The committed expectation.
    pub expected: String,
    /// What the replay produced.
    pub actual: String,
}

/// Replays a distilled suite and diffs the digest and every
/// [`ScenarioCounters`] field (by JSON key) against the recorded ones. An
/// empty vector means the replay was bit-identical; anything else is a
/// regression (or an intentional behavior change that requires
/// re-recording the suite). A suite of another
/// [`DISTILLED_SCHEMA_VERSION`] is not run: its one drift is `schema`.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn replay_distilled(suite: &DistilledSuite) -> Result<Vec<ReplayDrift>, InferError> {
    let drifts = if suite.schema != DISTILLED_SCHEMA_VERSION {
        let (recorded, replays) = (suite.schema.to_string(), DISTILLED_SCHEMA_VERSION.to_string());
        vec![("schema".to_string(), recorded, replays)]
    } else {
        let outcome = run_scenario(&suite.scenario)?;
        let mut drifts = exact_diff(&suite.expected_counters, &outcome.counters, &[]);
        if suite.expected_digest != outcome.digest {
            drifts.insert(0, ("digest".to_string(), suite.expected_digest.clone(), outcome.digest));
        }
        drifts
    };
    Ok(drifts
        .into_iter()
        .map(|(field, expected, actual)| ReplayDrift { field, expected, actual })
        .collect())
}

/// A distilled suite file recorded under another JSON layout than the
/// [`DISTILLED_SCHEMA_VERSION`] this build replays: the error inside the
/// `InvalidData` [`io::Error`] [`load_distilled_dir`] returns for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleDistilledSuite {
    /// The suite file.
    pub path: PathBuf,
    /// The `schema` the file carries.
    pub schema: u32,
}

impl fmt::Display for StaleDistilledSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, schema, now) = (self.path.display(), self.schema, DISTILLED_SCHEMA_VERSION);
        write!(f, "{path}: distilled suite schema {schema}, this build replays schema {now}")
    }
}

impl std::error::Error for StaleDistilledSuite {}

/// Loads every `*.json` distilled suite under `dir`, sorted by file
/// name (deterministic replay order).
///
/// # Errors
/// I/O errors reading the directory or a file; parse errors are
/// reported with the offending path, and a suite whose `schema` is not
/// [`DISTILLED_SCHEMA_VERSION`] as a [`StaleDistilledSuite`].
pub fn load_distilled_dir(dir: &Path) -> io::Result<Vec<(PathBuf, DistilledSuite)>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut suites = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let suite: DistilledSuite = serde_json::from_str(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e:?}", path.display()))
        })?;
        if suite.schema != DISTILLED_SCHEMA_VERSION {
            let stale = StaleDistilledSuite { path, schema: suite.schema };
            return Err(io::Error::new(io::ErrorKind::InvalidData, stale));
        }
        suites.push((path, suite));
    }
    Ok(suites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_faults::FaultKind;
    use ecofusion_scene::Context;
    use ecofusion_sensors::SensorKind;

    fn tiny_scenario() -> Scenario {
        let walk = ContextWalk::from_pairs(&[(Context::City, 4), (Context::Fog, 4)]);
        let mut stream = ScenarioStream::baseline(11, walk);
        stream.faults = FaultSchedule::empty().with_event(
            SensorKind::CameraLeft,
            FaultKind::Dropout,
            2,
            4,
            1.0,
        );
        Scenario { name: "tiny".to_string(), ticks: 8, max_batch: 4, streams: vec![stream] }
    }

    #[test]
    fn clean_twin_strips_adversarial_inputs_only() {
        let s = tiny_scenario();
        let twin = s.clean_twin();
        assert!(twin.streams[0].faults.is_empty());
        assert!(twin.streams[0].timeline.is_none());
        assert_eq!(twin.streams[0].walk, s.streams[0].walk);
        assert_eq!(twin.streams[0].seed, s.streams[0].seed);
        assert_eq!(twin.ticks, s.ticks);
        assert!(twin.is_structurally_valid());
    }

    #[test]
    fn scenario_runs_are_bit_reproducible() {
        let s = tiny_scenario();
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counters, b.counters);
        assert!(a.counters.frames > 0);
        assert_eq!(a.counters.contexts, 2, "walk visited City and Fog");
    }

    #[test]
    fn recorded_suite_replays_without_drift() {
        let s = tiny_scenario();
        let clean = run_scenario(&s.clean_twin()).unwrap();
        let outcome = run_scenario(&s).unwrap();
        let sig = CoverageSignature::from_outcomes(&outcome, &clean);
        let size = s.size();
        let suite = DistilledSuite::record(
            "tiny",
            s,
            sig,
            DistilledProvenance { search_seed: 0, discovered: size, minimized: size },
        )
        .unwrap();
        assert!(replay_distilled(&suite).unwrap().is_empty());
        // Round-trip through JSON, like a committed suite does.
        let json = serde_json::to_string_pretty(&suite).unwrap();
        let back: DistilledSuite = serde_json::from_str(&json).unwrap();
        assert_eq!(back, suite);
        assert!(replay_distilled(&back).unwrap().is_empty());
    }

    #[test]
    fn tampered_expectations_surface_as_drift() {
        let s = tiny_scenario();
        let clean = run_scenario(&s.clean_twin()).unwrap();
        let outcome = run_scenario(&s).unwrap();
        let sig = CoverageSignature::from_outcomes(&outcome, &clean);
        let size = s.size();
        let mut suite = DistilledSuite::record(
            "tiny",
            s,
            sig,
            DistilledProvenance { search_seed: 0, discovered: size, minimized: size },
        )
        .unwrap();
        suite.expected_counters.frames += 1;
        suite.expected_counters.rungs ^= 0b10;
        suite.expected_digest = "0000000000000000".to_string();
        let drifts = replay_distilled(&suite).unwrap();
        let fields: Vec<&str> = drifts.iter().map(|d| d.field.as_str()).collect();
        assert_eq!(fields, ["digest", "frames", "rungs"]);
        let rungs = &drifts[2];
        assert_eq!((rungs.expected.as_str(), rungs.actual.as_str()), ("3", "1"), "decimal");

        // A suite of another schema is not run: its one drift names both
        // versions.
        suite.schema = DISTILLED_SCHEMA_VERSION + 1;
        let drifts = replay_distilled(&suite).unwrap();
        let want = ReplayDrift {
            field: "schema".to_string(),
            expected: (DISTILLED_SCHEMA_VERSION + 1).to_string(),
            actual: DISTILLED_SCHEMA_VERSION.to_string(),
        };
        assert_eq!(drifts, [want]);
    }

    #[test]
    fn signature_buckets_are_coarse() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1024), 11);
        let s = tiny_scenario();
        let clean = run_scenario(&s.clean_twin()).unwrap();
        let self_sig = CoverageSignature::from_outcomes(&clean, &clean);
        assert_eq!(self_sig.map_loss_bucket, 0, "a run never regresses vs itself");
        assert_eq!(self_sig.overshoot, 0);
    }
}
