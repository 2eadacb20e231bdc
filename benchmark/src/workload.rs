//! The four workloads: which streams, which server configuration, how
//! many ticks.

use ecofusion_core::InferenceOptions;
use ecofusion_gating::GateKind;
use ecofusion_runtime::{EnergyBudget, RuntimeConfig, StreamSpec, VehicleStream};
use ecofusion_scene::{Context, ContextWalk};

/// Observation grid side and object classes of the serving model.
pub const GRID: usize = 32;
pub const NUM_CLASSES: usize = 8;
/// Seed of the serving model's weights (the model is untrained; the
/// benchmark measures serving cost, and holds the modeled outputs still).
pub const MODEL_SEED: u64 = 0xEC0F;

/// Fewest timed steps of an episode at the default `--seconds`: a 95th
/// percentile needs 200 samples to have ten beyond it.
pub const MIN_EPISODE_TICKS: u64 = 200;
/// Fewest and most fresh-process episodes of a run; every end-to-end
/// metric is the median of its episodes' values.
pub const MIN_EPISODES: usize = 3;
pub const MAX_EPISODES: usize = 6;

/// The gates of `mixed_policy`'s four streams, in stream order.
pub const MIXED_GATES: [GateKind; 4] =
    [GateKind::Attention, GateKind::Knowledge, GateKind::Deep, GateKind::LossBased];

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub streams: usize,
    pub shards: usize,
    pub max_batch: usize,
    /// Frames in one work unit of a step (streams sharing options on one
    /// shard): the batch the stem-plan probe runs at.
    pub unit_batch: usize,
    /// Untimed ticks before measurement: plan compiles, the int8 image,
    /// and the budget ladder's climb all happen here.
    pub warmup_ticks: u64,
    /// Timed ticks per second of `--seconds`: a little under the rate at
    /// which the measured loop (untimed frame generation plus the timed
    /// calls) turns on the reference host, so that a whole run — every
    /// episode's set-up and warm-up included — takes about `--seconds`
    /// plus a tenth. The tick count is a function of the arguments alone,
    /// so modeled metrics and allocation counts repeat exactly; only the
    /// wall-clock length of a run follows the host.
    pub ticks_per_second: f64,
    /// Whether every timed frame must run int8 on the ladder's last rung.
    pub expect_int8: bool,
    spec: fn(usize, u64) -> StreamSpec,
}

fn fleet_spec(i: usize, seed: u64) -> StreamSpec {
    StreamSpec::new(500 + i as u64 + seed, GRID).with_context(Context::ALL[i % 8])
}

fn mixed_spec(i: usize, seed: u64) -> StreamSpec {
    StreamSpec::new(701 + i as u64 + seed, GRID)
        .with_context(Context::ALL[2 * i % 8])
        .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(MIXED_GATES[i]))
}

fn squeeze_spec(i: usize, seed: u64) -> StreamSpec {
    StreamSpec::new(401 + i as u64 + seed, GRID)
        .with_context(Context::ALL[i % 8])
        .with_budget(EnergyBudget { target_j: 0.5, window: 8, relax_margin: 0.8 })
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_wide",
        why: "64 attention-gate F32 streams in one 64-frame batch on 1 shard: kernel- and memory-bound, plus per-frame scheduler cost at fleet scale",
        streams: 64,
        shards: 1,
        max_batch: 64,
        unit_batch: 64,
        warmup_ticks: 16,
        ticks_per_second: 32.5,
        expect_int8: false,
        spec: fleet_spec,
    },
    Workload {
        name: "fleet_sharded",
        why: "the same 64 streams on 2 shards with work stealing: parallel execute, step barrier, serial accounting, per-replica plan caches",
        streams: 64,
        shards: 2,
        max_batch: 64,
        unit_batch: 32,
        warmup_ticks: 16,
        ticks_per_second: 33.5,
        expect_int8: false,
        spec: fleet_spec,
    },
    Workload {
        name: "mixed_policy",
        why: "4 streams on 4 different gates, so options never merge: four batch-1 units per step and an oracle stream; per-unit fixed cost and allocation dominate",
        streams: 4,
        shards: 1,
        max_batch: 8,
        unit_batch: 1,
        warmup_ticks: 32,
        ticks_per_second: 96.0,
        expect_int8: false,
        spec: mixed_spec,
    },
    Workload {
        name: "squeeze_int8",
        why: "16 streams squeezed by a 0.5 J budget onto the int8 emergency rung: least kernel work per frame, so per-step overhead share is highest; the only int8 path",
        streams: 16,
        shards: 1,
        max_batch: 16,
        unit_batch: 16,
        warmup_ticks: 96,
        ticks_per_second: 168.0,
        expect_int8: true,
        spec: squeeze_spec,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The stream specs, with `seed` added to every stream seed.
    pub fn specs(&self, seed: u64) -> Vec<StreamSpec> {
        (0..self.streams).map(|i| (self.spec)(i, seed)).collect()
    }

    /// The frame sources of `specs`, each on a scripted context walk long
    /// enough for `ticks` frames: stream `i` starts in its spec's context
    /// and moves to the next of `Context::ALL` every `dwell_frames`.
    ///
    /// The walk is part of the workload, not of the seed: every seed
    /// visits the same contexts in the same order (and every tick sees
    /// all eight across the fleet), so the seed draws only the scenes and
    /// the sensor noise. With the default random drift the context mix —
    /// and with it the modeled energy of a 4-stream workload — moved by
    /// several percent from seed to seed.
    pub fn sources(&self, specs: &[StreamSpec], ticks: u64) -> Vec<VehicleStream> {
        specs
            .iter()
            .map(|spec| {
                let start = Context::ALL
                    .iter()
                    .position(|c| *c == spec.initial_context)
                    .expect("every context is in Context::ALL");
                let segments = ticks as usize / spec.dwell_frames + 1;
                let pairs: Vec<(Context, u32)> = (0..segments)
                    .map(|k| (Context::ALL[(start + k) % 8], spec.dwell_frames as u32))
                    .collect();
                VehicleStream::new(*spec).with_walk(ContextWalk::from_pairs(&pairs))
            })
            .collect()
    }

    pub fn config(&self) -> RuntimeConfig {
        self.config_with_shards(self.shards)
    }

    /// The server configuration at another shard count (the
    /// shard-invariance check serves the same streams on 1 shard).
    pub fn config_with_shards(&self, shards: usize) -> RuntimeConfig {
        RuntimeConfig {
            max_batch: self.max_batch,
            num_classes: NUM_CLASSES,
            shards,
            work_stealing: true,
            fleet_budget: None,
        }
    }

    /// Timed ticks that `seconds` pay for, over all of a run's episodes.
    pub fn total_ticks(&self, seconds: f64) -> u64 {
        (self.ticks_per_second * seconds).round() as u64
    }

    /// How a run spends `seconds`: `(episodes, timed ticks per episode)`.
    /// As many episodes as leave each [`MIN_EPISODE_TICKS`] steps, within
    /// [`MIN_EPISODES`]`..=`[`MAX_EPISODES`]: the median over more, shorter
    /// episodes moves less with the host's slow periods, and the fleet
    /// workloads' long steps are what limits them to fewer.
    pub fn episode_plan(&self, seconds: f64) -> (usize, u64) {
        let total = self.total_ticks(seconds);
        let episodes = (total / MIN_EPISODE_TICKS).clamp(MIN_EPISODES as u64, MAX_EPISODES as u64);
        (episodes as usize, (total / episodes).max(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_episode_supports_p95_at_the_default_seconds() {
        for w in &WORKLOADS {
            let (episodes, ticks) = w.episode_plan(crate::cli::DEFAULT_SECONDS);
            assert!((MIN_EPISODES..=MAX_EPISODES).contains(&episodes), "{}", w.name);
            assert!(ticks >= MIN_EPISODE_TICKS, "{}: {ticks} steps", w.name);
        }
    }

    #[test]
    fn a_short_run_still_has_three_episodes() {
        let (episodes, ticks) = WORKLOADS[0].episode_plan(2.0);
        assert_eq!(episodes, MIN_EPISODES);
        assert_eq!(ticks, 65 / 3);
    }
}
