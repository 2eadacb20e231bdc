//! Synthetic dataset assembly: scenes + rendered observations.

use ecofusion_scene::{split_scenes, Context, GtBox, ScenarioGenerator, Scene};
use ecofusion_sensors::{Observation, SensorSuite};
use ecofusion_tensor::rng::Rng;
use serde::{Deserialize, Serialize};

/// One dataset sample: the latent scene plus the rendered observation of
/// all four sensors.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The latent world state (carries ground truth and context).
    pub scene: Scene,
    /// The rendered per-sensor observation grids.
    pub obs: Observation,
}

impl Frame {
    /// Ground-truth boxes in the observation's grid frame.
    pub fn gt_boxes(&self) -> Vec<GtBox> {
        self.scene.ground_truth_boxes(self.obs.grid_size())
    }

    /// [`Frame::gt_boxes`], box by box.
    pub fn gt_iter(&self) -> impl ExactSizeIterator<Item = GtBox> + '_ {
        self.scene.ground_truth_iter(self.obs.grid_size())
    }
}

/// How scene contexts are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DatasetMix {
    /// RADIATE-like context mix (city/motorway-dominated; see
    /// [`Context::mix_weight`]).
    Radiate,
    /// All scenes from one context.
    Single(Context),
    /// Equal number of scenes from every context.
    Balanced,
}

/// Parameters for [`Dataset::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Master seed: scenes, renders, and the split all derive from it.
    pub seed: u64,
    /// Observation grid side length (multiple of 16 recommended).
    pub grid: usize,
    /// Total number of scenes before splitting.
    pub num_scenes: usize,
    /// Train fraction (the paper uses 0.7).
    pub train_fraction: f64,
    /// Context sampling scheme.
    pub mix: DatasetMix,
}

impl DatasetSpec {
    /// Small, fast configuration for tests and the quickstart example
    /// (32-pixel grids, 72 scenes).
    pub fn small(seed: u64) -> Self {
        DatasetSpec {
            seed,
            grid: 32,
            num_scenes: 72,
            train_fraction: 0.7,
            mix: DatasetMix::Radiate,
        }
    }

    /// The configuration used by the experiment harness (48-pixel grids,
    /// RADIATE-like context mix as in the paper's aggregate tables; 48 px
    /// keeps a car at ~10 px long, the smallest scale the detectors
    /// localize well, while fitting the harness in CPU minutes).
    pub fn standard(seed: u64) -> Self {
        DatasetSpec {
            seed,
            grid: 48,
            num_scenes: 800,
            train_fraction: 0.7,
            mix: DatasetMix::Radiate,
        }
    }
}

/// A train/test split of rendered frames.
#[derive(Debug)]
pub struct Dataset {
    train: Vec<Frame>,
    test: Vec<Frame>,
    grid: usize,
}

impl Dataset {
    /// Generates a dataset from a spec. Scene sampling, rendering noise,
    /// and the 70:30 split are all deterministic in `spec.seed`; rendering
    /// is parallelized across scenes with per-scene RNG streams so thread
    /// scheduling cannot change the output.
    pub fn generate(spec: &DatasetSpec) -> Dataset {
        let mut gen = ScenarioGenerator::new(spec.seed);
        let scenes: Vec<Scene> = match spec.mix {
            DatasetMix::Radiate => gen.scenes_mixed(spec.num_scenes),
            DatasetMix::Single(c) => gen.scenes(c, spec.num_scenes),
            DatasetMix::Balanced => {
                let per = (spec.num_scenes / Context::ALL.len()).max(1);
                let mut all = Vec::new();
                for c in Context::ALL {
                    all.extend(gen.scenes(c, per));
                }
                all
            }
        };
        let suite = SensorSuite::new(spec.grid);
        let frames = render_scenes(&suite, scenes, spec.seed);
        // Split on scenes (frames) with a dedicated stream.
        let mut split_rng = Rng::new(spec.seed ^ 0x5117);
        let scenes_only: Vec<Scene> = frames.iter().map(|f| f.scene.clone()).collect();
        let (train_scenes, _) = split_scenes(scenes_only, spec.train_fraction, &mut split_rng);
        let train_ids: std::collections::HashSet<u64> = train_scenes.iter().map(|s| s.id).collect();
        let (mut train, mut test) = (Vec::new(), Vec::new());
        for f in frames {
            if train_ids.contains(&f.scene.id) {
                train.push(f);
            } else {
                test.push(f);
            }
        }
        Dataset { train, test, grid: spec.grid }
    }

    /// Training frames.
    pub fn train(&self) -> &[Frame] {
        &self.train
    }

    /// Held-out test frames.
    pub fn test(&self) -> &[Frame] {
        &self.test
    }

    /// Observation grid side length.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Test frames belonging to one context.
    pub fn test_in_context(&self, context: Context) -> Vec<&Frame> {
        self.test.iter().filter(|f| f.scene.context == context).collect()
    }
}

/// Renders scenes to frames in parallel, deterministically: each scene's
/// render stream is derived from the master seed and the scene id only.
fn render_scenes(suite: &SensorSuite, scenes: Vec<Scene>, seed: u64) -> Vec<Frame> {
    let n_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8);
    if scenes.len() < 16 || n_threads < 2 {
        return scenes
            .into_iter()
            .map(|scene| {
                let mut rng = render_rng(seed, scene.id);
                let obs = suite.observe(&scene, &mut rng);
                Frame { scene, obs }
            })
            .collect();
    }
    let chunk = scenes.len().div_ceil(n_threads);
    let chunks: Vec<Vec<Scene>> = scenes.chunks(chunk).map(|c| c.to_vec()).collect();
    let mut out: Vec<Frame> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|scene| {
                            let mut rng = render_rng(seed, scene.id);
                            let obs = suite.observe(&scene, &mut rng);
                            Frame { scene, obs }
                        })
                        .collect::<Vec<Frame>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("render worker panicked"));
        }
    });
    out
}

fn render_rng(seed: u64, scene_id: u64) -> Rng {
    Rng::new(seed ^ scene_id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xB5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_fractions() {
        let d = Dataset::generate(&DatasetSpec::small(1));
        let total = d.train().len() + d.test().len();
        assert_eq!(total, 72);
        let frac = d.train().len() as f64 / total as f64;
        assert!((frac - 0.7).abs() < 0.02, "{frac}");
        assert_eq!(d.grid(), 32);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Dataset::generate(&DatasetSpec::small(7));
        let b = Dataset::generate(&DatasetSpec::small(7));
        assert_eq!(a.train().len(), b.train().len());
        for (fa, fb) in a.train().iter().zip(b.train()) {
            assert_eq!(fa.scene, fb.scene);
            for k in ecofusion_sensors::SensorKind::ALL {
                assert_eq!(fa.obs.grid(k), fb.obs.grid(k));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::generate(&DatasetSpec::small(1));
        let b = Dataset::generate(&DatasetSpec::small(2));
        assert_ne!(a.train()[0].scene, b.train()[0].scene);
    }

    #[test]
    fn single_context_mix() {
        let mut spec = DatasetSpec::small(3);
        spec.mix = DatasetMix::Single(Context::Fog);
        spec.num_scenes = 20;
        let d = Dataset::generate(&spec);
        assert!(d.train().iter().all(|f| f.scene.context == Context::Fog));
        assert!(d.test().iter().all(|f| f.scene.context == Context::Fog));
    }

    #[test]
    fn balanced_mix_covers_all_contexts() {
        let mut spec = DatasetSpec::small(4);
        spec.mix = DatasetMix::Balanced;
        spec.num_scenes = 80;
        let d = Dataset::generate(&spec);
        for c in Context::ALL {
            let n = d.train().iter().filter(|f| f.scene.context == c).count()
                + d.test().iter().filter(|f| f.scene.context == c).count();
            assert_eq!(n, 10, "{c:?}");
        }
    }

    #[test]
    fn gt_boxes_accessible() {
        let d = Dataset::generate(&DatasetSpec::small(5));
        let f = &d.train()[0];
        assert_eq!(f.gt_boxes().len(), f.scene.objects.len());
    }

    #[test]
    fn test_in_context_filters() {
        let d = Dataset::generate(&DatasetSpec::small(6));
        for f in d.test_in_context(Context::City) {
            assert_eq!(f.scene.context, Context::City);
        }
    }
}
