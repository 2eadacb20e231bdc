//! The coverage-guided search loop: seeded templates, novelty
//! acceptance, and the clean-twin evaluator.

use crate::mutate::mutate_scenario;
use ecofusion_faults::FaultSchedule;
use ecofusion_harness::{
    run_scenario, CoverageSignature, Scenario, ScenarioOutcome, ScenarioStream,
};
use ecofusion_runtime::{BackpressurePolicy, BudgetPhase, BudgetTimeline, EnergyBudget};
use ecofusion_scene::{Context, ContextWalk};
use ecofusion_tensor::rng::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

use ecofusion_core::model::InferError;

/// Search parameters. Everything that affects the corpus is in here —
/// two searches with equal configs produce bit-identical corpora.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Seed of the mutation RNG.
    pub seed: u64,
    /// Mutated candidates to evaluate (on top of the seed templates).
    pub candidates: usize,
    /// Scheduler ticks every scenario runs for.
    pub ticks: u64,
}

impl SearchConfig {
    /// The CI-budget quick shape: enough candidates to reliably surface
    /// several distinct behavior classes in well under a minute.
    pub fn quick(seed: u64) -> Self {
        SearchConfig { seed, candidates: 48, ticks: 48 }
    }
}

/// One corpus member: a scenario, the behavior class it was kept for,
/// and the measured outcome behind that class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The (possibly mutated) scenario.
    pub scenario: Scenario,
    /// Its coverage signature vs. its clean twin.
    pub signature: CoverageSignature,
    /// The measured run outcome.
    pub outcome: ScenarioOutcome,
}

/// Evaluates scenarios against their clean twins, memoizing twin runs.
///
/// Many candidates share a twin (mutating faults or timelines leaves
/// the twin unchanged), so the cache typically saves close to half the
/// server runs of a search.
#[derive(Default)]
pub struct Evaluator {
    twins: BTreeMap<String, ScenarioOutcome>,
}

impl Evaluator {
    /// Fresh evaluator with an empty twin cache.
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// Runs `scenario` and its clean twin (cached) and returns the
    /// signature plus the candidate's outcome.
    ///
    /// # Errors
    /// Propagates [`InferError`] from the serving model.
    pub fn evaluate(
        &mut self,
        scenario: &Scenario,
    ) -> Result<(CoverageSignature, ScenarioOutcome), InferError> {
        let mut twin = scenario.clean_twin();
        // The twin's name carries the candidate's name; blank it so the
        // cache key (and the run) depend only on behavior-relevant
        // fields.
        twin.name = String::new();
        let key = serde_json::to_string(&twin).expect("scenario serializes");
        let clean = match self.twins.get(&key) {
            Some(clean) => clean.clone(),
            None => {
                let clean = run_scenario(&twin)?;
                self.twins.insert(key, clean.clone());
                clean
            }
        };
        let outcome = run_scenario(scenario)?;
        let signature = CoverageSignature::from_outcomes(&outcome, &clean);
        Ok((signature, outcome))
    }
}

/// The seeded starting templates, one per adversarial axis: a fault
/// storm, a budget squeeze with a scripted ramp, and an
/// ambiguous-context churn under a budget oscillation. Search mutates
/// from here; the templates themselves already land in three different
/// behavior classes.
pub fn seed_scenarios(ticks: u64) -> Vec<Scenario> {
    let storm = Scenario {
        name: "seed_storm".to_string(),
        ticks,
        max_batch: 8,
        streams: (0..2)
            .map(|i| {
                let walk = ContextWalk::from_pairs(&[
                    (if i == 0 { Context::City } else { Context::Rain }, (ticks / 2).max(1) as u32),
                    (Context::Fog, (ticks / 2).max(1) as u32),
                ]);
                let mut s = ScenarioStream::baseline(9001 + i, walk);
                s.faults = FaultSchedule::storm(ticks);
                s
            })
            .collect(),
    };
    let squeeze = Scenario {
        name: "seed_squeeze_ramp".to_string(),
        ticks,
        max_batch: 8,
        streams: vec![{
            let walk = ContextWalk::from_pairs(&[
                (Context::Motorway, (ticks / 2).max(1) as u32),
                (Context::City, (ticks / 2).max(1) as u32),
            ]);
            let mut s = ScenarioStream::baseline(9101, walk);
            s.budget = EnergyBudget { target_j: 8.0, window: 8, relax_margin: 0.8 };
            s.timeline = Some(BudgetTimeline::new(vec![
                BudgetPhase { start_tick: 0, target_j: 8.0 },
                BudgetPhase { start_tick: ticks / 3, target_j: 2.0 },
                BudgetPhase { start_tick: (2 * ticks) / 3, target_j: 0.5 },
            ]));
            s
        }],
    };
    let churn = Scenario {
        name: "seed_churn_oscillation".to_string(),
        ticks,
        max_batch: 8,
        streams: vec![{
            let ambiguous = [Context::Fog, Context::Night, Context::Rain, Context::Junction];
            let pairs: Vec<(Context, u32)> = (0..(ticks / 3).max(2))
                .map(|i| (ambiguous[i as usize % ambiguous.len()], 3))
                .collect();
            let mut s = ScenarioStream::baseline(9201, ContextWalk::from_pairs(&pairs));
            s.budget = EnergyBudget { target_j: 6.0, window: 8, relax_margin: 0.8 };
            s.timeline = Some(BudgetTimeline::new(
                (0..(ticks / 8).max(2))
                    .map(|i| BudgetPhase {
                        start_tick: i * 8,
                        target_j: if i % 2 == 0 { 6.0 } else { 1.0 },
                    })
                    .collect(),
            ));
            s.queue_capacity = 4;
            s.backpressure = BackpressurePolicy::Stall;
            s.frames_per_tick = 2;
            s
        }],
    };
    vec![storm, squeeze, churn]
}

/// Runs the coverage-guided search: evaluates the seed templates, then
/// `cfg.candidates` mutated candidates (parent drawn uniformly from the
/// corpus, 1–3 mutations each), accepting a candidate iff its signature
/// is new. Deterministic: the corpus is a pure function of `cfg`.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn search(cfg: &SearchConfig) -> Result<Vec<CorpusEntry>, InferError> {
    let mut rng = Rng::new(cfg.seed);
    let mut evaluator = Evaluator::new();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut seen: BTreeSet<CoverageSignature> = BTreeSet::new();
    for scenario in seed_scenarios(cfg.ticks) {
        let (signature, outcome) = evaluator.evaluate(&scenario)?;
        if seen.insert(signature) {
            corpus.push(CorpusEntry { scenario, signature, outcome });
        }
    }
    for candidate_idx in 0..cfg.candidates {
        let parent = rng.uniform_usize(0, corpus.len());
        let mut scenario = corpus[parent].scenario.clone();
        scenario.name = format!("found_{:04}", candidate_idx);
        let mutations = 1 + rng.uniform_usize(0, 3);
        let mut changed = false;
        for _ in 0..mutations {
            changed |= mutate_scenario(&mut scenario, &mut rng);
        }
        if !changed {
            continue;
        }
        debug_assert!(scenario.is_structurally_valid());
        let (signature, outcome) = evaluator.evaluate(&scenario)?;
        if seen.insert(signature) {
            corpus.push(CorpusEntry { scenario, signature, outcome });
        }
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_templates_are_valid_and_distinctly_shaped() {
        let seeds = seed_scenarios(24);
        assert_eq!(seeds.len(), 3);
        for s in &seeds {
            assert!(s.is_structurally_valid(), "{} invalid", s.name);
        }
        assert!(!seeds[0].streams[0].faults.is_empty(), "storm template has faults");
        assert!(seeds[1].streams[0].timeline.is_some(), "squeeze template has a ramp");
        assert!(seeds[2].streams[0].frames_per_tick > 1, "churn template over-produces");
    }

    #[test]
    fn tiny_search_is_bit_deterministic_and_finds_novelty() {
        let cfg = SearchConfig { seed: 7, candidates: 6, ticks: 10 };
        let a = search(&cfg).unwrap();
        let b = search(&cfg).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "identical (seed, config) searches must produce bit-identical corpora"
        );
        assert!(a.len() >= 2, "even a tiny search separates the seed templates");
        let mut sigs: Vec<_> = a.iter().map(|e| e.signature).collect();
        sigs.sort();
        sigs.dedup();
        assert_eq!(sigs.len(), a.len(), "corpus signatures are unique");
    }
}
