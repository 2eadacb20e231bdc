//! Shared helpers for the benchmark binaries and criterion benches.
//!
//! The `paper` binary regenerates the paper's tables and figures, one
//! subcommand each (`table1`, `table2`, `table3`, `fig1`, `fig4`, `fig5`,
//! `ablations`, `robustness`, `all`); run it with `cargo run --release -p
//! ecofusion-bench --bin paper -- <artifact>` (add `--full` for the
//! full-scale harness). The criterion benches measure the
//! wall-clock cost of the pipeline components on this machine — a separate
//! quantity from the calibrated PX2 numbers the tables report.

use ecofusion_core::{Dataset, DatasetSpec, EcoFusionModel};
use ecofusion_tensor::rng::Rng;
use serde::Serialize;
use std::path::PathBuf;

/// Builds a small untrained model + dataset pair for component benches
/// (criterion measures compute, not accuracy, so training is skipped).
pub fn bench_fixture(seed: u64) -> (EcoFusionModel, Dataset) {
    let dataset = Dataset::generate(&DatasetSpec::small(seed));
    let mut rng = Rng::new(seed.wrapping_add(99));
    let model = EcoFusionModel::new(dataset.grid(), 8, &mut rng);
    (model, dataset)
}

/// Writes an experiment result as JSON next to the repository's `results/`
/// directory when `--json` is among the CLI arguments. Errors are reported
/// to stderr but never fatal — table output on stdout is the primary
/// artifact.
pub fn maybe_write_json<T: Serialize>(args: &[String], name: &str, value: &T) {
    if !args.iter().any(|a| a == "--json") {
        return;
    }
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let (model, data) = bench_fixture(1);
        assert_eq!(model.grid(), data.grid());
        assert!(!data.test().is_empty());
    }
}
