//! Shared helpers for the benchmark binaries and criterion benches.
//!
//! Four binaries, each parsing its command line with [`cli`]:
//!
//! * `paper` regenerates the paper's tables and figures, one subcommand
//!   each (`table1`, `table2`, `table3`, `fig1`, `fig4`, `fig5`,
//!   `ablations`, `robustness`, `all`); run it with `cargo run --release
//!   -p ecofusion-bench --bin paper -- <artifact>` (add `--full` for the
//!   full-scale harness);
//! * `bench_report` writes the workload suites' `BenchReport`, compares
//!   one with a baseline, or refreshes a baseline;
//! * `scenario_search` discovers adversarial scenarios and distills them
//!   into suites under `suites/distilled/`;
//! * `trace_dump` traces one suite and writes its Chrome trace and
//!   metrics snapshot.
//!
//! The committed gates themselves — baselines, int8 parity, distilled
//! replay — run under `cargo test`, in
//! `crates/harness/tests/committed_gates.rs`. The criterion benches
//! measure the wall-clock cost of the pipeline components on the host
//! that runs them — a separate quantity from the calibrated PX2 numbers
//! the tables report.

pub mod cli;

use ecofusion_core::{Dataset, DatasetSpec, EcoFusionModel};
use ecofusion_tensor::rng::Rng;
use std::path::Path;

/// Builds a small untrained model + dataset pair for component benches
/// (criterion measures compute, not accuracy, so training is skipped).
pub fn bench_fixture(seed: u64) -> (EcoFusionModel, Dataset) {
    let dataset = Dataset::generate(&DatasetSpec::small(seed));
    let mut rng = Rng::new(seed.wrapping_add(99));
    let model = EcoFusionModel::new(dataset.grid(), 8, &mut rng);
    (model, dataset)
}

/// Writes `contents` to `path`, creating its parent directory first.
pub fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
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
