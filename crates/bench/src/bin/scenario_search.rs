//! Coverage-guided scenario search and suite distillation.
//!
//! ```text
//! # Discover novel-signature scenarios (seeded, deterministic) and
//! # distill the first 2 into committed record-replay suites:
//! cargo run --release -p ecofusion-bench --bin scenario_search -- \
//!     --search --seed 2024 --emit 2 --out-dir suites/distilled
//!
//! # Minimize + distill an existing corpus:
//! cargo run --release -p ecofusion-bench --bin scenario_search -- \
//!     --minimize --corpus results/scenario_corpus.json --out-dir suites/distilled
//! ```
//!
//! Modes (exactly one):
//!
//! * `--search` — run the coverage-guided search (`--seed`,
//!   `--candidates`, `--ticks` tune it; defaults are the CI-budget
//!   quick shape), print the corpus signatures, and write the corpus
//!   JSON to `--out` (default `results/scenario_corpus.json`). With
//!   `--emit <n>` the first `n` corpus entries are additionally
//!   minimized, distilled, and written under `--out-dir` (default
//!   `suites/distilled`).
//! * `--minimize` — load a corpus JSON (`--corpus`), minimize every
//!   entry (or the first `--emit <n>`), and write the distilled suites
//!   under `--out-dir`.
//!
//! `cargo test` replays every committed suite against its recorded digest
//! and counters and re-scores its coverage signature
//! (`crates/harness/tests/committed_gates.rs`); a drifted suite's failure
//! names the command that re-records it. Replay is hermetic (fixed model
//! seed, paper-default options, nothing read from the environment) and
//! shard-invariant.

use ecofusion_bench::cli::{usage_error, Args, SCENARIO_SEARCH};
use ecofusion_bench::write_file;
use ecofusion_harness::DEFAULT_DISTILLED_DIR;
use ecofusion_search::distill;
use ecofusion_search::search::{search, CorpusEntry, Evaluator, SearchConfig};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Writes `value` as pretty JSON with a trailing newline.
fn save_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    write_file(path, json + "\n")
}

/// Minimizes + distills `count` corpus entries and writes each as
/// `<out_dir>/auto_s<seed>_<idx>.json`. Returns `false` on any failure.
fn emit_distilled(corpus: &[CorpusEntry], count: usize, seed: u64, out_dir: &Path) -> bool {
    let mut evaluator = Evaluator::new();
    let mut ok = true;
    for (i, entry) in corpus.iter().take(count).enumerate() {
        let name = format!("auto_s{seed}_{i:02}");
        let before = entry.scenario.size().total();
        let suite = match distill(entry, &name, seed, &mut evaluator) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: distilling {name} failed: {e:?}");
                ok = false;
                continue;
            }
        };
        let after = suite.scenario.size().total();
        let path = out_dir.join(format!("{name}.json"));
        match save_json(&path, &suite) {
            Ok(()) => eprintln!(
                "distilled {} ({} -> {} mutable inputs, digest {})",
                path.display(),
                before,
                after,
                suite.expected_digest,
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    ok
}

fn print_corpus(corpus: &[CorpusEntry]) {
    println!(
        "{:<22} {:>6} {:>9} {:>6} {:>6} {:>7} {:>8}  signature",
        "scenario", "frames", "rungs", "churn", "drops", "stalls", "mAPloss"
    );
    for e in corpus {
        let s = &e.signature;
        println!(
            "{:<22} {:>6} {:>#09b} {:>6} {:>6} {:>7} {:>8}  {}",
            e.scenario.name,
            e.outcome.counters.frames,
            s.rungs,
            e.outcome.counters.churn,
            e.outcome.counters.dropped,
            e.outcome.counters.stalls,
            s.map_loss_bucket,
            serde_json::to_string(s).unwrap_or_default(),
        );
    }
}

fn main() -> ExitCode {
    let args = Args::from_env(&SCENARIO_SEARCH);
    let searching = args.switch("--search");
    if searching == args.switch("--minimize") {
        usage_error("pass exactly one of --search / --minimize");
    }
    let out_dir = PathBuf::from(args.str("--out-dir").unwrap_or(DEFAULT_DISTILLED_DIR));

    if searching {
        let cfg = SearchConfig {
            seed: args.int("--seed", 2024) as u64,
            candidates: args.int("--candidates", 48),
            ticks: args.count("--ticks", 48) as u64,
        };
        eprintln!(
            "searching: seed {}, {} candidates, {} ticks...",
            cfg.seed, cfg.candidates, cfg.ticks
        );
        let corpus = match search(&cfg) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: search failed: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        println!("{} distinct-signature scenarios discovered", corpus.len());
        print_corpus(&corpus);
        let out = PathBuf::from(args.str("--out").unwrap_or("results/scenario_corpus.json"));
        if let Err(e) = save_json(&out, &corpus) {
            eprintln!("error: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", out.display());
        let emit = args.int("--emit", 0);
        if emit > 0 && !emit_distilled(&corpus, emit, cfg.seed, &out_dir) {
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    } else {
        let corpus_path =
            PathBuf::from(args.str("--corpus").unwrap_or("results/scenario_corpus.json"));
        let corpus: Vec<CorpusEntry> = match std::fs::read_to_string(&corpus_path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| format!("{e:?}")))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot load corpus {}: {e}", corpus_path.display());
                return ExitCode::FAILURE;
            }
        };
        let seed = args.int("--seed", 2024) as u64;
        let emit = args.int("--emit", corpus.len());
        if emit_distilled(&corpus, emit, seed, &out_dir) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
