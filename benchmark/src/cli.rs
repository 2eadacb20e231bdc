//! The command line: the driver that runs a workload's episodes in fresh
//! child processes and reports medians, and the child entry points.

use crate::episode::{self, EpisodeArgs, Mode, Outcome};
use crate::metrics::{self, Metric};
use crate::stats::{median, spread_pct, MIN_BEYOND};
use crate::workload::{Workload, WORKLOADS};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Each of a traced run's three episodes (plain, spans, sink) gets this
/// share of the ticks `--seconds` pay for, which leaves room for the
/// shadow replay.
const TRACED_SHARE: u64 = 6;
/// `--seconds` when the caller gives none (`BENCHMARK.json`'s `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 25.0;
/// Ticks of the shard-invariance pass after `fleet_sharded`.
const VERIFY_TICKS: u64 = 64;
/// Timed ticks of a `--smoke` episode.
const SMOKE_TICKS: u64 = 8;

const USAGE: &str = "usage: run.sh [--workload W]... [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--list] [--out DIR]";

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

/// Entry point of the binary.
pub fn main(process_start: Instant) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, process_start) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("servebench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String], process_start: Instant) -> Result<ExitCode, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    // Child-only arguments.
    let mut child: Option<&str> = None;
    let mut mode = Mode::Plain;
    let mut warmup = None;
    let mut ticks = None;
    let mut trace_out = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                opts.workloads
                    .push(Workload::by_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = parse(value("a number")?)?,
            "--seconds" => opts.seconds = parse(value("a number")?)?,
            "--trace" => opts.trace = parse::<u8>(value("0 or 1")?)? != 0,
            "--smoke" => opts.smoke = true,
            "--out" => opts.out_dir = PathBuf::from(value("a directory")?),
            "--list" => {
                list();
                return Ok(ExitCode::SUCCESS);
            }
            "--episode" => child = Some("episode"),
            "--verify-shards" => child = Some("verify"),
            "--mode" => {
                mode = match value("plain, spans or sink")?.as_str() {
                    "plain" => Mode::Plain,
                    "spans" => Mode::Spans,
                    "sink" => Mode::Sink,
                    other => return Err(format!("unknown mode {other}")),
                }
            }
            "--warmup" => warmup = Some(parse(value("a number")?)?),
            "--ticks" => ticks = Some(parse(value("a number")?)?),
            "--trace-out" => trace_out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.seconds.is_nan() || opts.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }

    if let Some(kind) = child {
        let [workload] = opts.workloads[..] else {
            return Err("a child runs exactly one workload".to_string());
        };
        let timed_ticks = ticks.ok_or("a child needs --ticks")?;
        let outcome = match kind {
            "episode" => episode::run(
                &EpisodeArgs {
                    workload,
                    seed: opts.seed,
                    warmup_ticks: warmup.ok_or("an episode needs --warmup")?,
                    timed_ticks,
                    mode,
                    trace_out,
                },
                process_start,
            ),
            _ => episode::verify_shards(workload, opts.seed, timed_ticks),
        };
        println!("{}", outcome.to_json());
        return Ok(ExitCode::SUCCESS);
    }

    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().collect();
    }
    Ok(drive(&opts))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

/// `--list`: every workload and metric name, one per line, in the order
/// and with the fields `BENCHMARK.json` gives them.
fn list() {
    for w in &WORKLOADS {
        println!("workload {} {}", w.name, w.why);
    }
    for m in metrics::end_to_end() {
        println!("end_to_end {} {} {} {}", m.name, m.unit, m.better, m.bound.expect("bounded"));
    }
    for m in metrics::per_layer() {
        println!("per_layer {} {} {}", m.name, m.unit, m.better);
    }
}

/// Runs one child to completion and parses the JSON line it prints.
fn spawn(opts: &Options, w: &Workload, extra: &[String]) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &opts.seed.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {extra:?} of {} ended with {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Outcome::from_json(line)
}

fn episode_args(w: &Workload, ticks: u64, mode: &str) -> Vec<String> {
    [
        "--episode",
        "--warmup",
        &w.warmup_ticks.to_string(),
        "--ticks",
        &ticks.to_string(),
        "--mode",
        mode,
    ]
    .map(String::from)
    .to_vec()
}

/// What a run found out about one workload.
#[derive(Default)]
struct Findings {
    episodes: Vec<Outcome>,
    /// Failed correctness checks, `check: detail`.
    failures: Vec<String>,
    /// The reported metrics, in table order.
    metrics: Vec<(Metric, f64)>,
    /// Diagnostics printed beside the metrics but not part of them.
    notes: Vec<String>,
}

fn drive(opts: &Options) -> ExitCode {
    let mut findings: BTreeMap<&str, Findings> = BTreeMap::new();
    if opts.trace {
        for w in &opts.workloads {
            findings.insert(w.name, traced_run(opts, w));
        }
    } else {
        // Round-robin, so one workload's episodes are spread over the run.
        let plan = |w: &Workload| {
            if opts.smoke {
                (1, SMOKE_TICKS)
            } else {
                w.episode_plan(opts.seconds)
            }
        };
        let rounds = opts.workloads.iter().map(|w| plan(w).0).max().unwrap_or(0);
        for round in 0..rounds {
            for w in &opts.workloads {
                let (episodes, ticks) = plan(w);
                if round >= episodes {
                    continue;
                }
                let f = findings.entry(w.name).or_default();
                match spawn(opts, w, &episode_args(w, ticks, "plain")) {
                    Ok(outcome) => f.episodes.push(outcome),
                    Err(e) => f.failures.push(format!("episode: {e}")),
                }
            }
        }
        for w in &opts.workloads {
            let f = findings.get_mut(w.name).expect("every workload ran");
            summarize_end_to_end(w, f, opts.smoke);
            if w.shards > 1 {
                let ticks = if opts.smoke { SMOKE_TICKS } else { VERIFY_TICKS };
                let args = ["--verify-shards", "--ticks", &ticks.to_string()].map(String::from);
                match spawn(opts, w, &args) {
                    Ok(outcome) => f.failures.extend(outcome.failures),
                    Err(e) => f.failures.push(format!("shard_invariance: {e}")),
                }
            }
        }
    }
    report(opts, &findings)
}

/// Checks that the episodes agree and takes the median of each metric.
fn summarize_end_to_end(w: &Workload, f: &mut Findings, smoke: bool) {
    for e in &f.episodes {
        f.failures.extend(e.failures.iter().cloned());
    }
    let Some(first) = f.episodes.first() else {
        return;
    };
    if let Some(other) = f.episodes.iter().find(|e| e.digest != first.digest) {
        f.failures.push(format!("digest: episodes disagree, {} vs {}", first.digest, other.digest));
    }
    for m in metrics::end_to_end() {
        let values: Vec<f64> = f.episodes.iter().map(|e| e.values[&m.name]).collect();
        // Allocation counts follow thread timing once shards run in parallel.
        let exact = m.exact && !(w.shards > 1 && m.name.starts_with("alloc"));
        if exact && values.iter().any(|v| (v - values[0]).abs() > 1e-12 * values[0].abs()) {
            f.failures.push(format!("exact: {} differs between episodes: {values:?}", m.name));
        }
        f.metrics.push((m, median(&values)));
    }
    let of = |name: &str| -> Vec<f64> { f.episodes.iter().map(|e| e.values[name]).collect() };
    f.notes.push(format!(
        "harness.episode_spread_pct {:.2} % ((max-min)/median of serve_fps over {} episodes)",
        spread_pct(&of("serve_fps")),
        f.episodes.len()
    ));
    f.notes.push(format!(
        "samples: {} episodes of {} steps, {} beyond step_ms_p95",
        f.episodes.len(),
        first.values["steps"],
        first.values["p95_beyond"]
    ));
    // A smoke run's few steps support no tail; a real run's must.
    if !smoke && (first.values["p95_beyond"] as usize) < MIN_BEYOND {
        f.failures.push(format!(
            "p95_support: {} samples beyond step_ms_p95, {MIN_BEYOND} needed (raise --seconds)",
            first.values["p95_beyond"]
        ));
    }
    // How the host ran, and what the clock read before the division.
    f.notes.push(format!(
        "harness.host_factor {} (median of episodes; above 1 = slower than the reference host)",
        median(&of("harness.host_factor"))
    ));
    f.notes.push(format!(
        "clock_serve_fps {} (serve_fps as the clock read it)",
        median(&of("clock_serve_fps"))
    ));
    f.notes.push(format!("digest {}", first.digest));
}

/// The traced run of one workload: a plain episode as the reference, a
/// spans episode for the per-layer values, a sink episode to price the
/// program's own recorder.
fn traced_run(opts: &Options, w: &'static Workload) -> Findings {
    let mut f = Findings::default();
    let ticks =
        if opts.smoke { SMOKE_TICKS } else { (w.total_ticks(opts.seconds) / TRACED_SHARE).max(8) };
    let trace_path = opts.out_dir.join(format!("{}.trace.json", w.name));
    for mode in ["plain", "spans", "sink"] {
        let mut args = episode_args(w, ticks, mode);
        if mode == "spans" {
            args.extend(["--trace-out".to_string(), trace_path.display().to_string()]);
        }
        match spawn(opts, w, &args) {
            Ok(outcome) => f.episodes.push(outcome),
            Err(e) => f.failures.push(format!("episode: {e}")),
        }
    }
    let [plain, spans, sink] = &f.episodes[..] else {
        return f;
    };
    for e in &f.episodes {
        f.failures.extend(e.failures.iter().cloned());
    }
    if plain.digest != spans.digest || plain.digest != sink.digest {
        f.failures.push(format!(
            "traced_digest: untraced {} vs spans {} vs sink {}",
            plain.digest, spans.digest, sink.digest
        ));
    }
    // In reference-host time, so that the host's speed during one
    // episode or the other does not read as overhead.
    let overhead = |e: &Outcome| {
        (e.values["serve_s"] - plain.values["serve_s"]) / plain.values["serve_s"] * 100.0
    };
    let mut values = spans.values.clone();
    values.insert("runtime.failed_share".to_string(), spans.values["failed_share"]);
    values.insert("harness.span_overhead_pct".to_string(), overhead(spans));
    values.insert("trace.sink_overhead_pct".to_string(), overhead(sink));
    for name in ["trace.events_per_frame", "trace.ring_dropped"] {
        values.insert(name.to_string(), sink.values[name]);
    }
    for m in metrics::per_layer() {
        match values.get(&m.name) {
            Some(v) => f.metrics.push((m, *v)),
            None => f.failures.push(format!("metric: {} was not measured", m.name)),
        }
    }
    f.notes.push(format!("trace written to {}", trace_path.display()));
    f.notes.push(format!("digest {}", plain.digest));
    f
}

/// Prints every metric, writes `result.json`, and ends with the one-line
/// JSON result.
fn report(opts: &Options, findings: &BTreeMap<&str, Findings>) -> ExitCode {
    let single = opts.workloads.len() == 1;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last_line: Vec<(String, Value)> = Vec::new();
    let mut doc: Vec<(String, Value)> = Vec::new();
    for w in &opts.workloads {
        let f = &findings[w.name];
        for (m, v) in &f.metrics {
            println!("{}/{} {} {}", w.name, m.name, v, m.unit);
            let key = if single { m.name.clone() } else { format!("{}/{}", w.name, m.name) };
            last_line.push((
                key,
                Value::Map(vec![
                    ("value".to_string(), Value::F64(*v)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            ));
        }
        for note in &f.notes {
            println!("{}: {note}", w.name);
        }
        // Failures count over the episodes the metrics come from.
        let counted: &[Outcome] =
            if opts.trace { &f.episodes[..f.episodes.len().min(1)] } else { &f.episodes };
        let offered: f64 = counted.iter().map(|e| e.values["frames_offered"]).sum();
        let lost: f64 = counted.iter().map(|e| e.values["frames_failed"]).sum();
        attempted += offered as u64;
        failed += lost as u64;
        println!(
            "{}: failed_share {} ({lost} of {offered} frames)",
            w.name,
            lost / offered.max(1.0)
        );
        for failure in &f.failures {
            println!("{}: CHECK FAILED {failure}", w.name);
        }
        if f.failures.is_empty() {
            println!("{}: all checks passed", w.name);
        }
        correct &= f.failures.is_empty() && !f.metrics.is_empty();
        doc.push((
            w.name.to_string(),
            Value::Map(vec![
                (
                    "metrics".to_string(),
                    Value::Map(
                        f.metrics.iter().map(|(m, v)| (m.name.clone(), Value::F64(*v))).collect(),
                    ),
                ),
                (
                    "episodes".to_string(),
                    Value::Seq(f.episodes.iter().map(Outcome::to_value).collect()),
                ),
                (
                    "failures".to_string(),
                    Value::Seq(f.failures.iter().cloned().map(Value::Str).collect()),
                ),
            ]),
        ));
    }
    let result = Value::Map(vec![
        ("seed".to_string(), Value::U64(opts.seed)),
        ("seconds".to_string(), Value::F64(opts.seconds)),
        ("trace".to_string(), Value::Bool(opts.trace)),
        ("smoke".to_string(), Value::Bool(opts.smoke)),
        ("workloads".to_string(), Value::Map(doc)),
    ]);
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|()| {
        let json = serde_json::to_string_pretty(&result).expect("value trees always serialize");
        std::fs::write(opts.out_dir.join("result.json"), json)
    });
    if let Err(e) = written {
        eprintln!("servebench: writing {}: {e}", opts.out_dir.join("result.json").display());
        correct = false;
    }
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted.max(1))),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(last_line)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("value trees always serialize"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
