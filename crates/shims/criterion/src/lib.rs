//! Offline shim for the `criterion` crate (see `crates/shims/README.md`).
//!
//! Implements the measurement surface this workspace's benches use:
//! `criterion_group!` / `criterion_main!`, [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`] with `bench_function` /
//! `bench_with_input` / `throughput`, [`BenchmarkId`], and [`black_box`]. Each benchmark
//! is timed adaptively (warm-up, then enough iterations to fill the
//! measurement window) and the median per-iteration wall time is printed.
//! A `--quick` CLI flag shrinks the window for smoke runs; any benchmark
//! name passed on the command line acts as a substring filter, mirroring
//! `cargo bench -- <filter>`.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark driver: runs and reports individual benchmark functions.
pub struct Criterion {
    filter: Option<String>,
    ran: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Cargo passes flags like `--bench`; the first non-flag argument is
        // a name filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter, ran: 0 }
    }
}

impl Criterion {
    /// Runs one benchmark under `name`.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.matches(name) {
            let mut bencher = Bencher { samples: Vec::new() };
            f(&mut bencher);
            self.report(name, &bencher, None);
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_string(), throughput: None }
    }

    /// Prints a trailing summary (called by `criterion_main!`).
    pub fn final_summary(&self) {
        eprintln!("\n{} benchmark(s) run", self.ran);
    }

    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn report(&mut self, name: &str, bencher: &Bencher, throughput: Option<Throughput>) {
        self.ran += 1;
        let mut per_iter: Vec<f64> = bencher.samples.clone();
        if per_iter.is_empty() {
            eprintln!("{name:<50} no samples");
            return;
        }
        per_iter.sort_by(f64::total_cmp);
        let median = per_iter[per_iter.len() / 2];
        let lo = per_iter[0];
        let hi = per_iter[per_iter.len() - 1];
        eprintln!(
            "{name:<50} time: [{} {} {}]",
            format_time(lo),
            format_time(median),
            format_time(hi)
        );
        if let Some(Throughput::Elements(n)) = throughput {
            eprintln!("{:<50} thrpt: {:.3} Gelem/s", "", n as f64 / median / 1e9);
        }
    }
}

/// Work one iteration of the following benchmarks does, so the report
/// can print a rate beside the time (mirrors `criterion::Throughput`).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (of whatever the benchmark counts) per iteration.
    Elements(u64),
}

/// A named group of benchmarks sharing a prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration work of the benchmarks that follow; their
    /// reports gain a `thrpt` line at the median time.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        if self.criterion.matches(&full) {
            let mut bencher = Bencher { samples: Vec::new() };
            f(&mut bencher);
            self.criterion.report(&full, &bencher, self.throughput);
        }
        self
    }

    /// Runs one parameterized benchmark inside the group.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        if self.criterion.matches(&full) {
            let mut bencher = Bencher { samples: Vec::new() };
            f(&mut bencher, input);
            self.criterion.report(&full, &bencher, self.throughput);
        }
        self
    }

    /// Ends the group (no-op; mirrors the real API).
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and a parameter into an id.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{function_name}/{parameter}") }
    }

    /// Id from a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// Conversion into a printable benchmark id (accepts `&str` and
/// [`BenchmarkId`], as the real API does).
pub trait IntoBenchmarkId {
    /// The printable id.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    /// Per-iteration seconds of each measured sample.
    samples: Vec<f64>,
}

/// Measurement parameters shared by every `iter` call: the enclosing
/// `Criterion`'s windows are fixed at construction, so `Bencher` reads the
/// global quick flag directly to stay a plain value type.
fn windows() -> (Duration, Duration) {
    if std::env::args().any(|a| a == "--quick") {
        (Duration::from_millis(50), Duration::from_millis(10))
    } else {
        (Duration::from_millis(400), Duration::from_millis(100))
    }
}

impl Bencher {
    /// Measures `f`, recording per-iteration wall time.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let (measurement, warm_up) = windows();
        // Warm-up: also calibrates the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < warm_up {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        // Sample batches sized to ~1/8 of the measurement window each.
        let batch = ((measurement.as_secs_f64() / 8.0 / per_iter).ceil() as u64).max(1);
        let deadline = Instant::now() + measurement;
        while Instant::now() < deadline {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            self.samples.push(start.elapsed().as_secs_f64() / batch as f64);
        }
        if self.samples.is_empty() {
            self.samples.push(per_iter);
        }
    }
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Groups benchmark functions under one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $( $group(&mut criterion); )+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_scale() {
        assert!(format_time(2.0).ends_with("s"));
        assert!(format_time(2e-3).ends_with("ms"));
        assert!(format_time(2e-6).ends_with("µs"));
        assert!(format_time(2e-9).ends_with("ns"));
    }

    #[test]
    fn bencher_records_samples() {
        let mut b = Bencher { samples: Vec::new() };
        b.iter(|| black_box(3u64.wrapping_mul(7)));
        assert!(!b.samples.is_empty());
        assert!(b.samples.iter().all(|s| *s >= 0.0));
    }
}
