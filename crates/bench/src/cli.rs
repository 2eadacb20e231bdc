//! The one command-line parser of the bench binaries.
//!
//! Each binary declares what it accepts in a [`Spec`], and
//! [`Args::from_env`] exits 2, naming the argument, on anything else
//! before any work starts: an unknown flag, a value flag without a value
//! (at the end, or followed by a `--` flag), a positional past the
//! declared number, `--quick` with `--full`, or a value of the wrong type.
//! Flags and positionals may come in any order.

use ecofusion_eval::experiments::Scale;
use std::str::FromStr;

/// What one binary accepts; value flags are listed by their value's type.
#[derive(Debug)]
pub struct Spec {
    /// Any string: a path, a suite or precision name. May repeat.
    strs: &'static [&'static str],
    /// An integer ≥ 1.
    counts: &'static [&'static str],
    /// An integer ≥ 0.
    ints: &'static [&'static str],
    /// Flags that take no value.
    switches: &'static [&'static str],
    /// The most positional arguments (a mode or an artifact).
    positionals: usize,
}

/// Whether a value parses as its flag's type.
type Check = fn(&str) -> bool;

impl Spec {
    const NONE: Spec = Spec { strs: &[], counts: &[], ints: &[], switches: &[], positionals: 0 };

    /// What `flag`'s value must be, and the test of it; `None` if `flag`
    /// takes no value.
    fn rule(&self, flag: &str) -> Option<(&'static str, Check)> {
        let rules: [(&[&str], &str, Check); 3] = [
            (self.strs, "a value", |_| true),
            (self.counts, "an integer >= 1", |v| v.parse::<usize>().is_ok_and(|n| n >= 1)),
            (self.ints, "an integer >= 0", |v| v.parse::<usize>().is_ok()),
        ];
        rules.into_iter().find(|(flags, ..)| flags.contains(&flag)).map(|(_, e, valid)| (e, valid))
    }
}

/// `bench_report [compare|refresh-baseline]`.
pub static BENCH_REPORT: Spec = Spec {
    strs: &["--out", "--baseline", "--suite", "--precision", "--flight-dir"],
    counts: &["--shards"],
    switches: &["--quick", "--full", "--flight-recorder"],
    positionals: 1,
    ..Spec::NONE
};

/// `paper <artifact> [ablation]`.
pub static PAPER: Spec = Spec {
    ints: &["--grid", "--epochs", "--scenes"],
    switches: &["--quick", "--full", "--json"],
    positionals: 2,
    ..Spec::NONE
};

/// `scenario_search --search|--minimize`.
pub static SCENARIO_SEARCH: Spec = Spec {
    strs: &["--out", "--out-dir", "--corpus"],
    counts: &["--ticks"],
    ints: &["--seed", "--candidates", "--emit"],
    switches: &["--search", "--minimize"],
    ..Spec::NONE
};

/// `trace_dump`.
pub static TRACE_DUMP: Spec = Spec {
    strs: &["--suite", "--out", "--metrics"],
    counts: &["--shards", "--capacity"],
    switches: &["--quick", "--full", "--check"],
    ..Spec::NONE
};

/// Reports a rejected command line and exits with code 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// A command line that matched its [`Spec`]. Asking for a flag the spec
/// does not declare with that type panics: a bug in the binary.
#[derive(Debug)]
pub struct Args {
    spec: &'static Spec,
    values: Vec<(String, String)>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses the process's arguments; exits 2 on a rejected command line.
    pub fn from_env(spec: &'static Spec) -> Args {
        Args::parse(spec, std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses `argv` (without the program name) against `spec`; the error
    /// names the first argument the spec does not accept.
    fn parse(spec: &'static Spec, argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args =
            Args { spec, values: Vec::new(), switches: Vec::new(), positionals: Vec::new() };
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            if let Some((expects, valid)) = spec.rule(&arg) {
                match argv.next_if(|v| !v.starts_with("--")) {
                    Some(value) if valid(&value) => args.values.push((arg, value)),
                    Some(value) => return Err(format!("{arg} expects {expects}, got `{value}`")),
                    None => return Err(format!("{arg} expects a value")),
                }
            } else if let Some(&switch) = spec.switches.iter().find(|s| **s == arg) {
                args.switches.push(switch);
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag `{arg}`"));
            } else if args.positionals.len() < spec.positionals {
                args.positionals.push(arg);
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        if args.switches.contains(&"--quick") && args.switches.contains(&"--full") {
            return Err("--quick and --full exclude each other".into());
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Whether the switch was given.
    pub fn switch(&self, flag: &str) -> bool {
        assert!(self.spec.switches.contains(&flag), "{flag} is not a declared switch");
        self.switches.contains(&flag)
    }

    /// `--full` selects the full scale; quick is the default.
    pub fn scale(&self) -> Scale {
        if self.switch("--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// A string flag's first value.
    pub fn str(&self, flag: &str) -> Option<&str> {
        self.values_of(self.spec.strs, flag).first().copied()
    }

    /// Every value of a repeatable string flag, in order.
    pub fn strs(&self, flag: &str) -> Vec<String> {
        self.values_of(self.spec.strs, flag).into_iter().map(String::from).collect()
    }

    /// A count flag (≥ 1), or `default`.
    pub fn count(&self, flag: &str, default: usize) -> usize {
        self.number(self.spec.counts, flag).unwrap_or(default)
    }

    /// An integer flag (≥ 0), or `default`.
    pub fn int(&self, flag: &str, default: usize) -> usize {
        self.number(self.spec.ints, flag).unwrap_or(default)
    }

    fn number<T: FromStr>(&self, declared: &[&str], flag: &str) -> Option<T> {
        self.values_of(declared, flag).first().and_then(|v| v.parse().ok())
    }

    fn values_of(&self, declared: &[&str], flag: &str) -> Vec<&str> {
        assert!(declared.contains(&flag), "{flag} is not declared with this type");
        self.values.iter().filter(|(f, _)| f == flag).map(|(_, v)| v.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(spec: &'static Spec, line: &str) -> Result<Args, String> {
        Args::parse(spec, line.split_whitespace().map(String::from))
    }

    fn rejects(spec: &'static Spec, line: &str, message: &str) {
        match parse(spec, line) {
            Ok(args) => panic!("`{line}` parsed: {args:?}"),
            Err(e) => assert_eq!(e, message, "`{line}`"),
        }
    }

    /// Everything a binary can read from `args`, through the typed
    /// getters: positionals, scale, switches, then each value flag given.
    fn reads(args: &Args) -> String {
        let mut out: Vec<String> = args.positionals.clone();
        if args.spec.switches.contains(&"--full") {
            out.push(format!("{:?}", args.scale()));
        }
        out.extend(args.spec.switches.iter().filter(|s| args.switch(s)).map(|s| s.to_string()));
        type Typed = fn(&str) -> String;
        let values: [(&[&str], Typed); 3] = [
            (args.spec.strs, |v| v.to_string()),
            (args.spec.counts, |v| v.parse::<usize>().expect("count").to_string()),
            (args.spec.ints, |v| v.parse::<usize>().expect("int").to_string()),
        ];
        for (flags, typed) in values {
            for flag in flags {
                let given = args.values_of(flags, flag);
                if !given.is_empty() {
                    let typed: Vec<String> = given.into_iter().map(typed).collect();
                    out.push(format!("{flag}={}", typed.join(",")));
                }
            }
        }
        out.join(" ")
    }

    /// Every command line README.md, the verification notes, the CI
    /// workflow, the committed gates' failure messages and the binaries'
    /// own docs give, with what the binary reads from it.
    #[test]
    fn documented_command_lines_parse_as_documented() {
        let table: &[(&'static Spec, &str, &str)] = &[
            // .github/workflows/ci.yml
            (
                &TRACE_DUMP,
                "--quick --check --out trace.json --metrics metrics.prom",
                "Quick --quick --check --out=trace.json --metrics=metrics.prom",
            ),
            (
                &TRACE_DUMP,
                "--quick --suite fault_storm --shards 4 --check --out fault_storm.trace.json \
                 --metrics fault_storm.prom",
                "Quick --quick --check --suite=fault_storm --out=fault_storm.trace.json \
                 --metrics=fault_storm.prom --shards=4",
            ),
            // README.md
            (&PAPER, "table1", "table1 Quick"),
            (&PAPER, "robustness", "robustness Quick"),
            (&BENCH_REPORT, "--quick", "Quick --quick"),
            (&BENCH_REPORT, "--full", "Full --full"),
            (&BENCH_REPORT, "compare", "compare Quick"),
            (&BENCH_REPORT, "refresh-baseline", "refresh-baseline Quick"),
            (
                &BENCH_REPORT,
                "compare --precision int8 --baseline baselines/bench_baseline_int8.json",
                "compare Quick --baseline=baselines/bench_baseline_int8.json --precision=int8",
            ),
            (&SCENARIO_SEARCH, "--search --seed 2024 --emit 3", "--search --seed=2024 --emit=3"),
            (&TRACE_DUMP, "--quick --check", "Quick --quick --check"),
            (
                &BENCH_REPORT,
                "compare --flight-recorder --flight-dir results/flight",
                "compare Quick --flight-recorder --flight-dir=results/flight",
            ),
            // The repository's verification notes.
            (&PAPER, "table3", "table3 Quick"),
            (&PAPER, "table3 --json", "table3 Quick --json"),
            (
                &SCENARIO_SEARCH,
                "--search --seed 7 --candidates 12 --ticks 24 --emit 1",
                "--search --ticks=24 --seed=7 --candidates=12 --emit=1",
            ),
            (&BENCH_REPORT, "compare --quick", "compare Quick --quick"),
            // The binaries' module docs.
            (&PAPER, "table1 --full --json", "table1 Full --full --json"),
            (&PAPER, "all --full --json", "all Full --full --json"),
            (&PAPER, "ablations gate", "ablations gate Quick"),
            (
                &PAPER,
                "debug_detect --grid 32 --epochs 2 --scenes 20",
                "debug_detect Quick --grid=32 --epochs=2 --scenes=20",
            ),
            (
                &SCENARIO_SEARCH,
                "--search --seed 2024 --emit 2 --out-dir suites/distilled",
                "--search --out-dir=suites/distilled --seed=2024 --emit=2",
            ),
            (
                &SCENARIO_SEARCH,
                "--minimize --corpus results/scenario_corpus.json --out-dir suites/distilled",
                "--minimize --out-dir=suites/distilled --corpus=results/scenario_corpus.json",
            ),
            (&TRACE_DUMP, "--quick", "Quick --quick"),
            (
                &TRACE_DUMP,
                "--suite fault_storm --shards 4 --check",
                "Quick --check --suite=fault_storm --shards=4",
            ),
            // crates/harness/tests/committed_gates.rs
            (
                &BENCH_REPORT,
                "compare --quick --flight-recorder",
                "compare Quick --quick --flight-recorder",
            ),
            (
                &BENCH_REPORT,
                "compare --quick --flight-recorder --precision int8 \
                 --baseline baselines/bench_baseline_int8.json",
                "compare Quick --quick --flight-recorder \
                 --baseline=baselines/bench_baseline_int8.json --precision=int8",
            ),
            (
                &BENCH_REPORT,
                "compare --quick --flight-recorder --suite fleet_scale --shards 4",
                "compare Quick --quick --flight-recorder --suite=fleet_scale --shards=4",
            ),
            (&BENCH_REPORT, "--quick --precision int8", "Quick --quick --precision=int8"),
            (
                &SCENARIO_SEARCH,
                "--minimize --corpus results/scenario_corpus.json",
                "--minimize --corpus=results/scenario_corpus.json",
            ),
        ];
        for &(spec, line, expected) in table {
            let args = parse(spec, line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(reads(&args), expected, "`{line}`");
        }
    }

    #[test]
    fn an_unknown_or_misspelt_flag_is_rejected_by_every_binary() {
        for spec in [&BENCH_REPORT, &PAPER, &SCENARIO_SEARCH, &TRACE_DUMP] {
            rejects(spec, "--chek", "unknown flag `--chek`");
            rejects(spec, "-q", "unknown flag `-q`");
        }
        rejects(&PAPER, "table3 --chek", "unknown flag `--chek`");
        rejects(&TRACE_DUMP, "--quick --chek", "unknown flag `--chek`");
        // A flag another binary declares is still unknown here.
        rejects(&TRACE_DUMP, "--quick --baseline b.json", "unknown flag `--baseline`");
        rejects(&SCENARIO_SEARCH, "--search --quick", "unknown flag `--quick`");
    }

    /// The mode and flags that only CI's gate jobs used are gone, and the
    /// gates they drove run under `cargo test`; each is spelt `--` plus
    /// its name here, so a search of the tree for one finds no user.
    #[test]
    fn removed_gate_flags_are_unknown() {
        let removed = [
            (&SCENARIO_SEARCH, "--search", "replay", ""),
            (&BENCH_REPORT, "compare", "report", " r.json"),
            (&BENCH_REPORT, "compare", "map-band", " 0.1"),
        ];
        for (spec, before, flag, value) in removed {
            rejects(
                spec,
                &format!("{before} --{flag}{value}"),
                &format!("unknown flag `--{flag}`"),
            );
        }
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        rejects(&BENCH_REPORT, "compare --baseline", "--baseline expects a value");
        rejects(&BENCH_REPORT, "--out --quick", "--out expects a value");
        rejects(&SCENARIO_SEARCH, "--search --ticks", "--ticks expects a value");
        rejects(&TRACE_DUMP, "--suite --check", "--suite expects a value");
    }

    #[test]
    fn a_stray_positional_is_rejected() {
        rejects(
            &BENCH_REPORT,
            "compare refresh-baseline",
            "unexpected argument `refresh-baseline`",
        );
        rejects(&TRACE_DUMP, "--quick compare", "unexpected argument `compare`");
        rejects(&PAPER, "ablations gamma rule", "unexpected argument `rule`");
        rejects(
            &SCENARIO_SEARCH,
            "--search suites/distilled",
            "unexpected argument `suites/distilled`",
        );
        rejects(&TRACE_DUMP, "--quick steady_city", "unexpected argument `steady_city`");
    }

    #[test]
    fn quick_and_full_exclude_each_other() {
        for spec in [&BENCH_REPORT, &PAPER, &TRACE_DUMP] {
            rejects(spec, "--quick --full", "--quick and --full exclude each other");
            rejects(spec, "--full --quick", "--quick and --full exclude each other");
        }
    }

    #[test]
    fn a_value_must_parse_as_its_kind() {
        rejects(&BENCH_REPORT, "--shards 0", "--shards expects an integer >= 1, got `0`");
        rejects(&BENCH_REPORT, "--shards two", "--shards expects an integer >= 1, got `two`");
        rejects(&TRACE_DUMP, "--capacity 0", "--capacity expects an integer >= 1, got `0`");
        rejects(&SCENARIO_SEARCH, "--search --seed -1", "--seed expects an integer >= 0, got `-1`");
        rejects(
            &SCENARIO_SEARCH,
            "--search --emit 1.5",
            "--emit expects an integer >= 0, got `1.5`",
        );
        rejects(&PAPER, "debug_detect --grid x", "--grid expects an integer >= 0, got `x`");
    }

    /// `--ticks 0` reached a panic in the scenario runner; `--emit 0` (the
    /// default) distills nothing and stays valid.
    #[test]
    fn zero_ticks_is_rejected_and_zero_emit_is_not() {
        rejects(&SCENARIO_SEARCH, "--search --ticks 0", "--ticks expects an integer >= 1, got `0`");
        let args = parse(&SCENARIO_SEARCH, "--search --emit 0").expect("parses");
        assert_eq!(args.int("--emit", 7), 0);
        assert_eq!(args.count("--ticks", 48), 48);
    }

    #[test]
    fn a_repeated_suite_keeps_every_value_in_order() {
        let args = parse(&BENCH_REPORT, "compare --suite a --quick --suite b --out x.json")
            .expect("parses");
        assert_eq!(args.strs("--suite"), ["a", "b"]);
        assert_eq!(args.str("--suite"), Some("a"));
        assert_eq!(args.strs("--out"), ["x.json"]);
        assert!(args.strs("--baseline").is_empty());
    }

    #[test]
    fn mode_and_flags_parse_in_either_order() {
        for line in ["--quick compare", "compare --quick"] {
            let args = parse(&BENCH_REPORT, line).expect("parses");
            assert_eq!(args.positional(0), Some("compare"), "`{line}`");
            assert_eq!(args.positional(1), None);
            assert!(args.switch("--quick"));
        }
        let args = parse(&PAPER, "--json ablations --full rule").expect("parses");
        assert_eq!((args.positional(0), args.positional(1)), (Some("ablations"), Some("rule")));
        assert_eq!(args.scale(), Scale::Full);
    }

    #[test]
    fn scale_parse() {
        assert_eq!(parse(&PAPER, "--full").expect("parses").scale(), Scale::Full);
        assert_eq!(parse(&PAPER, "").expect("parses").scale(), Scale::Quick);
    }

    #[test]
    #[should_panic(expected = "--out is not declared with this type")]
    fn reading_a_flag_as_another_kind_is_a_bug_in_the_binary() {
        parse(&BENCH_REPORT, "").expect("parses").count("--out", 1);
    }
}
