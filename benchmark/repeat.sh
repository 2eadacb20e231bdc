#!/usr/bin/env bash
# A/A evidence: two sets of runs of the same checkout, side by side.
#
#   benchmark/repeat.sh [--runs N] [--seconds S] [--workload W]...
#
# Each set runs every workload N times (default 10), each time with
# another seed, exactly as the acceptance check does. For every workload
# and end-to-end metric it prints both medians, how much worse the second
# is than the first, each set's spread (interquartile range over median,
# `statistics.quantiles(values, n=4)`), and PASS when both spreads and the
# worsening stay within the metric's bound (`setup_s` is judged on the
# worsening alone), then each set's median `harness.episode_spread_pct`
# and how long a run took, and — not judged — how the host ran during each
# set (`harness.host_factor`) with `serve_fps` as the clock read it, to set
# against the reference-host-time `serve_fps` above.
# Writes the tables as Markdown to standard output; `AA_RESULTS.md` holds
# committed copies.
set -euo pipefail

dir="$(cd "$(dirname "$0")" && pwd)"
runs=10
seconds=25
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    *) echo "usage: repeat.sh [--runs N] [--seconds S] [--workload W]..." >&2; exit 2 ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <("$dir/run.sh" --list | awk '$1 == "workload" { print $2 }')
fi

out="$dir/out/repeat"
rm -rf "$out"
mkdir -p "$out"
for set in A B; do
  for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$runs"); do
      echo "set $set: $w seed $seed" >&2
      start=$(date +%s.%N)
      "$dir/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$out/$set.$w.$seed.txt"
      echo "$start $(date +%s.%N)" > "$out/$set.$w.$seed.wall"
    done
  done
done

"$dir/run.sh" --list > "$out/list.txt"
python3 - "$out" "$runs" "$seconds" "${workloads[@]}" <<'PY'
import json, statistics, sys

out, runs, seconds, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
metrics = []
for line in open(f"{out}/list.txt"):
    kind, *rest = line.split()
    if kind == "end_to_end":
        name, unit, better, bound = rest
        metrics.append((name, unit, better, float(bound)))

def lines(set_, w, seed):
    return open(f"{out}/{set_}.{w}.{seed}.txt").read().splitlines()

def load(set_, w):
    # The last line of a run's output is its JSON result.
    rows = [json.loads(lines(set_, w, seed)[-1]) for seed in range(1, runs + 1)]
    assert all(r["correct"] and r["failed"] == 0 for r in rows), f"{set_} {w}: a run was not correct"
    return rows

def noted(set_, w, name):
    # A run prints "<workload>: <name> <value> ..." beside its metrics.
    return [float(l.split()[2]) for seed in range(1, runs + 1)
            for l in lines(set_, w, seed) if l.startswith(f"{w}: {name} ")]

def noted_median(set_, w, name):
    return statistics.median(noted(set_, w, name))

def wall(w):
    # How long each run of the workload took, build check included.
    spans = [open(f"{out}/{set_}.{w}.{seed}.wall").read().split()
             for set_ in "AB" for seed in range(1, runs + 1)]
    return [float(end) - float(start) for start, end in spans]

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print(f"# A/A results: two sets of {runs} runs per workload, --seconds {seconds}, seeds 1..{runs}")
print()
print("`worse` is how much worse set B's median is than set A's (negative: better);")
print("`spread` is the interquartile range over the median of a set's runs.")
print()
print("| workload | metric | unit | median A | median B | worse | spread A | spread B | bound | |")
print("|---|---|---|---|---|---|---|---|---|---|")
failed = 0
for w in workloads:
    a, b = load("A", w), load("B", w)
    for name, unit, better, bound in metrics:
        va = [r["metrics"][name]["value"] for r in a]
        vb = [r["metrics"][name]["value"] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        sa, sb = spread(va), spread(vb)
        ok = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
        failed += not ok
        print(f"| {w} | {name} | {unit} | {ma:.6g} | {mb:.6g} | {worse:+.2%} | {sa:.2%} | {sb:.2%} "
              f"| {bound:.1%} | {'PASS' if ok else 'FAIL'} |")
print()
print("`harness.episode_spread_pct` — (max − min) / median of the episodes' `serve_fps`")
print("inside one run — median over each set's runs:")
print()
print("| workload | set A | set B | a run takes (median, max) |")
print("|---|---|---|---|")
for w in workloads:
    took = wall(w)
    print(f"| {w} | {noted_median('A', w, 'harness.episode_spread_pct'):.2f} % "
          f"| {noted_median('B', w, 'harness.episode_spread_pct'):.2f} % "
          f"| {statistics.median(took):.1f} s, {max(took):.1f} s |")
print()
print("How the host ran (`harness.host_factor`: the probe's time over its reference time,")
print("median per run) and `serve_fps` as the clock read it, before the division by the")
print("host factor (`clock_serve_fps`). Not judged.")
print()
print("| workload | value | median A | median B | worse | spread A | spread B |")
print("|---|---|---|---|---|---|---|")
for w in workloads:
    for name, better in [("harness.host_factor", "lower"), ("clock_serve_fps", "higher")]:
        va, vb = noted("A", w, name), noted("B", w, name)
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        print(f"| {w} | {name} | {ma:.6g} | {mb:.6g} | {worse:+.2%} | {spread(va):.2%} | {spread(vb):.2%} |")
print()
print("All PASS." if failed == 0 else f"{failed} FAIL.")
sys.exit(1 if failed else 0)
PY
