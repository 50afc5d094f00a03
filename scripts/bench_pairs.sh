#!/usr/bin/env bash
# Run perfbench workloads in alternating pairs at BASE_REF and in the
# working tree, and compare the end-to-end metrics of the two sides.
#
# BASE_REF's files are exported (`git archive`) into a temporary directory,
# removed on exit, as scripts/compare_pipeline.sh exports them. Each side
# runs its own perfbench/run.py on inputs it builds from SEED in its own
# checkout. WORKLOADS is one workload, a comma-separated list of them, or
# `all`, every workload of BENCHMARK.json; they run one after another.
# Pair i of a workload runs the base first when i is odd and the working
# tree first when i is even, so neither side always runs on a machine the
# other has just warmed or loaded.
#
# Each run's full report goes to OUT_DIR/WORKLOAD/{base,change}-i.log and
# its last line, the result JSON, to OUT_DIR/WORKLOAD/{base,change}-i.json.
# A workload's table, also in OUT_DIR/WORKLOAD/pairs.txt, has one row per
# end-to-end metric of BENCHMARK.json: each side's median and quartiles
# over its runs, change/base of the medians, and the pairs the change won
# in the metric's better direction (ties count for neither side). Rows
# marked `reported` follow, for the per-query latency p50 and p99 that a
# workload's report prints (lc-stream), read from each run's report log:
# they gate nothing, and show the per-query effect that the gated
# throughput averages away.
#
# Usage: scripts/bench_pairs.sh BASE_REF OUT_DIR WORKLOADS [PAIRS] [SECONDS] [SEED]
# PAIRS defaults to 10, SECONDS to BENCHMARK.json's run_seconds, SEED to 1.
# Exits 1 if any run of any workload is not `correct: true` or prints no result.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    echo "usage: $0 BASE_REF OUT_DIR WORKLOADS [PAIRS] [SECONDS] [SEED]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
base_ref=$(git -C "$root" rev-parse --verify "$1^{commit}")
spec() {
    python3 -c "import json, sys; s = json.load(open(sys.argv[1])); print($1)" "$root/BENCHMARK.json"
}
if [ "$3" = all ]; then
    workloads=$(spec '" ".join(w["name"] for w in s["workloads"])')
else
    workloads=${3//,/ }
fi
pairs=${4:-10}
seconds=${5:-$(spec 's["run_seconds"]')}
seed=${6:-1}
mkdir -p "$2"
root_out=$(cd "$2" && pwd)

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$base_ref" | tar -x -C "$tree"

# run SIDE ROOT I: one run of the workload at ROOT, its report into OUT_DIR/WORKLOAD/SIDE-I.log, its result into SIDE-I.json
run() {
    echo "== $workload pair $3: $1" >&2
    (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds") \
        > "$out/$1-$3.log" 2>&1 || true
    tail -n 1 "$out/$1-$3.log" > "$out/$1-$3.json"
}
status=0
for workload in $workloads; do
    out=$root_out/$workload
    mkdir -p "$out"
    rm -f "$out"/base-*.json "$out"/change-*.json "$out"/base-*.log "$out"/change-*.log "$out/pairs.txt"
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$tree" "$i"
            run change "$root" "$i"
        else
            run change "$root" "$i"
            run base "$tree" "$i"
        fi
    done
    echo "== $workload"
    python3 - "$out" "$pairs" "$root/BENCHMARK.json" <<'PY' | tee "$out/pairs.txt" || status=1
import json
import re
import statistics
import sys

out, pairs, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))

def result(side, i):
    try:
        with open(f"{out}/{side}-{i}.json") as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None

runs = {side: [result(side, i) for i in range(1, pairs + 1)] for side in ("base", "change")}
bad = [f"{side}-{i + 1}" for side, rs in runs.items() for i, r in enumerate(rs) if not (r and r.get("correct") is True)]

def reported(side, i, name):
    """A figure the run's report log prints as `  name = value`, or None."""
    try:
        with open(f"{out}/{side}-{i}.log") as f:
            found = re.search(rf"^  {name} = (\S+)$", f.read(), re.M)
    except OSError:
        return None
    return float(found.group(1)) if found else None

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def row(name, values, higher, note=""):
    both = [(b, c) for b, c in zip(values["base"], values["change"]) if b is not None and c is not None]
    if not both:
        return
    base, change = quartiles([b for b, _ in both]), quartiles([c for _, c in both])
    won = sum((c > b) if higher else (c < b) for b, c in both)
    ratio = f"{change[1] / base[1]:.3f}" if base[1] else "-"
    print(f"{name:<20} {base[0]:>11.5g} {base[1]:>11.5g} {base[2]:>11.5g} "
          f"{change[0]:>11.5g} {change[1]:>11.5g} {change[2]:>11.5g} {ratio:>7} {won:>3}/{len(both):<3}{note}")

print(f"{'metric':<20} {'base q1':>11} {'base med':>11} {'base q3':>11} "
      f"{'change q1':>11} {'change med':>11} {'change q3':>11} {'ratio':>7} {'won':>7}")
for metric in spec["end_to_end"]:
    name = metric["name"]
    row(name, {side: [r["metrics"][name]["value"] if r and name in r.get("metrics", {}) else None for r in rs]
               for side, rs in runs.items()}, metric["better"] == "higher")
for name in ("query_latency_p50_us", "query_latency_p99_us"):  # lower is better
    row(name, {side: [reported(side, i, name) for i in range(1, pairs + 1)] for side in runs}, False, " reported")
for side, rs in runs.items():
    attempted = sum(r["attempted"] for r in rs if r)
    failed = sum(r["failed"] for r in rs if r)
    print(f"{side}: {sum(1 for r in rs if r)} runs, {attempted} operations attempted, {failed} failed")
if bad:
    print(f"not correct: {' '.join(bad)}")
    sys.exit(1)
PY
done
exit $status
