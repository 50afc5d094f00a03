#!/usr/bin/env bash
# Run one perfbench workload in alternating pairs at BASE_REF and in the
# working tree, and compare the end-to-end metrics of the two sides.
#
# BASE_REF's files are exported (`git archive`) into a temporary directory,
# removed on exit, as scripts/compare_pipeline.sh exports them. Each side
# runs its own perfbench/run.py on inputs it builds from SEED in its own
# checkout. Pair i runs the base first when i is odd and the working tree
# first when i is even, so neither side always runs on a machine the other
# has just warmed or loaded.
#
# Each run's full report goes to OUT_DIR/{base,change}-i.log and its last
# line, the result JSON, to OUT_DIR/{base,change}-i.json. The table, also
# in OUT_DIR/pairs.txt, has one row per end-to-end metric of
# BENCHMARK.json: each side's median and quartiles over its runs,
# change/base of the medians, and the pairs the change won in the metric's
# better direction (ties count for neither side).
#
# Usage: scripts/bench_pairs.sh BASE_REF OUT_DIR WORKLOAD [PAIRS] [SECONDS] [SEED]
# PAIRS defaults to 10, SECONDS to BENCHMARK.json's run_seconds, SEED to 1.
# Exits 1 if any run is not `correct: true` or prints no result.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    echo "usage: $0 BASE_REF OUT_DIR WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
base_ref=$(git -C "$root" rev-parse --verify "$1^{commit}")
workload=$3
pairs=${4:-10}
seconds=${5:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
seed=${6:-1}
mkdir -p "$2"
out=$(cd "$2" && pwd)
rm -f "$out"/base-*.json "$out"/change-*.json "$out"/base-*.log "$out"/change-*.log "$out/pairs.txt"

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$base_ref" | tar -x -C "$tree"

# run SIDE ROOT I: one run of the workload at ROOT, its report into OUT_DIR/SIDE-I.log, its result into SIDE-I.json
run() {
    echo "== pair $3: $1" >&2
    (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds") \
        > "$out/$1-$3.log" 2>&1 || true
    tail -n 1 "$out/$1-$3.log" > "$out/$1-$3.json"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$tree" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run base "$tree" "$i"
    fi
done

python3 - "$out" "$pairs" "$root/BENCHMARK.json" <<'PY' | tee "$out/pairs.txt"
import json
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

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':<20} {'base q1':>11} {'base med':>11} {'base q3':>11} "
      f"{'change q1':>11} {'change med':>11} {'change q3':>11} {'ratio':>7} {'won':>7}")
for metric in spec["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [r["metrics"][name]["value"] if r and name in r.get("metrics", {}) else None for r in rs]
              for side, rs in runs.items()}
    both = [(b, c) for b, c in zip(values["base"], values["change"]) if b is not None and c is not None]
    if not both:
        continue
    base, change = quartiles([b for b, _ in both]), quartiles([c for _, c in both])
    won = sum((c > b) if higher else (c < b) for b, c in both)
    ratio = f"{change[1] / base[1]:.3f}" if base[1] else "-"
    print(f"{name:<20} {base[0]:>11.5g} {base[1]:>11.5g} {base[2]:>11.5g} "
          f"{change[0]:>11.5g} {change[1]:>11.5g} {change[2]:>11.5g} {ratio:>7} {won:>3}/{len(both):<3}")
for side, rs in runs.items():
    attempted = sum(r["attempted"] for r in rs if r)
    failed = sum(r["failed"] for r in rs if r)
    print(f"{side}: {sum(1 for r in rs if r)} runs, {attempted} operations attempted, {failed} failed")
if bad:
    print(f"not correct: {' '.join(bad)}")
    sys.exit(1)
PY
