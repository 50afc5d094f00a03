"""Run every workload over several seeds and print one summary.

    python3 perfbench/suite.py --seeds 1-10 [--traced 3] [--json summary.json]

For each workload: every end-to-end metric of BENCHMARK.json with its unit
(median, quartiles and their spread as a share of the median), the counts
of operations attempted and failed, the figures a run reports but the
benchmark does not gate (accuracy, H-measure, query latency percentiles
with their sample count, training loss), and with --traced N the
throughput of N traced runs, each made right after the untraced run of the
same seed, next to those untraced runs: the median gap of the pairs is the
tracing overhead. Each run is one call of run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from checkout import ROOT

RESULTS = ROOT / ".perfbench" / "results"


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((RESULTS / workload / f"seed{seed}-trace{trace}.json").read_text())
    return final, full


def summarize(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload, on the first seeds")
    ap.add_argument("--json", help="write the summary to this file")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    summary = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        finals, fulls, traced = [], [], []
        for i, seed in enumerate(seeds):
            final, full = run_once(workload, seed, args.seconds, 0)
            finals.append(final)
            fulls.append(full)
            print(f"# {workload} seed {seed}: " + json.dumps({k: v["value"] for k, v in final["metrics"].items()}),
                  file=sys.stderr, flush=True)
            # right after its untraced twin, so both see the machine in the same state
            if i < args.traced:
                traced.append(run_once(workload, seed, args.seconds, 1)[0])
        attempted = sum(f["attempted"] for f in finals)
        failed = sum(f["failed"] for f in finals)
        row = {
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"],
                            **summarize([f["metrics"][m["name"]]["value"] for f in finals])}
                for m in spec["end_to_end"]
            },
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "correct": all(f["correct"] for f in finals),
            "reported": {},
            "machine": fulls[-1]["machine"],
        }
        for key in fulls[0]["report"]:
            values = [f["report"].get(key) for f in fulls]
            if all(isinstance(v, (int, float)) or v is None for v in values):
                row["reported"][key] = summarize(values)
        if traced:
            pairs = [(t["metrics"]["traced.queries_per_ref_s"]["value"], f["metrics"]["queries_per_ref_s"]["value"])
                     for t, f in zip(traced, finals)]
            row["tracing"] = {
                "traced_queries_per_ref_s": statistics.median(t for t, _ in pairs),
                "untraced_queries_per_ref_s": statistics.median(u for _, u in pairs),
                "overhead": statistics.median(1.0 - t / u for t, u in pairs),
                "per_layer": {
                    name: statistics.median(t["metrics"][name]["value"] for t in traced)
                    for name in traced[0]["metrics"]
                },
            }
        summary["workloads"][workload] = row
        print_row(workload, row)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


def print_row(workload, row):
    print(f"== {workload}  (attempted {row['attempted']}, failed {row['failed']}, "
          f"error_rate {row['error_rate']:.3g}, correct {row['correct']})")
    for name, s in row["end_to_end"].items():
        print(f"  {name:<16} {s['median']:.6g} {s['unit']:<5} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {s['spread']:.3f} (bound {s['bound']}, n {s['n']})")
    for name, s in row["reported"].items():
        if s is not None:
            print(f"  {name:<22} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    if "tracing" in row:
        t = row["tracing"]
        print("  tracing: " + ", ".join(f"{k} {v:.6g}" for k, v in t.items() if k != "per_layer"))
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
