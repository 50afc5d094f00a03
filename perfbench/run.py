"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload sc-eval --seed 1 --seconds 10 --trace 0

Makes the workload's inputs from the seed under ``.perfbench/`` in the
checkout, runs the workload in a fresh Python process so that its peak
RSS is its own, checks its outputs, and prints a readable report followed,
as the last line, by one JSON object with the keys correct, attempted,
failed and metrics. With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json, measured untraced; with ``--trace 1`` they are
its per-layer metrics, from a run with every layer call traced.

The full result, with the machine description and the figures that are
not gated (accuracy, latency percentiles, ...), is also written to
``.perfbench/results/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

from checkout import ROOT, MissingSourceError, check_source

HERE = ROOT / "perfbench"
STATE = ROOT / ".perfbench"
# The whole run, build of inputs included, must end within 180 s.
DEADLINE_S = 175


def child_env():
    # the workload runs pinned to one core, so BLAS gets one thread
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def print_report(result, final):
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, m in final["metrics"].items():
        note = " (computed from shapes)" if name.endswith("bytes_computed") else ""
        print(f"  {name} = {m['value']!r} {m['unit']}{note}")
    for name, value in result["report"].items():
        print(f"  {name} = {value!r}")
    print(f"  attempted = {final['attempted']}  failed = {final['failed']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    try:
        check_source()
    except MissingSourceError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = STATE / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    result_file = work / "result.json"
    base = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--inputs", str(work)]
    run = base + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_file)]
    if args.trace:
        run += ["--spans", str(results / "spans.npz")]
    try:
        work.mkdir(parents=True)
        # Inputs are made in a process of their own: a child inherits its
        # parent's peak RSS, so the workload's parent must stay small.
        for cmd in (base + ["--make-inputs"], run):
            timeout = DEADLINE_S - (time.monotonic() - started)
            try:
                proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                print(f"perfbench: not finished within {DEADLINE_S} s", file=sys.stderr)
                return 3
            if proc.returncode != 0:
                what = "input generation" if cmd[-1] == "--make-inputs" else "workload"
                print(f"perfbench: {what} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode if proc.returncode > 0 else 1
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: workload produced no {', '.join(missing)}", file=sys.stderr)
        return 4
    values = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    final = {
        "correct": result["failed"] == 0 and all(math.isfinite(v) for v in values.values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    result["final"] = final
    (results / f"seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print_report(result, final)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
