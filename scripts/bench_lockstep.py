#!/usr/bin/env python3
"""Run one perfbench workload at BASE_REF and in the working tree step by
step, in turn on one core, and compare the step times of the two sides.

    scripts/bench_lockstep.py BASE_REF WORKLOAD [PAIRS] [SEED]

BASE_REF's files are exported (`git archive`) into a temporary directory,
removed on exit, as scripts/compare_pipeline.sh exports them. Each side
makes the workload's inputs from SEED with its own tree's
perfbench/workloads.py, in a process of its own as perfbench/run.py does,
into a temporary directory. The pairs run in ROUNDS rounds. In each round
every side starts one worker process that imports its own tree's
workloads.py and runs set-up as run.py runs it; both workers are pinned to
the same core, with one BLAS thread. The main process passes a token over pipes,
so the two sides run one `step()` each in turn: while one side runs, the
other waits on its pipe. A side checks each step after timing it, as
run.py does, and runs the workload's final check at the end of a round.
Both sides draw the same step seeds, so the two steps of a pair do the
same work.

A swing in the machine's speed that lasts seconds falls on both steps of a
pair, so the per-pair ratio change/base of the step wall times cancels it
where whole alternating runs (scripts/bench_pairs.sh) do not. What pairing
cannot cancel is handled so:
- The side that runs second in a pair runs the same work just after the
  first, so the two sides lead in turn, for BLOCK pairs each.
- At each switch one side would run twice in a row, and a step that
  follows its own side's step runs with warm caches (about 7 % faster on
  sc-metatrain), so the first pair after a switch is run but not counted.
- A process is faster or slower by up to about 1 % for its whole life
  (where its memory lands), so each round starts fresh workers, and the
  interval resamples rounds, then pairs within each round.

The report gives each side's median step time and median minor page faults
per step, the median of the per-pair ratios with a bootstrap 95 % interval
(RESAMPLES resamples, seeded), and the pairs the working tree won (its step
was faster). A ratio below 1 means the working tree is faster.

PAIRS (counted pairs over all rounds) defaults to 300 and SEED to 1.
Nothing is written under either tree's perfbench/ (the workers write no
bytecode). Exits 1 if a step or check of either side fails.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10
BLOCK = 10
RESAMPLES = 10_000


def worker(tree, workload, seed, inputs, cpu):
    """One side, pinned to cpu: set up, then run a step per `step` line on
    stdin and answer with one JSON line; `end` runs the final check and
    answers the same way."""
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(Path(tree) / "perfbench"))
    import workloads  # noqa: PLC0415  the side's own tree's

    out = sys.stdout
    sys.stdout = sys.stderr  # the protocol owns stdout
    workloads.speed.warm_up()
    w = None
    for _ in range(workloads.SETUP_REPS):
        w = None  # release the previous set-up first, as run.py does
        w = workloads.WORKLOADS[workload](seed, inputs)
        w.setup()
    for line in sys.stdin:
        if line.strip() == "end":
            attempted, failed = w.final_check()
            out.write(json.dumps({"attempted": attempted, "failed": failed}) + "\n")
            out.flush()
            return 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        step = w.step()
        seconds = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        failed = w.check(step)
        step = None  # free this step's outputs before the next step runs
        out.write(json.dumps({"s": seconds, "faults": faults, "failed": int(failed)}) + "\n")
        out.flush()
    return 1


class Side:
    """One tree: its inputs, and the worker process of the current round."""

    def __init__(self, name, tree, workload, seed, work):
        self.name, self.tree, self.workload, self.seed = name, tree, workload, seed
        self.inputs, self.steps, self.proc = Path(work) / f"{name}-inputs", [], None
        self.inputs.mkdir()
        self.env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        make = [sys.executable, str(Path(tree) / "perfbench" / "workloads.py"), "--workload", workload,
                "--seed", str(seed), "--inputs", str(self.inputs), "--make-inputs"]
        subprocess.run(make, env=self.env, check=True, stdout=sys.stderr)

    def start(self, cpu):
        self.steps.append([])
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(self.tree), self.workload, str(self.seed), str(self.inputs),
             str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
        )

    def ask(self, what):
        self.proc.stdin.write(what + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} side exited with {self.proc.wait()}")
        return json.loads(line)

    def stop(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


def run_round(sides, pairs, cpu):
    """pairs counted pairs from fresh workers; returns the failed checks."""
    for side in sides:
        side.start(cpu)
    failed, lead = 0, 0
    while len(sides[0].steps[-1]) < pairs:
        for counted in [False] + [True] * BLOCK:
            for side in sides[lead:] + sides[:lead]:
                reply = side.ask("step")
                failed += reply["failed"]
                if counted:
                    side.steps[-1].append(reply)
            if len(sides[0].steps[-1]) == pairs:
                break
        lead = 1 - lead
    failed += sum(side.ask("end")["failed"] for side in sides)
    for side in sides:
        side.stop()
    return failed


def bootstrap(rounds, seed=0):
    """The 95 % percentile interval of the median ratio: rounds resampled,
    then the pairs of each drawn round."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(r for drawn in rng.choices(rounds, k=len(rounds)) for r in rng.choices(drawn, k=len(drawn)))
        for _ in range(RESAMPLES)
    )
    return medians[int(0.025 * RESAMPLES)], medians[int(0.975 * RESAMPLES) - 1]


def main(argv):
    if len(argv) < 2 or len(argv) > 4:
        print(f"usage: {sys.argv[0]} BASE_REF WORKLOAD [PAIRS] [SEED]", file=sys.stderr)
        return 2
    ref, workload = argv[0], argv[1]
    pairs, seed = int(argv[2]) if len(argv) > 2 else 300, int(argv[3]) if len(argv) > 3 else 1
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if workload not in names:
        print(f"unknown workload {workload!r}; one of {', '.join(names)}", file=sys.stderr)
        return 2
    if pairs < ROUNDS:
        print(f"PAIRS must be at least {ROUNDS}, one per round", file=sys.stderr)
        return 2
    found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
                           capture_output=True, text=True)
    if found.returncode:
        print(f"{ref!r} names no commit", file=sys.stderr)
        return 2
    commit = found.stdout.strip()
    cpu = min(os.sched_getaffinity(0))
    work = tempfile.mkdtemp()
    sides, failed = [], 0
    try:
        base = Path(work) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        sides = [Side("base", base, workload, seed, work), Side("change", ROOT, workload, seed, work)]
        for i in range(ROUNDS):
            failed += run_round(sides, pairs // ROUNDS + (i < pairs % ROUNDS), cpu)
    finally:
        for side in sides:
            side.stop()
        shutil.rmtree(work, ignore_errors=True)

    base, change = sides
    rounds = [[c["s"] / b["s"] for b, c in zip(*steps)] for steps in zip(base.steps, change.steps)]
    ratios = [r for pairs_ in rounds for r in pairs_]
    lo, hi = bootstrap(rounds)
    print(f"workload {workload} seed {seed} base {commit[:12]} pairs {len(ratios)} in {ROUNDS} rounds, cpu {cpu}")
    for side in sides:
        steps = [s for round_ in side.steps for s in round_]
        print(f"{side.name:<7} step median {statistics.median(s['s'] for s in steps) * 1e3:9.3f} ms"
              f"   minor faults per step median {statistics.median(s['faults'] for s in steps):g}")
    print("round medians " + " ".join(f"{statistics.median(r):.4f}" for r in rounds))
    print(f"change/base median {statistics.median(ratios):.4f}  95% interval [{lo:.4f}, {hi:.4f}] "
          f"width {hi - lo:.4f}  won {sum(r < 1 for r in ratios)}/{len(ratios)}")
    if failed:
        print(f"failed checks: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5], int(sys.argv[6])))
    sys.exit(main(sys.argv[1:]))
