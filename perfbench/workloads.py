"""The benchmark's workloads: inputs, set-up, timed phase and output checks.

Every workload makes its inputs from the seed with flowr's own writers
(``data.write_dataset``, ``checkpoint.save_checkpoint``), so set-up times
the real read path. Run as a script, this module either writes one
workload's inputs (``--make-inputs``) or runs the workload in the current
process, which must be fresh so that its peak RSS is the workload's own,
and writes the result as JSON; ``run.py`` starts it for both.

The worlds are synthetic: class means from N(0, PRIOR_VARIANCE I), points
from N(mean, NOISE_VARIANCE I). Checkpoints carry an affine encoder that
starts as the identity and a prior that matches the world, so no training
is needed before evaluation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

from checkout import describe_machine, use_checkout_source

use_checkout_source()

import numpy as np  # noqa: E402
from flowr import checkpoint, config, crp, data, encoder, gaussian, meta, metrics, model, runner  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

DIM = 64
# Prior variance 0.25 against noise 0.5 keeps sc-paper accuracy near 0.96,
# below saturation, so a change in the posteriors shows in the quality.
PRIOR_VARIANCE = 0.25
NOISE_VARIANCE = 0.5
CRP_A, CRP_B = 0.5, 1.0
# set-up is repeated and its median reported, so one slow read does not decide it
SETUP_REPS = 7


def write_world(path, n_classes, points_per_class, seed):
    ds, means = data.generate_synthetic_world(
        n_classes, DIM, PRIOR_VARIANCE, NOISE_VARIANCE, points_per_class, seed, return_means=True
    )
    data.write_dataset(str(path), ds)
    return means


def world_checkpoint(setting, embeddings=None):
    params = meta.MetaParams(
        encoder=encoder.Encoder.identity_affine(DIM),
        q0=np.zeros(DIM),
        log_lambda0=float(np.log(1.0 / PRIOR_VARIANCE)),
        rho=crp.inverse_softplus(CRP_B + CRP_A),
    )
    return checkpoint.Checkpoint(
        params=params,
        crp=crp.CrpParams(a=CRP_A, rho=params.rho),
        noise=gaussian.NoiseModel(NOISE_VARIANCE),
        setting=setting,
        embeddings=embeddings,
    )


def percentile_with_tail(values, min_beyond=10):
    """(q, value): the highest of p99.9/p99/p95/p90/p50 with at least
    min_beyond samples above it."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - q) / 100.0 >= min_beyond:
            return q, float(np.percentile(values, q))
    return None, None


@dataclass
class Step:
    """What one timed step completed; ops is the unit counted in attempted."""

    queries: int
    episodes: int
    ops: int
    output: object


class Workload:
    name: str
    why: str
    n_classes: int
    points_per_class: int

    def __init__(self, seed, inputs: Path, clock=None):
        self.seed = seed
        self.inputs = Path(inputs)
        self.clock = clock or speed.SpeedClock()
        self.steps = 0
        self.check_rng = np.random.default_rng([seed, 7])

    @property
    def world_path(self):
        return str(self.inputs / "world.fse1")

    @property
    def model_path(self):
        return str(self.inputs / "model.flck")

    def step_seed(self):
        self.steps += 1
        return self.seed * 100_000 + self.steps

    def final_check(self):
        """(attempted, failed) of checks made once after the timed phase."""
        return 0, 0


class ScEval(Workload):
    name = "sc-eval"
    why = (
        "flowr eval at the sc-paper shape: at most 15 classes, so per-call overhead dominates; "
        "the only workload that reads a large file and writes reports"
    )
    n_classes, points_per_class = 2000, 100  # about 52 MB of FSE1
    cfg = config.preset("sc-paper")
    chunk = 25  # episodes per runner.evaluate call
    ops_per_step = chunk * (cfg.eval_support_classes + cfg.eval_novel_classes) * cfg.eval_queries_per_class

    def __init__(self, seed, inputs, clock=None):
        super().__init__(seed, inputs, clock)
        self.nll = checks.Mean()
        self.accuracy, self.h = [], []

    def make_inputs(self):
        write_world(self.world_path, self.n_classes, self.points_per_class, self.seed)
        checkpoint.save_checkpoint(self.model_path, world_checkpoint("sc"))

    def setup(self):
        self.ds = data.read_dataset(self.world_path)
        self.ckpt = checkpoint.load_checkpoint(self.model_path)
        self.ds.features_f64
        self.out = self.inputs / "out"
        self.out.mkdir(exist_ok=True)

    def step(self):
        seed = self.step_seed()
        result = runner.evaluate(self.ds, self.ckpt, self.cfg, n_episodes=self.chunk, seed=seed, workers=1)
        runner.write_records(str(self.out / "flowr_records.txt"), result.episodes)
        runner.write_roc_csv(str(self.out / "flowr_roc.csv"), result.roc)
        runner.write_metrics(str(self.out / "flowr_metrics.txt"), result.metrics)
        n = sum(len(e) for e in result.episodes)
        return Step(queries=n, episodes=len(result.episodes), ops=n, output=(seed, result))

    def check(self, step):
        seed, result = step.output
        p, ckpt = self.ckpt.params, self.ckpt
        checked = set(self.check_rng.choice(len(result.episodes), 2, replace=False).tolist())
        failed = 0
        for e, recs in enumerate(result.episodes):
            # the episode runner.evaluate drew, from its documented seed split
            rng = np.random.default_rng(np.random.SeedSequence((seed, e)))
            episode = meta.sample_sc_task(self.ds, self.cfg.eval_episode_config(), rng)
            truth = runner.oracle_labels(episode)
            if len(truth) != len(recs):
                failed += max(len(truth), len(recs))
                continue
            Z = checks.embed(p.encoder, np.vstack([episode.support_x, episode.query_x]))
            labels = np.concatenate([episode.support_y, truth])
            ns = len(episode.support_y)

            def reference(i):
                return checks.reference_posterior(
                    Z[ns + i], Z[: ns + i], labels[: ns + i],
                    prior=p.prior(), noise=ckpt.noise, crp_params=ckpt.crp,
                )

            sampled = self.check_rng.choice(len(truth), 4, replace=False) if e in checked else ()
            failed += len(checks.failed_queries(recs.records, truth, sampled, reference))
            self.nll.add(checks.query_nll(recs.records))
        self.accuracy.append((result.metrics["accuracy"], result.metrics["n_queries"]))
        self.h.append(result.metrics["h_measure"])
        return failed

    def query_nll(self):
        return self.nll.value()

    def report(self):
        acc = np.array(self.accuracy)
        return {
            "accuracy": float(np.average(acc[:, 0], weights=acc[:, 1])),
            "h_measure": float(np.mean(self.h)),
        }


class LcStream(Workload):
    name = "lc-stream"
    why = (
        "online large-context use, predict then update per query over 1,000 persistent classes: "
        "O(N) per-query work dominates; the only per-query latency distribution"
    )
    n_classes, points_per_class = 1200, 20  # classes 1..n_known persist, the rest are novel
    n_known = 1000
    known_queries = 2  # per persistent class; novel classes keep the preset's 10
    # the default of 0 leaves every persistent class without prior mass
    init_count = 1
    cfg = config.preset("lc-paper")
    ops_per_step = n_known * known_queries + cfg.eval_novel_classes * cfg.eval_queries_per_class

    def __init__(self, seed, inputs, clock=None):
        super().__init__(seed, inputs, clock)
        self.latency_ns = array("q")
        self.nll = checks.Mean()
        # per episode, the record fields the quality metrics read, as arrays:
        # memory that grows with the episodes run must stay small, or a
        # faster build would show a larger peak RSS
        self.outcomes = []
        self.known_stats = None

    def make_inputs(self):
        means = write_world(self.world_path, self.n_classes, self.points_per_class, self.seed)
        # each persistent class as if estimated from all of its points
        emb = encoder.ClassEmbeddings(
            means=means[: self.n_known],
            variances=np.full(self.n_known, NOISE_VARIANCE / self.points_per_class),
        )
        checkpoint.save_checkpoint(self.model_path, world_checkpoint("lc", emb))

    def setup(self):
        self.ds = data.read_dataset(self.world_path)
        self.ckpt = checkpoint.load_checkpoint(self.model_path)
        self.ds.features_f64
        self.known = np.arange(1, self.n_known + 1)
        self.rng = np.random.default_rng(self.seed)

    def _stream(self, episode):
        """Indices of the sampled stream kept: every novel query and the first
        known_queries of each persistent class."""
        seen = np.zeros(self.n_known + 1, dtype=np.int64)
        keep = []
        for i, y in enumerate(episode.query_y):
            if y > self.n_known:
                keep.append(i)
            elif seen[y] < self.known_queries:
                seen[y] += 1
                keep.append(i)
        return np.array(keep)

    def step(self):
        episode = meta.sample_lc_task(self.ds, self.cfg.eval_episode_config(), self.rng, self.known)
        keep = self._stream(episode)
        truth = runner.oracle_labels(episode)[keep]
        X = episode.query_x[keep]
        p = self.ckpt.params
        state = model.init_large_context(
            self.ckpt.embeddings, p.prior(), self.ckpt.crp, self.ckpt.noise, p.encoder,
            init_count=self.init_count,
        )
        records, latency = [], []
        for x, y in zip(X, truth):
            t0 = self.clock.work_ns()
            record = model.predict(state, x)
            state = model.update(state, x, y)
            latency.append(self.clock.work_ns() - t0)
            record.true_label = int(y)
            records.append(record)
        self.latency_ns.extend(latency)
        return Step(queries=len(truth), episodes=1, ops=len(truth), output=(X, truth, records))

    def check(self, step):
        X, truth, records = step.output
        p, ckpt = self.ckpt.params, self.ckpt
        if self.known_stats is None:
            emb = ckpt.embeddings
            self.known_stats = [
                gaussian.NaturalClassStats(q=m / v, lam=1.0 / v) for m, v in zip(emb.means, emb.variances)
            ]
        Z = checks.embed(p.encoder, X)

        def reference(i):
            return checks.reference_posterior(
                Z[i], Z[:i], truth[:i], prior=p.prior(), noise=ckpt.noise, crp_params=ckpt.crp,
                known=self.known_stats, init_count=self.init_count,
            )

        sampled = self.check_rng.choice(len(truth), 6, replace=False)
        failed = len(checks.failed_queries(records, truth, sampled, reference))
        self.nll.add(checks.query_nll(records))
        self.outcomes.append(np.array(
            [(r.predicted, r.known_argmax, r.novelty_score, r.n_at_prediction, r.true_label) for r in records]
        ))
        return failed

    def query_nll(self):
        return self.nll.value()

    def report(self):
        episodes = [
            metrics.EpisodeRecords(
                [model.PredictionRecord(None, int(p), int(k), s, int(n), int(t)) for p, k, s, n, t in rows],
                n_initial=self.n_known,
            )
            for rows in self.outcomes
        ]
        scores = metrics.scores_from_records(episodes)
        tau, _ = metrics.threshold_at_tpr(scores, self.cfg.operating_tpr)
        suite = metrics.accuracy_suite(episodes, tau)
        lat_us = np.array(self.latency_ns) / 1e3
        q, tail = percentile_with_tail(lat_us)
        return {
            "accuracy": suite["accuracy"],
            "h_measure": suite["h_measure"],
            "query_latency_p50_us": float(np.percentile(lat_us, 50)),
            "query_latency_p99_us": float(np.percentile(lat_us, 99)),
            "query_latency_samples": len(lat_us),
            "query_latency_tail": {"percentile": q, "us": tail},
        }


class ScMetaTrain(Workload):
    name = "sc-metatrain"
    why = (
        "meta-training throughput at the sc-paper shape with the frozen-state loss: "
        "all time in meta sampling and losses, bypassing predict and update"
    )
    n_classes, points_per_class = 1000, 40
    cfg = config.preset("sc-paper")
    sequential = False
    chunk = 5  # episodes per run_meta_training call
    ops_per_step = chunk
    quality_episodes = 100
    # The check makes 13 loss evaluations; of the sequential loss on a full
    # training episode they take about 10 s on a 2-core Xeon, so the check
    # uses a smaller episode of the same kind.
    grad_check_episode = meta.EpisodeConfig(n_support_classes=10, n_novel_classes=5, queries_per_class=5)
    queries_per_episode = (cfg.train_support_classes + cfg.train_novel_classes) * cfg.train_queries_per_class

    def __init__(self, seed, inputs, clock=None):
        super().__init__(seed, inputs, clock)
        self.trace = []
        self.grad_error = None

    def make_inputs(self):
        write_world(self.world_path, self.n_classes, self.points_per_class, self.seed)

    def setup(self):
        self.ds = data.read_dataset(self.world_path)
        self.ds.features_f64
        self.params = meta.init_meta_params(
            self.ds.dim, np.random.default_rng(self.seed),
            encoder=encoder.Encoder.identity_affine(self.ds.dim), a=self.cfg.a,
        )

    def _loss_kwargs(self):
        return dict(a=self.cfg.a, noise_variance=self.cfg.noise_variance, sequential=self.sequential)

    def step(self):
        self.params, trace = meta.run_meta_training(
            self.ds,
            cfg=self.cfg.train_episode_config(),
            setting="sc",
            n_episodes=self.chunk,
            batch_size=self.cfg.meta_batch_size,
            step_size=self.cfg.meta_step_size,
            lambda_w=self.cfg.lambda_w,
            seed=self.step_seed(),
            init=self.params,
            **self._loss_kwargs(),
        )
        return Step(
            queries=self.chunk * self.queries_per_episode, episodes=self.chunk, ops=self.chunk, output=trace
        )

    def check(self, step):
        self.trace.extend(step.output)
        return sum(not np.isfinite(row["loss"]) for row in step.output)

    def final_check(self):
        """Finite differences on one seeded episode at the trained parameters,
        at a seeded subset of coordinates that covers every parameter block."""
        rng = np.random.default_rng([self.seed, 11])
        episode = meta.sample_sc_task(self.ds, self.grad_check_episode, rng)
        full = meta.params_to_vector(self.params)
        d = self.ds.dim
        coords = np.concatenate([
            rng.choice(d * d, 2, replace=False),  # encoder weight
            d * d + rng.choice(d, 1),  # encoder bias
            d * d + d + rng.choice(d, 1),  # q0
            [len(full) - 2, len(full) - 1],  # log lambda0, rho
        ])
        loss_fn, grad_fn = meta.meta_loss_functions(
            self.params, episode, self.cfg.lambda_w, "sc",
            cond_seed=int(rng.integers(2**31)), **self._loss_kwargs(),
        )

        def at(v):
            x = full.copy()
            x[coords] = v
            return x

        self.grad_error = meta.grad_check(
            lambda v: loss_fn(at(v)), lambda v: grad_fn(at(v))[coords], full[coords]
        )
        return 1, int(not self.grad_error <= checks.GRAD_TOL)

    def query_nll(self):
        # the first episodes only: over a whole run the mean would fall as
        # a faster build trains further, tying quality to speed
        return float(np.mean([row["nll"] for row in self.trace[: self.quality_episodes]]))

    def report(self):
        losses = [row["loss"] for row in self.trace]
        tail = max(len(losses) // 10, min(len(losses), 10))
        return {"train_loss": float(np.mean(losses[-tail:])), "grad_check_error": self.grad_error}


class ScMetaTrainSeq(ScMetaTrain):
    name = "sc-metatrain-seq"
    why = (
        "as sc-metatrain with the teacher-forced sequential loss: "
        "the only user of the per-step recursion in losses"
    )
    sequential = True
    chunk = 1
    ops_per_step = chunk
    quality_episodes = 15


WORKLOADS = {w.name: w for w in (ScEval, LcStream, ScMetaTrain, ScMetaTrainSeq)}


def run(name, seed, seconds, trace, inputs):
    """Set up, run the timed phase, check; returns the result dict.

    Set-up and every timed step run under a SpeedClock, so each is measured
    in wall and in reference seconds; the gated throughputs and setup_s are
    in reference seconds, the wall figures go to the report.
    """
    cls = WORKLOADS[name]
    clock = speed.SpeedClock()
    tracer = None
    if trace:
        tracer = tracing.Tracer(clock=clock.work_ns)
        tracing.install(tracer)
        tracer.active = True

    speed.warm_up()
    setup_ref, setup_wall = [], []
    w = None
    for _ in range(SETUP_REPS):
        w = None  # release the previous set-up before timing the next
        w = cls(seed, inputs, clock)
        _, wall, ref = clock.measure(w.setup, speed.SETUP)
        setup_wall.append(wall)
        setup_ref.append(ref)

    attempted = failed = queries = episodes = 0
    timed = timed_ref = checking = 0.0
    started = time.perf_counter()
    # timed work and its calibration kernels together fill --seconds
    while time.perf_counter() - started - checking < seconds:
        if tracer:
            tracer.active = True
        try:
            step, wall, ref = clock.measure(w.step)
        except Exception:
            traceback.print_exc()
            attempted += w.ops_per_step
            failed += w.ops_per_step
            break
        timed += wall
        timed_ref += ref
        if tracer:
            tracer.active = False
        queries += step.queries
        episodes += step.episodes
        attempted += step.ops
        t0 = time.perf_counter()
        try:
            failed += w.check(step)
        except Exception:
            traceback.print_exc()
            failed += step.ops
        checking += time.perf_counter() - t0
        step = None  # free this step's outputs before the next step runs
    if tracer:
        tracer.active = False
    # the final check and the report allocate for the benchmark, not the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    t0 = time.perf_counter()
    try:
        extra_attempted, extra_failed = w.final_check()
    except Exception:
        traceback.print_exc()
        extra_attempted = extra_failed = 1
    checking += time.perf_counter() - t0
    attempted += extra_attempted
    failed += extra_failed
    rate = lambda n, s: n / s if s > 0 else 0.0
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed,
        "timed_ref_s": timed_ref,
        "queries": queries,
        "episodes": episodes,
        "report": {
            "error_rate": failed / attempted,
            "queries_per_s": rate(queries, timed),
            "episodes_per_s": rate(episodes, timed),
            "setup_wall_s": statistics.median(setup_wall),
            "setup_s_reps": setup_ref,
            **{f"{kernel}_s_median": statistics.median(d) for kernel, d in clock.kernel_s.items()},
            "check_s": checking,
            **(w.report() if queries else {}),
        },
    }
    if tracer:
        result["metrics"] = tracing.per_layer(tracer, queries=queries)
        result["metrics"]["traced.queries_per_ref_s"] = rate(queries, timed_ref)
        result["metrics"]["traced.episodes_per_ref_s"] = rate(episodes, timed_ref)
        result["tracer"] = tracer
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setup_ref),
            "queries_per_ref_s": rate(queries, timed_ref),
            "episodes_per_ref_s": rate(episodes, timed_ref),
            "peak_rss_mb": peak_rss_mb,
            "query_nll": w.query_nll() if queries else float("nan"),
        }
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description="Make one workload's inputs, or run it in this process.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True, help="directory holding the generated inputs")
    ap.add_argument("--result", help="JSON file to write the result to")
    ap.add_argument("--spans", help="with --trace 1, .npz file to write every span to")
    ap.add_argument("--make-inputs", action="store_true", help="only write the inputs for the seed")
    args = ap.parse_args(argv)

    if args.make_inputs:
        WORKLOADS[args.workload](args.seed, args.inputs).make_inputs()
        return 0
    if not args.result:
        ap.error("--result is required to run the workload")
    # One core for the whole run, so the calibration kernel and the work it
    # scales always share a core (the cores of a shared host change speed
    # independently of each other).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    result = run(args.workload, args.seed, args.seconds, args.trace, args.inputs)
    result["machine"] = {**describe_machine(), "nproc": len(cpus), "pinned_to_cpu": min(cpus)}
    tracer = result.pop("tracer", None)
    if tracer is not None and args.spans:
        tracer.save(args.spans)
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
