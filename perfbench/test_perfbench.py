"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import time

from checkout import use_checkout_source

use_checkout_source()

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from flowr import model  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SampleAll:
    """Stands in for the check sampler: every episode and query is sampled."""

    def choice(self, n, size, replace=False):
        return np.arange(n)


class TinyEval(workloads.ScEval):
    n_classes, points_per_class = 30, 25
    chunk = 2


@pytest.fixture
def tiny_eval(tmp_path):
    w = TinyEval(seed=3, inputs=tmp_path)
    w.make_inputs()
    w.setup()
    return w


def test_untouched_outputs_pass(tiny_eval):
    step = tiny_eval.step()
    assert tiny_eval.check(step) == 0


def test_perturbed_posterior_counts_as_failure(tiny_eval):
    step = tiny_eval.step()
    _, result = step.output
    record = result.episodes[0].records[5]
    # moved mass keeps it normalized, so only the independent recompute can catch it
    record.probs = record.probs.copy()
    record.probs[np.argmax(record.probs)] -= 1e-6
    record.probs[np.argmin(record.probs)] += 1e-6
    tiny_eval.check_rng = SampleAll()
    assert tiny_eval.check(step) == 1


def test_unnormalized_posterior_counts_as_failure(tiny_eval):
    step = tiny_eval.step()
    _, result = step.output
    record = result.episodes[1].records[0]
    record.probs = record.probs * 1.001
    assert tiny_eval.check(step) == 1


def test_failed_queries_flags_each_check(tiny_eval):
    ckpt = tiny_eval.ckpt
    p = ckpt.params
    ds = tiny_eval.ds
    support = [(ds.features_f64[i], 1) for i in ds.class_rows(1)[:3]]
    queries = [(ds.features_f64[ds.class_rows(c)[5]], y) for c, y in ((1, 1), (2, 2), (2, 2), (1, 1))]
    state = model.init_small_context(p.prior(), ckpt.crp, ckpt.noise, p.encoder, support)
    records, _ = model.run_episode(state, queries)
    X = np.array([x for x, _ in support + queries])
    labels = np.array([y for _, y in support + queries])
    Z = checks.embed(p.encoder, X)
    truth = labels[3:]

    def reference(i):
        return checks.reference_posterior(
            Z[3 + i], Z[: 3 + i], labels[: 3 + i], prior=p.prior(), noise=ckpt.noise, crp_params=ckpt.crp
        )

    assert checks.failed_queries(records, truth, range(4), reference) == set()
    records[2].probs = np.roll(records[2].probs, 1)
    records[3].true_label = 2
    assert checks.failed_queries(records, truth, range(4), reference) == {2, 3}


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    tracer.active = True
    outer()
    tracer.active = False
    inner()  # untraced calls leave no span
    stats = tracer.layer_stats()
    assert stats["inner"]["calls"] == 2
    assert stats["outer"]["calls"] == 1
    assert 0.04 <= stats["inner"]["self_s"] < 0.06
    assert 0.01 <= stats["outer"]["self_s"] < 0.02


def test_speed_clock_scales_work_by_kernel_speed():
    # a kernel that takes 2 ms reads as a core 2 ms / 0.5 ms = 4 times slower
    kernel = speed.Kernel(lambda: time.sleep(0.002), ref_s=0.5e-3)
    clock = speed.SpeedClock(interval_s=0.01)
    t0 = time.perf_counter()
    _, wall, ref = clock.measure(lambda: time.sleep(0.2), kernel)
    busy = time.perf_counter() - t0
    assert len(clock.kernel_s["<lambda>"]) >= 10  # the timer ran the kernel inside the call
    # the sleep's deadline runs on while the kernel runs, the work clock does not
    assert wall < busy - 0.02
    assert abs(busy - wall - clock.kernel_ns / 1e9) < 0.005
    assert wall / 4 * 0.8 < ref < wall / 4 * 1.05


def test_work_clock_stops_in_the_kernel():
    clock = speed.SpeedClock()
    t0 = clock.work_ns()
    clock.measure(lambda: None, speed.Kernel(lambda: time.sleep(0.01), ref_s=0.01))  # two kernel runs, no work
    assert clock.work_ns() - t0 < 5e6
    assert clock.kernel_ns >= 2e7
