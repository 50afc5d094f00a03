"""Nearest-class-mean baseline.

Prototypes are checked against the indicator-sum definition
sum_i z_i 1[y_i = n] / sum_i 1[y_i = n]; the 3-4-5 distance is frozen
scalar arithmetic.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from flowr import meta, runner
from flowr.baselines import (
    EMPTY_NOVELTY,
    PrototypeState,
    init_prototypes,
    ncm_predict,
    prototype_update,
    run_baseline_episode,
)
from flowr.checkpoint import Checkpoint
from flowr.config import ExperimentConfig
from flowr.crp import ClassCounts, CrpParams
from flowr.data import EmbeddingDataset, generate_synthetic_world
from flowr.encoder import ClassEmbeddings, Encoder
from flowr.gaussian import NaturalClassStats, NoiseModel, SharedPrior
from flowr.model import ModelState, ProtocolError, init_small_context, run_episode
from test_model import _INPUT_FAULTS, _OVERFLOW

# the read faults: NCM folds no Gaussian row, so no row of its overflows
_READ_FAULTS = [case for case in _INPUT_FAULTS if _OVERFLOW not in case[4]]


class TestPrototypeState:
    def test_means_match_indicator_oracle(self):
        """Running updates reproduce per-class arithmetic means."""
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(30, 4))
        labels = np.concatenate([[1, 2, 3], rng.integers(1, 4, size=27)])
        state = PrototypeState.empty(4)
        for z, y in zip(Z, labels):
            state = prototype_update(state, z, y)
        for c in (1, 2, 3):
            mask = labels == c
            np.testing.assert_allclose(state.means[c - 1], Z[mask].mean(axis=0), rtol=1e-12)
            assert state.counts[c - 1] == mask.sum()

    def test_new_class_from_point(self):
        """First point of a new class becomes its prototype with count 1."""
        state = prototype_update(PrototypeState.empty(2), [1.0, 1.0], 1)
        np.testing.assert_array_equal(state.means[0], [1.0, 1.0])
        np.testing.assert_array_equal(state.counts, [1])

    def test_label_range(self):
        state = PrototypeState.empty(2)
        with pytest.raises(ProtocolError, match="^label 2 skips ahead of the 0 known classes$"):
            prototype_update(state, [0.0, 0.0], 2)
        with pytest.raises(ProtocolError, match="^label 0 is not a positive class index$"):
            prototype_update(state, [0.0, 0.0], 0)
        # 1.5 used to be truncated to class 1, giving counts [2]
        state = prototype_update(state, [0.0, 0.0], 1)
        with pytest.raises(ProtocolError, match="^label 1.5 is not an integer class index$"):
            prototype_update(state, [0.0, 0.0], 1.5)

    def test_from_means(self):
        state = PrototypeState.from_means([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(state.counts, [1, 1])
        np.testing.assert_array_equal(state.means, [[1.0, 2.0], [3.0, 4.0]])

    def test_non_integer_count_rejected(self):
        """[1.9] used to be truncated to the count [1]."""
        with pytest.raises(ValueError, match=r"^count 0: 1\.9 is not an integer$"):
            PrototypeState(np.zeros((1, 2)), [1.9])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="at least one observation"):
            PrototypeState(sums=np.zeros((1, 2)), counts=np.zeros(1, dtype=np.int64))

    def test_update_is_pure(self):
        state = PrototypeState.from_means([[0.0, 0.0]])
        prototype_update(state, [2.0, 2.0], 1)
        np.testing.assert_array_equal(state.means[0], [0.0, 0.0])

    @pytest.mark.parametrize(
        "means, z, y",
        [
            # used to broadcast 9 into class 2: sums [[1, 2], [12, 13]]
            ([[1.0, 2.0], [3.0, 4.0]], [9.0], 2),
            ([[1.0, 2.0]], [1.0, 2.0, 3.0], 1),
            # an empty state used to take a short first point as a 1-d class
            (np.zeros((0, 2)), [5.0], 1),
        ],
    )
    def test_wrong_length_is_refused(self, means, z, y):
        state = PrototypeState.from_means(means)
        with pytest.raises(ValueError, match=f"^input must be one vector of length 2, got shape \\({len(z)},\\)$"):
            prototype_update(state, z, y)


class TestNcmPredict:
    def test_pythagorean_case(self):
        """Single mean at the origin, z=[3,4] -> class 1 at distance 5."""
        state = PrototypeState.from_means([[0.0, 0.0]])
        best, score = ncm_predict(state, [3.0, 4.0])
        assert best == 1
        assert score == 5.0

    def test_score_zero_at_mean(self):
        state = PrototypeState.from_means([[1.5, -2.0]])
        _, score = ncm_predict(state, [1.5, -2.0])
        assert score == 0.0

    def test_empty_state_sentinel(self):
        best, score = ncm_predict(PrototypeState.empty(2), [0.0, 0.0])
        assert best is None
        assert score == EMPTY_NOVELTY == np.finfo(np.float64).max

    @pytest.mark.parametrize("n_classes", [0, 2])
    @pytest.mark.parametrize(
        "z, message",
        [
            # a short query used to broadcast against every mean
            ([7.0], "one vector of length 2, got shape \\(1,\\)"),
            ([[1.0, 2.0]], "one vector of length 2, got shape \\(1, 2\\)"),
            ([np.nan, 0.0], "finite \\(after encoding\\)"),
        ],
    )
    def test_bad_query_is_refused(self, n_classes, z, message):
        state = PrototypeState.from_means(np.arange(2.0 * n_classes).reshape(n_classes, 2))
        with pytest.raises(ValueError, match=f"^input must be {message}$"):
            ncm_predict(state, z)

    def test_argmin_invariant_under_scaling(self):
        """Scaling every vector by c > 0 keeps the argmin and scales the
        distance by c."""
        rng = np.random.default_rng(3)
        means = rng.normal(size=(4, 3))
        z = rng.normal(size=3)
        base_best, base_score = ncm_predict(PrototypeState.from_means(means), z)
        for c in (0.1, 2.0, 35.0):
            best, score = ncm_predict(PrototypeState.from_means(c * means), c * z)
            assert best == base_best
            np.testing.assert_allclose(score, c * base_score, rtol=1e-12)


class TestRunBaselineEpisode:
    def _queries(self):
        return [([0.1, 0.0], 1), ([5.0, 5.0], 2), ([5.1, 5.0], 2), ([0.0, 0.2], 1)]

    def test_ncm_records(self):
        state = PrototypeState.from_means([[0.0, 0.0]])
        records, final = run_baseline_episode(state, self._queries())
        assert [r.predicted for r in records][0] == 1
        assert all(r.probs is None for r in records)
        assert records[1].novelty_score > records[0].novelty_score
        assert final.n_classes == 2

    def test_fold_matches_stepping_and_keeps_the_start(self):
        """The one-copy fold gives, bit for bit, the records and final state
        of stepping ncm_predict and prototype_update, which rebuild every
        mean per query; the start state, shared by evaluation's episodes,
        is left as it was."""
        rng = np.random.default_rng(3)
        start = PrototypeState(sums=rng.normal(size=(3, 4)) * [[1], [2], [5]], counts=[1, 2, 5])
        before = (start.sums.copy(), start.counts.copy())
        labels = [2, 4, 1, 4, 5, 3, 5, 6, 1, 2]
        queries = list(zip(rng.normal(size=(len(labels), 4)), labels))
        records, final = run_baseline_episode(start, queries)
        state = start
        for (z, y), r in zip(queries, records):
            best, score = ncm_predict(state, z)
            assert (r.predicted, r.known_argmax, r.novelty_score, r.n_at_prediction, r.true_label) == (
                best, best, score, state.n_classes, y
            )
            state = prototype_update(state, z, y)
        np.testing.assert_array_equal(final.sums, state.sums)
        np.testing.assert_array_equal(final.counts, state.counts)
        np.testing.assert_array_equal(start.sums, before[0])
        np.testing.assert_array_equal(start.counts, before[1])

    def test_encoder_applied(self):
        """Queries are embedded before matching: the doubling encoder maps
        [0.05, 0] onto the prototype at [0.1, 0]."""
        double = Encoder.affine(2.0 * np.eye(2), np.zeros(2))
        state = PrototypeState.from_means([[0.1, 0.0]])
        records, _ = run_baseline_episode(state, [([0.05, 0.0], 1)], encoder=double)
        np.testing.assert_allclose(records[0].novelty_score, 0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "support, dim, error, message",
        [
            ([([0.0], 1), ([0.0], 3)], 1, ProtocolError, "support point 1"),
            # used to give sums [[5, 5]]
            ([([0.0, 0.0], 1), ([5.0], 1)], 2, ValueError, "one vector of length 2, got shape \\(1,\\)"),
            # used to give a 1-d state
            ([([5.0], 1)], 2, ValueError, "one vector of length 2, got shape \\(1,\\)"),
        ],
    )
    def test_init_prototypes_error_position(self, support, dim, error, message):
        message = message if error is ProtocolError else f"^input must be {message}$"
        with pytest.raises(error, match=message):
            init_prototypes(support, dim)

    @pytest.mark.parametrize("position", ["support point", "query"])
    @pytest.mark.parametrize("make_state, inputs, labels, error, message", _READ_FAULTS)
    def test_first_fault_in_stream_order_is_reported(self, position, make_state, inputs, labels, error, message):
        """Both streams are read by the model's reader, so NCM raises the
        fault flowr raises for the same stream (the support arrives
        encoded, so an affine state's rows are encoded one by one first)."""
        state = make_state()
        message = f"^{position} {message}$" if error is ProtocolError else f"^{message}$"
        with np.errstate(over="ignore"), pytest.raises(error, match=message):
            if position == "query":
                run_baseline_episode(PrototypeState.empty(state.dim), zip(inputs, labels), encoder=state.encoder)
            else:
                encoded = inputs if state.encoder.kind == "identity" else [state.encoder(x) for x in inputs]
                init_prototypes(zip(encoded, labels), state.dim)

    @pytest.mark.parametrize(
        "queries, message",
        [
            # query 0 used to score as class 2 at distance 5.0 and fold [8, 9] into class 1
            ([([7.0], 1), ([3.0, 4.0], 2)], "one vector of length 2, got shape \\(1,\\)"),
            # a NaN query used to be scored and its NaN novelty recorded first
            ([([3.0, 4.0], 2), ([np.nan, 0.0], 1)], "finite \\(after encoding\\)"),
        ],
    )
    def test_bad_query_is_refused_before_scoring(self, queries, message):
        state = PrototypeState.from_means([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=f"^input must be {message}$"):
            run_baseline_episode(state, queries)


class TestEncoderWidth:
    """An affine encoder whose output length is not the class dimension is
    refused with one line wherever the model's reader meets it."""

    NARROW = Encoder.affine([[1.0]], [0.0])
    MESSAGE = "^encoder output dimension 1 != class dimension 2$"

    def test_baseline_episode_refuses_a_narrow_encoder(self):
        """It used to predict class 1 and leave sums [[2, 3]]."""
        state = PrototypeState.from_means([[1.0, 2.0]])
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_baseline_episode(state, [([1.0], 1)], encoder=self.NARROW)

    def test_model_state_refuses_a_narrow_encoder(self):
        prior = SharedPrior(NaturalClassStats(q=np.zeros(2), lam=1.0))
        with pytest.raises(ValueError, match=self.MESSAGE):
            ModelState(self.NARROW, np.zeros((0, 2)), [], [], CrpParams.from_b(a=0.5, b=1.0), prior, NoiseModel(0.5))


@pytest.mark.parametrize("method", ["ncm", "flowr"])
@pytest.mark.parametrize("position", ["support point", "query"])
@pytest.mark.parametrize(
    "bad, why",
    [
        (1.5, "label 1.5 is not an integer class index"),
        (0, "label 0 is not a positive class index"),
        (3, "label 3 skips ahead of the 1 known classes"),
        # a bad input, as a whole point: NCM used to broadcast, score or fold it
        (([0.0, 0.0], 1), "input must be one vector of length 1, got shape \\(2,\\)"),
        (([np.nan], 9), "input must be finite \\(after encoding\\)"),
        ((["a"], 1), "could not convert string to float: 'a'"),
        (([10**400], 1), "input must be finite: int too large to convert to float"),
    ],
)
def test_bad_label_is_refused_alike(method, position, bad, why):
    """flowr and the NCM baseline refuse the same bad label or input in a
    support set or a query stream with the same one-line error; NCM used
    to open class 1 again for 1.5."""
    point = bad if isinstance(bad, tuple) else ([0.0], bad)
    stream = [([0.0], 1), point, ([0.0], 1)]
    prior, params = SharedPrior(NaturalClassStats(q=[0.0], lam=1.0)), CrpParams.from_b(a=0.5, b=1.0)
    error, message = (ValueError, f"^{why}$") if isinstance(bad, tuple) else (ProtocolError, f"^{position} 1: {why}$")
    with pytest.raises(error, match=message):
        if method == "flowr" and position == "support point":
            init_small_context(prior, params, NoiseModel(0.5), Encoder.identity(), stream)
        elif method == "flowr":
            run_episode(init_small_context(prior, params, NoiseModel(0.5), Encoder.identity(), []), stream)
        elif position == "support point":
            init_prototypes(stream, 1)
        else:
            run_baseline_episode(PrototypeState.empty(1), stream)


@pytest.mark.parametrize("method", ["ncm", "flowr"])
def test_evaluate_without_support_classes(method):
    """An episode with no support classes starts from an empty state; for
    ncm its first query scores EMPTY_NOVELTY, and the metric suite stays
    finite (an infinite score used to abort with "scores must be finite")."""
    world = generate_synthetic_world(12, 4, 25.0, 0.5, 20, seed=10)
    params = meta.init_meta_params(4, np.random.default_rng(1))
    ckpt = Checkpoint(
        params=params, crp=CrpParams(a=0.5, rho=params.rho), noise=NoiseModel(0.5), setting="sc"
    )
    cfg = ExperimentConfig(
        setting="sc", eval_support_classes=0, eval_novel_classes=3,
        eval_queries_per_class=4, eval_episodes=4, operating_tpr=0.6, seed=3,
    )
    result = runner.evaluate(world, ckpt, cfg, method=method)
    assert result.metrics["n_support"] == 0
    assert result.metrics["n_queries"] == 48
    assert np.isfinite(result.metrics["tau"])
    assert 0.0 <= result.metrics["auroc"] <= 1.0
    assert np.isfinite(result.metrics["h_measure"])


def test_evaluate_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'svm'"):
        runner.evaluate(None, None, None, method="svm")


@pytest.mark.parametrize("n_episodes", [0, -1])
def test_evaluate_rejects_fewer_than_one_episode(n_episodes, monkeypatch):
    """The n_episodes keyword overrides the validated eval_episodes field,
    so it is checked on its own, before any episode is sampled (it used to
    fail later, blaming accuracy_suite)."""
    world = generate_synthetic_world(12, 4, 25.0, 0.5, 20, seed=10)
    params = meta.init_meta_params(4, np.random.default_rng(1))
    ckpt = Checkpoint(
        params=params, crp=CrpParams(a=0.5, rho=params.rho), noise=NoiseModel(0.5), setting="sc"
    )
    cfg = ExperimentConfig(setting="sc", eval_support_classes=2, eval_novel_classes=2, eval_episodes=2)

    def refuse(*args, **kwargs):
        raise AssertionError("an episode was sampled")

    monkeypatch.setattr(meta, "sample_sc_task", refuse)
    with pytest.raises(ValueError, match=f"^n_episodes must be at least 1, got {n_episodes}$"):
        runner.evaluate(world, ckpt, cfg, n_episodes=n_episodes)


def test_evaluate_ncm_large_context_starts_from_class_means():
    """In the large-context setting NCM starts every episode from the
    checkpoint's class embedding means, one prototype per known class."""
    world = generate_synthetic_world(12, 4, 25.0, 0.5, 20, seed=11)
    rng = np.random.default_rng(2)
    encoder = Encoder.affine(rng.normal(size=(3, 4)), rng.normal(size=3))
    means = rng.normal(size=(6, 3))
    params = meta.init_meta_params(3, rng, encoder=encoder)
    ckpt = Checkpoint(
        params=params, crp=CrpParams(a=0.5, rho=params.rho), noise=NoiseModel(0.5), setting="lc",
        embeddings=ClassEmbeddings(means=means, variances=np.ones(6)),
    )
    cfg = ExperimentConfig(
        setting="lc", eval_support_classes=0, eval_novel_classes=3,
        eval_queries_per_class=4, eval_episodes=3, operating_tpr=0.6, seed=5,
    )
    result = runner.evaluate(world, ckpt, cfg, method="ncm")
    assert result.metrics["n_queries"] == 3 * (6 + 3) * 4
    for i, episode in enumerate(result.episodes):
        sample_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i)))
        x = meta.sample_lc_task(world, cfg.eval_episode_config(), sample_rng, np.arange(1, 7)).query_x[0]
        first = episode.records[0]
        assert (first.predicted, first.novelty_score) == ncm_predict(
            PrototypeState.from_means(means), encoder(x)
        )
        assert first.n_at_prediction == 6


@pytest.mark.parametrize("method", ["flowr", "ncm"])
def test_evaluate_decides_large_context_class_stats_once(method):
    """evaluate builds the large-context start once for all episodes, from
    the trained class_q and exp(class_log_lambda) over the embeddings,
    where each episode used to rebuild it: flowr's through the shared
    builder model._large_context, NCM's prototypes at the means class_q /
    lam. A checkpoint with neither is refused."""
    world = generate_synthetic_world(12, 4, 25.0, 0.5, 20, seed=11)
    rng = np.random.default_rng(4)
    params = meta.init_meta_params(3, rng, encoder=Encoder.affine(rng.normal(size=(3, 4)), rng.normal(size=3)))
    emb = ClassEmbeddings(means=rng.normal(size=(6, 3)), variances=rng.uniform(0.5, 2.0, 6))
    trained = params.with_class_embeddings(emb)
    stale = ClassEmbeddings(means=rng.normal(size=(6, 3)), variances=np.ones(6))
    ckpt = Checkpoint(
        params=trained, crp=CrpParams(a=0.5, rho=params.rho), noise=NoiseModel(0.5), setting="lc", embeddings=stale
    )
    cfg = ExperimentConfig(
        setting="lc", eval_support_classes=0, eval_novel_classes=3,
        eval_queries_per_class=4, eval_episodes=3, operating_tpr=0.6, seed=5,
    )
    lam = np.exp(trained.class_log_lambda)
    if method == "flowr":
        builder, want = mock.patch.object(runner, "_large_context", wraps=runner._large_context), (trained.class_q, lam)
    else:
        builder, want = mock.patch.object(PrototypeState, "from_means", wraps=PrototypeState.from_means), (
            trained.class_q / lam[:, None],
        )
    with builder as spy:
        result = runner.evaluate(world, ckpt, cfg, method=method)
    assert spy.call_count == 1 and len(result.episodes) == 3
    for got, row in zip(spy.call_args.args, want):
        np.testing.assert_array_equal(got, row)
    for known in (None, [1, 2]):
        with pytest.raises(ValueError, match="^large-context evaluation needs class stats in the checkpoint$"):
            runner.evaluate(world, replace(ckpt, params=params, embeddings=None), cfg, method=method, known_classes=known)


def test_evaluate_ncm_reads_its_support_as_its_queries():
    """Small-context NCM reads its raw support through the reader of its
    queries, run_baseline_episode's: a query equal to a one-shot support
    point scores exactly 0.0 (the runner used to encode the support with
    a 2-D GEMM, which differs in the last bits), and
    the records are run_baseline_episode's from init_prototypes over the
    raw support."""
    rng = np.random.default_rng(9)
    world = EmbeddingDataset(np.repeat(np.arange(1, 13), 4), np.repeat(rng.normal(size=(12, 16)), 4, axis=0))
    encoder = Encoder.affine(rng.normal(size=(8, 16)), rng.normal(size=8))
    params = meta.init_meta_params(8, rng, encoder=encoder)
    ckpt = Checkpoint(
        params=params, crp=CrpParams(a=0.5, rho=params.rho), noise=NoiseModel(0.5), setting="sc"
    )
    cfg = ExperimentConfig(
        setting="sc", eval_support_classes=4, eval_novel_classes=2, shots_max=1,
        eval_queries_per_class=2, operating_tpr=0.6, seed=5,
    )
    result = runner.evaluate(world, ckpt, cfg, n_episodes=3, method="ncm")
    for i, got in enumerate(result.episodes):
        # each known class's two queries are its support point: the first
        # is scored against it, the second against the mean of two copies
        assert [r.novelty_score for r in got.records if r.true_label <= 4] == [0.0] * 8
        sample_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i)))
        episode = meta.sample_sc_task(world, cfg.eval_episode_config(), sample_rng)
        start = init_prototypes(zip(episode.support_x, episode.support_y), 8, encoder)
        want, _ = run_baseline_episode(start, zip(episode.query_x, meta.oracle_labels(episode)), encoder=encoder)
        assert [(r.predicted, r.novelty_score, r.n_at_prediction, r.true_label) for r in got.records] == [
            (r.predicted, r.novelty_score, r.n_at_prediction, r.true_label) for r in want
        ]
