"""Nearest-class-mean baseline.

Prototypes are checked against the indicator-sum definition
sum_i z_i 1[y_i = n] / sum_i 1[y_i = n]; the 3-4-5 distance is frozen
scalar arithmetic.
"""

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
from flowr.crp import CrpParams
from flowr.data import generate_synthetic_world
from flowr.encoder import ClassEmbeddings, Encoder
from flowr.gaussian import NoiseModel
from flowr.model import ProtocolError


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
        with pytest.raises(ProtocolError, match="outside"):
            prototype_update(state, [0.0, 0.0], 2)
        with pytest.raises(ProtocolError, match="outside"):
            prototype_update(state, [0.0, 0.0], 0)

    def test_from_means(self):
        state = PrototypeState.from_means([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(state.counts, [1, 1])
        np.testing.assert_array_equal(state.means, [[1.0, 2.0], [3.0, 4.0]])
        weighted = PrototypeState.from_means([[1.0, 2.0]], counts=[4])
        np.testing.assert_array_equal(weighted.means, [[1.0, 2.0]])
        assert weighted.counts[0] == 4

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="at least one observation"):
            PrototypeState(sums=np.zeros((1, 2)), counts=np.zeros(1, dtype=np.int64))

    def test_update_is_pure(self):
        state = PrototypeState.from_means([[0.0, 0.0]])
        prototype_update(state, [2.0, 2.0], 1)
        np.testing.assert_array_equal(state.means[0], [0.0, 0.0])


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

    def test_encoder_applied(self):
        """Queries are embedded before matching: the doubling encoder maps
        [0.05, 0] onto the prototype at [0.1, 0]."""
        double = Encoder.affine(2.0 * np.eye(2), np.zeros(2))
        state = PrototypeState.from_means([[0.1, 0.0]])
        records, _ = run_baseline_episode(state, [([0.05, 0.0], 1)], encoder=double)
        np.testing.assert_allclose(records[0].novelty_score, 0.0, atol=1e-15)

    def test_init_prototypes_error_position(self):
        with pytest.raises(ProtocolError, match="support point 1"):
            init_prototypes([([0.0], 1), ([0.0], 3)], 1)


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
        setting="sc", d=4, eval_support_classes=0, eval_novel_classes=3,
        eval_queries_per_class=4, eval_episodes=4, operating_tpr=0.6, seed=3,
    )
    result = runner.evaluate(world, ckpt, cfg, method=method)
    assert result.metrics["n_support"] == 0
    assert result.metrics["n_queries"] == 48
    assert np.isfinite(result.tau)
    assert 0.0 <= result.metrics["auroc"] <= 1.0
    assert np.isfinite(result.metrics["h_measure"])


def test_evaluate_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'svm'"):
        runner.evaluate(None, None, None, method="svm")


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
        setting="lc", d=3, eval_support_classes=0, eval_novel_classes=3,
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
