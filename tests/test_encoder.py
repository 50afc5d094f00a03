"""Affine encoders, per-class Gaussians, and supervised pre-training.

The frozen gda posterior was recomputed with scipy.stats.norm; the
regulariser constant 0.8 is beta * sum_n(d / variance_n) for beta=0.1,
d=2 and two classes at variance 0.5, taken directly from the formula.
"""

from unittest import mock

import numpy as np
import pytest
from scipy.stats import norm

from flowr import losses
from flowr.crp import CrpParams
from flowr.encoder import ClassEmbeddings, Encoder, gda_predict, pretrain
from flowr.gaussian import NaturalClassStats, NoiseModel, SharedPrior
from flowr.model import init_small_context, predict, run_episode


class TestEncoder:
    def test_identity_passthrough(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(Encoder.identity()(x), x)

    def test_affine_single_and_batch(self):
        enc = Encoder.affine([[1.0, 2.0]], [0.5])
        np.testing.assert_allclose(enc([1.0, 1.0]), [3.5])
        np.testing.assert_allclose(enc([[1.0, 1.0], [0.0, 1.0]]), [[3.5], [2.5]])

    def test_affine_map_is_weight_times_each_row_whatever_the_batch(self):
        """Encoder.__call__ is losses.encode, which gives weight @ x + bias
        bit for bit for every row of a block of any size (a 2-D GEMM, which
        it used to run, differs in the last bits for most rows)."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            d_out, d_in, m = rng.integers(1, 20, size=3)
            W, b, X = rng.normal(size=(d_out, d_in)), rng.normal(size=d_out), rng.normal(size=(m, d_in))
            enc = Encoder.affine(W, b)
            want = np.array([W @ x + b for x in X])
            np.testing.assert_array_equal(enc(X), want)
            np.testing.assert_array_equal(losses.encode(W, b, X), want)
            np.testing.assert_array_equal(enc(X[0]), want[0])

    def test_model_reads_encode_through_the_encoder(self):
        """Every model call encodes its inputs with one Encoder.__call__ on
        the block, where the benchmark's trace counts encoded rows."""
        rng = np.random.default_rng(8)
        enc = Encoder.affine(rng.normal(size=(3, 4)), rng.normal(size=3))
        prior = SharedPrior(NaturalClassStats(q=np.zeros(3), lam=1.0))
        support = [(rng.normal(size=4), y) for y in (1, 2, 2)]
        with mock.patch.object(Encoder, "__call__", autospec=True, side_effect=Encoder.__call__) as spy:
            state = init_small_context(prior, CrpParams(a=0.5, rho=1.0), NoiseModel(0.5), enc, support)
            run_episode(state, support)
            predict(state, support[0][0])
        assert [np.shape(call.args[1]) for call in spy.call_args_list] == [(3, 4), (3, 4), (1, 4)]

    def test_validation(self):
        with pytest.raises(ValueError, match="bad affine shapes"):
            Encoder.affine(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            Encoder.affine([[np.nan]], [0.0])
        with pytest.raises(ValueError, match="no parameters"):
            Encoder(kind="identity", weight=np.eye(2), bias=np.zeros(2))
        with pytest.raises(ValueError, match="unknown encoder kind"):
            Encoder(kind="mlp")


class TestGdaPredict:
    def test_single_class(self):
        emb = ClassEmbeddings(means=[[0.0, 0.0]], variances=[1.0])
        np.testing.assert_array_equal(gda_predict(emb, [5.0, 5.0]), [1.0])

    def test_two_class_scalar_case(self):
        """Classes N(0,1) and N(2,0.25) at z=1: posterior proportional to
        exp(-0.5)/1 versus exp(-2)/0.5 (scipy oracle value frozen)."""
        emb = ClassEmbeddings(means=[[0.0], [2.0]], variances=[1.0, 0.25])
        p = gda_predict(emb, [1.0])
        f = np.array([norm.pdf(1.0, 0.0, 1.0), norm.pdf(1.0, 2.0, 0.5)])
        np.testing.assert_allclose(p, f / f.sum(), rtol=1e-12)
        np.testing.assert_allclose(p, [0.69143845, 0.30856155], rtol=1e-7)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        emb = ClassEmbeddings(means=rng.normal(size=(5, 3)), variances=rng.uniform(0.2, 2.0, 5))
        P = gda_predict(emb, rng.normal(size=(40, 3)))
        np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def pretrain_loss(encoder, emb, X, labels, beta):
    """Mean classification NLL plus beta * sum_n d / variance_n: the value of losses.pretrain_grads."""
    return losses.pretrain_grads(*encoder.params, X, labels, emb.means, np.log(emb.variances), beta)[0]


class TestPretrainLoss:
    def _setup(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 2))
        labels = np.array([1, 2] * 5)
        enc = Encoder.affine(np.eye(2), np.zeros(2))
        emb = ClassEmbeddings(means=[[0.0, 0.0], [1.0, 1.0]], variances=[0.5, 0.5])
        return enc, emb, X, labels

    def test_regulariser_constant(self):
        """beta=0.1, d=2, two classes at variance 0.5 adds exactly
        0.1 * (2/0.5 + 2/0.5) = 0.8 over the beta=0 loss."""
        enc, emb, X, labels = self._setup()
        with_reg = pretrain_loss(enc, emb, X, labels, beta=0.1)
        without = pretrain_loss(enc, emb, X, labels, beta=0.0)
        np.testing.assert_allclose(with_reg - without, 0.8, rtol=1e-12)

    def test_regulariser_decreasing_in_variance(self):
        enc, emb, X, labels = self._setup()
        wide = ClassEmbeddings(means=emb.means, variances=[2.0, 2.0])
        reg_narrow = pretrain_loss(enc, emb, X, labels, 0.1) - pretrain_loss(enc, emb, X, labels, 0.0)
        reg_wide = pretrain_loss(enc, wide, X, labels, 0.1) - pretrain_loss(enc, wide, X, labels, 0.0)
        assert 0.0 < reg_wide < reg_narrow


class TestPretrain:
    def _separable_data(self, rng, spread=10.0):
        # two clusters separated by spread sigma along the first axis
        n = 60
        X = np.vstack(
            [
                rng.normal([0.0, 0.0], 1.0, size=(n, 2)),
                rng.normal([spread, 0.0], 1.0, size=(n, 2)),
            ]
        )
        labels = np.repeat([1, 2], n)
        return X, labels

    def test_separable_clusters_reach_high_accuracy(self):
        """On 2-d clusters 10 sigma apart, the fitted classifier reaches
        training accuracy of at least 0.99."""
        rng = np.random.default_rng(0)
        X, labels = self._separable_data(rng)
        result = pretrain(X, labels, step_size=0.05, epochs=40, batch_size=32, rng_seed=0)
        P = gda_predict(result.embeddings, result.encoder(X))
        accuracy = np.mean(np.argmax(P, axis=1) + 1 == labels)
        assert accuracy >= 0.99

    def test_large_beta_widens_variances(self):
        """The variance penalty beta * d / sigma^2 pushes variances up, so a
        beta=100 run ends wider than a beta=0 run from the same start."""
        rng = np.random.default_rng(1)
        X, labels = self._separable_data(rng)
        tight = pretrain(X, labels, beta=0.0, step_size=0.02, epochs=20, rng_seed=3)
        wide = pretrain(X, labels, beta=100.0, step_size=0.02, epochs=20, rng_seed=3)
        assert np.all(wide.embeddings.variances > tight.embeddings.variances)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(2)
        X, labels = self._separable_data(rng)
        a = pretrain(X, labels, epochs=3, rng_seed=7)
        b = pretrain(X, labels, epochs=3, rng_seed=7)
        np.testing.assert_array_equal(a.loss_trace, b.loss_trace)
        np.testing.assert_array_equal(a.encoder.weight, b.encoder.weight)
        np.testing.assert_array_equal(a.embeddings.means, b.embeddings.means)

    def test_loss_trace_recorded(self):
        rng = np.random.default_rng(2)
        X, labels = self._separable_data(rng)
        result = pretrain(X, labels, epochs=2, batch_size=30, rng_seed=0)
        assert len(result.loss_trace) == 2 * (len(X) // 30)
        assert all(np.isfinite(v) for v in result.loss_trace)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/0 precede the guard
    def test_divergence_aborts(self):
        rng = np.random.default_rng(2)
        X, labels = self._separable_data(rng)
        with pytest.raises(FloatingPointError, match="reduce step_size"):
            pretrain(X, labels, step_size=1e6, epochs=5, rng_seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(step_size=-1e-3), "step_size must be positive and finite, got -0.001"),
        (dict(step_size=np.nan), "step_size must be positive and finite, got nan"),
        (dict(beta=np.nan), "beta must be non-negative and finite, got nan"),
        (dict(beta=-1.0), "beta must be non-negative and finite, got -1.0"),
    ])
    def test_meaningless_hyperparameters_are_refused(self, kwargs, message):
        """A negative step size used to train uphill, and a NaN beta to
        fail as a divergence that a smaller step size would cure."""
        X, labels = self._separable_data(np.random.default_rng(2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            pretrain(X, labels, epochs=1, **kwargs)

    def test_accepts_dataset_object(self):
        from flowr.data import generate_synthetic_world

        ds = generate_synthetic_world(3, 2, 9.0, 0.5, 20, seed=0)
        result = pretrain(ds, epochs=2, rng_seed=0)
        assert result.embeddings.n_classes == 3

    def test_dense_label_validation(self):
        with pytest.raises(ValueError, match="dense"):
            pretrain(np.zeros((4, 2)), np.array([1, 1, 3, 3]), epochs=1)

    def test_non_integer_labels_are_refused(self):
        """[1, 2.6, 2, 1] used to be truncated to the labels [1, 2, 2, 1]."""
        with pytest.raises(ValueError, match=r"^row 1: label 2\.6 is not an integer class index$"):
            pretrain(np.zeros((4, 2)), [1, 2.6, 2, 1], epochs=1)

    def test_integer_valued_float_labels_are_accepted(self):
        rng = np.random.default_rng(2)
        X, labels = self._separable_data(rng)
        as_floats = pretrain(X, labels.astype(np.float64), epochs=1, rng_seed=0)
        np.testing.assert_array_equal(as_floats.loss_trace, pretrain(X, labels, epochs=1, rng_seed=0).loss_trace)
