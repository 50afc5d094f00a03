"""Open-world model state: prediction, updates, episode replay, fine-tuning.

The frozen posterior below comes from evaluating Bayes rule with
scipy.stats.norm densities over the three predictives N(-2,1), N(2,1),
N(0,5) and class prior [0.45, 0.45, 0.10]; that prior is realised exactly
by counts [14, 14] with a=0.5, b=2 ((14-0.5)/30 = 0.45, (2+0.5*2)/30 = 0.1).
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from flowr import losses
from flowr.crp import ClassCounts, CrpParams, InvalidStateError, predictive_class_probs
from flowr.encoder import ClassEmbeddings, Encoder
from flowr.gaussian import (
    IsotropicGaussian,
    NaturalClassStats,
    NoiseModel,
    SharedPrior,
    batch_posterior,
    condition,
    density_constants,
    factor_to_natural,
    log_density,
    log_density_matrix,
    posterior_predictive,
)
from flowr.model import (
    ModelState,
    PredictionRecord,
    ProtocolError,
    _encode,
    _encode_one,
    _fold,
    _large_context,
    fine_tune_output_layer,
    init_large_context,
    init_small_context,
    predict,
    run_episode,
    run_episodes,
    update,
)

NOISE = NoiseModel(0.5)
_FAR = "input is too far from every class: no class gives it a finite log density"
_OVERFLOW = "conditioning on it overflows its class row: the row's mean or variance is not finite"


def _two_class_state():
    """Two 1-d classes with predictives N(-2, 1) and N(2, 1), shared prior
    predictive N(0, 5), counts [14, 14], a=0.5, b=2."""
    prior = SharedPrior(NaturalClassStats(q=[0.0], lam=2.0 / 9.0))
    return ModelState(
        encoder=Encoder.identity(),
        Q=[[-4.0], [4.0]],
        lam=[2.0, 2.0],
        counts=[14, 14],
        crp_params=CrpParams.from_b(a=0.5, b=2.0),
        prior=prior,
        noise=NOISE,
    )


def _empty_state(dim=1, *, b=1.0):
    prior = SharedPrior(NaturalClassStats(q=np.zeros(dim), lam=1.0))
    return ModelState(
        encoder=Encoder.identity(),
        Q=np.zeros((0, dim)),
        lam=[],
        counts=[],
        crp_params=CrpParams.from_b(a=0.5, b=b),
        prior=prior,
        noise=NOISE,
    )


def _overflowing_state():
    """An empty 1-d state whose affine encoder (weight 1e300) maps a finite
    input of 1e10 past the largest float, to inf."""
    return ModelState(
        encoder=Encoder.affine([[1e300]], [0.0]),
        Q=np.zeros((0, 1)),
        lam=[],
        counts=[],
        crp_params=CrpParams.from_b(a=0.5, b=1.0),
        prior=SharedPrior(NaturalClassStats(q=np.zeros(1), lam=1.0)),
        noise=NOISE,
    )


def _fine_noise_state():
    """An empty 1-d state with noise variance 1e-200: an input of 1e150 is
    scored with a finite log density (on the novel slot) but conditioning
    a row on it overflows, 1e150 / 1e-200 being past the largest float."""
    return ModelState(
        encoder=Encoder.identity(),
        Q=np.zeros((0, 1)),
        lam=[],
        counts=[],
        crp_params=CrpParams.from_b(a=0.5, b=1.0),
        prior=SharedPrior(NaturalClassStats(q=np.zeros(1), lam=1.0)),
        noise=NoiseModel(1e-200),
    )


def _at(what, message):
    """A fault's full message: a message that starts with the point's index
    reads `{what} i: ...`."""
    return f"^{what} {message}$" if message[0].isdigit() else f"^{message}$"


# Input faults against label faults and overflowing rows, as (state,
# inputs, labels, error, message, after "query " or "support point " when
# it starts with the point's index); stream order decides, and a point's
# input comes before its label, its label before its conditioning.
_INPUT_FAULTS = [
    # wrong shape (all rows alike, so they stack) before a bad label
    (_empty_state, [[0.0, 0.0], [0.0, 0.0]], [1, 5], ValueError,
     "input must be one vector of length 1, got shape \\(2,\\)"),
    # a NaN input before label 0
    (_empty_state, [[0.0], [np.nan], [0.0]], [1, 1, 0], ValueError, "input must be finite \\(after encoding\\)"),
    # ragged inputs: the bad label comes first, then the odd row
    (_empty_state, [[0.0], [0.0], [0.0, 0.0]], [1, 5, 1], ProtocolError,
     "1: label 5 skips ahead of the 1 known classes"),
    # ragged inputs: the odd row comes first, then the bad label
    (_empty_state, [[0.0], [[0.0], [0.0]], [0.0]], [1, 1, 0], ValueError,
     "input must be one vector of length 1, got shape \\(2, 1\\)"),
    # finite inputs, one not finite after encoding, before a bad label
    (_overflowing_state, [[1e-300], [1e10], [0.0]], [1, 1, 7], ValueError,
     "input must be finite \\(after encoding\\)"),
    # a bad label before an input that overflows in the encoder
    (_overflowing_state, [[1e-300], [1e-300], [1e10]], [1, 3, 1], ProtocolError,
     "1: label 3 skips ahead of the 1 known classes"),
    # a bad label before an input that is not a number (a TypeError in the row check)
    (_empty_state, [[0.0], [0.0], {}], [1, 5, 1], ProtocolError,
     "1: label 5 skips ahead of the 1 known classes"),
    # a bad label before an int beyond float range (an OverflowError, which used to escape first)
    (_empty_state, [[0.0], [0.0], [10**400]], [1, 5, 1], ProtocolError,
     "1: label 5 skips ahead of the 1 known classes"),
    # an int beyond float range before a bad label
    (_empty_state, [[0.0], [10**400], [0.0]], [1, 1, 0], ValueError,
     "input must be finite: int too large to convert to float"),
    # a point that overflows its row before a bad label, and before an input of the wrong shape
    (_fine_noise_state, [[0.0], [1e150], [0.0]], [1, 1, 0], ValueError, f"1: {_OVERFLOW}"),
    (_fine_noise_state, [[0.0], [1e150], [0.0, 0.0]], [1, 1, 1], ValueError, f"1: {_OVERFLOW}"),
    # a bad label before a point that would overflow its row
    (_fine_noise_state, [[0.0], [0.0], [1e150]], [1, 5, 1], ProtocolError,
     "1: label 5 skips ahead of the 1 known classes"),
]


# Faults in one query stream, as (state, queries, error, message): the
# first in stream order, a query's input before its prediction, its
# prediction before its label, its label before its conditioning, is raised.
_QUERY_FAULTS = [
    (_empty_state, [([0.0], 1), ([0.0], 3), ([0.0, 0.0], 2)], ProtocolError,
     "^query 1: label 3 skips ahead of the 1 known classes$"),
    (_empty_state, [([0.0], 1), ([0.0, 0.0], 2), ([0.0], 5)], ValueError,
     "^input must be one vector of length 1, got shape \\(2,\\)$"),
    (_empty_state, [([0.0], 1), ([0.0], 1), ([0.0], 0)], ProtocolError,
     "^query 2: label 0 is not a positive class index$"),
    (_empty_state, [([0.0], 0), ([np.nan], 1)], ProtocolError,
     "^query 0: label 0 is not a positive class index$"),
    (_empty_state, [([0.0], 1), ([np.nan], 9)], ValueError, "^input must be finite \\(after encoding\\)$"),
    # query 1 overflows its row after it is predicted: before query 2 is predicted far, and before its bad label
    (_fine_noise_state, [([0.0], 1), ([1e150], 1), ([1e200], 1)], ValueError, f"^query 1: {re.escape(_OVERFLOW)}$"),
    (_fine_noise_state, [([0.0], 1), ([1e150], 1), ([0.0], 9)], ValueError, f"^query 1: {re.escape(_OVERFLOW)}$"),
    # a query too far from every class is refused before conditioning on it would overflow
    (_fine_noise_state, [([0.0], 1), ([1e300], 1)], ValueError, f"^query 1: {_FAR}$"),
]


class TestConstructor:
    """ModelState(encoder, Q, lam, counts, ...) over N class rows and N counts."""

    PRIOR = SharedPrior(NaturalClassStats(q=np.zeros(2), lam=1.0))
    ROWS = {"Q": [[0.0, 1.0], [2.0, 3.0]], "lam": [1.0, 2.0], "counts": [3, 4]}

    def _state(self, prior=PRIOR, **rows):
        rows = {**self.ROWS, **rows}
        return ModelState(Encoder.identity(), **rows, crp_params=CrpParams.from_b(a=0.5, b=1.0), prior=prior, noise=NOISE)

    def test_builds_the_class_table(self):
        state = self._state()
        np.testing.assert_array_equal(state.Q, [[0.0, 1.0], [2.0, 3.0], [0.0, 0.0]])  # the prior's row last
        np.testing.assert_array_equal(state.lam, [1.0, 2.0, 1.0])
        assert state.n_classes == 2 and state.dim == 2 and state.n_kk == 0

    def test_counts_are_the_tables_read_only_array(self):
        raw = np.array([3, 4])
        state = self._state(counts=raw)
        assert state.counts.dtype == np.int64 and not state.counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.counts[0] = 9
        raw[0] = 5  # the caller's array stays writable and is not aliased
        np.testing.assert_array_equal(state.counts, [3, 4])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({"Q": [[0.0, 1.0]]}, r"class rows Q \(1, 2\) and lam \(2,\) do not fit 2 counts at dimension 2"),
            ({"Q": [0.0, 1.0, 2.0, 3.0]}, r"class rows Q \(4,\) and lam \(2,\) do not fit 2 counts at dimension 2"),
            ({"lam": [1.0]}, r"class rows Q \(2, 2\) and lam \(1,\) do not fit 2 counts at dimension 2"),
            ({"lam": [[1.0, 2.0]]}, r"class rows Q \(2, 2\) and lam \(1, 2\) do not fit 2 counts at dimension 2"),
            ({"counts": [3]}, r"class rows Q \(2, 2\) and lam \(2,\) do not fit 1 counts at dimension 2"),
            ({"counts": [[3, 4]]}, r"counts must be a 1-d vector, got shape \(1, 2\)"),
            ({"counts": [3, -1]}, "counts must be non-negative"),
            ({"counts": [3, 4.5]}, r"count 1: 4\.5 is not an integer"),
        ],
    )
    def test_bad_rows_or_counts_are_refused(self, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self._state(**rows)

    def test_rows_of_another_dimension_than_the_prior_are_refused(self):
        prior = SharedPrior(NaturalClassStats(q=np.zeros(3), lam=1.0))
        with pytest.raises(ValueError, match=r"^class rows Q \(2, 2\) and lam \(2,\) do not fit 2 counts at dimension 3$"):
            self._state(prior)

    def test_integer_valued_float_counts_are_accepted(self):
        np.testing.assert_array_equal(self._state(counts=[3.0, 4.0]).counts, [3, 4])


class TestPredict:
    def test_frozen_two_class_posterior(self):
        """z=2 against the fixture state: scipy oracle gives posterior
        [3.1441e-04, 0.9372489, 0.0624367]."""
        record = predict(_two_class_state(), [2.0])
        np.testing.assert_allclose(
            record.probs,
            [3.14411989e-04, 9.37248931e-01, 6.24366574e-02],
            rtol=1e-7,
        )
        assert record.predicted == 2
        assert record.known_argmax == 2
        np.testing.assert_allclose(record.novelty_score, record.probs[-1], rtol=1e-12)
        assert record.n_at_prediction == 2

    def test_matches_bayes_rule_oracle(self):
        """Recompute the same posterior from densities and the class prior."""
        state = _two_class_state()
        z = 1.3
        f = np.array(
            [
                norm.pdf(z, -2.0, 1.0),
                norm.pdf(z, 2.0, 1.0),
                norm.pdf(z, 0.0, np.sqrt(5.0)),
            ]
        )
        prior = np.array([0.45, 0.45, 0.10])
        expected = f * prior / (f * prior).sum()
        record = predict(state, [z])
        np.testing.assert_allclose(record.probs, expected, rtol=1e-9)

    def test_empty_state_is_all_novel(self):
        record = predict(_empty_state(), [3.0])
        np.testing.assert_array_equal(record.probs, [1.0])
        assert record.predicted == 1
        assert record.known_argmax is None
        assert record.novelty_score == 1.0

    def test_probs_normalised_on_random_states(self):
        """Posterior sums to 1 within 1e-9 and the novelty score stays in
        [0, 1] across random states."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            Q, lam = [], []
            for _ in range(n):  # each row's draws in the order the stats were drawn
                Q.append(rng.normal(size=d))
                lam.append(float(rng.uniform(0.2, 4.0)))
            state = ModelState(
                encoder=Encoder.identity(),
                Q=Q,
                lam=lam,
                counts=rng.integers(0, 20, size=n),
                crp_params=CrpParams(a=float(rng.uniform(0, 0.9)), rho=float(rng.normal())),
                prior=SharedPrior(NaturalClassStats(q=rng.normal(size=d), lam=1.0)),
                noise=NoiseModel(float(rng.uniform(0.1, 2.0))),
            )
            record = predict(state, rng.normal(size=d))
            np.testing.assert_allclose(record.probs.sum(), 1.0, rtol=0, atol=1e-9)
            assert 0.0 <= record.novelty_score <= 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_class_too_far_for_its_variance_gets_no_mass(self):
        """A class whose squared distance over its tiny predictive variance
        overflows has log density -inf and no mass: predict warned
        `overflow encountered in divide` here, which the repository's
        warning filter turns into an error, though the posterior is well
        defined."""
        state = init_small_context(
            SharedPrior(NaturalClassStats(q=np.zeros(1), lam=1.0)), CrpParams.from_b(a=0.5, b=1.0),
            NoiseModel(1e-200), Encoder.identity(), [([0.0], 1)],
        )
        np.testing.assert_array_equal(predict(state, [1e150]).probs, [0.0, 1.0])

    def test_novel_slot_never_closes_while_b_positive(self):
        state = _two_class_state()
        rng = np.random.default_rng(0)
        assert state.crp_params.b > 0
        for _ in range(100):
            assert predict(state, rng.normal(size=1) * 5).novelty_score > 0.0


class TestUpdate:
    def test_known_label_keeps_n(self):
        state = _two_class_state()
        out = update(state, [1.9], 2)
        assert out.n_classes == 2
        np.testing.assert_array_equal(out.counts, [14, 15])

    def test_novel_label_appends_conditioned_prior(self):
        """A label of N+1 grows the state by one class whose stats equal
        condition(prior, z)."""
        state = _two_class_state()
        z = np.array([1.0])
        out = update(state, z, 3)
        assert out.n_classes == 3
        expected = condition(state.prior.prior, z, state.noise)
        np.testing.assert_allclose(out.Q[2], expected.q, rtol=1e-12)
        np.testing.assert_allclose(out.lam[2], expected.lam, rtol=1e-12)
        # default bookkeeping: append 1, then the observe step lands on 2
        np.testing.assert_array_equal(out.counts, [14, 14, 2])

    def test_protocol_errors(self):
        state = _two_class_state()
        with pytest.raises(ProtocolError, match="skips ahead"):
            update(state, [0.0], 4)
        with pytest.raises(ProtocolError, match="positive class index"):
            update(state, [0.0], 0)

    @pytest.mark.parametrize("y", [1.9, 2.5, np.nan, np.inf])
    def test_non_integer_label_is_refused(self, y):
        """A label that is not an integer used to be truncated: 1.9
        conditioned class 1, and NaN or inf failed inside int()."""
        with pytest.raises(ProtocolError, match=f"^label {y} is not an integer class index$"):
            update(_two_class_state(), [0.0], y)

    def test_integer_valued_float_label_is_accepted(self):
        out = update(_two_class_state(), [1.9], 2.0)
        np.testing.assert_array_equal(out.counts, [14, 15])

    def test_update_is_pure(self):
        state = _two_class_state()
        before = (state.Q.copy(), state.lam.copy())
        update(state, [1.0], 3)
        update(state, [1.0], 1)
        np.testing.assert_array_equal(state.Q, before[0])
        np.testing.assert_array_equal(state.lam, before[1])
        np.testing.assert_array_equal(state.counts, [14, 14])

    def test_conditioning_expands_decision_region(self):
        """Conditioning a class on a far point strictly raises that class's
        predictive log-density there."""
        state = _empty_state()
        z = np.array([3.0])  # beyond the prior predictive std sqrt(1.5)
        before = log_density(posterior_predictive(state.prior.prior, NOISE), z)
        stats = condition(state.prior.prior, z, NOISE)
        after = log_density(posterior_predictive(stats, NOISE), z)
        assert after > before


class TestOverflowingRows:
    """A conditioning step that overflows its class row, and class rows
    whose predictive overflows, are refused with one line: such a row of
    inf used to get no posterior mass, and nothing said why."""

    def _parts(self):
        prior = SharedPrior(NaturalClassStats(q=np.zeros(2), lam=1.0))
        return prior, CrpParams.from_b(a=0.5, b=1.0), NoiseModel(1e-10), Encoder.identity()

    def test_update_refuses_the_row_it_conditions(self):
        state = init_small_context(*self._parts(), [([0.0, 0.0], 1)])
        for y in (1, 2):  # a row conditioned again, and a row born from the prior's
            with pytest.raises(ValueError, match=f"^{re.escape(_OVERFLOW)}$"):
                update(state, [1e300, 1e300], y)
        np.testing.assert_array_equal(update(state, [1e10, 1e10], 1).Q[0], [1e20, 1e20])

    def test_update_on_a_known_known_label_conditions_nothing(self):
        prior, crp, noise, enc = self._parts()
        state = _large_context(np.zeros((1, 2)), np.ones(1), prior, crp, noise, enc)
        assert update(state, [1e300, 1e300], 1).counts.tolist() == [2]

    def test_init_small_context(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^support point 1: {re.escape(_OVERFLOW)}$"):
            init_small_context(*self._parts(), [([0.0, 0.0], 1), ([1e300, 1e300], 1), ([0.0, 0.0], 5)])

    def test_large_context_rows_with_an_overflowing_mean(self):
        """Q = 1e308 and lam = 1e-10 are finite, their mean is not."""
        message = "^class stats must be finite, with positive precision and a finite predictive$"
        with pytest.raises(ValueError, match=message):
            _large_context(np.full((1, 2), 1e308), np.array([1e-10]), *self._parts())


class TestInitSmallContext:
    def _ingredients(self, dim=2):
        prior = SharedPrior(NaturalClassStats(q=np.zeros(dim), lam=0.5))
        return prior, CrpParams.from_b(a=0.5, b=1.0), NOISE, Encoder.identity()

    def test_empty_support(self):
        state = init_small_context(*self._ingredients(), support=[])
        assert state.n_classes == 0
        assert len(state.counts) == 0

    def test_single_point_equals_single_update(self):
        prior, crp, noise, enc = self._ingredients()
        via_init = init_small_context(prior, crp, noise, enc, [([1.0, 2.0], 1)])
        via_update = update(init_small_context(prior, crp, noise, enc, []), [1.0, 2.0], 1)
        np.testing.assert_allclose(via_init.Q[0], via_update.Q[0])
        assert via_init.counts[0] == via_update.counts[0]

    def test_stats_match_batch_posterior(self):
        """Per-class stats after ingesting a support set equal the one-shot
        batch posterior over that class's points."""
        prior, crp, noise, enc = self._ingredients()
        rng = np.random.default_rng(5)
        points = {1: rng.normal(size=(3, 2)), 2: rng.normal(size=(4, 2))}
        support = [(points[1][0], 1), (points[2][0], 2)]
        support += [(z, 1) for z in points[1][1:]] + [(z, 2) for z in points[2][1:]]
        state = init_small_context(prior, crp, noise, enc, support)
        for c in (1, 2):
            expected = batch_posterior(prior.prior, points[c], noise)
            np.testing.assert_allclose(state.Q[c - 1], expected.q, rtol=1e-9)
            np.testing.assert_allclose(state.lam[c - 1], expected.lam, rtol=1e-9)

    def test_position_in_error(self):
        prior, crp, noise, enc = self._ingredients()
        with pytest.raises(ProtocolError, match="support point 1"):
            init_small_context(prior, crp, noise, enc, [([0.0, 0.0], 1), ([0.0, 0.0], 3)])

    def test_non_integer_label_is_refused(self):
        """1.5 used to open class 1 silently."""
        prior, crp, noise, enc = self._ingredients()
        with pytest.raises(ProtocolError, match="^support point 1: label 1.5 is not an integer class index$"):
            init_small_context(prior, crp, noise, enc, [([0.0, 0.0], 1), ([0.0, 0.0], 1.5)])

    @pytest.mark.parametrize("make_state, inputs, labels, error, message", _INPUT_FAULTS)
    def test_first_fault_in_stream_order_is_reported(self, make_state, inputs, labels, error, message):
        """The support is encoded in one call, yet the fault raised is the
        one stepping point by point met first: a point's input, then its label."""
        state = make_state()
        with np.errstate(over="ignore"), pytest.raises(error, match=_at("support point", message)):
            init_small_context(state.prior, state.crp_params, state.noise, state.encoder, zip(inputs, labels))

    @pytest.mark.parametrize(
        "x, message",
        [
            ([0.0, np.nan], "input must be finite \\(after encoding\\)"),
            ([0.0], "input must be one vector of length 2, got shape \\(1,\\)"),
        ],
    )
    def test_input_fault_carries_its_row(self, x, message):
        """An input fault reads as the reader raises it, with no prefix, and
        carries the point's index in the support as .row."""
        support = [([0.0, 0.0], 1), ([1.0, 0.0], 2), (x, 1)]
        with pytest.raises(ValueError, match=f"^{message}$") as fault:
            init_small_context(*self._ingredients(), support)
        assert fault.value.row == 2

    def test_no_mass_prior_still_builds(self):
        """Building the support table scores nothing, so b <= 0 is no fault."""
        prior, _, noise, enc = self._ingredients()
        state = init_small_context(prior, CrpParams.from_b(a=0.5, b=-0.25), noise, enc, [([0.0, 0.0], 1)])
        assert state.n_classes == 1


class TestInitLargeContext:
    def test_standard_normal_class(self):
        """One pretrained class N(0, 1) factors to q=[0], lambda=1 with a
        zero count and n_kk=1."""
        emb = ClassEmbeddings(means=[[0.0]], variances=[1.0])
        state = init_large_context(
            emb,
            SharedPrior(NaturalClassStats(q=[0.0], lam=1.0)),
            CrpParams.from_b(a=0.5, b=1.0),
            NOISE,
            Encoder.identity(),
            init_count=0,
        )
        np.testing.assert_array_equal(state.Q[0], [0.0])
        assert state.lam[0] == 1.0
        np.testing.assert_array_equal(state.counts, [0])
        assert state.n_kk == 1

    def test_factor_roundtrip(self):
        rng = np.random.default_rng(9)
        emb = ClassEmbeddings(means=rng.normal(size=(4, 3)), variances=rng.uniform(0.2, 2.0, 4))
        state = init_large_context(
            emb,
            SharedPrior(NaturalClassStats(q=np.zeros(3), lam=1.0)),
            CrpParams.from_b(a=0.5, b=1.0),
            NOISE,
            Encoder.identity(),
        )
        for q, lam, mean, var in zip(state.Q, state.lam, emb.means, emb.variances):
            g = factor_to_natural(IsotropicGaussian(mean=mean, variance=var))
            np.testing.assert_allclose(q, g.q, rtol=1e-12)
            np.testing.assert_allclose(lam, g.lam, rtol=1e-12)

    def test_non_integer_init_count_is_refused(self):
        """1.9 used to seed the count 1."""
        emb = ClassEmbeddings(means=[[0.0], [1.0]], variances=[1.0, 1.0])
        parts = (SharedPrior(NaturalClassStats(q=[0.0], lam=1.0)), CrpParams.from_b(a=0.5, b=1.0), NOISE)
        with pytest.raises(ValueError, match=r"^count 0: 1\.9 is not an integer$"):
            init_large_context(emb, *parts, Encoder.identity(), init_count=1.9)

    def test_init_count_seeds_pseudo_observations(self):
        emb = ClassEmbeddings(means=[[0.0], [1.0]], variances=[1.0, 1.0])
        state = init_large_context(
            emb,
            SharedPrior(NaturalClassStats(q=[0.0], lam=1.0)),
            CrpParams.from_b(a=0.5, b=1.0),
            NOISE,
            Encoder.identity(),
            init_count=1,
        )
        np.testing.assert_array_equal(state.counts, [1, 1])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_counts_known_argmax_follows_likelihood(self, k):
        """With init_count=0 every known class has zero prior mass, so the
        known argmax must come from the class densities: a query at class
        k's mean names class k (it used to name class 1 every time)."""
        means = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        state = init_large_context(
            ClassEmbeddings(means=means, variances=[1.0, 1.0, 1.0]),
            SharedPrior(NaturalClassStats(q=np.zeros(2), lam=0.1)),
            CrpParams.from_b(a=0.5, b=1.0),
            NOISE,
            Encoder.identity(),
            init_count=0,
        )
        record = predict(state, means[k - 1])
        np.testing.assert_array_equal(record.probs, [0.0, 0.0, 0.0, 1.0])
        assert record.known_argmax == k

    def test_run_episodes_known_argmax_falls_back_as_stepping(self):
        """From an init_count=0 state, known classes have no mass until their
        first label: run_episodes over several streams gives each query the
        record stepping predict then update gives it, the known_argmax
        fallback included, in blocks split mid-stream and mid-run."""
        means = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        start = init_large_context(
            ClassEmbeddings(means=means, variances=[1.0, 1.0, 1.0]),
            SharedPrior(NaturalClassStats(q=np.zeros(2), lam=0.1)),
            CrpParams.from_b(a=0.5, b=1.0),
            NOISE,
            Encoder.identity(),
            init_count=0,
        )
        rng = np.random.default_rng(4)
        streams = []
        for labels in ([2, 3, 2, 4, 1, 4, 3], [4, 1, 5, 1, 2], [3, 3, 4]):
            centres = np.vstack([means, rng.normal(scale=6.0, size=(2, 2))])
            streams.append((start, [(centres[y - 1] + rng.normal(size=2), y) for y in labels]))
        with mock.patch.object(losses, "PREFIX_ENTRIES", 8):
            results = run_episodes(streams)
        fallbacks = 0
        for (state, queries), (records, final) in zip(streams, results):
            assert len(records) == len(queries)
            for (x, y), rec in zip(queries, records):
                want = predict(state, x)
                _same_record(rec, want)
                assert rec.true_label == y
                fallbacks += not want.probs[: state.n_classes].any()
                state = update(state, x, y)
            np.testing.assert_array_equal(final.counts, state.counts)
        assert fallbacks == len(streams)  # each stream's first query: no label yet

    def test_underflowed_known_mass_keeps_posterior_argmax(self):
        """A far outlier drives every known posterior below the smallest
        float; the known argmax is still the class nearest to it."""
        state = init_large_context(
            ClassEmbeddings(means=[[0.0, 0.0], [6.0, 0.0]], variances=[1.0, 1.0]),
            SharedPrior(NaturalClassStats(q=np.zeros(2), lam=0.1)),
            CrpParams.from_b(a=0.5, b=1.0),
            NOISE,
            Encoder.identity(),
            init_count=1,
        )
        record = predict(state, [300.0, 0.0])
        np.testing.assert_array_equal(record.probs[:2], [0.0, 0.0])
        assert record.known_argmax == 2


class TestRunEpisode:
    def test_empty_queries(self):
        state = _two_class_state()
        records, out = run_episode(state, [])
        assert records == []
        assert out is state

    def test_novel_then_repeat_gains_probability(self):
        """Two-query stream: the first point of a new class is scored on the
        novel slot; after its label instantiates the class, an identical
        embedding gets strictly more probability on that class than the
        first query's novel-slot mass (conditioning tightened the predictive
        from N(0, 5) to N(4.05, 0.95) at this point)."""
        state = _two_class_state()
        z = np.array([4.5])
        records, final = run_episode(state, [(z, 3), (z, 3)])
        first, second = records
        assert first.n_at_prediction == 2
        assert second.n_at_prediction == 3
        assert second.probs[2] > first.novelty_score
        assert second.predicted == 3
        assert final.n_classes == 3

    def test_lc_known_known_stats_untouched(self):
        """An episode over a large-context state never rewrites the
        pretrained known-known stats, only counts and appended classes."""
        emb = ClassEmbeddings(means=[[-2.0], [2.0]], variances=[0.5, 0.5])
        state = init_large_context(
            emb,
            SharedPrior(NaturalClassStats(q=[0.0], lam=0.5)),
            CrpParams.from_b(a=0.5, b=1.0),
            NOISE,
            Encoder.identity(),
        )
        queries = [([-1.9], 1), ([2.2], 2), ([8.0], 3), ([8.1], 3), ([-2.1], 1)]
        _, final = run_episode(state, queries)
        np.testing.assert_array_equal(final.Q[:2], state.Q[:2])
        np.testing.assert_array_equal(final.lam[:2], state.lam[:2])
        assert final.n_classes == 3

    def test_query_position_in_error(self):
        with pytest.raises(ProtocolError, match="query 1"):
            run_episode(_empty_state(), [([0.0], 1), ([0.0], 3)])

    @pytest.mark.parametrize("make_state, queries, error, message", _QUERY_FAULTS)
    def test_first_fault_in_stream_order_is_reported(self, make_state, queries, error, message):
        """Each query is encoded, scored, then its label is applied and it
        conditions its row: the first fault in that order is the one
        raised, whatever follows it, as stepping predict and update raises it."""
        with np.errstate(over="ignore"), pytest.raises(error, match=re.sub(r"^\^query \d+: ", "^", message)):
            state = make_state()
            for x, y in queries:
                predict(state, x)
                state = update(state, x, y)
        with pytest.raises(error, match=message):
            run_episode(make_state(), queries)

    @pytest.mark.parametrize("make_state, inputs, labels, error, message", _INPUT_FAULTS)
    def test_first_input_fault_in_stream_order_is_reported(self, make_state, inputs, labels, error, message):
        """The stream is encoded in one call, yet the fault raised is the
        one stepping query by query met first."""
        state = make_state()
        with np.errstate(over="ignore"), pytest.raises(error, match=_at("query", message)):
            run_episode(state, zip(inputs, labels))

    @pytest.mark.parametrize(
        "queries, error, message",
        [
            # a far query before a label fault
            ([([0.0], 1), ([1e160], 2), ([0.0], 0)], ValueError, f"query 1: {_FAR}"),
            # a far query before an input of the wrong shape
            ([([0.0], 1), ([1e160], 2), ([0.0, 0.0], 1)], ValueError, f"query 1: {_FAR}"),
            # a far query with a label fault of its own: it is predicted before its label is applied
            ([([0.0], 1), ([1e160], 5)], ValueError, f"query 1: {_FAR}"),
            # a label fault before a far query
            ([([0.0], 1), ([0.0], 5), ([1e160], 2)], ProtocolError, "query 1: label 5 skips ahead of the 1 known classes"),
        ],
    )
    def test_far_query_and_read_fault_in_stream_order(self, queries, error, message):
        """A stream's read fault is reported only after the queries stepping
        predicts before it are scored: a far query among them is raised, as
        stepping predict/update raises it, by run_episode and by
        run_episodes, between a clean stream and a later faulty one."""
        state = _empty_state()
        with pytest.raises(error) as stepped:
            for x, y in queries:
                predict(state, x)
                state = update(state, x, y)
        assert message.endswith(str(stepped.value))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_episode(_empty_state(), queries)
        streams = [(_empty_state(), [([0.0], 1)]), (_empty_state(), queries), (_empty_state(), [([0.0], 0)])]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_episodes(streams)

    @pytest.mark.parametrize(
        "x, message",
        [
            ([np.nan], "input must be finite \\(after encoding\\)"),
            ([0.0, 0.0], "input must be one vector of length 1, got shape \\(2,\\)"),
        ],
    )
    def test_input_fault_carries_its_row(self, x, message):
        """An input fault reads as the reader raises it, with no prefix, and
        carries the query's index in its stream as .row, by run_episode and
        by run_episodes after a clean stream read in the same call (it used
        to carry the index in the block read)."""
        state, queries = _empty_state(), [([0.0], 1), ([1.0], 2), (x, 1)]
        with pytest.raises(ValueError, match=f"^{message}$") as fault:
            run_episode(state, queries)
        assert fault.value.row == 2
        with pytest.raises(ValueError, match=f"^{message}$") as fault:
            run_episodes([(state, [([0.0], 1)]), (state, queries)])
        assert fault.value.row == 2

    def test_non_integer_label_is_refused(self):
        """2.7 used to open class 2 and be recorded as true_label=2."""
        with pytest.raises(ProtocolError, match="^query 1: label 2.7 is not an integer class index$"):
            run_episode(_empty_state(), [([0.0], 1), ([0.0], 2.7)])

    @pytest.mark.parametrize("later", [([0.0], 9), ([0.0, 0.0], 1)])
    def test_unscorable_first_query_comes_before_later_faults(self, later):
        """With every count zero and b <= 0 the CRP rule has no mass, so
        the first query cannot be scored; that comes before a bad label or
        input further down the stream."""
        state = init_large_context(
            ClassEmbeddings(means=[[0.0], [1.0]], variances=[1.0, 1.0]),
            SharedPrior(NaturalClassStats(q=[0.0], lam=1.0)),
            CrpParams.from_b(a=0.5, b=-0.25),
            NOISE,
            Encoder.identity(),
            init_count=0,
        )
        with pytest.raises(InvalidStateError, match="no probability mass"):
            run_episode(state, [([0.0], 1), later])


class TestFineTune:
    def _affine_state(self, seed=0):
        rng = np.random.default_rng(seed)
        support = [(rng.normal(c * 3.0, 0.5, size=2), c) for c in (1, 2) for _ in range(4)]
        support.sort(key=lambda pair: pair[1])
        enc = Encoder.affine(np.eye(2) + 0.1 * rng.normal(size=(2, 2)), 0.1 * rng.normal(size=2))
        prior = SharedPrior(NaturalClassStats(q=np.zeros(2), lam=0.2))
        state = init_small_context(prior, CrpParams.from_b(a=0.5, b=1.0), NOISE, enc, support)
        return state, support

    def test_zero_steps_is_identity(self):
        """At 0 steps the state comes back rebuilt from the support, as at
        any other count: equal by value to the state that support built."""
        state, support = self._affine_state()
        tuned, trace = fine_tune_output_layer(state, support, 0, 0.1, return_trace=True)
        assert trace == [] and tuned.encoder is state.encoder
        for name in ("Q", "lam", "means", "variances", "counts"):
            np.testing.assert_array_equal(getattr(tuned, name), getattr(state, name))

    def test_zero_steps_from_an_empty_start_folds_the_support(self):
        """0 steps used to return its input state: from an empty start, a
        state of 0 classes where 1 step gives the support's 2."""
        state, support = self._affine_state()
        empty = init_small_context(state.prior, state.crp_params, state.noise, state.encoder, [])
        assert [fine_tune_output_layer(empty, support, k, 0.1).n_classes for k in (0, 1)] == [2, 2]
        np.testing.assert_array_equal(fine_tune_output_layer(empty, support, 0, 0.1).Q, state.Q)

    @pytest.mark.parametrize("steps", [-1, 2.5, float("inf")])
    def test_step_count_must_be_a_non_negative_integer(self, steps):
        """-1 used to return the state untuned without a word, and 2.5 ran 2 steps."""
        state, support = self._affine_state()
        with pytest.raises(ValueError, match=f"^fine-tuning steps must be a non-negative integer, got {steps}$"):
            fine_tune_output_layer(state, support, steps, 0.1)

    @pytest.mark.parametrize("step_size", [0.0, -0.05, float("nan"), float("inf")])
    def test_step_size_must_be_positive_and_finite(self, step_size):
        """-0.05 used to spend 20 rejected halvings (each a leave-one-out
        evaluation) and return the state untuned; 0.0 "accepted" every step."""
        state, support = self._affine_state()
        message = f"^fine-tuning step size must be positive and finite, got {step_size}$"
        with mock.patch.object(losses, "loo_support_grads", wraps=losses.loo_support_grads) as loo:
            with pytest.raises(ValueError, match=message):
                fine_tune_output_layer(state, support, 5, step_size)
        assert loo.call_count == 0

    def test_integer_valued_float_step_count_is_accepted(self):
        state, support = self._affine_state()
        tuned = fine_tune_output_layer(state, support, 2.0, 0.05)
        np.testing.assert_array_equal(tuned.Q, fine_tune_output_layer(state, support, 2, 0.05).Q)

    def test_identity_requires_affine(self):
        state = _empty_state()
        with pytest.raises(ValueError, match="affine"):
            fine_tune_output_layer(state, [([0.0], 1)], 5, 0.1)

    def test_trace_never_increases(self):
        state, support = self._affine_state()
        _, trace = fine_tune_output_layer(state, support, 25, 0.05, return_trace=True)
        assert len(trace) >= 1
        assert np.all(np.diff(trace) <= 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_point_support_at_zero_strength(self):
        """Leave-one-out scores a one-point support's only point against an
        empty table, where d/db is 0/0 at b = 0; fine-tuning treats b as
        constant, so it used to warn (or raise) computing a value it never used."""
        enc = Encoder.affine(np.eye(2), np.zeros(2))
        prior = SharedPrior(NaturalClassStats(q=np.zeros(2), lam=1.0))
        state = init_small_context(prior, CrpParams.from_b(0.5, 0.0), NOISE, enc, [])
        tuned = fine_tune_output_layer(state, [(np.array([1.0, -2.0]), 1)], 3, 0.1)
        assert tuned.n_classes == 1
        assert np.all(np.isfinite(tuned.encoder.weight))

    @pytest.mark.parametrize(
        "x, y, error, message",
        [
            (None, 1.5, ProtocolError, "^support point 1: label 1.5 is not an integer class index$"),
            # a ragged support used to raise numpy's "all input arrays must have the same shape"
            ([0.0, 0.0, 0.0], None, ValueError, "^input must be one vector of length 2, got shape \\(3,\\)$"),
            # a NaN input used to be fine-tuned on, and only refused at the end
            ([np.nan, 0.0], None, ValueError, "^input must be finite \\(after encoding\\)$"),
        ],
    )
    def test_support_labels_are_checked_before_any_step(self, x, y, error, message):
        """A non-integer support label used to be truncated by int(y) and
        only refused after every leave-one-out evaluation had run."""
        state, support = self._affine_state()
        support[1] = (support[1][0] if x is None else x, support[1][1] if y is None else y)
        with mock.patch.object(losses, "loo_support_grads", wraps=losses.loo_support_grads) as loo:
            with pytest.raises(error, match=message):
                fine_tune_output_layer(state, support, 50, 0.05)
        assert loo.call_count == 0

    @pytest.mark.parametrize("make_state, inputs, labels, error, message", _INPUT_FAULTS)
    def test_first_fault_in_stream_order_is_reported(self, make_state, inputs, labels, error, message):
        """Fine-tuning reads its support as init_small_context does, so it
        raises the same first fault, before any step (an identity state
        becomes the identity affine one)."""
        state = make_state()
        if state.encoder.kind != "affine":
            state = init_small_context(state.prior, state.crp_params, state.noise, Encoder.affine([[1.0]], [0.0]), [])
        message = _at("support point", message)
        with mock.patch.object(losses, "loo_support_grads", wraps=losses.loo_support_grads) as loo:
            with np.errstate(over="ignore"), pytest.raises(error, match=message):
                fine_tune_output_layer(state, zip(inputs, labels), 5, 0.1)
        assert loo.call_count == 0

    def test_identity_affine_start_matches_raw(self):
        enc = Encoder.identity_affine(3)
        x = np.array([0.4, -1.0, 2.0])
        np.testing.assert_array_equal(enc(x), x)


class TestInputValidation:
    """predict and update reject a bad input with one line instead of a
    silent all-NaN posterior or a numpy broadcasting error."""

    def _lc_state(self):
        return init_large_context(
            ClassEmbeddings(means=[[0.0, 0.0], [6.0, 0.0]], variances=[1.0, 1.0]),
            SharedPrior(NaturalClassStats(q=np.zeros(2), lam=0.1)),
            CrpParams.from_b(a=0.5, b=1.0),
            NOISE,
            Encoder.affine(np.eye(2), np.zeros(2)),
            init_count=1,
        )

    # an int beyond float range raised a bare OverflowError
    @pytest.mark.parametrize("x", [[np.nan], [np.inf], [-np.inf], [10**400]])
    def test_predict_rejects_non_finite(self, x):
        with pytest.raises(ValueError, match="finite"):
            predict(_two_class_state(), x)

    @pytest.mark.parametrize("x", [[0.0, 1.0], [[0.0]], 0.0])
    def test_predict_rejects_wrong_shape(self, x):
        with pytest.raises(ValueError, match="one vector of length 1"):
            predict(_two_class_state(), x)

    def test_affine_input_dimension(self):
        with pytest.raises(ValueError, match="one vector of length 2, got shape \\(3,\\)"):
            predict(self._lc_state(), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("y", [1, 3])
    def test_update_rejects_non_finite_for_every_label(self, y):
        """Label 1 is a known-known class, which update never conditions;
        a NaN point used to be accepted there silently."""
        with pytest.raises(ValueError, match="finite"):
            update(self._lc_state(), [np.nan, 0.0], y)

    def test_update_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="one vector of length 1"):
            update(_two_class_state(), [0.0, 0.0], 1)

    def test_run_episode_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            run_episode(self._lc_state(), [([0.5, 0.0], 1), ([np.nan, 0.0], 2)])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_input_far_from_every_class_is_refused(self):
        """On a 4-d, 2-class state, x = 1e160 * 1 is so far from every class
        that each squared distance overflows: predict returned NaN
        posteriors and a NaN novelty score, which the metrics refused later,
        or raised a RuntimeWarning. 1e150 * 1 still gets a posterior."""
        prior = SharedPrior(NaturalClassStats(q=np.zeros(4), lam=1.0))
        support = [(np.zeros(4), 1), (np.ones(4), 2)]
        state = init_small_context(prior, CrpParams.from_b(a=0.5, b=1.0), NOISE, Encoder.identity(), support)
        np.testing.assert_array_equal(predict(state, np.full(4, 1e150)).probs, [0.0, 0.0, 1.0])
        far = "input is too far from every class: no class gives it a finite log density"
        with pytest.raises(ValueError, match=f"^{far}$"):
            predict(state, np.full(4, 1e160))
        with pytest.raises(ValueError, match=f"^query 1: {far}$"):
            run_episode(state, [(np.ones(4), 1), (np.full(4, 1e160), 3), (np.zeros(4), 1)])


def _reference_probs(stats, state, counts, z):
    """The posterior as predict computed it from a tuple of NaturalClassStats
    before the state became arrays: rebuild the class table per query."""
    n = len(stats)
    p0 = state.prior.prior
    Q = np.vstack([np.array([s.q for s in stats]).reshape(n, p0.dim), p0.q[None, :]])
    lam = np.append(np.array([s.lam for s in stats]), p0.lam)
    means = Q / lam[:, None]
    variances = 1.0 / lam + state.noise.noise_variance
    logf = log_density_matrix(z[None, :], means, variances)
    with np.errstate(divide="ignore"):
        log_prior = np.log(predictive_class_probs(ClassCounts(counts), state.crp_params))
    logits = logf + log_prior[None, :]
    return np.exp(logits - losses.logsumexp(logits, axis=1)[:, None])[0]


# PREFIX_ENTRIES values that split a run into blocks and chunks differently:
# the default (None), numbers, and the stream's largest class count n or n + 1
# (a block of one step at n classes, more below it)
_ENTRIES = [None, 1, "n", "n + 1", 6, 30, 97]


def _prefix_entries(entries, n):
    return {None: losses.PREFIX_ENTRIES, "n": n, "n + 1": n + 1}.get(entries, entries)


@st.composite
def _streams(draw):
    """A random state (small- or large-context) and a dense label stream."""
    d = draw(st.integers(1, 4))
    n_kk = draw(st.sampled_from([0, 0, 1, 3]))
    choices = draw(st.lists(st.integers(0, 6), min_size=0, max_size=25))
    labels, n = [], n_kk
    for c in choices:
        y = min(c, n) + 1  # 1..n, or n + 1 to open a new class
        n = max(n, y)
        labels.append(y)
    return dict(
        d=d,
        n_kk=n_kk,
        labels=labels,
        seed=draw(st.integers(0, 2**32 - 1)),
        noise=draw(st.floats(0.05, 5.0)),
        lam0=draw(st.floats(0.05, 5.0)),
        a=draw(st.floats(0.0, 0.9)),
        b=draw(st.floats(0.1, 3.0)),
        affine=draw(st.booleans()),
        init_count=draw(st.integers(1, 3)),
        entries=draw(st.sampled_from(_ENTRIES)),
    )


class TestArrayStateMatchesDataclassFold:
    """The array state equals folding gaussian.condition over
    NaturalClassStats, row for row and bit for bit, and predict reproduces
    the dataclass-era posterior bit for bit; every intermediate state stays
    valid after its successors were derived (copy-on-write)."""

    @settings(max_examples=60, deadline=None)
    @given(_streams())
    def test_stream(self, case):
        rng = np.random.default_rng(case["seed"])
        d, n_kk = case["d"], case["n_kk"]
        noise = NoiseModel(case["noise"])
        prior = SharedPrior(NaturalClassStats(q=rng.normal(size=d), lam=case["lam0"]))
        crp = CrpParams.from_b(a=case["a"], b=case["b"])
        enc = Encoder.affine(rng.normal(size=(d, d)), rng.normal(size=d)) if case["affine"] else Encoder.identity()
        if n_kk:
            emb = ClassEmbeddings(means=rng.normal(size=(n_kk, d)), variances=rng.uniform(0.1, 2.0, n_kk))
            state = init_large_context(emb, prior, crp, noise, enc, init_count=case["init_count"])
            stats = [factor_to_natural(IsotropicGaussian(m, v)) for m, v in zip(emb.means, emb.variances)]
            counts = np.full(n_kk, case["init_count"])
        else:
            state = init_small_context(prior, crp, noise, enc, [])
            stats, counts = [], np.zeros(0, dtype=np.int64)
        X = rng.normal(size=(len(case["labels"]), d))

        states, expected = [state], [(list(stats), counts)]
        for x, y in zip(X, case["labels"]):
            np.testing.assert_array_equal(predict(state, x).probs, _reference_probs(stats, state, counts, enc(x)))
            state = update(state, x, y)
            if y == len(stats) + 1:
                stats.append(prior.prior)
                counts = np.append(counts, 2)  # a new class counts 2 after its first point
            else:
                counts = counts.copy()
                counts[y - 1] += 1
            if y > n_kk:
                stats[y - 1] = condition(stats[y - 1], enc(x), noise)
            states.append(state)
            expected.append((list(stats), counts))

        for state, (stats, counts) in zip(states, expected):
            n = len(stats)
            assert state.n_classes == n
            np.testing.assert_array_equal(state.counts, counts)
            np.testing.assert_array_equal(state.Q[:n].reshape(n, d), np.array([s.q for s in stats]).reshape(n, d))
            np.testing.assert_array_equal(state.lam[:n], [s.lam for s in stats])
            np.testing.assert_array_equal(state.Q[n], prior.prior.q)  # the novel slot stays last
            for q, lam, want in zip(state.Q, state.lam, stats):
                np.testing.assert_array_equal(q, want.q)
                assert lam == want.lam

        # run_episode's prefix pass gives the same outputs, also when its
        # steps are split over several blocks and chunks, and leaves the
        # input state as it was
        start = states[0]
        before = [a.copy() for a in (start.Q, start.lam, start.means, start.variances, start.counts)]
        with mock.patch.object(losses, "PREFIX_ENTRIES", _prefix_entries(case["entries"], states[-1].n_classes)):
            records, final = run_episode(start, zip(X, case["labels"]))
        assert len(records) == len(case["labels"])
        for i, record in enumerate(records):
            stats, counts = expected[i]
            np.testing.assert_array_equal(record.probs, _reference_probs(stats, states[i], counts, enc(X[i])))
            stepped = predict(states[i], X[i])
            assert (record.predicted, record.known_argmax, record.novelty_score, record.n_at_prediction) == (
                stepped.predicted, stepped.known_argmax, stepped.novelty_score, stepped.n_at_prediction
            )
            assert record.true_label == case["labels"][i]
        for got, want in zip((start.Q, start.lam, start.means, start.variances, start.counts), before):
            np.testing.assert_array_equal(got, want)
        for name in ("Q", "lam", "means", "variances"):
            np.testing.assert_array_equal(getattr(final, name), getattr(states[-1], name))
            assert not getattr(final, name).flags.writeable
        np.testing.assert_array_equal(final.counts, states[-1].counts)

        # init_small_context steps the same table: the rows of the update fold
        if n_kk == 0:
            built = init_small_context(prior, crp, noise, enc, zip(X, case["labels"]))
            for name in ("Q", "lam", "means", "variances"):
                np.testing.assert_array_equal(getattr(built, name), getattr(states[-1], name))
            np.testing.assert_array_equal(built.counts, states[-1].counts)


@st.composite
def _stream_blocks(draw):
    """Several dense label streams, empty ones too, from one start, the
    empty small-context state or a large-context one, each with a head of
    0-5 points."""
    n_kk = draw(st.sampled_from([0, 0, 1, 3]))
    streams = []
    for _ in range(draw(st.integers(1, 6))):
        labels, n = [], n_kk
        for c in draw(st.lists(st.integers(0, 6), max_size=20)):
            labels.append(min(c, n) + 1)  # 1..n, or n + 1 to open a new class
            n = max(n, labels[-1])
        streams.append((draw(st.integers(0, min(5, len(labels)))), labels))
    return dict(
        d=draw(st.integers(1, 4)),
        n_kk=n_kk,
        streams=streams,
        seed=draw(st.integers(0, 2**32 - 1)),
        noise=draw(st.floats(0.05, 5.0)),
        lam0=draw(st.floats(0.05, 5.0)),
        a=draw(st.floats(0.0, 0.9)),
        b=draw(st.floats(0.1, 3.0)),
        affine=draw(st.booleans()),
        init_count=draw(st.integers(0, 3)),
        entries=draw(st.sampled_from(_ENTRIES)),
    )


class TestRunEpisodes:
    """One _fold pass over a block of streams from one start gives each
    stream, bit for bit, what run_episode gives it alone; run_episodes runs
    its streams in order, so it raises the per-episode loop's first fault."""

    @settings(max_examples=80, deadline=None)
    @given(_stream_blocks())
    def test_each_stream_gets_what_it_gets_alone(self, case):
        """Each stream's head stepped by update, then its queries run by
        run_episode, give the outcomes and final state the block pass gives
        it, and run_episodes from the states the heads leave gives them too."""
        rng = np.random.default_rng(case["seed"])
        d, n_kk = case["d"], case["n_kk"]
        noise = NoiseModel(case["noise"])
        prior = SharedPrior(NaturalClassStats(q=rng.normal(size=d), lam=case["lam0"]))
        crp = CrpParams.from_b(a=case["a"], b=case["b"])
        encoder = Encoder.affine(rng.normal(size=(d, d)), rng.normal(size=d)) if case["affine"] else Encoder.identity()
        if n_kk:
            emb = ClassEmbeddings(means=rng.normal(size=(n_kk, d)), variances=rng.uniform(0.1, 2.0, n_kk))
            start = init_large_context(emb, prior, crp, noise, encoder, init_count=case["init_count"])
        else:
            start = init_small_context(prior, crp, noise, encoder, [])
        streams, heads = [], []
        for h, labels in case["streams"]:
            X = rng.normal(size=(len(labels), d))
            streams.append((X[:h], labels[:h], X[h:], labels[h:]))
            state = start
            for x, y in zip(X[:h], labels[:h]):
                state = update(state, x, y)
            heads.append((state, list(zip(X[h:], labels[h:]))))

        n = max(max([n_kk, *labels]) for _, labels in case["streams"])  # the largest class count
        with mock.patch.object(losses, "PREFIX_ENTRIES", _prefix_entries(case["entries"], n)):
            together = [(out.records(), final) for out, final in _fold(start, streams)]
            one_by_one = run_episodes(iter(heads))
        assert len(together) == len(one_by_one) == len(streams)
        for (state, queries), *results in zip(heads, together, one_by_one):
            want_records, want = run_episode(state, queries)
            for records, final in results:
                assert len(records) == len(want_records)
                for got, rec in zip(records, want_records):
                    np.testing.assert_array_equal(got.probs, rec.probs)
                    assert (got.predicted, got.known_argmax, got.novelty_score, got.n_at_prediction,
                            got.true_label) == (rec.predicted, rec.known_argmax, rec.novelty_score,
                                                rec.n_at_prediction, rec.true_label)
                for name in ("Q", "lam", "means", "variances"):
                    np.testing.assert_array_equal(getattr(final, name), getattr(want, name))
                np.testing.assert_array_equal(final.counts, want.counts)
                assert (final.n_kk, final.encoder) == (want.n_kk, want.encoder)

    @pytest.mark.parametrize(
        "make_state, inputs, labels, error, message",
        _INPUT_FAULTS + [(make, [x for x, _ in q], [y for _, y in q], e, m) for make, q, e, m in _QUERY_FAULTS],
    )
    def test_first_faulty_stream_is_reported(self, make_state, inputs, labels, error, message):
        """A clean stream, the faulty one, then one with a label fault at
        query 0: the middle stream's fault is raised, as the per-episode
        loop raised it."""
        state = make_state()
        if not message.startswith("^"):  # an _INPUT_FAULTS case
            message = _at("query", message)
        streams = [(state, [([0.0], 1), ([0.0], 2)]), (state, list(zip(inputs, labels))), (state, [([0.0], 0)])]
        with np.errstate(over="ignore"):
            with pytest.raises(error, match=message):
                for s, queries in streams:
                    run_episode(s, queries)
            with pytest.raises(error, match=message):
                run_episodes(streams)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_far_query_in_stream_order_is_reported(self):
        """Steps are scored in runs of one class count, not stream by stream,
        yet the far query reported is the first in stream order, as the
        per-episode loop reports it: the second stream's query 2 (scored
        against 2 classes), not the third stream's query 0 (against none),
        nor the last stream's label fault, though every stream is read
        before any is scored. A read fault in the first stream comes first."""
        far = "input is too far from every class: no class gives it a finite log density"
        state = _empty_state()
        streams = [
            (state, [([0.0], 1)]),
            (state, [([0.0], 1), ([1.0], 2), ([1e160], 3)]),
            (state, [([-1e160], 1)]),
            (state, [([0.0], 0)]),
        ]
        with pytest.raises(ValueError, match=f"^query 2: {far}$"):
            for s, queries in streams:
                run_episode(s, queries)
        with pytest.raises(ValueError, match=f"^query 2: {far}$"):
            run_episodes(streams)
        with pytest.raises(ProtocolError, match="^query 0: label 0 is not a positive class index$"):
            run_episodes(streams[3:] + streams[:3])

    def test_streams_from_other_states_get_what_they_get_alone(self):
        """Streams from states with other CRP parameters, other rows below
        n_kk or other n_kk each get what run_episode gives them alone."""
        lc = init_large_context(
            ClassEmbeddings(means=[[0.0], [1.0]], variances=[1.0, 1.0]),
            SharedPrior(NaturalClassStats(q=[0.0], lam=1.0)), CrpParams.from_b(a=0.5, b=1.0), NOISE, Encoder.identity(),
        )
        moved = update(lc, [3.0], 3)  # a third class: the rows below n_kk stay
        other = init_large_context(
            ClassEmbeddings(means=[[0.0], [2.0]], variances=[1.0, 1.0]),
            lc.prior, lc.crp_params, NOISE, Encoder.identity(),
        )
        pairs = [(lc, moved, 3), (lc, other, 1), (_empty_state(), _empty_state(b=2.0), 1), (_empty_state(), lc, 1)]
        for streams in ([(first, [([0.0], 1)]), (second, [([0.0], y)])] for first, second, y in pairs):
            for (state, queries), (records, final) in zip(streams, run_episodes(streams)):
                (want,), want_final = run_episode(state, queries)
                np.testing.assert_array_equal(records[0].probs, want.probs)
                assert (records[0].predicted, records[0].novelty_score) == (want.predicted, want.novelty_score)
                np.testing.assert_array_equal(final.Q, want_final.Q)
                np.testing.assert_array_equal(final.counts, want_final.counts)


def _stepped(state, streams):
    """The test-local reference for _fold's faults: each stream's head
    points conditioned by update from state, then each query predicted and
    conditioned in turn. The first fault raised, unprefixed, and the
    (what, i) of the point it was raised at; (None, None, None) if none."""
    for sx, sy, qx, qy in streams:
        s = state
        for what, xs, ys in (("support point", sx, sy), ("query", qx, qy)):
            for i, (x, y) in enumerate(zip(xs, ys)):
                try:
                    if what == "query":
                        predict(s, x)
                    s = update(s, x, y)
                except ValueError as e:
                    return e, what, i
    return None, None, None


class TestFold:
    """_fold over streams that each have a head (a support) and queries,
    the shape runner.evaluate feeds it, which no public entry point can
    put a fault into."""

    @pytest.mark.parametrize("part", ["support point", "query"])
    @pytest.mark.parametrize(
        "x, y, prefixed",
        [
            ([1e150], 1, True),  # conditioning on it overflows its row
            ([0.0], 5, True),  # its label skips ahead
            ([1e300], 1, True),  # a query too far from every class; in the head, a row it overflows
            ([0.0, 0.0], 1, False),  # an input of the wrong shape
        ],
    )
    def test_fault_is_raised_as_stepping_raises_it(self, part, x, y, prefixed):
        """The middle stream's fault, at its point 1, is raised with the
        type and message stepping gives it, prefixed `{what} 1: ` unless it
        is an input fault, ahead of the last stream's label fault."""
        state = _fine_noise_state()
        streams = [[[[0.0], [1.0]], [1, 2], [[0.5], [0.0], [2.0]], [1, 3, 2]] for _ in range(3)]
        at = 0 if part == "support point" else 2
        streams[1][at].insert(1, x)
        streams[1][at + 1].insert(1, y)
        streams[2][3][0] = 0
        with np.errstate(over="ignore"):
            want, what, i = _stepped(state, streams)
            assert (what, i) == (part, 1)
            with pytest.raises(type(want)) as got:
                _fold(state, streams)
        assert type(got.value) is type(want)
        assert str(got.value) == (f"{part} 1: {want}" if prefixed else str(want))
        assert got.value.row == 1

    def test_clean_streams_are_not_stepped(self):
        """A clean block is one pass: nothing is predicted or updated one by one."""
        streams = [([[0.0], [1.0]], [1, 2], [[0.5], [3.0]], [1, 3]) for _ in range(2)]
        with mock.patch("flowr.model.update", side_effect=AssertionError("stepped")):
            results = _fold(_empty_state(), streams)
        assert [len(records) for records, _ in results] == [2, 2]


def _batch_predict(state, x):
    """predict as the batch helpers wrote it before it scored one query on
    vectors: log_density_matrix on a block of one encoded input, the log
    CRP prior, losses._bayes, and known_argmax by its documented fallbacks.
    Kept as the reference the one-query path must match bit for bit."""
    table = state._table
    logf = log_density_matrix(_encode(state.encoder, state.dim, [x]), table.means, table.variances)
    with np.errstate(divide="ignore"):
        log_prior = np.log(predictive_class_probs(table, state.crp_params))
    log_post = losses._bayes(logf, log_prior)
    if math.isnan(log_post[0, -1]):
        raise ValueError(_FAR)
    probs, n = np.exp(log_post[0]), table.n
    if n == 0:
        known = None
    elif probs[:n].any():
        known = int(probs[:n].argmax()) + 1
    elif np.isfinite(log_post[0, :n]).any():
        known = int(log_post[0, :n].argmax()) + 1
    else:
        known = int(logf[0, :n].argmax()) + 1
    return PredictionRecord(probs, int(probs.argmax()) + 1, known, float(probs[-1]), n)


def _same_record(got, want):
    np.testing.assert_array_equal(got.probs, want.probs)
    assert (got.predicted, got.known_argmax, got.novelty_score, got.n_at_prediction) == (
        want.predicted, want.known_argmax, want.novelty_score, want.n_at_prediction
    )


class TestLargeContextShape:
    """predict and update at the shape of the benchmark's online stream:
    1,000 persistent classes, d = 64, an identity-affine encoder and 5
    novel classes interleaved, where the difference block's einsum takes
    its vector path and the sums and logs run over long rows, which the
    property tests (d <= 4, a few classes) do not reach."""

    N, D, NOVEL = 1000, 64, 5

    def _start(self, init_count, b=1.0):
        rng = np.random.default_rng(init_count)
        emb = ClassEmbeddings(means=rng.normal(size=(self.N, self.D)), variances=np.full(self.N, 0.5 / 20))
        prior = SharedPrior(NaturalClassStats(q=np.zeros(self.D), lam=1.0))
        crp = CrpParams.from_b(a=0.5, b=b)
        state = init_large_context(emb, prior, crp, NOISE, Encoder.identity_affine(self.D), init_count=init_count)
        return state, emb.means, rng

    def _stream(self, means, rng, known=240):
        """known points of random persistent classes and 8 of each novel
        class, shuffled: a novel class is labelled n + 1 at its first point,
        n counting the classes seen before it (the N persistent ones when
        known > 0)."""
        centres = np.vstack([means, rng.normal(size=(self.NOVEL, self.D))])
        novel = np.repeat(self.N + np.arange(self.NOVEL), 8)
        classes = rng.permutation(np.append(rng.integers(0, self.N, size=known), novel))
        opened, n0 = {}, self.N if known else 0
        labels = [c + 1 if c < self.N else opened.setdefault(c, n0 + len(opened) + 1) for c in classes]
        X = centres[classes] + rng.normal(size=(len(classes), self.D)) * math.sqrt(NOISE.noise_variance)
        return list(zip(X, labels))

    @pytest.mark.parametrize("init_count", [1, 0])
    def test_stepping_matches_the_batch_predict_and_run_episode(self, init_count):
        """At init_count=0 no known class has mass until its first label,
        so known_argmax falls back to the highest log posterior."""
        start, means, rng = self._start(init_count)
        stream = self._stream(means, rng)
        records, final = run_episode(start, stream)
        state, fallbacks = start, 0
        for (x, y), rec in zip(stream, records):
            got = predict(state, x)
            _same_record(got, _batch_predict(state, x))
            _same_record(got, rec)
            fallbacks += not got.probs[: state.n_classes].any()
            state = update(state, x, y)
        assert state.n_classes == self.N + self.NOVEL
        assert fallbacks > 0 if init_count == 0 else fallbacks == 0
        for name in ("Q", "lam", "means", "variances", "log_norm", "two_v", "counts"):
            np.testing.assert_array_equal(getattr(state._table, name), getattr(final._table, name))
        for got, want in zip((state._table.log_norm, state._table.two_v), density_constants(state.variances, self.D)):
            np.testing.assert_array_equal(got, want)

    def test_empty_state(self):
        """No class yet: the whole posterior on the novel slot, then the
        classes the stream opens, as the batch predict scores them."""
        state, means, rng = self._start(1)
        state = init_small_context(state.prior, state.crp_params, NOISE, state.encoder, [])
        stream = self._stream(means, rng, known=0)
        np.testing.assert_array_equal(predict(state, stream[0][0]).probs, [1.0])
        records, final = run_episode(state, stream)
        for (x, y), rec in zip(stream, records):
            _same_record(predict(state, x), _batch_predict(state, x))
            _same_record(predict(state, x), rec)
            state = update(state, x, y)
        for name in ("Q", "lam", "means", "variances", "log_norm", "two_v", "counts"):
            np.testing.assert_array_equal(getattr(state._table, name), getattr(final._table, name))

    def test_faults(self):
        """b <= 0 with no count yet, and a query too far from every class,
        are refused with the batch predict's messages."""
        no_mass, means, _ = self._start(0, b=-0.25)
        far = (self._start(1)[0], np.full(self.D, 1e160), ValueError)
        for state, x, error in ((no_mass, means[0], InvalidStateError), far):
            with pytest.raises(error) as want:
                _batch_predict(state, x)
            with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
                predict(state, x)
        assert str(want.value) == _FAR


class TestEncode:
    """_encode, the one encoding path of run_episode, init_small_context,
    fine-tuning and the NCM baseline (predict and update read one input
    with its one-vector case, _encode_one), encodes a whole block at once
    and gives each row what encoding that vector alone gives, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        d_in=st.integers(1, 70),
        d=st.integers(1, 70),
        m=st.integers(1, 40),
        affine=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d_in=5, d=1, m=1, affine=True, seed=0)
    @example(d_in=1, d=4, m=1, affine=True, seed=1)
    @example(d_in=64, d=48, m=30, affine=True, seed=2)
    @example(d_in=1, d=1, m=3, affine=False, seed=3)
    def test_matches_per_row_encoding(self, d_in, d, m, affine, seed):
        rng = np.random.default_rng(seed)
        if affine:
            enc = Encoder.affine(rng.normal(size=(d, d_in)), rng.normal(size=d))
        else:
            enc, d = Encoder.identity(), d_in
        state = init_small_context(
            SharedPrior(NaturalClassStats(q=np.zeros(d), lam=1.0)), CrpParams.from_b(a=0.5, b=1.0), NOISE, enc, []
        )
        X = rng.normal(size=(m, d_in)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
        Z = _encode(state.encoder, state.dim, list(X))
        want = np.array([enc.weight @ x + enc.bias if affine else x for x in X])
        assert Z.shape == (m, d)
        np.testing.assert_array_equal(Z, want)
        np.testing.assert_array_equal(_encode_one(state.encoder, state.dim, X[-1]), want[-1])

    @pytest.mark.parametrize("x", [[0.0, 0.0], [[0.0]], 0.0, [np.nan], [np.inf], [10**400], [{}], "a", [1e10]])
    @pytest.mark.parametrize(
        "encoder", [Encoder.identity(), Encoder.affine([[1e300]], [0.0]), Encoder.affine([[1.0, 1.0]], [0.0]),
                    Encoder.affine(np.eye(2), np.zeros(2))],
    )
    def test_one_input_as_in_a_block(self, x, encoder):
        """_encode_one, the read of predict and update, gives what _encode
        gives a block of the one input, bit for bit, or refuses it with the
        same error, message and row."""
        with np.errstate(over="ignore"):  # 1e300 * 1e10 overflows the encoder's matmul
            try:
                want = _encode(encoder, 1, [x])[0]
            except (TypeError, ValueError) as e:
                with pytest.raises(type(e)) as got:
                    _encode_one(encoder, 1, x)
                assert (str(got.value), got.value.row) == (str(e), e.row)
            else:
                np.testing.assert_array_equal(_encode_one(encoder, 1, x), want)


def _stepped_support_table(state, support):
    """init_small_context as it was written before the prefix pass: encode
    each point alone and step the empty state's class table with
    condition(). Kept as the reference the one-pass build must match bit
    for bit."""
    table = state._table
    for x, y in support:
        table = table.condition(state.encoder(np.asarray(x, dtype=np.float64)), y)
    return table


@st.composite
def _supports(draw):
    """A dense-labelled support set and the model parts, at extreme noise
    and prior scales, with CRP strengths b <= 0 among them."""
    choices = draw(st.lists(st.integers(0, 5), min_size=0, max_size=30))
    labels, n = [], 0
    for c in choices:
        y = min(c, n) + 1
        n = max(n, y)
        labels.append(y)
    a = draw(st.floats(0.1, 0.9))
    return dict(
        labels=labels,
        d_in=draw(st.integers(1, 5)),
        d=draw(st.integers(1, 5)),
        affine=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
        noise=10.0 ** draw(st.floats(-6.0, 6.0)),
        lam0=draw(st.sampled_from([1e-6, 1e-3, 0.5, 5.0])),
        a=a,
        b=a * draw(st.floats(-0.95, 3.0)),
        fine_tune=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(_supports())
def test_init_small_context_matches_stepped_fold(case):
    """init_small_context builds exactly the table that stepping the
    support through ClassTable.condition builds: rows, cached means and
    variances and counts, bit for bit; also for the state the fine-tuned
    encoder rebuilds (one-point supports included), and with b <= 0, which
    building never scores."""
    rng = np.random.default_rng(case["seed"])
    d_in, d = case["d_in"], case["d"]
    if case["affine"]:
        enc = Encoder.affine(rng.normal(size=(d, d_in)), rng.normal(size=d))
    else:
        enc, d = Encoder.identity(), d_in
    prior = SharedPrior(NaturalClassStats(q=rng.normal(size=d), lam=case["lam0"]))
    crp, noise = CrpParams.from_b(a=case["a"], b=case["b"]), NoiseModel(case["noise"])
    support = [(x, y) for x, y in zip(rng.normal(size=(len(case["labels"]), d_in)), case["labels"])]

    built = init_small_context(prior, crp, noise, enc, support)
    if case["fine_tune"] and case["affine"] and support:
        built = fine_tune_output_layer(built, support, 1, 0.01)
    want = _stepped_support_table(init_small_context(prior, crp, noise, built.encoder, []), support)
    assert built.n_classes == want.n
    for name in ("Q", "lam", "means", "variances", "counts"):
        np.testing.assert_array_equal(getattr(built._table, name), getattr(want, name))


# the edge-state fuzz: every axis at its everyday value, then one moved at a time
_EDGE_BASE = dict(noise=0.5, lam0=1.0, b=1.0, count=1, scale=1.0)
_EDGE_EXPONENTS = dict(noise=(-300.0, 6.0), lam0=(-300.0, 300.0), b=(-12.0, 300.0), scale=(0.0, 300.0))


@st.composite
def _edge_cases(draw):
    """A state of n classes in dimension d and a dense labelled stream, with
    one of noise variance, lambda_0, b, the known classes' counts and the
    inputs' scale taken to an extreme."""
    case = dict(_EDGE_BASE, d=draw(st.integers(1, 6)), n=draw(st.integers(0, 8)), seed=draw(st.integers(0, 2**32 - 1)))
    axis = draw(st.sampled_from(sorted(_EDGE_EXPONENTS) + ["count"]))
    if axis == "count":
        case["count"] = draw(st.sampled_from([0, 1, 10**18]))
    else:
        case[axis] = 10.0 ** draw(st.floats(*_EDGE_EXPONENTS[axis]))
    choices = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8))
    labels, n = [], case["n"]
    for c in choices:
        y = min(c, n) + 1
        n = max(n, y)
        labels.append(y)
    return dict(case, labels=labels)


@settings(max_examples=50, deadline=None)
@given(_edge_cases())
@example(dict(_EDGE_BASE, d=512, n=1000, seed=0, labels=[1, 1000, 1001, 1001, 7, 1002]))
def test_edge_states_give_a_posterior_or_one_line_error(case):
    """predict, update and run_episode at extreme noise, prior and CRP
    scales, huge class counts and huge inputs, up to d = 512 with 1,000
    classes, return finite posteriors that sum to 1 within 1e-9, or refuse
    with a one-line ValueError."""
    rng = np.random.default_rng(case["seed"])
    d, n = case["d"], case["n"]
    prior = SharedPrior(NaturalClassStats(q=case["lam0"] * rng.normal(size=d), lam=case["lam0"]))
    parts = (prior, CrpParams.from_b(a=0.5, b=case["b"]), NoiseModel(case["noise"]), Encoder.identity())
    X = rng.normal(size=(len(case["labels"]), d)) * case["scale"]
    records = []
    try:
        if n:
            emb = ClassEmbeddings(means=rng.normal(size=(n, d)), variances=rng.uniform(0.5, 2.0, n))
            state = init_large_context(emb, *parts, init_count=case["count"])
        else:
            state = init_small_context(*parts, [])
        stepped = state
        for x, y in zip(X, case["labels"]):
            records.append(predict(stepped, x))
            stepped = update(stepped, x, y)
        records += run_episode(state, zip(X, case["labels"]))[0]
    except ValueError as e:
        assert str(e) and "\n" not in str(e)
        return
    for record in records:
        assert np.isfinite(record.probs).all()
        assert abs(record.probs.sum() - 1.0) <= 1e-9
