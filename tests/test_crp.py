"""Two-parameter CRP predictive over class counts.

The hand-derived probabilities were computed directly from the clamped
numerators (max(k_n - a, 0) for seen classes, b + a N+ for the novel slot)
over k + b; exchangeability is checked against independently permuted
sequences canonicalised back to arrival order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowr.crp import (
    ClassCounts,
    CrpParams,
    InvalidStateError,
    ProtocolError,
    arrival_labels,
    class_prior,
    grad_b,
    inverse_softplus,
    label_fault,
    predictive_class_probs,
    sequence_log_prob,
    softplus,
)


class TestCrpParams:
    def test_b_construction(self):
        p = CrpParams.from_b(a=0.5, b=1.0)
        np.testing.assert_allclose(p.b, 1.0, rtol=1e-12)
        np.testing.assert_allclose(softplus(p.rho), 1.5, rtol=1e-12)

    @given(a=st.floats(0.0, 0.99), rho=st.floats(-30.0, 30.0))
    def test_b_exceeds_minus_a_by_construction(self, a, rho):
        p = CrpParams(a=a, rho=rho)
        assert p.b > -p.a

    def test_discount_range(self):
        with pytest.raises(ValueError):
            CrpParams(a=1.0, rho=0.0)
        with pytest.raises(ValueError):
            CrpParams(a=-0.1, rho=0.0)

    def test_inverse_softplus_roundtrip(self):
        for y in [1e-4, 0.5, 1.5, 20.0]:
            np.testing.assert_allclose(softplus(inverse_softplus(y)), y, rtol=1e-9)
        with pytest.raises(ValueError):
            inverse_softplus(0.0)

    @pytest.mark.parametrize("y", [1e-8, 1e-12, 1e-15, 1e-300])
    def test_inverse_softplus_keeps_precision_near_zero(self, y):
        """y + log1p(-exp(-y)) lost the digits of 1 - exp(-y) as y -> 0:
        the round trip was off by 2e-5 at 1e-12 and gave -inf at 1e-300."""
        np.testing.assert_allclose(softplus(inverse_softplus(y)), y, rtol=1e-13, atol=0)

    def test_strength_near_minus_a_constructs(self):
        """b + a = 1e-300 used to fail as "rho must be finite"."""
        p = CrpParams.from_b(0.0, 1e-300)
        np.testing.assert_allclose(p.b, 1e-300, rtol=1e-13, atol=0)

    def test_inverse_softplus_keeps_large_y_form(self):
        """Above the cut-off the value is y + log1p(-exp(-y)) bit for bit, as
        at the 1.5 every default strength uses."""
        for y in [0.5, 1.5, 2.5, 800.0]:
            assert inverse_softplus(y) == float(y + np.log1p(-np.exp(-y)))


class TestCounts:
    def test_counts_are_immutable_and_owned(self):
        raw = np.array([1, 2], dtype=np.int64)
        c = ClassCounts(counts=raw)
        with pytest.raises(ValueError):
            c.counts[0] = 5
        raw[0] = 5  # caller's array must stay writable
        assert c.counts[0] == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ClassCounts(counts=[-1])

    @pytest.mark.parametrize("raw, bad", [([1.5, 2.7], "0: 1.5"), ([1.0, 2.7], "1: 2.7"), ([2, np.nan], "1: nan")])
    def test_non_integer_counts_rejected(self, raw, bad):
        """[1.5, 2.7] used to be truncated to the counts [1, 2]."""
        with pytest.raises(ValueError, match=f"^count {bad} is not an integer$"):
            ClassCounts(counts=raw)

    def test_integer_valued_float_counts_accepted(self):
        np.testing.assert_array_equal(ClassCounts(counts=[1.0, 2.0]).counts, [1, 2])
        assert ClassCounts(counts=[1.0, 2.0]).counts.dtype == np.int64


class TestPredictive:
    def test_hand_case(self):
        """a=0.5, b=1, counts=[3,2] -> [2.5/6, 1.5/6, 2/6]."""
        p = predictive_class_probs(ClassCounts(counts=[3, 2]), CrpParams.from_b(a=0.5, b=1.0))
        np.testing.assert_allclose(p, [2.5 / 6, 1.5 / 6, 2.0 / 6], rtol=1e-12)

    def test_one_parameter_limit(self):
        """a=0, b=1, counts=[9] -> [0.9, 0.1]."""
        p = predictive_class_probs(ClassCounts(counts=[9]), CrpParams.from_b(a=0.0, b=1.0))
        np.testing.assert_allclose(p, [0.9, 0.1], rtol=1e-12)

    def test_no_classes_is_all_novel(self):
        p = predictive_class_probs(ClassCounts(np.zeros(0, dtype=np.int64)), CrpParams.from_b(a=0.5, b=1.0))
        np.testing.assert_array_equal(p, [1.0])

    def test_zero_counts_with_nonpositive_b(self):
        """k=0 with b <= 0 has no mass anywhere and must signal."""
        params = CrpParams(a=0.5, rho=inverse_softplus(0.4))  # b = -0.1
        assert params.b < 0
        with pytest.raises(InvalidStateError):
            predictive_class_probs(ClassCounts(np.zeros(3, dtype=np.int64)), params)

    @given(
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=12),
        a=st.floats(0.0, 0.95),
        rho=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=200)
    def test_sums_to_one(self, counts, a, rho):
        """Renormalised output sums to 1 within 1e-12 and lies in [0, 1]."""
        params = CrpParams(a=a, rho=rho)
        c = ClassCounts(counts=np.array(counts))
        if sum(counts) == 0 and params.b <= 0.0:
            return
        p = predictive_class_probs(c, params)
        assert len(p) == len(counts) + 1
        np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=1e-12)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    @given(
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=12),
        a=st.floats(0.0, 0.95),
        rho=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=100)
    def test_novel_mass_positive(self, counts, a, rho):
        """The novel slot keeps strictly positive mass whenever its
        numerator b + a N+ is positive."""
        params = CrpParams(a=a, rho=rho)
        c = ClassCounts(counts=np.array(counts))
        if sum(counts) == 0 and params.b <= 0.0:
            return
        n_pos = int(np.count_nonzero(c.counts))
        p = predictive_class_probs(c, params)
        if params.b + params.a * n_pos > 0:
            assert p[-1] > 0.0

    def test_zero_count_classes_keep_zero_mass(self):
        p = predictive_class_probs(ClassCounts(counts=[0, 4, 0]), CrpParams.from_b(a=0.5, b=1.0))
        assert p[0] == 0.0 and p[2] == 0.0
        assert p[1] > 0.0 and p[-1] > 0.0

    def test_count_monotonicity(self):
        """Raising one class count strictly raises that class's mass and
        strictly lowers the novel slot's."""
        params = CrpParams.from_b(a=0.5, b=1.0)
        before = predictive_class_probs(ClassCounts(counts=[3, 2]), params)
        after = predictive_class_probs(ClassCounts(counts=[4, 2]), params)
        assert after[0] > before[0]
        assert after[-1] < before[-1]


class TestPredictiveGradB:
    @given(
        counts=st.lists(st.integers(0, 5), min_size=0, max_size=10),
        a=st.floats(0.0, 0.9),
        b=st.floats(0.1, 5.0),
    )
    @settings(max_examples=200)
    def test_matches_central_differences(self, counts, a, b):
        """Fed a one-hot d loss / d log p, grad_b over class_prior's masses
        is d log p_c / d b, which matches central differences in b on every
        class with mass."""
        c = np.array(counts, dtype=np.int64)
        params = CrpParams.from_b(a=a, b=b)
        b, h = params.b, 1e-5
        u, p = class_prior(c, params)
        with np.errstate(divide="ignore"):
            hi, lo = (np.log(class_prior(c, CrpParams.from_b(a=a, b=b + s))[1]) for s in (h, -h))
        for k in np.flatnonzero(p > 0.0):
            one_hot = np.zeros(len(p))
            one_hot[k] = 1.0
            np.testing.assert_allclose(grad_b(u, one_hot), (hi[k] - lo[k]) / (2 * h), rtol=1e-6, atol=1e-6)


def _canonical_arrival(labels):
    """Relabel a sequence to first-appearance order so a permuted partition
    is again a valid arrival sequence."""
    seen = {}
    out = []
    for y in labels:
        if y not in seen:
            seen[y] = len(seen) + 1
        out.append(seen[y])
    return out


class TestSequenceLogProb:
    def test_first_point_is_certainly_novel(self):
        assert sequence_log_prob([1], CrpParams.from_b(a=0.5, b=1.0)) == 0.0

    def test_two_point_hand_case(self):
        """[1, 1] with a=0.5, b=1: the second point lands in the one seen
        class with probability (1 - 0.5) / (1 + 1) = 0.25."""
        value = sequence_log_prob([1, 1], CrpParams.from_b(a=0.5, b=1.0))
        np.testing.assert_allclose(value, np.log(0.25), rtol=1e-12)

    def test_arrival_protocol_enforced(self):
        params = CrpParams.from_b(a=0.5, b=1.0)
        with pytest.raises(ProtocolError, match="^position 0: label 2 skips ahead of the 0 known classes$"):
            sequence_log_prob([2], params)
        with pytest.raises(ProtocolError, match="^position 1: label 3 skips ahead of the 1 known classes$"):
            sequence_log_prob([1, 3], params)

    @pytest.mark.parametrize("labels", [[1, 1.5], [1, 2.7]])
    def test_non_integer_label_is_refused(self, labels):
        """[1, 1.5] used to score as [1, 1] (-1.3863 at a = 0.5, b = 1) and
        [1, 2.7] as [1, 2] (-0.2877)."""
        message = f"^position 1: label {labels[1]} is not an integer class index$"
        with pytest.raises(ProtocolError, match=message):
            sequence_log_prob(labels, CrpParams.from_b(a=0.5, b=1.0))

    @given(
        labels=st.lists(st.integers(1, 4), min_size=2, max_size=10),
        a=st.floats(0.0, 0.9),
        b=st.floats(0.1, 5.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_exchangeability(self, labels, a, b, seed):
        """Any permutation inducing the same partition has the same log
        probability within 1e-9."""
        labels = _canonical_arrival(labels)
        params = CrpParams.from_b(a=a, b=b)
        base = sequence_log_prob(labels, params)
        rng = np.random.default_rng(seed)
        perm = _canonical_arrival([labels[i] for i in rng.permutation(len(labels))])
        np.testing.assert_allclose(sequence_log_prob(perm, params), base, rtol=0, atol=1e-9)

    def test_longer_hand_case(self):
        """[1, 2, 1]: 1 * (b + a)/(1 + b) * (1 - a)/(2 + b), evaluated for
        a=0.5, b=2."""
        params = CrpParams.from_b(a=0.5, b=2.0)
        expected = np.log(2.5 / 3.0) + np.log(0.5 / 4.0)
        np.testing.assert_allclose(sequence_log_prob([1, 2, 1], params), expected, rtol=1e-12)


def _stepped_fault(n, labels):
    """The first (position, why) that stepping label_fault meets, or None."""
    for i, y in enumerate(labels):
        why = label_fault(y, n)
        if why:
            return i, why
        n = max(n, int(y))
    return None


_LABELS = st.one_of(
    st.integers(-3, 8),
    st.integers(-3, 8).map(float),
    st.integers(-3, 8).map(lambda y: y + 0.5),
    st.just(float("nan")),
    st.integers(2**62, 2**70),
    st.floats(2.0**62, 1e300),
    st.sampled_from([0, 0.0, -0.0, float("inf"), float("-inf")]),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 6), labels=st.lists(_LABELS, max_size=12), as_array=st.booleans())
@example(n=0, labels=[1.0, 2**62 + 1], as_array=False)
def test_scan_agrees_with_stepping_the_rule(n, labels, as_array):
    """arrival_labels names the fault stepping label_fault meets first, by
    position and message, and otherwise returns the labels as int64; a list
    or the array numpy makes of it. A fault is named from the label as
    given: in a list mixing floats and ints, 2**62 + 1 is no float."""
    if as_array:
        labels = np.asarray(labels)
    fault = _stepped_fault(n, labels)
    if fault:
        with pytest.raises(ProtocolError) as e:
            arrival_labels(n, labels, "step")
        assert str(e.value) == f"step {fault[0]}: {fault[1]}"
    else:
        got = arrival_labels(n, labels, "step")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [int(y) for y in labels])
