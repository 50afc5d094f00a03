"""Conjugate isotropic-Gaussian inference in natural parameters.

Each frozen constant below was computed from the moment-space conjugate
formulas (posterior mean = (sigma_e^-2 sum(z) + sigma_0^-2 mu_0) /
(sigma_0^-2 + K sigma_e^-2)) or from scipy.stats.norm, independently of
the natural-parameter recursion under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from flowr.gaussian import (
    IsotropicGaussian,
    NaturalClassStats,
    NoiseModel,
    SharedPrior,
    batch_posterior,
    condition,
    differences,
    factor_to_natural,
    log_density,
    log_density_matrix,
    natural_to_moment,
    posterior_predictive,
)


class TestConversions:
    def test_factor_to_natural_scalar_case(self):
        """mean=[2,-2], variance=0.5 -> q=[4,-4], lambda=2."""
        s = factor_to_natural(IsotropicGaussian(mean=[2.0, -2.0], variance=0.5))
        np.testing.assert_allclose(s.q, [4.0, -4.0])
        assert s.lam == 2.0

    def test_natural_to_moment_scalar_case(self):
        """q=[2], lambda=3 -> mean=[2/3], variance=1/3."""
        g = natural_to_moment(NaturalClassStats(q=[2.0], lam=3.0))
        np.testing.assert_allclose(g.mean, [2.0 / 3.0])
        np.testing.assert_allclose(g.variance, 1.0 / 3.0)

    def test_unit_roundtrip(self):
        g = natural_to_moment(NaturalClassStats(q=[0.0], lam=1.0))
        np.testing.assert_allclose(g.mean, [0.0])
        assert g.variance == 1.0

    @given(
        mean=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        variance=st.floats(1e-3, 1e3),
    )
    def test_roundtrip_identity(self, mean, variance):
        """factor -> natural -> moment returns the inputs within 1e-12."""
        g = IsotropicGaussian(mean=np.array(mean), variance=variance)
        back = natural_to_moment(factor_to_natural(g))
        np.testing.assert_allclose(back.mean, g.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(back.variance, g.variance, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            IsotropicGaussian(mean=[0.0], variance=0.0)
        with pytest.raises(ValueError):
            NaturalClassStats(q=[np.inf], lam=1.0)
        with pytest.raises(ValueError):
            NaturalClassStats(q=[[0.0]], lam=1.0)
        with pytest.raises(ValueError):
            NoiseModel(noise_variance=-1.0)


class TestCondition:
    def test_single_point(self):
        """q=[0], lambda=1, z=[1], noise 0.5 -> q=[2], lambda=3."""
        s = condition(NaturalClassStats(q=[0.0], lam=1.0), [1.0], NoiseModel(0.5))
        np.testing.assert_allclose(s.q, [2.0])
        assert s.lam == 3.0

    def test_two_points_match_moment_formula(self):
        """Conditioning on z=[1] then z=[0] gives q=[2], lambda=5,
        posterior mean 0.4: the moment-space batch formula evaluated by
        hand."""
        noise = NoiseModel(0.5)
        s = condition(NaturalClassStats(q=[0.0], lam=1.0), [1.0], noise)
        s = condition(s, [0.0], noise)
        np.testing.assert_allclose(s.q, [2.0])
        assert s.lam == 5.0
        np.testing.assert_allclose(natural_to_moment(s).mean, [0.4])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            condition(NaturalClassStats(q=[0.0], lam=1.0), [1.0, 2.0], NoiseModel(0.5))


class TestBatchPosterior:
    def test_closed_form_case(self):
        """Prior N(0, 1), noise 0.5, Z=[[1],[0]] -> posterior N(0.4, 0.2)."""
        post = batch_posterior(NaturalClassStats(q=[0.0], lam=1.0), [[1.0], [0.0]], NoiseModel(0.5))
        g = natural_to_moment(post)
        np.testing.assert_allclose(g.mean, [0.4])
        np.testing.assert_allclose(g.variance, 0.2)

    def test_empty_batch_is_prior(self):
        prior = NaturalClassStats(q=[1.0, 2.0], lam=3.0)
        post = batch_posterior(prior, np.zeros((0, 2)), NoiseModel(0.5))
        np.testing.assert_allclose(post.q, prior.q)
        assert post.lam == prior.lam

    def test_accepts_shared_prior(self):
        prior = NaturalClassStats(q=[0.0], lam=1.0)
        a = batch_posterior(prior, [[1.0]], NoiseModel(0.5))
        b = batch_posterior(SharedPrior(prior), [[1.0]], NoiseModel(0.5))
        np.testing.assert_allclose(a.q, b.q)
        assert a.lam == b.lam

    @given(
        d=st.integers(1, 16),
        k=st.integers(0, 50),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_recursion_equals_batch(self, d, k, seed):
        """Folding condition over rows in any order agrees with the batch
        closed form within relative 1e-9."""
        rng = np.random.default_rng(seed)
        prior = NaturalClassStats(q=rng.normal(size=d), lam=float(rng.uniform(0.1, 5.0)))
        noise = NoiseModel(float(rng.uniform(0.1, 3.0)))
        Z = rng.normal(0.0, 2.0, size=(k, d))
        seq = prior
        for row in rng.permutation(k):
            seq = condition(seq, Z[row], noise)
        batch = batch_posterior(prior, Z, noise)
        np.testing.assert_allclose(seq.q, batch.q, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(seq.lam, batch.lam, rtol=1e-9)


class TestPosteriorPredictive:
    def test_scalar_case(self):
        """q=[2], lambda=3, noise 0.5 -> N([2/3], 5/6)."""
        g = posterior_predictive(NaturalClassStats(q=[2.0], lam=3.0), NoiseModel(0.5))
        np.testing.assert_allclose(g.mean, [2.0 / 3.0])
        np.testing.assert_allclose(g.variance, 5.0 / 6.0)

    def test_density_integrates_to_one(self):
        """Trapezoid integral of the 1-d predictive density over [-30, 30]
        equals 1 within 1e-6."""
        g = posterior_predictive(NaturalClassStats(q=[2.0], lam=3.0), NoiseModel(0.5))
        xs = np.linspace(-30.0, 30.0, 20001)
        pdf = np.array([np.exp(log_density(g, [x])) for x in xs])
        assert abs(np.trapezoid(pdf, xs) - 1.0) < 1e-6

    def test_variance_decreases_toward_noise_floor(self):
        """Predictive variance 1/(lambda0 + K/noise) + noise is strictly
        decreasing in the number of conditioning points."""
        noise = NoiseModel(0.5)
        prior = NaturalClassStats(q=[0.0], lam=1.0)
        variances = []
        s = prior
        for _ in range(60):
            variances.append(posterior_predictive(s, noise).variance)
            s = condition(s, [0.3], noise)
        diffs = np.diff(variances)
        assert np.all(diffs < 0)
        assert variances[-1] > noise.noise_variance
        expected = 1.0 / (prior.lam + 59 / 0.5) + 0.5
        np.testing.assert_allclose(variances[-1], expected, rtol=1e-12)


class TestLogDensity:
    def test_standard_normal_at_mean(self):
        """d=1, z=mean, variance=1 -> -0.5 ln(2 pi)."""
        value = log_density(IsotropicGaussian(mean=[0.0], variance=1.0), [0.0])
        np.testing.assert_allclose(value, -0.9189385332046727, rtol=1e-12)

    def test_matches_scipy_oracle(self):
        """Agrees with sum of per-coordinate norm.logpdf within 1e-9."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 10))
            mean = rng.normal(size=d)
            var = float(rng.uniform(0.05, 4.0))
            z = rng.normal(size=d)
            g = IsotropicGaussian(mean=mean, variance=var)
            expected = norm.logpdf(z, mean, np.sqrt(var)).sum()
            np.testing.assert_allclose(log_density(g, z), expected, rtol=1e-9, atol=1e-9)

    def test_translation_invariance(self):
        g = IsotropicGaussian(mean=[1.0, -2.0], variance=0.7)
        shifted = IsotropicGaussian(mean=g.mean + 5.0, variance=0.7)
        z = np.array([0.3, 0.4])
        np.testing.assert_allclose(log_density(g, z), log_density(shifted, z + 5.0), rtol=1e-12)

    def test_no_underflow_at_large_distance(self):
        """Log-space evaluation stays finite out to squared distance 1e4."""
        g = IsotropicGaussian(mean=[0.0], variance=1.0)
        assert np.isfinite(log_density(g, [100.0]))

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(6, 4))
        means = rng.normal(size=(3, 4))
        variances = rng.uniform(0.2, 2.0, size=3)
        out = log_density_matrix(Z, means, variances)
        for m in range(6):
            for c in range(3):
                g = IsotropicGaussian(mean=means[c], variance=variances[c])
                np.testing.assert_allclose(out[m, c], log_density(g, Z[m]), rtol=1e-12)


def _signed_zeros(rng, a):
    """a with about a third of its entries set to 0.0 or -0.0."""
    zeros = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)
    return np.where(rng.random(a.shape) < 0.3, zeros, a)


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([0, 1, 2, 24]),
    c=st.sampled_from([0, 1, 11, 42]),
    d=st.sampled_from([1, 3, 64]),
    per_point=st.booleans(),
    exponent=st.floats(-150.0, 150.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_differences_match_the_broadcast_block(m, c, d, per_point, exponent, seed):
    """differences() builds its block by tiling the points and subtracting
    the means in place; block and squared norms equal the broadcast
    Z[:, None, :] - means and its einsum bit for bit, signed zeros
    included, for frozen (c, d) and per-point (m, c, d) means, no points
    or no means, and scales from 1e-150 to 1e150."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    Z = _signed_zeros(rng, rng.normal(size=(m, d)) * scale)
    means = _signed_zeros(rng, rng.normal(size=(m, c, d) if per_point else (c, d)) * scale)
    if per_point:
        means = np.where(rng.random(means.shape) < 0.2, Z[:, None, :], means)  # z - mu = 0 exactly
    else:
        k = min(m, c)
        means[:k] = Z[:k]
    diff, sq = differences(Z, means)
    want = Z[:, None, :] - means
    assert diff.shape == (m, c, d) and sq.shape == (m, c)
    np.testing.assert_array_equal(diff, want)
    np.testing.assert_array_equal(np.signbit(diff), np.signbit(want))
    np.testing.assert_array_equal(sq, np.einsum("mcd,mcd->mc", want, want))
