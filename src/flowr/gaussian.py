"""Isotropic Gaussian class models in natural parameters.

A class is summarised by the natural parameters of an isotropic Gaussian
posterior over its mean: q = mean / variance and a scalar precision lam.
Conditioning on an observation with isotropic noise variance s_eps is a
rank-free recursive update (q += z / s_eps, lam += 1 / s_eps), so labelled
points can arrive one at a time or as a batch with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _as_vector(x, name="value"):
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class IsotropicGaussian:
    """Moment-form isotropic Gaussian: N(mean, variance * I)."""

    mean: np.ndarray
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_vector(self.mean, "mean"))
        object.__setattr__(self, "variance", float(self.variance))
        if not (np.isfinite(self.variance) and self.variance > 0.0):
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def dim(self):
        return self.mean.shape[0]


@dataclass(frozen=True)
class NaturalClassStats:
    """Natural-parameter form: q = mean / variance, lam = 1 / variance."""

    q: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q, "q"))
        object.__setattr__(self, "lam", float(self.lam))
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive, got {self.lam}")

    @property
    def dim(self):
        return self.q.shape[0]


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic observation noise N(0, noise_variance * I)."""

    noise_variance: float

    def __post_init__(self):
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        if not (np.isfinite(self.noise_variance) and self.noise_variance > 0.0):
            raise ValueError(f"noise_variance must be positive, got {self.noise_variance}")


@dataclass(frozen=True)
class SharedPrior:
    """Shared prior over class means; also the predictive model for unseen classes."""

    prior: NaturalClassStats


def factor_to_natural(g: IsotropicGaussian) -> NaturalClassStats:
    """Convert moment form to natural parameters."""
    lam = 1.0 / g.variance
    return NaturalClassStats(q=g.mean * lam, lam=lam)


def natural_to_moment(s: NaturalClassStats) -> IsotropicGaussian:
    """Convert natural parameters back to moment form."""
    return IsotropicGaussian(mean=s.q / s.lam, variance=1.0 / s.lam)


def condition(s: NaturalClassStats, z, noise: NoiseModel) -> NaturalClassStats:
    """Recursive posterior update on one observed point z of this class."""
    z = _as_vector(z, "z")
    if z.shape[0] != s.dim:
        raise ValueError(f"dimension mismatch: stats have dim {s.dim}, point has dim {z.shape[0]}")
    inv = 1.0 / noise.noise_variance
    return NaturalClassStats(q=s.q + z * inv, lam=s.lam + inv)


def batch_posterior(prior, Z, noise: NoiseModel) -> NaturalClassStats:
    """Closed-form posterior after conditioning on all rows of Z at once.

    Accepts the prior as NaturalClassStats or a SharedPrior. Must agree with
    folding `condition` over the rows in any order; the batch form exists as
    an independent route for checking the recursion.
    """
    if isinstance(prior, SharedPrior):
        prior = prior.prior
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError(f"Z must be a (k, d) matrix, got shape {Z.shape}")
    if Z.shape[1] != prior.dim:
        raise ValueError(f"dimension mismatch: prior dim {prior.dim}, points dim {Z.shape[1]}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("Z must be finite")
    inv = 1.0 / noise.noise_variance
    return NaturalClassStats(q=prior.q + Z.sum(axis=0) * inv, lam=prior.lam + Z.shape[0] * inv)


def posterior_predictive(s: NaturalClassStats, noise: NoiseModel) -> IsotropicGaussian:
    """Predictive for the next point of the class: N(q/lam, (1/lam + noise_variance) I)."""
    return IsotropicGaussian(mean=s.q / s.lam, variance=1.0 / s.lam + noise.noise_variance)


def log_density(g: IsotropicGaussian, z) -> float:
    """Log density of N(mean, variance * I) at z."""
    z = _as_vector(z, "z")
    if z.shape[0] != g.dim:
        raise ValueError(f"dimension mismatch: density has dim {g.dim}, point has dim {z.shape[0]}")
    d = g.dim
    diff = z - g.mean
    return float(-0.5 * d * (LOG_2PI + np.log(g.variance)) - diff @ diff / (2.0 * g.variance))


def differences(Z, means):
    """The difference block z - mu (m, c, d) of points Z (m, d) from means
    (c, d), or per point (m, c, d), and its squared norms (m, c). The block
    is Z.repeat(c, axis=0) with the means subtracted in place, one
    contiguous pass (Z[:, None, :] - means loops over each point-mean pair)."""
    (m, d), c = Z.shape, means.shape[-2]
    diff = Z.repeat(c, axis=0).reshape(m, c, d)
    diff -= means
    return diff, np.einsum("mcd,mcd->mc", diff, diff)


def density_constants(variances, d):
    """-d/2 (log 2 pi + log v) and 2 v of N(mu, v I) in d dimensions, as
    log_density_sq reads them; losses.ClassTable keeps them per row."""
    return -0.5 * d * (LOG_2PI + np.log(variances)), 2.0 * variances


def log_density_sq(sq, variances, d):
    """Log density of N(mu, v I) in d dimensions at squared distance sq from mu."""
    norm, two_v = density_constants(variances, d)
    return norm - sq / two_v


def log_density_matrix(Z, means, variances):
    """Log densities of isotropic Gaussians at many points.

    Z: (m, d), means: (c, d), variances: (c,). Returns (m, c). Means
    (m, c, d) and variances (m, c) give each point its own c Gaussians.
    This is differences() then log_density_sq(), as are model.predict and
    every training loss (losses._mixture_nll_grads fills the blocks itself and
    keeps each for its gradients).
    """
    Z = np.asarray(Z, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    return log_density_sq(differences(Z, means)[1], variances, Z.shape[1])
