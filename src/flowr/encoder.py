"""Feature encoders and supervised Gaussian pre-training.

Pre-training fits an affine encoder jointly with one isotropic Gaussian per
class (a Gaussian discriminant classifier with a uniform class prior) by
plain SGD on the classification NLL plus a variance regulariser. The fitted
per-class Gaussians double as the class initialisation for the large-context
setting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import losses
from .crp import check_finite, integers
from .gaussian import log_density_matrix


@dataclass(frozen=True)
class Encoder:
    """Identity or single affine layer z = weight @ x + bias."""

    kind: str = "identity"
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "affine"):
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.kind == "affine":
            w = np.asarray(self.weight, dtype=np.float64)
            b = np.asarray(self.bias, dtype=np.float64)
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ValueError(f"bad affine shapes: weight {w.shape}, bias {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("affine parameters must be finite")
            object.__setattr__(self, "weight", w)
            object.__setattr__(self, "bias", b)
        elif self.weight is not None or self.bias is not None:
            raise ValueError("identity encoder takes no parameters")

    @classmethod
    def identity(cls) -> "Encoder":
        return cls(kind="identity")

    @classmethod
    def affine(cls, weight, bias) -> "Encoder":
        return cls(kind="affine", weight=weight, bias=bias)

    @classmethod
    def identity_affine(cls, dim) -> "Encoder":
        """Affine layer that starts as the identity map with zero bias."""
        return cls(kind="affine", weight=np.eye(dim), bias=np.zeros(dim))

    def __call__(self, x):
        """One input (d_in,) or a block (m, d_in) through losses.encode, flowr's one affine map."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "identity":
            return x
        if x.ndim == 1:
            return losses.encode(self.weight, self.bias, x[None])[0]
        return losses.encode(self.weight, self.bias, x)

    @property
    def params(self):
        if self.kind == "identity":
            return None, None
        return self.weight, self.bias


@dataclass(frozen=True)
class ClassEmbeddings:
    """Per-class isotropic Gaussians in embedding space."""

    means: np.ndarray        # (n_classes, d)
    variances: np.ndarray    # (n_classes,)

    def __post_init__(self):
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if m.ndim != 2 or v.ndim != 1 or v.shape[0] != m.shape[0]:
            raise ValueError(f"bad embedding shapes: means {m.shape}, variances {v.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("means must be finite")
        if not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
            raise ValueError("variances must be positive")
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_classes(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def natural_params(self):
        """The class rows as natural parameters (Q, lam): lam = 1 / variance, Q = mean * lam."""
        lam = 1.0 / self.variances
        return self.means * lam[:, None], lam


def gda_predict(emb: ClassEmbeddings, z) -> np.ndarray:
    """Class probabilities under the Gaussian classifier with a uniform prior."""
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    Z = z[None, :] if single else z
    logf = log_density_matrix(Z, emb.means, emb.variances)
    logf -= logf.max(axis=1, keepdims=True)
    p = np.exp(logf)
    p /= p.sum(axis=1, keepdims=True)
    return p[0] if single else p


@dataclass
class PretrainResult:
    encoder: Encoder
    embeddings: ClassEmbeddings
    loss_trace: list


def pretrain(
    X,
    labels=None,
    *,
    out_dim=None,
    beta=0.1,
    step_size=1e-3,
    epochs=10,
    batch_size=64,
    rng_seed=0,
) -> PretrainResult:
    """Jointly fit the affine encoder and per-class Gaussians by SGD.

    Means start from N(0, I) and log-variances from 0; batches are drawn
    uniformly without replacement within each epoch. A non-finite loss aborts
    with a diagnostic rather than continuing from a poisoned state.

    Accepts either (X, labels) arrays or a dataset object carrying
    `.features` and `.labels`. step_size must be positive and finite, beta
    finite and non-negative.
    """
    check_finite("step_size", step_size)
    check_finite("beta", beta, positive=False)
    if labels is None and hasattr(X, "features"):
        X, labels = X.features, X.labels
    X = np.asarray(X, dtype=np.float64)
    labels = integers(labels, "row {i}: label {v} is not an integer class index")
    if X.ndim != 2 or labels.ndim != 1 or len(labels) != len(X):
        raise ValueError(f"bad training set shapes: X {X.shape}, labels {labels.shape}")
    n_classes = int(labels.max())
    if sorted(set(labels.tolist())) != list(range(1, n_classes + 1)):
        raise ValueError("labels must be dense 1..N")

    rng = np.random.default_rng(rng_seed)
    d_in = X.shape[1]
    d_out = d_in if out_dim is None else int(out_dim)
    weight = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))
    bias = np.zeros(d_out)
    means = rng.normal(0.0, 1.0, size=(n_classes, d_out))
    log_vars = np.zeros(n_classes)

    trace = []
    n = len(X)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            value, d_w, d_b, d_means, d_log_vars = losses.pretrain_grads(
                weight, bias, X[idx], labels[idx], means, log_vars, beta
            )
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"pre-training diverged at epoch {epoch}: loss = {value}; "
                    "reduce step_size"
                )
            weight = weight - step_size * d_w
            bias = bias - step_size * d_b
            means = means - step_size * d_means
            log_vars = log_vars - step_size * d_log_vars
            trace.append(value)

    if np.any(log_vars > 50.0) or np.any(log_vars < -50.0):
        warnings.warn("pre-trained variances are at an extreme scale", RuntimeWarning)
    return PretrainResult(
        encoder=Encoder.affine(weight, bias),
        embeddings=ClassEmbeddings(means=means, variances=np.exp(log_vars)),
        loss_trace=trace,
    )
