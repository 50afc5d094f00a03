"""Two-parameter Chinese restaurant process over class labels.

Class counts plus a discount a and strength b give a predictive distribution
over "one of the N seen classes" versus "a brand-new class". b is derived
from an unconstrained parameter rho via b = softplus(rho) - a so that b > -a
holds by construction and rho can be trained by plain gradient descent while
a stays fixed.

Labels arrive in dense order: classes are numbered 1..N as they first
appear, and a label of N + 1 opens a new class. label_fault is that rule
for one label and arrival_labels scans a stream with it; no other module
checks it.

sequence_log_prob is the two-parameter CRP of Pitman and Yor (1997): a
class counts 1 after its first point, so it is exchangeable. The model's
class table (losses.ClassTable) counts 2, so its sequential prior is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def softplus(x):
    return float(np.logaddexp(0.0, x))


def sigmoid(x):
    return float(0.5 * (1.0 + np.tanh(0.5 * x)))


def inverse_softplus(y):
    # y = log(1 + exp(rho))  =>  rho = log(expm1(y)) = y + log(1 - exp(-y)), valid for y > 0;
    # the first form keeps its precision as y -> 0, the second cannot overflow for large y
    if y <= 0.0:
        raise ValueError(f"softplus output must be positive, got {y}")
    if y < 0.5:
        return float(np.log(np.expm1(y)))
    return float(y + np.log1p(-np.exp(-y)))


class InvalidStateError(ValueError):
    """Raised when the count/parameter state admits no valid predictive."""


class ProtocolError(ValueError):
    """A label broke the dense arrival protocol."""


def label_fault(y, n):
    """Why label y breaks the dense arrival protocol at n known classes, or None."""
    if not float(y).is_integer():
        return f"label {y} is not an integer class index"
    y = int(y)
    if y < 1:
        return f"label {y} is not a positive class index"
    if y > n + 1:
        return f"label {y} skips ahead of the {n} known classes"
    return None


def arrival_labels(n, labels, what) -> np.ndarray:
    """A stream's labels, arriving at n known classes, as int64; or a
    ProtocolError `{what} i: {why}` for its first label i that label_fault
    refuses, with i as .row."""
    if not isinstance(labels, np.ndarray):
        labels = list(labels)
    y = np.asarray(labels).astype(np.float64)
    # a label that is no integer in int64 range reads 0, a fault that label_fault names from its own value
    y = np.where((y == np.round(y)) & (np.abs(y) < 2.0**62), y, 0.0).astype(np.int64)
    n_at = np.maximum.accumulate(np.append(n, y))[:-1]
    bad = np.flatnonzero((y < 1) | (y > n_at + 1))
    if bad.size:
        i = int(bad[0])
        fault = ProtocolError(f"{what} {i}: {label_fault(labels[i], int(n_at[i]))}")
        fault.row = i
        raise fault
    return y


@dataclass(frozen=True)
class CrpParams:
    """Discount a (fixed hyperparameter) and raw strength parameter rho."""

    a: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "rho", float(self.rho))
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"discount a must lie in [0, 1), got {self.a}")
        if not np.isfinite(self.rho):
            raise ValueError("rho must be finite")

    @cached_property
    def b(self) -> float:
        return softplus(self.rho) - self.a

    @classmethod
    def from_b(cls, a, b) -> "CrpParams":
        """Build params with an explicit strength b > -a."""
        return cls(a=a, rho=inverse_softplus(float(b) + float(a)))


def integers(values, fault) -> np.ndarray:
    """values as int64, or ValueError(fault.format(i=i, v=value)) for the first entry i
    (in flat order) that is no integer in int64 range: a fraction is refused, not truncated,
    and so is a boolean or a string, even one that reads as a number."""
    v = np.asarray(values)
    if v.dtype.kind in "iu":
        return v.astype(np.int64, copy=False)
    f = np.full(v.shape, np.nan) if v.dtype.kind in "bSU" else v.astype(np.float64)
    bad = np.flatnonzero((f != np.round(f)) | ~(np.abs(f) < 2.0**62))
    if bad.size:
        raise ValueError(fault.format(i=int(bad[0]), v=v.ravel()[bad[0]]))
    return f.astype(np.int64)


def non_negative_int(name, value) -> int:
    """A count or seed setting as an int by integers' policy, or a one-line
    ValueError naming it for a fraction, a negative value or no number."""
    try:
        n = int(integers(value, ""))
    except (TypeError, ValueError):
        n = -1
    if n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return n


def check_finite(name, value, *, positive=True):
    """Refuse in one line a value that is not finite and positive, or with
    positive=False, finite and non-negative: a step size, a noise variance
    or a loss weight."""
    if not (0.0 < value < np.inf if positive else 0.0 <= value < np.inf):
        raise ValueError(f"{name} must be {'positive' if positive else 'non-negative'} and finite, got {value}")


def checked_counts(counts) -> np.ndarray:
    """Class counts as an owned read-only int64 vector, or a one-line
    ValueError: an entry that is no integer, not 1-d, or a negative entry."""
    c = np.array(integers(counts, "count {i}: {v} is not an integer"))
    if c.ndim != 1:
        raise ValueError(f"counts must be a 1-d vector, got shape {c.shape}")
    if np.any(c < 0):
        raise ValueError("counts must be non-negative")
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class ClassCounts:
    """Validated class counts (checked_counts), an input to predictive_class_probs."""

    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", checked_counts(self.counts))


def class_prior(counts: np.ndarray, params: CrpParams) -> tuple:
    """(u, p) for int64 counts (..., N), row by row: the CRP rule's masses u
    (..., N + 1), max(k_n - a, 0) per class and b + a * N+ for the novel slot
    (N+ classes have k_n > 0), and the predictive p = u / (k + b), renormalised;
    N = 0 gives p = 1. Zero-count classes keep exactly zero mass; the masses
    sum to k + b, so the renormalisation is a no-op up to rounding. A row with
    no count is refused when b <= 0."""
    a, b = params.a, params.b
    u = np.empty(counts.shape[:-1] + (counts.shape[-1] + 1,))
    np.maximum(np.subtract(counts, a, out=u[..., :-1]), 0.0, out=u[..., :-1])
    u[..., -1] = b + a * np.count_nonzero(counts, axis=-1 if counts.ndim > 1 else None)  # None: numpy's fast path
    if counts.shape[-1] == 0:
        return u, np.ones_like(u)
    k = counts.sum(axis=-1, keepdims=True)
    # b > -a makes k + b and the total mass positive once any count is
    if b <= 0.0 and not k.all():
        raise InvalidStateError(f"no observations and b = {b} <= 0 leaves no probability mass")
    p = u / (k + b)
    p /= p.sum(axis=-1, keepdims=True)
    return u, p


def grad_b(u, d_log_probs):
    """d loss / d b given the masses u of class_prior and d loss / d log p,
    row by row. The predictive is u / T with T = sum(u) = k + b; only the
    novel mass u_novel = b + a N+ moves with b, so
    d log p_c / d b = 1[c == novel] / u_novel - 1 / T."""
    return d_log_probs[..., -1] / u[..., -1] - d_log_probs.sum(axis=-1) / u.sum(axis=-1)


def predictive_class_probs(counts, params: CrpParams) -> np.ndarray:
    """class_prior's predictive p over the N classes and the novel slot, for
    anything whose .counts is a non-negative int64 vector (a ClassCounts, or
    a losses.ClassTable); an (m, N) .counts gives (m, N + 1), row by row."""
    return class_prior(counts.counts, params)[1]


def sequence_log_prob(labels, params: CrpParams) -> float:
    """Log probability of a label sequence in dense arrival order under the
    sequential predictive (ProtocolError for a label that breaks it).

    Each point adds one to its class's count, a new class's first point
    included, so the value depends only on the induced partition
    (exchangeability).
    """
    labels = arrival_labels(0, labels, "position")
    counts = np.zeros(int(labels.max(initial=0)), dtype=np.int64)
    total, n = 0.0, 0
    for i, y in enumerate(labels):
        p = class_prior(counts[:n], params)[1]
        if p[y - 1] <= 0.0:
            raise InvalidStateError(f"label {y} at position {i} has zero predictive probability")
        total += float(np.log(p[y - 1]))
        counts[y - 1] += 1
        n = max(n, y)
    return total
