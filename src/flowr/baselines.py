"""Distance-based open-set baselines over running class means.

The nearest-class-mean head keeps per-class feature sums and counts,
updated online after every revealed label. Its novelty score is the
Euclidean distance to the nearest prototype (higher = more novel), so the
evaluation pipeline can consume it interchangeably with the probabilistic
model. With no prototype yet the score is EMPTY_NOVELTY, the largest finite
float, which ranks above every real distance and keeps the metric code finite.

Inputs are read by the model's reader (model._encode, _encode_labelled): a
bad point is refused with the model's one-line error, and a stream, read
in one call, reports its first fault in stream order, as flowr does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crp import ProtocolError, integers, label_fault
from .encoder import Encoder
from .model import PredictionRecord, _encode, _encode_labelled

EMPTY_NOVELTY = float(np.finfo(np.float64).max)
_IDENTITY = Encoder.identity()


@dataclass(frozen=True)
class PrototypeState:
    """Per-class running means stored as (sums, counts)."""

    sums: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        sums = np.asarray(self.sums, dtype=np.float64)
        counts = integers(self.counts, "count {i}: {v} is not an integer")
        if sums.ndim != 2:
            raise ValueError(f"sums must be (n_classes, dim), got shape {sums.shape}")
        if counts.shape != (sums.shape[0],):
            raise ValueError("one count per class required")
        if np.any(counts < 1):
            raise ValueError("instantiated classes need at least one observation")
        if not np.all(np.isfinite(sums)):
            raise ValueError("prototype sums must be finite")
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def empty(cls, dim) -> "PrototypeState":
        return cls(sums=np.zeros((0, dim)), counts=np.zeros(0, dtype=np.int64))

    @classmethod
    def from_means(cls, means) -> "PrototypeState":
        sums = np.array(means, dtype=np.float64)
        return cls(sums=sums, counts=np.ones(sums.shape[0], dtype=np.int64))

    @property
    def n_classes(self) -> int:
        return self.sums.shape[0]

    @property
    def means(self) -> np.ndarray:
        return self.sums / self.counts[:, None]


def prototype_update(state: PrototypeState, z, y) -> PrototypeState:
    """Fold one labelled point into the running means; y = N + 1 appends."""
    z = _encode(_IDENTITY, state.sums.shape[1], [z])
    fault = label_fault(y, state.n_classes)
    if fault:
        raise ProtocolError(fault)
    return _fold(state, z, [int(y)])[1]


def _fold(state: PrototypeState, Z, labels, score=False):
    """Fold a checked stream into one copy of the sums, counts and means, rewriting only the
    folded row's mean; with score set, score each point first. Returns (records, state)."""
    n, dim = state.sums.shape
    total = max([n, *labels])  # checked arrival-order labels: the largest opens the last row
    # -0.0 is the additive identity, so a new row's sum is its first point bit for bit
    sums, counts, means = np.full((total, dim), -0.0), np.zeros(total, dtype=np.int64), np.empty((total, dim))
    sums[:n], counts[:n], means[:n] = state.sums, state.counts, state.means
    records = []
    for z, y in zip(Z, labels):
        if score:
            best, dist = _nearest(means[:n], z)
            records.append(PredictionRecord(None, best, best, dist, n, true_label=y))
        r, n = y - 1, max(n, y)
        sums[r] += z
        counts[r] += 1
        means[r] = sums[r] / counts[r]
    return records, PrototypeState(sums, counts)


def ncm_predict(state: PrototypeState, z):
    """Nearest class mean: (1-based argmin class, Euclidean distance); with no
    classes yet, (None, EMPTY_NOVELTY)."""
    return _nearest(state.means, _encode(_IDENTITY, state.sums.shape[1], [z])[0])


def _nearest(means, z):
    """ncm_predict on a point the reader has passed, against the class means."""
    if len(means) == 0:
        return None, EMPTY_NOVELTY
    diff = means - z[None, :]
    dist = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    best = int(np.argmin(dist))
    return best + 1, float(dist[best])


def init_prototypes(support, dim, encoder=None) -> PrototypeState:
    """Prototype state from a labelled stream of raw inputs in arrival order,
    encoded to dim-vectors as run_baseline_episode encodes its queries."""
    Z, labels = _encode_labelled(encoder or _IDENTITY, dim, 0, list(support), "support point")
    return _fold(PrototypeState.empty(dim), Z, labels.tolist())[1]


def run_baseline_episode(state: PrototypeState, queries, encoder=None):
    """Nearest-class-mean predict-then-update over a query stream, mirroring
    the probabilistic episode loop; returns the records and the final state.
    The stream is read and encoded in one call, so every input and label
    is checked before any query is scored."""
    Z, labels = _encode_labelled(encoder or _IDENTITY, state.sums.shape[1], state.n_classes, list(queries), "query")
    return _fold(state, Z, labels.tolist(), score=True)
