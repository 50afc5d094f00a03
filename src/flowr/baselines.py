"""Distance-based open-set baselines over running class means.

The nearest-class-mean head keeps per-class feature sums and counts,
updated online after every revealed label. Its novelty score is the
Euclidean distance to the nearest prototype (higher = more novel), so the
evaluation pipeline can consume it interchangeably with the probabilistic
model. With no prototype yet the score is EMPTY_NOVELTY, the largest finite
float, which ranks above every real distance and keeps the metric code finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .crp import ProtocolError, arrival_labels, label_fault
from .model import PredictionRecord

EMPTY_NOVELTY = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class PrototypeState:
    """Per-class running means stored as (sums, counts)."""

    sums: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        sums = np.asarray(self.sums, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
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
    def from_means(cls, means, counts=None) -> "PrototypeState":
        means = np.asarray(means, dtype=np.float64)
        if counts is None:
            counts = np.ones(means.shape[0], dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        return cls(sums=means * counts[:, None], counts=counts)

    @property
    def n_classes(self) -> int:
        return self.sums.shape[0]

    @property
    def means(self) -> np.ndarray:
        return self.sums / self.counts[:, None]


def prototype_update(state: PrototypeState, z, y) -> PrototypeState:
    """Fold one labelled point into the running means; y = N + 1 appends."""
    fault = label_fault(y, state.n_classes)
    if fault:
        raise ProtocolError(fault)
    return _fold(state, z, int(y))


def _fold(state: PrototypeState, z, y) -> PrototypeState:
    """prototype_update on a label the arrival protocol check has passed."""
    z = np.asarray(z, dtype=np.float64)
    n = state.n_classes
    if y == n + 1:
        return replace(
            state,
            sums=np.vstack([state.sums, z[None, :]]) if n else z[None, :].copy(),
            counts=np.append(state.counts, 1),
        )
    sums = state.sums.copy()
    counts = state.counts.copy()
    sums[y - 1] += z
    counts[y - 1] += 1
    return replace(state, sums=sums, counts=counts)


def ncm_predict(state: PrototypeState, z):
    """Nearest class mean: (1-based argmin class, Euclidean distance); with no
    classes yet, (None, EMPTY_NOVELTY)."""
    if state.n_classes == 0:
        return None, EMPTY_NOVELTY
    diff = state.means - np.asarray(z, dtype=np.float64)[None, :]
    dist = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    best = int(np.argmin(dist))
    return best + 1, float(dist[best])


def init_prototypes(support, dim) -> PrototypeState:
    """Prototype state from a labelled support stream in arrival order."""
    support = list(support)
    state = PrototypeState.empty(dim)
    for (x, _), y in zip(support, arrival_labels(0, [y for _, y in support], "support point").tolist()):
        state = _fold(state, x, y)
    return state


def run_baseline_episode(state: PrototypeState, queries, encoder=None):
    """Nearest-class-mean predict-then-update over a query stream, mirroring
    the probabilistic episode loop; returns the records and the final state.
    The labels are checked before any query is scored."""
    queries = list(queries)
    records = []
    for (x, _), y in zip(queries, arrival_labels(state.n_classes, [y for _, y in queries], "query").tolist()):
        z = encoder(x) if encoder is not None else np.asarray(x, dtype=np.float64)
        best, score = ncm_predict(state, z)
        records.append(PredictionRecord(None, best, best, score, state.n_classes, true_label=y))
        state = _fold(state, z, y)
    return records, state
