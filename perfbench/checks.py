"""Output checks the benchmark runs outside its timed phase.

A query's posterior must be finite, non-negative and sum to one, and for a
seeded sample of queries it must match a posterior rebuilt from scratch by
a route that shares none of the model's recursion: each class's stats come
from ``gaussian.batch_posterior`` over its labelled points, its count from
the label history, the class prior from ``crp.predictive_class_probs`` and
every density from ``gaussian.log_density``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from flowr import crp, gaussian

SUM_TOL = 1e-9
# The rebuilt posterior sums the class points in one batch instead of one
# at a time, so it differs from the model's in the last bits only.
MATCH_TOL = 1e-9
GRAD_TOL = 1e-4


def normalized(probs) -> bool:
    p = np.asarray(probs, dtype=np.float64)
    # a probability vector sums to a finite value exactly when every entry is finite
    total = p.sum()
    return bool(np.isfinite(total) and abs(total - 1.0) <= SUM_TOL and p.min() >= 0.0)


def embed(encoder, X):
    """The encoder applied by hand, not through Encoder.__call__."""
    X = np.asarray(X, dtype=np.float64)
    if encoder.kind == "identity":
        return X
    return X @ encoder.weight.T + encoder.bias


def reference_posterior(
    z, Z_seen, labels_seen, *, prior, noise, crp_params, known=(), init_count=0, novel_first_count=2
):
    """Posterior over (classes 1..N, novel) for the embedded query z.

    Z_seen and labels_seen are every labelled point before the query, in
    arrival order. known holds the stats of persistent classes, which
    labels count towards but never condition.
    """
    labels_seen = np.asarray(labels_seen, dtype=np.int64)
    n_known = len(known)
    n = max(n_known, int(labels_seen.max(initial=0)))
    stats, counts = [], []
    for c in range(1, n + 1):
        rows = Z_seen[labels_seen == c]
        if c <= n_known:
            stats.append(known[c - 1])
            counts.append(init_count + len(rows))
        else:
            stats.append(gaussian.batch_posterior(prior, rows, noise))
            counts.append(len(rows) + novel_first_count - 1)
    stats.append(prior.prior)
    class_prior = crp.predictive_class_probs(crp.ClassCounts(np.array(counts, dtype=np.int64)), crp_params)
    log_f = np.array([gaussian.log_density(gaussian.posterior_predictive(s, noise), z) for s in stats])
    with np.errstate(divide="ignore"):
        logits = np.log(class_prior) + log_f
    return np.exp(logits - logsumexp(logits))


def failed_queries(records, truth, sampled, reference) -> set:
    """Indices of the queries whose output fails a check.

    Every record must carry its true label and a normalized posterior; for
    each index in sampled, the posterior must also match reference(i)
    within MATCH_TOL.
    """
    bad = {i for i, r in enumerate(records) if r.true_label != truth[i] or not normalized(r.probs)}
    for i in sampled:
        expected = reference(i)
        got = np.asarray(records[i].probs, dtype=np.float64)
        if got.shape != expected.shape or not np.max(np.abs(got - expected)) <= MATCH_TOL:
            bad.add(int(i))
    return bad


class Mean:
    """Running mean of the values added, in constant memory."""

    def __init__(self):
        self.total = 0.0
        self.n = 0

    def add(self, values):
        self.total += float(np.sum(values))
        self.n += len(values)

    def value(self):
        return self.total / self.n


def query_nll(records) -> np.ndarray:
    """Negative log posterior of each query's true slot (novel on first sight)."""
    out = np.empty(len(records))
    for i, r in enumerate(records):
        slot = r.true_label - 1 if r.true_label <= r.n_at_prediction else -1
        with np.errstate(divide="ignore"):
            out[i] = -np.log(r.probs[slot])
    return out
