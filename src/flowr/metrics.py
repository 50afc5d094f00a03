"""Novelty-detection and classification metrics.

Scores follow one convention everywhere: higher means more novel. The
H-measure integrates the minimum achievable weighted misclassification
loss over a Beta-distributed cost; the implementation walks the ROC convex
hull in closed form and must agree with direct numerical integration over
a dense cost grid, which the tests enforce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import betainc

from .model import NO_CLASS, Outcomes


@dataclass(frozen=True)
class ScoreSet:
    """Novelty scores split by ground truth: positives are true-novel
    queries, negatives are known-class queries."""

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positives, dtype=np.float64).ravel()
        neg = np.asarray(self.negatives, dtype=np.float64).ravel()
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "positives", pos)
        object.__setattr__(self, "negatives", neg)


def _require_both(s: ScoreSet, what):
    if len(s.positives) == 0 or len(s.negatives) == 0:
        raise ValueError(f"{what} needs at least one positive and one negative score")


def roc_curve(s: ScoreSet):
    """Empirical ROC, one point per distinct threshold, ties grouped.

    Returns (fpr, tpr, thresholds) with thresholds descending from +inf,
    so the curve starts at (0, 0) and ends at (1, 1); a point counts as
    flagged novel when its score is >= the threshold.
    """
    _require_both(s, "roc_curve")
    pos = np.sort(s.positives)
    neg = np.sort(s.negatives)
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    thresholds = np.concatenate([[np.inf], thresholds])
    tpr = (len(pos) - np.searchsorted(pos, thresholds, side="left")) / len(pos)
    fpr = (len(neg) - np.searchsorted(neg, thresholds, side="left")) / len(neg)
    return fpr, tpr, thresholds


def auroc(s: ScoreSet) -> float:
    """Area under the ROC; equals the Mann-Whitney statistic
    mean over pairs of 1[pos > neg] + 0.5 * 1[pos == neg]."""
    _require_both(s, "auroc")
    n_pos, n_neg = len(s.positives), len(s.negatives)
    ranks = _average_ranks(np.concatenate([s.negatives, s.positives]))
    u = ranks[n_neg:].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of the 1-d array x, tied values sharing the mean of their
    ranks (as scipy.stats.rankdata's default). The ranks are half-integers,
    so they and their sums are exact in float64."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    dense = np.cumsum(new)  # 1-based tie group of each sorted value
    count = np.append(np.flatnonzero(new), len(x))  # first position of each group, then n
    ranks = np.empty(len(x))
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    return ranks


def _upper_hull(fpr, tpr):
    """Upper hull of ROC points sorted by fpr, collinear points dropped. A point strictly inside a vertical
    or horizontal run (both neighbours share its fpr, or both its tpr) is never a vertex: the loop skips it."""
    inner = ((fpr[:-2] == fpr[1:-1]) & (fpr[1:-1] == fpr[2:])) | ((tpr[:-2] == tpr[1:-1]) & (tpr[1:-1] == tpr[2:]))
    keep = np.concatenate([[True], ~inner, [True]])
    hull = []
    for p in zip(fpr[keep].tolist(), tpr[keep].tolist()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def h_measure(s: ScoreSet, alpha=2.0, beta=2.0) -> float:
    """Hand's H-measure with a Beta(alpha, beta) cost distribution.

    For cost c, the weighted loss of a threshold t is
    c * pi0 * FPR(t) + (1 - c) * pi1 * FNR(t); L integrates the minimum
    over t (a vertex of the ROC upper hull) against the Beta density, and
    H = 1 - L / L_ref with L_ref the same integral for the best trivial
    (all-novel or all-known) classifier. 0 is chance, 1 is perfect.
    """
    _require_both(s, "h_measure")
    fpr, tpr, _ = roc_curve(s)
    order = np.argsort(fpr, kind="stable")
    hull = _upper_hull(fpr[order], tpr[order])

    pi1 = len(s.positives) / (len(s.positives) + len(s.negatives))
    pi0 = 1.0 - pi1
    f, t = np.array(hull).T
    # breakpoint between hull vertices i and i+1: below it the higher
    # (more-novel-flagging) vertex wins, above it the lower one does
    df, dt = np.diff(f), np.diff(t)
    breaks = pi1 * dt / (pi0 * df + pi1 * dt)
    # vertex i wins on costs (lo, hi); the two trivial classifiers (all novel, all known) follow, for L_ref
    f, t = np.append(f, [1.0, 0.0]), np.append(t, [1.0, 0.0])
    lo, hi = np.concatenate([breaks, [0.0, 0.0, pi1]]), np.concatenate([[1.0], breaks, [pi1, 1.0]])
    # over (lo, hi): the integral of c times the Beta density, and of the density
    m_lo, m_hi = alpha / (alpha + beta) * betainc(alpha + 1.0, beta, [lo, hi])
    c_lo, c_hi = betainc(alpha, beta, [lo, hi])
    int_c, int_1 = m_hi - m_lo, c_hi - c_lo
    cost = pi0 * f * int_c + pi1 * (1.0 - t) * (int_1 - int_c)
    loss = np.cumsum(np.where(hi[:-2] > lo[:-2], cost[:-2], 0.0))[-1]  # in vertex order, as a loop adds
    return float(1.0 - loss / (cost[-2] + cost[-1]))


def threshold_at_tpr(s: ScoreSet, target_tpr):
    """Largest threshold flagging at least the target fraction of positives.

    Returns (threshold, achieved_tpr); the achieved rate can exceed the
    target when scores tie at the cut.
    """
    if not 0.0 < target_tpr <= 1.0:
        raise ValueError(f"target_tpr must be in (0, 1], got {target_tpr}")
    pos = np.sort(np.asarray(s.positives, dtype=np.float64))[::-1]
    if len(pos) == 0:
        raise ValueError("threshold_at_tpr needs at least one positive score")
    n = len(pos)
    k = int(np.searchsorted(np.arange(1, n + 1) / n, target_tpr)) + 1  # the least k with k / n >= target_tpr
    tau = float(pos[k - 1])
    achieved = float(np.count_nonzero(pos >= tau) / n)
    return tau, achieved


class EpisodeRecords:
    """One episode's per-query outcomes as model.Outcomes columns, plus
    derived ground-truth flags.

    records are the episode's PredictionRecords, or its Outcomes (the
    columns model._fold scores). Built from records, .records keeps them as
    given; built from columns, .records builds them on first read and keeps
    them. first_novel marks only the first encounter of each brand-new
    class; once its label has been seen, later queries of that class count
    as incremental. support_class marks classes known before the query phase.
    """

    def __init__(self, records, n_initial):
        if isinstance(records, Outcomes):
            self.columns = records
        else:
            self.records = tuple(records)
            self.columns = Outcomes.of(self.records)
        self.n_initial = n_initial

    @cached_property
    def records(self) -> tuple:
        return tuple(self.columns.records())

    first_novel = property(lambda s: s.columns.true > s.columns.n_at)
    support_class = property(lambda s: s.columns.true <= s.n_initial)
    incremental = property(lambda s: ~s.first_novel & ~s.support_class)

    def __len__(self):
        return len(self.columns)


def _pool(episodes):
    """The episodes' columns end to end: novelty, true and known_argmax,
    then the first_novel, support_class and incremental flags."""
    if isinstance(episodes, EpisodeRecords):
        episodes = [episodes]
    episodes = list(episodes)
    if not episodes or all(len(e) == 0 for e in episodes):
        raise ValueError("accuracy_suite needs at least one recorded query")
    novelty, true, known_argmax, n_at = (
        np.concatenate([getattr(e.columns, name) for e in episodes])
        for name in ("novelty", "true", "known_argmax", "n_at")
    )
    first_novel = true > n_at
    support = true <= np.repeat([e.n_initial for e in episodes], [len(e) for e in episodes])
    return novelty, true, known_argmax, first_novel, support, ~first_novel & ~support


def scores_from_records(episodes) -> ScoreSet:
    """Pool novelty scores: first encounters are positives, the rest negatives."""
    scores, _, _, first_novel, _, _ = _pool(episodes)
    return ScoreSet(positives=scores[first_novel], negatives=scores[~first_novel])


def _mean_or_none(mask, values):
    return float(np.mean(values[mask])) if np.any(mask) else None


def accuracy_suite(episodes, tau, *, alpha=2.0, beta=2.0) -> dict:
    """Accuracy decomposition at the operating threshold tau.

    A query is called novel iff its score >= tau; otherwise the known-class
    argmax is the prediction. First-encounter queries are correct when
    flagged novel; all others when not flagged and the argmax matches.
    Subsets with no queries report None rather than NaN. h_measure and
    auroc are threshold-free and computed from the pooled scores.
    """
    scores, true, argmax, first_novel, support, incremental = _pool(episodes)
    flagged = scores >= tau
    correct = np.where(first_novel, flagged, ~flagged & (argmax == true) & (argmax != NO_CLASS))

    have_both = np.any(first_novel) and not np.all(first_novel)
    score_set = (
        ScoreSet(positives=scores[first_novel], negatives=scores[~first_novel])
        if have_both
        else None
    )
    return {
        "accuracy": float(np.mean(correct)),
        "support_accuracy": _mean_or_none(support, correct),
        "incremental_accuracy": _mean_or_none(incremental, correct),
        "incremental_accuracy_with_first": _mean_or_none(incremental | first_novel, correct),
        "novel_detection_accuracy": _mean_or_none(first_novel, correct),
        "h_measure": h_measure(score_set, alpha, beta) if score_set else None,
        "auroc": auroc(score_set) if score_set else None,
        "n_queries": int(len(scores)),
        "n_support": int(np.count_nonzero(support)),
        "n_incremental": int(np.count_nonzero(incremental)),
        "n_novel": int(np.count_nonzero(first_novel)),
    }


@dataclass(frozen=True)
class RankingFlip:
    """Two score sets on which AUROC and H-measure disagree about which
    classifier is better."""

    set_a: ScoreSet
    set_b: ScoreSet
    auroc_a: float
    auroc_b: float
    h_a: float
    h_b: float
    trials_used: int


def ranking_flip_search(rng, trials, *, n_scores=400, fixture_path=None):
    """Search random crossing-ROC score pairs for an AUROC/H-measure rank flip.

    Classifier A concentrates most positives far above the negatives but
    leaves a hard tail below them (an ROC that rises fast, then flattens);
    classifier B separates uniformly but weakly (a smooth ROC). The two
    curves cross, so the area and the cost-weighted loss can disagree.
    Returns the first flip found (optionally persisted to fixture_path as
    JSON) or None after exhausting the trials.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    for trial in range(trials):
        neg = rng.normal(0.0, 1.0, n_scores)
        w = rng.uniform(0.55, 0.85)
        head = rng.normal(rng.uniform(2.5, 4.0), 0.5, int(w * n_scores))
        tail = rng.normal(rng.uniform(-2.0, -0.5), 1.0, n_scores - len(head))
        set_a = ScoreSet(positives=np.concatenate([head, tail]), negatives=neg)
        set_b = ScoreSet(
            positives=rng.normal(rng.uniform(0.8, 1.6), 1.0, n_scores), negatives=neg
        )
        auroc_a, auroc_b = auroc(set_a), auroc(set_b)
        h_a, h_b = h_measure(set_a), h_measure(set_b)
        if (auroc_a - auroc_b) * (h_a - h_b) < 0:
            flip = RankingFlip(set_a, set_b, auroc_a, auroc_b, h_a, h_b, trial + 1)
            if fixture_path is not None:
                save_flip_fixture(flip, fixture_path)
            return flip
    return None


def save_flip_fixture(flip: RankingFlip, path):
    payload = {
        "a_positives": flip.set_a.positives.tolist(),
        "a_negatives": flip.set_a.negatives.tolist(),
        "b_positives": flip.set_b.positives.tolist(),
        "b_negatives": flip.set_b.negatives.tolist(),
        "auroc_a": flip.auroc_a,
        "auroc_b": flip.auroc_b,
        "h_a": flip.h_a,
        "h_b": flip.h_b,
        "trials_used": flip.trials_used,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_flip_fixture(path) -> RankingFlip:
    with open(path) as fh:
        payload = json.load(fh)
    return RankingFlip(
        set_a=ScoreSet(payload["a_positives"], payload["a_negatives"]),
        set_b=ScoreSet(payload["b_positives"], payload["b_negatives"]),
        auroc_a=payload["auroc_a"],
        auroc_b=payload["auroc_b"],
        h_a=payload["h_a"],
        h_b=payload["h_b"],
        trials_used=payload["trials_used"],
    )
