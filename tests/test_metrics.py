"""ROC, AUROC, H-measure, thresholding, and the accuracy decomposition.

Independent oracle routes used here:
  - ROC points for pos=[0.6, 0.2], neg=[0.4, 0.3] enumerated by hand over
    the five distinct thresholds.
  - AUROC versus explicit pair counting (1[pos > neg] + 0.5 1[pos == neg]).
  - H-measure versus brute-force integration of the minimum weighted loss
    over a dense cost grid with scipy.stats.beta weights.
  - The average ranks behind AUROC versus scipy.stats.rankdata, bit for
    bit; the package itself does not import scipy.stats.
The committed ranking-flip fixture preserves one searched instance where
AUROC and H-measure disagree about which score set is better.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import beta as beta_dist
from scipy.stats import rankdata

from flowr.metrics import (
    EpisodeRecords,
    RankingFlip,
    ScoreSet,
    _average_ranks,
    _upper_hull,
    accuracy_suite,
    auroc,
    h_measure,
    load_flip_fixture,
    ranking_flip_search,
    roc_curve,
    save_flip_fixture,
    scores_from_records,
    threshold_at_tpr,
)
from flowr.model import PredictionRecord

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "ranking_flip.json")


def grid_h_measure(s, alpha=2.0, beta=2.0, n_grid=10001):
    """Brute-force H: integrate min_t [c pi0 FPR + (1-c) pi1 FNR] over a
    dense cost grid weighted by the Beta density."""
    fpr, tpr, _ = roc_curve(s)
    pi1 = len(s.positives) / (len(s.positives) + len(s.negatives))
    pi0 = 1.0 - pi1
    c = np.linspace(0.0, 1.0, n_grid)
    w = beta_dist.pdf(c, alpha, beta)
    point_loss = (
        c[:, None] * pi0 * fpr[None, :] + (1.0 - c[:, None]) * pi1 * (1.0 - tpr[None, :])
    )
    loss = np.trapezoid(point_loss.min(axis=1) * w, c)
    ref = np.trapezoid(np.minimum(c * pi0, (1.0 - c) * pi1) * w, c)
    return 1.0 - loss / ref


class TestRocCurve:
    def test_hand_enumerated_points(self):
        """pos=[0.6, 0.2], neg=[0.4, 0.3]: sweeping thresholds
        [inf, .6, .4, .3, .2] hits (0,0), (0,.5), (.5,.5), (1,.5), (1,1)."""
        fpr, tpr, thresholds = roc_curve(ScoreSet([0.6, 0.2], [0.4, 0.3]))
        np.testing.assert_array_equal(thresholds, [np.inf, 0.6, 0.4, 0.3, 0.2])
        np.testing.assert_array_equal(fpr, [0.0, 0.0, 0.5, 1.0, 1.0])
        np.testing.assert_array_equal(tpr, [0.0, 0.5, 0.5, 0.5, 1.0])

    def test_perfect_separation_hits_corner(self):
        fpr, tpr, _ = roc_curve(ScoreSet([2.0, 3.0], [0.0, 1.0]))
        assert any(f == 0.0 and t == 1.0 for f, t in zip(fpr, tpr))

    def test_identical_multisets_give_diagonal(self):
        fpr, tpr, _ = roc_curve(ScoreSet([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]))
        np.testing.assert_allclose(fpr, tpr)

    def test_needs_both_classes(self):
        with pytest.raises(ValueError, match="at least one positive and one negative"):
            roc_curve(ScoreSet([1.0], []))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreSet([np.nan], [0.0])


class TestAuroc:
    def test_hand_case(self):
        """pos=[0.6, 0.2] vs neg=[0.4, 0.3]: 2 of 4 pairs rank correctly."""
        assert auroc(ScoreSet([0.6, 0.2], [0.4, 0.3])) == 0.5

    def test_perfect(self):
        assert auroc(ScoreSet([2.0, 3.0], [0.0, 1.0])) == 1.0

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pos = np.round(rng.normal(1.0, 1.0, size=rng.integers(2, 30)), 1)
            neg = np.round(rng.normal(0.0, 1.0, size=rng.integers(2, 30)), 1)
            pairs = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
            np.testing.assert_allclose(
                auroc(ScoreSet(pos, neg)), pairs.mean(), rtol=0, atol=1e-12
            )

    def test_equals_trapezoid_area(self):
        """AUROC equals the trapezoidal area under the empirical ROC."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = ScoreSet(rng.normal(0.8, 1, 25), rng.normal(0, 1, 30))
            fpr, tpr, _ = roc_curve(s)
            area = np.trapezoid(tpr, fpr)
            np.testing.assert_allclose(auroc(s), area, rtol=0, atol=1e-12)

    def test_rank_invariance(self):
        rng = np.random.default_rng(2)
        s = ScoreSet(rng.normal(1, 1, 40), rng.normal(0, 1, 40))
        monotone = ScoreSet(np.exp(s.positives), np.exp(s.negatives))
        np.testing.assert_allclose(auroc(monotone), auroc(s), rtol=0, atol=1e-12)


class TestAverageRanks:
    @given(
        x=st.lists(
            st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0, 0.5, 2.0]),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=200)
    def test_equals_scipy_rankdata_bitwise(self, x):
        """Tied and untied inputs (the sampled values force ties, -0.0
        ties with 0.0): same float64 ranks as scipy, bit for bit."""
        x = np.array(x)
        ours, ref = _average_ranks(x), rankdata(x)
        assert ours.dtype == ref.dtype == np.float64
        assert ours.tobytes() == ref.tobytes()

    def test_untied_ranks_are_a_permutation(self):
        x = np.random.default_rng(3).normal(size=1000)
        ranks = _average_ranks(x)
        np.testing.assert_array_equal(np.sort(ranks), np.arange(1, 1001))
        assert ranks.tobytes() == rankdata(x).tobytes()


def test_import_leaves_out_scipy_stats():
    """AUROC ranks with numpy, so importing the package does not load
    scipy.stats."""
    code = "import sys, flowr; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def loop_upper_hull(fpr, tpr):
    """_upper_hull as it was written: every point through the monotone-chain
    loop, which pops the last vertex while the turn to the next point is
    not clockwise."""
    hull = []
    for p in zip(fpr, tpr):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def loop_h_measure(s, alpha, beta):
    """h_measure as it was written: a Python loop over the hull's vertices,
    their costs added in vertex order, then L_ref's two trivial vertices."""
    fpr, tpr, _ = roc_curve(s)
    order = np.argsort(fpr, kind="stable")
    hull = loop_upper_hull(fpr[order].tolist(), tpr[order].tolist())
    pi1 = len(s.positives) / (len(s.positives) + len(s.negatives))
    pi0, mean_c = 1.0 - pi1, alpha / (alpha + beta)

    def cost(f, t, lo, hi):
        int_c = mean_c * betainc(alpha + 1.0, beta, hi) - mean_c * betainc(alpha + 1.0, beta, lo)
        int_1 = betainc(alpha, beta, hi) - betainc(alpha, beta, lo)
        return pi0 * f * int_c + pi1 * (1.0 - t) * (int_1 - int_c)

    breaks = [pi1 * (t2 - t1) / (pi0 * (f2 - f1) + pi1 * (t2 - t1)) for (f1, t1), (f2, t2) in zip(hull, hull[1:])]
    loss, m = 0.0, len(hull) - 1
    for i, (f, t) in enumerate(hull):
        lo, hi = 0.0 if i == m else breaks[i], 1.0 if i == 0 else breaks[i - 1]
        if hi > lo:
            loss += cost(f, t, lo, hi)
    return float(1.0 - loss / (cost(1.0, 1.0, 0.0, pi1) + cost(0.0, 0.0, pi1, 1.0)))


class TestHMeasure:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-3.0, 3.0), min_size=1, max_size=40),
        st.lists(st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-3.0, 3.0), min_size=1, max_size=40),
        st.floats(0.5, 5.0),
        st.floats(0.5, 5.0),
    )
    def test_matches_the_vertex_loop_bit_for_bit(self, pos, neg, alpha, beta):
        """The vertex costs on arrays, summed by one cumsum in vertex order,
        give the loop's bits, ties and constant score sets included."""
        s = ScoreSet(pos, neg)
        assert h_measure(s, alpha, beta) == loop_h_measure(s, alpha, beta)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.integers(0, 6).map(float) | st.floats(-3.0, 3.0), min_size=1, max_size=80),
        st.lists(st.integers(0, 6).map(float) | st.floats(-3.0, 3.0), min_size=1, max_size=80),
    )
    def test_hull_keeps_the_loops_vertices(self, pos, neg):
        """Skipping the points inside vertical and horizontal runs keeps
        exactly the loop's vertices: quantised scores give tied thresholds
        and collinear diagonal runs, and one score of each class is drawn."""
        fpr, tpr, _ = roc_curve(ScoreSet(pos, neg))
        assert _upper_hull(fpr, tpr) == loop_upper_hull(fpr.tolist(), tpr.tolist())

    def test_perfect_is_exactly_one(self):
        assert h_measure(ScoreSet([2.0, 3.0], [0.0, 1.0])) == 1.0

    def test_identical_is_exactly_zero(self):
        assert h_measure(ScoreSet([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])) <= 1e-9

    def test_matches_grid_oracle(self):
        """Closed-form hull walk agrees with 10,001-point grid integration
        within 1e-3 on 20 random score sets."""
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            s = ScoreSet(
                rng.normal(rng.uniform(0, 2), 1, rng.integers(5, 60)),
                rng.normal(0, 1, rng.integers(5, 60)),
            )
            worst = max(worst, abs(h_measure(s) - grid_h_measure(s)))
        assert worst <= 1e-3

    def test_rank_invariance(self):
        rng = np.random.default_rng(4)
        s = ScoreSet(rng.normal(1, 1, 30), rng.normal(0, 1, 30))
        monotone = ScoreSet(np.arctan(s.positives), np.arctan(s.negatives))
        np.testing.assert_allclose(h_measure(monotone), h_measure(s), rtol=0, atol=1e-12)

    def test_beta_parameters_change_weighting(self):
        s = ScoreSet([3.0, 2.0, -1.5], [0.0, 0.4, 1.1])
        asymmetric = h_measure(s, alpha=5.0, beta=1.5)
        symmetric = h_measure(s)
        assert asymmetric != symmetric
        np.testing.assert_allclose(
            asymmetric, grid_h_measure(s, alpha=5.0, beta=1.5), rtol=0, atol=1e-3
        )


class TestThresholdAtTpr:
    def test_order_statistic_case(self):
        """positives [0.9, 0.7, 0.5, 0.3, 0.1] at target 0.6: the third
        largest is 0.5 and exactly 3/5 clear it."""
        tau, achieved = threshold_at_tpr(ScoreSet([0.9, 0.7, 0.5, 0.3, 0.1], [0.0]), 0.6)
        assert tau == 0.5
        assert achieved == 0.6

    def test_target_whose_product_rounds_up_is_met_exactly(self):
        """0.55 * 100 is 55.00000000000001, whose ceiling asked for 56 of
        the 100 positives: (44.0, 0.56) instead of the 55 that meet the target."""
        tau, achieved = threshold_at_tpr(ScoreSet(np.arange(100.0), [0.0]), 0.55)
        assert (tau, achieved) == (45.0, 0.55)

    def test_target_one_takes_minimum(self):
        tau, achieved = threshold_at_tpr(ScoreSet([0.9, 0.1, 0.4], [0.0]), 1.0)
        assert tau == 0.1
        assert achieved == 1.0

    def test_ties_overshoot(self):
        tau, achieved = threshold_at_tpr(ScoreSet([0.5, 0.5, 0.5, 0.1], [0.0]), 0.5)
        assert tau == 0.5
        assert achieved == 0.75

    def test_achieved_never_below_target(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pos = rng.normal(size=rng.integers(1, 40))
            target = float(rng.uniform(0.05, 1.0))
            _, achieved = threshold_at_tpr(ScoreSet(pos, [0.0]), target)
            assert achieved >= target - 1e-12

    def test_target_range(self):
        with pytest.raises(ValueError, match="target_tpr"):
            threshold_at_tpr(ScoreSet([1.0], [0.0]), 0.0)


def _rec(true, n_at, score, argmax):
    return PredictionRecord(
        probs=None,
        predicted=argmax,
        known_argmax=argmax,
        novelty_score=score,
        n_at_prediction=n_at,
        true_label=true,
    )


class TestEpisodeRecords:
    def test_flags_follow_arrival_order(self):
        ep = EpisodeRecords(
            records=[_rec(1, 2, 0.1, 1), _rec(3, 2, 0.9, 1), _rec(3, 3, 0.2, 3)],
            n_initial=2,
        )
        np.testing.assert_array_equal(ep.first_novel, [False, True, False])
        np.testing.assert_array_equal(ep.support_class, [True, False, False])
        np.testing.assert_array_equal(ep.incremental, [False, False, True])

    def test_requires_true_labels(self):
        record = PredictionRecord(None, 1, 1, 0.5, 1)
        with pytest.raises(ValueError, match="true labels"):
            EpisodeRecords(records=[record], n_initial=1)


class TestAccuracySuite:
    def _episode(self):
        """Five-query script over 2 support classes and 1 novel class; the
        post-label novel-class query is the single mistake at tau=0.5."""
        records = [
            _rec(1, 2, 0.10, 1),   # support hit
            _rec(2, 2, 0.20, 2),   # support hit
            _rec(3, 2, 0.90, 1),   # first encounter, flagged novel
            _rec(3, 3, 0.30, 1),   # post-label query misclassified (argmax 1)
            _rec(1, 3, 0.05, 1),   # support hit
        ]
        return EpisodeRecords(records=records, n_initial=2)

    def test_hand_scored_confusion(self):
        out = accuracy_suite(self._episode(), tau=0.5)
        assert out["accuracy"] == 0.8
        assert out["support_accuracy"] == 1.0
        assert out["incremental_accuracy"] == 0.0
        assert out["novel_detection_accuracy"] == 1.0
        assert out["incremental_accuracy_with_first"] == 0.5
        assert out["n_queries"] == 5
        assert (out["n_support"], out["n_incremental"], out["n_novel"]) == (3, 1, 1)

    def test_all_correct_is_all_ones(self):
        records = [
            _rec(1, 2, 0.10, 1),
            _rec(3, 2, 0.90, 2),
            _rec(3, 3, 0.20, 3),
            _rec(2, 3, 0.15, 2),
        ]
        out = accuracy_suite(EpisodeRecords(records, n_initial=2), tau=0.5)
        for key in (
            "accuracy",
            "support_accuracy",
            "incremental_accuracy",
            "novel_detection_accuracy",
        ):
            assert out[key] == 1.0

    def test_weighted_mean_identity(self):
        """Overall accuracy is the query-count weighted mean of the three
        subset accuracies."""
        rng = np.random.default_rng(6)
        episodes = []
        for e in range(5):
            records = []
            n = 2
            for _ in range(20):
                novel = rng.random() < 0.3
                true = n + 1 if novel else int(rng.integers(1, n + 1))
                records.append(_rec(true, n, float(rng.random()), int(rng.integers(1, n + 1))))
                if novel:
                    n += 1
            episodes.append(EpisodeRecords(records, n_initial=2))
        out = accuracy_suite(episodes, tau=0.6)
        total = 0.0
        for key, count in (
            ("support_accuracy", "n_support"),
            ("incremental_accuracy", "n_incremental"),
            ("novel_detection_accuracy", "n_novel"),
        ):
            if out[key] is not None:
                total += out[key] * out[count]
        np.testing.assert_allclose(out["accuracy"], total / out["n_queries"], rtol=1e-12)

    def test_empty_subsets_report_none(self):
        records = [_rec(1, 1, 0.1, 1), _rec(1, 1, 0.2, 1)]
        out = accuracy_suite(EpisodeRecords(records, n_initial=1), tau=0.5)
        assert out["incremental_accuracy"] is None
        assert out["novel_detection_accuracy"] is None
        assert out["h_measure"] is None and out["auroc"] is None

    def test_scores_from_records_pools_by_first_encounter(self):
        s = scores_from_records(self._episode())
        np.testing.assert_array_equal(s.positives, [0.9])
        np.testing.assert_array_equal(sorted(s.negatives), [0.05, 0.1, 0.2, 0.3])


class TestRankingFlip:
    def test_committed_fixture_reproduces_flip(self):
        """Stored metric values recompute exactly, and the two rankings
        disagree in sign."""
        flip = load_flip_fixture(FIXTURE)
        np.testing.assert_allclose(auroc(flip.set_a), flip.auroc_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(auroc(flip.set_b), flip.auroc_b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h_measure(flip.set_a), flip.h_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h_measure(flip.set_b), flip.h_b, rtol=0, atol=1e-12)
        assert (flip.auroc_a - flip.auroc_b) * (flip.h_a - flip.h_b) < 0

    def test_fixture_curves_cross(self):
        """The disagreement comes from crossing ROC curves: each classifier
        leads the other somewhere along the curve."""
        flip = load_flip_fixture(FIXTURE)
        grid = np.linspace(0.0, 1.0, 200)

        def tpr_at(s, fpr_grid):
            fpr, tpr, _ = roc_curve(s)
            return np.interp(fpr_grid, fpr, tpr)

        diff = tpr_at(flip.set_a, grid) - tpr_at(flip.set_b, grid)
        assert diff.max() > 0.01 and diff.min() < -0.01

    def test_search_is_reproducible(self, tmp_path):
        flip = ranking_flip_search(np.random.default_rng(0), 50)
        stored = load_flip_fixture(FIXTURE)
        assert flip.trials_used == stored.trials_used
        np.testing.assert_allclose(flip.auroc_a, stored.auroc_a, rtol=0, atol=1e-12)
        path = tmp_path / "flip.json"
        save_flip_fixture(flip, path)
        again = load_flip_fixture(path)
        np.testing.assert_array_equal(again.set_a.positives, flip.set_a.positives)

    def test_search_can_exhaust(self):
        assert ranking_flip_search(np.random.default_rng(0), 1) is None
        with pytest.raises(ValueError, match="at least 1"):
            ranking_flip_search(np.random.default_rng(0), 0)
