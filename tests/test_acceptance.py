"""Acceptance suite: the package's shipped guarantees, one test each.

Every test asserts its pinned tolerance (and runtime budget where one is
part of the guarantee) and prints a single summary line on success, so a
verbose run reads as a ten-line scorecard. Oracles are computed in-test,
independently of the code under test.
"""

import time

import numpy as np
from scipy.stats import beta as beta_dist

from flowr import meta, runner
from flowr.checkpoint import Checkpoint
from flowr.config import ExperimentConfig
from flowr.crp import ClassCounts, CrpParams, predictive_class_probs, sequence_log_prob
from flowr.data import generate_synthetic_world, split_dataset
from flowr.encoder import Encoder
from flowr.gaussian import (
    NaturalClassStats,
    NoiseModel,
    SharedPrior,
    batch_posterior,
    condition,
    log_density_matrix,
    natural_to_moment,
    posterior_predictive,
)
from flowr.metrics import ScoreSet, auroc, h_measure, ranking_flip_search, roc_curve
from flowr.model import (
    ModelState,
    fine_tune_output_layer,
    init_small_context,
    predict,
    update,
)


def test_criterion_01_sequential_conditioning_matches_batch_posterior():
    """1,000 random trials (d <= 16, K <= 50): one-point-at-a-time
    conditioning agrees with the closed-form batch posterior to 1e-9,
    in under 5 seconds."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 17))
        k = int(rng.integers(0, 51))
        prior = NaturalClassStats(q=rng.normal(0, 2, size=d), lam=float(rng.uniform(0.05, 5)))
        noise = NoiseModel(float(rng.uniform(0.05, 4)))
        Z = rng.normal(0, rng.uniform(0.5, 3), size=(k, d))
        seq = prior
        for z in Z:
            seq = condition(seq, z, noise)
        batch = batch_posterior(prior, Z, noise)
        worst = max(
            worst,
            float(np.max(np.abs(seq.q - batch.q) / (1.0 + np.abs(batch.q)), initial=0.0)),
            abs(seq.lam - batch.lam) / batch.lam,
        )
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"criterion 01 PASS: sequential == batch over 1000 trials, "
          f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_predictions_normalize():
    """predict sums to 1 within 1e-9 over 1,000 random model states; 1-d
    posterior predictive densities integrate to 1 +- 1e-6."""
    rng = np.random.default_rng(102)
    worst_sum = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(0, 9))
        rows = [(rng.normal(0, 3, size=d), float(rng.uniform(0.1, 4))) for _ in range(n)]
        state = ModelState(
            encoder=Encoder.identity(),
            Q=np.array([q for q, _ in rows]).reshape(n, d),
            lam=[lam for _, lam in rows],
            counts=rng.integers(0, 20, size=n),
            crp_params=CrpParams(a=float(rng.uniform(0, 0.9)), rho=float(rng.uniform(0.5, 3))),
            prior=SharedPrior(
                NaturalClassStats(q=rng.normal(0, 2, size=d), lam=float(rng.uniform(0.1, 4)))
            ),
            noise=NoiseModel(float(rng.uniform(0.1, 2))),
            n_kk=0,
        )
        probs = predict(state, rng.normal(0, 3, size=d)).probs
        worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
    assert worst_sum <= 1e-9

    worst_integral = 0.0
    for _ in range(50):
        stats = NaturalClassStats(q=rng.normal(0, 3, size=1), lam=float(rng.uniform(0.1, 5)))
        g = posterior_predictive(stats, NoiseModel(float(rng.uniform(0.1, 2))))
        sd = np.sqrt(g.variance)
        xs = np.linspace(g.mean[0] - 12 * sd, g.mean[0] + 12 * sd, 20001)
        pdf = np.exp(log_density_matrix(xs[:, None], g.mean[None, :], np.array([g.variance])))
        worst_integral = max(worst_integral, abs(float(np.trapezoid(pdf[:, 0], xs)) - 1.0))
    assert worst_integral <= 1e-6
    print(f"criterion 02 PASS: 1000 predictive sums off by <= {worst_sum:.2e}, "
          f"50 densities integrate to 1 within {worst_integral:.2e}")


def _canonical_arrival(labels):
    """Relabel so each class id equals its first-appearance order."""
    remap, out = {}, []
    for y in labels:
        remap.setdefault(y, len(remap) + 1)
        out.append(remap[y])
    return out


def test_criterion_03_class_prior_properties():
    """Predictive sums to 1 within 1e-12; sequence probability is
    exchangeable over 100 permutations within 1e-9; the a=0.5, b=1,
    counts=[3,2] case equals [2.5/6, 1.5/6, 2/6]."""
    rng = np.random.default_rng(103)
    worst_sum = 0.0
    for _ in range(500):
        counts = ClassCounts(rng.integers(0, 40, size=int(rng.integers(1, 30))))
        params = CrpParams(a=float(rng.uniform(0, 0.9)), rho=float(rng.uniform(0.5, 3)))
        worst_sum = max(worst_sum, abs(float(predictive_class_probs(counts, params).sum()) - 1.0))
    assert worst_sum <= 1e-12

    params = CrpParams.from_b(a=0.3, b=1.7)
    base = [1, 1, 2, 1, 3, 2, 3, 1, 4, 2, 4, 1]
    reference = sequence_log_prob(base, params)
    worst_perm = 0.0
    for _ in range(100):
        shuffled = list(rng.permutation(base))
        permuted = sequence_log_prob(_canonical_arrival(shuffled), params)
        worst_perm = max(worst_perm, abs(permuted - reference))
    assert worst_perm <= 1e-9

    hand = predictive_class_probs(ClassCounts([3, 2]), CrpParams.from_b(a=0.5, b=1.0))
    np.testing.assert_allclose(hand, [2.5 / 6, 1.5 / 6, 2.0 / 6], rtol=0, atol=1e-15)
    print(f"criterion 03 PASS: sums off by <= {worst_sum:.2e}, 100 permutations "
          f"within {worst_perm:.2e}, hand case exact")


def test_criterion_04_analytic_gradients_certified():
    """Finite-difference check of every analytic gradient (encoder
    pretraining, both episode losses plus the sequential variant, and the
    fine-tuning loss): max relative error <= 1e-4 over 10 random
    configurations each, in under 60 seconds."""
    start = time.monotonic()
    results = runner.run_grad_check_suite(seed=0, trials=10)
    elapsed = time.monotonic() - start
    assert set(results) == {"pretrain", "meta_sc", "meta_sc_sequential", "meta_lc", "fine_tune"}
    worst = max(results.values())
    assert worst <= 1e-4, results
    assert elapsed < 60.0
    print(f"criterion 04 PASS: five losses certified, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_metric_oracles():
    """h_measure matches a 10,001-point cost-grid integration within 1e-3
    on 20 random score sets; auroc equals the pairwise rank statistic
    within 1e-12; perfect separation gives exactly 1; identical score
    multisets give <= 1e-9."""
    rng = np.random.default_rng(105)

    def grid_h(s, n_grid=10001):
        fpr, tpr, _ = roc_curve(s)
        pi1 = len(s.positives) / (len(s.positives) + len(s.negatives))
        c = np.linspace(0.0, 1.0, n_grid)
        w = beta_dist.pdf(c, 2.0, 2.0)
        point = c[:, None] * (1 - pi1) * fpr[None, :] + (1 - c)[:, None] * pi1 * (1 - tpr[None, :])
        loss = np.trapezoid(point.min(axis=1) * w, c)
        ref = np.trapezoid(np.minimum(c * (1 - pi1), (1 - c) * pi1) * w, c)
        return 1.0 - loss / ref

    worst_h = worst_auroc = 0.0
    for _ in range(20):
        s = ScoreSet(
            np.round(rng.normal(rng.uniform(0, 2), 1, rng.integers(5, 60)), 1),
            np.round(rng.normal(0, 1, rng.integers(5, 60)), 1),
        )
        worst_h = max(worst_h, abs(h_measure(s) - grid_h(s)))
        pairs = (s.positives[:, None] > s.negatives[None, :]) + 0.5 * (
            s.positives[:, None] == s.negatives[None, :]
        )
        worst_auroc = max(worst_auroc, abs(auroc(s) - pairs.mean()))
    assert worst_h <= 1e-3
    assert worst_auroc <= 1e-12
    assert h_measure(ScoreSet([2.0, 3.0], [0.0, 1.0])) == 1.0
    assert h_measure(ScoreSet([0.3, 0.7, 0.9], [0.3, 0.7, 0.9])) <= 1e-9
    print(f"criterion 05 PASS: H within {worst_h:.2e} of grid oracle, "
          f"AUROC within {worst_auroc:.2e} of pair counts, endpoints exact")


def test_criterion_06_auroc_h_ranking_flip():
    """Within 10,000 trials the search finds two score sets where AUROC and
    H-measure order the classifiers oppositely."""
    flip = ranking_flip_search(np.random.default_rng(0), 10000)
    assert flip is not None
    assert (flip.auroc_a - flip.auroc_b) * (flip.h_a - flip.h_b) < 0
    print(f"criterion 06 PASS: flip at trial {flip.trials_used} "
          f"(AUROC {flip.auroc_a:.4f} < {flip.auroc_b:.4f} but "
          f"H {flip.h_a:.4f} > {flip.h_b:.4f})")


def test_criterion_07_end_to_end_small_context():
    """Synthetic worlds (dim 8, prior variance 25, noise 0.5, 15 training
    classes): meta-training for <= 2,000 episodes then 200 evaluation
    episodes (10 support + 5 novel classes, 10 queries each) reaches
    support accuracy >= 0.95 and H-measure >= 0.5 at TPR 0.6, within
    10 minutes."""
    start = time.monotonic()
    world = generate_synthetic_world(30, 8, 25.0, 0.5, 40, seed=7)
    train, held_out = split_dataset(world, 15)
    train_cfg = meta.EpisodeConfig(
        n_support_classes=8, n_novel_classes=3, shots_min=1, shots_max=10, queries_per_class=5
    )
    params, trace = meta.run_meta_training(
        train, cfg=train_cfg, setting="sc", n_episodes=600, batch_size=1,
        step_size=0.01, lambda_w=0.1, seed=7, a=0.5, noise_variance=0.5,
    )
    assert trace[-1]["episodes"] <= 2000
    ckpt = Checkpoint(
        params=params, crp=CrpParams(a=0.5, rho=params.rho),
        noise=NoiseModel(0.5), setting="sc",
    )
    cfg = ExperimentConfig(
        setting="sc", noise_variance=0.5, operating_tpr=0.6,
        eval_support_classes=10, eval_novel_classes=5, eval_queries_per_class=10,
        eval_episodes=200, seed=7,
    )
    result = runner.evaluate(held_out, ckpt, cfg)
    elapsed = time.monotonic() - start
    assert result.metrics["support_accuracy"] >= 0.95
    assert result.metrics["h_measure"] >= 0.5
    assert elapsed < 600.0
    print(f"criterion 07 PASS: support accuracy "
          f"{result.metrics['support_accuracy']:.3f}, "
          f"H {result.metrics['h_measure']:.3f} at TPR 0.6, {elapsed:.1f}s")


def test_criterion_08_novel_label_protocol():
    """Labelling a novel query grows the class set by exactly one, the new
    class stats equal condition(prior, z), and a repeat query at the same
    embedding gets strictly more probability than the pre-label novel
    slot did."""
    prior = SharedPrior(NaturalClassStats(q=[0.0], lam=2.0 / 9.0))
    noise = NoiseModel(0.5)
    state = ModelState(
        encoder=Encoder.identity(),
        Q=[[-4.0], [4.0]],
        lam=[2.0, 2.0],
        counts=[14, 14],
        crp_params=CrpParams.from_b(a=0.5, b=2.0),
        prior=prior,
        noise=noise,
        n_kk=0,
    )
    z = np.array([2.0])
    before = predict(state, z)
    grown = update(state, z, 3)
    assert len(grown.lam) == len(state.lam) + 1
    assert len(grown.counts) == 3
    expected = condition(prior.prior, z, noise)
    np.testing.assert_array_equal(grown.Q[2], expected.q)
    assert grown.lam[2] == expected.lam
    after = predict(grown, z)
    assert after.probs[2] > before.novelty_score
    print(f"criterion 08 PASS: N 2 -> 3, stats == condition(prior, z), repeat "
          f"query P(new class) {after.probs[2]:.4f} > prior novelty "
          f"{before.novelty_score:.4f}")


def test_criterion_09_fine_tuning_never_increases_loss():
    """Backtracking line search: the support NLL trace is non-increasing
    over 50 fine-tuning steps on 20 random initializations."""
    rng = np.random.default_rng(109)
    d_in, d = 5, 3
    for trial in range(20):
        labels = np.concatenate([np.arange(1, 4), rng.integers(1, 4, size=9)])
        support = [(rng.normal(0, 2, size=d_in), int(y)) for y in labels]
        encoder = Encoder.affine(rng.normal(size=(d, d_in)) / np.sqrt(d_in), rng.normal(size=d))
        state = init_small_context(
            SharedPrior(NaturalClassStats(q=rng.normal(size=d), lam=1.0)),
            CrpParams.from_b(a=0.5, b=1.0),
            NoiseModel(0.5),
            encoder,
            support,
        )
        _, trace = fine_tune_output_layer(state, support, 50, 0.05, return_trace=True)
        assert len(trace) >= 1
        assert np.all(np.diff(trace) <= 0.0), f"trial {trial}: loss increased"
    print("criterion 09 PASS: 20 random fine-tuning runs, every 50-step trace non-increasing")


def test_criterion_10_worker_count_invariance():
    """Identical checkpoint, config, and seed give byte-identical metric
    tables regardless of the worker count."""
    world = generate_synthetic_world(12, 4, 25.0, 0.5, 20, seed=10)
    rng = np.random.default_rng(110)
    params = meta.init_meta_params(4, rng)
    ckpt = Checkpoint(
        params=params, crp=CrpParams(a=0.5, rho=params.rho),
        noise=NoiseModel(0.5), setting="sc",
    )
    cfg = ExperimentConfig(
        setting="sc", eval_support_classes=4, eval_novel_classes=2,
        eval_queries_per_class=4, eval_episodes=16, seed=10,
    )
    serial = runner.format_metrics(runner.evaluate(world, ckpt, cfg, workers=1).metrics)
    threaded = runner.format_metrics(runner.evaluate(world, ckpt, cfg, workers=4).metrics)
    assert serial.encode() == threaded.encode()
    print("criterion 10 PASS: metric tables byte-identical for 1 and 4 workers")
