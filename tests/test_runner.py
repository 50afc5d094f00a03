"""Evaluation in blocks of episodes: the same outputs as one episode at a
time, in working memory set by the block, not by the episode count; a
large-context start holds the rows training learned."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from flowr import losses, meta, runner
from flowr.checkpoint import Checkpoint
from flowr.config import ExperimentConfig
from flowr.crp import CrpParams
from flowr.data import generate_synthetic_world
from flowr.encoder import ClassEmbeddings, Encoder
from flowr.gaussian import NoiseModel
from flowr.meta import oracle_labels
from flowr.metrics import EpisodeRecords, roc_curve
from flowr.model import _large_context, fine_tune_output_layer, init_large_context, init_small_context, run_episode


def _problem(setting, d_in=6, d=4, **cfg):
    """A 20-class world, a checkpoint with an affine encoder (large-context:
    with embeddings for classes 1-8) and an evaluation config of 16-query
    small-context or 44-query large-context episodes."""
    world = generate_synthetic_world(20, d_in, 9.0, 0.5, 20, seed=3)
    rng = np.random.default_rng(7)
    params = meta.init_meta_params(d, rng, encoder=Encoder.affine(rng.normal(size=(d, d_in)), rng.normal(size=d)))
    embeddings = None
    if setting == "lc":
        embeddings = ClassEmbeddings(means=rng.normal(size=(8, d)), variances=rng.uniform(0.5, 2.0, 8))
    ckpt = Checkpoint(
        params=params, crp=CrpParams(a=0.5, rho=params.rho), noise=NoiseModel(0.5), setting=setting,
        embeddings=embeddings,
    )
    cfg = ExperimentConfig(
        setting=setting, eval_support_classes=2 if setting == "sc" else 0, eval_novel_classes=3,
        eval_queries_per_class=4 if setting == "sc" else 4, shots_max=3, operating_tpr=0.6, seed=5, **cfg,
    )
    return world, ckpt, cfg


def _per_episode_evaluate(dataset, ckpt, cfg, n_episodes):
    """evaluate as it ran before blocks, kept as the reference: each episode
    sampled, started and run through run_episode on its own, in index
    order. Returns (episodes, metrics, roc)."""
    start = known = None
    p = ckpt.params
    if cfg.setting == "lc" and p.class_q is not None:
        start = _large_context(p.class_q, np.exp(p.class_log_lambda), p.prior(), ckpt.crp, ckpt.noise, p.encoder)
    elif cfg.setting == "lc":
        start = init_large_context(ckpt.embeddings, p.prior(), ckpt.crp, ckpt.noise, p.encoder)
    if start is not None:
        known = np.arange(1, start.n_kk + 1)
    episodes = []
    for i in range(n_episodes):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i)))
        if cfg.setting == "sc":
            episode = meta.sample_sc_task(dataset, cfg.eval_episode_config(), rng)
        else:
            episode = meta.sample_lc_task(dataset, cfg.eval_episode_config(), rng, known)
        queries = list(zip(episode.query_x, oracle_labels(episode)))
        support = list(zip(episode.support_x, episode.support_y))
        encoder = ckpt.params.encoder
        if cfg.setting == "lc":
            state = start
        else:
            state = init_small_context(ckpt.params.prior(), ckpt.crp, ckpt.noise, encoder, support)
            if cfg.fine_tune_steps > 0:
                state = fine_tune_output_layer(state, support, cfg.fine_tune_steps, cfg.fine_tune_step_size)
        records, _ = run_episode(state, queries)
        episodes.append(EpisodeRecords(records, n_initial=episode.n_known))
    metrics, scores = runner.metrics_at_tpr(episodes, cfg.operating_tpr)
    metrics.update({"method": "flowr", "n_episodes": n_episodes, "seed": cfg.seed})
    return episodes, metrics, roc_curve(scores)


@pytest.mark.parametrize("budget", [1, 40, 100, None])
@pytest.mark.parametrize("setting, fine_tune_steps", [("sc", 0), ("sc", 2), ("lc", 0)])
def test_blocks_give_what_one_episode_at_a_time_gave(setting, fine_tune_steps, budget):
    """Blocks of one episode, of a few and of every episode (the default
    budget) give the records, metrics and ROC of the per-episode loop, bit
    for bit; the 7 episodes cross block boundaries at budgets 40 and 100."""
    world, ckpt, cfg = _problem(setting, fine_tune_steps=fine_tune_steps)
    want = _per_episode_evaluate(world, ckpt, cfg, 7)
    with mock.patch.object(losses, "BLOCK_QUERIES", budget or losses.BLOCK_QUERIES):
        _assert_same_evaluation(runner.evaluate(world, ckpt, cfg, n_episodes=7), *want)


@pytest.mark.parametrize("setting, fine_tune_steps", [("sc", 0), ("sc", 1), ("lc", 0)])
def test_one_pass_per_block_gives_what_each_episode_gets_alone(setting, fine_tune_steps):
    """evaluate folds each support into its query stream as a head and
    scores a block of streams in one pass, yet gives every record, the
    metrics and the ROC that starting each episode (init_small_context,
    fine-tuned or not, or _large_context over the trained rows) and running
    it through run_episode gives, with blocks of a few episodes and chunks
    of a few steps, both splitting mid-run."""
    world, ckpt, cfg = _problem(setting, fine_tune_steps=fine_tune_steps)
    if setting == "lc":
        rng = np.random.default_rng(9)
        rows = dict(class_q=rng.normal(size=(8, 4)), class_log_lambda=rng.normal(size=8))
        ckpt = replace(ckpt, params=replace(ckpt.params, **rows))
    want = _per_episode_evaluate(world, ckpt, cfg, 9)
    with mock.patch.object(losses, "BLOCK_QUERIES", 40), mock.patch.object(losses, "PREFIX_ENTRIES", 60):
        _assert_same_evaluation(runner.evaluate(world, ckpt, cfg, n_episodes=9), *want)


def _assert_same_evaluation(result, episodes, metrics, roc):
    """result's records (every field, probs bit for bit), metrics and ROC are the reference's."""
    assert len(result.episodes) == len(episodes)
    for got, want in zip(result.episodes, episodes):
        assert (len(got.records), got.n_initial) == (len(want.records), want.n_initial)
        for r, w in zip(got.records, want.records):
            np.testing.assert_array_equal(r.probs, w.probs)
            assert (r.predicted, r.known_argmax, r.novelty_score, r.n_at_prediction, r.true_label) == (
                w.predicted, w.known_argmax, w.novelty_score, w.n_at_prediction, w.true_label
            )
    assert runner.format_metrics(result.metrics) == runner.format_metrics(metrics)
    for got, want in zip(result.roc, roc):
        np.testing.assert_array_equal(got, want)


def test_working_memory_holds_one_block():
    """Beyond what it returns, evaluate holds one block of episodes at a
    time: its traced peak less the memory the result keeps is about the
    same at 4 and at 16 blocks."""
    world, ckpt, cfg = _problem("sc", d_in=32, d=32)
    world.features_f64  # the lazy float64 copy lives with the world

    def working(n_episodes):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = runner.evaluate(world, ckpt, cfg, n_episodes=n_episodes)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.episodes) == n_episodes
        return peak - kept, kept - base

    with mock.patch.object(losses, "BLOCK_QUERIES", 4 * 16):
        (one, kept_one), (four, kept_four) = working(16), working(64)
    assert kept_four > 3 * kept_one
    assert four < 1.25 * one, f"working memory {one} B at 4 blocks, {four} B at 16"


def test_large_context_start_is_the_trained_table():
    """evaluate's large-context start holds the checkpoint's class_q and
    exp(class_log_lambda) as stored: the table losses.episode_grads scores,
    Q, lam, means, variances, counts and n_kk bit for bit (a round trip
    through moment form used to move the last bits of about a fifth of
    the rows' entries)."""
    world = generate_synthetic_world(40, 6, 9.0, 0.5, 20, seed=3)
    rng = np.random.default_rng(8)
    d, n_kk = 8, 30
    params = replace(
        meta.init_meta_params(d, rng, encoder=Encoder.affine(rng.normal(size=(d, 6)), rng.normal(size=d))),
        class_q=rng.normal(size=(n_kk, d)), class_log_lambda=rng.normal(size=n_kk),
    )
    ckpt = Checkpoint(params=params, crp=CrpParams(a=0.5, rho=params.rho), noise=NoiseModel(0.5), setting="lc")
    cfg = ExperimentConfig(
        setting="lc", eval_support_classes=0, eval_novel_classes=3, eval_queries_per_class=2, operating_tpr=0.6,
    )
    starts, run = [], runner._fold

    def spy(streams, finals=True):
        starts.extend(state for state, *_ in streams)
        return run(streams, finals)

    with mock.patch.object(runner, "_fold", spy):
        runner.evaluate(world, ckpt, cfg, n_episodes=2)
    episode = meta.sample_lc_task(world, cfg.eval_episode_config(), rng, np.arange(1, n_kk + 1))
    with mock.patch.object(losses, "_table_nll", side_effect=losses._table_nll) as scored:
        meta.meta_grads(params, episode, 0.0, "lc", a=cfg.a, noise_variance=cfg.noise_variance)
    trained, table = scored.call_args.args[0], starts[0]._table
    assert len(starts) == 2 and starts[1] is starts[0]
    np.testing.assert_array_equal(table.Q[:n_kk], params.class_q)
    np.testing.assert_array_equal(table.lam[:n_kk], np.exp(params.class_log_lambda))
    for name in ("Q", "lam", "means", "variances", "counts"):
        np.testing.assert_array_equal(getattr(table, name), getattr(trained, name))
    assert table.n_kk == trained.n_kk == n_kk
