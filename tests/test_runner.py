"""Evaluation in blocks of episodes: the same outputs as one episode at a
time, in working memory set by the block, not by the episode count, and
no PredictionRecord built; a large-context start holds the rows training
learned. The record, ROC and metric files byte for byte, and the record
reader's one-line refusals."""

import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from flowr import losses, meta, runner
from flowr.baselines import PrototypeState, run_baseline_episode
from flowr.checkpoint import Checkpoint
from flowr.config import ExperimentConfig
from flowr.crp import CrpParams
from flowr.data import generate_synthetic_world
from flowr.encoder import ClassEmbeddings, Encoder
from flowr.gaussian import NoiseModel
from flowr.meta import oracle_labels
from flowr.metrics import EpisodeRecords, roc_curve
from flowr.model import (
    PredictionRecord, _large_context, fine_tune_output_layer, init_large_context, init_small_context, run_episode,
)


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


@pytest.mark.parametrize("setting, fine_tune_steps", [("sc", 0), ("sc", 1), ("lc", 0)])
def test_evaluation_and_its_files_build_no_record(setting, fine_tune_steps, tmp_path):
    """evaluate, the three writers and the metric suite read and write
    columns: no PredictionRecord is built until .records is read, which
    then gives the per-episode reference's records."""
    world, ckpt, cfg = _problem(setting, fine_tune_steps=fine_tune_steps)
    want = _per_episode_evaluate(world, ckpt, cfg, 5)
    init = PredictionRecord.__init__
    with mock.patch.object(PredictionRecord, "__init__", autospec=True, side_effect=init) as built:
        result = runner.evaluate(world, ckpt, cfg, n_episodes=5)
        runner.write_records(tmp_path / "records.txt", result.episodes)
        runner.write_roc_csv(tmp_path / "roc.csv", result.roc)
        runner.write_metrics(tmp_path / "metrics.txt", result.metrics)
        runner.metrics_at_tpr(result.episodes, cfg.operating_tpr)
        assert built.call_count == 0
        _assert_same_evaluation(result, *want)
        assert built.call_count == sum(len(e) for e in result.episodes)


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

    def spy(state, streams, finals=True):
        starts.append(state)
        return run(state, streams, finals)

    with mock.patch.object(runner, "_fold", spy), mock.patch.object(losses, "BLOCK_QUERIES", 1):
        runner.evaluate(world, ckpt, cfg, n_episodes=2)  # a block, and a pass, per episode
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


@pytest.mark.parametrize("known", [[1, 2, 3, 4], list(range(1, 11)), [1, 2, 3, 4, 5, 6, 7, 7], [*range(1, 8), 21]])
@pytest.mark.parametrize("method", ["flowr", "ncm"])
def test_known_classes_must_give_one_dataset_class_per_row(known, method):
    """A known-class list that does not give each of the 8 class rows its
    own dataset class is refused before any episode is sampled: 4 ids used
    to score 4 novel classes as persistent rows, 10 to fail mid-run on a
    label that skips ahead."""
    world, ckpt, cfg = _problem("lc")
    with mock.patch.object(runner, "_sample", side_effect=AssertionError("sampled")):
        with pytest.raises(ValueError, match=r"^known_classes must give one distinct dataset class per class row \(8\)$"):
            runner.evaluate(world, ckpt, cfg, n_episodes=3, known_classes=known, method=method)
    result = runner.evaluate(world, ckpt, cfg, n_episodes=3, known_classes=np.arange(12, 4, -1), method=method)
    assert result.metrics["n_novel"] == 3 * cfg.eval_novel_classes  # each novel class's first query


def _golden_episodes():
    """Two hand-built episodes: NCM from no class (predicted and known_argmax
    None, novelty EMPTY_NOVELTY, then real distances) and records with an
    integer-valued and a subnormal novelty."""
    ncm, _ = run_baseline_episode(PrototypeState.empty(2), [([0.0, 0.0], 1), ([3.0, 4.0], 1), ([3.0, 4.0], 2)])
    hand = [
        PredictionRecord(None, 1, 1, 1.0, 1, 1),
        PredictionRecord(None, 2, 1, 5e-324, 1, 2),
        PredictionRecord(None, 2, 2, 0.1, 2, 2),
    ]
    return [EpisodeRecords(ncm, n_initial=0), EpisodeRecords(hand, n_initial=1)]


GOLDEN_RECORDS = """\
record episode=0 query=0 true=1 predicted=none known_argmax=none novelty=1.7976931348623157e+308 n_at_prediction=0 n_initial=0
record episode=0 query=1 true=1 predicted=1 known_argmax=1 novelty=5.0 n_at_prediction=1 n_initial=0
record episode=0 query=2 true=2 predicted=1 known_argmax=1 novelty=2.5 n_at_prediction=1 n_initial=0
record episode=1 query=0 true=1 predicted=1 known_argmax=1 novelty=1.0 n_at_prediction=1 n_initial=1
record episode=1 query=1 true=2 predicted=2 known_argmax=1 novelty=5e-324 n_at_prediction=1 n_initial=1
record episode=1 query=2 true=2 predicted=2 known_argmax=2 novelty=0.1 n_at_prediction=2 n_initial=1
"""

GOLDEN_ROC = """\
fpr,tpr,threshold
0.0,0.0,inf
0.0,0.3333333333333333,1.7976931348623157e+308
0.3333333333333333,0.3333333333333333,5.0
0.3333333333333333,0.6666666666666666,2.5
0.6666666666666666,0.6666666666666666,1.0
1.0,0.6666666666666666,0.1
1.0,1.0,5e-324
"""

GOLDEN_METRICS = """\
metric name=accuracy value=0.6666666666666666
metric name=achieved_tpr value=0.6666666666666666
metric name=auroc value=0.5555555555555556
metric name=h_measure value=0.23209876543209862
metric name=incremental_accuracy value=0.5
metric name=incremental_accuracy_with_first value=0.6
metric name=n_incremental value=2
metric name=n_novel value=3
metric name=n_queries value=6
metric name=n_support value=1
metric name=novel_detection_accuracy value=0.6666666666666666
metric name=support_accuracy value=1.0
metric name=target_tpr value=0.5
metric name=tau value=2.5
"""


@pytest.mark.parametrize("setting, method, encoder", [
    ("sc", "flowr", "identity"), ("sc", "ncm", "affine"), ("lc", "flowr", "affine"),
])
def test_fine_tune_steps_where_nothing_fine_tunes_are_refused(setting, method, encoder):
    """fine_tune_steps > 0 used to be ignored without a word where nothing
    fine-tunes: the metrics read as at 0 steps. It is refused in one line
    before any episode is sampled."""
    world, ckpt, cfg = _problem(setting, fine_tune_steps=3)
    if encoder == "identity":
        ckpt = replace(ckpt, params=meta.init_meta_params(world.dim, np.random.default_rng(7)))
    message = "^fine_tune_steps = 3 needs small-context flowr with an affine encoder$"
    with mock.patch.object(runner, "_sample", side_effect=runner._sample) as sampled:
        with pytest.raises(ValueError, match=message):
            runner.evaluate(world, ckpt, cfg, n_episodes=2, method=method)
    assert sampled.call_count == 0


class TestWriters:
    """The record, ROC and metric files, byte for byte: none for a missing
    class, floats by repr (the largest finite, integer-valued, subnormal)."""

    def test_golden_bytes(self, tmp_path):
        episodes = _golden_episodes()
        metrics, scores = runner.metrics_at_tpr(episodes, 0.5)
        runner.write_records(tmp_path / "records.txt", episodes)
        runner.write_roc_csv(tmp_path / "roc.csv", roc_curve(scores))
        assert (tmp_path / "records.txt").read_text() == GOLDEN_RECORDS
        assert (tmp_path / "roc.csv").read_text() == GOLDEN_ROC
        assert runner.format_metrics(metrics) == GOLDEN_METRICS

    def test_read_then_write_is_byte_identical(self, tmp_path):
        (tmp_path / "a.txt").write_text(GOLDEN_RECORDS)
        episodes = runner.read_records(tmp_path / "a.txt")
        runner.write_records(tmp_path / "b.txt", episodes)
        assert (tmp_path / "b.txt").read_text() == GOLDEN_RECORDS
        assert runner.format_metrics(runner.metrics_at_tpr(episodes, 0.5)[0]) == GOLDEN_METRICS
        first = episodes[0].records[0]
        assert (first.predicted, first.known_argmax, first.true_label) == (None, None, 1)


class TestReadRecords:
    """read_records refuses a malformed file with one `path:line: ...` line."""

    FIELDS = dict(episode=0, query=0, true=1, predicted=1, known_argmax=1, novelty=0.5, n_at_prediction=1, n_initial=1)

    def _line(self, drop=None, **values):
        return "record " + " ".join(f"{k}={v}" for k, v in {**self.FIELDS, **values}.items() if k != drop)

    def _refused(self, tmp_path, lines, line_no, message):
        path = tmp_path / "records.txt"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line_no}: {message}$"):
            runner.read_records(path)

    def test_clean_file_reads_in_query_order(self, tmp_path):
        path = tmp_path / "records.txt"
        lines = [self._line(query=1, novelty=0.5), "", self._line(novelty=0.25), self._line(episode=3, n_initial=2)]
        path.write_text("\n".join(lines) + "\n")
        episodes = runner.read_records(path)
        assert [len(e) for e in episodes] == [2, 1] and [e.n_initial for e in episodes] == [1, 2]
        assert [r.novelty_score for r in episodes[0].records] == [0.25, 0.5]

    def test_missing_field(self, tmp_path):
        self._refused(tmp_path, [self._line(), self._line(query=1, drop="novelty")], 2, "missing field 'novelty'")

    def test_token_without_equals(self, tmp_path):
        self._refused(tmp_path, [self._line() + " stray"], 1, "field 'stray' is not key=value")

    def test_unknown_tag(self, tmp_path):
        self._refused(tmp_path, ["score episode=0"], 1, "unknown record tag 'score'")

    @pytest.mark.parametrize(
        "values, message",
        [(dict(true="x"), "true=x is not an integer"), (dict(novelty="x"), "novelty=x is not a number"),
         (dict(query=-1), "query=-1 is below 0"), (dict(episode=-2), "episode=-2 is below 0"),
         (dict(predicted=0), "predicted=0 is below 1"), (dict(known_argmax=-1), "known_argmax=-1 is below 1")],
    )
    def test_bad_value(self, tmp_path, values, message):
        """A class counts from 1, so 0 cannot stand for none, which reads back as none."""
        self._refused(tmp_path, [self._line(**values)], 1, re.escape(message))

    def test_episode_disagrees_on_n_initial(self, tmp_path):
        lines = [self._line(), self._line(query=1, n_initial=2)]
        self._refused(tmp_path, lines, 2, "episode 0 has n_initial 2, not 1 as on line 1")

    @pytest.mark.parametrize(
        "queries, line_no, message",
        [([0, 1, 1], 3, "episode 0 repeats query 1"), ([0, 2], 2, "episode 0 has no query 1"),
         ([1], 1, "episode 0 has no query 0"), ([2, 0, 0], 3, "episode 0 repeats query 0")],
    )
    def test_query_indices_must_be_each_once(self, tmp_path, queries, line_no, message):
        self._refused(tmp_path, [self._line(query=q) for q in queries], line_no, message)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_novelty_must_be_finite(self, tmp_path, score):
        self._refused(tmp_path, [self._line(), self._line(query=1, novelty=score)], 2, f"novelty {score} is not finite")
