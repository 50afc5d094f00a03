"""Episode sampling and the meta-training loop.

The frozen adaptation value 0.00166018 was computed with scipy.stats.norm:
conditioning the N(0,1) prior (noise 0.5) on points at +-2 gives predictives
N(+-4/3, 5/6); the single query at 2 then has NLL -log softmax = 0.0016602
under a uniform class prior.
"""

import re
from dataclasses import fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from flowr import meta, runner
from flowr.checkpoint import Checkpoint
from flowr.config import ExperimentConfig
from flowr.crp import CrpParams
from flowr.data import EmbeddingDataset, generate_synthetic_world
from flowr.encoder import ClassEmbeddings, Encoder
from flowr.gaussian import NaturalClassStats, NoiseModel, SharedPrior
from flowr.meta import (
    EpisodeConfig,
    MetaParams,
    adaptation_loss,
    choose_conditioning,
    init_meta_params,
    meta_grads,
    meta_step,
    oracle_labels,
    params_to_vector,
    run_meta_training,
    sample_lc_task,
    sample_sc_task,
    vector_to_params,
)
from flowr.model import _encode


@pytest.fixture(scope="module")
def world():
    return generate_synthetic_world(8, 3, 9.0, 0.5, 20, seed=42)


class TestEpisodeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(n_support_classes=-1, n_novel_classes=1)
        with pytest.raises(ValueError):
            EpisodeConfig(n_support_classes=1, n_novel_classes=1, shots_min=3, shots_max=2)
        with pytest.raises(ValueError):
            EpisodeConfig(n_support_classes=1, n_novel_classes=1, queries_per_class=0)

    @pytest.mark.parametrize("field", [f.name for f in fields(EpisodeConfig)])
    def test_every_field_is_an_integer(self, field):
        """An integral value of any type is stored as an int, and a fraction
        is refused naming its field: shots_max=2.5 used to draw supports of
        up to 3 shots (numpy draws below 3.5)."""
        base = dict(n_support_classes=2, n_novel_classes=2, shots_min=1, shots_max=3, queries_per_class=2)
        cfg = EpisodeConfig(**{**base, field: np.float64(base[field])})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == base[field]
        with pytest.raises(ValueError, match=f"^{field} must be a non-negative integer, got 2.5$"):
            EpisodeConfig(**{**base, field: 2.5})


def _class_q_fault(want, got):
    return re.escape(f"class_q must be finite, of shape {want}, got {got}")


class TestMetaParams:
    @pytest.mark.parametrize(
        ("fields_", "message"),
        [
            (dict(q0=[[0.0, 1.0]]), r"q0 must be a 1-d vector, got shape \(1, 2\)"),
            (dict(q0=[0.0, np.nan]), "q0 must be finite"),
            (dict(log_lambda0=np.nan), "log_lambda0 must be finite, got nan"),
            (dict(rho=-np.inf), "rho must be finite, got -inf"),
            (dict(class_q=np.zeros((3, 2))), "class_q and class_log_lambda must be given together"),
            (dict(class_log_lambda=np.zeros(3)), "class_q and class_log_lambda must be given together"),
            (dict(class_q=np.zeros((3, 5)), class_log_lambda=np.zeros(3)), _class_q_fault((3, 2), (3, 5))),
            (dict(class_q=np.zeros(2), class_log_lambda=np.zeros(3)), _class_q_fault((3, 2), (2,))),
            (dict(class_q=np.zeros((3, 2)), class_log_lambda=np.zeros(4)), _class_q_fault((4, 2), (3, 2))),
            (dict(class_q=np.zeros((3, 2)), class_log_lambda=np.zeros((3, 1))),
             r"class_log_lambda must be a 1-d vector, got shape \(3, 1\)"),
            (dict(class_q=[[0.0, np.inf]], class_log_lambda=[0.0]), _class_q_fault((1, 2), (1, 2))),
            (dict(class_q=[[0.0, 1.0]], class_log_lambda=[np.nan]), "class_log_lambda must be finite"),
        ],
    )
    def test_refuses_a_value_the_model_cannot_use(self, fields_, message):
        """Each used to be accepted; a NaN q0 failed only at prior(), and
        class rows of the wrong shape not until a loss read them."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            MetaParams(**{**dict(encoder=Encoder.identity(), q0=np.zeros(2), log_lambda0=0.0, rho=0.3), **fields_})

    def test_stores_arrays_as_float64(self):
        params = MetaParams(Encoder.identity(), [1, 2], 0.0, 0.3, class_q=[[1, 2]], class_log_lambda=[0])
        assert all(a.dtype == np.float64 for a in (params.q0, params.class_q, params.class_log_lambda))


class TestSampleScTask:
    def test_minimal_shape(self):
        """2 support classes at 1 shot plus 1 novel class, 1 query each:
        2 support points, 3 query points, exactly one labelled N+1."""
        ds = generate_synthetic_world(3, 2, 9.0, 0.5, 8, seed=1)
        cfg = EpisodeConfig(n_support_classes=2, n_novel_classes=1, shots_min=1, shots_max=1, queries_per_class=1)
        ep = sample_sc_task(ds, cfg, np.random.default_rng(0))
        assert len(ep.support_y) == 2
        assert len(ep.query_y) == 3
        assert np.count_nonzero(ep.query_y == 3) == 1
        assert ep.n_known == 2

    def test_support_query_disjoint(self, world):
        """Support and query row sets never overlap (1000 episodes)."""
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=2, shots_max=4, queries_per_class=3)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            ep = sample_sc_task(world, cfg, rng)
            assert not set(ep.support_rows) & set(ep.query_rows)

    def test_novel_labels_bucketed(self, world):
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=2, queries_per_class=3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            ep = sample_sc_task(world, cfg, rng)
            novel = ep.query_y[np.isin(ep.query_class, ep.novel_classes)]
            np.testing.assert_array_equal(novel, 4)
            assert set(ep.query_y) <= set(range(1, 5))

    def test_zero_support(self, world):
        cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=2, queries_per_class=3)
        ep = sample_sc_task(world, cfg, np.random.default_rng(2))
        assert len(ep.support_y) == 0
        np.testing.assert_array_equal(np.unique(ep.query_y), [1])

    def test_seed_determinism(self, world):
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=2, queries_per_class=3)
        a = sample_sc_task(world, cfg, np.random.default_rng(7))
        b = sample_sc_task(world, cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(a.support_rows, b.support_rows)
        np.testing.assert_array_equal(a.query_rows, b.query_rows)
        np.testing.assert_array_equal(a.query_y, b.query_y)

    def test_demands_enough_classes(self, world):
        cfg = EpisodeConfig(n_support_classes=8, n_novel_classes=1)
        with pytest.raises(ValueError, match="episode needs"):
            sample_sc_task(world, cfg, np.random.default_rng(0))

    def test_adapt_pool_mirrors_novel_queries(self, world):
        cfg = EpisodeConfig(n_support_classes=2, n_novel_classes=3, queries_per_class=4)
        ep = sample_sc_task(world, cfg, np.random.default_rng(3))
        assert len(ep.adapt_y) == 12
        np.testing.assert_array_equal(np.unique(ep.adapt_y), [1, 2, 3])
        np.testing.assert_allclose(ep.adapt_x, ep.query_x[ep.query_y == 3])

    def test_episodes_gather_only_the_sampled_rows(self, world, monkeypatch):
        """Sampling converts the gathered float32 rows, exactly, instead of
        reading the float64 copy of the whole dataset: evaluation and meta-
        training in both settings run with that copy made unreadable."""
        cfg = EpisodeConfig(n_support_classes=2, n_novel_classes=3, queries_per_class=4)
        ep = sample_sc_task(world, cfg, np.random.default_rng(3))
        for x, rows in ((ep.support_x, ep.support_rows), (ep.query_x, ep.query_rows)):
            assert x.dtype == np.float64
            np.testing.assert_array_equal(x, world.features_f64[rows])

        def unreadable(ds):
            raise AssertionError("features_f64 was read")

        monkeypatch.setattr(EmbeddingDataset, "features_f64", property(unreadable))
        params = init_meta_params(world.dim, np.random.default_rng(1))
        lc_params = params.with_class_embeddings(
            ClassEmbeddings(means=np.zeros((3, world.dim)), variances=np.ones(3))
        )
        for setting, start in (("sc", params), ("lc", lc_params)):
            ckpt = Checkpoint(params=start, crp=CrpParams(a=0.5, rho=start.rho), noise=NoiseModel(0.5), setting=setting)
            exp = ExperimentConfig(
                setting=setting, eval_support_classes=2, eval_novel_classes=2,
                eval_queries_per_class=2, eval_episodes=2,
            )
            for method in ("flowr", "ncm"):
                assert len(runner.evaluate(world, ckpt, exp, method=method).episodes) == 2
            train = EpisodeConfig(n_support_classes=2 if setting == "sc" else 0, n_novel_classes=2, queries_per_class=2)
            _, trace = run_meta_training(
                world, cfg=train, setting=setting, n_episodes=2, init=start, known_classes=[1, 2, 3]
            )
            assert len(trace) == 2


def _episode_lists(dataset, cfg, rng, known_classes, novel_classes, *, support):
    """meta._episode as it was written with Python lists (list.extend over
    numpy scalars, np.asarray of the lists), the reference the array build
    must match field for field."""
    n_known, q = len(known_classes), cfg.queries_per_class
    classes = np.concatenate([known_classes, novel_classes]).astype(np.int64)
    support_rows, support_y, query_rows = [], [], []
    for j, c in enumerate(classes):
        shots = int(rng.integers(cfg.shots_min, cfg.shots_max + 1)) if support and j < n_known else 0
        what = "novel queries" if j >= n_known else "support plus queries" if support else "queries"
        picked = meta._pick_rows(rng, dataset.class_rows(int(c)), shots + q, what)
        support_rows.extend(picked[:shots])
        support_y.extend([j + 1] * shots)
        query_rows.extend(picked[shots:])
    perm = rng.permutation(len(query_rows))
    which = np.repeat(np.arange(len(classes)), q)[perm]
    query_rows = np.asarray(query_rows, dtype=np.int64)[perm]
    support_rows = np.asarray(support_rows, dtype=np.int64)
    novel_mask = which >= n_known
    query_x = dataset.features[query_rows].astype(np.float64)
    return meta.Episode(
        support_x=dataset.features[support_rows].astype(np.float64),
        support_y=np.asarray(support_y, dtype=np.int64),
        query_x=query_x,
        query_y=np.minimum(which + 1, n_known + 1),
        adapt_x=query_x[novel_mask],
        adapt_y=which[novel_mask] - n_known + 1,
        n_known=n_known,
        support_rows=support_rows,
        query_rows=query_rows,
        query_class=classes[which],
        known_classes=classes[:n_known],
        novel_classes=classes[n_known:],
    )


@pytest.mark.parametrize("support", [True, False])
@pytest.mark.parametrize(
    "cfg",
    [
        EpisodeConfig(n_support_classes=3, n_novel_classes=2, shots_min=1, shots_max=5, queries_per_class=4),
        EpisodeConfig(n_support_classes=0, n_novel_classes=0),
        # at most 15 + 10 rows of a 20-point class: some draws are refused
        EpisodeConfig(n_support_classes=4, n_novel_classes=1, shots_min=1, shots_max=10, queries_per_class=15),
    ],
)
def test_episode_sampling_matches_the_list_build(world, cfg, support):
    """_episode gives every Episode field of the list build, values and
    dtype, or the same error, and leaves the generator where it left it."""
    for seed in range(8):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        classes = np.random.default_rng([seed, 1]).permutation(world.class_ids)
        known, novel = classes[: cfg.n_support_classes], classes[cfg.n_support_classes :][: cfg.n_novel_classes]
        try:
            want = _episode_lists(world, cfg, want_rng, known, novel, support=support)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                meta._episode(world, cfg, got_rng, known, novel, support=support)
        else:
            got = meta._episode(world, cfg, got_rng, known, novel, support=support)
            for field in fields(meta.Episode):
                g, w = getattr(got, field.name), getattr(want, field.name)
                assert np.asarray(g).dtype == np.asarray(w).dtype, field.name
                np.testing.assert_array_equal(g, w, err_msg=field.name)
        assert got_rng.integers(2**62) == want_rng.integers(2**62)


class TestSampleLcTask:
    def test_novel_from_outside_known(self, world):
        cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=2, queries_per_class=3)
        known = [1, 2, 3]
        rng = np.random.default_rng(0)
        for _ in range(100):
            ep = sample_lc_task(world, cfg, rng, known)
            assert not set(ep.novel_classes) & set(known)
            assert set(ep.query_y) <= {1, 2, 3, 4}
            assert len(ep.support_y) == 0

    def test_known_classes_all_queried(self, world):
        cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=1, queries_per_class=2)
        ep = sample_lc_task(world, cfg, np.random.default_rng(1), [2, 5])
        assert ep.n_known == 2
        # dense episode labels follow the known list's order
        for j, c in enumerate([2, 5]):
            rows = ep.query_rows[ep.query_y == j + 1]
            assert set(world.labels[rows]) == {c}


def _oracle_labels_loop(episode):
    """Arrival-order relabelling written as a plain loop, the reference."""
    bucket, assigned, labels = episode.n_known + 1, {}, []
    for y, c in zip(episode.query_y, episode.query_class):
        labels.append(int(y) if y < bucket else assigned.setdefault(int(c), bucket + len(assigned)))
    return labels


class TestOracleLabels:
    def test_hand_case(self):
        """Known labels stay; novel classes 9 then 7 take 3 and 4 in the
        order they first appear."""
        ep = SimpleNamespace(n_known=2, query_y=np.array([3, 1, 3, 2, 3]), query_class=np.array([9, 4, 7, 5, 9]))
        np.testing.assert_array_equal(oracle_labels(ep), [3, 1, 4, 2, 3])

    def test_matches_loop_reference(self, world):
        rng = np.random.default_rng(5)
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=4, queries_per_class=3)
        lc_cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=4, queries_per_class=3)
        for _ in range(20):
            for ep in (sample_sc_task(world, cfg, rng), sample_lc_task(world, lc_cfg, rng, [2, 6])):
                labels = oracle_labels(ep)
                assert labels.dtype == np.int64
                np.testing.assert_array_equal(labels, _oracle_labels_loop(ep))


class TestAdaptationLoss:
    PRIOR = SharedPrior(NaturalClassStats(q=[0.0], lam=1.0))
    NOISE = NoiseModel(0.5)

    def test_frozen_two_class_value(self):
        """Two classes conditioned at +-2, one extra query at 2."""
        pool = [([2.0], 1), ([2.0], 1), ([-2.0], 2)]
        value = adaptation_loss(self.PRIOR, self.NOISE, Encoder.identity(), pool)
        np.testing.assert_allclose(value, 0.001660178414045605, rtol=1e-9)

    def test_single_class_pool_scores_zero(self):
        pool = [([1.0], 1), ([1.2], 1)]
        assert adaptation_loss(self.PRIOR, self.NOISE, Encoder.identity(), pool) == 0.0

    def test_no_multipoint_class_warns(self):
        pool = [([1.0], 1), ([-1.0], 2)]
        with pytest.warns(RuntimeWarning, match="no class with two points"):
            value = adaptation_loss(self.PRIOR, self.NOISE, Encoder.identity(), pool)
        assert value == 0.0

    def test_refuses_a_non_integer_label(self):
        """The pool is read as every other reader reads labels: 1.9 is
        refused with one line (it used to be truncated to 1, giving the
        loss of the pool [1, 1, 2, 2])."""
        X = [[2.0], [2.1], [-2.0], [-2.2]]
        assert adaptation_loss(self.PRIOR, self.NOISE, Encoder.identity(), list(zip(X, [1, 1, 2, 2]))) > 0.0
        with pytest.raises(ValueError, match=r"^adaptation point 1: label 1\.9 is not an integer class index$"):
            adaptation_loss(self.PRIOR, self.NOISE, Encoder.identity(), list(zip(X, [1, 1.9, 2, 2])))

    def test_reads_inputs_through_the_model_reader(self):
        """Inputs go through model._encode: a short input is refused with
        its one-line error, and an affine pool is encoded as the model
        encodes it, not by a second map."""
        with pytest.raises(ValueError, match=r"^input must be one vector of length 1, got shape \(2,\)$"):
            adaptation_loss(self.PRIOR, self.NOISE, Encoder.identity(), [([2.0], 1), ([2.0, 1.0], 1)])
        rng = np.random.default_rng(3)
        enc = Encoder.affine(rng.normal(size=(1, 5)), rng.normal(size=1))
        X, labels = rng.normal(size=(6, 5)), np.array([1, 1, 1, 2, 2, 2])
        with mock.patch("flowr.meta.losses._adaptation_term", return_value=(0.0,)) as spy:
            adaptation_loss(self.PRIOR, self.NOISE, enc, (X, labels))
        np.testing.assert_array_equal(spy.call_args.args[3], _encode(enc, 1, X))

    def test_accepts_array_tuple(self):
        pool = (np.array([[2.0], [2.0], [-2.0]]), np.array([1, 1, 2]))
        value = adaptation_loss(self.PRIOR, self.NOISE, Encoder.identity(), pool)
        np.testing.assert_allclose(value, 0.001660178414045605, rtol=1e-9)

    def test_choose_conditioning_one_per_class(self):
        labels = np.array([1, 2, 1, 2, 2])
        idx = choose_conditioning(labels, np.random.default_rng(0))
        assert len(idx) == 2
        assert labels[idx[0]] == 1 and labels[idx[1]] == 2


class TestMetaTraining:
    def test_loss_finite_on_random_episodes(self, world):
        """Random initialisations stay finite over 100 sampled episodes."""
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=2, queries_per_class=3)
        rng = np.random.default_rng(0)
        for trial in range(100):
            params = init_meta_params(world.dim, rng)
            ep = sample_sc_task(world, cfg, rng)
            value = meta_grads(params, ep, 0.1, "sc", cond_seed=trial).value
            assert np.isfinite(value)

    def test_zero_step_size_is_identity(self, world):
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=2, queries_per_class=3)
        rng = np.random.default_rng(1)
        params = init_meta_params(world.dim, rng)
        ep = sample_sc_task(world, cfg, rng)
        out, stats = meta_step(params, [ep], 0.0, 0.1, "sc")
        np.testing.assert_array_equal(params_to_vector(out), params_to_vector(params))
        assert np.isfinite(stats["loss"])

    def test_strength_floor_after_steps(self, world):
        """b > -a survives every update by the softplus construction."""
        cfg = EpisodeConfig(n_support_classes=2, n_novel_classes=2, queries_per_class=3)
        params, _ = run_meta_training(
            world, cfg=cfg, setting="sc", n_episodes=20, step_size=0.05, seed=0
        )
        from flowr.crp import CrpParams

        assert CrpParams(a=0.5, rho=params.rho).b > -0.5

    def test_trace_reproducible(self, world):
        cfg = EpisodeConfig(n_support_classes=2, n_novel_classes=2, queries_per_class=3)
        kwargs = dict(cfg=cfg, setting="sc", n_episodes=10, step_size=1e-3, seed=5)
        _, t1 = run_meta_training(world, **kwargs)
        _, t2 = run_meta_training(world, **kwargs)
        assert [row["loss"] for row in t1] == [row["loss"] for row in t2]

    def test_training_reduces_running_loss(self, world):
        """200 steps cut the running-mean loss versus the start."""
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=2, queries_per_class=3)
        _, trace = run_meta_training(
            world, cfg=cfg, setting="sc", n_episodes=200, step_size=0.02, seed=0
        )
        values = np.array([row["loss"] for row in trace])
        assert values[-50:].mean() < values[:10].mean()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes the guard
    def test_divergence_detection(self, world):
        """A parameter state whose loss overflows aborts the step with a
        diagnostic instead of writing non-finite parameters."""
        cfg = EpisodeConfig(n_support_classes=2, n_novel_classes=2, queries_per_class=3)
        rng = np.random.default_rng(0)
        params = init_meta_params(world.dim, rng)
        params = vector_to_params(params, params_to_vector(params) + 1e200)
        ep = sample_sc_task(world, cfg, rng)
        with pytest.raises(FloatingPointError, match="reduce step_size"):
            meta_step(params, [ep], 1e-3, 0.1, "sc")

    def test_vector_roundtrip(self):
        rng = np.random.default_rng(3)
        params = MetaParams(
            encoder=Encoder.affine(rng.normal(size=(3, 4)), rng.normal(size=3)),
            q0=rng.normal(size=3),
            log_lambda0=0.4,
            rho=-0.2,
            class_q=rng.normal(size=(2, 3)),
            class_log_lambda=rng.normal(size=2),
        )
        back = vector_to_params(params, params_to_vector(params))
        np.testing.assert_array_equal(params_to_vector(back), params_to_vector(params))
        with pytest.raises(ValueError, match="vector has"):
            vector_to_params(params, np.zeros(5))

    def test_sc_refuses_class_stats(self, world):
        """Small-context training on large-context parameters used to drop
        their class gradients, so the update vector was too short and
        meta_step failed with a numpy broadcast error."""
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=2, queries_per_class=3)
        rng = np.random.default_rng(0)
        params = init_meta_params(world.dim, rng).with_class_embeddings(
            ClassEmbeddings(means=rng.normal(size=(3, world.dim)), variances=np.ones(3))
        )
        ep = sample_sc_task(world, cfg, rng)
        with pytest.raises(ValueError, match="^small-context loss takes no per-class stats; [^\n]*$"):
            meta_grads(params, ep, 0.1, "sc")

    def test_lc_training_needs_init_before_sampling(self):
        """Only small-context parameters start at random: large-context
        training without init is refused before the dataset is read."""
        cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=2)
        with pytest.raises(ValueError, match="^setting 'lc' needs init parameters: [^\n]*$"):
            run_meta_training(None, cfg=cfg, setting="lc", n_episodes=1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(step_size=-1.0), "step_size must be positive and finite, got -1.0"),
        (dict(step_size=0.0), "step_size must be positive and finite, got 0.0"),
        (dict(step_size=np.inf), "step_size must be positive and finite, got inf"),
        (dict(lambda_w=np.nan), "lambda_w must be non-negative and finite, got nan"),
        (dict(lambda_w=-1.0), "lambda_w must be non-negative and finite, got -1.0"),
        (dict(noise_variance=np.nan), "noise_variance must be positive and finite, got nan"),
    ])
    def test_meaningless_hyperparameters_are_refused(self, world, kwargs, message):
        """A negative step size used to train uphill (the loss rose from
        0.0016 to 2.42 over 20 episodes), and a NaN lambda_w or noise
        variance to fail as `meta-training diverged ...; reduce step_size`."""
        cfg = EpisodeConfig(n_support_classes=2, n_novel_classes=2, queries_per_class=3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_meta_training(world, cfg=cfg, setting="sc", n_episodes=2, **kwargs)

    def test_lc_refuses_class_stats_of_another_class_count(self, world):
        cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=2, queries_per_class=3)
        rng = np.random.default_rng(0)
        params = init_meta_params(world.dim, rng).with_class_embeddings(
            ClassEmbeddings(means=rng.normal(size=(3, world.dim)), variances=np.ones(3))
        )
        ep = sample_lc_task(world, cfg, rng, [1, 2])
        with pytest.raises(ValueError, match="^episode has 2 known classes but params carry 3$"):
            meta_grads(params, ep, 0.1, "lc")

    @pytest.mark.filterwarnings("error")
    def test_episode_without_novel_classes_has_no_adaptation_term(self, world):
        """With no novel class the adaptation pool is empty: lambda_w > 0
        adds 0.0 to the loss and nothing to any gradient, without a warning."""
        cfg = EpisodeConfig(n_support_classes=3, n_novel_classes=0, queries_per_class=3)
        rng = np.random.default_rng(2)
        params = init_meta_params(world.dim, rng, encoder=Encoder.identity_affine(world.dim))
        ep = sample_sc_task(world, cfg, rng)
        assert len(ep.adapt_y) == 0
        g, without = (meta_grads(params, ep, w, "sc") for w in (0.5, 0.0))
        assert g.adapt == 0.0 and g.value == g.nll == without.value
        for name in ("d_weight", "d_bias", "d_q0", "d_log_lambda0", "d_rho"):
            np.testing.assert_array_equal(getattr(g, name), getattr(without, name))

    def test_lc_requires_class_stats(self, world):
        cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=2, queries_per_class=3)
        rng = np.random.default_rng(0)
        params = init_meta_params(world.dim, rng)
        ep = sample_lc_task(world, cfg, rng, [1, 2])
        with pytest.raises(ValueError, match="per-class stats"):
            meta_grads(params, ep, 0.1, "lc")
