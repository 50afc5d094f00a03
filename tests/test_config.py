"""Experiment configuration: defaults, presets, JSON round trip, hashing."""

import json

import pytest

from flowr.config import (
    ExperimentConfig,
    config_from_json,
    config_hash,
    config_to_json,
    config_with_overrides,
    preset,
    preset_names,
)


class TestDefaults:
    def test_reference_operating_values(self):
        cfg = ExperimentConfig()
        assert cfg.a == 0.5
        assert cfg.noise_variance == 0.5
        assert cfg.beta == 0.1
        assert cfg.lambda_w == 0.1
        assert cfg.operating_tpr == 0.15

    def test_validation(self):
        with pytest.raises(ValueError, match="setting must be"):
            ExperimentConfig(setting="medium")
        with pytest.raises(ValueError, match=r"a must be in \[0, 1\)"):
            ExperimentConfig(a=1.0)
        with pytest.raises(ValueError, match="noise_variance"):
            ExperimentConfig(noise_variance=0.0)
        with pytest.raises(ValueError, match="operating_tpr"):
            ExperimentConfig(operating_tpr=1.5)

    @pytest.mark.parametrize("steps", [-1, 2.5, float("nan")])
    def test_fine_tune_steps_must_be_a_non_negative_integer(self, steps):
        """-1 used to be accepted, and evaluation then skipped fine-tuning without a word."""
        with pytest.raises(ValueError, match=f"^fine_tune_steps must be a non-negative integer, got {steps}$"):
            ExperimentConfig(fine_tune_steps=steps)

    @pytest.mark.parametrize("field", [
        "pretrain_epochs", "pretrain_batch_size", "meta_episodes", "meta_batch_size", "train_support_classes",
        "train_novel_classes", "train_queries_per_class", "eval_support_classes", "eval_novel_classes",
        "eval_queries_per_class", "shots_min", "shots_max", "eval_episodes", "fine_tune_steps", "seed",
    ])
    def test_integer_fields_are_integers(self, field):
        """An integral value is stored as an int, and a fraction or a value
        that is no number is refused naming its field. From a JSON config, shots_max 2.5 used to draw
        supports of up to 3 shots without a word, and eval_episodes 2.5 or
        3.0 to end flowr eval with a TypeError."""
        value = getattr(ExperimentConfig(), field) + 1
        cfg = config_from_json(json.dumps({field: float(value)}))
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == value
        assert config_hash(cfg) == config_hash(ExperimentConfig(**{field: value}))
        for bad in (2.5, "two", None):
            with pytest.raises(ValueError, match=f"^{field} must be a non-negative integer, got {bad}$"):
                config_from_json(json.dumps({field: bad}))

    @pytest.mark.parametrize("value", ['"7"', "true", "false"])
    def test_numeric_strings_and_booleans_are_no_integers(self, value):
        """A JSON config is typed: "7" used to load as the seed 7 and true as 1, without a word."""
        shown = json.loads(value)
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {shown}$"):
            config_from_json(f'{{"seed": {value}}}')

    @pytest.mark.parametrize("step_size", [0.0, -0.1, float("nan"), float("inf")])
    def test_fine_tune_step_size_must_be_positive_and_finite(self, step_size):
        """-0.1 used to be accepted: each tuning step then spent 20 rejected halvings and tuned nothing."""
        with pytest.raises(ValueError, match=f"^fine_tune_step_size must be positive and finite, got {step_size}$"):
            ExperimentConfig(fine_tune_step_size=step_size)

    @pytest.mark.parametrize("field, value, rule", [
        ("meta_step_size", -1.0, "positive"),
        ("meta_step_size", 0.0, "positive"),
        ("meta_step_size", float("inf"), "positive"),
        ("pretrain_step_size", -1e-3, "positive"),
        ("noise_variance", float("nan"), "positive"),
        ("noise_variance", float("inf"), "positive"),
        ("beta", float("nan"), "non-negative"),
        ("beta", -0.5, "non-negative"),
        ("lambda_w", float("nan"), "non-negative"),
        ("lambda_w", -1.0, "non-negative"),
    ])
    def test_training_hyperparameters_must_be_finite(self, field, value, rule):
        """Each of these used to be accepted, and training then ran uphill
        or failed as a divergence that a smaller step size would cure."""
        with pytest.raises(ValueError, match=f"^{field} must be {rule} and finite, got {value}$"):
            ExperimentConfig(**{field: value})

    def test_loss_weights_may_be_zero(self):
        cfg = ExperimentConfig(beta=0.0, lambda_w=0.0)
        assert (cfg.beta, cfg.lambda_w) == (0.0, 0.0)

    def test_episode_shapes(self):
        """Small-context: 40 support + 10 novel classes for training, 10 + 5
        with 10 queries per class for evaluation."""
        cfg = ExperimentConfig()
        train, ev = cfg.train_episode_config(), cfg.eval_episode_config()
        assert (train.n_support_classes, train.n_novel_classes) == (40, 10)
        assert (train.shots_min, train.shots_max) == (1, 10)
        assert (ev.n_support_classes, ev.n_novel_classes) == (10, 5)
        assert ev.queries_per_class == 10


class TestPresets:
    def test_names(self):
        assert preset_names() == ["lc-paper", "sc-paper"]

    def test_sc_preset_matches_defaults(self):
        assert preset("sc-paper") == ExperimentConfig()

    def test_lc_preset(self):
        """Large-context runs keep persistent known classes: no per-episode
        support draw, and the operating point moves to TPR 0.6."""
        cfg = preset("lc-paper")
        assert cfg.setting == "lc"
        assert cfg.operating_tpr == 0.6
        assert cfg.train_support_classes == 0
        assert cfg.eval_episode_config().n_support_classes == 0

    def test_lc_episodes_have_no_support(self):
        """Training and evaluation episodes follow one rule: large-context
        ones draw no support, whatever the support fields hold."""
        cfg = ExperimentConfig(setting="lc", train_support_classes=7, eval_support_classes=3)
        train, ev = cfg.train_episode_config(), cfg.eval_episode_config()
        assert (train.n_support_classes, ev.n_support_classes) == (0, 0)
        assert (train.n_novel_classes, ev.n_novel_classes) == (10, 5)
        assert (train.queries_per_class, ev.queries_per_class) == (10, 10)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset 'huge'"):
            preset("huge")


class TestSerialization:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(seed=9, meta_episodes=123)
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_json_is_sorted_and_complete(self):
        payload = json.loads(config_to_json(ExperimentConfig()))
        assert list(payload) == sorted(payload)
        assert payload["setting"] == "sc"

    def test_overrides(self):
        cfg = config_with_overrides(ExperimentConfig(), seed=3, a=None)
        assert cfg.seed == 3 and cfg.a == 0.5
        assert config_with_overrides(cfg) is cfg


class TestHash:
    def test_stable_across_processes(self):
        """The digest depends only on content, not object identity."""
        assert config_hash(ExperimentConfig()) == config_hash(ExperimentConfig())
        assert len(config_hash(ExperimentConfig())) == 16

    def test_valid_configs_keep_their_digests(self):
        """Refusing bad fine_tune_steps moved no valid config's digest."""
        assert config_hash(ExperimentConfig()) == "1201b8b66794f187"
        assert config_hash(preset("lc-paper")) == "3b7144c8390956c4"
        assert config_hash(ExperimentConfig(fine_tune_steps=3)) == "1d98cf0657290882"

    def test_sensitive_to_every_field(self):
        base = ExperimentConfig()
        seen = {config_hash(base)}
        for change in (
            {"seed": 1},
            {"a": 0.4},
            {"noise_variance": 0.6},
            {"operating_tpr": 0.6},
            {"meta_episodes": 1999},
        ):
            h = config_hash(config_with_overrides(base, **change))
            assert h not in seen
            seen.add(h)
