"""Experiment configuration with named presets and a stable content hash."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

from .crp import check_finite, non_negative_int
from .meta import EpisodeConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a full run. Defaults are the reference operating
    values: a=0.5, noise 0.5, beta and lambda_w 0.1, and the per-setting
    operating TPR (0.15 small-context, 0.6 large-context). Step sizes and
    the noise variance must be positive and finite, beta and lambda_w
    finite and non-negative, and int fields non-negative integers."""

    setting: str = "sc"
    a: float = 0.5
    noise_variance: float = 0.5
    beta: float = 0.1
    lambda_w: float = 0.1
    pretrain_step_size: float = 1e-3
    pretrain_epochs: int = 10
    pretrain_batch_size: int = 64
    meta_step_size: float = 1e-3
    meta_episodes: int = 2000
    meta_batch_size: int = 1
    train_support_classes: int = 40
    train_novel_classes: int = 10
    shots_min: int = 1
    shots_max: int = 10
    train_queries_per_class: int = 10
    eval_support_classes: int = 10
    eval_novel_classes: int = 5
    eval_queries_per_class: int = 10
    eval_episodes: int = 1000
    operating_tpr: float = 0.15
    fine_tune_steps: int = 0
    fine_tune_step_size: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.setting not in ("sc", "lc"):
            raise ValueError(f"setting must be 'sc' or 'lc', got {self.setting!r}")
        if not 0.0 <= self.a < 1.0:
            raise ValueError(f"a must be in [0, 1), got {self.a}")
        for name in ("noise_variance", "pretrain_step_size", "meta_step_size", "fine_tune_step_size"):
            check_finite(name, getattr(self, name))
        for name in ("beta", "lambda_w"):
            check_finite(name, getattr(self, name), positive=False)
        if not 0.0 < self.operating_tpr <= 1.0:
            raise ValueError(f"operating_tpr must be in (0, 1], got {self.operating_tpr}")
        for f in fields(self):
            if f.type == "int":
                object.__setattr__(self, f.name, non_negative_int(f.name, getattr(self, f.name)))
        for name in ("pretrain_epochs", "pretrain_batch_size", "meta_episodes",
                     "meta_batch_size", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    def train_episode_config(self) -> EpisodeConfig:
        return self._episode_config("train")

    def eval_episode_config(self) -> EpisodeConfig:
        return self._episode_config("eval")

    def _episode_config(self, stage) -> EpisodeConfig:
        """The episode shape of the fields prefixed stage (train or eval);
        large-context episodes have no support."""
        return EpisodeConfig(
            n_support_classes=getattr(self, f"{stage}_support_classes") if self.setting == "sc" else 0,
            n_novel_classes=getattr(self, f"{stage}_novel_classes"),
            shots_min=self.shots_min,
            shots_max=self.shots_max,
            queries_per_class=getattr(self, f"{stage}_queries_per_class"),
        )


# Reference episode shapes: small-context training tasks draw 40 support
# classes (1-10 shots each) plus 10 novel classes; test tasks draw 10
# support and 5 novel classes, 10 query points per class. Large-context
# tasks keep the persistent known-known classes and add 5 novel ones.
_PRESETS = {
    "sc-paper": ExperimentConfig(setting="sc", operating_tpr=0.15),
    "lc-paper": ExperimentConfig(
        setting="lc",
        operating_tpr=0.6,
        train_support_classes=0,
        train_novel_classes=5,
        eval_support_classes=0,
    ),
}


def preset(name) -> ExperimentConfig:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r} (have {', '.join(sorted(_PRESETS))})") from None


def preset_names():
    return sorted(_PRESETS)


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)


def config_from_json(text) -> ExperimentConfig:
    return ExperimentConfig(**json.loads(text))


def config_with_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **overrides) if overrides else cfg


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable 16-hex-digit digest of the full configuration."""
    return hashlib.sha256(config_to_json(cfg).encode()).hexdigest()[:16]
