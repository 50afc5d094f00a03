"""Few-shot open-world recognition with conjugate Gaussian class models.

The model keeps one isotropic Gaussian per known class in natural
parameters, instantiates new classes from a shared learned prior, and
weighs known classes against the novel-class hypothesis with a Chinese
restaurant process prior. Everything trains by plain gradient descent on
analytically derived gradients; metrics, baselines, dataset plumbing, and
a CLI round out the toolkit.
"""

from .baselines import PrototypeState, ncm_predict, prototype_update
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_hash, preset, preset_names
from .crp import ClassCounts, CrpParams, InvalidStateError, predictive_class_probs, sequence_log_prob
from .data import (
    EmbeddingDataset,
    generate_synthetic_world,
    read_dataset,
    split_dataset,
    subset_classes,
    write_dataset,
)
from .encoder import ClassEmbeddings, Encoder, PretrainResult, gda_predict, pretrain
from .gaussian import (
    IsotropicGaussian,
    NaturalClassStats,
    NoiseModel,
    SharedPrior,
    batch_posterior,
    condition,
    factor_to_natural,
    natural_to_moment,
    posterior_predictive,
)
from .meta import (
    Episode,
    EpisodeConfig,
    MetaParams,
    adaptation_loss,
    grad_check,
    meta_step,
    run_meta_training,
    sample_lc_task,
    sample_sc_task,
)
from .metrics import (
    EpisodeRecords,
    ScoreSet,
    accuracy_suite,
    auroc,
    h_measure,
    ranking_flip_search,
    roc_curve,
    threshold_at_tpr,
)
from .model import (
    ModelState,
    PredictionRecord,
    ProtocolError,
    fine_tune_output_layer,
    init_large_context,
    init_small_context,
    predict,
    run_episode,
    update,
)
from .runner import evaluate, run_grad_check_suite

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "ClassCounts",
    "ClassEmbeddings",
    "CrpParams",
    "EmbeddingDataset",
    "Encoder",
    "Episode",
    "EpisodeConfig",
    "EpisodeRecords",
    "ExperimentConfig",
    "InvalidStateError",
    "IsotropicGaussian",
    "MetaParams",
    "ModelState",
    "NaturalClassStats",
    "NoiseModel",
    "PredictionRecord",
    "PretrainResult",
    "ProtocolError",
    "PrototypeState",
    "ScoreSet",
    "SharedPrior",
    "accuracy_suite",
    "adaptation_loss",
    "auroc",
    "batch_posterior",
    "condition",
    "config_hash",
    "evaluate",
    "factor_to_natural",
    "fine_tune_output_layer",
    "gda_predict",
    "generate_synthetic_world",
    "grad_check",
    "h_measure",
    "init_large_context",
    "init_small_context",
    "load_checkpoint",
    "meta_step",
    "natural_to_moment",
    "ncm_predict",
    "posterior_predictive",
    "predict",
    "predictive_class_probs",
    "preset",
    "preset_names",
    "pretrain",
    "prototype_update",
    "ranking_flip_search",
    "read_dataset",
    "roc_curve",
    "run_episode",
    "run_grad_check_suite",
    "run_meta_training",
    "sample_lc_task",
    "sample_sc_task",
    "save_checkpoint",
    "sequence_log_prob",
    "split_dataset",
    "subset_classes",
    "threshold_at_tpr",
    "update",
    "write_dataset",
]
