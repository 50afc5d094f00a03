"""Evaluation orchestration: sampled test episodes, metrics, and reports.

Episodes run serially in index order, each with its own (seed, index) RNG
split; `evaluate(workers=...)` is kept for compatibility and selects nothing.
Record files, ROC CSV, and metric tables are written deterministically
(floats via repr) so repeated runs are byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import losses, meta
from .baselines import PrototypeState, init_prototypes, run_baseline_episode
from .checkpoint import Checkpoint
from .config import ExperimentConfig
from .crp import CrpParams
from .data import EmbeddingDataset
from .encoder import Encoder
from .meta import oracle_labels
from .metrics import EpisodeRecords, accuracy_suite, roc_curve, scores_from_records, threshold_at_tpr
from .model import PredictionRecord, fine_tune_output_layer, init_large_context, init_small_context, run_episode


@dataclass
class EvalResult:
    episodes: list
    tau: float
    achieved_tpr: float
    metrics: dict
    roc: tuple


def _episode_records(ckpt: Checkpoint, cfg: ExperimentConfig, dataset, index, seed, method, known_classes):
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    if cfg.setting == "sc":
        episode = meta.sample_sc_task(dataset, cfg.eval_episode_config(), rng)
    else:
        episode = meta.sample_lc_task(dataset, cfg.eval_episode_config(), rng, known_classes)
    truth = oracle_labels(episode)
    queries = list(zip(episode.query_x, truth))
    support = list(zip(episode.support_x, episode.support_y))
    encoder = ckpt.params.encoder
    if cfg.setting == "lc":
        embeddings = ckpt.params.class_embeddings() if ckpt.params.class_q is not None else ckpt.embeddings

    if method == "flowr":
        if cfg.setting == "sc":
            state = init_small_context(
                ckpt.params.prior(), ckpt.crp, ckpt.noise, encoder, support
            )
            if cfg.fine_tune_steps > 0 and encoder.kind == "affine":
                state = fine_tune_output_layer(
                    state, support, cfg.fine_tune_steps, cfg.fine_tune_step_size
                )
        else:
            state = init_large_context(
                embeddings, ckpt.params.prior(), ckpt.crp, ckpt.noise, encoder,
                init_count=cfg.lc_eval_init_count,
            )
        records, _ = run_episode(state, queries)
    else:
        if cfg.setting == "sc":
            enc_support = encoder(episode.support_x)
            proto = init_prototypes(zip(enc_support, episode.support_y), enc_support.shape[1])
        else:
            proto = PrototypeState.from_means(embeddings.means)
        records, _ = run_baseline_episode(proto, queries, encoder=encoder)
    return EpisodeRecords(records, n_initial=episode.n_known)


def evaluate(
    dataset,
    ckpt: Checkpoint,
    cfg: ExperimentConfig,
    *,
    n_episodes=None,
    seed=None,
    workers=1,
    method="flowr",
    known_classes=None,
) -> EvalResult:
    """Run sampled evaluation episodes and compute the metric suite.

    For the large-context setting, known_classes defaults to the classes
    the checkpoint carries stats for (ids 1..n_kk in the dataset); the
    remaining dataset classes form the novel pool. `workers` is ignored.
    """
    if method not in ("flowr", "ncm"):
        raise ValueError(f"unknown method {method!r}")
    n_episodes = cfg.eval_episodes if n_episodes is None else n_episodes
    seed = cfg.seed if seed is None else seed
    if cfg.setting == "lc" and known_classes is None:
        if ckpt.params.class_q is not None:
            n_kk = ckpt.params.class_q.shape[0]
        elif ckpt.embeddings is not None:
            n_kk = ckpt.embeddings.n_classes
        else:
            raise ValueError("large-context evaluation needs class stats in the checkpoint")
        known_classes = np.arange(1, n_kk + 1)

    episodes = [
        _episode_records(ckpt, cfg, dataset, i, seed, method, known_classes)
        for i in range(n_episodes)
    ]

    scores = scores_from_records(episodes)
    tau, achieved = threshold_at_tpr(scores, cfg.operating_tpr)
    metrics = accuracy_suite(episodes, tau)
    metrics.update(
        {
            "tau": tau,
            "achieved_tpr": achieved,
            "target_tpr": cfg.operating_tpr,
            "method": method,
            "n_episodes": n_episodes,
            "seed": seed,
        }
    )
    return EvalResult(
        episodes=episodes, tau=tau, achieved_tpr=achieved, metrics=metrics, roc=roc_curve(scores)
    )


# ---------------------------------------------------------------------------
# deterministic text output

def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_metrics(metrics: dict) -> str:
    lines = [f"metric name={k} value={_fmt(metrics[k])}" for k in sorted(metrics)]
    return "\n".join(lines) + "\n"


def write_metrics(path, metrics):
    with open(path, "w") as fh:
        fh.write(format_metrics(metrics))


def write_roc_csv(path, roc):
    fpr, tpr, thresholds = roc
    with open(path, "w") as fh:
        fh.write("fpr,tpr,threshold\n")
        for f, t, th in zip(fpr, tpr, thresholds):
            fh.write(f"{float(f)!r},{float(t)!r},{float(th)!r}\n")


def write_records(path, episodes):
    with open(path, "w") as fh:
        for e, ep in enumerate(episodes):
            for i, r in enumerate(ep.records):
                fh.write(
                    f"record episode={e} query={i} true={r.true_label} "
                    f"predicted={_fmt(r.predicted)} known_argmax={_fmt(r.known_argmax)} "
                    f"novelty={float(r.novelty_score)!r} n_at_prediction={r.n_at_prediction} "
                    f"n_initial={ep.n_initial}\n"
                )


def read_records(path) -> list:
    """Rebuild EpisodeRecords from a record file written by write_records."""
    grouped = {}
    n_initial = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tag, *fields = line.split()
            if tag != "record":
                raise ValueError(f"{path}:{line_no}: unknown record tag {tag!r}")
            kv = dict(f.split("=", 1) for f in fields)
            e = int(kv["episode"])
            rec = PredictionRecord(
                probs=None,
                predicted=None if kv["predicted"] == "none" else int(kv["predicted"]),
                known_argmax=None if kv["known_argmax"] == "none" else int(kv["known_argmax"]),
                novelty_score=float(kv["novelty"]),
                n_at_prediction=int(kv["n_at_prediction"]),
                true_label=int(kv["true"]),
            )
            grouped.setdefault(e, []).append((int(kv["query"]), rec))
            n_initial[e] = int(kv["n_initial"])
    episodes = []
    for e in sorted(grouped):
        ordered = [rec for _, rec in sorted(grouped[e], key=lambda pair: pair[0])]
        episodes.append(EpisodeRecords(ordered, n_initial=n_initial[e]))
    return episodes


def output_dir(flag_value=None) -> str:
    """Output directory: the flag wins, then FLOWR_OUT_DIR, then cwd."""
    return flag_value or os.environ.get("FLOWR_OUT_DIR") or "."


# ---------------------------------------------------------------------------
# gradient verification suite

def _flat_check(loss_grad, x0, rng):
    def loss_fn(v):
        return loss_grad(v)[0]

    def grad_fn(v):
        return loss_grad(v)[1]

    return meta.grad_check(loss_fn, grad_fn, x0, rng=rng)


def run_grad_check_suite(seed=0, trials=10) -> dict:
    """Finite-difference certification of every analytic gradient.

    Returns the max relative error per loss over random small configurations
    (pretraining, episode losses in both settings plus the sequential
    variant, and the fine-tuning loss).
    """
    rng = np.random.default_rng(seed)
    out = {}

    def record(name, value):
        out[name] = max(out.get(name, 0.0), value)

    for _ in range(trials):
        d_in, d, n, m = 4, 3, 3, 12
        H = rng.normal(size=(m, d_in))
        labels = np.concatenate([np.arange(1, n + 1), rng.integers(1, n + 1, size=m - n)])
        shapes = [(d, d_in), (d,), (n, d), (n,)]

        def pretrain_lg(v, H=H, labels=labels, shapes=shapes):
            W, b, mu, logv = _unflatten(v, shapes)
            value, dW, db, dmu, dlogv = losses.pretrain_grads(W, b, H, labels, mu, logv, beta=0.1)
            return value, np.concatenate([dW.ravel(), db, dmu.ravel(), dlogv])

        x0 = np.concatenate(
            [rng.normal(size=(d, d_in)).ravel(), rng.normal(size=d), rng.normal(size=(n, d)).ravel(), 0.2 * rng.normal(size=n)]
        )
        record("pretrain", _flat_check(pretrain_lg, x0, rng))

        dataset = _tiny_dataset(rng, n_classes=6, dim=d_in, points=16)
        ecfg = meta.EpisodeConfig(
            n_support_classes=2, n_novel_classes=2, shots_min=1, shots_max=3, queries_per_class=3
        )
        template = meta.init_meta_params(d, rng, encoder=_random_affine(rng, d, d_in))
        episode = meta.sample_sc_task(dataset, ecfg, rng)
        for name, sequential in (("meta_sc", False), ("meta_sc_sequential", True)):
            loss_fn, grad_fn = meta.meta_loss_functions(
                template, episode, 0.1, "sc", sequential=sequential, cond_seed=int(rng.integers(2**31))
            )
            record(name, meta.grad_check(loss_fn, grad_fn, meta.params_to_vector(template), rng=rng))

        lc_cfg = meta.EpisodeConfig(
            n_support_classes=0, n_novel_classes=2, shots_min=1, shots_max=3, queries_per_class=3
        )
        known = [1, 2, 3]
        lc_template = meta.MetaParams(
            encoder=_random_affine(rng, d, d_in),
            q0=rng.normal(size=d),
            log_lambda0=0.3 * rng.normal(),
            rho=rng.normal(),
            class_q=rng.normal(size=(len(known), d)),
            class_log_lambda=0.3 * rng.normal(size=len(known)),
        )
        lc_episode = meta.sample_lc_task(dataset, lc_cfg, rng, known)
        loss_fn, grad_fn = meta.meta_loss_functions(
            lc_template, lc_episode, 0.1, "lc", cond_seed=int(rng.integers(2**31))
        )
        record("meta_lc", meta.grad_check(loss_fn, grad_fn, meta.params_to_vector(lc_template), rng=rng))

        support_y = np.concatenate([np.arange(1, 3), rng.integers(1, 3, size=5)])
        support_x = rng.normal(size=(len(support_y), d_in))
        q0 = rng.normal(size=d)

        def finetune_lg(v, shapes=[(d, d_in), (d,)]):
            W, b = _unflatten(v, shapes)
            value, dW, db = losses.loo_support_grads(
                support_x, support_y, W, b, q0, 1.3,
                params=CrpParams(a=0.5, rho=1.0), noise_var=0.5,
            )
            return value, np.concatenate([dW.ravel(), db])

        x0 = np.concatenate([rng.normal(size=(d, d_in)).ravel(), rng.normal(size=d)])
        record("fine_tune", _flat_check(finetune_lg, x0, rng))
    return out


def _unflatten(vec, shapes):
    out, pos = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        out.append(np.asarray(vec[pos : pos + n]).reshape(shape))
        pos += n
    return out


def _random_affine(rng, d_out, d_in) -> Encoder:
    return Encoder.affine(rng.normal(size=(d_out, d_in)) / np.sqrt(d_in), rng.normal(size=d_out))


def _tiny_dataset(rng, n_classes, dim, points):
    labels = np.repeat(np.arange(1, n_classes + 1), points)
    means = rng.normal(0.0, 3.0, size=(n_classes, dim))
    features = np.repeat(means, points, axis=0) + rng.normal(size=(n_classes * points, dim))
    return EmbeddingDataset(labels, features)
