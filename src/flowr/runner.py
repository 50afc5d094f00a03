"""Evaluation orchestration: sampled test episodes, metrics, and reports.

Episodes are sampled serially in index order, each with its own
(seed, index) RNG split, and run in blocks of whole episodes within
losses.BLOCK_QUERIES queries: a flowr block is one model._fold pass from
one start state, each episode's support folded as the head of its
queries, which gives each episode the bits it gets alone.
`evaluate(workers=...)` is kept for compatibility and selects nothing.
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
from .data import generate_synthetic_world
from .encoder import Encoder
from .meta import oracle_labels
from .metrics import EpisodeRecords, accuracy_suite, roc_curve, scores_from_records, threshold_at_tpr
from .model import PredictionRecord, _fold, _large_context, fine_tune_output_layer, init_small_context


@dataclass
class EvalResult:
    episodes: list
    metrics: dict
    roc: tuple


def _sample(dataset, cfg: ExperimentConfig, index, seed, known_classes):
    """Episode index of an evaluation run, from its own (seed, index) RNG split."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    if cfg.setting == "sc":
        return meta.sample_sc_task(dataset, cfg.eval_episode_config(), rng)
    return meta.sample_lc_task(dataset, cfg.eval_episode_config(), rng, known_classes)


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

    Episodes run in blocks, as many whole ones as fit in
    losses.BLOCK_QUERIES queries (at least one), a flowr block through one
    model._fold pass; beyond its result, evaluate holds one block. Flowr
    episodes share one start state: empty in small context, each support
    the head of its stream (fine-tuning builds a tuned state per episode),
    or the model._large_context table over the checkpoint's class_q and
    exp(class_log_lambda) as stored, else its embeddings. NCM starts from
    each support, or from the class means. known_classes defaults to the
    large-context classes (ids 1..n_kk); the rest form the novel pool.
    `workers` is ignored.
    """
    if method not in ("flowr", "ncm"):
        raise ValueError(f"unknown method {method!r}")
    n_episodes = cfg.eval_episodes if n_episodes is None else n_episodes
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be at least 1, got {n_episodes}")
    seed = cfg.seed if seed is None else seed
    start, params = None, ckpt.params
    if cfg.setting == "lc":
        if params.class_q is not None:
            lam = np.exp(params.class_log_lambda)
            rows, means = (params.class_q, lam), params.class_q / lam[:, None]
        elif ckpt.embeddings is not None:
            rows, means = ckpt.embeddings.natural_params(), ckpt.embeddings.means
        else:
            raise ValueError("large-context evaluation needs class stats in the checkpoint")
        if known_classes is None:
            known_classes = np.arange(1, len(means) + 1)
        if method == "flowr":
            start = _large_context(*rows, params.prior(), ckpt.crp, ckpt.noise, params.encoder)
        else:
            start = PrototypeState.from_means(means)
    elif method == "flowr":
        start = init_small_context(params.prior(), ckpt.crp, ckpt.noise, params.encoder, [])
    dim = params.encoder.weight.shape[0] if params.encoder.kind == "affine" else dataset.dim
    tune = cfg.setting == "sc" and cfg.fine_tune_steps > 0 and params.encoder.kind == "affine"

    def run(block):
        """The EpisodeRecords of a block of sampled (episode, labels)."""
        if method == "ncm":
            results = [
                run_baseline_episode(
                    start or init_prototypes(zip(e.support_x, e.support_y), dim, params.encoder),
                    list(zip(e.query_x, y)), encoder=params.encoder,
                )
                for e, y in block
            ]
        elif tune:  # a tuned start state per episode, its support folded into it
            streams = []
            for e, y in block:
                support = list(zip(e.support_x, e.support_y))
                tuned = fine_tune_output_layer(start, support, cfg.fine_tune_steps, cfg.fine_tune_step_size)
                streams.append((tuned, (), (), e.query_x, y))
            results = _fold(streams, finals=False)
        else:
            results = _fold([(start, e.support_x, e.support_y, e.query_x, y) for e, y in block], finals=False)
        return [EpisodeRecords(records, n_initial=e.n_known) for (e, _), (records, _) in zip(block, results)]

    episodes, block, size = [], [], 0
    for i in range(n_episodes):
        episode = _sample(dataset, cfg, i, seed, known_classes)
        labels = oracle_labels(episode)
        if block and size + len(labels) > losses.BLOCK_QUERIES:
            episodes += run(block)
            block, size = [], 0
        block.append((episode, labels))
        size += len(labels)
    episodes += run(block)

    metrics, scores = metrics_at_tpr(episodes, cfg.operating_tpr)
    metrics.update({"method": method, "n_episodes": n_episodes, "seed": seed})
    return EvalResult(episodes=episodes, metrics=metrics, roc=roc_curve(scores))


def metrics_at_tpr(episodes, target_tpr) -> tuple:
    """The metric suite at the threshold whose TPR first reaches target_tpr
    (threshold_at_tpr), with tau and the achieved and target TPR added:
    (metrics, the novelty scores). flowr eval and flowr report both use it."""
    scores = scores_from_records(episodes)
    tau, achieved = threshold_at_tpr(scores, target_tpr)
    metrics = accuracy_suite(episodes, tau)
    metrics.update({"tau": tau, "achieved_tpr": achieved, "target_tpr": target_tpr})
    return metrics, scores


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
    text = "".join(f"{float(f)!r},{float(t)!r},{float(th)!r}\n" for f, t, th in zip(fpr, tpr, thresholds))
    with open(path, "w") as fh:
        fh.write("fpr,tpr,threshold\n" + text)


def write_records(path, episodes):
    text = "".join(
        f"record episode={e} query={i} true={r.true_label} "
        f"predicted={_fmt(r.predicted)} known_argmax={_fmt(r.known_argmax)} "
        f"novelty={float(r.novelty_score)!r} n_at_prediction={r.n_at_prediction} "
        f"n_initial={ep.n_initial}\n"
        for e, ep in enumerate(episodes)
        for i, r in enumerate(ep.records)
    )
    with open(path, "w") as fh:
        fh.write(text)


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
        record("pretrain", meta.grad_check(lambda v: pretrain_lg(v)[0], lambda v: pretrain_lg(v)[1], x0, rng=rng))

        dataset = generate_synthetic_world(6, d_in, 9.0, 1.0, 16, seed=rng)
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
        record("fine_tune", meta.grad_check(lambda v: finetune_lg(v)[0], lambda v: finetune_lg(v)[1], x0, rng=rng))
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
