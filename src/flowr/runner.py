"""Evaluation orchestration: sampled test episodes, metrics, and reports.

Episodes are sampled serially in index order, each with its own
(seed, index) RNG split, and run in blocks of whole episodes within
losses.BLOCK_QUERIES queries: a flowr block is one model._fold pass from
one start state, each episode's support folded as the head of its
queries, which gives each episode the bits it gets alone (with
fine-tuning, one pass per episode from its tuned state).
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
from .model import NO_CLASS, Outcomes, _fold, _large_context, fine_tune_output_layer, init_small_context


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
    the head of its stream (fine-tuning folds each episode's queries from
    its own tuned state, one pass per episode), or the model._large_context table over the checkpoint's class_q and
    exp(class_log_lambda) as stored, else its embeddings. NCM starts from
    each support, or from the class means. known_classes defaults to the
    large-context classes (ids 1..n_kk); the rest form the novel pool. A
    list that does not give one distinct dataset class per class row is refused.
    fine_tune_steps > 0 is refused where nothing fine-tunes: NCM, large
    context, or an encoder that is not affine. `workers` is ignored.
    """
    if method not in ("flowr", "ncm"):
        raise ValueError(f"unknown method {method!r}")
    n_episodes = cfg.eval_episodes if n_episodes is None else n_episodes
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be at least 1, got {n_episodes}")
    seed = cfg.seed if seed is None else seed
    start, params = None, ckpt.params
    if cfg.fine_tune_steps and (method != "flowr" or cfg.setting != "sc" or params.encoder.kind != "affine"):
        raise ValueError(f"fine_tune_steps = {cfg.fine_tune_steps} needs small-context flowr with an affine encoder")
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
        if len(known_classes) != len(means) or len(np.intersect1d(known_classes, dataset.class_ids)) != len(means):
            raise ValueError(f"known_classes must give one distinct dataset class per class row ({len(means)})")
        if method == "flowr":
            start = _large_context(*rows, params.prior(), ckpt.crp, ckpt.noise, params.encoder)
        else:
            start = PrototypeState.from_means(means)
    elif method == "flowr":
        start = init_small_context(params.prior(), ckpt.crp, ckpt.noise, params.encoder, [])
    dim = params.encoder.weight.shape[0] if params.encoder.kind == "affine" else dataset.dim

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
        elif cfg.fine_tune_steps:  # a tuned start state per episode, its support folded into it
            results = []
            for e, y in block:
                support = list(zip(e.support_x, e.support_y))
                tuned = fine_tune_output_layer(start, support, cfg.fine_tune_steps, cfg.fine_tune_step_size)
                results += _fold(tuned, [((), (), e.query_x, y)], finals=False)
        else:
            results = _fold(start, [(e.support_x, e.support_y, e.query_x, y) for e, y in block], finals=False)
        return [EpisodeRecords(outcomes, n_initial=e.n_known) for (e, _), (outcomes, _) in zip(block, results)]

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
    rows = np.column_stack(roc).astype(np.float64)
    with open(path, "w") as fh:
        fh.write("fpr,tpr,threshold\n" + ("%r,%r,%r\n" * len(rows)) % tuple(rows.ravel().tolist()))


_RECORD = (
    "record episode=%d query=%d true=%d predicted=%s known_argmax=%s novelty=%r n_at_prediction=%d n_initial=%s\n"
)
_FIELDS = ("episode", "query", "true", "predicted", "known_argmax", "novelty", "n_at_prediction", "n_initial")
_LEAST = {"episode": 0, "query": 0, "predicted": 1, "known_argmax": 1}  # a class counts from 1; none is NO_CLASS


def write_records(path, episodes):
    """One `record` line per query, episode after episode, formatted from
    the episodes' columns by one % over all of them."""
    episodes = list(episodes)

    def column(name):
        return np.concatenate([getattr(e.columns, name) for e in episodes] or [np.empty(0)])

    total = sum(len(e) for e in episodes)
    values = [None] * (len(_FIELDS) * total)
    values[0::8] = [e for e, ep in enumerate(episodes) for _ in range(len(ep))]
    values[1::8] = [i for ep in episodes for i in range(len(ep))]
    values[2::8] = column("true").tolist()
    values[3::8] = _none_as_named(column("predicted"))
    values[4::8] = _none_as_named(column("known_argmax"))
    values[5::8] = column("novelty").tolist()
    values[6::8] = column("n_at").tolist()
    values[7::8] = [ep.n_initial for ep in episodes for _ in range(len(ep))]
    with open(path, "w") as fh:
        fh.write((_RECORD * total) % tuple(values))


def _none_as_named(column) -> list:
    """column.tolist(), NO_CLASS as none."""
    named = column.astype(object)
    named[column == NO_CLASS] = "none"
    return named.tolist()


def read_records(path) -> list:
    """Rebuild EpisodeRecords, as columns without probs, from a record file
    written by write_records: each episode's lines in query order. A line
    with an unknown tag, a token that is not key=value, a missing field, a
    value that does not parse, is out of range or is a novelty that is not
    finite, an episode whose lines disagree on n_initial, and one whose
    query indices are not 0..m-1, each once, are refused with a one-line
    `path:line: ...` ValueError.
    """
    rows, line_nos = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rows.append(_parse_record(line.split()))
                except ValueError as e:
                    raise ValueError(f"{path}:{line_no}: {e}") from None
                line_nos.append(line_no)
    if not rows:
        return []
    columns = [np.array(c) for c in zip(*rows)]
    order = np.lexsort((columns[1], columns[0]))  # by episode, then query, stably
    episode, query, true, predicted, known, novelty, n_at, n_initial = (c[order] for c in columns)
    bounds = np.append(np.flatnonzero(np.diff(episode, prepend=-1)), len(episode))  # each episode's lines
    first = np.repeat(bounds[:-1], np.diff(bounds))  # each line's episode's first line
    expected = np.arange(len(episode)) - first
    bad = np.flatnonzero((query != expected) | (n_initial != n_initial[first]))
    if len(bad):
        i = bad[0]
        e, q, k, at = episode[i], query[i], expected[i], line_nos[order[first[i]]]
        fault = (f"has no query {k}" if q > k else f"repeats query {q}" if q < k else
                 f"has n_initial {n_initial[i]}, not {n_initial[first[i]]} as on line {at}")
        raise ValueError(f"{path}:{line_nos[order[i]]}: episode {e} {fault}")
    episodes = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        outcomes = Outcomes(true[a:b], predicted[a:b], known[a:b], novelty[a:b], n_at[a:b])
        episodes.append(EpisodeRecords(outcomes, n_initial=int(n_initial[a])))
    return episodes


def _parse_record(tokens) -> list:
    """A record line's values in _FIELDS order, none as NO_CLASS."""
    if tokens[0] != "record":
        raise ValueError(f"unknown record tag {tokens[0]!r}")
    fields = {}
    for token in tokens[1:]:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"field {token!r} is not key=value")
        fields[key] = value
    row = []
    for name in _FIELDS:
        if name not in fields:
            raise ValueError(f"missing field {name!r}")
        value = fields[name]
        try:
            if name == "novelty":
                row.append(float(value))
            else:
                row.append(NO_CLASS if value == "none" and name in ("predicted", "known_argmax") else int(value))
        except ValueError:
            raise ValueError(f"{name}={value} is not {'a number' if name == 'novelty' else 'an integer'}") from None
        if name == "novelty" and not np.isfinite(row[-1]):
            raise ValueError(f"novelty {value} is not finite")
        if value != "none" and row[-1] < _LEAST.get(name, row[-1]):
            raise ValueError(f"{name}={value} is below {_LEAST[name]}")
    return row


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
