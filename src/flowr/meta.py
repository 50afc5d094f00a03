"""Episodic meta-training for both recognition settings.

Small-context episodes carry a labelled support set plus a query set in
which every unknown class shares one bucket label N + 1; large-context
episodes have no support and instead train per-class stats directly. Both
settings share one episode loss, losses.episode_grads: small-context is
the large-context case with no trainable class rows, and meta_grads only
checks that the parameters carry class stats exactly in large-context.
The loss is the query NLL read from the frozen post-support state (or,
with sequential=True, teacher-forced through the query stream as
inference would see it) plus a weighted adaptation loss that scores
one-shot class instantiation on the novel pool.

The frozen loss scores novel queries against the bucket label, the novel
slot of a table that never grows. The sequential loss replays the
arrival-order labels of oracle_labels instead, as evaluation does: each
novel class opens its own row when first seen, so later points of that
class are scored against it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .crp import check_finite, integers, inverse_softplus
from .encoder import ClassEmbeddings, Encoder
from .gaussian import NaturalClassStats, SharedPrior
from .model import _encode


@dataclass(frozen=True)
class EpisodeConfig:
    n_support_classes: int
    n_novel_classes: int
    shots_min: int = 1
    shots_max: int = 10
    queries_per_class: int = 10

    def __post_init__(self):
        if self.n_support_classes < 0 or self.n_novel_classes < 0:
            raise ValueError("class counts must be non-negative")
        if not 1 <= self.shots_min <= self.shots_max:
            raise ValueError(f"bad shot range [{self.shots_min}, {self.shots_max}]")
        if self.queries_per_class < 1:
            raise ValueError("queries_per_class must be at least 1")


@dataclass
class Episode:
    """One sampled task. query_y uses dense known labels plus the shared
    novel bucket n_known + 1; adapt_(x, y) repeats the novel-class query
    points with their original identities densely renumbered."""

    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    adapt_x: np.ndarray
    adapt_y: np.ndarray
    n_known: int
    support_rows: np.ndarray
    query_rows: np.ndarray
    query_class: np.ndarray
    known_classes: np.ndarray
    novel_classes: np.ndarray


@dataclass(frozen=True)
class MetaParams:
    """Trainable parameters: encoder, shared prior (precision in log space),
    raw CRP strength, plus per-class stats in the large-context setting."""

    encoder: Encoder
    q0: np.ndarray
    log_lambda0: float
    rho: float
    class_q: np.ndarray | None = None
    class_log_lambda: np.ndarray | None = None

    def prior(self) -> SharedPrior:
        return SharedPrior(prior=NaturalClassStats(q=self.q0, lam=float(np.exp(self.log_lambda0))))

    def with_class_embeddings(self, embeddings: ClassEmbeddings) -> "MetaParams":
        """These parameters with the large-context class stats taken from class embeddings."""
        Q, lam = embeddings.natural_params()
        return replace(self, class_q=Q, class_log_lambda=np.log(lam))


def init_meta_params(d, rng, *, encoder=None, a=0.5) -> MetaParams:
    """Random initial small-context parameters with CRP strength b = 1;
    MetaParams.with_class_embeddings adds large-context class stats."""
    encoder = encoder if encoder is not None else Encoder.identity()
    q0 = rng.normal(0.0, 0.1, size=d)
    return MetaParams(encoder=encoder, q0=q0, log_lambda0=0.0, rho=inverse_softplus(1.0 + a))


def _pick_rows(rng, rows, k, what):
    if k > len(rows):
        raise ValueError(f"class has {len(rows)} points, needs {k} for {what}")
    return rng.choice(rows, size=k, replace=False)


def sample_sc_task(dataset, cfg: EpisodeConfig, rng) -> Episode:
    """Sample a small-context episode: dense support classes, shuffled query
    stream with novel points bucketed at N + 1, support/query rows disjoint."""
    needed = cfg.n_support_classes + cfg.n_novel_classes
    class_ids = np.asarray(dataset.class_ids)
    if needed > len(class_ids):
        raise ValueError(f"dataset has {len(class_ids)} classes, episode needs {needed}")
    chosen = rng.choice(class_ids, size=needed, replace=False)
    return _episode(dataset, cfg, rng, chosen[: cfg.n_support_classes], chosen[cfg.n_support_classes :], support=True)


def sample_lc_task(dataset, cfg: EpisodeConfig, rng, known_classes) -> Episode:
    """Sample a large-context episode: no support; queries mix the fixed
    known-known classes with novel classes bucketed at N_kk + 1."""
    known_classes = np.asarray(known_classes, dtype=np.int64)
    rest = np.setdiff1d(np.asarray(dataset.class_ids), known_classes)
    if cfg.n_novel_classes > len(rest):
        raise ValueError(
            f"dataset has {len(rest)} classes outside the known list, "
            f"episode needs {cfg.n_novel_classes}"
        )
    novel_classes = rng.choice(rest, size=cfg.n_novel_classes, replace=False)
    return _episode(dataset, cfg, rng, known_classes, novel_classes, support=False)


def _episode(dataset, cfg: EpisodeConfig, rng, known_classes, novel_classes, *, support) -> Episode:
    """Pick each known class's rows (shots drawn per class when support is
    set), then each novel class's, and build the shuffled episode."""
    n_known, q = len(known_classes), cfg.queries_per_class
    classes = np.concatenate([known_classes, novel_classes]).astype(np.int64)
    # each class's picked rows; the empty int64 heads make an episode of no classes concatenate, as int64
    support_rows, query_rows, shots = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], []
    for j, c in enumerate(classes):
        shots.append(int(rng.integers(cfg.shots_min, cfg.shots_max + 1)) if support and j < n_known else 0)
        what = "novel queries" if j >= n_known else "support plus queries" if support else "queries"
        picked = _pick_rows(rng, dataset.class_rows(int(c)), shots[j] + q, what)
        support_rows.append(picked[: shots[j]])
        query_rows.append(picked[shots[j] :])

    perm = rng.permutation(len(classes) * q)
    which = np.repeat(np.arange(len(classes)), q)[perm]  # each query's index into classes
    query_rows = np.concatenate(query_rows)[perm]
    support_rows = np.concatenate(support_rows)
    novel_mask = which >= n_known
    # gathered from the float32 features and converted, which is exact
    query_x = dataset.features[query_rows].astype(np.float64)
    return Episode(
        support_x=dataset.features[support_rows].astype(np.float64),
        support_y=np.repeat(np.arange(1, len(classes) + 1), shots),
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


def oracle_labels(episode: Episode) -> np.ndarray:
    """Arrival-order labels for the query stream: known classes keep their
    dense ids, each novel class takes the next free id when first seen."""
    labels = np.array(episode.query_y, dtype=np.int64)
    novel = labels > episode.n_known
    _, first, inverse = np.unique(episode.query_class[novel], return_index=True, return_inverse=True)
    labels[novel] = episode.n_known + 1 + np.argsort(np.argsort(first))[inverse]
    return labels


def choose_conditioning(adapt_y, rng) -> np.ndarray:
    """One uniformly chosen conditioning row per adaptation class, in class order."""
    adapt_y = np.asarray(adapt_y, dtype=np.int64)
    n = int(adapt_y.max()) if adapt_y.size else 0
    return np.array(
        [int(rng.choice(np.flatnonzero(adapt_y == m + 1))) for m in range(n)], dtype=np.int64
    )


def adaptation_loss(prior: SharedPrior, noise, encoder: Encoder, adapt_pool, rng=None) -> float:
    """Mean NLL of one-shot instantiation on a pool of novel-class points.

    One sampled point per class conditions a fresh copy of the shared prior;
    the remaining points are classified under a uniform prior over the
    instantiated classes. A pool with no class of two or more points has
    nothing to score: the loss is 0 and a warning is emitted. The pool is
    read by the model's reader, model._encode; a non-integer label is refused.
    """
    if isinstance(adapt_pool, tuple):
        X, labels = adapt_pool
    else:
        pairs = list(adapt_pool)
        X, labels = [x for x, _ in pairs], [y for _, y in pairs]
    Z = _encode(encoder, prior.prior.dim, X)
    labels = integers(labels, "adaptation point {i}: label {v} is not an integer class index")
    if labels.size:
        _, dense = np.unique(labels, return_inverse=True)
        labels = dense + 1

    if labels.size == 0 or np.max(np.bincount(labels)[1:], initial=0) < 2:
        warnings.warn("adaptation pool has no class with two points; loss is 0", RuntimeWarning)
        return 0.0

    rng = rng if rng is not None else np.random.default_rng(0)
    cond = choose_conditioning(labels, rng)
    p0 = prior.prior
    return losses._adaptation_term(np.asarray(p0.q, dtype=np.float64), p0.lam, noise.noise_variance, Z, labels, cond)[0]


def meta_grads(
    params: MetaParams,
    episode: Episode,
    lambda_w,
    setting,
    *,
    a=0.5,
    noise_variance=0.5,
    sequential=False,
    cond_seed=0,
) -> losses.MetaGrads:
    """Episode loss plus analytic gradients for every trainable parameter.

    Large-context parameters carry one class row per known class of the
    episode, small-context ones none. The sequential loss replays the
    arrival-order labels of oracle_labels; the frozen loss keeps the novel
    bucket label. noise_variance must be positive and finite.
    """
    if setting not in ("sc", "lc"):
        raise ValueError(f"unknown setting {setting!r}")
    check_finite("noise_variance", noise_variance)
    if (setting == "lc") != (params.class_q is not None):
        raise ValueError(
            "large-context loss needs per-class stats in MetaParams" if setting == "lc"
            else "small-context loss takes no per-class stats; these are large-context parameters"
        )
    if setting == "lc" and params.class_q.shape[0] != episode.n_known:
        raise ValueError(f"episode has {episode.n_known} known classes but params carry {params.class_q.shape[0]}")
    if sequential:
        episode = replace(episode, query_y=oracle_labels(episode))
    cond = choose_conditioning(episode.adapt_y, np.random.default_rng(cond_seed))
    w, b = params.encoder.params
    return losses.episode_grads(
        w, b, params.q0, params.log_lambda0, params.rho, episode, params.class_q, params.class_log_lambda,
        a=a, noise_var=noise_variance, lambda_w=lambda_w, cond_idx=cond, sequential=sequential,
    )


def meta_loss(params, episode, lambda_w, setting, **kwargs) -> float:
    """Scalar episode objective: query NLL + lambda_w * adaptation loss."""
    return meta_grads(params, episode, lambda_w, setting, **kwargs).value


def meta_step(params: MetaParams, episodes, step_size, lambda_w, setting, *, rng=None, **kwargs):
    """One SGD step on a batch of episodes; aborts on non-finite gradients."""
    rng = rng if rng is not None else np.random.default_rng(0)
    vec = params_to_vector(params)
    acc = np.zeros_like(vec)
    stats = {"loss": 0.0, "nll": 0.0, "adapt": 0.0}
    for ep in episodes:
        g = meta_grads(
            params, ep, lambda_w, setting, cond_seed=int(rng.integers(2**31)), **kwargs
        )
        acc += grads_to_vector(params, g)
        stats["loss"] += g.value
        stats["nll"] += g.nll
        stats["adapt"] += g.adapt
    n = len(episodes)
    acc /= n
    for key in stats:
        stats[key] /= n
    if not (np.all(np.isfinite(acc)) and np.isfinite(stats["loss"])):
        raise FloatingPointError(
            f"meta-training diverged: loss = {stats['loss']}; reduce step_size"
        )
    return vector_to_params(params, vec - step_size * acc), stats


def run_meta_training(
    dataset,
    *,
    cfg: EpisodeConfig,
    setting="sc",
    n_episodes=1000,
    batch_size=1,
    step_size=1e-3,
    lambda_w=0.1,
    seed=0,
    init: MetaParams | None = None,
    known_classes=None,
    **kwargs,
):
    """Sample episodes and descend the meta objective; returns (params, trace).

    Large-context known_classes defaults to ids 1..n, one per class row of
    init, as evaluation's does. step_size must be positive and finite,
    lambda_w finite and non-negative, and meta_grads refuses a noise
    variance that is not positive and finite."""
    check_finite("step_size", step_size)
    check_finite("lambda_w", lambda_w, positive=False)
    if init is None and setting != "sc":
        raise ValueError(f"setting {setting!r} needs init parameters: only small-context training starts at random")
    rng = np.random.default_rng(seed)
    if init is None:
        init = init_meta_params(dataset.dim, rng, a=kwargs.get("a", 0.5))
    if known_classes is None and init.class_q is not None:
        known_classes = np.arange(1, init.class_q.shape[0] + 1)
    params = init
    trace = []
    done = 0
    while done < n_episodes:
        k = min(batch_size, n_episodes - done)
        if setting == "sc":
            eps = [sample_sc_task(dataset, cfg, rng) for _ in range(k)]
        else:
            eps = [sample_lc_task(dataset, cfg, rng, known_classes) for _ in range(k)]
        params, stats = meta_step(
            params, eps, step_size, lambda_w, setting, rng=rng, **kwargs
        )
        done += k
        trace.append({"step": len(trace), "episodes": done, **stats})
    return params, trace


# ---------------------------------------------------------------------------
# parameter packing and the finite-difference certificate

def _layout(template: MetaParams):
    """The flat vector's blocks in order, as (name, shape): encoder weight
    and bias (affine encoders only), q0, log lambda0, rho, then class_q and
    class_log_lambda (large-context only). A MetaGrads field is named
    d_<name>."""
    blocks = []
    if template.encoder.kind == "affine":
        blocks += [("weight", template.encoder.weight.shape), ("bias", template.encoder.bias.shape)]
    blocks += [("q0", np.shape(template.q0)), ("log_lambda0", ()), ("rho", ())]
    if template.class_q is not None:
        blocks += [("class_q", template.class_q.shape), ("class_log_lambda", template.class_log_lambda.shape)]
    return blocks


def _flatten(blocks) -> np.ndarray:
    return np.concatenate([np.asarray(b, dtype=np.float64).ravel() for b in blocks])


def params_to_vector(params: MetaParams) -> np.ndarray:
    return _flatten(
        getattr(params.encoder if name in ("weight", "bias") else params, name) for name, _ in _layout(params)
    )


def vector_to_params(template: MetaParams, vec) -> MetaParams:
    vec = np.asarray(vec, dtype=np.float64)
    layout = _layout(template)
    sizes = [int(np.prod(shape)) for _, shape in layout]
    if len(vec) != sum(sizes):
        raise ValueError(f"vector has {len(vec)} entries, parameters need {sum(sizes)}")
    values, pos = {}, 0
    for (name, shape), n in zip(layout, sizes):
        block = vec[pos : pos + n]
        values[name] = block.reshape(shape).copy() if shape else float(block[0])
        pos += n
    if "weight" in values:
        values["encoder"] = Encoder.affine(values.pop("weight"), values.pop("bias"))
    return replace(template, **values)


def grads_to_vector(template: MetaParams, g: losses.MetaGrads) -> np.ndarray:
    return _flatten(getattr(g, f"d_{name}") for name, _ in _layout(template))


def grad_check(loss_fn, grad_fn, params, *, step=1e-4, max_coords=200, rng=None):
    """Max relative error between grad_fn and central finite differences.

    Uses h_i = step * max(1, |x_i|) per coordinate; every coordinate is
    checked up to max_coords, beyond which a seeded random subset is used.
    The per-coordinate denominator is floored at 1% of the largest gradient
    magnitude so that coordinates sitting at the finite-difference noise
    floor do not dominate the report.
    """
    x = np.asarray(params, dtype=np.float64)
    analytic = np.asarray(grad_fn(x), dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError(f"gradient shape {analytic.shape} does not match params {x.shape}")
    dim = x.size
    if dim <= max_coords:
        coords = np.arange(dim)
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        coords = rng.choice(dim, size=max_coords, replace=False)

    numeric = np.zeros(len(coords))
    for j, i in enumerate(coords):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        numeric[j] = (loss_fn(xp) - loss_fn(xm)) / (2.0 * h)

    picked = analytic[coords]
    scale = max(np.max(np.abs(picked), initial=0.0), np.max(np.abs(numeric), initial=0.0), 1e-8)
    denom = np.maximum(np.maximum(np.abs(picked), np.abs(numeric)), 0.01 * scale)
    return float(np.max(np.abs(picked - numeric) / denom))


def meta_loss_functions(template: MetaParams, episode, lambda_w, setting, **kwargs):
    """(loss_fn, grad_fn) over the flat parameter vector, for grad_check."""

    def loss_fn(vec):
        return meta_loss(vector_to_params(template, vec), episode, lambda_w, setting, **kwargs)

    def grad_fn(vec):
        g = meta_grads(vector_to_params(template, vec), episode, lambda_w, setting, **kwargs)
        return grads_to_vector(template, g)

    return loss_fn, grad_fn
