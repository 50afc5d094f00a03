"""Open-world recognition with Gaussian class posteriors and a CRP prior.

The model state holds one natural-parameter Gaussian per known class plus a
shared prior that doubles as the predictive model for the next brand-new
class. Prediction is Bayes rule over N known classes and one novel slot;
updates are pure functions so episodes can be replayed and states shared.

Labels follow the dense arrival protocol: classes are numbered 1..N in order
of first appearance, and a label of exactly N + 1 announces a new class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .crp import ClassCounts, CrpParams, instantiate, observe, predictive_class_probs
from .encoder import ClassEmbeddings, Encoder
from .gaussian import (
    IsotropicGaussian,
    NaturalClassStats,
    NoiseModel,
    SharedPrior,
    condition,
    factor_to_natural,
    log_density_matrix,
)


class ProtocolError(ValueError):
    """A label or state transition violated the dense arrival protocol."""


@dataclass(frozen=True)
class ModelState:
    encoder: Encoder
    class_stats: tuple
    counts: ClassCounts
    crp_params: CrpParams
    prior: SharedPrior
    noise: NoiseModel
    n_kk: int = 0
    novel_first_count: int = 2

    def __post_init__(self):
        if len(self.class_stats) != self.counts.n_classes:
            raise ValueError(
                f"{len(self.class_stats)} class stats but {self.counts.n_classes} counts"
            )
        if not 0 <= self.n_kk <= len(self.class_stats):
            raise ValueError(f"n_kk = {self.n_kk} outside 0..{len(self.class_stats)}")
        if self.novel_first_count not in (1, 2):
            raise ValueError(f"novel_first_count must be 1 or 2, got {self.novel_first_count}")

    @property
    def n_classes(self) -> int:
        return len(self.class_stats)


@dataclass
class PredictionRecord:
    """One query's outcome. probs spans the N known classes plus the novel
    slot in the last position for the flowr model; baselines may carry a
    shorter vector or none. Higher novelty_score always means more novel."""

    probs: np.ndarray | None
    predicted: int
    known_argmax: int | None
    novelty_score: float
    n_at_prediction: int
    true_label: int | None = None


def state_log_posterior(state: ModelState, Z) -> np.ndarray:
    """Log posterior over (classes 1..N, novel) for each embedded row of Z."""
    return _log_posterior(state, Z)[0]


def _log_posterior(state: ModelState, Z):
    """(log posterior, log predictive density) over (classes 1..N, novel) per row of Z."""
    n = state.n_classes
    p0 = state.prior.prior
    d = p0.dim
    Z = np.asarray(Z, dtype=np.float64)
    Q = np.vstack([np.array([s.q for s in state.class_stats]).reshape(n, d), p0.q[None, :]])
    lam = np.append(np.array([s.lam for s in state.class_stats]), p0.lam)
    means = Q / lam[:, None]
    variances = 1.0 / lam + state.noise.noise_variance
    logf = log_density_matrix(Z, means, variances)
    with np.errstate(divide="ignore"):
        log_prior = np.log(predictive_class_probs(state.counts, state.crp_params))
    logits = logf + log_prior[None, :]
    return logits - losses.logsumexp(logits, axis=1)[:, None], logf


def predict(state: ModelState, x) -> PredictionRecord:
    """Posterior over known classes and the novel slot for one raw input.

    known_argmax is the most probable known class. When no known class has
    posterior mass left (every known count is zero, as in a fresh
    large-context state, or the masses underflow), it is the known class
    with the highest log posterior, or with the highest predictive
    log-density when every known prior is zero.
    """
    z = state.encoder(np.asarray(x, dtype=np.float64))
    if z.ndim != 1:
        raise ValueError(f"predict takes a single input vector, got shape {z.shape}")
    log_post, logf = _log_posterior(state, z[None, :])
    log_post, logf = log_post[0], logf[0]
    probs = np.exp(log_post)
    n = state.n_classes
    known = probs[:n]
    if n > 0 and not known.any():
        known = log_post[:n] if np.isfinite(log_post[:n]).any() else logf[:n]
    return PredictionRecord(
        probs=probs,
        predicted=int(np.argmax(probs)) + 1,
        known_argmax=int(np.argmax(known)) + 1 if n > 0 else None,
        novelty_score=float(probs[-1]),
        n_at_prediction=n,
    )


def update(state: ModelState, x, y) -> ModelState:
    """Condition the state on one labelled point; returns a new state."""
    y = int(y)
    n = state.n_classes
    if y < 1:
        raise ProtocolError(f"label {y} is not a positive class index")
    if y > n + 1:
        raise ProtocolError(f"label {y} skips ahead of the {n} known classes")

    z = state.encoder(np.asarray(x, dtype=np.float64))
    stats = list(state.class_stats)
    counts = state.counts
    if y == n + 1:
        stats.append(state.prior.prior)
        counts = instantiate(counts)
        if state.novel_first_count == 2:
            counts = observe(counts, y)
    else:
        counts = observe(counts, y)
    if y > state.n_kk:
        stats[y - 1] = condition(stats[y - 1], z, state.noise)
    return replace(state, class_stats=tuple(stats), counts=counts)


def init_small_context(
    prior: SharedPrior,
    crp_params: CrpParams,
    noise: NoiseModel,
    encoder: Encoder,
    support,
    *,
    novel_first_count=2,
) -> ModelState:
    """Condition an empty state on a labelled support set in arrival order."""
    state = ModelState(
        encoder=encoder,
        class_stats=(),
        counts=ClassCounts.empty(),
        crp_params=crp_params,
        prior=prior,
        noise=noise,
        n_kk=0,
        novel_first_count=novel_first_count,
    )
    for i, (x, y) in enumerate(support):
        try:
            state = update(state, x, y)
        except ProtocolError as e:
            raise ProtocolError(f"support point {i}: {e}") from e
    return state


def init_large_context(
    embeddings: ClassEmbeddings,
    prior: SharedPrior,
    crp_params: CrpParams,
    noise: NoiseModel,
    encoder: Encoder,
    *,
    novel_first_count=2,
    init_count=0,
) -> ModelState:
    """Start from pre-trained per-class Gaussians.

    By default every known-known class starts with count zero, which under
    the clamped class prior means the whole prior mass sits on the novel
    slot until labels arrive; init_count > 0 seeds each class with that
    many pseudo-observations instead (matching the count floor used when
    meta-training in this setting).
    """
    stats = tuple(
        factor_to_natural(IsotropicGaussian(mean=m, variance=v))
        for m, v in zip(embeddings.means, embeddings.variances)
    )
    counts = np.full(embeddings.n_classes, int(init_count), dtype=np.int64)
    return ModelState(
        encoder=encoder,
        class_stats=stats,
        counts=ClassCounts(counts),
        crp_params=crp_params,
        prior=prior,
        noise=noise,
        n_kk=embeddings.n_classes,
        novel_first_count=novel_first_count,
    )


def run_episode(state: ModelState, queries):
    """Predict-then-update over a labelled query stream.

    Returns (records, final_state); records keep stream order and carry the
    true labels and the class count at prediction time.
    """
    records = []
    for i, (x, y) in enumerate(queries):
        record = predict(state, x)
        record.true_label = int(y)
        records.append(record)
        try:
            state = update(state, x, y)
        except ProtocolError as e:
            raise ProtocolError(f"query {i}: {e}") from e
    return records, state


def fine_tune_output_layer(state: ModelState, support, steps, step_size, *, return_trace=False):
    """Adapt the affine output layer to the support set at test time.

    Minimises the leave-one-out support NLL with a fixed step plus
    backtracking halving (at most 20 halvings per step); a step that cannot
    decrease the loss is rejected, so the trajectory never increases. The
    returned state is rebuilt from the support with the adapted encoder.
    """
    if state.encoder.kind != "affine":
        raise ValueError("fine-tuning requires an encoder with an affine output layer")
    support = list(support)
    if not support:
        raise ValueError("fine-tuning requires a non-empty support set")
    if steps == 0:
        return (state, [])  if return_trace else state

    X = np.stack([np.asarray(x, dtype=np.float64) for x, _ in support])
    labels = np.array([int(y) for _, y in support])
    w, b = state.encoder.params
    p0 = state.prior.prior
    kwargs = dict(
        params=state.crp_params,
        noise_var=state.noise.noise_variance,
        novel_first_count=state.novel_first_count,
    )

    loss, d_w, d_b = losses.loo_support_grads(X, labels, w, b, p0.q, p0.lam, **kwargs)
    trace = [loss]
    for _ in range(int(steps)):
        alpha = step_size
        accepted = False
        for _ in range(20):
            w_try = w - alpha * d_w
            b_try = b - alpha * d_b
            new_loss, nd_w, nd_b = losses.loo_support_grads(
                X, labels, w_try, b_try, p0.q, p0.lam, **kwargs
            )
            if np.isfinite(new_loss) and new_loss <= loss:
                w, b, loss, d_w, d_b = w_try, b_try, new_loss, nd_w, nd_b
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        trace.append(loss)

    tuned = init_small_context(
        state.prior,
        state.crp_params,
        state.noise,
        Encoder.affine(w, b),
        support,
        novel_first_count=state.novel_first_count,
    )
    return (tuned, trace) if return_trace else tuned
