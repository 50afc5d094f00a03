"""Open-world recognition with Gaussian class posteriors and a CRP prior.

The model state holds one natural-parameter Gaussian per known class plus a
shared prior that doubles as the predictive model for the next brand-new
class. Prediction is Bayes rule over N known classes and one novel slot;
updates are pure functions so episodes can be replayed and states shared.

Labels follow the dense arrival protocol: classes are numbered 1..N in order
of first appearance, and a label of exactly N + 1 announces a new class.
crp checks it: update with the one-label rule, the streams with its scan.

A state wraps a losses.ClassTable, the immutable class table the training
losses use too: one row per class and the prior's row (the novel slot)
last, natural parameters Q (N + 1, d) and lam (N + 1,), the cached
predictive means Q / lam and variances 1 / lam + s_eps, and int64 counts.
The table is the only holder of the counts: predict is the table's forward
pass under the CRP prior read straight from the table's counts, and
`counts` builds a crp.ClassCounts on demand. condition is the online step:
update builds the next table with it, which shares the rows for a
known-known label and copies them once otherwise. run_episode and
init_small_context know every label in advance, so they build the final
table from one losses.Prefix pass, its last row versions and counts,
stepping nothing; run_episode also scores the whole stream in that pass,
as the one-stream case of run_episodes, which scores several streams in
one pass.
_encode and _encode_labelled are flowr's only readers of raw inputs and
labelled streams: every call here, fine-tuning and the NCM baseline read
each input once, in one block, refuse a bad one with the same one-line
error and report a stream's first fault in stream order. Earlier states
stay valid. `class_stats` builds NaturalClassStats on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .crp import ClassCounts, CrpParams, ProtocolError, arrival_labels, label_fault, predictive_class_probs
from .encoder import ClassEmbeddings, Encoder
from .gaussian import NaturalClassStats, NoiseModel, SharedPrior, log_density_matrix

_FAR = "input is too far from every class: no class gives it a finite log density"  # its posterior is NaN


class ModelState:
    """Immutable model state over a losses.ClassTable (see the module
    docstring); ModelState(...) is the validated constructor, the model's
    steps derive states without it."""

    def __init__(self, encoder, class_stats, counts, crp_params, prior, noise, n_kk=0):
        class_stats = tuple(class_stats)
        d = prior.prior.dim
        if any(s.dim != d for s in class_stats):
            raise ValueError(f"class stats must have the prior's dimension {d}")
        self._fill(
            np.array([s.q for s in class_stats]).reshape(len(class_stats), d), np.array([s.lam for s in class_stats]),
            encoder=encoder, counts=counts, crp_params=crp_params, prior=prior, noise=noise, n_kk=n_kk,
        )

    @classmethod
    def _from_arrays(cls, Q, lam, **fields) -> "ModelState":
        """A validated state from the class rows (Q, lam)."""
        state = object.__new__(cls)
        state._fill(Q, lam, **fields)
        return state

    def _fill(self, Q, lam, *, encoder, counts: ClassCounts, crp_params, prior, noise, n_kk):
        """Validate, build the class table and set every field."""
        n = lam.shape[0]
        if n != counts.n_classes:
            raise ValueError(f"{n} class stats but {counts.n_classes} counts")
        if not 0 <= n_kk <= n:
            raise ValueError(f"n_kk = {n_kk} outside 0..{n}")
        _check_width(encoder, Q.shape[1])
        p0 = prior.prior
        table = losses.ClassTable(Q, lam, counts.counts, p0.q, p0.lam, noise.noise_variance, n_kk=int(n_kk))
        if not (np.isfinite(table.Q).all() and np.isfinite(table.lam).all() and (table.lam > 0.0).all()):
            raise ValueError("class stats must be finite with positive precision")
        self.__dict__.update(encoder=encoder, crp_params=crp_params, prior=prior, noise=noise, _table=table)

    def _derive(self, table) -> "ModelState":
        """The state over a table derived from this state's, sharing every other field."""
        state = object.__new__(ModelState)
        state.__dict__.update(self.__dict__, _table=table)
        return state

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelState is immutable; cannot set {name!r}")

    # the table's read-only rows
    Q = property(lambda s: s._table.Q)
    lam = property(lambda s: s._table.lam)
    means = property(lambda s: s._table.means)
    variances = property(lambda s: s._table.variances)
    n_kk = property(lambda s: s._table.n_kk)
    dim = property(lambda s: s._table.Q.shape[1])

    @property
    def n_classes(self) -> int:
        return self._table.n

    @property
    def counts(self) -> ClassCounts:
        """The table's class counts as a ClassCounts, built on demand."""
        return ClassCounts(self._table.counts)

    @property
    def class_stats(self) -> tuple:
        """The N class rows as NaturalClassStats, built on demand."""
        return tuple(NaturalClassStats(q=self.Q[i], lam=self.lam[i]) for i in range(self.n_classes))


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


def _check_width(encoder: Encoder, dim):
    """Refuse an affine encoder whose output length is not the class
    dimension dim, a fault met before any input is read (.row 0)."""
    k = encoder.weight.shape[0] if encoder.kind == "affine" else dim
    if k != dim:
        fault = ValueError(f"encoder output dimension {k} != class dimension {dim}")
        fault.row = 0
        raise fault


def _encode(encoder: Encoder, dim, inputs) -> np.ndarray:
    """Read and encode a list of raw inputs in one call: Z (m, dim), where
    an identity encoder takes vectors of length dim and an affine one of
    length weight.shape[1]. An affine encoder applies the stacked
    matmul(weight, x[:, :, None]), which gives weight @ x + bias bit for
    bit for every row (the 2-D GEMM of Encoder.__call__ does not). An
    encoder whose output length is not dim is refused first (_check_width).
    A bad input raises the error a check of that row alone raises, with the
    row as .row: the first that is not one vector of length d_in, holds a
    number beyond float range or is not finite after encoding.
    """
    _check_width(encoder, dim)
    d_in = dim if encoder.kind == "identity" else encoder.weight.shape[1]
    m, fault = len(inputs), None
    try:
        X = np.asarray(inputs, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        X = None  # ragged, not numbers, or beyond float range: the row check below finds the row
    if X is None or X.shape != (m, d_in):
        for row, x in enumerate(inputs):
            try:
                shape = np.asarray(x, dtype=np.float64).shape
                if shape != (d_in,):
                    raise ValueError(f"input must be one vector of length {d_in}, got shape {shape}")
            except (TypeError, ValueError, OverflowError) as e:
                fault = ValueError(f"input must be finite: {e}") if isinstance(e, OverflowError) else e
                fault.row = m = row
                break
        X = np.asarray(inputs[:m], dtype=np.float64).reshape(m, d_in)
    Z = X if encoder.kind == "identity" else np.matmul(encoder.weight, X[:, :, None])[:, :, 0] + encoder.bias
    finite = np.isfinite(Z)
    if not finite.all():
        fault = ValueError("input must be finite (after encoding)")
        fault.row = int(finite.all(axis=1).argmin())
    if fault is not None:
        raise fault
    return Z


def _encode_labelled(encoder: Encoder, dim, n, stream, what, first_score=None) -> tuple:
    """Read and encode a labelled stream (a list of (input, label)) in one
    call and check its labels against n known classes: Z (m, dim) and the
    int64 labels. A fault is reported as stepping the stream would meet
    it: the first in stream order, a point's input before its label, and
    first_score() (run_episode's CRP check of scoring step 0) after point
    0's input and before any label. A label fault reads `{what} i: ...`."""
    labels = [y for _, y in stream]

    def checked(labels):
        if first_score is not None and labels:
            first_score()
        return arrival_labels(n, labels, what)

    try:
        Z = _encode(encoder, dim, [x for x, _ in stream])
    except (TypeError, ValueError) as e:
        checked(labels[: e.row])
        raise
    return Z, checked(labels)


def predict(state: ModelState, x) -> PredictionRecord:
    """Posterior over known classes and the novel slot for one raw input.

    known_argmax is the most probable known class. When no known class has
    posterior mass left (every known count is zero, as in a large-context
    state started at init_count=0, or the masses underflow), it is the
    known class with the highest log posterior, or with the highest
    predictive log-density when every known prior is zero. An input too
    far from every class, whose posterior would be NaN, is refused.
    """
    table = state._table
    logf = log_density_matrix(_encode(state.encoder, state.dim, [x]), table.means, table.variances)
    log_post = losses._bayes(logf, losses.log_class_prior(table, state.crp_params))
    if math.isnan(log_post[0, -1]):
        raise ValueError(_FAR)
    return _records(table.n, logf, log_post)[0]


def _records(n, logf, log_post, labels=None) -> list:
    """PredictionRecords of m queries, each scored against a table of n
    classes: their log densities and log posteriors (m, n + 1)."""
    probs = np.exp(log_post)
    m = len(probs)
    known_argmax = [None] * m
    if n > 0:
        known = probs[:, :n]
        has_mass = known.any(axis=1)
        if not has_mass.all():
            post = log_post[:, :n]
            fallback = np.where(np.isfinite(post).any(axis=1, keepdims=True), post, logf[:, :n])
            known = np.where(has_mass[:, None], known, fallback)
        known_argmax = (known.argmax(axis=1) + 1).tolist()
    predicted, novelty = (probs.argmax(axis=1) + 1).tolist(), probs[:, -1].tolist()
    labels = [None] * m if labels is None else labels.tolist()
    return [
        PredictionRecord(
            probs=probs[i], predicted=predicted[i], known_argmax=known_argmax[i], novelty_score=novelty[i],
            n_at_prediction=n, true_label=labels[i],
        )
        for i in range(m)
    ]


def update(state: ModelState, x, y) -> ModelState:
    """Condition the state on one labelled point; returns a new state over
    the next class table, which shares the rows for a known-known label
    (y <= n_kk)."""
    z = _encode(state.encoder, state.dim, [x])[0]
    fault = label_fault(y, state.n_classes)
    if fault:
        raise ProtocolError(fault)
    return state._derive(state._table.condition(z, int(y)))


def init_small_context(
    prior: SharedPrior,
    crp_params: CrpParams,
    noise: NoiseModel,
    encoder: Encoder,
    support,
) -> ModelState:
    """Condition an empty state on a labelled support set in arrival order.

    The support is encoded in one call and its table built by one
    losses.Prefix pass, which nothing scores. A fault is reported as
    stepping would meet it (_encode_labelled), a label's as
    `support point i: ...`.
    """
    state = ModelState(encoder, (), ClassCounts.empty(), crp_params, prior, noise)
    support = list(support)
    if not support:
        return state
    Z, labels = _encode_labelled(encoder, prior.prior.dim, 0, support, "support point")
    return state._derive(losses.Prefix(state._table, Z, labels, crp_params).final_table())


def init_large_context(
    embeddings: ClassEmbeddings,
    prior: SharedPrior,
    crp_params: CrpParams,
    noise: NoiseModel,
    encoder: Encoder,
    *,
    init_count=losses.ClassTable.PERSISTENT_COUNT,
) -> ModelState:
    """Start from pre-trained per-class Gaussians.

    Every known-known class starts at init_count, by default the count
    floor that large-context meta-training seeds (ClassTable.PERSISTENT_COUNT).
    At init_count=0 no known class has prior mass until its first label,
    so the whole prior sits on the novel slot.
    """
    if embeddings.dim != prior.prior.dim:
        raise ValueError(f"embeddings have dimension {embeddings.dim}, the prior {prior.prior.dim}")
    n = embeddings.n_classes
    return ModelState._from_arrays(
        *embeddings.natural_params(), encoder=encoder,
        counts=ClassCounts(np.full(n, int(init_count), dtype=np.int64)), crp_params=crp_params,
        prior=prior, noise=noise, n_kk=n,
    )


def run_episode(state: ModelState, queries):
    """Predict-then-update over a labelled query stream: run_episodes'
    one-stream case. Returns (records, final_state); records keep stream
    order and carry the true labels and the class count at prediction time.
    """
    return run_episodes([(state, queries)])[0]


def run_episodes(episodes) -> list:
    """run_episode over several (state, queries) streams, taken in order:
    one (records, final_state) per stream, bit for bit what it gets alone.

    One losses.chunks pass scores them, every step of every stream that
    sees the same class count at once, so the states must share the CRP
    parameters, n_kk and the rows below it, as large-context episodes from
    one start do. Each stream is read and checked before the next, so a
    fault is the first faulty stream's, as run_episode reports it. A query
    too far from every class (predict's refusal) is found once its stream
    is scored, after the stream's other faults and before a later stream's.
    """
    states, prefixes, first, fault = [], [], None, None  # a prefix per stream, None for an empty one
    for state, queries in episodes:
        queries, table, prefix = list(queries), state._table, None
        if queries:
            if first is not None and not _shares_rows(first, state):
                raise ValueError("episodes must share the CRP parameters and the rows below n_kk")
            # the CRP rule refuses to score step 0 when no class has a count yet and b <= 0
            first_score = None if table.counts.any() else lambda: predictive_class_probs(table, state.crp_params)
            try:
                Z, labels = _encode_labelled(state.encoder, state.dim, table.n, queries, "query", first_score)
            except (TypeError, ValueError) as e:
                fault = e  # raised after the streams before it are scored, which stepping meets first
                break
            prefix = losses.Prefix(table, Z, labels, state.crp_params)
            first = first or prefix
        states.append(state)
        prefixes.append(prefix)
    scored = [p for p in prefixes if p is not None]
    start = np.cumsum([0] + [len(p.labels) for p in scored])  # each stream's first step
    records, far = [None] * start[-1], start[-1]  # far: the first step whose posterior is NaN
    if scored:
        labels = np.concatenate([p.labels for p in scored])
        for c in losses.chunks(scored):
            far = c.steps[np.isnan(c.log_post[:, -1])].min(initial=far)
            for i, record in zip(c.steps.tolist(), _records(c.n, c.logf, c.log_post, labels[c.steps])):
                records[i] = record
    if far < start[-1]:
        raise ValueError(f"query {far - start[np.searchsorted(start, far, 'right') - 1]}: {_FAR}")
    if fault is not None:
        raise fault
    out, done = [], 0
    for state, prefix in zip(states, prefixes):
        m = 0 if prefix is None else len(prefix.labels)
        out.append((records[done : done + m], state if prefix is None else state._derive(prefix.final_table())))
        done += m
    return out


def _shares_rows(prefix, state) -> bool:
    """Whether state has prefix's CRP parameters, n_kk and rows below it."""
    t, u, k = prefix.table, state._table, prefix.table.n_kk
    return prefix.params == state.crp_params and k == u.n_kk and all(
        np.array_equal(getattr(t, a)[:k], getattr(u, a)[:k]) for a in ("means", "variances")
    )


def fine_tune_output_layer(state: ModelState, support, steps, step_size, *, return_trace=False):
    """Adapt the affine output layer to the support set at test time.

    Minimises the leave-one-out support NLL with a fixed step plus
    backtracking halving (at most 20 halvings per step); a step that cannot
    decrease the loss is rejected, so the trajectory never increases. The
    support is read as init_small_context reads it (_encode_labelled),
    before the first step, and the raw inputs are taken once it has passed.
    The returned state is rebuilt from the support with the adapted encoder.
    """
    if state.encoder.kind != "affine":
        raise ValueError("fine-tuning requires an encoder with an affine output layer")
    support = list(support)
    if not support:
        raise ValueError("fine-tuning requires a non-empty support set")
    _, labels = _encode_labelled(state.encoder, state.dim, 0, support, "support point")
    if steps == 0:
        return (state, []) if return_trace else state

    X = np.asarray([x for x, _ in support], dtype=np.float64)
    w, b = state.encoder.params
    p0 = state.prior.prior
    kwargs = dict(params=state.crp_params, noise_var=state.noise.noise_variance)

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

    tuned = init_small_context(state.prior, state.crp_params, state.noise, Encoder.affine(w, b), support)
    return (tuned, trace) if return_trace else tuned
