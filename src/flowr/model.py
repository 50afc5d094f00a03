"""Open-world recognition with Gaussian class posteriors and a CRP prior.

The model state holds one natural-parameter Gaussian per known class plus a
shared prior that doubles as the predictive model for the next brand-new
class. Prediction is Bayes rule over N known classes and one novel slot;
updates are pure functions so episodes can be replayed and states shared.
Labels follow crp's dense arrival protocol: classes are numbered 1..N in
order of first appearance, and a label of N + 1 announces a new class.

A state wraps a losses.ClassTable, the immutable class table the training
losses use too (the prior's row, the novel slot, last). update conditions
it one step at a time; predict scores it. _fold is the one pass for
streams whose labels are all known: one losses.Prefix folds a block of
streams from one start state, each a support (a conditioning-only head)
and its queries, and one losses.chunks pass scores the queries into
Outcomes, the block's outcomes as columns; a stream's final state is
ClassTable.fold of its steps. init_small_context (a head and no
queries), run_episode (queries and no head, the columns built into
PredictionRecords) and runner.evaluate (the columns as they are) are its
cases. A block's first fault is found by stepping its streams with
update and predict, so the pass and stepping refuse the same input,
label, far query or overflowing row. _encode, _encode_one and
_encode_labelled are flowr's only readers of raw inputs: each call
encodes its inputs by losses.encode and refuses a bad one with a one-line
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .crp import CrpParams, InvalidStateError, ProtocolError, arrival_labels, checked_counts, class_prior, label_fault
from .encoder import ClassEmbeddings, Encoder
from .gaussian import NoiseModel, SharedPrior, differences

_FAR = "input is too far from every class: no class gives it a finite log density"  # its posterior is NaN
_OVERFLOW = "conditioning on it overflows its class row: the row's mean or variance is not finite"


class ModelState:
    """Immutable model state over a losses.ClassTable (see the module
    docstring). ModelState(encoder, Q, lam, counts, ...) is the validated
    constructor over N class rows Q (N, d) and lam (N,) and N counts; the
    model's steps derive states without it."""

    def __init__(self, encoder, Q, lam, counts, crp_params, prior, noise, n_kk=0):
        p0, counts = prior.prior, checked_counts(counts)
        Q, lam, n = np.asarray(Q, dtype=np.float64), np.asarray(lam, dtype=np.float64), len(counts)
        if Q.shape != (n, p0.dim) or lam.shape != (n,):
            raise ValueError(f"class rows Q {Q.shape} and lam {lam.shape} do not fit {n} counts at dimension {p0.dim}")
        if not 0 <= n_kk <= n:
            raise ValueError(f"n_kk = {n_kk} outside 0..{n}")
        _check_width(encoder, p0.dim)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
            table = losses.ClassTable(Q, lam, counts, p0.q, p0.lam, noise.noise_variance, n_kk=int(n_kk))
        if not (np.isfinite(table.Q).all() and (table.lam > 0.0).all() and _finite(table).all()):
            raise ValueError("class stats must be finite, with positive precision and a finite predictive")
        self.__dict__.update(encoder=encoder, crp_params=crp_params, prior=prior, noise=noise, _table=table)

    def _derive(self, table) -> "ModelState":
        """The state over a table derived from this state's, sharing every other field."""
        state = object.__new__(ModelState)
        state.__dict__.update(self.__dict__, _table=table)
        return state

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelState is immutable; cannot set {name!r}")

    # the table's read-only rows and int64 class counts
    Q = property(lambda s: s._table.Q)
    lam = property(lambda s: s._table.lam)
    means = property(lambda s: s._table.means)
    variances = property(lambda s: s._table.variances)
    n_kk = property(lambda s: s._table.n_kk)
    dim = property(lambda s: s._table.Q.shape[1])
    counts = property(lambda s: s._table.counts)
    n_classes = property(lambda s: s._table.n)


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


NO_CLASS = 0  # a predicted or known_argmax column's entry for None: classes count from 1


class Outcomes:
    """The outcomes of m labelled queries as columns: int64 true labels,
    predicted classes, known argmaxes (NO_CLASS for None) and class counts
    at prediction n_at, float64 novelty scores, and probs (m, width) or
    None, row i's posterior in its first n_at[i] + 1 entries, the novel
    slot last, padding beyond. Slicing gives the views of a run of rows;
    records() builds the PredictionRecords, probs as views of those rows."""

    __slots__ = ("true", "predicted", "known_argmax", "novelty", "n_at", "probs")

    def __init__(self, true, predicted, known_argmax, novelty, n_at, probs=None):
        self.true, self.predicted, self.known_argmax = true, predicted, known_argmax
        self.novelty, self.n_at, self.probs = novelty, n_at, probs

    @classmethod
    def of(cls, records) -> "Outcomes":
        """The columns of PredictionRecords that carry true labels; probs are not kept."""
        if any(r.true_label is None for r in records):
            raise ValueError("episode records need true labels")
        ints = np.array(
            [(r.true_label, r.predicted or NO_CLASS, r.known_argmax or NO_CLASS, r.n_at_prediction) for r in records],
            dtype=np.int64,
        ).reshape(-1, 4)
        true, predicted, known_argmax, n_at = ints.T.copy()
        return cls(true, predicted, known_argmax, np.array([r.novelty_score for r in records], dtype=np.float64), n_at)

    def __len__(self):
        return len(self.true)

    def __getitem__(self, rows: slice) -> "Outcomes":
        return Outcomes(*(None if c is None else c[rows] for c in (getattr(self, f) for f in self.__slots__)))

    def records(self) -> list:
        n_at = self.n_at.tolist()
        probs = [None] * len(n_at) if self.probs is None else [p[: n + 1] for p, n in zip(self.probs, n_at)]
        rows = zip(probs, self.predicted.tolist(), self.known_argmax.tolist(), self.novelty.tolist(), n_at,
                   self.true.tolist())
        return [PredictionRecord(p, c or None, k or None, s, n, y) for p, c, k, s, n, y in rows]


def _check_width(encoder: Encoder, dim) -> int:
    """The input length d_in the encoder reads; an affine encoder whose output length
    is not the class dimension dim is refused before any input is read (.row 0)."""
    if encoder.kind != "affine":
        return dim
    k, d_in = encoder.weight.shape
    if k != dim:
        fault = ValueError(f"encoder output dimension {k} != class dimension {dim}")
        fault.row = 0
        raise fault
    return d_in


def _encode(encoder: Encoder, dim, inputs) -> np.ndarray:
    """Read and encode raw inputs (a list or an array) in one call: Z (m,
    dim) by encoder(X), which applies losses.encode as training does, after
    _check_width. The first bad input raises what _encode_one raises for it
    alone, with its row as .row: not one vector of length d_in, a number
    beyond float range, or not finite after encoding.
    """
    d_in = _check_width(encoder, dim)
    try:
        X = np.asarray(inputs, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        X = None  # ragged, not numbers, or beyond float range: the rows are read one by one below
    if X is None or X.shape != (len(inputs), d_in):
        for row, x in enumerate(inputs):
            _encode_one(encoder, dim, x, row)  # raises the first bad row's fault
        X = np.asarray(inputs, dtype=np.float64).reshape(len(inputs), d_in)
    Z = encoder(X)
    finite = np.isfinite(Z)
    if not finite.all():
        fault = ValueError("input must be finite (after encoding)")
        fault.row = int(finite.all(axis=1).argmin())
        raise fault
    return Z


def _encode_one(encoder: Encoder, dim, x, row=0) -> np.ndarray:
    """_encode([x])[0] bit for bit with no block to build, the read of
    predict and update; a bad input raises its fault with row as .row."""
    d_in = _check_width(encoder, dim)
    try:
        v = np.asarray(x, dtype=np.float64)
        if v.shape != (d_in,):
            raise ValueError(f"input must be one vector of length {d_in}, got shape {v.shape}")
    except (TypeError, ValueError, OverflowError) as e:
        fault = ValueError(f"input must be finite: {e}") if isinstance(e, OverflowError) else e
    else:
        z = encoder(v[None])[0]
        if np.isfinite(z).all():
            return z
        fault = ValueError("input must be finite (after encoding)")
    fault.row = row
    raise fault


def _encode_labelled(encoder: Encoder, dim, n, stream, what) -> tuple:
    """Read and encode a labelled stream (a list of (input, label)) in one
    call and check its labels against n known classes: Z (m, dim) and the
    int64 labels, or the first fault in stream order, a point's input
    before its label. A label fault reads `{what} i: ...`."""
    labels = [y for _, y in stream]
    try:
        Z = _encode(encoder, dim, [x for x, _ in stream])
    except (TypeError, ValueError) as e:
        arrival_labels(n, labels[: e.row], what)
        raise
    return Z, arrival_labels(n, labels, what)


def predict(state: ModelState, x) -> PredictionRecord:
    """Posterior over known classes and the novel slot for one raw input.

    known_argmax is the most probable known class; when no known class has
    mass left (every known count zero, or the masses underflow), the one
    with the highest log posterior, else the highest predictive log
    density. An input too far from every class, whose posterior would be
    NaN, is refused.

    The difference block and a few vector operations over the class table's
    density constants and counts score it, bit for bit as _fold does.
    """
    table, z = state._table, _encode_one(state.encoder, state.dim, x)
    with np.errstate(over="ignore", divide="ignore"):  # -inf for a class too far or with no mass
        logf = table.log_norm - differences(z[None], table.means)[1][0] / table.two_v
        logits = logf + np.log(class_prior(table.counts, state.crp_params)[1])
    top = logits.max()
    if not top > -np.inf:
        raise ValueError(_FAR)
    log_post = logits - (top + np.log(np.exp(logits - top).sum()))
    probs, n = np.exp(log_post), table.n
    if probs[:n].any():
        known = int(probs[:n].argmax()) + 1
    else:  # no known class has mass: known_argmax falls back
        known = int(_known_argmax(n, probs[None], log_post[None], logf[None])[0]) or None
    return PredictionRecord(probs, int(probs.argmax()) + 1, known, float(probs[-1]), n)


def _known_argmax(n, probs, log_post, logf) -> np.ndarray:
    """The 1-based most probable known class of each of m queries scored
    against n classes (probs, log_post, logf (m, n + 1)), as predict
    defines it; NO_CLASS with no class."""
    if n == 0:
        return np.full(len(probs), NO_CLASS, dtype=np.int64)
    known = probs[:, :n]
    has_mass = known.any(axis=1)
    if not has_mass.all():
        post = log_post[:, :n]
        fallback = np.where(np.isfinite(post).any(axis=1, keepdims=True), post, logf[:, :n])
        known = np.where(has_mass[:, None], known, fallback)
    return known.argmax(axis=1) + 1


def _score(out, rows, n, logf, log_post):
    """Fill rows of out (Outcomes) with the outcomes of queries scored
    against n classes: their log densities and log posteriors (m, n + 1)."""
    probs = np.exp(log_post)
    out.probs[rows, : n + 1] = probs
    out.predicted[rows] = probs.argmax(axis=1) + 1
    out.known_argmax[rows] = _known_argmax(n, probs, log_post, logf)
    out.novelty[rows] = probs[:, -1]


def update(state: ModelState, x, y) -> ModelState:
    """Condition the state on one labelled point; returns a new state over
    the next class table, which shares the rows for a known-known label
    (y <= n_kk). A row the point would overflow is refused."""
    z = _encode_one(state.encoder, state.dim, x)
    fault = label_fault(y, state.n_classes)
    if fault:
        raise ProtocolError(fault)
    y = int(y)
    if y <= state.n_kk:  # a known-known label conditions no row
        return state._derive(state._table.condition(z, y))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        table = state._table.condition(z, y)
    if not _finite(table, y - 1):
        raise ValueError(_OVERFLOW)
    return state._derive(table)


def _finite(t, rows=slice(None)):
    """Whether each row of t (a class table or a Prefix's versions) has a finite lam, variance and mean."""
    return np.isfinite(t.lam[rows]) & np.isfinite(t.variances[rows]) & np.isfinite(t.means[rows]).all(axis=-1)


def init_small_context(
    prior: SharedPrior, crp_params: CrpParams, noise: NoiseModel, encoder: Encoder, support
) -> ModelState:
    """Condition an empty state on a labelled support set in arrival order:
    the one pass (_fold) over a stream that is all head, which scores
    nothing. A fault is reported as stepping would meet it, a label's or an
    overflowing row's as `support point i: ...`.
    """
    state = ModelState(encoder, np.zeros((0, prior.prior.dim)), [], [], crp_params, prior, noise)
    support = list(support)
    return _fold(state, [([x for x, _ in support], [y for _, y in support], (), ())])[0][1]


def init_large_context(
    embeddings: ClassEmbeddings, prior: SharedPrior, crp_params: CrpParams, noise: NoiseModel, encoder: Encoder,
    *, init_count=losses.ClassTable.PERSISTENT_COUNT,
) -> ModelState:
    """Start from pre-trained per-class Gaussians (_large_context).

    Every known-known class starts at init_count, by default the count
    floor that large-context meta-training seeds (ClassTable.PERSISTENT_COUNT).
    At init_count=0 no known class has prior mass until its first label,
    so the whole prior sits on the novel slot. A non-integer count is refused.
    """
    return _large_context(*embeddings.natural_params(), prior, crp_params, noise, encoder, init_count)


def _large_context(Q, lam, prior, crp_params, noise, encoder, init_count=losses.ClassTable.PERSISTENT_COUNT):
    """The large-context state over natural class rows (Q, lam) as given,
    each a known-known class at init_count: at the default, over (class_q,
    exp(class_log_lambda)), the table losses.episode_grads scores with no support."""
    return ModelState(encoder, Q, lam, np.full(len(lam), init_count), crp_params, prior, noise, n_kk=len(lam))


def run_episode(state: ModelState, queries):
    """Predict-then-update over a labelled query stream: the one pass
    (_fold) over a stream with no head, its columns built into records.
    Returns (records, final_state); records keep stream order and carry the
    true labels and the class count at prediction time.
    """
    queries = list(queries)
    out, final = _fold(state, [((), (), [x for x, _ in queries], [y for _, y in queries])])[0]
    return out.records(), final


def run_episodes(episodes) -> list:
    """run_episode over several (state, queries) streams, taken in order:
    one (records, final_state) per stream, and the first fault in stream order."""
    return [run_episode(state, queries) for state, queries in episodes]


def _fold(state, streams, finals=True) -> list:
    """The one pass from state over (head inputs, head labels, query inputs,
    query labels) streams: a stream's head (a support) only conditions the
    state, then each query is predicted and conditioned in turn. One
    (Outcomes, final state, None unless finals) per stream, bit for bit what
    stepping gives it; a block of no steps keeps the state. The streams'
    inputs are encoded in one _encode call, one losses.Prefix folds them
    and one losses.chunks pass scores the queries into the block's columns
    (_score), each stream's Outcomes their views. A block the pass finds
    faulty (a bad input or label, a step with no CRP mass, a query too far
    from every class, a row that overflows) is stepped stream by stream
    (_step): a block's first fault is the first one stepping meets, and the
    pass's own error if stepping meets none.
    """
    streams = list(streams)
    if not any(len(s[0]) + len(s[2]) for s in streams):
        return [(Outcomes.of(()), state) for _ in streams]
    try:
        parts = [p for s in streams for p in (s[0], s[2])]
        try:
            X = np.concatenate(parts)
        except (TypeError, ValueError):  # no block: _encode's row check finds the first bad row
            X = [x for p in parts for x in p]
        Z = _encode(state.encoder, state.dim, X)
        del X  # the raw block is not held through the pass
        labels = [arrival_labels(state.n_classes, np.concatenate([s[1], s[3]]), "step") for s in streams]
        lengths, heads = [len(y) for y in labels], [len(s[0]) for s in streams]
        with np.errstate(over="ignore", invalid="ignore"):  # a faulty block is stepped below
            prefix = losses.Prefix(state._table, Z, np.concatenate(labels), state.crp_params, lengths, heads)
            if not _finite(prefix).all():
                raise ValueError(_OVERFLOW)
            m, n_at, at = len(prefix.scored), prefix.n_at[prefix.scored], np.empty(len(Z), dtype=np.int64)
            at[prefix.scored] = np.arange(m)
            block = Outcomes(prefix.labels[prefix.scored], np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64),
                             np.empty(m), n_at, np.zeros((m, n_at.max(initial=0) + 1)))
            for c in losses.chunks(prefix):
                if np.isnan(c.log_post[:, -1]).any():
                    raise ValueError(_FAR)
                _score(block, at[c.steps], c.n, c.logf, c.log_post)
    except (TypeError, ValueError):
        for sx, sy, qx, qy in streams:
            s = state
            for i, (x, y) in enumerate(zip(sx, sy)):
                s = _step(s, x, y, "support point", i)
            for i, (x, y) in enumerate(zip(qx, qy)):
                s = _step(s, x, y, "query", i)
        raise  # stepping met no fault: the pass's own
    out, done = [], 0
    for first, y, h in zip(prefix.first, labels, heads):
        final = state._derive(state._table.fold(Z[first : first + len(y)], y)) if finals else None
        out.append((block[done : done + len(y) - h], final))
        done += len(y) - h
    return out


def _step(state, x, y, what, i) -> ModelState:
    """Point i of a stream stepped: update for a support point, predict then
    update for a query. An input fault is raised as _encode_one raises it,
    with i as .row, an InvalidStateError as it is, and any other fault as
    `{what} i: ...`, of the same type."""
    _encode_one(state.encoder, state.dim, x, i)
    try:
        if what == "query":
            predict(state, x)
        return update(state, x, y)
    except InvalidStateError:
        raise
    except ValueError as e:
        fault = type(e)(f"{what} {i}: {e}")
        fault.row = i
        raise fault from None


def fine_tune_output_layer(state: ModelState, support, steps, step_size, *, return_trace=False):
    """Adapt the affine output layer to the support set at test time.

    Minimises the leave-one-out support NLL with a fixed step plus
    backtracking halving (at most 20 halvings per step); a step that cannot
    decrease the loss is rejected, so the trajectory never increases. The
    support is read and folded by init_small_context before the first step,
    and the raw inputs are taken once it has passed.
    The returned state is rebuilt from the support with the adapted encoder,
    at 0 steps with the state's own.
    steps must be a non-negative integer and step_size positive and finite.
    """
    if not (float(steps).is_integer() and steps >= 0):
        raise ValueError(f"fine-tuning steps must be a non-negative integer, got {steps}")
    if not 0.0 < step_size < np.inf:
        raise ValueError(f"fine-tuning step size must be positive and finite, got {step_size}")
    if state.encoder.kind != "affine":
        raise ValueError("fine-tuning requires an encoder with an affine output layer")
    support = list(support)
    if not support:
        raise ValueError("fine-tuning requires a non-empty support set")
    built = init_small_context(state.prior, state.crp_params, state.noise, state.encoder, support)
    labels = arrival_labels(0, [y for _, y in support], "support point")
    if steps == 0:
        return (built, []) if return_trace else built

    X = np.asarray([x for x, _ in support], dtype=np.float64)
    w, b = state.encoder.params
    p0 = state.prior.prior
    kwargs = dict(params=state.crp_params, noise_var=state.noise.noise_variance)

    loss, d_w, d_b = losses.loo_support_grads(X, labels, w, b, p0.q, p0.lam, **kwargs)
    trace = [loss]
    for _ in range(int(steps)):
        alpha = step_size
        for _ in range(20):
            w_try, b_try = w - alpha * d_w, b - alpha * d_b
            new_loss, nd_w, nd_b = losses.loo_support_grads(X, labels, w_try, b_try, p0.q, p0.lam, **kwargs)
            if np.isfinite(new_loss) and new_loss <= loss:
                w, b, loss, d_w, d_b = w_try, b_try, new_loss, nd_w, nd_b
                break
            alpha *= 0.5
        else:  # no step decreased the loss
            break
        trace.append(loss)

    tuned = init_small_context(state.prior, state.crp_params, state.noise, Encoder.affine(w, b), support)
    return (tuned, trace) if return_trace else tuned
