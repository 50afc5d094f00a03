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
streams, each a support (a conditioning-only head) and its queries, and
one losses.chunks pass scores the queries. init_small_context (a head and
no queries), run_episode(s) (queries and no head) and runner.evaluate are
its cases. _encode, _encode_one and _encode_labelled are flowr's only
readers of raw inputs: each call encodes its inputs by losses.encode,
refuses a bad one with a one-line error, and reports a stream's first
fault as stepping would meet it, an overflowing class row included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import losses
from .crp import ClassCounts, CrpParams, InvalidStateError, ProtocolError, arrival_labels, class_prior, label_fault
from .encoder import ClassEmbeddings, Encoder
from .gaussian import NaturalClassStats, NoiseModel, SharedPrior, differences

_FAR = "input is too far from every class: no class gives it a finite log density"  # its posterior is NaN
_OVERFLOW = "conditioning on it overflows its class row: the row's mean or variance is not finite"


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

    def _fill(self, Q, lam, *, encoder, counts: ClassCounts, crp_params, prior, noise, n_kk):
        """Validate, build the class table and set every field."""
        n = lam.shape[0]
        if n != counts.n_classes:
            raise ValueError(f"{n} class stats but {counts.n_classes} counts")
        if not 0 <= n_kk <= n:
            raise ValueError(f"n_kk = {n_kk} outside 0..{n}")
        _check_width(encoder, Q.shape[1])
        p0 = prior.prior
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
            table = losses.ClassTable(Q, lam, counts.counts, p0.q, p0.lam, noise.noise_variance, n_kk=int(n_kk))
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
    if not probs[:n].any():  # no known class has mass: known_argmax falls back
        return _records(n, logf[None], log_post[None])[0]
    return PredictionRecord(probs, int(probs.argmax()) + 1, int(probs[:n].argmax()) + 1, float(probs[-1]), n)


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
    rows = zip(list(probs), predicted, known_argmax, novelty, labels)  # positional: the records' field order
    return [PredictionRecord(p, c, k, s, n, y) for p, c, k, s, y in rows]


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
    state = ModelState(encoder, (), ClassCounts.empty(), crp_params, prior, noise)
    support = list(support)
    return _fold([(state, [x for x, _ in support], [y for _, y in support], (), ())])[0][1]


def init_large_context(
    embeddings: ClassEmbeddings, prior: SharedPrior, crp_params: CrpParams, noise: NoiseModel, encoder: Encoder,
    *, init_count=losses.ClassTable.PERSISTENT_COUNT,
) -> ModelState:
    """Start from pre-trained per-class Gaussians (_large_context).

    Every known-known class starts at init_count, by default the count
    floor that large-context meta-training seeds (ClassTable.PERSISTENT_COUNT).
    At init_count=0 no known class has prior mass until its first label,
    so the whole prior sits on the novel slot.
    """
    return _large_context(*embeddings.natural_params(), prior, crp_params, noise, encoder, init_count)


def _large_context(Q, lam, prior, crp_params, noise, encoder, init_count=losses.ClassTable.PERSISTENT_COUNT):
    """The large-context state over natural class rows (Q, lam) as given,
    each a known-known class at init_count: at the default, over (class_q,
    exp(class_log_lambda)), the table losses.episode_grads scores with no support."""
    if Q.shape[1] != prior.prior.dim:
        raise ValueError(f"class rows have dimension {Q.shape[1]}, the prior {prior.prior.dim}")
    counts, state = ClassCounts(np.full(len(lam), int(init_count), dtype=np.int64)), object.__new__(ModelState)
    state._fill(Q, lam, encoder=encoder, counts=counts, crp_params=crp_params, prior=prior, noise=noise, n_kk=len(lam))
    return state


def run_episode(state: ModelState, queries):
    """Predict-then-update over a labelled query stream: run_episodes'
    one-stream case. Returns (records, final_state); records keep stream
    order and carry the true labels and the class count at prediction time.
    """
    return run_episodes([(state, queries)])[0]


def run_episodes(episodes) -> list:
    """run_episode over several (state, queries) streams, taken in order:
    one (records, final_state) per stream, bit for bit what it gets alone;
    the one pass (_fold) over streams with no head."""
    episodes = [(state, list(queries)) for state, queries in episodes]
    return _fold([(state, (), (), [x for x, _ in q], [y for _, y in q]) for state, q in episodes])


def _fold(streams, finals=True) -> list:
    """The one pass over (state, head inputs, head labels, query inputs,
    query labels) streams: a stream's head (a support) only conditions its
    state, then each query is predicted and conditioned in turn. One
    (records, final state, None unless finals) per stream, bit for bit what
    stepping gives it; a stream of no steps keeps its state. One
    losses.Prefix folds every stream and one losses.chunks pass scores the
    queries, so the states of streams with steps must share the CRP
    parameters, n_kk and the rows below it. The streams are read in order
    (_read) up to the first read fault; the steps before it are folded and
    scored, and the first fault that stepping the streams one by one meets
    is raised: a read fault, a query too far from every class (predict's)
    or a step that overflows the row it conditions (update's), as `query i:
    ...` or `support point i: ...`.
    """
    streams = list(streams)
    if not streams:
        return []
    live = [s[0] for s in streams if len(s[1]) + len(s[3])]
    if any(not _shares_rows(live[0], state) for state in live[1:]):
        raise ValueError("episodes must share the CRP parameters and the rows below n_kk")
    (Z, input_fault), read, done, fault = _read(streams), [], 0, None
    for state, sx, sy, qx, qy in streams:
        y, fault = _read_labels(state, sy, qy, Z[done : done + len(sx) + len(qx)], input_fault)
        if len(y):
            read.append((state._table, y, min(len(sx), len(y))))
        fault = fault and (done + fault[0], *fault[1:])  # its step in the block
        done += len(y)
        if fault:
            break
    faults = [fault] if fault else []
    if read:
        tables, labels, heads = zip(*read)
        lengths = [len(y) for y in labels]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row is refused below
            prefix = losses.Prefix(tables, Z[:done], np.concatenate(labels), live[0].crp_params, lengths, heads)
            made = prefix.made[~_finite(prefix)]
            records, at = [None] * len(prefix.scored), np.empty(done, dtype=np.int64)
            at[prefix.scored] = np.arange(len(prefix.scored))
            far = done  # the first step whose posterior is NaN
            for c in losses.chunks(prefix):
                far = c.steps[np.isnan(c.log_post[:, -1])].min(initial=far)
                for i, r in zip(at[c.steps].tolist(), _records(c.n, c.logf, c.log_post, prefix.labels[c.steps])):
                    records[i] = r

        def fault_at(step, kind, why):
            """(step, kind, the error) for a step of the block: `query i` or `support point i`."""
            i, h = step - prefix.first[prefix.stream[step]], heads[prefix.stream[step]]
            return step, kind, ValueError(f"query {i - h}: {why}" if i >= h else f"support point {i}: {why}")

        over = made[made >= 0].min(initial=done)
        faults += [fault_at(*f) for f in ((far, 1, _FAR), (over, 3, _OVERFLOW)) if f[0] < done]
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]
    out, j, done = [], 0, 0
    for state, sx, _, qx, _ in streams:
        if len(sx) + len(qx):
            q = lengths[j] - heads[j]
            out.append((records[done : done + q], state._derive(prefix.final_table(j)) if finals else None))
            j, done = j + 1, done + q
        else:
            out.append(([], state))
    return out


def _read(streams) -> tuple:
    """The streams' encoded inputs, each stream's head then its queries, in
    stream order up to the first input fault, as one array, and that fault
    or None: one _encode call per run of streams with one encoder, its
    inputs stacked into one array when they stack."""
    Z, fault = [], None
    for _, run in groupby(streams, lambda s: (id(s[0].encoder), s[0].dim)):
        run = list(run)
        state, parts = run[0][0], [p for s in run for p in (s[1], s[3])]
        try:
            X = np.concatenate(parts)
        except (TypeError, ValueError):  # no block: the row check finds the first bad row
            X = [x for p in parts for x in p]
        try:
            Z.append(_encode(state.encoder, state.dim, X))
        except (TypeError, ValueError) as e:
            Z.append(_encode(state.encoder, state.dim, X[: e.row]))
            fault = e
            break
    return (Z[0] if len(Z) == 1 else np.concatenate(Z)), fault


def _read_labels(state, sy, qy, z, input_fault) -> tuple:
    """A stream's int64 labels for the steps stepping it reaches, and its
    first fault as (step, kind, error) or None; z holds its inputs read,
    cut short by input_fault. Kind orders a step's faults as stepping meets
    them: input 0, prediction 1, label 2, conditioning 3. A query is
    predicted before its label is read, so label 1 stands in for a bad one."""
    h, t, n = len(sy), len(z), state.n_classes
    y, e = _checked(n, sy[: min(t, h)], "support point")
    if e is not None:
        return y, (len(y), 2, e)
    if t > h:
        if not h and not state._table.counts.any():
            try:  # the CRP rule refuses to score step 0 when no class has a count yet and b <= 0
                class_prior(state._table.counts, state.crp_params)
            except InvalidStateError as e:
                return y, (0, 1, e)
        q, e = _checked(max(n, int(y.max(initial=0))), qy[: t - h], "query")
        if e is not None:
            return np.concatenate([y, q, [1]]), (h + len(q), 2, e)
        y = np.concatenate([y, q])
    return y, (t, 0, input_fault) if t < h + len(qy) else None


def _checked(n, labels, what) -> tuple:
    """crp.arrival_labels of labels up to their first fault, and that fault or None."""
    try:
        return arrival_labels(n, labels, what), None
    except ProtocolError as e:
        return arrival_labels(n, labels[: e.row], what), e


def _shares_rows(a, b) -> bool:
    """Whether states a and b have the same CRP parameters, n_kk and rows below it."""
    k = a.n_kk
    return a is b or a.crp_params == b.crp_params and k == b.n_kk and all(
        np.array_equal(getattr(a, x)[:k], getattr(b, x)[:k]) for x in ("means", "variances"))


def fine_tune_output_layer(state: ModelState, support, steps, step_size, *, return_trace=False):
    """Adapt the affine output layer to the support set at test time.

    Minimises the leave-one-out support NLL with a fixed step plus
    backtracking halving (at most 20 halvings per step); a step that cannot
    decrease the loss is rejected, so the trajectory never increases. The
    support is read and folded by init_small_context before the first step,
    and the raw inputs are taken once it has passed.
    The returned state is rebuilt from the support with the adapted encoder.
    """
    if state.encoder.kind != "affine":
        raise ValueError("fine-tuning requires an encoder with an affine output layer")
    support = list(support)
    if not support:
        raise ValueError("fine-tuning requires a non-empty support set")
    init_small_context(state.prior, state.crp_params, state.noise, state.encoder, support)
    labels = arrival_labels(0, [y for _, y in support], "support point")
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
