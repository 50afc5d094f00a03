"""Training losses with hand-derived analytic gradients.

Every loss here is a composition of an affine encoder, isotropic Gaussian
log-densities, and a softmax negative log-likelihood, so reverse-mode
differentiation is a short chain worked out once:

    logits[m, c] = log pi[c] - d/2 log(2 pi v_c) - ||z_m - mu_c||^2 / (2 v_c)
    nll          = mean_m ( logsumexp_c logits[m, :] - logits[m, y_m] )

With G[m, c] = (softmax(logits)[m, c] - 1[c == y_m]) / M:

    d nll / d mu_c   = sum_m G[m, c] (z_m - mu_c) / v_c
    d nll / d v_c    = sum_m G[m, c] (-d / (2 v_c) + ||z_m - mu_c||^2 / (2 v_c^2))
    d nll / d z_m    = -sum_c G[m, c] (z_m - mu_c) / v_c
    d nll / d logpi_c = sum_m G[m, c]

Class parameters enter through mu_c = Q_c / lam_c and v_c = 1 / lam_c + s_eps:

    d nll / d Q_c   = (d nll / d mu_c) / lam_c
    d nll / d lam_c = -((d nll / d mu_c) . Q_c + d nll / d v_c) / lam_c^2

and the CRP strength b reaches the loss only through the class prior
pi_c = u_c / T with T = sum(u), u_novel = b + a N+, so

    d logpi_c / d b = 1[c == novel] / u_novel - 1 / T,

which crp.predictive_grad_b applies next to the CRP rule itself.

The model's recursion lives here too, shared with flowr.model: ClassTable
is an immutable value holding the rows [classes | novel slot] and the
class counts. Its one online conditioning step, condition(), on a label
that crp's arrival protocol check has passed, returns the next table: a
known-known label shares the rows and moves a count, any other copies the
rows once. A class counts NEW_CLASS_COUNT = 2 after its first point, not
the 1 of the two-parameter CRP (crp.sequence_log_prob), so the model's
sequential prior is not exchangeable. Every training loss runs
_mixture_nll_grads, one forward and backward pass over a single
difference block z - mu; _bayes is Bayes rule under a CRP log prior,
which model.predict applies to its log densities too. When a stream's
labels are all known in advance, as in evaluation and the teacher-forced
loss, Prefix builds every table the stream passes through at once: the
table before step j is the initial table plus the points before j, so
predict-then-update becomes one batched pass with the same additions in
the same order, bit for bit. chunks() runs that pass over several streams
at once; each value is computed row by row, so each gets its bits alone.

Both meta-training settings run one loss, episode_grads, which scores
queries against one table

    [ n_kk trainable rows | one row per support class | novel slot ]

Large-context episodes have n_kk free rows (class_q, class_log_lambda) and
no support; small-context episodes are the n_kk = 0 case (class_q=None),
with rows Q_c = q0 + S_c / s_eps, lam_c = lam0 + K_c / s_eps built from
the support.
Every row at or above n_kk, and the novel slot (q0, lam0), holds one copy
of the shared prior, so d q0 is the sum of d Q over those rows.

The frozen loss scores every query against that table. The teacher-forced
sequential loss scores query j against the table conditioned on the
queries before it, with their arrival-order labels, through the same
Prefix pass as model.run_episode and the same fused pass. A running
per-row sum R_c of
d loss / d Q_c, accumulated in step order, scatters the gradient back to
the conditioning points: a query that conditioned row c at step j gets
(R_c at the end - R_c after step j) / s_eps, a support point of row c gets
R_c at the end / s_eps. A chunk's (steps, rows, d) terms fold into R row
by row, np.add(terms[i - 1], terms[i], out=terms[i]): accumulate's additions
in its order, each a contiguous pass where np.add.accumulate(axis=0) runs a
strided loop per column. The narrow (steps, rows) lam terms keep accumulate.

All gradients are certified against central finite differences by grad_check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crp import CrpParams, arrival_labels, predictive_class_probs, predictive_grad_b, sigmoid
from .crp import ProtocolError  # noqa: F401  re-exported as flowr.losses.ProtocolError
from .gaussian import differences, log_density_matrix, log_density_sq


def logsumexp(x, axis=-1):
    """Stable log-sum-exp of entries below +inf; a row of -inf gives NaN, without a warning."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(m > -np.inf, m, np.nan)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(x - m), axis=axis))


def encode(weight, bias, H):
    """Apply an affine encoder row-wise; weight=None means identity."""
    H = np.asarray(H, dtype=np.float64)
    if weight is None:
        return H
    return H @ weight.T + bias


def _encoder_grads(weight, pairs):
    """d loss / d (weight, bias) from (raw inputs, d loss / d embedding) pairs."""
    if weight is None:
        return None, None
    return sum(dZ.T @ H for H, dZ in pairs), sum(dZ.sum(axis=0) for _, dZ in pairs)


class ClassTable:
    """The class table [classes | novel slot], the prior's row last: Q, lam,
    the cached predictive means Q / lam and variances 1 / lam + s_eps, and
    int64 counts (the novel slot holds none), every array exact-size and
    read-only. A table is a value: condition() returns the next one. Rows
    below n_kk count labels but are never conditioned. The table is the
    only holder of the class counts: its .counts is what
    crp.predictive_class_probs reads.
    """

    # a class's count after its first point; the two-parameter CRP of
    # crp.sequence_log_prob counts 1, so unlike it this sequential prior is not exchangeable
    NEW_CLASS_COUNT = 2
    # a persistent (known-known) class's count before its first label, in training and in evaluation
    PERSISTENT_COUNT = 1

    def __init__(self, Q, lam, counts, q0, lam0, noise_var, *, n_kk=0):
        Q, lam = np.vstack([Q, q0[None, :]]), np.append(lam, lam0)
        self._set(Q, lam, Q / lam[:, None], 1.0 / lam + noise_var, np.array(counts, dtype=np.int64), n_kk, noise_var)

    def _set(self, Q, lam, means, variances, counts, n_kk, noise_var) -> "ClassTable":
        for a in (Q, lam, means, variances, counts):
            a.setflags(write=False)
        self.Q, self.lam, self.means, self.variances, self.counts = Q, lam, means, variances, counts
        self.n, self.n_kk, self.noise_var = len(counts), n_kk, noise_var
        return self

    @classmethod
    def counts_after(cls, K):
        """The counts condition() leaves on classes that have seen K >= 1 points each."""
        return K + (cls.NEW_CLASS_COUNT - 1)

    def condition(self, z, y) -> "ClassTable":
        """The table after one conditioning step on point z with int label
        y, which crp.label_fault accepts; this table stays as it is. A
        known-known label (y <= n_kk) moves only its count and shares the
        rows. Any other label copies the rows once and conditions row
        y - 1; a label n + 1 opens it as a copy of the prior's row, which
        stays last."""
        n, rows = self.n, (self.Q, self.lam, self.means, self.variances)
        if y == n + 1:
            counts = np.append(self.counts, self.NEW_CLASS_COUNT)
            rows = [np.concatenate((a[: n + 1], a[n:])) for a in rows]
        else:
            counts = self.counts.copy()
            counts[y - 1] += 1
            if y <= self.n_kk:
                return self._next(rows, counts)
            rows = [a.copy() for a in rows]
        Q, lam, means, variances = rows
        r, inv = y - 1, 1.0 / self.noise_var
        Q[r] += z * inv
        lam[r] += inv
        means[r] = Q[r] / lam[r]
        variances[r] = 1.0 / lam[r] + self.noise_var
        return self._next(rows, counts)

    def _next(self, rows, counts) -> "ClassTable":
        return object.__new__(ClassTable)._set(*rows, counts, self.n_kk, self.noise_var)


def log_class_prior(counts, params: CrpParams) -> np.ndarray:
    """Log CRP predictive over the classes and the novel slot (-inf for no
    mass); counts is a ClassTable or a crp.ClassCounts."""
    with np.errstate(divide="ignore"):
        return np.log(predictive_class_probs(counts, params))


def _bayes(logf, log_prior):
    """The log posterior (m, c) from log densities (m, c) and a log prior
    (c,) or (m, c); NaN for a row of -inf logits."""
    logits = logf + log_prior
    return logits - logsumexp(logits, axis=1)[:, None]


# most (step, row, dimension) entries a prefix-pass temporary holds, unless one step needs more
PREFIX_ENTRIES = 1 << 16
# most queries runner.evaluate scores in one block of whole episodes, unless one episode holds more
BLOCK_QUERIES = 1 << 12


class _Steps:
    """A run of prefix-pass steps that all see n classes: their numbers
    across the prefixes, their class counts before each step (m, n), which
    the CRP rule reads as .counts, the version index of each step's rows
    n_kk..n-1 and novel slot, and, unless every_row, the forward pass: log
    densities and log posteriors (m, n + 1)."""

    __slots__ = ("steps", "n", "counts", "rows", "logf", "log_post")


class Prefix:
    """Every table a labelled stream passes through, built without stepping one.

    With all labels known in advance, the table before step j is the
    initial table plus the points before j. Each conditioned row's versions
    are the running sums np.add.accumulate([row; z * (1 / s_eps) ...]) and
    likewise for lam: the same additions condition() makes one step at a
    time, folded for all rows with as many versions at once. Means and
    variances are computed once per version; each step's counts are the
    table's plus a cumsum of the count increments. chunks() scores the
    steps of one or more prefixes in runs that share a class count, split
    so that no temporary holds more than PREFIX_ENTRIES entries. Rows
    below n_kk never change and are scored as the table's own rows, never
    gathered per step for the forward pass. final_table() is the table
    after the stream.
    labels are the stream's int64 labels, checked by crp.arrival_labels.
    """

    def __init__(self, table, Z, labels, params):
        self.table, self.Z, self.labels, self.params = table, Z, labels, params
        n0, n_kk, inv = table.n, table.n_kk, 1.0 / table.noise_var
        n_at = np.maximum.accumulate(np.append(n0, self.labels))
        self.n_at, self.n = n_at[:-1], int(n_at[-1])

        # versions: one block [first; after each of its points] per row n_kk..n-1, then the novel slot
        row = self.labels - 1 - n_kk  # the row each step conditions, counted from n_kk
        steps = np.flatnonzero(row >= 0)
        steps = steps[np.argsort(row[steps], kind="stable")]
        self.start = np.append(0, np.cumsum(np.bincount(row[steps], minlength=self.n - n_kk) + 1))
        heads, novel = self.start[:-1], self.start[-1]
        first = np.minimum(np.arange(n_kk, self.n), n0)  # rows born in the pass start as the prior's row
        Q, lam = np.empty((novel + 1, Z.shape[1])), np.full(novel + 1, inv)
        Q[heads], lam[heads] = table.Q[first], table.lam[first]
        Q[novel], lam[novel] = table.Q[n0], table.lam[n0]
        points = np.ones(novel + 1, dtype=bool)
        points[heads] = points[novel] = False
        Q[points] = Z[steps] * inv
        length = np.diff(self.start)
        for L in np.unique(length[length > 1]):  # every row of one length folded by one call
            block = heads[length == L][:, None] + np.arange(L)
            Q[block], lam[block] = np.add.accumulate(Q[block], axis=1), np.add.accumulate(lam[block], axis=1)
        self.Q, self.lam = Q, lam
        self.means, self.variances = Q / lam[:, None], 1.0 / lam + table.noise_var
        # class counts before any step; a row born in the pass counts NEW_CLASS_COUNT after its first point
        self.counts = np.append(table.counts, np.full(self.n - n0, ClassTable.NEW_CLASS_COUNT - 1))

    def columns(self, c, name):
        """Field name (Q, lam, means or variances) of each step's rows in
        chunk c, (m, n + 1, ...): the table's rows below n_kk, then the
        versions the step sees."""
        n_kk = self.table.n_kk
        versions = getattr(self, name)[c.rows]
        if not n_kk:
            return versions
        # one C-order array: the einsum sums over it keep the order the stepped loss used
        out = np.empty((len(versions), n_kk + versions.shape[1]) + versions.shape[2:])
        out[:, :n_kk], out[:, n_kk:] = getattr(self.table, name)[:n_kk], versions
        return out

    def final_table(self) -> "ClassTable":
        """The table after the whole stream: every row's last version and the final counts."""
        t, n_kk = self.table, self.table.n_kk
        last = self.start[1:] - 1
        counts = self.counts + np.bincount(self.labels - 1, minlength=self.n)
        return ClassTable(
            np.vstack([t.Q[:n_kk], self.Q[last]]), np.append(t.lam[:n_kk], self.lam[last]), counts,
            t.Q[t.n], t.lam[t.n], t.noise_var, n_kk=n_kk,
        )


def chunks(prefixes, every_row=False):
    """Yield the steps of one or more prefixes as _Steps, in increasing class count n.

    Every step that sees n classes is scored in one run, prefix by prefix,
    so each stream's steps come in stream order. Steps are numbered across
    the prefixes, and each step's rows index the concatenation of their
    versions. The prefixes share their CRP parameters, n_kk and the rows
    below it. A chunk holds as many steps as keep their counts and the rows
    gathered for them within PREFIX_ENTRIES entries: the rows from n_kk on,
    its forward pass done (the rows below n_kk scored in runs of steps of
    that size too), or every row with every_row, as the loss's fused pass
    gathers them.
    """
    table, params, d = prefixes[0].table, prefixes[0].params, prefixes[0].Z.shape[1]
    n_kk, k = table.n_kk, len(prefixes)
    stream = np.repeat(np.arange(k), [len(p.labels) for p in prefixes])
    n_at = np.concatenate([p.n_at for p in prefixes])
    y = np.concatenate([p.labels for p in prefixes]) - 1
    # per stream: its counts before the next step (the tally), and what turns a count into a version index
    tally = np.zeros((k, max(p.n for p in prefixes) + 1), dtype=np.int64)
    offset, novel, base = np.zeros_like(tally), np.empty(k, dtype=np.int64), 0
    for i, p in enumerate(prefixes):
        tally[i, : p.n] = p.counts
        offset[i, n_kk : p.n] = p.start[:-1] + base - p.counts[n_kk:]
        novel[i] = p.start[-1] + base
        base += p.start[-1] + 1
    if not every_row:
        Z, means, variances = (np.concatenate([getattr(p, a) for p in prefixes]) for a in ("Z", "means", "variances"))
    kk_size = max(1, PREFIX_ENTRIES // (max(n_kk, 1) * d))
    order = np.argsort(n_at, kind="stable")
    starts = np.flatnonzero(np.diff(n_at[order], prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(order))):
        n = int(n_at[order[lo]])
        size = max(1, PREFIX_ENTRIES // ((n + 1) * d if every_row else (n + 1 - n_kk) * d + n + 1))
        for s in range(lo, hi, size):
            c = _Steps()
            c.steps, c.n = order[s : min(s + size, hi)], n
            yc, sc = y[c.steps], stream[c.steps]
            hit = np.zeros((len(yc), n + 1), dtype=np.int64)
            hit[np.arange(len(yc)), yc] = 1
            before = np.cumsum(hit, axis=0) - hit
            before += tally[sc, : n + 1] - before[np.searchsorted(sc, sc)]  # only the step's own stream's
            np.add.at(tally, (sc, yc), 1)
            c.counts = before[:, :n]
            c.rows = np.empty((len(yc), n + 1 - n_kk), dtype=np.int64)
            c.rows[:, :-1], c.rows[:, -1] = offset[sc, n_kk:n] + before[:, n_kk:n], novel[sc]
            if not every_row:
                Zc = Z[c.steps]
                c.logf = np.empty((len(yc), n + 1))
                c.logf[:, n_kk:] = log_density_matrix(Zc, means[c.rows], variances[c.rows])
                for j in range(0, len(yc) if n_kk else 0, kk_size):
                    kk = slice(j, j + kk_size)
                    c.logf[kk, :n_kk] = log_density_matrix(Zc[kk], table.means[:n_kk], table.variances[:n_kk])
                c.log_post = _bayes(c.logf, log_class_prior(c, params))
            yield c


def _mixture_nll_grads(Z, y_idx, means, variances, log_prior):
    """Mean NLL of a Gaussian mixture classifier under log_prior (c,) plus
    gradients: the forward and backward pass over one difference block.

    Z: (m, d) points, y_idx: (m,) 0-based targets, means: (c, d) and
    variances: (c,). Returns (nll, d_means, d_variances, d_Z, d_log_prior).
    Means (m, c, d), variances (m, c) and log_prior (m, c) give each point
    its own rows and its own loss: every value and gradient but d_Z then
    keeps the point axis.
    """
    m, d = Z.shape
    own = means.ndim == 3
    diff, sq = differences(Z, means)                   # (m, c, d), the only such block
    log_post = _bayes(log_density_sq(sq, variances, d), log_prior)
    nll = -log_post[np.arange(m), y_idx]
    G = np.exp(log_post)
    G[np.arange(m), y_idx] -= 1.0
    if not own:
        nll = float(np.mean(nll))
        G /= m

    r = np.divide(diff, variances[..., None], out=diff)   # (z - mu) / v
    d_v = -d / (2.0 * variances) + sq / (2.0 * variances**2)
    d_Z = -np.einsum("mc,mcd->md", G, r)
    if own:
        return nll, np.multiply(r, G[:, :, None], out=r), G * d_v, d_Z, G
    return nll, np.einsum("mc,mcd->cd", G, r), np.einsum("mc,mc->c", G, d_v), d_Z, G.sum(axis=0)


def _natural_chain(d_means, d_vars, Q, lam):
    """Chain gradients from (mu, v) back to natural parameters (Q, lam),
    for one table (c, ...) or one per point (m, c, ...)."""
    d_Q = d_means / lam[..., None]
    d_lam = -(np.einsum("...cd,...cd->...c", d_means, Q) + d_vars) / lam**2
    return d_Q, d_lam


def _table_nll(table, Z, y_idx, params):
    """Mean NLL of Z against the table under its CRP prior.

    y_idx is 0-based, the novel slot being index table.n. Returns
    (nll, d_Q, d_lam, d_Z, d_log_prior); d_Q and d_lam end with the novel
    slot's row. Only the losses that train b take d/db from d_log_prior.
    """
    log_prior = log_class_prior(table, params)
    nll, d_means, d_vars, d_Z, d_log_prior = _mixture_nll_grads(Z, y_idx, table.means, table.variances, log_prior)
    d_Q, d_lam = _natural_chain(d_means, d_vars, table.Q, table.lam)
    return nll, d_Q, d_lam, d_Z, d_log_prior


def _sequential_nll(table, Z, labels, params):
    """Teacher-forced query pass: query j is scored against the table, then
    conditions it with its 1-based arrival-order label. Returns (nll, d_Q,
    d_lam, d_Z, d_b), d_Q and d_lam summed over the steps per table
    position: a row born in the pass shares its position's sum with the
    novel slot that held it before; both hold one copy of q0.

    One Prefix pass scores every step. Each step's terms are summed in step
    order, as stepping the table would: R is the running sum of
    d loss / d Q per position, and seen[j] is R at the row query j
    conditioned just after step j.
    """
    m, d = Z.shape
    prefix = Prefix(table, Z, arrival_labels(table.n, labels, "query"), params)
    y = prefix.labels - 1
    R, R_lam = np.zeros((prefix.n + 1, d)), np.zeros(prefix.n + 1)
    seen, d_Z = np.zeros((m, d)), np.empty((m, d))
    nll, d_b = np.empty(m), np.empty(m)

    for c in chunks([prefix], every_row=True):
        n, yc = c.n, y[c.steps]
        means, variances, Q, lam = (prefix.columns(c, name) for name in ("means", "variances", "Q", "lam"))
        nll[c.steps], d_means, d_vars, d_Z[c.steps], G = _mixture_nll_grads(
            Z[c.steps], yc, means, variances, log_class_prior(c, params)
        )
        d_Q, d_lam = _natural_chain(d_means, d_vars, Q, lam)
        d_b[c.steps] = predictive_grad_b(c, params, G)

        d_Q[0] += R[: n + 1]  # the sums after each step, in place
        for i in range(1, len(d_Q)):
            np.add(d_Q[i - 1], d_Q[i], out=d_Q[i])
        d_lam[0] += R_lam[: n + 1]
        np.add.accumulate(d_lam, axis=0, out=d_lam)
        R[: n + 1], R_lam[: n + 1] = d_Q[-1], d_lam[-1]
        cond = np.flatnonzero(yc >= table.n_kk)
        seen[c.steps[cond]] = d_Q[cond, yc[cond]]

    cond = y >= table.n_kk
    d_Z[cond] += (R[y[cond]] - seen[cond]) * (1.0 / table.noise_var)
    total, d_b = (float(np.add.accumulate(np.append(0.0, v))[-1]) for v in (nll, d_b))
    scale = 1.0 / m
    return total * scale, R * scale, R_lam * scale, d_Z * scale, d_b * scale


def support_sums(Z, labels, n_classes):
    """Per-class embedding sums and counts for a dense-labelled support set."""
    idx = np.asarray(labels, dtype=np.int64) - 1
    S = np.zeros((n_classes, Z.shape[1]))
    np.add.at(S, idx, Z)
    return S, np.bincount(idx, minlength=n_classes)


@dataclass
class MetaGrads:
    """Loss value, component terms, and gradients for one episode."""

    value: float
    nll: float
    adapt: float
    d_weight: np.ndarray | None
    d_bias: np.ndarray | None
    d_q0: np.ndarray
    d_log_lambda0: float
    d_rho: float
    d_class_q: np.ndarray | None = None
    d_class_log_lambda: np.ndarray | None = None


def _adaptation_term(q0, lam0, noise_var, Za, adapt_labels, cond_idx):
    """Adaptation loss on novel-class data plus gradients.

    One conditioning point per class (cond_idx, one row index per class, in
    class order) builds a fresh posterior from the shared prior; the
    remaining points are classified under a uniform class prior. Classes
    with a single point contribute no query terms. Returns
    (loss, d_q0, d_lam0, d_Za) with zeros when there is nothing to score.
    """
    adapt_labels = np.asarray(adapt_labels, dtype=np.int64)
    n_classes = int(adapt_labels.max()) if adapt_labels.size else 0
    d_q0 = np.zeros_like(q0)
    d_Za = np.zeros_like(Za)
    if n_classes == 0:
        return 0.0, d_q0, 0.0, d_Za

    inv = 1.0 / noise_var
    cond_idx = np.asarray(cond_idx, dtype=np.int64)
    Qa = q0[None, :] + Za[cond_idx] * inv
    lama = np.full(n_classes, lam0 + inv)
    query_mask = np.ones(len(adapt_labels), dtype=bool)
    query_mask[cond_idx] = False
    if not query_mask.any() or n_classes == 1:
        # one-class pools score log(1) = 0; empty pools have nothing to score
        return 0.0, d_q0, 0.0, d_Za

    Zq = Za[query_mask]
    yq = adapt_labels[query_mask] - 1
    means = Qa / lama[:, None]
    variances = 1.0 / lama + noise_var
    nll, d_means, d_vars, d_Zq, _ = _mixture_nll_grads(Zq, yq, means, variances, np.zeros(n_classes))
    d_Qa, d_lama = _natural_chain(d_means, d_vars, Qa, lama)

    d_q0 = d_Qa.sum(axis=0)
    d_lam0 = float(d_lama.sum())
    d_Za[query_mask] += d_Zq
    d_Za[cond_idx] += d_Qa * inv
    return nll, d_q0, d_lam0, d_Za


def episode_grads(
    weight, bias, q0, log_lambda0, rho, episode, class_q=None, class_log_lambda=None, *,
    a, noise_var, lambda_w, cond_idx, sequential=False,
):
    """Episode loss over the table [class_q rows | support rows | novel slot]
    and its gradients w.r.t. (encoder, q0, log lam0, rho) and the class rows.

    class_q=None is small-context: the table has no trainable rows and the
    MetaGrads no class fields. Otherwise each of the class_q rows, with
    precision exp(class_log_lambda), is a free parameter that starts at
    ClassTable.PERSISTENT_COUNT observations.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    trainable = class_q is not None
    if not trainable:
        class_q, class_log_lambda = np.zeros((0, q0.shape[0])), np.zeros(0)
    class_q = np.asarray(class_q, dtype=np.float64)
    class_lam = np.exp(np.asarray(class_log_lambda, dtype=np.float64))
    n_kk = class_q.shape[0]
    lam0 = float(np.exp(log_lambda0))
    params = CrpParams(a=a, rho=rho)
    inv = 1.0 / noise_var

    raw = (episode.support_x, episode.query_x, episode.adapt_x)
    H_s, H_q, H_a = (np.asarray(x, dtype=np.float64) for x in raw)
    Z_s, Z_q, Z_a = (encode(weight, bias, H) for H in (H_s, H_q, H_a))
    S, K = support_sums(Z_s, episode.support_y, episode.n_known - n_kk)
    table = ClassTable(
        np.vstack([class_q, q0[None, :] + S * inv]), np.append(class_lam, lam0 + K * inv),
        np.append(np.full(n_kk, ClassTable.PERSISTENT_COUNT, dtype=np.int64), ClassTable.counts_after(K)),
        q0, lam0, noise_var, n_kk=n_kk,
    )
    if sequential:
        nll, d_Q, d_lam, d_Zq, d_b = _sequential_nll(table, Z_q, episode.query_y, params)
    else:
        y_idx = np.asarray(episode.query_y, dtype=np.int64) - 1
        nll, d_Q, d_lam, d_Zq, d_log_prior = _table_nll(table, Z_q, y_idx, params)
        d_b = float(predictive_grad_b(table, params, d_log_prior))
    d_q0 = d_Q[n_kk:].sum(axis=0)
    d_lam0 = float(d_lam[n_kk:].sum())
    d_Zs = d_Q[n_kk + np.asarray(episode.support_y, dtype=np.int64) - 1] * inv

    adapt = 0.0
    d_Za = np.zeros_like(Z_a)
    if lambda_w != 0.0:
        adapt, da_q0, da_lam0, da_Z = _adaptation_term(
            q0, lam0, noise_var, Z_a, episode.adapt_y, cond_idx
        )
        d_q0 += lambda_w * da_q0
        d_lam0 += lambda_w * da_lam0
        d_Za = lambda_w * da_Z

    d_weight, d_bias = _encoder_grads(weight, [(H_s, d_Zs), (H_q, d_Zq), (H_a, d_Za)])
    return MetaGrads(
        value=nll + lambda_w * adapt,
        nll=nll,
        adapt=adapt,
        d_weight=d_weight,
        d_bias=d_bias,
        d_q0=d_q0,
        d_log_lambda0=d_lam0 * lam0,
        d_rho=d_b * sigmoid(rho),
        d_class_q=d_Q[:n_kk] if trainable else None,
        d_class_log_lambda=d_lam[:n_kk] * class_lam if trainable else None,
    )


# perfbench/tracing.py times and counts the episode loss under this name
sc_meta_grads = episode_grads


def pretrain_grads(weight, bias, H, labels, means, log_variances, beta):
    """Supervised Gaussian-classifier loss and gradients.

    Loss = mean NLL of the true labels under a uniform-prior Gaussian
    classifier in embedding space, plus beta * sum_n d / s_n which pushes the
    learned variances up (trace of the inverse covariances).
    """
    H = np.asarray(H, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    means = np.asarray(means, dtype=np.float64)
    log_variances = np.asarray(log_variances, dtype=np.float64)
    variances = np.exp(log_variances)
    d = means.shape[1]

    Z = encode(weight, bias, H)
    nll, d_means, d_vars, d_Z, _ = _mixture_nll_grads(Z, labels - 1, means, variances, np.zeros(means.shape[0]))
    reg = beta * float(np.sum(d / variances))
    d_log_vars = d_vars * variances - beta * d / variances
    d_weight, d_bias = _encoder_grads(weight, [(H, d_Z)])
    return nll + reg, d_weight, d_bias, d_means, d_log_vars


def loo_support_grads(H, labels, weight, bias, q0, lam0, *, params, noise_var):
    """Leave-one-out support NLL and its gradient w.r.t. the affine layer.

    Each support point is scored against the state built from the remaining
    points; a held-out point whose class disappears from the reduced support
    becomes a novel-slot target. Only (weight, bias) receive gradients; the
    prior and CRP parameters are treated as constants here.
    """
    H = np.asarray(H, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    q0 = np.asarray(q0, dtype=np.float64)
    inv = 1.0 / noise_var
    Z = encode(weight, bias, H)
    dZ = np.zeros_like(Z)
    s = len(labels)
    total = 0.0

    for i in range(s):
        rest = np.arange(s) != i
        kept, dense = np.unique(labels[rest], return_inverse=True)
        n = len(kept)
        y_held = int(np.searchsorted(kept, labels[i]))
        if y_held == n or kept[y_held] != labels[i]:
            y_held = n                                # its class left with it: novel slot

        S, K = support_sums(Z[rest], dense + 1, n)
        table = ClassTable(q0[None, :] + S * inv, lam0 + K * inv, ClassTable.counts_after(K), q0, lam0, noise_var)
        nll, d_Q, _, d_Zq, _ = _table_nll(table, Z[i : i + 1], np.array([y_held]), params)
        total += nll
        dZ[i] += d_Zq[0]
        dZ[rest] += d_Q[dense] * inv

    total /= s
    dZ /= s
    return (total, *_encoder_grads(weight, [(H, dZ)]))
