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

which crp.grad_b applies to the masses u that crp.class_prior builds the
prior from: the rule and its derivative are written once, in crp.

The model's recursion lives here too, shared with flowr.model. ClassTable
is an immutable value, the rows [classes | novel slot] and the class
counts; fold() is the one builder of a conditioned table, q += z / s_eps
and lam += 1 / s_eps per point in arrival order, and count() is the online
step on a known-known label, which shares the rows and moves a count
(model.update folds any other label as fold()'s one-point case). A
class counts NEW_CLASS_COUNT = 2 after its first point, not the 1 of
crp.sequence_log_prob, so the model's sequential prior is not
exchangeable. When every label is known in advance, Prefix builds every
table a block of streams from one table passes through at once, a
stream's support as the conditioning-only head of its queries: the table
before step j is the initial table plus the points before j, the same additions in the same
order, bit for bit. chunks() scores the queries, all that see one
class count together, in blocks and cache-sized chunks bounded by
PREFIX_ENTRIES. Evaluation (model._fold) and the teacher-forced loss run
this pass. Every training loss runs _mixture_nll_grads, one forward and
backward pass over the difference blocks z - mu, at most PREFIX_ENTRIES
entries each, whose sums over queries carry the earlier blocks' totals so
that any block size gives the same bits (the teacher-forced loss's block
is each chunk's gathered version means, overwritten in place); _bayes is
Bayes rule under a CRP log prior, whose rounding model.predict repeats on
one query.

Both meta-training settings run one loss, episode_grads, over the table

    [ n_kk trainable rows | one row per support class | novel slot ]

Large-context episodes have n_kk free rows (class_q, class_log_lambda) and
no support; small-context episodes are the n_kk = 0 case (class_q=None),
their support folded by fold() as init_small_context folds it. Every row
at or above n_kk, and the novel slot (q0, lam0), holds one copy of the
shared prior, so d q0 is the sum of d Q over those rows. The frozen loss
scores every query against that table; the teacher-forced loss scores
query j against it conditioned on the queries before it (_sequential_nll)
and scatters the gradient back to the conditioning points through running
per-row sums.

All gradients are certified against central finite differences by grad_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .crp import CrpParams, arrival_labels, class_prior, grad_b, sigmoid
from .gaussian import density_constants, log_density_matrix, log_density_sq


def logsumexp(x, axis=-1):
    """Stable log-sum-exp of entries below +inf; a row of -inf gives NaN, without a warning."""
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=axis, keepdims=True)
    m[m == -np.inf] = np.nan
    return m.squeeze(axis=axis) + np.log(np.exp(x - m).sum(axis=axis))


def encode(weight, bias, H):
    """flowr's one affine map, weight=None meaning identity: weight @ h + bias
    for each row h of H (m, d_in), bit for bit whatever m (a 2-D GEMM is not)."""
    H = np.asarray(H, dtype=np.float64)
    if weight is None:
        return H
    return np.matmul(weight, H[:, :, None])[:, :, 0] + bias


def _encoder_grads(weight, pairs):
    """d loss / d (weight, bias) from (raw inputs, d loss / d embedding) pairs."""
    if weight is None:
        return None, None
    return sum(dZ.T @ H for H, dZ in pairs), sum(dZ.sum(axis=0) for _, dZ in pairs)


class ClassTable:
    """The class table [classes | novel slot], the prior's row last: Q, lam,
    the cached predictive means Q / lam, variances v = 1 / lam + s_eps and
    density constants log_norm and two_v (gaussian.density_constants of v),
    and int64 counts (the novel slot holds none), every array exact-size
    and read-only. A table is a value: fold() and count() return the next one.
    Rows below n_kk count labels but are never conditioned. The table is
    the only holder of the class counts, which crp.class_prior reads.
    """

    # a class's count after its first point; the two-parameter CRP of
    # crp.sequence_log_prob counts 1, so unlike it this sequential prior is not exchangeable
    NEW_CLASS_COUNT = 2
    # a persistent (known-known) class's count before its first label, in training and in evaluation
    PERSISTENT_COUNT = 1

    def __init__(self, Q, lam, counts, q0, lam0, noise_var, *, n_kk=0):
        rows = self._derived(np.vstack([Q, q0[None, :]]), np.append(lam, lam0), noise_var)
        self._set(rows, np.array(counts, dtype=np.int64), n_kk, noise_var)

    @staticmethod
    def _derived(Q, lam, noise_var) -> tuple:
        """Every row array of the table over natural rows Q and lam, the prior's last."""
        variances = 1.0 / lam + noise_var
        return Q, lam, Q / lam[:, None], variances, *density_constants(variances, Q.shape[1])

    def _set(self, rows, counts, n_kk, noise_var) -> "ClassTable":
        for a in (*rows, counts):
            a.setflags(write=False)
        self._rows, self.counts, self.n, self.n_kk, self.noise_var = rows, counts, len(counts), n_kk, noise_var
        self.Q, self.lam, self.means, self.variances, self.log_norm, self.two_v = rows
        return self

    @classmethod
    def counts_after(cls, K):
        """The counts fold() leaves on classes that have seen K >= 1 points each."""
        return K + (cls.NEW_CLASS_COUNT - 1)

    def count(self, y) -> "ClassTable":
        """The table after one label y <= n_kk of a known-known class, which
        conditions no row: it moves only that class's count and shares the
        rows; this table stays as it is."""
        counts = self.counts.copy()
        counts[y - 1] += 1
        return self._next(self._rows, counts)

    def fold(self, Z, labels) -> "ClassTable":
        """The table after conditioning on points Z (m, d) with dense 1-based
        labels in any order; this table stays as it is. Each row above n_kk
        adds its points' z / s_eps and 1 / s_eps in arrival order, the
        additions of folding one point at a time and of Prefix's versions,
        bit for bit; rows below n_kk only count, as count() does. A row
        opened here starts as a copy of the prior's row, which stays last,
        and counts NEW_CLASS_COUNT after its first point."""
        y = np.asarray(labels, dtype=np.int64) - 1
        hits, n, d = np.bincount(y, minlength=self.n), self.n, self.Q.shape[1]
        at = np.minimum(np.arange(len(hits) + 1), n)  # the table row each row starts as
        Q, lam, cond, inv = self.Q[at], self.lam[at], y >= self.n_kk, 1.0 / self.noise_var
        # one unbuffered add over the flat rows: each row's points in arrival order
        np.add.at(Q.reshape(-1), (y[cond, None] * d + np.arange(d)).reshape(-1), (Z[cond] * inv).reshape(-1))
        np.add.at(lam, y[cond], inv)
        counts = np.append(self.counts, np.full(len(hits) - n, self.NEW_CLASS_COUNT - 1)) + hits
        return self._next(self._derived(Q, lam, self.noise_var), counts)

    def _next(self, rows, counts) -> "ClassTable":
        return object.__new__(ClassTable)._set(rows, counts, self.n_kk, self.noise_var)


def _bayes(logf, log_prior):
    """The log posterior (m, c) from log densities (m, c) and a log prior
    (c,) or (m, c); NaN for a row of -inf logits."""
    logits = logf + log_prior
    return logits - logsumexp(logits, axis=1)[:, None]


# most (step or query, row, dimension) entries a prefix-pass or loss temporary holds, unless one step needs more
PREFIX_ENTRIES = 1 << 16
# most queries runner.evaluate scores in one block of whole episodes, unless one episode holds more
BLOCK_QUERIES = 1 << 12


class _Steps:
    """A chunk of prefix-pass steps that all see n classes: their numbers,
    each step's version rows n_kk..n-1 and novel slot, the CRP masses u
    (m, n + 1) and log prior of its counts (slices of its block's), and,
    unless every_row, the log densities and log posteriors (m, n + 1)."""

    __slots__ = ("steps", "n", "rows", "u", "log_prior", "logf", "log_post")


class Prefix:
    """Every table a block of labelled streams from one table passes through, built without stepping one.

    Z and labels hold the streams' steps one stream after another, lengths[i]
    for stream i (one stream by default), each from table. A stream's first
    heads[i] steps (head) only condition it, a support folded as the head of
    its queries; chunks() scores the others. Each conditioned row's versions
    are the running sums [row; row + z * (1 / s_eps); ...], and likewise for
    lam: the additions fold() makes, folded level by level for every
    row of the block. They lie stream by stream in segments, one per row
    n_kk..n-1 and one for the novel slot, from start[j]. counts holds each
    stream's class counts before its first step. labels are int64 and
    checked by crp.arrival_labels. A stream's table after its last step is
    ClassTable.fold of its steps.
    """

    def __init__(self, table, Z, labels, params, lengths=None, heads=0):
        self.table, self.Z, self.labels, self.params = table, Z, labels, params
        n0, n_kk, m = table.n, table.n_kk, len(labels)
        self.lengths = np.array([m] if lengths is None else lengths, dtype=np.int64)
        k = len(self.lengths)
        self.first = np.cumsum(self.lengths) - self.lengths  # each stream's first step
        self.stream = stream = np.repeat(np.arange(k), self.lengths)
        at = np.arange(m) - self.first[stream]  # each step's place in its stream
        self.head = at < np.broadcast_to(heads, k)[stream]  # the steps that only condition
        self.scored = np.flatnonzero(~self.head)
        # classes seen after each step: a running max per stream, lifted above every earlier stream's
        lift = stream * (max(int(labels.max(initial=0)), n0) + 1)
        seen = np.maximum(np.maximum.accumulate(labels + lift) - lift, n0)
        self.n_at = np.where(at == 0, n0, np.roll(seen, 1))  # classes seen before each step
        self.n = np.full(k, n0)  # classes seen after each stream's last step
        np.maximum.at(self.n, stream, labels)

        rows = self.n - n_kk + 1  # each stream's segments
        self.base = np.cumsum(rows) - rows  # its first
        owner = np.repeat(np.arange(k), rows)
        steps = np.flatnonzero(labels > n_kk)
        seg = self.base[stream[steps]] + labels[steps] - 1 - n_kk
        steps = steps[np.argsort(seg, kind="stable")]
        length = np.bincount(seg, minlength=len(owner)) + 1
        self.start = np.append(0, np.cumsum(length))
        heads_at, total = self.start[:-1], self.start[-1]
        src = np.minimum(np.arange(len(owner)) - self.base[owner] + n_kk, n0)  # the table row it starts as
        inv = 1.0 / table.noise_var
        Q, lam = np.empty((total, Z.shape[1])), np.full(total, inv)
        Q[heads_at], lam[heads_at] = table.Q[src], table.lam[src]
        scaled = Z[steps]
        Q[np.delete(np.arange(total), heads_at)] = np.multiply(scaled, inv, out=scaled)
        longest = np.argsort(-length, kind="stable")
        for j in range(1, length.max(initial=1)):  # version j of every segment that has one: a running sum
            v = heads_at[longest[: np.count_nonzero(length > j)]] + j
            Q[v] += Q[v - 1]
            lam[v] += lam[v - 1]
        self.Q, self.lam, self.noise_var = Q, lam, table.noise_var
        # class counts before any step; a row born in the pass counts NEW_CLASS_COUNT after its first point
        self.counts = np.where(np.arange(self.n.max() + 1) < self.n[:, None], ClassTable.NEW_CLASS_COUNT - 1, 0)
        self.counts[:, :n0] = table.counts

    @cached_property
    def means(self):
        return self.Q / self.lam[:, None]

    @cached_property
    def variances(self):
        return 1.0 / self.lam + self.noise_var

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


def chunks(prefix, every_row=False):
    """Yield a Prefix's scored steps as _Steps, in increasing class count n.

    Every step that sees n classes is scored in one run, stream after
    stream, each stream's steps in order; steps keep their numbers in the
    prefix, and heads are counted, never scored. A run is walked at two
    sizes bounded by PREFIX_ENTRIES: a block's (step, class) arrays (class
    counts, version rows, CRP masses, log prior) are built once, and each of
    its chunks gathers rows for its steps, from n_kk on for the forward pass
    (the rows below n_kk scored in runs of that size too), or every row with
    every_row, as the loss's fused pass gathers them.
    """
    table, params, d = prefix.table, prefix.params, prefix.Z.shape[1]
    n_kk, start, stream, n_at, head = table.n_kk, prefix.start, prefix.stream, prefix.n_at, prefix.head
    y, (k, width) = prefix.labels - 1, prefix.counts.shape
    # per stream: its counts before the next scored step (the tally), and what turns a count into a version index
    tally = prefix.counts + np.bincount(stream[head] * width + y[head], minlength=k * width).reshape(k, width)
    offset = np.zeros_like(tally)
    at = np.minimum(prefix.base[:, None] + np.arange(width - 1 - n_kk), len(start) - 1)
    offset[:, n_kk:-1] = start[at] - prefix.counts[:, n_kk:-1]
    novel = start[prefix.base + prefix.n - n_kk]
    kk_size = max(1, PREFIX_ENTRIES // (max(n_kk, 1) * d))
    order = prefix.scored[np.argsort(n_at[prefix.scored], kind="stable")]
    starts = np.flatnonzero(np.diff(n_at[order], prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(order))):
        n = int(n_at[order[lo]])
        block = max(1, PREFIX_ENTRIES // (n + 1))
        size = max(1, PREFIX_ENTRIES // ((n + 1) * d if every_row else (n + 1 - n_kk) * d + n + 1))
        for b in range(lo, hi, block):
            steps = order[b : min(b + block, hi)]
            yb, sb = y[steps], stream[steps]
            hit = np.zeros((len(steps), n + 1), dtype=np.int64)
            hit[np.arange(len(steps)), yb] = 1
            before = np.cumsum(hit, axis=0) - hit
            before += tally[sb, : n + 1] - before[np.searchsorted(sb, sb)]  # only the step's own stream's
            np.add.at(tally, (sb, yb), 1)
            rows = np.empty((len(steps), n + 1 - n_kk), dtype=np.int64)
            rows[:, :-1], rows[:, -1] = offset[sb, n_kk:n] + before[:, n_kk:n], novel[sb]
            u, log_prior = class_prior(before[:, :n], params)
            with np.errstate(divide="ignore"):
                np.log(log_prior, out=log_prior)
            for s in range(0, len(steps), size):
                c, part = _Steps(), slice(s, s + size)
                c.steps, c.n, c.rows, c.u, c.log_prior = steps[part], n, rows[part], u[part], log_prior[part]
                if not every_row:
                    Zc = prefix.Z[c.steps]
                    c.logf = np.empty((len(c.steps), n + 1))
                    c.logf[:, n_kk:] = log_density_matrix(Zc, prefix.means[c.rows], prefix.variances[c.rows])
                    for j in range(0, len(c.steps) if n_kk else 0, kk_size):
                        kk = slice(j, j + kk_size)
                        c.logf[kk, :n_kk] = log_density_matrix(Zc[kk], table.means[:n_kk], table.variances[:n_kk])
                    c.log_post = _bayes(c.logf, c.log_prior)
                yield c


def _mixture_nll_grads(Z, y_idx, means, variances, log_prior):
    """Mean NLL of a Gaussian mixture classifier under log_prior (c,) plus
    gradients: the forward and backward pass over the difference blocks z - mu.

    Z: (m, d) points, y_idx: (m,) 0-based targets, means: (c, d) and
    variances: (c,). Returns (nll, d_means, d_variances, d_Z, d_log_prior).
    The queries are scored in blocks of at most PREFIX_ENTRIES (query, row,
    d) entries, one query when one needs more. Each block's sums over its
    queries start from the earlier blocks' totals, a leading row of weight 1,
    so every sum adds in query order and the result is the one block's, bit
    for bit. A table with one row is one block: numpy sums a one-column
    reduction pairwise. Means (m, c, d), variances (m, c) and log_prior
    (m, c) give each point its own rows and its own loss, in one block:
    every value and gradient but d_Z then keeps the point axis. That block
    is the caller's means, overwritten with z - mu and then d_means, which
    is returned in it; no other input is written.
    """
    m, d = Z.shape
    if means.ndim == 3:
        diff = np.subtract(Z[:, None, :], means, out=means)
        sq = np.einsum("mcd,mcd->mc", diff, diff)
        log_post = _bayes(log_density_sq(sq, variances, d), log_prior)
        nll = -log_post[np.arange(m), y_idx]
        G = np.exp(log_post)
        G[np.arange(m), y_idx] -= 1.0
        r = np.divide(diff, variances[..., None], out=diff)  # (z - mu) / v
        d_v = -d / (2.0 * variances) + sq / (2.0 * variances**2)
        d_Z = -np.einsum("mc,mcd->md", G, r)
        return nll, np.multiply(r, G[:, :, None], out=r), G * d_v, d_Z, G

    c = len(means)
    size = max(m, 1) if c == 1 else max(1, PREFIX_ENTRIES // max(c * d, 1))
    norm, two_v = density_constants(variances, d)
    half, two_v2, tile = -d / (2.0 * variances), 2.0 * variances**2, variances.repeat(d).reshape(c, d)
    # row 0: the earlier blocks' totals (weight 1 in G); rows 1..k: a block's (z - mu) / v, G and d nll / d v
    R, G, V = np.empty((size + 1, c, d)), np.empty((size + 1, c)), np.empty((size + 1, c))
    nll, d_Z = np.empty(m), np.empty((m, d))
    for lo in range(0, max(m, 1), size):
        at, k = slice(lo, lo + size), min(size, m - lo)
        r, g, v, dz, hit = R[1 : k + 1], G[1 : k + 1], V[1 : k + 1], d_Z[at], (np.arange(k), y_idx[at])
        np.copyto(r, Z[at, None, :])
        r -= means
        np.einsum("mcd,mcd->mc", r, r, out=v)
        log_post = _bayes(norm - v / two_v, log_prior)
        nll[at] = -log_post[hit]
        np.exp(log_post, out=g)
        g[hit] -= 1.0
        g /= m
        np.divide(r, tile, out=r)
        np.divide(v, two_v2, out=v)
        v += half
        np.negative(np.einsum("mc,mcd->md", g, r, out=dz), out=dz)
        top = 0 if lo else 1  # the first block has no earlier totals
        if lo:
            G[0], R[0], V[0] = d_log_prior, d_means, d_v
        d_log_prior = G[top : k + 1].sum(axis=0)
        G[0] = 1.0
        d_means = np.einsum("mc,mcd->cd", G[top : k + 1], R[top : k + 1])
        d_v = np.einsum("mc,mc->c", G[top : k + 1], V[top : k + 1])
    return float(nll.mean()), d_means, d_v, d_Z, d_log_prior


def _natural_chain(d_means, d_vars, Q, lam):
    """Chain gradients from (mu, v) back to natural parameters (Q, lam),
    for one table (c, ...) or one per point (m, c, ...). d lam reads
    d_means first; d_Q is then d_means divided by lam in place."""
    d_lam = -(np.einsum("...cd,...cd->...c", d_means, Q) + d_vars) / lam**2
    return np.divide(d_means, lam[..., None], out=d_means), d_lam


def _table_nll(table, Z, y_idx, params):
    """Mean NLL of Z against the table under its CRP prior.

    y_idx is 0-based, the novel slot being index table.n. Returns
    (nll, d_Q, d_lam, d_Z, d_b); d_Q and d_lam end with the novel slot's
    row, and d_b is grad_b over the prior's masses, 0 with no class (p = 1
    whatever b).
    """
    u, prior = class_prior(table.counts, params)
    with np.errstate(divide="ignore"):  # a class with no mass: -inf
        log_prior = np.log(prior)
    nll, d_means, d_vars, d_Z, d_log_prior = _mixture_nll_grads(Z, y_idx, table.means, table.variances, log_prior)
    d_Q, d_lam = _natural_chain(d_means, d_vars, table.Q, table.lam)
    return nll, d_Q, d_lam, d_Z, float(grad_b(u, d_log_prior)) if table.n else 0.0


def _sequential_nll(table, Z, labels, params):
    """Teacher-forced query pass: query j is scored against the table, then
    conditions it with its 1-based arrival-order label. Returns (nll, d_Q,
    d_lam, d_Z, d_b), d_Q and d_lam summed over the steps per table
    position: a row born in the pass shares its position's sum with the
    novel slot that held it before; both hold one copy of q0.

    One Prefix pass scores every step. A chunk's (steps, rows, d) blocks are
    its version means, overwritten in place with z - mu, d mu, d Q and the
    running sums below, and Q, gathered only for _natural_chain; both are
    freed before the next chunk's are gathered. Each step's terms are summed
    in step order, as stepping the table would: R is the running sum of
    d loss / d Q per position, and seen[j] is R at the row query j
    conditioned just after step j.
    """
    m, d = Z.shape
    prefix = Prefix(table, Z, arrival_labels(table.n, labels, "query"), params)
    y = prefix.labels - 1
    R, R_lam = np.zeros((prefix.n[0] + 1, d)), np.zeros(prefix.n[0] + 1)
    seen, d_Z = np.zeros((m, d)), np.empty((m, d))
    nll, d_b = np.empty(m), np.empty(m)

    for c in chunks(prefix, every_row=True):
        n, yc = c.n, y[c.steps]
        nll[c.steps], d_means, d_vars, d_Z[c.steps], G = _mixture_nll_grads(
            Z[c.steps], yc, prefix.columns(c, "means"), prefix.columns(c, "variances"), c.log_prior
        )
        d_b[c.steps] = grad_b(c.u, G)
        d_Q, d_lam = _natural_chain(d_means, d_vars, prefix.columns(c, "Q"), prefix.columns(c, "lam"))

        d_Q[0] += R[: n + 1]  # the sums after each step, in place: accumulate's additions, row by row
        for i in range(1, len(d_Q)):
            np.add(d_Q[i - 1], d_Q[i], out=d_Q[i])
        d_lam[0] += R_lam[: n + 1]
        np.add.accumulate(d_lam, axis=0, out=d_lam)
        R[: n + 1], R_lam[: n + 1] = d_Q[-1], d_lam[-1]
        cond = np.flatnonzero(yc >= table.n_kk)
        seen[c.steps[cond]] = d_Q[cond, yc[cond]]
        del d_means, d_Q  # the chunk's one block, freed before the next chunk gathers its own

    cond = y >= table.n_kk
    d_Z[cond] += (R[y[cond]] - seen[cond]) * (1.0 / table.noise_var)
    total, d_b = (float(np.add.accumulate(np.append(0.0, v))[-1]) for v in (nll, d_b))
    scale = 1.0 / m
    return total * scale, R * scale, R_lam * scale, d_Z * scale, d_b * scale


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
    cond_idx = np.asarray(cond_idx, dtype=np.int64)
    query_mask = np.ones(len(adapt_labels), dtype=bool)
    query_mask[cond_idx] = False
    d_Za = np.zeros_like(Za)
    if not query_mask.any() or n_classes == 1:
        # one-class pools score log(1) = 0; empty pools have nothing to score
        return 0.0, np.zeros_like(q0), 0.0, d_Za

    prior = ClassTable(np.zeros((0, len(q0))), [], [], q0, lam0, noise_var)
    table = prior.fold(Za[cond_idx], np.arange(1, n_classes + 1))  # one conditioning point per class
    Zq, yq = Za[query_mask], adapt_labels[query_mask] - 1
    means, variances = table.means[:-1], table.variances[:-1]
    nll, d_means, d_vars, d_Zq, _ = _mixture_nll_grads(Zq, yq, means, variances, np.zeros(n_classes))
    d_Qa, d_lama = _natural_chain(d_means, d_vars, table.Q[:-1], table.lam[:-1])

    d_q0 = d_Qa.sum(axis=0)
    d_lam0 = float(d_lama.sum())
    d_Za[query_mask] += d_Zq
    d_Za[cond_idx] += d_Qa * (1.0 / noise_var)
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

    support_y = np.asarray(episode.support_y, dtype=np.int64)
    if not np.array_equal(np.unique(support_y), np.arange(1, episode.n_known - n_kk + 1)):
        raise ValueError(f"episode support must give each of its known classes 1..{episode.n_known - n_kk} a point")
    raw = (episode.support_x, episode.query_x, episode.adapt_x)
    H_s, H_q, H_a = (np.asarray(x, dtype=np.float64) for x in raw)
    Z_s, Z_q, Z_a = (encode(weight, bias, H) for H in (H_s, H_q, H_a))
    start = ClassTable(class_q, class_lam, np.full(n_kk, ClassTable.PERSISTENT_COUNT), q0, lam0, noise_var, n_kk=n_kk)
    table = start.fold(Z_s, n_kk + support_y)
    if sequential:
        nll, d_Q, d_lam, d_Zq, d_b = _sequential_nll(table, Z_q, episode.query_y, params)
    else:
        y_idx = np.asarray(episode.query_y, dtype=np.int64) - 1
        nll, d_Q, d_lam, d_Zq, d_b = _table_nll(table, Z_q, y_idx, params)
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

    Each support point is scored against the table built from the remaining
    points; a held-out point whose class leaves the reduced support becomes
    a novel-slot target. Only (weight, bias) receive gradients; the prior
    and CRP parameters are constants here. The classes are the sorted
    labels. A held-out table is the full support's ClassTable.fold with the
    point's class row refolded with fold's additions, np.add.accumulate
    over [q0; the class's other points / s_eps], or dropped with its class.
    """
    H = np.asarray(H, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    _, y = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    inv, s = 1.0 / noise_var, len(y)
    Z = encode(weight, bias, H)
    full = ClassTable(np.zeros((0, len(q0))), [], [], q0, lam0, noise_var).fold(Z, y + 1)
    dZ, total = np.zeros_like(Z), 0.0

    for i in range(s):
        c, row, others = y[i], y.copy(), np.arange(s) != i  # row: each point's row in the held-out table
        rest = np.flatnonzero(others & (y == c))
        Q, lam, counts = full.Q[:-1].copy(), full.lam[:-1].copy(), full.counts.copy()
        if len(rest):
            Q[c] = np.add.accumulate(np.vstack([q0, Z[rest] * inv]))[-1]
            lam[c] = np.add.accumulate(np.append(lam0, np.full(len(rest), inv)))[-1]
            counts[c] -= 1
        else:                                         # its class left with it: novel slot
            keep = np.arange(full.n) != c
            Q, lam, counts, row, c = Q[keep], lam[keep], counts[keep], row - (row > c), full.n - 1
        table = ClassTable(Q, lam, counts, q0, lam0, noise_var)
        nll, d_Q, _, d_Zq, _ = _table_nll(table, Z[i : i + 1], np.array([c]), params)
        total += nll
        dZ[i] += d_Zq[0]
        dZ[others] += d_Q[row[others]] * inv

    total /= s
    dZ /= s
    return (total, *_encoder_grads(weight, [(H, dZ)]))
