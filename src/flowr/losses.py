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
holds the rows [classes | novel slot] and the class counts, and takes the
one conditioning step,
and log_posterior is the one forward pass (log densities, then Bayes rule
under a CRP log prior), which _mixture_nll_grads differentiates.

Both meta-training settings score queries against one table

    [ n_kk trainable rows | one row per support class | novel slot ]

Large-context episodes have n_kk free rows (class_q, class_log_lambda) and
no support; small-context episodes are the n_kk = 0 case, with rows
Q_c = q0 + S_c / s_eps, lam_c = lam0 + K_c / s_eps built from the support.
Every row at or above n_kk, and the novel slot (q0, lam0), holds one copy
of the shared prior, so d q0 is the sum of d Q over those rows.

The frozen loss scores every query against that table. The teacher-forced
sequential loss scores query j, then steps the table with condition() on
its arrival-order label, exactly as model.run_episode does. A running
per-row sum R_c of d loss / d Q_c scatters the gradient back to the
conditioning points: a query that conditioned row c at step j gets
(R_c at the end - R_c after step j) / s_eps, a support point of row c gets
R_c at the end / s_eps.

All gradients are certified against central finite differences by grad_check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crp import CrpParams, predictive_class_probs, predictive_grad_b, sigmoid
from .gaussian import log_density_matrix


def logsumexp(x, axis=-1):
    """Stable log-sum-exp tolerating -inf entries (but not all--inf rows)."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
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


class ProtocolError(ValueError):
    """A label or state transition violated the dense arrival protocol."""


class ClassTable:
    """The class table [classes | novel slot], the prior's row last: Q, lam,
    the cached predictive means Q / lam and variances 1 / lam + s_eps, and
    int64 counts (the novel slot's stays 0), in buffers with room to grow in
    place. Rows below n_kk count labels but are never conditioned. The
    table is the only holder of the class counts: its .counts is what
    crp.predictive_class_probs reads.
    """

    _BUFFERS = ("_Q", "_lam", "_means", "_variances", "_counts")
    NEW_CLASS_COUNT = 2  # a class's count after its first point: instantiated at 1, then observed

    def __init__(self, Q, lam, counts, q0, lam0, noise_var, *, n_kk=0):
        self._Q = np.vstack([Q, q0[None, :]])
        self._lam = np.append(lam, lam0)
        self._means = self._Q / self._lam[:, None]
        self._variances = 1.0 / self._lam + noise_var
        self._counts = np.append(np.asarray(counts, dtype=np.int64), 0)
        self.n = self._lam.shape[0] - 1
        self.n_kk, self.noise_var = n_kk, noise_var

    @classmethod
    def counts_after(cls, K):
        """The counts condition() leaves on classes that have seen K >= 1 points each."""
        return K + (cls.NEW_CLASS_COUNT - 1)

    Q = property(lambda t: t._Q[: t.n + 1])
    lam = property(lambda t: t._lam[: t.n + 1])
    means = property(lambda t: t._means[: t.n + 1])
    variances = property(lambda t: t._variances[: t.n + 1])
    counts = property(lambda t: t._counts[: t.n])

    def copy(self, room=0, *, rows=True):
        """A writable copy with room for `room` more classes; rows=False
        copies only the counts and shares the (frozen) row buffers."""
        table = object.__new__(ClassTable)
        table.__dict__.update(self.__dict__, _counts=self._counts.copy())
        if rows:
            table._resize(self.n + 1 + room)
        return table

    def _resize(self, size):
        for name in self._BUFFERS:
            old = getattr(self, name)
            new = np.empty((size,) + old.shape[1:], dtype=old.dtype)
            new[: self.n + 1] = old[: self.n + 1]
            setattr(self, name, new)

    def freeze(self) -> "ClassTable":
        for name in self._BUFFERS:
            getattr(self, name).setflags(write=False)
        return self

    def check(self, y) -> int:
        """The label as an int, or a ProtocolError if it breaks the dense arrival protocol."""
        y = int(y)
        if y < 1:
            raise ProtocolError(f"label {y} is not a positive class index")
        if y > self.n + 1:
            raise ProtocolError(f"label {y} skips ahead of the {self.n} known classes")
        return y

    def condition(self, z, y):
        """The one conditioning step, on point z with label y; returns the row
        conditioned, or None when only the count moved. A label n + 1 opens
        a class as a copy of the prior's row, which moves down to stay last."""
        y = self.check(y)
        n = self.n
        if y == n + 1:
            if self._lam.shape[0] == n + 1:
                self._resize(2 * n + 2)
            for name in self._BUFFERS:
                a = getattr(self, name)
                a[n + 1] = a[n]
            self._counts[n] = self.NEW_CLASS_COUNT
            self.n = n + 1
        else:
            self._counts[y - 1] += 1
            if y <= self.n_kk:
                return None
        r, inv = y - 1, 1.0 / self.noise_var
        self._Q[r] += z * inv
        self._lam[r] += inv
        self._means[r] = self._Q[r] / self._lam[r]
        self._variances[r] = 1.0 / self._lam[r] + self.noise_var
        return r


def log_class_prior(counts, params: CrpParams) -> np.ndarray:
    """Log CRP predictive over the classes and the novel slot (-inf for no
    mass); counts is a ClassTable or a crp.ClassCounts."""
    with np.errstate(divide="ignore"):
        return np.log(predictive_class_probs(counts, params))


def log_posterior(Z, means, variances, log_prior):
    """The forward pass: log densities (m, c) of the points Z under each
    row, and the Bayes-rule log posterior (m, c) under log_prior (c,)."""
    logf = log_density_matrix(Z, means, variances)
    logits = logf + log_prior[None, :]
    return logf, logits - logsumexp(logits, axis=1)[:, None]


def _mixture_nll_grads(Z, y_idx, means, variances, log_prior):
    """Mean NLL of a Gaussian mixture classifier plus gradients.

    Z: (m, d) points, y_idx: (m,) 0-based targets, means: (c, d),
    variances: (c,), log_prior: (c,) possibly containing -inf.
    Returns (nll, d_means, d_variances, d_Z, d_log_prior).
    """
    m, d = Z.shape
    _, log_post = log_posterior(Z, means, variances, log_prior)
    nll = float(np.mean(-log_post[np.arange(m), y_idx]))

    G = np.exp(log_post)
    G[np.arange(m), y_idx] -= 1.0
    G /= m

    diff = Z[:, None, :] - means[None, :, :]          # (m, c, d)
    r = diff / variances[None, :, None]               # (z - mu) / v
    sq = np.einsum("mcd,mcd->mc", diff, diff)

    d_means = np.einsum("mc,mcd->cd", G, r)
    d_vars = np.einsum(
        "mc,mc->c", G, -d / (2.0 * variances)[None, :] + sq / (2.0 * variances**2)[None, :]
    )
    d_Z = -np.einsum("mc,mcd->md", G, r)
    d_log_prior = G.sum(axis=0)
    return nll, d_means, d_vars, d_Z, d_log_prior


def _natural_chain(d_means, d_vars, Q, lam):
    """Chain gradients from (mu, v) back to natural parameters (Q, lam)."""
    d_Q = d_means / lam[:, None]
    d_lam = -(np.einsum("cd,cd->c", d_means, Q) + d_vars) / lam**2
    return d_Q, d_lam


def _table_nll(table, Z, y_idx, params):
    """Mean NLL of Z against the table under its CRP prior.

    y_idx is 0-based, the novel slot being index table.n. Returns
    (nll, d_Q, d_lam, d_Z, d_b); d_Q and d_lam end with the novel slot's row.
    """
    nll, d_means, d_vars, d_Z, d_log_prior = _mixture_nll_grads(
        Z, y_idx, table.means, table.variances, log_class_prior(table, params)
    )
    d_Q, d_lam = _natural_chain(d_means, d_vars, table.Q, table.lam)
    return nll, d_Q, d_lam, d_Z, predictive_grad_b(table, params, d_log_prior)


def _sequential_nll(table, Z, labels, params):
    """Teacher-forced query pass: query j is scored against the table, then
    conditions it with its 1-based arrival-order label. Returns what
    _table_nll returns, with d_Q and d_lam summed over the steps per table
    position: a row born in the pass shares its position's sum with the
    novel slot that held it before; both hold one copy of q0.
    """
    m, d = Z.shape
    R = np.zeros((table.n + m + 1, d))                # running sum of d loss / d Q per position
    R_lam = np.zeros(table.n + m + 1)
    row = np.full(m, -1)                              # row each query conditioned
    seen = np.zeros((m, d))                           # R[row] when it did
    d_Z = np.zeros_like(Z)
    total = d_b = 0.0

    for j, y in enumerate(labels):
        try:
            y = table.check(y)
        except ProtocolError as e:
            raise ProtocolError(f"query {j}: {e}") from e
        nll, d_Qp, d_lamp, d_z, d_bj = _table_nll(table, Z[j : j + 1], np.array([y - 1]), params)
        total += nll
        d_b += d_bj
        d_Z[j] = d_z[0]
        R[: len(d_lamp)] += d_Qp
        R_lam[: len(d_lamp)] += d_lamp
        r = table.condition(Z[j], y)
        if r is not None:
            row[j] = r
            seen[j] = R[r]

    cond = row >= 0
    d_Z[cond] += (R[row[cond]] - seen[cond]) * (1.0 / table.noise_var)
    used, scale = table.n + 1, 1.0 / m
    return total * scale, R[:used] * scale, R_lam[:used] * scale, d_Z * scale, d_b * scale


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
    log_prior = np.zeros(n_classes)
    nll, d_means, d_vars, d_Zq, _ = _mixture_nll_grads(Zq, yq, means, variances, log_prior)
    d_Qa, d_lama = _natural_chain(d_means, d_vars, Qa, lama)

    d_q0 = d_Qa.sum(axis=0)
    d_lam0 = float(d_lama.sum())
    d_Za[query_mask] += d_Zq
    d_Za[cond_idx] += d_Qa * inv
    return nll, d_q0, d_lam0, d_Za


def _episode_grads(
    weight, bias, q0, log_lambda0, rho, episode, class_q, class_lam, class_counts, *,
    a, noise_var, lambda_w, cond_idx, sequential,
):
    """Episode loss over the table [class_q rows | support rows | novel slot].

    Returns (MetaGrads without class fields, d_class_q, d_class_lam).
    """
    lam0 = float(np.exp(log_lambda0))
    params = CrpParams(a=a, rho=rho)
    inv = 1.0 / noise_var
    q0 = np.asarray(q0, dtype=np.float64)
    n_kk = class_q.shape[0]

    raw = (episode.support_x, episode.query_x, episode.adapt_x)
    H_s, H_q, H_a = (np.asarray(x, dtype=np.float64) for x in raw)
    Z_s, Z_q, Z_a = (encode(weight, bias, H) for H in (H_s, H_q, H_a))
    S, K = support_sums(Z_s, episode.support_y, episode.n_known - n_kk)
    table = ClassTable(
        np.vstack([class_q, q0[None, :] + S * inv]), np.append(class_lam, lam0 + K * inv),
        np.append(class_counts, ClassTable.counts_after(K)), q0, lam0, noise_var, n_kk=n_kk,
    )
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
    g = MetaGrads(
        value=nll + lambda_w * adapt,
        nll=nll,
        adapt=adapt,
        d_weight=d_weight,
        d_bias=d_bias,
        d_q0=d_q0,
        d_log_lambda0=d_lam0 * lam0,
        d_rho=d_b * sigmoid(rho),
    )
    return g, d_Q[:n_kk], d_lam[:n_kk]


def sc_meta_grads(
    weight, bias, q0, log_lambda0, rho, episode, *,
    a, noise_var, lambda_w, cond_idx, sequential=False,
):
    """Small-context episode loss and gradients w.r.t. (encoder, q0, log lam0, rho).

    The shared episode loss with no trainable class rows.
    """
    d = np.shape(q0)[0]
    g, _, _ = _episode_grads(
        weight, bias, q0, log_lambda0, rho, episode,
        np.zeros((0, d)), np.zeros(0), np.zeros(0, dtype=np.int64),
        a=a, noise_var=noise_var, lambda_w=lambda_w, cond_idx=cond_idx, sequential=sequential,
    )
    return g


def lc_meta_grads(
    weight, bias, q0, log_lambda0, rho, class_q, class_log_lambda, episode, *,
    a, noise_var, lambda_w, cond_idx, lc_init_count=1, sequential=False,
):
    """Large-context episode loss and gradients; class stats are free parameters.

    The shared episode loss with one trainable row per known class, each
    starting at lc_init_count observations.
    """
    if lc_init_count < 1:
        raise ValueError(f"lc_init_count must be at least 1, got {lc_init_count}: known classes need prior mass")
    class_lam = np.exp(np.asarray(class_log_lambda, dtype=np.float64))
    g, d_class_q, d_class_lam = _episode_grads(
        weight, bias, q0, log_lambda0, rho, episode,
        np.asarray(class_q, dtype=np.float64), class_lam,
        np.full(len(class_lam), int(lc_init_count), dtype=np.int64),
        a=a, noise_var=noise_var, lambda_w=lambda_w, cond_idx=cond_idx, sequential=sequential,
    )
    g.d_class_q = d_class_q
    g.d_class_log_lambda = d_class_lam * class_lam
    return g


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
    log_prior = np.zeros(means.shape[0])
    nll, d_means, d_vars, d_Z, _ = _mixture_nll_grads(Z, labels - 1, means, variances, log_prior)
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
