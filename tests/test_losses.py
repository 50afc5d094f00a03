"""Analytic gradients certified against central finite differences.

grad_check is the oracle route here: every hand-derived gradient must match
the two-sided difference quotient within relative 1e-4. One test feeds the
checker a deliberately corrupted gradient to confirm the certificate can
actually fail.
"""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from flowr import crp, losses, meta
from flowr.crp import CrpParams
from flowr.data import generate_synthetic_world
from flowr.encoder import ClassEmbeddings, Encoder
from flowr.gaussian import LOG_2PI, NaturalClassStats, NoiseModel, SharedPrior, log_density_matrix
from flowr.meta import EpisodeConfig, grad_check, meta_loss, meta_loss_functions
from flowr.model import (
    ProtocolError, _encode, _large_context, init_large_context, init_small_context, predict, run_episode, update,
)

TOL = 1e-4


def _affine(rng, d_out, d_in):
    return Encoder.affine(rng.normal(size=(d_out, d_in)) / np.sqrt(d_in), rng.normal(size=d_out))


def _sc_problem(seed=0, d_in=4, d=3):
    rng = np.random.default_rng(seed)
    ds = generate_synthetic_world(6, d_in, 9.0, 0.5, 16, seed=seed)
    cfg = EpisodeConfig(n_support_classes=2, n_novel_classes=2, shots_min=1, shots_max=3, queries_per_class=3)
    template = meta.init_meta_params(d, rng, encoder=_affine(rng, d, d_in))
    episode = meta.sample_sc_task(ds, cfg, rng)
    return template, episode


class TestLogsumexp:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7)) * 10
        np.testing.assert_allclose(losses.logsumexp(x, axis=1), scipy_logsumexp(x, axis=1), rtol=1e-12)

    def test_tolerates_minus_inf(self):
        x = np.array([[-np.inf, 0.0, 1.0]])
        np.testing.assert_allclose(losses.logsumexp(x, axis=1), scipy_logsumexp(x, axis=1), rtol=1e-12)


class TestGradients:
    def test_pretrain_gradient(self):
        rng = np.random.default_rng(3)
        d_in, d, n, m = 4, 3, 3, 12
        H = rng.normal(size=(m, d_in))
        labels = np.concatenate([np.arange(1, n + 1), rng.integers(1, n + 1, size=m - n)])
        shapes = [(d, d_in), (d,), (n, d), (n,)]
        sizes = [int(np.prod(s)) for s in shapes]

        def unpack(v):
            parts = np.split(v, np.cumsum(sizes)[:-1])
            return [p.reshape(s) for p, s in zip(parts, shapes)]

        def loss_fn(v):
            W, b, mu, logv = unpack(v)
            return losses.pretrain_grads(W, b, H, labels, mu, logv, beta=0.1)[0]

        def grad_fn(v):
            W, b, mu, logv = unpack(v)
            _, dW, db, dmu, dlogv = losses.pretrain_grads(W, b, H, labels, mu, logv, beta=0.1)
            return np.concatenate([dW.ravel(), db, dmu.ravel(), dlogv])

        x0 = rng.normal(size=sum(sizes)) * 0.5
        assert grad_check(loss_fn, grad_fn, x0) <= TOL

    @pytest.mark.parametrize("sequential", [False, True])
    def test_sc_meta_gradient(self, sequential):
        template, episode = _sc_problem(seed=11)
        loss_fn, grad_fn = meta_loss_functions(
            template, episode, 0.1, "sc", sequential=sequential, cond_seed=5
        )
        err = grad_check(loss_fn, grad_fn, meta.params_to_vector(template))
        assert err <= TOL

    @pytest.mark.parametrize("sequential", [False, True])
    def test_lc_meta_gradient(self, sequential):
        rng = np.random.default_rng(13)
        d_in, d = 4, 3
        ds = generate_synthetic_world(6, d_in, 9.0, 0.5, 16, seed=13)
        cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=2, shots_min=1, shots_max=3, queries_per_class=3)
        known = [1, 2, 3]
        template = meta.MetaParams(
            encoder=_affine(rng, d, d_in),
            q0=rng.normal(size=d),
            log_lambda0=0.3,
            rho=0.7,
            class_q=rng.normal(size=(3, d)),
            class_log_lambda=0.2 * rng.normal(size=3),
        )
        episode = meta.sample_lc_task(ds, cfg, rng, known)
        loss_fn, grad_fn = meta_loss_functions(
            template, episode, 0.1, "lc", sequential=sequential, cond_seed=5
        )
        assert grad_check(loss_fn, grad_fn, meta.params_to_vector(template)) <= TOL

    def test_fine_tune_gradient(self):
        rng = np.random.default_rng(17)
        d_in, d = 4, 3
        support_y = np.concatenate([np.arange(1, 3), rng.integers(1, 3, size=5)])
        support_x = rng.normal(size=(len(support_y), d_in))
        q0 = rng.normal(size=d)
        shapes = [(d, d_in), (d,)]
        sizes = [int(np.prod(s)) for s in shapes]

        def unpack(v):
            parts = np.split(v, np.cumsum(sizes)[:-1])
            return [p.reshape(s) for p, s in zip(parts, shapes)]

        def loss_fn(v):
            W, b = unpack(v)
            return losses.loo_support_grads(
                support_x, support_y, W, b, q0, 1.3,
                params=CrpParams(a=0.5, rho=1.0), noise_var=0.5,
            )[0]

        def grad_fn(v):
            W, b = unpack(v)
            _, dW, db = losses.loo_support_grads(
                support_x, support_y, W, b, q0, 1.3,
                params=CrpParams(a=0.5, rho=1.0), noise_var=0.5,
            )
            return np.concatenate([dW.ravel(), db])

        x0 = rng.normal(size=sum(sizes)) * 0.5
        assert grad_check(loss_fn, grad_fn, x0) <= TOL

    def test_grad_check_catches_wrong_gradient(self):
        """The certificate must fail when the gradient is corrupted, or it
        certifies nothing."""
        template, episode = _sc_problem(seed=19)
        loss_fn, grad_fn = meta_loss_functions(template, episode, 0.1, "sc", cond_seed=5)

        def bad_grad(vec):
            g = grad_fn(vec)
            g[0] += 0.5 * abs(g).max() + 0.1
            return g

        assert grad_check(loss_fn, bad_grad, meta.params_to_vector(template)) > TOL


class TestMetaLossStructure:
    def test_adaptation_weight_is_linear(self):
        """Doubling lambda_w moves the loss by exactly lambda_w times the
        adaptation term."""
        template, episode = _sc_problem(seed=23)
        g = meta.meta_grads(template, episode, 0.1, "sc", cond_seed=5)
        loss_double = meta_loss(template, episode, 0.2, "sc", cond_seed=5)
        np.testing.assert_allclose(loss_double - g.value, 0.1 * g.adapt, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(g.value, g.nll + 0.1 * g.adapt, rtol=1e-12)

    def test_class_index_permutation_symmetry(self):
        """Relabelling support classes under a permutation (applied to both
        support and query labels) leaves the episode loss unchanged."""
        template, episode = _sc_problem(seed=29)
        perm = {1: 2, 2: 1}
        bucket = episode.n_known + 1
        swapped = replace(
            episode,
            support_y=np.array([perm[int(y)] for y in episode.support_y]),
            query_y=np.array(
                [y if y == bucket else perm[int(y)] for y in episode.query_y]
            ),
        )
        base = meta_loss(template, episode, 0.1, "sc", cond_seed=5)
        np.testing.assert_allclose(
            meta_loss(template, swapped, 0.1, "sc", cond_seed=5), base, rtol=1e-12
        )


class TestSequentialMatchesInference:
    """The teacher-forced sequential loss is the mean -log posterior that
    inference assigns to each true label while replaying the same stream."""

    @pytest.mark.parametrize("setting", ["sc", "lc"])
    def test_nll_equals_run_episode(self, setting):
        rng = np.random.default_rng(31)
        d = 3
        ds = generate_synthetic_world(8, d, 4.0, 0.5, 20, seed=31)
        if setting == "sc":
            cfg = EpisodeConfig(
                n_support_classes=3, n_novel_classes=2, shots_min=1, shots_max=3, queries_per_class=4
            )
            params = meta.init_meta_params(d, rng)
            episode = meta.sample_sc_task(ds, cfg, rng)
        else:
            cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=2, queries_per_class=4)
            params = replace(
                meta.init_meta_params(d, rng),
                class_q=rng.normal(size=(3, d)),
                class_log_lambda=0.2 * rng.normal(size=3),
            )
            episode = meta.sample_lc_task(ds, cfg, rng, [1, 2, 3])
        g = meta.meta_grads(
            params, episode, 0.0, setting, sequential=True, a=0.5, noise_variance=0.5
        )

        parts = (params.prior(), CrpParams(a=0.5, rho=params.rho), NoiseModel(0.5), Encoder.identity())
        if setting == "sc":
            state = init_small_context(*parts, zip(episode.support_x, episode.support_y))
        else:
            state = _large_context(params.class_q, np.exp(params.class_log_lambda), *parts, init_count=1)
        records, _ = run_episode(state, zip(episode.query_x, meta.oracle_labels(episode)))
        nll = np.mean([-np.log(r.probs[r.true_label - 1]) for r in records])
        np.testing.assert_allclose(g.nll, nll, rtol=1e-12)


def _two_pass_nll_grads(Z, y_idx, means, variances, log_prior):
    """The training pass as it was written before it was fused: the
    forward pass of model.predict, then the gradients from a second
    difference block. Kept as the reference the fused
    losses._mixture_nll_grads must match bit for bit."""
    m, d = Z.shape
    own = means.ndim == 3
    diff = Z[:, None, :] - means
    sq = np.einsum("mcd,mcd->mc", diff, diff)
    logf = -0.5 * d * (LOG_2PI + np.log(variances)) - sq / (2.0 * variances)
    logits = logf + log_prior
    log_post = logits - losses.logsumexp(logits, axis=1)[:, None]

    nll = -log_post[np.arange(m), y_idx]
    G = np.exp(log_post)
    G[np.arange(m), y_idx] -= 1.0
    if not own:
        nll = float(np.mean(nll))
        G /= m
    diff = Z[:, None, :] - means
    r = diff / variances[..., None]
    sq = np.einsum("mcd,mcd->mc", diff, diff)
    d_v = -d / (2.0 * variances) + sq / (2.0 * variances**2)
    d_Z = -np.einsum("mc,mcd->md", G, r)
    if own:
        return nll, G[:, :, None] * r, G * d_v, d_Z, G
    return nll, np.einsum("mc,mcd->cd", G, r), np.einsum("mc,mc->c", G, d_v), d_Z, G.sum(axis=0)


def _two_pass_table_nll(table, Z, y_idx, params):
    """_table_nll through the two-pass reference, with d/db as the frozen
    episode loss takes it."""
    with np.errstate(divide="ignore"):
        log_prior = np.log(crp.class_prior(table.counts, params)[1])
    nll, d_means, d_vars, d_Z, d_log_prior = _two_pass_nll_grads(Z, y_idx, table.means, table.variances, log_prior)
    d_Q, d_lam = losses._natural_chain(d_means, d_vars, table.Q, table.lam)
    return nll, d_Q, d_lam, d_Z, float(crp.grad_b(crp.class_prior(table.counts, params)[0], d_log_prior))


def _assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w)
        if isinstance(w, float):
            assert g == w
        else:
            np.testing.assert_array_equal(g, w)


def _fused_pass_callers(d):
    """Every caller of the fused pass on one problem in d dimensions, by name."""
    rng = np.random.default_rng(d)
    d_in, n, m = d + 2, 6, 40
    W, b = rng.normal(size=(d, d_in)) / np.sqrt(d_in), rng.normal(size=d)
    q0, noise = rng.normal(size=d), 0.5
    K = rng.integers(1, 4, size=n)
    table = losses.ClassTable(
        q0 + rng.normal(size=(n, d)) * K[:, None], 1.3 + K / noise, losses.ClassTable.counts_after(K), q0, 1.3, noise
    )
    params = CrpParams(a=0.5, rho=0.7)
    Z, y_idx = rng.normal(size=(m, d)) * 2.0, rng.integers(0, n + 1, size=m)
    H, labels = rng.normal(size=(m, d_in)), np.concatenate([np.arange(1, n + 1), rng.integers(1, n + 1, size=m - n)])
    adapt_y = np.repeat(np.arange(1, 5), 4)
    means, log_vars = rng.normal(size=(n, d)), 0.3 * rng.normal(size=n)
    return {
        "_table_nll": lambda: losses._table_nll(table, Z, y_idx, params),
        "_adaptation_term": lambda: losses._adaptation_term(q0, 1.3, noise, Z[:16], adapt_y, np.arange(4) * 4),
        "pretrain_grads": lambda: losses.pretrain_grads(W, b, H, labels, means, log_vars, 0.1),
        "loo_support_grads": lambda: losses.loo_support_grads(
            H[:12], labels[:12], W, b, q0, 1.3, params=params, noise_var=noise
        ),
    }


@pytest.mark.parametrize("d", [2, 64])
@pytest.mark.parametrize("caller", ["_table_nll", "_adaptation_term", "pretrain_grads", "loo_support_grads"])
def test_fused_pass_matches_two_pass_reference(d, caller):
    """Every training loss that scores one table returns exactly what the
    two-pass code returned, bit for bit, at small d and at d = 64, where
    numpy's reductions take their SIMD paths, also with PREFIX_ENTRIES = 64,
    where each caller scores its queries in blocks of one query or a few."""
    call = _fused_pass_callers(d)[caller]
    with mock.patch.object(losses, "_mixture_nll_grads", _two_pass_nll_grads):
        want = call()
    _assert_same(call(), want)
    with mock.patch.object(losses, "PREFIX_ENTRIES", 64):
        _assert_same(call(), want)


def test_table_nll_holds_bounded_difference_blocks():
    """The frozen loss scores its queries in blocks of at most
    PREFIX_ENTRIES (query, row, d) entries: on 1,000 queries against 50
    classes and the novel slot at d = 64, whose one difference block would
    take 26 MB, it holds no more than its (queries, d) gradient and two
    bounded blocks."""
    rng = np.random.default_rng(43)
    m, n, d = 1000, 50, 64
    q0 = rng.normal(size=d)
    K = rng.integers(1, 6, size=n)
    Q = q0 + rng.normal(size=(n, d)) * K[:, None]
    table = losses.ClassTable(Q, 1.0 + K, losses.ClassTable.counts_after(K), q0, 1.0, 1.0)
    Z, y_idx = rng.normal(size=(m, d)), rng.integers(0, n + 1, size=m)
    params = CrpParams(a=0.5, rho=0.7)
    block, d_Z = losses.PREFIX_ENTRIES * 8, m * d * 8
    assert m * (n + 1) * d * 8 > 40 * block
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        losses._table_nll(table, Z, y_idx, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < d_Z + 2 * block, f"peak {(peak - d_Z) / block:.2f} blocks beyond d_Z"


def _one_block_nll_grads(Z, y_idx, means, variances, log_prior):
    """The shared-rows pass as it was before it scored queries in blocks:
    one (m, c, d) difference block. Kept as the reference the blocked
    losses._mixture_nll_grads must match bit for bit."""
    m, d = Z.shape
    diff = Z.repeat(len(means), axis=0).reshape(m, len(means), d)
    diff -= means
    sq = np.einsum("mcd,mcd->mc", diff, diff)
    logf = -0.5 * d * (LOG_2PI + np.log(variances)) - sq / (2.0 * variances)
    logits = logf + log_prior
    log_post = logits - losses.logsumexp(logits, axis=1)[:, None]
    nll = float(np.mean(-log_post[np.arange(m), y_idx]))
    G = np.exp(log_post)
    G[np.arange(m), y_idx] -= 1.0
    G /= m
    r = np.divide(diff, variances[..., None], out=diff)
    d_v = -d / (2.0 * variances) + sq / (2.0 * variances**2)
    d_Z = -np.einsum("mc,mcd->md", G, r)
    return nll, np.einsum("mc,mcd->cd", G, r), np.einsum("mc,mc->c", G, d_v), d_Z, G.sum(axis=0)


@st.composite
def _blocked_passes(draw):
    """(Z, targets, means, variances, log prior, PREFIX_ENTRIES): up to 60
    rows, one and two included, d from 1 to 100, inputs at scales 1e-3 to
    1e3, and blocks of b queries with m below b, equal to it, a multiple of
    it, or anything up to 600."""
    c = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 60)))
    d = draw(st.sampled_from([1, 2, 3, 8, 64, 100]))
    b = draw(st.integers(1, 40))
    m = draw(st.one_of(st.sampled_from([max(b - 1, 1), b, 3 * b]), st.integers(1, 600)))
    scale = 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z, means = rng.normal(size=(m, d)) * scale, rng.normal(size=(c, d)) * scale
    means[0] = Z[0]  # a zero difference
    variances = np.exp(rng.normal(size=c)) * scale**2 * 10.0 ** draw(st.floats(-3, 3))
    log_prior = rng.normal(size=c)
    if c > 1 and draw(st.booleans()):
        log_prior[-1] = -np.inf  # a row with no prior mass
    entries = b * c * d + draw(st.integers(0, c * d - 1))  # PREFIX_ENTRIES // (c d) = b
    return Z, rng.integers(0, c, size=m), means, variances, log_prior, entries


@settings(max_examples=300, deadline=None)
@given(_blocked_passes())
def test_blocked_pass_matches_one_block(case):
    """Scoring the queries in blocks, each block's sums started from the
    earlier blocks' totals, changes no bit of any of the five outputs (a
    one-row table stays one block)."""
    *inputs, entries = case
    want = _one_block_nll_grads(*inputs)
    with mock.patch.object(losses, "PREFIX_ENTRIES", entries):
        got = losses._mixture_nll_grads(*inputs)
    assert got[0] == want[0] or (np.isnan(got[0]) and np.isnan(want[0]))
    for g, w in zip(got[1:], want[1:], strict=True):
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def _stepped_sequential_nll(table, Z, labels, params):
    """The teacher-forced loss as it was written before the prefix pass:
    score query j against the table through the two-pass reference, then
    step the table with condition(). Kept as the reference the batched
    pass must match bit for bit."""
    m, d = Z.shape
    R = np.zeros((table.n + m + 1, d))
    R_lam = np.zeros(table.n + m + 1)
    row = np.full(m, -1)
    seen = np.zeros((m, d))
    d_Z = np.zeros_like(Z)
    total = d_b = 0.0

    for j, y in enumerate(labels):
        fault = crp.label_fault(y, table.n)
        if fault:
            raise ProtocolError(f"query {j}: {fault}")
        y = int(y)
        nll, d_Qp, d_lamp, d_z, d_bj = _two_pass_table_nll(table, Z[j : j + 1], np.array([y - 1]), params)
        total += nll
        d_b += d_bj
        d_Z[j] = d_z[0]
        R[: len(d_lamp)] += d_Qp
        R_lam[: len(d_lamp)] += d_lamp
        table = table.condition(Z[j], y)
        if y > table.n_kk:
            row[j] = y - 1
            seen[j] = R[y - 1]

    cond = row >= 0
    d_Z[cond] += (R[row[cond]] - seen[cond]) * (1.0 / table.noise_var)
    used, scale = table.n + 1, 1.0 / m
    return total * scale, R[:used] * scale, R_lam[:used] * scale, d_Z * scale, d_b * scale


@st.composite
def _teacher_forced_cases(draw):
    """A class table [n_kk rows | support rows | novel slot] and a dense
    label stream over it, at extreme noise and prior scales."""
    n_kk = draw(st.sampled_from([0, 0, 1, 4]))
    n_support = draw(st.integers(0, 3))
    start = n_kk + n_support
    kind = draw(st.sampled_from(["mixed", "open first", "known-known only"]))
    if kind == "known-known only" and n_kk == 0:
        kind = "mixed"
    choices = draw(st.lists(st.integers(0, 7), min_size=1, max_size=40))
    labels, n = [], start
    for i, c in enumerate(choices):
        if kind == "known-known only":
            y = c % n_kk + 1
        elif kind == "open first" and i == 0:
            y = n + 1
        else:
            y = min(c, n) + 1
        n = max(n, y)
        labels.append(y)
    return dict(
        n_kk=n_kk,
        n_support=n_support,
        labels=labels,
        d=draw(st.sampled_from([1, 2, 3, 4, 64])),
        seed=draw(st.integers(0, 2**32 - 1)),
        noise=10.0 ** draw(st.floats(-6.0, 6.0)),
        lam0=draw(st.sampled_from([1e-6, 1e-3, 0.5, 5.0])),
        init_count=draw(st.integers(0, 3)),
        a=draw(st.floats(0.0, 0.9)),
        b=draw(st.floats(0.1, 3.0)),
        # the default (None), numbers, and the stream's largest class count n
        # or n + 1 (a block of one step at n classes, more below it)
        entries=draw(st.sampled_from([None, 1, "n", "n + 1", 7, 40, 97])),
    )


@settings(max_examples=200, deadline=None)
@given(_teacher_forced_cases())
def test_prefix_pass_matches_stepped_teacher_forced_loss(case):
    """The batched teacher-forced loss returns exactly what stepping the
    table query by query returned: all five values, bit for bit, across
    small- and large-context tables (known-known counts 0 or more), streams
    that open a class first or only ever name known-known classes, runs of
    steps split into several blocks and chunks, noise variances from 1e-6
    to 1e6, and d = 64, where numpy's reductions take their SIMD paths."""
    rng = np.random.default_rng(case["seed"])
    d, n_kk, n_support = case["d"], case["n_kk"], case["n_support"]
    noise, lam0 = case["noise"], case["lam0"]
    q0 = rng.normal(size=d)
    K = rng.integers(1, 4, size=n_support)
    Q = np.vstack([rng.normal(size=(n_kk, d)), q0 + rng.normal(size=(n_support, d)) * K[:, None] / noise])
    lam = np.append(rng.uniform(0.1, 3.0, n_kk), lam0 + K / noise)
    counts = np.append(np.full(n_kk, case["init_count"]), losses.ClassTable.counts_after(K))
    table = losses.ClassTable(Q, lam, counts, q0, lam0, noise, n_kk=n_kk)
    Z = rng.normal(size=(len(case["labels"]), d))
    params = CrpParams.from_b(a=case["a"], b=case["b"])

    want = _stepped_sequential_nll(table, Z, case["labels"], params)
    n = max([n_kk + n_support, *case["labels"]])
    entries = {None: losses.PREFIX_ENTRIES, "n": n, "n + 1": n + 1}.get(case["entries"], case["entries"])
    with mock.patch.object(losses, "PREFIX_ENTRIES", entries):
        got = losses._sequential_nll(table, Z, case["labels"], params)
    _assert_same(got, want)


def _sc_paper_sequential_case(seed):
    """A small-context table of 40 support classes at d = 64 and a dense
    stream of 500 queries that opens new classes along the way: the
    sc-paper episode shape."""
    rng = np.random.default_rng(seed)
    n, m, d, noise = 40, 500, 64, 0.5
    q0 = rng.normal(size=d)
    K = rng.integers(1, 6, size=n)
    table = losses.ClassTable(
        q0 + rng.normal(size=(n, d)) * K[:, None], 1.0 + K / noise, losses.ClassTable.counts_after(K), q0, 1.0, noise
    )
    labels, k = [], n
    for c in rng.integers(0, n + 10, size=m):
        labels.append(min(int(c), k) + 1)
        k = max(k, labels[-1])
    return table, rng.normal(size=(m, d)), np.array(labels), CrpParams(a=0.5, rho=0.7)


def test_prefix_pass_matches_stepped_teacher_forced_loss_at_sc_paper_width():
    """At the sc-paper shape and the default PREFIX_ENTRIES the widest
    chunks hold 20 or more steps of 41 or more rows each, more than the
    fuzz above builds; the running sums folded row by row still give
    exactly what stepping the table gave, all five values bit for bit."""
    table, Z, labels, params = _sc_paper_sequential_case(29)
    widths = [len(c.steps) for c in losses.chunks(losses.Prefix(table, Z, labels, params), every_row=True)]
    assert max(widths) >= 20
    _assert_same(losses._sequential_nll(table, Z, labels, params), _stepped_sequential_nll(table, Z, labels, params))


def test_chunk_scoring_holds_one_difference_block():
    """Each per-point log_density_matrix call that chunks() makes, on the
    version means it gathered for a run of steps (steps, rows, d), holds at
    most 1.5 such blocks beyond its inputs: the difference block is built
    once and the means are subtracted into it in place."""
    table, Z, labels, params = _sc_paper_sequential_case(31)
    prefix = losses.Prefix(table, Z, labels, params)
    blocks = []

    def measured(Z, means, variances):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = log_density_matrix(Z, means, variances)
        blocks.append((tracemalloc.get_traced_memory()[1] - base) / means.nbytes)
        return out

    tracemalloc.start()
    try:
        with mock.patch.object(losses, "log_density_matrix", measured):
            for _ in losses.chunks(prefix):
                pass
    finally:
        tracemalloc.stop()
    assert blocks and max(blocks) < 1.5, f"peak {max(blocks):.2f} blocks"


def test_sequential_loss_takes_each_steps_d_b_from_its_counts():
    """The teacher-forced loss takes d/db from the CRP masses its block
    built once for the log prior: each step's d/db equals crp.grad_b over
    the crp.class_prior masses of the counts of the table stepping reaches
    before that step, bit for bit, at the sc-paper shape."""
    table, Z, labels, params = _sc_paper_sequential_case(37)
    steps, calls, real_chunks, real_grad_b = [], [], losses.chunks, losses.grad_b

    def chunks(prefix, every_row=False):
        for c in real_chunks(prefix, every_row):
            steps.append(c.steps)
            yield c

    def grad_b(u, d_log_probs):
        calls.append((d_log_probs.copy(), real_grad_b(u, d_log_probs)))
        return calls[-1][1]

    with mock.patch.object(losses, "chunks", chunks), mock.patch.object(losses, "grad_b", grad_b):
        losses._sequential_nll(table, Z, labels, params)
    before, t = [], table
    for z, y in zip(Z, labels):
        before.append(t)
        t = t.condition(z, int(y))
    assert len(calls) == len(steps) > 1
    for s, (G, got) in zip(steps, calls):
        want = [crp.grad_b(crp.class_prior(before[j].counts, params)[0], G[i]) for i, j in enumerate(s)]
        np.testing.assert_array_equal(got, want)


def test_prefix_pass_block_arrays_do_not_grow_with_the_run():
    """At a large-context shape (1,000 persistent rows, d = 64, 50 classes
    opened along the stream) the peak traced memory of one teacher-forced
    chunks pass over 4,100 steps is within 10 % of that over 2,050: the
    per-block arrays (counts, version rows, CRP masses, log prior) are
    bounded by PREFIX_ENTRIES, not by the run of steps that see one class
    count, which holds most of the stream."""
    rng = np.random.default_rng(59)
    n_kk, d = 1000, 64
    table = losses.ClassTable(
        rng.normal(size=(n_kk, d)), rng.uniform(0.5, 2.0, n_kk), np.ones(n_kk, dtype=np.int64),
        rng.normal(size=d), 1.0, 0.5, n_kk=n_kk,
    )
    params = CrpParams(a=0.5, rho=0.7)

    def peak(m):
        labels, n = [], n_kk
        for c in rng.integers(0, n_kk + 50, size=m):
            labels.append(min(int(c), n) + 1)
            n = max(n, labels[-1])
        prefix = losses.Prefix(table, rng.normal(size=(m, d)), np.array(labels), params)
        tracemalloc.start()
        try:
            for _ in losses.chunks(prefix, every_row=True):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2050), peak(4100)
    assert abs(long - short) < 0.1 * short, f"peak {short} B over 2,050 steps, {long} B over 4,100"


def _per_row_versions(prefix):
    """Q and lam of a one-stream prefix's versions folded one row at a
    time, one np.add.accumulate pair per row (its segment: rows n_kk..n-1,
    then the novel slot); kept as the reference the per-length fold must
    match bit for bit."""
    table, Z, inv = prefix.table, prefix.Z, 1.0 / prefix.table.noise_var
    n0, n_kk, n = table.n, table.n_kk, prefix.n[0]
    Q, lam = [], []
    for r in range(n_kk, n + 1):
        steps = np.flatnonzero(prefix.labels - 1 == r) if r < n else []
        first = min(r, n0)  # a row born in the pass, and the novel slot, start as the prior's row
        Q.append(np.add.accumulate(np.vstack([table.Q[first], *(Z[j] * inv for j in steps)])))
        lam.append(np.add.accumulate(np.append(table.lam[first], np.full(len(steps), inv))))
    return np.vstack(Q), np.concatenate(lam)


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([1, 3, 64]),
    n0=st.integers(0, 5),
    kk=st.booleans(),
    choices=st.lists(st.integers(0, 8), max_size=60),
    scale=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_folds_versions_as_the_per_row_loop(d, n0, kk, choices, scale, seed):
    """Prefix folds the versions of all rows with as many points in one
    call per segment length, and gets what one call per row got, bit for
    bit, for points and rows from 1e-5 to 1e5."""
    rng = np.random.default_rng(seed)
    labels, n = [], n0
    for c in choices:
        labels.append(min(c, n) + 1)
        n = max(n, labels[-1])
    size = 10.0**scale
    table = losses.ClassTable(
        rng.normal(size=(n0, d)) * size, rng.uniform(0.5, 5.0, n0), np.ones(n0, dtype=np.int64),
        rng.normal(size=d) * size, 1.3, rng.uniform(0.05, 5.0), n_kk=n0 // 2 if kk else 0,
    )
    Z = rng.normal(size=(len(labels), d)) * size
    prefix = losses.Prefix(table, Z, np.array(labels, dtype=np.int64), CrpParams(a=0.5, rho=0.3))
    Q, lam = _per_row_versions(prefix)
    np.testing.assert_array_equal(prefix.Q, Q)
    np.testing.assert_array_equal(prefix.lam, lam)


@st.composite
def _prefix_blocks(draw):
    """Streams of one block from one start table (n_kk known-known rows and
    0-3 classes above them), each with a head of 0-10 points and a stream
    of dense labels."""
    n_kk = draw(st.sampled_from([0, 0, 1, 3]))
    n0 = n_kk + draw(st.integers(0, 3))
    streams = []
    for _ in range(draw(st.integers(1, 5))):
        labels, n = [], n0
        for c in draw(st.lists(st.integers(0, 6), max_size=25)):
            labels.append(min(c, n) + 1)  # 1..n, or n + 1 to open a new class
            n = max(n, labels[-1])
        streams.append((draw(st.integers(0, min(10, len(labels)))), labels))
    return dict(
        d=draw(st.integers(1, 4)),
        n_kk=n_kk,
        n0=n0,
        streams=streams,
        seed=draw(st.integers(0, 2**32 - 1)),
        noise=draw(st.floats(0.05, 5.0)),
        a=draw(st.floats(0.0, 0.9)),
        b=draw(st.floats(0.1, 3.0)),
        entries=draw(st.sampled_from([None, 1, 7, 40, 97])),
    )


def _last_versions(prefix, i=0):
    """Stream i's last version of every row in a Prefix, the rows below n_kk
    and the novel slot as its start table holds them, and its final counts,
    as attributes Q, lam, means, variances and counts."""
    t, n = prefix.table, prefix.n[i]
    last = prefix.start[prefix.base[i] + 1 : prefix.base[i] + n - t.n_kk + 1] - 1
    y = prefix.labels[prefix.first[i] :][: prefix.lengths[i]]
    return SimpleNamespace(
        counts=prefix.counts[i, :n] + np.bincount(y - 1, minlength=n),
        **{name: np.concatenate([getattr(t, name)[: t.n_kk], getattr(prefix, name)[last], getattr(t, name)[-1:]])
           for name in ("Q", "lam", "means", "variances")},
    )


@st.composite
def _fold_cases(draw):
    """A class table (0-3 known-known rows, 0-3 rows of its own, scales
    1e-3..1e3) and up to 30 points with dense arrival-order labels."""
    n_kk, own = draw(st.sampled_from([0, 0, 1, 3])), draw(st.integers(0, 3))
    labels, n = [], n_kk + own
    for c in draw(st.lists(st.integers(0, 6), max_size=30)):
        labels.append(min(c, n) + 1)  # 1..n, or n + 1 to open a new class
        n = max(n, labels[-1])
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return dict(n_kk=n_kk, own=own, labels=labels, scale=scale, noise=draw(st.sampled_from([1e-3, 0.5, 1e3])),
                d=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(_fold_cases())
def test_fold_is_stepping_condition_and_prefix_last_versions(case):
    """fold() is the one builder of conditioned tables: from one table and
    one stream it gives, bit for bit, every row array and the counts that
    stepping condition() gives and that a Prefix's last versions hold, and
    the derived rows a table built from its Q and lam has; the same points
    in any order of labels give the same table, and no points give the
    table back by value."""
    rng = np.random.default_rng(case["seed"])
    d, n0, scale = case["d"], case["n_kk"] + case["own"], case["scale"]
    table = losses.ClassTable(
        rng.normal(size=(n0, d)) * scale, rng.uniform(0.5, 2.0, n0) / scale, rng.integers(0, 4, n0),
        rng.normal(size=d) * scale, 1.3 / scale, case["noise"], n_kk=case["n_kk"],
    )
    y = np.array(case["labels"], dtype=np.int64)
    Z = rng.normal(size=(len(y), d)) * scale
    stepped = table
    for z, label in zip(Z, y):
        stepped = stepped.condition(z, int(label))
    folded, by_label = table.fold(Z, y), np.argsort(y, kind="stable")
    prefix = _last_versions(losses.Prefix(table, Z, y, CrpParams(a=0.5, rho=0.3)))
    for got in (stepped, prefix, table.fold(Z[by_label], y[by_label])):
        for name in ("Q", "lam", "means", "variances", "counts"):
            np.testing.assert_array_equal(getattr(folded, name), getattr(got, name))
    built = losses.ClassTable(folded.Q[:-1], folded.lam[:-1], folded.counts, table.Q[-1], table.lam[-1],
                              case["noise"], n_kk=case["n_kk"])
    for name in ("means", "variances", "log_norm", "two_v"):  # derived as a table build derives them
        np.testing.assert_array_equal(getattr(folded, name), getattr(stepped, name))
        np.testing.assert_array_equal(getattr(folded, name), getattr(built, name))
    empty = table.fold(np.zeros((0, d)), np.zeros(0, dtype=np.int64))
    for name in ("Q", "lam", "means", "variances", "log_norm", "two_v", "counts"):
        np.testing.assert_array_equal(getattr(empty, name), getattr(table, name))
        assert not getattr(folded, name).flags.writeable


@settings(max_examples=150, deadline=None)
@given(_prefix_blocks())
def test_block_prefix_matches_one_prefix_per_stream(case):
    """One Prefix over a block of streams from one table gives each stream,
    bit for bit, what a Prefix over that stream alone gives it: its
    versions, its counts, its last versions (the table fold() ends at) and
    its scored log posteriors, with the steps split over blocks and chunks
    differently. A stream's head conditions it and is never scored: its
    queries score and end as they do from the table its head folds first."""
    rng = np.random.default_rng(case["seed"])
    d, n_kk, n0 = case["d"], case["n_kk"], case["n0"]
    params, q0 = CrpParams.from_b(a=case["a"], b=case["b"]), rng.normal(size=d)
    Q = np.vstack([rng.normal(size=(n_kk, d)), q0 + rng.normal(size=(n0 - n_kk, d))])
    lam = np.append(rng.uniform(0.5, 2.0, n_kk), 1.0 + rng.uniform(1.0, 3.0, n0 - n_kk))
    counts = np.append(rng.integers(0, 3, n_kk), rng.integers(1, 4, n0 - n_kk))
    table = losses.ClassTable(Q, lam, counts, q0, 1.3, case["noise"], n_kk=n_kk)
    heads = [h for h, _ in case["streams"]]
    labels = [np.array(y, dtype=np.int64) for _, y in case["streams"]]
    Z = [rng.normal(size=(len(y), d)) for y in labels]
    entries = case["entries"] or losses.PREFIX_ENTRIES
    with mock.patch.object(losses, "PREFIX_ENTRIES", entries):
        block = losses.Prefix(table, np.vstack(Z), np.concatenate(labels), params, [len(y) for y in labels], heads)
        scored = {
            int(step): (c.n, c.u[i], c.logf[i], c.log_post[i]) for c in losses.chunks(block) for i, step in enumerate(c.steps)
        }
        for i, (z, y, h) in enumerate(zip(Z, labels, heads)):
            alone, first = losses.Prefix(table, z, y, params, heads=h), block.first[i]
            versions = slice(block.start[block.base[i]], block.start[block.base[i] + len(alone.start) - 1])
            for name in ("Q", "lam", "means", "variances"):
                np.testing.assert_array_equal(getattr(block, name)[versions], getattr(alone, name))
            width = alone.counts.shape[1]
            np.testing.assert_array_equal(block.counts[i, :width], alone.counts[0])
            assert not block.counts[i, width:].any()
            folded, final = table.fold(z[:h], y[:h]), table.fold(z, y)
            two_pass = losses.Prefix(folded, z[h:], y[h:], params)
            for got in (_last_versions(block, i), _last_versions(alone), folded.fold(z[h:], y[h:])):
                for name in ("Q", "lam", "means", "variances", "counts"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(final, name))
            for want in (alone, two_pass):
                got = 0
                for c in losses.chunks(want):
                    for j, step in enumerate(c.steps + (first + h if want is two_pass else first)):
                        n, u, logf, log_post = scored[int(step)]
                        assert n == c.n
                        for a, b in ((u, c.u[j]), (logf, c.logf[j]), (log_post, c.log_post[j])):
                            np.testing.assert_array_equal(a, b)
                        got += 1
                assert got == len(y) - h
    assert len(scored) == sum(len(y) - h for y, h in zip(labels, heads))


def test_teacher_forced_label_skipping_ahead_is_rejected():
    """The teacher-forced loss replays labels through the model's class
    table, so a label past the next free class fails with one line that
    names the query."""
    template, episode = _sc_problem(seed=37)
    query_y = episode.query_y.copy()
    query_y[2] = 99
    w, b = template.encoder.params
    with pytest.raises(ProtocolError, match="^query 2: label 99 skips ahead of the [0-9]+ known classes$"):
        losses.sc_meta_grads(
            w, b, template.q0, template.log_lambda0, template.rho, replace(episode, query_y=query_y),
            a=0.5, noise_var=0.5, lambda_w=0.0, cond_idx=[], sequential=True,
        )


@pytest.mark.parametrize(
    "faults, message",
    [
        ({3: 0, 5: 99}, "^query 3: label 0 is not a positive class index$"),
        ({4: 99, 1: 0}, "^query 1: label 0 is not a positive class index$"),
        ({0: -2}, "^query 0: label -2 is not a positive class index$"),
    ],
)
def test_teacher_forced_first_bad_label_is_reported(faults, message):
    """Of several bad labels, the first in stream order is the one named."""
    template, episode = _sc_problem(seed=37)
    query_y = episode.query_y.copy()
    for j, y in faults.items():
        query_y[j] = y
    w, b = template.encoder.params
    with pytest.raises(ProtocolError, match=message):
        losses.sc_meta_grads(
            w, b, template.q0, template.log_lambda0, template.rho, replace(episode, query_y=query_y),
            a=0.5, noise_var=0.5, lambda_w=0.0, cond_idx=[], sequential=True,
        )


def test_teacher_forced_non_integer_label_is_rejected():
    """A label that is not an integer used to be truncated to the class
    below it; the teacher-forced loss now refuses it, naming the query."""
    template, episode = _sc_problem(seed=37)
    query_y = episode.query_y.astype(np.float64)
    query_y[2] += 0.5
    w, b = template.encoder.params
    with pytest.raises(ProtocolError, match="^query 2: label [0-9]+.5 is not an integer class index$"):
        losses.sc_meta_grads(
            w, b, template.q0, template.log_lambda0, template.rho, replace(episode, query_y=query_y),
            a=0.5, noise_var=0.5, lambda_w=0.0, cond_idx=[], sequential=True,
        )


def test_persistent_classes_start_at_one_count_in_training_and_evaluation():
    """Meta-training and large-context evaluation seed each persistent
    class from the one constant ClassTable.PERSISTENT_COUNT: the table
    episode_grads scores and a default init_large_context state carry it
    on every class row (evaluation used to start at 0)."""
    rng = np.random.default_rng(13)
    ds = generate_synthetic_world(6, 3, 9.0, 0.5, 16, seed=13)
    params = replace(
        meta.init_meta_params(3, rng), class_q=rng.normal(size=(3, 3)), class_log_lambda=np.zeros(3)
    )
    cfg = EpisodeConfig(n_support_classes=0, n_novel_classes=2, queries_per_class=3)
    episode = meta.sample_lc_task(ds, cfg, rng, [1, 2, 3])
    init = losses.ClassTable.__init__
    with mock.patch.object(losses.ClassTable, "__init__", autospec=True, side_effect=init) as spy:
        g = meta.meta_grads(params, episode, 0.1, "lc")
        tables = [call.args[0] for call in spy.call_args_list]
    assert np.isfinite(g.value) and tables
    assert losses.ClassTable.PERSISTENT_COUNT == 1
    np.testing.assert_array_equal(tables[0].counts[:3], [losses.ClassTable.PERSISTENT_COUNT] * 3)
    parts = (params.prior(), CrpParams(a=0.5, rho=params.rho), NoiseModel(0.5), Encoder.identity())
    state = init_large_context(ClassEmbeddings(means=params.class_q, variances=np.ones(3)), *parts)
    np.testing.assert_array_equal(state.counts, [losses.ClassTable.PERSISTENT_COUNT] * 3)


def test_hot_path_builds_no_class_counts(monkeypatch):
    """Inference, the teacher-forced loss and the leave-one-out loss read
    the class table's counts directly: none of them builds a
    crp.ClassCounts per query or per loss step."""
    template, episode = _sc_problem(seed=41)
    params = CrpParams(a=0.5, rho=template.rho)
    state = init_small_context(
        template.prior(), params, NoiseModel(0.5), template.encoder, zip(episode.support_x, episode.support_y)
    )

    def refuse(self):
        raise AssertionError("a ClassCounts was built")

    monkeypatch.setattr(crp.ClassCounts, "__post_init__", refuse)
    records, final = run_episode(state, zip(episode.query_x, meta.oracle_labels(episode)))
    assert len(records) == len(episode.query_x)
    x = episode.query_x[0]
    predict(final, x)
    for y in (1, final.n_classes + 1):
        update(final, x, y)
    assert np.isfinite(meta.meta_grads(template, episode, 0.1, "sc", sequential=True).value)
    w, b = template.encoder.params
    loss, _, _ = losses.loo_support_grads(
        episode.support_x, episode.support_y, w, b, template.q0, 1.0, params=params, noise_var=0.5
    )
    assert np.isfinite(loss)


@pytest.mark.parametrize("y", [1, 3, 4])
def test_condition_returns_the_next_table_and_leaves_its_input(y):
    """ClassTable is a value: condition() returns the next table, every
    array of it read-only, and never writes to its input. A known-known
    label (y = 1 <= n_kk) moves only a count and shares the row arrays with
    its parent, which is all model.update pays for one; label 3 conditions
    a copy of row 3, and label 4 opens class 4 from the prior's row, which
    stays last."""
    rng = np.random.default_rng(17)
    d, noise = 3, 0.5
    q0 = rng.normal(size=d)
    table = losses.ClassTable(rng.normal(size=(3, d)), rng.uniform(0.5, 2.0, 3), [1, 4, 2], q0, 0.7, noise, n_kk=2)
    names = ("Q", "lam", "means", "variances", "counts")
    before = {name: getattr(table, name).copy() for name in names}
    z = rng.normal(size=d)

    after = table.condition(z, y)
    for name in names:
        np.testing.assert_array_equal(getattr(table, name), before[name])
        assert not getattr(table, name).flags.writeable
        assert not getattr(after, name).flags.writeable
    assert after.counts is not table.counts
    assert [getattr(after, name) is getattr(table, name) for name in names[:4]] == [y == 1] * 4
    want_counts = {1: [2, 4, 2], 3: [1, 4, 3], 4: [1, 4, 2, losses.ClassTable.NEW_CLASS_COUNT]}[y]
    np.testing.assert_array_equal(after.counts, want_counts)
    assert (after.n, after.n_kk, after.noise_var) == (len(want_counts), 2, noise)
    np.testing.assert_array_equal(after.Q[-1], q0)
    if y > 1:
        start = before["Q"][y - 1] if y <= 3 else q0
        np.testing.assert_array_equal(after.Q[y - 1], start + z * (1.0 / noise))
        np.testing.assert_array_equal(after.means[y - 1], after.Q[y - 1] / after.lam[y - 1])
        np.testing.assert_array_equal(after.Q[: y - 1], before["Q"][: y - 1])


def _affine_sc_cases(n, seed=41):
    """n small-context (params, episode) pairs with affine 16 -> 8 encoders."""
    rng = np.random.default_rng(seed)
    ds = generate_synthetic_world(12, 16, 4.0, 0.5, 24, seed=seed)
    cfg = EpisodeConfig(n_support_classes=4, n_novel_classes=2, shots_min=1, shots_max=5, queries_per_class=3)
    return [
        (meta.init_meta_params(8, rng, encoder=_affine(rng, 8, 16)), meta.sample_sc_task(ds, cfg, rng))
        for _ in range(n)
    ]


def _spy(name, calls):
    """Patch losses.<name> to record each call's positional arguments and result in calls."""
    real = getattr(losses, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    return mock.patch.object(losses, name, spy)


@pytest.mark.parametrize("sequential", [False, True])
def test_training_scores_the_table_and_inputs_evaluation_reads(sequential):
    """The frozen and teacher-forced losses score the support table
    init_small_context builds, bit for bit, and encode the queries and the
    adaptation pool as model._encode does (training used to sum the support
    as q0 + S / s_eps and encode with a 2-D GEMM, both off in the last bits)."""
    for params, episode in _affine_sc_cases(10):
        calls, adapt = [], []
        with _spy("_sequential_nll" if sequential else "_table_nll", calls), _spy("_adaptation_term", adapt):
            meta.meta_grads(params, episode, 0.1, "sc", sequential=sequential, noise_variance=0.3)
        (table, Z_q, *_), _ = calls[0]
        parts = (params.prior(), CrpParams(a=0.5, rho=params.rho), NoiseModel(0.3), params.encoder)
        want = init_small_context(*parts, zip(episode.support_x, episode.support_y))._table
        for name in ("Q", "lam", "means", "variances", "counts"):
            np.testing.assert_array_equal(getattr(table, name), getattr(want, name), err_msg=name)
        np.testing.assert_array_equal(Z_q, _encode(params.encoder, 8, episode.query_x))
        np.testing.assert_array_equal(adapt[0][0][3], _encode(params.encoder, 8, episode.adapt_x))


def test_pretraining_encodes_as_the_model_reads():
    """pretrain_grads scores the inputs model._encode gives, bit for bit."""
    rng = np.random.default_rng(43)
    W, b, H = rng.normal(size=(8, 16)), rng.normal(size=8), rng.normal(size=(64, 16))
    calls = []
    with _spy("_mixture_nll_grads", calls):
        losses.pretrain_grads(W, b, H, np.arange(64) % 5 + 1, rng.normal(size=(5, 8)), np.zeros(5), 0.1)
    np.testing.assert_array_equal(calls[0][0][0], _encode(Encoder.affine(W, b), 8, H))


def test_sequential_nll_per_query_is_evaluations_minus_log_post():
    """Each query's teacher-forced NLL is -log_post of the true label in the
    losses.chunks pass run_episodes scores the same stream with, from the
    state init_small_context builds, bit for bit."""
    for params, episode in _affine_sc_cases(10, seed=47):
        steps, nlls, real_chunks = [], [], losses.chunks

        def chunks(prefix, every_row=False):
            for c in real_chunks(prefix, every_row):
                steps.append(c.steps)
                yield c

        with mock.patch.object(losses, "chunks", chunks), _spy("_mixture_nll_grads", nlls):
            meta.meta_grads(params, episode, 0.0, "sc", sequential=True, noise_variance=0.3)
        got = np.empty(len(episode.query_x))
        for s, (_, out) in zip(steps, nlls):
            got[s] = out[0]

        crp_params = CrpParams(a=0.5, rho=params.rho)
        parts = (params.prior(), crp_params, NoiseModel(0.3), params.encoder)
        state = init_small_context(*parts, zip(episode.support_x, episode.support_y))
        Z = _encode(params.encoder, 8, episode.query_x)
        labels = meta.oracle_labels(episode)
        want = np.empty(len(labels))
        for c in real_chunks(losses.Prefix(state._table, Z, labels, crp_params)):
            want[c.steps] = -c.log_post[np.arange(len(c.steps)), labels[c.steps] - 1]
        np.testing.assert_array_equal(got, want)


def test_leave_one_out_tables_are_init_small_context_tables():
    """Each held-out table loo_support_grads scores is init_small_context's
    over the support without that point, row for row and bit for bit (a
    class that leaves with its point drops its row), and the held-out point
    is encoded as model._encode encodes it."""
    rng = np.random.default_rng(53)
    crp_params, noise = CrpParams(a=0.5, rho=1.0), NoiseModel(0.3)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=int(rng.integers(0, 9)))])
        X = rng.normal(size=(len(labels), 16))
        encoder, prior = _affine(rng, 8, 16), SharedPrior(NaturalClassStats(q=rng.normal(size=8), lam=1.3))
        calls = []
        with _spy("_table_nll", calls):
            losses.loo_support_grads(
                X, labels, *encoder.params, prior.prior.q, 1.3, params=crp_params, noise_var=0.3
            )
        assert len(calls) == len(labels)
        for i, ((table, z, *_), _) in enumerate(calls):
            np.testing.assert_array_equal(z, _encode(encoder, 8, X[i : i + 1]))
            rest = np.arange(len(labels)) != i
            if not rest.any():
                assert table.n == 0
                continue
            # the reduced support in arrival order; the held-out table keeps its classes sorted
            _, first, inverse = np.unique(labels[rest], return_index=True, return_inverse=True)
            rank = np.argsort(np.argsort(first))
            state = init_small_context(prior, crp_params, noise, encoder, zip(X[rest], rank[inverse] + 1))
            rows = np.append(rank, len(rank))
            for name in ("Q", "lam", "means", "variances"):
                np.testing.assert_array_equal(getattr(table, name), getattr(state._table, name)[rows], err_msg=name)
            np.testing.assert_array_equal(table.counts, state._table.counts[rank])


@pytest.mark.parametrize("support_y", [[1, 1], [2, 2], [1, 3]])
def test_training_refuses_a_known_class_without_support(support_y):
    """An episode whose support gives a known class no point is refused
    with one line: folded, an empty last class would drop out of the table
    and its queries score against the novel slot."""
    rng = np.random.default_rng(59)
    X = rng.normal(size=(2, 3))
    episode = meta.Episode(
        support_x=X, support_y=np.array(support_y), query_x=X, query_y=np.array([1, 2]),
        adapt_x=np.zeros((0, 3)), adapt_y=np.zeros(0, dtype=np.int64), n_known=2,
        support_rows=np.arange(2), query_rows=np.arange(2), query_class=np.array([1, 2]),
        known_classes=np.array([1, 2]), novel_classes=np.zeros(0, dtype=np.int64),
    )
    with pytest.raises(ValueError, match=r"^episode support must give each of its known classes 1\.\.2 a point$"):
        meta.meta_grads(meta.init_meta_params(3, rng), episode, 0.1, "sc")
