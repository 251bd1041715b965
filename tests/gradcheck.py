"""Finite-difference harness shared by the loss tests and the acceptance gate.

Each check_* function draws one random configuration, compares the analytic
gradients against central differences, and returns the worst relative error.
Configurations are rejection-sampled away from the genuine kinks (hinge at
zero, similarity clamp boundaries) because a subgradient cannot match a
two-sided difference there; the safety band of 1e-2 dwarfs the 1e-6 probe.

Each check takes the loss's one `grad` over the rows it was given, the
stacked views [a; b] for the phase-2 losses. The InfoNCE check differences
its own reference value, which keeps its precision at a saturated softmax.
The siamese and phase-2 checks hold their own frozen copy of the
stop-gradient soft-label targets. The triplet loss mines its own rows, so
its batches are also drawn clear of near-ties between candidates, which
keeps the mining fixed under the probe.
"""

import numpy as np

from mcl.losses import (
    infonce_batch,
    phase2_total,
    siamese_consistency_batch,
    soft_weighted_triplet_batch,
)
from mcl.protobank import PrototypeBank

from .conftest import unit_rows
from .oracles import central_difference, relative_error

_SAFE = 1e-2


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _saturation_safe_infonce(w, labels, tau):
    """The mean InfoNCE value as a function of v, summed to keep its relative
    precision at a saturated softmax: the gap to the top logit, exactly 0 for
    a top label, plus log1p of the other terms. There the gradient can fall
    to 1e-7, and a value rounded as 1 + tiny would drown its 1e-6 difference."""
    def value(x):
        z = x @ w.T / tau
        rows = np.arange(z.shape[0])
        top = z.argmax(axis=1)
        e = np.exp(z - z[rows, top][:, None])
        e[rows, top] = 0.0
        gap = z[rows, top] - z[rows, labels]
        return float((gap + np.log1p(e.sum(axis=1))).mean())
    return value


def check_infonce(rng):
    k = int(rng.integers(2, 9))
    d = int(rng.integers(3, 9))
    bank = PrototypeBank(unit_rows(rng, k, d))
    tau = float(rng.uniform(0.03, 0.5))
    if rng.random() < 0.5:
        # one row, drawn as a single query vector and its positive
        v = rng.standard_normal(d)[None]
        labels = np.array([int(rng.integers(0, k))])
    else:
        n = int(rng.integers(1, 7))
        v = rng.standard_normal((n, d))
        labels = rng.integers(0, k, size=n)
    got = infonce_batch(v, bank, labels, tau)
    value = _saturation_safe_infonce(bank.weights, labels, tau)
    assert abs(value(v) - got.value) < 1e-10
    return relative_error(got.grad, central_difference(value, v.copy()))


def _frozen_consistency(v, w):
    """The swapped-prediction value over stacked views v, as a function of
    v with the targets frozen at v."""
    n = v.shape[0] // 2
    y = _softmax(v @ w.T)

    def value(x):
        p = np.log(_softmax(x @ w.T))
        ce = -(y[n:] * p[:n]).sum(axis=1) - (y[:n] * p[n:]).sum(axis=1)
        return float(ce.mean())
    return value


def check_siamese(rng):
    k = int(rng.integers(2, 8))
    d = int(rng.integers(3, 8))
    n = int(rng.integers(1, 6))
    bank = PrototypeBank(unit_rows(rng, k, d))
    v = rng.standard_normal((2 * n, d))  # [view a; view b]
    got = siamese_consistency_batch(v, bank)
    value = _frozen_consistency(v, bank.weights)
    assert abs(value(v) - got.value) < 1e-10
    return relative_error(got.grad, central_difference(value, v.copy()))


def _clear_of_kinks(v, ids, margin, clamp):
    """Whether every anchor of the unit rows v sits clear of the kinks of
    batch-hard mining: its hinge at zero, the clamp ends of its similarities
    to the mined rows, and a near-tie between two candidates for either."""
    d = ((v[:, None] - v[None]) ** 2).sum(axis=2)
    for a in range(v.shape[0]):
        pos = np.sort(d[a, (ids == ids[a]) & (np.arange(ids.size) != a)])[::-1]
        neg = np.sort(d[a, ids != ids[a]])
        gaps = np.concatenate([pos[:1] - pos[1:2], neg[1:2] - neg[:1]])
        sims = 1.0 - np.array([pos[0], neg[0]]) / 2.0  # unit rows
        if abs(pos[0] - neg[0] + margin) <= _SAFE or (gaps <= _SAFE).any():
            return False
        if clamp and (np.abs(sims).min() <= _SAFE
                      or np.abs(sims - 1).min() <= _SAFE):
            return False
    return True


def check_triplet(rng, soft_weight=True):
    k = int(rng.integers(2, 5))
    ids = np.repeat(np.arange(k), rng.integers(2, 4, size=k))
    d = int(rng.integers(3, 8))
    margin = float(rng.uniform(0.1, 0.6))
    while True:
        v = unit_rows(rng, ids.size, d)
        if _clear_of_kinks(v, ids, margin, soft_weight):
            break
    got = soft_weighted_triplet_batch(v, ids, margin, soft_weight=soft_weight)
    fd = central_difference(lambda x: soft_weighted_triplet_batch(
        x, ids, margin, soft_weight=soft_weight).value, v.copy())
    return relative_error(got.grad, fd)


def check_phase2(rng):
    """Consistency + lambda * mined triplet on a two-view batch, as the
    trainer combines them."""
    k = int(rng.integers(2, 7))
    d = int(rng.integers(3, 8))
    b = int(rng.integers(2, 5))
    margin = float(rng.uniform(0.1, 0.6))
    lam = float(rng.uniform(0.3, 2.0))
    bank = PrototypeBank(unit_rows(rng, k, d))
    ids = np.concatenate([np.arange(b), np.arange(b)])  # two views per id
    while True:
        v2 = unit_rows(rng, 2 * b, d)
        if _clear_of_kinks(v2, ids, margin, clamp=True):
            break
    got = phase2_total(siamese_consistency_batch(v2, bank),
                       soft_weighted_triplet_batch(v2, ids, margin), lam)
    consistency = _frozen_consistency(v2, bank.weights)

    def frozen_value(x):
        return consistency(x) + lam * soft_weighted_triplet_batch(
            x, ids, margin).value

    assert abs(frozen_value(v2) - got.value) < 1e-10
    return relative_error(got.grad, central_difference(frozen_value, v2.copy()))
