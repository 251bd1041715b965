"""Finite-difference harness shared by the loss tests and the acceptance gate.

Each check_* function draws one random configuration, compares the analytic
gradients against central differences, and returns the worst relative error.
Configurations are rejection-sampled away from the genuine kinks (hinge at
zero, similarity clamp boundaries) because a subgradient cannot match a
two-sided difference there; the safety band of 1e-2 dwarfs the 1e-6 probe.

The siamese check and the combined phase-2 check hold their own frozen
copies of the stop-gradient pieces (soft-label targets, mined triplet
indices), mirroring how the trainer uses them within a step.
"""

import numpy as np

from mcl.losses import (
    LossValue,
    infonce_batch,
    phase2_total,
    siamese_consistency_batch,
    soft_weighted_triplet_batch,
)
from mcl.protobank import PrototypeBank

from .oracles import central_difference, relative_error

_SAFE = 1e-2


def _unit(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def check_infonce(rng):
    k = int(rng.integers(2, 9))
    d = int(rng.integers(3, 9))
    bank = PrototypeBank(_unit(rng, k, d))
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
    fd = central_difference(lambda x: infonce_batch(x, bank, labels, tau).value,
                            v.copy())
    return relative_error(got.grads["v"], fd)


def check_siamese(rng):
    k = int(rng.integers(2, 8))
    d = int(rng.integers(3, 8))
    n = int(rng.integers(1, 6))
    bank = PrototypeBank(_unit(rng, k, d))
    w = bank.weights
    f_s = rng.standard_normal((n, d))
    f_t = rng.standard_normal((n, d))
    got = siamese_consistency_batch(f_s, f_t, bank)

    y_s = _softmax(f_s @ w.T)  # targets frozen at the base point
    y_t = _softmax(f_t @ w.T)

    def value(fs, ft):
        p_s = _softmax(fs @ w.T)
        p_t = _softmax(ft @ w.T)
        ce = -(y_t * np.log(p_s)).sum(axis=1) - (y_s * np.log(p_t)).sum(axis=1)
        return float(ce.mean())

    assert abs(value(f_s, f_t) - got.value) < 1e-10
    fd_s = central_difference(lambda m: value(m, f_t), f_s.copy())
    fd_t = central_difference(lambda m: value(f_s, m), f_t.copy())
    return max(relative_error(got.grads["f_s"], fd_s),
               relative_error(got.grads["f_t"], fd_t))


def _safe_triplet_batch(rng, n, d, margin, clamp):
    """Rows whose hinge and similarity values sit clear of the kinks."""
    while True:
        f_a, f_p, f_n = (_unit(rng, n, d) for _ in range(3))
        ap = ((f_a - f_p) ** 2).sum(axis=1)
        an = ((f_a - f_n) ** 2).sum(axis=1)
        hinge = ap - an + margin
        sims = np.concatenate([(f_a * f_p).sum(axis=1), (f_a * f_n).sum(axis=1)])
        ok = np.abs(hinge).min() > _SAFE
        if clamp:
            ok = ok and np.abs(sims).min() > _SAFE and np.abs(sims - 1).min() > _SAFE
        if ok:
            return f_a, f_p, f_n


def check_triplet(rng, soft_weight=True, clamp_weight=True):
    n = int(rng.integers(1, 6))
    d = int(rng.integers(3, 8))
    margin = float(rng.uniform(0.1, 0.6))
    f_a, f_p, f_n = _safe_triplet_batch(rng, n, d, margin,
                                        soft_weight and clamp_weight)
    got = soft_weighted_triplet_batch(f_a, f_p, f_n, margin,
                                      soft_weight=soft_weight,
                                      clamp_weight=clamp_weight)

    def value(a, p, n_):
        return soft_weighted_triplet_batch(
            a, p, n_, margin, soft_weight=soft_weight,
            clamp_weight=clamp_weight).value

    errs = [
        relative_error(got.grads["f_a"],
                       central_difference(lambda m: value(m, f_p, f_n), f_a.copy())),
        relative_error(got.grads["f_p"],
                       central_difference(lambda m: value(f_a, m, f_n), f_p.copy())),
        relative_error(got.grads["f_n"],
                       central_difference(lambda m: value(f_a, f_p, m), f_n.copy())),
    ]
    return max(errs)


def _mine_hard(v2, ids):
    d = np.maximum(2.0 - 2.0 * (v2 @ v2.T), 0.0)
    same = ids[:, None] == ids[None, :]
    np.fill_diagonal(same, False)
    diff = ids[:, None] != ids[None, :]
    hp = np.argmax(np.where(same, d, -np.inf), axis=1)
    hn = np.argmin(np.where(diff, d, np.inf), axis=1)
    return hp, hn


def check_phase2(rng):
    """Combined consistency + mined triplet objective on a two-view batch."""
    k = int(rng.integers(2, 7))
    d = int(rng.integers(3, 8))
    b = int(rng.integers(2, 5))
    margin = float(rng.uniform(0.1, 0.6))
    lam = float(rng.uniform(0.3, 2.0))
    bank = PrototypeBank(_unit(rng, k, d))
    w = bank.weights
    ids = np.concatenate([np.arange(b), np.arange(b)])  # two views per id

    while True:
        v2 = _unit(rng, 2 * b, d)
        hp, hn = _mine_hard(v2, ids)
        hinge = (((v2 - v2[hp]) ** 2).sum(axis=1)
                 - ((v2 - v2[hn]) ** 2).sum(axis=1) + margin)
        sims = np.concatenate([(v2 * v2[hp]).sum(axis=1),
                               (v2 * v2[hn]).sum(axis=1)])
        if (np.abs(hinge).min() > _SAFE and np.abs(sims).min() > _SAFE
                and np.abs(sims - 1).min() > _SAFE):
            break

    def combined(v2_in, return_grads=False):
        va, vb = v2_in[:b], v2_in[b:]
        sc = siamese_consistency_batch(va, vb, bank)
        tri = soft_weighted_triplet_batch(v2_in, v2_in[hp], v2_in[hn], margin)
        g_sc = np.concatenate([sc.grads["f_s"], sc.grads["f_t"]], axis=0)
        g_tri = tri.grads["f_a"].copy()
        np.add.at(g_tri, hp, tri.grads["f_p"])
        np.add.at(g_tri, hn, tri.grads["f_n"])
        total = phase2_total(LossValue(sc.value, {"v": g_sc}),
                             LossValue(tri.value, {"v": g_tri}), lam)
        return total if return_grads else total.value

    got = combined(v2, return_grads=True)

    y_a = _softmax(v2[:b] @ w.T)  # frozen consistency targets
    y_b = _softmax(v2[b:] @ w.T)

    def frozen_value(v2_in):
        p_a = _softmax(v2_in[:b] @ w.T)
        p_b = _softmax(v2_in[b:] @ w.T)
        sc = (-(y_b * np.log(p_a)).sum(axis=1)
              - (y_a * np.log(p_b)).sum(axis=1)).mean()
        tri = soft_weighted_triplet_batch(v2_in, v2_in[hp], v2_in[hn], margin)
        return float(sc + lam * tri.value)

    assert abs(frozen_value(v2) - got.value) < 1e-10
    fd = central_difference(frozen_value, v2.copy())
    return relative_error(got.grads["v"], fd)
