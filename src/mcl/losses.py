"""Training losses with hand-derived gradients w.r.t. the input embeddings.

Phase 1 uses temperature-scaled InfoNCE against the prototype bank. Phase 2
combines a swapped-prediction consistency term (targets are stop-gradient
constants) with a batch-hard soft-weighted triplet hinge, both over the
stacked views [a; b]. Every op reduces by the mean and returns a LossValue:
the scalar and one `grad`, its derivative w.r.t. the rows it was given.

Every gradient here is finite-difference checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protobank import PrototypeBank


@dataclass
class LossValue:
    value: float
    grad: np.ndarray  # d(value)/d(rows given), shaped like them

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise FloatingPointError(f"non-finite loss value {self.value}")


def infonce_batch(v: np.ndarray, bank: PrototypeBank, labels: np.ndarray,
                  tau: float) -> LossValue:
    """Mean over rows of -log softmax_tau(v . w)[label]; grad is d(mean)/dV,
    with no gradient into the bank."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    v = np.asarray(v, dtype=np.float64)
    labels = np.asarray(labels)
    n = v.shape[0]
    if labels.min() < 0 or labels.max() >= bank.num_classes:
        raise ValueError("positive labels out of range")
    w = bank.weights
    z = v @ w.T / tau
    m = z.max(axis=1)
    e = np.exp(z - m[:, None])  # one pass feeds both log-sum-exp and softmax
    s = e.sum(axis=1)
    rows = np.arange(n)
    value = (m + np.log(s) - z[rows, labels]).mean()
    p = e / s[:, None]
    # the label column's p - 1 is minus the other columns' share: summed
    # directly, it keeps its precision where the softmax saturates
    e[rows, labels] = 0.0
    p[rows, labels] = -e.sum(axis=1) / s
    return LossValue(float(value), p @ w / (tau * n))


def _cross_entropy(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    return -(y * np.log(np.maximum(p, 1e-300))).sum(axis=-1)


def siamese_consistency_batch(v: np.ndarray, bank: PrototypeBank) -> LossValue:
    """Swapped-prediction cross entropy, mean over the n samples of the
    stacked views v = [a; b], whose rows i and n + i view sample i (an odd
    row count is refused). Each view predicts the other view's soft label,
    held constant: no gradient flows through the targets or the bank.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    if v.shape[0] % 2:
        raise ValueError(f"stacked views need an even row count, got {v.shape[0]}")
    f_s, f_t = np.split(v, 2)
    n = f_s.shape[0]
    w = bank.weights
    p_s = bank.soft_label_batch(f_s)
    p_t = bank.soft_label_batch(f_t)
    # each view's soft label is the other's target, read but never changed
    value = (_cross_entropy(p_s, p_t) + _cross_entropy(p_t, p_s)).mean()
    # d CE(softmax(W f), y)/d f = W^T (p - y) for constant y, and
    # p_t - p_s is exactly -(p_s - p_t)
    grad_s = (p_s - p_t) @ w / n
    return LossValue(float(value), np.concatenate([grad_s, -grad_s]))


def soft_weighted_triplet_batch(v: np.ndarray, ids: np.ndarray, margin: float,
                                soft_weight: bool = True) -> LossValue:
    """omega * [|a-p|^2 - |a-n|^2 + margin]_+, mean over the anchors a = v.

    p is the row of a's identity farthest from a, n the row of another
    identity nearest to it (batch-hard over unit rows); their gradients are
    scattered back onto those rows. omega = clamp(<a,p>, 0, 1) *
    clamp(<a,n>, 0, 1), and gradients flow through both the hinge and omega;
    soft_weight=False gives the plain hinge (omega = 1). ids, one per row,
    must hold >= 2 identities of >= 2 rows each.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    ids = np.asarray(ids)
    n = v.shape[0]
    if ids.shape != (n,):
        raise ValueError(f"need one identity per row: {ids.shape} for {n} rows")
    counts = np.unique(ids, return_counts=True)[1]
    if counts.size < 2 or counts.min() < 2:
        raise ValueError(f"mining needs >= 2 identities of >= 2 rows: {counts}")
    d = np.maximum(2.0 - 2.0 * (v @ v.T), 0.0)
    same = ids[:, None] == ids[None, :]
    np.fill_diagonal(same, False)
    hp = np.argmax(np.where(same, d, -np.inf), axis=1)
    hn = np.argmin(np.where(ids[:, None] != ids[None, :], d, np.inf), axis=1)
    f_p, f_n = v[hp], v[hn]
    ap = v - f_p
    an = v - f_n
    hinge = (ap * ap).sum(axis=1) - (an * an).sum(axis=1) + margin
    active = hinge > 0
    if soft_weight:
        sp = (v * f_p).sum(axis=1)
        sn = (v * f_n).sum(axis=1)
        cp, cn = np.clip(sp, 0.0, 1.0), np.clip(sn, 0.0, 1.0)
        dcp = ((sp > 0) & (sp < 1)).astype(np.float64)
        dcn = ((sn > 0) & (sn < 1)).astype(np.float64)
        omega = cp * cn
    else:
        omega = np.ones(n)
    value = (omega * np.where(active, hinge, 0.0)).mean()
    g = (active.astype(np.float64) / n)[:, None]
    ga = g * (2.0 * omega[:, None] * (f_n - f_p))
    gp = g * (-2.0 * omega[:, None] * ap)
    gn = g * (2.0 * omega[:, None] * an)
    if soft_weight:
        h = (g * hinge[:, None])
        ga += h * ((dcp * cn)[:, None] * f_p + (cp * dcn)[:, None] * f_n)
        gp += h * (dcp * cn)[:, None] * v
        gn += h * (cp * dcn)[:, None] * v
    np.add.at(ga, hp, gp)  # each mined row also gets its roles' gradients
    np.add.at(ga, hn, gn)
    return LossValue(float(value), ga)


def phase2_total(l_sc: LossValue, l_tri: LossValue,
                 lambda_tri: float) -> LossValue:
    """consistency + lambda * triplet over the same rows of embeddings."""
    return LossValue(l_sc.value + lambda_tri * l_tri.value,
                     l_sc.grad + lambda_tri * l_tri.grad)
