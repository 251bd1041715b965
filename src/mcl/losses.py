"""Training losses with hand-derived gradients w.r.t. the input embeddings.

Phase 1 uses temperature-scaled InfoNCE against the prototype bank. Phase 2
combines a swapped-prediction consistency term (targets are stop-gradient
constants) with a soft-weighted triplet hinge. Every op takes a batch of
embedding rows, reduces by the mean over rows, and returns a LossValue
carrying the scalar and a dict of per-row embedding gradients of that mean.

Every gradient here is finite-difference checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protobank import PrototypeBank


@dataclass
class LossValue:
    value: float
    grads: dict[str, np.ndarray]

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise FloatingPointError(f"non-finite loss value {self.value}")


def infonce_batch(v: np.ndarray, bank: PrototypeBank, labels: np.ndarray,
                  tau: float) -> LossValue:
    """Mean over rows of -log softmax_tau(v . w)[label]; grads['v'] is
    d(mean)/dV, with no gradient into the bank."""
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
    value = (m + np.log(s) - z[np.arange(n), labels]).mean()
    p = e / s[:, None]
    p[np.arange(n), labels] -= 1.0
    grad_v = p @ w / (tau * n)
    return LossValue(float(value), {"v": grad_v})


def _cross_entropy(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    return -(y * np.log(np.maximum(p, 1e-300))).sum(axis=-1)


def siamese_consistency_batch(f_s: np.ndarray, f_t: np.ndarray,
                              bank: PrototypeBank) -> LossValue:
    """Swapped-prediction cross entropy, mean over rows.

    Each view predicts the other view's soft label; the targets are the
    soft labels themselves, held constant (no gradient flows through them
    or through the bank).
    """
    f_s = np.atleast_2d(np.asarray(f_s, dtype=np.float64))
    f_t = np.atleast_2d(np.asarray(f_t, dtype=np.float64))
    if f_s.shape != f_t.shape:
        raise ValueError("view batches must have identical shape")
    n = f_s.shape[0]
    w = bank.weights
    p_s = bank.soft_label_batch(f_s)
    p_t = bank.soft_label_batch(f_t)
    # each view's soft label is the other's target, read but never changed
    value = (_cross_entropy(p_s, p_t) + _cross_entropy(p_t, p_s)).mean()
    # d CE(softmax(W f), y)/d f = W^T (p - y) for constant y, and
    # p_t - p_s is exactly -(p_s - p_t)
    grad_s = (p_s - p_t) @ w / n
    grad_t = -grad_s
    return LossValue(float(value), {"f_s": grad_s, "f_t": grad_t})


def soft_weighted_triplet_batch(f_a: np.ndarray, f_p: np.ndarray,
                                f_n: np.ndarray, margin: float,
                                soft_weight: bool = True,
                                clamp_weight: bool = True) -> LossValue:
    """omega * [|a-p|^2 - |a-n|^2 + margin]_+, mean over rows.

    omega = clamp(<a,p>, 0, 1) * clamp(<a,n>, 0, 1); gradients flow through
    both the hinge and omega (clamp has zero slope outside (0, 1)).
    soft_weight=False gives the plain hinge (omega = 1); clamp_weight=False
    keeps the raw, possibly negative, product of similarities.
    """
    f_a = np.atleast_2d(np.asarray(f_a, dtype=np.float64))
    f_p = np.atleast_2d(np.asarray(f_p, dtype=np.float64))
    f_n = np.atleast_2d(np.asarray(f_n, dtype=np.float64))
    n = f_a.shape[0]
    ap = f_a - f_p
    an = f_a - f_n
    hinge = (ap * ap).sum(axis=1) - (an * an).sum(axis=1) + margin
    active = hinge > 0
    if soft_weight:
        sp = (f_a * f_p).sum(axis=1)
        sn = (f_a * f_n).sum(axis=1)
        if clamp_weight:
            cp, cn = np.clip(sp, 0.0, 1.0), np.clip(sn, 0.0, 1.0)
            dcp = ((sp > 0) & (sp < 1)).astype(np.float64)
            dcn = ((sn > 0) & (sn < 1)).astype(np.float64)
        else:
            cp, cn = sp, sn
            dcp = dcn = np.ones(n)
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
        gp += h * (dcp * cn)[:, None] * f_a
        gn += h * (cp * dcn)[:, None] * f_a
    return LossValue(float(value), {"f_a": ga, "f_p": gp, "f_n": gn})


def phase2_total(l_sc: LossValue, l_tri: LossValue,
                 lambda_tri: float) -> LossValue:
    """consistency + lambda * triplet over the same rows of embeddings.

    Both terms carry one gradient, grads['v'], and it combines linearly.
    """
    return LossValue(l_sc.value + lambda_tri * l_tri.value,
                     {"v": l_sc.grads["v"] + lambda_tri * l_tri.grads["v"]})
