"""Trainable encoder, feature-space augmentation, and the Adam optimizer.

The encoder is a small MLP: h = tanh(W1 x + b1), u = W2 h + b2, v = u/|u|,
with every width >= 1. Outputs are always unit-norm. Forward passes cache
what the hand-derived backward pass needs; gradients are exact and
finite-difference checked in the test suite.

MCLP checkpoint layout (all little-endian); the header fixes every shape:

    4 bytes   magic ``MCLP``
    u16       version (currently 2)
    u32       d_raw (input width, >= 1)
    u32       d_h (hidden width, >= 1)
    u32       d_emb (embedding width, >= 1)
    float64   W1 (d_h x d_raw), then b1 (d_h)
    float64   W2 (d_emb x d_h), then b2 (d_emb)
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import DimensionMismatchError, FeatureFileError, read_layout

NORM_FLOOR = 1e-12

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8

CHECKPOINT_MAGIC = b"MCLP"
CHECKPOINT_VERSION = 2

_CHECKPOINT_HEADER = struct.Struct("<4sHIII")


class DegenerateEmbeddingError(ValueError):
    """An embedding or prototype row's norm fell below NORM_FLOOR."""


@dataclass
class EncoderParams:
    """Weights of the encoder."""

    W1: np.ndarray  # (d_h, d_raw)
    b1: np.ndarray  # (d_h,)
    W2: np.ndarray  # (d_emb, d_h)
    b2: np.ndarray  # (d_emb,)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [("W1", self.W1), ("b1", self.b1), ("W2", self.W2), ("b2", self.b2)]

    @classmethod
    def random_init(cls, d_raw: int, d_h: int, d_emb: int,
                    rng: np.random.Generator) -> "EncoderParams":
        """Fan-in scaled Gaussian init; near-linear tanh regime for unit-scale input."""
        if min(d_raw, d_h, d_emb) < 1:
            raise ValueError(f"encoder widths must be >= 1, got d_raw {d_raw}, "
                             f"d_h {d_h}, d_emb {d_emb}")
        w1 = rng.standard_normal((d_h, d_raw)) / np.sqrt(d_raw)
        w2 = rng.standard_normal((d_emb, d_h)) / np.sqrt(d_h)
        return cls(W1=w1, b1=np.zeros(d_h), W2=w2, b2=np.zeros(d_emb))


@dataclass
class EncodeCache:
    x: np.ndarray  # (B, d_raw) float64
    h: np.ndarray  # (B, d_h) post-tanh
    v: np.ndarray  # (B, d_emb) unit rows
    norms: np.ndarray  # (B,) pre-normalization norms


def normalize_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of u scaled to unit norm, and their norms; refuses a norm that
    is not finite or is below NORM_FLOOR."""
    norms = np.linalg.norm(u, axis=1)
    # a finite norm >= the floor makes every row of v finite and unit-norm
    if not np.isfinite(norms).all():
        raise FloatingPointError("non-finite row")
    if norms.min(initial=np.inf) < NORM_FLOOR:
        raise DegenerateEmbeddingError("row norm below 1e-12")
    return u / norms[:, None], norms


def encode_forward(params: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, EncodeCache]:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not np.isfinite(x).all():
        raise ValueError("non-finite encoder input")
    h = np.tanh(x @ params.W1.T + params.b1)
    v, norms = normalize_rows(h @ params.W2.T + params.b2)
    return v, EncodeCache(x=x, h=h, v=v, norms=norms)


def encode_backward(params: EncoderParams, cache: EncodeCache,
                    grad_v: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients for a batch, given dL/dv. Sum over the batch."""
    grad_v = np.atleast_2d(np.asarray(grad_v, dtype=np.float64))
    v, norms = cache.v, cache.norms
    # v = u/|u|  =>  du = (g - (g.v) v)/|u|
    gu = (grad_v - (grad_v * v).sum(axis=1, keepdims=True) * v) / norms[:, None]
    grads = {"W2": gu.T @ cache.h, "b2": gu.sum(axis=0)}
    ga = (gu @ params.W2) * (1.0 - cache.h * cache.h)
    grads["W1"] = ga.T @ cache.x
    grads["b1"] = ga.sum(axis=0)
    return grads


def encode_batch(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    v, _ = encode_forward(params, x)
    return v


def augment_batch(x: np.ndarray, rng: np.random.Generator, sigma_aug: float,
                  drop_p: float) -> np.ndarray:
    """Gaussian noise then coordinate dropout with survivor rescaling."""
    if sigma_aug < 0:
        raise ValueError(f"sigma_aug must be >= 0, got {sigma_aug}")
    if not 0.0 <= drop_p < 1.0:
        raise ValueError(f"drop_p must be in [0, 1), got {drop_p}")
    out = np.asarray(x, dtype=np.float64)
    if sigma_aug > 0:
        out = out + rng.standard_normal(out.shape) * sigma_aug
    if drop_p > 0:
        keep = rng.random(out.shape) >= drop_p
        out = np.where(keep, out / (1.0 - drop_p), 0.0)
    return out


@dataclass
class OptimizerState:
    """Adam moments, step size and decay; lr is mutated by the epoch schedule."""

    lr: float
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: EncoderParams, lr: float,
                   weight_decay: float = 0.0) -> "OptimizerState":
        state = cls(lr=lr, weight_decay=weight_decay)
        for name, p in params.tensors():
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        return state


def adam_step(params: EncoderParams, grads: dict[str, np.ndarray],
              state: OptimizerState) -> None:
    """One in-place Adam update with bias correction and decoupled weight decay."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.tensors():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
        if state.weight_decay:
            p -= state.lr * state.weight_decay * p


def lr_at_epoch(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Step schedule: x0.1 at 1/3 and 2/3 of the run (10 and 20 of 30 epochs)."""
    boundaries = (total_epochs // 3, 2 * total_epochs // 3)
    factor = 1.0
    for b in boundaries:
        if b > 0 and epoch >= b:
            factor *= 0.1
    return base_lr * factor


def _shapes(d_raw: int, d_h: int, d_emb: int) -> list[tuple[int, ...]]:
    """The tensor shapes an MCLP header fixes, in payload order."""
    return [(d_h, d_raw), (d_h,), (d_emb, d_h), (d_emb,)]


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write params as an MCLP file (bit-exact round trip with load_checkpoint)."""
    tensors = [t for _, t in params.tensors()]
    if any(t is None for t in tensors):
        raise ValueError("an encoder needs all of W1, b1, W2 and b2")
    dims = (params.W1.shape[-1], len(params.W1), len(params.W2))
    shapes = [np.shape(t) for t in tensors]
    if shapes != _shapes(*dims):
        raise ValueError(f"encoder shapes do not chain: {shapes}")
    bad = [name for name, t in params.tensors() if not np.isfinite(t).all()]
    if bad:  # refused before the file opens, so no partial file is left
        raise ValueError(f"{path}: non-finite values in {'/'.join(bad)}")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *dims))
        for t in tensors:
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_checkpoint(path) -> EncoderParams:
    """Read an MCLP file; raises distinct errors for each malformation, and
    FeatureFileError for a non-finite weight."""
    def payload_size(d_raw, d_h, d_emb):
        if 0 in (d_raw, d_h, d_emb):
            raise DimensionMismatchError(f"{path}: zero d_raw, d_h or d_emb")
        return 8 * sum(math.prod(s) for s in _shapes(d_raw, d_h, d_emb))

    dims, body = read_layout(path, CHECKPOINT_MAGIC, _CHECKPOINT_HEADER,
                             CHECKPOINT_VERSION, payload_size)
    tensors, offset = [], 0
    for shape in _shapes(*dims):
        size = math.prod(shape)
        tensors.append(np.frombuffer(body, dtype="<f8", count=size, offset=offset)
                       .reshape(shape).astype(np.float64))
        offset += 8 * size
    params = EncoderParams(*tensors)
    bad = [name for name, t in params.tensors() if not np.isfinite(t).all()]
    if bad:
        raise FeatureFileError(f"{path}: non-finite values in {'/'.join(bad)}")
    return params
