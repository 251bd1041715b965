"""Trainable encoder, feature-space augmentation, and the Adam optimizer.

The encoder is a small MLP: h = tanh(W1 x + b1), u = W2 h + b2, v = u/|u|;
setting d_h = 0 drops the hidden layer (single linear map). Outputs are
always unit-norm. Forward passes cache what the hand-derived backward pass
needs; gradients are exact and finite-difference checked in the test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import BadMagicError, FeatureFileError, TruncatedFileError

NORM_FLOOR = 1e-12

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8

CHECKPOINT_MAGIC = b"MCLP"
CHECKPOINT_VERSION = 1


class DegenerateEmbeddingError(ValueError):
    """Pre-normalization output collapsed below the norm floor."""


@dataclass
class EncoderParams:
    """Weights of the encoder. W1/b1 are None in linear mode (d_h = 0)."""

    W1: np.ndarray | None  # (d_h, d_raw)
    b1: np.ndarray | None  # (d_h,)
    W2: np.ndarray  # (d_emb, d_h) or (d_emb, d_raw) in linear mode
    b2: np.ndarray  # (d_emb,)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        out = []
        if self.W1 is not None:
            out += [("W1", self.W1), ("b1", self.b1)]
        out += [("W2", self.W2), ("b2", self.b2)]
        return out

    @classmethod
    def random_init(cls, d_raw: int, d_h: int, d_emb: int,
                    rng: np.random.Generator) -> "EncoderParams":
        """Fan-in scaled Gaussian init; near-linear tanh regime for unit-scale input."""
        if d_h > 0:
            w1 = rng.standard_normal((d_h, d_raw)) / np.sqrt(d_raw)
            b1 = np.zeros(d_h)
            w2 = rng.standard_normal((d_emb, d_h)) / np.sqrt(d_h)
        else:
            w1 = b1 = None
            w2 = rng.standard_normal((d_emb, d_raw)) / np.sqrt(d_raw)
        return cls(W1=w1, b1=b1, W2=w2, b2=np.zeros(d_emb))

    @classmethod
    def identity_init(cls, d_raw: int, d_emb: int) -> "EncoderParams":
        """Linear untrained reference: W2 = leading rows of the identity."""
        return cls(W1=None, b1=None, W2=np.eye(d_emb, d_raw), b2=np.zeros(d_emb))


@dataclass
class EncodeCache:
    x: np.ndarray  # (B, d_raw) float64
    h: np.ndarray | None  # (B, d_h) post-tanh
    v: np.ndarray  # (B, d_emb) unit rows
    norms: np.ndarray  # (B,) pre-normalization norms


def encode_forward(params: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, EncodeCache]:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not np.isfinite(x).all():
        raise ValueError("non-finite encoder input")
    if params.W1 is not None:
        h = np.tanh(x @ params.W1.T + params.b1)
        u = h @ params.W2.T + params.b2
    else:
        h = None
        u = x @ params.W2.T + params.b2
    norms = np.linalg.norm(u, axis=1)
    # a finite norm >= the floor makes every row of v finite and unit-norm
    if not np.isfinite(norms).all():
        raise FloatingPointError("non-finite encoder output (diverged weights)")
    if norms.min(initial=np.inf) < NORM_FLOOR:
        raise DegenerateEmbeddingError("pre-normalization norm below 1e-12")
    v = u / norms[:, None]
    return v, EncodeCache(x=x, h=h, v=v, norms=norms)


def encode_backward(params: EncoderParams, cache: EncodeCache,
                    grad_v: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients for a batch, given dL/dv. Sum over the batch."""
    grad_v = np.atleast_2d(np.asarray(grad_v, dtype=np.float64))
    v, norms = cache.v, cache.norms
    # v = u/|u|  =>  du = (g - (g.v) v)/|u|
    gu = (grad_v - (grad_v * v).sum(axis=1, keepdims=True) * v) / norms[:, None]
    grads: dict[str, np.ndarray] = {}
    if params.W1 is not None:
        grads["W2"] = gu.T @ cache.h
        grads["b2"] = gu.sum(axis=0)
        gh = gu @ params.W2
        ga = gh * (1.0 - cache.h * cache.h)
        grads["W1"] = ga.T @ cache.x
        grads["b1"] = ga.sum(axis=0)
    else:
        grads["W2"] = gu.T @ cache.x
        grads["b2"] = gu.sum(axis=0)
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


def write_sections(path, tensors: list[tuple[str, np.ndarray]]) -> None:
    """Named-section binary container: float64 tensors, little-endian."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHH", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(tensors)))
        for name, arr in tensors:
            nm = name.encode()
            fh.write(struct.pack("<H", len(nm)))
            fh.write(nm)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_sections(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: bad checkpoint magic {raw[:4]!r}")
    if len(raw) < 8:
        raise TruncatedFileError(f"{path}: header truncated")
    version, count = struct.unpack_from("<HH", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FeatureFileError(f"{path}: unsupported checkpoint version {version}")
    off = 8
    sections: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (nlen,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off:off + nlen].decode()
            off += nlen
            (ndim,) = struct.unpack_from("<B", raw, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, off)
            off += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(raw, dtype="<f8", count=size, offset=off)
            off += 8 * size
        except (struct.error, ValueError):
            raise TruncatedFileError(f"{path}: checkpoint payload truncated")
        if arr.size != size:
            raise TruncatedFileError(f"{path}: checkpoint payload truncated")
        if name in sections:
            raise FeatureFileError(f"{path}: repeated checkpoint section {name!r}")
        sections[name] = arr.reshape(shape).astype(np.float64)
    if off != len(raw):
        raise FeatureFileError(f"{path}: {len(raw) - off} bytes of trailing data")
    return sections


def save_checkpoint(params: EncoderParams, path) -> None:
    write_sections(path, params.tensors())


def load_checkpoint(path) -> EncoderParams:
    sections = read_sections(path)
    if set(sections) not in ({"W2", "b2"}, {"W1", "b1", "W2", "b2"}):
        raise FeatureFileError(f"{path}: unexpected checkpoint sections {sorted(sections)}")
    params = EncoderParams(
        W1=sections.get("W1"), b1=sections.get("b1"),
        W2=sections["W2"], b2=sections["b2"],
    )
    # each layer is a (out, in) weight and an (out,) bias; out feeds the next in
    # and every value is finite
    tensors = params.tensors()
    width = None
    for (w_name, w), (b_name, b) in zip(tensors[::2], tensors[1::2]):
        if w.ndim != 2 or b.shape != w.shape[:1] or width not in (None, w.shape[1]):
            shapes = {name: t.shape for name, t in sections.items()}
            raise FeatureFileError(f"{path}: checkpoint shapes do not chain: {shapes}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise FeatureFileError(f"{path}: non-finite values in {w_name}/{b_name}")
        width = w.shape[0]
    return params
