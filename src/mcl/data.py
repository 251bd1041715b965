"""Synthetic identity pools and the MCLF feature file format.

Pools are generated from a seeded spec: each identity gets a mean direction
drawn uniformly on the unit sphere, each sample is that mean plus isotropic
Gaussian noise. Ground-truth identities ride along for evaluation only; the
training code never reads them.

MCLF binary layout (all little-endian):

    4 bytes   magic ``MCLF``
    u16       version (currently 1)
    u16       flags (bit0 = identity labels present)
    u32       n (sample count)
    u32       d (feature dimension)
    n*d       float32 feature rows
    [n]       u32 identity labels, only if flags bit0 is set

A CSV fallback is accepted for import: first line ``d=<int>``, then one
comma-separated row of d floats per sample (no labels).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"MCLF"
VERSION = 1
FLAG_LABELS = 0x0001

_HEADER = struct.Struct("<4sHHII")


class FeatureFileError(ValueError):
    """Base class for feature file format violations."""


class BadMagicError(FeatureFileError):
    """File does not start with the MCLF magic (or a parsable CSV header)."""


class TruncatedFileError(FeatureFileError):
    """Payload shorter than the header promises."""


class DimensionMismatchError(FeatureFileError):
    """A zero feature dimension, or a row whose width disagrees with it."""


@dataclass(frozen=True)
class GenSpec:
    """Synthetic pool settings; the defaults are the acceptance gate's pool."""

    num_identities: int = 200
    samples_per_identity: int = 30
    d_raw: int = 64
    intra_class_sigma: float = 0.35
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_identities < 2:
            raise ValueError(f"num_identities must be >= 2, got {self.num_identities}")
        if self.samples_per_identity < 2:
            raise ValueError(
                f"samples_per_identity must be >= 2, got {self.samples_per_identity}"
            )
        if self.d_raw < 1:
            raise ValueError(f"d_raw must be positive, got {self.d_raw}")
        if self.intra_class_sigma < 0:
            raise ValueError(f"intra_class_sigma must be >= 0, got {self.intra_class_sigma}")


class Pool:
    """Ordered collection of raw feature vectors with hidden identities.

    Stored column-wise as arrays: ``features`` (n, d_raw) float32 and
    ``identities`` (n,) int64. Identities are evaluation-only; trainers
    address samples by position.
    """

    def __init__(self, features: np.ndarray, identities: np.ndarray):
        features = np.ascontiguousarray(features, dtype=np.float32)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if not np.isfinite(features).all():
            raise ValueError("features contain NaN/Inf")
        n = features.shape[0]
        identities = np.asarray(identities, dtype=np.int64)
        if identities.shape != (n,):
            raise ValueError("identities must have one entry per sample")
        if n and identities.min() < 0:
            raise ValueError("identities must be non-negative")
        self.features = features
        self.identities = identities

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def d_raw(self) -> int:
        return self.features.shape[1]

    @property
    def num_identities(self) -> int:
        return int(self.identities.max()) + 1 if len(self) else 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pool):
            return NotImplemented
        return (
            self.features.shape == other.features.shape
            and self.features.tobytes() == other.features.tobytes()
            and np.array_equal(self.identities, other.identities)
        )

    def __repr__(self) -> str:
        return f"Pool(n={len(self)}, d_raw={self.d_raw}, ids={self.num_identities})"


def generate_pool(spec: GenSpec) -> Pool:
    """Draw a seeded synthetic pool.

    Identity means are uniform on the unit sphere in d_raw dimensions
    (normalized Gaussian draws); samples add isotropic noise of scale
    ``intra_class_sigma``. Deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    means = rng.standard_normal((spec.num_identities, spec.d_raw))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    n = spec.num_identities * spec.samples_per_identity
    identities = np.repeat(np.arange(spec.num_identities, dtype=np.int64),
                           spec.samples_per_identity)
    noise = rng.standard_normal((n, spec.d_raw)) * spec.intra_class_sigma
    features = (means[identities] + noise).astype(np.float32)
    return Pool(features, identities)


def write_features(pool: Pool, path, include_labels: bool = True) -> None:
    """Write a pool as an MCLF file (bit-exact round trip with read_features)."""
    if include_labels and (pool.identities >= 1 << 32).any():
        raise ValueError("an identity of 2**32 or more overflows MCLF's labels")
    flags = FLAG_LABELS if include_labels else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, flags, len(pool), pool.d_raw))
        fh.write(pool.features.astype("<f4", copy=False).tobytes())
        if include_labels:
            fh.write(pool.identities.astype("<u4").tobytes())


def read_features(path) -> Pool:
    """Read an MCLF file; raises distinct errors for each malformation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        if raw[:4] != MAGIC:
            raise BadMagicError(f"{path}: not an MCLF file")
        raise TruncatedFileError(f"{path}: header truncated")
    magic, version, flags, n, d = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FeatureFileError(f"{path}: unsupported version {version}")
    if d == 0:
        raise DimensionMismatchError(f"{path}: zero feature dimension")
    want = n * d * 4 + (n * 4 if flags & FLAG_LABELS else 0)
    body = raw[_HEADER.size:]
    if len(body) < want:
        raise TruncatedFileError(f"{path}: payload has {len(body)} bytes, need {want}")
    if len(body) > want:
        raise FeatureFileError(f"{path}: {len(body) - want} bytes of trailing data")
    features = np.frombuffer(body[: n * d * 4], dtype="<f4").reshape(n, d).copy()
    if flags & FLAG_LABELS:
        identities = np.frombuffer(body[n * d * 4:], dtype="<u4").astype(np.int64)
    else:
        identities = np.zeros(n, dtype=np.int64)
    return Pool(features, identities)


def read_features_csv(path) -> Pool:
    """Import the CSV fallback: header ``d=<int>``, one row of d floats per sample."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header.startswith("d="):
            raise BadMagicError(f"{path}: CSV header must be 'd=<int>', got {header!r}")
        try:
            d = int(header[2:])
        except ValueError:
            raise BadMagicError(f"{path}: CSV header must be 'd=<int>', got {header!r}")
        if d < 1:
            raise DimensionMismatchError(f"{path}: zero feature dimension")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d:
                raise DimensionMismatchError(
                    f"{path}:{lineno}: row has {len(parts)} values, expected {d}"
                )
            rows.append([float(p) for p in parts])
    features = np.asarray(rows, dtype=np.float32).reshape(len(rows), d)
    return Pool(features, np.zeros(len(rows), dtype=np.int64))


def load_pool(path) -> Pool:
    """Load a pool by sniffing the format: MCLF magic first, CSV fallback."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_features(path)
    if head[:2] == b"d=":
        return read_features_csv(path)
    raise BadMagicError(f"{path}: neither MCLF magic nor CSV 'd=' header")
