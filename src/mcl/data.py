"""Synthetic identity pools and the MCLF feature file format.

Pools are generated from a seeded spec: each identity gets a mean direction
drawn uniformly on the unit sphere, each sample is that mean plus isotropic
Gaussian noise. Ground-truth identities ride along for evaluation only; the
training code never reads them.

MCLF binary layout (all little-endian):

    4 bytes   magic ``MCLF``
    u16       version (currently 1)
    u16       flags (must be 0x0001: identity labels present)
    u32       n (sample count)
    u32       d (feature dimension)
    n*d       float32 feature rows
    n         u32 identity labels

Every score is retrieval over held-out identities, so a pool must carry its
labels: a file without them is refused, not read as one identity.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

MAGIC = b"MCLF"
VERSION = 1
FLAG_LABELS = 0x0001

_HEADER = struct.Struct("<4sHHII")


class FeatureFileError(ValueError):
    """Base class for feature file format violations."""


class BadMagicError(FeatureFileError):
    """File does not start with the MCLF magic."""


class TruncatedFileError(FeatureFileError):
    """Payload shorter than the header promises."""


class DimensionMismatchError(FeatureFileError):
    """A zero feature dimension, or a row whose width disagrees with it."""


_RULES = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
          ">= 2": lambda v: v >= 2, "> 0": lambda v: v > 0,
          "in [0, 1]": lambda v: 0 <= v <= 1, "in [0, 1)": lambda v: 0 <= v < 1,
          "in (0, 1]": lambda v: 0 < v <= 1}


def check_fields(spec, rules: dict[str, str]) -> None:
    """Validate a settings dataclass: each field has its default's type, int
    or float, and, if a float, is finite, and each field in rules meets its
    rule, a key of _RULES. A failure is a ValueError naming the field."""
    for f in fields(spec):
        # a float field also takes an int; a bool, an int to Python, never
        value, kind = getattr(spec, f.name), type(f.default)
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        rule = rules.get(f.name)
        if rule is not None and not _RULES[rule](value):
            raise ValueError(f"{f.name} must be {rule}, got {value}")


@dataclass(frozen=True)
class GenSpec:
    """Synthetic pool settings, checked by check_fields against RULES (field
    -> rule); the defaults are the acceptance gate's pool."""

    num_identities: int = 200
    samples_per_identity: int = 30
    d_raw: int = 64
    intra_class_sigma: float = 0.35
    seed: int = 1

    RULES = {
        "num_identities": ">= 2", "samples_per_identity": ">= 2",
        "d_raw": ">= 1", "intra_class_sigma": ">= 0", "seed": ">= 0",
    }

    def __post_init__(self) -> None:
        check_fields(self, self.RULES)


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
        if features.shape[1] == 0:
            raise DimensionMismatchError("zero feature dimension")
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
        return np.unique(self.identities).size

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


def write_features(pool: Pool, path) -> None:
    """Write a pool, identities included, as an MCLF file (bit-exact round
    trip with load_pool)."""
    if (pool.identities >= 1 << 32).any():
        raise ValueError("an identity of 2**32 or more overflows MCLF's labels")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, FLAG_LABELS, len(pool), pool.d_raw))
        fh.write(pool.features.astype("<f4", copy=False).tobytes())
        fh.write(pool.identities.astype("<u4").tobytes())


def read_layout(path, magic: bytes, header: struct.Struct, version: int,
                payload_size) -> tuple[list, memoryview]:
    """Read a fixed-layout file: magic, u16 version, header's other fields,
    then a payload. Checks the magic, the header's length and the version,
    then calls payload_size(*fields), which runs the format's own header
    checks and returns the payload's byte count, and only then checks that
    count. Returns the fields and the payload."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise BadMagicError(f"{path}: bad magic {raw[:4]!r}, "
                            f"not an {magic.decode()} file")
    if len(raw) < header.size:
        raise TruncatedFileError(f"{path}: header truncated")
    _, found, *fields = header.unpack_from(raw)
    if found != version:
        raise FeatureFileError(f"{path}: unsupported version {found}")
    want = payload_size(*fields)
    body = memoryview(raw)[header.size:]
    if len(body) < want:
        raise TruncatedFileError(f"{path}: payload has {len(body)} bytes, need {want}")
    if len(body) > want:
        raise FeatureFileError(f"{path}: {len(body) - want} bytes of trailing data")
    return fields, body


def load_pool(path) -> Pool:
    """Read an MCLF pool; raises distinct errors for each malformation, and
    FeatureFileError for a file without identity labels."""
    def payload_size(flags, n, d):
        if flags != FLAG_LABELS:
            raise FeatureFileError(f"{path}: flags {flags:#x}, need 0x1 (labels)")
        if d == 0:
            raise DimensionMismatchError(f"{path}: zero feature dimension")
        return n * d * 4 + n * 4

    (_, n, d), body = read_layout(path, MAGIC, _HEADER, VERSION, payload_size)
    features = np.frombuffer(body, dtype="<f4", count=n * d).reshape(n, d).copy()
    identities = np.frombuffer(body, dtype="<u4", offset=n * d * 4).astype(np.int64)
    return Pool(features, identities)
