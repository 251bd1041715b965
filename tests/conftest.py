import os

# keep BLAS single-threaded: wall-clock criteria assume it, and it makes the
# cost-ratio measurements stable (must be set before numpy loads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import struct
from pathlib import Path

import numpy as np
import pytest

from mcl.data import GenSpec, generate_pool

ROOT = Path(__file__).resolve().parents[1]


def src_env():
    """This process's environment with the repository's src/ first on
    PYTHONPATH, for tests that run mcl in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def pack_checkpoint(path, W1, b1, W2, b2):
    """An MCLP version-2 file at path, packed by hand, so it may hold
    weights that `save_checkpoint` refuses to write."""
    header = struct.pack("<4sHIII", b"MCLP", 2, W1.shape[1], len(W1), len(W2))
    path.write_bytes(header + b"".join(
        np.ascontiguousarray(t, dtype="<f8").tobytes() for t in (W1, b1, W2, b2)))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture
def small_pool():
    """24 identities x 6 samples in 16 dims, easy noise level."""
    return generate_pool(GenSpec(num_identities=24, samples_per_identity=6,
                                 d_raw=16, intra_class_sigma=0.1, seed=3))


# 8 identities x 4 samples; enough for a fast end-to-end run
TINY_SPEC = GenSpec(num_identities=8, samples_per_identity=4, d_raw=8,
                    intra_class_sigma=0.05, seed=5)


@pytest.fixture
def tiny_pool():
    return generate_pool(TINY_SPEC)
