"""The public surface: `mcl.__all__`, the functions perfbench traces, and the
benchmark worker's calls into mcl."""

import importlib
import importlib.util
from pathlib import Path

import mcl
from mcl.data import GenSpec, generate_pool, write_features
from mcl.model import EncoderParams

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    """Import perfbench/<name>.py by path, without running it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert [name for name in mcl.__all__ if not hasattr(mcl, name)] == []


def test_every_tracer_target_resolves():
    # perfbench/tracer.py wraps each target by name, so a renamed or deleted
    # function breaks every traced benchmark run; load it without installing
    tracer = _load_perfbench("tracer")
    missing = []
    for module_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_benchmark_worker_runs_on_a_small_pool(tmp_path):
    # perfbench/worker.py calls mcl directly, so a deletion it relies on
    # fails here rather than in the next benchmark run
    worker = _load_perfbench("worker")
    assert worker.genspec("train-mcl-hard", 1).intra_class_sigma == 0.35
    assert worker.genspec("cluster-10k", 1).num_identities == 334
    pool = generate_pool(GenSpec(num_identities=10, samples_per_identity=6,
                                 d_raw=8, intra_class_sigma=0.1, seed=0))
    path = tmp_path / "pool.mclf"
    write_features(pool, path)
    loaded, x = worker.load("cluster-10k", str(path))
    task = worker.cluster_task(loaded, x, None)
    assert task["num_clusters"] >= 1
    assert 0.0 < task["quality"] <= 1.0
    assert len(task["fingerprint"]) == 64
    params = EncoderParams.identity_init(pool.d_raw, pool.d_raw)
    assert 0.0 < worker.heldout_map(loaded, params, 0.25) <= 1.0
