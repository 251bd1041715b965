"""The public surface: `mcl.__all__`, the functions perfbench traces, the
benchmark worker's calls into mcl, and what `import mcl` loads."""

import importlib
import importlib.util
import json
import subprocess
import sys

import numpy as np

import mcl
import mcl.trainer
from mcl.cluster import dbscan
from mcl.data import GenSpec, generate_pool, write_features
from mcl.geometry import clustering_distance
from mcl.model import EncoderParams
from mcl.trainer import TrainConfig

from .conftest import ROOT, src_env

SMALL_SPEC = GenSpec(num_identities=10, samples_per_identity=6, d_raw=8,
                     intra_class_sigma=0.1, seed=0)

# prints the scipy modules the process has loaded, as a JSON list
SCIPY_LOADED = ("import json, sys; print(json.dumps(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy')))")


def _fresh_python(code, *args):
    """Run `code` in a new interpreter with src/ on the path; its stdout."""
    done = subprocess.run([sys.executable, "-c", code, *args], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


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


def test_benchmark_measures_the_default_run():
    # benchmark_config/benchmark_genspec are non-public aliases of the
    # classes, so perfbench's train workloads at seed 1 run exactly
    # TrainConfig() on GenSpec()
    assert {"benchmark_config", "benchmark_genspec"}.isdisjoint(mcl.__all__)
    assert mcl.trainer.benchmark_config(seed=3) == TrainConfig(seed=3)
    assert _load_perfbench("worker").genspec("train-mcl-hard", 1) == GenSpec()


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


def test_import_loads_no_scipy():
    out = _fresh_python("import mcl, mcl.cli\n" + SCIPY_LOADED)
    assert json.loads(out) == []


def test_eval_loads_no_scipy(tmp_path):
    path = tmp_path / "pool.mclf"
    write_features(generate_pool(SMALL_SPEC), path)
    code = ("import sys, mcl.cli\n"
            "assert mcl.cli.main(['eval', sys.argv[1], '--identity-init',"
            " '-o', sys.argv[2]]) == 0\n" + SCIPY_LOADED)
    out = _fresh_python(code, str(path), str(tmp_path / "metrics.json"))
    assert json.loads(out.splitlines()[-1]) == []


def test_first_clustering_pass_in_a_fresh_process():
    # scipy loads at the first pass; the labels must not depend on whether
    # this process imported it already
    code = ("import json, numpy as np\n"
            "from mcl.cluster import dbscan\n"
            "from mcl.data import GenSpec, generate_pool\n"
            "from mcl.geometry import clustering_distance\n"
            f"pool = generate_pool({SMALL_SPEC!r})\n"
            "x = pool.features.astype(np.float64)\n"
            "x /= np.linalg.norm(x, axis=1, keepdims=True)\n"
            "labels = dbscan(clustering_distance(x, k=5), 0.6, 3).labels\n"
            "print(json.dumps(labels.tolist()))")
    fresh = json.loads(_fresh_python(code))
    x = generate_pool(SMALL_SPEC).features.astype(np.float64)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    here = dbscan(clustering_distance(x, k=5), 0.6, 3).labels
    assert fresh == here.tolist()
    assert max(here) >= 1  # more than one cluster: not a trivial labeling
