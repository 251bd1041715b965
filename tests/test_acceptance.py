"""Acceptance gate: every shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. The retrieval numbers were pinned once from the reference run of this
implementation (seed 1, single BLAS thread) and every gate run retrains live
and must land back on them within tolerance.
"""

import time

import numpy as np
import pytest

from mcl.cluster import dbscan
from mcl.data import GenSpec, generate_pool, read_features, write_features
from mcl.metrics import profile_clustering
from mcl.model import EncoderParams, OptimizerState
from mcl.protobank import PrototypeBank
from mcl.trainer import (
    TrainConfig,
    benchmark_config,
    benchmark_genspec,
    epoch_split,
    run_phase2_epoch,
    train,
)

from .conftest import unit_rows
from .gradcheck import (
    _softmax,
    check_infonce,
    check_phase2,
    check_siamese,
    check_triplet,
)
from .oracles import dbscan_reference, partitions_match

# final mAP per training scheme at the frozen benchmark point
# (200 ids x 30 samples, d_raw 64, sigma 0.35, 30 epochs, seed 1)
FROZEN_MAP = {
    "all": 0.055100793636045226,
    "mcl": 0.056893490891587274,
    "naive": 0.05081795087924735,
    "no_sc": 0.05651023718067399,
    "plain": 0.056770251127759554,
    "fixed": 0.05267506649494416,
    "shared": 0.056893490891587274,
}
PIN_TOL = 0.01


def _line(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] {num} {name}: {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)
    return ok


@pytest.fixture(scope="session")
def benchmark_runs():
    """All seven benchmark schemes, trained once and shared across tests."""
    pool = generate_pool(benchmark_genspec())
    base = benchmark_config()
    schemes = {
        "all": (base, "all"),
        "mcl": (base, "mcl"),
        "naive": (base, "naive"),
        "no_sc": (benchmark_config(no_sc=True), "mcl"),
        "plain": (benchmark_config(plain_triplet=True), "mcl"),
        "fixed": (benchmark_config(fixed_split=True), "mcl"),
        "shared": (benchmark_config(shared_label_space=True), "mcl"),
    }
    runs = {}
    for name, (cfg, regime) in schemes.items():
        t0 = time.perf_counter()
        _, report = train(pool, cfg, regime=regime)
        runs[name] = (report, time.perf_counter() - t0)
    return runs


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = {"infonce": 0.0, "siamese": 0.0, "triplet": 0.0, "phase2": 0.0}
    for _ in range(100):
        worst["infonce"] = max(worst["infonce"], check_infonce(rng))
        worst["siamese"] = max(worst["siamese"], check_siamese(rng))
        worst["phase2"] = max(worst["phase2"], check_phase2(rng))
    for i in range(100):
        # alternate the weighted and the plain hinge so both paths get hit
        worst["triplet"] = max(
            worst["triplet"], check_triplet(rng, soft_weight=(i % 2 == 0)))
    wall = time.perf_counter() - start
    err = max(worst.values())
    ok = err <= 1e-4 and wall < 30.0
    assert _line(1, "gradient suite", ok,
                 f"max rel err {err:.2e}, {wall:.1f}s")


def test_criterion_2_clustering_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    for trial in range(200):
        n = int(rng.integers(5, 151))
        d = rng.random((n, n))
        d = (d + d.T) / 2.0
        if trial % 4 == 0:
            d = np.round(d, 1)  # heavy ties
        np.fill_diagonal(d, 0.0)
        eps = float(rng.uniform(0.05, 0.9))
        min_pts = int(rng.integers(1, 9))
        got = dbscan(d, eps=eps, min_pts=min_pts)
        want = dbscan_reference(d, eps, min_pts)
        same = partitions_match(got.labels, want)
        if not same:
            _line(2, "clustering vs closure reference", False,
                  f"trial {trial}: n={n} eps={eps:.3f} min_pts={min_pts}")
            assert same
    wall = time.perf_counter() - start
    ok = wall < 60.0
    assert _line(2, "clustering vs closure reference", ok,
                 f"200 instances agree, {wall:.1f}s")


def test_criterion_3_cost_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    x = unit_rows(rng, 20000, 64)
    full = profile_clustering(x, repeats=3)
    half = profile_clustering(x[:10000], repeats=3)
    wall = time.perf_counter() - start
    entry_ratio = half.distance_entries / full.distance_entries
    wall_ratio = half.wall_seconds / full.wall_seconds
    ok = (full.distance_entries == 2 * 20000 ** 2
          and half.distance_entries * 4 == full.distance_entries
          and wall_ratio <= 0.35
          and wall < 300.0)
    assert _line(3, "half-pool pass costs a quarter", ok,
                 f"entries {entry_ratio:.4f}x, wall {wall_ratio:.3f}x, "
                 f"{wall:.0f}s")


def test_criterion_4_benchmark_parity(benchmark_runs):
    maps = {k: benchmark_runs[k][0].final_map
            for k in ("all", "mcl", "naive")}
    core_wall = sum(benchmark_runs[k][1] for k in ("all", "mcl", "naive"))
    pinned = all(abs(maps[k] - FROZEN_MAP[k]) <= PIN_TOL for k in maps)
    ok = (abs(maps["mcl"] - maps["all"]) <= 0.05
          and maps["mcl"] > maps["naive"]
          and pinned
          and core_wall < 600.0)
    assert _line(4, "half-pool matches full, beats naive split", ok,
                 f"mcl {maps['mcl']:.4f} all {maps['all']:.4f} "
                 f"naive {maps['naive']:.4f}, {core_wall:.0f}s")


def test_criterion_5_ablation_order(benchmark_runs):
    mcl = benchmark_runs["mcl"][0].final_map
    ablations = ("no_sc", "plain", "fixed", "shared")
    maps = {k: benchmark_runs[k][0].final_map for k in ablations}
    pinned = all(abs(maps[k] - FROZEN_MAP[k]) <= PIN_TOL for k in ablations)
    ok = all(mcl >= maps[k] for k in ablations) and pinned
    detail = " ".join(f"{k} {maps[k]:.4f}" for k in ablations)
    assert _line(5, "full method tops every ablation",
                 ok, f"mcl {mcl:.4f} vs {detail}")


def test_criterion_6_invariants(small_pool, tmp_path):
    rng = np.random.default_rng(17)
    checks = {}

    # soft labels live on the probability simplex
    ok = True
    for _ in range(50):
        k, d = int(rng.integers(2, 12)), int(rng.integers(2, 10))
        bank = PrototypeBank(unit_rows(rng, k, d))
        soft = bank.soft_label_batch(rng.standard_normal((8, d)))
        ok &= bool(np.all(soft >= 0)
                   and np.allclose(soft.sum(axis=1), 1.0, atol=1e-12))
    checks["simplex"] = ok

    # prototypes stay unit-norm and are a fixed point of their own update
    ok = True
    for _ in range(50):
        k, d = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        bank = PrototypeBank(unit_rows(rng, k, d))
        frozen = bank.weights.copy()
        bank.momentum_update(frozen, np.arange(k))
        ok &= bool(np.allclose(bank.weights, frozen, atol=1e-12))
        bank.momentum_update(rng.standard_normal((20, d)),
                             rng.integers(0, k, 20))
        ok &= bool(np.allclose(np.linalg.norm(bank.weights, axis=1), 1.0,
                               atol=1e-12))
    checks["prototypes"] = ok

    # hardened label is invariant to any softmax temperature
    ok = True
    for _ in range(50):
        k, d = int(rng.integers(2, 12)), int(rng.integers(2, 10))
        bank = PrototypeBank(unit_rows(rng, k, d))
        v = unit_rows(rng, 6, d)
        base = bank.harden(bank.soft_label_batch(v))
        for tau in (0.07, 0.5, 3.0):
            scaled = _softmax((v @ bank.weights.T) / tau)
            ok &= bool(np.array_equal(base, np.argmax(scaled, axis=1)))
    checks["temperature"] = ok

    # epoch splits cover every sample exactly once, near-equal sizes
    ok = True
    for _ in range(50):
        n, s = int(rng.integers(2, 400)), int(rng.integers(1, 9))
        parts = epoch_split(n, s, int(rng.integers(0, 1000)))
        cat = np.concatenate(parts)
        sizes = [len(p) for p in parts]
        ok &= bool(np.array_equal(np.sort(cat), np.arange(n))
                   and max(sizes) - min(sizes) <= 1)
    checks["splits"] = ok

    # phase-2 label spaces never share positives across subsets
    cfg = TrainConfig(n_subsets=2, epochs=3, warmup_epochs=1,
                      p2_identities=2, i2_instances=2, d_hidden=16,
                      d_emb=8, seed=0)
    bank = PrototypeBank(unit_rows(rng, 3, 6))
    params = EncoderParams.random_init(6, 0, 6, rng)
    opt = OptimizerState.for_params(params, lr=1e-3)
    rest = [np.arange(0, 12), np.arange(12, 24), np.arange(24, 36)]
    stats = run_phase2_epoch(rng.standard_normal((36, 6)), rest, bank,
                             params, opt, cfg, np.random.default_rng(2))
    checks["exclusion"] = all(
        bool(np.all((stats.hardened[12 * j:12 * (j + 1)] >= 3 * j)
                    & (stats.hardened[12 * j:12 * (j + 1)] < 3 * (j + 1))))
        for j in range(3))

    # feature files survive a write/read cycle bit for bit
    pool = generate_pool(GenSpec(num_identities=7, samples_per_identity=5,
                                 d_raw=9, intra_class_sigma=0.4, seed=21))
    path = tmp_path / "roundtrip.mclf"
    write_features(pool, path)
    checks["roundtrip"] = read_features(path) == pool

    # a fixed seed reproduces a whole run bit for bit
    cfg = TrainConfig(n_subsets=2, epochs=3, warmup_epochs=1, p_identities=4,
                      i_instances=4, p2_identities=4, i2_instances=4,
                      d_hidden=16, d_emb=8, k_neighbors=8, seed=0)
    p1, r1 = train(small_pool, cfg, regime="mcl")
    p2, r2 = train(small_pool, cfg, regime="mcl")
    checks["determinism"] = (
        all(t1.tobytes() == t2.tobytes()
            for (_, t1), (_, t2) in zip(p1.tensors(), p2.tensors()))
        and [e.mean_ap for e in r1.epochs] == [e.mean_ap for e in r2.epochs]
        and r1.final_map == r2.final_map)

    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    assert _line(6, "invariant suite", ok,
                 "all invariants hold" if ok else f"failed: {', '.join(bad)}")


def test_criterion_7_labeling_trend(benchmark_runs):
    series = benchmark_runs["mcl"][0].labeling_series
    ok = series[-1] > series[0]
    assert _line(7, "pseudo-labels improve over training", ok,
                 f"correct-pair fraction {series[0]:.4f} -> {series[-1]:.4f}")
