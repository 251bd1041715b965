"""Deterministic density clustering against the O(n^3) closure reference."""

import re

import numpy as np
import pytest

from mcl import geometry
from mcl.cluster import ClusterAssignment, dbscan
from mcl.geometry import clustering_distance

from .oracles import dbscan_reference


def _random_metric(rng, n):
    """Symmetric zero-diagonal matrix in [0, 1]."""
    d = rng.random((n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


class TestAgainstReference:
    def test_random_instances(self):
        rng = np.random.default_rng(42)
        cases = []
        for trial in range(60):
            n = int(rng.integers(5, 90))
            d = _random_metric(rng, n)
            eps = float(rng.uniform(0.05, 0.6))
            min_pts = int(rng.integers(1, 8))
            cases.append((d, eps, min_pts))
        # edge inputs: n in {0, 1}, eps 0, and rounded matrices whose exact
        # ties sit on the eps boundary
        cases += [(_random_metric(rng, n), eps, 1)
                  for n in (0, 1) for eps in (0.0, 0.5)]
        for trial in range(30):
            n = int(rng.integers(5, 90))
            d = np.round(_random_metric(rng, n) * 4.0) / 4.0
            eps = float(rng.choice([0.0, 0.25, 0.5]))
            cases.append((d, eps, int(rng.integers(1, 8))))
        for d, eps, min_pts in cases:
            got = dbscan(d, eps=eps, min_pts=min_pts)
            want = dbscan_reference(d, eps, min_pts)
            assert np.array_equal(got.labels, want), (d.shape[0], eps, min_pts)
            assert got.num_clusters == want.max(initial=-1) + 1

    def test_labels_match_reference_exactly(self):
        # ids are issued in first-core order on both sides, so the match
        # should hold without any permutation at all
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(5, 60))
            d = _random_metric(rng, n)
            got = dbscan(d, eps=0.3, min_pts=3)
            assert np.array_equal(got.labels, dbscan_reference(d, 0.3, 3))

    def test_pipeline_distances(self):
        # same agreement on realistic Jaccard matrices, not just uniform noise
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.integers(20, 70))
            e = rng.standard_normal((n, 8))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            dm = clustering_distance(e, k=min(10, n - 1))
            for eps in (0.0, 0.6):
                got = dbscan(dm, eps=eps, min_pts=4)
                assert np.array_equal(got.labels,
                                      dbscan_reference(dm, eps, 4))


class TestStructure:
    def test_all_within_eps_is_one_cluster(self):
        d = np.full((10, 10), 0.1)
        np.fill_diagonal(d, 0.0)
        got = dbscan(d, eps=0.2, min_pts=3)
        assert got.num_clusters == 1
        assert np.all(got.labels == 0)
        assert got.num_outliers == 0

    def test_all_far_apart_is_all_outliers(self):
        d = np.full((10, 10), 0.9)
        np.fill_diagonal(d, 0.0)
        got = dbscan(d, eps=0.2, min_pts=2)
        assert got.num_clusters == 0
        assert np.all(got.labels == -1)

    def test_two_blocks(self):
        d = np.full((8, 8), 1.0)
        d[:4, :4] = 0.1
        d[4:, 4:] = 0.1
        np.fill_diagonal(d, 0.0)
        got = dbscan(d, eps=0.2, min_pts=2)
        assert got.num_clusters == 2
        assert np.array_equal(got.labels, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_border_point_takes_lowest_core(self):
        # point 4 is within eps of cores in both blocks; the lowest-index
        # core lives in cluster 0
        d = np.full((9, 9), 1.0)
        d[:4, :4] = 0.1
        d[5:, 5:] = 0.1
        d[4, :] = d[:, 4] = 1.0
        d[4, 0] = d[0, 4] = 0.15
        d[4, 5] = d[5, 4] = 0.15
        np.fill_diagonal(d, 0.0)
        # min_pts=3 keeps point 4 non-core (2 neighbors), so it cannot
        # bridge the blocks and must join the lower core's cluster
        got = dbscan(d, eps=0.2, min_pts=3)
        assert got.labels[4] == got.labels[0] == 0
        assert got.labels[5] == 1

    def test_min_pts_excludes_self(self):
        # pair at distance 0.1: each has exactly one neighbor, so min_pts=1
        # clusters them and min_pts=2 leaves both as outliers
        d = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert dbscan(d, eps=0.2, min_pts=1).num_clusters == 1
        assert dbscan(d, eps=0.2, min_pts=2).num_clusters == 0

    def test_empty_input(self):
        got = dbscan(np.zeros((0, 0)), eps=0.5, min_pts=2)
        assert got.num_clusters == 0
        assert got.labels.size == 0

    def test_parameter_validation(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            dbscan(d, eps=-0.1, min_pts=2)
        with pytest.raises(ValueError):
            dbscan(d, eps=0.5, min_pts=0)

    def test_nan_eps_is_refused(self):
        # NaN compares false with every distance, so it would silently call
        # even coincident points outliers
        with pytest.raises(ValueError, match="eps must be >= 0, got nan"):
            dbscan(np.zeros((5, 5)), eps=float("nan"), min_pts=1)

    @pytest.mark.parametrize("shape", [(5, 3), (4,), (3, 5)])
    def test_non_square_input_is_refused(self, shape):
        # a (5, 3) array used to give five labels, a (4,) one four, and a
        # (3, 5) one an error from scipy deep inside the pass
        message = re.escape(f"square (n, n) array, got {shape}")
        with pytest.raises(ValueError, match=message):
            dbscan(np.zeros(shape), eps=0.5, min_pts=1)

    def test_members_accessor(self):
        a = ClusterAssignment(labels=np.array([0, 1, 0, -1, 1]), num_clusters=2)
        assert a.num_outliers == 1

    def test_chunking_agrees_with_small_path(self, monkeypatch):
        # n spans many row blocks, so the eps scan takes multiple passes, in
        # the calling thread and on worker threads
        rng = np.random.default_rng(11)
        n = 1100
        e = rng.standard_normal((n, 4))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        dm = clustering_distance(e, k=10)
        want = dbscan_reference(dm, 0.7, 4)
        for workers in (1, 3):
            monkeypatch.setattr(geometry, "_worker_count", lambda: workers)
            got = dbscan(dm, eps=0.7, min_pts=4)
            assert np.array_equal(got.labels, want)
