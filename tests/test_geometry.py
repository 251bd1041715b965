"""Distance pipeline against brute-force references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcl import geometry
from mcl.data import GenSpec, generate_pool
from mcl.geometry import (
    ENTRY_COUNTER,
    clustering_distance,
    jaccard_distance,
    k_reciprocal_sets,
    knn,
    pairwise_cosine_distance,
)

from .oracles import jaccard_from_sets, knn_full_sort, reciprocal_membership


def _unit(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestCosine:
    def test_matches_direct_formula(self, rng):
        e = _unit(rng, 40, 8)
        dm = pairwise_cosine_distance(e)
        want = 1.0 - e @ e.T
        np.fill_diagonal(want, 0.0)
        assert np.allclose(dm, want, atol=1e-12)

    def test_symmetric_zero_diagonal(self, rng):
        dm = pairwise_cosine_distance(_unit(rng, 25, 6))
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)

    def test_rejects_non_unit_rows(self, rng):
        with pytest.raises(ValueError):
            pairwise_cosine_distance(rng.standard_normal((5, 4)) * 3.0)

    def test_rejects_non_finite(self, rng):
        e = _unit(rng, 5, 4)
        e[2, 1] = np.nan
        with pytest.raises(ValueError):
            pairwise_cosine_distance(e)

    def test_counts_entries(self, rng):
        before = ENTRY_COUNTER.total
        pairwise_cosine_distance(_unit(rng, 33, 5))
        assert ENTRY_COUNTER.total - before == 33 * 33


class TestKnn:
    def test_matches_full_sort(self, rng):
        for trial in range(20):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(1, n - 1))
            dm = pairwise_cosine_distance(_unit(rng, n, 6))
            assert np.array_equal(knn(dm, k), knn_full_sort(dm, k))

    def test_tie_heavy_matrix(self):
        # quantized distances force many exact ties; lower index must win
        rng = np.random.default_rng(0)
        n = 40
        raw = rng.integers(0, 4, size=(n, n)).astype(np.float64)
        d = (raw + raw.T) / 2.0
        np.fill_diagonal(d, 0.0)
        for k in (1, 3, 7, n - 2):
            assert np.array_equal(knn(d, k), knn_full_sort(d, k))

    @pytest.mark.parametrize("k", [1, 30, 100])
    def test_sampled_threshold_matches_full_sort(self, rng, k):
        # n = 650: five row blocks, the last one partial, and a column sample
        # of 82 entries, longer than the threshold's rank q
        n = 650
        e = _unit(rng, n, 6)
        raw = rng.integers(0, 4, size=(n, n)).astype(np.float64)
        for d in (pairwise_cosine_distance(e),
                  (raw + raw.T) / 2.0,  # exact ties everywhere, at t too
                  pairwise_cosine_distance(e[rng.integers(0, n // 3, size=n)])):
            assert np.array_equal(knn(d, k), knn_full_sort(d, k))

    def test_rows_short_of_k_candidates_are_sorted_in_full(self, rng):
        # every row's nearest points are sampled columns, so its threshold
        # admits only q < k candidates and the full sort must run
        n = 650
        d = rng.random((n, n)) + 1.0
        d[:, ::geometry._STRIDE] -= 1.0
        for k in (30, 100):
            assert np.array_equal(knn(d, k), knn_full_sort(d, k))

    def test_k_bounds(self, rng):
        dm = pairwise_cosine_distance(_unit(rng, 6, 4))
        with pytest.raises(ValueError):
            knn(dm, 6)
        with pytest.raises(ValueError):
            knn(dm, 0)


class TestReciprocal:
    def test_matches_brute_force(self, rng):
        for trial in range(10):
            n = int(rng.integers(6, 50))
            k = int(rng.integers(1, min(12, n - 1)))
            dm = pairwise_cosine_distance(_unit(rng, n, 5))
            lists = knn(dm, k)
            recip = k_reciprocal_sets(lists)
            assert recip.format == "csr"
            got = recip.toarray().astype(bool)
            assert np.array_equal(got, reciprocal_membership(lists))

    def test_mutuality_is_symmetric(self, rng):
        dm = pairwise_cosine_distance(_unit(rng, 30, 5))
        r = k_reciprocal_sets(knn(dm, 4)).toarray()
        assert np.array_equal(r, r.T)


class TestJaccard:
    def test_matches_set_oracle(self, rng):
        for trial in range(6):
            n = int(rng.integers(6, 40))
            k = int(rng.integers(1, min(10, n - 1)))
            dm = pairwise_cosine_distance(_unit(rng, n, 5))
            recip = k_reciprocal_sets(knn(dm, k))
            got = jaccard_distance(recip)
            want = jaccard_from_sets(recip.toarray().astype(bool))
            assert np.allclose(got, want, atol=1e-12)

    def test_peak_memory_is_one_matrix_plus_block_products(self, rng):
        # the dense result plus, per worker, one row block's CSR intersection
        # product and its fill temporaries; the sets are built untraced, so
        # only jaccard_distance's own allocations count
        n = 3000
        recip = k_reciprocal_sets(
            knn(pairwise_cosine_distance(_unit(rng, n, 64)), 30))
        tracemalloc.start()
        try:
            jaccard_distance(recip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * n * n * 8

    def test_out_is_filled_and_returned(self, rng):
        dm = pairwise_cosine_distance(_unit(rng, 300, 6))
        recip = k_reciprocal_sets(knn(dm, 10))
        buf = np.full((300, 300), np.nan)
        got = jaccard_distance(recip, out=buf)
        assert got is buf
        assert np.array_equal(buf, jaccard_distance(recip))

    @pytest.mark.parametrize("bad", [
        np.empty((12, 11)),
        np.empty((12, 12), dtype=np.float32),
        np.empty((12, 12), order="F"),
        np.empty((12, 24))[:, ::2],
    ], ids=["shape", "dtype", "fortran", "strided"])
    def test_bad_out_rejected(self, rng, bad):
        recip = k_reciprocal_sets(
            knn(pairwise_cosine_distance(_unit(rng, 12, 4)), 3))
        with pytest.raises(ValueError, match="out"):
            jaccard_distance(recip, out=bad)

    def test_asymmetric_adjacency_matches_set_oracle(self, rng):
        # row i's set need not contain j when row j's contains i, so a product
        # that used the adjacency in place of its transpose would miscount
        import scipy.sparse as sp
        a = rng.random((40, 40)) < 0.15
        np.fill_diagonal(a, False)
        assert not np.array_equal(a, a.T)
        got = jaccard_distance(sp.csr_matrix(a.astype(np.int8)))
        assert np.allclose(got, jaccard_from_sets(a), atol=1e-12)

    def test_range_and_diagonal(self, rng):
        dm = pairwise_cosine_distance(_unit(rng, 30, 6))
        j = jaccard_distance(k_reciprocal_sets(knn(dm, 5)))
        assert np.all(j >= 0.0) and np.all(j <= 1.0)
        assert np.all(np.diag(j) == 0.0)
        assert np.array_equal(j, j.T)


class TestPipeline:
    def test_counts_two_matrices(self, rng):
        e = _unit(rng, 50, 6)
        before = ENTRY_COUNTER.total
        clustering_distance(e, k=8)
        assert ENTRY_COUNTER.total - before == 2 * 50 * 50

    def test_equals_staged_computation(self, rng):
        # n = 1030 and 2100 span two and three row blocks; drawing rows with
        # replacement duplicates many of them, so exact ties cross blocks
        for n, k in ((35, 6), (1030, 1), (1030, 30), (2100, 30)):
            e = _unit(rng, n, 6)
            if n > 35:
                e = e[rng.integers(0, n // 3, size=n)]
            got = clustering_distance(e, k=k)
            want = jaccard_distance(
                k_reciprocal_sets(knn(pairwise_cosine_distance(e), k)))
            assert np.array_equal(got, want)

    def test_rejects_invalid_input(self, rng):
        e = _unit(rng, 8, 4)
        with pytest.raises(ValueError):
            clustering_distance(e * 3.0, k=3)
        bad = e.copy()
        bad[5, 2] = np.inf
        with pytest.raises(ValueError):
            clustering_distance(bad, k=3)
        with pytest.raises(ValueError):
            clustering_distance(e, k=8)
        with pytest.raises(ValueError):
            clustering_distance(e, k=0)

    def test_peak_memory_is_one_matrix_plus_a_row_block(self):
        # the Jaccard result is the only n x n matrix, and its rows hold the
        # cosine blocks; each worker's kNN selection adds about 2 x 128 bytes
        # per column, its candidate mask and sampled columns: 32 / n of one
        pool = generate_pool(GenSpec(num_identities=100, samples_per_identity=30,
                                     d_raw=64, intra_class_sigma=0.15, seed=1))
        x = pool.features.astype(np.float64)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        n = x.shape[0]
        # the pass imports scipy.sparse lazily; its first import is not the
        # pass's memory, and reads ~1.2 when this test runs first
        import scipy.sparse  # noqa: F401
        tracemalloc.start()
        try:
            clustering_distance(x, k=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    @given(n=st.integers(5, 25), k=st.integers(1, 6), seed=st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_properties_hold_for_random_inputs(self, n, k, seed):
        if k >= n:
            k = n - 1
        e = _unit(np.random.default_rng(seed), n, 4)
        dm = clustering_distance(e, k=k)
        assert dm.shape == (n, n)
        assert np.all(np.diag(dm) == 0.0)
        assert np.array_equal(dm, dm.T)
        assert dm.min() >= 0.0 and dm.max() <= 1.0


class TestWorkers:
    @pytest.mark.parametrize("n,k", [(35, 6), (700, 10), (1030, 30)])
    def test_results_do_not_depend_on_worker_count(self, rng, monkeypatch,
                                                   n, k):
        # 700 and 1030 rows end in a partial block; duplicated rows put exact
        # ties across blocks
        e = _unit(rng, n, 6)[rng.integers(0, max(n // 3, 2), size=n)]
        dm = pairwise_cosine_distance(e)
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(geometry, "_worker_count", lambda: workers)
            got.append((clustering_distance(e, k=k), knn(dm, k)))
        for entries, lists in got[1:]:
            assert np.array_equal(entries, got[0][0])
            assert np.array_equal(lists, got[0][1])

    def test_blocks_cover_rows_in_order(self, monkeypatch):
        monkeypatch.setattr(geometry, "_worker_count", lambda: 3)
        n = 5 * geometry._ROW_BLOCK + 7
        spans = geometry._map_row_blocks(lambda lo, hi: (lo, hi), n)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_exception_propagates(self, monkeypatch, workers):
        monkeypatch.setattr(geometry, "_worker_count", lambda: workers)

        def fail_in_third_block(lo, hi):
            if lo == 2 * geometry._ROW_BLOCK:
                raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            geometry._map_row_blocks(fail_in_third_block,
                                     4 * geometry._ROW_BLOCK)
