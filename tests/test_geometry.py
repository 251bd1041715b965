"""Distance pipeline against brute-force references."""

import re
import tracemalloc
import warnings

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

from .conftest import unit_rows
from .oracles import (
    cosine_rowsum,
    jaccard_from_sets,
    knn_full_sort,
    reciprocal_membership,
)


def _grouped(rng, n, d):
    """Unit rows whose every `_STRIDE`-th row, the sampled columns, sits in
    one tight group, so a group row's threshold admits fewer than k."""
    e = unit_rows(rng, n, d)
    e[::geometry._STRIDE] = unit_rows(rng, 1, d) + 0.01 * rng.standard_normal(
        (-(-n // geometry._STRIDE), d))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


class TestCosine:
    def test_matches_direct_formula(self, rng):
        e = unit_rows(rng, 40, 8)
        dm = pairwise_cosine_distance(e)
        want = 1.0 - e @ e.T
        np.fill_diagonal(want, 0.0)
        assert np.allclose(dm, want, atol=1e-12)

    def test_symmetric_zero_diagonal(self, rng):
        dm = pairwise_cosine_distance(unit_rows(rng, 25, 6))
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)

    def test_rejects_non_unit_rows(self, rng):
        with pytest.raises(ValueError):
            pairwise_cosine_distance(rng.standard_normal((5, 4)) * 3.0)

    def test_rejects_non_finite(self, rng):
        e = unit_rows(rng, 5, 4)
        e[2, 1] = np.nan
        with pytest.raises(ValueError):
            pairwise_cosine_distance(e)

    def test_counts_entries(self, rng):
        before = ENTRY_COUNTER.total
        pairwise_cosine_distance(unit_rows(rng, 33, 5))
        assert ENTRY_COUNTER.total - before == 33 * 33


class TestKnn:
    def test_matches_full_sort(self, rng):
        for trial in range(20):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(1, n - 1))
            e = unit_rows(rng, n, 6)
            # duplicated rows put exact or one-ulp ties between columns
            for rows in (e, e[rng.integers(0, n // 3, size=n)]):
                dm = pairwise_cosine_distance(rows)
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
    def test_quantized_ties_match_full_sort(self, rng, k):
        n = 650
        e = unit_rows(rng, n, 6)
        raw = rng.integers(0, 4, size=(n, n)).astype(np.float64)
        for d in (pairwise_cosine_distance(e),
                  (raw + raw.T) / 2.0,  # exact ties everywhere, at t too
                  pairwise_cosine_distance(e[rng.integers(0, n // 3, size=n)])):
            assert np.array_equal(knn(d, k), knn_full_sort(d, k))

    @pytest.mark.parametrize("rows", ["random", "duplicated", "grouped"])
    @pytest.mark.parametrize("k", [1, 30, 100])
    def test_cosine_knn_matches_the_row_sum_reference(self, rng, rows, k):
        # n = 650: five row blocks, the last one partial, and a column sample
        # of 82 entries, longer than the threshold's rank q. Duplicated rows
        # put exact ties at the k-th neighbour, which go to the lower index;
        # grouped rows leave thresholds with fewer than k candidates
        n = 650
        e = _grouped(rng, n, 6) if rows == "grouped" else unit_rows(rng, n, 6)
        if rows == "duplicated":
            e = e[rng.integers(0, n // 3, size=n)]
        got = geometry._cosine_knn(e, k)
        want = knn(cosine_rowsum(e), k)
        assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))

    def test_non_finite_distances_rejected(self):
        # self is excluded by a +inf entry, which a +inf or NaN entry at a
        # lower index would tie with or sort after
        with pytest.raises(ValueError, match="non-finite"):
            knn(np.full((6, 6), np.inf), 2)
        d = np.ones((6, 6))
        d[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            knn(d, 3)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4,)])
    def test_non_square_distances_rejected(self, shape):
        message = re.escape(f"square (n, n) array, got {shape}")
        with pytest.raises(ValueError, match=message):
            knn(np.zeros(shape), 1)

    def test_k_bounds(self, rng):
        dm = pairwise_cosine_distance(unit_rows(rng, 6, 4))
        with pytest.raises(ValueError):
            knn(dm, 6)
        with pytest.raises(ValueError):
            knn(dm, 0)


class TestReciprocal:
    def test_matches_brute_force(self, rng):
        for trial in range(10):
            n = int(rng.integers(6, 50))
            k = int(rng.integers(1, min(12, n - 1)))
            dm = pairwise_cosine_distance(unit_rows(rng, n, 5))
            lists = knn(dm, k)
            sets = k_reciprocal_sets(lists)
            assert sets.format == "csr"
            got = sets.toarray().astype(bool)
            want = reciprocal_membership(lists) | np.eye(n, dtype=bool)
            assert np.array_equal(got, want)

    def test_mutuality_is_symmetric(self, rng):
        # the set matrix jaccard_distance takes as it comes: binary CSR,
        # each point in its own set, at most k + 1 entries a row
        dm = pairwise_cosine_distance(unit_rows(rng, 30, 5))
        sets = k_reciprocal_sets(knn(dm, 4))
        assert sets.format == "csr"
        assert np.all(sets.data == 1)
        assert np.diff(sets.indptr).max() <= 4 + 1
        r = sets.toarray()
        assert np.all(np.diag(r) == 1)
        assert np.array_equal(r, r.T)


class TestJaccard:
    def test_matches_set_oracle(self, rng):
        for trial in range(6):
            n = int(rng.integers(6, 40))
            k = int(rng.integers(1, min(10, n - 1)))
            dm = pairwise_cosine_distance(unit_rows(rng, n, 5))
            sets = k_reciprocal_sets(knn(dm, k))
            got = jaccard_distance(sets)
            want = jaccard_from_sets(sets.toarray().astype(bool))
            assert np.allclose(got, want, atol=1e-12)

    def test_peak_memory_is_one_matrix_plus_block_products(self, rng):
        # the dense result plus, per worker, one row block's CSR intersection
        # product and its fill temporaries; the sets are built untraced, so
        # only jaccard_distance's own allocations count
        n = 3000
        sets = k_reciprocal_sets(
            knn(pairwise_cosine_distance(unit_rows(rng, n, 64)), 30))
        tracemalloc.start()
        try:
            jaccard_distance(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * n * n * 8

    def test_range_and_diagonal(self, rng):
        dm = pairwise_cosine_distance(unit_rows(rng, 30, 6))
        j = jaccard_distance(k_reciprocal_sets(knn(dm, 5)))
        assert np.all(j >= 0.0) and np.all(j <= 1.0)
        assert np.all(np.diag(j) == 0.0)
        assert np.array_equal(j, j.T)


class TestPipeline:
    def test_counts_two_matrices(self, rng):
        e = unit_rows(rng, 50, 6)
        before = ENTRY_COUNTER.total
        clustering_distance(e, k=8)
        assert ENTRY_COUNTER.total - before == 2 * 50 * 50

    def test_equals_staged_computation(self):
        # n = 1030 and 2100 span two and three row blocks; drawing rows with
        # replacement duplicates many of them, so exact ties cross blocks.
        # Each seed is its own draw: the tie rule must hold at every one
        for seed in (0, 1, 7):
            rng = np.random.default_rng(seed)
            for n, k in ((35, 6), (1030, 1), (1030, 30), (2100, 30)):
                e = unit_rows(rng, n, 6)
                if n > 35:
                    e = e[rng.integers(0, n // 3, size=n)]
                got = clustering_distance(e, k=k)
                want = jaccard_distance(
                    k_reciprocal_sets(knn(cosine_rowsum(e), k)))
                assert np.array_equal(got, want), (seed, n, k)

    def test_rejects_invalid_input(self, rng):
        e = unit_rows(rng, 8, 4)
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
        # the Jaccard result is the only n x n matrix, allocated after the
        # kNN lists; each worker adds its float32 cosine block, its candidate
        # mask and sampled columns, about 5.5 x 128 bytes per column
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
        e = unit_rows(np.random.default_rng(seed), n, 4)
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
        e = unit_rows(rng, n, 6)[rng.integers(0, max(n // 3, 2), size=n)]
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(geometry, "_worker_count", lambda: workers)
            got.append((clustering_distance(e, k=k),
                        geometry._cosine_knn(e, k)))
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


def _aligned_rows(rng, n, dim):
    """Unit rows (within 1e-6) whose every entry rounds away from zero to
    float32 by almost half a float32 spacing, so a row's dot product with
    itself, or with any row of the same signs, rounds up in every term."""
    v = unit_rows(rng, n, dim)
    v32 = v.astype(np.float32)
    half = np.spacing(np.abs(v32)).astype(np.float64) / 2
    # spacing below a power of two is half as wide: stay inside it
    return v32.astype(np.float64) - np.sign(v) * 0.49 * half


class TestFloat32Gap:
    @pytest.mark.parametrize("dim", [2, 6, 64, 128])
    def test_float32_distances_within_the_bound(self, rng, dim):
        delta = geometry._float32_bound(dim)
        for e in (unit_rows(rng, 200, dim), _aligned_rows(rng, 200, dim)):
            geometry._unit_rows(e)  # the rows the bound is stated for
            e32 = e.astype(np.float32)
            d64 = (1.0 - e @ e.T, 1.0 - (e[:, None] * e[None]).sum(axis=2))
            d32 = (np.subtract(1.0, e32 @ e32.T),
                   np.vstack([1.0 - e32[lo:lo + 64] @ e32.T
                              for lo in range(0, 200, 64)]),
                   np.vstack([1.0 - e32[i] @ e32.T for i in range(200)]))
            err = max(np.abs(a.astype(np.float64) - b).max()
                      for a in d32 for b in d64)
            assert err <= delta
        # the aligned rows realise the input rounding on the diagonal: each
        # of the two float32 roundings there moves x . x by about u / 2
        diag = 1.0 - np.einsum("ij,ij->i", e32, e32, dtype=np.float64)
        assert np.abs(diag - (1.0 - (e * e).sum(axis=1))).max() > 2.0 ** -25

    @pytest.mark.parametrize("dim", [6, 64])
    def test_near_tie_at_the_kth_neighbour_gives_the_float64_set(self, rng,
                                                                dim):
        # row 0's k-th and (k + 1)-th neighbours lie 1e-9 apart, far inside
        # 2 delta, and the nearer one has the higher index. Rotated, every
        # entry of row 0 rounds to float32, which puts the farther one first
        # in about a quarter of the draws: the re-score must then look past
        # the k-th float32 entry
        k, n = 5, 200
        x = np.zeros(dim)
        x[0] = 1.0
        w = unit_rows(rng, n, dim)
        w[:, 0] = 0.0
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        dist = np.full(n, 1.5)  # the rest sit in the far hemisphere
        dist[1:k] = 0.01 * np.arange(1, k)
        dist[k], dist[n - 1] = 0.05 + 1e-9, 0.05
        cos = 1.0 - dist
        e = cos[:, None] * x + np.sqrt(1.0 - cos ** 2)[:, None] * w
        e[0] = x
        bound = 2 * geometry._float32_bound(dim)
        rotations = [np.eye(dim)]
        rotations += [np.linalg.qr(rng.standard_normal((dim, dim)))[0]
                      for _ in range(40)]
        for q in rotations:
            r = e @ q
            r /= np.linalg.norm(r, axis=1, keepdims=True)
            d = pairwise_cosine_distance(r)
            assert 0.0 < d[0, k] - d[0, n - 1] < bound
            got = geometry._cosine_knn(r, k)
            want = knn(d, k)
            assert set(got[0]) == set(range(1, k)) | {n - 1}
            assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))

    def test_short_and_open_rows_raise_no_warning(self, rng, monkeypatch):
        # grouped rows, short of k candidates, resolve over every column;
        # duplicated rows put exact ties at the k-th neighbour, resolved over
        # the few columns within 2 delta of it
        n, k = 400, 30
        e = _grouped(rng, n, 6)
        e[200:260] = e[rng.integers(0, 200, size=60)]
        want = jaccard_distance(k_reciprocal_sets(knn(cosine_rowsum(e), k)))
        sizes = []
        rescore = geometry._rescore

        def counted(e, i, cols, k):
            sizes.append(cols.size)
            return rescore(e, i, cols, k)

        monkeypatch.setattr(geometry, "_rescore", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = clustering_distance(e, k=k)
        assert n in sizes and min(sizes) < n  # full rows and windows
        assert np.array_equal(got, want)

    def test_lists_do_not_depend_on_block_height(self, rng, monkeypatch):
        # random rows at d = 6, then duplicated rows at d = 6 and 64, whose
        # exact ties at the k-th neighbour sit in different blocks at each
        # height
        n = 1030
        e6 = unit_rows(rng, n, 6)
        pick = rng.integers(0, n // 3, size=n)
        for e in (e6, e6[pick], unit_rows(rng, n, 64)[pick]):
            got = []
            for height in (64, 128, 256):
                monkeypatch.setattr(geometry, "_ROW_BLOCK", height)
                got.append((np.sort(geometry._cosine_knn(e, 30), axis=1),
                            clustering_distance(e, k=30)))
            for lists, entries in got[1:]:
                assert np.array_equal(lists, got[0][0])
                assert np.array_equal(entries, got[0][1])
