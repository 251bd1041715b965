"""Retrieval metrics, clustering quality, and the cost profiler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcl.geometry import ENTRY_COUNTER
from mcl.metrics import (
    MAX_RANK,
    clustering_quality,
    compute_map_cmc,
    labeling_correct_fraction,
    profile_clustering,
)

from .conftest import unit_rows
from .oracles import (
    adjusted_rand,
    average_precision,
    cmc_curve,
    outliers_to_singletons,
    pair_counts,
    pairwise_quality,
)


class TestMapCmc:
    def test_perfect_retrieval(self, rng):
        # gallery rows equal to their query's embedding rank first
        q = unit_rows(rng, 4, 8)
        g = np.concatenate([q, unit_rows(rng, 6, 8)])
        q_ids = np.arange(4)
        g_ids = np.concatenate([np.arange(4), np.full(6, 99)])
        mean_ap, cmc = compute_map_cmc(q, g, q_ids, g_ids)
        assert mean_ap == pytest.approx(1.0)
        assert np.allclose(cmc, 1.0)

    def test_matches_oracle_on_random_inputs(self, rng):
        # odd trials round the rows, tying many distances: ties keep gallery
        # order, as the oracle's per-row stable sort does
        for trial in range(30):
            nq = int(rng.integers(2, 8))
            ng = int(rng.integers(6, 25))
            q = unit_rows(rng, nq, 6)
            g = unit_rows(rng, ng, 6)
            if trial % 2:
                q, g = np.round(2 * q), np.round(2 * g)
            q_ids = rng.integers(0, 4, size=nq)
            g_ids = np.concatenate([np.arange(4), rng.integers(0, 4, size=ng - 4)])
            mean_ap, cmc = compute_map_cmc(q, g, q_ids, g_ids)
            dist = 1.0 - q @ g.T
            if trial % 2:
                assert np.unique(dist).size < dist.size  # the draw does tie
            want_aps = []
            want_cmc = np.zeros(min(MAX_RANK, ng))
            for i in range(nq):
                rel = g_ids == q_ids[i]
                want_aps.append(average_precision(dist[i], rel))
                want_cmc += cmc_curve(dist[i], rel, min(MAX_RANK, ng))
            assert mean_ap == pytest.approx(np.mean(want_aps), abs=1e-12)
            assert np.array_equal(cmc, want_cmc / nq)  # counts: exact

    def test_known_hand_case(self):
        # one query, relevant gallery items at ranks 2 and 4:
        # AP = (1/2 + 2/4) / 2 = 0.5
        q = np.array([[1.0, 0.0]])
        g = np.array([
            [0.99, np.sqrt(1 - 0.99**2)],   # rank 1, wrong id
            [0.95, np.sqrt(1 - 0.95**2)],   # rank 2, hit
            [0.90, np.sqrt(1 - 0.90**2)],   # rank 3, wrong
            [0.80, np.sqrt(1 - 0.80**2)],   # rank 4, hit
        ])
        mean_ap, cmc = compute_map_cmc(q, g, np.array([1]),
                                       np.array([0, 1, 0, 1]))
        assert mean_ap == pytest.approx(0.5)
        assert np.allclose(cmc, [0.0, 1.0, 1.0, 1.0])

    def test_cmc_monotone_property(self, rng):
        for trial in range(10):
            q = unit_rows(rng, 5, 6)
            g = unit_rows(rng, 20, 6)
            q_ids = rng.integers(0, 3, size=5)
            g_ids = np.concatenate([np.arange(3), rng.integers(0, 3, size=17)])
            _, cmc = compute_map_cmc(q, g, q_ids, g_ids)
            assert np.all(np.diff(cmc) >= 0.0)
            assert cmc.max() <= 1.0 and cmc.min() >= 0.0

    def test_missing_identity_rejected(self, rng):
        q = unit_rows(rng, 2, 4)
        g = unit_rows(rng, 3, 4)
        with pytest.raises(ValueError):
            compute_map_cmc(q, g, np.array([0, 7]), np.array([0, 0, 1]))

    def test_empty_inputs_rejected(self, rng):
        g = unit_rows(rng, 3, 4)
        with pytest.raises(ValueError):
            compute_map_cmc(np.zeros((0, 4)), g, np.array([]), np.zeros(3))


class TestClusteringQuality:
    def test_matches_pair_oracle(self, rng):
        # every pair count is an integer, so each score equals the oracle's
        # exactly: on small labels, on labels far apart, and on all outliers
        for trial in range(60):
            n = int(rng.integers(4, 40))
            pred = rng.integers(-1, 4, size=n)
            true = rng.integers(0, 4, size=n)
            if trial % 3 == 1:
                pred = np.where(pred >= 0, pred * 1000 + 7, -1)
                true = true * 1000 + 3
            elif trial % 3 == 2:
                pred = np.full(n, -1)
            got = clustering_quality(pred, true)
            pred_s = outliers_to_singletons(pred)
            assert got[:3] == pairwise_quality(pred_s, true)
            assert got[3] == adjusted_rand(pred_s, true)
            kept = pred >= 0
            if pair_counts(pred[kept], true[kept])[:2] != (0, 0):
                assert labeling_correct_fraction(pred, true) == \
                    pairwise_quality(pred[kept], true[kept])[0]

    def test_perfect_clustering(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        p, r, f, ari = clustering_quality(labels, labels)
        assert (p, r, f, ari) == (1.0, 1.0, 1.0, 1.0)

    def test_all_outliers_is_all_singletons(self):
        true = np.array([0, 0, 1, 1])
        p, r, f, ari = clustering_quality(np.full(4, -1), true)
        # no predicted pair: precision 1 by convention, recall 0
        assert p == 1.0
        assert r == 0.0

    def test_identical_singletons_ari_is_one(self):
        pred = np.arange(5)
        true = np.arange(5)
        assert clustering_quality(pred, true)[3] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            clustering_quality(np.zeros(3), np.zeros(4))

    def test_empty_labeling_rejected(self):
        with pytest.raises(ValueError, match="empty labeling"):
            clustering_quality(np.zeros(0, dtype=np.int64),
                               np.zeros(0, dtype=np.int64))


class TestLabelingFraction:
    def test_counts_only_labeled_pairs(self):
        labels = np.array([0, 0, 0, -1, -1])
        true = np.array([5, 5, 6, 7, 7])
        # labeled pairs: (0,1) correct, (0,2) and (1,2) wrong -> 1/3
        got = labeling_correct_fraction(labels, true)
        assert got == pytest.approx(1 / 3)

    def test_nan_when_no_pairs(self):
        assert np.isnan(labeling_correct_fraction(np.array([-1, -1]),
                                                  np.array([0, 0])))
        assert np.isnan(labeling_correct_fraction(np.array([0, 1, -1]),
                                                  np.array([0, 0, 0])))

    def test_perfect_labeling(self):
        labels = np.array([3, 3, 9, 9])
        true = np.array([0, 0, 1, 1])
        assert labeling_correct_fraction(labels, true) == 1.0

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=30, deadline=None)
    def test_range_property(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, 3, size=12)
        true = rng.integers(0, 3, size=12)
        got = labeling_correct_fraction(labels, true)
        assert np.isnan(got) or 0.0 <= got <= 1.0


class TestProfiler:
    def test_entry_count_is_exactly_two_matrices(self, rng):
        e = unit_rows(rng, 120, 8)
        prof = profile_clustering(e, k=10, repeats=2)
        assert prof.distance_entries == 2 * 120 * 120
        assert prof.peak_bytes == prof.distance_entries * 8

    def test_wall_is_median_of_repeats(self, rng):
        e = unit_rows(rng, 60, 6)
        ticks = iter(np.cumsum([0.0, 5.0, 0.0, 1.0, 0.0, 3.0]).tolist())
        prof = profile_clustering(e, k=5, repeats=3, timer=lambda: next(ticks))
        assert prof.wall_seconds == pytest.approx(3.0)

    def test_quarter_ratio_at_half_size(self, rng):
        e = unit_rows(rng, 200, 8)
        full = profile_clustering(e, k=10, repeats=1)
        half = profile_clustering(e[:100], k=10, repeats=1)
        assert half.distance_entries * 4 == full.distance_entries
        assert half.peak_bytes * 4 == full.peak_bytes

    def test_repeats_validated(self, rng):
        with pytest.raises(ValueError):
            profile_clustering(unit_rows(rng, 10, 4), k=3, repeats=0)

    def test_counter_left_consistent(self, rng):
        e = unit_rows(rng, 50, 6)
        before = ENTRY_COUNTER.total
        profile_clustering(e, k=5, repeats=2)
        assert ENTRY_COUNTER.total == before + 2 * 2 * 50 * 50
