"""Prototype bank: init from clusters, momentum drift, soft labels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcl.model import DegenerateEmbeddingError
from mcl.protobank import NoClustersError, PrototypeBank

from .conftest import unit_rows


def _bank(rng, k=5, d=6, **kw):
    return PrototypeBank(unit_rows(rng, k, d), **kw)


class TestConstruction:
    def test_rows_renormalized(self, rng):
        w = rng.standard_normal((4, 6)) * 3.0
        bank = PrototypeBank(w)
        assert np.allclose(np.linalg.norm(bank.weights, axis=1), 1.0, atol=1e-12)
        # directions preserved
        want = w / np.linalg.norm(w, axis=1, keepdims=True)
        assert np.allclose(bank.weights, want, atol=1e-12)

    def test_empty_bank_rejected(self):
        with pytest.raises(NoClustersError):
            PrototypeBank(np.zeros((0, 4)))

    def test_bad_momentum_rejected(self, rng):
        with pytest.raises(ValueError):
            _bank(rng, momentum=1.5)

    def test_degenerate_row_rejected(self):
        w = np.zeros((2, 4))
        w[0, 0] = 1.0
        with pytest.raises(ValueError):
            PrototypeBank(w)

    def test_keeps_its_own_copy(self, rng):
        # scaling in place would change the caller's rows, and every later
        # update would write into them
        w = rng.standard_normal((3, 5)) * 3.0
        raw = w.tobytes()
        bank = PrototypeBank(w)
        assert w.tobytes() == raw
        assert not np.shares_memory(bank.weights, w)
        assert bank.weights.flags.c_contiguous
        bank.momentum_update(unit_rows(rng, 3, 5), np.arange(3))
        assert w.tobytes() == raw

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        with pytest.raises(FloatingPointError):
            PrototypeBank([[bad, 1.0], [1.0, 0.0]])


class TestFromClusters:
    def test_matches_per_cluster_mean(self, rng):
        emb = unit_rows(rng, 12, 5)
        labels = np.array([0, 0, 1, 1, 1, 2, 2, -1, 0, 2, 1, -1])
        bank = PrototypeBank.from_clusters(emb, labels)
        for k in range(3):
            mean = emb[labels == k].mean(axis=0)
            want = mean / np.linalg.norm(mean)
            assert np.allclose(bank.weights[k], want, atol=1e-12)

    def test_outliers_ignored(self, rng):
        emb = unit_rows(rng, 6, 4)
        labels = np.array([0, 0, -1, -1, 1, 1])
        bank = PrototypeBank.from_clusters(emb, labels)
        assert bank.num_classes == 2

    def test_all_outliers_rejected(self, rng):
        with pytest.raises(NoClustersError):
            PrototypeBank.from_clusters(unit_rows(rng, 3, 4),
                                        np.array([-1, -1, -1]))

    def test_gap_in_ids_rejected(self, rng):
        with pytest.raises(ValueError):
            PrototypeBank.from_clusters(unit_rows(rng, 4, 4),
                                        np.array([0, 0, 2, 2]))

    def test_label_shape_checked(self, rng):
        with pytest.raises(ValueError):
            PrototypeBank.from_clusters(unit_rows(rng, 4, 4), np.zeros(3))


class TestMomentumUpdate:
    def test_matches_formula(self, rng):
        bank = _bank(rng, k=3, d=5, momentum=0.2)
        before = bank.weights.copy()
        emb = unit_rows(rng, 4, 5)
        labels = np.array([0, 0, 2, 2])
        bank.momentum_update(emb, labels)
        for k, members in ((0, emb[:2]), (2, emb[2:])):
            mixed = 0.2 * before[k] + 0.8 * members.mean(axis=0)
            want = mixed / np.linalg.norm(mixed)
            assert np.allclose(bank.weights[k], want, atol=1e-12)

    def test_absent_class_bitwise_untouched(self, rng):
        bank = _bank(rng, k=4, d=5)
        row1 = bank.weights[1].tobytes()
        row3 = bank.weights[3].tobytes()
        bank.momentum_update(unit_rows(rng, 3, 5), np.array([0, 0, 2]))
        assert bank.weights[1].tobytes() == row1
        assert bank.weights[3].tobytes() == row3

    def test_out_of_range_labels_rejected(self, rng):
        bank = _bank(rng, k=3)
        with pytest.raises(ValueError):
            bank.momentum_update(unit_rows(rng, 2, 6), np.array([0, 3]))
        with pytest.raises(ValueError):
            bank.momentum_update(unit_rows(rng, 2, 6), np.array([-1, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_update_refused(self, rng, bad):
        bank = _bank(rng, k=3, d=4)
        before = bank.weights.tobytes()
        emb = unit_rows(rng, 3, 4)
        emb[1, 0] = bad
        with pytest.raises(FloatingPointError):
            bank.momentum_update(emb, np.array([0, 1, 2]))
        assert bank.weights.tobytes() == before

    def test_collapsed_update_refused(self, rng):
        # 0.5 w + 0.5 (-w) is exactly zero; class 1's update is fine, and is
        # not written either
        bank = _bank(rng, k=3, d=4, momentum=0.5)
        before = bank.weights.tobytes()
        emb = np.stack([-bank.weights[0], unit_rows(rng, 1, 4)[0]])
        with pytest.raises(DegenerateEmbeddingError):
            bank.momentum_update(emb, np.array([0, 1]))
        assert bank.weights.tobytes() == before

    @given(seed=st.integers(0, 9999), m=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_unit_norm_invariant(self, seed, m):
        rng = np.random.default_rng(seed)
        bank = _bank(rng, k=4, d=6, momentum=m)
        for _ in range(3):
            emb = unit_rows(rng, 6, 6)
            labels = rng.integers(0, 4, size=6)
            bank.momentum_update(emb, labels)
        assert np.allclose(np.linalg.norm(bank.weights, axis=1), 1.0, atol=1e-9)

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=30, deadline=None)
    def test_prototypes_are_fixed_points(self, seed):
        # feeding a class its own prototype leaves it unchanged:
        # m*w + (1-m)*w = w, and renormalizing a unit vector is a no-op
        rng = np.random.default_rng(seed)
        bank = _bank(rng, k=5, d=6)
        before = bank.weights.copy()
        labels = np.arange(5)
        bank.momentum_update(before.copy(), labels)
        assert np.allclose(bank.weights, before, atol=1e-12)

    def test_momentum_one_freezes_bank(self, rng):
        bank = _bank(rng, k=3, d=5, momentum=1.0)
        before = bank.weights.copy()
        bank.momentum_update(unit_rows(rng, 5, 5), np.array([0, 1, 2, 0, 1]))
        assert np.allclose(bank.weights, before, atol=1e-12)


class TestSoftLabels:
    @given(seed=st.integers(0, 99999), k=st.integers(1, 8), n=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_simplex_invariants(self, seed, k, n):
        rng = np.random.default_rng(seed)
        bank = _bank(rng, k=k, d=5)
        soft = bank.soft_label_batch(unit_rows(rng, n, 5))
        assert soft.shape == (n, k)
        assert np.all(soft >= 0.0)
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_direct_softmax(self, rng):
        bank = _bank(rng, k=4, d=5)
        v = unit_rows(rng, 3, 5)
        z = v @ bank.weights.T
        want = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert np.allclose(bank.soft_label_batch(v), want, atol=1e-12)

    def test_stable_under_large_logits(self, rng):
        # query rows far from unit norm produce logits past exp's float64
        # limit of 709; softmax must not overflow
        bank = PrototypeBank(rng.standard_normal((3, 4)))
        soft = bank.soft_label_batch(unit_rows(rng, 2, 4) * 1000.0)
        assert np.isfinite(soft).all()
        assert np.allclose(soft.sum(axis=1), 1.0)


class TestHarden:
    def test_argmax(self, rng):
        bank = _bank(rng, k=3, d=4)
        soft = np.array([[0.2, 0.5, 0.3], [0.9, 0.05, 0.05]])
        assert np.array_equal(bank.harden(soft), [1, 0])

    def test_tie_goes_to_lowest_index(self, rng):
        bank = _bank(rng, k=3, d=4)
        soft = np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]])
        assert np.array_equal(bank.harden(soft), [0, 1])

    def test_width_checked(self, rng):
        bank = _bank(rng, k=3, d=4)
        with pytest.raises(ValueError):
            bank.harden(np.ones((2, 4)) / 4.0)

    @given(seed=st.integers(0, 99999), scale=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    @settings(max_examples=50, deadline=None)
    def test_temperature_invariance(self, seed, scale):
        # scaling the logits (equivalently, dividing by a temperature) never
        # moves the argmax; guard against float near-ties before asserting
        rng = np.random.default_rng(seed)
        bank = _bank(rng, k=6, d=5)
        v = unit_rows(rng, 8, 5)
        z = v @ bank.weights.T
        top2 = np.sort(z, axis=1)[:, -2:]
        if (top2[:, 1] - top2[:, 0]).min() < 1e-9:
            return  # genuine tie; lowest-index rule covered elsewhere
        soft = bank.soft_label_batch(v)
        soft_scaled = np.exp(z * scale - (z * scale).max(axis=1, keepdims=True))
        soft_scaled /= soft_scaled.sum(axis=1, keepdims=True)
        assert np.array_equal(bank.harden(soft), bank.harden(soft_scaled))

