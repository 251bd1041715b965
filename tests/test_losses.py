"""Loss values, gradients, and edge behavior."""

import numpy as np
import pytest

from mcl.losses import (
    LossValue,
    infonce_batch,
    phase2_total,
    siamese_consistency_batch,
    soft_weighted_triplet_batch,
)
from mcl.protobank import PrototypeBank

from .conftest import unit_rows
from .gradcheck import check_infonce, check_phase2, check_siamese, check_triplet
from .oracles import central_difference, relative_error


class TestLossValue:
    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            LossValue(float("nan"), {})
        with pytest.raises(FloatingPointError):
            LossValue(float("inf"), {})

    def test_finite_accepted(self):
        assert LossValue(0.5, {"v": np.zeros(2)}).value == 0.5


class TestInfoNCE:
    def test_uniform_bank_gives_log_k(self, rng):
        # a query orthogonal to every prototype scores them equally, so the
        # loss is exactly log K
        k, d = 5, 6
        w = np.zeros((k, d))
        w[:, 0] = 1.0
        bank = PrototypeBank(w)  # rows already unit: normalizing keeps them
        q = np.zeros((1, d))
        q[0, 1] = 1.0
        out = infonce_batch(q, bank, np.array([2]), tau=0.05)
        assert out.value == pytest.approx(np.log(k), abs=1e-12)

    def test_perfect_match_drives_loss_down(self, rng):
        bank = PrototypeBank(unit_rows(rng, 4, 6))
        q = bank.weights[1:2] * 50.0  # strongly aligned with its positive
        low = infonce_batch(q, bank, np.array([1]), tau=0.05).value
        high = infonce_batch(q, bank, np.array([2]), tau=0.05).value
        assert low < 1e-6 < high

    def test_batch_is_mean_of_singles(self, rng):
        bank = PrototypeBank(unit_rows(rng, 5, 6))
        v = rng.standard_normal((4, 6))
        labels = np.array([0, 2, 2, 4])
        batch = infonce_batch(v, bank, labels, tau=0.1)
        singles = [infonce_batch(v[i:i + 1], bank, labels[i:i + 1], tau=0.1)
                   for i in range(4)]
        assert batch.value == pytest.approx(np.mean([s.value for s in singles]))
        stacked = np.concatenate([s.grads["v"] for s in singles]) / 4.0
        assert np.allclose(batch.grads["v"], stacked, atol=1e-12)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(0)
        worst = max(check_infonce(rng) for _ in range(25))
        assert worst < 1e-6

    def test_parameter_validation(self, rng):
        bank = PrototypeBank(unit_rows(rng, 3, 4))
        q = rng.standard_normal((1, 4))
        with pytest.raises(ValueError):
            infonce_batch(q, bank, np.array([0]), tau=0.0)
        with pytest.raises(ValueError):
            infonce_batch(q, bank, np.array([3]), tau=0.1)
        with pytest.raises(ValueError):
            infonce_batch(q, bank, np.array([-1]), tau=0.1)


class TestSiamese:
    def test_identical_views_minimize_cross_entropy(self, rng):
        # equal views predict each other's target exactly, so the loss is
        # the entropy of the shared soft label and the gradients vanish
        bank = PrototypeBank(unit_rows(rng, 4, 5))
        f = rng.standard_normal((3, 5))
        out = siamese_consistency_batch(f, f.copy(), bank)
        p = bank.soft_label_batch(f)
        entropy = -(p * np.log(p)).sum(axis=1).mean() * 2.0
        assert out.value == pytest.approx(entropy, abs=1e-10)
        assert np.allclose(out.grads["f_s"], 0.0, atol=1e-12)
        assert np.allclose(out.grads["f_t"], 0.0, atol=1e-12)

    def test_no_gradient_flows_into_targets_or_bank(self, rng):
        # the full (non-frozen) derivative would include an entropy term;
        # freezing the targets must remove it
        bank = PrototypeBank(unit_rows(rng, 4, 5))
        f_s = rng.standard_normal((2, 5))
        f_t = rng.standard_normal((2, 5))
        out = siamese_consistency_batch(f_s, f_t, bank)
        assert set(out.grads) == {"f_s", "f_t"}
        full_fd = central_difference(
            lambda m: siamese_consistency_batch(m, f_t, bank).value, f_s.copy())
        assert relative_error(out.grads["f_s"], full_fd) > 1e-3

    def test_shape_mismatch_rejected(self, rng):
        bank = PrototypeBank(unit_rows(rng, 3, 4))
        with pytest.raises(ValueError):
            siamese_consistency_batch(np.zeros((2, 4)), np.zeros((3, 4)), bank)

    def test_gradients_match_frozen_fd(self):
        rng = np.random.default_rng(1)
        worst = max(check_siamese(rng) for _ in range(25))
        assert worst < 1e-6


class TestTriplet:
    def test_inactive_hinge_is_zero(self, rng):
        # negative much closer-looking: an - ap far above margin => hinge off
        f_a = unit_rows(rng, 1, 4)
        f_p = f_a.copy()
        f_n = -f_a
        out = soft_weighted_triplet_batch(f_a, f_p, f_n, margin=0.3)
        assert out.value == 0.0
        for g in out.grads.values():
            assert np.allclose(g, 0.0)

    def test_plain_hinge_value(self):
        f_a = np.array([[1.0, 0.0]])
        f_p = np.array([[0.0, 1.0]])
        f_n = np.array([[1.0, 0.0]])
        # |a-p|^2 = 2, |a-n|^2 = 0, margin 0.3 -> hinge 2.3; omega=1 when off
        out = soft_weighted_triplet_batch(f_a, f_p, f_n, 0.3, soft_weight=False)
        assert out.value == pytest.approx(2.3)

    def test_omega_scales_hinge(self, rng):
        # compare weighted and unweighted on the same active triple
        while True:
            f_a, f_p, f_n = (unit_rows(rng, 1, 5) for _ in range(3))
            ap = ((f_a - f_p) ** 2).sum()
            an = ((f_a - f_n) ** 2).sum()
            sp = float((f_a * f_p).sum())
            sn = float((f_a * f_n).sum())
            if ap - an + 0.4 > 0.05 and 0.01 < sp < 0.99 and 0.01 < sn < 0.99:
                break
        plain = soft_weighted_triplet_batch(f_a, f_p, f_n, 0.4, soft_weight=False)
        weighted = soft_weighted_triplet_batch(f_a, f_p, f_n, 0.4)
        assert weighted.value == pytest.approx(plain.value * sp * sn)

    def test_clamp_zeroes_negative_similarity(self, rng):
        f_a = np.array([[1.0, 0.0]])
        f_p = np.array([[-1.0, 0.0]])  # similarity -1 clamps to 0
        f_n = np.array([[0.0, 1.0]])
        out = soft_weighted_triplet_batch(f_a, f_p, f_n, 0.5)
        assert out.value == 0.0

    def test_gradients_match_fd_all_variants(self):
        rng = np.random.default_rng(2)
        for sw in (True, False):
            worst = max(check_triplet(rng, soft_weight=sw) for _ in range(12))
            assert worst < 1e-6, sw


class TestPhase2Total:
    def test_linear_combination(self):
        a = LossValue(1.0, {"v": np.ones((2, 2))})
        b = LossValue(0.5, {"v": np.full((2, 2), 2.0)})
        out = phase2_total(a, b, lambda_tri=0.5)
        assert out.value == pytest.approx(1.25)
        assert np.allclose(out.grads["v"], 1.0 + 0.5 * 2.0)

    def test_inputs_not_mutated(self):
        a = LossValue(1.0, {"v": np.ones(2)})
        b = LossValue(1.0, {"v": np.ones(2)})
        phase2_total(a, b, 2.0)
        assert np.allclose(a.grads["v"], 1.0)
        assert np.allclose(b.grads["v"], 1.0)

    def test_combined_gradients_match_fd(self):
        rng = np.random.default_rng(3)
        worst = max(check_phase2(rng) for _ in range(15))
        assert worst < 1e-6
