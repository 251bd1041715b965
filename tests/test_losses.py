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
from .gradcheck import _clear_of_kinks, check_infonce, check_phase2, \
    check_siamese, check_triplet
from .oracles import central_difference, relative_error


class TestLossValue:
    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            LossValue(float("nan"), np.zeros(2))
        with pytest.raises(FloatingPointError):
            LossValue(float("inf"), np.zeros(2))

    def test_finite_accepted(self):
        assert LossValue(0.5, np.zeros(2)).value == 0.5


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
        stacked = np.concatenate([s.grad for s in singles]) / 4.0
        assert np.allclose(batch.grad, stacked, atol=1e-12)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(0)
        worst = max(check_infonce(rng) for _ in range(25))
        assert worst < 1e-6

    def test_saturated_softmax_gradient_matches_fd(self):
        # draw 471 of this stream saturates the softmax (1 - p[label] below
        # 1e-12, gradient norm below 3e-11), where a label column computed
        # as p - 1 loses its last bits to cancellation: 1.3e-3 relative error
        rng = np.random.default_rng(12345)
        for _ in range(471):
            check_infonce(rng)
        assert check_infonce(rng) < 1e-6

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
        out = siamese_consistency_batch(np.concatenate([f, f]), bank)
        p = bank.soft_label_batch(f)
        entropy = -(p * np.log(p)).sum(axis=1).mean() * 2.0
        assert out.value == pytest.approx(entropy, abs=1e-10)
        assert out.grad.shape == (6, 5)
        assert np.allclose(out.grad, 0.0, atol=1e-12)

    def test_no_gradient_flows_into_targets_or_bank(self, rng):
        # the full (non-frozen) derivative would include an entropy term;
        # freezing the targets must remove it
        bank = PrototypeBank(unit_rows(rng, 4, 5))
        v = rng.standard_normal((4, 5))
        out = siamese_consistency_batch(v, bank)
        full_fd = central_difference(
            lambda m: siamese_consistency_batch(m, bank).value, v.copy())
        assert relative_error(out.grad, full_fd) > 1e-3

    def test_odd_row_count_rejected(self, rng):
        # rows i and n + i are one sample's two views: 3 rows pair nothing
        bank = PrototypeBank(unit_rows(rng, 3, 4))
        with pytest.raises(ValueError, match="even row count"):
            siamese_consistency_batch(np.zeros((3, 4)), bank)

    def test_gradients_match_frozen_fd(self):
        rng = np.random.default_rng(1)
        worst = max(check_siamese(rng) for _ in range(25))
        assert worst < 1e-6


class TestTriplet:
    @staticmethod
    def _mine_oracle(v, ids):
        """Hardest positive and negative per anchor by an explicit pair loop."""
        n = v.shape[0]
        d = np.maximum(2.0 - 2.0 * (v @ v.T), 0.0)
        hp = np.zeros(n, dtype=np.int64)
        hn = np.zeros(n, dtype=np.int64)
        for a in range(n):
            best_p, best_n = -np.inf, np.inf
            for j in range(n):
                if j == a:
                    continue
                if ids[j] == ids[a] and d[a, j] > best_p:
                    best_p, hp[a] = d[a, j], j
                if ids[j] != ids[a] and d[a, j] < best_n:
                    best_n, hn[a] = d[a, j], j
        return hp, hn

    @staticmethod
    def _triples_value(f_a, f_p, f_n, margin, soft_weight=True):
        """omega * [|a-p|^2 - |a-n|^2 + margin]_+, mean over given triples."""
        hinge = (((f_a - f_p) ** 2).sum(axis=1)
                 - ((f_a - f_n) ** 2).sum(axis=1) + margin)
        omega = (np.clip((f_a * f_p).sum(axis=1), 0, 1)
                 * np.clip((f_a * f_n).sum(axis=1), 0, 1)) if soft_weight else 1.0
        return float((omega * np.maximum(hinge, 0.0)).mean())

    def test_inactive_hinge_is_zero(self, rng):
        # each row's positive is itself, its negative its opposite: the
        # negative is far beyond the margin, so the hinge is off
        a = unit_rows(rng, 1, 4)
        v = np.concatenate([a, a, -a, -a])
        out = soft_weighted_triplet_batch(v, np.array([0, 0, 1, 1]), margin=0.3)
        assert out.value == 0.0
        assert np.allclose(out.grad, 0.0)

    def test_plain_hinge_value(self):
        # anchor 0's positive (0, 1) is 2 away, its negative (1, 0) is 0
        # away: hinge 2 - 0 + 0.3 = 2.3, with omega = 1 when off; the same
        # holds for every row by symmetry
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        out = soft_weighted_triplet_batch(v, np.array([0, 0, 1, 1]), 0.3,
                                          soft_weight=False)
        assert out.value == pytest.approx(2.3)

    def test_omega_scales_hinge(self, rng):
        # compare weighted and unweighted on the same mined, active triples
        ids = np.array([0, 0, 1, 1])
        while True:
            v = unit_rows(rng, 4, 5)
            hp, hn = self._mine_oracle(v, ids)
            sp = (v * v[hp]).sum(axis=1)
            sn = (v * v[hn]).sum(axis=1)
            hinge = (((v - v[hp]) ** 2).sum(axis=1)
                     - ((v - v[hn]) ** 2).sum(axis=1) + 0.4)
            if (hinge > 0.05).all() and ((0.01 < sp) & (sp < 0.99)
                                         & (0.01 < sn) & (sn < 0.99)).all():
                break
        plain = soft_weighted_triplet_batch(v, ids, 0.4, soft_weight=False)
        weighted = soft_weighted_triplet_batch(v, ids, 0.4)
        assert plain.value == pytest.approx(hinge.mean())
        assert weighted.value == pytest.approx((hinge * sp * sn).mean())

    def test_clamp_zeroes_negative_similarity(self):
        # each row's positive is its opposite: similarity -1 clamps to 0
        v = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        out = soft_weighted_triplet_batch(v, np.array([0, 0, 1, 1]), 0.5)
        assert out.value == 0.0

    def test_matches_explicit_mining(self, rng):
        for trial in range(20):
            b = int(rng.integers(2, 6))
            v = unit_rows(rng, 2 * b, 6)
            ids = np.concatenate([np.arange(b), np.arange(b)])
            hp, hn = self._mine_oracle(v, ids)
            soft_weight = trial % 2 == 0
            got = soft_weighted_triplet_batch(v, ids, 0.3, soft_weight)
            want = self._triples_value(v, v[hp], v[hn], 0.3, soft_weight)
            assert got.value == pytest.approx(want, abs=1e-12)

    def test_gradient_scatter_sums_all_roles(self, rng):
        # with two rows per identity one row can be several anchors' hardest
        # positive and negative at once; each role's gradient must land on
        # it, which the finite difference over v sees only if all are summed
        ids = np.array([0, 0, 1, 1])
        while True:
            v = unit_rows(rng, 4, 5)
            hp, hn = self._mine_oracle(v, ids)
            roles = np.bincount(np.concatenate([hp, hn]), minlength=4)
            if roles.max() >= 3 and _clear_of_kinks(v, ids, 0.3, clamp=True):
                break
        got = soft_weighted_triplet_batch(v, ids, 0.3)
        assert got.value > 0  # active hinges: the gradient is not all zero
        fd = central_difference(
            lambda x: self._triples_value(x, x[hp], x[hn], 0.3), v.copy())
        assert relative_error(got.grad, fd) < 1e-6

    def test_gradients_match_fd_all_variants(self):
        rng = np.random.default_rng(2)
        for sw in (True, False):
            worst = max(check_triplet(rng, soft_weight=sw) for _ in range(12))
            assert worst < 1e-6, sw

    @pytest.mark.parametrize("ids,match", [
        ([0, 0, 1], "one identity per row"),  # three ids for four rows
        ([0, 0, 0, 0], "2 identities"),  # no negative to mine
        ([0, 0, 1, 2], "2 identities"),  # identities 1 and 2 have no positive
    ], ids=["length", "one-identity", "singleton-identity"])
    def test_unminable_ids_rejected(self, rng, ids, match):
        with pytest.raises(ValueError, match=match):
            soft_weighted_triplet_batch(unit_rows(rng, 4, 5), np.array(ids), 0.3)


class TestPhase2Total:
    def test_linear_combination(self):
        a = LossValue(1.0, np.ones((2, 2)))
        b = LossValue(0.5, np.full((2, 2), 2.0))
        out = phase2_total(a, b, lambda_tri=0.5)
        assert out.value == pytest.approx(1.25)
        assert np.allclose(out.grad, 1.0 + 0.5 * 2.0)

    def test_inputs_not_mutated(self):
        a = LossValue(1.0, np.ones(2))
        b = LossValue(1.0, np.ones(2))
        phase2_total(a, b, 2.0)
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)

    def test_combined_gradients_match_fd(self):
        rng = np.random.default_rng(3)
        worst = max(check_phase2(rng) for _ in range(15))
        assert worst < 1e-6
