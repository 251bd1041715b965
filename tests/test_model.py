"""Encoder forward/backward, augmentation, Adam, schedule, checkpoint IO."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcl.data import BadMagicError, DimensionMismatchError, FeatureFileError, \
    TruncatedFileError
from mcl.model import (
    DegenerateEmbeddingError,
    EncoderParams,
    OptimizerState,
    adam_step,
    augment_batch,
    encode_backward,
    encode_batch,
    encode_forward,
    load_checkpoint,
    lr_at_epoch,
    normalize_rows,
    save_checkpoint,
)

from .conftest import pack_checkpoint
from .oracles import central_difference, relative_error


def _params(rng, d_raw=6, d_h=5, d_emb=4):
    return EncoderParams.random_init(d_raw, d_h, d_emb, rng)


class TestForward:
    def test_unit_norm_rows(self, rng):
        params = _params(rng)
        v = encode_batch(params, rng.standard_normal((20, 6)))
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-9)

    def test_matches_manual_mlp(self, rng):
        params = _params(rng)
        x = rng.standard_normal((7, 6))
        h = np.tanh(x @ params.W1.T + params.b1)
        u = h @ params.W2.T + params.b2
        want = u / np.linalg.norm(u, axis=1, keepdims=True)
        assert np.allclose(encode_batch(params, x), want, atol=1e-12)

    @pytest.mark.parametrize("dims", [(0, 4, 2), (6, 0, 4), (6, 4, 0)])
    def test_zero_width_rejected(self, rng, dims):
        with pytest.raises(ValueError, match="widths must be >= 1"):
            EncoderParams.random_init(*dims, rng)

    def test_degenerate_embedding_raises(self):
        params = EncoderParams(W1=np.eye(4), b1=np.zeros(4),
                               W2=np.zeros((3, 4)), b2=np.zeros(3))
        with pytest.raises(DegenerateEmbeddingError):
            encode_batch(params, np.ones((2, 4)))

    def test_non_finite_input_rejected(self, rng):
        params = _params(rng)
        x = np.full((2, 6), np.inf)
        with pytest.raises(ValueError):
            encode_batch(params, x)

    def test_normalize_rows(self):
        x = np.arange(12, dtype=np.float64).reshape(2, 6) - 3.0
        v, norms = normalize_rows(x)
        assert np.array_equal(norms, np.linalg.norm(x, axis=1))
        assert np.array_equal(v, x / np.linalg.norm(x, axis=1, keepdims=True))


class TestBackward:
    def _loss_through_encoder(self, params, x, target):
        """Scalar probe: sum(v * target), linear in v."""
        v, cache = encode_forward(params, x)
        return float((v * target).sum()), cache

    def test_parameter_gradients_match_fd(self, rng):
        # every parameter tensor; not at d_h = 1, where (with b2 = 0) the
        # output is constant and the W1 difference is noise
        for d_h in (5, 2):
            params = EncoderParams.random_init(6, d_h, 4, rng)
            x = rng.standard_normal((3, 6))
            target = rng.standard_normal((3, 4))
            v, cache = encode_forward(params, x)
            grads = encode_backward(params, cache, target)
            for name, tensor in params.tensors():
                def fn(w, name=name, tensor=tensor):
                    old = tensor.copy()
                    tensor[...] = w
                    out, _ = self._loss_through_encoder(params, x, target)
                    tensor[...] = old
                    return out
                fd = central_difference(fn, tensor.copy())
                assert relative_error(grads[name], fd) < 1e-6, (d_h, name)

    def test_batch_gradient_is_sum_of_rows(self, rng):
        params = _params(rng)
        x = rng.standard_normal((4, 6))
        g = rng.standard_normal((4, 4))
        full = encode_backward(params, encode_forward(params, x)[1], g)
        acc = {}
        for i in range(4):
            row = encode_backward(params, encode_forward(params, x[i:i + 1])[1],
                                  g[i:i + 1])
            for name, val in row.items():
                acc[name] = acc.get(name, 0.0) + val
        for name in full:
            assert np.allclose(full[name], acc[name], atol=1e-12)


class TestAugment:
    def test_zero_settings_are_identity(self, rng):
        x = rng.standard_normal((5, 8))
        out = augment_batch(x, rng, sigma_aug=0.0, drop_p=0.0)
        assert np.array_equal(out, x)

    def test_noise_only_statistics(self):
        rng = np.random.default_rng(0)
        x = np.zeros((20000, 4))
        out = augment_batch(x, rng, sigma_aug=0.3, drop_p=0.0)
        assert abs(out.mean()) < 0.01
        assert abs(out.std() - 0.3) < 0.01

    def test_dropout_is_unbiased(self):
        # survivor rescaling keeps E[augment_batch(x)] = x
        rng = np.random.default_rng(1)
        x = np.full((200000, 1), 2.0)
        out = augment_batch(x, rng, sigma_aug=0.0, drop_p=0.4)
        kept = out != 0.0
        assert abs(kept.mean() - 0.6) < 0.01
        assert np.allclose(out[kept], 2.0 / 0.6)
        assert abs(out.mean() - 2.0) < 0.02

    def test_parameter_validation(self, rng):
        x = np.zeros((2, 2))
        with pytest.raises(ValueError):
            augment_batch(x, rng, sigma_aug=-0.1, drop_p=0.0)
        with pytest.raises(ValueError):
            augment_batch(x, rng, sigma_aug=0.0, drop_p=1.0)

    def test_deterministic_under_seeded_rng(self):
        x = np.random.default_rng(2).standard_normal((6, 4))
        a = augment_batch(x, np.random.default_rng(9), 0.1, 0.2)
        b = augment_batch(x, np.random.default_rng(9), 0.1, 0.2)
        assert np.array_equal(a, b)


def _with_w2(w2):
    """An encoder of output weight w2 over a hidden layer W1 = I."""
    d_h = w2.shape[1]
    return EncoderParams(W1=np.eye(d_h), b1=np.zeros(d_h), W2=w2,
                         b2=np.zeros(len(w2)))


def _grads(params, g_w2):
    """Gradient g_w2 on W2 and zero on every other tensor."""
    grads = {name: np.zeros_like(p) for name, p in params.tensors()}
    grads["W2"] = g_w2
    return grads


class TestAdam:
    def test_first_step_closed_form(self):
        # with zero moments the bias corrections cancel exactly:
        # p1 = p0 - lr * g / (|g| + eps), then the decoupled decay shrink
        lr, wd, eps = 0.01, 0.1, 1e-8
        p0 = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.2, 0.0]])
        params = _with_w2(p0.copy())
        state = OptimizerState.for_params(params, lr=lr, weight_decay=wd)
        adam_step(params, _grads(params, g), state)
        want = p0 - lr * g / (np.abs(g) + eps)
        want -= lr * wd * want
        assert np.allclose(params.W2, want, atol=1e-15)
        assert state.step == 1

    def test_two_steps_closed_form(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        p = np.array([[2.0]])
        params = _with_w2(p.copy())
        state = OptimizerState.for_params(params, lr=lr)
        g1, g2 = np.array([[0.4]]), np.array([[-0.1]])
        adam_step(params, _grads(params, g1), state)
        adam_step(params, _grads(params, g2), state)
        m = (1 - b1) * g1
        v = (1 - b2) * g1 ** 2
        p_ref = p - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 ** 2
        p_ref -= lr * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)
        assert np.allclose(params.W2, p_ref, atol=1e-15)

    def test_quadratic_bowl_convergence(self, rng):
        target = rng.standard_normal((3, 4))
        params = _with_w2(np.zeros((3, 4)))
        state = OptimizerState.for_params(params, lr=0.05)
        for _ in range(600):
            adam_step(params, _grads(params, params.W2 - target), state)
        assert np.abs(params.W2 - target).max() < 1e-3

    def test_shape_mismatch_rejected(self, rng):
        params = _params(rng)
        state = OptimizerState.for_params(params, lr=0.001)
        grads = {name: np.zeros_like(p) for name, p in params.tensors()}
        grads["W2"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            adam_step(params, grads, state)

    def test_weight_decay_shrinks_without_gradient(self):
        params = _with_w2(np.ones((2, 2)))
        state = OptimizerState.for_params(params, lr=0.1, weight_decay=0.5)
        adam_step(params, _grads(params, np.zeros((2, 2))), state)
        # zero gradient: the main update is 0/(0+eps) = 0, decay remains
        assert np.allclose(params.W2, np.ones((2, 2)) * (1 - 0.1 * 0.5))


class TestSchedule:
    def test_three_plateaus(self):
        base = 3.5e-4
        for total in (60, 30, 9):
            lo, hi = total // 3, 2 * total // 3
            for epoch in range(total):
                got = lr_at_epoch(base, epoch, total)
                if epoch < lo:
                    assert got == pytest.approx(base)
                elif epoch < hi:
                    assert got == pytest.approx(base * 0.1)
                else:
                    assert got == pytest.approx(base * 0.01)

    def test_short_run_never_decays_before_first_boundary(self):
        assert lr_at_epoch(1.0, 0, 2) == pytest.approx(1.0)
        assert lr_at_epoch(1.0, 1, 2) == pytest.approx(0.1)


class TestCheckpoint:
    def test_round_trip_hidden(self, rng, tmp_path):
        params = _params(rng)
        path = tmp_path / "enc.mclp"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(params.tensors(), back.tensors()):
            assert n1 == n2
            assert np.array_equal(t1, t2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.mclp"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_truncated(self, rng, tmp_path):
        params = _params(rng)
        path = tmp_path / "x.mclp"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "x.mclp"
        save_checkpoint(_params(rng), path)
        path.write_bytes(path.read_bytes() + b"\0" * 14)
        with pytest.raises(FeatureFileError, match="trailing"):
            load_checkpoint(path)

    def test_header_promising_more_than_the_file_holds(self, tmp_path):
        # every width at u32's maximum promises ~3e20 bytes: the payload
        # length is checked before any tensor is allocated
        path = tmp_path / "x.mclp"
        path.write_bytes(struct.pack("<4sHIII", b"MCLP", 2, *[2**32 - 1] * 3)
                         + b"\0" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError, match="payload has 64 bytes"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("dims", [(0, 3, 2), (4, 3, 0), (0, 0, 2),
                                      (4, 0, 2)])
    def test_zero_input_or_embedding_width_rejected(self, tmp_path, dims):
        path = tmp_path / "x.mclp"
        path.write_bytes(struct.pack("<4sHIII", b"MCLP", 2, *dims))
        with pytest.raises(DimensionMismatchError,
                           match="zero d_raw, d_h or d_emb"):
            load_checkpoint(path)

    def test_shapes_must_chain(self, rng, tmp_path):
        # a file cannot break the chain, so save refuses to write one that would
        params = _params(rng)
        params.b1 = np.zeros(params.b1.size + 1)
        path = tmp_path / "x.mclp"
        with pytest.raises(ValueError, match="do not chain"):
            save_checkpoint(params, path)
        assert not path.exists()

    def test_missing_hidden_layer_rejected(self, rng, tmp_path):
        params = _params(rng)
        params.W1 = params.b1 = None
        path = tmp_path / "x.mclp"
        with pytest.raises(ValueError, match="needs all of W1, b1, W2 and b2"):
            save_checkpoint(params, path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, rng, tmp_path, name, value):
        # refused on write, before the file opens: no partial file is left
        params = _params(rng)
        getattr(params, name).flat[1] = value
        path = tmp_path / "x.mclp"
        with pytest.raises(ValueError, match=f"non-finite values in {name}"):
            save_checkpoint(params, path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_file_rejected_on_load(self, rng, tmp_path, name,
                                              value):
        params = _params(rng)
        getattr(params, name).flat[1] = value
        path = tmp_path / "x.mclp"
        pack_checkpoint(path, *(t for _, t in params.tensors()))
        with pytest.raises(FeatureFileError,
                           match=f"non-finite values in {name}"):
            load_checkpoint(path)

    @given(seed=st.integers(0, 10_000), d_h=st.sampled_from([1, 3, 8]))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bitwise_property(self, tmp_path_factory, seed, d_h):
        rng = np.random.default_rng(seed)
        params = EncoderParams.random_init(5, d_h, 4, rng)
        path = tmp_path_factory.mktemp("ckpt") / "enc.mclp"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        for (_, t1), (_, t2) in zip(params.tensors(), back.tensors()):
            assert t1.tobytes() == t2.tobytes()
