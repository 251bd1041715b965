"""Pool generation and the MCLF feature format."""

import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcl.data import (
    BadMagicError,
    DimensionMismatchError,
    FeatureFileError,
    GenSpec,
    Pool,
    TruncatedFileError,
    generate_pool,
    load_pool,
    write_features,
)
from mcl.trainer import TrainConfig


class TestGenSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GenSpec(1, 30, 64, 0.35, seed=0)
        with pytest.raises(ValueError):
            GenSpec(10, 1, 64, 0.35, seed=0)
        with pytest.raises(ValueError):
            GenSpec(10, 30, 0, 0.35, seed=0)
        with pytest.raises(ValueError):
            GenSpec(10, 30, 64, -0.1, seed=0)

    @pytest.mark.parametrize("field,value", [
        ("num_identities", 2.5), ("d_raw", 64.0), ("seed", -1),
        ("intra_class_sigma", float("nan")), ("d_raw", True),
    ])
    def test_error_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            GenSpec(**{field: value})


@pytest.mark.parametrize("cls", [GenSpec, TrainConfig])
def test_rules_name_every_numeric_field(cls):
    # a misspelt key would check nothing; a missing one leaves a field open
    numeric = {f.name for f in fields(cls) if type(f.default) in (int, float)}
    assert set(cls.RULES) == numeric


class TestGenerator:
    def test_shapes_and_labels(self):
        pool = generate_pool(GenSpec(5, 7, 12, 0.2, seed=0))
        assert len(pool) == 35
        assert pool.features.shape == (35, 12)
        assert pool.features.dtype == np.float32
        assert np.array_equal(pool.identities, np.repeat(np.arange(5), 7))
        assert pool.num_identities == 5

    def test_deterministic_for_fixed_spec(self):
        spec = GenSpec(6, 5, 10, 0.3, seed=11)
        a, b = generate_pool(spec), generate_pool(spec)
        assert a == b

    def test_seed_changes_features(self):
        a = generate_pool(GenSpec(6, 5, 10, 0.3, seed=1))
        b = generate_pool(GenSpec(6, 5, 10, 0.3, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_zero_noise_collapses_to_unit_means(self):
        # with sigma = 0 every sample equals its identity's mean direction,
        # which must sit on the unit sphere
        pool = generate_pool(GenSpec(10, 4, 16, 0.0, seed=2))
        norms = np.linalg.norm(pool.features.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)
        for ident in range(10):
            rows = pool.features[pool.identities == ident]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))

    def test_noise_moments(self):
        # residuals around the per-identity sample mean should look like
        # isotropic sigma-scale Gaussians (statistical, fixed seed)
        sigma, per_id = 0.25, 400
        pool = generate_pool(GenSpec(4, per_id, 32, sigma, seed=9))
        feats = pool.features.astype(np.float64)
        resid = []
        for ident in range(4):
            rows = feats[pool.identities == ident]
            resid.append(rows - rows.mean(axis=0))
        resid = np.concatenate(resid)
        assert abs(resid.std() - sigma) < 0.01
        assert abs(resid.mean()) < 0.01

    def test_means_spread_over_the_sphere(self):
        pool = generate_pool(GenSpec(50, 100, 24, 0.0, seed=4))
        means = np.stack([
            pool.features[pool.identities == i][0].astype(np.float64)
            for i in range(50)
        ])
        dots = means @ means.T
        np.fill_diagonal(dots, 0.0)
        # random unit directions in 24-d are near-orthogonal on average
        assert abs(dots.mean()) < 0.05


class TestPool:
    def test_validation(self):
        with pytest.raises(ValueError):
            Pool(np.zeros((3, 2, 1), dtype=np.float32), np.zeros(3))
        with pytest.raises(ValueError):
            Pool(np.full((2, 2), np.nan, dtype=np.float32), np.zeros(2))
        with pytest.raises(ValueError):
            Pool(np.zeros((3, 2), dtype=np.float32), np.zeros(2))
        with pytest.raises(ValueError):
            Pool(np.zeros((2, 2), dtype=np.float32), np.array([-1, 0]))
        # write_features would write it and load_pool refuse it
        with pytest.raises(DimensionMismatchError, match="zero feature dimension"):
            Pool(np.zeros((3, 0), dtype=np.float32), np.zeros(3))


class TestMCLFRoundTrip:
    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 12),
        labels=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bitwise(self, tmp_path_factory, n, d, labels, seed):
        rng = np.random.default_rng(seed)
        pool = Pool(rng.standard_normal((n, d)).astype(np.float32),
                    rng.integers(0, 5, size=n))
        path = tmp_path_factory.mktemp("mclf") / "pool.mclf"
        if labels:
            write_features(pool, path)
            back = load_pool(path)
            assert back.features.tobytes() == pool.features.tobytes()
            assert np.array_equal(back.identities, pool.identities)
        else:  # the program writes labels; label-less files come from outside
            path.write_bytes(struct.pack("<4sHHII", b"MCLF", 1, 0, n, d)
                             + pool.features.astype("<f4").tobytes())
            # the flags are checked before the payload length
            with pytest.raises(FeatureFileError,
                               match=r"pool\.mclf: flags 0x0, need 0x1"):
                load_pool(path)

    @pytest.mark.parametrize("flags", [0x0003, 0x0002])
    def test_flags_other_than_labels_refused(self, tmp_path, small_pool, flags):
        path = tmp_path / "x.mclf"
        write_features(small_pool, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 6, flags)
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFileError, match="flags"):
            load_pool(path)

    def test_identity_beyond_32_bits_is_refused(self, tmp_path):
        # the labels are stored as u32: 2**32 + 1 would read back as 1
        path = tmp_path / "x.mclf"
        pool = Pool(np.zeros((2, 3), dtype=np.float32), [1, 2**32 + 1])
        with pytest.raises(ValueError, match="2\\*\\*32"):
            write_features(pool, path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.mclf"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(BadMagicError):
            load_pool(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.mclf"
        path.write_bytes(b"MCLF\x01")
        with pytest.raises(TruncatedFileError):
            load_pool(path)

    def test_truncated_payload(self, tmp_path, small_pool):
        path = tmp_path / "x.mclf"
        write_features(small_pool, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TruncatedFileError):
            load_pool(path)

    def test_trailing_garbage(self, tmp_path, small_pool):
        path = tmp_path / "x.mclf"
        write_features(small_pool, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FeatureFileError):
            load_pool(path)

    def test_unsupported_version(self, tmp_path, small_pool):
        path = tmp_path / "x.mclf"
        write_features(small_pool, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFileError):
            load_pool(path)

    def test_dimension_check(self, tmp_path):
        # Pool refuses zero width, so the program never writes such a file
        path = tmp_path / "x.mclf"
        path.write_bytes(struct.pack("<4sHHII", b"MCLF", 1, 1, 3, 0)
                         + np.zeros(3, dtype="<u4").tobytes())
        with pytest.raises(DimensionMismatchError,
                           match=r"x\.mclf: zero feature dimension"):
            load_pool(path)


class TestLoadPool:
    def test_sniffs_both_formats(self, tmp_path, small_pool):
        # MCLF is the one pool format: CSV text is not a pool
        binary = tmp_path / "p.mclf"
        write_features(small_pool, binary)
        assert load_pool(binary) == small_pool
        csv_path = tmp_path / "p.csv"
        csv_path.write_text("d=2\n0.5,0.5\n0.1,0.9\n")
        with pytest.raises(BadMagicError):
            load_pool(csv_path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"\x00\x01\x02\x03")
        with pytest.raises(BadMagicError):
            load_pool(path)
