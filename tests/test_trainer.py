"""Split plans, PK sampling, widening, the two phases, and full runs."""

import json
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcl.data import GenSpec, Pool, generate_pool
from mcl.geometry import ENTRY_COUNTER
from mcl.losses import phase2_total, siamese_consistency_batch, \
    soft_weighted_triplet_batch
from mcl.model import EncoderParams, OptimizerState, augment_batch, \
    encode_backward, encode_batch, encode_forward
from mcl.protobank import NoClustersError, PrototypeBank
from mcl.trainer import (
    EPS_CEILING,
    NumericError,
    TrainConfig,
    _check_regime,
    _cluster_with_widening,
    epoch_split,
    holdout_split,
    label_groups,
    pk_sample,
    run_phase1_epoch,
    run_phase2_epoch,
    train,
)

from .conftest import unit_rows
from .oracles import holdout_split_reference, pk_sample_reference


def _fast_config(**overrides):
    base = dict(n_subsets=2, epochs=3, warmup_epochs=1, p_identities=4,
                i_instances=4, p2_identities=4, i2_instances=4, d_hidden=16,
                d_emb=8, k_neighbors=8, holdout_fraction=0.25, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_float_fields_take_ints(self):
        assert TrainConfig(lr=1, eps=0).lr == 1

    @pytest.mark.parametrize("field,value", [
        ("n_subsets", 0), ("epochs", 0), ("warmup_epochs", 60),
        ("p_identities", 0), ("i2_instances", 3), ("momentum_m", 1.2),
        ("tau", 0.0), ("margin", -0.1), ("eps", -1.0), ("min_pts", 0),
        ("k_neighbors", 0), ("min_cluster_fraction", 1.5),
        ("holdout_fraction", 1.0), ("d_emb", 0), ("d_hidden", -1),
        ("d_hidden", 0), ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
        ("weight_decay", -1e-4), ("lambda_tri", float("inf")),
        ("tau", float("nan")), ("eps", 1.0), ("eps", 1.5),
        ("lr", "abc"), ("lr", True), ("margin", None), ("epochs", 30.0),
        ("seed", True), ("k_neighbors", "30"), ("sigma_aug", -1.0),
        ("drop_p", 1.0), ("drop_p", -0.1), ("lambda_tri", -2.0),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            TrainConfig().epochs = 3

    def test_from_dict_rejects_lambda_alias(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_dict({"lambda": 2.5, "epochs": 10})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config"):
            TrainConfig.from_dict({"learning_rate": 0.1})

    def test_round_trip(self):
        cfg = TrainConfig(epochs=7, margin=0.4, seed=3)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_benchmark_fixtures(self):
        # the defaults are the acceptance gate's pool and run
        spec = GenSpec()
        assert (spec.num_identities, spec.samples_per_identity) == (200, 30)
        assert (spec.d_raw, spec.intra_class_sigma, spec.seed) == (64, 0.35, 1)
        cfg = TrainConfig()
        assert (cfg.n_subsets, cfg.epochs, cfg.warmup_epochs) == (2, 30, 5)
        assert (cfg.lambda_tri, cfg.min_cluster_fraction) == (1.5, 0.3)
        assert cfg.seed == 1


class TestEpochSplit:
    @given(n=st.integers(2, 300), subsets=st.integers(1, 8),
           seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_disjoint_cover_with_near_equal_sizes(self, n, subsets, seed):
        if subsets > n:
            subsets = n
        parts = epoch_split(n, subsets, seed)
        assert len(parts) == subsets
        joined = np.concatenate(parts)
        assert np.array_equal(np.sort(joined), np.arange(n))
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_per_seed(self):
        a = np.concatenate(epoch_split(50, 3, 123))
        b = np.concatenate(epoch_split(50, 3, 123))
        c = np.concatenate(epoch_split(50, 3, 124))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bounds(self):
        with pytest.raises(ValueError):
            epoch_split(5, 6, 0)
        with pytest.raises(ValueError):
            epoch_split(5, 0, 0)


class TestPkSample:
    def test_composition(self, rng):
        labels = np.repeat(np.arange(6), 10)
        pos = pk_sample(label_groups(labels), p=3, i=4, rng=rng)
        assert pos.shape == (12,)
        chosen = labels[pos]
        uniq, counts = np.unique(chosen, return_counts=True)
        assert uniq.size == 3
        assert np.all(counts == 4)

    def test_without_replacement_when_enough_members(self, rng):
        labels = np.repeat(np.arange(3), 8)
        for _ in range(20):
            pos = pk_sample(label_groups(labels), p=2, i=8, rng=rng)
            assert np.unique(pos).size == pos.size

    def test_replacement_only_when_scarce(self, rng):
        labels = np.array([0, 0, 1])  # label 1 has a single member
        pos = pk_sample(label_groups(labels), p=2, i=2, rng=rng)
        assert labels[pos].tolist().count(1) == 2
        assert (pos == 2).sum() == 2  # the lone member repeats

    def test_needs_enough_labels(self, rng):
        with pytest.raises(ValueError):
            pk_sample(label_groups(np.array([0, 0, 1])), p=3, i=1, rng=rng)

    def test_label_choice_is_uniform(self):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(6), 4)
        hits = np.zeros(6)
        trials = 3000
        for _ in range(trials):
            chosen = np.unique(
                labels[pk_sample(label_groups(labels), p=2, i=1, rng=rng)])
            hits[chosen] += 1
        expect = trials * 2 / 6
        sd = np.sqrt(trials * (2 / 6) * (1 - 2 / 6))
        assert np.all(np.abs(hits - expect) < 5 * sd)

    def test_equals_the_scanning_reference(self):
        # sparse, unordered label values; a singleton label, so that the
        # with-replacement path runs; p up to every label
        gen = np.random.default_rng(11)
        for trial in range(60):
            m = int(gen.integers(1, 12))
            counts = gen.integers(1, 6, size=m)
            counts[0] = 1
            labels = gen.permutation(
                np.repeat(gen.choice(1000, size=m, replace=False), counts))
            p = m if trial % 3 == 0 else int(gen.integers(1, m + 1))
            i = int(gen.integers(1, 6))
            ours, ref = np.random.default_rng(trial), np.random.default_rng(trial)
            got = pk_sample(label_groups(labels), p, i, ours)
            want = pk_sample_reference(labels, p, i, ref)
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_a_draw_does_not_scan_the_labels(self):
        # 200 000 rows in 2 000 labels: one np.unique copy of them is 1.6 MB
        labels = np.random.default_rng(0).permutation(
            np.repeat(np.arange(2000), 100))
        groups = label_groups(labels)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            pk_sample(groups, 16, 2, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


class TestLabelGroups:
    def test_groups_partition_the_positions_in_label_order(self):
        gen = np.random.default_rng(12)
        for _ in range(40):
            values = gen.choice(1000, size=8, replace=False)
            labels = gen.choice(values, size=int(gen.integers(1, 80)))
            groups = label_groups(labels)
            assert np.array_equal(np.sort(np.concatenate(groups)),
                                  np.arange(labels.size))
            # one label per group, ascending positions, labels increasing
            assert np.all(np.diff([labels[g[0]] for g in groups]) > 0)
            for g in groups:
                assert np.all(np.diff(g) > 0)
                assert np.all(labels[g] == labels[g[0]])

    def test_empty_labels_give_no_groups(self):
        assert label_groups(np.array([], dtype=np.int64)) == []


class TestWidening:
    def _block_matrix(self, spreads, block=4):
        """Blocks with the given internal distances, 1.0 across blocks."""
        n = block * len(spreads)
        d = np.ones((n, n))
        for b, spread in enumerate(spreads):
            lo = b * block
            d[lo:lo + block, lo:lo + block] = spread
        np.fill_diagonal(d, 0.0)
        return d

    def test_widens_past_a_lone_cluster(self):
        # eps 0.1 clusters only the first block: one cluster is never
        # adequate, so eps widens until the second block forms
        dm = self._block_matrix([0.05, 0.45, 0.97])
        got, eps = _cluster_with_widening(dm, eps=0.1, min_pts=2)
        assert 0.45 <= eps < 0.5
        assert got.num_clusters == 2
        assert got.num_outliers == 4

    def test_lone_cluster_is_the_last_resort(self):
        # the second block never clusters below the ceiling: the lone
        # cluster comes back, at the earliest eps that formed it
        dm = self._block_matrix([0.05, 0.97])
        got, eps = _cluster_with_widening(dm, eps=0.1, min_pts=2)
        assert eps == 0.1
        assert got.num_clusters == 1
        assert got.num_outliers == 4

    def test_widens_until_coverage(self):
        dm = self._block_matrix([0.05, 0.45, 0.97])
        got, eps = _cluster_with_widening(dm, eps=0.1, min_pts=2,
                                          min_fraction=0.5)
        assert 0.45 <= eps < 0.5
        assert got.num_clusters == 2
        assert got.num_outliers == 4

    def test_falls_back_to_best_seen(self):
        # third block never clusters below the ceiling; coverage tops out
        # at 2/3, and the assignment at the earliest eps that reached it is
        # returned, not the one at the ceiling
        dm = self._block_matrix([0.05, 0.45, 0.97])
        got, eps = _cluster_with_widening(dm, eps=0.1, min_pts=2,
                                          min_fraction=0.9)
        assert 0.45 <= eps < 0.5
        assert got.num_clusters == 2
        assert got.num_outliers == 4

    def test_error_when_nothing_ever_clusters(self):
        dm = self._block_matrix([0.97, 0.97])
        with pytest.raises(NoClustersError):
            _cluster_with_widening(dm, eps=0.1, min_pts=2)

    def test_radii_are_decimals(self):
        # 0.7 + 0.05 + 0.05 + 0.05 sums to 0.8500000000000001 in floating
        # point; the radius, and report.json's eps_used, must read 0.85
        dm = self._block_matrix([0.82, 0.82])
        got, eps = _cluster_with_widening(dm, eps=0.7, min_pts=2)
        assert eps == 0.85
        assert got.num_clusters == 2

    def test_ceiling_respected(self):
        dm = self._block_matrix([0.94, 0.97])
        got, eps = _cluster_with_widening(dm, eps=0.9, min_pts=2)
        assert eps <= EPS_CEILING
        assert got.num_clusters == 1


class TestPhase1:
    def test_trains_and_reports(self, small_pool):
        cfg = _fast_config()
        feats = small_pool.features.astype(np.float64)[:72]
        rng = np.random.default_rng(0)
        params = EncoderParams.random_init(small_pool.d_raw, cfg.d_hidden,
                                           cfg.d_emb, rng)
        opt = OptimizerState.for_params(params, lr=cfg.lr)
        before = params.W2.copy()
        entries0 = ENTRY_COUNTER.total
        bank, stats = run_phase1_epoch(feats, params, opt, cfg,
                                       np.random.default_rng(1))
        assert ENTRY_COUNTER.total - entries0 == 2 * 72 * 72
        assert bank.num_classes == stats.assignment.num_clusters >= 1
        assert stats.assignment.labels.shape == (72,)
        assert all(np.isfinite(v) for v in stats.losses)
        assert not np.array_equal(params.W2, before)
        assert stats.eps_used >= cfg.eps


class TestPhase2:
    def _setup(self, rng, k=3, d=6):
        bank = PrototypeBank(unit_rows(rng, k, d))
        params = EncoderParams.random_init(d, 8, d, rng)
        opt = OptimizerState.for_params(params, lr=1e-3)
        return bank, params, opt

    def test_cross_subset_label_spaces_disjoint(self, rng):
        cfg = _fast_config(p2_identities=2, i2_instances=2)
        bank, params, opt = self._setup(rng, k=3, d=6)
        feats = rng.standard_normal((30, 6))
        rest = [np.arange(0, 10), np.arange(10, 20), np.arange(20, 30)]
        stats = run_phase2_epoch(feats, rest, bank, params, opt, cfg,
                                 np.random.default_rng(2))
        assert np.array_equal(stats.positions, np.arange(30))
        for j in range(3):
            ids_j = stats.hardened[10 * j:10 * (j + 1)]
            assert np.all((ids_j >= 3 * j) & (ids_j < 3 * (j + 1)))

    def test_shared_label_space_ablation_collapses_offsets(self, rng):
        cfg = _fast_config(p2_identities=2, i2_instances=2)
        bank, params, opt = self._setup(rng, k=3, d=6)
        feats = rng.standard_normal((20, 6))
        rest = [np.arange(0, 10), np.arange(10, 20)]
        stats = run_phase2_epoch(feats, rest, bank, params, opt, cfg,
                                 np.random.default_rng(2), "shared")
        assert np.all((stats.hardened >= 0) & (stats.hardened < 3))

    def test_single_prototype_skips_triplet_with_warning(self, rng):
        cfg = _fast_config(p2_identities=2, i2_instances=2)
        bank = PrototypeBank(unit_rows(rng, 1, 6))
        params = EncoderParams.random_init(6, 8, 6, rng)
        opt = OptimizerState.for_params(params, lr=1e-3)
        feats = rng.standard_normal((8, 6))
        with pytest.warns(UserWarning, match="single prototype"):
            stats = run_phase2_epoch(feats, [np.arange(8)], bank, params, opt,
                                     cfg, np.random.default_rng(0))
        assert stats.triplet_skipped == len(stats.losses)

    def test_updates_parameters(self, rng):
        cfg = _fast_config(p2_identities=2, i2_instances=2)
        bank, params, opt = self._setup(rng, k=4, d=6)
        before = params.W2.copy()
        feats = rng.standard_normal((16, 6))
        run_phase2_epoch(feats, [np.arange(16)], bank, params, opt, cfg,
                         np.random.default_rng(3))
        assert not np.array_equal(params.W2, before)

    def test_stacked_step_matches_per_view_gradients(self, rng, monkeypatch):
        # 8 samples fill one batch of up to 4 identities x 2 samples x 2 views
        cfg = _fast_config(p2_identities=4, i2_instances=4)
        bank = PrototypeBank(unit_rows(rng, 4, 6))
        params = EncoderParams.random_init(6, 5, 6, rng)
        opt = OptimizerState.for_params(params, lr=1e-3)
        feats = rng.standard_normal((8, 6))
        applied, calls = [], {"forward": 0, "backward": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr("mcl.trainer.adam_step",
                            lambda params, grads, opt: applied.append(grads))
        monkeypatch.setattr("mcl.trainer.encode_forward",
                            counted("forward", encode_forward))
        monkeypatch.setattr("mcl.trainer.encode_backward",
                            counted("backward", encode_backward))
        run_phase2_epoch(feats, [np.arange(8)], bank, params, opt, cfg,
                         np.random.default_rng(4))
        assert len(applied) == 1
        assert calls == {"forward": 1, "backward": 1}

        # the same draws, each view through its own forward and backward
        ids = bank.harden(bank.soft_label_batch(encode_batch(params, feats)))
        draw = np.random.default_rng(4)
        groups = label_groups(ids)
        local = pk_sample(groups, min(4, len(groups)), 2, draw)
        view_a = augment_batch(feats[local], draw, cfg.sigma_aug, cfg.drop_p)
        view_b = augment_batch(feats[local], draw, cfg.sigma_aug, cfg.drop_p)
        va, cache_a = encode_forward(params, view_a)
        vb, cache_b = encode_forward(params, view_b)
        v2 = np.concatenate([va, vb])
        assert np.unique(ids[local]).size >= 2  # the triplet term runs
        gv = phase2_total(
            siamese_consistency_batch(v2, bank),
            soft_weighted_triplet_batch(v2, np.tile(ids[local], 2), cfg.margin),
            cfg.lambda_tri).grad
        b = va.shape[0]
        want = encode_backward(params, cache_a, gv[:b])
        for name, g in encode_backward(params, cache_b, gv[b:]).items():
            want[name] += g
        assert set(applied[0]) == set(want)
        for name, g in want.items():
            assert np.allclose(applied[0][name], g, rtol=0, atol=1e-12), name


class TestHoldout:
    def test_split_structure(self, small_pool):
        train_pos, query, gallery = holdout_split(small_pool, 0.25)
        ids = small_pool.identities
        cut = int(round(24 * 0.75))
        assert np.all(ids[train_pos] < cut)
        assert np.all(ids[query] >= cut)
        assert np.all(ids[gallery] >= cut)
        # one query per held-out identity, its lowest position
        held = np.unique(ids[np.concatenate([query, gallery])])
        assert query.size == held.size
        for q in query:
            assert q == np.flatnonzero(ids == ids[q]).min()
        # query and gallery partition the held-out rows
        eval_rows = np.sort(np.concatenate([query, gallery]))
        assert np.array_equal(eval_rows, np.flatnonzero(ids >= cut))

    def test_no_holdout_reuses_train_pool(self, small_pool):
        train_pos, query, gallery = holdout_split(small_pool, 0.0)
        assert train_pos.size == len(small_pool)
        assert np.all(np.isin(query, train_pos))

    def test_singletons_skipped(self):
        feats = np.random.default_rng(0).standard_normal((7, 4)).astype(np.float32)
        ids = np.array([0, 0, 1, 2, 2, 3, 3])  # held-out identity 1 is a singleton
        pool = Pool(feats, ids)
        train_pos, query, gallery = holdout_split(pool, 0.75)
        evaluated = ids[np.concatenate([query, gallery])]
        assert 1 not in evaluated
        assert set(evaluated) == {2, 3}

    def test_fraction_counts_identities_not_id_values(self):
        # 16 identities with sparse ids: 0.25 holds out 4 of them, not the 8
        # that 0.25 of the id range 0..1007 would
        ids = np.repeat(np.r_[0:8, 1000:1008], 2)
        pool = Pool(np.zeros((ids.size, 3), dtype=np.float32), ids)
        train_pos, query, gallery = holdout_split(pool, 0.25)
        assert set(ids[train_pos]) == set(range(8)) | set(range(1000, 1004))
        assert np.array_equal(ids[query], np.arange(1004, 1008))
        assert set(ids[gallery]) == set(range(1004, 1008))

    @pytest.mark.parametrize("num_ids,fraction", [(3, 0.25), (2, 0.25),
                                                  (1, 0.0)])
    def test_fewer_than_two_evaluated_identities_refused(self, num_ids,
                                                         fraction):
        # 3 ids at 0.25 hold out one, whose retrieval scores mAP 1.0
        # vacuously; 2 at 0.25 hold out none, which must not fall back to
        # scoring the training identities
        ids = np.repeat(np.arange(num_ids), 4)
        pool = Pool(np.zeros((ids.size, 3), dtype=np.float32), ids)
        with pytest.raises(ValueError, match="no evaluable"):
            holdout_split(pool, fraction)

    @pytest.mark.parametrize("fraction", [-3.0, -0.01, 1.0, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, small_pool, fraction):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            holdout_split(small_pool, fraction)

    def test_error_when_nothing_evaluable(self):
        feats = np.zeros((3, 4), dtype=np.float32)
        pool = Pool(feats, np.array([0, 0, 1]))  # identity 1 is a singleton
        with pytest.raises(ValueError, match="no evaluable"):
            holdout_split(pool, 0.4)

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75])
    def test_equals_the_identity_loop_reference(self, fraction):
        # sparse, unordered ids with 1-4 rows each, singletons among them
        gen = np.random.default_rng(13)
        refused = 0
        for _ in range(40):
            m = int(gen.integers(2, 20))
            ids = gen.permutation(np.repeat(gen.choice(500, size=m, replace=False),
                                            gen.integers(1, 5, size=m)))
            pool = Pool(np.zeros((ids.size, 2), dtype=np.float32), ids)
            try:
                want = holdout_split_reference(ids, fraction)
            except ValueError as exc:
                refused += 1
                with pytest.raises(ValueError) as got:
                    holdout_split(pool, fraction)
                assert str(got.value) == str(exc)
                continue
            for got, ref in zip(holdout_split(pool, fraction), want):
                assert np.array_equal(got, ref) and got.dtype == ref.dtype
        assert refused < 20

    @pytest.mark.parametrize("ids", [np.arange(6), np.array([], dtype=np.int64)],
                             ids=["all-singleton", "0-row"])
    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_refusal_reads_as_the_reference(self, ids, fraction):
        pool = Pool(np.zeros((ids.size, 2), dtype=np.float32), ids)
        with pytest.raises(ValueError) as want:
            holdout_split_reference(ids, fraction)
        with pytest.raises(ValueError, match="no evaluable") as got:
            holdout_split(pool, fraction)
        assert str(got.value) == str(want.value)


class TestTrain:
    def test_mcl_run_structure(self, small_pool):
        # one identity per phase-2 batch: every batch skips its triplet term
        cfg = _fast_config(p2_identities=1)
        params, report = train(small_pool, cfg, regime="mcl")
        assert report.regime == "mcl"
        assert len(report.epochs) == 3
        assert report.n_train == 108  # 18 of 24 identities x 6 samples
        warm = report.epochs[0]
        assert warm.n_phase2 == 0  # warmup epoch
        assert np.isnan(warm.phase2_loss)
        later = report.epochs[-1]
        assert later.n_phase2 == 54  # 27 batches of 1 identity x 2 samples
        assert 0.0 <= report.final_map <= 1.0
        assert report.total_entries == sum(e.distance_entries for e in report.epochs)
        d = report.to_dict()
        assert json.dumps(d, allow_nan=False)  # strict JSON
        assert [e["triplet_skipped"] for e in d["epochs"]] == [0, 27, 27]

    def test_all_regime_clusters_everything(self, small_pool):
        cfg = _fast_config(n_subsets=3)
        params, report = train(small_pool, cfg, regime="all")
        for e in report.epochs:
            assert e.n_phase1 == report.n_train
            assert e.n_phase2 == 0
            assert e.distance_entries == 2 * report.n_train ** 2

    def test_naive_regime_consumes_stages(self, small_pool):
        cfg = _fast_config(epochs=3, n_subsets=2, warmup_epochs=0)
        params, report = train(small_pool, cfg, regime="naive")
        n = report.n_train
        sizes = [e.n_phase1 for e in report.epochs]
        # stage plan for 3 epochs over 2 subsets: [2, 1] epochs per stage
        assert sizes[0] == sizes[1] == int(np.ceil(n / 2))
        assert sizes[2] == n - sizes[0]
        assert all(e.n_phase2 == 0 for e in report.epochs)

    def test_mcl_entries_are_quarter_of_all(self, small_pool):
        full = train(small_pool, _fast_config(), regime="all")[1]
        half = train(small_pool, _fast_config(), regime="mcl")[1]
        n = full.n_train
        assert full.epochs[0].distance_entries == 2 * n * n
        assert half.epochs[0].distance_entries == 2 * (n // 2) ** 2

    def test_bitwise_determinism(self, small_pool):
        cfg = _fast_config()
        p1, r1 = train(small_pool, cfg, regime="mcl")
        p2, r2 = train(small_pool, cfg, regime="mcl")
        for (n1, t1), (n2, t2) in zip(p1.tensors(), p2.tensors()):
            assert t1.tobytes() == t2.tobytes(), n1
        assert [e.mean_ap for e in r1.epochs] == [e.mean_ap for e in r2.epochs]
        assert [e.label_correct for e in r1.epochs] == \
               [e.label_correct for e in r2.epochs]

    def test_seed_changes_outcome(self, small_pool):
        r1 = train(small_pool, _fast_config(seed=0), regime="mcl")[1]
        r2 = train(small_pool, _fast_config(seed=1), regime="mcl")[1]
        assert [e.mean_ap for e in r1.epochs] != [e.mean_ap for e in r2.epochs]

    def test_fixed_split_changes_later_epochs(self, small_pool):
        r_free = train(small_pool, _fast_config(epochs=2), regime="mcl")[1]
        r_fix = train(small_pool, _fast_config(epochs=2), regime="fixed")[1]
        # epoch 0 uses the same plan either way; epoch 1 re-splits only
        # without the ablation (mAP may saturate, the loss cannot coincide)
        assert r_free.epochs[0].phase1_loss == r_fix.epochs[0].phase1_loss
        assert r_free.epochs[1].phase1_loss != r_fix.epochs[1].phase1_loss

    @pytest.mark.parametrize("ablation", ["no_sc", "plain"])
    def test_phase2_ablation_trains_other_weights(self, small_pool, ablation):
        # both act only in phase 2, so reaching it must change the weights
        cfg = _fast_config(epochs=2)
        full = train(small_pool, cfg, regime="mcl")[0]
        ablated, report = train(small_pool, cfg, regime=ablation)
        assert report.epochs[-1].n_phase2 > 0
        assert report.regime == ablation
        assert any(a.tobytes() != b.tobytes() for (_, a), (_, b)
                   in zip(full.tensors(), ablated.tensors()))

    def test_invalid_regime_rejected(self, small_pool):
        with pytest.raises(ValueError, match="regime"):
            train(small_pool, _fast_config(), regime="bogus")

    def test_oversized_batch_rejected(self, small_pool):
        cfg = _fast_config(p_identities=16, i_instances=16)
        with pytest.raises(ValueError, match="batch larger"):
            train(small_pool, cfg, regime="mcl")

    def test_naive_needs_an_epoch_per_subset(self, small_pool):
        # 4 fixed subsets in 2 epochs would leave two of them untrained
        cfg = _fast_config(n_subsets=4, epochs=2, warmup_epochs=0)
        with pytest.raises(ValueError, match="n_subsets 4 > epochs 2"):
            train(small_pool, cfg, regime="naive")
        assert len(train(small_pool, cfg, regime="mcl")[1].epochs) == 2

    def test_phase1_batch_rule_reads_the_clustered_rows(self, small_pool):
        # 108 train rows: N = 7 clusters up to 16 rows, room for the 4 x 4
        # batch, N = 8 only 14; "all" clusters all 108 whatever N says
        with pytest.raises(ValueError, match="phase-1 batch"):
            _check_regime(small_pool, _fast_config(n_subsets=8), "mcl")
        _check_regime(small_pool, _fast_config(n_subsets=8), "all")
        _check_regime(small_pool, _fast_config(n_subsets=7), "mcl")

    def test_more_subsets_than_samples_rejected(self, small_pool):
        with pytest.raises(ValueError, match="n_subsets"):
            train(small_pool, _fast_config(n_subsets=500), regime="mcl")

    def test_numeric_failure_wrapped(self, small_pool, monkeypatch):
        def boom(*args, **kwargs):
            raise FloatingPointError("synthetic overflow")
        monkeypatch.setattr("mcl.trainer.infonce_batch", boom)
        with pytest.raises(NumericError, match="synthetic overflow"):
            train(small_pool, _fast_config(), regime="mcl")

    def test_labeling_series_recorded(self, small_pool):
        report = train(small_pool, _fast_config(), regime="mcl")[1]
        series = report.labeling_series
        assert series.shape == (3,)
        assert np.all((series[~np.isnan(series)] >= 0)
                      & (series[~np.isnan(series)] <= 1))
