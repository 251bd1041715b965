"""Command-line verbs, exit codes, and artifact layout."""

import csv
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mcl.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, _resolve_config, \
    build_parser, main
from mcl.data import GenSpec, generate_pool, load_pool, read_features, \
    write_features
from mcl.model import load_checkpoint, write_sections
from mcl.trainer import NumericError, TrainConfig


@pytest.fixture
def pool_file(tmp_path, tiny_pool):
    path = tmp_path / "pool.mclf"
    write_features(tiny_pool, path)
    return str(path)


TRAIN_FLAGS = ["--epochs", "2", "--warmup-epochs", "0", "--p-identities", "2",
               "--i-instances", "2", "--p2-identities", "2",
               "--i2-instances", "2", "--k-neighbors", "6", "--d-hidden", "8",
               "--d-emb", "6", "--min-cluster-fraction", "0.2"]


class TestGen:
    def test_writes_pool(self, tmp_path):
        out = tmp_path / "p.mclf"
        code = main(["gen", "--num-identities", "6",
                     "--samples-per-identity", "4", "--d-raw", "8",
                     "--intra-class-sigma", "0.2", "--seed", "3",
                     "-o", str(out)])
        assert code == EXIT_OK
        pool = read_features(out)
        assert len(pool) == 24
        assert pool.d_raw == 8

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "p.mclf"
        main(["gen", "--num-identities", "4",
                     "--samples-per-identity", "2", "-o", str(out)])
        code = main(["gen", "--num-identities", "4",
                     "--samples-per-identity", "2", "-o", str(out)])
        assert code == EXIT_DATA
        assert "refusing" in capsys.readouterr().err
        assert main(["gen", "--num-identities", "4",
                     "--samples-per-identity", "2", "-o", str(out),
                     "--force"]) == EXIT_OK

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.mclf", tmp_path / "b.mclf"
        argv = ["gen", "--num-identities", "5", "--samples-per-identity", "3",
                "--seed", "9"]
        main(argv + ["-o", str(a)])
        main(argv + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_write_the_benchmark_pool(self, tmp_path):
        out = tmp_path / "p.mclf"
        assert main(["gen", "-o", str(out)]) == EXIT_OK
        assert read_features(out) == generate_pool(GenSpec())

    def test_invalid_spec_is_data_error(self, tmp_path):
        code = main(["gen", "--num-identities", "1",
                     "-o", str(tmp_path / "p.mclf")])
        assert code == EXIT_DATA


TRAIN_OPTIONS = [
    "-h", "--help", "--config", "--n-subsets", "--epochs", "--warmup-epochs",
    "--p-identities", "--i-instances", "--p2-identities", "--i2-instances",
    "--momentum-m", "--margin", "--lambda-tri", "--tau", "--eps", "--min-pts",
    "--k-neighbors", "--min-cluster-fraction", "--lr", "--weight-decay",
    "--d-hidden", "--d-emb", "--sigma-aug", "--drop-p", "--holdout-fraction",
    "--seed", "--fixed-split", "--shared-label-space", "--no-sc",
    "--plain-triplet",
]


def _verb_parsers():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return sub.choices


@pytest.mark.parametrize("verb,own", [
    ("train", ["--regime", "-o", "--out-dir"]),
    ("compare", ["--n-subsets", "-o", "--out-dir"]),
])
def test_training_verbs_option_strings(verb, own):
    got = [opt for a in _verb_parsers()[verb]._actions
           for opt in a.option_strings]
    # compare's own --n-subsets, a list, takes the field flag's place
    skip = ["--n-subsets"] if verb == "compare" else []
    assert got == TRAIN_OPTIONS[:2] + own + [
        opt for opt in TRAIN_OPTIONS[2:] if opt not in skip]


@pytest.mark.parametrize("verb", ["train", "compare"])
def test_no_flags_resolve_to_the_defaults(verb):
    args = build_parser().parse_args([verb, "pool.mclf"])
    assert _resolve_config(args) == TrainConfig()


def test_gen_option_strings():
    got = [opt for a in _verb_parsers()["gen"]._actions
           for opt in a.option_strings]
    assert got == ["-h", "--help"] + [
        "--" + f.name.replace("_", "-") for f in fields(GenSpec)] + [
        "-o", "--out", "--force"]


@pytest.mark.parametrize("verb,flag,value", [
    ("train", "--lambda-tri", "-1"),
    ("compare", "--n-subsets", "0"),
    ("gen", "--num-identities", "1"),
])
def test_validation_error_names_the_flag(pool_file, tmp_path, capsys, verb,
                                         flag, value):
    pool = [] if verb == "gen" else [pool_file]
    code = main([verb, *pool, flag, value, "-o", str(tmp_path / "out")])
    assert code == EXIT_DATA
    field = flag[2:].replace("-", "_")
    assert f"error: {field} must" in capsys.readouterr().err


def _readme_command_line():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return section, section.split("```")[1]


def test_readme_flags_are_options():
    section, _ = _readme_command_line()
    options = {opt for verb in _verb_parsers().values()
               for a in verb._actions for opt in a.option_strings}
    # a flag starts a word or follows a slash, as in "--p/--i"
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert mentioned and mentioned <= options, mentioned - options


def test_readme_commands_parse():
    _, block = _readme_command_line()
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["mcl"]]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)  # a usage error raises SystemExit


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, pool_file):
        with pytest.raises(SystemExit) as exc:
            main(["train", pool_file, "--bogus"])
        assert exc.value.code == 2

    def test_eval_needs_some_encoder(self, pool_file):
        with pytest.raises(SystemExit) as exc:
            main(["eval", pool_file])
        assert exc.value.code == 2

    def test_eval_takes_one_encoder_only(self, pool_file, tmp_path):
        ckpt = tmp_path / "c.mclp"
        write_sections(ckpt, [("W2", np.eye(6, 8)), ("b2", np.zeros(6))])
        with pytest.raises(SystemExit) as exc:
            main(["eval", pool_file, "--checkpoint", str(ckpt),
                  "--identity-init"])
        assert exc.value.code == 2

    def test_eval_takes_no_d_emb(self, pool_file, tmp_path):
        ckpt = tmp_path / "c.mclp"
        write_sections(ckpt, [("W2", np.eye(6, 8)), ("b2", np.zeros(6))])
        with pytest.raises(SystemExit) as exc:
            main(["eval", pool_file, "--checkpoint", str(ckpt),
                  "--d-emb", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb,flag,value", [
        ("train", "--subsets", "2"), ("train", "--p", "2"),
        ("train", "--i", "2"), ("train", "--p2", "2"), ("train", "--i2", "2"),
        ("train", "--momentum", "0.2"), ("train", "--lambda", "0.9"),
        ("train", "--k", "6"), ("train", "--holdout", "0.25"),
        ("compare", "--ratios", "0.5"), ("eval", "--holdout", "0.25"),
        ("gen", "--ids", "4"), ("gen", "--per-id", "2"),
        ("gen", "--dim", "8"), ("gen", "--sigma", "0.2"),
    ])
    def test_short_names_are_gone(self, pool_file, tmp_path, verb, flag,
                                  value):
        # no alias and no abbreviation: --lambda is not --lambda-tri
        pool = [] if verb == "gen" else [pool_file]
        extra = ["--identity-init"] if verb == "eval" else []
        with pytest.raises(SystemExit) as exc:
            main([verb, *pool, *extra, flag, value,
                  "-o", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_compare_subset_count_not_an_integer(self, pool_file, tmp_path,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", pool_file, "-o", str(tmp_path / "c"),
                  "--n-subsets", "2.5"] + TRAIN_FLAGS)
        assert exc.value.code == 2
        assert "--n-subsets" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_compare_takes_no_subsets(self, pool_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", pool_file, "-o", str(tmp_path / "c"),
                  "--subsets", "3"] + TRAIN_FLAGS)
        assert exc.value.code == 2


class TestTrain:
    def test_artifacts(self, tmp_path, pool_file):
        out = tmp_path / "run"
        code = main(["train", pool_file, "-o", str(out), "--seed", "0"]
                    + TRAIN_FLAGS)
        assert code == EXIT_OK
        ckpt = load_checkpoint(out / "checkpoint.mclp")
        assert ckpt.W2.shape[0] == 6
        report = json.loads((out / "report.json").read_text())
        assert report["regime"] == "mcl"
        assert len(report["epochs"]) == 2
        with open(out / "cost.csv") as fh:
            cost = list(csv.DictReader(fh))
        assert int(cost[0]["peak_bytes"]) == int(cost[0]["distance_entries"]) * 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert pool_file in manifest["input_hashes"]
        assert len(manifest["input_hashes"][pool_file]) == 64
        assert manifest["outputs"] == ["checkpoint.mclp", "report.json",
                                       "cost.csv"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["outputs"] + ["manifest.json"])

    def test_manifest_records_parsed_command(self, pool_file, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr("sys.argv", ["host", "--unrelated"])
        out = tmp_path / "run"
        argv = ["train", pool_file, "-o", str(out)] + TRAIN_FLAGS
        assert main(argv) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv

    def test_all_records_the_one_subset_it_ran(self, pool_file, tmp_path):
        out = tmp_path / "run"
        code = main(["train", pool_file, "--regime", "all", "-o", str(out),
                     "--n-subsets", "2"] + TRAIN_FLAGS)
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert report["epochs"][0]["n_phase1"] == report["n_train"]
        assert report["config"]["n_subsets"] == 1
        assert manifest["config"] == report["config"]

    def test_missing_pool_is_data_error(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "absent.mclf")] + TRAIN_FLAGS)
        assert code == EXIT_DATA

    def test_corrupt_pool_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.mclf"
        bad.write_bytes(b"not a pool at all")
        code = main(["train", str(bad)] + TRAIN_FLAGS)
        assert code == EXIT_DATA

    def test_bad_config_value_is_data_error(self, pool_file, tmp_path):
        code = main(["train", pool_file, "-o", str(tmp_path / "r"),
                     "--epochs", "0"])
        assert code == EXIT_DATA

    def test_eps_at_least_one_is_data_error(self, pool_file, tmp_path):
        code = main(["train", pool_file, "-o", str(tmp_path / "r"),
                     "--eps", "1.0"] + TRAIN_FLAGS)
        assert code == EXIT_DATA

    def test_config_file_wrong_type_is_data_error(self, pool_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": "abc"}))
        code = main(["train", pool_file, "--config", str(cfg),
                     "-o", str(tmp_path / "r")] + TRAIN_FLAGS)
        assert code == EXIT_DATA

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "5",
                                      '[["seed", 3]]'])
    def test_config_file_not_an_object_is_data_error(self, pool_file,
                                                     tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["train", pool_file, "--config", str(cfg),
                     "-o", str(tmp_path / "r")] + TRAIN_FLAGS)
        assert code == EXIT_DATA

    def test_numeric_failure_exit_code(self, pool_file, monkeypatch, tmp_path):
        def boom(pool, config, regime):
            raise NumericError("synthetic")
        monkeypatch.setattr("mcl.cli.train", boom)
        code = main(["train", pool_file, "-o", str(tmp_path / "r")]
                    + TRAIN_FLAGS)
        assert code == EXIT_NUMERIC

    def test_real_divergence_exit_code(self, pool_file, tmp_path):
        code = main(["train", pool_file, "-o", str(tmp_path / "r"),
                     "--lr", "1e300"] + TRAIN_FLAGS)
        assert code == EXIT_NUMERIC

    def test_collapsed_embedding_exit_code(self, pool_file, tmp_path, capsys):
        # decoupled decay of lr x weight_decay = 1 zeroes every weight on the
        # first step, so the next forward pass has no direction to normalize
        code = main(["train", pool_file, "-o", str(tmp_path / "r"),
                     "--lr", "1", "--weight-decay", "1"] + TRAIN_FLAGS)
        assert code == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "-1"])
    def test_bad_lr_is_data_error(self, pool_file, tmp_path, lr):
        code = main(["train", pool_file, "-o", str(tmp_path / "r"),
                     "--lr", lr] + TRAIN_FLAGS)
        assert code == EXIT_DATA

    def test_drop_p_out_of_range_is_data_error(self, pool_file, tmp_path):
        # "all" never augments, so only the config check can reject it
        code = main(["train", pool_file, "-o", str(tmp_path / "r"),
                     "--drop-p", "1.0", "--regime", "all"] + TRAIN_FLAGS)
        assert code == EXIT_DATA

    def test_config_file_with_flag_overrides(self, pool_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epochs": 2, "warmup_epochs": 0, "p_identities": 2,
            "i_instances": 2, "p2_identities": 2, "i2_instances": 2,
            "k_neighbors": 6, "d_hidden": 8, "d_emb": 6,
            "lambda_tri": 0.5, "seed": 7, "min_cluster_fraction": 0.2,
        }))
        out = tmp_path / "run"
        code = main(["train", pool_file, "--config", str(cfg),
                     "-o", str(out), "--epochs", "1", "--warmup-epochs", "0"])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["epochs"]) == 1  # flag wins over file
        assert report["config"]["lambda_tri"] == 0.5
        assert report["config"]["seed"] == 7  # file wins, no --seed given

    def test_lambda_flag_beats_file(self, pool_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_tri": 0.5}))
        out = tmp_path / "run"
        code = main(["train", pool_file, "--config", str(cfg), "-o", str(out),
                     "--lambda-tri", "0.9"] + TRAIN_FLAGS)
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["lambda_tri"] == 0.9

    def test_config_file_and_flags_validated_together(self, pool_file,
                                                      tmp_path):
        # the default warm-up of 5 must not be checked against the file's
        # 3 epochs before --warmup-epochs applies
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3}))
        out = tmp_path / "run"
        assert TRAIN_FLAGS[:2] == ["--epochs", "2"]  # left to the file
        code = main(["train", pool_file, "--config", str(cfg), "-o", str(out)]
                    + TRAIN_FLAGS[2:])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["epochs"] == 3
        assert report["config"]["warmup_epochs"] == 0

    @pytest.mark.parametrize("flag,name", [
        ("--fixed-split", "fixed_split"),
        ("--shared-label-space", "shared_label_space"),
        ("--no-sc", "no_sc"),
        ("--plain-triplet", "plain_triplet"),
    ])
    def test_ablation_switch_sets_field(self, pool_file, tmp_path, flag, name):
        out = tmp_path / "run"
        code = main(["train", pool_file, "-o", str(out), flag] + TRAIN_FLAGS)
        assert code == EXIT_OK
        config = json.loads((out / "report.json").read_text())["config"]
        assert config[name] is True
        assert [k for k, v in config.items() if v is True] == [name]

    def test_seed_flag_beats_file(self, pool_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11}))
        out = tmp_path / "run"
        code = main(["train", pool_file, "--config", str(cfg), "-o", str(out),
                     "--seed", "4"] + TRAIN_FLAGS)
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4

    def test_regime_choices(self, pool_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", pool_file, "--regime", "bogus"])
        out = tmp_path / "naive"
        code = main(["train", pool_file, "--regime", "naive", "-o", str(out)]
                    + TRAIN_FLAGS)
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["regime"] == "naive"


class TestCompare:
    def test_table_and_budget_sweep(self, pool_file, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", pool_file, "--n-subsets", "1,2",
                     "-o", str(out)] + TRAIN_FLAGS)
        assert code == EXIT_OK
        with open(out / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        schemes = [r["scheme"] for r in rows]
        assert schemes == ["all", "mcl@2", "naive@2"]
        assert [int(r["n_subsets"]) for r in rows] == [1, 2, 2]
        for r in rows:
            assert 0.0 <= float(r["mAP"]) <= 1.0
            assert int(r["peak_bytes"]) > 0
        # the half split clusters half the rows: quarter the peak bytes
        by = {r["scheme"]: r for r in rows}
        n = 24  # tiny_pool train rows (6 of 8 identities x 4 samples)
        assert int(by["all"]["peak_bytes"]) == 2 * n * n * 8
        assert int(by["mcl@2"]["peak_bytes"]) == 2 * (n // 2) ** 2 * 8
        with open(out / "budget_sweep.csv") as fh:
            sweep = list(csv.DictReader(fh))
        budgets = [int(r["budget_bytes"]) for r in sweep]
        assert budgets == sorted(budgets)
        best_small = sweep[0]
        assert best_small["scheme"] in ("mcl@2", "naive@2")
        assert (out / "manifest.json").exists()

    def test_manifest_hashes_config_file(self, pool_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_tri": 0.5}))
        out = tmp_path / "cmp"
        code = main(["compare", pool_file, "--n-subsets", "2", "--config",
                     str(cfg), "-o", str(out)] + TRAIN_FLAGS)
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["input_hashes"]) == {pool_file, str(cfg)}
        assert all(len(h) == 64 for h in manifest["input_hashes"].values())
        assert manifest["outputs"] == ["compare.csv", "budget_sweep.csv"]

    def test_manifest_records_no_base_subset_count(self, pool_file,
                                                   tmp_path):
        # the schemes ran at N = 1, 2 and 4, each recorded in compare.csv;
        # the base config's N ran in none of them
        out = tmp_path / "cmp"
        code = main(["compare", pool_file, "--n-subsets", "1,2,2,4",
                     "-o", str(out)] + TRAIN_FLAGS)
        assert code == EXIT_OK
        with open(out / "compare.csv") as fh:
            counts = [int(r["n_subsets"]) for r in csv.DictReader(fh)]
        assert counts == [1, 2, 2, 4, 4]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "n_subsets" not in manifest["config"]
        assert manifest["config"]["epochs"] == 2

    def test_bad_subset_count_list(self, pool_file, tmp_path):
        out = tmp_path / "c"
        code = main(["compare", pool_file, "--n-subsets", "0",
                     "-o", str(out)] + TRAIN_FLAGS)
        assert code == EXIT_DATA
        assert not (out / "compare.csv").exists()

    def test_repeated_subset_count(self, pool_file, tmp_path):
        out = tmp_path / "c"
        code = main(["compare", pool_file, "--n-subsets", "2,2",
                     "-o", str(out)] + TRAIN_FLAGS)
        assert code == EXIT_OK
        with open(out / "compare.csv") as fh:
            schemes = [r["scheme"] for r in csv.DictReader(fh)]
        assert schemes == ["mcl@2", "naive@2"]

    def test_config_file_subset_count_is_data_error(self, pool_file,
                                                    tmp_path, capsys):
        # every scheme runs at its own N, so the file's would be ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_subsets": 3}))
        out = tmp_path / "c"
        code = main(["compare", pool_file, "--n-subsets", "2", "--config",
                     str(cfg), "-o", str(out)] + TRAIN_FLAGS)
        assert code == EXIT_DATA
        assert not (out / "compare.csv").exists()
        assert "--n-subsets" in capsys.readouterr().err


class TestEvalAndDump:
    def test_eval_identity_init(self, pool_file, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(["eval", pool_file, "--identity-init", "-o", str(out)])
        assert code == EXIT_OK
        got = json.loads(out.read_text())
        assert 0.0 <= got["mean_ap"] <= 1.0
        assert got["n_query"] > 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["mean_ap"] == got["mean_ap"]

    def test_eval_trained_checkpoint(self, pool_file, tmp_path, capsys):
        # train's last evaluation and eval share one path and the default
        # holdout, so the saved weights score exactly the reported mAP
        run = tmp_path / "run"
        main(["train", pool_file, "-o", str(run), "--seed", "0"] + TRAIN_FLAGS)
        capsys.readouterr()
        code = main(["eval", pool_file, "--checkpoint",
                     str(run / "checkpoint.mclp")])
        assert code == EXIT_OK
        report = json.loads((run / "report.json").read_text())
        printed = json.loads(capsys.readouterr().out)
        assert printed["mean_ap"] == report["final_map"]

    def test_dump_embeddings(self, pool_file, tmp_path):
        run = tmp_path / "run"
        main(["train", pool_file, "-o", str(run), "--seed", "0"] + TRAIN_FLAGS)
        out = tmp_path / "emb.mclf"
        code = main(["dump-embeddings", pool_file, "--checkpoint",
                     str(run / "checkpoint.mclp"), "-o", str(out)])
        assert code == EXIT_OK
        emb = load_pool(out)
        src = load_pool(pool_file)
        assert len(emb) == len(src)
        assert emb.d_raw == 6
        norms = np.linalg.norm(emb.features.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)  # float32 round trip
        assert np.array_equal(emb.identities, src.identities)

    def test_missing_checkpoint_is_data_error(self, pool_file, tmp_path):
        code = main(["eval", pool_file, "--checkpoint",
                     str(tmp_path / "none.mclp")])
        assert code == EXIT_DATA

    def test_malformed_checkpoint_is_data_error(self, pool_file, tmp_path):
        ckpt = tmp_path / "w1-only.mclp"
        write_sections(ckpt, [("W1", np.zeros((4, 8))), ("W2", np.eye(6, 4)),
                              ("b2", np.zeros(6))])
        code = main(["eval", pool_file, "--checkpoint", str(ckpt)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command", ["eval", "dump-embeddings"])
    def test_non_finite_checkpoint_is_data_error(self, pool_file, tmp_path,
                                                 capsys, command):
        ckpt = tmp_path / "nan.mclp"
        write_sections(ckpt, [("W2", np.full((6, 8), np.nan)),
                              ("b2", np.zeros(6))])
        code = main([command, pool_file, "--checkpoint", str(ckpt),
                     "-o", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "dump-embeddings"])
    def test_overflowing_checkpoint_is_numeric_error(self, pool_file,
                                                     tmp_path, capsys,
                                                     command):
        # finite weights whose products overflow: the encoder output is not
        # finite, which is a numeric failure, not a file error
        ckpt = tmp_path / "huge.mclp"
        write_sections(ckpt, [("W2", np.full((6, 8), 1e308)),
                              ("b2", np.zeros(6))])
        code = main([command, pool_file, "--checkpoint", str(ckpt),
                     "-o", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        assert "non-finite encoder output" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["-3", "1", "1.5"])
    def test_holdout_outside_unit_interval_is_data_error(self, pool_file,
                                                         capsys, fraction):
        code = main(["eval", pool_file, "--identity-init",
                     "--holdout-fraction", fraction])
        assert code == EXIT_DATA
        assert "error: holdout_fraction must" in capsys.readouterr().err

    @pytest.mark.parametrize("tail,extra", [
        (b"\0" * 14, []),
        (b"", [("W2", np.eye(6, 8))]),
    ], ids=["trailing-bytes", "repeated-section"])
    def test_checkpoint_with_leftovers_is_data_error(self, pool_file,
                                                     tmp_path, tail, extra):
        ckpt = tmp_path / "c.mclp"
        write_sections(ckpt, [("W2", np.eye(6, 8)), ("b2", np.zeros(6))]
                       + extra)
        ckpt.write_bytes(ckpt.read_bytes() + tail)
        code = main(["eval", pool_file, "--checkpoint", str(ckpt)])
        assert code == EXIT_DATA
