"""Smoke runs of the scripts under scripts/ at tiny sizes."""

import csv
import re
import subprocess
import sys

import pytest

from .conftest import ROOT, src_env


def _run(script, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=src_env(), capture_output=True,
                          text=True, timeout=120)


def test_profile_scaling(tmp_path):
    out = tmp_path / "scaling.csv"
    done = _run("profile_scaling.py", "--sizes", "300", "--fractions",
                "1.0,0.5", "--repeats", "1", "-o", str(out))
    assert done.returncode == 0, done.stderr
    assert re.match(r"workers [1-9]\d* ", done.stdout)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["fraction"]) for r in rows] == [1.0, 0.5]
    assert float(rows[1]["entry_ratio"]) == 0.25


def test_sweep_dbscan(tmp_path):
    out = tmp_path / "sweep.csv"
    done = _run("sweep_dbscan.py", "--num-identities", "10",
                "--samples-per-identity", "8", "--k-neighbors", "5",
                "-o", str(out))
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 3  # the default eps x min_pts grid


def test_run_benchmark(tmp_path):
    out = tmp_path / "bench.csv"
    done = _run("run_benchmark.py", "--schemes", "mcl", "--epochs", "2",
                "--series", "-o", str(out))
    assert done.returncode == 0, done.stderr
    assert re.search(r"^  correct-pair: \d\.\d{4} \d\.\d{4}$", done.stdout,
                     re.MULTILINE)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scheme", "mAP", "rank1", "entries", "seconds"]
    assert [r[0] for r in rows[1:]] == ["mcl"]


@pytest.mark.parametrize("script,args", [
    ("run_benchmark.py", ["--sch", "mcl", "--epo", "1"]),
    ("profile_scaling.py", ["--siz", "300"]),
    ("sweep_dbscan.py", ["--num-id", "10"]),
])
def test_abbreviated_flag_is_usage_error(script, args):
    done = _run(script, *args)
    assert done.returncode == 2
    assert "unrecognized arguments" in done.stderr
