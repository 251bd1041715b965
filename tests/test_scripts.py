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


@pytest.mark.parametrize("script,args", [
    ("profile_scaling.py", ["--siz", "300"]),
    ("sweep_dbscan.py", ["--num-id", "10"]),
])
def test_abbreviated_flag_is_usage_error(script, args):
    done = _run(script, *args)
    assert done.returncode == 2
    assert "unrecognized arguments" in done.stderr


@pytest.mark.parametrize("script,args", [
    ("sweep_dbscan.py", ["--eps", "0.5,abc"]),
    ("sweep_dbscan.py", ["--min-pts", "2,x"]),
    ("profile_scaling.py", ["--sizes", "300,x"]),
    ("profile_scaling.py", ["--fractions", "1.0,y"]),
])
def test_bad_list_item_is_usage_error(script, args):
    # the comma lists are parsed with the flags, so no work starts
    done = _run(script, *args)
    assert done.returncode == 2
    assert f"argument {args[0]}: invalid" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("script,args,message", [
    ("sweep_dbscan.py", ["--eps", "nan"], "must be in [0, 1)"),
    ("sweep_dbscan.py", ["--eps", "0.5,-0.1"], "must be in [0, 1)"),
    ("sweep_dbscan.py", ["--min-pts", "2,0"], "must be >= 1"),
    ("profile_scaling.py", ["--fractions", "0"], "must be in (0, 1]"),
    ("profile_scaling.py", ["--fractions", "1.0,-0.5"], "must be in (0, 1]"),
    ("profile_scaling.py", ["--repeats", "0"], "must be >= 1"),
    ("profile_scaling.py", ["--d", "0"], "must be >= 1"),
    ("profile_scaling.py", ["--sizes", "300", "--fractions", "0.1"],
     "the smallest subset has 30 points"),
    ("sweep_dbscan.py", ["--k-neighbors", "0"], "must be >= 1"),
    ("sweep_dbscan.py", ["--num-identities", "10", "--samples-per-identity",
                         "2", "--k-neighbors", "25"],
     "--k-neighbors must be below the pool's 20 points, got 25"),
    ("sweep_dbscan.py", ["--num-identities", "0"], "must be >= 2"),
    ("sweep_dbscan.py", ["--samples-per-identity", "1"], "must be >= 2"),
    ("sweep_dbscan.py", ["--intra-class-sigma", "-1"], "must be >= 0"),
    ("profile_scaling.py", ["--seed", "-1"], "must be >= 0"),
])
def test_out_of_range_value_is_usage_error(script, args, message):
    # refused as the flags are parsed, not by a traceback after the work
    done = _run(script, *args)
    assert done.returncode == 2
    assert message in done.stderr
    assert done.stdout == ""


def test_readme_names_every_script():
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"scripts/([\w-]+\.py)", readme))
    section = readme.split("## Scripts", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"scripts/([\w-]+\.py)", section))
    present = {path.name for path in (ROOT / "scripts").iterdir()
               if path.is_file()}
    assert named <= present, named - present
    assert present <= listed, present - listed
