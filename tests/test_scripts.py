"""Smoke runs of the scripts under scripts/ at tiny sizes."""

import csv
import importlib.util
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
    ("bench_pairs.py", ["a", "b", "--workload", "cluster-10k", "--seed", "1",
                        "--pair", "2"]),
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


def _canned(peak, quality=0.5, failed=0):
    """One perfbench --trace 0 result line, as bench_pairs reads it."""
    return {"attempted": 3, "failed": failed,
            "metrics": {"peak_rss_mb": {"value": peak, "unit": "MiB"},
                        "quality": {"value": quality, "unit": "fraction"}}}


def test_bench_pairs_summary_on_canned_runs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
               {"name": "quality", "better": "higher", "bound": 0.15}]
    parent = [_canned(100.0 + i) for i in range(10)]
    change = [_canned(95.0 + i) for i in range(9)] + [_canned(110.0, failed=1)]
    got = bench.summarize({"parent": parent, "change": change}, metrics)
    peak = got["peak_rss_mb"]
    assert got["pairs"] == 10
    assert peak["parent"]["runs"] == [100.0 + i for i in range(10)]
    assert (peak["parent"]["q1"], peak["parent"]["median"],
            peak["parent"]["q3"]) == (102.25, 104.5, 106.75)
    assert peak["change"]["median"] == 99.5
    # 9 of 10 pairs won, and a gap of 5 beside the parent's spread of 4.5
    assert peak["change_wins"] == 9 and peak["claim_holds"]
    assert not peak["worse_beyond_bound"]
    quality = got["quality"]  # higher is better; equal runs win nothing
    assert quality["change_wins"] == 0 and not quality["claim_holds"]
    assert not quality["worse_beyond_bound"]
    assert got["change"] == {"failed": 1, "attempted": 30, "failed_runs": 0}
    # 8 of 10 pairs won is no claim, however wide the gap
    eight = change[:8] + [_canned(110.0)] * 2
    got = bench.summarize({"parent": parent, "change": eight}, metrics)
    assert got["peak_rss_mb"]["change_wins"] == 8
    assert not got["peak_rss_mb"]["claim_holds"]
    # a run that failed drops its pair from every metric
    got = bench.summarize({"parent": parent[:9] + [None], "change": change},
                          metrics)
    assert got["pairs"] == 9 and len(got["peak_rss_mb"]["parent"]["runs"]) == 9
    assert got["parent"] == {"failed": 0, "attempted": 27, "failed_runs": 1}
    # 20% above the parent's median is beyond the 0.15 bound
    worse = [_canned(125.4)] * 10
    got = bench.summarize({"parent": parent, "change": worse}, metrics)
    assert got["peak_rss_mb"]["worse_beyond_bound"]


def test_readme_names_every_script():
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"scripts/([\w-]+\.py)", readme))
    section = readme.split("## Scripts", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"scripts/([\w-]+\.py)", section))
    present = {path.name for path in (ROOT / "scripts").iterdir()
               if path.is_file()}
    assert named <= present, named - present
    assert present <= listed, present - listed
