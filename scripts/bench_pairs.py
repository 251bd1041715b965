"""Compare two source trees on one perfbench workload in alternating pairs.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cluster-10k --seed 1 --pairs 10 --seconds 30

Each pair runs `perfbench/run.py --trace 0` once in each tree, the parent
first in odd pairs and the change first in even ones, so a drift in host load
falls on both sides alike. Prints one JSON object: for every end-to-end metric
in CHANGE_DIR's BENCHMARK.json, each side's runs, median and quartiles, the
pairs the change won, and whether a claim of a gain holds (at least 9 in 10
pairs won, and a median gap wider than the parent's quartile spread), and
whether the change's median is worse than the parent's by more than the
metric's bound; and, for each side, the tasks that failed of those attempted.
Two copies of one commit make an A/A control, whose claim should not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from mcl.cli import ruled

SIDES = ("parent", "change")


def run_once(tree: Path, args) -> dict | None:
    """perfbench's result object for one run in tree, or None if it failed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"bench_pairs: run in {tree} exited {done.returncode}: "
              f"{done.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    """Median and inclusive quartiles of values, with the values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list) -> dict:
    """The comparison of runs[side], one perfbench result (or None) per pair,
    for each metric of BENCHMARK.json's end_to_end list."""
    ok = [i for i, pair in enumerate(zip(*(runs[s] for s in SIDES)))
          if None not in pair]
    out = {"pairs": len(ok)}
    for m in metrics if ok else ():
        side = {s: spread([runs[s][i]["metrics"][m["name"]]["value"]
                           for i in ok]) for s in SIDES}
        parent, change = side["parent"], side["change"]
        sign = 1 if m["better"] == "lower" else -1  # sign * value: lower wins
        wins = sum(sign * c < sign * p
                   for p, c in zip(parent["runs"], change["runs"]))
        gap = sign * (parent["median"] - change["median"])
        out[m["name"]] = {
            **side, "change_wins": wins,
            "claim_holds": wins >= 0.9 * len(ok)
                           and gap > parent["q3"] - parent["q1"],
            "worse_beyond_bound": -gap > m["bound"] * abs(parent["median"])}
    for s in SIDES:
        done = [r for r in runs[s] if r is not None]
        out[s] = {"failed": sum(r["failed"] for r in done),
                  "attempted": sum(r["attempted"] for r in done),
                  "failed_runs": len(runs[s]) - len(done)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, metavar="PARENT_DIR")
    ap.add_argument("change", type=Path, metavar="CHANGE_DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=ruled(int, ">= 0"), required=True)
    ap.add_argument("--pairs", type=ruled(int, ">= 1"), default=10)
    ap.add_argument("--seconds", type=ruled(float, "> 0"), default=30.0)
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{tree} is not a source tree with perfbench/run.py")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    runs = {s: [] for s in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]  # pair 1 is odd
        for s in order:
            runs[s].append(run_once(getattr(args, s), args))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds,
                      **summarize(runs, spec["end_to_end"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
