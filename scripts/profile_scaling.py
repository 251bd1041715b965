"""Measure how clustering cost scales with the meta-training fraction.

For each pool size n and fraction r, profiles one full distance+DBScan pass
over the r*n subset and reports pairwise entries, peak bytes, and wall time
relative to the r=1 pass. Entries scale exactly as r^2 by construction; wall
time lands close to that but picks up fixed overheads at small n. Each pass
spreads its row blocks over one thread per CPU the process may run on, so the
first line printed is that worker count; `taskset -c 0` pins it to one.
"""

import argparse
import csv
import sys

import numpy as np

from mcl.cli import comma_list, ruled
from mcl.geometry import _worker_count
from mcl.metrics import profile_clustering
from mcl.model import normalize_rows

K = 30  # neighbours per point in each profiled pass, profile_clustering's default


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--sizes", type=comma_list(int),
                    default="2000,8000,20000", help="comma list of pool sizes")
    ap.add_argument("--fractions", type=comma_list(ruled(float, "in (0, 1]")),
                    default="1.0,0.5,0.25")
    ap.add_argument("--d", type=ruled(int, ">= 1"), default=64)
    ap.add_argument("--repeats", type=ruled(int, ">= 1"), default=3)
    ap.add_argument("--seed", type=ruled(int, ">= 0"), default=0)
    ap.add_argument("-o", "--csv", default=None)
    args = ap.parse_args(argv)
    smallest = round(min(args.sizes) * min(args.fractions))
    if smallest <= K:
        ap.error(f"the smallest subset has {smallest} points; a pass with "
                 f"k = {K} needs more than {K}")

    fractions = sorted(set(args.fractions), reverse=True)
    rng = np.random.default_rng(args.seed)
    print(f"workers {_worker_count()} (threads per clustering pass)",
          flush=True)

    rows = []
    for n in args.sizes:
        x = normalize_rows(rng.standard_normal((n, args.d)))[0]
        base = None
        for r in fractions:
            m = max(2, int(round(n * r)))
            if not rows:
                # untimed: the first pass pays one-time costs (lazy scipy and
                # thread-pool imports) that would inflate the r = 1 base wall
                profile_clustering(x[:m], k=K, repeats=1)
            prof = profile_clustering(x[:m], k=K, repeats=args.repeats)
            if base is None:
                base = prof
            rows.append((n, r, m, prof.distance_entries, prof.peak_bytes,
                         prof.wall_seconds,
                         prof.distance_entries / base.distance_entries,
                         prof.wall_seconds / base.wall_seconds))
            print(f"n={n:6d} r={r:.2f} subset={m:6d} "
                  f"entries={prof.distance_entries:.3e} "
                  f"peak={prof.peak_bytes / 2**20:8.1f}MiB "
                  f"wall={prof.wall_seconds:7.2f}s "
                  f"entry_ratio={rows[-1][6]:.4f} "
                  f"wall_ratio={rows[-1][7]:.4f}", flush=True)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "fraction", "subset", "entries", "peak_bytes",
                        "wall_seconds", "entry_ratio", "wall_ratio"])
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
