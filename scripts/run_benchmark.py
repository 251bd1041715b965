"""Train every scheme on the bundled benchmark and print the comparison.

The default generator is deliberately hard (sigma 0.35 leaves same-identity
pairs nearly orthogonal); pass --intra-class-sigma 0.15 to watch the
clustering flywheel actually ignite (pseudo-label precision >0.6 from
epoch 1).
"""

import argparse
import csv
import sys
import time

from mcl.data import GenSpec, generate_pool
from mcl.trainer import REGIMES, TrainConfig, train


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--schemes", default="all,mcl,naive",
                    help=f"comma list from {list(REGIMES)} or 'full'")
    ap.add_argument("--intra-class-sigma", type=float,
                    default=GenSpec.intra_class_sigma,
                    help="the generator noise level")
    ap.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    ap.add_argument("--seed", type=int, default=TrainConfig.seed)
    ap.add_argument("--series", action="store_true",
                    help="also print the per-epoch correct-pair fraction")
    ap.add_argument("-o", "--csv", default=None, help="write rows here")
    args = ap.parse_args(argv)

    names = REGIMES if args.schemes == "full" else args.schemes.split(",")
    bad = [n for n in names if n not in REGIMES]
    if bad:
        ap.error(f"unknown scheme(s): {bad}")

    spec = GenSpec(intra_class_sigma=args.intra_class_sigma)
    pool = generate_pool(spec)
    print(f"pool: {pool} sigma={spec.intra_class_sigma}")

    cfg = TrainConfig(epochs=args.epochs, seed=args.seed,
                      warmup_epochs=min(TrainConfig.warmup_epochs,
                                        args.epochs - 1))
    rows = []
    for name in names:
        t0 = time.perf_counter()
        _, rep = train(pool, cfg, regime=name)
        wall = time.perf_counter() - t0
        rows.append((name, rep.final_map, rep.final_rank1,
                     rep.total_entries, wall))
        print(f"{name:14s} mAP={rep.final_map:.4f} rank1={rep.final_rank1:.3f}"
              f" entries={rep.total_entries:.3e} [{wall:.0f}s]", flush=True)
        if args.series:
            s = rep.labeling_series
            print("  correct-pair: " +
                  " ".join(f"{x:.4f}" for x in s))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["scheme", "mAP", "rank1", "entries", "seconds"])
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
