"""Grid-sweep density clustering on a synthetic pool's raw features.

Builds the cosine -> k-reciprocal -> Jaccard pipeline distance once, then
reports cluster count, outliers, and pairwise quality against the hidden
identities for each (eps, min_pts) cell. Handy for picking a radius before
a long run, and for seeing where the bundled benchmark's noise level leaves
no usable density at all.
"""

import argparse
import csv
import sys

import numpy as np

from mcl.cli import comma_list, ruled
from mcl.cluster import dbscan
from mcl.data import GenSpec, generate_pool
from mcl.geometry import clustering_distance
from mcl.metrics import clustering_quality


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--num-identities", type=int, default=50)
    ap.add_argument("--samples-per-identity", type=int, default=20)
    ap.add_argument("--intra-class-sigma", type=float, default=0.15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--k-neighbors", type=int, default=30)
    # TrainConfig's rules, checked as the flags are parsed, before the pass
    ap.add_argument("--eps", type=comma_list(ruled(float, "in [0, 1)")),
                    default="0.4,0.5,0.6,0.7,0.8,0.9")
    ap.add_argument("--min-pts", type=comma_list(ruled(int, ">= 1")),
                    default="2,4,6")
    ap.add_argument("-o", "--csv", default=None)
    args = ap.parse_args(argv)

    spec = GenSpec(num_identities=args.num_identities,
                   samples_per_identity=args.samples_per_identity,
                   intra_class_sigma=args.intra_class_sigma, seed=args.seed)
    pool = generate_pool(spec)
    print(f"pool: {pool} sigma={spec.intra_class_sigma}")
    x = pool.features.astype("float64")
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    dm = clustering_distance(x, k=args.k_neighbors)

    rows = []
    for eps in args.eps:
        for min_pts in args.min_pts:
            got = dbscan(dm, eps=eps, min_pts=min_pts)
            prec, rec, f, ari = clustering_quality(got.labels,
                                                   pool.identities)
            rows.append((eps, min_pts, got.num_clusters, got.num_outliers,
                         prec, rec, f, ari))
            print(f"eps={eps:.2f} min_pts={min_pts} "
                  f"clusters={got.num_clusters:4d} "
                  f"outliers={got.num_outliers:5d} "
                  f"prec={prec:.3f} rec={rec:.3f} F={f:.3f} ARI={ari:.3f}",
                  flush=True)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "min_pts", "clusters", "outliers",
                        "precision", "recall", "f", "ari"])
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
