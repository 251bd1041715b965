"""DBScan over a precomputed (n, n) distance array.

Deterministic variant. A point is core iff it has >= min_pts neighbors at
distance <= eps, not counting itself. Clusters are the connected components
of core points under the <= eps relation, numbered in ascending order of
each cluster's lowest-index core. A non-core point joins the cluster of the
lowest-index core whose eps-neighborhood contains it; the rest are outliers.
One scan in `geometry._map_row_blocks` row blocks finds the pairs within eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _map_row_blocks


@dataclass
class ClusterAssignment:
    labels: np.ndarray  # (n,) int64; -1 = outlier, else consecutive from 0
    num_clusters: int

    @property
    def num_outliers(self) -> int:
        return int((self.labels == -1).sum())


def dbscan(d: np.ndarray, eps: float, min_pts: int) -> ClusterAssignment:
    # local imports: csgraph loads scipy.linalg, and importing either one at
    # module level measurably slowed `import mcl`
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"d must be a square (n, n) array, got {d.shape}")
    if not eps >= 0:  # NaN too: it compares false with every distance
        raise ValueError(f"eps must be >= 0, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    n = d.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return ClusterAssignment(labels=labels, num_clusters=0)

    # every pair within eps, row-major; the diagonal (0 <= eps) is included
    flat = _map_row_blocks(
        lambda lo, hi: np.flatnonzero(d[lo:hi] <= eps) + lo * n, n)
    rows, cols = np.divmod(np.concatenate(flat), n)
    core = np.bincount(rows, minlength=n) - 1 >= min_pts

    linked = core[rows] & core[cols]  # row-major, columns ascending: CSR
    indptr = np.r_[0, np.cumsum(np.bincount(rows[linked], minlength=n))]
    graph = sp.csr_matrix((np.ones(indptr[-1], dtype=bool), cols[linked],
                           indptr), shape=(n, n))
    _, component = connected_components(graph, directed=False)
    core_idx = np.flatnonzero(core)
    _, first, inverse = np.unique(component[core_idx], return_index=True,
                                  return_inverse=True)
    # scipy's component numbering is not the contract: rank by first core
    labels[core_idx] = np.argsort(np.argsort(first))[inverse]

    # border points: the lowest-index core within eps, the row's first pair
    border = ~core[rows] & core[cols]
    b_rows, b_cols = rows[border], cols[border]
    starts = np.flatnonzero(np.diff(b_rows, prepend=-1))
    labels[b_rows[starts]] = labels[b_cols[starts]]
    return ClusterAssignment(labels=labels, num_clusters=first.size)
