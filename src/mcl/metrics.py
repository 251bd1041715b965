"""Evaluation: retrieval mAP/CMC, clustering quality, and the cost profiler.

Retrieval follows the usual closed-set protocol: one stable sort ranks every
query's gallery by ascending cosine distance (ties keep gallery order), AP =
mean of precision at each relevant rank divided by the relevant count, CMC(k)
= fraction of queries with a hit in the top k. Clustering quality is pairwise
precision/recall/F plus ARI, read off one predicted x true count table. A
predicted label of -1 marks an outlier, which shares a cluster with no one:
it adds no pair to the prediction's counts, but its row still counts in the
ground truth's. The profiler wraps one distance + density-clustering pass and
reports the exact pairwise-entry count (2 n^2 per pass), the analytic byte
model (entries x 8), and median wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cluster import dbscan
from .geometry import ENTRY_COUNTER, clustering_distance

MAX_RANK = 20  # the CMC curve's length when the gallery is not shorter


@dataclass
class CostProfile:
    distance_entries: int
    peak_bytes: int
    wall_seconds: float


def compute_map_cmc(query_emb: np.ndarray, gallery_emb: np.ndarray,
                    query_ids: np.ndarray, gallery_ids: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Mean AP and CMC over queries. Requires every query identity in the gallery."""
    query_emb = np.asarray(query_emb, dtype=np.float64)
    gallery_emb = np.asarray(gallery_emb, dtype=np.float64)
    query_ids = np.asarray(query_ids)
    gallery_ids = np.asarray(gallery_ids)
    nq, ng = query_emb.shape[0], gallery_emb.shape[0]
    if nq == 0 or ng == 0:
        raise ValueError("empty query or gallery")
    missing = np.setdiff1d(query_ids, gallery_ids)
    if missing.size:
        raise ValueError(f"query identities absent from gallery: {missing[:5].tolist()}")
    order = np.argsort(1.0 - query_emb @ gallery_emb.T, axis=1, kind="stable")
    rel = gallery_ids[order] == query_ids[:, None]
    # AP over each query's 1-based relevant ranks, one row sum per query
    aps = [(np.arange(1, r.size + 1) / r).sum() / r.size
           for r in (np.flatnonzero(row) + 1 for row in rel)]
    first_hits = np.bincount(rel.argmax(axis=1), minlength=ng)
    return float(np.mean(aps)), np.cumsum(first_hits[:min(MAX_RANK, ng)]) / nq


def _comb2(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def _pair_counts(pred: np.ndarray, true: np.ndarray):
    """(pairs together in both, in pred, in true), read off the pred x true
    count table; a pred label of -1 pairs with no one. Every count is an
    integer below 2**53, so each sum is exact in any order."""
    _, ti = np.unique(true, return_inverse=True)
    kept = pred >= 0
    _, pi = np.unique(pred[kept], return_inverse=True)
    _, cells = np.unique(pi * (ti.max(initial=0) + 1) + ti[kept], return_counts=True)
    return (_comb2(cells).sum(), _comb2(np.bincount(pi)).sum(),
            _comb2(np.bincount(ti)).sum())


def clustering_quality(assignment: np.ndarray,
                       ground_truth: np.ndarray) -> tuple[float, float, float, float]:
    """(pairwise precision, recall, F, ARI); label -1 is an outlier."""
    pred = np.asarray(assignment, dtype=np.int64)
    true = np.asarray(ground_truth, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError("assignment and ground truth must align")
    n = len(pred)
    if n == 0:
        raise ValueError("empty labeling")
    tp, same_pred, same_true = _pair_counts(pred, true)
    precision = tp / same_pred if same_pred > 0 else 1.0
    recall = tp / same_true if same_true > 0 else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    total = n * (n - 1) / 2.0
    expected = same_pred * same_true / total if total > 0 else 0.0
    max_index = (same_pred + same_true) / 2.0
    denom = max_index - expected
    ari = (tp - expected) / denom if denom != 0 else 1.0
    return float(precision), float(recall), float(f), float(ari)


def labeling_correct_fraction(labels: np.ndarray, ground_truth: np.ndarray) -> float:
    """Fraction of same-pseudo-label pairs sharing true identity; -1 excluded.

    Returns NaN when no labeled pair exists.
    """
    tp, same_pred, _ = _pair_counts(np.asarray(labels, dtype=np.int64),
                                    np.asarray(ground_truth, dtype=np.int64))
    return float(tp / same_pred) if same_pred > 0 else float("nan")


def profile_clustering(embeddings: np.ndarray, k: int = 30, eps: float = 0.7,
                       min_pts: int = 4, repeats: int = 3,
                       timer=time.perf_counter) -> CostProfile:
    """Time and count one full distance + DBScan pass; wall = median of repeats."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    walls = []
    entries = None
    for _ in range(repeats):
        before = ENTRY_COUNTER.total
        t0 = timer()
        dm = clustering_distance(embeddings, k=k)
        dbscan(dm, eps=eps, min_pts=min_pts)
        t1 = timer()
        del dm
        delta = ENTRY_COUNTER.total - before
        if entries is None:
            entries = delta
        elif entries != delta:
            raise RuntimeError("entry counter drifted across repeats")
        walls.append(t1 - t0)
    return CostProfile(distance_entries=int(entries),
                       peak_bytes=int(entries) * 8,
                       wall_seconds=float(np.median(walls)))
