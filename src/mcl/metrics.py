"""Evaluation: retrieval mAP/CMC, clustering quality, and the cost profiler.

Retrieval follows the usual closed-set protocol: rank the gallery by
ascending cosine distance, AP = mean of precision at each relevant rank
divided by the relevant count, CMC(k) = fraction of queries with a hit in
the top k. Clustering quality is pairwise precision/recall/F plus ARI, with
outliers treated as singleton clusters. The profiler wraps one distance +
density-clustering pass and reports the exact pairwise-entry count (2 n^2
per pass), the analytic byte model (entries x 8), and median wall time.
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
    max_rank = min(MAX_RANK, ng)
    dist = 1.0 - query_emb @ gallery_emb.T
    aps = np.empty(nq)
    cmc_hits = np.zeros(max_rank)
    for qi in range(nq):
        order = np.argsort(dist[qi], kind="stable")
        rel = gallery_ids[order] == query_ids[qi]
        ranks = np.flatnonzero(rel) + 1  # 1-based ranks of relevant items
        hits = np.arange(1, ranks.size + 1)
        aps[qi] = (hits / ranks).sum() / ranks.size
        first = ranks[0]
        if first <= max_rank:
            cmc_hits[first - 1:] += 1.0
    return float(aps.mean()), cmc_hits / nq


def _outliers_to_singletons(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).copy()
    out = labels < 0
    if out.any():
        base = labels.max(initial=-1) + 1
        labels[out] = base + np.arange(out.sum())
    return labels


def _comb2(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def _pair_counts(pred: np.ndarray, true: np.ndarray):
    """(pairs together in both, in pred, in true), read off the sparse pred x
    true count table; scipy loads here, not at import."""
    import scipy.sparse as sp
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(true, return_inverse=True)
    c = sp.coo_matrix((np.ones(len(pred)), (pi, ti))).tocsr()
    return (_comb2(c.data).sum(), _comb2(np.asarray(c.sum(axis=1)).ravel()).sum(),
            _comb2(np.asarray(c.sum(axis=0)).ravel()).sum())


def clustering_quality(assignment: np.ndarray,
                       ground_truth: np.ndarray) -> tuple[float, float, float, float]:
    """(pairwise precision, recall, F, ARI); label -1 becomes its own singleton."""
    pred = _outliers_to_singletons(assignment)
    true = np.asarray(ground_truth, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError("assignment and ground truth must align")
    n = len(pred)
    tp, same_pred, same_true = _pair_counts(pred, true)
    precision = tp / same_pred if same_pred > 0 else 1.0
    recall = tp / same_true if same_true > 0 else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    total = _comb2(np.array([n]))[0]
    expected = same_pred * same_true / total if total > 0 else 0.0
    max_index = (same_pred + same_true) / 2.0
    denom = max_index - expected
    ari = (tp - expected) / denom if denom != 0 else 1.0
    return float(precision), float(recall), float(f), float(ari)


def labeling_correct_fraction(labels: np.ndarray, ground_truth: np.ndarray) -> float:
    """Fraction of same-pseudo-label pairs sharing true identity; -1 excluded.

    Returns NaN when no labeled pair exists.
    """
    labels = np.asarray(labels, dtype=np.int64)
    true = np.asarray(ground_truth, dtype=np.int64)
    kept = labels >= 0
    if kept.sum() < 2:
        return float("nan")
    tp, same_pred, _ = _pair_counts(labels[kept], true[kept])
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
