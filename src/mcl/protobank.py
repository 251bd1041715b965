"""Prototype memory bank: one unit vector per pseudo-class.

Rows are initialized to unit-normalized cluster means, drift toward fresh
batch embeddings through a momentum update, and serve as both the classifier
weights of the contrastive phase and the soft-labeling reference of the
polishment phase.
"""

from __future__ import annotations

import numpy as np

from .model import normalize_rows


class NoClustersError(RuntimeError):
    """Clustering produced zero classes; there is nothing to train against."""


class PrototypeBank:
    """K x d prototype rows in an array of the bank's own, scaled to unit norm
    by normalize_rows on construction and after every momentum update."""

    def __init__(self, weights: np.ndarray, momentum: float = 0.2):
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"prototype matrix must be 2-D, got {weights.ndim}-D")
        if weights.shape[0] == 0:
            raise NoClustersError("empty prototype bank")
        if not 0.0 <= momentum <= 1.0:
            raise ValueError(f"momentum must be in [0, 1], got {momentum}")
        self.weights = normalize_rows(weights)[0]
        self.momentum = momentum

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_clusters(cls, embeddings: np.ndarray, labels: np.ndarray,
                      momentum: float = 0.2) -> "PrototypeBank":
        """Mean embedding per cluster id 0..K-1; label -1 (outlier) is ignored."""
        embeddings = np.asarray(embeddings, dtype=np.float64)
        labels = np.asarray(labels)
        if labels.shape != (embeddings.shape[0],):
            raise ValueError("labels must be one per embedding row")
        kept = labels >= 0
        if not kept.any():
            raise NoClustersError("all samples are outliers")
        num_k = int(labels[kept].max()) + 1
        w = np.zeros((num_k, embeddings.shape[1]))
        counts = np.zeros(num_k)
        np.add.at(w, labels[kept], embeddings[kept])
        np.add.at(counts, labels[kept], 1.0)
        if counts.min() == 0:
            raise ValueError("cluster ids must be contiguous from 0")
        w /= counts[:, None]
        return cls(w, momentum=momentum)

    def momentum_update(self, embeddings: np.ndarray, labels: np.ndarray) -> None:
        """w_k <- m w_k + (1-m) mean(batch members of k), scaled to unit norm.

        Absent classes stay bitwise unchanged, and so do all on a refused update.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        labels = np.asarray(labels)
        if labels.min(initial=0) < 0 or labels.max(initial=-1) >= self.num_classes:
            raise ValueError("momentum update labels out of range")
        sums = np.zeros_like(self.weights)
        counts = np.zeros(self.num_classes)
        np.add.at(sums, labels, embeddings)
        np.add.at(counts, labels, 1.0)
        present = counts > 0
        m = self.momentum
        upd = m * self.weights[present] + (1.0 - m) * (sums[present] / counts[present, None])
        self.weights[present] = normalize_rows(upd)[0]

    def soft_label_batch(self, v: np.ndarray) -> np.ndarray:
        """Softmax over prototype dot products (no temperature), per row."""
        z = np.asarray(v, dtype=np.float64) @ self.weights.T
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def harden(self, soft: np.ndarray) -> np.ndarray:
        """Argmax class per row; ties go to the lowest index."""
        soft = np.atleast_2d(np.asarray(soft))
        if soft.shape[1] != self.num_classes:
            raise ValueError("soft label width != number of prototypes")
        return np.argmax(soft, axis=1).astype(np.int64)
