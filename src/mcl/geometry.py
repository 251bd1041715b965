"""Pairwise distances, kNN, k-reciprocal sets, and Jaccard distance.

Everything here is the substrate DBScan runs on. Distance matrices are plain
(n, n) float64 arrays, symmetric with a zero diagonal. Every n x n set of
distance entries evaluated adds n^2 to the module's entry counter, whether or
not the entries are ever stored together; the cost profiler reads it to
reproduce the quadratic cost scaling of a clustering pass.

The row blocks of a clustering pass (fused cosine + kNN, and the Jaccard fill)
run on up to one worker thread per CPU in the process's affinity mask; the
numpy calls they make release the GIL, and each block writes only its own
rows, so the results are bitwise the same for any worker count. A pass
computes its cosine rows and Jaccard rows in the result matrix itself, so each
worker holds only about `_ROW_BLOCK` x n x 2 bytes in flight, the kNN
selection's sampled columns (8 bytes per `_STRIDE` entries) and its candidate
mask (1 byte per entry). scipy.sparse loads inside the functions that use it,
so `import mcl` loads no scipy.
"""

from __future__ import annotations

import os

import numpy as np

# rows per block. Keep it small: glibc keeps each worker thread's freed blocks
# in that thread's own malloc arena, so 256 rows already cost 7 MiB more peak
# RSS than 128 on a benchmark training run, for no measurable speed. It also
# pins results: OpenBLAS dgemm rounds some dot products differently for 64-,
# 128- and 256-row blocks, so another height moves the cosine rows' last bits
_ROW_BLOCK = 128
# the kNN selection samples every _STRIDE-th column of a row for its threshold
_STRIDE = 8


def _worker_count() -> int:
    """CPUs in the process's affinity mask, or all CPUs where it is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_row_blocks(fn, n: int) -> list:
    """`fn(lo, hi)` for each `_ROW_BLOCK` block of n rows, in block order.

    Runs on one worker thread per CPU, but every worker gets at least two
    blocks: with fewer, thread start-up and GIL hand-offs made passes at
    n = 150 and 300 up to 50% slower than running them in the calling
    thread. An exception raised in any block re-raises here.
    """
    los = range(0, n, _ROW_BLOCK)
    his = [min(lo + _ROW_BLOCK, n) for lo in los]
    workers = min(_worker_count(), len(los) // 2)
    if workers <= 1:
        return list(map(fn, los, his))
    # imported here, as dbscan imports csgraph, so `import mcl` stays cheap
    from concurrent.futures.thread import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, los, his))


class EntryCounter:
    """Running count of the pairwise distance entries evaluated."""

    def __init__(self) -> None:
        self._total = 0

    def add(self, entries: int) -> None:
        self._total += int(entries)

    @property
    def total(self) -> int:
        return self._total


ENTRY_COUNTER = EntryCounter()


def _unit_rows(embeddings: np.ndarray) -> np.ndarray:
    """Embeddings as float64 rows, checked finite and unit-norm within 1e-6."""
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError("embeddings must be 2-D")
    if not np.isfinite(e).all():
        raise ValueError("non-finite embedding input")
    norms = np.linalg.norm(e, axis=1)
    if np.abs(norms - 1.0).max(initial=0.0) > 1e-6:
        raise ValueError("embedding rows must be unit-norm within 1e-6")
    return e


def pairwise_cosine_distance(embeddings: np.ndarray) -> np.ndarray:
    """1 - dot(e_i, e_j) over unit rows. Rows must be unit-norm within 1e-6."""
    e = _unit_rows(embeddings)
    # one symmetric product: row blocks of a gemm are not exactly symmetric
    d = e @ e.T
    # in place: a second n x n temporary would double peak memory
    d *= -1.0
    d += 1.0
    np.fill_diagonal(d, 0.0)
    ENTRY_COUNTER.add(d.shape[0] * d.shape[0])
    return d


def _knn_by_blocks(n: int, k: int, distance_rows) -> np.ndarray:
    """kNN lists over n points, selected in `_map_row_blocks` row blocks.

    `distance_rows(lo, hi)` returns a (hi - lo, n) float64 block of the
    distances from rows lo..hi-1 to every point. The block is overwritten
    here, so it must be a fresh array or a view of rows the caller owns and
    no longer needs. It is called on worker threads, so it must not touch
    shared state beyond its own rows.
    Ordered by ascending distance; exact ties resolved by lower index. Each
    row's threshold t is the q-th smallest entry of every `_STRIDE`-th
    column, q = (k + 1) // 4 + 6, and only the entries <= t, about 8q of
    them, are sorted. Once there are k of them they hold the k nearest
    exactly, ties at t included; a row with fewer is sorted in full.
    """
    if k >= n:
        raise ValueError(f"k={k} must be < n={n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    out = np.empty((n, k), dtype=np.int64)
    ar = np.arange(n)
    q = min((k + 1) // 4 + 6, -(-n // _STRIDE))  # clipped to the sample

    def select(lo: int, hi: int) -> None:
        block = distance_rows(lo, hi)
        block[ar[lo:hi] - lo, ar[lo:hi]] = np.inf  # exclude self
        t = np.partition(block[:, ::_STRIDE], q - 1, axis=1)[:, q - 1:q]
        # flat indices keep row-major order, so each row's columns ascend
        rows, cols = np.divmod(np.flatnonzero(block <= t), n)
        counts = np.bincount(rows, minlength=hi - lo)
        at = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        # +inf pads sort after every candidate: the sort is stable
        vals = np.full((hi - lo, max(k, counts.max())), np.inf)
        vals[rows, at] = block[rows, cols]
        cand = np.zeros(vals.shape, dtype=np.int64)
        cand[rows, at] = cols
        order = np.argsort(vals, axis=1, kind="stable")[:, :k]
        out[lo:hi] = np.take_along_axis(cand, order, axis=1)
        for r in np.flatnonzero(counts < k):
            out[lo + r] = np.lexsort((ar, block[r]))[:k]

    _map_row_blocks(select, n)
    return out


def knn(d: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors per row, self excluded.

    Ordered by ascending distance; exact ties resolved by lower index.
    """
    return _knn_by_blocks(d.shape[0], k, lambda lo, hi: d[lo:hi].copy())


def k_reciprocal_sets(knn_idx: np.ndarray):
    """CSR adjacency R with R[i,j] iff j in knn(i) and i in knn(j)."""
    import scipy.sparse as sp
    n, k = knn_idx.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = knn_idx.ravel()
    a = sp.csr_matrix(
        (np.ones(n * k, dtype=np.int8), (rows, cols)), shape=(n, n)
    )
    r = a.multiply(a.T).tocsr()
    r.eliminate_zeros()
    return r


def jaccard_distance(reciprocal, out: np.ndarray | None = None) -> np.ndarray:
    """1 - |S(i) & S(j)| / |S(i) | S(j)| over k-reciprocal sets.

    S(i) is row i of the `k_reciprocal_sets` adjacency plus {i} itself, so no
    set is empty and the diagonal is 0. Each `_map_row_blocks` row range
    counts its own intersections as one sparse product (sets are tiny) and
    fills its rows of the dense result from that product's CSR rows, so no
    whole-pass product is ever held. A given `out`, a C-contiguous (n, n)
    float64 array whose contents are ignored, receives the result and is
    returned.
    """
    import scipy.sparse as sp
    n = reciprocal.shape[0]
    if out is None:
        out = np.empty((n, n), dtype=np.float64)
    elif (out.shape != (n, n) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous ({n}, {n}) float64 array")
    s = reciprocal.astype(np.int32)  # counts <= n; halves the product's data
    s = (s + sp.identity(n, dtype=np.int32, format="csr")).tocsr()
    s.data[:] = 1
    sizes = np.asarray(s.getnnz(axis=1), dtype=np.int64)
    st = s.T.tocsr()  # the transpose, so any adjacency counts exactly

    def fill(lo: int, hi: int) -> None:
        inter = s[lo:hi] @ st
        ptr, c, both = inter.indptr, inter.indices, inter.data
        rows = np.repeat(np.arange(lo, hi), np.diff(ptr))
        out[lo:hi] = 1.0
        out[rows, c] = 1.0 - both / (sizes[rows] + sizes[c] - both)

    _map_row_blocks(fill, n)
    np.fill_diagonal(out, 0.0)
    ENTRY_COUNTER.add(n * n)
    return out


def clustering_distance(embeddings: np.ndarray, k: int) -> np.ndarray:
    """Full cosine -> kNN -> k-reciprocal -> Jaccard pipeline.

    The (n, n) float64 result is the only n^2 buffer of the pass, allocated
    first. Cosine distances are computed in `_ROW_BLOCK`-row blocks straight
    into its rows, and each block is reduced to kNN lists at once; the
    Jaccard fill then overwrites every row. The n x n cosine matrix is never
    held, but the counter still gets n^2 for its entries. The kNN selection
    is `knn`'s. A row block's product can round a dot product differently
    from `pairwise_cosine_distance`'s symmetric one in the last bits, which
    could only reorder neighbours whose distances agree to those bits.
    """
    e = _unit_rows(embeddings)
    n = e.shape[0]
    d = np.empty((n, n), dtype=np.float64)

    def cosine_rows(lo: int, hi: int) -> np.ndarray:
        block = np.matmul(e[lo:hi], e.T, out=d[lo:hi])
        return np.subtract(1.0, block, out=block)  # bitwise -x + 1

    lists = _knn_by_blocks(n, k, cosine_rows)
    ENTRY_COUNTER.add(n * n)
    return jaccard_distance(k_reciprocal_sets(lists), out=d)
