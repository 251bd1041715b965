"""Pairwise distances, kNN, k-reciprocal sets, and Jaccard distance.

Everything here is the substrate DBScan runs on. Distance matrices are plain
(n, n) float64 arrays, symmetric with a zero diagonal, and the k-reciprocal
set S(i) of point i holds i itself. Every n x n set of distance entries
evaluated, stored or not, adds n^2 to the module's entry counter; the cost
profiler reads it to reproduce the quadratic cost scaling of a pass.

A clustering pass runs in row blocks, the fused cosine + kNN selection of
`_cosine_knn` and then the Jaccard fill, on up to one worker thread per CPU in
the process's affinity mask; the numpy calls release the GIL, and each block
writes only its own rows, so results are bitwise the same for any worker
count. The pass's one n x n array holds each block's float32 cosine rows,
column sample and candidate mask until the Jaccard fill overwrites them; a
float64 row sum breaks near-ties. `pairwise_cosine_distance` and `knn` are
float64 references. scipy.sparse loads in `k_reciprocal_sets`, not at import.
"""

from __future__ import annotations

import os

import numpy as np

# rows per block. The selection's scratch lives in the result's own rows, so
# the height sizes only small per-block arrays. No result depends on it
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
    """1 - dot(e_i, e_j) over unit rows. Rows must be unit-norm within 1e-6.

    One symmetric product, as row blocks of a gemm are not exactly symmetric.
    It can give two identical rows distances to a third row one ulp apart, so
    `knn` on it breaks such ties by value where `clustering_distance`'s
    float64 row sum breaks them by index: it is not that pass's reference.
    """
    e = _unit_rows(embeddings)
    d = e @ e.T
    # in place: a second n x n temporary would double peak memory
    d *= -1.0
    d += 1.0
    np.fill_diagonal(d, 0.0)
    ENTRY_COUNTER.add(d.shape[0] * d.shape[0])
    return d


def _float32_bound(dim: int) -> float:
    """delta >= |D32 - D64| between float32 and any float64 cosine distance
    1 - x . y of rows in dim dims, norms within 1e-6 of 1. With u = 2^-24,
    float32 inputs move x . y by (2u + u^2) |x||y|, a float32 dot adds dim u
    / (1 - dim u) |x||y| in any order, 1 - s rounds by 2u, and float64 errs
    by under 2^-28 of that. With g = (dim + 4) u, 1.0001 g / (1 - 3 g) covers
    the sum, the norms and second-order terms: 4.1e-6 at dim = 64."""
    g = (dim + 4) * 2.0 ** -24
    return 1.0001 * g / (1.0 - 3.0 * g) if 3.0 * g < 1.0 else np.inf


def knn(d: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors per row, self excluded, by a full
    stable sort: ascending distance, exact ties to the lower index. A
    non-finite d is refused, as self is excluded by a +inf diagonal."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"d must be a square (n, n) array, got {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("non-finite distances")
    n = d.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, n), got k={k}, n={n}")
    d = d.copy()
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, axis=1, kind="stable")[:, :k].copy()


def k_reciprocal_sets(knn_idx: np.ndarray):
    """Binary symmetric CSR sets S with S[i,j] iff j = i, or j in knn(i) and
    i in knn(j): each S(i) holds i itself, as in the re-ranking paper. Each
    row of knn_idx must hold k distinct neighbours, self excluded."""
    import scipy.sparse as sp
    n, k = knn_idx.shape
    cols = np.sort(np.column_stack([np.arange(n), knn_idx]), axis=1).ravel()
    a = sp.csr_matrix((np.ones(cols.size, dtype=np.int32), cols,
                       np.arange(0, cols.size + 1, k + 1)), shape=(n, n))
    return a.multiply(a.T).tocsr()


def jaccard_distance(sets, out=None) -> np.ndarray:
    """1 - |S(i) & S(j)| / |S(i) | S(j)| over the `k_reciprocal_sets` matrix.

    Each S(i) holds i, so no set is empty and each diagonal entry is
    1 - |S(i)| / |S(i)| = 0 exactly. As S is symmetric, each
    `_map_row_blocks` row range counts its intersections as one sparse
    product with S (sets are tiny) and fills its own rows from it, so no
    whole-pass product is ever held. It fills `out`, if given.
    """
    n = sets.shape[0]
    out = np.empty((n, n)) if out is None else out
    if not (isinstance(out, np.ndarray) and out.shape == (n, n)
            and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ValueError(f"out must be C-contiguous float64 ({n}, {n})")
    sizes = np.diff(sets.indptr)

    def fill(lo: int, hi: int) -> None:
        inter = sets[lo:hi] @ sets
        ptr, c, both = inter.indptr, inter.indices, inter.data
        rows = np.repeat(np.arange(lo, hi), np.diff(ptr))
        out[lo:hi] = 1.0
        out[rows, c] = 1.0 - both / (sizes[rows] + sizes[c] - both)

    _map_row_blocks(fill, n)
    ENTRY_COUNTER.add(n * n)
    return out


def _rescore(e: np.ndarray, i: int, cols: np.ndarray, k: int) -> np.ndarray:
    """Row i's k nearest among the ascending cols, which hold them, by one
    float64 row sum 1 - sum(e_j * e_i): identical rows get identical values
    wherever they sit, so exact ties go to the lower index."""
    x = 1.0 - (e[cols] * e[i]).sum(axis=1)
    x[cols == i] = np.inf
    return cols[np.argsort(x, kind="stable")[:k]]


def _cosine_knn(e: np.ndarray, k: int, buf: np.ndarray) -> np.ndarray:
    """kNN lists of the unit rows e, selected in `_map_row_blocks` row blocks
    that work in the same rows of buf, a C-contiguous float64 (n, n) array.

    Each block is 1 - e32 @ e32.T in float32, every entry within delta =
    `_float32_bound(d)` of its float64 value. A row's threshold t is the q-th
    smallest entry of every `_STRIDE`-th column, q = (k + 1) // 4 + 6, and
    only the entries <= t, about 8q, are stably sorted. If there are more
    than k and the (k + 1)-th exceeds the k-th by more than 2 delta, every
    column left out is farther in float64 than all of the first k, which are
    kept. Any other row goes to `_rescore` over the columns within 2 delta of
    its k-th float32 entry (all, if it has fewer than k candidates); every
    column beyond is farther in float64 than its k-th nearest. Sets are the
    float64 row sums'; a kept list is ordered by its float32 values.
    """
    n = e.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, n), got k={k}, n={n}")
    e32 = e.astype(np.float32)
    bound = 2.0 * _float32_bound(e.shape[1])
    out = np.empty((n, k), dtype=np.int64)
    ns = -(-n // _STRIDE)  # the sampled columns of a row
    q = min((k + 1) // 4 + 6, ns)  # clipped to the sample

    def select(lo: int, hi: int) -> None:
        # the rows' 2 m n float32s hold the block, the sample, the 1-byte mask
        m = hi - lo
        raw = buf[lo:hi].reshape(-1).view(np.float32)
        block = np.matmul(e32[lo:hi], e32.T, out=raw[:m * n].reshape(m, n))
        np.subtract(1.0, block, out=block)
        np.fill_diagonal(block[:, lo:hi], np.inf)  # exclude self
        sample = raw[m * n:m * (n + ns)].reshape(m, ns)
        np.copyto(sample, block[:, ::_STRIDE])
        sample.partition(q - 1, axis=1)
        mask = raw[m * (n + ns):].view(bool)[:m * n].reshape(m, n)
        np.less_equal(block, sample[:, q - 1:q], out=mask)
        # flat indices keep row-major order, so each row's columns ascend
        rows, cols = np.divmod(np.flatnonzero(mask), n)
        counts = np.bincount(rows, minlength=m)
        starts = np.cumsum(counts) - counts
        at = np.arange(rows.size) - starts[rows]
        # +inf pads sort after every candidate: the sort is stable
        vals = np.full((m, max(k + 1, counts.max())), np.inf)
        vals[rows, at] = block[rows, cols]
        cand = np.zeros(vals.shape, dtype=np.int64)
        cand[rows, at] = cols
        order = np.argsort(vals, axis=1, kind="stable")[:, :k + 1]
        near = np.take_along_axis(vals, order, axis=1)
        out[lo:hi] = np.take_along_axis(cand, order[:, :k], axis=1)
        # a row short of k + 1 candidates keeps gap 0: its pads make inf - inf
        gap = np.subtract(near[:, k], near[:, k - 1], out=np.zeros(m),
                          where=counts > k)
        for r in np.flatnonzero(gap <= bound):
            window = np.flatnonzero(block[r] <= near[r, k - 1] + bound)
            out[lo + r] = _rescore(e, lo + r, window, k)

    _map_row_blocks(select, n)
    return out


def clustering_distance(embeddings: np.ndarray, k: int) -> np.ndarray:
    """Full cosine -> kNN -> k-reciprocal -> Jaccard pipeline.

    `_cosine_knn` never holds the n x n cosine matrix, but the counter still
    gets n^2 for its entries; the Jaccard result is the pass's only n^2 buffer.
    """
    e = _unit_rows(embeddings)
    # the pass's one n x n buffer, taken first so a pass without the memory
    # fails before the kNN work; the selection works in it, then the result
    out = np.empty((e.shape[0], e.shape[0]))
    lists = _cosine_knn(e, k, out)
    ENTRY_COUNTER.add(e.shape[0] ** 2)
    return jaccard_distance(k_reciprocal_sets(lists), out)
