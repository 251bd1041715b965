"""Reference implementations the package is checked against.

Everything here favors obviousness over speed: full sorts, explicit pair
loops, O(n^3) closures. None of it imports the package under test.
"""

import numpy as np


def knn_full_sort(dist, k):
    """k nearest per row by full stable sort; self excluded; ties -> lower index."""
    n = dist.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        order = [j for j in np.argsort(dist[i], kind="stable") if j != i]
        out[i] = order[:k]
    return out


def cosine_rowsum(e):
    """1 - e_i . e_j as a float64 sum over each row's elementwise products,
    one row i at a time, so identical rows get identical distances wherever
    they sit."""
    return np.vstack([1.0 - (e * e[i]).sum(axis=1) for i in range(len(e))])


def reciprocal_membership(knn_idx):
    """Dense bool R with R[i,j] iff j in knn(i) and i in knn(j)."""
    n = knn_idx.shape[0]
    member = np.zeros((n, n), dtype=bool)
    for i in range(n):
        member[i, knn_idx[i]] = True
    return member & member.T


def jaccard_from_sets(recip):
    """Explicit per-pair set Jaccard over each row's set plus itself."""
    n = recip.shape[0]
    sets = [set(np.flatnonzero(recip[i]).tolist()) | {i} for i in range(n)]
    d = np.ones((n, n))
    for i in range(n):
        for j in range(n):
            union = sets[i] | sets[j]
            d[i, j] = 1.0 - len(sets[i] & sets[j]) / len(union)
    np.fill_diagonal(d, 0.0)
    return d


def dbscan_reference(dist, eps, min_pts):
    """Density clustering by O(n^3) transitive closure.

    Core point: >= min_pts neighbors at distance <= eps, self excluded.
    Clusters are connected components of core points under the <= eps
    relation; a non-core point within eps of any core joins the cluster of
    the lowest-index such core; everything else is an outlier (-1).
    Cluster ids are issued in ascending order of each cluster's first core.
    """
    n = dist.shape[0]
    within = dist <= eps
    core = (within.sum(axis=1) - 1) >= min_pts

    adj = within & core[:, None] & core[None, :]
    np.fill_diagonal(adj, False)
    reach = adj.copy()
    for mid in range(n):  # Floyd-Warshall closure over core-core hops
        if core[mid]:
            reach |= reach[:, mid][:, None] & reach[mid][None, :]

    labels = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for i in range(n):
        if core[i] and labels[i] == -1:
            comp = np.flatnonzero(core & (reach[i] | (np.arange(n) == i)))
            labels[comp] = next_id
            next_id += 1
    for i in range(n):
        if not core[i]:
            hits = np.flatnonzero(within[i] & core)
            if hits.size:
                labels[i] = labels[hits[0]]
    return labels


def pk_sample_reference(labels, p, i, rng):
    """PK positions by scanning the label array per drawn label: p distinct
    labels without replacement, then i positions of each, with replacement
    only when the label has fewer than i."""
    labels = np.asarray(labels)
    distinct = np.unique(labels)
    if distinct.size < p:
        raise ValueError(f"need >= {p} distinct labels, have {distinct.size}")
    chosen = rng.choice(distinct, size=p, replace=False)
    picks = []
    for lab in chosen:
        members = np.flatnonzero(labels == lab)
        picks.append(rng.choice(members, size=i, replace=members.size < i))
    return np.concatenate(picks)


def holdout_split_reference(ids, holdout_fraction):
    """Train, query and gallery positions by a loop over the identities:
    the top fraction of the distinct ids is held out (none at 0, where the
    train rows are evaluated), and each evaluated identity with >= 2 rows
    gives its lowest position as the query and the rest as gallery."""
    ranked = np.unique(ids)
    cut = max(int(round(ranked.size * (1.0 - holdout_fraction))), 1)
    held = np.isin(ids, ranked[cut:])
    train_pos = np.flatnonzero(~held)
    eval_pos = np.flatnonzero(held) if holdout_fraction > 0 else train_pos
    query, gallery = [], []
    for ident in np.unique(ids[eval_pos]):
        rows = eval_pos[ids[eval_pos] == ident]
        if rows.size < 2:
            continue
        query.append(rows[0])
        gallery.extend(rows[1:])
    if len(query) < 2:
        raise ValueError(f"no evaluable retrieval: {len(query)} evaluated "
                         "identities with >= 2 samples each, need 2")
    return train_pos, np.array(query), np.array(gallery)


def partitions_match(a, b):
    """Same outlier set and same grouping up to a relabeling bijection."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or not np.array_equal(a == -1, b == -1):
        return False
    fwd, bwd = {}, {}
    for x, y in zip(a, b):
        if x == -1:
            continue
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


def average_precision(dist_row, relevant):
    """AP by walking the stably sorted ranking and averaging precision at hits."""
    order = np.argsort(dist_row, kind="stable")
    rel = np.asarray(relevant)[order]
    hits = 0
    total = 0.0
    for rank, r in enumerate(rel, start=1):
        if r:
            hits += 1
            total += hits / rank
    return total / rel.sum()


def cmc_curve(dist_row, relevant, max_rank):
    """Indicator vector: 1 from the rank of the first hit onward."""
    order = np.argsort(dist_row, kind="stable")
    rel = np.asarray(relevant)[order]
    first = int(np.flatnonzero(rel)[0]) + 1
    curve = np.zeros(max_rank)
    if first <= max_rank:
        curve[first - 1:] = 1.0
    return curve


def pair_counts(pred, true):
    """(TP, FP, FN, TN) over all unordered sample pairs."""
    n = len(pred)
    tp = fp = fn = tn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred[i] == pred[j]
            same_t = true[i] == true[j]
            if same_p and same_t:
                tp += 1
            elif same_p:
                fp += 1
            elif same_t:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def pairwise_quality(pred, true):
    """Precision/recall/F over pairs with the 0/0 -> 1.0 convention."""
    tp, fp, fn, _ = pair_counts(pred, true)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def adjusted_rand(pred, true):
    """ARI from the contingency-table comb2 sums; degenerate denominator -> 1."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    n = len(pred)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = 0.0
    for pu in np.unique(pred):
        for tu in np.unique(true):
            sum_ij += comb2(np.sum((pred == pu) & (true == tu)))
    sum_a = sum(comb2(np.sum(pred == pu)) for pu in np.unique(pred))
    sum_b = sum(comb2(np.sum(true == tu)) for tu in np.unique(true))
    expected = sum_a * sum_b / comb2(n)
    denom = (sum_a + sum_b) / 2.0 - expected
    if denom == 0:
        return 1.0
    return (sum_ij - expected) / denom


def outliers_to_singletons(labels):
    labels = np.asarray(labels).copy()
    neg = labels < 0
    if neg.any():
        start = labels.max(initial=-1) + 1
        labels[neg] = start + np.arange(neg.sum())
    return labels


def relative_error(got, want):
    """Scale-free gradient comparison used by every finite-difference test."""
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    scale = max(np.linalg.norm(got), np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / scale


def central_difference(fn, x, h=1e-6):
    """Elementwise central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = fn(x)
        flat[idx] = orig - h
        dn = fn(x)
        flat[idx] = orig
        gflat[idx] = (up - dn) / (2.0 * h)
    return grad
