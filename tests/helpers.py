"""Shared builders, oracles, and combinatorial generators for the test suite."""

from __future__ import annotations

from itertools import combinations
from math import factorial

import numpy as np

from wise._rng import derive_seed
from wise.data_model import ColumnSchema, table_from_raw
from wise.errors import DataError
from wise.forest import ForestParams, predict_tree, train_tree
from wise.treeshap import _leaf_scalar, _weight_tables
from wise.wkfreq import (
    FreqItemCenter,
    SparseWeightedVector,
    _as_centers,
    _distances,
    _freqitems,
    _indicator,
    _seed_from_candidates,
    cws_signatures,
    cws_sketch,
)


def numeric_table(values):
    """Single numeric column table."""
    schema = [ColumnSchema("x", "numeric")]
    return table_from_raw(schema, [(float(v),) for v in values])


def random_mixed_table(rng, n=80, numeric=2, nominal=2, levels=3):
    """Random table with numeric columns in [0,1] and nominal columns."""
    schema = [ColumnSchema(f"num_{a}", "numeric") for a in range(numeric)]
    schema += [ColumnSchema(f"cat_{a}", "nominal") for a in range(nominal)]
    cols = [rng.random(n) for _ in range(numeric)]
    cols += [
        np.array([f"v{t}" for t in rng.integers(0, levels, n)], dtype=object)
        for _ in range(nominal)
    ]
    rows = [tuple(col[i] for col in cols) for i in range(n)]
    return table_from_raw(schema, rows)


def random_sparse_binary(rng, n, p, min_nnz=3, max_nnz=10):
    """Random binary CSR matrix with a few ones per row."""
    from scipy import sparse

    indptr = [0]
    indices = []
    for _ in range(n):
        nnz = int(rng.integers(min_nnz, max_nnz + 1))
        indices.extend(sorted(rng.choice(p, size=nnz, replace=False).tolist()))
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.uint8), indices, indptr), shape=(n, p)
    )


def shap_oracle(root, x, background, output_index=None):
    """Exhaustive interventional Shapley: enumerate every coalition."""
    d = x.size
    cache = {}

    def value(S):
        if S not in cache:
            Z = background.copy()
            if S:
                Z[:, list(S)] = x[list(S)]
            pred = predict_tree(root, Z)
            if pred.ndim == 2:
                pred = pred[:, output_index]
            cache[S] = float(pred.mean())
        return cache[S]

    phi = np.zeros(d)
    for f in range(d):
        others = [g for g in range(d) if g != f]
        for r in range(d):
            for S in combinations(others, r):
                w = factorial(len(S)) * factorial(d - len(S) - 1) / factorial(d)
                phi[f] += w * (value(tuple(sorted(S + (f,)))) - value(S))
    return phi, value(())


def random_tree(rng, d, task="regression", n_classes=0, depth=3, nominal_frac=0.3):
    """Fit one small tree on random data; returns (root, X, is_nominal)."""
    n = 40
    is_nominal = rng.random(d) < nominal_frac
    X = rng.random((n, d))
    X[:, is_nominal] = rng.integers(0, 3, (n, int(is_nominal.sum()))).astype(float)
    if task == "classification":
        y = rng.integers(0, n_classes, n).astype(float)
    else:
        y = rng.random(n) + X[:, 0]
    params = ForestParams(T=1, max_depth=depth, min_samples_leaf=1,
                          train_sample_frac=1.0, features_per_split=1.0, seed=0)
    root = train_tree(X, y, params, rng, task, is_nominal, n_classes)
    return root, X, is_nominal


def reference_numeric_split(x, y, task, n_classes, min_leaf):
    """Per-task prefix scan of one threshold feature: (gain, threshold, None) or None.

    Reference for ``forest._numeric_split``: the SSE and Gini formulas are
    written out separately, on statistics rebuilt from ``y`` for each call.
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = xs.size
    cut = np.flatnonzero(xs[:-1] < xs[1:]) + 1  # left part sizes
    cut = cut[(cut >= min_leaf) & (cut <= n - min_leaf)]
    if cut.size == 0:
        return None
    if task == "regression":
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        nl = cut
        nr = n - nl
        sse_l = csum2[cut - 1] - csum[cut - 1] ** 2 / nl
        sse_r = (csum2[-1] - csum2[cut - 1]) - (csum[-1] - csum[cut - 1]) ** 2 / nr
        sse_p = csum2[-1] - csum[-1] ** 2 / n
        gains = (sse_p - sse_l - sse_r) / n
    else:
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys.astype(np.int64)] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        nl = cut.astype(np.float64)
        nr = n - nl
        left = prefix[cut - 1]
        right = prefix[-1] - left
        gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        total = prefix[-1] / n
        gini_p = 1.0 - np.sum(total**2)
        gains = gini_p - (nl * gini_l + nr * gini_r) / n
    best = int(np.argmax(gains))
    gain = float(gains[best])
    if gain <= 0.0:
        return None
    pos = cut[best]
    threshold = float((xs[pos - 1] + xs[pos]) / 2.0)
    return gain, threshold, None


def reference_nominal_split(x, y, task, n_classes, min_leaf):
    """Per-task category-prefix scan: (gain, None, left category set) or None.

    Reference for ``forest._nominal_split``: per-category sums by
    ``np.add.at``, categories ordered by mean target (regression) or share
    of the node's majority class (classification).
    """
    codes = x.astype(np.int64)
    cats = np.unique(codes)
    if cats.size < 2:
        return None
    n = codes.size
    if task == "regression":
        sums = np.zeros(cats.size)
        sqs = np.zeros(cats.size)
        cnt = np.zeros(cats.size)
        pos = np.searchsorted(cats, codes)
        np.add.at(sums, pos, y)
        np.add.at(sqs, pos, y * y)
        np.add.at(cnt, pos, 1.0)
        stat = sums / cnt
        order = np.argsort(stat, kind="stable")
        csum, csq, ccnt = np.cumsum(sums[order]), np.cumsum(sqs[order]), np.cumsum(cnt[order])
        nl = ccnt[:-1]
        nr = n - nl
        ok = (nl >= min_leaf) & (nr >= min_leaf)
        if not np.any(ok):
            return None
        sse_l = csq[:-1] - csum[:-1] ** 2 / nl
        sse_r = (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / nr
        sse_p = csq[-1] - csum[-1] ** 2 / n
        gains = np.where(ok, (sse_p - sse_l - sse_r) / n, -np.inf)
    else:
        ys = y.astype(np.int64)
        counts = np.zeros((cats.size, n_classes))
        pos = np.searchsorted(cats, codes)
        np.add.at(counts, (pos, ys), 1.0)
        cnt = counts.sum(axis=1)
        majority = int(np.argmax(counts.sum(axis=0)))
        stat = counts[:, majority] / cnt
        order = np.argsort(stat, kind="stable")
        prefix = np.cumsum(counts[order], axis=0)
        nl = prefix[:-1].sum(axis=1)
        nr = n - nl
        ok = (nl >= min_leaf) & (nr >= min_leaf)
        if not np.any(ok):
            return None
        left = prefix[:-1]
        right = prefix[-1] - left
        with np.errstate(invalid="ignore", divide="ignore"):
            gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
            gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        total = prefix[-1] / n
        gini_p = 1.0 - np.sum(total**2)
        gains = np.where(ok, gini_p - (nl * gini_l + nr * gini_r) / n, -np.inf)
    best = int(np.argmax(gains))
    gain = float(gains[best])
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    left_cats = frozenset(int(cats[i]) for i in order[: best + 1])
    return gain, None, left_cats


def set_partitions(n):
    """All set partitions of range(n) as canonical label tuples.

    Labels form restricted growth strings: a[0] = 0 and each a[i] is at
    most one above the running maximum, so each partition appears once.
    """
    out = []

    def grow(prefix, top):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for label in range(top + 2):
            prefix.append(label)
            grow(prefix, max(top, label))
            prefix.pop()

    grow([], -1)
    return out


def column_counts(X, rows):
    """Integer column counts of the given rows, from one row slice."""
    return np.asarray(X[rows].sum(axis=0)).ravel().astype(np.int64)


def freqitem_from_counts(f, omega, alpha, size):
    """FreqItem center of one member set from its column counts."""
    s = f.astype(np.float64) if omega is None else f * omega
    keep = (s > 0) & (s >= alpha * s.max())
    idx = np.flatnonzero(keep)
    return FreqItemCenter(idx=idx.astype(np.int64), val=s[idx] / np.maximum(1, f[idx]), size=size)


def reference_centers(X, labels, omega, alpha, k):
    """Per-cluster FreqItem centers of a labelling, one row slice each."""
    members = [np.flatnonzero(labels == c) for c in range(k)]
    return [freqitem_from_counts(column_counts(X, m), omega, alpha, m.size) for m in members]


def reference_silk_seed(X, omega, params, seed):
    """Per-bucket form of ``wkfreq.silk_seed``.

    Buckets are collected one signature group at a time, each bucket's
    counts come from its own row slice, each bucket FreqItem is sketched
    by ``cws_sketch`` on its own coordinates, and bins merge through a
    dict keyed by the sketch, in insertion order.
    """
    k = params.k
    if X.shape[0] < k:
        raise DataError(f"need at least k={k} rows, got {X.shape[0]}")
    rng = np.random.default_rng(derive_seed(seed, "silk"))
    level1 = params.lsh_tables * params.lsh_bands * params.lsh_rows
    coords, comps = cws_signatures(X, omega, np.arange(level1, dtype=np.int64), seed)
    nonempty = coords[:, 0] >= 0
    if not np.any(nonempty):
        raise DataError("all rows have empty effective support")

    buckets = []
    for h in range(0, level1, params.lsh_rows):
        sig = np.concatenate(
            [coords[:, h:h + params.lsh_rows], comps[:, h:h + params.lsh_rows]], axis=1)
        view = np.ascontiguousarray(sig).view(
            np.dtype((np.void, sig.dtype.itemsize * sig.shape[1]))).ravel()
        _, inverse, counts = np.unique(view, return_inverse=True, return_counts=True)
        order = np.argsort(inverse, kind="stable")
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for g in range(len(counts)):
            members = order[offsets[g]:offsets[g + 1]]
            members = members[nonempty[members]]
            if members.size >= 2:
                buckets.append(np.sort(members))

    level2_ids = level1 + np.arange(4, dtype=np.int64)
    bins = {}
    for members in buckets:
        center = freqitem_from_counts(column_counts(X, members), omega, params.beta, members.size)
        if center.idx.size == 0:
            continue
        hc, ht = cws_sketch(SparseWeightedVector(center.idx, center.val), level2_ids, seed)
        key = tuple(hc.tolist()) + tuple(ht.tolist())
        prev = bins.get(key)
        bins[key] = members if prev is None else np.union1d(prev, members)

    candidates = [
        freqitem_from_counts(column_counts(X, m), omega, params.beta, m.size)
        for m in bins.values()
    ]
    candidates.sort(key=lambda c: -c.size)
    candidates = candidates[:max(4 * k, 32)]
    return _seed_from_candidates(candidates, X, omega, nonempty, params, rng)


def assert_same_centers(got, want):
    """Centers agree in order, size and every coordinate and value bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.size == b.size
        assert a.idx.dtype == b.idx.dtype and np.array_equal(a.idx, b.idx)
        assert a.val.dtype == b.val.dtype and a.val.tobytes() == b.val.tobytes()


def _path_leaves(root):
    """(path, leaf value) pairs, left subtree first; a step is (node, went_left)."""
    leaves = []

    def walk(node, path):
        if node.is_leaf:
            leaves.append((tuple(path), node.value))
            return
        walk(node.left, path + [(node, True)])
        walk(node.right, path + [(node, False)])

    walk(root, [])
    return leaves


def _follows_steps(X, steps):
    """Whether each row of X routes along every given path step."""
    ok = np.ones(X.shape[0], dtype=bool)
    for node, went_left in steps:
        left = node.goes_left(X[:, node.feature])
        ok &= left if went_left else ~left
    return ok


def reference_shap_matrix(root, rows, background, output_index=None):
    """Per-leaf form of ``treeshap.shap_matrix``.

    Every leaf routes the explain and background rows along its whole
    path again and builds the (q, E, G) aligned/dead cubes of its q path
    features; the base value comes from a separate ``predict_tree`` pass.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    phi = np.zeros(rows.shape)
    for path, value in _path_leaves(root):
        if not path:
            continue
        leaf_value = _leaf_scalar(value, output_index)
        by_feature = {}
        for step in path:
            by_feature.setdefault(step[0].feature, []).append(step)
        feats = sorted(by_feature)
        fx = np.stack([_follows_steps(rows, by_feature[f]) for f in feats])
        fz = np.stack([_follows_steps(background, by_feature[f]) for f in feats])
        A = fx[:, :, None] & ~fz[:, None, :]
        B = ~fx[:, :, None] & fz[:, None, :]
        reach = ~(~fx[:, :, None] & ~fz[:, None, :]).any(axis=0)
        a = A.sum(axis=0)
        b = B.sum(axis=0)
        wa_tab, wb_tab = _weight_tables(len(feats))
        wa = wa_tab[a, b]
        wb = wb_tab[a, b]
        for qi, f in enumerate(feats):
            pos = np.where(reach & A[qi], wa, 0.0)
            neg = np.where(reach & B[qi], wb, 0.0)
            phi[:, f] += leaf_value * (pos - neg).mean(axis=1)
    base_pred = predict_tree(root, background)
    if base_pred.ndim == 2:
        base_pred = base_pred[:, output_index]
    return phi, float(base_pred.mean())


def distances_plain(X_int, centers):
    """Plain Jaccard distance between binary rows and center supports, in integers."""
    inter = np.stack([np.asarray(X_int[:, c.idx].sum(axis=1)).ravel() for c in centers], axis=1)
    row_sz = np.diff(X_int.indptr)
    cen_sz = np.array([c.idx.size for c in centers], dtype=np.int64)
    union = row_sz[:, None] + cen_sz[None, :] - inter
    sim = np.where(union > 0, inter / np.where(union > 0, union, 1), 1.0)
    return 1.0 - sim


def reference_lloyd(X, params, weights, initial_centers):
    """The Lloyd loop of ``wkfreq.cluster`` with no early stop but a label fixed point.

    Returns (labels, centers, mean_distance, n_iter) after at most
    ``params.max_iter`` iterations from the given centers.  With
    ``weights=None`` it is plain k-FreqItems in integer arithmetic:
    set-size Jaccard distances and integer-count FreqItem centers.
    """
    X = X.tocsr()
    n = X.shape[0]
    if weights is None:
        X_int = X.astype(np.int64)
    else:
        omega = np.asarray(weights, dtype=np.float64)
        omega = omega / omega.max()
        X_float = X.astype(np.float64)
    centers = initial_centers
    rows = np.arange(n)
    labels_prev = None
    n_iter = 0
    for _ in range(params.max_iter):
        if weights is None:
            D = distances_plain(X_int, centers)
        else:
            D = _distances(X_float, X_float @ omega, omega, centers)
        labels = D.argmin(axis=1)
        assigned = D[rows, labels]
        counts = np.bincount(labels, minlength=params.k)
        if np.any(counts == 0):
            spare = assigned.copy()
            for cid in np.flatnonzero(counts == 0):
                worst = int(np.argmax(spare))
                labels[worst] = cid
                assigned[worst] = D[worst, cid]
                spare[worst] = -np.inf
        final_mean = float(assigned.mean())
        n_iter += 1
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            break
        labels_prev = labels
        if weights is None:
            centers = reference_centers(X, labels, None, params.alpha, params.k)
        else:
            sizes = np.bincount(labels, minlength=params.k)
            centers = _as_centers(_freqitems(_indicator(labels, params.k) @ X, omega, params.alpha), sizes)
    return labels, centers, final_mean, n_iter
