"""Clustering evaluation: ARI, NMI, purity, Hungarian-matched accuracy,
and a Gower-distance silhouette for mixed-type tables.

ARI is computed in exact integer arithmetic up to the final division, so
the chance-adjustment algebra never loses precision.  NMI uses the
geometric-mean normalization with natural logarithms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data_model import MixedTable, unit_column
from .errors import DataError


# integer label arrays of at most this many entries are tabled in Python,
# where numpy's per-call costs would outweigh the counting
SMALL_LABELS = 128


def contingency(y_pred, y_true) -> np.ndarray:
    """K_pred x K_true counts of label pairs, rows and columns in sorted
    label order."""
    y_pred = np.asarray(y_pred)
    y_true = np.asarray(y_true)
    if y_pred.shape != y_true.shape or y_pred.ndim != 1:
        raise DataError(f"label shapes differ: {y_pred.shape} vs {y_true.shape}")
    if y_pred.size == 0:
        raise DataError("empty label arrays")
    if y_pred.size <= SMALL_LABELS and y_pred.dtype.kind in "biu" and y_true.dtype.kind in "biu":
        pred, true = y_pred.tolist(), y_true.tolist()
        row = {v: i for i, v in enumerate(sorted(set(pred)))}
        col = {v: i for i, v in enumerate(sorted(set(true)))}
        width = len(col)
        flat = [0] * (len(row) * width)
        for u, v in zip(pred, true):
            flat[row[u] * width + col[v]] += 1
        return np.array(flat, dtype=np.int64).reshape(len(row), width)
    # np.unique sorts, so rows and columns follow sorted label order
    rows, pi = np.unique(y_pred, return_inverse=True)
    cols, ti = np.unique(y_true, return_inverse=True)
    width = cols.size
    return np.bincount(pi * width + ti, minlength=rows.size * width).reshape(rows.size, width)


def _comb2(x) -> int:
    return int(x) * (int(x) - 1) // 2


def _ari(counts: np.ndarray) -> float:
    rows = counts.tolist()
    N2 = _comb2(sum(map(sum, rows)))
    I = sum(_comb2(v) for row in rows for v in row)
    A = sum(_comb2(sum(row)) for row in rows)
    B = sum(_comb2(sum(col)) for col in zip(*rows))
    num = 2 * (N2 * I - A * B)
    den = N2 * (A + B) - 2 * A * B
    if den == 0:
        return 1.0
    return num / den


def ari(y_pred, y_true) -> float:
    """Adjusted Rand index via exact integer pair counts.

    With N2 = C(n,2), I = sum of C(n_ij,2), A/B the marginal pair sums:
    ARI = 2(N2*I - A*B) / (N2*(A+B) - 2AB); a zero denominator means both
    partitions are trivial and identical in pair structure, giving 1.
    """
    return _ari(contingency(y_pred, y_true))


def _nmi(counts: np.ndarray) -> float:
    rows = counts.tolist()
    row_sums, col_sums = [sum(row) for row in rows], [sum(col) for col in zip(*rows)]
    n = sum(row_sums)
    hu = -sum((r / n) * math.log(r / n) for r in row_sums if r > 0)
    hv = -sum((c / n) * math.log(c / n) for c in col_sums if c > 0)
    if hu == 0.0 and hv == 0.0:
        return 1.0
    if hu == 0.0 or hv == 0.0:
        return 0.0
    mi = 0.0
    for row, r in zip(rows, row_sums):
        for nij, c in zip(row, col_sums):
            if nij > 0:
                mi += (nij / n) * math.log(n * nij / (r * c))
    return mi / math.sqrt(hu * hv)


def nmi(y_pred, y_true) -> float:
    """I(U;V) / sqrt(H(U) H(V)), natural logs.

    A zero-entropy side carries no information: both sides constant
    means the partitions agree trivially (1); exactly one constant side
    shares nothing (0).
    """
    return _nmi(contingency(y_pred, y_true))


def _purity(counts: np.ndarray) -> float:
    return float(counts.max(axis=1).sum()) / int(counts.sum())


def purity(y_pred, y_true) -> float:
    return _purity(contingency(y_pred, y_true))


def _acc(counts: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(-counts)
    return float(counts[rows, cols].sum()) / int(counts.sum())


def acc_hungarian(y_pred, y_true) -> float:
    """Best one-to-one label matching accuracy.

    scipy's rectangular assignment maximizes over injections from the
    smaller label set into the larger, which is exactly the padded
    square formulation.
    """
    return _acc(contingency(y_pred, y_true))


SWC_SUBSAMPLE = 5000


def _gower_cluster_sums(v: np.ndarray, nominal: bool, yi: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(m, K) sums of one column's Gower distances from each point to each cluster.

    Nominal: the cluster's rows at another level, an exact integer count.
    Unit scalar: with the cluster's values sorted and prefix sums ``pre``,
    ``lo``/``hi`` the counts below / at most v, the sum of |v - s| is
    ``v*lo - pre[lo] + (pre[-1] - pre[hi]) - v*(size - hi)``; equal values
    add exactly 0.
    """
    m, K = v.size, sizes.size
    if nominal:
        present, codes = np.unique(v, return_inverse=True)
        levels = present.size
        same = np.bincount(yi * levels + codes, minlength=K * levels).reshape(K, levels)
        return (sizes[:, None] - same[:, codes]).T.astype(np.float64)
    out = np.empty((m, K))
    for k in range(K):
        s = np.sort(v[yi == k])
        pre = np.concatenate(([0.0], np.cumsum(s)))
        lo = np.searchsorted(s, v, side="left")
        hi = np.searchsorted(s, v, side="right")
        out[:, k] = v * lo - pre[lo] + (pre[-1] - pre[hi]) - v * (sizes[k] - hi)
    return out


def _swc_scores(table: MixedTable, y, subsample_size: int, seed: int) -> np.ndarray:
    """Per-point silhouettes of the (sub)sampled rows, in row order; see swc_gower."""
    y = np.asarray(y)
    if y.size != table.n:
        raise DataError(f"{y.size} labels for {table.n} rows")
    rng = np.random.default_rng(seed)
    if table.n > subsample_size:
        rows = np.sort(rng.choice(table.n, size=subsample_size, replace=False))
    else:
        rows = np.arange(table.n)
    ys = y[rows]
    labels, yi = np.unique(ys, return_inverse=True)
    K = labels.size
    if K < 2:
        raise DataError("silhouette needs at least 2 clusters in the sample")
    m = rows.size
    sizes = np.bincount(yi, minlength=K)
    # total Gower distance of each point to each cluster, never an m x m matrix;
    # numeric columns scale over the subsample, not the full table
    sums = np.zeros((m, K))
    for j, col in enumerate(table.schema):
        sums += _gower_cluster_sums(unit_column(table, j, rows), col.kind == "nominal", yi, sizes)
    sums /= table.d

    points = np.arange(m)
    a_tot = sums[points, yi]
    own_size = sizes[yi]
    # mean intra distance excludes the point itself
    a = np.where(own_size > 1, a_tot / np.maximum(own_size - 1, 1), 0.0)
    mean_other = sums / sizes[None, :]
    mean_other[points, yi] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.maximum(denom, 1e-300), 0.0)
    return np.where(own_size > 1, s, 0.0)


def swc_gower(table: MixedTable, y, subsample_size: int = SWC_SUBSAMPLE, seed: int = 0) -> float:
    """Mean silhouette under unweighted Gower distance, exact.

    Rows beyond subsample_size are subsampled with the given seed (same
    seed, same subsample).  Singleton clusters contribute 0; so does a
    point whose best inter- and intra-distance are both 0.  Cost is
    O(d K m log m) for m sampled rows and K clusters.
    """
    return float(_swc_scores(table, y, subsample_size, seed).mean())


def evaluate(table: MixedTable, y_pred, y_true=None, seed: int = 0) -> dict:
    """Metrics report; external metrics only when ground truth is given."""
    y_pred = np.asarray(y_pred)
    report = {
        "n": int(y_pred.size),
        "K_pred": int(np.unique(y_pred).size),
        "swc_subsample": min(SWC_SUBSAMPLE, table.n),
    }
    try:
        report["swc"] = swc_gower(table, y_pred, seed=seed)
    except DataError:
        report["swc"] = None
    if y_true is not None:
        counts = contingency(y_pred, y_true)
        report["K_true"] = counts.shape[1]
        report["ari"] = _ari(counts)
        report["nmi"] = _nmi(counts)
        report["purity"] = _purity(counts)
        report["acc"] = _acc(counts)
    return report
